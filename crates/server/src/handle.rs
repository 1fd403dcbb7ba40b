//! Request dispatch: one function per operation, all funneled through
//! [`handle`]. Handlers never touch sockets — they map a parsed
//! [`Request`] plus the shared [`ServerState`] and per-connection
//! [`Session`] to a [`Response`], which keeps every operation unit
//! testable without a live server.

use crate::protocol::{Request, Response, PROTOCOL_VERSION};
use crate::server::ServerState;
use crate::session::{config_preset, Session};
use spackle_asp::CancelToken;
use spackle_audit::{audit, audit_repository, explanation_report, AuditReport, Severity};
use spackle_core::{CoreError, Goal};
use spackle_spec::{parse_spec, Sym};
use std::time::{Duration, Instant};

/// Dispatch one request. Infallible at this layer: every failure mode
/// becomes an `ok:false` response with a rendered error.
pub fn handle(state: &ServerState, session: &mut Session, request: &Request) -> Response {
    let response = match request.op.as_str() {
        "ping" => {
            let mut r = Response::ok_for(request);
            r.protocol = PROTOCOL_VERSION;
            r
        }
        "concretize" => concretize(state, session, request),
        "last" => match session.last() {
            Some(prev) => {
                let mut r = prev.clone();
                r.id = request.id;
                r.op = request.op.clone();
                r
            }
            None => Response::err_for(request, "no concretization on this connection yet"),
        },
        "set-config" => match session.set_default_config(&request.config) {
            Ok(()) => Response::ok_for(request),
            Err(e) => Response::err_for(request, e),
        },
        "audit" => run_audit(state, session, request),
        "stats" => stats(state, request),
        "update" => update(state, request),
        "invalidate" => {
            let mut r = Response::ok_for(request);
            r.invalidated = state.invalidate() as u64;
            r
        }
        "shutdown" => Response::ok_for(request),
        other => Response::err_for(request, format!("unknown op {other:?}")),
    };
    if !response.ok {
        state.telemetry().record_failure();
    }
    response
}

/// Parse the request's goal: `roots` when non-empty, else `spec`.
fn parse_goal(request: &Request) -> Result<Goal, String> {
    let texts: Vec<&str> = if request.roots.is_empty() {
        if request.spec.is_empty() {
            return Err("concretize needs a `spec` or non-empty `roots`".to_string());
        }
        vec![request.spec.as_str()]
    } else {
        request.roots.iter().map(String::as_str).collect()
    };
    let mut goal = Goal {
        roots: Vec::with_capacity(texts.len()),
        forbidden: Vec::new(),
    };
    for text in texts {
        goal.roots
            .push(parse_spec(text).map_err(|e| format!("bad spec {text:?}: {e}"))?);
    }
    for name in &request.forbid {
        goal.forbidden.push(Sym::intern(name));
    }
    Ok(goal)
}

fn concretize(state: &ServerState, session: &mut Session, request: &Request) -> Response {
    let preset = session.effective_config(&request.config);
    let config = match config_preset(preset) {
        Ok(c) => c,
        Err(e) => {
            let mut r = Response::err_for(request, e);
            r.error_kind = "config".to_string();
            return r;
        }
    };
    let goal = match parse_goal(request) {
        Ok(g) => g,
        Err(e) => {
            let mut r = Response::err_for(request, e);
            r.error_kind = "parse".to_string();
            return r;
        }
    };

    // Per-request deadline wins over the server-wide default.
    let deadline = if request.timeout_ms > 0 {
        Some(Duration::from_millis(request.timeout_ms))
    } else {
        state.ops().default_timeout
    };
    let mut conc = state.concretizer(config);
    if let Some(budget) = deadline {
        conc = conc.with_cancel(CancelToken::with_deadline(budget));
    }

    let t = Instant::now();
    let result = conc.concretize_goal(&goal);
    let wall = t.elapsed();
    state.telemetry().record_solve(wall, result.is_ok());

    match result {
        Ok(solution) => {
            let search = &solution.stats.solver;
            state.telemetry().record_search(
                search.conflicts,
                search.decisions,
                search.propagations,
            );
            if solution.stats.degraded {
                state.telemetry().record_degraded();
            }
            let mut r = Response::ok_for(request);
            r.conflicts = search.conflicts;
            r.decisions = search.decisions;
            r.propagations = search.propagations;
            r.hashes = solution
                .specs
                .iter()
                .map(|s| s.dag_hash().to_string())
                .collect();
            r.reused = solution.reused.iter().map(|s| s.as_str().to_string()).collect();
            r.built = solution.built.iter().map(|s| s.as_str().to_string()).collect();
            r.spliced = solution.spliced.len() as u64;
            r.ground_cache_hit = solution.stats.ground_cache_hit;
            r.solve_ms = wall.as_secs_f64() * 1e3;
            r.degraded = solution.stats.degraded;
            r.skipped_sources = solution
                .stats
                .skipped_sources
                .iter()
                .map(|s| s.backend.clone())
                .collect();
            session.remember(&r);
            r
        }
        Err(e) => {
            let mut r = Response::err_for(request, e.to_string());
            r.error_kind = e.kind().to_string();
            r.solve_ms = wall.as_secs_f64() * 1e3;
            // Explain-on-unsat: the client opted in, so spend (deadline
            // permitting — the concretizer's cancel token still governs
            // the extractor) on a provenance-mapped unsat core. A core
            // that ran out of budget mid-minimization still ships, just
            // flagged non-minimal; an extractor failure ships the plain
            // unsat answer rather than masking it.
            if request.explain && matches!(e, CoreError::Unsatisfiable) {
                if let Ok(Some(ex)) = conc.explain_goal(&goal) {
                    let label = if request.roots.is_empty() {
                        request.spec.clone()
                    } else {
                        request.roots.join(", ")
                    };
                    let report = explanation_report(&state.repo_snapshot(), &label, &ex);
                    r.explanation = report.render_json();
                    r.explain_minimal = ex.minimal;
                    r.explain_core_size = ex.entries.len() as u64;
                    r.explain_probes = ex.probes;
                    state.telemetry().record_explain(
                        ex.entries.len() as u64,
                        ex.probes,
                        !ex.minimal,
                    );
                }
            }
            match e {
                CoreError::Cancelled { deadline: true } => state.telemetry().record_timeout(),
                // Budget exhaustion carries the solver's effort counters;
                // surface them so a client can see *how hard* the solver
                // tried before giving up.
                CoreError::BudgetExhausted {
                    conflicts,
                    decisions,
                    propagations,
                } => {
                    state.telemetry().record_budget_exhausted();
                    r.conflicts = conflicts;
                    r.decisions = decisions;
                    r.propagations = propagations;
                }
                _ => {}
            }
            r
        }
    }
}

/// Audit the resident repository; when the request names a goal spec,
/// also audit the exact ASP program a solve of that goal would hand the
/// solver (the concretizer reads `attr` and `splice_to` from models).
fn run_audit(state: &ServerState, session: &mut Session, request: &Request) -> Response {
    let repo = state.repo_snapshot();
    let mut report = AuditReport::new(audit_repository(&repo));

    if !request.spec.is_empty() {
        let preset = session.effective_config(&request.config);
        let config = match config_preset(preset) {
            Ok(c) => c,
            Err(e) => return Response::err_for(request, e),
        };
        let goal = match parse_goal(request) {
            Ok(g) => g,
            Err(e) => return Response::err_for(request, e),
        };
        let encoded = match state.concretizer(config).program_text(&goal) {
            Ok(e) => e,
            Err(e) => return Response::err_for(request, e.to_string()),
        };
        let program = match spackle_asp::parse_program(&encoded.program) {
            Ok(p) => p,
            Err(e) => {
                return Response::err_for(request, format!("generated program invalid: {e}"))
            }
        };
        let goals = [Sym::intern("attr"), Sym::intern("splice_to")];
        report = audit(&repo, &program, &goals);
    }

    let mut r = Response::ok_for(request);
    r.audit_errors = report.count(Severity::Error) as u64;
    r.audit_warnings = report.count(Severity::Warning) as u64;
    r.audit_report = report.render_json();
    r
}

/// Apply one repository delta: declare a new (least-preferred) version
/// on an existing package and partially invalidate the warm ground
/// cache by segment fingerprint. The response reports exactly what the
/// delta cost: how many segments moved, how many warm entries were
/// dropped, and how many survived to keep serving hits.
fn update(state: &ServerState, request: &Request) -> Response {
    if request.package.is_empty() || request.version.is_empty() {
        return Response::err_for(request, "update needs `package` and `version`");
    }
    match state.update(&request.package, &request.version) {
        Ok(outcome) => {
            let mut r = Response::ok_for(request);
            r.segments_changed = outcome.segments_changed as u64;
            r.invalidated = outcome.report.invalidated as u64;
            r.retained = outcome.report.retained as u64;
            r
        }
        Err(e) => Response::err_for(request, e),
    }
}

fn stats(state: &ServerState, request: &Request) -> Response {
    let telemetry = state.telemetry().snapshot();
    let cache = state.ground_cache().stats();
    // Absolute fault totals over every reusable-spec source (chained
    // sources already merge their children).
    let faults = state
        .caches()
        .iter()
        .fold(spackle_buildcache::SourceFaultStats::default(), |acc, c| {
            acc.merge(c.fault_stats())
        });
    let mut r = Response::ok_for(request);
    r.requests = telemetry.requests;
    r.concretizations = telemetry.concretizations;
    r.failures = telemetry.failures;
    r.in_flight = telemetry.in_flight;
    r.total_solve_ms = telemetry.total_solve.as_secs_f64() * 1e3;
    r.max_solve_ms = telemetry.max_solve.as_secs_f64() * 1e3;
    r.uptime_s = telemetry.uptime.as_secs_f64();
    r.conflicts = telemetry.conflicts;
    r.decisions = telemetry.decisions;
    r.propagations = telemetry.propagations;
    r.ground_hits = cache.hits;
    r.ground_misses = cache.misses;
    r.hit_rate = cache.hit_rate();
    r.cache_entries = cache.entries as u64;
    r.invalidated = cache.invalidated;
    r.delta_updates = cache.delta_updates;
    r.segments_invalidated = cache.segments_invalidated;
    r.segments_retained = cache.segments_retained;
    r.shed = telemetry.shed;
    r.timeouts = telemetry.timeouts;
    r.budget_exhausted = telemetry.budget_exhausted;
    r.degraded_solves = telemetry.degraded_solves;
    r.worker_panics = telemetry.worker_panics;
    r.cache_retries = faults.retries;
    r.cache_transient_errors = faults.transient_errors;
    r.cache_permanent_errors = faults.permanent_errors;
    r.cache_corrupt_entries = faults.corrupt_entries;
    r.cache_breaker_opens = faults.breaker_opens;
    r.cache_injected_faults = faults.injected_faults;
    r.explains = telemetry.explains;
    r.explains_partial = telemetry.explains_partial;
    r.explain_probes = telemetry.explain_probes;
    r.explain_core_size = telemetry.explain_core_members;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerState;
    use spackle_repo::{PackageBuilder, Repository};
    use std::sync::Arc;

    fn tiny_state() -> Arc<ServerState> {
        let repo = Repository::from_packages([
            PackageBuilder::new("zlib").version("1.3").build().unwrap(),
            PackageBuilder::new("app")
                .version("1.0")
                .depends_on("zlib")
                .build()
                .unwrap(),
            // Outside app's closure: its warm entries must survive a
            // zlib delta untouched.
            PackageBuilder::new("lua").version("5.4.4").build().unwrap(),
        ])
        .unwrap();
        Arc::new(ServerState::new(repo, Vec::new()))
    }

    #[test]
    fn concretize_then_last_then_stats() {
        let state = tiny_state();
        let mut session = Session::new();

        let resp = handle(&state, &mut session, &Request::concretize("app").with_id(1));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.hashes.len(), 1);
        assert!(!resp.ground_cache_hit, "cold cache");
        // The tiny instance may solve by propagation alone, so
        // propagations is the counter guaranteed to move.
        assert!(
            resp.propagations > 0,
            "search effort must surface per solve: {resp:?}"
        );

        let again = handle(&state, &mut session, &Request::concretize("app").with_id(2));
        assert!(again.ok);
        assert!(again.ground_cache_hit, "warm cache");
        assert_eq!(again.hashes, resp.hashes, "warm solve is bit-identical");
        // A replayed answer ran no search, so it reports none.
        assert_eq!(
            (again.conflicts, again.decisions, again.propagations),
            (0, 0, 0),
            "a ground-cache hit must not count the first search again"
        );

        let last = handle(&state, &mut session, &Request::op("last").with_id(3));
        assert!(last.ok);
        assert_eq!(last.id, 3);
        assert_eq!(last.hashes, again.hashes);

        let stats = handle(&state, &mut session, &Request::op("stats"));
        assert_eq!(stats.concretizations, 2);
        assert_eq!(stats.ground_hits, 1);
        assert_eq!(stats.ground_misses, 1);
        assert_eq!(stats.in_flight, 0, "handlers run outside begin_request here");
        assert_eq!(
            stats.decisions,
            resp.decisions + again.decisions,
            "stats must be the exact sum of per-solve search effort"
        );
        assert_eq!(stats.propagations, resp.propagations + again.propagations);
        assert_eq!(stats.conflicts, resp.conflicts + again.conflicts);
    }

    #[test]
    fn inconsistent_config_is_a_structured_error() {
        let state = tiny_state();
        let mut session = Session::new();
        let resp = handle(
            &state,
            &mut session,
            &Request::concretize("app").with_config("old+splice"),
        );
        assert!(!resp.ok);
        assert!(
            resp.error.starts_with("configuration:"),
            "structured config error over the wire, got: {}",
            resp.error
        );
    }

    #[test]
    fn invalidate_drops_and_rebuilds() {
        let state = tiny_state();
        let mut session = Session::new();
        let cold = handle(&state, &mut session, &Request::concretize("app"));
        assert_eq!(state.ground_cache().len(), 1);
        // A solve in flight across the invalidate: it holds the snapshot
        // it started with and finishes afterwards.
        let in_flight = state.concretizer(config_preset("splice").unwrap());

        let inv = handle(&state, &mut session, &Request::op("invalidate"));
        assert!(inv.ok);
        assert_eq!(inv.invalidated, 1);
        assert_eq!(state.ground_cache().len(), 0);

        let late = in_flight.concretize(&parse_spec("app").unwrap()).unwrap();
        assert!(!late.stats.ground_cache_hit, "invalidate dropped the entry");
        assert_eq!(state.ground_cache().len(), 1, "the late solve repopulates");

        // Its key is computed from the content it was solved over, so
        // the late insert is exactly what a fresh solve would store.
        let resp = handle(&state, &mut session, &Request::concretize("app"));
        assert!(resp.ok);
        assert!(
            resp.ground_cache_hit,
            "the late insert serves the next request"
        );
        assert_eq!(resp.hashes, cold.hashes);
    }

    #[test]
    fn update_invalidates_touched_segments_and_retains_the_rest() {
        let state = tiny_state();
        let mut session = Session::new();

        // Warm two entries: one whose closure contains zlib, one whose
        // closure does not.
        let app_cold = handle(&state, &mut session, &Request::concretize("app"));
        assert!(app_cold.ok, "{}", app_cold.error);
        let lua_cold = handle(&state, &mut session, &Request::concretize("lua"));
        assert!(lua_cold.ok, "{}", lua_cold.error);
        assert_eq!(state.ground_cache().len(), 2);

        let mut req = Request::op("update");
        req.package = "zlib".to_string();
        req.version = "1.4".to_string();
        let resp = handle(&state, &mut session, &req.clone().with_id(5));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.id, 5);
        assert_eq!(resp.segments_changed, 1, "only zlib's segment moved");
        assert_eq!(resp.invalidated, 1, "only app's entry references zlib");
        assert_eq!(resp.retained, 1, "lua's entry must survive");
        assert_eq!(
            state
                .repo_snapshot()
                .get(spackle_spec::Sym::intern("zlib"))
                .unwrap()
                .versions
                .len(),
            2
        );

        // The retained entry keeps hitting; the touched goal re-prepares
        // against the new world and — the appended version being least
        // preferred — still concretizes to the same DAG.
        let lua_warm = handle(&state, &mut session, &Request::concretize("lua"));
        assert!(lua_warm.ground_cache_hit, "retained entry must keep hitting");
        assert_eq!(lua_warm.hashes, lua_cold.hashes);
        let app_post = handle(&state, &mut session, &Request::concretize("app"));
        assert!(!app_post.ground_cache_hit, "touched goal must re-prepare");
        assert_eq!(app_post.hashes, app_cold.hashes);

        let stats = handle(&state, &mut session, &Request::op("stats"));
        assert_eq!(stats.delta_updates, 1);
        assert_eq!(stats.segments_invalidated, 1);
        assert_eq!(stats.segments_retained, 1);
        assert!(stats.hit_rate > 0.0);

        // Structured failures: duplicate version, unknown package,
        // unparseable version, missing arguments.
        assert!(!handle(&state, &mut session, &req).ok, "re-declaring 1.4");
        let mut ghost = Request::op("update");
        ghost.package = "ghost".to_string();
        ghost.version = "1.0".to_string();
        assert!(!handle(&state, &mut session, &ghost).ok);
        let mut bad = Request::op("update");
        bad.package = "zlib".to_string();
        bad.version = "not a version".to_string();
        assert!(!handle(&state, &mut session, &bad).ok);
        assert!(!handle(&state, &mut session, &Request::op("update")).ok);
    }

    #[test]
    fn racing_updates_of_one_package_keep_its_dependents_cacheable() {
        // Each round races concurrent updates of zlib. The cache's only
        // staleness rule is its content key, so whatever order their
        // deltas reach it in, app's answer for the current world is
        // stored and hits on its second solve.
        const THREADS: usize = 4;
        const ROUNDS: usize = 64;
        let state = tiny_state();
        let mut session = Session::new();
        for round in 0..ROUNDS {
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (state, start) = (&state, &start);
                    s.spawn(move || {
                        let mut req = Request::op("update");
                        req.package = "zlib".to_string();
                        req.version = format!("0.{round}.{t}");
                        start.wait();
                        let resp = handle(state, &mut Session::new(), &req);
                        assert!(resp.ok, "{}", resp.error);
                    });
                }
            });
            let first = handle(&state, &mut session, &Request::concretize("app"));
            assert!(first.ok, "{}", first.error);
            let second = handle(&state, &mut session, &Request::concretize("app"));
            assert!(second.ok, "{}", second.error);
            assert!(
                second.ground_cache_hit,
                "round {round}: app must hit on its second solve after racing updates"
            );
        }
    }

    #[test]
    fn unknown_op_and_bad_spec_fail_cleanly() {
        let state = tiny_state();
        let mut session = Session::new();
        assert!(!handle(&state, &mut session, &Request::op("frobnicate")).ok);
        assert!(!handle(&state, &mut session, &Request::concretize("@@@ nope")).ok);
        let empty = handle(&state, &mut session, &Request::op("concretize"));
        assert!(!empty.ok);
        let stats = handle(&state, &mut session, &Request::op("stats"));
        assert_eq!(stats.failures, 3);
    }

    #[test]
    fn unsat_with_explain_carries_a_provenance_mapped_core() {
        // app's two deps pin zlib to disjoint versions: a guaranteed
        // minimal two-directive conflict.
        let repo = Repository::from_packages([
            PackageBuilder::new("zlib")
                .version("1.3")
                .version("1.2.11")
                .build()
                .unwrap(),
            PackageBuilder::new("liba")
                .version("1.0")
                .depends_on("zlib@1.2")
                .build()
                .unwrap(),
            PackageBuilder::new("libb")
                .version("1.0")
                .depends_on("zlib@1.3")
                .build()
                .unwrap(),
            PackageBuilder::new("app")
                .version("2.0")
                .depends_on("liba")
                .depends_on("libb")
                .build()
                .unwrap(),
        ])
        .unwrap();
        let state = Arc::new(ServerState::new(repo, Vec::new()));
        let mut session = Session::new();

        // Without the flag: plain unsat, no explanation paid for.
        let plain = handle(&state, &mut session, &Request::concretize("app"));
        assert!(!plain.ok);
        assert_eq!(plain.error_kind, "unsat");
        assert!(plain.explanation.is_empty());

        let mut req = Request::concretize("app").with_id(9);
        req.explain = true;
        let resp = handle(&state, &mut session, &req);
        assert!(!resp.ok);
        assert_eq!(resp.error_kind, "unsat");
        assert!(resp.explain_minimal, "two disjoint pins minimize fully");
        assert!(resp.explain_core_size > 0);
        for frag in ["SPKL-E002", "zlib@1.2", "zlib@1.3"] {
            assert!(
                resp.explanation.contains(frag),
                "explanation must name both pinned directives, missing {frag}: {}",
                resp.explanation
            );
        }
        // Survives a wire round trip.
        let back = Response::from_line(&resp.to_line()).unwrap();
        assert_eq!(back.explanation, resp.explanation);
        assert_eq!(back.explain_probes, resp.explain_probes);

        let stats = handle(&state, &mut session, &Request::op("stats"));
        assert_eq!(stats.explains, 1);
        assert_eq!(stats.explains_partial, 0);
        assert_eq!(stats.explain_core_size, resp.explain_core_size);
        assert_eq!(stats.explain_probes, resp.explain_probes);
    }

    #[test]
    fn audit_repo_and_program() {
        let state = tiny_state();
        let mut session = Session::new();
        let repo_only = handle(&state, &mut session, &Request::op("audit"));
        assert!(repo_only.ok);
        assert_eq!(repo_only.audit_errors, 0, "{}", repo_only.audit_report);

        let mut with_goal = Request::op("audit");
        with_goal.spec = "app".to_string();
        let full = handle(&state, &mut session, &with_goal);
        assert!(full.ok);
        assert_eq!(full.audit_errors, 0, "{}", full.audit_report);
        assert!(!full.audit_report.is_empty());
    }
}
