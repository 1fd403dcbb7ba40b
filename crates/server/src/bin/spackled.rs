//! `spackled` — the long-lived concretization daemon.
//!
//! Boots the RADIUSS universe (the paper's experimental stack, with the
//! mpiabi shim package), builds the local and public buildcaches once,
//! and serves concretize / audit / stats / update / invalidate requests
//! over line-delimited JSON on TCP until a client sends `shutdown`.
//!
//! ```text
//! spackled [--listen ADDR] [--public-dags N] [--seed S]
//!          [--max-in-flight N] [--request-timeout-ms MS]
//!          [--drain-timeout-ms MS] [--smoke] [--chaos-smoke]
//! ```
//!
//! * `--listen ADDR`   — bind address (default `127.0.0.1:7654`;
//!   use port `0` for an ephemeral port, printed at boot)
//! * `--public-dags N` — synthesized public-cache DAGs (default `100`;
//!   `0` serves from the local cache alone)
//! * `--seed S`        — public-cache synthesis seed (default `42`)
//! * `--max-in-flight N` — shed concretize requests past N in flight
//!   with a structured `overloaded` response (default `0` = no limit)
//! * `--request-timeout-ms MS` — default wall-clock deadline for
//!   concretize requests that carry no `timeout_ms` of their own
//!   (default `0` = no deadline)
//! * `--drain-timeout-ms MS` — how long shutdown waits for in-flight
//!   workers before abandoning them (default `5000`)
//! * `--smoke`         — boot on an ephemeral port, run a scripted
//!   ping / concretize / stats / update / invalidate / shutdown
//!   exchange against the live server, and exit nonzero on any protocol
//!   mismatch. Used by CI's `server-smoke` job.
//! * `--chaos-smoke`   — run the fault-injection self-check: a seeded
//!   sweep of error / corruption / outage schedules solved differentially
//!   against per-source-subset oracles, plus a live overload + deadline
//!   exercise against a latency-injected server. Prints a one-line JSON
//!   summary (`schedules`, `ok`, `degraded`, `structured_errors`,
//!   `mismatches`, `retries`, `breaker_opens`, `shed`, `timeouts`) and
//!   exits nonzero on any violation. Used by CI's `chaos-smoke` job.

use spackle_buildcache::{
    CacheSource, ChainedCache, FaultConfig, FaultInjector, Labeled, RetryPolicy,
};
use spackle_core::{Concretizer, ConcretizerConfig, CoreError};
use spackle_radiuss::{local_cache, public_cache, radiuss_repo, with_mpiabi};
use spackle_server::server::{OpsConfig, ServerState};
use spackle_server::{serve, Client, Request};
use spackle_spec::parse_spec;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    public_dags: usize,
    seed: u64,
    max_in_flight: usize,
    request_timeout_ms: u64,
    drain_timeout_ms: u64,
    smoke: bool,
    chaos_smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7654".to_string(),
        public_dags: 100,
        seed: 42,
        max_in_flight: 0,
        request_timeout_ms: 0,
        drain_timeout_ms: 5000,
        smoke: false,
        chaos_smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        fn parsed<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            v.parse().map_err(|e| format!("{name}: {e}"))
        }
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--public-dags" => {
                args.public_dags = parsed("--public-dags", value("--public-dags")?)?;
            }
            "--seed" => args.seed = parsed("--seed", value("--seed")?)?,
            "--max-in-flight" => {
                args.max_in_flight = parsed("--max-in-flight", value("--max-in-flight")?)?;
            }
            "--request-timeout-ms" => {
                args.request_timeout_ms =
                    parsed("--request-timeout-ms", value("--request-timeout-ms")?)?;
            }
            "--drain-timeout-ms" => {
                args.drain_timeout_ms =
                    parsed("--drain-timeout-ms", value("--drain-timeout-ms")?)?;
            }
            "--smoke" => args.smoke = true,
            "--chaos-smoke" => args.chaos_smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: spackled [--listen ADDR] [--public-dags N] [--seed S] \
                     [--max-in-flight N] [--request-timeout-ms MS] [--drain-timeout-ms MS] \
                     [--smoke] [--chaos-smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn ops_config(args: &Args) -> OpsConfig {
    OpsConfig {
        max_in_flight: args.max_in_flight,
        default_timeout: (args.request_timeout_ms > 0)
            .then(|| Duration::from_millis(args.request_timeout_ms)),
        drain_timeout: Duration::from_millis(args.drain_timeout_ms),
    }
}

/// Build the resident state: the RADIUSS repository (with the mpiabi
/// shim, so splice goals resolve) and the local + public caches as
/// *separate* labeled sources. Keeping them separate (instead of
/// pre-chaining them) is what lets a degraded solve report exactly which
/// backend it dropped — the provenance the `degraded` / `skipped_sources`
/// response fields carry.
fn boot_state(public_dags: usize, seed: u64, ops: OpsConfig) -> ServerState {
    let base = radiuss_repo();
    let repo = with_mpiabi(&base);
    eprintln!("spackled: repository ready ({} packages)", repo.len());

    let local = local_cache(&base);
    eprintln!("spackled: local cache ready ({} entries)", local.len());
    let mut caches: Vec<Arc<dyn CacheSource>> = Vec::new();
    caches.push(Arc::new(Labeled::new(local, "local")));
    if public_dags > 0 {
        let public = public_cache(&base, public_dags, seed);
        eprintln!(
            "spackled: public cache ready ({} entries, {public_dags} dags, seed {seed})",
            public.len()
        );
        caches.push(Arc::new(Labeled::new(public, "public")));
    }
    ServerState::new(repo, caches).with_ops(ops)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spackled: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.smoke {
        return match smoke(args.public_dags, args.seed) {
            Ok(()) => {
                println!("spackled: smoke OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("spackled: smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.chaos_smoke {
        return match chaos_smoke(args.seed) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("spackled: chaos-smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let state = Arc::new(boot_state(args.public_dags, args.seed, ops_config(&args)));
    let server = match serve(state, &args.listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spackled: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    println!("spackled: listening on {}", server.addr());
    match server.join() {
        Ok(report) => {
            println!(
                "spackled: shut down cleanly ({} workers joined, {} abandoned, {} panicked)",
                report.workers_joined, report.workers_abandoned, report.worker_panics
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spackled: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The scripted end-to-end self-check behind `--smoke`: every assertion
/// here is a protocol guarantee CI relies on.
fn smoke(public_dags: usize, seed: u64) -> Result<(), String> {
    // Small universe: the smoke job checks the protocol, not throughput.
    let state = Arc::new(boot_state(public_dags.min(25), seed, OpsConfig::default()));
    let server = serve(state, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    eprintln!("spackled: smoke server on {addr}");
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;

    fn expect(cond: bool, what: &str) -> Result<(), String> {
        if cond {
            Ok(())
        } else {
            Err(what.to_string())
        }
    }

    let ping = client.call(Request::op("ping"))?;
    expect(ping.ok && ping.protocol == spackle_server::PROTOCOL_VERSION, "ping")?;

    // Cold solve, then the identical goal again: the second must be a
    // warm ground-cache hit with bit-identical hashes.
    let cold = client.concretize("hypre ^mpiabi")?;
    expect(cold.ok, "cold concretize failed")?;
    expect(!cold.ground_cache_hit, "first solve must miss the ground cache")?;
    expect(!cold.hashes.is_empty(), "cold solve returned no hashes")?;
    expect(!cold.degraded, "no faults injected, must not degrade")?;
    let warm = client.concretize("hypre ^mpiabi")?;
    expect(warm.ok, "warm concretize failed")?;
    expect(warm.ground_cache_hit, "second solve must hit the ground cache")?;
    expect(warm.hashes == cold.hashes, "warm hashes differ from cold")?;
    expect(warm.solve_ms >= 0.0, "bad solve_ms")?;

    let audit = client.call(Request::op("audit"))?;
    expect(audit.ok, "audit failed")?;
    expect(audit.audit_errors == 0, "repository audit reported errors")?;

    let stats = client.stats()?;
    expect(stats.ok, "stats failed")?;
    expect(stats.concretizations == 2, "expected 2 concretizations")?;
    expect(stats.ground_hits == 1 && stats.ground_misses == 1, "hit/miss counters")?;
    expect(stats.failures == 0, "unexpected failures recorded")?;
    expect(stats.cache_entries >= 1, "ground cache should be warm")?;
    expect(
        stats.shed == 0 && stats.timeouts == 0 && stats.worker_panics == 0,
        "fault counters must be zero on a healthy run",
    )?;

    // Delta update outside the goal's closure: lua gains a version, but
    // hypre's segments are untouched — the warm entry must be retained
    // and keep hitting.
    let mut unrelated = Request::op("update");
    unrelated.package = "lua".to_string();
    unrelated.version = "5.4.6".to_string();
    let up = client.call(unrelated)?;
    expect(up.ok, "unrelated update failed")?;
    expect(up.segments_changed >= 1, "update moved no segments")?;
    expect(up.invalidated == 0, "unrelated update must invalidate nothing")?;
    expect(up.retained >= 1, "unrelated update must retain the warm entry")?;
    let still_warm = client.concretize("hypre ^mpiabi")?;
    expect(still_warm.ok, "post-update concretize failed")?;
    expect(
        still_warm.ground_cache_hit,
        "retained entry must hit after an unrelated update",
    )?;
    expect(still_warm.hashes == cold.hashes, "retained hit changed the answer")?;

    // Delta update inside the closure: hypre itself gains a (least
    // preferred) version. Its entry is invalidated; the re-solve misses
    // but concretizes to the same DAG.
    let mut touching = Request::op("update");
    touching.package = "hypre".to_string();
    touching.version = "99.0.0".to_string();
    let up = client.call(touching)?;
    expect(up.ok, "touching update failed")?;
    expect(up.invalidated >= 1, "touching update must drop the warm entry")?;
    let delta_solve = client.concretize("hypre ^mpiabi")?;
    expect(delta_solve.ok, "post-delta concretize failed")?;
    expect(!delta_solve.ground_cache_hit, "touched goal must re-prepare")?;
    expect(
        delta_solve.hashes == cold.hashes,
        "least-preferred version changed the solution",
    )?;

    // Structured update failures keep the connection alive.
    let mut ghost = Request::op("update");
    ghost.package = "no-such-package".to_string();
    ghost.version = "1.0".to_string();
    expect(!client.call(ghost)?.ok, "unknown package must fail")?;

    let stats = client.stats()?;
    expect(stats.delta_updates == 2, "expected 2 delta updates")?;
    expect(stats.segments_invalidated >= 1, "no segments invalidated")?;
    expect(stats.segments_retained >= 1, "no segments retained")?;

    // Invalidate: warm entries drop, next solve misses but still
    // produces the same answer.
    let inv = client.invalidate()?;
    expect(inv.ok, "invalidate failed")?;
    expect(inv.invalidated >= 1, "invalidate dropped nothing")?;
    let rebuilt = client.concretize("hypre ^mpiabi")?;
    expect(rebuilt.ok, "post-invalidate concretize failed")?;
    expect(!rebuilt.ground_cache_hit, "post-invalidate solve must miss")?;
    expect(rebuilt.hashes == cold.hashes, "post-invalidate hashes differ")?;

    // A structured config error must arrive as a failure, not a panic.
    let bad = client.call(Request::concretize("hypre").with_config("old+splice"))?;
    expect(!bad.ok, "inconsistent config must fail")?;
    expect(bad.error.starts_with("configuration:"), "config error not structured")?;
    expect(bad.error_kind == "config", "config error must carry its kind")?;

    let down = client.shutdown()?;
    expect(down.ok, "shutdown refused")?;
    let report = server.join().map_err(|e| e.to_string())?;
    expect(report.workers_abandoned == 0, "drain abandoned workers")?;
    expect(report.worker_panics == 0, "a worker panicked")?;
    Ok(())
}

/// One schedule's fault pair (local backend, public backend), derived
/// deterministically from the sweep seed and the schedule index.
fn fault_pair(seed: u64, k: u64) -> (FaultConfig, FaultConfig) {
    let s = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let none = FaultConfig::default();
    match k % 8 {
        0 => (none, FaultConfig::flaky(s, 0.5)),
        1 => (FaultConfig::flaky(s, 0.3), none),
        2 => (none, FaultConfig::down()),
        3 => (FaultConfig::hard_down(), none),
        4 => (
            none,
            FaultConfig {
                seed: s,
                corrupt_rate: 0.5,
                ..FaultConfig::default()
            },
        ),
        5 => (
            FaultConfig {
                seed: s,
                fail_calls: Some(0..6),
                ..FaultConfig::default()
            },
            FaultConfig::flaky(s ^ 1, 0.2),
        ),
        6 => (
            FaultConfig::flaky(s, 0.8),
            FaultConfig {
                seed: s ^ 2,
                corrupt_rate: 0.3,
                ..FaultConfig::default()
            },
        ),
        _ => (
            FaultConfig {
                seed: s,
                error_rate: 0.3,
                transient_ratio: 0.5,
                corrupt_rate: 0.2,
                ..FaultConfig::default()
            },
            FaultConfig::flaky(s ^ 3, 0.5),
        ),
    }
}

/// The fault-injection self-check behind `--chaos-smoke` (a fast subset
/// of the `chaos` differential test suite, runnable against the shipped
/// binary). Returns the JSON summary line on success.
fn chaos_smoke(seed: u64) -> Result<String, String> {
    let base = radiuss_repo();
    let repo = with_mpiabi(&base);
    let local = local_cache(&base);
    let public = public_cache(&base, 25, seed);
    let goals = ["hypre ^mpiabi", "mfem ^mpich", "conduit", "py-shroud"];
    let config = ConcretizerConfig::splice_spack();

    // Per-goal oracles for every subset of surviving sources (bit 0 =
    // local, bit 1 = public): a degraded solve that dropped a backend
    // must be bit-identical to a fault-free solve that never had it.
    eprintln!("spackled: chaos-smoke: computing {} oracles", goals.len() * 4);
    let mut oracle: Vec<Vec<Vec<String>>> = Vec::new();
    for goal in &goals {
        let spec = parse_spec(goal).map_err(|e| format!("goal {goal:?}: {e}"))?;
        let mut per_subset = Vec::new();
        for subset in 0u32..4 {
            let mut conc = Concretizer::new(&repo).with_config(config.clone());
            if subset & 1 != 0 {
                conc = conc.with_reusable(local.clone());
            }
            if subset & 2 != 0 {
                conc = conc.with_reusable(public.clone());
            }
            let sol = conc
                .concretize(&spec)
                .map_err(|e| format!("oracle {goal:?} subset {subset}: {e}"))?;
            per_subset.push(
                sol.specs
                    .iter()
                    .map(|s| s.dag_hash().to_string())
                    .collect(),
            );
        }
        oracle.push(per_subset);
    }

    // Keep retry sleeps tiny: the smoke job replays many schedules and
    // the backoff *logic* is what matters, not the wall time.
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(2),
        breaker_threshold: 2,
        breaker_cooldown: 4,
        ..RetryPolicy::default()
    };

    let n_schedules: u64 = 16;
    let mut schedules = 0u64;
    let mut ok = 0u64;
    let mut degraded = 0u64;
    let mut structured_errors = 0u64;
    let mut mismatches = 0u64;
    let mut retries = 0u64;
    let mut breaker_opens = 0u64;
    let mut injected = 0u64;

    for k in 0..n_schedules {
        let (cfg_local, cfg_public) = fault_pair(seed, k);
        for (gi, goal) in goals.iter().enumerate() {
            schedules += 1;
            let spec = parse_spec(goal).expect("validated above");
            let src_local = ChainedCache::with(vec![
                FaultInjector::new(local.clone(), "local").with_config(cfg_local.clone()),
            ])
            .with_policy(policy.clone());
            let src_public = ChainedCache::with(vec![
                FaultInjector::new(public.clone(), "public").with_config(cfg_public.clone()),
            ])
            .with_policy(policy.clone());
            let conc = Concretizer::new(&repo)
                .with_config(config.clone())
                .with_reusable(src_local)
                .with_reusable(src_public);
            match conc.concretize(&spec) {
                Ok(sol) => {
                    retries += sol.stats.cache_faults.retries;
                    breaker_opens += sol.stats.cache_faults.breaker_opens;
                    injected += sol.stats.cache_faults.injected_faults;
                    // Which sources survived? Compare against the oracle
                    // for exactly that subset.
                    let mut subset = 0b11u32;
                    for skipped in &sol.stats.skipped_sources {
                        if skipped.backend.contains("local") {
                            subset &= !1;
                        }
                        if skipped.backend.contains("public") {
                            subset &= !2;
                        }
                    }
                    let hashes: Vec<String> = sol
                        .specs
                        .iter()
                        .map(|s| s.dag_hash().to_string())
                        .collect();
                    if hashes == oracle[gi][subset as usize] {
                        if sol.stats.degraded {
                            degraded += 1;
                        } else {
                            ok += 1;
                        }
                    } else {
                        mismatches += 1;
                        eprintln!(
                            "spackled: chaos-smoke MISMATCH: schedule {k} goal {goal:?} \
                             subset {subset:#04b}: {hashes:?} != {:?}",
                            oracle[gi][subset as usize]
                        );
                    }
                }
                // Structured errors are an acceptable outcome (the
                // gate is "right answer or honest error, never a wrong
                // answer / hang / panic").
                Err(e @ CoreError::Cache { .. })
                | Err(e @ CoreError::Cancelled { .. })
                | Err(e @ CoreError::BudgetExhausted { .. }) => {
                    let _ = e.kind();
                    structured_errors += 1;
                }
                Err(e) => {
                    return Err(format!(
                        "schedule {k} goal {goal:?}: unexpected error class: {e}"
                    ));
                }
            }
        }
    }

    // Live-server leg: a latency-injected backend plus a 1-request
    // in-flight cap must produce structured timeouts and sheds — and
    // exact counters — without dropping a single connection.
    eprintln!("spackled: chaos-smoke: live overload/deadline exercise");
    let slow: Arc<dyn CacheSource> = Arc::new(
        ChainedCache::with(vec![FaultInjector::new(local.clone(), "local")
            .with_config(FaultConfig::slow(Duration::from_millis(40)))])
        .with_policy(RetryPolicy::no_retries()),
    );
    let ops = OpsConfig {
        max_in_flight: 1,
        default_timeout: None,
        drain_timeout: Duration::from_secs(5),
    };
    let state = Arc::new(ServerState::new(repo.clone(), vec![slow]).with_ops(ops));
    let server = serve(state, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    // Deadline: the injected 40 ms/call latency guarantees a 1 ms budget
    // expires during encoding, long before the solver runs.
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut timed = Request::concretize("hypre ^mpiabi");
    timed.timeout_ms = 1;
    let r = client.call(timed)?;
    if r.ok || r.error_kind != "timeout" {
        return Err(format!(
            "expected a structured timeout, got ok={} kind={:?} error={:?}",
            r.ok, r.error_kind, r.error
        ));
    }

    // Overload: hold one slow solve in flight, then probe; every probe
    // must shed with a structured `overloaded` answer.
    let held = std::thread::spawn({
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        move || c.concretize("mfem ^mpich")
    });
    std::thread::sleep(Duration::from_millis(20));
    let mut shed_seen = 0u64;
    for _ in 0..3 {
        let mut probe = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let r = probe.call(Request::concretize("hypre ^mpiabi"))?;
        if !r.ok && r.error_kind == "overloaded" && r.retry_after_ms > 0 {
            shed_seen += 1;
        }
    }
    let held_resp = held
        .join()
        .map_err(|_| "held solve thread panicked".to_string())??;
    if !held_resp.ok {
        return Err(format!("held solve failed: {}", held_resp.error));
    }
    if shed_seen == 0 {
        return Err("no probe was shed under a saturated server".to_string());
    }

    let stats = client.stats()?;
    if stats.timeouts != 1 || stats.shed != shed_seen || stats.worker_panics != 0 {
        return Err(format!(
            "telemetry mismatch: timeouts={} (want 1) shed={} (want {shed_seen}) panics={}",
            stats.timeouts, stats.shed, stats.worker_panics
        ));
    }
    client.shutdown()?;
    let report = server.join().map_err(|e| e.to_string())?;
    if report.workers_abandoned != 0 || report.worker_panics != 0 {
        return Err(format!("bad drain: {report:?}"));
    }

    if mismatches > 0 {
        return Err(format!("{mismatches} differential mismatches"));
    }
    if injected == 0 || retries == 0 {
        return Err(format!(
            "fault schedule too tame: injected={injected} retries={retries}"
        ));
    }

    Ok(format!(
        "{{\"schedules\":{},\"ok\":{},\"degraded\":{},\"structured_errors\":{},\
         \"mismatches\":{},\"retries\":{},\"breaker_opens\":{},\"injected_faults\":{},\
         \"shed\":{},\"timeouts\":{}}}",
        schedules,
        ok,
        degraded,
        structured_errors,
        mismatches,
        retries,
        breaker_opens,
        injected,
        shed_seen,
        stats.timeouts,
    ))
}
