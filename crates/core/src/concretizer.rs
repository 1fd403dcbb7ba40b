//! The public concretizer API: compile → ground/solve → interpret.
//!
//! The concretizer is **owned and shareable**: it holds `Arc` handles to
//! its repository, its reusable-spec sources, and (optionally) a warm
//! [`GroundCache`], so it is `Clone + Send + Sync + 'static`. A
//! long-lived service builds one set of handles at startup and stamps
//! out a cheap per-request `Concretizer` per worker thread; a one-shot
//! CLI call passes plain references and lets the conversion traits copy
//! what little state there is.

use crate::encode::{
    cache_error, encode, goal_scope, EncodeConfig, EncodeOrigin, Encoded, Encoding, Goal,
};
use crate::explain::{ExplainEntry, Explanation};
use crate::ground_cache::{GroundCache, SolvedGoal};
use crate::interpret::{interpret, Interpretation, SpliceReport};
use crate::segment::SegmentSet;
use crate::CoreError;
use spackle_asp::{
    parse_program, parse_program_spanned, AspError, CancelToken, ExplainConfig, ExplainOutcome,
    SolveOutcome, SolveStats, Solver, SolverConfig,
};
use spackle_buildcache::{CacheSource, IntoCacheSource, SourceFaultStats};
use spackle_repo::Repository;
use spackle_spec::{AbstractSpec, ConcreteSpec, Os, Sym, Target};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concretizer configuration: which Spack variant to emulate.
#[derive(Clone, Debug)]
pub struct ConcretizerConfig {
    /// Reusable-spec encoding (the RQ1 axis: `Direct` = old spack,
    /// `Indirect` = splice spack).
    pub encoding: Encoding,
    /// Consider spliced solutions (requires `Indirect`; the RQ2/3 axis).
    pub splicing: bool,
    /// Requesting machine OS.
    pub os: Os,
    /// Requesting machine microarchitecture.
    pub target: Target,
    /// Restrict facts to the goal's possible dependency closure
    /// (default true; `false` is the scope-filter ablation).
    pub filter_irrelevant: bool,
    /// Graceful degradation (default `true`): when a reusable-spec
    /// source fails past its retry budget, drop that source, re-solve
    /// source-only over the survivors, and flag the solution
    /// [`ConcretizeStats::degraded`] with skipped-source provenance —
    /// instead of failing the request. Set `false` to surface
    /// [`CoreError::Cache`] directly.
    pub degrade_on_cache_failure: bool,
    /// Underlying ASP solver configuration.
    pub solver: SolverConfig,
}

impl Default for ConcretizerConfig {
    fn default() -> Self {
        ConcretizerConfig {
            encoding: Encoding::Indirect,
            splicing: true,
            os: Os::new("linux"),
            target: Target::new("x86_64"),
            filter_irrelevant: true,
            degrade_on_cache_failure: true,
            solver: SolverConfig::default(),
        }
    }
}

impl ConcretizerConfig {
    /// Emulate *old spack*: direct encoding, no splicing.
    pub fn old_spack() -> Self {
        ConcretizerConfig {
            encoding: Encoding::Direct,
            splicing: false,
            ..Default::default()
        }
    }

    /// Emulate *splice spack* with automatic splicing disabled (the new
    /// `hash_attr` encoding only — the paper's Fig 5 configuration).
    pub fn splice_spack_disabled() -> Self {
        ConcretizerConfig {
            encoding: Encoding::Indirect,
            splicing: false,
            ..Default::default()
        }
    }

    /// Emulate *splice spack* with automatic splicing enabled.
    pub fn splice_spack() -> Self {
        ConcretizerConfig {
            encoding: Encoding::Indirect,
            splicing: true,
            ..Default::default()
        }
    }

    /// Is this configuration internally consistent? Splicing requires
    /// the indirect (`hash_attr`) encoding: the direct encoding fixes a
    /// reused spec's whole closure, leaving nothing to splice.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.splicing && self.encoding == Encoding::Direct {
            return Err(CoreError::Config(
                "splicing requires the indirect (hash_attr) encoding; the direct encoding \
                 imposes a reused spec's full closure, so nothing can be spliced — disable \
                 splicing, switch to Encoding::Indirect, or call \
                 ConcretizerConfig::normalize() to resolve the conflict explicitly"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Resolve inconsistent axis combinations in the documented
    /// direction: under the direct encoding splicing is structurally
    /// impossible, so it is switched off. This is the **explicit** form
    /// of a normalization older releases applied silently inside
    /// `with_config`; the concretizer now rejects inconsistent
    /// configurations with [`CoreError::Config`] instead, so service
    /// clients get a diagnosable error rather than a quietly different
    /// solve.
    pub fn normalize(mut self) -> Self {
        if self.encoding == Encoding::Direct {
            self.splicing = false;
        }
        self
    }
}

/// Provenance for a reusable-spec source a degraded solve proceeded
/// without: which backend failed and the error that took it out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SkippedSource {
    /// Backend label of the dropped source.
    pub backend: String,
    /// Rendered error that exhausted the source's retry budget.
    pub error: String,
}

/// Timing and size measurements for one concretization.
#[derive(Clone, Debug, Default)]
pub struct ConcretizeStats {
    /// Wall time for fact/rule compilation.
    pub encode_time: Duration,
    /// Wall time for parsing the generated program.
    pub parse_time: Duration,
    /// Wall time for ground + translate + search + optimize (from the
    /// ASP engine).
    pub solve_time: Duration,
    /// Wall time for model interpretation.
    pub interpret_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
    /// Number of reusable specs the solver considered.
    pub reusable_specs: usize,
    /// Generated program size in bytes.
    pub program_bytes: usize,
    /// Whether this solve replayed a memoized answer (always `false`
    /// without [`Concretizer::with_ground_cache`]). A hit runs no
    /// encode, parse, ground or search: its times and
    /// [`ConcretizeStats::solver`] are zero.
    pub ground_cache_hit: bool,
    /// True when one or more reusable-spec sources failed past their
    /// retry budget and the solve proceeded without them (see
    /// [`ConcretizerConfig::degrade_on_cache_failure`]). A degraded
    /// solution is bit-identical to a fresh solve over the surviving
    /// sources — only the source set shrank.
    pub degraded: bool,
    /// Which sources a degraded solve skipped, in the order they were
    /// dropped. Empty when `degraded` is false.
    pub skipped_sources: Vec<SkippedSource>,
    /// Cache-source faults handled during this solve: the delta of the
    /// sources' cumulative [`SourceFaultStats`] across the call. Its
    /// `injected_faults` count [`spackle_buildcache::FaultInjector`]
    /// faults, zero outside chaos testing.
    pub cache_faults: SourceFaultStats,
    /// ASP engine statistics.
    pub solver: SolveStats,
}

/// A successful concretization.
#[derive(Debug)]
pub struct Solution {
    /// One concrete spec per requested root, in request order.
    pub specs: Vec<ConcreteSpec>,
    /// Packages reused from caches.
    pub reused: Vec<Sym>,
    /// Packages to build from source.
    pub built: Vec<Sym>,
    /// Executed splices.
    pub spliced: Vec<SpliceReport>,
    /// Lexicographic cost vector of the optimal model, `(priority,
    /// cost)` pairs highest priority first. Co-optimal models can
    /// differ across solver configurations (the solver breaks ties by
    /// search order), but this vector is identical for all of them —
    /// it is the equivalence the engine guarantees.
    pub cost: Vec<(i64, i64)>,
    /// Measurements.
    pub stats: ConcretizeStats,
}

impl Solution {
    /// Convenience: the single root spec (panics when the request had
    /// multiple roots).
    pub fn spec(&self) -> &ConcreteSpec {
        assert_eq!(self.specs.len(), 1, "multi-root solution");
        &self.specs[0]
    }
}

/// The concretizer: resolves abstract specs against a repository and
/// reusable binaries.
///
/// Owned and cloneable: the repository, the cache sources, and the
/// optional ground cache are all `Arc` handles, so a `Concretizer` (or a
/// clone of one) can move to a worker thread, and N concretizers can
/// share one warm [`GroundCache`] and one set of reusable-spec indexes.
#[derive(Clone)]
pub struct Concretizer {
    repo: Arc<Repository>,
    caches: Vec<Arc<dyn CacheSource>>,
    config: ConcretizerConfig,
    ground_cache: Option<Arc<GroundCache>>,
}

impl Concretizer {
    /// Concretizer over a borrowed `repo` with default (splice spack)
    /// configuration. The repository is **cloned** into a shared handle
    /// (ground-cache keys are computed from package content, so they
    /// still match across concretizers built from equal repositories).
    /// For long-lived or multi-threaded use, build the handle once and
    /// use [`Concretizer::shared`].
    pub fn new(repo: &Repository) -> Self {
        Concretizer::shared(Arc::new(repo.clone()))
    }

    /// Concretizer over an already-shared repository handle — the
    /// zero-copy constructor services and worker pools use.
    pub fn shared(repo: Arc<Repository>) -> Self {
        Concretizer {
            repo,
            caches: Vec::new(),
            config: ConcretizerConfig::default(),
            ground_cache: None,
        }
    }

    /// The repository this concretizer resolves against.
    pub fn repository(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// Use the given configuration, **verbatim**.
    ///
    /// Inconsistent axis combinations (splicing under the direct
    /// encoding) are *not* silently repaired here; they surface as
    /// [`CoreError::Config`] from the solve entry points, so remote
    /// callers see an actionable error instead of a quietly different
    /// answer. Call [`ConcretizerConfig::normalize`] first to opt into
    /// the repair explicitly.
    pub fn with_config(mut self, config: ConcretizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Add a source of reusable specs (may be called repeatedly; e.g.
    /// local then public). Any [`CacheSource`] works — a [`BuildCache`],
    /// a [`ChainedCache`], or a custom backend — passed as an owned
    /// value, an `Arc`, or a `&source` (cloned; see [`IntoCacheSource`]
    /// for the exact conversions).
    ///
    /// [`BuildCache`]: spackle_buildcache::BuildCache
    /// [`ChainedCache`]: spackle_buildcache::ChainedCache
    pub fn with_reusable(mut self, cache: impl IntoCacheSource) -> Self {
        self.caches.push(cache.into_cache_source());
        self
    }

    /// Install a cooperative cancellation token (a request deadline or
    /// an explicit kill switch) on the underlying solver. Shorthand for
    /// setting [`SolverConfig::cancel`]; checked both in the CDCL search
    /// loop and at pipeline stage boundaries.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.config.solver.cancel = cancel;
        self
    }

    /// Memoize answers in `cache`. Repeated solves of the same
    /// (closure package content, reusable-spec set, goal, encode config,
    /// grounding limits, search knobs) skip encode, parse, ground,
    /// translation and search, and replay the answer: the optimal model,
    /// or [`CoreError::Unsatisfiable`]. The engine's determinism makes
    /// the replay identical to an uncached solve. The cache is a shared
    /// handle: one warm [`GroundCache`] may back every concretizer and
    /// every thread in a process — that is the `spackled` service's
    /// entire fast path.
    pub fn with_ground_cache(mut self, cache: Arc<GroundCache>) -> Self {
        self.ground_cache = Some(cache);
        self
    }

    /// Concretize a single abstract spec.
    pub fn concretize(&self, spec: &AbstractSpec) -> Result<Solution, CoreError> {
        self.concretize_goal(&Goal::single(spec.clone()))
    }

    /// The encode-relevant view of the configuration, after validation.
    fn encode_config(&self) -> Result<EncodeConfig, CoreError> {
        self.config.validate()?;
        Ok(EncodeConfig {
            encoding: self.config.encoding,
            splicing: self.config.splicing,
            os: self.config.os,
            target: self.config.target,
            filter_irrelevant: self.config.filter_irrelevant,
        })
    }

    /// Compile a goal into the complete ASP program text this
    /// concretizer would solve (facts, directive rules, and logic
    /// fragments), plus the root package names and the number of
    /// reusable specs encoded. This is the exact input handed to the
    /// solver by [`Concretizer::concretize_goal`], exposed so external
    /// verification layers (the `spackle-oracle` differential harness)
    /// can re-solve and certificate-check the same program.
    pub fn program_text(&self, goal: &Goal) -> Result<Encoded, CoreError> {
        self.program_text_for(goal, &self.caches)
    }

    /// [`Concretizer::program_text`] over an explicit source set — the
    /// degraded-mode entry point, where the active sources are a subset
    /// of the configured ones.
    fn program_text_for(
        &self,
        goal: &Goal,
        sources: &[Arc<dyn CacheSource>],
    ) -> Result<Encoded, CoreError> {
        let enc_cfg = self.encode_config()?;
        let mut enc = encode(&self.repo, sources, goal, &enc_cfg)?;
        let frag = |enc: &mut Encoded, label: &'static str, text: &str| {
            enc.ledger
                .push((enc.program.len(), EncodeOrigin::Logic { fragment: label }));
            enc.program.push_str(text);
        };
        frag(&mut enc, "base", crate::logic::BASE_PROGRAM);
        match enc_cfg.encoding {
            Encoding::Direct => frag(&mut enc, "reuse-direct", crate::logic::REUSE_DIRECT),
            Encoding::Indirect => frag(&mut enc, "reuse-indirect", crate::logic::REUSE_INDIRECT),
        }
        if enc_cfg.splicing {
            frag(&mut enc, "splice", crate::logic::SPLICE_FRAGMENT);
        } else {
            frag(&mut enc, "no-splice", crate::logic::NO_SPLICE_STUB);
        }
        Ok(enc)
    }

    /// The memoization key for `goal` plus the [`SegmentSet`] it is
    /// composed from: one fingerprint per package in the goal's encode
    /// closure (computed by the same `goal_scope` the encoder uses, so
    /// the segment boundary can never drift from the fact base) and one
    /// per reusable-spec source partition. The key also hashes the goal,
    /// the encode-relevant configuration, the grounding limits and the
    /// search knobs (`conflict_budget`, `incremental_bnb`), which can
    /// steer which co-optimal model the search finds; the cancellation
    /// token is left out, as it never changes an answer. The key is
    /// **content-addressed**, so a delta that leaves every referenced
    /// segment untouched leaves the key — and the cached entry's
    /// validity — untouched too. Process-local; never persist it.
    ///
    /// Fallible because fingerprinting a remote source reads its index;
    /// a failure here is degradable like any other cache failure.
    pub fn segment_key(&self, goal: &Goal) -> Result<(u64, Arc<SegmentSet>), CoreError> {
        self.segment_key_for(goal, &self.caches)
    }

    /// [`Concretizer::segment_key`] over an explicit source set.
    /// Degraded solves key on the *surviving* sources' fingerprints, so
    /// they can never alias a full-fleet entry (or each other) in the
    /// ground cache.
    fn segment_key_for(
        &self,
        goal: &Goal,
        sources: &[Arc<dyn CacheSource>],
    ) -> Result<(u64, Arc<SegmentSet>), CoreError> {
        use std::hash::{Hash, Hasher};
        let enc_cfg = self.encode_config()?;
        let scope = goal_scope(&self.repo, goal, &enc_cfg)?;
        let mut segments = SegmentSet::default();
        for &name in &scope.closure {
            // Virtual names carry no definition; the provider packages
            // in the closure (whose fingerprints include their provider
            // rank) cover them.
            if let Some(fp) = self.repo.package_fingerprint(name) {
                segments.packages.push((name, fp));
            }
        }
        for (ci, c) in sources.iter().enumerate() {
            let fp = c
                .fingerprint()
                .map_err(|e| cache_error(ci, c.as_ref(), e))?;
            segments.sources.push((ci, fp));
        }

        let mut h = std::collections::hash_map::DefaultHasher::new();
        segments.packages.hash(&mut h);
        segments.sources.hash(&mut h);
        // Goal and the config axes derive Debug deterministically; their
        // renderings are injective enough for a conservative key (a
        // collision between distinct renderings would require two
        // different goals printing identically, which the derived
        // formatting rules out).
        format!("{goal:?}").hash(&mut h);
        format!(
            "{:?}|{}|{:?}|{:?}|{}",
            self.config.encoding,
            self.config.splicing,
            self.config.os,
            self.config.target,
            self.config.filter_irrelevant,
        )
        .hash(&mut h);
        self.config.solver.limits.max_atoms.hash(&mut h);
        self.config.solver.limits.max_rules.hash(&mut h);
        self.config.solver.conflict_budget.hash(&mut h);
        self.config.solver.incremental_bnb.hash(&mut h);
        Ok((h.finish(), Arc::new(segments)))
    }

    /// An expired deadline or an explicit cancel, as a typed error.
    fn check_cancel(&self) -> Result<(), CoreError> {
        match self.config.solver.cancel.check() {
            Some(deadline) => Err(CoreError::Cancelled { deadline }),
            None => Ok(()),
        }
    }

    /// The miss path: encode, parse, ground and solve `goal`, filling
    /// `stats` with the encode, parse, ground and solve times and the
    /// engine's statistics.
    fn solve_cold(
        &self,
        goal: &Goal,
        sources: &[Arc<dyn CacheSource>],
        stats: &mut ConcretizeStats,
    ) -> Result<SolvedGoal, CoreError> {
        let t0 = Instant::now();
        let Encoded {
            program: text,
            root_names,
            reusable_count,
            ledger: _,
        } = self.program_text_for(goal, sources)?;
        stats.encode_time = t0.elapsed();

        let t1 = Instant::now();
        let program = parse_program(&text)
            .map_err(|e| CoreError::Solve(format!("generated program invalid: {e}")))?;
        stats.parse_time = t1.elapsed();

        let solver = Solver::with_config(self.config.solver.clone());
        let t2 = Instant::now();
        let ground = solver.ground(&program).map_err(solve_error)?;
        let ground_time = t2.elapsed();

        // Stage boundary: catch an expired deadline here even when the
        // search itself would be too quick to poll its token — slow
        // backends (injected or real latency) spend the budget before
        // grounding ends, and the request must still time out
        // deterministically.
        self.check_cancel()?;
        let (outcome, mut solver_stats) = solver.solve_ground(ground).map_err(solve_error)?;
        solver_stats.ground_time = ground_time;
        stats.solve_time = solver_stats.ground_time + solver_stats.solve_time;
        stats.solver = solver_stats;
        let model = match outcome {
            SolveOutcome::Unsat => None,
            SolveOutcome::Optimal(m) => Some(Arc::new(m)),
        };

        // Debug builds certificate-check the optimal model against its
        // ground program (rule satisfaction, reduct minimality, cost
        // honesty) before it is stored or interpreted. A failure here is
        // a solver bug, never a user error.
        #[cfg(debug_assertions)]
        if let Some(model) = &model {
            if let Err(e) = spackle_asp::certify::certify_model(model) {
                return Err(CoreError::Solve(format!(
                    "solver emitted an uncertifiable model: {e}"
                )));
            }
        }

        Ok(SolvedGoal {
            model,
            root_names,
            reusable_count,
            program_bytes: text.len(),
        })
    }

    /// Concretize a goal (possibly multiple roots, possibly with
    /// forbidden packages).
    ///
    /// This is the fault boundary for reusable-spec sources: when a
    /// source fails past its retry budget and
    /// [`ConcretizerConfig::degrade_on_cache_failure`] is set (the
    /// default), the failing source is dropped, the solve re-runs over
    /// the survivors, and the solution is flagged
    /// [`ConcretizeStats::degraded`] with per-source provenance in
    /// [`ConcretizeStats::skipped_sources`]. The degraded answer is
    /// bit-identical to a fresh solve that never had the failed source.
    pub fn concretize_goal(&self, goal: &Goal) -> Result<Solution, CoreError> {
        // Validate before touching any cache so a misconfigured request
        // fails identically with and without a ground cache attached.
        self.config.validate()?;
        let fault_before = self.merged_fault_stats();
        let mut active: Vec<Arc<dyn CacheSource>> = self.caches.clone();
        let mut skipped: Vec<SkippedSource> = Vec::new();
        loop {
            self.check_cancel()?;
            match self.concretize_with_sources(goal, &active) {
                Ok(mut solution) => {
                    solution.stats.degraded = !skipped.is_empty();
                    solution.stats.skipped_sources = std::mem::take(&mut skipped);
                    solution.stats.cache_faults =
                        self.merged_fault_stats().saturating_sub(fault_before);
                    return Ok(solution);
                }
                Err(CoreError::Cache {
                    source,
                    backend,
                    detail,
                }) if self.config.degrade_on_cache_failure && source < active.len() => {
                    active.remove(source);
                    skipped.push(SkippedSource {
                        backend,
                        error: detail,
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Explain why `goal` cannot concretize — or report that it can.
    ///
    /// Returns `Ok(None)` when the goal is satisfiable (concretize it
    /// normally for the actual solution), or `Ok(Some(explanation))`
    /// with a provenance-mapped unsat core: a small set of source-level
    /// directives and goal constraints that are jointly unsatisfiable
    /// (see [`Explanation`]).
    ///
    /// This path deliberately differs from [`Concretizer::concretize_goal`]:
    ///
    /// * **No ground cache.** The cache keeps answers, while a core needs
    ///   the ground program and each parsed rule's source offset; and
    ///   explanation is an off-path diagnostic — it must never pollute or
    ///   depend on the hot solve pipeline.
    /// * **No branch-and-bound.** Core extraction never optimizes, and
    ///   the CDCL core has one configuration, so the reported core does
    ///   not depend on [`SolverConfig::incremental_bnb`]. Grounding
    ///   limits and the cancellation token carry over; the configured
    ///   `conflict_budget` bounds each deletion probe so a configured
    ///   budget still limits total explain effort.
    ///
    /// Cancellation (an explicit kill or a request deadline installed
    /// via [`Concretizer::with_cancel`]) is honored between probes: the
    /// call returns promptly with a *partial* core
    /// ([`Explanation::minimal`]` == false`) if at least one UNSAT
    /// answer was reached, or [`CoreError::Cancelled`] otherwise.
    pub fn explain_goal(&self, goal: &Goal) -> Result<Option<Explanation>, CoreError> {
        self.config.validate()?;
        let t0 = Instant::now();
        let enc = self.program_text(goal)?;
        let (program, rule_offsets) = parse_program_spanned(&enc.program)
            .map_err(|e| CoreError::Solve(format!("generated program invalid: {e}")))?;
        let solver = Solver::with_config(self.config.solver.clone());
        let gp = solver.ground(&program).map_err(solve_error)?;
        let cfg = ExplainConfig {
            cancel: self.config.solver.cancel.clone(),
            probe_conflict_budget: self.config.solver.conflict_budget.min(1 << 20),
        };
        let (outcome, stats) = solver.explain_ground(&gp, &cfg).map_err(solve_error)?;
        match outcome {
            ExplainOutcome::Satisfiable => Ok(None),
            ExplainOutcome::Unsat(core) => {
                let entries = core
                    .members
                    .iter()
                    .map(|m| {
                        let (line, origin) = match m
                            .src_rule
                            .and_then(|ri| rule_offsets.get(ri as usize).copied())
                        {
                            Some(off) => (
                                Some(crate::explain::line_of(&enc.program, off)),
                                enc.origin_at(off).cloned(),
                            ),
                            None => (None, None),
                        };
                        ExplainEntry {
                            origin,
                            line,
                            rule: m.text.clone(),
                        }
                    })
                    .collect();
                Ok(Some(Explanation {
                    entries,
                    minimal: core.minimal,
                    core_initial: stats.explain_core_initial,
                    probes: stats.explain_probes,
                    time: t0.elapsed(),
                }))
            }
        }
    }

    /// Cumulative fault statistics merged over every configured source
    /// (not just the currently active subset) — the basis for the
    /// per-solve deltas in [`ConcretizeStats`] and for service-level
    /// absolute totals.
    pub fn merged_fault_stats(&self) -> SourceFaultStats {
        let mut total = SourceFaultStats::default();
        for c in &self.caches {
            total = total.merge(c.fault_stats());
        }
        total
    }

    /// One solve attempt over an explicit source set — everything from
    /// ground-cache lookup through interpretation.
    fn concretize_with_sources(
        &self,
        goal: &Goal,
        sources: &[Arc<dyn CacheSource>],
    ) -> Result<Solution, CoreError> {
        let t_total = Instant::now();
        let mut stats = ConcretizeStats::default();
        let solved = match &self.ground_cache {
            Some(cache) => {
                let (key, segments) = self.segment_key_for(goal, sources)?;
                match cache.lookup(key) {
                    // A hit did no grounding and no search: its times and
                    // solver statistics stay zero. It keeps the deadline
                    // check a miss makes before its search.
                    Some(solved) => {
                        stats.ground_cache_hit = true;
                        self.check_cancel()?;
                        solved
                    }
                    // Only a finished search is stored, after it ran: a
                    // cancelled or budget-exhausted solve inserts nothing.
                    None => {
                        let solved = self.solve_cold(goal, sources, &mut stats)?;
                        cache.insert(key, segments, solved.clone());
                        solved
                    }
                }
            }
            None => self.solve_cold(goal, sources, &mut stats)?,
        };
        let SolvedGoal {
            model,
            root_names,
            reusable_count,
            program_bytes,
        } = solved;
        let model = model.ok_or(CoreError::Unsatisfiable)?;

        let t2 = Instant::now();
        let Interpretation {
            specs,
            reused,
            built,
            spliced,
        } = interpret(&model, sources, &root_names)?;
        stats.interpret_time = t2.elapsed();
        stats.total_time = t_total.elapsed();
        stats.reusable_specs = reusable_count;
        stats.program_bytes = program_bytes;

        // Degradation and fault-delta fields are filled in by the
        // `concretize_goal` fault boundary, which sees the whole retry
        // history rather than one attempt.
        Ok(Solution {
            specs,
            reused,
            built,
            spliced,
            cost: model.cost.clone(),
            stats,
        })
    }
}

/// Lift an ASP engine error into the typed [`CoreError`] taxonomy:
/// budget exhaustion, cancellation and resource limits stay structured
/// (they must be distinguishable over the wire), everything else renders
/// as a solver failure.
fn solve_error(e: AspError) -> CoreError {
    match e {
        AspError::BudgetExhausted {
            conflicts,
            decisions,
            propagations,
        } => CoreError::BudgetExhausted {
            conflicts,
            decisions,
            propagations,
        },
        AspError::Cancelled { deadline } => CoreError::Cancelled { deadline },
        AspError::ResourceLimit(m) => CoreError::ResourceLimit(m),
        other => CoreError::Solve(other.to_string()),
    }
}

// A concretizer clone must be able to move to any worker thread; this
// is the load-bearing bound of the shared-state API.
const _: fn() = || {
    fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<Concretizer>();
};
