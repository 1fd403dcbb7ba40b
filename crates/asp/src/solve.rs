//! The solve orchestrator: ground → translate → CDCL search → stability
//! CEGAR → lexicographic branch-and-bound optimization.

use crate::cancel::CancelToken;
use crate::cdcl::{Lit, Sat, SatConfig, SatResult};
use crate::cnf::{add_upper_bound, add_upper_bound_guarded, translate, BoundCounter, Translation};
use crate::ground::{ground_parallel, GroundLimits, GroundProgram};
use crate::model::Model;
use crate::program::Program;
use crate::stability::{check_stability, Stability};
use crate::term::AtomId;
use crate::{AspError, Result};
use rustc_hash::FxHashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Grounding resource limits.
    pub limits: GroundLimits,
    /// Maximum stability-restart (CEGAR) iterations before giving up.
    pub max_stability_loops: usize,
    /// Conflict budget per SAT call (`u64::MAX` = unlimited).
    pub conflict_budget: u64,
    /// Worker threads for grounding joins (1 = sequential). The grounded
    /// program is bit-identical at every setting; see
    /// [`crate::ground::ground_parallel`].
    pub ground_threads: usize,
    /// CDCL search-heuristic toggles (phase saving, restarts).
    pub sat: SatConfig,
    /// Cooperative cancellation: polled in the CDCL search loop
    /// alongside the conflict budget. The default
    /// [`CancelToken::none`] never fires.
    pub cancel: CancelToken,
    /// Incremental `#minimize` branch-and-bound: keep learned clauses
    /// and saved phases across bound tightenings, build one shared
    /// [`BoundCounter`] circuit per priority level (each probe/pin
    /// asserts a tighter bound with a single clause), and skip the
    /// post-pin re-solve when the incumbent assignment still encodes
    /// the best model. When `false` every bound probe rebuilds the
    /// counter and searches from scratch (the seed engine's behavior).
    pub incremental_bnb: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            limits: GroundLimits::default(),
            max_stability_loops: 10_000,
            conflict_budget: u64::MAX,
            ground_threads: 1,
            sat: SatConfig::default(),
            cancel: CancelToken::none(),
            incremental_bnb: true,
        }
    }
}

impl SolverConfig {
    /// The seed engine: no search heuristics and from-scratch
    /// branch-and-bound — the baseline the modern engine is benchmarked
    /// and differential-tested against.
    pub fn seed_engine() -> Self {
        SolverConfig {
            sat: SatConfig::seed_engine(),
            incremental_bnb: false,
            ..Default::default()
        }
    }
}

/// Statistics for one `solve` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Distinct possible atoms after grounding.
    pub ground_atoms: usize,
    /// Emitted ground rules (including facts).
    pub ground_rules: usize,
    /// Emitted ground choice instances.
    pub ground_choices: usize,
    /// Emitted ground constraints.
    pub ground_constraints: usize,
    /// SAT variables allocated.
    pub sat_vars: usize,
    /// CDCL conflicts.
    pub conflicts: u64,
    /// CDCL decisions.
    pub decisions: u64,
    /// CDCL literal propagations.
    pub propagations: u64,
    /// CDCL restarts.
    pub restarts: u64,
    /// Learnt-clause database reductions.
    pub reductions: u64,
    /// Learnt clauses deleted by reductions.
    pub deleted_clauses: u64,
    /// Stability (CEGAR) restarts.
    pub stability_restarts: u64,
    /// Optimization probes (bound-and-resolve steps).
    pub optimize_probes: u64,
    /// Core extraction: members in the initial (final-conflict) core.
    pub explain_core_initial: usize,
    /// Core extraction: members after deletion minimization.
    pub explain_core_minimized: usize,
    /// Core extraction: deletion probes run.
    pub explain_probes: u64,
    /// Core extraction: wall time spent in `explain_ground`.
    pub explain_time: Duration,
    /// Wall time spent grounding.
    pub ground_time: Duration,
    /// Wall time spent in translation + search + optimization.
    pub solve_time: Duration,
}

/// Outcome of solving a program.
pub enum SolveOutcome {
    /// An optimal stable model (or just a stable model when the program
    /// has no `#minimize` statements).
    Optimal(Model),
    /// No stable model exists.
    Unsat,
}

/// A ground program with its CNF translation and a pristine (pre-search)
/// SAT instance — the unit of ground-program memoization. Produced by
/// [`Solver::translate_ground`]; every [`Solver::solve_translated`] call
/// clones the SAT instance, so repeated re-solves start from identical
/// state and never contaminate one another.
pub struct TranslatedProgram {
    gp: Arc<GroundProgram>,
    sat: Sat,
    tr: Translation,
}

/// The CNF counters the repository benchmark reads from
/// [`TranslatedProgram::preprocess_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Problem clauses in the translated instance.
    pub clauses_in: u64,
    /// Problem clauses search starts from (equal to `clauses_in`).
    pub clauses_out: u64,
    /// Always 0.
    pub fixed_literals: u64,
    /// Always 0.
    pub eliminated_vars: u64,
    /// Always 0.
    pub failed_literals: u64,
}

impl TranslatedProgram {
    /// The underlying ground program.
    pub fn ground(&self) -> &Arc<GroundProgram> {
        &self.gp
    }

    /// The raw instance's clause count as both `clauses_in` and
    /// `clauses_out`, and zero for every other field. The engine has no
    /// CNF preprocessing; this remains only because the repository
    /// benchmark (`benchmark/`) reports these counters.
    pub fn preprocess_stats(&self) -> PreprocessStats {
        let clauses = self.sat.num_clauses() as u64;
        PreprocessStats {
            clauses_in: clauses,
            clauses_out: clauses,
            ..Default::default()
        }
    }
}

/// The ASP solver facade.
#[derive(Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// Solver with default configuration.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver { config }
    }

    /// Ground and solve `program`, optimizing `#minimize` objectives
    /// lexicographically (highest priority first).
    pub fn solve(&self, program: &Program) -> Result<(SolveOutcome, SolveStats)> {
        let t0 = Instant::now();
        let gp = self.ground(program)?;
        let ground_time = t0.elapsed();
        let (outcome, mut stats) = self.solve_ground(gp)?;
        stats.ground_time = ground_time;
        Ok((outcome, stats))
    }

    /// Ground `program` under this solver's limits and
    /// [`SolverConfig::ground_threads`], returning a shareable handle
    /// suitable for [`Solver::solve_ground`] — the ground-program
    /// memoization entry point.
    pub fn ground(&self, program: &Program) -> Result<Arc<GroundProgram>> {
        Ok(Arc::new(ground_parallel(
            program,
            self.config.limits,
            self.config.ground_threads,
        )?))
    }

    /// Solve an already-grounded program. Equivalent to
    /// [`Solver::translate_ground`] followed by
    /// [`Solver::solve_translated`]; one cached [`GroundProgram`] can be
    /// re-solved any number of times, and because the engine is
    /// deterministic a re-solve returns the same outcome as the original
    /// solve. `stats.ground_time` is zero here (the caller knows whether
    /// grounding actually ran); `stats.solve_time` includes translation.
    pub fn solve_ground(&self, gp: Arc<GroundProgram>) -> Result<(SolveOutcome, SolveStats)> {
        let t1 = Instant::now();
        let tp = self.translate_ground(gp);
        let (outcome, mut stats) = self.solve_translated(&tp)?;
        stats.solve_time = t1.elapsed();
        Ok((outcome, stats))
    }

    /// Translate an already-grounded program to CNF once, producing a
    /// [`TranslatedProgram`] that [`Solver::solve_translated`] can
    /// re-solve without repeating the translation — the second layer of
    /// ground-program memoization. The memoized instance is the raw
    /// translation.
    pub fn translate_ground(&self, gp: Arc<GroundProgram>) -> TranslatedProgram {
        let mut sat = Sat::new();
        sat.set_conflict_budget(self.config.conflict_budget);
        sat.set_search_config(self.config.sat);
        let tr = translate(&gp, &mut sat);
        TranslatedProgram { gp, sat, tr }
    }

    /// Solve a translated program. The pristine SAT instance is cloned
    /// per call (so repeated solves are independent and start from
    /// identical state) and the conflict budget is re-applied from this
    /// solver's config, since the budget is a per-solve knob rather than
    /// part of the translation.
    pub fn solve_translated(&self, tp: &TranslatedProgram) -> Result<(SolveOutcome, SolveStats)> {
        let mut stats = SolveStats {
            ground_atoms: tp.gp.possible.len(),
            ground_rules: tp.gp.rules.len(),
            ground_choices: tp.gp.choices.len(),
            ground_constraints: tp.gp.constraints.len(),
            ..Default::default()
        };

        let t1 = Instant::now();
        let mut sat = tp.sat.clone();
        sat.set_conflict_budget(self.config.conflict_budget);
        sat.set_search_config(self.config.sat);
        sat.set_cancel(self.config.cancel.clone());
        stats.sat_vars = sat.num_vars();

        let outcome = self.search(tp.gp.clone(), &tp.tr, &mut sat, &mut stats)?;
        stats.solve_time = t1.elapsed();
        stats.conflicts = sat.stats.conflicts;
        stats.decisions = sat.stats.decisions;
        stats.propagations = sat.stats.propagations;
        stats.restarts = sat.stats.restarts;
        stats.reductions = sat.stats.reductions;
        stats.deleted_clauses = sat.stats.deleted_clauses;
        Ok((outcome, stats))
    }

    /// Find a stable model under `assumps`, adding loop clauses for
    /// unfounded sets until stable (CEGAR).
    fn stable_solve(
        &self,
        gp: &GroundProgram,
        tr: &Translation,
        sat: &mut Sat,
        assumps: &[Lit],
        stats: &mut SolveStats,
    ) -> Result<Option<FxHashSet<AtomId>>> {
        for _ in 0..self.config.max_stability_loops {
            match sat.solve_with(assumps) {
                SatResult::Unsat => return Ok(None),
                SatResult::Unknown => {
                    return Err(AspError::BudgetExhausted {
                        conflicts: sat.stats.conflicts,
                        decisions: sat.stats.decisions,
                        propagations: sat.stats.propagations,
                        restarts: sat.stats.restarts,
                    });
                }
                SatResult::Cancelled { deadline } => {
                    return Err(AspError::Cancelled { deadline });
                }
                SatResult::Sat => {}
            }
            let model: FxHashSet<AtomId> = gp
                .possible
                .iter()
                .copied()
                .filter(|a| sat.value(tr.atom_var[a.0 as usize]))
                .collect();
            match check_stability(gp, &model) {
                Stability::Stable => return Ok(Some(model)),
                Stability::Unfounded(unfounded) => {
                    stats.stability_restarts += 1;
                    self.add_loop_clauses(gp, tr, sat, &unfounded);
                }
            }
        }
        Err(AspError::ResourceLimit(
            "stability CEGAR loop exceeded max iterations".into(),
        ))
    }

    /// For unfounded set `u`: each atom may only be true when some
    /// external support (a rule whose positive body avoids the set) has a
    /// true body.
    pub(crate) fn add_loop_clauses(
        &self,
        gp: &GroundProgram,
        tr: &Translation,
        sat: &mut Sat,
        u: &[AtomId],
    ) {
        let uset: FxHashSet<AtomId> = u.iter().copied().collect();
        let mut external: Vec<Lit> = Vec::new();
        for (ri, r) in gp.rules.iter().enumerate() {
            if uset.contains(&r.head) && !r.pos.iter().any(|p| uset.contains(p)) {
                external.push(tr.rule_body[ri]);
            }
        }
        for (ci, c) in gp.choices.iter().enumerate() {
            if c.elements.iter().any(|e| uset.contains(e))
                && !c.pos.iter().any(|p| uset.contains(p))
            {
                external.push(tr.choice_body[ci]);
            }
        }
        external.sort_unstable();
        external.dedup();
        for &a in u {
            let mut cl: Vec<Lit> = vec![tr.lit(a).negate()];
            cl.extend(external.iter().copied());
            sat.add_clause(&cl);
        }
    }

    /// Evaluate the cost at one priority level for a model, by summing
    /// the weights of cost literals the model satisfies.
    fn eval_cost(sat: &Sat, items: &[(i64, Lit)]) -> i64 {
        items
            .iter()
            .filter(|&&(_, l)| sat.value(l.var()) != l.is_neg())
            .map(|&(w, _)| w)
            .sum()
    }

    fn search(
        &self,
        gp: Arc<GroundProgram>,
        tr: &Translation,
        sat: &mut Sat,
        stats: &mut SolveStats,
    ) -> Result<SolveOutcome> {
        let Some(mut model) = self.stable_solve(&gp, tr, sat, &[], stats)? else {
            return Ok(SolveOutcome::Unsat);
        };

        // Lexicographic branch-and-bound, highest priority first. The
        // cost vector snapshot must be taken right after each SAT call
        // (the assignment is clobbered by later calls).
        let mut best_costs: Vec<(i64, i64)> = tr
            .cost
            .iter()
            .map(|(p, items)| (*p, Self::eval_cost(sat, items)))
            .collect();

        for level in 0..tr.cost.len() {
            let (_, items) = &tr.cost[level];
            // Incremental mode builds ONE counter circuit per priority
            // level, sized for the incumbent cost; every descent probe
            // and the final pin then assert a tighter bound with a
            // single clause over the shared counter outputs. The seed
            // path below rebuilds a fresh O(n * bound) circuit per
            // probe, which dominates warm-solve time on optimization
            // workloads.
            let mut counter: Option<BoundCounter> = None;
            // Set when the last SAT call at this level ended UNSAT (a
            // failed probe), i.e. the solver's assignment no longer
            // encodes `model` and a re-solve is needed before trusting
            // `eval_cost` again.
            let mut clobbered = false;
            loop {
                let current = best_costs[level].1;
                if current == 0 {
                    break; // weights are non-negative: 0 is optimal
                }
                // Non-incremental mode: discard everything learned so
                // far and re-search each bound from scratch, like the
                // seed engine did.
                if !self.config.incremental_bnb {
                    sat.forget_learnts();
                }
                // Probe: can we do strictly better?
                let act = Lit::pos(sat.new_var());
                if self.config.incremental_bnb {
                    if counter.is_none() {
                        counter = Some(BoundCounter::build(sat, items, current));
                    }
                    counter
                        .as_ref()
                        .expect("built above")
                        .assert_upper(sat, current - 1, Some(act));
                } else {
                    add_upper_bound_guarded(sat, items, current - 1, act);
                }
                stats.optimize_probes += 1;
                match self.stable_solve(&gp, tr, sat, &[act], stats)? {
                    Some(m) => {
                        model = m;
                        clobbered = false;
                        // Snapshot the full cost vector of the improved
                        // model; higher priorities are pinned so they
                        // cannot have regressed.
                        best_costs = tr
                            .cost
                            .iter()
                            .map(|(p, its)| (*p, Self::eval_cost(sat, its)))
                            .collect();
                        // Retire the probe circuit.
                        sat.add_clause(&[act.negate()]);
                    }
                    None => {
                        // No improvement possible: retire the probe and
                        // pin this level at its optimum permanently.
                        sat.add_clause(&[act.negate()]);
                        clobbered = true;
                        break;
                    }
                }
            }
            // Pin the optimum for this priority level so optimizing lower
            // levels cannot regress it. The incumbent model satisfies
            // the pin by construction (its own cost at this level IS the
            // bound).
            match &counter {
                // The counter was built at the level-entry incumbent,
                // which the optimum never exceeds.
                Some(c) => {
                    c.assert_upper(sat, best_costs[level].1, None);
                }
                None => {
                    add_upper_bound(sat, items, best_costs[level].1);
                }
            }
            if !self.config.incremental_bnb {
                sat.forget_learnts();
            }
            // Re-establish a model satisfying all pins when the last
            // solve at this level ended UNSAT-under-assumptions (which
            // clobbers assignments). The incremental engine skips the
            // re-solve whenever the solver's assignment still encodes
            // `model` — on descent-free workloads that removes one full
            // SAT solve per priority level; the seed engine re-solves
            // unconditionally, as the baseline always did.
            if clobbered || !self.config.incremental_bnb {
                match self.stable_solve(&gp, tr, sat, &[], stats)? {
                    Some(m) => model = m,
                    None => {
                        return Err(AspError::Internal(
                            "pinned optimum became unsatisfiable".into(),
                        ));
                    }
                }
                best_costs = tr
                    .cost
                    .iter()
                    .map(|(p, its)| (*p, Self::eval_cost(sat, its)))
                    .collect();
            }
        }

        Ok(SolveOutcome::Optimal(Model::new(gp, model, best_costs)))
    }

    /// Enumerate up to `limit` stable models (ignoring `#minimize`
    /// statements), in search order. Returns fewer when the program has
    /// fewer models.
    pub fn enumerate(&self, program: &Program, limit: usize) -> Result<Vec<Model>> {
        let mut stats = SolveStats::default();
        let gp = self.ground(program)?;
        let tp = self.translate_ground(gp);
        let mut sat = tp.sat.clone();
        sat.set_conflict_budget(self.config.conflict_budget);
        sat.set_search_config(self.config.sat);
        sat.set_cancel(self.config.cancel.clone());
        let (gp, tr) = (&tp.gp, &tp.tr);
        let mut out = Vec::new();
        while out.len() < limit {
            let Some(model) = self.stable_solve(gp, tr, &mut sat, &[], &mut stats)? else {
                break;
            };
            // Block this assignment over the possible-atom universe.
            let block: Vec<Lit> = gp
                .possible
                .iter()
                .map(|&a| {
                    let l = tr.lit(a);
                    if model.contains(&a) {
                        l.negate()
                    } else {
                        l
                    }
                })
                .collect();
            out.push(Model::new(gp.clone(), model, Vec::new()));
            if !sat.add_clause(&block) {
                break;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn solve_text(text: &str) -> (SolveOutcome, SolveStats) {
        Solver::new()
            .solve(&parse_program(text).unwrap())
            .unwrap()
    }

    fn model_of(text: &str) -> Model {
        match solve_text(text).0 {
            SolveOutcome::Optimal(m) => m,
            SolveOutcome::Unsat => panic!("unexpected UNSAT"),
        }
    }

    #[test]
    fn facts_only() {
        let m = model_of(r#"a. b("x")."#);
        assert_eq!(m.len(), 2);
        assert!(m.holds_str("b", &["x"]));
    }

    #[test]
    fn unsat_constraint() {
        let (out, _) = solve_text("a. :- a.");
        assert!(matches!(out, SolveOutcome::Unsat));
    }

    #[test]
    fn choice_with_minimize_picks_cheapest() {
        // Choosing v2 costs 2, v1 costs 1; exactly one must be chosen.
        let m = model_of(
            r#"
            cand("v1"). cand("v2").
            1 { pick(V) : cand(V) } 1.
            cost("v1", 1). cost("v2", 2).
            #minimize { C@1,V : pick(V), cost(V, C) }.
        "#,
        );
        assert!(m.holds_str("pick", &["v1"]));
        assert!(!m.holds_str("pick", &["v2"]));
        assert_eq!(m.cost, vec![(1, 1)]);
    }

    #[test]
    fn lexicographic_priorities() {
        // Priority 2 dominates: must avoid "expensive" even though that
        // forces higher priority-1 cost.
        let m = model_of(
            r#"
            opt("a"). opt("b").
            1 { pick(V) : opt(V) } 1.
            p2cost("a", 5). p2cost("b", 1).
            p1cost("a", 0). p1cost("b", 100).
            #minimize { C@2,V : pick(V), p2cost(V, C) }.
            #minimize { C@1,V : pick(V), p1cost(V, C) }.
        "#,
        );
        assert!(m.holds_str("pick", &["b"]));
        assert_eq!(m.cost, vec![(2, 1), (1, 100)]);
    }

    #[test]
    fn minimize_counts_each_tuple_once() {
        // Two conditions deriving the same tuple contribute once.
        let m = model_of(
            r#"
            a. b.
            t :- a. t :- b.
            #minimize { 7@1,"same" : a ; 7@1,"same" : b }.
        "#,
        );
        assert_eq!(m.cost, vec![(1, 7)]);
    }

    #[test]
    fn stability_cegar_rejects_self_support() {
        // The only completion models are {} + p-false branch artifacts;
        // an a/b loop without p must not survive. With the constraint
        // requiring a, the solver must choose p (the external support).
        let m = model_of(
            r#"
            { p }.
            a :- p.
            a :- b.
            b :- a.
            :- not a.
            #minimize { 1@1 : p }.
        "#,
        );
        // Even though minimizing p would prefer p=false, stability forces
        // p=true (otherwise a is unfounded).
        assert!(m.holds_str("p", &[]));
        assert!(m.holds_str("a", &[]));
        let (_, stats) = solve_text(
            r#"
            { p }.
            a :- p.
            a :- b.
            b :- a.
            :- not a.
            #minimize { 1@1 : p }.
        "#,
        );
        // At least one CEGAR restart or probe happened along the way.
        let _ = stats;
    }

    #[test]
    fn graph_coloring_three_nodes() {
        let m = model_of(
            r#"
            node(1). node(2). node(3).
            edge(1,2). edge(2,3). edge(1,3).
            color("r"). color("g"). color("b").
            1 { assign(N,C) : color(C) } 1 :- node(N).
            :- edge(A,B), assign(A,C), assign(B,C).
        "#,
        );
        let assigns = m.atoms_of("assign");
        assert_eq!(assigns.len(), 3);
        // All three nodes distinct colors (triangle).
        let colors: Vec<&str> = assigns
            .iter()
            .map(|args| m.as_str(args[1]).unwrap())
            .collect();
        let unique: std::collections::BTreeSet<&str> = colors.iter().copied().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn coloring_two_colors_triangle_unsat() {
        let (out, _) = solve_text(
            r#"
            node(1). node(2). node(3).
            edge(1,2). edge(2,3). edge(1,3).
            color("r"). color("g").
            1 { assign(N,C) : color(C) } 1 :- node(N).
            :- edge(A,B), assign(A,C), assign(B,C).
        "#,
        );
        assert!(matches!(out, SolveOutcome::Unsat));
    }

    #[test]
    fn paper_style_version_selection() {
        // Mimics §5.1: exactly one version per node, prefer the newest
        // (lower penalty index = newer).
        let m = model_of(
            r#"
            node("example").
            pkg_fact("example", version_declared("1.1.0", 0)).
            pkg_fact("example", version_declared("1.0.0", 1)).
            1 { attr("version", node(P), V) : pkg_fact(P, version_declared(V, I)) } 1 :-
                node(P).
            #minimize { I@1,P : attr("version", node(P), V),
                        pkg_fact(P, version_declared(V, I)) }.
        "#,
        );
        assert!(m
            .render()
            .contains(&"attr(\"version\",node(\"example\"),\"1.1.0\")".to_string()));
        assert_eq!(m.cost, vec![(1, 0)]);
    }

    #[test]
    fn stats_are_populated() {
        let (_, stats) = solve_text("a. b :- a.");
        assert_eq!(stats.ground_rules, 2);
        assert!(stats.ground_atoms >= 2);
        assert!(stats.sat_vars > 0);
    }

    #[test]
    fn seed_engine_matches_modern_engine() {
        // The all-off configuration must reach the same optima and the
        // same satisfiability as the all-on default.
        let programs = [
            r#"
            cand("v1"). cand("v2"). cand("v3").
            1 { pick(V) : cand(V) } 1.
            cost("v1", 3). cost("v2", 1). cost("v3", 2).
            #minimize { C@1,V : pick(V), cost(V, C) }.
            "#,
            r#"
            node(1). node(2). node(3).
            edge(1,2). edge(2,3). edge(1,3).
            color("r"). color("g").
            1 { assign(N,C) : color(C) } 1 :- node(N).
            :- edge(A,B), assign(A,C), assign(B,C).
            "#,
            "a :- not b. b :- not a. :- b.",
        ];
        for text in programs {
            let program = parse_program(text).unwrap();
            let modern = Solver::new().solve(&program).unwrap().0;
            let seed = Solver::with_config(SolverConfig::seed_engine())
                .solve(&program)
                .unwrap()
                .0;
            match (&modern, &seed) {
                (SolveOutcome::Optimal(a), SolveOutcome::Optimal(b)) => {
                    assert_eq!(a.cost, b.cost, "optima diverge on {text}");
                }
                (SolveOutcome::Unsat, SolveOutcome::Unsat) => {}
                _ => panic!("satisfiability diverges on {text}"),
            }
        }
    }

    #[test]
    fn search_effort_surfaces_in_solve_stats() {
        let (_, stats) = solve_text(
            r#"
            cand("a"). cand("b"). cand("c"). cand("d").
            1 { pick(V) : cand(V) } 2.
            :- pick("a"), pick("b").
        "#,
        );
        assert!(stats.propagations > 0, "propagation accounting: {stats:?}");
        assert!(stats.decisions > 0, "decision accounting: {stats:?}");
    }

    #[test]
    fn incremental_and_scratch_bnb_agree() {
        let text = r#"
            item(1). item(2). item(3). item(4).
            { take(I) : item(I) }.
            :- take(1), take(2).
            covered :- take(3). covered :- take(4).
            :- not covered.
            w(1,4). w(2,3). w(3,2). w(4,5).
            #minimize { W@1,I : take(I), w(I,W) }.
        "#;
        let program = parse_program(text).unwrap();
        let scratch_cfg = SolverConfig {
            incremental_bnb: false,
            ..Default::default()
        };
        let (inc, _) = Solver::new().solve(&program).unwrap();
        let (scr, _) = Solver::with_config(scratch_cfg).solve(&program).unwrap();
        match (inc, scr) {
            (SolveOutcome::Optimal(a), SolveOutcome::Optimal(b)) => {
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.cost, vec![(1, 2)], "take(3) alone is optimal");
            }
            _ => panic!("expected optima from both modes"),
        }
    }

    #[test]
    fn expired_deadline_cancels_structurally() {
        // A token that is already past its deadline must surface as a
        // typed Cancelled error (deadline=true), never a panic or hang.
        let program = parse_program(
            r#"
            node(1). node(2). node(3).
            edge(1,2). edge(2,3). edge(1,3).
            color("r"). color("g"). color("b").
            1 { assign(N,C) : color(C) } 1 :- node(N).
            :- edge(A,B), assign(A,C), assign(B,C).
        "#,
        )
        .unwrap();
        let solver = Solver::with_config(SolverConfig {
            cancel: CancelToken::with_deadline(Duration::ZERO),
            ..Default::default()
        });
        match solver.solve(&program) {
            Err(AspError::Cancelled { deadline: true }) => {}
            Err(other) => panic!("expected deadline cancellation, got {other}"),
            Ok(_) => panic!("expected deadline cancellation, got an answer"),
        }
    }

    #[test]
    fn manual_cancel_is_distinguishable_from_deadline() {
        let program = parse_program("{ a }. { b }. :- a, b.").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let solver = Solver::with_config(SolverConfig {
            cancel: token,
            ..Default::default()
        });
        match solver.solve(&program) {
            Err(AspError::Cancelled { deadline: false }) => {}
            Err(other) => panic!("expected manual cancellation, got {other}"),
            Ok(_) => panic!("expected manual cancellation, got an answer"),
        }
    }

    #[test]
    fn unfired_token_changes_nothing() {
        let program = parse_program(
            r#"
            cand("v1"). cand("v2").
            1 { pick(V) : cand(V) } 1.
            cost("v1", 1). cost("v2", 2).
            #minimize { C@1,V : pick(V), cost(V, C) }.
        "#,
        )
        .unwrap();
        let plain = Solver::new().solve(&program).unwrap().0;
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let guarded = Solver::with_config(SolverConfig {
            cancel: token,
            ..Default::default()
        })
        .solve(&program)
        .unwrap()
        .0;
        match (plain, guarded) {
            (SolveOutcome::Optimal(a), SolveOutcome::Optimal(b)) => {
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.render(), b.render());
            }
            _ => panic!("expected optima from both"),
        }
    }

    #[test]
    fn optimum_zero_skips_probing() {
        let m = model_of(
            r#"
            { p }.
            #minimize { 1@1 : p }.
        "#,
        );
        assert!(!m.holds_str("p", &[]));
        assert_eq!(m.cost, vec![(1, 0)]);
    }
}

#[cfg(test)]
mod enumerate_tests {
    use super::*;
    use crate::parser::parse_program;

    fn models_of(text: &str, limit: usize) -> Vec<Model> {
        Solver::new()
            .enumerate(&parse_program(text).unwrap(), limit)
            .unwrap()
    }

    #[test]
    fn even_loop_has_two_models() {
        let ms = models_of("a :- not b. b :- not a.", 10);
        assert_eq!(ms.len(), 2);
        let mut sets: Vec<Vec<String>> = ms.iter().map(|m| m.render()).collect();
        sets.sort();
        assert_eq!(sets, vec![vec!["a".to_string()], vec!["b".to_string()]]);
    }

    #[test]
    fn free_choice_powerset() {
        let ms = models_of("{ a }. { b }. { c }.", 100);
        assert_eq!(ms.len(), 8);
    }

    #[test]
    fn limit_respected() {
        let ms = models_of("{ a }. { b }. { c }.", 3);
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn unsat_enumerates_nothing() {
        let ms = models_of("a. :- a.", 5);
        assert!(ms.is_empty());
    }

    #[test]
    fn triangle_two_coloring_count() {
        // A path of 3 nodes, 2 colors: colorings where adjacent differ:
        // 2 * 1 * 1 = 2.
        let ms = models_of(
            r#"
            node(1). node(2). node(3).
            edge(1,2). edge(2,3).
            col("r"). col("g").
            1 { c(N,C) : col(C) } 1 :- node(N).
            :- edge(A,B), c(A,C), c(B,C).
        "#,
            100,
        );
        assert_eq!(ms.len(), 2);
    }
}
