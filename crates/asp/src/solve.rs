//! The solve orchestrator: ground → translate → CDCL search → stability
//! CEGAR → lexicographic branch-and-bound optimization.

use crate::cancel::CancelToken;
use crate::cdcl::{Lit, Sat, SatResult};
use crate::cnf::{add_upper_bound, translate, BoundCounter, Translation};
use crate::ground::{ground_with_limits, GroundLimits, GroundProgram};
use crate::model::Model;
use crate::program::Program;
use crate::stability::{check_stability, is_tight, Stability};
use crate::term::{AtomId, AtomSet};
use crate::{AspError, Result};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stability-restart (CEGAR) iterations before `Solver::stable_solve`
/// gives up.
const MAX_STABILITY_LOOPS: usize = 10_000;

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Grounding resource limits.
    pub limits: GroundLimits,
    /// Conflict budget per SAT call (`u64::MAX` = unlimited).
    pub conflict_budget: u64,
    /// Cooperative cancellation: polled in the CDCL search loop
    /// alongside the conflict budget. The default
    /// [`CancelToken::none`] never fires.
    pub cancel: CancelToken,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            limits: GroundLimits::default(),
            conflict_budget: u64::MAX,
            cancel: CancelToken::none(),
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
    /// Wall time spent translating to CNF, tightness check included.
    pub translate_time: Duration,
    /// Wall time spent in search, stability checks and optimization.
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
/// SAT instance, for callers that time translation and search apart.
/// Produced by [`Solver::translate_ground`]; every
/// [`Solver::solve_translated`] call clones the SAT instance, so repeated
/// solves start from identical state and never contaminate one another.
/// [`Solver::solve_ground`] searches the instance it translates and
/// clones nothing.
pub struct TranslatedProgram {
    gp: Arc<GroundProgram>,
    sat: Sat,
    tr: Translation,
    /// [`is_tight`] of `gp`: when set, every SAT model is stable and the
    /// solve skips [`check_stability`].
    tight: bool,
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

    /// Ground `program` under this solver's limits, returning a
    /// shareable handle suitable for [`Solver::solve_ground`].
    pub fn ground(&self, program: &Program) -> Result<Arc<GroundProgram>> {
        Ok(Arc::new(ground_with_limits(program, self.config.limits)?))
    }

    /// Solve an already-grounded program: translate it and search the
    /// instance just built. Searches exactly as
    /// [`Solver::translate_ground`] followed by
    /// [`Solver::solve_translated`] does, without the clone. The engine
    /// is deterministic, so solving one [`GroundProgram`] again returns
    /// the same outcome. `stats.ground_time` is zero here (the caller
    /// knows whether grounding actually ran); `stats.translate_time` and
    /// `stats.solve_time` time the translation and the search apart.
    pub fn solve_ground(&self, gp: Arc<GroundProgram>) -> Result<(SolveOutcome, SolveStats)> {
        let t1 = Instant::now();
        let TranslatedProgram { gp, sat, tr, tight } = self.translate_ground(gp);
        let translate_time = t1.elapsed();
        let t2 = Instant::now();
        let (outcome, mut stats) = self.solve_sat(gp, &tr, tight, sat)?;
        stats.translate_time = translate_time;
        stats.solve_time = t2.elapsed();
        Ok((outcome, stats))
    }

    /// Translate an already-grounded program to CNF once, producing a
    /// [`TranslatedProgram`] that [`Solver::solve_translated`] can solve
    /// any number of times without repeating the translation. It holds
    /// the raw translation, together with whether the program is tight.
    pub fn translate_ground(&self, gp: Arc<GroundProgram>) -> TranslatedProgram {
        let mut sat = Sat::new();
        let tr = translate(&gp, &mut sat);
        let tight = is_tight(&gp);
        TranslatedProgram { gp, sat, tr, tight }
    }

    /// Solve a translated program. The pristine SAT instance is cloned
    /// per call, so repeated solves are independent and start from
    /// identical state. `stats.solve_time` includes the clone, and
    /// `stats.translate_time` is zero.
    pub fn solve_translated(&self, tp: &TranslatedProgram) -> Result<(SolveOutcome, SolveStats)> {
        let t1 = Instant::now();
        let (outcome, mut stats) =
            self.solve_sat(Arc::clone(&tp.gp), &tp.tr, tp.tight, tp.sat.clone())?;
        stats.solve_time = t1.elapsed();
        Ok((outcome, stats))
    }

    /// Search `sat`, the translation `tr` of `gp`, which this call owns.
    /// The conflict budget and the cancellation token are applied from
    /// this solver's config: they are per-solve knobs, not part of the
    /// translation. Leaves `stats.solve_time` to the caller.
    fn solve_sat(
        &self,
        gp: Arc<GroundProgram>,
        tr: &Translation,
        tight: bool,
        mut sat: Sat,
    ) -> Result<(SolveOutcome, SolveStats)> {
        let mut stats = SolveStats {
            ground_atoms: gp.possible.len(),
            ground_rules: gp.rules.len(),
            ground_choices: gp.choices.len(),
            ground_constraints: gp.constraints.len(),
            sat_vars: sat.num_vars(),
            ..Default::default()
        };
        sat.set_conflict_budget(self.config.conflict_budget);
        sat.set_cancel(self.config.cancel.clone());

        let outcome = self.search(gp, tr, tight, &mut sat, &mut stats)?;
        stats.conflicts = sat.stats.conflicts;
        stats.decisions = sat.stats.decisions;
        stats.propagations = sat.stats.propagations;
        stats.reductions = sat.stats.reductions;
        stats.deleted_clauses = sat.stats.deleted_clauses;
        Ok((outcome, stats))
    }

    /// Find a stable model under `assumps`, adding loop clauses for
    /// unfounded sets until stable (CEGAR). True when `sat`'s assignment
    /// then holds a stable model, false when there is none. With `tight`
    /// set the first SAT model is accepted unchecked, and no atom set is
    /// built: the caller vouches that `gp` is tight and that `sat` holds
    /// its whole completion as hard clauses, so every model is stable.
    pub(crate) fn stable_solve(
        &self,
        gp: &GroundProgram,
        tr: &Translation,
        tight: bool,
        sat: &mut Sat,
        assumps: &[Lit],
        stats: &mut SolveStats,
    ) -> Result<bool> {
        for _ in 0..MAX_STABILITY_LOOPS {
            match sat.solve_with(assumps) {
                SatResult::Unsat => return Ok(false),
                SatResult::Unknown => {
                    return Err(AspError::BudgetExhausted {
                        conflicts: sat.stats.conflicts,
                        decisions: sat.stats.decisions,
                        propagations: sat.stats.propagations,
                    });
                }
                SatResult::Cancelled { deadline } => {
                    return Err(AspError::Cancelled { deadline });
                }
                SatResult::Sat => {}
            }
            if tight {
                return Ok(true);
            }
            match check_stability(gp, &true_atoms(gp, tr, sat)) {
                Stability::Stable => return Ok(true),
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
    fn add_loop_clauses(
        &self,
        gp: &GroundProgram,
        tr: &Translation,
        sat: &mut Sat,
        u: &[AtomId],
    ) {
        let uset: AtomSet = u.iter().copied().collect();
        let mut external: Vec<Lit> = Vec::new();
        for (ri, r) in gp.rules.iter().enumerate() {
            if uset.contains(r.head) && !r.pos.iter().any(|&p| uset.contains(p)) {
                external.push(tr.rule_body[ri]);
            }
        }
        for (ci, c) in gp.choices.iter().enumerate() {
            if c.elements.iter().any(|&e| uset.contains(e))
                && !c.pos.iter().any(|&p| uset.contains(p))
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
        tight: bool,
        sat: &mut Sat,
        stats: &mut SolveStats,
    ) -> Result<SolveOutcome> {
        if !self.stable_solve(&gp, tr, tight, sat, &[], stats)? {
            return Ok(SolveOutcome::Unsat);
        }
        // The incumbent: its true atoms, read after each stable model.
        let mut model = true_atoms(&gp, tr, sat);

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
            // ONE counter circuit per priority level, sized for the
            // incumbent cost; every descent probe and the final pin then
            // assert a tighter bound with a single clause over the shared
            // counter outputs. Learnt clauses and activities carry over
            // from one probe to the next.
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
                // Probe: can we do strictly better?
                let act = Lit::pos(sat.new_var());
                counter
                    .get_or_insert_with(|| BoundCounter::build(sat, items, current))
                    .assert_upper(sat, current - 1, Some(act));
                stats.optimize_probes += 1;
                if self.stable_solve(&gp, tr, tight, sat, &[act], stats)? {
                    model = true_atoms(&gp, tr, sat);
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
                } else {
                    // No improvement possible: retire the probe and pin
                    // this level at its optimum permanently.
                    sat.add_clause(&[act.negate()]);
                    clobbered = true;
                    break;
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
            // Re-establish a model satisfying all pins when the last
            // solve at this level ended UNSAT-under-assumptions (which
            // clobbers assignments). The re-solve is skipped whenever
            // the solver's assignment still encodes `model` — on
            // descent-free workloads that removes one full SAT solve per
            // priority level.
            if clobbered {
                if !self.stable_solve(&gp, tr, tight, sat, &[], stats)? {
                    return Err(AspError::Internal(
                        "pinned optimum became unsatisfiable".into(),
                    ));
                }
                model = true_atoms(&gp, tr, sat);
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
        let TranslatedProgram {
            gp,
            mut sat,
            tr,
            tight,
        } = self.translate_ground(gp);
        sat.set_conflict_budget(self.config.conflict_budget);
        sat.set_cancel(self.config.cancel.clone());
        let mut out = Vec::new();
        while out.len() < limit {
            if !self.stable_solve(&gp, &tr, tight, &mut sat, &[], &mut stats)? {
                break;
            }
            let model = true_atoms(&gp, &tr, &sat);
            // Block this assignment over the possible-atom universe.
            let block: Vec<Lit> = gp
                .possible
                .iter()
                .map(|a| {
                    let l = tr.lit(a);
                    if model.contains(a) {
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

/// The possible atoms that `sat`'s assignment makes true, read through
/// the translation's atom variables.
fn true_atoms(gp: &GroundProgram, tr: &Translation, sat: &Sat) -> AtomSet {
    gp.possible
        .iter()
        .filter(|a| sat.value(tr.atom_var[a.0 as usize]))
        .collect()
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

    /// Priority 2 dominates: the optimum must avoid "expensive" even
    /// though that forces a higher priority-1 cost.
    const LEXICOGRAPHIC: &str = r#"
        opt("a"). opt("b").
        1 { pick(V) : opt(V) } 1.
        p2cost("a", 5). p2cost("b", 1).
        p1cost("a", 0). p1cost("b", 100).
        #minimize { C@2,V : pick(V), p2cost(V, C) }.
        #minimize { C@1,V : pick(V), p1cost(V, C) }.
    "#;

    /// A knapsack: take(3) alone is optimal.
    const KNAPSACK: &str = r#"
        item(1). item(2). item(3). item(4).
        { take(I) : item(I) }.
        :- take(1), take(2).
        covered :- take(3). covered :- take(4).
        :- not covered.
        w(1,4). w(2,3). w(3,2). w(4,5).
        #minimize { W@1,I : take(I), w(I,W) }.
    "#;

    /// Three-colouring a triangle.
    const COLORING: &str = r#"
        node(1). node(2). node(3).
        edge(1,2). edge(2,3). edge(1,3).
        color("r"). color("g"). color("b").
        1 { assign(N,C) : color(C) } 1 :- node(N).
        :- edge(A,B), assign(A,C), assign(B,C).
    "#;

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
        let m = model_of(LEXICOGRAPHIC);
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
        let (out, stats) = solve_text(
            r#"
            { p }.
            a :- p.
            a :- b.
            b :- a.
            :- not a.
            #minimize { 1@1 : p }.
        "#,
        );
        let SolveOutcome::Optimal(m) = out else {
            panic!("unexpected UNSAT");
        };
        // Even though minimizing p would prefer p=false, stability forces
        // p=true (otherwise a is unfounded).
        assert!(m.holds_str("p", &[]));
        assert!(m.holds_str("a", &[]));
        // {a, b} with p false satisfies the completion; a CEGAR restart
        // rejected it.
        assert!(stats.stability_restarts >= 1, "{stats:?}");
    }

    #[test]
    fn translation_records_tightness() {
        let solver = Solver::new();
        let translated = |text: &str| {
            let gp = solver.ground(&parse_program(text).unwrap()).unwrap();
            solver.translate_ground(gp)
        };
        assert!(translated("a. b :- a. c :- not b.").tight);
        assert!(!translated("{ a }. a :- b. b :- a.").tight);
    }

    #[test]
    fn graph_coloring_three_nodes() {
        let m = model_of(COLORING);
        let assigns: Vec<_> = m.atoms_of("assign").collect();
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
    fn knapsack_optimum() {
        assert_eq!(
            model_of(KNAPSACK).cost,
            vec![(1, 2)],
            "take(3) alone is optimal"
        );
    }

    #[test]
    fn minimize_finds_the_cheapest_of_three() {
        let m = model_of(
            r#"
            cand("v1"). cand("v2"). cand("v3").
            1 { pick(V) : cand(V) } 1.
            cost("v1", 3). cost("v2", 1). cost("v3", 2).
            #minimize { C@1,V : pick(V), cost(V, C) }.
        "#,
        );
        assert!(m.holds_str("pick", &["v2"]));
        assert_eq!(m.cost, vec![(1, 1)]);
    }

    #[test]
    fn constraint_selects_one_side_of_an_even_loop() {
        let m = model_of("a :- not b. b :- not a. :- b.");
        assert_eq!(m.render(), vec!["a".to_string()]);
    }

    #[test]
    fn solve_ground_searches_like_solve_translated() {
        // The solving path searches the instance it translates; the
        // benchmark's traced path searches a clone of a kept translation.
        // The two must search alike, down to the counters.
        let solver = Solver::new();
        for text in [LEXICOGRAPHIC, KNAPSACK, COLORING] {
            let gp = solver.ground(&parse_program(text).unwrap()).unwrap();
            let (owned, os) = solver.solve_ground(Arc::clone(&gp)).unwrap();
            let (cloned, cs) = solver
                .solve_translated(&solver.translate_ground(gp))
                .unwrap();
            let (SolveOutcome::Optimal(a), SolveOutcome::Optimal(b)) = (owned, cloned) else {
                panic!("expected optima on {text}");
            };
            assert_eq!(a.render(), b.render(), "models diverge on {text}");
            assert_eq!(a.cost, b.cost, "optima diverge on {text}");
            assert_eq!(
                (os.conflicts, os.decisions, os.propagations),
                (cs.conflicts, cs.decisions, cs.propagations),
                "search effort diverges on {text}"
            );
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
    fn heuristic_sign_picks_among_models() {
        // False-first search finds the empty model; deciding b true
        // first finds {b}. (A sign acts when its atom is decided: under
        // `{ a; b } 1.` the bound's counter outputs come first in the
        // decision order, and deciding them false forces b false.)
        const AT_MOST_ONE: &str = "{ a; b }. :- a, b.";
        assert!(model_of(AT_MOST_ONE).is_empty());
        let m = model_of(&format!("{AT_MOST_ONE} #heuristic b. [1, sign]"));
        assert_eq!(m.render(), vec!["b".to_string()]);
        let m = model_of(&format!(
            "{AT_MOST_ONE} #heuristic a. [1, sign] #heuristic b. [1, sign]"
        ));
        assert_eq!(m.render(), vec!["a".to_string()]);
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
