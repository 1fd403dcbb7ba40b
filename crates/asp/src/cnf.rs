//! Translation of a [`GroundProgram`] into CNF for the CDCL solver:
//! Clark completion for normal rules, free atoms with support clauses for
//! choice elements, cardinality bounds via sequential counters, integrity
//! constraints as plain clauses, and cost-tuple literals for `#minimize`.

use crate::cdcl::{Lit, Sat, Var};
use crate::ground::GroundProgram;
use crate::term::{group_by_key, hash_key, AtomId, IdTable};
use rustc_hash::FxHashMap;

/// Everything the solving layers need to map between atoms and SAT
/// variables, find rule-body literals (for loop clauses), and build cost
/// bounds.
#[derive(Clone)]
pub struct Translation {
    /// SAT variable per interned atom (indexed by `AtomId.0`).
    pub atom_var: Vec<Var>,
    /// A variable constrained true (for empty bodies).
    pub true_var: Var,
    /// Body literal per ground rule (true iff the rule body holds).
    pub rule_body: Vec<Lit>,
    /// Body literal per ground choice instance.
    pub choice_body: Vec<Lit>,
    /// Cost items grouped by priority, **sorted descending by priority**:
    /// `(priority, items)` where each item is `(weight, lit)` and the lit
    /// is true iff the tuple's condition holds.
    pub cost: Vec<(i64, Vec<(i64, Lit)>)>,
}

impl Translation {
    /// Literal for "atom is true".
    pub fn lit(&self, a: AtomId) -> Lit {
        Lit::pos(self.atom_var[a.0 as usize])
    }
}

/// Where a clause produced by [`translate`] came from, at ground-program
/// granularity. Collected by [`translate_collected`] for unsat-core
/// extraction; the normal solving path ([`translate`] into a [`Sat`])
/// drops origins without cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClauseOrigin {
    /// Definitional circuitry: the `true_var` unit, body-literal aux
    /// definitions, sequential-counter internals, minimize group
    /// literals. Never a *reason* for unsatisfiability on its own —
    /// always kept hard during core extraction.
    Definition,
    /// Implication clause of ground rule `i` (`gp.rules[i]`).
    Rule(u32),
    /// Bound-assertion clauses of ground choice instance `i`
    /// (`gp.choices[i]`).
    Choice(u32),
    /// The clause of ground integrity constraint `i`
    /// (`gp.constraints[i]`).
    Constraint(u32),
    /// Completion (support) clause of an atom: "the atom may only be
    /// true if one of its supporting bodies holds".
    Completion(AtomId),
}

impl ClauseOrigin {
    /// Whether clauses with this origin may appear in an unsat core.
    /// Definitional clauses only introduce fresh auxiliary literals and
    /// cannot make a formula unsatisfiable by themselves.
    pub fn is_soft(self) -> bool {
        !matches!(self, ClauseOrigin::Definition)
    }
}

/// Output target of the CNF translation. [`Sat`] implements this by
/// discarding origins; [`CollectedCnf`] records `(clause, origin)` pairs
/// for core extraction. Both must allocate variables in call order so
/// the two paths produce identical literals.
pub trait CnfSink {
    /// Allocate a fresh SAT variable.
    fn new_var(&mut self) -> Var;
    /// Add a clause with its provenance. Returns false if the formula
    /// became trivially unsatisfiable (sinks without that knowledge
    /// return true).
    fn add(&mut self, lits: &[Lit], origin: ClauseOrigin) -> bool;
}

impl CnfSink for Sat {
    fn new_var(&mut self) -> Var {
        Sat::new_var(self)
    }
    fn add(&mut self, lits: &[Lit], _origin: ClauseOrigin) -> bool {
        self.add_clause(lits)
    }
}

/// The raw clause list of a translation, with per-clause provenance —
/// what [`translate_collected`] produces for the explanation pipeline.
pub struct CollectedCnf {
    /// Number of variables allocated (atoms plus auxiliaries).
    pub num_vars: usize,
    /// Clauses in emission order with their origin.
    pub clauses: Vec<(Vec<Lit>, ClauseOrigin)>,
}

impl CnfSink for CollectedCnf {
    fn new_var(&mut self) -> Var {
        let v = self.num_vars as Var;
        self.num_vars += 1;
        v
    }
    fn add(&mut self, lits: &[Lit], origin: ClauseOrigin) -> bool {
        self.clauses.push((lits.to_vec(), origin));
        true
    }
}

/// Build a literal equivalent to the conjunction of `pos` atoms and
/// negated `neg` atoms. Adds both implication directions; `clause` is
/// scratch.
fn body_lit<S: CnfSink>(
    sat: &mut S,
    tr_atom: &[Var],
    true_var: Var,
    pos: &[AtomId],
    neg: &[AtomId],
    clause: &mut Vec<Lit>,
) -> Lit {
    let var = |a: &AtomId| tr_atom[a.0 as usize];
    match (pos, neg) {
        ([], []) => Lit::pos(true_var),
        ([a], []) => Lit::pos(var(a)),
        ([], [a]) => Lit::neg(var(a)),
        _ => {
            let aux = Lit::pos(sat.new_var());
            // aux -> each lit
            for a in pos {
                sat.add(&[aux.negate(), Lit::pos(var(a))], ClauseOrigin::Definition);
            }
            for a in neg {
                sat.add(&[aux.negate(), Lit::neg(var(a))], ClauseOrigin::Definition);
            }
            // conj -> aux
            clause.clear();
            clause.extend(pos.iter().map(|a| Lit::neg(var(a))));
            clause.extend(neg.iter().map(|a| Lit::pos(var(a))));
            clause.push(aux);
            sat.add(clause, ClauseOrigin::Definition);
            aux
        }
    }
}

/// Build a weighted sequential counter over `items` up to `bound + 1`.
/// Returns `(heavy, overflow)`: `heavy` are literals whose single weight
/// already exceeds the bound; `overflow`, when present, is a literal
/// implied whenever the weighted sum of the remaining items exceeds
/// `bound`. One-directional (derivation) clauses, sufficient for upper
/// bounds.
fn build_counter<S: CnfSink>(
    sat: &mut S,
    items: &[(i64, Lit)],
    bound: i64,
) -> (Vec<Lit>, Option<Lit>) {
    debug_assert!(items.iter().all(|&(w, _)| w >= 0));
    // Normalize by the GCD of the weights: uniform weights (e.g. the
    // concretizer's 100-per-build objective) then become a plain
    // cardinality counter, shrinking the circuit by that factor.
    let g = weight_gcd(items);
    let bound = bound.div_euclid(g);
    let mut heavy = Vec::new();
    let mut effective: Vec<(i64, Lit)> = Vec::with_capacity(items.len());
    for &(w, l) in items {
        if w == 0 {
            continue;
        }
        let w = w / g;
        if w > bound {
            heavy.push(l);
        } else {
            effective.push((w, l));
        }
    }
    let total: i64 = effective.iter().map(|&(w, _)| w).sum();
    if total <= bound {
        return (heavy, None); // remaining items cannot overflow
    }
    let overflow = counter_outputs(sat, &effective, bound)[bound as usize];
    (heavy, overflow)
}

/// A reusable upper-bound circuit over one weighted literal set.
///
/// [`add_upper_bound_guarded`] rebuilds an `O(n * bound)` sequential
/// counter for every bound it asserts; branch-and-bound descent asserts
/// a *monotonically shrinking* series of bounds over the *same* items,
/// so all but the first circuit are redundant. A `BoundCounter` is built
/// once at the loosest bound the caller will ever need and then answers
/// every tighter bound with a single one-literal (or guarded two-literal)
/// clause over the already-built counter outputs.
///
/// Contract: construction hard-asserts items whose single weight already
/// exceeds `max_bound` to false, so it is only sound when the caller
/// guarantees the eventually-accepted model keeps the sum at or below
/// `max_bound` — exactly the branch-and-bound situation, where
/// `max_bound` is the incumbent cost and the level is later pinned at
/// its (smaller or equal) optimum.
pub struct BoundCounter {
    /// GCD the weights were normalized by.
    g: i64,
    /// `reg[j]` is implied whenever the normalized sum reaches `j + 1`;
    /// `None` means that sum is unreachable.
    reg: Vec<Option<Lit>>,
}

impl BoundCounter {
    /// Build the counter wide enough to assert any bound in
    /// `0..=max_bound` later. `max_bound` must be non-negative.
    pub fn build(sat: &mut Sat, items: &[(i64, Lit)], max_bound: i64) -> BoundCounter {
        debug_assert!(max_bound >= 0);
        debug_assert!(items.iter().all(|&(w, _)| w >= 0));
        let g = weight_gcd(items);
        let built = max_bound.div_euclid(g);
        let mut effective: Vec<(i64, Lit)> = Vec::with_capacity(items.len());
        for &(w, l) in items {
            if w == 0 {
                continue;
            }
            let w = w / g;
            if w > built {
                // Can never appear in a model within `max_bound`.
                sat.add_clause(&[l.negate()]);
            } else {
                effective.push((w, l));
            }
        }
        let reg = counter_outputs(sat, &effective, built);
        BoundCounter { g, reg }
    }

    /// Assert `sum(weight_i * x_i) <= bound`, guarded by `act` when
    /// given (`act -> bound`). `bound` must not exceed the `max_bound`
    /// the counter was built for. Returns false if the formula became
    /// trivially unsatisfiable.
    pub fn assert_upper(&self, sat: &mut Sat, bound: i64, act: Option<Lit>) -> bool {
        let clause_with = |o: Option<Lit>| -> Vec<Lit> {
            act.iter().map(|a| a.negate()).chain(o.map(|o| o.negate())).collect()
        };
        if bound < 0 {
            return sat.add_clause(&clause_with(None));
        }
        let idx = bound.div_euclid(self.g) as usize;
        debug_assert!(idx < self.reg.len() || self.reg.is_empty());
        match self.reg.get(idx).copied().flatten() {
            // The normalized sum can never reach `idx + 1`: the bound
            // holds vacuously.
            None => true,
            Some(o) => sat.add_clause(&clause_with(Some(o))),
        }
    }
}

/// GCD of the non-zero weights (1 when there are none).
fn weight_gcd(items: &[(i64, Lit)]) -> i64 {
    fn gcd(a: i64, b: i64) -> i64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut g = 0;
    for &(w, _) in items {
        if w > 0 {
            g = gcd(g, w);
        }
    }
    g.max(1)
}

/// The sequential-counter DP shared by [`build_counter`] and
/// [`BoundCounter`]: returns `reg` of width `bound + 1` where `reg[j]`
/// is implied whenever the weighted sum over `items` (already
/// normalized) reaches `j + 1`. One-directional derivation clauses.
fn counter_outputs<S: CnfSink>(sat: &mut S, items: &[(i64, Lit)], bound: i64) -> Vec<Option<Lit>> {
    let width = (bound + 1).max(0) as usize;
    let mut reg: Vec<Option<Lit>> = vec![None; width];
    let mut prev: Vec<Option<Lit>> = Vec::with_capacity(width);
    for &(w, x) in items {
        prev.clear();
        prev.extend_from_slice(&reg);
        for j in 1..=(bound + 1) {
            let ji = (j - 1) as usize;
            let from_prev = prev[ji];
            let lower = j - w;
            // What derives `out` through `x`: `x` alone, or `x` together
            // with the register `w` below.
            let from_x: Option<Option<Lit>> = if lower <= 0 {
                Some(None)
            } else {
                prev[(lower - 1) as usize].map(Some)
            };
            if from_prev.is_none() && from_x.is_none() {
                reg[ji] = None;
                continue;
            }
            let out = Lit::pos(sat.new_var());
            if let Some(p) = from_prev {
                sat.add(&[p.negate(), out], ClauseOrigin::Definition);
            }
            match from_x {
                Some(None) => sat.add(&[x.negate(), out], ClauseOrigin::Definition),
                Some(Some(p)) => sat.add(&[x.negate(), p.negate(), out], ClauseOrigin::Definition),
                None => true,
            };
            reg[ji] = Some(out);
        }
    }
    reg
}

/// Add clauses enforcing `sum(weight_i * x_i) <= bound`. Returns false if
/// the formula became trivially unsatisfiable.
pub fn add_upper_bound(sat: &mut Sat, items: &[(i64, Lit)], bound: i64) -> bool {
    if bound < 0 {
        // Even the empty sum (0) exceeds a negative bound.
        return sat.add_clause(&[]);
    }
    let (heavy, overflow) = build_counter(sat, items, bound);
    for l in heavy {
        if !sat.add_clause(&[l.negate()]) {
            return false;
        }
    }
    if let Some(o) = overflow {
        sat.add_clause(&[o.negate()])
    } else {
        true
    }
}

/// Add clauses enforcing `act -> (sum(weight_i * x_i) <= bound)`: the
/// constraint applies only in models where `act` is true. Used for
/// optimization probes that may be retracted by dropping the assumption.
pub fn add_upper_bound_guarded(sat: &mut Sat, items: &[(i64, Lit)], bound: i64, act: Lit) -> bool {
    add_upper_bound_guarded_with(sat, items, bound, act, ClauseOrigin::Definition)
}

/// [`add_upper_bound_guarded`] with an explicit origin for the
/// *assertion* clauses (the counter internals stay definitional).
fn add_upper_bound_guarded_with<S: CnfSink>(
    sat: &mut S,
    items: &[(i64, Lit)],
    bound: i64,
    act: Lit,
    origin: ClauseOrigin,
) -> bool {
    if bound < 0 {
        return sat.add(&[act.negate()], origin);
    }
    let (heavy, overflow) = build_counter(sat, items, bound);
    for l in heavy {
        if !sat.add(&[act.negate(), l.negate()], origin) {
            return false;
        }
    }
    if let Some(o) = overflow {
        sat.add(&[act.negate(), o.negate()], origin)
    } else {
        true
    }
}

/// Translate the ground program into `sat`.
pub fn translate(gp: &GroundProgram, sat: &mut Sat) -> Translation {
    translate_into(gp, sat)
}

/// Translate the ground program into a raw clause list with per-clause
/// [`ClauseOrigin`] provenance. Allocates variables in exactly the same
/// order as [`translate`], so the clauses (and the returned
/// [`Translation`]) are literal-for-literal identical to the solving
/// path's.
pub fn translate_collected(gp: &GroundProgram) -> (CollectedCnf, Translation) {
    let mut cnf = CollectedCnf {
        num_vars: 0,
        clauses: Vec::new(),
    };
    let tr = translate_into(gp, &mut cnf);
    (cnf, tr)
}

fn translate_into<S: CnfSink>(gp: &GroundProgram, sat: &mut S) -> Translation {
    let n = gp.atom_count();
    let atom_var: Vec<Var> = (0..n).map(|_| sat.new_var()).collect();
    let true_var = sat.new_var();
    sat.add(&[Lit::pos(true_var)], ClauseOrigin::Definition);
    // Scratch for every clause built below.
    let mut clause: Vec<Lit> = Vec::new();

    // Supports: `(atom, body literal)` per disjunct allowing the atom to
    // be true, in the order the rules and choices give them.
    let mut supports: Vec<(u32, Lit)> = Vec::new();

    // Normal rules.
    let mut rule_body = Vec::with_capacity(gp.rules.len());
    for (ri, r) in gp.rules.iter().enumerate() {
        let beta = body_lit(sat, &atom_var, true_var, &r.pos, &r.neg, &mut clause);
        rule_body.push(beta);
        let head = Lit::pos(atom_var[r.head.0 as usize]);
        // body -> head
        sat.add(&[beta.negate(), head], ClauseOrigin::Rule(ri as u32));
        supports.push((r.head.0, beta));
    }

    // Choice instances.
    let mut choice_body = Vec::with_capacity(gp.choices.len());
    let mut elem_lits: Vec<(i64, Lit)> = Vec::new();
    for (ci, c) in gp.choices.iter().enumerate() {
        let origin = ClauseOrigin::Choice(ci as u32);
        let beta = body_lit(sat, &atom_var, true_var, &c.pos, &c.neg, &mut clause);
        choice_body.push(beta);
        for &e in c.elements.iter() {
            // The body *permits* the element (no implication to true).
            supports.push((e.0, beta));
        }
        elem_lits.clear();
        elem_lits.extend(
            c.elements
                .iter()
                .map(|&e| (1i64, Lit::pos(atom_var[e.0 as usize]))),
        );
        if let Some(upper) = c.upper {
            // beta -> at most `upper` of elements.
            add_upper_bound_guarded_with(sat, &elem_lits, upper as i64, beta, origin);
        }
        if let Some(lower) = c.lower {
            let lower = lower as i64;
            if lower > 0 {
                if (c.elements.len() as i64) < lower {
                    // Impossible to meet: forbid the body.
                    sat.add(&[beta.negate()], origin);
                } else if lower == 1 {
                    clause.clear();
                    clause.push(beta.negate());
                    clause.extend(elem_lits.iter().map(|&(_, l)| l));
                    sat.add(&clause, origin);
                } else {
                    // sum >= lower  <=>  sum of negations <= n - lower.
                    for item in elem_lits.iter_mut() {
                        item.1 = item.1.negate();
                    }
                    let bound = c.elements.len() as i64 - lower;
                    add_upper_bound_guarded_with(sat, &elem_lits, bound, beta, origin);
                }
            }
        }
    }

    // Completion: every atom needs a support.
    let (first, sup) = group_by_key(n, &supports);
    for (i, &var) in atom_var.iter().enumerate() {
        clause.clear();
        clause.push(Lit::neg(var));
        clause.extend_from_slice(&sup[first[i]..first[i + 1]]);
        sat.add(&clause, ClauseOrigin::Completion(AtomId(i as u32)));
    }

    // Integrity constraints.
    for (ci, c) in gp.constraints.iter().enumerate() {
        clause.clear();
        clause.extend(c.pos.iter().map(|a| Lit::neg(atom_var[a.0 as usize])));
        clause.extend(c.neg.iter().map(|a| Lit::pos(atom_var[a.0 as usize])));
        sat.add(&clause, ClauseOrigin::Constraint(ci as u32));
    }

    // Minimize: one literal per distinct (priority, weight, tuple) that is
    // true iff any of its conditions holds. Groups are numbered in order
    // of first appearance; `reps` holds each group's first term.
    let mut groups = IdTable::default();
    let mut reps: Vec<usize> = Vec::new();
    let mut conds: Vec<(u32, Lit)> = Vec::with_capacity(gp.minimize.len());
    for (mi, m) in gp.minimize.iter().enumerate() {
        let beta = body_lit(sat, &atom_var, true_var, &m.pos, &m.neg, &mut clause);
        let hash = hash_key((m.priority, m.weight, &m.tuple));
        let same = |g: u32| {
            let r = &gp.minimize[reps[g as usize]];
            (r.priority, r.weight, &r.tuple) == (m.priority, m.weight, &m.tuple)
        };
        let group = match groups.find(hash, same) {
            Some(g) => g,
            None => {
                let g = reps.len() as u32;
                groups.insert(hash, g);
                reps.push(mi);
                g
            }
        };
        conds.push((group, beta));
    }
    let (first, cond_lits) = group_by_key(reps.len(), &conds);
    let mut per_priority: FxHashMap<i64, Vec<(i64, Lit)>> = FxHashMap::default();
    let mut priorities: Vec<i64> = Vec::new();
    for (g, &rep) in reps.iter().enumerate() {
        let conds = &cond_lits[first[g]..first[g + 1]];
        let (priority, weight) = (gp.minimize[rep].priority, gp.minimize[rep].weight);
        let tlit = if conds.len() == 1 {
            conds[0]
        } else {
            let t = Lit::pos(sat.new_var());
            for &c in conds {
                sat.add(&[c.negate(), t], ClauseOrigin::Definition);
            }
            clause.clear();
            clause.push(t.negate());
            clause.extend_from_slice(conds);
            sat.add(&clause, ClauseOrigin::Definition);
            t
        };
        if !per_priority.contains_key(&priority) {
            priorities.push(priority);
        }
        per_priority.entry(priority).or_default().push((weight, tlit));
    }
    priorities.sort_unstable_by(|a, b| b.cmp(a));
    let cost: Vec<(i64, Vec<(i64, Lit)>)> = priorities
        .into_iter()
        .map(|p| {
            let items = per_priority.remove(&p).expect("grouped above");
            (p, items)
        })
        .collect();

    Translation {
        atom_var,
        true_var,
        rule_body,
        choice_body,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdcl::SatResult;
    use crate::ground::ground;
    use crate::parser::parse_program;

    fn solve_text(text: &str) -> (GroundProgram, Sat, Translation, SatResult) {
        let gp = ground(&parse_program(text).unwrap()).unwrap();
        let mut sat = Sat::new();
        let tr = translate(&gp, &mut sat);
        let res = sat.solve();
        (gp, sat, tr, res)
    }

    fn truth(gp: &GroundProgram, sat: &Sat, tr: &Translation, atom: &str) -> bool {
        for i in 0..gp.atom_count() {
            if gp.store.format_atom(crate::term::AtomId(i as u32)) == atom {
                return sat.value(tr.atom_var[i]);
            }
        }
        panic!("atom {atom} not interned");
    }

    #[test]
    fn facts_and_rules_propagate() {
        let (gp, sat, tr, res) = solve_text("a. b :- a. c :- b.");
        assert_eq!(res, SatResult::Sat);
        assert!(truth(&gp, &sat, &tr, "a"));
        assert!(truth(&gp, &sat, &tr, "b"));
        assert!(truth(&gp, &sat, &tr, "c"));
    }

    #[test]
    fn unsupported_atoms_false() {
        // c is possible (its rule has a negated body) but must be false
        // because a holds; then b, supported only by c, is false too.
        let (gp, sat, tr, res) = solve_text("a. c :- not a. b :- c.");
        assert_eq!(res, SatResult::Sat);
        assert!(truth(&gp, &sat, &tr, "a"));
        assert!(!truth(&gp, &sat, &tr, "c"));
        assert!(!truth(&gp, &sat, &tr, "b"));
    }

    #[test]
    fn negation_as_failure() {
        let (gp, sat, tr, res) = solve_text("a. b :- not c. c :- not_present_pred.");
        assert_eq!(res, SatResult::Sat);
        assert!(truth(&gp, &sat, &tr, "b"));
        assert!(!truth(&gp, &sat, &tr, "c"));
    }

    #[test]
    fn constraint_excludes() {
        let (_, _, _, res) = solve_text("a. :- a.");
        assert_eq!(res, SatResult::Unsat);
    }

    #[test]
    fn choice_exactly_one() {
        let (gp, sat, tr, res) = solve_text(
            r#"
            n. cand("x"). cand("y").
            1 { pick(V) : cand(V) } 1 :- n.
        "#,
        );
        assert_eq!(res, SatResult::Sat);
        let x = truth(&gp, &sat, &tr, "pick(\"x\")");
        let y = truth(&gp, &sat, &tr, "pick(\"y\")");
        assert!(x ^ y, "exactly one of pick(x)/pick(y)");
    }

    #[test]
    fn choice_lower_bound_unmeetable_forbids_body() {
        // Choice needs 1 element but none exist; body atom n must still be
        // satisfiable... n is a fact, so the program is UNSAT.
        let (_, _, _, res) = solve_text("n. 1 { pick(V) : cand(V) } 1 :- n.");
        assert_eq!(res, SatResult::Unsat);
    }

    #[test]
    fn choice_upper_zero_forces_none() {
        let (gp, sat, tr, res) = solve_text(
            r#"
            n. cand("x").
            { pick(V) : cand(V) } 0 :- n.
        "#,
        );
        assert_eq!(res, SatResult::Sat);
        assert!(!truth(&gp, &sat, &tr, "pick(\"x\")"));
    }

    #[test]
    fn at_most_two_of_four() {
        let (gp, sat, tr, res) = solve_text(
            r#"
            n. c(1). c(2). c(3). c(4).
            { pick(V) : c(V) } 2 :- n.
            want(X) :- pick(X).
        "#,
        );
        assert_eq!(res, SatResult::Sat);
        let count = (1..=4)
            .filter(|i| truth(&gp, &sat, &tr, &format!("pick({i})")))
            .count();
        assert!(count <= 2);
    }

    #[test]
    fn at_least_two_of_three() {
        let (gp, sat, tr, res) = solve_text(
            r#"
            n. c(1). c(2). c(3).
            2 { pick(V) : c(V) } :- n.
        "#,
        );
        assert_eq!(res, SatResult::Sat);
        let count = (1..=3)
            .filter(|i| truth(&gp, &sat, &tr, &format!("pick({i})")))
            .count();
        assert!(count >= 2);
    }

    #[test]
    fn upper_bound_weighted() {
        // Standalone counter test: w = [3,2,2], bound 4.
        let mut sat = Sat::new();
        let xs: Vec<Lit> = (0..3).map(|_| Lit::pos(sat.new_var())).collect();
        let items = vec![(3, xs[0]), (2, xs[1]), (2, xs[2])];
        assert!(add_upper_bound(&mut sat, &items, 4));
        // Force all three: total 7 > 4 => unsat.
        for &x in &xs {
            sat.add_clause(&[x]);
        }
        assert_eq!(sat.solve(), SatResult::Unsat);
    }

    #[test]
    fn upper_bound_allows_within_budget() {
        let mut sat = Sat::new();
        let xs: Vec<Lit> = (0..3).map(|_| Lit::pos(sat.new_var())).collect();
        let items = vec![(3, xs[0]), (2, xs[1]), (2, xs[2])];
        assert!(add_upper_bound(&mut sat, &items, 4));
        sat.add_clause(&[xs[1]]);
        sat.add_clause(&[xs[2]]);
        assert_eq!(sat.solve(), SatResult::Sat);
        // x0 (weight 3) must be false: 2+2+3 = 7 > 4.
        assert!(!sat.value(xs[0].var()));
    }

    #[test]
    fn upper_bound_zero_forbids_everything_weighted() {
        let mut sat = Sat::new();
        let x = Lit::pos(sat.new_var());
        assert!(add_upper_bound(&mut sat, &[(5, x)], 0));
        assert_eq!(sat.solve(), SatResult::Sat);
        assert!(!sat.value(x.var()));
    }

    #[test]
    fn guarded_bound_only_applies_when_active() {
        let mut sat = Sat::new();
        let x = Lit::pos(sat.new_var());
        let y = Lit::pos(sat.new_var());
        let act = Lit::pos(sat.new_var());
        assert!(add_upper_bound_guarded(&mut sat, &[(1, x), (1, y)], 1, act));
        sat.add_clause(&[x]);
        sat.add_clause(&[y]);
        // Without act there is a model (act false).
        assert_eq!(sat.solve(), SatResult::Sat);
        assert!(!sat.value(act.var()));
        // Forcing act makes it UNSAT.
        sat.add_clause(&[act]);
        assert_eq!(sat.solve(), SatResult::Unsat);
    }

    #[test]
    fn cost_literals_track_conditions() {
        let (gp, sat, tr, res) = solve_text(
            r#"
            a.
            b :- a.
            #minimize { 10@1,"t1" : b }.
        "#,
        );
        assert_eq!(res, SatResult::Sat);
        assert_eq!(tr.cost.len(), 1);
        let (prio, items) = &tr.cost[0];
        assert_eq!(*prio, 1);
        assert_eq!(items.len(), 1);
        // b holds, so the cost literal must be true.
        let _ = gp;
        assert_eq!(items[0].0, 10);
        let l = items[0].1;
        let val = sat.value(l.var()) != l.is_neg();
        assert!(val);
    }
}
