//! Optimality by refutation: proof that no stable model beats a claimed
//! `#minimize` optimum, built from nothing the production optimizer
//! shares.
//!
//! [`certify_model`](spackle_asp::certify_model) proves that a model is
//! stable and that its reported cost is its own, so a cost claimed too
//! low fails there. [`refute_improvement`] proves the rest: no stable
//! model is lexicographically cheaper, so a cost claimed too high fails
//! here. Together they prove the optimum.
//!
//! A cheaper model first beats the claim at some level `L`: it ties the
//! claim above `L` and costs less at `L`, so the claim at `L` is
//! nonzero (costs are never negative). The refutation therefore bounds,
//! for each nonzero level, every higher level at its claimed cost and
//! this level one below its claim, and requires that bound to admit no
//! stable model.
//!
//! Each level gets a fresh [`Sat`] loaded with the unfolded completion
//! ([`cnf::translate_collected`]: one variable and one completion clause
//! per atom, nothing taken from the grounder's `certain` set) and fresh
//! [`cnf::add_upper_bound`] circuits. No `Solver`, no bound counter
//! reused across probes, no learnt clause carried from one bound to the
//! next, no elided re-solve and no fold of certain atoms: those are the
//! production search's own shortcuts, which this check judges.
//! Stability is decided by [`reference::is_stable`], not by the
//! production stability check.

use crate::reference;
use rustc_hash::FxHashSet;
use spackle_asp::cdcl::{Lit, Sat, SatResult};
use spackle_asp::cnf::{self, Translation};
use spackle_asp::term::AtomId;
use spackle_asp::GroundProgram;

/// Prove that no stable model of `gp` is lexicographically cheaper than
/// `cost`, a claimed optimum as [`Model::cost`](spackle_asp::Model)
/// reports it: `(priority, cost)` pairs, highest priority first, one per
/// priority of `gp`'s `#minimize` statements. Returns the number of
/// nonzero levels refuted, or `Err` naming the level at which a stable
/// model beats the claim.
pub fn refute_improvement(gp: &GroundProgram, cost: &[(i64, i64)]) -> Result<usize, String> {
    let mut refuted = 0;
    for (level, &(priority, claimed)) in cost.iter().enumerate() {
        if claimed == 0 {
            continue;
        }
        let (cnf, tr) = cnf::translate_collected(gp);
        let mut sat = Sat::new();
        for _ in 0..cnf.num_vars {
            sat.new_var();
        }
        for (clause, _) in &cnf.clauses {
            sat.add_clause(clause);
        }
        let priorities: Vec<i64> = tr.cost.iter().map(|&(p, _)| p).collect();
        if !priorities.iter().copied().eq(cost.iter().map(|&(p, _)| p)) {
            return Err(format!(
                "claimed cost {cost:?} does not match the program's priorities {priorities:?}"
            ));
        }
        for ((_, items), &(_, bound)) in tr.cost.iter().zip(cost).take(level) {
            cnf::add_upper_bound(&mut sat, items, bound);
        }
        cnf::add_upper_bound(&mut sat, &tr.cost[level].1, claimed - 1);
        while let Some(model) = completion_model(gp, &tr, &mut sat)? {
            if reference::is_stable(gp, &model) {
                return Err(format!(
                    "level {level} (priority {priority}): a stable model of cost {:?} beats the \
                     claimed {cost:?}",
                    reference::cost_of(gp, &model)
                ));
            }
            // An unstable completion model: block its atoms and search on.
            // Tight programs, the concretizer's among them, have none.
            let block: Vec<Lit> = gp
                .possible
                .iter()
                .map(|a| {
                    let l = tr.lit(a);
                    if model.contains(&a) {
                        l.negate()
                    } else {
                        l
                    }
                })
                .collect();
            if !sat.add_clause(&block) {
                break;
            }
        }
        refuted += 1;
    }
    Ok(refuted)
}

/// The atoms of the next model of `sat`, or `None` once it is
/// unsatisfiable.
fn completion_model(
    gp: &GroundProgram,
    tr: &Translation,
    sat: &mut Sat,
) -> Result<Option<FxHashSet<AtomId>>, String> {
    match sat.solve() {
        SatResult::Unsat => Ok(None),
        SatResult::Sat => Ok(Some(
            gp.possible
                .iter()
                .filter(|&a| sat.value(tr.atom_var[a.0 as usize]))
                .collect(),
        )),
        other => Err(format!("SAT search ended without an answer: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spackle_asp::{parse_program, Model, SolveOutcome, Solver};

    /// Select exactly four of eight items, minimizing total weight at
    /// the high priority, then the count at the low one. The optimum
    /// takes several bound tightenings to reach.
    const KNAPSACK: &str = "
    item(i1). item(i2). item(i3). item(i4). item(i5). item(i6). item(i7). item(i8).
    w(i1,7). w(i2,3). w(i3,9). w(i4,2). w(i5,8). w(i6,4). w(i7,6). w(i8,5).
    4 { sel(I) : item(I) } 4.
    conflictpair(i1,i2). conflictpair(i3,i4). conflictpair(i5,i6).
    :- conflictpair(A,B), sel(A), sel(B).
    #minimize { W@2,I : sel(I), w(I,W) }.
    #minimize { 1@1,I : sel(I) }.
    ";

    fn optimum(text: &str) -> Model {
        match Solver::new()
            .solve(&parse_program(text).unwrap())
            .unwrap()
            .0
        {
            SolveOutcome::Optimal(m) => m,
            SolveOutcome::Unsat => panic!("unexpected UNSAT"),
        }
    }

    #[test]
    fn knapsack_optimum_is_refuted_below() {
        let m = optimum(KNAPSACK);
        assert!(m.cost.iter().all(|&(_, c)| c != 0), "{:?}", m.cost);
        assert_eq!(refute_improvement(m.ground(), &m.cost), Ok(2));
        for level in 0..m.cost.len() {
            let mut worse = m.cost.clone();
            worse[level].1 += 1;
            assert!(
                refute_improvement(m.ground(), &worse).is_err(),
                "{worse:?} passed for the optimum {:?}",
                m.cost
            );
        }
    }

    #[test]
    fn no_minimize_refutes_nothing() {
        let m = optimum("a :- not b. b :- not a.");
        assert!(m.cost.is_empty());
        assert_eq!(refute_improvement(m.ground(), &m.cost), Ok(0));
        assert!(refute_improvement(m.ground(), &[(1, 1)]).is_err());
    }

    #[test]
    fn unstable_completion_models_are_blocked() {
        // With p false, the only completion model is {a, b}, which
        // supports itself and is unstable. Refuting cost 0 must block it
        // and then find no model.
        let m = optimum("{ p }. a :- p. a :- b. b :- a. :- not a. #minimize { 1@1 : p }.");
        assert_eq!(m.cost, vec![(1, 1)]);
        assert_eq!(refute_improvement(m.ground(), &m.cost), Ok(1));
        assert!(refute_improvement(m.ground(), &[(1, 2)]).is_err());
    }
}
