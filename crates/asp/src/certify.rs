//! Model certificate checking: validate a candidate answer set against a
//! ground program directly, from the definitions.
//!
//! A production solver run goes through grounding, Clark completion, CDCL
//! search, stability CEGAR, and branch-and-bound optimization — any of
//! which could be subtly wrong. This module re-checks an emitted model
//! against the [`GroundProgram`] alone, using a deliberately simple
//! quadratic fixpoint written straight from the Gelfond–Lifschitz
//! definition (no indexing, no shared code with [`crate::stability`]), so
//! it can serve as an independent certificate checker:
//!
//! 1. **Classical satisfaction** — every rule, constraint, and choice
//!    cardinality bound holds in the candidate.
//! 2. **Reduct minimality** — the candidate equals the least model of its
//!    own Gelfond–Lifschitz reduct (no unfounded/self-supported atoms).
//! 3. **Cost tightness** — the recorded `(priority, cost)` vector equals
//!    the cost recomputed from the true atoms under Clingo set-of-tuples
//!    semantics (each distinct `(priority, weight, tuple)` contributes
//!    its weight once if *any* of its conditions holds).
//!
//! The checker cannot prove global *optimality* (that would require a
//! search of its own — `spackle-oracle` does that for small programs);
//! it proves the model is a stable model and that the claimed objective
//! value is honest.

use crate::ground::GroundProgram;
use crate::model::Model;
use crate::term::{AtomId, TermId};
use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;

/// Why a candidate model failed certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertifyError {
    /// A true atom is not in the grounder's possible-atom universe.
    ForeignAtom {
        /// Rendering of the offending atom.
        atom: String,
    },
    /// A certain (fact-derived) atom is false in the candidate.
    MissingCertain {
        /// Rendering of the missing atom.
        atom: String,
    },
    /// A rule's body holds but its head is false.
    UnsatisfiedRule {
        /// Index into [`GroundProgram::rules`].
        index: usize,
    },
    /// An integrity constraint's body holds.
    ViolatedConstraint {
        /// Index into [`GroundProgram::constraints`].
        index: usize,
    },
    /// A choice instance's body holds but the number of chosen elements
    /// is outside the cardinality bounds.
    ChoiceBounds {
        /// Index into [`GroundProgram::choices`].
        index: usize,
        /// How many elements are true in the candidate.
        chosen: usize,
    },
    /// The candidate is not the least model of its reduct: these atoms
    /// are true but underivable (unfounded).
    NotMinimal {
        /// Renderings of the unfounded atoms.
        atoms: Vec<String>,
    },
    /// The recorded cost vector disagrees with the cost recomputed from
    /// the true atoms.
    CostMismatch {
        /// Cost vector recorded on the model.
        claimed: Vec<(i64, i64)>,
        /// Cost vector recomputed from the ground program.
        actual: Vec<(i64, i64)>,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::ForeignAtom { atom } => {
                write!(f, "atom {atom} is true but outside the ground universe")
            }
            CertifyError::MissingCertain { atom } => {
                write!(f, "certain atom {atom} is false in the model")
            }
            CertifyError::UnsatisfiedRule { index } => {
                write!(f, "rule #{index} fires but its head is false")
            }
            CertifyError::ViolatedConstraint { index } => {
                write!(f, "integrity constraint #{index} is violated")
            }
            CertifyError::ChoiceBounds { index, chosen } => {
                write!(f, "choice #{index} bounds violated ({chosen} chosen)")
            }
            CertifyError::NotMinimal { atoms } => {
                write!(f, "model is not reduct-minimal; unfounded: {atoms:?}")
            }
            CertifyError::CostMismatch { claimed, actual } => {
                write!(f, "cost vector {claimed:?} does not match recomputed {actual:?}")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

fn body_holds(model: &FxHashSet<AtomId>, pos: &[AtomId], neg: &[AtomId]) -> bool {
    pos.iter().all(|a| model.contains(a)) && !neg.iter().any(|a| model.contains(a))
}

/// Certify that `model` is a stable model of `gp`: classical
/// satisfaction of every rule/constraint/choice plus reduct-minimality.
pub fn certify_atoms(gp: &GroundProgram, model: &FxHashSet<AtomId>) -> Result<(), CertifyError> {
    // Every true atom must come from the grounder's universe, and every
    // certain atom (a negation-free consequence of facts) must hold.
    for &a in model {
        if !gp.possible.contains(a) {
            return Err(CertifyError::ForeignAtom {
                atom: gp.store.format_atom(a),
            });
        }
    }
    for a in gp.certain.iter() {
        if !model.contains(&a) {
            return Err(CertifyError::MissingCertain {
                atom: gp.store.format_atom(a),
            });
        }
    }

    // Classical satisfaction.
    for (i, r) in gp.rules.iter().enumerate() {
        if body_holds(model, &r.pos, &r.neg) && !model.contains(&r.head) {
            return Err(CertifyError::UnsatisfiedRule { index: i });
        }
    }
    for (i, c) in gp.constraints.iter().enumerate() {
        if body_holds(model, &c.pos, &c.neg) {
            return Err(CertifyError::ViolatedConstraint { index: i });
        }
    }
    for (i, c) in gp.choices.iter().enumerate() {
        if body_holds(model, &c.pos, &c.neg) {
            let chosen = c.elements.iter().filter(|e| model.contains(e)).count();
            let low_ok = c.lower.is_none_or(|l| chosen as u64 >= l as u64);
            let high_ok = c.upper.is_none_or(|u| chosen as u64 <= u as u64);
            if !low_ok || !high_ok {
                return Err(CertifyError::ChoiceBounds { index: i, chosen });
            }
        }
    }

    // Reduct minimality: the least model of the Gelfond–Lifschitz reduct
    // must equal the candidate. Naive fixpoint — restart the scan after
    // every derivation so correctness is obvious by inspection.
    let mut least: FxHashSet<AtomId> = FxHashSet::default();
    loop {
        let mut changed = false;
        for r in &gp.rules {
            // The reduct keeps a rule iff no negated atom is true in the
            // candidate; the reduct rule fires once its positive body is
            // in the least model.
            if !r.neg.iter().any(|a| model.contains(a))
                && r.pos.iter().all(|a| least.contains(a))
                && least.insert(r.head)
            {
                changed = true;
            }
        }
        for c in &gp.choices {
            // A choice whose reduct body fires justifies exactly those of
            // its elements the candidate chose.
            if !c.neg.iter().any(|a| model.contains(a))
                && c.pos.iter().all(|a| least.contains(a))
            {
                for &e in c.elements.iter() {
                    if model.contains(&e) && least.insert(e) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let unfounded: Vec<AtomId> = model.iter().copied().filter(|a| !least.contains(a)).collect();
    if !unfounded.is_empty() {
        let mut atoms: Vec<String> = unfounded.iter().map(|&a| gp.store.format_atom(a)).collect();
        atoms.sort();
        return Err(CertifyError::NotMinimal { atoms });
    }
    Ok(())
}

/// Recompute the `(priority, cost)` vector of `model` under `gp`'s
/// `#minimize` statements, highest priority first. Each distinct
/// `(priority, weight, tuple)` contributes `weight` once if any of its
/// conditions holds in the model. One entry per priority occurring in
/// the ground program, even when its cost is zero.
pub fn evaluate_cost(gp: &GroundProgram, model: &FxHashSet<AtomId>) -> Vec<(i64, i64)> {
    let mut charged: FxHashSet<(i64, i64, &[TermId])> = FxHashSet::default();
    let mut per_priority: FxHashMap<i64, i64> = FxHashMap::default();
    for m in &gp.minimize {
        per_priority.entry(m.priority).or_insert(0);
        if body_holds(model, &m.pos, &m.neg) && charged.insert((m.priority, m.weight, &m.tuple)) {
            *per_priority.entry(m.priority).or_insert(0) += m.weight;
        }
    }
    let mut out: Vec<(i64, i64)> = per_priority.into_iter().collect();
    out.sort_unstable_by_key(|&(priority, _)| std::cmp::Reverse(priority));
    out
}

/// Full certificate for a candidate given as a raw atom set plus a
/// claimed cost vector: stability ([`certify_atoms`]) and cost
/// tightness ([`evaluate_cost`]). Pass `None` to skip the cost check
/// (e.g. for models from enumeration, which record no cost).
pub fn certify(
    gp: &GroundProgram,
    model: &FxHashSet<AtomId>,
    claimed_cost: Option<&[(i64, i64)]>,
) -> Result<(), CertifyError> {
    certify_atoms(gp, model)?;
    if let Some(claimed) = claimed_cost {
        let actual = evaluate_cost(gp, model);
        if claimed != actual.as_slice() {
            return Err(CertifyError::CostMismatch {
                claimed: claimed.to_vec(),
                actual,
            });
        }
    }
    Ok(())
}

/// Certificate-check a production [`Model`] against the ground program
/// it carries. Models from [`crate::Solver::solve`] also have their
/// recorded cost vector verified; models from enumeration carry no cost
/// vector and skip that part.
pub fn certify_model(m: &Model) -> Result<(), CertifyError> {
    let cost = if m.cost.is_empty() && !m.ground().minimize.is_empty() {
        None // enumeration ignores #minimize and records no cost
    } else {
        Some(m.cost.as_slice())
    };
    certify(m.ground(), &m.true_atoms().collect(), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground;
    use crate::parser::parse_program;
    use crate::solve::{SolveOutcome, Solver};

    fn solved_model(text: &str) -> Model {
        match Solver::new().solve(&parse_program(text).unwrap()).unwrap().0 {
            SolveOutcome::Optimal(m) => m,
            SolveOutcome::Unsat => panic!("unexpected UNSAT"),
        }
    }

    #[test]
    fn production_models_certify() {
        for text in [
            "a. b :- a.",
            "a :- not b. b :- not a.",
            "{ p }. a :- p. :- not a.",
            r#"cand("x"). cand("y"). 1 { pick(V) : cand(V) } 1.
               cost("x",1). cost("y",2).
               #minimize { C@1,V : pick(V), cost(V,C) }."#,
        ] {
            let m = solved_model(text);
            certify_model(&m).unwrap();
        }
    }

    fn atoms_named(gp: &crate::ground::GroundProgram, names: &[&str]) -> FxHashSet<AtomId> {
        gp.possible
            .iter()
            .filter(|&a| names.contains(&gp.store.format_atom(a).as_str()))
            .collect()
    }

    #[test]
    fn flipped_atom_is_rejected() {
        // {a} satisfies the choice but leaves "b :- a." firing headless.
        let gp = ground(&parse_program("{ a }. b :- a.").unwrap()).unwrap();
        let model = atoms_named(&gp, &["a"]);
        assert_eq!(model.len(), 1);
        assert!(matches!(
            certify_atoms(&gp, &model),
            Err(CertifyError::UnsatisfiedRule { .. })
        ));
    }

    #[test]
    fn dropped_fact_is_rejected() {
        let gp = ground(&parse_program("a. b :- a.").unwrap()).unwrap();
        let model = atoms_named(&gp, &["a"]);
        assert!(matches!(
            certify_atoms(&gp, &model),
            Err(CertifyError::MissingCertain { .. })
        ));
    }

    #[test]
    fn self_supported_atom_is_rejected() {
        // {a, b} classically satisfies the loop "a :- b. b :- a." (the
        // c-rule gives both atoms grounder support) but is unfounded
        // once c is false.
        let gp = ground(&parse_program("{ c }. a :- c. a :- b. b :- a.").unwrap()).unwrap();
        let model = atoms_named(&gp, &["a", "b"]);
        assert_eq!(model.len(), 2);
        assert!(matches!(
            certify_atoms(&gp, &model),
            Err(CertifyError::NotMinimal { .. })
        ));
    }

    #[test]
    fn dishonest_cost_is_rejected() {
        let m = solved_model(
            r#"a. #minimize { 3@1 : a }."#,
        );
        assert_eq!(m.cost, vec![(1, 3)]);
        let lie = vec![(1, 0)];
        assert!(matches!(
            certify(m.ground(), &m.true_atoms().collect(), Some(&lie)),
            Err(CertifyError::CostMismatch { .. })
        ));
    }
}
