//! The grounder's `certain` set is trusted twice: the solving
//! translation folds every certain atom into the constant-true variable,
//! and the reference solver enumerates only the atoms outside it. A
//! certain atom must therefore hold in every stable model. On random
//! programs, clearing `certain` must bring back exactly the same stable
//! models, both where negation-free rules prove an atom certain and
//! where a rule's negated atoms can never become possible.

use proptest::TestRng;
use rustc_hash::FxHashSet;
use spackle_asp::ground::{ground, GroundProgram};
use spackle_asp::term::{AtomId, AtomSet};
use spackle_asp::AspError;
use spackle_oracle::genprog::random_program;
use spackle_oracle::reference::{self, OracleError, DEFAULT_MAX_FREE_ATOMS};

/// The atoms negation-free rules derive from facts: the certainty
/// closure without its rule for never-possible negations.
fn negation_free_closure(gp: &GroundProgram) -> FxHashSet<AtomId> {
    let mut closure: FxHashSet<AtomId> = FxHashSet::default();
    loop {
        let before = closure.len();
        for r in &gp.rules {
            if r.neg.is_empty() && r.pos.iter().all(|a| closure.contains(a)) {
                closure.insert(r.head);
            }
        }
        if closure.len() == before {
            return closure;
        }
    }
}

#[test]
fn certain_atoms_hold_in_every_stable_model() {
    let (mut compared, mut widened) = (0, 0);
    for seed in 0..512u64 {
        let prog = random_program(&mut TestRng::seed_from_u64(seed));
        let mut gp = match ground(&prog) {
            Ok(gp) => gp,
            Err(AspError::ResourceLimit(_)) => continue,
            Err(e) => panic!("[seed {seed}] grounder rejected program: {e}\n{prog}"),
        };
        let pruned = reference::stable_models(&gp, DEFAULT_MAX_FREE_ATOMS);
        let closure = negation_free_closure(&gp);
        assert!(
            closure.iter().all(|&a| gp.certain.contains(a)),
            "[seed {seed}] a negation-free consequence is not certain\n{prog}"
        );
        let exercised = gp.certain.len() > closure.len();
        gp.certain = AtomSet::default();
        let full = match reference::stable_models(&gp, DEFAULT_MAX_FREE_ATOMS) {
            Ok(models) => models,
            Err(OracleError::TooLarge { .. }) => continue,
        };
        let pruned = pruned.expect("fewer free atoms than the unpruned search");
        assert_eq!(
            pruned, full,
            "[seed {seed}] clearing `certain` changed the stable models\n{prog}"
        );
        compared += 1;
        widened += usize::from(exercised);
    }
    assert!(compared >= 400, "too few programs compared ({compared})");
    assert!(
        widened >= 100,
        "too few programs with a certain atom behind a never-possible negation ({widened})"
    );
}
