//! Differential check of the analysis behind the audit's `SPKL-L004`
//! ("rule can never fire"): on random programs, a rule with a positive
//! body literal over a predicate outside `derivable_preds` has no ground
//! instance. The grounder's provenance tables (`rule_src`, `choice_src`,
//! `constraint_src`) name the source rule of every instance it emits.

use proptest::TestRng;
use spackle_asp::analysis::{derivable_preds, pred_of};
use spackle_asp::ground::ground;
use spackle_asp::program::BodyElem;
use spackle_asp::AspError;
use spackle_oracle::genprog::random_program;
use std::collections::BTreeSet;

#[test]
fn underivable_rules_ground_to_nothing() {
    let mut dead_total = 0;
    for seed in 0..256u64 {
        let prog = random_program(&mut TestRng::seed_from_u64(seed));
        let gp = match ground(&prog) {
            Ok(gp) => gp,
            Err(AspError::ResourceLimit(_)) => continue,
            Err(e) => panic!("[seed {seed}] grounder rejected program: {e}\n{prog}"),
        };
        let derivable = derivable_preds(&prog);
        let dead: BTreeSet<u32> = (0u32..)
            .zip(&prog.rules)
            .filter(|(_, rule)| {
                rule.body
                    .iter()
                    .any(|e| matches!(e, BodyElem::Pos(a) if !derivable.contains(&pred_of(a))))
            })
            .map(|(i, _)| i)
            .collect();
        dead_total += dead.len();
        let grounded = gp
            .rule_src
            .iter()
            .chain(&gp.choice_src)
            .chain(&gp.constraint_src);
        for src in grounded {
            assert!(
                !dead.contains(src),
                "[seed {seed}] rule {src} has an underivable body yet grounded\n{prog}"
            );
        }
    }
    assert!(
        dead_total >= 100,
        "too few underivable rules exercised ({dead_total})"
    );
}
