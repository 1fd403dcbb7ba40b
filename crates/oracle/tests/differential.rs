//! The bounded differential property suite: production solver vs the
//! brute-force oracle on random programs, and concretizer cross-checks
//! on random repositories. 384 program cases + 128 repo cases = 512
//! random cases per `cargo test` run; the open-ended version of the
//! same checks is the `fuzz-solve` binary.
//!
//! Reproduce any failure by exporting `PROPTEST_SEED` (printed on
//! failure), or by feeding the per-case seed from the failure message
//! to `fuzz-solve --replay-only` via a corpus line.

use proptest::prelude::*;
use proptest::TestRng;
use spackle_asp::ground::ground;
use spackle_asp::stability::is_tight;
use spackle_oracle::diff;
use spackle_oracle::genprog::random_program;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]
    #[test]
    fn production_matches_oracle_on_random_programs(seed in 0u64..u64::MAX) {
        if let Err(msg) = diff::check_program_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn concretizer_configs_agree_on_random_repos(seed in 0u64..u64::MAX) {
        if let Err(msg) = diff::check_repo_case(seed) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// The committed seed corpus must stay green: these are regression
/// anchors for the fuzz harness (and double as deterministic coverage
/// of both case kinds independent of `PROPTEST_SEED`).
#[test]
fn corpus_seeds_replay_clean() {
    let corpus = include_str!("../corpus/seeds.txt");
    let mut ran = 0;
    for line in corpus.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let result = if let Some(s) = line.strip_prefix("program:") {
            diff::check_program_case(s.trim().parse().unwrap()).map(|_| ())
        } else if let Some(s) = line.strip_prefix("repo:") {
            diff::check_repo_case(s.trim().parse().unwrap()).map(|_| ())
        } else {
            let seed: u64 = line.parse().unwrap();
            diff::check_program_case(seed)
                .map(|_| ())
                .and_then(|()| diff::check_repo_case(seed).map(|_| ()))
        };
        result.unwrap_or_else(|e| panic!("corpus case {line} failed: {e}"));
        ran += 1;
    }
    assert!(ran >= 8, "corpus unexpectedly small ({ran} cases)");
}

/// Acceptance negative test: the certificate checker must reject
/// deliberately corrupted models.
#[test]
fn certificate_checker_rejects_corrupted_models() {
    use rustc_hash::FxHashSet;
    use spackle_asp::certify;
    use spackle_asp::ground::ground;
    use spackle_asp::parse_program;
    use spackle_asp::term::AtomId;
    use spackle_oracle::reference;

    let gp = ground(
        &parse_program(
            r#"
            cand("x"). cand("y").
            1 { pick(V) : cand(V) } 1.
            dep :- pick("x").
            #minimize { 1@1 : pick("y") }.
        "#,
        )
        .unwrap(),
    )
    .unwrap();
    let sol = reference::solve(&gp, reference::DEFAULT_MAX_FREE_ATOMS).unwrap();
    assert!(!sol.models.is_empty());

    // Every genuine oracle model passes the full certificate.
    for (m, c) in sol.models.iter().zip(&sol.costs) {
        let set: FxHashSet<AtomId> = m.iter().copied().collect();
        certify::certify(&gp, &set, Some(c)).unwrap();
    }

    // Corrupt a model by flipping each free atom in turn: every
    // corruption must be caught.
    let free: Vec<AtomId> = gp
        .possible
        .iter()
        .filter(|&a| !gp.certain.contains(a))
        .collect();
    let base: FxHashSet<AtomId> = sol.models[0].iter().copied().collect();
    for &a in &free {
        let mut corrupted = base.clone();
        if !corrupted.remove(&a) {
            corrupted.insert(a);
        }
        assert!(
            certify::certify_atoms(&gp, &corrupted).is_err(),
            "flipping {} went undetected",
            gp.store.format_atom(a)
        );
    }

    // A dishonest cost vector must also be caught.
    let honest = &sol.costs[0];
    let lie: Vec<(i64, i64)> = honest.iter().map(|&(p, c)| (p, c + 1)).collect();
    assert!(matches!(
        certify::certify(&gp, &base, Some(&lie)),
        Err(certify::CertifyError::CostMismatch { .. })
    ));
}

/// The solver skips its stability check on tight programs, so the
/// random programs above must exercise both sides of that gate: a
/// generator that drifts to one side leaves the other untested.
#[test]
fn random_programs_cover_tight_and_non_tight() {
    let (mut tight, mut non_tight) = (0, 0);
    for seed in 0..256u64 {
        let prog = random_program(&mut TestRng::seed_from_u64(seed));
        let Ok(gp) = ground(&prog) else { continue };
        if is_tight(&gp) {
            tight += 1;
        } else {
            non_tight += 1;
        }
    }
    assert!(
        tight >= 64 && non_tight >= 64,
        "seeds 0..256 gave {tight} tight and {non_tight} non-tight programs"
    );
}
