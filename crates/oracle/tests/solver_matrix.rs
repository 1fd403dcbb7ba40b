//! The fixed-seed oracle suite: the production solver against the
//! brute-force oracle, and the concretizer's optima against a
//! from-scratch refutation, on seeds pinned here rather than drawn by
//! proptest, so failures replay without `PROPTEST_SEED` plumbing.
//!
//! Three corpora drive the check:
//!
//! * 384 random program cases, checked against the brute-force oracle
//!   (identical stable-model sets and lexicographic optima);
//! * the hand-written hardening programs (recursive joins, bounded
//!   choices, negation + comparisons, multi-priority minimization);
//! * 128 random repo cases: every optimum the concretizer's program
//!   reaches is certified and refuted below
//!   ([`spackle_oracle::refute_improvement`]).
//!
//! Set `SOLVER_MATRIX_PROGRAM_CASES` / `SOLVER_MATRIX_REPO_CASES` to
//! shrink or grow the random portion (CI runs the full 384 + 128).

use rustc_hash::FxHashSet;
use spackle_asp::certify;
use spackle_asp::ground::ground;
use spackle_asp::term::AtomId;
use spackle_asp::{parse_program, SolveOutcome, Solver};
use spackle_oracle::{diff, reference};

fn env_cases(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn random_programs_agree_with_oracle() {
    let cases = env_cases("SOLVER_MATRIX_PROGRAM_CASES", 384);
    for seed in 0..cases {
        if let Err(msg) = diff::check_program_case(seed) {
            panic!("{msg}");
        }
    }
}

/// Hand-written hardening programs covering the constructs with the
/// trickiest emission order, checked against the brute-force oracle:
/// exact model sets and exact lexicographic optima.
const HARDENING_PROGRAMS: &[(&str, &str)] = &[
    (
        "recursive-join",
        "node(a). node(b). node(c). node(d).\n\
         edge(a,b). edge(b,c). edge(c,d). edge(d,a). edge(b,d).\n\
         path(X,Y) :- edge(X,Y).\n\
         path(X,Z) :- path(X,Y), edge(Y,Z).\n\
         reach(X) :- path(a,X).\n",
    ),
    (
        "bounded-choice-with-conditions",
        "opt(x). opt(y). opt(z). good(x). good(z).\n\
         1 { pick(O) : opt(O) } 2.\n\
         :- pick(O), not good(O).\n\
         #minimize { 1@1,O : pick(O) }.\n",
    ),
    (
        "negation-and-comparisons",
        "n(1). n(2). n(3). n(4).\n\
         big(X) :- n(X), X > 2.\n\
         small(X) :- n(X), not big(X).\n\
         pair(X,Y) :- small(X), big(Y), X < Y.\n\
         :- pair(2,3), not n(4).\n",
    ),
    (
        "multi-priority-minimize",
        "item(a). item(b). item(c).\n\
         cost(a,3). cost(b,1). cost(c,2).\n\
         1 { take(I) : item(I) } 3.\n\
         taken :- take(a).\n\
         #minimize { C@2,I : take(I), cost(I,C) }.\n\
         #minimize { 1@1,I : take(I) }.\n",
    ),
    (
        "even-loop-negation",
        "a :- not b. b :- not a. c :- a. c :- b. :- not c.\n",
    ),
    (
        "positive-loop-external-support",
        "{ p }. a :- p. a :- b. b :- a. :- not a. #minimize { 1@1 : p }.\n",
    ),
];

#[test]
fn hardening_programs_agree_with_oracle() {
    let solver = Solver::new();
    for (pname, text) in HARDENING_PROGRAMS {
        let prog = parse_program(text).unwrap_or_else(|e| panic!("{pname}: parse failed: {e}"));
        let gp = ground(&prog).unwrap_or_else(|e| panic!("{pname}: ground failed: {e}"));
        let oracle = reference::solve(&gp, reference::DEFAULT_MAX_FREE_ATOMS)
            .unwrap_or_else(|e| panic!("{pname}: oracle failed: {e:?}"));
        let mut oracle_models: Vec<Vec<String>> = oracle
            .models
            .iter()
            .map(|m| reference::render(&gp, m))
            .collect();
        oracle_models.sort();
        let oracle_best = oracle.best_cost().map(|c| c.to_vec());

        // Exact model-set equality.
        let produced = solver
            .enumerate(&prog, oracle.models.len() + 1)
            .unwrap_or_else(|e| panic!("{pname}: enumerate failed: {e}"));
        let mut produced_rendered: Vec<Vec<String>> = produced.iter().map(|m| m.render()).collect();
        produced_rendered.sort();
        assert_eq!(
            produced_rendered, oracle_models,
            "{pname}: stable-model sets differ"
        );
        for m in &produced {
            let set: FxHashSet<AtomId> = m.true_atoms().collect();
            certify::certify_atoms(m.ground(), &set)
                .unwrap_or_else(|e| panic!("{pname}: certification failed: {e}"));
        }
        // Exact lexicographic optimum.
        match solver.solve(&prog) {
            Err(e) => panic!("{pname}: solve failed: {e}"),
            Ok((SolveOutcome::Unsat, _)) => {
                assert!(oracle_best.is_none(), "{pname}: wrongly UNSAT")
            }
            Ok((SolveOutcome::Optimal(m), _)) => {
                certify::certify_model(&m)
                    .unwrap_or_else(|e| panic!("{pname}: optimum uncertified: {e}"));
                assert_eq!(Some(m.cost.clone()), oracle_best, "{pname}: optima differ");
            }
        }
    }
}

/// Repo cases: [`diff::check_repo_case`] certifies the optimum of the
/// concretizer's program and refutes every cheaper cost, on top of its
/// cross-configuration checks.
#[test]
fn concretizer_optima_are_refuted_below() {
    let cases = env_cases("SOLVER_MATRIX_REPO_CASES", 128);
    let mut refuted_levels = 0;
    for seed in 0..cases {
        let stats = diff::check_repo_case(seed).unwrap_or_else(|e| panic!("{e}"));
        refuted_levels += stats.refuted_levels;
    }
    // Seeds 0..128 give 174 nonzero levels: the refutation must keep
    // having something to refute.
    assert!(
        refuted_levels as u64 >= cases / 2,
        "only {refuted_levels} nonzero optimum levels in {cases} repo cases — generator drift?"
    );
}
