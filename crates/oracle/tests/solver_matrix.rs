//! The solver-config differential matrix: the modern engine
//! (incremental branch-and-bound) and the seed engine (from-scratch
//! branch-and-bound) must be *indistinguishable* in outcomes —
//! identical satisfiability, identical stable-model sets, identical
//! lexicographic optima.
//!
//! Three corpora drive the check:
//!
//! * the 512-case random suite (384 program-case seeds checked against
//!   the brute-force oracle + 128 repo-case seeds cross-checked between
//!   configurations at the concretizer level), with fixed seeds so
//!   failures replay without `PROPTEST_SEED` plumbing;
//! * the committed fuzz seed corpus (`corpus/seeds.txt`);
//! * the hand-written hardening programs (recursive joins, bounded
//!   choices, negation + comparisons, multi-priority minimization).
//!
//! Set `SOLVER_MATRIX_PROGRAM_CASES` / `SOLVER_MATRIX_REPO_CASES` to
//! shrink or grow the random portion (CI runs the full 384 + 128).

use proptest::TestRng;
use rustc_hash::FxHashSet;
use spackle_asp::certify;
use spackle_asp::ground::ground;
use spackle_asp::term::AtomId;
use spackle_asp::{parse_program, SolveOutcome, Solver, SolverConfig};
use spackle_core::{Concretizer, ConcretizerConfig, CoreError, Goal};
use spackle_oracle::genrepo::random_repo_and_spec;
use spackle_oracle::{diff, reference};

/// The configuration grid: the modern engine and the seed engine,
/// which differ in branch-and-bound only.
fn matrix() -> Vec<(&'static str, SolverConfig)> {
    vec![
        ("modern", SolverConfig::default()),
        ("seed", SolverConfig::seed_engine()),
    ]
}

fn env_cases(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn random_programs_agree_with_oracle_under_every_config() {
    let cases = env_cases("SOLVER_MATRIX_PROGRAM_CASES", 384);
    let configs = matrix();
    assert_eq!(
        configs.len(),
        2,
        "acceptance requires the modern and seed engines"
    );
    let mut checked = 0u64;
    for seed in 0..cases {
        for (name, config) in &configs {
            if let Err(msg) = diff::check_program_case_with(seed, config) {
                panic!("config {name}: {msg}");
            }
        }
        checked += 1;
    }
    assert_eq!(checked, cases);
}

#[test]
fn corpus_seeds_agree_with_oracle_under_every_config() {
    let corpus = include_str!("../corpus/seeds.txt");
    let configs = matrix();
    let mut ran = 0;
    for line in corpus.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let seed: u64 = match line.strip_prefix("program:") {
            Some(s) => s.trim().parse().unwrap(),
            None => match line.strip_prefix("repo:") {
                Some(_) => continue,
                None => line.parse().unwrap(),
            },
        };
        for (name, config) in &configs {
            diff::check_program_case_with(seed, config)
                .unwrap_or_else(|e| panic!("config {name}, corpus seed {seed}: {e}"));
        }
        ran += 1;
    }
    assert!(ran >= 4, "corpus unexpectedly small ({ran} program cases)");
}

/// Hand-written hardening programs covering the constructs with the
/// trickiest emission order, checked against the brute-force oracle
/// under every config: exact model sets and exact lexicographic optima.
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
fn hardening_programs_agree_with_oracle_under_every_config() {
    let configs = matrix();
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

        for (cname, config) in &configs {
            let solver = Solver::with_config(config.clone());
            // Exact model-set equality.
            let produced = solver
                .enumerate(&prog, oracle.models.len() + 1)
                .unwrap_or_else(|e| panic!("{pname}/{cname}: enumerate failed: {e}"));
            let mut produced_rendered: Vec<Vec<String>> =
                produced.iter().map(|m| m.render()).collect();
            produced_rendered.sort();
            assert_eq!(
                produced_rendered, oracle_models,
                "{pname}/{cname}: stable-model sets differ"
            );
            for m in &produced {
                let set: FxHashSet<AtomId> = m.true_atoms().collect();
                certify::certify_atoms(m.ground(), &set)
                    .unwrap_or_else(|e| panic!("{pname}/{cname}: certification failed: {e}"));
            }
            // Exact lexicographic optimum.
            match solver.solve(&prog) {
                Err(e) => panic!("{pname}/{cname}: solve failed: {e}"),
                Ok((SolveOutcome::Unsat, _)) => {
                    assert!(oracle_best.is_none(), "{pname}/{cname}: wrongly UNSAT")
                }
                Ok((SolveOutcome::Optimal(m), _)) => {
                    certify::certify_model(&m)
                        .unwrap_or_else(|e| panic!("{pname}/{cname}: optimum uncertified: {e}"));
                    assert_eq!(
                        Some(m.cost.clone()),
                        oracle_best,
                        "{pname}/{cname}: optima differ"
                    );
                }
            }
        }
    }
}

/// Repo cases: the concretizer must return the *same solution* under
/// every engine configuration — same satisfiability, same resolved
/// versions, same DAG hashes, same splice count.
#[test]
fn concretizer_optima_identical_under_every_config() {
    let cases = env_cases("SOLVER_MATRIX_REPO_CASES", 128);
    let configs = matrix();
    let mut solved = 0u64;
    for seed in 0..cases {
        let mut rng = TestRng::seed_from_u64(seed);
        let (repo, spec) = random_repo_and_spec(&mut rng);
        let goal = Goal::single(spec.clone());

        // The engine contract across configurations is identical
        // satisfiability and identical lexicographic optima. Co-optimal
        // models (cost ties) may legitimately differ between configs —
        // the solver breaks ties by search order — so the comparison is
        // on the cost vector, never on DAG hashes or chosen versions.
        // None = UNSAT.
        let mut reference_outcome: Option<Option<Vec<(i64, i64)>>> = None;
        for (cname, solver_config) in &configs {
            let config = ConcretizerConfig {
                solver: solver_config.clone(),
                ..Default::default()
            };
            let outcome = match Concretizer::new(&repo)
                .with_config(config)
                .concretize_goal(&goal)
            {
                Ok(sol) => Some(sol.cost),
                Err(CoreError::Unsatisfiable) => None,
                Err(e) => panic!("[repo seed {seed}] config {cname}: {e}\ngoal: {spec}"),
            };
            match &reference_outcome {
                None => reference_outcome = Some(outcome),
                Some(want) => assert_eq!(
                    want, &outcome,
                    "[repo seed {seed}] config {cname} diverges from {}\ngoal: {spec}",
                    configs[0].0
                ),
            }
        }
        if matches!(reference_outcome, Some(Some(_))) {
            solved += 1;
        }
    }
    assert!(
        solved >= cases / 4,
        "too few satisfiable repo cases ({solved}/{cases}) — generator drift?"
    );
}
