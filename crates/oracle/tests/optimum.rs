//! Optimality on real concretizer programs, far beyond the brute-force
//! oracle's reach: every answer on the benchmark's two cold goal sets is
//! certified ([`certify_model`]) and every cheaper cost refuted
//! ([`refute_improvement`]), so each optimum is proved rather than
//! compared with a second search.
//!
//! The goal sets are `rq1-public`'s (the 32 RADIUSS roots under
//! `splice_spack_disabled`) and `splice-public`'s (the 15 MPI roots
//! `^mpiabi` under `splice_spack`), each over the local cache and over a
//! 1000-DAG public cache merged with it. The check refutes the
//! concretizer's own answer: each goal's program
//! ([`Concretizer::program`]) is solved directly, and that model must
//! have the concretizer's cost and interpret to its DAG hashes before
//! it is refuted below.

use spackle_asp::{certify_model, SolveOutcome, Solver};
use spackle_buildcache::{BuildCache, CacheSource};
use spackle_core::interpret::interpret;
use spackle_core::{Concretizer, ConcretizerConfig, Goal};
use spackle_oracle::refute_improvement;
use spackle_radiuss::ExperimentEnv;
use spackle_repo::Repository;
use spackle_spec::{parse_spec, ConcreteSpec, SpecHash};
use std::sync::Arc;

fn hashes(specs: &[ConcreteSpec]) -> Vec<SpecHash> {
    specs.iter().map(ConcreteSpec::dag_hash).collect()
}

/// Concretize each goal over `cache`, prove its optimum, and require a
/// claim one unit worse at any nonzero level to fail. Returns the number
/// of nonzero levels refuted.
fn prove_optima(
    repo: &Repository,
    config: ConcretizerConfig,
    cache: &BuildCache,
    goals: &[String],
) -> usize {
    let source: Arc<dyn CacheSource> = Arc::new(cache.clone());
    let solver = Solver::with_config(config.solver.clone());
    let conc = Concretizer::new(repo)
        .with_config(config)
        .with_reusable(&source);
    let mut refuted = 0;
    for text in goals {
        let goal = Goal::single(parse_spec(text).unwrap());
        let sol = conc
            .concretize_goal(&goal)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let program = conc.program(&goal).unwrap();
        let SolveOutcome::Optimal(model) = solver.solve(&program).unwrap().0 else {
            panic!("{text}: the direct solve found no model");
        };
        assert_eq!(model.cost, sol.cost, "{text}: the direct solve's cost");
        let root = repo.lookup(goal.roots[0].name.unwrap()).unwrap().name;
        let direct = interpret(&model, std::slice::from_ref(&source), &[root])
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(
            hashes(&direct.specs),
            hashes(&sol.specs),
            "{text}: the directly solved model is not the answer"
        );
        certify_model(&model).unwrap_or_else(|e| panic!("{text}: {e}"));
        refuted += refute_improvement(model.ground(), &model.cost)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        for level in (0..model.cost.len()).filter(|&l| model.cost[l].1 != 0) {
            let mut worse = model.cost.clone();
            worse[level].1 += 1;
            assert!(
                refute_improvement(model.ground(), &worse).is_err(),
                "{text}: the worse claim {worse:?} was not rejected"
            );
        }
    }
    refuted
}

#[test]
fn real_workload_optima_are_refuted_below() {
    let env = ExperimentEnv::setup(1000, 42);
    let roots: Vec<String> = env.roots.iter().map(|r| r.as_str().to_string()).collect();
    let mpi_goals: Vec<String> = env
        .mpi_roots
        .iter()
        .map(|r| format!("{} ^mpiabi", r.as_str()))
        .collect();
    assert_eq!((roots.len(), mpi_goals.len()), (32, 15));
    for cache in [&env.local, &env.public] {
        let no_splice = prove_optima(
            &env.repo_plain,
            ConcretizerConfig::splice_spack_disabled(),
            cache,
            &roots,
        );
        let splice = prove_optima(
            &env.repo_mpiabi,
            ConcretizerConfig::splice_spack(),
            cache,
            &mpi_goals,
        );
        // The no-splice optima cost zero at every level. The splice
        // goals pay for their splices (30 nonzero levels over the local
        // cache, 38 over the public one), so the refutation cannot pass
        // by having nothing to refute.
        assert!(
            splice >= mpi_goals.len(),
            "{splice} nonzero levels across {} splice goals (no-splice: {no_splice})",
            mpi_goals.len()
        );
    }
}
