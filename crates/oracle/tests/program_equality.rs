//! The concretizer grounds a program it assembles from data: the
//! encoder's facts as atoms, then the parsed directive rules and logic
//! fragments. Its rendered text must parse back to that program, rule
//! for rule and minimize element for minimize element, or explanations,
//! audits of the text and every checker reading the text would be
//! looking at a different program than the solver.
//!
//! The goal sets are the benchmark's three cold workloads: the 32
//! RADIUSS roots under `splice_spack_disabled` and the 15 MPI roots
//! `^mpiabi` under `splice_spack`, both over the local cache merged
//! with a 1000-DAG public cache, and the 15 MPI roots with `mpich`
//! forbidden over 100 `mpiabi` replicas and the local `mpich` builds.

use spackle_asp::program::Head;
use spackle_asp::{parse_program, Program};
use spackle_buildcache::{BuildCache, CacheSource};
use spackle_core::{Concretizer, ConcretizerConfig, Goal};
use spackle_oracle::program_mismatch;
use spackle_radiuss::cachegen::concretize_roots_parallel;
use spackle_radiuss::{ExperimentEnv, RADIUSS_ROOTS};
use spackle_repo::Repository;
use spackle_spec::{parse_spec, Sym};
use std::sync::Arc;

/// Facts of `program` whose predicate is `pred`.
fn facts_of(program: &Program, pred: &str) -> usize {
    program
        .rules
        .iter()
        .filter(|r| {
            r.body.is_empty() && matches!(&r.head, Head::Atom(a) if a.pred.as_str() == pred)
        })
        .count()
}

/// Require every goal's assembled program to equal the parse of its
/// text; returns the reusable-spec facts seen, so a run over an empty
/// fact base cannot pass unnoticed.
fn assert_text_parses_to_program(
    repo: &Repository,
    config: ConcretizerConfig,
    cache: &BuildCache,
    goals: &[Goal],
) -> usize {
    let source: Arc<dyn CacheSource> = Arc::new(cache.clone());
    let conc = Concretizer::new(repo)
        .with_config(config)
        .with_reusable(&source);
    let mut installed = 0;
    for goal in goals {
        let assembled = conc
            .program(goal)
            .unwrap_or_else(|e| panic!("{goal:?}: {e}"));
        let text = conc.program_text(goal).unwrap().program;
        let parsed = parse_program(&text).unwrap_or_else(|e| panic!("{goal:?}: {e}"));
        if let Some(m) = program_mismatch(&assembled, &parsed) {
            panic!("{goal:?}: {m}");
        }
        installed += facts_of(&assembled, "installed_hash");
    }
    installed
}

fn goals(specs: impl IntoIterator<Item = String>, forbidden: &[&str]) -> Vec<Goal> {
    specs
        .into_iter()
        .map(|s| Goal {
            roots: vec![parse_spec(&s).unwrap()],
            forbidden: forbidden.iter().map(|f| Sym::intern(f)).collect(),
        })
        .collect()
}

#[test]
fn assembled_programs_equal_their_text_on_the_cold_workloads() {
    let env = ExperimentEnv::setup(1000, 42);
    let roots = goals(env.roots.iter().map(|r| r.as_str().to_string()), &[]);
    let mpi_roots = || env.mpi_roots.iter().map(|r| r.as_str().to_string());
    let spliced = goals(mpi_roots().map(|r| format!("{r} ^mpiabi")), &[]);
    let no_mpich = goals(mpi_roots(), &["mpich"]);
    assert_eq!((roots.len(), spliced.len(), no_mpich.len()), (32, 15, 15));

    let mut mpich_builds = BuildCache::new();
    for spec in concretize_roots_parallel(&env.repo_plain, &RADIUSS_ROOTS) {
        mpich_builds.add_spec(&spec);
    }

    let installed = [
        assert_text_parses_to_program(
            &env.repo_plain,
            ConcretizerConfig::splice_spack_disabled(),
            &env.public,
            &roots,
        ),
        assert_text_parses_to_program(
            &env.repo_mpiabi,
            ConcretizerConfig::splice_spack(),
            &env.public,
            &spliced,
        ),
        assert_text_parses_to_program(
            &env.repo_with_replicas(100),
            ConcretizerConfig::splice_spack(),
            &mpich_builds,
            &no_mpich,
        ),
    ];
    assert!(
        installed.iter().all(|&n| n > 0),
        "every workload encodes reusable specs: {installed:?}"
    );
}
