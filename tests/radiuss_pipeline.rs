//! Integration: concretize → cache → splice → install → rewire → verify
//! on a subset of the real RADIUSS stack, plus the paper's correctness
//! claims (RQ1 solution equivalence, RQ2 splice synthesis).

use spackle::core::Goal;
use spackle::prelude::*;
use spackle::radiuss::{farm_artifact, radiuss_repo, with_mpiabi, with_replicas};
use std::sync::OnceLock;

/// Shared fixture: RADIUSS repo + a buildcache of a few roots
/// concretized with mpich (the reference MPI).
struct Fixture {
    repo: Repository,
    repo_mpiabi: Repository,
    cache: std::sync::Arc<dyn CacheSource>,
}

fn fixture() -> &'static Fixture {
    static FX: OnceLock<Fixture> = OnceLock::new();
    FX.get_or_init(|| {
        let repo = radiuss_repo();
        let repo_mpiabi = with_mpiabi(&repo);
        let mut cache = BuildCache::new();
        for (root, goal) in [
            ("hypre", "hypre ^mpich"),
            ("mfem", "mfem ^mpich"),
            ("conduit", "conduit ^mpich"),
            ("py-shroud", "py-shroud"),
        ] {
            let sol = Concretizer::new(&repo)
                .concretize(&parse_spec(goal).unwrap())
                .unwrap_or_else(|e| panic!("fixture {root}: {e}"));
            cache.add_spec_with(sol.spec(), farm_artifact);
        }
        Fixture {
            repo,
            repo_mpiabi,
            cache: std::sync::Arc::new(cache),
        }
    })
}

#[test]
fn rq1_encodings_agree_on_radiuss() {
    let fx = fixture();
    for goal in ["hypre", "mfem", "py-shroud", "conduit ~mpi"] {
        let spec = parse_spec(goal).unwrap();
        let old = Concretizer::new(&fx.repo)
            .with_config(ConcretizerConfig::old_spack())
            .with_reusable(&fx.cache)
            .concretize(&spec)
            .unwrap();
        let new = Concretizer::new(&fx.repo)
            .with_config(ConcretizerConfig::splice_spack_disabled())
            .with_reusable(&fx.cache)
            .concretize(&spec)
            .unwrap();
        assert_eq!(
            old.spec().dag_hash(),
            new.spec().dag_hash(),
            "encodings disagree on {goal}"
        );
        assert_eq!(old.built.len(), new.built.len());
    }
}

#[test]
fn rq2_splice_end_to_end_with_install() {
    let fx = fixture();
    // Request mfem with the ABI-compatible mock.
    let sol = Concretizer::new(&fx.repo_mpiabi)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(&fx.cache)
        .concretize(&parse_spec("mfem ^mpiabi").unwrap())
        .unwrap();
    assert!(!sol.spliced.is_empty(), "must synthesize splices");
    assert!(
        sol.built.iter().all(|b| b.as_str() == "mpiabi"),
        "only the mock itself may build, got {:?}",
        sol.built
    );
    let spec = sol.spec();
    assert!(spec.find(Sym::intern("mpiabi")).is_some());
    assert!(spec.find(Sym::intern("mpich")).is_none());

    // Install: spliced parents rewire from cached binaries.
    let mut inst = Installer::new(InstallLayout::new("/opt/spackle-farm/store"));
    let plan = InstallPlan::plan(spec, &*fx.cache);
    let report = inst.install(spec, &*fx.cache, &plan).unwrap();
    assert!(report.rewired >= 1, "report: {report:?}");
    assert_eq!(report.built, 1); // mpiabi
    let problems = inst.verify(spec);
    assert!(problems.is_empty(), "verify: {problems:?}");
}

#[test]
fn splice_provenance_survives_interpretation() {
    let fx = fixture();
    let sol = Concretizer::new(&fx.repo_mpiabi)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(&fx.cache)
        .concretize(&parse_spec("hypre ^mpiabi").unwrap())
        .unwrap();
    let spec = sol.spec();
    let hypre = spec.node(spec.find(Sym::intern("hypre")).unwrap());
    let bs = hypre
        .build_spec
        .as_ref()
        .expect("spliced hypre carries provenance");
    // The build spec matches the cached binary we spliced from.
    assert!(
        fx.cache.get(bs.dag_hash()).unwrap().is_some(),
        "provenance points at a cached build"
    );
    // And the provenance's MPI is mpich, while the runtime MPI is mpiabi.
    assert!(bs.find(Sym::intern("mpich")).is_some());
    assert!(spec.find(Sym::intern("mpich")).is_none());
}

#[test]
fn rq4_replicas_all_valid_choices() {
    let fx = fixture();
    let repo = with_replicas(&fx.repo, 10);
    let mut goal = Goal::single(parse_spec("hypre").unwrap());
    goal.forbidden.push(Sym::intern("mpich"));
    let sol = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(&fx.cache)
        .concretize_goal(&goal)
        .unwrap();
    let spec = &sol.specs[0];
    assert!(spec.find(Sym::intern("mpich")).is_none());
    // Exactly one MPI implementation, and it is one of the replicas or
    // openmpi.
    let impls: Vec<&str> = spec
        .nodes()
        .iter()
        .map(|n| n.name.as_str())
        .filter(|n| n.starts_with("mpiabi") || *n == "openmpi")
        .collect();
    assert_eq!(impls.len(), 1, "impls: {impls:?}");
}

/// Fig 7's axis: the ground program grows linearly in the number of
/// splice candidates. Ten times the replicas may cost at most six times
/// the ground instances; a rule quadratic in the `mpi` providers would
/// cost about thirteen times.
#[test]
fn rq4_ground_size_is_linear_in_replicas() {
    let fx = fixture();
    let ground_size = |replicas: usize| -> usize {
        let repo = with_replicas(&fx.repo, replicas);
        let concretizer = Concretizer::new(&repo)
            .with_config(ConcretizerConfig::splice_spack())
            .with_reusable(&fx.cache);
        ["hypre", "mfem", "conduit"]
            .iter()
            .map(|root| {
                let mut goal = Goal::single(parse_spec(root).unwrap());
                goal.forbidden.push(Sym::intern("mpich"));
                let text = concretizer.program_text(&goal).unwrap().program;
                let program = spackle::asp::parse_program(&text).unwrap();
                let gp = spackle::asp::ground::ground(&program).unwrap();
                gp.rules.len() + gp.choices.len() + gp.constraints.len()
            })
            .sum()
    };
    let (at_10, at_100) = (ground_size(10), ground_size(100));
    assert!(
        at_100 <= 6 * at_10,
        "ground instances grew {at_10} -> {at_100} from 10 to 100 replicas"
    );
}

/// The grounder's work on Fig 7's axis grows with what it emits. Ten
/// times the replicas may cost at most eight times the join candidates
/// (ground instances grow about four times); a join that scans a whole
/// tag bucket for a literal its earlier literals bind completely costs
/// about fourteen times.
#[test]
fn rq4_join_work_is_linear_in_replicas() {
    let fx = fixture();
    let join_candidates = |replicas: usize| -> u64 {
        let repo = with_replicas(&fx.repo, replicas);
        let concretizer = Concretizer::new(&repo)
            .with_config(ConcretizerConfig::splice_spack())
            .with_reusable(&fx.cache);
        ["hypre", "mfem", "conduit"]
            .iter()
            .map(|root| {
                let mut goal = Goal::single(parse_spec(root).unwrap());
                goal.forbidden.push(Sym::intern("mpich"));
                let program = concretizer.program(&goal).unwrap();
                spackle::asp::ground::ground(&program)
                    .unwrap()
                    .join_candidates
            })
            .sum()
    };
    let (at_10, at_100) = (join_candidates(10), join_candidates(100));
    println!("join candidates: {at_10} at 10 replicas, {at_100} at 100");
    assert!(
        at_100 <= 8 * at_10,
        "join candidates grew {at_10} -> {at_100} from 10 to 100 replicas"
    );
}

/// The solver skips the Gelfond–Lifschitz stability check on tight
/// ground programs, and the concretizer's programs are tight: ground
/// recursion follows acyclic package DAGs. Pins that for the encodings
/// of RQ1 (direct and bypassed splicing), RQ3 (`^mpiabi` splices) and
/// RQ4 (replicas with `mpich` forbidden).
#[test]
fn shipped_programs_are_tight() {
    let fx = fixture();
    let replicas = with_replicas(&fx.repo, 10);
    let rq1 = ["hypre", "mfem", "py-shroud", "conduit ~mpi"];
    let cases = [
        (&fx.repo, ConcretizerConfig::old_spack(), &rq1[..], false),
        (
            &fx.repo,
            ConcretizerConfig::splice_spack_disabled(),
            &rq1[..],
            false,
        ),
        (
            &fx.repo_mpiabi,
            ConcretizerConfig::splice_spack(),
            &["hypre ^mpiabi", "mfem ^mpiabi"][..],
            false,
        ),
        (
            &replicas,
            ConcretizerConfig::splice_spack(),
            &["hypre", "mfem", "conduit"][..],
            true,
        ),
    ];
    for (repo, config, specs, forbid_mpich) in cases {
        let concretizer = Concretizer::new(repo)
            .with_config(config)
            .with_reusable(&fx.cache);
        for spec in specs {
            let mut goal = Goal::single(parse_spec(spec).unwrap());
            if forbid_mpich {
                goal.forbidden.push(Sym::intern("mpich"));
            }
            let text = concretizer.program_text(&goal).unwrap().program;
            let program = spackle::asp::parse_program(&text).unwrap();
            let gp = spackle::asp::ground::ground(&program).unwrap();
            assert!(
                spackle::asp::stability::is_tight(&gp),
                "the ground program for {spec:?} (mpich forbidden: {forbid_mpich}) has a \
                 positive loop, which puts the Gelfond–Lifschitz stability check back on \
                 every SAT model"
            );
        }
    }
}

#[test]
fn joint_concretization_of_mpi_subset() {
    let fx = fixture();
    let goal = Goal {
        roots: vec![
            parse_spec("hypre ^mpiabi").unwrap(),
            parse_spec("mfem ^mpiabi").unwrap(),
        ],
        forbidden: vec![],
    };
    let sol = Concretizer::new(&fx.repo_mpiabi)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(&fx.cache)
        .concretize_goal(&goal)
        .unwrap();
    assert_eq!(sol.specs.len(), 2);
    // Both share the same mpiabi node.
    let h1 = sol.specs[0]
        .node(sol.specs[0].find(Sym::intern("mpiabi")).unwrap())
        .hash;
    let h2 = sol.specs[1]
        .node(sol.specs[1].find(Sym::intern("mpiabi")).unwrap())
        .hash;
    assert_eq!(h1, h2);
}

/// The ground program and the search over it, pinned on real programs:
/// the sizes the grounder emits, the CNF variable count and the CDCL
/// counters follow from the atom numbering, the rule order, the clause
/// order and the decision polarities, so any change to those moves a
/// number here. The DAG hash pins the answer and the cost vector its
/// optimum: a search change may move the hash only to another model of
/// the same cost, which debug builds certify as they solve.
#[test]
fn pinned_ground_and_search_counts() {
    let fx = fixture();
    let replicas = with_replicas(&fx.repo, 10);
    // ground atoms, rules, choices, constraints; SAT variables,
    // conflicts, decisions, propagations, optimization probes.
    let cases = [
        (
            &fx.repo,
            ConcretizerConfig::splice_spack_disabled(),
            "hypre",
            false,
            [362, 355, 66, 16, 312, 1, 69, 1070, 1],
            "fp2o27kriqmeenxxo6ukix3dg6rzbbgsinbbzy2bnauawgew7yeq",
            &[0, 0, 0, 0, 0, 0, 0, 0][..],
        ),
        (
            &fx.repo_mpiabi,
            ConcretizerConfig::splice_spack(),
            "mfem ^mpiabi",
            false,
            [474, 486, 82, 23, 435, 1, 61, 1037, 2],
            "evnpyxtitxh3rsenqqp4yo5llgisjjyb35vkmf3ezj6f2t7ogkoq",
            &[0, 0, 0, 100, 2, 0, 0, 0, 0][..],
        ),
        (
            &replicas,
            ConcretizerConfig::splice_spack(),
            "hypre",
            true,
            [525, 517, 107, 47, 555, 4, 141, 2397, 2],
            "pn4kacni7vzrvs3g45hrl7m22axd4jxqotpvkr7r5ko6fabphwnq",
            &[0, 0, 0, 100, 1, 0, 0, 0, 0][..],
        ),
    ];
    for (repo, config, spec, forbid_mpich, counts, hash, cost) in cases {
        let mut goal = Goal::single(parse_spec(spec).unwrap());
        if forbid_mpich {
            goal.forbidden.push(Sym::intern("mpich"));
        }
        let sol = Concretizer::new(repo)
            .with_config(config)
            .with_reusable(&fx.cache)
            .concretize_goal(&goal)
            .unwrap();
        let s = &sol.stats.solver;
        let got = [
            s.ground_atoms as u64,
            s.ground_rules as u64,
            s.ground_choices as u64,
            s.ground_constraints as u64,
            s.sat_vars as u64,
            s.conflicts,
            s.decisions,
            s.propagations,
            s.optimize_probes,
        ];
        assert_eq!(got, counts, "{spec:?} (mpich forbidden: {forbid_mpich})");
        assert_eq!(
            sol.specs[0].dag_hash().to_string(),
            hash,
            "{spec:?} (mpich forbidden: {forbid_mpich})"
        );
        let costs: Vec<i64> = sol.cost.iter().map(|&(_, c)| c).collect();
        assert_eq!(costs, cost, "{spec:?} (mpich forbidden: {forbid_mpich})");
    }
}
