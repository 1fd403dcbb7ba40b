//! End-to-end concretizer tests: plain resolution, conditional
//! dependencies, virtuals, reuse, the old/new encoding equivalence
//! (RQ1), and automatic splice synthesis (RQ2).

use spackle_buildcache::BuildCache;
use spackle_core::{Concretizer, ConcretizerConfig, CoreError, Goal};
use spackle_repo::{PackageBuilder, Repository};
use spackle_spec::{parse_spec, Sym, Version};

fn v(s: &str) -> Version {
    Version::parse(s).unwrap()
}

/// zlib, bzip2, mpich/openmpi/mpiabi (mpi providers), hdf5, example
/// (the Fig 1 package), app (MPI consumer), and py-shroud (no MPI).
fn test_repo() -> Repository {
    let zlib = PackageBuilder::new("zlib")
        .version("1.3")
        .version("1.2.11")
        .variant_bool("optimize", true)
        .build()
        .unwrap();
    let bzip2 = PackageBuilder::new("bzip2")
        .version("1.0.8")
        .build()
        .unwrap();
    let mpich = PackageBuilder::new("mpich")
        .version("3.4.3")
        .version("3.1")
        .provides("mpi")
        .build()
        .unwrap();
    let openmpi = PackageBuilder::new("openmpi")
        .version("4.1.5")
        .provides("mpi")
        .build()
        .unwrap();
    let mpiabi = PackageBuilder::new("mpiabi")
        .version("1.0")
        .provides("mpi")
        .can_splice("mpich@3.4.3", "")
        .build()
        .unwrap();
    let hdf5 = PackageBuilder::new("hdf5")
        .version("1.14.5")
        .version("1.12.0")
        .variant_bool("mpi", true)
        .depends_on("zlib")
        .depends_on_when("mpi", "+mpi")
        .build()
        .unwrap();
    let example = PackageBuilder::new("example")
        .version("1.1.0")
        .version("1.0.0")
        .variant_bool("bzip", true)
        .depends_on_when("bzip2", "+bzip")
        .depends_on_when("zlib@1.2", "@1.0.0")
        .depends_on_when("zlib@1.3", "@1.1.0")
        .depends_on("mpi")
        .build()
        .unwrap();
    let app = PackageBuilder::new("app")
        .version("2.0")
        .depends_on("hdf5")
        .depends_on("mpi")
        .build()
        .unwrap();
    let pyshroud = PackageBuilder::new("py-shroud")
        .version("0.13.0")
        .depends_on("zlib")
        .build()
        .unwrap();
    let r = Repository::from_packages([
        zlib, bzip2, mpich, openmpi, mpiabi, hdf5, example, app, pyshroud,
    ])
    .unwrap();
    r.validate().unwrap();
    r
}

#[test]
fn concretize_simple_build() {
    let repo = test_repo();
    let c = Concretizer::new(&repo);
    let sol = c.concretize(&parse_spec("py-shroud").unwrap()).unwrap();
    let spec = sol.spec();
    assert_eq!(spec.root().name.as_str(), "py-shroud");
    assert_eq!(spec.root().version, v("0.13.0"));
    // zlib present at its newest version, default variant on.
    let z = spec.find(Sym::intern("zlib")).unwrap();
    assert_eq!(spec.node(z).version, v("1.3"));
    assert_eq!(sol.built.len(), 2);
    assert!(sol.reused.is_empty());
    assert!(sol.spliced.is_empty());
}

#[test]
fn conditional_deps_follow_version() {
    let repo = test_repo();
    let c = Concretizer::new(&repo);

    // example@1.1.0 (default/newest) depends on zlib@1.3.
    let sol = c.concretize(&parse_spec("example").unwrap()).unwrap();
    let spec = sol.spec();
    assert_eq!(spec.root().version, v("1.1.0"));
    let z = spec.find(Sym::intern("zlib")).unwrap();
    assert_eq!(spec.node(z).version, v("1.3"));
    // +bzip default pulls bzip2 in.
    assert!(spec.find(Sym::intern("bzip2")).is_some());

    // example@1.0.0 flips the zlib constraint to 1.2.x.
    let sol = c.concretize(&parse_spec("example@1.0.0").unwrap()).unwrap();
    let spec = sol.spec();
    assert_eq!(spec.root().version, v("1.0.0"));
    let z = spec.find(Sym::intern("zlib")).unwrap();
    assert_eq!(spec.node(z).version, v("1.2.11"));

    // ~bzip drops bzip2.
    let sol = c.concretize(&parse_spec("example~bzip").unwrap()).unwrap();
    assert!(sol.spec().find(Sym::intern("bzip2")).is_none());
}

#[test]
fn virtual_resolution_prefers_first_provider() {
    let repo = test_repo();
    let c = Concretizer::new(&repo);
    let sol = c.concretize(&parse_spec("app").unwrap()).unwrap();
    let spec = sol.spec();
    // mpich is declared before openmpi/mpiabi in the repository (BTree
    // order: mpiabi < mpich < openmpi; provider order is declaration
    // order per package, weight by provides index). The chosen provider
    // must provide mpi and be unique.
    let provs: Vec<&str> = ["mpich", "openmpi", "mpiabi"]
        .iter()
        .copied()
        .filter(|p| spec.find(Sym::intern(p)).is_some())
        .collect();
    assert_eq!(provs.len(), 1, "exactly one MPI implementation: {provs:?}");
    // hdf5's +mpi default means mpi is needed.
    assert!(spec.find(Sym::intern("hdf5")).is_some());
}

#[test]
fn goal_variant_and_version_constraints() {
    let repo = test_repo();
    let c = Concretizer::new(&repo);
    let sol = c
        .concretize(&parse_spec("hdf5@1.12.0 ~mpi ^zlib@1.2").unwrap())
        .unwrap();
    let spec = sol.spec();
    assert_eq!(spec.root().version, v("1.12.0"));
    let z = spec.find(Sym::intern("zlib")).unwrap();
    assert_eq!(spec.node(z).version, v("1.2.11"));
    // ~mpi: no MPI implementation in the DAG.
    assert!(spec.find(Sym::intern("mpich")).is_none());
    assert!(spec.find(Sym::intern("openmpi")).is_none());
}

#[test]
fn unsatisfiable_goal_reports_unsat() {
    let repo = test_repo();
    let c = Concretizer::new(&repo);
    let err = c.concretize(&parse_spec("zlib@9.9").unwrap()).unwrap_err();
    assert!(matches!(err, CoreError::Unsatisfiable), "{err}");
}

#[test]
fn unknown_package_is_bad_goal() {
    let repo = test_repo();
    let c = Concretizer::new(&repo);
    let err = c.concretize(&parse_spec("ghost").unwrap()).unwrap_err();
    assert!(matches!(err, CoreError::BadGoal(_)));
}

#[test]
fn ambiguous_virtual_root_lists_all_providers() {
    let repo = test_repo();
    let err = Concretizer::new(&repo)
        .concretize(&parse_spec("mpi").unwrap())
        .unwrap_err();
    match err {
        CoreError::BadGoal(msg) => {
            assert!(msg.contains("mpich"), "missing first provider: {msg}");
            assert!(msg.contains("openmpi"), "missing second provider: {msg}");
        }
        other => panic!("expected BadGoal, got {other:?}"),
    }
}

#[test]
fn sole_provider_virtual_root_resolves() {
    let repo = Repository::from_packages([PackageBuilder::new("mpich")
        .version("3.4.3")
        .provides("mpi")
        .build()
        .unwrap()])
    .unwrap();
    let sol = Concretizer::new(&repo)
        .concretize(&parse_spec("mpi@3.4.3").unwrap())
        .unwrap();
    assert_eq!(sol.spec().root().name.as_str(), "mpich");
}

/// Build a cache from a fresh concretization of `spec_str`.
fn cache_of(repo: &Repository, spec_str: &str) -> BuildCache {
    let c = Concretizer::new(repo);
    let sol = c.concretize(&parse_spec(spec_str).unwrap()).unwrap();
    let mut cache = BuildCache::new();
    cache.add_spec(sol.spec());
    cache
}

#[test]
fn full_reuse_zero_builds() {
    let repo = test_repo();
    let cache = cache_of(&repo, "py-shroud");
    let c = Concretizer::new(&repo).with_reusable(cache.clone());
    let sol = c.concretize(&parse_spec("py-shroud").unwrap()).unwrap();
    assert_eq!(sol.built.len(), 0, "built: {:?}", sol.built);
    assert_eq!(sol.reused.len(), 2);
    // The reused spec is hash-identical to the cached one.
    assert!(cache.get(sol.spec().dag_hash()).is_some());
}

#[test]
fn partial_reuse_of_shared_deps() {
    let repo = test_repo();
    let cache = cache_of(&repo, "py-shroud"); // contains zlib@1.3
    let c = Concretizer::new(&repo).with_reusable(cache.clone());
    let sol = c.concretize(&parse_spec("hdf5~mpi").unwrap()).unwrap();
    // zlib reused from cache; hdf5 built.
    assert!(sol.reused.iter().any(|s| s.as_str() == "zlib"));
    assert!(sol.built.iter().any(|s| s.as_str() == "hdf5"));
}

#[test]
fn rq1_old_and_new_encodings_agree_without_splicing() {
    let repo = test_repo();
    let cache = cache_of(&repo, "example");
    for goal in ["example", "example@1.0.0", "hdf5~mpi", "py-shroud", "app"] {
        let old = Concretizer::new(&repo)
            .with_config(ConcretizerConfig::old_spack())
            .with_reusable(cache.clone())
            .concretize(&parse_spec(goal).unwrap())
            .unwrap();
        let new = Concretizer::new(&repo)
            .with_config(ConcretizerConfig::splice_spack_disabled())
            .with_reusable(cache.clone())
            .concretize(&parse_spec(goal).unwrap())
            .unwrap();
        assert_eq!(
            old.spec().dag_hash(),
            new.spec().dag_hash(),
            "encodings disagree on {goal}: old={} new={}",
            old.spec(),
            new.spec()
        );
        assert_eq!(old.built.len(), new.built.len(), "build counts for {goal}");
        assert!(new.spliced.is_empty());
    }
}

#[test]
fn rq2_splice_synthesized_when_needed() {
    let repo = test_repo();
    // The buildcache holds app ^hdf5 ^mpich (the reference MPI).
    let cache = cache_of(&repo, "app ^mpich");

    // Old spack, asked for app with mpiabi: must rebuild the MPI
    // dependents (app, hdf5) because mpich binaries can't be mixed out.
    let old = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::old_spack())
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app ^mpiabi").unwrap())
        .unwrap();
    assert!(
        old.built.iter().any(|s| s.as_str() == "app"),
        "old spack must rebuild app: built={:?}",
        old.built
    );
    assert!(old.spliced.is_empty());

    // Splice spack: reuses the cached app and splices mpiabi in for
    // mpich. Only mpiabi itself may need building.
    let new = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app ^mpiabi").unwrap())
        .unwrap();
    assert!(
        !new.spliced.is_empty(),
        "splice spack must produce a spliced solution"
    );
    assert!(
        new.built.len() < old.built.len(),
        "splicing must save rebuilds: old={:?} new={:?}",
        old.built,
        new.built
    );
    let spec = new.specs[0].clone();
    assert!(spec.find(Sym::intern("mpiabi")).is_some());
    assert!(spec.find(Sym::intern("mpich")).is_none());
    // Build provenance: the spliced parents carry build specs.
    assert!(
        spec.nodes().iter().any(|n| n.is_spliced()),
        "spliced solution must record provenance"
    );
}

#[test]
fn splicing_disabled_behaves_like_old_spack() {
    let repo = test_repo();
    let cache = cache_of(&repo, "app ^mpich");
    let disabled = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack_disabled())
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app ^mpiabi").unwrap())
        .unwrap();
    assert!(disabled.spliced.is_empty());
    assert!(disabled.built.iter().any(|s| s.as_str() == "app"));
}

#[test]
fn forbidden_package_forces_alternative() {
    let repo = test_repo();
    let cache = cache_of(&repo, "app ^mpich");
    let mut goal = Goal::single(parse_spec("app").unwrap());
    goal.forbidden.push(Sym::intern("mpich"));
    let sol = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(cache.clone())
        .concretize_goal(&goal)
        .unwrap();
    let spec = &sol.specs[0];
    assert!(spec.find(Sym::intern("mpich")).is_none());
    // Some other MPI provider took its place.
    assert!(
        spec.find(Sym::intern("mpiabi")).is_some()
            || spec.find(Sym::intern("openmpi")).is_some()
    );
}

#[test]
fn joint_concretization_shares_nodes() {
    let repo = test_repo();
    let goal = Goal {
        roots: vec![
            parse_spec("py-shroud").unwrap(),
            parse_spec("hdf5~mpi").unwrap(),
        ],
        forbidden: vec![],
    };
    let sol = Concretizer::new(&repo).concretize_goal(&goal).unwrap();
    assert_eq!(sol.specs.len(), 2);
    // Shared zlib is the same configuration in both DAGs.
    let z1 = sol.specs[0].find(Sym::intern("zlib")).unwrap();
    let z2 = sol.specs[1].find(Sym::intern("zlib")).unwrap();
    assert_eq!(
        sol.specs[0].node(z1).hash,
        sol.specs[1].node(z2).hash
    );
}

#[test]
fn non_mpi_package_unaffected_by_splice_config() {
    let repo = test_repo();
    let cache = cache_of(&repo, "py-shroud");
    let with_splice = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(cache.clone())
        .concretize(&parse_spec("py-shroud").unwrap())
        .unwrap();
    assert!(with_splice.spliced.is_empty());
    assert_eq!(with_splice.built.len(), 0);
}

#[test]
fn stats_populated() {
    let repo = test_repo();
    let c = Concretizer::new(&repo);
    let sol = c.concretize(&parse_spec("app").unwrap()).unwrap();
    assert!(sol.stats.solver.ground_rules > 0);
    assert!(sol.stats.total_time.as_nanos() > 0);
}
