//! Advanced concretizer scenarios: microarchitecture compatibility,
//! conflicts, conditional provides, deep splice chains, constrained
//! `can_splice` targets (the Fig 1 `example`/`example-ng` case), and
//! cache filtering.

use spackle_buildcache::BuildCache;
use spackle_core::{Concretizer, ConcretizerConfig, CoreError, Encoding};
use spackle_repo::{PackageBuilder, Repository};
use spackle_spec::{parse_spec, Os, Sym, Target, Version};

fn v(s: &str) -> Version {
    Version::parse(s).unwrap()
}

// ---------------------------------------------------------------------
// Target / microarchitecture behavior
// ---------------------------------------------------------------------

fn tiny_repo() -> Repository {
    Repository::from_packages([
        PackageBuilder::new("zlib").version("1.3").build().unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("zlib")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn config_on(target: &str) -> ConcretizerConfig {
    ConcretizerConfig {
        target: Target::new(target),
        ..ConcretizerConfig::splice_spack_disabled()
    }
}

#[test]
fn generic_binaries_reused_on_newer_microarch() {
    let repo = tiny_repo();
    // Cache built on a generic x86_64 machine.
    let farm = Concretizer::new(&repo)
        .with_config(config_on("x86_64"))
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let mut cache = BuildCache::new();
    cache.add_spec(farm.spec());

    // An icelake machine can run them: full reuse, nodes keep their
    // build target.
    let sol = Concretizer::new(&repo)
        .with_config(config_on("icelake"))
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    assert!(sol.built.is_empty(), "built: {:?}", sol.built);
    assert_eq!(sol.spec().root().target, Target::new("x86_64"));
}

#[test]
fn newer_binaries_not_reused_on_older_microarch() {
    let repo = tiny_repo();
    // Cache built for icelake.
    let farm = Concretizer::new(&repo)
        .with_config(config_on("icelake"))
        .concretize(&parse_spec("app target=icelake").unwrap())
        .unwrap();
    assert_eq!(farm.spec().root().target, Target::new("icelake"));
    let mut cache = BuildCache::new();
    cache.add_spec(farm.spec());

    // A haswell machine cannot execute icelake binaries: rebuild.
    let sol = Concretizer::new(&repo)
        .with_config(config_on("haswell"))
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    assert_eq!(sol.built.len(), 2, "must rebuild: {:?}", sol.reused);
    assert_eq!(sol.spec().root().target, Target::new("haswell"));
}

#[test]
fn cross_family_binaries_rejected() {
    let repo = tiny_repo();
    let farm = Concretizer::new(&repo)
        .with_config(config_on("neoverse_v1"))
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let mut cache = BuildCache::new();
    cache.add_spec(farm.spec());
    let sol = Concretizer::new(&repo)
        .with_config(config_on("skylake"))
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    assert_eq!(sol.built.len(), 2);
}

#[test]
fn requested_target_preferred_for_builds() {
    let repo = tiny_repo();
    let sol = Concretizer::new(&repo)
        .with_config(config_on("icelake"))
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    // With no cache, built nodes get the requested target exactly.
    for n in sol.spec().nodes() {
        assert_eq!(n.target, Target::new("icelake"));
    }
}

#[test]
fn mismatched_os_cache_not_reused() {
    let repo = tiny_repo();
    let farm = Concretizer::new(&repo)
        .with_config(ConcretizerConfig {
            os: Os::new("centos8"),
            ..ConcretizerConfig::splice_spack_disabled()
        })
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let mut cache = BuildCache::new();
    cache.add_spec(farm.spec());
    let sol = Concretizer::new(&repo)
        .with_config(ConcretizerConfig {
            os: Os::new("ubuntu22.04"),
            ..ConcretizerConfig::splice_spack_disabled()
        })
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    assert_eq!(sol.built.len(), 2);
}

// ---------------------------------------------------------------------
// Conflicts and conditional provides
// ---------------------------------------------------------------------

#[test]
fn conflicts_directive_excludes_combination() {
    let zlib = || {
        PackageBuilder::new("zlib")
            .version("2.0")
            .version("1.3")
            .build()
            .unwrap()
    };
    // legacy mode cannot use zlib 2.x
    let app = |dep: &str| {
        PackageBuilder::new("app")
            .version("1.0")
            .variant_bool("legacy", false)
            .depends_on(dep)
            .conflicts_when("^zlib@2:", "+legacy")
            .build()
            .unwrap()
    };
    let direct = Repository::from_packages([zlib(), app("zlib")]).unwrap();
    // app reaches zlib only through mid: both `^` readers, the conflict
    // and the goal's `^zlib@2.0`, close over two link-run edges.
    let mid = PackageBuilder::new("mid")
        .version("1.0")
        .depends_on("zlib")
        .build()
        .unwrap();
    let transitive = Repository::from_packages([zlib(), mid, app("mid")]).unwrap();
    for repo in [direct, transitive] {
        let c = Concretizer::new(&repo);
        // Default (~legacy): newest zlib fine.
        let sol = c.concretize(&parse_spec("app").unwrap()).unwrap();
        let z = sol.spec().find(Sym::intern("zlib")).unwrap();
        assert_eq!(sol.spec().node(z).version, v("2.0"));
        // +legacy: forced down to zlib 1.3.
        let sol = c.concretize(&parse_spec("app+legacy").unwrap()).unwrap();
        let z = sol.spec().find(Sym::intern("zlib")).unwrap();
        assert_eq!(sol.spec().node(z).version, v("1.3"));
        // +legacy with explicit zlib@2 is unsatisfiable.
        let err = c
            .concretize(&parse_spec("app+legacy ^zlib@2.0").unwrap())
            .unwrap_err();
        assert!(matches!(err, CoreError::Unsatisfiable));
    }
}

#[test]
fn conditional_provides_respected() {
    // old-mpi only provides mpi from version 2 on.
    let repo = Repository::from_packages([
        PackageBuilder::new("old-mpi")
            .version("2.0")
            .version("1.0")
            .provides_when("mpi", "@2:")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("mpi")
            .build()
            .unwrap(),
    ])
    .unwrap();
    let sol = Concretizer::new(&repo)
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let m = sol.spec().find(Sym::intern("old-mpi")).unwrap();
    assert_eq!(sol.spec().node(m).version, v("2.0"));

    // Forcing the provider below 2.0 is unsatisfiable.
    let err = Concretizer::new(&repo)
        .concretize(&parse_spec("app ^old-mpi@1.0").unwrap())
        .unwrap_err();
    assert!(matches!(err, CoreError::Unsatisfiable), "{err}");
}

// ---------------------------------------------------------------------
// Splicing depth and constrained targets
// ---------------------------------------------------------------------

fn chain_repo() -> Repository {
    // app -> solver -> mpich ; mpiabi can splice mpich@3.4.3 only.
    Repository::from_packages([
        PackageBuilder::new("mpich")
            .version("3.4.3")
            .version("3.1")
            .provides("mpi")
            .build()
            .unwrap(),
        PackageBuilder::new("mpiabi")
            .version("1.0")
            .provides("mpi")
            .can_splice("mpich@3.4.3", "")
            .build()
            .unwrap(),
        PackageBuilder::new("solver")
            .version("2.0")
            .depends_on("mpi")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("solver")
            .depends_on("mpi")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

#[test]
fn splice_propagates_through_reused_chain() {
    let repo = chain_repo();
    let farm = Concretizer::new(&repo)
        .concretize(&parse_spec("app ^mpich@3.4.3").unwrap())
        .unwrap();
    let mut cache = BuildCache::new();
    cache.add_spec(farm.spec());

    let sol = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app ^mpiabi").unwrap())
        .unwrap();
    // Only mpiabi builds; app AND solver both reused although their MPI
    // changed (solver directly spliced, app transitively).
    assert_eq!(
        sol.built.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
        vec!["mpiabi"]
    );
    let spec = sol.spec();
    let app = spec.node(spec.find(Sym::intern("app")).unwrap());
    let solver = spec.node(spec.find(Sym::intern("solver")).unwrap());
    assert!(app.is_spliced(), "app relinked transitively");
    assert!(solver.is_spliced(), "solver relinked directly");
    // Provenance chains back to the original farm builds.
    assert_eq!(
        app.build_spec.as_ref().unwrap().dag_hash(),
        farm.spec().dag_hash()
    );
}

#[test]
fn can_splice_version_constraint_limits_targets() {
    let repo = chain_repo();
    // Cache built against mpich@3.1 — NOT the declared splice target.
    let farm = Concretizer::new(&repo)
        .concretize(&parse_spec("app ^mpich@3.1").unwrap())
        .unwrap();
    let mut cache = BuildCache::new();
    cache.add_spec(farm.spec());

    let sol = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app ^mpiabi").unwrap())
        .unwrap();
    // No valid splice: mpiabi only replaces mpich@3.4.3. Everything
    // MPI-dependent rebuilds.
    assert!(sol.spliced.is_empty());
    assert!(sol.built.iter().any(|s| s.as_str() == "app"));
    assert!(sol.built.iter().any(|s| s.as_str() == "solver"));
}

#[test]
fn fig1_cross_package_splice_with_when_clause() {
    // example@1.1.0+bzip can splice in for example-ng@2.3.2+compat.
    let repo = Repository::from_packages([
        PackageBuilder::new("example-ng")
            .version("2.3.2")
            .variant_bool("compat", true)
            .build()
            .unwrap(),
        PackageBuilder::new("example")
            .version("1.1.0")
            .version("1.0.0")
            .variant_bool("bzip", true)
            .can_splice("example-ng@2.3.2+compat", "@1.1.0+bzip")
            .build()
            .unwrap(),
        PackageBuilder::new("consumer")
            .version("1.0")
            .depends_on("example-ng")
            .build()
            .unwrap(),
    ])
    .unwrap();
    let farm = Concretizer::new(&repo)
        .concretize(&parse_spec("consumer ^example-ng+compat").unwrap())
        .unwrap();
    let mut cache = BuildCache::new();
    cache.add_spec(farm.spec());

    // Request consumer with example instead; forbidden example-ng forces
    // the splice.
    let mut goal = spackle_core::Goal::single(parse_spec("consumer ^example").unwrap());
    goal.forbidden.push(Sym::intern("example-ng"));
    let sol = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(cache.clone())
        .concretize_goal(&goal)
        .unwrap();
    assert_eq!(sol.spliced.len(), 1);
    assert_eq!(sol.spliced[0].replaced.as_str(), "example-ng");
    assert_eq!(sol.spliced[0].replacement.as_str(), "example");
    let spec = &sol.specs[0];
    let ex = spec.node(spec.find(Sym::intern("example")).unwrap());
    // The when-clause pinned the replacement's configuration.
    assert_eq!(ex.version, v("1.1.0"));
}

#[test]
fn direct_encoding_with_splicing_flag_is_a_config_error() {
    let repo = chain_repo();
    let cfg = ConcretizerConfig {
        encoding: Encoding::Direct,
        splicing: true, // structurally impossible under Direct
        ..ConcretizerConfig::default()
    };
    // The contradiction is rejected loudly instead of silently solving a
    // different problem than the caller asked for...
    let err = Concretizer::new(&repo)
        .with_config(cfg.clone())
        .concretize(&parse_spec("app").unwrap())
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Config(_)),
        "expected CoreError::Config, got {err:?}"
    );
    // ...and the documented repair is explicit: normalize() turns
    // splicing off, after which the solve proceeds splice-free.
    let sol = Concretizer::new(&repo)
        .with_config(cfg.normalize())
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    assert!(sol.spliced.is_empty());
}

// ---------------------------------------------------------------------
// Cache filtering
// ---------------------------------------------------------------------

#[test]
fn irrelevant_cache_entries_filtered_from_encoding() {
    let repo = Repository::from_packages([
        PackageBuilder::new("zlib").version("1.3").build().unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("zlib")
            .build()
            .unwrap(),
        PackageBuilder::new("unrelated")
            .version("9.0")
            .build()
            .unwrap(),
    ])
    .unwrap();
    let c = Concretizer::new(&repo);
    let mut cache = BuildCache::new();
    cache.add_spec(
        c.concretize(&parse_spec("unrelated").unwrap())
            .unwrap()
            .spec(),
    );
    cache.add_spec(c.concretize(&parse_spec("zlib").unwrap()).unwrap().spec());
    // Concretizing app must only consider the zlib entry.
    let sol = Concretizer::new(&repo)
        .with_reusable(cache.clone())
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    assert_eq!(sol.stats.reusable_specs, 1);
    assert!(sol.reused.iter().any(|s| s.as_str() == "zlib"));
}

#[test]
fn multi_valued_variant_concretizes_to_default() {
    let repo = Repository::from_packages([
        PackageBuilder::new("blas")
            .version("1.0")
            .variant_multi("precisions", &["single", "double"], &["single", "double", "quad"])
            .build()
            .unwrap(),
    ])
    .unwrap();
    let sol = Concretizer::new(&repo)
        .concretize(&parse_spec("blas").unwrap())
        .unwrap();
    let node = sol.spec().root();
    let val = node.variants.get(&Sym::intern("precisions")).unwrap();
    assert_eq!(val.canonical(), "double,single");
}
