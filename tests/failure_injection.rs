//! Failure injection across the stack: corrupt artifacts, missing
//! binaries, unsatisfiable goals, malformed cache indexes, and invalid
//! splices must all surface as errors, never as silent misbehavior.

use spackle::buildcache::ArtifactError;
use spackle::core::Goal;
use spackle::install::InstallError;
use spackle::prelude::*;
use spackle::spec::spec::ConcreteSpecBuilder;

fn mini_repo() -> Repository {
    Repository::from_packages([
        PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2")
            .build()
            .unwrap(),
        PackageBuilder::new("zlib-ng")
            .version("2.1")
            .can_splice("zlib", "")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("zlib")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

#[test]
fn unsatisfiable_version_is_reported() {
    let repo = mini_repo();
    let err = Concretizer::new(&repo)
        .concretize(&parse_spec("app ^zlib@9.9").unwrap())
        .unwrap_err();
    assert!(matches!(err, CoreError::Unsatisfiable), "{err}");
}

#[test]
fn conflicting_forbidden_root_is_unsat() {
    let repo = mini_repo();
    let mut goal = Goal::single(parse_spec("app").unwrap());
    goal.forbidden.push(Sym::intern("app"));
    let err = Concretizer::new(&repo)
        .concretize_goal(&goal)
        .unwrap_err();
    assert!(matches!(err, CoreError::Unsatisfiable), "{err}");
}

#[test]
fn corrupt_artifact_bytes_rejected_at_install() {
    let repo = mini_repo();
    let sol = Concretizer::new(&repo)
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let mut cache = BuildCache::new();
    // Deliberately corrupt artifacts.
    cache.add_spec_with(sol.spec(), |_| b"not an artifact".to_vec());
    let plan = InstallPlan::plan(sol.spec(), &cache);
    let mut inst = Installer::new(InstallLayout::new("/opt"));
    let err = inst.install(sol.spec(), &cache, &plan).unwrap_err();
    assert!(matches!(err, InstallError::Artifact(_)), "{err}");
}

#[test]
fn truncated_artifact_parse_errors() {
    let art = Artifact::build("/opt/x-1.0", &[], vec!["sym".into()]);
    let bytes = art.to_bytes();
    for cut in [0, 4, bytes.len() / 2] {
        assert!(matches!(
            Artifact::from_bytes(&bytes[..cut]),
            Err(ArtifactError::Corrupt(_))
        ));
    }
}

#[test]
fn corrupt_cache_index_json_rejected() {
    assert!(BuildCache::from_json("{\"entries\": 42}").is_err());
    assert!(BuildCache::from_json("").is_err());
    // Valid JSON but invalid hash key.
    assert!(BuildCache::from_json(r#"{"entries":{"nothash":{"spec":{},"artifact":[]}}}"#).is_err());
}

#[test]
fn rewire_without_binary_fails_loudly() {
    let repo = mini_repo();
    // Build app ^zlib@1.3, cache nothing, then splice zlib-ng in.
    let sol = Concretizer::new(&repo)
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let mut zb = ConcreteSpecBuilder::new();
    let z = zb.node("zlib-ng", Version::parse("2.1").unwrap());
    let zng = zb.build(z).unwrap();
    let spliced = sol
        .spec()
        .splice_as(Sym::intern("zlib"), &zng, true)
        .unwrap();

    let cache = BuildCache::new(); // empty: no binary for app's build spec
    let plan = InstallPlan::plan(&spliced, &cache);
    let mut inst = Installer::new(InstallLayout::new("/opt"));
    let err = inst.install(&spliced, &cache, &plan).unwrap_err();
    assert!(
        matches!(err, InstallError::MissingBuildSpecBinary { .. }),
        "{err}"
    );
}

#[test]
fn splicing_the_root_is_rejected() {
    let repo = mini_repo();
    let sol = Concretizer::new(&repo)
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let mut ab = ConcreteSpecBuilder::new();
    let a = ab.node("app", Version::parse("1.0").unwrap());
    let app2 = ab.build(a).unwrap();
    assert!(sol.spec().splice(&app2, true).is_err());
}

#[test]
fn unknown_goal_package() {
    let repo = mini_repo();
    let err = Concretizer::new(&repo)
        .concretize(&parse_spec("nonexistent").unwrap())
        .unwrap_err();
    assert!(matches!(err, CoreError::BadGoal(_)));
}

#[test]
fn anonymous_goal_rejected() {
    let repo = mini_repo();
    let err = Concretizer::new(&repo)
        .concretize(&parse_spec("@1.0").unwrap())
        .unwrap_err();
    assert!(matches!(err, CoreError::BadGoal(_)));
}

#[test]
fn verify_reports_missing_installs() {
    let repo = mini_repo();
    let sol = Concretizer::new(&repo)
        .concretize(&parse_spec("app").unwrap())
        .unwrap();
    let inst = Installer::new(InstallLayout::new("/opt"));
    // Nothing installed: verify must list every prefix as missing.
    let problems = inst.verify(sol.spec());
    assert_eq!(problems.len(), sol.spec().len());
}

/// A grounding limit overrun is its own error kind, not a solver failure:
/// services put the kind on the wire, and a client must be able to tell
/// an input too large for its limits from an engine bug.
#[test]
fn grounding_limit_is_a_resource_limit() {
    let repo = spackle::radiuss::radiuss_repo();
    let mut config = ConcretizerConfig::splice_spack_disabled();
    config.solver.limits.max_atoms = 100;
    let err = Concretizer::new(&repo)
        .with_config(config)
        .concretize(&parse_spec("hypre").unwrap())
        .unwrap_err();
    assert!(matches!(err, CoreError::ResourceLimit(_)), "{err}");
    assert_eq!(err.kind(), "resource_limit");
    assert!(
        err.to_string().contains("possible atoms exceeded 100"),
        "{err}"
    );
}
