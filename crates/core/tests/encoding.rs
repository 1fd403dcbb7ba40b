//! Unit tests for the fact/rule compiler: the generated ASP text has the
//! structure the paper's encoding describes, in both reusable-spec
//! encodings, and parses under the engine.

use spackle_asp::parse_program;
use spackle_buildcache::{BuildCache, CacheSource};
use spackle_core::encode::{encode, EncodeConfig, Goal};
use spackle_core::{Concretizer, ConcretizerConfig, Encoding};
use spackle_repo::{PackageBuilder, Repository};
use spackle_spec::{parse_spec, Os, Target};

fn cfg(encoding: Encoding, splicing: bool) -> EncodeConfig {
    EncodeConfig {
        encoding,
        splicing,
        os: Os::new("linux"),
        target: Target::new("x86_64"),
        filter_irrelevant: true,
    }
}

fn repo() -> Repository {
    Repository::from_packages([
        PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2.11")
            .variant_bool("pic", true)
            .build()
            .unwrap(),
        PackageBuilder::new("zlib-ng")
            .version("2.1")
            .can_splice("zlib@1.3", "@2.1")
            .build()
            .unwrap(),
        PackageBuilder::new("example")
            .version("1.1.0")
            .version("1.0.0")
            .variant_bool("bzip", true)
            .depends_on_when("zlib@1.2", "@1.0.0")
            .depends_on_when("zlib@1.3", "@1.1.0")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn cached(repo: &Repository, goal: &str) -> BuildCache {
    let sol = Concretizer::new(repo)
        .concretize(&parse_spec(goal).unwrap())
        .unwrap();
    let mut c = BuildCache::new();
    c.add_spec(sol.spec());
    c
}

#[test]
fn generated_program_always_parses() {
    let repo = repo();
    let cache = cached(&repo, "example");
    for (enc, splice) in [
        (Encoding::Direct, false),
        (Encoding::Indirect, false),
        (Encoding::Indirect, true),
    ] {
        let out = encode(
            &repo,
            &[std::sync::Arc::new(cache.clone()) as std::sync::Arc<dyn CacheSource>],
            &Goal::single(parse_spec("example").unwrap()),
            &cfg(enc, splice),
        )
        .unwrap()
        .render();
        parse_program(&out.program)
            .unwrap_or_else(|e| panic!("({enc:?},{splice}) generated invalid ASP: {e}"));
    }
}

#[test]
fn version_facts_carry_preference_indexes() {
    let repo = repo();
    let out = encode(
        &repo,
        &[],
        &Goal::single(parse_spec("example").unwrap()),
        &cfg(Encoding::Indirect, false),
    )
    .unwrap()
    .render();
    // Newest first: index 0 for 1.1.0, 1 for 1.0.0 (paper 5.1's
    // version_declared facts, with our explicit penalty index).
    assert!(out
        .program
        .contains(r#"pkg_fact("example", version_declared("1.1.0", 0))"#));
    assert!(out
        .program
        .contains(r#"pkg_fact("example", version_declared("1.0.0", 1))"#));
}

#[test]
fn conditional_dependency_compiles_to_specialized_rule() {
    let repo = repo();
    let out = encode(
        &repo,
        &[],
        &Goal::single(parse_spec("example").unwrap()),
        &cfg(Encoding::Indirect, false),
    )
    .unwrap()
    .render();
    // The @1.0.0-conditional zlib dependency mentions a version_satisfies
    // test on example and imposes a depends_on head.
    assert!(
        out.program.contains(
            r#"attr("depends_on", node("example"), node("zlib"), "link-run")"#
        ),
        "dependency rule head missing"
    );
    assert!(out
        .program
        .contains(r#"pkg_fact("example", version_satisfies("@1.0.0", "1.0.0"))"#));
    // Constraint on the dep's version (zlib@1.2 satisfied by 1.2.11 only).
    assert!(out
        .program
        .contains(r#"pkg_fact("zlib", version_satisfies("@1.2", "1.2.11"))"#));
    assert!(!out
        .program
        .contains(r#"pkg_fact("zlib", version_satisfies("@1.2", "1.3"))"#));
}

#[test]
fn direct_encoding_emits_imposed_constraints() {
    let repo = repo();
    let cache = cached(&repo, "example");
    let out = encode(
        &repo,
        &[std::sync::Arc::new(cache.clone()) as std::sync::Arc<dyn CacheSource>],
        &Goal::single(parse_spec("example").unwrap()),
        &cfg(Encoding::Direct, false),
    )
    .unwrap()
    .render();
    assert!(out.program.contains("installed_hash(\"example\""));
    assert!(out.program.contains("imposed_constraint("));
    assert!(
        !out.program.contains("hash_attr("),
        "direct encoding must not emit hash_attr facts"
    );
    assert!(!out.program.contains("can_splice"));
}

#[test]
fn indirect_encoding_emits_hash_attr() {
    let repo = repo();
    let cache = cached(&repo, "example");
    let out = encode(
        &repo,
        &[std::sync::Arc::new(cache.clone()) as std::sync::Arc<dyn CacheSource>],
        &Goal::single(parse_spec("example").unwrap()),
        &cfg(Encoding::Indirect, false),
    )
    .unwrap()
    .render();
    assert!(out.program.contains("hash_attr("));
    assert!(
        !out.program.contains("imposed_constraint("),
        "indirect encoding emits only hash_attr facts; the bridge rules \
         recovering imposed_constraint live in the logic fragment"
    );
}

#[test]
fn splice_rules_only_when_enabled() {
    let repo = repo();
    let cache = cached(&repo, "example");
    let goal = Goal::single(parse_spec("example").unwrap());

    let without = encode(&repo, &[std::sync::Arc::new(cache.clone()) as std::sync::Arc<dyn CacheSource>], &goal, &cfg(Encoding::Indirect, false)).unwrap().render();
    assert!(!without.program.contains("can_splice"));
    assert!(!without.program.contains("splicer_decl"));

    let with = encode(&repo, &[std::sync::Arc::new(cache.clone()) as std::sync::Arc<dyn CacheSource>], &goal, &cfg(Encoding::Indirect, true)).unwrap().render();
    // Fig 4a-style compiled rule for the zlib-ng directive.
    assert!(with.program.contains("can_splice(node(\"zlib-ng\"), \"zlib\", Hash)"));
    assert!(with.program.contains("splicer_decl(\"zlib-ng\", \"zlib\")"));
    assert!(with.program.contains("splice_relevant(\"zlib\")"));
    // The when-clause constrains the replacement's version.
    assert!(with
        .program
        .contains(r#"pkg_fact("zlib-ng", version_satisfies("@2.1", V"#));
}

#[test]
fn closure_filtering_excludes_unrelated_packages() {
    let pkgs = vec![
        PackageBuilder::new("app").version("1.0").build().unwrap(),
        PackageBuilder::new("unrelated")
            .version("9.0")
            .build()
            .unwrap(),
    ];
    let repo = Repository::from_packages(pkgs).unwrap();
    let goal = Goal::single(parse_spec("app").unwrap());

    let filtered = encode(&repo, &[], &goal, &cfg(Encoding::Indirect, false)).unwrap().render();
    assert!(!filtered.program.contains("\"unrelated\""));

    let mut unfiltered_cfg = cfg(Encoding::Indirect, false);
    unfiltered_cfg.filter_irrelevant = false;
    let unfiltered = encode(&repo, &[], &goal, &unfiltered_cfg).unwrap().render();
    assert!(unfiltered.program.contains("\"unrelated\""));
}

#[test]
fn forbidden_packages_become_constraints() {
    let repo = repo();
    let mut goal = Goal::single(parse_spec("example").unwrap());
    goal.forbidden.push(spackle_spec::Sym::intern("zlib"));
    let out = encode(&repo, &[], &goal, &cfg(Encoding::Indirect, false)).unwrap().render();
    assert!(out
        .program
        .contains(r#":- attr("node", node("zlib"))."#));
}

#[test]
fn goal_constraints_compile() {
    let repo = repo();
    let goal = Goal::single(parse_spec("example@1.0.0+bzip target=x86_64").unwrap());
    let out = encode(&repo, &[], &goal, &cfg(Encoding::Indirect, false)).unwrap().render();
    assert!(out.program.contains(r#"attr("root", node("example"))"#));
    assert!(out
        .program
        .contains(r#":- not attr("variant", node("example"), "bzip", "True")."#));
    assert!(out
        .program
        .contains(r#":- not attr("node_target", node("example"), "x86_64")."#));
}

#[test]
fn reusable_count_reflects_filtering() {
    let repo = repo();
    let cache = cached(&repo, "example"); // example + zlib entries
    let goal = Goal::single(parse_spec("zlib").unwrap());
    let out = encode(&repo, &[std::sync::Arc::new(cache.clone()) as std::sync::Arc<dyn CacheSource>], &goal, &cfg(Encoding::Indirect, false)).unwrap().render();
    // Only the zlib entry is within zlib's closure.
    assert_eq!(out.reusable_count, 1);
}

/// A repository whose directives use every form the encoder emits.
fn every_directive_repo() -> Repository {
    use spackle_spec::DepTypes;
    Repository::from_packages([
        PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2")
            .variant_bool("pic", true)
            .build()
            .unwrap(),
        PackageBuilder::new("cmake").version("3.27").build().unwrap(),
        PackageBuilder::new("libx").version("1.0").build().unwrap(),
        PackageBuilder::new("openmpi")
            .version("5.0")
            .provides("mpi")
            .build()
            .unwrap(),
        PackageBuilder::new("mpich")
            .version("4.1")
            .version("3.4")
            .variant_bool("pmi", true)
            .provides_when("mpi", "@4:")
            .build()
            .unwrap(),
        PackageBuilder::new("mpiabi")
            .version("1.0")
            .version("0.9")
            .variant_bool("fast", false)
            .provides("mpi")
            .can_splice("mpich@3.4+pmi", "@1.0+fast")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("2.0")
            .version("1.0")
            .variant_bool("shared", true)
            .depends_on_full("zlib@1.3+pic", "@2.0", DepTypes::LINK_RUN)
            .depends_on_full("cmake", "+shared", DepTypes::BUILD)
            .depends_on_full("libx", "os=linux", DepTypes::ALL)
            .depends_on_when("mpi", "target=x86_64")
            .conflicts_when("@1.0 ^zlib@1.2", "+shared")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

/// `program_text` of `goal` over `repo` and a cached `zlib`, minus the
/// logic fragments (checked to follow verbatim), and its ledger as
/// `offset origin` lines.
fn encoder_text(repo: &Repository, config: ConcretizerConfig, goal: &Goal) -> (String, String) {
    use spackle_core::logic::{
        BASE_PROGRAM, NO_SPLICE_STUB, REUSE_DIRECT, REUSE_INDIRECT, SPLICE_FRAGMENT,
    };
    let fragments = match (config.encoding, config.splicing) {
        (Encoding::Direct, _) => [BASE_PROGRAM, REUSE_DIRECT, NO_SPLICE_STUB],
        (Encoding::Indirect, false) => [BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
        (Encoding::Indirect, true) => [BASE_PROGRAM, REUSE_INDIRECT, SPLICE_FRAGMENT],
    }
    .concat();
    let cache = cached(repo, "zlib");
    let encoded = Concretizer::new(repo)
        .with_config(config)
        .with_reusable(cache)
        .program_text(goal)
        .unwrap();
    let encoder = encoded
        .program
        .strip_suffix(fragments.as_str())
        .expect("the logic fragments close the program")
        .to_string();
    let ledger = encoded
        .ledger
        .iter()
        .map(|(offset, origin)| format!("{offset} {origin:?}\n"))
        .collect();
    (encoder, ledger)
}

/// Every directive form's text, pinned whole: `depends_on` with a
/// `when=` on a version, a variant, an os and a target; a virtual
/// dependency; build-only, link-run-only and build-plus-link-run types;
/// dependency version and variant constraints; `provides` with and
/// without `when=`; a `conflicts` with `^dep@version` (which seeds
/// `reach_from`); `can_splice` with a target version and variant and a
/// `when=`; a goal root with a version, a variant, an os, a target, a
/// virtual `^dep` and a `^dep@version+variant`; a forbidden package.
#[test]
fn every_directive_form_renders_as_pinned() {
    let repo = every_directive_repo();
    let goal = Goal {
        roots: vec![
            parse_spec("app@2.0+shared os=linux target=x86_64 ^mpi ^zlib@1.3+pic").unwrap(),
        ],
        forbidden: vec![spackle_spec::Sym::intern("openmpi")],
    };
    let (direct, direct_ledger) = encoder_text(&repo, ConcretizerConfig::old_spack(), &goal);
    let (indirect, indirect_ledger) = encoder_text(&repo, ConcretizerConfig::splice_spack(), &goal);
    assert_eq!(direct, DIRECT_TEXT);
    assert_eq!(direct_ledger, DIRECT_LEDGER);
    assert_eq!(indirect, INDIRECT_TEXT);
    assert_eq!(indirect_ledger, INDIRECT_LEDGER);
}

const DIRECT_TEXT: &str = r#"requested_os("linux").
requested_target("x86_64").
os_declared("linux").
target_declared("x86_64").
target_runs("x86_64", "x86_64").
target_penalty("x86_64", 0).
installed_hash("zlib", "axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq").
imposed_constraint("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "version", "zlib", "1.3").
imposed_constraint("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "node_os", "zlib", "linux").
imposed_constraint("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "node_target", "zlib", "x86_64").
imposed_constraint("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "variant", "zlib", "pic", "True").
pkg_fact("app", version_declared("2.0", 0)).
pkg_fact("app", version_declared("1.0", 1)).
pkg_fact("app", version_satisfies("@1.0", "1.0")).
pkg_fact("app", version_satisfies("@2.0", "2.0")).
pkg_fact("cmake", version_declared("3.27", 0)).
pkg_fact("libx", version_declared("1.0", 0)).
pkg_fact("mpiabi", version_declared("1.0", 0)).
pkg_fact("mpiabi", version_declared("0.9", 1)).
pkg_fact("mpich", version_declared("4.1", 0)).
pkg_fact("mpich", version_declared("3.4", 1)).
pkg_fact("mpich", version_satisfies("@4:", "4.1")).
pkg_fact("openmpi", version_declared("5.0", 0)).
pkg_fact("zlib", version_declared("1.3", 0)).
pkg_fact("zlib", version_declared("1.2", 1)).
pkg_fact("zlib", version_satisfies("@1.2", "1.2")).
pkg_fact("zlib", version_satisfies("@1.3", "1.3")).
pkg_fact("app", variant("shared")).
pkg_fact("app", variant_default("shared", "True")).
pkg_fact("app", variant_value("shared", "False")).
pkg_fact("app", variant_value("shared", "True")).
pkg_fact("mpiabi", variant("fast")).
pkg_fact("mpiabi", variant_default("fast", "False")).
pkg_fact("mpiabi", variant_value("fast", "False")).
pkg_fact("mpiabi", variant_value("fast", "True")).
pkg_fact("mpich", variant("pmi")).
pkg_fact("mpich", variant_default("pmi", "True")).
pkg_fact("mpich", variant_value("pmi", "False")).
pkg_fact("mpich", variant_value("pmi", "True")).
pkg_fact("zlib", variant("pic")).
pkg_fact("zlib", variant_default("pic", "True")).
pkg_fact("zlib", variant_value("pic", "False")).
pkg_fact("zlib", variant_value("pic", "True")).
attr("depends_on", node("app"), node("zlib"), "link-run") :- attr("node", node("app")), build("app"), attr("version", node("app"), Vw0), pkg_fact("app", version_satisfies("@2.0", Vw0)).
:- attr("node", node("app")), build("app"), attr("version", node("app"), Vw0), pkg_fact("app", version_satisfies("@2.0", Vw0)), attr("version", node("zlib"), Vd0), not pkg_fact("zlib", version_satisfies("@1.3", Vd0)).
:- attr("node", node("app")), build("app"), attr("version", node("app"), Vw0), pkg_fact("app", version_satisfies("@2.0", Vw0)), attr("node", node("zlib")), not attr("variant", node("zlib"), "pic", "True").
attr("depends_on", node("app"), node("cmake"), "build") :- attr("node", node("app")), build("app"), attr("variant", node("app"), "shared", "True").
attr("depends_on", node("app"), node("libx"), "build") :- attr("node", node("app")), build("app"), attr("node_os", node("app"), "linux").
attr("depends_on", node("app"), node("libx"), "link-run") :- attr("node", node("app")), build("app"), attr("node_os", node("app"), "linux").
attr("virtual_dep", node("app"), "mpi") :- attr("node", node("app")), build("app"), attr("node_target", node("app"), "x86_64").
reach_from("app").
:- attr("node", node("app")), attr("variant", node("app"), "shared", "True"), attr("version", node("app"), Vcs0), pkg_fact("app", version_satisfies("@1.0", Vcs0)), reach("app", "zlib"), attr("version", node("zlib"), Vc0_0), pkg_fact("zlib", version_satisfies("@1.2", Vc0_0)).
provider_decl("mpiabi", "mpi").
provider_decl("mpich", "mpi").
provides_ok("mpich", "mpi") :- attr("node", node("mpich")), attr("version", node("mpich"), Vp0), pkg_fact("mpich", version_satisfies("@4:", Vp0)).
:- virtual_chosen("mpi", "mpich"), not provides_ok("mpich", "mpi").
provider_decl("openmpi", "mpi").
provider_weight("mpi", "openmpi", 0).
provider_weight("mpi", "mpich", 1).
provider_weight("mpi", "mpiabi", 2).
attr("root", node("app")).
:- attr("version", node("app"), V), not pkg_fact("app", version_satisfies("@2.0", V)).
:- not attr("variant", node("app"), "shared", "True").
:- not attr("node_os", node("app"), "linux").
:- not attr("node_target", node("app"), "x86_64").
:- not virtual_used("mpi").
reach_from("app").
:- not reach("app", "zlib").
:- attr("version", node("zlib"), Vg1), not pkg_fact("zlib", version_satisfies("@1.3", Vg1)).
:- attr("node", node("zlib")), not attr("variant", node("zlib"), "pic", "True").
:- attr("node", node("openmpi")).
"#;
const DIRECT_LEDGER: &str = r#"0 Environment
162 Reusable { package: Sym("zlib"), hash: "axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq" }
667 Environment
2189 DependsOn { package: Sym("app"), index: 0 }
2799 DependsOn { package: Sym("app"), index: 1 }
2947 DependsOn { package: Sym("app"), index: 2 }
3226 DependsOn { package: Sym("app"), index: 3 }
3354 Conflict { package: Sym("app"), index: 0 }
3649 Provides { package: Sym("mpiabi"), index: 0 }
3681 Provides { package: Sym("mpich"), index: 0 }
3927 Provides { package: Sym("openmpi"), index: 0 }
3960 ProviderWeights
4071 GoalRoot { root: Sym("app") }
4587 Forbidden { package: Sym("openmpi") }
4621 Logic { fragment: "base" }
10167 Logic { fragment: "reuse-direct" }
10356 Logic { fragment: "no-splice" }
"#;
const INDIRECT_TEXT: &str = r#"requested_os("linux").
requested_target("x86_64").
os_declared("linux").
target_declared("x86_64").
target_runs("x86_64", "x86_64").
target_penalty("x86_64", 0).
installed_hash("zlib", "axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq").
hash_attr("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "version", "zlib", "1.3").
hash_attr("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "node_os", "zlib", "linux").
hash_attr("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "node_target", "zlib", "x86_64").
hash_attr("axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq", "variant", "zlib", "pic", "True").
pkg_fact("app", version_declared("2.0", 0)).
pkg_fact("app", version_declared("1.0", 1)).
pkg_fact("app", version_satisfies("@1.0", "1.0")).
pkg_fact("app", version_satisfies("@2.0", "2.0")).
pkg_fact("cmake", version_declared("3.27", 0)).
pkg_fact("libx", version_declared("1.0", 0)).
pkg_fact("mpiabi", version_declared("1.0", 0)).
pkg_fact("mpiabi", version_declared("0.9", 1)).
pkg_fact("mpiabi", version_satisfies("@1.0", "1.0")).
pkg_fact("mpich", version_declared("4.1", 0)).
pkg_fact("mpich", version_declared("3.4", 1)).
pkg_fact("mpich", version_satisfies("@3.4", "3.4")).
pkg_fact("mpich", version_satisfies("@4:", "4.1")).
pkg_fact("openmpi", version_declared("5.0", 0)).
pkg_fact("zlib", version_declared("1.3", 0)).
pkg_fact("zlib", version_declared("1.2", 1)).
pkg_fact("zlib", version_satisfies("@1.2", "1.2")).
pkg_fact("zlib", version_satisfies("@1.3", "1.3")).
pkg_fact("app", variant("shared")).
pkg_fact("app", variant_default("shared", "True")).
pkg_fact("app", variant_value("shared", "False")).
pkg_fact("app", variant_value("shared", "True")).
pkg_fact("mpiabi", variant("fast")).
pkg_fact("mpiabi", variant_default("fast", "False")).
pkg_fact("mpiabi", variant_value("fast", "False")).
pkg_fact("mpiabi", variant_value("fast", "True")).
pkg_fact("mpich", variant("pmi")).
pkg_fact("mpich", variant_default("pmi", "True")).
pkg_fact("mpich", variant_value("pmi", "False")).
pkg_fact("mpich", variant_value("pmi", "True")).
pkg_fact("zlib", variant("pic")).
pkg_fact("zlib", variant_default("pic", "True")).
pkg_fact("zlib", variant_value("pic", "False")).
pkg_fact("zlib", variant_value("pic", "True")).
attr("depends_on", node("app"), node("zlib"), "link-run") :- attr("node", node("app")), build("app"), attr("version", node("app"), Vw0), pkg_fact("app", version_satisfies("@2.0", Vw0)).
:- attr("node", node("app")), build("app"), attr("version", node("app"), Vw0), pkg_fact("app", version_satisfies("@2.0", Vw0)), attr("version", node("zlib"), Vd0), not pkg_fact("zlib", version_satisfies("@1.3", Vd0)).
:- attr("node", node("app")), build("app"), attr("version", node("app"), Vw0), pkg_fact("app", version_satisfies("@2.0", Vw0)), attr("node", node("zlib")), not attr("variant", node("zlib"), "pic", "True").
attr("depends_on", node("app"), node("cmake"), "build") :- attr("node", node("app")), build("app"), attr("variant", node("app"), "shared", "True").
attr("depends_on", node("app"), node("libx"), "build") :- attr("node", node("app")), build("app"), attr("node_os", node("app"), "linux").
attr("depends_on", node("app"), node("libx"), "link-run") :- attr("node", node("app")), build("app"), attr("node_os", node("app"), "linux").
attr("virtual_dep", node("app"), "mpi") :- attr("node", node("app")), build("app"), attr("node_target", node("app"), "x86_64").
reach_from("app").
:- attr("node", node("app")), attr("variant", node("app"), "shared", "True"), attr("version", node("app"), Vcs0), pkg_fact("app", version_satisfies("@1.0", Vcs0)), reach("app", "zlib"), attr("version", node("zlib"), Vc0_0), pkg_fact("zlib", version_satisfies("@1.2", Vc0_0)).
provider_decl("mpiabi", "mpi").
can_splice(node("mpiabi"), "mpich", Hash) :- installed_hash("mpich", Hash), hash_attr(Hash, "version", "mpich", TV0), pkg_fact("mpich", version_satisfies("@3.4", TV0)), hash_attr(Hash, "variant", "mpich", "pmi", "True"), attr("node", node("mpiabi")), attr("version", node("mpiabi"), Vs0), pkg_fact("mpiabi", version_satisfies("@1.0", Vs0)), attr("variant", node("mpiabi"), "fast", "True").
splicer_decl("mpiabi", "mpich").
splice_relevant("mpich").
provider_decl("mpich", "mpi").
provides_ok("mpich", "mpi") :- attr("node", node("mpich")), attr("version", node("mpich"), Vp0), pkg_fact("mpich", version_satisfies("@4:", Vp0)).
:- virtual_chosen("mpi", "mpich"), not provides_ok("mpich", "mpi").
provider_decl("openmpi", "mpi").
provider_weight("mpi", "openmpi", 0).
provider_weight("mpi", "mpich", 1).
provider_weight("mpi", "mpiabi", 2).
attr("root", node("app")).
:- attr("version", node("app"), V), not pkg_fact("app", version_satisfies("@2.0", V)).
:- not attr("variant", node("app"), "shared", "True").
:- not attr("node_os", node("app"), "linux").
:- not attr("node_target", node("app"), "x86_64").
:- not virtual_used("mpi").
reach_from("app").
:- not reach("app", "zlib").
:- attr("version", node("zlib"), Vg1), not pkg_fact("zlib", version_satisfies("@1.3", Vg1)).
:- attr("node", node("zlib")), not attr("variant", node("zlib"), "pic", "True").
:- attr("node", node("openmpi")).
"#;
const INDIRECT_LEDGER: &str = r#"0 Environment
162 Reusable { package: Sym("zlib"), hash: "axafksxxtbh22ldrj736sgnjni6hm2iy6ks7yhylplzwkhc66prq" }
631 Environment
2260 DependsOn { package: Sym("app"), index: 0 }
2870 DependsOn { package: Sym("app"), index: 1 }
3018 DependsOn { package: Sym("app"), index: 2 }
3297 DependsOn { package: Sym("app"), index: 3 }
3425 Conflict { package: Sym("app"), index: 0 }
3720 Provides { package: Sym("mpiabi"), index: 0 }
3752 CanSplice { package: Sym("mpiabi"), index: 0 }
4201 Provides { package: Sym("mpich"), index: 0 }
4447 Provides { package: Sym("openmpi"), index: 0 }
4480 ProviderWeights
4591 GoalRoot { root: Sym("app") }
5107 Forbidden { package: Sym("openmpi") }
5141 Logic { fragment: "base" }
10687 Logic { fragment: "reuse-indirect" }
11153 Logic { fragment: "splice" }
"#;
