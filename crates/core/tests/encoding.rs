//! Unit tests for the fact/rule compiler: the generated ASP text has the
//! structure the paper's encoding describes, in both reusable-spec
//! encodings, and parses under the engine.

use spackle_asp::parse_program;
use spackle_buildcache::{BuildCache, CacheSource};
use spackle_core::encode::{encode, EncodeConfig, Goal};
use spackle_core::{Concretizer, Encoding};
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
