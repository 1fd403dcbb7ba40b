//! `--explain` provenance after a delta update.
//!
//! The incremental-reconcretization pipeline retains cached answers
//! across repository deltas and re-grounds only affected segments; the
//! unsat-core explainer maps core members back to source directives by
//! looking the originating definitions up in the *current* repository.
//! This regression suite pins the interaction: after mutating the
//! RADIUSS universe the way `spackled update` does — `upsert` a new
//! version, compute the [`repo_delta`], `apply_delta` on the warm
//! ground cache — the `explain-demo+newzlib` planted conflict must
//! still produce the same minimal core, naming both clashing
//! `depends_on` directives with byte spans that select the version
//! tokens inside the rendered directive text.

use spackle::audit::{explanation_report, Code, Provenance};
use spackle::core::{repo_delta, Concretizer, CoreError, EncodeOrigin, Goal, GroundCache};
use spackle::radiuss::{radiuss_repo, with_mpiabi};
use spackle::repo::Repository;
use spackle::spec::{parse_spec, Sym, Version};

/// Assert the planted two-directive conflict explains correctly against
/// `repo`, returning the rendered E002 directive texts for span checks.
fn assert_explains(repo: &Repository, label: &str) {
    let conc = Concretizer::new(repo);
    let goal = Goal::single(parse_spec("explain-demo+newzlib").unwrap());

    // The plain path agrees it is UNSAT...
    assert!(
        matches!(conc.concretize_goal(&goal), Err(CoreError::Unsatisfiable)),
        "{label}: explain-demo+newzlib must stay unsatisfiable"
    );
    // ...and the explainer produces a finished, provenance-mapped core.
    let ex = conc
        .explain_goal(&goal)
        .unwrap()
        .expect("unsat goal must yield an explanation");
    assert!(ex.minimal, "{label}: ample budget, minimization must finish");

    let mut pinned: Vec<String> = ex
        .directive_entries()
        .filter_map(|e| match &e.origin {
            Some(EncodeOrigin::DependsOn { package, .. })
                if package.as_str() == "explain-demo" =>
            {
                Some(format!("{:?}", e.origin))
            }
            _ => None,
        })
        .collect();
    pinned.sort();
    pinned.dedup();
    assert_eq!(
        pinned.len(),
        2,
        "{label}: exactly the two planted pins must be cited: {pinned:?}"
    );

    // The rendered report must carry spans into the directive text that
    // select the conflicting version tokens.
    let report = explanation_report(repo, "explain-demo+newzlib", &ex);
    let e002: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::E002)
        .collect();
    let mut selected = Vec::new();
    for d in &e002 {
        let Provenance::Package {
            package,
            directive: Some(text),
            span: Some(span),
        } = &d.provenance
        else {
            panic!("{label}: E002 without package/directive/span: {d:?}");
        };
        assert_eq!(package, "explain-demo", "{label}");
        assert!(
            span.start < span.end && span.end <= text.len(),
            "{label}: span {span:?} must index into {text:?}"
        );
        selected.push(text[span.start..span.end].to_string());
    }
    selected.sort();
    assert_eq!(
        selected,
        ["@1.2", "@1.3"],
        "{label}: spans must select exactly the clashing version tokens"
    );
    assert!(
        report.diagnostics.iter().any(|d| d.code == Code::E001),
        "{label}: summary diagnostic missing"
    );
    assert!(
        report.diagnostics.iter().any(|d| d.code == Code::E003),
        "{label}: the goal itself must be cited"
    );
}

/// Add `version` to `package`, spackled-update style: upsert the
/// mutated definition, diff, and apply the delta to the warm cache.
fn apply_update(repo: &mut Repository, gc: &GroundCache, package: &str, version: &str) {
    let name = Sym::intern(package);
    let mut def = repo.get(name).expect("fixture package").clone();
    def.versions.push(Version::parse(version).unwrap());
    let mut post = repo.clone();
    post.upsert(def);
    let delta = repo_delta(repo, &post);
    assert!(!delta.is_empty());
    gc.apply_delta(&delta);
    *repo = post;
}

#[test]
fn explain_spans_survive_closure_and_unrelated_deltas() {
    let mut repo = with_mpiabi(&radiuss_repo());
    let gc = GroundCache::shared();

    // Pre-delta baseline, with the cache warm on the satisfiable
    // default configuration (~newzlib) and an unrelated package.
    Concretizer::new(&repo)
        .with_ground_cache(gc.clone())
        .concretize(&parse_spec("explain-demo").unwrap())
        .unwrap();
    Concretizer::new(&repo)
        .with_ground_cache(gc.clone())
        .concretize(&parse_spec("lz4").unwrap())
        .unwrap();
    assert_explains(&repo, "pre-delta");

    // Delta 1: mutate a package *outside* the fixture's closure. The
    // fixture's entries are retained — and must still explain.
    apply_update(&mut repo, &gc, "bzip2", "1.0.9");
    let sol = Concretizer::new(&repo)
        .with_ground_cache(gc.clone())
        .concretize(&parse_spec("explain-demo").unwrap())
        .unwrap();
    assert!(
        sol.stats.ground_cache_hit,
        "unrelated delta must retain the fixture's entry"
    );
    assert_explains(&repo, "post-unrelated-delta");

    // Delta 2: mutate zlib — *inside* the fixture's closure. The pins
    // are on majors 1.2/1.3, so adding 1.2.14 keeps the conflict; the
    // re-grounded program must map spans against the mutated universe.
    apply_update(&mut repo, &gc, "zlib", "1.2.14");
    let sol = Concretizer::new(&repo)
        .with_ground_cache(gc.clone())
        .concretize(&parse_spec("explain-demo").unwrap())
        .unwrap();
    assert!(
        !sol.stats.ground_cache_hit,
        "closure delta must re-ground the fixture's entry"
    );
    assert_explains(&repo, "post-closure-delta");

    // Delta 3: mutate the fixture package itself (its own segment).
    apply_update(&mut repo, &gc, "explain-demo", "1.0.1");
    assert_explains(&repo, "post-self-delta");
}
