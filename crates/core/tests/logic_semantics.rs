//! Semantic tests of the concretization logic program in isolation:
//! hand-written facts + the embedded `.lp` fragments, solved directly by
//! the ASP engine. This pins down the encoding's meaning independent of
//! the fact compiler.

use spackle_asp::{parse_program, Model, SolveOutcome, Solver};
use spackle_core::logic::{BASE_PROGRAM, NO_SPLICE_STUB, REUSE_INDIRECT, SPLICE_FRAGMENT};

/// Minimal environment facts every program needs.
const ENV: &str = r#"
requested_os("linux").
requested_target("x86_64").
os_declared("linux").
target_declared("x86_64").
target_runs("x86_64", "x86_64").
target_penalty("x86_64", 0).
"#;

fn solve(facts: &str, fragments: &[&str]) -> Option<Model> {
    let mut text = String::from(ENV);
    text.push_str(facts);
    for f in fragments {
        text.push_str(f);
    }
    let prog = parse_program(&text).unwrap_or_else(|e| panic!("program invalid: {e}"));
    match Solver::new().solve(&prog) {
        Ok((SolveOutcome::Optimal(m), _)) => Some(m),
        Ok((SolveOutcome::Unsat, _)) => None,
        Err(e) => panic!("solver error: {e}"),
    }
}

#[test]
fn version_choice_prefers_lowest_penalty() {
    let m = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("2.0", 0)).
        pkg_fact("a", version_declared("1.0", 1)).
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    )
    .expect("satisfiable");
    let versions = m
        .atoms_of("attr")
        .filter(|args| m.as_str(args[0]) == Some("version"))
        .count();
    assert_eq!(versions, 1, "exactly one version chosen");
    assert!(m
        .render()
        .contains(&r#"attr("version",node("a"),"2.0")"#.to_string()));
}

#[test]
fn dependency_derivation_and_reach() {
    let m = solve(
        r#"
        attr("root", node("a")).
        reach_from("a").
        pkg_fact("a", version_declared("1.0", 0)).
        pkg_fact("b", version_declared("1.0", 0)).
        pkg_fact("c", version_declared("1.0", 0)).
        attr("depends_on", node("a"), node("b"), "link-run") :- attr("node", node("a")), build("a").
        attr("depends_on", node("b"), node("c"), "link-run") :- attr("node", node("b")), build("b").
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    )
    .expect("satisfiable");
    let rendered = m.render();
    assert!(rendered.contains(&r#"attr("node",node("c"))"#.to_string()));
    assert!(rendered.contains(&r#"reach("a","c")"#.to_string()), "transitive reach");
    assert!(
        !rendered.contains(&r#"reach("b","c")"#.to_string()),
        "reach closes only over seeded packages"
    );
    assert!(rendered.contains(&"build(\"a\")".to_string()));
}

#[test]
fn reuse_imposition_recovers_attributes() {
    // One installed spec of "a" with a dependency on "b"; reusing it must
    // impose b's node, version, and hash.
    let m = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("1.0", 0)).
        pkg_fact("b", version_declared("1.0", 0)).
        installed_hash("a", "hasha").
        hash_attr("hasha", "version", "a", "1.0").
        hash_attr("hasha", "node_os", "a", "linux").
        hash_attr("hasha", "node_target", "a", "x86_64").
        hash_attr("hasha", "depends_on", "a", "b").
        hash_attr("hasha", "hash", "b", "hashb").
        installed_hash("b", "hashb").
        hash_attr("hashb", "version", "b", "1.0").
        hash_attr("hashb", "node_os", "b", "linux").
        hash_attr("hashb", "node_target", "b", "x86_64").
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    )
    .expect("satisfiable");
    let rendered = m.render();
    // Reuse is optimal (zero builds beats two).
    assert!(rendered.contains(&r#"attr("hash",node("a"),"hasha")"#.to_string()));
    assert!(rendered.contains(&r#"attr("hash",node("b"),"hashb")"#.to_string()));
    assert!(rendered.contains(&r#"attr("node",node("b"))"#.to_string()));
    assert!(!rendered.contains(&"build(\"a\")".to_string()));
    assert!(!rendered.contains(&"build(\"b\")".to_string()));
}

#[test]
fn splice_fragment_diverts_dependency() {
    // Installed a->b; package "c" (also installed, e.g. a system MPI) can
    // splice b's hash; b is forbidden on this machine. The zero-build
    // solution reuses a and c and splices — strictly better than
    // rebuilding a (which would cost one build).
    let m = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("1.0", 0)).
        pkg_fact("b", version_declared("1.0", 0)).
        pkg_fact("c", version_declared("1.0", 0)).
        installed_hash("a", "hasha").
        hash_attr("hasha", "version", "a", "1.0").
        hash_attr("hasha", "node_os", "a", "linux").
        hash_attr("hasha", "node_target", "a", "x86_64").
        hash_attr("hasha", "depends_on", "a", "b").
        hash_attr("hasha", "hash", "b", "hashb").
        installed_hash("b", "hashb").
        hash_attr("hashb", "version", "b", "1.0").
        hash_attr("hashb", "node_os", "b", "linux").
        hash_attr("hashb", "node_target", "b", "x86_64").
        installed_hash("c", "hashc").
        hash_attr("hashc", "version", "c", "1.0").
        hash_attr("hashc", "node_os", "c", "linux").
        hash_attr("hashc", "node_target", "c", "x86_64").
        % Fig 4a-style compiled rule:
        can_splice(node("c"), "b", Hash) :-
            installed_hash("b", Hash), attr("node", node("c")).
        splicer_decl("c", "b").
        splice_relevant("b").
        % The deployment target lacks b:
        :- attr("node", node("b")).
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, SPLICE_FRAGMENT],
    )
    .expect("satisfiable via splice");
    let rendered = m.render();
    assert!(
        rendered.contains(&r#"splice_to("hasha","b","c")"#.to_string()),
        "splice decision missing: {rendered:?}"
    );
    // a is still reused; c joined the DAG; b is gone.
    assert!(rendered.contains(&r#"attr("hash",node("a"),"hasha")"#.to_string()));
    assert!(rendered.contains(&r#"attr("node",node("c"))"#.to_string()));
    assert!(!rendered.contains(&r#"attr("node",node("b"))"#.to_string()));
    // The diverted dependency edge exists.
    assert!(rendered.contains(
        &r#"attr("depends_on",node("a"),node("c"),"link-run")"#.to_string()
    ));
}

#[test]
fn without_splice_fragment_forbidding_b_forces_rebuild() {
    // Same facts, no splice fragment: reusing a imposes b, which is
    // forbidden — so a must be built; since "a"'s build has no directive
    // rules here, a alone satisfies (no deps derived for built nodes in
    // this synthetic setup).
    let m = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("1.0", 0)).
        pkg_fact("b", version_declared("1.0", 0)).
        installed_hash("a", "hasha").
        hash_attr("hasha", "version", "a", "1.0").
        hash_attr("hasha", "node_os", "a", "linux").
        hash_attr("hasha", "node_target", "a", "x86_64").
        hash_attr("hasha", "depends_on", "a", "b").
        hash_attr("hasha", "hash", "b", "hashb").
        installed_hash("b", "hashb").
        hash_attr("hashb", "version", "b", "1.0").
        hash_attr("hashb", "node_os", "b", "linux").
        hash_attr("hashb", "node_target", "b", "x86_64").
        :- attr("node", node("b")).
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    )
    .expect("satisfiable by building");
    let rendered = m.render();
    assert!(rendered.contains(&"build(\"a\")".to_string()));
    assert!(!rendered.contains(&r#"attr("hash",node("a"),"hasha")"#.to_string()));
}

#[test]
fn single_provider_constraint() {
    let result = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("1.0", 0)).
        pkg_fact("p1", version_declared("1.0", 0)).
        pkg_fact("p2", version_declared("1.0", 0)).
        provider_decl("p1", "v").
        provider_decl("p2", "v").
        provider_weight("v", "p1", 0).
        provider_weight("v", "p2", 1).
        attr("virtual_dep", node("a"), "v") :- attr("node", node("a")), build("a").
        % Force both providers present: must be UNSAT.
        :- not attr("node", node("p1")).
        :- not attr("node", node("p2")).
        attr("depends_on", node("a"), node("p2"), "link-run") :- attr("node", node("a")), build("a").
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    );
    assert!(result.is_none(), "two providers of one virtual must conflict");
}

#[test]
fn single_provider_constraint_without_virtual_dep() {
    // No node depends on `v`, so `virtual_needed("v")` is false and only
    // the `provider_pick` count keeps two provider nodes apart.
    let result = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("1.0", 0)).
        pkg_fact("p1", version_declared("1.0", 0)).
        pkg_fact("p2", version_declared("1.0", 0)).
        provider_decl("p1", "v").
        provider_decl("p2", "v").
        provider_weight("v", "p1", 0).
        provider_weight("v", "p2", 1).
        attr("depends_on", node("a"), node("p1"), "link-run") :- attr("node", node("a")), build("a").
        attr("depends_on", node("a"), node("p2"), "link-run") :- attr("node", node("a")), build("a").
        :- not attr("node", node("p1")).
        :- not attr("node", node("p2")).
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    );
    assert!(result.is_none(), "two provider nodes of one virtual must conflict");
}

#[test]
fn provider_weight_breaks_ties() {
    let m = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("1.0", 0)).
        pkg_fact("p1", version_declared("1.0", 0)).
        pkg_fact("p2", version_declared("1.0", 0)).
        provider_decl("p1", "v").
        provider_decl("p2", "v").
        provider_weight("v", "p1", 0).
        provider_weight("v", "p2", 1).
        attr("virtual_dep", node("a"), "v") :- attr("node", node("a")), build("a").
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    )
    .expect("satisfiable");
    let rendered = m.render();
    assert!(rendered.contains(&r#"virtual_chosen("v","p1")"#.to_string()));
    assert!(!rendered.contains(&r#"attr("node",node("p2"))"#.to_string()));
}

#[test]
fn incompatible_target_blocks_reuse() {
    // The cached spec was built for icelake; the requesting machine is
    // plain x86_64 and cannot run it: rebuild.
    let m = solve(
        r#"
        attr("root", node("a")).
        pkg_fact("a", version_declared("1.0", 0)).
        target_declared("icelake").
        target_penalty("icelake", 100).
        installed_hash("a", "hasha").
        hash_attr("hasha", "version", "a", "1.0").
        hash_attr("hasha", "node_os", "a", "linux").
        hash_attr("hasha", "node_target", "a", "icelake").
        "#,
        &[BASE_PROGRAM, REUSE_INDIRECT, NO_SPLICE_STUB],
    )
    .expect("satisfiable by building for x86_64");
    let rendered = m.render();
    assert!(rendered.contains(&"build(\"a\")".to_string()));
    assert!(rendered.contains(&r#"attr("node_target",node("a"),"x86_64")"#.to_string()));
}
