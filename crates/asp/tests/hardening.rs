//! Minimized deterministic regressions for solver/grounder corners that
//! the differential fuzz harness (`spackle-oracle`) leans on hardest.
//!
//! The harness ran >120k random program/repository cases against the
//! brute-force reference solver without finding a production bug; these
//! tests pin down the corner semantics it exercises — guarded and
//! over-tight choice bounds, weighted `#minimize` with shared factors,
//! set-of-tuples cost deduplication, unfounded-set handling under
//! choices — so any future regression fails here with a readable,
//! hand-checkable program instead of a fuzzer seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spackle_asp::certify::certify_model;
use spackle_asp::ground::{ground, GroundProgram};
use spackle_asp::term::AtomId;
use spackle_asp::{parse_program, Model, SolveOutcome, Solver};

fn models(text: &str, limit: usize) -> Vec<Vec<String>> {
    let prog = parse_program(text).unwrap();
    let ms = Solver::new().enumerate(&prog, limit).unwrap();
    let mut out: Vec<Vec<String>> = ms.iter().map(render).collect();
    out.sort();
    out
}

fn render(m: &Model) -> Vec<String> {
    let mut atoms = m.render();
    atoms.sort();
    atoms
}

fn optimum(text: &str) -> (Vec<String>, Vec<(i64, i64)>) {
    let prog = parse_program(text).unwrap();
    match Solver::new().solve(&prog).unwrap().0 {
        SolveOutcome::Optimal(m) => {
            certify_model(&m).expect("optimal model must certify");
            (render(&m), m.cost.clone())
        }
        SolveOutcome::Unsat => panic!("expected optimum, got UNSAT"),
    }
}

fn strs(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn guarded_bounds_are_vacuous_when_body_fails() {
    // The cardinality bounds of `2 { a ; b } 2 :- g.` apply only in
    // models where g holds; without g, a and b are simply unfounded.
    let ms = models("{ g }. 2 { a ; b } 2 :- g.", 8);
    assert_eq!(ms, vec![strs(&[]), strs(&["a", "b", "g"])]);
}

#[test]
fn lower_bound_above_element_count_is_unsatisfiable_when_active() {
    // 3 { a ; b } can never be met: the choice instance is active
    // (empty body) so every candidate model is rejected.
    assert_eq!(models("3 { a ; b }.", 8), Vec::<Vec<String>>::new());
    // But guarded by g, the "false" branch survives.
    assert_eq!(models("{ g }. 3 { a ; b } :- g.", 8), vec![strs(&[])]);
}

#[test]
fn duplicate_choice_elements_do_not_double_count() {
    // `a` appearing twice in the element list is still one atom; the
    // exactly-2 bound can therefore only be met by {a, b}.
    let ms = models("2 { a ; a ; b } 2.", 8);
    assert_eq!(ms, vec![strs(&["a", "b"])]);
}

#[test]
fn choice_supported_positive_loop_needs_external_support() {
    // a and b support each other; only the choice on c breaks the loop.
    let ms = models("{ c }. a :- c. a :- b. b :- a.", 8);
    assert_eq!(ms, vec![strs(&[]), strs(&["a", "b", "c"])]);
}

#[test]
fn interleaved_negation_loops_enumerate_all_branches() {
    // Two independent even loops -> 4 models; the constraint kills the
    // branch picking both left atoms.
    let ms = models(
        "p :- not q. q :- not p. r :- not s. s :- not r. :- p, r.",
        16,
    );
    assert_eq!(
        ms,
        vec![
            strs(&["p", "s"]),
            strs(&["q", "r"]),
            strs(&["q", "s"]),
        ]
    );
}

#[test]
fn composite_weights_share_a_factor() {
    // All weights divisible by 3 — exercises the optimizer's weighted
    // counter normalization. Cheapest nonempty pick is c alone (3);
    // the constraint forbids the empty selection.
    let (model, cost) = optimum(
        r#"
        1 { a ; b ; c }.
        #minimize { 6@1,"a" : a ; 9@1,"b" : b ; 3@1,"c" : c }.
        "#,
    );
    assert_eq!(model, strs(&["c"]));
    assert_eq!(cost, vec![(1, 3)]);
}

#[test]
fn minimize_tuple_charged_once_across_conditions() {
    // Same (weight, priority, tuple) from two different atoms: clingo
    // semantics charge it once if *any* condition holds.
    let (_, cost) = optimum(
        r#"
        a. b.
        #minimize { 7@1,"same" : a ; 7@1,"same" : b }.
        "#,
    );
    assert_eq!(cost, vec![(1, 7)]);
}

#[test]
fn distinct_tuples_accumulate_within_a_priority() {
    let (_, cost) = optimum(
        r#"
        a. b.
        #minimize { 7@1,"x" : a ; 7@1,"y" : b }.
        "#,
    );
    assert_eq!(cost, vec![(1, 14)]);
}

#[test]
fn priorities_optimize_lexicographically_descending() {
    // Priority 2 dominates: pick b despite its worse priority-1 cost.
    let (model, cost) = optimum(
        r#"
        1 { a ; b } 1.
        #minimize { 5@2 : a ; 1@2 : b }.
        #minimize { 0@1 : a ; 100@1 : b }.
        "#,
    );
    assert_eq!(model, strs(&["b"]));
    assert_eq!(cost, vec![(2, 1), (1, 100)]);
}

#[test]
fn zero_weight_elements_do_not_move_the_optimum() {
    let (_, cost) = optimum(
        r#"
        1 { a ; b } 1.
        #minimize { 0@1,"a" : a ; 0@1,"b" : b }.
        "#,
    );
    assert_eq!(cost, vec![(1, 0)]);
}

#[test]
fn negated_minimize_condition_charges_absent_atom() {
    // Charging `not a` makes choosing a the cheaper model.
    let (model, cost) = optimum("{ a }. #minimize { 4@1 : not a }.");
    assert_eq!(model, strs(&["a"]));
    assert_eq!(cost, vec![(1, 0)]);
}

#[test]
fn comparison_guards_prune_grounding() {
    // The selection-flavor shape from the fuzzer: forbid the largest
    // candidate via an arithmetic comparison, prefer small indices.
    let (model, cost) = optimum(
        r#"
        cand(0). cand(1). cand(2).
        1 { sel(X) : cand(X) } 1.
        :- sel(X), X >= 2.
        #minimize { X@1,X : sel(X) }.
        "#,
    );
    assert_eq!(model, strs(&["cand(0)", "cand(1)", "cand(2)", "sel(0)"]));
    assert_eq!(cost, vec![(1, 0)]);
}

#[test]
fn enumeration_respects_the_limit_without_dropping_optima() {
    let prog = parse_program("{ a }. { b }. { c }.").unwrap();
    let solver = Solver::new();
    assert_eq!(solver.enumerate(&prog, 8).unwrap().len(), 8);
    assert_eq!(solver.enumerate(&prog, 3).unwrap().len(), 3);
}

#[test]
fn every_enumerated_model_certifies() {
    let prog = parse_program(
        r#"
        d(0). d(1).
        q(X) :- d(X), not r(X).
        r(X) :- d(X), not q(X).
        p :- q(0).
        "#,
    )
    .unwrap();
    let ms = Solver::new().enumerate(&prog, 16).unwrap();
    assert_eq!(ms.len(), 4, "two independent even loops");
    for m in &ms {
        spackle_asp::certify::certify_atoms(m.ground(), m.atom_set())
            .expect("every enumerated model must pass the certificate check");
    }
}

/// The rules of the relational programs below: compound arguments
/// (`node(X)`, `f(g(X),Y)`) at scanned and at probed positions, an atom
/// and a compound term of ten arguments (wider than the grounder keeps
/// on the stack), a rule written twice, negation, a choice, a
/// constraint and two minimize statements.
const RELATIONAL_RULES: &str = r#"
    p(node(X)) :- e(X,Y).
    p(node(X)) :- e(X,Y).
    q(f(g(X),Y)) :- e(X,Y), not e(Y,X).
    s(X) :- e(X,Y), q(f(g(X),Y)).
    r(X) :- p(node(X)), lab(node(X),"a").
    wide(h(A,B,C,D,E,F,G,H,I,J)) :- w(A,B,C,D,E,F,G,H,I,J).
    w2(A,B,C,D,E,F,G,H,I,J) :- w(J,I,H,G,F,E,D,C,B,A).
    u(A) :- w(A,B,C,D,E,F,G,H,I,J), wide(h(A,B,C,D,E,F,G,H,I,J)).
    v(A) :- w2(A,B,C,D,E,F,G,H,I,J), not wide(h(J,I,H,G,F,E,D,C,B,A)).
    { pick(X) : p(node(X)), not banned(node(X)) } 2 :- e(Y,Y).
    :- pick(X), pick(Y), X < Y, e(X,Y).
    #minimize { 1@1,X : pick(X) }.
    #minimize { 2@2,f(X),node(Y) : r(X), q(f(g(X),Y)) }.
"#;

/// Random facts over a small domain, some of them repeated.
fn relational_facts(rng: &mut StdRng) -> Vec<String> {
    let mut facts = Vec::new();
    for _ in 0..rng.gen_range(2..9) {
        let (x, y): (u32, u32) = (rng.gen_range(0..4), rng.gen_range(0..4));
        facts.push(format!("e({x},{y})."));
    }
    for _ in 0..rng.gen_range(0..5) {
        let label = if rng.gen_bool(0.5) { "a" } else { "b" };
        facts.push(format!("lab(node({}),\"{label}\").", rng.gen_range(0..4)));
    }
    for _ in 0..rng.gen_range(0..4) {
        let args: Vec<String> = (0..10)
            .map(|_| rng.gen_range(0..3u32).to_string())
            .collect();
        facts.push(format!("w({}).", args.join(",")));
    }
    for _ in 0..rng.gen_range(0..4) {
        let again = facts[rng.gen_range(0..facts.len())].clone();
        facts.push(again);
    }
    facts
}

/// A ground program as sets of rendered instances, independent of atom
/// numbering and emission order. Panics if an instance was emitted twice
/// or an interned atom is not found again by its parts.
fn render_ground(gp: &GroundProgram) -> Vec<Vec<String>> {
    let atom = |a: &AtomId| gp.store.format_atom(*a);
    let body = |pos: &[AtomId], neg: &[AtomId]| {
        let mut lits: Vec<String> = pos.iter().map(atom).collect();
        lits.extend(neg.iter().map(|a| format!("not {}", atom(a))));
        lits.join(", ")
    };
    let sorted = |mut v: Vec<String>| {
        v.sort();
        let len = v.len();
        v.dedup();
        assert_eq!(v.len(), len, "an instance was emitted twice: {v:?}");
        v
    };
    for i in 0..gp.atom_count() as u32 {
        let (pred, args) = gp.store.atom_data(AtomId(i));
        assert_eq!(gp.store.find_atom(pred, args), Some(AtomId(i)));
    }
    let rules = gp
        .rules
        .iter()
        .map(|r| format!("{} :- {}", atom(&r.head), body(&r.pos, &r.neg)));
    let choices = gp.choices.iter().map(|c| {
        let mut elems: Vec<String> = c.elements.iter().map(atom).collect();
        elems.sort();
        let (lower, upper) = (c.lower, c.upper);
        format!("{lower:?} {elems:?} {upper:?} :- {}", body(&c.pos, &c.neg))
    });
    let constraints = gp
        .constraints
        .iter()
        .map(|c| format!(":- {}", body(&c.pos, &c.neg)));
    let minimize = gp.minimize.iter().map(|m| {
        let tuple: Vec<String> = m.tuple.iter().map(|&t| gp.store.format_term(t)).collect();
        format!("{}@{},{tuple:?} : {}", m.weight, m.priority, body(&m.pos, &m.neg))
    });
    vec![
        sorted(rules.collect()),
        sorted(choices.collect()),
        sorted(constraints.collect()),
        sorted(minimize.collect()),
        sorted(gp.possible.iter().map(atom).collect()),
        sorted(gp.certain.iter().map(atom).collect()),
    ]
}

#[test]
fn relational_grounding_ignores_fact_order() {
    let mut rng = StdRng::seed_from_u64(20240042);
    // Cases that reached: a compound probe (`s/1`), a wide compound
    // probe (`u/1`), a derived wide atom (`w2/10`), a choice, a
    // constraint, a minimize term.
    let mut reached = [0usize; 6];
    for case in 0..200 {
        let mut facts = relational_facts(&mut rng);
        let forward = format!("{}\n{RELATIONAL_RULES}", facts.join("\n"));
        facts.reverse();
        let reversed = format!("{}\n{RELATIONAL_RULES}", facts.join("\n"));
        let a = render_ground(&ground(&parse_program(&forward).unwrap()).unwrap());
        let b = render_ground(&ground(&parse_program(&reversed).unwrap()).unwrap());
        assert_eq!(a, b, "case {case}:\n{forward}");
        let possible = |pred: &str| a[4].iter().any(|atom| atom.starts_with(pred));
        let hits = [
            possible("s("),
            possible("u("),
            possible("w2("),
            !a[1].is_empty(),
            !a[2].is_empty(),
            !a[3].is_empty(),
        ];
        for (count, hit) in reached.iter_mut().zip(hits) {
            *count += usize::from(hit);
        }
    }
    assert!(
        reached.iter().all(|&n| n >= 10),
        "coverage per shape: {reached:?}"
    );
}
