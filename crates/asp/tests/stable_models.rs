//! The engine's ground-truth test: on randomly generated propositional
//! programs, the solver's answer must agree with brute-force stable-model
//! enumeration — existence, stability of the returned model, constraint
//! satisfaction, and optimality of the cost vector. The brute force
//! decides each candidate with `certify::certify_atoms`, whose naive
//! fixpoint shares no code with the solver's stability check.

use proptest::prelude::*;
use rustc_hash::FxHashSet;
use spackle_asp::certify::certify_atoms;
use spackle_asp::ground::ground;
use spackle_asp::parse_program;
use spackle_asp::term::AtomId;
use spackle_asp::{SolveOutcome, Solver};

/// A tiny random propositional program over atoms a0..a{n-1}:
/// some facts, some choices, normal rules with negation, constraints,
/// and a minimize statement.
#[derive(Debug, Clone)]
struct RandomProgram {
    text: String,
}

fn atom(i: usize) -> String {
    format!("a{i}")
}

fn random_program() -> impl Strategy<Value = RandomProgram> {
    let n_atoms = 5usize;
    // Rules: (head, body_pos, body_neg) with small bodies.
    let lit = 0..n_atoms;
    let body = prop::collection::vec((lit.clone(), prop::bool::ANY), 0..3);
    let rule = (0..n_atoms, body);
    let rules = prop::collection::vec(rule, 0..6);
    let facts = prop::collection::vec(0..n_atoms, 0..2);
    let choices = prop::collection::vec(0..n_atoms, 0..3);
    let constraints = prop::collection::vec(
        prop::collection::vec((lit, prop::bool::ANY), 1..3),
        0..2,
    );
    let min_atoms = prop::collection::vec((0..n_atoms, 1..4i64), 0..3);

    (facts, choices, rules, constraints, min_atoms).prop_map(
        |(facts, choices, rules, constraints, min_atoms)| {
            let mut text = String::new();
            for f in facts {
                text.push_str(&format!("{}.\n", atom(f)));
            }
            for c in choices {
                text.push_str(&format!("{{ {} }}.\n", atom(c)));
            }
            for (head, body) in rules {
                if body.is_empty() {
                    continue; // already covered by facts
                }
                let parts: Vec<String> = body
                    .iter()
                    .map(|(a, pos)| {
                        if *pos {
                            atom(*a)
                        } else {
                            format!("not {}", atom(*a))
                        }
                    })
                    .collect();
                text.push_str(&format!("{} :- {}.\n", atom(head), parts.join(", ")));
            }
            for c in constraints {
                let parts: Vec<String> = c
                    .iter()
                    .map(|(a, pos)| {
                        if *pos {
                            atom(*a)
                        } else {
                            format!("not {}", atom(*a))
                        }
                    })
                    .collect();
                text.push_str(&format!(":- {}.\n", parts.join(", ")));
            }
            if !min_atoms.is_empty() {
                let parts: Vec<String> = min_atoms
                    .iter()
                    .map(|(a, w)| format!("{w}@1,\"t{a}\" : {}", atom(*a)))
                    .collect();
                text.push_str(&format!("#minimize {{ {} }}.\n", parts.join(" ; ")));
            }
            RandomProgram { text }
        },
    )
}

/// Brute force: enumerate all subsets of possible atoms; return the
/// stable models, which satisfy every rule, constraint and choice bound,
/// with their costs.
fn brute_force(text: &str) -> Vec<(FxHashSet<AtomId>, i64)> {
    let prog = parse_program(text).expect("generated program parses");
    let gp = ground(&prog).expect("generated program grounds");
    let possible: Vec<AtomId> = gp.possible.iter().collect();
    let n = possible.len();
    assert!(n <= 20, "universe too large for brute force");
    let mut out = Vec::new();
    for mask in 0u32..(1 << n) {
        let model: FxHashSet<AtomId> = possible
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &a)| a)
            .collect();
        if certify_atoms(&gp, &model).is_err() {
            continue;
        }
        // Cost: sum weights of distinct tuples whose condition holds.
        let mut cost = 0i64;
        let mut seen_tuples = FxHashSet::default();
        for m in &gp.minimize {
            let holds = m.pos.iter().all(|a| model.contains(a))
                && m.neg.iter().all(|a| !model.contains(a));
            if holds && seen_tuples.insert((m.priority, m.weight, m.tuple.clone())) {
                cost += m.weight;
            }
        }
        out.push((model, cost));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn solver_agrees_with_bruteforce(p in random_program()) {
        let brute = brute_force(&p.text);
        let prog = parse_program(&p.text).unwrap();
        let (outcome, _) = Solver::new().solve(&prog).unwrap();
        match outcome {
            SolveOutcome::Unsat => {
                prop_assert!(
                    brute.is_empty(),
                    "solver says UNSAT but brute force found {} stable models\nprogram:\n{}",
                    brute.len(),
                    p.text
                );
            }
            SolveOutcome::Optimal(model) => {
                prop_assert!(
                    !brute.is_empty(),
                    "solver found a model but brute force says none\nprogram:\n{}",
                    p.text
                );
                // The returned cost must equal the brute-force optimum.
                let best = brute.iter().map(|(_, c)| *c).min().unwrap();
                let got: i64 = model.cost.iter().map(|(_, c)| *c).sum();
                prop_assert_eq!(
                    got, best,
                    "suboptimal: got {} want {}\nprogram:\n{}",
                    got, best, p.text
                );
                // And the model itself must be one of the stable models.
                let rendered: std::collections::BTreeSet<String> =
                    model.render().into_iter().collect();
                let brute_sets: Vec<std::collections::BTreeSet<String>> = {
                    let prog2 = parse_program(&p.text).unwrap();
                    let gp = ground(&prog2).unwrap();
                    brute
                        .iter()
                        .map(|(m, _)| {
                            m.iter().map(|&a| gp.store.format_atom(a)).collect()
                        })
                        .collect()
                };
                prop_assert!(
                    brute_sets.contains(&rendered),
                    "returned model is not among brute-force stable models\nmodel: {:?}\nprogram:\n{}",
                    rendered,
                    p.text
                );
            }
        }
    }
}

/// A handful of tricky fixed programs, checked exactly.
#[test]
fn fixed_corner_cases() {
    // Even negation loop: two stable models; minimize picks the cheaper.
    let text = r#"
        a :- not b.
        b :- not a.
        #minimize { 3@1,"a" : a ; 1@1,"b" : b }.
    "#;
    let (outcome, _) = Solver::new().solve(&parse_program(text).unwrap()).unwrap();
    match outcome {
        SolveOutcome::Optimal(m) => {
            assert!(m.holds_str("b", &[]));
            assert!(!m.holds_str("a", &[]));
            assert_eq!(m.cost, vec![(1, 1)]);
        }
        SolveOutcome::Unsat => panic!("even loop has stable models"),
    }

    // Odd negation loop: no stable model.
    let text = "a :- not a.";
    let (outcome, _) = Solver::new().solve(&parse_program(text).unwrap()).unwrap();
    assert!(matches!(outcome, SolveOutcome::Unsat));

    // Odd loop defused by a fact.
    let text = "a :- not a. a.";
    let (outcome, _) = Solver::new().solve(&parse_program(text).unwrap()).unwrap();
    assert!(matches!(outcome, SolveOutcome::Optimal(_)));

    // Positive loop with choice-driven external support and a constraint
    // requiring the loop: the choice must fire.
    let text = r#"
        { ext }.
        x :- y.
        y :- x.
        x :- ext.
        :- not y.
    "#;
    let (outcome, _) = Solver::new().solve(&parse_program(text).unwrap()).unwrap();
    match outcome {
        SolveOutcome::Optimal(m) => {
            assert!(m.holds_str("ext", &[]));
            assert!(m.holds_str("x", &[]));
            assert!(m.holds_str("y", &[]));
        }
        SolveOutcome::Unsat => panic!("supported loop model exists"),
    }
}
