//! Random logic-program generation for differential testing.
//!
//! Programs are built directly as ASTs (not text) so generation can
//! never fail to parse, and are kept small enough for the brute-force
//! reference solver: a handful of propositional atoms plus one optional
//! relational "flavor" that exercises grounder joins, comparisons,
//! conditional choice elements, and variable minimize tuples.
//!
//! Generated programs stay inside the engine's documented fragment:
//! choice-element conditions only mention certain (fact-derived) atoms,
//! `#minimize` weights are non-negative, and every rule is safe.

use proptest::TestRng;
use spackle_asp::program::{BodyElem, ChoiceElem, CmpOp, Head, MinimizeElem, Rule};
use spackle_asp::{Atom, Program, Term};

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

fn pick_atom(rng: &mut TestRng, props: &[Atom]) -> Atom {
    props[rng.below(props.len() as u64) as usize].clone()
}

/// Generate a random program. Deterministic in `rng`'s state; every
/// draw of the same seed yields the same program.
pub fn random_program(rng: &mut TestRng) -> Program {
    let mut prog = Program::new();

    // Propositional pool p0..p{k-1}.
    let nprops = 2 + rng.below(4) as usize; // 2..=5
    let props: Vec<Atom> = (0..nprops)
        .map(|i| Atom::new(&format!("p{i}"), Vec::new()))
        .collect();

    for a in &props {
        if chance(rng, 15) {
            prog.fact(a.clone());
        }
    }

    // Normal rules with positive and negated propositional bodies.
    for _ in 0..rng.below(6) {
        let head = pick_atom(rng, &props);
        let mut body = Vec::new();
        for _ in 0..rng.below(3) {
            body.push(BodyElem::Pos(pick_atom(rng, &props)));
        }
        for _ in 0..rng.below(3) {
            body.push(BodyElem::Neg(pick_atom(rng, &props)));
        }
        prog.rule(Rule {
            head: Head::Atom(head),
            body,
        });
    }

    // Unconditional choice rules, possibly bounded, possibly guarded.
    for _ in 0..rng.below(3) {
        let nelem = 1 + rng.below(3);
        let elements: Vec<ChoiceElem> = (0..nelem)
            .map(|_| ChoiceElem {
                atom: pick_atom(rng, &props),
                condition: Vec::new(),
            })
            .collect();
        let lower = chance(rng, 50).then(|| rng.below(nelem + 2) as u32);
        let upper = chance(rng, 50).then(|| rng.below(nelem + 1) as u32);
        let mut body = Vec::new();
        if chance(rng, 30) {
            body.push(BodyElem::Pos(pick_atom(rng, &props)));
        }
        if chance(rng, 30) {
            body.push(BodyElem::Neg(pick_atom(rng, &props)));
        }
        prog.rule(Rule {
            head: Head::Choice {
                lower,
                upper,
                elements,
            },
            body,
        });
    }

    // Integrity constraints.
    for _ in 0..rng.below(3) {
        let mut body = vec![BodyElem::Pos(pick_atom(rng, &props))];
        if chance(rng, 50) {
            body.push(BodyElem::Neg(pick_atom(rng, &props)));
        }
        prog.constraint(body);
    }

    // One relational flavor (or none), linking back into the pool.
    let link = pick_atom(rng, &props);
    match rng.below(3) {
        1 => even_loop_flavor(rng, &mut prog, link),
        2 => selection_flavor(rng, &mut prog),
        _ => {}
    }

    // Propositional minimize statements across 1–2 priorities.
    for _ in 0..rng.below(3) {
        let a = pick_atom(rng, &props);
        let cond = if chance(rng, 25) {
            BodyElem::Neg(a)
        } else {
            BodyElem::Pos(a)
        };
        // Composite weights (0, 2, 3, 4, 6, 9, ...) give the optimizer's
        // weighted cardinality counters shared factors to normalize.
        let weight = rng.below(4) as i64 * (1 + rng.below(3) as i64);
        prog.minimize.push(MinimizeElem {
            weight: Term::Int(weight),
            priority: Term::Int(1 + rng.below(2) as i64),
            terms: vec![Term::sym(&format!("t{}", rng.below(3)))],
            condition: vec![cond],
        });
    }

    // A rule negating a predicate no rule derives: the negation always
    // holds, so the grounder proves the head certain. (Drawn last, so the
    // rest of each seed's program is what earlier generators drew.)
    if chance(rng, 50) {
        let head = pick_atom(rng, &props);
        let mut body = vec![BodyElem::Neg(Atom::new("absent", Vec::new()))];
        if chance(rng, 50) {
            body.push(BodyElem::Pos(pick_atom(rng, &props)));
        }
        prog.rule(Rule {
            head: Head::Atom(head),
            body,
        });
    }

    prog
}

fn d(x: i64) -> Atom {
    Atom::new("d", vec![Term::Int(x)])
}

fn unary(pred: &str, t: Term) -> Atom {
    Atom::new(pred, vec![t])
}

/// `q(X) :- d(X), not r(X).  r(X) :- d(X), not q(X).` over a small
/// domain — one even negation loop (two stable branches) per element.
fn even_loop_flavor(rng: &mut TestRng, prog: &mut Program, link: Atom) {
    let m = 1 + rng.below(3) as i64; // 1..=3
    for i in 0..m {
        prog.fact(d(i));
    }
    let x = || Term::var("X");
    for (a, b) in [("q", "r"), ("r", "q")] {
        prog.rule(Rule {
            head: Head::Atom(unary(a, x())),
            body: vec![
                BodyElem::Pos(unary("d", x())),
                BodyElem::Neg(unary(b, x())),
            ],
        });
    }
    if chance(rng, 50) {
        // Tie the relational world to the propositional pool.
        prog.rule(Rule {
            head: Head::Atom(link),
            body: vec![BodyElem::Pos(unary("q", Term::Int(0)))],
        });
    }
    if chance(rng, 50) {
        prog.minimize.push(MinimizeElem {
            weight: Term::Int(1 + rng.below(3) as i64),
            priority: Term::Int(1),
            terms: vec![x()],
            condition: vec![BodyElem::Pos(unary("q", x()))],
        });
    }
}

/// A bounded conditional choice over a domain — the shape of the
/// concretizer's version/variant selection — with a variable-weight
/// minimize and an occasional comparison constraint.
fn selection_flavor(rng: &mut TestRng, prog: &mut Program) {
    let m = 2 + rng.below(2) as i64; // 2..=3
    for i in 0..m {
        prog.fact(unary("cand", Term::Int(i)));
    }
    let x = || Term::var("X");
    let lower = rng.below(2) as u32;
    prog.rule(Rule {
        head: Head::Choice {
            lower: Some(lower),
            upper: Some(lower.max(1)),
            elements: vec![ChoiceElem {
                atom: unary("sel", x()),
                condition: vec![BodyElem::Pos(unary("cand", x()))],
            }],
        },
        body: Vec::new(),
    });
    if chance(rng, 50) {
        // Forbid the largest candidate.
        prog.constraint(vec![
            BodyElem::Pos(unary("sel", x())),
            BodyElem::Cmp(x(), CmpOp::Ge, Term::Int(m - 1)),
        ]);
    }
    // Prefer small indices: weight is the (variable) index itself.
    prog.minimize.push(MinimizeElem {
        weight: x(),
        priority: Term::Int(1 + rng.below(2) as i64),
        terms: vec![x()],
        condition: vec![BodyElem::Pos(unary("sel", x()))],
    });
}
