//! Resource-limit and robustness tests for the ASP engine.

use spackle_asp::ground::{ground_with_limits, GroundLimits};
use spackle_asp::{parse_program, AspError, Solver, SolverConfig};

#[test]
fn atom_limit_aborts_grounding() {
    // Cross product n(X), n(Y) over 100 constants -> 10k pairs, over a
    // 1k limit.
    let mut text = String::new();
    for i in 0..100 {
        text.push_str(&format!("n({i}).\n"));
    }
    text.push_str("pair(X,Y) :- n(X), n(Y).\n");
    let prog = parse_program(&text).unwrap();
    let limits = GroundLimits {
        max_atoms: 1000,
        max_rules: usize::MAX,
    };
    assert!(matches!(
        ground_with_limits(&prog, limits),
        Err(AspError::ResourceLimit(_))
    ));
}

#[test]
fn rule_limit_aborts_emission() {
    let mut text = String::new();
    for i in 0..60 {
        text.push_str(&format!("n({i}).\n"));
    }
    text.push_str("pair(X,Y) :- n(X), n(Y).\n");
    let prog = parse_program(&text).unwrap();
    let limits = GroundLimits {
        max_atoms: usize::MAX,
        max_rules: 500,
    };
    assert!(matches!(
        ground_with_limits(&prog, limits),
        Err(AspError::ResourceLimit(_))
    ));
}

#[test]
fn rule_limit_counts_every_ground_instance() {
    // 60 facts and one choice stay under the limit; the 3,540 ground
    // constraints push the emitted instances past it.
    let mut text = String::new();
    for i in 0..60 {
        text.push_str(&format!("n({i}).\n"));
    }
    text.push_str("{ p(X) : n(X) }.\n");
    text.push_str(":- p(X), p(Y), X != Y.\n");
    let prog = parse_program(&text).unwrap();
    let limits = GroundLimits {
        max_atoms: usize::MAX,
        max_rules: 500,
    };
    assert!(matches!(
        ground_with_limits(&prog, limits),
        Err(AspError::ResourceLimit(_))
    ));
}

#[test]
fn conflict_budget_surfaces_as_resource_limit() {
    // A hard pigeonhole instance expressed in ASP: 8 pigeons, 7 holes,
    // with a 1-conflict budget the solver cannot finish.
    let mut text = String::new();
    for p in 0..8 {
        text.push_str(&format!("pigeon({p}).\n"));
    }
    for h in 0..7 {
        text.push_str(&format!("hole({h}).\n"));
    }
    text.push_str("1 { at(P,H) : hole(H) } 1 :- pigeon(P).\n");
    text.push_str(":- at(P1,H), at(P2,H), P1 != P2.\n");
    let prog = parse_program(&text).unwrap();
    let solver = Solver::with_config(SolverConfig {
        conflict_budget: 1,
        ..Default::default()
    });
    match solver.solve(&prog) {
        Err(AspError::BudgetExhausted { conflicts, .. }) => {
            assert!(conflicts >= 1, "effort counters must be populated");
        }
        Err(other) => panic!("unexpected error {other}"),
        Ok(_) => panic!("1 conflict cannot decide PHP(8,7)"),
    }
    // With an adequate budget the same program is proved UNSAT.
    let solver = Solver::with_config(SolverConfig {
        conflict_budget: 2_000_000,
        ..Default::default()
    });
    let (outcome, stats) = solver.solve(&prog).unwrap();
    assert!(matches!(outcome, spackle_asp::SolveOutcome::Unsat));
    assert!(stats.conflicts > 0);
}

#[test]
fn large_fact_base_grounds_quickly() {
    // 5k facts with an indexed join: should ground in well under a
    // second even in debug builds.
    let mut text = String::new();
    for i in 0..5_000 {
        text.push_str(&format!("edge({i},{}).\n", i + 1));
    }
    text.push_str("succ(X,Y) :- edge(X,Y).\n");
    text.push_str("start(0).\n");
    text.push_str("two(Z) :- start(X), succ(X,Y), succ(Y,Z).\n");
    let prog = parse_program(&text).unwrap();
    let t = std::time::Instant::now();
    let gp = ground_with_limits(&prog, GroundLimits::default()).unwrap();
    assert!(gp.certain.len() > 5_000);
    assert!(
        t.elapsed() < std::time::Duration::from_secs(10),
        "grounding took {:?}",
        t.elapsed()
    );
}

#[test]
fn deep_recursion_does_not_overflow_stack() {
    // A 1500-step derivation chain: iterative algorithms must cope.
    let mut text = String::from("s(0).\n");
    for i in 0..1500 {
        text.push_str(&format!("step({i},{}).\n", i + 1));
    }
    text.push_str("s(Y) :- s(X), step(X,Y).\n");
    let prog = parse_program(&text).unwrap();
    let (outcome, _) = Solver::new().solve(&prog).unwrap();
    match outcome {
        spackle_asp::SolveOutcome::Optimal(m) => {
            assert!(m.len() > 3_000);
        }
        spackle_asp::SolveOutcome::Unsat => panic!("chain is satisfiable"),
    }
}
