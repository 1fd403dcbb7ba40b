//! Property suite for unsat-core extraction, checked against the
//! brute-force reference oracle on the same random corpus the solver
//! matrix uses.
//!
//! Three properties:
//!
//! 1. **Agreement** — `explain_ground` says `Satisfiable` exactly when
//!    the oracle enumerates at least one stable model, and `Unsat`
//!    (with a non-empty core) exactly when it enumerates none.
//! 2. **Soundness + minimality** — verified against an independent
//!    brute-force model of the extractor's semantics. A core is a set
//!    of *soft clause groups* (ground rules, choice bounds,
//!    constraints, completions); an assignment "satisfies" a candidate
//!    set of groups when it classically satisfies each group and every
//!    true atom is founded (non-circularly derivable) through the
//!    *full* program — exactly what the extractor's selector-guarded
//!    CNF plus stability CEGAR enforces. The reported core must admit
//!    no such assignment (soundness), and when flagged `minimal`,
//!    dropping any single member must admit one (drop-one SAT). Note
//!    this is deliberately *not* "delete the construct from the source
//!    program and re-solve": removing a rule also strengthens its
//!    head's completion, so textual deletion over-approximates the
//!    clause-level drop and the textual property is genuinely false.
//! 3. **Config stability** — extraction runs under one fixed internal
//!    engine configuration, so the rendered core must be bit-identical
//!    under every [`SolverConfig`] toggle combination of the solver
//!    matrix, including the seed engine.
//!
//! Set `UNSAT_CORE_CASES` to shrink or grow the random scan.

use proptest::TestRng;
use rustc_hash::FxHashSet;
use spackle_asp::ground::{ground, GroundProgram};
use spackle_asp::term::AtomId;
use spackle_asp::{ClauseOrigin, ExplainConfig, ExplainOutcome, Solver, SolverConfig, UnsatCore};
use spackle_oracle::genprog::random_program;
use spackle_oracle::reference;

/// The solver-matrix configuration grid (mirrors `solver_matrix.rs`).
fn matrix() -> Vec<(&'static str, SolverConfig)> {
    let all_on = SolverConfig::default();
    let one_off = |f: &dyn Fn(&mut SolverConfig)| {
        let mut c = all_on.clone();
        f(&mut c);
        c
    };
    vec![
        ("all-on", all_on.clone()),
        ("all-off", SolverConfig::seed_engine()),
        ("no-phase-saving", one_off(&|c| c.sat.phase_saving = false)),
        ("no-restarts", one_off(&|c| c.sat.restarts = false)),
        (
            "no-incremental-bnb",
            one_off(&|c| c.incremental_bnb = false),
        ),
    ]
}

fn env_cases(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Ground the seed's random program, or `None` when it exceeds the
/// oracle's exhaustive-search cap.
fn oracle_case(seed: u64) -> Option<(GroundProgram, bool)> {
    let mut rng = TestRng::seed_from_u64(seed);
    let prog = random_program(&mut rng);
    let gp = ground(&prog).expect("generated programs always ground");
    match reference::stable_models(&gp, reference::DEFAULT_MAX_FREE_ATOMS) {
        Ok(models) => {
            let sat = !models.is_empty();
            Some((gp, sat))
        }
        Err(reference::OracleError::TooLarge { .. }) => None,
    }
}

// ---------------------------------------------------------------------
// Brute-force model of the extractor's clause-group semantics
// ---------------------------------------------------------------------

fn holds_body(m: &FxHashSet<AtomId>, pos: &[AtomId], neg: &[AtomId]) -> bool {
    pos.iter().all(|a| m.contains(a)) && !neg.iter().any(|a| m.contains(a))
}

/// Classical support for `a` in candidate `m`: some rule with head `a`
/// (or choice instance offering `a`) whose body holds in `m`.
fn supported(gp: &GroundProgram, a: AtomId, m: &FxHashSet<AtomId>) -> bool {
    gp.rules
        .iter()
        .any(|r| r.head == a && holds_body(m, &r.pos, &r.neg))
        || gp
            .choices
            .iter()
            .any(|c| c.elements.contains(&a) && holds_body(m, &c.pos, &c.neg))
}

/// Does candidate `m` classically satisfy one soft clause group of the
/// full program?
fn group_satisfied(gp: &GroundProgram, origin: ClauseOrigin, m: &FxHashSet<AtomId>) -> bool {
    match origin {
        ClauseOrigin::Rule(i) => {
            let r = &gp.rules[i as usize];
            !holds_body(m, &r.pos, &r.neg) || m.contains(&r.head)
        }
        ClauseOrigin::Choice(i) => {
            let c = &gp.choices[i as usize];
            if !holds_body(m, &c.pos, &c.neg) {
                return true;
            }
            let chosen = c.elements.iter().filter(|e| m.contains(e)).count() as u32;
            !(c.lower.is_some_and(|l| chosen < l) || c.upper.is_some_and(|u| chosen > u))
        }
        ClauseOrigin::Constraint(i) => {
            let c = &gp.constraints[i as usize];
            !holds_body(m, &c.pos, &c.neg)
        }
        ClauseOrigin::Completion(a) => !m.contains(&a) || supported(gp, a, m),
        ClauseOrigin::Definition => true,
    }
}

/// Is the candidate free of unfounded sets? Foundedness is enforced by
/// the extractor through *hard* lazily-generated loop nogoods, and only
/// over the grounder's `possible` universe (the stability check sees
/// the SAT model filtered to `gp.possible`, so atoms outside it — those
/// no rule can ever derive — are constrained solely by their soft
/// completion groups). Mirroring `check_stability`, the reduct drops a
/// deriver when a negated atom is true *in the possible projection*.
fn founded(gp: &GroundProgram, m: &FxHashSet<AtomId>) -> bool {
    let mp: FxHashSet<AtomId> = m
        .iter()
        .copied()
        .filter(|a| gp.possible.contains(a))
        .collect();
    let mut f: FxHashSet<AtomId> = FxHashSet::default();
    loop {
        let mut changed = false;
        for r in &gp.rules {
            if mp.contains(&r.head)
                && !f.contains(&r.head)
                && !r.neg.iter().any(|a| mp.contains(a))
                && r.pos.iter().all(|a| f.contains(a))
            {
                f.insert(r.head);
                changed = true;
            }
        }
        for c in &gp.choices {
            if !c.neg.iter().any(|a| mp.contains(a)) && c.pos.iter().all(|a| f.contains(a)) {
                for &e in c.elements.iter() {
                    if mp.contains(&e) && f.insert(e) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    mp.iter().all(|a| f.contains(a))
}

/// Enumeration cap for the group-satisfiability brute force (2^14
/// candidates worst case).
const MAX_BRUTE_ATOMS: usize = 14;

/// Is there a founded candidate satisfying every group in `groups`?
/// `None` when the atom universe is too large to enumerate. The
/// universe is *every* interned atom, not just `possible`: atoms no
/// rule derives still carry a CNF variable and a completion group, and
/// become free once that group is dropped.
fn groups_satisfiable(gp: &GroundProgram, groups: &[ClauseOrigin]) -> Option<bool> {
    let atoms: Vec<AtomId> = (0..gp.atom_count() as u32).map(AtomId).collect();
    if atoms.len() > MAX_BRUTE_ATOMS {
        return None;
    }
    for mask in 0u64..(1u64 << atoms.len()) {
        let m: FxHashSet<AtomId> = atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| (mask >> i) & 1 == 1)
            .map(|(_, &a)| a)
            .collect();
        if groups.iter().all(|&g| group_satisfied(gp, g, &m)) && founded(gp, &m) {
            return Some(true);
        }
    }
    Some(false)
}

fn origins(core: &UnsatCore) -> Vec<ClauseOrigin> {
    core.members.iter().map(|m| m.origin).collect()
}

fn render_core(core: &UnsatCore) -> String {
    core.members
        .iter()
        .map(|m| m.text.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_agrees_with_oracle_and_cores_are_sound_and_minimal() {
    let cases = env_cases("UNSAT_CORE_CASES", 256);
    let solver = Solver::new();
    let cfg = ExplainConfig::default();
    let (mut sat_cases, mut unsat_cases) = (0u64, 0u64);
    let (mut soundness_checks, mut drop_one_checks) = (0u64, 0u64);

    for seed in 0..cases {
        let Some((gp, oracle_sat)) = oracle_case(seed) else {
            continue;
        };
        let (outcome, stats) = solver
            .explain_ground(&gp, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: explain failed: {e}"));
        match outcome {
            ExplainOutcome::Satisfiable => {
                assert!(oracle_sat, "seed {seed}: explain says SAT, oracle says UNSAT");
                sat_cases += 1;
            }
            ExplainOutcome::Unsat(core) => {
                assert!(!oracle_sat, "seed {seed}: explain says UNSAT, oracle says SAT");
                assert!(!core.members.is_empty(), "seed {seed}: empty core");
                assert!(core.minimal, "seed {seed}: default budget must minimize fully");
                assert!(
                    stats.explain_core_initial >= stats.explain_core_minimized,
                    "seed {seed}: minimization grew the core"
                );
                unsat_cases += 1;

                // Soundness: no founded assignment satisfies the whole
                // core.
                let all = origins(&core);
                if let Some(sat) = groups_satisfiable(&gp, &all) {
                    assert!(
                        !sat,
                        "seed {seed}: reported core is satisfiable — not a core:\n{}",
                        render_core(&core)
                    );
                    soundness_checks += 1;

                    // Minimality: dropping any single member restores
                    // group-level satisfiability.
                    for k in 0..all.len() {
                        let mut rest = all.clone();
                        rest.remove(k);
                        let sat = groups_satisfiable(&gp, &rest)
                            .expect("same universe as the full-core check");
                        assert!(
                            sat,
                            "seed {seed}: core flagged minimal, but member {:?} ({}) is \
                             redundant-proof-resistant: the remainder is still unsatisfiable\n{}",
                            core.members[k].origin,
                            core.members[k].text,
                            render_core(&core)
                        );
                        drop_one_checks += 1;
                    }
                }
            }
        }
    }
    assert!(
        sat_cases >= 20 && unsat_cases >= 20,
        "corpus skew ({sat_cases} SAT / {unsat_cases} UNSAT) — generator drift?"
    );
    assert!(
        soundness_checks >= 20 && drop_one_checks >= 40,
        "too few brute-force checks ran ({soundness_checks} soundness, {drop_one_checks} drop-one)"
    );
}

#[test]
fn cores_are_identical_under_every_engine_config() {
    let cases = env_cases("UNSAT_CORE_CASES", 256);
    let configs = matrix();
    let cfg = ExplainConfig::default();
    let mut unsat_cases = 0u64;

    for seed in 0..cases {
        let Some((gp, oracle_sat)) = oracle_case(seed) else {
            continue;
        };
        if oracle_sat {
            continue;
        }
        unsat_cases += 1;
        let mut reference_core: Option<(Vec<String>, bool)> = None;
        for (name, config) in &configs {
            let (outcome, _) = Solver::with_config(config.clone())
                .explain_ground(&gp, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed}, config {name}: {e}"));
            let ExplainOutcome::Unsat(core) = outcome else {
                panic!("seed {seed}, config {name}: lost unsatisfiability")
            };
            let rendered: Vec<String> = core.members.iter().map(|m| m.text.clone()).collect();
            match &reference_core {
                None => reference_core = Some((rendered, core.minimal)),
                Some((want, want_minimal)) => {
                    assert_eq!(
                        want, &rendered,
                        "seed {seed}: core under {name} differs from {}",
                        configs[0].0
                    );
                    assert_eq!(want_minimal, &core.minimal, "seed {seed}, config {name}");
                }
            }
        }
    }
    assert!(unsat_cases >= 20, "only {unsat_cases} UNSAT cases scanned");
}

#[test]
fn corpus_seeds_explain_deterministically() {
    // The committed fuzz corpus, same parsing idiom as the solver
    // matrix: every program seed must explain identically twice in a
    // row (exact member texts), and source-rule provenance must stay in
    // bounds.
    let corpus = include_str!("../corpus/seeds.txt");
    let solver = Solver::new();
    let cfg = ExplainConfig::default();
    let mut ran = 0;
    for line in corpus.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let seed: u64 = match line.strip_prefix("program:") {
            Some(s) => s.trim().parse().unwrap(),
            None => match line.strip_prefix("repo:") {
                Some(_) => continue,
                None => line.parse().unwrap(),
            },
        };
        let mut rng = TestRng::seed_from_u64(seed);
        let prog = random_program(&mut rng);
        let nrules = prog.rules.len() as u32;
        let gp = ground(&prog).unwrap();
        let render = |o: &ExplainOutcome| match o {
            ExplainOutcome::Satisfiable => Vec::new(),
            ExplainOutcome::Unsat(core) => {
                for m in &core.members {
                    if let Some(src) = m.src_rule {
                        assert!(
                            src < nrules,
                            "corpus seed {seed}: src_rule {src} out of bounds ({nrules} rules)"
                        );
                    }
                }
                core.members.iter().map(|m| m.text.clone()).collect()
            }
        };
        let (first, _) = solver.explain_ground(&gp, &cfg).unwrap();
        let (second, _) = solver.explain_ground(&gp, &cfg).unwrap();
        assert_eq!(
            render(&first),
            render(&second),
            "corpus seed {seed}: explain is not deterministic"
        );
        ran += 1;
    }
    assert!(ran >= 4, "corpus unexpectedly small ({ran} program cases)");
}
