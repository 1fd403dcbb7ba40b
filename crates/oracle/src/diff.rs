//! The differential harness: one function per case kind, shared by the
//! `cargo test` property suites and the `fuzz-solve` binary.
//!
//! A *program case* generates a random logic program, runs the
//! production solver (enumeration and optimization) and the brute-force
//! oracle on the same grounding, and requires:
//!
//! * identical stable-model sets (compared as rendered atom text);
//! * identical lexicographic `#minimize` optima;
//! * every production model to pass the independent certificate checker.
//!
//! A *repo case* generates a random repository and goal spec, and
//! cross-checks the concretizer: the exact solver input (via
//! [`Concretizer::program`]) must equal the parse of its rendered text
//! ([`Concretizer::program_text`]); it is re-solved, its optimal model
//! is certificate-checked and every cheaper cost refuted
//! ([`refute_improvement`]), the old-Spack and splice-Spack
//! configurations must agree on satisfiability and (with no
//! buildcaches in play) on the chosen versions, and returned specs must
//! satisfy DAG-hash invariants.

use crate::genprog::random_program;
use crate::genrepo::random_repo_and_spec;
use crate::optimum::refute_improvement;
use crate::reference;
use proptest::TestRng;
use rustc_hash::FxHashSet;
use spackle_asp::certify;
use spackle_asp::ground::ground;
use spackle_asp::program::Heuristic;
use spackle_asp::stability::is_tight;
use spackle_asp::term::AtomId;
use spackle_asp::{parse_program, AspError, Program, Rule, SolveOutcome, Solver};
use spackle_core::{Concretizer, ConcretizerConfig, CoreError, Goal};

/// Cap on free atoms for program-case oracle enumeration.
pub const PROGRAM_CASE_MAX_FREE: usize = 14;
/// Cap on full model-set comparison; beyond it only containment and the
/// optimum are checked (keeps worst-case powerset programs fast).
const MAX_ENUMERATED: usize = 48;

/// What a differential case did — useful for fuzz-loop telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Stable models the oracle found (program cases).
    pub models: usize,
    /// The case was skipped (too large for the oracle / resource limit).
    pub skipped: bool,
    /// The program case's ground program is tight, so the production
    /// solver skipped its stability check.
    pub tight: bool,
    /// Nonzero optimum levels refuted below (repo cases).
    pub refuted_levels: usize,
}

/// Run one program differential case. `Err` carries a human-readable
/// mismatch description including enough detail to reproduce.
pub fn check_program_case(seed: u64) -> Result<CaseStats, String> {
    let mut rng = TestRng::seed_from_u64(seed);
    let prog = random_program(&mut rng);
    let fail = |msg: String| Err(format!("[program seed {seed}] {msg}\nprogram:\n{prog}"));

    let gp = match ground(&prog) {
        Ok(gp) => gp,
        Err(AspError::ResourceLimit(_)) => {
            return Ok(CaseStats {
                skipped: true,
                ..Default::default()
            })
        }
        Err(e) => return fail(format!("grounder rejected generated program: {e}")),
    };
    let tight = is_tight(&gp);

    let oracle = match reference::solve(&gp, PROGRAM_CASE_MAX_FREE) {
        Ok(s) => s,
        Err(reference::OracleError::TooLarge { .. }) => {
            return Ok(CaseStats {
                skipped: true,
                tight,
                ..Default::default()
            })
        }
    };
    let oracle_rendered: Vec<Vec<String>> = oracle
        .models
        .iter()
        .map(|m| reference::render(&gp, m))
        .collect();

    let solver = Solver::new();

    // ---- model-set comparison (enumeration ignores #minimize) ----
    let limit = (oracle.models.len() + 1).min(MAX_ENUMERATED + 1);
    let produced = match solver.enumerate(&prog, limit) {
        Ok(ms) => ms,
        Err(e) => return fail(format!("production enumerate failed: {e}")),
    };
    for m in &produced {
        let set: FxHashSet<AtomId> = m.true_atoms().collect();
        if let Err(e) = certify::certify_atoms(m.ground(), &set) {
            return fail(format!(
                "production model failed certification: {e}\nmodel: {:?}",
                m.render()
            ));
        }
    }
    let mut produced_rendered: Vec<Vec<String>> = produced.iter().map(|m| m.render()).collect();
    produced_rendered.sort();
    if oracle.models.len() <= MAX_ENUMERATED {
        let mut want = oracle_rendered.clone();
        want.sort();
        if produced_rendered != want {
            return fail(format!(
                "stable-model sets differ\noracle ({} models): {want:?}\nproduction ({}): \
                 {produced_rendered:?}",
                want.len(),
                produced_rendered.len()
            ));
        }
    } else {
        // Spot-check: everything produced must be an oracle model.
        for m in &produced_rendered {
            if !oracle_rendered.contains(m) {
                return fail(format!("production emitted a non-model: {m:?}"));
            }
        }
    }

    // ---- optimum comparison ----
    let (outcome, _) = match solver.solve(&prog) {
        Ok(r) => r,
        Err(e) => return fail(format!("production solve failed: {e}")),
    };
    match (outcome, oracle.best_cost()) {
        (SolveOutcome::Unsat, None) => {}
        (SolveOutcome::Unsat, Some(_)) => {
            return fail(format!(
                "production says UNSAT but oracle found {} models",
                oracle.models.len()
            ))
        }
        (SolveOutcome::Optimal(m), None) => {
            return fail(format!(
                "production found a model but oracle found none: {:?}",
                m.render()
            ))
        }
        (SolveOutcome::Optimal(m), Some(best)) => {
            if let Err(e) = certify::certify_model(&m) {
                return fail(format!("optimal model failed certification: {e}"));
            }
            if m.cost.as_slice() != best {
                return fail(format!(
                    "optima differ: production {:?} vs oracle {best:?} (model {:?})",
                    m.cost,
                    m.render()
                ));
            }
            let rendered = m.render();
            let optimal: Vec<&Vec<String>> = oracle
                .optimal_models()
                .into_iter()
                .map(|i| &oracle_rendered[i])
                .collect();
            if !optimal.iter().any(|o| **o == rendered) {
                return fail(format!(
                    "production optimum {rendered:?} is not among the oracle's optimal models"
                ));
            }
        }
    }

    Ok(CaseStats {
        models: oracle.models.len(),
        tight,
        ..Default::default()
    })
}

/// Where `assembled` (the program [`Concretizer::program`] builds from
/// the encoder's atoms) first differs from `parsed` (the parse of its
/// rendered text), or `None` when the two are equal rule for rule,
/// minimize element for minimize element and heuristic for heuristic.
pub fn program_mismatch(assembled: &Program, parsed: &Program) -> Option<String> {
    let (a, p) = (&assembled.rules, &parsed.rules);
    if let Some(i) = (0..a.len().max(p.len())).find(|&i| a.get(i) != p.get(i)) {
        let show = |r: Option<&Rule>| r.map_or_else(|| "nothing".to_string(), Rule::to_string);
        return Some(format!(
            "rule {i} of {}/{}: assembled {} vs parsed {}",
            a.len(),
            p.len(),
            show(a.get(i)),
            show(p.get(i))
        ));
    }
    let (a, p) = (&assembled.minimize, &parsed.minimize);
    if let Some(i) = (0..a.len().max(p.len())).find(|&i| a.get(i) != p.get(i)) {
        return Some(format!(
            "minimize element {i} of {}/{}: assembled {:?} vs parsed {:?}",
            a.len(),
            p.len(),
            a.get(i),
            p.get(i)
        ));
    }
    let (a, p) = (&assembled.heuristics, &parsed.heuristics);
    if let Some(i) = (0..a.len().max(p.len())).find(|&i| a.get(i) != p.get(i)) {
        let show =
            |h: Option<&Heuristic>| h.map_or_else(|| "nothing".to_string(), Heuristic::to_string);
        return Some(format!(
            "heuristic {i} of {}/{}: assembled {} vs parsed {}",
            a.len(),
            p.len(),
            show(a.get(i)),
            show(p.get(i))
        ));
    }
    None
}

/// Run one concretizer differential case.
pub fn check_repo_case(seed: u64) -> Result<CaseStats, String> {
    let mut rng = TestRng::seed_from_u64(seed);
    let (repo, spec) = random_repo_and_spec(&mut rng);
    let fail = |msg: String| Err(format!("[repo seed {seed}] {msg}\ngoal: {spec}"));
    let goal = Goal::single(spec.clone());

    // Solve the exact program the (splice-spack) concretizer would,
    // after checking that its rendered text parses back to it;
    // certificate-check the optimal model independently of the
    // concretizer's own debug assertions, and prove its cost optimal.
    let conc = Concretizer::new(&repo);
    let prog = match conc.program(&goal) {
        Ok(p) => p,
        Err(e) => return fail(format!("encode failed: {e}")),
    };
    let text = match conc.program_text(&goal) {
        Ok(enc) => enc.program,
        Err(e) => return fail(format!("encode failed: {e}")),
    };
    match parse_program(&text) {
        Ok(parsed) => {
            if let Some(m) = program_mismatch(&prog, &parsed) {
                return fail(format!("assembled program differs from its text: {m}"));
            }
        }
        Err(e) => return fail(format!("generated program does not parse: {e}")),
    }
    let refuted_levels = match Solver::new().solve(&prog) {
        Err(e) => return fail(format!("solver failed on encoded program: {e}")),
        Ok((SolveOutcome::Unsat, _)) => 0,
        Ok((SolveOutcome::Optimal(m), _)) => {
            if let Err(e) = certify::certify_model(&m) {
                return fail(format!("encoded-program model failed certification: {e}"));
            }
            match refute_improvement(m.ground(), &m.cost) {
                Ok(levels) => levels,
                Err(e) => return fail(format!("encoded-program optimum is not optimal: {e}")),
            }
        }
    };

    // Metamorphic cross-configuration check: with no buildcaches, the
    // direct (old spack) and indirect+splicing (splice spack)
    // configurations must agree on satisfiability and resolve the same
    // package versions.
    let old = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::old_spack())
        .concretize_goal(&goal);
    let new = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack())
        .concretize_goal(&goal);
    match (old, new) {
        (Err(CoreError::Unsatisfiable), Err(CoreError::Unsatisfiable)) => {}
        (Err(e), _) => return fail(format!("old-spack config failed: {e}")),
        (_, Err(e)) => return fail(format!("splice-spack config failed: {e}")),
        (Ok(a), Ok(b)) => {
            for (sa, sb) in a.specs.iter().zip(b.specs.iter()) {
                let mut va: Vec<String> = sa
                    .nodes()
                    .iter()
                    .map(|n| format!("{}@{}", n.name, n.version))
                    .collect();
                let mut vb: Vec<String> = sb
                    .nodes()
                    .iter()
                    .map(|n| format!("{}@{}", n.name, n.version))
                    .collect();
                va.sort();
                vb.sort();
                if va != vb {
                    return fail(format!(
                        "configs disagree on resolution: old {va:?} vs splice {vb:?}"
                    ));
                }
            }
            // DAG-hash invariant: re-hashing a returned spec is a fixpoint.
            for s in a.specs.iter().chain(b.specs.iter()) {
                let mut r = s.clone();
                if let Err(e) = r.rehash() {
                    return fail(format!("rehash failed: {e}"));
                }
                if r.dag_hash() != s.dag_hash() {
                    return fail(format!(
                        "dag hash not a rehash fixpoint for {}",
                        s.root().name
                    ));
                }
            }
        }
    }

    Ok(CaseStats {
        refuted_levels,
        ..Default::default()
    })
}
