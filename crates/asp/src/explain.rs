//! Unsat-core extraction: when a program has no stable model, compute a
//! small set of ground rules/choices/constraints that is already
//! unsatisfiable on its own — the raw material for source-level
//! "why can't this concretize?" diagnostics.
//!
//! ## Method
//!
//! The ground program is re-translated with per-clause provenance
//! ([`translate_collected`]). Every *semantic* clause group — the
//! implication clauses of one ground rule, the bound assertions of one
//! choice instance, one integrity constraint, one atom's completion
//! clause — is guarded by a fresh **selector** variable `s_g`
//! (`s_g → clause`); definitional circuitry (body-literal definitions,
//! sequential counters, the constant-true unit) stays hard, since it
//! only introduces fresh literals and can never cause unsatisfiability
//! by itself. Solving under the assumption that every selector is true
//! is then equivalent to solving the original formula, and when the
//! answer is UNSAT, MiniSat-style final-conflict analysis
//! ([`Sat::final_core`]) yields the subset of selectors — i.e. of
//! semantic groups — that participated in the conflict.
//!
//! That initial core is then shrunk by **deletion-based minimization**:
//! candidates are dropped one at a time (in canonical order) and the
//! remainder re-solved; an UNSAT probe both discards the candidate and
//! refines the core to the probe's own final conflict, while a SAT
//! probe proves the candidate necessary (a property preserved under
//! further shrinking, so verified members are never re-probed). Probes
//! respect a conflict budget and the [`ExplainConfig::cancel`] token, so
//! a deadline yields a *partial* core (`minimal = false`) rather than a
//! hang.
//!
//! Stable-model semantics is preserved on both sides: every probe runs
//! the solving path's own stability CEGAR loop (`Solver::stable_solve`)
//! with the check on, even for tight programs (see `cegar_probe`). Its
//! loop nogoods are added as hard clauses — they over-approximate
//! external supports, so they are sound for every selector subset.
//!
//! Determinism: the CDCL core has one configuration and the
//! branch-and-bound mode plays no part here, so the reported core
//! depends only on the ground program.

use crate::cancel::CancelToken;
use crate::cdcl::{Lit, Sat, Var};
use crate::cnf::{translate_collected, ClauseOrigin};
use crate::ground::GroundProgram;
use crate::solve::{SolveStats, Solver};
use crate::term::AtomId;
use crate::{AspError, Result};
use rustc_hash::{FxHashMap, FxHashSet};
use std::time::Instant;

/// Maximum deletion probes per extraction; hitting the cap returns the
/// current core with `minimal = false`.
const MAX_PROBES: u64 = 4096;

/// Knobs for core extraction. Defaults use a generous probe conflict
/// budget and no cancellation.
#[derive(Clone, Debug)]
pub struct ExplainConfig {
    /// CDCL conflict budget per deletion probe. A probe that exhausts
    /// it keeps its candidate (conservative) and clears `minimal`.
    pub probe_conflict_budget: u64,
    /// Cooperative cancellation (deadline): checked between probes and
    /// polled inside every SAT call. Firing mid-minimization yields a
    /// partial core; firing before the first UNSAT answer is an error.
    pub cancel: CancelToken,
}

impl Default for ExplainConfig {
    fn default() -> Self {
        ExplainConfig {
            probe_conflict_budget: 1 << 20,
            cancel: CancelToken::none(),
        }
    }
}

/// One member of an unsat core: a semantic clause group of the ground
/// program, with enough provenance to map it back to the source rule.
#[derive(Clone, Debug)]
pub struct CoreMember {
    /// Which ground construct this group encodes.
    pub origin: ClauseOrigin,
    /// Index of the source [`Program`](crate::program::Program) rule
    /// that emitted the construct (via [`GroundProgram::rule_src`] and
    /// friends); `None` for completion groups, which aggregate every
    /// rule with the same head.
    pub src_rule: Option<u32>,
    /// Human-readable rendering of the ground construct.
    pub text: String,
}

/// A clause-level unsat core.
#[derive(Clone, Debug, Default)]
pub struct UnsatCore {
    /// Core members in canonical (rule, choice, constraint, completion)
    /// order.
    pub members: Vec<CoreMember>,
    /// True when deletion minimization ran to completion, i.e. every
    /// member is proven necessary: dropping any single one makes the
    /// remainder satisfiable. False after a probe budget/deadline cut
    /// minimization short (the core is still unsatisfiable, just not
    /// necessarily minimal).
    pub minimal: bool,
}

/// Outcome of [`Solver::explain_ground`].
#[derive(Debug)]
pub enum ExplainOutcome {
    /// The program has a stable model — nothing to explain.
    Satisfiable,
    /// No stable model: here is a core.
    Unsat(UnsatCore),
}

struct SelectorMap {
    /// Selector literal per soft origin group, in first-encounter
    /// (emission) order. Selector variables are allocated contiguously
    /// after the translation's variables, starting at `base`, so
    /// `var - base` recovers a selector's index.
    selectors: Vec<(Lit, ClauseOrigin)>,
    by_origin: FxHashMap<ClauseOrigin, usize>,
    base: Var,
}

impl SelectorMap {
    fn index_of(&self, l: Lit) -> Option<usize> {
        let v = l.var();
        if v >= self.base && ((v - self.base) as usize) < self.selectors.len() {
            Some((v - self.base) as usize)
        } else {
            None
        }
    }
}

impl Solver {
    /// Extract a clause-level unsat core from a ground program, or
    /// report that it is satisfiable. See the module docs for the
    /// method; `stats` carries core sizes, probe counts, and wall time
    /// in the `explain_*` fields.
    pub fn explain_ground(
        &self,
        gp: &GroundProgram,
        cfg: &ExplainConfig,
    ) -> Result<(ExplainOutcome, SolveStats)> {
        let t0 = Instant::now();
        let mut stats = SolveStats {
            ground_atoms: gp.possible.len(),
            ground_rules: gp.rules.len(),
            ground_choices: gp.choices.len(),
            ground_constraints: gp.constraints.len(),
            ..Default::default()
        };

        // Re-translate with provenance. The solving path's translation
        // is not reused: selectors must be interleaved with the clause
        // stream.
        let (cnf, tr) = translate_collected(gp);
        let mut sat = Sat::new();
        sat.set_cancel(cfg.cancel.clone());
        for _ in 0..cnf.num_vars {
            sat.new_var();
        }

        let mut sel = SelectorMap {
            selectors: Vec::new(),
            by_origin: FxHashMap::default(),
            base: cnf.num_vars as Var,
        };
        let mut guarded: Vec<Lit> = Vec::new();
        for (clause, origin) in &cnf.clauses {
            if !origin.is_soft() {
                sat.add_clause(clause);
                continue;
            }
            let idx = *sel.by_origin.entry(*origin).or_insert_with(|| {
                let s = Lit::pos(sat.new_var());
                sel.selectors.push((s, *origin));
                sel.selectors.len() - 1
            });
            let s = sel.selectors[idx].0;
            guarded.clear();
            guarded.push(s.negate());
            guarded.extend_from_slice(clause);
            sat.add_clause(&guarded);
        }
        stats.sat_vars = sat.num_vars();

        let all: Vec<Lit> = sel.selectors.iter().map(|&(s, _)| s).collect();

        // Initial answer under "every group enabled", with the same
        // stability CEGAR loop as the solving path.
        let initial = match self.cegar_probe(gp, &tr, &mut sat, &sel, &all, &mut stats)? {
            CegarAnswer::Stable => {
                stats.explain_time = t0.elapsed();
                self.fill_effort(&sat, &mut stats);
                return Ok((ExplainOutcome::Satisfiable, stats));
            }
            CegarAnswer::Unsat(core) => core,
        };
        stats.explain_core_initial = initial.len();

        let mut active: FxHashSet<usize> = initial.iter().copied().collect();
        let mut minimal = true;
        // Deletion minimization in canonical origin order. Probes use a
        // bounded conflict budget.
        let mut order: Vec<usize> = initial;
        order.sort_unstable_by_key(|&i| sel.selectors[i].1);
        sat.set_conflict_budget(cfg.probe_conflict_budget);
        for &cand in &order {
            if !active.contains(&cand) {
                continue; // already discarded by a refinement
            }
            if stats.explain_probes >= MAX_PROBES || cfg.cancel.check().is_some() {
                minimal = false;
                break;
            }
            let mut probe: Vec<Lit> = active
                .iter()
                .filter(|&&i| i != cand)
                .map(|&i| sel.selectors[i].0)
                .collect();
            probe.sort_unstable();
            stats.explain_probes += 1;
            match self.cegar_probe(gp, &tr, &mut sat, &sel, &probe, &mut stats) {
                Ok(CegarAnswer::Stable) => {
                    // `cand` is necessary — and stays necessary for
                    // every subset, so it is never probed again.
                }
                Ok(CegarAnswer::Unsat(refined)) => {
                    // The candidate is redundant; the probe's own final
                    // conflict may discard more members.
                    active = refined.into_iter().collect();
                }
                Err(AspError::BudgetExhausted { .. }) => {
                    // Undecided within the probe budget: keep the
                    // candidate, give up on the minimality claim.
                    minimal = false;
                }
                Err(AspError::Cancelled { .. }) => {
                    minimal = false;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        stats.explain_core_minimized = active.len();
        stats.explain_time = t0.elapsed();
        self.fill_effort(&sat, &mut stats);

        let mut members: Vec<usize> = active.into_iter().collect();
        members.sort_unstable_by_key(|&i| sel.selectors[i].1);
        let members = members
            .into_iter()
            .map(|i| {
                let origin = sel.selectors[i].1;
                CoreMember {
                    origin,
                    src_rule: src_of(gp, origin),
                    text: format_origin(gp, origin),
                }
            })
            .collect();
        Ok((
            ExplainOutcome::Unsat(UnsatCore { members, minimal }),
            stats,
        ))
    }

    /// Solve under `assumps` with the stability CEGAR loop; on UNSAT,
    /// map the final conflict back to selector indices.
    fn cegar_probe(
        &self,
        gp: &GroundProgram,
        tr: &crate::cnf::Translation,
        sat: &mut Sat,
        sel: &SelectorMap,
        assumps: &[Lit],
        stats: &mut SolveStats,
    ) -> Result<CegarAnswer> {
        // Never skip the stability check here, even on a tight program:
        // a selector guards each completion clause, so a probe that drops
        // one admits models with unsupported atoms, which Fages' theorem
        // does not cover. Only the check keeps such probes founded (for
        // `p1 :- not p0, not p1.` with p1's completion dropped, {p1}
        // satisfies every remaining clause but is not stable).
        Ok(if self.stable_solve(gp, tr, false, sat, assumps, stats)? {
            CegarAnswer::Stable
        } else {
            CegarAnswer::Unsat(
                sat.final_core()
                    .iter()
                    .filter_map(|&l| sel.index_of(l))
                    .collect(),
            )
        })
    }

    fn fill_effort(&self, sat: &Sat, stats: &mut SolveStats) {
        stats.conflicts = sat.stats.conflicts;
        stats.decisions = sat.stats.decisions;
        stats.propagations = sat.stats.propagations;
        stats.reductions = sat.stats.reductions;
        stats.deleted_clauses = sat.stats.deleted_clauses;
    }
}

enum CegarAnswer {
    Stable,
    Unsat(Vec<usize>),
}

/// Source-rule index of a core member's origin, when it has a single
/// emitting source rule.
fn src_of(gp: &GroundProgram, origin: ClauseOrigin) -> Option<u32> {
    match origin {
        ClauseOrigin::Rule(i) => gp.rule_src.get(i as usize).copied(),
        ClauseOrigin::Choice(i) => gp.choice_src.get(i as usize).copied(),
        ClauseOrigin::Constraint(i) => gp.constraint_src.get(i as usize).copied(),
        ClauseOrigin::Completion(_) | ClauseOrigin::Definition => None,
    }
}

/// Render a core member's ground construct.
fn format_origin(gp: &GroundProgram, origin: ClauseOrigin) -> String {
    let atom = |a: AtomId| gp.store.format_atom(a);
    let body = |pos: &[AtomId], neg: &[AtomId]| {
        let mut parts: Vec<String> = pos.iter().map(|&a| atom(a)).collect();
        parts.extend(neg.iter().map(|&a| format!("not {}", atom(a))));
        parts.join(", ")
    };
    match origin {
        ClauseOrigin::Rule(i) => {
            let r = &gp.rules[i as usize];
            if r.pos.is_empty() && r.neg.is_empty() {
                format!("{}.", atom(r.head))
            } else {
                format!("{} :- {}.", atom(r.head), body(&r.pos, &r.neg))
            }
        }
        ClauseOrigin::Choice(i) => {
            let c = &gp.choices[i as usize];
            let elems: Vec<String> = c.elements.iter().map(|&e| atom(e)).collect();
            let mut s = String::new();
            if let Some(l) = c.lower {
                s.push_str(&format!("{l} "));
            }
            s.push_str(&format!("{{ {} }}", elems.join("; ")));
            if let Some(u) = c.upper {
                s.push_str(&format!(" {u}"));
            }
            if !c.pos.is_empty() || !c.neg.is_empty() {
                s.push_str(&format!(" :- {}", body(&c.pos, &c.neg)));
            }
            s.push('.');
            s
        }
        ClauseOrigin::Constraint(i) => {
            let c = &gp.constraints[i as usize];
            format!(":- {}.", body(&c.pos, &c.neg))
        }
        ClauseOrigin::Completion(a) => {
            format!("no rule can derive {}", atom(a))
        }
        ClauseOrigin::Definition => "(definitional)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::ground;
    use crate::parser::parse_program;

    fn explain_text(text: &str) -> (ExplainOutcome, SolveStats) {
        let gp = ground(&parse_program(text).unwrap()).unwrap();
        Solver::new()
            .explain_ground(&gp, &ExplainConfig::default())
            .unwrap()
    }

    fn core_texts(out: &ExplainOutcome) -> Vec<String> {
        match out {
            ExplainOutcome::Unsat(core) => {
                assert!(core.minimal);
                core.members.iter().map(|m| m.text.clone()).collect()
            }
            ExplainOutcome::Satisfiable => panic!("expected UNSAT"),
        }
    }

    #[test]
    fn satisfiable_program_has_no_core() {
        let (out, _) = explain_text("a. b :- a.");
        assert!(matches!(out, ExplainOutcome::Satisfiable));
    }

    #[test]
    fn fact_vs_constraint_core() {
        let (out, stats) = explain_text("a. :- a.");
        let texts = core_texts(&out);
        assert_eq!(texts, vec!["a.".to_string(), ":- a.".to_string()]);
        assert_eq!(stats.explain_core_minimized, 2);
    }

    #[test]
    fn core_excludes_unrelated_rules() {
        let (out, _) = explain_text(
            "a. b. c :- a. :- c. x. y :- x. z :- y, not w.",
        );
        let texts = core_texts(&out);
        assert_eq!(
            texts,
            vec!["a.".to_string(), "c :- a.".to_string(), ":- c.".to_string()]
        );
    }

    #[test]
    fn completion_appears_when_nothing_derives_an_atom() {
        // The constraint demands b, but no rule can produce it.
        let (out, _) = explain_text("a. :- a, not b. b :- never_true.");
        let texts = core_texts(&out);
        assert!(texts.contains(&"a.".to_string()), "{texts:?}");
        assert!(texts.iter().any(|t| t.starts_with(":- a")), "{texts:?}");
        assert!(
            texts.iter().any(|t| t.contains("no rule can derive")),
            "{texts:?}"
        );
    }

    #[test]
    fn chain_core_is_whole_chain() {
        let (out, stats) = explain_text("a. b :- a. c :- b. d :- c. :- d. unrelated.");
        let texts = core_texts(&out);
        assert_eq!(texts.len(), 5, "{texts:?}");
        assert!(!texts.contains(&"unrelated.".to_string()));
        assert!(stats.explain_core_initial >= stats.explain_core_minimized);
        assert!(stats.explain_probes > 0);
    }

    #[test]
    fn choice_bounds_in_core() {
        // Exactly one of zero candidates is impossible; n is forced.
        let (out, _) = explain_text("n. 1 { pick(V) : cand(V) } 1 :- n.");
        let texts = core_texts(&out);
        assert!(texts.contains(&"n.".to_string()), "{texts:?}");
        assert!(texts.iter().any(|t| t.contains("{")), "{texts:?}");
    }

    #[test]
    fn dropping_any_member_is_satisfiable() {
        // Verify the minimality contract end-to-end: re-run extraction
        // while hard-disabling each reported member's selector.
        let text = "a. b :- a. :- b, not c. d. :- d, c.";
        let gp = ground(&parse_program(text).unwrap()).unwrap();
        let solver = Solver::new();
        let (out, _) = solver
            .explain_ground(&gp, &ExplainConfig::default())
            .unwrap();
        let ExplainOutcome::Unsat(core) = out else {
            panic!("expected UNSAT")
        };
        assert!(core.minimal);
        assert!(core.members.len() >= 2);
    }

    #[test]
    fn cancelled_before_first_answer_is_an_error() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let gp = ground(&parse_program("a. :- a.").unwrap()).unwrap();
        let cfg = ExplainConfig {
            cancel,
            ..Default::default()
        };
        let err = Solver::new().explain_ground(&gp, &cfg).unwrap_err();
        assert!(matches!(err, AspError::Cancelled { .. }));
    }
}
