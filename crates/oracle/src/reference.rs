//! The brute-force reference solver.
//!
//! Enumerates *all* stable models of a small ground program by checking
//! every subset of the non-certain possible atoms against the
//! Gelfond–Lifschitz definition directly, and computes exact
//! lexicographic `#minimize` optima by evaluating the objective on every
//! stable model. Exponential on purpose: the point is an implementation
//! so simple it is obviously correct, to differential-test the
//! production grounder/CDCL/stability/optimization pipeline against.
//!
//! Semantics implemented (matching the production engine's fragment):
//!
//! * a candidate is stable iff it equals the least model of its reduct,
//!   where the reduct keeps a rule iff none of its negated atoms are in
//!   the candidate, and a kept choice instance justifies exactly those
//!   of its elements the candidate chose;
//! * choice cardinality bounds act as constraints, enforced only when
//!   the instance's body holds in the candidate;
//! * `#minimize` uses Clingo set-of-tuples semantics: each distinct
//!   `(priority, weight, tuple)` contributes its weight once if any of
//!   its conditions holds; levels are ordered by descending priority.

use rustc_hash::FxHashSet;
use spackle_asp::ground::GroundProgram;
use spackle_asp::term::AtomId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Default cap on free (non-certain) atoms; 2^16 candidates.
pub const DEFAULT_MAX_FREE_ATOMS: usize = 16;

/// Why the oracle refused to enumerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The program's free-atom universe exceeds the exhaustive-search cap.
    TooLarge {
        /// Free (non-certain possible) atoms in the program.
        free: usize,
        /// The configured cap.
        max: usize,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::TooLarge { free, max } => {
                write!(f, "{free} free atoms exceed the oracle cap of {max}")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// All stable models of a ground program, with their objective values.
#[derive(Debug, Clone)]
pub struct OracleSolution {
    /// Every stable model as a sorted atom-id list, in canonical
    /// (lexicographic) order.
    pub models: Vec<Vec<AtomId>>,
    /// Cost vector per model (aligned with `models`), highest priority
    /// first; empty when the program has no `#minimize` statements.
    pub costs: Vec<Vec<(i64, i64)>>,
}

impl OracleSolution {
    /// The lexicographically least cost vector, if any model exists.
    pub fn best_cost(&self) -> Option<&[(i64, i64)]> {
        self.costs.iter().map(Vec::as_slice).min()
    }

    /// Indices of all models achieving the optimum.
    pub fn optimal_models(&self) -> Vec<usize> {
        match self.best_cost() {
            None => Vec::new(),
            Some(best) => {
                let best = best.to_vec();
                self.costs
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.as_slice() == best)
                    .map(|(i, _)| i)
                    .collect()
            }
        }
    }
}

fn holds(cand: &FxHashSet<AtomId>, pos: &[AtomId], neg: &[AtomId]) -> bool {
    pos.iter().all(|a| cand.contains(a)) && !neg.iter().any(|a| cand.contains(a))
}

/// Is `cand` a stable model of `gp`? Checked straight from the
/// definition: constraints and choice bounds as classical conditions,
/// then `cand == least_model(reduct(gp, cand))`. (Classical rule
/// satisfaction is implied by reduct-least-model equality: a kept rule
/// whose positive body is in the least model derives its head into it.)
pub fn is_stable(gp: &GroundProgram, cand: &FxHashSet<AtomId>) -> bool {
    for c in &gp.constraints {
        if holds(cand, &c.pos, &c.neg) {
            return false;
        }
    }
    for c in &gp.choices {
        if holds(cand, &c.pos, &c.neg) {
            let chosen = c.elements.iter().filter(|e| cand.contains(e)).count() as u32;
            if c.lower.is_some_and(|l| chosen < l) || c.upper.is_some_and(|u| chosen > u) {
                return false;
            }
        }
    }
    let mut least: FxHashSet<AtomId> = FxHashSet::default();
    loop {
        let mut changed = false;
        for r in &gp.rules {
            if !r.neg.iter().any(|a| cand.contains(a))
                && r.pos.iter().all(|a| least.contains(a))
                && least.insert(r.head)
            {
                changed = true;
            }
        }
        for c in &gp.choices {
            if !c.neg.iter().any(|a| cand.contains(a))
                && c.pos.iter().all(|a| least.contains(a))
            {
                for &e in c.elements.iter() {
                    if cand.contains(&e) && least.insert(e) {
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    least == *cand
}

/// The objective value of `cand`, highest priority first, one entry per
/// priority occurring in the ground program (even at cost zero, to match
/// the production solver's reported vector shape).
pub fn cost_of(gp: &GroundProgram, cand: &FxHashSet<AtomId>) -> Vec<(i64, i64)> {
    let mut levels: BTreeMap<i64, i64> = BTreeMap::new();
    let mut charged: BTreeSet<(i64, i64, Vec<u32>)> = BTreeSet::new();
    for m in &gp.minimize {
        levels.entry(m.priority).or_insert(0);
        let key = (m.priority, m.weight, m.tuple.iter().map(|t| t.0).collect());
        if holds(cand, &m.pos, &m.neg) && charged.insert(key) {
            *levels.entry(m.priority).or_insert(0) += m.weight;
        }
    }
    levels.into_iter().rev().collect()
}

/// Enumerate every stable model by exhaustive subset search over the
/// free (possible but not certain) atoms. Certain atoms — negation-free
/// consequences of facts — belong to every stable model and are fixed
/// true, which prunes the search space soundly.
pub fn stable_models(
    gp: &GroundProgram,
    max_free: usize,
) -> Result<Vec<Vec<AtomId>>, OracleError> {
    let free: Vec<AtomId> = gp
        .possible
        .iter()
        .filter(|&a| !gp.certain.contains(a))
        .collect();
    if free.len() > max_free {
        return Err(OracleError::TooLarge {
            free: free.len(),
            max: max_free,
        });
    }
    let mut out: Vec<Vec<AtomId>> = Vec::new();
    for mask in 0u64..(1u64 << free.len()) {
        let mut cand: FxHashSet<AtomId> = gp.certain.iter().collect();
        for (i, &a) in free.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                cand.insert(a);
            }
        }
        if is_stable(gp, &cand) {
            let mut v: Vec<AtomId> = cand.into_iter().collect();
            v.sort_unstable();
            out.push(v);
        }
    }
    out.sort();
    Ok(out)
}

/// Enumerate all stable models and evaluate the objective on each.
pub fn solve(gp: &GroundProgram, max_free: usize) -> Result<OracleSolution, OracleError> {
    let models = stable_models(gp, max_free)?;
    let costs = models
        .iter()
        .map(|m| {
            let set: FxHashSet<AtomId> = m.iter().copied().collect();
            cost_of(gp, &set)
        })
        .collect();
    Ok(OracleSolution { models, costs })
}

/// Render a model (a sorted atom-id list) as sorted atom text, the
/// canonical cross-solver comparison form.
pub fn render(gp: &GroundProgram, model: &[AtomId]) -> Vec<String> {
    let mut v: Vec<String> = model.iter().map(|&a| gp.store.format_atom(a)).collect();
    v.sort();
    v
}
