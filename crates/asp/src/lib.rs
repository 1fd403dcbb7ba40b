#![warn(missing_docs)]

//! # spackle-asp
//!
//! A from-scratch, miniature Answer Set Programming (ASP) engine — the
//! substrate standing in for Clingo in Spackle's concretizer (paper §3.3,
//! §5.1). It supports exactly the language fragment the concretizer's
//! logic program needs:
//!
//! * facts and definite rules with negation-as-failure (`not`);
//! * comparison builtins (`=`, `!=`, `<`, `<=`, `>`, `>=`);
//! * choice rules with cardinality bounds (`1 { a(X) : b(X) } 1 :- c.`);
//! * integrity constraints (`:- body.`);
//! * prioritized weighted minimization (`#minimize { W@P,T : cond }.`).
//!
//! ## Pipeline
//!
//! 1. **Parse** ([`parser`]) — `.lp` text into a [`program::Program`].
//! 2. **Ground** ([`ground`]) — semi-naive, index-backed instantiation of
//!    rules over an over-approximated Herbrand base.
//! 3. **Translate** ([`cnf`]) — Clark completion plus sequential-counter
//!    cardinality encodings to CNF.
//! 4. **Search** ([`cdcl`]) — a MiniSat-style CDCL SAT solver (two
//!    watched literals with blockers, 1UIP learning, VSIDS, phase
//!    saving, Luby restarts, activity-ranked clause deletion) over the
//!    translated CNF.
//! 5. **Verify** ([`stability`]) — a model-guided Gelfond–Lifschitz
//!    stability check; non-stable models are blocked and search resumes
//!    (CEGAR). Programs whose ground positive-dependency graph is acyclic
//!    — like the concretizer's, where ground recursion follows package
//!    DAGs — never trigger the loop.
//! 6. **Optimize** ([`solve`]) — lexicographic branch-and-bound over
//!    `#minimize` priorities, incrementally reusing learned clauses
//!    across bound tightenings.

pub mod analysis;
pub mod cancel;
pub mod cdcl;
pub mod certify;
pub mod cnf;
pub mod explain;
pub mod ground;
pub mod model;
pub mod parser;
pub mod program;
pub mod solve;
pub mod stability;
pub mod term;

pub use analysis::{
    derivable_preds, pred_of, relevant_preds, stratify, PredGraph, PredKey, Stratification,
};
pub use cancel::CancelToken;
pub use cdcl::SatConfig;
pub use certify::{certify_model, CertifyError};
pub use cnf::ClauseOrigin;
pub use explain::{CoreMember, ExplainConfig, ExplainOutcome, UnsatCore};
pub use ground::{
    ground_parallel, unsafe_variables, GroundLimits, GroundProgram, SafetyContext, UnsafeVariable,
};
pub use model::Model;
pub use parser::{parse_program, parse_program_spanned};
pub use program::{Program, PruneReport, Rule};
pub use solve::{SolveOutcome, SolveStats, Solver, SolverConfig, TranslatedProgram};
pub use term::{Atom, Term};

use std::fmt;

/// Errors from parsing, grounding, or solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AspError {
    /// Text could not be parsed; offset is a byte position.
    Parse {
        /// Byte offset of the error.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A rule is unsafe: a head/negative/comparison variable is not bound
    /// by any positive body literal.
    Unsafe {
        /// Rendering of the offending rule.
        rule: String,
        /// The unbound variable.
        variable: String,
    },
    /// A choice-element condition ranges over a model-dependent
    /// predicate; this engine requires conditions over domain (EDB)
    /// predicates so elements can be expanded at ground time.
    NonDomainCondition {
        /// Rendering of the offending condition atom.
        atom: String,
        /// Rendering of the enclosing rule.
        rule: String,
    },
    /// A negated choice condition could still be derived at solve time,
    /// so the element set cannot be decided while grounding.
    DerivableNegatedCondition {
        /// Rendering of the offending negated atom.
        atom: String,
        /// Rendering of the enclosing rule.
        rule: String,
    },
    /// A `#minimize` weight or priority was negative or not an integer.
    BadWeight(String),
    /// The grounder or solver hit a configured resource limit.
    ResourceLimit(String),
    /// The solver gave up after exhausting its conflict budget — a
    /// bounded "don't know", distinguishable from UNSAT. Carries the
    /// search effort spent so callers can report (and ship over the
    /// wire) how hard the solver tried.
    BudgetExhausted {
        /// CDCL conflicts at the point of giving up.
        conflicts: u64,
        /// CDCL decisions at the point of giving up.
        decisions: u64,
        /// CDCL literal propagations at the point of giving up.
        propagations: u64,
        /// CDCL restarts at the point of giving up.
        restarts: u64,
    },
    /// The solve was cancelled cooperatively; `deadline` is true when a
    /// wall-clock deadline fired rather than an explicit cancel.
    Cancelled {
        /// Whether a wall-clock deadline triggered the cancellation.
        deadline: bool,
    },
    /// An internal invariant failed (a bug).
    Internal(String),
}

impl fmt::Display for AspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AspError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            AspError::Unsafe { rule, variable } => {
                write!(f, "unsafe variable {variable} in rule: {rule}")
            }
            AspError::NonDomainCondition { atom, rule } => write!(
                f,
                "choice condition {atom} is not a domain (certain) atom \
                 in rule: {rule}"
            ),
            AspError::DerivableNegatedCondition { atom, rule } => write!(
                f,
                "negated choice condition {atom} may be derivable at \
                 solve time in rule: {rule}"
            ),
            AspError::BadWeight(m) => write!(f, "invalid #minimize weight/priority: {m}"),
            AspError::ResourceLimit(m) => write!(f, "resource limit: {m}"),
            AspError::BudgetExhausted {
                conflicts,
                decisions,
                propagations,
                restarts,
            } => write!(
                f,
                "conflict budget exhausted after {conflicts} conflicts, \
                 {decisions} decisions, {propagations} propagations, \
                 {restarts} restarts"
            ),
            AspError::Cancelled { deadline } => {
                if *deadline {
                    write!(f, "solve deadline exceeded")
                } else {
                    write!(f, "solve cancelled")
                }
            }
            AspError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for AspError {}

/// Result alias for this crate.
pub type Result<T, E = AspError> = std::result::Result<T, E>;
