#![warn(missing_docs)]

//! # spackle-core
//!
//! The Spackle concretizer — the paper's primary contribution. It
//! resolves abstract specs to concrete dependency DAGs by compiling the
//! package repository, the user goal, and reusable buildcache specs into
//! an answer-set program (solved by `spackle-asp`), then interpreting the
//! optimal model back into [`spackle_spec::ConcreteSpec`]s — including
//! automatically *spliced* specs with full build provenance.
//!
//! Three emulation modes reproduce the paper's experimental axes:
//!
//! * [`ConcretizerConfig::old_spack`] — the direct `imposed_constraint`
//!   encoding of reusable specs; splicing impossible.
//! * [`ConcretizerConfig::splice_spack_disabled`] — the new `hash_attr`
//!   encoding with the splice fragment off (Fig 5 / RQ1).
//! * [`ConcretizerConfig::splice_spack`] — full automatic splicing
//!   (Fig 6, Fig 7 / RQ2–RQ4).

pub mod concretizer;
pub mod encode;
pub mod explain;
pub mod ground_cache;
pub mod interpret;
pub mod logic;
pub mod segment;

pub use concretizer::{ConcretizeStats, Concretizer, ConcretizerConfig, SkippedSource, Solution};
pub use encode::{EncodeConfig, EncodeOrigin, Encoded, Encoding, Goal};
pub use explain::{ExplainEntry, Explanation};
pub use ground_cache::{DeltaReport, GroundCache, GroundCacheStats, SolvedGoal};
pub use interpret::SpliceReport;
pub use segment::{repo_delta, SegmentDelta, SegmentSet};

use std::fmt;

/// Concretization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The goal is malformed (unknown package, anonymous root, ...).
    BadGoal(String),
    /// The concretizer configuration is internally inconsistent (e.g.
    /// splicing requested under the direct encoding). Surfaced as a
    /// structured error so remote clients of a concretization service
    /// can diagnose it, instead of being silently normalized into a
    /// different solve. See [`ConcretizerConfig::normalize`] for the
    /// explicit repair.
    Config(String),
    /// A repository feature this reproduction does not model.
    Unsupported(String),
    /// The underlying ASP engine failed.
    Solve(String),
    /// The solve overran a resource limit of the ASP engine: a grounding
    /// limit (`SolverConfig::limits`) or the stability loop's iteration
    /// cap. An input too large for its limits, not an engine failure.
    ResourceLimit(String),
    /// A reusable-spec source failed past its retry budget. `source` is
    /// the index of the failing top-level source on the concretizer,
    /// `backend` its human-readable label — the provenance a degraded
    /// solve records when it proceeds without the source.
    Cache {
        /// Index of the failing source in the concretizer's source list.
        source: usize,
        /// Backend label of the failing source (e.g. `"public"`).
        backend: String,
        /// The underlying cache error, rendered.
        detail: String,
    },
    /// The solve was cancelled; `deadline` is true when a wall-clock
    /// deadline (request timeout) fired rather than an explicit cancel.
    Cancelled {
        /// Whether a wall-clock deadline triggered the cancellation.
        deadline: bool,
    },
    /// The solver exhausted its conflict budget — a bounded "gave up",
    /// distinguishable from [`CoreError::Unsatisfiable`]. Carries the
    /// search effort spent so services can ship it over the wire.
    BudgetExhausted {
        /// CDCL conflicts at the point of giving up.
        conflicts: u64,
        /// CDCL decisions at the point of giving up.
        decisions: u64,
        /// CDCL literal propagations at the point of giving up.
        propagations: u64,
    },
    /// No concretization satisfies the constraints.
    Unsatisfiable,
    /// The optimal model could not be decoded (an encoder/solver bug).
    Interpret(String),
}

impl CoreError {
    /// A short machine-readable tag for each variant — what services
    /// put in a wire protocol's `error_kind` field so clients can
    /// dispatch without parsing rendered messages.
    pub fn kind(&self) -> &'static str {
        match self {
            CoreError::BadGoal(_) => "bad_goal",
            CoreError::Config(_) => "config",
            CoreError::Unsupported(_) => "unsupported",
            CoreError::Solve(_) => "solve",
            CoreError::ResourceLimit(_) => "resource_limit",
            CoreError::Cache { .. } => "cache",
            CoreError::Cancelled { deadline: true } => "timeout",
            CoreError::Cancelled { deadline: false } => "cancelled",
            CoreError::BudgetExhausted { .. } => "budget",
            CoreError::Unsatisfiable => "unsat",
            CoreError::Interpret(_) => "interpret",
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadGoal(m) => write!(f, "bad goal: {m}"),
            CoreError::Config(m) => write!(f, "configuration: {m}"),
            CoreError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CoreError::Solve(m) => write!(f, "solver: {m}"),
            CoreError::ResourceLimit(m) => write!(f, "resource limit: {m}"),
            CoreError::Cache {
                source,
                backend,
                detail,
            } => write!(f, "cache source #{source} ({backend}) failed: {detail}"),
            CoreError::Cancelled { deadline } => {
                if *deadline {
                    write!(f, "concretization deadline exceeded")
                } else {
                    write!(f, "concretization cancelled")
                }
            }
            CoreError::BudgetExhausted {
                conflicts,
                decisions,
                propagations,
            } => write!(
                f,
                "solver: conflict budget exhausted after {conflicts} conflicts, \
                 {decisions} decisions, {propagations} propagations"
            ),
            CoreError::Unsatisfiable => write!(f, "no satisfying concretization exists"),
            CoreError::Interpret(m) => write!(f, "interpretation: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}
