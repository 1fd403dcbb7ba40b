#![warn(missing_docs)]

//! # spackle-oracle
//!
//! The verification layer for Spackle's hand-rolled ASP engine and
//! concretizer — a certifying-solver harness in the tradition of the
//! checked pipelines around Clingo (paper §3.3, §5.1). Nothing here is
//! on any production path; the crate exists to catch the production
//! stack being subtly wrong.
//!
//! Three pieces:
//!
//! 1. [`mod@reference`] — a brute-force stable-model enumerator working
//!    straight from the Gelfond–Lifschitz definition, with exact
//!    lexicographic `#minimize` optima. Exponential, deliberately
//!    simple, used as ground truth for small programs.
//! 2. [`genprog`] / [`genrepo`] — deterministic random generators for
//!    logic programs, package repositories, and abstract specs, driven
//!    by a seeded [`proptest::TestRng`].
//! 3. [`diff`] — differential checks tying them together: production
//!    solver vs oracle on stable-model sets and optima, plus
//!    concretizer-level cross-configuration and certificate checks.
//!    The `fuzz-solve` binary (`cargo run -p spackle-oracle --bin
//!    fuzz-solve`) runs these open-endedly with seed-corpus replay;
//!    the property tests in `tests/` run a bounded number per build.
//!
//! The model *certificate checker* itself lives in
//! [`spackle_asp::certify`] so the concretizer can assert certificates
//! in debug builds without depending on this crate.

pub mod diff;
pub mod genprog;
pub mod genrepo;
pub mod reference;

pub use diff::{check_program_case, check_program_case_with, check_repo_case, CaseStats};
pub use reference::{OracleError, OracleSolution};
