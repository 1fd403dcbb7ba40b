//! # spackle-audit — static analysis for repositories and logic programs
//!
//! Two analysis levels over one structured-diagnostics core:
//!
//! * **Level 1 (repository, `SPKL-R…`)** lints [`Repository`] contents:
//!   version constraints that intersect no declared version (reusing
//!   the concretizer's exact `VersionReq::intersect`), `when=`
//!   conditions referencing undeclared variants or illegal values,
//!   unresolvable package/virtual references, possible non-build
//!   dependency cycles, duplicated directives, and `can_splice`
//!   targets that can never match.
//! * **Level 2 (logic program, `SPKL-L…`)** lints an ASP [`Program`]:
//!   rule safety with precise binding contexts, undefined predicates,
//!   stratification, and two reachability analyses: rules that can never
//!   fire and predicates irrelevant to the model consumer's goal
//!   predicates.
//!
//! Every finding carries a stable [`Code`], a [`Severity`], provenance
//! (directive text with a byte [`Span`](spackle_spec::Span) for caret
//! underlines, or a rule index and text), and an optional fix-it hint.
//! [`AuditReport`] renders findings for humans or as JSON and applies
//! `--deny` promotions; `spackle audit` exits nonzero iff
//! [`AuditReport::has_errors`].
//!
//! ```
//! use spackle_audit::{audit_repository, AuditReport, Code};
//! use spackle_repo::{PackageBuilder, Repository};
//!
//! let repo = Repository::from_packages([
//!     PackageBuilder::new("zlib").version("1.3").build().unwrap(),
//!     PackageBuilder::new("app")
//!         .version("1.0")
//!         .depends_on("zlib@9.9") // no declared zlib version matches
//!         .build()
//!         .unwrap(),
//! ])
//! .unwrap();
//! let report = AuditReport::new(audit_repository(&repo));
//! assert!(report.diagnostics.iter().any(|d| d.code == Code::R001));
//! assert!(report.has_errors());
//! ```

pub mod asp_check;
pub mod diag;
pub mod explain_report;
pub mod repo_check;

pub use asp_check::{audit_program, audit_program_text};
pub use diag::{AuditReport, Code, Diagnostic, Provenance, Severity};
pub use explain_report::{audit_concretizability, explanation_report};
pub use repo_check::audit_repository;

use spackle_asp::Program;
use spackle_repo::Repository;
use spackle_spec::Sym;

/// Audit both levels in one pass: the repository, then the logic
/// program with the given goal predicates (what the program's model
/// consumer reads — the concretizer reads `attr` and `splice_to`).
pub fn audit(repo: &Repository, program: &Program, goal_preds: &[Sym]) -> AuditReport {
    let mut report = AuditReport::new(audit_repository(repo));
    report.extend(audit_program(program, goal_preds));
    report
}
