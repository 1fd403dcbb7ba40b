//! The audit gate CI enforces: the shipped demo repository and the
//! exact ASP program the concretizer hands the solver must be free of
//! error-severity findings. This is `spackle audit` as a library call,
//! so the gate fails in `cargo test` before CI even reaches the CLI.

use spackle::audit::{self, Severity};
use spackle::core::Goal;
use spackle::prelude::*;
use spackle::radiuss::{radiuss_repo, with_mpiabi};

#[test]
fn shipped_repository_and_program_audit_clean_of_errors() {
    let repo = with_mpiabi(&radiuss_repo());
    let goal = Goal::single(parse_spec("hypre").unwrap());
    let enc = Concretizer::new(&repo).program_text(&goal).unwrap();
    let program = spackle::asp::parse_program(&enc.program).unwrap();
    let goals = [Sym::intern("attr"), Sym::intern("splice_to")];

    let report = audit::audit(&repo, &program, &goals);
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "shipped artifacts have audit errors:\n{}",
        report.render_human()
    );

    // The warnings the empty-cache program legitimately carries are the
    // reuse/splice bridge rules and, with no `^` reader to seed it, the
    // `reach` closure: rules that ground to nothing.
    let dead_rules = report
        .diagnostics
        .iter()
        .filter(|d| d.code == audit::Code::L004)
        .count();
    assert!(dead_rules > 0, "expected dead-rule findings on the empty-cache program");
}
