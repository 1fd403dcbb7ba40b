//! Level 2: static analysis over an ASP [`Program`].
//!
//! The checks are the diagnostic face of `spackle_asp::analysis`: rule
//! safety (L001), undefined predicates (L002), stratification (L003),
//! and two reachability analyses: rules that can never fire (L004) and
//! predicates irrelevant to the goal predicates (L005).

use crate::diag::{Code, Diagnostic, Provenance};
use spackle_asp::analysis::{derivable_preds, pred_name, relevant_preds, stratify, PredGraph};
use spackle_asp::program::{BodyElem, Head};
use spackle_asp::{parse_program, unsafe_variables, AspError, Program};
use spackle_spec::Sym;
use std::collections::BTreeSet;

/// Run all logic-program checks (codes `SPKL-L001`…`SPKL-L005`).
/// `goal_preds` are the predicates the program's consumer reads from
/// models (the concretizer reads `attr` and `splice_to`); L005 is
/// skipped when it is empty.
pub fn audit_program(program: &Program, goal_preds: &[Sym]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let rule_text = |i: usize| Provenance::Rule {
        index: i,
        text: program.rules[i].to_string(),
    };

    // L001: unsafe variables, with the exact binding context.
    for (i, rule) in program.rules.iter().enumerate() {
        for uv in unsafe_variables(rule) {
            diags.push(
                Diagnostic::new(
                    Code::L001,
                    format!("variable {} is unsafe: {}", uv.variable.as_str(), uv.context),
                    rule_text(i),
                )
                .with_hint(format!(
                    "bind {} in a positive body literal",
                    uv.variable.as_str()
                )),
            );
        }
    }

    // L002: predicates used in a positive body but heading no rule.
    let graph = PredGraph::build(program);
    let undefined = graph.undefined_preds(program);
    for p in &undefined {
        diags.push(
            Diagnostic::new(
                Code::L002,
                format!(
                    "predicate {} appears in a positive body but heads no rule",
                    pred_name(p)
                ),
                Provenance::Predicate { name: pred_name(p) },
            )
            .with_hint("rules depending on it can never fire; define it or drop the literal"),
        );
    }

    // L003: negative edges inside an SCC — recursion through negation.
    let strat = stratify(&graph);
    for (head, body) in &strat.unstratified {
        diags.push(Diagnostic::new(
            Code::L003,
            format!(
                "unstratified negation: {} depends negatively on {} within a recursive component",
                pred_name(head),
                pred_name(body)
            ),
            Provenance::Predicate {
                name: pred_name(head),
            },
        ));
    }

    // L004: rules whose positive body mentions a predicate that is
    // defined somewhere yet never derivable. (Undefined predicates are
    // already L002; re-flagging each rule would be noise.)
    let derivable = derivable_preds(program);
    for (i, rule) in program.rules.iter().enumerate() {
        let mut dead: Vec<String> = Vec::new();
        let mut only_undefined = true;
        for el in &rule.body {
            if let BodyElem::Pos(a) = el {
                let p = spackle_asp::analysis::pred_of(a);
                if !derivable.contains(&p) {
                    dead.push(pred_name(&p));
                    if !undefined.contains(&p) {
                        only_undefined = false;
                    }
                }
            }
        }
        if !dead.is_empty() && !only_undefined {
            diags.push(
                Diagnostic::new(
                    Code::L004,
                    format!("rule can never fire: {} is never derivable", dead.join(", ")),
                    rule_text(i),
                )
                .with_hint("it grounds to nothing; derive the predicate or delete the rule"),
            );
        }
    }

    // L005: head predicates no goal predicate (transitively) reads.
    if !goal_preds.is_empty() {
        let relevant = relevant_preds(program, goal_preds);
        let mut irrelevant: BTreeSet<String> = BTreeSet::new();
        for rule in &program.rules {
            if let Head::Atom(a) = &rule.head {
                let p = spackle_asp::analysis::pred_of(a);
                if derivable.contains(&p) && !relevant.contains(&p) {
                    irrelevant.insert(pred_name(&p));
                }
            }
        }
        let goals: Vec<&str> = goal_preds.iter().map(|g| g.as_str()).collect();
        for name in irrelevant {
            diags.push(
                Diagnostic::new(
                    Code::L005,
                    format!(
                        "predicate {} is never read by the goal predicates ({})",
                        name,
                        goals.join(", ")
                    ),
                    Provenance::Predicate { name },
                )
                .with_hint("no constraint, choice or cost reads it; its rules only add ground work"),
            );
        }
    }

    diags
}

/// Parse `text` and audit it. Parse failures surface as [`AspError`];
/// goal predicate names are interned here for convenience.
pub fn audit_program_text(text: &str, goal_preds: &[&str]) -> Result<Vec<Diagnostic>, AspError> {
    let program = parse_program(text)?;
    let goals: Vec<Sym> = goal_preds.iter().map(|g| Sym::intern(g)).collect();
    Ok(audit_program(&program, &goals))
}
