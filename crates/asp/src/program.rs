//! Logic-program AST: rules, choice heads, constraints, minimize
//! statements, and a builder API. The concretizer builds its programs
//! through it: its encoder emits the fact base as ground [`Atom`]s,
//! added with [`Program::fact`], and its directive rules as [`Rule`]s,
//! so nothing is printed and parsed back on the way to the grounder.

use crate::term::{Atom, Term};
use spackle_spec::Sym;
use std::fmt;

/// Comparison operators for builtin literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// One element of a rule body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BodyElem {
    /// Positive literal.
    Pos(Atom),
    /// Negative literal (`not atom`).
    Neg(Atom),
    /// Comparison builtin (`X != Y`).
    Cmp(Term, CmpOp, Term),
}

impl BodyElem {
    /// Collect variables (with duplicates) into `out`; `pos_only`
    /// restricts to positive literals (which bind variables).
    pub fn collect_vars(&self, out: &mut Vec<Sym>, pos_only: bool) {
        match self {
            BodyElem::Pos(a) => a.collect_vars(out),
            BodyElem::Neg(a) if !pos_only => a.collect_vars(out),
            BodyElem::Cmp(l, _, r) if !pos_only => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            _ => {}
        }
    }
}

impl fmt::Display for BodyElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyElem::Pos(a) => write!(f, "{a}"),
            BodyElem::Neg(a) => write!(f, "not {a}"),
            BodyElem::Cmp(l, op, r) => write!(f, "{l} {op} {r}"),
        }
    }
}

/// One element of a choice head: `atom : condition`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChoiceElem {
    /// The choosable atom.
    pub atom: Atom,
    /// Positive-literal / comparison condition after `:` (may be empty).
    pub condition: Vec<BodyElem>,
}

impl fmt::Display for ChoiceElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.atom)?;
        if !self.condition.is_empty() {
            f.write_str(" : ")?;
            for (i, c) in self.condition.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        Ok(())
    }
}

/// A rule head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Head {
    /// Integrity constraint: no head (`:- body.`).
    None,
    /// Regular atom head.
    Atom(Atom),
    /// Choice with optional cardinality bounds:
    /// `lower { elems } upper :- body.`
    Choice {
        /// Minimum number of chosen elements (when the body holds).
        lower: Option<u32>,
        /// Maximum number of chosen elements (when the body holds).
        upper: Option<u32>,
        /// The choosable elements.
        elements: Vec<ChoiceElem>,
    },
}

/// A rule: head and body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The head.
    pub head: Head,
    /// Body elements (conjunction).
    pub body: Vec<BodyElem>,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.head {
            Head::None => {}
            Head::Atom(a) => write!(f, "{a}")?,
            Head::Choice {
                lower,
                upper,
                elements,
            } => {
                if let Some(l) = lower {
                    write!(f, "{l} ")?;
                }
                f.write_str("{ ")?;
                for (i, e) in elements.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(" }")?;
                if let Some(u) = upper {
                    write!(f, " {u}")?;
                }
            }
        }
        if !self.body.is_empty() || matches!(self.head, Head::None) {
            f.write_str(" :- ")?;
            for (i, b) in self.body.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{b}")?;
            }
        }
        f.write_str(".")
    }
}

/// One `#minimize` element: `weight@priority, terms... : condition`.
///
/// In a model, each *distinct ground tuple* `(weight, priority, terms)`
/// whose condition holds contributes `weight` at level `priority`.
/// Higher priorities are optimized first (Clingo convention).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinimizeElem {
    /// Weight term (must ground to an integer).
    pub weight: Term,
    /// Priority term (must ground to an integer).
    pub priority: Term,
    /// Distinguishing tuple terms.
    pub terms: Vec<Term>,
    /// Condition (positive literals and comparisons).
    pub condition: Vec<BodyElem>,
}

/// A `#heuristic atom : condition. [value, sign]` directive: Clingo's
/// domain-specific heuristic (Gebser et al., AAAI 2013) restricted to
/// the `sign` modifier. It changes no model, only the polarity the
/// search first decides `atom` with: true when `value > 0`, false when
/// `value < 0`, and no preference at 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Heuristic {
    /// The atom whose decision polarity is set.
    pub atom: Atom,
    /// Domain condition (certain positive literals, never-possible
    /// negations, comparisons), as for a choice element.
    pub condition: Vec<BodyElem>,
    /// The sign value.
    pub value: i64,
}

impl fmt::Display for Heuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#heuristic {}", self.atom)?;
        for (i, c) in self.condition.iter().enumerate() {
            f.write_str(if i == 0 { " : " } else { ", " })?;
            write!(f, "{c}")?;
        }
        write!(f, ". [{}, sign]", self.value)
    }
}

/// A complete logic program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All rules, including facts (rules with empty bodies).
    pub rules: Vec<Rule>,
    /// All minimize elements, across all `#minimize` statements.
    pub minimize: Vec<MinimizeElem>,
    /// All `#heuristic` directives, in program order.
    pub heuristics: Vec<Heuristic>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append every rule, minimize element and heuristic of `other`.
    pub fn extend(&mut self, other: Program) {
        self.rules.extend(other.rules);
        self.minimize.extend(other.minimize);
        self.heuristics.extend(other.heuristics);
    }

    /// Add a ground fact.
    pub fn fact(&mut self, atom: Atom) {
        debug_assert!(atom.is_ground(), "facts must be ground: {atom}");
        self.rules.push(Rule {
            head: Head::Atom(atom),
            body: Vec::new(),
        });
    }

    /// Add a rule.
    pub fn rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Add an integrity constraint with the given body.
    pub fn constraint(&mut self, body: Vec<BodyElem>) {
        self.rules.push(Rule {
            head: Head::None,
            body,
        });
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        for m in &self.minimize {
            write!(f, "#minimize {{ {}@{}", m.weight, m.priority)?;
            for t in &m.terms {
                write!(f, ",{t}")?;
            }
            if !m.condition.is_empty() {
                f.write_str(" : ")?;
                for (i, c) in m.condition.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c}")?;
                }
            }
            writeln!(f, " }}.")?;
        }
        for h in &self.heuristics {
            writeln!(f, "{h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_fact() {
        let mut p = Program::new();
        p.fact(Atom::new("node", vec![Term::str("example")]));
        assert_eq!(p.to_string().trim(), r#"node("example")."#);
    }

    #[test]
    fn display_rule() {
        let r = Rule {
            head: Head::Atom(Atom::new("b", vec![Term::var("X")])),
            body: vec![
                BodyElem::Pos(Atom::new("a", vec![Term::var("X")])),
                BodyElem::Neg(Atom::new("c", vec![Term::var("X")])),
                BodyElem::Cmp(Term::var("X"), CmpOp::Ne, Term::Int(3)),
            ],
        };
        assert_eq!(r.to_string(), "b(X) :- a(X), not c(X), X != 3.");
    }

    #[test]
    fn display_constraint() {
        let r = Rule {
            head: Head::None,
            body: vec![BodyElem::Pos(Atom::new("bad", vec![]))],
        };
        assert_eq!(r.to_string(), " :- bad.");
    }

    #[test]
    fn display_heuristic() {
        let mut p = Program::new();
        p.heuristics.push(Heuristic {
            atom: Atom::new("reuse", vec![Term::var("H")]),
            condition: vec![BodyElem::Pos(Atom::new("installed", vec![Term::var("H")]))],
            value: 1,
        });
        p.heuristics.push(Heuristic {
            atom: Atom::new("a", vec![]),
            condition: Vec::new(),
            value: -2,
        });
        assert_eq!(
            p.to_string(),
            "#heuristic reuse(H) : installed(H). [1, sign]\n#heuristic a. [-2, sign]\n"
        );
    }

    #[test]
    fn display_choice() {
        let r = Rule {
            head: Head::Choice {
                lower: Some(1),
                upper: Some(1),
                elements: vec![ChoiceElem {
                    atom: Atom::new("version_set", vec![Term::var("V")]),
                    condition: vec![BodyElem::Pos(Atom::new(
                        "version_declared",
                        vec![Term::var("V")],
                    ))],
                }],
            },
            body: vec![BodyElem::Pos(Atom::new("node", vec![Term::var("N")]))],
        };
        assert_eq!(
            r.to_string(),
            "1 { version_set(V) : version_declared(V) } 1 :- node(N)."
        );
    }
}
