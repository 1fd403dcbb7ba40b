//! The structured-diagnostics core shared by both audit levels.
//!
//! Every finding is a [`Diagnostic`]: a stable [`Code`] (so CI deny-lists
//! survive message rewording), a [`Severity`], a human message, a
//! [`Provenance`] locating the finding in a package directive (with an
//! optional source [`Span`] for caret underlines) or in a logic-program
//! rule, and an optional fix-it hint. An [`AuditReport`] aggregates
//! diagnostics and renders them for humans or as JSON.

use spackle_spec::Span;
use std::fmt;

/// How bad a finding is. `Error` findings make `spackle audit` exit
/// nonzero; `--deny CODE` promotes a code to `Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never actionable on its own.
    Note,
    /// Suspicious but not provably wrong (e.g. a possible cycle that
    /// conditional dependencies may avoid at concretization time).
    Warning,
    /// Provably broken: the flagged construct can never behave as
    /// written.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. `R` codes come from the repository level,
/// `L` codes from the logic-program level, `E` codes from unsat-core
/// explanations (`spackle concretize --explain`). Codes are
/// append-only: a retired check leaves a hole rather than renumbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Dependency version constraint intersects no declared version of
    /// the target package.
    R001,
    /// A directive's `when=` (or a conflict spec) can never match any
    /// declared version of the package: the directive is vacuous.
    R002,
    /// A spec references a variant the constrained package does not
    /// declare.
    R003,
    /// A spec assigns a value a declared variant does not accept.
    R004,
    /// A referenced package name is neither a defined package nor a
    /// virtual with at least one provider.
    R005,
    /// A possible dependency cycle through non-build (link/run) edges.
    R006,
    /// The same directive is declared twice in one package.
    R007,
    /// A `can_splice` target version constraint matches no declared
    /// version of the target package: the splice can never apply.
    R008,
    /// A rule variable is unsafe (not bound by any positive body
    /// literal).
    L001,
    /// A predicate appears in a positive rule body but heads no rule.
    L002,
    /// Recursion through negation: the program is unstratified.
    L003,
    /// A rule can never fire: some positive body predicate is defined
    /// but never derivable.
    L004,
    /// A predicate is derivable but irrelevant to the goal predicates:
    /// no goal predicate, constraint, choice or cost depends on it.
    L005,
    /// A goal (or package) is statically unconcretizable: the solver
    /// proved UNSAT and extracted a minimized core of the responsible
    /// directives.
    L006,
    /// A goal cannot concretize: the unsat-core summary heading an
    /// explanation (`spackle concretize --explain`).
    E001,
    /// A package directive (`depends_on`, `conflicts`, `provides`,
    /// `can_splice`) participates in the unsat core.
    E002,
    /// A goal requirement (a root constraint or a `--forbid` exclusion)
    /// participates in the unsat core.
    E003,
    /// Core minimization did not finish (probe budget, timeout, or
    /// cancellation): the reported core is correct but possibly
    /// non-minimal.
    E004,
    /// A derived constraint (solver-internal rule, logic fragment, or
    /// completion clause) participates in the unsat core.
    E005,
}

impl Code {
    /// Every code, in order.
    pub const ALL: [Code; 19] = [
        Code::R001,
        Code::R002,
        Code::R003,
        Code::R004,
        Code::R005,
        Code::R006,
        Code::R007,
        Code::R008,
        Code::L001,
        Code::L002,
        Code::L003,
        Code::L004,
        Code::L005,
        Code::L006,
        Code::E001,
        Code::E002,
        Code::E003,
        Code::E004,
        Code::E005,
    ];

    /// The stable string form, e.g. `"SPKL-R001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::R001 => "SPKL-R001",
            Code::R002 => "SPKL-R002",
            Code::R003 => "SPKL-R003",
            Code::R004 => "SPKL-R004",
            Code::R005 => "SPKL-R005",
            Code::R006 => "SPKL-R006",
            Code::R007 => "SPKL-R007",
            Code::R008 => "SPKL-R008",
            Code::L001 => "SPKL-L001",
            Code::L002 => "SPKL-L002",
            Code::L003 => "SPKL-L003",
            Code::L004 => "SPKL-L004",
            Code::L005 => "SPKL-L005",
            Code::L006 => "SPKL-L006",
            Code::E001 => "SPKL-E001",
            Code::E002 => "SPKL-E002",
            Code::E003 => "SPKL-E003",
            Code::E004 => "SPKL-E004",
            Code::E005 => "SPKL-E005",
        }
    }

    /// Parse `"SPKL-R001"` (or the bare `"R001"`), case-insensitively.
    pub fn parse(s: &str) -> Option<Code> {
        let s = s.trim();
        let bare = s
            .strip_prefix("SPKL-")
            .or_else(|| s.strip_prefix("spkl-"))
            .unwrap_or(s);
        Code::ALL
            .iter()
            .copied()
            .find(|c| c.as_str()[5..].eq_ignore_ascii_case(bare))
    }

    /// Severity when no `--deny` override applies.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::R001
            | Code::R003
            | Code::R004
            | Code::R005
            | Code::R008
            | Code::L001
            | Code::L006
            | Code::E001
            | Code::E002
            | Code::E003 => Severity::Error,
            Code::R002 | Code::R006 | Code::R007 | Code::L002 | Code::L004 | Code::E004 => {
                Severity::Warning
            }
            Code::L003 | Code::L005 | Code::E005 => Severity::Note,
        }
    }

    /// Short registry title (used by `spackle audit --explain`-style
    /// listings and the docs table).
    pub fn title(self) -> &'static str {
        match self {
            Code::R001 => "empty dependency version intersection",
            Code::R002 => "vacuous directive condition",
            Code::R003 => "undeclared variant",
            Code::R004 => "illegal variant value",
            Code::R005 => "unresolvable package reference",
            Code::R006 => "possible non-build dependency cycle",
            Code::R007 => "duplicate directive",
            Code::R008 => "unsatisfiable can_splice target",
            Code::L001 => "unsafe rule variable",
            Code::L002 => "undefined predicate in positive body",
            Code::L003 => "recursion through negation",
            Code::L004 => "rule can never fire",
            Code::L005 => "predicate irrelevant to goals",
            Code::L006 => "goal statically unconcretizable",
            Code::E001 => "goal cannot concretize",
            Code::E002 => "directive in unsat core",
            Code::E003 => "goal requirement in unsat core",
            Code::E004 => "unsat core possibly non-minimal",
            Code::E005 => "derived constraint in unsat core",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// A package directive. `directive` is the rendered directive text
    /// (`depends_on("zlib@9.9", when="+shared")`); `span`, when present,
    /// indexes into that text and selects the offending token.
    Package {
        /// Declaring package name.
        package: String,
        /// Rendered directive text, if the finding is tied to one.
        directive: Option<String>,
        /// Byte span of the offending token within `directive`.
        span: Option<Span>,
    },
    /// A logic-program rule, by index into `Program::rules`.
    Rule {
        /// Rule index in the audited program.
        index: usize,
        /// The rule, rendered.
        text: String,
    },
    /// A predicate of the logic program (`name/arity`).
    Predicate {
        /// `name/arity` notation.
        name: String,
    },
}

/// One structured finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Effective severity (default per code; `--deny` may promote).
    pub severity: Severity,
    /// Human-readable description of this specific instance.
    pub message: String,
    /// Where the finding lives.
    pub provenance: Provenance,
    /// Optional fix-it hint.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with the code's default severity and no hint.
    pub fn new(code: Code, message: impl Into<String>, provenance: Provenance) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            provenance,
            hint: None,
        }
    }

    /// Attach a fix-it hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diagnostic {
        self.hint = Some(hint.into());
        self
    }
}

/// An audit run's findings, with deny-list application and rendering.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// All findings, repository level first, then program level.
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// Wrap a list of findings.
    pub fn new(diagnostics: Vec<Diagnostic>) -> AuditReport {
        AuditReport { diagnostics }
    }

    /// Append another level's findings.
    pub fn extend(&mut self, more: Vec<Diagnostic>) {
        self.diagnostics.extend(more);
    }

    /// Promote every diagnostic whose code is in `codes` to
    /// [`Severity::Error`].
    pub fn deny(&mut self, codes: &[Code]) {
        for d in &mut self.diagnostics {
            if codes.contains(&d.code) {
                d.severity = Severity::Error;
            }
        }
    }

    /// Count findings at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == sev).count()
    }

    /// True when any finding is an error (after deny promotion): the
    /// CLI exits nonzero.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Rustc-style human rendering with caret underlines where a span
    /// is known.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            render_one_human(d, &mut out);
        }
        out.push_str(&format!(
            "audit: {} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        ));
        out
    }

    /// Stable JSON rendering (one object; no trailing newline inside
    /// values). Field order is fixed so goldens can string-compare.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_one_json(d, &mut out);
        }
        out.push_str(&format!(
            "],\"summary\":{{\"errors\":{},\"warnings\":{},\"notes\":{}}}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        ));
        out
    }
}

fn render_one_human(d: &Diagnostic, out: &mut String) {
    out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
    match &d.provenance {
        Provenance::Package {
            package,
            directive,
            span,
        } => {
            match directive {
                Some(text) => {
                    out.push_str(&format!("  --> {package}: {text}\n"));
                    if let Some(sp) = span {
                        if !sp.is_empty() && sp.end <= text.len() {
                            // "  --> " is 6 columns, then the package name
                            // and ": " precede the directive text.
                            let indent = 6 + package.len() + 2 + sp.start;
                            out.push_str(&" ".repeat(indent));
                            out.push_str(&"^".repeat(sp.len()));
                            out.push('\n');
                        }
                    }
                }
                None => out.push_str(&format!("  --> {package}\n")),
            }
        }
        Provenance::Rule { index, text } => {
            out.push_str(&format!("  --> rule {index}: {text}\n"));
        }
        Provenance::Predicate { name } => {
            out.push_str(&format!("  --> predicate {name}\n"));
        }
    }
    if let Some(h) = &d.hint {
        out.push_str(&format!("  = hint: {h}\n"));
    }
}

fn render_one_json(d: &Diagnostic, out: &mut String) {
    out.push_str("{\"code\":");
    json_string(d.code.as_str(), out);
    out.push_str(",\"severity\":");
    json_string(&d.severity.to_string(), out);
    out.push_str(",\"message\":");
    json_string(&d.message, out);
    out.push_str(",\"provenance\":");
    match &d.provenance {
        Provenance::Package {
            package,
            directive,
            span,
        } => {
            out.push_str("{\"kind\":\"package\",\"package\":");
            json_string(package, out);
            if let Some(text) = directive {
                out.push_str(",\"directive\":");
                json_string(text, out);
            }
            if let Some(sp) = span {
                out.push_str(&format!(
                    ",\"span\":{{\"start\":{},\"end\":{}}}",
                    sp.start, sp.end
                ));
            }
            out.push('}');
        }
        Provenance::Rule { index, text } => {
            out.push_str(&format!("{{\"kind\":\"rule\",\"index\":{index},\"text\":"));
            json_string(text, out);
            out.push('}');
        }
        Provenance::Predicate { name } => {
            out.push_str("{\"kind\":\"predicate\",\"name\":");
            json_string(name, out);
            out.push('}');
        }
    }
    if let Some(h) = &d.hint {
        out.push_str(",\"hint\":");
        json_string(h, out);
    }
    out.push('}');
}

/// Minimal JSON string escaper (the crate deliberately avoids a serde
/// dependency: the output schema is flat and fixed).
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip_and_registry() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            // Bare form and lowercase both parse.
            assert_eq!(Code::parse(&c.as_str()[5..]), Some(c));
            assert_eq!(Code::parse(&c.as_str().to_lowercase()), Some(c));
            assert!(!c.title().is_empty());
        }
        assert_eq!(Code::parse("SPKL-R999"), None);
        assert_eq!(Code::parse("nonsense"), None);
    }

    #[test]
    fn deny_promotes_and_flips_exit_status() {
        let mut report = AuditReport::new(vec![Diagnostic::new(
            Code::R007,
            "duplicate directive",
            Provenance::Package {
                package: "app".into(),
                directive: None,
                span: None,
            },
        )]);
        assert!(!report.has_errors());
        report.deny(&[Code::R007]);
        assert!(report.has_errors());
        assert_eq!(report.count(Severity::Error), 1);
    }

    #[test]
    fn human_rendering_underlines_span() {
        let text = "depends_on(\"zlib@9.9\")".to_string();
        // Span over "@9.9" inside the rendered text.
        let span = Span::new(16, 20);
        let report = AuditReport::new(vec![Diagnostic::new(
            Code::R001,
            "no declared version of zlib matches @9.9",
            Provenance::Package {
                package: "app".into(),
                directive: Some(text),
                span: Some(span),
            },
        )
        .with_hint("declared versions of zlib: 1.3, 1.2.11")]);
        let human = report.render_human();
        assert!(human.contains("error[SPKL-R001]"), "{human}");
        assert!(human.contains("  --> app: depends_on(\"zlib@9.9\")"));
        let underline = human
            .lines()
            .find(|l| l.trim_start().starts_with('^'))
            .expect("underline line");
        // The caret column must line up with the '@' of the directive.
        let header = "  --> app: ";
        assert_eq!(underline.len(), header.len() + span.end);
        assert!(underline.ends_with("^^^^"));
        assert!(human.contains("= hint: declared versions"));
        assert!(human.contains("1 error(s), 0 warning(s), 0 note(s)"));
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let report = AuditReport::new(vec![Diagnostic::new(
            Code::L001,
            "variable \"X\"\nis unsafe",
            Provenance::Rule {
                index: 3,
                text: "p(X) :- not q(X).".into(),
            },
        )]);
        let json = report.render_json();
        assert!(json.contains("\"code\":\"SPKL-L001\""), "{json}");
        assert!(json.contains("\\\"X\\\"\\nis unsafe"), "{json}");
        assert!(json.contains("\"kind\":\"rule\",\"index\":3"), "{json}");
        assert!(json.contains("\"summary\":{\"errors\":1,\"warnings\":0,\"notes\":0}"));
        // No raw control characters may survive escaping.
        assert!(!json.chars().any(|c| (c as u32) < 0x20));
    }
}
