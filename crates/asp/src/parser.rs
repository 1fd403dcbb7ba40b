//! Parser for the ASP text fragment used by the concretizer's logic
//! program (a subset of Clingo's input language).
//!
//! Supported statements:
//!
//! ```text
//! fact(a, "str", 5).
//! head(X) :- body(X), not other(X), X != "y".
//! :- forbidden(X).
//! 1 { pick(V) : candidate(V) } 1 :- node(N).
//! { reuse(H) : installed(H) } 1 :- node(N).
//! #minimize { 100@2,Node : build(Node) }.
//! #heuristic reuse(H) : installed(H). [1, sign]
//! % comments run to end of line
//! ```
//!
//! `#heuristic` takes only the `sign` modifier with an integer value and
//! no `@priority`; any other modifier or a priority is a parse error.

use crate::program::{BodyElem, ChoiceElem, CmpOp, Head, Heuristic, MinimizeElem, Program, Rule};
use crate::term::{Atom, Term};
use crate::{AspError, Result};
use spackle_spec::Sym;

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(Sym),
    Var(Sym),
    Int(i64),
    Str(Sym),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Dot,
    Colon,
    If, // :-
    At,
    Cmp(CmpOp),
    Minimize,
    Heuristic,
    Not,
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            text,
            src: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> AspError {
        AspError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn tokens(mut self) -> Result<Vec<(usize, Tok)>> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let start = self.pos;
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'%' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'(' => {
                    self.pos += 1;
                    out.push((start, Tok::LParen));
                }
                b')' => {
                    self.pos += 1;
                    out.push((start, Tok::RParen));
                }
                b'{' => {
                    self.pos += 1;
                    out.push((start, Tok::LBrace));
                }
                b'}' => {
                    self.pos += 1;
                    out.push((start, Tok::RBrace));
                }
                b'[' => {
                    self.pos += 1;
                    out.push((start, Tok::LBracket));
                }
                b']' => {
                    self.pos += 1;
                    out.push((start, Tok::RBracket));
                }
                b',' => {
                    self.pos += 1;
                    out.push((start, Tok::Comma));
                }
                b';' => {
                    self.pos += 1;
                    out.push((start, Tok::Semi));
                }
                b'.' => {
                    self.pos += 1;
                    out.push((start, Tok::Dot));
                }
                b'@' => {
                    self.pos += 1;
                    out.push((start, Tok::At));
                }
                b':' => {
                    if self.src.get(self.pos + 1) == Some(&b'-') {
                        self.pos += 2;
                        out.push((start, Tok::If));
                    } else {
                        self.pos += 1;
                        out.push((start, Tok::Colon));
                    }
                }
                b'=' => {
                    self.pos += 1;
                    out.push((start, Tok::Cmp(CmpOp::Eq)));
                }
                b'!' => {
                    if self.src.get(self.pos + 1) == Some(&b'=') {
                        self.pos += 2;
                        out.push((start, Tok::Cmp(CmpOp::Ne)));
                    } else {
                        return Err(self.err("expected != after !"));
                    }
                }
                b'<' => {
                    if self.src.get(self.pos + 1) == Some(&b'=') {
                        self.pos += 2;
                        out.push((start, Tok::Cmp(CmpOp::Le)));
                    } else {
                        self.pos += 1;
                        out.push((start, Tok::Cmp(CmpOp::Lt)));
                    }
                }
                b'>' => {
                    if self.src.get(self.pos + 1) == Some(&b'=') {
                        self.pos += 2;
                        out.push((start, Tok::Cmp(CmpOp::Ge)));
                    } else {
                        self.pos += 1;
                        out.push((start, Tok::Cmp(CmpOp::Gt)));
                    }
                }
                b'#' => {
                    self.pos += 1;
                    let word = self.read_word();
                    match word.as_str() {
                        "minimize" => out.push((start, Tok::Minimize)),
                        "heuristic" => out.push((start, Tok::Heuristic)),
                        _ => return Err(self.err(format!("unsupported directive #{word}"))),
                    }
                }
                b'"' => {
                    self.pos += 1;
                    let s = self.read_string()?;
                    out.push((start, Tok::Str(Sym::intern(&s))));
                }
                b'0'..=b'9' => {
                    let n = self.read_int()?;
                    out.push((start, Tok::Int(n)));
                }
                b'-' if matches!(self.src.get(self.pos + 1), Some(b'0'..=b'9')) => {
                    self.pos += 1;
                    let n = self.read_int()?;
                    out.push((start, Tok::Int(-n)));
                }
                b'a'..=b'z' => {
                    let w = self.read_word();
                    if w == "not" {
                        out.push((start, Tok::Not));
                    } else {
                        out.push((start, Tok::Ident(Sym::intern(&w))));
                    }
                }
                b'A'..=b'Z' | b'_' => {
                    let w = self.read_word();
                    out.push((start, Tok::Var(Sym::intern(&w))));
                }
                other => {
                    return Err(self.err(format!("unexpected character {:?}", other as char)));
                }
            }
        }
        Ok(out)
    }

    fn read_word(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn read_int(&mut self) -> Result<i64> {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("invalid integer"))
    }

    /// The string whose opening quote was just consumed. Bytes between
    /// escapes are copied whole: the delimiters are ASCII, so each run
    /// is valid UTF-8 cut from the source text.
    fn read_string(&mut self) -> Result<String> {
        let mut s = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.src.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            s.push_str(&self.text[start..self.pos]);
            match self.src.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => {
                    self.pos += 1;
                    match self.src.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        _ => return Err(self.err("bad escape in string")),
                    }
                    self.pos += 1;
                }
            }
        }
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(o, _)| *o)
            .unwrap_or(usize::MAX)
    }

    fn err(&self, message: impl Into<String>) -> AspError {
        AspError::Parse {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        match self.bump() {
            Some(t) if t == tok => Ok(()),
            other => Err(self.err(format!("expected {tok:?}, found {other:?}"))),
        }
    }

    /// Parse the next statement into `prog`; true when it was a rule.
    fn parse_statement(&mut self, prog: &mut Program) -> Result<bool> {
        match self.peek() {
            Some(Tok::Minimize) => {
                self.bump();
                let elems = self.parse_minimize_body()?;
                prog.minimize.extend(elems);
                Ok(false)
            }
            Some(Tok::Heuristic) => {
                self.bump();
                let h = self.parse_heuristic()?;
                prog.heuristics.push(h);
                Ok(false)
            }
            _ => {
                prog.rules.push(self.parse_rule()?);
                Ok(true)
            }
        }
    }

    fn parse_rule(&mut self) -> Result<Rule> {
        let head = match self.peek() {
            Some(Tok::If) => Head::None,
            Some(Tok::LBrace) | Some(Tok::Int(_))
                if matches!(self.peek(), Some(Tok::LBrace))
                    || matches!(self.peek2(), Some(Tok::LBrace)) =>
            {
                self.parse_choice()?
            }
            _ => Head::Atom(self.parse_atom()?),
        };
        let mut body = Vec::new();
        if self.peek() == Some(&Tok::If) {
            self.bump();
            body = self.parse_body(&Tok::Dot)?;
        }
        self.expect(Tok::Dot)?;
        Ok(Rule { head, body })
    }

    fn parse_choice(&mut self) -> Result<Head> {
        let lower = if let Some(Tok::Int(n)) = self.peek() {
            let n = *n;
            self.bump();
            Some(u32::try_from(n).map_err(|_| self.err("negative choice bound"))?)
        } else {
            None
        };
        self.expect(Tok::LBrace)?;
        let mut elements = Vec::new();
        loop {
            let atom = self.parse_atom()?;
            let mut condition = Vec::new();
            if self.peek() == Some(&Tok::Colon) {
                self.bump();
                // Condition elements are comma-separated and end at ; or }.
                loop {
                    condition.push(self.parse_body_elem()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            elements.push(ChoiceElem { atom, condition });
            match self.peek() {
                Some(Tok::Semi) => {
                    self.bump();
                }
                Some(Tok::RBrace) => break,
                other => return Err(self.err(format!("expected ; or }} in choice, got {other:?}"))),
            }
        }
        self.expect(Tok::RBrace)?;
        let upper = if let Some(Tok::Int(n)) = self.peek() {
            let n = *n;
            self.bump();
            Some(u32::try_from(n).map_err(|_| self.err("negative choice bound"))?)
        } else {
            None
        };
        Ok(Head::Choice {
            lower,
            upper,
            elements,
        })
    }

    /// Parse a comma-separated body; stops before `end` (not consumed).
    fn parse_body(&mut self, end: &Tok) -> Result<Vec<BodyElem>> {
        let mut out = Vec::new();
        loop {
            out.push(self.parse_body_elem()?);
            if self.peek() == Some(&Tok::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        if self.peek() != Some(end) && !matches!(end, Tok::Dot) {
            return Err(self.err(format!("expected {end:?} after body")));
        }
        Ok(out)
    }

    fn parse_body_elem(&mut self) -> Result<BodyElem> {
        if self.peek() == Some(&Tok::Not) {
            self.bump();
            return Ok(BodyElem::Neg(self.parse_atom()?));
        }
        let term = self.parse_term()?;
        if let Some(Tok::Cmp(op)) = self.peek() {
            let op = *op;
            self.bump();
            let rhs = self.parse_term()?;
            return Ok(BodyElem::Cmp(term, op, rhs));
        }
        // Otherwise the term must be atom-shaped.
        match term {
            Term::Sym(p) => Ok(BodyElem::Pos(Atom {
                pred: p,
                args: vec![],
            })),
            Term::Func(p, args) => Ok(BodyElem::Pos(Atom { pred: p, args })),
            other => Err(self.err(format!("expected atom or comparison, found term {other}"))),
        }
    }

    fn parse_atom(&mut self) -> Result<Atom> {
        match self.parse_term()? {
            Term::Sym(p) => Ok(Atom {
                pred: p,
                args: vec![],
            }),
            Term::Func(p, args) => Ok(Atom { pred: p, args }),
            other => Err(self.err(format!("expected atom, found {other}"))),
        }
    }

    fn parse_term(&mut self) -> Result<Term> {
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Term::Int(n)),
            Some(Tok::Str(s)) => Ok(Term::Str(s)),
            Some(Tok::Var(v)) => Ok(Term::Var(v)),
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.parse_term()?);
                            if self.peek() == Some(&Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Term::Func(name, args))
                } else {
                    Ok(Term::Sym(name))
                }
            }
            other => Err(self.err(format!("expected term, found {other:?}"))),
        }
    }

    /// After `#minimize`: `{ elem ; elem ; ... }.`
    fn parse_minimize_body(&mut self) -> Result<Vec<MinimizeElem>> {
        self.expect(Tok::LBrace)?;
        let mut elems = Vec::new();
        loop {
            let weight = self.parse_term()?;
            let priority = if self.peek() == Some(&Tok::At) {
                self.bump();
                self.parse_term()?
            } else {
                Term::Int(0)
            };
            let mut terms = Vec::new();
            while self.peek() == Some(&Tok::Comma) {
                self.bump();
                terms.push(self.parse_term()?);
            }
            let mut condition = Vec::new();
            if self.peek() == Some(&Tok::Colon) {
                self.bump();
                loop {
                    condition.push(self.parse_body_elem()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            elems.push(MinimizeElem {
                weight,
                priority,
                terms,
                condition,
            });
            match self.peek() {
                Some(Tok::Semi) => {
                    self.bump();
                }
                Some(Tok::RBrace) => break,
                other => {
                    return Err(self.err(format!("expected ; or }} in #minimize, got {other:?}")))
                }
            }
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Dot)?;
        Ok(elems)
    }

    /// After `#heuristic`: `atom [: condition]. [value, sign]`.
    fn parse_heuristic(&mut self) -> Result<Heuristic> {
        let atom = self.parse_atom()?;
        let mut condition = Vec::new();
        if self.peek() == Some(&Tok::Colon) {
            self.bump();
            condition = self.parse_body(&Tok::Dot)?;
        }
        self.expect(Tok::Dot)?;
        self.expect(Tok::LBracket)?;
        let value = match self.peek() {
            Some(&Tok::Int(v)) => v,
            other => {
                let found = format!("expected an integer #heuristic value, found {other:?}");
                return Err(self.err(found));
            }
        };
        self.bump();
        if self.peek() == Some(&Tok::At) {
            return Err(self.err("#heuristic priorities (@P) are not supported"));
        }
        self.expect(Tok::Comma)?;
        match self.peek() {
            Some(Tok::Ident(m)) if m.as_str() == "sign" => {}
            Some(Tok::Ident(m)) => {
                let m = format!("unsupported #heuristic modifier {m}: only sign is supported");
                return Err(self.err(m));
            }
            other => {
                let found = format!("expected a #heuristic modifier, found {other:?}");
                return Err(self.err(found));
            }
        }
        self.bump();
        self.expect(Tok::RBracket)?;
        Ok(Heuristic {
            atom,
            condition,
            value,
        })
    }
}

/// Parse a complete program from text.
pub fn parse_program(text: &str) -> Result<Program> {
    Ok(parse_program_spanned(text)?.0)
}

/// Parse a complete program, additionally returning the byte offset of
/// each rule's first token into `text`, indexed exactly like the
/// returned `Program::rules`. `#minimize` and `#heuristic` statements
/// contribute no offset (they never appear in unsat cores). The parsed
/// program is identical to [`parse_program`]'s.
pub fn parse_program_spanned(text: &str) -> Result<(Program, Vec<usize>)> {
    let toks = Lexer::new(text).tokens()?;
    let mut p = Parser { toks, pos: 0 };
    let mut prog = Program::new();
    let mut offsets = Vec::new();
    while p.peek().is_some() {
        let off = p.offset();
        if p.parse_statement(&mut prog)? {
            offsets.push(off);
        }
    }
    Ok((prog, offsets))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_fact() {
        let p = parse_program(r#"node("example")."#).unwrap();
        assert_eq!(p.rules.len(), 1);
        assert!(p.rules[0].body.is_empty());
        match &p.rules[0].head {
            Head::Atom(a) => {
                assert_eq!(a.pred.as_str(), "node");
                assert_eq!(a.args, vec![Term::str("example")]);
            }
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn parse_rule_with_negation_and_cmp() {
        let p = parse_program("b(X) :- a(X), not c(X), X != 3.").unwrap();
        let r = &p.rules[0];
        assert_eq!(r.body.len(), 3);
        assert!(matches!(r.body[1], BodyElem::Neg(_)));
        assert!(matches!(r.body[2], BodyElem::Cmp(_, CmpOp::Ne, _)));
    }

    #[test]
    fn parse_constraint() {
        let p = parse_program(":- bad(X).").unwrap();
        assert!(matches!(p.rules[0].head, Head::None));
    }

    #[test]
    fn parse_choice_bounds() {
        let p = parse_program(
            "1 { attr(\"version\", node(P), V) : pkg_fact(P, version_declared(V)) } 1 :- node(P).",
        )
        .unwrap();
        match &p.rules[0].head {
            Head::Choice {
                lower,
                upper,
                elements,
            } => {
                assert_eq!((*lower, *upper), (Some(1), Some(1)));
                assert_eq!(elements.len(), 1);
                assert_eq!(elements[0].condition.len(), 1);
            }
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn parse_upper_only_choice() {
        let p = parse_program("{ reuse(H) : installed(H) } 1 :- node(N).").unwrap();
        match &p.rules[0].head {
            Head::Choice { lower, upper, .. } => {
                assert_eq!(*lower, None);
                assert_eq!(*upper, Some(1));
            }
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn parse_unbounded_choice() {
        let p = parse_program("{ pick(X) : cand(X) }.").unwrap();
        match &p.rules[0].head {
            Head::Choice { lower, upper, .. } => {
                assert_eq!((*lower, *upper), (None, None));
            }
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn parse_minimize() {
        let p = parse_program("#minimize { 100@2,Node : build(Node) }.").unwrap();
        assert_eq!(p.minimize.len(), 1);
        let m = &p.minimize[0];
        assert_eq!(m.weight, Term::Int(100));
        assert_eq!(m.priority, Term::Int(2));
        assert_eq!(m.terms.len(), 1);
        assert_eq!(m.condition.len(), 1);
    }

    #[test]
    fn parse_multiple_minimize_elems() {
        let p =
            parse_program("#minimize { 1@1,X : a(X) ; 2@1,Y : b(Y) }.").unwrap();
        assert_eq!(p.minimize.len(), 2);
    }

    #[test]
    fn parse_comments_and_whitespace() {
        let p = parse_program(
            "% a comment\n  a. % trailing\n% full line\nb :- a.\n",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn parse_nested_terms() {
        let p = parse_program(r#"attr("depends_on", node("a"), node("b"), "link-run")."#).unwrap();
        match &p.rules[0].head {
            Head::Atom(a) => assert_eq!(a.args.len(), 4),
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn parse_string_escapes() {
        let p = parse_program(r#"a("he said \"hi\"")."#).unwrap();
        match &p.rules[0].head {
            Head::Atom(a) => match &a.args[0] {
                Term::Str(s) => assert_eq!(s.as_str(), "he said \"hi\""),
                other => panic!("unexpected arg {other:?}"),
            },
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn parse_string_utf8() {
        let p = parse_program("a(\"café\", \"日本\\\"語\\n\", \"\u{1F980}\\\\\").").unwrap();
        match &p.rules[0].head {
            Head::Atom(a) => assert_eq!(
                a.args,
                vec![
                    Term::str("café"),
                    Term::str("日本\"語\n"),
                    Term::str("\u{1F980}\\")
                ]
            ),
            other => panic!("unexpected head {other:?}"),
        }
    }

    proptest::proptest! {
        /// Every string, control characters and non-ASCII included,
        /// survives display and re-parse, inside compound terms too.
        #[test]
        fn displayed_atoms_parse_back(
            a in proptest::prop::collection::vec(any_char(), 0..12),
            b in proptest::prop::collection::vec(any_char(), 0..12),
            n in -5i64..5,
        ) {
            let (a, b): (String, String) = (a.into_iter().collect(), b.into_iter().collect());
            let atom = Atom::new(
                "p",
                vec![Term::Str(Sym::intern(&a)), Term::func("f", vec![Term::Str(Sym::intern(&b)), Term::Int(n)])],
            );
            let text = format!("{atom}.");
            let p = parse_program(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            proptest::prop_assert_eq!(&p.rules[0].head, &Head::Atom(atom));
        }
    }

    /// Characters weighted toward the ones quoting must handle: the
    /// escapes, control characters and multi-byte UTF-8.
    fn any_char() -> impl proptest::Strategy<Value = char> {
        use proptest::Strategy;
        proptest::prop_oneof![
            proptest::prop::sample::select(vec![
                '"',
                '\\',
                '\n',
                '\t',
                '\r',
                '\0',
                '\u{7f}',
                'n',
                'é',
                '日',
                '\u{1F980}',
                '\u{200B}',
                '\u{301}',
            ]),
            (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')),
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ASCII")),
        ]
    }

    #[test]
    fn parse_heuristic_forms() {
        let text = "a. #heuristic a. [1, sign] \
                    #heuristic p(X) : q(X), not r(X), X != 2. [-3, sign] b.";
        let (p, offsets) = parse_program_spanned(text).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(offsets, [0, text.rfind('b').unwrap()]);
        assert_eq!(p.heuristics.len(), 2);
        let h = &p.heuristics[1];
        assert_eq!(
            (h.atom.to_string().as_str(), h.condition.len(), h.value),
            ("p(X)", 3, -3)
        );
        assert_eq!(
            h.to_string(),
            "#heuristic p(X) : q(X), not r(X), X != 2. [-3, sign]"
        );
        let again = parse_program(&p.to_string()).unwrap();
        assert_eq!(again.heuristics, p.heuristics);
        assert_eq!(again.rules, p.rules);
    }

    #[test]
    fn heuristic_takes_only_the_sign_modifier() {
        for (text, said) in [
            ("#heuristic a. [1, level]", "modifier level"),
            ("#heuristic a. [1, init]", "modifier init"),
            ("#heuristic a. [1, factor]", "modifier factor"),
            ("#heuristic a. [1, true]", "modifier true"),
            ("#heuristic a. [1, false]", "modifier false"),
            ("#heuristic a. [1@2, sign]", "priorities"),
            ("#heuristic a. [x, sign]", "integer"),
            ("#heuristic a. [1]", "expected Comma"),
            ("#heuristic a [1, sign]", "expected Dot"),
        ] {
            match parse_program(text) {
                Err(AspError::Parse { message, .. }) => {
                    assert!(message.contains(said), "{text}: {message}")
                }
                other => panic!("{text}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_negative_int() {
        let p = parse_program("a(-5).").unwrap();
        match &p.rules[0].head {
            Head::Atom(a) => assert_eq!(a.args[0], Term::Int(-5)),
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_program("a(").is_err());
        assert!(parse_program("a.b").is_err());
        assert!(parse_program(":- .").is_err());
        assert!(parse_program("#maximize { 1@1 : a }.").is_err());
        assert!(parse_program(r#"a("unterminated"#).is_err());
        assert!(parse_program("a :- X ! 3.").is_err());
    }

    #[test]
    fn roundtrip_display_parse() {
        let text = r#"
            node("example").
            attr("version", node("example"), "1.1.0") :- node("example"), not masked("example").
            1 { pick(V) : declared(V) } 1 :- node(N).
            :- conflict(A, B), A != B.
        "#;
        let once = parse_program(text).unwrap();
        let printed = once.to_string();
        let twice = parse_program(&printed).unwrap();
        assert_eq!(once.rules, twice.rules);
    }

    #[test]
    fn paper_fig4a_can_splice_rule() {
        // The compiled can_splice rule from Fig 4a parses.
        let text = r#"
            can_splice(node("example"),"example-ng",Hash) :-
                installed_hash("example-ng",Hash),
                attr("node",node("example")),
                hash_attr(Hash,"version","example-ng","2.3.2"),
                attr("version",node("example"),"1.1.0"),
                hash_attr(Hash,"variant","example-ng","compat","True"),
                attr("variant",node("example"),"compat","True").
        "#;
        let p = parse_program(text).unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].body.len(), 6);
    }
}
