//! Terms and atoms, both symbolic (possibly containing variables) and
//! ground (hash-consed into integer ids for the solver pipeline).

use rustc_hash::FxHashMap;
use spackle_spec::Sym;
use std::cmp::Ordering;
use std::fmt;

/// A (possibly non-ground) term.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// Integer constant.
    Int(i64),
    /// Symbolic constant (`linux`, `x153`).
    Sym(Sym),
    /// Quoted string constant (`"example"`). Distinct from `Sym` per ASP
    /// semantics.
    Str(Sym),
    /// Variable (`Name`, `Hash`). Uppercase-initial in the text syntax.
    Var(Sym),
    /// Compound term (`node("example")`).
    Func(Sym, Vec<Term>),
}

impl Term {
    /// Convenience: a quoted-string term.
    pub fn str(s: &str) -> Term {
        Term::Str(Sym::intern(s))
    }
    /// Convenience: a symbolic-constant term.
    pub fn sym(s: &str) -> Term {
        Term::Sym(Sym::intern(s))
    }
    /// Convenience: a variable term.
    pub fn var(s: &str) -> Term {
        Term::Var(Sym::intern(s))
    }
    /// Convenience: a compound term.
    pub fn func(name: &str, args: Vec<Term>) -> Term {
        Term::Func(Sym::intern(name), args)
    }

    /// True when the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Func(_, args) => args.iter().all(Term::is_ground),
            _ => true,
        }
    }

    /// Collect variables into `out` (with duplicates).
    pub fn collect_vars(&self, out: &mut Vec<Sym>) {
        match self {
            Term::Var(v) => out.push(*v),
            Term::Func(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Int(i) => write!(f, "{i}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Str(s) => write!(f, "{:?}", s.as_str()),
            Term::Var(v) => write!(f, "{v}"),
            Term::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// A (possibly non-ground) atom: predicate applied to terms.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Predicate symbol.
    pub pred: Sym,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    pub fn new(pred: &str, args: Vec<Term>) -> Atom {
        Atom {
            pred: Sym::intern(pred),
            args,
        }
    }

    /// True when all arguments are ground.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }

    /// Collect variables into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Sym>) {
        for a in &self.args {
            a.collect_vars(out);
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            f.write_str("(")?;
            for (i, a) in self.args.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{a}")?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// Hash-consed ground term id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub u32);

/// Hash-consed ground atom id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AtomId(pub u32);

/// Interned ground term payload.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum GroundTerm {
    /// Integer constant.
    Int(i64),
    /// Symbolic constant.
    Sym(Sym),
    /// Quoted-string constant.
    Str(Sym),
    /// Compound term over interned children.
    Func(Sym, Box<[TermId]>),
}

/// Hash-consing store for ground terms and atoms.
///
/// Every distinct ground term/atom gets a dense integer id; the grounder,
/// CNF translator, and solver all speak in these ids, so equality is `==`
/// on a `u32` and maps are keyed by integers.
#[derive(Clone, Default)]
pub struct GroundStore {
    terms: Vec<GroundTerm>,
    term_map: FxHashMap<GroundTerm, TermId>,
    atoms: Vec<(Sym, Box<[TermId]>)>,
    atom_map: FxHashMap<(Sym, Box<[TermId]>), AtomId>,
}

impl GroundStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a ground term payload.
    pub fn term(&mut self, t: GroundTerm) -> TermId {
        if let Some(&id) = self.term_map.get(&t) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(t.clone());
        self.term_map.insert(t, id);
        id
    }

    /// Intern a fully ground [`Term`] tree. Panics if it has variables.
    pub fn intern_term(&mut self, t: &Term) -> TermId {
        match t {
            Term::Int(i) => self.term(GroundTerm::Int(*i)),
            Term::Sym(s) => self.term(GroundTerm::Sym(*s)),
            Term::Str(s) => self.term(GroundTerm::Str(*s)),
            Term::Var(v) => panic!("intern_term on non-ground term: variable {v}"),
            Term::Func(name, args) => {
                let kids: Box<[TermId]> = args.iter().map(|a| self.intern_term(a)).collect();
                self.term(GroundTerm::Func(*name, kids))
            }
        }
    }

    /// Intern a ground atom.
    pub fn atom(&mut self, pred: Sym, args: Box<[TermId]>) -> AtomId {
        let key = (pred, args);
        if let Some(&id) = self.atom_map.get(&key) {
            return id;
        }
        let id = AtomId(self.atoms.len() as u32);
        self.atoms.push(key.clone());
        self.atom_map.insert(key, id);
        id
    }

    /// Intern a fully ground [`Atom`].
    pub fn intern_atom(&mut self, a: &Atom) -> AtomId {
        let args: Box<[TermId]> = a.args.iter().map(|t| self.intern_term(t)).collect();
        self.atom(a.pred, args)
    }

    /// Look up a ground term payload.
    pub fn term_data(&self, id: TermId) -> &GroundTerm {
        &self.terms[id.0 as usize]
    }

    /// Look up a ground atom (predicate, args).
    pub fn atom_data(&self, id: AtomId) -> (Sym, &[TermId]) {
        let (p, args) = &self.atoms[id.0 as usize];
        (*p, args)
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Look up an atom id without interning.
    pub fn find_atom(&self, pred: Sym, args: &[TermId]) -> Option<AtomId> {
        self.atom_map.get(&(pred, args.into())).copied()
    }

    /// Look up a term id without interning. `None` means the term has
    /// never been interned — so in particular no interned atom can
    /// contain it.
    pub fn find_term(&self, t: &GroundTerm) -> Option<TermId> {
        self.term_map.get(t).copied()
    }

    /// Total order on ground terms: ints < syms < strings < funcs, each
    /// group internally ordered. Used by comparison builtins.
    pub fn compare(&self, a: TermId, b: TermId) -> Ordering {
        fn rank(t: &GroundTerm) -> u8 {
            match t {
                GroundTerm::Int(_) => 0,
                GroundTerm::Sym(_) => 1,
                GroundTerm::Str(_) => 2,
                GroundTerm::Func(..) => 3,
            }
        }
        if a == b {
            return Ordering::Equal;
        }
        let (ta, tb) = (self.term_data(a), self.term_data(b));
        match (ta, tb) {
            (GroundTerm::Int(x), GroundTerm::Int(y)) => x.cmp(y),
            (GroundTerm::Sym(x), GroundTerm::Sym(y)) => x.cmp(y),
            (GroundTerm::Str(x), GroundTerm::Str(y)) => x.cmp(y),
            (GroundTerm::Func(nx, ax), GroundTerm::Func(ny, ay)) => nx
                .cmp(ny)
                .then_with(|| ax.len().cmp(&ay.len()))
                .then_with(|| {
                    for (x, y) in ax.iter().zip(ay.iter()) {
                        match self.compare(*x, *y) {
                            Ordering::Equal => continue,
                            ord => return ord,
                        }
                    }
                    Ordering::Equal
                }),
            _ => rank(ta).cmp(&rank(tb)),
        }
    }

    /// Render a ground term.
    pub fn format_term(&self, id: TermId) -> String {
        match self.term_data(id) {
            GroundTerm::Int(i) => i.to_string(),
            GroundTerm::Sym(s) => s.as_str().to_string(),
            GroundTerm::Str(s) => format!("{:?}", s.as_str()),
            GroundTerm::Func(name, args) => {
                let inner: Vec<String> = args.iter().map(|&a| self.format_term(a)).collect();
                format!("{name}({})", inner.join(","))
            }
        }
    }

    /// Render a ground atom.
    pub fn format_atom(&self, id: AtomId) -> String {
        let (pred, args) = self.atom_data(id);
        if args.is_empty() {
            pred.as_str().to_string()
        } else {
            let inner: Vec<String> = args.iter().map(|&a| self.format_term(a)).collect();
            format!("{pred}({})", inner.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_groundness() {
        assert!(Term::Int(3).is_ground());
        assert!(Term::str("x").is_ground());
        assert!(!Term::var("X").is_ground());
        assert!(!Term::func("node", vec![Term::var("X")]).is_ground());
        assert!(Term::func("node", vec![Term::str("a")]).is_ground());
    }

    #[test]
    fn interning_dedupes() {
        let mut s = GroundStore::new();
        let a = s.intern_term(&Term::func("node", vec![Term::str("hdf5")]));
        let b = s.intern_term(&Term::func("node", vec![Term::str("hdf5")]));
        assert_eq!(a, b);
        let c = s.intern_term(&Term::func("node", vec![Term::str("zlib")]));
        assert_ne!(a, c);
    }

    #[test]
    fn atom_interning() {
        let mut s = GroundStore::new();
        let a1 = s.intern_atom(&Atom::new("p", vec![Term::Int(1)]));
        let a2 = s.intern_atom(&Atom::new("p", vec![Term::Int(1)]));
        let a3 = s.intern_atom(&Atom::new("p", vec![Term::Int(2)]));
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
        assert_eq!(s.atom_count(), 2);
    }

    #[test]
    fn sym_and_str_distinct() {
        let mut s = GroundStore::new();
        let a = s.intern_term(&Term::sym("abc"));
        let b = s.intern_term(&Term::str("abc"));
        assert_ne!(a, b);
    }

    #[test]
    fn compare_total_order() {
        let mut s = GroundStore::new();
        let i1 = s.intern_term(&Term::Int(1));
        let i2 = s.intern_term(&Term::Int(2));
        let sym = s.intern_term(&Term::sym("a"));
        let st = s.intern_term(&Term::str("a"));
        let f = s.intern_term(&Term::func("f", vec![Term::Int(1)]));
        assert_eq!(s.compare(i1, i2), Ordering::Less);
        assert_eq!(s.compare(i2, sym), Ordering::Less);
        assert_eq!(s.compare(sym, st), Ordering::Less);
        assert_eq!(s.compare(st, f), Ordering::Less);
        assert_eq!(s.compare(f, f), Ordering::Equal);
    }

    #[test]
    fn format_roundtripish() {
        let mut s = GroundStore::new();
        let id = s.intern_atom(&Atom::new(
            "attr",
            vec![
                Term::str("version"),
                Term::func("node", vec![Term::str("example")]),
                Term::str("1.1.0"),
            ],
        ));
        assert_eq!(
            s.format_atom(id),
            "attr(\"version\",node(\"example\"),\"1.1.0\")"
        );
    }

    #[test]
    fn display_symbolic() {
        let a = Atom::new(
            "can_splice",
            vec![
                Term::func("node", vec![Term::var("Name")]),
                Term::str("mpich"),
                Term::var("Hash"),
            ],
        );
        assert_eq!(a.to_string(), "can_splice(node(Name),\"mpich\",Hash)");
    }
}
