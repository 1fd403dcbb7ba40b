//! Terms and atoms, both symbolic (possibly containing variables) and
//! ground (hash-consed into integer ids for the solver pipeline).

use rustc_hash::{FxHashMap, FxHasher};
use spackle_spec::Sym;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

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
            Term::Str(s) => write_quoted(f, s.as_str()),
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

/// Write `s` as a quoted string the parser reads back: `\\`, `\"` and
/// `\n` are escaped, every other character is written raw.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, c) in s.char_indices() {
        let escaped = match c {
            '\\' => "\\\\",
            '"' => "\\\"",
            '\n' => "\\n",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escaped)?;
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
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

/// A set of one ground program's atoms: one bit per atom id, iterated
/// in id order. Ids past the last word are absent; inserting one grows
/// the set.
#[derive(Clone, Default)]
pub struct AtomSet {
    words: Vec<u64>,
    len: usize,
}

impl AtomSet {
    /// Is `a` in the set?
    pub fn contains(&self, a: AtomId) -> bool {
        let i = a.0 as usize;
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Add `a`; true when it was absent.
    pub fn insert(&mut self, a: AtomId) -> bool {
        let i = a.0 as usize;
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let added = *word & bit == 0;
        *word |= bit;
        self.len += added as usize;
        added
    }

    /// Remove `a`; true when it was present.
    pub fn remove(&mut self, a: AtomId) -> bool {
        let i = a.0 as usize;
        let Some(word) = self.words.get_mut(i / 64) else {
            return false;
        };
        let bit = 1u64 << (i % 64);
        let removed = *word & bit != 0;
        *word &= !bit;
        self.len -= removed as usize;
        removed
    }

    /// Number of atoms in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no atom.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The atoms, in id order.
    pub fn iter(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    AtomId(k as u32 * 64 + bit)
                })
            })
        })
    }
}

impl FromIterator<AtomId> for AtomSet {
    fn from_iter<I: IntoIterator<Item = AtomId>>(atoms: I) -> AtomSet {
        let mut set = AtomSet::default();
        for a in atoms {
            set.insert(a);
        }
        set
    }
}

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

/// A ground term named by its parts: [`GroundTerm`] with the children
/// borrowed, so a lookup or an intern builds nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermKey<'a> {
    /// Integer constant.
    Int(i64),
    /// Symbolic constant.
    Sym(Sym),
    /// Quoted-string constant.
    Str(Sym),
    /// Compound term over interned children.
    Func(Sym, &'a [TermId]),
}

/// Hash-consing store for ground terms and atoms.
///
/// Every distinct ground term/atom gets a dense integer id; the grounder,
/// CNF translator, and solver all speak in these ids, so equality is `==`
/// on a `u32` and maps are keyed by integers.
///
/// Lookups take their keys by borrowed parts ([`TermKey`], an argument
/// slice) and never allocate. Scalar terms are found through maps keyed
/// by the scalar; compound terms and atoms through `IdTable`s that
/// hold only ids. Atom arguments live back to back in one arena, so a
/// new atom costs only the arena's amortized growth. Ids are handed out
/// in interning order: no id depends on a table's layout.
#[derive(Clone, Default)]
pub struct GroundStore {
    terms: Vec<GroundTerm>,
    ints: FxHashMap<i64, TermId>,
    syms: FxHashMap<Sym, TermId>,
    strs: FxHashMap<Sym, TermId>,
    /// Compound terms, filed under their `(name, children)` hash.
    funcs: IdTable,
    atom_pred: Vec<Sym>,
    /// Atom `i`'s arguments end at `atom_end[i]` in `atom_args` and start
    /// where atom `i - 1`'s end.
    atom_end: Vec<usize>,
    atom_args: Vec<TermId>,
    /// Atoms, filed under their `(predicate, arguments)` hash.
    atoms: IdTable,
}

impl GroundStore {
    /// Fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a ground term.
    pub fn term(&mut self, key: TermKey<'_>) -> TermId {
        if let Some(id) = self.find_term(key) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        let t = match key {
            TermKey::Int(i) => {
                self.ints.insert(i, id);
                GroundTerm::Int(i)
            }
            TermKey::Sym(x) => {
                self.syms.insert(x, id);
                GroundTerm::Sym(x)
            }
            TermKey::Str(x) => {
                self.strs.insert(x, id);
                GroundTerm::Str(x)
            }
            TermKey::Func(name, kids) => {
                self.funcs.insert(hash_key((name, kids)), id.0);
                GroundTerm::Func(name, kids.into())
            }
        };
        self.terms.push(t);
        id
    }

    /// Look up a term id without interning. `None` means the term has
    /// never been interned — so in particular no interned atom can
    /// contain it.
    pub fn find_term(&self, key: TermKey<'_>) -> Option<TermId> {
        match key {
            TermKey::Int(i) => self.ints.get(&i).copied(),
            TermKey::Sym(x) => self.syms.get(&x).copied(),
            TermKey::Str(x) => self.strs.get(&x).copied(),
            TermKey::Func(name, kids) => self.lookup_func(hash_key((name, kids)), name, kids),
        }
    }

    fn lookup_func(&self, hash: u32, name: Sym, kids: &[TermId]) -> Option<TermId> {
        let found = self.funcs.find(hash, |id| {
            matches!(&self.terms[id as usize], GroundTerm::Func(n, k) if *n == name && **k == *kids)
        });
        found.map(TermId)
    }

    /// Intern a fully ground [`Term`] tree. Panics if it has variables.
    pub fn intern_term(&mut self, t: &Term) -> TermId {
        match t {
            Term::Int(i) => self.term(TermKey::Int(*i)),
            Term::Sym(s) => self.term(TermKey::Sym(*s)),
            Term::Str(s) => self.term(TermKey::Str(*s)),
            Term::Var(v) => panic!("intern_term on non-ground term: variable {v}"),
            Term::Func(name, args) => {
                let mut kids = ArgBuf::new();
                for a in args {
                    kids.push(self.intern_term(a));
                }
                self.term(TermKey::Func(*name, kids.as_slice()))
            }
        }
    }

    /// Intern a ground atom.
    pub fn atom(&mut self, pred: Sym, args: &[TermId]) -> AtomId {
        let hash = hash_key((pred, args));
        if let Some(id) = self.lookup_atom(hash, pred, args) {
            return id;
        }
        let id = AtomId(self.atom_pred.len() as u32);
        self.atom_pred.push(pred);
        self.atom_args.extend_from_slice(args);
        self.atom_end.push(self.atom_args.len());
        self.atoms.insert(hash, id.0);
        id
    }

    /// Intern a fully ground [`Atom`].
    pub fn intern_atom(&mut self, a: &Atom) -> AtomId {
        let mut args = ArgBuf::new();
        for t in &a.args {
            args.push(self.intern_term(t));
        }
        self.atom(a.pred, args.as_slice())
    }

    /// Look up a ground term payload.
    pub fn term_data(&self, id: TermId) -> &GroundTerm {
        &self.terms[id.0 as usize]
    }

    /// Look up a ground atom (predicate, args).
    pub fn atom_data(&self, id: AtomId) -> (Sym, &[TermId]) {
        let i = id.0 as usize;
        let start = if i == 0 { 0 } else { self.atom_end[i - 1] };
        (self.atom_pred[i], &self.atom_args[start..self.atom_end[i]])
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.atom_pred.len()
    }

    /// Look up an atom id without interning.
    pub fn find_atom(&self, pred: Sym, args: &[TermId]) -> Option<AtomId> {
        self.lookup_atom(hash_key((pred, args)), pred, args)
    }

    fn lookup_atom(&self, hash: u32, pred: Sym, args: &[TermId]) -> Option<AtomId> {
        let found = self.atoms.find(hash, |id| {
            let (p, a) = self.atom_data(AtomId(id));
            p == pred && a == args
        });
        found.map(AtomId)
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
            GroundTerm::Str(s) => {
                let s = s.as_str();
                let mut out = String::with_capacity(s.len() + 2);
                write_quoted(&mut out, s).expect("writing to a String cannot fail");
                out
            }
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

/// An open-addressing table of dense `u32` ids. The caller hashes a key
/// and judges equality against its own storage, so a lookup takes the
/// key by borrowed parts and never allocates. Each slot keeps its id's
/// hash, so growth never asks the caller again. Linear probing, at most
/// half full. Only lookups read it: nothing iterates its slots, so no
/// output depends on its layout.
#[derive(Clone, Default)]
pub(crate) struct IdTable {
    /// `(hash, id)` per slot, `id == EMPTY` when free; a power-of-two
    /// length.
    slots: Vec<(u32, u32)>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl IdTable {
    /// The id filed under `hash` that `is` accepts.
    pub(crate) fn find(&self, hash: u32, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if h == hash && is(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// File `id` under `hash`; the caller has found no equal key.
    pub(crate) fn insert(&mut self, hash: u32, id: u32) {
        debug_assert_ne!(id, EMPTY);
        if 2 * (self.len + 1) > self.slots.len() {
            let cap = (2 * self.slots.len()).max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); cap]);
            for (h, id) in old {
                if id != EMPTY {
                    Self::place(&mut self.slots, h, id);
                }
            }
        }
        Self::place(&mut self.slots, hash, id);
        self.len += 1;
    }

    fn place(slots: &mut [(u32, u32)], hash: u32, id: u32) {
        let mask = slots.len() - 1;
        let mut i = hash as usize & mask;
        while slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        slots[i] = (hash, id);
    }
}

/// The 32-bit hash an [`IdTable`] files `key` under.
pub(crate) fn hash_key(key: impl Hash) -> u32 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    let v = h.finish();
    (v ^ (v >> 32)) as u32
}

/// Group `pairs` by their key, a dense id in `0..keys`, with a stable
/// counting sort: key `k`'s values are `values[first[k]..first[k + 1]]`,
/// in the order `pairs` lists them.
pub(crate) fn group_by_key<V: Copy>(keys: usize, pairs: &[(u32, V)]) -> (Vec<usize>, Vec<V>) {
    let mut first = vec![0usize; keys + 1];
    for &(k, _) in pairs {
        first[k as usize + 1] += 1;
    }
    for k in 1..first.len() {
        first[k] += first[k - 1];
    }
    // Every slot is overwritten below; the copy only sizes the vector.
    let mut values: Vec<V> = pairs.iter().map(|&(_, v)| v).collect();
    let mut next = first.clone();
    for &(k, v) in pairs {
        values[next[k as usize]] = v;
        next[k as usize] += 1;
    }
    (first, values)
}

/// Argument ids gathered for one atom or compound term: on the stack up
/// to [`ArgBuf::INLINE`] of them, on the heap beyond.
pub(crate) struct ArgBuf {
    inline: [TermId; ArgBuf::INLINE],
    len: usize,
    heap: Vec<TermId>,
}

impl ArgBuf {
    /// Arguments held without allocating.
    pub(crate) const INLINE: usize = 8;

    pub(crate) fn new() -> Self {
        ArgBuf {
            inline: [TermId(0); ArgBuf::INLINE],
            len: 0,
            heap: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, t: TermId) {
        if self.len < Self::INLINE {
            self.inline[self.len] = t;
        } else {
            if self.len == Self::INLINE {
                self.heap.extend_from_slice(&self.inline);
            }
            self.heap.push(t);
        }
        self.len += 1;
    }

    pub(crate) fn as_slice(&self) -> &[TermId] {
        if self.len <= Self::INLINE {
            &self.inline[..self.len]
        } else {
            &self.heap
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
    fn atom_sets_count_and_iterate_in_id_order() {
        let mut set: AtomSet = [AtomId(130), AtomId(3), AtomId(64), AtomId(3)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 3);
        assert!(set.contains(AtomId(64)) && !set.contains(AtomId(65)));
        assert!(!set.contains(AtomId(1_000)), "past the last word");
        assert!(!set.insert(AtomId(130)) && set.insert(AtomId(63)));
        assert!(set.remove(AtomId(3)) && !set.remove(AtomId(3)) && !set.remove(AtomId(900)));
        let ids: Vec<u32> = set.iter().map(|a| a.0).collect();
        assert_eq!(ids, [63, 64, 130]);
        assert_eq!(set.len(), ids.len());
        assert!(AtomSet::default().is_empty() && AtomSet::default().iter().next().is_none());
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
