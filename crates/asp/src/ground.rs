//! The grounder: instantiates a [`Program`]'s rules over an
//! over-approximated Herbrand base, producing a propositional
//! [`GroundProgram`] for the CNF translator.
//!
//! ## Algorithm
//!
//! 1. **Possible-atom closure** (semi-naive): starting from facts, derive
//!    every atom that *could* be true — heads of normal rules and choice
//!    elements — by joining positive bodies against the growing set.
//!    Negative literals are ignored (over-approximation); comparison
//!    builtins are evaluated (they are deterministic).
//! 2. **Emission pass**: with the closure fixed, instantiate every normal
//!    rule once more and emit ground rules, deduplicated.
//! 3. **Certainty closure**: atoms derivable through negation-free rules
//!    from facts are *certain*. Each rule keeps a count of the distinct
//!    atoms of its positive body not yet certain, and each atom a list of
//!    the rules waiting on it; a rule whose count reaches zero makes its
//!    head certain.
//! 4. **Choice/constraint/minimize emission**: choice-element conditions
//!    must be certain — this engine (like the concretizer program it
//!    serves) treats them as domain predicates; a condition over a
//!    genuinely model-dependent predicate is an error rather than a
//!    silent mis-solve. Minimize conditions stay model-dependent.
//!
//! Joins are index-backed: per (predicate, arity) relations with
//! per-argument-position hash indexes (pre-declared by a static probe
//! analysis, incrementally maintained), so fact bases with many
//! thousands of `hash_attr` entries ground quickly.
//!
//! Grounding allocates only for what it keeps. Terms and atoms are
//! looked up by their parts and never built to be found; a join appends
//! its matches to one flat buffer reused from join to join; argument
//! lists resolve on the stack; and an emitted instance is looked up by
//! its parts and boxed only when new.
//!
//! ## Determinism
//!
//! The grounded program — every rule, choice, constraint, minimize term,
//! and the atom and term *numbering* — is a function of the program
//! text alone. Each closure round joins against the round-start state
//! and interns the derived heads afterwards, in rule → element →
//! position order. Emission runs once the closure is fixed: its joins
//! draw candidates only from the possible relations, so the atoms it
//! interns cannot change what a later join finds. No output depends on
//! a hash table's layout or iteration order: the tables are only looked
//! up, and ids are handed out in interning order. See DESIGN.md §3.45.

use crate::program::{BodyElem, CmpOp, Head, Program, Rule};
use crate::term::{
    group_by_key, hash_key, ArgBuf, Atom, AtomId, GroundStore, GroundTerm, IdTable, Term, TermId,
    TermKey,
};
use crate::{AspError, Result};
use rustc_hash::{FxHashMap, FxHashSet};
use spackle_spec::Sym;
use std::cmp::Ordering;

/// A ground normal rule (`head :- pos, not neg`). Facts have empty bodies.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroundRule {
    /// Head atom.
    pub head: AtomId,
    /// Positive body atoms.
    pub pos: Box<[AtomId]>,
    /// Negated body atoms.
    pub neg: Box<[AtomId]>,
}

/// A ground choice instance.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroundChoice {
    /// Cardinality lower bound (enforced when the body holds).
    pub lower: Option<u32>,
    /// Cardinality upper bound (enforced when the body holds).
    pub upper: Option<u32>,
    /// Positive body atoms.
    pub pos: Box<[AtomId]>,
    /// Negated body atoms.
    pub neg: Box<[AtomId]>,
    /// Choosable element atoms (deduplicated, in derivation order).
    pub elements: Box<[AtomId]>,
}

/// A ground integrity constraint (`:- pos, not neg`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroundConstraint {
    /// Positive body atoms.
    pub pos: Box<[AtomId]>,
    /// Negated body atoms.
    pub neg: Box<[AtomId]>,
}

/// A ground minimize term: contributes `weight` at `priority` when its
/// condition holds. Distinct `tuple`s contribute independently; identical
/// tuples with multiple conditions contribute once if *any* condition
/// holds (Clingo set-of-tuples semantics).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GroundMin {
    /// Weight (must be non-negative in this engine).
    pub weight: i64,
    /// Priority level; higher optimizes first.
    pub priority: i64,
    /// Distinguishing tuple.
    pub tuple: Box<[TermId]>,
    /// Positive condition atoms.
    pub pos: Box<[AtomId]>,
    /// Negated condition atoms.
    pub neg: Box<[AtomId]>,
}

/// The grounded program.
pub struct GroundProgram {
    /// Hash-cons store for ground terms/atoms.
    pub store: GroundStore,
    /// Ground normal rules, including facts.
    pub rules: Vec<GroundRule>,
    /// Ground choice instances.
    pub choices: Vec<GroundChoice>,
    /// Ground integrity constraints.
    pub constraints: Vec<GroundConstraint>,
    /// Ground minimize terms.
    pub minimize: Vec<GroundMin>,
    /// Provenance: for each entry of `rules`, the index of the source
    /// [`Program`] rule that emitted it. When
    /// two source rules ground to the same (deduplicated) instance, the
    /// first emitter in rule order wins.
    pub rule_src: Vec<u32>,
    /// Provenance: source rule index per entry of `choices`.
    pub choice_src: Vec<u32>,
    /// Provenance: source rule index per entry of `constraints`.
    pub constraint_src: Vec<u32>,
    /// Atoms certain to hold in every model (facts plus negation-free
    /// consequences of facts).
    pub certain: FxHashSet<AtomId>,
    /// Atoms that can possibly be true (the over-approximated base).
    pub possible: FxHashSet<AtomId>,
}

impl GroundProgram {
    /// Total number of interned atoms (the propositional universe).
    pub fn atom_count(&self) -> usize {
        self.store.atom_count()
    }
}

/// Resource limits for grounding.
#[derive(Clone, Copy, Debug)]
pub struct GroundLimits {
    /// Maximum number of distinct possible atoms before aborting.
    pub max_atoms: usize,
    /// Maximum number of emitted ground instances — rules, choices,
    /// constraints and minimize terms combined — before aborting.
    pub max_rules: usize,
}

impl Default for GroundLimits {
    fn default() -> Self {
        GroundLimits {
            max_atoms: 20_000_000,
            max_rules: 50_000_000,
        }
    }
}

// ---------------------------------------------------------------------
// Normalized rules and safety
// ---------------------------------------------------------------------

#[derive(Clone)]
struct NormBody {
    pos: Vec<Atom>,
    neg: Vec<Atom>,
    cmps: Vec<(Term, CmpOp, Term)>,
}

fn normalize_body(body: &[BodyElem]) -> NormBody {
    let mut nb = NormBody {
        pos: Vec::new(),
        neg: Vec::new(),
        cmps: Vec::new(),
    };
    for e in body {
        match e {
            BodyElem::Pos(a) => nb.pos.push(a.clone()),
            BodyElem::Neg(a) => nb.neg.push(a.clone()),
            BodyElem::Cmp(l, op, r) => nb.cmps.push((l.clone(), *op, r.clone())),
        }
    }
    nb
}

/// Where an unsafe variable was found within a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SafetyContext {
    /// In a negated body literal.
    NegativeLiteral,
    /// In a comparison builtin.
    Comparison,
    /// In the head atom.
    Head,
    /// In a choice-element atom.
    ChoiceElement,
    /// In a negated literal of a choice-element condition.
    ChoiceConditionNegation,
    /// In a comparison of a choice-element condition.
    ChoiceConditionComparison,
}

impl std::fmt::Display for SafetyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SafetyContext::NegativeLiteral => "negative literal",
            SafetyContext::Comparison => "comparison",
            SafetyContext::Head => "head",
            SafetyContext::ChoiceElement => "choice element",
            SafetyContext::ChoiceConditionNegation => "choice condition negation",
            SafetyContext::ChoiceConditionComparison => "choice condition comparison",
        })
    }
}

/// An unsafe variable occurrence: a variable in a head, negated literal,
/// or comparison that no positive body literal binds.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnsafeVariable {
    /// The unbound variable.
    pub variable: Sym,
    /// Where it occurred.
    pub context: SafetyContext,
}

/// All unsafe variable occurrences of `rule`, deduplicated, in
/// discovery order. Empty iff the rule is safe. The grounder rejects
/// unsafe rules; `spackle-audit` reports the same occurrences as
/// diagnostics with rule locations.
pub fn unsafe_variables(rule: &Rule) -> Vec<UnsafeVariable> {
    let nb = normalize_body(&rule.body);
    let mut bound: Vec<Sym> = Vec::new();
    for a in &nb.pos {
        a.collect_vars(&mut bound);
    }
    let mut out: Vec<UnsafeVariable> = Vec::new();
    let mut check = |vars: Vec<Sym>, extra: &[Sym], context: SafetyContext| {
        for v in vars {
            if !bound.contains(&v) && !extra.contains(&v) {
                let u = UnsafeVariable {
                    variable: v,
                    context,
                };
                if !out.contains(&u) {
                    out.push(u);
                }
            }
        }
    };
    for a in &nb.neg {
        let mut vs = Vec::new();
        a.collect_vars(&mut vs);
        check(vs, &[], SafetyContext::NegativeLiteral);
    }
    for (l, _, r) in &nb.cmps {
        let mut vs = Vec::new();
        l.collect_vars(&mut vs);
        r.collect_vars(&mut vs);
        check(vs, &[], SafetyContext::Comparison);
    }
    match &rule.head {
        Head::None => {}
        Head::Atom(a) => {
            let mut vs = Vec::new();
            a.collect_vars(&mut vs);
            check(vs, &[], SafetyContext::Head);
        }
        Head::Choice { elements, .. } => {
            for el in elements {
                let cond = normalize_body(&el.condition);
                let mut cond_vars: Vec<Sym> = Vec::new();
                for a in &cond.pos {
                    a.collect_vars(&mut cond_vars);
                }
                let mut vs = Vec::new();
                el.atom.collect_vars(&mut vs);
                check(vs, &cond_vars, SafetyContext::ChoiceElement);
                for a in &cond.neg {
                    let mut nvs = Vec::new();
                    a.collect_vars(&mut nvs);
                    check(nvs, &cond_vars, SafetyContext::ChoiceConditionNegation);
                }
                for (l, _, r) in &cond.cmps {
                    let mut cvs = Vec::new();
                    l.collect_vars(&mut cvs);
                    r.collect_vars(&mut cvs);
                    check(cvs, &cond_vars, SafetyContext::ChoiceConditionComparison);
                }
            }
        }
    }
    out
}

fn check_safety(rule: &Rule) -> Result<()> {
    match unsafe_variables(rule).into_iter().next() {
        None => Ok(()),
        Some(u) => Err(AspError::Unsafe {
            rule: format!("{rule} ({})", u.context),
            variable: u.variable.as_str().to_string(),
        }),
    }
}

// ---------------------------------------------------------------------
// Substitutions
// ---------------------------------------------------------------------

/// A substitution: variable bindings, latest last.
type Subst = [(Sym, TermId)];

fn lookup(s: &Subst, v: Sym) -> Option<TermId> {
    s.iter().rev().find(|(k, _)| *k == v).map(|(_, t)| *t)
}

/// Resolve `t` under `s` to a ground term id, interning as needed.
/// Returns `None` when an unbound variable remains.
fn resolve(store: &mut GroundStore, s: &Subst, t: &Term) -> Option<TermId> {
    match t {
        Term::Int(i) => Some(store.term(TermKey::Int(*i))),
        Term::Sym(x) => Some(store.term(TermKey::Sym(*x))),
        Term::Str(x) => Some(store.term(TermKey::Str(*x))),
        Term::Var(v) => lookup(s, *v),
        Term::Func(name, args) => {
            let mut kids = ArgBuf::new();
            for a in args {
                kids.push(resolve(store, s, a)?);
            }
            Some(store.term(TermKey::Func(*name, kids.as_slice())))
        }
    }
}

/// Resolve `t` under `s` to an *already interned* ground term id,
/// without interning. `None` means either an unbound variable (ruled
/// out at probe positions by the static analysis) or a ground term that
/// is not in the store — in which case no interned atom can contain it,
/// so a candidate lookup on it is correctly empty.
fn lookup_resolved(store: &GroundStore, s: &Subst, t: &Term) -> Option<TermId> {
    match t {
        Term::Int(i) => store.find_term(TermKey::Int(*i)),
        Term::Sym(x) => store.find_term(TermKey::Sym(*x)),
        Term::Str(x) => store.find_term(TermKey::Str(*x)),
        Term::Var(v) => lookup(s, *v),
        Term::Func(name, args) => {
            let mut kids = ArgBuf::new();
            for a in args {
                kids.push(lookup_resolved(store, s, a)?);
            }
            store.find_term(TermKey::Func(*name, kids.as_slice()))
        }
    }
}

/// Unify pattern `t` with ground term `tid` under `s`, appending new
/// bindings. On mismatch returns false; caller truncates `s`.
fn unify(store: &GroundStore, s: &mut Vec<(Sym, TermId)>, t: &Term, tid: TermId) -> bool {
    match t {
        Term::Int(i) => matches!(store.term_data(tid), GroundTerm::Int(j) if i == j),
        Term::Sym(x) => matches!(store.term_data(tid), GroundTerm::Sym(y) if x == y),
        Term::Str(x) => matches!(store.term_data(tid), GroundTerm::Str(y) if x == y),
        Term::Var(v) => match lookup(s, *v) {
            Some(existing) => existing == tid,
            None => {
                s.push((*v, tid));
                true
            }
        },
        Term::Func(name, args) => match store.term_data(tid) {
            GroundTerm::Func(n2, kids) if n2 == name && kids.len() == args.len() => args
                .iter()
                .zip(kids.iter())
                .all(|(a, &k)| unify(store, s, a, k)),
            _ => false,
        },
    }
}

// ---------------------------------------------------------------------
// Comparison evaluation without interning
// ---------------------------------------------------------------------

/// A term being compared: either a pattern term (with variables resolved
/// through the substitution) or an interned ground term.
#[derive(Clone, Copy)]
enum TermView<'a> {
    Pat(&'a Term),
    Id(TermId),
}

/// Compare two terms under `s` by the store's total order (ints < syms <
/// strings < funcs), without interning anything. Errors on unbound
/// variables (safety guarantees they cannot occur).
fn cmp_resolved(
    store: &GroundStore,
    s: &Subst,
    a: TermView<'_>,
    b: TermView<'_>,
) -> Result<Ordering> {
    fn deref<'a>(_store: &GroundStore, s: &Subst, v: TermView<'a>) -> Result<TermView<'a>> {
        match v {
            TermView::Pat(Term::Var(x)) => match lookup(s, *x) {
                Some(id) => Ok(TermView::Id(id)),
                None => Err(AspError::Internal(format!(
                    "comparison operand not ground: variable {x}"
                ))),
            },
            other => Ok(other),
        }
    }
    fn rank(store: &GroundStore, v: TermView<'_>) -> u8 {
        match v {
            TermView::Pat(Term::Int(_)) => 0,
            TermView::Pat(Term::Sym(_)) => 1,
            TermView::Pat(Term::Str(_)) => 2,
            TermView::Pat(Term::Func(..)) => 3,
            TermView::Pat(Term::Var(_)) => unreachable!("deref resolved variables"),
            TermView::Id(id) => match store.term_data(id) {
                GroundTerm::Int(_) => 0,
                GroundTerm::Sym(_) => 1,
                GroundTerm::Str(_) => 2,
                GroundTerm::Func(..) => 3,
            },
        }
    }
    let a = deref(store, s, a)?;
    let b = deref(store, s, b)?;
    if let (TermView::Id(x), TermView::Id(y)) = (a, b) {
        return Ok(store.compare(x, y));
    }
    let (ra, rb) = (rank(store, a), rank(store, b));
    if ra != rb {
        return Ok(ra.cmp(&rb));
    }
    match ra {
        0 => {
            let get = |v: TermView<'_>| match v {
                TermView::Pat(Term::Int(i)) => *i,
                TermView::Id(id) => match store.term_data(id) {
                    GroundTerm::Int(i) => *i,
                    _ => unreachable!("rank matched"),
                },
                _ => unreachable!("rank matched"),
            };
            Ok(get(a).cmp(&get(b)))
        }
        1 | 2 => {
            let get = |v: TermView<'_>| match v {
                TermView::Pat(Term::Sym(x)) | TermView::Pat(Term::Str(x)) => *x,
                TermView::Id(id) => match store.term_data(id) {
                    GroundTerm::Sym(x) | GroundTerm::Str(x) => *x,
                    _ => unreachable!("rank matched"),
                },
                _ => unreachable!("rank matched"),
            };
            Ok(get(a).cmp(&get(b)))
        }
        _ => {
            enum FuncView<'a> {
                Pat(&'a [Term]),
                Id(&'a [TermId]),
            }
            impl FuncView<'_> {
                fn len(&self) -> usize {
                    match self {
                        FuncView::Pat(args) => args.len(),
                        FuncView::Id(kids) => kids.len(),
                    }
                }
            }
            fn as_func<'a>(store: &'a GroundStore, v: TermView<'a>) -> (Sym, FuncView<'a>) {
                match v {
                    TermView::Pat(Term::Func(n, args)) => (*n, FuncView::Pat(args)),
                    TermView::Id(id) => match store.term_data(id) {
                        GroundTerm::Func(n, kids) => (*n, FuncView::Id(kids)),
                        _ => unreachable!("rank matched"),
                    },
                    _ => unreachable!("rank matched"),
                }
            }
            fn kid<'a>(f: &FuncView<'a>, i: usize) -> TermView<'a> {
                match f {
                    FuncView::Pat(args) => TermView::Pat(&args[i]),
                    FuncView::Id(kids) => TermView::Id(kids[i]),
                }
            }
            let (na, fa) = as_func(store, a);
            let (nb, fb) = as_func(store, b);
            let head = na.cmp(&nb).then_with(|| fa.len().cmp(&fb.len()));
            if head != Ordering::Equal {
                return Ok(head);
            }
            for i in 0..fa.len() {
                match cmp_resolved(store, s, kid(&fa, i), kid(&fb, i))? {
                    Ordering::Equal => continue,
                    ord => return Ok(ord),
                }
            }
            Ok(Ordering::Equal)
        }
    }
}

/// Evaluate all comparison builtins under `s`; true when every one
/// holds. Never interns.
fn eval_cmps(store: &GroundStore, s: &Subst, cmps: &[(Term, CmpOp, Term)]) -> Result<bool> {
    for (l, op, r) in cmps {
        let ord = cmp_resolved(store, s, TermView::Pat(l), TermView::Pat(r))?;
        let hold = match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        };
        if !hold {
            return Ok(false);
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------
// Join plans: static probe analysis
// ---------------------------------------------------------------------

/// A compiled positive-body join: the literal patterns, the comparison
/// filters, and one statically chosen *probe* argument position per
/// literal.
///
/// The probe for literal `j` is the first argument position whose
/// variables are all bound once literals `0..j` (plus the join's initial
/// bindings) have matched. This is exactly the position the previous
/// implementation selected dynamically per candidate lookup — a variable
/// is bound at runtime iff it occurs in an earlier positive literal or
/// the initial substitution — but knowing it up front lets the grounder
/// pre-declare the per-position hash indexes and maintain them
/// incrementally instead of rebuilding them lazily mid-join.
struct JoinSpec {
    pats: Vec<Atom>,
    cmps: Vec<(Term, CmpOp, Term)>,
    probes: Vec<Option<usize>>,
}

impl JoinSpec {
    fn new(pats: Vec<Atom>, cmps: Vec<(Term, CmpOp, Term)>, init_bound: &FxHashSet<Sym>) -> Self {
        let probes = probe_positions(&pats, init_bound);
        JoinSpec { pats, cmps, probes }
    }
}

/// For each literal, the first argument position fully bound by earlier
/// literals plus `init_bound` (constants count as bound), or `None` when
/// every position contains an unbound variable (full-scan literal).
fn probe_positions(pats: &[Atom], init_bound: &FxHashSet<Sym>) -> Vec<Option<usize>> {
    let mut bound: FxHashSet<Sym> = init_bound.clone();
    let mut probes = Vec::with_capacity(pats.len());
    for a in pats {
        let mut probe = None;
        for (i, arg) in a.args.iter().enumerate() {
            let mut vs = Vec::new();
            arg.collect_vars(&mut vs);
            if vs.iter().all(|v| bound.contains(v)) {
                probe = Some(i);
                break;
            }
        }
        probes.push(probe);
        let mut vs = Vec::new();
        a.collect_vars(&mut vs);
        bound.extend(vs);
    }
    probes
}

/// A choice element, compiled: the element atom, the combined
/// body+condition join used during the possible-atom closure, and the
/// condition-only join (seeded with the outer body's bindings) used at
/// choice-emission time.
struct ElemPlan<'a> {
    atom: &'a Atom,
    closure: JoinSpec,
    cond: JoinSpec,
    cond_neg: Vec<Atom>,
}

enum HeadPlan<'a> {
    Atom(&'a Atom),
    Choice {
        lower: Option<u32>,
        upper: Option<u32>,
        elements: Vec<ElemPlan<'a>>,
    },
    Constraint,
}

struct RulePlan<'a> {
    head: HeadPlan<'a>,
    body: JoinSpec,
    neg: Vec<Atom>,
}

fn plan_rules(program: &Program) -> Vec<RulePlan<'_>> {
    let empty: FxHashSet<Sym> = FxHashSet::default();
    program
        .rules
        .iter()
        .map(|r| {
            let nb = normalize_body(&r.body);
            let head = match &r.head {
                Head::Atom(a) => HeadPlan::Atom(a),
                Head::None => HeadPlan::Constraint,
                Head::Choice {
                    lower,
                    upper,
                    elements,
                } => {
                    let mut body_vars: FxHashSet<Sym> = FxHashSet::default();
                    for a in &nb.pos {
                        let mut vs = Vec::new();
                        a.collect_vars(&mut vs);
                        body_vars.extend(vs);
                    }
                    let elems = elements
                        .iter()
                        .map(|el| {
                            let cond = normalize_body(&el.condition);
                            let mut closure_pats = nb.pos.clone();
                            closure_pats.extend(cond.pos.iter().cloned());
                            let mut closure_cmps = nb.cmps.clone();
                            closure_cmps.extend(cond.cmps.iter().cloned());
                            ElemPlan {
                                atom: &el.atom,
                                closure: JoinSpec::new(closure_pats, closure_cmps, &empty),
                                cond: JoinSpec::new(cond.pos, cond.cmps, &body_vars),
                                cond_neg: cond.neg,
                            }
                        })
                        .collect();
                    HeadPlan::Choice {
                        lower: *lower,
                        upper: *upper,
                        elements: elems,
                    }
                }
            };
            RulePlan {
                head,
                body: JoinSpec::new(nb.pos, nb.cmps, &empty),
                neg: nb.neg,
            }
        })
        .collect()
}

/// Every (predicate, arity, argument position) any join will ever probe,
/// so the relations can install those indexes at creation time.
fn collect_wanted(
    plans: &[RulePlan<'_>],
    min_plans: &[(JoinSpec, Vec<Atom>)],
) -> FxHashMap<(Sym, usize), Vec<usize>> {
    let mut wanted: FxHashMap<(Sym, usize), FxHashSet<usize>> = FxHashMap::default();
    let mut add = |spec: &JoinSpec| {
        for (a, p) in spec.pats.iter().zip(&spec.probes) {
            if let Some(p) = p {
                wanted.entry((a.pred, a.args.len())).or_default().insert(*p);
            }
        }
    };
    for rp in plans {
        add(&rp.body);
        if let HeadPlan::Choice { elements, .. } = &rp.head {
            for el in elements {
                add(&el.closure);
                add(&el.cond);
            }
        }
    }
    for (spec, _) in min_plans {
        add(spec);
    }
    wanted
        .into_iter()
        .map(|(k, v)| {
            let mut v: Vec<usize> = v.into_iter().collect();
            v.sort_unstable();
            (k, v)
        })
        .collect()
}

// ---------------------------------------------------------------------
// The grounder
// ---------------------------------------------------------------------

#[derive(Default)]
struct PredRel {
    atoms: Vec<AtomId>,
    /// Pre-declared index per probed argument position, maintained
    /// incrementally as atoms become possible (buckets keep rank order).
    by_arg: FxHashMap<usize, FxHashMap<TermId, Vec<AtomId>>>,
}

struct Grounder {
    store: GroundStore,
    rels: FxHashMap<(Sym, usize), PredRel>,
    /// Rank (possible-insertion order) per atom id; usize::MAX = not
    /// (yet) possible. Indexed by AtomId.0.
    rank_of: Vec<usize>,
    possible: Vec<AtomId>,
    limits: GroundLimits,
    /// Index positions each (predicate, arity) relation must maintain.
    wanted: FxHashMap<(Sym, usize), Vec<usize>>,
}

/// Complete instantiations found by joins, back to back in flat buffers
/// reused from join to join: match `k` owns the bindings and the chosen
/// positive atoms (in literal order) between match `k - 1`'s ends and
/// its own.
#[derive(Default)]
struct Matches {
    binds: Vec<(Sym, TermId)>,
    chosen: Vec<AtomId>,
    /// `(binds end, chosen end)` per match.
    ends: Vec<(usize, usize)>,
    /// The substitution of the join in progress.
    subst: Vec<(Sym, TermId)>,
    /// The atoms the join in progress has chosen so far.
    path: Vec<AtomId>,
}

impl Matches {
    fn clear(&mut self) {
        self.binds.clear();
        self.chosen.clear();
        self.ends.clear();
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Match `k`: its substitution and its chosen atoms.
    fn get(&self, k: usize) -> (&Subst, &[AtomId]) {
        let (b0, c0) = if k == 0 { (0, 0) } else { self.ends[k - 1] };
        let (b1, c1) = self.ends[k];
        (&self.binds[b0..b1], &self.chosen[c0..c1])
    }

    /// Record the join in progress as a complete match.
    fn push_current(&mut self) {
        self.binds.extend_from_slice(&self.subst);
        self.chosen.extend_from_slice(&self.path);
        self.ends.push((self.binds.len(), self.chosen.len()));
    }
}

/// A semi-naive delta restriction `(literal, lo_rank, hi_rank)`: that
/// literal only matches atoms whose possible-rank lies in `lo..hi`.
type Delta = Option<(usize, usize, usize)>;

impl Grounder {
    fn new(limits: GroundLimits, wanted: FxHashMap<(Sym, usize), Vec<usize>>) -> Self {
        Grounder {
            store: GroundStore::new(),
            rels: FxHashMap::default(),
            rank_of: Vec::new(),
            possible: Vec::new(),
            limits,
            wanted,
        }
    }

    fn rank(&self, a: AtomId) -> usize {
        self.rank_of
            .get(a.0 as usize)
            .copied()
            .unwrap_or(usize::MAX)
    }

    fn is_possible(&self, a: AtomId) -> bool {
        self.rank(a) != usize::MAX
    }

    /// Mark `id` possible; returns true when newly added.
    fn add_possible(&mut self, id: AtomId) -> bool {
        if self.rank_of.len() <= id.0 as usize {
            self.rank_of.resize(id.0 as usize + 1, usize::MAX);
        }
        if self.rank_of[id.0 as usize] != usize::MAX {
            return false;
        }
        self.rank_of[id.0 as usize] = self.possible.len();
        self.possible.push(id);
        let (pred, args) = self.store.atom_data(id);
        let key = (pred, args.len());
        if !self.rels.contains_key(&key) {
            let mut rel = PredRel::default();
            if let Some(ps) = self.wanted.get(&key) {
                for &p in ps {
                    rel.by_arg.insert(p, FxHashMap::default());
                }
            }
            self.rels.insert(key, rel);
        }
        let rel = self.rels.get_mut(&key).expect("just ensured");
        rel.atoms.push(id);
        for (&p, map) in rel.by_arg.iter_mut() {
            map.entry(args[p]).or_default().push(id);
        }
        true
    }

    /// Candidate atoms matching `pattern` under `s`: the pre-declared
    /// index bucket when a probe position was chosen statically, the
    /// whole relation otherwise. Never interns. (A probe term that was
    /// never interned can occur in no atom, so the empty slice is
    /// exact.)
    fn candidates(&self, s: &Subst, pattern: &Atom, probe: Option<usize>) -> &[AtomId] {
        let key = (pattern.pred, pattern.args.len());
        let Some(rel) = self.rels.get(&key) else {
            return &[];
        };
        match probe {
            Some(p) => {
                let Some(tid) = lookup_resolved(&self.store, s, &pattern.args[p]) else {
                    return &[];
                };
                match rel
                    .by_arg
                    .get(&p)
                    .expect("probe position pre-declared by collect_wanted")
                    .get(&tid)
                {
                    Some(bucket) => bucket,
                    None => &[],
                }
            }
            None => &rel.atoms,
        }
    }

    /// Whether `pattern`'s relation holds an atom of rank `>= since`.
    /// Relations are in rank order, so their last atom decides.
    fn gained_since(&self, pattern: &Atom, since: usize) -> bool {
        self.rels
            .get(&(pattern.pred, pattern.args.len()))
            .and_then(|rel| rel.atoms.last())
            .is_some_and(|&a| self.rank(a) >= since)
    }

    /// Append to `out` every instantiation of `spec` that extends the
    /// bindings `init`. Read-only over the grounder; the caller interns.
    fn join(&self, spec: &JoinSpec, init: &Subst, delta: Delta, out: &mut Matches) -> Result<()> {
        out.subst.clear();
        out.subst.extend_from_slice(init);
        out.path.clear();
        self.join_rec(spec, 0, delta, out)
    }

    fn join_rec(&self, spec: &JoinSpec, i: usize, delta: Delta, out: &mut Matches) -> Result<()> {
        if i == spec.pats.len() {
            // All positive literals matched; evaluate comparisons.
            if eval_cmps(&self.store, &out.subst, &spec.cmps)? {
                out.push_current();
            }
            return Ok(());
        }
        let mut cands = self.candidates(&out.subst, &spec.pats[i], spec.probes[i]);
        if let Some((dpos, lo, hi)) = delta {
            if dpos == i {
                // Candidates are in rank order: the delta window is a slice.
                let start = cands.partition_point(|&a| self.rank(a) < lo);
                let len = cands[start..].partition_point(|&a| self.rank(a) < hi);
                cands = &cands[start..start + len];
            }
        }
        for &cand in cands {
            let mark = out.subst.len();
            let (_, args) = self.store.atom_data(cand);
            let ok = spec.pats[i]
                .args
                .iter()
                .zip(args.iter())
                .all(|(p, &t)| unify(&self.store, &mut out.subst, p, t));
            if ok {
                out.path.push(cand);
                self.join_rec(spec, i + 1, delta, out)?;
                out.path.pop();
            }
            out.subst.truncate(mark);
        }
        Ok(())
    }

    fn intern_under(&mut self, s: &Subst, a: &Atom) -> Result<AtomId> {
        let mut args = ArgBuf::new();
        for t in &a.args {
            args.push(resolve(&mut self.store, s, t).ok_or_else(|| {
                AspError::Internal(format!("non-ground term {t} at instantiation"))
            })?);
        }
        Ok(self.store.atom(a.pred, args.as_slice()))
    }

    /// Abort once more than `max_rules` ground instances (rules,
    /// choices, constraints and minimize terms together) are emitted.
    fn check_emitted(&self, emitted: usize) -> Result<()> {
        if emitted > self.limits.max_rules {
            return Err(AspError::ResourceLimit(format!(
                "ground instances exceeded {}",
                self.limits.max_rules
            )));
        }
        Ok(())
    }
}

/// Ground `program` into a propositional [`GroundProgram`].
pub fn ground(program: &Program) -> Result<GroundProgram> {
    ground_with_limits(program, GroundLimits::default())
}

/// Ground with explicit resource limits.
pub fn ground_with_limits(program: &Program, limits: GroundLimits) -> Result<GroundProgram> {
    for r in &program.rules {
        check_safety(r)?;
    }
    let plans = plan_rules(program);
    let min_plans: Vec<(JoinSpec, Vec<Atom>)> = program
        .minimize
        .iter()
        .map(|me| {
            let cond = normalize_body(&me.condition);
            (
                JoinSpec::new(cond.pos, cond.cmps, &FxHashSet::default()),
                cond.neg,
            )
        })
        .collect();
    let wanted = collect_wanted(&plans, &min_plans);
    let mut g = Grounder::new(limits, wanted);
    // One match buffer for every join below, and a second for the
    // condition joins nested in a choice's body matches.
    let mut m = Matches::default();

    // ---- Phase 1: possible-atom closure (semi-naive). ----
    // Round 0: derivations with no positive literals at all (plain facts,
    // and choice elements whose body and condition are both literal-free)
    // fire exactly once; everything else participates in the loop below.
    for rp in &plans {
        if !rp.body.pats.is_empty() {
            continue;
        }
        match &rp.head {
            HeadPlan::Atom(a) => {
                m.clear();
                g.join(&rp.body, &[], None, &mut m)?;
                for k in 0..m.len() {
                    let id = g.intern_under(m.get(k).0, a)?;
                    g.add_possible(id);
                }
            }
            HeadPlan::Choice { elements, .. } => {
                for el in elements {
                    if !el.closure.pats.is_empty() {
                        continue; // handled in the semi-naive loop
                    }
                    m.clear();
                    g.join(&el.closure, &[], None, &mut m)?;
                    for k in 0..m.len() {
                        let id = g.intern_under(m.get(k).0, el.atom)?;
                        g.add_possible(id);
                    }
                }
            }
            HeadPlan::Constraint => {}
        }
    }
    // The head each join of a round derives, with the end of its matches.
    let mut targets: Vec<(&Atom, usize)> = Vec::new();
    let mut prev_start = 0usize;
    loop {
        let prev_end = g.possible.len();
        if prev_start == prev_end {
            break;
        }
        // One join per (derivation target, delta literal), in rule →
        // element → position order. Every join of the round reads the
        // round-start state (a match that additionally needs an atom
        // derived *this* round is found next round, when that atom is in
        // the delta window — the fixpoint is unchanged); the heads are
        // interned in join order only afterwards, which fixes the
        // possible-atom ranks. A delta literal whose relation gained no
        // atom this round matches nothing, so its join is skipped.
        m.clear();
        targets.clear();
        for rp in &plans {
            match &rp.head {
                HeadPlan::Atom(a) => {
                    for (dpos, pat) in rp.body.pats.iter().enumerate() {
                        if g.gained_since(pat, prev_start) {
                            let delta = Some((dpos, prev_start, prev_end));
                            g.join(&rp.body, &[], delta, &mut m)?;
                            targets.push((a, m.len()));
                        }
                    }
                }
                HeadPlan::Choice { elements, .. } => {
                    for el in elements {
                        for (dpos, pat) in el.closure.pats.iter().enumerate() {
                            if g.gained_since(pat, prev_start) {
                                let delta = Some((dpos, prev_start, prev_end));
                                g.join(&el.closure, &[], delta, &mut m)?;
                                targets.push((el.atom, m.len()));
                            }
                        }
                    }
                }
                HeadPlan::Constraint => {}
            }
        }
        let mut k = 0;
        for &(target, end) in &targets {
            while k < end {
                let id = g.intern_under(m.get(k).0, target)?;
                g.add_possible(id);
                k += 1;
            }
        }
        if g.possible.len() > g.limits.max_atoms {
            return Err(AspError::ResourceLimit(format!(
                "possible atoms exceeded {}",
                g.limits.max_atoms
            )));
        }
        prev_start = prev_end;
    }

    // ---- Phase 2: emit ground normal rules. ----
    // The closure is fixed now: each rule's join draws candidates only
    // from the possible relations, so interning its head and negative
    // atoms cannot affect a later rule's join.
    let mut rules: Emitted<GroundRule> = Emitted::default();
    let mut rule_src: Vec<u32> = Vec::new();
    let mut neg: Vec<AtomId> = Vec::new();
    for (ri, rp) in plans.iter().enumerate() {
        let HeadPlan::Atom(head) = &rp.head else {
            continue;
        };
        m.clear();
        g.join(&rp.body, &[], None, &mut m)?;
        for k in 0..m.len() {
            let (subst, pos) = m.get(k);
            let h = g.intern_under(subst, head)?;
            neg.clear();
            for n in &rp.neg {
                neg.push(g.intern_under(subst, n)?);
            }
            let new = rules.insert(
                hash_key((h, pos, &neg)),
                |r| r.head == h && *r.pos == *pos && *r.neg == *neg,
                || GroundRule {
                    head: h,
                    pos: pos.into(),
                    neg: neg.as_slice().into(),
                },
            );
            if new {
                rule_src.push(ri as u32);
            }
            g.check_emitted(rules.len())?;
        }
    }
    let rules = rules.items;

    // ---- Phase 3: certainty closure over negation-free rules. ----
    // A rule fires once every distinct atom of its positive body is
    // certain: `remaining` counts the distinct atoms not yet certain, and
    // `waiting` lists, per atom, the rules whose body holds it (compressed
    // rows, rules in index order).
    let mut certain: FxHashSet<AtomId> = FxHashSet::default();
    {
        let mut queue: Vec<AtomId> = Vec::new();
        let mut remaining: Vec<u32> = vec![0; rules.len()];
        // `(atom, rule)` per distinct atom of a positive body.
        let mut waits: Vec<(u32, u32)> = Vec::new();
        let mut body: Vec<AtomId> = Vec::new();
        for (ri, r) in rules.iter().enumerate() {
            if !r.neg.is_empty() {
                continue; // never participates
            }
            if r.pos.is_empty() {
                if certain.insert(r.head) {
                    queue.push(r.head);
                }
                continue;
            }
            body.clear();
            body.extend_from_slice(&r.pos);
            body.sort_unstable();
            body.dedup();
            remaining[ri] = body.len() as u32;
            waits.extend(body.iter().map(|a| (a.0, ri as u32)));
        }
        let (first, waiting) = group_by_key(g.store.atom_count(), &waits);
        while let Some(a) = queue.pop() {
            for &ri in &waiting[first[a.0 as usize]..first[a.0 as usize + 1]] {
                let left = &mut remaining[ri as usize];
                *left -= 1;
                if *left == 0 {
                    let h = rules[ri as usize].head;
                    if certain.insert(h) {
                        queue.push(h);
                    }
                }
            }
        }
    }

    // ---- Phase 4: choices, constraints, minimize. ----
    // In rule order, then minimize order; a choice's element conditions
    // are joined per body match, seeded with its bindings.
    let mut choices: Emitted<GroundChoice> = Emitted::default();
    let mut choice_src: Vec<u32> = Vec::new();
    let mut constraints: Emitted<GroundConstraint> = Emitted::default();
    let mut constraint_src: Vec<u32> = Vec::new();
    let mut cm = Matches::default();
    let mut elems: Vec<AtomId> = Vec::new();
    // Per atom: already an element of the instance being built.
    let mut in_elems: Vec<bool> = Vec::new();
    for (ri, rp) in plans.iter().enumerate() {
        if matches!(rp.head, HeadPlan::Atom(_)) {
            continue;
        }
        m.clear();
        g.join(&rp.body, &[], None, &mut m)?;
        for k in 0..m.len() {
            let (subst, pos) = m.get(k);
            neg.clear();
            for n in &rp.neg {
                neg.push(g.intern_under(subst, n)?);
            }
            if let HeadPlan::Choice {
                lower,
                upper,
                elements,
            } = &rp.head
            {
                elems.clear();
                for el in elements {
                    cm.clear();
                    g.join(&el.cond, subst, None, &mut cm)?;
                    for c in 0..cm.len() {
                        let (csubst, cpos) = cm.get(c);
                        // Conditions must be certain (domain predicates).
                        for &c in cpos {
                            if !certain.contains(&c) {
                                return Err(AspError::NonDomainCondition {
                                    atom: g.store.format_atom(c),
                                    rule: program.rules[ri].to_string(),
                                });
                            }
                        }
                        for n in &el.cond_neg {
                            let nid = g.intern_under(csubst, n)?;
                            if g.is_possible(nid) {
                                return Err(AspError::DerivableNegatedCondition {
                                    atom: g.store.format_atom(nid),
                                    rule: program.rules[ri].to_string(),
                                });
                            }
                        }
                        let e = g.intern_under(csubst, el.atom)?;
                        let i = e.0 as usize;
                        if in_elems.len() <= i {
                            in_elems.resize(i + 1, false);
                        }
                        if !in_elems[i] {
                            in_elems[i] = true;
                            elems.push(e);
                        }
                    }
                }
                for e in &elems {
                    in_elems[e.0 as usize] = false;
                }
                let new = choices.insert(
                    hash_key((lower, upper, pos, &neg, &elems)),
                    |c| {
                        c.lower == *lower
                            && c.upper == *upper
                            && *c.pos == *pos
                            && *c.neg == *neg
                            && *c.elements == *elems
                    },
                    || GroundChoice {
                        lower: *lower,
                        upper: *upper,
                        pos: pos.into(),
                        neg: neg.as_slice().into(),
                        elements: elems.as_slice().into(),
                    },
                );
                if new {
                    choice_src.push(ri as u32);
                }
            } else {
                let new = constraints.insert(
                    hash_key((pos, &neg)),
                    |c| *c.pos == *pos && *c.neg == *neg,
                    || GroundConstraint {
                        pos: pos.into(),
                        neg: neg.as_slice().into(),
                    },
                );
                if new {
                    constraint_src.push(ri as u32);
                }
            }
            g.check_emitted(rules.len() + choices.len() + constraints.len())?;
        }
    }
    let (choices, constraints) = (choices.items, constraints.items);

    let mut minimize: Emitted<GroundMin> = Emitted::default();
    let mut tuple: Vec<TermId> = Vec::new();
    for (me, (spec, cond_neg)) in program.minimize.iter().zip(&min_plans) {
        m.clear();
        g.join(spec, &[], None, &mut m)?;
        for k in 0..m.len() {
            let (subst, pos) = m.get(k);
            let w = resolve_int(&mut g, subst, &me.weight)?;
            if w < 0 {
                return Err(AspError::BadWeight(format!(
                    "negative #minimize weight {w} is not supported by this engine"
                )));
            }
            let p = resolve_int(&mut g, subst, &me.priority)?;
            tuple.clear();
            for t in &me.terms {
                tuple.push(resolve(&mut g.store, subst, t).ok_or_else(|| {
                    AspError::Internal(format!("non-ground minimize tuple term {t}"))
                })?);
            }
            neg.clear();
            for n in cond_neg {
                neg.push(g.intern_under(subst, n)?);
            }
            minimize.insert(
                hash_key((w, p, &tuple, pos, &neg)),
                |x| {
                    x.weight == w
                        && x.priority == p
                        && *x.tuple == *tuple
                        && *x.pos == *pos
                        && *x.neg == *neg
                },
                || GroundMin {
                    weight: w,
                    priority: p,
                    tuple: tuple.as_slice().into(),
                    pos: pos.into(),
                    neg: neg.as_slice().into(),
                },
            );
            g.check_emitted(rules.len() + choices.len() + constraints.len() + minimize.len())?;
        }
    }

    let possible: FxHashSet<AtomId> = g.possible.iter().copied().collect();
    Ok(GroundProgram {
        store: g.store,
        rules,
        choices,
        constraints,
        minimize: minimize.items,
        rule_src,
        choice_src,
        constraint_src,
        certain,
        possible,
    })
}

/// Ground instances of one kind in emission order, deduplicated by their
/// parts: a lookup takes the parts by borrow, only a new instance is
/// built, and the first emitter wins.
struct Emitted<T> {
    items: Vec<T>,
    /// Position in `items`, filed under the instance's hash.
    index: IdTable,
}

impl<T> Default for Emitted<T> {
    fn default() -> Self {
        Emitted {
            items: Vec::new(),
            index: IdTable::default(),
        }
    }
}

impl<T> Emitted<T> {
    fn len(&self) -> usize {
        self.items.len()
    }

    /// Append `make()` unless an item filed under `hash` is `same`; true
    /// when appended.
    fn insert(&mut self, hash: u32, same: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> bool {
        let items = &self.items;
        let known = self.index.find(hash, |i| same(&items[i as usize]));
        if known.is_some() {
            return false;
        }
        self.index.insert(hash, self.items.len() as u32);
        self.items.push(make());
        true
    }
}

fn resolve_int(g: &mut Grounder, s: &Subst, t: &Term) -> Result<i64> {
    let tid = resolve(&mut g.store, s, t)
        .ok_or_else(|| AspError::Internal(format!("non-ground weight/priority term {t}")))?;
    match g.store.term_data(tid) {
        GroundTerm::Int(i) => Ok(*i),
        other => Err(AspError::BadWeight(format!(
            "weight/priority must be an integer, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn ground_text(text: &str) -> GroundProgram {
        ground(&parse_program(text).unwrap()).unwrap()
    }

    fn atom_strings(gp: &GroundProgram, of: &FxHashSet<AtomId>) -> Vec<String> {
        let mut v: Vec<String> = of.iter().map(|&a| gp.store.format_atom(a)).collect();
        v.sort();
        v
    }

    #[test]
    fn facts_are_certain_and_possible() {
        let gp = ground_text(r#"a. b("x"). b("y")."#);
        assert_eq!(gp.rules.len(), 3);
        assert_eq!(gp.certain.len(), 3);
        assert_eq!(gp.possible.len(), 3);
    }

    #[test]
    fn transitive_closure_grounding() {
        let gp = ground_text(
            r#"
            edge(1,2). edge(2,3). edge(3,4).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- path(X,Y), edge(Y,Z).
        "#,
        );
        // paths: (1,2),(2,3),(3,4),(1,3),(2,4),(1,4) = 6; edges 3.
        assert_eq!(gp.possible.len(), 9);
        assert_eq!(gp.certain.len(), 9);
    }

    #[test]
    fn comparisons_filter_instantiations() {
        let gp = ground_text(
            r#"
            n(1). n(2). n(3).
            lt(X,Y) :- n(X), n(Y), X < Y.
        "#,
        );
        let lts = atom_strings(&gp, &gp.possible);
        assert!(lts.contains(&"lt(1,2)".to_string()));
        assert!(lts.contains(&"lt(1,3)".to_string()));
        assert!(lts.contains(&"lt(2,3)".to_string()));
        assert!(!lts.contains(&"lt(2,1)".to_string()));
        assert_eq!(gp.possible.len(), 6);
    }

    #[test]
    fn negation_is_overapproximated_but_recorded() {
        let gp = ground_text(
            r#"
            a. c.
            b :- a, not c.
        "#,
        );
        // b is possible (negation ignored in closure) and the ground rule
        // records the negative literal.
        let has_b_rule = gp
            .rules
            .iter()
            .any(|r| gp.store.format_atom(r.head) == "b" && r.neg.len() == 1);
        assert!(has_b_rule);
        // But b is NOT certain (its rule has negation).
        let b_atoms = atom_strings(&gp, &gp.certain);
        assert!(!b_atoms.contains(&"b".to_string()));
    }

    #[test]
    fn choice_grounding_expands_elements() {
        let gp = ground_text(
            r#"
            node("example").
            cand("example","1.0").
            cand("example","1.1").
            1 { pick(N,V) : cand(N,V) } 1 :- node(N).
        "#,
        );
        assert_eq!(gp.choices.len(), 1);
        let c = &gp.choices[0];
        assert_eq!(c.elements.len(), 2);
        assert_eq!((c.lower, c.upper), (Some(1), Some(1)));
    }

    #[test]
    fn choice_condition_on_derived_certain_predicate_ok() {
        // cand2 is derived (negation-free) from facts: still a valid
        // domain predicate for conditions.
        let gp = ground_text(
            r#"
            raw("a"). raw("b").
            cand2(X) :- raw(X).
            { pick(X) : cand2(X) }.
        "#,
        );
        assert_eq!(gp.choices.len(), 1);
        assert_eq!(gp.choices[0].elements.len(), 2);
    }

    #[test]
    fn choice_condition_on_model_dependent_predicate_errors() {
        let prog = parse_program(
            r#"
            f("a").
            { q(X) : f(X) }.
            w(X) :- q(X).
            { pick(X) : w(X) }.
        "#,
        )
        .unwrap();
        match ground(&prog).err() {
            Some(AspError::NonDomainCondition { atom, rule }) => {
                assert_eq!(atom, "w(\"a\")");
                assert!(rule.contains("pick(X)"), "rule context: {rule}");
            }
            other => panic!("expected NonDomainCondition, got {other:?}"),
        }
    }

    #[test]
    fn derivable_negated_choice_condition_errors() {
        let prog = parse_program(
            r#"
            f("a").
            { q(X) : f(X) }.
            { pick(X) : f(X), not q(X) }.
        "#,
        )
        .unwrap();
        match ground(&prog).err() {
            Some(AspError::DerivableNegatedCondition { atom, rule }) => {
                assert_eq!(atom, "q(\"a\")");
                assert!(rule.contains("pick(X)"), "rule context: {rule}");
            }
            other => panic!("expected DerivableNegatedCondition, got {other:?}"),
        }
    }

    #[test]
    fn negative_minimize_weight_errors() {
        let prog = parse_program("a. #minimize { -1@1 : a }.").unwrap();
        match ground(&prog).err() {
            Some(AspError::BadWeight(msg)) => assert!(msg.contains("-1"), "{msg}"),
            other => panic!("expected BadWeight, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_minimize_weight_errors() {
        let prog = parse_program(r#"w("x"). #minimize { W@1,W : w(W) }."#).unwrap();
        match ground(&prog).err() {
            Some(AspError::BadWeight(msg)) => assert!(msg.contains("integer"), "{msg}"),
            other => panic!("expected BadWeight, got {other:?}"),
        }
    }

    #[test]
    fn unsafe_variables_reports_all_occurrences() {
        let prog = parse_program("p(X,Z) :- q(X), not r(Y), X < W.").unwrap();
        let unsafe_vars = unsafe_variables(&prog.rules[0]);
        let got: Vec<(String, SafetyContext)> = unsafe_vars
            .iter()
            .map(|u| (u.variable.as_str().to_string(), u.context))
            .collect();
        assert_eq!(
            got,
            vec![
                ("Y".to_string(), SafetyContext::NegativeLiteral),
                ("W".to_string(), SafetyContext::Comparison),
                ("Z".to_string(), SafetyContext::Head),
            ]
        );
        // Safe rules report nothing.
        let ok = parse_program("p(X) :- q(X).").unwrap();
        assert!(unsafe_variables(&ok.rules[0]).is_empty());
    }

    #[test]
    fn constraints_ground() {
        let gp = ground_text(
            r#"
            a(1). a(2).
            { p(X) : a(X) }.
            :- p(1), p(2).
        "#,
        );
        assert_eq!(gp.constraints.len(), 1);
        assert_eq!(gp.constraints[0].pos.len(), 2);
    }

    #[test]
    fn minimize_grounds_per_tuple() {
        let gp = ground_text(
            r#"
            a(1). a(2). a(3).
            { p(X) : a(X) }.
            #minimize { 100@2,X : p(X) }.
        "#,
        );
        assert_eq!(gp.minimize.len(), 3);
        assert!(gp.minimize.iter().all(|m| m.weight == 100 && m.priority == 2));
    }

    #[test]
    fn unsafe_rules_rejected() {
        for text in [
            "p(X).",                       // unbound head var
            "p(X) :- not q(X).",           // var only in negation
            "p :- q(X), X != Y.",          // Y unbound
            "{ p(X) : q(Y) } :- r(Z).",    // X unbound anywhere
        ] {
            let prog = parse_program(text).unwrap();
            assert!(
                matches!(ground(&prog), Err(AspError::Unsafe { .. })),
                "{text} should be unsafe"
            );
        }
    }

    #[test]
    fn functional_terms_join() {
        let gp = ground_text(
            r#"
            attr("version", node("a"), "1.0").
            attr("version", node("b"), "2.0").
            has_version(N) :- attr("version", node(N), V).
        "#,
        );
        let atoms = atom_strings(&gp, &gp.possible);
        assert!(atoms.contains(&"has_version(\"a\")".to_string()));
        assert!(atoms.contains(&"has_version(\"b\")".to_string()));
    }

    #[test]
    fn deep_chain_grounds_in_rounds() {
        // s(0), s(i+1) :- s(i), step(i, i+1) with 50 steps: exercises the
        // semi-naive loop over many rounds.
        let mut text = String::from("s(0).\n");
        for i in 0..50 {
            text.push_str(&format!("step({},{}).\n", i, i + 1));
        }
        text.push_str("s(Y) :- s(X), step(X,Y).\n");
        let gp = ground_text(&text);
        let atoms = atom_strings(&gp, &gp.certain);
        assert!(atoms.contains(&"s(50)".to_string()));
    }

    #[test]
    fn duplicate_facts_dedupe() {
        let gp = ground_text("a. a. a.");
        assert_eq!(gp.rules.len(), 1);
    }

    /// Render a ground body: positive atoms, then the negated ones.
    fn render_body(gp: &GroundProgram, pos: &[AtomId], neg: &[AtomId]) -> String {
        let mut lits: Vec<String> = pos.iter().map(|&a| gp.store.format_atom(a)).collect();
        let negated = |&a: &AtomId| format!("not {}", gp.store.format_atom(a));
        lits.extend(neg.iter().map(negated));
        lits.join(", ")
    }

    #[test]
    fn grounding_output_order_is_pinned() {
        // Atom numbering and emission order feed the CNF variable order,
        // and with it the search: pin both, atom by atom and instance by
        // instance.
        let gp = ground_text(
            r#"
            edge(1,2). edge(2,3). edge(3,4). edge(4,5).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- path(X,Y), edge(Y,Z).
            n(X) :- edge(X,Y).
            n(Y) :- edge(X,Y).
            { pick(X) : n(X) } 2.
            reach(X) :- pick(X).
            reach(Y) :- reach(X), path(X,Y).
            :- pick(X), pick(Y), X < Y, edge(X,Y).
            #minimize { 1@1,X : pick(X) }.
        "#,
        );
        // Atom id i names the i-th atom below; every interned atom is
        // possible.
        let atoms: Vec<String> = (0..gp.atom_count() as u32)
            .map(|i| gp.store.format_atom(AtomId(i)))
            .collect();
        assert_eq!(
            atoms.join(" "),
            "edge(1,2) edge(2,3) edge(3,4) edge(4,5) \
             path(1,2) path(2,3) path(3,4) path(4,5) n(1) n(2) n(3) n(4) n(5) \
             path(1,3) path(2,4) path(3,5) pick(1) pick(2) pick(3) pick(4) pick(5) \
             path(1,4) path(2,5) reach(1) reach(2) reach(3) reach(4) reach(5) \
             path(1,5)"
        );
        assert_eq!(gp.possible.len(), atoms.len());
        // Everything but pick/1 and reach/1 is certain.
        let mut certain: Vec<u32> = gp.certain.iter().map(|a| a.0).collect();
        certain.sort_unstable();
        assert_eq!(certain, (0..16).chain([21, 22, 28]).collect::<Vec<u32>>());

        let rules: Vec<String> = gp
            .rules
            .iter()
            .map(|r| match render_body(&gp, &r.pos, &r.neg) {
                body if body.is_empty() => format!("{}.", gp.store.format_atom(r.head)),
                body => format!("{} :- {body}.", gp.store.format_atom(r.head)),
            })
            .collect();
        assert_eq!(
            rules,
            [
                "edge(1,2).",
                "edge(2,3).",
                "edge(3,4).",
                "edge(4,5).",
                "path(1,2) :- edge(1,2).",
                "path(2,3) :- edge(2,3).",
                "path(3,4) :- edge(3,4).",
                "path(4,5) :- edge(4,5).",
                "path(1,3) :- path(1,2), edge(2,3).",
                "path(2,4) :- path(2,3), edge(3,4).",
                "path(3,5) :- path(3,4), edge(4,5).",
                "path(1,4) :- path(1,3), edge(3,4).",
                "path(2,5) :- path(2,4), edge(4,5).",
                "path(1,5) :- path(1,4), edge(4,5).",
                "n(1) :- edge(1,2).",
                "n(2) :- edge(2,3).",
                "n(3) :- edge(3,4).",
                "n(4) :- edge(4,5).",
                "n(2) :- edge(1,2).",
                "n(3) :- edge(2,3).",
                "n(4) :- edge(3,4).",
                "n(5) :- edge(4,5).",
                "reach(1) :- pick(1).",
                "reach(2) :- pick(2).",
                "reach(3) :- pick(3).",
                "reach(4) :- pick(4).",
                "reach(5) :- pick(5).",
                "reach(2) :- reach(1), path(1,2).",
                "reach(3) :- reach(1), path(1,3).",
                "reach(4) :- reach(1), path(1,4).",
                "reach(5) :- reach(1), path(1,5).",
                "reach(3) :- reach(2), path(2,3).",
                "reach(4) :- reach(2), path(2,4).",
                "reach(5) :- reach(2), path(2,5).",
                "reach(4) :- reach(3), path(3,4).",
                "reach(5) :- reach(3), path(3,5).",
                "reach(5) :- reach(4), path(4,5).",
            ]
        );
        assert_eq!(
            gp.rule_src,
            [
                0, 1, 2, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 9, 9, 9, 9, 9,
                10, 10, 10, 10, 10, 10, 10, 10, 10, 10
            ]
        );
        assert_eq!(gp.choice_src, [8]);
        assert_eq!(gp.constraint_src, [11, 11, 11, 11]);

        let choices: Vec<String> = gp
            .choices
            .iter()
            .map(|c| {
                let elems = render_body(&gp, &c.elements, &[]);
                let body = render_body(&gp, &c.pos, &c.neg);
                format!("{:?} {{ {elems} }} {:?} :- {body}.", c.lower, c.upper)
            })
            .collect();
        assert_eq!(
            choices,
            ["None { pick(1), pick(2), pick(3), pick(4), pick(5) } Some(2) :- ."]
        );

        let constraints: Vec<String> = gp
            .constraints
            .iter()
            .map(|c| format!(":- {}.", render_body(&gp, &c.pos, &c.neg)))
            .collect();
        assert_eq!(
            constraints,
            [
                ":- pick(1), pick(2), edge(1,2).",
                ":- pick(2), pick(3), edge(2,3).",
                ":- pick(3), pick(4), edge(3,4).",
                ":- pick(4), pick(5), edge(4,5).",
            ]
        );

        let minimize: Vec<String> = gp
            .minimize
            .iter()
            .map(|m| {
                let tuple: Vec<String> = m.tuple.iter().map(|&t| gp.store.format_term(t)).collect();
                let body = render_body(&gp, &m.pos, &m.neg);
                format!("{}@{},{} : {body}", m.weight, m.priority, tuple.join(","))
            })
            .collect();
        assert_eq!(
            minimize,
            [
                "1@1,1 : pick(1)",
                "1@1,2 : pick(2)",
                "1@1,3 : pick(3)",
                "1@1,4 : pick(4)",
                "1@1,5 : pick(5)",
            ]
        );
    }
}
