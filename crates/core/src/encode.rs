//! Compilation of packages, goals, and buildcaches into ASP facts and
//! per-directive rules (paper §5.1–§5.3).
//!
//! Directive conditions are compiled to *specialized rules* (the style
//! Fig 4a uses for `can_splice`), rather than the generic
//! `condition_requirement` machinery — semantically equivalent and a
//! better fit for a from-scratch engine. Reusable specs use either the
//! **direct** `imposed_constraint` fact encoding (old Spack) or the
//! **indirect** `hash_attr` encoding (splice Spack), selected by
//! [`EncodeConfig::encoding`] — the paper's RQ1 ablation.
//!
//! **The program is data.** The fact base — environment facts, reusable
//! specs, version and variant universes, the part that grows with the
//! buildcache — comes out of [`encode`] as ground [`Atom`]s, and the
//! directive rules, with the few facts interleaved with them, as
//! [`Rule`]s. The concretizer hands both to the grounder as they are;
//! nothing on the solve path is printed or parsed. [`EncodedGoal::render`]
//! prints the same program as text: the rendering parses back to it, and
//! is what explanations, audits of the text and external checkers read.

use crate::logic::Fragment;
use crate::CoreError;
use rustc_hash::{FxHashMap, FxHashSet};
use spackle_asp::program::{BodyElem, Head};
use spackle_asp::{Atom, Rule, Term};
use spackle_buildcache::{CacheError, CacheSource};
use spackle_repo::Repository;
use spackle_spec::{
    AbstractSpec, ConcreteSpec, Os, SpecHash, Sym, Target, VariantValue, Version, VersionReq,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::sync::{Arc, OnceLock};
use BodyElem::{Neg, Pos};
use Term::Str;

/// Which reusable-spec encoding to emit (the RQ1 axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// Old Spack: `imposed_constraint` facts emitted directly.
    Direct,
    /// Splice Spack: `hash_attr` facts with bridge rules (Fig 3).
    Indirect,
}

/// Encoder configuration.
#[derive(Clone, Debug)]
pub struct EncodeConfig {
    /// Reusable-spec encoding.
    pub encoding: Encoding,
    /// Whether the splice fragment and `can_splice` rules are emitted.
    /// Only meaningful with [`Encoding::Indirect`].
    pub splicing: bool,
    /// The requesting machine's OS.
    pub os: Os,
    /// The requesting machine's microarchitecture.
    pub target: Target,
    /// Restrict package facts and reusable specs to the goal's possible
    /// dependency closure. On by default; turning it off is an ablation
    /// that feeds the solver every cache entry (how much the filter
    /// matters grows with cache size).
    pub filter_irrelevant: bool,
}

/// A concretization request: one or more root specs concretized jointly,
/// plus packages that must not appear in the solution (used by the
/// paper's Fig 7 experiment to exclude `mpich`).
#[derive(Clone, Debug)]
pub struct Goal {
    /// Root specs (must name real packages).
    pub roots: Vec<AbstractSpec>,
    /// Packages forbidden from the solution DAG.
    pub forbidden: Vec<Sym>,
}

impl Goal {
    /// Single-root goal.
    pub fn single(spec: AbstractSpec) -> Goal {
        Goal {
            roots: vec![spec],
            forbidden: Vec::new(),
        }
    }
}

/// Append `s` quoted the encoder's way: `\` and `"` escaped, everything
/// else raw.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        if c == '\\' || c == '"' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

/// Declares [`Vocab`]: each field is the symbol of its own name.
macro_rules! vocab {
    ($($name:ident),* $(,)?) => {
        /// The predicate names and string constants the encoder emits,
        /// interned once per process.
        struct Vocab {
            $($name: Sym,)*
        }

        fn vocab() -> &'static Vocab {
            static VOCAB: OnceLock<Vocab> = OnceLock::new();
            VOCAB.get_or_init(|| Vocab {
                $($name: Sym::intern(stringify!($name)),)*
            })
        }
    };
}

vocab!(
    requested_os,
    requested_target,
    os_declared,
    target_declared,
    target_runs,
    target_penalty,
    installed_hash,
    hash_attr,
    imposed_constraint,
    version,
    node_os,
    node_target,
    variant,
    depends_on,
    hash,
    pkg_fact,
    version_declared,
    version_satisfies,
    variant_default,
    variant_value,
    attr,
    node,
    root,
    build,
    virtual_dep,
    reach,
    reach_from,
    provider_decl,
    provider_weight,
    provides_ok,
    virtual_chosen,
    virtual_used,
    can_splice,
    splicer_decl,
    splice_relevant,
);

/// `pkg_fact(pkg, pred(args...))`.
fn pkg_fact(pkg: Sym, pred: Sym, args: Vec<Term>) -> Atom {
    Atom {
        pred: vocab().pkg_fact,
        args: vec![Term::Str(pkg), Term::Func(pred, args)],
    }
}

/// `pred(args...)`.
fn atom<const N: usize>(pred: Sym, args: [Term; N]) -> Atom {
    Atom {
        pred,
        args: args.into(),
    }
}

/// `attr("kind", args...)`.
fn attr<const N: usize>(kind: Sym, args: [Term; N]) -> Atom {
    Atom {
        pred: vocab().attr,
        args: std::iter::once(Str(kind)).chain(args).collect(),
    }
}

/// `node("p")`.
fn node(p: Sym) -> Term {
    Term::Func(vocab().node, vec![Str(p)])
}

/// The variable `name`.
fn var(name: &str) -> Term {
    Term::Var(Sym::intern(name))
}

/// A variant value as a string constant.
fn value(v: &VariantValue) -> Term {
    Str(Sym::intern(&v.canonical()))
}

/// `pkg_fact(p, version_satisfies(key, ver))`.
fn satisfies(p: Sym, key: Sym, ver: Term) -> Atom {
    pkg_fact(p, vocab().version_satisfies, vec![Str(key), ver])
}

/// `head :- body.`
fn rule(head: Atom, body: Vec<BodyElem>) -> Rule {
    Rule {
        head: Head::Atom(head),
        body,
    }
}

/// `:- body.`
fn constraint(body: Vec<BodyElem>) -> Rule {
    Rule {
        head: Head::None,
        body,
    }
}

/// `:- not atom.`
fn require(atom: Atom) -> Rule {
    constraint(vec![Neg(atom)])
}

/// `atom.`
fn fact(atom: Atom) -> Rule {
    rule(atom, Vec::new())
}

/// Collects, per package, every version constraint that appears anywhere,
/// so `version_satisfies` facts can be emitted for exactly those. A
/// constraint is keyed by its text, the constant that links each
/// occurrence with its facts.
#[derive(Default)]
struct ConstraintTable(BTreeMap<Sym, BTreeMap<String, VersionReq>>);

impl ConstraintTable {
    /// Record `req` on `pkg`; its key, unless it is no constraint.
    fn note(&mut self, pkg: Sym, req: &VersionReq) -> Option<Sym> {
        if matches!(req, VersionReq::Any) {
            return None;
        }
        let key = req.to_string();
        let sym = Sym::intern(&key);
        self.0.entry(pkg).or_default().insert(key, req.clone());
        Some(sym)
    }
}

/// Where a region of the encoded program text came from — the
/// source-level construct (package directive, goal constraint, cache
/// entry, logic fragment) that emitted it. A rendering's
/// [`Encoded::ledger`] records one entry per region; mapping any byte
/// offset of the program back to its origin is a binary search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeOrigin {
    /// Environment facts (OS/target universe), version/variant
    /// universes, and other derived facts with no single directive.
    Environment,
    /// The `index`-th `depends_on` directive of `package`.
    DependsOn {
        /// Declaring package.
        package: Sym,
        /// Directive index within the package's `depends` list.
        index: usize,
    },
    /// The `index`-th `provides` directive of `package`.
    Provides {
        /// Declaring package.
        package: Sym,
        /// Directive index within the package's `provides` list.
        index: usize,
    },
    /// The `index`-th `conflicts` directive of `package`.
    Conflict {
        /// Declaring package.
        package: Sym,
        /// Directive index within the package's `conflicts` list.
        index: usize,
    },
    /// The `index`-th `can_splice` directive of `package`.
    CanSplice {
        /// Declaring package.
        package: Sym,
        /// Directive index within the package's `can_splice` list.
        index: usize,
    },
    /// Provider preference weights (repository declaration order).
    ProviderWeights,
    /// The goal root `root`: its `attr("root", ...)` fact and every
    /// constraint the request placed on it.
    GoalRoot {
        /// Root package name.
        root: Sym,
    },
    /// A `--forbid` exclusion from the goal.
    Forbidden {
        /// Excluded package name.
        package: Sym,
    },
    /// One reusable buildcache entry.
    Reusable {
        /// Root package of the cached spec.
        package: Sym,
        /// DAG hash of the cached spec (base32).
        hash: String,
    },
    /// A static logic fragment appended after the encoded facts/rules
    /// (the base program, reuse fragment, splice fragment).
    Logic {
        /// Fragment label, e.g. `"base"`, `"reuse"`, `"splice"`.
        fragment: &'static str,
    },
}

/// The origin of a run of facts: an [`EncodeOrigin`] that renders a
/// cache entry's hash only when a ledger is built.
enum FactOrigin {
    Environment,
    Reusable { package: Sym, hash: SpecHash },
}

impl FactOrigin {
    fn origin(&self) -> EncodeOrigin {
        match *self {
            FactOrigin::Environment => EncodeOrigin::Environment,
            FactOrigin::Reusable { package, hash } => EncodeOrigin::Reusable {
                package,
                hash: hash.to_base32(),
            },
        }
    }
}

/// A goal compiled for the solver: the fact section as ground atoms, the
/// directive rules as [`Rule`]s, the logic fragments the concretizer
/// appends, and what the interpreter needs to map the model back to
/// specs.
///
/// The solver's program is every fact as a body-less rule, in order,
/// followed by the directive rules and the fragments' parsed programs.
/// [`EncodedGoal::render`] prints the same program as text.
pub struct EncodedGoal {
    /// Environment facts, reusable specs, then the version and variant
    /// universes, in emission order.
    pub(crate) facts: Vec<Atom>,
    /// Directive rules and the facts that interleave with them
    /// (`provider_decl`, `provider_weight`, `reach_from`, `splicer_decl`,
    /// `splice_relevant`, `attr("root", …)`), in emission order.
    pub(crate) rules: Vec<Rule>,
    /// The logic fragments the concretizer appends, in order.
    pub(crate) logic: Vec<&'static Fragment>,
    /// Root package names in goal order.
    pub(crate) root_names: Vec<Sym>,
    /// Number of reusable-spec entries encoded.
    pub(crate) reusable_count: usize,
    /// `(index into facts, origin)` in ascending index order; each covers
    /// the facts up to the next one's index.
    fact_marks: Vec<(usize, FactOrigin)>,
    /// `(index into rules, origin)` in ascending index order; each covers
    /// the rules up to the next one's index.
    rule_marks: Vec<(usize, EncodeOrigin)>,
}

impl EncodedGoal {
    /// Print the program as text, one fact or rule per line, in the
    /// encoder's format: `", "` between arguments and between body
    /// literals, strings quoted with only `\` and `"` escaped, `not `
    /// before a negated literal, and `:- body.` for a constraint. The
    /// facts come first, then the rules and the logic fragments. Parsing
    /// the text yields the solver's program rule for rule. The provenance
    /// ledger is built here, turning both kinds of mark into offsets of
    /// the rendering.
    pub fn render(self) -> Encoded {
        let logic_len: usize = self.logic.iter().map(|f| f.text.len()).sum();
        let mut program =
            String::with_capacity(48 * self.facts.len() + 160 * self.rules.len() + logic_len);
        let mut ledger = Vec::with_capacity(self.fact_marks.len() + self.rule_marks.len());
        let mut marks = self.fact_marks.iter().peekable();
        for (i, fact) in self.facts.iter().enumerate() {
            while let Some((_, origin)) = marks.next_if(|&&(at, _)| at == i) {
                ledger.push((program.len(), origin.origin()));
            }
            push_call(&mut program, fact.pred, &fact.args);
            program.push_str(".\n");
        }
        ledger.extend(marks.map(|(_, origin)| (program.len(), origin.origin())));
        let mut marks = self.rule_marks.into_iter().peekable();
        for (i, rule) in self.rules.iter().enumerate() {
            while let Some((_, origin)) = marks.next_if(|&(at, _)| at == i) {
                ledger.push((program.len(), origin));
            }
            push_rule(&mut program, rule);
        }
        ledger.extend(marks.map(|(_, origin)| (program.len(), origin)));
        for f in self.logic {
            ledger.push((program.len(), EncodeOrigin::Logic { fragment: f.label }));
            program.push_str(f.text);
        }
        Encoded {
            program,
            root_names: self.root_names,
            reusable_count: self.reusable_count,
            ledger,
        }
    }
}

/// Append `rule` on a line of its own.
fn push_rule(out: &mut String, rule: &Rule) {
    match &rule.head {
        Head::Atom(head) => {
            push_call(out, head.pred, &head.args);
            if !rule.body.is_empty() {
                out.push_str(" :- ");
            }
        }
        Head::None => out.push_str(":- "),
        Head::Choice { .. } => unreachable!("the encoder emits no choice rules"),
    }
    for (i, lit) in rule.body.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match lit {
            BodyElem::Pos(a) => push_call(out, a.pred, &a.args),
            BodyElem::Neg(a) => {
                out.push_str("not ");
                push_call(out, a.pred, &a.args);
            }
            BodyElem::Cmp(..) => unreachable!("the encoder emits no comparisons"),
        }
    }
    out.push_str(".\n");
}

/// Append `name(args...)` with `", "` separators.
fn push_call(out: &mut String, name: Sym, args: &[Term]) {
    out.push_str(name.as_str());
    out.push('(');
    for (i, arg) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match arg {
            Term::Str(s) => push_quoted(out, s.as_str()),
            Term::Int(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
            Term::Func(f, inner) => push_call(out, *f, inner),
            Term::Sym(s) | Term::Var(s) => out.push_str(s.as_str()),
        }
    }
    out.push(')');
}

/// The program as text, as [`EncodedGoal::render`] prints it.
pub struct Encoded {
    /// The complete program text (facts + rules + logic fragments).
    pub program: String,
    /// Root package names in goal order.
    pub root_names: Vec<Sym>,
    /// Number of reusable-spec entries encoded.
    pub reusable_count: usize,
    /// Provenance ledger: `(byte_offset, origin)` pairs in ascending
    /// offset order. Each entry covers the program text from its offset
    /// up to the next entry's. [`Encoded::origin_at`] resolves offsets.
    pub ledger: Vec<(usize, EncodeOrigin)>,
}

impl Encoded {
    /// The origin of the program text at `offset`, via binary search
    /// over the ledger.
    pub fn origin_at(&self, offset: usize) -> Option<&EncodeOrigin> {
        match self.ledger.binary_search_by_key(&offset, |&(o, _)| o) {
            Ok(i) => Some(&self.ledger[i].1),
            Err(0) => None,
            Err(i) => Some(&self.ledger[i - 1].1),
        }
    }
}

/// Lift a backend failure into [`CoreError::Cache`], preserving which
/// top-level source failed (by index and label) so the concretizer's
/// degraded mode can drop exactly that source and record why.
pub(crate) fn cache_error(idx: usize, source: &dyn CacheSource, e: CacheError) -> CoreError {
    CoreError::Cache {
        source: idx,
        backend: e.backend().unwrap_or_else(|| source.label()).to_string(),
        detail: e.to_string(),
    }
}

/// The goal-relevant scope of an encoding: the resolved root specs plus
/// the package closure whose facts the encoder will emit.
///
/// This is the *segment boundary* computation: the fact base decomposes
/// into one segment per closure package (plus one per reusable-spec
/// source), so the exact same closure must back both the encoder and the
/// ground-cache segment keys — a key computed over a different closure
/// would retain entries whose fact base silently changed. Keep this the
/// single source of truth for both.
pub(crate) struct GoalScope {
    /// Root package names, in request order.
    pub root_names: Vec<Sym>,
    /// Root specs with virtual roots resolved to their sole provider.
    pub resolved_roots: Vec<AbstractSpec>,
    /// Every package (and virtual) name whose facts are in scope.
    pub closure: BTreeSet<Sym>,
}

/// Resolve `goal`'s roots against `repo` and compute the package closure
/// the encoding covers (see [`GoalScope`]).
pub(crate) fn goal_scope(
    repo: &Repository,
    goal: &Goal,
    cfg: &EncodeConfig,
) -> Result<GoalScope, CoreError> {
    let mut root_names: Vec<Sym> = Vec::new();
    let mut roots: Vec<Sym> = Vec::new();
    let mut resolved_roots: Vec<AbstractSpec> = Vec::new();
    for r in &goal.roots {
        let name = r.name.ok_or_else(|| {
            CoreError::BadGoal("root specs must name a package".into())
        })?;
        // Resolve through the repository: a virtual root with a sole
        // provider concretizes that provider; an ambiguous one reports
        // every candidate (matching `spackle audit`'s diagnostics).
        let pkg = repo
            .lookup(name)
            .map_err(|e| CoreError::BadGoal(e.to_string()))?;
        root_names.push(pkg.name);
        roots.push(pkg.name);
        let mut resolved = r.clone();
        resolved.name = Some(pkg.name);
        resolved_roots.push(resolved);
        for d in &r.deps {
            if let Some(dn) = d.spec.name {
                if repo.is_virtual(dn) {
                    roots.extend(repo.providers_of(dn).iter().copied());
                } else {
                    roots.push(dn);
                }
            }
        }
    }
    let mut closure = if cfg.filter_irrelevant {
        repo.possible_closure(&roots)
    } else {
        // Ablation: the whole repository is in scope.
        repo.packages().map(|p| p.name).collect()
    };
    if cfg.splicing {
        // Splice candidates enter the solution without being dependencies:
        // include every package that declares it can replace a closure
        // member, then re-close.
        loop {
            let mut added: Vec<Sym> = Vec::new();
            for pkg in repo.packages() {
                if closure.contains(&pkg.name) {
                    continue;
                }
                if pkg
                    .can_splice
                    .iter()
                    .any(|cs| closure.contains(&cs.target.name.expect("validated")))
                {
                    added.push(pkg.name);
                }
            }
            if added.is_empty() {
                break;
            }
            for a in &added {
                closure.extend(repo.possible_closure(&[*a]));
            }
        }
    }
    Ok(GoalScope {
        root_names,
        resolved_roots,
        closure,
    })
}

/// Compile a goal into its fact base (as atoms) and its directive rules
/// (as [`Rule`]s). Caches are shared handles so the same slice the owned
/// [`Concretizer`] holds can be passed down without reborrowing
/// gymnastics. Each source is scanned once.
///
/// [`Concretizer`]: crate::Concretizer
pub fn encode(
    repo: &Repository,
    caches: &[Arc<dyn CacheSource>],
    goal: &Goal,
    cfg: &EncodeConfig,
) -> Result<EncodedGoal, CoreError> {
    let v = vocab();
    let mut facts: Vec<Atom> = Vec::new();
    let mut fact_marks: Vec<(usize, FactOrigin)> = Vec::new();
    let mut rule_marks: Vec<(usize, EncodeOrigin)> = Vec::new();
    let mut ct = ConstraintTable::default();

    // ---- determine the relevant package closure ----
    let GoalScope {
        root_names,
        resolved_roots,
        closure,
    } = goal_scope(repo, goal, cfg)?;
    // Membership tests go through a hash set: comparing `Sym`s in the
    // ordered set compares their strings. The ordered set orders facts.
    let in_closure: FxHashSet<Sym> = closure.iter().copied().collect();

    // ---- the reusable specs inside the closure ----
    let mut reusable: Vec<&ConcreteSpec> = Vec::new();
    for (ci, cache) in caches.iter().enumerate() {
        let entries = cache
            .iter()
            .map_err(|e| cache_error(ci, cache.as_ref(), e))?;
        reusable.extend(
            entries
                .map(|entry| &entry.spec)
                .filter(|spec| spec.nodes().iter().all(|n| in_closure.contains(&n.name))),
        );
    }

    // ---- version universes (declared + cached) ----
    let mut cache_versions: FxHashMap<Sym, BTreeSet<Version>> = FxHashMap::default();
    let mut cache_targets: BTreeSet<Target> = BTreeSet::new();
    let mut cache_oses: BTreeSet<Os> = BTreeSet::new();
    let mut cache_variant_values: FxHashMap<(Sym, Sym), BTreeSet<VariantValue>> =
        FxHashMap::default();
    for spec in &reusable {
        let root = spec.root();
        cache_versions
            .entry(root.name)
            .or_default()
            .insert(root.version.clone());
        cache_targets.insert(root.target);
        cache_oses.insert(root.os);
        for (vn, vv) in &root.variants {
            cache_variant_values
                .entry((root.name, *vn))
                .or_default()
                .insert(vv.clone());
        }
    }

    let version_universe = |pkg: Sym| -> Vec<Version> {
        let mut vs: Vec<Version> = repo
            .get(pkg)
            .map(|p| p.versions.clone())
            .unwrap_or_default();
        if let Some(extra) = cache_versions.get(&pkg) {
            for v in extra {
                if !vs.contains(v) {
                    vs.push(v.clone());
                }
            }
        }
        vs
    };

    // ---- environment facts ----
    fact_marks.push((facts.len(), FactOrigin::Environment));
    facts.push(atom(v.requested_os, [Term::Str(cfg.os.name())]));
    facts.push(atom(v.requested_target, [Term::Str(cfg.target.name())]));
    let mut targets: BTreeSet<Target> = cache_targets;
    targets.insert(cfg.target);
    for a in cfg.target.ancestors() {
        targets.insert(a);
    }
    let mut oses: BTreeSet<Os> = cache_oses;
    oses.insert(cfg.os);
    for o in &oses {
        facts.push(atom(v.os_declared, [Term::Str(o.name())]));
    }
    for t in &targets {
        facts.push(atom(v.target_declared, [Term::Str(t.name())]));
    }
    for machine in &targets {
        for built in &targets {
            if machine.runs_binary_built_for(*built) {
                facts.push(atom(
                    v.target_runs,
                    [Term::Str(machine.name()), Term::Str(built.name())],
                ));
            }
        }
    }
    for t in &targets {
        let pen = if cfg.target.runs_binary_built_for(*t) {
            cfg.target.depth().saturating_sub(t.depth()) as i64
        } else {
            100
        };
        facts.push(atom(
            v.target_penalty,
            [Term::Str(t.name()), Term::Int(pen)],
        ));
    }

    // ---- package facts and directive rules ----
    // First pass registers version constraints; a second emits the
    // version_satisfies facts (constraints are discovered during rule
    // generation).
    let mut rules: Vec<Rule> = Vec::new();
    for &pname in &closure {
        let Some(pkg) = repo.get(pname) else {
            continue; // virtual names in the closure have no package
        };
        emit_package(&mut rules, &mut rule_marks, repo, pkg, cfg, &mut ct)?;
    }

    // ---- provider preference weights (repository declaration order) ----
    {
        rule_marks.push((rules.len(), EncodeOrigin::ProviderWeights));
        let mut virtuals: BTreeSet<Sym> = BTreeSet::new();
        for &pname in &closure {
            if let Some(pkg) = repo.get(pname) {
                for p in &pkg.provides {
                    virtuals.insert(p.virtual_name);
                }
            }
        }
        for virt in virtuals {
            for (i, &prov) in repo.providers_of(virt).iter().enumerate() {
                if in_closure.contains(&prov) {
                    rules.push(fact(atom(
                        v.provider_weight,
                        [Str(virt), Str(prov), Term::Int(i as i64)],
                    )));
                }
            }
        }
    }

    // ---- goal ----
    for root in &resolved_roots {
        rule_marks.push((
            rules.len(),
            EncodeOrigin::GoalRoot {
                root: root.name.expect("resolved above"),
            },
        ));
        emit_goal_root(&mut rules, repo, root, &mut ct)?;
    }
    for &f in &goal.forbidden {
        rule_marks.push((rules.len(), EncodeOrigin::Forbidden { package: f }));
        rules.push(constraint(vec![Pos(attr(v.node, [node(f)]))]));
    }

    // ---- reusable specs ----
    for spec in &reusable {
        fact_marks.push((
            facts.len(),
            FactOrigin::Reusable {
                package: spec.root().name,
                hash: spec.dag_hash(),
            },
        ));
        emit_reusable(&mut facts, spec, cfg);
    }

    // ---- declared-version + version_satisfies facts ----
    fact_marks.push((facts.len(), FactOrigin::Environment));
    for &pname in &closure {
        if repo.get(pname).is_none() {
            continue;
        }
        let universe = version_universe(pname);
        let names: Vec<Sym> = universe
            .iter()
            .map(|ver| Sym::intern(&ver.to_string()))
            .collect();
        for (i, &name) in names.iter().enumerate() {
            facts.push(pkg_fact(
                pname,
                v.version_declared,
                vec![Term::Str(name), Term::Int(i as i64)],
            ));
        }
        if let Some(reqs) = ct.0.get(&pname) {
            for (key, req) in reqs {
                let key = Sym::intern(key);
                for (ver, &name) in universe.iter().zip(&names) {
                    if req.satisfies(ver) {
                        facts.push(pkg_fact(
                            pname,
                            v.version_satisfies,
                            vec![Term::Str(key), Term::Str(name)],
                        ));
                    }
                }
            }
        }
    }

    // ---- variant universes ----
    for &pname in &closure {
        let Some(pkg) = repo.get(pname) else { continue };
        for (vn, kind) in &pkg.variants {
            facts.push(pkg_fact(pname, v.variant, vec![Term::Str(*vn)]));
            let default = Sym::intern(&kind.default_value().canonical());
            facts.push(pkg_fact(
                pname,
                v.variant_default,
                vec![Term::Str(*vn), Term::Str(default)],
            ));
            let mut values: BTreeSet<String> = kind
                .candidate_values()
                .iter()
                .map(|v| v.canonical())
                .collect();
            if let Some(extra) = cache_variant_values.get(&(pname, *vn)) {
                for v in extra {
                    values.insert(v.canonical());
                }
            }
            for value in values {
                facts.push(pkg_fact(
                    pname,
                    v.variant_value,
                    vec![Term::Str(*vn), Term::Str(Sym::intern(&value))],
                ));
            }
        }
    }

    Ok(EncodedGoal {
        facts,
        rules,
        logic: Vec::new(),
        root_names,
        reusable_count: reusable.len(),
        fact_marks,
        rule_marks,
    })
}

/// The body literals testing an anonymous `when` constraint against the
/// node for package `p` (without the leading `attr("node", ...)`, which
/// callers always add). Variables are named after `var_tag`.
fn when_fragments(
    p: Sym,
    when: &AbstractSpec,
    var_tag: &str,
    ct: &mut ConstraintTable,
) -> Result<Vec<BodyElem>, CoreError> {
    let v = vocab();
    let mut parts = Vec::new();
    if let Some(key) = ct.note(p, &when.version) {
        let ver = var(&format!("V{var_tag}"));
        parts.push(Pos(attr(v.version, [node(p), ver.clone()])));
        parts.push(Pos(satisfies(p, key, ver)));
    }
    for (&vn, vv) in &when.variants {
        parts.push(Pos(attr(v.variant, [node(p), Str(vn), value(vv)])));
    }
    if let Some(os) = when.os {
        parts.push(Pos(attr(v.node_os, [node(p), Str(os.name())])));
    }
    if let Some(t) = when.target {
        parts.push(Pos(attr(v.node_target, [node(p), Str(t.name())])));
    }
    if !when.deps.is_empty() {
        return Err(CoreError::Unsupported(
            "dependency clauses inside when= conditions".into(),
        ));
    }
    Ok(parts)
}

fn emit_package(
    rules: &mut Vec<Rule>,
    marks: &mut Vec<(usize, EncodeOrigin)>,
    repo: &Repository,
    pkg: &spackle_repo::PackageDef,
    cfg: &EncodeConfig,
    ct: &mut ConstraintTable,
) -> Result<(), CoreError> {
    let v = vocab();
    let p = pkg.name;

    // depends_on directives. Guarded by build(P): a *reused* node's
    // dependencies come exclusively from its imposed (possibly spliced)
    // constraints — the stored spec is trusted, directives only shape
    // what gets built (Spack's reuse semantics).
    for (di, dep) in pkg.depends.iter().enumerate() {
        marks.push((
            rules.len(),
            EncodeOrigin::DependsOn {
                package: p,
                index: di,
            },
        ));
        let dname = dep.spec.name.expect("validated at build");
        let mut body = vec![Pos(attr(v.node, [node(p)])), Pos(atom(v.build, [Str(p)]))];
        body.extend(when_fragments(p, &dep.when, &format!("w{di}"), ct)?);

        if repo.is_virtual(dname) {
            if !matches!(dep.spec.version, VersionReq::Any) || !dep.spec.variants.is_empty() {
                return Err(CoreError::Unsupported(format!(
                    "constraints on virtual dependency {dname} of {}",
                    pkg.name
                )));
            }
            rules.push(rule(attr(v.virtual_dep, [node(p), Str(dname)]), body));
        } else {
            let link_run = Sym::intern("link-run");
            let types: &[Sym] = if dep.types.is_build() && dep.types.is_link_run() {
                &[v.build, link_run]
            } else if dep.types.is_build() {
                &[v.build]
            } else {
                &[link_run]
            };
            for &t in types {
                let head = attr(v.depends_on, [node(p), node(dname), Str(t)]);
                rules.push(rule(head, body.clone()));
            }
            // Constraints the dependency spec imposes on the dep node.
            if let Some(key) = ct.note(dname, &dep.spec.version) {
                let ver = var(&format!("Vd{di}"));
                let mut c = body.clone();
                c.push(Pos(attr(v.version, [node(dname), ver.clone()])));
                c.push(Neg(satisfies(dname, key, ver)));
                rules.push(constraint(c));
            }
            for (&vn, vv) in &dep.spec.variants {
                let mut c = body.clone();
                c.push(Pos(attr(v.node, [node(dname)])));
                c.push(Neg(attr(v.variant, [node(dname), Str(vn), value(vv)])));
                rules.push(constraint(c));
            }
        }
    }

    // provides directives. (Provider *weights* are emitted globally by
    // `encode`, ordered by repository declaration order.)
    for (pi, prov) in pkg.provides.iter().enumerate() {
        marks.push((
            rules.len(),
            EncodeOrigin::Provides {
                package: p,
                index: pi,
            },
        ));
        let virt = prov.virtual_name;
        rules.push(fact(atom(v.provider_decl, [Str(p), Str(virt)])));
        if !prov.when.is_empty() {
            let mut body = vec![Pos(attr(v.node, [node(p)]))];
            body.extend(when_fragments(p, &prov.when, &format!("p{pi}"), ct)?);
            let ok = atom(v.provides_ok, [Str(p), Str(virt)]);
            rules.push(rule(ok.clone(), body));
            rules.push(constraint(vec![
                Pos(atom(v.virtual_chosen, [Str(virt), Str(p)])),
                Neg(ok),
            ]));
        }
    }

    // conflicts directives.
    for (ci, conf) in pkg.conflicts.iter().enumerate() {
        marks.push((
            rules.len(),
            EncodeOrigin::Conflict {
                package: p,
                index: ci,
            },
        ));
        let mut body = vec![Pos(attr(v.node, [node(p)]))];
        body.extend(when_fragments(p, &conf.when, &format!("cw{ci}"), ct)?);
        // The conflicting condition itself (node-local parts).
        let mut c_local = conf.spec.clone();
        let c_deps = std::mem::take(&mut c_local.deps);
        c_local.name = None;
        body.extend(when_fragments(p, &c_local, &format!("cs{ci}"), ct)?);
        for (k, d) in c_deps.iter().enumerate() {
            let dn = d
                .spec
                .name
                .ok_or_else(|| CoreError::Unsupported("anonymous dep in conflicts spec".into()))?;
            body.push(Pos(atom(v.reach, [Str(p), Str(dn)])));
            if let Some(key) = ct.note(dn, &d.spec.version) {
                let ver = var(&format!("Vc{ci}_{k}"));
                body.push(Pos(attr(v.version, [node(dn), ver.clone()])));
                body.push(Pos(satisfies(dn, key, ver)));
            }
        }
        if !c_deps.is_empty() {
            // Seed the link-run closure this conflict's `reach` reads.
            rules.push(fact(atom(v.reach_from, [Str(p)])));
        }
        rules.push(constraint(body));
    }

    // can_splice directives (Fig 4a), only in splicing configurations.
    if cfg.splicing {
        for (si, cs) in pkg.can_splice.iter().enumerate() {
            marks.push((
                rules.len(),
                EncodeOrigin::CanSplice {
                    package: p,
                    index: si,
                },
            ));
            let t = cs.target.name.expect("validated at build");
            let hash = var("Hash");
            let mut body = vec![Pos(atom(v.installed_hash, [Str(t), hash.clone()]))];
            if let Some(key) = ct.note(t, &cs.target.version) {
                let ver = var(&format!("TV{si}"));
                body.push(Pos(atom(
                    v.hash_attr,
                    [hash.clone(), Str(v.version), Str(t), ver.clone()],
                )));
                body.push(Pos(satisfies(t, key, ver)));
            }
            for (&vn, vv) in &cs.target.variants {
                body.push(Pos(atom(
                    v.hash_attr,
                    [hash.clone(), Str(v.variant), Str(t), Str(vn), value(vv)],
                )));
            }
            body.push(Pos(attr(v.node, [node(p)])));
            body.extend(when_fragments(p, &cs.when, &format!("s{si}"), ct)?);
            rules.push(rule(atom(v.can_splice, [node(p), Str(t), hash]), body));
            rules.push(fact(atom(v.splicer_decl, [Str(p), Str(t)])));
            rules.push(fact(atom(v.splice_relevant, [Str(t)])));
        }
    }

    Ok(())
}

fn emit_goal_root(
    rules: &mut Vec<Rule>,
    repo: &Repository,
    root: &AbstractSpec,
    ct: &mut ConstraintTable,
) -> Result<(), CoreError> {
    let v = vocab();
    let g = root.name.expect("checked in encode");
    rules.push(fact(attr(v.root, [node(g)])));
    if let Some(key) = ct.note(g, &root.version) {
        let ver = var("V");
        rules.push(constraint(vec![
            Pos(attr(v.version, [node(g), ver.clone()])),
            Neg(satisfies(g, key, ver)),
        ]));
    }
    for (&vn, vv) in &root.variants {
        rules.push(require(attr(v.variant, [node(g), Str(vn), value(vv)])));
    }
    if let Some(os) = root.os {
        rules.push(require(attr(v.node_os, [node(g), Str(os.name())])));
    }
    if let Some(t) = root.target {
        rules.push(require(attr(v.node_target, [node(g), Str(t.name())])));
    }
    for (k, dep) in root.deps.iter().enumerate() {
        let dn = dep
            .spec
            .name
            .ok_or_else(|| CoreError::BadGoal("goal dependencies must name a package".into()))?;
        if repo.is_virtual(dn) {
            if !matches!(dep.spec.version, VersionReq::Any) || !dep.spec.variants.is_empty() {
                return Err(CoreError::Unsupported(
                    "constraints on virtual goal dependencies".into(),
                ));
            }
            rules.push(require(atom(v.virtual_used, [Str(dn)])));
        } else {
            // Seed the link-run closure from the goal root for this reader.
            rules.push(fact(atom(v.reach_from, [Str(g)])));
            rules.push(require(atom(v.reach, [Str(g), Str(dn)])));
            if let Some(key) = ct.note(dn, &dep.spec.version) {
                let ver = var(&format!("Vg{k}"));
                rules.push(constraint(vec![
                    Pos(attr(v.version, [node(dn), ver.clone()])),
                    Neg(satisfies(dn, key, ver)),
                ]));
            }
            for (&vn, vv) in &dep.spec.variants {
                rules.push(constraint(vec![
                    Pos(attr(v.node, [node(dn)])),
                    Neg(attr(v.variant, [node(dn), Str(vn), value(vv)])),
                ]));
            }
        }
    }
    Ok(())
}

/// Emit one reusable spec's facts in the configured encoding.
fn emit_reusable(facts: &mut Vec<Atom>, spec: &ConcreteSpec, cfg: &EncodeConfig) {
    let v = vocab();
    let root = spec.root();
    let h = Term::Str(Sym::intern(&spec.dag_hash().to_base32()));
    let name = Term::Str(root.name);
    let pred = match cfg.encoding {
        Encoding::Direct => v.imposed_constraint,
        Encoding::Indirect => v.hash_attr,
    };
    let attr = |kind: Sym, args: &[Term]| {
        let mut all = Vec::with_capacity(2 + args.len());
        all.extend([h.clone(), Term::Str(kind)]);
        all.extend_from_slice(args);
        Atom { pred, args: all }
    };
    facts.push(Atom {
        pred: v.installed_hash,
        args: vec![name.clone(), h.clone()],
    });
    let version = Term::Str(Sym::intern(&root.version.to_string()));
    facts.push(attr(v.version, &[name.clone(), version]));
    facts.push(attr(v.node_os, &[name.clone(), Term::Str(root.os.name())]));
    facts.push(attr(
        v.node_target,
        &[name.clone(), Term::Str(root.target.name())],
    ));
    for (vn, vv) in &root.variants {
        let value = Term::Str(Sym::intern(&vv.canonical()));
        facts.push(attr(v.variant, &[name.clone(), Term::Str(*vn), value]));
    }
    for &(dep, types) in &root.deps {
        if !types.is_link_run() {
            continue;
        }
        let dnode = spec.node(dep);
        let dname = Term::Str(dnode.name);
        facts.push(attr(v.depends_on, &[name.clone(), dname.clone()]));
        let dhash = Term::Str(Sym::intern(&dnode.hash.to_base32()));
        facts.push(attr(v.hash, &[dname, dhash]));
    }
}
