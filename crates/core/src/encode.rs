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
//! **Facts are data.** The fact base — environment facts, reusable
//! specs, version and variant universes, the part that grows with the
//! buildcache — comes out of [`encode`] as ground [`Atom`]s, which the
//! concretizer hands the grounder as body-less rules. Only the directive
//! rules (and the few facts interleaved with them) are text, parsed
//! before grounding. [`EncodedGoal::render`] prints the facts in front
//! of that text: the rendering parses back to the same program, and is
//! what explanations, audits of the text and external checkers read.

use crate::logic::Fragment;
use crate::CoreError;
use rustc_hash::{FxHashMap, FxHashSet};
use spackle_asp::{Atom, Term};
use spackle_buildcache::{CacheError, CacheSource};
use spackle_repo::Repository;
use spackle_spec::{
    AbstractSpec, ConcreteSpec, Os, SpecHash, Sym, Target, VariantValue, Version, VersionReq,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::sync::{Arc, OnceLock};

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

fn q(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Declares [`Vocab`]: each field is the symbol of its own name.
macro_rules! vocab {
    ($($name:ident),* $(,)?) => {
        /// The predicate names and string constants of the fact section,
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
);

/// `pkg_fact(pkg, pred(args...))`.
fn pkg_fact(pkg: Sym, pred: Sym, args: Vec<Term>) -> Atom {
    Atom {
        pred: vocab().pkg_fact,
        args: vec![Term::Str(pkg), Term::Func(pred, args)],
    }
}

/// Canonical key for a version requirement, used to link constraint
/// occurrences with `version_satisfies` facts.
fn req_key(req: &VersionReq) -> String {
    req.to_string()
}

/// Collects, per package, every version constraint that appears anywhere,
/// so `version_satisfies` facts can be emitted for exactly those.
#[derive(Default)]
struct ConstraintTable {
    per_pkg: BTreeMap<Sym, BTreeSet<String>>,
    reqs: BTreeMap<String, VersionReq>,
}

impl ConstraintTable {
    fn note(&mut self, pkg: Sym, req: &VersionReq) -> Option<String> {
        if matches!(req, VersionReq::Any) {
            return None;
        }
        let key = req_key(req);
        self.per_pkg.entry(pkg).or_default().insert(key.clone());
        self.reqs.insert(key.clone(), req.clone());
        Some(key)
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
/// directive rules as text, the logic fragments the concretizer appends,
/// and what the interpreter needs to map the model back to specs.
///
/// The solver's program is every fact as a body-less rule, in order,
/// followed by the parsed rule text and the fragments' parsed programs.
/// [`EncodedGoal::render`] prints the same program as text.
pub struct EncodedGoal {
    /// Environment facts, reusable specs, then the version and variant
    /// universes, in emission order.
    pub(crate) facts: Vec<Atom>,
    /// Directive rules and the facts that interleave with them
    /// (`provider_decl`, `provider_weight`, `reach_from`, `splicer_decl`,
    /// `splice_relevant`, `attr("root", …)`), as ASP text.
    pub(crate) rules: String,
    /// The logic fragments the concretizer appends, in order.
    pub(crate) logic: Vec<&'static Fragment>,
    /// Root package names in goal order.
    pub(crate) root_names: Vec<Sym>,
    /// Number of reusable-spec entries encoded.
    pub(crate) reusable_count: usize,
    /// `(index into facts, origin)` in ascending index order; each covers
    /// the facts up to the next one's index.
    fact_marks: Vec<(usize, FactOrigin)>,
    /// `(byte offset into rules, origin)` in ascending offset order.
    rule_marks: Vec<(usize, EncodeOrigin)>,
}

impl EncodedGoal {
    /// Print the program as text: each fact on its own line, in the
    /// encoder's quoting and with `", "` separators, then the rule text
    /// and the logic fragments. Parsing the text yields the solver's
    /// program rule for rule. The provenance ledger is built here, for
    /// the rendered offsets.
    pub fn render(self) -> Encoded {
        let logic_len: usize = self.logic.iter().map(|f| f.text.len()).sum();
        let mut program =
            String::with_capacity(48 * self.facts.len() + self.rules.len() + logic_len);
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
        let shift = program.len();
        program.push_str(&self.rules);
        ledger.extend(
            self.rule_marks
                .into_iter()
                .map(|(o, origin)| (o + shift, origin)),
        );
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
/// (as text). Caches are shared handles so the same slice the owned
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
    let fact = |pred: Sym, args: Vec<Term>| Atom { pred, args };
    facts.push(fact(v.requested_os, vec![Term::Str(cfg.os.name())]));
    facts.push(fact(v.requested_target, vec![Term::Str(cfg.target.name())]));
    let mut targets: BTreeSet<Target> = cache_targets;
    targets.insert(cfg.target);
    for a in cfg.target.ancestors() {
        targets.insert(a);
    }
    let mut oses: BTreeSet<Os> = cache_oses;
    oses.insert(cfg.os);
    for o in &oses {
        facts.push(fact(v.os_declared, vec![Term::Str(o.name())]));
    }
    for t in &targets {
        facts.push(fact(v.target_declared, vec![Term::Str(t.name())]));
    }
    for machine in &targets {
        for built in &targets {
            if machine.runs_binary_built_for(*built) {
                facts.push(fact(
                    v.target_runs,
                    vec![Term::Str(machine.name()), Term::Str(built.name())],
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
        facts.push(fact(
            v.target_penalty,
            vec![Term::Str(t.name()), Term::Int(pen)],
        ));
    }

    // ---- package facts and directive rules ----
    // First pass registers version constraints; a second emits the
    // version_satisfies facts (constraints are discovered during rule
    // generation).
    let mut rules = String::with_capacity(1 << 14);
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
        for v in virtuals {
            for (i, prov) in repo.providers_of(v).iter().enumerate() {
                if in_closure.contains(prov) {
                    writeln!(
                        rules,
                        "provider_weight({vq}, {pq}, {i}).",
                        vq = q(v.as_str()),
                        pq = q(prov.as_str())
                    )
                    .ok();
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
    for f in &goal.forbidden {
        rule_marks.push((rules.len(), EncodeOrigin::Forbidden { package: *f }));
        writeln!(rules, ":- attr(\"node\", node({})).", q(f.as_str())).ok();
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
        if let Some(keys) = ct.per_pkg.get(&pname) {
            for key in keys {
                let req = &ct.reqs[key];
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

/// Render the body fragment testing an anonymous `when` constraint
/// against the node for package `p`. Returns the conjunction pieces
/// (without the leading `attr("node", ...)`, which callers always add).
fn when_fragments(
    p: Sym,
    when: &AbstractSpec,
    var_tag: &str,
    ct: &mut ConstraintTable,
) -> Result<Vec<String>, CoreError> {
    let mut parts = Vec::new();
    if let Some(key) = ct.note(p, &when.version) {
        parts.push(format!(
            "attr(\"version\", node({p}), V{var_tag})",
            p = q(p.as_str())
        ));
        parts.push(format!(
            "pkg_fact({p}, version_satisfies({c}, V{var_tag}))",
            p = q(p.as_str()),
            c = q(&key)
        ));
    }
    for (vn, vv) in &when.variants {
        parts.push(format!(
            "attr(\"variant\", node({p}), {vn}, {vv})",
            p = q(p.as_str()),
            vn = q(vn.as_str()),
            vv = q(&vv.canonical())
        ));
    }
    if let Some(os) = when.os {
        parts.push(format!(
            "attr(\"node_os\", node({p}), {o})",
            p = q(p.as_str()),
            o = q(os.name().as_str())
        ));
    }
    if let Some(t) = when.target {
        parts.push(format!(
            "attr(\"node_target\", node({p}), {t})",
            p = q(p.as_str()),
            t = q(t.name().as_str())
        ));
    }
    if !when.deps.is_empty() {
        return Err(CoreError::Unsupported(
            "dependency clauses inside when= conditions".into(),
        ));
    }
    Ok(parts)
}

fn emit_package(
    rules: &mut String,
    marks: &mut Vec<(usize, EncodeOrigin)>,
    repo: &Repository,
    pkg: &spackle_repo::PackageDef,
    cfg: &EncodeConfig,
    ct: &mut ConstraintTable,
) -> Result<(), CoreError> {
    let pq = q(pkg.name.as_str());

    // depends_on directives. Guarded by build(P): a *reused* node's
    // dependencies come exclusively from its imposed (possibly spliced)
    // constraints — the stored spec is trusted, directives only shape
    // what gets built (Spack's reuse semantics).
    for (di, dep) in pkg.depends.iter().enumerate() {
        marks.push((
            rules.len(),
            EncodeOrigin::DependsOn {
                package: pkg.name,
                index: di,
            },
        ));
        let dname = dep.spec.name.expect("validated at build");
        let mut body = vec![
            format!("attr(\"node\", node({pq}))"),
            format!("build({pq})"),
        ];
        body.extend(when_fragments(pkg.name, &dep.when, &format!("w{di}"), ct)?);
        let body_s = body.join(", ");

        if repo.is_virtual(dname) {
            if !matches!(dep.spec.version, VersionReq::Any) || !dep.spec.variants.is_empty() {
                return Err(CoreError::Unsupported(format!(
                    "constraints on virtual dependency {dname} of {}",
                    pkg.name
                )));
            }
            writeln!(
                rules,
                "attr(\"virtual_dep\", node({pq}), {d}) :- {body_s}.",
                d = q(dname.as_str())
            )
            .ok();
        } else {
            let types: &[&str] = if dep.types.is_build() && dep.types.is_link_run() {
                &["build", "link-run"]
            } else if dep.types.is_build() {
                &["build"]
            } else {
                &["link-run"]
            };
            for t in types {
                writeln!(
                    rules,
                    "attr(\"depends_on\", node({pq}), node({d}), {t}) :- {body_s}.",
                    d = q(dname.as_str()),
                    t = q(t)
                )
                .ok();
            }
            // Constraints the dependency spec imposes on the dep node.
            if let Some(key) = ct.note(dname, &dep.spec.version) {
                writeln!(
                    rules,
                    ":- {body_s}, attr(\"version\", node({d}), Vd{di}), \
                     not pkg_fact({d}, version_satisfies({c}, Vd{di})).",
                    d = q(dname.as_str()),
                    c = q(&key)
                )
                .ok();
            }
            for (vn, vv) in &dep.spec.variants {
                writeln!(
                    rules,
                    ":- {body_s}, attr(\"node\", node({d})), \
                     not attr(\"variant\", node({d}), {vn}, {vv}).",
                    d = q(dname.as_str()),
                    vn = q(vn.as_str()),
                    vv = q(&vv.canonical())
                )
                .ok();
            }
        }
    }

    // provides directives. (Provider *weights* are emitted globally by
    // `encode`, ordered by repository declaration order.)
    for (pi, prov) in pkg.provides.iter().enumerate() {
        marks.push((
            rules.len(),
            EncodeOrigin::Provides {
                package: pkg.name,
                index: pi,
            },
        ));
        writeln!(
            rules,
            "provider_decl({pq}, {v}).",
            v = q(prov.virtual_name.as_str())
        )
        .ok();
        if !prov.when.is_empty() {
            let mut body = vec![format!("attr(\"node\", node({pq}))")];
            body.extend(when_fragments(pkg.name, &prov.when, &format!("p{pi}"), ct)?);
            writeln!(
                rules,
                "provides_ok({pq}, {v}) :- {body}.",
                v = q(prov.virtual_name.as_str()),
                body = body.join(", ")
            )
            .ok();
            writeln!(
                rules,
                ":- virtual_chosen({v}, {pq}), not provides_ok({pq}, {v}).",
                v = q(prov.virtual_name.as_str())
            )
            .ok();
        }
    }

    // conflicts directives.
    for (ci, conf) in pkg.conflicts.iter().enumerate() {
        marks.push((
            rules.len(),
            EncodeOrigin::Conflict {
                package: pkg.name,
                index: ci,
            },
        ));
        let mut body = vec![format!("attr(\"node\", node({pq}))")];
        body.extend(when_fragments(pkg.name, &conf.when, &format!("cw{ci}"), ct)?);
        // The conflicting condition itself (node-local parts).
        let mut c_local = conf.spec.clone();
        let c_deps = std::mem::take(&mut c_local.deps);
        c_local.name = None;
        body.extend(when_fragments(pkg.name, &c_local, &format!("cs{ci}"), ct)?);
        for (k, d) in c_deps.iter().enumerate() {
            let dn = d.spec.name.ok_or_else(|| {
                CoreError::Unsupported("anonymous dep in conflicts spec".into())
            })?;
            body.push(format!("reach({pq}, {d})", d = q(dn.as_str())));
            if let Some(key) = ct.note(dn, &d.spec.version) {
                body.push(format!(
                    "attr(\"version\", node({d}), Vc{ci}_{k})",
                    d = q(dn.as_str())
                ));
                body.push(format!(
                    "pkg_fact({d}, version_satisfies({c}, Vc{ci}_{k}))",
                    d = q(dn.as_str()),
                    c = q(&key)
                ));
            }
        }
        if !c_deps.is_empty() {
            // Seed the link-run closure this conflict's `reach` reads.
            writeln!(rules, "reach_from({pq}).").ok();
        }
        writeln!(rules, ":- {}.", body.join(", ")).ok();
    }

    // can_splice directives (Fig 4a), only in splicing configurations.
    if cfg.splicing {
        for (si, cs) in pkg.can_splice.iter().enumerate() {
            marks.push((
                rules.len(),
                EncodeOrigin::CanSplice {
                    package: pkg.name,
                    index: si,
                },
            ));
            let target_name = cs.target.name.expect("validated at build");
            let tq = q(target_name.as_str());
            let mut body = vec![format!("installed_hash({tq}, Hash)")];
            if let Some(key) = ct.note(target_name, &cs.target.version) {
                body.push(format!(
                    "hash_attr(Hash, \"version\", {tq}, TV{si})"
                ));
                body.push(format!(
                    "pkg_fact({tq}, version_satisfies({c}, TV{si}))",
                    c = q(&key)
                ));
            }
            for (vn, vv) in &cs.target.variants {
                body.push(format!(
                    "hash_attr(Hash, \"variant\", {tq}, {vn}, {vv})",
                    vn = q(vn.as_str()),
                    vv = q(&vv.canonical())
                ));
            }
            body.push(format!("attr(\"node\", node({pq}))"));
            body.extend(when_fragments(pkg.name, &cs.when, &format!("s{si}"), ct)?);
            writeln!(
                rules,
                "can_splice(node({pq}), {tq}, Hash) :- {body}.",
                body = body.join(", ")
            )
            .ok();
            writeln!(rules, "splicer_decl({pq}, {tq}).").ok();
            writeln!(rules, "splice_relevant({tq}).").ok();
        }
    }

    Ok(())
}

fn emit_goal_root(
    rules: &mut String,
    repo: &Repository,
    root: &AbstractSpec,
    ct: &mut ConstraintTable,
) -> Result<(), CoreError> {
    let g = root.name.expect("checked in encode");
    let gq = q(g.as_str());
    writeln!(rules, "attr(\"root\", node({gq})).").ok();
    if let Some(key) = ct.note(g, &root.version) {
        writeln!(
            rules,
            ":- attr(\"version\", node({gq}), V), not pkg_fact({gq}, version_satisfies({c}, V)).",
            c = q(&key)
        )
        .ok();
    }
    for (vn, vv) in &root.variants {
        writeln!(
            rules,
            ":- not attr(\"variant\", node({gq}), {vn}, {vv}).",
            vn = q(vn.as_str()),
            vv = q(&vv.canonical())
        )
        .ok();
    }
    if let Some(os) = root.os {
        writeln!(
            rules,
            ":- not attr(\"node_os\", node({gq}), {o}).",
            o = q(os.name().as_str())
        )
        .ok();
    }
    if let Some(t) = root.target {
        writeln!(
            rules,
            ":- not attr(\"node_target\", node({gq}), {t}).",
            t = q(t.name().as_str())
        )
        .ok();
    }
    for (k, dep) in root.deps.iter().enumerate() {
        let dn = dep.spec.name.ok_or_else(|| {
            CoreError::BadGoal("goal dependencies must name a package".into())
        })?;
        if repo.is_virtual(dn) {
            if !matches!(dep.spec.version, VersionReq::Any) || !dep.spec.variants.is_empty() {
                return Err(CoreError::Unsupported(
                    "constraints on virtual goal dependencies".into(),
                ));
            }
            writeln!(rules, ":- not virtual_used({}).", q(dn.as_str())).ok();
        } else {
            // Seed the link-run closure from the goal root for this reader.
            writeln!(rules, "reach_from({gq}).").ok();
            writeln!(
                rules,
                ":- not reach({gq}, {d}).",
                d = q(dn.as_str())
            )
            .ok();
            if let Some(key) = ct.note(dn, &dep.spec.version) {
                writeln!(
                    rules,
                    ":- attr(\"version\", node({d}), Vg{k}), \
                     not pkg_fact({d}, version_satisfies({c}, Vg{k})).",
                    d = q(dn.as_str()),
                    c = q(&key)
                )
                .ok();
            }
            for (vn, vv) in &dep.spec.variants {
                writeln!(
                    rules,
                    ":- attr(\"node\", node({d})), not attr(\"variant\", node({d}), {vn}, {vv}).",
                    d = q(dn.as_str()),
                    vn = q(vn.as_str()),
                    vv = q(&vv.canonical())
                )
                .ok();
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
    facts.push(attr(v.node_target, &[name.clone(), Term::Str(root.target.name())]));
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
