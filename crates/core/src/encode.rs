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

use crate::CoreError;
use spackle_buildcache::{CacheError, CacheSource};
use spackle_repo::Repository;
use spackle_spec::{
    AbstractSpec, ConcreteSpec, Os, Sym, Target, VariantValue, Version, VersionReq,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

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

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn q(s: &str) -> String {
    format!("\"{}\"", esc(s))
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
/// entry, logic fragment) that emitted it. The encoder's
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

/// Everything the interpreter needs to map the model back to specs.
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

/// Compile everything into one ASP program. Caches are shared handles
/// so the same slice the owned [`Concretizer`] holds can be passed down
/// without reborrowing gymnastics.
///
/// [`Concretizer`]: crate::Concretizer
pub fn encode(
    repo: &Repository,
    caches: &[std::sync::Arc<dyn CacheSource>],
    goal: &Goal,
    cfg: &EncodeConfig,
) -> Result<Encoded, CoreError> {
    let mut out = String::with_capacity(1 << 16);
    let mut ct = ConstraintTable::default();
    // Provenance ledger halves: facts land in `out`, directive rules in
    // `rules`; the two marker lists are merged (with the rules offsets
    // shifted) at the final concatenation.
    let mut out_marks: Vec<(usize, EncodeOrigin)> = Vec::new();
    let mut rule_marks: Vec<(usize, EncodeOrigin)> = Vec::new();

    // ---- determine the relevant package closure ----
    let GoalScope {
        root_names,
        resolved_roots,
        closure,
    } = goal_scope(repo, goal, cfg)?;

    // ---- version universes (declared + cached) ----
    let mut cache_versions: BTreeMap<Sym, BTreeSet<Version>> = BTreeMap::new();
    let mut cache_targets: BTreeSet<Target> = BTreeSet::new();
    let mut cache_oses: BTreeSet<Os> = BTreeSet::new();
    let mut cache_variant_values: BTreeMap<(Sym, Sym), BTreeSet<VariantValue>> = BTreeMap::new();
    let relevant_entry = |spec: &ConcreteSpec| -> bool {
        spec.nodes().iter().all(|n| closure.contains(&n.name))
    };
    let mut reusable_count = 0usize;
    for (ci, cache) in caches.iter().enumerate() {
        let entries = cache.iter().map_err(|e| cache_error(ci, cache.as_ref(), e))?;
        for entry in entries {
            if !relevant_entry(&entry.spec) {
                continue;
            }
            reusable_count += 1;
            let root = entry.spec.root();
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
    out_marks.push((out.len(), EncodeOrigin::Environment));
    writeln!(out, "requested_os({}).", q(cfg.os.name().as_str())).ok();
    writeln!(out, "requested_target({}).", q(cfg.target.name().as_str())).ok();
    let mut targets: BTreeSet<Target> = cache_targets;
    targets.insert(cfg.target);
    for a in cfg.target.ancestors() {
        targets.insert(a);
    }
    let mut oses: BTreeSet<Os> = cache_oses;
    oses.insert(cfg.os);
    for o in &oses {
        writeln!(out, "os_declared({}).", q(o.name().as_str())).ok();
    }
    for t in &targets {
        writeln!(out, "target_declared({}).", q(t.name().as_str())).ok();
    }
    for machine in &targets {
        for built in &targets {
            if machine.runs_binary_built_for(*built) {
                writeln!(
                    out,
                    "target_runs({}, {}).",
                    q(machine.name().as_str()),
                    q(built.name().as_str())
                )
                .ok();
            }
        }
    }
    for t in &targets {
        let pen = if cfg.target.runs_binary_built_for(*t) {
            cfg.target.depth().saturating_sub(t.depth()) as i64
        } else {
            100
        };
        writeln!(out, "target_penalty({}, {}).", q(t.name().as_str()), pen).ok();
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
                if closure.contains(prov) {
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
    for (ci, cache) in caches.iter().enumerate() {
        let entries = cache.iter().map_err(|e| cache_error(ci, cache.as_ref(), e))?;
        for entry in entries {
            if !relevant_entry(&entry.spec) {
                continue;
            }
            out_marks.push((
                out.len(),
                EncodeOrigin::Reusable {
                    package: entry.spec.root().name,
                    hash: entry.spec.dag_hash().to_base32(),
                },
            ));
            emit_reusable(&mut out, &entry.spec, cfg);
        }
    }

    // ---- declared-version + version_satisfies facts ----
    out_marks.push((out.len(), EncodeOrigin::Environment));
    for &pname in &closure {
        if repo.get(pname).is_none() {
            continue;
        }
        let universe = version_universe(pname);
        for (i, v) in universe.iter().enumerate() {
            writeln!(
                out,
                "pkg_fact({}, version_declared({}, {})).",
                q(pname.as_str()),
                q(&v.to_string()),
                i
            )
            .ok();
        }
        if let Some(keys) = ct.per_pkg.get(&pname) {
            for key in keys {
                let req = &ct.reqs[key];
                for v in &universe {
                    if req.satisfies(v) {
                        writeln!(
                            out,
                            "pkg_fact({}, version_satisfies({}, {})).",
                            q(pname.as_str()),
                            q(key),
                            q(&v.to_string())
                        )
                        .ok();
                    }
                }
            }
        }
    }

    // ---- variant universes ----
    for &pname in &closure {
        let Some(pkg) = repo.get(pname) else { continue };
        for (vn, kind) in &pkg.variants {
            writeln!(
                out,
                "pkg_fact({}, variant({})).",
                q(pname.as_str()),
                q(vn.as_str())
            )
            .ok();
            writeln!(
                out,
                "pkg_fact({}, variant_default({}, {})).",
                q(pname.as_str()),
                q(vn.as_str()),
                q(&kind.default_value().canonical())
            )
            .ok();
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
            for v in values {
                writeln!(
                    out,
                    "pkg_fact({}, variant_value({}, {})).",
                    q(pname.as_str()),
                    q(vn.as_str()),
                    q(&v)
                )
                .ok();
            }
        }
    }

    let shift = out.len();
    out.push_str(&rules);
    let mut ledger = out_marks;
    ledger.extend(rule_marks.into_iter().map(|(o, g)| (o + shift, g)));
    Ok(Encoded {
        program: out,
        root_names,
        reusable_count,
        ledger,
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

/// Emit one reusable spec in the configured encoding.
fn emit_reusable(out: &mut String, spec: &ConcreteSpec, cfg: &EncodeConfig) {
    let root = spec.root();
    let h = q(&spec.dag_hash().to_base32());
    let name = q(root.name.as_str());
    let pred = match cfg.encoding {
        Encoding::Direct => "imposed_constraint",
        Encoding::Indirect => "hash_attr",
    };
    writeln!(out, "installed_hash({name}, {h}).").ok();
    writeln!(
        out,
        "{pred}({h}, \"version\", {name}, {v}).",
        v = q(&root.version.to_string())
    )
    .ok();
    writeln!(
        out,
        "{pred}({h}, \"node_os\", {name}, {o}).",
        o = q(root.os.name().as_str())
    )
    .ok();
    writeln!(
        out,
        "{pred}({h}, \"node_target\", {name}, {t}).",
        t = q(root.target.name().as_str())
    )
    .ok();
    for (vn, vv) in &root.variants {
        writeln!(
            out,
            "{pred}({h}, \"variant\", {name}, {vn}, {vv}).",
            vn = q(vn.as_str()),
            vv = q(&vv.canonical())
        )
        .ok();
    }
    for &(dep, types) in &root.deps {
        if !types.is_link_run() {
            continue;
        }
        let dnode = spec.node(dep);
        writeln!(
            out,
            "{pred}({h}, \"depends_on\", {name}, {d}).",
            d = q(dnode.name.as_str())
        )
        .ok();
        writeln!(
            out,
            "{pred}({h}, \"hash\", {d}, {dh}).",
            d = q(dnode.name.as_str()),
            dh = q(&dnode.hash.to_base32())
        )
        .ok();
    }
}
