//! Interpretation of optimal models back into concrete specs (the third
//! stage of §3.3), including reconstruction of spliced specs with full
//! build provenance via `ConcreteSpec::splice` (§5.4's output mapping).

use crate::encode::cache_error;
use crate::CoreError;
use rustc_hash::FxHashMap;
use spackle_buildcache::{CacheError, CacheSource};
use spackle_spec::spec::ConcreteSpecBuilder;
use spackle_spec::{
    ConcreteSpec, DepTypes, Os, SpecHash, Sym, Target, VariantValue, Version,
};
use spackle_asp::Model;
use std::collections::BTreeMap;

/// One executed splice, reported in the solution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpliceReport {
    /// Package whose reused spec had a dependency replaced.
    pub parent: Sym,
    /// The replaced dependency's package.
    pub replaced: Sym,
    /// The replacement package.
    pub replacement: Sym,
}

/// Decoded per-package model attributes.
struct NodeInfo {
    version: Version,
    variants: BTreeMap<Sym, VariantValue>,
    os: Os,
    target: Target,
    hash: Option<SpecHash>,
    deps: Vec<(Sym, DepTypes)>,
}

/// The interpreted solution.
#[derive(Clone)]
pub struct Interpretation {
    /// Concrete specs for each requested root, in request order.
    pub specs: Vec<ConcreteSpec>,
    /// Packages reused from caches (hash-selected).
    pub reused: Vec<Sym>,
    /// Packages that must be built from source.
    pub built: Vec<Sym>,
    /// Executed splices.
    pub spliced: Vec<SpliceReport>,
    /// The model's cost vector, `(priority, cost)` pairs highest
    /// priority first.
    pub cost: Vec<(i64, i64)>,
}

/// Decode the model into concrete specs.
pub fn interpret(
    model: &Model,
    caches: &[std::sync::Arc<dyn CacheSource>],
    root_names: &[Sym],
) -> Result<Interpretation, CoreError> {
    let mut nodes: BTreeMap<Sym, NodeInfo> = BTreeMap::new();
    let node_name = |t| -> Option<Sym> {
        let (f, args) = model.as_func(t)?;
        (f == "node" && args.len() == 1)
            .then(|| model.as_str(args[0]))
            .flatten()
            .map(Sym::intern)
    };

    // Pass 1: create node entries.
    for args in model.atoms_of("attr") {
        if model.as_str(args[0]) == Some("node") {
            if let Some(n) = node_name(args[1]) {
                nodes.entry(n).or_insert_with(|| NodeInfo {
                    version: Version::parse("0").expect("literal"),
                    variants: BTreeMap::new(),
                    os: Os::new("unknown"),
                    target: Target::new("unknown"),
                    hash: None,
                    deps: Vec::new(),
                });
            }
        }
    }

    // Pass 2: attributes and edges.
    for args in model.atoms_of("attr") {
        let Some(aname) = model.as_str(args[0]) else { continue };
        let Some(n) = node_name(args[1]) else { continue };
        let Some(info) = nodes.get_mut(&n) else { continue };
        match aname {
            "version" => {
                let v = model
                    .as_str(args[2])
                    .ok_or_else(|| CoreError::Interpret("version not a string".into()))?;
                info.version = Version::parse(v)
                    .map_err(|e| CoreError::Interpret(format!("bad version {v}: {e}")))?;
            }
            "node_os" => {
                let o = model
                    .as_str(args[2])
                    .ok_or_else(|| CoreError::Interpret("os not a string".into()))?;
                info.os = Os::new(o);
            }
            "node_target" => {
                let t = model
                    .as_str(args[2])
                    .ok_or_else(|| CoreError::Interpret("target not a string".into()))?;
                info.target = Target::new(t);
            }
            "variant" => {
                let vn = model
                    .as_str(args[2])
                    .ok_or_else(|| CoreError::Interpret("variant name not a string".into()))?;
                let vv = model
                    .as_str(args[3])
                    .ok_or_else(|| CoreError::Interpret("variant value not a string".into()))?;
                info.variants
                    .insert(Sym::intern(vn), VariantValue::parse(vv));
            }
            "hash" => {
                let h = model
                    .as_str(args[2])
                    .ok_or_else(|| CoreError::Interpret("hash not a string".into()))?;
                info.hash = Some(SpecHash::from_base32(h).ok_or_else(|| {
                    CoreError::Interpret(format!("malformed hash {h}"))
                })?);
            }
            "depends_on" => {
                let Some(d) = node_name(args[2]) else { continue };
                let t = model
                    .as_str(args[3])
                    .ok_or_else(|| CoreError::Interpret("edge type not a string".into()))?;
                let types = match t {
                    "build" => DepTypes::BUILD,
                    "link-run" => DepTypes::LINK_RUN,
                    other => {
                        return Err(CoreError::Interpret(format!("bad edge type {other}")))
                    }
                };
                if let Some(existing) = info.deps.iter_mut().find(|(dn, _)| *dn == d) {
                    existing.1 = existing.1.union(types);
                } else {
                    info.deps.push((d, types));
                }
            }
            _ => {}
        }
    }

    // Splice decisions: splice_to(ParentHash, ChildName, NewName).
    let mut splices: FxHashMap<SpecHash, Vec<(Sym, Sym)>> = FxHashMap::default();
    for args in model.atoms_of("splice_to") {
        let h = model
            .as_str(args[0])
            .and_then(SpecHash::from_base32)
            .ok_or_else(|| CoreError::Interpret("splice_to parent hash malformed".into()))?;
        let c = model
            .as_str(args[1])
            .ok_or_else(|| CoreError::Interpret("splice_to child not a string".into()))?;
        let n = model
            .as_str(args[2])
            .ok_or_else(|| CoreError::Interpret("splice_to target not a string".into()))?;
        splices
            .entry(h)
            .or_default()
            .push((Sym::intern(c), Sym::intern(n)));
    }

    // Topological order (dependencies first).
    let order = topo_packages(&nodes)?;

    // Cache lookup across all caches. Every source is consulted — a
    // failing or corrupt backend never masks a healthy one later in the
    // chain — and a served entry must hash to what was asked for (a
    // corrupt backend can return a well-formed but wrong entry; the
    // integrity check turns that into a structured error instead of a
    // silently wrong spec). Only when no source has a valid entry does a
    // recorded failure surface, and it surfaces as `CoreError::Cache` so
    // the concretizer's degraded mode can retry without that source.
    let find_cached = |h: SpecHash| -> Result<Option<&spackle_buildcache::CacheEntry>, CoreError> {
        let mut first_err: Option<CoreError> = None;
        for (ci, c) in caches.iter().enumerate() {
            match c.get(h) {
                Ok(Some(entry)) => {
                    if entry.spec.dag_hash() != h {
                        if first_err.is_none() {
                            first_err = Some(cache_error(
                                ci,
                                c.as_ref(),
                                CacheError::corrupt(
                                    c.label(),
                                    format!(
                                        "entry for {} hashes to {}",
                                        h.short(),
                                        entry.spec.dag_hash().short()
                                    ),
                                ),
                            ));
                        }
                        continue;
                    }
                    return Ok(Some(entry));
                }
                Ok(None) => {}
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(cache_error(ci, c.as_ref(), e));
                    }
                }
            }
        }
        first_err.map_or(Ok(None), Err)
    };

    let mut memo: BTreeMap<Sym, ConcreteSpec> = BTreeMap::new();
    let mut reused = Vec::new();
    let mut built = Vec::new();
    let mut spliced = Vec::new();

    for name in order {
        let info = &nodes[&name];
        if let Some(h) = info.hash {
            reused.push(name);
            let entry = find_cached(h)?.ok_or_else(|| {
                CoreError::Interpret(format!(
                    "model reuses {name}/{} but no cache has it",
                    h.short()
                ))
            })?;
            let cached = entry.spec.clone();
            // Replace any direct link-run child whose realized sub-spec
            // differs from what the binary was built with — either an
            // explicit cross-package splice (splice_to) or a transitively
            // modified child. Each replacement goes through
            // ConcreteSpec::splice, which records build provenance.
            let mut result = cached.clone();
            let this_splices = splices.get(&h).cloned().unwrap_or_default();
            for &(child_id, types) in &cached.root().deps {
                if !types.is_link_run() {
                    continue;
                }
                let child_name = cached.node(child_id).name;
                let child_hash = cached.node(child_id).hash;
                let replacement_name = this_splices
                    .iter()
                    .find(|(c, _)| *c == child_name)
                    .map(|&(_, n)| n);
                let realized_name = replacement_name.unwrap_or(child_name);
                let realized = memo.get(&realized_name).ok_or_else(|| {
                    CoreError::Interpret(format!(
                        "dependency {realized_name} of {name} interpreted out of order"
                    ))
                })?;
                if realized.dag_hash() == child_hash {
                    continue; // exactly as built
                }
                result = result
                    .splice_as(child_name, realized, true)
                    .map_err(|e| CoreError::Interpret(format!("splice failed: {e}")))?;
                spliced.push(SpliceReport {
                    parent: name,
                    replaced: child_name,
                    replacement: realized_name,
                });
            }
            memo.insert(name, result);
        } else {
            built.push(name);
            let mut b = ConcreteSpecBuilder::new();
            let id = b.node_full(
                name.as_str(),
                info.version.clone(),
                info.variants.clone(),
                info.os,
                info.target,
            );
            for (dname, types) in &info.deps {
                let dep_spec = memo.get(dname).ok_or_else(|| {
                    CoreError::Interpret(format!(
                        "dependency {dname} of {name} interpreted out of order"
                    ))
                })?;
                let did = b.import(dep_spec);
                b.edge(id, did, *types);
            }
            let spec = b
                .build(id)
                .map_err(|e| CoreError::Interpret(format!("assembling {name}: {e}")))?;
            memo.insert(name, spec);
        }
    }

    let mut specs = Vec::with_capacity(root_names.len());
    for r in root_names {
        let spec = memo.get(r).ok_or_else(|| {
            CoreError::Interpret(format!("root {r} missing from the solution"))
        })?;
        specs.push(spec.clone());
    }

    Ok(Interpretation {
        specs,
        reused,
        built,
        spliced,
        cost: model.cost.clone(),
    })
}

fn topo_packages(nodes: &BTreeMap<Sym, NodeInfo>) -> Result<Vec<Sym>, CoreError> {
    let mut order = Vec::with_capacity(nodes.len());
    let mut state: BTreeMap<Sym, u8> = BTreeMap::new();
    let names: Vec<Sym> = nodes.keys().copied().collect();
    for start in names {
        if state.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(Sym, usize)> = vec![(start, 0)];
        state.insert(start, 1);
        while let Some(&(name, next)) = stack.last() {
            let deps = &nodes[&name].deps;
            if next < deps.len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let (d, _) = deps[next];
                // Edges may reference packages without node entries only
                // if the model is inconsistent; report rather than panic.
                if !nodes.contains_key(&d) {
                    return Err(CoreError::Interpret(format!(
                        "edge to {d} but no node({d}) in model"
                    )));
                }
                match state.get(&d).copied().unwrap_or(0) {
                    0 => {
                        state.insert(d, 1);
                        stack.push((d, 0));
                    }
                    1 => {
                        return Err(CoreError::Interpret(format!(
                            "dependency cycle through {d}"
                        )));
                    }
                    _ => {}
                }
            } else {
                state.insert(name, 2);
                order.push(name);
                stack.pop();
            }
        }
    }
    Ok(order)
}
