//! Abstract and concrete specs (paper §3.1).
//!
//! An [`AbstractSpec`] is a constraint: any attribute may be left open and
//! dependency constraints nest recursively. A [`ConcreteSpec`] is a fully
//! resolved directed acyclic multigraph: every node carries all six
//! attributes, edges are typed *build* and/or *link-run*, and each node has
//! a content hash over the sub-DAG it roots.

use crate::arch::{Os, Target};
use crate::error::SpecError;
use crate::hash::{Sha256, SpecHash};
use crate::ident::Sym;
use crate::variant::{display_variant, VariantValue};
use crate::version::{Version, VersionReq};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Dependency edge types. An edge may be build, link-run, or both.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct DepTypes(u8);

impl DepTypes {
    /// Needed to execute the build (compilers, build systems, interpreters).
    pub const BUILD: DepTypes = DepTypes(0b01);
    /// Needed at link time or runtime (shared libraries, runtime tools).
    pub const LINK_RUN: DepTypes = DepTypes(0b10);
    /// Both build and link-run.
    pub const ALL: DepTypes = DepTypes(0b11);

    /// Does this edge include the build type?
    pub fn is_build(self) -> bool {
        self.0 & Self::BUILD.0 != 0
    }
    /// Does this edge include the link-run type?
    pub fn is_link_run(self) -> bool {
        self.0 & Self::LINK_RUN.0 != 0
    }
    /// Union of two edge type sets.
    pub fn union(self, other: DepTypes) -> DepTypes {
        DepTypes(self.0 | other.0)
    }
}

impl fmt::Debug for DepTypes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.is_build(), self.is_link_run()) {
            (true, true) => f.write_str("build+link-run"),
            (true, false) => f.write_str("build"),
            (false, true) => f.write_str("link-run"),
            (false, false) => f.write_str("none"),
        }
    }
}

/// A dependency constraint inside an abstract spec (`^zlib@1.2` or `%gcc`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbstractDep {
    /// Constraint on the dependency (recursively abstract).
    pub spec: AbstractSpec,
    /// Which edge types the constraint applies to.
    pub types: DepTypes,
}

/// A partial build-configuration constraint, as typed by a user or written
/// in a package directive (`hdf5@1.14 +cxx ~mpi ^zlib@1.3 %gcc`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbstractSpec {
    /// Package (or virtual) name; `None` for an anonymous constraint
    /// (e.g. the `when` spec `@1.1.0` inside a package definition).
    pub name: Option<Sym>,
    /// Version requirement.
    pub version: VersionReq,
    /// Constrained variant values.
    pub variants: BTreeMap<Sym, VariantValue>,
    /// Required operating system, if any.
    pub os: Option<Os>,
    /// Required target microarchitecture, if any.
    pub target: Option<Target>,
    /// Dependency constraints.
    pub deps: Vec<AbstractDep>,
}

impl AbstractSpec {
    /// A named spec with no other constraints.
    pub fn named(name: &str) -> AbstractSpec {
        AbstractSpec {
            name: Some(Sym::intern(name)),
            ..Default::default()
        }
    }

    /// An anonymous constraint (no package name).
    pub fn anonymous() -> AbstractSpec {
        AbstractSpec::default()
    }

    /// Builder: constrain the version.
    pub fn with_version(mut self, req: VersionReq) -> Self {
        self.version = req;
        self
    }

    /// Builder: constrain a variant value.
    pub fn with_variant(mut self, name: &str, value: VariantValue) -> Self {
        self.variants.insert(Sym::intern(name), value);
        self
    }

    /// Builder: require a boolean variant on (`+name`).
    pub fn with_on(self, name: &str) -> Self {
        self.with_variant(name, VariantValue::Bool(true))
    }

    /// Builder: require a boolean variant off (`~name`).
    pub fn with_off(self, name: &str) -> Self {
        self.with_variant(name, VariantValue::Bool(false))
    }

    /// Builder: add a link-run dependency constraint (`^dep`).
    pub fn with_dep(mut self, dep: AbstractSpec) -> Self {
        self.deps.push(AbstractDep {
            spec: dep,
            types: DepTypes::LINK_RUN,
        });
        self
    }

    /// True if no attribute is constrained at all.
    pub fn is_empty(&self) -> bool {
        self.name.is_none()
            && matches!(self.version, VersionReq::Any)
            && self.variants.is_empty()
            && self.os.is_none()
            && self.target.is_none()
            && self.deps.is_empty()
    }

    /// Merge `other`'s constraints into `self`. Errors when the two
    /// obviously conflict (different names, disjoint versions, different
    /// fixed variant values).
    pub fn constrain(&mut self, other: &AbstractSpec) -> Result<()> {
        match (self.name, other.name) {
            (Some(a), Some(b)) if a != b => {
                return Err(SpecError::Conflict(format!("name {a} vs {b}")));
            }
            (None, Some(b)) => self.name = Some(b),
            _ => {}
        }
        self.version = self
            .version
            .intersect(&other.version)
            .ok_or_else(|| {
                SpecError::Conflict(format!("versions {} vs {}", self.version, other.version))
            })?;
        for (&k, v) in &other.variants {
            match self.variants.get(&k) {
                Some(existing) if existing != v => {
                    return Err(SpecError::Conflict(format!(
                        "variant {k}: {existing} vs {v}"
                    )));
                }
                _ => {
                    self.variants.insert(k, v.clone());
                }
            }
        }
        match (self.os, other.os) {
            (Some(a), Some(b)) if a != b => {
                return Err(SpecError::Conflict(format!("os {a} vs {b}")));
            }
            (None, Some(b)) => self.os = Some(b),
            _ => {}
        }
        match (self.target, other.target) {
            (Some(a), Some(b)) if a != b => {
                return Err(SpecError::Conflict(format!("target {a} vs {b}")));
            }
            (None, Some(b)) => self.target = Some(b),
            _ => {}
        }
        // Dependencies with the same name merge; others append.
        for dep in &other.deps {
            if let Some(name) = dep.spec.name {
                if let Some(mine) = self
                    .deps
                    .iter_mut()
                    .find(|d| d.spec.name == Some(name))
                {
                    mine.spec.constrain(&dep.spec)?;
                    mine.types = mine.types.union(dep.types);
                    continue;
                }
            }
            self.deps.push(dep.clone());
        }
        Ok(())
    }
}

impl fmt::Display for AbstractSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(n) = self.name {
            write!(f, "{n}")?;
        }
        write!(f, "{}", self.version)?;
        for (name, value) in &self.variants {
            let frag = display_variant(*name, value);
            if frag.starts_with('+') || frag.starts_with('~') {
                write!(f, "{frag}")?;
            } else {
                write!(f, " {frag}")?;
            }
        }
        if let Some(os) = self.os {
            write!(f, " os={os}")?;
        }
        if let Some(t) = self.target {
            write!(f, " target={t}")?;
        }
        // Build deps print before link-run deps so that `%x` fragments
        // re-attach to the correct node when the output is re-parsed
        // (`a ^b %c` attaches c to b, but `a %c ^b` attaches c to a).
        for dep in self.deps.iter().filter(|d| !d.types.is_link_run()) {
            write!(f, " %{}", dep.spec)?;
        }
        for dep in self.deps.iter().filter(|d| d.types.is_link_run()) {
            write!(f, " ^{}", dep.spec)?;
        }
        Ok(())
    }
}

/// Index of a node within a [`ConcreteSpec`]'s arena.
pub type NodeId = usize;

/// One fully resolved package configuration inside a concrete spec DAG.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConcreteNode {
    /// Package name.
    pub name: Sym,
    /// Resolved version.
    pub version: Version,
    /// All declared variants with chosen values.
    pub variants: BTreeMap<Sym, VariantValue>,
    /// Target operating system.
    pub os: Os,
    /// Target microarchitecture.
    pub target: Target,
    /// Outgoing dependency edges (node id + edge types).
    pub deps: Vec<(NodeId, DepTypes)>,
    /// Content hash of the sub-DAG rooted at this node.
    pub hash: SpecHash,
    /// Build provenance: the original spec this node's binary was built as,
    /// present only when the node has been spliced (paper §4.1, Fig 2's
    /// dashed edges).
    pub build_spec: Option<Arc<ConcreteSpec>>,
}

impl ConcreteNode {
    /// Was this node produced by splicing (i.e. relinked rather than built)?
    pub fn is_spliced(&self) -> bool {
        self.build_spec.is_some()
    }
}

/// A fully concretized spec: an arena-backed dependency DAG with a root.
///
/// Invariants maintained by [`ConcreteSpecBuilder`]:
/// * acyclic;
/// * at most one node per package name (Spack's single-configuration rule);
/// * node hashes are computed bottom-up and cover name, version, variants,
///   os, target, dependency hashes with edge types, and (when present) the
///   build-spec hash — so splices hash differently from native builds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConcreteSpec {
    nodes: Vec<ConcreteNode>,
    root: NodeId,
}

impl ConcreteSpec {
    /// Assemble a spec from raw parts without validation or hashing.
    /// Crate-internal: callers must follow with pruning/`rehash`.
    pub(crate) fn from_parts(nodes: Vec<ConcreteNode>, root: NodeId) -> ConcreteSpec {
        ConcreteSpec { nodes, root }
    }

    /// The root node.
    pub fn root(&self) -> &ConcreteNode {
        &self.nodes[self.root]
    }

    /// Root node id.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// All nodes in the arena (order is deterministic but unspecified).
    pub fn nodes(&self) -> &[ConcreteNode] {
        &self.nodes
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> &ConcreteNode {
        &self.nodes[id]
    }

    /// Find the unique node with the given package name.
    pub fn find(&self, name: Sym) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// The DAG hash of the whole spec (= the root node's hash).
    pub fn dag_hash(&self) -> SpecHash {
        self.root().hash
    }

    /// Ids reachable from `start` along edges passing `filter`, in BFS
    /// order, including `start`.
    pub fn reachable(&self, start: NodeId, filter: impl Fn(DepTypes) -> bool) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut q = VecDeque::new();
        seen[start] = true;
        q.push_back(start);
        while let Some(id) = q.pop_front() {
            order.push(id);
            for &(dep, types) in &self.nodes[id].deps {
                if filter(types) && !seen[dep] {
                    seen[dep] = true;
                    q.push_back(dep);
                }
            }
        }
        order
    }

    /// All node ids reachable from the root (the whole DAG, by
    /// construction).
    pub fn all_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).collect()
    }

    /// The link-run closure of the root: the runtime footprint.
    pub fn runtime_nodes(&self) -> Vec<NodeId> {
        self.reachable(self.root, |t| t.is_link_run())
    }

    /// Extract the sub-DAG rooted at `id` as a standalone spec.
    pub fn subdag(&self, id: NodeId) -> ConcreteSpec {
        let ids = self.reachable(id, |_| true);
        let mut remap: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for (new, &old) in ids.iter().enumerate() {
            remap.insert(old, new);
        }
        let nodes = ids
            .iter()
            .map(|&old| {
                let mut n = self.nodes[old].clone();
                n.deps = n
                    .deps
                    .iter()
                    .map(|&(d, t)| (remap[&d], t))
                    .collect();
                n
            })
            .collect();
        ConcreteSpec {
            nodes,
            root: remap[&id],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the DAG has no nodes (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Single-line rendering: root attributes then `^dep` fragments in
    /// name order (matching §3.3's example output style).
    pub fn format_flat(&self) -> String {
        let mut out = self.format_node(self.root);
        let mut dep_ids: Vec<NodeId> = self
            .all_ids()
            .into_iter()
            .filter(|&id| id != self.root)
            .collect();
        dep_ids.sort_by_key(|&id| self.nodes[id].name);
        for id in dep_ids {
            out.push_str(" ^");
            out.push_str(&self.format_node(id));
        }
        out
    }

    /// Render one node's attributes.
    pub fn format_node(&self, id: NodeId) -> String {
        let n = &self.nodes[id];
        let mut out = format!("{}@{}", n.name, n.version);
        for (name, value) in &n.variants {
            let frag = display_variant(*name, value);
            if frag.starts_with('+') || frag.starts_with('~') {
                out.push_str(&frag);
            } else {
                out.push(' ');
                out.push_str(&frag);
            }
        }
        out.push_str(&format!(" arch={}-{}", n.os, n.target));
        if n.build_spec.is_some() {
            out.push_str(" (spliced)");
        }
        out
    }

    /// Spack-style indented tree rendering (children under parents,
    /// sorted by name, each with its short hash and a `(spliced)`
    /// marker where provenance exists).
    pub fn format_tree(&self) -> String {
        fn walk(spec: &ConcreteSpec, id: NodeId, depth: usize, out: &mut String) {
            out.push_str(&" ".repeat(depth * 4));
            if depth > 0 {
                out.push('^');
            }
            out.push_str(&spec.format_node(id));
            out.push_str(&format!("  /{}", spec.node(id).hash.short()));
            out.push('\n');
            let mut deps: Vec<NodeId> = spec.node(id).deps.iter().map(|&(d, _)| d).collect();
            deps.sort_by_key(|&d| spec.node(d).name);
            for d in deps {
                walk(spec, d, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, self.root, 0, &mut out);
        out
    }

    /// Recompute all node hashes bottom-up. Used internally after
    /// structural transformations; public for tests.
    pub fn rehash(&mut self) -> Result<()> {
        let order = topo_order(&self.nodes, self.root)?;
        for id in order {
            let h = hash_node(&self.nodes, id);
            self.nodes[id].hash = h;
        }
        Ok(())
    }
}

impl PartialEq for ConcreteSpec {
    fn eq(&self, other: &Self) -> bool {
        self.dag_hash() == other.dag_hash()
    }
}

impl Eq for ConcreteSpec {}

impl fmt::Display for ConcreteSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.format_flat())
    }
}

/// Compute a reverse-topological order (dependencies before dependents)
/// over the nodes reachable from `root`.
fn topo_order(nodes: &[ConcreteNode], root: NodeId) -> Result<Vec<NodeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; nodes.len()];
    let mut order = Vec::with_capacity(nodes.len());
    // Iterative DFS with an explicit stack to avoid recursion limits on
    // deep DAGs.
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    marks[root] = Mark::Grey;
    while let Some(&(id, next)) = stack.last() {
        if next < nodes[id].deps.len() {
            stack.last_mut().expect("stack non-empty").1 += 1;
            let (dep, _) = nodes[id].deps[next];
            match marks[dep] {
                Mark::White => {
                    marks[dep] = Mark::Grey;
                    stack.push((dep, 0));
                }
                Mark::Grey => {
                    return Err(SpecError::Cycle(format!(
                        "{} -> {}",
                        nodes[id].name, nodes[dep].name
                    )));
                }
                Mark::Black => {}
            }
        } else {
            marks[id] = Mark::Black;
            order.push(id);
            stack.pop();
        }
    }
    Ok(order)
}

/// Hash one node given that all of its dependencies already carry correct
/// hashes.
fn hash_node(nodes: &[ConcreteNode], id: NodeId) -> SpecHash {
    let n = &nodes[id];
    let mut h = Sha256::new();
    h.update(b"node\0");
    h.update(n.name.as_str().as_bytes());
    h.update(b"\0version\0");
    h.update(n.version.to_string().as_bytes());
    h.update(b"\0os\0");
    h.update(n.os.name().as_str().as_bytes());
    h.update(b"\0target\0");
    h.update(n.target.name().as_str().as_bytes());
    for (name, value) in &n.variants {
        h.update(b"\0variant\0");
        h.update(name.as_str().as_bytes());
        h.update(b"\0");
        h.update(value.canonical().as_bytes());
    }
    // Sort dep digests for order independence.
    let mut dep_digests: Vec<(Sym, SpecHash, u8)> = n
        .deps
        .iter()
        .map(|&(d, t)| {
            (
                nodes[d].name,
                nodes[d].hash,
                (t.is_build() as u8) | ((t.is_link_run() as u8) << 1),
            )
        })
        .collect();
    dep_digests.sort();
    for (name, hash, types) in dep_digests {
        h.update(b"\0dep\0");
        h.update(name.as_str().as_bytes());
        h.update(&hash.0);
        h.update(&[types]);
    }
    if let Some(bs) = &n.build_spec {
        h.update(b"\0build_spec\0");
        h.update(&bs.dag_hash().0);
    }
    h.finish()
}

/// Incremental builder for [`ConcreteSpec`] DAGs.
///
/// ```
/// use spackle_spec::spec::{ConcreteSpecBuilder, DepTypes};
/// use spackle_spec::version::Version;
///
/// let mut b = ConcreteSpecBuilder::new();
/// let zlib = b.node("zlib", Version::parse("1.3").unwrap());
/// let hdf5 = b.node("hdf5", Version::parse("1.14.5").unwrap());
/// b.edge(hdf5, zlib, DepTypes::LINK_RUN);
/// let spec = b.build(hdf5).unwrap();
/// assert_eq!(spec.root().name.as_str(), "hdf5");
/// ```
#[derive(Default)]
pub struct ConcreteSpecBuilder {
    nodes: Vec<ConcreteNode>,
}

impl ConcreteSpecBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with default OS/target (`linux`/`x86_64`) and no
    /// variants; returns its id.
    pub fn node(&mut self, name: &str, version: Version) -> NodeId {
        self.node_full(
            name,
            version,
            BTreeMap::new(),
            Os::new("linux"),
            Target::new("x86_64"),
        )
    }

    /// Add a fully attributed node; returns its id.
    pub fn node_full(
        &mut self,
        name: &str,
        version: Version,
        variants: BTreeMap<Sym, VariantValue>,
        os: Os,
        target: Target,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(ConcreteNode {
            name: Sym::intern(name),
            version,
            variants,
            os,
            target,
            deps: Vec::new(),
            hash: SpecHash::ZERO,
            build_spec: None,
        });
        id
    }

    /// Set a variant value on a node.
    pub fn set_variant(&mut self, id: NodeId, name: &str, value: VariantValue) {
        self.nodes[id].variants.insert(Sym::intern(name), value);
    }

    /// Graft an existing concrete spec into this builder, preserving node
    /// attributes, edges, and build-spec provenance. Nodes are
    /// deduplicated against already-grafted nodes by content hash.
    /// Returns the builder id of `spec`'s root.
    pub fn import(&mut self, spec: &ConcreteSpec) -> NodeId {
        let mut remap: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        // Dependencies first so edges can be added as we go.
        let order: Vec<NodeId> = {
            let mut o = Vec::with_capacity(spec.len());
            let mut state = vec![0u8; spec.len()];
            let mut stack = vec![(spec.root_id(), 0usize)];
            state[spec.root_id()] = 1;
            while let Some(&(id, next)) = stack.last() {
                if next < spec.node(id).deps.len() {
                    stack.last_mut().expect("non-empty").1 += 1;
                    let (d, _) = spec.node(id).deps[next];
                    if state[d] == 0 {
                        state[d] = 1;
                        stack.push((d, 0));
                    }
                } else {
                    state[id] = 2;
                    o.push(id);
                    stack.pop();
                }
            }
            o
        };
        for old in order {
            let n = spec.node(old);
            // Dedup: reuse an existing node with the same content hash.
            if let Some(existing) = self
                .nodes
                .iter()
                .position(|m| m.hash == n.hash && m.hash != SpecHash::ZERO)
            {
                remap.insert(old, existing);
                continue;
            }
            let id = self.nodes.len();
            let mut copy = n.clone();
            copy.deps = n.deps.iter().map(|&(d, t)| (remap[&d], t)).collect();
            self.nodes.push(copy);
            remap.insert(old, id);
        }
        remap[&spec.root_id()]
    }

    /// Add a dependency edge. Duplicate edges merge their types.
    pub fn edge(&mut self, from: NodeId, to: NodeId, types: DepTypes) {
        if let Some(e) = self.nodes[from].deps.iter_mut().find(|(d, _)| *d == to) {
            e.1 = e.1.union(types);
        } else {
            self.nodes[from].deps.push((to, types));
        }
    }

    /// Finalize: verify the invariants, drop unreachable nodes, compute
    /// hashes, and return the spec rooted at `root`.
    pub fn build(self, root: NodeId) -> Result<ConcreteSpec> {
        let mut spec = ConcreteSpec {
            nodes: self.nodes,
            root,
        };
        // Restrict to reachable nodes for a canonical arena.
        let reach = spec.reachable(root, |_| true);
        if reach.len() != spec.nodes.len() {
            spec = spec.subdag(root);
        }
        // Uniqueness of names in the link-run closure (Spack invariant:
        // one configuration of each package at runtime). Build-only deps
        // may, in principle, diverge, but we enforce global uniqueness for
        // simplicity — matching how Spack DAGs behave in practice.
        let mut seen: BTreeSet<Sym> = BTreeSet::new();
        for n in &spec.nodes {
            if !seen.insert(n.name) {
                return Err(SpecError::Conflict(format!(
                    "duplicate package {} in concrete spec",
                    n.name
                )));
            }
        }
        spec.rehash()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        Version::parse(s).unwrap()
    }

    fn diamond() -> ConcreteSpec {
        // app -> (libA, libB) -> zlib
        let mut b = ConcreteSpecBuilder::new();
        let zlib = b.node("zlib", v("1.3"));
        let la = b.node("liba", v("2.0"));
        let lb = b.node("libb", v("3.1"));
        let app = b.node("app", v("1.0"));
        b.edge(la, zlib, DepTypes::LINK_RUN);
        b.edge(lb, zlib, DepTypes::LINK_RUN);
        b.edge(app, la, DepTypes::LINK_RUN);
        b.edge(app, lb, DepTypes::LINK_RUN);
        b.build(app).unwrap()
    }

    #[test]
    fn build_diamond() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.root().name.as_str(), "app");
        assert_eq!(d.runtime_nodes().len(), 4);
    }

    #[test]
    fn hashes_deterministic_and_structural() {
        let a = diamond();
        let b = diamond();
        assert_eq!(a.dag_hash(), b.dag_hash());
        assert_eq!(a, b);
    }

    #[test]
    fn hash_changes_with_version() {
        let mk = |zv: &str| {
            let mut b = ConcreteSpecBuilder::new();
            let z = b.node("zlib", v(zv));
            let a = b.node("app", v("1.0"));
            b.edge(a, z, DepTypes::LINK_RUN);
            b.build(a).unwrap()
        };
        assert_ne!(mk("1.2").dag_hash(), mk("1.3").dag_hash());
    }

    #[test]
    fn hash_independent_of_edge_insertion_order() {
        let mk = |flip: bool| {
            let mut b = ConcreteSpecBuilder::new();
            let x = b.node("x", v("1"));
            let y = b.node("y", v("1"));
            let a = b.node("app", v("1.0"));
            if flip {
                b.edge(a, y, DepTypes::LINK_RUN);
                b.edge(a, x, DepTypes::LINK_RUN);
            } else {
                b.edge(a, x, DepTypes::LINK_RUN);
                b.edge(a, y, DepTypes::LINK_RUN);
            }
            b.build(a).unwrap()
        };
        assert_eq!(mk(false).dag_hash(), mk(true).dag_hash());
    }

    #[test]
    fn hash_distinguishes_dep_types() {
        let mk = |t: DepTypes| {
            let mut b = ConcreteSpecBuilder::new();
            let z = b.node("zlib", v("1.3"));
            let a = b.node("app", v("1.0"));
            b.edge(a, z, t);
            b.build(a).unwrap()
        };
        assert_ne!(
            mk(DepTypes::BUILD).dag_hash(),
            mk(DepTypes::LINK_RUN).dag_hash()
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut b = ConcreteSpecBuilder::new();
        let x = b.node("x", v("1"));
        let y = b.node("y", v("1"));
        b.edge(x, y, DepTypes::LINK_RUN);
        b.edge(y, x, DepTypes::LINK_RUN);
        assert!(matches!(b.build(x), Err(SpecError::Cycle(_))));
    }

    #[test]
    fn duplicate_package_rejected() {
        let mut b = ConcreteSpecBuilder::new();
        let z1 = b.node("zlib", v("1.2"));
        let z2 = b.node("zlib", v("1.3"));
        let a = b.node("app", v("1.0"));
        b.edge(a, z1, DepTypes::LINK_RUN);
        b.edge(a, z2, DepTypes::BUILD);
        assert!(matches!(b.build(a), Err(SpecError::Conflict(_))));
    }

    #[test]
    fn unreachable_nodes_dropped() {
        let mut b = ConcreteSpecBuilder::new();
        let _orphan = b.node("orphan", v("1"));
        let a = b.node("app", v("1.0"));
        let spec = b.build(a).unwrap();
        assert_eq!(spec.len(), 1);
        assert!(spec.find(Sym::intern("orphan")).is_none());
    }

    #[test]
    fn subdag_extraction() {
        let d = diamond();
        let la = d.find(Sym::intern("liba")).unwrap();
        let sub = d.subdag(la);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.root().name.as_str(), "liba");
        // Sub-DAG node hash must equal the node's hash in the parent DAG.
        assert_eq!(sub.dag_hash(), d.node(la).hash);
    }

    #[test]
    fn runtime_excludes_build_only() {
        let mut b = ConcreteSpecBuilder::new();
        let cmake = b.node("cmake", v("3.27"));
        let zlib = b.node("zlib", v("1.3"));
        let a = b.node("app", v("1.0"));
        b.edge(a, cmake, DepTypes::BUILD);
        b.edge(a, zlib, DepTypes::LINK_RUN);
        let spec = b.build(a).unwrap();
        let rt = spec.runtime_nodes();
        assert_eq!(rt.len(), 2);
        assert!(rt
            .iter()
            .all(|&id| spec.node(id).name.as_str() != "cmake"));
    }

    #[test]
    fn format_flat_sorted() {
        let d = diamond();
        let s = d.format_flat();
        assert!(s.starts_with("app@1.0"));
        let la = s.find("^liba").unwrap();
        let lb = s.find("^libb").unwrap();
        let z = s.find("^zlib").unwrap();
        assert!(la < lb && lb < z);
    }

    #[test]
    fn abstract_constrain_merges() {
        let mut a = AbstractSpec::named("hdf5").with_version(VersionReq::parse("1.14").unwrap());
        let b = AbstractSpec::named("hdf5")
            .with_on("mpi")
            .with_dep(AbstractSpec::named("zlib"));
        a.constrain(&b).unwrap();
        assert_eq!(a.variants.len(), 1);
        assert_eq!(a.deps.len(), 1);
    }

    #[test]
    fn abstract_constrain_conflicts() {
        let mut a = AbstractSpec::named("hdf5").with_on("mpi");
        let b = AbstractSpec::named("hdf5").with_off("mpi");
        assert!(a.constrain(&b).is_err());

        let mut c = AbstractSpec::named("hdf5");
        let d = AbstractSpec::named("zlib");
        assert!(c.constrain(&d).is_err());
    }

    #[test]
    fn abstract_constrain_merges_same_name_deps() {
        let mut a = AbstractSpec::named("app").with_dep(
            AbstractSpec::named("zlib").with_version(VersionReq::parse("1.2:").unwrap()),
        );
        let b = AbstractSpec::named("app").with_dep(
            AbstractSpec::named("zlib").with_version(VersionReq::parse(":1.4").unwrap()),
        );
        a.constrain(&b).unwrap();
        assert_eq!(a.deps.len(), 1);
        let req = &a.deps[0].spec.version;
        assert!(req.satisfies(&v("1.3")));
        assert!(!req.satisfies(&v("1.5")));
    }

    #[test]
    fn serde_roundtrip() {
        let d = diamond();
        let json = serde_json::to_string(&d).unwrap();
        let back: ConcreteSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        assert_eq!(back.len(), 4);
    }
}
