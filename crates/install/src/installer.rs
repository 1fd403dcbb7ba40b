//! The install planner and executor.
//!
//! For a concrete (possibly spliced) spec, the planner decides per node:
//!
//! * **Reuse** — a binary for this exact hash is in the buildcache;
//!   relocate it into the local layout.
//! * **Rewire** — the node is spliced (carries a build spec); take the
//!   binary built as the build spec and rewire its dependency paths
//!   (paper §4.2).
//! * **Build** — no binary available; "compile" (synthesize an artifact).
//!
//! The executor installs into an in-memory tree (hermetic for tests and
//! benches) and can verify that every installed artifact's embedded
//! paths point at installed prefixes — the property relocation and
//! rewiring exist to maintain.

use crate::layout::InstallLayout;
use crate::relocate::{relocate_artifact, RelocationStats};
use crate::rewire::rewire_mapping;
use rustc_hash::FxHashMap;
use spackle_buildcache::{Artifact, ArtifactError, CacheSource};
use spackle_spec::{ConcreteSpec, NodeId, SpecHash};
use std::collections::BTreeMap;
use std::fmt;

/// Installation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// Rewire requested on a node without a build spec.
    NotSpliced(String),
    /// A spliced node's build-spec binary is not in any cache.
    MissingBuildSpecBinary {
        /// The spliced node's package.
        node: String,
        /// Short hash of the missing build spec.
        build_hash: String,
    },
    /// Dependency pairing for rewiring was ambiguous.
    AmbiguousRewire {
        /// The spliced node's package.
        node: String,
        /// Build-spec dependencies with no same-name counterpart.
        unmatched_old: Vec<String>,
        /// Runtime dependencies with no same-name counterpart.
        unmatched_new: Vec<String>,
    },
    /// The artifact could not be parsed or patched.
    Artifact(ArtifactError),
    /// A cache source failed (or served a corrupt entry) while the
    /// executor was pulling a binary the plan counted on.
    CacheFailure {
        /// The node whose binary was being fetched.
        node: String,
        /// Short hash of the entry being fetched.
        hash: String,
        /// What the backend reported.
        detail: String,
    },
}

impl From<ArtifactError> for InstallError {
    fn from(e: ArtifactError) -> InstallError {
        InstallError::Artifact(e)
    }
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::NotSpliced(n) => write!(f, "node {n} is not spliced"),
            InstallError::MissingBuildSpecBinary { node, build_hash } => write!(
                f,
                "spliced node {node} needs binary for build spec /{build_hash} but no cache has it"
            ),
            InstallError::AmbiguousRewire {
                node,
                unmatched_old,
                unmatched_new,
            } => write!(
                f,
                "ambiguous rewire for {node}: old deps {unmatched_old:?} vs new deps {unmatched_new:?}"
            ),
            InstallError::Artifact(e) => write!(f, "artifact error: {e}"),
            InstallError::CacheFailure { node, hash, detail } => {
                write!(f, "cache failure installing {node}/{hash}: {detail}")
            }
        }
    }
}

impl std::error::Error for InstallError {}

/// Per-node install decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Binary with this hash is cached; relocate and install.
    Reuse(SpecHash),
    /// Spliced: rewire the build spec's binary.
    Rewire {
        /// Hash of the build spec whose binary gets rewired.
        build_hash: SpecHash,
    },
    /// Build from source.
    Build,
}

/// A topologically ordered install plan.
#[derive(Clone, Debug)]
pub struct InstallPlan {
    /// `(node, action)` pairs, dependencies before dependents.
    pub steps: Vec<(NodeId, Action)>,
}

impl InstallPlan {
    /// Decide actions for every node of `spec` given any binary source
    /// (a [`spackle_buildcache::BuildCache`], a
    /// [`spackle_buildcache::ChainedCache`], or a custom backend).
    ///
    /// Planning degrades conservatively: a source error or a corrupt
    /// entry (one that doesn't hash to what was asked for) demotes the
    /// node to [`Action::Build`] — a flaky mirror costs a rebuild, never
    /// a wrong or failed plan.
    pub fn plan(spec: &ConcreteSpec, cache: &dyn CacheSource) -> InstallPlan {
        let order = topo_ids(spec);
        let steps = order
            .into_iter()
            .map(|id| {
                let node = spec.node(id);
                let cached = matches!(
                    cache.get(node.hash),
                    Ok(Some(e)) if e.spec.dag_hash() == node.hash
                );
                let action = if let Some(bs) = &node.build_spec {
                    Action::Rewire {
                        build_hash: bs.dag_hash(),
                    }
                } else if cached {
                    Action::Reuse(node.hash)
                } else {
                    Action::Build
                };
                (id, action)
            })
            .collect();
        InstallPlan { steps }
    }

    /// Number of nodes that must be compiled.
    pub fn builds(&self) -> usize {
        self.steps
            .iter()
            .filter(|(_, a)| matches!(a, Action::Build))
            .count()
    }

    /// Number of nodes satisfied by cached binaries (reuse + rewire).
    pub fn binary_installs(&self) -> usize {
        self.steps.len() - self.builds()
    }
}

/// Fetch `hash` from `cache`, turning backend failures, vanished
/// entries, and corrupt (wrong-hash) entries into structured
/// [`InstallError::CacheFailure`]s.
fn fetch_checked<'c>(
    cache: &'c dyn CacheSource,
    node: &str,
    hash: SpecHash,
) -> Result<&'c spackle_buildcache::CacheEntry, InstallError> {
    let fail = |detail: String| InstallError::CacheFailure {
        node: node.to_string(),
        hash: hash.short(),
        detail,
    };
    match cache.get(hash) {
        Ok(Some(e)) if e.spec.dag_hash() == hash => Ok(e),
        Ok(Some(e)) => Err(fail(format!(
            "corrupt entry: hashes to {}",
            e.spec.dag_hash().short()
        ))),
        Ok(None) => Err(fail("entry vanished after planning".to_string())),
        Err(e) => Err(fail(e.to_string())),
    }
}

/// Dependencies-first order over all nodes.
fn topo_ids(spec: &ConcreteSpec) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(spec.len());
    let mut state = vec![0u8; spec.len()];
    let mut stack: Vec<(NodeId, usize)> = vec![(spec.root_id(), 0)];
    state[spec.root_id()] = 1;
    while let Some(&(id, next)) = stack.last() {
        let deps = &spec.node(id).deps;
        if next < deps.len() {
            stack.last_mut().expect("non-empty").1 += 1;
            let (d, _) = deps[next];
            if state[d] == 0 {
                state[d] = 1;
                stack.push((d, 0));
            }
        } else {
            state[id] = 2;
            order.push(id);
            stack.pop();
        }
    }
    order
}

/// Outcome counters for one install.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstallReport {
    /// Nodes compiled from source.
    pub built: usize,
    /// Nodes installed from cached binaries (same hash).
    pub reused: usize,
    /// Spliced nodes installed by rewiring.
    pub rewired: usize,
    /// Relocation statistics accumulated over all binary installs.
    pub relocation: RelocationStats,
}

/// The installer: owns a layout and an in-memory installed tree.
pub struct Installer {
    layout: InstallLayout,
    /// prefix -> artifact bytes
    tree: BTreeMap<String, Vec<u8>>,
    /// installed spec hashes -> prefix
    installed: FxHashMap<SpecHash, String>,
}

impl Installer {
    /// Installer writing under `layout`.
    pub fn new(layout: InstallLayout) -> Installer {
        Installer {
            layout,
            tree: BTreeMap::new(),
            installed: FxHashMap::default(),
        }
    }

    /// The layout in use.
    pub fn layout(&self) -> &InstallLayout {
        &self.layout
    }

    /// The artifact bytes installed at `prefix`, if any.
    pub fn artifact_at(&self, prefix: &str) -> Option<&[u8]> {
        self.tree.get(prefix).map(|v| v.as_slice())
    }

    /// Number of installed prefixes.
    pub fn installed_count(&self) -> usize {
        self.tree.len()
    }

    /// Iterate installed `(prefix, artifact bytes)` pairs in prefix
    /// order (e.g. to persist the tree to a real filesystem).
    pub fn installed_prefixes(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.tree.iter().map(|(p, b)| (p.as_str(), b.as_slice()))
    }

    /// Synthesize the artifact a source build of `spec.node(id)` would
    /// produce in this layout: own prefix plus sorted link-run dep
    /// prefixes, with symbols derived from name and version (the ABI
    /// surface stand-in).
    pub fn build_artifact(&self, spec: &ConcreteSpec, id: NodeId) -> Vec<u8> {
        let node = spec.node(id);
        let own = self.layout.prefix(spec, id);
        let deps = self.layout.dep_prefixes(spec, id);
        let symbols = vec![
            format!("_ZN{}{}3apiEv", node.name.as_str().len(), node.name),
            format!("_ZN{}{}7versionEv_{}", node.name.as_str().len(), node.name, node.version),
        ];
        Artifact::build(&own, &deps, symbols).to_bytes().to_vec()
    }

    /// Execute `plan` for `spec`, pulling binaries from any `cache`
    /// source (plan and install may use different sources, e.g. plan
    /// against a chained view and install from the same chain).
    pub fn install(
        &mut self,
        spec: &ConcreteSpec,
        cache: &dyn CacheSource,
        plan: &InstallPlan,
    ) -> Result<InstallReport, InstallError> {
        let mut report = InstallReport::default();
        for (id, action) in &plan.steps {
            let id = *id;
            let node = spec.node(id);
            if self.installed.contains_key(&node.hash) {
                continue; // already present (shared dependency)
            }
            let prefix = self.layout.prefix(spec, id);
            let bytes = match action {
                Action::Build => {
                    report.built += 1;
                    self.build_artifact(spec, id)
                }
                Action::Reuse(hash) => {
                    // The plan saw this entry, but the source may have
                    // failed (or started serving garbage) since; both
                    // surface structurally instead of panicking.
                    let entry = fetch_checked(cache, node.name.as_str(), *hash)?;
                    let cached = entry
                        .artifact()?;
                    // Map the artifact's recorded prefixes onto this
                    // layout: own prefix plus dependency prefixes in the
                    // cached spec's sorted-name order.
                    let mut mapping: FxHashMap<String, String> = FxHashMap::default();
                    mapping.insert(cached.own_prefix().to_string(), prefix.clone());
                    let local_deps = self.layout.dep_prefixes(spec, id);
                    for (old, new) in cached.dep_prefixes().iter().zip(&local_deps) {
                        mapping.insert(old.to_string(), new.clone());
                    }
                    report.reused += 1;
                    let (bytes, stats) = relocate_artifact(&entry.artifact, &mapping)?;
                    accumulate(&mut report.relocation, stats);
                    bytes
                }
                Action::Rewire { build_hash } => {
                    let entry = match cache.get(*build_hash) {
                        Ok(Some(e)) if e.spec.dag_hash() == *build_hash => e,
                        Ok(Some(e)) => {
                            return Err(InstallError::CacheFailure {
                                node: node.name.as_str().to_string(),
                                hash: build_hash.short(),
                                detail: format!(
                                    "corrupt entry: hashes to {}",
                                    e.spec.dag_hash().short()
                                ),
                            });
                        }
                        Ok(None) => {
                            return Err(InstallError::MissingBuildSpecBinary {
                                node: node.name.as_str().to_string(),
                                build_hash: build_hash.short(),
                            });
                        }
                        Err(e) => {
                            return Err(InstallError::CacheFailure {
                                node: node.name.as_str().to_string(),
                                hash: build_hash.short(),
                                detail: e.to_string(),
                            });
                        }
                    };
                    let mapping = rewire_mapping(spec, id, &self.layout)?;
                    // The cached binary may live at a different prefix
                    // than this layout's build-spec prefix; relocate from
                    // its recorded own prefix first.
                    let cached = entry
                        .artifact()?;
                    let mut full_mapping = mapping;
                    let build_spec = node.build_spec.as_ref().expect("action is Rewire");
                    let expected_old_own =
                        self.layout.prefix(build_spec, build_spec.root_id());
                    if cached.own_prefix() != expected_old_own {
                        // Two hops: recorded -> expected-old handled by
                        // composing into one map entry recorded -> new.
                        let new_own = full_mapping
                            .get(&expected_old_own)
                            .cloned()
                            .unwrap_or_else(|| prefix.clone());
                        full_mapping.insert(cached.own_prefix().to_string(), new_own);
                        // Same composition for dependency prefixes, paired
                        // in sorted order against the build spec's deps.
                        let old_dep_prefixes: Vec<String> = self
                            .layout
                            .dep_prefixes(build_spec, build_spec.root_id());
                        for (recorded, expected) in
                            cached.dep_prefixes().iter().zip(&old_dep_prefixes)
                        {
                            if let Some(new) = full_mapping.get(expected).cloned() {
                                full_mapping.insert(recorded.to_string(), new);
                            }
                        }
                    }
                    report.rewired += 1;
                    let (bytes, stats) = relocate_artifact(&entry.artifact, &full_mapping)?;
                    accumulate(&mut report.relocation, stats);
                    bytes
                }
            };
            self.tree.insert(prefix.clone(), bytes);
            self.installed.insert(node.hash, prefix);
        }
        Ok(report)
    }

    /// Verify the closure of `spec`: every installed artifact's own
    /// prefix matches where it is installed, and every dependency path
    /// points at an installed prefix. Returns the list of violations.
    pub fn verify(&self, spec: &ConcreteSpec) -> Vec<String> {
        let mut problems = Vec::new();
        for id in spec.all_ids() {
            let prefix = self.layout.prefix(spec, id);
            let Some(bytes) = self.tree.get(&prefix) else {
                problems.push(format!("{prefix}: not installed"));
                continue;
            };
            let art = match Artifact::from_bytes(bytes) {
                Ok(a) => a,
                Err(e) => {
                    problems.push(format!("{prefix}: {e}"));
                    continue;
                }
            };
            if art.own_prefix() != prefix {
                problems.push(format!(
                    "{prefix}: artifact thinks it lives at {}",
                    art.own_prefix()
                ));
            }
            // Rewired binaries keep their original slot order (paths are
            // patched in place), so compare as sets.
            let mut expected: Vec<String> = self.layout.dep_prefixes(spec, id);
            let mut got: Vec<&str> = art.dep_prefixes();
            expected.sort();
            got.sort();
            if got.len() != expected.len()
                || got.iter().zip(&expected).any(|(g, e)| *g != e.as_str())
            {
                problems.push(format!(
                    "{prefix}: dependency paths {got:?} != expected {expected:?}"
                ));
            }
            for dep in got {
                if !self.tree.contains_key(dep) {
                    problems.push(format!("{prefix}: dangling dependency path {dep}"));
                }
            }
        }
        problems
    }
}

fn accumulate(total: &mut RelocationStats, s: RelocationStats) {
    total.in_place += s.in_place;
    total.lengthened += s.lengthened;
    total.untouched += s.untouched;
}

#[cfg(test)]
mod tests {
    use super::*;
    use spackle_buildcache::BuildCache;
    use spackle_spec::spec::{ConcreteSpecBuilder, DepTypes};
    use spackle_spec::{Sym, Version};

    fn v(s: &str) -> Version {
        Version::parse(s).unwrap()
    }

    fn diamond() -> ConcreteSpec {
        let mut b = ConcreteSpecBuilder::new();
        let z = b.node("zlib", v("1.3"));
        let la = b.node("liba", v("2.0"));
        let lb = b.node("libb", v("3.1"));
        let app = b.node("app", v("1.0"));
        b.edge(la, z, DepTypes::LINK_RUN);
        b.edge(lb, z, DepTypes::LINK_RUN);
        b.edge(app, la, DepTypes::LINK_RUN);
        b.edge(app, lb, DepTypes::LINK_RUN);
        b.build(app).unwrap()
    }

    #[test]
    fn plan_all_builds_on_empty_cache() {
        let plan = InstallPlan::plan(&diamond(), &BuildCache::new());
        assert_eq!(plan.builds(), 4);
        assert_eq!(plan.binary_installs(), 0);
        // Topological: zlib before liba/libb before app.
        let spec = diamond();
        let pos =
            |name: &str| plan.steps.iter().position(|(id, _)| spec.node(*id).name.as_str() == name);
        assert!(pos("zlib") < pos("liba"));
        assert!(pos("liba") < pos("app"));
        assert!(pos("libb") < pos("app"));
    }

    #[test]
    fn build_then_verify() {
        let spec = diamond();
        let mut inst = Installer::new(InstallLayout::new("/opt/spackle"));
        let plan = InstallPlan::plan(&spec, &BuildCache::new());
        let report = inst.install(&spec, &BuildCache::new(), &plan).unwrap();
        assert_eq!(report.built, 4);
        assert!(inst.verify(&spec).is_empty(), "{:?}", inst.verify(&spec));
    }

    #[test]
    fn reuse_from_cache_relocates() {
        // Build on a "build server" layout, cache, install locally.
        let spec = diamond();
        let builder = Installer::new(InstallLayout::new("/buildfarm/store"));
        let mut cache = BuildCache::new();
        cache.add_spec_with(&spec, |sub| {
            // Synthesize what the build server produced for each sub-DAG.
            builder.build_artifact(sub, sub.root_id())
        });

        let mut local = Installer::new(InstallLayout::new("/home/user/.spackle"));
        let plan = InstallPlan::plan(&spec, &cache);
        assert_eq!(plan.builds(), 0);
        let report = local.install(&spec, &cache, &plan).unwrap();
        assert_eq!(report.reused, 4);
        assert!(report.relocation.in_place + report.relocation.lengthened > 0);
        assert!(local.verify(&spec).is_empty(), "{:?}", local.verify(&spec));
    }

    #[test]
    fn rewire_spliced_spec_end_to_end() {
        // Build app ^zlib@1.2 and zlib@1.3 separately; splice; install
        // must rewire instead of rebuilding.
        let mut b = ConcreteSpecBuilder::new();
        let z12 = b.node("zlib", v("1.2"));
        let app = b.node("app", v("1.0"));
        b.edge(app, z12, DepTypes::LINK_RUN);
        let orig = b.build(app).unwrap();

        let mut zb = ConcreteSpecBuilder::new();
        let z13 = zb.node("zlib", v("1.3"));
        let z13 = zb.build(z13).unwrap();

        let farm = Installer::new(InstallLayout::new("/opt/spackle"));
        let mut cache = BuildCache::new();
        cache.add_spec_with(&orig, |sub| farm.build_artifact(sub, sub.root_id()));
        cache.add_spec_with(&z13, |sub| farm.build_artifact(sub, sub.root_id()));

        let spliced = orig.splice(&z13, true).unwrap();
        let plan = InstallPlan::plan(&spliced, &cache);
        assert_eq!(plan.builds(), 0, "no rebuilds for an ABI-compatible splice");
        assert!(plan
            .steps
            .iter()
            .any(|(_, a)| matches!(a, Action::Rewire { .. })));

        let mut inst = Installer::new(InstallLayout::new("/opt/spackle"));
        let report = inst.install(&spliced, &cache, &plan).unwrap();
        assert_eq!(report.rewired, 1);
        assert_eq!(report.reused, 1); // zlib@1.3 itself
        assert!(inst.verify(&spliced).is_empty(), "{:?}", inst.verify(&spliced));

        // The app artifact now points at zlib@1.3's prefix.
        let app_prefix = inst.layout().prefix(&spliced, spliced.root_id());
        let art = Artifact::from_bytes(inst.artifact_at(&app_prefix).unwrap()).unwrap();
        let z13_prefix = inst
            .layout()
            .prefix(&spliced, spliced.find(Sym::intern("zlib")).unwrap());
        assert_eq!(art.dep_prefixes(), vec![z13_prefix.as_str()]);
    }

    #[test]
    fn rewire_missing_build_binary_errors() {
        let mut b = ConcreteSpecBuilder::new();
        let z = b.node("zlib", v("1.2"));
        let app = b.node("app", v("1.0"));
        b.edge(app, z, DepTypes::LINK_RUN);
        let orig = b.build(app).unwrap();
        let mut zb = ConcreteSpecBuilder::new();
        let z13 = zb.node("zlib", v("1.3"));
        let z13 = zb.build(z13).unwrap();
        let spliced = orig.splice(&z13, true).unwrap();

        // Cache only has zlib@1.3, not the original app build.
        let farm = Installer::new(InstallLayout::new("/opt/spackle"));
        let mut cache = BuildCache::new();
        cache.add_spec_with(&z13, |sub| farm.build_artifact(sub, sub.root_id()));

        let plan = InstallPlan::plan(&spliced, &cache);
        let mut inst = Installer::new(InstallLayout::new("/opt/spackle"));
        assert!(matches!(
            inst.install(&spliced, &cache, &plan),
            Err(InstallError::MissingBuildSpecBinary { .. })
        ));
    }

    #[test]
    fn shared_hash_installed_once() {
        let spec = diamond();
        let mut inst = Installer::new(InstallLayout::new("/opt"));
        let plan = InstallPlan::plan(&spec, &BuildCache::new());
        inst.install(&spec, &BuildCache::new(), &plan).unwrap();
        let n = inst.installed_count();
        // Install again: no duplicates.
        inst.install(&spec, &BuildCache::new(), &plan).unwrap();
        assert_eq!(inst.installed_count(), n);
    }
}
