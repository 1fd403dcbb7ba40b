//! Buildcache generators (paper §6.1.3): the controlled *local* cache
//! (the RADIUSS stack as concretized, ~200 specs) and the large *public*
//! cache (many thousands of varied configurations).

use crate::stack::RADIUSS_ROOTS;
use crate::synth::{synth_spec, SynthConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spackle_buildcache::{Artifact, BuildCache};
use spackle_core::{Concretizer, ConcretizerConfig};
use spackle_install::InstallLayout;
use spackle_repo::Repository;
use spackle_spec::{parse_spec, ConcreteSpec, Sym};

/// The "build farm" layout cached binaries are built under; installs
/// elsewhere exercise relocation.
pub const FARM_ROOT: &str = "/opt/spackle-farm/store";

/// Synthesize the artifact a build of `spec`'s root would produce under
/// the farm layout: own prefix, sorted link-run dependency prefixes, and
/// name/version-derived symbols.
///
/// MPI implementations export *interface* symbols with type-layout
/// markers modeling §2.1: MPICH-ABI implementations (mpich, mpiabi and
/// its replicas) lay `MPI_Comm` out as a 32-bit integer, Open MPI as a
/// struct pointer — so ABI discovery (`buildcache::suggest_splices`)
/// finds exactly the pairs the mock's `can_splice` declares.
pub fn farm_artifact(spec: &ConcreteSpec) -> Vec<u8> {
    let layout = InstallLayout::new(FARM_ROOT);
    let id = spec.root_id();
    let node = spec.root();
    let own = layout.prefix(spec, id);
    let deps = layout.dep_prefixes(spec, id);
    let name = node.name.as_str();
    // MPI implementations export only the standard interface (their
    // public ABI); other packages export name-mangled symbols of their
    // own.
    let symbols = if name == "mpich" || name.starts_with("mpiabi") {
        let mut s = vec![
            "MPI_Init".to_string(),
            "MPI_Send".to_string(),
            "MPI_Recv".to_string(),
            "MPI_Comm=int32".to_string(),
        ];
        if name.starts_with("mpiabi") {
            s.push("MPIX_Fast_path".to_string()); // MVAPICH-style extension
        }
        s
    } else if name == "openmpi" {
        vec![
            "MPI_Init".to_string(),
            "MPI_Send".to_string(),
            "MPI_Recv".to_string(),
            "MPI_Comm=ptr".to_string(),
        ]
    } else {
        vec![
            format!("_ZN{}{}3apiEv", name.len(), name),
            format!("_ZN{}{}7versionEv_{}", name.len(), name, node.version),
        ]
    };
    Artifact::build(&own, &deps, symbols).to_bytes().to_vec()
}

/// Concretize every RADIUSS root from source (no reuse) and cache the
/// results with artifacts: the paper's *local buildcache* (~200 specs).
/// MPI-dependent roots are cached in both provider configurations
/// (mpich and openmpi), mirroring a CI cache holding multiple stack
/// configurations.
///
/// Concretizations run in parallel (one solver per thread).
pub fn local_cache(repo: &Repository) -> BuildCache {
    let mpi = Sym::intern("mpi");
    let mut goals: Vec<String> = RADIUSS_ROOTS.iter().map(|r| r.to_string()).collect();
    for r in RADIUSS_ROOTS {
        if repo.possible_closure(&[Sym::intern(r)]).contains(&mpi) {
            goals.push(format!("{r} ^openmpi"));
        }
    }
    let goal_refs: Vec<&str> = goals.iter().map(|s| s.as_str()).collect();
    let specs = concretize_roots_parallel(repo, &goal_refs);
    let mut cache = BuildCache::new();
    for spec in &specs {
        cache.add_spec_with(spec, farm_artifact);
    }
    cache
}

/// Concretize the given root names in parallel and return their specs.
pub fn concretize_roots_parallel(repo: &Repository, roots: &[&str]) -> Vec<ConcreteSpec> {
    let nthreads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(roots.len().max(1));
    let mut out: Vec<Option<ConcreteSpec>> = vec![None; roots.len()];
    let chunks: Vec<Vec<usize>> = (0..nthreads)
        .map(|t| (0..roots.len()).filter(|i| i % nthreads == t).collect())
        .collect();
    crossbeam::thread::scope(|s| {
        let mut handles = Vec::new();
        for chunk in &chunks {
            handles.push(s.spawn(move |_| {
                let mut results = Vec::new();
                for &i in chunk {
                    let c = Concretizer::new(repo)
                        .with_config(ConcretizerConfig::splice_spack_disabled());
                    let spec = parse_spec(roots[i]).expect("root names are valid specs");
                    let sol = c
                        .concretize(&spec)
                        .unwrap_or_else(|e| panic!("concretizing {}: {e}", roots[i]));
                    results.push((i, sol.specs.into_iter().next().expect("one root")));
                }
                results
            }));
        }
        for h in handles {
            for (i, spec) in h.join().expect("worker thread") {
                out[i] = Some(spec);
            }
        }
    })
    .expect("crossbeam scope");
    out.into_iter().map(|o| o.expect("all roots resolved")).collect()
}

/// Generate the *public buildcache*: `n_dags` synthesized configurations
/// of RADIUSS roots (and their sub-DAGs, each a reusable entry). The
/// resulting entry count is typically several times `n_dags`. Every DAG
/// is drawn from one stream seeded by `seed`, so a seed gives the same
/// cache on every host.
pub fn public_cache(repo: &Repository, n_dags: usize, seed: u64) -> BuildCache {
    let cfg = SynthConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = BuildCache::new();
    for _ in 0..n_dags {
        let root = RADIUSS_ROOTS[rng.gen_range(0..RADIUSS_ROOTS.len())];
        if let Some(spec) = synth_spec(repo, Sym::intern(root), &cfg, &mut rng) {
            // Index-only entries: the public-cache experiments measure
            // the concretizer, not the installer, and empty artifacts
            // keep the cache cheap to build at bench setup.
            cache.add_spec(&spec);
        }
    }
    cache
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::radiuss_repo;

    #[test]
    fn public_cache_scales_and_is_reproducible() {
        let repo = radiuss_repo();
        let small = public_cache(&repo, 20, 1);
        assert!(small.len() >= 20, "cache should contain sub-DAG entries");
        let again = public_cache(&repo, 20, 1);
        assert_eq!(small.len(), again.len());
        let bigger = public_cache(&repo, 60, 1);
        assert!(bigger.len() > small.len());
    }

    #[test]
    fn farm_artifacts_parse() {
        let repo = radiuss_repo();
        let mut rng = StdRng::seed_from_u64(3);
        let spec = synth_spec(
            &repo,
            Sym::intern("hypre"),
            &SynthConfig::default(),
            &mut rng,
        )
        .unwrap();
        let bytes = farm_artifact(&spec);
        let art = Artifact::from_bytes(&bytes).unwrap();
        assert!(art.own_prefix().starts_with(FARM_ROOT));
        assert!(!art.dep_prefixes().is_empty());
    }
}

#[cfg(test)]
mod abi_discovery_tests {
    use super::*;
    use crate::mpi::with_mpiabi;
    use crate::stack::radiuss_repo;
    use spackle_buildcache::suggest_splices;
    use spackle_core::Concretizer;
    use spackle_spec::parse_spec;

    #[test]
    fn discovery_recovers_the_declared_splice() {
        // Build hypre^mpich and mpiabi, then let ABI discovery find the
        // compatibility the mock declares via can_splice — the paper's
        // future-work loop, closed.
        let repo = with_mpiabi(&radiuss_repo());
        let mut cache = BuildCache::new();
        for goal in ["hypre ^mpich", "mpiabi"] {
            let sol = Concretizer::new(&repo)
                .concretize(&parse_spec(goal).unwrap())
                .unwrap();
            cache.add_spec_with(sol.spec(), farm_artifact);
        }
        let suggestions = suggest_splices(&cache).unwrap();
        assert!(
            suggestions.iter().any(|s| {
                s.replacement.as_str() == "mpiabi" && s.target.as_str() == "mpich"
            }),
            "expected mpiabi->mpich, got {suggestions:?}"
        );
        // The reverse direction must NOT be suggested (mpich lacks the
        // MPIX extension mpiabi exports).
        assert!(!suggestions
            .iter()
            .any(|s| s.replacement.as_str() == "mpich" && s.target.as_str() == "mpiabi"));
    }
}
