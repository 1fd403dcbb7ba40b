//! Shared-state concurrency stress: many threads solving through one
//! `Arc<GroundCache>` and one `Arc<dyn CacheSource>` must produce
//! bit-identical results to single-threaded cold solves, with hit/miss
//! counters that add up exactly — including while another thread is
//! clearing the cache under them (the `spackled` `invalidate` op).

use spackle_buildcache::{BuildCache, CacheSource};
use spackle_core::{Concretizer, GroundCache, Solution};
use spackle_repo::{PackageBuilder, Repository};
use spackle_spec::{parse_spec, AbstractSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 4;

fn stress_repo() -> Repository {
    Repository::from_packages([
        PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2")
            .build()
            .unwrap(),
        PackageBuilder::new("bzip2").version("1.0.8").build().unwrap(),
        PackageBuilder::new("openssl")
            .version("3.0")
            .depends_on("zlib")
            .build()
            .unwrap(),
        PackageBuilder::new("curl")
            .version("8.5")
            .depends_on("openssl")
            .depends_on("zlib")
            .build()
            .unwrap(),
        PackageBuilder::new("cmake")
            .version("3.27")
            .depends_on("curl")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("curl")
            .depends_on("bzip2")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn goals() -> Vec<AbstractSpec> {
    ["app", "cmake", "curl", "openssl", "zlib@1.2", "bzip2"]
        .iter()
        .map(|g| parse_spec(g).unwrap())
        .collect()
}

/// Seed a buildcache with a couple of concretized sub-DAGs so the
/// reuse path (and its fingerprint in the ground key) is exercised.
fn seeded_cache(repo: &Repository) -> Arc<dyn CacheSource> {
    let mut bc = BuildCache::new();
    for g in ["zlib@1.3", "openssl"] {
        let sol = Concretizer::new(repo)
            .concretize(&parse_spec(g).unwrap())
            .unwrap();
        bc.add_spec(sol.spec());
    }
    Arc::new(bc)
}

fn fingerprint(sol: &Solution) -> (Vec<String>, Vec<String>, Vec<String>) {
    (
        sol.specs.iter().map(|s| s.dag_hash().to_string()).collect(),
        sol.reused.iter().map(|s| s.as_str().to_string()).collect(),
        sol.built.iter().map(|s| s.as_str().to_string()).collect(),
    )
}

/// N threads hammer the same warm cache with the same goal set: every
/// solve must be bit-identical to the single-threaded cold baseline,
/// and the atomic hit/miss counters must account for every lookup.
#[test]
fn warm_solves_bit_identical_across_threads() {
    let repo = Arc::new(stress_repo());
    let cache = seeded_cache(&repo);
    let goals = goals();

    // Cold baseline: no ground cache at all.
    let baseline: Vec<_> = goals
        .iter()
        .map(|g| {
            let sol = Concretizer::shared(Arc::clone(&repo))
                .with_reusable(&cache)
                .concretize(g)
                .unwrap();
            fingerprint(&sol)
        })
        .collect();

    let gc = GroundCache::shared();
    let conc = Concretizer::shared(Arc::clone(&repo))
        .with_reusable(&cache)
        .with_ground_cache(gc.clone());

    // Warm the cache once (every goal misses exactly once)...
    for g in &goals {
        assert!(!conc.concretize(g).unwrap().stats.ground_cache_hit);
    }

    // ...then fan out. The concretizer itself is Clone + Send + Sync.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let conc = conc.clone();
            let goals = &goals;
            let baseline = &baseline;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, g) in goals.iter().enumerate() {
                        let sol = conc.concretize(g).unwrap();
                        assert!(
                            sol.stats.ground_cache_hit,
                            "thread {t} round {round}: warm solve missed"
                        );
                        assert_eq!(
                            fingerprint(&sol),
                            baseline[i],
                            "thread {t} round {round} goal {i}: diverged from cold solve"
                        );
                    }
                }
            });
        }
    });

    let stats = gc.stats();
    let expected_hits = (THREADS * ROUNDS * goals.len()) as u64;
    assert_eq!(stats.misses, goals.len() as u64, "one miss per goal");
    assert_eq!(stats.hits, expected_hits, "every threaded solve hit");
    assert_eq!(stats.entries, goals.len());
    assert!(
        stats.hit_rate() >= 0.9,
        "warm hit rate {:.3} below 0.9",
        stats.hit_rate()
    );
}

/// Solver threads race an invalidator that repeatedly clears the cache
/// — what `spackled`'s `invalidate` op does. Solves that finish after a
/// clear may re-insert their programs, which stay valid because keys are
/// computed from content. Nothing may panic, every result must stay
/// bit-identical to the cold baseline, and the counters must balance.
#[test]
fn invalidation_interleaved_with_solves() {
    let repo = Arc::new(stress_repo());
    let cache = seeded_cache(&repo);
    let goals = goals();

    let baseline: Vec<_> = goals
        .iter()
        .map(|g| {
            let sol = Concretizer::shared(Arc::clone(&repo))
                .with_reusable(&cache)
                .concretize(g)
                .unwrap();
            fingerprint(&sol)
        })
        .collect();

    let gc = GroundCache::shared();
    let solves = AtomicU64::new(0);
    let hits = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let repo = Arc::clone(&repo);
            let cache = Arc::clone(&cache);
            let gc = gc.clone();
            let goals = &goals;
            let baseline = &baseline;
            let solves = &solves;
            let hits = &hits;
            s.spawn(move || {
                for round in 0..ROUNDS * 2 {
                    for (i, g) in goals.iter().enumerate() {
                        let sol = Concretizer::shared(Arc::clone(&repo))
                            .with_reusable(&cache)
                            .with_ground_cache(gc.clone())
                            .concretize(g)
                            .unwrap();
                        solves.fetch_add(1, Ordering::Relaxed);
                        if sol.stats.ground_cache_hit {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        assert_eq!(
                            fingerprint(&sol),
                            baseline[i],
                            "thread {t} round {round} goal {i}: diverged under invalidation"
                        );
                    }
                }
            });
        }

        // The invalidator: clear the cache while solves are in flight.
        let gc = gc.clone();
        s.spawn(move || {
            for _ in 0..6 {
                std::thread::sleep(std::time::Duration::from_millis(3));
                gc.clear();
            }
        });
    });

    let total = solves.load(Ordering::Relaxed);
    let hit = hits.load(Ordering::Relaxed);
    assert_eq!(total, (THREADS * ROUNDS * 2 * goals.len()) as u64);

    let stats = gc.stats();
    assert_eq!(
        stats.hits + stats.misses,
        total,
        "every solve is exactly one counted lookup"
    );
    assert_eq!(stats.hits, hit, "per-solve flags agree with the cache");

    // A fresh solve after the last clear still matches.
    let sol = Concretizer::shared(Arc::clone(&repo))
        .with_reusable(&cache)
        .with_ground_cache(gc.clone())
        .concretize(&goals[0])
        .unwrap();
    assert_eq!(fingerprint(&sol), baseline[0]);

    // And the warm path is restored: the same goal now hits.
    let again = Concretizer::shared(repo)
        .with_reusable(&cache)
        .with_ground_cache(gc.clone())
        .concretize(&goals[0])
        .unwrap();
    assert!(again.stats.ground_cache_hit, "cache re-warms after the dust settles");
}
