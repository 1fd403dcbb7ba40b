//! Answer memoization semantics: a cache hit must be exactly that — same
//! key, same answer, bit-identical solution — and every input that can
//! change the answer must change the key.

use proptest::prelude::*;
use proptest::TestRng;
use spackle_asp::SolverConfig;
use spackle_buildcache::BuildCache;
use spackle_core::{Concretizer, ConcretizerConfig, CoreError, Goal, GroundCache};
use spackle_repo::{PackageBuilder, Repository};
use spackle_spec::{parse_spec, Target};
use std::time::Duration;

fn tiny_repo() -> Repository {
    Repository::from_packages([
        PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("zlib")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

#[test]
fn identical_resolve_hits_and_matches() {
    let repo = tiny_repo();
    let cache = GroundCache::shared();
    let conc = Concretizer::new(&repo).with_ground_cache(cache.clone());
    let goal = parse_spec("app").unwrap();

    let first = conc.concretize(&goal).unwrap();
    assert!(!first.stats.ground_cache_hit, "first solve must miss");
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.len(), 1);

    let second = conc.concretize(&goal).unwrap();
    assert!(second.stats.ground_cache_hit, "re-solve must hit");
    assert_eq!((cache.hits(), cache.misses()), (1, 1));

    // A hit skips encode + parse + ground + search entirely...
    assert_eq!(second.stats.encode_time, Duration::ZERO);
    assert_eq!(second.stats.parse_time, Duration::ZERO);
    assert_eq!(second.stats.solver.ground_time, Duration::ZERO);
    assert_eq!(second.stats.solve_time, Duration::ZERO);
    assert_eq!(second.stats.solver.propagations, 0);
    // ...and still returns the identical concretization.
    assert_eq!(first.spec().dag_hash(), second.spec().dag_hash());
    assert_eq!(first.reused, second.reused);
    assert_eq!(first.built, second.built);
    assert_eq!(first.stats.reusable_specs, second.stats.reusable_specs);
    assert_eq!(first.stats.program_bytes, second.stats.program_bytes);
}

#[test]
fn repository_change_misses_only_when_closure_segments_move() {
    let mut repo = tiny_repo();
    let cache = GroundCache::shared();
    let goal = parse_spec("app").unwrap();
    Concretizer::new(&repo)
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();

    // Adding a package outside `app`'s closure leaves every segment the
    // key is composed from untouched: the warm entry keeps hitting.
    repo.add(PackageBuilder::new("bzip2").version("1.0").build().unwrap())
        .unwrap();
    let sol = Concretizer::new(&repo)
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();
    assert!(sol.stats.ground_cache_hit, "unrelated addition must hit");
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.len(), 1);

    // Upserting a closure member moves its segment fingerprint, so the
    // composed key changes and the solve re-prepares.
    repo.upsert(
        PackageBuilder::new("zlib")
            .version("1.4")
            .version("1.3")
            .version("1.2")
            .build()
            .unwrap(),
    );
    let sol = Concretizer::new(&repo)
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();
    assert!(!sol.stats.ground_cache_hit, "closure change must miss");
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.len(), 2);
}

#[test]
fn goal_change_misses() {
    let repo = tiny_repo();
    let cache = GroundCache::shared();
    let conc = Concretizer::new(&repo).with_ground_cache(cache.clone());
    conc.concretize(&parse_spec("app").unwrap()).unwrap();

    let sol = conc.concretize(&parse_spec("app@1.0").unwrap()).unwrap();
    assert!(!sol.stats.ground_cache_hit, "distinct goal must miss");

    let multi = conc
        .concretize_goal(&Goal {
            roots: vec![parse_spec("app").unwrap(), parse_spec("zlib").unwrap()],
            forbidden: Vec::new(),
        })
        .unwrap();
    assert!(!multi.stats.ground_cache_hit, "multi-root goal must miss");
    assert_eq!(cache.misses(), 3);
}

#[test]
fn config_change_misses() {
    let repo = tiny_repo();
    let cache = GroundCache::shared();
    let goal = parse_spec("app").unwrap();
    Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack_disabled())
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();

    let other_target = ConcretizerConfig {
        target: Target::new("icelake"),
        ..ConcretizerConfig::splice_spack_disabled()
    };
    let sol = Concretizer::new(&repo)
        .with_config(other_target)
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();
    assert!(!sol.stats.ground_cache_hit, "target change must miss");

    let sol = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::old_spack())
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();
    assert!(!sol.stats.ground_cache_hit, "encoding change must miss");
    assert_eq!(cache.misses(), 3);
    assert_eq!(cache.hits(), 0);
}

#[test]
fn search_config_change_misses() {
    let repo = tiny_repo();
    let cache = GroundCache::shared();
    let goal = parse_spec("app").unwrap();
    let modern = Concretizer::new(&repo)
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();

    // Co-optimal models can differ across search configurations, so a
    // search knob is part of the key: the seed engine solves for itself.
    let seed = Concretizer::new(&repo)
        .with_config(ConcretizerConfig {
            solver: SolverConfig::seed_engine(),
            ..Default::default()
        })
        .with_ground_cache(cache.clone());
    let first = seed.concretize(&goal).unwrap();
    assert!(
        !first.stats.ground_cache_hit,
        "search config change must miss"
    );
    assert_eq!(first.cost, modern.cost, "both engines reach one optimum");

    let second = seed.concretize(&goal).unwrap();
    assert!(second.stats.ground_cache_hit, "same search config must hit");
    assert_eq!(second.spec().dag_hash(), first.spec().dag_hash());
    assert_eq!((cache.misses(), cache.hits(), cache.len()), (2, 1, 2));
}

#[test]
fn unsatisfiable_answer_is_replayed() {
    // app's two deps pin zlib to disjoint versions.
    let repo = Repository::from_packages([
        PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2.11")
            .build()
            .unwrap(),
        PackageBuilder::new("liba")
            .version("1.0")
            .depends_on("zlib@1.2")
            .build()
            .unwrap(),
        PackageBuilder::new("libb")
            .version("1.0")
            .depends_on("zlib@1.3")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("2.0")
            .depends_on("liba")
            .depends_on("libb")
            .build()
            .unwrap(),
    ])
    .unwrap();
    let cache = GroundCache::shared();
    let conc = Concretizer::new(&repo).with_ground_cache(cache.clone());
    let goal = parse_spec("app").unwrap();
    for attempt in ["miss", "hit"] {
        match conc.concretize(&goal) {
            Err(CoreError::Unsatisfiable) => {}
            other => panic!("{attempt}: expected Unsatisfiable, got {other:?}"),
        }
    }
    // The second solve replayed the stored UNSAT answer.
    assert_eq!((cache.misses(), cache.hits(), cache.len()), (1, 1, 1));
}

#[test]
fn reusable_set_change_misses() {
    let repo = tiny_repo();
    let goal = parse_spec("app").unwrap();
    let base = Concretizer::new(&repo).concretize(&goal).unwrap();

    let mut bc = BuildCache::new();
    bc.add_spec(base.spec());

    let cache = GroundCache::shared();
    let first = Concretizer::new(&repo)
        .with_reusable(bc.clone())
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();
    assert!(!first.stats.ground_cache_hit);

    // Same goal, same repo — but the buildcache gained an entry, so the
    // reuse facts (and therefore the ground program) can differ.
    let zlib = Concretizer::new(&repo)
        .concretize(&parse_spec("zlib@1.2").unwrap())
        .unwrap();
    bc.add_spec(zlib.spec());
    let second = Concretizer::new(&repo)
        .with_reusable(bc.clone())
        .with_ground_cache(cache.clone())
        .concretize(&goal)
        .unwrap();
    assert!(
        !second.stats.ground_cache_hit,
        "cache-content change must miss"
    );
    assert_eq!(cache.misses(), 2);
}

/// Random small repositories: a cached re-solve must reproduce the
/// uncached concretization exactly (DAG hashes, reuse/build decisions,
/// solver cost vector) — the determinism claim the fast path rests on.
fn check_cached_equals_uncached(seed: u64) {
    let mut rng = TestRng::seed_from_u64(seed);
    let nver = 1 + (rng.below(3) as usize);
    let mut zlib = PackageBuilder::new("zlib");
    for ver in ["1.1", "1.2", "1.3"].iter().take(nver) {
        zlib = zlib.version(ver);
    }
    let mut app = PackageBuilder::new("app").version("1.0").version("2.0");
    if rng.below(2) == 1 {
        app = app.depends_on("zlib");
    }
    let repo = Repository::from_packages([zlib.build().unwrap(), app.build().unwrap()]).unwrap();

    let goal_text = match rng.below(3) {
        0 => "app",
        1 => "app@1.0",
        _ => "app@2.0",
    };
    let goal = parse_spec(goal_text).unwrap();

    let mut bc = BuildCache::new();
    if rng.below(2) == 1 {
        let seeded = Concretizer::new(&repo)
            .concretize(&parse_spec(&format!("zlib@1.{}", 1 + rng.below(2))).unwrap());
        if let Ok(s) = seeded {
            bc.add_spec(s.spec());
        }
    }

    let uncached = Concretizer::new(&repo)
        .with_reusable(bc.clone())
        .concretize(&goal)
        .unwrap();

    let gc = GroundCache::shared();
    let conc = Concretizer::new(&repo)
        .with_reusable(bc.clone())
        .with_ground_cache(gc.clone());
    let miss = conc.concretize(&goal).unwrap();
    let hit = conc.concretize(&goal).unwrap();
    assert!(!miss.stats.ground_cache_hit && hit.stats.ground_cache_hit);

    for sol in [&miss, &hit] {
        assert_eq!(
            uncached.spec().dag_hash(),
            sol.spec().dag_hash(),
            "seed {seed}: dag hash diverged (goal {goal_text})"
        );
        assert_eq!(uncached.reused, sol.reused, "seed {seed}: reuse diverged");
        assert_eq!(uncached.built, sol.built, "seed {seed}: build diverged");
        assert_eq!(
            uncached.spliced.len(),
            sol.spliced.len(),
            "seed {seed}: splice diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn cached_resolve_is_identical_to_uncached(seed in 0u64..u64::MAX) {
        check_cached_equals_uncached(seed);
    }
}
