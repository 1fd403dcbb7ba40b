//! Segment-key composition and straggler unreachability.
//!
//! The ground cache's partial-invalidation contract rests on two
//! properties checked here at the public-API level:
//!
//! * **composition** — the memo key is composed from exactly the
//!   content the cached answer depends on: one fingerprint per
//!   closure package, one per reusable-spec source partition, the goal,
//!   the encode-shaping config axes and the search knobs. Nothing else
//!   may leak in, or retained entries would stop hitting after
//!   unrelated deltas.
//! * **the key is the only staleness rule** — a solve that raced a
//!   delta (started on the pre-delta snapshot, finished after
//!   `apply_delta`) may insert its answer, but no solve of the current
//!   world can reach it, because that solve composes its key from
//!   current fingerprints; the next delta that moves its package sweeps
//!   it. Nothing depends on delta order. Checked directly for a
//!   straggler, for deltas applied in reverse, and under a concurrent
//!   solver/mutator stress loop.

use spackle_buildcache::BuildCache;
use spackle_core::{repo_delta, Concretizer, ConcretizerConfig, Goal, GroundCache, Solution};
use spackle_repo::{PackageBuilder, Repository};
use spackle_spec::parse_spec;
use std::sync::Arc;

fn base_repo() -> Repository {
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
        // Outside app's closure on purpose.
        PackageBuilder::new("lua").version("5.4").build().unwrap(),
    ])
    .unwrap()
}

fn key_of(repo: &Repository, goal: &Goal) -> (u64, Arc<spackle_core::SegmentSet>) {
    Concretizer::new(repo).segment_key(goal).unwrap()
}

/// `n` successive worlds: world `i` declares zlib versions 2.i..2.0
/// (most preferred first), so each step adds one zlib version and
/// changes `app`'s answer.
fn zlib_worlds(n: usize) -> Vec<Arc<Repository>> {
    (0..n)
        .map(|i| {
            let mut zlib = PackageBuilder::new("zlib");
            for v in (0..=i).rev() {
                zlib = zlib.version(&format!("2.{v}"));
            }
            zlib = zlib.version("1.3").version("1.2");
            Arc::new(
                Repository::from_packages([
                    zlib.build().unwrap(),
                    PackageBuilder::new("app")
                        .version("1.0")
                        .depends_on("zlib")
                        .build()
                        .unwrap(),
                    PackageBuilder::new("lua").version("5.4").build().unwrap(),
                ])
                .unwrap(),
            )
        })
        .collect()
}

/// What a solve answered: its DAG hash and cost vector.
fn signature(sol: &Solution) -> String {
    format!("{:?}|{:?}", sol.spec().dag_hash(), sol.cost)
}

#[test]
fn key_is_composed_from_closure_package_fingerprints_only() {
    let mut repo = base_repo();
    let goal = Goal::single(parse_spec("app").unwrap());
    let (key, set) = key_of(&repo, &goal);

    // The set names exactly the closure packages, sorted, and no
    // sources (no reusable cache configured).
    let pkgs: Vec<&str> = set.packages.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(pkgs, ["app", "zlib"], "closure segments, name-sorted");
    assert!(set.sources.is_empty());

    // Mutating a non-closure package moves nothing the key depends on.
    repo.upsert(
        PackageBuilder::new("lua")
            .version("5.5")
            .version("5.4")
            .build()
            .unwrap(),
    );
    let (key2, set2) = key_of(&repo, &goal);
    assert_eq!(key, key2, "closure content unchanged: same key");
    assert_eq!(set, set2);

    // Mutating a closure package moves exactly its fingerprint — and
    // therefore the composed key.
    let zlib_fp = set.packages.iter().find(|(n, _)| n.as_str() == "zlib").unwrap().1;
    let app_fp = set.packages.iter().find(|(n, _)| n.as_str() == "app").unwrap().1;
    repo.upsert(
        PackageBuilder::new("zlib")
            .version("1.4")
            .version("1.3")
            .version("1.2")
            .build()
            .unwrap(),
    );
    let (key3, set3) = key_of(&repo, &goal);
    assert_ne!(key, key3, "closure content change must move the key");
    let zlib_fp3 = set3.packages.iter().find(|(n, _)| n.as_str() == "zlib").unwrap().1;
    let app_fp3 = set3.packages.iter().find(|(n, _)| n.as_str() == "app").unwrap().1;
    assert_ne!(zlib_fp, zlib_fp3, "mutated segment's fingerprint moves");
    assert_eq!(app_fp, app_fp3, "untouched segment's fingerprint stays");
}

#[test]
fn key_covers_sources_goal_and_config_axes() {
    let repo = base_repo();
    let goal = Goal::single(parse_spec("app").unwrap());
    let (bare_key, _) = key_of(&repo, &goal);

    // A reusable-spec source adds a source partition to the set; its
    // content is part of the key.
    let seeded = Concretizer::new(&repo)
        .concretize(&parse_spec("zlib@1.2").unwrap())
        .unwrap();
    let mut bc = BuildCache::new();
    bc.add_spec(seeded.spec());
    let with_bc = Concretizer::new(&repo).with_reusable(bc.clone());
    let (bc_key, bc_set) = with_bc.segment_key(&goal).unwrap();
    assert_ne!(bare_key, bc_key, "attaching a source must move the key");
    assert_eq!(bc_set.sources.len(), 1);

    // Growing the source's content moves its partition fingerprint.
    let src_fp = bc_set.sources[0].1;
    let zlib13 = Concretizer::new(&repo)
        .concretize(&parse_spec("zlib@1.3").unwrap())
        .unwrap();
    bc.add_spec(zlib13.spec());
    let (bc_key2, bc_set2) = Concretizer::new(&repo)
        .with_reusable(bc.clone())
        .segment_key(&goal)
        .unwrap();
    assert_ne!(bc_key, bc_key2, "source content change must move the key");
    assert_ne!(src_fp, bc_set2.sources[0].1);

    // The goal and the encode-shaping config axes are key inputs too.
    let (other_goal_key, _) = key_of(&repo, &Goal::single(parse_spec("app@1.0").unwrap()));
    assert_ne!(bare_key, other_goal_key, "distinct goal, distinct key");
    let no_splice = Concretizer::new(&repo).with_config(ConcretizerConfig::splice_spack_disabled());
    let (no_splice_key, _) = no_splice.segment_key(&goal).unwrap();
    assert_ne!(bare_key, no_splice_key, "config axis change, distinct key");
}

#[test]
fn straggler_entry_is_unreachable_and_swept_by_the_next_delta() {
    let worlds = zlib_worlds(3);
    let goal = parse_spec("app").unwrap();
    let cold: Vec<String> = worlds
        .iter()
        .map(|w| signature(&Concretizer::shared(w.clone()).concretize(&goal).unwrap()))
        .collect();
    let gc = GroundCache::shared();
    let on = |w: usize| Concretizer::shared(worlds[w].clone()).with_ground_cache(gc.clone());

    // Warm on w1, then apply the delta to w2: the entry is dropped.
    on(0).concretize(&goal).unwrap();
    let (w1_key, _) = on(0).segment_key(&Goal::single(goal.clone())).unwrap();
    let warm = gc.lookup(w1_key).expect("warm entry");
    let report = gc.apply_delta(&repo_delta(&worlds[0], &worlds[1]));
    assert_eq!((report.invalidated, report.retained), (1, 0));
    assert_eq!(gc.len(), 0);
    // The cache keeps nothing of a dropped entry: this clone holds the
    // last reference to its answer.
    let answer = warm.answer.as_ref().expect("app is satisfiable");
    assert_eq!(Arc::strong_count(answer), 1);

    // A w2 solve misses, then hits its own entry.
    let miss = on(1).concretize(&goal).unwrap();
    let hit = on(1).concretize(&goal).unwrap();
    assert!(!miss.stats.ground_cache_hit && hit.stats.ground_cache_hit);
    for sol in [&miss, &hit] {
        assert_eq!(signature(sol), cold[1]);
    }

    // A straggler still holding w1 inserts its answer, and a second one
    // hits it: both answer what a cold w1 solve answers.
    let miss = on(0).concretize(&goal).unwrap();
    let hit = on(0).concretize(&goal).unwrap();
    assert!(!miss.stats.ground_cache_hit && hit.stats.ground_cache_hit);
    for sol in [&miss, &hit] {
        assert_eq!(signature(sol), cold[0]);
    }
    assert_eq!(gc.len(), 2);

    // No w2 key reaches the straggler's entry.
    let hit = on(1).concretize(&goal).unwrap();
    assert!(hit.stats.ground_cache_hit);
    assert_eq!(signature(&hit), cold[1]);

    // The next zlib delta sweeps it, together with the w2 entry.
    let report = gc.apply_delta(&repo_delta(&worlds[1], &worlds[2]));
    assert_eq!((report.invalidated, report.retained), (2, 0));
    assert!(
        gc.lookup(w1_key).is_none(),
        "the straggler's entry is swept"
    );
}

#[test]
fn reversed_deltas_keep_the_current_world_cacheable() {
    let worlds = zlib_worlds(3);
    let goal = parse_spec("app").unwrap();
    let gc = GroundCache::shared();
    gc.apply_delta(&repo_delta(&worlds[1], &worlds[2]));
    gc.apply_delta(&repo_delta(&worlds[0], &worlds[1]));

    let cold = signature(
        &Concretizer::shared(worlds[2].clone())
            .concretize(&goal)
            .unwrap(),
    );
    let warm = Concretizer::shared(worlds[2].clone()).with_ground_cache(gc.clone());
    let first = warm.concretize(&goal).unwrap();
    let second = warm.concretize(&goal).unwrap();
    for sol in [&first, &second] {
        assert_eq!(signature(sol), cold);
    }
    assert!(
        second.stats.ground_cache_hit,
        "the current world must stay cacheable"
    );
}

/// Solver threads race a mutator applying successive version-add deltas.
/// Every solve — whichever snapshot it holds, however it interleaves
/// with `apply_delta` — must return the solution a cold solve of *its*
/// snapshot returns. Afterwards no stale program may be reachable.
#[test]
fn concurrent_solves_against_deltas_stay_bit_identical() {
    // Each delta changes the chosen zlib, so the expected solution
    // differs per snapshot.
    let snapshots = zlib_worlds(6);

    // Cold reference solutions, computed without any cache.
    let goal = parse_spec("app").unwrap();
    let reference: Vec<String> = snapshots
        .iter()
        .map(|r| signature(&Concretizer::new(r.as_ref()).concretize(&goal).unwrap()))
        .collect();
    assert_eq!(
        reference.iter().collect::<std::collections::BTreeSet<_>>().len(),
        snapshots.len(),
        "each snapshot must have a distinct solution for the race to bite"
    );

    let gc = GroundCache::shared();
    let solvers: Vec<_> = (0..4)
        .map(|t| {
            let snapshots = snapshots.clone();
            let reference = reference.clone();
            let gc = gc.clone();
            let goal = goal.clone();
            std::thread::spawn(move || {
                for round in 0..30usize {
                    let i = (round * 7 + t * 3) % snapshots.len();
                    let sol = Concretizer::new(snapshots[i].as_ref())
                        .with_ground_cache(gc.clone())
                        .concretize(&goal)
                        .unwrap();
                    assert_eq!(
                        signature(&sol),
                        reference[i],
                        "thread {t} round {round}: solve of snapshot {i} \
                         diverged from its cold reference"
                    );
                }
            })
        })
        .collect();

    // The mutator walks the delta chain while solvers are in flight.
    let mutator = {
        let snapshots = snapshots.clone();
        let gc = gc.clone();
        std::thread::spawn(move || {
            for w in snapshots.windows(2) {
                gc.apply_delta(&repo_delta(&w[0], &w[1]));
                std::thread::yield_now();
            }
        })
    };
    for th in solvers {
        th.join().unwrap();
    }
    mutator.join().unwrap();

    // Post-race: stragglers may have left entries for older snapshots,
    // but the final world's solves reach only their own: correct, and
    // a hit once warmed.
    let last = snapshots.len() - 1;
    let warm = Concretizer::new(snapshots[last].as_ref()).with_ground_cache(gc.clone());
    let first = warm.concretize(&goal).unwrap();
    let second = warm.concretize(&goal).unwrap();
    for sol in [&first, &second] {
        assert_eq!(signature(sol), reference[last]);
    }
    assert!(second.stats.ground_cache_hit, "the final world must hit once warmed");
}
