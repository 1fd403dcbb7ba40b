//! Segment-key composition and stale-segment rejection.
//!
//! The ground cache's partial-invalidation contract rests on two
//! properties checked here at the public-API level:
//!
//! * **composition** — the memo key is composed from exactly the
//!   content the prepared program depends on: one fingerprint per
//!   closure package, one per reusable-spec source partition, the goal,
//!   and the encode-shaping config axes. Nothing else may leak in, or
//!   retained entries would stop hitting after unrelated deltas.
//! * **stale rejection** — a solve that raced a delta (started on the
//!   pre-delta snapshot, finished after `apply_delta`) must not be able
//!   to re-insert its stale program: the retirement tables reject the
//!   insert under the shard lock, and the dropped entry leaves nothing
//!   behind in the cache. Checked directly for a straggler and under a
//!   concurrent solver/mutator stress loop.

use spackle_buildcache::BuildCache;
use spackle_core::{repo_delta, Concretizer, ConcretizerConfig, Goal, GroundCache};
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
    let pruned = Concretizer::new(&repo).with_config(ConcretizerConfig {
        prune_dead: true,
        ..Default::default()
    });
    let (pruned_key, _) = pruned.segment_key(&goal).unwrap();
    assert_ne!(bare_key, pruned_key, "config axis change, distinct key");
}

#[test]
fn stale_straggler_insert_is_rejected_after_delta() {
    let repo_old = base_repo();
    let mut repo_new = repo_old.clone();
    repo_new.upsert(
        PackageBuilder::new("zlib")
            .version("1.4")
            .version("1.3")
            .version("1.2")
            .build()
            .unwrap(),
    );

    let gc = GroundCache::shared();
    let goal = parse_spec("app").unwrap();

    // Warm on the old world, then apply the delta: the entry is dropped
    // and the old zlib fingerprint retired.
    let old = Concretizer::new(&repo_old).with_ground_cache(gc.clone());
    old.concretize(&goal).unwrap();
    assert_eq!(gc.len(), 1);
    let key = old.ground_key(&Goal::single(goal.clone())).unwrap();
    let warm = gc.lookup(key).expect("warm entry");
    let report = gc.apply_delta(&repo_delta(&repo_old, &repo_new));
    assert_eq!((report.invalidated, report.retained), (1, 0));
    assert_eq!(gc.len(), 0);
    // The cache keeps nothing of a dropped entry: this clone holds the
    // last references to its translation and its model memo.
    assert_eq!(Arc::strong_count(&warm.program), 1);
    assert_eq!(Arc::strong_count(&warm.models), 1);

    // A straggler still holding the pre-delta snapshot re-solves: it
    // misses (entry gone) and its re-insert references the retired
    // fingerprint, so the cache must refuse to store it.
    let sol = Concretizer::new(&repo_old)
        .with_ground_cache(gc.clone())
        .concretize(&goal)
        .unwrap();
    assert!(!sol.stats.ground_cache_hit);
    assert_eq!(gc.len(), 0, "stale insert must be rejected");

    // ... and keeps being rejected: a second straggler misses again
    // rather than hitting a resurrected stale program.
    let sol = Concretizer::new(&repo_old)
        .with_ground_cache(gc.clone())
        .concretize(&goal)
        .unwrap();
    assert!(!sol.stats.ground_cache_hit, "no stale program to hit");
    assert_eq!(gc.len(), 0);

    // A post-delta solve carries the *current* fingerprint, which the
    // retirement table recognizes as fresh: stored normally.
    let sol = Concretizer::new(&repo_new)
        .with_ground_cache(gc.clone())
        .concretize(&goal)
        .unwrap();
    assert!(!sol.stats.ground_cache_hit);
    assert_eq!(gc.len(), 1, "fresh insert must land");
    let sol2 = Concretizer::new(&repo_new)
        .with_ground_cache(gc.clone())
        .concretize(&goal)
        .unwrap();
    assert!(sol2.stats.ground_cache_hit);
    assert_eq!(sol.spec().dag_hash(), sol2.spec().dag_hash());
}

/// Solver threads race a mutator applying successive version-add deltas.
/// Every solve — whichever snapshot it holds, however it interleaves
/// with `apply_delta` — must return the solution a cold solve of *its*
/// snapshot returns. Afterwards no stale program may be reachable.
#[test]
fn concurrent_solves_against_deltas_stay_bit_identical() {
    // Snapshot i declares zlib versions 2.0..2.i (most preferred
    // first), so each delta changes the chosen zlib and the expected
    // solution differs per snapshot.
    let snapshots: Vec<Arc<Repository>> = (0..6)
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
        .collect();

    // Cold reference solutions, computed without any cache.
    let goal = parse_spec("app").unwrap();
    let reference: Vec<String> = snapshots
        .iter()
        .map(|r| {
            let sol = Concretizer::new(r.as_ref()).concretize(&goal).unwrap();
            format!("{:?}|{:?}", sol.spec().dag_hash(), sol.cost)
        })
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
                    let got = format!("{:?}|{:?}", sol.spec().dag_hash(), sol.cost);
                    assert_eq!(
                        got, reference[i],
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

    // Post-race: the final world's solve must be correct and, once
    // warmed, hit; every pre-final snapshot's zlib fingerprint is
    // retired, so stale stragglers still cannot repopulate the cache.
    let last = snapshots.len() - 1;
    let warm = Concretizer::new(snapshots[last].as_ref()).with_ground_cache(gc.clone());
    let sol = warm.concretize(&goal).unwrap();
    assert_eq!(
        format!("{:?}|{:?}", sol.spec().dag_hash(), sol.cost),
        reference[last]
    );
    let before = gc.len();
    Concretizer::new(snapshots[0].as_ref())
        .with_ground_cache(gc.clone())
        .concretize(&goal)
        .unwrap();
    assert_eq!(gc.len(), before, "stale straggler insert still rejected");
}
