//! Answer memoization: skip every stage of a repeated solve.
//!
//! The radiuss workloads solve dozens of near-identical goals against one
//! repository and one reusable-spec set. A [`GroundCache`] keys each
//! goal's answer — a [`SolvedGoal`]: the interpreted solution, or the
//! fact that there is none — by a fingerprint of everything that
//! determines it: the goal's package-segment fingerprints, the
//! reusable-spec sets (in cache order), the goal, the encode
//! configuration, the grounding limits and the conflict budget. A
//! repeated solve clones the answer: it runs no encode, ground, search
//! or interpretation, and reads no cache entry. The engine is
//! deterministic, so a replay is bit-identical to a fresh solve (same
//! specs, same DAG hashes). The conflict budget is in the key because it
//! can fail a cold solve: an answer found under a generous budget must
//! not reach a request whose own budget would have run out.
//!
//! Only interpreted answers are stored: a solve that is cancelled, runs
//! out of its conflict budget or fails to interpret inserts nothing. The
//! model and its ground program drop when the cold solve returns.
//!
//! ## Concurrency
//!
//! One cache backs *many* threads: the `spackled` concretization service
//! shares a single warm `GroundCache` across every in-flight request.
//! The table is one [`parking_lot::RwLock`] over one map. A warm hit
//! holds the read lock only to clone one [`SolvedGoal`] (an `Arc` and a
//! count), so concurrent hits share it; inserts, delta sweeps and
//! [`GroundCache::clear`] take the write lock. Hit and miss counters are
//! atomics.
//!
//! ## Segment-keyed partial invalidation
//!
//! Every entry records the [`SegmentSet`] it was solved over — one
//! fingerprint per closure package plus one per reusable-spec source
//! partition. A repository delta becomes a [`SegmentDelta`];
//! [`GroundCache::apply_delta`] drops exactly the entries whose package
//! segments moved and **retains the rest** (their keys are
//! content-composed, so they keep hitting after the delta). A dropped
//! entry is gone: the next solve for its goal re-grounds and searches
//! afresh. [`GroundCache::clear`] drops everything, for a service that
//! wants a wholly cold cache.
//!
//! The key is the only staleness rule. It is composed from the content
//! its answer was solved over, and every request composes its key from
//! the content it solves, so a request on the current world can never
//! look up an answer solved over content that has since moved. A solve
//! that raced a delta — started on the pre-delta snapshot, inserted after
//! the sweep — leaves an unreachable entry, not a wrong answer, just like
//! an entry a package addition orphans. That straggler stays until the
//! next delta that moves one of its packages, or until `clear`. Nothing
//! depends on the order deltas arrive in: a sweep only drops entries, so
//! a late one costs at most a re-solve.
//!
//! Fingerprints use the process-default hasher, so a cache is only
//! meaningful within one process — exactly the scope a long-lived
//! service needs. Never persist the keys.

use crate::interpret::Interpretation;
use crate::segment::{SegmentDelta, SegmentSet};
use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One goal's answer: the interpreted solution with its cost, or none
/// when the goal is unsatisfiable, plus the number of reusable specs the
/// solve encoded.
#[derive(Clone)]
pub struct SolvedGoal {
    /// The interpreted optimal model; `None` means unsatisfiable.
    pub answer: Option<Arc<Interpretation>>,
    /// Reusable specs encoded into the program.
    pub reusable_count: usize,
}

/// A cached entry: the answer tagged with the segment fingerprints it
/// was solved over (the delta invalidation key).
struct Entry {
    segments: Arc<SegmentSet>,
    solved: SolvedGoal,
}

/// What one [`GroundCache::apply_delta`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Entries dropped because a segment they depend on moved.
    pub invalidated: usize,
    /// Entries retained (no referenced segment moved).
    pub retained: usize,
}

/// A coherent point-in-time view of the cache counters, taken with
/// plain atomic loads. Counters only ever grow (except via nothing —
/// [`GroundCache::clear`] keeps them), so deltas between two snapshots
/// are meaningful even while other threads keep solving.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroundCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by a delta or by [`GroundCache::clear`].
    pub invalidated: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// [`GroundCache::apply_delta`] calls observed.
    pub delta_updates: u64,
    /// Cumulative entries dropped by deltas (their segments moved).
    pub segments_invalidated: u64,
    /// Cumulative entries retained across deltas (no referenced
    /// segment moved).
    pub segments_retained: u64,
}

impl GroundCacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A process-local memo table from solve fingerprints to answers, with
/// atomic hit/miss counters and segment-keyed partial invalidation. One
/// cache may back an entire service — every worker thread, every
/// session — through a shared [`Arc<GroundCache>`].
#[derive(Default)]
pub struct GroundCache {
    entries: RwLock<FxHashMap<u64, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    delta_updates: AtomicU64,
    segments_invalidated: AtomicU64,
    segments_retained: AtomicU64,
}

impl GroundCache {
    /// An empty cache.
    pub fn new() -> GroundCache {
        GroundCache::default()
    }

    /// An empty cache behind a shared handle — the shape every
    /// multi-threaded consumer wants.
    pub fn shared() -> Arc<GroundCache> {
        Arc::new(GroundCache::new())
    }

    /// Look up `key`, counting a hit or a miss.
    pub fn lookup(&self, key: u64) -> Option<SolvedGoal> {
        let found = self.entries.read().get(&key).map(|e| e.solved.clone());
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Store the answer for `key`, tagged with the [`SegmentSet`] it was
    /// solved over (last writer wins; entries for one key are
    /// interchangeable because the solve pipeline is deterministic). An
    /// answer solved over content a delta has since moved is stored too:
    /// no current key reaches it (see the module docs).
    pub fn insert(&self, key: u64, segments: Arc<SegmentSet>, solved: SolvedGoal) {
        self.entries.write().insert(key, Entry { segments, solved });
    }

    /// Apply a segment delta: drop exactly the entries whose recorded
    /// package segments moved and retain the rest. Returns what was
    /// dropped vs retained.
    pub fn apply_delta(&self, delta: &SegmentDelta) -> DeltaReport {
        let mut entries = self.entries.write();
        let before = entries.len();
        entries.retain(|_, e| !e.segments.hit_by(delta));
        let report = DeltaReport {
            invalidated: before - entries.len(),
            retained: entries.len(),
        };
        self.delta_updates.fetch_add(1, Ordering::Relaxed);
        self.invalidated
            .fetch_add(report.invalidated as u64, Ordering::Relaxed);
        self.segments_invalidated
            .fetch_add(report.invalidated as u64, Ordering::Relaxed);
        self.segments_retained
            .fetch_add(report.retained as u64, Ordering::Relaxed);
        report
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// A point-in-time counter snapshot (see [`GroundCacheStats`]).
    pub fn stats(&self) -> GroundCacheStats {
        GroundCacheStats {
            hits: self.hits(),
            misses: self.misses(),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries: self.len(),
            delta_updates: self.delta_updates.load(Ordering::Relaxed),
            segments_invalidated: self.segments_invalidated.load(Ordering::Relaxed),
            segments_retained: self.segments_retained.load(Ordering::Relaxed),
        }
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Drop every entry and return how many were dropped, counting them
    /// as invalidated. In-flight solves keep their `Arc` handles and
    /// finish untouched; one that finishes afterwards may re-insert its
    /// answer, which is still valid because its key is composed from
    /// the content it was solved over.
    pub fn clear(&self) -> usize {
        let mut entries = self.entries.write();
        let dropped = entries.len();
        entries.clear();
        self.invalidated
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }
}

// One shared cache serves many solver threads; these bounds are the
// contract the whole shared-state API rests on, so failing them must be
// a compile error here rather than at a distant use site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GroundCache>();
    assert_send_sync::<SolvedGoal>();
};

#[cfg(test)]
mod tests {
    use super::*;

    // Answers come from solves; unit tests here cover the counters, and
    // the integration tests cover the entries.
    #[test]
    fn empty_cache_misses_coherently() {
        let gc = GroundCache::new();
        assert!(gc.lookup(42).is_none());
        assert_eq!((gc.hits(), gc.misses()), (0, 1));
        assert_eq!(gc.stats().hit_rate(), 0.0);
    }

    #[test]
    fn empty_delta_retains_everything_and_counts() {
        let gc = GroundCache::new();
        let report = gc.apply_delta(&SegmentDelta::default());
        assert_eq!(report, DeltaReport::default());
        let stats = gc.stats();
        assert_eq!(stats.delta_updates, 1);
        assert_eq!(stats.segments_invalidated, 0);
    }
}
