//! Ground-program memoization: skip encode + parse + ground + CNF
//! translation on repeated solves.
//!
//! The radiuss workloads solve dozens of near-identical goals against one
//! repository and one reusable-spec set; encoding, grounding, and
//! translation dominate their latency. A [`GroundCache`] keys a fully
//! prepared [`spackle_asp::TranslatedProgram`] by a fingerprint of
//! everything that determines it — the goal's package-segment
//! fingerprints, the reusable-spec sets (in cache order), the goal, the
//! encode configuration, and the grounding limits — so a repeated solve
//! goes straight to [`spackle_asp::Solver::solve_translated`], which
//! clones the pristine pre-search SAT instance and searches. The engine
//! is deterministic, so a cached re-solve returns a bit-identical model
//! (and therefore identical specs and DAG hashes) to an uncached one.
//!
//! On top of that, each [`PreparedProgram`] carries a **model memo**: the
//! optimal model per search configuration, so a warm hit under an
//! already-seen search config skips the SAT search too and goes straight
//! to interpretation. Memoized models are keyed by a search-config
//! fingerprint because co-optimal models may differ *across* search
//! configs (only the cost vector is guaranteed equal); within one config
//! the engine is deterministic, so replaying the memo is bit-identical.
//!
//! ## Concurrency
//!
//! One cache backs *many* threads: the `spackled` concretization service
//! shares a single warm `GroundCache` across every in-flight request.
//! The table is therefore **sharded** — keys are distributed over
//! [`SHARD_COUNT`] independent read-mostly [`parking_lot::RwLock`]
//! maps, so the hot path (a warm hit) takes one shard's read lock and
//! never serializes against hits on other shards or against inserts
//! into other shards. Hit/miss counters are atomics; use
//! [`GroundCache::lookup_counted`] to get the counter values that
//! include *this* lookup as one atomic read-modify-write, which is what
//! per-solve statistics must report when other threads are hammering the
//! same cache.
//!
//! ## Segment-keyed partial invalidation
//!
//! Every entry records the [`SegmentSet`] it was prepared over — one
//! fingerprint per closure package plus one per reusable-spec source
//! partition. A repository or buildcache delta becomes a
//! [`SegmentDelta`]; [`GroundCache::apply_delta`] drops exactly the
//! entries whose segments moved and **retains the rest** (their keys are
//! content-composed, so they keep hitting after the delta). A dropped
//! entry is gone: the next solve for its goal re-grounds, re-translates
//! and searches afresh. [`GroundCache::clear`] drops everything, for a
//! service that wants a wholly cold cache.
//!
//! Stale-segment rejection under concurrency: `apply_delta` publishes
//! the post-delta fingerprints to a *retired* table **before** sweeping
//! the shards, and [`GroundCache::insert`] checks that table while
//! holding the target shard's write lock. An in-flight solve that
//! prepared against pre-delta content therefore either inserts before
//! the sweep (and is swept) or after the retire publication (and is
//! rejected) — a stale program can never survive a delta. A solve that
//! finishes after a `clear` may re-insert its program: the key is
//! computed from the content the program was prepared over, so the entry
//! is exactly what a fresh solve would insert.
//!
//! Fingerprints use the process-default hasher, so a cache is only
//! meaningful within one process — exactly the scope a long-lived
//! service needs. Never persist the keys.

use crate::segment::{SegmentDelta, SegmentSet};
use parking_lot::RwLock;
use rustc_hash::FxHashMap;
use spackle_asp::{Model, SolveStats, TranslatedProgram};
use spackle_spec::Sym;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independent shards. A power of two so shard selection is a
/// mask; 16 keeps lock contention negligible for the worker-thread
/// counts a one-box service runs (requests far outnumber cores).
pub const SHARD_COUNT: usize = 16;

/// Shared memo of optimal models per search-config fingerprint. Lives on
/// the [`PreparedProgram`] behind an `Arc`, so every clone handed out by
/// cache lookups writes into (and reads from) the same memo.
pub type ModelMemo = Arc<RwLock<FxHashMap<u64, (Arc<Model>, SolveStats)>>>;

/// Everything the concretizer needs to resume after the ground and
/// translate steps: the translated program plus the encode-time
/// byproducts that feed model interpretation and statistics.
#[derive(Clone)]
pub struct PreparedProgram {
    /// The grounded + CNF-translated program, shareable across solves.
    pub program: Arc<TranslatedProgram>,
    /// Root package names, in request order (interpretation input).
    pub root_names: Vec<Sym>,
    /// Reusable specs encoded into the program.
    pub reusable_count: usize,
    /// Generated program text size in bytes.
    pub program_bytes: usize,
    /// Non-ground rules removed by static pruning before grounding.
    pub pruned_rules: usize,
    /// Memoized optimal models, one per search-config fingerprint (see
    /// module docs). Shared across every clone of this entry.
    pub models: ModelMemo,
}

impl PreparedProgram {
    /// An empty, shareable model memo (the state every fresh
    /// preparation starts with).
    pub fn fresh_memo() -> ModelMemo {
        Arc::new(RwLock::new(FxHashMap::default()))
    }
}

/// A cached entry: the prepared program tagged with the segment
/// fingerprints it was prepared over (the delta invalidation key).
struct Entry {
    segments: Arc<SegmentSet>,
    prepared: PreparedProgram,
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
    /// Entries dropped by a delta or by [`GroundCache::clear`]
    /// (including stale stragglers rejected at insert time).
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

/// A process-local memo table from solve fingerprints to prepared ground
/// programs, sharded for concurrent access, with atomic hit/miss
/// counters and segment-keyed partial invalidation. One cache may back
/// an entire service — every worker thread, every session — through a
/// shared [`Arc<GroundCache>`].
pub struct GroundCache {
    shards: [RwLock<FxHashMap<u64, Entry>>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    /// Post-delta segment fingerprints (`None` = segment removed):
    /// inserts referencing a retired fingerprint are rejected. Written
    /// *before* the shard sweep in [`GroundCache::apply_delta`] and read
    /// under the shard write lock in [`GroundCache::insert`] — see the
    /// module docs for why that ordering closes the concurrent-insert
    /// race.
    retired_packages: RwLock<FxHashMap<Sym, Option<u64>>>,
    /// Post-delta source-partition fingerprints, by source index.
    retired_sources: RwLock<FxHashMap<usize, Option<u64>>>,
    delta_updates: AtomicU64,
    segments_invalidated: AtomicU64,
    segments_retained: AtomicU64,
}

impl Default for GroundCache {
    fn default() -> GroundCache {
        GroundCache {
            shards: std::array::from_fn(|_| RwLock::new(FxHashMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            retired_packages: RwLock::new(FxHashMap::default()),
            retired_sources: RwLock::new(FxHashMap::default()),
            delta_updates: AtomicU64::new(0),
            segments_invalidated: AtomicU64::new(0),
            segments_retained: AtomicU64::new(0),
        }
    }
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

    fn shard(&self, key: u64) -> &RwLock<FxHashMap<u64, Entry>> {
        // Key bits are hasher output, so any bit range is uniform; the
        // low bits pick the shard.
        &self.shards[(key as usize) & (SHARD_COUNT - 1)]
    }

    /// Look up `key`, counting a hit or a miss.
    pub fn lookup(&self, key: u64) -> Option<PreparedProgram> {
        self.lookup_counted(key).0
    }

    /// Look up `key`, returning the cumulative hit and miss counts *as
    /// of this lookup* (i.e. including it). The counts come from the
    /// atomic update itself, so a solve's reported counters are exact
    /// even when other threads interleave lookups — reading
    /// [`GroundCache::hits`] after the fact cannot promise that.
    pub fn lookup_counted(&self, key: u64) -> (Option<PreparedProgram>, u64, u64) {
        let found = self
            .shard(key)
            .read()
            .get(&key)
            .map(|e| e.prepared.clone());
        match &found {
            Some(_) => {
                let hits = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
                (found, hits, self.misses.load(Ordering::Relaxed))
            }
            None => {
                let misses = self.misses.fetch_add(1, Ordering::Relaxed) + 1;
                (None, self.hits.load(Ordering::Relaxed), misses)
            }
        }
    }

    /// Does `segments` reference a retired fingerprint — i.e. was it
    /// computed over pre-delta content for a segment a delta has since
    /// moved? Must be called with the target shard's write lock held
    /// (see module docs).
    fn is_stale(&self, segments: &SegmentSet) -> bool {
        {
            let retired = self.retired_packages.read();
            if segments
                .packages
                .iter()
                .any(|(name, fp)| retired.get(name).is_some_and(|cur| *cur != Some(*fp)))
            {
                return true;
            }
        }
        let retired = self.retired_sources.read();
        segments
            .sources
            .iter()
            .any(|(idx, fp)| retired.get(idx).is_some_and(|cur| *cur != Some(*fp)))
    }

    /// Store the prepared program for `key`, tagged with the
    /// [`SegmentSet`] it was prepared over (last writer wins; entries for
    /// one key are interchangeable because the preparation pipeline is
    /// deterministic). Inserts referencing a segment fingerprint a delta
    /// has retired are dropped: a solve that raced a delta update cannot
    /// resurrect a stale program.
    pub fn insert(&self, key: u64, segments: Arc<SegmentSet>, prepared: PreparedProgram) {
        let mut shard = self.shard(key).write();
        // The stale check must happen under the shard lock: apply_delta
        // publishes retirements before sweeping, so an insert that
        // misses the retirement here commits before the sweep and is
        // swept, and one that sees it is rejected. No interleaving lets
        // a stale program survive.
        if self.is_stale(&segments) {
            self.invalidated.fetch_add(1, Ordering::Relaxed);
            return;
        }
        shard.insert(key, Entry { segments, prepared });
    }

    /// Apply a segment delta: drop exactly the entries whose recorded
    /// segments moved and retain the rest. Future inserts referencing a
    /// pre-delta fingerprint of a moved segment are rejected
    /// (stale-straggler protection). Returns what was dropped vs
    /// retained.
    ///
    /// Precondition: deltas arrive in the order their worlds were
    /// published. The retirement table keeps the last fingerprint it was
    /// given per segment, so applying `w2 → w3` before `w1 → w2` leaves
    /// it at `w2`'s and rejects every later insert for `w3` as stale. A
    /// caller that publishes worlds concurrently must serialize publish
    /// and apply, e.g. by applying under its repository write lock.
    pub fn apply_delta(&self, delta: &SegmentDelta) -> DeltaReport {
        // Publish retirements FIRST (see insert's ordering argument).
        {
            let mut retired = self.retired_packages.write();
            for (name, fp) in &delta.packages {
                retired.insert(*name, *fp);
            }
        }
        {
            let mut retired = self.retired_sources.write();
            for (idx, fp) in &delta.sources {
                retired.insert(*idx, *fp);
            }
        }
        let mut report = DeltaReport::default();
        for shard in &self.shards {
            let mut map = shard.write();
            let before = map.len();
            map.retain(|_, e| !e.segments.hit_by(delta));
            report.invalidated += before - map.len();
            report.retained += map.len();
        }
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

    /// Number of cached ground programs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Drop every entry and return how many were dropped, counting them
    /// as invalidated. The retirement tables are kept, so a straggler
    /// prepared before an earlier delta is still rejected afterwards.
    /// In-flight solves keep their `Arc` handles and finish untouched.
    pub fn clear(&self) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut map = shard.write();
            dropped += map.len();
            map.clear();
        }
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
    assert_send_sync::<PreparedProgram>();
};

#[cfg(test)]
mod tests {
    use super::*;

    // PreparedProgram requires a TranslatedProgram, which only the
    // solver can make; unit tests here cover the counter and retirement
    // logic via the public surface exercised by integration tests.
    #[test]
    fn empty_cache_misses_coherently() {
        let gc = GroundCache::new();
        let (found, hits, misses) = gc.lookup_counted(42);
        assert!(found.is_none());
        assert_eq!((hits, misses), (0, 1));
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

    #[test]
    fn retirement_table_marks_pre_delta_fingerprints_stale() {
        let gc = GroundCache::new();
        let zlib = Sym::intern("zlib-gc-test");
        gc.apply_delta(&SegmentDelta {
            packages: vec![(zlib, Some(2))],
            sources: vec![(0, Some(9))],
        });
        // Pre-delta fingerprints are stale; post-delta ones are not.
        let stale = SegmentSet {
            packages: vec![(zlib, 1)],
            sources: vec![],
        };
        let fresh = SegmentSet {
            packages: vec![(zlib, 2)],
            sources: vec![(0, 9)],
        };
        let stale_src = SegmentSet {
            packages: vec![],
            sources: vec![(0, 8)],
        };
        assert!(gc.is_stale(&stale));
        assert!(!gc.is_stale(&fresh));
        assert!(gc.is_stale(&stale_src));
        // Clearing the entries keeps the retirements.
        assert_eq!(gc.clear(), 0);
        assert!(gc.is_stale(&stale));
    }
}
