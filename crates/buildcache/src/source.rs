//! The multi-backend cache seam: [`CacheSource`] and [`ChainedCache`].
//!
//! Everything downstream of the cache — reuse fact injection in the
//! concretizer, install planning, binary execution, ABI audits — only
//! ever needs three lookups: by exact hash, by package name, and full
//! iteration. [`CacheSource`] captures exactly that surface as an
//! object-safe trait, so those layers accept `&dyn CacheSource` and
//! never learn whether they are talking to one in-memory index, a chain
//! of local + public caches, or (later) a remote mirror.
//!
//! Every lookup is **fallible**: a backend may time out, refuse, or
//! serve corrupt data, so each read returns `Result<_, CacheError>` with
//! transient/permanent/corrupt provenance (see
//! [`CacheError`]). In-memory sources simply always
//! return `Ok`; the [`FaultInjector`](crate::FaultInjector) wrapper and
//! real remote backends exercise the error paths.
//!
//! [`ChainedCache`] is the first combinator over the seam: an ordered
//! overlay of sources with first-hit-wins lookup, mirroring Spack's
//! ordered mirror list. It owns the fault-handling policy for its
//! sources — bounded retries with deterministic-jitter exponential
//! backoff and a per-source circuit breaker ([`RetryPolicy`]) — and
//! verifies that fetched entries hash to the key they were fetched
//! under, so a corrupt mirror can never serve a wrong binary. A source
//! that stays down past its retry budget surfaces as a structured
//! `CacheError` with the failing backend's label; graceful degradation
//! (dropping the source and proceeding source-only) is the *caller's*
//! decision — the concretizer implements it and flags the solve
//! `degraded`.
//!
//! Sources are **shared, not borrowed**: long-lived consumers (the
//! `spackled` concretization service, benchmark harnesses, worker
//! threads) hold `Arc<dyn CacheSource>` handles, so one in-memory index
//! can back any number of concurrent solves without a lifetime tying it
//! to a single stack frame. [`IntoCacheSource`] keeps short-lived
//! callers ergonomic: passing an owned source, an `Arc`, or a `&source`
//! (cloned) all work at the same call site.

use crate::cache::{BuildCache, CacheEntry, CacheError};
use rustc_hash::FxHashSet;
use spackle_spec::{SpecHash, Sym};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cumulative fault-handling counters for one cache source.
///
/// Plain `Copy` data: sources keep the live values in atomics and
/// snapshot them here. Composite sources ([`ChainedCache`]) report their
/// own counters [`merged`](SourceFaultStats::merge) with every
/// sub-source's, so injected-fault and retry counts flow up to whoever
/// holds the outermost handle (daemon telemetry, the chaos harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SourceFaultStats {
    /// Reads re-attempted after a retryable failure.
    pub retries: u64,
    /// Transient backend failures observed (before retry).
    pub transient_errors: u64,
    /// Permanent backend failures observed.
    pub permanent_errors: u64,
    /// Integrity-check failures (corrupt entries / corrupt index reads).
    pub corrupt_entries: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Calls failed fast because a breaker was open.
    pub breaker_skips: u64,
    /// Faults deliberately injected (fault-injection wrappers only).
    pub injected_faults: u64,
}

impl SourceFaultStats {
    /// Field-wise sum of two snapshots.
    pub fn merge(self, other: SourceFaultStats) -> SourceFaultStats {
        SourceFaultStats {
            retries: self.retries + other.retries,
            transient_errors: self.transient_errors + other.transient_errors,
            permanent_errors: self.permanent_errors + other.permanent_errors,
            corrupt_entries: self.corrupt_entries + other.corrupt_entries,
            breaker_opens: self.breaker_opens + other.breaker_opens,
            breaker_skips: self.breaker_skips + other.breaker_skips,
            injected_faults: self.injected_faults + other.injected_faults,
        }
    }

    /// Field-wise saturating difference (`self - earlier`); the per-solve
    /// delta the concretizer reports in its stats.
    pub fn saturating_sub(self, earlier: SourceFaultStats) -> SourceFaultStats {
        SourceFaultStats {
            retries: self.retries.saturating_sub(earlier.retries),
            transient_errors: self.transient_errors.saturating_sub(earlier.transient_errors),
            permanent_errors: self.permanent_errors.saturating_sub(earlier.permanent_errors),
            corrupt_entries: self.corrupt_entries.saturating_sub(earlier.corrupt_entries),
            breaker_opens: self.breaker_opens.saturating_sub(earlier.breaker_opens),
            breaker_skips: self.breaker_skips.saturating_sub(earlier.breaker_skips),
            injected_faults: self.injected_faults.saturating_sub(earlier.injected_faults),
        }
    }
}

/// Read access to a collection of reusable specs and their binaries.
///
/// Object-safe on purpose: planners and solvers hold `&dyn CacheSource`
/// or `Arc<dyn CacheSource>` so new backends never force an API break.
/// `Send + Sync` is part of the contract: every source must tolerate
/// concurrent readers, because one cache instance backs many solver
/// threads in the shared-state concretizer API. Implementations must be
/// internally consistent — every entry reachable from [`iter`] must also
/// be reachable via [`get`] under its spec's DAG hash.
///
/// Every lookup returns `Result<_, CacheError>`: in-memory sources are
/// infallible in practice (always `Ok`), but the signature is the seam
/// that lets remote mirrors, flaky disks, and the deterministic
/// [`FaultInjector`](crate::FaultInjector) sit behind the same trait
/// object.
///
/// [`iter`]: CacheSource::iter
/// [`get`]: CacheSource::get
pub trait CacheSource: Send + Sync {
    /// Exact-hash lookup.
    fn get(&self, hash: SpecHash) -> Result<Option<&CacheEntry>, CacheError>;

    /// Entries whose root package is `name`, best candidate first.
    fn candidates_for(&self, name: Sym) -> Result<Vec<&CacheEntry>, CacheError>;

    /// Iterate every entry, deterministically.
    fn iter(&self) -> Result<Box<dyn Iterator<Item = &CacheEntry> + '_>, CacheError>;

    /// Number of distinct entries (best effort: composite sources report
    /// 0 when every backend is unreadable).
    fn len(&self) -> usize;

    /// A short human label naming this source in error provenance and
    /// telemetry (`"local"`, `"public"`, `"chain"`, ...).
    fn label(&self) -> &str {
        "cache"
    }

    /// Is a spec with this hash available?
    fn contains(&self, hash: SpecHash) -> Result<bool, CacheError> {
        Ok(self.get(hash)?.is_some())
    }

    /// Does the source hold no entries?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An order-sensitive fingerprint of the reusable-spec set: the DAG
    /// hash of every entry, in [`iter`] order. Two sources with the same
    /// fingerprint inject the same reuse facts into the concretizer, so
    /// this is the cache-identity input to the ground cache's keys.
    /// Valid within one process only (it uses the default `Hasher`);
    /// never persist it. Fallible because it reads the full index: a
    /// down backend cannot be fingerprinted, which is exactly what keeps
    /// a degraded solve from reusing an answer memoized against the
    /// healthy source set.
    ///
    /// [`iter`]: CacheSource::iter
    fn fingerprint(&self) -> Result<u64, CacheError> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let mut n = 0usize;
        for e in self.iter()? {
            e.spec.dag_hash().0.hash(&mut h);
            n += 1;
        }
        n.hash(&mut h);
        Ok(h.finish())
    }

    /// Snapshot of this source's cumulative fault-handling counters.
    /// Plain sources have none; retry/breaker combinators and fault
    /// injectors report theirs (merged with their children's).
    fn fault_stats(&self) -> SourceFaultStats {
        SourceFaultStats::default()
    }
}

impl CacheSource for BuildCache {
    fn get(&self, hash: SpecHash) -> Result<Option<&CacheEntry>, CacheError> {
        Ok(BuildCache::get(self, hash))
    }

    fn candidates_for(&self, name: Sym) -> Result<Vec<&CacheEntry>, CacheError> {
        Ok(BuildCache::candidates_for(self, name))
    }

    fn iter(&self) -> Result<Box<dyn Iterator<Item = &CacheEntry> + '_>, CacheError> {
        Ok(Box::new(self.entries()))
    }

    fn len(&self) -> usize {
        BuildCache::len(self)
    }

    fn label(&self) -> &str {
        "buildcache"
    }

    fn contains(&self, hash: SpecHash) -> Result<bool, CacheError> {
        Ok(BuildCache::contains(self, hash))
    }
}

/// A relabeling wrapper: delegates every lookup to its inner source and
/// only overrides [`CacheSource::label`]. Provenance in a multi-mirror
/// deployment ("public mirror down, proceeding on local") needs each
/// backend to carry a stable operator-facing name.
pub struct Labeled {
    inner: Arc<dyn CacheSource>,
    label: String,
}

impl Labeled {
    /// Wrap `inner` under `label`.
    pub fn new(inner: impl IntoCacheSource, label: impl Into<String>) -> Labeled {
        Labeled {
            inner: inner.into_cache_source(),
            label: label.into(),
        }
    }
}

impl CacheSource for Labeled {
    fn get(&self, hash: SpecHash) -> Result<Option<&CacheEntry>, CacheError> {
        self.inner.get(hash)
    }

    fn candidates_for(&self, name: Sym) -> Result<Vec<&CacheEntry>, CacheError> {
        self.inner.candidates_for(name)
    }

    fn iter(&self) -> Result<Box<dyn Iterator<Item = &CacheEntry> + '_>, CacheError> {
        self.inner.iter()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn fingerprint(&self) -> Result<u64, CacheError> {
        self.inner.fingerprint()
    }

    fn fault_stats(&self) -> SourceFaultStats {
        self.inner.fault_stats()
    }
}

/// Conversion into a shared cache-source handle.
///
/// This is the argument seam of the owned concretizer API: any of the
/// following work where an `impl IntoCacheSource` is expected —
///
/// * an owned source (`BuildCache`, `ChainedCache`, a custom backend) —
///   moved into a fresh `Arc`; pass `cache.clone()` to keep using the
///   original (the clone is explicit on purpose — it is a real copy);
/// * `Arc<dyn CacheSource>` / `&Arc<dyn CacheSource>` — shared verbatim,
///   the zero-copy form long-lived and hot-path callers should use so
///   every solve reads one index instead of copying it.
///
/// Clones share the original's [`CacheSource::fingerprint`] (it is
/// content-derived), so ground-cache keys are unaffected
/// by which conversion a call site picks. (Coherence keeps this trait
/// from also accepting `&source` or `Arc<ConcreteType>` directly: a
/// downstream crate may implement `CacheSource` for its own references
/// or `Arc` wrappers, which would make those blanket impls ambiguous.
/// Coerce once — `let c: Arc<dyn CacheSource> = Arc::new(source);` —
/// and share `&c` from then on.)
pub trait IntoCacheSource {
    /// Produce the shared handle.
    fn into_cache_source(self) -> Arc<dyn CacheSource>;
}

impl<T: CacheSource + 'static> IntoCacheSource for T {
    fn into_cache_source(self) -> Arc<dyn CacheSource> {
        Arc::new(self)
    }
}

impl IntoCacheSource for Arc<dyn CacheSource> {
    fn into_cache_source(self) -> Arc<dyn CacheSource> {
        self
    }
}

impl IntoCacheSource for &Arc<dyn CacheSource> {
    fn into_cache_source(self) -> Arc<dyn CacheSource> {
        Arc::clone(self)
    }
}

/// Fault-handling policy for a [`ChainedCache`]: bounded retries with
/// capped exponential backoff and deterministic jitter, plus a
/// per-source circuit breaker.
///
/// Backoff for attempt *k* (1-based retry count) sleeps
/// `base_backoff * 2^(k-1)`, capped at `max_backoff`, scaled by a jitter
/// factor in `[0.5, 1.0)` drawn from a splitmix64 stream seeded by
/// (`jitter_seed`, call counter, attempt) — fully deterministic for a
/// fixed seed and call order, which is what lets the chaos suite replay
/// schedules bit-for-bit.
///
/// The breaker counts *consecutive* failed calls (a call = one lookup
/// after exhausting its retries) per source; at `breaker_threshold` it
/// opens and the next `breaker_cooldown` calls to that source fail fast
/// with a transient "circuit breaker open" error instead of touching the
/// backend. After the cooldown, one trial call passes through: success
/// closes the breaker, failure re-opens it. Cooldown is measured in
/// calls, not wall time, so behavior is deterministic under test.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per lookup (min 1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Consecutive failed calls that open a source's breaker
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
    /// Calls a source's breaker stays open before a trial call.
    pub breaker_cooldown: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5bac_cafe,
            breaker_threshold: 3,
            breaker_cooldown: 8,
        }
    }
}

impl RetryPolicy {
    /// No retries, no breaker: every backend error propagates on first
    /// occurrence. (Backoff fields are irrelevant at one attempt.)
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 0,
            ..RetryPolicy::default()
        }
    }

    /// The jittered backoff before retry `attempt` (1-based) of call
    /// number `call`.
    fn backoff(&self, call: u64, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.max_backoff);
        // Jitter factor in [0.5, 1.0): half the window is deterministic
        // headroom, the rest is seed-driven spread.
        let z = splitmix64(self.jitter_seed ^ (call << 8) ^ u64::from(attempt));
        let factor = 0.5 + 0.5 * (z as f64 / (u64::MAX as f64 + 1.0));
        capped.mul_f64(factor)
    }
}

/// The splitmix64 mixer: the deterministic randomness primitive behind
/// jitter and fault schedules (same construction the test RNGs use).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-source circuit-breaker state (shared across chain clones).
#[derive(Debug, Default)]
struct Breaker {
    consecutive_failures: AtomicU32,
    /// Chain call-counter value until which the breaker is open;
    /// 0 = closed.
    open_until: AtomicU64,
}

/// Live counters behind [`ChainedCache::fault_stats`].
#[derive(Debug, Default)]
struct ChainCounters {
    retries: AtomicU64,
    transient: AtomicU64,
    permanent: AtomicU64,
    corrupt: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_skips: AtomicU64,
}

/// An ordered overlay of cache sources with first-hit-wins lookup.
///
/// Earlier sources shadow later ones: `get` returns the first source's
/// entry for a hash, and `candidates_for`/`iter` deduplicate by DAG hash
/// in source order. Chains nest — a `ChainedCache` is itself a
/// `CacheSource`.
///
/// The chain is also the fault boundary for its sources: every lookup
/// runs under a [`RetryPolicy`] (retries + backoff + per-source circuit
/// breaker), `get` verifies the fetched entry hashes to the requested
/// key (a corrupt mirror surfaces as [`CacheError::Corrupt`], never as a
/// wrong binary), and errors that outlive the retry budget propagate
/// with the failing backend's label. The chain never silently skips a
/// failing source — whether to degrade is the caller's call.
///
/// The chain owns shared handles to its sources (`Arc<dyn CacheSource>`),
/// so it is `'static`, cheaply cloneable, and safe to hand to worker
/// threads — a chain built once at daemon startup serves every request.
/// Clones share breaker state and fault counters with the original.
#[derive(Clone, Default)]
pub struct ChainedCache {
    sources: Vec<Arc<dyn CacheSource>>,
    breakers: Vec<Arc<Breaker>>,
    policy: RetryPolicy,
    /// Monotonic per-chain call counter: the breaker's logical clock and
    /// the jitter stream's call index.
    calls: Arc<AtomicU64>,
    counters: Arc<ChainCounters>,
}

impl ChainedCache {
    /// An empty chain (resolves nothing).
    pub fn new() -> ChainedCache {
        ChainedCache::default()
    }

    /// A chain over `sources`, highest priority first.
    pub fn with<I, S>(sources: I) -> ChainedCache
    where
        I: IntoIterator<Item = S>,
        S: IntoCacheSource,
    {
        let mut chain = ChainedCache::new();
        for s in sources {
            chain.push(s);
        }
        chain
    }

    /// Replace the fault-handling policy (retries, backoff, breaker).
    pub fn with_policy(mut self, policy: RetryPolicy) -> ChainedCache {
        self.policy = policy;
        self
    }

    /// Append a source at the lowest priority.
    pub fn push(&mut self, source: impl IntoCacheSource) {
        self.sources.push(source.into_cache_source());
        self.breakers.push(Arc::new(Breaker::default()));
    }

    /// The chained sources, highest priority first.
    pub fn sources(&self) -> &[Arc<dyn CacheSource>] {
        &self.sources
    }

    /// The active fault-handling policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Labels of sources whose circuit breaker is currently open.
    pub fn open_breakers(&self) -> Vec<String> {
        let now = self.calls.load(Ordering::Relaxed);
        self.sources
            .iter()
            .zip(&self.breakers)
            .filter(|(_, b)| b.open_until.load(Ordering::Relaxed) > now)
            .map(|(s, _)| s.label().to_string())
            .collect()
    }

    /// Record an error of `err`'s class in the chain counters.
    fn count_error(&self, err: &CacheError) {
        match err {
            CacheError::Transient { .. } => &self.counters.transient,
            CacheError::Corrupt { .. } => &self.counters.corrupt,
            _ => &self.counters.permanent,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Run one lookup against source `idx` under the retry policy and
    /// its breaker. `f` is re-invoked on each attempt.
    fn call_source<'a, T>(
        &'a self,
        idx: usize,
        f: impl Fn(&'a dyn CacheSource) -> Result<T, CacheError>,
    ) -> Result<T, CacheError> {
        let source = &self.sources[idx];
        let breaker = &self.breakers[idx];
        let call = self.calls.fetch_add(1, Ordering::Relaxed);

        if breaker.open_until.load(Ordering::Relaxed) > call {
            self.counters.breaker_skips.fetch_add(1, Ordering::Relaxed);
            return Err(CacheError::transient(
                source.label(),
                "circuit breaker open (source down past its retry budget)",
            ));
        }

        let attempts = self.policy.max_attempts.max(1);
        let mut last_err: Option<CacheError> = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                let pause = self.policy.backoff(call, attempt - 1);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            match f(&**source) {
                Ok(v) => {
                    breaker.consecutive_failures.store(0, Ordering::Relaxed);
                    breaker.open_until.store(0, Ordering::Relaxed);
                    return Ok(v);
                }
                Err(e) => {
                    self.count_error(&e);
                    let retryable = e.is_retryable();
                    last_err = Some(e);
                    if !retryable {
                        break;
                    }
                }
            }
        }

        // The whole call failed; charge the breaker.
        let failures = breaker.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if self.policy.breaker_threshold > 0 && failures >= self.policy.breaker_threshold {
            let until = self
                .calls
                .load(Ordering::Relaxed)
                .saturating_add(u64::from(self.policy.breaker_cooldown));
            breaker.open_until.store(until, Ordering::Relaxed);
            breaker.consecutive_failures.store(0, Ordering::Relaxed);
            self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        Err(last_err.expect("at least one attempt ran"))
    }
}

impl CacheSource for ChainedCache {
    fn get(&self, hash: SpecHash) -> Result<Option<&CacheEntry>, CacheError> {
        for idx in 0..self.sources.len() {
            let hit = self.call_source(idx, |s| match s.get(hash)? {
                Some(e) if e.spec.dag_hash() != hash => Err(CacheError::corrupt(
                    s.label(),
                    format!(
                        "entry fetched under /{} hashes to /{}",
                        hash.short(),
                        e.spec.dag_hash().short()
                    ),
                )),
                other => Ok(other),
            })?;
            if hit.is_some() {
                return Ok(hit);
            }
        }
        Ok(None)
    }

    fn candidates_for(&self, name: Sym) -> Result<Vec<&CacheEntry>, CacheError> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for idx in 0..self.sources.len() {
            let entries = self.call_source(idx, |s| {
                let found = s.candidates_for(name)?;
                if let Some(bad) = found.iter().find(|e| e.spec.root().name != name) {
                    return Err(CacheError::corrupt(
                        s.label(),
                        format!(
                            "candidate for {name} roots {} instead",
                            bad.spec.root().name
                        ),
                    ));
                }
                Ok(found)
            })?;
            for e in entries {
                if seen.insert(e.spec.dag_hash()) {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }

    fn iter(&self) -> Result<Box<dyn Iterator<Item = &CacheEntry> + '_>, CacheError> {
        // Eager per source: each backend read runs under the retry
        // policy as one call, and the dedup is by first occurrence in
        // source order (same order as the infallible chain had).
        let mut seen = FxHashSet::default();
        let mut out: Vec<&CacheEntry> = Vec::new();
        for idx in 0..self.sources.len() {
            let entries =
                self.call_source(idx, |s| s.iter().map(Iterator::collect::<Vec<_>>))?;
            for e in entries {
                if seen.insert(e.spec.dag_hash()) {
                    out.push(e);
                }
            }
        }
        Ok(Box::new(out.into_iter()))
    }

    fn len(&self) -> usize {
        self.iter().map_or(0, Iterator::count)
    }

    fn label(&self) -> &str {
        "chain"
    }

    fn contains(&self, hash: SpecHash) -> Result<bool, CacheError> {
        Ok(self.get(hash)?.is_some())
    }

    fn fault_stats(&self) -> SourceFaultStats {
        let own = SourceFaultStats {
            retries: self.counters.retries.load(Ordering::Relaxed),
            transient_errors: self.counters.transient.load(Ordering::Relaxed),
            permanent_errors: self.counters.permanent.load(Ordering::Relaxed),
            corrupt_entries: self.counters.corrupt.load(Ordering::Relaxed),
            breaker_opens: self.counters.breaker_opens.load(Ordering::Relaxed),
            breaker_skips: self.counters.breaker_skips.load(Ordering::Relaxed),
            injected_faults: 0,
        };
        self.sources
            .iter()
            .fold(own, |acc, s| acc.merge(s.fault_stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Artifact;
    use crate::fault::{FaultConfig, FaultInjector};
    use spackle_spec::spec::{ConcreteSpecBuilder, DepTypes};
    use spackle_spec::Version;

    fn v(s: &str) -> Version {
        Version::parse(s).unwrap()
    }

    fn single(name: &str, ver: &str) -> spackle_spec::ConcreteSpec {
        let mut b = ConcreteSpecBuilder::new();
        let n = b.node(name, v(ver));
        b.build(n).unwrap()
    }

    fn pair(root: &str, dep: &str) -> spackle_spec::ConcreteSpec {
        let mut b = ConcreteSpecBuilder::new();
        let d = b.node(dep, v("1.0"));
        let r = b.node(root, v("2.0"));
        b.edge(r, d, DepTypes::LINK_RUN);
        b.build(r).unwrap()
    }

    /// A test policy with zero backoff so retry tests run instantly.
    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn chain_is_first_hit_wins() {
        let spec = single("zlib", "1.3");
        let hash = spec.dag_hash();
        let mut front = BuildCache::new();
        front.add_spec_with(&spec, |_| Artifact::build("/front", &[], vec![]).to_bytes());
        let mut back = BuildCache::new();
        back.add_spec_with(&spec, |_| Artifact::build("/back", &[], vec![]).to_bytes());

        let chain = ChainedCache::with(vec![front, back]);
        let hit = chain.get(hash).unwrap().expect("resolves");
        assert_eq!(hit.artifact().unwrap().own_prefix(), "/front");
        assert_eq!(chain.len(), 1, "shadowed entries count once");
    }

    #[test]
    fn chain_unions_distinct_entries() {
        let mut a = BuildCache::new();
        a.add_spec(&single("zlib", "1.2"));
        let mut b = BuildCache::new();
        b.add_spec(&single("zlib", "1.3"));
        b.add_spec(&pair("hdf5", "zlib"));

        let chain = ChainedCache::with(vec![a, b]);
        assert_eq!(chain.len(), 4); // zlib@1.2, zlib@1.3, zlib@1.0, hdf5
        assert_eq!(chain.candidates_for(Sym::intern("zlib")).unwrap().len(), 3);
        assert!(chain.contains(single("zlib", "1.2").dag_hash()).unwrap());
        assert!(chain.contains(pair("hdf5", "zlib").dag_hash()).unwrap());
        assert!(!chain.contains(single("zlib", "9.9").dag_hash()).unwrap());
    }

    #[test]
    fn chains_nest() {
        let mut a = BuildCache::new();
        a.add_spec(&single("zlib", "1.2"));
        let mut b = BuildCache::new();
        b.add_spec(&single("zlib", "1.3"));
        let inner = ChainedCache::with(vec![a]);
        let mut outer = ChainedCache::with(vec![inner]);
        outer.push(b);
        assert_eq!(outer.len(), 2);
        assert!(outer.contains(single("zlib", "1.2").dag_hash()).unwrap());
    }

    #[test]
    fn empty_chain_resolves_nothing() {
        let chain = ChainedCache::new();
        assert!(chain.is_empty());
        assert_eq!(chain.candidates_for(Sym::intern("zlib")).unwrap().len(), 0);
        assert!(chain.get(single("zlib", "1.3").dag_hash()).unwrap().is_none());
    }

    #[test]
    fn retries_recover_from_transient_faults() {
        let mut cache = BuildCache::new();
        let spec = single("zlib", "1.3");
        cache.add_spec(&spec);
        // Fail every other call: with 3 attempts per lookup, every
        // lookup eventually succeeds.
        let flaky = FaultInjector::new(cache, "flaky-mirror")
            .with_config(FaultConfig {
                seed: 7,
                error_rate: 0.5,
                transient_ratio: 1.0,
                ..FaultConfig::default()
            });
        // Enough attempts that no lookup in this fixed schedule exhausts
        // its budget; breaker off so every lookup reaches the backend.
        let chain = ChainedCache::with(vec![flaky]).with_policy(RetryPolicy {
            max_attempts: 12,
            breaker_threshold: 0,
            ..fast_policy()
        });
        for _ in 0..20 {
            assert!(chain.get(spec.dag_hash()).unwrap().is_some());
        }
        let stats = chain.fault_stats();
        assert!(stats.retries > 0, "some lookups must have retried: {stats:?}");
        assert!(stats.transient_errors > 0);
        assert_eq!(stats.permanent_errors, 0);
    }

    #[test]
    fn permanent_faults_do_not_retry() {
        let mut cache = BuildCache::new();
        let spec = single("zlib", "1.3");
        cache.add_spec(&spec);
        let down = FaultInjector::new(cache, "dead-mirror").with_config(FaultConfig {
            error_rate: 1.0,
            transient_ratio: 0.0,
            ..FaultConfig::default()
        });
        let chain = ChainedCache::with(vec![down]).with_policy(fast_policy());
        let err = chain.get(spec.dag_hash()).unwrap_err();
        assert!(matches!(err, CacheError::Permanent { .. }), "{err}");
        assert_eq!(err.backend(), Some("dead-mirror"));
        assert_eq!(chain.fault_stats().retries, 0, "permanent errors fail fast");
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let mut cache = BuildCache::new();
        let spec = single("zlib", "1.3");
        cache.add_spec(&spec);
        // Down for the first 10 inner calls, healthy afterwards.
        let outage = FaultInjector::new(cache, "mirror").with_config(FaultConfig {
            fail_calls: Some(0..10),
            ..FaultConfig::default()
        });
        let policy = RetryPolicy {
            max_attempts: 1,
            breaker_threshold: 2,
            breaker_cooldown: 4,
            ..fast_policy()
        };
        let chain = ChainedCache::with(vec![outage]).with_policy(policy);

        let mut skipped = 0u64;
        let mut recovered = false;
        for _ in 0..100 {
            match chain.get(spec.dag_hash()) {
                Ok(Some(_)) => {
                    recovered = true;
                    break;
                }
                Ok(None) => panic!("entry vanished"),
                Err(_) => {}
            }
            skipped = chain.fault_stats().breaker_skips;
        }
        assert!(recovered, "source must recover after the outage window");
        let stats = chain.fault_stats();
        assert!(stats.breaker_opens >= 1, "breaker must have opened: {stats:?}");
        assert!(skipped >= 1, "open breaker must fail calls fast");
        // Once recovered, the breaker stays closed.
        assert!(chain.get(spec.dag_hash()).unwrap().is_some());
        assert!(chain.open_breakers().is_empty());
    }

    #[test]
    fn corrupt_entries_are_detected_not_served() {
        let mut cache = BuildCache::new();
        let spec = single("zlib", "1.3");
        cache.add_spec(&spec);
        let corrupting = FaultInjector::new(cache, "bitrot").with_config(FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::default()
        });
        let chain = ChainedCache::with(vec![corrupting])
            .with_policy(RetryPolicy::no_retries());
        let err = chain.get(spec.dag_hash()).unwrap_err();
        assert!(matches!(err, CacheError::Corrupt { .. }), "{err}");
        assert!(chain.fault_stats().corrupt_entries >= 1);
    }

    #[test]
    fn labeled_wrapper_renames_without_changing_lookups() {
        let mut cache = BuildCache::new();
        let spec = single("zlib", "1.3");
        cache.add_spec(&spec);
        let labeled = Labeled::new(cache, "local");
        assert_eq!(labeled.label(), "local");
        assert!(labeled.get(spec.dag_hash()).unwrap().is_some());
        assert_eq!(labeled.len(), 1);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(16),
            ..RetryPolicy::default()
        };
        for call in 0..64u64 {
            for attempt in 1..4u32 {
                let a = p.backoff(call, attempt);
                let b = p.backoff(call, attempt);
                assert_eq!(a, b, "same (seed, call, attempt) → same backoff");
                assert!(a <= Duration::from_millis(16));
                assert!(a >= Duration::from_millis(2), "jitter floor is half the step");
            }
        }
    }
}
