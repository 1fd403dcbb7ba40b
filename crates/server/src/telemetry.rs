//! Service telemetry: lock-free counters shared by every worker thread.
//!
//! All counters are monotonic atomics except `in_flight`, a gauge
//! maintained by [`InFlightGuard`] (RAII, so a panicking handler still
//! decrements). The `stats` request snapshots everything; snapshots are
//! *per-counter* consistent (each value is an atomic load) but not a
//! single cross-counter transaction — good enough for monitoring, and
//! the price of staying off every hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cumulative service counters plus the in-flight gauge.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    requests: AtomicU64,
    concretizations: AtomicU64,
    failures: AtomicU64,
    in_flight: AtomicU64,
    solve_us_total: AtomicU64,
    solve_us_max: AtomicU64,
    conflicts: AtomicU64,
    decisions: AtomicU64,
    propagations: AtomicU64,
    restarts: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    budget_exhausted: AtomicU64,
    degraded_solves: AtomicU64,
    worker_panics: AtomicU64,
    explains: AtomicU64,
    explains_partial: AtomicU64,
    explain_probes: AtomicU64,
    explain_core_members: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Fresh telemetry; the uptime clock starts now.
    pub fn new() -> Telemetry {
        Telemetry {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            concretizations: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            solve_us_total: AtomicU64::new(0),
            solve_us_max: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            propagations: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            budget_exhausted: AtomicU64::new(0),
            degraded_solves: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            explains: AtomicU64::new(0),
            explains_partial: AtomicU64::new(0),
            explain_probes: AtomicU64::new(0),
            explain_core_members: AtomicU64::new(0),
        }
    }

    /// Count one incoming request and raise the in-flight gauge; the
    /// returned guard lowers it again when dropped.
    pub fn begin_request(&self) -> InFlightGuard<'_> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { telemetry: self }
    }

    /// Record one finished concretization attempt.
    pub fn record_solve(&self, wall: Duration, ok: bool) {
        if ok {
            self.concretizations.fetch_add(1, Ordering::Relaxed);
        }
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        self.solve_us_total.fetch_add(us, Ordering::Relaxed);
        self.solve_us_max.fetch_max(us, Ordering::Relaxed);
    }

    /// Record the SAT-search effort behind one concretization (the ASP
    /// engine's own `SolveStats` counters, summed service-wide).
    pub fn record_search(&self, conflicts: u64, decisions: u64, propagations: u64, restarts: u64) {
        self.conflicts.fetch_add(conflicts, Ordering::Relaxed);
        self.decisions.fetch_add(decisions, Ordering::Relaxed);
        self.propagations.fetch_add(propagations, Ordering::Relaxed);
        self.restarts.fetch_add(restarts, Ordering::Relaxed);
    }

    /// Record one failed request (any operation).
    pub fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request shed by overload protection. Shed requests are
    /// deliberately *not* failures: the client did nothing wrong and the
    /// structured `overloaded` response tells it when to retry.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one concretize request that hit its wall-clock deadline.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one concretize request that exhausted the conflict budget.
    pub fn record_budget_exhausted(&self) {
        self.budget_exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one solve that completed degraded (sources skipped).
    pub fn record_degraded(&self) {
        self.degraded_solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Record worker threads found panicked at drain time.
    pub fn record_worker_panics(&self, n: u64) {
        self.worker_panics.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one unsat explanation: how many core members survived
    /// minimization, how many deletion probes it cost, and whether
    /// minimization stopped early (`partial`).
    pub fn record_explain(&self, core_members: u64, probes: u64, partial: bool) {
        self.explains.fetch_add(1, Ordering::Relaxed);
        if partial {
            self.explains_partial.fetch_add(1, Ordering::Relaxed);
        }
        self.explain_probes.fetch_add(probes, Ordering::Relaxed);
        self.explain_core_members
            .fetch_add(core_members, Ordering::Relaxed);
    }

    /// Current in-flight gauge (cheap single load; used by overload
    /// protection on the request hot path).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Snapshot every counter.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            concretizations: self.concretizations.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            total_solve: Duration::from_micros(self.solve_us_total.load(Ordering::Relaxed)),
            max_solve: Duration::from_micros(self.solve_us_max.load(Ordering::Relaxed)),
            uptime: self.started.elapsed(),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            propagations: self.propagations.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            degraded_solves: self.degraded_solves.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            explains: self.explains.load(Ordering::Relaxed),
            explains_partial: self.explains_partial.load(Ordering::Relaxed),
            explain_probes: self.explain_probes.load(Ordering::Relaxed),
            explain_core_members: self.explain_core_members.load(Ordering::Relaxed),
        }
    }
}

/// RAII in-flight decrement (see [`Telemetry::begin_request`]).
#[derive(Debug)]
pub struct InFlightGuard<'a> {
    telemetry: &'a Telemetry,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.telemetry.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One point-in-time view of the counters.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Requests handled since boot (all operations).
    pub requests: u64,
    /// Successful concretizations since boot.
    pub concretizations: u64,
    /// Failed requests since boot.
    pub failures: u64,
    /// Requests currently in flight.
    pub in_flight: u64,
    /// Total concretization wall time since boot.
    pub total_solve: Duration,
    /// Slowest single concretization since boot.
    pub max_solve: Duration,
    /// Time since boot.
    pub uptime: Duration,
    /// SAT conflicts resolved across all concretizations.
    pub conflicts: u64,
    /// SAT decisions made across all concretizations.
    pub decisions: u64,
    /// SAT literal propagations across all concretizations.
    pub propagations: u64,
    /// SAT restarts performed across all concretizations.
    pub restarts: u64,
    /// Requests shed by overload protection.
    pub shed: u64,
    /// Concretize requests that hit their deadline.
    pub timeouts: u64,
    /// Concretize requests that exhausted the conflict budget.
    pub budget_exhausted: u64,
    /// Solves that completed degraded.
    pub degraded_solves: u64,
    /// Worker threads that panicked.
    pub worker_panics: u64,
    /// Unsat explanations produced.
    pub explains: u64,
    /// Explanations whose minimization stopped early.
    pub explains_partial: u64,
    /// Deletion probes run across all explanations.
    pub explain_probes: u64,
    /// Core members reported across all explanations (post-minimization).
    pub explain_core_members: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_across_threads() {
        let t = Arc::new(Telemetry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let _guard = t.begin_request();
                        t.record_solve(Duration::from_micros(i), i % 10 != 0);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let s = t.snapshot();
        assert_eq!(s.requests, 400);
        assert_eq!(s.concretizations, 4 * 90);
        assert_eq!(s.in_flight, 0, "every guard dropped");
        assert_eq!(s.max_solve, Duration::from_micros(99));
        assert_eq!(s.total_solve, Duration::from_micros(4 * 99 * 100 / 2));
    }

    #[test]
    fn search_effort_accumulates_exactly() {
        let t = Arc::new(Telemetry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        t.record_search(i, 2 * i, 10 * i, i % 3);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let s = t.snapshot();
        let tri = 49 * 50 / 2; // sum 0..50
        assert_eq!(s.conflicts, 4 * tri);
        assert_eq!(s.decisions, 8 * tri);
        assert_eq!(s.propagations, 40 * tri);
        assert_eq!(s.restarts, 4 * (0..50u64).map(|i| i % 3).sum::<u64>());
    }

    #[test]
    fn in_flight_guard_survives_panic() {
        let t = Telemetry::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = t.begin_request();
            panic!("handler died");
        }));
        assert!(result.is_err());
        assert_eq!(t.snapshot().in_flight, 0, "guard ran on unwind");
    }
}
