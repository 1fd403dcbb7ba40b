//! The chaos differential suite: every injected-fault schedule must
//! produce either the *fault-free oracle's answer, bit for bit* or a
//! structured error / degraded result — never a wrong answer, a hang,
//! or a panic.
//!
//! Shape: 8 random repo cases (the `genrepo` generator, same universe
//! as the differential suite) × 16 seeded fault schedules × 2 cache
//! topologies = 256 schedules. Each repo case gets a "local" cache
//! (the goal's own fault-free solution) and a "public" cache (every
//! repo package concretized as its own root), then each schedule wraps
//! the backends in [`FaultInjector`]s and solves the same goal:
//!
//! * **split topology** — local and public as separate top-level
//!   sources: degradation may drop either independently, and the
//!   result must match the fault-free oracle computed over exactly the
//!   surviving subset;
//! * **chained topology** — both backends inside one [`ChainedCache`]:
//!   the chain is deliberately strict (never silently skips a failing
//!   member), so degradation is all-or-nothing and a degraded result
//!   must match the source-only oracle.
//!
//! A 60-second cancel token backstops every faulty solve: fault-free
//! solves on these repos take milliseconds, so a fired deadline can
//! only mean a hang — which is a failure, not an accepted outcome.

use proptest::TestRng;
use spackle_asp::CancelToken;
use spackle_buildcache::{
    BuildCache, CacheSource, ChainedCache, FaultConfig, FaultInjector, RetryPolicy,
};
use spackle_core::{Concretizer, ConcretizerConfig, CoreError, Goal};
use spackle_oracle::genrepo::random_repo_and_spec;
use spackle_repo::Repository;
use std::sync::Arc;
use std::time::Duration;

const REPO_CASES: u64 = 8;
const FAULT_SCHEDULES: u64 = 16;
const SWEEP_SEED: u64 = 0x5bac_c405;

/// What a fault-free solve of a goal produces: the DAG hashes of its
/// solution, or unsatisfiability (a legitimate outcome for random
/// repos that a faulty solve must reproduce, not mask).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Oracle {
    Sat(Vec<String>),
    Unsat,
}

fn solve_oracle(
    repo: &Repository,
    goal: &Goal,
    sources: &[&BuildCache],
) -> Result<Oracle, String> {
    let mut conc = Concretizer::new(repo).with_config(ConcretizerConfig::splice_spack());
    for s in sources {
        conc = conc.with_reusable((*s).clone());
    }
    match conc.concretize_goal(goal) {
        Ok(sol) => Ok(Oracle::Sat(
            sol.specs.iter().map(|s| s.dag_hash().to_string()).collect(),
        )),
        Err(CoreError::Unsatisfiable) => Ok(Oracle::Unsat),
        Err(e) => Err(format!("fault-free oracle failed: {e}")),
    }
}

/// The two per-case backends: "local" holds the goal's own solution,
/// "public" holds every package of the repo solved as its own root.
/// Either may be empty (e.g. an unsatisfiable goal) — faults on an
/// empty backend still exercise the index-read error paths.
fn build_backends(repo: &Repository, goal: &Goal) -> (BuildCache, BuildCache) {
    let mut local = BuildCache::new();
    if let Ok(sol) = Concretizer::new(repo).concretize_goal(goal) {
        for spec in &sol.specs {
            local.add_spec(spec);
        }
    }
    let mut public = BuildCache::new();
    for pkg in repo.packages() {
        let single = Goal::single(
            spackle_spec::parse_spec(pkg.name.as_str()).expect("package names parse"),
        );
        if let Ok(sol) = Concretizer::new(repo).concretize_goal(&single) {
            for spec in &sol.specs {
                public.add_spec(spec);
            }
        }
    }
    (local, public)
}

/// One schedule's fault pair, spanning errors (transient and
/// permanent), corruption, latency, and hard outage windows on either
/// or both backends — all deterministic in (sweep seed, k).
fn fault_pair(k: u64) -> (FaultConfig, FaultConfig) {
    let s = SWEEP_SEED
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let none = FaultConfig::default();
    match k % 8 {
        0 => (none, FaultConfig::flaky(s, 0.4)),
        1 => (FaultConfig::flaky(s, 0.6), FaultConfig::flaky(s ^ 1, 0.6)),
        2 => (none, FaultConfig::down()),
        3 => (FaultConfig::hard_down(), FaultConfig::down()),
        4 => (
            FaultConfig {
                seed: s,
                corrupt_rate: 0.6,
                ..FaultConfig::default()
            },
            none,
        ),
        5 => (
            FaultConfig {
                seed: s,
                fail_calls: Some(0..4),
                ..FaultConfig::default()
            },
            FaultConfig {
                seed: s ^ 2,
                corrupt_rate: 0.3,
                error_rate: 0.3,
                transient_ratio: 0.5,
                ..FaultConfig::default()
            },
        ),
        6 => (
            FaultConfig {
                seed: s,
                error_rate: 0.5,
                transient_ratio: 0.0,
                latency_rate: 0.2,
                latency: Duration::from_micros(200),
                ..FaultConfig::default()
            },
            FaultConfig::flaky(s ^ 3, 0.8),
        ),
        _ => (
            FaultConfig {
                seed: s,
                error_rate: 0.25,
                transient_ratio: 0.7,
                corrupt_rate: 0.25,
                latency_rate: 0.1,
                latency: Duration::from_micros(100),
                ..FaultConfig::default()
            },
            FaultConfig {
                seed: s ^ 4,
                corrupt_rate: 0.5,
                ..FaultConfig::default()
            },
        ),
    }
}

/// Fast retry policy: real retry/breaker logic, microsecond sleeps.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_micros(500),
        breaker_threshold: 2,
        breaker_cooldown: 4,
        ..RetryPolicy::default()
    }
}

/// Aggregate evidence that the sweep actually exercised the machinery.
#[derive(Default)]
struct SweepTotals {
    schedules: u64,
    ok: u64,
    degraded: u64,
    structured_errors: u64,
    injected: u64,
    retries: u64,
    corrupt_seen: u64,
    breaker_opens: u64,
}

/// Run one faulty solve and check it against the subset oracles.
/// `oracles[mask]` is the fault-free answer over the surviving sources
/// (bit 0 = local, bit 1 = public).
#[allow(clippy::too_many_arguments)]
fn check_schedule(
    repo: &Repository,
    goal: &Goal,
    sources: Vec<Arc<dyn CacheSource>>,
    oracles: &[Oracle; 4],
    split: bool,
    label: &str,
    totals: &mut SweepTotals,
) -> Result<(), String> {
    totals.schedules += 1;
    let mut conc = Concretizer::new(repo)
        .with_config(ConcretizerConfig::splice_spack())
        .with_cancel(CancelToken::with_deadline(Duration::from_secs(60)));
    for s in &sources {
        conc = conc.with_reusable(s);
    }
    match conc.concretize_goal(goal) {
        Ok(sol) => {
            let faults = sol.stats.cache_faults;
            totals.injected += faults.injected_faults;
            totals.retries += faults.retries;
            totals.corrupt_seen += faults.corrupt_entries;
            totals.breaker_opens += faults.breaker_opens;
            if sol.stats.degraded == sol.stats.skipped_sources.is_empty() {
                return Err(format!(
                    "{label}: degraded flag disagrees with skipped sources: {:?}",
                    sol.stats.skipped_sources
                ));
            }
            // Which fault-free subset must this answer equal?
            let mut mask = 0b11usize;
            if split {
                for skipped in &sol.stats.skipped_sources {
                    match (skipped.backend.contains("local"), skipped.backend.contains("public")) {
                        (true, false) => mask &= !1,
                        (false, true) => mask &= !2,
                        _ => {
                            return Err(format!(
                                "{label}: unattributable skipped source {:?}",
                                skipped.backend
                            ))
                        }
                    }
                }
            } else if sol.stats.degraded {
                // One chained top-level source: dropping it drops both
                // backends.
                mask = 0;
            }
            let got = Oracle::Sat(
                sol.specs.iter().map(|s| s.dag_hash().to_string()).collect(),
            );
            if got != oracles[mask] {
                return Err(format!(
                    "{label}: answer diverges from fault-free oracle over subset \
                     {mask:#04b}: got {got:?}, want {:?} (skipped: {:?})",
                    oracles[mask], sol.stats.skipped_sources
                ));
            }
            if sol.stats.degraded {
                totals.degraded += 1;
            } else {
                totals.ok += 1;
            }
            Ok(())
        }
        // Unsat must match the oracle: faults may degrade or error a
        // solve, but they must never flip satisfiability silently.
        Err(CoreError::Unsatisfiable) => {
            // With degradation on, a cache fault never *causes* unsat
            // (sources only add reuse candidates); so unsat is only
            // correct if the goal is unsat without any sources too.
            if oracles[0] != Oracle::Unsat {
                return Err(format!("{label}: faulty solve reported unsat, oracle is sat"));
            }
            totals.ok += 1;
            Ok(())
        }
        // Structured cache/budget errors are honest outcomes.
        Err(e @ CoreError::Cache { .. }) | Err(e @ CoreError::BudgetExhausted { .. }) => {
            debug_assert!(!e.kind().is_empty());
            totals.structured_errors += 1;
            Ok(())
        }
        Err(CoreError::Cancelled { .. }) => {
            Err(format!("{label}: 60s safety deadline fired — the solve hung"))
        }
        Err(e) => Err(format!("{label}: unexpected error class: {e}")),
    }
}

#[test]
fn faults_never_change_answers_only_provenance() {
    let mut totals = SweepTotals::default();
    for case in 0..REPO_CASES {
        let mut rng = TestRng::seed_from_u64(SWEEP_SEED.wrapping_add(case));
        let (repo, spec) = random_repo_and_spec(&mut rng);
        let goal = Goal::single(spec.clone());
        let (local, public) = build_backends(&repo, &goal);

        // Fault-free oracles for every subset of surviving backends.
        let oracles: [Oracle; 4] = [
            solve_oracle(&repo, &goal, &[]).unwrap(),
            solve_oracle(&repo, &goal, &[&local]).unwrap(),
            solve_oracle(&repo, &goal, &[&public]).unwrap(),
            solve_oracle(&repo, &goal, &[&local, &public]).unwrap(),
        ];

        for k in 0..FAULT_SCHEDULES {
            let (cfg_local, cfg_public) = fault_pair(k);

            // Split topology: independent top-level sources.
            let split_sources: Vec<Arc<dyn CacheSource>> = vec![
                Arc::new(
                    ChainedCache::with(vec![
                        FaultInjector::new(local.clone(), "local").with_config(cfg_local.clone()),
                    ])
                    .with_policy(fast_policy()),
                ),
                Arc::new(
                    ChainedCache::with(vec![
                        FaultInjector::new(public.clone(), "public")
                            .with_config(cfg_public.clone()),
                    ])
                    .with_policy(fast_policy()),
                ),
            ];
            check_schedule(
                &repo,
                &goal,
                split_sources,
                &oracles,
                true,
                &format!("case {case} schedule {k} split goal {spec}"),
                &mut totals,
            )
            .unwrap();

            // Chained topology: both backends behind one strict chain.
            let chained: Vec<Arc<dyn CacheSource>> = vec![Arc::new(
                ChainedCache::with(vec![
                    FaultInjector::new(local.clone(), "local").with_config(cfg_local.clone()),
                    FaultInjector::new(public.clone(), "public").with_config(cfg_public.clone()),
                ])
                .with_policy(fast_policy()),
            )];
            check_schedule(
                &repo,
                &goal,
                chained,
                &oracles,
                false,
                &format!("case {case} schedule {k} chained goal {spec}"),
                &mut totals,
            )
            .unwrap();
        }
    }

    assert_eq!(totals.schedules, REPO_CASES * FAULT_SCHEDULES * 2);
    assert_eq!(
        totals.ok + totals.degraded + totals.structured_errors,
        totals.schedules,
        "every schedule classified exactly once"
    );
    // The sweep must actually bite: faults injected, retries spent,
    // corruption detected, degradation observed.
    assert!(totals.injected > 0, "no faults injected");
    assert!(totals.retries > 0, "retry machinery never engaged");
    assert!(totals.corrupt_seen > 0, "corruption never detected");
    assert!(totals.degraded > 0, "degradation never exercised");
    eprintln!(
        "chaos sweep: {} schedules, {} ok, {} degraded, {} structured errors, \
         {} injected faults, {} retries, {} corrupt entries, {} breaker opens",
        totals.schedules,
        totals.ok,
        totals.degraded,
        totals.structured_errors,
        totals.injected,
        totals.retries,
        totals.corrupt_seen,
        totals.breaker_opens,
    );
}
