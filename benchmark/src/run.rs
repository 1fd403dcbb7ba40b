//! One run of one workload: set-up, a reference sweep, the measured
//! phase, the answer checks, and the metrics.

use crate::calibrate::{HostSpeed, REFERENCE_MS};
use crate::clock::cpu_timed;
use crate::daemon::{run_load, serve_once, Load, Oracle, Rig};
use crate::solve::{
    solve, solve_traced, Answer, Signature, Traced, Tracer, COUNT_LAYERS, TIME_LAYERS,
};
use crate::stats::{
    median, percentile, samples_beyond, sweep_rate, tail_percentile, window_throughput,
};
use crate::workload::{build, goal_order, GoalSet, Scale, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Client connections of the daemon load: at most the two CPUs of the
/// reference host, so the load generator never starves the server.
const CONNECTIONS: usize = 2;

/// Equal windows the daemon's throughput is taken over.
const THROUGHPUT_WINDOWS: usize = 10;

/// Times the host's reference kernel runs during each sweep.
const HOST_SAMPLES_PER_SWEEP: usize = 4;

/// Golden cost vectors per workload and goal label. Every seed solves the
/// same goals over the same inputs, so one file serves them all.
type Golden = BTreeMap<String, BTreeMap<String, Vec<(i64, i64)>>>;

/// The committed golden file's contents.
fn golden() -> Golden {
    serde_json::from_str(include_str!("../golden/costs.json")).expect("golden file parses")
}

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input sizes.
    pub scale: Scale,
    /// Seed of the goal orders and the daemon's request stream.
    pub seed: u64,
    /// Timed units: sweeps of a cold workload (half of them, each an
    /// untraced and a traced sweep, when traced), or requests per
    /// connection of the daemon load.
    pub units: usize,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// How many times set-up runs; `setup_s` is the median.
    pub setups: usize,
    /// Check the reference answers against the golden file.
    pub check_golden: bool,
}

/// A metric's value and unit, as the result line carries it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricValue {
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line of one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Did every answer and every check pass?
    pub correct: bool,
    /// Answers checked.
    pub attempted: u64,
    /// Answers that were wrong or failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// A run's result plus what the caller prints or writes beside it.
pub struct Outcome {
    /// The result line.
    pub result: RunResult,
    /// Digest of the reference answers; equal digests mean two runs
    /// computed the same answers.
    pub answers: String,
    /// Human-readable remarks: sample counts and every failed check.
    pub notes: Vec<String>,
    /// Goal labels, indexed like the goal ids in the trace.
    pub labels: Vec<String>,
    /// Spans of the traced solves (empty when untraced).
    pub tracer: Tracer,
}

/// Counts checked answers and records why any failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Check one answer against the reference signature.
    fn answer(&mut self, what: &str, got: Result<&Signature, &String>, want: Option<&Signature>) {
        self.attempted += 1;
        match (got, want) {
            (Ok(got), Some(want)) if got == want => {}
            (Ok(got), Some(want)) => self.fail(format!("{what}: got {got:?}, reference {want:?}")),
            (Ok(_), None) => self.fail(format!("{what}: reference solve failed")),
            (Err(e), _) => self.fail(format!("{what}: {e}")),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Build the workload `setups` times (keeping the last build) and return
/// the median build time in CPU seconds, summed over the threads that
/// build the caches and scaled by the host's reference kernel, timed
/// just before each build. A daemon workload's build includes booting
/// its server and connecting its clients.
fn set_up(cfg: &RunConfig, host: &mut HostSpeed) -> Result<(GoalSet, Option<Rig>, f64), String> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some((_, Some(rig))) = built.take() {
            Rig::shutdown(rig)?;
        }
        host.sample();
        let (b, took) = cpu_timed(|| -> Result<_, String> {
            let set = build(cfg.workload, &cfg.scale);
            let rig = match cfg.workload {
                Workload::DaemonMixed => Some(Rig::boot(&set, CONNECTIONS)?),
                _ => None,
            };
            Ok((set, rig))
        });
        times.push(took.as_secs_f64() * host.factor());
        built = Some(b?);
    }
    let (set, rig) = built.expect("at least one set-up");
    Ok((set, rig, median(&times).expect("non-empty")))
}

/// Solve every goal once, untraced, in set order: the answers every later
/// answer must equal. Checks the workload's own invariants on the way.
fn reference(
    cfg: &RunConfig,
    set: &GoalSet,
    checks: &mut Checks,
    host: &mut HostSpeed,
) -> Vec<Option<Answer>> {
    let golden = if cfg.check_golden {
        golden().remove(cfg.workload.name())
    } else {
        None
    };
    if cfg.check_golden && golden.is_none() {
        checks.fail("golden file has no entry for this workload".to_string());
    }
    let mut answers = Vec::new();
    for (k, case) in set.cases.iter().enumerate() {
        pace(host, k, set.len());
        let label = case.spec.label();
        let (_, answer) = solve(case);
        checks.attempted += 1;
        let answer = match answer {
            Ok(a) => a,
            Err(e) => {
                checks.fail(format!("reference {label}: {e}"));
                answers.push(None);
                continue;
            }
        };
        if answer.forbidden_present {
            checks.fail(format!(
                "reference {label}: a forbidden package is in the answer"
            ));
        }
        if cfg.workload.must_splice() && answer.sig.spliced == 0 {
            checks.fail(format!("reference {label}: expected at least one splice"));
        }
        if let Some(golden) = &golden {
            if golden.get(&label) != Some(&answer.cost) {
                checks.fail(format!(
                    "reference {label}: cost {:?}, golden {:?}",
                    answer.cost,
                    golden.get(&label)
                ));
            }
        }
        answers.push(Some(answer));
    }
    answers
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The sweeps of one run and everything they check and record.
struct Sweeps<'a> {
    set: &'a GoalSet,
    seed: u64,
    labels: Vec<String>,
    reference: Vec<Option<Answer>>,
    checks: Checks,
    sweeps: u64,
    /// Untraced latencies per goal, scaled ms.
    untraced: Vec<Vec<f64>>,
    /// Each untraced sweep's summed latencies, scaled ms.
    sweep_ms: Vec<f64>,
    /// Traced measurements per goal, scaled.
    traced: Vec<Vec<Traced>>,
    tracer: Tracer,
    /// The reference kernel, timed before every build and through every
    /// sweep.
    host: HostSpeed,
}

/// Time the reference kernel before the `k`-th solve of a sweep of
/// `goals` if that solve starts one of the sweep's
/// [`HOST_SAMPLES_PER_SWEEP`] equal parts, so that every solve is scaled
/// by a sample taken less than a second before it.
fn pace(host: &mut HostSpeed, k: usize, goals: usize) {
    if k.is_multiple_of(goals.div_ceil(HOST_SAMPLES_PER_SWEEP)) {
        host.sample();
    }
}

impl Sweeps<'_> {
    fn want(&self, goal: usize) -> Option<&Signature> {
        self.reference[goal].as_ref().map(|a| &a.sig)
    }

    fn check(&mut self, what: String, goal: usize, got: Result<&Signature, &String>) {
        let want = self.reference[goal].as_ref().map(|a| &a.sig);
        self.checks.answer(&what, got, want);
    }

    /// The next sweep's number and goal order.
    fn next(&mut self) -> (u64, Vec<usize>) {
        self.sweeps += 1;
        (
            self.sweeps,
            goal_order(self.seed, self.sweeps, self.set.len()),
        )
    }

    /// One untraced sweep.
    fn untraced_sweep(&mut self) {
        let (_, order) = self.next();
        let mut total = 0.0;
        for (k, i) in order.into_iter().enumerate() {
            pace(&mut self.host, k, self.set.len());
            let (elapsed, answer) = solve(&self.set.cases[i]);
            let scaled = ms(elapsed) * self.host.factor();
            self.untraced[i].push(scaled);
            total += scaled;
            self.check(self.labels[i].clone(), i, answer.as_ref().map(|a| &a.sig));
        }
        self.sweep_ms.push(total);
    }

    /// One traced sweep.
    fn traced_sweep(&mut self) {
        let (sweep, order) = self.next();
        for (k, i) in order.into_iter().enumerate() {
            pace(&mut self.host, k, self.set.len());
            let what = format!("traced {}", self.labels[i]);
            match solve_traced(
                &self.set.cases[i],
                &self.set.sources,
                i,
                sweep,
                &mut self.tracer,
            ) {
                Ok((t, answer)) => {
                    self.traced[i].push(t.scaled(self.host.factor()));
                    self.check(what, i, Ok(&answer.sig));
                }
                Err(e) => self.check(what, i, Err(&e)),
            }
        }
    }

    /// Check every served answer against the cold answer of the world
    /// it was served in.
    fn check_served(&mut self, load: &Load) {
        let reference: Vec<Option<Signature>> =
            (0..self.set.len()).map(|i| self.want(i).cloned()).collect();
        let mut oracle = Oracle::new(self.set, &load.updates, &reference);
        for s in &load.served {
            let want = oracle.expected(s);
            let what = format!("served {}", self.labels[s.goal]);
            self.checks.answer(&what, s.answer.as_ref(), want.as_ref());
        }
        self.checks.attempted += load.updates.len() as u64;
        for e in &load.update_failures {
            self.checks.fail(format!("update: {e}"));
        }
    }
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut host = HostSpeed::default();
    let (set, rig, setup_s) = set_up(cfg, &mut host)?;
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut notes = Vec::new();

    // The daemon serves before anything else runs in this process, so it
    // starts cold; one request per goal fills its ground cache before the
    // measured load, as the first requests after a boot would.
    let load = match rig {
        Some(mut rig) => {
            let warm_up = serve_once(&mut rig, &set);
            let load = run_load(&mut rig, &set, cfg.seed, cfg.units, cfg.scale.update_every);
            let stats = rig.stats()?;
            rig.shutdown()?;
            Some((warm_up, load, stats))
        }
        None => None,
    };

    let mut checks = Checks::default();
    let reference = reference(cfg, &set, &mut checks, &mut host);
    let mut s = Sweeps {
        set: &set,
        seed: cfg.seed,
        labels: set.cases.iter().map(|c| c.spec.label()).collect(),
        reference,
        checks,
        sweeps: 0,
        untraced: vec![Vec::new(); set.len()],
        sweep_ms: Vec::new(),
        traced: vec![Vec::new(); set.len()],
        tracer: Tracer::default(),
        host,
    };

    match (&load, cfg.trace) {
        (Some((warm_up, load, _)), false) => {
            s.check_served(warm_up);
            s.check_served(load);
            // The solve time the server reports goes on the reference
            // host's scale, like a cold solve's, by the run's median kernel
            // time (the kernel cannot run beside the load without slowing
            // it); the rest of the round trip (queueing, JSON, TCP and the
            // delayed-ACK wait) stays as measured.
            let scale = s.host.run_factor()?;
            let latencies: Vec<f64> = load
                .served
                .iter()
                .map(|r| r.round_trip_ms - r.solve_ms * (1.0 - scale))
                .collect();
            latency_metrics(&mut metrics, &mut notes, &latencies);
            let misses = load.served.iter().filter(|s| !s.hit).count();
            notes.push(format!(
                "{misses} of {} concretize requests ({:.1}%) missed the ground cache",
                latencies.len(),
                100.0 * misses as f64 / latencies.len().max(1) as f64
            ));
            let throughput = window_throughput(&load.completions, load.span, THROUGHPUT_WINDOWS);
            metrics.push(("throughput_per_s".into(), throughput.unwrap_or(0.0), "1/s"));
            notes.push(format!(
                "{} requests ({} updates) over {:.1} s on {CONNECTIONS} connections",
                load.completions.len(),
                load.updates.len(),
                load.span.as_secs_f64()
            ));
        }
        (Some((warm_up, load, stats)), true) => {
            s.check_served(warm_up);
            s.check_served(load);
            s.untraced_sweep();
            s.traced_sweep();
            layer_metrics(&mut metrics, &mut s);
            server_metrics(&mut metrics, load, stats);
        }
        (None, false) => {
            for _ in 0..cfg.units {
                s.untraced_sweep();
            }
            notes.push(format!("{} timed sweeps of {} goals", cfg.units, set.len()));
            let solves: Vec<f64> = s.untraced.concat();
            latency_metrics(&mut metrics, &mut notes, &solves);
            let throughput = sweep_rate(set.len(), &s.sweep_ms);
            metrics.push(("throughput_per_s".into(), throughput.unwrap_or(0.0), "1/s"));
        }
        (None, true) => {
            // Alternate untraced and traced sweeps so that drift on a
            // shared host hits both sides of the overhead comparison.
            let rounds = cfg.units.div_ceil(2);
            for _ in 0..rounds {
                s.untraced_sweep();
                s.traced_sweep();
            }
            layer_metrics(&mut metrics, &mut s);
            // Serve the goals once through a fresh spackled: what the wire
            // adds to this workload's cold solves.
            let mut rig = Rig::boot(&set, 1)?;
            let served = serve_once(&mut rig, &set);
            let stats = rig.stats()?;
            rig.shutdown()?;
            s.check_served(&served);
            server_metrics(&mut metrics, &served, &stats);
            notes.push(format!("{rounds} rounds of an untraced and a traced sweep"));
        }
    }

    let scale = s.host.run_factor()?;
    if !cfg.trace {
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb()?, "MB"));
    }
    notes.push(format!(
        "host: reference kernel median {:.3} ms against {REFERENCE_MS} ms, run factor {scale:.4}",
        s.host.median_ms().unwrap_or(0.0),
    ));

    let sigs: Vec<Option<&Signature>> = (0..set.len()).map(|i| s.want(i)).collect();
    let mut digest = std::collections::hash_map::DefaultHasher::new();
    sigs.hash(&mut digest);
    notes.extend(s.checks.problems.iter().take(20).cloned());
    Ok(Outcome {
        result: RunResult {
            correct: s.checks.failed == 0,
            attempted: s.checks.attempted,
            failed: s.checks.failed,
            metrics: metrics
                .into_iter()
                .map(|(name, value, unit)| {
                    (
                        name,
                        MetricValue {
                            value,
                            unit: unit.to_string(),
                        },
                    )
                })
                .collect(),
        },
        answers: format!("{:016x}", digest.finish()),
        notes,
        labels: s.labels,
        tracer: s.tracer,
    })
}

/// `latency_p50_ms` and `latency_tail_ms` of `samples`: their median and
/// the highest of p99.9, p99 and p90 that leaves at least ten samples
/// beyond it (p90 when none does, as in a smoke run). The note states the
/// sample count, which percentile the tail is and how many samples lie
/// beyond it.
fn latency_metrics(
    metrics: &mut Vec<(String, f64, &'static str)>,
    notes: &mut Vec<String>,
    samples: &[f64],
) {
    let n = samples.len();
    let tail = tail_percentile(n).unwrap_or(90.0);
    let p50 = percentile(samples, 50.0).unwrap_or(0.0);
    let p_tail = percentile(samples, tail).unwrap_or(0.0);
    metrics.push(("latency_p50_ms".into(), p50, "ms"));
    metrics.push(("latency_tail_ms".into(), p_tail, "ms"));
    notes.push(format!(
        "latency: {n} samples, p50 {p50:.3} ms, tail p{tail} {p_tail:.3} ms with {} samples beyond",
        samples_beyond(n, tail)
    ));
}

/// Time per sweep: each goal's median sample, summed over the goals.
fn per_sweep(samples: &[Vec<f64>]) -> f64 {
    samples.iter().filter_map(|g| median(g)).sum()
}

/// Per-layer times (each goal's median, summed over goals), counts (one
/// sweep's worth, which must repeat exactly) and the tracing overhead.
fn layer_metrics(metrics: &mut Vec<(String, f64, &'static str)>, s: &mut Sweeps) {
    let traced = |f: &dyn Fn(&Traced) -> f64| -> f64 {
        let samples: Vec<Vec<f64>> = s.traced.iter().map(|t| t.iter().map(f).collect()).collect();
        per_sweep(&samples)
    };
    for (k, name) in TIME_LAYERS.iter().enumerate() {
        metrics.push((name.to_string(), traced(&|t| t.times_ms[k]), "ms"));
    }
    let traced_ms = traced(&|t| t.chain_ms);
    let untraced_ms = per_sweep(&s.untraced);
    let overhead = if untraced_ms > 0.0 {
        (traced_ms / untraced_ms - 1.0) * 100.0
    } else {
        0.0
    };
    metrics.push(("trace.overhead_pct".into(), overhead, "%"));
    for (k, (name, unit)) in COUNT_LAYERS.iter().enumerate() {
        let mut total = 0u64;
        for (samples, label) in s.traced.iter().zip(&s.labels) {
            let Some(first) = samples.first() else {
                continue;
            };
            if samples.iter().any(|t| t.counts[k] != first.counts[k]) {
                s.checks
                    .fail(format!("{label}: {name} differs between traced sweeps"));
            }
            total += first.counts[k];
        }
        metrics.push((name.to_string(), total as f64, unit));
    }
}

/// Wire and server-side solve times of the served requests, and the
/// server's ground-cache counters.
fn server_metrics(
    metrics: &mut Vec<(String, f64, &'static str)>,
    load: &Load,
    stats: &spackle_server::Response,
) {
    let solve: Vec<f64> = load.served.iter().map(|s| s.solve_ms).collect();
    let wire: Vec<f64> = load
        .served
        .iter()
        .map(|s| s.round_trip_ms - s.solve_ms)
        .collect();
    for (name, samples) in [("server.wire_ms", &wire), ("server.solve_ms", &solve)] {
        for p in [50.0, 99.0] {
            metrics.push((
                format!("{name}_p{p}"),
                percentile(samples, p).unwrap_or(0.0),
                "ms",
            ));
        }
    }
    metrics.push(("core.ground_cache.hit_rate".into(), stats.hit_rate, "ratio"));
    metrics.push((
        "core.ground_cache.entries".into(),
        stats.cache_entries as f64,
        "count",
    ));
    metrics.push((
        "core.ground_cache.invalidated".into(),
        stats.invalidated as f64,
        "count",
    ));
    metrics.push((
        "core.ground_cache.retained".into(),
        stats.segments_retained as f64,
        "count",
    ));
    metrics.push((
        "core.ground_cache.salvaged".into(),
        stats.salvaged_translations as f64,
        "count",
    ));
}
