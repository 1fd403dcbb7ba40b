//! **perf-report** — the concretization fast-path regression harness.
//!
//! Runs fig5/fig6-style multi-goal RADIUSS workloads through two
//! configurations of the same concretizer. The fig5 goals run twice,
//! over the local cache and over the public cache (`--public-dags`
//! synthesized DAGs merged with the local cache), so that the phase split
//! shows the paper's cache-size axis:
//!
//! * `sequential` — no memoization: every solve encodes, grounds,
//!   translates and searches (the baseline every prior figure
//!   measured);
//! * `cached`     — a shared [`spackle_core::GroundCache`], so repeated
//!   solves replay their interpreted answers: no encode, ground,
//!   translation, search or interpretation.
//!
//! Both modes must produce *identical* solutions (same DAG hashes, same
//! reuse/build/splice decisions) — the run exits nonzero on any
//! divergence, which is what the CI `bench-smoke` job gates on. Timing
//! and cache statistics are written to `BENCH_concretize.json`.
//!
//! Each mode also records its phase split (`phases_ms`): per-sweep means
//! of the encode, ground, translate, search and interpret times that
//! every solve reports in its `ConcretizeStats`, so a speedup of the
//! shipped solve path names the phase that shrank. A replayed answer
//! runs none of the five phases, so its phases read zero.
//!
//! On top of the per-workload modes the report carries:
//!
//! * a top-level `regressions` array naming every workload whose
//!   `cached` mode's min-of-trials speedup vs sequential rounds below
//!   1.0× — CI gates on this being empty, so a memoization regression is
//!   a named failure rather than a buried number;
//! * a `delta` workload exercising incremental reconcretization: warm
//!   the fig5 goals, land one new (least preferred) package version via
//!   `Repository::upsert` + `GroundCache::apply_delta`, then re-solve
//!   everything. Only the touched goal re-prepares; the rest ride their
//!   retained segments. Each of `--trials` cycles warms a fresh cache
//!   and times one delta pass; every pass must be bit-identical to cold
//!   solves of the post-delta world (`delta.equivalent`), and the median
//!   pass at least 5× faster than the median cold sweep
//!   (`delta.speedup_vs_cold`, gated by CI's `bench-smoke`).
//!
//! Usage:
//!   perf-report [--trials N] [--warmup N] [--goals N] [--delta-goals N]
//!               [--public-dags N] [--seed S] [--out PATH] [--smoke]
//!
//! `--smoke` shrinks the workloads for CI (fewer goals, smaller public
//! cache).

use serde::Serialize;
use spackle_bench::{mean_std_ms, median_ms, run_trials_warm, Args};
use spackle_buildcache::CacheSource;
use spackle_core::{repo_delta, Concretizer, ConcretizerConfig, Goal, GroundCache};
use spackle_radiuss::ExperimentEnv;
use spackle_repo::Repository;
use spackle_spec::{parse_spec, AbstractSpec, ConcreteSpec, Sym, Version};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A goal with its display name.
#[derive(Clone)]
struct NamedGoal {
    name: String,
    spec: AbstractSpec,
}

/// A canonical rendering of everything that makes two solutions "the
/// same": per-root DAG hashes plus the reuse / build / splice counts.
fn signature(
    goal: &NamedGoal,
    specs: &[ConcreteSpec],
    [reused, built, spliced]: [usize; 3],
) -> String {
    let hashes: Vec<String> = specs.iter().map(|s| s.dag_hash().to_string()).collect();
    format!(
        "{} specs=[{}] reused={reused} built={built} spliced={spliced}",
        goal.name,
        hashes.join(","),
    )
}

/// A sweep's phase times, summed over its solves: encode, ground,
/// translate, search, interpret.
type Phases = [Duration; 5];

/// One timed sweep over every goal in the workload; returns the wall
/// time, the per-goal solution signatures and the summed phase times.
fn sweep(
    repo: &Repository,
    cache: &Arc<dyn CacheSource>,
    config: &ConcretizerConfig,
    ground_cache: Option<&Arc<GroundCache>>,
    goals: &[NamedGoal],
) -> (Duration, Vec<String>, Phases) {
    let mut conc = Concretizer::new(repo)
        .with_config(config.clone())
        .with_reusable(cache);
    if let Some(gc) = ground_cache {
        conc = conc.with_ground_cache(Arc::clone(gc));
    }
    let t = Instant::now();
    let mut sigs = Vec::with_capacity(goals.len());
    let mut phases = Phases::default();
    for g in goals {
        let sol = conc
            .concretize(&g.spec)
            .unwrap_or_else(|e| panic!("perf-report {}: {e}", g.name));
        let counts = [sol.reused.len(), sol.built.len(), sol.spliced.len()];
        sigs.push(signature(g, &sol.specs, counts));
        let s = &sol.stats;
        let solve = [
            s.encode_time,
            s.solver.ground_time,
            s.solver.translate_time,
            s.solver.solve_time,
            s.interpret_time,
        ];
        for (sum, t) in phases.iter_mut().zip(solve) {
            *sum += t;
        }
    }
    (t.elapsed(), sigs, phases)
}

struct ModeResult {
    name: &'static str,
    mean_ms: f64,
    std_ms: f64,
    /// Fastest single trial — what cached-mode regression detection
    /// compares, so a one-off scheduling hiccup in one trial cannot
    /// fabricate a regression (or mask one: a real slowdown slows
    /// every trial).
    min_ms: f64,
    sigs: Vec<Vec<String>>,
    /// Per-sweep mean of each phase over the timed trials, in ms.
    phases_ms: [f64; 5],
    cache_hits: u64,
    cache_misses: u64,
}

/// Run one mode: `warmup` discarded sweeps, then `trials` timed ones.
/// The ground cache (when present) is deliberately shared across warmup
/// and trials — populating it is the warmup's job.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    name: &'static str,
    trials: usize,
    warmup: usize,
    repo: &Repository,
    cache: &Arc<dyn CacheSource>,
    config: &ConcretizerConfig,
    ground_cache: Option<&Arc<GroundCache>>,
    goals: &[NamedGoal],
) -> ModeResult {
    let mut sigs: Vec<Vec<String>> = Vec::new();
    let mut phases: Vec<Phases> = Vec::new();
    let times = run_trials_warm(trials, warmup, || {
        let (dt, s, p) = sweep(repo, cache, config, ground_cache, goals);
        sigs.push(s);
        phases.push(p);
        dt
    });
    // The warm-up sweeps come first; average the timed ones only.
    let timed = &phases[phases.len() - trials..];
    let phases_ms: [f64; 5] = std::array::from_fn(|i| {
        timed.iter().map(|p| p[i].as_secs_f64() * 1e3).sum::<f64>() / trials as f64
    });
    let (mean_ms, std_ms) = mean_std_ms(&times);
    let min_ms = times
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .fold(f64::INFINITY, f64::min);
    ModeResult {
        name,
        mean_ms,
        std_ms,
        min_ms,
        sigs,
        phases_ms,
        cache_hits: ground_cache.map_or(0, |gc| gc.hits()),
        cache_misses: ground_cache.map_or(0, |gc| gc.misses()),
    }
}

struct Workload<'a> {
    name: &'static str,
    repo: &'a Repository,
    cache: Arc<dyn CacheSource>,
    base_config: ConcretizerConfig,
    goals: Vec<NamedGoal>,
}

/// One mode's entry in `BENCH_concretize.json`. `speedup_vs_sequential`
/// is 1.0 for the sequential baseline itself; for `cached` it compares
/// best trial with best trial, because on a shared host the
/// mean-of-trials ratio measures machine load, not the code
/// (`mean_ms`/`std_ms` stay raw for exactly that diagnosis). The cache
/// counters are zero for the uncached mode.
#[derive(Serialize)]
struct ModeJson {
    mean_ms: f64,
    std_ms: f64,
    speedup_vs_sequential: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    phases_ms: PhasesJson,
}

/// Per-sweep means of the phase times each solve reports: encode (the
/// goal's facts and rules, assembled with the logic fragments into the
/// solver's program), ground, translate (CNF and the tightness check),
/// search (with stability checks and optimization) and interpret.
#[derive(Serialize)]
struct PhasesJson {
    encode: f64,
    ground: f64,
    translate: f64,
    search: f64,
    interpret: f64,
}

#[derive(Serialize)]
struct ModesJson {
    sequential: ModeJson,
    cached: ModeJson,
}

#[derive(Serialize)]
struct WorkloadJson {
    name: String,
    goals: Vec<String>,
    modes: ModesJson,
    equivalent: bool,
}

/// One named speedup regression: a mode whose min-of-trials speedup vs
/// the sequential baseline rounds below 1.0× (two decimals). CI gates on
/// this array being empty.
#[derive(Serialize)]
struct RegressionJson {
    workload: String,
    mode: String,
    speedup: f64,
}

/// The incremental-reconcretization workload: one package version lands
/// on a warm index, and only the touched goal pays for it.
#[derive(Serialize)]
struct DeltaJson {
    goals: Vec<String>,
    /// The package that gained a version (chosen to sit in exactly one
    /// goal's encode closure where possible).
    mutated_package: String,
    added_version: String,
    /// Goals whose encode closure contains the mutated package.
    affected_goals: usize,
    /// Segment fingerprints the delta moved.
    segments_changed: usize,
    /// Warm entries dropped by `apply_delta` (segments moved).
    entries_invalidated: usize,
    /// Warm entries retained (still hitting after the delta).
    entries_retained: usize,
    /// Median wall time of a cold full sweep on the post-delta world.
    cold_ms: f64,
    /// Median wall time of a delta-updated sweep, one per cycle.
    delta_ms: f64,
    /// Each cycle's delta-updated sweep, in run order.
    delta_trials_ms: Vec<f64>,
    /// `cold_ms / delta_ms`.
    speedup_vs_cold: f64,
    /// Every delta-updated sweep bit-identical to cold post-delta sweeps?
    equivalent: bool,
}

#[derive(Serialize)]
struct ReportJson {
    generated_by: String,
    workload: String,
    cpus: usize,
    trials: usize,
    warmup: usize,
    smoke: bool,
    public_dags: usize,
    seed: u64,
    workloads: Vec<WorkloadJson>,
    delta: DeltaJson,
    regressions: Vec<RegressionJson>,
}

impl ModeJson {
    fn from_result(m: &ModeResult, speedup_vs_sequential: f64) -> ModeJson {
        let total = m.cache_hits + m.cache_misses;
        ModeJson {
            mean_ms: round3(m.mean_ms),
            std_ms: round3(m.std_ms),
            speedup_vs_sequential: round3(speedup_vs_sequential),
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
            cache_hit_rate: if total > 0 {
                round3(m.cache_hits as f64 / total as f64)
            } else {
                0.0
            },
            phases_ms: PhasesJson {
                encode: round3(m.phases_ms[0]),
                ground: round3(m.phases_ms[1]),
                translate: round3(m.phases_ms[2]),
                search: round3(m.phases_ms[3]),
                interpret: round3(m.phases_ms[4]),
            },
        }
    }
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let trials = args.get_usize("trials", if smoke { 2 } else { 5 });
    let warmup = args.get_usize("warmup", 1);
    let goals_n = args.get_usize("goals", if smoke { 3 } else { 32 });
    let public_dags = args.get_usize("public-dags", if smoke { 50 } else { 300 });
    let seed = args.get_u64("seed", 42);
    let out_path = args.get_str("out", "BENCH_concretize.json");

    eprintln!("perf-report: setting up environment (public-dags={public_dags}, seed={seed})...");
    let t0 = Instant::now();
    let env = ExperimentEnv::setup(public_dags, seed);
    eprintln!(
        "perf-report: setup took {:?}; local cache = {} specs, public cache = {} specs",
        t0.elapsed(),
        env.local.len(),
        env.public.len()
    );

    // Workload 1 (fig5-style): plain RADIUSS roots, indirect encoding,
    // splicing off, local cache — the shipped `splice_spack_disabled`
    // preset.
    let fig5_goals: Vec<NamedGoal> = env
        .roots
        .iter()
        .take(goals_n)
        .map(|r| NamedGoal {
            name: r.as_str().to_string(),
            spec: parse_spec(r.as_str()).expect("root name"),
        })
        .collect();

    // Workload 2 (fig6-style): MPI-dependent roots pinned to the mpiabi
    // mock, full splicing, local cache.
    let fig6_goals: Vec<NamedGoal> = env
        .mpi_roots
        .iter()
        .take(goals_n)
        .map(|r| {
            let name = format!("{} ^mpiabi", r.as_str());
            NamedGoal {
                spec: parse_spec(&name).expect("mpi goal"),
                name,
            }
        })
        .collect();

    // One shared handle per cache: every workload (and every mode
    // within it) over a cache reads the same index, daemon-style.
    let local: Arc<dyn CacheSource> = Arc::new(env.local.clone());
    let public: Arc<dyn CacheSource> = Arc::new(env.public.clone());

    let workloads = [
        Workload {
            name: "fig5-multi-goal",
            repo: &env.repo_plain,
            cache: Arc::clone(&local),
            base_config: ConcretizerConfig::splice_spack_disabled(),
            goals: fig5_goals.clone(),
        },
        // Workload 3 (fig5 public): the same goals and preset over the
        // public cache, the cache-size axis of Fig 5.
        Workload {
            name: "fig5-public-multi-goal",
            repo: &env.repo_plain,
            cache: Arc::clone(&public),
            base_config: ConcretizerConfig::splice_spack_disabled(),
            goals: fig5_goals,
        },
        Workload {
            name: "fig6-splice-multi-goal",
            repo: &env.repo_mpiabi,
            cache: Arc::clone(&local),
            base_config: ConcretizerConfig::splice_spack(),
            goals: fig6_goals,
        },
    ];

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut diverged = false;
    let mut workload_reports = Vec::new();
    let mut regressions: Vec<RegressionJson> = Vec::new();

    for w in &workloads {
        eprintln!(
            "perf-report: workload {} ({} goals, {} trials + {} warmup per mode)",
            w.name,
            w.goals.len(),
            trials,
            warmup
        );

        let cfg = &w.base_config;
        let ground_cache = GroundCache::shared();
        let modes = [
            run_mode("sequential", trials, warmup, w.repo, &w.cache, cfg, None, &w.goals),
            run_mode(
                "cached",
                trials,
                warmup,
                w.repo,
                &w.cache,
                cfg,
                Some(&ground_cache),
                &w.goals,
            ),
        ];

        // Equivalence gate: every sweep of every mode must match the
        // first sequential sweep goal-for-goal.
        let reference = &modes[0].sigs[0];
        for m in &modes {
            for (i, s) in m.sigs.iter().enumerate() {
                if s != reference {
                    diverged = true;
                    eprintln!(
                        "perf-report: DIVERGENCE in {} mode {} sweep {i}:\n  expected {:?}\n  got      {:?}",
                        w.name, m.name, reference, s
                    );
                }
            }
        }
        // Named regression: a `cached` mode slower than the sequential
        // baseline is recorded by name, not buried in the numbers. It is
        // judged on best trials (min-of-trials on both sides), which is
        // noise-robust on loaded machines: its margin is an order of
        // magnitude, so a one-off scheduling hiccup cannot flip it.
        let cached_speedup = round2(modes[0].min_ms / modes[1].min_ms.max(1e-9));
        if cached_speedup < 1.0 {
            eprintln!(
                "perf-report: REGRESSION in {} mode {}: {cached_speedup:.2}x vs sequential",
                w.name, modes[1].name
            );
            regressions.push(RegressionJson {
                workload: w.name.to_string(),
                mode: modes[1].name.to_string(),
                speedup: cached_speedup,
            });
        }

        let seq_mean = modes[0].mean_ms;
        for m in &modes {
            eprintln!(
                "perf-report:   {:<10} {:>9.2} ms ± {:.2}{}",
                m.name,
                m.mean_ms,
                m.std_ms,
                if m.name == "sequential" {
                    String::new()
                } else {
                    format!("  ({:.2}x vs sequential)", seq_mean / m.mean_ms.max(1e-9))
                }
            );
        }

        workload_reports.push(WorkloadJson {
            name: w.name.to_string(),
            goals: w.goals.iter().map(|g| g.name.clone()).collect(),
            modes: ModesJson {
                sequential: ModeJson::from_result(&modes[0], 1.0),
                cached: ModeJson::from_result(&modes[1], cached_speedup),
            },
            equivalent: !diverged,
        });
    }

    // --- Delta workload: incremental reconcretization end-to-end ---
    //
    // Warm every fig5 goal through one shared ground cache, land one
    // new (least preferred, so solutions are unchanged) version on a
    // package sitting in exactly one goal's encode closure, partially
    // invalidate by segment, and re-solve the whole set. Untouched
    // goals replay their retained answers; only the touched goal
    // re-encodes / re-grounds / re-solves.
    let delta_goals_n = args.get_usize("delta-goals", if smoke { 12 } else { 32 });
    let delta_goals: Vec<NamedGoal> = env
        .roots
        .iter()
        .take(delta_goals_n)
        .map(|r| NamedGoal {
            name: r.as_str().to_string(),
            spec: parse_spec(r.as_str()).expect("root name"),
        })
        .collect();
    let delta_cfg = ConcretizerConfig::splice_spack_disabled();

    // Pick the mutated package: the first (in goal order, then name
    // order) that appears in exactly one goal's segment set, so the
    // delta invalidates exactly one entry. Falls back to the
    // least-shared package on pathological universes.
    let keyer = Concretizer::new(&env.repo_plain)
        .with_config(delta_cfg.clone())
        .with_reusable(&local);
    let segment_sets: Vec<_> = delta_goals
        .iter()
        .map(|g| {
            keyer
                .segment_key(&Goal::single(g.spec.clone()))
                .unwrap_or_else(|e| panic!("perf-report delta {}: {e}", g.name))
                .1
        })
        .collect();
    let mut counts: std::collections::BTreeMap<Sym, usize> = std::collections::BTreeMap::new();
    for set in &segment_sets {
        for (name, _) in &set.packages {
            *counts.entry(*name).or_default() += 1;
        }
    }
    let mutated = segment_sets
        .iter()
        .flat_map(|s| s.packages.iter().map(|(n, _)| *n))
        .find(|n| counts[n] == 1)
        .or_else(|| counts.iter().min_by_key(|(_, c)| **c).map(|(n, _)| *n))
        .expect("delta goals have non-empty closures");
    let affected_goals = counts[&mutated];
    let added_version = "999.0";
    eprintln!(
        "perf-report: delta workload ({} goals): adding {}@{added_version} \
         (in {affected_goals} goal closure{})",
        delta_goals.len(),
        mutated.as_str(),
        if affected_goals == 1 { "" } else { "s" },
    );

    // Land the delta: upsert the mutated definition and diff the
    // segment fingerprints.
    let mut repo_post = env.repo_plain.clone();
    let mut def = repo_post
        .get(mutated)
        .expect("mutated package exists")
        .clone();
    def.versions
        .push(Version::parse(added_version).expect("static version"));
    repo_post.upsert(def);
    let delta = repo_delta(&env.repo_plain, &repo_post);

    // Cold reference: full sweeps of the post-delta world with no cache.
    // Every delta-updated sweep must be bit-identical to these.
    let mut cold_sigs: Option<Vec<String>> = None;
    let mut delta_equivalent = true;
    let cold_times = run_trials_warm(trials, warmup.min(1), || {
        let (dt, sigs, _) = sweep(&repo_post, &local, &delta_cfg, None, &delta_goals);
        if cold_sigs.get_or_insert_with(|| sigs.clone()) != &sigs {
            delta_equivalent = false;
            eprintln!("perf-report: DIVERGENCE between cold sweeps of the delta workload");
        }
        dt
    });
    let cold_sigs = cold_sigs.expect("at least one cold sweep");

    // The timed delta cycles, each on a fresh ground cache: warm it on
    // the pre-delta world (untimed), partially invalidate it with
    // `apply_delta`, then time one sweep over every goal on the
    // post-delta world, riding the retained entries. One sweep takes a
    // few milliseconds, so the gate reads the median of `trials` cycles.
    let mut delta_report = None;
    let delta_times: Vec<Duration> = (0..trials)
        .map(|_| {
            let ground_cache = GroundCache::shared();
            sweep(
                &env.repo_plain,
                &local,
                &delta_cfg,
                Some(&ground_cache),
                &delta_goals,
            );
            delta_report = Some(ground_cache.apply_delta(&delta));
            let (dt, sigs, _) = sweep(
                &repo_post,
                &local,
                &delta_cfg,
                Some(&ground_cache),
                &delta_goals,
            );
            if sigs != cold_sigs {
                delta_equivalent = false;
                eprintln!(
                    "perf-report: DIVERGENCE in delta workload:\n  cold  {cold_sigs:?}\n  delta {sigs:?}"
                );
            }
            dt
        })
        .collect();
    let delta_report = delta_report.expect("at least one delta cycle");
    eprintln!(
        "perf-report:   apply_delta: {} segment(s) moved, {} entr{} invalidated, {} retained",
        delta.len(),
        delta_report.invalidated,
        if delta_report.invalidated == 1 {
            "y"
        } else {
            "ies"
        },
        delta_report.retained,
    );
    let cold_ms = median_ms(&cold_times);
    let delta_ms = median_ms(&delta_times);
    if !delta_equivalent {
        diverged = true;
    }
    let speedup_vs_cold = round2(cold_ms / delta_ms.max(1e-9));
    eprintln!(
        "perf-report:   delta sweep {delta_ms:.2} ms (median of {trials}) vs cold \
         {cold_ms:.2} ms ({speedup_vs_cold:.2}x); equivalent={delta_equivalent}"
    );

    let delta_json = DeltaJson {
        goals: delta_goals.iter().map(|g| g.name.clone()).collect(),
        mutated_package: mutated.as_str().to_string(),
        added_version: added_version.to_string(),
        affected_goals,
        segments_changed: delta.len(),
        entries_invalidated: delta_report.invalidated,
        entries_retained: delta_report.retained,
        cold_ms: round3(cold_ms),
        delta_ms: round3(delta_ms),
        delta_trials_ms: delta_times
            .iter()
            .map(|d| round3(d.as_secs_f64() * 1e3))
            .collect(),
        speedup_vs_cold,
        equivalent: delta_equivalent,
    };

    let report = ReportJson {
        generated_by: "spackle-bench perf-report".to_string(),
        workload: "multi-goal radiuss".to_string(),
        cpus,
        trials,
        warmup,
        smoke,
        public_dags,
        seed,
        workloads: workload_reports,
        delta: delta_json,
        regressions,
    };
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, pretty + "\n").expect("write report");
    eprintln!("perf-report: wrote {out_path}");

    if diverged {
        eprintln!("perf-report: FAILED — modes diverged; see above");
        std::process::exit(1);
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}
