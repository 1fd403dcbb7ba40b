//! **benchmark** — the repository's end-to-end and per-layer benchmark.
//!
//! The paper judges splicing by concretization time along two axes:
//! buildcache size (Fig 5/6, local vs public cache) and splice-candidate
//! count (Fig 7). Four workloads cover those axes and the service path,
//! each stressing a different layer. Every solve uses a shipped preset
//! (`splice_spack_disabled` or `splice_spack`: one grounding thread, no
//! dead-rule pruning), which is what `spackle` and `spackled` run.
//!
//! | workload | inputs | why |
//! |---|---|---|
//! | `rq1-public` | 32 RADIUSS roots, `no-splice`, public cache (1000 synthesized DAGs merged with the local cache) | RQ1's cache-size axis. The largest fact base makes encode, parse, ground and CNF preprocessing scale with cache size; search stays minor. With splicing off it is the bypass for splice-candidate costs. |
//! | `splice-public` | the 15 MPI roots `^mpiabi`, `splice`, public cache | Fig 6 / RQ3: splicing over a big cache, the largest search share of any workload. |
//! | `replicas-100` | the 15 MPI roots, `mpich` forbidden, 100 `mpiabi` replicas, the local cache's mpich builds | Fig 7 / RQ4: `can_splice` instances grow with the replicas, so grounding takes its largest share here. Every answer must splice. |
//! | `daemon-mixed` | an in-process `spackled` over RADIUSS + `mpiabi` and the local cache, booted cold and sent each of 47 goals once (32 `no-splice`, 15 `splice`); then 2 closed-loop connections of the shipped client draw requests from the goals by seed, and every 16th request on connection 0 adds version `999.<k>` to one of the 32 goal root packages, each once, in seeded order | The only workload on the wire, the ground cache and the model memo. Grounding and preprocessing run only on misses, which the updates cause after `apply_delta`. |
//!
//! The seed orders each sweep's goals, draws the daemon's requests and
//! orders its updates; the repositories, caches and the set of updated
//! packages are fixed inputs, the same for every seed. The cold workloads
//! solve each goal with a fresh `Concretizer` and no ground cache: one
//! reference sweep, then a fixed number of timed sweeps. Sample counts are
//! fixed constants scaled by `--seconds` (see `Workload::units`), never by
//! how fast the code runs, so every commit is measured over the same
//! samples; at 20 s each goal is solved 6 times on `rq1-public` and 8
//! times on `splice-public` and `replicas-100` (192, 120 and 120 solves),
//! and `daemon-mixed` sends 2 × 520 requests, 1008 of them concretize
//! requests.
//!
//! **End-to-end metrics** (`--trace 0`). A cold workload times each
//! `Concretizer::concretize_goal` call by the CPU time of the process: the
//! solve runs on one thread and does no I/O, so on an idle host that is
//! its wall time, but unlike wall time it leaves out the stretches in
//! which the hypervisor runs other tenants on the vCPU. Each time is then
//! scaled to the reference host (see **Host speed**). `latency_p50_ms`
//! and `latency_tail_ms` are percentiles of every timed solve (160 on
//! `rq1-public`, 105 on the others; the reference sweep is not timed), the
//! tail being the highest of p99.9, p99 and p90 that leaves at least ten
//! samples beyond it: p90 here. `throughput_per_s` is goals per sweep over
//! the median sweep time, which, unlike the p50, weighs each goal by its
//! cost. On `daemon-mixed` the latencies are every concretize round trip,
//! none dropped, since hits and misses do different work; the tail is p99
//! (at least ten of 1008 samples beyond it), which falls among the
//! ground-cache misses the updates cause (about 7% of the requests), and
//! throughput is the median of 10 equal windows of completed requests per
//! second. Standard error states the sample counts, the percentile, how
//! many samples lie beyond it and the share of requests that missed.
//! `setup_s` is the median scaled CPU time of 5 builds of the workload's
//! inputs and state (repository, caches, server boot), summed over the
//! threads that build the caches; `peak_rss_mb` is the process's `VmHWM`.
//! Failed or wrong answers are the result line's `failed`, out of
//! `attempted`; an error rate would read 0 on a correct run, so it is not
//! a metric.
//!
//! **Host speed.** The shared hosts the benchmark runs on change speed by
//! up to 2x for tens of seconds at a time, and CPU time slows as much as
//! wall time: other tenants' cache and memory traffic slows every
//! instruction. Each run therefore also times a reference kernel that
//! uses none of the repository's code (`calibrate.rs`: string, hashing,
//! sorting and B-tree work), in a child process before every build and
//! four times a sweep, and multiplies every CPU time it measures (solves,
//! layers, builds) by `REFERENCE_MS` over the kernel sample taken just
//! before it: the values read in ms of the host the benchmark was defined
//! on. A change to the code under test moves the solves and not the
//! kernel. In a `daemon-mixed` round trip only the solve time the server
//! reports is scaled, by the run's median kernel time, since the kernel
//! cannot run beside the load without slowing it; the rest (queueing,
//! JSON, TCP and a 40 ms delayed-ACK wait) is wall time as measured.
//! Standard error states the kernel's median time.
//!
//! **Bounds.** Every bound is 0.25, the most the benchmark contract
//! allows, widened from the 0.10 first planned. On a shared 2-vCPU x86-64
//! host, three sets of ten runs per workload (a different seed each run)
//! gave spreads (interquartile range over median) of up to 0.13 on the
//! `replicas-100` and `daemon-mixed` tails and 0.04-0.11 on the other
//! latencies and throughputs, `setup_s` 0.01-0.07, `peak_rss_mb` at most
//! 0.05; the sets' medians differed by at most 10%. A 0.10 bound would
//! sit inside that spread. Without the host-speed scaling the cold
//! workloads' spreads reached 0.69 on the same runs.
//!
//! **Checks.** Every answer must equal the reference sweep's (DAG hashes
//! plus reuse, build and splice counts), and the reference cost vectors
//! must match `golden/costs.json`. `replicas-100` answers contain no
//! `mpich`; every `splice-public` and `replicas-100` answer splices. A
//! served answer must equal an in-process cold solve of the world it was
//! served in: an appended version keeps every cost vector but can move a
//! co-optimal tie, so the world before an update is not the reference for
//! a request after it. Failures count in `failed`.
//!
//! **Per-layer metrics** (`--trace 1`): a separate run alternates
//! untraced sweeps with traced ones, which call the stages
//! `concretize_goal` runs in order, each through its public function:
//! `parse_spec`, `Concretizer::program_text`, `parse_program`,
//! `Solver::ground`, `Solver::translate_ground`,
//! `Solver::solve_translated`, `interpret`. A side call of
//! `cnf::translate` gives `asp.cnf_ms`; `asp.preprocess_ms` is the rest of
//! `translate_ground`. Layer times are scaled CPU ms per sweep (each
//! goal's median, summed over goals); counts are per sweep and repeat
//! exactly.
//! `trace.overhead_pct` compares the traced stage sum with the untraced
//! latency. Each cold workload then serves its goals once through a fresh
//! `spackled`, giving `server.*` (wire = round trip minus the response's
//! `solve_ms`) and `core.ground_cache.*`; `daemon-mixed` reads those from
//! its load and its stage metrics from one traced cold sweep of its goals.
//! Spans go to `<trace-out>/trace-<workload>.jsonl`.
//!
//! Which end-to-end metric each layer should move:
//!
//! | layer metrics | should move |
//! |---|---|
//! | `asp.preprocess_ms`, `asp.pre_*` | `latency_p50_ms`, `throughput_per_s` on `rq1-public`, `splice-public` |
//! | `asp.ground_ms`, `asp.ground_*` | `latency_tail_ms`, `throughput_per_s`, most on `replicas-100` |
//! | `asp.search_ms`, `asp.conflicts`, `asp.decisions`, `asp.propagations`, `asp.stability_restarts`, `asp.optimize_probes` | `latency_tail_ms`, most on `splice-public` |
//! | `asp.cnf_ms`, `asp.sat_vars` | `latency_p50_ms` on every cold workload |
//! | `core.encode_ms`, `core.program_bytes`, `asp.parse_ms`, `asp.parsed_rules` | `latency_p50_ms` on `rq1-public` |
//! | `spec.parse_ms`, `core.interpret_ms` | nothing (under 1%) |
//! | `server.wire_ms_*` | `latency_p50_ms`, `throughput_per_s` on `daemon-mixed` |
//! | `server.solve_ms_*`, `core.ground_cache.*` | `latency_tail_ms`, `peak_rss_mb` on `daemon-mixed` |
//!
//! Usage:
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--smoke]
//!           [--out PATH] [--trace-out DIR]
//! benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S] [--smoke]
//!           [--trace-out DIR]
//! benchmark --reference-kernel
//! ```
//!
//! Without `--trace` the command runs each named workload (default: all)
//! untraced and then traced, each in its own child process so interner
//! and allocator state start clean and peak RSS is per workload. It prints
//! every metric as `workload metric value unit`, writes `--out` (default
//! `target/benchmark/report.json`) and exits non-zero if any check fails.
//! With `--trace` it runs that one workload in this process and prints the
//! metric lines followed by one JSON result line. `--smoke` shrinks every
//! input (2 goals of each kind, 1 sweep, 50 public DAGs, 10 replicas, 10
//! requests per connection, an update every 5th) and skips the golden
//! check. The golden file changes only by hand: a mismatch prints the
//! reference and golden cost vectors. `--reference-kernel` runs the
//! host-speed kernel and prints its time; runs call it on themselves.

use spackle_benchmark::calibrate::{kernel_ms, KERNEL_FLAG, KERNEL_PASSES};
use spackle_benchmark::run::{run, Outcome, RunConfig, RunResult};
use spackle_benchmark::workload::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Builds of the workload per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
    trace_out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 42,
        seconds: 20.0,
        trace: None,
        smoke: false,
        out: PathBuf::from("target/benchmark/report.json"),
        trace_out: PathBuf::from("target/benchmark"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                cli.workloads.push(w);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = PathBuf::from(value()?),
            "--trace-out" => cli.trace_out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    if cli.trace.is_some() && cli.workloads.len() != 1 {
        return Err("--trace runs exactly one --workload".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == [KERNEL_FLAG] {
        let passes: Vec<f64> = (0..KERNEL_PASSES).map(|_| kernel_ms()).collect();
        println!("{}", passes.into_iter().fold(f64::INFINITY, f64::min));
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.trace {
        Some(trace) => run_one(&cli, cli.workloads[0], trace),
        None => run_all(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in this process; `Ok(correct)`.
fn run_one(cli: &Cli, workload: Workload, trace: bool) -> Result<bool, String> {
    let (scale, units) = match (cli.smoke, workload) {
        (true, Workload::DaemonMixed) => (Scale::smoke(), 10),
        (true, _) => (Scale::smoke(), 1),
        (false, _) => (Scale::full(), workload.units(cli.seconds)),
    };
    let cfg = RunConfig {
        workload,
        scale,
        seed: cli.seed,
        units,
        trace,
        setups: if cli.smoke || trace { 1 } else { SETUPS },
        check_golden: !cli.smoke,
    };
    let name = workload.name();
    eprintln!(
        "benchmark: {name} (seed {}, trace {})",
        cli.seed,
        u8::from(trace)
    );
    let outcome = run(&cfg)?;
    for note in &outcome.notes {
        eprintln!("{name}: {note}");
    }
    if trace {
        write_trace(&cli.trace_out, name, &outcome)?;
    }
    for (metric, v) in &outcome.result.metrics {
        println!("{name} {metric} {} {}", v.value, v.unit);
    }
    println!("# {name} answers {}", outcome.answers);
    let line = serde_json::to_string(&outcome.result).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(outcome.result.correct)
}

fn write_trace(dir: &Path, name: &str, outcome: &Outcome) -> Result<(), String> {
    let path = dir.join(format!("trace-{name}.jsonl"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        outcome.tracer.write_jsonl(&mut out, &outcome.labels)?;
        std::io::Write::flush(&mut out)
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

/// One child run's parsed output.
#[derive(serde::Serialize)]
struct ChildReport {
    answers: String,
    result: RunResult,
}

#[derive(serde::Serialize)]
struct WorkloadReport {
    name: String,
    untraced: ChildReport,
    traced: ChildReport,
}

#[derive(serde::Serialize)]
struct Report {
    seed: u64,
    seconds: f64,
    smoke: bool,
    workloads: Vec<WorkloadReport>,
}

/// Run `workload` in a child process of this binary and parse its output.
fn child(cli: &Cli, workload: Workload, trace: bool) -> Result<ChildReport, String> {
    let name = workload.name();
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
        .args([
            "--seed",
            &cli.seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
        ])
        .arg("--trace-out")
        .arg(&cli.trace_out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let prefix = format!("# {name} answers ");
    let answers = stdout.lines().find_map(|l| l.strip_prefix(&prefix));
    let result = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str::<RunResult>(l).ok());
    match (answers, result) {
        (Some(answers), Some(result)) => Ok(ChildReport {
            answers: answers.to_string(),
            result,
        }),
        _ => Err(format!(
            "{name}: child exited with {} and no result",
            output.status
        )),
    }
}

/// Run every requested workload untraced and traced, one child each.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let mut report = Report {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        workloads: Vec::new(),
    };
    for &workload in &cli.workloads {
        let name = workload.name();
        let untraced = child(cli, workload, false)?;
        let traced = child(cli, workload, true)?;
        for r in [&untraced.result, &traced.result] {
            for (metric, v) in &r.metrics {
                println!("{name} {metric} {} {}", v.value, v.unit);
            }
            ok &= r.correct && r.failed == 0;
        }
        if untraced.answers != traced.answers {
            eprintln!("benchmark: {name}: the untraced and traced runs computed different answers");
            ok = false;
        }
        report.workloads.push(WorkloadReport {
            name: name.to_string(),
            untraced,
            traced,
        });
    }
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(dir) = cli.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&cli.out, text + "\n").map_err(|e| format!("{}: {e}", cli.out.display()))?;
    eprintln!("benchmark: wrote {}", cli.out.display());
    Ok(ok)
}
