//! **Figure 5 / RQ1** — overhead of the changed encoding for reusable
//! specs, with automatic splicing *disabled*: concretization time of all
//! 32 RADIUSS specs under *old spack* (direct `imposed_constraint`
//! facts) vs *splice spack* (`hash_attr` indirection), against the local
//! and the public buildcache.
//!
//! Paper result: +4.7% mean concretization time with the local cache,
//! +7.1% with the public cache — i.e. the indirection is negligible.
//!
//! Usage:
//!   fig5 [--trials N] [--warmup N] [--public-dags N] [--seed S] [--threads N]
//!
//! Defaults keep total runtime modest: the default 1000 DAGs give a
//! 1,753-spec public cache. Pass `--trials 30 --public-dags 48000` for
//! paper-scale runs (the public cache then holds 19,993 specs; setup
//! prints the count).

use spackle_bench::{default_threads, mean_std_ms, parallel_map, percent_increase, run_trials_warm, Args};
use spackle_core::{Concretizer, ConcretizerConfig};
use spackle_radiuss::ExperimentEnv;
use spackle_buildcache::CacheSource;
use spackle_spec::parse_spec;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let trials = args.get_usize("trials", 10);
    let warmup = args.get_usize("warmup", 1);
    let public_dags = args.get_usize("public-dags", 1000);
    let seed = args.get_u64("seed", 42);
    let threads = args.get_usize("threads", default_threads());

    eprintln!("fig5: setting up environment (public-dags={public_dags}, seed={seed})...");
    let t0 = Instant::now();
    let env = ExperimentEnv::setup(public_dags, seed);
    eprintln!(
        "fig5: setup took {:?}; local cache = {} specs, public cache = {} specs",
        t0.elapsed(),
        env.local.len(),
        env.public.len()
    );

    println!("# Figure 5 (RQ1): encoding overhead, splicing disabled");
    println!("# trials per cell: {trials}");
    println!(
        "{:<14} {:<7} {:>12} {:>12} {:>8}",
        "spec", "cache", "old(ms)", "splice(ms)", "delta%"
    );

    struct Cell {
        root: String,
        cache_label: &'static str,
        old_mean: f64,
        old_std: f64,
        new_mean: f64,
        new_std: f64,
    }

    let mut jobs: Vec<(String, &'static str)> = Vec::new();
    for root in &env.roots {
        for cache_label in ["local", "public"] {
            jobs.push((root.as_str().to_string(), cache_label));
        }
    }

    // Shared handles built once: every worker thread's solves read the
    // same two indexes (the daemon-style sharing the owned API enables).
    let local: Arc<dyn CacheSource> = Arc::new(env.local.clone());
    let public: Arc<dyn CacheSource> = Arc::new(env.public.clone());

    let cells: Vec<Cell> = parallel_map(jobs, threads, |(root, cache_label)| {
        let cache = match *cache_label {
            "local" => &local,
            _ => &public,
        };
        let spec = parse_spec(root).expect("root name");
        let time_config = |cfg: ConcretizerConfig| {
            run_trials_warm(trials, warmup, || {
                let t = Instant::now();
                Concretizer::new(&env.repo_plain)
                    .with_config(cfg.clone())
                    .with_reusable(cache)
                    .concretize(&spec)
                    .unwrap_or_else(|e| panic!("fig5 {root}: {e}"));
                t.elapsed()
            })
        };
        let old = time_config(ConcretizerConfig::old_spack());
        let new = time_config(ConcretizerConfig::splice_spack_disabled());
        let (old_mean, old_std) = mean_std_ms(&old);
        let (new_mean, new_std) = mean_std_ms(&new);
        Cell {
            root: root.clone(),
            cache_label,
            old_mean,
            old_std,
            new_mean,
            new_std,
        }
    });

    let mut agg: std::collections::BTreeMap<&str, (f64, f64, usize)> =
        std::collections::BTreeMap::new();
    for c in &cells {
        println!(
            "{:<14} {:<7} {:>6.2}±{:<5.2} {:>6.2}±{:<5.2} {:>+7.1}",
            c.root,
            c.cache_label,
            c.old_mean,
            c.old_std,
            c.new_mean,
            c.new_std,
            percent_increase(c.old_mean, c.new_mean)
        );
        let e = agg.entry(c.cache_label).or_insert((0.0, 0.0, 0));
        e.0 += c.old_mean;
        e.1 += c.new_mean;
        e.2 += 1;
    }

    println!();
    for (label, (old_sum, new_sum, n)) in agg {
        let paper = match label {
            "local" => "+4.7%",
            _ => "+7.1%",
        };
        println!(
            "aggregate {label:<7} ({n} specs): old mean {:.2} ms, splice mean {:.2} ms, \
             delta {:+.1}%   (paper: {paper})",
            old_sum / n as f64,
            new_sum / n as f64,
            percent_increase(old_sum, new_sum)
        );
    }
}
