//! **Figure 7 / RQ4** — scaling with the number of splice candidates.
//! The repository gains 10..100 copies of the `mpiabi` mock differing
//! only in name, each declaring `can_splice("mpich@3.4.3")`. The
//! MPI-dependent RADIUSS specs (plus `py-shroud` as the flat control)
//! are concretized against the local buildcache with `mpich` forbidden
//! from the solution, leaving the solver free to pick any replica.
//!
//! Paper result: mean concretization time rises ~74.2% from 10 to 100
//! replicas for MPI-dependent specs, and stays flat for specs without an
//! MPI dependency.
//!
//! Usage:
//!   fig7 [--trials N] [--warmup N] [--seed S] [--threads N]

use spackle_bench::{default_threads, mean_std_ms, parallel_map, percent_increase, run_trials_warm, Args};
use spackle_core::{Concretizer, ConcretizerConfig, Goal};
use spackle_radiuss::ExperimentEnv;
use spackle_buildcache::CacheSource;
use spackle_spec::{parse_spec, Sym};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let trials = args.get_usize("trials", 10);
    let warmup = args.get_usize("warmup", 1);
    let seed = args.get_u64("seed", 42);
    let threads = args.get_usize("threads", default_threads());
    let replica_counts = [1usize, 10, 25, 50, 75, 100];

    eprintln!("fig7: setting up environment...");
    let t0 = Instant::now();
    // Public cache not used: the paper runs Fig 7 on the local cache only.
    let env = ExperimentEnv::setup(0, seed);
    eprintln!(
        "fig7: setup took {:?}; local cache = {} specs",
        t0.elapsed(),
        env.local.len()
    );

    let mut roots: Vec<String> = env
        .mpi_roots
        .iter()
        .map(|s| s.as_str().to_string())
        .collect();
    roots.push("py-shroud".to_string());

    println!("# Figure 7 (RQ4): scaling the number of splice candidates");
    println!("# local cache only; concretized specs must NOT depend on mpich");
    println!("# trials per cell: {trials}");
    print!("{:<14}", "spec");
    for n in replica_counts {
        print!(" {:>12}", format!("n={n}(ms)"));
    }
    println!();

    // Pre-build the replica repositories once.
    let repos: Vec<_> = replica_counts
        .iter()
        .map(|&n| (n, env.repo_with_replicas(n)))
        .collect();

    let is_mpi_root = |root: &str| env.mpi_roots.iter().any(|m| m.as_str() == root);
    // One shared handle, read concurrently by every worker thread.
    let local: Arc<dyn CacheSource> = Arc::new(env.local.clone());

    struct Row {
        root: String,
        means: Vec<(usize, f64, f64)>,
    }

    let rows: Vec<Row> = parallel_map(roots, threads, |root| {
        let mut means = Vec::new();
        for (n, repo) in &repos {
            let mut goal = Goal::single(parse_spec(root).expect("root"));
            goal.forbidden.push(Sym::intern("mpich"));
            let times = run_trials_warm(trials, warmup, || {
                let t = Instant::now();
                Concretizer::new(repo)
                    .with_config(ConcretizerConfig::splice_spack())
                    .with_reusable(&local)
                    .concretize_goal(&goal)
                    .unwrap_or_else(|e| panic!("fig7 {root} n={n}: {e}"));
                t.elapsed()
            });
            let (mean, std) = mean_std_ms(&times);
            means.push((*n, mean, std));
        }
        Row {
            root: root.clone(),
            means,
        }
    });

    let mut mpi_at: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for row in &rows {
        print!("{:<14}", row.root);
        for &(n, mean, std) in &row.means {
            print!(" {:>6.2}±{:<5.2}", mean, std);
            if is_mpi_root(&row.root) {
                let e = mpi_at.entry(n).or_insert((0.0, 0));
                e.0 += mean;
                e.1 += 1;
            }
        }
        println!();
    }

    println!();
    // Growth in absolute terms beside the ratio, so that a faster
    // 10-replica base cannot read as worse growth.
    let per_replica = |lo: f64, hi: f64| (hi - lo) / 90.0;
    let m10 = mpi_at.get(&10).map(|(s, n)| s / *n as f64).unwrap_or(0.0);
    let m100 = mpi_at.get(&100).map(|(s, n)| s / *n as f64).unwrap_or(0.0);
    println!(
        "aggregate MPI-dependent specs: mean {:.2} ms at 10 replicas, {:.2} ms at 100 \
         replicas; increase {:+.1}% ({:+.3} ms per added replica)   (paper: +74.2%)",
        m10,
        m100,
        percent_increase(m10, m100),
        per_replica(m10, m100)
    );
    if let Some(ctrl) = rows.iter().find(|r| r.root == "py-shroud") {
        // Over the same span as the MPI aggregate.
        let at = |n| ctrl.means.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
        let (c10, c100) = (at(10), at(100));
        println!(
            "control py-shroud (no MPI dependency): {:.2} ms at 10 replicas -> {:.2} ms at \
             100 ({:+.1}%, {:+.3} ms per added replica) — expected flat",
            c10,
            c100,
            percent_increase(c10, c100),
            per_replica(c10, c100)
        );
    }
}
