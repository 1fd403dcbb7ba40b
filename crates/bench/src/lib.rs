//! Shared infrastructure for the figure-regeneration binaries: trial
//! running (parallel across workloads, sequential within a workload),
//! summary statistics, and a tiny CLI-argument parser.

use std::time::Duration;

/// Mean and sample standard deviation, in milliseconds.
pub fn mean_std_ms(times: &[Duration]) -> (f64, f64) {
    let ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let n = ms.len() as f64;
    let mean = ms.iter().sum::<f64>() / n;
    if ms.len() < 2 {
        return (mean, 0.0);
    }
    let var = ms.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// Median of a nonempty sample, in milliseconds (the mean of the middle
/// two for an even count).
pub fn median_ms(times: &[Duration]) -> f64 {
    let mut ms: Vec<f64> = times.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    if n % 2 == 1 {
        ms[n / 2]
    } else {
        (ms[n / 2 - 1] + ms[n / 2]) / 2.0
    }
}

/// Percentage increase from `base` to `new` (paper-style deltas).
pub fn percent_increase(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

/// Run `trials` timed invocations of `f` (sequentially, so each sample
/// is a clean single-threaded solve) and return the wall times.
pub fn run_trials(trials: usize, f: impl FnMut() -> Duration) -> Vec<Duration> {
    run_trials_warm(trials, 0, f)
}

/// Like [`run_trials`], but first runs `warmup` invocations whose times
/// are discarded. Warmup evicts one-time costs — lazy symbol interning,
/// allocator growth, cold instruction caches — that would otherwise
/// inflate the first sample and the reported standard deviation.
pub fn run_trials_warm(
    trials: usize,
    warmup: usize,
    mut f: impl FnMut() -> Duration,
) -> Vec<Duration> {
    for _ in 0..warmup {
        f();
    }
    (0..trials).map(|_| f()).collect()
}

/// Execute jobs in parallel with bounded threads, preserving input
/// order in the output.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.min(n).max(1);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let inputs_ref = &inputs;
    let f_ref = &f;
    let indices: Vec<Vec<usize>> = (0..threads)
        .map(|t| (0..n).filter(|i| i % threads == t).collect())
        .collect();
    crossbeam::thread::scope(|s| {
        let mut handles = Vec::new();
        for chunk in &indices {
            handles.push(s.spawn(move |_| {
                chunk
                    .iter()
                    .map(|&i| (i, f_ref(&inputs_ref[i])))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("bench worker") {
                out[i] = Some(r);
            }
        }
    })
    .expect("crossbeam scope");
    out.into_iter().map(|o| o.expect("all jobs ran")).collect()
}

/// Default worker-thread count for experiment fan-out.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Minimal `--key value` argument parser shared by the fig binaries.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse `std::env::args()`.
    pub fn parse() -> Args {
        Args::from_argv(std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument vector (the testing seam for
    /// [`Args::parse`]).
    pub fn from_argv(argv: Vec<String>) -> Args {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                // A following `--flag` is the next option, not this
                // option's value (so boolean flags compose anywhere).
                let value = match argv.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        v.clone()
                    }
                    _ => String::new(),
                };
                pairs.push((key.to_string(), value));
            }
            i += 1;
        }
        Args { pairs }
    }

    /// Fetch a numeric flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// Fetch a u64 flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// Fetch a string flag with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| default.to_string())
    }

    /// Is a boolean flag present?
    pub fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let times = vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
        ];
        let (mean, std) = mean_std_ms(&times);
        assert!((mean - 20.0).abs() < 1e-9);
        assert!((std - 10.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_no_std() {
        let (mean, std) = mean_std_ms(&[Duration::from_millis(5)]);
        assert!((mean - 5.0).abs() < 1e-9);
        assert_eq!(std, 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        assert!((median_ms(&ms(&[30, 10, 20])) - 20.0).abs() < 1e-9);
        assert!((median_ms(&ms(&[40, 10, 30, 20])) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn percent() {
        assert!((percent_increase(100.0, 153.0) - 53.0).abs() < 1e-9);
        assert_eq!(percent_increase(0.0, 10.0), 0.0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<usize> = (0..100).collect();
        let out = parallel_map(inputs, 7, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn trials_count() {
        let times = run_trials(4, || Duration::from_micros(1));
        assert_eq!(times.len(), 4);
    }

    #[test]
    fn boolean_flags_do_not_swallow_the_next_option() {
        let args = Args::from_argv(
            ["--trials", "2", "--smoke", "--out", "report.json"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(args.get_usize("trials", 0), 2);
        assert!(args.has("smoke"));
        assert_eq!(args.get_str("out", "default"), "report.json");
    }

    #[test]
    fn warmup_runs_are_discarded() {
        let mut calls = 0;
        let times = run_trials_warm(3, 2, || {
            calls += 1;
            Duration::from_micros(calls)
        });
        assert_eq!(calls, 5, "warmup + trials all execute");
        assert_eq!(times.len(), 3, "only timed trials are recorded");
        assert_eq!(times[0], Duration::from_micros(3), "warmup discarded");
    }
}
