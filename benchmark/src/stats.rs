//! Summary statistics: percentiles, the tail-percentile rule, and the two
//! throughput estimators the workloads report (median sweep and median
//! window).

use std::time::Duration;

/// Percentiles the tail rule may pick, highest first.
const TAIL_GRID: [f64; 3] = [99.9, 99.0, 90.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of `samples`, interpolating linearly
/// between the two closest ranks. `None` when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The tolerance keeps 99.9% of 10 000 at 9990, not 9990.000000000002.
    let at_or_below = (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize;
    n.saturating_sub(at_or_below)
}

/// The highest percentile of the standard grid (p99.9, p99, p90) that
/// leaves at least [`MIN_BEYOND`] of `n` samples beyond it — the tail a
/// run of `n` samples can report without resting on a handful of
/// outliers. `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_GRID
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Goals per second of sequential sweeps of `goals` goals that took
/// `sweep_ms` each, in ms: the goals over the median sweep time. Unlike
/// the median goal, this weighs every goal by its cost.
pub fn sweep_rate(goals: usize, sweep_ms: &[f64]) -> Option<f64> {
    median(sweep_ms)
        .filter(|&ms| ms > 0.0)
        .map(|ms| goals as f64 / ms * 1e3)
}

/// Load throughput: split `[0, span]` into `windows` equal windows, count
/// the completions (offsets from the load start) in each, and return the
/// median completions per second.
pub fn window_throughput(completions: &[Duration], span: Duration, windows: usize) -> Option<f64> {
    if windows == 0 || span.is_zero() {
        return None;
    }
    let width = span.as_secs_f64() / windows as f64;
    let mut counts = vec![0usize; windows];
    for c in completions {
        let slot = (c.as_secs_f64() / width) as usize;
        counts[slot.min(windows - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert!((percentile(&xs, 90.0).unwrap() - 4.6).abs() < 1e-12);
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            Some(2.5),
            "input order is irrelevant"
        );
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn sweep_rate_divides_goals_by_the_median_sweep_time() {
        // Sweeps of 3 goals taking 900, 1000 and 5000 ms: the slow sweep
        // does not count, 3 goals per second.
        assert_eq!(sweep_rate(3, &[1000.0, 5000.0, 900.0]), Some(3.0));
        assert_eq!(sweep_rate(1, &[250.0]), Some(4.0));
        assert_eq!(sweep_rate(3, &[]), None);
        assert_eq!(sweep_rate(3, &[0.0]), None);
    }

    #[test]
    fn window_throughput_is_the_median_window_rate() {
        // 10 one-second windows: nine hold 5 completions, one holds 50.
        let mut done = Vec::new();
        for w in 0..10u32 {
            let n = if w == 3 { 50 } else { 5 };
            for i in 0..n {
                done.push(Duration::from_secs_f64(f64::from(w) + f64::from(i) / 100.0));
            }
        }
        let rate = window_throughput(&done, Duration::from_secs(10), 10);
        assert_eq!(rate, Some(5.0));
        // A completion exactly at the end of the span lands in the last
        // window: rates [0, 1] per second, median 0.5.
        let edge = window_throughput(&[Duration::from_secs(2)], Duration::from_secs(2), 2);
        assert_eq!(edge, Some(0.5));
        assert_eq!(window_throughput(&done, Duration::ZERO, 10), None);
    }
}
