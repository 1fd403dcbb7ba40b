//! How fast the host runs during a run, measured with a fixed reference
//! computation, and the factor that puts CPU times on one scale.
//!
//! The shared hosts the benchmark runs on change speed by up to 2x for
//! tens of seconds at a time, and a change shows in CPU time as well as
//! wall time: other tenants' cache and memory traffic slows every
//! instruction down. A run therefore times a reference kernel that uses
//! none of the repository's code, before each build and four times a
//! sweep, and multiplies each CPU time it measures by [`REFERENCE_MS`]
//! over the kernel sample taken just before it. A change to the code
//! under test moves the solves and not the kernel; a slower host moves
//! both. Pairing each solve with the sample beside it follows the host
//! through a run: over blocks of six sweeps on a shared 2-vCPU host, the
//! median goal's paired time varied by 2.3-2.8% (coefficient of
//! variation), its fastest time over the run's fastest kernel time by
//! 5%, and its unscaled fastest time by 4.5%.

use crate::clock::cpu_timed;
use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::process::{Command, Stdio};

/// The kernel's time on the 2-vCPU x86-64 host the benchmark was defined
/// on, when nothing else slowed it, ms. Scaled times read in ms of that
/// host.
pub const REFERENCE_MS: f64 = 25.0;

/// The flag that makes the `benchmark` binary run [`kernel_ms`]
/// [`KERNEL_PASSES`] times and print the fastest pass.
pub const KERNEL_FLAG: &str = "--reference-kernel";

/// Passes of the kernel per sample; the first also faults the child's
/// heap in.
pub const KERNEL_PASSES: usize = 2;

/// A hash table with a fixed hasher, so that its layout is fixed too.
type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// One pass of the reference kernel, over inputs fixed forever: format,
/// index and sort 20 000 package-like names, insert and look up 100 000
/// integer keys, sort 300 000 integers and fill a B-tree with 50 000
/// keys. That mixes the string, allocation, hashing, sorting and
/// pointer-chasing work a concretization spends its time on; on a shared
/// 2-vCPU host the mix followed the solves' slowdowns more closely than
/// any one of its parts. Returns its CPU time in ms.
pub fn kernel_ms() -> f64 {
    let ((), took) = cpu_timed(|| {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut names: Vec<String> = (0..20_000)
            .map(|_| format!("pkg-{:x}@{}", next(), next() % 97))
            .collect();
        let mut index: FixedMap<String, usize> = FixedMap::default();
        for (i, name) in names.iter().enumerate() {
            index.insert(name.clone(), i);
        }
        let odd = names.iter().filter(|n| index[n.as_str()] % 2 == 1).count();
        names.sort_unstable();

        let mut table: FixedMap<u64, u64> = FixedMap::default();
        for i in 0..100_000 {
            table.insert(next(), i);
        }
        let found: u64 = (0..100_000).filter_map(|_| table.get(&next())).sum();

        let mut numbers: Vec<u64> = (0..300_000).map(|_| next()).collect();
        numbers.sort_unstable();

        let tree: BTreeMap<u64, u32> = (0..50_000).map(|i| (next() % 1_000_000, i)).collect();
        std::hint::black_box((odd, &names, found, &numbers, tree.len()));
    });
    took.as_secs_f64() * 1e3
}

/// The reference kernel's times over one run.
#[derive(Default)]
pub(crate) struct HostSpeed {
    kernel_ms: Vec<f64>,
    error: Option<String>,
}

impl HostSpeed {
    /// Time the kernel once more, in a child process of this binary
    /// (`benchmark --reference-kernel`) so that its allocations touch
    /// neither this process's heap nor its peak RSS. A failure is kept
    /// for [`HostSpeed::run_factor`] to report.
    pub(crate) fn sample(&mut self) {
        let run = || -> Result<f64, String> {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let out = Command::new(exe)
                .arg(KERNEL_FLAG)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(ms) if out.status.success() => Ok(ms),
                _ => Err(format!("exited with {} and printed {text:?}", out.status)),
            }
        };
        match run() {
            Ok(ms) => self.kernel_ms.push(ms),
            Err(e) => {
                self.error.get_or_insert(format!("reference kernel: {e}"));
            }
        }
    }

    /// The factor that puts CPU times measured since the last sample on
    /// the reference host's scale: [`REFERENCE_MS`] over that sample.
    pub(crate) fn factor(&self) -> f64 {
        self.kernel_ms.last().map_or(1.0, |&ms| REFERENCE_MS / ms)
    }

    /// The kernel's median time over the run, ms.
    pub(crate) fn median_ms(&self) -> Option<f64> {
        median(&self.kernel_ms)
    }

    /// The factor for the run as a whole, [`REFERENCE_MS`] over the
    /// kernel's median time, or why the kernel could not be timed.
    pub(crate) fn run_factor(&self) -> Result<f64, String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        self.median_ms()
            .filter(|&ms| ms > 0.0)
            .map(|ms| REFERENCE_MS / ms)
            .ok_or_else(|| "the reference kernel never ran".to_string())
    }
}
