//! Workload code of the `benchmark` binary: input generation, cold and
//! traced solves, the `spackled` load, answer checks and statistics. The
//! binary's module documentation describes the workloads and metrics.

pub mod calibrate;
mod clock;
mod daemon;
pub mod run;
pub mod solve;
mod stats;
pub mod workload;
