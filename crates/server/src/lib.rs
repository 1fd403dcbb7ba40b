#![warn(missing_docs)]

//! # spackle-server — `spackled`, the long-lived concretization service
//!
//! The ground cache replays the answers to repeated solves, but a cold
//! CLI process throws the warm state away every time. This
//! crate keeps it resident: `spackled` owns a [`Repository`] snapshot,
//! chained [`CacheSource`] indexes, and one shared warm
//! [`GroundCache`], and serves concurrent concretize / audit / stats /
//! invalidate requests over a line-delimited JSON protocol on TCP —
//! the production shape of the source paper's story, where one mirror
//! index serves many users' solves.
//!
//! Layout:
//!
//! * [`protocol`] — the flat request/response wire types;
//! * [`server`] — [`ServerState`] (the resident memory), the accept
//!   loop, and per-connection worker threads;
//! * [`session`] — per-connection defaults and the last solution;
//! * [`handle`] — socket-free request dispatch (unit-testable);
//! * [`telemetry`] — lock-free counters behind the `stats` op;
//! * [`client`] — the blocking reference client.
//!
//! Everything rides on the shared-state concretizer API: a request
//! builds a throwaway [`Concretizer`] from `Arc` handles, so N
//! connections solve in parallel against one set of indexes, and
//! `update` and `invalidate` change the warm state without disturbing
//! in-flight solves.
//!
//! [`Repository`]: spackle_repo::Repository
//! [`CacheSource`]: spackle_buildcache::CacheSource
//! [`GroundCache`]: spackle_core::GroundCache
//! [`Concretizer`]: spackle_core::Concretizer
//! [`ServerState`]: server::ServerState

pub mod client;
pub mod handle;
pub mod protocol;
pub mod server;
pub mod session;
pub mod telemetry;

pub use client::{Client, RetryConfig};
pub use protocol::{Request, Response, MAX_LINE_BYTES, PROTOCOL_VERSION};
pub use server::{serve, DrainReport, OpsConfig, ServerError, ServerHandle, ServerState};
pub use session::{config_preset, Session};
pub use telemetry::{Telemetry, TelemetrySnapshot};
