//! The `spackled` wire protocol: line-delimited JSON over a stream.
//!
//! Each request is one JSON object on one line; the server answers with
//! exactly one JSON object on one line. Both shapes are *flat* structs
//! whose fields all carry defaults, so either side may omit anything it
//! does not use and old clients keep working against newer servers (and
//! vice versa) — unknown fields are ignored, missing fields default.
//!
//! Operations (`op`):
//!
//! | op           | request fields              | response fields |
//! |--------------|-----------------------------|-----------------|
//! | `ping`       | —                           | `ok`, `protocol` |
//! | `concretize` | `spec` or `roots`, `forbid`, `config`, `explain` | `hashes`, `reused`, `built`, `spliced`, `ground_cache_hit`, `solve_ms`, `conflicts`, `decisions`, `propagations`; on unsat with `explain`: `explanation`, `explain_minimal`, `explain_core_size`, `explain_probes` |
//! | `last`       | —                           | the previous concretize response for this connection |
//! | `set-config` | `config`                    | `ok` (session default updated) |
//! | `audit`      | —                           | `audit_errors`, `audit_warnings`, `audit_report` |
//! | `stats`      | —                           | telemetry + ground-cache counters |
//! | `update`     | `package`, `version`        | `segments_changed`, `invalidated` (entries whose segments moved), `retained` (entries kept warm) |
//! | `invalidate` | —                           | `invalidated` (entries dropped; the ground cache is now empty) |
//! | `shutdown`   | —                           | `ok`; the server stops accepting and drains |
//!
//! `update` is the *delta* primitive: it declares one new version on an
//! existing package (appended, so least preferred — existing solutions
//! are unchanged), republishes the repository, and partially invalidates
//! the warm ground cache by segment fingerprint. Goals whose encode
//! closure avoids the touched package keep hitting their retained
//! entries. `invalidate` clears the whole ground cache.
//!
//! `config` names a [`spackle_core::ConcretizerConfig`] preset:
//! `"splice"` (default), `"no-splice"`, `"old"`, or the deliberately
//! inconsistent `"old+splice"` (used to exercise the structured
//! `CoreError::Config` path end-to-end). An empty string means "use the
//! session default" (see `session.rs`).

use serde::{Deserialize, Serialize};

/// Wire protocol revision; echoed in every `ping` response.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on one request line, in bytes. The server stops reading
/// a longer line at this limit, answers with an error and closes the
/// connection (protects the server from unbounded reads).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One client request. Flat on purpose: every field defaults, `op`
/// selects the operation and the other fields parameterize it.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Request {
    /// Operation name (see module docs).
    #[serde(default)]
    pub op: String,
    /// Client-chosen correlation id, echoed verbatim in the response.
    #[serde(default)]
    pub id: u64,
    /// Single-root goal spec text (`concretize`).
    #[serde(default)]
    pub spec: String,
    /// Multi-root goal spec texts (`concretize`; wins over `spec` when
    /// non-empty).
    #[serde(default)]
    pub roots: Vec<String>,
    /// Package names forbidden from the solution (`concretize`).
    #[serde(default)]
    pub forbid: Vec<String>,
    /// Configuration preset name (`concretize`, `set-config`).
    #[serde(default)]
    pub config: String,
    /// Per-request wall-clock deadline in milliseconds (`concretize`);
    /// 0 means no deadline beyond the server's default. An expired
    /// deadline answers `ok:false` with `error_kind:"timeout"`.
    #[serde(default)]
    pub timeout_ms: u64,
    /// Ask for a provenance-mapped unsat core when a `concretize`
    /// fails with `error_kind:"unsat"` (`explanation` and the
    /// `explain_*` response fields). Costs nothing on satisfiable
    /// goals.
    #[serde(default)]
    pub explain: bool,
    /// Package receiving a new version (`update`).
    #[serde(default)]
    pub package: String,
    /// The version to declare on `package` (`update`). Appended to the
    /// declared list, so it ranks least preferred and existing
    /// solutions are unchanged.
    #[serde(default)]
    pub version: String,
}

impl Request {
    /// A request with only `op` set.
    pub fn op(op: &str) -> Request {
        Request {
            op: op.to_string(),
            ..Request::default()
        }
    }

    /// A single-root concretize request.
    pub fn concretize(spec: &str) -> Request {
        Request {
            spec: spec.to_string(),
            ..Request::op("concretize")
        }
    }

    /// Attach a correlation id.
    pub fn with_id(mut self, id: u64) -> Request {
        self.id = id;
        self
    }

    /// Select a configuration preset.
    pub fn with_config(mut self, config: &str) -> Request {
        self.config = config.to_string();
        self
    }

    /// Serialize as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("request serializes")
    }

    /// Parse one protocol line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

/// One server response. Flat like [`Request`]; consult the fields your
/// `op` populates and ignore the rest (they hold defaults).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Response {
    /// Did the operation succeed? When `false`, `error` explains why.
    #[serde(default)]
    pub ok: bool,
    /// Correlation id copied from the request.
    #[serde(default)]
    pub id: u64,
    /// Operation this answers (copied from the request).
    #[serde(default)]
    pub op: String,
    /// Protocol revision (`ping`).
    #[serde(default)]
    pub protocol: u64,
    /// Error description when `ok` is `false`. Structured configuration
    /// errors arrive with a `configuration:` prefix (the rendered
    /// `CoreError::Config`), distinguishable from parse or solve errors.
    #[serde(default)]
    pub error: String,
    /// Machine-readable error tag when `ok` is `false`: `"timeout"`,
    /// `"budget"`, `"resource_limit"` (a grounding limit overrun),
    /// `"overloaded"`, `"cache"`, `"config"`, `"unsat"`, ... (see
    /// `CoreError::kind`). Empty for legacy/parse errors.
    #[serde(default)]
    pub error_kind: String,
    /// On an `"overloaded"` error: suggested client backoff before
    /// retrying, in milliseconds.
    #[serde(default)]
    pub retry_after_ms: u64,

    // --- concretize ---
    /// DAG hash per requested root, request order.
    #[serde(default)]
    pub hashes: Vec<String>,
    /// Packages reused from the caches.
    #[serde(default)]
    pub reused: Vec<String>,
    /// Packages built from source.
    #[serde(default)]
    pub built: Vec<String>,
    /// Number of executed splices.
    #[serde(default)]
    pub spliced: u64,
    /// Did this solve replay a memoized answer?
    #[serde(default)]
    pub ground_cache_hit: bool,
    /// End-to-end solve wall time in milliseconds.
    #[serde(default)]
    pub solve_ms: f64,
    /// True when the solve proceeded without one or more failed
    /// reusable-spec sources (graceful degradation). The answer is
    /// bit-identical to a solve that never had those sources.
    #[serde(default)]
    pub degraded: bool,
    /// Backend labels of the sources a degraded solve skipped, in the
    /// order they were dropped.
    #[serde(default)]
    pub skipped_sources: Vec<String>,

    // --- unsat explanation (`concretize` with `explain:true` answering
    //     `error_kind:"unsat"`) ---
    /// The provenance-mapped unsat core, rendered as a structured
    /// `SPKL-E…` audit report in JSON (embedded string, same shape as
    /// `audit_report`). Empty when no explanation was produced.
    #[serde(default)]
    pub explanation: String,
    /// Was the core proven minimal (dropping any member restores
    /// satisfiability)? `false` means minimization stopped early — on
    /// the deadline or probe budget — and the core is still a valid
    /// but possibly reducible conflict set.
    #[serde(default)]
    pub explain_minimal: bool,
    /// Core members after minimization (this explanation's in
    /// `concretize`/`last`, cumulative since boot in `stats`).
    #[serde(default)]
    pub explain_core_size: u64,
    /// Deletion probes the minimizer ran (per-explanation in
    /// `concretize`/`last`, cumulative since boot in `stats`).
    #[serde(default)]
    pub explain_probes: u64,

    // --- search effort (this solve's in `concretize`/`last`,
    //     cumulative since boot in `stats`) ---
    /// SAT conflicts resolved; 0 on a ground-cache hit, which replays
    /// its answer without searching.
    #[serde(default)]
    pub conflicts: u64,
    /// SAT decisions made; 0 on a ground-cache hit.
    #[serde(default)]
    pub decisions: u64,
    /// SAT literal propagations performed; 0 on a ground-cache hit.
    #[serde(default)]
    pub propagations: u64,

    // --- audit ---
    /// Error-severity diagnostics found.
    #[serde(default)]
    pub audit_errors: u64,
    /// Warning-severity diagnostics found.
    #[serde(default)]
    pub audit_warnings: u64,
    /// The full audit report, rendered as JSON (embedded string).
    #[serde(default)]
    pub audit_report: String,

    // --- stats / invalidate ---
    /// Requests handled since boot (all operations).
    #[serde(default)]
    pub requests: u64,
    /// Successful concretizations since boot.
    #[serde(default)]
    pub concretizations: u64,
    /// Failed requests since boot (parse, config, solve, ...).
    #[serde(default)]
    pub failures: u64,
    /// Requests currently being handled (gauge; includes this one).
    #[serde(default)]
    pub in_flight: u64,
    /// Cumulative ground-cache hits.
    #[serde(default)]
    pub ground_hits: u64,
    /// Cumulative ground-cache misses.
    #[serde(default)]
    pub ground_misses: u64,
    /// `ground_hits / (ground_hits + ground_misses)`, 0.0 when idle.
    #[serde(default)]
    pub hit_rate: f64,
    /// Answers currently resident in the ground cache.
    #[serde(default)]
    pub cache_entries: u64,
    /// Ground-cache entries dropped (cumulative in `stats`; this call's
    /// count in `invalidate` / `update`).
    #[serde(default)]
    pub invalidated: u64,
    /// Ground-cache entries retained across this `update` (their
    /// segments did not move, so they keep hitting).
    #[serde(default)]
    pub retained: u64,
    /// Segment fingerprints this `update` moved (the mutated package
    /// plus any packages whose provider ranks shifted).
    #[serde(default)]
    pub segments_changed: u64,
    /// Delta updates applied to the ground cache since boot (`stats`).
    #[serde(default)]
    pub delta_updates: u64,
    /// Cumulative entries dropped by delta updates (`stats`).
    #[serde(default)]
    pub segments_invalidated: u64,
    /// Cumulative entries retained across delta updates (`stats`).
    #[serde(default)]
    pub segments_retained: u64,
    /// Always 0: the server no longer writes it. Kept on the wire only
    /// because the repository benchmark still reads it; drop it once the
    /// benchmark stops.
    #[serde(default)]
    pub salvaged_translations: u64,
    /// Total concretization wall time since boot, milliseconds.
    #[serde(default)]
    pub total_solve_ms: f64,
    /// Slowest single concretization since boot, milliseconds.
    #[serde(default)]
    pub max_solve_ms: f64,
    /// Seconds since the server booted.
    #[serde(default)]
    pub uptime_s: f64,

    // --- fault tolerance (stats; counters since boot) ---
    /// Requests shed by overload protection.
    #[serde(default)]
    pub shed: u64,
    /// Concretize requests that hit their wall-clock deadline.
    #[serde(default)]
    pub timeouts: u64,
    /// Concretize requests that exhausted the solver's conflict budget.
    #[serde(default)]
    pub budget_exhausted: u64,
    /// Solves that completed degraded (one or more sources skipped).
    #[serde(default)]
    pub degraded_solves: u64,
    /// Worker threads that panicked (captured at drain; 0 is healthy).
    #[serde(default)]
    pub worker_panics: u64,
    /// Cache-source retries performed (cumulative over all sources).
    #[serde(default)]
    pub cache_retries: u64,
    /// Transient cache-source errors observed.
    #[serde(default)]
    pub cache_transient_errors: u64,
    /// Permanent cache-source errors observed.
    #[serde(default)]
    pub cache_permanent_errors: u64,
    /// Corrupt cache entries detected and refused.
    #[serde(default)]
    pub cache_corrupt_entries: u64,
    /// Circuit-breaker opens across all chained sources.
    #[serde(default)]
    pub cache_breaker_opens: u64,
    /// Faults injected by chaos wrappers (non-zero only under test).
    #[serde(default)]
    pub cache_injected_faults: u64,
    /// Unsat explanations produced since boot (`stats`).
    #[serde(default)]
    pub explains: u64,
    /// Explanations whose minimization stopped early (`stats`).
    #[serde(default)]
    pub explains_partial: u64,
}

impl Response {
    /// A success response answering `req`.
    pub fn ok_for(req: &Request) -> Response {
        Response {
            ok: true,
            id: req.id,
            op: req.op.clone(),
            ..Response::default()
        }
    }

    /// A failure response answering `req`.
    pub fn err_for(req: &Request, error: impl Into<String>) -> Response {
        Response {
            ok: false,
            id: req.id,
            op: req.op.clone(),
            error: error.into(),
            ..Response::default()
        }
    }

    /// Serialize as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("response serializes")
    }

    /// Parse one protocol line.
    pub fn from_line(line: &str) -> Result<Response, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut req = Request::concretize("hypre ^mpiabi").with_id(7);
        req.forbid.push("mpich".to_string());
        let back = Request::from_line(&req.to_line()).unwrap();
        assert_eq!(back.op, "concretize");
        assert_eq!(back.id, 7);
        assert_eq!(back.spec, "hypre ^mpiabi");
        assert_eq!(back.forbid, vec!["mpich".to_string()]);
    }

    #[test]
    fn response_roundtrip_and_defaults() {
        let mut resp = Response::ok_for(&Request::op("stats").with_id(3));
        resp.ground_hits = 60;
        resp.ground_misses = 4;
        resp.hit_rate = 0.9375;
        let back = Response::from_line(&resp.to_line()).unwrap();
        assert!(back.ok);
        assert_eq!(back.id, 3);
        assert_eq!(back.ground_hits, 60);
        assert!(back.hashes.is_empty(), "unset fields default");

        // A minimal line parses with every field defaulted.
        let minimal = Response::from_line("{\"ok\":true}").unwrap();
        assert!(minimal.ok);
        assert_eq!(minimal.error, "");
    }
}
