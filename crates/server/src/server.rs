//! The service core: shared state, the TCP accept loop, and the
//! per-connection worker threads.
//!
//! [`ServerState`] is the daemon's resident memory — one repository
//! snapshot behind a read-mostly lock, the chained reusable-spec
//! sources, one warm [`GroundCache`], and the telemetry counters. Every
//! request builds a throwaway [`Concretizer`] from `Arc` handles to that
//! state, so solves on different connections run fully in parallel and
//! share every index.
//!
//! Invalidation is *graceful by construction*: `update` publishes a new
//! repository snapshot and drops the ground-cache entries whose segments
//! it moved, and `invalidate` clears the ground cache. Solves already in
//! flight keep their own `Arc` snapshot of the repository and solve it
//! to the end, so they finish — bit-identical to what they would have
//! produced. A straggler may then insert its answer. Cache keys are
//! computed from content, so after an `update` no request on the new
//! snapshot can reach that entry, and after an `invalidate` the entry
//! is exactly what a fresh solve would insert.
//!
//! Overload and shutdown are handled here too, as [`OpsConfig`] knobs:
//!
//! * **Shedding** — when more than `max_in_flight` requests are being
//!   handled, new *concretize* requests (the expensive op) are answered
//!   immediately with a structured `overloaded` error carrying
//!   `retry_after_ms`, instead of queueing behind saturated workers.
//!   Cheap ops (ping, stats, shutdown) always get through, so the
//!   daemon stays observable and stoppable under load. Shed requests
//!   are counted separately from failures: the client did nothing
//!   wrong.
//! * **Drain** — shutdown closes the accept loop, then polls worker
//!   threads for up to `drain_timeout`. Connection reads use a short
//!   poll timeout so idle workers notice the flag and exit; a worker
//!   stuck past the deadline is abandoned (the process is about to exit
//!   anyway) and reported in the [`DrainReport`] rather than hanging
//!   `join` forever. Panicked workers are captured and counted, never
//!   silently dropped and never propagated as a panic of the accept
//!   loop.

use crate::handle::handle;
use crate::protocol::{Request, Response, MAX_LINE_BYTES};
use crate::session::Session;
use crate::telemetry::Telemetry;
use parking_lot::RwLock;
use spackle_buildcache::CacheSource;
use spackle_core::{repo_delta, Concretizer, ConcretizerConfig, DeltaReport, GroundCache};
use spackle_repo::Repository;
use spackle_spec::{Sym, Version};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a blocked connection read wakes up to check the shutdown
/// flag. Also bounds how stale a partial line can sit in the buffer
/// before the worker notices a drain.
const READ_POLL: Duration = Duration::from_millis(250);

/// How often the drain loop re-polls unfinished workers.
const DRAIN_POLL: Duration = Duration::from_millis(25);

/// Operational limits for a running server. All default to "off"
/// except the drain timeout, which must be finite for `join` to be
/// reliable.
#[derive(Clone, Copy, Debug)]
pub struct OpsConfig {
    /// Maximum requests being handled at once before new *concretize*
    /// requests are shed with a structured `overloaded` response.
    /// `0` disables shedding.
    pub max_in_flight: usize,
    /// Wall-clock deadline applied to every concretize request that
    /// does not carry its own `timeout_ms`. `None` means no default
    /// deadline.
    pub default_timeout: Option<Duration>,
    /// How long shutdown waits for in-flight workers before abandoning
    /// them.
    pub drain_timeout: Duration,
}

impl Default for OpsConfig {
    fn default() -> OpsConfig {
        OpsConfig {
            max_in_flight: 0,
            default_timeout: None,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// What one applied repository delta did (the `update` request).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Segment fingerprints the delta moved (the mutated package plus
    /// any packages whose provider ranks shifted).
    pub segments_changed: usize,
    /// What the ground cache dropped vs kept.
    pub report: DeltaReport,
}

/// What the drain phase of shutdown observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Worker threads that finished and were joined (panicked workers
    /// included — they are also counted in `worker_panics`).
    pub workers_joined: usize,
    /// Worker threads still running when the drain deadline expired;
    /// their handles were dropped (the threads are detached).
    pub workers_abandoned: usize,
    /// Joined workers whose thread had panicked.
    pub worker_panics: usize,
}

/// A structured server lifecycle error (no panics escape `join`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// The accept loop itself panicked; the payload is the rendered
    /// panic message.
    AcceptLoopPanicked(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::AcceptLoopPanicked(msg) => {
                write!(f, "accept loop panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// Render a `JoinHandle::join` panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything the daemon keeps resident across requests.
pub struct ServerState {
    repo: RwLock<Arc<Repository>>,
    caches: Vec<Arc<dyn CacheSource>>,
    ground_cache: Arc<GroundCache>,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    ops: OpsConfig,
}

impl ServerState {
    /// Resident state over a repository and reusable-spec sources, with
    /// a fresh warm-ready ground cache.
    pub fn new(repo: Repository, caches: Vec<Arc<dyn CacheSource>>) -> ServerState {
        ServerState {
            repo: RwLock::new(Arc::new(repo)),
            caches,
            ground_cache: GroundCache::shared(),
            telemetry: Telemetry::new(),
            shutdown: AtomicBool::new(false),
            ops: OpsConfig::default(),
        }
    }

    /// Replace the operational limits (builder style; call before
    /// wrapping in an `Arc`).
    pub fn with_ops(mut self, ops: OpsConfig) -> ServerState {
        self.ops = ops;
        self
    }

    /// The operational limits this server runs under.
    pub fn ops(&self) -> &OpsConfig {
        &self.ops
    }

    /// The current repository snapshot (cheap: one `Arc` clone under a
    /// read lock).
    pub fn repo_snapshot(&self) -> Arc<Repository> {
        Arc::clone(&self.repo.read())
    }

    /// A request-scoped concretizer over the *current* snapshot: holds
    /// its own `Arc`s, so a concurrent `invalidate` never disturbs it.
    pub fn concretizer(&self, config: ConcretizerConfig) -> Concretizer {
        let mut conc = Concretizer::shared(self.repo_snapshot())
            .with_config(config)
            .with_ground_cache(Arc::clone(&self.ground_cache));
        for cache in &self.caches {
            conc = conc.with_reusable(cache);
        }
        conc
    }

    /// Drop every ground-cache entry and return how many were dropped.
    /// In-flight solves finish untouched; one that finishes afterwards
    /// may re-insert its answer, which is still valid because the key
    /// is computed from the content it was solved over.
    pub fn invalidate(&self) -> usize {
        self.ground_cache.clear()
    }

    /// Delta update: declare `version` on existing package `package`,
    /// republish the repository, and partially invalidate the warm
    /// ground cache by segment fingerprint. The new version is appended
    /// (least preferred), so retained solutions stay optimal; entries
    /// whose encode closure avoids `package` keep their content-composed
    /// keys and keep hitting. In-flight solves hold their own snapshot
    /// `Arc`s and finish untouched; a late insert of theirs is keyed by
    /// the old content, so no request on the new snapshot reaches it.
    ///
    /// The delta is applied before the repository write lock is
    /// released, so concurrent updates sweep the ground cache in the
    /// order they were published: a sweep never drops an entry solved
    /// over a newer snapshot.
    pub fn update(&self, package: &str, version: &str) -> Result<UpdateOutcome, String> {
        let name = Sym::intern(package);
        let ver = Version::parse(version).map_err(|e| format!("bad version {version:?}: {e}"))?;
        let (delta, report) = {
            let mut slot = self.repo.write();
            let Some(def) = slot.get(name) else {
                return Err(format!("no such package: {package}"));
            };
            if def.versions.contains(&ver) {
                return Err(format!("{package} already declares version {version}"));
            }
            let mut def = def.clone();
            def.versions.push(ver); // appended = least preferred
            let mut fresh = (**slot).clone();
            fresh.upsert(def);
            let delta = repo_delta(&slot, &fresh);
            *slot = Arc::new(fresh);
            let report = self.ground_cache.apply_delta(&delta);
            (delta, report)
        };
        Ok(UpdateOutcome {
            segments_changed: delta.len(),
            report,
        })
    }

    /// The shared warm ground cache.
    pub fn ground_cache(&self) -> &Arc<GroundCache> {
        &self.ground_cache
    }

    /// The chained reusable-spec sources, highest priority first.
    pub fn caches(&self) -> &[Arc<dyn CacheSource>] {
        &self.caches
    }

    /// The service counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Ask the accept loop to stop (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Has shutdown been requested?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server: the bound address plus the accept-loop thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: JoinHandle<DrainReport>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (for in-process inspection, e.g. tests).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Block until the server has shut down and its workers have
    /// drained (bounded by [`OpsConfig::drain_timeout`]). An accept-loop
    /// panic comes back as a structured [`ServerError`], never as a
    /// panic of the caller.
    pub fn join(self) -> Result<DrainReport, ServerError> {
        self.accept
            .join()
            .map_err(|payload| ServerError::AcceptLoopPanicked(panic_message(payload)))
    }

    /// Request shutdown from outside a connection (tests, signal
    /// handlers) and wake the accept loop.
    pub fn initiate_shutdown(&self) {
        self.state.request_shutdown();
        let _ = TcpStream::connect(self.addr);
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
/// accepting connections, one worker thread per connection.
pub fn serve(state: Arc<ServerState>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let accept_state = Arc::clone(&state);
    let accept = std::thread::spawn(move || accept_loop(listener, local, accept_state));
    Ok(ServerHandle {
        addr: local,
        state,
        accept,
    })
}

fn accept_loop(listener: TcpListener, addr: SocketAddr, state: Arc<ServerState>) -> DrainReport {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut report = DrainReport::default();
    for stream in listener.incoming() {
        if state.shutdown_requested() {
            break;
        }
        // Reap finished workers as we go so a long-lived daemon does
        // not accumulate handles (and so mid-life panics surface in
        // telemetry, not only at drain time).
        let (done, live): (Vec<_>, Vec<_>) =
            workers.into_iter().partition(JoinHandle::is_finished);
        workers = live;
        for w in done {
            report.workers_joined += 1;
            if w.join().is_err() {
                report.worker_panics += 1;
                state.telemetry().record_worker_panics(1);
            }
        }
        match stream {
            Ok(stream) => {
                let state = Arc::clone(&state);
                workers.push(std::thread::spawn(move || {
                    serve_connection(stream, addr, &state);
                }));
            }
            // Transient accept errors (EMFILE, aborted handshakes) must
            // not kill the daemon.
            Err(_) => continue,
        }
    }
    drain_workers(workers, &state, report)
}

/// Join workers with a deadline: poll `is_finished`, join what is done
/// (capturing panics), abandon the rest once `drain_timeout` expires.
fn drain_workers(
    mut workers: Vec<JoinHandle<()>>,
    state: &ServerState,
    mut report: DrainReport,
) -> DrainReport {
    let deadline = Instant::now() + state.ops().drain_timeout;
    loop {
        let (done, live): (Vec<_>, Vec<_>) =
            workers.into_iter().partition(JoinHandle::is_finished);
        for w in done {
            report.workers_joined += 1;
            if w.join().is_err() {
                report.worker_panics += 1;
                state.telemetry().record_worker_panics(1);
            }
        }
        if live.is_empty() {
            return report;
        }
        if Instant::now() >= deadline {
            report.workers_abandoned += live.len();
            return report;
        }
        workers = live;
        std::thread::sleep(DRAIN_POLL);
    }
}

/// Should this request be shed? Only *concretize* (the expensive op)
/// sheds, and only when the in-flight gauge — which already counts this
/// request, hence the strict `>` — is past the configured limit. Ping,
/// stats and shutdown always get through, keeping an overloaded daemon
/// observable and stoppable.
fn should_shed(state: &ServerState, request: &Request) -> bool {
    let limit = state.ops().max_in_flight;
    limit > 0 && request.op == "concretize" && state.telemetry().in_flight() > limit as u64
}

/// Serve one connection until EOF: read a line, handle it, answer with a
/// line. Parse failures answer with `ok:false` and keep the connection;
/// a line longer than [`MAX_LINE_BYTES`] is answered with an error as
/// soon as the limit is crossed, and the connection closed.
///
/// Reads poll on a short timeout so an idle worker notices a drain and
/// exits instead of blocking shutdown forever. A timeout mid-line keeps
/// the partial bytes (`read_until` appends, and the buffer is cleared
/// only after a complete line is processed), so slow writers never get
/// their requests truncated or spliced together.
fn serve_connection(stream: TcpStream, addr: SocketAddr, state: &ServerState) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let _ = read_half.set_read_timeout(Some(READ_POLL));
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut session = Session::new();
    let mut line: Vec<u8> = Vec::new();

    loop {
        // Read at most one byte past the limit, so an endless line is
        // cut off while it streams in rather than buffered whole.
        let cap = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(cap).read_until(b'\n', &mut line) {
            Ok(0) => break, // client hung up
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Poll tick: partial bytes stay buffered in `line`.
                if state.shutdown_requested() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        if line.len() > MAX_LINE_BYTES {
            // The rest of the line was never read, so the stream cannot
            // resynchronize: answer, then close the connection.
            let _guard = state.telemetry().begin_request();
            state.telemetry().record_failure();
            let response = Response::err_for(
                &Request::default(),
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            send(&mut writer, &response);
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break; // not UTF-8, so not a request
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }

        let _guard = state.telemetry().begin_request();
        let response = match Request::from_line(trimmed) {
            Ok(request) if should_shed(state, &request) => {
                state.telemetry().record_shed();
                let mut r = Response::err_for(
                    &request,
                    format!(
                        "server overloaded ({} requests in flight); retry shortly",
                        state.telemetry().in_flight()
                    ),
                );
                r.error_kind = "overloaded".to_string();
                r.retry_after_ms = 100;
                r
            }
            Ok(request) => handle(state, &mut session, &request),
            Err(e) => {
                state.telemetry().record_failure();
                Response::err_for(&Request::default(), format!("bad request: {e}"))
            }
        };
        line.clear();

        let is_shutdown = response.ok && response.op == "shutdown";
        if !send(&mut writer, &response) {
            break;
        }
        if is_shutdown {
            // Raise the flag, then wake the accept loop so it observes
            // it; the wake connection itself is discarded by the
            // shutdown check.
            state.request_shutdown();
            let _ = TcpStream::connect(addr);
            break;
        }
    }
}

/// Write one response line; false when the client is gone.
fn send(writer: &mut impl Write, response: &Response) -> bool {
    writer
        .write_all(response.to_line().as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_ok()
}
