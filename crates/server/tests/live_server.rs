//! End-to-end test against a live `spackled`: boot the server on an
//! ephemeral port, hammer it from concurrent client connections, check
//! every response is bit-identical to a direct cold solve, check the
//! telemetry adds up exactly, invalidate while solves are in flight,
//! and shut down cleanly.

use spackle_buildcache::{BuildCache, CacheSource, FaultConfig, FaultInjector};
use spackle_core::Concretizer;
use spackle_repo::{PackageBuilder, Repository};
use spackle_server::server::{OpsConfig, ServerState};
use spackle_server::{serve, Client, Request, Response, RetryConfig, MAX_LINE_BYTES};
use spackle_spec::parse_spec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_THREADS: usize = 4;
const WARM_ROUNDS: usize = 3;
const STORM_ROUNDS: usize = 2;

const GOALS: [&str; 6] = ["app", "cmake", "curl", "openssl", "zlib@1.2", "bzip2"];

fn test_repo() -> Repository {
    Repository::from_packages([
        PackageBuilder::new("zlib")
            .version("1.3")
            .version("1.2")
            .build()
            .unwrap(),
        PackageBuilder::new("bzip2").version("1.0.8").build().unwrap(),
        PackageBuilder::new("openssl")
            .version("3.0")
            .depends_on("zlib")
            .build()
            .unwrap(),
        PackageBuilder::new("curl")
            .version("8.5")
            .depends_on("openssl")
            .depends_on("zlib")
            .build()
            .unwrap(),
        PackageBuilder::new("cmake")
            .version("3.27")
            .depends_on("curl")
            .build()
            .unwrap(),
        PackageBuilder::new("app")
            .version("1.0")
            .depends_on("curl")
            .depends_on("bzip2")
            .build()
            .unwrap(),
    ])
    .unwrap()
}

fn seeded_cache(repo: &Repository) -> Arc<dyn CacheSource> {
    let mut bc = BuildCache::new();
    for g in ["zlib@1.3", "openssl"] {
        let sol = Concretizer::new(repo)
            .concretize(&parse_spec(g).unwrap())
            .unwrap();
        bc.add_spec(sol.spec());
    }
    Arc::new(bc)
}

#[test]
fn concurrent_clients_share_one_warm_cache() {
    let repo = test_repo();
    let cache = seeded_cache(&repo);

    // Direct cold solves: the ground truth every server answer must
    // reproduce bit-for-bit. The server uses the "splice" preset by
    // default, so the baseline does too.
    let baseline: Vec<Vec<String>> = GOALS
        .iter()
        .map(|g| {
            let sol = Concretizer::new(&repo)
                .with_reusable(&cache)
                .concretize(&parse_spec(g).unwrap())
                .unwrap();
            sol.specs
                .iter()
                .map(|s| s.dag_hash().to_string())
                .collect()
        })
        .collect();

    let state = Arc::new(ServerState::new(repo, vec![cache]));
    let server = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let mut control = Client::connect(addr).expect("connect");
    let ping = control.call(Request::op("ping")).unwrap();
    assert!(ping.ok);
    assert_eq!(ping.protocol, spackle_server::PROTOCOL_VERSION);

    // Warm the shared cache: each goal misses exactly once.
    for (i, g) in GOALS.iter().enumerate() {
        let resp = control.concretize(g).unwrap();
        assert!(resp.ok, "{}", resp.error);
        assert!(!resp.ground_cache_hit, "goal {g} should miss cold");
        assert_eq!(resp.hashes, baseline[i], "cold solve for {g} diverged");
    }

    // Fan out: 4 client connections × 3 rounds × 6 goals = 72 warm
    // concretize requests, all served from the one shared cache.
    std::thread::scope(|s| {
        for t in 0..CLIENT_THREADS {
            let baseline = &baseline;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..WARM_ROUNDS {
                    for (i, g) in GOALS.iter().enumerate() {
                        let resp = client.concretize(g).unwrap();
                        assert!(resp.ok, "thread {t}: {}", resp.error);
                        assert!(
                            resp.ground_cache_hit,
                            "thread {t} round {round}: {g} should hit warm"
                        );
                        assert_eq!(
                            resp.hashes, baseline[i],
                            "thread {t} round {round}: {g} diverged from cold solve"
                        );
                    }
                }
            });
        }
    });

    let warm_hits = (CLIENT_THREADS * WARM_ROUNDS * GOALS.len()) as u64;
    let stats1 = control.stats().unwrap();
    assert!(stats1.ok);
    assert_eq!(stats1.concretizations, GOALS.len() as u64 + warm_hits);
    assert_eq!(stats1.ground_misses, GOALS.len() as u64);
    assert_eq!(stats1.ground_hits, warm_hits);
    assert!(
        stats1.hit_rate >= 0.9,
        "warm hit rate {:.3} below 0.9",
        stats1.hit_rate
    );
    assert_eq!(stats1.failures, 0);
    assert_eq!(stats1.cache_entries, GOALS.len() as u64);
    assert!(stats1.in_flight >= 1, "the stats request itself is in flight");
    assert!(stats1.max_solve_ms <= stats1.total_solve_ms);

    // Invalidate while solves are in flight: solver threads keep going
    // through cache clears; nothing may fail and nothing may diverge.
    std::thread::scope(|s| {
        for t in 0..CLIENT_THREADS {
            let baseline = &baseline;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..STORM_ROUNDS {
                    for (i, g) in GOALS.iter().enumerate() {
                        let resp = client.concretize(g).unwrap();
                        assert!(resp.ok, "thread {t}: {}", resp.error);
                        assert_eq!(
                            resp.hashes, baseline[i],
                            "thread {t} round {round}: {g} diverged across invalidation"
                        );
                    }
                }
            });
        }
        let control = &mut control;
        s.spawn(move || {
            for _ in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let inv = control.invalidate().unwrap();
                assert!(inv.ok, "{}", inv.error);
            }
        });
    });

    let storm_solves = (CLIENT_THREADS * STORM_ROUNDS * GOALS.len()) as u64;
    let stats2 = control.stats().unwrap();
    assert_eq!(stats2.concretizations, stats1.concretizations + storm_solves);
    assert_eq!(
        stats2.ground_hits + stats2.ground_misses,
        stats2.concretizations,
        "every solve is exactly one counted lookup"
    );
    assert_eq!(stats2.failures, 0, "no solve failed during invalidation");
    assert!(stats2.invalidated >= 1, "invalidates dropped warm entries");
    // Everything between the two stats calls is accounted for: the
    // storm solves, 3 invalidates, and the stats request itself.
    assert_eq!(stats2.requests, stats1.requests + storm_solves + 3 + 1);

    // Clean shutdown: the accept loop stops, every worker drains, and
    // join() returns.
    let down = control.shutdown().unwrap();
    assert!(down.ok);
    drop(control);
    let report = server.join().expect("clean shutdown");
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.workers_abandoned, 0, "all workers drained: {report:?}");
    assert_eq!(state.telemetry().snapshot().in_flight, 0, "gauge drained");
}

/// Deadlines and overload shedding against a live server with a
/// latency-injected cache backend: expired deadlines come back as
/// structured `timeout` errors, requests past the in-flight cap come
/// back as structured `overloaded` errors, the telemetry counts both
/// exactly, no connection is ever dropped, and a retrying client rides
/// out the saturation.
#[test]
fn deadlines_and_overload_shed_with_exact_telemetry() {
    let repo = test_repo();
    // Every cache lookup sleeps 40 ms: solves stay correct but slow,
    // giving the deadline something to expire against and the probes a
    // wide window in which the held solves are still in flight.
    let slow: Arc<dyn CacheSource> = Arc::new(
        FaultInjector::new(seeded_cache(&repo), "local")
            .with_config(FaultConfig::slow(Duration::from_millis(40))),
    );
    let ops = OpsConfig {
        max_in_flight: 2,
        default_timeout: None,
        drain_timeout: Duration::from_secs(5),
    };
    let state = Arc::new(ServerState::new(repo, vec![slow]).with_ops(ops));
    let server = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    /// Block until `n` requests are being handled (read in-process, so
    /// the wait itself does not occupy a server slot).
    fn wait_in_flight(state: &ServerState, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while state.telemetry().in_flight() < n {
            assert!(Instant::now() < deadline, "server never reached {n} in flight");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // --- Phase 1: deadline expiry is a structured timeout. ---
    let mut control = Client::connect(addr).expect("connect");
    let mut timed = Request::concretize("app");
    timed.timeout_ms = 1; // expires during the first 40 ms cache sleep
    let r = control.call(timed).unwrap();
    assert!(!r.ok);
    assert_eq!(r.error_kind, "timeout", "got: {}", r.error);
    // The connection survives its own timeout.
    assert!(control.call(Request::op("ping")).unwrap().ok);

    // --- Phase 2: saturate both slots, then probe; every probe must
    // shed with a structured answer and the connection stays usable. ---
    let spawn_held = || {
        let mut c = Client::connect(addr).expect("connect");
        std::thread::spawn(move || c.concretize("app").unwrap())
    };
    let held = [spawn_held(), spawn_held()];
    wait_in_flight(&state, 2);

    let mut probe = Client::connect(addr).expect("connect");
    let mut shed_seen = 0u64;
    for _ in 0..3 {
        let r = probe.call(Request::concretize("cmake")).unwrap();
        assert!(!r.ok, "probe must shed while both slots are busy");
        assert_eq!(r.error_kind, "overloaded", "got: {}", r.error);
        assert!(r.retry_after_ms > 0, "shed must carry a retry hint");
        shed_seen += 1;
    }
    // Shedding is per-op: cheap requests pass even at the cap.
    assert!(probe.call(Request::op("ping")).unwrap().ok);

    for h in held {
        let resp = h.join().expect("held client");
        assert!(resp.ok, "held solve failed: {}", resp.error);
        assert!(!resp.degraded, "latency is not a fault; no degradation");
    }
    // The shed connection is still fully functional once load clears.
    let after = probe.call(Request::concretize("cmake")).unwrap();
    assert!(after.ok, "{}", after.error);

    let stats = control.stats().unwrap();
    assert_eq!(stats.timeouts, 1, "exactly the phase-1 deadline");
    assert_eq!(stats.shed, shed_seen, "exactly the phase-2 probes");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.degraded_solves, 0);
    assert_eq!(
        stats.failures, 1,
        "the timeout is a failure; sheds are deliberately not"
    );

    // --- Phase 3: a retrying client rides out saturation. ---
    let held = [spawn_held(), spawn_held()];
    wait_in_flight(&state, 2);
    let retry = RetryConfig {
        max_attempts: 30,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(50),
        total_deadline: Some(Duration::from_secs(10)),
    };
    let mut patient = Client::connect_with(addr, retry).expect("connect");
    let r = patient.call_retrying(Request::concretize("curl")).unwrap();
    assert!(r.ok, "retrying client must eventually land: {}", r.error);
    for h in held {
        assert!(h.join().expect("held client").ok);
    }
    let stats2 = control.stats().unwrap();
    assert!(stats2.shed > stats.shed, "the retrying client was shed at least once");

    let down = control.shutdown().unwrap();
    assert!(down.ok);
    drop(control);
    drop(probe);
    drop(patient);
    let report = server.join().expect("clean shutdown");
    assert_eq!(report.worker_panics, 0);
    assert_eq!(report.workers_abandoned, 0, "{report:?}");
    assert_eq!(state.telemetry().snapshot().in_flight, 0);
}

/// Per-session defaults are really per-connection: a `set-config` on one
/// connection must not leak into another.
#[test]
fn session_config_is_per_connection() {
    let repo = test_repo();
    let state = Arc::new(ServerState::new(repo, Vec::new()));
    let server = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();

    let set = a.call(Request::op("set-config").with_config("old+splice")).unwrap();
    assert!(set.ok, "set-config validates the preset name, not its consistency");
    let from_a = a.concretize("app").unwrap();
    assert!(!from_a.ok, "connection A inherits its inconsistent default");
    assert!(from_a.error.starts_with("configuration:"));

    let from_b = b.concretize("app").unwrap();
    assert!(from_b.ok, "connection B is untouched: {}", from_b.error);

    // `last` replays B's solution without re-solving.
    let last = b.call(Request::op("last")).unwrap();
    assert!(last.ok);
    assert_eq!(last.hashes, from_b.hashes);

    let down = b.shutdown().unwrap();
    assert!(down.ok);
    drop(a);
    drop(b);
    server.join().expect("clean shutdown");
}

/// A line that never ends is cut off at the limit while it streams in:
/// the server answers with the size error and closes the connection.
#[test]
fn endless_request_line_is_answered_at_the_limit() {
    let state = Arc::new(ServerState::new(test_repo(), Vec::new()));
    let server = serve(Arc::clone(&state), "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("an answer within 10 s");
    let resp = Response::from_line(reply.trim()).unwrap();
    assert!(!resp.ok);
    assert!(
        resp.error.starts_with("request line exceeds"),
        "{}",
        resp.error
    );
    reply.clear();
    assert_eq!(
        reader.read_line(&mut reply).unwrap(),
        0,
        "connection closed"
    );

    let mut control = Client::connect(server.addr()).unwrap();
    assert!(control.shutdown().unwrap().ok);
    drop(control);
    server.join().expect("clean shutdown");
}
