//! Driving an in-process `spackled` through the shipped blocking
//! [`Client`], unchanged, so that anything on the wire path (framing,
//! JSON, socket options) shows up in the numbers.

use crate::solve::{solve_with, Signature};
use crate::workload::{GoalSet, GoalSpec, Op, Script};
use spackle_core::Concretizer;
use spackle_repo::Repository;
use spackle_server::{serve, Client, Request, Response, ServerHandle, ServerState};
use spackle_spec::{Sym, Version};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running server plus its client connections.
pub struct Rig {
    server: ServerHandle,
    clients: Vec<Client>,
}

impl Rig {
    /// Boot a cold server over the set's repository and sources on an
    /// ephemeral loopback port and open `connections` clients.
    pub fn boot(set: &GoalSet, connections: usize) -> Result<Rig, String> {
        let state = ServerState::new((*set.repo).clone(), set.sources.clone());
        let server = serve(Arc::new(state), "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let clients = (0..connections)
            .map(|_| Client::connect(server.addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Rig { server, clients })
    }

    /// The server's `stats` answer.
    pub fn stats(&mut self) -> Result<Response, String> {
        self.clients[0].stats()
    }

    /// Hang up every client, stop the server and wait for its threads.
    pub fn shutdown(self) -> Result<(), String> {
        drop(self.clients);
        self.server.initiate_shutdown();
        let drained = self.server.join().map_err(|e| e.to_string())?;
        if drained.workers_abandoned + drained.worker_panics > 0 {
            return Err(format!("server drain: {drained:?}"));
        }
        Ok(())
    }
}

/// A concretize request for `goal` as its user would send it.
pub fn concretize_request(goal: &GoalSpec) -> Request {
    let mut request = Request::concretize(&goal.text).with_config(goal.preset.wire());
    request.forbid = goal.forbid.clone();
    request
}

/// The answer a concretize response carries.
pub fn response_signature(response: &Response) -> Result<Signature, String> {
    if !response.ok {
        return Err(format!("{} ({})", response.error, response.error_kind));
    }
    Ok(Signature {
        hashes: response.hashes.clone(),
        reused: response.reused.len(),
        built: response.built.len(),
        spliced: response.spliced as usize,
    })
}

/// One answered concretize request.
pub struct Served {
    /// Index of the goal in the set.
    pub goal: usize,
    /// Round trip as the client saw it, ms.
    pub round_trip_ms: f64,
    /// Solve time the server reported, ms.
    pub solve_ms: f64,
    /// Did the server answer from its ground cache?
    pub hit: bool,
    /// The answer, or the failure.
    pub answer: Result<Signature, String>,
    /// The worlds the server may have solved in: world `j` is the
    /// repository with the load's first `j` updates applied. Updates
    /// completed before the request was sent bound it below; updates sent
    /// before its answer arrived bound it above.
    pub worlds: (usize, usize),
}

/// Everything one load produced.
#[derive(Default)]
pub struct Load {
    /// Concretize requests, in completion order per connection.
    pub served: Vec<Served>,
    /// Updates sent, in order, as (package, version).
    pub updates: Vec<(String, String)>,
    /// Update requests that failed.
    pub update_failures: Vec<String>,
    /// Completion offsets of every request, from the load start.
    pub completions: Vec<Duration>,
    /// Time from the load start to the last completion.
    pub span: Duration,
}

/// Send one concretize request per goal, in set order, on the first
/// connection.
pub fn serve_once(rig: &mut Rig, set: &GoalSet) -> Load {
    let start = Instant::now();
    let mut load = Load::default();
    for (goal, case) in set.cases.iter().enumerate() {
        load.served
            .push(call(&mut rig.clients[0], goal, &case.spec));
        load.completions.push(start.elapsed());
    }
    load.span = start.elapsed();
    load
}

fn call(client: &mut Client, goal: usize, spec: &GoalSpec) -> Served {
    let start = Instant::now();
    let response = client.call(concretize_request(spec));
    let round_trip_ms = start.elapsed().as_secs_f64() * 1e3;
    let solve_ms = response.as_ref().map_or(0.0, |r| r.solve_ms);
    let hit = response.as_ref().is_ok_and(|r| r.ground_cache_hit);
    Served {
        goal,
        round_trip_ms,
        solve_ms,
        hit,
        answer: response.and_then(|r| response_signature(&r)),
        worlds: (0, 0),
    }
}

/// Closed-loop load: every connection sends the first `requests` of its
/// seeded [`Script`], one at a time.
pub fn run_load(
    rig: &mut Rig,
    set: &GoalSet,
    seed: u64,
    requests: usize,
    update_every: usize,
) -> Load {
    let packages = set.update_targets();
    let goals: Vec<&GoalSpec> = set.cases.iter().map(|c| &c.spec).collect();
    // Updates sent and updates answered so far; only connection 0 sends
    // them, so together they bracket the world every request saw.
    let (sent_updates, done_updates) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let start = Instant::now();
    let logs: Vec<Load> = std::thread::scope(|s| {
        let threads: Vec<_> = rig
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (goals, packages) = (&goals, &packages);
                let (sent_updates, done_updates) = (&sent_updates, &done_updates);
                s.spawn(move || {
                    let mut log = Load::default();
                    let script = Script::new(seed, conn, goals.len(), packages.len(), update_every);
                    for op in script.take(requests) {
                        match op {
                            Op::Concretize(goal) => {
                                let low = done_updates.load(Ordering::SeqCst);
                                let mut served = call(client, goal, goals[goal]);
                                served.worlds = (low, sent_updates.load(Ordering::SeqCst));
                                log.served.push(served);
                            }
                            Op::Update { package, version } => {
                                let mut request = Request::op("update");
                                request.package = packages[package].clone();
                                request.version = version.clone();
                                sent_updates.fetch_add(1, Ordering::SeqCst);
                                match client.call(request) {
                                    Ok(r) if r.ok => {}
                                    Ok(r) => log.update_failures.push(r.error),
                                    Err(e) => log.update_failures.push(e),
                                }
                                done_updates.fetch_add(1, Ordering::SeqCst);
                                log.updates.push((packages[package].clone(), version));
                            }
                        }
                        log.completions.push(start.elapsed());
                    }
                    log
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("load connection thread"))
            .collect()
    });
    let mut load = Load::default();
    for log in logs {
        load.served.extend(log.served);
        load.updates.extend(log.updates);
        load.update_failures.extend(log.update_failures);
        load.completions.extend(log.completions);
    }
    load.span = load.completions.iter().copied().max().unwrap_or_default();
    load
}

/// Cold answers of the worlds a load passed through, computed on demand.
///
/// A goal's answer can only change when an update touches a package of
/// its closure (the segment set its ground-cache key is built from), so
/// answers are keyed by goal and by how many such updates a world holds:
/// each is solved once, cold, in the first world that holds that many.
pub struct Oracle<'a> {
    set: &'a GoalSet,
    updates: &'a [(String, String)],
    /// `worlds[j]`: the repository after the first `j` updates.
    worlds: Vec<Arc<Repository>>,
    closures: Vec<BTreeSet<String>>,
    answers: HashMap<(usize, usize), Option<Signature>>,
}

impl<'a> Oracle<'a> {
    /// An oracle for `set` after `updates`; `reference` holds the cold
    /// answers of the world before any update.
    pub fn new(
        set: &'a GoalSet,
        updates: &'a [(String, String)],
        reference: &[Option<Signature>],
    ) -> Oracle<'a> {
        let closures = set
            .cases
            .iter()
            .map(|c| match c.conc.segment_key(&c.goal) {
                Ok((_, segments)) => segments
                    .packages
                    .iter()
                    .map(|(n, _)| n.as_str().to_string())
                    .collect(),
                Err(_) => BTreeSet::new(),
            })
            .collect();
        let answers = reference
            .iter()
            .cloned()
            .enumerate()
            .map(|(g, a)| ((g, 0), a))
            .collect();
        Oracle {
            set,
            updates,
            worlds: vec![Arc::clone(&set.repo)],
            closures,
            answers,
        }
    }

    /// The updates among the first `world` that touch `goal`'s closure.
    fn touching(&self, goal: usize, world: usize) -> usize {
        self.updates[..world]
            .iter()
            .filter(|(p, _)| self.closures[goal].contains(p))
            .count()
    }

    fn world(&mut self, j: usize) -> Result<Arc<Repository>, String> {
        while self.worlds.len() <= j {
            let (package, version) = &self.updates[self.worlds.len() - 1];
            let mut repo = (**self.worlds.last().expect("world 0")).clone();
            let mut def = repo
                .get(Sym::intern(package))
                .ok_or(format!("no package {package}"))?
                .clone();
            def.versions
                .push(Version::parse(version).map_err(|e| e.to_string())?);
            repo.upsert(def);
            self.worlds.push(Arc::new(repo));
        }
        Ok(Arc::clone(&self.worlds[j]))
    }

    fn answer(&mut self, goal: usize, world: usize) -> Option<Signature> {
        let key = (goal, self.touching(goal, world));
        if let Some(a) = self.answers.get(&key) {
            return a.clone();
        }
        let first = (0..=world)
            .find(|&j| self.touching(goal, j) == key.1)
            .expect("world itself qualifies");
        let case = &self.set.cases[goal];
        let answer = self.world(first).ok().and_then(|repo| {
            let mut conc = Concretizer::shared(repo).with_config(case.spec.preset.config());
            for s in &self.set.sources {
                conc = conc.with_reusable(s);
            }
            solve_with(&conc, &case.goal).1.ok().map(|a| a.sig)
        });
        self.answers.insert(key, answer.clone());
        answer
    }

    /// The cold answer a served request must equal: the one of its
    /// possible worlds that matches, or else the first.
    pub fn expected(&mut self, served: &Served) -> Option<Signature> {
        let (low, high) = served.worlds;
        let candidates: Vec<Option<Signature>> =
            (low..=high).map(|j| self.answer(served.goal, j)).collect();
        let got = served.answer.as_ref().ok();
        candidates
            .iter()
            .find(|c| c.as_ref() == got)
            .unwrap_or(&candidates[0])
            .clone()
    }
}
