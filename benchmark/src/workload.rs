//! The four workloads: which goals each solves, over which repository and
//! reusable-spec sources, and what the seed varies.
//!
//! The seed orders each sweep's goals and draws the daemon's requests and
//! updates. It does not touch the repository or the caches: Figs 5-7 plot
//! time against the cache and the splice candidates, so those are fixed
//! inputs, the same for every seed and on every host.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spackle_buildcache::{BuildCache, CacheSource};
use spackle_core::{Concretizer, ConcretizerConfig, Goal};
use spackle_radiuss::cachegen::concretize_roots_parallel;
use spackle_radiuss::{
    farm_artifact, local_cache, radiuss_repo, synth_spec, with_mpiabi, with_replicas, SynthConfig,
    RADIUSS_ROOTS,
};
use spackle_repo::Repository;
use spackle_spec::{parse_spec, Sym};
use std::sync::Arc;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig 5 / RQ1: every RADIUSS root, splicing off, over the public cache.
    Rq1Public,
    /// Fig 6 / RQ3: the MPI roots pinned to `mpiabi`, splicing on, over the
    /// public cache.
    SplicePublic,
    /// Fig 7 / RQ4: the MPI roots with `mpich` forbidden over 100 `mpiabi`
    /// replicas and the local cache's mpich builds.
    Replicas100,
    /// A live `spackled` serving a seeded mix of both presets plus updates.
    DaemonMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Rq1Public,
        Workload::SplicePublic,
        Workload::Replicas100,
        Workload::DaemonMixed,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rq1Public => "rq1-public",
            Workload::SplicePublic => "splice-public",
            Workload::Replicas100 => "replicas-100",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Must every answer of this workload execute at least one splice?
    pub fn must_splice(self) -> bool {
        matches!(self, Workload::SplicePublic | Workload::Replicas100)
    }

    /// The timed units a run of `seconds` measures: sweeps of a cold
    /// workload, or requests per connection of `daemon-mixed`. The rates
    /// are constants, about what a 2-vCPU x86-64 host managed when the
    /// benchmark was defined, so every commit measures the same number of
    /// samples and a faster one just finishes sooner. At 20 s a cold
    /// workload's sweeps take 13-15 s of that host, so that a run still
    /// ends in about 30 s when other tenants halve the host's speed;
    /// `daemon-mixed`'s rate is set a little above its 44 ms round trip so
    /// that 20 s give the 1000 concretize samples its p99 needs.
    pub fn units(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::Rq1Public => 0.25,
            Workload::SplicePublic => 0.35,
            Workload::Replicas100 => 0.35,
            Workload::DaemonMixed => 26.0,
        };
        ((seconds * per_second).round() as usize).max(1)
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::smoke`] shrinks
/// every axis so the whole suite runs in seconds under `cargo test`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Keep at most this many goals of each kind.
    pub goal_cap: usize,
    /// Synthesized configurations in the public cache.
    pub public_dags: usize,
    /// `mpiabi` replicas in the repository of `replicas-100`.
    pub replicas: usize,
    /// Every this-many-th request on the first daemon connection is an
    /// `update`.
    pub update_every: usize,
}

impl Scale {
    /// The benchmark's sizes. At 20 s the first daemon connection sends
    /// 520 requests, so one in 16 updates each of the 32 goal roots once.
    pub fn full() -> Scale {
        Scale {
            goal_cap: usize::MAX,
            public_dags: 1000,
            replicas: 100,
            update_every: 16,
        }
    }

    /// Sizes for the smoke test.
    pub fn smoke() -> Scale {
        Scale {
            goal_cap: 2,
            public_dags: 50,
            replicas: 10,
            update_every: 5,
        }
    }
}

/// A shipped configuration preset, by the name clients send on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Preset {
    /// `splice_spack_disabled`.
    NoSplice,
    /// `splice_spack`.
    Splice,
}

impl Preset {
    /// The preset's wire name.
    pub(crate) fn wire(self) -> &'static str {
        match self {
            Preset::NoSplice => "no-splice",
            Preset::Splice => "splice",
        }
    }

    /// The configuration `spackled` resolves the wire name to.
    pub(crate) fn config(self) -> ConcretizerConfig {
        spackle_server::config_preset(self.wire()).expect("shipped preset names resolve")
    }
}

/// One goal as a user states it.
#[derive(Clone, Debug)]
pub(crate) struct GoalSpec {
    /// Spec text.
    pub text: String,
    /// Package names forbidden from the answer.
    pub forbid: Vec<String>,
    /// Configuration preset.
    pub preset: Preset,
}

impl GoalSpec {
    fn new(text: String, preset: Preset) -> GoalSpec {
        GoalSpec {
            text,
            forbid: Vec::new(),
            preset,
        }
    }

    /// A stable name for reports and the golden file.
    pub(crate) fn label(&self) -> String {
        if self.forbid.is_empty() {
            self.text.clone()
        } else {
            format!("{} forbid={}", self.text, self.forbid.join(","))
        }
    }

    /// Parse into the concretizer's goal type.
    pub(crate) fn goal(&self) -> Result<Goal, String> {
        let spec = parse_spec(&self.text).map_err(|e| format!("bad spec {:?}: {e}", self.text))?;
        let mut goal = Goal::single(spec);
        goal.forbidden = self.forbid.iter().map(|n| Sym::intern(n)).collect();
        Ok(goal)
    }
}

/// A goal ready to solve: its parsed form and a concretizer with its
/// preset over the workload's sources (no ground cache, so every solve is
/// cold).
pub(crate) struct GoalCase {
    /// The goal as stated.
    pub spec: GoalSpec,
    /// The parsed goal.
    pub goal: Goal,
    /// The concretizer that solves it.
    pub conc: Concretizer,
}

/// Everything a workload solves against.
pub(crate) struct GoalSet {
    /// The repository.
    pub repo: Arc<Repository>,
    /// Reusable-spec sources, highest priority first.
    pub sources: Vec<Arc<dyn CacheSource>>,
    /// The goals, in reference order.
    pub cases: Vec<GoalCase>,
}

impl GoalSet {
    fn new(repo: Repository, sources: Vec<Arc<dyn CacheSource>>, goals: Vec<GoalSpec>) -> GoalSet {
        let repo = Arc::new(repo);
        let cases = goals
            .into_iter()
            .map(|spec| {
                let goal = spec.goal().expect("workload goals are valid specs");
                let mut conc =
                    Concretizer::shared(Arc::clone(&repo)).with_config(spec.preset.config());
                for s in &sources {
                    conc = conc.with_reusable(s);
                }
                GoalCase { spec, goal, conc }
            })
            .collect();
        GoalSet {
            repo,
            sources,
            cases,
        }
    }

    /// Number of goals.
    pub(crate) fn len(&self) -> usize {
        self.cases.len()
    }

    /// The packages daemon updates land on: the goals' root packages,
    /// sorted. A new application release invalidates the few goals that
    /// contain it; drawing from every package instead would let a seed
    /// that hits `zlib` (in all 47 closures) invalidate the whole index
    /// while another hits a leaf, and the miss count, tail and memory
    /// would follow the seed rather than the code.
    pub(crate) fn update_targets(&self) -> Vec<String> {
        let mut roots: Vec<String> = self
            .cases
            .iter()
            .flat_map(|c| {
                c.goal
                    .roots
                    .iter()
                    .filter_map(|r| r.name)
                    .map(|n| n.as_str().to_string())
            })
            .collect();
        roots.sort();
        roots.dedup();
        roots
    }
}

/// The RADIUSS roots whose possible closure reaches MPI.
fn mpi_roots(repo: &Repository) -> Vec<&'static str> {
    let mpi = Sym::intern("mpi");
    RADIUSS_ROOTS
        .iter()
        .copied()
        .filter(|r| repo.possible_closure(&[Sym::intern(r)]).contains(&mpi))
        .collect()
}

/// Seed of the public cache's synthesis stream.
const PUBLIC_CACHE_SEED: u64 = 42;

/// The public cache: `n_dags` synthesized configurations drawn from one
/// fixed stream, merged with the local cache. One stream (rather than one
/// per CPU, as `spackle_radiuss::public_cache` draws) keeps the cache
/// identical on every host.
fn public_cache(repo: &Repository, n_dags: usize, local: &BuildCache) -> BuildCache {
    let mut rng = StdRng::seed_from_u64(PUBLIC_CACHE_SEED);
    let cfg = SynthConfig::default();
    let mut cache = BuildCache::new();
    for _ in 0..n_dags {
        let root = RADIUSS_ROOTS[rng.gen_range(0..RADIUSS_ROOTS.len())];
        if let Some(spec) = synth_spec(repo, Sym::intern(root), &cfg, &mut rng) {
            cache.add_spec(&spec);
        }
    }
    cache.merge(local);
    cache
}

/// The local cache's mpich configurations only: with `mpich` forbidden and
/// no openmpi builds to fall back on, reusing these binaries takes a
/// splice onto an `mpiabi` replica.
fn mpich_local_cache(repo: &Repository) -> BuildCache {
    let mut cache = BuildCache::new();
    for spec in concretize_roots_parallel(repo, &RADIUSS_ROOTS) {
        cache.add_spec_with(&spec, farm_artifact);
    }
    cache
}

/// Build a workload's repository, sources and goals: the work `setup_s`
/// times.
pub(crate) fn build(workload: Workload, scale: &Scale) -> GoalSet {
    let plain = radiuss_repo();
    let cap = scale.goal_cap;
    let roots = || RADIUSS_ROOTS.iter().take(cap).map(|r| r.to_string());
    let mpi_goals = |plain: &Repository| -> Vec<String> {
        mpi_roots(plain)
            .into_iter()
            .take(cap)
            .map(str::to_string)
            .collect()
    };
    match workload {
        Workload::Rq1Public => {
            let public = public_cache(&plain, scale.public_dags, &local_cache(&plain));
            let goals = roots()
                .map(|r| GoalSpec::new(r, Preset::NoSplice))
                .collect();
            GoalSet::new(plain, vec![Arc::new(public)], goals)
        }
        Workload::SplicePublic => {
            let public = public_cache(&plain, scale.public_dags, &local_cache(&plain));
            let goals = mpi_goals(&plain)
                .into_iter()
                .map(|r| GoalSpec::new(format!("{r} ^mpiabi"), Preset::Splice))
                .collect();
            GoalSet::new(with_mpiabi(&plain), vec![Arc::new(public)], goals)
        }
        Workload::Replicas100 => {
            let cache = mpich_local_cache(&plain);
            let goals = mpi_goals(&plain)
                .into_iter()
                .map(|r| GoalSpec {
                    forbid: vec!["mpich".to_string()],
                    ..GoalSpec::new(r, Preset::Splice)
                })
                .collect();
            GoalSet::new(
                with_replicas(&plain, scale.replicas),
                vec![Arc::new(cache)],
                goals,
            )
        }
        Workload::DaemonMixed => {
            let local = local_cache(&plain);
            let mut goals: Vec<GoalSpec> = roots()
                .map(|r| GoalSpec::new(r, Preset::NoSplice))
                .collect();
            goals.extend(
                mpi_goals(&plain)
                    .into_iter()
                    .map(|r| GoalSpec::new(format!("{r} ^mpiabi"), Preset::Splice)),
            );
            GoalSet::new(with_mpiabi(&plain), vec![Arc::new(local)], goals)
        }
    }
}

/// A generator for one named stream of the run's randomness.
fn stream(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.rotate_left(48) ^ index)
}

const ORDER_STREAM: u64 = 1;
const DAEMON_STREAM: u64 = 2;
const UPDATE_STREAM: u64 = 3;

/// A permutation of `0..n` drawn from `rng`.
fn permutation(mut rng: StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// The order in which sweep number `sweep` visits `n` goals.
pub(crate) fn goal_order(seed: u64, sweep: u64, n: usize) -> Vec<usize> {
    permutation(stream(seed, ORDER_STREAM, sweep), n)
}

/// One request of the daemon load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Concretize goal number `.0` of the workload's goal set.
    Concretize(usize),
    /// Declare `version` on package number `package` of the sorted
    /// package-name list.
    Update {
        /// Index into the sorted package names.
        package: usize,
        /// The version to add (ranked least preferred).
        version: String,
    },
}

/// The endless request sequence connection `conn` sends: concretize
/// requests drawn uniformly from `goals`, except that every
/// `update_every`-th request on connection 0 adds version `999.<k>` to one
/// of `packages` (see [`GoalSet::update_targets`]). The updates visit the
/// packages in a seeded order, each once before any repeats, so a run
/// that sends as many updates as there are packages invalidates the same
/// ground-cache entries whatever the seed, and its misses, tail and
/// memory follow the code rather than the draw.
pub(crate) struct Script {
    rng: StdRng,
    conn: usize,
    goals: usize,
    update_order: Vec<usize>,
    update_every: usize,
    sent: usize,
    updates: usize,
}

impl Script {
    /// The script for connection `conn`.
    pub(crate) fn new(
        seed: u64,
        conn: usize,
        goals: usize,
        packages: usize,
        update_every: usize,
    ) -> Script {
        Script {
            rng: stream(seed, DAEMON_STREAM, conn as u64),
            conn,
            goals,
            update_order: permutation(stream(seed, UPDATE_STREAM, 0), packages),
            update_every,
            sent: 0,
            updates: 0,
        }
    }
}

impl Iterator for Script {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.sent += 1;
        if self.conn == 0 && self.sent.is_multiple_of(self.update_every) {
            let op = Op::Update {
                package: self.update_order[self.updates % self.update_order.len()],
                version: format!("999.{}", self.updates),
            };
            self.updates += 1;
            return Some(op);
        }
        Some(Op::Concretize(self.rng.gen_range(0..self.goals)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_goal_order() {
        assert_eq!(goal_order(42, 3, 32), goal_order(42, 3, 32));
        assert_ne!(
            goal_order(42, 3, 32),
            goal_order(42, 4, 32),
            "sweeps differ"
        );
        assert_ne!(goal_order(42, 3, 32), goal_order(43, 3, 32), "seeds differ");
        let mut sorted = goal_order(7, 0, 32);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn a_seed_fixes_the_daemon_script() {
        let take = |seed, conn| {
            Script::new(seed, conn, 47, 80, 50)
                .take(200)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(42, 0), take(42, 0));
        assert_eq!(take(42, 1), take(42, 1));
        assert_ne!(take(42, 0), take(43, 0));
        assert_ne!(
            take(42, 0),
            take(42, 1),
            "connections draw different streams"
        );

        let ops = take(42, 0);
        let updates: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(ops[i], Op::Update { .. }))
            .collect();
        assert_eq!(
            updates,
            vec![49, 99, 149, 199],
            "every 50th request on connection 0"
        );
        match &ops[99] {
            Op::Update { package, version } => {
                assert!(*package < 80);
                assert_eq!(version, "999.1", "versions count up");
            }
            other => panic!("expected an update, got {other:?}"),
        }
        assert!(take(42, 1)
            .iter()
            .all(|op| matches!(op, Op::Concretize(g) if *g < 47)));
    }

    #[test]
    fn updates_visit_every_package_once_before_repeating() {
        let targets = |seed| -> Vec<usize> {
            Script::new(seed, 0, 47, 32, 16)
                .take(16 * 40)
                .filter_map(|op| match op {
                    Op::Update { package, .. } => Some(package),
                    Op::Concretize(_) => None,
                })
                .collect()
        };
        let (a, b) = (targets(42), targets(43));
        assert_eq!(a.len(), 40);
        assert_ne!(a, b, "the seed orders the updates");
        for t in [&a, &b] {
            let mut first: Vec<usize> = t[..32].to_vec();
            first.sort_unstable();
            assert_eq!(first, (0..32).collect::<Vec<_>>(), "each package once");
            assert_eq!(t[32..], t[..8], "then the same order again");
        }
    }
}
