//! The concretizer grounds a program it assembles from data: the
//! encoder's facts as atoms and its directive rules as rules, then the
//! logic fragments. Its rendered text must parse back to that program,
//! rule for rule and minimize element for minimize element, or
//! explanations, audits of the text and every checker reading the text
//! would be looking at a different program than the solver.
//!
//! The same goals also pin every stage of the pipeline bit for bit. Per
//! goal, a SHA-256 is taken of four stages: the rendered text with its
//! provenance ledger (`text`), the assembled program (`program`), the
//! ground program with its provenance tables (`ground`), and the search
//! counts, cost and DAG hashes (`answer`). The table is compared with
//! `stage_digests.txt`; a change that moves a stage on purpose commits
//! the table the failing test prints.
//!
//! The goal sets are the benchmark's three cold workloads: the 32
//! RADIUSS roots under `splice_spack_disabled` and the 15 MPI roots
//! `^mpiabi` under `splice_spack`, both over the local cache merged
//! with a 1000-DAG public cache, and the 15 MPI roots with `mpich`
//! forbidden over 100 `mpiabi` replicas and the local `mpich` builds.
//! The digests add the unsatisfiable `explain-demo+newzlib` under the
//! default configuration over the local cache.
//!
//! Every one of those ground programs is tight, so no solve of the
//! benchmark's goals runs the engine's stability check.

use spackle_asp::program::Head;
use spackle_asp::stability::is_tight;
use spackle_asp::term::AtomId;
use spackle_asp::{parse_program, Program, SolveOutcome, Solver};
use spackle_buildcache::{BuildCache, CacheSource};
use spackle_core::interpret::interpret;
use spackle_core::{Concretizer, ConcretizerConfig, Goal};
use spackle_oracle::program_mismatch;
use spackle_radiuss::cachegen::concretize_roots_parallel;
use spackle_radiuss::{ExperimentEnv, RADIUSS_ROOTS};
use spackle_repo::Repository;
use spackle_spec::{parse_spec, Sha256, Sym};
use std::fmt::{self, Write};
use std::sync::Arc;

/// Facts of `program` whose predicate is `pred`.
fn facts_of(program: &Program, pred: &str) -> usize {
    program
        .rules
        .iter()
        .filter(|r| {
            r.body.is_empty() && matches!(&r.head, Head::Atom(a) if a.pred.as_str() == pred)
        })
        .count()
}

/// One goal set under one configuration, over one reusable-spec source.
struct Workload {
    name: &'static str,
    conc: Concretizer,
    source: Arc<dyn CacheSource>,
    goals: Vec<(String, Goal)>,
}

impl Workload {
    fn new(
        name: &'static str,
        repo: &Repository,
        config: ConcretizerConfig,
        cache: &BuildCache,
        goals: Vec<(String, Goal)>,
    ) -> Workload {
        let source: Arc<dyn CacheSource> = Arc::new(cache.clone());
        let conc = Concretizer::new(repo)
            .with_config(config)
            .with_reusable(&source);
        Workload {
            name,
            conc,
            source,
            goals,
        }
    }
}

fn goals(specs: impl IntoIterator<Item = String>, forbidden: &[&str]) -> Vec<(String, Goal)> {
    specs
        .into_iter()
        .map(|s| {
            let goal = Goal {
                roots: vec![parse_spec(&s).unwrap()],
                forbidden: forbidden.iter().map(|f| Sym::intern(f)).collect(),
            };
            (s, goal)
        })
        .collect()
}

/// The three cold workloads, and with `unsat` the `explain-demo`
/// conflict after them.
fn workloads(unsat: bool) -> Vec<Workload> {
    let env = ExperimentEnv::setup(1000, 42);
    let roots = goals(env.roots.iter().map(|r| r.as_str().to_string()), &[]);
    let mpi_roots = || env.mpi_roots.iter().map(|r| r.as_str().to_string());
    let spliced = goals(mpi_roots().map(|r| format!("{r} ^mpiabi")), &[]);
    let no_mpich = goals(mpi_roots(), &["mpich"]);
    assert_eq!((roots.len(), spliced.len(), no_mpich.len()), (32, 15, 15));

    let mut mpich_builds = BuildCache::new();
    for spec in concretize_roots_parallel(&env.repo_plain, &RADIUSS_ROOTS) {
        mpich_builds.add_spec(&spec);
    }

    let mut sets = vec![
        Workload::new(
            "rq1-public",
            &env.repo_plain,
            ConcretizerConfig::splice_spack_disabled(),
            &env.public,
            roots,
        ),
        Workload::new(
            "splice-public",
            &env.repo_mpiabi,
            ConcretizerConfig::splice_spack(),
            &env.public,
            spliced,
        ),
        Workload::new(
            "replicas-100",
            &env.repo_with_replicas(100),
            ConcretizerConfig::splice_spack(),
            &mpich_builds,
            no_mpich,
        ),
    ];
    if unsat {
        sets.push(Workload::new(
            "explain",
            &env.repo_mpiabi,
            ConcretizerConfig::default(),
            &env.local,
            goals(["explain-demo+newzlib".to_string()], &[]),
        ));
    }
    sets
}

#[test]
fn assembled_programs_equal_their_text_on_the_cold_workloads() {
    let mut installed = Vec::new();
    for w in workloads(false) {
        let mut n = 0;
        for (_, goal) in &w.goals {
            let assembled = w
                .conc
                .program(goal)
                .unwrap_or_else(|e| panic!("{goal:?}: {e}"));
            let text = w.conc.program_text(goal).unwrap().program;
            let parsed = parse_program(&text).unwrap_or_else(|e| panic!("{goal:?}: {e}"));
            if let Some(m) = program_mismatch(&assembled, &parsed) {
                panic!("{goal:?}: {m}");
            }
            n += facts_of(&assembled, "installed_hash");
        }
        installed.push(n);
    }
    // A run over an empty fact base cannot pass unnoticed.
    assert!(
        installed.iter().all(|&n| n > 0),
        "every workload encodes reusable specs: {installed:?}"
    );
}

/// A SHA-256 that text is written into.
#[derive(Default)]
struct Digest(Sha256);

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

impl Digest {
    fn finish(self) -> String {
        self.0.finish().to_base32()
    }
}

const STAGES: [&str; 4] = ["text", "program", "ground", "answer"];

/// The four stage digests of one goal, named `label`, in [`STAGES`]
/// order. Panics, naming the goal, if its ground program is not tight.
fn stage_digests(w: &Workload, label: &str, goal: &Goal) -> [String; 4] {
    let encoded = w.conc.program_text(goal).unwrap();
    let mut text = Digest::default();
    text.write_str(&encoded.program).unwrap();
    for (offset, origin) in &encoded.ledger {
        writeln!(text, "{offset} {origin:?}").unwrap();
    }

    let assembled = w.conc.program(goal).unwrap();
    let mut program = Digest::default();
    write!(program, "{assembled}").unwrap();

    let solver = Solver::with_config(ConcretizerConfig::default().solver);
    let gp = solver.ground(&assembled).unwrap();
    assert!(
        is_tight(&gp),
        "{} | {label}: the ground program has a positive loop, so its solves \
         would run the stability check",
        w.name
    );
    let mut ground = Digest::default();
    for id in 0..gp.atom_count() {
        writeln!(ground, "{}", gp.store.format_atom(AtomId(id as u32))).unwrap();
    }
    for (label, set) in [("possible", &gp.possible), ("certain", &gp.certain)] {
        let mut ids: Vec<u32> = set.iter().map(|a| a.0).collect();
        ids.sort_unstable();
        writeln!(ground, "{label} {ids:?}").unwrap();
    }
    for r in &gp.rules {
        writeln!(ground, "{r:?}").unwrap();
    }
    for c in &gp.choices {
        writeln!(ground, "{c:?}").unwrap();
    }
    for c in &gp.constraints {
        writeln!(ground, "{c:?}").unwrap();
    }
    for m in &gp.minimize {
        writeln!(ground, "{m:?}").unwrap();
    }
    writeln!(ground, "heuristics {:?}", gp.heuristics).unwrap();
    writeln!(ground, "rule_src {:?}", gp.rule_src).unwrap();
    writeln!(ground, "choice_src {:?}", gp.choice_src).unwrap();
    writeln!(ground, "constraint_src {:?}", gp.constraint_src).unwrap();

    let (outcome, stats) = solver.solve_ground(gp).unwrap();
    let mut answer = Digest::default();
    writeln!(
        answer,
        "vars {} conflicts {} decisions {} propagations {} probes {} restarts {}",
        stats.sat_vars,
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.optimize_probes,
        stats.stability_restarts
    )
    .unwrap();
    match outcome {
        SolveOutcome::Unsat => writeln!(answer, "unsat").unwrap(),
        SolveOutcome::Optimal(model) => {
            writeln!(answer, "cost {:?}", model.cost).unwrap();
            let sources = [Arc::clone(&w.source)];
            let answer_specs = interpret(&model, &sources, &encoded.root_names).unwrap();
            for spec in &answer_specs.specs {
                writeln!(answer, "{}", spec.dag_hash().to_base32()).unwrap();
            }
        }
    }
    [text, program, ground, answer].map(Digest::finish)
}

/// The committed table: one line per goal, `workload | goal | text |
/// program | ground | answer`.
const RECORDED: &str = include_str!("stage_digests.txt");

#[test]
fn stage_digests_match_the_recorded_table() {
    let mut table = String::new();
    for w in workloads(true) {
        for (label, goal) in &w.goals {
            let digests = stage_digests(&w, label, goal);
            writeln!(table, "{} | {label} | {}", w.name, digests.join(" | ")).unwrap();
        }
    }
    assert_eq!(table.lines().count(), 63);
    let current: Vec<&str> = table.lines().collect();
    let recorded: Vec<&str> = RECORDED.lines().collect();
    for i in 0..current.len().max(recorded.len()) {
        let (now, then) = (current.get(i), recorded.get(i));
        if now == then {
            continue;
        }
        let split = |l: Option<&&str>| -> Vec<String> {
            l.map_or_else(Vec::new, |l| l.split(" | ").map(str::to_string).collect())
        };
        let (now_cells, then_cells) = (split(now), split(then));
        let stage = (2..2 + STAGES.len())
            .find(|&c| now_cells.get(c) != then_cells.get(c))
            .map_or("goal", |c| STAGES[c - 2]);
        panic!(
            "stage digests differ first at line {} ({}), stage `{stage}`: recorded {:?}\n\
             current table ({}):\n{table}",
            i + 1,
            now_cells[..2.min(now_cells.len())].join(" | "),
            then,
            "commit it as stage_digests.txt when the change is intended",
        );
    }
}
