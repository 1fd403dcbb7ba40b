//! One cold solve, either untraced through `Concretizer::concretize_goal`
//! or traced: the stages `concretize_goal` runs on a cache miss, each
//! called through its public function and timed as a span.

use crate::clock::cpu_timed;
use crate::workload::GoalCase;
use spackle_asp::cdcl::Sat;
use spackle_asp::cnf::translate;
use spackle_asp::{parse_program, SolveOutcome, Solver};
use spackle_buildcache::CacheSource;
use spackle_core::interpret::interpret;
use spackle_core::{Concretizer, Goal};
use spackle_spec::{parse_spec, ConcreteSpec, Sym};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What two answers must share to count as the same answer: the root DAG
/// hashes plus the reuse, build and splice decisions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Signature {
    /// DAG hash per root, in goal order.
    pub hashes: Vec<String>,
    /// Packages reused from a cache.
    pub reused: usize,
    /// Packages built from source.
    pub built: usize,
    /// Splices executed.
    pub spliced: usize,
}

/// One solve's answer.
#[derive(Clone, Debug)]
pub(crate) struct Answer {
    /// The answer's identity.
    pub sig: Signature,
    /// Lexicographic cost vector of the optimal model. It is the same for
    /// every engine configuration, even where ties change the DAG hashes.
    pub cost: Vec<(i64, i64)>,
    /// Does any answer DAG contain a forbidden package?
    pub forbidden_present: bool,
}

impl Answer {
    fn new(
        specs: &[ConcreteSpec],
        (reused, built, spliced): (usize, usize, usize),
        cost: Vec<(i64, i64)>,
        forbidden: &[Sym],
    ) -> Answer {
        Answer {
            sig: Signature {
                hashes: specs.iter().map(|s| s.dag_hash().to_string()).collect(),
                reused,
                built,
                spliced,
            },
            cost,
            forbidden_present: specs
                .iter()
                .any(|s| s.nodes().iter().any(|n| forbidden.contains(&n.name))),
        }
    }
}

/// Solve `case` through its concretizer; the CPU time of
/// `concretize_goal` alone.
pub(crate) fn solve(case: &GoalCase) -> (Duration, Result<Answer, String>) {
    solve_with(&case.conc, &case.goal)
}

/// Solve `goal` through `conc`; the CPU time of `concretize_goal` alone.
pub(crate) fn solve_with(conc: &Concretizer, goal: &Goal) -> (Duration, Result<Answer, String>) {
    let (result, elapsed) = cpu_timed(|| conc.concretize_goal(goal));
    let answer = result.map(|s| {
        Answer::new(
            &s.specs,
            (s.reused.len(), s.built.len(), s.spliced.len()),
            s.cost,
            &goal.forbidden,
        )
    });
    (elapsed, answer.map_err(|e| e.to_string()))
}

/// Per-layer CPU times a traced solve reports, in ms. `asp.cnf_ms` times a
/// side call of the CNF translation alone; `asp.preprocess_ms` is the
/// rest of `Solver::translate_ground`.
pub(crate) const TIME_LAYERS: [&str; 8] = [
    "spec.parse_ms",
    "core.encode_ms",
    "asp.parse_ms",
    "asp.ground_ms",
    "asp.cnf_ms",
    "asp.preprocess_ms",
    "asp.search_ms",
    "core.interpret_ms",
];

/// Per-layer counts a traced solve reports, with their units.
pub(crate) const COUNT_LAYERS: [(&str, &str); 17] = [
    ("core.program_bytes", "bytes"),
    ("asp.parsed_rules", "count"),
    ("asp.ground_atoms", "count"),
    ("asp.ground_rules", "count"),
    ("asp.ground_choices", "count"),
    ("asp.ground_constraints", "count"),
    ("asp.sat_vars", "count"),
    ("asp.pre_clauses_in", "count"),
    ("asp.pre_clauses_out", "count"),
    ("asp.pre_eliminated_vars", "count"),
    ("asp.pre_fixed_literals", "count"),
    ("asp.pre_failed_literals", "count"),
    ("asp.conflicts", "count"),
    ("asp.decisions", "count"),
    ("asp.propagations", "count"),
    ("asp.stability_restarts", "count"),
    ("asp.optimize_probes", "count"),
];

/// One traced solve's measurements.
#[derive(Clone, Debug)]
pub(crate) struct Traced {
    /// CPU times in ms, indexed like [`TIME_LAYERS`].
    pub times_ms: [f64; TIME_LAYERS.len()],
    /// Sum of the stages `concretize_goal` runs (the side CNF call
    /// excluded), in ms: the traced counterpart of an untraced latency.
    pub chain_ms: f64,
    /// Counts, indexed like [`COUNT_LAYERS`].
    pub counts: [u64; COUNT_LAYERS.len()],
}

impl Traced {
    /// The same measurements with every time multiplied by `factor`.
    pub(crate) fn scaled(mut self, factor: f64) -> Traced {
        for ms in &mut self.times_ms {
            *ms *= factor;
        }
        self.chain_ms *= factor;
        self
    }
}

/// A timed interval at one layer boundary.
#[derive(Clone, Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    start: Instant,
    end: Instant,
    goal: usize,
    sweep: u64,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 0,
        }
    }
}

impl Tracer {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Run `f` as a span of `layer` under the goal span `parent`; returns
    /// its CPU time in ms. The span itself records wall-clock bounds.
    fn stage<T>(&mut self, parent: &Span, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let (out, cpu) = cpu_timed(f);
        let end = Instant::now();
        let id = self.id();
        self.spans.push(Span {
            id,
            parent: Some(parent.id),
            layer,
            start,
            end,
            ..parent.clone()
        });
        (out, cpu.as_secs_f64() * 1e3)
    }

    /// Write one JSON object per span. `labels` names the goals.
    pub fn write_jsonl(&self, out: &mut impl Write, labels: &[String]) -> std::io::Result<()> {
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        for s in &self.spans {
            let line = serde_json::to_string(&SpanJson {
                id: s.id,
                parent: s.parent,
                layer: s.layer.to_string(),
                start_us: us(s.start),
                end_us: us(s.end),
                goal: labels[s.goal].clone(),
                sweep: s.sweep,
            })
            .expect("span serializes");
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

#[derive(serde::Serialize)]
struct SpanJson {
    id: u64,
    parent: Option<u64>,
    layer: String,
    start_us: f64,
    end_us: f64,
    goal: String,
    sweep: u64,
}

/// Solve `case` stage by stage, recording a `goal` span for the whole
/// solve and one child span per stage. `goal` and `sweep` identify the
/// solve in the trace.
pub(crate) fn solve_traced(
    case: &GoalCase,
    sources: &[Arc<dyn CacheSource>],
    goal: usize,
    sweep: u64,
    tracer: &mut Tracer,
) -> Result<(Traced, Answer), String> {
    let solver = Solver::with_config(case.spec.preset.config().solver);
    let start = Instant::now();
    let root = Span {
        id: tracer.id(),
        parent: None,
        layer: "goal",
        start,
        end: start,
        goal,
        sweep,
    };
    let mut times = [0.0; TIME_LAYERS.len()];

    let (spec, ms) = tracer.stage(&root, "spec.parse", || parse_spec(&case.spec.text));
    times[0] = ms;
    let parsed = Goal {
        roots: vec![spec.map_err(|e| e.to_string())?],
        forbidden: case.goal.forbidden.clone(),
    };
    let (encoded, ms) = tracer.stage(&root, "core.encode", || case.conc.program_text(&parsed));
    times[1] = ms;
    let encoded = encoded.map_err(|e| e.to_string())?;
    let (program, ms) = tracer.stage(&root, "asp.parse", || parse_program(&encoded.program));
    times[2] = ms;
    let program = program.map_err(|e| e.to_string())?;
    let (ground, ms) = tracer.stage(&root, "asp.ground", || solver.ground(&program));
    times[3] = ms;
    let ground = ground.map_err(|e| e.to_string())?;
    let (translated, translate_ms) = tracer.stage(&root, "asp.translate", || {
        solver.translate_ground(Arc::clone(&ground))
    });
    let (solved, ms) = tracer.stage(&root, "asp.search", || solver.solve_translated(&translated));
    times[6] = ms;
    let (outcome, stats) = solved.map_err(|e| e.to_string())?;
    let SolveOutcome::Optimal(model) = outcome else {
        return Err("unsatisfiable".to_string());
    };
    let (interpreted, ms) = tracer.stage(&root, "core.interpret", || {
        interpret(&model, sources, &encoded.root_names)
    });
    times[7] = ms;
    let interpreted = interpreted.map_err(|e| e.to_string())?;
    let chain_ms = times[0] + times[1] + times[2] + times[3] + translate_ms + times[6] + times[7];
    let end = Instant::now();

    // The side call runs after the chain so that it cannot warm caches
    // for the stages it duplicates.
    let (sat, ms) = tracer.stage(&root, "asp.cnf", || {
        let mut sat = Sat::new();
        translate(&ground, &mut sat);
        sat
    });
    times[4] = ms;
    times[5] = translate_ms - ms;
    tracer.spans.push(Span { end, ..root });

    let pre = translated.preprocess_stats();
    let counts = [
        encoded.program.len() as u64,
        program.rules.len() as u64,
        stats.ground_atoms as u64,
        stats.ground_rules as u64,
        stats.ground_choices as u64,
        stats.ground_constraints as u64,
        sat.num_vars() as u64,
        pre.clauses_in,
        pre.clauses_out,
        pre.eliminated_vars,
        pre.fixed_literals,
        pre.failed_literals,
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.stability_restarts,
        stats.optimize_probes,
    ];
    let answer = Answer::new(
        &interpreted.specs,
        (
            interpreted.reused.len(),
            interpreted.built.len(),
            interpreted.spliced.len(),
        ),
        model.cost.clone(),
        &case.goal.forbidden,
    );
    Ok((
        Traced {
            times_ms: times,
            chain_ms,
            counts,
        },
        answer,
    ))
}
