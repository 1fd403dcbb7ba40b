//! Allocation budget of the grounder and the CNF translator on real
//! concretizer programs, and the bytes a memo entry keeps.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed`
//! and `realloc` the current thread makes, and the bytes it still holds,
//! so this file is its own test binary and parallel tests do not mix
//! their counts. Grounding may allocate about what it keeps (an arena's
//! amortized growth plus one boxed body per new instance); a lookup, a
//! join probe or a duplicate emission allocates nothing.

use spackle::asp::cdcl::Sat;
use spackle::asp::cnf::translate;
use spackle::asp::program::Head;
use spackle::asp::{parse_program, Solver};
use spackle::core::{Goal, GroundCache};
use spackle::prelude::*;
use spackle::radiuss::{local_cache, public_cache, radiuss_repo, with_replicas};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// Count one allocation that changes the live bytes by `bytes`.
fn count(bytes: i64) {
    // `try_with`: a thread's allocations during its own teardown, after
    // the counter is gone, are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    track(bytes);
}

fn track(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Bytes `f` leaves allocated on this thread, with its result.
fn live<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (LIVE_BYTES.with(Cell::get) - before, out)
}

/// The RADIUSS repository under `splice_spack_disabled`, over the local
/// cache merged with a 200-DAG public cache.
fn concretizer() -> Concretizer {
    let repo = radiuss_repo();
    let mut cache = local_cache(&repo);
    cache.merge(&public_cache(&repo, 200, 42));
    over(&repo, cache)
}

/// The repository under `splice_spack_disabled` over `cache`.
fn over(repo: &Repository, cache: BuildCache) -> Concretizer {
    let cache: Arc<dyn CacheSource> = Arc::new(cache);
    Concretizer::new(repo)
        .with_config(ConcretizerConfig::splice_spack_disabled())
        .with_reusable(&cache)
}

/// A memo entry keeps the interpreted answer and drops the model and
/// the ground program with the cold solve, so its size follows the
/// answer, not the cache: 5.5–7.2 KB over the local cache and over 200
/// public DAGs alike. Keeping the model and its ground program as well
/// holds 85–139 KB over the local cache and 479–929 KB at 200 DAGs,
/// which the bound rejects.
#[test]
fn a_memo_entry_keeps_its_answer_only() {
    let repo = radiuss_repo();
    let local = over(&repo, local_cache(&repo));
    for (cache, concretizer) in [("local", local), ("200 public DAGs", concretizer())] {
        for root in ["hypre", "mfem", "conduit"] {
            let goal = parse_spec(root).unwrap();
            // A solve without a memo interns the goal's strings and
            // parses the logic fragments; the entry is measured after it.
            concretizer.concretize(&goal).unwrap();
            let (bytes, memo) = live(|| {
                let memo = GroundCache::shared();
                let memoized = concretizer.clone().with_ground_cache(Arc::clone(&memo));
                drop(memoized.concretize(&goal).unwrap());
                memo
            });
            assert_eq!(memo.len(), 1);
            println!("{root} over {cache}: one memo entry keeps {bytes} bytes");
            assert!(
                bytes <= 16 * 1024,
                "{root} over {cache}: a memo entry keeps {bytes} bytes"
            );
        }
    }
}

#[test]
fn ground_and_translate_allocate_only_what_they_keep() {
    let concretizer = concretizer();
    let solver = Solver::new();
    for root in ["hypre", "mfem", "conduit"] {
        let goal = Goal::single(parse_spec(root).unwrap());
        let text = concretizer.program_text(&goal).unwrap().program;
        let program = parse_program(&text).unwrap();

        let (ground_allocs, gp) = counted(|| solver.ground(&program).unwrap());
        let instances =
            gp.rules.len() + gp.choices.len() + gp.constraints.len() + gp.minimize.len();
        let per_instance = ground_allocs as f64 / instances as f64;

        let mut sat = Sat::new();
        let (cnf_allocs, _) = counted(|| translate(&gp, &mut sat));
        // The clauses the solving translation attaches, counted on an
        // identical translation: the fold leaves out what the grounder
        // decided, so the unfolded clause list counts another program.
        let clauses = solver.translate_ground(gp).preprocess_stats().clauses_in as usize;
        let per_clause = cnf_allocs as f64 / clauses as f64;

        println!(
            "{root}: ground {ground_allocs} allocations / {instances} instances = \
             {per_instance:.2}; translate {cnf_allocs} / {clauses} clauses = {per_clause:.2}"
        );
        assert!(
            per_instance <= 2.0,
            "{root}: grounding made {per_instance:.2} allocations per ground instance \
             ({ground_allocs} for {instances})"
        );
        assert!(
            per_clause <= 2.0,
            "{root}: translation made {per_clause:.2} allocations per clause \
             ({cnf_allocs} for {clauses})"
        );
    }
}

/// Assembling the solver's program allocates a few times per fact: the
/// facts are built as atoms and handed over as they are. Assembly makes
/// 2.1–2.3 allocations per fact on these goals, where facts are 96% of
/// the program. Rendering the program (`program_text`) and parsing the
/// rendering back, as explanations and the benchmark's traced stages do,
/// makes about 9, which the bound rejects.
#[test]
fn program_assembly_allocates_a_few_per_fact() {
    let concretizer = concretizer();
    for root in ["hypre", "mfem", "conduit"] {
        let goal = Goal::single(parse_spec(root).unwrap());
        // A first assembly interns the goal's strings; count a second.
        concretizer.program(&goal).unwrap();
        let (allocs, program) = counted(|| concretizer.program(&goal).unwrap());
        let facts = program
            .rules
            .iter()
            .filter(|r| r.body.is_empty() && matches!(r.head, Head::Atom(_)))
            .count();
        let per_fact = allocs as f64 / facts as f64;
        let (text_allocs, _) =
            counted(|| parse_program(&concretizer.program_text(&goal).unwrap().program).unwrap());
        println!(
            "{root}: assembly {allocs} allocations / {facts} facts = {per_fact:.2}; \
             render and parse {:.2}",
            text_allocs as f64 / facts as f64
        );
        assert!(
            per_fact <= 4.0,
            "{root}: assembling the program made {per_fact:.2} allocations per fact \
             ({allocs} for {facts})"
        );
    }
}

/// Assembly stays cheap where directive rules dominate: hypre, mfem and
/// conduit under `splice_spack` with `mpich` forbidden, over 100 `mpiabi`
/// replicas and the local cache, where about 30% of the program's rules
/// have a body (among them one `can_splice` rule per replica). The
/// encoder builds those rules as data, at 5.0–5.1 allocations per
/// program rule; printing them as text and parsing it back made
/// 11.6–12.1.
#[test]
fn program_assembly_allocates_a_few_per_rule_where_rules_dominate() {
    let repo = radiuss_repo();
    let cache: Arc<dyn CacheSource> = Arc::new(local_cache(&repo));
    let concretizer = Concretizer::new(&with_replicas(&repo, 100))
        .with_config(ConcretizerConfig::splice_spack())
        .with_reusable(&cache);
    for root in ["hypre", "mfem", "conduit"] {
        let goal = Goal {
            roots: vec![parse_spec(root).unwrap()],
            forbidden: vec![Sym::intern("mpich")],
        };
        // A first assembly interns the goal's strings; count a second.
        concretizer.program(&goal).unwrap();
        let (allocs, program) = counted(|| concretizer.program(&goal).unwrap());
        let rules = program.rules.len();
        let with_body = program.rules.iter().filter(|r| !r.body.is_empty()).count();
        let per_rule = allocs as f64 / rules as f64;
        println!(
            "{root}: assembly {allocs} allocations / {rules} rules ({with_body} with a body) \
             = {per_rule:.2}"
        );
        assert!(
            per_rule <= 6.5,
            "{root}: assembling the program made {per_rule:.2} allocations per rule \
             ({allocs} for {rules})"
        );
    }
}
