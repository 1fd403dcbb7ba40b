//! Allocation budget of the grounder and the CNF translator on real
//! concretizer programs.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed`
//! and `realloc` the current thread makes, so this file is its own test
//! binary and parallel tests do not mix their counts. Grounding may
//! allocate about what it keeps (an arena's amortized growth plus one
//! boxed body per new instance); a lookup, a join probe or a duplicate
//! emission allocates nothing.

use spackle::asp::cdcl::Sat;
use spackle::asp::cnf::{translate, translate_collected};
use spackle::asp::{parse_program, Solver};
use spackle::core::Goal;
use spackle::prelude::*;
use spackle::radiuss::{local_cache, public_cache, radiuss_repo};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread's allocations during its own teardown, after
    // the counter is gone, are not counted.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

#[test]
fn ground_and_translate_allocate_only_what_they_keep() {
    let repo = radiuss_repo();
    let mut cache = local_cache(&repo);
    cache.merge(&public_cache(&repo, 200, 42));
    let cache: Arc<dyn CacheSource> = Arc::new(cache);
    let concretizer = Concretizer::new(&repo)
        .with_config(ConcretizerConfig::splice_spack_disabled())
        .with_reusable(&cache);
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
        let clauses = translate_collected(&gp).0.clauses.len();
        let per_clause = cnf_allocs as f64 / clauses as f64;

        println!(
            "{root}: ground {ground_allocs} allocations / {instances} instances = \
             {per_instance:.2}; translate {cnf_allocs} / {clauses} clauses = {per_clause:.2}"
        );
        assert!(
            per_instance <= 3.0,
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
