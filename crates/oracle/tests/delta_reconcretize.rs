//! Delta-reconcretization differential suite: the correctness bar for
//! incremental re-grounding is **bit-identical output** — a solve that
//! went through the warm path (segment-keyed ground cache retained
//! across a repository or buildcache delta, partial invalidation via
//! [`GroundCache::apply_delta`]) must equal a cold solve of the
//! post-delta world in every observable: DAG hash, reuse/build
//! decisions, and the lexicographic cost vector. UNSAT must stay UNSAT.
//!
//! Two mutation families drive the check, each over the random
//! repository generator (`genrepo`) and the concretizer-config matrix
//! (direct vs splice encoding):
//!
//! * **package mutations** — a randomly chosen package gains a new
//!   version; the repo-level [`SegmentDelta`] is applied to the warm
//!   cache, exactly as `spackled update` does it;
//! * **buildcache mutations** — the reusable-spec source gains an
//!   entry; no explicit invalidation happens at all, because the
//!   composed key covers the source-partition fingerprint and shifts by
//!   itself.
//!
//! On top of outcome equality the suite pins the retention contract:
//! a goal whose composed segment key did not move across the delta must
//! *hit* the retained entry (that hit being bit-identical is the whole
//! point of content addressing), and a goal whose key moved must miss.
//!
//! Set `DELTA_RECONCRETIZE_CASES` to shrink or grow the random portion.

use proptest::TestRng;
use spackle_buildcache::BuildCache;
use spackle_core::{repo_delta, Concretizer, ConcretizerConfig, CoreError, Goal, GroundCache};
use spackle_oracle::genrepo::random_repo_and_spec;
use spackle_repo::Repository;
use spackle_spec::{parse_spec, Version};

fn env_cases(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The concretizer-config matrix: every axis that changes the encoded
/// program, so a delta bug hiding behind one configuration cannot pass
/// unnoticed.
fn matrix() -> Vec<(&'static str, ConcretizerConfig)> {
    vec![
        ("direct", ConcretizerConfig::old_spack()),
        ("splice", ConcretizerConfig::splice_spack()),
    ]
}

/// Everything observable about one solve. `None` = UNSAT. The Debug
/// renderings are injective for these types, and string equality keeps
/// the assertion diff readable on failure.
type Outcome = Option<String>;

fn outcome(result: Result<spackle_core::Solution, CoreError>, ctx: &str) -> (Outcome, bool) {
    match result {
        Ok(sol) => (
            Some(format!(
                "dag={:?} cost={:?} reused={:?} built={:?}",
                sol.spec().dag_hash(),
                sol.cost,
                sol.reused,
                sol.built
            )),
            sol.stats.ground_cache_hit,
        ),
        Err(CoreError::Unsatisfiable) => (None, false),
        Err(e) => panic!("{ctx}: unexpected error {e}"),
    }
}

/// One differential case: warm a segment-keyed cache on the pre-delta
/// world, mutate, and require every post-delta warm-path solve to equal
/// its cold twin.
fn check_case(seed: u64, mutate_buildcache: bool) {
    let mut rng = TestRng::seed_from_u64(seed);
    let (repo, root_spec) = random_repo_and_spec(&mut rng);

    // Goal set: the generated root request plus one bare goal per
    // package, so the warm pass populates entries over several distinct
    // closures (some will straddle the mutation, some will not).
    // (Deduped on the goal's Debug rendering — the key input — because
    // the generated root request is sometimes a bare package name.)
    let mut goals = vec![Goal::single(root_spec)];
    let names: Vec<_> = repo.packages().map(|p| p.name).collect();
    for n in &names {
        let g = Goal::single(parse_spec(n.as_str()).unwrap());
        if !goals.iter().any(|have| format!("{have:?}") == format!("{g:?}")) {
            goals.push(g);
        }
    }

    // Optionally seeded buildcache, shared by every path below.
    let mut bc = BuildCache::new();
    if rng.below(2) == 1 {
        let pick = names[rng.below(names.len() as u64) as usize];
        if let Ok(sol) = Concretizer::new(&repo).concretize(&parse_spec(pick.as_str()).unwrap()) {
            bc.add_spec(sol.spec());
        }
    }

    for (cname, config) in &matrix() {
        let gc = GroundCache::shared();

        // Warm pass on the pre-delta world.
        let warm = |repo: &Repository, bc: &BuildCache| {
            Concretizer::new(repo)
                .with_config(config.clone())
                .with_reusable(bc.clone())
                .with_ground_cache(gc.clone())
        };
        let mut warm_ok = vec![false; goals.len()];
        for (i, g) in goals.iter().enumerate() {
            warm_ok[i] = warm(&repo, &bc).concretize_goal(g).is_ok();
        }

        // The mutation.
        let mut repo_post = repo.clone();
        let mut bc_post = bc.clone();
        if mutate_buildcache {
            let pick = names[rng.below(names.len() as u64) as usize];
            if let Ok(sol) =
                Concretizer::new(&repo).concretize(&parse_spec(pick.as_str()).unwrap())
            {
                bc_post.add_spec(sol.spec());
            }
        } else {
            let pick = names[rng.below(names.len() as u64) as usize];
            let mut def = repo.get(pick).expect("generated package").clone();
            def.versions.push(Version::parse("9.9").unwrap());
            repo_post.upsert(def);
            let delta = repo_delta(&repo, &repo_post);
            assert!(!delta.is_empty(), "[seed {seed}] version add must move a segment");
            gc.apply_delta(&delta);
        }

        // Per-goal key movement decides the retention expectation.
        let pre_keyer = warm(&repo, &bc);
        let post_keyer = warm(&repo_post, &bc_post);
        for (i, g) in goals.iter().enumerate() {
            let (pre_key, _) = pre_keyer.segment_key(g).unwrap();
            let (post_key, _) = post_keyer.segment_key(g).unwrap();

            let (delta_out, delta_hit) = outcome(
                post_keyer.concretize_goal(g),
                &format!("[seed {seed}] config {cname} goal {i} (delta path)"),
            );
            let cold = Concretizer::new(&repo_post)
                .with_config(config.clone())
                .with_reusable(bc_post.clone());
            let (cold_out, _) = outcome(
                cold.concretize_goal(g),
                &format!("[seed {seed}] config {cname} goal {i} (cold path)"),
            );

            assert_eq!(
                delta_out, cold_out,
                "[seed {seed}] config {cname} goal {i}: delta-updated solve \
                 diverged from cold solve of the post-delta world"
            );

            if warm_ok[i] && delta_out.is_some() {
                assert_eq!(
                    delta_hit,
                    pre_key == post_key,
                    "[seed {seed}] config {cname} goal {i}: retention contract — \
                     hit iff the composed key did not move (pre={pre_key:#x} post={post_key:#x})"
                );
            }

            // The delta path re-warmed the cache; an immediate re-solve
            // must hit and still match.
            if delta_out.is_some() {
                let (again, again_hit) = outcome(
                    post_keyer.concretize_goal(g),
                    &format!("[seed {seed}] config {cname} goal {i} (re-warm path)"),
                );
                assert!(again_hit, "[seed {seed}] config {cname} goal {i}: re-solve must hit");
                assert_eq!(again, cold_out, "[seed {seed}] config {cname} goal {i}: warm hit diverged");
            }
        }
    }
}

#[test]
fn delta_solve_equals_cold_solve_after_package_mutation() {
    let cases = env_cases("DELTA_RECONCRETIZE_CASES", 32);
    for seed in 0..cases {
        check_case(seed, false);
    }
}

#[test]
fn delta_solve_equals_cold_solve_after_buildcache_mutation() {
    let cases = env_cases("DELTA_RECONCRETIZE_CASES", 32);
    for seed in 0..cases {
        check_case(1_000_000 + seed, true);
    }
}
