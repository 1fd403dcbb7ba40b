//! The `spackle` command-line tool: a small driver over the library,
//! using the built-in RADIUSS demo repository (with the `mpiabi` mock)
//! as its package universe and a JSON file as its buildcache.
//!
//! ```console
//! $ spackle parse "hdf5@1.14 +mpi ^zlib@1.3"
//! $ spackle providers mpi
//! $ spackle concretize "hypre" --save-cache cache.json
//! $ spackle concretize "hypre ^mpiabi" --cache cache.json
//! $ spackle concretize "hypre ^mpiabi" --cache cache.json --old
//! $ spackle install "hypre" --cache cache.json --root ./store
//! $ spackle splices
//! $ spackle list --cache cache.json
//! ```

use spackle::core::Goal;
use spackle::environment::Environment;
use spackle::prelude::*;
use spackle::radiuss::{farm_artifact, radiuss_repo, with_mpiabi};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: spackle <command> [args]

commands:
  parse <spec>                     parse a spec and show its structure
  concretize <spec> [options]      resolve a spec against the demo repo
      --cache FILE                 load reusable specs from a JSON cache
      --save-cache FILE            add the solution to FILE (created if absent)
      --old                        emulate old spack (direct encoding, no splicing)
      --no-splice                  new encoding, splicing disabled
      --forbid PKG                 exclude PKG from the solution (repeatable)
      --explain                    on UNSAT, extract a minimal core and map every
                                   member to the source directive that produced it
      --json                       with --explain: machine-readable explanation
      --timeout-ms N               cancel the solve (and --explain minimization)
                                   after N milliseconds
  install <spec> [options]         concretize then install
      --cache FILE                 reuse binaries from FILE
      --root DIR                   install layout root (default ./spackle-store)
      --write                      write artifacts to the real filesystem
  list --cache FILE                list cache entries
  providers <virtual>              show providers of a virtual package
  splices                          list all can_splice declarations
  abi-audit --cache FILE           discover ABI-compatible replacement pairs
  audit [options]                  statically check the demo repo and solver program
      --json                       machine-readable report
      --deny CODE                  promote CODE (e.g. SPKL-R002) to an error (repeatable)
      --goal SPEC                  also prove SPEC concretizable (L006; repeatable;
                                   default: every package in the repo)
  env <create|add|concretize|install|status> FILE [args]
                                   manage an environment (spack.yaml/lock analogue)
      env create FILE
      env add FILE SPEC
      env concretize FILE [--cache CACHE] [--old|--no-splice]
      env install FILE [--cache CACHE] [--root DIR]
      env status FILE
  repo                             summarize the demo repository"
    );
    ExitCode::from(2)
}

fn load_cache(path: Option<&str>) -> BuildCache {
    match path {
        None => BuildCache::new(),
        Some(p) => match std::fs::read_to_string(p) {
            Ok(s) => BuildCache::from_json(&s).unwrap_or_else(|e| {
                eprintln!("spackle: cache {p} is corrupt: {e}");
                std::process::exit(1);
            }),
            Err(_) => BuildCache::new(),
        },
    }
}

fn flag_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn flag_values<'a>(args: &'a [String], key: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == key {
            if let Some(v) = args.get(i + 1) {
                out.push(v.as_str());
            }
        }
    }
    out
}

fn print_solution(sol: &Solution) {
    for spec in &sol.specs {
        println!("{}", render_tree(spec));
    }
    println!(
        "reused {} | build {} | spliced {}",
        sol.reused.len(),
        sol.built.len(),
        sol.spliced.len()
    );
    for s in &sol.spliced {
        println!("  splice: {}'s dependency {} -> {}", s.parent, s.replaced, s.replacement);
    }
    let (s, engine) = (&sol.stats, &sol.stats.solver);
    println!(
        "timing: encode {:?}, ground {:?}, translate {:?}, search {:?}, interpret {:?}, \
         total {:?} ({} reusable specs considered)",
        s.encode_time,
        engine.ground_time,
        engine.translate_time,
        engine.solve_time,
        s.interpret_time,
        s.total_time,
        s.reusable_specs
    );
}

fn render_tree(spec: &ConcreteSpec) -> String {
    spec.format_tree()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let repo = with_mpiabi(&radiuss_repo());

    match cmd.as_str() {
        "parse" => {
            let Some(text) = args.get(1) else { return usage() };
            match parse_spec(text) {
                Ok(s) => {
                    println!("name:     {}", s.name.map(|n| n.as_str()).unwrap_or("(anonymous)"));
                    println!("version:  {}", s.version);
                    for (vn, vv) in &s.variants {
                        println!("variant:  {vn} = {vv}");
                    }
                    if let Some(os) = s.os {
                        println!("os:       {os}");
                    }
                    if let Some(t) = s.target {
                        println!("target:   {t}");
                    }
                    for d in &s.deps {
                        println!(
                            "dep:      {} ({:?})",
                            d.spec,
                            d.types
                        );
                    }
                    println!("canonical: {s}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("spackle: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "concretize" => {
            let Some(text) = args.get(1) else { return usage() };
            let spec = match parse_spec(text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("spackle: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cache = load_cache(flag_value(&args, "--cache").or(flag_value(&args, "--save-cache")));
            let mut cfg = if args.iter().any(|a| a == "--old") {
                ConcretizerConfig::old_spack()
            } else if args.iter().any(|a| a == "--no-splice") {
                ConcretizerConfig::splice_spack_disabled()
            } else {
                ConcretizerConfig::splice_spack()
            };
            if let Some(ms) = flag_value(&args, "--timeout-ms") {
                match ms.parse::<u64>() {
                    Ok(n) => {
                        cfg.solver.cancel = spackle::asp::CancelToken::with_deadline(
                            std::time::Duration::from_millis(n),
                        );
                    }
                    Err(_) => {
                        eprintln!("spackle: --timeout-ms wants a number, got {ms}");
                        return ExitCode::from(2);
                    }
                }
            }
            let mut goal = Goal::single(spec);
            for f in flag_values(&args, "--forbid") {
                goal.forbidden.push(Sym::intern(f));
            }
            let concretizer = Concretizer::new(&repo)
                .with_config(cfg)
                .with_reusable(cache.clone());
            if args.iter().any(|a| a == "--explain") {
                let json = args.iter().any(|a| a == "--json");
                match concretizer.explain_goal(&goal) {
                    Ok(None) => {
                        if json {
                            println!("{{\"satisfiable\":true}}");
                            return ExitCode::SUCCESS;
                        }
                        println!("goal is satisfiable; concretizing:");
                        // fall through to the normal solve below
                    }
                    Ok(Some(ex)) => {
                        let report = spackle::audit::explanation_report(&repo, text, &ex);
                        if json {
                            println!(
                                "{{\"satisfiable\":false,\"minimal\":{},\"core_size\":{},\
                                 \"core_initial\":{},\"probes\":{},\"explain_ms\":{},\
                                 \"report\":{}}}",
                                ex.minimal,
                                ex.entries.len(),
                                ex.core_initial,
                                ex.probes,
                                ex.time.as_millis(),
                                report.render_json()
                            );
                        } else {
                            print!("{}", report.render_human());
                            println!(
                                "explain: core {} -> {} member(s), {} deletion probe(s), {:?}",
                                ex.core_initial,
                                ex.entries.len(),
                                ex.probes,
                                ex.time
                            );
                        }
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("spackle: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let sol = match concretizer.concretize_goal(&goal) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("spackle: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print_solution(&sol);
            if let Some(path) = flag_value(&args, "--save-cache") {
                let mut cache = cache;
                for s in &sol.specs {
                    cache.add_spec_with(s, farm_artifact);
                }
                if let Err(e) = std::fs::write(path, cache.to_json()) {
                    eprintln!("spackle: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("cache: {} specs -> {path}", cache.len());
            }
            ExitCode::SUCCESS
        }
        "audit" => {
            let json = args.iter().any(|a| a == "--json");
            let mut deny = Vec::new();
            for c in flag_values(&args, "--deny") {
                match spackle::audit::Code::parse(c) {
                    Some(code) => deny.push(code),
                    None => {
                        eprintln!("spackle: unknown diagnostic code: {c}");
                        return ExitCode::from(2);
                    }
                }
            }
            // Level 1 audits the demo repository; level 2 audits the
            // exact ASP program the concretizer hands the solver for a
            // representative goal (empty cache, default config).
            let goal = Goal::single(parse_spec("hypre").expect("valid demo goal"));
            let program = match Concretizer::new(&repo).program(&goal) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("spackle: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // The interpreter reads exactly these predicates from models.
            let goals = [Sym::intern("attr"), Sym::intern("splice_to")];
            let mut report = spackle::audit::audit(&repo, &program, &goals);
            // L006: prove goals statically concretizable. Explicit
            // --goal flags win; the default sweeps every package.
            let explicit: Vec<&str> = flag_values(&args, "--goal");
            let mut l006_goals = Vec::new();
            if explicit.is_empty() {
                for pkg in repo.packages() {
                    l006_goals.push(Goal::single(AbstractSpec::named(pkg.name.as_str())));
                }
            } else {
                for g in explicit {
                    match parse_spec(g) {
                        Ok(s) => l006_goals.push(Goal::single(s)),
                        Err(e) => {
                            eprintln!("spackle: --goal {g}: {e}");
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            report.extend(spackle::audit::audit_concretizability(&repo, &l006_goals));
            report.deny(&deny);
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "install" => {
            let Some(text) = args.get(1) else { return usage() };
            let spec = match parse_spec(text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("spackle: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cache = load_cache(flag_value(&args, "--cache"));
            let root = flag_value(&args, "--root").unwrap_or("./spackle-store");
            let sol = match Concretizer::new(&repo)
                .with_config(ConcretizerConfig::splice_spack())
                .with_reusable(cache.clone())
                .concretize(&spec)
            {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("spackle: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut installer = Installer::new(InstallLayout::new(root));
            let plan = InstallPlan::plan(sol.spec(), &cache);
            match installer.install(sol.spec(), &cache, &plan) {
                Ok(report) => {
                    println!("{}", render_tree(sol.spec()));
                    println!(
                        "installed: built={} reused={} rewired={} (relocations: {} in place, {} lengthened)",
                        report.built,
                        report.reused,
                        report.rewired,
                        report.relocation.in_place,
                        report.relocation.lengthened
                    );
                    let problems = installer.verify(sol.spec());
                    if problems.is_empty() {
                        println!("verify: ok");
                    } else {
                        for p in problems {
                            eprintln!("verify: {p}");
                        }
                        return ExitCode::FAILURE;
                    }
                    if args.iter().any(|a| a == "--write") {
                        for (prefix, bytes) in installer.installed_prefixes() {
                            let path = std::path::Path::new(prefix);
                            if let Some(dir) = path.parent() {
                                let _ = std::fs::create_dir_all(dir);
                            }
                            let _ = std::fs::create_dir_all(path);
                            if let Err(e) = std::fs::write(path.join("binary.spkl"), bytes) {
                                eprintln!("spackle: writing {prefix}: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                        println!("wrote {} prefixes under {root}", installer.installed_count());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("spackle: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "list" => {
            let cache = load_cache(flag_value(&args, "--cache"));
            for e in cache.entries() {
                println!("/{}  {}", e.spec.dag_hash().short(), e.spec.format_flat());
            }
            println!("{} specs", cache.len());
            ExitCode::SUCCESS
        }
        "providers" => {
            let Some(v) = args.get(1) else { return usage() };
            let provs = repo.providers_of(Sym::intern(v));
            if provs.is_empty() {
                println!("no providers of {v}");
            } else {
                for p in provs {
                    println!("{p}");
                }
            }
            ExitCode::SUCCESS
        }
        "splices" => {
            for pkg in repo.packages() {
                for cs in &pkg.can_splice {
                    println!(
                        "{} (when {}) can replace {}",
                        pkg.name,
                        if cs.when.is_empty() {
                            "always".to_string()
                        } else {
                            cs.when.to_string()
                        },
                        cs.target
                    );
                }
            }
            ExitCode::SUCCESS
        }
        "abi-audit" => {
            // Scan a cache for ABI-compatible replacement opportunities
            // (the paper's future-work direction, implemented over the
            // synthetic artifacts' symbol tables).
            let cache = load_cache(flag_value(&args, "--cache"));
            let suggestions = match spackle::buildcache::suggest_splices(&cache) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cache unreadable: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if suggestions.is_empty() {
                println!("no cross-package ABI-compatible pairs found");
            } else {
                for s in suggestions {
                    println!("{}", s.directive());
                }
            }
            ExitCode::SUCCESS
        }
        "env" => {
            let (Some(sub), Some(file)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let load_env = || -> Result<Environment, String> {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("reading {file}: {e}"))?;
                Environment::from_json(&text).map_err(|e| e.to_string())
            };
            let save_env = |env: &Environment| -> Result<(), String> {
                std::fs::write(file, env.to_json()).map_err(|e| format!("writing {file}: {e}"))
            };
            let result: Result<(), String> = match sub.as_str() {
                "create" => save_env(&Environment::new()),
                "add" => args
                    .get(3)
                    .ok_or_else(|| "env add needs a spec".to_string())
                    .and_then(|spec| {
                        let mut env = load_env()?;
                        env.add(spec).map_err(|e| e.to_string())?;
                        save_env(&env)?;
                        println!("{} roots", env.roots.len());
                        Ok(())
                    }),
                "concretize" => (|| {
                    let mut env = load_env()?;
                    let cache: std::sync::Arc<dyn CacheSource> =
                        std::sync::Arc::new(load_cache(flag_value(&args, "--cache")));
                    let cfg = if args.iter().any(|a| a == "--old") {
                        ConcretizerConfig::old_spack()
                    } else if args.iter().any(|a| a == "--no-splice") {
                        ConcretizerConfig::splice_spack_disabled()
                    } else {
                        ConcretizerConfig::splice_spack()
                    };
                    let lock = env
                        .concretize(&repo, &[cache], cfg)
                        .map_err(|e| e.to_string())?;
                    println!(
                        "concretized {} roots, {} distinct packages",
                        lock.roots.len(),
                        lock.package_count()
                    );
                    for (text, hash) in &lock.roots {
                        println!("  {text}  /{}", hash.short());
                    }
                    save_env(&env)
                })(),
                "install" => (|| {
                    let env = load_env()?;
                    let cache = load_cache(flag_value(&args, "--cache"));
                    let root = flag_value(&args, "--root").unwrap_or("./spackle-store");
                    let mut installer = Installer::new(InstallLayout::new(root));
                    let report = env
                        .install(&mut installer, &cache)
                        .map_err(|e| e.to_string())?;
                    println!(
                        "installed: built={} reused={} rewired={}",
                        report.built, report.reused, report.rewired
                    );
                    let problems = env.verify(&installer).map_err(|e| e.to_string())?;
                    if problems.is_empty() {
                        println!("verify: ok");
                        Ok(())
                    } else {
                        Err(format!("verify failed: {problems:?}"))
                    }
                })(),
                "status" => (|| {
                    let env = load_env()?;
                    println!("{} roots:", env.roots.len());
                    for r in &env.roots {
                        println!("  {r}");
                    }
                    match &env.lock {
                        Some(lock) => println!(
                            "concretized: {} distinct packages",
                            lock.package_count()
                        ),
                        None => println!("not concretized"),
                    }
                    Ok(())
                })(),
                other => Err(format!("unknown env subcommand {other}")),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("spackle: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "repo" => {
            println!("packages: {}", repo.len());
            let mpi = Sym::intern("mpi");
            println!(
                "mpi providers: {:?}",
                repo.providers_of(mpi)
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
            );
            let splice_count: usize = repo.packages().map(|p| p.can_splice.len()).sum();
            println!("can_splice declarations: {splice_count}");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
