//! Long-running differential fuzzer for the ASP engine and concretizer.
//!
//! ```text
//! cargo run --release -p spackle-oracle --bin fuzz-solve -- [OPTIONS]
//!
//!   --cases N        random cases per kind to run (default 200)
//!   --seed S         base seed (default: from system entropy)
//!   --max-seconds T  stop after T seconds (default: unlimited)
//!   --corpus PATH    seed corpus file (default: crates/oracle/corpus/seeds.txt)
//!   --no-replay      skip corpus replay
//!   --replay-only    only replay the corpus, no random exploration
//! ```
//!
//! The corpus file holds one case per line, `program:SEED` or
//! `repo:SEED` (bare numbers replay as both kinds); `#` starts a
//! comment. Every corpus seed is replayed before random exploration so
//! past failures act as regressions. New failures are appended to
//! `<corpus>.failures` in replayable form and reported at exit with a
//! nonzero status.

use spackle_oracle::diff;
use std::io::Write;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Program,
    Repo,
}

impl Kind {
    fn run(self, seed: u64) -> Result<diff::CaseStats, String> {
        match self {
            Kind::Program => diff::check_program_case(seed),
            Kind::Repo => diff::check_repo_case(seed),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Kind::Program => "program",
            Kind::Repo => "repo",
        }
    }
}

struct Options {
    cases: u64,
    seed: u64,
    max_seconds: u64,
    corpus: String,
    replay: bool,
    explore: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        cases: 200,
        seed: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed),
        max_seconds: 0,
        corpus: "crates/oracle/corpus/seeds.txt".to_string(),
        replay: true,
        explore: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next_u64 = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("{name} needs a numeric argument");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--cases" => opts.cases = next_u64("--cases"),
            "--seed" => opts.seed = next_u64("--seed"),
            "--max-seconds" => opts.max_seconds = next_u64("--max-seconds"),
            "--corpus" => {
                opts.corpus = args.next().unwrap_or_else(|| {
                    eprintln!("--corpus needs a path argument");
                    std::process::exit(2);
                })
            }
            "--no-replay" => opts.replay = false,
            "--replay-only" => opts.explore = false,
            "--help" | "-h" => {
                eprintln!("see module docs: cargo doc -p spackle-oracle");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn corpus_cases(path: &str) -> Vec<(Kind, u64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(s) = line.strip_prefix("program:") {
            if let Ok(seed) = s.trim().parse() {
                out.push((Kind::Program, seed));
            }
        } else if let Some(s) = line.strip_prefix("repo:") {
            if let Ok(seed) = s.trim().parse() {
                out.push((Kind::Repo, seed));
            }
        } else if let Ok(seed) = line.parse() {
            out.push((Kind::Program, seed));
            out.push((Kind::Repo, seed));
        }
    }
    out
}

fn main() {
    let opts = parse_args();
    let started = Instant::now();
    let deadline = (opts.max_seconds > 0).then(|| Duration::from_secs(opts.max_seconds));
    let mut failures: Vec<(Kind, u64)> = Vec::new();
    let mut ran: u64 = 0;
    let mut skipped: u64 = 0;
    let mut non_tight: u64 = 0;

    let mut run_case = |kind: Kind, seed: u64, failures: &mut Vec<(Kind, u64)>| {
        ran += 1;
        match kind.run(seed) {
            Ok(stats) => {
                if stats.skipped {
                    skipped += 1;
                } else if kind == Kind::Program && !stats.tight {
                    non_tight += 1;
                }
            }
            Err(msg) => {
                eprintln!("FAIL {}:{seed}\n{msg}\n", kind.tag());
                failures.push((kind, seed));
            }
        }
    };

    if opts.replay {
        let corpus = corpus_cases(&opts.corpus);
        println!("replaying {} corpus cases from {}", corpus.len(), opts.corpus);
        for (kind, seed) in corpus {
            run_case(kind, seed, &mut failures);
        }
    }

    if opts.explore {
        println!(
            "exploring {} random cases per kind from base seed {}",
            opts.cases, opts.seed
        );
        'outer: for i in 0..opts.cases {
            for kind in [Kind::Program, Kind::Repo] {
                if deadline.is_some_and(|d| started.elapsed() > d) {
                    println!("time cap reached after {i} iterations");
                    break 'outer;
                }
                run_case(kind, opts.seed.wrapping_add(i), &mut failures);
            }
        }
    }

    println!(
        "ran {ran} cases ({skipped} skipped as too large, {non_tight} non-tight programs) \
         in {:.1}s: {} failures",
        started.elapsed().as_secs_f64(),
        failures.len()
    );

    if !failures.is_empty() {
        let path = format!("{}.failures", opts.corpus);
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            for (kind, seed) in &failures {
                let _ = writeln!(f, "{}:{seed}", kind.tag());
            }
            println!("failing seeds appended to {path}");
        }
        std::process::exit(1);
    }
}
