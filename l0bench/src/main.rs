//! `l0bench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints report lines, then one JSON result line. Exits 0 when every
//! output passed its checks, 1 when one did not, 2 on a usage error or
//! a missing input (without a result line). A traced run also writes
//! its spans to `l0bench/out/trace-<workload>-<seed>.jsonl`.

use l0bench::run::{run, Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("l0bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("l0bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(trace) = &outcome.trace {
        let dir = std::path::Path::new("l0bench/out");
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace)) {
            eprintln!("l0bench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("spans written to {}", path.display());
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
