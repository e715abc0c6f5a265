//! Renders the critical path of one parallel workload cell.
//!
//! Usage: `cargo run -p rc-bench --bin critpath -- [--workload moss]
//! [--tasks 4] [--config lea|GC|qs] [--scale N] [--det-seed N]
//! [--out CRITPATH_rc.json]`.
//!
//! Runs the workload's spawn/join variant under the seeded deterministic
//! scheduler, computes the work/span decomposition from the per-task
//! reports, and prints the critical path link by link with
//! `workload:line` spawn-site attribution. With `--out`, also writes the
//! byte-deterministic JSON report (CI runs the binary twice and compares
//! the bytes). Exits 0 when the work/span identities hold, 1 when they do
//! not, 2 on bad arguments or I/O errors.

use std::process::ExitCode;

use rc_bench::{critpath, parallelmatrix};
use rc_lang::{CheckMode, RunConfig};

const USAGE: &str = "usage: critpath [--workload NAME] [--tasks N] [--config lea|GC|qs] \
                     [--scale N] [--det-seed N] [--out PATH]";

fn main() -> ExitCode {
    let args = rc_bench::Args::from_env(USAGE, &[]);
    let scale = args.scale();
    let wname = args.value("--workload").unwrap_or("moss");
    let tasks: u32 = args.number("--tasks", 4);
    let seed: u64 = args.number("--det-seed", critpath::DET_SEED);
    let cname = args.value("--config").unwrap_or("lea");
    let config = match cname {
        "lea" => RunConfig::lea(),
        "GC" => RunConfig::gc(),
        "qs" => RunConfig::rc(CheckMode::Qs),
        other => {
            eprintln!("critpath: unknown config {other:?} (want lea|GC|qs)");
            return ExitCode::from(2);
        }
    };

    let run = match critpath::collect(wname, tasks, cname, &config, scale, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("critpath: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", run.render_text());

    if let Some(path) = args.value("--out") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("critpath: {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(path, run.render()) {
            eprintln!("critpath: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }

    // The work/span identities the matrix gates cell by cell, re-checked
    // here so a standalone invocation still fails loudly.
    let tail = parallelmatrix::merge_tail(&run.reports);
    let violations = parallelmatrix::identity_violations(&run.cp, run.cycles, tail);
    for v in &violations {
        eprintln!("critpath: identity violation — {v}");
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
