//! Exports one workload run as a Perfetto-loadable trace.
//!
//! Usage: `cargo run -p rc-bench --bin trace-export -- [--workload cfrac]
//! [--config nq|qs|inf|nc] [--scale N] [--out PATH]`, or, for a parallel
//! run, `-- --parallel [--workload moss] [--tasks 4] [--det-seed N]
//! [--scale N] [--out PATH]`.
//!
//! The default mode runs the workload with region lifecycle spans on,
//! joins every dynamic check against the static inference verdict and
//! reason, and writes Chrome trace-event JSON (open in
//! <https://ui.perfetto.dev>) — one track per region.
//!
//! `--parallel` instead runs the workload's spawn/join variant under the
//! seeded deterministic scheduler and writes a *multi-track* trace: one
//! track per task (an `"X"` slice over the task's shared-clock lifetime,
//! scheduler events as instants), with the work/span headline numbers in
//! `otherData`. Both exports are byte-deterministic — CI runs them twice
//! and compares the bytes. Exits 0 on success, 2 on bad arguments or I/O errors.

use std::process::ExitCode;

use rc_bench::{critpath, provenance, Args};
use rc_lang::{CheckMode, RunConfig};
use rc_workloads::driver::prepare_workload;

const USAGE: &str = "\
usage: trace-export [--workload NAME] [--config nq|qs|inf|nc] [--scale N] [--out PATH]
       trace-export --parallel [--workload NAME] [--tasks N] [--det-seed N] [--scale N] [--out PATH]";

fn main() -> ExitCode {
    let args = Args::from_env(USAGE, &["--parallel"]);
    if args.flag("--parallel") {
        return parallel(&args);
    }
    let scale = args.scale();
    let wname = args.value("--workload").unwrap_or("cfrac");
    let cname = args.value("--config").unwrap_or("qs");

    let Some(workload) = rc_workloads::by_name(wname) else {
        eprintln!("trace-export: unknown workload {wname:?}");
        return ExitCode::from(2);
    };
    let config = match cname {
        "nq" => RunConfig::rc(CheckMode::Nq),
        "qs" => RunConfig::rc(CheckMode::Qs),
        "inf" => RunConfig::rc_inf(),
        "nc" => RunConfig::rc(CheckMode::Nc),
        other => {
            eprintln!("trace-export: unknown config {other:?} (want nq|qs|inf|nc)");
            return ExitCode::from(2);
        }
    };

    let out = args
        .value("--out")
        .map_or_else(|| format!("target/experiments/trace_{wname}_{cname}.json"), String::from);
    let compiled = prepare_workload(&workload, scale);
    let export = provenance::collect(&compiled, wname, cname, &config);

    print!("{}", provenance::coverage_markdown(&export));
    println!(
        "\n{} spans ({} closed), {} notes ({} dropped)",
        export.spans.spans().len(),
        export.spans.closed_count(),
        export.spans.notes().len(),
        export.spans.notes_dropped()
    );

    write_trace(&out, provenance::chrome_trace(&export).render_pretty())
}

/// The `--parallel` mode: multi-track task/scheduler trace.
fn parallel(args: &Args) -> ExitCode {
    let scale = args.scale();
    let wname = args.value("--workload").unwrap_or("moss");
    let tasks: u32 = args.number("--tasks", 4);
    let seed: u64 = args.number("--det-seed", critpath::DET_SEED);
    let run = match critpath::collect(wname, tasks, "lea", &RunConfig::lea(), scale, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace-export: {e}");
            return ExitCode::from(2);
        }
    };
    let events: usize = run.reports.iter().map(|r| r.sched.events.len()).sum();
    let dropped: u64 = run.reports.iter().map(|r| r.sched.dropped).sum();
    println!(
        "{} ×{}: {} tasks, {} scheduler events ({} dropped), work {} / span {} cycles",
        run.workload,
        run.tasks,
        run.reports.len(),
        events,
        dropped,
        run.cp.work,
        run.cp.span
    );
    let out = args
        .value("--out")
        .map_or_else(|| format!("target/experiments/trace_par_{wname}_t{tasks}.json"), String::from);
    write_trace(&out, critpath::multi_track_trace(&run).render_pretty())
}

fn write_trace(out: &str, json: String) -> ExitCode {
    if let Some(dir) = std::path::Path::new(out).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("trace-export: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("trace-export: {out}: {e}");
        return ExitCode::from(2);
    }
    println!("trace written to {out} (load in https://ui.perfetto.dev)");
    ExitCode::SUCCESS
}
