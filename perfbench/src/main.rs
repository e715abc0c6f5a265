//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON result line last on standard output; failed checks
//! go to standard error. Spans of the traced pass are written to
//! `out/spans-<workload>-<seed>.jsonl` beside this package's manifest.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{run_workload, Args, Expectations, Workload};

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Compile,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload compile|run|serve|telemetry --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let exp = match Expectations::committed() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut report, spans) = run_workload(&args, &exp);
    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let line = report.render(if args.trace { PER_LAYER } else { END_TO_END });
    for f in &report.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
