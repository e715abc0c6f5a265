//! The `rc-fuzz` binary: differential conformance campaign over
//! generated RC programs.
//!
//! ```text
//! cargo run --release -p rc-fuzz -- --seeds 256 --budget-steps 20000000 --json
//! ```
//!
//! Options:
//!
//! - `--seeds N` — sweep seeds `0..N` (default 64);
//! - `--size K` — generator size knob (default 6);
//! - `--budget-steps M` — per-run interpreter step budget, 0 = unlimited
//!   (default 20000000);
//! - `--json` — emit the full `rc-fuzz-report/v1` JSON on stdout instead
//!   of the human summary;
//! - `--regressions DIR` — where shrunk repros of failing seeds are
//!   written (default `tests/corpus/regressions/` in the repository);
//! - `--no-write` — do not write repro files;
//! - `--dump SEED` — print the generated source for one seed and exit
//!   (`--violations` switches the generator to violation-planting mode,
//!   `--no-spawn` suppresses `spawn`/`join` sections).
//!
//! The output is byte-deterministic for fixed options: CI runs the
//! campaign twice and compares the reports byte for byte. Exits 0 when every oracle
//! assertion held, 1 otherwise.

use std::path::PathBuf;

use rc_fuzz::campaign::{run_campaign, CampaignConfig};

const USAGE: &str = "usage: rc-fuzz [--seeds N] [--size K] [--budget-steps M] [--json] \
                     [--regressions DIR] [--no-write] [--dump SEED [--violations] [--no-spawn]]";

fn main() {
    let args = rc_bench::Args::from_env(
        USAGE,
        &["--json", "--no-write", "--violations", "--no-spawn"],
    );
    let seeds = args.number("--seeds", 64);
    let size = args.number("--size", 6);
    let budget_steps = args.number("--budget-steps", 20_000_000);
    let regressions_dir = if args.flag("--no-write") {
        None
    } else {
        Some(
            args.value("--regressions").map(PathBuf::from).unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/regressions")
            }),
        )
    };

    if args.value("--dump").is_some() {
        let seed = args.number("--dump", 0);
        let gen_cfg = rc_fuzz::GenConfig {
            size,
            violations: args.flag("--violations"),
            spawn: !args.flag("--no-spawn"),
        };
        print!("{}", rc_fuzz::generate_source(seed, &gen_cfg));
        return;
    }

    let cfg = CampaignConfig { seeds, size, budget_steps, regressions_dir };
    let report = run_campaign(&cfg);

    if args.flag("--json") {
        println!("{}", report.render());
    } else {
        println!("{}", report.summary());
        for case in report.failures() {
            println!("seed {}:", case.seed);
            for v in &case.violations {
                println!("  {v}");
            }
            if let Some(name) = &case.repro {
                println!(
                    "  shrunk to {} statement(s), repro: {name}",
                    case.shrunk_statements.unwrap_or(0)
                );
            }
        }
    }

    std::process::exit(if report.passed() { 0 } else { 1 });
}
