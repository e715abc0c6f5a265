//! End-to-end regression gate: the `bench-diff` binary itself, driven
//! over real collected trajectories, must exit 0 on identical reports,
//! 1 on an injected regression, and 2 on malformed input.

use std::path::PathBuf;
use std::process::Command;

use rc_bench::report::Evaluation;
use rc_bench::trajectory::{self, BenchReport};
use rc_workloads::Scale;

fn write_tmp(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rc-bench-diff-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

fn bench_diff(old: &PathBuf, new: &PathBuf) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .arg(old)
        .arg(new)
        .output()
        .expect("run bench-diff");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code"), text)
}

fn tiny_report() -> BenchReport {
    trajectory::collect(&Evaluation::collect_for(
        Scale::TINY,
        &[rc_workloads::by_name("tile").unwrap()],
    ))
}

#[test]
fn gate_exit_codes_over_real_reports() {
    let rep = tiny_report();
    let base = write_tmp("base.json", &rep.render());

    // Identical reports: clean exit, explicit all-clear.
    let same = write_tmp("same.json", &rep.render());
    let (code, out) = bench_diff(&base, &same);
    assert_eq!(code, 0, "self-diff must pass:\n{out}");
    assert!(out.contains("no regressions"), "{out}");

    // A 10% cycle regression on one run trips the 5% gate.
    let mut slow = rep.clone();
    slow.runs[0].cycles += slow.runs[0].cycles / 10;
    let slow_path = write_tmp("slow.json", &slow.render());
    let (code, out) = bench_diff(&base, &slow_path);
    assert_eq!(code, 1, "10% cycle growth must fail the gate:\n{out}");
    assert!(out.contains("REGRESSED"), "{out}");
    assert!(out.contains("cycles"), "{out}");

    // An 11% peak-memory regression trips the 10% gate.
    let mut fat = rep.clone();
    let peak = fat.runs[0].peak_live_words;
    fat.runs[0].peak_live_words = peak + peak * 11 / 100 + 1;
    let fat_path = write_tmp("fat.json", &fat.render());
    let (code, out) = bench_diff(&base, &fat_path);
    assert_eq!(code, 1, "11% peak growth must fail the gate:\n{out}");

    // Malformed input and missing files are usage errors, not
    // regressions.
    let junk = write_tmp("junk.json", "{\"schema\": \"wrong/v9\"}");
    let (code, out) = bench_diff(&base, &junk);
    assert_eq!(code, 2, "schema mismatch is an input error:\n{out}");
    let missing = PathBuf::from("/nonexistent/BENCH.json");
    let (code, _) = bench_diff(&base, &missing);
    assert_eq!(code, 2);
}
