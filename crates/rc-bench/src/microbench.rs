//! A minimal wall-clock benchmark harness (the build environment is
//! offline, so no criterion). Each benchmark auto-calibrates an iteration
//! count so one sample takes a few milliseconds, collects a fixed number
//! of samples, and reports `min / median / max` nanoseconds per
//! iteration. Benchmarks run with `cargo bench -p rc-bench`; an optional
//! positional argument substring-filters benchmark names, exactly like
//! criterion's CLI.

use std::time::{Duration, Instant};

/// Target wall time for a single sample during measurement.
const SAMPLE_TARGET: Duration = Duration::from_millis(4);

/// A benchmark runner for one process: parses the CLI once, then runs
/// groups.
pub struct Bench {
    filter: Option<String>,
    samples: usize,
}

impl Bench {
    /// Parses `cargo bench` CLI arguments (`--bench` is swallowed, a bare
    /// word is a name filter, `--samples N` overrides `samples`, the
    /// default sample count).
    pub fn from_args(samples: usize) -> Bench {
        Bench::parse(std::env::args().skip(1), samples)
    }

    fn parse(args: impl IntoIterator<Item = String>, mut samples: usize) -> Bench {
        let mut filter = None;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--bench" | "--test" => {}
                "--samples" => {
                    if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                        samples = v;
                    }
                }
                s if !s.starts_with('-') => filter = Some(s.to_string()),
                _ => {}
            }
        }
        Bench { filter, samples }
    }

    /// Starts a named benchmark group.
    pub fn group(&self, name: &str) -> Group<'_> {
        Group { bench: self, name: name.to_string() }
    }
}

/// A named group; benchmark ids print as `group/name`.
pub struct Group<'a> {
    bench: &'a Bench,
    name: String,
}

impl Group<'_> {
    /// Runs one benchmark: calibrates, samples, prints a summary line.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) {
        self.run(name, |iters| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed()
        });
    }

    /// As [`Group::bench`], but every call of `f` runs against a fresh
    /// state built by `setup` outside the timed region, so no call
    /// measures the history earlier calls left behind. Each call is
    /// timed on its own, so `f` should do enough work (a fixed batch) to
    /// dwarf the timer's overhead.
    pub fn bench_with_setup<S>(
        &self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(&mut S),
    ) {
        self.run(name, |iters| {
            (0..iters)
                .map(|_| {
                    let mut state = setup();
                    let t = Instant::now();
                    f(&mut state);
                    t.elapsed()
                })
                .sum()
        });
    }

    /// Calibrates and samples `time_iters` (the timed duration of `n`
    /// iterations), then prints the summary line.
    fn run(&self, name: &str, mut time_iters: impl FnMut(u64) -> Duration) {
        let id = format!("{}/{}", self.name, name);
        if let Some(filter) = &self.bench.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }

        // Calibration: grow the per-sample iteration count until one
        // sample meets the target, so timer overhead stays negligible.
        let mut iters: u64 = 1;
        loop {
            let el = time_iters(iters);
            if el >= SAMPLE_TARGET || iters >= 1 << 24 {
                break;
            }
            iters = if el.is_zero() {
                iters * 16
            } else {
                // Aim straight for the target, with headroom.
                (iters as u128 * SAMPLE_TARGET.as_nanos() / el.as_nanos().max(1)) as u64 + 1
            };
        }

        let mut per_iter: Vec<f64> = (0..self.bench.samples.max(1))
            .map(|_| time_iters(iters).as_nanos() as f64 / iters as f64)
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min = per_iter[0];
        let med = per_iter[per_iter.len() / 2];
        let max = per_iter[per_iter.len() - 1];
        println!(
            "{id:<50} time: [{} {} {}]  ({} samples × {iters} iters)",
            fmt_ns(min),
            fmt_ns(med),
            fmt_ns(max),
            per_iter.len(),
        );
    }
}

/// Human units, criterion-style.
fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_units() {
        assert_eq!(fmt_ns(12.5), "12.50 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.00 ms");
    }

    #[test]
    fn samples_flag_beats_the_default_and_a_bare_word_filters() {
        let b = Bench::parse(["--bench", "write_barrier", "--samples", "3"].map(String::from), 10);
        assert_eq!(b.samples, 3);
        assert_eq!(b.filter.as_deref(), Some("write_barrier"));
        let b = Bench::parse(["--bench".to_string()], 10);
        assert_eq!(b.samples, 10);
        assert_eq!(b.filter, None);
    }

    #[test]
    fn runs_a_trivial_bench() {
        // Smoke: a cheap closure measures without panicking.
        let b = Bench { filter: None, samples: 3 };
        b.group("smoke").bench("noop", || {
            std::hint::black_box(1 + 1);
        });
    }

    #[test]
    fn setup_runs_once_per_call() {
        let b = Bench { filter: None, samples: 3 };
        let mut setups = 0u64;
        let mut calls = 0u64;
        let mut longest_history = 0u64;
        b.group("smoke").bench_with_setup(
            "fresh",
            || {
                setups += 1;
                0u64
            },
            |history| {
                *history += 1;
                calls += 1;
                longest_history = longest_history.max(*history);
            },
        );
        // Every call started from its own fresh state.
        assert_eq!(setups, calls);
        assert_eq!(longest_history, 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let b = Bench { filter: Some("zzz_never".into()), samples: 3 };
        // Would run forever per-sample if not filtered out.
        b.group("g").bench("slow", || std::thread::sleep(Duration::from_secs(60)));
    }
}
