#![warn(missing_docs)]

//! # rc-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the reimplemented system:
//!
//! | Artifact | Generator |
//! |---|---|
//! | Table 1 (benchmark characteristics) | `cargo run -p rc-bench --bin table1` |
//! | Table 2 (refcount overhead)         | `cargo run -p rc-bench --bin table2` |
//! | Table 3 (annotation statistics)     | `cargo run -p rc-bench --bin table3` |
//! | Figure 7 (exec time, 5 allocators)  | `cargo run -p rc-bench --bin fig7` |
//! | Figure 8 (nq/qs/inf/nc)             | `cargo run -p rc-bench --bin fig8` |
//! | Figure 9 (assignment categories)    | `cargo run -p rc-bench --bin fig9` |
//! | All of the above → EXPERIMENTS.md   | `cargo run -p rc-bench --bin experiments` |
//! | Fault-injection torture matrix      | `cargo run -p rc-bench --bin fault-matrix` |
//! | Checkpoint-recovery matrix          | `cargo run -p rc-bench --bin recovery-matrix` |
//! | Parallel spawn/join matrix          | `cargo run -p rc-bench --bin parallel-matrix` |
//! | Critical-path attribution           | `cargo run -p rc-bench --bin critpath` |
//! | Perfetto provenance trace           | `cargo run -p rc-bench --bin trace-export` |
//! | Heap snapshot dump + analysis       | `cargo run -p rc-bench --bin rc-inspect` |
//!
//! Tables 1–3, Figures 7–9 and the bench trajectory all read one
//! [`report::Evaluation`]: each workload compiled once and run once under
//! each distinct Figure 7/8 configuration, with the timeline sampler on.
//! The telemetry and provenance passes rerun its compiled workloads with
//! their own sinks.
//!
//! Wall-clock benchmarks live in `benches/` (run with `cargo bench -p
//! rc-bench`), on the dependency-free harness in [`microbench`]. Passing
//! `--profile` to `experiments` or `ablations` adds a telemetry section
//! (per-site hot spots, region flamegraph); `--trace <path>` exports the
//! raw event stream as JSON Lines. See `docs/OBSERVABILITY.md`.

pub mod critpath;
pub mod faultmatrix;
pub mod fuzzreport;
pub mod inspect;
pub mod matrix;
pub mod microbench;
pub mod parallelmatrix;
pub mod provenance;
pub mod recoverymatrix;
pub mod report;
pub mod schema;
pub mod trajectory;

use std::str::FromStr;

use rc_workloads::Scale;

/// A binary's command line, checked before any work starts: bare
/// `--flag`s, `--option value` pairs and positional words.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    flags: Vec<String>,
    values: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses argv; `flags` names the options that take no value. On an
    /// option whose value is missing or starts with `--`, or a `--scale`
    /// that is not a positive integer, prints the error and `usage` to
    /// stderr and exits 2.
    pub fn from_env(usage: &'static str, flags: &[&str]) -> Args {
        Args::parse(usage, std::env::args().skip(1), flags).unwrap_or_else(|e| usage_error(usage, &e))
    }

    fn parse(
        usage: &'static str,
        mut args: impl Iterator<Item = String>,
        flags: &[&str],
    ) -> Result<Args, String> {
        let mut parsed = Args { usage, flags: vec![], values: vec![], positionals: vec![] };
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                parsed.positionals.push(a);
            } else if flags.contains(&a.as_str()) {
                parsed.flags.push(a);
            } else {
                let Some(v) = args.next().filter(|v| !v.starts_with("--")) else {
                    return Err(format!("{a} needs a value"));
                };
                if a == "--scale" && !v.parse::<u32>().is_ok_and(|n| n > 0) {
                    return Err(format!("--scale wants a positive integer, got {v:?}"));
                }
                parsed.values.push((a, v));
            }
        }
        Ok(parsed)
    }

    /// The workload scale (`--scale N`), defaulting to [`Scale::SMALL`].
    pub fn scale(&self) -> Scale {
        Scale(self.number("--scale", Scale::SMALL.0))
    }

    /// The value of `--name` as a number, or `default` when absent; a
    /// value that does not parse prints the usage and exits 2.
    pub fn number<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                usage_error(self.usage, &format!("{name} wants a number, got {v:?}"))
            }),
        }
    }

    /// Whether the bare `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of the first `--option value` pair named `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The words that are neither options nor option values, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

fn usage_error(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], flags: &[&str]) -> Result<Args, String> {
        Args::parse("usage: test", args.iter().map(|s| s.to_string()), flags)
    }

    #[test]
    fn options_flags_and_positionals_parse() {
        let a = parse(&["diff", "--scale", "1", "--profile", "a.json", "--trace", "ev.jsonl"], &[
            "--profile",
        ])
        .unwrap();
        assert_eq!(a.scale(), Scale(1));
        assert!(a.flag("--profile") && !a.flag("--sample"));
        assert_eq!(a.value("--trace"), Some("ev.jsonl"));
        assert_eq!(a.positionals(), ["diff", "a.json"]);
        assert_eq!(parse(&[], &[]).unwrap().scale(), Scale::SMALL);
    }

    #[test]
    fn a_scale_that_is_not_a_positive_integer_is_rejected() {
        for bad in ["abc", "0", "-1", "1.5"] {
            let e = parse(&["--scale", bad], &[]).unwrap_err();
            assert!(e.contains("--scale wants a positive integer"), "{bad}: {e}");
        }
    }

    #[test]
    fn an_option_without_its_value_is_rejected() {
        // Trailing: `experiments --trace` used to skip the telemetry pass.
        assert_eq!(parse(&["--trace"], &["--profile"]).unwrap_err(), "--trace needs a value");
        // Followed by another option: `--trace --profile` used to write
        // the trace to a file named `--profile`.
        assert_eq!(
            parse(&["--trace", "--profile"], &["--profile"]).unwrap_err(),
            "--trace needs a value"
        );
        assert!(parse(&["--scale"], &[]).is_err());
    }
}
