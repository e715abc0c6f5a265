//! The benchmark at its smallest size: every metric of BENCHMARK.json
//! prints with its unit on every workload, outputs check clean, and a
//! corrupted expected value shows up as a failed output, not a panic.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build makes inference too slow for the one-second draw).

use perfbench::expect::Baseline;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{run_workload, Args, Expectations, Workload};
use region_rt::Json;

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
    }
}

/// `(name, unit)` of every entry of one BENCHMARK.json metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let own = |c: &[(&str, &str)]| {
        c.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(own(END_TO_END), declared("end_to_end"));
    assert_eq!(own(PER_LAYER), declared("per_layer"));
}

#[test]
fn every_metric_prints_with_its_unit_and_checks_clean() {
    let exp = Expectations::committed().expect("committed expectations parse");
    for workload in Workload::ALL {
        for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
            let (mut report, spans) = run_workload(&args(workload, trace), &exp);
            let line = report.render(catalog);
            assert_eq!(
                report.failed, 0,
                "{workload:?} trace={trace}: {:?}",
                report.failures
            );
            assert!(report.attempted > 0);
            for &(name, unit) in catalog {
                let field = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&field)
                    .unwrap_or_else(|| panic!("{name} missing: {line}"));
                assert!(
                    line[at..].contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} without unit {unit}"
                );
            }
            let doc = Json::parse(&line).expect("the result line is JSON");
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(
                spans.spans.is_empty(),
                !trace,
                "{workload:?}: spans only in the traced pass"
            );
        }
    }
}

#[test]
fn corrupted_expectations_count_as_failures() {
    let mut exp = Expectations::committed().expect("committed expectations parse");
    exp.table3[0].2 += 1;
    let (mut report, _) = run_workload(&args(Workload::Compile, false), &exp);
    assert_eq!(report.failed, 1, "{:?}", report.failures);
    assert!(report.render(END_TO_END).starts_with("{\"correct\": false"));

    let mut exp = Expectations::committed().expect("committed expectations parse");
    let cell = exp
        .baseline
        .runs
        .get_mut(&("cfrac".to_string(), "lea".to_string()))
        .expect("cfrac/lea");
    cell.0 += 1;
    let (report, _) = run_workload(&args(Workload::Run, false), &exp);
    assert!(report.failed > 0);
    assert!(
        report.failures.iter().all(|f| f.starts_with("cfrac/lea")),
        "{:?}",
        report.failures
    );
}

#[test]
fn malformed_baseline_is_an_error() {
    assert!(Baseline::parse("{").is_err());
    assert!(Baseline::parse("{\"scale\": 1}").is_err());
    assert!(Baseline::parse("{\"scale\": 1, \"runs\": [{\"workload\": \"cfrac\"}]}").is_err());
}

#[test]
fn counts_repeat_for_a_seed_and_another_seed_checks_clean() {
    let exp = Expectations::committed().expect("committed expectations parse");
    let counts = [
        "interp.steps",
        "interp.vcycles",
        "infer.safe_sites",
        "heap.regions_created",
    ];
    for workload in [Workload::Serve, Workload::Run] {
        let traced = |seed| {
            let (report, _) = run_workload(
                &Args {
                    seed,
                    ..args(workload, true)
                },
                &exp,
            );
            assert_eq!(
                report.failed, 0,
                "{workload:?} seed {seed}: {:?}",
                report.failures
            );
            counts.map(|c| report.get(c).unwrap_or_else(|| panic!("{c} not measured")))
        };
        assert_eq!(
            traced(5),
            traced(5),
            "{workload:?}: counts differ between runs of one seed"
        );
        traced(6);
    }
}
