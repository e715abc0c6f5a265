//! Design-choice ablations over the full workload suite:
//!
//! 1. **Hierarchy numbering** — eager renumber-on-create (the paper's
//!    implementation) vs gap-based O(1) intervals (the "more efficient
//!    scheme" the paper anticipates).
//! 2. **Delete semantics** — abort vs deferred (GC-like) reclamation.
//! 3. **Check pricing** — Figure 3(b) checks at paper cost vs priced like
//!    full count updates (how much of the win is the cheap check?).
//!
//! Usage: `cargo run --release -p rc-bench --bin ablations
//! [--scale N] [--profile] [--trace <path>]`.
//!
//! `--profile` additionally traces the baseline RC(inf) run of each
//! workload and prints its hot check/alloc sites; `--trace <path>`
//! exports the traced runs' raw events as JSON Lines.

use rc_lang::interp::{run, Outcome};
use rc_lang::{CheckMode, DeleteSemantics, RunConfig};
use rc_workloads::driver::prepare_workload;
use region_rt::NumberingScheme;

fn cycles(c: &rc_lang::Compiled, cfg: &RunConfig) -> u64 {
    let r = run(c, cfg);
    assert!(matches!(r.outcome, Outcome::Exit(_)), "{:?}", r.outcome);
    r.cycles
}

fn main() {
    let args = rc_bench::Args::from_env(
        "usage: ablations [--scale N] [--profile] [--trace PATH]",
        &["--profile"],
    );
    let scale = args.scale();
    let trace_path = args.value("--trace");
    let profile = args.flag("--profile") || trace_path.is_some();
    let mut trace_out = String::new();
    let mut profiles = String::new();
    println!("workload   renumber    gap-based   Δ%    deferred-Δ%  checks@23-Δ%");
    for w in rc_workloads::all() {
        let c = prepare_workload(&w, scale);

        let base = if profile {
            let r = run(&c, &RunConfig::rc_inf().traced());
            assert!(matches!(r.outcome, Outcome::Exit(_)), "{:?}", r.outcome);
            let (t, spans) =
                (r.tracer.as_ref().expect("traced"), r.spans.as_ref().expect("traced"));
            trace_out.push_str(&t.events_jsonl(w.name));
            let report = t.profile().text_report(w.name, spans);
            profiles.push_str(&format!("--- {} ---\n{report}", w.name));
            r.cycles
        } else {
            cycles(&c, &RunConfig::rc_inf())
        };

        let mut gap = RunConfig::rc_inf();
        gap.numbering = NumberingScheme::GapBased;
        let gap_c = cycles(&c, &gap);

        let mut deferred = RunConfig::rc_inf();
        deferred.delete_semantics = DeleteSemantics::Deferred;
        let def_c = cycles(&c, &deferred);

        let mut pricey = RunConfig::rc(CheckMode::Inf);
        pricey.costs.check_sameregion = pricey.costs.rc_update_full;
        pricey.costs.check_parentptr = pricey.costs.rc_update_full;
        pricey.costs.check_traditional = pricey.costs.rc_update_full;
        let pricey_c = cycles(&c, &pricey);

        let pct = |v: u64| 100.0 * (v as f64 - base as f64) / base as f64;
        println!(
            "{:<10} {:<11} {:<11} {:<+5.1} {:<+12.1} {:<+.1}",
            w.name,
            base,
            gap_c,
            pct(gap_c),
            pct(def_c),
            pct(pricey_c),
        );
    }
    println!("\nΔ% columns are relative to the default RC(inf) configuration.");
    if profile {
        println!("\n=== telemetry profiles (RC inf, traced baseline runs) ===\n{profiles}");
    }
    if let Some(path) = trace_path {
        std::fs::write(path, trace_out).expect("write trace jsonl");
        eprintln!("wrote raw event trace to {path}");
    }
}
