//! Figure 8 as a wall-clock benchmark: the four check regimes
//! (nq / qs / inf / nc), plus an ablation on the cost model: what if the
//! annotation checks were as expensive as a full reference-count update?
//! (Quantifies how much of RC's win is the cheap check versus the
//! statically eliminated check — the design choice DESIGN.md calls out.)

use rc_bench::microbench::Bench;
use rc_lang::interp::run;
use rc_lang::{CheckMode, RunConfig};
use rc_workloads::driver::prepare_workload;
use rc_workloads::Scale;
use std::hint::black_box;
use std::rc::Rc;

fn bench_fig8(c: &Bench) {
    let g = c.group("fig8");
    for wname in ["lcc", "mudlle", "moss"] {
        let w = rc_workloads::by_name(wname).expect("known workload");
        let compiled = Rc::new(prepare_workload(&w, Scale::TINY));
        for (cfg_name, cfg) in RunConfig::figure8() {
            let compiled = Rc::clone(&compiled);
            g.bench(&format!("{wname}/{cfg_name}"), move || {
                let r = run(black_box(&compiled), &cfg);
                assert!(r.outcome.is_exit());
                black_box(r.cycles);
            });
        }
    }
}

/// Ablation: checks priced like count updates.
fn bench_expensive_checks_ablation(c: &Bench) {
    let g = c.group("ablation_expensive_checks");
    let w = rc_workloads::by_name("mudlle").expect("known workload");
    let compiled = Rc::new(prepare_workload(&w, Scale::TINY));

    let mut expensive = RunConfig::rc(CheckMode::Qs);
    expensive.costs.check_sameregion = expensive.costs.rc_update_full;
    expensive.costs.check_parentptr = expensive.costs.rc_update_full;
    expensive.costs.check_traditional = expensive.costs.rc_update_full;

    let mut inf_expensive = RunConfig::rc(CheckMode::Inf);
    inf_expensive.costs.check_sameregion = inf_expensive.costs.rc_update_full;
    inf_expensive.costs.check_parentptr = inf_expensive.costs.rc_update_full;
    inf_expensive.costs.check_traditional = inf_expensive.costs.rc_update_full;

    for (name, cfg) in [
        ("paper_costs_qs", RunConfig::rc(CheckMode::Qs)),
        ("checks_cost_23_qs", expensive),
        ("checks_cost_23_inf", inf_expensive),
    ] {
        let compiled = Rc::clone(&compiled);
        g.bench(name, move || {
            let r = run(black_box(&compiled), &cfg);
            assert!(r.outcome.is_exit());
            black_box(r.cycles);
        });
    }
}

fn main() {
    let bench = Bench::from_args(10);
    bench_fig8(&bench);
    bench_expensive_checks_ablation(&bench);
}
