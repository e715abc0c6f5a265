//! Figure 7 as a wall-clock benchmark: each paper workload executed under
//! the five allocator configurations. The virtual-cycle version of this
//! figure comes from `cargo run -p rc-bench --bin fig7`; this bench
//! measures the real time of the whole instrumented pipeline.

use rc_bench::microbench::Bench;
use rc_lang::interp::run;
use rc_lang::RunConfig;
use rc_workloads::driver::prepare_workload;
use rc_workloads::Scale;
use std::hint::black_box;
use std::rc::Rc;

fn bench_fig7(c: &Bench) {
    let g = c.group("fig7");
    // A representative subset keeps bench time reasonable: the
    // refcount-heavy compiler (lcc), the annotation-heavy interpreter
    // (mudlle) and the subregion-heavy server (apache).
    for wname in ["lcc", "mudlle", "apache"] {
        let w = rc_workloads::by_name(wname).expect("known workload");
        let compiled = Rc::new(prepare_workload(&w, Scale::TINY));
        for (cfg_name, cfg) in RunConfig::figure7() {
            let compiled = Rc::clone(&compiled);
            g.bench(&format!("{wname}/{cfg_name}"), move || {
                let r = run(black_box(&compiled), &cfg);
                assert!(r.outcome.is_exit());
                black_box(r.cycles);
            });
        }
    }
}

fn main() {
    let bench = Bench::from_args(10);
    bench_fig7(&bench);
}
