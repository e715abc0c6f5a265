//! The four workloads. Each stresses one layer and bypasses the others:
//!
//! - `compile`: `prepare` on a draw of distinct sources (the eight paper
//!   workloads and generated programs up to about a second of inference
//!   each). Inference does almost all the work; the interpreter runs the
//!   compiled programs under `lea` only as checks, between `prepare` calls.
//! - `run`: the eight workloads, compiled during set-up, under the eight
//!   Figure 7/8 configurations. The interpreter and runtime do all the
//!   work; each run creates at most a few hundred regions.
//! - `serve`: one long region-per-connection program under `RC`, tens of
//!   thousands of regions on one heap, so region-table history dominates.
//! - `telemetry`: the `run` programs under `nq` with every telemetry sink
//!   on, so every hook site writes (see [`crate::layers::nq_with`] for why
//!   `nq` and not `qs`).

use std::ops::RangeInclusive;
use std::time::Instant;

use rc_fuzz::{generate_source, GenConfig, Rng};
use rc_lang::interp::{prepare, run_audited, Compiled, Outcome, RunResult};
use rc_lang::{to_rlang, RunConfig};
use rc_workloads::Scale;

use crate::expect::{Baseline, BASELINE_JSON, TABLE3};
use crate::layers::{
    check_exit, config_sweep, nq_with, paper_configs, prepare_all_traced, region_sweep,
    report_front_end, sink_sweep, timed_run, FrontCounts, RunCounts, SweepProgram, SINKS,
};
use crate::report::Report;
use crate::serve;
use crate::spans::Recorder;
use crate::util::{median, ns_since, quantile, ratio, shuffle};

/// Set-up runs once before the main measurement and again whenever this
/// many seconds of it have passed, so that its repetitions see the same
/// machine as the measurement; `setup_s` is their median.
const SETUP_EVERY_S: f64 = 2.0;
/// Set-up runs at least this many times per run.
const SETUP_MIN_REPS: usize = 3;
/// Timed repetitions per cell in the traced pass's sweeps, and closing
/// `lea` rounds of the paper workloads in `compile`.
const SWEEP_REPS: usize = 5;
/// Generated program sizes in the `compile` draw: size 10 is the largest
/// at which a single program still prepares in about a second.
const COMPILE_SIZES: RangeInclusive<u32> = 1..=10;
/// Generated programs per size per second of `--seconds`; the draw took
/// roughly `--seconds` to prepare at the commit that introduced it.
const COMPILE_PER_SIZE_PER_SECOND: f64 = 0.6;
/// Generator seeds of the `compile` pool start here (see [`compile_pool`]).
const POOL_SEED: u64 = 0x5EED_0000;
/// The scale of the `run` and `telemetry` cells: the baseline's scale.
const RUN_SCALE: Scale = Scale(1);
/// The full-length scale of the eight workloads in the region sweep;
/// `RUN_SCALE` is its quarter.
const SWEEP_FULL_SCALE: Scale = Scale(4);
/// Regions one `serve` run creates (the last connection may add a few).
const SERVE_REGIONS: u64 = 29_000;

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `prepare` on a draw of distinct sources.
    Compile,
    /// The eight workloads under the eight paper configurations.
    Run,
    /// A long region-per-connection server program under `RC`.
    Serve,
    /// The `run` programs under `nq` with every telemetry sink on.
    Telemetry,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Compile,
        Workload::Run,
        Workload::Serve,
        Workload::Telemetry,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Run => "run",
            Workload::Serve => "serve",
            Workload::Telemetry => "telemetry",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// What to run.
    pub workload: Workload,
    /// Every input is a pure function of this seed.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// Expected outputs the checks compare against.
#[derive(Debug, Clone)]
pub struct Expectations {
    /// `(workload, sites, safe sites)`.
    pub table3: Vec<(String, usize, usize)>,
    /// Expected steps and cycles per cell.
    pub baseline: Baseline,
}

impl Expectations {
    /// The expectations committed with the repository.
    ///
    /// # Errors
    ///
    /// Describes a malformed baseline document.
    pub fn committed() -> Result<Expectations, String> {
        Ok(Expectations {
            table3: TABLE3
                .iter()
                .map(|&(n, s, k)| (n.to_string(), s, k))
                .collect(),
            baseline: Baseline::parse(BASELINE_JSON)?,
        })
    }
}

/// Runs one workload and returns its report and the traced pass's spans.
pub fn run_workload(args: &Args, exp: &Expectations) -> (Report, Recorder) {
    let mut rep = Report::default();
    let mut rec = Recorder::default();
    rep.tick();
    match args.workload {
        Workload::Compile => compile(args, exp, &mut rep, &mut rec),
        Workload::Run => cells(args, exp, &mut rep, &mut rec, false),
        Workload::Serve => serve_requests(args, &mut rep, &mut rec),
        Workload::Telemetry => cells(args, exp, &mut rep, &mut rec, true),
    }
    rep.normalise();
    rep.set("peak_rss_mib", crate::util::peak_rss_mib());
    if args.trace {
        rep.set("env.calibration_ns", rep.calibration_ns());
        rep.set("env.nproc", crate::util::nproc());
    }
    (rep, rec)
}

/// Seconds of the main measurement: the traced pass splits `--seconds`
/// between an untraced and a traced half.
fn main_budget(args: &Args) -> f64 {
    if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    }
}

/// A workload's set-up, repeated through the run (see [`SETUP_EVERY_S`]).
/// The body gets the report for its checks and a list for the times of
/// the `prepare` calls it makes.
struct Setup<F> {
    body: F,
    /// Wall time of every repetition, in seconds.
    times: Vec<f64>,
    /// Wall time of every `prepare` call the repetitions made, in ns.
    prepare_ns: Vec<f64>,
    last: Instant,
}

impl<T, F: FnMut(&mut Report, &mut Vec<f64>) -> T> Setup<F> {
    fn new(body: F) -> Self {
        Setup {
            body,
            times: Vec::new(),
            prepare_ns: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Runs one repetition.
    fn run(&mut self, rep: &mut Report) -> T {
        let t = Instant::now();
        let out = (self.body)(rep, &mut self.prepare_ns);
        self.times.push(t.elapsed().as_secs_f64());
        rep.tick();
        self.last = Instant::now();
        out
    }

    /// Runs a repetition if [`SETUP_EVERY_S`] has passed since the last.
    fn between(&mut self, rep: &mut Report) {
        if self.last.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            self.run(rep);
        }
    }

    /// Tops the repetitions up to [`SETUP_MIN_REPS`].
    fn finish(&mut self, rep: &mut Report) {
        while self.times.len() < SETUP_MIN_REPS {
            self.run(rep);
        }
    }
}

/// Prepares `sources` untraced, timing each; every compile error is a
/// failed output.
fn prepare_timed(
    rep: &mut Report,
    sources: &[&str],
    times_ns: &mut Vec<f64>,
) -> Vec<Option<Compiled>> {
    sources
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let t = Instant::now();
            let c = prepare(src);
            times_ns.push(ns_since(t));
            rep.tick();
            rep.check(c.is_ok(), || {
                format!("source {i} does not compile: {:?}", c.as_ref().err())
            });
            c.ok()
        })
        .collect()
}

/// The median time of each of `n` sources prepared in turn, repeatedly
/// (`times_ns[i]` belongs to source `i % n`).
fn median_per_source(times_ns: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| {
            median(
                &times_ns
                    .iter()
                    .skip(k)
                    .step_by(n)
                    .copied()
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Sets `setup_s` and the `prepare` quantiles.
fn report_setup(rep: &mut Report, setup_s: &[f64], prepare_ns: &[f64]) {
    rep.set("setup_s", median(setup_s));
    rep.set("prepare_ms_p50", quantile(prepare_ns, 0.5) / 1e6);
    rep.set("prepare_ms_p90", quantile(prepare_ns, 0.9) / 1e6);
}

/// Ratio of the summed self times of the `prepare` layers to the untraced
/// `prepare` time of the same programs.
fn report_layer_sum(rep: &mut Report, rec: &Recorder, untraced_prepare_ns: f64) {
    let layers: f64 = ["lex", "parse", "sema", "to_rlang", "infer", "liveness"]
        .iter()
        .map(|l| rec.layer_self_ns(l).iter().sum::<f64>())
        .sum();
    rep.set("bench.layer_sum_ratio", ratio(layers, untraced_prepare_ns));
}

// ---------------------------------------------------------------- compile

/// A source in the `compile` draw.
struct PoolSource {
    /// The paper workload it is, if any.
    workload: Option<&'static str>,
    src: String,
}

/// The `compile` pool: the eight workloads plus `per_size` generated
/// programs of every size in [`COMPILE_SIZES`]. The pool is fixed; the
/// benchmark seed only orders it. With seed-dependent generated programs
/// the p50 and p90 of a 20-second draw varied by 15–25% between seeds,
/// because inference time varies about threefold between programs of one
/// size.
fn compile_pool(per_size: u64) -> Vec<PoolSource> {
    let mut pool: Vec<PoolSource> = rc_workloads::all()
        .into_iter()
        .map(|w| PoolSource {
            workload: Some(w.name),
            src: (w.source)(RUN_SCALE),
        })
        .collect();
    for size in COMPILE_SIZES {
        for k in 0..per_size {
            let cfg = GenConfig {
                size,
                ..GenConfig::default()
            };
            let seed = POOL_SEED + u64::from(size) * 1000 + k;
            pool.push(PoolSource {
                workload: None,
                src: generate_source(seed, &cfg),
            });
        }
    }
    pool
}

fn compile(args: &Args, exp: &Expectations, rep: &mut Report, rec: &mut Recorder) {
    let per_size = ((main_budget(args) * COMPILE_PER_SIZE_PER_SECOND).round() as u64).max(1);
    let mut setup = Setup::new(|_: &mut Report, _: &mut Vec<f64>| compile_pool(per_size));
    let pool = setup.run(rep);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut Rng::new(args.seed), &mut order);

    // The draw, each source prepared once. Between sources, set-up
    // repeats and the paper workloads compiled so far run under `lea`
    // (their median run gives `run_msteps_per_s`).
    let lea = RunConfig::lea();
    let mut compiled: Vec<Option<Compiled>> = Vec::with_capacity(order.len());
    let mut prepare_ns = Vec::with_capacity(order.len());
    let mut lea_ns: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    let lea_round = |rep: &mut Report, compiled: &[Option<Compiled>], samples: &mut [Vec<f64>]| {
        for (i, c) in compiled.iter().enumerate() {
            if let (Some(c), true) = (c, pool[order[i]].workload.is_some()) {
                let (r, ns) = timed_run(c, &lea);
                check_exit(rep, &r, "paper workload/lea");
                rep.tick();
                samples[i].push(ns);
            }
        }
    };
    for (i, &slot) in order.iter().enumerate() {
        let t = Instant::now();
        let c = prepare(&pool[slot].src);
        prepare_ns.push(ns_since(t));
        rep.tick();
        rep.check(c.is_ok(), || {
            format!(
                "pool source {slot} does not compile: {:?}",
                c.as_ref().err()
            )
        });
        compiled.push(c.ok());
        if setup.last.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            setup.run(rep);
            lea_round(rep, &compiled[..=i], &mut lea_ns);
        }
    }
    setup.finish(rep);
    for _ in 0..SWEEP_REPS {
        lea_round(rep, &compiled, &mut lea_ns);
    }
    let untraced_ns: f64 = prepare_ns.iter().sum();

    if args.trace {
        // The traced pass prepares the same sources again so that its
        // layer times compare with the untraced pass like for like.
        let sources: Vec<String> = order.iter().map(|&slot| pool[slot].src.clone()).collect();
        let mut counts = FrontCounts::default();
        match prepare_all_traced(rep, rec, &sources, &mut counts) {
            Ok(cs) => compiled = cs.into_iter().map(Some).collect(),
            Err(e) => rep.check(false, || e),
        }
        let traced_ns: f64 = rec
            .spans
            .iter()
            .filter(|s| s.name == "prepare")
            .map(|s| s.ns() as f64)
            .sum();
        rep.set("bench.untraced_ns", untraced_ns);
        rep.set("bench.trace_overhead", ratio(traced_ns, untraced_ns));
        report_layer_sum(rep, rec, untraced_ns);
        report_front_end(rep, rec, counts);
    } else {
        report_setup(rep, &setup.times, &prepare_ns);
        rep.set(
            "requests_per_s",
            ratio(prepare_ns.len() as f64 * 1e9, untraced_ns),
        );
    }

    // Checks, outside the timed region: Table 3 for the paper workloads,
    // the Figure 6 judgments for every program, and a `lea` run of each
    // compiled program (steps and cycles against the baseline where it
    // records them).
    let mut run_counts = RunCounts::default();
    let (mut run_ns, mut run_steps) = (0.0, 0u64);
    for (i, (slot, c)) in order.iter().zip(&compiled).enumerate() {
        let Some(c) = c else { continue };
        let source = &pool[*slot];
        if let Some(name) = source.workload {
            let expected = exp
                .table3
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|&(_, s, k)| (s, k));
            let got = (c.analysis.site_count(), c.analysis.safe_count());
            rep.check(expected == Some(got), || {
                format!("{name}: (sites, safe sites) {got:?}, Table 3 says {expected:?}")
            });
        }
        let violations = rlang::validate(&to_rlang::translate(&c.module), &c.analysis);
        rep.check(violations.is_empty(), || {
            format!("pool source {slot}: {violations:?}")
        });
        let (r, ns) = if args.trace {
            rec.time(i as u32, "interp", None, || timed_run(c, &lea))
        } else {
            timed_run(c, &lea)
        };
        let what = source
            .workload
            .map_or(format!("pool source {slot}/lea"), |n| format!("{n}/lea"));
        check_exit(rep, &r, &what);
        if let Some(name) = source.workload {
            check_baseline(rep, &exp.baseline, name, "lea", &r);
            run_ns += if args.trace { ns } else { median(&lea_ns[i]) };
            run_steps += r.steps;
            run_counts.add(&r);
        }
    }
    if args.trace {
        run_counts.report(rep, run_ns);
        let quarter: Vec<(&str, &Compiled)> = order
            .iter()
            .zip(&compiled)
            .filter_map(|(slot, c)| Some((pool[*slot].workload?, c.as_ref()?)))
            .collect();
        let full = prepare_paper(rep, SWEEP_FULL_SCALE);
        sweeps(rep, &quarter, &full);
    } else {
        rep.set("run_msteps_per_s", ratio(run_steps as f64 * 1e3, run_ns));
    }
}

// ----------------------------------------------------------- run, telemetry

/// Compares a cell's steps and cycles with the baseline.
fn check_baseline(
    rep: &mut Report,
    baseline: &Baseline,
    workload: &str,
    config: &str,
    r: &RunResult,
) {
    if let Some((steps, cycles)) = baseline.expect(workload, config, RUN_SCALE.0) {
        rep.check(r.steps == steps && r.cycles == cycles, || {
            format!(
                "{workload}/{config}: steps {} cycles {}, baseline {steps} {cycles}",
                r.steps, r.cycles
            )
        });
    }
}

/// Prepares the eight workloads at a scale, untraced and untimed.
fn prepare_paper(rep: &mut Report, scale: Scale) -> Vec<(&'static str, Compiled)> {
    rc_workloads::all()
        .into_iter()
        .filter_map(|w| {
            let c = prepare(&(w.source)(scale));
            rep.check(c.is_ok(), || {
                format!("{} does not compile at {scale:?}", w.name)
            });
            Some((w.name, c.ok()?))
        })
        .collect()
}

/// The traced pass's sweeps over the eight workloads: run configurations
/// and telemetry sinks at `RUN_SCALE`, run length at `SWEEP_FULL_SCALE`.
fn sweeps(rep: &mut Report, quarter: &[(&str, &Compiled)], full: &[(&str, Compiled)]) {
    let progs: Vec<SweepProgram> = full
        .iter()
        .filter_map(|(name, f)| {
            let q = quarter.iter().find(|(n, _)| n == name)?.1;
            Some(SweepProgram {
                name: name.to_string(),
                full: f,
                quarter: q,
            })
        })
        .collect();
    config_sweep(rep, &progs, SWEEP_REPS);
    sink_sweep(rep, &progs, SWEEP_REPS);
    region_sweep(rep, &progs, SWEEP_REPS, None);
}

/// What rounds of cells measured.
#[derive(Default)]
struct Rounds {
    /// Wall time of each cell in every round.
    cell_ns: Vec<Vec<f64>>,
    /// Steps of each cell (the same in every round).
    steps: Vec<u64>,
    /// Rounds run.
    rounds: usize,
    /// Work counts of the first round (a pure function of the seed).
    first: RunCounts,
}

impl Rounds {
    /// Wall time of one round at every cell's median pace.
    fn median_round_ns(&self) -> f64 {
        self.cell_ns.iter().map(|ns| median(ns)).sum()
    }

    /// Interpreter steps of one round.
    fn round_steps(&self) -> u64 {
        self.steps.iter().sum()
    }
}

/// A cell: program index, baseline config name, configuration.
type Cell = (usize, &'static str, RunConfig);

/// Runs rounds of every cell, in a fresh seeded order per round, until
/// `budget_s` has passed (at least one round), calling `between` after
/// each round. With a recorder, each run is a span.
#[allow(clippy::too_many_arguments)]
fn cell_rounds(
    rep: &mut Report,
    mut rec: Option<&mut Recorder>,
    exp: &Expectations,
    cells: &[Cell],
    programs: &[(&'static str, Compiled)],
    rng: &mut Rng,
    budget_s: f64,
    telemetry: bool,
    between: &mut dyn FnMut(&mut Report),
) -> Rounds {
    let mut out = Rounds {
        cell_ns: vec![Vec::new(); cells.len()],
        steps: vec![0; cells.len()],
        ..Rounds::default()
    };
    let start = Instant::now();
    loop {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        shuffle(rng, &mut order);
        let first = out.rounds == 0;
        for i in order {
            let (p, config, cfg) = &cells[i];
            let (name, c) = &programs[*p];
            let (r, ns) = match rec.as_deref_mut() {
                Some(rec) => rec.time(*p as u32, "interp", None, || timed_run(c, cfg)),
                None => timed_run(c, cfg),
            };
            check_cell(rep, &exp.baseline, name, config, &r, telemetry);
            rep.tick();
            out.cell_ns[i].push(ns);
            out.steps[i] = r.steps;
            if first {
                out.first.add(&r);
            }
        }
        out.rounds += 1;
        if start.elapsed().as_secs_f64() >= budget_s {
            return out;
        }
        between(rep);
    }
}

/// Checks one cell: a normal exit, the baseline's steps (and, without the
/// check-counting sink, its cycles), and output from every sink.
fn check_cell(
    rep: &mut Report,
    baseline: &Baseline,
    name: &str,
    config: &str,
    r: &RunResult,
    telemetry: bool,
) {
    if !check_exit(rep, r, &format!("{name}/{config}")) {
        return;
    }
    if !telemetry {
        check_baseline(rep, baseline, name, config, r);
        return;
    }
    if let Some((steps, _)) = baseline.expect(name, config, RUN_SCALE.0) {
        rep.check(r.steps == steps, || {
            format!("{name}/{config}+sinks: steps {}, baseline {steps}", r.steps)
        });
    }
    let sinks_out = r.spans.is_some()
        && r.tracer.is_some()
        && r.timeline.is_some()
        && r.check_counts.is_some()
        && !r.snapshots.is_empty();
    rep.check(sinks_out, || {
        format!("{name}/{config}: a telemetry sink produced nothing")
    });
}

fn cells(args: &Args, exp: &Expectations, rep: &mut Report, rec: &mut Recorder, telemetry: bool) {
    let workloads = rc_workloads::all();
    let sources: Vec<String> = workloads.iter().map(|w| (w.source)(RUN_SCALE)).collect();
    let source_refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let mut setup = Setup::new(|rep: &mut Report, prepare_ns: &mut Vec<f64>| {
        let compiled = prepare_timed(rep, &source_refs, prepare_ns);
        workloads
            .iter()
            .zip(compiled)
            .filter_map(|(w, c)| Some((w.name, c?)))
            .collect::<Vec<_>>()
    });
    let programs = setup.run(rep);
    let cells: Vec<Cell> = (0..programs.len())
        .flat_map(|p| {
            if telemetry {
                vec![(p, "nq", nq_with(&SINKS))]
            } else {
                paper_configs()
                    .into_iter()
                    .map(|(name, _, cfg)| (p, name, cfg))
                    .collect()
            }
        })
        .collect();

    let mut rng = Rng::new(args.seed);
    let budget = main_budget(args);
    let untraced = cell_rounds(
        rep,
        None,
        exp,
        &cells,
        &programs,
        &mut rng,
        budget,
        telemetry,
        &mut |rep| setup.between(rep),
    );
    setup.finish(rep);
    let prepare_median = median_per_source(&setup.prepare_ns, sources.len());
    if args.trace {
        let mut counts = FrontCounts::default();
        if let Err(e) = prepare_all_traced(rep, rec, &sources, &mut counts) {
            rep.check(false, || e);
        }
        report_layer_sum(rep, rec, prepare_median.iter().sum());
        report_front_end(rep, rec, counts);
        let traced = cell_rounds(
            rep,
            Some(rec),
            exp,
            &cells,
            &programs,
            &mut rng,
            budget,
            telemetry,
            &mut |_| {},
        );
        let (u, t) = (untraced.median_round_ns(), traced.median_round_ns());
        rep.set("bench.untraced_ns", u);
        rep.set("bench.trace_overhead", ratio(t, u));
        traced.first.report(rep, t);
        let quarter: Vec<(&str, &Compiled)> = programs.iter().map(|(n, c)| (*n, c)).collect();
        let full = prepare_paper(rep, SWEEP_FULL_SCALE);
        sweeps(rep, &quarter, &full);
    } else {
        report_setup(rep, &setup.times, &prepare_median);
        let round_ns = untraced.median_round_ns();
        rep.set(
            "run_msteps_per_s",
            ratio(untraced.round_steps() as f64 * 1e3, round_ns),
        );
        rep.set("requests_per_s", ratio(cells.len() as f64 * 1e9, round_ns));
    }

    // One audited run per cell, untimed.
    for (p, config, cfg) in &cells {
        let (name, c) = &programs[*p];
        let r = run_audited(c, cfg);
        let clean = matches!(r.outcome, Outcome::Exit(_)) && matches!(r.audit, Some(Ok(())));
        rep.check(clean, || {
            format!(
                "{name}/{config}: audited run {:?} audit {:?}",
                r.outcome, r.audit
            )
        });
    }
}

// ------------------------------------------------------------------ serve

fn serve_requests(args: &Args, rep: &mut Report, rec: &mut Recorder) {
    let src = serve::source(args.seed, SERVE_REGIONS);
    let mut setup = Setup::new(|rep: &mut Report, prepare_ns: &mut Vec<f64>| {
        prepare_timed(rep, &[&src], prepare_ns).pop().flatten()
    });
    let Some(program) = setup.run(rep) else {
        return;
    };
    let expected = serve::model(args.seed, SERVE_REGIONS);
    let rc = RunConfig::rc_inf();

    // Whole runs until the budget is spent (at least one): the median
    // run's wall time and the first run's work counts.
    let runs =
        |rep: &mut Report, mut rec: Option<&mut Recorder>, between: &mut dyn FnMut(&mut Report)| {
            let (mut times, mut first) = (Vec::new(), None);
            let mut steps;
            let start = Instant::now();
            loop {
                let (r, t) = match rec.as_deref_mut() {
                    Some(rec) => rec.time(0, "interp", None, || timed_run(&program, &rc)),
                    None => timed_run(&program, &rc),
                };
                check_serve(rep, &r, expected);
                rep.tick();
                between(rep);
                times.push(t);
                steps = r.steps;
                first.get_or_insert_with(|| {
                    let mut counts = RunCounts::default();
                    counts.add(&r);
                    counts
                });
                if start.elapsed().as_secs_f64() >= main_budget(args) {
                    return (median(&times), steps, first.unwrap_or_default());
                }
            }
        };
    let (untraced_ns, steps, _) = runs(rep, None, &mut |rep| setup.between(rep));
    setup.finish(rep);
    let prepare_median = median_per_source(&setup.prepare_ns, 1);
    if args.trace {
        let mut counts = FrontCounts::default();
        if let Err(e) = prepare_all_traced(rep, rec, std::slice::from_ref(&src), &mut counts) {
            rep.check(false, || e);
        }
        report_layer_sum(rep, rec, prepare_median[0]);
        report_front_end(rep, rec, counts);
        let (traced_ns, _, first) = runs(rep, Some(rec), &mut |_| {});
        rep.set("bench.untraced_ns", untraced_ns);
        rep.set("bench.trace_overhead", ratio(traced_ns, untraced_ns));
        first.report(rep, traced_ns);
        let quarter_src = serve::source(args.seed, SERVE_REGIONS / 4);
        let quarter = prepare(&quarter_src);
        rep.check(quarter.is_ok(), || {
            "quarter-length serve does not compile".to_string()
        });
        if let Ok(quarter) = quarter {
            let progs = [SweepProgram {
                name: "serve".to_string(),
                full: &program,
                quarter: &quarter,
            }];
            config_sweep(rep, &progs, SWEEP_REPS);
            sink_sweep(rep, &progs, SWEEP_REPS);
            region_sweep(
                rep,
                &progs,
                SWEEP_REPS,
                Some(&[(untraced_ns, expected.regions)]),
            );
        }
    } else {
        report_setup(rep, &setup.times, &prepare_median);
        rep.set(
            "requests_per_s",
            ratio(expected.requests as f64 * 1e9, untraced_ns),
        );
        rep.set("run_msteps_per_s", ratio(steps as f64 * 1e3, untraced_ns));
    }
}

/// Checks a `serve` run against the independent model.
fn check_serve(rep: &mut Report, r: &RunResult, expected: serve::Expected) {
    rep.check(r.outcome == Outcome::Exit(expected.exit), || {
        format!(
            "serve: ended in {:?}, model says Exit({})",
            r.outcome, expected.exit
        )
    });
    let s = &r.stats;
    rep.check(
        s.regions_created == expected.regions && s.regions_deleted == expected.regions,
        || {
            format!(
                "serve: {} regions created, {} deleted, model says {}",
                s.regions_created, s.regions_deleted, expected.regions
            )
        },
    );
}
