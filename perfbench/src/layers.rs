//! Calls into each layer's public functions: the traced `prepare`, timed
//! interpreter runs, and the sweeps of the traced pass over run
//! configurations, telemetry sinks and run length.

use std::time::Instant;

use rc_lang::interp::{run, Compiled, Outcome, RunResult};
use rc_lang::{lexer, liveness, parser, sema, to_rlang, CheckMode, CompileError, RunConfig};
use rlang::program::Stmt;

use crate::report::Report;
use crate::spans::Recorder;
use crate::util::{median, ns_since, ratio};

/// Sizes of the intermediate results of one traced `prepare`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontCounts {
    /// Tokens produced by the lexer.
    pub tokens: u64,
    /// rlang statements produced by the translation.
    pub stmts: u64,
    /// Check sites the inference judged.
    pub sites: u64,
    /// Check sites the inference proved safe.
    pub safe_sites: u64,
    /// Locals pinned across all pin sites.
    pub pins: u64,
}

impl FrontCounts {
    fn add(&mut self, o: FrontCounts) {
        self.tokens += o.tokens;
        self.stmts += o.stmts;
        self.sites += o.sites;
        self.safe_sites += o.safe_sites;
        self.pins += o.pins;
    }
}

fn rlang_stmts(s: &Stmt) -> u64 {
    match s {
        Stmt::Seq(v) => v.iter().map(rlang_stmts).sum(),
        Stmt::If { then_s, else_s, .. } => 1 + rlang_stmts(then_s) + rlang_stmts(else_s),
        Stmt::While { body, .. } => 1 + rlang_stmts(body),
        _ => 1,
    }
}

/// `rc_lang::prepare`, one layer call at a time, each inside a span under
/// one `prepare` span. The lexer runs once on its own so that its time is
/// known; `parser::parse` lexes again internally (see
/// [`Recorder::self_ns`]).
///
/// # Errors
///
/// Returns the first compile error, as `prepare` would.
pub fn prepare_traced(
    rec: &mut Recorder,
    program: u32,
    src: &str,
) -> Result<(Compiled, FrontCounts), CompileError> {
    let root = rec.open(program, "prepare", None);
    let tokens = rec
        .time(program, "lex", Some(root), || lexer::lex(src))?
        .len() as u64;
    let ast = rec.time(program, "parse", Some(root), || parser::parse(src))?;
    let module = rec.time(program, "sema", Some(root), || sema::check(&ast))?;
    let prog = rec.time(program, "to_rlang", Some(root), || {
        to_rlang::translate(&module)
    });
    let analysis = rec.time(program, "infer", Some(root), || {
        rlang::infer::analyse(&prog)
    });
    let pins: Vec<_> = rec.time(program, "liveness", Some(root), || {
        module.funcs.iter().map(liveness::pin_sets).collect()
    });
    rec.close(root);
    let counts = FrontCounts {
        tokens,
        stmts: prog.funcs.iter().map(|f| rlang_stmts(&f.body)).sum(),
        sites: analysis.site_count() as u64,
        safe_sites: analysis.safe_count() as u64,
        // Pin-site indices are dense per function and `pins` answers an
        // empty set past the last one, so the token count bounds the scan.
        pins: pins
            .iter()
            .map(|p| {
                (0..tokens as u32)
                    .map(|i| p.pins(i).len() as u64)
                    .sum::<u64>()
            })
            .sum(),
    };
    Ok((
        Compiled {
            module,
            analysis,
            pins,
        },
        counts,
    ))
}

/// Front-end metrics from the `prepare` spans recorded so far.
pub fn report_front_end(rep: &mut Report, rec: &Recorder, counts: FrontCounts) {
    let layer = |name| rec.layer_self_ns(name);
    let lex = layer("lex");
    let infer = layer("infer");
    let prepare_ns: f64 = rec
        .spans
        .iter()
        .filter(|s| s.name == "prepare")
        .map(|s| s.ns() as f64)
        .sum();
    rep.set("lexer.ns_p50", median(&lex));
    rep.set(
        "lexer.tokens_per_s",
        ratio(counts.tokens as f64, lex.iter().sum::<f64>() / 1e9),
    );
    rep.set("parser.ns_p50", median(&layer("parse")));
    rep.set("sema.ns_p50", median(&layer("sema")));
    rep.set("to_rlang.ns_p50", median(&layer("to_rlang")));
    rep.set("to_rlang.stmts", counts.stmts as f64);
    rep.set("infer.ns_p50", median(&infer));
    rep.set("infer.ns_p90", crate::util::quantile(&infer, 0.9));
    rep.set("infer.share", ratio(infer.iter().sum(), prepare_ns));
    rep.set("prepare.ns_sum", prepare_ns);
    rep.set("infer.sites", counts.sites as f64);
    rep.set("infer.safe_sites", counts.safe_sites as f64);
    rep.set(
        "infer.safe_ratio",
        ratio(counts.safe_sites as f64, counts.sites as f64),
    );
    rep.set("liveness.ns_p50", median(&layer("liveness")));
    rep.set("liveness.pins", counts.pins as f64);
}

/// Traced prepares of a list of sources (program ids are their indices),
/// summing their counts.
///
/// # Errors
///
/// Returns the first compile error with the source's index.
pub fn prepare_all_traced(
    rep: &mut Report,
    rec: &mut Recorder,
    sources: &[String],
    counts: &mut FrontCounts,
) -> Result<Vec<Compiled>, String> {
    sources
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let (c, n) = prepare_traced(rec, i as u32, src)
                .map_err(|e| format!("source {i} does not compile: {e}"))?;
            counts.add(n);
            rep.tick();
            Ok(c)
        })
        .collect()
}

/// One interpreter run and its wall time in ns.
pub fn timed_run(c: &Compiled, cfg: &RunConfig) -> (RunResult, f64) {
    let t = Instant::now();
    let r = run(c, cfg);
    let ns = ns_since(t);
    (r, ns)
}

/// Counts a run's outcome as one checked output.
pub fn check_exit(rep: &mut Report, r: &RunResult, what: &str) -> bool {
    let ok = matches!(r.outcome, Outcome::Exit(_));
    rep.check(ok, || format!("{what}: ended in {:?}", r.outcome));
    ok
}

/// The eight configurations of Figures 7 and 8: baseline display name,
/// metric suffix and configuration.
pub fn paper_configs() -> Vec<(&'static str, &'static str, RunConfig)> {
    vec![
        ("C@", "cat", RunConfig::cat()),
        ("lea", "lea", RunConfig::lea()),
        ("GC", "gc", RunConfig::gc()),
        ("norc", "norc", RunConfig::norc()),
        ("RC", "rc", RunConfig::rc_inf()),
        ("nq", "nq", RunConfig::rc(CheckMode::Nq)),
        ("qs", "qs", RunConfig::rc(CheckMode::Qs)),
        ("nc", "nc", RunConfig::rc(CheckMode::Nc)),
    ]
}

/// `nq` with exactly the named telemetry sinks on.
///
/// Check counting is documented to be observationally `nq` whatever the
/// check regime, but with it on under `qs` or `inf` the `apache` workload
/// aborts with `DeleteWithLiveRefs`. So every sink is measured under
/// `nq`, the regime all of the repository's check-counting callers use.
pub fn nq_with(sinks: &[&str]) -> RunConfig {
    let mut cfg = RunConfig::rc(CheckMode::Nq);
    for &s in sinks {
        cfg = match s {
            "span" => cfg.with_spans(),
            "trace" => cfg.traced(),
            "timeline" => cfg.sampled(),
            "checkcount" => cfg.counting_checks(),
            "snapshot" => cfg.with_snapshots(),
            other => panic!("unknown sink {other}"),
        };
    }
    cfg
}

/// Every telemetry sink.
pub const SINKS: [&str; 5] = ["span", "trace", "timeline", "checkcount", "snapshot"];

/// Work counts of the runtime layers, summed over runs.
#[derive(Debug, Clone, Default)]
pub struct RunCounts {
    /// Interpreter steps.
    pub steps: u64,
    /// Virtual cycles.
    pub cycles: u64,
    /// The runs' `Stats`, summed (`Stats::merge`).
    pub stats: region_rt::Stats,
}

impl RunCounts {
    /// Adds one run.
    pub fn add(&mut self, r: &RunResult) {
        self.steps += r.steps;
        self.cycles += r.cycles;
        self.stats = self.stats.merge(&r.stats);
    }

    /// Interpreter and runtime work-count metrics; `ns` is the wall time
    /// the counted runs took.
    pub fn report(&self, rep: &mut Report, ns: f64) {
        let s = &self.stats;
        rep.set("interp.ns", ns);
        rep.set("interp.steps", self.steps as f64);
        rep.set("interp.vcycles", self.cycles as f64);
        rep.set("interp.msteps_per_s", ratio(self.steps as f64 * 1e3, ns));
        for (name, v) in [
            ("heap.regions_created", s.regions_created),
            ("heap.objects_allocated", s.objects_allocated),
            ("heap.words_allocated", s.words_allocated),
            ("heap.peak_live_words", s.peak_live_words),
            ("rcops.rc_updates", s.rc_updates_full + s.rc_updates_same),
            (
                "rcops.checks",
                s.checks_sameregion + s.checks_traditional + s.checks_parentptr,
            ),
            ("rcops.assigns_safe", s.assigns_safe),
            ("rcops.assigns_checked", s.assigns_checked),
            ("rcops.assigns_counted", s.assigns_counted),
            ("gc.collections", s.gc_collections),
            ("gc.marked_words", s.gc_marked_words),
            ("malloc.calls", s.malloc_calls),
            ("rcops.rc_cycles", s.rc_cycles),
            ("rcops.check_cycles", s.check_cycles),
            ("alloc.alloc_cycles", s.alloc_cycles),
            ("gc.gc_cycles", s.gc_cycles),
            ("heap.unscan_cycles", s.unscan_cycles),
            ("timeline.samples_dropped", s.samples_dropped),
        ] {
            rep.set(name, v as f64);
        }
    }
}

/// A program the sweeps run at two lengths; `quarter` does about a quarter
/// of `full`'s work.
pub struct SweepProgram<'a> {
    /// Name for failure messages.
    pub name: String,
    /// The full-length program.
    pub full: &'a Compiled,
    /// The quarter-length program.
    pub quarter: &'a Compiled,
}

/// Median wall ns of `reps` runs of `c` under `cfg`, the last run's
/// result, and a check of every run's outcome.
fn median_run(
    rep: &mut Report,
    c: &Compiled,
    cfg: &RunConfig,
    reps: usize,
    what: &str,
) -> (f64, RunResult) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (r, ns) = timed_run(c, cfg);
        check_exit(rep, &r, what);
        rep.tick();
        times.push(ns);
        last = Some(r);
    }
    (median(&times), last.expect("at least one run"))
}

/// Msteps/s of each paper configuration on the quarter-length programs.
pub fn config_sweep(rep: &mut Report, progs: &[SweepProgram], reps: usize) {
    for (display, suffix, cfg) in paper_configs() {
        let (mut steps, mut ns) = (0u64, 0.0);
        for p in progs {
            let (t, r) = median_run(rep, p.quarter, &cfg, reps, &format!("{}/{display}", p.name));
            steps += r.steps;
            ns += t;
        }
        rep.set(
            &format!("interp.msteps_per_s.{suffix}"),
            ratio(steps as f64 * 1e3, ns),
        );
    }
}

/// Wall time with each telemetry sink on, and with all of them, over the
/// same `nq` runs with every sink off.
pub fn sink_sweep(rep: &mut Report, progs: &[SweepProgram], reps: usize) {
    let total = |rep: &mut Report, sinks: &[&str]| -> f64 {
        let cfg = nq_with(sinks);
        progs
            .iter()
            .map(|p| {
                median_run(
                    rep,
                    p.quarter,
                    &cfg,
                    reps,
                    &format!("{}/nq+{sinks:?}", p.name),
                )
                .0
            })
            .sum()
    };
    let off = total(rep, &[]);
    rep.set("telemetry.off_ns", off);
    for (sink, metric) in [
        ("span", "span.overhead"),
        ("trace", "trace.overhead"),
        ("timeline", "timeline.overhead"),
        ("checkcount", "checkcount.overhead"),
        ("snapshot", "snapshot.overhead"),
    ] {
        let on = total(rep, &[sink]);
        rep.set(metric, ratio(on, off));
    }
    let all = total(rep, &SINKS);
    rep.set("telemetry.all_overhead", ratio(all, off));
}

/// Region-table cost: wall ns per region created under `RC` at full and
/// quarter length, and the full-length program's `RC` time over `lea`.
/// `full_rc` supplies an already measured full-length `RC` run per program
/// as `(wall ns, regions created)`, so that a long program is not rerun.
pub fn region_sweep(
    rep: &mut Report,
    progs: &[SweepProgram],
    reps: usize,
    full_rc: Option<&[(f64, u64)]>,
) {
    let rc = RunConfig::rc_inf();
    let (mut full_ns, mut full_regions, mut q_ns, mut q_regions, mut lea_ns) =
        (0.0, 0u64, 0.0, 0u64, 0.0);
    for (i, p) in progs.iter().enumerate() {
        let (t, regions) = match full_rc {
            Some(known) => known[i],
            None => {
                let (t, r) = median_run(rep, p.full, &rc, reps, &format!("{}/RC full", p.name));
                (t, r.stats.regions_created)
            }
        };
        full_ns += t;
        full_regions += regions;
        let (t, r) = median_run(rep, p.quarter, &rc, reps, &format!("{}/RC quarter", p.name));
        q_ns += t;
        q_regions += r.stats.regions_created;
        lea_ns += median_run(
            rep,
            p.full,
            &RunConfig::lea(),
            reps,
            &format!("{}/lea full", p.name),
        )
        .0;
    }
    let per_full = ratio(full_ns, full_regions as f64);
    let per_quarter = ratio(q_ns, q_regions as f64);
    rep.set("heap.ns_per_region", per_full);
    rep.set("heap.ns_per_region_quarter", per_quarter);
    rep.set("heap.ns_per_region_growth", ratio(per_full, per_quarter));
    rep.set("heap.rc_over_lea", ratio(full_ns, lea_ns));
    rep.set("heap.lea_ns", lea_ns);
}
