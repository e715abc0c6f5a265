//! Regeneration of the paper's tables and figures.
//!
//! One [`Evaluation`] compiles each workload once and runs it once under
//! every distinct Figure 7/8 configuration; each table and figure is a
//! function of it that assembles rows mirroring the paper's evaluation
//! section. Absolute numbers are virtual-clock instruction counts (the
//! substrate is an interpreter, not a 2001 SPARC), so the meaningful
//! comparisons — who wins, relative overheads, crossovers — are reported
//! as ratios and percentages alongside the paper's own values.
//!
//! Rows serialize through the dependency-free [`Json`] writer (the build
//! environment is offline, so no serde): every row type implements
//! [`Row`], from which both the aligned text tables and the JSON dumps
//! are derived.

use std::collections::BTreeMap;

use rc_lang::interp::{run, Compiled, RunResult};
use rc_lang::RunConfig;
use rc_workloads::driver::prepare_workload;
use rc_workloads::{paper, Scale, Workload};
use region_rt::{Json, SpanTree, Tracer};

use crate::trajectory::{BENCH_SAMPLE_CAP, BENCH_SAMPLE_INTERVAL};

/// The evaluation's cells, in run order: Figure 7's configurations, then
/// Figure 8's check regimes but `inf`, which is Figure 7's `RC`
/// configuration and reads its run ([`WorkloadRuns::run`]).
fn configs() -> Vec<(&'static str, RunConfig)> {
    let mut cfgs = RunConfig::figure7();
    cfgs.extend(RunConfig::figure8().into_iter().filter(|(n, _)| *n != "inf"));
    cfgs
}

/// One workload, compiled once, with its run under every cell.
#[derive(Debug)]
pub struct WorkloadRuns {
    /// The benchmark.
    pub workload: Workload,
    /// Its RC source at the evaluation's scale.
    pub source: String,
    /// The compiled source every run executes.
    pub compiled: Compiled,
    /// `(cell, run)` pairs: Figure 7's five configurations, then `nq`,
    /// `qs` and `nc`.
    pub runs: Vec<(&'static str, RunResult)>,
}

impl WorkloadRuns {
    /// The run behind a Figure 7 or Figure 8 column.
    pub fn run(&self, column: &str) -> &RunResult {
        let cell = if column == "inf" { "RC" } else { column };
        &self.runs.iter().find(|(name, _)| *name == cell).expect("every column has a cell").1
    }
}

/// The paper's evaluation at one scale: the one producer of the Figure
/// 7/8 cells that every table, figure and the trajectory read.
#[derive(Debug)]
pub struct Evaluation {
    /// Workload scale.
    pub scale: Scale,
    /// One entry per workload, in the order given.
    pub workloads: Vec<WorkloadRuns>,
}

impl Evaluation {
    /// Evaluates all eight workloads.
    pub fn collect(scale: Scale) -> Evaluation {
        Evaluation::collect_for(scale, &rc_workloads::all())
    }

    /// Compiles each workload once and runs it under every cell, sampled
    /// at [`BENCH_SAMPLE_INTERVAL`]. Sampling changes
    /// nothing a table reads, so the tables and the trajectory share
    /// these runs.
    ///
    /// # Panics
    ///
    /// Panics if a workload does not compile or a run does not exit.
    pub fn collect_for(scale: Scale, workloads: &[Workload]) -> Evaluation {
        let workloads = workloads.iter().map(|w| {
            let compiled = prepare_workload(w, scale);
            let runs = configs()
                .into_iter()
                .map(|(name, cfg)| {
                    let cfg = cfg.with_sampling(BENCH_SAMPLE_INTERVAL, BENCH_SAMPLE_CAP);
                    let r = run(&compiled, &cfg);
                    assert!(r.outcome.is_exit(), "{}/{name}: did not exit: {:?}", w.name, r.outcome);
                    (name, r)
                })
                .collect();
            WorkloadRuns { workload: w.clone(), source: (w.source)(scale), compiled, runs }
        });
        Evaluation { scale, workloads: workloads.collect() }
    }
}

/// A table row rendered as ordered `(column, value)` pairs; the single
/// source for both the text tables and the JSON export.
pub trait Row {
    /// The row's columns, in display order.
    fn fields(&self) -> Vec<(&'static str, Json)>;
}

/// Serializes rows as a JSON array of objects.
pub fn rows_json<T: Row>(rows: &[T]) -> Json {
    Json::A(rows.iter().map(|r| Json::obj(r.fields())).collect())
}

fn opt_f(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::F)
}

fn map_u(m: &BTreeMap<String, u64>) -> Json {
    Json::O(m.iter().map(|(k, &v)| (k.clone(), Json::U(v))).collect())
}

fn map_f(m: &BTreeMap<String, f64>) -> Json {
    Json::O(m.iter().map(|(k, &v)| (k.clone(), Json::F(v))).collect())
}

/// Table 1: benchmark characteristics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Lines in our miniature RC source.
    pub lines: usize,
    /// Objects allocated during the run.
    pub allocs: u64,
    /// Total memory allocated (kB).
    pub mem_alloc_kb: u64,
    /// Peak memory in use (kB).
    pub max_use_kb: u64,
    /// The original program's Table 1 row, for scale comparison.
    pub paper_lines: u32,
    /// Paper: number of allocations.
    pub paper_allocs: u64,
}

impl Row for Table1Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("lines", Json::U(self.lines as u64)),
            ("allocs", Json::U(self.allocs)),
            ("mem_alloc_kb", Json::U(self.mem_alloc_kb)),
            ("max_use_kb", Json::U(self.max_use_kb)),
            ("paper_lines", Json::U(self.paper_lines as u64)),
            ("paper_allocs", Json::U(self.paper_allocs)),
        ]
    }
}

/// Generates Table 1.
pub fn table1(eval: &Evaluation) -> Vec<Table1Row> {
    eval.workloads
        .iter()
        .map(|w| {
            let r = w.run("RC");
            let p = paper::row(w.workload.name).expect("paper row exists");
            Table1Row {
                name: w.workload.name.to_string(),
                lines: w.source.lines().filter(|l| !l.trim().is_empty()).count(),
                allocs: r.stats.objects_allocated,
                mem_alloc_kb: r.stats.words_allocated * 8 / 1024,
                max_use_kb: r.stats.peak_live_words * 8 / 1024,
                paper_lines: p.lines,
                paper_allocs: p.allocs,
            }
        })
        .collect()
}

/// Table 2: reference-counting overhead.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// RC: reference-count work (count updates + local pins) as % of
    /// total execution time, under the qs regime (annotations used, as in
    /// the paper's Table 2).
    pub rc_overhead_pct: f64,
    /// C@: same, under the C@ configuration.
    pub cat_overhead_pct: f64,
    /// Region unscan as % of total execution time (RC).
    pub unscan_pct: f64,
    /// Paper's RC overhead %, where reported.
    pub paper_rc_pct: Option<f64>,
    /// Paper's C@ overhead %, where reported.
    pub paper_cat_pct: Option<f64>,
}

impl Row for Table2Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("rc_overhead_pct", Json::F(self.rc_overhead_pct)),
            ("cat_overhead_pct", Json::F(self.cat_overhead_pct)),
            ("unscan_pct", Json::F(self.unscan_pct)),
            ("paper_rc_pct", opt_f(self.paper_rc_pct)),
            ("paper_cat_pct", opt_f(self.paper_cat_pct)),
        ]
    }
}

/// Generates Table 2.
pub fn table2(eval: &Evaluation) -> Vec<Table2Row> {
    eval.workloads
        .iter()
        .map(|w| {
            let rc = w.run("qs");
            let cat = w.run("C@");
            let p = paper::row(w.workload.name).expect("paper row exists");
            let pct = |part: u64, whole: u64| {
                if whole == 0 { 0.0 } else { 100.0 * part as f64 / whole as f64 }
            };
            Table2Row {
                name: w.workload.name.to_string(),
                rc_overhead_pct: pct(rc.stats.rc_cycles, rc.cycles),
                cat_overhead_pct: pct(cat.stats.rc_cycles, cat.cycles),
                unscan_pct: pct(rc.stats.unscan_cycles, rc.cycles),
                paper_rc_pct: p.rc_overhead_pct,
                paper_cat_pct: p.cat_overhead_pct,
            }
        })
        .collect()
}

/// Table 3: annotation statistics and static verification rates.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Annotation keywords in the source.
    pub keywords: usize,
    /// Annotated assignment sites.
    pub sites: usize,
    /// Sites the inference proved safe.
    pub safe_sites: usize,
    /// % of annotated sites proven safe.
    pub safe_pct: f64,
    /// Paper's % safe.
    pub paper_safe_pct: f64,
    /// Paper's keyword count.
    pub paper_keywords: u32,
}

impl Row for Table3Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("keywords", Json::U(self.keywords as u64)),
            ("sites", Json::U(self.sites as u64)),
            ("safe_sites", Json::U(self.safe_sites as u64)),
            ("safe_pct", Json::F(self.safe_pct)),
            ("paper_safe_pct", Json::F(self.paper_safe_pct)),
            ("paper_keywords", Json::U(self.paper_keywords as u64)),
        ]
    }
}

/// Generates Table 3.
pub fn table3(eval: &Evaluation) -> Vec<Table3Row> {
    eval.workloads
        .iter()
        .map(|w| {
            let p = paper::row(w.workload.name).expect("paper row exists");
            let sites = w.compiled.analysis.site_count();
            let safe_sites = w.compiled.analysis.safe_count();
            Table3Row {
                name: w.workload.name.to_string(),
                keywords: count_keywords(&w.source),
                sites,
                safe_sites,
                safe_pct: if sites == 0 { 0.0 } else { 100.0 * safe_sites as f64 / sites as f64 },
                paper_safe_pct: p.safe_assign_pct,
                paper_keywords: p.keywords,
            }
        })
        .collect()
}

/// Annotation keywords in a source: `sameregion` + `parentptr` +
/// `traditional`, excluding the `traditionalregion()` builtin.
fn count_keywords(src: &str) -> usize {
    ["sameregion", "parentptr", "traditional"]
        .iter()
        .map(|kw| {
            // `traditional` must not match `traditionalregion`.
            src.match_indices(kw).filter(|(i, _)| !src[i + kw.len()..].starts_with("region")).count()
        })
        .sum()
}

/// Figure 7: execution time per benchmark under the five configurations.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: String,
    /// Virtual cycles per configuration (C@, lea, GC, norc, RC).
    pub cycles: BTreeMap<String, u64>,
    /// Time relative to "lea" (the malloc/free baseline), per config.
    pub rel_to_lea: BTreeMap<String, f64>,
}

impl Row for Fig7Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("cycles", map_u(&self.cycles)),
            ("rel_to_lea", map_f(&self.rel_to_lea)),
        ]
    }
}

/// Generates Figure 7.
pub fn fig7(eval: &Evaluation) -> Vec<Fig7Row> {
    eval.workloads
        .iter()
        .map(|w| {
            let cycles: BTreeMap<String, u64> = RunConfig::figure7()
                .into_iter()
                .map(|(name, _)| (name.to_string(), w.run(name).cycles))
                .collect();
            let lea = cycles["lea"] as f64;
            let rel_to_lea = cycles
                .iter()
                .map(|(k, &v)| (k.clone(), v as f64 / lea))
                .collect();
            Fig7Row { name: w.workload.name.to_string(), cycles, rel_to_lea }
        })
        .collect()
}

/// Figure 8: execution time under nq / qs / inf / nc.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: String,
    /// Virtual cycles per check regime.
    pub cycles: BTreeMap<String, u64>,
    /// Reference-counting + check overhead as % of execution time, per
    /// regime (the quantity behind "27% instead of 11%").
    pub overhead_pct: BTreeMap<String, f64>,
}

impl Row for Fig8Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("cycles", map_u(&self.cycles)),
            ("overhead_pct", map_f(&self.overhead_pct)),
        ]
    }
}

/// Generates Figure 8.
pub fn fig8(eval: &Evaluation) -> Vec<Fig8Row> {
    eval.workloads
        .iter()
        .map(|w| {
            let mut cycles = BTreeMap::new();
            let mut overhead = BTreeMap::new();
            for (name, _) in RunConfig::figure8() {
                let r = w.run(name);
                cycles.insert(name.to_string(), r.cycles);
                let dynamic =
                    r.stats.rc_cycles + r.stats.check_cycles + r.stats.unscan_cycles;
                overhead.insert(
                    name.to_string(),
                    if r.cycles == 0 { 0.0 } else { 100.0 * dynamic as f64 / r.cycles as f64 },
                );
            }
            Fig8Row { name: w.workload.name.to_string(), cycles, overhead_pct: overhead }
        })
        .collect()
}

/// Figure 9: runtime pointer-assignment categories.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: String,
    /// % of heap pointer assignments with no runtime work (statically
    /// safe).
    pub safe_pct: f64,
    /// % that executed an annotation check.
    pub checked_pct: f64,
    /// % that did reference-count work.
    pub counted_pct: f64,
    /// Local pointer assignments (excluded from the percentages, as in
    /// the paper).
    pub local_assigns: u64,
    /// Total heap pointer assignments.
    pub heap_assigns: u64,
}

impl Row for Fig9Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("safe_pct", Json::F(self.safe_pct)),
            ("checked_pct", Json::F(self.checked_pct)),
            ("counted_pct", Json::F(self.counted_pct)),
            ("local_assigns", Json::U(self.local_assigns)),
            ("heap_assigns", Json::U(self.heap_assigns)),
        ]
    }
}

/// Generates Figure 9 (measured under the RC "inf" configuration, like
/// the paper).
pub fn fig9(eval: &Evaluation) -> Vec<Fig9Row> {
    use region_rt::AssignCategory;
    eval.workloads
        .iter()
        .map(|w| {
            let r = w.run("RC");
            Fig9Row {
                name: w.workload.name.to_string(),
                safe_pct: r.stats.assign_pct(AssignCategory::Safe),
                checked_pct: r.stats.assign_pct(AssignCategory::Checked),
                counted_pct: r.stats.assign_pct(AssignCategory::Counted),
                local_assigns: r.stats.assigns_local,
                heap_assigns: r.stats.heap_assigns(),
            }
        })
        .collect()
}

// ---- telemetry ---------------------------------------------------------

/// One workload's telemetry summary (traced run under the qs regime, so
/// the annotation checks actually execute and attribute to sites).
#[derive(Debug, Clone)]
pub struct TelemetryRow {
    /// Benchmark name.
    pub name: String,
    /// Annotation checks executed.
    pub checks: u64,
    /// Reference-count updates (full + early-exit).
    pub rc_updates: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Regions created.
    pub regions: u64,
    /// Top check sites as `name:line` → check count, hottest first.
    pub top_check_sites: Vec<(String, u64)>,
}

impl Row for TelemetryRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("checks", Json::U(self.checks)),
            ("rc_updates", Json::U(self.rc_updates)),
            ("allocs", Json::U(self.allocs)),
            ("regions", Json::U(self.regions)),
            (
                "top_check_sites",
                Json::O(
                    self.top_check_sites
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U(*v)))
                        .collect(),
                ),
            ),
        ]
    }
}

/// Everything the telemetry pass produces: the per-workload summary rows,
/// the raw tracers and span trees (for JSONL export), and a region
/// flamegraph of the nested-region demo.
#[derive(Debug)]
pub struct TelemetryReport {
    /// One summary row per workload.
    pub rows: Vec<TelemetryRow>,
    /// `(workload, tracer, spans)` per traced run: the ring of recent raw
    /// events plus the exact folded profile, and the span tree its
    /// region rows read.
    pub tracers: Vec<(String, Box<Tracer>, Box<SpanTree>)>,
    /// Text flamegraph of [`NESTED_DEMO`]'s subregion hierarchy.
    pub flamegraph: String,
}

impl TelemetryReport {
    /// All raw events as JSON Lines, each tagged with its workload.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, t, _) in &self.tracers {
            out.push_str(&t.events_jsonl(name));
        }
        out
    }

    /// All folded profiles as JSON Lines (one profile object per run).
    pub fn profiles_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, t, spans) in &self.tracers {
            out.push_str(&t.profile().to_json(name, spans).render());
            out.push('\n');
        }
        out
    }
}

/// A small nested-region program whose flamegraph shows three levels of
/// subregions under the root.
pub const NESTED_DEMO: &str = "\
struct t { int x; };
int main() deletes {
    region outer = newregion();
    region mid = newsubregion(outer);
    region inner = newsubregion(mid);
    struct t *a = ralloc(outer, struct t);
    struct t *b = ralloc(mid, struct t);
    struct t *c = ralloc(inner, struct t);
    c->x = 1; b->x = 2; a->x = 3;
    a = null; b = null; c = null;
    deleteregion(inner);
    deleteregion(mid);
    deleteregion(outer);
    return 0;
}
";

/// Runs the telemetry pass: every evaluated workload once more under qs
/// with full event tracing, plus the nested-region demo for the flamegraph.
pub fn telemetry(eval: &Evaluation) -> TelemetryReport {
    let cfg = RunConfig::rc(rc_lang::CheckMode::Qs).traced();
    let mut rows = Vec::new();
    let mut tracers = Vec::new();
    for WorkloadRuns { workload: w, compiled, .. } in &eval.workloads {
        let r = run(compiled, &cfg);
        assert!(r.outcome.is_exit(), "{}/qs traced: did not exit cleanly: {:?}", w.name, r.outcome);
        let (t, spans) = (r.tracer.expect("tracing was enabled"), r.spans.expect("traced"));
        let p = t.profile();
        let top_check_sites = p
            .hot_check_sites(5)
            .iter()
            .map(|s| (format!("{}:{}", w.name, s.line), s.checks_total()))
            .collect();
        rows.push(TelemetryRow {
            name: w.name.to_string(),
            checks: p.totals.checks_total(),
            rc_updates: p.totals.rc_updates_total(),
            allocs: p.totals.allocs,
            regions: p.totals.regions_created,
            top_check_sites,
        });
        tracers.push((w.name.to_string(), t, spans));
    }

    let demo = rc_lang::interp::prepare(NESTED_DEMO).expect("demo compiles");
    let r = run(&demo, &RunConfig::rc_inf().traced());
    assert!(r.outcome.is_exit(), "nested demo must exit: {:?}", r.outcome);
    let flamegraph = r.spans.expect("traced").flamegraph();

    TelemetryReport { rows, tracers, flamegraph }
}

// ---- rendering ---------------------------------------------------------

/// Formats a sequence of rows as an aligned text table.
pub fn text_table<T: Row>(rows: &[T]) -> String {
    let Some(first) = rows.first() else { return String::new() };
    let headers: Vec<&'static str> = first.fields().into_iter().map(|(k, _)| k).collect();
    fn fmt_val(v: &Json) -> String {
        match v {
            Json::Null => "-".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::U(n) => n.to_string(),
            Json::I(n) => n.to_string(),
            Json::F(f) => format!("{f:.1}"),
            Json::S(s) => s.clone(),
            Json::A(items) => {
                items.iter().map(fmt_val).collect::<Vec<_>>().join(" ")
            }
            Json::O(fields) => fields
                .iter()
                .map(|(k, v)| format!("{k}={}", fmt_val(v)))
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
    let mut grid: Vec<Vec<String>> = vec![headers.iter().map(|h| h.to_string()).collect()];
    for r in rows {
        grid.push(r.fields().iter().map(|(_, v)| fmt_val(v)).collect());
    }
    let widths: Vec<usize> = (0..headers.len())
        .map(|i| grid.iter().map(|row| row[i].len()).max().unwrap_or(0))
        .collect();
    grid.iter()
        .map(|row| {
            row.iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_formats() {
        struct R {
            name: String,
            x: u64,
        }
        impl Row for R {
            fn fields(&self) -> Vec<(&'static str, Json)> {
                vec![("name", Json::s(&*self.name)), ("x", Json::U(self.x))]
            }
        }
        let t = text_table(&[
            R { name: "aa".into(), x: 1 },
            R { name: "b".into(), x: 123 },
        ]);
        assert!(t.contains("name"));
        assert!(t.contains("123"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn evaluation_cells_are_the_tables_runs() {
        let eval = Evaluation::collect(Scale::TINY);
        // Sampling is invisible to the tables: every cell matches a plain
        // unsampled run of the same compiled program in all the tables
        // read, so the trajectory can share the tables' runs. Only
        // `samples_dropped`, which no table or trajectory field reads, may
        // differ.
        for w in &eval.workloads {
            for ((name, sampled), (_, cfg)) in w.runs.iter().zip(configs()) {
                let plain = run(&w.compiled, &cfg);
                let cell = format!("{}/{name}", w.workload.name);
                assert_eq!(sampled.outcome, plain.outcome, "{cell}: outcome");
                assert_eq!(sampled.cycles, plain.cycles, "{cell}: cycles");
                assert_eq!(sampled.steps, plain.steps, "{cell}: steps");
                let mut stats = sampled.stats.clone();
                stats.samples_dropped = 0;
                assert_eq!(stats, plain.stats, "{cell}: stats");
            }
        }
        // `inf` and `RC` are one run.
        for (r7, r8) in fig7(&eval).iter().zip(fig8(&eval)) {
            assert_eq!(r8.cycles["inf"], r7.cycles["RC"], "{}", r8.name);
        }
    }

    #[test]
    fn keyword_counter_ignores_traditionalregion() {
        let src = "struct t *traditional x; region r = traditionalregion(); struct t *sameregion y;";
        assert_eq!(count_keywords(src), 2);
    }

    #[test]
    fn rows_render_as_json() {
        let row = Table1Row {
            name: "lcc".into(),
            lines: 10,
            allocs: 5,
            mem_alloc_kb: 1,
            max_use_kb: 1,
            paper_lines: 12_430,
            paper_allocs: 671_103,
        };
        let json = rows_json(&[row]).render();
        assert!(json.starts_with('['));
        assert!(json.contains(r#""name":"lcc""#));
        assert!(json.contains(r#""allocs":5"#));
    }
}
