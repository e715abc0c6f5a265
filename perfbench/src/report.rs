//! The result line: checks counted against attempts, and every metric of
//! the catalog by name and unit.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::{calibration_chunk_ns, median};

/// Calibration-chunk time (ns) of the reference machine speed that time
/// metrics are scaled to: about what the chunk takes on an otherwise idle
/// 2.1 GHz Xeon vCPU.
pub const CALIBRATION_REFERENCE_NS: f64 = 4_000_000.0;

/// Seconds between calibration chunks during a run.
const CALIBRATION_EVERY_S: f64 = 1.0;

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("prepare_ms_p50", "ms"),
    ("prepare_ms_p90", "ms"),
    ("run_msteps_per_s", "Msteps/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced pass (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lexer.ns_p50", "ns"),
    ("lexer.tokens_per_s", "tokens/s"),
    ("parser.ns_p50", "ns"),
    ("sema.ns_p50", "ns"),
    ("to_rlang.ns_p50", "ns"),
    ("to_rlang.stmts", "count"),
    ("infer.ns_p50", "ns"),
    ("infer.ns_p90", "ns"),
    ("infer.share", "ratio"),
    ("prepare.ns_sum", "ns"),
    ("infer.sites", "count"),
    ("infer.safe_sites", "count"),
    ("infer.safe_ratio", "ratio"),
    ("liveness.ns_p50", "ns"),
    ("liveness.pins", "count"),
    ("interp.ns", "ns"),
    ("interp.steps", "count"),
    ("interp.vcycles", "vcycles"),
    ("interp.msteps_per_s", "Msteps/s"),
    ("interp.msteps_per_s.cat", "Msteps/s"),
    ("interp.msteps_per_s.lea", "Msteps/s"),
    ("interp.msteps_per_s.gc", "Msteps/s"),
    ("interp.msteps_per_s.norc", "Msteps/s"),
    ("interp.msteps_per_s.rc", "Msteps/s"),
    ("interp.msteps_per_s.nq", "Msteps/s"),
    ("interp.msteps_per_s.qs", "Msteps/s"),
    ("interp.msteps_per_s.nc", "Msteps/s"),
    ("heap.regions_created", "count"),
    ("heap.objects_allocated", "count"),
    ("heap.words_allocated", "words"),
    ("heap.peak_live_words", "words"),
    ("rcops.rc_updates", "count"),
    ("rcops.checks", "count"),
    ("rcops.assigns_safe", "count"),
    ("rcops.assigns_checked", "count"),
    ("rcops.assigns_counted", "count"),
    ("gc.collections", "count"),
    ("gc.marked_words", "words"),
    ("malloc.calls", "count"),
    ("rcops.rc_cycles", "vcycles"),
    ("rcops.check_cycles", "vcycles"),
    ("alloc.alloc_cycles", "vcycles"),
    ("gc.gc_cycles", "vcycles"),
    ("heap.unscan_cycles", "vcycles"),
    ("heap.ns_per_region", "ns"),
    ("heap.ns_per_region_quarter", "ns"),
    ("heap.ns_per_region_growth", "ratio"),
    ("heap.rc_over_lea", "ratio"),
    ("heap.lea_ns", "ns"),
    ("telemetry.off_ns", "ns"),
    ("span.overhead", "ratio"),
    ("trace.overhead", "ratio"),
    ("timeline.overhead", "ratio"),
    ("checkcount.overhead", "ratio"),
    ("snapshot.overhead", "ratio"),
    ("telemetry.all_overhead", "ratio"),
    ("timeline.samples_dropped", "count"),
    ("bench.untraced_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
    ("bench.layer_sum_ratio", "ratio"),
    ("env.calibration_ns", "ns"),
    ("env.nproc", "count"),
];

/// Checks and metrics gathered by one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// One line per failed check, printed to standard error.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// Calibration-chunk times sampled through the run, in ns.
    calibration_ns: Vec<f64>,
    last_calibration: Option<Instant>,
}

impl Report {
    /// Counts one checked output; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a metric of either catalog.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither catalog (a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .find(|&n| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.metrics.insert(key, value);
    }

    /// Samples the machine's speed with one calibration chunk if
    /// [`CALIBRATION_EVERY_S`] has passed since the last one. Called
    /// between timed operations, never inside one.
    pub fn tick(&mut self) {
        if self
            .last_calibration
            .is_none_or(|t| t.elapsed().as_secs_f64() >= CALIBRATION_EVERY_S)
        {
            self.calibration_ns.push(calibration_chunk_ns());
            self.last_calibration = Some(Instant::now());
        }
    }

    /// Median calibration-chunk time of the run, in ns.
    pub fn calibration_ns(&self) -> f64 {
        median(&self.calibration_ns)
    }

    /// Scales every time and rate metric recorded so far to the reference
    /// machine speed ([`CALIBRATION_REFERENCE_NS`]): times are divided, and
    /// rates multiplied, by the run's median calibration time over the
    /// reference. On a shared two-vCPU virtual machine (2.1 GHz Xeon) the
    /// speed of the same code changed by up to 1.5x over tens of minutes,
    /// and the calibration loop followed the change (correlation 0.97 to
    /// 0.98 with `prepare` and interpreter times over 15-second windows).
    pub fn normalise(&mut self) {
        let factor = self.calibration_ns() / CALIBRATION_REFERENCE_NS;
        if !(factor.is_finite() && factor > 0.0) {
            return;
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.metrics.get_mut(name) {
                match unit {
                    "s" | "ms" | "ns" => *v /= factor,
                    "Msteps/s" | "1/s" | "tokens/s" => *v *= factor,
                    _ => {}
                }
            }
        }
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The result line: every metric of `catalog` with its unit. A
    /// metric the run did not produce, or produced as a non-finite
    /// number, counts as a failed output and prints as 0.
    pub fn render(&mut self, catalog: &[(&str, &str)]) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in catalog {
            let value = self.metrics.get(name).copied().filter(|v| v.is_finite());
            self.check(value.is_some(), || {
                format!("metric {name} was not measured")
            });
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}
