//! Expected outputs, kept independent of the code under test: Table 3's
//! static columns copied by hand from EXPERIMENTS.md, and the virtual
//! steps and cycles recorded in the repository's committed baseline.

use std::collections::BTreeMap;

use region_rt::Json;

/// `(workload, annotated sites, sites proven safe)`, from EXPERIMENTS.md
/// Table 3.
pub const TABLE3: &[(&str, usize, usize)] = &[
    ("cfrac", 8, 5),
    ("grobner", 8, 6),
    ("mudlle", 18, 13),
    ("lcc", 6, 2),
    ("moss", 11, 10),
    ("tile", 7, 6),
    ("rc", 4, 1),
    ("apache", 5, 2),
];

/// The committed virtual-clock baseline (scale 1).
pub const BASELINE_JSON: &str = include_str!("../../baselines/BENCH_baseline.json");

/// Expected `(steps, cycles)` per `(workload, config)` at one scale.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// The workload scale the baseline was recorded at.
    pub scale: u32,
    /// `(workload, config display name)` → `(steps, cycles)`.
    pub runs: BTreeMap<(String, String), (u64, u64)>,
}

impl Baseline {
    /// Parses an `rc-bench-trajectory/v1` document.
    ///
    /// # Errors
    ///
    /// Describes the first malformed part of the document.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let scale = doc
            .get("scale")
            .and_then(Json::as_u64)
            .ok_or("baseline: no scale")?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("baseline: no runs")?;
        let mut out = Baseline {
            scale: scale as u32,
            runs: BTreeMap::new(),
        };
        for r in runs {
            let field = |k: &str| r.get(k).ok_or_else(|| format!("baseline run without {k}"));
            let workload = field("workload")?.as_str().ok_or("baseline: workload")?;
            let config = field("config")?.as_str().ok_or("baseline: config")?;
            let steps = field("steps")?.as_u64().ok_or("baseline: steps")?;
            let cycles = field("cycles")?.as_u64().ok_or("baseline: cycles")?;
            out.runs
                .insert((workload.to_string(), config.to_string()), (steps, cycles));
        }
        Ok(out)
    }

    /// The expected `(steps, cycles)` of a cell, if the baseline records
    /// it at `scale`.
    pub fn expect(&self, workload: &str, config: &str, scale: u32) -> Option<(u64, u64)> {
        if scale != self.scale {
            return None;
        }
        self.runs
            .get(&(workload.to_string(), config.to_string()))
            .copied()
    }
}
