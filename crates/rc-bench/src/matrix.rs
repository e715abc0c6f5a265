//! The shared shape of the gated robustness matrices.
//!
//! The fault, recovery and parallel matrices each sweep workloads against
//! a configuration axis and gate every cell on a contract. What differs
//! between them is the cell — its fields, its JSON and its contract —
//! and that stays in each module. What they share lives here:
//!
//! - [`Report`], the envelope: schema string, header fields, `passed`,
//!   the violations and the cells, rendered as byte-deterministic
//!   pretty JSON, plus the human summary with its `<gate>: PASS`/`FAIL`
//!   footer;
//! - `catch_cell`, which turns a panicking cell into a `panicked`
//!   violation so the rest of the matrix still runs;
//! - [`main`], the binaries' common tail: print the summary, write
//!   `--out`, exit 0 (pass), 1 (violation) or 2 (I/O error).

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use region_rt::Json;

use crate::schema::Schema;

/// One cell type of a gated matrix.
pub trait Cell: Sized {
    /// The gate's name in the summary footer (`<GATE>: PASS`).
    const GATE: &'static str;

    /// Encodes the cell as one JSON object.
    fn to_json(&self) -> Json;

    /// The summary's opening lines: counts over every cell.
    fn headline(cells: &[Self]) -> String;
}

/// A matrix report: every cell plus the contract violations.
#[derive(Debug, Clone)]
pub struct Report<C> {
    /// The schema stamped into the JSON.
    pub schema: Schema,
    /// Header fields written between the schema and `passed`, in order
    /// (`scale`, plus `seed` where every cell shares one).
    pub header: Vec<(&'static str, u64)>,
    /// All cells, in sweep order.
    pub runs: Vec<C>,
    /// Contract violations (empty = the gate passes).
    pub violations: Vec<String>,
}

impl<C: Cell> Report<C> {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Encodes the report, schema string first. Cells carry virtual-clock
    /// numbers only, so the encoding is byte-deterministic.
    pub fn to_json(&self) -> Json {
        let violations = self.violations.iter().map(|v| Json::s(&**v)).collect();
        let mut fields = vec![("schema", Json::s(self.schema.id()))];
        fields.extend(self.header.iter().map(|&(k, v)| (k, Json::U(v))));
        fields.push(("passed", Json::Bool(self.passed())));
        fields.push(("violations", Json::A(violations)));
        fields.push(("runs", Json::A(self.runs.iter().map(C::to_json).collect())));
        Json::obj(fields)
    }

    /// Renders the report as pretty-printed JSON (the `*_rc.json`
    /// format).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// A short human summary: the cell type's headline, then the gate
    /// verdict and any violations.
    pub fn summary(&self) -> String {
        let mut out = C::headline(&self.runs);
        if self.passed() {
            let _ = writeln!(out, "{}: PASS", C::GATE);
        } else {
            let _ = writeln!(out, "{}: FAIL ({} violations)", C::GATE, self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        out
    }
}

/// Runs one cell, turning a panic into a `"{key}: panicked: …"`
/// violation and `None`. The runners re-raise interpreter-thread panics
/// on the calling thread, so the catch observes them all.
pub(crate) fn catch_cell<T>(
    key: &str,
    violations: &mut Vec<String>,
    cell: impl FnOnce() -> T,
) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(cell)) {
        Ok(t) => Some(t),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            violations.push(format!("{key}: panicked: {msg}"));
            None
        }
    }
}

/// The matrix binaries' common tail: prints the summary, writes the
/// report to `out` when given, and exits 0 when the gate passes, 1 on a
/// violation, 2 when the report cannot be written.
pub fn main<C: Cell>(name: &str, report: &Report<C>, out: Option<&str>) -> ExitCode {
    print!("{}", report.summary());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, report.render()) {
            eprintln!("{name}: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe(u64);

    impl Cell for Probe {
        const GATE: &'static str = "probe gate";

        fn to_json(&self) -> Json {
            Json::obj(vec![("n", Json::U(self.0))])
        }

        fn headline(cells: &[Self]) -> String {
            format!("probe: {} cells\n", cells.len())
        }
    }

    fn report(violations: Vec<String>) -> Report<Probe> {
        Report {
            schema: Schema::FaultMatrix,
            header: vec![("scale", 1), ("seed", 9)],
            runs: vec![Probe(3)],
            violations,
        }
    }

    #[test]
    fn passing_report_encodes_header_in_order() {
        let rep = report(Vec::new());
        let json = rep.render();
        let at = |k: &str| json.find(&format!("\"{k}\"")).unwrap_or_else(|| panic!("{k}: {json}"));
        assert!(at("schema") < at("scale") && at("scale") < at("seed"), "{json}");
        assert!(at("seed") < at("passed") && at("passed") < at("violations"), "{json}");
        assert!(at("violations") < at("runs"), "{json}");
        assert!(json.contains("\"passed\": true"), "{json}");
        assert!(json.ends_with("}\n"));
        assert_eq!(rep.summary(), "probe: 1 cells\nprobe gate: PASS\n");
        assert_eq!(main("probe", &rep, None), ExitCode::SUCCESS);
    }

    #[test]
    fn failing_report_lists_its_violation_and_exits_nonzero() {
        let rep = report(vec!["w/s/c: heap audit failed".to_string()]);
        let json = rep.render();
        assert!(json.contains("\"passed\": false"), "{json}");
        assert!(json.contains("\"w/s/c: heap audit failed\""), "{json}");
        let summary = rep.summary();
        assert!(summary.contains("probe gate: FAIL (1 violations)"), "{summary}");
        assert!(summary.contains("  - w/s/c: heap audit failed"), "{summary}");
        assert_eq!(main("probe", &rep, None), ExitCode::from(1));
        // A path under a regular file can never be created.
        assert_eq!(main("probe", &rep, Some("Cargo.toml/r.json")), ExitCode::from(2));
    }

    #[test]
    fn a_panicking_cell_becomes_a_violation() {
        let mut violations = Vec::new();
        assert_eq!(catch_cell("a/b", &mut violations, || 7), Some(7));
        let caught = catch_cell("c/d", &mut violations, || -> u32 { panic!("boom {}", 1) });
        assert_eq!(caught, None);
        assert_eq!(violations, vec!["c/d: panicked: boom 1".to_string()]);
    }
}
