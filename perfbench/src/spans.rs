//! Spans recorded by the traced pass, from outside the program: one span
//! around every call into a layer's public function.
//!
//! Spans stay in memory until the run ends, then go to a JSON-lines file.
//! A span's self time is its duration minus the durations of its
//! children; the layer calls under one `prepare` span run one after the
//! other, so children never overlap.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Program the call worked on; all spans of one program share it.
    pub program: u32,
    /// Layer name (`prepare`, `lex`, `parse`, `sema`, `to_rlang`, `infer`,
    /// `liveness`, `interp`).
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the call in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, program: u32, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            program,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        program: u32,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(program, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    ///
    /// `rc_lang::parser::parse` lexes its input itself, so the parser's
    /// self time also excludes the `lex` span recorded for the same
    /// program just before it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        let mut last_lex: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
            match s.name {
                "lex" => {
                    last_lex.insert(s.program, s.ns());
                }
                "parse" => {
                    let lex = last_lex.get(&s.program).copied().unwrap_or(0);
                    own[i] = own[i].saturating_sub(lex);
                }
                _ => {}
            }
        }
        own
    }

    /// Self times of the spans named `name`.
    pub fn layer_self_ns(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Writes the spans as JSON lines, one span per line with its index,
    /// parent index and self time.
    ///
    /// # Errors
    ///
    /// Returns any error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"program\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.program, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
