//! Wall-clock benchmark of the RC toolchain.
//!
//! Four workloads (`compile`, `run`, `serve`, `telemetry`) time calls
//! into the layers' public functions from outside: the front end, rlang
//! inference, pin sets and the interpreter. An untraced pass gives the
//! end-to-end metrics; a traced pass records a span around every layer
//! call and gives the per-layer metrics. See README.md.

pub mod expect;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod util;
pub mod workloads;
