//! One benchmark for the whole SquatPhi system.
//!
//! Six named workloads, each a closed loop with one caller calling the
//! program's public functions at `threads = 2`; end-to-end metrics with
//! regression bounds from untraced runs; per-layer metrics from a
//! separate traced run, measured from outside by timing calls into each
//! layer and reading public result fields. `README.md` explains the
//! workloads and metrics; `../BENCHMARK.json` is the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod json;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod tracer;
pub mod workloads;
