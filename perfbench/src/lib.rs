//! The repository benchmark's testable parts: seeded inputs, the load
//! generator, order statistics and the span recorder. The workloads
//! themselves live in the binary (`src/bin/perfbench/`); see `README.md`.

pub mod loadgen;
pub mod mix;
pub mod rng;
pub mod stats;
pub mod trace;
