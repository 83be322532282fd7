//! Benchmark for `lisa gate` and `lisa serve` over the regression
//! corpus. See `README.md` beside this crate for the workloads, the
//! metrics and the layer each per-layer metric belongs to.

pub mod bench;
pub mod calib;
pub mod fixture;
pub mod gates;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;
