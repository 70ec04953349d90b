//! The repository's benchmark: three workloads that each load one layer
//! of the compile → simulate → serve stack, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run. See `README.md`
//! beside this crate.

pub mod check;
pub mod exec;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
