//! YCSB-style workload generator (Cooper et al., SoCC'10) used by the
//! paper's Fig. 11 KV-store evaluation.
//!
//! Provides the standard key-request distributions (zipfian, uniform,
//! latest) and the workload mixes A–F, plus the paper's additional workload
//! G, which the paper does not define; we model it as a write-heavy,
//! 100%-update mix.

pub mod generator;
pub mod workload;

pub use generator::{KeyGenerator, ZipfianGenerator};
pub use workload::{Operation, Request, Workload, WorkloadSpec};
