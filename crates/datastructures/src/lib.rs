//! Workload data structures for the Puddles reproduction.
//!
//! Every workload in the paper's evaluation (§5) is implemented here, once
//! per PM library being compared, on top of the same substrate:
//!
//! * [`list`] — singly linked list (Fig. 9) for Puddles, PMDK-sim and
//!   Romulus-sim;
//! * [`btree`] — order-8 B-tree (Fig. 10) for Puddles and PMDK-sim;
//! * [`kv`] — the `simplekv` hash-map KV store driven by YCSB (Fig. 11) for
//!   Puddles, PMDK-sim and Romulus-sim;
//! * [`fatptr`] — the fat-pointer-vs-native-pointer microbenchmark
//!   structures (Fig. 1);
//! * [`euler`] — the embarrassingly parallel Euler-identity array workload
//!   (Fig. 12);
//! * [`sensor`] — the sensor-network data-aggregation workload (Fig. 13/14).
//!
//! Simplifications relative to the paper are documented per module (e.g.
//! list deletion removes the head rather than the tail so the operation
//! stays O(1) on a singly linked list, and B-tree deletion does not
//! rebalance).

pub mod btree;
pub mod euler;
pub mod fatptr;
pub mod kv;
pub mod list;
pub mod sensor;
