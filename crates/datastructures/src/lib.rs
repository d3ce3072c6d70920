//! Workload data structures for the Puddles reproduction.
//!
//! Every workload in the paper's evaluation (§5) is implemented here. The
//! three that compare PM libraries are each written once, over the
//! [`heap::PmHeap`] trait, and monomorphised for Puddles, PMDK-sim and
//! Romulus-sim, so a figure's rows differ in how the library represents a
//! pointer and makes a store failure-atomic, and in nothing else:
//!
//! * [`list`] — singly linked list (Fig. 9);
//! * [`btree`] — order-8 B-tree (Fig. 10);
//! * [`kv`] — the `simplekv` hash-map KV store driven by YCSB (Fig. 11).
//!
//! The rest stand apart, outside the trait:
//!
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
pub mod heap;
pub mod kv;
pub mod list;
pub mod sensor;
