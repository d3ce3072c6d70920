//! `puddles`: the Puddles client library (`libpuddles` + `libtx`).
//!
//! Puddles is a persistent-memory programming system (EuroSys 2024) built
//! around three properties that existing PM libraries do not combine:
//!
//! * **Application-independent recovery** — crash-consistency logs are
//!   registered with the `puddled` daemon in a structured format, so the
//!   *system* replays them after a crash, before any application maps the
//!   data, even if the writer application is gone or lost its permissions.
//! * **Native pointers** — persistent data contains ordinary virtual
//!   addresses ([`PmPtr`]), so dereferences are single loads and non-PM-aware
//!   code can read the data.
//! * **Relocatability** — PM data is split into small, individually mappable
//!   *puddles* inside a machine-wide global address space; every allocation
//!   carries a type id and every type registers a pointer map, so puddles
//!   can be cloned, exported, imported and mapped at new addresses with
//!   incremental pointer rewriting.
//!
//! # Quick start
//!
//! ```
//! use puddled::{Daemon, DaemonConfig};
//! use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
//!
//! #[repr(C)]
//! struct Counter {
//!     value: u64,
//! }
//! impl_pm_type!(Counter, "doc::Counter", []);
//!
//! let dir = tempfile::tempdir().unwrap();
//! let daemon = Daemon::start(DaemonConfig::for_testing(dir.path())).unwrap();
//! let client = PuddleClient::connect_local(&daemon).unwrap();
//! let pool = client.create_pool("counters", PoolOptions::default()).unwrap();
//!
//! // Create the root object inside a failure-atomic transaction.
//! pool.tx(|tx| pool.create_root(tx, Counter { value: 0 })).unwrap();
//!
//! // Update it transactionally.
//! let root: PmPtr<Counter> = pool.root().unwrap();
//! pool.tx(|tx| {
//!     let counter = pool.deref_mut(root)?;
//!     tx.set(&mut counter.value, 41)?;
//!     tx.set(&mut counter.value, 42)?;
//!     Ok(())
//! })
//! .unwrap();
//! assert_eq!(pool.deref(root).unwrap().value, 42);
//! ```

pub mod alloc;
pub mod client;
pub mod error;
pub mod interval;
pub mod pool;
pub mod ptr;
pub mod puddle;
pub mod reloc;
pub mod torture;
pub mod transport;
pub mod tx;
pub mod types;

pub use alloc::{MetaLogger, NoLog, ObjRef, PuddleAlloc};
pub use client::{PuddleClient, LOGSPACE_PUDDLE_SIZE, LOG_PUDDLE_SIZE};
pub use error::{Error, Result};
pub use interval::IntervalSet;
pub use pool::{Pool, PoolOptions};
pub use ptr::PmPtr;
pub use puddle::MappedPuddle;
pub use reloc::{rewrite_puddle, RewriteStats};
pub use transport::{ClientMetrics, RetryPolicy};
pub use tx::Transaction;
pub use types::{PmType, TypeRegistry, UNTYPED_TYPE_ID};

// Re-exported so the `impl_pm_type!` macro can reference them from user
// crates without extra imports.
pub use puddles_proto;
