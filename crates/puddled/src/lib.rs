//! `puddled`: the Puddles privileged daemon.
//!
//! The daemon is the system component that makes Puddles' guarantees
//! *system-level* properties rather than application responsibilities
//! (§3.2):
//!
//! * it owns every puddle file on the machine and enforces UNIX-like access
//!   control ([`acl`]);
//! * it allocates puddles and assigns them addresses in the machine-wide
//!   global puddle space ([`gspace`], [`registry`]);
//! * it records client log spaces and pointer maps, and replays
//!   crash-consistency logs *before any application maps the data*
//!   ([`recovery`]);
//! * it exports and imports pools, tracking the pointer-rewrite frontier for
//!   relocated data ([`importexport`]).
//!
//! The daemon can run in-process (library mode, used by tests and
//! benchmarks: [`Daemon::endpoint`]) or as a stand-alone process serving a
//! UNIX-domain socket ([`uds::UdsServer`], the `puddled` binary).

pub mod acl;
pub mod alloc;
pub mod gspace;
pub mod importexport;
pub mod invariants;
pub mod layout;
pub mod recovery;
pub mod registry;
pub mod service;
pub mod uds;
pub mod wal;

pub use alloc::{AllocStats, SpaceAlloc};
pub use gspace::GlobalSpace;
pub use invariants::Invariants;
pub use layout::{PuddleHeader, LOG_REGION_OFFSET, PUDDLE_HEADER_SIZE, PUDDLE_MAGIC};
pub use service::{Daemon, DaemonConfig, LocalEndpoint};
pub use uds::{ServerConfig, UdsServer, DEFAULT_MAX_CONNECTIONS, MAX_PIPELINED_REQUESTS};
pub use wal::{RegistryOp, Wal, WalHandle, WalStats};
