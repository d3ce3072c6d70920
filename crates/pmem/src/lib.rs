//! Persistent-memory substrate for the Puddles reproduction.
//!
//! The paper runs on Intel Optane DC-PMM exposed through a DAX filesystem;
//! this crate provides the equivalent substrate on commodity hardware:
//!
//! * [`space::VaReservation`] — a large reserved virtual-address range (the
//!   *global puddle space*) into which puddle files are mapped with
//!   `MAP_FIXED`, so persistent data keeps stable native-pointer addresses.
//! * [`pmdir::PmDir`] — the "DAX filesystem": a directory of fixed-size
//!   puddle files plus atomically-updated metadata files.
//! * [`persist`] — cache-line flush and store-fence primitives (`clwb` /
//!   `clflush` when available, portable fences otherwise).
//! * [`failpoint`] — named crash-injection points used by the transaction
//!   commit path, the allocator and the daemon to simulate power failures.
//! * [`faultio`] — the seeded fault-injection plane: short/torn writes,
//!   `EIO`/`ENOSPC`, dropped fsyncs, and connection resets, reproducible
//!   from one `TORTURE_SEED` and logged as a per-trial fault trace.
//! * [`shadow::ShadowBuffer`] — a working/durable twin buffer that models
//!   loss of unflushed cache lines for torn-write property tests.
//! * [`checksum`] — the log-entry checksum (four CRC32C lanes folded to 64
//!   bits: SSE4.2 `crc32` where the CPU has it, bit-identical tables where
//!   it does not) and FNV-1a for type ids and WAL records.
//! * [`clock`] — time as a value: a [`clock::Clock`] that is wall time in
//!   production and a seeded deterministic [`clock::VirtualClock`] under
//!   test, so a torture seed replays the same execution.
//! * [`obs`] — the observability plane: lock-free mergeable log-linear
//!   latency histograms and a structured trace ring, stamped by a
//!   [`clock::Clock`] so simulated runs produce deterministic timelines.

pub mod checksum;
pub mod clock;
pub mod error;
pub mod failpoint;
pub mod faultio;
pub mod obs;
pub mod persist;
pub mod pmdir;
pub mod shadow;
pub mod space;
pub mod util;

pub use error::{PmError, Result};

/// Size of a CPU cache line in bytes; flush granularity.
pub const CACHELINE: usize = 64;

/// Size of an OS page in bytes; puddles are multiples of this.
pub const PAGE_SIZE: usize = 4096;

/// Default size of the global puddle address space (1 TiB, reserved but not
/// committed), mirroring the paper's reservation (§3.4).
pub const DEFAULT_SPACE_SIZE: usize = 1 << 40;

/// Default base address hint for the global puddle space.
///
/// The paper fixes the range and disables ASLR for it; we *request* this
/// base and fall back to a kernel-chosen address (puddles are relocatable,
/// so a moved base only triggers pointer rewriting).
pub const DEFAULT_SPACE_BASE: usize = 0x5000_0000_0000;
