//! `romulus-sim`: a clean-room, simplified Romulus-style baseline.
//!
//! Romulus (SPAA'18) keeps **two replicas** of the persistent heap — *main*
//! and *back* — plus a **volatile redo log** of the offsets modified by the
//! current transaction. Transactions write main in place (no PM logging on
//! the critical path), flush the modified lines, flip a persistent state
//! flag, and then copy the modified ranges into back. Recovery picks
//! whichever replica is consistent. The performance consequence the paper's
//! Fig. 9–11 show is that Romulus avoids PM log writes (its log is in DRAM)
//! at the cost of writing every update twice.
//!
//! This reproduction keeps the same structure: a pool file holding
//! `[header | main | back]`, a DRAM redo list, the two-phase commit, and
//! recovery on open. The allocator's state (root offset, bump pointer and
//! exact-size free lists) heads the main region, so commit, abort and
//! recovery cover it like any other data.

pub mod pool;

pub use pool::{Result, RomulusError, RomulusPool, RomulusTx};
