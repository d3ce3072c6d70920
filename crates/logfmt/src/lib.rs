//! Puddles crash-consistency log format (paper §4.1, Figures 5–7).
//!
//! The Puddles system makes recovery *application independent* by making the
//! crash-consistency log a structured, self-describing format that a
//! privileged daemon can replay safely after a crash without the writer
//! application being present. The format has three layers:
//!
//! * **Log space** ([`logspace`]) — a directory puddle listing every log
//!   puddle a client has registered; the daemon only ever replays logs that
//!   were registered through this directory.
//! * **Log** ([`log::LogRef`]) — a sequence of log entries plus metadata: a
//!   *sequence range* controlling which entries are live, head/tail
//!   pointers, and capacity. A log that outgrows its puddle is continued in
//!   further puddles ([`log::LogWriter::extend`], Fig. 5's `chain_index`);
//!   the head segment's range governs replay of the whole chain
//!   ([`replay::replay_chain`]).
//! * **Log entry** ([`entry::LogEntryHeader`]) — checksum, target virtual
//!   address, size, *sequence number*, replay *order* (forward for redo,
//!   reverse for undo) and *kind* (undo / redo / volatile), followed by the
//!   payload bytes.
//!
//! Entry validity is `checksum matches ∧ gen == log.gen ∧ seq ∈
//! (range.lo, range.hi)` (exclusive bounds), which lets commit atomically
//! switch between the hybrid-logging stages of Fig. 7 by publishing a
//! single new range: `(0,2)` replays only undo entries, `(2,4)` only redo
//! entries, `(4,4)` replays nothing. Because validity never depends on a
//! durable head pointer, the append cursor lives in DRAM
//! ([`log::LogWriter`]) and a steady-state append costs one unfenced
//! flush.
//!
//! [`replay`] implements the stage-aware replay used by the library when a
//! transaction aborts and by `puddled` during recovery: one verified scan
//! that collects the live entries ([`replay::collect_live`]), then the
//! apply. Commit applies its redo entries from the writer's own extents
//! ([`log::LogWriter::written`]) without re-verifying them.

pub mod entry;
pub mod log;
pub mod logspace;
pub mod replay;

pub use entry::{EntryKind, LogEntryHeader, ReplayOrder};
pub use log::{chain_iter, segment_payload_capacity, LogEntries, LogRef, LogWriter, SeqRange};
pub use logspace::{LogSpaceEntry, LogSpaceRef};
pub use replay::{
    collect_live, replay_chain, replay_log, BufferTarget, DirectMemoryTarget, LiveEntries,
    ReplayStats, ReplayTarget,
};

/// Sequence number assigned to undo entries in the hybrid-logging scheme.
pub const SEQ_UNDO: u32 = 1;
/// Sequence number assigned to redo entries in the hybrid-logging scheme.
pub const SEQ_REDO: u32 = 3;

/// Sequence range while the transaction body executes (replay undo only).
pub const RANGE_EXEC: SeqRange = SeqRange { lo: 0, hi: 2 };
/// Sequence range after undo locations are flushed (replay redo only).
pub const RANGE_REDO: SeqRange = SeqRange { lo: 2, hi: 4 };
/// Sequence range once the transaction is complete (replay nothing).
pub const RANGE_DONE: SeqRange = SeqRange { lo: 4, hi: 4 };
