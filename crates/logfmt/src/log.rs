//! The log: a bounded sequence of log entries plus control metadata
//! (Fig. 6a).
//!
//! # Volatile-cursor design
//!
//! Validity of a log entry is decided entirely by `checksum matches ∧
//! gen == header.gen ∧ seq ∈ range`: readers ([`LogRef::iter`]) scan from
//! the first entry and stop at the first slot whose checksum or generation
//! does not verify. Because the scan never consults a durable head pointer,
//! the append cursor can live in DRAM ([`LogWriter`]), and a steady-state
//! append costs **one unfenced flush** of the entry's lines — no header
//! rewrite, no `sfence`. A payload of four whole cache lines or more is
//! streamed past the cache instead ([`persist::copy_flush`]): its whole
//! lines are written with non-temporal stores and only the entry's edge
//! lines are flushed, which is as durable at the next fence and costs a
//! fraction of a copy and a `clwb` per line. The single fence a
//! transaction needs is the one its commit already issues at each stage
//! boundary of Fig. 7: by the time the sequence range advances (a fenced
//! header write), every entry flushed or streamed before it is durable. A
//! crash before that fence leaves some durable prefix of the appended
//! entries, which is exactly what stage-aware replay needs.
//!
//! The persistent header holds what a reader needs and nothing else: the
//! magic, the sequence range and the generation (no head or tail pointer,
//! no entry count, no capacity). It is touched only by [`LogRef::init`],
//! [`LogWriter::start`] on an unarmed log (and [`LogWriter::extend`] on the
//! tail it chains), [`LogRef::set_seq_range`], and the write that ends a
//! transaction: [`LogWriter::finish`] or [`LogRef::reset`]. Its `gen` field
//! is bumped by each of these after `init`, `set_seq_range` excepted, so
//! entries left over from an earlier transaction — which can share offsets
//! and valid checksums with freshly appended ones — terminate the scan by
//! generation mismatch instead of being replayed. A steady-state
//! single-segment transaction writes the header once, when it ends:
//! `finish` leaves the log *armed* (already reading [`crate::RANGE_EXEC`]
//! under the next generation), and the next `start` finds nothing left to
//! write.
//!
//! # Checksum function and the magic number
//!
//! The entry checksum is [`puddles_pmem::checksum::crc32c64`]: hardware
//! CRC32C where the CPU has it, bit-identical tables where it does not, so
//! the scan verifies a megabyte of log in the time it takes to read it.
//! Each logged byte is checksummed once when appended and once when a
//! validity scan reads it back; the writer never re-verifies what it just
//! wrote ([`LogWriter::written`]).
//!
//! [`LOG_MAGIC`] names the log format: the header layout and the entry
//! format *including* the checksum function. It became `PUDDLOG3` when the
//! function changed from FNV-1a, and `PUDDLOG4` when the header shrank from
//! 56 to 24 bytes and the first entry moved from offset 56 to the next
//! cache line ([`LOG_ENTRIES_OFFSET`]), so that a log written by an older
//! build is never scanned at the wrong offset or with the wrong
//! function (every entry would fail to verify and a crashed transaction
//! would look like an empty log). **Upgrade rule: shut the daemon and its
//! clients down cleanly before upgrading**, so no log holds a live
//! transaction; a live log that still carries an older magic is refused by
//! recovery — the log space is invalidated and the log kept as evidence —
//! rather than skipped.

use crate::entry::{EntryKind, LogEntryHeader, ReplayOrder, ENTRY_ALIGN, ENTRY_HEADER_SIZE};
use puddles_pmem::failpoint;
use puddles_pmem::persist;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result};

/// Magic number identifying an initialized log area with a 24-byte header
/// whose entries carry [`crc32c64`](puddles_pmem::checksum::crc32c64)
/// checksums (see the module docs for the upgrade rule).
pub const LOG_MAGIC: u64 = 0x5055_4444_4c4f_4734; // "PUDDLOG4"

/// The sequence range of a log: entries whose sequence number lies strictly
/// between `lo` and `hi` are replayed after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqRange {
    /// Exclusive lower bound.
    pub lo: u32,
    /// Exclusive upper bound.
    pub hi: u32,
}

impl SeqRange {
    /// Returns `true` if entries with sequence number `seq` are live.
    pub fn contains(&self, seq: u32) -> bool {
        seq > self.lo && seq < self.hi
    }
}

/// On-PM header at the start of a log area: exactly what a reader needs
/// to decide which entries are live. Where the next entry goes is the
/// writer's DRAM state ([`LogWriter`]); how large the area is comes with
/// the view ([`LogRef::from_raw`]).
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct LogHeader {
    magic: u64,
    seq_lo: u32,
    seq_hi: u32,
    /// Current log generation; only entries carrying this value are valid.
    gen: u32,
    /// Always 0, so every byte of the header is written.
    _pad: u32,
}

/// Size of the log header in bytes.
pub const LOG_HEADER_SIZE: usize = std::mem::size_of::<LogHeader>();

/// Offset of the first entry: the cache line after the header's. Every
/// stage boundary rewrites the header's line and no entry shares it, so an
/// entry's lines are counted from a line boundary (a 96-byte entry spans
/// two lines, never three) and a header write flushes no entry's line.
pub const LOG_ENTRIES_OFFSET: usize = puddles_pmem::CACHELINE;
const _: () = assert!(LOG_HEADER_SIZE <= LOG_ENTRIES_OFFSET);

/// A view over a log area in (persistent) memory.
///
/// `LogRef` does not own the memory; it is created over a log puddle's heap
/// by `libtx`, or over a mapped log puddle by the daemon during recovery.
#[derive(Debug, Clone, Copy)]
pub struct LogRef {
    base: *mut u8,
    capacity: usize,
}

// SAFETY: `LogRef` is a typed pointer+length pair; the memory it points to
// is only mutated through `&mut`-free raw-pointer writes that the owners
// (one thread per log, or the daemon during single-threaded recovery)
// serialize externally.
unsafe impl Send for LogRef {}

impl LogRef {
    /// Creates a view over `capacity` bytes of log memory at `base`.
    ///
    /// # Safety
    ///
    /// `base` must be valid for reads and writes of `capacity` bytes for the
    /// lifetime of the returned value, and no other code may concurrently
    /// mutate the range.
    pub unsafe fn from_raw(base: *mut u8, capacity: usize) -> Self {
        assert!(capacity >= LOG_ENTRIES_OFFSET + ENTRY_HEADER_SIZE);
        LogRef { base, capacity }
    }

    fn header(&self) -> *mut LogHeader {
        self.base as *mut LogHeader
    }

    fn read_header(&self) -> LogHeader {
        // SAFETY: `base` is valid for `capacity >= LOG_HEADER_SIZE` bytes per
        // the `from_raw` contract; `LogHeader` is plain old data.
        unsafe { std::ptr::read_unaligned(self.header()) }
    }

    fn write_header(&self, hdr: LogHeader) {
        // SAFETY: as in `read_header`.
        unsafe { std::ptr::write_unaligned(self.header(), hdr) };
        persist::persist(self.base, LOG_HEADER_SIZE);
    }

    /// Initializes (or re-initializes) the log area, erasing prior contents.
    pub fn init(&self) {
        let hdr = LogHeader {
            magic: LOG_MAGIC,
            seq_lo: crate::RANGE_DONE.lo,
            seq_hi: crate::RANGE_DONE.hi,
            gen: 0,
            _pad: 0,
        };
        self.write_header(hdr);
    }

    /// Returns `true` if the area carries an initialized log.
    pub fn is_initialized(&self) -> bool {
        self.magic() == LOG_MAGIC
    }

    /// Returns the stored magic number: [`LOG_MAGIC`] for a log of this
    /// format, `0` for an area that never held a log, anything else for a
    /// log written in another format.
    pub fn magic(&self) -> u64 {
        self.read_header().magic
    }

    /// Returns the log capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the base address of the log area (for callers that cache the
    /// view as raw parts).
    pub fn base_addr(&self) -> usize {
        self.base as usize
    }

    /// Returns the current log generation.
    pub fn generation(&self) -> u32 {
        self.read_header().gen
    }

    /// Returns the current sequence range.
    pub fn seq_range(&self) -> SeqRange {
        let hdr = self.read_header();
        SeqRange {
            lo: hdr.seq_lo,
            hi: hdr.seq_hi,
        }
    }

    /// Atomically publishes a new sequence range and persists it.
    ///
    /// This is the single store that moves a committing transaction between
    /// the stages of Fig. 7. The generation is preserved: entries of the
    /// in-flight transaction stay valid across stage transitions.
    pub fn set_seq_range(&self, range: SeqRange) {
        let mut hdr = self.read_header();
        hdr.seq_lo = range.lo;
        hdr.seq_hi = range.hi;
        self.write_header(hdr);
    }

    /// Advances the generation in `hdr`, invalidating every existing entry
    /// for the scan.
    ///
    /// On the (once per 2^32 transactions) wraparound the entire entry area
    /// is erased: without this, an entry written 2^32 generations ago at a
    /// matching offset would carry the same generation as the new epoch and
    /// could be replayed by recovery (an ABA on the generation counter).
    /// The caller's `write_header` persists (fenced) after this, covering
    /// the erase flush.
    fn bump_gen(&self, hdr: &mut LogHeader) {
        hdr.gen = hdr.gen.wrapping_add(1);
        if hdr.gen == 0 {
            let len = self.capacity - LOG_ENTRIES_OFFSET;
            // SAFETY: `[base + LOG_ENTRIES_OFFSET, base + capacity)` lies inside
            // the area covered by the `from_raw` contract.
            unsafe {
                std::ptr::write_bytes(self.base.add(LOG_ENTRIES_OFFSET), 0, len);
                persist::flush(self.base.add(LOG_ENTRIES_OFFSET), len);
            }
        }
    }

    /// One fenced header write that ends whatever the log held and publishes
    /// `range` for what comes next: bumps the generation (invalidating every
    /// existing entry for the scan). Returns the new generation.
    fn restart(&self, range: SeqRange) -> u32 {
        let mut hdr = self.read_header();
        self.bump_gen(&mut hdr);
        hdr.seq_lo = range.lo;
        hdr.seq_hi = range.hi;
        self.write_header(hdr);
        hdr.gen
    }

    /// Resets the log: publishes [`crate::RANGE_DONE`] and bumps the
    /// generation (invalidating every existing entry for the scan).
    pub fn reset(&self) {
        self.restart(crate::RANGE_DONE);
    }

    /// Overwrites the stored generation without touching entries —
    /// test-only hook for exercising the wraparound path.
    #[cfg(test)]
    fn set_generation_for_test(&self, gen: u32) {
        let mut hdr = self.read_header();
        hdr.gen = gen;
        self.write_header(hdr);
    }

    /// Iterates over every structurally valid entry in append order,
    /// borrowing payloads directly from the log memory (zero-copy).
    ///
    /// Iteration stops at the first slot whose checksum does not verify or
    /// whose generation is not the log's current generation (its length
    /// field cannot be trusted, so later slots are unreachable), mirroring
    /// PMDK's behaviour for torn log tails. Entries are returned regardless
    /// of the current sequence range; callers filter with
    /// [`SeqRange::contains`].
    pub fn iter(&self) -> LogEntries<'_> {
        let hdr = self.read_header();
        let off = if hdr.magic == LOG_MAGIC {
            LOG_ENTRIES_OFFSET
        } else {
            // Uninitialized area: empty iteration.
            self.capacity
        };
        LogEntries {
            log: self,
            off,
            end: self.capacity,
            gen: Some(hdr.gen),
        }
    }
}

/// Borrowing iterator over a log's entries: the validity scan of
/// [`LogRef::iter`], or the writer's walk over what it appended itself
/// ([`LogWriter::written`]).
#[derive(Debug)]
pub struct LogEntries<'a> {
    log: &'a LogRef,
    off: usize,
    /// Entries lie in `[off, end)`.
    end: usize,
    /// The generation entries must carry, with a matching checksum; `None`
    /// trusts them (the writer's own extent).
    gen: Option<u32>,
}

impl<'a> Iterator for LogEntries<'a> {
    type Item = (LogEntryHeader, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.off + ENTRY_HEADER_SIZE > self.end {
            return None;
        }
        // SAFETY: `off + ENTRY_HEADER_SIZE <= end <= capacity` per the bound
        // above.
        let entry: LogEntryHeader = unsafe {
            std::ptr::read_unaligned(self.log.base.add(self.off) as *const LogEntryHeader)
        };
        let payload_len = entry.size as usize;
        if self.gen.is_some_and(|gen| entry.gen != gen)
            || self.off + ENTRY_HEADER_SIZE + payload_len > self.end
        {
            return None;
        }
        // SAFETY: bounds checked against `end <= capacity` just above; the
        // slice lives as long as the underlying mapping, which outlives
        // `'a` per the `from_raw` contract.
        let data = unsafe {
            std::slice::from_raw_parts(self.log.base.add(self.off + ENTRY_HEADER_SIZE), payload_len)
        };
        if self.gen.is_some() && !entry.verify(data) {
            return None;
        }
        self.off += ENTRY_HEADER_SIZE + align_up(payload_len, ENTRY_ALIGN);
        Some((entry, data))
    }
}

/// Largest payload appendable when the next free byte is at `head`.
fn payload_capacity(capacity: usize, head: usize) -> usize {
    capacity
        .saturating_sub(head)
        .saturating_sub(ENTRY_HEADER_SIZE)
        & !(ENTRY_ALIGN - 1)
}

/// Largest single payload an *empty* log area of `capacity` bytes can hold.
///
/// Callers deciding whether chaining another segment can satisfy an append
/// use this: an entry whose payload exceeds it can never fit in one segment
/// and must be rejected outright instead of growing the chain forever.
pub fn segment_payload_capacity(capacity: usize) -> usize {
    payload_capacity(capacity, LOG_ENTRIES_OFFSET)
}

/// Iterates over every structurally valid entry of a multi-segment log
/// chain in global append order: segment 0's entries first, then segment
/// 1's, and so on — exactly the order a chain-aware writer appended them.
///
/// Each segment's entries are validated against that segment's own
/// generation (the per-segment checksum/generation scan of
/// [`LogRef::iter`]); the *head* segment's sequence range governs which of
/// the yielded entries are live, so callers filter with the head's
/// [`SeqRange`], never a tail's.
pub fn chain_iter(segments: &[LogRef]) -> impl Iterator<Item = (LogEntryHeader, &[u8])> {
    segments.iter().flat_map(|seg| seg.iter())
}

/// The fast, fence-free append path: a chain of [`LogRef`] segments plus a
/// DRAM mirror of the append cursor.
///
/// A `LogWriter` serves one log for as long as its owner keeps it, one
/// transaction at a time: [`LogWriter::start`] opens a transaction (on an
/// unarmed log, one fenced header write that bumps the generation and
/// publishes [`crate::RANGE_EXEC`]); every [`LogWriter::append`] then
/// flushes or streams the entry's lines once, unfenced; the commit-stage
/// fences (already required by Fig. 7) make the appended entries durable
/// before any sequence-range transition that could replay them;
/// [`LogWriter::finish`] (commit) or [`LogWriter::reset`] (abort) ends it.
/// The segment vectors are cleared, not rebuilt, from one transaction to
/// the next.
///
/// # Armed reset
///
/// The fenced header write that ends a committed *single-segment*
/// transaction ([`LogWriter::finish`]) publishes [`crate::RANGE_EXEC`] with
/// the bumped generation instead of [`crate::RANGE_DONE`]: the idle log *is*
/// an empty executing transaction, so the next [`LogWriter::start`] writes
/// nothing — that write's fence already orders the header before any later
/// append, and entries of the finished transaction carry the previous
/// generation. Whether the log is armed is DRAM state of this writer, taken
/// (cleared) by `start` and set only after the fenced write of `finish`
/// returned; a writer that is new, was reset, or whose transaction never
/// reached `finish` (a crash, a panic) pays the fenced `start`. Recovery
/// reads an armed idle log as what it is: an `EXEC` head with no valid
/// entry, nothing to roll back.
///
/// **Chains never arm.** The head's range governs the whole chain, and the
/// tails are reset after the head. With an `EXEC` head, a crash between the
/// head reset and the tail resets would leave the tails' undo entries —
/// valid under the tails' own generations — live again, rolling back a
/// committed transaction. A chained transaction therefore ends in
/// `RANGE_DONE`, under which nothing is live whatever the tails hold.
///
/// # Multi-segment chains
///
/// A transaction that outgrows one log puddle *chains* additional segments
/// ([`LogWriter::extend`], Fig. 5's `chain_index`): when an append reports
/// [`PmError::LogFull`] the caller acquires a fresh log area, extends the
/// writer, and retries. Three properties keep the chain crash-consistent:
///
/// * **Head authority** — the head segment's sequence range governs replay
///   of the *entire* chain. Stage transitions ([`LogWriter::set_seq_range`])
///   and invalidation ([`LogWriter::reset`]) each remain one fenced header
///   write to the head, so commit atomicity is unchanged by chaining.
/// * **Per-segment validity** — each segment keeps its own generation;
///   entries are validated by the usual checksum + generation scan within
///   their segment, and [`chain_iter`] stitches the per-segment valid
///   prefixes in append order.
/// * **Boundary fences** — extending issues a fenced header write on the
///   new tail before any entry lands in it, so every unfenced flush into
///   earlier segments is durable first: a crash can never leave entries in
///   segment *k+1* durable while segment *k*'s are lost (no holes).
#[derive(Debug)]
pub struct LogWriter {
    /// Chain segments in order; `[0]` is the head, the last is active.
    segments: Vec<LogRef>,
    /// Final cursor of every segment before the active one (DRAM only).
    sealed: Vec<usize>,
    /// Next free byte within the active segment (DRAM only).
    head: usize,
    /// Entries appended since `begin`, across all segments (DRAM only).
    entries: u64,
    /// Of those, entries live under [`crate::RANGE_REDO`] (DRAM only).
    redo_entries: u64,
    /// Generation of the active segment, stamped into appended entries.
    gen: u32,
    /// What this writer knows of the head's persistent header.
    state: WriterState,
}

/// DRAM knowledge a [`LogWriter`] has of its head segment's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriterState {
    /// Nothing: the next `start` restarts the head (fenced).
    Unarmed,
    /// No transaction open, and the head already reads
    /// [`crate::RANGE_EXEC`] at `gen` with no entry of that generation: the
    /// next `start` has nothing to write.
    Armed,
    /// A transaction is open under [`crate::RANGE_EXEC`] at `gen`.
    Open,
}

impl LogWriter {
    /// A writer over `log` with no transaction open (unarmed: the first
    /// [`LogWriter::start`] pays the fenced header write). Touches no
    /// persistent memory.
    pub fn new(log: LogRef) -> LogWriter {
        LogWriter {
            segments: vec![log],
            sealed: Vec::new(),
            head: LOG_ENTRIES_OFFSET,
            entries: 0,
            redo_entries: 0,
            gen: 0,
            state: WriterState::Unarmed,
        }
    }

    /// A new writer with a transaction started on `log`.
    pub fn begin(log: LogRef) -> Result<LogWriter> {
        let mut writer = LogWriter::new(log);
        writer.start()?;
        Ok(writer)
    }

    /// Starts a transaction on the head: forgets whatever an unfinished
    /// predecessor left in DRAM, then, unless the log is armed, bumps the
    /// generation (orphaning every existing entry) and publishes
    /// [`crate::RANGE_EXEC`] in one fenced header write.
    pub fn start(&mut self) -> Result<()> {
        self.rewind();
        if self.state != WriterState::Armed {
            self.state = WriterState::Unarmed;
            self.gen = Self::begin_segment(self.segments[0])?;
        }
        self.state = WriterState::Open;
        Ok(())
    }

    /// Drops the tails from the chain and rewinds the DRAM cursor.
    fn rewind(&mut self) {
        self.segments.truncate(1);
        self.sealed.clear();
        self.head = LOG_ENTRIES_OFFSET;
        self.entries = 0;
        self.redo_entries = 0;
    }

    /// One fenced header write that (re)starts `log` for the current
    /// transaction: generation bump + [`crate::RANGE_EXEC`]. Returns the new
    /// generation.
    fn begin_segment(log: LogRef) -> Result<u32> {
        if !log.is_initialized() {
            return Err(PmError::Corruption("begin on uninitialized log".into()));
        }
        Ok(log.restart(crate::RANGE_EXEC))
    }

    /// Chains `seg` onto the log and makes it the active segment.
    ///
    /// The segment is initialized if it never held a log, then restarted
    /// with a fenced header write (generation bump, so stale entries in
    /// recycled memory cannot alias into this transaction). That fence also
    /// commits every unfenced entry flush issued so far, which is the
    /// Fig. 7 discipline at the chain boundary: by the time the first entry
    /// lands in the new tail, everything before it is durable.
    pub fn extend(&mut self, seg: LogRef) -> Result<()> {
        if !seg.is_initialized() {
            seg.init();
        }
        let gen = Self::begin_segment(seg)?;
        self.segments.push(seg);
        self.sealed.push(self.head);
        self.head = LOG_ENTRIES_OFFSET;
        self.gen = gen;
        Ok(())
    }

    /// Appends an entry with no fence and no header write: each line of the
    /// entry is flushed or streamed once, unfenced.
    ///
    /// The entry header is a cached store; the payload goes through
    /// [`persist::copy_flush`], so a large one is streamed and only the
    /// entry's partial lines are flushed. The entry is not guaranteed
    /// durable until the next fence (the caller's commit-stage `sfence`, or
    /// a fenced header write). A crash before that fence leaves a durable
    /// *prefix* of the appended entries — the checksum/generation scan
    /// finds exactly that prefix.
    ///
    /// When the active segment cannot hold the entry, [`PmError::LogFull`]
    /// is returned; the caller may chain a fresh segment with
    /// [`LogWriter::extend`] and retry.
    pub fn append(
        &mut self,
        addr: u64,
        seq: u32,
        order: ReplayOrder,
        kind: EntryKind,
        data: &[u8],
    ) -> Result<()> {
        if failpoint::should_fail(failpoint::names::LOG_APPEND_CRASH) {
            return Err(PmError::CrashInjected(failpoint::names::LOG_APPEND_CRASH));
        }
        let active = self.active();
        let entry = LogEntryHeader::new(addr, seq, order, kind, self.gen, data);
        let need = entry.stored_size();
        if self.head + need > active.capacity {
            return Err(PmError::LogFull {
                need,
                free: active.capacity.saturating_sub(self.head),
            });
        }
        // SAFETY: `[head, head + need)` lies inside the active segment (bounds
        // check above), covered by its `from_raw` contract; the sources are a
        // local value and the caller's slice, neither in the log.
        let dst = unsafe {
            let dst = active.base.add(self.head);
            std::ptr::write_unaligned(dst as *mut LogEntryHeader, entry);
            persist::copy_flush(dst.add(ENTRY_HEADER_SIZE), data);
            dst
        };
        let torn = failpoint::should_fail(failpoint::names::LOG_APPEND_TORN);
        if torn {
            // Simulate a power failure that persisted the header and part of
            // the payload: corrupt one byte (as if the tail cache line never
            // reached PM) so the validity scan stops at this entry. With no
            // payload, tear the header's checksum instead.
            let last = if data.is_empty() {
                0
            } else {
                ENTRY_HEADER_SIZE + data.len() - 1
            };
            // SAFETY: inside the entry just written.
            unsafe { *dst.add(last) ^= 0xff };
        }
        persist::flush_header(dst, ENTRY_HEADER_SIZE, data.len());
        if torn {
            return Err(PmError::CrashInjected(failpoint::names::LOG_APPEND_TORN));
        }
        self.head += need;
        self.entries += 1;
        self.redo_entries += u64::from(crate::RANGE_REDO.contains(seq));
        Ok(())
    }

    /// The segment currently being appended to.
    fn active(&self) -> LogRef {
        *self.segments.last().expect("writer always has a segment")
    }

    /// Every segment of the chain in order (`[0]` is the head).
    pub fn chain(&self) -> &[LogRef] {
        &self.segments
    }

    /// Number of segments in the chain (1 = no chaining happened).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Entries appended since [`LogWriter::begin`], across every segment
    /// (volatile count).
    pub fn num_entries(&self) -> u64 {
        self.entries
    }

    /// Of [`LogWriter::num_entries`], the entries live under
    /// [`crate::RANGE_REDO`]: what a commit has to apply in its redo stage.
    /// Zero means the stage has nothing to read.
    pub fn redo_entries(&self) -> u64 {
        self.redo_entries
    }

    /// Walks the entries this writer appended since [`LogWriter::begin`],
    /// in append order across every segment, **without verifying them**:
    /// the extents come from the DRAM cursor, and the bytes were
    /// checksummed when this writer stored them. For the process that wrote
    /// the log only — anything reading a log after a crash must use the
    /// validity scan ([`chain_iter`]).
    pub fn written(&self) -> impl Iterator<Item = (LogEntryHeader, &[u8])> {
        let ends = self.sealed.iter().copied().chain([self.head]);
        self.segments
            .iter()
            .zip(ends)
            .flat_map(|(log, end)| LogEntries {
                log,
                off: LOG_ENTRIES_OFFSET,
                end,
                gen: None,
            })
    }

    /// Largest payload that still fits in a single further append **without
    /// chaining another segment**, based on the volatile cursor of the
    /// active segment. After [`LogWriter::extend`] this reports the fresh
    /// tail's headroom, not the exhausted previous segment's. At 0 not even
    /// an empty payload need fit.
    pub fn free_bytes(&self) -> usize {
        payload_capacity(self.active().capacity, self.head)
    }

    /// Publishes a new sequence range on the **head** segment (fenced; also
    /// makes every entry flushed before it durable). One store moves the
    /// whole chain between the stages of Fig. 7.
    pub fn set_seq_range(&self, range: SeqRange) {
        self.segments[0].set_seq_range(range);
    }

    /// Ends a committed transaction with the log's single invalidating
    /// write. A single-segment log is left **armed** (see the type docs):
    /// the fenced write publishes [`crate::RANGE_EXEC`] under the bumped
    /// generation, and a transaction that appended nothing needs no write
    /// at all — the head already reads `EXEC` at a generation no entry
    /// carries. A chain ends in [`LogWriter::reset`].
    pub fn finish(&mut self) {
        assert_eq!(self.state, WriterState::Open, "finish without start");
        if self.segments.len() > 1 {
            return self.reset();
        }
        if self.entries > 0 {
            self.gen = self.segments[0].restart(crate::RANGE_EXEC);
            self.rewind();
        }
        self.state = WriterState::Armed;
    }

    /// Ends the transaction unarmed: resets the head to
    /// [`crate::RANGE_DONE`] (bumping its generation — the single fenced
    /// write that invalidates the *entire* chain, since the head's range
    /// governs chain replay), then scrubs any tail segments and drops them
    /// from the chain. The caller releases the tail areas' backing storage
    /// afterwards.
    pub fn reset(&mut self) {
        for seg in &self.segments {
            seg.reset();
        }
        self.rewind();
        self.state = WriterState::Unarmed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RANGE_DONE, RANGE_EXEC, SEQ_REDO, SEQ_UNDO};

    /// A payload large enough that [`LogWriter::append`] streams it.
    const LARGE_PAYLOAD: usize = 4096 + 24;

    fn make_log(buf: &mut Vec<u8>) -> LogRef {
        // SAFETY: the Vec outlives the LogRef in every test below and is not
        // otherwise accessed while the LogRef is in use.
        unsafe { LogRef::from_raw(buf.as_mut_ptr(), buf.len()) }
    }

    fn collect(log: &LogRef) -> Vec<(LogEntryHeader, Vec<u8>)> {
        log.iter().map(|(h, d)| (h, d.to_vec())).collect()
    }

    /// Addresses of the entries live under `log`'s own sequence range.
    fn live_addrs(log: &LogRef) -> Vec<u64> {
        log.iter()
            .filter(|(h, _)| log.seq_range().contains(h.seq))
            .map(|(h, _)| h.addr)
            .collect()
    }

    #[test]
    fn seq_range_bounds_are_exclusive() {
        let r = SeqRange { lo: 0, hi: 2 };
        assert!(!r.contains(0), "lower bound is exclusive");
        assert!(r.contains(1));
        assert!(!r.contains(2), "upper bound is exclusive");
        assert!(!r.contains(3));
    }

    #[test]
    fn seq_range_adjacent_bounds_are_empty() {
        // (n, n+1) holds no integer strictly between its bounds: logs in
        // this state replay nothing.
        for n in [0u32, 1, 7, u32::MAX - 1] {
            let r = SeqRange { lo: n, hi: n + 1 };
            for seq in [0, n.saturating_sub(1), n, n + 1, n.saturating_add(2)] {
                assert!(!r.contains(seq), "({n}, {}) must not contain {seq}", n + 1);
            }
        }
        // RANGE_DONE is degenerate (lo == hi) and contains nothing either.
        assert_eq!(RANGE_DONE.lo, RANGE_DONE.hi);
        for seq in [0, RANGE_DONE.lo, u32::MAX] {
            assert!(!RANGE_DONE.contains(seq));
        }
    }

    #[test]
    fn seq_range_at_u32_extremes_does_not_wrap() {
        // A range touching the top of the u32 domain: the bounds stay
        // exclusive and nothing wraps around to small sequence numbers.
        let top = SeqRange {
            lo: u32::MAX - 1,
            hi: u32::MAX,
        };
        for seq in [0, 1, u32::MAX - 2, u32::MAX - 1, u32::MAX] {
            assert!(!top.contains(seq));
        }
        let wide = SeqRange {
            lo: 0,
            hi: u32::MAX,
        };
        assert!(wide.contains(1));
        assert!(wide.contains(u32::MAX - 1));
        assert!(!wide.contains(0));
        assert!(!wide.contains(u32::MAX));
    }

    #[test]
    fn init_and_reset_roundtrip() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        assert!(!log.is_initialized());
        log.init();
        assert!(log.is_initialized());
        assert_eq!(log.iter().count(), 0);
        assert_eq!(log.seq_range(), RANGE_DONE);
        log.set_seq_range(RANGE_EXEC);
        assert_eq!(log.seq_range(), RANGE_EXEC);
        let gen_before = log.generation();
        log.reset();
        assert_eq!(log.seq_range(), RANGE_DONE);
        assert_eq!(log.generation(), gen_before + 1);
        assert_eq!(log.iter().count(), 0);
    }

    #[test]
    fn init_writes_magic_range_and_generation_in_24_bytes() {
        assert_eq!(LOG_HEADER_SIZE, 24);
        let mut buf = vec![0xA5u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        let mut expected = LOG_MAGIC.to_le_bytes().to_vec();
        expected.extend_from_slice(&RANGE_DONE.lo.to_le_bytes());
        expected.extend_from_slice(&RANGE_DONE.hi.to_le_bytes());
        expected.extend_from_slice(&[0; 8]); // generation 0, pad
        assert_eq!(&buf[..LOG_HEADER_SIZE], &expected[..]);
        assert_eq!(buf[LOG_HEADER_SIZE], 0xA5, "init writes the header only");
        // The first entry starts on the next cache line; the rest of the
        // header's line is never written.
        let mut w = LogWriter::begin(log).unwrap();
        w.append(
            0x1,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[7; 8],
        )
        .unwrap();
        assert!(buf[LOG_HEADER_SIZE..LOG_ENTRIES_OFFSET]
            .iter()
            .all(|&b| b == 0xA5));
        assert_eq!(buf[LOG_ENTRIES_OFFSET + ENTRY_HEADER_SIZE], 7);
    }

    #[test]
    fn append_and_read_back_entries() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        let mut w = LogWriter::begin(log).unwrap();
        w.append(
            0x100,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[1, 2, 3],
        )
        .unwrap();
        w.append(
            0x200,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            &[9; 40],
        )
        .unwrap();
        let entries = collect(&log);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0.addr, 0x100);
        assert_eq!(entries[0].1, vec![1, 2, 3]);
        assert_eq!(entries[1].0.addr, 0x200);
        assert_eq!(entries[1].1.len(), 40);
        assert_eq!(w.num_entries(), 2);
    }

    #[test]
    fn live_entries_follow_sequence_range() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        let mut w = LogWriter::begin(log).unwrap();
        w.append(0x1, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, &[1])
            .unwrap();
        w.append(0x2, SEQ_REDO, ReplayOrder::Forward, EntryKind::Redo, &[2])
            .unwrap();
        // Exec stage: only the undo entry is live.
        assert_eq!(live_addrs(&log), vec![0x1]);
        // Redo stage: only the redo entry is live.
        w.set_seq_range(crate::RANGE_REDO);
        assert_eq!(live_addrs(&log), vec![0x2]);
        // Done: nothing is live.
        w.set_seq_range(RANGE_DONE);
        assert_eq!(live_addrs(&log), Vec::<u64>::new());
    }

    #[test]
    fn append_fails_with_log_full_when_out_of_space() {
        let mut buf = vec![0u8; 256];
        let log = make_log(&mut buf);
        log.init();
        let mut w = LogWriter::begin(log).unwrap();
        let data = [0u8; 64];
        let mut appended = 0;
        loop {
            match w.append(0, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, &data) {
                Ok(()) => appended += 1,
                Err(PmError::LogFull { need, free }) => {
                    assert!(need > free, "LogFull must report need {need} > free {free}");
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(appended >= 1);
        assert_eq!(log.iter().count(), appended);
    }

    #[test]
    fn free_bytes_reserves_header_and_alignment_up_front() {
        // From every cursor that a run of 3-byte payloads (each padded to an
        // 8-byte slot) reaches, one byte more than `free_bytes()` does not
        // fit, and a nonzero `free_bytes()` fits exactly and leaves 0.
        let mut buf = vec![0u8; 512];
        let undo = |w: &mut LogWriter, data: &[u8]| {
            w.append(0x1, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, data)
        };
        for small in 0.. {
            buf.fill(0);
            let log = make_log(&mut buf);
            log.init();
            let mut w = LogWriter::begin(log).unwrap();
            for _ in 0..small {
                undo(&mut w, &[1; 3]).unwrap();
            }
            let free = w.free_bytes();
            assert!(matches!(
                undo(&mut w, &vec![0xCD; free + 1]),
                Err(PmError::LogFull { .. })
            ));
            if free == 0 {
                // Less than an entry header may be left: even an empty
                // payload need not fit.
                break;
            }
            undo(&mut w, &vec![0xCD; free]).unwrap();
            assert_eq!(w.free_bytes(), 0);
            assert!(matches!(undo(&mut w, &[1]), Err(PmError::LogFull { .. })));
            assert_eq!(log.iter().count(), small + 1);
        }
    }

    #[test]
    fn append_to_uninitialized_log_is_rejected() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        assert!(LogWriter::begin(log).is_err());
        assert!(LogWriter::new(log).start().is_err());
    }

    #[test]
    fn seq_range_contains_is_exclusive() {
        assert!(!RANGE_EXEC.contains(0));
        assert!(RANGE_EXEC.contains(1));
        assert!(!RANGE_EXEC.contains(2));
        assert!(!RANGE_DONE.contains(4));
        assert!(crate::RANGE_REDO.contains(3));
        assert!(!crate::RANGE_REDO.contains(2));
    }

    // ------------------------------------------------------------------
    // LogWriter: the volatile-cursor fast path.
    // ------------------------------------------------------------------

    #[test]
    fn writer_appends_without_header_writes_and_scan_finds_them() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        let mut w = LogWriter::begin(log).unwrap();
        assert_eq!(log.seq_range(), RANGE_EXEC);
        let header = buf[..LOG_HEADER_SIZE].to_vec();
        for i in 0..5u64 {
            w.append(
                0x1000 + i,
                SEQ_UNDO,
                ReplayOrder::Reverse,
                EntryKind::Undo,
                &i.to_le_bytes(),
            )
            .unwrap();
        }
        assert_eq!(w.num_entries(), 5);
        // The durable header was not written...
        assert_eq!(buf[..LOG_HEADER_SIZE], header[..]);
        // ...but the scan sees every appended entry (simulating what
        // recovery would find after a crash right here).
        let addrs: Vec<u64> = log.iter().map(|(h, _)| h.addr).collect();
        assert_eq!(addrs, vec![0x1000, 0x1001, 0x1002, 0x1003, 0x1004]);
    }

    #[test]
    fn crash_after_n_unfenced_appends_recovers_exact_prefix() {
        // The satellite scenario: arm the crash failpoint so the writer
        // dies after exactly N appends; the scan (what recovery replays)
        // must return exactly those N entries. Small payloads are copied
        // and flushed, the 4 KiB ones streamed.
        for payload in [24, LARGE_PAYLOAD] {
            for n in [0usize, 1, 3, 7] {
                let mut buf = vec![0u8; LOG_ENTRIES_OFFSET + 8 * (ENTRY_HEADER_SIZE + payload)];
                let log = make_log(&mut buf);
                log.init();
                let mut w = LogWriter::begin(log).unwrap();
                failpoint::arm_scoped(failpoint::names::LOG_APPEND_CRASH, n);
                let mut appended = 0usize;
                let err = loop {
                    match w.append(
                        0x2000 + appended as u64,
                        SEQ_UNDO,
                        ReplayOrder::Reverse,
                        EntryKind::Undo,
                        &vec![appended as u8; payload],
                    ) {
                        Ok(()) => appended += 1,
                        Err(e) => break e,
                    }
                };
                failpoint::clear_current_thread();
                assert!(matches!(err, PmError::CrashInjected(_)));
                assert_eq!(appended, n);
                let recovered: Vec<u64> = log.iter().map(|(h, _)| h.addr).collect();
                let expected: Vec<u64> = (0..n as u64).map(|i| 0x2000 + i).collect();
                assert_eq!(recovered, expected, "{payload} B: crash after {n} appends");
            }
        }
    }

    #[test]
    fn stale_entries_from_a_previous_generation_are_invisible() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        // Transaction 1 logs three entries and commits (reset).
        let mut w = LogWriter::begin(log).unwrap();
        for i in 0..3u64 {
            w.append(
                0xA0 + i,
                SEQ_UNDO,
                ReplayOrder::Reverse,
                EntryKind::Undo,
                &[7; 8],
            )
            .unwrap();
        }
        w.reset();
        assert_eq!(log.iter().count(), 0, "after reset nothing is valid");
        // Transaction 2 logs ONE entry of the same stored size and "crashes":
        // the old second and third entries still sit beyond it with valid
        // checksums, but their stale generation terminates the scan.
        let mut w = LogWriter::begin(log).unwrap();
        w.append(
            0xB0,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[9; 8],
        )
        .unwrap();
        let visible: Vec<u64> = log.iter().map(|(h, _)| h.addr).collect();
        assert_eq!(visible, vec![0xB0]);
    }

    #[test]
    fn writer_torn_append_truncates_the_scan() {
        // The large payloads are streamed: the tear lands on an entry whose
        // whole lines never went through the cache.
        for payload in [16, LARGE_PAYLOAD] {
            let mut buf = vec![0u8; LOG_ENTRIES_OFFSET + 3 * (ENTRY_HEADER_SIZE + payload)];
            let log = make_log(&mut buf);
            log.init();
            let mut w = LogWriter::begin(log).unwrap();
            w.append(
                0x1,
                SEQ_UNDO,
                ReplayOrder::Reverse,
                EntryKind::Undo,
                &vec![1; payload],
            )
            .unwrap();
            failpoint::arm_scoped(failpoint::names::LOG_APPEND_TORN, 0);
            let err = w
                .append(
                    0x2,
                    SEQ_UNDO,
                    ReplayOrder::Reverse,
                    EntryKind::Undo,
                    &vec![2; payload],
                )
                .unwrap_err();
            failpoint::clear_current_thread();
            assert!(matches!(err, PmError::CrashInjected(_)));
            let visible: Vec<u64> = log.iter().map(|(h, _)| h.addr).collect();
            assert_eq!(visible, vec![0x1], "{payload} B");
        }
    }

    #[test]
    fn generation_wraparound_erases_the_entry_area() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        // Run a transaction whose entries carry generation u32::MAX.
        log.set_generation_for_test(u32::MAX - 1);
        let mut w = LogWriter::begin(log).unwrap();
        assert_eq!(log.generation(), u32::MAX);
        for i in 0..3u64 {
            w.append(
                0xC0 + i,
                SEQ_UNDO,
                ReplayOrder::Reverse,
                EntryKind::Undo,
                &[5; 8],
            )
            .unwrap();
        }
        assert_eq!(log.iter().count(), 3);
        // The reset wraps the generation to 0 and must physically erase the
        // old entries: otherwise, 2^32 generations later, a same-gen entry
        // at a matching offset would alias into a live transaction (ABA).
        w.reset();
        assert_eq!(log.generation(), 0);
        // Even if a future epoch reaches u32::MAX again, nothing stale can
        // surface — the bytes are gone.
        log.set_generation_for_test(u32::MAX);
        assert_eq!(log.iter().count(), 0);
    }

    // ------------------------------------------------------------------
    // Multi-segment chains.
    // ------------------------------------------------------------------

    /// Appends `data` and on LogFull chains a fresh segment from `spare`
    /// (the logfmt-level analogue of what the transaction layer does).
    fn append_chaining(
        w: &mut LogWriter,
        spare: &mut Vec<Vec<u8>>,
        addr: u64,
        data: &[u8],
    ) -> usize {
        match w.append(addr, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, data) {
            Ok(()) => 0,
            Err(PmError::LogFull { .. }) => {
                let buf = spare.pop().expect("out of spare segments");
                let len = buf.len();
                // SAFETY: the leaked Vec lives for the rest of the test.
                let seg = unsafe { LogRef::from_raw(buf.leak().as_mut_ptr(), len) };
                w.extend(seg).unwrap();
                w.append(addr, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, data)
                    .unwrap();
                1
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn chained_appends_span_segments_and_scan_in_order() {
        // 96-byte entries in 1 KiB segments, and streamed 4 KiB payloads in
        // 16 KiB segments: 40 entries outgrow either head.
        for (payload, segment) in [(64, 1024), (LARGE_PAYLOAD, 16 * 1024)] {
            let mut head_buf = vec![0u8; segment];
            let head = make_log(&mut head_buf);
            head.init();
            let mut w = LogWriter::begin(head).unwrap();
            let mut spare: Vec<Vec<u8>> = (0..16).map(|_| vec![0u8; segment]).collect();
            let mut extended = 0;
            let streamed = persist::thread_counts().lines_streamed;
            for i in 0..40u64 {
                let data = vec![i as u8; payload];
                let e = append_chaining(&mut w, &mut spare, 0x9000 + i, &data);
                if e == 1 {
                    // free_bytes reports the fresh tail's headroom, not the
                    // exhausted previous segment's.
                    assert!(w.free_bytes() > 0, "fresh tail must report headroom");
                }
                extended += e;
            }
            assert!(
                extended >= 2,
                "40 entries of {payload} B must outgrow {segment} B"
            );
            assert_eq!(w.segment_count(), extended + 1);
            assert_eq!(w.num_entries(), 40);
            let streams = cfg!(target_arch = "x86_64") && payload == LARGE_PAYLOAD;
            assert_eq!(persist::thread_counts().lines_streamed > streamed, streams);
            // The stitched scan returns every entry in global append order,
            // each payload as it was appended.
            let scanned: Vec<(u64, Vec<u8>)> = chain_iter(w.chain())
                .map(|(h, d)| (h.addr, d.to_vec()))
                .collect();
            let expected: Vec<(u64, Vec<u8>)> = (0..40u64)
                .map(|i| (0x9000 + i, vec![i as u8; payload]))
                .collect();
            assert_eq!(scanned, expected, "{payload} B");
        }
    }

    #[test]
    fn writer_walks_its_own_extents_without_verifying_and_counts_redo() {
        let mut head_buf = vec![0u8; 1024];
        let head = make_log(&mut head_buf);
        head.init();
        let mut w = LogWriter::begin(head).unwrap();
        assert_eq!(w.redo_entries(), 0);
        assert_eq!(w.written().count(), 0);
        let mut spare: Vec<Vec<u8>> = (0..4).map(|_| vec![0u8; 1024]).collect();
        // 96-byte entries, ten to a 1 KiB segment: the third segment keeps
        // room for the redo entries below.
        for i in 0..28u64 {
            append_chaining(&mut w, &mut spare, 0x9000 + i, &[i as u8; 64]);
        }
        assert_eq!(w.segment_count(), 3);
        assert_eq!(w.redo_entries(), 0, "undo appends are not redo entries");
        for i in 0..3u64 {
            w.append(
                0xA000 + i,
                SEQ_REDO,
                ReplayOrder::Forward,
                EntryKind::Redo,
                &[0xEE; 8],
            )
            .unwrap();
        }
        assert_eq!(w.redo_entries(), 3);
        assert_eq!(w.num_entries(), 31);

        // The walk over the DRAM-cursor extents returns exactly what the
        // verified scan does, across every segment, in append order.
        let walked: Vec<(u64, Vec<u8>)> = w.written().map(|(h, d)| (h.addr, d.to_vec())).collect();
        let scanned: Vec<(u64, Vec<u8>)> = chain_iter(w.chain())
            .map(|(h, d)| (h.addr, d.to_vec()))
            .collect();
        assert_eq!(walked.len(), 31);
        assert_eq!(walked, scanned);

        // It hashes nothing: a payload byte damaged after the append stops
        // the scan at that entry but not the walk.
        head_buf[LOG_ENTRIES_OFFSET + ENTRY_HEADER_SIZE] ^= 0xff;
        assert_eq!(chain_iter(&w.chain()[..1]).count(), 0);
        assert_eq!(w.written().count(), 31);

        w.reset();
        assert_eq!(w.redo_entries(), 0);
        assert_eq!(w.written().count(), 0);
    }

    #[test]
    fn a_log_with_another_magic_is_neither_blank_nor_scannable() {
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        assert_eq!(log.magic(), 0, "a never-initialised area reads as blank");
        log.init();
        assert_eq!(log.magic(), LOG_MAGIC);
        LogWriter::begin(log)
            .unwrap()
            .append(
                0x1,
                SEQ_UNDO,
                ReplayOrder::Reverse,
                EntryKind::Undo,
                &[1; 8],
            )
            .unwrap();
        assert_eq!(log.iter().count(), 1);
        // The previous format's magic ("PUDDLOG3"): the same checksum
        // function, but a 56-byte header, so its entries start elsewhere.
        buf[..8].copy_from_slice(&0x5055_4444_4c4f_4733u64.to_le_bytes());
        assert!(!log.is_initialized());
        assert_ne!(log.magic(), 0);
        assert_eq!(
            log.iter().count(),
            0,
            "never scanned with the wrong function"
        );
        assert!(LogWriter::begin(log).is_err());
    }

    #[test]
    fn chain_reset_invalidates_every_segment_via_the_head() {
        let mut head_buf = vec![0u8; 1024];
        let head = make_log(&mut head_buf);
        head.init();
        let mut w = LogWriter::begin(head).unwrap();
        let mut spare: Vec<Vec<u8>> = (0..2).map(|_| vec![0u8; 1024]).collect();
        for i in 0..20u64 {
            append_chaining(&mut w, &mut spare, i, &[3; 64]);
        }
        let tails: Vec<LogRef> = w.chain()[1..].to_vec();
        assert!(!tails.is_empty());
        w.reset();
        assert_eq!(w.segment_count(), 1);
        assert_eq!(head.seq_range(), RANGE_DONE);
        assert_eq!(head.iter().count(), 0);
        // The scrubbed tails hold nothing valid either.
        for tail in tails {
            assert_eq!(tail.iter().count(), 0);
        }
    }

    #[test]
    fn finish_arms_a_single_segment_log_and_the_next_start_writes_nothing() {
        let fences = || persist::thread_counts().fences;
        let mut buf = vec![0u8; 4096];
        let log = make_log(&mut buf);
        log.init();
        let mut w = LogWriter::new(log);
        assert_eq!(log.seq_range(), RANGE_DONE, "`new` touches nothing");

        // Unarmed: the fenced start.
        let before = fences();
        w.start().unwrap();
        assert_eq!(fences() - before, 1);
        assert_eq!((log.seq_range(), log.generation()), (RANGE_EXEC, 1));
        w.append(
            0x1,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[1; 8],
        )
        .unwrap();
        w.append(
            0x2,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[2; 8],
        )
        .unwrap();

        // Commit: one fenced write leaves an empty executing transaction
        // under the next generation...
        let before = fences();
        w.finish();
        assert_eq!(fences() - before, 1);
        assert_eq!((log.seq_range(), log.generation()), (RANGE_EXEC, 2));
        assert_eq!(log.iter().count(), 0);

        // ...so the next transaction starts for free, its entries are
        // valid under that generation, and the previous transaction's
        // second entry — same offset, older generation — stays invisible.
        let before = fences();
        w.start().unwrap();
        w.append(
            0x3,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[3; 8],
        )
        .unwrap();
        assert_eq!(fences() - before, 0);
        assert_eq!(log.generation(), 2);
        assert_eq!(live_addrs(&log), vec![0x3]);

        // A transaction that appended nothing ends without a write and
        // leaves the log armed; an abort (`reset`) disarms it.
        w.finish();
        let before = fences();
        w.start().unwrap();
        w.finish();
        w.start().unwrap();
        assert_eq!(fences() - before, 0);
        assert_eq!(log.generation(), 3);
        w.reset();
        assert_eq!((log.seq_range(), log.generation()), (RANGE_DONE, 4));
        let before = fences();
        w.start().unwrap();
        assert_eq!(fences() - before, 1);
        assert_eq!((log.seq_range(), log.generation()), (RANGE_EXEC, 5));
    }

    #[test]
    fn a_chain_ends_in_range_done_because_its_tails_outlive_the_head_reset() {
        let mut head_buf = vec![0u8; 1024];
        let head = make_log(&mut head_buf);
        head.init();
        let mut w = LogWriter::begin(head).unwrap();
        let mut spare: Vec<Vec<u8>> = vec![vec![0u8; 1024]];
        for i in 0..14u64 {
            append_chaining(&mut w, &mut spare, 0x100 + i, &[4; 64]);
        }
        assert_eq!(w.segment_count(), 2);
        let tail = w.chain()[1];
        let segments = [head, tail];
        let in_tail = tail.iter().count();
        assert!(in_tail > 0);

        // The crash window inside a chained commit's stage 3: the head is
        // reset, the tail not yet. Under RANGE_DONE nothing is live, though
        // the tail still holds valid undo entries of the committed
        // transaction...
        head.reset();
        assert_eq!(tail.iter().count(), in_tail);
        assert_eq!(crate::collect_live(&segments, false).live_count(), 0);
        // ...which an executing head would bring back to life, rolling a
        // committed transaction's tail updates back: why `finish` never
        // arms a chain.
        head.set_seq_range(RANGE_EXEC);
        assert_eq!(crate::collect_live(&segments, false).live_count(), in_tail);
        head.set_seq_range(RANGE_DONE);

        // `finish` on a chain is `reset`: RANGE_DONE, tails scrubbed, and
        // the next start fenced.
        w.finish();
        assert_eq!(head.seq_range(), RANGE_DONE);
        assert_eq!(tail.iter().count(), 0);
        let before = persist::thread_counts().fences;
        w.start().unwrap();
        assert_eq!(persist::thread_counts().fences - before, 1);
        assert_eq!(w.segment_count(), 1);
    }

    #[test]
    fn empty_chain_tail_is_benign_for_the_scan() {
        // The LOG_CHAIN crash window at logfmt level: a tail was chained
        // (initialized + restarted) but the crash hit before its first
        // append. The stitched scan must return exactly the head's entries.
        let mut head_buf = vec![0u8; 4096];
        let head = make_log(&mut head_buf);
        head.init();
        let mut w = LogWriter::begin(head).unwrap();
        for i in 0..3u64 {
            w.append(
                0x70 + i,
                SEQ_UNDO,
                ReplayOrder::Reverse,
                EntryKind::Undo,
                &[1; 8],
            )
            .unwrap();
        }
        let mut tail_buf = vec![0u8; 4096];
        let tail = make_log(&mut tail_buf);
        w.extend(tail).unwrap();
        let addrs: Vec<u64> = chain_iter(w.chain()).map(|(h, _)| h.addr).collect();
        assert_eq!(addrs, vec![0x70, 0x71, 0x72]);
        assert_eq!(tail.seq_range(), RANGE_EXEC);
    }

    #[test]
    fn extend_orphans_stale_entries_in_recycled_segments() {
        // A tail area that previously held a committed chain segment is
        // recycled into a new transaction: its old entries carry a valid
        // checksum for the *previous* generation and must stay invisible.
        let mut tail_buf = vec![0u8; 4096];
        let tail = make_log(&mut tail_buf);
        tail.init();
        let mut w1 = LogWriter::begin(tail).unwrap();
        w1.append(
            0xAA,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[9; 16],
        )
        .unwrap();
        // (no reset — simulates memory handed back without scrubbing)

        let mut head_buf = vec![0u8; 4096];
        let head = make_log(&mut head_buf);
        head.init();
        let mut w = LogWriter::begin(head).unwrap();
        w.extend(tail).unwrap();
        assert_eq!(
            chain_iter(w.chain()).count(),
            0,
            "stale recycled-tail entries must be orphaned by the generation bump"
        );
    }

    #[test]
    fn segment_payload_capacity_matches_an_empty_log() {
        let mut buf = vec![0u8; 2048];
        let log = make_log(&mut buf);
        log.init();
        let w = LogWriter::begin(log).unwrap();
        assert_eq!(segment_payload_capacity(2048), w.free_bytes());
    }

    #[test]
    fn writer_reports_log_full_and_free_bytes_from_volatile_cursor() {
        let mut buf = vec![0u8; 256];
        let log = make_log(&mut buf);
        log.init();
        let mut w = LogWriter::begin(log).unwrap();
        let first_free = w.free_bytes();
        assert!(first_free > 0);
        w.append(0, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, &[1; 8])
            .unwrap();
        assert!(w.free_bytes() < first_free);
        // The writer's own cursor governs the LogFull check.
        let too_big = vec![0u8; w.free_bytes() + 1];
        assert!(matches!(
            w.append(0, SEQ_UNDO, ReplayOrder::Reverse, EntryKind::Undo, &too_big),
            Err(PmError::LogFull { .. })
        ));
        let just_fits = vec![0u8; w.free_bytes()];
        w.append(
            0,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &just_fits,
        )
        .unwrap();
    }
}
