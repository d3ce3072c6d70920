//! Append-only metadata WAL: the registry's persistence engine.
//!
//! The paper's daemon keeps its metadata in a persistent hash map so each
//! mutation persists incrementally (§4.2). Our registry previously rewrote
//! the *entire* JSON document on every mutation — O(registry) per op. This
//! module makes steady-state persistence O(record):
//!
//! * every registry mutation appends one checksummed, length-prefixed
//!   [`RegistryOp`] record to `meta/registry.wal` (framing modeled on
//!   `puddles_logfmt::entry`: the checksum covers the header fields and the
//!   payload, so a torn append is detected and the tail discarded);
//! * **group commit**: concurrent mutators enqueue records under their
//!   registry shard locks and a single *leader* thread writes and fsyncs
//!   the whole batch, so N concurrent mutations cost one `fdatasync`;
//! * when the WAL grows past a byte threshold the registry writes an
//!   **incremental checkpoint** — the JSON snapshot, atomically renamed —
//!   and truncates the WAL to the records the checkpoint does not cover;
//! * recovery loads the checkpoint and replays the WAL tail (skipping
//!   records below the checkpoint's sequence floor, tolerating a torn
//!   final record) before the registry's reconcile pass.
//!
//! # Record layout
//!
//! ```text
//! [checksum: u64 LE][seq: u64 LE][len: u32 LE][pad: u32 = 0]
//! [payload: len bytes][zero pad to 8 bytes]
//! ```
//!
//! The payload is a **binary-encoded** [`RegistryOp`]: a version byte
//! ([`WAL_BINARY_VERSION`]), a variant tag, then the fields as fixed-width
//! little-endian integers and length-prefixed strings — roughly 3–5x
//! smaller than JSON and much cheaper to encode on the group-commit path.
//! A record that passes its checksum but carries another version byte or an
//! unknown tag was written by a different build: [`Wal::open`] refuses the
//! file rather than dropping it (see [`WAL_BINARY_VERSION`] for the upgrade
//! rule). Checkpoint snapshots remain JSON (they are rewritten wholesale
//! and benefit from being inspectable).
//!
//! `seq` increases by one per record and never resets (a checkpoint records
//! the sequence floor it covers), so replay after a crash *between* the
//! checkpoint rename and the WAL truncation does not re-apply stale records
//! over newer state.

use crate::registry::{LogSpaceRecord, PoolRecord, PuddleRecord, RegistryData};
use puddles_pmem::checksum::{fnv1a64, fnv1a64_with_seed};
use puddles_pmem::failpoint::{self, names};
use puddles_pmem::faultio::{
    self, FaultPlan, FaultSite, IoStats, SyncFault, WriteFault, MAX_IO_RETRIES,
};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result};
use puddles_proto::{PtrField, PtrMapDecl, PuddleId, PuddlePurpose, Translation};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use puddles_pmem::clock::Clock;
use puddles_pmem::obs::{Metrics, TraceEventKind};

/// Name of the WAL file inside the PM directory's `meta/` subdirectory.
pub const WAL_FILE: &str = "registry.wal";

/// Size of the on-disk record header in bytes.
pub const RECORD_HEADER_SIZE: usize = 24;

/// Payload alignment inside the WAL (matches `logfmt::ENTRY_ALIGN`).
const RECORD_ALIGN: usize = 8;

/// Upper bound on a single record's payload; guards decode against a
/// corrupt length prefix.
const MAX_RECORD: usize = 16 << 20;

/// Default WAL size at which the registry writes a checkpoint and truncates.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 1 << 20;

/// Multiplier on the checkpoint threshold giving the **hard ceiling**: past
/// it the registry checkpoints inline on the request path even when a
/// background checkpoint is queued (the scheduler has fallen behind and the
/// WAL must not grow without bound). Overridable per WAL with
/// [`Wal::set_checkpoint_hard_ceiling`].
pub const DEFAULT_HARD_CEILING_FACTOR: u64 = 8;

/// A shared handle to the daemon's metadata WAL; `service` threads one
/// through the registry and keeps a clone for `Stats`.
pub type WalHandle = Arc<Wal>;

/// One registry mutation, as persisted in the WAL.
///
/// Ops are **idempotent puts and removes** keyed like the registry tables,
/// so replaying a prefix of the WAL (after a torn tail) or a suffix that
/// partially overlaps the checkpoint always lands on a state the load-time
/// reconcile can finish healing.
#[derive(Debug, Clone, PartialEq)]
// JSON exists only as the tests' size and foreign-format reference.
#[cfg_attr(test, derive(serde::Serialize))]
pub enum RegistryOp {
    /// Insert or replace a puddle record.
    PutPuddle(PuddleRecord),
    /// Remove a puddle record.
    DropPuddle {
        /// The removed puddle.
        id: PuddleId,
    },
    /// Insert or replace a pool record (pool creation, root assignment;
    /// membership churn uses the O(1) delta ops below so a large pool does
    /// not make every registration log its whole member list).
    PutPool(PoolRecord),
    /// Remove a pool record.
    DropPool {
        /// The removed pool's name.
        name: String,
    },
    /// Append one puddle to a pool's member list.
    AddPoolMember {
        /// The pool gaining a member.
        pool: String,
        /// The joining puddle.
        id: PuddleId,
    },
    /// Remove one puddle from a pool's member list.
    RemovePoolMember {
        /// The pool losing a member.
        pool: String,
        /// The leaving puddle.
        id: PuddleId,
    },
    /// Register (or replace) a pointer map.
    PutPtrMap(PtrMapDecl),
    /// Register a log space, replacing an older registration of the puddle.
    PutLogSpace(LogSpaceRecord),
    /// Mark a log space invalid (its logs are never replayed again).
    InvalidateLogSpace {
        /// The log-space puddle.
        puddle: PuddleId,
    },
}

/// Applies one replayed op to a loaded registry document.
///
/// No op touches `free_list`/`next_offset`: the space allocator is never
/// logged, and the reconcile pass that follows replay derives both from the
/// puddle table. `next_seq` is re-derived from the ids of created puddles
/// (ids embed the daemon's sequence counter in their low 64 bits).
pub fn apply_op(data: &mut RegistryData, op: &RegistryOp) {
    match op {
        RegistryOp::PutPuddle(rec) => {
            data.next_seq = data.next_seq.max(rec.id.0 as u64);
            data.puddles.insert(rec.id.to_hex(), rec.clone());
        }
        RegistryOp::DropPuddle { id } => {
            data.puddles.remove(&id.to_hex());
        }
        RegistryOp::PutPool(rec) => {
            data.pools.insert(rec.name.clone(), rec.clone());
        }
        RegistryOp::DropPool { name } => {
            data.pools.remove(name);
        }
        RegistryOp::AddPoolMember { pool, id } => {
            if let Some(record) = data.pools.get_mut(pool) {
                if !record.puddles.contains(id) {
                    record.puddles.push(*id);
                }
            }
        }
        RegistryOp::RemovePoolMember { pool, id } => {
            if let Some(record) = data.pools.get_mut(pool) {
                record.puddles.retain(|member| member != id);
            }
        }
        RegistryOp::PutPtrMap(decl) => {
            data.ptr_maps.insert(decl.type_id.to_string(), decl.clone());
        }
        RegistryOp::PutLogSpace(rec) => {
            data.log_spaces.retain(|e| e.puddle != rec.puddle);
            data.log_spaces.push(rec.clone());
        }
        RegistryOp::InvalidateLogSpace { puddle } => {
            for ls in data.log_spaces.iter_mut() {
                if ls.puddle == *puddle {
                    ls.invalid = true;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Binary op encoding.
// ---------------------------------------------------------------------

/// First payload byte of every record: names the payload encoding.
///
/// **Upgrade rule: a PM directory moves to a build with another version
/// byte only with an empty `meta/registry.wal`.** Restarting the build that
/// wrote the WAL gets it there — startup replays the WAL into a fresh
/// checkpoint and truncates it — provided it is stopped again before
/// clients mutate anything (`Stats.wal_records == 0`). This covers the
/// pre-binary daemons too, whose JSON payloads start with `{`. A WAL that
/// still holds a record this build cannot decode makes [`Wal::open`] fail
/// with the file left untouched, so the metadata in it is never silently
/// dropped.
///
/// `0x02` is `0x01` without the allocator's extent records (tags 10 and
/// 11): every load overwrote what they replayed.
pub const WAL_BINARY_VERSION: u8 = 0x02;

/// Variant tags of the binary [`RegistryOp`] encoding. Stable on-disk
/// values: append only, never renumber.
mod tag {
    pub const PUT_PUDDLE: u8 = 1;
    pub const DROP_PUDDLE: u8 = 2;
    pub const PUT_POOL: u8 = 3;
    pub const DROP_POOL: u8 = 4;
    pub const ADD_POOL_MEMBER: u8 = 5;
    pub const REMOVE_POOL_MEMBER: u8 = 6;
    pub const PUT_PTR_MAP: u8 = 7;
    pub const PUT_LOG_SPACE: u8 = 8;
    pub const INVALIDATE_LOG_SPACE: u8 = 9;
    // 10 was version 0x01's `AllocExtent`: reserved, never reused.
    // 11 was version 0x01's `FreeExtent`: reserved, never reused.
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_purpose(out: &mut Vec<u8>, p: PuddlePurpose) {
    out.push(match p {
        PuddlePurpose::Data => 0,
        PuddlePurpose::Log => 1,
        PuddlePurpose::LogSpace => 2,
    });
}

/// Encodes one op as a versioned binary payload.
pub fn encode_op(op: &RegistryOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(WAL_BINARY_VERSION);
    match op {
        RegistryOp::PutPuddle(rec) => {
            out.push(tag::PUT_PUDDLE);
            put_u128(&mut out, rec.id.0);
            put_u64(&mut out, rec.size);
            put_u64(&mut out, rec.offset);
            put_str(&mut out, &rec.file);
            put_purpose(&mut out, rec.purpose);
            put_u32(&mut out, rec.owner_uid);
            put_u32(&mut out, rec.owner_gid);
            put_u32(&mut out, rec.mode);
            match &rec.pool {
                Some(pool) => {
                    out.push(1);
                    put_str(&mut out, pool);
                }
                None => out.push(0),
            }
            out.push(rec.needs_rewrite as u8);
            put_u32(&mut out, rec.translations.len() as u32);
            for t in &rec.translations {
                put_u64(&mut out, t.old_addr);
                put_u64(&mut out, t.new_addr);
                put_u64(&mut out, t.len);
            }
        }
        RegistryOp::DropPuddle { id } => {
            out.push(tag::DROP_PUDDLE);
            put_u128(&mut out, id.0);
        }
        RegistryOp::PutPool(rec) => {
            out.push(tag::PUT_POOL);
            put_str(&mut out, &rec.name);
            put_u128(&mut out, rec.root.0);
            put_u32(&mut out, rec.puddles.len() as u32);
            for id in &rec.puddles {
                put_u128(&mut out, id.0);
            }
        }
        RegistryOp::DropPool { name } => {
            out.push(tag::DROP_POOL);
            put_str(&mut out, name);
        }
        RegistryOp::AddPoolMember { pool, id } => {
            out.push(tag::ADD_POOL_MEMBER);
            put_str(&mut out, pool);
            put_u128(&mut out, id.0);
        }
        RegistryOp::RemovePoolMember { pool, id } => {
            out.push(tag::REMOVE_POOL_MEMBER);
            put_str(&mut out, pool);
            put_u128(&mut out, id.0);
        }
        RegistryOp::PutPtrMap(decl) => {
            out.push(tag::PUT_PTR_MAP);
            put_u64(&mut out, decl.type_id);
            put_str(&mut out, &decl.type_name);
            put_u64(&mut out, decl.size);
            put_u32(&mut out, decl.fields.len() as u32);
            for f in &decl.fields {
                put_u64(&mut out, f.offset);
                put_u64(&mut out, f.target_type);
            }
        }
        RegistryOp::PutLogSpace(rec) => {
            out.push(tag::PUT_LOG_SPACE);
            put_u128(&mut out, rec.puddle.0);
            put_u32(&mut out, rec.owner_uid);
            put_u32(&mut out, rec.owner_gid);
            out.push(rec.invalid as u8);
        }
        RegistryOp::InvalidateLogSpace { puddle } => {
            out.push(tag::INVALIDATE_LOG_SPACE);
            put_u128(&mut out, puddle.0);
        }
    }
    out
}

/// Bounds-checked sequential reader over a binary payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|b| u128::from_le_bytes(b.try_into().unwrap()))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn purpose(&mut self) -> Option<PuddlePurpose> {
        match self.u8()? {
            0 => Some(PuddlePurpose::Data),
            1 => Some(PuddlePurpose::Log),
            2 => Some(PuddlePurpose::LogSpace),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_binary_op(payload: &[u8]) -> Option<RegistryOp> {
    let mut r = Reader::new(payload);
    let op = match r.u8()? {
        tag::PUT_PUDDLE => {
            let id = PuddleId(r.u128()?);
            let size = r.u64()?;
            let offset = r.u64()?;
            let file = r.string()?;
            let purpose = r.purpose()?;
            let owner_uid = r.u32()?;
            let owner_gid = r.u32()?;
            let mode = r.u32()?;
            let pool = if r.bool()? { Some(r.string()?) } else { None };
            let needs_rewrite = r.bool()?;
            let n = r.u32()? as usize;
            let mut translations = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                translations.push(Translation {
                    old_addr: r.u64()?,
                    new_addr: r.u64()?,
                    len: r.u64()?,
                });
            }
            RegistryOp::PutPuddle(PuddleRecord {
                id,
                size,
                offset,
                file,
                purpose,
                owner_uid,
                owner_gid,
                mode,
                pool,
                needs_rewrite,
                translations,
            })
        }
        tag::DROP_PUDDLE => RegistryOp::DropPuddle {
            id: PuddleId(r.u128()?),
        },
        tag::PUT_POOL => {
            let name = r.string()?;
            let root = PuddleId(r.u128()?);
            let n = r.u32()? as usize;
            let mut puddles = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                puddles.push(PuddleId(r.u128()?));
            }
            RegistryOp::PutPool(PoolRecord {
                name,
                root,
                puddles,
            })
        }
        tag::DROP_POOL => RegistryOp::DropPool { name: r.string()? },
        tag::ADD_POOL_MEMBER => RegistryOp::AddPoolMember {
            pool: r.string()?,
            id: PuddleId(r.u128()?),
        },
        tag::REMOVE_POOL_MEMBER => RegistryOp::RemovePoolMember {
            pool: r.string()?,
            id: PuddleId(r.u128()?),
        },
        tag::PUT_PTR_MAP => {
            let type_id = r.u64()?;
            let type_name = r.string()?;
            let size = r.u64()?;
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                fields.push(PtrField {
                    offset: r.u64()?,
                    target_type: r.u64()?,
                });
            }
            RegistryOp::PutPtrMap(PtrMapDecl {
                type_id,
                type_name,
                size,
                fields,
            })
        }
        tag::PUT_LOG_SPACE => RegistryOp::PutLogSpace(LogSpaceRecord {
            puddle: PuddleId(r.u128()?),
            owner_uid: r.u32()?,
            owner_gid: r.u32()?,
            invalid: r.bool()?,
        }),
        tag::INVALIDATE_LOG_SPACE => RegistryOp::InvalidateLogSpace {
            puddle: PuddleId(r.u128()?),
        },
        _ => return None,
    };
    // Trailing bytes mean a writer/reader format mismatch: reject rather
    // than silently ignoring data.
    r.done().then_some(op)
}

/// Decodes one record payload; `None` for anything but a well-formed
/// [`WAL_BINARY_VERSION`] record.
pub fn decode_op(payload: &[u8]) -> Option<RegistryOp> {
    match payload.split_first() {
        Some((&WAL_BINARY_VERSION, body)) => decode_binary_op(body),
        _ => None,
    }
}

/// Checksum over a record's header fields and payload (seeded FNV-1a: the
/// header hashed first, continued over the payload). Records are 88 bytes
/// and bound by their fsync, so they keep the byte-serial function the WAL
/// format was defined with.
fn record_checksum(seq: u64, payload: &[u8]) -> u64 {
    let mut head = [0u8; 12];
    head[0..8].copy_from_slice(&seq.to_le_bytes());
    head[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    fnv1a64_with_seed(fnv1a64(&head), payload)
}

/// Encodes one record (header + payload + alignment padding).
fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let padded = align_up(payload.len(), RECORD_ALIGN);
    let mut rec = Vec::with_capacity(RECORD_HEADER_SIZE + padded);
    rec.extend_from_slice(&record_checksum(seq, payload).to_le_bytes());
    rec.extend_from_slice(&seq.to_le_bytes());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&0u32.to_le_bytes());
    rec.extend_from_slice(payload);
    rec.resize(RECORD_HEADER_SIZE + padded, 0);
    rec
}

/// Decodes records from `bytes`, stopping at the first record that is
/// incomplete or fails its checksum (the torn tail after a crash). Returns
/// the decoded `(seq, op)` pairs and the number of bytes occupied by valid
/// records.
///
/// A record whose checksum holds but whose payload does not decode is not a
/// torn write — the bytes are exactly what some daemon wrote — so it is an
/// error, not a tail to heal: truncating there would silently drop that
/// record and every one after it.
fn decode_records(bytes: &[u8]) -> Result<(Vec<(u64, RegistryOp)>, usize)> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER_SIZE {
        let checksum = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        let seq = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[pos + 16..pos + 20].try_into().unwrap()) as usize;
        if len > MAX_RECORD {
            break;
        }
        let total = RECORD_HEADER_SIZE + align_up(len, RECORD_ALIGN);
        if pos + total > bytes.len() {
            break;
        }
        let payload = &bytes[pos + RECORD_HEADER_SIZE..pos + RECORD_HEADER_SIZE + len];
        if checksum != record_checksum(seq, payload) {
            break;
        }
        let Some(op) = decode_op(payload) else {
            return Err(PmError::Corruption(format!(
                "metadata WAL record seq {seq} at byte {pos} is intact but not decodable by \
                 this build (payload starts {:02x?}, expected version byte \
                 {WAL_BINARY_VERSION:#04x}); written by another daemon version — see \
                 WAL_BINARY_VERSION for the upgrade rule",
                &payload[..payload.len().min(2)]
            )));
        };
        ops.push((seq, op));
        pos += total;
    }
    Ok((ops, pos))
}

/// WAL health/statistics snapshot reported through `Stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes of WAL not yet covered by a checkpoint (including buffered,
    /// not-yet-flushed records).
    pub bytes: u64,
    /// Records not yet covered by a checkpoint.
    pub records: u64,
    /// Checkpoints written since the daemon started.
    pub checkpoints: u64,
    /// Milliseconds since the last checkpoint (or since startup).
    pub checkpoint_age_ms: u64,
}

/// Mutable WAL state: the enqueue buffer and the group-commit bookkeeping.
///
/// Positions are *logical stream offsets*: byte 0 is the start of the WAL
/// file as it existed when the daemon opened it, and truncation records the
/// new logical offset of the file's first byte in `file_base`, so a
/// checkpoint cut taken before a truncation stays meaningful after it.
#[derive(Debug)]
struct WalState {
    /// Encoded records enqueued but not yet written to the file.
    buf: Vec<u8>,
    /// Commit ticket of the most recently enqueued record.
    pending_hi: u64,
    /// Every ticket up to this value is durable (fsynced, or superseded by
    /// a checkpoint).
    durable_hi: u64,
    /// `true` while a group-commit leader (or a truncation) owns the file.
    syncing: bool,
    /// Logical end of the WAL stream (file + buffer).
    stream_pos: u64,
    /// Logical offset of the file's first byte.
    file_base: u64,
    /// Sequence number the next record will carry; never decreases, even
    /// across truncations.
    next_seq: u64,
    /// Records currently in the WAL (file tail + buffer).
    records: u64,
    /// Set when a write failed (or a crash was injected): the in-memory
    /// registry may be ahead of the log, so all further WAL traffic is
    /// refused and the daemon must restart and recover.
    poisoned: bool,
    /// Clock reading when the WAL was last truncated by a checkpoint.
    last_checkpoint: Duration,
    /// Checkpoints completed since open.
    checkpoints: u64,
}

/// The append-only metadata WAL (see the module docs).
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    /// The file handle; held only by the current group-commit leader (or a
    /// truncation), never while `state` waits, so enqueues proceed during
    /// an fsync — that is what makes commits batch.
    io: Mutex<File>,
    state: Mutex<WalState>,
    /// Signalled when `durable_hi` advances or the leader role frees up.
    durable: Condvar,
    checkpoint_threshold: AtomicU64,
    /// Explicit hard ceiling; 0 means "threshold × [`DEFAULT_HARD_CEILING_FACTOR`]".
    checkpoint_hard_ceiling: AtomicU64,
    /// The records decoded by [`Wal::open`]'s torn-tail scan, retained so
    /// the registry's replay does not read and decode the file a second
    /// time; taken once by [`Wal::take_initial_replay`].
    initial_replay: Mutex<Option<Vec<(u64, RegistryOp)>>>,
    /// Fault-injection plan inherited from the `PmDir` this WAL was opened
    /// in (torture harness only; `None` in production).
    fault: Option<Arc<FaultPlan>>,
    /// Robustness counters shared with the owning `PmDir` (and through it,
    /// the daemon's `Stats` response).
    io_stats: Arc<IoStats>,
    /// Time source for checkpoint age/staleness; virtual under torture.
    clock: Clock,
    /// Observability hub: group-commit flush latency lands in the
    /// `wal.flush` series, each durable batch in the trace ring. The
    /// registry borrows this handle for checkpoint/coalesce timing too.
    obs: Arc<Metrics>,
}

impl Wal {
    /// Opens (creating if necessary) the WAL inside `pmdir`.
    ///
    /// A torn tail left by a crash is truncated away *now*, before any new
    /// append could bury it mid-file where replay would discard everything
    /// after it. A checksum-valid record this build cannot decode fails the
    /// open instead, leaving the file as it was (see
    /// [`WAL_BINARY_VERSION`]).
    pub fn open(pmdir: &PmDir) -> Result<Wal> {
        Wal::open_with_clock(pmdir, Clock::real())
    }

    /// [`Wal::open`], reading checkpoint age from `clock` — virtual under
    /// the torture harness so staleness is part of the replayed timeline.
    pub fn open_with_clock(pmdir: &PmDir, clock: Clock) -> Result<Wal> {
        let obs = Metrics::new(clock.clone());
        Wal::open_with_obs(pmdir, clock, obs)
    }

    /// [`Wal::open_with_clock`], recording into an existing observability
    /// hub (the daemon's, so WAL series merge into one `GetMetrics` view).
    pub fn open_with_obs(pmdir: &PmDir, clock: Clock, obs: Arc<Metrics>) -> Result<Wal> {
        let path = pmdir.meta_path(WAL_FILE);
        let existing = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(PmError::Io(e)),
        };
        let (records, valid_len) = decode_records(&existing)?;
        if valid_len < existing.len() {
            let tmp = pmdir.meta_path(&format!("{WAL_FILE}.tmp"));
            let mut file = File::create(&tmp)?;
            file.write_all(&existing[..valid_len])?;
            file.sync_all()?;
            fs::rename(&tmp, &path)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let next_seq = records.last().map(|(seq, _)| seq + 1).unwrap_or(0);
        Ok(Wal {
            path,
            io: Mutex::new(file),
            state: Mutex::new(WalState {
                buf: Vec::new(),
                pending_hi: 0,
                durable_hi: 0,
                syncing: false,
                stream_pos: valid_len as u64,
                file_base: 0,
                next_seq,
                records: records.len() as u64,
                poisoned: false,
                last_checkpoint: clock.now(),
                checkpoints: 0,
            }),
            durable: Condvar::new(),
            checkpoint_threshold: AtomicU64::new(DEFAULT_CHECKPOINT_BYTES),
            checkpoint_hard_ceiling: AtomicU64::new(0),
            initial_replay: Mutex::new(Some(records)),
            fault: pmdir.fault_plan().cloned(),
            io_stats: Arc::clone(pmdir.io_stats()),
            clock,
            obs,
        })
    }

    /// The WAL's time source (the daemon's clock; virtual under torture).
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The observability hub this WAL records into.
    pub fn obs(&self) -> &Arc<Metrics> {
        &self.obs
    }

    /// Takes the replay set decoded when the WAL was opened (every valid
    /// `(seq, op)` record that was on disk). The registry consumes this
    /// once at load, before the first append; later callers who need the
    /// current contents use [`Wal::pending_replay`].
    pub fn take_initial_replay(&self) -> Vec<(u64, RegistryOp)> {
        self.initial_replay
            .lock()
            .unwrap()
            .take()
            .unwrap_or_default()
    }

    fn poisoned_err() -> PmError {
        PmError::Corruption(
            "metadata WAL poisoned by an earlier write failure; restart to recover".into(),
        )
    }

    /// Reads every valid `(seq, op)` record currently in the WAL (the
    /// replay set for recovery). Call before the first append.
    pub fn pending_replay(&self) -> Result<Vec<(u64, RegistryOp)>> {
        let bytes = match fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(PmError::Io(e)),
        };
        Ok(decode_records(&bytes)?.0)
    }

    /// Raises the record sequence floor (called with the checkpoint's
    /// recorded floor before the first append, so records written after a
    /// crash-interrupted checkpoint can never be mistaken for records the
    /// checkpoint already covers).
    pub fn ensure_seq_at_least(&self, floor: u64) {
        let mut state = self.state.lock().unwrap();
        state.next_seq = state.next_seq.max(floor);
    }

    /// Enqueues one record, returning its commit ticket. The record is
    /// *not* durable until [`Wal::flush`] (or a later ticket's flush)
    /// returns.
    ///
    /// Call while holding the registry shard lock that serializes the
    /// mutation, so conflicting ops enqueue in their application order.
    /// A record that cannot be enqueued (encode failure, oversized payload)
    /// **poisons** the WAL: the caller has typically already mutated the
    /// in-memory tables, so the log can no longer represent them — every
    /// later flush must fail rather than acknowledge a lost mutation.
    pub fn submit(&self, op: &RegistryOp) -> Result<u64> {
        let payload = encode_op(op);
        if payload.len() > MAX_RECORD {
            self.state.lock().unwrap().poisoned = true;
            self.durable.notify_all();
            return Err(PmError::Corruption("wal record too large".into()));
        }
        let mut state = self.state.lock().unwrap();
        if state.poisoned {
            return Err(Self::poisoned_err());
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let rec = encode_record(seq, &payload);
        state.stream_pos += rec.len() as u64;
        state.buf.extend_from_slice(&rec);
        state.records += 1;
        state.pending_hi += 1;
        Ok(state.pending_hi)
    }

    /// Makes every record enqueued so far durable (group commit): the first
    /// caller to find no leader becomes one, writes the whole buffered
    /// batch, and fsyncs once; everyone else blocks until their ticket is
    /// covered.
    pub fn flush(&self) -> Result<()> {
        let target = self.state.lock().unwrap().pending_hi;
        self.wait_durable(target)
    }

    fn wait_durable(&self, target: u64) -> Result<()> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.durable_hi >= target {
                return Ok(());
            }
            if state.poisoned {
                return Err(Self::poisoned_err());
            }
            if !state.syncing {
                // Become the leader: take the batch and release the state
                // lock so later mutators keep enqueuing while we fsync.
                state.syncing = true;
                let batch = std::mem::take(&mut state.buf);
                let hi = state.pending_hi;
                let covered = hi - state.durable_hi;
                drop(state);
                let flush_start = self.clock.now();
                let result = self.write_batch(&batch);
                if result.is_ok() {
                    self.obs
                        .series("wal.flush")
                        .record_duration(self.clock.now() - flush_start);
                    self.obs
                        .trace(TraceEventKind::WalCommit, "", covered, batch.len() as u64);
                }
                state = self.state.lock().unwrap();
                state.syncing = false;
                match result {
                    Ok(()) => state.durable_hi = state.durable_hi.max(hi),
                    Err(e) => {
                        state.poisoned = true;
                        self.durable.notify_all();
                        return Err(e);
                    }
                }
                self.durable.notify_all();
            } else {
                state = self.durable.wait(state).unwrap();
            }
        }
    }

    /// Writes one batch and fsyncs it; the single place crash injection
    /// tears group commits.
    ///
    /// Transient I/O failures (injected EIO, short writes) are absorbed by
    /// a bounded retry loop: the file is wound back to the batch start and
    /// the whole batch re-appended, so a retried batch is never duplicated
    /// or interleaved. ENOSPC and non-transient errors surface immediately
    /// — the caller poisons the WAL, which is the correct degradation when
    /// durability can no longer be promised.
    fn write_batch(&self, batch: &[u8]) -> Result<()> {
        let mut file = self.io.lock().unwrap();
        if failpoint::should_fail(names::WAL_MID_GROUP_COMMIT) {
            // Persist only a prefix of the batch: earlier records of the
            // group survive, the record the cut lands in is torn.
            let cut = batch.len() / 2;
            file.write_all(&batch[..cut])?;
            let _ = file.sync_data();
            return Err(PmError::CrashInjected(names::WAL_MID_GROUP_COMMIT));
        }
        if failpoint::should_fail(names::WAL_APPEND_TORN) {
            // Lose the tail of the last record only.
            let cut = batch.len() - (batch.len() / 4).max(1).min(batch.len());
            file.write_all(&batch[..cut])?;
            let _ = file.sync_data();
            return Err(PmError::CrashInjected(names::WAL_APPEND_TORN));
        }
        let start = file.metadata()?.len();
        let mut attempt = 0usize;
        loop {
            match self.write_batch_once(&mut file, batch) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let transient = matches!(&e, PmError::Io(io) if faultio::is_transient_io(io));
                    if transient && attempt < MAX_IO_RETRIES {
                        attempt += 1;
                        self.io_stats.note_retry();
                        // Wind back to the batch start; the file is in
                        // append mode, so the retry re-appends from there.
                        file.set_len(start)?;
                        continue;
                    }
                    if matches!(e, PmError::NoSpace(_)) {
                        self.io_stats.note_enospc();
                        // Drop any partial write so the tail stays clean.
                        let _ = file.set_len(start);
                    } else if transient {
                        self.io_stats.note_transient();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One physical append + fsync attempt, consulting the fault plan (if
    /// any) before touching the file and before syncing it.
    fn write_batch_once(&self, file: &mut File, batch: &[u8]) -> Result<()> {
        if let Some(plan) = &self.fault {
            match plan.on_write(FaultSite::WalWrite, batch.len()) {
                Some(WriteFault::Eio) => return Err(faultio::eio(FaultSite::WalWrite).into()),
                Some(WriteFault::Enospc) => return Err(faultio::enospc().into()),
                Some(WriteFault::Short(keep)) => {
                    // A torn append: part of the batch reaches the file,
                    // then the device errors out.
                    file.write_all(&batch[..keep])?;
                    let _ = file.sync_data();
                    return Err(faultio::eio(FaultSite::WalWrite).into());
                }
                None => {}
            }
        }
        file.write_all(batch)?;
        if let Some(plan) = &self.fault {
            match plan.on_sync(FaultSite::WalSync) {
                Some(SyncFault::Eio) => return Err(faultio::eio(FaultSite::WalSync).into()),
                // A dropped fsync: report success without the barrier. In
                // this in-process simulation the data still reaches the
                // file (there is no page cache to lose), so the fault is
                // observable only in the trace.
                Some(SyncFault::Dropped) => return Ok(()),
                None => {}
            }
        }
        file.sync_data()?;
        Ok(())
    }

    /// Logical end-of-stream position and next record sequence — the
    /// checkpoint *cut*. Call while holding every registry shard lock so
    /// the cut is a consistent snapshot boundary: every record at a
    /// position below the cut is reflected in the snapshot, every one at
    /// or above it is not.
    pub fn position(&self) -> (u64, u64) {
        let state = self.state.lock().unwrap();
        (state.stream_pos, state.next_seq)
    }

    /// Drops every record below the checkpoint cut — `cut_pos` bytes,
    /// `cut_seq` record sequence, both captured together by
    /// [`Wal::position`] — keeping records enqueued after it (they are not
    /// covered by the checkpoint).
    ///
    /// Acts as an exclusive writer (same protocol as a group-commit
    /// leader): flushes the buffered batch, rewrites the file as its
    /// post-cut tail via write-temp + rename, and marks everything up to
    /// the cut durable — pre-cut records are now covered by the checkpoint,
    /// post-cut ones by the fsynced rewrite.
    pub fn truncate_to(&self, cut_pos: u64, cut_seq: u64) -> Result<()> {
        let mut state = self.state.lock().unwrap();
        loop {
            if state.poisoned {
                return Err(Self::poisoned_err());
            }
            if !state.syncing {
                break;
            }
            state = self.durable.wait(state).unwrap();
        }
        state.syncing = true;
        let batch = std::mem::take(&mut state.buf);
        let hi = state.pending_hi;
        let file_base = state.file_base;
        drop(state);

        let result = (|| -> Result<()> {
            let mut file = self.io.lock().unwrap();
            if !batch.is_empty() {
                file.write_all(&batch)?;
            }
            let bytes = fs::read(&self.path)?;
            let keep_from = ((cut_pos - file_base) as usize).min(bytes.len());
            let tmp = self.path.with_extension("wal.tmp");
            {
                let mut tf = File::create(&tmp)?;
                tf.write_all(&bytes[keep_from..])?;
                tf.sync_all()?;
            }
            fs::rename(&tmp, &self.path)?;
            *file = OpenOptions::new().append(true).open(&self.path)?;
            Ok(())
        })();

        let mut state = self.state.lock().unwrap();
        state.syncing = false;
        match &result {
            Ok(()) => {
                state.durable_hi = state.durable_hi.max(hi);
                state.file_base = cut_pos;
                // Sequence numbers count records along the stream, so the
                // surviving record count — including any enqueued while we
                // rotated, which sit after the cut — is just the sequence
                // distance from the cut; no re-decode needed.
                state.records = state.next_seq - cut_seq;
                state.last_checkpoint = self.clock.now();
                state.checkpoints += 1;
            }
            Err(_) => state.poisoned = true,
        }
        self.durable.notify_all();
        result
    }

    /// `true` once the uncheckpointed WAL exceeds the configured threshold.
    pub fn should_checkpoint(&self) -> bool {
        let threshold = self.checkpoint_threshold.load(Ordering::Relaxed);
        let state = self.state.lock().unwrap();
        !state.poisoned && state.stream_pos - state.file_base >= threshold
    }

    /// Sets the WAL size at which the registry checkpoints (tests and
    /// benchmarks use small values to exercise the checkpoint path).
    pub fn set_checkpoint_threshold(&self, bytes: u64) {
        self.checkpoint_threshold.store(bytes, Ordering::Relaxed);
    }

    /// `true` once the uncheckpointed WAL has outgrown the hard ceiling —
    /// the point where deferring to a background checkpoint stops being
    /// acceptable and the triggering request must absorb the latency.
    pub fn past_hard_ceiling(&self) -> bool {
        let explicit = self.checkpoint_hard_ceiling.load(Ordering::Relaxed);
        let ceiling = if explicit != 0 {
            explicit
        } else {
            self.checkpoint_threshold
                .load(Ordering::Relaxed)
                .saturating_mul(DEFAULT_HARD_CEILING_FACTOR)
        };
        let state = self.state.lock().unwrap();
        !state.poisoned && state.stream_pos - state.file_base >= ceiling
    }

    /// Overrides the hard ceiling (0 restores the default of threshold ×
    /// [`DEFAULT_HARD_CEILING_FACTOR`]).
    pub fn set_checkpoint_hard_ceiling(&self, bytes: u64) {
        self.checkpoint_hard_ceiling.store(bytes, Ordering::Relaxed);
    }

    /// Current WAL statistics.
    pub fn stats(&self) -> WalStats {
        let state = self.state.lock().unwrap();
        WalStats {
            bytes: state.stream_pos - state.file_base,
            records: state.records,
            checkpoints: state.checkpoints,
            checkpoint_age_ms: self
                .clock
                .now()
                .saturating_sub(state.last_checkpoint)
                .as_millis() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puddles_proto::PuddlePurpose;

    fn sample_op(n: u64) -> RegistryOp {
        RegistryOp::PutPuddle(PuddleRecord {
            id: PuddleId(n as u128),
            size: 4096,
            offset: 4096 * n,
            file: format!("{n:032x}"),
            purpose: PuddlePurpose::Data,
            owner_uid: 1,
            owner_gid: 1,
            mode: 0o600,
            pool: None,
            needs_rewrite: false,
            translations: vec![],
        })
    }

    fn wal() -> (tempfile::TempDir, PmDir, Wal) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let wal = Wal::open(&pm).unwrap();
        (tmp, pm, wal)
    }

    /// Every `RegistryOp` variant, with the fiddly fields populated.
    fn all_ops() -> Vec<RegistryOp> {
        vec![
            RegistryOp::PutPuddle(PuddleRecord {
                id: PuddleId(0xDEAD_BEEF_0123),
                size: 1 << 20,
                offset: 4096,
                file: "0000deadbeef".into(),
                purpose: PuddlePurpose::LogSpace,
                owner_uid: 1000,
                owner_gid: 1001,
                mode: 0o640,
                pool: Some("pool-ü".into()),
                needs_rewrite: true,
                translations: vec![
                    Translation {
                        old_addr: 1,
                        new_addr: 2,
                        len: 3,
                    },
                    Translation {
                        old_addr: u64::MAX,
                        new_addr: 0,
                        len: 7,
                    },
                ],
            }),
            RegistryOp::DropPuddle {
                id: PuddleId(u128::MAX),
            },
            RegistryOp::PutPool(PoolRecord {
                name: String::new(),
                root: PuddleId(9),
                puddles: vec![PuddleId(9), PuddleId(10)],
            }),
            RegistryOp::DropPool { name: "p".into() },
            RegistryOp::AddPoolMember {
                pool: "q".into(),
                id: PuddleId(11),
            },
            RegistryOp::RemovePoolMember {
                pool: "q".into(),
                id: PuddleId(11),
            },
            RegistryOp::PutPtrMap(PtrMapDecl {
                type_id: 42,
                type_name: "crate::Node".into(),
                size: 24,
                fields: vec![PtrField {
                    offset: 8,
                    target_type: 42,
                }],
            }),
            RegistryOp::PutLogSpace(LogSpaceRecord {
                puddle: PuddleId(77),
                owner_uid: 3,
                owner_gid: 4,
                invalid: true,
            }),
            RegistryOp::InvalidateLogSpace {
                puddle: PuddleId(77),
            },
        ]
    }

    #[test]
    fn binary_encoding_roundtrips_every_variant() {
        for op in all_ops() {
            let payload = encode_op(&op);
            assert_eq!(payload[0], WAL_BINARY_VERSION);
            let back = decode_op(&payload).unwrap_or_else(|| panic!("decode failed for {op:?}"));
            assert_eq!(back, op);
        }
    }

    #[test]
    fn binary_decoding_rejects_truncated_and_oversized_payloads() {
        for op in all_ops() {
            let payload = encode_op(&op);
            // Any strict prefix must fail (no partial decode)...
            for cut in 1..payload.len() {
                assert!(
                    decode_op(&payload[..cut]).is_none(),
                    "prefix {cut} of {op:?} decoded"
                );
            }
            // ...and so must trailing garbage.
            let mut long = payload.clone();
            long.push(0);
            assert!(decode_op(&long).is_none());
        }
        assert!(decode_op(&[]).is_none());
        assert!(decode_op(&[WAL_BINARY_VERSION, 0xEE]).is_none());
        // The reserved tags stay undecodable under the current version too.
        for reserved in [10, 11] {
            let mut payload = vec![WAL_BINARY_VERSION, reserved];
            payload.extend_from_slice(&[0; 16]);
            assert!(decode_op(&payload).is_none());
        }
    }

    /// A record that passes its checksum but is not this build's encoding
    /// (another version byte, a version `0x01` extent grant, or a pre-binary
    /// daemon's JSON payload) is not a torn tail: opening must fail and
    /// leave every byte in place, not truncate the record and the good one
    /// behind it.
    #[test]
    fn undecodable_checksum_valid_record_fails_open_and_keeps_the_file() {
        let mut future = encode_op(&sample_op(5));
        future[0] = 0x7f;
        // What a `0x01` daemon logged per grant: tag 10, offset, length.
        let mut v1_grant = vec![0x01, 10];
        v1_grant.extend_from_slice(&(1u64 << 30).to_le_bytes());
        v1_grant.extend_from_slice(&4096u64.to_le_bytes());
        let json = serde_json::to_vec(&sample_op(5)).unwrap();
        for foreign in [future, v1_grant, json] {
            let mut bytes = encode_record(0, &encode_op(&sample_op(4)));
            bytes.extend_from_slice(&encode_record(1, &foreign));
            bytes.extend_from_slice(&encode_record(2, &encode_op(&sample_op(6))));
            assert!(decode_records(&bytes).is_err());

            let tmp = tempfile::tempdir().unwrap();
            let pm = PmDir::open(tmp.path()).unwrap();
            let path = pm.meta_path(WAL_FILE);
            fs::write(&path, &bytes).unwrap();
            match Wal::open(&pm) {
                Err(PmError::Corruption(msg)) => assert!(msg.contains("seq 1"), "{msg}"),
                other => panic!("expected a corruption error, got {other:?}"),
            }
            assert_eq!(fs::read(&path).unwrap(), bytes, "open must not heal it");
        }
    }

    #[test]
    fn binary_records_are_much_smaller_than_json() {
        // PutPuddle carries a 32-char file name, so the string dominates
        // and the shrink is ~2.6x; ops without long strings shrink more.
        let op = sample_op(7);
        let json = serde_json::to_vec(&op).unwrap().len();
        let binary = encode_op(&op).len();
        assert!(
            binary * 2 <= json,
            "expected >= 2x shrink, got json {json} B vs binary {binary} B"
        );
        let op = RegistryOp::AddPoolMember {
            pool: "p".into(),
            id: PuddleId(1 << 100),
        };
        let json = serde_json::to_vec(&op).unwrap().len();
        let binary = encode_op(&op).len();
        assert!(
            binary * 2 <= json,
            "AddPoolMember: json {json} B vs binary {binary} B"
        );
    }

    #[test]
    fn record_roundtrip_and_alignment() {
        let payload = encode_op(&sample_op(7));
        let rec = encode_record(3, &payload);
        assert_eq!(rec.len() % RECORD_ALIGN, 0);
        let (ops, consumed) = decode_records(&rec).unwrap();
        assert_eq!(consumed, rec.len());
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].0, 3);
        assert_eq!(ops[0].1, sample_op(7));
    }

    #[test]
    fn torn_tail_is_discarded_but_prefix_survives() {
        let a = encode_record(0, &encode_op(&sample_op(1)));
        let b = encode_record(1, &encode_op(&sample_op(2)));
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b[..b.len() - 5]);
        let (ops, consumed) = decode_records(&bytes).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(consumed, a.len());

        // A bit flip in the second record's payload also stops the scan.
        let mut bytes = a.clone();
        let mut bad = b.clone();
        let n = bad.len();
        bad[n - RECORD_ALIGN] ^= 0x40;
        bytes.extend_from_slice(&bad);
        let (ops, _) = decode_records(&bytes).unwrap();
        assert!(ops.len() <= 1);
    }

    #[test]
    fn append_flush_and_replay_roundtrip() {
        let (_tmp, pm, wal) = wal();
        for n in 0..10 {
            wal.submit(&sample_op(n)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);

        let wal = Wal::open(&pm).unwrap();
        let ops = wal.pending_replay().unwrap();
        assert_eq!(ops.len(), 10);
        for (n, (seq, op)) in ops.iter().enumerate() {
            assert_eq!(*seq, n as u64);
            assert_eq!(*op, sample_op(n as u64));
        }
        // Sequence numbers continue after the replayed records.
        assert_eq!(wal.position().1, 10);
    }

    #[test]
    fn open_heals_a_torn_tail_on_disk() {
        let (_tmp, pm, wal) = wal();
        wal.submit(&sample_op(1)).unwrap();
        wal.submit(&sample_op(2)).unwrap();
        wal.flush().unwrap();
        drop(wal);

        // Tear the last record by chopping bytes off the file.
        let path = pm.meta_path(WAL_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();

        let wal = Wal::open(&pm).unwrap();
        assert_eq!(wal.pending_replay().unwrap().len(), 1);
        // New appends land after the healed prefix, not after the garbage.
        wal.submit(&sample_op(3)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let wal = Wal::open(&pm).unwrap();
        let ops: Vec<RegistryOp> = wal
            .pending_replay()
            .unwrap()
            .into_iter()
            .map(|(_, op)| op)
            .collect();
        assert_eq!(ops, vec![sample_op(1), sample_op(3)]);
    }

    #[test]
    fn truncate_keeps_only_records_after_the_cut() {
        let (_tmp, pm, wal) = wal();
        wal.submit(&sample_op(1)).unwrap();
        wal.flush().unwrap();
        let (cut_pos, cut_seq) = wal.position();
        wal.submit(&sample_op(2)).unwrap();
        wal.truncate_to(cut_pos, cut_seq).unwrap();
        assert_eq!(wal.stats().checkpoints, 1);
        assert_eq!(wal.stats().records, 1);
        drop(wal);

        let wal = Wal::open(&pm).unwrap();
        let ops: Vec<RegistryOp> = wal
            .pending_replay()
            .unwrap()
            .into_iter()
            .map(|(_, op)| op)
            .collect();
        assert_eq!(ops, vec![sample_op(2)]);
    }

    #[test]
    fn group_commit_batches_concurrent_mutators() {
        let (_tmp, _pm, wal) = wal();
        let wal = Arc::new(wal);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    for n in 0..25 {
                        wal.submit(&sample_op(t * 100 + n)).unwrap();
                        wal.flush().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.stats().records, 200);
        assert_eq!(wal.pending_replay().unwrap().len(), 200);
    }

    #[test]
    fn transient_wal_faults_are_absorbed_by_retries() {
        use puddles_pmem::faultio::FaultProfile;
        let tmp = tempfile::tempdir().unwrap();
        // 6% per-attempt fault rate: frequent enough to fire many times
        // over 200 appends, low enough that 4 retries always clear it.
        let plan = FaultPlan::new(0xBADC_0FFE, FaultProfile::transient(60_000));
        let pm = PmDir::open(tmp.path())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        let wal = Wal::open(&pm).unwrap();
        for n in 0..200 {
            wal.submit(&sample_op(n)).unwrap();
            wal.flush().unwrap();
        }
        assert!(plan.injected() > 0, "fault plan never fired");
        assert!(pm.io_stats().io_retries() > 0, "retries not counted");

        // Quiesce injection and confirm every record survived intact.
        plan.set_enabled(false);
        assert_eq!(wal.pending_replay().unwrap().len(), 200);
        drop(wal);
        let reopened = Wal::open(&pm).unwrap();
        assert_eq!(reopened.take_initial_replay().len(), 200);
    }

    #[test]
    fn wal_enospc_surfaces_typed_without_partial_tail() {
        use puddles_pmem::faultio::FaultProfile;
        let tmp = tempfile::tempdir().unwrap();
        let profile = FaultProfile {
            write_enospc_ppm: 1_000_000,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::new(7, profile);
        let pm = PmDir::open(tmp.path())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        let wal = Wal::open(&pm).unwrap();
        wal.submit(&sample_op(1)).unwrap();
        let err = wal.flush().unwrap_err();
        assert!(matches!(err, PmError::NoSpace(_)), "got {err:?}");
        assert_eq!(pm.io_stats().enospc_rejections(), 1);

        // The full-device WAL is poisoned (durability can't be promised)
        // and the on-disk tail holds no partial record.
        plan.set_enabled(false);
        assert!(wal.flush().is_err());
        drop(wal);
        let reopened = Wal::open(&pm).unwrap();
        assert_eq!(reopened.take_initial_replay().len(), 0);
    }

    #[test]
    fn apply_op_tracks_next_seq_across_drops() {
        let mut data = RegistryData::default();
        apply_op(&mut data, &sample_op(1));
        apply_op(&mut data, &RegistryOp::DropPuddle { id: PuddleId(1) });
        assert!(data.puddles.is_empty());
        // next_seq tracks created ids even after drops.
        assert_eq!(data.next_seq, 1);
    }
}
