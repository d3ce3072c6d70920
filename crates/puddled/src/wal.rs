//! The metadata WAL: the registry's one persistent file.
//!
//! The paper's daemon keeps its metadata in a persistent hash map so each
//! mutation persists incrementally (§4.2). Here that is one append-only
//! file, `meta/registry.wal`:
//!
//! * **a record is a request**: every registry transaction
//!   ([`crate::registry::Registry::transact`]) appends one checksummed,
//!   length-prefixed record holding *all* of its [`RegistryOp`]s (framing
//!   modeled on `puddles_logfmt::entry`: the checksum covers the header
//!   fields and the payload, so a torn append is detected and the tail
//!   discarded — the whole request, never half of it) — O(request) per
//!   mutation;
//! * **group commit**: concurrent mutators enqueue records under the
//!   registry's write lock and a single *leader* thread writes and fsyncs
//!   the whole batch, so N concurrent requests cost one `fdatasync`;
//! * a **checkpoint is a compaction** ([`Wal::compact`]): past a byte
//!   threshold the registry atomically replaces the file with `[Snapshot
//!   header][one Put* record per live table entry][the records enqueued
//!   after the snapshot's cut]` — a WAL that happens to be minimal, written
//!   by the workspace's one write-temp + fsync + rename
//!   ([`PmDir::write_meta`]): no second file, format or rename;
//! * recovery replays the file from its first byte (tolerating a torn
//!   final record) through [`apply_op`] — the function the live registry
//!   mutates through, so the two cannot diverge. Offline, the same
//!   `Wal::open(..)?.take_initial_replay()` lists every op (`Debug`).
//!
//! # Record layout
//!
//! ```text
//! [checksum: u64 LE][seq: u64 LE][len: u32 LE][pad: u32 = 0]
//! [payload: len bytes][zero pad to 8 bytes]
//! ```
//!
//! The payload is a version byte ([`WAL_BINARY_VERSION`]) followed by one
//! or more **binary-encoded** [`RegistryOp`]s back to back, decoded until
//! the payload is exhausted: each a variant tag, then the fields as
//! fixed-width little-endian integers and length-prefixed strings. A record
//! that passes its checksum but carries another version byte, an unknown
//! tag or trailing bytes was written by a different build: [`Wal::open`]
//! refuses the file rather than dropping it (see [`WAL_BINARY_VERSION`] for
//! the upgrade rule).
//!
//! `seq` counts records along the stream and never resets (the ops of one
//! record share its `seq`); a snapshot's records all carry the sequence of
//! their cut, so compacting an unchanged registry twice writes the same
//! bytes.
//!
//! Only an *append* can be torn. The snapshot span — the header and the
//! records it declares — was fsynced before its rename, so a short or
//! failed record there (or as the file's first record: a daemon's WAL
//! starts with its header) is damage: [`Wal::open`] fails and leaves the
//! file as it is, because healing it would drop the registry and the
//! startup sweep would then delete every puddle file.

use crate::registry::{LogSpaceRecord, PoolRecord, PuddleRecord, RegistryData, Rewrite};
use puddles_pmem::checksum::{fnv1a64, fnv1a64_with_seed};
use puddles_pmem::faultio::{CrashPoint, FaultSite};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result};
use puddles_proto::codec::{put_str, put_u128, put_u32, put_u64, Reader, Wire};
use puddles_proto::{PtrMapDecl, PuddleId};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use puddles_pmem::clock::Clock;
use puddles_pmem::obs::{Metrics, TraceEventKind};

/// Name of the WAL file inside the PM directory's `meta/` subdirectory.
pub const WAL_FILE: &str = "registry.wal";

/// Size of the on-disk record header in bytes.
pub const RECORD_HEADER_SIZE: usize = 24;

/// Payload alignment inside the WAL (matches `logfmt::ENTRY_ALIGN`).
const RECORD_ALIGN: usize = 8;

/// Upper bound on a single record's payload; guards decode against a
/// corrupt length prefix. A record is a request, so this also bounds what
/// one request may change: a transaction over it is refused, typed
/// ([`PmError::RecordTooLarge`]), before anything is logged or applied. The
/// request that gets there first is `ImportPool`, one fixed-size `PutPuddle`
/// (60 bytes + the pool's name) per member: about 240,000 puddles.
pub const MAX_RECORD: usize = 16 << 20;

/// Default size of the WAL's tail at which the registry compacts it.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 1 << 20;

/// A shared handle to the daemon's metadata WAL; `service` threads one
/// through the registry, and `GetMetrics` reads the tail from it there.
pub type WalHandle = Arc<Wal>;

/// One edit of one registry table; a request's transaction is a batch of
/// them in one WAL record.
///
/// Ops are **idempotent puts and removes** keyed like the registry tables,
/// and a record holds a whole request, so replaying a prefix of the WAL
/// (after a torn tail) always lands on a request boundary. The puts carry
/// every *stored* field of every table, so a snapshot is one put per live
/// entry; what the tables imply — member lists, file names, relocation
/// tables — no op carries.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryOp {
    /// Insert or replace a puddle record; its `pool` field is how a puddle
    /// joins a pool.
    PutPuddle(PuddleRecord),
    /// Remove a puddle record, and the puddle from its pool.
    DropPuddle {
        /// The removed puddle.
        id: PuddleId,
    },
    /// Create a pool, or re-root an existing one. A transaction puts a pool
    /// *before* the puddles that name it.
    PutPool {
        /// The pool's name.
        name: String,
        /// Its root puddle.
        root: PuddleId,
    },
    /// Remove a pool record; the transaction drops its members with it.
    DropPool {
        /// The removed pool's name.
        name: String,
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
    /// Header of a compacted WAL, written by [`Wal::compact`] only, as the
    /// file's first record: the registry fields no put op carries.
    Snapshot {
        /// Base address of the global space.
        space_base: u64,
        /// Size of the global space.
        space_size: u64,
        /// [`RegistryData::moved_from`]: the base before the last move.
        moved_from: u64,
        /// The registry's id counter at the cut.
        next_seq: u64,
        /// Bytes of snapshot records that follow; none may be torn.
        span_bytes: u64,
    },
}

/// A pool's member order: ascending sequence number (an id's low 64 bits),
/// the whole id breaking ties between ids of different daemons.
pub(crate) fn member_key(id: &PuddleId) -> (u64, u128) {
    (id.0 as u64, id.0)
}

/// Puts `id` into (`member`) or takes it out of the member index of `pool`,
/// at its sorted slot, if that pool is live.
fn set_member(data: &mut RegistryData, pool: Option<&str>, id: PuddleId, member: bool) {
    let Some(pool) = pool.and_then(|name| data.pools.get_mut(name)) else {
        return;
    };
    let slot = pool
        .puddles
        .binary_search_by_key(&member_key(&id), member_key);
    match (slot, member) {
        (Err(at), true) => pool.puddles.insert(at, id),
        (Ok(at), false) => drop(pool.puddles.remove(at)),
        _ => {}
    }
}

/// Applies one op to a registry state: the one implementation of every
/// table edit, run by replay on the state being loaded and by
/// [`crate::registry::Registry::transact`] on the live one.
///
/// `PutPuddle` and `DropPuddle` also keep the member index
/// `pools[..].puddles` in step with the records' `pool` fields — here and
/// nowhere else, so it is a function of the puddle table however a state
/// was reached, given the two rules every transaction keeps (and
/// [`crate::Invariants`] checks): a pool is put before the puddles naming
/// it and dropped with them. A member joins at its sorted slot: the end,
/// for ids in creation order and in the order [`snapshot_ops`] emits.
///
/// No op touches `free_list`/`next_offset`: the space allocator is never
/// persisted, and the reconcile pass that follows replay derives both from
/// the puddle table. Past the snapshot, `next_seq` follows the ids of created
/// puddles (they embed the daemon's sequence counter in their low 64 bits).
pub fn apply_op(data: &mut RegistryData, op: &RegistryOp) {
    match op {
        RegistryOp::PutPuddle(rec) => {
            data.next_seq = data.next_seq.max(rec.id.0 as u64);
            let old = data.puddles.insert(rec.id, rec.clone());
            let old_pool = old.as_ref().and_then(|old| old.pool.as_deref());
            if old.is_none() || old_pool != rec.pool.as_deref() {
                set_member(data, old_pool, rec.id, false);
                set_member(data, rec.pool.as_deref(), rec.id, true);
            }
        }
        RegistryOp::DropPuddle { id } => {
            if let Some(old) = data.puddles.remove(id) {
                set_member(data, old.pool.as_deref(), *id, false);
            }
        }
        RegistryOp::PutPool { name, root } => {
            let (root, puddles) = (*root, Vec::new());
            let new = || PoolRecord { root, puddles };
            data.pools.entry(name.clone()).or_insert_with(new).root = root;
        }
        RegistryOp::DropPool { name } => {
            data.pools.remove(name);
        }
        RegistryOp::PutPtrMap(decl) => {
            data.ptr_maps.insert(decl.type_id, decl.clone());
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
        RegistryOp::Snapshot {
            space_base,
            space_size,
            moved_from,
            next_seq,
            ..
        } => {
            data.space_base = *space_base;
            data.space_size = *space_size;
            data.moved_from = *moved_from;
            data.next_seq = data.next_seq.max(*next_seq);
        }
    }
}

/// The inverse of [`apply_op`]: the puts that rebuild `data`'s four tables
/// on an empty registry — the pools first, then the puddles in member
/// order, so replay appends each at the end of the index it joins and no
/// record grows with a pool. The derived `free_list`/`next_offset` have no
/// record; the scalars ride the header [`Wal::compact`] puts in front.
pub fn snapshot_ops(data: &RegistryData) -> impl Iterator<Item = RegistryOp> + '_ {
    let pools = data.pools.iter().map(|(name, pool)| RegistryOp::PutPool {
        name: name.clone(),
        root: pool.root,
    });
    let mut puddles: Vec<&PuddleRecord> = data.puddles.values().collect();
    puddles.sort_unstable_by_key(|rec| member_key(&rec.id));
    let puddles = puddles.into_iter().cloned().map(RegistryOp::PutPuddle);
    let ptr_maps = data.ptr_maps.values().cloned().map(RegistryOp::PutPtrMap);
    let log_spaces = data.log_spaces.iter().cloned().map(RegistryOp::PutLogSpace);
    pools.chain(puddles).chain(ptr_maps).chain(log_spaces)
}

// ---------------------------------------------------------------------
// Binary op encoding.
// ---------------------------------------------------------------------

/// First payload byte of every record: names the payload encoding.
///
/// **Upgrade rule: a PM directory does not move between builds with
/// different version bytes; its pools do.** The WAL is the daemon's whole
/// metadata, so no empty state can carry a directory across a format
/// change, and an in-place migration would keep every old load path alive
/// as a fork. Pools cross the way the paper ships them between machines:
/// `ExportPool` on the build that wrote the directory, `ImportPool` on the
/// new one (an export's `manifest.json` is independent of this format).
/// The rule enforces itself: [`Wal::open`] fails, with the directory
/// untouched, on a checksum-valid record it cannot decode and on the
/// `meta/registry.json` checkpoint of the builds before `0x03` — ignoring
/// that file would load an empty registry, and the startup sweep would
/// delete every puddle as an orphan.
///
/// `0x02` was `0x01` without the allocator's extent records (tags 10, 11);
/// `0x03` added the [`RegistryOp::Snapshot`] header (tag 12) and with it
/// retired the separate JSON checkpoint; `0x04` made a record a whole
/// request — several ops behind one version byte (a `0x03` tail may end
/// between the edits of one request, which only that build's load-time
/// healing could finish); `0x05` stopped storing what the puddle table
/// implies — `PutPuddle` traded file name and translation table for
/// `old_addr` and a rewrite state, `PutPool` and tags 5, 6 the member
/// list — and added `moved_from` to the header.
pub const WAL_BINARY_VERSION: u8 = 0x05;

/// Variant tags of the binary [`RegistryOp`] encoding. Stable on-disk
/// values: append only, never renumber.
mod tag {
    pub const PUT_PUDDLE: u8 = 1;
    pub const DROP_PUDDLE: u8 = 2;
    pub const PUT_POOL: u8 = 3;
    pub const DROP_POOL: u8 = 4;
    // 5 and 6 were the pool-membership delta ops up to version 0x04:
    // reserved, never reused.
    pub const PUT_PTR_MAP: u8 = 7;
    pub const PUT_LOG_SPACE: u8 = 8;
    pub const INVALIDATE_LOG_SPACE: u8 = 9;
    // 10 was version 0x01's `AllocExtent`: reserved, never reused.
    // 11 was version 0x01's `FreeExtent`: reserved, never reused.
    pub const SNAPSHOT: u8 = 12;
}

/// Encodes `ops` as one record payload — the version byte, then the ops back
/// to back — or refuses, typed, one over [`MAX_RECORD`].
pub fn encode_ops(ops: &[RegistryOp]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64 * ops.len());
    out.push(WAL_BINARY_VERSION);
    for op in ops {
        encode_op(&mut out, op);
    }
    if out.len() > MAX_RECORD {
        return Err(PmError::RecordTooLarge {
            len: out.len(),
            max: MAX_RECORD,
        });
    }
    Ok(out)
}

/// Appends one op — variant tag, then fields — to a payload.
fn encode_op(out: &mut Vec<u8>, op: &RegistryOp) {
    match op {
        RegistryOp::PutPuddle(rec) => {
            out.push(tag::PUT_PUDDLE);
            put_u128(out, rec.id.0);
            put_u64(out, rec.size);
            put_u64(out, rec.offset);
            rec.purpose.encode(out);
            put_u32(out, rec.owner_uid);
            put_u32(out, rec.owner_gid);
            put_u32(out, rec.mode);
            rec.pool.encode(out);
            put_u64(out, rec.old_addr);
            out.push(rec.rewrite as u8);
        }
        RegistryOp::DropPuddle { id } => {
            out.push(tag::DROP_PUDDLE);
            put_u128(out, id.0);
        }
        RegistryOp::PutPool { name, root } => {
            out.push(tag::PUT_POOL);
            put_str(out, name);
            put_u128(out, root.0);
        }
        RegistryOp::DropPool { name } => {
            out.push(tag::DROP_POOL);
            put_str(out, name);
        }
        RegistryOp::PutPtrMap(decl) => {
            out.push(tag::PUT_PTR_MAP);
            decl.encode(out);
        }
        RegistryOp::PutLogSpace(rec) => {
            out.push(tag::PUT_LOG_SPACE);
            put_u128(out, rec.puddle.0);
            put_u32(out, rec.owner_uid);
            put_u32(out, rec.owner_gid);
            out.push(rec.invalid as u8);
        }
        RegistryOp::InvalidateLogSpace { puddle } => {
            out.push(tag::INVALIDATE_LOG_SPACE);
            put_u128(out, puddle.0);
        }
        RegistryOp::Snapshot {
            space_base,
            space_size,
            moved_from,
            next_seq,
            span_bytes,
        } => {
            out.push(tag::SNAPSHOT);
            put_u64(out, *space_base);
            put_u64(out, *space_size);
            put_u64(out, *moved_from);
            put_u64(out, *next_seq);
            put_u64(out, *span_bytes);
        }
    }
}

/// Decodes one record payload into its ops; `None` for anything but a
/// well-formed [`WAL_BINARY_VERSION`] record. One op that does not decode —
/// or bytes left over that are not an op: a writer/reader format mismatch —
/// fails the whole record rather than silently ignoring data.
pub fn decode_ops(payload: &[u8]) -> Option<Vec<RegistryOp>> {
    let mut r = Reader::new(payload);
    if r.u8()? != WAL_BINARY_VERSION {
        return None;
    }
    let mut ops = vec![decode_op(&mut r)?];
    while !r.done() {
        ops.push(decode_op(&mut r)?);
    }
    Some(ops)
}

/// Decodes the op at the reader's position.
fn decode_op(r: &mut Reader<'_>) -> Option<RegistryOp> {
    Some(match r.u8()? {
        tag::PUT_PUDDLE => RegistryOp::PutPuddle(PuddleRecord {
            id: PuddleId(r.u128()?),
            size: r.u64()?,
            offset: r.u64()?,
            purpose: Wire::decode(r)?,
            owner_uid: r.u32()?,
            owner_gid: r.u32()?,
            mode: r.u32()?,
            pool: Wire::decode(r)?,
            old_addr: r.u64()?,
            rewrite: match r.u8()? {
                0 => Rewrite::Clean,
                1 => Rewrite::Import,
                2 => Rewrite::BaseMove,
                _ => return None,
            },
        }),
        tag::DROP_PUDDLE => RegistryOp::DropPuddle {
            id: PuddleId(r.u128()?),
        },
        tag::PUT_POOL => RegistryOp::PutPool {
            name: r.string()?,
            root: PuddleId(r.u128()?),
        },
        tag::DROP_POOL => RegistryOp::DropPool { name: r.string()? },
        tag::PUT_PTR_MAP => RegistryOp::PutPtrMap(Wire::decode(r)?),
        tag::PUT_LOG_SPACE => RegistryOp::PutLogSpace(LogSpaceRecord {
            puddle: PuddleId(r.u128()?),
            owner_uid: r.u32()?,
            owner_gid: r.u32()?,
            invalid: r.bool()?,
        }),
        tag::INVALIDATE_LOG_SPACE => RegistryOp::InvalidateLogSpace {
            puddle: PuddleId(r.u128()?),
        },
        tag::SNAPSHOT => RegistryOp::Snapshot {
            space_base: r.u64()?,
            space_size: r.u64()?,
            moved_from: r.u64()?,
            next_seq: r.u64()?,
            span_bytes: r.u64()?,
        },
        _ => return None,
    })
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

/// `data` as the front of a compacted file: the [`RegistryOp::Snapshot`]
/// header, then the records of [`snapshot_ops`], all at sequence `cut_seq`.
/// Fails on a record over [`MAX_RECORD`] (an oversized pointer map: no put
/// grows with a pool), which [`Wal::open`] would refuse to read back.
fn encode_snapshot(data: &RegistryData, cut_seq: u64) -> Result<Vec<u8>> {
    let mut span = Vec::new();
    for op in snapshot_ops(data) {
        span.extend_from_slice(&encode_record(cut_seq, &encode_ops(&[op])?));
    }
    let header = RegistryOp::Snapshot {
        space_base: data.space_base,
        space_size: data.space_size,
        moved_from: data.moved_from,
        next_seq: data.next_seq,
        span_bytes: span.len() as u64,
    };
    let mut bytes = encode_record(cut_seq, &encode_ops(&[header])?);
    bytes.extend_from_slice(&span);
    Ok(bytes)
}

/// Decoded ops, each with the sequence number of its record, in file order.
type Records = Vec<(u64, RegistryOp)>;

/// The framed record at the start of `bytes` as `(seq, payload, bytes
/// occupied)`; `None` if it is incomplete, oversized or fails its checksum.
fn next_record(bytes: &[u8]) -> Option<(u64, &[u8], usize)> {
    let mut r = Reader::new(bytes);
    let (checksum, seq, len, _pad) = (r.u64()?, r.u64()?, r.u32()? as usize, r.u32()?);
    let payload = r.take(len)?;
    r.take(align_up(len, RECORD_ALIGN) - len)?;
    (len <= MAX_RECORD && checksum == record_checksum(seq, payload)).then_some((
        seq,
        payload,
        RECORD_HEADER_SIZE + align_up(len, RECORD_ALIGN),
    ))
}

/// Decodes the records in `bytes`, returning them with the number of bytes
/// they occupy and the length of the snapshot span (header included; 0 in a
/// WAL that was never compacted).
///
/// Past the span the scan stops at the first record that is incomplete or
/// fails its checksum — the torn tail after a crash. Inside the span, and
/// at the file's first record, the same failure is an error: those bytes
/// were fsynced before the rename that published them. So is, anywhere, a
/// record whose checksum holds but whose payload does not decode — the
/// bytes are exactly what some daemon wrote, and truncating there would
/// silently drop that record and every one after it.
fn decode_records(bytes: &[u8]) -> Result<(Records, usize, usize)> {
    let mut ops = Vec::new();
    let (mut pos, mut span_end) = (0usize, 0usize);
    while pos < bytes.len() {
        let Some((seq, payload, total)) = next_record(&bytes[pos..]) else {
            if pos > 0 && pos >= span_end {
                break;
            }
            return Err(PmError::Corruption(format!(
                "metadata WAL record at byte {pos} is short or fails its checksum inside the \
                 first record or the {span_end}-byte snapshot span: damage, not a torn append"
            )));
        };
        let Some(batch) = decode_ops(payload) else {
            return Err(PmError::Corruption(format!(
                "metadata WAL record seq {seq} at byte {pos} is intact but not decodable by \
                 this build (payload starts {:02x?}, expected version byte \
                 {WAL_BINARY_VERSION:#04x}); written by another daemon version — see \
                 WAL_BINARY_VERSION for the upgrade rule",
                &payload[..payload.len().min(2)]
            )));
        };
        let header = batch.iter().find_map(|op| match op {
            RegistryOp::Snapshot { span_bytes, .. } => Some(*span_bytes),
            _ => None,
        });
        if let Some(span_bytes) = header {
            span_end = usize::try_from(span_bytes).map_or(usize::MAX, |n| n.saturating_add(total));
            if pos != 0 || batch.len() != 1 || span_end > bytes.len() {
                return Err(PmError::Corruption(format!(
                    "metadata WAL snapshot header at byte {pos} spans to byte {span_end} of {}: \
                     only the first record may be one, alone in it, and its span is never cut short",
                    bytes.len()
                )));
            }
        }
        ops.extend(batch.into_iter().map(|op| (seq, op)));
        pos += total;
    }
    Ok((ops, pos, span_end))
}

/// The WAL's tail — what no checkpoint covers yet — as `GetMetrics`
/// reports it (`wal.tail_*`). How many checkpoints ran is the `checkpoint`
/// series' count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes of WAL not yet covered by a checkpoint (including buffered,
    /// not-yet-flushed records).
    pub bytes: u64,
    /// Records not yet covered by a checkpoint.
    pub records: u64,
}

/// Mutable WAL state: the enqueue buffer and the group-commit bookkeeping.
///
/// Positions are *logical stream offsets* into the tail: byte 0 is the
/// first record past the snapshot in the file the daemon opened, and a
/// compaction records the logical offset of the new file's first tail byte
/// in `tail_base`, so a cut taken before a compaction stays meaningful
/// after it. Position `p` sits at file byte `snapshot_len + p - tail_base`.
#[derive(Debug)]
struct WalState {
    /// Encoded records enqueued but not yet written to the file.
    buf: Vec<u8>,
    /// Commit ticket of the most recently enqueued record.
    pending_hi: u64,
    /// Every ticket up to this value is durable (fsynced, or folded into a
    /// snapshot).
    durable_hi: u64,
    /// `true` while a group-commit leader (or a compaction) owns the file.
    syncing: bool,
    /// Logical end of the WAL stream (file + buffer).
    stream_pos: u64,
    /// Logical offset of the file's first tail byte.
    tail_base: u64,
    /// Bytes the snapshot (header + span) occupies at the front of the
    /// file; 0 until the first compaction of a fresh WAL.
    snapshot_len: u64,
    /// Sequence number the next record will carry; never decreases, even
    /// across compactions.
    next_seq: u64,
    /// Sequence of the first record past the snapshot; the tail (file +
    /// buffer) holds `next_seq - cut_seq` records.
    cut_seq: u64,
    /// Set when a write failed (or a crash was injected): the in-memory
    /// registry may be ahead of the log, so all further WAL traffic is
    /// refused and the daemon must restart and recover.
    poisoned: bool,
}

/// The append-only metadata WAL (see the module docs).
#[derive(Debug)]
pub struct Wal {
    /// The directory the file lives in: its path, its I/O primitives, and
    /// the fault plan and I/O counters every layer of the daemon shares.
    pmdir: PmDir,
    /// The file handle; held only by the current group-commit leader (or a
    /// compaction), never while `state` waits, so enqueues proceed during
    /// an fsync — that is what makes commits batch.
    io: Mutex<File>,
    state: Mutex<WalState>,
    /// Signalled when `durable_hi` advances or the leader role frees up.
    durable: Condvar,
    checkpoint_threshold: AtomicU64,
    /// The records decoded by [`Wal::open`]'s scan, retained so the
    /// registry's replay does not read and decode the file a second time;
    /// taken once by [`Wal::take_initial_replay`].
    initial_replay: Mutex<Option<Records>>,
    /// Time source for flush and checkpoint latencies; virtual under
    /// torture.
    clock: Clock,
    /// Observability hub: group-commit flush latency lands in the
    /// `wal.flush` series, each durable batch in the trace ring. The
    /// registry borrows this handle for checkpoint timing too.
    obs: Arc<Metrics>,
}

impl Wal {
    /// Opens (creating if necessary) the WAL inside `pmdir`.
    ///
    /// A torn tail left by a crash is cut away *now*, before any new append
    /// could bury it mid-file where replay would discard everything after
    /// it. Damage inside the snapshot span, a checksum-valid record this
    /// build cannot decode, and the separate checkpoint file of a build
    /// that kept one (see [`WAL_BINARY_VERSION`]) fail the open instead,
    /// each before anything is written.
    pub fn open(pmdir: &PmDir) -> Result<Wal> {
        Wal::open_with_obs(pmdir, Clock::real(), Metrics::new(Clock::real()))
    }

    /// [`Wal::open`], timing with `clock` (virtual under the torture
    /// harness) and recording into an existing observability hub (the
    /// daemon's, so WAL series merge into one `GetMetrics` view).
    pub fn open_with_obs(pmdir: &PmDir, clock: Clock, obs: Arc<Metrics>) -> Result<Wal> {
        if pmdir.meta_path("registry.json").try_exists()? {
            return Err(PmError::Corruption(format!(
                "{} holds meta/registry.json, the checkpoint of a build before 0x03; this \
                 one reads {WAL_FILE} alone and would sweep every puddle as an orphan. Nothing \
                 was touched: move the pools with ExportPool on the old build and ImportPool \
                 on this one (upgrade rule: see WAL_BINARY_VERSION)",
                pmdir.root().display()
            )));
        }
        let path = pmdir.meta_path(WAL_FILE);
        let existing = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(PmError::Io(e)),
        };
        let (records, valid_len, snapshot_len) = decode_records(&existing)?;
        if valid_len < existing.len() {
            pmdir.write_meta(WAL_FILE, &existing[..valid_len])?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Sequences run on from the cut the file's first record carries (a
        // snapshot's records all carry theirs), one per tail record.
        let cut_seq = records.first().map_or(0, |(seq, _)| *seq);
        let next_seq = match records.last() {
            Some((seq, _)) if valid_len > snapshot_len => seq + 1,
            _ => cut_seq,
        };
        Ok(Wal {
            pmdir: pmdir.clone(),
            io: Mutex::new(file),
            state: Mutex::new(WalState {
                buf: Vec::new(),
                pending_hi: 0,
                durable_hi: 0,
                syncing: false,
                stream_pos: (valid_len - snapshot_len) as u64,
                tail_base: 0,
                snapshot_len: snapshot_len as u64,
                next_seq,
                cut_seq,
                poisoned: false,
            }),
            durable: Condvar::new(),
            checkpoint_threshold: AtomicU64::new(DEFAULT_CHECKPOINT_BYTES),
            initial_replay: Mutex::new(Some(records)),
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

    /// Takes the replay set decoded when the WAL was opened: every valid
    /// `(seq, op)` record that was on disk, the snapshot's first. The
    /// registry consumes this once at load; tests and tools read a WAL
    /// file offline with it.
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

    /// Enqueues `ops` as **one** record, returning its commit ticket. The
    /// record is *not* durable until [`Wal::flush`] (or a later ticket's
    /// flush) returns.
    ///
    /// The registry calls this under its write lock, before it applies the
    /// ops, so records enqueue in application order and a refusal here — a
    /// payload over [`MAX_RECORD`], a poisoned WAL — leaves tables, buffer
    /// and tickets as they were.
    pub fn submit_batch(&self, ops: &[RegistryOp]) -> Result<u64> {
        let payload = encode_ops(ops)?;
        let mut state = self.state.lock().unwrap();
        if state.poisoned {
            return Err(Self::poisoned_err());
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let rec = encode_record(seq, &payload);
        state.stream_pos += rec.len() as u64;
        state.buf.extend_from_slice(&rec);
        state.pending_hi += 1;
        Ok(state.pending_hi)
    }

    /// [`Wal::submit_batch`] of one op.
    pub fn submit(&self, op: &RegistryOp) -> Result<u64> {
        self.submit_batch(std::slice::from_ref(op))
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
    /// the directory's bounded retry budget: the file is wound back to the
    /// batch start and the whole batch re-appended, so a retried batch is
    /// never duplicated or interleaved. ENOSPC and non-transient errors
    /// surface immediately — the caller poisons the WAL, which is the
    /// correct degradation when durability can no longer be promised.
    fn write_batch(&self, batch: &[u8]) -> Result<()> {
        let guard = self.io.lock().unwrap();
        let mut file: &File = &guard;
        for (crash, cut) in [
            // Persist only a prefix of the batch: earlier records of the
            // group survive, the record the cut lands in is torn.
            (CrashPoint::WalMidGroupCommit, batch.len() / 2),
            // Lose the tail of the last record only.
            (
                CrashPoint::WalAppendTorn,
                batch.len() - (batch.len() / 4).max(1).min(batch.len()),
            ),
        ] {
            if self.pmdir.should_crash(crash) {
                file.write_all(&batch[..cut])?;
                let _ = file.sync_data();
                return Err(PmError::CrashInjected(crash.name()));
            }
        }
        let start = file.metadata()?.len();
        // Winds back to the batch start; the file is in append mode, so a
        // retry re-appends from there.
        let rewind = || {
            let _ = file.set_len(start);
        };
        let sites = (FaultSite::WalWrite, FaultSite::WalSync);
        let append = || self.pmdir.write_synced(file, batch, sites, File::sync_data);
        let result = self.pmdir.with_io_retries(append, rewind);
        if result.is_err() {
            // Whatever was not retried is not wound back yet.
            rewind();
        }
        result
    }

    /// Logical end-of-stream position and next record sequence — the
    /// checkpoint *cut*. Call while holding the registry's lock so the cut
    /// is a consistent snapshot boundary: every record at a position below
    /// the cut is reflected in the snapshot, every one at or above it is
    /// not.
    pub fn position(&self) -> (u64, u64) {
        let state = self.state.lock().unwrap();
        (state.stream_pos, state.next_seq)
    }

    /// Checkpoints by **compaction**: atomically replaces the file with
    /// `data`'s snapshot followed by every record at or past the cut —
    /// `cut_pos` bytes, `cut_seq` record sequence, both captured by
    /// [`Wal::position`] under the locks `data` was copied under.
    ///
    /// Acts as an exclusive writer (same protocol as a group-commit
    /// leader). On success every ticket issued so far is durable: folded
    /// into the snapshot, or in the fsynced new file behind it. A failure
    /// *before* the rename leaves the file, the buffer and every ticket as
    /// if the call had never started; only a failure to re-open the
    /// replaced file poisons (the old handle appends to an unlinked inode).
    pub fn compact(&self, data: &RegistryData, cut_pos: u64, cut_seq: u64) -> Result<()> {
        // Encoded before the writer role is taken: commits keep flowing.
        let snapshot = encode_snapshot(data, cut_seq)?;
        let path = self.pmdir.meta_path(WAL_FILE);
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
        // Offset of the cut in the logical stream from `tail_base` on: the
        // file's tail, then the batch that has not reached the file. A cut
        // before the tail wraps out of range.
        let keep = cut_pos.wrapping_sub(state.tail_base) as usize;
        let old_snapshot_len = state.snapshot_len as usize;
        drop(state);

        let mut file = self.io.lock().unwrap();
        let replaced = fs::read(&path).map_err(PmError::from).and_then(|old| {
            let tail = old.get(old_snapshot_len..).unwrap_or_default();
            let kept_tail = tail.get(keep..).unwrap_or_default();
            let Some(kept_batch) = batch.get(keep.saturating_sub(tail.len())..) else {
                return Err(PmError::Corruption("checkpoint cut outside the WAL".into()));
            };
            let bytes = [&snapshot[..], kept_tail, kept_batch].concat();
            self.pmdir.write_meta(WAL_FILE, &bytes)
        });
        let reopened = replaced.map(|()| OpenOptions::new().append(true).open(&path));

        let mut state = self.state.lock().unwrap();
        state.syncing = false;
        let result = match reopened {
            Err(e) => {
                // Records enqueued meanwhile sit behind the batch again; the
                // next group commit makes both durable.
                state.buf.splice(0..0, batch);
                Err(e)
            }
            Ok(Err(e)) => {
                state.poisoned = true;
                Err(e.into())
            }
            Ok(Ok(replacement)) => {
                *file = replacement;
                state.durable_hi = state.durable_hi.max(hi);
                state.tail_base = cut_pos;
                state.snapshot_len = snapshot.len() as u64;
                state.cut_seq = cut_seq;
                Ok(())
            }
        };
        self.durable.notify_all();
        result
    }

    /// `true` once the uncheckpointed WAL exceeds the configured threshold.
    pub fn should_checkpoint(&self) -> bool {
        let threshold = self.checkpoint_threshold.load(Ordering::Relaxed);
        let state = self.state.lock().unwrap();
        !state.poisoned && state.stream_pos - state.tail_base >= threshold
    }

    /// Sets the WAL size at which the registry checkpoints (tests and
    /// benchmarks use small values to exercise the checkpoint path).
    pub fn set_checkpoint_threshold(&self, bytes: u64) {
        self.checkpoint_threshold.store(bytes, Ordering::Relaxed);
    }

    /// The tail's current length.
    pub fn stats(&self) -> WalStats {
        let state = self.state.lock().unwrap();
        WalStats {
            bytes: state.stream_pos - state.tail_base,
            records: state.next_seq - state.cut_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puddles_pmem::faultio::{FaultPlan, FaultProfile};
    use puddles_proto::{PtrField, PuddlePurpose};

    impl Wal {
        /// Holds the state lock until the returned guard drops, so every
        /// append, group commit and [`Wal::stats`] waits for it.
        pub(crate) fn hold_state_lock(&self) -> impl Sized + '_ {
            self.state.lock().unwrap()
        }
    }

    fn sample_op(n: u64) -> RegistryOp {
        RegistryOp::PutPuddle(PuddleRecord {
            id: PuddleId(n as u128),
            size: 4096,
            offset: 4096 * n,
            purpose: PuddlePurpose::Data,
            owner_uid: 1,
            owner_gid: 1,
            mode: 0o600,
            pool: None,
            old_addr: 0,
            rewrite: Rewrite::Clean,
        })
    }

    /// The record payload of a batch of one.
    fn payload(op: &RegistryOp) -> Vec<u8> {
        encode_ops(std::slice::from_ref(op)).unwrap()
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
                purpose: PuddlePurpose::LogSpace,
                owner_uid: 1000,
                owner_gid: 1001,
                mode: 0o640,
                pool: Some("pool-ü".into()),
                old_addr: u64::MAX,
                rewrite: Rewrite::BaseMove,
            }),
            RegistryOp::DropPuddle {
                id: PuddleId(u128::MAX),
            },
            RegistryOp::PutPool {
                name: String::new(),
                root: PuddleId(9),
            },
            RegistryOp::DropPool { name: "p".into() },
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
            RegistryOp::Snapshot {
                space_base: 0x5000_0000_0000,
                space_size: 1 << 40,
                moved_from: 0x4000_0000_0000,
                next_seq: u64::MAX,
                span_bytes: 4096,
            },
        ]
    }

    /// Replays every record a fresh `Wal::open` finds in `pm`.
    fn replay(pm: &PmDir) -> Vec<(u64, RegistryOp)> {
        Wal::open(pm).unwrap().take_initial_replay()
    }

    fn replay_ops(pm: &PmDir) -> Vec<RegistryOp> {
        replay(pm).into_iter().map(|(_, op)| op).collect()
    }

    /// What `sample_op(7)` was as JSON while WAL records were JSON: the
    /// tests' size and foreign-format reference, kept as text so no record
    /// type needs a JSON encoding.
    const SAMPLE_OP_7_JSON: &str = concat!(
        r#"{"PutPuddle":{"id":"00000000000000000000000000000007","size":4096,"#,
        r#""offset":28672,"file":"00000000000000000000000000000007","purpose":"Data","#,
        r#""owner_uid":1,"owner_gid":1,"mode":384,"pool":null,"needs_rewrite":false,"#,
        r#""translations":[]}}"#
    );

    #[test]
    fn binary_encoding_roundtrips_every_variant() {
        for op in all_ops() {
            let payload = payload(&op);
            assert_eq!(payload[0], WAL_BINARY_VERSION);
            let back = decode_ops(&payload).unwrap_or_else(|| panic!("decode failed for {op:?}"));
            assert_eq!(back, vec![op]);
        }
        // A batch is its ops back to back behind one version byte: every
        // variant in one record, and every rotation of it (each variant
        // first, last, and next to every other).
        let mut batch = all_ops();
        for _ in 0..batch.len() {
            batch.rotate_left(1);
            let payload = encode_ops(&batch).unwrap();
            let singles: usize = batch.iter().map(|op| self::payload(op).len() - 1).sum();
            assert_eq!(payload.len(), 1 + singles);
            assert_eq!(decode_ops(&payload).as_ref(), Some(&batch));
        }
    }

    #[test]
    fn binary_decoding_rejects_truncated_and_oversized_payloads() {
        for op in all_ops() {
            let payload = payload(&op);
            // Any strict prefix must fail (no partial decode)...
            for cut in 1..payload.len() {
                assert!(
                    decode_ops(&payload[..cut]).is_none(),
                    "prefix {cut} of {op:?} decoded"
                );
            }
            // ...and so must trailing garbage.
            let mut long = payload.clone();
            long.push(0);
            assert!(decode_ops(&long).is_none());
        }
        assert!(decode_ops(&[]).is_none());
        assert!(
            decode_ops(&[WAL_BINARY_VERSION]).is_none(),
            "an empty batch"
        );
        assert!(decode_ops(&[WAL_BINARY_VERSION, 0xEE]).is_none());
        // One op that does not decode fails its whole batch, wherever it
        // sits; so do bytes left over behind the last op.
        for bad_at in 0..3 {
            let mut batch = vec![WAL_BINARY_VERSION];
            for i in 0..3 {
                let op = payload(&sample_op(i));
                batch.extend_from_slice(if i == bad_at { &[0xEE] } else { &op[1..] });
            }
            assert!(decode_ops(&batch).is_none(), "bad op at {bad_at}");
        }
        let mut trailing = encode_ops(&[sample_op(1), sample_op(2)]).unwrap();
        trailing.extend_from_slice(&[0; 3]);
        assert!(decode_ops(&trailing).is_none());
        // The reserved tags stay undecodable under the current version too.
        for reserved in [5, 6, 10, 11] {
            let mut payload = vec![WAL_BINARY_VERSION, reserved];
            payload.extend_from_slice(&[0; 20]);
            assert!(decode_ops(&payload).is_none());
        }
    }

    /// What a `0x04` daemon logged for `sample_op(n)`: the file name behind
    /// the offset, a `needs_rewrite` byte and an empty translation table
    /// where `old_addr` and the rewrite state are now.
    fn v4_put_puddle(n: u64) -> Vec<u8> {
        let mut out = vec![0x04, 1];
        put_u128(&mut out, n as u128);
        put_u64(&mut out, 4096);
        put_u64(&mut out, 4096 * n);
        put_str(&mut out, &format!("{n:032x}"));
        out.extend_from_slice(&[0; 1 + 3 * 4 + 1 + 1 + 4]);
        out
    }

    /// A record that passes its checksum but is not this build's encoding
    /// (another version byte — a later build's, the previous `0x04`'s
    /// record with its stored file name and translation table, `0x03`'s
    /// single-op record, `0x02`'s —, a version `0x01` extent grant, a
    /// pre-binary daemon's JSON payload, a batch with one undecodable op
    /// or with trailing bytes) is not a torn tail: opening must fail and
    /// leave every byte in place, not truncate the record and the good one
    /// behind it.
    #[test]
    fn undecodable_checksum_valid_record_fails_open_and_keeps_the_file() {
        let mut future = payload(&sample_op(5));
        future[0] = 0x7f;
        let previous = v4_put_puddle(5);
        let mut v3 = payload(&sample_op(5));
        v3[0] = 0x03;
        let mut older = payload(&sample_op(5));
        older[0] = 0x02;
        // What a `0x01` daemon logged per grant: tag 10, offset, length.
        let mut v1_grant = vec![0x01, 10];
        v1_grant.extend_from_slice(&(1u64 << 30).to_le_bytes());
        v1_grant.extend_from_slice(&4096u64.to_le_bytes());
        let json = SAMPLE_OP_7_JSON.as_bytes().to_vec();
        let mut bad_op = encode_ops(&[sample_op(5), sample_op(7)]).unwrap();
        bad_op.push(0xEE);
        bad_op.extend_from_slice(&payload(&sample_op(8))[1..]);
        let mut trailing = encode_ops(&[sample_op(5), sample_op(7)]).unwrap();
        trailing.extend_from_slice(&[0; 5]);
        for foreign in [
            future, previous, v3, older, v1_grant, json, bad_op, trailing,
        ] {
            let mut bytes = encode_record(0, &payload(&sample_op(4)));
            bytes.extend_from_slice(&encode_record(1, &foreign));
            bytes.extend_from_slice(&encode_record(2, &payload(&sample_op(6))));
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
        // A pool-less PutPuddle is 61 fixed bytes; the JSON spelled out
        // every field name, the id twice and an empty translation table.
        let json = SAMPLE_OP_7_JSON.len();
        let binary = payload(&sample_op(7)).len();
        assert!(
            binary * 4 <= json,
            "expected >= 4x shrink, got json {json} B vs binary {binary} B"
        );
        let op = RegistryOp::DropPuddle {
            id: PuddleId(1 << 100),
        };
        let json = r#"{"DropPuddle":{"id":"00000010000000000000000000000000"}}"#.len();
        let binary = payload(&op).len();
        assert!(
            binary * 2 <= json,
            "DropPuddle: json {json} B vs binary {binary} B"
        );
    }

    #[test]
    fn record_roundtrip_and_alignment() {
        let payload = payload(&sample_op(7));
        let rec = encode_record(3, &payload);
        assert_eq!(rec.len() % RECORD_ALIGN, 0);
        let (records, valid_len, snapshot_len) = decode_records(&rec).unwrap();
        assert_eq!(records, vec![(3, sample_op(7))]);
        assert_eq!((valid_len, snapshot_len), (rec.len(), 0));
    }

    #[test]
    fn torn_tail_is_discarded_but_prefix_survives() {
        let a = encode_record(0, &payload(&sample_op(1)));
        let b = encode_record(1, &payload(&sample_op(2)));
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b[..b.len() - 5]);
        let (records, valid_len, _) = decode_records(&bytes).unwrap();
        assert_eq!((records.len(), valid_len), (1, a.len()));

        // A bit flip in the second record's payload also stops the scan.
        let mut bytes = a.clone();
        let mut bad = b.clone();
        let n = bad.len();
        bad[n - RECORD_ALIGN] ^= 0x40;
        bytes.extend_from_slice(&bad);
        let (records, ..) = decode_records(&bytes).unwrap();
        assert_eq!(records.len(), 1);
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
        let ops = wal.take_initial_replay();
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
        assert_eq!(wal.take_initial_replay().len(), 1);
        assert!(!pm.meta_path("registry.wal.tmp").exists());
        // New appends land after the healed prefix, not after the garbage.
        wal.submit(&sample_op(3)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        assert_eq!(replay_ops(&pm), vec![sample_op(1), sample_op(3)]);
    }

    /// A registry state for compaction tests: what replaying `ops` builds.
    fn state_of(ops: &[RegistryOp]) -> RegistryData {
        let mut data = RegistryData {
            space_base: 0x5000_0000_0000,
            space_size: 1 << 30,
            ..RegistryData::default()
        };
        for op in ops {
            apply_op(&mut data, op);
        }
        data
    }

    #[test]
    fn compact_keeps_the_snapshot_and_the_records_after_the_cut() {
        let (_tmp, pm, wal) = wal();
        wal.submit(&sample_op(1)).unwrap();
        wal.flush().unwrap();
        let (cut_pos, cut_seq) = wal.position();
        // Enqueued after the cut and never flushed: the compaction carries
        // it into the new file and makes its ticket durable.
        wal.submit(&sample_op(2)).unwrap();
        let state = state_of(&[sample_op(1)]);
        wal.compact(&state, cut_pos, cut_seq).unwrap();
        assert_eq!(wal.stats().records, 1);
        wal.flush().unwrap();
        wal.submit(&sample_op(3)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        assert!(!pm.meta_path("registry.wal.tmp").exists());

        let wal = Wal::open(&pm).unwrap();
        // The tail only: what no checkpoint covers yet.
        assert_eq!(wal.stats().records, 2);
        assert_eq!(wal.position().1, 3, "sequences continue past the tail");
        let records = wal.take_initial_replay();
        let seqs: Vec<u64> = records.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, vec![1, 1, 1, 2], "snapshot records carry the cut");
        assert!(matches!(
            records[0].1,
            RegistryOp::Snapshot {
                space_base: 0x5000_0000_0000,
                next_seq: 1,
                ..
            }
        ));
        let ops: Vec<RegistryOp> = records.into_iter().skip(1).map(|(_, op)| op).collect();
        assert_eq!(ops, vec![sample_op(1), sample_op(2), sample_op(3)]);
        assert_eq!(
            state_of(&ops),
            state_of(&[sample_op(1), sample_op(2), sample_op(3)])
        );
    }

    /// One request's ops out of a small key universe, so random sequences
    /// collide: puts replace (and move a puddle between pools), drops hit,
    /// ids tie on their sequence number and join mid-index. Made
    /// well-formed against `model`, the state so far, the way every
    /// transaction is: a put names a live pool or none, and a pool is
    /// dropped together with its members.
    fn arbitrary_request(model: &RegistryData, kind: u8, arg: u16) -> Vec<RegistryOp> {
        let id = PuddleId((((arg % 2) as u128) << 64) | (1 + (arg / 2 % 4) as u128));
        let pool = ["a", "b", "c"][(arg / 8 % 3) as usize].to_string();
        let put = |pool: Option<String>| {
            RegistryOp::PutPuddle(PuddleRecord {
                id,
                mode: arg as u32,
                pool,
                old_addr: (arg % 3) as u64 * 4096,
                rewrite: [Rewrite::Clean, Rewrite::Import, Rewrite::BaseMove]
                    [(arg % 5 % 3) as usize],
                ..match sample_op(id.0 as u64) {
                    RegistryOp::PutPuddle(rec) => rec,
                    _ => unreachable!(),
                }
            })
        };
        vec![match kind % 8 {
            0 => put(None),
            1 => put(model.pools.contains_key(&pool).then_some(pool)),
            2 => RegistryOp::DropPuddle { id },
            3 => RegistryOp::PutPool {
                name: pool,
                root: id,
            },
            4 => {
                let members = model.pools.get(&pool).map_or(&[][..], |p| &p.puddles);
                let members = members.iter().map(|&id| RegistryOp::DropPuddle { id });
                return [RegistryOp::DropPool { name: pool }]
                    .into_iter()
                    .chain(members)
                    .collect();
            }
            5 => RegistryOp::PutPtrMap(PtrMapDecl {
                type_id: (arg % 4) as u64,
                type_name: format!("T{arg}"),
                size: 8 * (1 + arg as u64 % 4),
                fields: vec![
                    PtrField {
                        offset: 0,
                        target_type: arg as u64
                    };
                    (arg % 2) as usize
                ],
            }),
            6 => RegistryOp::PutLogSpace(LogSpaceRecord {
                puddle: id,
                owner_uid: arg as u32,
                owner_gid: 1,
                invalid: arg.is_multiple_of(7),
            }),
            _ => RegistryOp::InvalidateLogSpace { puddle: id },
        }]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A snapshot is a WAL that happens to be minimal: replaying
        /// `compact(state at the cut) ++ tail` lands on the state replaying
        /// every record lands on — member indexes included, and each equal
        /// to the list the puddle table implies —, wherever the cut falls
        /// and whether or not the records around it had reached the file;
        /// and compaction is a function of the state — twice in a row
        /// writes the same bytes.
        #[test]
        fn compaction_replays_to_the_state_of_the_full_log(
            case in (proptest::collection::vec((0u8..8, 0u16..4096), 1..80), 0usize..80)
        ) {
            let mut model = state_of(&[]);
            let requests: Vec<Vec<RegistryOp>> = case.0.iter().map(|&(kind, arg)| {
                let request = arbitrary_request(&model, kind, arg);
                request.iter().for_each(|op| apply_op(&mut model, op));
                request
            }).collect();
            let full = model;
            let cut = case.1.min(requests.len());
            let (_tmp, pm, wal) = wal();
            for i in 0..=requests.len() {
                if i == cut {
                    // A checkpoint taken here, in full: snapshot, cut,
                    // compaction — with whatever is still buffered.
                    let (cut_pos, cut_seq) = wal.position();
                    wal.compact(&state_of(&requests[..cut].concat()), cut_pos, cut_seq).unwrap();
                }
                if let Some(request) = requests.get(i) {
                    wal.submit_batch(request).unwrap();
                }
                if i % 3 == 0 {
                    wal.flush().unwrap();
                }
            }
            wal.flush().unwrap();
            drop(wal);
            let replayed = replay_ops(&pm);
            let mut data = RegistryData::default();
            for op in &replayed {
                apply_op(&mut data, op);
            }
            proptest::prop_assert_eq!(&data, &full);
            let derived = crate::invariants::derived_members(&data);
            for (name, pool) in &data.pools {
                let derived = derived.get(name.as_str()).cloned().unwrap_or_default();
                proptest::prop_assert_eq!(&pool.puddles, &derived);
            }
            // The file is the snapshot plus exactly the post-cut records.
            let tail = requests[cut..].concat();
            proptest::prop_assert_eq!(&replayed[replayed.len() - tail.len()..], &tail[..]);

            let wal = Wal::open(&pm).unwrap();
            let path = pm.meta_path(WAL_FILE);
            let mut files = Vec::new();
            for _ in 0..2 {
                let (cut_pos, cut_seq) = wal.position();
                wal.compact(&full, cut_pos, cut_seq).unwrap();
                files.push(fs::read(&path).unwrap());
            }
            proptest::prop_assert_eq!(&files[0], &files[1]);
            proptest::prop_assert_eq!(state_of(&replay_ops(&pm)), full);
        }
    }

    /// A compacted WAL on disk — header, three snapshot records, two tail
    /// records — and the byte offsets of its parts.
    fn compacted_file() -> (tempfile::TempDir, PmDir, Vec<u8>, usize) {
        let (tmp, pm, wal) = wal();
        let snapshot = [sample_op(1), sample_op(2), sample_op(3)];
        let (cut_pos, cut_seq) = wal.position();
        wal.compact(&state_of(&snapshot), cut_pos, cut_seq).unwrap();
        wal.submit(&sample_op(4)).unwrap();
        wal.submit(&sample_op(5)).unwrap();
        wal.flush().unwrap();
        drop(wal);
        let bytes = fs::read(pm.meta_path(WAL_FILE)).unwrap();
        let span_end = decode_records(&bytes).unwrap().2;
        assert!(0 < span_end && span_end < bytes.len());
        (tmp, pm, bytes, span_end)
    }

    fn assert_refused_untouched(pm: &PmDir, bytes: &[u8], what: &str) {
        let path = pm.meta_path(WAL_FILE);
        fs::write(&path, bytes).unwrap();
        match Wal::open(pm) {
            Err(PmError::Corruption(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a corruption error naming {what:?}, got {other:?}"),
        }
        assert_eq!(fs::read(&path).unwrap(), bytes, "open must not heal it");
        assert!(!pm.meta_path("registry.wal.tmp").exists());
    }

    /// The snapshot span was fsynced before its rename: a bad record there
    /// is damage, and healing it like a torn tail would drop the registry.
    #[test]
    fn damage_inside_the_snapshot_span_fails_open_and_keeps_the_file() {
        let (_tmp, pm, bytes, span_end) = compacted_file();
        // One flipped byte: in the header record, in the middle of the
        // span, in the span's last record (before its alignment padding,
        // which carries nothing and is not checksummed).
        for at in [
            RECORD_HEADER_SIZE + 4,
            span_end / 2,
            span_end - 1 - RECORD_ALIGN,
        ] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert_refused_untouched(&pm, &flipped, "damage, not a torn append");
        }
        // Cut short inside the span: mid-record, at a record boundary, and
        // inside the header record itself.
        let second_record = next_record(&bytes).unwrap().2;
        for len in [span_end - 5, second_record, 30] {
            let what = if len == 30 { "damage" } else { "cut short" };
            assert_refused_untouched(&pm, &bytes[..len], what);
        }
    }

    #[test]
    fn the_same_damage_past_the_span_heals_as_a_torn_tail() {
        let (_tmp, pm, bytes, span_end) = compacted_file();
        let snapshot = vec![sample_op(1), sample_op(2), sample_op(3)];
        let path = pm.meta_path(WAL_FILE);
        // A flip in the last tail record, then a cut inside the first.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1 - RECORD_ALIGN;
        flipped[last] ^= 0x10;
        for (damaged, tail) in [
            (&flipped[..], vec![sample_op(4)]),
            (&bytes[..span_end + 9], vec![]),
        ] {
            fs::write(&path, damaged).unwrap();
            let wal = Wal::open(&pm).unwrap();
            assert_eq!(wal.stats().records, tail.len() as u64);
            let ops: Vec<RegistryOp> = wal
                .take_initial_replay()
                .into_iter()
                .skip(1)
                .map(|(_, op)| op)
                .collect();
            assert_eq!(ops, [snapshot.clone(), tail].concat());
            // Healed on disk, by the one atomic replace.
            assert!(fs::read(&path).unwrap().len() < damaged.len());
            assert!(!pm.meta_path("registry.wal.tmp").exists());
        }
    }

    #[test]
    fn a_snapshot_header_anywhere_but_first_is_refused() {
        let (_tmp, pm, bytes, span_end) = compacted_file();
        // A whole compacted file appended to a plain record...
        let mut second = encode_record(0, &payload(&sample_op(9)));
        second.extend_from_slice(&bytes);
        assert_refused_untouched(&pm, &second, "only the first record");
        // ...and a header in the tail of a compacted one.
        let mut nested = bytes.clone();
        nested.extend_from_slice(&bytes[..span_end]);
        assert_refused_untouched(&pm, &nested, "only the first record");
        // ...and one that shares its record with another op.
        let header = RegistryOp::Snapshot {
            space_base: 0,
            space_size: 1 << 30,
            moved_from: 0,
            next_seq: 0,
            span_bytes: 0,
        };
        let shared = encode_record(0, &encode_ops(&[header, sample_op(9)]).unwrap());
        assert_refused_untouched(&pm, &shared, "only the first record");
    }

    /// A directory that still holds the JSON checkpoint of the builds
    /// before `0x03` is refused before anything in it is read or written.
    #[test]
    fn a_leftover_json_checkpoint_fails_open_before_anything_is_written() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        fs::write(pm.meta_path("registry.json"), b"{}").unwrap();
        // A torn tail that an accepted open would have healed.
        let torn = &encode_record(0, &payload(&sample_op(1)))[..40];
        fs::write(pm.meta_path(WAL_FILE), torn).unwrap();
        match Wal::open(&pm) {
            Err(PmError::Corruption(msg)) => {
                assert!(
                    msg.contains("registry.json") && msg.contains("ExportPool"),
                    "{msg}"
                )
            }
            other => panic!("expected the upgrade rule, got {other:?}"),
        }
        assert_eq!(fs::read(pm.meta_path(WAL_FILE)).unwrap(), torn);
        assert_eq!(fs::read_dir(tmp.path().join("meta")).unwrap().count(), 2);
    }

    /// A snapshot record over the limit `Wal::open` reads back fails the
    /// compaction, typed, with the file untouched and the WAL usable.
    #[test]
    fn snapshot_records_respect_the_record_limit() {
        let (_tmp, pm, wal) = wal();
        wal.submit(&sample_op(1)).unwrap();
        wal.flush().unwrap();
        let before = fs::read(pm.meta_path(WAL_FILE)).unwrap();
        let huge = RegistryOp::PutPtrMap(PtrMapDecl {
            type_id: 1,
            type_name: "x".repeat(MAX_RECORD),
            size: 8,
            fields: vec![],
        });
        let (cut_pos, cut_seq) = wal.position();
        let err = wal
            .compact(&state_of(&[huge]), cut_pos, cut_seq)
            .unwrap_err();
        assert!(matches!(err, PmError::RecordTooLarge { .. }), "{err:?}");
        assert_eq!(fs::read(pm.meta_path(WAL_FILE)).unwrap(), before);
        wal.submit(&sample_op(2)).unwrap();
        wal.flush().unwrap();
    }

    /// A compaction that fails before its rename — here a full device on
    /// the temp file — is as if it had never started: typed and counted,
    /// the file byte-identical, the buffered record it had taken back in
    /// the buffer, the WAL un-poisoned.
    #[test]
    fn a_failed_compaction_leaves_the_wal_as_it_was() {
        let tmp = tempfile::tempdir().unwrap();
        let profile = FaultProfile {
            write_enospc_ppm: 1_000_000,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::new(11, profile);
        plan.set_enabled(false);
        let pm = PmDir::open(tmp.path())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        let wal = Wal::open(&pm).unwrap();
        wal.submit(&sample_op(1)).unwrap();
        wal.flush().unwrap();
        wal.submit(&sample_op(2)).unwrap(); // buffered, ticket 2
        let before = fs::read(pm.meta_path(WAL_FILE)).unwrap();
        let stats = wal.stats();

        plan.set_enabled(true);
        let (cut_pos, cut_seq) = wal.position();
        let state = state_of(&[sample_op(1), sample_op(2)]);
        let err = wal.compact(&state, cut_pos, cut_seq).unwrap_err();
        plan.set_enabled(false);
        assert!(matches!(err, PmError::NoSpace(_)), "got {err:?}");
        assert_eq!(pm.io_stats().enospc_rejections(), 1);
        assert_eq!(fs::read(pm.meta_path(WAL_FILE)).unwrap(), before);
        assert_eq!(wal.stats(), stats);

        // The next group commit carries the record the compaction had taken.
        wal.flush().unwrap();
        wal.submit(&sample_op(3)).unwrap();
        wal.flush().unwrap();
        // And the next compaction goes through.
        let (cut_pos, cut_seq) = wal.position();
        let state = state_of(&[sample_op(1), sample_op(2), sample_op(3)]);
        wal.compact(&state, cut_pos, cut_seq).unwrap();
        drop(wal);
        assert_eq!(state_of(&replay_ops(&pm)), state);
    }

    #[test]
    fn group_commit_batches_concurrent_mutators() {
        let (_tmp, pm, wal) = wal();
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
        assert_eq!(replay(&pm).len(), 200);
    }

    #[test]
    fn transient_wal_faults_are_absorbed_by_retries() {
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
        drop(wal);
        let reopened = Wal::open(&pm).unwrap();
        assert_eq!(reopened.take_initial_replay().len(), 200);
    }

    #[test]
    fn wal_enospc_surfaces_typed_without_partial_tail() {
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
