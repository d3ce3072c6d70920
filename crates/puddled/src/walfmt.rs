//! The metadata WAL's record format: what a record holds and how it is
//! framed. The file's life — group commit, compaction, the open that heals
//! a torn tail — is [`crate::wal`]'s; what an op does to the tables is
//! [`crate::registry::apply_op`].
//!
//! # Record layout
//!
//! ```text
//! [checksum: u64 LE][seq: u64 LE][len: u32 LE][pad: u32 = 0]
//! [payload: len bytes][zero pad to 8 bytes]
//! ```
//!
//! The checksum covers the header fields and the payload (framing modeled
//! on `puddles_logfmt::entry`), so a torn append is detected and the tail
//! discarded — the whole request, never half of it. The payload is a
//! version byte ([`WAL_BINARY_VERSION`]) followed by one or more
//! **binary-encoded** [`RegistryOp`]s back to back, decoded until the
//! payload is exhausted: each a variant tag, then the fields as fixed-width
//! little-endian integers and length-prefixed strings. A record that passes
//! its checksum but carries another version byte, an unknown tag or
//! trailing bytes was written by a different build: `decode_records`
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
//! starts with its header) is damage: `decode_records` fails, and the
//! open leaves the file as it is, because healing it would drop the
//! registry and the startup sweep would then delete every puddle file.

use crate::registry::{snapshot_ops, LogSpaceRecord, PuddleRecord, RegistryData, Rewrite};
use puddles_pmem::checksum::{fnv1a64, fnv1a64_with_seed};
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result};
use puddles_proto::codec::{put_str, put_u128, put_u32, put_u64, Reader, Wire};
use puddles_proto::{PtrMapDecl, PuddleId};

/// Size of the on-disk record header in bytes.
pub const RECORD_HEADER_SIZE: usize = 24;

/// Payload alignment inside the WAL (matches `logfmt::ENTRY_ALIGN`).
pub(crate) const RECORD_ALIGN: usize = 8;

/// Upper bound on a single record's payload; guards decode against a
/// corrupt length prefix. A record is a request, so this also bounds what
/// one request may change: a transaction over it is refused, typed
/// ([`PmError::RecordTooLarge`]), before anything is logged or applied. The
/// request that gets there first is `ImportPool`, one fixed-size `PutPuddle`
/// (60 bytes + the pool's name) per member: about 240,000 puddles.
pub const MAX_RECORD: usize = 16 << 20;

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
    /// Header of a compacted WAL, written by [`crate::wal::Wal::compact`]
    /// only, as the
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

/// First payload byte of every record: names the payload encoding.
///
/// **Upgrade rule: a PM directory does not move between builds with
/// different version bytes; its pools do.** The WAL is the daemon's whole
/// metadata, so no empty state can carry a directory across a format
/// change, and an in-place migration would keep every old load path alive
/// as a fork. Pools cross the way the paper ships them between machines:
/// `ExportPool` on the build that wrote the directory, `ImportPool` on the
/// new one (an export's `manifest.json` is independent of this format).
/// The rule enforces itself: [`crate::wal::Wal::open`] fails, with the directory
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
pub(crate) fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
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
/// grows with a pool), which `decode_records` would refuse to read back.
pub(crate) fn encode_snapshot(data: &RegistryData, cut_seq: u64) -> Result<Vec<u8>> {
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
pub(crate) type Records = Vec<(u64, RegistryOp)>;

/// The framed record at the start of `bytes` as `(seq, payload, bytes
/// occupied)`; `None` if it is incomplete, oversized or fails its checksum.
pub(crate) fn next_record(bytes: &[u8]) -> Option<(u64, &[u8], usize)> {
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
pub(crate) fn decode_records(bytes: &[u8]) -> Result<(Records, usize, usize)> {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::wal::{Wal, WAL_FILE};
    use puddles_pmem::pmdir::PmDir;
    use puddles_proto::{PtrField, PuddlePurpose};
    use std::fs;

    pub(crate) fn sample_op(n: u64) -> RegistryOp {
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
    pub(crate) fn payload(op: &RegistryOp) -> Vec<u8> {
        encode_ops(std::slice::from_ref(op)).unwrap()
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
}
