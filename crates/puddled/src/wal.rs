//! The metadata WAL: the registry's one persistent file, and the one
//! writer role over it.
//!
//! The paper's daemon keeps its metadata in a persistent hash map so each
//! mutation persists incrementally (§4.2). Here that is one append-only
//! file, `meta/registry.wal`:
//!
//! * **a record is a request**: every registry transaction
//!   ([`crate::registry::Registry::transact`]) appends one checksummed,
//!   length-prefixed record holding *all* of its [`RegistryOp`]s — O(request)
//!   per mutation. How a record is laid out and framed is
//!   [`crate::walfmt`]'s.
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
//!   final record) through [`crate::registry::apply_op`] — the function the
//!   live registry mutates through, so the two cannot diverge. Offline, the
//!   same `Wal::open(..)?.take_initial_replay()` lists every op (`Debug`).
//!
//! Group commit and compaction live together because they share one role:
//! whoever holds `syncing` owns the file, and a compaction takes it exactly
//! as a group-commit leader does. Durability is tracked by record sequence:
//! every record below `durable_seq` is fsynced or folded into a snapshot.
//! The WAL records into the directory's observability hub, on its clock.

use crate::registry::RegistryData;
use crate::walfmt::RegistryOp;
use crate::walfmt::{decode_records, encode_ops, encode_record, encode_snapshot, Records};
use puddles_pmem::faultio::{CrashPoint, FaultSite};
use puddles_pmem::obs::{ShardedHistogram, TraceEventKind};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::{PmError, Result};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Name of the WAL file inside the PM directory's `meta/` subdirectory.
pub const WAL_FILE: &str = "registry.wal";

/// Default size of the WAL's tail at which the registry compacts it.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 1 << 20;

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
    /// Every record with a lower sequence number is durable (fsynced, or
    /// folded into a snapshot); `next_seq` once nothing is pending.
    durable_seq: u64,
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
    /// the fault plan and observability hub every layer of the daemon
    /// shares.
    pmdir: PmDir,
    /// The file handle; held only by the current group-commit leader (or a
    /// compaction), never while `state` waits, so enqueues proceed during
    /// an fsync — that is what makes commits batch.
    io: Mutex<File>,
    state: Mutex<WalState>,
    /// Signalled when `durable_seq` advances or the writer role frees up.
    durable: Condvar,
    checkpoint_threshold: AtomicU64,
    /// The records decoded by [`Wal::open`]'s scan, retained so the
    /// registry's replay does not read and decode the file a second time;
    /// taken once by [`Wal::take_initial_replay`].
    initial_replay: Mutex<Option<Records>>,
    /// `wal.flush`: one group commit's write + fsync, in the hub.
    flush_series: Arc<ShardedHistogram>,
}

impl Wal {
    /// Opens (creating if necessary) the WAL inside `pmdir`, recording into
    /// the directory's hub.
    ///
    /// A torn tail left by a crash is cut away *now*, before any new append
    /// could bury it mid-file where replay would discard everything after
    /// it. Damage inside the snapshot span, a checksum-valid record this
    /// build cannot decode, and the separate checkpoint file of a build
    /// that kept one (see [`crate::walfmt::WAL_BINARY_VERSION`]) fail the
    /// open instead, each before anything is written.
    pub fn open(pmdir: &PmDir) -> Result<Wal> {
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
                durable_seq: next_seq,
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
            flush_series: pmdir.obs().series("wal.flush"),
        })
    }

    /// The directory the WAL lives in, and with it the hub it records into.
    pub fn pmdir(&self) -> &PmDir {
        &self.pmdir
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

    /// Enqueues `ops` as **one** record. The record is *not* durable until
    /// [`Wal::flush`] returns.
    ///
    /// The registry calls this under its write lock, before it applies the
    /// ops, so records enqueue in application order and a refusal here — a
    /// payload over [`crate::walfmt::MAX_RECORD`], a poisoned WAL — leaves
    /// tables, buffer and sequence numbers as they were.
    pub fn submit_batch(&self, ops: &[RegistryOp]) -> Result<()> {
        let payload = encode_ops(ops)?;
        let mut state = self.state.lock().unwrap();
        if state.poisoned {
            return Err(Self::poisoned_err());
        }
        let rec = encode_record(state.next_seq, &payload);
        state.next_seq += 1;
        state.stream_pos += rec.len() as u64;
        state.buf.extend_from_slice(&rec);
        Ok(())
    }

    /// [`Wal::submit_batch`] of one op.
    pub fn submit(&self, op: &RegistryOp) -> Result<()> {
        self.submit_batch(std::slice::from_ref(op))
    }

    /// Makes every record enqueued so far durable (group commit): the first
    /// caller to find no leader becomes one, writes the whole buffered
    /// batch, and fsyncs once; everyone else blocks until a leader's batch
    /// covers what they had enqueued.
    pub fn flush(&self) -> Result<()> {
        let mut state = self.state.lock().unwrap();
        let target = state.next_seq;
        loop {
            if state.durable_seq >= target {
                return Ok(());
            }
            if state.poisoned {
                return Err(Self::poisoned_err());
            }
            if state.syncing {
                state = self.durable.wait(state).unwrap();
                continue;
            }
            // Become the leader: take the batch and release the state lock
            // so later mutators keep enqueuing while we fsync.
            state.syncing = true;
            let batch = std::mem::take(&mut state.buf);
            let hi = state.next_seq;
            let covered = hi - state.durable_seq;
            drop(state);
            let clock = self.pmdir.obs().clock();
            let flush_start = clock.now();
            let result = self.write_batch(&batch);
            if result.is_ok() {
                self.flush_series.record_duration(clock.now() - flush_start);
                let obs = self.pmdir.obs();
                obs.trace(TraceEventKind::WalCommit, "", covered, batch.len() as u64);
            }
            state = self.state.lock().unwrap();
            state.syncing = false;
            self.durable.notify_all();
            if let Err(e) = result {
                state.poisoned = true;
                return Err(e);
            }
            state.durable_seq = state.durable_seq.max(hi);
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
    /// leader). On success every record enqueued so far is durable: folded
    /// into the snapshot, or in the fsynced new file behind it. A failure
    /// *before* the rename leaves the file, the buffer and `durable_seq` as
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
        let hi = state.next_seq;
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
                state.durable_seq = state.durable_seq.max(hi);
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
    use crate::registry::{apply_op, LogSpaceRecord, PuddleRecord, Rewrite};
    use crate::walfmt::tests::{payload, sample_op};
    use crate::walfmt::{next_record, MAX_RECORD, RECORD_ALIGN, RECORD_HEADER_SIZE};
    use puddles_pmem::faultio::{FaultPlan, FaultProfile};
    use puddles_proto::{PtrField, PtrMapDecl, PuddleId};

    impl Wal {
        /// Holds the state lock until the returned guard drops, so every
        /// append, group commit and [`Wal::stats`] waits for it.
        pub(crate) fn hold_state_lock(&self) -> impl Sized + '_ {
            self.state.lock().unwrap()
        }
    }

    /// The directory hub's reading of the `io.*` counter `name`.
    fn io_counter(pm: &PmDir, name: &'static str) -> u64 {
        pm.obs().counter(name).load(Ordering::Relaxed)
    }

    fn wal() -> (tempfile::TempDir, PmDir, Wal) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let wal = Wal::open(&pm).unwrap();
        (tmp, pm, wal)
    }

    /// Replays every record a fresh `Wal::open` finds in `pm`.
    fn replay(pm: &PmDir) -> Vec<(u64, RegistryOp)> {
        Wal::open(pm).unwrap().take_initial_replay()
    }

    fn replay_ops(pm: &PmDir) -> Vec<RegistryOp> {
        replay(pm).into_iter().map(|(_, op)| op).collect()
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
        // it into the new file and makes it durable.
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
        wal.submit(&sample_op(2)).unwrap(); // buffered, not yet durable
        let before = fs::read(pm.meta_path(WAL_FILE)).unwrap();
        let stats = wal.stats();

        plan.set_enabled(true);
        let (cut_pos, cut_seq) = wal.position();
        let state = state_of(&[sample_op(1), sample_op(2)]);
        let err = wal.compact(&state, cut_pos, cut_seq).unwrap_err();
        plan.set_enabled(false);
        assert!(matches!(err, PmError::NoSpace(_)), "got {err:?}");
        assert_eq!(io_counter(&pm, "io.enospc_rejections"), 1);
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
        assert!(io_counter(&pm, "io.retries") > 0, "retries not counted");

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
        assert_eq!(io_counter(&pm, "io.enospc_rejections"), 1);

        // The full-device WAL is poisoned (durability can't be promised)
        // and the on-disk tail holds no partial record.
        plan.set_enabled(false);
        assert!(wal.flush().is_err());
        drop(wal);
        let reopened = Wal::open(&pm).unwrap();
        assert_eq!(reopened.take_initial_replay().len(), 0);
    }
}
