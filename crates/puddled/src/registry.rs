//! The daemon's persistent metadata: puddles, pools, pointer maps, log
//! spaces, and global-space address allocation.
//!
//! The paper stores this metadata in a persistent hash map owned by the
//! daemon so each mutation persists incrementally and atomically (§4.2). We
//! reproduce that with **one state machine and one file**. The state is a
//! [`RegistryData`]; its one transition function is [`wal::apply_op`]; the
//! file is `meta/registry.wal`, the metadata WAL ([`crate::wal`]). A request
//! that changes metadata is one [`Registry::transact`]: its checks run
//! against the tables, its [`RegistryOp`]s are logged as **one** checksummed
//! record, and only then applied — by the function replay uses, so the live
//! and the replayed state cannot diverge, and a request can be cut in half
//! neither in memory (one lock) nor on disk (one record). The record is made
//! durable with a *group commit* (one fsync covers every concurrently
//! enqueued record), so steady-state persistence is O(request), not
//! O(registry).
//!
//! The [`Registry::commit`] that finds the WAL's tail past a byte threshold
//! **checkpoints by compacting it** ([`Registry::checkpoint`]), on its own
//! thread, before it returns — there is no other trigger on the request
//! path and no thread to hand it to: one atomic replace of the
//! file with a snapshot header, one put record per live table entry, and
//! the records enqueued after the snapshot's cut. Loading is the reverse:
//! replay the one file (tolerating a torn final record — a whole request),
//! then derive the allocator from the puddle table ([`reconcile`]). Nothing
//! is healed: every prefix of the file is a state some request left.
//!
//! # Concurrency
//!
//! One `RwLock` guards the tables. Lookups (`GetPuddle`, `OpenPool`,
//! `GetRelocation`, translation reads) clone what they need under the read
//! lock and run in parallel; [`Registry::transact`] takes the write lock for
//! its checks, the enqueue of its record (the WAL's internal lock is a
//! leaf) and the apply, so conflicting records land in the log in
//! application order and a checkpoint's cut, read under the read lock,
//! falls between two requests.
//!
//! **Nothing inside a transaction may touch a file, wait on the WAL or
//! grant space.** That rule is what keeps a reactor's inline lookups from
//! stalling behind a writer: a request prepares outside the lock (grants
//! space, creates or copies files), transacts, waits for durability in
//! [`Registry::commit`] after the lock is released, and then cleans up
//! files. There is no second lock to order against.
//!
//! The global-space allocator — [`crate::alloc::SpaceAlloc`], segregated
//! free lists behind its own mutex with **lazy coalescing** (alloc and free
//! are O(1); the deferred merge pass runs on the free that trips the
//! threshold) — is derived state: never logged, rebuilt from the puddle
//! table by [`reconcile`] at every load. So is whatever else that table
//! implies — a pool's member list, a puddle's file name and relocation
//! table: a record stores only what no other record does.
//!
//! A checkpoint holds the dedicated checkpoint lock (taken first, never
//! while holding the tables lock: concurrent checkpoints serialize, a
//! crossing commit that finds one running skips), copies the tables under
//! a short read lock, encodes with no lock at all, and then takes the
//! WAL's group-commit writer role for the file replace — lookups and
//! transactions proceed throughout; only *commits* wait, as they would
//! behind any other group-commit leader.

use crate::acl;
use crate::alloc::{AllocStats, CoalesceKind, SpaceAlloc};
use crate::wal::{self, RegistryOp, Wal, WalHandle};
use parking_lot::{Mutex, MutexGuard, RwLock};
use puddles_pmem::obs::TraceEventKind;
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result, PAGE_SIZE};
use puddles_proto::{Credentials, PtrMapDecl, PuddleId, PuddlePurpose, Translation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which addresses a puddle's pointers are written for: one byte of its
/// record, as numbered (the wire's `needs_rewrite` is "not `Clean`").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewrite {
    /// The address the puddle maps at.
    Clean = 0,
    /// The exporter's — the `old_addr`s of its pool's members: imported,
    /// not mapped since.
    Import = 1,
    /// The space's previous base, [`RegistryData::moved_from`].
    BaseMove = 2,
}

/// Persistent record of one puddle: only what no other record implies. The
/// file name is the id, membership is `pool`, the relocation table is
/// computed ([`Registry::relocation`]) — fixed-size but for the pool's name.
#[derive(Debug, Clone, PartialEq)]
pub struct PuddleRecord {
    /// The puddle's UUID.
    pub id: PuddleId,
    /// Total size in bytes.
    pub size: u64,
    /// Offset of the puddle within the global puddle space.
    pub offset: u64,
    /// What the puddle is used for.
    pub purpose: PuddlePurpose,
    /// Owning user id.
    pub owner_uid: u32,
    /// Owning group id.
    pub owner_gid: u32,
    /// UNIX-like permission bits.
    pub mode: u32,
    /// The pool this puddle belongs to, if any: the one copy of membership.
    pub pool: Option<String>,
    /// The address the puddle was exported at; 0 = never imported. Outlives
    /// its own rewrite: pool members still awaiting theirs point here (the
    /// persisted "frontier" of §4.2 is `rewrite`, a byte per member).
    pub old_addr: u64,
    /// Whether the puddle's pointers must be rewritten before use.
    pub rewrite: Rewrite,
}

impl PuddleRecord {
    /// `true` if `creds` may access this puddle as asked ([`acl::check`]
    /// against the record's owner and mode).
    pub fn allows(&self, creds: Credentials, access: acl::Access) -> bool {
        acl::check(creds, self.owner_uid, self.owner_gid, self.mode, access)
    }

    /// Name of the backing file inside the PM directory: the id in hex.
    pub fn file(&self) -> String {
        self.id.to_hex()
    }
}

/// One pool, under its name in [`RegistryData::pools`]. `root` is the record
/// ([`RegistryOp::PutPool`]); `puddles` is an index over the puddle table.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRecord {
    /// Root puddle UUID.
    pub root: PuddleId,
    /// The puddles naming this pool, by ascending sequence number (an id's
    /// low 64 bits: creation order; manifest order for an import). Never
    /// logged: [`wal::apply_op`] alone keeps it — live and replayed — a
    /// function of the puddle table.
    pub puddles: Vec<PuddleId>,
}

/// Persistent record of a registered log space.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSpaceRecord {
    /// The log-space puddle.
    pub puddle: PuddleId,
    /// Credentials of the registering client; recovery replays its logs with
    /// exactly this client's permissions.
    pub owner_uid: u32,
    /// Group id of the registering client.
    pub owner_gid: u32,
    /// Set when recovery found the log targeting unwritable memory; such
    /// logs are never replayed again (§4.6 "Recovery").
    pub invalid: bool,
}

/// The daemon's complete metadata as one value: what WAL replay builds at
/// load, what the live [`Registry`] keeps behind its lock, and what
/// [`Registry::snapshot`] copies out. A checkpoint writes it as WAL records
/// ([`wal::snapshot_ops`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistryData {
    /// Base address of the global space the puddles' pointers assume.
    pub space_base: u64,
    /// Size of the global space.
    pub space_size: u64,
    /// The base the space had before its last move (0 = it never moved):
    /// what the pointers of a [`Rewrite::BaseMove`] puddle still assume.
    pub moved_from: u64,
    /// Bump pointer for address allocation (offset within the space).
    /// Derived from the puddle table, like `free_list`; never persisted.
    /// The live value leaves both empty — the allocator owns them — and
    /// [`Registry::snapshot`] fills them in.
    pub next_offset: u64,
    /// Freed `[offset, len)` ranges available for reuse.
    pub free_list: Vec<(u64, u64)>,
    /// Puddles keyed by UUID.
    pub puddles: BTreeMap<PuddleId, PuddleRecord>,
    /// Pools keyed by name.
    pub pools: BTreeMap<String, PoolRecord>,
    /// Pointer maps keyed by type id.
    pub ptr_maps: BTreeMap<u64, PtrMapDecl>,
    /// Registered log spaces.
    pub log_spaces: Vec<LogSpaceRecord>,
    /// Monotonic counter used to derive fresh UUIDs.
    pub next_seq: u64,
}

impl RegistryData {
    /// Pool `name`'s member records in index order (none: unknown pool).
    pub fn members<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a PuddleRecord> {
        let ids = self.pools.get(name).map_or(&[][..], |pool| &pool.puddles);
        ids.iter().filter_map(|id| self.puddles.get(id))
    }
}

/// The translations a pool's imported `members` imply, in their order: the
/// address each was exported at → where it sits in a space at `space_base`.
/// Members created in the pool since (`old_addr` 0) have none.
pub fn import_table<'a>(
    space_base: u64,
    members: impl Iterator<Item = &'a PuddleRecord>,
) -> Vec<Translation> {
    let translate = |m: &PuddleRecord| Translation {
        old_addr: m.old_addr,
        new_addr: space_base + m.offset,
        len: m.size,
    };
    members.filter(|m| m.old_addr != 0).map(translate).collect()
}

/// The registry state machine plus its persistence handle. All methods take
/// `&self`; see the module docs for the one lock and the one rule.
#[derive(Debug)]
pub struct Registry {
    /// The metadata WAL every transaction appends to.
    wal: WalHandle,
    /// The live state. Edited by [`wal::apply_op`] inside
    /// [`Registry::transact`] and by [`Registry::apply_base_relocation`],
    /// nowhere else.
    tables: RwLock<RegistryData>,
    alloc: SpaceAlloc,
    next_seq: AtomicU64,
    /// One checkpoint (snapshot + WAL compaction) at a time.
    ckpt_lock: Mutex<()>,
}

/// Derives the space allocator's state from a replayed puddle table.
///
/// The allocator is never persisted: the free list is exactly the set of
/// gaps between the live extents, and the bump pointer the end of the last
/// one, so no crash can leak space past a restart. This is also the
/// canonical form [`Registry::snapshot`] reports
/// ([`crate::alloc::SpaceAlloc::canonical`]), so replayed and live snapshots
/// stay bit-identical. Nothing else is touched: a record is a whole request,
/// so the tables replay lands on need no repair, and a file without a
/// record is the startup sweep's job.
fn reconcile(data: &mut RegistryData) {
    let mut extents: Vec<(u64, u64)> = data
        .puddles
        .values()
        .map(|p| (p.offset, align_up(p.size as usize, PAGE_SIZE) as u64))
        .collect();
    extents.sort_unstable();
    let mut free_list = Vec::new();
    let mut cursor = PAGE_SIZE as u64;
    for (offset, len) in extents {
        if offset > cursor {
            free_list.push((cursor, offset - cursor));
        }
        cursor = cursor.max(offset + len);
    }
    data.free_list = free_list;
    data.next_offset = cursor;
}

impl Registry {
    /// Loads the registry from `pmdir` (opening its WAL internally), or
    /// creates a fresh one.
    pub fn load_or_create(pmdir: &PmDir, space_base: u64, space_size: u64) -> Result<Self> {
        let wal = Arc::new(Wal::open(pmdir)?);
        Self::load_or_create_with_wal(wal, space_base, space_size)
    }

    /// Loads the registry from an externally opened WAL handle (the daemon
    /// threads one through so it can also report WAL stats): replays the
    /// file — snapshot, then tail —, derives the allocator, and checkpoints,
    /// folding the tail into a fresh snapshot. `space_base`/`space_size`
    /// describe a registry created now; a loaded one keeps what its snapshot
    /// header recorded.
    pub fn load_or_create_with_wal(
        wal: WalHandle,
        space_base: u64,
        space_size: u64,
    ) -> Result<Self> {
        let mut data = RegistryData {
            space_base,
            space_size,
            ..RegistryData::default()
        };
        for (_seq, op) in wal.take_initial_replay() {
            wal::apply_op(&mut data, &op);
        }
        reconcile(&mut data);
        let reg = Registry {
            wal,
            alloc: SpaceAlloc::new(
                data.space_base,
                data.space_size,
                std::mem::take(&mut data.next_offset),
                std::mem::take(&mut data.free_list),
            ),
            next_seq: AtomicU64::new(data.next_seq),
            tables: RwLock::new(data),
            ckpt_lock: Mutex::new(()),
        };
        reg.checkpoint()?;
        Ok(reg)
    }

    /// Returns the registry's WAL handle (stats, tests).
    pub fn wal(&self) -> &WalHandle {
        &self.wal
    }

    /// Runs one registry transaction — the only way the tables change.
    ///
    /// `f` runs under the write lock with the tables to check against
    /// (existence, ACLs, a free name) and a list to push its
    /// [`RegistryOp`]s onto. Its ops are then enqueued as **one** WAL record
    /// and, only once the WAL has taken it, applied with [`wal::apply_op`].
    /// So an `Err` from `f`, or a record the WAL refuses (over
    /// [`wal::MAX_RECORD`], a poisoned WAL), logs and applies nothing; and
    /// everything `f` saw still holds when its ops apply. A transaction
    /// that pushes no op appends no record.
    ///
    /// `f` must not touch a file, wait on the WAL or grant space (see the
    /// module docs). The record is durable after the next
    /// [`Registry::commit`].
    pub fn transact<T, E: From<PmError>>(
        &self,
        f: impl FnOnce(&RegistryData, &mut Vec<RegistryOp>) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let mut tables = self.tables.write();
        let mut ops = Vec::new();
        let value = f(&tables, &mut ops)?;
        if !ops.is_empty() {
            self.wal.submit_batch(&ops)?;
            for op in &ops {
                wal::apply_op(&mut tables, op);
            }
        }
        Ok(value)
    }

    /// Makes every transaction performed so far durable: one group commit
    /// covers this thread's record and any enqueued concurrently. The
    /// service layer calls this once per client request, after the
    /// request's transaction.
    ///
    /// The commit that finds the WAL's tail past its byte threshold also
    /// checkpoints, on this thread, before it returns — the one trigger
    /// there is, on every clock and with or without a daemon around the
    /// registry. [`Wal::compact`] holds the group-commit writer role for
    /// its whole run, so concurrent committers wait behind it whichever
    /// thread runs it; handing it to another thread would spare this one
    /// request and nobody else. A commit that finds a checkpoint already
    /// running skips (that one's cut may predate this record; the next
    /// crossing commit re-trips). A checkpoint that fails is not the
    /// request's failure — the flush made the mutation durable, and an
    /// `Err` would have the client retry an operation that took effect —
    /// and leaves the WAL usable: the next crossing commit retries, with
    /// no back-off.
    pub fn commit(&self) -> Result<()> {
        self.wal.flush()?;
        if self.wal.should_checkpoint() {
            if let Some(guard) = self.ckpt_lock.try_lock() {
                let _ = self.checkpoint_locked(guard);
            }
        }
        Ok(())
    }

    /// Runs `f` on the tables under the read lock: any lookup that needs
    /// more than one entry to agree (a pool and its members, the counts of
    /// `Stats`). `f` should clone what it needs and return — the rule for
    /// transactions holds for readers too.
    pub fn read<T>(&self, f: impl FnOnce(&RegistryData) -> T) -> T {
        f(&self.tables.read())
    }

    /// Snapshot plus the WAL cut — byte position and record sequence — it
    /// corresponds to. The cut is read under the lock the tables are copied
    /// under, so every record below it is reflected in the snapshot and
    /// every record at or above it is not.
    ///
    /// The allocator is reported in **canonical** form — merged free list,
    /// frontier-adjacent extents absorbed into the bump pointer — which is
    /// exactly what [`reconcile`] rebuilds, so a live snapshot and a
    /// post-crash replay are bit-identical. It has no records to cut
    /// between, so it is read on its own lock inside the guarded region.
    fn snapshot_with_cut(&self) -> (RegistryData, u64, u64) {
        let tables = self.tables.read();
        let (cut_pos, cut_seq) = self.wal.position();
        let (free_list, next_offset) = self.alloc.canonical();
        let data = RegistryData {
            free_list,
            next_offset,
            next_seq: tables.next_seq.max(self.next_seq.load(Ordering::Relaxed)),
            ..tables.clone()
        };
        (data, cut_pos, cut_seq)
    }

    /// A consistent copy of the full registry state (stats, tests,
    /// checkpoints): taken under the one lock, so it falls between two
    /// transactions.
    pub fn snapshot(&self) -> RegistryData {
        self.snapshot_with_cut().0
    }

    /// Writes a checkpoint: compacts the WAL into a snapshot of the current
    /// tables plus the records the snapshot does not cover, in one atomic
    /// replace ([`Wal::compact`]). Concurrent checkpoints serialize. A
    /// failure leaves the WAL as it was and usable.
    pub fn checkpoint(&self) -> Result<()> {
        let guard = self.ckpt_lock.lock();
        self.checkpoint_locked(guard)
    }

    /// One checkpoint, whoever triggered it; its outcome is recorded here
    /// (the `checkpoint` series, or the `checkpoint.failed` counter and a
    /// `ckpt.end failed` trace event) so that the next trigger can retry.
    fn checkpoint_locked(&self, _guard: MutexGuard<'_, ()>) -> Result<()> {
        let clock = self.wal.clock();
        let obs = self.wal.obs();
        let start = clock.now();
        let (data, cut_pos, cut_seq) = self.snapshot_with_cut();
        obs.trace(TraceEventKind::CheckpointBegin, "", cut_seq, 0);
        let result = self.wal.compact(&data, cut_pos, cut_seq);
        let outcome = if result.is_ok() {
            obs.series("checkpoint")
                .record_duration(clock.now() - start);
            ""
        } else {
            obs.counter("checkpoint.failed")
                .fetch_add(1, Ordering::Relaxed);
            "failed"
        };
        obs.trace(TraceEventKind::CheckpointEnd, outcome, cut_seq, 0);
        result
    }

    /// Allocates a fresh UUID.
    pub fn fresh_id(&self) -> PuddleId {
        // Relaxed: the counter is purely monotonic and the random salt makes
        // collisions across daemon instances vanishingly unlikely; no other
        // memory is ordered against it (records reach the tables under
        // their lock).
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        // Mix a per-daemon random salt with a sequence number so ids from
        // different daemon instances (different "machines") do not collide.
        let salt: u64 = rand::random();
        PuddleId(((salt as u128) << 64) | seq as u128)
    }

    /// Allocates `size` bytes of the global space, returning the offset —
    /// O(1) through the segregated-fit allocator
    /// ([`crate::alloc::SpaceAlloc`]).
    ///
    /// Nothing is logged: the grant becomes durable as the `offset` of the
    /// `PutPuddle` record that uses it, and a grant lost to a crash is
    /// reclaimed by [`reconcile`] (an extent no puddle record covers is
    /// free by definition).
    pub fn alloc_space(&self, size: u64) -> Result<u64> {
        self.alloc.alloc(size)
    }

    /// Returns `size` bytes at `offset` to the free lists — an O(1) push;
    /// merging is deferred to the lazy coalesce pass. Callers free an
    /// extent only after the transaction that dropped its puddle (or
    /// without ever having registered one), so the `DropPuddle` precedes
    /// any `PutPuddle` that reuses the range in the WAL.
    pub fn free_space(&self, offset: u64, size: u64) {
        self.alloc.free(offset, size);
        // The pass runs on the free that trips the threshold (amortized
        // O(1) per free). Whichever thread ran it, it would hold the
        // arena's only lock for its whole sort, so there is nothing to gain
        // by handing it to another one.
        if self.alloc.wants_coalesce() {
            self.timed_coalesce(CoalesceKind::Lazy, "lazy");
        }
    }

    /// Runs one coalesce pass, timing it into the `alloc.coalesce` series
    /// and marking it in the trace ring (`a` = 1 if the pass merged).
    fn timed_coalesce(&self, kind: CoalesceKind, detail: &'static str) -> bool {
        let clock = self.wal.clock();
        let obs = self.wal.obs();
        let start = clock.now();
        let merged = self.alloc.coalesce(kind);
        obs.series("alloc.coalesce")
            .record_duration(clock.now() - start);
        obs.trace(TraceEventKind::Coalesce, detail, merged as u64, 0);
        merged
    }

    /// Runs a coalesce pass immediately (tests, tools); counted as
    /// forced-inline. Returns `false` when there was nothing to merge.
    pub fn force_coalesce(&self) -> bool {
        self.timed_coalesce(CoalesceKind::ForcedInline, "forced")
    }

    /// Overrides the free-extent count that triggers a lazy coalesce pass
    /// (tests, benches).
    pub fn set_coalesce_threshold(&self, threshold: u64) {
        self.alloc.set_coalesce_threshold(threshold);
    }

    /// Allocator observability counters for the daemon's `Stats` response.
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc.stats()
    }

    // -- Lookups ------------------------------------------------------------

    /// Looks up a puddle record (clones under the shared read lock, so
    /// concurrent lookups never serialize — and never allocate for the key:
    /// the table is keyed by `PuddleId` directly).
    pub fn puddle(&self, id: PuddleId) -> Option<PuddleRecord> {
        self.tables.read().puddles.get(&id).cloned()
    }

    // -- Relocation ---------------------------------------------------------

    /// Whether puddle `id` (`None`: unknown) awaits a pointer rewrite, and
    /// the old→new table for it — computed, never stored. Pending from an
    /// import: where each imported member of its pool was exported → where
    /// it sits now, whatever the base by now. From a base move: the whole
    /// space, from the base it left.
    pub fn relocation(&self, id: PuddleId) -> Option<(bool, Vec<Translation>)> {
        let data = self.tables.read();
        let record = data.puddles.get(&id)?;
        let table = match record.rewrite {
            Rewrite::Clean => Vec::new(),
            Rewrite::Import => {
                let pool = record.pool.as_deref().unwrap_or_default();
                import_table(data.space_base, data.members(pool))
            }
            Rewrite::BaseMove => vec![Translation {
                old_addr: data.moved_from,
                new_addr: data.space_base,
                len: data.space_size,
            }],
        };
        Some((record.rewrite != Rewrite::Clean, table))
    }

    /// If the global space landed at a different base than the recorded one,
    /// marks every clean puddle [`Rewrite::BaseMove`] and records the new
    /// base and the one it left. Returns `true` if the base moved.
    ///
    /// A base move shifts every puddle by the same delta, so one
    /// whole-space translation — derived from `moved_from` — covers a puddle
    /// that was clean. One still pending from an import stays so: its
    /// pointers hold the exporter's addresses, and its derived table targets
    /// the new base from here on. Caveat: a second move overwrites
    /// `moved_from` under the puddles still pending from the first.
    pub fn apply_base_relocation(&self, new_base: u64) -> Result<bool> {
        {
            let mut tables = self.tables.write();
            if tables.space_base == new_base {
                return Ok(false);
            }
            for p in tables.puddles.values_mut() {
                if p.rewrite == Rewrite::Clean {
                    p.rewrite = Rewrite::BaseMove;
                }
            }
            tables.moved_from = tables.space_base;
            tables.space_base = new_base;
        }
        // A base move is a rare, startup-only event that touches every
        // record and appends none: it is the one edit that bypasses
        // `transact` and persists as one atomic checkpoint, whose header
        // carries the new base together with the rewrite marks it implies —
        // a replayed base change without those marks would leave pointers
        // unrewritten.
        self.checkpoint()?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn registry() -> (tempfile::TempDir, Registry) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let reg = Registry::load_or_create(&pm, 0x5000_0000_0000, 1 << 30).unwrap();
        (tmp, reg)
    }

    /// One transaction of `batch`.
    fn transact(reg: &Registry, batch: Vec<RegistryOp>) {
        reg.transact(|_, ops| {
            ops.extend(batch);
            Ok::<_, PmError>(())
        })
        .unwrap();
    }

    /// A pool named `name` whose root is `root` — `CreatePool`'s record.
    fn put_pool(reg: &Registry, name: &str, root: PuddleRecord) {
        let pool = RegistryOp::PutPool {
            name: name.into(),
            root: root.id,
        };
        transact(reg, vec![pool, RegistryOp::PutPuddle(root)]);
    }

    fn members(reg: &Registry, pool: &str) -> Vec<PuddleId> {
        reg.read(|data| data.pools[pool].puddles.clone())
    }

    fn put(rec: &PuddleRecord) -> Vec<RegistryOp> {
        vec![RegistryOp::PutPuddle(rec.clone())]
    }

    fn drop_puddle(rec: &PuddleRecord) -> Vec<RegistryOp> {
        vec![RegistryOp::DropPuddle { id: rec.id }]
    }

    fn record(reg: &Registry, pool: Option<&str>) -> PuddleRecord {
        let id = reg.fresh_id();
        let offset = reg.alloc_space(PAGE_SIZE as u64).unwrap();
        PuddleRecord {
            id,
            size: PAGE_SIZE as u64,
            offset,
            purpose: PuddlePurpose::Data,
            owner_uid: 1,
            owner_gid: 2,
            mode: 0o600,
            pool: pool.map(String::from),
            old_addr: 0,
            rewrite: Rewrite::Clean,
        }
    }

    #[test]
    fn allocation_is_page_aligned_and_disjoint() {
        let (_tmp, reg) = registry();
        let a = reg.alloc_space(100).unwrap();
        let b = reg.alloc_space(8192).unwrap();
        let c = reg.alloc_space(1).unwrap();
        assert_eq!(a % PAGE_SIZE as u64, 0);
        assert_eq!(b % PAGE_SIZE as u64, 0);
        assert!(b >= a + PAGE_SIZE as u64);
        assert!(c >= b + 8192);
    }

    #[test]
    fn freed_space_is_reused_and_coalesced() {
        let (_tmp, reg) = registry();
        let a = reg.alloc_space(PAGE_SIZE as u64).unwrap();
        let b = reg.alloc_space(PAGE_SIZE as u64).unwrap();
        reg.free_space(a, PAGE_SIZE as u64);
        reg.free_space(b, PAGE_SIZE as u64);
        // Frees are lazy (no merge ran yet), but snapshots always serialize
        // the canonical view: here everything the registry ever allocated is
        // free again, so the whole region folds back into the bump frontier.
        let snap = reg.snapshot();
        assert!(snap.free_list.is_empty());
        assert_eq!(snap.next_offset, a);
        // After a merge pass the two adjacent pages satisfy one two-page
        // allocation at the original offset.
        assert!(reg.force_coalesce());
        let c = reg.alloc_space(2 * PAGE_SIZE as u64).unwrap();
        assert_eq!(c, a);
    }

    /// The allocator is derived state: a grant and a free buffer nothing.
    #[test]
    fn space_grants_never_reach_the_wal() {
        let (_tmp, reg) = registry();
        let before = reg.wal().stats();
        let off = reg.alloc_space(3 * PAGE_SIZE as u64).unwrap();
        reg.free_space(off, 3 * PAGE_SIZE as u64);
        let after = reg.wal().stats();
        assert_eq!((after.records, after.bytes), (before.records, before.bytes));
    }

    #[test]
    fn coalesce_threshold_triggers_inline_for_bare_registries() {
        let (_tmp, reg) = registry();
        reg.set_coalesce_threshold(4);
        let offs: Vec<u64> = (0..8)
            .map(|_| reg.alloc_space(PAGE_SIZE as u64).unwrap())
            .collect();
        for &off in &offs {
            reg.free_space(off, PAGE_SIZE as u64);
        }
        let stats = reg.alloc_stats();
        // The free that trips the threshold runs the pass (counted as
        // lazy). The trigger re-arms relative to the
        // previous pass's residue, so not every free past the fourth merges
        // — but the count must sit well below the eight raw frees.
        assert!(
            stats.lazy_coalesce_runs >= 1,
            "threshold never tripped: {stats:?}"
        );
        assert!(stats.free_extents <= 5, "frees were not merged: {stats:?}");
        // A fragmented residue must not re-trigger on every free: a second
        // identical storm may merge again, but the pass count stays bounded
        // by the re-arm schedule instead of growing one-per-free.
        let runs_after_first_storm = stats.lazy_coalesce_runs + stats.forced_inline_coalesces;
        let offs: Vec<u64> = (0..8)
            .map(|_| reg.alloc_space(PAGE_SIZE as u64).unwrap())
            .collect();
        for &off in &offs {
            reg.free_space(off, PAGE_SIZE as u64);
        }
        let stats = reg.alloc_stats();
        let runs = stats.lazy_coalesce_runs + stats.forced_inline_coalesces;
        assert!(
            runs - runs_after_first_storm <= 3,
            "coalesce re-triggered on nearly every free: {stats:?}"
        );
    }

    #[test]
    fn allocation_fails_when_space_is_exhausted() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let reg = Registry::load_or_create(&pm, 0, (4 * PAGE_SIZE) as u64).unwrap();
        reg.alloc_space(2 * PAGE_SIZE as u64).unwrap();
        assert!(reg.alloc_space(2 * PAGE_SIZE as u64).is_err());
    }

    #[test]
    fn registry_persists_across_reloads() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let id;
        {
            let reg = Registry::load_or_create(&pm, 7, 1 << 30).unwrap();
            let rec = record(&reg, Some("p"));
            id = rec.id;
            put_pool(&reg, "p", rec);
            reg.commit().unwrap();
        }
        let reg = Registry::load_or_create(&pm, 7, 1 << 30).unwrap();
        assert!(reg.puddle(id).is_some());
        assert_eq!(members(&reg, "p"), vec![id]);
        assert_eq!(reg.snapshot().space_base, 7);
    }

    /// The upgrade rule reaches every way of loading a registry: the WAL
    /// open underneath refuses a directory with a leftover JSON checkpoint.
    #[test]
    fn load_refuses_a_directory_with_a_json_checkpoint() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        drop(Registry::load_or_create(&pm, 7, 1 << 30).unwrap());
        let wal_file = std::fs::read(pm.meta_path("registry.wal")).unwrap();
        std::fs::write(pm.meta_path("registry.json"), b"{}").unwrap();
        let err = Registry::load_or_create(&pm, 7, 1 << 30).unwrap_err();
        assert!(err.to_string().contains("upgrade rule"), "{err}");
        assert_eq!(
            std::fs::read(pm.meta_path("registry.wal")).unwrap(),
            wal_file
        );
    }

    #[test]
    fn fresh_ids_are_unique() {
        let (_tmp, reg) = registry();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(reg.fresh_id()));
        }
    }

    #[test]
    fn log_space_registration_replaces_duplicates() {
        let (_tmp, reg) = registry();
        let id = reg.fresh_id();
        for owner in [1, 2] {
            let space = LogSpaceRecord {
                puddle: id,
                owner_uid: owner,
                owner_gid: owner,
                invalid: false,
            };
            transact(&reg, vec![RegistryOp::PutLogSpace(space)]);
        }
        let spaces = reg.snapshot().log_spaces;
        assert_eq!(spaces.len(), 1);
        assert_eq!(spaces[0].owner_uid, 2);
        transact(&reg, vec![RegistryOp::InvalidateLogSpace { puddle: id }]);
        assert!(reg.snapshot().log_spaces[0].invalid);
    }

    /// A transaction is all or nothing: an `Err` from its closure, or a
    /// record over the WAL's limit, leaves the tables, the WAL buffer and its
    /// tickets as they were — typed, with the WAL unpoisoned, so the next
    /// commit goes through and a reload lands on the live state.
    #[test]
    fn a_refused_transaction_logs_and_applies_nothing() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let reg = Registry::load_or_create(&pm, 7, 1 << 30).unwrap();
        transact(&reg, put(&record(&reg, None)));
        reg.commit().unwrap();
        let rec = record(&reg, None);
        let state = || {
            let stats = reg.wal().stats();
            let wal = (stats.bytes, stats.records, reg.wal().position());
            (reg.snapshot().puddles, wal)
        };
        let before = state();

        let refused = reg.transact(|data, ops| {
            assert_eq!(data.puddles.len(), 1, "checks run against the tables");
            ops.extend(put(&rec));
            Err::<(), _>(PmError::Corruption("the closure's check failed".into()))
        });
        assert!(matches!(refused, Err(PmError::Corruption(_))));
        let huge = RegistryOp::PutPtrMap(PtrMapDecl {
            type_id: 1,
            type_name: "x".repeat(wal::MAX_RECORD),
            size: 8,
            fields: vec![],
        });
        let oversized = reg.transact(|_, ops| {
            ops.extend(put(&rec));
            ops.push(huge);
            Ok::<_, PmError>(())
        });
        assert!(
            matches!(oversized, Err(PmError::RecordTooLarge { max, .. }) if max == wal::MAX_RECORD),
            "{oversized:?}"
        );
        assert_eq!(state(), before);
        reg.free_space(rec.offset, rec.size);

        transact(&reg, put(&record(&reg, None)));
        reg.commit().expect("the WAL must not be poisoned");
        let live = reg.snapshot();
        assert_eq!(live.puddles.len(), 2);
        drop(reg);
        let reg = Registry::load_or_create(&pm, 7, 1 << 30).unwrap();
        assert_eq!(reg.snapshot(), live);
    }

    /// Membership is the record's `pool` field; the pool's list follows it.
    #[test]
    fn a_puddle_record_is_its_pool_membership() {
        let (_tmp, reg) = registry();
        let root = record(&reg, Some("p"));
        let root_id = root.id;
        put_pool(&reg, "p", root);
        // Ids drawn in one order, recorded in the other: the list is by
        // sequence number whichever transaction came first.
        let (first, second) = (record(&reg, Some("p")), record(&reg, Some("p")));
        transact(&reg, put(&second));
        transact(&reg, put(&first));
        let in_order = vec![root_id, first.id, second.id];
        assert_eq!(members(&reg, "p"), in_order);
        crate::Invariants::assert_all(&reg);
        // Replacing a record (`MarkRewritten`) is not joining twice.
        transact(&reg, put(&first));
        assert_eq!(members(&reg, "p"), in_order);
        transact(&reg, drop_puddle(&first));
        assert_eq!(members(&reg, "p"), vec![root_id, second.id]);
        assert!(reg.puddle(first.id).is_none());
        crate::Invariants::assert_all(&reg);
    }

    /// A base move marks clean puddles for one whole-space translation; a
    /// puddle still pending from an import stays so, and its table — the
    /// exporter's addresses of its pool's imported members — targets the
    /// new base.
    #[test]
    fn base_relocation_marks_all_puddles() {
        let (_tmp, reg) = registry();
        let clean = record(&reg, None);
        transact(&reg, put(&clean));
        let imported = |old_addr, rewrite| PuddleRecord {
            old_addr,
            rewrite,
            ..record(&reg, Some("imp"))
        };
        let pending = imported(0x7000_0000, Rewrite::Import);
        let rewritten = imported(0x7100_0000, Rewrite::Clean);
        let (pending_id, rewritten_id) = (pending.id, rewritten.id);
        put_pool(&reg, "imp", pending.clone());
        transact(&reg, put(&rewritten));
        let joined = record(&reg, Some("imp")); // created in the pool since
        transact(&reg, put(&joined));

        let old_base = reg.read(|data| data.space_base);
        let import_table = |base: u64| -> Vec<Translation> {
            [&pending, &rewritten]
                .map(|r| Translation {
                    old_addr: r.old_addr,
                    new_addr: base + r.offset,
                    len: r.size,
                })
                .to_vec()
        };
        assert_eq!(
            reg.relocation(pending_id),
            Some((true, import_table(old_base)))
        );
        assert_eq!(reg.relocation(rewritten_id), Some((false, vec![])));
        assert_eq!(reg.relocation(PuddleId(0)), None);

        assert!(!reg.apply_base_relocation(old_base).unwrap());
        let new_base = old_base + (1 << 30);
        assert!(reg.apply_base_relocation(new_base).unwrap());
        assert_eq!(reg.read(|data| data.space_base), new_base);
        // One whole-space translation (nothing stored per record), which
        // translates the puddle's own addresses correctly.
        let whole_space = Translation {
            old_addr: old_base,
            new_addr: new_base,
            len: 1 << 30,
        };
        for id in [clean.id, rewritten_id, joined.id] {
            assert_eq!(reg.relocation(id), Some((true, vec![whole_space])));
        }
        assert_eq!(
            whole_space.translate(old_base + clean.offset),
            Some(new_base + clean.offset),
            "whole-space translation must cover the puddle's extent"
        );
        assert_eq!(
            reg.relocation(pending_id),
            Some((true, import_table(new_base)))
        );
    }

    /// The allocator is derived at load, from the puddle table alone: an
    /// extent whose free never reached the (volatile) free lists is a gap
    /// like any other.
    #[test]
    fn reconcile_rebuilds_the_allocator_from_the_live_extents() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let survivor_offset;
        {
            let reg = Registry::load_or_create(&pm, 0, 1 << 30).unwrap();
            let leaked = record(&reg, None);
            let survivor = record(&reg, None);
            survivor_offset = survivor.offset;
            transact(&reg, put(&leaked));
            transact(&reg, put(&survivor));
            transact(&reg, drop_puddle(&leaked)); // free_space "lost"
            reg.commit().unwrap();
        }
        let reg = Registry::load_or_create(&pm, 0, 1 << 30).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.free_list, vec![(PAGE_SIZE as u64, PAGE_SIZE as u64)]);
        assert_eq!(snap.next_offset, survivor_offset + PAGE_SIZE as u64);
        // The next allocation reuses the gap instead of bumping past it.
        assert_eq!(reg.alloc_space(PAGE_SIZE as u64).unwrap(), PAGE_SIZE as u64);
    }

    #[test]
    fn a_commit_that_finds_the_lock_free_leaves_the_tail_under_the_threshold() {
        let (_tmp, reg) = registry();
        reg.wal().set_checkpoint_threshold(256);
        for _ in 0..40 {
            transact(&reg, put(&record(&reg, None)));
            reg.commit().unwrap();
            assert!(reg.wal().stats().bytes < 256);
        }
        assert!(reg.wal().stats().checkpoints >= 2);
        // A commit that finds a checkpoint running skips; the next one
        // that crosses with the lock free folds the tail away.
        let running = reg.ckpt_lock.lock();
        while reg.wal().stats().bytes < 256 {
            transact(&reg, put(&record(&reg, None)));
            reg.commit().unwrap();
        }
        drop(running);
        transact(&reg, put(&record(&reg, None)));
        reg.commit().unwrap();
        assert_eq!(reg.wal().stats().records, 0);
    }

    #[test]
    fn concurrent_allocations_are_disjoint_and_reads_do_not_block() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let reg = Arc::new(Registry::load_or_create(&pm, 0, 1 << 30).unwrap());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let mut offsets = Vec::new();
                    for _ in 0..50 {
                        let rec = record(&reg, None);
                        offsets.push((rec.offset, rec.size));
                        transact(&reg, put(&rec));
                    }
                    offsets
                })
            })
            .collect();
        let mut all: Vec<(u64, u64)> = Vec::new();
        for t in threads {
            all.extend(t.join().unwrap());
        }
        all.sort_unstable();
        for pair in all.windows(2) {
            assert!(
                pair[0].0 + pair[0].1 <= pair[1].0,
                "overlapping allocations: {pair:?}"
            );
        }
        assert_eq!(reg.read(|data| data.puddles.len()), 400);
    }
}
