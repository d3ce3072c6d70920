//! The daemon's persistent metadata: puddles, pools, pointer maps, log
//! spaces, and global-space address allocation.
//!
//! The paper stores this metadata in a persistent hash map owned by the
//! daemon so each mutation persists incrementally (§4.2). We reproduce that
//! cost profile with **one file** in the PM directory, `meta/registry.wal`,
//! the metadata WAL ([`crate::wal`]): every mutation appends one checksummed
//! [`RegistryOp`] record and makes it durable with a *group commit* (one
//! fsync covers every concurrently enqueued record), so steady-state
//! persistence is O(record), not O(registry).
//!
//! When the WAL's tail passes a byte threshold the registry **checkpoints by
//! compacting it** ([`Registry::checkpoint`]): one atomic replace of the
//! file with a snapshot header, one put record per live table entry, and
//! the records enqueued after the snapshot's cut. Loading is the reverse:
//! replay the one file (tolerating a torn final record), then run
//! [`reconcile`].
//!
//! # Concurrency
//!
//! The registry is internally sharded so concurrent clients contend only on
//! the tables they actually touch:
//!
//! * [`puddles`](Registry::puddle) — `RwLock`, read-mostly (`GetPuddle`,
//!   `GetRelocation`/translation lookups run under a read lock and in
//!   parallel);
//! * pools — `RwLock`, separate from puddles so pool opens don't block
//!   puddle lookups;
//! * pointer maps and log spaces — their own `RwLock`s;
//! * the global-space allocator — [`crate::alloc::SpaceAlloc`], segregated
//!   free lists behind one mutex with **lazy coalescing**: alloc and free
//!   are O(1), and the deferred merge pass runs on the background scheduler
//!   past a free-extent threshold (forced inline past the hard ceiling),
//!   mirroring the WAL checkpoint pattern. It is derived state — never
//!   logged, rebuilt from the puddle table by [`reconcile`] at every load.
//!
//! Cross-table operations (a puddle joining a pool, a pool drop) take the
//! locks they need in a fixed order — **pools → puddles → ptr_maps →
//! log_spaces → space** — which makes deadlock impossible; every multi-lock
//! method in this file follows that order. Mutators enqueue their WAL
//! records *while holding* the shard lock that serializes the mutation
//! (the WAL's internal lock is a leaf), so conflicting records land in the
//! log in application order; the fsync wait happens after the shard locks
//! are released. Checkpoints copy the shards under short read locks while
//! holding a dedicated checkpoint lock, so concurrent checkpoints serialize
//! but readers are never blocked for the encoding or the I/O.

use crate::alloc::{AllocStats, CoalesceKind, SpaceAlloc, COALESCE_HARD_FACTOR};
use crate::background::Background;
use crate::wal::{self, RegistryOp, Wal, WalHandle};
use parking_lot::{Mutex, MutexGuard, RwLock};
use puddles_pmem::obs::TraceEventKind;
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::util::align_up;
use puddles_pmem::{Result, PAGE_SIZE};
use puddles_proto::{PoolInfo, PtrMapDecl, PuddleId, PuddlePurpose, Translation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Persistent record of one puddle.
#[derive(Debug, Clone, PartialEq)]
pub struct PuddleRecord {
    /// The puddle's UUID.
    pub id: PuddleId,
    /// Total size in bytes.
    pub size: u64,
    /// Offset of the puddle within the global puddle space.
    pub offset: u64,
    /// Name of the backing file inside the PM directory.
    pub file: String,
    /// What the puddle is used for.
    pub purpose: PuddlePurpose,
    /// Owning user id.
    pub owner_uid: u32,
    /// Owning group id.
    pub owner_gid: u32,
    /// UNIX-like permission bits.
    pub mode: u32,
    /// The pool this puddle belongs to, if any.
    pub pool: Option<String>,
    /// `true` if the puddle's pointers must be rewritten before use.
    pub needs_rewrite: bool,
    /// Old→new translations to apply while rewriting (the persisted
    /// "frontier" state of §4.2).
    pub translations: Vec<Translation>,
}

/// Persistent record of one pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolRecord {
    /// Pool name.
    pub name: String,
    /// Root puddle UUID.
    pub root: PuddleId,
    /// All puddles in the pool, root first.
    pub puddles: Vec<PuddleId>,
}

impl PoolRecord {
    /// Converts the record into the protocol representation.
    pub fn to_info(&self) -> PoolInfo {
        PoolInfo {
            name: self.name.clone(),
            root_puddle: self.root,
            puddles: self.puddles.clone(),
        }
    }
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
/// load and what [`Registry::snapshot`] copies out of the live shards. A
/// checkpoint writes it as WAL records ([`wal::snapshot_ops`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistryData {
    /// Base address of the global space the puddles' pointers assume.
    pub space_base: u64,
    /// Size of the global space.
    pub space_size: u64,
    /// Bump pointer for address allocation (offset within the space).
    /// Derived from the puddle table, like `free_list`; never persisted.
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

/// Failure modes of cross-table registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryOpError {
    /// The named pool does not exist.
    NoSuchPool(String),
}

/// The sharded registry plus its persistence handle. All methods take
/// `&self`; shards are locked internally (see the module docs for the lock
/// order).
#[derive(Debug)]
pub struct Registry {
    /// The metadata WAL every mutator appends to.
    wal: WalHandle,
    // Shards, declared in lock order and keyed like [`RegistryData`].
    pools: RwLock<BTreeMap<String, PoolRecord>>,
    puddles: RwLock<BTreeMap<PuddleId, PuddleRecord>>,
    ptr_maps: RwLock<BTreeMap<u64, PtrMapDecl>>,
    log_spaces: RwLock<Vec<LogSpaceRecord>>,
    alloc: SpaceAlloc,
    next_seq: AtomicU64,
    /// One checkpoint (snapshot + WAL compaction) at a time.
    ckpt_lock: Mutex<()>,
    /// Background executor for threshold-triggered checkpoints (the daemon
    /// attaches one via [`Registry::enable_background_checkpoints`]; bare
    /// registries — tests, benches — checkpoint inline as before). The
    /// `Weak` is this registry's own handle, captured by submitted tasks.
    background: Mutex<Option<(Background, Weak<Registry>)>>,
    /// `true` while a background checkpoint is queued or running; dedups
    /// submissions so a burst of commits enqueues one checkpoint, not N.
    ckpt_pending: AtomicBool,
    /// Checkpoints completed by the background scheduler.
    background_checkpoints: AtomicU64,
    /// Checkpoints forced inline on the request path because the WAL passed
    /// the hard ceiling (the background scheduler fell behind).
    forced_inline_checkpoints: AtomicU64,
    /// `true` while a lazy coalesce pass is queued or running on the
    /// background scheduler; dedups submissions exactly like
    /// [`Registry::ckpt_pending`] does for checkpoints.
    coalesce_pending: AtomicBool,
}

/// Repairs a replayed registry in place.
///
/// A multi-table operation logs one record per table it touches, and a
/// crash (or a torn tail) can cut the log between them, so replay can land
/// on a state that is torn *between* tables: a pool listing a member whose
/// record is gone, a puddle naming a pool that was never completed. Each
/// table is internally consistent, so the cross-table state is re-derived
/// here at load: membership is reconciled against the puddle table (the
/// source of truth) and the space allocator — which is never persisted at
/// all — is rebuilt from the live extents.
fn reconcile(data: &mut RegistryData) {
    let live_ids: std::collections::BTreeSet<PuddleId> =
        data.puddles.values().map(|p| p.id).collect();

    // Drop member ids whose puddle record is gone.
    for pool in data.pools.values_mut() {
        pool.puddles.retain(|id| live_ids.contains(id));
    }
    // Drop pools whose root puddle never materialized (e.g. a crash between
    // the name claim and the root creation), detaching surviving members.
    let dead_pools: Vec<String> = data
        .pools
        .values()
        .filter(|pool| !live_ids.contains(&pool.root))
        .map(|pool| pool.name.clone())
        .collect();
    for name in &dead_pools {
        data.pools.remove(name);
    }
    // Re-derive each puddle's membership: a puddle naming a missing pool is
    // detached; one missing from its (existing) pool's list is re-attached.
    for record in data.puddles.values_mut() {
        if let Some(pool_name) = record.pool.clone() {
            match data.pools.get_mut(&pool_name) {
                None => record.pool = None,
                Some(pool) => {
                    if !pool.puddles.contains(&record.id) {
                        pool.puddles.push(record.id);
                    }
                }
            }
        }
    }
    // Rebuild the allocator from the live extents: the free list is exactly
    // the set of gaps, and the bump pointer the end of the last extent, so
    // no crash can leak space past a restart. This is also the canonical
    // form [`Registry::snapshot`] reports
    // ([`crate::alloc::SpaceAlloc::canonical`]), so replayed and live
    // snapshots stay bit-identical.
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
    /// file — snapshot, then tail — reconciles, and checkpoints, folding
    /// the tail and whatever reconcile healed into a fresh snapshot.
    /// `space_base`/`space_size` describe a registry created now; a loaded
    /// one keeps what its snapshot header recorded.
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
            pools: RwLock::new(data.pools),
            puddles: RwLock::new(data.puddles),
            ptr_maps: RwLock::new(data.ptr_maps),
            log_spaces: RwLock::new(data.log_spaces),
            alloc: SpaceAlloc::new(
                data.space_base,
                data.space_size,
                data.next_offset,
                data.free_list,
            ),
            next_seq: AtomicU64::new(data.next_seq),
            ckpt_lock: Mutex::new(()),
            background: Mutex::new(None),
            ckpt_pending: AtomicBool::new(false),
            background_checkpoints: AtomicU64::new(0),
            forced_inline_checkpoints: AtomicU64::new(0),
            coalesce_pending: AtomicBool::new(false),
        };
        reg.checkpoint()?;
        Ok(reg)
    }

    /// Returns the registry's WAL handle (stats, tests).
    pub fn wal(&self) -> &WalHandle {
        &self.wal
    }

    /// Routes threshold-triggered checkpoints to `bg` instead of running
    /// them inline on whichever request trips the byte threshold. Tasks hold
    /// only a `Weak` back-reference, so the scheduler never keeps a dropped
    /// registry alive.
    pub fn enable_background_checkpoints(self: &Arc<Self>, bg: Background) {
        *self.background.lock() = Some((bg, Arc::downgrade(self)));
    }

    /// `(background, forced_inline)` checkpoint counters — how often the
    /// byte threshold was absorbed off the request path vs. paid inline
    /// because the WAL passed the hard ceiling.
    pub fn checkpoint_counters(&self) -> (u64, u64) {
        (
            self.background_checkpoints.load(Ordering::Relaxed),
            self.forced_inline_checkpoints.load(Ordering::Relaxed),
        )
    }

    /// Checkpoints if records have sat uncheckpointed longer than
    /// `max_age_ms` — the **age-based** trigger the daemon's periodic
    /// background hook fires, complementing the byte threshold: a quiet daemon
    /// whose trickle of mutations never reaches the threshold still gets
    /// its WAL folded away, bounding replay work at the next start. Returns
    /// `true` if a checkpoint ran (counted as a background checkpoint).
    pub fn checkpoint_if_stale(&self, max_age_ms: u64) -> Result<bool> {
        let stats = self.wal.stats();
        if stats.records == 0 || stats.checkpoint_age_ms < max_age_ms {
            return Ok(false);
        }
        self.checkpoint()?;
        self.background_checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Enqueues one WAL record, deferring any failure to the next
    /// [`Registry::commit`]. Mutators call this while holding the shard
    /// lock that serializes the mutation, so conflicting records are logged
    /// in application order; a failed submit poisons the WAL and every
    /// later commit reports it.
    fn wal_submit(&self, op: RegistryOp) {
        let _ = self.wal.submit(&op);
    }

    /// Makes every registry mutation performed so far durable: one group
    /// commit covers this thread's records and any enqueued concurrently.
    /// The service layer calls this once per client request, after the
    /// request's (possibly several) mutations. Also checkpoints when the
    /// WAL has outgrown its threshold; a checkpoint that fails then is not
    /// the request's failure — the flush made the mutation durable, and an
    /// `Err` would have the client retry an operation that took effect.
    pub fn commit(&self) -> Result<()> {
        self.wal.flush()?;
        self.maybe_checkpoint();
        Ok(())
    }

    /// Snapshot plus the WAL cut — byte position and record sequence — it
    /// corresponds to. All table guards are held together while the cut is
    /// read, so every record below the cut is reflected in the snapshot and
    /// every record at or above it is not.
    ///
    /// The allocator is reported in **canonical** form — merged free list,
    /// frontier-adjacent extents absorbed into the bump pointer — which is
    /// exactly what [`reconcile`] rebuilds, so a live snapshot and a
    /// post-crash replay are bit-identical. It has no records to cut
    /// between, so it is read on its own lock inside the guarded region.
    fn snapshot_with_cut(&self) -> (RegistryData, u64, u64) {
        let pools_guard = self.pools.read();
        let puddles_guard = self.puddles.read();
        let ptr_maps_guard = self.ptr_maps.read();
        let log_spaces_guard = self.log_spaces.read();
        let (cut_pos, cut_seq) = self.wal.position();
        let (free_list, next_offset) = self.alloc.canonical();
        let data = RegistryData {
            space_base: self.alloc.space_base(),
            space_size: self.alloc.space_size(),
            next_offset,
            free_list,
            puddles: puddles_guard.clone(),
            pools: pools_guard.clone(),
            ptr_maps: ptr_maps_guard.clone(),
            log_spaces: log_spaces_guard.clone(),
            next_seq: self.next_seq.load(Ordering::Relaxed),
        };
        (data, cut_pos, cut_seq)
    }

    /// Assembles a consistent copy of the full registry state (stats, tests,
    /// checkpoints). All shard guards are acquired in lock order and held
    /// together while cloning, so a snapshot never interleaves a multi-table
    /// operation that holds its first lock for the whole operation; the
    /// residual torn cases (operations spanning lock releases) are healed by
    /// [`reconcile`] at the next load.
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

    /// Handles a WAL that outgrew its checkpoint threshold. In steady state
    /// (a [`Background`] is attached) the triggering request only *enqueues*
    /// a checkpoint and returns — the latency lands on the scheduler, not
    /// the request path. Two fallbacks keep the WAL bounded and bare
    /// registries working:
    ///
    /// * past the **hard ceiling** (threshold × factor) the checkpoint runs
    ///   inline even with a scheduler attached — it has fallen behind, and
    ///   unbounded WAL growth would make every recovery slower;
    /// * with no scheduler (tests, benches, tools) the old inline-on-trip
    ///   behaviour is preserved (contended trips skip; the next commit
    ///   re-trips).
    fn maybe_checkpoint(&self) {
        if !self.wal.should_checkpoint() {
            return;
        }
        if self.wal.past_hard_ceiling() {
            let guard = self.ckpt_lock.lock();
            // Re-check under the lock: a checkpoint that just finished may
            // already have cut the WAL back below the ceiling.
            if self.wal.past_hard_ceiling() {
                self.forced_inline_checkpoints
                    .fetch_add(1, Ordering::Relaxed);
                let _ = self.checkpoint_locked(guard);
            }
            return;
        }
        if self.submit_background_checkpoint() {
            return;
        }
        if let Some(guard) = self.ckpt_lock.try_lock() {
            let _ = self.checkpoint_locked(guard);
        }
    }

    /// Enqueues one checkpoint on the attached background scheduler.
    /// Returns `false` when none is attached; dedups while one is pending.
    fn submit_background_checkpoint(&self) -> bool {
        let background = self.background.lock();
        let Some((bg, weak)) = &*background else {
            return false;
        };
        if self.ckpt_pending.swap(true, Ordering::SeqCst) {
            return true;
        }
        let weak = weak.clone();
        bg.submit(Box::new(move || {
            let Some(reg) = weak.upgrade() else { return };
            let result = reg.checkpoint();
            // Clear the dedup flag *after* the checkpoint so commits racing
            // it enqueue a fresh one only once this one's cut is taken.
            reg.ckpt_pending.store(false, Ordering::SeqCst);
            if result.is_ok() {
                reg.background_checkpoints.fetch_add(1, Ordering::Relaxed);
            }
        }));
        true
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

    /// Base address of the global space as recorded in the registry.
    pub fn space_base(&self) -> u64 {
        self.alloc.space_base()
    }

    /// Allocates a fresh UUID.
    pub fn fresh_id(&self) -> PuddleId {
        // Relaxed: the counter is purely monotonic and the random salt makes
        // collisions across daemon instances vanishingly unlikely; no other
        // memory is ordered against it (records reach the tables under their
        // shard locks).
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
    /// extent only after unregistering its puddle (or without ever having
    /// registered one), so the `DropPuddle` precedes any `PutPuddle` that
    /// reuses the range in the WAL.
    pub fn free_space(&self, offset: u64, size: u64) {
        self.alloc.free(offset, size);
        self.maybe_coalesce();
    }

    /// Handles a free-extent count that outgrew the coalesce threshold,
    /// mirroring [`Registry::maybe_checkpoint`]: in steady state the pass is
    /// *enqueued* on the background scheduler (deduped while one is
    /// pending); past the hard ceiling it runs forced-inline even with a
    /// scheduler attached; bare registries run it inline on the free that
    /// trips the threshold (still amortized O(1) per free).
    fn maybe_coalesce(&self) {
        let pending = self.alloc.bucket_extents();
        let threshold = self.alloc.coalesce_threshold();
        // Re-arm relative to the last pass's residue, multiplicatively: a
        // heap whose holes genuinely cannot merge (residue above the
        // threshold) would otherwise re-run the O(n log n) pass on *every*
        // free, turning the O(1) fast path back into the flat-Vec behaviour
        // this allocator replaced. Requiring the count to double keeps the
        // total merge work geometric in the frees between passes.
        let trigger = self
            .alloc
            .coalesce_floor()
            .saturating_mul(2)
            .saturating_add(threshold);
        if pending < trigger {
            return;
        }
        if pending >= trigger.saturating_mul(COALESCE_HARD_FACTOR) {
            self.timed_coalesce(CoalesceKind::ForcedInline, "forced");
            return;
        }
        if self.submit_background_coalesce() {
            return;
        }
        self.timed_coalesce(CoalesceKind::Lazy, "lazy");
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

    /// Enqueues one lazy coalesce pass on the attached background scheduler.
    /// Returns `false` when none is attached; dedups while one is pending.
    fn submit_background_coalesce(&self) -> bool {
        let background = self.background.lock();
        let Some((bg, weak)) = &*background else {
            return false;
        };
        if self.coalesce_pending.swap(true, Ordering::SeqCst) {
            return true;
        }
        let weak = weak.clone();
        bg.submit(Box::new(move || {
            let Some(reg) = weak.upgrade() else { return };
            reg.timed_coalesce(CoalesceKind::Lazy, "lazy");
            reg.coalesce_pending.store(false, Ordering::SeqCst);
        }));
        true
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

    // -- Puddle table -------------------------------------------------------

    /// Inserts a puddle record without touching pool membership (used by
    /// import, which creates the pool after its puddles). Most callers want
    /// [`Registry::register_puddle`].
    pub fn insert_puddle(&self, record: PuddleRecord) {
        let mut puddles = self.puddles.write();
        puddles.insert(record.id, record.clone());
        self.wal_submit(RegistryOp::PutPuddle(record));
    }

    /// Atomically verifies the target pool exists (when the record names
    /// one), inserts the puddle, and appends it to the pool's member list.
    /// Lock order: pools → puddles.
    pub fn register_puddle(
        &self,
        record: PuddleRecord,
    ) -> std::result::Result<(), RegistryOpError> {
        match &record.pool {
            Some(pool_name) => {
                let mut pools = self.pools.write();
                let pool = pools
                    .get_mut(pool_name)
                    .ok_or_else(|| RegistryOpError::NoSuchPool(pool_name.clone()))?;
                pool.puddles.push(record.id);
                // O(1) membership delta — logging the whole member list
                // here would make building an N-puddle pool O(N²) WAL
                // traffic.
                let pool_op = RegistryOp::AddPoolMember {
                    pool: pool_name.clone(),
                    id: record.id,
                };
                let mut puddles = self.puddles.write();
                puddles.insert(record.id, record.clone());
                self.wal_submit(RegistryOp::PutPuddle(record));
                self.wal_submit(pool_op);
                Ok(())
            }
            None => {
                let mut puddles = self.puddles.write();
                puddles.insert(record.id, record.clone());
                self.wal_submit(RegistryOp::PutPuddle(record));
                Ok(())
            }
        }
    }

    /// Atomically removes a puddle record and its pool membership, returning
    /// the record. Lock order: pools → puddles.
    pub fn unregister_puddle(&self, id: PuddleId) -> Option<PuddleRecord> {
        let mut pools = self.pools.write();
        let mut puddles = self.puddles.write();
        let record = puddles.remove(&id)?;
        let mut pool_op = None;
        if let Some(pool_name) = &record.pool {
            if let Some(pool) = pools.get_mut(pool_name) {
                pool.puddles.retain(|p| *p != id);
                pool_op = Some(RegistryOp::RemovePoolMember {
                    pool: pool_name.clone(),
                    id,
                });
            }
        }
        self.wal_submit(RegistryOp::DropPuddle { id });
        if let Some(op) = pool_op {
            self.wal_submit(op);
        }
        Some(record)
    }

    /// Looks up a puddle record (clones under a shared read lock, so
    /// concurrent lookups never serialize — and never allocate for the key:
    /// the table is keyed by `PuddleId` directly).
    pub fn puddle(&self, id: PuddleId) -> Option<PuddleRecord> {
        self.puddles.read().get(&id).cloned()
    }

    /// Applies `f` to a puddle record under the write lock.
    pub fn update_puddle<R>(
        &self,
        id: PuddleId,
        f: impl FnOnce(&mut PuddleRecord) -> R,
    ) -> Option<R> {
        let mut puddles = self.puddles.write();
        let record = puddles.get_mut(&id)?;
        let result = f(record);
        self.wal_submit(RegistryOp::PutPuddle(record.clone()));
        Some(result)
    }

    /// Clones every puddle record (recovery, relocation, export).
    pub fn puddles_snapshot(&self) -> Vec<PuddleRecord> {
        self.puddles.read().values().cloned().collect()
    }

    /// Number of live puddles and their total size in bytes.
    pub fn puddle_usage(&self) -> (u64, u64) {
        let puddles = self.puddles.read();
        (
            puddles.len() as u64,
            puddles.values().map(|p| p.size).sum::<u64>(),
        )
    }

    // -- Pool table ---------------------------------------------------------

    /// Inserts a pool record, failing if the name is taken. Returns `true`
    /// if the pool was inserted.
    pub fn try_insert_pool(&self, record: PoolRecord) -> bool {
        let mut pools = self.pools.write();
        if pools.contains_key(&record.name) {
            return false;
        }
        pools.insert(record.name.clone(), record.clone());
        self.wal_submit(RegistryOp::PutPool(record));
        true
    }

    /// Inserts (or replaces) a pool record.
    pub fn insert_pool(&self, record: PoolRecord) {
        let mut pools = self.pools.write();
        pools.insert(record.name.clone(), record.clone());
        self.wal_submit(RegistryOp::PutPool(record));
    }

    /// Looks up a pool by name (clones under a shared read lock).
    pub fn pool(&self, name: &str) -> Option<PoolRecord> {
        self.pools.read().get(name).cloned()
    }

    /// Applies `f` to a pool record under the write lock.
    pub fn update_pool<R>(&self, name: &str, f: impl FnOnce(&mut PoolRecord) -> R) -> Option<R> {
        let mut pools = self.pools.write();
        let record = pools.get_mut(name)?;
        let result = f(record);
        self.wal_submit(RegistryOp::PutPool(record.clone()));
        Some(result)
    }

    /// Removes a pool record, returning it. The pool's member puddles are
    /// untouched (callers free them explicitly).
    pub fn remove_pool(&self, name: &str) -> Option<PoolRecord> {
        let mut pools = self.pools.write();
        let record = pools.remove(name)?;
        self.wal_submit(RegistryOp::DropPool {
            name: name.to_string(),
        });
        Some(record)
    }

    /// Number of pools.
    pub fn pool_count(&self) -> u64 {
        self.pools.read().len() as u64
    }

    // -- Pointer maps -------------------------------------------------------

    /// Registers (or replaces) a pointer map.
    pub fn register_ptr_map(&self, decl: PtrMapDecl) {
        let mut ptr_maps = self.ptr_maps.write();
        ptr_maps.insert(decl.type_id, decl.clone());
        self.wal_submit(RegistryOp::PutPtrMap(decl));
    }

    /// Returns every registered pointer map.
    pub fn ptr_maps(&self) -> Vec<PtrMapDecl> {
        self.ptr_maps.read().values().cloned().collect()
    }

    /// Number of registered pointer maps.
    pub fn ptr_map_count(&self) -> u64 {
        self.ptr_maps.read().len() as u64
    }

    // -- Log spaces ---------------------------------------------------------

    /// Registers a log space for a client, replacing an older registration
    /// of the same puddle.
    pub fn register_log_space(&self, record: LogSpaceRecord) {
        let mut log_spaces = self.log_spaces.write();
        log_spaces.retain(|existing| existing.puddle != record.puddle);
        log_spaces.push(record.clone());
        self.wal_submit(RegistryOp::PutLogSpace(record));
    }

    /// Clones every registered log space.
    pub fn log_spaces_snapshot(&self) -> Vec<LogSpaceRecord> {
        self.log_spaces.read().clone()
    }

    /// Number of registered log spaces.
    pub fn log_space_count(&self) -> u64 {
        self.log_spaces.read().len() as u64
    }

    /// Marks a log space invalid (its logs will never be replayed).
    pub fn invalidate_log_space(&self, puddle: PuddleId) {
        let mut log_spaces = self.log_spaces.write();
        for ls in log_spaces.iter_mut() {
            if ls.puddle == puddle {
                ls.invalid = true;
            }
        }
        self.wal_submit(RegistryOp::InvalidateLogSpace { puddle });
    }

    // -- Relocation ---------------------------------------------------------

    /// If the global space landed at a different base than the recorded one,
    /// marks every puddle for pointer rewrite with the corresponding
    /// translation and records the new base. Returns `true` if the base
    /// moved.
    ///
    /// A base move shifts every puddle by the same delta, so a single
    /// whole-space translation covers all cross-puddle pointers — per-record
    /// state stays O(1) regardless of the puddle count (a per-extent table
    /// here would make the registry O(N²) after a move). Import keeps
    /// per-extent tables because imported puddles land at unrelated offsets.
    pub fn apply_base_relocation(&self, new_base: u64) -> Result<bool> {
        let (old_base, space_size) = (self.alloc.space_base(), self.alloc.space_size());
        if old_base == new_base {
            return Ok(false);
        }
        let whole_space = Translation {
            old_addr: old_base,
            new_addr: new_base,
            len: space_size,
        };
        {
            let mut puddles = self.puddles.write();
            for p in puddles.values_mut() {
                p.needs_rewrite = true;
                p.translations = vec![whole_space];
            }
        }
        self.alloc.set_space_base(new_base);
        // A base move is a rare, startup-only event that touches every
        // record and appends none: it persists as one atomic checkpoint,
        // whose header carries the new base together with the rewrite marks
        // it implies — a replayed base change without those marks would
        // leave pointers unrewritten.
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

    fn record(reg: &Registry, pool: Option<&str>) -> PuddleRecord {
        let id = reg.fresh_id();
        let offset = reg.alloc_space(PAGE_SIZE as u64).unwrap();
        PuddleRecord {
            id,
            size: PAGE_SIZE as u64,
            offset,
            file: id.to_hex(),
            purpose: PuddlePurpose::Data,
            owner_uid: 1,
            owner_gid: 2,
            mode: 0o600,
            pool: pool.map(String::from),
            needs_rewrite: false,
            translations: vec![],
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
        // With no background scheduler attached the threshold trip runs the
        // pass inline (counted as lazy). The trigger re-arms relative to the
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
            reg.insert_pool(PoolRecord {
                name: "p".into(),
                root: id,
                puddles: vec![],
            });
            reg.register_puddle(rec).unwrap();
            reg.commit().unwrap();
        }
        let reg = Registry::load_or_create(&pm, 7, 1 << 30).unwrap();
        assert!(reg.puddle(id).is_some());
        assert_eq!(reg.pool("p").unwrap().puddles, vec![id]);
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
        reg.register_log_space(LogSpaceRecord {
            puddle: id,
            owner_uid: 1,
            owner_gid: 1,
            invalid: false,
        });
        reg.register_log_space(LogSpaceRecord {
            puddle: id,
            owner_uid: 2,
            owner_gid: 2,
            invalid: false,
        });
        let spaces = reg.log_spaces_snapshot();
        assert_eq!(spaces.len(), 1);
        assert_eq!(spaces[0].owner_uid, 2);
        reg.invalidate_log_space(id);
        assert!(reg.log_spaces_snapshot()[0].invalid);
    }

    #[test]
    fn register_puddle_requires_the_pool() {
        let (_tmp, reg) = registry();
        let rec = record(&reg, Some("missing"));
        assert_eq!(
            reg.register_puddle(rec),
            Err(RegistryOpError::NoSuchPool("missing".into()))
        );
        let rec = record(&reg, None);
        let id = rec.id;
        reg.register_puddle(rec).unwrap();
        assert!(reg.puddle(id).is_some());
    }

    #[test]
    fn unregister_puddle_detaches_from_pool() {
        let (_tmp, reg) = registry();
        reg.insert_pool(PoolRecord {
            name: "p".into(),
            root: PuddleId(0),
            puddles: vec![],
        });
        let rec = record(&reg, Some("p"));
        let id = rec.id;
        reg.register_puddle(rec).unwrap();
        assert_eq!(reg.pool("p").unwrap().puddles, vec![id]);
        let removed = reg.unregister_puddle(id).unwrap();
        assert_eq!(removed.id, id);
        assert!(reg.pool("p").unwrap().puddles.is_empty());
        assert!(reg.puddle(id).is_none());
    }

    #[test]
    fn base_relocation_marks_all_puddles() {
        let (_tmp, reg) = registry();
        let rec = record(&reg, None);
        let id = rec.id;
        let offset = rec.offset;
        reg.register_puddle(rec).unwrap();
        let old_base = reg.space_base();
        assert!(!reg.apply_base_relocation(old_base).unwrap());
        let new_base = old_base + (1 << 30);
        assert!(reg.apply_base_relocation(new_base).unwrap());
        let p = reg.puddle(id).unwrap();
        assert!(p.needs_rewrite);
        // One whole-space translation (O(1) per record), which still
        // translates this puddle's own addresses correctly.
        assert_eq!(p.translations.len(), 1);
        let t = p.translations[0];
        assert_eq!(
            t.translate(old_base + offset),
            Some(new_base + offset),
            "whole-space translation must cover the puddle's extent"
        );
        assert_eq!(reg.space_base(), new_base);
    }

    #[test]
    fn reconcile_heals_torn_snapshots_at_load() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let survivor_id;
        let survivor_offset;
        {
            let reg = Registry::load_or_create(&pm, 0, 1 << 30).unwrap();
            // A healthy pool with one member.
            let root = record(&reg, Some("ok"));
            survivor_id = root.id;
            survivor_offset = root.offset;
            reg.insert_pool(PoolRecord {
                name: "ok".into(),
                root: root.id,
                puddles: vec![],
            });
            reg.register_puddle(root).unwrap();
            // Torn state 1: a pool whose root puddle never materialized.
            reg.insert_pool(PoolRecord {
                name: "headless".into(),
                root: PuddleId(0xdead),
                puddles: vec![],
            });
            // Torn state 2: a pool member id whose record is gone.
            reg.update_pool("ok", |p| p.puddles.push(PuddleId(0xbeef)));
            // Torn state 3: leaked space — an extent freed in memory whose
            // free-list entry was lost (simulated by allocating and
            // dropping the record without freeing).
            let leaked = record(&reg, None);
            reg.register_puddle(leaked.clone()).unwrap();
            reg.unregister_puddle(leaked.id).unwrap(); // free_space "lost"
            reg.commit().unwrap();
        }
        let reg = Registry::load_or_create(&pm, 0, 1 << 30).unwrap();
        // The headless pool is gone; the healthy pool kept only live ids.
        assert!(reg.pool("headless").is_none());
        assert_eq!(reg.pool("ok").unwrap().puddles, vec![survivor_id]);
        // The allocator was rebuilt from live extents: the next allocation
        // reuses the leaked gap instead of bumping past it.
        let reused = reg.alloc_space(PAGE_SIZE as u64).unwrap();
        assert_ne!(reused, survivor_offset);
        assert!(
            reused < reg.snapshot().next_offset,
            "leaked extent was not reclaimed"
        );
    }

    #[test]
    fn stale_records_are_checkpointed_by_age_not_just_bytes() {
        let (_tmp, reg) = registry();
        // Far below the byte threshold: the trickle case.
        let rec = record(&reg, None);
        reg.register_puddle(rec).unwrap();
        reg.commit().unwrap();
        assert!(reg.wal().stats().records > 0);
        // Young records are left alone...
        assert!(!reg.checkpoint_if_stale(u64::MAX).unwrap());
        assert!(reg.wal().stats().records > 0);
        // ...stale ones are folded into a checkpoint (age floor 0 makes
        // "stale" immediate for the test).
        assert!(reg.checkpoint_if_stale(0).unwrap());
        assert_eq!(reg.wal().stats().records, 0);
        // Nothing pending: the next age check is a no-op.
        assert!(!reg.checkpoint_if_stale(0).unwrap());
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
                        reg.register_puddle(rec).unwrap();
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
        let (count, _) = reg.puddle_usage();
        assert_eq!(count, 400);
    }
}
