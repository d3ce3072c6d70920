//! Seeded fault-injection plane for torture testing, and the daemon's
//! crash points.
//!
//! A [`FaultPlan`] is a deterministic oracle the I/O layers consult before
//! risky operations: metadata-file replacement ([`FaultSite::MetaWrite`]),
//! WAL batch writes and syncs ([`FaultSite::WalWrite`], [`FaultSite::WalSync`]),
//! puddle-file creation/deletion, and a daemon connection before and after
//! each request it carries ([`FaultSite::ConnIo`]). Every decision is a
//! pure function of `(seed, site, per-site call counter)`, so a trial that
//! replays the same sequence of calls at a site sees the same faults — the
//! reproducibility contract behind `TORTURE_SEED`.
//!
//! A plan also carries the daemon's crash points ([`CrashPoint`]), armed
//! by [`FaultPlan::arm_crash`] and counted down by the rule the library's
//! thread-armed points follow ([`crate::failpoint`]). Checking an arm draws
//! nothing from the seeded streams, so arming one shifts no fault.
//!
//! The plan records every injected fault and every fired crash in an
//! in-memory **fault trace** (`"wal.write#12: short 512/4096"`,
//! `"wal.append.torn: crash"`): the daemon's one record of what fired,
//! which the torture harness prints on failure so a red trial is
//! diagnosable from its seed alone. A consultation that injects returns
//! the occurrence number its line names, and [`crate::pmdir::PmDir`], which
//! makes every consultation, traces the same `fault` event into its hub.
//!
//! Plans are *per daemon instance*, not process-global: a plan rides an
//! `Arc` inside [`crate::pmdir::PmDir`] (which is `Clone`), so parallel
//! trials never see each other's faults or crashes. Code paths that never
//! attach a plan pay one `Option` check.

use crate::failpoint::Countdowns;
use crate::util::{splitmix64, GOLDEN};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// `errno` for an injected I/O error.
pub const EIO: i32 = 5;
/// `errno` for an injected out-of-space condition.
pub const ENOSPC: i32 = 28;

/// Bounded retry budget for transient storage errors (per operation):
/// enough to ride out injected fault bursts at torture rates, small enough
/// that a genuinely failing device surfaces an error promptly.
pub const MAX_IO_RETRIES: usize = 4;

/// Places in the stack where a [`FaultPlan`] may inject a fault. Each site
/// has its own deterministic decision stream (a per-site call counter mixed
/// into the seed), so faults at one site never perturb another's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The metadata WAL's group-commit batch write.
    WalWrite,
    /// The metadata WAL's batch `fsync`.
    WalSync,
    /// Atomic metadata-file replacement (`PmDir::write_meta`): every
    /// checkpoint — a compaction of the metadata WAL — and the WAL's
    /// torn-tail heal at open. The temp file's write and sync and the
    /// directory's sync after the rename are consulted here; a fault
    /// aborts the attempt, and a retry repeats the whole replace.
    MetaWrite,
    /// Puddle-file creation (allocate + zero-fill + sync), including a
    /// puddle copied in or out by relocation, and the manifest an export
    /// writes after its copies.
    PuddleCreate,
    /// Puddle-file deletion.
    PuddleDelete,
    /// A daemon connection, consulted per *request* — once before the
    /// request executes, once before its response is queued — never per
    /// socket event, whose count is kernel timing (reset injection).
    ConnIo,
}

const SITE_COUNT: usize = 6;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::WalWrite => 0,
            FaultSite::WalSync => 1,
            FaultSite::MetaWrite => 2,
            FaultSite::PuddleCreate => 3,
            FaultSite::PuddleDelete => 4,
            FaultSite::ConnIo => 5,
        }
    }

    /// Stable name used in fault-trace lines.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalWrite => "wal.write",
            FaultSite::WalSync => "wal.sync",
            FaultSite::MetaWrite => "meta.write",
            FaultSite::PuddleCreate => "puddle.create",
            FaultSite::PuddleDelete => "puddle.delete",
            FaultSite::ConnIo => "conn.io",
        }
    }
}

/// The daemon's crash points, armed on its [`FaultPlan`] — never on a
/// thread, as the library's [`crate::failpoint::names`] are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// While the metadata-WAL group-commit leader writes a batch: only a
    /// prefix of the batch reaches the file (some records durable, the last
    /// one torn).
    WalMidGroupCommit,
    /// While a metadata-WAL record is appended: the record's tail bytes are
    /// lost (models a torn append, like the client log's torn append).
    WalAppendTorn,
    /// Inside `PmDir::write_meta`, after the temp file is written and
    /// fsynced, before it is renamed over its target — the one boundary a
    /// metadata-WAL compaction (a checkpoint) has. The old file must still
    /// be whole, and the temp file left behind must be ignored and
    /// overwritten.
    MetaWriteBeforeRename,
}

impl CrashPoint {
    /// Stable name used in the fault trace and in `CrashInjected` errors.
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::WalMidGroupCommit => "wal.group_commit.mid",
            CrashPoint::WalAppendTorn => "wal.append.torn",
            CrashPoint::MetaWriteBeforeRename => "meta.write.before_rename",
        }
    }
}

/// Fault probabilities in parts-per-million of consulted operations.
/// All-zero (the default) injects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultProfile {
    /// A write call fails with `EIO` after writing nothing.
    pub write_eio_ppm: u32,
    /// A write persists only a prefix, then fails with `EIO` (torn write).
    pub write_short_ppm: u32,
    /// A write fails with `ENOSPC` (non-transient; must surface typed).
    pub write_enospc_ppm: u32,
    /// An `fsync` fails with `EIO`.
    pub sync_eio_ppm: u32,
    /// An `fsync` silently does nothing (dropped sync; trace-visible only —
    /// without real power loss the page cache still holds the bytes).
    pub sync_drop_ppm: u32,
    /// A connection is reset mid-stream.
    pub conn_reset_ppm: u32,
}

impl FaultProfile {
    /// A profile every component is expected to *absorb*: transient write
    /// and sync errors plus connection resets, but no `ENOSPC` (which is
    /// allowed to surface as a typed error).
    pub fn transient(per_million: u32) -> FaultProfile {
        FaultProfile {
            write_eio_ppm: per_million,
            write_short_ppm: per_million,
            write_enospc_ppm: 0,
            sync_eio_ppm: per_million,
            sync_drop_ppm: per_million / 2,
            conn_reset_ppm: per_million,
        }
    }
}

/// What an injected write does instead of writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Fail with `EIO`, nothing written.
    Eio,
    /// Persist exactly this many prefix bytes, then fail with `EIO`.
    Short(usize),
    /// Fail with `ENOSPC`.
    Enospc,
}

/// What an injected sync does instead of syncing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncFault {
    /// Fail with `EIO`.
    Eio,
    /// Report success without syncing.
    Dropped,
}

/// One seeded fault schedule, the armed crashes, and their trace. See the
/// module docs.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    counters: [AtomicU64; SITE_COUNT],
    enabled: AtomicBool,
    crashes: Mutex<Countdowns<CrashPoint>>,
    trace: Mutex<Vec<String>>,
}

impl FaultPlan {
    /// Creates an enabled plan for `seed` with the given probabilities.
    pub fn new(seed: u64, profile: FaultProfile) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed,
            profile,
            counters: Default::default(),
            enabled: AtomicBool::new(true),
            crashes: Mutex::new(Countdowns::new()),
            trace: Mutex::new(Vec::new()),
        })
    }

    /// The seed this plan's schedule derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pauses (`false`) or resumes (`true`) seeded injection; armed crashes
    /// fire either way. The torture harness disables the plan during
    /// recovery/verification phases so invariant checks observe the daemon,
    /// not the injector.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Total faults injected and crashes fired so far.
    pub fn injected(&self) -> u64 {
        self.trace.lock().len() as u64
    }

    /// The fault trace: one line per injected fault or fired crash, in
    /// order.
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().clone()
    }

    /// Draws this site's next decision value in `0..1_000_000`, returning
    /// `(call_number, draw)`.
    fn draw(&self, site: FaultSite) -> (u64, u64) {
        let n = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        let mixed = splitmix64(self.seed ^ (site.index() as u64).wrapping_mul(GOLDEN) ^ n);
        (n, mixed % 1_000_000)
    }

    fn record(&self, site: FaultSite, n: u64, what: &str) {
        self.trace
            .lock()
            .push(format!("{}#{n}: {what}", site.name()));
    }

    /// Arms `point`: its `after`-th check fires (`after == 0` fires on the
    /// first), then it is disarmed. Re-arming restarts the countdown.
    pub fn arm_crash(&self, point: CrashPoint, after: usize) {
        self.crashes.lock().arm(point, after);
    }

    /// Whether the daemon crashes at `point` now: counts one check of an
    /// armed point and traces it when it fires. Draws nothing.
    pub fn should_crash(&self, point: CrashPoint) -> bool {
        let fired = self.crashes.lock().fire(&point);
        if fired {
            self.trace.lock().push(format!("{}: crash", point.name()));
        }
        fired
    }

    /// Consults the schedule before a write of `len` bytes at `site`: the
    /// fault to inject, with the occurrence number `n` its `site#n` trace
    /// line names.
    pub fn on_write(&self, site: FaultSite, len: usize) -> Option<(u64, WriteFault)> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let p = &self.profile;
        let (n, r) = self.draw(site);
        let mut bound = p.write_eio_ppm as u64;
        if r < bound {
            self.record(site, n, "eio");
            return Some((n, WriteFault::Eio));
        }
        bound += p.write_short_ppm as u64;
        if r < bound {
            // A second mix picks the torn prefix length (strictly short).
            let keep = if len == 0 {
                0
            } else {
                (splitmix64(r ^ n ^ 0xdead_beef) as usize) % len
            };
            self.record(site, n, &format!("short {keep}/{len}"));
            return Some((n, WriteFault::Short(keep)));
        }
        bound += p.write_enospc_ppm as u64;
        if r < bound {
            self.record(site, n, "enospc");
            return Some((n, WriteFault::Enospc));
        }
        None
    }

    /// Consults the schedule before an `fsync` at `site`: the fault to
    /// inject, with its occurrence number (as [`FaultPlan::on_write`]).
    pub fn on_sync(&self, site: FaultSite) -> Option<(u64, SyncFault)> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let p = &self.profile;
        let (n, r) = self.draw(site);
        if r < p.sync_eio_ppm as u64 {
            self.record(site, n, "sync-eio");
            return Some((n, SyncFault::Eio));
        }
        if r < (p.sync_eio_ppm + p.sync_drop_ppm) as u64 {
            self.record(site, n, "sync-dropped");
            return Some((n, SyncFault::Dropped));
        }
        None
    }

    /// Whether to reset a daemon connection at this point of a request (see
    /// [`FaultSite::ConnIo`]): the reset's occurrence number, if so.
    pub fn on_conn_request(&self) -> Option<u64> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let (n, r) = self.draw(FaultSite::ConnIo);
        if r < self.profile.conn_reset_ppm as u64 {
            self.record(FaultSite::ConnIo, n, "reset");
            return Some(n);
        }
        None
    }
}

/// The injected transient I/O error.
pub fn eio(site: FaultSite) -> io::Error {
    io::Error::new(
        io::Error::from_raw_os_error(EIO).kind(),
        format!("injected EIO at {}", site.name()),
    )
}

/// The injected out-of-space error. Carries the real `ENOSPC` errno so
/// [`is_enospc`] classifies injected and genuine exhaustion identically.
pub fn enospc() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC)
}

/// `true` for out-of-space failures (injected or genuine). These must
/// surface as a typed error — retrying cannot create free space.
pub fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC)
}

/// `true` for storage-level failures worth a bounded retry: `EIO` (the
/// plane's transient write/sync fault, and the kind real devices return for
/// recoverable media hiccups) and `Interrupted`. `ENOSPC` is excluded.
pub fn is_transient_io(e: &io::Error) -> bool {
    if is_enospc(e) {
        return false;
    }
    e.raw_os_error() == Some(EIO)
        || e.kind() == io::ErrorKind::Interrupted
        || e.to_string().contains("injected EIO")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy() -> FaultProfile {
        FaultProfile::transient(200_000) // 20% per class: plenty of hits
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let plan = FaultPlan::new(7, noisy());
        plan.set_enabled(false);
        for _ in 0..1000 {
            assert!(plan.on_write(FaultSite::WalWrite, 4096).is_none());
            assert!(plan.on_sync(FaultSite::WalSync).is_none());
            assert!(plan.on_conn_request().is_none());
        }
        assert_eq!(plan.injected(), 0);
        assert!(plan.trace().is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(42, noisy());
        let b = FaultPlan::new(42, noisy());
        for i in 0..500 {
            assert_eq!(
                a.on_write(FaultSite::WalWrite, 64 + i),
                b.on_write(FaultSite::WalWrite, 64 + i)
            );
            assert_eq!(
                a.on_sync(FaultSite::MetaWrite),
                b.on_sync(FaultSite::MetaWrite)
            );
        }
        assert_eq!(a.trace(), b.trace());
        assert!(a.injected() > 0, "20% rates must hit within 500 draws");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1, noisy());
        let b = FaultPlan::new(2, noisy());
        let draws_a: Vec<_> = (0..200)
            .map(|_| a.on_write(FaultSite::WalWrite, 4096))
            .collect();
        let draws_b: Vec<_> = (0..200)
            .map(|_| b.on_write(FaultSite::WalWrite, 4096))
            .collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn sites_have_independent_streams() {
        // Consuming draws at one site must not shift another site's stream.
        let a = FaultPlan::new(9, noisy());
        let b = FaultPlan::new(9, noisy());
        for _ in 0..100 {
            let _ = a.on_sync(FaultSite::WalSync); // extra traffic on a only
        }
        for _ in 0..100 {
            assert_eq!(
                a.on_write(FaultSite::MetaWrite, 512),
                b.on_write(FaultSite::MetaWrite, 512)
            );
        }
    }

    #[test]
    fn an_unfired_crash_arm_draws_the_same_faults() {
        // Checking an arm draws nothing: a plan whose arm is checked before
        // every write replays the unarmed plan's faults and trace exactly.
        let armed = FaultPlan::new(5, noisy());
        let plain = FaultPlan::new(5, noisy());
        armed.arm_crash(CrashPoint::WalAppendTorn, usize::MAX);
        for i in 0..500 {
            assert!(!armed.should_crash(CrashPoint::WalAppendTorn));
            assert!(!armed.should_crash(CrashPoint::MetaWriteBeforeRename));
            assert_eq!(
                armed.on_write(FaultSite::WalWrite, 64 + i),
                plain.on_write(FaultSite::WalWrite, 64 + i)
            );
            assert_eq!(armed.on_conn_request(), plain.on_conn_request());
        }
        assert_eq!(armed.trace(), plain.trace());
        assert!(plain.injected() > 0);
    }

    #[test]
    fn armed_crash_fires_once_after_count_and_is_traced() {
        let plan = FaultPlan::new(0, FaultProfile::default());
        // Seeded injection paused; a scripted crash still fires.
        plan.set_enabled(false);
        plan.arm_crash(CrashPoint::WalMidGroupCommit, 2);
        assert!(!plan.should_crash(CrashPoint::WalMidGroupCommit));
        assert!(!plan.should_crash(CrashPoint::WalAppendTorn));
        assert!(!plan.should_crash(CrashPoint::WalMidGroupCommit));
        assert!(plan.should_crash(CrashPoint::WalMidGroupCommit));
        // Disarmed after firing.
        assert!(!plan.should_crash(CrashPoint::WalMidGroupCommit));
        assert_eq!(plan.trace(), vec!["wal.group_commit.mid: crash"]);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn short_writes_are_strictly_short() {
        let plan = FaultPlan::new(3, noisy());
        for _ in 0..2000 {
            if let Some((_, WriteFault::Short(keep))) = plan.on_write(FaultSite::WalWrite, 4096) {
                assert!(keep < 4096);
            }
        }
    }

    #[test]
    fn error_classification() {
        assert!(is_enospc(&enospc()));
        assert!(!is_transient_io(&enospc()));
        assert!(is_transient_io(&eio(FaultSite::WalWrite)));
        assert!(!is_transient_io(&io::Error::new(
            io::ErrorKind::InvalidData,
            "x"
        )));
        let trace_plan = FaultPlan::new(0, FaultProfile::default());
        assert_eq!(trace_plan.injected(), 0);
    }
}
