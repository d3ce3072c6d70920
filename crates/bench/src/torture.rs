//! Deterministic torture harness: seeded fault injection + kill/restart
//! cycles + invariant checking, end to end.
//!
//! One trial = one `TORTURE_SEED`. The seed derives *everything* random in
//! the trial — the daemon's [`FaultPlan`] (short/torn writes, injected
//! EIO/ENOSPC, dropped fsyncs, connection resets), the per-client workload
//! mix, the kill schedule, retry jitter, and the *interleaving*: a
//! cooperative scheduler (`CoopSched`) grants exactly one client thread
//! the right to run between explicit yield points at daemon round trips.
//! Time is a [`VirtualClock`] the seed does not touch: it starts at zero
//! and moves only by the retry backoff sleeps the run takes. Two runs of the
//! same seed therefore replay the same fault trace and the same operation
//! history, byte for byte — a failing seed reproduces from the printed
//! number alone. There is no other mode.
//!
//! Connection resets ([`FaultProfile::conn_reset_ppm`]) are inside that
//! envelope: the daemon draws them per *request* — once before it
//! executes (the request never ran), once before its response is queued
//! (the mutation stands, the acknowledgement is lost) — so their number
//! is a function of the request sequence, not of how many socket events
//! the kernel delivered it in.
//!
//! A trial runs several *phases*. Each phase starts the daemon and its UDS
//! server, unleashes `clients` threads doing a mixed workload (counter
//! transactions on a per-client pool, ephemeral pool create/drop, stats and
//! reads), then tears the daemon down — either gracefully after the clients
//! finish, or abruptly mid-work on seeds that schedule a kill (after a
//! seeded number of scheduler yields). Between phases the harness
//! restarts the daemon with faults quiesced, runs recovery, and checks:
//!
//! * the shared structural layer — [`puddled::Invariants`]: registry /
//!   allocator consistency, no overlapping or leaked extents, no orphaned
//!   puddles or log chains;
//! * **committed-or-rolled-back visibility** — every pool whose creation
//!   was *acknowledged* exists, every acknowledged drop stays dropped, and
//!   each client counter holds a value between the highest acknowledged
//!   and the highest attempted write (operations whose acknowledgement was
//!   lost to an injected fault may land either way — but never partially).
//!
//! Faults are disabled during recovery + verification ([`FaultPlan`]
//! `set_enabled(false)`): the fault plane models failing *production*
//! I/O, and verifying through an unreliable lens would make every check
//! vacuous. Recovery-under-fault is covered separately by the failpoint
//! crash tests (`wal_crash`, `crash_sweep`).
//!
//! It drives both sides, the client library and the daemon, so it lives in
//! this crate rather than in either of them. Consumed by
//! `crates/bench/tests/torture.rs` (bounded in-tree sweep + the same-seed
//! replay gate) and the `torture_sweep` bin (deep CI sweeps,
//! `--replay-check` determinism gate).
//!
//! [`VirtualClock`]: puddles_pmem::clock::VirtualClock

use puddled::{Daemon, DaemonConfig, Invariants, UdsServer};
use puddles::{PoolOptions, PuddleClient, RetryPolicy};
use puddles_pmem::clock::Clock;
use puddles_pmem::faultio::{FaultPlan, FaultProfile};
use puddles_pmem::obs::Metrics;
use puddles_pmem::util::{mix64, GOLDEN};
use puddles_proto::json::Value;
use puddles_proto::PuddlePurpose;
use std::collections::BTreeSet;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The persistent root of each client's counter pool.
#[repr(C)]
struct TortureCounter {
    value: u64,
}
puddles::impl_pm_type!(TortureCounter, "torture::Counter", []);

/// Everything one torture trial needs; derived from the seed by
/// [`TortureConfig::from_seed`], overridable for focused tests.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// The trial seed — drives the fault plan, workload, kill schedule,
    /// retry jitter, and client interleaving.
    pub seed: u64,
    /// Concurrent client threads per phase.
    pub clients: usize,
    /// Daemon start → teardown cycles (each ends in recovery + checks).
    pub phases: usize,
    /// Operations each client attempts per phase.
    pub ops_per_client: usize,
    /// Fault probabilities for the daemon's I/O plane.
    pub profile: FaultProfile,
}

impl TortureConfig {
    /// Derives a trial configuration from its seed: 2–4 clients, 2–3
    /// phases, 20–51 ops per client, transient fault rates of 10k–50k ppm
    /// with a pinch of ENOSPC and connection resets on some seeds.
    pub fn from_seed(seed: u64) -> TortureConfig {
        let mut r = Splitmix(seed ^ 0x7073_7465_7374_5f61);
        let transient = 10_000 + (r.next() % 40_000) as u32;
        let mut profile = FaultProfile::transient(transient);
        // `transient` resets connections at its storage rate; a trial draws
        // resets twice per request, so they get a rate of their own below.
        profile.conn_reset_ppm = 0;
        // One trial in four injects ENOSPC (rare: each occurrence poisons
        // the WAL until the next restart, so more would starve the phase).
        if r.next().is_multiple_of(4) {
            profile.write_enospc_ppm = 200;
        }
        // One in two injects connection resets, at 2k–10k ppm a draw.
        if r.next().is_multiple_of(2) {
            profile.conn_reset_ppm = 2_000 + (r.next() % 8_000) as u32;
        }
        TortureConfig {
            seed,
            clients: 2 + (r.next() % 3) as usize,
            phases: 2 + (r.next() % 2) as usize,
            ops_per_client: 20 + (r.next() % 32) as usize,
            profile,
        }
    }
}

/// A passed trial's summary (what the fault plane actually did).
#[derive(Debug)]
pub struct TortureReport {
    /// The trial seed.
    pub seed: u64,
    /// Faults the plan injected across all phases.
    pub injected: u64,
    /// Operations acknowledged across all clients and phases.
    pub acked_ops: u64,
    /// Phases that ended in a mid-work kill.
    pub kills: usize,
    /// The full fault trace (`site#occurrence: fault`, in injection order).
    /// Byte-identical across same-seed runs.
    pub fault_trace: Vec<String>,
    /// The scheduled operation history (`p<phase> c<client> <op> <outcome>`,
    /// in execution order). Byte-identical across same-seed runs.
    pub history: Vec<String>,
    /// The observability trace-ring dump (rendered [`puddles_pmem::obs::
    /// TraceEvent`] lines: request start/end, WAL commits, checkpoints,
    /// injections, reconnects, recovery mappings) across all phases of the
    /// trial — one hub survives the kill/restart cycles. Byte-identical
    /// across same-seed runs.
    pub trace_dump: Vec<String>,
}

impl TortureReport {
    /// Connection resets among the injected faults (`conn.io#…: reset`
    /// lines of the fault trace) — reported per sweep, so a gate that
    /// silently stopped covering them is visible.
    pub fn conn_resets(&self) -> usize {
        let resets = self.fault_trace.iter();
        resets.filter(|line| line.starts_with("conn.io#")).count()
    }
}

/// A failed trial: the violation plus everything needed to reproduce it.
#[derive(Debug)]
pub struct TortureFailure {
    /// The trial seed (`TORTURE_SEED=<seed>` reproduces the trial).
    pub seed: u64,
    /// What went wrong.
    pub message: String,
    /// The per-trial fault trace (`site#occurrence: fault`).
    pub fault_trace: Vec<String>,
    /// The trace-ring dump at failure time (the observability timeline the
    /// fault trace interleaves into).
    pub trace_dump: Vec<String>,
    /// Path of the JSON artifact holding the full context (fault trace,
    /// operation history, trace dump); `None` if writing it failed.
    pub artifact: Option<PathBuf>,
}

impl std::fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "torture trial failed: {}", self.message)?;
        writeln!(
            f,
            "reproduce with TORTURE_SEED={} TORTURE_TRIALS=1",
            self.seed
        )?;
        if let Some(path) = &self.artifact {
            writeln!(f, "failure artifact: {}", path.display())?;
        }
        writeln!(f, "fault trace ({} injected):", self.fault_trace.len())?;
        for line in &self.fault_trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Everything a failing trial leaves behind, written as the JSON artifact
/// named in [`TortureFailure::artifact`].
#[derive(Debug)]
struct FailureArtifact {
    seed: u64,
    message: String,
    fault_trace: Vec<String>,
    history: Vec<String>,
    trace_dump: Vec<String>,
}

impl FailureArtifact {
    /// The artifact as JSON: one key per field, the lines as arrays.
    fn to_json(&self) -> Value {
        Value::obj([
            ("seed", self.seed.into()),
            ("message", self.message.as_str().into()),
            ("fault_trace", self.fault_trace.clone().into()),
            ("history", self.history.clone().into()),
            ("trace_dump", self.trace_dump.clone().into()),
        ])
    }
}

/// Writes the failure artifact under `target/` (falling back to the OS
/// temp dir outside a cargo workspace); best-effort — a failure to record
/// the failure must not mask it.
fn write_failure_artifact(artifact: &FailureArtifact) -> Option<PathBuf> {
    let target = PathBuf::from("target");
    let dir = if target.is_dir() {
        target
    } else {
        std::env::temp_dir()
    };
    let path = dir.join(format!("torture_failure_{:x}.json", artifact.seed));
    std::fs::write(&path, artifact.to_json().pretty()).ok()?;
    Some(path)
}

/// splitmix64 — the same generator the fault plan uses, so the whole trial
/// is a pure function of the seed.
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }
}

/// A private PM directory for one trial, removed on drop. (Hand-rolled so
/// the harness lives in the library proper — `tempfile` is only a
/// dev-dependency here.)
struct TrialDir(PathBuf);

impl TrialDir {
    fn new(seed: u64) -> std::io::Result<TrialDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "puddles-torture-{}-{seed:x}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TrialDir(path))
    }
}

impl Drop for TrialDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The trial's cooperative scheduler: exactly one client
/// thread runs between yield points, and which one runs next is a seeded
/// draw over the runnable set — so the interleaving is a pure function of
/// the trial seed.
///
/// Lifecycle: every client [`register`]s (a barrier — no one is scheduled
/// until all expected clients have arrived, so the pick sequence does not
/// depend on thread start-up order), then alternates between running and
/// [`yield_now`] at daemon round-trip boundaries, and [`finish`]es when its
/// phase function returns. The kill schedule is a *yield budget*: when the
/// total yield count reaches `kill_at`, scheduling pauses with every client
/// parked at a yield point (none mid-round-trip), the driver tears the
/// server down at that quiesced instant, and [`resume`] lets the clients
/// run on to observe the kill.
///
/// [`register`]: CoopSched::register
/// [`yield_now`]: CoopSched::yield_now
/// [`finish`]: CoopSched::finish
/// [`resume`]: CoopSched::resume
struct CoopSched {
    state: Mutex<SchedState>,
    cv: Condvar,
}

struct SchedState {
    rng: Splitmix,
    /// Clients this phase will run; scheduling starts once all registered.
    expected: usize,
    registered: usize,
    finished: usize,
    /// Clients parked at a yield point, waiting to be picked. A sorted
    /// set, not a queue: thread *arrival* order at the registration
    /// barrier races across runs, so the seeded pick must index a
    /// canonically ordered view to stay replayable.
    runnable: BTreeSet<usize>,
    /// The one client currently allowed to run.
    current: Option<usize>,
    /// Total yields so far (the kill schedule's time base).
    yields: u64,
    /// Pause scheduling once `yields` reaches this.
    kill_at: Option<u64>,
    kill_reached: bool,
    paused: bool,
}

impl CoopSched {
    fn new(seed: u64, expected: usize, kill_at: Option<u64>) -> Arc<CoopSched> {
        Arc::new(CoopSched {
            state: Mutex::new(SchedState {
                rng: Splitmix(seed),
                expected,
                registered: 0,
                finished: 0,
                runnable: BTreeSet::new(),
                current: None,
                yields: 0,
                kill_at,
                kill_reached: false,
                paused: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Hands the run token to a seeded pick from the runnable set, if the
    /// token is free and scheduling is active.
    fn pick_next(st: &mut SchedState) {
        if st.paused || st.current.is_some() || st.registered < st.expected {
            return;
        }
        if st.runnable.is_empty() {
            return;
        }
        let i = (st.rng.next() % st.runnable.len() as u64) as usize;
        let picked = *st.runnable.iter().nth(i).expect("non-empty runnable");
        st.runnable.remove(&picked);
        st.current = Some(picked);
    }

    /// Joins the phase and blocks until scheduled for the first time.
    fn register(&self, idx: usize) {
        let mut st = self.state.lock().unwrap();
        st.registered += 1;
        st.runnable.insert(idx);
        Self::pick_next(&mut st);
        self.cv.notify_all();
        while st.current != Some(idx) {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Surrenders the run token at a round-trip boundary and blocks until
    /// scheduled again.
    fn yield_now(&self, idx: usize) {
        let mut st = self.state.lock().unwrap();
        debug_assert_eq!(st.current, Some(idx), "yield from an unscheduled client");
        st.yields += 1;
        st.current = None;
        st.runnable.insert(idx);
        if let Some(at) = st.kill_at {
            if !st.kill_reached && st.yields >= at {
                // The kill point: freeze everyone at their yield points and
                // wake the driver to pull the plug.
                st.kill_reached = true;
                st.paused = true;
            }
        }
        Self::pick_next(&mut st);
        self.cv.notify_all();
        while st.current != Some(idx) {
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Leaves the phase for good (the client's run token passes on).
    fn finish(&self, idx: usize) {
        let mut st = self.state.lock().unwrap();
        if st.current == Some(idx) {
            st.current = None;
        } else {
            st.runnable.remove(&idx);
        }
        st.finished += 1;
        Self::pick_next(&mut st);
        self.cv.notify_all();
    }

    /// Driver side: blocks until the kill point is reached (`true`) or
    /// every client finished without one (`false`).
    fn wait_kill_or_done(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        while !st.kill_reached && st.finished < st.expected {
            st = self.cv.wait(st).unwrap();
        }
        st.kill_reached
    }

    /// Driver side: restarts scheduling after the kill teardown.
    fn resume(&self) {
        let mut st = self.state.lock().unwrap();
        st.paused = false;
        Self::pick_next(&mut st);
        self.cv.notify_all();
    }
}

/// Registers with the scheduler on construction and finishes on drop, so a
/// client leaves the run queue on *every* exit path. Declared before the
/// `PuddleClient` local in [`client_phase`]: locals drop in reverse order,
/// so the client (whose `Drop` frees spare logs — daemon round trips)
/// still holds the run token while it disconnects.
struct SchedGuard {
    sched: Arc<CoopSched>,
    idx: usize,
}

impl SchedGuard {
    fn new(sched: Arc<CoopSched>, idx: usize) -> SchedGuard {
        sched.register(idx);
        SchedGuard { sched, idx }
    }
}

impl Drop for SchedGuard {
    fn drop(&mut self) {
        self.sched.finish(self.idx);
    }
}

/// Outcome bookkeeping shared by the trial's client threads.
#[derive(Default)]
struct Shadow {
    /// Pools whose creation the daemon acknowledged (and no drop was ever
    /// attempted): must exist after recovery.
    acked_created: BTreeSet<String>,
    /// Pools whose drop was acknowledged: must stay gone.
    acked_dropped: BTreeSet<String>,
    /// Per-client counter state: (highest acked write, highest attempted).
    counters: Vec<(u64, u64)>,
    /// Total acknowledged operations (reporting only).
    acked_ops: u64,
    /// Execution-ordered operation log (`p<phase> c<client> <op> <outcome>`).
    /// Deliberately free of paths, durations, and counter *readings* — only
    /// seed-derived facts — so same-seed runs match exactly.
    history: Vec<String>,
}

/// One client thread's slice of a phase, bundled so the workload function
/// stays readable.
struct ClientCtx {
    socket: PathBuf,
    space: Arc<puddles_pmem::space::GlobalSpace>,
    shadow: Arc<Mutex<Shadow>>,
    stop: Arc<AtomicBool>,
    sched: Arc<CoopSched>,
    clock: Clock,
    idx: usize,
    phase: usize,
    ops: usize,
    rng: Splitmix,
}

impl ClientCtx {
    /// A yield point: surrenders the run token before the next daemon
    /// round trip.
    fn yield_point(&self) {
        self.sched.yield_now(self.idx);
    }

    /// Appends one operation record to the trial history.
    fn record(&self, op: &str, ok: bool) {
        let outcome = if ok { "ok" } else { "err" };
        self.shadow
            .lock()
            .unwrap()
            .history
            .push(format!("p{} c{} {op} {outcome}", self.phase, self.idx));
    }
}

/// Runs one client thread's workload for one phase.
fn client_phase(mut ctx: ClientCtx) {
    // Drops last (declared first): the PuddleClient below must disconnect
    // while this client still holds the scheduler's run token.
    let _turn = SchedGuard::new(Arc::clone(&ctx.sched), ctx.idx);

    // Short per-op deadlines: after a scheduled mid-phase kill every call
    // fails, and the thread must notice `stop` quickly rather than sit out
    // a long backoff schedule. Jitter and sleeps ride the trial clock, so
    // backoff is replayable and costs no wall time under virtual time.
    let retry = RetryPolicy::new(4, Duration::from_millis(150))
        .with_clock(ctx.clock.clone())
        .with_seed(ctx.rng.next());
    let connected =
        PuddleClient::connect_uds_shared_tuned(&ctx.socket, Arc::clone(&ctx.space), retry);
    ctx.record("connect", connected.is_ok());
    let Ok(client) = connected else {
        return; // Killed before the phase began; nothing acked, nothing owed.
    };
    let ctr_name = format!("ctr{}", ctx.idx);
    ctx.yield_point();
    let ctr_pool = client
        .open_or_create_pool(&ctr_name, PoolOptions::default())
        .ok();
    ctx.record("openctr", ctr_pool.is_some());
    if let Some(pool) = &ctr_pool {
        if pool.root::<TortureCounter>().is_none() {
            ctx.yield_point();
            let made = pool.tx(|tx| pool.create_root(tx, TortureCounter { value: 0 }));
            ctx.record("initroot", made.is_ok());
        }
    }
    for op in 0..ctx.ops {
        if ctx.stop.load(Ordering::Relaxed) {
            return;
        }
        ctx.yield_point();
        if ctx.stop.load(Ordering::Relaxed) {
            return;
        }
        match ctx.rng.next() % 10 {
            // Counter transaction: the data plane under metadata faults.
            0..=4 => {
                let Some(pool) = &ctr_pool else { continue };
                let Some(root) = pool.root::<TortureCounter>() else {
                    continue;
                };
                let next = {
                    let mut sh = ctx.shadow.lock().unwrap();
                    let (_, attempted) = &mut sh.counters[ctx.idx];
                    *attempted += 1;
                    *attempted
                };
                let result = pool.tx(|tx| {
                    let counter = pool.deref_mut(root)?;
                    tx.set(&mut counter.value, next)?;
                    Ok(())
                });
                ctx.record("ctr", result.is_ok());
                if result.is_ok() {
                    let mut sh = ctx.shadow.lock().unwrap();
                    sh.counters[ctx.idx].0 = next;
                    sh.acked_ops += 1;
                }
            }
            // Ephemeral pool create (non-idempotent), sometimes dropped
            // again. Names are never reused, so an unacknowledged create
            // can land either way without confusing a later attempt.
            5 | 6 => {
                let name = format!("e{}_{}_{op}", ctx.idx, ctx.phase);
                let created = client.create_pool(&name, PoolOptions::default()).is_ok();
                ctx.record("create", created);
                if created {
                    let mut sh = ctx.shadow.lock().unwrap();
                    sh.acked_created.insert(name.clone());
                    sh.acked_ops += 1;
                    drop(sh);
                    if ctx.rng.next().is_multiple_of(2) {
                        ctx.yield_point();
                        let dropped = client.drop_pool(&name).is_ok();
                        ctx.record("drop", dropped);
                        let mut sh = ctx.shadow.lock().unwrap();
                        // Whether or not the drop was acknowledged, the
                        // pool's fate is no longer "must exist".
                        sh.acked_created.remove(&name);
                        if dropped {
                            sh.acked_dropped.insert(name);
                            sh.acked_ops += 1;
                        }
                    }
                }
            }
            // Idempotent reads: metrics, pool open, ping.
            7 => {
                let ok = client.metrics().is_ok();
                ctx.record("stats", ok);
                if ok {
                    ctx.shadow.lock().unwrap().acked_ops += 1;
                }
            }
            8 => {
                ctx.record("open", client.open_pool(&ctr_name).is_ok());
            }
            _ => {
                ctx.record("ping", client.ping().is_ok());
            }
        }
    }
}

/// Runs one seeded torture trial.
pub fn run_trial(config: &TortureConfig) -> Result<TortureReport, TortureFailure> {
    let clock = Clock::simulated();
    let plan = FaultPlan::new(config.seed, config.profile);
    // One metrics hub for the whole trial: passed to every daemon
    // incarnation so the trace ring and histograms span the kill/restart
    // cycles. On the virtual clock the dump is a function of the seed.
    let metrics = Metrics::new(clock.clone());
    let shadow = Arc::new(Mutex::new(Shadow {
        counters: vec![(0, 0); config.clients],
        ..Shadow::default()
    }));
    let fail = |message: String| {
        // `fail` runs inside verification loops that hold the shadow lock,
        // so the history capture must be try_lock (empty if contended).
        let history = shadow
            .try_lock()
            .map(|sh| sh.history.clone())
            .unwrap_or_default();
        let trace_dump = metrics.trace_dump();
        let artifact = write_failure_artifact(&FailureArtifact {
            seed: config.seed,
            message: message.clone(),
            fault_trace: plan.trace(),
            history,
            trace_dump: trace_dump.clone(),
        });
        TortureFailure {
            seed: config.seed,
            message,
            fault_trace: plan.trace(),
            trace_dump,
            artifact,
        }
    };

    let dir = TrialDir::new(config.seed).map_err(|e| fail(format!("trial dir: {e}")))?;
    let daemon_config = DaemonConfig::for_testing(&dir.0)
        .with_fault_plan(Arc::clone(&plan))
        .with_metrics(Arc::clone(&metrics));
    let mut rng = Splitmix(config.seed);
    let mut kills = 0usize;

    for phase in 0..config.phases {
        // Faults run only while clients are driving load; recovery and
        // verification read through a quiet I/O plane (module docs).
        plan.set_enabled(false);
        let daemon = Daemon::start(daemon_config.clone())
            .map_err(|e| fail(format!("phase {phase}: daemon start/recovery: {e}")))?;
        plan.set_enabled(true);

        let socket = dir.0.join(format!("torture-{phase}.sock"));
        let mut server = Some(
            UdsServer::start(daemon.clone(), &socket)
                .map_err(|e| fail(format!("phase {phase}: server start: {e}")))?,
        );

        // The kill schedule: some phases chop the daemon down mid-work,
        // after a yield budget (scheduler time) runs out.
        let kill_after = (!rng.next().is_multiple_of(3)).then(|| 10 + rng.next() % 60);
        let sched = CoopSched::new(
            config.seed ^ ((phase as u64) << 8) ^ 0x5ced,
            config.clients,
            kill_after,
        );
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..config.clients)
            .map(|idx| {
                let ctx = ClientCtx {
                    socket: socket.clone(),
                    space: daemon.global_space(),
                    shadow: Arc::clone(&shadow),
                    stop: Arc::clone(&stop),
                    sched: Arc::clone(&sched),
                    clock: clock.clone(),
                    idx,
                    phase,
                    ops: config.ops_per_client,
                    rng: Splitmix(config.seed ^ ((phase as u64) << 32) ^ (idx as u64 + 1)),
                };
                std::thread::spawn(move || client_phase(ctx))
            })
            .collect();

        // Wait for the yield budget to run out (every client parked at a
        // yield point — a quiesced instant the seed always reproduces) or
        // for all clients to finish first.
        if sched.wait_kill_or_done() {
            stop.store(true, Ordering::Relaxed);
            server = None; // Abrupt: in-flight connections reset.
            kills += 1;
            sched.resume();
        }
        for worker in workers {
            worker
                .join()
                .map_err(|_| fail(format!("phase {phase}: client thread panicked")))?;
        }
        drop(server);
        drop(daemon);

        // Recovery + the invariant layer, faults quiesced.
        plan.set_enabled(false);
        let daemon = Daemon::start(daemon_config.clone())
            .map_err(|e| fail(format!("phase {phase}: recovery failed: {e}")))?;
        let violations = Invariants::check_all(daemon.registry());
        if !violations.is_empty() {
            return Err(fail(format!(
                "phase {phase}: invariant violations after recovery: {}",
                violations.join("; ")
            )));
        }
        // The clients create data puddles only as pool roots and members,
        // and a request is durable whole or not at all: a data puddle no
        // live pool holds is a leak no sweep would ever reclaim.
        let recovered = daemon.registry().snapshot();
        let leaked = recovered.puddles.values().find(|p| {
            let pool = p.pool.as_ref().and_then(|name| recovered.pools.get(name));
            p.purpose == PuddlePurpose::Data
                && !pool.is_some_and(|pool| pool.puddles.contains(&p.id))
        });
        if let Some(puddle) = leaked {
            return Err(fail(format!(
                "phase {phase}: data puddle {} is in no live pool (names {:?})",
                puddle.id, puddle.pool
            )));
        }

        // Committed-or-rolled-back visibility.
        let verifier = PuddleClient::connect_local(&daemon)
            .map_err(|e| fail(format!("phase {phase}: verifier connect: {e}")))?;
        let sh = shadow.lock().unwrap();
        for name in &sh.acked_created {
            if verifier.open_pool(name).is_err() {
                return Err(fail(format!(
                    "phase {phase}: pool {name}: creation was acknowledged but it is gone"
                )));
            }
        }
        for name in &sh.acked_dropped {
            if verifier.open_pool(name).is_ok() {
                return Err(fail(format!(
                    "phase {phase}: pool {name}: drop was acknowledged but it still exists"
                )));
            }
        }
        for (idx, &(acked, attempted)) in sh.counters.iter().enumerate() {
            if acked == 0 {
                continue; // Counter pool may not even exist yet.
            }
            let name = format!("ctr{idx}");
            let pool = verifier.open_pool(&name).map_err(|e| {
                fail(format!(
                    "phase {phase}: counter pool {name} had acked writes but won't open: {e}"
                ))
            })?;
            let Some(root) = pool.root::<TortureCounter>() else {
                return Err(fail(format!(
                    "phase {phase}: counter pool {name} lost its root"
                )));
            };
            let value = pool
                .deref(root)
                .map_err(|e| fail(format!("phase {phase}: counter deref: {e}")))?
                .value;
            if value < acked || value > attempted {
                return Err(fail(format!(
                    "phase {phase}: counter {idx} = {value}, outside \
                     [acked {acked}, attempted {attempted}] — a write was \
                     torn or an acknowledged commit was lost"
                )));
            }
        }
        drop(sh);
    }

    let mut sh = shadow.lock().unwrap();
    Ok(TortureReport {
        seed: config.seed,
        injected: plan.injected(),
        acked_ops: sh.acked_ops,
        kills,
        fault_trace: plan.trace(),
        history: std::mem::take(&mut sh.history),
        trace_dump: metrics.trace_dump(),
    })
}

/// Sweep-level switches for [`run_sweep_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Run every trial twice and fail on the first
    /// fault-trace or history divergence — the CI determinism gate.
    pub replay_check: bool,
}

/// Finds the first index where two replay logs diverge, for the gate's
/// failure message.
fn first_divergence(a: &[String], b: &[String]) -> String {
    if a.len() != b.len() {
        return format!("lengths differ: {} vs {}", a.len(), b.len());
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!("line {i}: `{}` vs `{}`", a[i], b[i]),
        None => "identical".to_string(),
    }
}

/// Runs `trials` seeded trials (`base_seed + index`) across `threads`
/// worker threads, stealing trial indices from a shared counter so seeds
/// are independent of the thread count. Returns per-trial reports, or the
/// first failure.
pub fn run_sweep(
    base_seed: u64,
    trials: u64,
    threads: u64,
) -> Result<Vec<TortureReport>, TortureFailure> {
    run_sweep_with(base_seed, trials, threads, SweepOptions::default())
}

/// [`run_sweep`] with explicit [`SweepOptions`].
pub fn run_sweep_with(
    base_seed: u64,
    trials: u64,
    threads: u64,
    opts: SweepOptions,
) -> Result<Vec<TortureReport>, TortureFailure> {
    let threads = threads.clamp(1, trials.max(1));
    let next = Arc::new(AtomicU64::new(0));
    let reports: Arc<Mutex<Vec<TortureReport>>> = Arc::new(Mutex::new(Vec::new()));
    let failure: Arc<Mutex<Option<TortureFailure>>> = Arc::new(Mutex::new(None));
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let next = Arc::clone(&next);
            let reports = Arc::clone(&reports);
            let failure = Arc::clone(&failure);
            std::thread::spawn(move || loop {
                let trial = next.fetch_add(1, Ordering::Relaxed);
                if trial >= trials || failure.lock().unwrap().is_some() {
                    return;
                }
                let config = TortureConfig::from_seed(base_seed.wrapping_add(trial));
                match run_trial(&config) {
                    Ok(report) => {
                        if opts.replay_check {
                            match run_trial(&config) {
                                Ok(replay)
                                    if replay.fault_trace != report.fault_trace
                                        || replay.history != report.history
                                        || replay.trace_dump != report.trace_dump =>
                                {
                                    *failure.lock().unwrap() = Some(TortureFailure {
                                        seed: config.seed,
                                        message: format!(
                                            "replay diverged — faults: {}; history: {}; \
                                             trace: {}",
                                            first_divergence(
                                                &report.fault_trace,
                                                &replay.fault_trace
                                            ),
                                            first_divergence(&report.history, &replay.history),
                                            first_divergence(
                                                &report.trace_dump,
                                                &replay.trace_dump
                                            ),
                                        ),
                                        fault_trace: replay.fault_trace,
                                        trace_dump: replay.trace_dump,
                                        artifact: None,
                                    });
                                    return;
                                }
                                Ok(_) => {}
                                Err(fail) => {
                                    *failure.lock().unwrap() = Some(TortureFailure {
                                        message: format!(
                                            "replay failed where the first run passed: {}",
                                            fail.message
                                        ),
                                        ..fail
                                    });
                                    return;
                                }
                            }
                        }
                        reports.lock().unwrap().push(report);
                    }
                    Err(fail) => *failure.lock().unwrap() = Some(fail),
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("torture sweep worker panicked");
    }
    if let Some(fail) = failure.lock().unwrap().take() {
        return Err(fail);
    }
    let mut reports = Arc::try_unwrap(reports)
        .expect("workers joined")
        .into_inner()
        .unwrap();
    reports.sort_by_key(|r| r.seed);
    Ok(reports)
}

/// Reads a `u64` environment knob (`TORTURE_SEED`, `TORTURE_TRIALS`, ...).
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failure artifact reparses with every line intact: fault traces and
    /// history hold quotes, backslashes and whatever a message carried.
    #[test]
    fn a_failure_artifact_reparses_from_its_json() {
        let lines = |tag: &str| vec![format!("{tag} \"quoted\" \\ \u{7} ü"), String::new()];
        let artifact = FailureArtifact {
            seed: u64::MAX,
            message: "invariant \"x\" broke:\n\tpool `p\\q`".into(),
            fault_trace: lines("wal.write#3: eio"),
            history: lines("p0 c1 create_pool ok"),
            trace_dump: Vec::new(),
        };
        let doc = Value::parse(artifact.to_json().pretty().as_bytes()).unwrap();
        assert_eq!(doc.field("seed").and_then(Value::u64), Ok(u64::MAX));
        assert_eq!(
            doc.field("message").and_then(Value::str),
            Ok(artifact.message.as_str())
        );
        for (key, want) in [
            ("fault_trace", &artifact.fault_trace),
            ("history", &artifact.history),
            ("trace_dump", &artifact.trace_dump),
        ] {
            let got: Vec<&str> = doc
                .field(key)
                .and_then(Value::arr)
                .unwrap()
                .iter()
                .map(|line| line.str().unwrap())
                .collect();
            assert_eq!(&got, want, "{key}");
        }
    }
}
