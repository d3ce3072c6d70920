//! The daemon proper: configuration, startup, and the request handler.
//!
//! The request path is fully concurrent: [`Daemon::handle`] takes `&self`,
//! so requests from different connections execute in parallel. Lookups
//! (`GetPuddle`, `OpenPool`, translations) share the registry's read lock;
//! a request that changes metadata is **one registry transaction, one WAL
//! record, one group commit** (see [`crate::registry`]): it prepares outside
//! the lock (grants space, creates or copies files), runs its checks and
//! queues its ops in one [`Registry::transact`], waits for durability in
//! one [`Registry::commit`], and only then deletes files.

use crate::acl;
use crate::importexport;
use crate::recovery;
use crate::registry::{LogSpaceRecord, PuddleRecord, Registry, RegistryData, Rewrite};
use crate::wal::Wal;
use crate::walfmt::RegistryOp;
use puddles_pmem::clock::Clock;
use puddles_pmem::faultio::FaultPlan;
use puddles_pmem::obs::{Metrics, ShardedHistogram, TraceEventKind};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::space::GlobalSpace;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result, DEFAULT_SPACE_BASE, PAGE_SIZE};
use puddles_proto::{
    CounterSnapshot, Credentials, Endpoint, ErrorCode, LocalDaemon, MetricsReport, PoolInfo,
    PuddleId, PuddleInfo, PuddlePurpose, Request, Response, SeriesSnapshot,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Configuration for a daemon instance (one per "machine").
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory acting as the persistent-memory device.
    pub pm_dir: PathBuf,
    /// Preferred base address of the global puddle space.
    pub space_base: Option<usize>,
    /// Size of the global puddle space in bytes.
    pub space_size: usize,
    /// Run crash recovery automatically at startup (the paper's behaviour).
    pub auto_recover: bool,
    /// Seeded fault-injection plan for torture testing; `None` (production)
    /// injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Observability hub to record into; `None` records into a fresh one on
    /// the real clock. Its clock is the daemon's one time source: latency
    /// series, trace stamps and the UDS server's deadlines. The daemon
    /// *reads* time and never acts on it: on a real and on a virtual clock
    /// alike, WAL traffic and every `GetMetrics` count are a pure function
    /// of the request sequence — the property the torture harness's replay
    /// guarantee rests on. The harness passes one in so histograms and the
    /// trace ring survive the kill/restart cycles within a trial.
    pub metrics: Option<Arc<Metrics>>,
}

impl DaemonConfig {
    /// Configuration with the paper's defaults: 1 TiB space at the fixed
    /// base, automatic recovery at startup.
    pub fn new(pm_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            pm_dir: pm_dir.into(),
            space_base: Some(DEFAULT_SPACE_BASE),
            space_size: puddles_pmem::DEFAULT_SPACE_SIZE,
            auto_recover: true,
            fault_plan: None,
            metrics: None,
        }
    }

    /// Configuration for tests and benchmarks: a smaller space at a unique
    /// base, so many daemon instances ("machines") can coexist in one test
    /// process without their reservations colliding.
    pub fn for_testing(pm_dir: impl Into<PathBuf>) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let slot = NEXT.fetch_add(1, Ordering::Relaxed);
        let space_size = 8usize << 30;
        let base = 0x5100_0000_0000 + slot * (space_size + (1 << 30));
        DaemonConfig {
            space_base: Some(base),
            space_size,
            ..DaemonConfig::new(pm_dir)
        }
    }

    /// Disables automatic recovery at startup (used by crash tests that want
    /// to inspect the pre-recovery state).
    pub fn no_auto_recover(mut self) -> Self {
        self.auto_recover = false;
        self
    }

    /// Attaches a seeded fault-injection plan (torture testing only).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Records into an existing observability hub, and reads time from its
    /// clock, instead of a fresh real-clock one (see the `metrics` field
    /// docs).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Every request kind as `(kind, series)` — the short name used in trace
/// events and the histogram series its service latency lands in. Indexed
/// by [`request_kind_index`]; the daemon pre-resolves one series handle per
/// entry at startup so the hot path never takes the series-registry lock.
pub(crate) const REQUEST_KINDS: [(&str, &str); 17] = [
    ("Hello", "service.Hello"),
    ("Ping", "service.Ping"),
    ("CreatePuddle", "service.CreatePuddle"),
    ("GetPuddle", "service.GetPuddle"),
    ("FreePuddle", "service.FreePuddle"),
    ("CreatePool", "service.CreatePool"),
    ("OpenPool", "service.OpenPool"),
    ("DropPool", "service.DropPool"),
    ("RegLogSpace", "service.RegLogSpace"),
    ("RegisterPtrMap", "service.RegisterPtrMap"),
    ("GetPtrMaps", "service.GetPtrMaps"),
    ("ExportPool", "service.ExportPool"),
    ("ImportPool", "service.ImportPool"),
    ("GetRelocation", "service.GetRelocation"),
    ("MarkRewritten", "service.MarkRewritten"),
    ("Recover", "service.Recover"),
    ("GetMetrics", "service.GetMetrics"),
];

/// Maps a request to its [`REQUEST_KINDS`] row.
pub(crate) fn request_kind_index(req: &Request) -> usize {
    match req {
        Request::Hello { .. } => 0,
        Request::Ping => 1,
        Request::CreatePuddle { .. } => 2,
        Request::GetPuddle { .. } => 3,
        Request::FreePuddle { .. } => 4,
        Request::CreatePool { .. } => 5,
        Request::OpenPool { .. } => 6,
        Request::DropPool { .. } => 7,
        Request::RegLogSpace { .. } => 8,
        Request::RegisterPtrMap { .. } => 9,
        Request::GetPtrMaps => 10,
        Request::ExportPool { .. } => 11,
        Request::ImportPool { .. } => 12,
        Request::GetRelocation { .. } => 13,
        Request::MarkRewritten { .. } => 14,
        Request::Recover => 15,
        Request::GetMetrics => 16,
    }
}

/// Shared daemon state.
#[derive(Debug)]
pub struct DaemonInner {
    /// The PM directory, carrying the fault plan and the observability hub
    /// (latency series, counters, the trace ring and the clock) every layer
    /// records into.
    pub(crate) pmdir: PmDir,
    pub(crate) gspace: Arc<GlobalSpace>,
    /// The metadata registry: one state machine behind one lock, held only
    /// for lookups and for a transaction's checks and apply — never across
    /// I/O. The metadata WAL it persists through is reachable via
    /// [`Registry::wal`] (`GetMetrics` reads the WAL tail from it).
    pub(crate) registry: Registry,
    /// Per-request-kind service-latency series, indexed by
    /// [`request_kind_index`] — resolved once so [`Daemon::handle`] records
    /// without touching the series-registry lock.
    pub(crate) service_series: Vec<Arc<ShardedHistogram>>,
    /// `stage.file_create`: making one new puddle's backing file.
    pub(crate) stage_file_create: Arc<ShardedHistogram>,
    /// `stage.unlink`: deleting one request's released puddle files.
    pub(crate) stage_unlink: Arc<ShardedHistogram>,
}

/// The Puddles daemon: a privileged service managing every puddle on the
/// machine (§3.2).
///
/// Cloning a `Daemon` clones a handle to the same instance.
#[derive(Debug, Clone)]
pub struct Daemon {
    pub(crate) inner: Arc<DaemonInner>,
}

/// Internal error carrying a protocol error code.
pub(crate) struct DaemonError {
    pub code: ErrorCode,
    pub message: String,
}

impl DaemonError {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        DaemonError {
            code,
            message: message.into(),
        }
    }
}

impl From<PmError> for DaemonError {
    fn from(e: PmError) -> Self {
        // Device exhaustion is a typed, client-actionable condition (free
        // something and retry), not an internal fault; so is a request
        // whose transaction does not fit one WAL record (ask for less).
        let code = match &e {
            PmError::NoSpace(_) => ErrorCode::OutOfSpace,
            PmError::RecordTooLarge { .. } => ErrorCode::InvalidRequest,
            _ => ErrorCode::Internal,
        };
        DaemonError::new(code, e.to_string())
    }
}

pub(crate) type DaemonResult<T> = std::result::Result<T, DaemonError>;

/// Where a request runs (see `crate::uds`): on the reactor thread, or on a
/// worker through one half of the two-lane queue. [`lane_of`] is the
/// only place this is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Runs on the reactor thread itself. Only for requests that take the
    /// registry's read lock and nothing else: no WAL record, no file, no
    /// wait on another thread — so the reactor can never stall behind one
    /// (a writer holds the lock for its checks and apply only).
    Inline,
    /// Small mutations that end in a WAL group commit (registrations,
    /// puddle create/free), plus `GetMetrics`, which walks the allocator's
    /// free map and every histogram series.
    Fast,
    /// Heavyweight operations that copy puddle contents or replay logs:
    /// pool import/export/creation/deletion and recovery. A burst of them
    /// can occupy at most the bulk lane's worker reservation.
    Bulk,
}

/// Classifies a request into its placement. The match is exhaustive on
/// purpose: a new request kind has to be placed here, and the
/// `inline_requests_never_reach_the_wal` test then holds it to the
/// [`Lane::Inline`] criterion.
pub(crate) fn lane_of(req: &Request) -> Lane {
    match req {
        Request::Hello { .. }
        | Request::Ping
        | Request::OpenPool { .. }
        | Request::GetPuddle { .. }
        | Request::GetPtrMaps
        | Request::GetRelocation { .. } => Lane::Inline,
        Request::ImportPool { .. }
        | Request::ExportPool { .. }
        | Request::CreatePool { .. }
        | Request::DropPool { .. }
        | Request::Recover => Lane::Bulk,
        Request::CreatePuddle { .. }
        | Request::FreePuddle { .. }
        | Request::RegLogSpace { .. }
        | Request::RegisterPtrMap { .. }
        | Request::MarkRewritten { .. }
        | Request::GetMetrics => Lane::Fast,
    }
}

impl Daemon {
    /// Starts the daemon: opens the PM directory, reserves the global
    /// space, opens the metadata WAL and loads the registry through it
    /// (replay, derive the allocator, checkpoint if the replayed tail is
    /// past the threshold or there is no snapshot), relocates puddles if the
    /// space base moved, sweeps orphan puddle files, and (by default) runs
    /// crash recovery before any client can connect.
    pub fn start(config: DaemonConfig) -> Result<Self> {
        let mut pmdir = PmDir::open(&config.pm_dir)?;
        if let Some(metrics) = config.metrics {
            pmdir = pmdir.with_obs(metrics);
        }
        if let Some(plan) = config.fault_plan {
            // Injections land in the trace ring interleaved with the
            // requests and WAL commits they perturbed.
            plan.attach_obs(Arc::clone(pmdir.obs()));
            pmdir = pmdir.with_fault_plan(plan);
        }
        let gspace = Arc::new(GlobalSpace::reserve(config.space_base, config.space_size)?);
        let metrics = pmdir.obs();
        let service_series = REQUEST_KINDS
            .iter()
            .map(|(_, series)| metrics.series(series))
            .collect();
        // Counted where they happen (a reconnecting `Hello`, a connection
        // turned away at the cap); created now so every report lists them.
        for counter in ["client_reconnects", "connections_rejected"] {
            metrics.counter(counter);
        }
        let registry =
            Registry::load_or_create(&pmdir, gspace.base() as u64, gspace.size() as u64)?;
        let daemon = Daemon {
            inner: Arc::new(DaemonInner {
                stage_file_create: metrics.series("stage.file_create"),
                stage_unlink: metrics.series("stage.unlink"),
                pmdir,
                gspace,
                registry,
                service_series,
            }),
        };
        daemon
            .inner
            .registry
            .apply_base_relocation(daemon.inner.gspace.base() as u64)?;
        // The replayed registry is the source of truth; delete puddle files
        // it does not know about — a crash between a file and its record
        // (a create whose record never became durable, a drop whose files
        // were not unlinked yet) leaves exactly those behind.
        let swept = |counter| daemon.metrics().counter(counter);
        swept("sweep.orphan_files").fetch_add(
            recovery::sweep_orphan_files(&daemon.inner)?,
            Ordering::Relaxed,
        );
        if config.auto_recover {
            let _ = recovery::run_recovery(&daemon.inner)?;
        }
        // Reclaim log and log-space puddles nothing can reach (a client
        // crash between allocating one and registering it). Startup only:
        // once clients connect, a live client is briefly in exactly this
        // state.
        swept("sweep.log_puddles").fetch_add(
            recovery::sweep_unreachable_log_puddles(&daemon.inner)?,
            Ordering::Relaxed,
        );
        Ok(daemon)
    }

    /// The metadata WAL (tests and tools tune thresholds through it).
    pub fn wal(&self) -> &Wal {
        self.inner.registry.wal()
    }

    /// The daemon's time source, its hub's clock (shared with the UDS
    /// server's deadlines).
    pub fn clock(&self) -> &Clock {
        self.metrics().clock()
    }

    /// The daemon's observability hub (histogram series, counters, and the
    /// trace ring), which its PM directory carries. The torture harness
    /// reads trace dumps through this.
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.inner.pmdir.obs()
    }

    /// Forces a registry checkpoint now (normally triggered by WAL growth).
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.registry.checkpoint()
    }

    /// Returns the global puddle space shared with in-process clients.
    pub fn global_space(&self) -> Arc<GlobalSpace> {
        Arc::clone(&self.inner.gspace)
    }

    /// Returns the PM directory backing this daemon.
    pub fn pm_dir(&self) -> &PmDir {
        &self.inner.pmdir
    }

    /// Returns the metadata registry (consistency checks, tests).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Creates an in-process endpoint acting with the given credentials.
    pub fn endpoint(&self, creds: Credentials) -> LocalEndpoint {
        LocalEndpoint {
            daemon: self.clone(),
            creds,
        }
    }

    /// Creates an in-process endpoint using this process's credentials.
    pub fn endpoint_for_current_process(&self) -> LocalEndpoint {
        self.endpoint(Credentials::current_process())
    }

    /// Handles one request on behalf of a client with credentials `creds`.
    /// Safe to call from any number of threads concurrently.
    pub fn handle(&self, creds: Credentials, req: Request) -> Response {
        self.handle_traced(creds, req, 0)
    }

    /// [`Daemon::handle`] with the wire-protocol request id (0 for
    /// in-process calls), so trace `req.start`/`req.end` pairs
    /// can be matched to pipelined responses. Times the request into its
    /// per-kind `service.*` latency series.
    pub(crate) fn handle_traced(&self, creds: Credentials, req: Request, req_id: u64) -> Response {
        let kind_index = request_kind_index(&req);
        let kind = REQUEST_KINDS[kind_index].0;
        let metrics = self.metrics();
        metrics.trace(TraceEventKind::ReqStart, kind, req_id, 0);
        let start = metrics.clock().now();
        let resp = match self.dispatch(creds, req) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: e.code,
                message: e.message,
            },
        };
        self.inner.service_series[kind_index].record_duration(metrics.clock().now() - start);
        metrics.trace(TraceEventKind::ReqEnd, kind, req_id, 0);
        resp
    }

    fn dispatch(&self, creds: Credentials, req: Request) -> DaemonResult<Response> {
        match req {
            Request::Hello { reconnect, .. } => {
                if reconnect {
                    let metrics = self.metrics();
                    let reconnects = metrics.counter("client_reconnects");
                    reconnects.fetch_add(1, Ordering::Relaxed);
                    metrics.trace(TraceEventKind::Reconnect, "", 0, 0);
                }
                Ok(self.welcome())
            }
            Request::Ping => Ok(self.welcome()),
            Request::CreatePuddle {
                size,
                pool,
                purpose,
                mode,
            } => {
                let info = self.create_puddle(creds, size, pool, purpose, mode)?;
                Ok(Response::Puddle(info))
            }
            Request::GetPuddle { id, writable } => {
                let info = self.get_puddle(creds, id, writable)?;
                Ok(Response::Puddle(info))
            }
            Request::FreePuddle { id } => {
                self.free_puddle(creds, id)?;
                Ok(Response::Ok)
            }
            Request::CreatePool {
                name,
                root_size,
                mode,
            } => {
                let info = self.create_pool(creds, &name, root_size, mode)?;
                Ok(Response::Pool(info))
            }
            Request::OpenPool { name } => {
                let info = self.open_pool(creds, &name)?;
                Ok(Response::Pool(info))
            }
            Request::DropPool { name } => {
                self.drop_pool(creds, &name)?;
                Ok(Response::Ok)
            }
            Request::RegLogSpace { puddle } => {
                self.register_log_space(creds, puddle)?;
                Ok(Response::Ok)
            }
            Request::RegisterPtrMap { decl } => {
                let reg = &self.inner.registry;
                reg.transact(|_, ops| -> DaemonResult<()> {
                    ops.push(RegistryOp::PutPtrMap(decl));
                    Ok(())
                })?;
                reg.commit()?;
                Ok(Response::Ok)
            }
            Request::GetPtrMaps => {
                let maps = |data: &RegistryData| data.ptr_maps.values().cloned().collect();
                Ok(Response::PtrMaps(self.inner.registry.read(maps)))
            }
            Request::ExportPool { name, dest } => {
                importexport::export_pool(&self.inner, creds, &name, &dest)?;
                Ok(Response::Ok)
            }
            Request::ImportPool { src, new_name } => {
                let (pool, translations) =
                    importexport::import_pool(&self.inner, creds, &src, &new_name)?;
                Ok(Response::Imported { pool, translations })
            }
            Request::GetRelocation { id } => {
                // Read-mostly path: the registry's shared read lock only.
                let relocation = self.inner.registry.relocation(id);
                let (needs_rewrite, translations) = relocation.ok_or_else(no_such_puddle)?;
                Ok(Response::Relocation {
                    needs_rewrite,
                    translations,
                })
            }
            Request::MarkRewritten { id } => {
                let reg = &self.inner.registry;
                reg.transact(|data, ops| {
                    let record = data.puddles.get(&id).ok_or_else(no_such_puddle)?;
                    // `old_addr` stays: pending pool members still point at it.
                    ops.push(RegistryOp::PutPuddle(PuddleRecord {
                        rewrite: Rewrite::Clean,
                        ..record.clone()
                    }));
                    Ok::<_, DaemonError>(())
                })?;
                reg.commit()?;
                Ok(Response::Ok)
            }
            Request::Recover => {
                let report = recovery::run_recovery(&self.inner)?;
                Ok(Response::Recovered(report))
            }
            Request::GetMetrics => Ok(Response::Metrics(self.metrics_report())),
        }
    }

    /// Builds the `GetMetrics` response: per-series quantiles plus every
    /// counter, name-sorted so successive snapshots diff cleanly. Events
    /// are counted in the hub where they happen; state is read here, at
    /// report time, under one registry read lock so the tables, the
    /// allocator and the WAL tail describe the same moment.
    pub(crate) fn metrics_report(&self) -> MetricsReport {
        let inner = &self.inner;
        let metrics = self.metrics();
        let snap = metrics.snapshot();
        let series = snap
            .series
            .into_iter()
            .map(|(name, h)| {
                SeriesSnapshot::from_histogram(name, h.count, h.sum, h.max, |p| h.percentile(p))
            })
            .collect();
        let reg = &inner.registry;
        let state = reg.read(|data| {
            let alloc = reg.alloc_stats();
            let wal = reg.wal().stats();
            [
                ("registry.puddles", data.puddles.len() as u64),
                ("registry.pools", data.pools.len() as u64),
                ("registry.ptr_maps", data.ptr_maps.len() as u64),
                ("registry.log_spaces", data.log_spaces.len() as u64),
                (
                    "space.used_bytes",
                    data.puddles.values().map(|p| p.size).sum(),
                ),
                ("space.total_bytes", inner.gspace.size() as u64),
                ("alloc.free_bytes", alloc.free_bytes),
                ("alloc.free_extents", alloc.free_extents),
                ("alloc.fragmentation_bp", alloc.fragmentation_bp),
                ("wal.tail_bytes", wal.bytes),
                ("wal.tail_records", wal.records),
            ]
        });
        let mut counters = snap.counters;
        counters.extend(state.map(|(name, value)| (name.to_string(), value)));
        counters.sort();
        MetricsReport {
            series,
            counters: counters
                .into_iter()
                .map(|(name, value)| CounterSnapshot { name, value })
                .collect(),
            trace_buffered: metrics.trace_events().len() as u64,
            trace_dropped: metrics.trace_dropped(),
        }
    }

    fn welcome(&self) -> Response {
        Response::Welcome {
            space_base: self.inner.gspace.base() as u64,
            space_size: self.inner.gspace.size() as u64,
        }
    }

    pub(crate) fn puddle_info(&self, record: &PuddleRecord, writable: bool) -> PuddleInfo {
        PuddleInfo {
            id: record.id,
            size: record.size,
            assigned_addr: self.inner.gspace.base() as u64 + record.offset,
            path: self
                .inner
                .pmdir
                .puddle_path(&record.file())
                .to_string_lossy()
                .into_owned(),
            purpose: record.purpose,
            owner_uid: record.owner_uid,
            owner_gid: record.owner_gid,
            mode: record.mode,
            needs_rewrite: record.rewrite != Rewrite::Clean,
            writable,
        }
    }

    /// Everything a new puddle needs before its record: an id, an extent of
    /// the global space and a zero-filled backing file.
    fn prepare_puddle(
        &self,
        creds: Credentials,
        size: u64,
        pool: Option<String>,
        purpose: PuddlePurpose,
        mode: u32,
    ) -> DaemonResult<PuddleRecord> {
        let reg = &self.inner.registry;
        let size = align_up(size.max((2 * PAGE_SIZE) as u64) as usize, PAGE_SIZE) as u64;
        let id = reg.fresh_id();
        let offset = reg.alloc_space(size).map_err(|_| {
            DaemonError::new(ErrorCode::OutOfSpace, "global puddle space exhausted")
        })?;
        let record = PuddleRecord {
            id,
            size,
            offset,
            purpose,
            owner_uid: creds.uid,
            owner_gid: creds.gid,
            mode,
            pool,
            old_addr: 0,
            rewrite: Rewrite::Clean,
        };
        let clock = self.metrics().clock();
        let start = clock.now();
        let created = self
            .inner
            .pmdir
            .create_puddle_file(&record.file(), size as usize);
        self.inner
            .stage_file_create
            .record_duration(clock.now() - start);
        if let Err(e) = created {
            reg.free_space(offset, size);
            return Err(DaemonError::from(e));
        }
        Ok(record)
    }

    /// Runs the transaction that records a prepared puddle, then commits
    /// it. The file exists before its record (a crash in between leaves an
    /// orphan for the startup sweep); a transaction that refuses gives the
    /// extent and the file back.
    fn record_prepared(
        &self,
        record: &PuddleRecord,
        tx: impl FnOnce(&RegistryData, &mut Vec<RegistryOp>) -> DaemonResult<()>,
    ) -> DaemonResult<()> {
        let reg = &self.inner.registry;
        if let Err(e) = reg.transact(tx) {
            reg.free_space(record.offset, record.size);
            let _ = self.inner.pmdir.delete_puddle_file(&record.file());
            return Err(e);
        }
        Ok(reg.commit()?)
    }

    pub(crate) fn create_puddle(
        &self,
        creds: Credentials,
        size: u64,
        pool: Option<String>,
        purpose: PuddlePurpose,
        mode: u32,
    ) -> DaemonResult<PuddleInfo> {
        let record = self.prepare_puddle(creds, size, pool, purpose, mode)?;
        // The pool check is one transaction with the record, whose `pool`
        // field is the membership: a concurrent DropPool either takes the
        // new puddle with it or makes this `NotFound`.
        self.record_prepared(&record, |data, ops| {
            if let Some(name) = &record.pool {
                if !data.pools.contains_key(name) {
                    return Err(DaemonError::new(
                        ErrorCode::NotFound,
                        format!("pool `{name}` does not exist"),
                    ));
                }
            }
            ops.push(RegistryOp::PutPuddle(record.clone()));
            Ok(())
        })?;
        Ok(self.puddle_info(&record, true))
    }

    fn get_puddle(
        &self,
        creds: Credentials,
        id: PuddleId,
        writable: bool,
    ) -> DaemonResult<PuddleInfo> {
        let record = self.inner.registry.puddle(id).ok_or_else(no_such_puddle)?;
        let access = if writable {
            acl::Access::Write
        } else {
            acl::Access::Read
        };
        if !record.allows(creds, access) {
            return Err(DaemonError::new(
                ErrorCode::PermissionDenied,
                format!("access to puddle {id} denied"),
            ));
        }
        Ok(self.puddle_info(&record, writable))
    }

    fn free_puddle(&self, creds: Credentials, id: PuddleId) -> DaemonResult<()> {
        let record = self.inner.registry.transact(|data, ops| {
            let record = data.puddles.get(&id).ok_or_else(no_such_puddle)?;
            if !record.allows(creds, acl::Access::Write) {
                return Err(DaemonError::new(ErrorCode::PermissionDenied, "not owner"));
            }
            // A pool without its root is a state no request may leave.
            let name = record.pool.as_deref().unwrap_or_default();
            if data.pools.get(name).is_some_and(|pool| pool.root == id) {
                return Err(DaemonError::new(
                    ErrorCode::InvalidRequest,
                    format!("puddle {id} is the root of pool `{name}`: drop the pool"),
                ));
            }
            ops.push(RegistryOp::DropPuddle { id });
            Ok(record.clone())
        })?;
        let dropped = [record];
        self.inner.release(&dropped)?;
        Ok(self.inner.unlink(&dropped)?)
    }

    fn create_pool(
        &self,
        creds: Credentials,
        name: &str,
        root_size: u64,
        mode: u32,
    ) -> DaemonResult<PoolInfo> {
        let name = name.to_string();
        let pool = Some(name.clone());
        let root = self.prepare_puddle(creds, root_size, pool, PuddlePurpose::Data, mode)?;
        // The name check and both records are one transaction, so
        // concurrent same-name creates race safely: exactly one wins.
        self.record_prepared(&root, |data, ops| {
            if data.pools.contains_key(&name) {
                return Err(pool_exists(&name));
            }
            ops.push(RegistryOp::PutPool {
                name: name.clone(),
                root: root.id,
            });
            ops.push(RegistryOp::PutPuddle(root.clone()));
            Ok(())
        })?;
        Ok(PoolInfo {
            name,
            root_puddle: root.id,
            puddles: vec![root.id],
        })
    }

    fn open_pool(&self, creds: Credentials, name: &str) -> DaemonResult<PoolInfo> {
        self.inner.registry.read(|data| {
            let pool = data.pools.get(name).ok_or_else(|| {
                DaemonError::new(ErrorCode::NotFound, format!("pool `{name}` not found"))
            })?;
            let root = data
                .puddles
                .get(&pool.root)
                .ok_or_else(|| DaemonError::new(ErrorCode::Internal, "pool root missing"))?;
            if !root.allows(creds, acl::Access::Read) {
                return Err(DaemonError::new(
                    ErrorCode::PermissionDenied,
                    "pool access denied",
                ));
            }
            Ok(PoolInfo {
                name: name.to_string(),
                root_puddle: pool.root,
                puddles: pool.puddles.clone(),
            })
        })
    }

    fn drop_pool(&self, creds: Credentials, name: &str) -> DaemonResult<()> {
        // All or nothing: the check that the caller may delete every member
        // and the ops that remove them see one member list.
        let members = self.inner.registry.transact(|data, ops| {
            if !data.pools.contains_key(name) {
                return Err(DaemonError::new(ErrorCode::NotFound, "pool not found"));
            }
            let members: Vec<PuddleRecord> = data.members(name).cloned().collect();
            if let Some(denied) = members
                .iter()
                .find(|m| !m.allows(creds, acl::Access::Write))
            {
                return Err(DaemonError::new(
                    ErrorCode::PermissionDenied,
                    format!(
                        "cannot drop pool `{name}`: puddle {} is not writable",
                        denied.id
                    ),
                ));
            }
            ops.push(RegistryOp::DropPool {
                name: name.to_string(),
            });
            ops.extend(members.iter().map(|m| RegistryOp::DropPuddle { id: m.id }));
            Ok(members)
        })?;
        self.inner.release(&members)?;
        Ok(self.inner.unlink(&members)?)
    }

    fn register_log_space(&self, creds: Credentials, puddle: PuddleId) -> DaemonResult<()> {
        let reg = &self.inner.registry;
        reg.transact(|data, ops| {
            let record = data.puddles.get(&puddle).ok_or_else(no_such_puddle)?;
            if !record.allows(creds, acl::Access::Write) {
                return Err(DaemonError::new(
                    ErrorCode::PermissionDenied,
                    "cannot register a log space you cannot write",
                ));
            }
            if record.purpose != PuddlePurpose::LogSpace {
                return Err(DaemonError::new(
                    ErrorCode::InvalidRequest,
                    "puddle was not created as a log space",
                ));
            }
            ops.push(RegistryOp::PutLogSpace(LogSpaceRecord {
                puddle,
                owner_uid: creds.uid,
                owner_gid: creds.gid,
                invalid: false,
            }));
            Ok(())
        })?;
        Ok(reg.commit()?)
    }
}

impl DaemonInner {
    /// What follows a transaction that dropped `records`: their extents go
    /// back to the allocator and the record is made durable. Only after
    /// that may [`DaemonInner::unlink`] delete the files — a crash in
    /// between leaves files without records, which the startup sweep
    /// deletes, never records without files.
    pub(crate) fn release(&self, records: &[PuddleRecord]) -> Result<()> {
        for record in records {
            self.registry.free_space(record.offset, record.size);
        }
        self.registry.commit()
    }

    /// Deletes the backing files of released puddles — every one is tried —
    /// and reports the first failure. The file it leaves behind has no
    /// record: the next startup sweeps it.
    pub(crate) fn unlink(&self, records: &[PuddleRecord]) -> Result<()> {
        let clock = self.pmdir.obs().clock();
        let start = clock.now();
        let unlinked = records
            .iter()
            .map(|record| self.pmdir.delete_puddle_file(&record.file()))
            .fold(Ok(()), Result::and);
        self.stage_unlink.record_duration(clock.now() - start);
        unlinked
    }
}

fn no_such_puddle() -> DaemonError {
    DaemonError::new(ErrorCode::NotFound, "no such puddle")
}

pub(crate) fn pool_exists(name: &str) -> DaemonError {
    DaemonError::new(
        ErrorCode::AlreadyExists,
        format!("pool `{name}` already exists"),
    )
}

/// In-process endpoint: calls the daemon directly with fixed credentials.
#[derive(Debug, Clone)]
pub struct LocalEndpoint {
    daemon: Daemon,
    creds: Credentials,
}

impl Endpoint for LocalEndpoint {
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        Ok(self.daemon.handle(self.creds, req.clone()))
    }
}

impl LocalDaemon for Daemon {
    type Space = GlobalSpace;

    fn endpoint(&self, creds: Credentials) -> Box<dyn Endpoint> {
        Box::new(Daemon::endpoint(self, creds))
    }

    fn space(&self) -> Arc<GlobalSpace> {
        self.global_space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puddles_proto::PtrMapDecl;

    /// One request of the named [`REQUEST_KINDS`] row. The inline kinds are
    /// well-formed against `pool` (they are executed); the rest only have
    /// to be of the right kind.
    fn sample_request(kind: &str, pool: &PoolInfo) -> Request {
        let creds = Credentials::current_process();
        let name = pool.name.clone();
        let id = pool.root_puddle;
        match kind {
            "Hello" => Request::Hello {
                creds,
                reconnect: true,
            },
            "Ping" => Request::Ping,
            "CreatePuddle" => Request::CreatePuddle {
                size: 1 << 20,
                pool: Some(name),
                purpose: PuddlePurpose::Data,
                mode: 0o600,
            },
            "GetPuddle" => Request::GetPuddle { id, writable: true },
            "FreePuddle" => Request::FreePuddle { id },
            "CreatePool" => Request::CreatePool {
                name,
                root_size: 1 << 20,
                mode: 0o600,
            },
            "OpenPool" => Request::OpenPool { name },
            "DropPool" => Request::DropPool { name },
            "RegLogSpace" => Request::RegLogSpace { puddle: id },
            "RegisterPtrMap" => Request::RegisterPtrMap {
                decl: PtrMapDecl {
                    type_id: 7,
                    type_name: "lanes::Node".into(),
                    size: 16,
                    fields: Vec::new(),
                },
            },
            "GetPtrMaps" => Request::GetPtrMaps,
            "ExportPool" => Request::ExportPool {
                name,
                dest: "/nonexistent".into(),
            },
            "ImportPool" => Request::ImportPool {
                src: "/nonexistent".into(),
                new_name: name,
            },
            "GetRelocation" => Request::GetRelocation { id },
            "MarkRewritten" => Request::MarkRewritten { id },
            "Recover" => Request::Recover,
            "GetMetrics" => Request::GetMetrics,
            other => panic!("no sample request for kind `{other}`: add one"),
        }
    }

    /// `lane_of` against the whole request table: whatever it places on the
    /// reactor is handled without one WAL record or byte, so a request kind
    /// that commits cannot be inlined by accident.
    #[test]
    fn inline_requests_never_reach_the_wal() {
        let tmp = tempfile::tempdir().unwrap();
        let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
        // No checkpoint may truncate the WAL between the two readings.
        daemon.wal().set_checkpoint_threshold(u64::MAX);
        let creds = Credentials::current_process();
        let create = Request::CreatePool {
            name: "lanes".into(),
            root_size: 1 << 20,
            mode: 0o600,
        };
        let Response::Pool(pool) = daemon.handle(creds, create) else {
            panic!("pool creation failed");
        };
        let mut inline = Vec::new();
        for (index, (kind, _)) in REQUEST_KINDS.iter().enumerate() {
            let req = sample_request(kind, &pool);
            assert_eq!(request_kind_index(&req), index, "sample for {kind}");
            if lane_of(&req) != Lane::Inline {
                continue;
            }
            let before = daemon.wal().stats();
            let resp = daemon.handle(creds, req);
            assert!(!matches!(resp, Response::Error { .. }), "{kind}: {resp:?}");
            assert_eq!(
                daemon.wal().stats(),
                before,
                "{kind} runs on the reactor but appended to the WAL"
            );
            inline.push(*kind);
        }
        assert_eq!(
            inline,
            [
                "Hello",
                "Ping",
                "GetPuddle",
                "OpenPool",
                "GetPtrMaps",
                "GetRelocation"
            ]
        );
    }

    /// No mode: the daemon reads its clock and never acts on it, so the
    /// same request sequence leaves the same WAL traffic — and the same
    /// `GetMetrics` counters and series counts, after every request — on a
    /// real clock (production) and on a virtual one (every torture trial
    /// and the replay gate). Only durations may differ.
    #[test]
    fn wal_traffic_is_the_same_on_a_real_and_a_virtual_clock() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let traffic = |clock: Clock| {
            let tmp = tempfile::tempdir().unwrap();
            let config = DaemonConfig::for_testing(tmp.path()).with_metrics(Metrics::new(clock));
            let daemon = Daemon::start(config).unwrap();
            daemon.wal().set_checkpoint_threshold(256);
            let creds = Credentials::current_process();
            let mut rng = StdRng::seed_from_u64(23);
            let mut pools: Vec<PoolInfo> = Vec::new();
            let mut seen = Vec::new();
            for i in 0..120u64 {
                let pool = pools.first().cloned();
                let req = match (rng.gen_range(0..6), pool) {
                    (0, Some(pool)) => sample_request("CreatePuddle", &pool),
                    (1, Some(pool)) => sample_request("OpenPool", &pool),
                    (2, Some(pool)) if pools.len() > 2 => {
                        pools.remove(0);
                        sample_request("DropPool", &pool)
                    }
                    (3, _) => Request::RegisterPtrMap {
                        decl: PtrMapDecl {
                            type_id: i,
                            type_name: format!("clock::{i}"),
                            size: 64,
                            fields: Vec::new(),
                        },
                    },
                    _ => Request::CreatePool {
                        name: format!("clock-{i}"),
                        root_size: 1 << 20,
                        mode: 0o600,
                    },
                };
                match daemon.handle(creds, req) {
                    Response::Error { code, message } => panic!("{code:?}: {message}"),
                    Response::Pool(pool) if !pools.iter().any(|p| p.name == pool.name) => {
                        pools.push(pool)
                    }
                    _ => {}
                }
                let report = daemon.metrics_report();
                let counts: Vec<(String, u64)> = report
                    .series
                    .into_iter()
                    .map(|s| (s.name, s.count))
                    .collect();
                seen.push((report.counters, counts));
            }
            let (counters, counts) = seen.last().unwrap();
            let checkpoints = counts.iter().find(|(name, _)| name == "checkpoint");
            assert!(
                checkpoints.is_some_and(|(_, count)| *count >= 10),
                "{counts:?}"
            );
            assert!(counters.iter().any(|c| c.name == "wal.tail_bytes"));
            seen
        };
        assert_eq!(traffic(Clock::real()), traffic(Clock::simulated()));
    }

    /// The file layers of a pool's life are priced on their own: one
    /// `CreatePool` makes one file and one `DropPool` unlinks its members
    /// once, each a sample on the daemon's clock in `GetMetrics`.
    #[test]
    fn pool_create_and_drop_each_record_one_file_stage_sample() {
        let tmp = tempfile::tempdir().unwrap();
        let config =
            DaemonConfig::for_testing(tmp.path()).with_metrics(Metrics::new(Clock::simulated()));
        let daemon = Daemon::start(config).unwrap();
        let creds = Credentials::current_process();
        let stage_counts = || {
            let Response::Metrics(report) = daemon.handle(creds, Request::GetMetrics) else {
                panic!("GetMetrics did not answer Metrics");
            };
            ["stage.file_create", "stage.unlink"].map(|name| {
                report
                    .series(name)
                    .unwrap_or_else(|| panic!("no `{name}` series"))
                    .count
            })
        };
        assert_eq!(stage_counts(), [0, 0]);
        let pool = PoolInfo {
            name: "staged".into(),
            root_puddle: PuddleId(0),
            puddles: Vec::new(),
        };
        for kind in ["CreatePool", "DropPool"] {
            let resp = daemon.handle(creds, sample_request(kind, &pool));
            assert!(!matches!(resp, Response::Error { .. }), "{kind}: {resp:?}");
        }
        assert_eq!(stage_counts(), [1, 1]);
    }

    /// The other half of the table: a request that changes metadata is
    /// exactly one WAL record and, uncontended, one group commit — however
    /// many table entries it touches — and every other kind logs nothing.
    /// `--nocapture` prints the rows as the README's per-request table.
    #[test]
    fn a_mutating_request_is_one_record_and_one_group_commit() {
        let tmp = tempfile::tempdir().unwrap();
        let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path().join("pm"))).unwrap();
        // No checkpoint may fold records away between two readings.
        daemon.wal().set_checkpoint_threshold(u64::MAX);
        let creds = Credentials::current_process();
        let call = |req: Request| match daemon.handle(creds, req) {
            Response::Error { code, message } => panic!("{code:?}: {message}"),
            resp => resp,
        };
        let dir = |name: &str| tmp.path().join(name).to_string_lossy().into_owned();
        // Two pools of eight members, one of them exported, and an exported
        // one of 64; a log-space puddle waiting to be registered.
        let named = |name: &str| PoolInfo {
            name: name.into(),
            root_puddle: PuddleId(0),
            puddles: Vec::new(),
        };
        let pool_of = |name: &str, members: usize| {
            let Response::Pool(pool) = call(sample_request("CreatePool", &named(name))) else {
                panic!("pool creation failed");
            };
            for _ in 1..members {
                call(sample_request("CreatePuddle", &pool));
            }
            let Response::Pool(pool) = call(sample_request("OpenPool", &pool)) else {
                panic!("pool open failed");
            };
            assert_eq!(pool.puddles.len(), members);
            pool
        };
        let lanes = pool_of("lanes", 8);
        let doomed = pool_of("doomed", 8);
        let export = |name: &str, dest: &str| {
            call(Request::ExportPool {
                name: name.into(),
                dest: dir(dest),
            })
        };
        export("lanes", "export");
        export(&pool_of("sixty-four", 64).name, "export-64");
        let Response::Puddle(log_space) = call(Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::LogSpace,
            mode: 0o600,
        }) else {
            panic!("log-space creation failed");
        };

        let flushes = daemon.metrics().series("wal.flush");
        let mut mutating = Vec::new();
        let mut wal_bytes = std::collections::BTreeMap::new();
        println!("| request | WAL records | group commits | WAL bytes |\n|---|---|---|---|");
        for (kind, _) in REQUEST_KINDS.iter() {
            let req = match *kind {
                "FreePuddle" => Request::FreePuddle {
                    id: lanes.puddles[7],
                },
                "CreatePool" => sample_request(kind, &named("fresh")),
                "DropPool" => sample_request(kind, &doomed),
                "RegLogSpace" => Request::RegLogSpace {
                    puddle: log_space.id,
                },
                "ExportPool" => Request::ExportPool {
                    name: lanes.name.clone(),
                    dest: dir("export-again"),
                },
                "ImportPool" => Request::ImportPool {
                    src: dir("export"),
                    new_name: "imported".into(),
                },
                _ => sample_request(kind, &lanes),
            };
            let before = (daemon.wal().stats(), flushes.snapshot().count);
            call(req);
            let after = daemon.wal().stats();
            let (records, bytes) = (
                after.records - before.0.records,
                after.bytes - before.0.bytes,
            );
            let commits = flushes.snapshot().count - before.1;
            println!("| `{kind}` | {records} | {commits} | {bytes} |");
            assert_eq!(records, commits, "{kind}: one group commit per record");
            assert!(records <= 1, "{kind} appended {records} records");
            if records == 1 {
                assert_ne!(lane_of(&sample_request(kind, &lanes)), Lane::Inline);
                mutating.push(*kind);
                wal_bytes.insert(*kind, bytes);
            }
        }
        assert_eq!(
            mutating,
            [
                "CreatePuddle",
                "FreePuddle",
                "CreatePool",
                "DropPool",
                "RegLogSpace",
                "RegisterPtrMap",
                "ImportPool",
                "MarkRewritten"
            ]
        );
        // A record holds what the tables do not imply, so these are fixed
        // costs (next to the pool's name), and an import is linear in its
        // members: 8x the puddles is under 8x the bytes (it was ~46x when
        // every member carried the whole translation table).
        for (kind, bound) in [
            ("CreatePuddle", 96),
            ("FreePuddle", 48),
            ("CreatePool", 120),
            ("MarkRewritten", 96),
            ("ImportPool", 700),
        ] {
            assert!(wal_bytes[kind] <= bound, "{kind}: {} B", wal_bytes[kind]);
        }
        let before = daemon.wal().stats().bytes;
        call(Request::ImportPool {
            src: dir("export-64"),
            new_name: "imported-64".into(),
        });
        let import_64 = daemon.wal().stats().bytes - before;
        println!("| `ImportPool` (64 members) | 1 | 1 | {import_64} |");
        assert!(import_64 < 8 * wal_bytes["ImportPool"], "{import_64} B");
        let report = daemon.metrics_report();
        let tables = ["registry.pools", "registry.puddles"].map(|name| report.counter(name));
        assert_eq!(tables, [Some(5), Some(8 + 8 + 64 + 64 + 1 + 1)]);
        crate::Invariants::assert_all(daemon.registry());
    }
}
