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
use crate::gspace::GlobalSpace;
use crate::importexport;
use crate::recovery;
use crate::registry::{LogSpaceRecord, PuddleRecord, Registry, RegistryData, Rewrite};
use crate::wal::{RegistryOp, Wal, WalHandle};
use puddles_pmem::clock::Clock;
use puddles_pmem::faultio::FaultPlan;
use puddles_pmem::obs::{HistogramSnapshot, Metrics, ShardedHistogram, TraceEventKind};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::util::align_up;
use puddles_pmem::{PmError, Result, DEFAULT_SPACE_BASE, PAGE_SIZE};
use puddles_proto::{
    CounterSnapshot, Credentials, Endpoint, ErrorCode, MetricsReport, PoolInfo, PuddleId,
    PuddleInfo, PuddlePurpose, Request, Response, SeriesSnapshot,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default per-connection in-flight window granted to clients that do not
/// request one (matches `uds::MAX_PIPELINED_REQUESTS`).
pub const DEFAULT_MAX_IN_FLIGHT: u32 = 64;

/// The deterministic clamp behind Hello/Welcome negotiation: `0` means
/// "server default", anything else is clamped into `[1, configured_max]`.
/// Both the UDS connection (enforcing the window) and the service (reporting
/// the grant in `Welcome`) apply this same function, so they cannot drift.
pub fn grant_limit(requested: u32, default: u32, configured_max: u32) -> u32 {
    if requested == 0 {
        default.min(configured_max).max(1)
    } else {
        requested.clamp(1, configured_max.max(1))
    }
}

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
    /// Hard ceiling for the per-connection in-flight window a client may
    /// negotiate in `Hello` (the server clamps requests above it).
    pub max_in_flight: u32,
    /// Seeded fault-injection plan for torture testing; `None` (production)
    /// injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Time source for latency series, the reported WAL checkpoint age and
    /// the UDS server's deadlines. The daemon *reads* time and never acts on
    /// it: on a real and on a virtual clock alike, WAL traffic is a pure
    /// function of the request sequence — the property the torture
    /// harness's replay guarantee rests on.
    pub clock: Clock,
    /// Observability hub to record into; `None` creates a fresh one. The
    /// torture harness passes one in so histograms and the trace ring
    /// survive the kill/restart cycles within a trial.
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
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            fault_plan: None,
            clock: Clock::real(),
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
            pm_dir: pm_dir.into(),
            space_base: Some(base),
            space_size,
            auto_recover: true,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            fault_plan: None,
            clock: Clock::real(),
            metrics: None,
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

    /// Reads time from `clock` (see the `clock` field docs).
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Records into an existing observability hub instead of a fresh one
    /// (see the `metrics` field docs).
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Every request kind as `(kind, series)` — the short name used in trace
/// events and the histogram series its service latency lands in. Indexed
/// by [`request_kind_index`]; the daemon pre-resolves one series handle per
/// entry at startup so the hot path never takes the series-registry lock.
pub(crate) const REQUEST_KINDS: [(&str, &str); 18] = [
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
    ("Stats", "service.Stats"),
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
        Request::Stats => 16,
        Request::GetMetrics => 17,
    }
}

/// Shared daemon state.
#[derive(Debug)]
pub struct DaemonInner {
    pub(crate) config: DaemonConfig,
    pub(crate) pmdir: PmDir,
    pub(crate) gspace: Arc<GlobalSpace>,
    /// The metadata registry: one state machine behind one lock, held only
    /// for lookups and for a transaction's checks and apply — never across
    /// I/O. The metadata WAL it persists through is reachable via
    /// [`Registry::wal`] (`Stats` reads WAL length and checkpoint age from
    /// it).
    pub(crate) registry: Registry,
    /// Orphan puddle files deleted by the startup directory sweep.
    pub(crate) orphans_swept: AtomicU64,
    /// Log puddles referenced by no log space, reclaimed at startup (the
    /// crash window between allocating a chain segment and registering it).
    pub(crate) log_puddles_swept: AtomicU64,
    /// LogSpace puddles with no log-space registration, reclaimed at
    /// startup (the crash window inside `ensure_logspace`, between the
    /// puddle allocation and `RegLogSpace`).
    pub(crate) logspace_puddles_swept: AtomicU64,
    /// Connections the UDS acceptor rejected at the connection cap with a
    /// `Busy` frame.
    pub(crate) connections_rejected: AtomicU64,
    /// `Hello` messages flagged `reconnect: true` (clients re-dialing after
    /// a dropped or reset connection).
    pub(crate) client_reconnects: AtomicU64,
    /// Per-reactor live-connection counters, registered by the UDS server
    /// at start and cleared at its shutdown; surfaced in `Stats` so
    /// accept-time placement skew is observable. Empty when no socket
    /// server is attached (in-process endpoints only).
    pub(crate) reactor_loads: std::sync::Mutex<Vec<Arc<AtomicUsize>>>,
    /// Per-reactor handled-request counters, registered alongside
    /// [`DaemonInner::reactor_loads`]; surfaced in `Stats` and `GetMetrics`
    /// so *served traffic* skew is observable, not just placement.
    pub(crate) reactor_requests: std::sync::Mutex<Vec<Arc<AtomicU64>>>,
    /// The observability hub: latency series, counters, and the trace ring.
    pub(crate) metrics: Arc<Metrics>,
    /// Per-request-kind service-latency series, indexed by
    /// [`request_kind_index`] — resolved once so [`Daemon::handle`] records
    /// without touching the series-registry lock.
    pub(crate) service_series: Vec<Arc<ShardedHistogram>>,
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

/// Where a request runs (see `crate::uds`): on the reactor that decoded it,
/// or on a worker through one half of the two-lane queue. [`lane_of`] is the
/// only place this is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Runs on the reactor thread itself. Only for requests that take the
    /// registry's read lock and nothing else: no WAL record, no file, no
    /// wait on another thread — so a reactor can never stall behind one
    /// (a writer holds the lock for its checks and apply only).
    Inline,
    /// Small mutations that end in a WAL group commit (registrations,
    /// puddle create/free), plus `Stats`/`GetMetrics`, which sort the
    /// allocator's free list and walk every histogram series.
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
        | Request::Stats
        | Request::GetMetrics => Lane::Fast,
    }
}

/// One histogram as the wire reports it: the single place that picks which
/// quantiles a [`SeriesSnapshot`] carries (the daemon's `GetMetrics` and the
/// client-local reporter both go through it).
pub fn series_snapshot(name: String, h: &HistogramSnapshot) -> SeriesSnapshot {
    SeriesSnapshot {
        name,
        count: h.count,
        sum_nanos: h.sum,
        p50_nanos: h.percentile(50.0),
        p90_nanos: h.percentile(90.0),
        p99_nanos: h.percentile(99.0),
        max_nanos: h.max,
    }
}

impl Daemon {
    /// Starts the daemon: opens the PM directory, reserves the global
    /// space, opens the metadata WAL and loads the registry through it
    /// (replay, derive the allocator, checkpoint), relocates puddles if the
    /// space base moved, sweeps orphan puddle files, and (by default) runs
    /// crash recovery before any client can connect.
    pub fn start(config: DaemonConfig) -> Result<Self> {
        let mut pmdir = PmDir::open(&config.pm_dir)?;
        if let Some(plan) = &config.fault_plan {
            pmdir = pmdir.with_fault_plan(Arc::clone(plan));
        }
        let gspace = Arc::new(GlobalSpace::reserve(config.space_base, config.space_size)?);
        let metrics = config
            .metrics
            .clone()
            .unwrap_or_else(|| Metrics::new(config.clock.clone()));
        let service_series = REQUEST_KINDS
            .iter()
            .map(|(_, series)| metrics.series(series))
            .collect();
        if let Some(plan) = &config.fault_plan {
            // Injections land in the trace ring interleaved with the
            // requests and WAL commits they perturbed.
            plan.attach_obs(Arc::clone(&metrics));
        }
        let wal: WalHandle = Arc::new(Wal::open_with_obs(
            &pmdir,
            config.clock.clone(),
            Arc::clone(&metrics),
        )?);
        let registry =
            Registry::load_or_create_with_wal(wal, gspace.base() as u64, gspace.size() as u64)?;
        let daemon = Daemon {
            inner: Arc::new(DaemonInner {
                config,
                pmdir,
                gspace,
                registry,
                orphans_swept: AtomicU64::new(0),
                log_puddles_swept: AtomicU64::new(0),
                logspace_puddles_swept: AtomicU64::new(0),
                connections_rejected: AtomicU64::new(0),
                client_reconnects: AtomicU64::new(0),
                reactor_loads: std::sync::Mutex::new(Vec::new()),
                reactor_requests: std::sync::Mutex::new(Vec::new()),
                metrics,
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
        let swept = recovery::sweep_orphan_files(&daemon.inner)?;
        daemon.inner.orphans_swept.store(swept, Ordering::Relaxed);
        if daemon.inner.config.auto_recover {
            let _ = recovery::run_recovery(&daemon.inner)?;
        }
        // Reclaim log puddles no log space references (the crash window
        // between allocating a chain segment and registering it). Startup
        // only: once clients connect, a live chain extension is briefly in
        // exactly this state.
        let logs_swept = recovery::sweep_unreferenced_log_puddles(&daemon.inner)?;
        daemon
            .inner
            .log_puddles_swept
            .store(logs_swept, Ordering::Relaxed);
        // Likewise for LogSpace puddles that never made it into the
        // registry's log-space table (a crash inside `ensure_logspace`
        // between the allocation and `RegLogSpace`): unreachable forever,
        // safe to reclaim before any client connects.
        let ls_swept = recovery::sweep_unregistered_logspace_puddles(&daemon.inner)?;
        daemon
            .inner
            .logspace_puddles_swept
            .store(ls_swept, Ordering::Relaxed);
        Ok(daemon)
    }

    /// The metadata WAL handle (tests and tools tune thresholds through it).
    pub fn wal(&self) -> &WalHandle {
        self.inner.registry.wal()
    }

    /// The daemon's time source (shared with the UDS server's deadlines).
    pub fn clock(&self) -> &Clock {
        &self.inner.config.clock
    }

    /// Registers the UDS server's per-reactor live-connection counters for
    /// `Stats` reporting; an empty vector detaches (server shutdown).
    pub(crate) fn attach_reactor_loads(&self, loads: Vec<Arc<AtomicUsize>>) {
        *self.inner.reactor_loads.lock().unwrap() = loads;
    }

    /// Registers the UDS server's per-reactor handled-request counters
    /// (same lifecycle as [`Daemon::attach_reactor_loads`]).
    pub(crate) fn attach_reactor_requests(&self, counts: Vec<Arc<AtomicU64>>) {
        *self.inner.reactor_requests.lock().unwrap() = counts;
    }

    /// The daemon's observability hub (histogram series, counters, and the
    /// trace ring). The torture harness reads trace dumps through this.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
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
        let clock = &self.inner.config.clock;
        self.inner
            .metrics
            .trace(TraceEventKind::ReqStart, kind, req_id, 0);
        let start = clock.now();
        let resp = match self.dispatch(creds, req) {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: e.code,
                message: e.message,
            },
        };
        self.inner.service_series[kind_index].record_duration(clock.now() - start);
        self.inner
            .metrics
            .trace(TraceEventKind::ReqEnd, kind, req_id, 0);
        resp
    }

    fn dispatch(&self, creds: Credentials, req: Request) -> DaemonResult<Response> {
        match req {
            Request::Hello {
                max_in_flight,
                reconnect,
                ..
            } => {
                if reconnect {
                    self.inner.client_reconnects.fetch_add(1, Ordering::Relaxed);
                    self.inner
                        .metrics
                        .trace(TraceEventKind::Reconnect, "", 0, 0);
                }
                Ok(self.welcome(max_in_flight))
            }
            Request::Ping => Ok(self.welcome(0)),
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
            Request::Stats => Ok(Response::Stats(self.stats())),
            Request::GetMetrics => Ok(Response::Metrics(self.metrics_report())),
        }
    }

    /// Builds the `GetMetrics` response: per-series quantiles plus every
    /// counter, name-sorted so successive snapshots diff cleanly.
    fn metrics_report(&self) -> MetricsReport {
        let snap = self.inner.metrics.snapshot();
        let series = snap
            .series
            .into_iter()
            .map(|(name, h)| series_snapshot(name, &h))
            .collect();
        let mut counters: Vec<CounterSnapshot> = snap
            .counters
            .into_iter()
            .map(|(name, value)| CounterSnapshot { name, value })
            .collect();
        counters.push(CounterSnapshot {
            name: "client_reconnects".into(),
            value: self.inner.client_reconnects.load(Ordering::Relaxed),
        });
        counters.push(CounterSnapshot {
            name: "connections_rejected".into(),
            value: self.inner.connections_rejected.load(Ordering::Relaxed),
        });
        for (i, count) in self
            .inner
            .reactor_requests
            .lock()
            .unwrap()
            .iter()
            .enumerate()
        {
            counters.push(CounterSnapshot {
                name: format!("reactor.{i}.requests"),
                value: count.load(Ordering::Relaxed),
            });
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsReport {
            series,
            counters,
            trace_buffered: self.inner.metrics.trace_events().len() as u64,
            trace_dropped: self.inner.metrics.trace_dropped(),
        }
    }

    /// The per-connection in-flight window granted for a requested value.
    /// The single source of truth: `Welcome` reports this number and the
    /// UDS reactor enforces it, so the two can never disagree.
    pub(crate) fn granted_in_flight(&self, requested: u32) -> u32 {
        grant_limit(requested, DEFAULT_MAX_IN_FLIGHT, self.in_flight_cap())
    }

    /// The ceiling a connection's window can be negotiated up to.
    pub(crate) fn in_flight_cap(&self) -> u32 {
        self.inner
            .config
            .max_in_flight
            .min(crate::uds::MAX_PIPELINED_REQUESTS as u32)
    }

    fn welcome(&self, requested_in_flight: u32) -> Response {
        Response::Welcome {
            space_base: self.inner.gspace.base() as u64,
            space_size: self.inner.gspace.size() as u64,
            max_in_flight: self.granted_in_flight(requested_in_flight),
        }
    }

    fn stats(&self) -> puddles_proto::DaemonStats {
        let reg = &self.inner.registry;
        let (puddles, space_used, pools, ptr_maps, log_spaces) = reg.read(|data| {
            (
                data.puddles.len() as u64,
                data.puddles.values().map(|p| p.size).sum::<u64>(),
                data.pools.len() as u64,
                data.ptr_maps.len() as u64,
                data.log_spaces.len() as u64,
            )
        });
        let wal = reg.wal().stats();
        let alloc = reg.alloc_stats();
        let io = self.inner.pmdir.io_stats();
        puddles_proto::DaemonStats {
            puddles,
            pools,
            ptr_maps,
            log_spaces,
            space_used,
            space_total: self.inner.gspace.size() as u64,
            wal_bytes: wal.bytes,
            wal_records: wal.records,
            checkpoints: wal.checkpoints,
            checkpoint_age_ms: wal.checkpoint_age_ms,
            orphan_files_swept: self.inner.orphans_swept.load(Ordering::Relaxed),
            log_puddles_swept: self.inner.log_puddles_swept.load(Ordering::Relaxed),
            logspace_puddles_swept: self.inner.logspace_puddles_swept.load(Ordering::Relaxed),
            connections_rejected: self.inner.connections_rejected.load(Ordering::Relaxed),
            space_free_bytes: alloc.free_bytes,
            free_extents: alloc.free_extents,
            fragmentation_bp: alloc.fragmentation_bp,
            lazy_coalesce_runs: alloc.lazy_coalesce_runs,
            forced_inline_coalesces: alloc.forced_inline_coalesces,
            io_retries: io.io_retries(),
            transient_io_errors: io.transient_io_errors(),
            client_reconnects: self.inner.client_reconnects.load(Ordering::Relaxed),
            enospc_rejections: io.enospc_rejections(),
            reactor_connections: {
                let loads = self.inner.reactor_loads.lock().unwrap();
                loads
                    .iter()
                    .map(|l| l.load(Ordering::Relaxed) as u64)
                    .collect()
            },
            reactor_requests: {
                let counts = self.inner.reactor_requests.lock().unwrap();
                counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
            },
            reactors: self.inner.reactor_loads.lock().unwrap().len() as u64,
        }
    }

    /// Records one connection turned away at the connection cap (the UDS
    /// acceptor calls this after writing the `Busy` frame).
    pub(crate) fn note_rejected_connection(&self) {
        self.inner
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
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
        let pmdir = &self.inner.pmdir;
        if let Err(e) = pmdir.create_puddle_file(&record.file(), size as usize) {
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
        records
            .iter()
            .map(|record| self.pmdir.delete_puddle_file(&record.file()))
            .fold(Ok(()), Result::and)
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

impl LocalEndpoint {
    /// Returns the daemon behind this endpoint (in-process clients use it to
    /// share the global space).
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Returns the credentials this endpoint presents.
    pub fn credentials(&self) -> Credentials {
        self.creds
    }
}

impl Endpoint for LocalEndpoint {
    fn call(&self, req: &Request) -> std::io::Result<Response> {
        Ok(self.daemon.handle(self.creds, req.clone()))
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
                max_in_flight: 8,
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
            "Stats" => Request::Stats,
            "GetMetrics" => Request::GetMetrics,
            other => panic!("no sample request for kind `{other}`: add one"),
        }
    }

    /// `lane_of` against the whole request table: whatever it places on a
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
            let before = daemon.stats();
            let resp = daemon.handle(creds, req);
            assert!(!matches!(resp, Response::Error { .. }), "{kind}: {resp:?}");
            let after = daemon.stats();
            assert_eq!(
                (after.wal_records, after.wal_bytes),
                (before.wal_records, before.wal_bytes),
                "{kind} runs on a reactor but appended to the WAL"
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
    /// same request sequence leaves the same WAL traffic — records, bytes
    /// and checkpoints, after every request — on a real clock (production)
    /// and on a virtual one (every torture trial and the replay gate).
    #[test]
    fn wal_traffic_is_the_same_on_a_real_and_a_virtual_clock() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let traffic = |clock: Clock| {
            let tmp = tempfile::tempdir().unwrap();
            let config = DaemonConfig::for_testing(tmp.path()).with_clock(clock);
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
                let stats = daemon.stats();
                seen.push((stats.wal_records, stats.wal_bytes, stats.checkpoints));
            }
            assert!(seen.last().unwrap().2 >= 10, "{seen:?}");
            seen
        };
        assert_eq!(traffic(Clock::real()), traffic(Clock::simulated(1)));
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
            let before = (daemon.stats(), flushes.snapshot().count);
            call(req);
            let records = daemon.stats().wal_records - before.0.wal_records;
            let bytes = daemon.stats().wal_bytes - before.0.wal_bytes;
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
        let before = daemon.stats().wal_bytes;
        call(Request::ImportPool {
            src: dir("export-64"),
            new_name: "imported-64".into(),
        });
        let import_64 = daemon.stats().wal_bytes - before;
        println!("| `ImportPool` (64 members) | 1 | 1 | {import_64} |");
        assert!(import_64 < 8 * wal_bytes["ImportPool"], "{import_64} B");
        let stats = daemon.stats();
        assert_eq!((stats.pools, stats.puddles), (5, 8 + 8 + 64 + 64 + 1 + 1));
        crate::Invariants::assert_all(daemon.registry());
    }
}
