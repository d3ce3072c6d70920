//! The client side of the Puddles system (`libpuddles`' connection state).
//!
//! A [`PuddleClient`] talks to one daemon (in-process or over a UNIX-domain
//! socket), shares that daemon's global puddle space, registers the
//! client's log space and pointer maps, and hands out per-thread log
//! puddles for transactions (§4.1 "to keep transaction costs low, every
//! thread caches the log puddle used on the first transaction").

use crate::error::{Error, Result};
use crate::interval::IntervalSet;
use crate::pool::{Pool, PoolOptions};
use crate::transport::{ClientMetrics, PipelinedEndpoint, RetryPolicy};
use crate::tx::{self, Transaction};
use crate::types::{PmType, TypeRegistry};
use parking_lot::{Mutex, RwLock};
use puddled::{Daemon, GlobalSpace, LOG_REGION_OFFSET};
use puddles_logfmt::{LogRef, LogSpaceRef, LogWriter};
use puddles_pmem::failpoint;
use puddles_proto::{
    Credentials, Endpoint, PoolInfo, PuddleId, PuddleInfo, PuddlePurpose, RecoveryReport, Request,
    Response,
};
use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::Arc;
use std::thread::ThreadId;

/// Size of the puddle holding a client's log space.
pub const LOGSPACE_PUDDLE_SIZE: u64 = 64 * 1024;
/// Size of each per-thread log puddle.
pub const LOG_PUDDLE_SIZE: u64 = 4 * 1024 * 1024;
/// Floor on the spare-log cache capacity: even a client that has never
/// chained parks a couple of puddles (a new thread log, a first chain
/// extension).
pub const SPARE_LOG_CACHE_MIN: usize = 2;
/// Ceiling on the spare-log cache capacity, bounding what an idle client
/// pins no matter how deep its transactions chain.
pub const SPARE_LOG_CACHE_MAX: usize = 16;

/// Spare log puddles a client parks for reuse instead of freeing.
///
/// Chained transactions release one tail per extension, so the useful
/// capacity tracks the deepest chain this client has built: a fixed small
/// cache makes chain-heavy transactions round-trip to the daemon for most
/// of their tails, while a fixed large one pins puddles a chain-free client
/// never uses. `depth_hwm` is the high-water mark of observed chain indexes
/// (0 until the first chain extension).
fn spare_capacity_for(depth_hwm: usize) -> usize {
    depth_hwm.clamp(SPARE_LOG_CACHE_MIN, SPARE_LOG_CACHE_MAX)
}

/// A connection to the Puddles daemon plus per-client state.
///
/// Cloning the client clones a handle to the same connection.
#[derive(Clone)]
pub struct PuddleClient {
    pub(crate) inner: Arc<ClientInner>,
}

pub(crate) struct ClientInner {
    endpoint: Box<dyn Endpoint>,
    pub(crate) gspace: Arc<GlobalSpace>,
    pub(crate) types: Mutex<TypeRegistry>,
    registered_types: Mutex<HashSet<u64>>,
    logging: Mutex<LoggingState>,
    /// Per-thread cached logs; read-locked on the transaction fast path so
    /// concurrent transactions on different threads never serialize here.
    /// Each entry's own lock is only ever taken by its thread, for the
    /// length of a transaction: it is what lets that thread mutate the
    /// entry while the map is shared.
    thread_logs: RwLock<HashMap<ThreadId, Arc<Mutex<ThreadLog>>>>,
    /// Size of log puddles this client requests ([`LOG_PUDDLE_SIZE`] unless
    /// overridden); applies to thread logs and chained segments alike.
    log_puddle_size: std::sync::atomic::AtomicU64,
    /// Spare log puddles parked for reuse (still mapped, unregistered from
    /// the log space): a chained commit/abort parks its tail here instead of
    /// `FreePuddle`-ing it, and the next segment acquisition — a chain
    /// extension or a new thread log — skips the daemon round trip *and*
    /// the mmap. Freed for real when the client drops.
    spare_logs: Mutex<Vec<PuddleInfo>>,
    /// Deepest chain index this client has registered (0 until the first
    /// chain extension); sizes the spare-log cache adaptively — see
    /// [`spare_capacity_for`].
    chain_depth_hwm: std::sync::atomic::AtomicUsize,
    /// Client-local observability counters (retries, reconnects, pipeline
    /// depth), shared with the endpoint; all-zero for in-process endpoints.
    client_metrics: Arc<ClientMetrics>,
}

#[derive(Default)]
struct LoggingState {
    logspace: Option<MappedLogSpace>,
    next_log_id: u64,
}

struct MappedLogSpace {
    #[allow(dead_code)]
    info: PuddleInfo,
    ls: LogSpaceRef,
}

/// One thread's cached log and the per-transaction state that is cleared,
/// not rebuilt, from one transaction to the next. The owning thread is the
/// only one that looks its entry up and holds the entry's lock for the
/// length of a transaction; the mapping lives for the client's lifetime.
pub(crate) struct ThreadLog {
    #[allow(dead_code)]
    info: PuddleInfo,
    /// The log-space `log_id` this thread's log was registered under; chain
    /// segments added mid-transaction register under the same id with
    /// ascending `chain_index`.
    pub(crate) log_id: u64,
    /// Writer over the thread's log puddle. Whether the log is armed — its
    /// next transaction starts without a header write — is this writer's
    /// DRAM state, so it lives and dies with the entry.
    pub(crate) writer: LogWriter,
    /// Undo-logged ranges of the open transaction.
    pub(crate) undo_set: IntervalSet,
}

impl PuddleClient {
    /// Connects to an in-process daemon with this process's credentials.
    pub fn connect_local(daemon: &Daemon) -> Result<Self> {
        Self::connect_local_as(daemon, Credentials::current_process())
    }

    /// Connects to an in-process daemon presenting explicit credentials
    /// (used by tests to model multiple users).
    pub fn connect_local_as(daemon: &Daemon, creds: Credentials) -> Result<Self> {
        let endpoint = Box::new(daemon.endpoint(creds));
        let gspace = daemon.global_space();
        Self::finish_connect(
            endpoint,
            Some(gspace),
            creds,
            Arc::new(ClientMetrics::default()),
        )
    }

    /// Connects to a daemon over its UNIX-domain socket (requests carry
    /// ids, dozens may be in flight per connection, responses pair by id).
    ///
    /// The client reserves the global puddle space at the base address the
    /// daemon reports; if that address range is unavailable in this process
    /// the connection fails (native pointers require the same base in every
    /// process of the "machine").
    pub fn connect_uds(path: impl AsRef<Path>) -> Result<Self> {
        let creds = Credentials::current_process();
        let metrics = Arc::new(ClientMetrics::default());
        let endpoint = Box::new(
            PipelinedEndpoint::new(path.as_ref(), RetryPolicy::default())
                .with_client_metrics(Arc::clone(&metrics)),
        );
        Self::finish_connect(endpoint, None, creds, metrics)
    }

    /// Connects over the UNIX-domain socket while sharing an existing
    /// global-space reservation.
    ///
    /// Needed when the daemon runs in the *same process* as the client (the
    /// daemon already reserved the global space, so the client cannot
    /// reserve it again); out-of-process clients use
    /// [`PuddleClient::connect_uds`].
    pub fn connect_uds_shared(path: impl AsRef<Path>, space: Arc<GlobalSpace>) -> Result<Self> {
        Self::connect_uds_shared_tuned(path, space, RetryPolicy::default())
    }

    /// [`PuddleClient::connect_uds_shared`] under an explicit retry/backoff
    /// policy (governing connection dials and idempotent re-sends).
    pub fn connect_uds_shared_tuned(
        path: impl AsRef<Path>,
        space: Arc<GlobalSpace>,
        retry: RetryPolicy,
    ) -> Result<Self> {
        let creds = Credentials::current_process();
        let metrics = Arc::new(ClientMetrics::default());
        let endpoint = Box::new(
            PipelinedEndpoint::new(path.as_ref(), retry).with_client_metrics(Arc::clone(&metrics)),
        );
        Self::finish_connect(endpoint, Some(space), creds, metrics)
    }

    fn finish_connect(
        endpoint: Box<dyn Endpoint>,
        shared_space: Option<Arc<GlobalSpace>>,
        creds: Credentials,
        client_metrics: Arc<ClientMetrics>,
    ) -> Result<Self> {
        let resp = endpoint.call(&Request::hello(creds))?.into_result()?;
        let (space_base, space_size) = match resp {
            Response::Welcome {
                space_base,
                space_size,
                ..
            } => (space_base, space_size),
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        let gspace = match shared_space {
            Some(space) => space,
            None => {
                let space = GlobalSpace::reserve(Some(space_base as usize), space_size as usize)
                    .map_err(Error::from)?;
                if space.base() as u64 != space_base {
                    return Err(Error::UnexpectedResponse(format!(
                        "cannot reserve global puddle space at {space_base:#x} (got {:#x})",
                        space.base()
                    )));
                }
                Arc::new(space)
            }
        };
        Ok(PuddleClient {
            inner: Arc::new(ClientInner {
                endpoint,
                gspace,
                types: Mutex::new(TypeRegistry::new()),
                registered_types: Mutex::new(HashSet::new()),
                logging: Mutex::new(LoggingState::default()),
                thread_logs: RwLock::new(HashMap::new()),
                log_puddle_size: std::sync::atomic::AtomicU64::new(LOG_PUDDLE_SIZE),
                spare_logs: Mutex::new(Vec::new()),
                chain_depth_hwm: std::sync::atomic::AtomicUsize::new(0),
                client_metrics,
            }),
        })
    }

    /// Overrides the size of log puddles this client creates (thread logs
    /// and chain segments). Mainly a test/bench knob: small segments make
    /// the chaining path cheap to exercise. Takes effect for puddles
    /// created after the call; clamped to a workable minimum.
    pub fn set_log_puddle_size(&self, bytes: u64) {
        self.inner
            .log_puddle_size
            .store(bytes.max(16 * 1024), std::sync::atomic::Ordering::Relaxed);
    }

    /// Creates a pool with the given options.
    pub fn create_pool(&self, name: &str, options: PoolOptions) -> Result<Pool> {
        let resp = self.inner.call(&Request::CreatePool {
            name: name.to_string(),
            root_size: options.puddle_size,
            mode: options.mode,
        })?;
        let info = expect_pool(resp)?;
        Pool::from_info(self.inner.clone(), info, options)
    }

    /// Opens an existing pool.
    pub fn open_pool(&self, name: &str) -> Result<Pool> {
        self.open_pool_with(name, PoolOptions::default())
    }

    /// Opens an existing pool with explicit options.
    pub fn open_pool_with(&self, name: &str, options: PoolOptions) -> Result<Pool> {
        let resp = self.inner.call(&Request::OpenPool {
            name: name.to_string(),
        })?;
        let info = expect_pool(resp)?;
        Pool::from_info(self.inner.clone(), info, options)
    }

    /// Opens the pool if it exists, creating it otherwise.
    pub fn open_or_create_pool(&self, name: &str, options: PoolOptions) -> Result<Pool> {
        match self.open_pool_with(name, options.clone()) {
            Ok(pool) => Ok(pool),
            Err(Error::Daemon(e)) if e.code == puddles_proto::ErrorCode::NotFound => {
                self.create_pool(name, options)
            }
            Err(e) => Err(e),
        }
    }

    /// Deletes a pool and all of its puddles.
    pub fn drop_pool(&self, name: &str) -> Result<()> {
        self.inner.call(&Request::DropPool {
            name: name.to_string(),
        })?;
        Ok(())
    }

    /// Exports a pool (raw in-memory representation plus manifest) to a
    /// directory, so it can be shipped to another machine or re-imported as
    /// a copy.
    pub fn export_pool(&self, name: &str, dest: impl AsRef<Path>) -> Result<()> {
        self.inner.call(&Request::ExportPool {
            name: name.to_string(),
            dest: dest.as_ref().to_string_lossy().into_owned(),
        })?;
        Ok(())
    }

    /// Imports a previously exported pool under a new name and opens it.
    ///
    /// Conflicting addresses are resolved by the daemon; pointers are
    /// rewritten incrementally as the imported puddles are mapped.
    pub fn import_pool(&self, src: impl AsRef<Path>, new_name: &str) -> Result<Pool> {
        let resp = self.inner.call(&Request::ImportPool {
            src: src.as_ref().to_string_lossy().into_owned(),
            new_name: new_name.to_string(),
        })?;
        let info = match resp {
            Response::Imported { pool, .. } => pool,
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        Pool::from_info(self.inner.clone(), info, PoolOptions::default())
    }

    /// Runs a failure-atomic transaction (the Rust spelling of
    /// `TX_BEGIN(pool) { ... } TX_END`).
    ///
    /// Unlike PMDK, the transaction may modify data in *any* pool opened by
    /// this client (cross-pool transactions, §3.6).
    pub fn tx<R>(&self, body: impl FnOnce(&mut Transaction<'_>) -> Result<R>) -> Result<R> {
        tx::run_tx(&self.inner, body)
    }

    /// Registers a persistent type's pointer map with the daemon (done
    /// automatically on first allocation of the type).
    pub fn register_type<T: PmType>(&self) -> Result<()> {
        self.inner.register_type::<T>()
    }

    /// Asks the daemon to run a recovery pass now.
    pub fn recover(&self) -> Result<RecoveryReport> {
        match self.inner.call(&Request::Recover)? {
            Response::Recovered(report) => Ok(report),
            other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches daemon statistics.
    pub fn stats(&self) -> Result<puddles_proto::DaemonStats> {
        match self.inner.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the daemon's metrics report: latency-series quantiles
    /// (service, WAL flush, checkpoint, coalesce) plus counters.
    pub fn metrics(&self) -> Result<puddles_proto::MetricsReport> {
        match self.inner.call(&Request::GetMetrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// This client's local observability counters (retry attempts,
    /// reconnects, pipelined in-flight high-water), in the same report
    /// shape as [`PuddleClient::metrics`]. Purely local — no round trip.
    pub fn client_metrics(&self) -> puddles_proto::MetricsReport {
        self.inner.client_metrics.report()
    }

    /// A no-op round trip to the daemon (used to measure daemon latency).
    pub fn ping(&self) -> Result<()> {
        self.inner.call(&Request::Ping)?;
        Ok(())
    }

    /// Base address of the global puddle space.
    pub fn space_base(&self) -> u64 {
        self.inner.gspace.base() as u64
    }
}

fn expect_pool(resp: Response) -> Result<PoolInfo> {
    match resp {
        Response::Pool(info) => Ok(info),
        other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
    }
}

impl ClientInner {
    /// Sends one request, converting daemon errors.
    pub(crate) fn call(&self, req: &Request) -> Result<Response> {
        Ok(self.endpoint.call(req)?.into_result()?)
    }

    /// Fetches puddle metadata, asking for write access when possible and
    /// falling back to read-only access.
    pub(crate) fn get_puddle(&self, id: PuddleId) -> Result<PuddleInfo> {
        match self.call(&Request::GetPuddle { id, writable: true }) {
            Ok(Response::Puddle(info)) => Ok(info),
            Ok(other) => Err(Error::UnexpectedResponse(format!("{other:?}"))),
            Err(Error::Daemon(e)) if e.code == puddles_proto::ErrorCode::PermissionDenied => {
                match self.call(&Request::GetPuddle {
                    id,
                    writable: false,
                })? {
                    Response::Puddle(info) => Ok(info),
                    other => Err(Error::UnexpectedResponse(format!("{other:?}"))),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Maps a puddle into the global space, returning its base address.
    pub(crate) fn map_puddle_raw(&self, info: &PuddleInfo) -> Result<usize> {
        let file = OpenOptions::new()
            .read(true)
            .write(info.writable)
            .open(&info.path)
            .map_err(Error::Io)?;
        let offset = (info.assigned_addr - self.gspace.base() as u64) as usize;
        Ok(self
            .gspace
            .map_puddle(&file, offset, info.size as usize, info.writable)?)
    }

    /// Releases one mapping reference for a puddle.
    pub(crate) fn unmap_puddle(&self, info: &PuddleInfo) {
        let offset = (info.assigned_addr - self.gspace.base() as u64) as usize;
        // SAFETY: callers only unmap when they hold the last user of their
        // mapping and no references into it remain (MappedPuddle::drop).
        unsafe {
            let _ = self.gspace.unmap_puddle(offset);
        }
    }

    /// Registers a persistent type once per client.
    pub(crate) fn register_type<T: PmType>(&self) -> Result<()> {
        self.register_decl(T::decl())
    }

    pub(crate) fn register_decl(&self, decl: puddles_proto::PtrMapDecl) -> Result<()> {
        {
            let mut types = self.types.lock();
            types.insert(decl.clone());
        }
        let mut registered = self.registered_types.lock();
        if registered.insert(decl.type_id) {
            self.call(&Request::RegisterPtrMap { decl })?;
        }
        Ok(())
    }

    /// Returns a merged view of locally declared and daemon-registered
    /// pointer maps (needed to rewrite imported data of foreign types).
    pub(crate) fn merged_types(&self) -> Result<TypeRegistry> {
        let mut merged = self.types.lock().clone();
        if let Response::PtrMaps(maps) = self.call(&Request::GetPtrMaps)? {
            merged.merge(maps);
        }
        Ok(merged)
    }

    /// Current log-puddle size (thread logs and chain segments).
    pub(crate) fn log_puddle_size(&self) -> u64 {
        self.log_puddle_size
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns this thread's cached log, creating the log space and the log
    /// puddle on first use.
    pub(crate) fn thread_log(&self) -> Result<Arc<Mutex<ThreadLog>>> {
        let tid = std::thread::current().id();
        // Fast path: a shared read lock, so transactions on different
        // threads acquire their cached logs in parallel.
        if let Some(tl) = self.thread_logs.read().get(&tid) {
            return Ok(Arc::clone(tl));
        }
        // Slow path: make sure the log space exists, then create a log
        // puddle for this thread. A recycled spare already carries an
        // initialized log whose generation must keep counting up (init
        // would rewind it to 0, re-exposing stale same-generation entries);
        // reset bumps it instead. Either way the new writer is unarmed: the
        // thread's first transaction starts with a fenced header write.
        let log_id = self.ensure_logspace()?;
        let (info, log) = self.acquire_log_segment()?;
        if log.is_initialized() {
            log.reset();
        } else {
            log.init();
        }
        self.register_log_segment(&info, log_id, 0)?;
        let tl = Arc::new(Mutex::new(ThreadLog {
            info,
            log_id,
            writer: LogWriter::new(log),
            undo_set: IntervalSet::new(),
        }));
        self.thread_logs.write().insert(tid, Arc::clone(&tl));
        Ok(tl)
    }

    /// Provides one mapped log puddle — a parked spare when one fits, a
    /// fresh daemon allocation otherwise — returning its metadata and a log
    /// view over its heap. The caller initializes/resets the log and
    /// registers the puddle in the log space (thread logs at `chain_index`
    /// 0, mid-transaction chain segments at the next index).
    pub(crate) fn acquire_log_segment(&self) -> Result<(PuddleInfo, LogRef)> {
        // Reuse a spare of the current size: no daemon round trip, no mmap
        // (the spare kept its mapping reference). A spare of the wrong size
        // (the log-puddle-size knob moved) is freed for real instead.
        while let Some(info) = self.spare_logs.lock().pop() {
            if info.size == self.log_puddle_size() {
                // SAFETY: the spare's mapping reference was retained when it
                // was parked (`release_log_segment`), so `assigned_addr` is
                // still a live writable mapping of `info.size` bytes.
                let log = unsafe {
                    LogRef::from_raw(
                        (info.assigned_addr as usize + LOG_REGION_OFFSET) as *mut u8,
                        info.size as usize - LOG_REGION_OFFSET,
                    )
                };
                return Ok((info, log));
            }
            self.free_log_segment(&info);
        }
        let info = match self.call(&Request::CreatePuddle {
            size: self.log_puddle_size(),
            pool: None,
            purpose: PuddlePurpose::Log,
            mode: 0o600,
        })? {
            Response::Puddle(info) => info,
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        let addr = self.map_puddle_raw(&info)?;
        // SAFETY: the puddle was just mapped writable for `info.size` bytes;
        // it stays mapped until `free_log_segment` (chain tails, spares) or
        // for the client's lifetime (thread logs).
        let log = unsafe {
            LogRef::from_raw(
                (addr + LOG_REGION_OFFSET) as *mut u8,
                info.size as usize - LOG_REGION_OFFSET,
            )
        };
        Ok((info, log))
    }

    /// Durably records a chained log segment in the client's log space under
    /// `log_id` at `chain_index` (the slot write is persisted and fenced
    /// before this returns, so recovery can find the tail before any entry
    /// lands in it).
    pub(crate) fn register_log_segment(
        &self,
        info: &PuddleInfo,
        log_id: u64,
        chain_index: u32,
    ) -> Result<()> {
        if chain_index > 0 {
            // Observed chain depth feeds the spare-cache capacity: a client
            // that chains to depth d wants ~d parked tails.
            self.chain_depth_hwm
                .fetch_max(chain_index as usize, std::sync::atomic::Ordering::Relaxed);
        }
        let logging = self.logging.lock();
        match &logging.logspace {
            Some(ls) => ls
                .ls
                .register(info.id.0, log_id, chain_index)
                .map_err(Error::from),
            None => Err(Error::Corruption(
                "chain extension without a registered log space".into(),
            )),
        }
    }

    /// Releases a chain segment after the transaction resolved: removes its
    /// log-space slot (durably, so recovery never chases a freed puddle),
    /// then **parks** the puddle in the spare cache — still mapped — for the
    /// next chain extension or thread log, rather than `FreePuddle`-ing it.
    /// Chain-heavy transactions would otherwise pay a daemon round trip +
    /// file create + mmap *per extension, per transaction* (the ~2x
    /// chained-vs-single gap in `tx_1MiB_undo_MBps`). With the cache full
    /// (or the segment size stale) the puddle is freed for real.
    ///
    /// A parked spare is unreachable by recovery (no log-space slot) and
    /// already reset by `LogWriter::reset`, so it holds nothing replayable;
    /// if the client dies while holding spares, the daemon's startup sweep
    /// of unreferenced log puddles reclaims them.
    pub(crate) fn release_log_segment(&self, info: &PuddleInfo) {
        {
            let logging = self.logging.lock();
            if let Some(ls) = &logging.logspace {
                ls.ls.unregister(info.id.0);
            }
        }
        if info.size == self.log_puddle_size() {
            let capacity = spare_capacity_for(
                self.chain_depth_hwm
                    .load(std::sync::atomic::Ordering::Relaxed),
            );
            let mut spares = self.spare_logs.lock();
            if spares.len() < capacity {
                spares.push(info.clone());
                return;
            }
        }
        self.free_log_segment(info);
    }

    /// Actually returns a log puddle to the daemon: drops the mapping
    /// reference and frees the puddle. Best-effort — a failure leaves a
    /// benign orphan that the daemon's startup reclamation sweeps.
    fn free_log_segment(&self, info: &PuddleInfo) {
        self.unmap_puddle(info);
        let _ = self.call(&Request::FreePuddle { id: info.id });
    }

    fn ensure_logspace(&self) -> Result<u64> {
        let mut logging = self.logging.lock();
        if logging.logspace.is_none() {
            let info = match self.call(&Request::CreatePuddle {
                size: LOGSPACE_PUDDLE_SIZE,
                pool: None,
                purpose: PuddlePurpose::LogSpace,
                mode: 0o600,
            })? {
                Response::Puddle(info) => info,
                other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
            };
            if failpoint::should_fail(failpoint::names::LOGSPACE_ALLOC_CRASH) {
                // Crash window: the LogSpace puddle exists daemon-side but
                // carries no LogSpaceRecord yet — only the daemon's startup
                // sweep of unregistered LogSpace puddles can reclaim it.
                return Err(Error::CrashInjected(failpoint::names::LOGSPACE_ALLOC_CRASH));
            }
            let addr = self.map_puddle_raw(&info)?;
            // SAFETY: mapped writable just above; stays mapped for the
            // client's lifetime.
            let ls = unsafe {
                LogSpaceRef::from_raw(
                    (addr + LOG_REGION_OFFSET) as *mut u8,
                    info.size as usize - LOG_REGION_OFFSET,
                )
            };
            ls.init();
            self.call(&Request::RegLogSpace { puddle: info.id })?;
            logging.logspace = Some(MappedLogSpace { info, ls });
        }
        logging.next_log_id += 1;
        Ok(logging.next_log_id)
    }
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // The spare-log cache lives exactly as long as the client: on
        // disconnect the parked puddles go back to the daemon (best-effort
        // — if the daemon is already gone, its next startup sweep reclaims
        // them as unreferenced log puddles).
        let spares = std::mem::take(&mut *self.spare_logs.lock());
        for info in &spares {
            self.free_log_segment(info);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spare_capacity_tracks_chain_depth() {
        // Below the floor (chain-free clients, shallow chains).
        assert_eq!(spare_capacity_for(0), SPARE_LOG_CACHE_MIN);
        assert_eq!(spare_capacity_for(1), SPARE_LOG_CACHE_MIN);
        // Tracking observed depth in the adaptive band.
        assert_eq!(spare_capacity_for(3), 3);
        assert_eq!(spare_capacity_for(9), 9);
        // Capped at the ceiling.
        assert_eq!(
            spare_capacity_for(SPARE_LOG_CACHE_MAX + 50),
            SPARE_LOG_CACHE_MAX
        );
    }
}
