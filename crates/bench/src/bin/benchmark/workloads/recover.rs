//! `recover`: application-independent recovery, the paper's title feature.
//!
//! Every round builds a crash state in a fresh PM directory — not timed,
//! reported under `setup_s` — and then times the two things a machine pays
//! after a power failure: starting the daemon (`puddled::registry` and
//! `wal` load, the start-up sweeps) and one recovery pass
//! (`puddled::recovery` mapping the writers' puddles and
//! `logfmt::replay_chain` rolling each crashed transaction back or
//! forward). The writers are gone by then: every client, pool handle and the
//! old daemon are dropped before the restart. A handle that leaks keeps the
//! old space reservation alive, the restarted daemon lands on another base,
//! relocates every puddle, and recovery *denies* every entry.

use super::{service_series, Ctx, Metrics, Verdict, Window, Workload};
use crate::env::DirGuard;
use crate::probes::Probe;
use crate::stats::{self, process_cpu_ns};
use crate::trace::Tracer;
use puddled::{Daemon, DaemonConfig};
use puddles::{impl_pm_type, PmPtr, Pool, PoolOptions, PuddleClient};
use puddles_pmem::failpoint;
use puddles_proto::{DaemonStats, MetricsReport};
use std::path::PathBuf;
use std::time::Instant;

/// Size of one logged entry.
const ENTRY: usize = 4096;
/// Filler pools are as small as a pool gets: they are registry and mapping
/// load for restart and recovery, not data.
const FILLER_PUDDLE: u64 = 64 * 1024;

/// Root object of a client's data pool.
#[repr(C)]
struct RecoverRoot {
    region: PmPtr<u8>,
    len: u64,
}
impl_pm_type!(RecoverRoot, "benchmark::recover::RecoverRoot", [region => ()]);

/// Byte a client's region holds before its crashed transaction...
fn before(client: usize) -> u8 {
    0x10 + client as u8
}

/// ...and the byte that transaction was writing.
fn after(client: usize) -> u8 {
    0xA0 + client as u8
}

/// The first half of the clients crash with only undo entries durable and
/// must roll back; the second half redo-log and crash after the range
/// switched to the redo stage, and must roll forward.
fn rolls_forward(client: usize, clients: usize) -> bool {
    client >= clients / 2
}

pub struct Recover {
    base: PathBuf,
    clients: usize,
    fillers: usize,
    entries: usize,
    expected_entries: u64,
    rounds: u64,
    restart_ns: Vec<u64>,
    recover_ns: Vec<u64>,
    entries_applied: u64,
    last_stats: DaemonStats,
    last_report: MetricsReport,
    _dir: DirGuard,
}

impl Recover {
    /// Makes every round's check expect an entry recovery never applied.
    #[cfg(test)]
    pub fn corrupt_expectation(&mut self) {
        self.expected_entries += 1;
    }

    /// Builds the crash state: `clients` writers, each with a data pool and
    /// `fillers` filler pools, each dying inside a transaction of `entries`
    /// 4 KiB entries. Everything is dropped on return.
    ///
    /// All pools are created first and all data is written afterwards. The
    /// PM root is a journalling filesystem: each pool created costs two
    /// `fsync`s, and an `fsync` first writes out whatever mapped data is
    /// dirty. With pool creation *between* the writers' transactions the
    /// round's set-up time spread twice as far from run to run (28 %
    /// against 14 % interquartile range, interleaved runs).
    fn crash(&self, config: &DaemonConfig) {
        let daemon = Daemon::start(config.clone()).expect("start daemon");
        let len = self.entries * ENTRY;
        let mut writers: Vec<(PuddleClient, Vec<Pool>, usize)> = Vec::new();
        for c in 0..self.clients {
            let client = PuddleClient::connect_local(&daemon).expect("connect");
            let data = client
                .create_pool(&format!("data{c}"), PoolOptions::default())
                .expect("create data pool");
            // The client's first transaction: also creates its log space
            // and its log puddle.
            let region = data
                .tx(|tx| {
                    let region = data.alloc_raw(tx, len, 0)?;
                    data.create_root(
                        tx,
                        RecoverRoot {
                            region: PmPtr::from_addr(region as u64),
                            len: len as u64,
                        },
                    )?;
                    Ok(region)
                })
                .expect("allocate region");
            let mut pools = vec![data];
            for f in 0..self.fillers {
                let options = PoolOptions::default().puddle_size(FILLER_PUDDLE);
                pools.push(
                    client
                        .create_pool(&format!("filler{c}_{f}"), options)
                        .expect("create filler pool"),
                );
            }
            writers.push((client, pools, region));
        }

        for (c, (client, _pools, region)) in writers.iter().enumerate() {
            let region = *region;
            // SAFETY: `region` is the `len` writable bytes allocated above.
            unsafe { std::ptr::write_bytes(region as *mut u8, before(c), len) };
            puddles_pmem::persist::persist(region as *const u8, len);

            let forward = rolls_forward(c, self.clients);
            let point = if forward {
                failpoint::names::COMMIT_BEFORE_REDO_APPLY
            } else {
                failpoint::names::COMMIT_AFTER_UNDO_FLUSH
            };
            failpoint::arm_scoped(point, 0);
            let payload = [after(c); ENTRY];
            let outcome = client.tx(|tx| {
                for entry in 0..self.entries {
                    let addr = region + entry * ENTRY;
                    if forward {
                        tx.redo_set_bytes(addr, &payload)?;
                    } else {
                        tx.add_range(addr, ENTRY)?;
                        // SAFETY: inside the region and undo-logged on the
                        // line before.
                        unsafe { std::ptr::write_bytes(addr as *mut u8, after(c), ENTRY) };
                    }
                }
                Ok(())
            });
            failpoint::clear_current_thread();
            assert!(
                outcome.is_err_and(|e| e.is_injected_crash()),
                "client {c} did not crash at {point}"
            );
        }
    }
}

impl Workload for Recover {
    const PROBES: &'static [Probe] = &[Probe::LogReplay];

    fn setup(ctx: &Ctx<'_>, _seed: u64) -> Self {
        let dir = ctx.root.fresh_dir("recover");
        let clients = ctx.pick(8, 2);
        let entries = ctx.pick(512, 8);
        Recover {
            base: dir.clone(),
            clients,
            fillers: ctx.pick(50, 3),
            entries,
            expected_entries: (clients * entries) as u64,
            rounds: 0,
            restart_ns: Vec::new(),
            recover_ns: Vec::new(),
            entries_applied: 0,
            last_stats: DaemonStats::default(),
            last_report: MetricsReport::default(),
            _dir: DirGuard(dir),
        }
    }

    /// One round: crash (untimed), restart, recover, check.
    fn window(&mut self, tracer: &mut Tracer) -> Window {
        let p0 = Instant::now();
        let round_dir = DirGuard(self.base.join(format!("round{}", self.rounds)));
        self.rounds += 1;
        let config = DaemonConfig::for_testing(&round_dir.0);
        self.crash(&config);
        let prep_ns = p0.elapsed().as_nanos() as u64;

        tracer.next_op();
        let cpu0 = process_cpu_ns();
        let r0 = Instant::now();
        let daemon = tracer.span("puddled.restart", 1, |_| {
            Daemon::start(config.clone().no_auto_recover()).expect("restart daemon")
        });
        let restart_ns = r0.elapsed().as_nanos() as u64;
        let client = PuddleClient::connect_local(&daemon).expect("connect");
        let v0 = Instant::now();
        let report = tracer
            .span("puddled.recover", 1, |_| client.recover())
            .expect("recovery pass");
        let recover_ns = v0.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu0;
        self.restart_ns.push(restart_ns);
        self.recover_ns.push(recover_ns);
        self.entries_applied = report.entries_applied;

        let mut verdict = Verdict::default();
        let logs = self.clients as u64;
        verdict.check(report.logs == logs, || {
            format!("recovery saw {} logs, expected {logs}", report.logs)
        });
        verdict.check(report.entries_applied == self.expected_entries, || {
            format!(
                "recovery applied {} entries, expected {}",
                report.entries_applied, self.expected_entries
            )
        });
        verdict.check(report.entries_denied == 0, || {
            format!("recovery denied {} entries", report.entries_denied)
        });
        for c in 0..self.clients {
            let want = if rolls_forward(c, self.clients) {
                after(c)
            } else {
                before(c)
            };
            let pool = client
                .open_pool(&format!("data{c}"))
                .expect("open data pool");
            let root: PmPtr<RecoverRoot> = pool.root().expect("root object");
            let root = pool.deref(root).expect("root mapped");
            let (addr, len) = (root.region.addr(), root.len as usize);
            pool.ensure_mapped(addr).expect("region mapped");
            // SAFETY: the region is `len` mapped bytes of this pool and
            // nothing writes it while the slice is alive.
            let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, len) };
            verdict.check(
                len == self.entries * ENTRY && bytes.iter().all(|&b| b == want),
                || format!("region of client {c} is not bit-identical to {want:#04x}"),
            );
        }
        verdict.invariants(&daemon);
        self.last_stats = client.stats().expect("daemon stats");
        self.last_report = client.metrics().expect("daemon metrics");
        drop((client, daemon));

        Window {
            ops: logs,
            failed: verdict.failed,
            wall_ns: restart_ns + recover_ns,
            cpu_ns,
            prep_ns,
            // One sample per crashed log: the time the round took to resolve it.
            lat_ns: vec![(restart_ns + recover_ns) / logs; logs as usize],
        }
    }

    fn begin_measure(&mut self) {
        self.restart_ns.clear();
        self.recover_ns.clear();
    }

    fn layer_metrics(&mut self, _tracer: &Tracer, out: &mut Metrics) {
        let restart_ms = stats::p50(&mut self.restart_ns) as f64 / 1e6;
        let recover_ms = stats::p50(&mut self.recover_ns) as f64 / 1e6;
        out.insert("puddled.restart_ms", restart_ms);
        out.insert("puddled.recover_ms", recover_ms);
        let puddles = self.last_stats.puddles as f64;
        out.insert(
            "puddled.registry.load_ms_per_1k_puddles",
            restart_ms / (puddles / 1e3).max(f64::MIN_POSITIVE),
        );
        // Each log is replayed against every puddle its writer could write,
        // which for one user is the whole registry.
        out.insert("puddled.recovery.puddles_per_log", puddles);
        out.insert(
            "puddled.recovery.entries_per_s",
            self.entries_applied as f64 / (recover_ms / 1e3).max(f64::MIN_POSITIVE),
        );
        service_series(&self.last_report, out);
        out.insert(
            "puddled.alloc.fragmentation_bp",
            self.last_stats.fragmentation_bp as f64,
        );
    }

    /// The checks ran round by round, and each round's window has
    /// reported its own failures.
    fn finish(self) -> Verdict {
        Verdict::default()
    }
}
