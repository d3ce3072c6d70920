//! `tx_large`: one 1 MiB transaction after another.
//!
//! Each transaction undo-logs 64 ranges of 16 KiB and overwrites them, with
//! log puddles of 256 KiB, so every transaction chains five log segments.
//! The same `core::tx` / `logfmt` / `pmem` layers as `kv_update`, used for
//! bandwidth instead of per-operation overhead, plus the log-chaining path
//! and the client's spare-log cache, which is what keeps the daemon out of
//! the steady state.

use super::{served, Ctx, Metrics, Verdict, Window, Workload};
use crate::env::DirGuard;
use crate::probes::Probe;
use crate::stats::process_cpu_ns;
use crate::trace::Tracer;
use puddled::{Daemon, DaemonConfig};
use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
use std::time::Instant;

const POOL: &str = "bench_tx_large";
const CHUNK: usize = 16 * 1024;
const CHUNKS: usize = 64;
const REGION: usize = CHUNK * CHUNKS;
const LOG_SEGMENT: u64 = 256 * 1024;

/// Root object: where the region the transactions overwrite lives.
#[repr(C)]
struct LargeRoot {
    region: PmPtr<u8>,
    len: u64,
}
impl_pm_type!(LargeRoot, "benchmark::tx_large::LargeRoot", [region => ()]);

/// Daemon requests a log-chaining transaction can cause.
const CHAIN_CALLS: [&str; 3] = [
    "service.CreatePuddle",
    "service.FreePuddle",
    "service.RegLogSpace",
];

pub struct TxLarge {
    pool: puddles::Pool,
    client: PuddleClient,
    daemon: Daemon,
    config: DaemonConfig,
    region: usize,
    window_txs: u64,
    txs_run: u64,
    /// Fill byte of each chunk after the last committed transaction.
    expected: [u8; CHUNKS],
    chain_segments: usize,
    chain_calls_at_start: u64,
    txs_at_start: u64,
    _dir: DirGuard,
}

impl TxLarge {
    fn chain_calls(&self) -> u64 {
        let report = self.client.metrics().expect("daemon metrics");
        CHAIN_CALLS.iter().map(|kind| served(&report, kind)).sum()
    }

    /// Makes the final check expect bytes the region does not hold.
    #[cfg(test)]
    pub fn corrupt_expectation(&mut self) {
        self.expected[CHUNKS - 1] ^= 1;
    }
}

fn open_region(client: &PuddleClient) -> (puddles::Pool, usize) {
    let pool = client.open_pool(POOL).expect("open pool");
    let root: PmPtr<LargeRoot> = pool.root().expect("root object");
    let root = pool.deref(root).expect("root mapped");
    assert_eq!(root.len as usize, REGION);
    let region = root.region.addr() as usize;
    pool.ensure_mapped(region as u64).expect("region mapped");
    (pool, region)
}

impl Workload for TxLarge {
    const PROBES: &'static [Probe] = &[Probe::LogAppendLarge, Probe::Persist];

    fn setup(ctx: &Ctx<'_>, _seed: u64) -> Self {
        let dir = ctx.root.fresh_dir("txl");
        let config = DaemonConfig::for_testing(&dir);
        let daemon = Daemon::start(config.clone()).expect("start daemon");
        let client = PuddleClient::connect_local(&daemon).expect("connect");
        client.set_log_puddle_size(LOG_SEGMENT);
        let pool = client
            .create_pool(POOL, PoolOptions::default())
            .expect("create pool");
        let region = pool
            .tx(|tx| {
                let region = pool.alloc_raw(tx, REGION, 0)?;
                // SAFETY: a fresh allocation of REGION writable bytes.
                unsafe { std::ptr::write_bytes(region as *mut u8, 0, REGION) };
                pool.create_root(
                    tx,
                    LargeRoot {
                        region: PmPtr::from_addr(region as u64),
                        len: REGION as u64,
                    },
                )?;
                Ok(region)
            })
            .expect("allocate region");
        TxLarge {
            pool,
            client,
            daemon,
            config,
            region,
            window_txs: ctx.pick(80, 2),
            txs_run: 0,
            expected: [0; CHUNKS],
            chain_segments: 0,
            chain_calls_at_start: 0,
            txs_at_start: 0,
            _dir: DirGuard(dir),
        }
    }

    fn window(&mut self, tracer: &mut Tracer) -> Window {
        let mut lat_ns = Vec::with_capacity(self.window_txs as usize);
        let mut failed = 0u64;
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        for _ in 0..self.window_txs {
            tracer.next_op();
            let fill = |chunk: usize| (self.txs_run as usize + chunk) as u8;
            let region = self.region;
            let mut segments = 0;
            let op0 = Instant::now();
            let result = tracer.span("core.tx", 1, |tracer| {
                self.client.tx(|tx| {
                    tracer.span("core.tx.body", 1, |tracer| {
                        for chunk in 0..CHUNKS {
                            let addr = region + chunk * CHUNK;
                            tracer.span("core.tx.add_16KiB", 1, |_| tx.add_range(addr, CHUNK))?;
                            // SAFETY: `addr..addr + CHUNK` lies inside the
                            // region allocated in `setup`, mapped writable,
                            // and was undo-logged just above.
                            unsafe { std::ptr::write_bytes(addr as *mut u8, fill(chunk), CHUNK) };
                        }
                        segments = tx.chain_segments();
                        Ok(())
                    })
                })
            });
            lat_ns.push(op0.elapsed().as_nanos() as u64);
            match result {
                Ok(()) => {
                    for chunk in 0..CHUNKS {
                        self.expected[chunk] = fill(chunk);
                    }
                    self.chain_segments = self.chain_segments.max(segments);
                }
                Err(_) => failed += 1,
            }
            self.txs_run += 1;
        }
        Window {
            ops: self.window_txs,
            failed,
            wall_ns: t0.elapsed().as_nanos() as u64,
            cpu_ns: process_cpu_ns() - cpu0,
            prep_ns: 0,
            lat_ns,
        }
    }

    fn begin_measure(&mut self) {
        self.chain_calls_at_start = self.chain_calls();
        self.txs_at_start = self.txs_run;
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Metrics) {
        out.insert(
            "core.tx.add_16KiB_us",
            tracer.totals("core.tx.add_16KiB").ns_per_unit() / 1e3,
        );
        // What `client.tx` spends outside the body: begin (one fenced header
        // write), the three commit stages and the release of the chain.
        out.insert(
            "core.tx.commit_1MiB_ms",
            tracer.totals("core.tx").self_ns_per_unit() / 1e6,
        );
        out.insert("core.tx.chain_segments", self.chain_segments as f64);
        let txs = (self.txs_run - self.txs_at_start).max(1);
        out.insert(
            "core.client.daemon_calls_per_large_tx",
            (self.chain_calls() - self.chain_calls_at_start) as f64 / txs as f64,
        );
    }

    /// After a daemon restart the region must hold, chunk by chunk, the
    /// bytes of the last committed transaction.
    fn finish(self) -> Verdict {
        let TxLarge {
            pool,
            client,
            daemon,
            config,
            expected,
            chain_segments,
            _dir,
            ..
        } = self;
        let mut verdict = Verdict::default();
        verdict.check(chain_segments >= 2, || {
            format!("transactions used {chain_segments} log segment(s); chaining never ran")
        });
        verdict.invariants(&daemon);
        drop((pool, client, daemon));

        let daemon = Daemon::start(config).expect("restart daemon");
        let client = PuddleClient::connect_local(&daemon).expect("reconnect");
        let (pool, region) = open_region(&client);
        // SAFETY: `open_region` mapped the REGION bytes at `region`; nothing
        // writes them while this slice is alive.
        let bytes = unsafe { std::slice::from_raw_parts(region as *const u8, REGION) };
        for (chunk, want) in expected.iter().enumerate() {
            let got = &bytes[chunk * CHUNK..(chunk + 1) * CHUNK];
            verdict.check(got.iter().all(|b| b == want), || {
                format!("chunk {chunk} is not filled with {want:#04x}")
            });
        }
        drop(pool);
        verdict.invariants(&daemon);
        verdict
    }
}
