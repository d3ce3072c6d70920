//! `kv_update` (YCSB-A) and `kv_read` (YCSB-C) on `PuddlesKv`.
//!
//! Both go through `connect_local`, so the daemon is idle once the store is
//! loaded: `kv_update` is the small-transaction hot path (`core::tx` begin /
//! add / commit, `logfmt` append, `pmem` flush + fence) and `kv_read` is the
//! native-pointer read path alone, which is why a write-path change should
//! leave `kv_read` where it was.

use super::{Ctx, Metrics, Verdict, Window, Workload};
use crate::env::DirGuard;
use crate::probes::Probe;
use crate::stats::process_cpu_ns;
use crate::trace::Tracer;
use pm_datastructures::kv::{value_for, PuddlesKv};
use puddled::{Daemon, DaemonConfig};
use puddles::PuddleClient;
use std::time::Instant;
use ycsb::Operation;

const POOL: &str = "bench_kv";
/// Requests per latency sample and per span: one clock read pair per batch
/// keeps the timer out of a sub-microsecond operation.
const BATCH: usize = 64;

/// The store plus the model its contents must equal. `UPDATE` selects
/// YCSB-A (50 % read / 50 % update) over YCSB-C (100 % read); keys are
/// zipfian in both.
pub struct Kv<const UPDATE: bool> {
    kv: PuddlesKv,
    client: PuddleClient,
    daemon: Daemon,
    config: DaemonConfig,
    /// Tag byte of the value each key must hold (`value_for(key, tag)`).
    model: Vec<u8>,
    window_requests: usize,
    seed: u64,
    windows_run: u64,
    next_tag: u8,
    _dir: DirGuard,
}

pub type KvUpdate = Kv<true>;
pub type KvRead = Kv<false>;

impl<const UPDATE: bool> Kv<UPDATE> {
    /// Makes the final check expect a value the store does not hold.
    #[cfg(test)]
    pub fn corrupt_expectation(&mut self) {
        self.model[0] ^= 1;
    }
}

impl<const UPDATE: bool> Workload for Kv<UPDATE> {
    /// The write path of `kv_update` is small transactions over 64-byte
    /// log entries; both load the store through the pool allocator.
    const PROBES: &'static [Probe] = if UPDATE {
        &[
            Probe::SmallTx,
            Probe::LogAppendSmall,
            Probe::Persist,
            Probe::Heap,
        ]
    } else {
        &[Probe::Heap]
    };

    fn setup(ctx: &Ctx<'_>, seed: u64) -> Self {
        let dir = ctx.root.fresh_dir("kv");
        let config = DaemonConfig::for_testing(&dir);
        let daemon = Daemon::start(config.clone()).expect("start daemon");
        let client = PuddleClient::connect_local(&daemon).expect("connect");
        let kv = PuddlesKv::new(&client, POOL).expect("create store");
        let records: u64 = ctx.pick(200_000, 2_000);
        for key in 0..records {
            kv.put(key, &value_for(key, 0)).expect("load record");
        }
        Kv {
            kv,
            client,
            daemon,
            config,
            model: vec![0; records as usize],
            window_requests: match (UPDATE, ctx.smoke) {
                (_, true) => 2_000,
                (true, false) => 250_000,
                (false, false) => 1_000_000,
            },
            seed,
            windows_run: 0,
            next_tag: 1,
            _dir: DirGuard(dir),
        }
    }

    fn window(&mut self, tracer: &mut Tracer) -> Window {
        let mix = if UPDATE {
            ycsb::Workload::A
        } else {
            ycsb::Workload::C
        };
        // Generated before the clock starts: drawing a zipfian key costs
        // about as much as serving it.
        let requests = mix.generate(
            self.model.len() as u64,
            self.window_requests,
            self.seed.wrapping_add(self.windows_run),
        );
        self.windows_run += 1;

        let mut lat_ns = Vec::with_capacity(requests.len() / BATCH + 1);
        let mut failed = 0u64;
        let (kv, model) = (&self.kv, &mut self.model);
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        // Within a batch the reads run before the updates, so each kind
        // sits under one span; updates keep their order, so the final
        // contents are those of the request sequence.
        for batch in requests.chunks(BATCH) {
            tracer.next_op();
            let b0 = Instant::now();
            let reads = batch.iter().filter(|r| r.op == Operation::Read).count();
            tracer.span("datastructures.kv.get", reads as u64, |_| {
                for r in batch.iter().filter(|r| r.op == Operation::Read) {
                    if kv.get(r.key) != Some(value_for(r.key, model[r.key as usize])) {
                        failed += 1;
                    }
                }
            });
            if reads < batch.len() {
                tracer.span(
                    "datastructures.kv.put",
                    (batch.len() - reads) as u64,
                    |_| {
                        for r in batch.iter().filter(|r| r.op != Operation::Read) {
                            let tag = self.next_tag;
                            self.next_tag = self.next_tag.wrapping_add(1);
                            match kv.put(r.key, &value_for(r.key, tag)) {
                                Ok(()) => model[r.key as usize] = tag,
                                Err(_) => failed += 1,
                            }
                        }
                    },
                );
            }
            lat_ns.push(b0.elapsed().as_nanos() as u64 / batch.len() as u64);
        }
        Window {
            ops: requests.len() as u64,
            failed,
            wall_ns: t0.elapsed().as_nanos() as u64,
            cpu_ns: process_cpu_ns() - cpu0,
            prep_ns: 0,
            lat_ns,
        }
    }

    fn layer_metrics(&mut self, tracer: &Tracer, out: &mut Metrics) {
        out.insert(
            "datastructures.kv.get_ns",
            tracer.totals("datastructures.kv.get").ns_per_unit(),
        );
        out.insert(
            "datastructures.kv.put_ns",
            tracer.totals("datastructures.kv.put").ns_per_unit(),
        );
    }

    /// The store's contents after a daemon restart and a fresh `open_pool`
    /// must equal the model the request sequence was replayed into.
    fn finish(self) -> Verdict {
        let Kv {
            kv,
            client,
            daemon,
            config,
            model,
            _dir,
            ..
        } = self;
        let mut verdict = Verdict::default();
        verdict.invariants(&daemon);
        drop((kv, client, daemon));

        let daemon = Daemon::start(config).expect("restart daemon");
        let client = PuddleClient::connect_local(&daemon).expect("reconnect");
        // `PuddlesKv` follows native pointers without asking whether their
        // puddle is mapped, and a reopened pool maps only its root puddle:
        // hold a handle that has mapped them all while the store is read.
        let pool = client.open_pool(POOL).expect("reopen pool");
        pool.ensure_all_mapped().expect("map every puddle");
        let kv = PuddlesKv::new(&client, POOL).expect("reopen store");
        verdict.check(kv.len() == model.len() as u64, || {
            format!("store holds {} records, expected {}", kv.len(), model.len())
        });
        for (key, &tag) in model.iter().enumerate() {
            let key = key as u64;
            verdict.check(kv.get(key) == Some(value_for(key, tag)), || {
                format!("key {key} does not hold the value tagged {tag}")
            });
        }
        verdict.invariants(&daemon);
        verdict
    }
}
