//! Fig. 11: `simplekv` KV store under YCSB workloads A–G for Puddles,
//! PMDK-sim and Romulus-sim (1 M-key load + 1 M-operation run in the paper).
//! One store, written once over `PmHeap`, runs on each library.
//!
//! Atlas and go-pmem are not reimplemented; the paper's headline
//! comparisons are against PMDK and Romulus.

use pm_datastructures::heap::{Object, PmHeap};
use pm_datastructures::kv::{value_for, Entry, Kv, KvRoot, PmdkKv, PuddlesKv, RomulusKv};
use puddles_bench::{emit_header, emit_row, secs, test_env, Scale};
use ycsb::{Request, Workload};

fn run<H: PmHeap>(system: &str, kv: Kv<H>, records: u64, wl: Workload, requests: &[Request])
where
    Entry<H>: Object<H>,
    KvRoot<H>: Object<H>,
{
    for k in 0..records {
        kv.put(k, &value_for(k, 0)).unwrap();
    }
    let run = secs(|| {
        for req in requests {
            kv.execute(req).unwrap();
        }
    });
    emit_row("fig11", system, "run_s", wl.name(), run);
}

fn main() {
    let scale = Scale::from_args();
    let records = scale.pick(20_000u64, 1_000_000u64);
    let operations = scale.pick(20_000usize, 1_000_000usize);
    emit_header();

    for wl in Workload::ALL {
        let requests = wl.generate(records, operations, 42);

        let (_tmp, _daemon, client) = test_env();
        let kv = PuddlesKv::new(&client, "fig11").unwrap();
        run("puddles", kv, records, wl, &requests);

        let tmp = tempfile::tempdir().unwrap();
        let pool_size = (records as usize * 256).max(128 << 20);
        let kv = PmdkKv::create(tmp.path().join("fig11.pmdk"), pool_size).unwrap();
        run("pmdk", kv, records, wl, &requests);

        let region = (records as usize * 192).max(128 << 20);
        let kv = RomulusKv::create(tmp.path().join("fig11.rom"), region).unwrap();
        run("romulus", kv, records, wl, &requests);
    }
}
