//! Fig. 11: `simplekv` KV store under YCSB workloads A–G for Puddles,
//! PMDK-sim and Romulus-sim (1 M-key load + 1 M-operation run in the paper).
//!
//! Atlas and go-pmem are not reimplemented; the paper's headline
//! comparisons are against PMDK and Romulus.

use pm_datastructures::kv::{value_for, PmdkKv, PuddlesKv, RomulusKv};
use puddles_bench::{emit_header, emit_row, secs, test_env, Scale};
use ycsb::Workload;

fn main() {
    let scale = Scale::from_args();
    let records = scale.pick(20_000u64, 1_000_000u64);
    let operations = scale.pick(20_000usize, 1_000_000usize);
    emit_header();

    for wl in Workload::ALL {
        let requests = wl.generate(records, operations, 42);

        // Puddles.
        {
            let (_tmp, _daemon, client) = test_env();
            let kv = PuddlesKv::new(&client, "fig11").unwrap();
            for k in 0..records {
                kv.put(k, &value_for(k, 0)).unwrap();
            }
            let run = secs(|| {
                for req in &requests {
                    kv.execute(req).unwrap();
                }
            });
            emit_row("fig11", "puddles", "run_s", wl.name(), run);
        }

        // PMDK-sim.
        {
            let tmp = tempfile::tempdir().unwrap();
            let pool_size = (records as usize * 256).max(128 << 20);
            let kv = PmdkKv::create(tmp.path().join("fig11.pmdk"), pool_size).unwrap();
            for k in 0..records {
                kv.put(k, &value_for(k, 0)).unwrap();
            }
            let run = secs(|| {
                for req in &requests {
                    kv.execute(req).unwrap();
                }
            });
            emit_row("fig11", "pmdk", "run_s", wl.name(), run);
        }

        // Romulus-sim.
        {
            let tmp = tempfile::tempdir().unwrap();
            let region = (records as usize * 192).max(128 << 20);
            let kv = RomulusKv::create(tmp.path().join("fig11.rom"), region).unwrap();
            for k in 0..records {
                kv.put(k, &value_for(k, 0)).unwrap();
            }
            let run = secs(|| {
                for req in &requests {
                    kv.execute(req).unwrap();
                }
            });
            emit_row("fig11", "romulus", "run_s", wl.name(), run);
        }
    }
}
