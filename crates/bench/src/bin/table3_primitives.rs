//! Table 3: mean latency of API primitives (TX NOP, TX_ADD 8 B / 4 KiB,
//! malloc 8 B / 4 KiB, malloc+free 8 B / 4 KiB) for Puddles vs PMDK-sim,
//! plus the log-append microbenchmark behind the fence-minimized commit
//! path (`LogWriter::append`, no fence per entry, single- and
//! 8-threaded).
//!
//! Pass `--json <path>` to also write the commit-path numbers as
//! `BENCH_tx_commit.json` for CI perf tracking.

use puddles_bench::{emit_header, emit_row, test_env, time_it, Scale};
use puddles_logfmt::{EntryKind, LogRef, LogWriter, ReplayOrder, SEQ_UNDO};

/// Appends 8-byte undo entries into a DRAM-backed log until `iters` appends
/// are done, restarting the log whenever it fills; returns appends/s.
fn append_throughput(iters: u64) -> f64 {
    let mut buf = vec![0u8; 4 << 20];
    // SAFETY: `buf` outlives the LogRef and is only accessed through it.
    let log = unsafe { LogRef::from_raw(buf.as_mut_ptr(), buf.len()) };
    log.init();
    let payload = [0xABu8; 8];
    let (d, _) = time_it(|| {
        let mut done = 0u64;
        while done < iters {
            let mut w = LogWriter::begin(log).expect("begin");
            while done < iters
                && w.append(
                    0x1000,
                    SEQ_UNDO,
                    ReplayOrder::Reverse,
                    EntryKind::Undo,
                    &payload,
                )
                .is_ok()
            {
                done += 1;
            }
            w.reset();
        }
    });
    iters as f64 / d.as_secs_f64()
}

/// Append throughput summed over `threads` concurrent writers,
/// each owning a private DRAM-backed log (the per-thread-log design).
///
/// Sums the rates each thread measures over its own append loop, so thread
/// spawn, buffer allocation, and log init stay outside the measurement and
/// the number is comparable with the single-thread one.
fn append_throughput_mt(iters_per_thread: u64, threads: usize) -> f64 {
    let handles: Vec<_> = (0..threads)
        .map(|_| std::thread::spawn(move || append_throughput(iters_per_thread)))
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).sum()
}

fn main() {
    let scale = Scale::from_args();
    let iters = scale.pick(2_000u64, 50_000u64);
    let json_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1).cloned())
    };

    emit_header();

    // ----- Log-append microbenchmark (the tentpole metric) -----
    let append_iters = scale.pick(200_000u64, 2_000_000u64);
    let append_1t = append_throughput(append_iters);
    let append_8t = append_throughput_mt(append_iters, 8);
    emit_row("table3", "puddles", "log_append_per_s", "1", append_1t);
    emit_row("table3", "puddles", "log_append_per_s", "8", append_8t);

    // ----- Puddles -----
    let (_tmp, daemon, client) = test_env();
    let pool = client
        .create_pool("table3", puddles::PoolOptions::default())
        .unwrap();
    let buffer = pool.tx(|tx| pool.alloc_raw(tx, 8192, 0)).unwrap();

    // TX NOP.
    let (d, _) = time_it(|| {
        for _ in 0..iters {
            client.tx(|_tx| Ok(())).unwrap();
        }
    });
    emit_row(
        "table3",
        "puddles",
        "tx_nop",
        "-",
        d.as_nanos() as f64 / iters as f64,
    );

    // TX_ADD 8 B / 4 KiB. The 8 B case is the per-transaction commit
    // latency tracked in BENCH_tx_commit.json.
    let mut commit_latency_ns = 0.0f64;
    for (label, len) in [("tx_add_8B", 8usize), ("tx_add_4KiB", 4096)] {
        let (d, _) = time_it(|| {
            for _ in 0..iters {
                client
                    .tx(|tx| {
                        tx.add_range(buffer, len)?;
                        Ok(())
                    })
                    .unwrap();
            }
        });
        let ns = d.as_nanos() as f64 / iters as f64;
        if label == "tx_add_8B" {
            commit_latency_ns = ns;
        }
        emit_row("table3", "puddles", label, "-", ns);
    }

    // malloc (allocate only) and malloc+free, 8 B / 4 KiB.
    for (label, len) in [("malloc_8B", 8usize), ("malloc_4KiB", 4096)] {
        let (d, _) = time_it(|| {
            client
                .tx(|tx| {
                    for _ in 0..iters {
                        pool.alloc_raw(tx, len, 0)?;
                    }
                    Ok(())
                })
                .unwrap();
        });
        emit_row(
            "table3",
            "puddles",
            label,
            "-",
            d.as_nanos() as f64 / iters as f64,
        );
    }
    for (label, len) in [("malloc_free_8B", 8usize), ("malloc_free_4KiB", 4096)] {
        let (d, _) = time_it(|| {
            for _ in 0..iters {
                client
                    .tx(|tx| {
                        let addr = pool.alloc_raw(tx, len, 0)?;
                        pool.free_raw(tx, addr)?;
                        Ok(())
                    })
                    .unwrap();
            }
        });
        emit_row(
            "table3",
            "puddles",
            label,
            "-",
            d.as_nanos() as f64 / iters as f64,
        );
    }

    // ----- Chained-commit macrobenchmark: one transaction undo-logs 1 MiB
    // in 16 KiB chunks. With the default 4 MiB log puddle the whole log
    // fits one segment; a second client using 256 KiB log puddles chains
    // ~5 segments per transaction (alloc + register + release round trips
    // included), quantifying the amortized cost of the chain boundary. -----
    let region = 1usize << 20;
    let big = pool.tx(|tx| pool.alloc_raw(tx, region, 0)).unwrap();
    let chain_iters = scale.pick(4u64, 64u64);
    let chunk = 16 * 1024;
    let logged_mbps = |client: &puddles::PuddleClient| -> f64 {
        let (d, _) = time_it(|| {
            for _ in 0..chain_iters {
                client
                    .tx(|tx| {
                        for off in (0..region).step_by(chunk) {
                            tx.add_range(big + off, chunk)?;
                        }
                        Ok(())
                    })
                    .unwrap();
            }
        });
        (chain_iters as f64 * region as f64) / (1 << 20) as f64 / d.as_secs_f64()
    };
    let single_mbps = logged_mbps(&client);
    let chained_client = puddles::PuddleClient::connect_local(&daemon).unwrap();
    chained_client.set_log_puddle_size(256 * 1024);
    let chained_mbps = logged_mbps(&chained_client);
    emit_row(
        "table3",
        "puddles",
        "tx_1MiB_undo_MBps",
        "1seg",
        single_mbps,
    );
    emit_row(
        "table3",
        "puddles",
        "tx_1MiB_undo_MBps",
        "chained",
        chained_mbps,
    );

    // ----- PMDK-sim -----
    let tmp = tempfile::tempdir().unwrap();
    let pmdk = pmdk_sim::PmdkPool::create(tmp.path().join("t3.pmdk"), 256 << 20).unwrap();
    let target: pmdk_sim::Toid<[u8; 8192]> = pmdk.tx(|tx| tx.alloc([0u8; 8192])).unwrap();

    let (d, _) = time_it(|| {
        for _ in 0..iters {
            pmdk.tx(|_tx| Ok(())).unwrap();
        }
    });
    emit_row(
        "table3",
        "pmdk",
        "tx_nop",
        "-",
        d.as_nanos() as f64 / iters as f64,
    );

    for (label, len) in [("tx_add_8B", 8usize), ("tx_add_4KiB", 4096)] {
        let (d, _) = time_it(|| {
            for _ in 0..iters {
                pmdk.tx(|tx| {
                    tx.log_range(target.direct() as usize, len)?;
                    Ok(())
                })
                .unwrap();
            }
        });
        emit_row(
            "table3",
            "pmdk",
            label,
            "-",
            d.as_nanos() as f64 / iters as f64,
        );
    }
    for (label, len) in [("malloc_8B", 8usize), ("malloc_4KiB", 4096)] {
        let (d, _) = time_it(|| {
            pmdk.tx(|tx| {
                for _ in 0..iters {
                    tx.alloc_raw(len)?;
                }
                Ok(())
            })
            .unwrap();
        });
        emit_row(
            "table3",
            "pmdk",
            label,
            "-",
            d.as_nanos() as f64 / iters as f64,
        );
    }
    for (label, len) in [("malloc_free_8B", 8usize), ("malloc_free_4KiB", 4096)] {
        let (d, _) = time_it(|| {
            for _ in 0..iters {
                pmdk.tx(|tx| {
                    let oid = tx.alloc_raw(len)?;
                    tx.free(pmdk_sim::Toid::<u8>::from_oid(oid))?;
                    Ok(())
                })
                .unwrap();
            }
        });
        emit_row(
            "table3",
            "pmdk",
            label,
            "-",
            d.as_nanos() as f64 / iters as f64,
        );
    }

    // ----- CI perf-tracking artifact -----
    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"appends_per_sec_1t\": {append_1t:.0},\n  \"appends_per_sec_8t\": {append_8t:.0},\n  \"commit_latency_ns\": {commit_latency_ns:.1},\n  \"tx_1MiB_undo_single_segment_MBps\": {single_mbps:.0},\n  \"tx_1MiB_undo_chained_MBps\": {chained_mbps:.0}\n}}\n"
        );
        std::fs::write(&path, json).expect("write bench json");
        eprintln!("wrote {path}");
    }
}
