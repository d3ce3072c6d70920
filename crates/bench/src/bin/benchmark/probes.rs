//! Layer probes: the harness calls a deeper layer's public functions
//! directly, with the sizes the workloads feed it (64-byte and 16 KiB log
//! entries, 4 KiB replay entries, 88-byte objects, ping / pointer-map
//! frames), and records each batch as a span. Traced runs only, and each
//! workload runs only the probes of the layers its own path goes through
//! ([`Workload::PROBES`](crate::workloads::Workload::PROBES)).
//!
//! A probe is a floor, not a share: it says what the layer costs when
//! nothing else runs, so the difference to the span the workload recorded
//! around the same layer is contention and cache effects.

use crate::env::DirGuard;
use crate::trace::Tracer;
use crate::workloads::{Ctx, Metrics};
use puddled::{Daemon, DaemonConfig, RegistryOp, SpaceAlloc, Wal};
use puddles::{PoolOptions, PuddleClient};
use puddles_logfmt::{
    replay_chain, DirectMemoryTarget, EntryKind, LogRef, LogWriter, ReplayOrder, SEQ_UNDO,
};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::space::VaReservation;
use puddles_pmem::{persist, CACHELINE, PAGE_SIZE};
use puddles_proto::frame::encode_frame;
use puddles_proto::{
    read_frame, write_frame, Credentials, PoolInfo, PtrField, PtrMapDecl, PuddleId, Request,
    RequestEnvelope, Response, ResponseEnvelope, ServerFrame,
};
use std::hint::black_box;

/// Mean nanoseconds per call of the span `name`.
fn ns(tracer: &Tracer, name: &str) -> f64 {
    tracer.totals(name).ns_per_unit()
}

fn ptr_map(slot: u64) -> PtrMapDecl {
    PtrMapDecl {
        type_id: 0x9B0B_0000 + slot,
        type_name: format!("benchmark::Probe{slot}"),
        size: 64,
        fields: vec![PtrField {
            offset: 8 * (slot % 4),
            target_type: 0,
        }],
    }
}

/// One layer's probe, named after the metrics it fills in.
#[derive(Debug, Clone, Copy)]
pub enum Probe {
    /// `pmem.persist.*`
    Persist,
    /// `logfmt.append_64B_ns`, `logfmt.log_bytes_per_user_byte_64B`
    LogAppendSmall,
    /// `logfmt.append_16KiB_MBps`, `logfmt.log_bytes_per_user_byte_16KiB`
    LogAppendLarge,
    /// `logfmt.replay_4KiB_MBps`
    LogReplay,
    /// `proto.*` (codec into and out of memory)
    Codec,
    /// `puddled.service.handle_*`, `core.client.ping_local_ns`
    Service,
    /// `puddled.wal.submit_flush_us`, `puddled.wal.bytes_per_record`
    Wal,
    /// `puddled.alloc.alloc_free_ns`
    SpaceAlloc,
    /// `core.tx.nop_ns`, `.add_64B_ns`, `.add_dup_ns`, `.commit_1add_ns`
    SmallTx,
    /// `core.alloc.*`, `core.pool.deref_ns`
    Heap,
}

/// Runs the probes in `which` and adds their metrics to `out`.
pub fn run(which: &[Probe], ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Metrics) {
    let was_enabled = tracer.enabled();
    tracer.set_enabled(true);
    let scale = ctx.pick(1, 20);
    for probe in which {
        match probe {
            Probe::Persist => persist_probe(ctx, tracer, out, scale),
            // 64 B as `kv_update` logs them, 16 KiB as `tx_large` does.
            Probe::LogAppendSmall => {
                let (ns, ratio) = log_append_probe(tracer, scale, "logfmt.append_64B", 64, 16_384);
                out.insert("logfmt.append_64B_ns", ns);
                out.insert("logfmt.log_bytes_per_user_byte_64B", ratio);
            }
            Probe::LogAppendLarge => {
                const SIZE: usize = 16 * 1024;
                let (ns, ratio) = log_append_probe(tracer, scale, "logfmt.append_16KiB", SIZE, 192);
                out.insert("logfmt.append_16KiB_MBps", SIZE as f64 / ns * 1e3);
                out.insert("logfmt.log_bytes_per_user_byte_16KiB", ratio);
            }
            Probe::LogReplay => log_replay_probe(tracer, out, scale),
            Probe::Codec => proto_probe(tracer, out, scale),
            Probe::Service => service_probe(ctx, tracer, out, scale),
            Probe::Wal => wal_probe(ctx, tracer, out, scale),
            Probe::SpaceAlloc => space_alloc_probe(tracer, out, scale),
            Probe::SmallTx => small_tx_probe(ctx, tracer, out, scale),
            Probe::Heap => heap_probe(ctx, tracer, out, scale),
        }
    }
    tracer.set_enabled(was_enabled);
}

/// `pmem::persist` over a file of the PM root mapped like a puddle.
fn persist_probe(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    const LEN: usize = 1 << 20;
    let dir = DirGuard(ctx.root.fresh_dir("persist"));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(dir.0.join("buffer"))
        .expect("create probe buffer");
    file.set_len(LEN as u64).expect("size probe buffer");
    let base = VaReservation::map_file_anywhere(&file, LEN, true).expect("map probe buffer");
    // SAFETY: `base..base + LEN` was mapped writable just above and is
    // unmapped only at the end of this function.
    let buffer = unsafe { std::slice::from_raw_parts_mut(base as *mut u8, LEN) };
    buffer.fill(1);
    let lines = LEN / CACHELINE;
    for round in 0..(8 / scale).max(1) {
        tracer.span("pmem.persist.flush_line", lines as u64, |_| {
            for line in buffer.chunks_mut(CACHELINE) {
                line[0] = round as u8;
                persist::flush(line.as_ptr(), CACHELINE);
            }
            persist::sfence();
        });
        tracer.span("pmem.persist.flush_fence", lines as u64, |_| {
            for line in buffer.chunks_mut(CACHELINE) {
                line[0] = round as u8 + 1;
                persist::flush(line.as_ptr(), CACHELINE);
                persist::sfence();
            }
        });
    }
    // SAFETY: `buffer` is not used past this point.
    unsafe { VaReservation::unmap_anywhere(base, LEN).expect("unmap probe buffer") };
    let flush = ns(tracer, "pmem.persist.flush_line");
    out.insert("pmem.persist.flush_line_ns", flush);
    out.insert(
        "pmem.persist.fence_ns",
        (ns(tracer, "pmem.persist.flush_fence") - flush).max(0.0),
    );
}

/// A log in DRAM, aligned like a puddle's, and a target its entries point
/// into.
struct DramLog {
    log: LogRef,
    _area: Vec<u64>,
    target: Vec<u8>,
}

impl DramLog {
    fn new() -> DramLog {
        const CAPACITY: usize = 4 << 20;
        let mut area = vec![0u64; CAPACITY / 8];
        // SAFETY: `area` is kept alive next to `log` and nothing else
        // touches it.
        let log = unsafe { LogRef::from_raw(area.as_mut_ptr().cast(), CAPACITY) };
        log.init();
        DramLog {
            log,
            _area: area,
            target: vec![0u8; 1 << 20],
        }
    }

    /// Appends `count` undo entries of `size` bytes under the span `span`;
    /// returns the writer and the log bytes each entry took.
    fn fill(
        &mut self,
        tracer: &mut Tracer,
        span: &'static str,
        size: usize,
        count: usize,
    ) -> (LogWriter, f64) {
        let payload = vec![0xA5u8; size];
        let (target_addr, target_len) = (self.target.as_mut_ptr() as u64, self.target.len());
        let mut writer = LogWriter::begin(self.log).expect("begin log");
        let free_before = writer.free_bytes();
        tracer.span(span, count as u64, |_| {
            for i in 0..count {
                let addr = target_addr + ((i * size) % target_len) as u64;
                writer
                    .append(
                        addr,
                        SEQ_UNDO,
                        ReplayOrder::Reverse,
                        EntryKind::Undo,
                        &payload,
                    )
                    .expect("append fits the probe log");
            }
        });
        let used = free_before - writer.free_bytes();
        (writer, used as f64 / count as f64)
    }
}

/// `LogWriter::append` of `count` entries of `size` bytes under the span
/// `span`; returns nanoseconds per entry and log bytes per payload byte.
fn log_append_probe(
    tracer: &mut Tracer,
    scale: usize,
    span: &'static str,
    size: usize,
    count: usize,
) -> (f64, f64) {
    let mut dram = DramLog::new();
    let mut per_entry = 0.0;
    for _ in 0..(16 / scale).max(1) {
        let (mut writer, used) = dram.fill(tracer, span, size, count);
        per_entry = used;
        writer.reset();
    }
    black_box(&dram.target);
    (ns(tracer, span), per_entry / size as f64)
}

/// `replay_chain` over 256 entries of 4 KiB, the entry size of `recover`.
fn log_replay_probe(tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    let mut dram = DramLog::new();
    for _ in 0..(16 / scale).max(1) {
        let (mut writer, _) = dram.fill(tracer, "logfmt.fill_4KiB", 4096, 256);
        let applied = tracer.span("logfmt.replay_4KiB", 256, |_| {
            replay_chain(
                writer.chain(),
                &mut DirectMemoryTarget::unrestricted(),
                false,
            )
            .applied
        });
        assert_eq!(applied, 256, "probe replay applied every entry");
        writer.reset();
    }
    black_box(&dram.target);
    out.insert(
        "logfmt.replay_4KiB_MBps",
        4096.0 / ns(tracer, "logfmt.replay_4KiB") * 1e3,
    );
}

/// The `proto` codec on protocol-v2 envelopes, into and out of memory.
fn proto_probe(tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    let iters = 20_000 / scale;
    let ping = RequestEnvelope {
        req_id: 7,
        req: Request::Ping,
    };
    let reg = RequestEnvelope {
        req_id: 7,
        req: Request::RegisterPtrMap { decl: ptr_map(3) },
    };
    let pool = ResponseEnvelope {
        req_id: 7,
        resp: Response::Pool(PoolInfo {
            name: "standing".into(),
            root_puddle: PuddleId(0x1234_5678_9abc_def0_1234_5678_9abc_def0),
            puddles: vec![PuddleId(0x1234_5678_9abc_def0_1234_5678_9abc_def0)],
        }),
    };
    let ping_bytes = encode_frame(&ping).expect("encode");
    let reg_bytes = encode_frame(&reg).expect("encode");
    let pool_bytes = encode_frame(&pool).expect("encode");

    let mut sink = Vec::with_capacity(256);
    tracer.span("proto.encode_ping", iters as u64, |_| {
        for _ in 0..iters {
            sink.clear();
            write_frame(&mut sink, black_box(&ping)).expect("encode");
        }
    });
    tracer.span("proto.encode_regptrmap", iters as u64, |_| {
        for _ in 0..iters {
            sink.clear();
            write_frame(&mut sink, black_box(&reg)).expect("encode");
        }
    });
    tracer.span("proto.decode_ping", iters as u64, |_| {
        for _ in 0..iters {
            let env: RequestEnvelope = read_frame(&mut &ping_bytes[..]).expect("decode");
            black_box(env);
        }
    });
    tracer.span("proto.decode_regptrmap", iters as u64, |_| {
        for _ in 0..iters {
            let env: RequestEnvelope = read_frame(&mut &reg_bytes[..]).expect("decode");
            black_box(env);
        }
    });
    tracer.span("proto.decode_pool_resp", iters as u64, |_| {
        for _ in 0..iters {
            let frame: ServerFrame = read_frame(&mut &pool_bytes[..]).expect("decode");
            black_box(frame);
        }
    });
    for (metric, span) in [
        ("proto.encode_ping_ns", "proto.encode_ping"),
        ("proto.encode_regptrmap_ns", "proto.encode_regptrmap"),
        ("proto.decode_ping_ns", "proto.decode_ping"),
        ("proto.decode_regptrmap_ns", "proto.decode_regptrmap"),
        ("proto.decode_pool_resp_ns", "proto.decode_pool_resp"),
    ] {
        out.insert(metric, ns(tracer, span));
    }
    out.insert("proto.frame_bytes_ping", ping_bytes.len() as f64);
    out.insert("proto.frame_bytes_regptrmap", reg_bytes.len() as f64);
}

fn answered(resp: Response) {
    assert!(!matches!(resp, Response::Error { .. }), "{resp:?}");
}

/// A daemon of the probe's own, in a PM directory removed with the guard.
fn probe_daemon(ctx: &Ctx<'_>) -> (Daemon, DirGuard) {
    let dir = DirGuard(ctx.root.fresh_dir("probe"));
    let daemon = Daemon::start(DaemonConfig::for_testing(&dir.0)).expect("start probe daemon");
    (daemon, dir)
}

/// `puddled::service` called in-process, without codec or socket, and the
/// client library's in-process `ping` on top of it.
fn service_probe(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    let (daemon, _dir) = probe_daemon(ctx);
    let creds = Credentials::current_process();
    let iters = 20_000 / scale;
    tracer.span("puddled.service.handle_ping", iters as u64, |_| {
        for _ in 0..iters {
            answered(daemon.handle(creds, Request::Ping));
        }
    });
    let iters = 400 / scale;
    tracer.span("puddled.service.handle_regptrmap", iters as u64, |_| {
        for i in 0..iters as u64 {
            answered(daemon.handle(
                creds,
                Request::RegisterPtrMap {
                    decl: ptr_map(i % 32),
                },
            ));
        }
    });
    let create = |name: &str| Request::CreatePool {
        name: name.into(),
        root_size: PoolOptions::default().puddle_size,
        mode: 0o600,
    };
    answered(daemon.handle(creds, create("standing")));
    tracer.span("puddled.service.handle_open_pool", iters as u64, |_| {
        for _ in 0..iters {
            answered(daemon.handle(
                creds,
                Request::OpenPool {
                    name: "standing".into(),
                },
            ));
        }
    });
    let iters = 200 / scale;
    tracer.span("puddled.service.handle_pool_cycle", iters as u64, |_| {
        for _ in 0..iters {
            answered(daemon.handle(creds, create("cycle")));
            answered(daemon.handle(
                creds,
                Request::DropPool {
                    name: "cycle".into(),
                },
            ));
        }
    });
    out.insert(
        "puddled.service.handle_ping_ns",
        ns(tracer, "puddled.service.handle_ping"),
    );
    for (metric, span) in [
        (
            "puddled.service.handle_regptrmap_us",
            "puddled.service.handle_regptrmap",
        ),
        (
            "puddled.service.handle_open_pool_us",
            "puddled.service.handle_open_pool",
        ),
        (
            "puddled.service.handle_pool_cycle_us",
            "puddled.service.handle_pool_cycle",
        ),
    ] {
        out.insert(metric, ns(tracer, span) / 1e3);
    }

    let client = PuddleClient::connect_local(&daemon).expect("connect");
    let iters = 20_000 / scale;
    tracer.span("core.client.ping_local", iters as u64, |_| {
        for _ in 0..iters {
            client.ping().expect("ping");
        }
    });
    out.insert(
        "core.client.ping_local_ns",
        ns(tracer, "core.client.ping_local"),
    );
}

/// `puddled::wal`: one record, one group commit of its own.
fn wal_probe(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    let dir = DirGuard(ctx.root.fresh_dir("wal"));
    let wal_dir = PmDir::open(&dir.0).expect("open WAL directory");
    let wal = Wal::open(&wal_dir).expect("open WAL");
    let iters = 400 / scale;
    tracer.span("puddled.wal.submit_flush", iters as u64, |_| {
        for i in 0..iters as u64 {
            wal.submit(&RegistryOp::PutPtrMap(ptr_map(i % 32)))
                .expect("submit record");
            wal.flush().expect("flush record");
        }
    });
    let wal_stats = wal.stats();
    out.insert(
        "puddled.wal.submit_flush_us",
        ns(tracer, "puddled.wal.submit_flush") / 1e3,
    );
    out.insert(
        "puddled.wal.bytes_per_record",
        wal_stats.bytes as f64 / wal_stats.records.max(1) as f64,
    );
}

/// `puddled::alloc`: the space allocator on its own.
fn space_alloc_probe(tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    let space = SpaceAlloc::new(0x5000_0000_0000, 8 << 30, PAGE_SIZE as u64, Vec::new());
    let iters = 100_000 / scale;
    tracer.span("puddled.alloc.alloc_free", iters as u64, |_| {
        for _ in 0..iters {
            let offset = space.alloc(1 << 20).expect("space left");
            space.free(offset, 1 << 20);
        }
    });
    out.insert(
        "puddled.alloc.alloc_free_ns",
        ns(tracer, "puddled.alloc.alloc_free"),
    );
}

/// `core::tx` on transactions as small as `kv_update`'s: empty, one 64-byte
/// range, 64 ranges first touched and then added again.
fn small_tx_probe(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    let (daemon, _dir) = probe_daemon(ctx);
    let client = PuddleClient::connect_local(&daemon).expect("connect");
    let pool = client
        .create_pool("probe", PoolOptions::default())
        .expect("create probe pool");
    const SLOTS: usize = 64;
    let buffer = pool
        .tx(|tx| pool.alloc_raw(tx, SLOTS * 64, 0))
        .expect("allocate probe buffer");
    let iters = 20_000 / scale;
    tracer.span("core.tx.nop", iters as u64, |_| {
        for _ in 0..iters {
            client.tx(|_| Ok(())).expect("empty transaction");
        }
    });
    // One add per transaction: `core.tx.one_add` is the whole transaction
    // and `core.tx.one_add.body` the add inside it, so the self time of
    // the former is begin + commit with one logged range.
    tracer.span("core.tx.one_add", iters as u64, |tracer| {
        for i in 0..iters {
            client
                .tx(|tx| {
                    tracer.span("core.tx.one_add.body", 1, |_| {
                        tx.add_range(buffer + (i % SLOTS) * 64, 64)
                    })
                })
                .expect("one-add transaction");
        }
    });
    // 64 first-touch adds, then the same 64 again (deduplicated).
    for _ in 0..iters / SLOTS {
        client
            .tx(|tx| {
                tracer.span("core.tx.add_64B", SLOTS as u64, |_| {
                    (0..SLOTS).try_for_each(|slot| tx.add_range(buffer + slot * 64, 64))
                })?;
                tracer.span("core.tx.add_dup", SLOTS as u64, |_| {
                    (0..SLOTS).try_for_each(|slot| tx.add_range(buffer + slot * 64, 64))
                })
            })
            .expect("add transaction");
    }
    out.insert("core.tx.nop_ns", ns(tracer, "core.tx.nop"));
    out.insert("core.tx.add_64B_ns", ns(tracer, "core.tx.add_64B"));
    out.insert("core.tx.add_dup_ns", ns(tracer, "core.tx.add_dup"));
    out.insert(
        "core.tx.commit_1add_ns",
        tracer.totals("core.tx.one_add").self_ns_per_unit(),
    );
}

/// `core::alloc` and `Pool::deref` on objects the size of a kv record.
fn heap_probe(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Metrics, scale: usize) {
    let (daemon, _dir) = probe_daemon(ctx);
    let client = PuddleClient::connect_local(&daemon).expect("connect");
    let pool = client
        .create_pool("probe", PoolOptions::default())
        .expect("create probe pool");
    let objects = 1_000 / scale;
    let addrs: Vec<usize> = pool
        .tx(|tx| {
            tracer.span("core.alloc.alloc_88B", objects as u64, |_| {
                (0..objects).map(|_| pool.alloc_raw(tx, 88, 0)).collect()
            })
        })
        .expect("allocate objects");
    let rounds = 200 / scale;
    tracer.span("core.pool.deref", (rounds * objects) as u64, |_| {
        for _ in 0..rounds {
            for &addr in &addrs {
                let object: &u64 = pool
                    .deref(puddles::PmPtr::from_addr(addr as u64))
                    .expect("object mapped");
                black_box(object);
            }
        }
    });
    pool.tx(|tx| {
        tracer.span("core.alloc.free_88B", objects as u64, |_| {
            addrs.iter().try_for_each(|&addr| pool.free_raw(tx, addr))
        })
    })
    .expect("free objects");
    out.insert(
        "core.alloc.alloc_88B_ns",
        ns(tracer, "core.alloc.alloc_88B"),
    );
    out.insert("core.alloc.free_88B_ns", ns(tracer, "core.alloc.free_88B"));
    out.insert("core.pool.deref_ns", ns(tracer, "core.pool.deref"));
}
