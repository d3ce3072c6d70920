//! Daemon-level integration tests: puddle/pool lifecycle, access control,
//! export/import, system-supported recovery, and the UDS server.

use puddled::{Daemon, DaemonConfig};
use puddles_logfmt::{
    EntryKind, LogRef, LogSpaceRef, LogWriter, ReplayOrder, LOG_REGION_OFFSET, RANGE_DONE, SEQ_UNDO,
};
use puddles_proto::{Credentials, Endpoint, ErrorCode, PuddleId, PuddlePurpose, Request, Response};

const USER_A: Credentials = Credentials {
    uid: 1000,
    gid: 100,
};
const USER_B: Credentials = Credentials {
    uid: 2000,
    gid: 200,
};

fn start_daemon() -> (tempfile::TempDir, Daemon) {
    let tmp = tempfile::tempdir().unwrap();
    let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
    (tmp, daemon)
}

/// A handshaken protocol-level connection to a socket server.
fn raw_connection(
    socket: &std::path::Path,
) -> puddles_proto::BlockingConn<std::os::unix::net::UnixStream> {
    let stream = std::os::unix::net::UnixStream::connect(socket).unwrap();
    let hello = Request::hello(Credentials::current_process());
    puddles_proto::BlockingConn::handshake(stream, hello).unwrap()
}

fn expect_puddle(resp: Response) -> puddles_proto::PuddleInfo {
    match resp {
        Response::Puddle(info) => info,
        other => panic!("expected Puddle, got {other:?}"),
    }
}

fn expect_pool(resp: Response) -> puddles_proto::PoolInfo {
    match resp {
        Response::Pool(info) => info,
        other => panic!("expected Pool, got {other:?}"),
    }
}

/// The named `GetMetrics` counters of `daemon`, read in one report.
fn counters<const N: usize>(daemon: &Daemon, names: [&str; N]) -> [u64; N] {
    let Response::Metrics(report) = daemon.handle(USER_A, Request::GetMetrics) else {
        panic!("no metrics");
    };
    names.map(|name| {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("no `{name}`"))
    })
}

#[test]
fn hello_reports_global_space() {
    let (_tmp, daemon) = start_daemon();
    let ep = daemon.endpoint(USER_A);
    let resp = ep.call(&Request::hello(USER_A)).unwrap();
    match resp {
        Response::Welcome {
            space_base,
            space_size,
            ..
        } => {
            assert_eq!(space_base, daemon.global_space().base() as u64);
            assert_eq!(space_size, daemon.global_space().size() as u64);
        }
        other => panic!("unexpected response {other:?}"),
    }
}

/// Reconnect-flagged Hellos (sent by clients re-dialing after a lost
/// connection) are counted in the daemon's metrics.
#[test]
fn reconnect_hellos_are_counted_in_stats() {
    let (_tmp, daemon) = start_daemon();
    let ep = daemon.endpoint(USER_A);
    ep.call(&Request::hello(USER_A)).unwrap();
    for _ in 0..3 {
        ep.call(&Request::Hello {
            creds: USER_A,
            reconnect: true,
        })
        .unwrap();
    }
    assert_eq!(counters(&daemon, ["client_reconnects"]), [3]);
}

#[test]
fn pool_and_puddle_lifecycle() {
    let (_tmp, daemon) = start_daemon();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "db".into(),
            root_size: 1 << 20,
            mode: 0o640,
        },
    ));
    assert_eq!(pool.puddles.len(), 1);
    assert_eq!(pool.root_puddle, pool.puddles[0]);

    // Add a second puddle to the pool.
    let p2 = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: Some("db".into()),
            purpose: PuddlePurpose::Data,
            mode: 0o640,
        },
    ));
    let pool = expect_pool(daemon.handle(USER_A, Request::OpenPool { name: "db".into() }));
    assert_eq!(pool.puddles.len(), 2);
    assert!(pool.puddles.contains(&p2.id));

    // Assigned addresses are disjoint and inside the global space.
    let root = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: pool.root_puddle,
            writable: true,
        },
    ));
    assert_ne!(root.assigned_addr, p2.assigned_addr);
    let base = daemon.global_space().base() as u64;
    let size = daemon.global_space().size() as u64;
    for info in [&root, &p2] {
        assert!(info.assigned_addr >= base && info.assigned_addr + info.size <= base + size);
    }

    // Free the second puddle; the pool shrinks.
    assert_eq!(
        daemon.handle(USER_A, Request::FreePuddle { id: p2.id }),
        Response::Ok
    );
    let pool = expect_pool(daemon.handle(USER_A, Request::OpenPool { name: "db".into() }));
    assert_eq!(pool.puddles.len(), 1);

    // No request may leave a pool without its root, or a puddle in a pool
    // that does not exist; a refused create leaves no file behind.
    let free_root = Request::FreePuddle {
        id: pool.root_puddle,
    };
    match daemon.handle(USER_A, free_root) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidRequest),
        other => panic!("expected error, got {other:?}"),
    }
    let homeless = Request::CreatePuddle {
        size: 1 << 20,
        pool: Some("no-such-pool".into()),
        purpose: PuddlePurpose::Data,
        mode: 0o640,
    };
    match daemon.handle(USER_A, homeless) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected error, got {other:?}"),
    }
    assert_eq!(daemon.pm_dir().list_puddles().unwrap().len(), 1);
    puddled::Invariants::assert_all(daemon.registry());

    // Dropping the pool removes everything.
    assert_eq!(
        daemon.handle(USER_A, Request::DropPool { name: "db".into() }),
        Response::Ok
    );
    match daemon.handle(USER_A, Request::OpenPool { name: "db".into() }) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn duplicate_pool_names_are_rejected() {
    let (_tmp, daemon) = start_daemon();
    daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "p".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    );
    match daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "p".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::AlreadyExists),
        other => panic!("expected error, got {other:?}"),
    }
    // The loser's root puddle — prepared before the name check — is gone.
    assert_eq!(daemon.pm_dir().list_puddles().unwrap().len(), 1);
    assert_eq!(daemon.registry().snapshot().puddles.len(), 1);
}

#[test]
fn access_control_is_enforced() {
    let (_tmp, daemon) = start_daemon();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "private".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ));
    // User B cannot read or write user A's private puddle.
    match daemon.handle(
        USER_B,
        Request::GetPuddle {
            id: pool.root_puddle,
            writable: false,
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::PermissionDenied),
        other => panic!("expected denial, got {other:?}"),
    }
    match daemon.handle(
        USER_B,
        Request::OpenPool {
            name: "private".into(),
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::PermissionDenied),
        other => panic!("expected denial, got {other:?}"),
    }
    // A world-readable pool can be read but not written by others.
    let shared = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "shared".into(),
            root_size: 1 << 20,
            mode: 0o644,
        },
    ));
    let info = expect_puddle(daemon.handle(
        USER_B,
        Request::GetPuddle {
            id: shared.root_puddle,
            writable: false,
        },
    ));
    assert!(!info.writable);
    match daemon.handle(
        USER_B,
        Request::GetPuddle {
            id: shared.root_puddle,
            writable: true,
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::PermissionDenied),
        other => panic!("expected denial, got {other:?}"),
    }
    // DropPool is all or nothing on the ACL check: one member the caller
    // cannot write refuses the drop with the pool and every member intact.
    let foreign = expect_puddle(daemon.handle(
        USER_B,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: Some("private".into()),
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    ));
    let before = daemon.registry().snapshot();
    let drop = Request::DropPool {
        name: "private".into(),
    };
    match daemon.handle(USER_A, drop.clone()) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::PermissionDenied),
        other => panic!("expected denial, got {other:?}"),
    }
    let after = daemon.registry().snapshot();
    assert_eq!(
        (&after.pools, &after.puddles),
        (&before.pools, &before.puddles)
    );
    assert_eq!(
        after.pools["private"].puddles,
        [pool.root_puddle, foreign.id]
    );
    let root = Credentials { uid: 0, gid: 0 };
    assert_eq!(daemon.handle(root, drop), Response::Ok);
    assert_eq!(daemon.registry().snapshot().puddles.len(), 1);
}

#[test]
fn registry_survives_daemon_restart() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let root_id;
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let pool = expect_pool(daemon.handle(
            USER_A,
            Request::CreatePool {
                name: "persist".into(),
                root_size: 1 << 20,
                mode: 0o600,
            },
        ));
        root_id = pool.root_puddle;
    }
    let daemon = Daemon::start(config).unwrap();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::OpenPool {
            name: "persist".into(),
        },
    ));
    assert_eq!(pool.root_puddle, root_id);
    // Same base ⇒ no rewrite needed.
    match daemon.handle(USER_A, Request::GetRelocation { id: root_id }) {
        Response::Relocation { needs_rewrite, .. } => assert!(!needs_rewrite),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn moving_the_space_base_marks_puddles_for_rewrite() {
    let tmp = tempfile::tempdir().unwrap();
    let config1 = DaemonConfig::for_testing(tmp.path());
    let root_id;
    {
        let daemon = Daemon::start(config1.clone()).unwrap();
        let pool = expect_pool(daemon.handle(
            USER_A,
            Request::CreatePool {
                name: "mv".into(),
                root_size: 1 << 20,
                mode: 0o600,
            },
        ));
        root_id = pool.root_puddle;
    }
    // Restart with a different base (a different "machine" layout).
    let config2 = DaemonConfig::for_testing(tmp.path());
    assert_ne!(config1.space_base, config2.space_base);
    let daemon = Daemon::start(config2).unwrap();
    match daemon.handle(USER_A, Request::GetRelocation { id: root_id }) {
        Response::Relocation {
            needs_rewrite,
            translations,
        } => {
            assert!(needs_rewrite);
            assert!(!translations.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn export_and_import_assign_new_ids_and_translations() {
    let (tmp, daemon) = start_daemon();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "orig".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ));
    daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: Some("orig".into()),
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    );
    let dest = tmp.path().join("export");
    assert_eq!(
        daemon.handle(
            USER_A,
            Request::ExportPool {
                name: "orig".into(),
                dest: dest.to_string_lossy().into_owned(),
            },
        ),
        Response::Ok
    );
    assert!(dest.join("manifest.json").exists());

    match daemon.handle(
        USER_A,
        Request::ImportPool {
            src: dest.to_string_lossy().into_owned(),
            new_name: "copy".into(),
        },
    ) {
        Response::Imported {
            pool: copy,
            translations,
        } => {
            assert_eq!(copy.puddles.len(), 2);
            assert_eq!(translations.len(), 2);
            // Fresh UUIDs, fresh addresses.
            for id in &copy.puddles {
                assert!(!pool.puddles.contains(id));
            }
            for t in &translations {
                assert_ne!(t.old_addr, t.new_addr);
            }
            // The imported puddles are flagged for rewrite.
            match daemon.handle(
                USER_A,
                Request::GetRelocation {
                    id: copy.root_puddle,
                },
            ) {
                Response::Relocation {
                    needs_rewrite,
                    translations,
                } => {
                    assert!(needs_rewrite);
                    assert_eq!(translations.len(), 2);
                }
                other => panic!("unexpected {other:?}"),
            }
            // MarkRewritten clears the flag.
            daemon.handle(
                USER_A,
                Request::MarkRewritten {
                    id: copy.root_puddle,
                },
            );
            match daemon.handle(
                USER_A,
                Request::GetRelocation {
                    id: copy.root_puddle,
                },
            ) {
                Response::Relocation { needs_rewrite, .. } => assert!(!needs_rewrite),
                other => panic!("unexpected {other:?}"),
            }
        }
        other => panic!("unexpected {other:?}"),
    }

    // Importing under an existing name fails.
    match daemon.handle(
        USER_A,
        Request::ImportPool {
            src: dest.to_string_lossy().into_owned(),
            new_name: "orig".into(),
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::AlreadyExists),
        other => panic!("unexpected {other:?}"),
    }

    // An import is one transaction: one that would not fit one WAL record
    // leaves no record, no file and no granted space behind, and the daemon
    // keeps committing. The manifest alone fixes the record's size — one
    // fixed-size put per member next to the pool's name, so linear: a
    // 4 KiB name times 4,200 members is past the 16 MiB limit.
    let state = || {
        let tables = ["registry.pools", "registry.puddles", "alloc.free_bytes"];
        (
            counters(&daemon, tables),
            daemon.pm_dir().list_puddles().unwrap(),
        )
    };
    let before = state();
    let manifest_bytes = std::fs::read(dest.join("manifest.json")).unwrap();
    let mut manifest = puddled::importexport::ExportManifest::from_json(&manifest_bytes).unwrap();
    let template = manifest.puddles[0].clone();
    manifest.puddles = (0..4200)
        .map(|i| puddled::importexport::ExportedPuddle {
            id: PuddleId(manifest.root.0 + i),
            size: 2 * 4096,
            file: "member.pud".into(),
            ..template.clone()
        })
        .collect();
    let huge = tmp.path().join("huge");
    std::fs::create_dir(&huge).unwrap();
    std::fs::write(huge.join("member.pud"), vec![0u8; 2 * 4096]).unwrap();
    let manifest_bytes = manifest.to_json();
    std::fs::write(huge.join("manifest.json"), manifest_bytes).unwrap();
    let req = Request::ImportPool {
        src: huge.to_string_lossy().into_owned(),
        new_name: "r".repeat(4096),
    };
    match daemon.handle(USER_A, req) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::InvalidRequest);
            assert!(message.contains("metadata record of"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(state(), before);
    let next = Request::CreatePool {
        name: "next".into(),
        root_size: 1 << 20,
        mode: 0o600,
    };
    expect_pool(daemon.handle(USER_A, next));
    puddled::Invariants::assert_all(daemon.registry());
}

/// An export written by the build before the binary wire (preamble `PUD2`,
/// JSON frame bodies) imports on this one: the manifest is how a pool
/// crosses builds, so its shape never changes. The fixture's pool name
/// holds a quote, a backslash, a control character and non-ASCII text, and
/// this build writes it back byte for byte. Every byte-truncation of it is
/// refused, typed, with nothing granted or copied.
#[test]
fn a_manifest_the_json_wire_build_wrote_imports() {
    use puddled::importexport::{ExportManifest, MANIFEST_FILE};
    const MANIFEST: &[u8] = include_bytes!("fixtures/json_era_manifest.json");
    let manifest = ExportManifest::from_json(MANIFEST).unwrap();
    assert_eq!(manifest.pool, "q\"uote \\back\u{1}ctl pöol-ü 水");
    assert_eq!(manifest.ptr_maps[0].type_name, "fixture::Node<\"a\\b\">");
    assert_eq!(manifest.to_json(), MANIFEST);

    let (tmp, daemon) = start_daemon();
    let src = tmp.path().join("export");
    std::fs::create_dir(&src).unwrap();
    for puddle in &manifest.puddles {
        let file = std::fs::File::create(src.join(&puddle.file)).unwrap();
        file.set_len(puddle.size).unwrap();
    }
    let import = |bytes: &[u8]| {
        std::fs::write(src.join(MANIFEST_FILE), bytes).unwrap();
        let src = src.to_string_lossy().into_owned();
        let new_name = "imported".into();
        daemon.handle(USER_A, Request::ImportPool { src, new_name })
    };
    let state = || {
        let tables = ["space.used_bytes", "wal.tail_records", "registry.pools"];
        (
            counters(&daemon, tables),
            daemon.pm_dir().list_puddles().unwrap(),
        )
    };
    let before = state();
    for cut in 0..MANIFEST.len() {
        match import(&MANIFEST[..cut]) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::InvalidRequest, "{cut}"),
            other => panic!("{cut} bytes imported: {other:?}"),
        }
    }
    assert_eq!(state(), before);
    let (pool, translations) = match import(MANIFEST) {
        Response::Imported { pool, translations } => (pool, translations),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(pool.puddles.len(), 2);
    let exported_at: Vec<u64> = manifest.puddles.iter().map(|p| p.assigned_addr).collect();
    let old: Vec<u64> = translations.iter().map(|t| t.old_addr).collect();
    assert_eq!(old, exported_at);
    match daemon.handle(USER_A, Request::GetPtrMaps) {
        Response::PtrMaps(maps) => assert_eq!(maps, manifest.ptr_maps),
        other => panic!("unexpected {other:?}"),
    }
    puddled::Invariants::assert_all(daemon.registry());
}

/// `manifest.json` is input: an import checks it against the files it names
/// before it grants space or copies anything, and refuses, typed, a manifest
/// that does not check out — no file in `puddles/`, no space, no record.
#[test]
fn import_refuses_a_manifest_that_does_not_check_out() {
    use puddled::importexport::{ExportManifest, ExportedPuddle};
    let (tmp, daemon) = start_daemon();
    let page = 4096u64;
    let src = tmp.path().join("export");
    std::fs::create_dir(&src).unwrap();
    std::fs::write(src.join("member.pud"), vec![0u8; 2 * page as usize]).unwrap();
    // Where `../outside.pud` and an absolute name would lead.
    let outside = tmp.path().join("outside.pud");
    std::fs::write(&outside, vec![0u8; 2 * page as usize]).unwrap();
    let member = |id: u128, file: &str, size: u64| ExportedPuddle {
        id: PuddleId(id),
        size,
        assigned_addr: 0x7e00_0000_0000 + id as u64 * (1 << 20),
        file: file.into(),
        mode: 0o600,
    };
    let good = member(1, "member.pud", 2 * page);
    let absolute = outside.to_string_lossy().into_owned();
    // What the refusal must name, the manifest's root, its second entry.
    let at = |assigned_addr: u64| ExportedPuddle {
        assigned_addr,
        ..member(2, "member.pud", 2 * page)
    };
    let bad: [(&str, u128, ExportedPuddle); 9] = [
        ("`../outside.pud`", 1, member(2, "../outside.pud", 2 * page)),
        ("outside.pud`", 1, member(2, &absolute, 2 * page)),
        ("found None", 1, member(2, "absent.pud", 2 * page)),
        ("8200 bytes", 1, member(2, "member.pud", 2 * page + 8)),
        ("4096 bytes", 1, member(2, "member.pud", page)),
        ("found Some(8192)", 1, member(2, "member.pud", 4 * page)),
        ("at 0xffffffffffffefff:", 1, at(u64::MAX - page)),
        // 0 is a record's "never imported": it would drop out of the table.
        ("at 0x0:", 1, at(0)),
        (
            "root not in puddle list",
            9,
            member(2, "member.pud", 2 * page),
        ),
    ];
    let state = || {
        let tables = ["space.used_bytes", "wal.tail_records", "registry.pools"];
        let files = daemon.pm_dir().list_puddles().unwrap();
        let frontier = daemon.registry().snapshot().next_offset;
        (counters(&daemon, tables), frontier, files)
    };
    let before = state();
    let import = || {
        daemon.handle(
            USER_A,
            Request::ImportPool {
                src: src.to_string_lossy().into_owned(),
                new_name: "in".into(),
            },
        )
    };
    for (what, root, second) in bad {
        let manifest = ExportManifest {
            pool: "out".into(),
            root: PuddleId(root),
            puddles: vec![good.clone(), second],
            ptr_maps: Vec::new(),
        };
        let bytes = manifest.to_json();
        std::fs::write(src.join("manifest.json"), bytes).unwrap();
        match import() {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::InvalidRequest, "{what}: {message}");
                assert!(message.contains(what), "{what}: {message}");
            }
            other => panic!("{what}: unexpected {other:?}"),
        }
        assert_eq!(state(), before, "{what}");
    }
    // The same directory with a manifest that checks out imports.
    let manifest = ExportManifest {
        pool: "out".into(),
        root: PuddleId(1),
        puddles: vec![good.clone(), member(2, "member.pud", 2 * page)],
        ptr_maps: Vec::new(),
    };
    let bytes = manifest.to_json();
    std::fs::write(src.join("manifest.json"), bytes).unwrap();
    assert!(matches!(import(), Response::Imported { .. }));
    puddled::Invariants::assert_all(daemon.registry());
}

/// The other way an import is turned away: after its files are copied, by
/// the transaction itself (here the WAL refuses it — a full device poisoned
/// it one request earlier). Every copy is deleted again and every grant
/// returned: no file, no space, no record.
#[test]
fn an_import_refused_after_its_copies_deletes_them_and_returns_the_space() {
    use puddles_pmem::faultio::{FaultPlan, FaultProfile};
    let full_device = FaultProfile {
        write_enospc_ppm: 1_000_000,
        ..FaultProfile::default()
    };
    let plan = FaultPlan::new(1, full_device);
    plan.set_enabled(false);
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path()).with_fault_plan(plan.clone());
    let daemon = Daemon::start(config).unwrap();
    let pool = expect_pool(daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "orig".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    ));
    expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: Some(pool.name.clone()),
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    ));
    let dest = tmp.path().join("export");
    let export = Request::ExportPool {
        name: pool.name.clone(),
        dest: dest.to_string_lossy().into_owned(),
    };
    assert_eq!(daemon.handle(USER_A, export), Response::Ok);

    plan.set_enabled(true);
    let decl = puddles_proto::PtrMapDecl {
        type_id: 7,
        type_name: "T".into(),
        size: 16,
        fields: Vec::new(),
    };
    let resp = daemon.handle(USER_A, Request::RegisterPtrMap { decl });
    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    plan.set_enabled(false);

    // Records, files, and the allocator (a grant not returned would leave
    // the bump frontier past the last puddle).
    let state = || {
        let data = daemon.registry().snapshot();
        let files = daemon.pm_dir().list_puddles().unwrap();
        (
            data.pools,
            data.puddles,
            files,
            data.next_offset,
            data.free_list,
        )
    };
    let before = state();
    let import = Request::ImportPool {
        src: dest.to_string_lossy().into_owned(),
        new_name: "copy".into(),
    };
    // Refused where the record is enqueued: past the manifest check, the
    // grants and both copies.
    match daemon.handle(USER_A, import) {
        Response::Error { message, .. } => assert!(message.contains("poisoned"), "{message}"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(state(), before);
    assert_eq!(before.2.len(), 2);
    puddled::Invariants::assert_all(daemon.registry());
}

/// A daemon whose every sync fails while `plan` is enabled (it starts
/// disabled), holding pool `orig`, a 1 MiB root plus one 1 MiB member.
fn daemon_with_failing_syncs() -> (
    tempfile::TempDir,
    Daemon,
    std::sync::Arc<puddles_pmem::faultio::FaultPlan>,
) {
    use puddles_pmem::faultio::{FaultPlan, FaultProfile};
    let failing_syncs = FaultProfile {
        sync_eio_ppm: 1_000_000,
        ..FaultProfile::default()
    };
    let plan = FaultPlan::new(1, failing_syncs);
    plan.set_enabled(false);
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path()).with_fault_plan(plan.clone());
    let daemon = Daemon::start(config).unwrap();
    let create = Request::CreatePool {
        name: "orig".into(),
        root_size: 1 << 20,
        mode: 0o600,
    };
    expect_pool(daemon.handle(USER_A, create));
    expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: Some("orig".into()),
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    ));
    (tmp, daemon, plan)
}

/// Asserts `resp` is the refusal of a copy whose sync failed past the retry
/// budget: typed, naming the injected fault.
fn assert_refused_by_failing_sync(resp: Response) {
    match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal, "{message}");
            assert!(
                message.contains("injected EIO at puddle.create"),
                "{message}"
            );
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
}

/// An import's copies are synced, inside the retry budget, before its
/// record names them: with every sync failing the budget runs out on the
/// first copy, and the import is refused with no file, no space, no pool
/// and no record left behind.
#[test]
fn a_failing_sync_refuses_an_import_and_leaves_no_trace() {
    let (tmp, daemon, plan) = daemon_with_failing_syncs();
    let dest = tmp.path().join("export");
    let export = Request::ExportPool {
        name: "orig".into(),
        dest: dest.to_string_lossy().into_owned(),
    };
    assert_eq!(daemon.handle(USER_A, export), Response::Ok);
    let state = || {
        let tables = ["registry.pools", "wal.tail_records", "alloc.free_bytes"];
        (
            counters(&daemon, tables),
            daemon.pm_dir().list_puddles().unwrap(),
        )
    };
    let before = state();
    let retries = daemon.pm_dir().io_stats().io_retries();
    plan.set_enabled(true);
    let import = Request::ImportPool {
        src: dest.to_string_lossy().into_owned(),
        new_name: "copy".into(),
    };
    assert_refused_by_failing_sync(daemon.handle(USER_A, import));
    plan.set_enabled(false);
    assert_eq!(
        daemon.pm_dir().io_stats().io_retries() - retries,
        puddles_pmem::faultio::MAX_IO_RETRIES as u64
    );
    assert_eq!(state(), before);
    puddled::Invariants::assert_all(daemon.registry());
}

/// An export's manifest is written last, after every file it names is
/// synced: with every sync failing the export is refused and the
/// destination holds no manifest — neither a fresh one nor one a previous
/// export left there.
#[test]
fn a_failing_sync_refuses_an_export_and_writes_no_manifest() {
    let (tmp, daemon, plan) = daemon_with_failing_syncs();
    let dest = tmp.path().join("export");
    let export = || Request::ExportPool {
        name: "orig".into(),
        dest: dest.to_string_lossy().into_owned(),
    };
    for previous_export in [false, true] {
        if previous_export {
            assert_eq!(daemon.handle(USER_A, export()), Response::Ok);
            assert!(dest.join("manifest.json").exists());
        }
        plan.set_enabled(true);
        assert_refused_by_failing_sync(daemon.handle(USER_A, export()));
        plan.set_enabled(false);
        assert!(!dest.join("manifest.json").exists(), "{previous_export}");
    }
}

/// What a copy costs follows what a puddle holds: a 1 MiB root with one
/// page written copies at most that page and its header, out and back in.
#[test]
fn copy_counters_follow_the_data_not_the_puddle_size() {
    use std::os::unix::fs::FileExt;
    let (tmp, daemon) = start_daemon();
    let create = Request::CreatePool {
        name: "orig".into(),
        root_size: 1 << 20,
        mode: 0o600,
    };
    let pool = expect_pool(daemon.handle(USER_A, create));
    let root = daemon.pm_dir().puddle_path(&pool.root_puddle.to_hex());
    let file = std::fs::OpenOptions::new().write(true).open(root).unwrap();
    file.write_all_at(&[0x5a; 4096], 64 * 4096).unwrap();
    let dest = tmp.path().join("export");
    let export = Request::ExportPool {
        name: "orig".into(),
        dest: dest.to_string_lossy().into_owned(),
    };
    assert_eq!(daemon.handle(USER_A, export), Response::Ok);
    let import = Request::ImportPool {
        src: dest.to_string_lossy().into_owned(),
        new_name: "copy".into(),
    };
    assert!(matches!(
        daemon.handle(USER_A, import),
        Response::Imported { .. }
    ));
    let Response::Metrics(report) = daemon.handle(USER_A, Request::GetMetrics) else {
        panic!("no metrics");
    };
    assert_eq!(report.counter("copy.files"), Some(2));
    let bytes = report.counter("copy.bytes").unwrap();
    assert!(bytes <= 2 * 8192, "{bytes} B copied");
}

/// Builds a data puddle, a log-space puddle and a log puddle by hand (the
/// client library normally does this), writes an incomplete transaction,
/// and checks that daemon recovery rolls it back even though the "writer
/// application" is gone.
#[test]
fn recovery_replays_registered_logs_without_the_application() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();
    let gspace = daemon.global_space();

    // One data puddle, one log-space puddle, one log puddle.
    let data = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    ));
    let ls = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::LogSpace,
            mode: 0o600,
        },
    ));
    let lp = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Log,
            mode: 0o600,
        },
    ));
    assert_eq!(
        daemon.handle(USER_A, Request::RegLogSpace { puddle: ls.id }),
        Response::Ok
    );

    let base = gspace.base() as u64;
    let map = |info: &puddles_proto::PuddleInfo| -> usize {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&info.path)
            .unwrap();
        gspace
            .map_puddle(
                &file,
                (info.assigned_addr - base) as usize,
                info.size as usize,
                true,
            )
            .unwrap()
    };
    let data_addr = map(&data);
    let ls_addr = map(&ls);
    let lp_addr = map(&lp);

    // Simulate the writer: value 0xAA is durable, an in-flight transaction
    // undo-logged it and then overwrote it with 0xBB before "crashing".
    let target = data_addr + 0x8000;
    // SAFETY: `target` lies inside the freshly mapped writable data puddle.
    unsafe {
        std::ptr::write_bytes(target as *mut u8, 0xAA, 8);
    }
    // SAFETY: the log-space/log puddles are mapped writable for their size.
    let ls_ref = unsafe {
        LogSpaceRef::from_raw(
            (ls_addr + LOG_REGION_OFFSET) as *mut u8,
            ls.size as usize - LOG_REGION_OFFSET,
        )
    };
    ls_ref.init();
    ls_ref.register(lp.id.0, 1, 0).unwrap();
    let log = unsafe {
        LogRef::from_raw(
            (lp_addr + LOG_REGION_OFFSET) as *mut u8,
            lp.size as usize - LOG_REGION_OFFSET,
        )
    };
    log.init();
    LogWriter::begin(log)
        .unwrap()
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xAA; 8],
        )
        .unwrap();
    // The crash happens after the in-place update.
    // SAFETY: same mapped range as above.
    unsafe {
        std::ptr::write_bytes(target as *mut u8, 0xBB, 8);
    }

    // "Crash": drop every mapping and the daemon handle.
    // SAFETY: no references into the mappings remain.
    unsafe {
        gspace
            .unmap_puddle((data.assigned_addr - base) as usize)
            .unwrap();
        gspace
            .unmap_puddle((ls.assigned_addr - base) as usize)
            .unwrap();
        gspace
            .unmap_puddle((lp.assigned_addr - base) as usize)
            .unwrap();
    }
    drop(gspace);
    drop(daemon);

    // Restart the daemon: recovery runs before any application maps data.
    let daemon = Daemon::start(config).unwrap();
    let gspace = daemon.global_space();
    let data2 = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: data.id,
            writable: false,
        },
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&data2.path)
        .unwrap();
    let addr = gspace
        .map_puddle(
            &file,
            (data2.assigned_addr - gspace.base() as u64) as usize,
            data2.size as usize,
            false,
        )
        .unwrap();
    // SAFETY: mapped read-only just above.
    let recovered = unsafe { std::slice::from_raw_parts((addr + 0x8000) as *const u8, 8) };
    assert_eq!(
        recovered, &[0xAA; 8],
        "undo log must have rolled back the write"
    );
    // SAFETY: `recovered` is not used past this point.
    unsafe {
        gspace
            .unmap_puddle((data2.assigned_addr - gspace.base() as u64) as usize)
            .unwrap();
    }

    // The log was reset by recovery.
    let lp2 = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: lp.id,
            writable: true,
        },
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&lp2.path)
        .unwrap();
    let lp_addr = gspace
        .map_puddle(
            &file,
            (lp2.assigned_addr - gspace.base() as u64) as usize,
            lp2.size as usize,
            true,
        )
        .unwrap();
    // SAFETY: mapped writable above.
    let log = unsafe {
        LogRef::from_raw(
            (lp_addr + LOG_REGION_OFFSET) as *mut u8,
            lp2.size as usize - LOG_REGION_OFFSET,
        )
    };
    assert_eq!(log.seq_range(), RANGE_DONE);
    assert_eq!(log.iter().count(), 0);
    // SAFETY: `log` is not used past this point.
    unsafe {
        gspace
            .unmap_puddle((lp2.assigned_addr - gspace.base() as u64) as usize)
            .unwrap();
    }
}

#[test]
fn stats_reflect_daemon_state() {
    let (_tmp, daemon) = start_daemon();
    daemon.handle(
        USER_A,
        Request::CreatePool {
            name: "s".into(),
            root_size: 1 << 20,
            mode: 0o600,
        },
    );
    let tables = ["registry.pools", "registry.puddles"];
    assert_eq!(counters(&daemon, tables), [1, 1]);
    let [used, total] = counters(&daemon, ["space.used_bytes", "space.total_bytes"]);
    assert!(used >= 1 << 20);
    assert!(total > used);
}

#[test]
fn uds_server_answers_requests_from_another_connection() {
    let (tmp, daemon) = start_daemon();
    let socket = tmp.path().join("puddled.sock");
    let mut server = puddled::UdsServer::start(daemon.clone(), &socket).unwrap();

    let mut conn = raw_connection(&socket);
    let resp = conn
        .call(Request::CreatePool {
            name: "over-uds".into(),
            root_size: 1 << 20,
            mode: 0o600,
        })
        .unwrap();
    assert!(matches!(resp, Response::Pool(_)));

    // The pool is visible through the in-process endpoint too.
    let pool = daemon.handle(
        Credentials::current_process(),
        Request::OpenPool {
            name: "over-uds".into(),
        },
    );
    assert!(matches!(pool, Response::Pool(_)));
    server.shutdown();
}

#[test]
fn get_relocation_for_unknown_puddle_is_not_found() {
    let (_tmp, daemon) = start_daemon();
    match daemon.handle(
        USER_A,
        Request::GetRelocation {
            id: PuddleId(12345),
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("unexpected {other:?}"),
    }
}

/// Tentpole acceptance test: ≥8 simultaneous clients, each served by its own
/// connection handler thread, creating pools, running transactions, and
/// issuing relocation (translation) lookups — all against one daemon. The
/// watchdog turns a deadlock into a test failure instead of a hang, and the
/// final section checks the registry ended up consistent.
#[test]
fn concurrent_clients_create_pools_transact_and_translate() {
    use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    #[repr(C)]
    struct Counter {
        value: u64,
    }
    impl_pm_type!(Counter, "stress::Counter", []);

    const THREADS: usize = 8;
    const TXS_PER_THREAD: u64 = 25;
    const LOOKUPS_PER_TX: usize = 4;

    let (tmp, daemon) = start_daemon();
    let socket = tmp.path().join("stress.sock");
    let _server = puddled::UdsServer::start(daemon.clone(), &socket).unwrap();
    let gspace = daemon.global_space();

    let barrier = Arc::new(Barrier::new(THREADS));
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let socket = socket.clone();
        let gspace = Arc::clone(&gspace);
        let barrier = Arc::clone(&barrier);
        let done_tx = done_tx.clone();
        workers.push(std::thread::spawn(move || {
            // Every worker is a full client over the UNIX socket (sharing
            // the in-process global-space reservation).
            let client = PuddleClient::connect_uds_shared(&socket, gspace).unwrap();
            // A second raw connection for protocol-level lookups.
            let mut lookups = raw_connection(&socket);

            barrier.wait();
            let pool = client
                .create_pool(&format!("stress-{t}"), PoolOptions::default())
                .unwrap();
            pool.tx(|tx| pool.create_root(tx, Counter { value: 0 }))
                .unwrap();
            let root: PmPtr<Counter> = pool.root().unwrap();
            let root_puddle = pool.root_puddle().id();
            for i in 1..=TXS_PER_THREAD {
                pool.tx(|tx| {
                    let c = pool.deref_mut(root)?;
                    tx.set(&mut c.value, i)?;
                    Ok(())
                })
                .unwrap();
                // Interleave read-mostly translation lookups: these run
                // under the registry's shared read lock.
                for _ in 0..LOOKUPS_PER_TX {
                    match lookups
                        .call(Request::GetRelocation { id: root_puddle })
                        .unwrap()
                    {
                        Response::Relocation { needs_rewrite, .. } => {
                            assert!(!needs_rewrite, "fresh pool must not need rewriting")
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            assert_eq!(pool.deref(root).unwrap().value, TXS_PER_THREAD);
            done_tx.send(t).unwrap();
        }));
    }
    drop(done_tx);

    // Watchdog: a deadlocked daemon fails the test instead of hanging it.
    let mut finished = std::collections::HashSet::new();
    for _ in 0..THREADS {
        let t = done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a worker did not finish: daemon deadlocked or wedged");
        finished.insert(t);
    }
    assert_eq!(finished.len(), THREADS);
    for worker in workers {
        worker.join().unwrap();
    }

    // Registry consistency: every pool is present with its counter intact,
    // and no two puddles overlap in the global space.
    let creds = Credentials::current_process();
    let [pools, puddles] = counters(&daemon, ["registry.pools", "registry.puddles"]);
    assert_eq!(pools, THREADS as u64);
    // Each worker created at least a pool root, a log space, and a
    // per-thread log puddle.
    assert!(puddles >= 3 * THREADS as u64);
    let mut extents: Vec<(u64, u64)> = Vec::new();
    for t in 0..THREADS {
        let pool = expect_pool(daemon.handle(
            creds,
            Request::OpenPool {
                name: format!("stress-{t}"),
            },
        ));
        assert!(!pool.puddles.is_empty());
        for id in pool.puddles {
            let info = expect_puddle(daemon.handle(
                creds,
                Request::GetPuddle {
                    id,
                    writable: false,
                },
            ));
            extents.push((info.assigned_addr, info.size));
        }
    }
    extents.sort_unstable();
    for pair in extents.windows(2) {
        assert!(
            pair[0].0 + pair[0].1 <= pair[1].0,
            "puddle extents overlap: {pair:?}"
        );
    }
}

/// Shutdown must stay bounded even while a client is streaming well-formed
/// requests back-to-back (the handler checks the flag between frames) and
/// another stalled mid-frame.
/// Creates racing a drop of their pool: the pool check, the membership and
/// the record of a `CreatePuddle` are one transaction, and so is a
/// `DropPool` with all its members — so every create either lands before
/// the drop and is dropped with the pool, or after it and is `NotFound`.
/// No puddle survives the pool and none is left behind on disk.
#[test]
fn creates_racing_a_drop_are_dropped_with_the_pool_or_not_found() {
    use std::sync::Barrier;
    const CREATORS: usize = 8;
    const CREATES: usize = 4;
    let (_tmp, daemon) = start_daemon();
    let tables = || {
        counters(
            &daemon,
            ["registry.puddles", "registry.pools", "space.used_bytes"],
        )
    };
    let start = tables();
    let (mut landed, mut refused) = (0, 0);
    for _round in 0..16 {
        let create = Request::CreatePool {
            name: "race".into(),
            root_size: 2 * 4096,
            mode: 0o600,
        };
        expect_pool(daemon.handle(USER_A, create));
        // The creators are released at once; the drop goes out when the
        // first create has landed, with the others in flight around it.
        let barrier = Barrier::new(CREATORS);
        let (landed_tx, landed_rx) = std::sync::mpsc::channel();
        let created: Vec<PuddleId> = std::thread::scope(|scope| {
            let creators: Vec<_> = (0..CREATORS)
                .map(|_| {
                    let landed_tx = landed_tx.clone();
                    let barrier = &barrier;
                    let daemon = &daemon;
                    scope.spawn(move || {
                        barrier.wait();
                        let mut created = Vec::new();
                        for _ in 0..CREATES {
                            let join = Request::CreatePuddle {
                                size: 2 * 4096,
                                pool: Some("race".into()),
                                purpose: PuddlePurpose::Data,
                                mode: 0o600,
                            };
                            match daemon.handle(USER_A, join) {
                                Response::Puddle(info) => {
                                    created.push(info.id);
                                    landed_tx.send(()).unwrap();
                                }
                                Response::Error { code, .. } => {
                                    assert_eq!(code, ErrorCode::NotFound)
                                }
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                        created
                    })
                })
                .collect();
            landed_rx.recv().unwrap();
            let drop = Request::DropPool {
                name: "race".into(),
            };
            assert_eq!(daemon.handle(USER_A, drop), Response::Ok);
            creators
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        landed += created.len();
        refused += CREATORS * CREATES - created.len();
        for id in created {
            assert!(
                daemon.registry().puddle(id).is_none(),
                "puddle {id} outlived its pool"
            );
        }
        assert_eq!(tables(), start);
        assert!(daemon.pm_dir().list_puddles().unwrap().is_empty());
        puddled::Invariants::assert_all(daemon.registry());
    }
    assert!(landed >= 16, "a create landed before each drop");
    // Not an assertion on the scheduler: a record of what the rounds saw.
    eprintln!("creates dropped with their pool: {landed}, refused NotFound: {refused}");
}

#[test]
fn shutdown_is_bounded_under_busy_and_stalled_clients() {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let (tmp, daemon) = start_daemon();
    let socket = tmp.path().join("busy.sock");
    let mut server = puddled::UdsServer::start(daemon, &socket).unwrap();

    // Busy client: streams Ping frames and reads responses as fast as the
    // daemon answers, so its handler never blocks long on a read.
    let stop = Arc::new(AtomicBool::new(false));
    let busy_stop = Arc::clone(&stop);
    let busy_socket = socket.clone();
    let busy = std::thread::spawn(move || {
        let mut conn = raw_connection(&busy_socket);
        while !busy_stop.load(Ordering::SeqCst) {
            if conn.call(Request::Ping).is_err() {
                break;
            }
        }
    });

    // Stalled client: sends two bytes — not even a whole preamble — and
    // goes silent.
    let mut stalled = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    stalled.write_all(&[0x10, 0x00]).unwrap();

    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    server.shutdown();
    let elapsed = start.elapsed();
    // Grace (5s) + margin (2s) is the documented bound; allow slack for CI.
    assert!(
        elapsed < Duration::from_secs(10),
        "shutdown took {elapsed:?}, expected bounded"
    );

    stop.store(true, Ordering::SeqCst);
    drop(stalled);
    busy.join().unwrap();
}

#[test]
fn recovery_replays_chained_logs_in_order_and_reclaims_tails() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();
    let gspace = daemon.global_space();

    let create = |purpose| {
        expect_puddle(daemon.handle(
            USER_A,
            Request::CreatePuddle {
                size: 1 << 20,
                pool: None,
                purpose,
                mode: 0o600,
            },
        ))
    };
    // One data puddle, a log space, and a three-segment log chain whose
    // last tail never saw an append (the chain-extension crash window).
    let data = create(PuddlePurpose::Data);
    let ls = create(PuddlePurpose::LogSpace);
    let head = create(PuddlePurpose::Log);
    let tail = create(PuddlePurpose::Log);
    let empty_tail = create(PuddlePurpose::Log);
    assert_eq!(
        daemon.handle(USER_A, Request::RegLogSpace { puddle: ls.id }),
        Response::Ok
    );

    let base = gspace.base() as u64;
    let map = |info: &puddles_proto::PuddleInfo| -> usize {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&info.path)
            .unwrap();
        gspace
            .map_puddle(
                &file,
                (info.assigned_addr - base) as usize,
                info.size as usize,
                true,
            )
            .unwrap()
    };
    let data_addr = map(&data);
    let ls_addr = map(&ls);
    let head_addr = map(&head);
    let tail_addr = map(&tail);
    let empty_addr = map(&empty_tail);

    let target = data_addr + 0x4000;
    // SAFETY: `target` lies inside the freshly mapped writable data puddle.
    unsafe { std::ptr::write_bytes(target as *mut u8, 0xCC, 8) };

    // SAFETY: the puddles are mapped writable for their full size.
    let ls_ref = unsafe {
        LogSpaceRef::from_raw(
            (ls_addr + LOG_REGION_OFFSET) as *mut u8,
            ls.size as usize - LOG_REGION_OFFSET,
        )
    };
    ls_ref.init();
    ls_ref.register(head.id.0, 1, 0).unwrap();
    ls_ref.register(tail.id.0, 1, 1).unwrap();
    ls_ref.register(empty_tail.id.0, 1, 2).unwrap();

    let make_log = |addr: usize, info: &puddles_proto::PuddleInfo| -> LogRef {
        // SAFETY: mapped writable for the puddle's full size above.
        let log = unsafe {
            LogRef::from_raw(
                (addr + LOG_REGION_OFFSET) as *mut u8,
                info.size as usize - LOG_REGION_OFFSET,
            )
        };
        log.init();
        log
    };
    // Two undo entries for the SAME address, split across segments: the
    // head's (older, 0xAA) was logged before the tail's (0xBB). Reverse
    // replay must apply the tail entry first and the head entry last, so
    // the oldest value wins — exactly as if both sat in one log.
    let mut writer = LogWriter::begin(make_log(head_addr, &head)).unwrap();
    writer
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xAA; 8],
        )
        .unwrap();
    // The tail's header reads EXEC too (`extend`), but recovery must key
    // off the *head*.
    writer.extend(make_log(tail_addr, &tail)).unwrap();
    writer
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xBB; 8],
        )
        .unwrap();
    make_log(empty_addr, &empty_tail); // registered, never appended to

    // "Crash": drop every mapping and the daemon handle.
    for info in [&data, &ls, &head, &tail, &empty_tail] {
        // SAFETY: no references into the mappings remain.
        unsafe {
            gspace
                .unmap_puddle((info.assigned_addr - base) as usize)
                .unwrap();
        }
    }
    drop(gspace);
    drop(daemon);

    // Restart: recovery stitches the chain, replays across the boundary,
    // and reclaims both tails (the empty one is benign).
    let daemon = Daemon::start(config).unwrap();
    let gspace = daemon.global_space();
    let data2 = expect_puddle(daemon.handle(
        USER_A,
        Request::GetPuddle {
            id: data.id,
            writable: false,
        },
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .open(&data2.path)
        .unwrap();
    let addr = gspace
        .map_puddle(
            &file,
            (data2.assigned_addr - base) as usize,
            data2.size as usize,
            false,
        )
        .unwrap();
    // SAFETY: mapped read-only just above.
    let recovered = unsafe { std::slice::from_raw_parts((addr + 0x4000) as *const u8, 8) };
    assert_eq!(
        recovered, &[0xAA; 8],
        "reverse replay across the chain must leave the oldest value"
    );
    // SAFETY: `recovered` is not used past this point.
    unsafe {
        gspace
            .unmap_puddle((data2.assigned_addr - base) as usize)
            .unwrap();
    }

    // The head survives (reset), the tails are gone.
    assert!(matches!(
        daemon.handle(
            USER_A,
            Request::GetPuddle {
                id: head.id,
                writable: true
            }
        ),
        Response::Puddle(_)
    ));
    for freed in [tail.id, empty_tail.id] {
        assert!(
            matches!(
                daemon.handle(
                    USER_A,
                    Request::GetPuddle {
                        id: freed,
                        writable: true
                    }
                ),
                Response::Error {
                    code: ErrorCode::NotFound,
                    ..
                }
            ),
            "chain tail must have been reclaimed"
        );
    }
}

/// The `ensure_logspace` crash window: the client crashed after the daemon
/// allocated its LogSpace puddle but before `RegLogSpace` registered it.
/// No recovery pass walks the puddle (recovery iterates *registered* log
/// spaces) — only the startup sweep can reclaim it.
#[test]
fn unregistered_logspace_puddles_are_swept_at_startup() {
    use puddles::{PoolOptions, PuddleClient};
    use puddles_pmem::failpoint;

    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let logspace_count;
    {
        let daemon = Daemon::start(config.clone()).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        let pool = client.create_pool("ls", PoolOptions::default()).unwrap();
        // First transaction ever on this client: it must create the log
        // space — crash between the allocation and the registration. The
        // transaction runs on this thread, so the failpoint is armed for it
        // alone: other tests' clients in this binary must not trip it.
        failpoint::arm_scoped(failpoint::names::LOGSPACE_ALLOC_CRASH, 0);
        let err = pool.tx(|_tx| Ok(())).unwrap_err();
        failpoint::clear_current_thread();
        assert!(
            err.is_injected_crash(),
            "expected injected crash, got {err}"
        );
        // The leak is visible daemon-side: a LogSpace puddle exists but the
        // log-space table is empty.
        let log_spaces;
        [logspace_count, log_spaces] =
            counters(&daemon, ["registry.puddles", "registry.log_spaces"]);
        assert_eq!(log_spaces, 0);
        // The "crashed" client and daemon are dropped without cleanup.
    }

    let daemon = Daemon::start(config).unwrap();
    let after = ["sweep.log_puddles", "registry.puddles", "registry.pools"];
    // The sweep must not have touched the pool.
    assert_eq!(counters(&daemon, after), [1, logspace_count - 1, 1]);
}

#[test]
fn unreferenced_log_puddles_are_swept_at_startup() {
    let tmp = tempfile::tempdir().unwrap();
    let config = DaemonConfig::for_testing(tmp.path());
    let daemon = Daemon::start(config.clone()).unwrap();

    // A log puddle that no log space ever references: the crash window
    // between allocating a chain segment and registering it.
    let orphan = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Log,
            mode: 0o600,
        },
    ));
    // A data puddle must NOT be touched by the sweep.
    let data = expect_puddle(daemon.handle(
        USER_A,
        Request::CreatePuddle {
            size: 1 << 20,
            pool: None,
            purpose: PuddlePurpose::Data,
            mode: 0o600,
        },
    ));
    drop(daemon);

    let daemon = Daemon::start(config).unwrap();
    assert_eq!(counters(&daemon, ["sweep.log_puddles"]), [1]);
    assert!(matches!(
        daemon.handle(
            USER_A,
            Request::GetPuddle {
                id: orphan.id,
                writable: true
            }
        ),
        Response::Error {
            code: ErrorCode::NotFound,
            ..
        }
    ));
    assert!(matches!(
        daemon.handle(
            USER_A,
            Request::GetPuddle {
                id: data.id,
                writable: true
            }
        ),
        Response::Puddle(_)
    ));
}

/// The one startup sweep keeps its one exception: a log space it cannot
/// read may reference any `Log` puddle, so none is dropped, while an
/// unregistered `LogSpace` puddle is known unreachable from the registry
/// alone and still goes.
#[test]
fn an_unreadable_log_space_spares_log_puddles_but_not_unregistered_log_spaces() {
    let tmp = tempfile::tempdir().unwrap();
    // No recovery pass: it would refuse to start over the unreadable space.
    let config = DaemonConfig::for_testing(tmp.path()).no_auto_recover();
    let daemon = Daemon::start(config.clone()).unwrap();
    let create = |purpose| {
        expect_puddle(daemon.handle(
            USER_A,
            Request::CreatePuddle {
                size: 1 << 20,
                pool: None,
                purpose,
                mode: 0o600,
            },
        ))
    };
    let registered = create(PuddlePurpose::LogSpace);
    let register = Request::RegLogSpace {
        puddle: registered.id,
    };
    assert_eq!(daemon.handle(USER_A, register), Response::Ok);
    let log = create(PuddlePurpose::Log);
    let unregistered = create(PuddlePurpose::LogSpace);
    drop(daemon);
    std::fs::remove_file(&registered.path).unwrap();

    let daemon = Daemon::start(config).unwrap();
    assert_eq!(counters(&daemon, ["sweep.log_puddles"]), [1]);
    let exists = |id| {
        let get = Request::GetPuddle {
            id,
            writable: false,
        };
        matches!(daemon.handle(USER_A, get), Response::Puddle(_))
    };
    assert!(exists(log.id), "a possibly referenced log was dropped");
    assert!(!exists(unregistered.id));
}
