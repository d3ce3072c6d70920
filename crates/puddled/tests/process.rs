//! The paper's deployment shape: `puddled` running as its own process, and
//! a client in *another* process that reserves the global puddle space
//! itself at the base the daemon reports (`PuddleClient::connect_uds`) —
//! every other test shares the in-process daemon's reservation. The same
//! live daemon is then inspected with the `puddle-stat` binary, and a
//! spawned daemon's threads are read from `/proc`.

use puddled::registry::Registry;
use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::PAGE_SIZE;
use puddles_proto::{BlockingConn, Credentials, PuddlePurpose, Request, Response};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A global-space placement no in-process test daemon uses
/// (`DaemonConfig::for_testing` starts at `0x5100_0000_0000`), so this
/// process can reserve it for the client.
const SPACE_BASE: u64 = 0x6200_0000_0000;
const SPACE_SIZE: u64 = 8 << 30;

#[repr(C)]
struct Counter {
    value: u64,
}
impl_pm_type!(Counter, "process::Counter", []);

/// Kills the daemon when the test ends, pass or fail.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_puddled(pm_dir: &Path, socket: &Path, flags: &[&str]) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_puddled"))
        .arg("--pm-dir")
        .arg(pm_dir)
        .arg("--socket")
        .arg(socket)
        .args(["--space-base", &format!("{SPACE_BASE:#x}")])
        .args(["--space-size", &SPACE_SIZE.to_string()])
        .args(flags)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn puddled");
    let mut daemon = Daemon(child);
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        if let Some(status) = daemon.0.try_wait().expect("poll puddled") {
            panic!("puddled exited before serving: {status}");
        }
        assert!(Instant::now() < deadline, "puddled never bound its socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon
}

fn handshake(socket: &Path) -> BlockingConn<UnixStream> {
    let stream = UnixStream::connect(socket).expect("connect");
    BlockingConn::handshake(stream, Request::hello(Credentials::current_process()))
        .expect("handshake")
}

/// The `comm` of every thread of process `pid` (the kernel cuts it to 15
/// bytes), sorted.
fn thread_names(pid: u32) -> Vec<String> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).expect("task list");
    let mut names: Vec<String> = tasks
        .map(|task| {
            let comm = task.expect("task").path().join("comm");
            let comm = std::fs::read_to_string(comm).expect("comm");
            comm.trim_end().to_string()
        })
        .collect();
    names.sort();
    names
}

/// The daemon owns two kinds of thread: the one reactor, which accepts,
/// reads, runs inline requests and writes, and the worker pool. Nothing
/// else runs beside its main thread.
#[test]
fn a_spawned_puddled_runs_one_reactor_and_its_workers_and_nothing_else() {
    let tmp = tempfile::tempdir().unwrap();
    let socket = tmp.path().join("puddled.sock");
    let daemon = spawn_puddled(&tmp.path().join("pm"), &socket, &[]);
    // A served handshake: the reactor is running.
    let _conn = handshake(&socket);

    // A thread carries its parent's `comm` until it has named itself.
    let count = |names: &[String], name: &str| names.iter().filter(|n| *n == name).count();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut names = thread_names(daemon.0.id());
    while count(&names, "puddled") > 1 {
        assert!(Instant::now() < deadline, "threads never named: {names:?}");
        std::thread::sleep(Duration::from_millis(10));
        names = thread_names(daemon.0.id());
    }
    let workers = count(&names, "puddled-worker-");
    assert!(workers >= 2, "{names:?}");
    assert_eq!(count(&names, "puddled-reactor"), 1, "{names:?}");
    assert_eq!(count(&names, "puddled"), 1, "{names:?}");
    assert_eq!(
        names.len(),
        1 + 1 + workers,
        "unexpected threads: {names:?}"
    );
}

#[test]
fn a_client_process_drives_a_spawned_puddled_and_puddle_stat_reads_it() {
    let tmp = tempfile::tempdir().unwrap();
    let socket = tmp.path().join("puddled.sock");
    let _daemon = spawn_puddled(&tmp.path().join("pm"), &socket, &[]);

    // The client maps puddles at the daemon's addresses in its own
    // reservation: native pointers only work if the bases agree.
    let client = PuddleClient::connect_uds(&socket).expect("connect_uds");
    assert_eq!(client.space_base(), SPACE_BASE);

    let pool = client
        .create_pool("proc", PoolOptions::default())
        .expect("create pool");
    pool.tx(|tx| pool.create_root(tx, Counter { value: 0 }))
        .expect("allocate the root");
    let root: PmPtr<Counter> = pool.root().unwrap();
    for i in 1..=10 {
        pool.tx(|tx| {
            let c = pool.deref_mut(root)?;
            tx.set(&mut c.value, i)?;
            Ok(())
        })
        .expect("transaction");
    }
    assert_eq!(pool.deref(root).unwrap().value, 10);
    let report = client.metrics().expect("metrics");
    assert_eq!(report.counter("registry.pools"), Some(1));
    // Root puddle, log space, this thread's log.
    let puddles = report.counter("registry.puddles");
    assert!(puddles >= Some(3), "{puddles:?}");

    // `puddle-stat` against the same daemon: the CreatePool above must have
    // been timed, and the table must render.
    let gate = Command::new(env!("CARGO_BIN_EXE_puddle-stat"))
        .arg("--socket")
        .arg(&socket)
        .args(["--require", "service.CreatePool"])
        .output()
        .expect("run puddle-stat");
    let table = String::from_utf8_lossy(&gate.stdout);
    assert!(
        gate.status.success(),
        "puddle-stat failed: {}\n{table}",
        String::from_utf8_lossy(&gate.stderr)
    );
    assert!(table.contains("service.CreatePool"), "{table}");
    // An unknown series fails the gate (exit 1), so the pass above means
    // something.
    let miss = Command::new(env!("CARGO_BIN_EXE_puddle-stat"))
        .arg("--socket")
        .arg(&socket)
        .args(["--require", "service.NoSuchRequest"])
        .output()
        .expect("run puddle-stat");
    assert_eq!(miss.status.code(), Some(1));

    drop(pool);
    client.drop_pool("proc").expect("drop pool");
    let pools = client.metrics().unwrap().counter("registry.pools");
    assert_eq!(pools, Some(0));
}

/// The space allocator is derived state: a daemon killed (`SIGKILL`) in the
/// middle of a `CreatePuddle`/`FreePuddle` storm logged no allocator record,
/// and the daemon restarted over its directory reports exactly the free
/// space its puddle table implies.
#[test]
fn a_puddled_killed_mid_storm_restarts_with_the_allocator_its_puddle_table_implies() {
    const PAGE: u64 = PAGE_SIZE as u64;
    let tmp = tempfile::tempdir().unwrap();
    let (pm_dir, socket) = (tmp.path().join("pm"), tmp.path().join("puddled.sock"));
    let connect = || handshake(&socket);

    let daemon = spawn_puddled(&pm_dir, &socket, &[]);
    let created = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let mut conn = connect();
            let created = &created;
            scope.spawn(move || {
                // Mixed sizes, most puddles freed again out of order: holes
                // of every shape below the frontier. Ends when the daemon
                // dies under it.
                let mut live = Vec::new();
                for i in 0u64.. {
                    let create = Request::CreatePuddle {
                        size: (2 + (i * 7 + t * 3) % 31) * PAGE,
                        pool: None,
                        purpose: PuddlePurpose::Data,
                        mode: 0o600,
                    };
                    match conn.call(create) {
                        Ok(Response::Puddle(info)) => live.push(info.id),
                        Ok(other) => panic!("unexpected {other:?}"),
                        Err(_) => return,
                    }
                    created.fetch_add(1, Ordering::SeqCst);
                    if i % 3 != 0 {
                        let id = live.swap_remove((i * 5) as usize % live.len());
                        if conn.call(Request::FreePuddle { id }).is_err() {
                            return;
                        }
                    }
                }
            });
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while created.load(Ordering::SeqCst) < 200 {
            assert!(Instant::now() < deadline, "the storm never got going");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(daemon); // SIGKILL, every client mid-call
    });

    // The dead daemon's WAL tail: `Wal::open` refuses a file holding one
    // intact record it cannot decode, and the retired extent tags are
    // undecodable, so opening it proves no allocator record was logged.
    let pm = PmDir::open(&pm_dir).unwrap();
    let records = puddled::Wal::open(&pm)
        .expect("WAL tail")
        .take_initial_replay();
    assert!(records.len() >= 200, "only {} records", records.len());

    // Restart over the same directory and ask the daemon what is free.
    std::fs::remove_file(&socket).unwrap();
    let daemon = spawn_puddled(&pm_dir, &socket, &[]);
    let Response::Metrics(report) = connect().call(Request::GetMetrics).expect("metrics") else {
        panic!("expected Metrics");
    };
    drop(daemon);
    let counter = |name| {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("no `{name}`"))
    };

    // The puddle table it restarted from, and the gaps between its extents.
    let reg = Registry::load_or_create(&pm, SPACE_BASE, SPACE_SIZE).unwrap();
    assert_eq!(puddled::Invariants::check_all(&reg), Vec::<String>::new());
    let mut extents: Vec<(u64, u64)> = reg
        .snapshot()
        .puddles
        .values()
        .map(|p| (p.offset, p.size.next_multiple_of(PAGE)))
        .collect();
    extents.sort_unstable();
    assert_eq!(extents.len() as u64, counter("registry.puddles"));
    let (mut cursor, mut gaps) = (PAGE, Vec::new());
    for (offset, len) in extents {
        if offset > cursor {
            gaps.push(offset - cursor);
        }
        cursor = offset + len;
    }
    assert!(gaps.len() > 1, "the storm left no holes: {gaps:?}");
    let free: u64 = gaps.iter().sum();
    let largest = *gaps.iter().max().unwrap();
    assert_eq!(counter("alloc.free_bytes"), free);
    assert_eq!(counter("alloc.free_extents"), gaps.len() as u64);
    let fragmentation = 10_000 - largest * 10_000 / free;
    assert_eq!(counter("alloc.fragmentation_bp"), fragmentation);
}

/// Every file under `root` with its contents.
fn dir_image(root: &Path) -> std::collections::BTreeMap<std::path::PathBuf, Vec<u8>> {
    let mut image = std::collections::BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                image.insert(path.clone(), std::fs::read(&path).unwrap());
            }
        }
    }
    image
}

/// The upgrade rule, enforced: a PM directory that still holds the
/// `meta/registry.json` checkpoint of an older build is refused at startup —
/// this build reads `registry.wal` alone, would see whatever that file says
/// (nothing, after the old build's own upgrade step) and sweep every puddle
/// as an orphan. The refusal names the way across (`ExportPool` /
/// `ImportPool`) and leaves the directory byte-identical.
#[test]
fn a_puddled_refuses_a_directory_that_still_holds_a_json_checkpoint() {
    let tmp = tempfile::tempdir().unwrap();
    let (pm_dir, socket) = (tmp.path().join("pm"), tmp.path().join("puddled.sock"));
    let daemon = spawn_puddled(&pm_dir, &socket, &[]);
    let mut conn = handshake(&socket);
    let create = Request::CreatePool {
        name: "precious".into(),
        root_size: 4 * PAGE_SIZE as u64,
        mode: 0o600,
    };
    assert!(matches!(conn.call(create), Ok(Response::Pool(_))));
    drop(daemon);
    std::fs::remove_file(&socket).unwrap();

    std::fs::write(pm_dir.join("meta").join("registry.json"), b"{}").unwrap();
    let before = dir_image(&pm_dir);
    assert!(before
        .keys()
        .any(|p| p.parent().unwrap().ends_with("puddles")));

    let refused = Command::new(env!("CARGO_BIN_EXE_puddled"))
        .arg("--pm-dir")
        .arg(&pm_dir)
        .arg("--socket")
        .arg(&socket)
        .args(["--space-base", &format!("{SPACE_BASE:#x}")])
        .args(["--space-size", &SPACE_SIZE.to_string()])
        .output()
        .expect("run puddled");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "puddled served the directory");
    assert!(
        stderr.contains("registry.json") && stderr.contains("ExportPool"),
        "the refusal must name the rule: {stderr}"
    );
    assert!(!socket.exists());
    assert_eq!(
        dir_image(&pm_dir),
        before,
        "the directory must be untouched"
    );
}
