//! The paper's deployment shape: `puddled` running as its own process, and
//! a client in *another* process that reserves the global puddle space
//! itself at the base the daemon reports (`PuddleClient::connect_uds`) —
//! every other test shares the in-process daemon's reservation. The same
//! live daemon is then inspected with the `puddle-stat` binary.

use puddles::{impl_pm_type, PmPtr, PoolOptions, PuddleClient};
use std::path::Path;
use std::process::{Child, Command, Stdio};
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

fn spawn_puddled(pm_dir: &Path, socket: &Path) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_puddled"))
        .arg("--pm-dir")
        .arg(pm_dir)
        .arg("--socket")
        .arg(socket)
        .args(["--space-base", &format!("{SPACE_BASE:#x}")])
        .args(["--space-size", &SPACE_SIZE.to_string()])
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

#[test]
fn a_client_process_drives_a_spawned_puddled_and_puddle_stat_reads_it() {
    let tmp = tempfile::tempdir().unwrap();
    let socket = tmp.path().join("puddled.sock");
    let _daemon = spawn_puddled(&tmp.path().join("pm"), &socket);

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
    let stats = client.stats().expect("stats");
    assert_eq!(stats.pools, 1);
    // Root puddle, log space, this thread's log.
    assert!(stats.puddles >= 3, "{stats:?}");

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
    assert_eq!(client.stats().unwrap().pools, 0);
}
