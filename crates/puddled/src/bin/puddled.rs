//! The `puddled` daemon binary.
//!
//! Usage:
//!
//! ```text
//! puddled --pm-dir /mnt/pmem0/puddles --socket /run/puddled.sock \
//!         [--space-size BYTES] [--space-base HEX] [--no-recover]
//!         [--max-connections N]
//! ```
//!
//! Starts the daemon (running crash recovery unless `--no-recover` is
//! given) and serves client requests on the UNIX-domain socket until the
//! process is terminated.

use puddled::{Daemon, DaemonConfig, UdsServer, DEFAULT_MAX_CONNECTIONS};
use std::process::exit;

struct Args {
    pm_dir: String,
    socket: String,
    space_size: usize,
    space_base: Option<usize>,
    auto_recover: bool,
    max_connections: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        pm_dir: String::new(),
        socket: String::new(),
        space_size: puddles_pmem::DEFAULT_SPACE_SIZE,
        space_base: Some(puddles_pmem::DEFAULT_SPACE_BASE),
        auto_recover: true,
        max_connections: DEFAULT_MAX_CONNECTIONS,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--pm-dir" => args.pm_dir = iter.next().ok_or("--pm-dir needs a value")?,
            "--socket" => args.socket = iter.next().ok_or("--socket needs a value")?,
            "--space-size" => {
                args.space_size = iter
                    .next()
                    .ok_or("--space-size needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --space-size: {e}"))?
            }
            "--space-base" => {
                let v = iter.next().ok_or("--space-base needs a value")?;
                let v = v.trim_start_matches("0x");
                args.space_base = Some(
                    usize::from_str_radix(v, 16).map_err(|e| format!("bad --space-base: {e}"))?,
                );
            }
            "--no-recover" => args.auto_recover = false,
            "--max-connections" => {
                args.max_connections = iter
                    .next()
                    .ok_or("--max-connections needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --max-connections: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: puddled --pm-dir DIR --socket PATH [--space-size BYTES] \
                     [--space-base HEX] [--no-recover] [--max-connections N]"
                );
                exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.pm_dir.is_empty() || args.socket.is_empty() {
        return Err("--pm-dir and --socket are required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("puddled: {e}");
            exit(2);
        }
    };
    let config = DaemonConfig {
        space_base: args.space_base,
        space_size: args.space_size,
        auto_recover: args.auto_recover,
        ..DaemonConfig::new(args.pm_dir.clone())
    };
    let daemon = match Daemon::start(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("puddled: failed to start: {e}");
            exit(1);
        }
    };
    let server = UdsServer::start_with_max_connections(daemon, &args.socket, args.max_connections);
    let _server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("puddled: failed to bind {}: {e}", args.socket);
            exit(1);
        }
    };
    eprintln!("puddled: serving {} (pm dir {})", args.socket, args.pm_dir);
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
