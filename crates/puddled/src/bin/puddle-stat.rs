//! `puddle-stat`: inspect a running `puddled`'s observability plane.
//!
//! Usage:
//!
//! ```text
//! puddle-stat --socket /run/puddled.sock
//!             [--json [PATH]] [--watch SECS] [--require SERIES]...
//! ```
//!
//! Connects over the daemon's UNIX socket
//! ([`puddles_proto::BlockingConn`]: preamble, `Hello`, then one
//! `GetMetrics` round trip) and renders the latency histograms and
//! counters.
//!
//! * default: a human-readable table on stdout;
//! * `--json` (optionally followed by a path): the raw
//!   [`MetricsReport`] as pretty-printed JSON ([`MetricsReport::to_json`]),
//!   to stdout or `PATH`;
//! * `--watch SECS`: poll and re-render every `SECS` seconds until
//!   interrupted;
//! * `--require SERIES` (repeatable): exit non-zero unless the named
//!   series has a non-zero sample count and a finite, non-zero p99 —
//!   the CI smoke gate ("the daemon actually timed requests under load").

use puddles_proto::{BlockingConn, Credentials, MetricsReport, Request, Response, SeriesSnapshot};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::process::exit;

struct Args {
    socket: String,
    json: bool,
    json_path: Option<String>,
    watch: Option<u64>,
    require: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: String::new(),
        json: false,
        json_path: None,
        watch: None,
        require: Vec::new(),
    };
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--socket" => args.socket = iter.next().ok_or("--socket needs a value")?,
            "--json" => {
                args.json = true;
                // The path operand is optional: `--json out.json` writes a
                // file, bare `--json` prints to stdout.
                if iter.peek().is_some_and(|next| !next.starts_with('-')) {
                    args.json_path = iter.next();
                }
            }
            "--watch" => {
                args.watch = Some(
                    iter.next()
                        .ok_or("--watch needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --watch: {e}"))?,
                )
            }
            "--require" => args
                .require
                .push(iter.next().ok_or("--require needs a value")?),
            "--help" | "-h" => {
                println!(
                    "usage: puddle-stat --socket PATH [--json [PATH]] [--watch SECS] \
                     [--require SERIES]..."
                );
                exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.socket.is_empty() {
        return Err("--socket is required".into());
    }
    Ok(args)
}

fn fetch(socket: &str) -> Result<MetricsReport, String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect {socket}: {e}"))?;
    let hello = Request::hello(Credentials::current_process());
    let mut conn = BlockingConn::handshake(stream, hello).map_err(|e| format!("handshake: {e}"))?;
    match conn
        .call(Request::GetMetrics)
        .map_err(|e| format!("GetMetrics: {e}"))?
    {
        Response::Metrics(report) => Ok(report),
        Response::Error { code, message } => Err(format!("daemon error {code:?}: {message}")),
        other => Err(format!("unexpected GetMetrics reply: {other:?}")),
    }
}

/// Renders nanoseconds at a human scale (ns / µs / ms / s).
fn human_nanos(nanos: u64) -> String {
    match nanos {
        0..=999 => format!("{nanos}ns"),
        1_000..=999_999 => format!("{:.1}us", nanos as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", nanos as f64 / 1e6),
        _ => format!("{:.3}s", nanos as f64 / 1e9),
    }
}

fn render_table(report: &MetricsReport) {
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "series", "count", "mean", "p50", "p90", "p99", "max"
    );
    for s in &report.series {
        let mean = s.sum_nanos.checked_div(s.count).unwrap_or(0);
        println!(
            "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            s.name,
            s.count,
            human_nanos(mean),
            human_nanos(s.p50_nanos),
            human_nanos(s.p90_nanos),
            human_nanos(s.p99_nanos),
            human_nanos(s.max_nanos),
        );
    }
    if !report.counters.is_empty() {
        println!();
        println!("{:<40} {:>12}", "counter", "value");
        for c in &report.counters {
            println!("{:<40} {:>12}", c.name, c.value);
        }
    }
    println!();
    println!(
        "trace ring: {} events buffered, {} dropped",
        report.trace_buffered, report.trace_dropped
    );
}

/// The `--require` gate: the series must exist, have recorded at least one
/// sample, and report a sane (non-zero, ordered) tail.
fn check_required(report: &MetricsReport, names: &[String]) -> Result<(), String> {
    for name in names {
        let Some(s) = report.series.iter().find(|s| &s.name == name) else {
            return Err(format!("required series `{name}` is missing"));
        };
        if s.count == 0 {
            return Err(format!("required series `{name}` has no samples"));
        }
        if s.p99_nanos == 0 || s.max_nanos == 0 {
            return Err(format!(
                "required series `{name}` reports a zero p99/max ({:?})",
                summary(s)
            ));
        }
        if s.p50_nanos > s.p99_nanos || s.p99_nanos > s.max_nanos {
            return Err(format!(
                "required series `{name}` percentiles are not monotone ({:?})",
                summary(s)
            ));
        }
    }
    Ok(())
}

fn summary(s: &SeriesSnapshot) -> (u64, u64, u64, u64) {
    (s.count, s.p50_nanos, s.p99_nanos, s.max_nanos)
}

fn emit(args: &Args, report: &MetricsReport) -> Result<(), String> {
    if args.json {
        let json = report.to_json().pretty();
        match &args.json_path {
            Some(path) => {
                let mut file =
                    std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
                file.write_all(json.as_bytes())
                    .and_then(|()| file.write_all(b"\n"))
                    .map_err(|e| format!("write {path}: {e}"))?;
            }
            None => println!("{json}"),
        }
    } else {
        render_table(report);
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("puddle-stat: {e}");
            exit(2);
        }
    };
    loop {
        let report = match fetch(&args.socket) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("puddle-stat: {e}");
                exit(1);
            }
        };
        if let Err(e) = emit(&args, &report) {
            eprintln!("puddle-stat: {e}");
            exit(1);
        }
        if let Err(e) = check_required(&report, &args.require) {
            eprintln!("puddle-stat: {e}");
            exit(1);
        }
        match args.watch {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs)),
            None => break,
        }
    }
}
