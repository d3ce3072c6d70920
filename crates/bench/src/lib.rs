//! Shared helpers for the benchmark harness.
//!
//! Every table and figure in the paper's evaluation has a corresponding
//! binary in `src/bin/`; this module holds the scaling / timing / output
//! plumbing they share, and [`torture`], the seeded fault/kill harness that
//! drives the library and the daemon together.
//!
//! All binaries run **scaled-down sizes by default** so the whole harness
//! completes in minutes on a laptop; pass `--full` for paper-scale runs.

pub mod torture;

use std::time::{Duration, Instant};

/// Benchmark scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes (default).
    Quick,
    /// Paper-scale sizes (`--full`).
    Full,
}

impl Scale {
    /// Parses the scale from the process arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Chooses between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Times a closure.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed(), result)
}

/// Times a closure and returns seconds.
pub fn secs(f: impl FnOnce()) -> f64 {
    let (d, ()) = time_it(f);
    d.as_secs_f64()
}

/// Prints a result row in the harness's uniform format
/// (`experiment,system,operation,parameter,value`).
pub fn emit_row(experiment: &str, system: &str, operation: &str, parameter: &str, value: f64) {
    println!("{experiment},{system},{operation},{parameter},{value:.6}");
}

/// Prints the header for the uniform row format.
pub fn emit_header() {
    println!("experiment,system,operation,parameter,value");
}

/// Creates a throwaway daemon + client pair backed by a temp directory.
pub fn test_env() -> (tempfile::TempDir, puddled::Daemon, puddles::PuddleClient) {
    let tmp = tempfile::tempdir().expect("tempdir");
    let daemon =
        puddled::Daemon::start(puddled::DaemonConfig::for_testing(tmp.path())).expect("daemon");
    let client = puddles::PuddleClient::connect_local(&daemon).expect("client");
    (tmp, daemon, client)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects_the_right_value() {
        assert_eq!(Scale::Quick.pick(1, 100), 1);
        assert_eq!(Scale::Full.pick(1, 100), 100);
    }

    #[test]
    fn time_it_reports_elapsed_time() {
        let (d, x) = time_it(|| 41 + 1);
        assert_eq!(x, 42);
        assert!(d.as_secs() < 5);
    }
}
