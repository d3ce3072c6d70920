//! Error type shared by the persistent-memory substrate.

use std::fmt;
use std::io;

/// Result alias for substrate operations.
pub type Result<T> = std::result::Result<T, PmError>;

/// Errors produced by the persistent-memory substrate.
#[derive(Debug)]
pub enum PmError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A `mmap`/`munmap`/`mprotect` call failed.
    Mmap(io::Error),
    /// The requested range is not inside the reserved global space.
    OutOfRange {
        /// Requested offset inside the space.
        offset: usize,
        /// Requested length.
        len: usize,
    },
    /// A size or offset did not satisfy an alignment requirement.
    Misaligned {
        /// The offending value.
        value: usize,
        /// The required alignment.
        align: usize,
    },
    /// Persistent data failed a validity check (bad magic, bad checksum...).
    Corruption(String),
    /// A log area cannot fit another entry: the aligned stored size of the
    /// entry exceeds the remaining capacity. Distinct from [`PmError::OutOfRange`]
    /// so `libtx` can surface "transaction too large" instead of a generic
    /// addressing error.
    LogFull {
        /// Bytes the entry would occupy (header + aligned payload).
        need: usize,
        /// Bytes still free in the log area.
        free: usize,
    },
    /// A crash was injected by an armed failpoint.
    CrashInjected(&'static str),
    /// The backing device is out of space (`ENOSPC`, genuine or injected).
    /// Distinct from [`PmError::Io`] so callers can degrade gracefully — a
    /// retry cannot create free space, and the daemon maps this to its
    /// typed `OutOfSpace` error instead of poisoning the WAL.
    NoSpace(String),
    /// One metadata-WAL record — a whole request's registry transaction —
    /// would exceed the record limit. Nothing was logged or applied: the
    /// request is refused, the daemon keeps serving.
    RecordTooLarge {
        /// Bytes the encoded record payload would occupy.
        len: usize,
        /// The record payload limit.
        max: usize,
    },
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::Io(e) => write!(f, "I/O error: {e}"),
            PmError::Mmap(e) => write!(f, "mmap error: {e}"),
            PmError::OutOfRange { offset, len } => {
                write!(f, "range [{offset:#x}, +{len:#x}) outside reservation")
            }
            PmError::Misaligned { value, align } => {
                write!(f, "value {value:#x} not aligned to {align:#x}")
            }
            PmError::Corruption(msg) => write!(f, "corruption detected: {msg}"),
            PmError::LogFull { need, free } => {
                write!(f, "log full: entry needs {need} B but only {free} B remain")
            }
            PmError::CrashInjected(name) => write!(f, "crash injected at failpoint `{name}`"),
            PmError::NoSpace(msg) => write!(f, "device out of space: {msg}"),
            PmError::RecordTooLarge { len, max } => {
                write!(f, "metadata record of {len} B exceeds the {max} B limit")
            }
        }
    }
}

impl std::error::Error for PmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PmError::Io(e) | PmError::Mmap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PmError {
    fn from(e: io::Error) -> Self {
        // ENOSPC (genuine or injected) gets its typed variant at the
        // conversion boundary, so every `?` in the stack classifies it
        // without per-site checks.
        if crate::faultio::is_enospc(&e) {
            PmError::NoSpace(e.to_string())
        } else {
            PmError::Io(e)
        }
    }
}
