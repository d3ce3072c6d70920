//! In-workspace stand-in for the `tempfile` crate.
//!
//! Provides [`tempdir`]/[`TempDir`]: a uniquely named directory under the
//! system temp dir that is removed (recursively) when the handle is dropped.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A temporary directory, deleted recursively on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Creates a fresh uniquely named temporary directory.
pub fn tempdir() -> io::Result<TempDir> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let base = std::env::temp_dir();
    let pid = std::process::id();
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    // Retry with a fresh counter value on collision (concurrent tests).
    for _ in 0..1024 {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!(".tmp-puddles-{pid}-{nanos:x}-{n}"));
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(TempDir { path }),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::other("could not create unique temp dir"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_is_created_and_removed() {
        let dir = tempdir().unwrap();
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn tempdirs_are_unique() {
        let a = tempdir().unwrap();
        let b = tempdir().unwrap();
        assert_ne!(a.path(), b.path());
    }
}
