//! Where the benchmark keeps its persistent-memory directories, and the
//! facts about the machine that go into every run's record.

use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};

/// The directory build outputs live in, relative to the working directory
/// when it lies below it: `$CARGO_TARGET_DIR` (the driver sets it) or
/// `target`. Both are ignored by git, and both lie inside the checkout the
/// benchmark is run from, which is the only place it may write. Relative
/// paths also keep UNIX-socket paths under the 108-byte limit.
pub fn scratch_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// The root under which one process creates every PM directory it uses;
/// removed, with everything below it, when dropped.
pub struct PmRoot {
    path: PathBuf,
    /// Whether the root is on tmpfs (the closer model of DAX PM: no block
    /// device behind `fsync`).
    pub tmpfs: bool,
    next: Cell<u32>,
}

impl PmRoot {
    /// Creates `benchmark_pm_<pid>` under `base`.
    pub fn create(base: &Path) -> io::Result<PmRoot> {
        let path = base.join(format!("benchmark_pm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        let tmpfs = is_tmpfs(&path);
        Ok(PmRoot {
            path,
            tmpfs,
            next: Cell::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A new, empty directory below the root.
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.path.join(format!("{label}{n}"));
        std::fs::create_dir_all(&dir).expect("create PM directory");
        dir
    }
}

impl Drop for PmRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes one PM directory when dropped. Declare it as the *last* field of
/// a workload's state so the daemon and clients using it are dropped first.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

extern "C" {
    fn statfs(path: *const std::ffi::c_char, buf: *mut [u64; 15]) -> i32;
}

/// Whether `path` is on a tmpfs mount, by the filesystem magic `statfs`
/// reports.
pub fn is_tmpfs(path: &Path) -> bool {
    use std::os::unix::ffi::OsStrExt;
    const TMPFS_MAGIC: u64 = 0x0102_1994;
    let Ok(cpath) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return false;
    };
    // `struct statfs` on 64-bit Linux is 120 bytes whose first word is
    // `f_type`; fifteen u64s cover it exactly.
    let mut buf = [0u64; 15];
    // SAFETY: `cpath` is a valid NUL-terminated string and `buf` is a
    // writable buffer of the size the kernel fills in.
    let rc = unsafe { statfs(cpath.as_ptr(), &mut buf) };
    rc == 0 && buf[0] == TMPFS_MAGIC
}

/// Number of CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The flush instruction `puddles_pmem::persist` picks on this CPU (it
/// prefers `clwb`, then `clflushopt`, then `clflush`).
pub fn flush_instruction() -> &'static str {
    if !cfg!(target_arch = "x86_64") {
        return "fence-only";
    }
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|w| w == f);
    if has("clwb") {
        "clwb"
    } else if has("clflushopt") {
        "clflushopt"
    } else {
        "clflush"
    }
}

/// The commit the working directory is at, read from `.git` without
/// starting a process; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let head = Path::new(".git/HEAD");
    let Ok(text) = std::fs::read_to_string(head) else {
        return "unknown".into();
    };
    let text = text.trim();
    match text.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => text.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_root_hands_out_distinct_dirs_and_cleans_up() {
        let base = std::env::temp_dir().join(format!("bm_env_test_{}", std::process::id()));
        let root = PmRoot::create(&base).unwrap();
        let (a, b) = (root.fresh_dir("x"), root.fresh_dir("x"));
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        let path = root.path().to_path_buf();
        drop(root);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(base);
    }

    #[test]
    fn tmpfs_detection_tells_dev_shm_from_proc() {
        if Path::new("/dev/shm").is_dir() {
            assert!(is_tmpfs(Path::new("/dev/shm")));
        }
        assert!(!is_tmpfs(Path::new("/proc")));
        assert!(!is_tmpfs(Path::new("/definitely/not/there")));
    }
}
