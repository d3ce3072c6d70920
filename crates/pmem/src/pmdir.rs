//! The "DAX filesystem": a directory of puddle files plus daemon metadata.
//!
//! The paper stores each puddle as a file owned by `puddled` on a DAX
//! filesystem mounted at `/mnt/pmem0`. We reproduce the same structure in an
//! ordinary directory: fixed-size puddle files that are mapped with
//! `MAP_SHARED`, and a `meta/` subdirectory for the daemon's own records —
//! one file, the metadata WAL, which its owner appends to through
//! [`PmDir::meta_path`] and replaces wholesale through
//! [`PmDir::write_meta`], the only write-temp + fsync + `rename` +
//! directory fsync in the workspace.
//!
//! A puddle file comes into being one way, whether it is created empty
//! ([`PmDir::create_puddle_file`]) or copied — into `puddles/` by an
//! import, out of it by an export ([`PmDir::copy_puddle_file`]): sized,
//! filled, synced, under [`FaultSite::PuddleCreate`] and the retry budget.
//! Puddle files are sparse (a fresh one is all hole), and a copy writes
//! only the source's data extents, so relocating a puddle costs what it
//! holds, not how big it is.
//!
//! The handle also carries what every layer of the daemon shares: the fault
//! plan its I/O consults and the observability hub ([`Metrics`]) it counts
//! into — its own `io.*` counters, a `fault` trace event for every fault
//! the plan injects through it, and the clock, series and trace ring of
//! whatever layer derives its file access from the directory.

use crate::clock::Clock;
use crate::faultio::{
    self, CrashPoint, FaultPlan, FaultSite, SyncFault, WriteFault, MAX_IO_RETRIES,
};
use crate::obs::{Metrics, TraceEventKind};
use crate::{PmError, Result, PAGE_SIZE};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Storage operations retried after a transient error.
const IO_RETRIES: &str = "io.retries";
/// Transient storage errors observed (each retried attempt counts one).
const IO_TRANSIENT_ERRORS: &str = "io.transient_errors";
/// Operations refused with a typed out-of-space error.
const IO_ENOSPC_REJECTIONS: &str = "io.enospc_rejections";

/// A directory acting as the persistent-memory device.
///
/// A `PmDir` carries an observability hub and may carry a [`FaultPlan`];
/// cloning the handle clones both references, so every layer that derives
/// its file access from this directory (registry metadata, the WAL, puddle
/// files) consults the same seeded schedule and records into the same hub,
/// on the same clock.
#[derive(Debug, Clone)]
pub struct PmDir {
    root: PathBuf,
    fault: Option<Arc<FaultPlan>>,
    obs: Arc<Metrics>,
}

impl PmDir {
    /// Opens (creating if necessary) a PM directory rooted at `root`, with
    /// a fresh hub on the real clock.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        fs::create_dir_all(root.join("puddles"))?;
        fs::create_dir_all(root.join("meta"))?;
        Ok(PmDir {
            root,
            fault: None,
            obs: with_io_counters(Metrics::new(Clock::real())),
        })
    }

    /// Records into `obs` (and times with its clock) from now on, in this
    /// handle and every clone made from it afterwards.
    pub fn with_obs(mut self, obs: Arc<Metrics>) -> Self {
        self.obs = with_io_counters(obs);
        self
    }

    /// The observability hub every clone of this handle records into.
    pub fn obs(&self) -> &Arc<Metrics> {
        &self.obs
    }

    /// Attaches a fault-injection plan to this handle (and every clone made
    /// from it afterwards). Torture harness only; production paths never
    /// attach one.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The attached fault plan, if any, to arm crash points on and read the
    /// trace of. Consult it through this handle ([`PmDir::should_crash`],
    /// [`PmDir::should_reset_conn`]), which traces each injection.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// Whether the daemon crashes at `point` now (see
    /// [`FaultPlan::should_crash`]); never without a plan. A fired crash is
    /// traced as a `fault` event of occurrence 0.
    pub fn should_crash(&self, point: CrashPoint) -> bool {
        let fired = self.fault.as_ref().is_some_and(|p| p.should_crash(point));
        if fired {
            self.obs.trace(TraceEventKind::Fault, point.name(), 0, 0);
        }
        fired
    }

    /// Whether the fault plan resets a daemon connection now (see
    /// [`FaultSite::ConnIo`]); never without a plan.
    pub fn should_reset_conn(&self) -> bool {
        let Some(n) = self.fault.as_ref().and_then(|p| p.on_conn_request()) else {
            return false;
        };
        self.obs
            .trace(TraceEventKind::Fault, FaultSite::ConnIo.name(), n, 0);
        true
    }

    fn write_fault(&self, site: FaultSite, len: usize) -> Option<WriteFault> {
        let (n, fault) = self.fault.as_ref()?.on_write(site, len)?;
        self.obs.trace(TraceEventKind::Fault, site.name(), n, 0);
        Some(fault)
    }

    fn sync_fault(&self, site: FaultSite) -> Option<SyncFault> {
        let (n, fault) = self.fault.as_ref()?.on_sync(site)?;
        self.obs.trace(TraceEventKind::Fault, site.name(), n, 0);
        Some(fault)
    }

    /// Runs `op` with the bounded transient-error retry budget: a transient
    /// storage error (injected `EIO`, `Interrupted`) is retried up to
    /// [`MAX_IO_RETRIES`] times after `undo` cleans up the failed attempt's
    /// partial state; anything else — including `ENOSPC`, which retrying
    /// cannot fix — surfaces immediately. Every write this directory makes
    /// goes through it — puddle files created, copied in or out, deleted;
    /// the metadata WAL's appends and replacements; an export's manifest —
    /// so there is one budget and one set of `io.*` counters in the hub.
    pub fn with_io_retries<T>(
        &self,
        mut op: impl FnMut() -> Result<T>,
        mut undo: impl FnMut(),
    ) -> Result<T> {
        let mut attempt = 0;
        let count = |name| self.obs.counter(name).fetch_add(1, Ordering::Relaxed);
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient_pm(&e) => {
                    // Failed attempts clean up their partial state whether
                    // another retry follows or not; a non-transient error
                    // (below) must NOT undo — e.g. a duplicate-name
                    // rejection would otherwise delete the pre-existing
                    // file it collided with.
                    undo();
                    count(IO_TRANSIENT_ERRORS);
                    if attempt == MAX_IO_RETRIES {
                        return Err(e);
                    }
                    attempt += 1;
                    count(IO_RETRIES);
                }
                Err(e) => {
                    if matches!(e, PmError::NoSpace(_)) {
                        count(IO_ENOSPC_REJECTIONS);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One attempt to write `bytes` to `file` and make them durable with
    /// `sync` (`File::sync_all` for a new file, `File::sync_data` for an
    /// append), consulting the fault plan before the write and before the
    /// sync. A short-write fault leaves its prefix in the file, like the
    /// device error it models.
    pub fn write_synced(
        &self,
        mut file: &File,
        bytes: &[u8],
        (write_site, sync_site): (FaultSite, FaultSite),
        sync: fn(&File) -> std::io::Result<()>,
    ) -> Result<()> {
        match self.write_fault(write_site, bytes.len()) {
            Some(WriteFault::Eio) => return Err(faultio::eio(write_site).into()),
            Some(WriteFault::Enospc) => return Err(faultio::enospc().into()),
            Some(WriteFault::Short(keep)) => {
                file.write_all(&bytes[..keep])?;
                let _ = sync(file);
                return Err(faultio::eio(write_site).into());
            }
            None => {}
        }
        file.write_all(bytes)?;
        match self.sync_fault(sync_site) {
            Some(SyncFault::Eio) => Err(faultio::eio(sync_site).into()),
            // A dropped fsync: success without the barrier. In this
            // in-process simulation the data still reaches the file (there
            // is no page cache to lose), so only the trace shows it.
            Some(SyncFault::Dropped) => Ok(()),
            None => Ok(sync(file)?),
        }
    }

    /// Returns the root path of the PM directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Returns the path that stores the puddle file named `name`.
    pub fn puddle_path(&self, name: &str) -> PathBuf {
        self.root.join("puddles").join(name)
    }

    /// Returns the path of the metadata file `name` (for callers that manage
    /// their own file handles, e.g. an append-only log; atomic
    /// replace-style updates should use [`PmDir::write_meta`] instead).
    pub fn meta_path(&self, name: &str) -> PathBuf {
        self.root.join("meta").join(name)
    }

    /// Creates a zero-filled puddle file of `size` bytes and returns its path.
    ///
    /// `size` must be a multiple of the page size; puddles are "regions of
    /// memory ... of any size in multiples of an OS page" (§4.3).
    pub fn create_puddle_file(&self, name: &str, size: usize) -> Result<PathBuf> {
        if size == 0 || !size.is_multiple_of(PAGE_SIZE) {
            return Err(PmError::Misaligned {
                value: size,
                align: PAGE_SIZE,
            });
        }
        let path = self.puddle_path(name);
        // `create_new` makes a duplicate name an error, which must survive
        // the retry wrapper: only *failed* attempts remove their partial
        // file, so a pre-existing puddle still rejects cleanly.
        let mut open = OpenOptions::new();
        open.read(true).write(true).create_new(true);
        self.make_puddle_file(&path, size as u64, &open, |_| Ok(0))?;
        Ok(path)
    }

    /// Copies the puddle file `src` to `dest`, which is created, or
    /// truncated if it exists, and synced before this returns. Only the
    /// source's data extents (`SEEK_DATA`/`SEEK_HOLE`) are read and
    /// written; its holes stay holes, which read back as zeros, so the copy
    /// is byte-identical whatever the puddle holds. A filesystem that does
    /// not report holes has one extent, the whole file. Returns the data
    /// bytes copied, not the file's length.
    ///
    /// Both directions of relocation come through here: an export copies
    /// out of `puddles/`, an import into it. Bytes stored through a live
    /// `MAP_SHARED` mapping are copied whether or not they were `msync`ed:
    /// the copy reads the page cache the mapping writes.
    pub fn copy_puddle_file(&self, src: &Path, dest: &Path) -> Result<u64> {
        let from = File::open(src)?;
        let len = from.metadata()?.len();
        let mut open = OpenOptions::new();
        open.write(true).create(true).truncate(true);
        self.make_puddle_file(dest, len, &open, |to| copy_data(&from, to, len))
    }

    /// Makes the puddle file `path`: opens it with `open`, sizes it to
    /// `size` bytes of holes, lets `fill` write into it and syncs it, with
    /// [`FaultSite::PuddleCreate`] consulted before the first step and
    /// before the sync, all inside the retry budget. A failed attempt
    /// removes the file. Returns what `fill` returned.
    fn make_puddle_file(
        &self,
        path: &Path,
        size: u64,
        open: &OpenOptions,
        mut fill: impl FnMut(&mut File) -> io::Result<u64>,
    ) -> Result<u64> {
        let eio = || faultio::eio(FaultSite::PuddleCreate).into();
        self.with_io_retries(
            || {
                match self.write_fault(FaultSite::PuddleCreate, size as usize) {
                    Some(WriteFault::Eio) => return Err(eio()),
                    Some(WriteFault::Enospc) => return Err(faultio::enospc().into()),
                    Some(WriteFault::Short(keep)) => {
                        // Torn create: the file exists but is shorter than
                        // the puddle it was meant to back; the retry (or
                        // the caller's rollback) removes it.
                        let _ = open.open(path)?.set_len(keep as u64);
                        return Err(eio());
                    }
                    None => {}
                }
                let mut file = open.open(path)?;
                file.set_len(size)?;
                let filled = fill(&mut file)?;
                match self.sync_fault(FaultSite::PuddleCreate) {
                    Some(SyncFault::Eio) => return Err(eio()),
                    Some(SyncFault::Dropped) => {}
                    None => file.sync_all()?,
                }
                Ok(filled)
            },
            || {
                let _ = fs::remove_file(path);
            },
        )
    }

    /// Opens an existing puddle file, verifying its recorded size.
    pub fn open_puddle_file(&self, name: &str, expect_size: usize) -> Result<(File, PathBuf)> {
        let path = self.puddle_path(name);
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len() as usize;
        if len != expect_size {
            return Err(PmError::Corruption(format!(
                "puddle file {name} has size {len}, expected {expect_size}"
            )));
        }
        Ok((file, path))
    }

    /// Deletes a puddle file.
    pub fn delete_puddle_file(&self, name: &str) -> Result<()> {
        self.with_io_retries(
            || {
                if let Some(WriteFault::Eio | WriteFault::Short(_)) =
                    self.write_fault(FaultSite::PuddleDelete, 0)
                {
                    return Err(faultio::eio(FaultSite::PuddleDelete).into());
                }
                fs::remove_file(self.puddle_path(name))?;
                Ok(())
            },
            || {},
        )
    }

    /// Lists the names of all puddle files.
    pub fn list_puddles(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(self.root.join("puddles"))? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Atomically and durably replaces the metadata file `name` with
    /// `bytes`.
    ///
    /// Uses the classic write-temp + fsync + rename + fsync-the-directory
    /// sequence so a crash never leaves a half-written metadata file, and a
    /// replace that returned survives one. This is the only such sequence
    /// for metadata: the WAL's compaction and its torn-tail heal both come
    /// through here, so both see the fault plan (both fsyncs consult
    /// [`FaultSite::MetaWrite`]), the retry budget and the typed, counted
    /// `ENOSPC`. An `Err` means the rename did not happen and `name` still
    /// holds its previous contents — unless the directory sync failed after
    /// it, through the whole retry budget: then `name` holds `bytes`, not
    /// yet durably. A `name.tmp` a crash leaves behind is overwritten by the
    /// next call or removed by [`PmDir::remove_meta_temp`].
    pub fn write_meta(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let dir = self.root.join("meta");
        let tmp = self.meta_temp_path(name);
        let dst = dir.join(name);
        // A failed attempt aborts *before* the rename, or after it with the
        // same bytes in place, so the previous metadata generation or this
        // one stays intact whatever the plan injects — the atomic-replace
        // contract the daemon's checkpoints rely on. A retry recreates the
        // temp file and renames again, so attempts have nothing to undo.
        let result = self.with_io_retries(
            || {
                let sites = (FaultSite::MetaWrite, FaultSite::MetaWrite);
                self.write_synced(&File::create(&tmp)?, bytes, sites, File::sync_all)?;
                let crash = CrashPoint::MetaWriteBeforeRename;
                if self.should_crash(crash) {
                    return Err(PmError::CrashInjected(crash.name()));
                }
                fs::rename(&tmp, &dst)?;
                // The rename is an entry of `meta/`: durable once the
                // directory is.
                match self.sync_fault(FaultSite::MetaWrite) {
                    Some(SyncFault::Eio) => Err(faultio::eio(FaultSite::MetaWrite).into()),
                    Some(SyncFault::Dropped) => Ok(()),
                    None => Ok(File::open(&dir)?.sync_all()?),
                }
            },
            || {},
        );
        // Whatever failed — a full device above all — must not leave a
        // partial temp file holding space. An injected crash keeps it: a
        // power failure would.
        if !matches!(result, Ok(()) | Err(PmError::CrashInjected(_))) {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Removes the temp file a crash inside [`PmDir::write_meta`] may have
    /// left beside `name`. Nothing reads it: until the rename, `name` is
    /// the file.
    pub fn remove_meta_temp(&self, name: &str) -> Result<()> {
        match fs::remove_file(self.meta_temp_path(name)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    fn meta_temp_path(&self, name: &str) -> PathBuf {
        self.meta_path(&format!("{name}.tmp"))
    }
}

/// `obs` with the `io.*` counters created, so a report lists them before
/// anything is retried.
fn with_io_counters(obs: Arc<Metrics>) -> Arc<Metrics> {
    for name in [IO_RETRIES, IO_TRANSIENT_ERRORS, IO_ENOSPC_REJECTIONS] {
        obs.counter(name);
    }
    obs
}

/// `true` for substrate errors the bounded retry budget applies to.
fn is_transient_pm(e: &PmError) -> bool {
    matches!(e, PmError::Io(io) if faultio::is_transient_io(io))
}

/// Copies the first `len` bytes of `from` into `to`, which holds `len`
/// bytes of holes, one data extent at a time; returns the bytes copied.
/// `io::copy` over a `take` is `copy_file_range`, so no byte passes
/// through user space.
fn copy_data(mut from: &File, to: &mut File, len: u64) -> io::Result<u64> {
    let (mut at, mut copied) = (0, 0);
    while let Some((start, end)) = next_data(from, at, len)? {
        from.seek(SeekFrom::Start(start))?;
        to.seek(SeekFrom::Start(start))?;
        copied += io::copy(&mut from.take(end - start), to)?;
        at = end;
    }
    Ok(copied)
}

/// The first data extent of `file` at or after `at`, clipped to `len`;
/// `None` when only holes follow. `EINVAL` from `SEEK_DATA` — a filesystem
/// that does not report holes — makes the rest of the file one extent.
fn next_data(file: &File, at: u64, len: u64) -> io::Result<Option<(u64, u64)>> {
    let seek = |offset: u64, whence| {
        // SAFETY: `lseek` on a descriptor `file` keeps open; it moves only
        // that descriptor's offset, which every caller re-seeks.
        let pos = unsafe { libc::lseek(file.as_raw_fd(), offset as libc::off_t, whence) };
        u64::try_from(pos).map_err(|_| io::Error::last_os_error())
    };
    if at >= len {
        return Ok(None);
    }
    let start = match seek(at, libc::SEEK_DATA) {
        Ok(start) if start < len => start,
        Ok(_) => return Ok(None),
        Err(e) if e.raw_os_error() == Some(libc::ENXIO) => return Ok(None),
        Err(e) if e.kind() == io::ErrorKind::InvalidInput => return Ok(Some((at, len))),
        Err(e) => return Err(e),
    };
    Ok(Some((start, seek(start, libc::SEEK_HOLE)?.min(len))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultio::FaultProfile;

    fn dir() -> (tempfile::TempDir, PmDir) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        (tmp, pm)
    }

    /// The hub's reading of the counter `name`.
    fn counter(pm: &PmDir, name: &'static str) -> u64 {
        pm.obs().counter(name).load(Ordering::Relaxed)
    }

    #[test]
    fn create_and_open_puddle_file() {
        let (_tmp, pm) = dir();
        let path = pm.create_puddle_file("p0", 2 * PAGE_SIZE).unwrap();
        assert!(path.exists());
        let (file, _) = pm.open_puddle_file("p0", 2 * PAGE_SIZE).unwrap();
        assert_eq!(file.metadata().unwrap().len(), (2 * PAGE_SIZE) as u64);
    }

    #[test]
    fn create_rejects_unaligned_and_zero_sizes() {
        let (_tmp, pm) = dir();
        assert!(pm.create_puddle_file("bad", 100).is_err());
        assert!(pm.create_puddle_file("bad", 0).is_err());
    }

    #[test]
    fn create_rejects_duplicate_names() {
        let (_tmp, pm) = dir();
        pm.create_puddle_file("dup", PAGE_SIZE).unwrap();
        assert!(pm.create_puddle_file("dup", PAGE_SIZE).is_err());
    }

    #[test]
    fn open_detects_size_mismatch() {
        let (_tmp, pm) = dir();
        pm.create_puddle_file("p", PAGE_SIZE).unwrap();
        assert!(pm.open_puddle_file("p", 2 * PAGE_SIZE).is_err());
    }

    #[test]
    fn list_and_delete_puddles() {
        let (_tmp, pm) = dir();
        pm.create_puddle_file("a", PAGE_SIZE).unwrap();
        pm.create_puddle_file("b", PAGE_SIZE).unwrap();
        assert_eq!(pm.list_puddles().unwrap(), vec!["a", "b"]);
        pm.delete_puddle_file("a").unwrap();
        assert_eq!(pm.list_puddles().unwrap(), vec!["b"]);
        assert!(!pm.puddle_path("a").exists());
        assert!(pm.puddle_path("b").exists());
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        use crate::faultio::{FaultPlan, FaultProfile};
        let tmp = tempfile::tempdir().unwrap();
        // 6% transient faults per class: plenty of injections across 150
        // operations, and (for this seed) never MAX_IO_RETRIES+1 in a row.
        let plan = FaultPlan::new(0xF00D, FaultProfile::transient(60_000));
        let pm = PmDir::open(tmp.path())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        for i in 0..50 {
            let name = format!("p{i}");
            pm.create_puddle_file(&name, PAGE_SIZE).unwrap();
            pm.write_meta("reg", format!("gen-{i}").as_bytes()).unwrap();
            assert_eq!(
                fs::read(pm.meta_path("reg")).unwrap(),
                format!("gen-{i}").as_bytes()
            );
            pm.delete_puddle_file(&name).unwrap();
            assert!(!pm.puddle_path(&name).exists());
        }
        assert!(plan.injected() > 0, "30% rates must inject across 150 ops");
        assert!(counter(&pm, IO_RETRIES) > 0);
    }

    #[test]
    fn enospc_surfaces_typed_and_counted() {
        use crate::faultio::{FaultPlan, FaultProfile};
        let tmp = tempfile::tempdir().unwrap();
        let plan = FaultPlan::new(
            1,
            FaultProfile {
                write_enospc_ppm: 1_000_000,
                ..FaultProfile::default()
            },
        );
        let pm = PmDir::open(tmp.path()).unwrap().with_fault_plan(plan);
        match pm.create_puddle_file("p", PAGE_SIZE) {
            Err(PmError::NoSpace(_)) => {}
            other => panic!("expected NoSpace, got {other:?}"),
        }
        assert!(!pm.puddle_path("p").exists());
        assert_eq!(counter(&pm, IO_ENOSPC_REJECTIONS), 1);
    }

    const PAGES: usize = 64;

    /// A `PAGES`-page file at `path`: each listed page filled with its own
    /// non-zero byte, holes everywhere else.
    fn sparse_file(path: &Path, data_pages: &[usize]) {
        use std::os::unix::fs::FileExt;
        let file = File::create(path).unwrap();
        file.set_len((PAGES * PAGE_SIZE) as u64).unwrap();
        for &page in data_pages {
            let fill = vec![page as u8 + 1; PAGE_SIZE];
            file.write_all_at(&fill, (page * PAGE_SIZE) as u64).unwrap();
        }
    }

    /// Bytes the filesystem has allocated to `path`.
    fn allocated(path: &Path) -> u64 {
        use std::os::unix::fs::MetadataExt;
        fs::metadata(path).unwrap().blocks() * 512
    }

    /// Whether the filesystem reports a hole in `path` before its end: the
    /// allocation and count checks hold only where it does.
    fn reports_hole(path: &Path) -> bool {
        let file = File::open(path).unwrap();
        let len = file.metadata().unwrap().len();
        // SAFETY: `lseek` on an open descriptor.
        let hole = unsafe { libc::lseek(file.as_raw_fd(), 0, libc::SEEK_HOLE) };
        (0..len as i64).contains(&hole)
    }

    #[test]
    fn a_copy_is_byte_identical_and_keeps_the_holes() {
        let (tmp, pm) = dir();
        let sources: [(&str, Vec<usize>); 5] = [
            ("all hole", vec![]),
            ("first page", vec![0]),
            ("last page", vec![PAGES - 1]),
            ("both ends", vec![0, 1, PAGES - 2, PAGES - 1]),
            ("dense", (0..PAGES).collect()),
        ];
        for (what, pages) in sources {
            let (src, dest) = (tmp.path().join("src"), tmp.path().join("dest"));
            let _ = fs::remove_file(&dest);
            sparse_file(&src, &pages);
            let copied = pm.copy_puddle_file(&src, &dest).unwrap();
            assert_eq!(fs::read(&dest).unwrap(), fs::read(&src).unwrap(), "{what}");
            if reports_hole(&src) {
                let (have, limit) = (allocated(&dest), allocated(&src) + PAGE_SIZE as u64);
                assert!(
                    have <= limit,
                    "{what}: {have} B allocated, source + 4 KiB {limit}"
                );
                assert_eq!(copied, (pages.len() * PAGE_SIZE) as u64, "{what}");
            } else {
                assert_eq!(copied, (PAGES * PAGE_SIZE) as u64, "{what}");
            }
        }
    }

    #[test]
    fn a_copy_carries_unsynced_stores_through_a_shared_mapping() {
        let (tmp, pm) = dir();
        let (src, dest) = (tmp.path().join("mapped"), tmp.path().join("copy"));
        sparse_file(&src, &[0]);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&src)
            .unwrap();
        let len = PAGES * PAGE_SIZE;
        let base = crate::space::VaReservation::map_file_anywhere(&file, len, true).unwrap();
        // SAFETY: `base` maps `len` writable bytes of `file`; no other
        // reference into the mapping exists.
        unsafe {
            let bytes = std::slice::from_raw_parts_mut(base as *mut u8, len);
            bytes[3 * PAGE_SIZE..4 * PAGE_SIZE].fill(0xab);
            bytes[len - 1] = 0xcd;
        }
        pm.copy_puddle_file(&src, &dest).unwrap();
        // SAFETY: the mapping above, unmapped once.
        unsafe { crate::space::VaReservation::unmap_anywhere(base, len).unwrap() };
        let copy = fs::read(&dest).unwrap();
        assert!(copy[3 * PAGE_SIZE..4 * PAGE_SIZE]
            .iter()
            .all(|&b| b == 0xab));
        assert_eq!(copy[len - 1], 0xcd);
        assert_eq!(copy, fs::read(&src).unwrap());
    }

    #[test]
    fn a_copy_over_a_dense_file_leaves_exactly_the_source() {
        let (tmp, pm) = dir();
        let (src, dest) = (tmp.path().join("src"), tmp.path().join("dest"));
        sparse_file(&src, &[0, PAGES - 1]);
        fs::write(&dest, vec![0xffu8; 2 * PAGES * PAGE_SIZE]).unwrap();
        let copied = pm.copy_puddle_file(&src, &dest).unwrap();
        assert_eq!(fs::read(&dest).unwrap(), fs::read(&src).unwrap());
        if reports_hole(&src) {
            assert_eq!(copied, 2 * PAGE_SIZE as u64);
            assert!(allocated(&dest) <= allocated(&src) + PAGE_SIZE as u64);
        }
    }

    #[test]
    fn meta_roundtrip_and_missing() {
        let (_tmp, pm) = dir();
        let path = pm.meta_path("registry.wal");
        assert!(!path.exists());
        pm.write_meta("registry.wal", b"generation 1").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation 1");
        pm.write_meta("registry.wal", b"gen 2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"gen 2");
        assert!(!pm.meta_path("registry.wal.tmp").exists());
    }

    /// A replace is durable only once `meta/` is: the rename is an entry of
    /// the directory, not of the file. Both fsyncs consult the plan, so one
    /// that drops every sync traces two.
    #[test]
    fn write_meta_syncs_the_temp_file_and_then_the_directory() {
        let (_tmp, pm) = dir();
        let drop_every_sync = FaultProfile {
            sync_drop_ppm: 1_000_000,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::new(1, drop_every_sync);
        let pm = pm.with_fault_plan(Arc::clone(&plan));
        pm.write_meta("registry.wal", b"generation 1").unwrap();
        let trace = plan.trace();
        assert_eq!(trace.len(), 2, "{trace:?}");
        assert!(
            trace
                .iter()
                .all(|line| line.starts_with("meta.write#") && line.ends_with("sync-dropped")),
            "{trace:?}"
        );
        assert_eq!(
            fs::read(pm.meta_path("registry.wal")).unwrap(),
            b"generation 1"
        );
    }
}
