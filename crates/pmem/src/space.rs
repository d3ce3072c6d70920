//! Global puddle address-space reservation and puddle-file mapping.
//!
//! The paper reserves ~1 TiB of virtual address space at a fixed address as
//! the machine-wide *global puddle space* (§3.4); puddles are mapped into it
//! at their assigned addresses so that native pointers stay valid. We
//! reserve the range with an anonymous `PROT_NONE`, `MAP_NORESERVE` mapping
//! (costless) and map puddle files over parts of it with `MAP_FIXED`.
//!
//! Multiple "machines" (daemon instances) can coexist inside one test
//! process by reserving disjoint sub-ranges; puddles are relocatable, so a
//! reservation that lands at a different base than the one recorded in the
//! puddle files only triggers the normal pointer-rewrite path.

use crate::{PmError, Result, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::File;
use std::os::unix::io::AsRawFd;
use std::ptr;

/// A reserved range of virtual address space.
///
/// The reservation is released (`munmap`) on drop. Mappings created inside
/// the reservation through [`VaReservation::map_file_fixed`] must be
/// unmapped (via [`VaReservation::unmap`]) before the reservation is
/// dropped; `MappedPuddle` handles this in higher layers.
#[derive(Debug)]
pub struct VaReservation {
    base: usize,
    len: usize,
}

// SAFETY: the reservation is just an address range; all mutation of memory
// inside it goes through raw pointers whose safety is the responsibility of
// the mapping owners. Sending the reservation between threads is sound.
unsafe impl Send for VaReservation {}
// SAFETY: see above; the struct itself is immutable after creation.
unsafe impl Sync for VaReservation {}

impl VaReservation {
    /// Reserves `len` bytes of address space, preferably at `base_hint`.
    ///
    /// If the hint is unavailable the kernel chooses the base; callers must
    /// therefore always use [`VaReservation::base`] rather than assuming the
    /// hint was honoured.
    pub fn reserve(base_hint: Option<usize>, len: usize) -> Result<Self> {
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(PmError::Misaligned {
                value: len,
                align: PAGE_SIZE,
            });
        }
        // First try the hint without MAP_FIXED (never clobbers existing
        // mappings); fall back to a kernel-chosen address.
        if let Some(hint) = base_hint {
            // SAFETY: anonymous PROT_NONE mapping; no existing memory is
            // touched because MAP_FIXED is not used.
            let addr = unsafe {
                libc::mmap(
                    hint as *mut libc::c_void,
                    len,
                    libc::PROT_NONE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            if addr != libc::MAP_FAILED {
                if addr as usize == hint {
                    return Ok(VaReservation { base: hint, len });
                }
                // Kernel placed it elsewhere; keep that placement, it is
                // still a valid (relocated) global space.
                return Ok(VaReservation {
                    base: addr as usize,
                    len,
                });
            }
        }
        // SAFETY: as above, anonymous PROT_NONE reservation.
        let addr = unsafe {
            libc::mmap(
                ptr::null_mut(),
                len,
                libc::PROT_NONE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if addr == libc::MAP_FAILED {
            return Err(PmError::Mmap(std::io::Error::last_os_error()));
        }
        Ok(VaReservation {
            base: addr as usize,
            len,
        })
    }

    /// Returns the base virtual address of the reservation.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Returns the reservation length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the reservation has zero length (never happens for
    /// reservations produced by [`VaReservation::reserve`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `[addr, addr + len)` falls entirely inside the
    /// reservation.
    pub fn contains(&self, addr: usize, len: usize) -> bool {
        addr >= self.base
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.base + self.len)
    }

    fn check_range(&self, offset: usize, len: usize) -> Result<()> {
        if !offset.is_multiple_of(PAGE_SIZE) {
            return Err(PmError::Misaligned {
                value: offset,
                align: PAGE_SIZE,
            });
        }
        if len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(PmError::Misaligned {
                value: len,
                align: PAGE_SIZE,
            });
        }
        if offset.checked_add(len).is_none() || offset + len > self.len {
            return Err(PmError::OutOfRange { offset, len });
        }
        Ok(())
    }

    /// Maps `len` bytes of `file` (from file offset 0) at `offset` inside the
    /// reservation, replacing the placeholder pages.
    ///
    /// Returns the virtual address of the mapping. The mapping is shared
    /// (`MAP_SHARED`), so stores reach the backing puddle file.
    pub fn map_file_fixed(
        &self,
        offset: usize,
        file: &File,
        len: usize,
        writable: bool,
    ) -> Result<usize> {
        self.check_range(offset, len)?;
        let prot = if writable {
            libc::PROT_READ | libc::PROT_WRITE
        } else {
            libc::PROT_READ
        };
        let target = (self.base + offset) as *mut libc::c_void;
        // SAFETY: the target range lies inside our own PROT_NONE reservation
        // (checked above), so MAP_FIXED only replaces placeholder pages that
        // this object owns; `file` stays open for the duration of the call
        // and the kernel keeps its own reference afterwards.
        let addr = unsafe {
            libc::mmap(
                target,
                len,
                prot,
                libc::MAP_SHARED | libc::MAP_FIXED,
                file.as_raw_fd(),
                0,
            )
        };
        if addr == libc::MAP_FAILED {
            return Err(PmError::Mmap(std::io::Error::last_os_error()));
        }
        advise_random(addr, len);
        Ok(addr as usize)
    }

    /// Maps `len` bytes of `file` at a kernel-chosen address outside the
    /// reservation (used by the PMDK baseline, which does not keep a global
    /// space).
    pub fn map_file_anywhere(file: &File, len: usize, writable: bool) -> Result<usize> {
        if len == 0 {
            return Err(PmError::Misaligned {
                value: len,
                align: PAGE_SIZE,
            });
        }
        let prot = if writable {
            libc::PROT_READ | libc::PROT_WRITE
        } else {
            libc::PROT_READ
        };
        // SAFETY: kernel-chosen placement, shared file mapping; no existing
        // memory is replaced.
        let addr = unsafe {
            libc::mmap(
                ptr::null_mut(),
                len,
                prot,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if addr == libc::MAP_FAILED {
            return Err(PmError::Mmap(std::io::Error::last_os_error()));
        }
        advise_random(addr, len);
        Ok(addr as usize)
    }

    /// Unmaps a file mapping created outside a reservation with
    /// [`VaReservation::map_file_anywhere`].
    ///
    /// # Safety
    ///
    /// `addr`/`len` must describe exactly one mapping previously returned by
    /// `map_file_anywhere` that has not been unmapped yet, and no live
    /// references into the mapping may exist.
    pub unsafe fn unmap_anywhere(addr: usize, len: usize) -> Result<()> {
        // SAFETY: forwarded contract from the caller.
        let rc = unsafe { libc::munmap(addr as *mut libc::c_void, len) };
        if rc != 0 {
            return Err(PmError::Mmap(std::io::Error::last_os_error()));
        }
        Ok(())
    }

    /// Replaces `[offset, offset + len)` with fresh `PROT_NONE` placeholder
    /// pages, effectively unmapping a puddle while keeping the reservation.
    ///
    /// # Safety
    ///
    /// No live references or raw-pointer accesses into the range may remain;
    /// after this call the pages fault on access.
    pub unsafe fn unmap(&self, offset: usize, len: usize) -> Result<()> {
        self.check_range(offset, len)?;
        let target = (self.base + offset) as *mut libc::c_void;
        // SAFETY: range checked to be inside our reservation; MAP_FIXED over
        // it restores the placeholder. Caller guarantees no live references.
        let addr = unsafe {
            libc::mmap(
                target,
                len,
                libc::PROT_NONE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE | libc::MAP_FIXED,
                -1,
                0,
            )
        };
        if addr == libc::MAP_FAILED {
            return Err(PmError::Mmap(std::io::Error::last_os_error()));
        }
        Ok(())
    }
}

/// Advises a fresh file mapping random-access (`MADV_RANDOM`), so that a
/// first touch faults in one page instead of a read-ahead window.
///
/// Persistent memory under DAX has no page cache: a load faults nothing in
/// and nothing is read ahead. A file-backed puddle goes through the page
/// cache, whose read-around on a block device (`read_ahead_kb`, often
/// several MiB) would zero-fill a whole fresh puddle on its first load and
/// make the unlink that drops it tear every page down again. Fault-around
/// of pages already cached is unaffected.
fn advise_random(addr: *mut libc::c_void, len: usize) {
    // SAFETY: `[addr, addr + len)` is a mapping this module just made;
    // MADV_RANDOM changes only the kernel's paging policy for it.
    let rc = unsafe { libc::madvise(addr, len, libc::MADV_RANDOM) };
    // Advice on a live mapping cannot fail (EINVAL/ENOMEM need a bad
    // range); if it ever did, the mapping is still correct, only slower.
    debug_assert_eq!(rc, 0, "madvise(MADV_RANDOM) on a fresh mapping");
}

/// Prefaults `[addr, addr + len)` of a writable mapping for writing
/// (`MADV_POPULATE_WRITE`): one call makes every page of the range
/// present and writable, so the stores that follow take no fault. Returns
/// whether the kernel did.
///
/// Advice only: a kernel older than 5.14 answers `EINVAL`, and any other
/// failure leaves the range as it was; either way the stores fault one page
/// at a time, as they would without the call. Callers populate the pages
/// they are about to write and nothing more — a populated hole of a puddle
/// file is allocated on disk.
pub fn populate_write(addr: usize, len: usize) -> bool {
    // SAFETY: MADV_POPULATE_WRITE changes no byte of the range: it faults
    // pages in as a write would, without writing. A range that is not a
    // writable mapping, or whose pages cannot be faulted in, is refused
    // with an error, not a signal.
    unsafe { libc::madvise(addr as *mut libc::c_void, len, libc::MADV_POPULATE_WRITE) == 0 }
}

impl Drop for VaReservation {
    fn drop(&mut self) {
        // SAFETY: we own [base, base+len); any file mappings inside were
        // created over our reservation and are released together with it.
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.len);
        }
    }
}

/// State of one mapped puddle inside the global space.
#[derive(Debug)]
struct Mapping {
    len: usize,
    writable: bool,
    refcount: usize,
}

/// The reserved global puddle space plus the set of currently mapped
/// puddles.
///
/// A daemon owns one per "machine". In-process clients share it via `Arc`;
/// out-of-process clients reserve their own at the base the daemon reports
/// in `Welcome`. Mappings are reference counted, so the daemon's recovery
/// pass and the client library can map the same puddle without tripping
/// over each other.
#[derive(Debug)]
pub struct GlobalSpace {
    reservation: VaReservation,
    mappings: Mutex<HashMap<usize, Mapping>>,
}

impl GlobalSpace {
    /// Reserves a global space of `size` bytes, preferably at `base_hint`.
    pub fn reserve(base_hint: Option<usize>, size: usize) -> Result<Self> {
        let reservation = VaReservation::reserve(base_hint, size)?;
        Ok(GlobalSpace {
            reservation,
            mappings: Mutex::new(HashMap::new()),
        })
    }

    /// Returns the base virtual address of the space.
    pub fn base(&self) -> usize {
        self.reservation.base()
    }

    /// Returns the size of the space in bytes.
    pub fn size(&self) -> usize {
        self.reservation.len()
    }

    /// Translates an offset within the space to a virtual address.
    pub fn addr_of(&self, offset: usize) -> usize {
        self.base() + offset
    }

    /// Translates a virtual address inside the space back to an offset.
    pub fn offset_of(&self, addr: usize) -> Option<usize> {
        if addr >= self.base() && addr < self.base() + self.size() {
            Some(addr - self.base())
        } else {
            None
        }
    }

    /// Returns `true` if the puddle at `offset` is currently mapped.
    pub fn is_mapped(&self, offset: usize) -> bool {
        self.mappings.lock().contains_key(&offset)
    }

    /// Maps `len` bytes of `file` at `offset` within the space.
    ///
    /// If the puddle is already mapped the reference count is bumped; a
    /// read-only mapping is upgraded to read-write when `writable` is
    /// requested. Returns the puddle's virtual address.
    pub fn map_puddle(
        &self,
        file: &File,
        offset: usize,
        len: usize,
        writable: bool,
    ) -> Result<usize> {
        if !offset.is_multiple_of(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(PmError::Misaligned {
                value: offset | len,
                align: PAGE_SIZE,
            });
        }
        let mut mappings = self.mappings.lock();
        if let Some(m) = mappings.get_mut(&offset) {
            if m.len != len {
                return Err(PmError::Corruption(format!(
                    "puddle at offset {offset:#x} already mapped with length {:#x}, requested {len:#x}",
                    m.len
                )));
            }
            if writable && !m.writable {
                self.reservation.map_file_fixed(offset, file, len, true)?;
                m.writable = true;
            }
            m.refcount += 1;
            return Ok(self.addr_of(offset));
        }
        let addr = self
            .reservation
            .map_file_fixed(offset, file, len, writable)?;
        mappings.insert(
            offset,
            Mapping {
                len,
                writable,
                refcount: 1,
            },
        );
        Ok(addr)
    }

    /// Releases one reference to the puddle mapped at `offset`, unmapping it
    /// when the count reaches zero.
    ///
    /// # Safety
    ///
    /// When this drops the last reference, no live references or raw-pointer
    /// accesses into the puddle's range may remain.
    pub unsafe fn unmap_puddle(&self, offset: usize) -> Result<()> {
        let mut mappings = self.mappings.lock();
        let Some(m) = mappings.get_mut(&offset) else {
            return Err(PmError::OutOfRange { offset, len: 0 });
        };
        m.refcount -= 1;
        if m.refcount == 0 {
            let len = m.len;
            mappings.remove(&offset);
            // SAFETY: last reference gone per the caller contract.
            unsafe { self.reservation.unmap(offset, len)? };
        }
        Ok(())
    }

    /// Returns the number of distinct puddles currently mapped.
    pub fn mapped_count(&self) -> usize {
        self.mappings.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmdir::PmDir;

    #[test]
    fn reserve_and_release() {
        let res = VaReservation::reserve(None, 1 << 30).unwrap();
        assert!(res.base() != 0);
        assert_eq!(res.len(), 1 << 30);
        assert!(res.contains(res.base(), PAGE_SIZE));
        assert!(!res.contains(res.base() + (1 << 30), 1));
    }

    #[test]
    fn reserve_with_hint_prefers_hint() {
        // A high, normally-unused address.
        let hint = 0x5a00_0000_0000usize;
        let res = VaReservation::reserve(Some(hint), 1 << 24).unwrap();
        // Either the hint was honoured or the kernel relocated us; both are
        // valid, but on an idle test process the hint should normally win.
        assert!(res.base() != 0);
    }

    #[test]
    fn rejects_bad_lengths_and_offsets() {
        assert!(VaReservation::reserve(None, 0).is_err());
        assert!(VaReservation::reserve(None, 100).is_err());
        let res = VaReservation::reserve(None, 1 << 20).unwrap();
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        pm.create_puddle_file("p", PAGE_SIZE).unwrap();
        let (file, _) = pm.open_puddle_file("p", PAGE_SIZE).unwrap();
        assert!(res.map_file_fixed(1, &file, PAGE_SIZE, true).is_err());
        assert!(res.map_file_fixed(0, &file, 17, true).is_err());
        assert!(res.map_file_fixed(1 << 20, &file, PAGE_SIZE, true).is_err());
    }

    #[test]
    fn map_write_unmap_remap_reads_back() {
        let res = VaReservation::reserve(None, 1 << 22).unwrap();
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        pm.create_puddle_file("p", 4 * PAGE_SIZE).unwrap();
        let (file, _) = pm.open_puddle_file("p", 4 * PAGE_SIZE).unwrap();

        let addr = res
            .map_file_fixed(8 * PAGE_SIZE, &file, 4 * PAGE_SIZE, true)
            .unwrap();
        assert_eq!(addr, res.base() + 8 * PAGE_SIZE);
        // SAFETY: addr points at our fresh 4-page writable mapping.
        unsafe {
            std::ptr::write_bytes(addr as *mut u8, 0xAB, 4 * PAGE_SIZE);
        }
        // SAFETY: no references into the mapping remain.
        unsafe { res.unmap(8 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap() };

        // Remap elsewhere in the space and confirm the data survived.
        let (file2, _) = pm.open_puddle_file("p", 4 * PAGE_SIZE).unwrap();
        let addr2 = res
            .map_file_fixed(64 * PAGE_SIZE, &file2, 4 * PAGE_SIZE, false)
            .unwrap();
        // SAFETY: addr2 is a live read-only mapping of the same file.
        let byte = unsafe { *(addr2 as *const u8).add(PAGE_SIZE + 5) };
        assert_eq!(byte, 0xAB);
        // SAFETY: no references into the mapping remain.
        unsafe { res.unmap(64 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap() };
    }

    #[test]
    fn map_anywhere_roundtrip() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        pm.create_puddle_file("q", PAGE_SIZE).unwrap();
        let (file, _) = pm.open_puddle_file("q", PAGE_SIZE).unwrap();
        let addr = VaReservation::map_file_anywhere(&file, PAGE_SIZE, true).unwrap();
        // SAFETY: fresh writable PAGE_SIZE mapping.
        unsafe {
            *(addr as *mut u64) = 0xdead_beef;
            assert_eq!(*(addr as *const u64), 0xdead_beef);
            VaReservation::unmap_anywhere(addr, PAGE_SIZE).unwrap();
        }
    }

    /// A fresh pool root's size: 2,048 pages of holes.
    const FRESH_ROOT_LEN: usize = 8 << 20;

    /// The `VmFlags` of the mapping that starts at `addr`, read from
    /// `/proc/self/smaps`.
    fn vm_flags(addr: usize) -> String {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let head = format!("{addr:x}-");
        let mut lines = smaps.lines().skip_while(|l| !l.starts_with(&head));
        assert!(lines.next().is_some(), "no mapping starts at {addr:#x}");
        let flags = lines.find_map(|l| l.strip_prefix("VmFlags:"));
        flags.expect("smaps entry has a VmFlags line").to_string()
    }

    /// The pages of `[addr, addr + len)` whose backing is resident, by
    /// index, per `mincore`.
    fn resident_pages(addr: usize, len: usize) -> Vec<usize> {
        let mut vec = vec![0u8; len.div_ceil(PAGE_SIZE)];
        // SAFETY: `[addr, addr + len)` is a live mapping and `vec` holds
        // one byte per page of it.
        let rc = unsafe { libc::mincore(addr as *mut libc::c_void, len, vec.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore: {}", std::io::Error::last_os_error());
        (0..vec.len()).filter(|&i| vec[i] & 1 != 0).collect()
    }

    /// Loads one byte of the fresh root mapped at `addr`, then checks the
    /// mapping is advised random-access and that the load brought in at
    /// most one fault-around window (16 pages), not a read-ahead window.
    fn assert_first_load_faults_one_page(addr: usize) {
        // SAFETY: `addr` is a live readable mapping of FRESH_ROOT_LEN bytes.
        let byte = unsafe { std::ptr::read_volatile((addr + 4 * PAGE_SIZE) as *const u8) };
        assert_eq!(byte, 0);
        let flags = vm_flags(addr);
        assert!(
            flags.split_whitespace().any(|f| f == "rr"),
            "mapping not advised random-access: VmFlags:{flags}"
        );
        let resident = resident_pages(addr, FRESH_ROOT_LEN).len();
        assert!(
            resident <= 16,
            "one load made {resident} of {} pages resident",
            FRESH_ROOT_LEN / PAGE_SIZE
        );
    }

    #[test]
    fn fixed_mapping_is_advised_random_and_faults_one_page() {
        let res = VaReservation::reserve(None, 2 * FRESH_ROOT_LEN).unwrap();
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        pm.create_puddle_file("root", FRESH_ROOT_LEN).unwrap();
        let (file, _) = pm.open_puddle_file("root", FRESH_ROOT_LEN).unwrap();
        let addr = res
            .map_file_fixed(FRESH_ROOT_LEN, &file, FRESH_ROOT_LEN, true)
            .unwrap();
        assert_first_load_faults_one_page(addr);
        // SAFETY: no references into the mapping remain.
        unsafe { res.unmap(FRESH_ROOT_LEN, FRESH_ROOT_LEN).unwrap() };
    }

    #[test]
    fn anywhere_mapping_is_advised_random_and_faults_one_page() {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        pm.create_puddle_file("pool", FRESH_ROOT_LEN).unwrap();
        let (file, _) = pm.open_puddle_file("pool", FRESH_ROOT_LEN).unwrap();
        let addr = VaReservation::map_file_anywhere(&file, FRESH_ROOT_LEN, true).unwrap();
        assert_first_load_faults_one_page(addr);
        // SAFETY: no references into the mapping remain.
        unsafe { VaReservation::unmap_anywhere(addr, FRESH_ROOT_LEN).unwrap() };
    }

    #[test]
    fn populating_a_range_makes_exactly_its_pages_resident() {
        let res = VaReservation::reserve(None, 2 * FRESH_ROOT_LEN).unwrap();
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        pm.create_puddle_file("root", FRESH_ROOT_LEN).unwrap();
        let (file, _) = pm.open_puddle_file("root", FRESH_ROOT_LEN).unwrap();
        let addr = res
            .map_file_fixed(FRESH_ROOT_LEN, &file, FRESH_ROOT_LEN, true)
            .unwrap();
        assert_eq!(resident_pages(addr, FRESH_ROOT_LEN), Vec::<usize>::new());
        let (first, pages) = (100, 37);
        let populated = populate_write(addr + first * PAGE_SIZE, pages * PAGE_SIZE);
        let resident = resident_pages(addr, FRESH_ROOT_LEN);
        if populated {
            assert_eq!(resident, (first..first + pages).collect::<Vec<_>>());
        } else {
            // A kernel without MADV_POPULATE_WRITE: nothing moved.
            assert_eq!(resident, Vec::<usize>::new());
        }
        // Populating wrote nothing: the range still reads as zeros.
        // SAFETY: a live mapping of FRESH_ROOT_LEN readable bytes.
        let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, FRESH_ROOT_LEN) };
        assert!(bytes[first * PAGE_SIZE..(first + pages) * PAGE_SIZE]
            .iter()
            .all(|&b| b == 0));
        // SAFETY: no references into the mapping remain.
        unsafe { res.unmap(FRESH_ROOT_LEN, FRESH_ROOT_LEN).unwrap() };
    }

    #[test]
    fn populating_an_unmapped_range_is_refused_not_fatal() {
        let res = VaReservation::reserve(None, 1 << 22).unwrap();
        assert!(!populate_write(res.base(), PAGE_SIZE));
    }

    #[test]
    fn read_only_mapping_disallows_write_prot() {
        // We cannot portably catch SIGSEGV here; instead just validate that a
        // read-only mapping can be created and read.
        let res = VaReservation::reserve(None, 1 << 20).unwrap();
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        pm.create_puddle_file("r", PAGE_SIZE).unwrap();
        let (file, _) = pm.open_puddle_file("r", PAGE_SIZE).unwrap();
        let addr = res.map_file_fixed(0, &file, PAGE_SIZE, false).unwrap();
        // SAFETY: live read-only mapping.
        let v = unsafe { *(addr as *const u8) };
        assert_eq!(v, 0);
        // SAFETY: no references remain.
        unsafe { res.unmap(0, PAGE_SIZE).unwrap() };
    }

    fn global_space() -> (tempfile::TempDir, PmDir, GlobalSpace) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let space = GlobalSpace::reserve(None, 1 << 26).unwrap();
        (tmp, pm, space)
    }

    #[test]
    fn map_refcount_and_unmap() {
        let (_tmp, pm, space) = global_space();
        pm.create_puddle_file("p", 4 * PAGE_SIZE).unwrap();
        let (file, _) = pm.open_puddle_file("p", 4 * PAGE_SIZE).unwrap();
        let addr1 = space.map_puddle(&file, 0, 4 * PAGE_SIZE, true).unwrap();
        let addr2 = space.map_puddle(&file, 0, 4 * PAGE_SIZE, false).unwrap();
        assert_eq!(addr1, addr2);
        assert_eq!(space.mapped_count(), 1);
        assert!(space.is_mapped(0));
        // SAFETY: no outstanding references into the mapping.
        unsafe {
            space.unmap_puddle(0).unwrap();
            assert!(space.is_mapped(0));
            space.unmap_puddle(0).unwrap();
        }
        assert!(!space.is_mapped(0));
        assert!(unsafe { space.unmap_puddle(0) }.is_err());
    }

    #[test]
    fn read_only_then_write_upgrade() {
        let (_tmp, pm, space) = global_space();
        pm.create_puddle_file("p", PAGE_SIZE).unwrap();
        let (file, _) = pm.open_puddle_file("p", PAGE_SIZE).unwrap();
        let addr = space
            .map_puddle(&file, PAGE_SIZE, PAGE_SIZE, false)
            .unwrap();
        // Upgrade to writable on second map.
        let addr2 = space.map_puddle(&file, PAGE_SIZE, PAGE_SIZE, true).unwrap();
        assert_eq!(addr, addr2);
        // SAFETY: mapping is now writable and exclusively ours.
        unsafe { *(addr as *mut u64) = 77 };
        // SAFETY: drop both references; no accesses remain.
        unsafe {
            space.unmap_puddle(PAGE_SIZE).unwrap();
            space.unmap_puddle(PAGE_SIZE).unwrap();
        }
    }

    #[test]
    fn offset_addr_translation() {
        let (_tmp, _pm, space) = global_space();
        let base = space.base();
        assert_eq!(space.addr_of(0x2000), base + 0x2000);
        assert_eq!(space.offset_of(base + 0x2000), Some(0x2000));
        assert_eq!(space.offset_of(base - 1), None);
        assert_eq!(space.offset_of(base + space.size()), None);
    }

    #[test]
    fn misaligned_map_is_rejected() {
        let (_tmp, pm, space) = global_space();
        pm.create_puddle_file("p", PAGE_SIZE).unwrap();
        let (file, _) = pm.open_puddle_file("p", PAGE_SIZE).unwrap();
        assert!(space.map_puddle(&file, 5, PAGE_SIZE, true).is_err());
        assert!(space.map_puddle(&file, 0, 100, true).is_err());
    }
}
