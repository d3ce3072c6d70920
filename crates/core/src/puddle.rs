//! A mapped puddle: header management, allocator access, rewrite-on-map.
//!
//! A puddle is a contiguous, page-aligned region of persistent memory with
//! two parts (§4.3): a [`PuddleHeader`] page holding the puddle's identity,
//! and a heap holding the allocator metadata and application objects. Only
//! this library reads the header; the daemon knows just its size
//! ([`PUDDLE_HEADER_SIZE`]), past which log puddles hold `puddles-logfmt`'s
//! structures.

use crate::alloc::PuddleAlloc;
use crate::client::ClientInner;
use crate::error::{Error, Result};
use crate::reloc;
use puddles_logfmt::PUDDLE_HEADER_SIZE;
use puddles_pmem::{failpoint, persist};
use puddles_proto::{PuddleId, PuddleInfo, Request, Response};
use std::sync::Arc;

/// A puddle mapped into this process's global puddle space.
///
/// Created through [`crate::pool::Pool`]; unmapped (one reference released)
/// on drop.
pub struct MappedPuddle {
    client: Arc<ClientInner>,
    info: PuddleInfo,
    addr: usize,
    alloc: PuddleAlloc,
}

impl std::fmt::Debug for MappedPuddle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedPuddle")
            .field("id", &self.info.id)
            .field("addr", &format_args!("{:#x}", self.addr))
            .field("size", &self.info.size)
            .field("writable", &self.info.writable)
            .finish()
    }
}

impl MappedPuddle {
    /// Maps the puddle described by `info`, initializing its header and
    /// allocator if it is brand new, and rewriting its pointers if the
    /// daemon flagged it for relocation.
    pub(crate) fn map(client: Arc<ClientInner>, info: PuddleInfo) -> Result<Arc<Self>> {
        let addr = client.map_puddle_raw(&info)?;
        // SAFETY: `addr` is a fresh mapping of `info.size` bytes that stays
        // alive until this `MappedPuddle` is dropped (which releases the
        // reference after the allocator is gone).
        let alloc = unsafe { PuddleAlloc::new(addr, info.size as usize) };
        let puddle = MappedPuddle {
            client,
            info,
            addr,
            alloc,
        };

        // SAFETY: the first PUDDLE_HEADER_SIZE bytes of the mapping are
        // valid for reads.
        let header = unsafe { PuddleHeader::read_from(addr as *const u8) };
        if header.magic != PUDDLE_MAGIC {
            if !puddle.info.writable {
                return Err(Error::Corruption(format!(
                    "puddle {} is uninitialized and mapped read-only",
                    puddle.info.id
                )));
            }
            // The header's magic is the commit point: the allocator is
            // persisted first, so a crash in between leaves a puddle the
            // next map finds fresh and initializes again.
            puddle.alloc.init();
            if failpoint::should_fail(failpoint::names::PUDDLE_INIT_CRASH) {
                return Err(Error::CrashInjected(failpoint::names::PUDDLE_INIT_CRASH));
            }
            let header = PuddleHeader::new(puddle.info.id, puddle.info.size, addr as u64);
            // SAFETY: mapped writable; header region is exclusively ours
            // until the puddle is published.
            unsafe { header.write_to(addr as *mut u8) };
        } else if !puddle.alloc.is_initialized() {
            return Err(Error::Corruption(format!(
                "puddle {} has a header but no allocator metadata",
                puddle.info.id
            )));
        }

        if puddle.info.needs_rewrite {
            puddle.rewrite()?;
        }
        Ok(Arc::new(puddle))
    }

    /// Rewrites this puddle's pointers according to the daemon's pending
    /// translations, then reports completion.
    fn rewrite(&self) -> Result<()> {
        if !self.info.writable {
            return Err(Error::Corruption(format!(
                "puddle {} needs pointer rewriting but is mapped read-only",
                self.info.id
            )));
        }
        let translations = match self
            .client
            .call(&Request::GetRelocation { id: self.info.id })?
        {
            Response::Relocation {
                needs_rewrite: true,
                translations,
            } => translations,
            Response::Relocation {
                needs_rewrite: false,
                ..
            } => return Ok(()),
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        let types = self.client.merged_types()?;
        reloc::rewrite_puddle(&self.alloc, &translations, &types);
        // Record the address the pointers are now written for.
        // SAFETY: header region of a writable mapping.
        unsafe {
            let mut header = PuddleHeader::read_from(self.addr as *const u8);
            header.current_addr = self.addr as u64;
            header.write_to(self.addr as *mut u8);
        }
        self.client
            .call(&Request::MarkRewritten { id: self.info.id })?;
        Ok(())
    }

    /// The puddle's UUID.
    pub fn id(&self) -> PuddleId {
        self.info.id
    }

    /// The puddle's base virtual address.
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// The puddle's total size in bytes.
    pub fn size(&self) -> usize {
        self.info.size as usize
    }

    /// Whether the puddle is mapped writable.
    pub fn writable(&self) -> bool {
        self.info.writable
    }

    /// Returns `true` if `addr` lies inside this puddle.
    pub fn contains(&self, addr: usize) -> bool {
        addr >= self.addr && addr < self.addr + self.info.size as usize
    }

    /// The puddle's object allocator.
    pub fn alloc(&self) -> &PuddleAlloc {
        &self.alloc
    }

    /// Reads the puddle header.
    pub fn header(&self) -> PuddleHeader {
        // SAFETY: the header region is mapped for the puddle's lifetime.
        unsafe { PuddleHeader::read_from(self.addr as *const u8) }
    }

    /// Returns the root object offset recorded in the header (0 = none).
    pub fn root_offset(&self) -> u64 {
        self.header().root_obj_off
    }

    /// Records `offset` (from the puddle base) as the root object, with
    /// undo logging through `logger`.
    pub(crate) fn set_root_offset(
        &self,
        offset: u64,
        logger: &mut dyn crate::alloc::MetaLogger,
    ) -> Result<()> {
        let mut header = self.header();
        logger.log_range(self.addr, std::mem::size_of::<PuddleHeader>())?;
        header.root_obj_off = offset;
        // SAFETY: header region of a writable mapping.
        unsafe { header.write_to(self.addr as *mut u8) };
        persist::persist_obj(&header);
        Ok(())
    }
}

impl Drop for MappedPuddle {
    fn drop(&mut self) {
        self.client.unmap_puddle(&self.info);
    }
}

/// Magic number identifying an initialized puddle header.
pub const PUDDLE_MAGIC: u64 = 0x5055_4444_4c45_2131; // "PUDDLE!1"

/// On-PM header at offset 0 of every puddle.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct PuddleHeader {
    /// Must equal [`PUDDLE_MAGIC`] once initialized.
    pub magic: u64,
    /// Low 64 bits of the puddle UUID.
    pub uuid_lo: u64,
    /// High 64 bits of the puddle UUID.
    pub uuid_hi: u64,
    /// Total puddle size in bytes (header + heap).
    pub size: u64,
    /// Offset of the heap region from the start of the puddle.
    pub heap_off: u64,
    /// The virtual address this puddle's pointers are currently written for.
    ///
    /// When the puddle is mapped at a different address (import, global-space
    /// relocation), every internal pointer is rewritten and this field is
    /// updated to the new address.
    pub current_addr: u64,
    /// Offset (from the puddle base) of the root object, or 0 if none.
    pub root_obj_off: u64,
    /// Flag bits (reserved; must be zero).
    pub flags: u64,
}

impl PuddleHeader {
    /// Builds a fresh header for a puddle of `size` bytes mapped at
    /// `current_addr`.
    pub fn new(id: PuddleId, size: u64, current_addr: u64) -> Self {
        PuddleHeader {
            magic: PUDDLE_MAGIC,
            uuid_lo: id.0 as u64,
            uuid_hi: (id.0 >> 64) as u64,
            size,
            heap_off: PUDDLE_HEADER_SIZE as u64,
            current_addr,
            root_obj_off: 0,
            flags: 0,
        }
    }

    /// Returns the puddle's UUID.
    pub fn id(&self) -> PuddleId {
        PuddleId((self.uuid_hi as u128) << 64 | self.uuid_lo as u128)
    }

    /// Returns `true` if the header looks initialized.
    pub fn is_valid(&self) -> bool {
        self.magic == PUDDLE_MAGIC && self.heap_off as usize >= std::mem::size_of::<Self>()
    }

    /// Reads a header from the start of a mapped puddle.
    ///
    /// # Safety
    ///
    /// `base` must point to at least [`PUDDLE_HEADER_SIZE`] readable bytes.
    pub unsafe fn read_from(base: *const u8) -> Self {
        // SAFETY: forwarded from the caller; `PuddleHeader` is plain data.
        unsafe { std::ptr::read_unaligned(base as *const PuddleHeader) }
    }

    /// Writes this header to the start of a mapped puddle and persists it.
    ///
    /// # Safety
    ///
    /// `base` must point to at least [`PUDDLE_HEADER_SIZE`] writable bytes.
    pub unsafe fn write_to(&self, base: *mut u8) {
        // SAFETY: forwarded from the caller.
        unsafe { std::ptr::write_unaligned(base as *mut PuddleHeader, *self) };
        persist::persist(base, std::mem::size_of::<Self>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips_through_memory() {
        let id = PuddleId(0xfeed_face_cafe_f00d_1234_5678_9abc_def0u128);
        let hdr = PuddleHeader::new(id, 1 << 21, 0x5000_0000_0000);
        let mut buf = vec![0u8; PUDDLE_HEADER_SIZE];
        // SAFETY: `buf` is large enough and exclusively owned.
        unsafe {
            hdr.write_to(buf.as_mut_ptr());
            let back = PuddleHeader::read_from(buf.as_ptr());
            assert!(back.is_valid());
            assert_eq!(back.id(), id);
            assert_eq!(back.size, 1 << 21);
            assert_eq!(back.current_addr, 0x5000_0000_0000);
        }
    }

    #[test]
    fn zeroed_header_is_invalid() {
        let buf = vec![0u8; PUDDLE_HEADER_SIZE];
        // SAFETY: `buf` is large enough.
        let hdr = unsafe { PuddleHeader::read_from(buf.as_ptr()) };
        assert!(!hdr.is_valid());
    }

    #[test]
    fn header_fits_in_reserved_region() {
        assert!(std::mem::size_of::<PuddleHeader>() <= PUDDLE_HEADER_SIZE);
    }
}
