//! A mapped puddle: header management, allocator access, rewrite-on-map.

use crate::alloc::PuddleAlloc;
use crate::client::ClientInner;
use crate::error::{Error, Result};
use crate::reloc;
use puddled::{PuddleHeader, PUDDLE_MAGIC};
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
