//! Pools: named collections of puddles with a single allocation interface
//! (§3.1, §4.4).
//!
//! Programmers allocate from a pool with a `malloc()`-like API and never
//! manage individual puddles: the pool requests new puddles from the daemon
//! when it runs out of space, maps member puddles on demand (the explicit
//! stand-in for the paper's page-fault-driven mapping), and exposes the
//! pool's *root object* stored in the root puddle.
//!
//! What a checked read costs ([`Pool::deref`], [`Pool::ensure_mapped`])
//! depends on where the address lies:
//!
//! * in the root puddle: two compares against the root's span, with no
//!   lock. The root is mapped at open and held for the pool's lifetime, so
//!   [`Pool::root`] reads it without a lock too;
//! * in another mapped member: one lock of the pool's state and a scan of
//!   the mapped members;
//! * anywhere else, a miss: the member holding the address is looked up
//!   and mapped, under the pool's map lock, not its state lock, so reads of
//!   mapped members never wait behind the daemon calls a mapping makes.

use crate::alloc::MetaLogger;
use crate::client::ClientInner;
use crate::error::{Error, Result};
use crate::ptr::PmPtr;
use crate::puddle::MappedPuddle;
use crate::tx::Transaction;
use crate::types::PmType;
use parking_lot::Mutex;
use puddles_pmem::persist;
use puddles_pmem::util::align_up;
use puddles_pmem::PAGE_SIZE;
use puddles_proto::{PoolInfo, PuddleId, PuddleInfo, PuddlePurpose, Request, Response};
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling pool creation and growth.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Size of each puddle the pool allocates (bytes).
    pub puddle_size: u64,
    /// UNIX-like permission bits for the pool's puddles.
    pub mode: u32,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            puddle_size: 8 << 20,
            mode: 0o600,
        }
    }
}

impl PoolOptions {
    /// Sets the per-puddle size.
    pub fn puddle_size(mut self, bytes: u64) -> Self {
        self.puddle_size = bytes;
        self
    }

    /// Sets the permission bits.
    pub fn mode(mut self, mode: u32) -> Self {
        self.mode = mode;
        self
    }
}

struct PoolState {
    info: PoolInfo,
    infos: HashMap<PuddleId, PuddleInfo>,
    mapped: HashMap<PuddleId, Arc<MappedPuddle>>,
    /// Index (into `info.puddles`) of the puddle that satisfied the last
    /// allocation; tried first for the next one.
    alloc_cursor: usize,
}

/// An open pool.
pub struct Pool {
    client: Arc<ClientInner>,
    options: PoolOptions,
    /// The root puddle, mapped at open for the pool's lifetime; it is also
    /// in `PoolState::mapped`. Read without a lock.
    root: Arc<MappedPuddle>,
    state: Mutex<PoolState>,
    /// Held while a member is mapped, so one thread maps it and the others
    /// find it mapped: a fresh member's allocator is laid out once, a
    /// relocated member's pointers are rewritten once.
    map_lock: Mutex<()>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Pool")
            .field("name", &state.info.name)
            .field("puddles", &state.info.puddles.len())
            .field("mapped", &state.mapped.len())
            .finish()
    }
}

impl Pool {
    pub(crate) fn from_info(
        client: Arc<ClientInner>,
        info: PoolInfo,
        options: PoolOptions,
    ) -> Result<Pool> {
        // The root puddle is mapped eagerly: it holds the root object and is
        // the entry point for on-demand mapping of the rest of the pool.
        let root_info = client.get_puddle(info.root_puddle)?;
        let root = MappedPuddle::map(Arc::clone(&client), root_info.clone())?;
        let state = PoolState {
            info,
            infos: HashMap::from([(root.id(), root_info)]),
            mapped: HashMap::from([(root.id(), Arc::clone(&root))]),
            alloc_cursor: 0,
        };
        Ok(Pool {
            client,
            options,
            root,
            state: Mutex::new(state),
            map_lock: Mutex::new(()),
        })
    }

    /// The pool's name.
    pub fn name(&self) -> String {
        self.state.lock().info.name.clone()
    }

    /// Number of puddles currently in the pool.
    pub fn puddle_count(&self) -> usize {
        self.state.lock().info.puddles.len()
    }

    /// Number of puddles currently mapped into this process.
    pub fn mapped_count(&self) -> usize {
        self.state.lock().mapped.len()
    }

    /// Runs a failure-atomic transaction (convenience wrapper around
    /// [`crate::PuddleClient::tx`]; the transaction may also touch other
    /// pools).
    pub fn tx<R>(&self, body: impl FnOnce(&mut Transaction<'_>) -> Result<R>) -> Result<R> {
        crate::tx::run_tx(&self.client, body)
    }

    fn puddle_info(&self, id: PuddleId) -> Result<PuddleInfo> {
        {
            let state = self.state.lock();
            if let Some(info) = state.infos.get(&id) {
                return Ok(info.clone());
            }
        }
        let info = self.client.get_puddle(id)?;
        self.state.lock().infos.insert(id, info.clone());
        Ok(info)
    }

    fn mapped(&self, id: PuddleId) -> Option<Arc<MappedPuddle>> {
        self.state.lock().mapped.get(&id).cloned()
    }

    /// Maps a member puddle (idempotent), returning its handle.
    pub fn map_puddle(&self, id: PuddleId) -> Result<Arc<MappedPuddle>> {
        if let Some(p) = self.mapped(id) {
            return Ok(p);
        }
        let _mapping = self.map_lock.lock();
        if let Some(p) = self.mapped(id) {
            return Ok(p);
        }
        let info = self.puddle_info(id)?;
        let mapped = MappedPuddle::map(Arc::clone(&self.client), info)?;
        self.state.lock().mapped.insert(id, Arc::clone(&mapped));
        Ok(mapped)
    }

    /// Maps every member of the pool, so that no later
    /// [`deref`](Self::deref) into one misses: one into the root stays
    /// lock-free and one into any other member takes one lock. Call it once
    /// before dereferencing [`PmPtr`]s directly, with no check, and before
    /// exporting an imported pool, whose members must all be rewritten.
    pub fn ensure_all_mapped(&self) -> Result<()> {
        let ids: Vec<PuddleId> = self.state.lock().info.puddles.clone();
        for id in ids {
            self.map_puddle(id)?;
        }
        Ok(())
    }

    /// The root puddle of the pool.
    pub fn root_puddle(&self) -> Arc<MappedPuddle> {
        Arc::clone(&self.root)
    }

    /// Returns the pool's root object pointer, or `None` if no root has been
    /// created yet. Takes no lock.
    pub fn root<T>(&self) -> Option<PmPtr<T>> {
        let off = self.root.root_offset();
        if off == 0 {
            None
        } else {
            Some(PmPtr::from_addr(self.root.addr() as u64 + off))
        }
    }

    /// Allocates the pool's root object inside the root puddle and records
    /// it in the puddle header.
    pub fn create_root<T: PmType>(&self, tx: &mut Transaction<'_>, value: T) -> Result<PmPtr<T>> {
        self.client.register_type::<T>()?;
        let root = &self.root;
        if !root.writable() {
            return Err(Error::Corruption("root puddle is read-only".into()));
        }
        let addr = root
            .alloc()
            .alloc(std::mem::size_of::<T>().max(1), T::type_id(), tx)?;
        // SAFETY: `addr` is a fresh allocation of at least `size_of::<T>()`
        // bytes inside a writable mapping.
        unsafe { std::ptr::write(addr as *mut T, value) };
        persist::persist(addr as *const u8, std::mem::size_of::<T>());
        root.set_root_offset((addr - root.addr()) as u64, tx)?;
        Ok(PmPtr::from_addr(addr as u64))
    }

    /// Allocates and initializes an object of type `T` (the pool's typed
    /// `malloc`), returning a native pointer to it.
    pub fn alloc_value<T: PmType>(&self, tx: &mut Transaction<'_>, value: T) -> Result<PmPtr<T>> {
        self.client.register_type::<T>()?;
        let addr = self.alloc_raw(tx, std::mem::size_of::<T>().max(1), T::type_id())?;
        // SAFETY: fresh allocation of the right size in a writable mapping.
        unsafe { std::ptr::write(addr as *mut T, value) };
        persist::persist(addr as *const u8, std::mem::size_of::<T>());
        Ok(PmPtr::from_addr(addr as u64))
    }

    /// Allocates `size` bytes tagged with `type_id` (the pool's raw
    /// `malloc`), growing the pool with a fresh puddle if necessary.
    pub fn alloc_raw(&self, tx: &mut Transaction<'_>, size: usize, type_id: u64) -> Result<usize> {
        let (ids, cursor) = {
            let state = self.state.lock();
            (state.info.puddles.clone(), state.alloc_cursor)
        };
        let n = ids.len();
        for step in 0..n {
            let idx = (cursor + step) % n;
            let puddle = self.map_puddle(ids[idx])?;
            if !puddle.writable() {
                continue;
            }
            match puddle.alloc().alloc(size, type_id, tx) {
                Ok(addr) => {
                    self.state.lock().alloc_cursor = idx;
                    return Ok(addr);
                }
                Err(Error::OutOfMemory(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        // Grow the pool: acquire a new puddle sized for the allocation.
        let puddle_size = self
            .options
            .puddle_size
            .max(align_up(size + 64 * 1024, PAGE_SIZE) as u64);
        let name = self.name();
        let info = match self.client.call(&Request::CreatePuddle {
            size: puddle_size,
            pool: Some(name.clone()),
            purpose: PuddlePurpose::Data,
            mode: self.options.mode,
        })? {
            Response::Puddle(info) => info,
            other => return Err(Error::UnexpectedResponse(format!("{other:?}"))),
        };
        self.state.lock().infos.insert(info.id, info.clone());
        // The new member serves this allocation before other threads can
        // see it: published first, it could be filled by them and fail an
        // allocation it was grown for.
        let addr = self
            .map_puddle(info.id)
            .and_then(|puddle| puddle.alloc().alloc(size, type_id, tx));
        let mut state = self.state.lock();
        state.info.puddles.push(info.id);
        state.alloc_cursor = state.info.puddles.len() - 1;
        addr
    }

    /// Frees an object previously allocated from this pool.
    pub fn dealloc<T>(&self, tx: &mut Transaction<'_>, ptr: PmPtr<T>) -> Result<()> {
        self.free_raw(tx, ptr.addr() as usize)
    }

    /// Frees a raw allocation previously returned by [`Pool::alloc_raw`].
    pub fn free_raw(&self, tx: &mut Transaction<'_>, addr: usize) -> Result<()> {
        let puddle = self
            .puddle_containing(addr)?
            .ok_or(Error::InvalidAddress(addr as u64))?;
        puddle.alloc().dealloc(addr, tx)
    }

    /// Ensures the puddle containing `addr` is mapped (the explicit
    /// equivalent of the paper's fault-driven frontier mapping), returning
    /// an error if the address belongs to no member puddle. Lock-free for
    /// the root; see the module docs for the rest.
    pub fn ensure_mapped(&self, addr: u64) -> Result<()> {
        let at = addr as usize;
        if self.root.contains(at) || self.state.lock().mapped.values().any(|p| p.contains(at)) {
            return Ok(());
        }
        self.map_containing(at)?
            .map(|_| ())
            .ok_or(Error::InvalidAddress(addr))
    }

    /// Finds (mapping on demand) the member puddle containing `addr`.
    pub fn puddle_containing(&self, addr: usize) -> Result<Option<Arc<MappedPuddle>>> {
        if let Some(p) = self.state.lock().mapped.values().find(|p| p.contains(addr)) {
            return Ok(Some(Arc::clone(p)));
        }
        self.map_containing(addr)
    }

    /// The miss path: consults puddle metadata and maps on demand.
    fn map_containing(&self, addr: usize) -> Result<Option<Arc<MappedPuddle>>> {
        let ids: Vec<PuddleId> = self.state.lock().info.puddles.clone();
        for id in ids {
            let info = self.puddle_info(id)?;
            let start = info.assigned_addr as usize;
            if addr >= start && addr < start + info.size as usize {
                return Ok(Some(self.map_puddle(id)?));
            }
        }
        Ok(None)
    }

    /// Dereferences a persistent pointer, mapping its puddle if needed.
    ///
    /// The check costs two compares and no lock for an address in the root
    /// puddle, one lock for one in another mapped member, and a mapping on
    /// a miss (module docs). Null, and an address in no member, are
    /// [`Error::InvalidAddress`].
    pub fn deref<T>(&self, ptr: PmPtr<T>) -> Result<&T> {
        if ptr.is_null() {
            return Err(Error::InvalidAddress(0));
        }
        self.ensure_mapped(ptr.addr())?;
        // SAFETY: the target puddle is mapped (checked above) and the
        // address was produced by this pool's allocator for a `T`.
        Ok(unsafe { ptr.as_ref() })
    }

    /// Mutably dereferences a persistent pointer, mapping its puddle if
    /// needed, with [`deref`](Self::deref)'s check. The caller is
    /// responsible for undo-logging the object before modifying it.
    #[allow(clippy::mut_from_ref)]
    pub fn deref_mut<T>(&self, ptr: PmPtr<T>) -> Result<&mut T> {
        if ptr.is_null() {
            return Err(Error::InvalidAddress(0));
        }
        self.ensure_mapped(ptr.addr())?;
        // SAFETY: as in `deref`, plus pool puddles are mapped writable when
        // the credentials allow it; aliasing discipline is the caller's.
        Ok(unsafe { ptr.as_mut() })
    }

    /// Total free bytes across the currently mapped puddles.
    pub fn free_bytes(&self) -> usize {
        let state = self.state.lock();
        state.mapped.values().map(|p| p.alloc().free_bytes()).sum()
    }

    /// Records `logger`-visible metadata for tests; returns every live
    /// object in the mapped puddles.
    pub fn live_objects(&self) -> Vec<crate::alloc::ObjRef> {
        let state = self.state.lock();
        let mut out = Vec::new();
        for p in state.mapped.values() {
            out.extend(p.alloc().walk());
        }
        out
    }
}

/// Blanket helper so `&mut Transaction` can be passed where a `MetaLogger`
/// is expected without an explicit cast at call sites inside this crate.
impl<'a> MetaLogger for &mut Transaction<'a> {
    fn log_range(&mut self, addr: usize, len: usize) -> Result<()> {
        (**self).log_range(addr, len)
    }
}
