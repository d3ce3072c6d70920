//! One heap interface over the three PM libraries the evaluation compares,
//! so that each workload structure ([`crate::list`], [`crate::kv`],
//! [`crate::btree`]) is written once and monomorphised per library.
//!
//! What [`PmHeap`] leaves to the library is what the paper's Fig. 1 is
//! about: how a persistent pointer is represented and dereferenced, and how
//! a transaction makes an in-place store failure-atomic.
//!
//! | Library | [`PmHeap::Ptr`] | [`PmHeap::at`] | [`PmHeap::add`] |
//! |---|---|---|---|
//! | Puddles ([`Pool`]) | [`PmPtr`]: the native address | none: it *is* the address | an undo-log entry |
//! | PMDK-sim ([`PmdkPool`]) | [`Toid`]: 16-byte (pool id, offset) | a pool-table lookup per dereference | an undo-log entry |
//! | Romulus-sim ([`RomulusPool`]) | `u64` offset into the main replica | base + offset | a dirty range, copied to the back replica at commit |
//!
//! Everything else is decided once, in the generic structure, and is the
//! same for all three: which ranges an operation logs (a list or root field
//! per store, a KV value, bucket slot and count, a whole B-tree node), and
//! in what order it allocates, logs, stores and frees.

use pmdk_sim::{PmdkPool, PmdkTx, Toid};
use puddles::{PmPtr, PmType, Pool, Transaction, UNTYPED_TYPE_ID};
use romulus_sim::{RomulusPool, RomulusTx};

/// A persistent heap: transactions, allocation and pointers of one PM
/// library.
pub trait PmHeap: Sized {
    /// A persistent pointer to a `T`. `Default` is the null pointer.
    type Ptr<T>: Copy + Default + PartialEq;
    /// An open transaction.
    type Tx<'t>;
    /// The library's error.
    type Error: std::fmt::Debug;

    /// Runs `body` as one failure-atomic transaction: its stores persist
    /// together when it returns `Ok`, and none of them when it returns
    /// `Err`.
    fn tx<R>(
        &self,
        body: impl FnOnce(&mut Self::Tx<'_>) -> Result<R, Self::Error>,
    ) -> Result<R, Self::Error>;

    /// The root object, if one was created.
    fn root<T>(&self) -> Option<Self::Ptr<T>>;

    /// Allocates `len` zeroed, untyped bytes to hold an array of `T`s.
    fn alloc_zeroed<T>(
        &self,
        tx: &mut Self::Tx<'_>,
        len: usize,
    ) -> Result<Self::Ptr<T>, Self::Error>;

    /// Frees an object allocated by [`PmHeap::alloc`].
    fn free<T>(&self, tx: &mut Self::Tx<'_>, ptr: Self::Ptr<T>) -> Result<(), Self::Error>;

    /// The native address `ptr` refers to: the library's dereference.
    fn at<T>(&self, ptr: Self::Ptr<T>) -> *mut T;

    /// Makes the in-place store into `*target` that follows part of the
    /// transaction. Call it before the store.
    fn add<T>(&self, tx: &mut Self::Tx<'_>, target: &T) -> Result<(), Self::Error>;

    /// Allocates and initialises an object.
    fn alloc<T: Object<Self>>(
        &self,
        tx: &mut Self::Tx<'_>,
        value: T,
    ) -> Result<Self::Ptr<T>, Self::Error> {
        T::alloc(self, tx, value, false)
    }

    /// The root object. If the heap has none, one transaction builds it
    /// with `init` and makes it the root.
    fn root_or_create<T: Object<Self>>(
        &self,
        init: impl FnOnce(&mut Self::Tx<'_>) -> Result<T, Self::Error>,
    ) -> Result<Self::Ptr<T>, Self::Error> {
        match self.root() {
            Some(root) => Ok(root),
            None => self.tx(|tx| {
                let value = init(tx)?;
                T::alloc(self, tx, value, true)
            }),
        }
    }

    /// [`add`](PmHeap::add)s `*target`, then stores `value` into it.
    fn set<T: Copy>(
        &self,
        tx: &mut Self::Tx<'_>,
        target: &mut T,
        value: T,
    ) -> Result<(), Self::Error> {
        self.add(tx, target)?;
        *target = value;
        Ok(())
    }

    /// The null pointer.
    fn null<T>() -> Self::Ptr<T> {
        Self::Ptr::default()
    }

    /// Whether `ptr` is null.
    fn is_null<T>(ptr: Self::Ptr<T>) -> bool {
        ptr == Self::null()
    }
}

/// A type heap `H` can allocate. Puddles tags every allocation with its
/// type's id and registers the type's pointer map, so its objects are
/// [`PmType`]s; the baselines allocate any type.
pub trait Object<H: PmHeap>: Sized {
    /// Allocates and initialises `value`, as the heap's root object if
    /// `root`.
    fn alloc(
        heap: &H,
        tx: &mut H::Tx<'_>,
        value: Self,
        root: bool,
    ) -> Result<H::Ptr<Self>, H::Error>;
}

impl PmHeap for Pool {
    type Ptr<T> = PmPtr<T>;
    type Tx<'t> = Transaction<'t>;
    type Error = puddles::Error;

    fn tx<R>(
        &self,
        body: impl FnOnce(&mut Transaction<'_>) -> puddles::Result<R>,
    ) -> puddles::Result<R> {
        Pool::tx(self, body)
    }

    fn root<T>(&self) -> Option<PmPtr<T>> {
        Pool::root(self)
    }

    fn alloc_zeroed<T>(&self, tx: &mut Transaction<'_>, len: usize) -> puddles::Result<PmPtr<T>> {
        let addr = self.alloc_raw(tx, len, UNTYPED_TYPE_ID)?;
        // SAFETY: a fresh allocation of `len` writable bytes.
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0, len) };
        Ok(PmPtr::from_addr(addr as u64))
    }

    fn free<T>(&self, tx: &mut Transaction<'_>, ptr: PmPtr<T>) -> puddles::Result<()> {
        self.dealloc(tx, ptr)
    }

    fn at<T>(&self, ptr: PmPtr<T>) -> *mut T {
        ptr.as_ptr()
    }

    fn add<T>(&self, tx: &mut Transaction<'_>, target: &T) -> puddles::Result<()> {
        tx.add(target)
    }
}

impl<T: PmType> Object<Pool> for T {
    fn alloc(
        pool: &Pool,
        tx: &mut Transaction<'_>,
        value: T,
        root: bool,
    ) -> puddles::Result<PmPtr<T>> {
        if root {
            Pool::create_root(pool, tx, value)
        } else {
            pool.alloc_value(tx, value)
        }
    }
}

impl PmHeap for PmdkPool {
    type Ptr<T> = Toid<T>;
    type Tx<'t> = PmdkTx<'t>;
    type Error = pmdk_sim::PmdkError;

    fn tx<R>(
        &self,
        body: impl FnOnce(&mut PmdkTx<'_>) -> pmdk_sim::Result<R>,
    ) -> pmdk_sim::Result<R> {
        PmdkPool::tx(self, body)
    }

    fn root<T>(&self) -> Option<Toid<T>> {
        let root = PmdkPool::root(self);
        (!root.is_null()).then_some(root)
    }

    fn alloc_zeroed<T>(&self, tx: &mut PmdkTx<'_>, len: usize) -> pmdk_sim::Result<Toid<T>> {
        let oid = tx.alloc_raw(len)?;
        // SAFETY: a fresh allocation of `len` writable bytes.
        unsafe { std::ptr::write_bytes(oid.direct(), 0, len) };
        Ok(Toid::from_oid(oid))
    }

    fn free<T>(&self, tx: &mut PmdkTx<'_>, ptr: Toid<T>) -> pmdk_sim::Result<()> {
        tx.free(ptr)
    }

    fn at<T>(&self, ptr: Toid<T>) -> *mut T {
        ptr.direct()
    }

    fn add<T>(&self, tx: &mut PmdkTx<'_>, target: &T) -> pmdk_sim::Result<()> {
        tx.add(target)
    }
}

impl<T> Object<PmdkPool> for T {
    fn alloc(_: &PmdkPool, tx: &mut PmdkTx<'_>, value: T, root: bool) -> pmdk_sim::Result<Toid<T>> {
        let ptr = tx.alloc(value)?;
        if root {
            tx.set_root(ptr)?;
        }
        Ok(ptr)
    }
}

impl PmHeap for RomulusPool {
    type Ptr<T> = u64;
    type Tx<'t> = RomulusTx<'t>;
    type Error = romulus_sim::RomulusError;

    fn tx<R>(
        &self,
        body: impl FnOnce(&mut RomulusTx<'_>) -> romulus_sim::Result<R>,
    ) -> romulus_sim::Result<R> {
        RomulusPool::tx(self, body)
    }

    fn root<T>(&self) -> Option<u64> {
        let root = self.root_off();
        (root != 0).then_some(root)
    }

    fn alloc_zeroed<T>(&self, tx: &mut RomulusTx<'_>, len: usize) -> romulus_sim::Result<u64> {
        let off = tx.alloc(len)?;
        let bytes = self.at::<u8>(off);
        // SAFETY: a fresh allocation of `len` bytes in the main replica.
        unsafe {
            std::ptr::write_bytes(bytes, 0, len);
            tx.add(std::slice::from_raw_parts(bytes, len));
        }
        Ok(off)
    }

    fn free<T>(&self, tx: &mut RomulusTx<'_>, off: u64) -> romulus_sim::Result<()> {
        tx.free(off, std::mem::size_of::<T>())
    }

    fn at<T>(&self, off: u64) -> *mut T {
        RomulusPool::at(self, off)
    }

    fn add<T>(&self, tx: &mut RomulusTx<'_>, target: &T) -> romulus_sim::Result<()> {
        tx.add(target);
        Ok(())
    }
}

impl<T> Object<RomulusPool> for T {
    fn alloc(
        pool: &RomulusPool,
        tx: &mut RomulusTx<'_>,
        value: T,
        root: bool,
    ) -> romulus_sim::Result<u64> {
        let off = tx.alloc(std::mem::size_of::<T>())?;
        let target = pool.at::<T>(off);
        // SAFETY: a fresh allocation of `size_of::<T>()` bytes, aligned to
        // 64, in the main replica.
        unsafe {
            target.write(value);
            tx.add(&*target);
        }
        if root {
            tx.set_root(off);
        }
        Ok(off)
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use puddled::{Daemon, DaemonConfig};
    use puddles::PuddleClient;

    /// A daemon in a fresh directory and a client of it.
    pub(crate) fn puddles() -> (tempfile::TempDir, Daemon, PuddleClient) {
        let tmp = tempfile::tempdir().unwrap();
        let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
        let client = PuddleClient::connect_local(&daemon).unwrap();
        (tmp, daemon, client)
    }
}
