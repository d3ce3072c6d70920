//! The `simplekv` key-value store driven by YCSB (Fig. 11), written once
//! over [`PmHeap`], for Puddles, PMDK-sim and Romulus-sim.
//!
//! The store is a fixed-size hash table of chained entries with 8-byte keys
//! and 64-byte values, matching the PMDK `simplekv` example the paper
//! evaluates. Scans (workload E) read `scan_len` consecutive keys through
//! point lookups, as the hash-map layout has no ordered iteration. A `put`
//! that updates logs the 64-byte value; one that inserts logs the bucket
//! slot and the count.

use crate::heap::{Object, PmHeap};
use pmdk_sim::PmdkPool;
use puddles::{impl_pm_type, Pool, PoolOptions, PuddleClient};
use romulus_sim::RomulusPool;
use std::path::Path;
use ycsb::{Operation, Request};

/// Value size in bytes.
pub const VALUE_SIZE: usize = 64;
/// Number of hash buckets (power of two).
pub const BUCKETS: usize = 1 << 16;

fn bucket_of(key: u64) -> usize {
    // Fibonacci hashing keeps the chains short for sequential YCSB keys.
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize & (BUCKETS - 1)
}

/// A fixed-size value.
pub type Value = [u8; VALUE_SIZE];

/// Builds a deterministic value for a key (used by the benches and tests).
pub fn value_for(key: u64, tag: u8) -> Value {
    let mut v = [0u8; VALUE_SIZE];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8] = tag;
    v
}

/// One chained entry.
#[repr(C)]
pub struct Entry<H: PmHeap> {
    key: u64,
    value: Value,
    next: H::Ptr<Entry<H>>,
}

/// The KV root: a bucket table of entry pointers.
#[repr(C)]
pub struct KvRoot<H: PmHeap> {
    buckets: H::Ptr<H::Ptr<Entry<H>>>,
    nbuckets: u64,
    count: u64,
}

/// An entry in a puddle.
pub type PEntry = Entry<Pool>;
impl_pm_type!(PEntry, "datastructures::kv::PEntry", [next => PEntry]);
/// The KV root in a puddle.
pub type PKvRoot = KvRoot<Pool>;
impl_pm_type!(PKvRoot, "datastructures::kv::PKvRoot", [buckets => ()]);
/// An entry in a PMDK pool (fat pointers).
pub type MEntry = Entry<PmdkPool>;
/// The KV root in a PMDK pool.
pub type MKvRoot = KvRoot<PmdkPool>;

/// Hash-map KV store over heap `H`.
pub struct Kv<H: PmHeap> {
    heap: H,
    root: H::Ptr<KvRoot<H>>,
}

/// Hash-map KV store over the Puddles library.
pub type PuddlesKv = Kv<Pool>;
/// Hash-map KV store over the PMDK baseline.
pub type PmdkKv = Kv<PmdkPool>;
/// Hash-map KV store over the Romulus baseline.
pub type RomulusKv = Kv<RomulusPool>;

impl PuddlesKv {
    /// Creates (or opens) the store in pool `name`.
    pub fn new(client: &PuddleClient, name: &str) -> puddles::Result<Self> {
        // The bucket table is one large allocation, so use puddles big
        // enough to hold it.
        let options = PoolOptions::default().puddle_size(16 << 20);
        Self::open(client.open_or_create_pool(name, options)?)
    }
}

impl PmdkKv {
    /// Creates the store in a new pool file at `path`.
    pub fn create(path: impl AsRef<Path>, pool_size: usize) -> pmdk_sim::Result<Self> {
        Self::open(PmdkPool::create(path, pool_size)?)
    }
}

impl RomulusKv {
    /// Creates the store in a new pool file at `path`.
    pub fn create(path: impl AsRef<Path>, region_size: usize) -> romulus_sim::Result<Self> {
        Self::open(RomulusPool::create(path, region_size)?)
    }
}

impl<H: PmHeap> Kv<H>
where
    Entry<H>: Object<H>,
    KvRoot<H>: Object<H>,
{
    /// The store rooted in `heap`, created empty if the heap has no root.
    fn open(heap: H) -> Result<Self, H::Error> {
        let root = heap.root_or_create(|tx| {
            let table_bytes = BUCKETS * std::mem::size_of::<H::Ptr<Entry<H>>>();
            let buckets = heap.alloc_zeroed(tx, table_bytes)?;
            let nbuckets = BUCKETS as u64;
            Ok(KvRoot {
                buckets,
                nbuckets,
                count: 0,
            })
        })?;
        Ok(Kv { heap, root })
    }

    fn bucket_slot(&self, key: u64) -> *mut H::Ptr<Entry<H>> {
        // SAFETY: the root is live while the heap is open.
        let root = unsafe { &*self.heap.at(self.root) };
        // SAFETY: the table has BUCKETS slots and bucket_of < BUCKETS.
        unsafe { self.heap.at(root.buckets).add(bucket_of(key)) }
    }

    /// Reads the value stored for `key`; every chain hop is one
    /// dereference of the heap's pointer.
    pub fn get(&self, key: u64) -> Option<Value> {
        // SAFETY: the bucket table and entries stay live while the heap is
        // open.
        unsafe {
            let mut cur = *self.bucket_slot(key);
            while !H::is_null(cur) {
                let entry = &*self.heap.at(cur);
                if entry.key == key {
                    return Some(entry.value);
                }
                cur = entry.next;
            }
        }
        None
    }

    /// Inserts or updates `key` → `value`.
    pub fn put(&self, key: u64, value: &Value) -> Result<(), H::Error> {
        let heap = &self.heap;
        heap.tx(|tx| {
            let slot = self.bucket_slot(key);
            // SAFETY: slot points into the live bucket table.
            let head = unsafe { *slot };
            let mut cur = head;
            while !H::is_null(cur) {
                // SAFETY: a live entry, not otherwise borrowed.
                let entry = unsafe { &mut *heap.at(cur) };
                if entry.key == key {
                    return heap.set(tx, &mut entry.value, *value);
                }
                cur = entry.next;
            }
            let entry = Entry {
                key,
                value: *value,
                next: head,
            };
            let entry = heap.alloc(tx, entry)?;
            // SAFETY: as above.
            heap.set(tx, unsafe { &mut *slot }, entry)?;
            // SAFETY: the root is live and not otherwise borrowed.
            let root = unsafe { &mut *heap.at(self.root) };
            let count = root.count + 1;
            heap.set(tx, &mut root.count, count)
        })
    }

    /// Number of records stored.
    pub fn len(&self) -> u64 {
        // SAFETY: the root is live while the heap is open.
        unsafe { &*self.heap.at(self.root) }.count
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes one YCSB request, mapping each operation onto `get` and
    /// `put` the same way for every library.
    pub fn execute(&self, req: &Request) -> Result<u64, H::Error> {
        let tag = |k| self.get(k).map(|v| v[8] as u64).unwrap_or(0);
        let mut acc = 0u64;
        match req.op {
            Operation::Read => acc = tag(req.key),
            Operation::Update | Operation::Insert => self.put(req.key, &value_for(req.key, 1))?,
            Operation::Scan => {
                for k in req.key..req.key + req.scan_len {
                    acc = acc.wrapping_add(tag(k));
                }
            }
            Operation::ReadModifyWrite => {
                let next = (tag(req.key) as u8).wrapping_add(1);
                self.put(req.key, &value_for(req.key, next))?;
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::testing;
    use std::collections::HashMap;
    use ycsb::Workload;

    fn matches_a_hashmap_model<H: PmHeap>(kv: Kv<H>)
    where
        Entry<H>: Object<H>,
        KvRoot<H>: Object<H>,
    {
        let mut model: HashMap<u64, Value> = HashMap::new();
        for k in 0..2000u64 {
            let v = value_for(k, (k % 7) as u8);
            kv.put(k, &v).unwrap();
            model.insert(k, v);
        }
        // Overwrites.
        for k in (0..2000u64).step_by(3) {
            let v = value_for(k, 0xEE);
            kv.put(k, &v).unwrap();
            model.insert(k, v);
        }
        assert_eq!(kv.len(), 2000);
        for k in 0..2100u64 {
            assert_eq!(kv.get(k), model.get(&k).copied(), "key {k}");
        }
    }

    #[test]
    fn puddles_kv_matches_a_hashmap_model() {
        let (_tmp, _daemon, client) = testing::puddles();
        matches_a_hashmap_model(PuddlesKv::new(&client, "kv").unwrap());
    }

    #[test]
    fn pmdk_kv_matches_a_hashmap_model() {
        let tmp = tempfile::tempdir().unwrap();
        matches_a_hashmap_model(PmdkKv::create(tmp.path().join("kv.pmdk"), 64 << 20).unwrap());
    }

    #[test]
    fn romulus_kv_matches_a_hashmap_model() {
        let tmp = tempfile::tempdir().unwrap();
        matches_a_hashmap_model(RomulusKv::create(tmp.path().join("kv.rom"), 64 << 20).unwrap());
    }

    #[test]
    fn pmdk_and_romulus_kv_agree_with_puddles_on_ycsb_a() {
        let (tmp, _daemon, client) = testing::puddles();
        let p = PuddlesKv::new(&client, "ycsb").unwrap();
        let m = PmdkKv::create(tmp.path().join("kv.pmdk"), 64 << 20).unwrap();
        let r = RomulusKv::create(tmp.path().join("kv.rom"), 64 << 20).unwrap();

        let records = 1000u64;
        for k in 0..records {
            let v = value_for(k, 0);
            p.put(k, &v).unwrap();
            m.put(k, &v).unwrap();
            r.put(k, &v).unwrap();
        }
        for req in Workload::A.generate(records, 2000, 5) {
            p.execute(&req).unwrap();
            m.execute(&req).unwrap();
            r.execute(&req).unwrap();
        }
        for k in 0..records {
            assert_eq!(p.get(k), m.get(k), "pmdk key {k}");
            assert_eq!(p.get(k), r.get(k), "romulus key {k}");
        }
    }

    /// Cache lines flushed and fences issued by the calling thread in `f`.
    fn persisted(f: impl FnOnce()) -> (u64, u64) {
        use puddles_pmem::persist::thread_counts;
        let before = thread_counts();
        f();
        let after = thread_counts();
        (
            after.lines_flushed - before.lines_flushed,
            after.fences - before.fences,
        )
    }

    #[test]
    fn puddles_kv_put_and_get_persist_pinned_line_and_fence_counts() {
        // An update logs the value (one undo entry, 2 fences); an insert
        // allocates, then logs the slot and the count (4 fences); a get
        // persists nothing. `kv_update` pays exactly these.
        let (_tmp, _daemon, client) = testing::puddles();
        let kv = PuddlesKv::new(&client, "persist").unwrap();
        kv.put(1, &value_for(1, 0)).unwrap();
        assert_eq!(persisted(|| kv.put(2, &value_for(2, 0)).unwrap()), (12, 4));
        assert_eq!(persisted(|| kv.put(2, &value_for(2, 1)).unwrap()), (6, 2));
        assert_eq!(persisted(|| assert!(kv.get(2).is_some())), (0, 0));
    }
}
