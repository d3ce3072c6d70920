//! Singly linked list (Fig. 9): insert a tail node, delete a node, sum all
//! values — written once over [`PmHeap`], for Puddles, PMDK-sim and
//! Romulus-sim.
//!
//! Deletion removes the *head* node so the operation is O(1) on a singly
//! linked list (deleting the true tail would be O(n) per operation and make
//! the 10 M-operation benchmark quadratic); insert and traversal match the
//! paper. Every store undo-logs (or, on Romulus-sim, records) the one field
//! it changes, and a deleted node is freed.

use crate::heap::{Object, PmHeap};
use pmdk_sim::PmdkPool;
use puddles::{impl_pm_type, Pool, PuddleClient};
use romulus_sim::RomulusPool;
use std::path::Path;

/// A linked-list node.
#[repr(C)]
pub struct ListNode<H: PmHeap> {
    /// Payload.
    pub value: u64,
    /// Next node.
    pub next: H::Ptr<ListNode<H>>,
}

/// The list root, the heap's root object.
#[repr(C)]
pub struct ListRoot<H: PmHeap> {
    /// First node.
    pub head: H::Ptr<ListNode<H>>,
    /// Last node.
    pub tail: H::Ptr<ListNode<H>>,
    /// Number of nodes.
    pub len: u64,
}

/// A list node in a puddle (next is a native pointer).
pub type PNode = ListNode<Pool>;
impl_pm_type!(PNode, "datastructures::list::PNode", [next => PNode]);
/// The list root in a puddle.
pub type PListRoot = ListRoot<Pool>;
impl_pm_type!(
    PListRoot,
    "datastructures::list::PListRoot",
    [head => PNode, tail => PNode]
);
/// A list node in a PMDK pool (next is a 16-byte fat pointer).
pub type MNode = ListNode<PmdkPool>;
/// The list root in a PMDK pool.
pub type MListRoot = ListRoot<PmdkPool>;

/// Singly linked list over heap `H`.
pub struct List<H: PmHeap> {
    heap: H,
    root: H::Ptr<ListRoot<H>>,
}

/// Singly linked list over the Puddles library (native pointers).
pub type PuddlesList = List<Pool>;
/// Singly linked list over the PMDK baseline (fat pointers).
pub type PmdkList = List<PmdkPool>;
/// Singly linked list over the Romulus baseline (offsets into the main
/// replica).
pub type RomulusList = List<RomulusPool>;

impl PuddlesList {
    /// Creates (or opens) the list in pool `name`.
    pub fn new(client: &PuddleClient, name: &str) -> puddles::Result<Self> {
        Self::open(client.open_or_create_pool(name, Default::default())?)
    }
}

impl PmdkList {
    /// Creates the list in a new pool file at `path`.
    pub fn create(path: impl AsRef<Path>, pool_size: usize) -> pmdk_sim::Result<Self> {
        Self::open(PmdkPool::create(path, pool_size)?)
    }
}

impl RomulusList {
    /// Creates the list in a new pool file at `path`.
    pub fn create(path: impl AsRef<Path>, region_size: usize) -> romulus_sim::Result<Self> {
        Self::open(RomulusPool::create(path, region_size)?)
    }
}

impl<H: PmHeap> List<H>
where
    ListNode<H>: Object<H>,
    ListRoot<H>: Object<H>,
{
    /// The list rooted in `heap`, created empty if the heap has no root.
    fn open(heap: H) -> Result<Self, H::Error> {
        let (head, tail) = (H::null(), H::null());
        let root = heap.root_or_create(|_| Ok(ListRoot { head, tail, len: 0 }))?;
        Ok(List { heap, root })
    }

    /// Appends a node with `value` at the tail.
    pub fn insert_tail(&self, value: u64) -> Result<(), H::Error> {
        let heap = &self.heap;
        heap.tx(|tx| {
            let next = H::null();
            let node = heap.alloc(tx, ListNode { value, next })?;
            // SAFETY: the root and the nodes it reaches are live while the
            // heap is open, and the transaction holds no other reference to
            // them.
            let r = unsafe { &mut *heap.at(self.root) };
            if H::is_null(r.tail) {
                heap.set(tx, &mut r.head, node)?;
            } else {
                // SAFETY: as above.
                let tail = unsafe { &mut *heap.at(r.tail) };
                heap.set(tx, &mut tail.next, node)?;
            }
            heap.set(tx, &mut r.tail, node)?;
            let len = r.len + 1;
            heap.set(tx, &mut r.len, len)
        })
    }

    /// Removes the head node, returning its value.
    pub fn delete_head(&self) -> Result<Option<u64>, H::Error> {
        let heap = &self.heap;
        heap.tx(|tx| {
            // SAFETY: as in `insert_tail`.
            let r = unsafe { &mut *heap.at(self.root) };
            if H::is_null(r.head) {
                return Ok(None);
            }
            let head = r.head;
            // SAFETY: as above.
            let node = unsafe { &*heap.at(head) };
            let (value, next) = (node.value, node.next);
            heap.set(tx, &mut r.head, next)?;
            if H::is_null(next) {
                heap.set(tx, &mut r.tail, H::null())?;
            }
            let len = r.len - 1;
            heap.set(tx, &mut r.len, len)?;
            heap.free(tx, head)?;
            Ok(Some(value))
        })
    }

    /// Sums every node's value (the traversal benchmark: one dereference
    /// per hop).
    pub fn sum(&self) -> u64 {
        let mut sum = 0u64;
        // SAFETY: as in `insert_tail`; nothing is mutably borrowed.
        let mut cur = unsafe { &*self.heap.at(self.root) }.head;
        while !H::is_null(cur) {
            // SAFETY: as above.
            let node = unsafe { &*self.heap.at(cur) };
            sum = sum.wrapping_add(node.value);
            cur = node.next;
        }
        sum
    }

    /// Number of nodes.
    pub fn len(&self) -> u64 {
        // SAFETY: as in `sum`.
        unsafe { &*self.heap.at(self.root) }.len
    }

    /// Returns `true` if the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::testing;

    fn insert_delete_sum<H: PmHeap>(list: List<H>)
    where
        ListNode<H>: Object<H>,
        ListRoot<H>: Object<H>,
    {
        for i in 1..=100 {
            list.insert_tail(i).unwrap();
        }
        assert_eq!(list.len(), 100);
        assert_eq!(list.sum(), (1..=100).sum::<u64>());
        assert_eq!(list.delete_head().unwrap(), Some(1));
        assert_eq!(list.len(), 99);
        assert_eq!(list.sum(), (2..=100).sum::<u64>());
        assert_eq!(list.delete_head().unwrap(), Some(2));
        assert_eq!(list.len(), 98);
        assert_eq!(list.sum(), (3..=100).sum::<u64>());
        while list.delete_head().unwrap().is_some() {}
        assert!(list.is_empty());
        assert_eq!(list.sum(), 0);
    }

    #[test]
    fn puddles_list_insert_delete_sum() {
        let (_tmp, _daemon, client) = testing::puddles();
        insert_delete_sum(PuddlesList::new(&client, "list").unwrap());
    }

    #[test]
    fn pmdk_list_insert_delete_sum() {
        let tmp = tempfile::tempdir().unwrap();
        insert_delete_sum(PmdkList::create(tmp.path().join("list.pmdk"), 16 << 20).unwrap());
    }

    #[test]
    fn romulus_list_insert_delete_sum() {
        let tmp = tempfile::tempdir().unwrap();
        insert_delete_sum(RomulusList::create(tmp.path().join("list.rom"), 16 << 20).unwrap());
    }

    #[test]
    fn romulus_list_churn_stays_inside_its_region() {
        // 64 KiB holds about a thousand 64-byte nodes: only freed nodes
        // being reused keeps 10,000 cycles inside it.
        let tmp = tempfile::tempdir().unwrap();
        let list = RomulusList::create(tmp.path().join("churn.rom"), 64 << 10).unwrap();
        for i in 0..10_000 {
            list.insert_tail(i).unwrap();
            assert_eq!(list.delete_head().unwrap(), Some(i));
        }
        assert!(list.is_empty());
    }

    #[test]
    fn all_three_lists_agree_on_a_random_workload() {
        use rand::Rng;
        let (_tmp, _daemon, client) = testing::puddles();
        let p = PuddlesList::new(&client, "agree").unwrap();
        let tmp = tempfile::tempdir().unwrap();
        let m = PmdkList::create(tmp.path().join("m.pmdk"), 16 << 20).unwrap();
        let r = RomulusList::create(tmp.path().join("r.rom"), 16 << 20).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        use rand::SeedableRng;
        for _ in 0..300 {
            if rng.gen_bool(0.7) {
                let v = rng.gen_range(0..1000);
                p.insert_tail(v).unwrap();
                m.insert_tail(v).unwrap();
                r.insert_tail(v).unwrap();
            } else {
                let a = p.delete_head().unwrap();
                let b = m.delete_head().unwrap();
                let c = r.delete_head().unwrap();
                assert_eq!(a, b);
                assert_eq!(a, c);
            }
            assert_eq!(p.sum(), m.sum());
            assert_eq!(p.sum(), r.sum());
        }
    }
}
