//! Order-8 B-trees (Fig. 10): 8-byte keys and values, written once over
//! [`PmHeap`], for Puddles, PMDK-sim and Romulus-sim.
//!
//! Keys and values live in every node, internal ones included (a B-tree,
//! not a B+-tree). Inserts split full nodes proactively on the way down;
//! deletion removes the key (replacing an internal key with its
//! predecessor) but does not rebalance underfull nodes — a documented
//! simplification that does not change the pointer-chasing behaviour
//! Fig. 10 measures. A node is logged whole before it changes; the root
//! object field by field.

use crate::heap::{Object, PmHeap};
use pmdk_sim::PmdkPool;
use puddles::{impl_pm_type, Pool, PuddleClient};
use romulus_sim::RomulusPool;
use std::path::Path;

/// Maximum keys per node (order 8 ⇒ 8 children).
pub const MAX_KEYS: usize = 7;

/// A B-tree node.
#[repr(C)]
pub struct BNode<H: PmHeap> {
    nkeys: u64,
    leaf: u64,
    keys: [u64; MAX_KEYS],
    values: [u64; MAX_KEYS],
    children: [H::Ptr<BNode<H>>; MAX_KEYS + 1],
}

/// The B-tree root object.
#[repr(C)]
pub struct BTreeRoot<H: PmHeap> {
    root: H::Ptr<BNode<H>>,
    count: u64,
}

/// A B-tree node in a puddle.
pub type PBNode = BNode<Pool>;
impl_pm_type!(
    PBNode,
    "datastructures::btree::PBNode",
    [children => PBNode]
);
/// The B-tree root object in a puddle.
pub type PBTreeRoot = BTreeRoot<Pool>;
impl_pm_type!(
    PBTreeRoot,
    "datastructures::btree::PBTreeRoot",
    [root => PBNode]
);
/// A B-tree node in a PMDK pool (fat-pointer children).
pub type MBNode = BNode<PmdkPool>;
/// The B-tree root object in a PMDK pool.
pub type MBTreeRoot = BTreeRoot<PmdkPool>;

impl<H: PmHeap> BNode<H> {
    fn empty(leaf: bool) -> Self {
        BNode {
            nkeys: 0,
            leaf: leaf as u64,
            keys: [0; MAX_KEYS],
            values: [0; MAX_KEYS],
            children: [H::null(); MAX_KEYS + 1],
        }
    }

    /// The index of the first key not less than `key`.
    fn position(&self, key: u64) -> usize {
        let n = self.nkeys as usize;
        self.keys[..n].iter().take_while(|&&k| k < key).count()
    }

    /// Inserts `key` → `value` at index `i`, shifting the keys above it.
    fn insert_key(&mut self, i: usize, key: u64, value: u64) {
        let n = self.nkeys as usize;
        self.keys.copy_within(i..n, i + 1);
        self.values.copy_within(i..n, i + 1);
        self.keys[i] = key;
        self.values[i] = value;
        self.nkeys += 1;
    }

    /// Removes the key at index `i`, shifting the keys above it down.
    fn remove_key(&mut self, i: usize) {
        let n = self.nkeys as usize;
        self.keys.copy_within(i + 1..n, i);
        self.values.copy_within(i + 1..n, i);
        self.nkeys -= 1;
    }
}

/// Order-8 B-tree over heap `H`.
pub struct BTree<H: PmHeap> {
    heap: H,
    meta: H::Ptr<BTreeRoot<H>>,
}

/// Order-8 B-tree over the Puddles library.
pub type PuddlesBTree = BTree<Pool>;
/// Order-8 B-tree over the PMDK baseline.
pub type PmdkBTree = BTree<PmdkPool>;
/// Order-8 B-tree over the Romulus baseline.
pub type RomulusBTree = BTree<RomulusPool>;

impl PuddlesBTree {
    /// Creates (or opens) the tree in pool `name`.
    pub fn new(client: &PuddleClient, name: &str) -> puddles::Result<Self> {
        Self::open(client.open_or_create_pool(name, Default::default())?)
    }
}

impl PmdkBTree {
    /// Creates the tree in a new pool file at `path`.
    pub fn create(path: impl AsRef<Path>, pool_size: usize) -> pmdk_sim::Result<Self> {
        Self::open(PmdkPool::create(path, pool_size)?)
    }
}

impl RomulusBTree {
    /// Creates the tree in a new pool file at `path`.
    pub fn create(path: impl AsRef<Path>, region_size: usize) -> romulus_sim::Result<Self> {
        Self::open(RomulusPool::create(path, region_size)?)
    }
}

impl<H: PmHeap> BTree<H>
where
    BNode<H>: Object<H>,
    BTreeRoot<H>: Object<H>,
{
    /// The tree rooted in `heap`, created empty if the heap has no root.
    fn open(heap: H) -> Result<Self, H::Error> {
        let meta = heap.root_or_create(|_| {
            Ok(BTreeRoot {
                root: H::null(),
                count: 0,
            })
        })?;
        Ok(BTree { heap, meta })
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        // SAFETY: the root object is live while the heap is open.
        unsafe { &*self.heap.at(self.meta) }.count
    }

    /// Returns `true` if the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, returning its value: one dereference of the heap's
    /// pointer per level.
    pub fn search(&self, key: u64) -> Option<u64> {
        // SAFETY: the root object and the nodes stay live while the heap is
        // open, and nothing borrows them mutably outside a transaction.
        let mut cur = unsafe { &*self.heap.at(self.meta) }.root;
        while !H::is_null(cur) {
            // SAFETY: as above.
            let node = unsafe { &*self.heap.at(cur) };
            let i = node.position(key);
            if i < node.nkeys as usize && node.keys[i] == key {
                return Some(node.values[i]);
            }
            if node.leaf != 0 {
                return None;
            }
            cur = node.children[i];
        }
        None
    }

    /// Inserts (or updates) `key` → `value`.
    pub fn insert(&self, key: u64, value: u64) -> Result<(), H::Error> {
        let heap = &self.heap;
        heap.tx(|tx| {
            // SAFETY: the root object is live, and a transaction borrows
            // each object it changes only while it changes it.
            let meta = unsafe { &mut *heap.at(self.meta) };
            if H::is_null(meta.root) {
                let mut node = BNode::empty(true);
                node.insert_key(0, key, value);
                let node = heap.alloc(tx, node)?;
                heap.set(tx, &mut meta.root, node)?;
                let count = meta.count + 1;
                return heap.set(tx, &mut meta.count, count);
            }
            // Split a full root first.
            // SAFETY: as above.
            if unsafe { &*heap.at(meta.root) }.nkeys as usize == MAX_KEYS {
                let mut new_root = BNode::empty(false);
                new_root.children[0] = meta.root;
                let new_root = heap.alloc(tx, new_root)?;
                self.split_child(tx, new_root, 0)?;
                heap.set(tx, &mut meta.root, new_root)?;
            }
            if self.insert_nonfull(tx, meta.root, key, value)? {
                let count = meta.count + 1;
                heap.set(tx, &mut meta.count, count)?;
            }
            Ok(())
        })
    }

    fn split_child(
        &self,
        tx: &mut H::Tx<'_>,
        parent_ptr: H::Ptr<BNode<H>>,
        index: usize,
    ) -> Result<(), H::Error> {
        let heap = &self.heap;
        // SAFETY: parent and child are distinct live nodes.
        let parent = unsafe { &mut *heap.at(parent_ptr) };
        // SAFETY: as above.
        let child = unsafe { &mut *heap.at(parent.children[index]) };
        heap.add(tx, parent)?;
        heap.add(tx, child)?;

        // The middle key moves up; the keys above it, and their children,
        // move to a new right sibling (a leaf's children are all null).
        let mid = MAX_KEYS / 2;
        let mut right = BNode::empty(child.leaf != 0);
        right.keys[..MAX_KEYS - mid - 1].copy_from_slice(&child.keys[mid + 1..]);
        right.values[..MAX_KEYS - mid - 1].copy_from_slice(&child.values[mid + 1..]);
        right.children[..MAX_KEYS - mid].copy_from_slice(&child.children[mid + 1..]);
        right.nkeys = (MAX_KEYS - mid - 1) as u64;
        let right_ptr = heap.alloc(tx, right)?;

        let n = parent.nkeys as usize;
        parent.insert_key(index, child.keys[mid], child.values[mid]);
        parent.children.copy_within(index + 1..n + 1, index + 2);
        parent.children[index + 1] = right_ptr;
        child.nkeys = mid as u64;
        Ok(())
    }

    fn insert_nonfull(
        &self,
        tx: &mut H::Tx<'_>,
        node_ptr: H::Ptr<BNode<H>>,
        key: u64,
        value: u64,
    ) -> Result<bool, H::Error> {
        let heap = &self.heap;
        // SAFETY: a live node, borrowed by this call only.
        let mut node = unsafe { &mut *heap.at(node_ptr) };
        let n = node.nkeys as usize;
        let mut i = node.position(key);
        if i < n && node.keys[i] == key {
            heap.add(tx, node)?;
            node.values[i] = value;
            return Ok(false);
        }
        if node.leaf != 0 {
            heap.add(tx, node)?;
            node.insert_key(i, key, value);
            return Ok(true);
        }
        // SAFETY: the child is a live node.
        if unsafe { &*heap.at(node.children[i]) }.nkeys as usize == MAX_KEYS {
            self.split_child(tx, node_ptr, i)?;
            // SAFETY: as above; the split's borrow of the node has ended.
            node = unsafe { &mut *heap.at(node_ptr) };
            if key > node.keys[i] {
                i += 1;
            } else if key == node.keys[i] {
                heap.add(tx, node)?;
                node.values[i] = value;
                return Ok(false);
            }
        }
        self.insert_nonfull(tx, node.children[i], key, value)
    }

    /// Deletes `key`, returning `true` if it was present.
    pub fn delete(&self, key: u64) -> Result<bool, H::Error> {
        let heap = &self.heap;
        heap.tx(|tx| {
            // SAFETY: as in `insert`.
            let meta = unsafe { &mut *heap.at(self.meta) };
            if H::is_null(meta.root) {
                return Ok(false);
            }
            let removed = self.delete_from(tx, meta.root, key)?;
            if removed {
                let count = meta.count - 1;
                heap.set(tx, &mut meta.count, count)?;
            }
            Ok(removed)
        })
    }

    fn delete_from(
        &self,
        tx: &mut H::Tx<'_>,
        node_ptr: H::Ptr<BNode<H>>,
        key: u64,
    ) -> Result<bool, H::Error> {
        // SAFETY: a live node, borrowed by this call only.
        let node = unsafe { &mut *self.heap.at(node_ptr) };
        let n = node.nkeys as usize;
        let i = node.position(key);
        if i < n && node.keys[i] == key {
            self.heap.add(tx, node)?;
            if node.leaf != 0 {
                node.remove_key(i);
                return Ok(true);
            }
            // Replace with the predecessor (rightmost key of the left
            // subtree), then remove that key from its leaf. If the left
            // subtree is empty (possible because deletion does not
            // rebalance), drop the key and the empty subtree instead.
            match self.max_of(node.children[i]) {
                Some((pred_key, pred_value)) => {
                    node.keys[i] = pred_key;
                    node.values[i] = pred_value;
                    self.delete_from(tx, node.children[i], pred_key)?;
                }
                None => {
                    node.remove_key(i);
                    node.children.copy_within(i + 1..=n, i);
                }
            }
            return Ok(true);
        }
        if node.leaf != 0 {
            return Ok(false);
        }
        self.delete_from(tx, node.children[i], key)
    }

    fn max_of(&self, node_ptr: H::Ptr<BNode<H>>) -> Option<(u64, u64)> {
        if H::is_null(node_ptr) {
            return None;
        }
        // SAFETY: a live node.
        let node = unsafe { &*self.heap.at(node_ptr) };
        let n = node.nkeys as usize;
        if node.leaf != 0 {
            return (n > 0).then(|| (node.keys[n - 1], node.values[n - 1]));
        }
        if let Some(found) = self.max_of(node.children[n]) {
            return Some(found);
        }
        if n > 0 {
            return Some((node.keys[n - 1], node.values[n - 1]));
        }
        self.max_of(node.children[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::testing;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// Inserts the keys `0..500` in a shuffled order with `value(key)`,
    /// updates key 7, deletes `deletes` of them, and compares the tree
    /// with a `BTreeMap` after each step.
    fn matches_std_btreemap<H: PmHeap>(
        tree: BTree<H>,
        seed: u64,
        value: fn(u64) -> u64,
        deletes: usize,
    ) where
        BNode<H>: Object<H>,
        BTreeRoot<H>: Object<H>,
    {
        let mut model = BTreeMap::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut keys: Vec<u64> = (0..500).collect();
        keys.shuffle(&mut rng);
        for &k in &keys {
            tree.insert(k, value(k)).unwrap();
            model.insert(k, value(k));
        }
        assert_eq!(tree.len(), 500);
        for k in 0..500 {
            assert_eq!(tree.search(k), model.get(&k).copied(), "key {k}");
        }
        assert_eq!(tree.search(10_000), None);

        // Updates overwrite.
        tree.insert(7, 777).unwrap();
        model.insert(7, 777);
        assert_eq!(tree.search(7), Some(777));
        assert_eq!(tree.len(), 500);

        keys.shuffle(&mut rng);
        for &k in keys.iter().take(deletes) {
            assert!(tree.delete(k).unwrap(), "delete {k}");
            model.remove(&k);
        }
        assert_eq!(tree.len(), 500 - deletes as u64);
        for k in 0..500 {
            assert_eq!(
                tree.search(k),
                model.get(&k).copied(),
                "key {k} after deletes"
            );
        }
        assert!(!tree.delete(99_999).unwrap());
    }

    #[test]
    fn puddles_btree_matches_std_btreemap() {
        let (_tmp, _daemon, client) = testing::puddles();
        let tree = |name| PuddlesBTree::new(&client, name).unwrap();
        matches_std_btreemap(tree("bt"), 11, |k| k * 10, 250);
        matches_std_btreemap(tree("bt2"), 13, |k| k + 1, 100);
    }

    #[test]
    fn pmdk_btree_matches_std_btreemap() {
        let tmp = tempfile::tempdir().unwrap();
        let tree = |name| PmdkBTree::create(tmp.path().join(name), 64 << 20).unwrap();
        matches_std_btreemap(tree("bt.pmdk"), 11, |k| k * 10, 250);
        matches_std_btreemap(tree("bt2.pmdk"), 13, |k| k + 1, 100);
    }

    #[test]
    fn romulus_btree_matches_std_btreemap() {
        let tmp = tempfile::tempdir().unwrap();
        let tree = |name| RomulusBTree::create(tmp.path().join(name), 64 << 20).unwrap();
        matches_std_btreemap(tree("bt.rom"), 11, |k| k * 10, 250);
        matches_std_btreemap(tree("bt2.rom"), 13, |k| k + 1, 100);
    }
}
