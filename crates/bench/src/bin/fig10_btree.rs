//! Fig. 10: order-8 B-tree — insert / delete / search for Puddles, PMDK-sim
//! and Romulus-sim (8-byte keys and values). One tree, written once over
//! `PmHeap`, runs on each library.

use pm_datastructures::btree::{BNode, BTree, BTreeRoot, PmdkBTree, PuddlesBTree, RomulusBTree};
use pm_datastructures::heap::{Object, PmHeap};
use puddles_bench::{emit_header, emit_row, secs, test_env, Scale};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn run<H: PmHeap>(system: &str, tree: BTree<H>, keys: &[u64])
where
    BNode<H>: Object<H>,
    BTreeRoot<H>: Object<H>,
{
    let n = keys.len();
    let insert = secs(|| {
        for &k in keys {
            tree.insert(k, k).unwrap();
        }
    });
    let search = secs(|| {
        for &k in keys {
            std::hint::black_box(tree.search(k));
        }
    });
    let delete = secs(|| {
        for &k in &keys[..n / 2] {
            tree.delete(k).unwrap();
        }
    });
    emit_row("fig10", system, "insert_s", &n.to_string(), insert);
    emit_row("fig10", system, "delete_s", &(n / 2).to_string(), delete);
    emit_row("fig10", system, "search_s", &n.to_string(), search);
}

fn main() {
    let scale = Scale::from_args();
    let n = scale.pick(20_000u64, 1_000_000u64);
    let mut keys: Vec<u64> = (0..n).collect();
    keys.shuffle(&mut rand::rngs::StdRng::seed_from_u64(1));
    emit_header();

    let (_tmp, _daemon, client) = test_env();
    run(
        "puddles",
        PuddlesBTree::new(&client, "fig10").unwrap(),
        &keys,
    );

    let tmp = tempfile::tempdir().unwrap();
    let pool_size = (n as usize * 300).max(64 << 20);
    let path = |file| tmp.path().join(file);
    run(
        "pmdk",
        PmdkBTree::create(path("fig10.pmdk"), pool_size).unwrap(),
        &keys,
    );
    run(
        "romulus",
        RomulusBTree::create(path("fig10.rom"), pool_size).unwrap(),
        &keys,
    );
}
