//! Fig. 9: singly linked list — insert / delete / traverse(sum) for Puddles,
//! PMDK-sim and Romulus-sim (the paper performs 10 M operations each). One
//! list, written once over `PmHeap`, runs on each library.

use pm_datastructures::heap::{Object, PmHeap};
use pm_datastructures::list::{List, ListNode, ListRoot, PmdkList, PuddlesList, RomulusList};
use puddles_bench::{emit_header, emit_row, secs, test_env, Scale};

fn run<H: PmHeap>(system: &str, list: List<H>, n: u64)
where
    ListNode<H>: Object<H>,
    ListRoot<H>: Object<H>,
{
    let insert = secs(|| {
        for i in 0..n {
            list.insert_tail(i).unwrap();
        }
    });
    let traverse = secs(|| {
        std::hint::black_box(list.sum());
    });
    let delete = secs(|| {
        for _ in 0..n {
            list.delete_head().unwrap();
        }
    });
    emit_row("fig9", system, "insert_s", &n.to_string(), insert);
    emit_row("fig9", system, "delete_s", &n.to_string(), delete);
    emit_row("fig9", system, "traverse_s", &n.to_string(), traverse);
}

fn main() {
    let scale = Scale::from_args();
    let n = scale.pick(20_000u64, 10_000_000u64);
    emit_header();

    let (_tmp, _daemon, client) = test_env();
    run("puddles", PuddlesList::new(&client, "fig9").unwrap(), n);

    let tmp = tempfile::tempdir().unwrap();
    let pool_size = (n as usize * 96).max(64 << 20);
    run(
        "pmdk",
        PmdkList::create(tmp.path().join("fig9.pmdk"), pool_size).unwrap(),
        n,
    );

    let region = (n as usize * 80).max(64 << 20);
    run(
        "romulus",
        RomulusList::create(tmp.path().join("fig9.rom"), region).unwrap(),
        n,
    );
}
