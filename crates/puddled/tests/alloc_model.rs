//! Property tests pitting the best-fit allocator against a reference
//! model: arbitrary alloc/free sequences must never produce overlapping
//! grants, the free map must equal the reference model's gaps between the
//! live extents after every single operation, every freed byte must be
//! reusable, and the registry state a live allocator serializes must
//! survive a WAL-replay + checkpoint round trip bit-identically (the same
//! contract `wal_crash.rs` checks on hand-built histories, here on
//! randomized ones).

use proptest::prelude::*;
use puddled::registry::{PuddleRecord, Registry, Rewrite};
use puddled::RegistryOp;
use puddles_pmem::pmdir::PmDir;
use puddles_pmem::{PmError, PAGE_SIZE};
use puddles_proto::{PuddleId, PuddlePurpose};

const SPACE: u64 = 1 << 30;

fn open_registry(pm: &PmDir) -> Registry {
    Registry::load_or_create(pm, 0x5000_0000_0000, SPACE).unwrap()
}

fn record(reg: &Registry, pages: u64) -> PuddleRecord {
    let size = pages * PAGE_SIZE as u64;
    let offset = reg.alloc_space(size).unwrap();
    PuddleRecord {
        id: reg.fresh_id(),
        size,
        offset,
        purpose: PuddlePurpose::Data,
        owner_uid: 1,
        owner_gid: 1,
        mode: 0o600,
        pool: None,
        old_addr: 0,
        rewrite: Rewrite::Clean,
    }
}

/// One registry transaction of `batch`.
fn transact(reg: &Registry, batch: Vec<RegistryOp>) {
    reg.transact(|_, ops| {
        ops.extend(batch);
        Ok::<_, PmError>(())
    })
    .unwrap();
}

/// The reference model of the free space: the gaps between the live
/// extents above the reserved first page, and the end of the highest one
/// as the bump frontier. What recovery derives, and what the live
/// allocator must report after every operation.
fn reference(live: &[(PuddleId, u64, u64)]) -> (Vec<(u64, u64)>, u64) {
    let mut extents: Vec<(u64, u64)> = live.iter().map(|&(_, o, l)| (o, l)).collect();
    extents.sort_unstable();
    let mut free_list = Vec::new();
    let mut cursor = PAGE_SIZE as u64;
    for (off, len) in extents {
        if off > cursor {
            free_list.push((cursor, off - cursor));
        }
        cursor = off + len;
    }
    (free_list, cursor)
}

/// Applies one randomized op stream to a registry: even selectors allocate
/// (1–31 pages) and register the puddle, odd selectors drop one live puddle
/// (unregister + free). After every op the snapshot's free map must equal
/// [`reference`]. Returns the surviving `(id, offset, len)` grants.
fn run_ops(reg: &Registry, ops: &[(u8, u16)]) -> Vec<(PuddleId, u64, u64)> {
    let mut live: Vec<(PuddleId, u64, u64)> = Vec::new();
    for &(kind, arg) in ops {
        // Bias 3:1 toward allocation so sequences grow a real population.
        if kind % 4 != 3 || live.is_empty() {
            let pages = (arg % 31 + 1) as u64;
            let rec = record(reg, pages);
            let (off, len) = (rec.offset, rec.size);
            // Grants are page-granular, in-bounds, and disjoint from every
            // live extent.
            assert_eq!(off % PAGE_SIZE as u64, 0);
            assert!(off + len <= SPACE);
            for &(_, o, l) in &live {
                assert!(
                    off + len <= o || o + l <= off,
                    "grant [{off:#x},+{len:#x}) overlaps live [{o:#x},+{l:#x})"
                );
            }
            live.push((rec.id, off, len));
            transact(reg, vec![RegistryOp::PutPuddle(rec)]);
        } else {
            let victim = arg as usize % live.len();
            let (id, off, len) = live.swap_remove(victim);
            transact(reg, vec![RegistryOp::DropPuddle { id }]);
            reg.free_space(off, len);
        }
        let snap = reg.snapshot();
        assert_eq!((snap.free_list, snap.next_offset), reference(&live));
    }
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Overlap freedom plus the recovery contract: the canonical state a
    /// live allocator reports equals what WAL replay + reconcile rebuild
    /// after an abrupt drop.
    #[test]
    fn random_histories_recover_bit_identically(ops in proptest::collection::vec((0u8..8, 0u16..4096), 1..120)) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let before;
        {
            let reg = open_registry(&pm);
            run_ops(&reg, &ops);
            reg.commit().unwrap();
            before = reg.snapshot();
            // Dropped without a checkpoint: recovery rebuilds from WAL
            // replay alone.
        }
        let reg = open_registry(&pm);
        let after = reg.snapshot();
        prop_assert_eq!(after, before);
    }

    /// Every freed byte is reusable: after dropping all survivors the
    /// allocator is back to a pristine bump state and hands out the very
    /// first page again.
    #[test]
    fn frees_are_fully_reusable(ops in proptest::collection::vec((0u8..8, 0u16..4096), 1..120)) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        let reg = open_registry(&pm);
        let live = run_ops(&reg, &ops);
        for (id, off, len) in live {
            transact(&reg, vec![RegistryOp::DropPuddle { id }]);
            reg.free_space(off, len);
        }
        let snap = reg.snapshot();
        prop_assert!(snap.free_list.is_empty());
        prop_assert_eq!(snap.next_offset, PAGE_SIZE as u64);
        let off = reg.alloc_space(64 * PAGE_SIZE as u64).unwrap();
        prop_assert_eq!(off, PAGE_SIZE as u64);
    }
}
