//! Incremental pointer rewriting for relocated puddles (§4.2).
//!
//! When a puddle is mapped at an address other than the one its pointers
//! were written for (an imported copy, data shipped from another machine, or
//! a global space whose base moved), every pointer inside it must be
//! rewritten before the application dereferences it. The daemon records the
//! old→new address translations; this module walks the puddle's live
//! objects (via the allocator metadata), uses the registered pointer maps to
//! find each pointer field, and patches the values in place.
//!
//! Rewriting happens per puddle, when the puddle is first mapped — the
//! "cascading, on-demand" rewrite of the paper: mapping the root puddle
//! rewrites only its own pointers; the puddles those pointers lead to are
//! rewritten when they are mapped in turn.

use crate::alloc::PuddleAlloc;
use crate::types::TypeRegistry;
use puddles_pmem::persist;
use puddles_proto::Translation;

/// Statistics from one puddle rewrite pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RewriteStats {
    /// Objects examined.
    pub objects: usize,
    /// Pointer fields examined.
    pub pointers: usize,
    /// Pointer fields whose value was changed.
    pub rewritten: usize,
    /// Pointer fields whose value did not match any translation (left
    /// untouched; typically null or already-local pointers).
    pub untranslated: usize,
}

/// Rewrites every pointer in the puddle managed by `alloc` according to
/// `translations`, using `types` to locate pointer fields.
/// The ranges are disjoint (one per puddle), so the table is sorted once and
/// each pointer binary-searched for the last range starting at or below it.
pub fn rewrite_puddle(
    alloc: &PuddleAlloc,
    translations: &[Translation],
    types: &TypeRegistry,
) -> RewriteStats {
    let mut table = translations.to_vec();
    table.sort_unstable_by_key(|t| t.old_addr);
    let translate = |value: u64| {
        let after = table.partition_point(|t| t.old_addr <= value);
        table[..after].last().and_then(|t| t.translate(value))
    };
    let mut stats = RewriteStats::default();
    for obj in alloc.walk() {
        stats.objects += 1;
        let Some(map) = types.get(obj.type_id) else {
            continue;
        };
        for field in &map.fields {
            let off = field.offset as usize;
            if off + 8 > obj.size {
                continue;
            }
            stats.pointers += 1;
            let slot = (obj.addr + off) as *mut u64;
            // SAFETY: `obj.addr` comes from the allocator walk of a mapped,
            // writable puddle and `off + 8 <= obj.size`, so the slot lies
            // inside the live object.
            let value = unsafe { std::ptr::read_unaligned(slot) };
            if value == 0 {
                continue;
            }
            match translate(value) {
                Some(new_value) if new_value != value => {
                    // SAFETY: as above; the slot is writable.
                    unsafe { std::ptr::write_unaligned(slot, new_value) };
                    persist::flush(slot as *const u8, 8);
                    stats.rewritten += 1;
                }
                Some(_) => {}
                None => stats.untranslated += 1,
            }
        }
        if puddles_pmem::failpoint::should_fail(puddles_pmem::failpoint::names::RELOC_MID_REWRITE) {
            // A crash here leaves some pointers rewritten and some not; the
            // daemon still has the puddle flagged `needs_rewrite`, so the
            // rewrite re-runs (idempotently) on the next mapping.
            break;
        }
    }
    persist::sfence();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::NoLog;
    use crate::types::PmType;
    use crate::{impl_pm_type, PmPtr};

    #[repr(C)]
    struct Node {
        value: u64,
        next: PmPtr<Node>,
        other: PmPtr<Node>,
    }
    impl_pm_type!(Node, "reloc_tests::Node", [next => Node, other => Node]);

    struct Heap {
        #[allow(dead_code)]
        buf: Vec<u8>,
        alloc: PuddleAlloc,
    }

    fn heap() -> Heap {
        let mut buf = vec![0u8; 1 << 20];
        // SAFETY: buf outlives the allocator and its backing storage is
        // stable.
        let alloc = unsafe { PuddleAlloc::new(buf.as_mut_ptr() as usize, 1 << 20) };
        alloc.init();
        Heap { buf, alloc }
    }

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.insert_type::<Node>();
        reg
    }

    #[test]
    fn pointers_matching_a_translation_are_rewritten() {
        let h = heap();
        let a = h
            .alloc
            .alloc(std::mem::size_of::<Node>(), Node::type_id(), &mut NoLog)
            .unwrap();
        let b = h
            .alloc
            .alloc(std::mem::size_of::<Node>(), Node::type_id(), &mut NoLog)
            .unwrap();
        // Write pointers as if the puddle lived at old base 0x1000_0000.
        let old_base = 0x1000_0000u64;
        // SAFETY: `a` and `b` are valid allocations of Node size.
        unsafe {
            (*(a as *mut Node)).value = 1;
            (*(a as *mut Node)).next = PmPtr::from_addr(old_base + 0x500);
            (*(a as *mut Node)).other = PmPtr::null();
            (*(b as *mut Node)).value = 2;
            (*(b as *mut Node)).next = PmPtr::from_addr(old_base + 0x1000);
            (*(b as *mut Node)).other = PmPtr::from_addr(0xdead_0000); // outside translation
        }
        let translations = [Translation {
            old_addr: old_base,
            new_addr: 0x7000_0000,
            len: 0x10_0000,
        }];
        let stats = rewrite_puddle(&h.alloc, &translations, &registry());
        assert_eq!(stats.objects, 2);
        assert_eq!(stats.rewritten, 2);
        assert_eq!(stats.untranslated, 1);
        // SAFETY: as above.
        unsafe {
            assert_eq!((*(a as *const Node)).next.addr(), 0x7000_0500);
            assert!((*(a as *const Node)).other.is_null());
            assert_eq!((*(b as *const Node)).next.addr(), 0x7000_1000);
            assert_eq!((*(b as *const Node)).other.addr(), 0xdead_0000);
        }
    }

    #[test]
    fn rewrite_is_idempotent() {
        let h = heap();
        let a = h
            .alloc
            .alloc(std::mem::size_of::<Node>(), Node::type_id(), &mut NoLog)
            .unwrap();
        // SAFETY: valid allocation.
        unsafe {
            (*(a as *mut Node)).next = PmPtr::from_addr(0x1000_0100);
        }
        let translations = [Translation {
            old_addr: 0x1000_0000,
            new_addr: 0x2000_0000,
            len: 0x1000,
        }];
        let reg = registry();
        let s1 = rewrite_puddle(&h.alloc, &translations, &reg);
        assert_eq!(s1.rewritten, 1);
        // Second pass: the pointer now points outside the old range, so it
        // is untranslated and unchanged.
        let s2 = rewrite_puddle(&h.alloc, &translations, &reg);
        assert_eq!(s2.rewritten, 0);
        // SAFETY: valid allocation.
        unsafe {
            assert_eq!((*(a as *const Node)).next.addr(), 0x2000_0100);
        }
    }

    #[test]
    fn unknown_types_are_skipped() {
        let h = heap();
        let a = h.alloc.alloc(64, 0xdead_beef, &mut NoLog).unwrap();
        // SAFETY: valid 64-byte allocation.
        unsafe {
            std::ptr::write_unaligned(a as *mut u64, 0x1000_0000);
        }
        let translations = [Translation {
            old_addr: 0x1000_0000,
            new_addr: 0x9000_0000,
            len: 0x1000,
        }];
        let stats = rewrite_puddle(&h.alloc, &translations, &registry());
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.pointers, 0);
        // SAFETY: as above.
        unsafe {
            assert_eq!(std::ptr::read_unaligned(a as *const u64), 0x1000_0000);
        }
    }

    #[test]
    fn interrupted_rewrite_can_resume() {
        let h = heap();
        let reg = registry();
        let mut addrs = Vec::new();
        for _ in 0..4 {
            let a = h
                .alloc
                .alloc(std::mem::size_of::<Node>(), Node::type_id(), &mut NoLog)
                .unwrap();
            // SAFETY: valid allocation.
            unsafe {
                (*(a as *mut Node)).next = PmPtr::from_addr(0x4000_0010);
            }
            addrs.push(a);
        }
        let translations = [Translation {
            old_addr: 0x4000_0000,
            new_addr: 0x8000_0000,
            len: 0x1000,
        }];
        use puddles_pmem::failpoint::{self, names};
        failpoint::arm_scoped(names::RELOC_MID_REWRITE, 1);
        let s1 = rewrite_puddle(&h.alloc, &translations, &reg);
        failpoint::clear_current_thread();
        assert!(s1.rewritten < 4, "crash should interrupt the rewrite");
        // Resume: the remaining pointers get rewritten; already-rewritten
        // ones are untouched (their values no longer match the old range).
        let s2 = rewrite_puddle(&h.alloc, &translations, &reg);
        assert_eq!(s1.rewritten + s2.rewritten, 4);
        for a in addrs {
            // SAFETY: valid allocation.
            unsafe {
                assert_eq!((*(a as *const Node)).next.addr(), 0x8000_0010);
            }
        }
    }
}
