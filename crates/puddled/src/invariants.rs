//! Structural invariants a recovered registry must satisfy.
//!
//! The crash tests (`wal_crash`, the `crash_sweep` soak, the torture
//! harness) all ask the same question after a simulated crash + restart:
//! *is the recovered metadata internally consistent?* This module is the
//! single answer, so every harness checks the same property set and a new
//! invariant added here strengthens all of them at once.
//!
//! These hold after **every** registry transaction, live or replayed: a
//! request's edits are one WAL record applied under one lock, so there is
//! no torn state between tables for a load to heal (and
//! [`crate::registry`]'s load heals none — it only derives the allocator
//! from the puddle table, as replay derives each pool's member index).
//! Any violation found here is a bug in a request
//! handler or in recovery, never an expected intermediate state.
//!
//! [`Invariants::check_data`] returns violations as strings rather than
//! panicking so sweep-style harnesses can collect them into a per-seed
//! report; [`Invariants::assert_all`] is the convenience wrapper for plain
//! `#[test]`s.

use crate::registry::{Registry, RegistryData};
use puddles_pmem::util::align_up;
use puddles_pmem::PAGE_SIZE;
use puddles_proto::PuddleId;
use std::collections::BTreeMap;

/// Namespace for registry consistency checks (see the module docs).
pub struct Invariants;

impl Invariants {
    /// Snapshots `registry` and runs every check; returns the violations
    /// (empty = consistent).
    pub fn check_all(registry: &Registry) -> Vec<String> {
        Self::check_data(&registry.snapshot())
    }

    /// Like [`Invariants::check_all`] but panics with the full violation
    /// list, for use in tests.
    pub fn assert_all(registry: &Registry) {
        Self::assert_data(&registry.snapshot());
    }

    /// Panics with the full violation list if `data` is inconsistent.
    pub fn assert_data(data: &RegistryData) {
        let violations = Self::check_data(data);
        assert!(
            violations.is_empty(),
            "registry invariant violations:\n  {}",
            violations.join("\n  ")
        );
    }

    /// Runs every structural check against one registry snapshot.
    ///
    /// * **Pool shape** — each pool's root exists and names the pool; every
    ///   puddle naming a pool names a live one.
    /// * **The member index is derived** — each pool's `puddles` equals the
    ///   list the puddle table implies ([`derived_members`]): membership is
    ///   stored once, in the records' `pool` field, so the index can be
    ///   wrong only if it went stale.
    /// * **Extent geometry** — puddle extents are page-aligned, disjoint,
    ///   inside `[PAGE_SIZE, space_size)`, and below the bump pointer.
    /// * **Allocator accounting** — free-list extents are disjoint from
    ///   each other and from every live extent, and below the bump
    ///   pointer: freed space is never leaked past `next_offset` nor
    ///   double-booked.
    /// * **No orphaned log chains** — every still-valid log space names a
    ///   live puddle (recovery invalidates the rest).
    pub fn check_data(data: &RegistryData) -> Vec<String> {
        let mut violations = Vec::new();
        let derived = derived_members(data);
        for (name, pool) in &data.pools {
            match data.puddles.get(&pool.root) {
                None => violations.push(format!("pool {name}: root {} missing", pool.root)),
                Some(root) if root.pool.as_ref() != Some(name) => {
                    violations.push(format!("pool {name}: root names pool {:?}", root.pool))
                }
                Some(_) => {}
            }
            let derived = derived.get(name.as_str()).map_or(&[][..], |list| list);
            if pool.puddles != derived {
                violations.push(format!(
                    "pool {name}: stale member index {:?}, the puddle table implies {derived:?}",
                    pool.puddles
                ));
            }
        }
        for (pool, members) in &derived {
            if !data.pools.contains_key(*pool) {
                violations.push(format!("puddles {members:?}: name missing pool {pool}"));
            }
        }

        // Extent geometry. Sizes are rounded to pages exactly as the
        // allocator rounds them, so adjacency is judged on what was
        // actually reserved.
        let mut extents: Vec<(u64, u64, PuddleId)> = data
            .puddles
            .values()
            .map(|p| (p.offset, align_up(p.size as usize, PAGE_SIZE) as u64, p.id))
            .collect();
        extents.sort_unstable();
        for &(offset, len, id) in &extents {
            if offset % PAGE_SIZE as u64 != 0 {
                violations.push(format!("puddle {id}: offset {offset:#x} not page-aligned"));
            }
            if offset < PAGE_SIZE as u64 {
                violations.push(format!(
                    "puddle {id}: extent inside the reserved first page"
                ));
            }
            if offset + len > data.space_size {
                violations.push(format!("puddle {id}: extent past the end of the space"));
            }
            if offset + len > data.next_offset {
                violations.push(format!("puddle {id}: extent past the bump pointer"));
            }
        }
        for pair in extents.windows(2) {
            let (a_off, a_len, a_id) = pair[0];
            let (b_off, _, b_id) = pair[1];
            if a_off + a_len > b_off {
                violations.push(format!("puddles {a_id} and {b_id}: overlapping extents"));
            }
        }

        // Allocator accounting: free extents disjoint from live extents and
        // from each other, all below the bump pointer.
        let mut all: Vec<(u64, u64, &'static str)> = extents
            .iter()
            .map(|&(off, len, _)| (off, len, "live"))
            .collect();
        for &(off, len) in &data.free_list {
            if off + len > data.next_offset {
                violations.push(format!(
                    "free extent [{off:#x}, +{len:#x}) past the bump pointer"
                ));
            }
            all.push((off, len, "free"));
        }
        all.sort_unstable();
        for pair in all.windows(2) {
            let (a_off, a_len, a_kind) = pair[0];
            let (b_off, _, b_kind) = pair[1];
            if a_off + a_len > b_off {
                violations.push(format!(
                    "{a_kind} extent [{a_off:#x}, +{a_len:#x}) overlaps {b_kind} extent at {b_off:#x}"
                ));
            }
        }

        // No orphaned log chains: a valid log space must name a live puddle.
        for ls in &data.log_spaces {
            if !ls.invalid && !data.puddles.contains_key(&ls.puddle) {
                violations.push(format!(
                    "log space {}: valid but its puddle is gone",
                    ls.puddle
                ));
            }
        }

        violations
    }
}

/// Every pool's members as the puddle table implies them, keyed by the name
/// the records carry: the puddles naming it, in member order
/// (`wal::member_key`) — what `pools[name].puddles` must equal.
pub fn derived_members(data: &RegistryData) -> BTreeMap<&str, Vec<PuddleId>> {
    let mut members: BTreeMap<&str, Vec<PuddleId>> = BTreeMap::new();
    for rec in data.puddles.values() {
        if let Some(pool) = &rec.pool {
            members.entry(pool).or_default().push(rec.id);
        }
    }
    for list in members.values_mut() {
        list.sort_unstable_by_key(crate::wal::member_key);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LogSpaceRecord, PoolRecord, PuddleRecord, Rewrite};
    use puddles_proto::PuddlePurpose;

    fn rec(seq: u64, offset: u64, pool: Option<&str>) -> PuddleRecord {
        let id = PuddleId(seq as u128);
        PuddleRecord {
            id,
            size: PAGE_SIZE as u64,
            offset,
            purpose: PuddlePurpose::Data,
            owner_uid: 1,
            owner_gid: 1,
            mode: 0o600,
            pool: pool.map(String::from),
            old_addr: 0,
            rewrite: Rewrite::Clean,
        }
    }

    fn base_data() -> RegistryData {
        let page = PAGE_SIZE as u64;
        let root = rec(1, page, Some("p"));
        let member = rec(2, 2 * page, Some("p"));
        let mut data = RegistryData {
            space_size: 1 << 30,
            next_offset: 3 * page,
            ..RegistryData::default()
        };
        data.pools.insert(
            "p".into(),
            PoolRecord {
                root: root.id,
                puddles: vec![root.id, member.id],
            },
        );
        data.puddles.insert(root.id, root);
        data.puddles.insert(member.id, member);
        data
    }

    #[test]
    fn consistent_data_passes() {
        assert_eq!(Invariants::check_data(&base_data()), Vec::<String>::new());
    }

    #[test]
    fn overlapping_extents_are_reported() {
        let mut data = base_data();
        let clash = rec(3, PAGE_SIZE as u64, None);
        data.puddles.insert(clash.id, clash);
        let violations = Invariants::check_data(&data);
        assert!(
            violations.iter().any(|v| v.contains("overlapping")),
            "{violations:?}"
        );
    }

    /// The index is derived state: edited by hand — a member missing, one
    /// too many, two out of order — it no longer matches the puddle table.
    #[test]
    fn a_stale_member_index_is_reported() {
        let stale = |edit: fn(&mut Vec<PuddleId>)| {
            let mut data = base_data();
            edit(&mut data.pools.get_mut("p").unwrap().puddles);
            Invariants::check_data(&data)
        };
        for edit in [
            (|m| m.truncate(1)) as fn(&mut Vec<PuddleId>),
            |m| m.push(PuddleId(7)),
            |m| m.reverse(),
        ] {
            let violations = stale(edit);
            assert!(
                violations.iter().any(|v| v.contains("stale member index")),
                "{violations:?}"
            );
        }
        // A puddle that joined without `apply_op` hearing of it.
        let mut data = base_data();
        let stray = rec(4, 4 * (PAGE_SIZE as u64), Some("p"));
        data.next_offset = 5 * PAGE_SIZE as u64;
        data.puddles.insert(stray.id, stray);
        let violations = Invariants::check_data(&data);
        assert!(
            violations.iter().any(|v| v.contains("stale member index")),
            "{violations:?}"
        );
    }

    #[test]
    fn a_dead_pool_and_a_foreign_root_are_reported() {
        let mut data = base_data();
        let loose = rec(4, 4 * (PAGE_SIZE as u64), Some("gone"));
        data.next_offset = 5 * PAGE_SIZE as u64;
        data.puddles.insert(loose.id, loose);
        data.puddles.get_mut(&PuddleId(1)).unwrap().pool = None;
        data.pools.get_mut("p").unwrap().puddles.remove(0);
        let violations = Invariants::check_data(&data);
        assert!(
            violations.iter().any(|v| v.contains("missing pool gone")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("root names pool")),
            "{violations:?}"
        );
    }

    #[test]
    fn free_list_overlap_and_leak_are_reported() {
        let mut data = base_data();
        // Overlaps the root extent AND reaches past the bump pointer.
        data.free_list.push((PAGE_SIZE as u64, 1 << 20));
        let violations = Invariants::check_data(&data);
        assert!(
            violations.iter().any(|v| v.contains("free extent")),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("overlaps")),
            "{violations:?}"
        );
    }

    #[test]
    fn orphaned_log_space_is_reported_only_while_valid() {
        let mut data = base_data();
        data.log_spaces.push(LogSpaceRecord {
            puddle: PuddleId(9_u128),
            owner_uid: 1,
            owner_gid: 1,
            invalid: false,
        });
        let violations = Invariants::check_data(&data);
        assert!(
            violations.iter().any(|v| v.contains("log space")),
            "{violations:?}"
        );
        data.log_spaces[0].invalid = true;
        assert_eq!(Invariants::check_data(&data), Vec::<String>::new());
    }
}
