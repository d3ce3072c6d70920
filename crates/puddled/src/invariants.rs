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
//! from the puddle table). Any violation found here is a bug in a request
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
use std::collections::BTreeSet;

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
    /// * **Pool shape** — each pool's root exists, is listed as a member,
    ///   and every member record exists and names the pool back
    ///   (membership is symmetric in both directions).
    /// * **No orphaned puddles** — a puddle naming a pool appears in that
    ///   pool's member list.
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
        let live_ids: BTreeSet<PuddleId> = data.puddles.values().map(|p| p.id).collect();

        // Pool shape + symmetric membership.
        for pool in data.pools.values() {
            if !live_ids.contains(&pool.root) {
                violations.push(format!("pool {}: root {} missing", pool.name, pool.root));
            }
            if !pool.puddles.contains(&pool.root) {
                violations.push(format!("pool {}: root not a member", pool.name));
            }
            let mut seen = BTreeSet::new();
            for id in &pool.puddles {
                if !seen.insert(*id) {
                    violations.push(format!("pool {}: duplicate member {id}", pool.name));
                }
                match data.puddles.get(id) {
                    None => {
                        violations.push(format!("pool {}: lists missing puddle {id}", pool.name))
                    }
                    Some(member) if member.pool.as_deref() != Some(pool.name.as_str()) => {
                        violations.push(format!(
                            "pool {}: member {id} names pool {:?}",
                            pool.name, member.pool
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        for rec in data.puddles.values() {
            if let Some(pool_name) = &rec.pool {
                match data.pools.get(pool_name) {
                    None => violations
                        .push(format!("puddle {}: names missing pool {pool_name}", rec.id)),
                    Some(pool) if !pool.puddles.contains(&rec.id) => violations.push(format!(
                        "puddle {}: orphaned — not in pool {pool_name}'s member list",
                        rec.id
                    )),
                    Some(_) => {}
                }
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
            if !ls.invalid && !live_ids.contains(&ls.puddle) {
                violations.push(format!(
                    "log space {}: valid but its puddle is gone",
                    ls.puddle
                ));
            }
        }

        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LogSpaceRecord, PoolRecord, PuddleRecord};
    use puddles_proto::PuddlePurpose;

    fn rec(seq: u64, offset: u64, pool: Option<&str>) -> PuddleRecord {
        let id = PuddleId(seq as u128);
        PuddleRecord {
            id,
            size: PAGE_SIZE as u64,
            offset,
            file: id.to_hex(),
            purpose: PuddlePurpose::Data,
            owner_uid: 1,
            owner_gid: 1,
            mode: 0o600,
            pool: pool.map(String::from),
            needs_rewrite: false,
            translations: vec![],
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
                name: "p".into(),
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

    #[test]
    fn asymmetric_membership_is_reported() {
        let mut data = base_data();
        // A puddle claiming membership the pool does not echo.
        let stray = rec(4, 4 * (PAGE_SIZE as u64), Some("p"));
        data.next_offset = 5 * PAGE_SIZE as u64;
        data.puddles.insert(stray.id, stray);
        let violations = Invariants::check_data(&data);
        assert!(
            violations.iter().any(|v| v.contains("orphaned")),
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
