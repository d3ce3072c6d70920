//! System-supported crash recovery (§4.1 "Recovery", §4.6 "Recovery").
//!
//! On startup (or on an explicit `Recover` request) the daemon walks every
//! registered log space, maps the log puddles it lists, and replays the live
//! entries of each log *before any application maps the data*. Replay is
//! restricted to puddles the registering client could write at the time of
//! the crash: the daemon recreates that client's writable address space —
//! as an index built from registry records, mapping nothing — and refuses
//! entries that fall outside it. A log containing such entries is marked
//! invalid and never replayed (the data it covers may be corrupt, but other
//! clients' data is protected).
//!
//! Each chain is scanned (and its entries checksummed) once; the collected
//! live entries feed the access check and then the apply, and only the data
//! puddles they name are mapped, so a pass costs what the crashed
//! transactions touched, not what their owners could have touched
//! (`RecoveryReport::puddles_mapped`, the `recovery.map` counter and trace
//! event). Log spaces are recovered one after another: the order between
//! two clients' logs is undefined until writes to a puddle are arbitrated.

use crate::registry::PuddleRecord;
use crate::service::DaemonInner;
use crate::walfmt::RegistryOp;
use puddles_logfmt::log::LOG_MAGIC;
use puddles_logfmt::{
    chain_iter, collect_live, DirectMemoryTarget, LogRef, LogSpaceEntry, LogSpaceRef,
    LOG_REGION_OFFSET, RANGE_DONE, RANGE_EXEC,
};
use puddles_pmem::obs::TraceEventKind;
use puddles_pmem::space::GlobalSpace;
use puddles_pmem::Result;
use puddles_proto::{Credentials, PuddleId, PuddlePurpose, RecoveryReport};
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Runs one recovery pass over every registered log space.
pub fn run_recovery(inner: &DaemonInner) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();

    // Snapshot the records we need so no registry lock is held across
    // mapping operations.
    let log_spaces = inner.registry.read(|data| data.log_spaces.clone());
    let all_puddles: Vec<PuddleRecord> = inner
        .registry
        .read(|data| data.puddles.values().cloned().collect());

    let mut invalidated = Vec::new();
    let mut reclaimed = Vec::new();

    for ls in &log_spaces {
        if ls.invalid {
            continue;
        }
        let Some(ls_record) = inner.registry.puddle(ls.puddle) else {
            continue;
        };
        let owner = Credentials {
            uid: ls.owner_uid,
            gid: ls.owner_gid,
        };
        report.log_spaces += 1;

        let outcome = recover_log_space(
            inner,
            &ls_record,
            owner,
            &all_puddles,
            &mut report,
            &mut reclaimed,
        )?;
        if let LogSpaceOutcome::Invalidate = outcome {
            invalidated.push(ls.puddle);
        }
    }
    // One transaction — one record, one group commit — covers every
    // invalidation and every reclaimed chain tail of the pass.
    report.logs_invalidated += invalidated.len() as u64;
    drop_puddles(inner, &reclaimed, &invalidated)?;
    Ok(report)
}

/// One transaction that removes the puddles `ids` (those that still exist)
/// and marks the log spaces `invalidate` invalid, then makes it durable and
/// deletes the dropped puddles' files (best-effort: a file left behind has
/// no record, and the startup sweep deletes it). Recovery's reclaimed chain
/// tails and the startup sweep of unreachable log puddles end here. Returns
/// the number dropped.
fn drop_puddles(inner: &DaemonInner, ids: &[PuddleId], invalidate: &[PuddleId]) -> Result<u64> {
    let dropped = inner.registry.transact(|data, ops| {
        let dropped: Vec<PuddleRecord> = ids
            .iter()
            .filter_map(|id| data.puddles.get(id).cloned())
            .collect();
        ops.extend(dropped.iter().map(|r| RegistryOp::DropPuddle { id: r.id }));
        ops.extend(
            invalidate
                .iter()
                .map(|&puddle| RegistryOp::InvalidateLogSpace { puddle }),
        );
        Ok::<_, puddles_pmem::PmError>(dropped)
    })?;
    if !dropped.is_empty() || !invalidate.is_empty() {
        inner.release(&dropped)?;
        let _ = inner.unlink(&dropped);
    }
    Ok(dropped.len() as u64)
}

/// Reclaims the log puddles nothing can reach: `Log` puddles that no log
/// space references, and `LogSpace` puddles that have no `LogSpaceRecord`.
///
/// Two client crash windows leave them. A chain extension: the daemon
/// allocated the next segment but the client crashed before registering it
/// in its log space. `ensure_logspace`: the daemon allocated the log-space
/// puddle but the client crashed before `RegLogSpace`. No recovery pass
/// (recovery walks *registered* log spaces only) and no client can ever
/// reach such a puddle again. Run at daemon startup only — after registry
/// load and recovery, before any client connects — because a *live* client
/// is briefly in each window. One transaction drops both kinds; returns the
/// number of puddles reclaimed.
pub(crate) fn sweep_unreachable_log_puddles(inner: &DaemonInner) -> Result<u64> {
    let log_spaces = inner.registry.read(|data| data.log_spaces.clone());
    let gspace = &inner.gspace;
    let mut referenced: std::collections::BTreeSet<u128> = std::collections::BTreeSet::new();
    let mut references_known = true;
    // Walk every log space (including invalidated ones: their logs are kept
    // as evidence) and collect the puddles they reference.
    for ls in &log_spaces {
        // Keyed lookup (the puddle table is keyed by `PuddleId`), not a
        // linear scan of the snapshot.
        let Some(record) = inner.registry.puddle(ls.puddle) else {
            continue;
        };
        let record = &record;
        let mut mapped: Vec<usize> = Vec::new();
        let map_result = map_record(inner, gspace, record, true, &mut mapped);
        if let Ok(addr) = map_result {
            // SAFETY: mapped writable for the puddle's full size; the log
            // space occupies its heap.
            let ls_ref = unsafe {
                LogSpaceRef::from_raw(
                    (addr + LOG_REGION_OFFSET) as *mut u8,
                    record.size as usize - LOG_REGION_OFFSET,
                )
            };
            if ls_ref.is_initialized() {
                referenced.extend(ls_ref.log_puddles());
            }
        }
        for offset in mapped {
            // SAFETY: no references into the mapping survive this loop.
            unsafe {
                let _ = gspace.unmap_puddle(offset);
            }
        }
        if map_result.is_err() {
            // A log space we cannot read may reference any log puddle: with
            // its references unknown, deleting "unreferenced" `Log` puddles
            // could destroy a live undo log, so none is dropped — leaking a
            // puddle until the space heals is recoverable, deletion is not.
            // Unregistered `LogSpace` puddles need only the registry.
            references_known = false;
            break;
        }
    }
    let unreachable: Vec<PuddleId> = inner.registry.read(|data| {
        let is_registered = |id| data.log_spaces.iter().any(|ls| ls.puddle == id);
        let unreachable = data.puddles.values().filter(|r| match r.purpose {
            PuddlePurpose::Log => references_known && !referenced.contains(&r.id.0),
            PuddlePurpose::LogSpace => !is_registered(r.id),
            _ => false,
        });
        unreachable.map(|r| r.id).collect()
    });
    drop_puddles(inner, &unreachable, &[])
}

/// Deletes puddle files that have no registry record.
///
/// A request's files and its record are not one atomic step: a create
/// makes the file before its record is durable, a drop unlinks files after
/// its record is. A crash in between leaves the registry whole — the
/// request happened or it did not — and files no record names, which would
/// leak on disk forever. The daemon runs this sweep at startup — after the
/// registry is loaded, before any client can create new puddles — so every
/// file in the puddle directory either has a record or is garbage. Returns
/// the number of files deleted.
///
/// The sweep is best-effort: a file that cannot be unlinked (odd ownership,
/// immutable bit) is skipped rather than failing daemon startup over a
/// cleanup — the registry, WAL, and real puddle data are unaffected by a
/// lingering stray file.
pub(crate) fn sweep_orphan_files(inner: &DaemonInner) -> Result<u64> {
    let live: std::collections::BTreeSet<String> = inner
        .registry
        .read(|data| data.puddles.values().map(PuddleRecord::file).collect());
    let mut swept = 0;
    for name in inner.pmdir.list_puddles()? {
        if !live.contains(&name) && inner.pmdir.delete_puddle_file(&name).is_ok() {
            swept += 1;
        }
    }
    Ok(swept)
}

enum LogSpaceOutcome {
    Ok,
    Invalidate,
}

fn recover_log_space(
    inner: &DaemonInner,
    ls_record: &PuddleRecord,
    owner: Credentials,
    all_puddles: &[PuddleRecord],
    report: &mut RecoveryReport,
    reclaimed: &mut Vec<PuddleId>,
) -> Result<LogSpaceOutcome> {
    let gspace = &inner.gspace;
    let mut mapped: Vec<usize> = Vec::new();
    let mut indexed = 0;
    let result = (|| -> Result<LogSpaceOutcome> {
        // Map the log-space puddle.
        let ls_addr = map_record(inner, gspace, ls_record, true, &mut mapped)?;
        // SAFETY: the puddle is mapped writable for `ls_record.size` bytes;
        // the log space occupies its heap.
        let ls_ref = unsafe {
            LogSpaceRef::from_raw(
                (ls_addr + LOG_REGION_OFFSET) as *mut u8,
                ls_record.size as usize - LOG_REGION_OFFSET,
            )
        };
        if !ls_ref.is_initialized() {
            return Ok(LogSpaceOutcome::Ok);
        }

        // Recreate the crashed client's writable address space from the
        // registry alone: where every data puddle it had write permission
        // to *would* be mapped. Nothing is mapped until a live entry names
        // it: `unmapped` holds the record behind each range of the index
        // until then.
        let mut unmapped: HashMap<u64, &PuddleRecord> = HashMap::new();
        for record in all_puddles {
            if record.purpose == PuddlePurpose::Data
                && record.allows(owner, crate::acl::Access::Write)
            {
                unmapped.insert(gspace.addr_of(record.offset as usize) as u64, record);
            }
        }
        indexed = unmapped.len();
        let mut writable = DirectMemoryTarget::restricted(
            unmapped.iter().map(|(&start, r)| (start, r.size)).collect(),
        );

        // Group the log space's live slots into chains: slots sharing a
        // `log_id`, ordered by `chain_index` (a single-puddle log is a
        // chain of one). `live_slots` already sorts by (log_id, chain_index).
        let mut chains: Vec<Vec<LogSpaceEntry>> = Vec::new();
        for slot in ls_ref.live_slots() {
            match chains.last_mut() {
                Some(chain) if chain[0].log_id == slot.log_id => chain.push(slot),
                _ => chains.push(vec![slot]),
            }
        }

        // Replay each registered log chain.
        let mut outcome = LogSpaceOutcome::Ok;
        for chain in &chains {
            report.logs += 1;
            // Map the chain's segments in order, stitching until the first
            // gap or missing record: registration is ordered (index k is
            // durable before any entry lands in k+1), so everything past a
            // hole belongs to an older, already-resolved incarnation.
            let mut segments: Vec<LogRef> = Vec::new();
            for (i, slot) in chain.iter().enumerate() {
                if slot.chain_index != i as u32 {
                    break;
                }
                let uuid = (slot.puddle_uuid_hi as u128) << 64 | slot.puddle_uuid_lo as u128;
                let Some(log_record) = inner.registry.puddle(PuddleId(uuid)) else {
                    break;
                };
                let log_addr = map_record(inner, gspace, &log_record, true, &mut mapped)?;
                // SAFETY: mapped writable for the puddle's full size; the
                // log occupies the heap region.
                let log = unsafe {
                    LogRef::from_raw(
                        (log_addr + LOG_REGION_OFFSET) as *mut u8,
                        log_record.size as usize - LOG_REGION_OFFSET,
                    )
                };
                segments.push(log);
            }

            match segments
                .first()
                .map(|head| (head.magic(), head.seq_range()))
            {
                // No reachable head: nothing to resolve.
                None => {}
                // Never initialised, or its transaction completed.
                Some((0, _)) | Some((LOG_MAGIC, RANGE_DONE)) => report.logs_clean += 1,
                // An armed log (`LogWriter::finish`): its last transaction
                // committed and left the head executing under a generation
                // no entry carries; the next one logged nothing durable.
                // Nothing to roll back, and nothing to rewrite.
                Some((LOG_MAGIC, RANGE_EXEC)) if chain_iter(&segments).next().is_none() => {
                    report.logs_clean += 1
                }
                Some((LOG_MAGIC, _)) => {
                    // One verified scan finds the chain's live entries (the
                    // head's sequence range governs liveness throughout;
                    // payloads stay borrowed from the mapped logs) and
                    // feeds both the access check and the apply.
                    let live = collect_live(&segments, false);
                    // Validate first: if any live entry of the chain
                    // targets memory the client could not write, do not
                    // replay anything from this log space.
                    if !live
                        .claimed()
                        .all(|(addr, len)| writable.containing(addr, len).is_some())
                    {
                        report.entries_denied += live.live_count() as u64;
                        outcome = LogSpaceOutcome::Invalidate;
                        // Leave the chain (and its tails) untouched as
                        // evidence.
                        continue;
                    }
                    // Map the data puddles the entries name, and only those.
                    for (hdr, data) in live.to_apply() {
                        let (start, _) = writable
                            .containing(hdr.addr, data.len())
                            .expect("every claimed range passed the access check");
                        if let Some(record) = unmapped.remove(&start) {
                            map_record(inner, gspace, record, true, &mut mapped)?;
                        }
                    }
                    // Every entry lies inside a range of `writable` whose
                    // puddle is mapped by now.
                    let stats = live.apply(&mut writable);
                    report.entries_applied += stats.applied as u64;
                    report.entries_denied += stats.denied as u64;
                    if segments.len() > 1 {
                        report.chained_logs += 1;
                    }
                    // The transaction is resolved; drop the log. Resetting
                    // the head is the single fenced write that invalidates
                    // the whole chain.
                    segments[0].reset();
                }
                // A log in a format this build cannot scan (an older
                // build's checksum function): whether it holds a live
                // transaction is unknowable, so it must not pass for clean.
                // Refuse the log space; the log stays as evidence.
                Some(_) => {
                    outcome = LogSpaceOutcome::Invalidate;
                    continue;
                }
            }

            // Reclaim orphaned chain tails: the crashed client can no
            // longer release them, and the next transaction on this log
            // starts a fresh chain. A tail that never saw an append (crash
            // between registration and first append) is just as benign —
            // it contributed no entries above. Unregister first (durably);
            // the puddles are dropped by the pass's one transaction, so a
            // crash mid-reclaim leaves either a registered empty-ish tail
            // (reclaimed next pass) or an unreferenced puddle (swept at
            // startup).
            for slot in chain.iter().filter(|s| s.chain_index > 0) {
                let uuid = (slot.puddle_uuid_hi as u128) << 64 | slot.puddle_uuid_lo as u128;
                ls_ref.unregister(uuid);
                reclaimed.push(PuddleId(uuid));
                report.chain_tails_reclaimed += 1;
            }
        }
        Ok(outcome)
    })();

    report.puddles_mapped += mapped.len() as u64;
    let metrics = inner.pmdir.obs();
    metrics
        .counter("recovery.map")
        .fetch_add(mapped.len() as u64, Ordering::Relaxed);
    metrics.trace(
        TraceEventKind::RecoveryMap,
        "",
        mapped.len() as u64,
        indexed as u64,
    );

    // Unmap everything this pass mapped, regardless of outcome.
    for offset in mapped {
        // SAFETY: recovery holds no references into the mappings at this
        // point; the replay targets borrowed raw addresses only transiently.
        unsafe {
            let _ = gspace.unmap_puddle(offset);
        }
    }
    result
}

fn map_record(
    inner: &DaemonInner,
    gspace: &GlobalSpace,
    record: &PuddleRecord,
    writable: bool,
    mapped: &mut Vec<usize>,
) -> Result<usize> {
    let (file, _) = inner
        .pmdir
        .open_puddle_file(&record.file(), record.size as usize)?;
    let addr = gspace.map_puddle(
        &file,
        record.offset as usize,
        record.size as usize,
        writable,
    )?;
    mapped.push(record.offset as usize);
    Ok(addr)
}
