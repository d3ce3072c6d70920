//! Recovery maps what crashed transactions touched, not what their owners
//! could have touched, refuses a log it cannot read instead of taking it
//! for an empty one, and leaves a log armed for its next transaction alone.

use puddled::{Daemon, DaemonConfig};
use puddles_logfmt::entry::ENTRY_HEADER_SIZE;
use puddles_logfmt::log::{LOG_HEADER_SIZE, LOG_MAGIC};
use puddles_logfmt::{
    EntryKind, LogEntryHeader, LogRef, LogSpaceRef, LogWriter, ReplayOrder, LOG_REGION_OFFSET,
    RANGE_DONE, RANGE_EXEC, SEQ_REDO, SEQ_UNDO,
};
use puddles_pmem::obs::TraceEventKind;
use puddles_proto::{Credentials, PuddleInfo, PuddlePurpose, RecoveryReport, Request, Response};
use std::sync::atomic::Ordering;

const USER: Credentials = Credentials {
    uid: 1000,
    gid: 100,
};

/// A daemon plus the puddles a test mapped by hand, the way a client would.
struct Machine {
    daemon: Daemon,
    mapped: Vec<usize>,
    _tmp: tempfile::TempDir,
}

impl Machine {
    fn start() -> Machine {
        let tmp = tempfile::tempdir().unwrap();
        let daemon = Daemon::start(DaemonConfig::for_testing(tmp.path())).unwrap();
        Machine {
            daemon,
            mapped: Vec::new(),
            _tmp: tmp,
        }
    }

    fn create(&self, purpose: PuddlePurpose, size: u64) -> PuddleInfo {
        let request = Request::CreatePuddle {
            size,
            pool: None,
            purpose,
            mode: 0o600,
        };
        match self.daemon.handle(USER, request) {
            Response::Puddle(info) => info,
            other => panic!("expected Puddle, got {other:?}"),
        }
    }

    /// Maps `info` writable and returns its address.
    fn map(&mut self, info: &PuddleInfo) -> usize {
        let gspace = self.daemon.global_space();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&info.path)
            .unwrap();
        let offset = (info.assigned_addr - gspace.base() as u64) as usize;
        self.mapped.push(offset);
        gspace
            .map_puddle(&file, offset, info.size as usize, true)
            .unwrap()
    }

    /// A registered log space holding one single-segment log; returns the
    /// log's puddle and a view of its (still uninitialised) log area.
    fn log_space_with_one_log(&mut self) -> (PuddleInfo, LogRef) {
        let ls = self.create(PuddlePurpose::LogSpace, 1 << 20);
        let lp = self.create(PuddlePurpose::Log, 1 << 20);
        assert_eq!(
            self.daemon
                .handle(USER, Request::RegLogSpace { puddle: ls.id }),
            Response::Ok
        );
        let ls_addr = self.map(&ls);
        let lp_addr = self.map(&lp);
        // SAFETY (both): mapped writable for the puddle's size just above;
        // unmapped only by `crash`, after the last use of the views.
        let ls_ref = unsafe {
            LogSpaceRef::from_raw(
                (ls_addr + LOG_REGION_OFFSET) as *mut u8,
                ls.size as usize - LOG_REGION_OFFSET,
            )
        };
        ls_ref.init();
        ls_ref.register(lp.id.0, 1, 0).unwrap();
        let log = unsafe {
            LogRef::from_raw(
                (lp_addr + LOG_REGION_OFFSET) as *mut u8,
                lp.size as usize - LOG_REGION_OFFSET,
            )
        };
        (lp, log)
    }

    /// The client dies: every mapping it held goes away.
    fn crash(&mut self) {
        let gspace = self.daemon.global_space();
        for offset in self.mapped.drain(..) {
            // SAFETY: the tests keep no reference into a mapping past this.
            unsafe { gspace.unmap_puddle(offset).unwrap() };
        }
    }

    fn recover(&self) -> RecoveryReport {
        match self.daemon.handle(USER, Request::Recover) {
            Response::Recovered(report) => report,
            other => panic!("expected Recovered, got {other:?}"),
        }
    }
}

#[test]
fn recovery_maps_only_the_puddles_live_entries_name() {
    const WRITABLE: usize = 120;
    let mut m = Machine::start();
    let data: Vec<PuddleInfo> = (0..WRITABLE)
        .map(|_| m.create(PuddlePurpose::Data, 64 * 1024))
        .collect();
    let (_lp, log) = m.log_space_with_one_log();

    // A transaction undo-logged 8 bytes of one puddle, overwrote them, and
    // crashed.
    let touched = &data[57];
    let target = m.map(touched) + 0x8000;
    // SAFETY: `target..target + 8` lies inside the puddle mapped above.
    unsafe { std::ptr::write_bytes(target as *mut u8, 0xAA, 8) };
    log.init();
    LogWriter::begin(log)
        .unwrap()
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xAA; 8],
        )
        .unwrap();
    // SAFETY: as above.
    unsafe { std::ptr::write_bytes(target as *mut u8, 0xBB, 8) };
    m.crash();

    let report = m.recover();
    assert_eq!(report.entries_applied, 1, "{report:?}");
    assert_eq!(report.logs_invalidated, 0, "{report:?}");
    // The log space, the log's one segment, the one data puddle.
    let segments = 1;
    assert!(
        report.puddles_mapped <= segments + 2,
        "mapped {} puddles for one touched puddle among {WRITABLE}",
        report.puddles_mapped
    );
    assert_eq!(report.puddles_mapped, 3);
    assert_eq!(
        m.daemon.global_space().mapped_count(),
        0,
        "recovery unmaps everything it mapped"
    );

    // The same numbers, from the metrics hub.
    let metrics = m.daemon.metrics();
    assert_eq!(
        metrics.counter("recovery.map").load(Ordering::Relaxed),
        report.puddles_mapped
    );
    let maps: Vec<(u64, u64)> = metrics
        .trace_events()
        .iter()
        .filter(|e| e.kind == TraceEventKind::RecoveryMap)
        .map(|e| (e.a, e.b))
        .collect();
    assert_eq!(maps, vec![(3, WRITABLE as u64)]);

    // And the write was rolled back.
    let addr = m.map(touched) + 0x8000;
    // SAFETY: mapped just above.
    let bytes = unsafe { std::slice::from_raw_parts(addr as *const u8, 8) };
    assert_eq!(bytes, &[0xAA; 8]);
    m.crash();
}

#[test]
fn a_live_log_in_an_older_format_is_refused_not_taken_for_clean() {
    let mut m = Machine::start();
    let (lp, log) = m.log_space_with_one_log();
    // A hand-written `PUDDLOG3` log — the previous format, whose 56-byte
    // header also kept an advisory head, tail, capacity and entry count —
    // mid-transaction: range (0, 2), generation 7, one live undo entry
    // right after that header.
    const OLD_HEADER_SIZE: usize = 56;
    let mut image = Vec::new();
    image.extend_from_slice(&0x5055_4444_4c4f_4733u64.to_le_bytes()); // magic
    image.extend_from_slice(&RANGE_EXEC.lo.to_le_bytes());
    image.extend_from_slice(&RANGE_EXEC.hi.to_le_bytes());
    image.extend_from_slice(&(OLD_HEADER_SIZE as u64 + 40).to_le_bytes()); // head_off
    image.extend_from_slice(&(OLD_HEADER_SIZE as u64).to_le_bytes()); // tail_off
    image.extend_from_slice(&(log.capacity() as u64).to_le_bytes()); // capacity
    image.extend_from_slice(&1u64.to_le_bytes()); // num_entries
    image.extend_from_slice(&7u32.to_le_bytes()); // gen
    image.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(image.len(), OLD_HEADER_SIZE);
    let payload = [0xAA; 8];
    let entry = LogEntryHeader::new(
        0x1000,
        SEQ_UNDO,
        ReplayOrder::Reverse,
        EntryKind::Undo,
        7,
        &payload,
    );
    image.resize(OLD_HEADER_SIZE + entry.stored_size(), 0);
    // SAFETY: `image` holds the entry header's 32 bytes at this offset.
    unsafe {
        std::ptr::write_unaligned(
            image.as_mut_ptr().add(OLD_HEADER_SIZE) as *mut LogEntryHeader,
            entry,
        )
    };
    image[OLD_HEADER_SIZE + ENTRY_HEADER_SIZE..].copy_from_slice(&payload);
    // SAFETY: the log area is mapped writable and far larger than `image`.
    unsafe {
        std::ptr::copy_nonoverlapping(image.as_ptr(), log.base_addr() as *mut u8, image.len());
    }
    assert_ne!(log.magic(), LOG_MAGIC);
    m.crash();

    let report = m.recover();
    assert_eq!(
        (report.logs, report.logs_clean, report.logs_invalidated),
        (1, 0, 1),
        "{report:?}"
    );
    // The log is kept as evidence, byte for byte, and its log space is out
    // of later passes.
    let addr = m.map(&lp) + LOG_REGION_OFFSET;
    // SAFETY: mapped just above.
    let kept = unsafe { std::slice::from_raw_parts(addr as *const u8, image.len()) };
    assert_eq!(kept, &image[..], "the 56-byte header and its entry");
    m.crash();
    assert_eq!(m.recover().log_spaces, 0);
}

#[test]
fn a_never_initialised_log_area_stays_clean() {
    let mut m = Machine::start();
    let (_lp, log) = m.log_space_with_one_log();
    assert_eq!(log.magic(), 0);
    m.crash();

    let report = m.recover();
    assert_eq!(
        (report.logs, report.logs_clean, report.logs_invalidated),
        (1, 1, 0),
        "{report:?}"
    );
    assert_eq!(m.recover().log_spaces, 1, "still recovered on later passes");
}

/// The bytes of the one log puddle's log header, read from its file.
fn log_header_bytes(daemon: &Daemon) -> Vec<u8> {
    let logs: Vec<_> = daemon
        .registry()
        .snapshot()
        .puddles
        .into_values()
        .filter(|p| p.purpose == PuddlePurpose::Log)
        .collect();
    assert_eq!(logs.len(), 1);
    let (_, path) = daemon
        .pm_dir()
        .open_puddle_file(&logs[0].file(), logs[0].size as usize)
        .unwrap();
    std::fs::read(path).unwrap()[LOG_REGION_OFFSET..LOG_REGION_OFFSET + LOG_HEADER_SIZE].to_vec()
}

#[test]
fn an_armed_empty_log_is_clean_and_recovery_leaves_it_alone() {
    let m = Machine::start();
    // A client commits a transaction and goes away without any cleanup:
    // its log stays registered, armed for a transaction that never came.
    {
        let client = puddles::PuddleClient::connect_local(&m.daemon).unwrap();
        let pool = client
            .create_pool("armed", puddles::PoolOptions::default())
            .unwrap();
        let addr = pool.tx(|tx| pool.alloc_raw(tx, 64, 0)).unwrap();
        pool.tx(|tx| tx.add_range(addr, 64)).unwrap();
    }
    let header = log_header_bytes(&m.daemon);
    assert_eq!(
        header[8..16],
        [RANGE_EXEC.lo.to_le_bytes(), RANGE_EXEC.hi.to_le_bytes()].concat()
    );

    let mapped_before = m.daemon.global_space().mapped_count();
    let report = m.recover();
    assert_eq!(
        (report.logs, report.logs_clean, report.logs_invalidated),
        (1, 1, 0),
        "{report:?}"
    );
    assert_eq!((report.entries_applied, report.entries_denied), (0, 0));
    assert_eq!(
        report.puddles_mapped, 2,
        "the log space and the log, no data puddle"
    );
    assert_eq!(m.daemon.global_space().mapped_count(), mapped_before);
    assert_eq!(
        log_header_bytes(&m.daemon),
        header,
        "generation included: nothing to rewrite"
    );
}

#[test]
fn an_executing_head_with_entries_is_still_resolved_and_reset() {
    let mut m = Machine::start();
    let data = m.create(PuddlePurpose::Data, 64 * 1024);
    let (_lp, log) = m.log_space_with_one_log();
    let target = m.map(&data) + 0x8000;
    log.init();

    // Transaction 1 commits and arms the log; transaction 2 starts on the
    // armed log, undo-logs 8 bytes, overwrites them, and crashes.
    let mut writer = LogWriter::begin(log).unwrap();
    writer
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0; 8],
        )
        .unwrap();
    writer.finish();
    let armed_gen = log.generation();
    writer.start().unwrap();
    // SAFETY: `target..target + 8` lies inside the puddle mapped above.
    unsafe { std::ptr::write_bytes(target as *mut u8, 0xAA, 8) };
    writer
        .append(
            target as u64,
            SEQ_UNDO,
            ReplayOrder::Reverse,
            EntryKind::Undo,
            &[0xAA; 8],
        )
        .unwrap();
    // SAFETY: as above.
    unsafe { std::ptr::write_bytes(target as *mut u8, 0xBB, 8) };
    assert_eq!((log.seq_range(), log.generation()), (RANGE_EXEC, armed_gen));
    m.crash();

    let report = m.recover();
    assert_eq!((report.logs, report.logs_clean), (1, 0), "{report:?}");
    assert_eq!(report.entries_applied, 1, "{report:?}");
    assert_eq!(report.puddles_mapped, 3);
    let addr = m.map(&data) + 0x8000;
    // SAFETY: mapped just above.
    assert_eq!(
        unsafe { std::slice::from_raw_parts(addr as *const u8, 8) },
        &[0xAA; 8]
    );
    m.crash();
    assert_eq!(m.recover().logs_clean, 1, "the head was reset");
}

#[test]
fn an_executing_head_whose_entries_are_not_live_is_not_an_armed_log() {
    let mut m = Machine::start();
    let (lp, log) = m.log_space_with_one_log();
    log.init();
    // A transaction redo-logged one store and crashed before publishing
    // its redo stage: a valid entry, not live under (0,2).
    let mut writer = LogWriter::begin(log).unwrap();
    writer
        .append(
            0x1000,
            SEQ_REDO,
            ReplayOrder::Forward,
            EntryKind::Redo,
            &[7; 8],
        )
        .unwrap();
    let crashed_gen = log.generation();
    m.crash();

    let report = m.recover();
    assert_eq!((report.logs, report.logs_clean), (1, 0), "{report:?}");
    assert_eq!((report.entries_applied, report.entries_denied), (0, 0));
    // Resolved the way it always was: the head is reset.
    let addr = m.map(&lp) + LOG_REGION_OFFSET;
    // SAFETY: mapped writable for the puddle's size just above.
    let log = unsafe { LogRef::from_raw(addr as *mut u8, lp.size as usize - LOG_REGION_OFFSET) };
    assert_eq!(
        (log.seq_range(), log.generation()),
        (RANGE_DONE, crashed_gen + 1)
    );
    m.crash();
    assert_eq!(m.recover().logs_clean, 1);
}
