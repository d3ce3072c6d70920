//! The names this benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repo root lists the same
//! names; a unit test keeps the two in step.

/// Every workload, in the order `--repeat` runs them.
pub const WORKLOADS: [&str; 7] = [
    "kv_update",
    "kv_read",
    "tx_large",
    "daemon_rtt",
    "daemon_pipelined",
    "relocate",
    "recover",
];

/// An end-to-end metric and the share of the parent's median by which it
/// may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these, and none is ever zero.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit)` of every per-layer metric. A traced run of any workload
/// prints all of them; one whose layer that workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 83] = [
    // Spans around the data-structure calls of the kv workloads.
    ("datastructures.kv.put_ns", "ns"),
    ("datastructures.kv.get_ns", "ns"),
    // Spans around the sensor merge of `relocate`.
    ("datastructures.sensor.aggregate_ms", "ms"),
    // core::tx, small transactions (probe).
    ("core.tx.nop_ns", "ns"),
    ("core.tx.add_64B_ns", "ns"),
    ("core.tx.add_dup_ns", "ns"),
    ("core.tx.commit_1add_ns", "ns"),
    // core::tx inside the `tx_large` body.
    ("core.tx.add_16KiB_us", "us"),
    ("core.tx.commit_1MiB_ms", "ms"),
    ("core.tx.chain_segments", "count"),
    ("core.client.daemon_calls_per_large_tx", "count"),
    // core::alloc and Pool::deref (probe).
    ("core.alloc.alloc_88B_ns", "ns"),
    ("core.alloc.free_88B_ns", "ns"),
    ("core.pool.deref_ns", "ns"),
    // core::reloc: pointer rewrite when an imported pool is mapped.
    ("core.reloc.map_rewrite_ms", "ms"),
    // core::client as the workload's caller sees it.
    ("core.client.ping_local_ns", "ns"),
    ("core.client.ping_p50_us", "us"),
    ("core.client.ping_p99_us", "us"),
    ("core.client.open_pool_p50_us", "us"),
    ("core.client.pool_cycle_p50_us", "us"),
    ("core.client.pool_cycle_p99_us", "us"),
    ("core.client.import_ms", "ms"),
    ("core.client.export_ms", "ms"),
    ("core.client.drop_pool_ms", "ms"),
    // logfmt on a DRAM log (probe).
    ("logfmt.append_64B_ns", "ns"),
    ("logfmt.append_16KiB_MBps", "MB/s"),
    ("logfmt.replay_4KiB_MBps", "MB/s"),
    ("logfmt.log_bytes_per_user_byte_64B", "ratio"),
    ("logfmt.log_bytes_per_user_byte_16KiB", "ratio"),
    // pmem::persist over a mapped file in the PM root (probe).
    ("pmem.persist.flush_line_ns", "ns"),
    ("pmem.persist.fence_ns", "ns"),
    // proto codec, v2 envelope (probe).
    ("proto.encode_ping_ns", "ns"),
    ("proto.decode_ping_ns", "ns"),
    ("proto.encode_regptrmap_ns", "ns"),
    ("proto.decode_regptrmap_ns", "ns"),
    ("proto.decode_pool_resp_ns", "ns"),
    ("proto.frame_bytes_ping", "count"),
    ("proto.frame_bytes_regptrmap", "count"),
    // proto + socket as the raw connections of `daemon_pipelined` see them.
    ("proto.encode_under_load_ns", "ns"),
    ("proto.decode_under_load_ns", "ns"),
    ("puddled.uds.write_under_load_ns", "ns"),
    ("puddled.uds.read_wait_under_load_us", "us"),
    // puddled::service called in-process (probe).
    ("puddled.service.handle_ping_ns", "ns"),
    ("puddled.service.handle_regptrmap_us", "us"),
    ("puddled.service.handle_open_pool_us", "us"),
    ("puddled.service.handle_pool_cycle_us", "us"),
    // The daemon's own service histograms, read over the wire (GetMetrics).
    ("puddled.service.Ping.p50_ns", "ns"),
    ("puddled.service.Ping.p99_ns", "ns"),
    ("puddled.service.RegisterPtrMap.p50_ns", "ns"),
    ("puddled.service.RegisterPtrMap.p99_ns", "ns"),
    ("puddled.service.CreatePool.p50_ns", "ns"),
    ("puddled.service.CreatePool.p99_ns", "ns"),
    ("puddled.service.OpenPool.p50_ns", "ns"),
    ("puddled.service.OpenPool.p99_ns", "ns"),
    ("puddled.service.DropPool.p50_ns", "ns"),
    ("puddled.service.DropPool.p99_ns", "ns"),
    ("puddled.service.ImportPool.p50_ns", "ns"),
    ("puddled.service.ImportPool.p99_ns", "ns"),
    ("puddled.service.ExportPool.p50_ns", "ns"),
    ("puddled.service.ExportPool.p99_ns", "ns"),
    ("puddled.service.Recover.p50_ns", "ns"),
    ("puddled.service.Recover.p99_ns", "ns"),
    // puddled::uds.
    ("puddled.uds.raw_rtt_p50_us", "us"),
    ("puddled.uds.transport_share", "share"),
    ("puddled.uds.reactor_request_skew", "ratio"),
    // puddled::wal and checkpoints.
    ("puddled.wal.submit_flush_us", "us"),
    ("puddled.wal.bytes_per_record", "count"),
    ("puddled.wal.reqs_per_flush", "ratio"),
    ("puddled.wal.flush_p99_us", "us"),
    ("puddled.checkpoint.count", "count"),
    ("puddled.checkpoint.p99_ms", "ms"),
    // puddled::alloc.
    ("puddled.alloc.alloc_free_ns", "ns"),
    ("puddled.alloc.fragmentation_bp", "bp"),
    // puddled::registry / recovery / importexport.
    ("puddled.restart_ms", "ms"),
    ("puddled.recover_ms", "ms"),
    ("puddled.registry.load_ms_per_1k_puddles", "ms"),
    ("puddled.recovery.puddles_per_log", "count"),
    ("puddled.recovery.entries_per_s", "1/s"),
    // Tail of the workload's own operation, by the "ten samples beyond"
    // rule; too dependent on host steal to be an end-to-end metric here.
    ("op_tail_us", "us"),
    ("op_tail_percentile", "%"),
    ("op_tail_samples", "count"),
    // Validity of the rows above.
    ("trace.spans", "count"),
    ("trace.overhead_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is made of the characters the benchmark contract allows.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `"name": "..."` values inside the array that follows `"key"` in
    /// the repo's `BENCHMARK.json`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array follows key");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("opening quote") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn names_equal_the_set_in_benchmark_json() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let set = |v: Vec<String>| v.into_iter().collect::<BTreeSet<_>>();
        let own =
            |it: &mut dyn Iterator<Item = &str>| it.map(str::to_string).collect::<BTreeSet<_>>();
        assert_eq!(
            set(names_in(json, "workloads")),
            own(&mut WORKLOADS.iter().copied())
        );
        assert_eq!(
            set(names_in(json, "end_to_end")),
            own(&mut END_TO_END.iter().map(|m| m.name))
        );
        assert_eq!(
            set(names_in(json, "per_layer")),
            own(&mut PER_LAYER.iter().map(|m| m.0))
        );
        for m in &END_TO_END {
            let at = json
                .find(&format!("\"{}\"", m.name))
                .expect("metric listed");
            let entry = &json[at..at + json[at..].find('}').expect("entry closes")];
            assert!(
                entry.contains(&format!("\"bound\": {}", m.bound)),
                "bound of {} differs from BENCHMARK.json: {entry}",
                m.name
            );
        }
    }
}
