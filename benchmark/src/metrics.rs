//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` repeats
//! these lists; a package test keeps the two in step. `README.md` holds the
//! glossary — what each measures and which end-to-end metric it should
//! move on which workload.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric's definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the simulator sees (untraced run).
pub const END_TO_END: [MetricDef; 3] = [
    e2e("wall_s", "s", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.05),
];

/// Single-layer metrics (traced run), layer = crate.module. The first block
/// comes from spans and counts around the workload's own calls, the second
/// from the layer probes.
pub const PER_LAYER: [MetricDef; 58] = [
    lo("node.world.events", "count"),
    hi("node.world.events_per_s", "1/s"),
    lo("node.world.ns_per_event_p50", "ns"),
    lo("node.world.ns_per_event_p90", "ns"),
    lo("node.world.queue_depth_hwm", "count"),
    lo("node.world.new_ms", "ms"),
    lo("node.pump.rounds", "count"),
    hi("node.pump.flushed_per_round", "count"),
    lo("node.pump.empty_round_ratio", "ratio"),
    lo("node.deliver.messages", "count"),
    lo("node.dial.attempts", "count"),
    hi("node.dial.success_ratio", "ratio"),
    lo("chain.state.reorgs", "count"),
    lo("sim.fault.messages_dropped", "count"),
    hi("sim.trace.events_recorded", "count"),
    lo("sim.trace.events_dropped", "count"),
    hi("sim.timeseries.rows", "count"),
    lo("alloc.count_per_event", "count"),
    lo("alloc.bytes_per_event", "bytes"),
    lo("alloc.peak_live_mib", "MiB"),
    lo("core.report.extract_ms", "ms"),
    lo("json.serialize_ms", "ms"),
    lo("json.result_bytes", "bytes"),
    lo("trace_overhead_ratio", "ratio"),
    lo("sim.event.wheel_churn_ns", "ns"),
    lo("sim.event.heap_churn_ns", "ns"),
    lo("sim.event.est_share", "ratio"),
    lo("sim.rng.next_u64_ns", "ns"),
    lo("sim.metrics.inc_ns", "ns"),
    lo("sim.metrics.observe_ns", "ns"),
    lo("sim.trace.disabled_ns", "ns"),
    lo("sim.trace.relay_record_ns", "ns"),
    lo("sim.timeseries.record_ns", "ns"),
    hi("crypto.sha256.double_mib_per_s", "MiB/s"),
    lo("crypto.siphash.ns", "ns"),
    lo("protocol.tx.txid_ns", "ns"),
    lo("protocol.block.block_hash_ns", "ns"),
    lo("protocol.message.wire_size_ns", "ns"),
    lo("protocol.message.clone_tx_ns", "ns"),
    lo("protocol.message.clone_block_ns", "ns"),
    lo("protocol.message.clone_addr_ns", "ns"),
    lo("protocol.message.encode_framed_ns", "ns"),
    lo("protocol.message.decode_framed_ns", "ns"),
    lo("protocol.compact.from_block_ns", "ns"),
    lo("protocol.compact.reconstruct_ns", "ns"),
    lo("chain.state.connect_block_ns", "ns"),
    lo("chain.mempool.insert_ns", "ns"),
    lo("chain.mempool.remove_confirmed_ns", "ns"),
    lo("chain.miner.mine_ns", "ns"),
    lo("chain.miner.next_tx_ns", "ns"),
    lo("addrman.add_ns", "ns"),
    lo("addrman.select_ns", "ns"),
    lo("addrman.good_ns", "ns"),
    lo("addrman.get_addr_ns", "ns"),
    lo("net.latency.message_delay_ns", "ns"),
    lo("node.node.pump_round_ns", "ns"),
    lo("node.node.accept_tx_ns", "ns"),
    lo("node.node.accept_block_ns", "ns"),
];

/// Looks up an end-to-end metric's definition.
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name (from one of the tables above).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The unit of a metric from either table.
///
/// # Panics
///
/// Panics on a name in neither table — a benchmark bug.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is in no table"))
        .unit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "bad unit {:?}",
                m.unit
            );
        }
        for w in crate::seam::Workload::ALL {
            assert!(well_formed(w.name()), "bad workload name {:?}", w.name());
        }
    }

    /// `BENCHMARK.json` repeats the tables; this keeps the two in step.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        use crate::json::{as_str, parse};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect(path)).expect(path);
        let rows = |key: &str| -> Vec<crate::seam::Value> {
            doc.get(key).and_then(|v| v.as_array()).expect(key).to_vec()
        };
        let text = |row: &crate::seam::Value, key: &str| -> String {
            row.get(key).and_then(as_str).expect(key).to_string()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (row, def) in listed.iter().zip(table) {
                assert_eq!(text(row, "name"), def.name);
                assert_eq!(text(row, "unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(text(row, "better"), better, "{}", def.name);
                assert_eq!(
                    row.get("bound").and_then(|b| b.as_f64()),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = crate::seam::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            rows("paths").iter().filter_map(as_str).collect::<Vec<_>>(),
            ["benchmark"]
        );
    }

    #[test]
    fn end_to_end_metrics_are_bounded_and_include_setup() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
