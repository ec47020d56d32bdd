//! The metric catalogue: names, units, direction and regression bounds.
//!
//! `BENCHMARK.json` at the repository root is this catalogue written out
//! (`authz-bench --describe` prints it; a test keeps the two equal), so a
//! metric cannot be emitted without being declared or declared without
//! being emitted.

use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// Seconds one measured run lasts under the driver.
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric: what a user of the deployment sees. README.md
/// ("End-to-end metrics") says what each one is and how it is taken.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these.
pub const END_TO_END: [EndToEnd; 6] = [
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("ops_per_s", "1/s", "higher", 0.25),
    end_to_end("check_p50_us", "us", "lower", 0.25),
    end_to_end("mutate_p50_us", "us", "lower", 0.25),
    end_to_end("phase_ms", "ms", "lower", 0.25),
    end_to_end("peak_rss_mb", "MiB", "lower", 0.1),
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// An isolated probe of the layer's public functions on `ent200`,
    /// the same in every traced run whatever the workload.
    Probe,
    /// Counted during the traced run of the workload itself; 0 on a
    /// workload that bypasses the layer.
    Workload,
}

/// A per-layer metric.
pub struct PerLayer {
    /// Name, prefixed with the layer (module) it belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Where it is taken.
    pub source: Source,
}

const fn probe(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Probe,
    }
}

const fn counted(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Workload,
    }
}

/// Every traced run reports every one of these.
pub const PER_LAYER: [PerLayer; 54] = [
    // The tails of the two latency classes. They are end-to-end numbers,
    // but on the fsync-bound workload they follow the shared disk's tail
    // (interquartile spread 12-56 % over four series of ten runs), and an
    // end-to-end bound has to hold on every workload; here they carry none.
    counted("check_p99_us", "us", "lower"),
    counted("mutate_p99_us", "us", "lower"),
    probe("snoop.raise_ns", "ns", "lower"),
    probe("snoop.advance_us", "us", "lower"),
    probe("snoop.event_nodes", "count", "lower"),
    probe("snoop.detections_per_raise", "ratio", "lower"),
    probe("sentinel.engine_ns_per_op", "ns", "lower"),
    probe("sentinel.audit_entries_per_op", "count", "lower"),
    probe("sentinel.cascade_depth_max", "count", "lower"),
    probe("rbac.direct_check_ns", "ns", "lower"),
    probe("rbac.direct_activate_ns", "ns", "lower"),
    probe("core.engine_over_direct_ratio", "ratio", "lower"),
    probe("policy.instantiate_ms", "ms", "lower"),
    probe("policy.analyze_ms", "ms", "lower"),
    probe("policy.regenerate_ms", "ms", "lower"),
    probe("policy.rules", "count", "lower"),
    probe("policy.rules_rewritten", "count", "lower"),
    probe("wal.encode_ns_per_op", "ns", "lower"),
    probe("wal.records_from_us_at_1k", "us", "lower"),
    probe("wal.records_from_us_at_8k", "us", "lower"),
    probe("storage.append_us", "us", "lower"),
    probe("storage.sync_p50_us", "us", "lower"),
    probe("storage.sync_p99_us", "us", "lower"),
    counted("storage.syncs_per_op", "count", "lower"),
    counted("storage.bytes_per_op", "B", "lower"),
    counted("storage.creates_deletes_per_kop", "count", "lower"),
    probe("durable.snapshot_ms", "ms", "lower"),
    probe("durable.snapshot_bytes", "B", "lower"),
    counted("durable.snapshots", "count", "lower"),
    counted("durable.replayed_tail_ops", "count", "lower"),
    probe("snapshot.build_us", "us", "lower"),
    probe("snapshot.grants_ns", "ns", "lower"),
    probe("shared.slow_read_us", "us", "lower"),
    counted("shared.fast_path_ratio", "ratio", "higher"),
    probe("shard.ring_ns", "ns", "lower"),
    probe("shard.coord_reserve_commit_ns", "ns", "lower"),
    probe("shard.constrained_share", "ratio", "lower"),
    probe("shard.front_constructible", "count", "higher"),
    probe("repl.frame_ns", "ns", "lower"),
    probe("repl.unframe_ns", "ns", "lower"),
    probe("repl.with_leader_us", "us", "lower"),
    probe("repl.settle_us", "us", "lower"),
    probe("repl.history_growth_ratio", "ratio", "lower"),
    counted("repl.sends_per_op", "count", "lower"),
    counted("repl.shipped_bytes_per_op", "B", "lower"),
    counted("loop.aging_slowdown", "ratio", "lower"),
    counted("gen.grant_ratio", "ratio", "higher"),
    counted("gen.live_sessions_max", "count", "lower"),
    counted("trace.overhead_ratio", "ratio", "lower"),
    counted("trace.spans", "count", "lower"),
    counted("trace.self_check_ns", "ns", "lower"),
    counted("trace.self_mutate_ns", "ns", "lower"),
    counted("trace.storage_share", "ratio", "lower"),
    counted("trace.ops_traced", "count", "higher"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The `BENCHMARK.json` document for this catalogue.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"authz-bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"authz-bench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(name),
            json_str(why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(
                ok(m.unit, "_/%.-", 16) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(ok(m.unit, "_/%.-", 16), "{}", m.name);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate it with `authz-bench --describe`"
        );
    }
}
