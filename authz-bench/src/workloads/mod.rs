//! The workloads. Names are permanent: later issues cite them.

pub mod durable_mixed;
pub mod engine_mixed;
pub mod replicated_mixed;
pub mod shared_read_write;

use crate::run::{overhead_ratio, Config, Report, Slice};
use crate::spans::{Recorder, SharedRecorder};
use crate::tracegen::GenStats;

/// Spans kept per traced run (about 6 MB in memory, 20 MB as JSON); the
/// rest are counted in `trace.spans` but not written out.
pub const SPAN_CAP: usize = 250_000;

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "engine_mixed",
        "in-memory Engine: detection, dispatch, conditions and monitor do all the work, storage none",
    ),
    (
        "durable_mixed",
        "DurableEngine on FileStorage: every op is journaled and fsynced, the rule engine is a small share",
    ),
    (
        "shared_read_write",
        "SharedEngine: lock-free snapshot reads on one thread, open-loop writes that invalidate the snapshot on another",
    ),
    (
        "replicated_mixed",
        "3-node repl::Cluster on a lossless transport: WAL shipping and follower journal-before-apply per committed op",
    ),
];

/// Run the workload called `name`; `None` for an unknown name. Returns
/// the report and the spans recorded (empty unless `cfg.trace`).
pub fn run(name: &str, cfg: &Config) -> Option<(Report, SharedRecorder)> {
    let recorder = Recorder::shared(SPAN_CAP);
    let report = match name {
        "engine_mixed" => engine_mixed::run(cfg, &recorder),
        "durable_mixed" => durable_mixed::run(cfg, &recorder),
        "shared_read_write" => shared_read_write::run(cfg, &recorder),
        "replicated_mixed" => replicated_mixed::run(cfg, &recorder),
        _ => return None,
    };
    Some((report, recorder))
}

/// The per-layer numbers every traced closed-loop run takes from itself:
/// what tracing cost, and the realized shape of the generated trace.
fn push_trace_metrics(
    slices: &[Slice],
    gen: GenStats,
    recorder: &SharedRecorder,
    report: &mut Report,
) {
    let overhead = overhead_ratio(slices);
    if overhead > 1.10 {
        report.notes.push(format!(
            "INVALID RUN: tracing cost {:.1} % of throughput (limit 10 %)",
            (overhead - 1.0) * 100.0
        ));
    }
    report.metric("trace.overhead_ratio", overhead, "ratio", 0);
    report.metric(
        "loop.aging_slowdown",
        crate::run::median_over(slices.iter(), Slice::aging_slowdown),
        "ratio",
        slices.len() as u64,
    );
    report.metric("trace.spans", recorder.borrow().total() as f64, "count", 0);
    // Self time of an operation span is its duration minus the storage
    // calls made under it.
    let (mut check, mut mutate, mut storage, mut all) = ((0, 0), (0, 0), 0, 0);
    for (name, own_ns, count) in recorder.borrow().self_times() {
        all += own_ns;
        if name.starts_with("storage.") {
            storage += own_ns;
        } else if name.starts_with("op.check_access") {
            check = (check.0 + own_ns, check.1 + count);
        } else if name != "op.advance" {
            mutate = (mutate.0 + own_ns, mutate.1 + count);
        }
    }
    let mean = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64;
    report.metric("trace.self_check_ns", mean(check), "ns", check.1);
    report.metric("trace.self_mutate_ns", mean(mutate), "ns", mutate.1);
    report.metric(
        "trace.storage_share",
        storage as f64 / all.max(1) as f64,
        "ratio",
        0,
    );
    report.metric("trace.ops_traced", (check.1 + mutate.1) as f64, "count", 0);
    report.metric("gen.grant_ratio", gen.grant_ratio(), "ratio", gen.decisions);
    report.metric(
        "gen.live_sessions_max",
        gen.live_sessions_max as f64,
        "count",
        0,
    );
}
