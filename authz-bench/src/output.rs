//! One run from configuration to printed result: run the workload (and,
//! when traced, the probes), put the numbers in catalogue order, write the
//! span file, print the human-readable report and the result line.

use crate::catalog::{Source, END_TO_END, PER_LAYER};
use crate::fixture::scratch_root;
use crate::probes;
use crate::run::{peak_rss_mb, Config, Metric, Report};
use crate::workloads;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The outcome of one run of one workload.
pub struct RunOutput {
    /// Workload name.
    pub workload: String,
    /// The configuration it ran with.
    pub cfg: Config,
    /// Comparisons, checks and notes.
    pub report: Report,
    /// Every `end_to_end` metric (untraced run) or every `per_layer`
    /// metric (traced run), in catalogue order.
    pub metrics: Vec<Metric>,
    /// Where the spans went, for a traced run.
    pub span_file: Option<PathBuf>,
}

fn find(metrics: &[Metric], name: &str) -> Option<Metric> {
    metrics.iter().find(|m| m.name == name).cloned()
}

/// Run `workload` under `cfg`. `None` for an unknown workload name.
pub fn run_one(workload: &str, cfg: &Config) -> Option<RunOutput> {
    // Restart the kernel's high-water mark, so that a workload run after
    // another in one process reports its own peak. (Memory the allocator
    // kept from the earlier one still counts; only a process per run, as
    // the driver does it, is exact.) Best effort: not every kernel allows it.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let (mut report, recorder) = workloads::run(workload, cfg)?;
    let rss = peak_rss_mb();
    let mut span_file = None;
    let metrics = if cfg.trace {
        let (probed, probe_report) =
            probes::run(cfg.seed, cfg.seconds / crate::catalog::RUN_SECONDS as f64);
        report.attempted += probe_report.attempted;
        report.failed += probe_report.failed;
        report.failures.extend(probe_report.failures);
        let path = scratch_root().join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(scratch_root())
            .and_then(|()| std::fs::write(&path, recorder.borrow().to_json(workload)));
        report.check(
            format!("spans written to {}", path.display()),
            written.is_ok(),
        );
        span_file = Some(path);
        PER_LAYER
            .iter()
            .map(|entry| {
                let taken = match entry.source {
                    Source::Probe => find(&probed, entry.name),
                    Source::Workload => find(&report.metrics, entry.name),
                };
                match (taken, entry.source) {
                    (Some(m), _) => m,
                    // A workload that bypasses a layer never called it.
                    (None, Source::Workload) => Metric::new(entry.name, 0.0, entry.unit, 0),
                    (None, Source::Probe) => {
                        report.check(format!("probe reported {}", entry.name), false);
                        Metric::new(entry.name, 0.0, entry.unit, 0)
                    }
                }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|entry| {
                if entry.name == "peak_rss_mb" {
                    return Metric::new(entry.name, rss, entry.unit, 1);
                }
                find(&report.metrics, entry.name).unwrap_or_else(|| {
                    report.check(format!("workload reported {}", entry.name), false);
                    Metric::new(entry.name, 0.0, entry.unit, 0)
                })
            })
            .collect()
    };
    Some(RunOutput {
        workload: workload.to_string(),
        cfg: *cfg,
        report,
        metrics,
        span_file,
    })
}

/// The contract's result line: one JSON object.
pub fn result_json(out: &RunOutput) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.report.correct(),
        out.report.attempted.max(1),
        out.report.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    line
}

/// A float as JSON with all its digits; non-finite values (which no
/// metric should produce) become 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Human-readable account of the run: settings, every metric with unit,
/// sample count and bound, every check.
pub fn describe(out: &RunOutput) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {} (seed {}, {} s measured, trace {}, {} set-up repetitions)",
        out.workload,
        out.cfg.seed,
        out.cfg.seconds,
        if out.cfg.trace { "on" } else { "off" },
        out.cfg.setup_reps
    );
    for note in &out.report.notes {
        let _ = writeln!(text, "   . {note}");
    }
    // What the run emits, then what the workload also measured (in an
    // untraced run: the unbounded tails).
    let also = out
        .report
        .metrics
        .iter()
        .filter(|m| !out.metrics.iter().any(|e| e.name == m.name));
    for m in out.metrics.iter().chain(also) {
        let bound = END_TO_END
            .iter()
            .find(|e| e.name == m.name)
            .map_or(String::new(), |e| {
                format!("  bound {:.0} %", e.bound * 100.0)
            });
        let _ = writeln!(
            text,
            "   {:<34} {:>16.4} {:<6} n={}{}",
            m.name, m.value, m.unit, m.samples, bound
        );
    }
    let _ = writeln!(
        text,
        "   error_ratio = {} ({} of {} compared operations failed)",
        out.report.failed as f64 / out.report.attempted.max(1) as f64,
        out.report.failed,
        out.report.attempted
    );
    for failure in &out.report.failures {
        let _ = writeln!(text, "   FAILED {failure}");
    }
    for check in &out.report.checks {
        let _ = writeln!(
            text,
            "   [{}] {}",
            if check.ok { "ok" } else { "FAILED" },
            check.what
        );
    }
    text
}
