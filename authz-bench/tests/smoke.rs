//! Every workload at a fraction of its length: the correctness checks
//! hold, and a run emits exactly the metrics `BENCHMARK.json` declares.

use authz_bench::catalog::{END_TO_END, PER_LAYER};
use authz_bench::output::{result_json, run_one};
use authz_bench::run::Config;
use authz_bench::workloads::WORKLOADS;

fn tiny(trace: bool) -> Config {
    Config {
        seed: 42,
        seconds: 0.02,
        trace,
        setup_reps: 1,
    }
}

fn assert_emits(json: &str, names: &[&str]) {
    for name in names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {json}"
        );
    }
    assert_eq!(
        json.matches("{\"value\": ").count(),
        names.len(),
        "undeclared metrics in {json}"
    );
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn every_workload_is_correct_and_emits_the_declared_end_to_end_metrics() {
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for (workload, _) in WORKLOADS {
        let out = run_one(workload, &tiny(false)).expect("a known workload");
        assert!(
            out.report.correct(),
            "{workload}: {:?} {:?}",
            out.report.failures,
            out.report
                .checks
                .iter()
                .filter(|c| !c.ok)
                .collect::<Vec<_>>()
        );
        assert!(out.report.attempted > 0);
        assert!(
            out.metrics
                .iter()
                .all(|m| m.value > 0.0 && m.value.is_finite()),
            "{workload}: an end-to-end metric is zero: {:?}",
            out.metrics
        );
        assert_emits(&result_json(&out), &names);
    }
    assert!(run_one("no_such_workload", &tiny(false)).is_none());
}

#[test]
fn a_traced_run_emits_the_declared_per_layer_metrics_and_writes_its_spans() {
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let out = run_one("durable_mixed", &tiny(true)).expect("a known workload");
    assert!(
        out.report.correct(),
        "{:?} {:?}",
        out.report.failures,
        out.report
            .checks
            .iter()
            .filter(|c| !c.ok)
            .collect::<Vec<_>>()
    );
    assert_emits(&result_json(&out), &names);
    let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
    // Every operation of the durable engine is journaled and synced once.
    assert!(value("storage.syncs_per_op") >= 1.0);
    assert!(value("trace.storage_share") > 0.0);
    // A layer the workload bypasses counts nothing.
    assert_eq!(value("repl.sends_per_op"), 0.0);
    let spans = std::fs::read_to_string(out.span_file.expect("a traced run names its span file"))
        .expect("the span file was written");
    assert!(spans.contains("\"name\":\"storage.sync\""));
    assert!(spans.contains("\"name\":\"op.check_access\""));
}
