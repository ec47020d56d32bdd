//! What the workloads share: the run configuration, the report they
//! produce, the adapter that lets one loop drive every single-threaded
//! deployment, and the closed measuring loop itself.

use crate::hist::{median, tail_quantile, Hist};
use crate::spans::SharedRecorder;
use crate::tracegen::{decision_of, Class, Op, Outcome, Step, TraceGen};
use owte_core::{DurableEngine, DurableError, Engine, EngineError, Storage};
use repl::Cluster;
use snoop::Dur;
use std::time::{Duration, Instant};

/// How one workload run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed for the fixture and the trace.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Record spans on alternate slices and report per-layer metrics.
    pub trace: bool,
    /// How many times set-up is repeated (its median is reported).
    pub setup_reps: usize,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind the value (timings) or the count it was taken over.
    pub samples: u64,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// A named correctness check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub what: String,
    /// Did it hold?
    pub ok: bool,
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations whose outcome was compared with the oracle.
    pub attempted: u64,
    /// Of those, operations that errored or disagreed with the oracle.
    pub failed: u64,
    /// First few disagreements, for the log.
    pub failures: Vec<String>,
    /// End-of-run correctness checks.
    pub checks: Vec<Check>,
    /// Settings and observations stated in the output.
    pub notes: Vec<String>,
    /// Workload-specific metrics, named as in `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Did every operation and every check come out right?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Record a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            what: what.into(),
            ok,
        });
    }

    /// Count one compared operation.
    pub fn compare(&mut self, step: &Step, got: Outcome) {
        self.attempted += 1;
        if got != step.expect {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!(
                    "{:?}: expected {:?}, got {:?}",
                    step.op, step.expect, got
                ));
            }
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }
}

/// Anything the closed loop can drive: it takes one generated operation
/// and answers with its outcome.
pub trait Deployment {
    /// Apply `op` and report what happened.
    fn apply(&mut self, op: &Op) -> Outcome;
}

fn session_outcome(r: Result<rbac::SessionId, EngineError>) -> Outcome {
    match r {
        Ok(s) => Outcome::Session(s),
        Err(EngineError::Denied(_)) => Outcome::Decision(false),
        Err(_) => Outcome::Error,
    }
}

fn check_outcome(r: Result<bool, EngineError>) -> Outcome {
    r.map_or(Outcome::Error, Outcome::Decision)
}

impl Deployment for Engine {
    fn apply(&mut self, op: &Op) -> Outcome {
        match *op {
            Op::Create { user } => session_outcome(self.create_session(user, &[])),
            Op::Delete { user, session } => decision_of(self.delete_session(user, session)),
            Op::Add {
                user,
                session,
                role,
            } => decision_of(self.add_active_role(user, session, role)),
            Op::Drop {
                user,
                session,
                role,
            } => decision_of(self.drop_active_role(user, session, role)),
            Op::Check { session, op, obj } => check_outcome(self.check_access(session, op, obj)),
            Op::Advance { secs } => match self.advance(Dur::from_secs(secs)) {
                Ok(_) => Outcome::Done,
                Err(_) => Outcome::Error,
            },
        }
    }
}

/// A durable engine reports policy denials wrapped in its own error type;
/// everything else it can fail with is a real failure.
fn unwrap_durable<T>(r: Result<T, DurableError>) -> Result<T, EngineError> {
    r.map_err(|e| match e {
        DurableError::Engine(inner) => inner,
        other => EngineError::Unhandled(other.to_string()),
    })
}

impl<S: Storage> Deployment for DurableEngine<S> {
    fn apply(&mut self, op: &Op) -> Outcome {
        match *op {
            Op::Create { user } => session_outcome(unwrap_durable(self.create_session(user, &[]))),
            Op::Delete { user, session } => {
                decision_of(unwrap_durable(self.delete_session(user, session)))
            }
            Op::Add {
                user,
                session,
                role,
            } => decision_of(unwrap_durable(self.add_active_role(user, session, role))),
            Op::Drop {
                user,
                session,
                role,
            } => decision_of(unwrap_durable(self.drop_active_role(user, session, role))),
            Op::Check { session, op, obj } => {
                check_outcome(unwrap_durable(self.check_access(session, op, obj)))
            }
            Op::Advance { secs } => {
                let to = self.engine().now() + Dur::from_secs(secs);
                match self.advance_to(to) {
                    Ok(()) => Outcome::Done,
                    Err(_) => Outcome::Error,
                }
            }
        }
    }
}

/// A replicated operation runs on the leader and is acknowledged to the
/// client once the cluster has settled, i.e. at commit.
impl Deployment for Cluster {
    fn apply(&mut self, op: &Op) -> Outcome {
        let outcome = self.with_leader(|leader| leader.apply(op));
        self.settle();
        outcome.unwrap_or(Outcome::Error)
    }
}

/// Apply set-up steps (unmeasured), still comparing each with the oracle.
pub fn apply_all<D: Deployment>(deployment: &mut D, steps: &[Step], report: &mut Report) {
    for step in steps {
        let got = deployment.apply(&step.op);
        report.compare(step, got);
    }
}

/// Measurements of one time slice of the closed loop.
pub struct Slice {
    /// Were spans recorded during this slice?
    pub traced: bool,
    /// Operations completed.
    pub ops: u64,
    /// Time spent applying them.
    pub busy: Duration,
    /// `check_access` latencies.
    pub check: Hist,
    /// Session and role mutation latencies.
    pub mutate: Hist,
    /// Operations and busy time of each measured stretch, in order.
    pub stretches: Vec<(u64, Duration)>,
}

impl Slice {
    /// An empty slice.
    pub fn new(traced: bool) -> Slice {
        Slice {
            traced,
            ops: 0,
            busy: Duration::ZERO,
            check: Hist::new(),
            mutate: Hist::new(),
            stretches: Vec::new(),
        }
    }

    /// Operations per second of busy time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    /// Throughput of the first quarter of the slice's stretches over that
    /// of the last quarter: above 1 when the deployment slows as it ages.
    /// 0 when the slice has fewer than four stretches.
    pub fn aging_slowdown(&self) -> f64 {
        let quarter = self.stretches.len() / 4;
        if quarter == 0 {
            return 0.0;
        }
        let rate = |part: &[(u64, Duration)]| {
            let ops: u64 = part.iter().map(|s| s.0).sum();
            let busy: Duration = part.iter().map(|s| s.1).sum();
            ops as f64 / busy.as_secs_f64().max(1e-9)
        };
        rate(&self.stretches[..quarter]) / rate(&self.stretches[self.stretches.len() - quarter..])
    }
}

/// How the closed loop is cut up.
#[derive(Debug, Clone, Copy)]
pub struct LoopShape {
    /// Time slices; every reported number is a median over them, so a
    /// stall that hits one slice does not move it.
    pub slices: usize,
    /// Operations generated (unmeasured) between measured stretches.
    pub chunk: usize,
}

/// One client, closed loop: generate a chunk of operations, apply it
/// while timing each operation from the end of the previous one, repeat
/// until the slice has used its share of `seconds`. With `trace`, odd
/// slices record a span per operation and even slices do not, so the two
/// halves see the same drift.
pub fn closed_loop<D: Deployment>(
    deployment: &mut D,
    gen: &mut TraceGen,
    cfg: &Config,
    shape: LoopShape,
    recorder: &SharedRecorder,
    report: &mut Report,
) -> Vec<Slice> {
    (0..shape.slices)
        .map(|index| closed_slice(deployment, gen, cfg, shape, index, recorder, report))
        .collect()
}

/// Slice number `index` of [`closed_loop`]. A workload that rebuilds its
/// deployment between slices calls this directly.
pub fn closed_slice<D: Deployment>(
    deployment: &mut D,
    gen: &mut TraceGen,
    cfg: &Config,
    shape: LoopShape,
    index: usize,
    recorder: &SharedRecorder,
    report: &mut Report,
) -> Slice {
    let budget = Duration::from_secs_f64(cfg.seconds / shape.slices as f64);
    let traced = cfg.trace && index % 2 == 1;
    recorder.borrow_mut().set_enabled(traced);
    let mut steps: Vec<Step> = Vec::with_capacity(shape.chunk);
    let mut slice = Slice::new(traced);
    while slice.busy < budget {
        steps.clear();
        gen.fill(&mut steps, shape.chunk);
        let begin = Instant::now();
        let mut prev = begin;
        for step in &steps {
            if traced {
                recorder.borrow_mut().begin_op(step.op.span_name(), prev);
            }
            let got = deployment.apply(&step.op);
            let now = Instant::now();
            if traced {
                recorder.borrow_mut().end_op(now);
            }
            let ns = (now - prev).as_nanos() as u64;
            match step.op.class() {
                Class::Check => slice.check.record(ns),
                Class::Mutate => slice.mutate.record(ns),
                Class::Advance => {}
            }
            report.compare(step, got);
            prev = now;
        }
        slice.busy += prev - begin;
        slice.ops += steps.len() as u64;
        slice.stretches.push((steps.len() as u64, prev - begin));
    }
    recorder.borrow_mut().set_enabled(false);
    slice
}

/// Median over slices of `f`.
pub fn median_over<'a>(slices: impl Iterator<Item = &'a Slice>, f: impl Fn(&Slice) -> f64) -> f64 {
    median(&slices.map(f).collect::<Vec<_>>())
}

/// The highest of `f` over the slices (0 when there are none).
pub fn highest_over<'a>(slices: impl Iterator<Item = &'a Slice>, f: impl Fn(&Slice) -> f64) -> f64 {
    slices.map(f).fold(0.0, f64::max)
}

/// The lowest of `f` over the slices (0 when there are none).
pub fn lowest_over<'a>(slices: impl Iterator<Item = &'a Slice>, f: impl Fn(&Slice) -> f64) -> f64 {
    let lowest = slices.map(f).fold(f64::INFINITY, f64::min);
    if lowest.is_finite() {
        lowest
    } else {
        0.0
    }
}

/// Push `ops_per_s` and the four latency metrics, each taken from the
/// best slice: the highest throughput, the lowest median and the lowest
/// tail. In the sandbox other tenants and the disk only ever take time
/// away, for seconds at a stretch; over identical runs the median of the
/// slices moved up to five times as much as their best (README, "Timing
/// rules"), and a regression slows the best slice like any other.
/// The per-slice values are printed so the choice can be second-guessed.
///
/// The tail is p99 unless the smallest slice has fewer than 1000 samples
/// of the class, in which case it is the highest percentile with ten
/// samples beyond it, and the report says so.
pub fn push_loop_metrics(slices: &[Slice], report: &mut Report) {
    let total_ops: u64 = slices.iter().map(|s| s.ops).sum();
    report.notes.push(format!(
        "operations per second, slice by slice: {:?}",
        slices
            .iter()
            .map(|s| s.ops_per_s().round() as u64)
            .collect::<Vec<_>>()
    ));
    report.metric(
        "ops_per_s",
        highest_over(slices.iter(), Slice::ops_per_s),
        "1/s",
        total_ops,
    );
    type Pick = fn(&Slice) -> &Hist;
    let classes: [(&'static str, &'static str, Pick); 2] = [
        ("check_p50_us", "check_p99_us", |s| &s.check),
        ("mutate_p50_us", "mutate_p99_us", |s| &s.mutate),
    ];
    for (p50, p99, pick) in classes {
        let total: u64 = slices.iter().map(|s| pick(s).count()).sum();
        let smallest = slices.iter().map(|s| pick(s).count()).min().unwrap_or(0);
        let (q, label) = tail_quantile(smallest);
        if label != "p99" {
            report.notes.push(format!(
                "{p99} is {label}: the smallest slice has {smallest} samples"
            ));
        }
        report.notes.push(format!(
            "{p99}, slice by slice: {:?}",
            slices
                .iter()
                .map(|s| (pick(s).quantile(q) / 1e3 * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ));
        // A slice too short to hold a sample of the class has no latency.
        let sampled = || slices.iter().filter(|s| pick(s).count() > 0);
        report.metric(
            p50,
            lowest_over(sampled(), |s| pick(s).quantile(0.5)) / 1e3,
            "us",
            total,
        );
        report.metric(
            p99,
            lowest_over(sampled(), |s| pick(s).quantile(q)) / 1e3,
            "us",
            total,
        );
    }
}

/// Untraced over traced throughput: what recording spans costs.
pub fn overhead_ratio(slices: &[Slice]) -> f64 {
    // Medians here: under a deployment that slows as it ages, the best
    // untraced slice is the first and would flatter the untraced side.
    let plain = median_over(slices.iter().filter(|s| !s.traced), Slice::ops_per_s);
    let traced = median_over(slices.iter().filter(|s| s.traced), Slice::ops_per_s);
    if traced > 0.0 {
        plain / traced
    } else {
        0.0
    }
}

/// Run `setup` `reps` times; return the last result and the median time.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&times))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Do the deployment's monitor and the generator's model hold the same
/// sessions with the same active roles?
pub fn monitor_matches_model(engine: &Engine, gen: &TraceGen) -> bool {
    let (a, b) = (engine.system(), &gen.model().sys);
    let sessions: Vec<_> = a.all_sessions().collect();
    sessions == b.all_sessions().collect::<Vec<_>>()
        && sessions
            .iter()
            .all(|s| a.session_roles(*s).ok() == b.session_roles(*s).ok())
        && engine.now() == gen.model().now()
}
