//! `shared_read_write`: one `SharedEngine` over `ent200` with a session
//! open and roles active for each of the 1000 users, used two ways at
//! once by two threads.
//!
//! * A closed-loop reader calls `check_access` on the sessions of the
//!   first 500 users, which the writer never touches: 98 % of its requests
//!   are grants (answered from the published snapshot without the lock),
//!   2 % are denials (which take the engine mutex).
//! * An open-loop writer activates and deactivates roles in the sessions
//!   of the other 500 users at a fixed 500 operations per second, each
//!   timed from the instant it was due.
//!
//! Every applied write invalidates the `AuthSnapshot`, which is then
//! rebuilt whole under the mutex, so publish coalescing or incremental
//! snapshots show as the write latency and the read tail here and nowhere
//! else, and a snapshot made cheaper to read but dearer to build is
//! caught.

use crate::fixture::{ent200, shift_changed, LOG_CAP};
use crate::hist::{median, Hist};
use crate::run::{
    apply_all, monitor_matches_model, push_loop_metrics, timed_setup, Config, Report, Slice,
};
use crate::spans::{Recorder, SharedRecorder};
use crate::tracegen::{decision_of, Mix, Op, Outcome, Step, TraceGen};
use owte_core::{Engine, SharedEngine};
use policy::PolicyGraph;
use rbac::{ObjId, OpId, SessionId};
use snoop::Ts;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Users whose sessions only the reader uses.
const READER_USERS: Range<usize> = 0..500;
/// Users whose sessions the writer mutates.
const WRITER_USERS: Range<usize> = 500..1000;
/// Open-loop write rate.
pub const WRITES_PER_S: f64 = 500.0;
/// One read in this many is timed; all are counted and checked. Timing
/// every read would add a clock read to an operation that costs about as
/// much as one. Coprime with `DENIAL_EVERY`, so the timed reads hold the
/// same share of denials as all reads.
const SAMPLE_EVERY: u64 = 17;
/// One read in this many asks for a permission the session lacks.
const DENIAL_EVERY: u64 = 50;
/// `apply_policy` calls through the shared handle in the phase.
pub const POLICY_CHANGES: usize = 10;
const SLICES: usize = 10;

/// One `check_access` request.
pub type Request = (SessionId, OpId, ObjId);

/// The deployment with everyone logged in, and the two clients' inputs.
/// The snapshot probes reuse it.
pub struct State {
    /// The policy.
    pub graph: PolicyGraph,
    /// The generator that produced `writes`; its model is the oracle.
    pub gen: TraceGen,
    /// The deployment.
    pub shared: SharedEngine,
    /// Requests the policy grants, over the reader's sessions.
    pub grants: Vec<Request>,
    /// Requests the policy denies, over the same sessions.
    pub denials: Vec<Request>,
    /// The writer's schedule, one step per period.
    pub writes: Vec<Step>,
}

/// Build the deployment from `seed` with `planned` writes scheduled.
pub fn setup(seed: u64, planned: usize, report: &mut Report) -> State {
    let graph = ent200();
    let mut gen = TraceGen::new(&graph, seed, Mix::TOGGLE_ROLES, WRITER_USERS);
    let mut engine = Engine::from_policy(&graph, Ts::ZERO).expect("ent200 instantiates");
    engine.set_log_cap(Some(LOG_CAP));

    // Everyone logs in and activates what the policy lets them.
    let mut steps = Vec::new();
    for ui in 0..graph.users.len() {
        steps.push(gen.open_session(ui));
        for role in gen.authorized(ui).to_vec() {
            steps.push(gen.activate(ui, role));
        }
    }
    apply_all(&mut engine, &steps, report);

    // The reader's requests and their answers. Its sessions never change
    // and the clock never moves, so the answers hold for the whole run.
    let sys = &gen.model().sys;
    let perms = gen.all_perms();
    let (mut grants, mut denials) = (Vec::new(), Vec::new());
    for ui in READER_USERS {
        let session = gen.session_of(ui).expect("opened above");
        for (k, &(op, obj)) in perms.iter().enumerate() {
            match sys.check_access(session, op, obj) {
                Ok(true) => grants.push((session, op, obj)),
                // A handful of refused requests per session is plenty.
                Ok(false) if (k + ui) % 97 == 0 => denials.push((session, op, obj)),
                _ => {}
            }
        }
    }
    assert!(
        !grants.is_empty() && !denials.is_empty(),
        "ent200 gives the reader both granted and denied requests"
    );

    let mut writes = Vec::new();
    gen.fill(&mut writes, planned);
    State {
        graph,
        gen,
        shared: SharedEngine::new(engine),
        grants,
        denials,
        writes,
    }
}

struct ReaderOut {
    slices: Vec<Slice>,
    attempted: u64,
    failed: u64,
    recorder: Recorder,
}

/// Slice index of instant `t` in a window starting at `from`, or `None`
/// before it.
fn slice_at(t: Instant, from: Instant, slice_len: Duration) -> Option<usize> {
    t.checked_duration_since(from)
        .map(|d| (d.as_nanos() / slice_len.as_nanos().max(1)) as usize)
}

fn read_loop(
    state: &State,
    cfg: &Config,
    window: Instant,
    slice_len: Duration,
    mut recorder: Recorder,
) -> ReaderOut {
    let end = window + slice_len * SLICES as u32;
    let mut slices: Vec<Slice> = (0..SLICES)
        .map(|i| Slice::new(cfg.trace && i % 2 == 1))
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut lcg = cfg.seed | 1;
    let mut n = 0u64;
    let mut mark = Instant::now();
    'run: loop {
        let current = slice_at(mark, window, slice_len);
        let traced = current.is_some_and(|i| i < SLICES && slices[i].traced);
        recorder.set_enabled(traced);
        let mut done = 0u64;
        // One clock read per 64 requests keeps the loop about requests.
        for _ in 0..64 {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pick = (lcg >> 33) as usize;
            n += 1;
            let deny = n.is_multiple_of(DENIAL_EVERY);
            let (session, op, obj) = if deny {
                state.denials[pick % state.denials.len()]
            } else {
                state.grants[pick % state.grants.len()]
            };
            let answer = if n.is_multiple_of(SAMPLE_EVERY) {
                let start = Instant::now();
                let answer = state.shared.check_access(session, op, obj);
                let stop = Instant::now();
                if let Some(slice) = current.and_then(|i| slices.get_mut(i)) {
                    slice.check.record((stop - start).as_nanos() as u64);
                }
                if traced {
                    recorder.begin_op(
                        if deny {
                            "op.check_access.locked"
                        } else {
                            "op.check_access.snapshot"
                        },
                        start,
                    );
                    recorder.end_op(stop);
                }
                answer
            } else {
                state.shared.check_access(session, op, obj)
            };
            attempted += 1;
            failed += u64::from(!matches!(answer, Ok(granted) if granted != deny));
            done += 1;
        }
        let now = Instant::now();
        if let Some(slice) = current.and_then(|i| slices.get_mut(i)) {
            slice.ops += done;
            slice.busy += now - mark;
        }
        mark = now;
        if now >= end {
            break 'run;
        }
    }
    ReaderOut {
        slices,
        attempted,
        failed,
        recorder,
    }
}

struct WriterOut {
    /// Latency from due time, per slice.
    latency: Vec<Hist>,
    /// How late each write started.
    lateness: Hist,
    outcomes: Vec<Outcome>,
    recorder: Recorder,
}

fn apply_write(shared: &SharedEngine, op: &Op) -> Outcome {
    match *op {
        Op::Add {
            user,
            session,
            role,
        } => decision_of(shared.add_active_role(user, session, role)),
        Op::Drop {
            user,
            session,
            role,
        } => decision_of(shared.drop_active_role(user, session, role)),
        _ => Outcome::Error,
    }
}

/// Wait until `due` without sleeping: a sleeping thread wakes when the
/// scheduler gets to it, which in the sandbox is milliseconds late, and an
/// open-loop client that starts late is measuring itself. Yielding keeps
/// the core available to anything else that wants it.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn write_loop(
    state: &State,
    cfg: &Config,
    first_due: Instant,
    window: Instant,
    slice_len: Duration,
    mut recorder: Recorder,
) -> WriterOut {
    let period = Duration::from_secs_f64(1.0 / WRITES_PER_S);
    let mut latency: Vec<Hist> = (0..SLICES).map(|_| Hist::new()).collect();
    let mut lateness = Hist::new();
    let mut outcomes = Vec::with_capacity(state.writes.len());
    for (k, step) in state.writes.iter().enumerate() {
        let due = first_due + period * k as u32;
        wait_until(due);
        let slice = slice_at(due, window, slice_len).filter(|i| *i < SLICES);
        let traced = cfg.trace && slice.is_some_and(|i| i % 2 == 1);
        recorder.set_enabled(traced);
        let start = Instant::now();
        recorder.begin_op(step.op.span_name(), start);
        let got = apply_write(&state.shared, &step.op);
        let stop = Instant::now();
        recorder.end_op(stop);
        if let Some(i) = slice {
            latency[i].record((stop - due).as_nanos() as u64);
            lateness.record((start - due).as_nanos() as u64);
        }
        outcomes.push(got);
    }
    WriterOut {
        latency,
        lateness,
        outcomes,
        recorder,
    }
}

/// Run the workload.
pub fn run(cfg: &Config, recorder: &SharedRecorder) -> Report {
    let mut report = Report::default();
    let warm_up = Duration::from_secs_f64((cfg.seconds * 0.1).min(1.0));
    let planned = ((warm_up.as_secs_f64() + cfg.seconds) * WRITES_PER_S).ceil() as usize;
    let (state, setup_s) = timed_setup(cfg.setup_reps, || setup(cfg.seed, planned, &mut report));
    report.metric("setup_s", setup_s, "s", cfg.setup_reps as u64);
    report.notes.push(format!(
        "deployment: SharedEngine over Engine::from_policy(ent200), log cap {LOG_CAP}, 1000 sessions \
         open; 2 threads: closed-loop reader (1 in {DENIAL_EVERY} requests denied, 1 in {SAMPLE_EVERY} \
         timed) and open-loop writer at {WRITES_PER_S} writes/s timed from due time; \
         {:.2} s unmeasured warm-up; available parallelism {}",
        warm_up.as_secs_f64(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    let slice_len = Duration::from_secs_f64(cfg.seconds / SLICES as f64);
    let (mut reader_rec, mut writer_rec) = {
        let r = recorder.borrow();
        (r.sibling(), r.sibling())
    };
    if cfg.trace {
        // Reserve the span memory now, not inside the first traced slice.
        for rec in [&mut reader_rec, &mut writer_rec] {
            rec.set_enabled(true);
            rec.set_enabled(false);
        }
    }
    let first_due = Instant::now() + Duration::from_millis(5);
    let window = first_due + warm_up;
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&state, cfg, window, slice_len, reader_rec));
        let writer =
            scope.spawn(|| write_loop(&state, cfg, first_due, window, slice_len, writer_rec));
        (
            reader.join().expect("reader thread panicked"),
            writer.join().expect("writer thread panicked"),
        )
    });

    report.attempted += reader.attempted;
    report.failed += reader.failed;
    if reader.failed > 0 {
        report.failures.push(format!(
            "{} reader answers differ from the expectation",
            reader.failed
        ));
    }
    for (step, got) in state.writes.iter().zip(&writer.outcomes) {
        report.compare(step, *got);
    }
    let mut slices = reader.slices;
    for (slice, latency) in slices.iter_mut().zip(&writer.latency) {
        slice.mutate.merge(latency);
    }
    push_loop_metrics(&slices, &mut report);
    let lateness_p99_us = writer.lateness.quantile(0.99) / 1e3;
    report.notes.push(format!(
        "gen.lateness_p99_us = {lateness_p99_us:.1} over {} writes{}",
        writer.lateness.count(),
        if lateness_p99_us > 1000.0 {
            " — INVALID RUN: the writer ran more than 1 ms late"
        } else {
            ""
        }
    ));
    let (fast, slow) = state.shared.read_stats();
    report.check(
        "after the last write, sessions and active roles equal the DirectEngine model's",
        state
            .shared
            .with(|engine| monitor_matches_model(engine, &state.gen)),
    );

    // Phase: the shift change of §5 through the shared handle, i.e. under
    // the engine mutex and followed by a snapshot republish.
    let twin = shift_changed(&state.graph);
    let mut stalls_ms = Vec::with_capacity(POLICY_CHANGES);
    for i in 0..POLICY_CHANGES {
        let target = if i % 2 == 0 { &twin } else { &state.graph };
        let start = Instant::now();
        let outcome = state.shared.with(|engine| engine.apply_policy(target));
        stalls_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = outcome {
            report.check(format!("apply_policy #{i} accepted ({e})"), false);
        }
    }
    report.metric("phase_ms", median(&stalls_ms), "ms", POLICY_CHANGES as u64);
    report.notes.push(format!(
        "phase: {POLICY_CHANGES} alternating apply_policy calls through SharedEngine::with \
         (lock, regenerate, republish the snapshot)"
    ));

    if cfg.trace {
        let mut rec = recorder.borrow_mut();
        // The writer's few thousand spans first: the reader's fill the cap.
        rec.absorb(writer.recorder);
        rec.absorb(reader.recorder);
        drop(rec);
        super::push_trace_metrics(&slices, state.gen.stats(), recorder, &mut report);
        report.metric(
            "shared.fast_path_ratio",
            fast as f64 / (fast + slow).max(1) as f64,
            "ratio",
            fast + slow,
        );
    }
    report
}
