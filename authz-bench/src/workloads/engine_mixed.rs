//! `engine_mixed`: the in-memory `owte_core::Engine`, default
//! configuration, one closed-loop client on the mixed trace, then a
//! policy-change phase.
//!
//! Event detection, rule dispatch, condition evaluation and monitor
//! mutation do all the work here and storage none, so a change to
//! dispatch or compilation shows on this workload first; the policy-change
//! phase is the only place a plan re-lowering stall shows.
//!
//! The engine is rebuilt for every time slice. `rbac::System` never reuses
//! a session slot, and cap checks, role disabling and session listing walk
//! every slot ever allocated, so an engine that has seen 9 % session churn
//! for ten seconds is half as fast as a fresh one (see the README
//! finding). Measuring one long-lived engine would make throughput depend
//! on how far the run got, which is noise; a fresh engine per slice makes
//! every slice the same experiment, and `loop.aging_slowdown` reports how
//! much an engine slows within one.

use crate::fixture::{ent200, shift_changed, LOG_CAP};
use crate::hist::median;
use crate::run::{
    apply_all, closed_slice, monitor_matches_model, push_loop_metrics, Config, LoopShape, Report,
};
use crate::spans::SharedRecorder;
use crate::tracegen::{Mix, TraceGen};
use owte_core::Engine;
use policy::PolicyGraph;
use snoop::Ts;
use std::time::Instant;

/// Mixed operations applied during set-up, after the warm start, so
/// caches and lazily built state are in place before measuring.
const WARM_OPS: usize = 20_000;
/// `apply_policy` calls in the policy-change phase.
pub const POLICY_CHANGES: usize = 20;
const CHUNK: usize = 4096;

struct State {
    graph: PolicyGraph,
    gen: TraceGen,
    engine: Engine,
}

fn setup(seed: u64, report: &mut Report) -> State {
    let graph = ent200();
    let mut gen = TraceGen::new(&graph, seed, Mix::MIXED, 0..graph.users.len());
    let mut engine = Engine::from_policy(&graph, Ts::ZERO).expect("ent200 instantiates");
    engine.set_log_cap(Some(LOG_CAP));
    let mut warm = Vec::new();
    gen.warm_start(&mut warm);
    gen.fill(&mut warm, WARM_OPS);
    apply_all(&mut engine, &warm, report);
    State { graph, gen, engine }
}

/// Run the workload.
pub fn run(cfg: &Config, recorder: &SharedRecorder) -> Report {
    let mut report = Report::default();
    // Two slices per set-up repetition: ten in a full run, two in the
    // smoke test.
    let shape = LoopShape {
        slices: 2 * cfg.setup_reps,
        chunk: CHUNK,
    };
    let mut setups = Vec::with_capacity(shape.slices);
    let mut slices = Vec::with_capacity(shape.slices);
    let mut agrees = true;
    let mut last: Option<State> = None;
    for index in 0..shape.slices {
        drop(last.take());
        let start = Instant::now();
        // Each slice drives its own trace, so the slices are independent
        // samples and not ten replays of one.
        let mut state = setup(cfg.seed.wrapping_add(index as u64 * 1_000_003), &mut report);
        setups.push(start.elapsed().as_secs_f64());
        slices.push(closed_slice(
            &mut state.engine,
            &mut state.gen,
            cfg,
            shape,
            index,
            recorder,
            &mut report,
        ));
        agrees &= monitor_matches_model(&state.engine, &state.gen);
        last = Some(state);
    }
    let mut state = last.expect("at least one slice");
    report.metric("setup_s", median(&setups), "s", setups.len() as u64);
    report.notes.push(format!(
        "deployment: Engine::from_policy(ent200), log cap {LOG_CAP}, rebuilt for each of {} slices; \
         1 closed-loop client; warm start + {WARM_OPS} unmeasured operations",
        shape.slices
    ));
    push_loop_metrics(&slices, &mut report);
    report.check(
        "after every slice, sessions, active roles and clock equal the DirectEngine model's",
        agrees,
    );

    // Policy-change phase (§5 shift change): alternate between the policy
    // and its twin, ending on the original.
    let twin = shift_changed(&state.graph);
    let mut stalls_ms = Vec::with_capacity(POLICY_CHANGES);
    let mut rewritten = 0;
    for i in 0..POLICY_CHANGES {
        let target = if i % 2 == 0 { &twin } else { &state.graph };
        let start = Instant::now();
        let outcome = state.engine.apply_policy(target);
        stalls_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(regen) => rewritten = regen.rules_rewritten,
            Err(e) => report.check(format!("apply_policy #{i} accepted ({e})"), false),
        }
    }
    report.metric("phase_ms", median(&stalls_ms), "ms", POLICY_CHANGES as u64);
    let fresh_rules = policy::instantiate(&state.graph, Ts::ZERO)
        .map(|inst| inst.pool.len())
        .unwrap_or(0);
    report.check(
        format!(
            "after {POLICY_CHANGES} policy changes the pool has the {fresh_rules} rules of a fresh instantiation"
        ),
        state.engine.pool().len() == fresh_rules,
    );
    report.check(
        "the compiled plan is still armed after the policy changes",
        state.engine.compiled_active(),
    );
    report.notes.push(format!(
        "phase: {POLICY_CHANGES} alternating apply_policy calls flipping role0's enabling window \
         ({rewritten} rules rewritten per call)"
    ));

    if cfg.trace {
        super::push_trace_metrics(&slices, state.gen.stats(), recorder, &mut report);
    }
    report
}
