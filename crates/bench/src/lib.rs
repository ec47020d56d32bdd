//! Shared harness code for the benchmark suite: trace replay against both
//! engines, so throughput comparisons drive identical workloads.

#![warn(missing_docs)]

pub mod sharded;

use owte_core::{DirectEngine, Engine};
use policy::PolicyGraph;
use rbac::SessionId;
use snoop::{Dur, Ts};
use workload::{enterprise, Step};

/// Replay outcome counters (sanity-checked by benches so the optimizer
/// cannot elide work and so both engines demonstrably did the same thing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Operations that were granted.
    pub granted: u64,
    /// Operations that were denied.
    pub denied: u64,
    /// Access checks answered true.
    pub allowed: u64,
    /// Steps skipped because the user had no session.
    pub skipped: u64,
}

/// Replay a trace against the rule-driven engine with its default
/// configuration (compiled dispatch plan armed when the pool is licensed).
pub fn replay_owte(graph: &PolicyGraph, trace: &[Step], users: usize) -> ReplayStats {
    let mut e = Engine::from_policy(graph, Ts::ZERO).expect("bench policy instantiates");
    replay_owte_engine(&mut e, trace, users)
}

/// Replay a trace against the reference evaluator
/// ([`Engine::interpreted`]) — the baseline the compilation speedup
/// (E5/E13) is measured against.
pub fn replay_owte_interpreted(graph: &PolicyGraph, trace: &[Step], users: usize) -> ReplayStats {
    let mut e = Engine::interpreted(graph, Ts::ZERO).expect("bench policy instantiates");
    replay_owte_engine(&mut e, trace, users)
}

/// Replay a trace against an already-configured rule-driven engine (the
/// shared loop behind [`replay_owte`] and [`replay_owte_interpreted`]).
pub fn replay_owte_engine(e: &mut Engine, trace: &[Step], users: usize) -> ReplayStats {
    let mut sessions: Vec<Option<SessionId>> = vec![None; users];
    let mut stats = ReplayStats::default();
    for step in trace {
        match step {
            Step::CreateSession { user } => {
                let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                match e.create_session(u, &[]) {
                    Ok(s) => {
                        sessions[*user] = Some(s);
                        stats.granted += 1;
                    }
                    Err(_) => stats.denied += 1,
                }
            }
            Step::DeleteSession { user } => match sessions[*user].take() {
                Some(s) => {
                    let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                    match e.delete_session(u, s) {
                        Ok(()) => stats.granted += 1,
                        Err(_) => stats.denied += 1,
                    }
                }
                None => stats.skipped += 1,
            },
            Step::AddActiveRole { user, role } => match sessions[*user] {
                Some(s) => {
                    let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                    let r = e.role_id(&enterprise::role_name(*role)).expect("bound");
                    match e.add_active_role(u, s, r) {
                        Ok(()) => stats.granted += 1,
                        Err(_) => stats.denied += 1,
                    }
                }
                None => stats.skipped += 1,
            },
            Step::DropActiveRole { user, role } => match sessions[*user] {
                Some(s) => {
                    let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                    let r = e.role_id(&enterprise::role_name(*role)).expect("bound");
                    match e.drop_active_role(u, s, r) {
                        Ok(()) => stats.granted += 1,
                        Err(_) => stats.denied += 1,
                    }
                }
                None => stats.skipped += 1,
            },
            Step::CheckAccess { user, op, obj } => match sessions[*user] {
                Some(s) => {
                    let (Ok(op), Ok(obj)) = (
                        e.system().op_by_name(&format!("op{op}")),
                        e.system().obj_by_name(&format!("obj{obj}")),
                    ) else {
                        stats.skipped += 1;
                        continue;
                    };
                    if e.check_access(s, op, obj).expect("check runs") {
                        stats.allowed += 1;
                    } else {
                        stats.denied += 1;
                    }
                }
                None => stats.skipped += 1,
            },
            Step::Advance { secs } => {
                e.advance(Dur::from_secs(*secs)).expect("monotonic");
            }
            Step::SetContext { zone } => {
                e.set_context("zone", enterprise::ZONES[*zone])
                    .expect("dispatches");
            }
        }
    }
    stats
}

/// Replay the same trace against the direct baseline.
pub fn replay_direct(graph: &PolicyGraph, trace: &[Step], users: usize) -> ReplayStats {
    let mut e = DirectEngine::from_policy(graph, Ts::ZERO).expect("bench policy instantiates");
    let mut sessions: Vec<Option<SessionId>> = vec![None; users];
    let mut stats = ReplayStats::default();
    for step in trace {
        match step {
            Step::CreateSession { user } => {
                let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                match e.create_session(u, &[]) {
                    Ok(s) => {
                        sessions[*user] = Some(s);
                        stats.granted += 1;
                    }
                    Err(_) => stats.denied += 1,
                }
            }
            Step::DeleteSession { user } => match sessions[*user].take() {
                Some(s) => {
                    let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                    match e.delete_session(u, s) {
                        Ok(()) => stats.granted += 1,
                        Err(_) => stats.denied += 1,
                    }
                }
                None => stats.skipped += 1,
            },
            Step::AddActiveRole { user, role } => match sessions[*user] {
                Some(s) => {
                    let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                    let r = e.role_id(&enterprise::role_name(*role)).expect("bound");
                    match e.add_active_role(u, s, r) {
                        Ok(()) => stats.granted += 1,
                        Err(_) => stats.denied += 1,
                    }
                }
                None => stats.skipped += 1,
            },
            Step::DropActiveRole { user, role } => match sessions[*user] {
                Some(s) => {
                    let u = e.user_id(&enterprise::user_name(*user)).expect("bound");
                    let r = e.role_id(&enterprise::role_name(*role)).expect("bound");
                    match e.drop_active_role(u, s, r) {
                        Ok(()) => stats.granted += 1,
                        Err(_) => stats.denied += 1,
                    }
                }
                None => stats.skipped += 1,
            },
            Step::CheckAccess { user, op, obj } => match sessions[*user] {
                Some(s) => {
                    let (Ok(op), Ok(obj)) = (
                        e.sys.op_by_name(&format!("op{op}")),
                        e.sys.obj_by_name(&format!("obj{obj}")),
                    ) else {
                        stats.skipped += 1;
                        continue;
                    };
                    if e.check_access(s, op, obj).expect("check runs") {
                        stats.allowed += 1;
                    } else {
                        stats.denied += 1;
                    }
                }
                None => stats.skipped += 1,
            },
            Step::Advance { secs } => {
                e.advance(Dur::from_secs(*secs)).expect("monotonic");
            }
            Step::SetContext { zone } => {
                e.set_context("zone", enterprise::ZONES[*zone]);
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{generate_enterprise, generate_trace, EnterpriseSpec, TraceSpec};

    #[test]
    fn replays_agree_on_every_counter() {
        let spec = EnterpriseSpec::sized(20);
        let graph = generate_enterprise(&spec, 9);
        let trace = generate_trace(
            &TraceSpec {
                steps: 500,
                users: spec.users,
                roles: spec.roles,
                objects: spec.permissions,
                ..TraceSpec::default()
            },
            9,
        );
        let a = replay_owte(&graph, &trace, spec.users);
        let b = replay_direct(&graph, &trace, spec.users);
        let c = replay_owte_interpreted(&graph, &trace, spec.users);
        assert_eq!(a, b, "both engines must count identically");
        assert_eq!(a, c, "compiled and interpreted replays must agree");
        assert!(a.granted + a.denied + a.allowed > 0, "trace did real work");
    }
}
