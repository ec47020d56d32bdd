//! The typed request entry is the occurrence path.
//!
//! With its plan armed, the engine's request methods — check, add, drop,
//! enable, disable, assign, deassign — hand a request whose event no
//! composite listens to the plan as its typed fields
//! ([`sentinel::Request`]); an event that feeds a composite is still raised
//! through the detector. [`Engine::dispatch`] with a parameter list is the
//! occurrence path every request took before. Here every request runs both
//! ways, on two engines built alike, and after each one they must agree on:
//!
//! - the answer, which the occurrence path's [`sentinel::ExecReport`]
//!   decides the way the engine's methods decide it, and the rest of that
//!   report as the engine keeps it: the audit entries, byte for byte (one
//!   per firing, denial, grant, alert and error), the write epoch (applied
//!   mutations) and the deepest cascade;
//! - the monitor state ([`owte_core::state_diff`]);
//! - the detector's raise and detection counts, and the deadlines of its
//!   pending timers.
//!
//! The policies are the XYZ enterprise with users, a Δ role, a
//! post-condition (CFD) pair and an active-security threshold added, and
//! generated enterprises of 20 and 200 roles with a CFD pair and the same
//! threshold. Each run must show a Δ role's follow-up raise arming its
//! `PLUS` timer, a CFD cascade, a denied check feeding `accessDenied`, and
//! a check on an unknown session.
//!
//! The follow-up raise nothing listens to is only counted by the plan; the
//! last test holds that against the interpreter on a rule that raises one
//! with a parameter its trigger lacks.

use owte_core::{state_diff, Engine, EngineError, SplitMix64};
use policy::{events, PolicyGraph, PostConditionSpec, SecurityAction, SecuritySpec};
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use sentinel::ExecReport;
use snoop::{Dur, Params, Ts};
use workload::{generate_enterprise, EnterpriseSpec};

/// One request of the engine's surface.
#[derive(Debug, Clone, Copy)]
enum Request {
    Check(SessionId, OpId, ObjId),
    Add(UserId, SessionId, RoleId),
    Drop(UserId, SessionId, RoleId),
    Enable(RoleId),
    Disable(RoleId),
    Assign(UserId, RoleId),
    Deassign(UserId, RoleId),
}

/// What a request answered.
#[derive(Debug, PartialEq)]
enum Answer {
    Done,
    Access(bool),
    Denied(Vec<String>),
    Unhandled(String),
    Failed(String),
}

impl From<EngineError> for Answer {
    fn from(e: EngineError) -> Answer {
        match e {
            EngineError::Denied(m) => Answer::Denied(m),
            EngineError::Unhandled(m) => Answer::Unhandled(m),
            other => Answer::Failed(other.to_string()),
        }
    }
}

impl Request {
    /// Through the engine's request method: the typed entry.
    fn typed(self, e: &mut Engine) -> Answer {
        let done = |r: Result<(), EngineError>| r.map_or_else(Answer::from, |()| Answer::Done);
        match self {
            Request::Check(s, op, obj) => e
                .check_access(s, op, obj)
                .map_or_else(Answer::from, Answer::Access),
            Request::Add(u, s, r) => done(e.add_active_role(u, s, r)),
            Request::Drop(u, s, r) => done(e.drop_active_role(u, s, r)),
            Request::Enable(r) => done(e.enable_role(r)),
            Request::Disable(r) => done(e.disable_role(r)),
            Request::Assign(u, r) => done(e.assign_user(u, r)),
            Request::Deassign(u, r) => done(e.deassign_user(u, r)),
        }
    }

    /// The event and the parameter list the request raises, in the order
    /// the engine lists its fields.
    fn occurrence(self, e: &Engine) -> (String, Params) {
        let id = |v: u32| i64::from(v);
        let role = |r: RoleId| e.binding().role_name(r).expect("a bound role").to_string();
        let usr = |u: UserId, s: SessionId, r: RoleId| {
            Params::new()
                .with("user", id(u.0))
                .with("session", id(s.0))
                .with("role", id(r.0))
        };
        let ur = |u: UserId, r: RoleId| Params::new().with("user", id(u.0)).with("role", id(r.0));
        match self {
            Request::Check(s, op, obj) => (
                events::CHECK_ACCESS.to_string(),
                Params::new()
                    .with("session", id(s.0))
                    .with("op", id(op.0))
                    .with("obj", id(obj.0))
                    .with("purpose", -1i64),
            ),
            Request::Add(u, s, r) => (events::add_active(&role(r)), usr(u, s, r)),
            Request::Drop(u, s, r) => (events::drop_active(&role(r)), usr(u, s, r)),
            Request::Enable(r) => (
                events::enable_role(&role(r)),
                Params::new().with("role", id(r.0)),
            ),
            Request::Disable(r) => (
                events::disable_role(&role(r)),
                Params::new().with("role", id(r.0)),
            ),
            Request::Assign(u, r) => (events::ASSIGN_USER.to_string(), ur(u, r)),
            Request::Deassign(u, r) => (events::DEASSIGN_USER.to_string(), ur(u, r)),
        }
    }

    /// Through [`Engine::dispatch`]: the occurrence path, answered from its
    /// report the way the engine's methods answer.
    fn by_name(self, e: &mut Engine) -> Answer {
        let (event, params) = self.occurrence(e);
        let report = match e.dispatch(&event, params) {
            Ok(report) => report,
            Err(err) => return Answer::from(err),
        };
        match self {
            Request::Check(..) if !report.errors.is_empty() => {
                Answer::Unhandled(report.errors.join("; "))
            }
            Request::Check(..) => Answer::Access(report.allows > 0 && !report.denied()),
            _ => granted(report),
        }
    }
}

/// The verdict the engine's mutating methods draw from a report.
fn granted(report: ExecReport) -> Answer {
    if report.denied() {
        Answer::Denied(report.denials)
    } else if !report.errors.is_empty() {
        Answer::Unhandled(report.errors.join("; "))
    } else if report.fired == 0 {
        Answer::Unhandled("no rule handled the request (activity rules disabled?)".into())
    } else {
        Answer::Done
    }
}

/// The first thing two engines differ on, or `None`.
fn difference(typed: &Engine, occ: &Engine) -> Option<String> {
    let audit =
        |e: &Engine| -> Vec<String> { e.log().entries().iter().map(ToString::to_string).collect() };
    let (a, b) = (audit(typed), audit(occ));
    if a != b {
        return Some(format!("audit entries differ:\n{a:#?}\nvs\n{b:#?}"));
    }
    if let Some(d) = state_diff(typed, occ) {
        return Some(d);
    }
    let facts = |e: &Engine| {
        (
            e.event_counts(),
            e.pending_timer_deadlines(),
            e.state_version(),
            e.deepest_cascade(),
            e.alerts().len(),
        )
    };
    (facts(typed) != facts(occ)).then(|| {
        format!(
            "(event counts, timers, epoch, deepest cascade, alerts) differ: {:?} vs {:?}",
            facts(typed),
            facts(occ)
        )
    })
}

/// What one run saw, for the non-vacuity floors.
#[derive(Debug, Default)]
struct Seen {
    requests: usize,
    delta_armed: usize,
    cfd_cascades: usize,
    denials_fed: usize,
    unknown_sessions: usize,
}

/// Add a CFD pair — the first role without an enabling window requires the
/// second — and an alert after three denials within a minute.
fn with_cfd_and_alert(mut g: PolicyGraph) -> (PolicyGraph, String) {
    let free: Vec<String> = g
        .roles
        .iter()
        .filter(|r| r.enabling.is_none())
        .map(|r| r.name.clone())
        .take(2)
        .collect();
    let [role, requires] = [free[0].clone(), free[1].clone()];
    g.post_conditions.push(PostConditionSpec {
        role: role.clone(),
        requires,
    });
    g.security.push(SecuritySpec {
        name: "storm".into(),
        threshold: 3,
        window: Dur::from_secs(60),
        actions: vec![SecurityAction::Alert],
    });
    (g, role)
}

/// XYZ (Figure 1) with a user on each of four roles, a Δ on PC and the two
/// additions of [`with_cfd_and_alert`].
fn xyz() -> (PolicyGraph, String) {
    let mut g = PolicyGraph::enterprise_xyz();
    for (user, role) in [
        ("bob", "PM"),
        ("carol", "PC"),
        ("alice", "AM"),
        ("dave", "Clerk"),
    ] {
        g.user(user);
        g.assign(user, role);
    }
    g.role("PC").max_activation = Some(Dur::from_mins(30));
    with_cfd_and_alert(g)
}

/// Run `steps` random requests both ways on `graph`; `cfd_role` is the
/// role whose enabling cascades.
fn both_ways(graph: &PolicyGraph, cfd_role: &str, seed: u64, steps: usize) -> Seen {
    let mut typed = Engine::from_policy(graph, Ts::ZERO).expect("the policy instantiates");
    assert!(typed.compiled_active(), "the typed entry needs the plan");
    let mut occ = typed.clone();
    let mut rng = SplitMix64(seed);
    let mut seen = Seen::default();
    let users: Vec<UserId> = typed.system().all_users().collect();
    let roles: Vec<RoleId> = typed.system().all_roles().collect();
    let pairs: Vec<(OpId, ObjId)> = typed.system().permission_pairs().map(|(p, _)| p).collect();
    let cfd = typed.role_id(cfd_role).expect("a bound role");
    let mut sessions: Vec<(UserId, SessionId)> = Vec::new();
    for step in 0..steps {
        let pick = |rng: &mut SplitMix64, n: usize| rng.below(n.max(1));
        // Sessions and the clock are not requests: both engines move alike.
        if sessions.len() < 4 || pick(&mut rng, 10) == 0 {
            let user = users[pick(&mut rng, users.len())];
            let a = typed
                .create_session(user, &[])
                .expect("an empty session opens");
            let b = occ
                .create_session(user, &[])
                .expect("an empty session opens");
            assert_eq!(a, b);
            sessions.push((user, a));
        }
        if pick(&mut rng, 12) == 0 {
            let to = typed.now() + Dur::from_mins(1 + pick(&mut rng, 40) as u64);
            let (a, b) = (typed.advance_to(to), occ.advance_to(to));
            assert_eq!(a.map_err(|e| e.to_string()), b.map_err(|e| e.to_string()));
        }
        let (user, session) = sessions[pick(&mut rng, sessions.len())];
        // Mostly a role the user may take, so activations get granted.
        let role = |rng: &mut SplitMix64, typed: &Engine| {
            let authorized: Vec<RoleId> = typed
                .system()
                .authorized_roles(user)
                .map(|set| set.into_iter().collect())
                .unwrap_or_default();
            if !authorized.is_empty() && pick(rng, 4) != 0 {
                authorized[pick(rng, authorized.len())]
            } else {
                roles[pick(rng, roles.len())]
            }
        };
        let request = match pick(&mut rng, 16) {
            0..=4 => {
                let (op, obj) = pairs[pick(&mut rng, pairs.len())];
                let session = if pick(&mut rng, 10) == 0 {
                    seen.unknown_sessions += 1;
                    SessionId(1_000_000)
                } else {
                    session
                };
                Request::Check(session, op, obj)
            }
            5..=8 => Request::Add(user, session, role(&mut rng, &typed)),
            9..=11 => {
                let active: Vec<RoleId> = typed
                    .system()
                    .session_roles(session)
                    .map(|set| set.into_iter().collect())
                    .unwrap_or_default();
                let r = if active.is_empty() {
                    role(&mut rng, &typed)
                } else {
                    active[pick(&mut rng, active.len())]
                };
                Request::Drop(user, session, r)
            }
            12 => Request::Enable(if pick(&mut rng, 2) == 0 {
                cfd
            } else {
                roles[pick(&mut rng, roles.len())]
            }),
            13 => Request::Disable(roles[pick(&mut rng, roles.len())]),
            14 => Request::Assign(user, roles[pick(&mut rng, roles.len())]),
            _ => Request::Deassign(user, roles[pick(&mut rng, roles.len())]),
        };
        let timers = typed.pending_timer_deadlines().len();
        let denials = typed.log().denial_count();
        let a = request.typed(&mut typed);
        let b = request.by_name(&mut occ);
        let at = format!("seed {seed}, step {step}: {request:?}");
        assert_eq!(a, b, "answers differ at {at}");
        if let Some(d) = difference(&typed, &occ) {
            panic!("{at}: {d}");
        }
        seen.requests += 1;
        match (request, &a) {
            (Request::Add(..), Answer::Done) if typed.pending_timer_deadlines().len() > timers => {
                seen.delta_armed += 1;
            }
            (Request::Enable(r), Answer::Done) if r == cfd => seen.cfd_cascades += 1,
            (Request::Check(..), Answer::Access(false)) if typed.log().denial_count() > denials => {
                seen.denials_fed += 1;
            }
            _ => {}
        }
    }
    seen
}

fn floors(seen: &Seen) {
    assert!(
        seen.delta_armed > 0,
        "no activation armed a Δ timer: {seen:?}"
    );
    assert!(seen.cfd_cascades > 0, "no CFD cascade ran: {seen:?}");
    assert!(
        seen.denials_fed > 0,
        "no denied check fed accessDenied: {seen:?}"
    );
    assert!(seen.unknown_sessions > 0, "no unknown session: {seen:?}");
}

#[test]
fn xyz_requests_take_either_path_alike() {
    let (graph, cfd) = xyz();
    floors(&both_ways(&graph, &cfd, 1, 600));
}

#[test]
fn sized_20_requests_take_either_path_alike() {
    for seed in [3, 7] {
        let (graph, cfd) =
            with_cfd_and_alert(generate_enterprise(&EnterpriseSpec::sized(20), seed));
        floors(&both_ways(&graph, &cfd, seed, 800));
    }
}

#[test]
fn sized_200_requests_take_either_path_alike() {
    let (graph, cfd) = with_cfd_and_alert(generate_enterprise(&EnterpriseSpec::sized(200), 5));
    floors(&both_ways(&graph, &cfd, 11, 1500));
}

/// A role without a Δ: its `sessionRoleAdded_Clerk` is raised and nothing
/// listens to it, so the plan only counts that raise. A request that lacks
/// the `role` parameter the raise forwards must fail there with the same
/// engine error, audited alike, as through the interpreter, which raises
/// it through the detector.
const INERT: &str = r#"policy "inert" {
  roles Clerk;
  users bob;
  assign bob -> Clerk;
}"#;

#[test]
fn an_inert_raise_missing_a_parameter_fails_alike() {
    let graph = policy::parse(INERT).expect("the policy parses");
    let mut plan = Engine::from_policy(&graph, Ts::ZERO).unwrap();
    let mut oracle = Engine::interpreted(&graph, Ts::ZERO).unwrap();
    assert!(plan.compiled_active() && !oracle.compiled_active());
    let bob = plan.user_id("bob").unwrap();
    let event = events::add_active("Clerk");
    let mut errors = Vec::new();
    for e in [&mut plan, &mut oracle] {
        let s = e.create_session(bob, &[]).unwrap();
        let params = Params::new()
            .with("user", i64::from(bob.0))
            .with("session", i64::from(s.0));
        let report = e.dispatch(&event, params).unwrap();
        errors.push(report.errors);
    }
    assert_eq!(errors[0], errors[1]);
    assert!(
        errors[0]
            .iter()
            .any(|m| m.ends_with("parameter role missing for raised event sessionRoleAdded_Clerk")),
        "{errors:?}"
    );
    assert_eq!(difference(&plan, &oracle), None);
    assert_eq!(
        plan.event_counts(),
        (1, 1),
        "the failed raise is not counted"
    );

    // The same raise with its parameter: counted, nothing detected, and
    // counted alike through the interpreter.
    let clerk = plan.role_id("Clerk").unwrap();
    for e in [&mut plan, &mut oracle] {
        let s = e.system().all_sessions().next().unwrap();
        e.drop_active_role(bob, s, clerk).unwrap();
        let before = e.event_counts();
        e.add_active_role(bob, s, clerk).unwrap();
        let after = e.event_counts();
        assert_eq!((after.0 - before.0, after.1 - before.1), (2, 1));
    }
    assert_eq!(difference(&plan, &oracle), None);
}
