//! The permission closure every `checkAccess` reads.
//!
//! [`PolicyView`] settles at policy time which role holds which
//! permission: one bit row per role and one index from `(op, obj)` to the
//! permission. The lock-free snapshot read and the CA rule's
//! `SessionHasPermission` condition both decide through
//! [`PolicyView::session_holds`]; the monitor's own `check_access` stays
//! the independent answer. This suite holds the two against each other:
//!
//! * on the XYZ enterprise and on generated ones (`sized(20)` and
//!   `sized(200)`), every role's row is the monitor's permission closure,
//!   and `session_holds` agrees with `check_access` on random questions,
//!   closed sessions, unknown ids and deleted roles included;
//! * along a mixed trace with shift changes and full rebuilds, the
//!   engine's cached view is never stale, and a grant that `apply_policy`
//!   adds or removes decides the very next check, on the engine and on a
//!   fresh `SharedEngine` snapshot.

mod support;

use owte_core::{Engine, JournalOp, Outcome, PolicyView, PrivacyState, SharedEngine, SplitMix64};
use policy::{DailyWindow, PolicyGraph};
use rbac::{ObjId, OpId, PermId, RoleId, SessionId, System};
use snoop::Ts;
use std::collections::{BTreeMap, BTreeSet};
use workload::enterprise::user_name;
use workload::{generate_enterprise, generate_trace, Client, EnterpriseSpec, Step};

/// Questions asked per monitor.
const QUESTIONS: usize = 2_000;

/// Grants and denials over every question asked, for the floors.
#[derive(Default)]
struct Tally {
    granted: usize,
    denied: usize,
}

impl Tally {
    /// At least 30 % grants and at least 10 % denials: a suite where
    /// nearly every answer is the same would pass a view that always
    /// answers it.
    fn assert_floors(&self) {
        let total = (self.granted + self.denied) as f64;
        assert!(
            self.granted as f64 >= 0.3 * total && self.denied as f64 >= 0.1 * total,
            "{} granted, {} denied",
            self.granted,
            self.denied
        );
    }
}

/// The XYZ enterprise with users assigned to each role.
fn xyz() -> PolicyGraph {
    let mut g = PolicyGraph::enterprise_xyz();
    for (user, role) in [
        ("alice", "PM"),
        ("bob", "AC"),
        ("carol", "AM"),
        ("dave", "PC"),
        ("erin", "Clerk"),
    ] {
        g.user(user);
        g.assign(user, role);
    }
    g
}

/// The monitor of `graph`, every role enabled (the rules are not under
/// test here), each user with two sessions that hold about three in four
/// of the roles the monitor lets them activate; every fifth session is
/// closed again and one role is deleted. Returns the monitor and one past the
/// highest session id handed out.
fn populated(graph: &PolicyGraph, rng: &mut SplitMix64) -> (System, u32) {
    let mut sys = policy::instantiate(graph, Ts::ZERO)
        .expect("the policy instantiates")
        .system;
    let roles: Vec<RoleId> = sys.all_roles().collect();
    for &r in &roles {
        sys.enable_role(r).expect("live role");
    }
    let mut opened = Vec::new();
    for u in sys.all_users().collect::<Vec<_>>() {
        for _ in 0..2 {
            let s = sys.create_session(u, &[]).expect("live user");
            for r in sys.authorized_roles(u).expect("live user") {
                if rng.below(4) > 0 {
                    let _ = sys.add_active_role(u, s, r);
                }
            }
            opened.push((u, s));
        }
    }
    for &(u, s) in opened.iter().step_by(5) {
        sys.delete_session(u, s).expect("open");
    }
    sys.delete_role(roles[rng.below(roles.len())])
        .expect("live role");
    let bound = opened.iter().map(|&(_, s)| s.0 + 1).max().unwrap_or(0);
    (sys, bound)
}

/// Every role's row is the monitor's closure, and `session_holds` on the
/// monitor's active sets answers every question as `check_access` does.
fn view_matches_the_monitor(graph: &PolicyGraph, rng: &mut SplitMix64, tally: &mut Tally) {
    let (sys, sessions) = populated(graph, rng);
    let view = PolicyView::build(&sys, &PrivacyState::default());

    let mut pairs: Vec<((OpId, ObjId), PermId)> = sys.permission_pairs().collect();
    pairs.sort_unstable();
    let pair_of: BTreeMap<PermId, (OpId, ObjId)> = pairs.iter().map(|&(k, p)| (p, k)).collect();

    // A role alone reads its own row. Deleted and never-created ids hold
    // nothing; the monitor errs on them.
    let slots = sys.all_roles().last().map_or(0, |r| r.0 + 1);
    let deleted = (0..slots).filter(|&r| sys.role_name(RoleId(r)).is_err());
    assert!(deleted.count() > 0, "no role was deleted");
    for r in (0..slots + 2).map(RoleId) {
        let closure = sys.role_perms_closure(r).unwrap_or_default();
        let alone = BTreeSet::from([r]);
        for &((op, obj), p) in &pairs {
            assert_eq!(
                view.session_holds(&alone, op, obj),
                closure.contains(&p),
                "{r} {p}"
            );
        }
    }

    for _ in 0..QUESTIONS {
        let s = SessionId(rng.below(sessions as usize + 2) as u32);
        let held: Vec<PermId> = sys
            .session_permissions(s)
            .map(|ps| ps.into_iter().collect())
            .unwrap_or_default();
        let (op, obj) = match rng.below(10) {
            0 => (OpId(rng.below(40) as u32), ObjId(rng.below(1000) as u32)),
            1..=7 if !held.is_empty() => pair_of[&held[rng.below(held.len())]],
            _ => pairs[rng.below(pairs.len())].0,
        };
        let monitor = sys.check_access(s, op, obj).unwrap_or(false);
        let view_says = sys
            .sessions()
            .active_roles(s)
            .is_some_and(|active| view.session_holds(active, op, obj));
        assert_eq!(view_says, monitor, "{s} {op} {obj}");
        if monitor {
            tally.granted += 1;
        } else {
            tally.denied += 1;
        }
    }
}

#[test]
fn xyz_view_matches_the_monitor() {
    let Some(tally) = support::cases(
        "xyz_view_matches_the_monitor",
        4,
        |rng, tally: &mut Tally| view_matches_the_monitor(&xyz(), rng, tally),
    ) else {
        return;
    };
    tally.assert_floors();
}

#[test]
fn generated_views_match_the_monitor() {
    let Some(tally) = support::cases(
        "generated_views_match_the_monitor",
        6,
        |rng, tally: &mut Tally| {
            let roles = if rng.below(3) == 0 { 200 } else { 20 };
            let graph = generate_enterprise(&EnterpriseSpec::sized(roles), rng.below(1000) as u64);
            view_matches_the_monitor(&graph, rng, tally);
        },
    ) else {
        return;
    };
    tally.assert_floors();
}

/// The `(op, obj)` a role may be granted that no generated role holds.
const AUDIT: (&str, &str) = ("audit", "ledger");

/// Add or remove the audit grant, on a role of its own held by a user of
/// its own. Either is a change of PA, so a full rebuild.
fn with_audit_grant(graph: &PolicyGraph, granted: bool) -> PolicyGraph {
    let mut g = graph.clone();
    g.role("auditor");
    g.user("auditor");
    g.assign("auditor", "auditor");
    g.permission("audit_ledger", AUDIT.0, AUDIT.1);
    g.grants
        .retain(|(permission, _)| permission != "audit_ledger");
    if granted {
        g.grant("audit_ledger", "auditor");
    }
    g
}

/// Open an auditor session and ask for the audit permission the way a
/// reader does (a fresh snapshot) and the way the locked engine does.
fn audit_decisions(engine: &SharedEngine) -> (bool, bool) {
    let (user, role) = (
        engine.user_id("auditor").expect("in the policy"),
        engine.role_id("auditor").expect("in the policy"),
    );
    let s = engine
        .create_session(user, &[role])
        .expect("a role without constraints activates");
    let (op, obj) = engine.with(|e| {
        let sys = e.system();
        (
            sys.op_by_name(AUDIT.0).expect("interned"),
            sys.obj_by_name(AUDIT.1).expect("interned"),
        )
    });
    let snap = engine.snapshot().expect("published after the write");
    assert_eq!(snap.epoch(), engine.with(|e| e.state_version()));
    assert!(snap.has_fast_path());
    let read = snap.grants(s, op, obj, None);
    let locked = engine
        .with(|e| e.check_access(s, op, obj))
        .expect("the CA rule decides");
    (read, locked)
}

/// Move a windowed role's daily window by an hour: an incremental
/// regeneration (§5's shift change).
fn shift_change(graph: &PolicyGraph, rng: &mut SplitMix64) -> Option<PolicyGraph> {
    let windowed: Vec<String> = graph
        .roles
        .iter()
        .filter(|r| r.enabling.is_some())
        .map(|r| r.name.clone())
        .collect();
    let name = windowed.get(rng.below(windowed.len()))?;
    let mut g = graph.clone();
    let node = g.role(name);
    let w = node.enabling.expect("windowed");
    node.enabling = Some(DailyWindow {
        start_h: (w.start_h + 1) % 24,
        end_h: (w.end_h + 1) % 24,
        ..w
    });
    Some(g)
}

/// One mixed trace through a `SharedEngine` with shift changes and
/// full-rebuild grant changes interleaved; after every step the cached
/// view equals a rebuilt one, and every decision the rules make equals
/// the monitor's.
fn no_stale_view(seed: u64, rng: &mut SplitMix64, applied: &mut BTreeSet<&'static str>) {
    let spec = EnterpriseSpec::sized(20);
    let mut graph = generate_enterprise(&spec, seed);
    let engine = SharedEngine::new(Engine::from_policy(&graph, Ts::ZERO).expect("instantiates"));
    let trace = generate_trace(&graph, 400, seed);
    let mut client = Client::new(spec.users);
    let fresh = |engine: &SharedEngine, at: &str| {
        engine.with(|e| {
            // (Not `assert_eq!`: it would print both views.)
            assert!(
                **e.policy_view() == PolicyView::build(e.system(), e.privacy()),
                "seed {seed}, {at}: cached policy view is stale"
            );
        });
    };
    for (i, blind) in trace.iter().enumerate() {
        // Every third step asks for what a session's owner may activate
        // and then hold, which the blind trace rarely does.
        let informed = if i % 3 == 0 {
            engine.with(|e| informed_steps(e, &client, rng))
        } else {
            Vec::new()
        };
        for step in std::iter::once(blind).chain(&informed) {
            submit(&engine, &mut client, step, i, seed, applied);
        }
        match i {
            120 | 280 => {
                // Grant, then revoke: each is visible to the next check.
                let granted = i == 120;
                graph = with_audit_grant(&graph, granted);
                let report = engine.with(|e| e.apply_policy(&graph)).expect("consistent");
                assert!(report.full_rebuild);
                applied.insert(if granted { "grant" } else { "revoke" });
                fresh(&engine, "after the grant change");
                // A full rebuild closes every session.
                client = Client::new(spec.users);
                assert_eq!(
                    audit_decisions(&engine),
                    (granted, granted),
                    "seed {seed}: (snapshot, engine) after the grant change"
                );
            }
            _ if i % 50 == 25 => {
                if let Some(next) = shift_change(&graph, rng) {
                    let report = engine.with(|e| e.apply_policy(&next)).expect("consistent");
                    assert!(!report.full_rebuild);
                    graph = next;
                    applied.insert("shift change");
                }
            }
            _ => {}
        }
        fresh(&engine, &format!("step {i}"));
    }
}

/// A user holding a session activates a role they are authorized for and
/// asks for a permission of that role.
fn informed_steps(e: &Engine, client: &Client, rng: &mut SplitMix64) -> Vec<Step> {
    let sys = e.system();
    let holders: Vec<usize> = (0..client.sessions().len())
        .filter(|&i| client.sessions()[i].is_some())
        .collect();
    let Some(&user) = holders.get(rng.below(holders.len())) else {
        return Vec::new();
    };
    let Ok(u) = sys.user_by_name(&user_name(user)) else {
        return Vec::new();
    };
    let roles: Vec<RoleId> = sys
        .authorized_roles(u)
        .unwrap_or_default()
        .into_iter()
        .collect();
    let Some(&r) = roles.get(rng.below(roles.len())) else {
        return Vec::new();
    };
    let perms: Vec<PermId> = sys
        .role_perms_closure(r)
        .unwrap_or_default()
        .into_iter()
        .collect();
    let Some(&p) = perms.get(rng.below(perms.len())) else {
        return Vec::new();
    };
    let ((op, obj), _) = sys
        .permission_pairs()
        .find(|&(_, q)| q == p)
        .expect("an interned permission");
    let name = |n: Result<&str, rbac::RbacError>| n.expect("live").to_string();
    vec![
        Step::AddActiveRole {
            user,
            role: name(sys.role_name(r)),
        },
        Step::CheckAccess {
            user,
            op: name(sys.op_name(op)),
            obj: name(sys.obj_name(obj)),
        },
    ]
}

/// Resolve and run one step; a check the rules decide must agree with the
/// monitor.
fn submit(
    engine: &SharedEngine,
    client: &mut Client,
    step: &Step,
    i: usize,
    seed: u64,
    applied: &mut BTreeSet<&'static str>,
) {
    let op = engine.with(|e| client.resolve(step, e.system(), e.now()));
    let Some(op) = op else { return };
    let monitor = match op {
        JournalOp::CheckAccess {
            session, op, obj, ..
        } => engine.with(|e| e.system().check_access(session, op, obj).ok()),
        _ => None,
    };
    let answer = engine.submit(&op).ok();
    if let (Some(expected), Some(Outcome::Access(got))) = (monitor, &answer) {
        assert_eq!(*got, expected, "seed {seed}, step {i}: {step}");
        applied.insert(if *got {
            "granted check"
        } else {
            "denied check"
        });
    }
    client.record(step, answer);
}

#[test]
fn the_engine_never_reads_a_stale_view() {
    let Some(applied) = support::cases(
        "the_engine_never_reads_a_stale_view",
        3,
        |rng, applied: &mut BTreeSet<&'static str>| {
            let seed = rng.below(1000) as u64;
            no_stale_view(seed, rng, applied);
        },
    ) else {
        return;
    };
    for what in [
        "grant",
        "revoke",
        "shift change",
        "granted check",
        "denied check",
    ] {
        assert!(applied.contains(what), "no run took {what}: {applied:?}");
    }
}
