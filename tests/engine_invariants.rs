//! Safety invariants of the *rule-driven* engine: no sequence of public
//! operations (including clock advances that fire temporal rules, context
//! changes, and policy regeneration) may leave the monitor in a state that
//! violates SoD, hierarchy, session or temporal invariants.

mod support;

use owte_core::{Engine, JournalOp, Outcome};
use snoop::{Dur, Ts};
use workload::{generate_enterprise, generate_trace, Client, EnterpriseSpec, TraceSpec};

fn check_invariants(e: &Engine) {
    let sys = e.system();
    // SSD over authorized roles.
    for id in sys.all_ssd_sets() {
        let (name, roles, n) = sys.ssd_set_info(id).unwrap();
        for u in sys.all_users() {
            let auth = sys.authorized_roles(u).unwrap();
            assert!(
                auth.intersection(&roles).count() < n,
                "SSD `{name}` violated for {u}"
            );
        }
    }
    // DSD over per-session active sets.
    for id in sys.all_dsd_sets() {
        let (name, roles, n) = sys.dsd_set_info(id).unwrap();
        for s in sys.all_sessions() {
            let active = sys.session_roles(s).unwrap();
            assert!(
                active.intersection(&roles).count() < n,
                "DSD `{name}` violated in {s}"
            );
        }
    }
    // Sessions only contain authorized roles of their owner.
    for s in sys.all_sessions() {
        let owner = sys.session_user(s).unwrap();
        for &r in &sys.session_roles(s).unwrap() {
            assert!(sys.is_authorized(owner, r).unwrap());
        }
    }
    // Temporal: a role with an enabling window must have the enabled flag
    // the window dictates (the calendar rules keep them in sync at all
    // observation points).
    for (name, id) in e.binding().roles.iter() {
        let node = e.policy().role_node(name).expect("policy role");
        if let Some(w) = &node.enabling {
            // Only check when no manual disable/enable has raced the
            // window: the generated policies never issue those, so the flag
            // must track the window exactly.
            let expected = gtrbac::PeriodicWindow::daily(w.start_h, w.start_m, w.end_h, w.end_m)
                .contains(e.now());
            assert_eq!(
                sys.is_enabled(*id).unwrap(),
                expected,
                "role {name} enabled flag diverged from its window at {}",
                e.now()
            );
        }
        // Δ-bounded roles: no activation may outlive its Δ. We can't see
        // activation ages directly, but after a long advance with no
        // intervening activations every Δ-bounded role must be inactive —
        // checked by the dedicated step below.
    }
}

/// Totals over every case, for the non-vacuity floors.
#[derive(Debug, Default)]
struct Reached {
    granted: usize,
    denied: usize,
    /// Δ-bounded roles checked inactive after the quiet period.
    delta_roles: usize,
}

#[test]
fn rule_driven_engine_preserves_invariants() {
    let Some(seen) = support::cases(
        "rule_driven_engine_preserves_invariants",
        16,
        |rng, seen: &mut Reached| {
            let spec = EnterpriseSpec {
                roles: 10,
                users: 12,
                permissions: 12,
                hierarchy_density: 0.5,
                ssd_pairs: 2,
                dsd_pairs: 2,
                capped_fraction: 0.3,
                temporal_fraction: 0.3,
                duration_fraction: 0.3,
                context_fraction: 0.3,
                ..EnterpriseSpec::default()
            };
            let graph = generate_enterprise(&spec, rng.below(300) as u64);
            let trace = generate_trace(
                &TraceSpec {
                    steps: 120,
                    users: spec.users,
                    roles: spec.roles,
                    objects: spec.permissions,
                    w_context: 5,
                    ..TraceSpec::default()
                },
                rng.below(300) as u64,
            );
            let mut e = Engine::from_policy(&graph, Ts::ZERO).unwrap();
            let mut client = Client::new(spec.users);
            check_invariants(&e);
            for step in &trace {
                if let Some(op) = client.resolve(step, e.system(), e.now()) {
                    let answer = e.submit(&op);
                    match op {
                        JournalOp::AddActiveRole { .. } | JournalOp::CheckAccess { .. } => {
                            match answer {
                                Ok(Outcome::Done | Outcome::Access(true)) => seen.granted += 1,
                                _ => seen.denied += 1,
                            }
                        }
                        JournalOp::AdvanceTo { .. } | JournalOp::SetContext { .. } => {
                            assert!(answer.is_ok(), "{op:?}: {answer:?}");
                        }
                        _ => {}
                    }
                    client.record(step, answer.ok());
                }
                check_invariants(&e);
            }
            // Final: after a Δ-long quiet period every duration-bounded role
            // is fully deactivated by the DELTA rules.
            e.advance(Dur::from_hours(5)).unwrap();
            for (name, id) in e.binding().roles.iter() {
                let node = e.policy().role_node(name).expect("policy role");
                if node.max_activation.is_some() {
                    assert_eq!(
                        e.system().active_users_of_role(*id).unwrap(),
                        0,
                        "Δ-bounded role {name} still active after quiet period"
                    );
                    seen.delta_roles += 1;
                }
            }
        },
    ) else {
        return;
    };
    println!("{seen:?}");
    assert!(
        seen.granted > 0 && seen.denied > 0 && seen.delta_roles > 0,
        "{seen:?}"
    );
}
