//! The refinement ladder: one policy-aware trace runs down every
//! implementation of the engine in lock-step, and each rung is checked
//! against the rung above it after every step.
//!
//! The rungs and what each is held to are in `support::ladder`. This suite
//! holds the headline property over random enterprises, which prints the
//! per-class floors and the rule family × branch table, and a second
//! property that runs rungs 2, 3 and 5 through policy changes.

mod support;

use owte_core::{state_diff, Engine, JournalOp, Outcome, SharedEngine, SplitMix64};
use policy::PolicyGraph;
use snoop::Ts;
use support::ladder::{run, FAMILIES};
use workload::{generate_enterprise, generate_trace, Client};

fn percent(part: usize, of: usize) -> f64 {
    100.0 * part as f64 / of.max(1) as f64
}

/// The headline property: arbitrary enterprise, policy-aware trace, six
/// rungs that answer every step alike.
#[test]
fn every_rung_refines_the_one_above() {
    let Some(seen) = support::cases("every_rung_refines_the_one_above", 24, |rng, seen| {
        let spec = support::enterprise_spec(rng, 20);
        let (ent_seed, trace_seed) = (rng.below(1000) as u64, rng.below(1000) as u64);
        run(generate_enterprise(&spec, ent_seed), 200, trace_seed, seen);
    }) else {
        return;
    };
    let checks = seen.checks_granted + seen.checks_denied;
    let activations = seen.activations_accepted + seen.activations_refused;
    println!(
        "checks granted {} / denied {} ({:.1} % granted), activations accepted {} / refused {} \
         ({:.1} %), session deletes {}, follower grants {}, reopens from a snapshot {}",
        seen.checks_granted,
        seen.checks_denied,
        percent(seen.checks_granted, checks),
        seen.activations_accepted,
        seen.activations_refused,
        percent(seen.activations_accepted, activations),
        seen.session_deletes,
        seen.follower_grants,
        seen.reopens_from_snapshot,
    );
    println!(
        "{:<9} {:>6} {:>6} {:>9}",
        "family", "Then", "Else", "rejected"
    );
    for f in FAMILIES {
        let [then, otherwise, rejected] = seen.families.get(f).copied().unwrap_or_default();
        println!("{f:<9} {then:>6} {otherwise:>6} {rejected:>9}");
    }
    for (what, n) in &seen.rejections {
        println!("action rejected {n}× by {what}");
    }
    let unknown: Vec<_> = seen
        .families
        .keys()
        .filter(|f| !FAMILIES.contains(&f.as_str()))
        .collect();
    assert!(
        unknown.is_empty(),
        "families RULES.md does not name: {unknown:?}"
    );

    assert!(percent(seen.checks_granted, checks) >= 30.0, "{seen:?}");
    assert!(percent(seen.checks_denied, checks) >= 10.0, "{seen:?}");
    assert!(
        percent(seen.activations_accepted, activations) >= 30.0,
        "{seen:?}"
    );
    assert!(seen.session_deletes > 0, "{seen:?}");
    assert!(
        seen.follower_grants > 0 && seen.reopens_from_snapshot > 0,
        "{seen:?}"
    );
    let cell = |f: &str, c: usize| seen.families.get(f).map_or(0, |row| row[c]);
    for f in ["AAR", "CC", "DAR", "DELTA", "CTX", "CA", "DEASSIGN"] {
        assert!(
            cell(f, 0) > 0 && cell(f, 1) > 0,
            "{f} misses a branch: {seen:?}"
        );
    }
    for f in ["ENR", "DISR"] {
        assert!(cell(f, 0) > 0, "{f} never took its Then: {seen:?}");
    }
}

/// What the policy changes of the second property amounted to.
#[derive(Debug, Default)]
struct PolicyChanges {
    incremental: usize,
    full_rebuilds: usize,
    /// Rules the plan engine kept lowered across incremental changes.
    carried: usize,
    /// Checks granted after the first change.
    granted_since: usize,
}

/// Change `graph` under rungs 2, 3 and 5: a role-property edit, or every
/// fifth time a new role under the first one, which rebuilds the whole
/// pool and closes every session.
fn change_policy(
    graph: &mut PolicyGraph,
    rng: &mut SplitMix64,
    rungs: (&mut Engine, &mut Engine, &SharedEngine),
    seen: &mut PolicyChanges,
) {
    let (interp, plan, shared) = rungs;
    let nth = seen.incremental + seen.full_rebuilds;
    if nth % 5 == 4 {
        let top = graph.roles[0].name.clone();
        let annex = format!("annex{nth}");
        graph.role(&annex);
        graph.inherits(&top, &annex);
    } else {
        let before = graph.clone();
        while *graph == before {
            support::edit_role_property(graph, rng);
        }
    }
    let a = interp.apply_policy(graph).unwrap();
    let b = plan.apply_policy(graph).unwrap();
    let c = shared.with(|e| e.apply_policy(graph)).unwrap();
    assert!(
        a == b && b == c,
        "regenerated differently: {a:?} {b:?} {c:?}"
    );
    assert!(plan.compiled_active() && !interp.compiled_active());
    if a.full_rebuild {
        seen.full_rebuilds += 1;
    } else {
        seen.incremental += 1;
        seen.carried += a.total_rules - plan.plan_rules_lowered().expect("armed");
    }
}

/// Policy changes while the trace runs: rungs 2, 3 and 5 answer alike and
/// stay state-equal across every `apply_policy`, whether the plan carried
/// its rules over (role-property edits) or lowered them all again (the
/// hierarchy edits). `DirectEngine` has no `apply_policy`.
#[test]
fn rungs_agree_across_policy_changes() {
    for seed in 0..8u64 {
        let roles = 10 + seed as usize;
        let spec = workload::EnterpriseSpec {
            roles,
            users: roles + 5,
            permissions: roles + 5,
            hierarchy_density: 0.6,
            ssd_pairs: 1,
            dsd_pairs: 2,
            capped_fraction: 0.3,
            temporal_fraction: 0.2,
            duration_fraction: 0.3,
            context_fraction: if seed % 2 == 0 { 0.3 } else { 0.0 },
            ..workload::EnterpriseSpec::default()
        };
        let mut graph = generate_enterprise(&spec, 40 + seed);
        let trace = generate_trace(&graph, 600, 70 + seed);
        let mut interp = Engine::interpreted(&graph, Ts::ZERO).unwrap();
        let mut plan = Engine::from_policy(&graph, Ts::ZERO).unwrap();
        let shared = SharedEngine::new(plan.clone());
        let mut client = Client::new(graph.users.len());
        let mut rng = SplitMix64(40 + seed);
        let mut seen = PolicyChanges::default();
        for (i, step) in trace.iter().enumerate() {
            let at = format!("seed {seed}, step {i} ({step})");
            if i % 30 == 29 {
                let rungs = (&mut interp, &mut plan, &shared);
                change_policy(&mut graph, &mut rng, rungs, &mut seen);
            }
            let Some(op) = client.resolve(step, plan.system(), plan.now()) else {
                continue;
            };
            let a = interp.submit(&op);
            let b = plan.submit(&op);
            assert_eq!(a, b, "{at}: rung 3 vs 2");
            let (fast, _) = shared.read_stats();
            let c = shared.submit(&op);
            assert_eq!(c, b, "{at}: rung 5 vs 3");
            if shared.read_stats().0 > fast {
                assert_eq!(shared.with(|e| e.submit(&op)), c, "{at}: rung 5");
            }
            client.record(step, b.as_ref().ok().copied());
            assert_eq!(state_diff(&plan, &interp), None, "{at}");
            shared.with(|e| assert_eq!(state_diff(e, &plan), None, "{at}"));
            let changed = seen.incremental + seen.full_rebuilds > 0;
            if changed
                && matches!(op, JournalOp::CheckAccess { .. })
                && b == Ok(Outcome::Access(true))
            {
                seen.granted_since += 1;
            }
        }
        assert_eq!(
            (seen.incremental, seen.full_rebuilds),
            (16, 4),
            "seed {seed}: {seen:?}"
        );
        assert!(seen.carried > 16 * roles, "seed {seed}: {seen:?}");
        assert!(seen.granted_since > 50, "seed {seed}: {seen:?}");
    }
}
