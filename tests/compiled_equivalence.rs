//! Property test: the compiled plan (`Engine::from_policy`) and the
//! interpreter (`Engine::interpreted`) are **indistinguishable** — same
//! answers, error texts included, same state, clock and audit trail.
//!
//! Every case runs down the whole refinement ladder (`support::ladder`),
//! whose rung 3 (the plan) is held against rung 2 (the interpreter) with
//! `state_diff` after every step. This suite sends down the four fixed
//! enterprise shapes on their own seeds and random enterprises under
//! traces three times as long as the ladder's headline property. Policy
//! changes under a running plan are `ladder::rungs_agree_across_policy_changes`.

mod support;

use owte_core::Engine;
use snoop::Ts;
use support::ladder::{self, Reached};
use workload::{generate_enterprise, EnterpriseSpec};

fn run_equivalence(spec: EnterpriseSpec, ent_seed: u64, trace_seed: u64, steps: usize) -> Reached {
    let mut seen = Reached::default();
    ladder::run(
        generate_enterprise(&spec, ent_seed),
        steps,
        trace_seed,
        &mut seen,
    );
    assert!(
        seen.checks_granted > 0 && seen.checks_denied > 0,
        "{seen:?}"
    );
    seen
}

#[test]
fn compiled_plan_arms_on_generated_enterprises() {
    for (seed, spec) in [
        ladder::flat_core(),
        ladder::hierarchy_and_sod(),
        ladder::caps_and_temporal(),
        ladder::context_constraints(),
    ]
    .into_iter()
    .enumerate()
    {
        let graph = generate_enterprise(&spec, 1 + seed as u64);
        let e = Engine::from_policy(&graph, Ts::ZERO).unwrap();
        assert!(
            e.compiled_active(),
            "verified generated pools must compile eagerly"
        );
        assert_eq!(
            e.plan_rules_lowered(),
            Some(e.pool().len()),
            "a fresh plan lowers every rule"
        );
    }
}

#[test]
fn compiled_equivalence_on_flat_core_rbac() {
    run_equivalence(ladder::flat_core(), 11, 11, 400);
}

#[test]
fn compiled_equivalence_with_hierarchy_and_sod() {
    let seen = run_equivalence(ladder::hierarchy_and_sod(), 12, 12, 400);
    assert!(seen.activations_refused > 0, "{seen:?}");
}

#[test]
fn compiled_equivalence_with_caps_and_temporal() {
    let seen = run_equivalence(ladder::caps_and_temporal(), 13, 13, 400);
    assert!(seen.quiet_delta_roles > 0, "{seen:?}");
}

#[test]
fn compiled_equivalence_with_context_constraints() {
    let seen = run_equivalence(ladder::context_constraints(), 14, 14, 400);
    let ctx = seen.families.get("CTX").copied().unwrap_or_default();
    assert!(ctx[0] + ctx[1] > 0, "{seen:?}");
}

/// Arbitrary enterprise shape, 600-step policy-aware trace — identical
/// decisions, identical final state, identical audit trail.
#[test]
fn compiled_equals_interpreted() {
    let Some(seen) = support::cases("compiled_equals_interpreted", 8, |rng, seen| {
        let spec = support::enterprise_spec(rng, 20);
        let (ent_seed, trace_seed) = (rng.below(1000) as u64, rng.below(1000) as u64);
        ladder::run(generate_enterprise(&spec, ent_seed), 600, trace_seed, seen);
    }) else {
        return;
    };
    println!("{seen:?}");
    assert!(
        seen.checks_granted > 0 && seen.checks_denied > 0,
        "{seen:?}"
    );
    assert!(seen.reopens_from_snapshot > 0, "{seen:?}");
}
