//! Property test: the rule-driven OWTE engine and the hard-coded direct
//! baseline make **identical decisions** on random enterprises and
//! policy-aware traces — the paper's flexibility does not change semantics.
//!
//! Every case runs down the whole refinement ladder (`support::ladder`),
//! whose rung 2 (`Engine::interpreted`) is held against rung 1
//! (`DirectEngine`) on the answer, sessions, active roles and enabled flags
//! after every step. This suite sends down the four fixed enterprise
//! shapes and random enterprises twice the size of the ladder's headline
//! property.

mod support;

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
fn equivalence_on_flat_core_rbac() {
    run_equivalence(ladder::flat_core(), 1, 1, 400);
}

#[test]
fn equivalence_with_hierarchy_and_sod() {
    let seen = run_equivalence(ladder::hierarchy_and_sod(), 2, 2, 400);
    assert!(seen.activations_refused > 0, "{seen:?}");
}

#[test]
fn equivalence_with_caps_and_temporal() {
    let seen = run_equivalence(ladder::caps_and_temporal(), 3, 3, 400);
    assert!(seen.quiet_delta_roles > 0, "{seen:?}");
}

#[test]
fn equivalence_with_context_constraints() {
    let seen = run_equivalence(ladder::context_constraints(), 4, 4, 400);
    let ctx = seen.families.get("CTX").copied().unwrap_or_default();
    assert!(ctx[0] + ctx[1] > 0, "{seen:?}");
}

/// Arbitrary enterprise shape of up to 39 roles, policy-aware trace —
/// identical decisions and identical state on every rung.
#[test]
fn owte_equals_direct() {
    let Some(seen) = support::cases("owte_equals_direct", 8, |rng, seen| {
        let spec = support::enterprise_spec(rng, 40);
        let (ent_seed, trace_seed) = (rng.below(1000) as u64, rng.below(1000) as u64);
        ladder::run(generate_enterprise(&spec, ent_seed), 300, trace_seed, seen);
    }) else {
        return;
    };
    println!("{seen:?}");
    assert!(
        seen.checks_granted > 0 && seen.checks_denied > 0,
        "{seen:?}"
    );
    assert!(
        seen.activations_accepted > 0 && seen.activations_refused > 0,
        "{seen:?}"
    );
}
