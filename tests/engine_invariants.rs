//! Safety invariants of the *rule-driven* engine: no sequence of public
//! operations (including clock advances that fire temporal rules and
//! context changes) may leave the monitor in a state that violates SoD,
//! hierarchy, session or temporal invariants.
//!
//! The predicate runs on rung 3 of the refinement ladder
//! (`support::ladder`) after every step, and every case closes with a quiet
//! period longer than any Δ after which no Δ-bounded role is active. This
//! suite sends down enterprises dense in every constraint at once.

mod support;

use support::ladder;
use workload::{generate_enterprise, EnterpriseSpec};

#[test]
fn rule_driven_engine_preserves_invariants() {
    let Some(seen) = support::cases(
        "rule_driven_engine_preserves_invariants",
        16,
        |rng, seen| {
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
            ladder::run(graph, 120, rng.below(300) as u64, seen);
        },
    ) else {
        return;
    };
    println!("{seen:?}");
    let granted = seen.checks_granted + seen.activations_accepted;
    let denied = seen.checks_denied + seen.activations_refused;
    assert!(
        granted > 0 && denied > 0 && seen.quiet_delta_roles > 0,
        "{seen:?}"
    );
}
