//! The compiled plan across policy changes: `Engine::apply_policy` lowers
//! again only the rules the regeneration replaced and carries the others
//! over from the plan it had — and what it ends up with must be, text for
//! text, the plan a from-scratch lowering of the same instantiation gives.
//!
//! The reference is a restored engine: a serde round trip drops the plan
//! (it is derived state) and hands every rule a new `Arc`, so its first
//! `plan_text()` lowers the whole pool with nothing to carry over.
//!
//! Seeded loops, no registry `proptest` needed.

mod support;

use owte_core::{Engine, SplitMix64};
use policy::InstantiateError;
use sentinel::RuleClass;
use snoop::Ts;
use support::edit_role_property;
use workload::{generate_enterprise, EnterpriseSpec};

const SEEDS: u64 = 32;
const CHANGES: usize = 20;

/// The same instantiation, lowered with nothing to carry over.
fn fresh_plan(engine: &Engine) -> Option<String> {
    let json = serde_json::to_string(engine).expect("the engine serializes");
    let mut restored: Engine = serde_json::from_str(&json).expect("and comes back");
    let plan = restored.plan_text();
    assert_eq!(
        restored.plan_rules_lowered(),
        Some(restored.pool().len()),
        "the reference lowers every rule itself"
    );
    plan
}

/// What the loop saw, summed over every seed.
#[derive(Debug, Default)]
struct Seen {
    incremental: usize,
    full_rebuilds: usize,
    rejected: usize,
    /// Rules kept from the previous plan by incremental changes.
    carried: usize,
    /// Rules lowered by incremental changes.
    lowered: usize,
    /// Incremental changes to a Δ: set, changed (`delta_*` retired and
    /// bound again) or withdrawn.
    delta_edits: usize,
    /// Changes applied while a whole rule class stood disabled.
    under_lockdown: usize,
}

#[test]
fn carried_plan_equals_fresh_plan_after_every_policy_change() {
    let mut seen = Seen::default();
    for seed in 0..SEEDS {
        let roles = 10 + (seed % 8) as usize;
        let spec = EnterpriseSpec {
            roles,
            users: roles + 4,
            permissions: roles + 4,
            hierarchy_density: 0.6,
            ssd_pairs: 1,
            dsd_pairs: 2,
            capped_fraction: 0.3,
            temporal_fraction: 0.3,
            duration_fraction: 0.3,
            context_fraction: 0.2,
            ..EnterpriseSpec::default()
        };
        let mut g = generate_enterprise(&spec, seed);
        let mut engine = Engine::from_policy(&g, Ts::ZERO).expect("generated policies instantiate");
        let mut rng = SplitMix64(seed ^ 0x5EED_CA44_1E0F_F5E7);
        let hierarchy_edit_at = rng.below(CHANGES);
        // Rules a class toggle has moved to a new `Arc` since the plan
        // was last lowered.
        let mut toggled = 0;
        for change in 0..CHANGES {
            let at = format!("seed {seed}, change {change}");
            // Toggles in between: a class switched off and on again (every
            // rule of it moves), or left off across the change — active
            // security, which the gate does not mind (enablement is read
            // live, never lowered), or activity control, which leaves
            // every activation unguarded and gets the change refused.
            let mut locked_down = None;
            match rng.below(6) {
                0 => {
                    let class =
                        [RuleClass::ActivityControl, RuleClass::Administrative][rng.below(2)];
                    toggled += engine.disable_rule_class(class);
                    engine.enable_rule_class(class);
                }
                mode @ 1..=3 => {
                    let class = if mode == 3 {
                        RuleClass::ActivityControl
                    } else {
                        RuleClass::ActiveSecurity
                    };
                    toggled += engine.disable_rule_class(class);
                    locked_down = Some(class);
                }
                _ => {}
            }

            let before = g.clone();
            let what = if change == hierarchy_edit_at {
                let top = g.roles[0].name.clone();
                g.role("annex");
                g.inherits(&top, "annex");
                "hierarchy: annex below the first role".to_string()
            } else {
                let mut what = edit_role_property(&mut g, &mut rng);
                while g == before {
                    what = edit_role_property(&mut g, &mut rng);
                }
                what
            };
            let (plan, version) = (engine.plan_text(), engine.state_version());
            match engine.apply_policy(&g) {
                Ok(report) => {
                    let lowered = engine
                        .plan_rules_lowered()
                        .unwrap_or_else(|| panic!("{at} ({what}): the plan is armed"));
                    let total = engine.pool().len();
                    if report.full_rebuild {
                        assert_eq!(lowered, total, "{at} ({what}): every rule is new");
                        seen.full_rebuilds += 1;
                    } else {
                        assert!(
                            lowered <= report.rules_rewritten + toggled,
                            "{at} ({what}): {lowered} rules lowered, {} rewritten, {toggled} toggled",
                            report.rules_rewritten
                        );
                        seen.incremental += 1;
                        seen.lowered += lowered;
                        seen.carried += total - lowered;
                        seen.delta_edits += usize::from(what.contains('Δ'));
                        seen.under_lockdown += usize::from(locked_down.is_some());
                    }
                    toggled = 0;
                }
                Err(InstantiateError::Rejected(_)) => {
                    assert_eq!(
                        locked_down,
                        Some(RuleClass::ActivityControl),
                        "{at} ({what}): refused for no reason"
                    );
                    assert_eq!(
                        (engine.plan_text(), engine.state_version()),
                        (plan, version),
                        "{at} ({what}): a rejected change leaves the plan alone"
                    );
                    g = before;
                    seen.rejected += 1;
                }
                Err(other) => panic!("{at} ({what}): {other}"),
            }
            // Lockdown over first: a restored engine puts its pool before
            // the gate again, which refuses one with activity control off.
            if let Some(class) = locked_down {
                toggled += engine.enable_rule_class(class);
            }
            assert_eq!(engine.plan_text(), fresh_plan(&engine), "{at} ({what})");
        }
    }
    // Not vacuously.
    println!("{seen:?}");
    assert_eq!(seen.full_rebuilds, SEEDS as usize, "{seen:?}");
    assert!(seen.incremental >= SEEDS as usize * CHANGES / 2, "{seen:?}");
    assert!(seen.rejected >= 50, "{seen:?}");
    assert!(seen.carried > 2 * seen.lowered, "{seen:?}");
    assert!(seen.lowered > seen.incremental, "{seen:?}");
    assert!(seen.delta_edits >= 100, "{seen:?}");
    assert!(seen.under_lockdown >= 100, "{seen:?}");
}
