//! Shared by the policy-change suites (`plan_carry_over`,
//! `compiled_equivalence`): a seeded generator of the role-property edits
//! `policy::regenerate` applies incrementally. The stream is a SplitMix64
//! of its own, so a schedule does not depend on which `rand` is linked.

use owte_core::SplitMix64;
use policy::{DailyWindow, PolicyGraph};
use snoop::Dur;

/// Apply one random role-property edit to `g` and say what it was: an
/// enabling window, a cardinality cap, a role-wide Δ or a per-user Δ —
/// set, changed or withdrawn. A changed or withdrawn Δ is where
/// `regenerate` retires a `delta_*` node and binds the name again. The
/// edit may leave `g` as it was (a value drawn equal to the one in force).
pub fn edit_role_property(g: &mut PolicyGraph, rng: &mut SplitMix64) -> String {
    let user = g.users[rng.below(g.users.len())].name.clone();
    let role = rng.below(g.roles.len());
    let node = &mut g.roles[role];
    let withdraw = rng.below(3) == 0;
    let hours = Dur::from_hours(1 + rng.below(4) as u64);
    let what = match rng.below(4) {
        0 => {
            let start_h = 6 + rng.below(5) as u32;
            node.enabling = (!withdraw || node.enabling.is_none()).then_some(DailyWindow {
                start_h,
                start_m: 0,
                end_h: start_h + 8,
                end_m: 0,
            });
            format!("window {:?}", node.enabling)
        }
        1 => {
            node.max_active_users =
                (!withdraw || node.max_active_users.is_none()).then(|| 1 + rng.below(4));
            format!("cap {:?}", node.max_active_users)
        }
        2 => {
            node.max_activation = (!withdraw || node.max_activation.is_none()).then_some(hours);
            format!("Δ {:?}", node.max_activation)
        }
        _ => match node.per_user_activation.keys().next().cloned() {
            Some(held) if withdraw => {
                node.per_user_activation.remove(&held);
                format!("Δ of {held} withdrawn")
            }
            // Half of the time the user who already has one gets another.
            held => {
                let user = held.filter(|_| rng.below(2) == 0).unwrap_or(user);
                node.per_user_activation.insert(user.clone(), hours);
                format!("Δ of {user} {hours:?}")
            }
        },
    };
    format!("{}: {what}", node.name)
}
