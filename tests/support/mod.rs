//! Shared by the root suites: the runner every seeded property goes
//! through, the runner that pushes a generated trace through an engine
//! ([`drive`]), the refinement ladder every trace-equivalence suite runs
//! ([`ladder`]), and — for the policy-change suites (`plan_carry_over`,
//! `ladder`) — a seeded generator of the role-property edits
//! `policy::regenerate` applies incrementally. Every stream is a
//! SplitMix64, so a case does not depend on which `rand` is linked.

#![allow(dead_code)] // each suite uses part of this module

pub mod ladder;

use owte_core::{Engine, JournalOp, Outcome, SplitMix64};
use policy::{DailyWindow, PolicyGraph};
use snoop::Dur;
use workload::{Client, EnterpriseSpec, Step};

/// Engine adapter for [`drive`]: the runner turns each trace step into a
/// request, the driver runs it on its engine (or engines, compared
/// lock-step).
pub trait Driver {
    /// Called once per trace step, before the step is resolved. Useful for
    /// stashing replay context (step index + description) for panic
    /// messages; the default does nothing.
    fn on_step(&mut self, _index: usize, _step: &Step) {}

    /// The engine whose names and clock the steps are resolved against.
    fn engine(&self) -> &Engine;

    /// Run `op` and return the answer, `None` for a refusal.
    fn submit(&mut self, op: &JournalOp) -> Option<Outcome>;
}

/// Run `trace` against `driver` through a [`Client`] for `users` users.
///
/// Decisions (grant/deny) are the driver's business — a denied request is
/// still a delivered request. Only the steps the client skips are not
/// submitted: session-scoped steps for users without a session and names
/// the policy does not know.
pub fn drive<D: Driver>(driver: &mut D, trace: &[Step], users: usize) {
    let mut client = Client::new(users);
    for (i, step) in trace.iter().enumerate() {
        driver.on_step(i, step);
        let e = driver.engine();
        let Some(op) = client.resolve(step, e.system(), e.now()) else {
            continue;
        };
        client.record(step, driver.submit(&op));
    }
}

/// Run the property `name` (the name of the calling `#[test]`) on case
/// seeds `0..count`, or on the comma-separated seeds in
/// `OWTE_REPLAY_SEEDS` when that is set. A case draws every parameter from
/// the generator seeded with its case seed; a failing case prints that
/// seed and the command that replays it alone. `T` accumulates what the
/// cases saw, for the caller's non-vacuity floors; a replay returns `None`
/// because floors over the whole set say nothing about one case.
pub fn cases<T: Default>(
    name: &str,
    count: u64,
    mut case: impl FnMut(&mut SplitMix64, &mut T),
) -> Option<T> {
    let replay = std::env::var("OWTE_REPLAY_SEEDS").ok();
    let seeds: Vec<u64> = match &replay {
        Some(raw) => raw
            .split(',')
            .map(|s| s.trim().parse().expect("OWTE_REPLAY_SEEDS: case seeds"))
            .collect(),
        None => (0..count).collect(),
    };
    let mut seen = T::default();
    for seed in seeds {
        let _hint = ReplayHint { name, seed };
        case(&mut SplitMix64(seed), &mut seen);
    }
    replay.is_none().then_some(seen)
}

/// Prints how to replay its case if the case panics.
struct ReplayHint<'a> {
    name: &'a str,
    seed: u64,
}

impl Drop for ReplayHint<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let (name, seed) = (self.name, self.seed);
            eprintln!(
                "{name}: case seed {seed} failed; replay: OWTE_REPLAY_SEEDS={seed} \
                 cargo test --test {} {name} -- --exact --nocapture",
                env!("CARGO_CRATE_NAME")
            );
        }
    }
}

/// A random enterprise shape for the equivalence suites: 4 to
/// `max_roles - 1` roles, five more users and permissions than roles, one
/// SSD and one DSD pair per six roles, any hierarchy density, and up to
/// half of the roles capped, windowed, Δ-bounded or context-constrained.
pub fn enterprise_spec(rng: &mut SplitMix64, max_roles: usize) -> EnterpriseSpec {
    let roles = 4 + rng.below(max_roles - 4);
    EnterpriseSpec {
        roles,
        users: roles + 5,
        permissions: roles + 5,
        hierarchy_density: rng.unit(),
        ssd_pairs: roles / 6,
        dsd_pairs: roles / 6,
        capped_fraction: rng.unit() * 0.5,
        temporal_fraction: rng.unit() * 0.5,
        duration_fraction: rng.unit() * 0.5,
        context_fraction: rng.unit() * 0.5,
        ..EnterpriseSpec::default()
    }
}

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
