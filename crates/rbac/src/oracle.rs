//! The sweeps the monitor's derived state replaced, kept as its oracle.
//!
//! After every step of a long seeded run of random monitor operations, the
//! role → holders index, the open-session counter and every junior closure
//! must equal what a walk over the stored state finds — on the system
//! itself and, at intervals, on a `clone()` and on a `serde_json` round
//! trip of it (neither carries the derived state across by itself being
//! right: the clone copies it, the round trip rebuilds it).

use crate::ids::{RoleId, SessionId, UserId};
use crate::system::System;
use std::collections::BTreeSet;

/// Sessions with `r` active, ascending: the sweep `disable_role` used.
fn sessions_holding(sys: &System, r: RoleId) -> Vec<SessionId> {
    sys.all_sessions()
        .filter(|&s| sys.session(s).is_ok_and(|rec| rec.active.contains(&r)))
        .collect()
}

/// Roles below `r`, by a walk over the immediate edges.
fn juniors_by_walk(sys: &System, r: RoleId) -> BTreeSet<RoleId> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![r];
    while let Some(cur) = stack.pop() {
        for j in sys.immediate_juniors(cur).unwrap_or_default() {
            if seen.insert(j) {
                stack.push(j);
            }
        }
    }
    seen
}

/// Every derived value of `sys` equals its from-scratch sweep.
fn assert_matches_sweep(sys: &System, at: &str) {
    assert_eq!(sys.session_count(), sys.all_sessions().count(), "{at}");
    // Deleted role ids included: nothing may stay indexed under them.
    for i in 0..sys.roles.len() {
        let r = RoleId(i as u32);
        let held = sessions_holding(sys, r);
        let users: BTreeSet<UserId> = held
            .iter()
            .map(|&s| sys.session_user(s).expect("open"))
            .collect();
        assert_eq!(sys.sessions.held_in(r), held, "{at}: sessions of {r}");
        assert_eq!(sys.sessions.users_holding(r), users.len(), "{at}: {r}");
        assert_eq!(sys.role_active_anywhere(r), !held.is_empty(), "{at}: {r}");
        for u in 0..sys.users.len() {
            let u = UserId(u as u32);
            assert_eq!(
                sys.user_active_in_role(u, r),
                users.contains(&u),
                "{at}: {u} in {r}"
            );
        }
        if let Ok(rec) = sys.role(r) {
            assert_eq!(
                rec.junior_closure,
                juniors_by_walk(sys, r),
                "{at}: below {r}"
            );
        }
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[self.below(from.len())])
    }
}

/// What a run reached, so that a loop over an empty world cannot pass.
#[derive(Default)]
struct Reached {
    kinds: BTreeSet<&'static str>,
    /// Most role activations in force at once.
    peak_activations: usize,
    /// `disable_role` calls that deactivated the role somewhere.
    disables_with_effect: usize,
    /// Steps after which some user held one role in two sessions.
    shared_holds: usize,
}

/// One random operation; `None` when the world lacks what it needs. Many
/// results are refusals (not assigned, already active, cycle, over a cap):
/// those must leave the derived state as right as successes do.
fn step(sys: &mut System, rng: &mut SplitMix64, reached: &mut Reached) -> Option<&'static str> {
    let users: Vec<UserId> = sys.all_users().collect();
    let roles: Vec<RoleId> = sys.all_roles().collect();
    let sessions: Vec<SessionId> = sys.all_sessions().collect();
    // Mostly a role the user may activate, so that most activations land.
    let role_for = |sys: &System, rng: &mut SplitMix64, u: UserId| {
        let authorized: Vec<RoleId> = sys.authorized_roles(u).ok()?.into_iter().collect();
        if rng.below(4) > 0 {
            rng.pick(&authorized)
        } else {
            rng.pick(&roles)
        }
    };
    let kind = match rng.below(100) {
        0..=9 => {
            let u = rng.pick(&users)?;
            let initial: Vec<RoleId> = (0..rng.below(3))
                .filter_map(|_| role_for(sys, rng, u))
                .collect();
            let _ = sys.create_session(u, &initial);
            "create_session"
        }
        10..=14 => {
            let s = rng.pick(&sessions)?;
            let _ = sys.delete_session(sys.session_user(s).ok()?, s);
            "delete_session"
        }
        15..=44 => {
            let s = rng.pick(&sessions)?;
            let u = sys.session_user(s).ok()?;
            let _ = sys.add_active_role(u, s, role_for(sys, rng, u)?);
            "add_active_role"
        }
        45..=54 => {
            let s = rng.pick(&sessions)?;
            let active: Vec<RoleId> = sys.session_roles(s).ok()?.into_iter().collect();
            let r = rng.pick(&active).or(rng.pick(&roles))?;
            let _ = sys.drop_active_role(sys.session_user(s).ok()?, s, r);
            "drop_active_role"
        }
        55..=58 => {
            let r = rng.pick(&roles)?;
            let deactivate = rng.below(4) > 0;
            let swept = sessions_holding(sys, r);
            let affected = sys.disable_role(r, deactivate).expect("live role");
            assert_eq!(affected, if deactivate { swept } else { Vec::new() });
            reached.disables_with_effect += usize::from(!affected.is_empty());
            "disable_role"
        }
        59..=66 => {
            let _ = sys.enable_role(rng.pick(&roles)?);
            "enable_role"
        }
        67..=78 => {
            let _ = sys.assign_user(rng.pick(&users)?, rng.pick(&roles)?);
            "assign_user"
        }
        79..=81 => {
            let u = rng.pick(&users)?;
            let assigned: Vec<RoleId> = sys.assigned_roles(u).ok()?.into_iter().collect();
            let _ = sys.deassign_user(u, rng.pick(&assigned)?);
            "deassign_user"
        }
        82..=88 => {
            let _ = sys.add_inheritance(rng.pick(&roles)?, rng.pick(&roles)?);
            "add_inheritance"
        }
        89..=91 => {
            let senior = rng.pick(&roles)?;
            let juniors: Vec<RoleId> = sys.immediate_juniors(senior).ok()?.into_iter().collect();
            let _ = sys.delete_inheritance(senior, rng.pick(&juniors)?);
            "delete_inheritance"
        }
        // The world stays between 4 and 9 users and roles: small enough
        // that sessions, assignments and edges keep colliding.
        92..=93 if roles.len() > 4 => {
            let _ = sys.delete_role(rng.pick(&roles)?);
            "delete_role"
        }
        94..=95 if users.len() > 4 => {
            let _ = sys.delete_user(rng.pick(&users)?);
            "delete_user"
        }
        96..=97 if roles.len() < 9 => {
            let r = sys.add_role(&format!("r{}", sys.roles.len())).ok()?;
            if rng.below(3) == 0 {
                let _ = sys.set_role_activation_cap(r, Some(1 + rng.below(2)));
            }
            "add_role"
        }
        _ if users.len() < 9 => {
            let _ = sys.add_user(&format!("u{}", sys.users.len()));
            "add_user"
        }
        _ => return None,
    };
    Some(kind)
}

fn run(seed: u64, steps: usize, reached: &mut Reached) {
    let mut rng = SplitMix64(seed);
    let mut sys = System::new();
    sys.set_enforce_caps(seed & 1 == 0);
    for i in 0..steps {
        let Some(kind) = step(&mut sys, &mut rng, reached) else {
            continue;
        };
        reached.kinds.insert(kind);
        let at = format!("seed {seed}, step {i} ({kind})");
        assert_matches_sweep(&sys, &at);
        if i % 64 == 0 {
            assert_matches_sweep(&sys.clone(), &format!("{at}, cloned"));
            let json = serde_json::to_string(&sys).expect("serializes");
            assert!(!json.contains("junior_closure") && !json.contains("holders"));
            let back: System = serde_json::from_str(&json).expect("reads back");
            assert_matches_sweep(&back, &format!("{at}, read back"));
            assert_eq!(
                serde_json::to_string(&back.roles).unwrap(),
                serde_json::to_string(&sys.roles).unwrap()
            );
        }
        let held: Vec<(UserId, RoleId)> = sys
            .all_sessions()
            .flat_map(|s| {
                let rec = sys.session(s).expect("open");
                rec.active.iter().map(|&r| (rec.user, r))
            })
            .collect();
        let distinct: BTreeSet<_> = held.iter().collect();
        reached.peak_activations = reached.peak_activations.max(held.len());
        reached.shared_holds += usize::from(distinct.len() < held.len());
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "half a minute unoptimized; CI runs it with --release"
)]
fn derived_state_equals_the_sweep_after_every_step() {
    let mut reached = Reached::default();
    for seed in 0..64 {
        run(seed, 2_000, &mut reached);
    }
    assert_eq!(
        reached.kinds.len(),
        14,
        "every kind of step: {:?}",
        reached.kinds
    );
    assert!(
        reached.peak_activations >= 20,
        "{}",
        reached.peak_activations
    );
    assert!(
        reached.disables_with_effect >= 100,
        "{}",
        reached.disables_with_effect
    );
    assert!(reached.shared_holds >= 1_000, "{}", reached.shared_holds);
}

/// The same loop, short enough for an unoptimized `cargo test`.
#[test]
fn derived_state_equals_the_sweep_on_a_short_run() {
    let mut reached = Reached::default();
    for seed in 100..104 {
        run(seed, 400, &mut reached);
    }
    assert!(reached.peak_activations > 0 && reached.disables_with_effect > 0);
}
