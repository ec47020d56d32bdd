//! GTRBAC dependency and time-based SoD constraints (§4.3.2 of the paper;
//! Joshi et al., SACMAT '03).
//!
//! Three families the paper enforces with OWTE rules:
//!
//! * **Disabling-time SoD** (Rule 6): two roles from a set cannot be
//!   disabled at the same time inside `(I, P)` — availability ("Nurse and
//!   Doctor cannot both be off").
//! * **Post-condition control-flow dependency** (Rule 8): if role A is
//!   enabled then role B must also be enabled, else neither.
//! * **Prerequisite activation** (Rule 9 / SEQUENCE): a role may be
//!   activated only while another is active ("JuniorEmp only while Manager
//!   is active").
//!
//! The structs here are pure policy data plus check functions; the OWTE
//! generator compiles them into composite events + rules, the baseline
//! engine calls the checks directly.

use crate::periodic::BoundedPeriodic;
use rbac::{RbacError, RoleId, System};
use serde::{Deserialize, Serialize};
use snoop::Ts;
use std::collections::BTreeSet;
use std::fmt;

/// Why a temporal-constraint check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemporalViolation {
    /// Disabling the role would leave ≥ 2 roles of a disabling-time SoD set
    /// disabled inside its window.
    DisablingTimeSod {
        /// The role whose disabling was refused.
        role: RoleId,
        /// The already-disabled conflicting role.
        conflicting: RoleId,
    },
    /// Enabling the role would leave ≥ 2 roles of an enabling-time SoD set
    /// enabled inside its window.
    EnablingTimeSod {
        /// The role whose enabling was refused.
        role: RoleId,
        /// The already-enabled conflicting role.
        conflicting: RoleId,
    },
    /// The required post-condition role could not be enabled.
    PostConditionUnsatisfied {
        /// The trigger role.
        role: RoleId,
        /// The role that must be enabled with it.
        required: RoleId,
    },
    /// The prerequisite role is not active anywhere.
    PrerequisiteNotActive {
        /// The role being activated.
        role: RoleId,
        /// The role that must be active first.
        prerequisite: RoleId,
    },
}

impl fmt::Display for TemporalViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalViolation::DisablingTimeSod { role, conflicting } => write!(
                f,
                "cannot disable {role}: {conflicting} is already disabled in the SoD window"
            ),
            TemporalViolation::EnablingTimeSod { role, conflicting } => write!(
                f,
                "cannot enable {role}: {conflicting} is already enabled in the SoD window"
            ),
            TemporalViolation::PostConditionUnsatisfied { role, required } => {
                write!(
                    f,
                    "cannot enable {role}: required role {required} cannot be enabled"
                )
            }
            TemporalViolation::PrerequisiteNotActive { role, prerequisite } => {
                write!(
                    f,
                    "cannot activate {role}: prerequisite {prerequisite} not active"
                )
            }
        }
    }
}

/// Rule 6: no two roles of `roles` disabled simultaneously within `window`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisablingTimeSod {
    /// Constraint name.
    pub name: String,
    /// The role set RS.
    pub roles: BTreeSet<RoleId>,
    /// The `(I, P)` window in which the constraint applies.
    pub window: BoundedPeriodic,
}

impl DisablingTimeSod {
    /// May `role` be disabled at `t`? Outside the window: always. Inside:
    /// only if every *other* role of the set is still enabled.
    pub fn check_disable(
        &self,
        sys: &System,
        role: RoleId,
        t: Ts,
    ) -> Result<(), TemporalViolation> {
        if !self.roles.contains(&role) || !self.window.contains(t) {
            return Ok(());
        }
        for &other in &self.roles {
            if other == role {
                continue;
            }
            if !sys.is_enabled(other).unwrap_or(true) {
                return Err(TemporalViolation::DisablingTimeSod {
                    role,
                    conflicting: other,
                });
            }
        }
        Ok(())
    }
}

/// The dual of Rule 6: no two roles of `roles` may be *enabled*
/// simultaneously within `window` (GTRBAC's enabling-time SoD — e.g. two
/// mutually suspicious auditor roles must never be usable at once).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnablingTimeSod {
    /// Constraint name.
    pub name: String,
    /// The role set RS.
    pub roles: BTreeSet<RoleId>,
    /// The `(I, P)` window in which the constraint applies.
    pub window: BoundedPeriodic,
}

impl EnablingTimeSod {
    /// May `role` be enabled at `t`? Outside the window: always. Inside:
    /// only if every *other* role of the set is disabled.
    pub fn check_enable(&self, sys: &System, role: RoleId, t: Ts) -> Result<(), TemporalViolation> {
        if !self.roles.contains(&role) || !self.window.contains(t) {
            return Ok(());
        }
        for &other in &self.roles {
            if other == role {
                continue;
            }
            if sys.is_enabled(other).unwrap_or(false) {
                return Err(TemporalViolation::EnablingTimeSod {
                    role,
                    conflicting: other,
                });
            }
        }
        Ok(())
    }
}

/// Rule 8: enabling `role` requires `required` enabled too; failure to
/// enable `required` rolls `role` back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostConditionCfd {
    /// The trigger role (SysAdmin).
    pub role: RoleId,
    /// The role that must accompany it (SysAudit).
    pub required: RoleId,
}

/// Rule 9: `role` may be activated only while `prerequisite` is active in
/// some session; deactivating `prerequisite` deactivates `role`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrerequisiteActivation {
    /// The dependent role (JuniorEmp).
    pub role: RoleId,
    /// The role that must be active first (Manager).
    pub prerequisite: RoleId,
}

impl PrerequisiteActivation {
    /// May `role` be activated now?
    pub fn check_activate(&self, sys: &System, role: RoleId) -> Result<(), TemporalViolation> {
        if role != self.role {
            return Ok(());
        }
        if sys.role_active_anywhere(self.prerequisite) {
            Ok(())
        } else {
            Err(TemporalViolation::PrerequisiteNotActive {
                role,
                prerequisite: self.prerequisite,
            })
        }
    }
}

/// All temporal constraints of a policy.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TemporalConstraints {
    /// Disabling-time SoD sets.
    pub disabling_sod: Vec<DisablingTimeSod>,
    /// Enabling-time SoD sets.
    pub enabling_sod: Vec<EnablingTimeSod>,
    /// Post-condition CFD pairs.
    pub post_conditions: Vec<PostConditionCfd>,
    /// Prerequisite-activation pairs.
    pub prerequisites: Vec<PrerequisiteActivation>,
}

impl TemporalConstraints {
    /// No constraints.
    pub fn new() -> TemporalConstraints {
        TemporalConstraints::default()
    }

    /// Check every disabling-time SoD before disabling `role` at `t`.
    pub fn check_disable(
        &self,
        sys: &System,
        role: RoleId,
        t: Ts,
    ) -> Result<(), TemporalViolation> {
        for c in &self.disabling_sod {
            c.check_disable(sys, role, t)?;
        }
        Ok(())
    }

    /// Check every enabling-time SoD before enabling `role` at `t`.
    pub fn check_enable(&self, sys: &System, role: RoleId, t: Ts) -> Result<(), TemporalViolation> {
        for c in &self.enabling_sod {
            c.check_enable(sys, role, t)?;
        }
        Ok(())
    }

    /// Check prerequisite constraints before activating `role`.
    pub fn check_activate(&self, sys: &System, role: RoleId) -> Result<(), TemporalViolation> {
        for c in &self.prerequisites {
            c.check_activate(sys, role)?;
        }
        Ok(())
    }

    /// Enable `role` honouring post-condition CFDs: required roles are
    /// enabled in the same step; if one cannot be enabled, everything is
    /// rolled back (the paper's "otherwise both the roles should not be
    /// enabled").
    pub fn enable_with_post_conditions(
        &self,
        sys: &mut System,
        role: RoleId,
    ) -> Result<Vec<RoleId>, RbacError> {
        let mut enabled = Vec::new();
        let mut stack = vec![role];
        while let Some(r) = stack.pop() {
            if sys.is_enabled(r).unwrap_or(false) {
                continue;
            }
            match sys.enable_role(r) {
                Ok(()) => enabled.push(r),
                Err(e) => {
                    for &u in &enabled {
                        let _ = sys.disable_role(u, false);
                    }
                    return Err(e);
                }
            }
            for pc in &self.post_conditions {
                if pc.role == r {
                    stack.push(pc.required);
                }
            }
        }
        Ok(enabled)
    }

    /// Dependent roles that must be deactivated when `prerequisite` is
    /// deactivated (Rule 9's cascade).
    pub fn dependents_of(&self, prerequisite: RoleId) -> Vec<RoleId> {
        self.prerequisites
            .iter()
            .filter(|p| p.prerequisite == prerequisite)
            .map(|p| p.role)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periodic::PeriodicWindow;
    use snoop::Civil;

    fn hospital() -> (System, RoleId, RoleId) {
        let mut sys = System::new();
        let nurse = sys.add_role("Nurse").unwrap();
        let doctor = sys.add_role("Doctor").unwrap();
        (sys, nurse, doctor)
    }

    fn at(h: u32) -> Ts {
        Civil::new(2000, 1, 5, h, 0, 0).to_ts()
    }

    #[test]
    fn disabling_sod_inside_window() {
        let (mut sys, nurse, doctor) = hospital();
        let c = DisablingTimeSod {
            name: "nurse-doctor".into(),
            roles: [nurse, doctor].into(),
            window: BoundedPeriodic::window(PeriodicWindow::daily(10, 0, 17, 0)),
        };
        // Both enabled: disabling nurse at noon is fine.
        assert!(c.check_disable(&sys, nurse, at(12)).is_ok());
        // Doctor already disabled: nurse refused inside the window...
        sys.disable_role(doctor, false).unwrap();
        assert!(matches!(
            c.check_disable(&sys, nurse, at(12)),
            Err(TemporalViolation::DisablingTimeSod { .. })
        ));
        // ...but allowed outside it.
        assert!(c.check_disable(&sys, nurse, at(20)).is_ok());
        // Roles outside the set are never constrained.
        let other = sys.add_role("Admin").unwrap();
        assert!(c.check_disable(&sys, other, at(12)).is_ok());
    }

    #[test]
    fn enabling_sod_inside_window() {
        let (mut sys, nurse, doctor) = hospital();
        let c = EnablingTimeSod {
            name: "auditors".into(),
            roles: [nurse, doctor].into(),
            window: BoundedPeriodic::window(PeriodicWindow::daily(10, 0, 17, 0)),
        };
        // Both are enabled by default: enabling a disabled one conflicts.
        sys.disable_role(nurse, false).unwrap();
        assert!(matches!(
            c.check_enable(&sys, nurse, at(12)),
            Err(TemporalViolation::EnablingTimeSod { .. })
        ));
        // Outside the window it is fine.
        assert!(c.check_enable(&sys, nurse, at(20)).is_ok());
        // Once the doctor is disabled, the nurse may come up inside it.
        sys.disable_role(doctor, false).unwrap();
        assert!(c.check_enable(&sys, nurse, at(12)).is_ok());
    }

    #[test]
    fn post_condition_enable_cascades() {
        let mut sys = System::new();
        let sysadmin = sys.add_role("SysAdmin").unwrap();
        let sysaudit = sys.add_role("SysAudit").unwrap();
        sys.disable_role(sysadmin, false).unwrap();
        sys.disable_role(sysaudit, false).unwrap();
        let mut tc = TemporalConstraints::new();
        tc.post_conditions.push(PostConditionCfd {
            role: sysadmin,
            required: sysaudit,
        });
        let enabled = tc.enable_with_post_conditions(&mut sys, sysadmin).unwrap();
        assert_eq!(enabled.len(), 2);
        assert!(sys.is_enabled(sysadmin).unwrap());
        assert!(sys.is_enabled(sysaudit).unwrap());
    }

    #[test]
    fn post_condition_rollback_on_failure() {
        let mut sys = System::new();
        let sysadmin = sys.add_role("SysAdmin").unwrap();
        sys.disable_role(sysadmin, false).unwrap();
        let ghost = RoleId(99); // never created → enable fails
        let mut tc = TemporalConstraints::new();
        tc.post_conditions.push(PostConditionCfd {
            role: sysadmin,
            required: ghost,
        });
        assert!(tc.enable_with_post_conditions(&mut sys, sysadmin).is_err());
        assert!(
            !sys.is_enabled(sysadmin).unwrap(),
            "SysAdmin rolled back when SysAudit could not be enabled"
        );
    }

    #[test]
    fn prerequisite_activation() {
        let mut sys = System::new();
        let manager = sys.add_role("Manager").unwrap();
        let junior = sys.add_role("JuniorEmp").unwrap();
        let alice = sys.add_user("alice").unwrap();
        let bob = sys.add_user("bob").unwrap();
        sys.assign_user(alice, manager).unwrap();
        sys.assign_user(bob, junior).unwrap();
        let c = PrerequisiteActivation {
            role: junior,
            prerequisite: manager,
        };
        // No manager active: junior refused.
        assert!(matches!(
            c.check_activate(&sys, junior),
            Err(TemporalViolation::PrerequisiteNotActive { .. })
        ));
        // Manager activates → junior allowed.
        let ms = sys.create_session(alice, &[manager]).unwrap();
        assert!(c.check_activate(&sys, junior).is_ok());
        // Manager deactivates → dependents reported for cascade.
        sys.drop_active_role(alice, ms, manager).unwrap();
        let mut tc = TemporalConstraints::new();
        tc.prerequisites.push(c);
        assert_eq!(tc.dependents_of(manager), vec![junior]);
        assert!(tc.check_activate(&sys, junior).is_err());
    }

    #[test]
    fn violation_messages() {
        let v = TemporalViolation::PrerequisiteNotActive {
            role: RoleId(1),
            prerequisite: RoleId(2),
        };
        assert!(v.to_string().contains("prerequisite"));
    }
}
