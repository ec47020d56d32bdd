//! # rbac — a reference implementation of the ANSI INCITS 359-2004 standard
//!
//! This crate is the *substrate* the paper's OWTE rules enforce: the NIST
//! RBAC standard's four components (§2 of the paper), exposed as the
//! standard's functional specification.
//!
//! * **Core RBAC** — USERS/ROLES/OPS/OBS/PRMS/SESSIONS, UA and PA,
//!   administrative commands (`add_user`, `assign_user`, `grant_permission`,
//!   …), supporting system functions (`create_session`, `add_active_role`,
//!   `check_access`, …).
//! * **Hierarchical RBAC** — general and limited hierarchies; seniors
//!   acquire junior permissions, juniors acquire senior user membership.
//! * **Static SoD** — named (role-set, cardinality) constraints on user
//!   assignment, hierarchy-aware.
//! * **Dynamic SoD** — named (role-set, cardinality) constraints on the
//!   per-session active role set (the N-of-M rule in the paper's §2).
//!
//! The monitor is passive and purely in-memory: perfect both as the state
//! machine behind the rule-driven engine (`owte-core`) and as the
//! conventional, hard-coded baseline the paper argues against.
//!
//! ```
//! use rbac::System;
//!
//! let mut s = System::new();
//! let bob = s.add_user("bob").unwrap();
//! let clerk = s.add_role("clerk").unwrap();
//! let read = s.add_operation("read").unwrap();
//! let ledger = s.add_object("ledger").unwrap();
//! s.assign_user(bob, clerk).unwrap();
//! s.grant_permission(clerk, read, ledger).unwrap();
//!
//! let session = s.create_session(bob, &[clerk]).unwrap();
//! assert!(s.check_access(session, read, ledger).unwrap());
//! ```

#![warn(missing_docs)]

pub mod core;
pub mod dsd;
pub mod error;
pub mod hierarchy;
pub mod ids;
#[cfg(test)]
mod oracle;
pub mod review;
pub mod sessions;
pub mod ssd;
pub mod system;

pub use error::{RbacError, Result};
pub use ids::{DsdId, ObjId, OpId, PermId, RoleId, SessionId, SsdId, UserId};
pub use sessions::SessionTable;
pub use system::{HierarchyKind, Permission, System};
