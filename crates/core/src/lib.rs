//! # owte-core — the OWTE access-control engine
//!
//! The paper's contribution assembled over the substrates:
//!
//! * [`engine::Engine`] — the rule-driven engine: a high-level policy
//!   ([`policy::PolicyGraph`]) is instantiated into the `rbac` monitor, an
//!   event graph (`snoop`) and a generated OWTE rule pool (`sentinel`);
//!   every RBAC operation is then raised as an event and enforced by the
//!   rules, with denials feeding the active-security rules;
//! * [`baseline::DirectEngine`] — the conventional hard-coded comparator
//!   (same policy, same monitor, no rules), used as benchmark baseline and
//!   as the semantic oracle in equivalence property tests;
//! * [`bridge::BridgeView`] — the [`sentinel::AuthState`] implementation
//!   resolving generated rule conditions against the monitor, temporal
//!   policies, privacy state and denial history;
//! * [`privacy::PrivacyState`] — privacy-aware RBAC (purposes, purpose
//!   hierarchies, object policies);
//! * [`snapshot::AuthSnapshot`] — the lock-free read path: an immutable,
//!   structurally-verified capture of the `checkAccess` decision state,
//!   published per write epoch by [`shared::SharedEngine`] so grants can
//!   be answered without the engine mutex;
//! * [`durable::DurableEngine`] — the crash-tolerant engine: a
//!   write-ahead journal ([`wal::Wal`]) of checksummed frames over a
//!   pluggable [`storage::Storage`] backend, with snapshot recovery and a
//!   deterministic fault injector ([`storage::FaultyStorage`]) for
//!   crash-consistency testing.
//!
//! One request type runs end to end: a [`JournalOp`] is an ANSI RBAC
//! function (or a clock, context or raw event) raised by a client, and
//! every engine runs it through one `submit` — [`Engine::submit`],
//! [`DirectEngine::submit`] and [`DurableEngine::submit`], which journals
//! it before applying — answering with an [`Outcome`]. [`replay`] rebuilds
//! an engine from a request history.
//!
//! ```
//! use owte_core::Engine;
//! use policy::PolicyGraph;
//! use snoop::Ts;
//!
//! let mut graph = PolicyGraph::enterprise_xyz();
//! graph.user("alice");
//! graph.assign("alice", "PM");
//!
//! let mut engine = Engine::from_policy(&graph, Ts::ZERO).unwrap();
//! let alice = engine.user_id("alice").unwrap();
//! let pm = engine.role_id("PM").unwrap();
//! let session = engine.create_session(alice, &[pm]).unwrap();
//!
//! let create = engine.system().op_by_name("create").unwrap();
//! let po = engine.system().obj_by_name("purchase_order").unwrap();
//! assert!(engine.check_access(session, create, po).unwrap());
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod bridge;
pub mod cast;
pub mod context;
pub mod durable;
pub mod engine;
pub mod journal;
pub mod privacy;
pub mod shared;
pub mod snapshot;
pub mod storage;
pub mod wal;

pub use baseline::DirectEngine;
pub use bridge::BridgeView;
pub use cast::checked_index;
pub use context::ContextState;
pub use durable::{DurableConfig, DurableEngine, DurableError, RecoveryStats};
pub use engine::{state_diff, Engine, EngineError};
pub use journal::{replay, JournalOp, Outcome};
pub use privacy::{ObjectPolicy, PrivacyState, PurposeId};
pub use shared::SharedEngine;
pub use snapshot::{AuthSnapshot, PolicyView};
pub use storage::{
    FaultKind, FaultPlan, FaultyStorage, FileStorage, MemStorage, Scripted, ScriptedFault,
    SplitMix64, Storage, StorageError,
};
pub use wal::{Recovered, Wal, WalConfig, WalError, WAL_VERSION};
