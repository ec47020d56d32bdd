//! # snoop — composite event specification and detection
//!
//! A from-scratch reimplementation of the Snoop/SnoopIB event substrate the
//! paper's Sentinel+ prototype is built on (Chakravarthy et al., VLDB '94;
//! Adaikkalavan & Chakravarthy, ADBIS '03). It provides:
//!
//! * **primitive events** — named occurrences of interest raised by the
//!   application (`U → F(PA₁…PAₙ)`), plus absolute/periodic **temporal
//!   events** from calendar expressions in the paper's
//!   `hh:mm:ss/mm/dd/yyyy` notation;
//! * **composite events** over the operator set the paper uses for access
//!   control: `AND`, `OR`, `SEQ`, `NOT`, `PLUS`, `APERIODIC`/`A*`,
//!   `PERIODIC`/`P*`, with interval-based (SnoopIB) occurrence semantics;
//! * the four Snoop **consumption contexts** (Recent, Chronicle, Continuous,
//!   Cumulative) plus Unrestricted;
//! * a **virtual clock** and timer queue, so all temporal behaviour is
//!   deterministic and testable without wall-clock time;
//! * an **event graph** with common-subexpression sharing, so the thousands
//!   of generated authorization rules in a large enterprise share detection
//!   work.
//!
//! ## Example: the paper's Rule 2
//!
//! "Close the file forcefully 2 hours after Bob opens it" is
//! `PLUS(E₁, 2 hours)`:
//!
//! ```
//! use snoop::{Detector, EventExpr, Params, Ts, Dur};
//!
//! let mut d = Detector::new(Ts::ZERO);
//! let e1 = EventExpr::prim("bob_opens_patient_dat");
//! let plus = d.define(&EventExpr::plus(e1, Dur::from_hours(2))).unwrap();
//! d.watch(plus);
//!
//! d.raise_named("bob_opens_patient_dat", Params::new().with("file", "patient.dat")).unwrap();
//! // ... two hours later the composite event fires:
//! let detections = d.advance(Dur::from_hours(2)).unwrap();
//! assert_eq!(detections.len(), 1);
//! assert_eq!(detections[0].occurrence.params.get_str("file"), Some("patient.dat"));
//! ```

#![warn(missing_docs)]
#![allow(clippy::result_large_err)]

pub mod builder;
pub mod calendar;
pub mod context;
pub mod detector;
pub mod event;
pub mod node;
pub mod time;

pub use builder::EventExpr;
pub use calendar::{CalendarExpr, Civil, Field};
pub use context::Context;
pub use detector::{Delivered, Detector, DetectorError};
pub use event::{Detection, EventId, Key, Occurrence, Params, Value};
pub use time::{Dur, Interval, Ts};
