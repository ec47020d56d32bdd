//! What a rule reads from the event that triggered it.
//!
//! A rule's conditions and actions read the triggering event's id, its
//! time, its parameters by name and — for `SourceIs` — which primitives
//! contributed to it. Snoop's [`Occurrence`] carries all of that for every
//! kind of event, composites included, at the price of a parameter list
//! built per raise. A request to an event no composite listens to needs
//! none of it: its parameters are the request's own typed fields, and its
//! only source is itself. [`Bindings`] is what the executor needs of
//! either; [`Request`] is the second kind.

use snoop::{EventId, Interval, Occurrence, Params, Ts, Value};
use std::borrow::Cow;
use std::fmt;

/// The triggering event as a rule sees it. Implemented by
/// [`snoop::Occurrence`] and by [`Request`]; the executor is generic over
/// it, with static dispatch.
///
/// `Display` prints the event as error messages and audit entries name
/// it: `{event}@{interval}{params}`, the [`Occurrence`] form, for both.
pub trait Bindings: fmt::Display {
    /// The triggering event.
    fn event(&self) -> EventId;
    /// When it happened (the end of its interval; the evaluation time of
    /// every temporal check).
    fn time(&self) -> Ts;
    /// An integer parameter; `None` when absent or not an integer.
    fn int(&self, name: &str) -> Option<i64>;
    /// A parameter of any type; `None` when absent.
    fn value(&self, name: &str) -> Option<Cow<'_, Value>>;
    /// Did primitive event `id` contribute?
    fn has_source(&self, id: EventId) -> bool;
}

impl Bindings for Occurrence {
    fn event(&self) -> EventId {
        self.event
    }

    fn time(&self) -> Ts {
        self.interval.end
    }

    fn int(&self, name: &str) -> Option<i64> {
        self.params.get_int(name)
    }

    fn value(&self, name: &str) -> Option<Cow<'_, Value>> {
        self.params.get(name).map(Cow::Borrowed)
    }

    fn has_source(&self, id: EventId) -> bool {
        Occurrence::has_source(self, id)
    }
}

/// A request to a primitive event whose only detection is its own
/// occurrence (see [`snoop::Detector::deliver_leaf`]): the event, the
/// instant, and the request's integer fields in the order an occurrence
/// would list them. It binds exactly what that occurrence would.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The requested event.
    pub event: EventId,
    /// The detector's clock when the request arrived.
    pub time: Ts,
    /// The parameters, by name.
    pub fields: &'a [(&'static str, i64)],
}

impl Bindings for Request<'_> {
    fn event(&self) -> EventId {
        self.event
    }

    fn time(&self) -> Ts {
        self.time
    }

    fn int(&self, name: &str) -> Option<i64> {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn value(&self, name: &str) -> Option<Cow<'_, Value>> {
        self.int(name).map(|v| Cow::Owned(Value::Int(v)))
    }

    fn has_source(&self, id: EventId) -> bool {
        id == self.event
    }
}

/// What a request's `fields` become when it is raised through the
/// detector: its occurrence's parameter list, in the same order.
pub fn params_of(fields: &[(&'static str, i64)]) -> Params {
    let mut params = Params::with_capacity(fields.len());
    for &(name, value) in fields {
        params.set(name, value);
    }
    params
}

impl fmt::Display for Request<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}(", self.event, Interval::at(self.time))?;
        for (i, (n, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request binds, and prints, what the occurrence of the same raise
    /// would.
    #[test]
    fn a_request_binds_what_its_occurrence_would() {
        let fields = [("session", 3), ("op", -1), ("obj", 12)];
        let event = EventId(4);
        let time = Ts::from_secs(9);
        let request = Request {
            event,
            time,
            fields: &fields,
        };
        let occ = Occurrence::primitive(event, time, params_of(&fields));
        assert_eq!(request.to_string(), occ.to_string());
        assert_eq!(Bindings::event(&request), Bindings::event(&occ));
        assert_eq!(request.time(), occ.time());
        for name in ["session", "op", "obj", "purpose"] {
            assert_eq!(request.int(name), occ.int(name), "{name}");
            assert_eq!(request.value(name), occ.value(name), "{name}");
        }
        for id in [event, EventId(5)] {
            assert_eq!(Bindings::has_source(&request, id), occ.has_source(id));
        }
        let empty = Request {
            event,
            time,
            fields: &[],
        };
        let bare = Occurrence::primitive(event, time, params_of(&[]));
        assert_eq!(empty.to_string(), bare.to_string());
    }
}
