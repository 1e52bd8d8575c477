//! Wire protocol shared by coordinators, wrappers, hosts, and clients:
//! message kinds, node naming, instance ids, and notification payloads.

use selfserv_expr::Value;
use selfserv_net::{Endpoint, Transport, TransportHandle};
use selfserv_wsdl::{MessageDoc, MessageKind};
use selfserv_xml::Element;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A long-lived anonymous client identity: one connected endpoint kept
/// alive for its owner's lifetime. Rpc replies demultiplex at the held
/// endpoint, so any number of concurrent calls share it with no per-call
/// endpoint, listener, or thread.
///
/// The endpoint is connected lazily on first use, so owners whose callers
/// only ever supply their own endpoints (e.g. `execute_from`) never pay
/// for it — an anonymous connect costs a mailbox and a directory binding,
/// and it adds a `~` node to metrics.
pub(crate) struct PersistentClient {
    net: TransportHandle,
    prefix: String,
    endpoint: OnceLock<Endpoint>,
}

impl PersistentClient {
    /// A client that will connect as `prefix~<n>` on `net` when first
    /// used.
    pub(crate) fn new(net: &dyn Transport, prefix: impl Into<String>) -> Self {
        PersistentClient {
            net: net.handle(),
            prefix: prefix.into(),
            endpoint: OnceLock::new(),
        }
    }

    /// The endpoint that sends, rpcs and collects as this client
    /// (connecting it on first call). Fire-and-collect replies —
    /// correlated responses to plain `send`s, which the reply demux passes
    /// through because no rpc registered their ids — queue on its mailbox.
    pub(crate) fn endpoint(&self) -> &Endpoint {
        self.endpoint
            .get_or_init(|| self.net.connect_anonymous(&self.prefix))
    }
}

/// Message kinds of the execution protocol.
///
/// None of them stops a node: a component stops only through its handle
/// (a runtime stop event), so no peer can stop another by sending it a
/// frame.
pub mod kinds {
    /// Completion/start notification between peers (coordinators and the
    /// wrapper).
    pub const NOTIFY: &str = "coord.notify";
    /// Instance fault report to the wrapper.
    pub const FAULT: &str = "coord.fault";
    /// Per-instance state cleanup from the wrapper: after a success to
    /// the coordinators whose precondition awaits an event or has a
    /// receiver-side condition (they may hold a label the instance never
    /// consumed), after a fault or abandonment to every coordinator.
    /// Other coordinators free a finished instance's slot on their own.
    pub const CLEANUP: &str = "coord.cleanup";
    /// Service invocation request to a [`crate::ServiceHost`] (also the
    /// community member protocol).
    pub const INVOKE: &str = "invoke";
    /// Service invocation reply.
    pub const INVOKE_RESULT: &str = "invoke.result";
    /// Client request to execute a composite operation.
    pub const EXECUTE: &str = "wrapper.execute";
    /// Composite execution reply.
    pub const EXECUTE_RESULT: &str = "wrapper.result";
    /// External ECA event injection.
    pub const RAISE_EVENT: &str = "wrapper.event";
}

/// Node naming conventions: one composite's actors live under a common
/// prefix so metrics can attribute load per component.
pub mod naming {
    use selfserv_net::NodeId;
    use selfserv_statechart::StateId;

    /// Node of the composite wrapper.
    pub fn wrapper(composite: &str) -> NodeId {
        NodeId::new(format!("{}.wrapper", slug(composite)))
    }

    /// Node of the coordinator for `state`.
    pub fn coordinator(composite: &str, state: &StateId) -> NodeId {
        NodeId::new(format!("{}.coord.{}", slug(composite), state))
    }

    /// Node of the centralized engine baseline.
    pub fn central(composite: &str) -> NodeId {
        NodeId::new(format!("{}.central", slug(composite)))
    }

    /// Node of an elementary service host.
    pub fn service_host(service: &str) -> NodeId {
        NodeId::new(format!("svc.{}", slug(service)))
    }

    /// Node of a community.
    pub fn community(name: &str) -> NodeId {
        NodeId::new(format!("community.{}", slug(name)))
    }

    /// Node of the `index`-th replica of a community. Replica 0 is the
    /// community's canonical node (so a single-replica deployment is
    /// byte-identical to the unreplicated one); further replicas append
    /// an `.rN` suffix. Deployers probe these names in order to discover
    /// how many replicas a community is running.
    pub fn community_replica(name: &str, index: usize) -> NodeId {
        if index == 0 {
            community(name)
        } else {
            NodeId::new(format!("community.{}.r{index}", slug(name)))
        }
    }

    /// Lowercase, space-free identifier for node names.
    pub fn slug(s: &str) -> String {
        s.chars()
            .map(|c| {
                if c.is_alphanumeric() || c == '.' || c == '-' {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    }
}

/// Identifier of one execution (case) of a composite service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl InstanceId {
    /// Parses the `i<N>` form.
    pub fn decode(s: &str) -> Result<Self, String> {
        let digits = s
            .strip_prefix('i')
            .ok_or_else(|| format!("bad instance id {s:?}"))?;
        Ok(InstanceId(
            digits
                .parse()
                .map_err(|e| format!("bad instance id {s:?}: {e}"))?,
        ))
    }
}

/// Errors surfaced to composite-service callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The composite faulted (component failure, stalled guard, etc.).
    Fault(String),
    /// The execution did not finish within the caller's deadline.
    Timeout,
    /// The wrapper (or fabric) could not be reached.
    Unreachable(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Fault(m) => write!(f, "composite execution faulted: {m}"),
            ExecError::Timeout => write!(f, "composite execution timed out"),
            ExecError::Unreachable(m) => write!(f, "composite service unreachable: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The payload of a [`kinds::NOTIFY`] message: label + instance + the
/// sender's current variable set.
#[derive(Debug, Clone, PartialEq)]
pub struct NotifyPayload {
    /// Encoded notification label.
    pub label: String,
    /// The instance this notification belongs to.
    pub instance: InstanceId,
    /// Variables at the sender (receivers merge).
    pub vars: BTreeMap<String, Value>,
}

impl NotifyPayload {
    /// XML form.
    pub fn to_xml(&self) -> Element {
        Self::encode(&self.label, self.instance, &self.vars)
    }

    /// The XML form of the notification `label` for `instance` carrying
    /// `vars`, encoded from the borrowed variables: a sender notifying
    /// several targets copies its variables only into each document.
    pub fn encode(label: &str, instance: InstanceId, vars: &BTreeMap<String, Value>) -> Element {
        Element::new("notification")
            .with_attr("label", label)
            .with_attr("instance", instance.to_string())
            .with_child(MessageDoc::params_xml("vars", MessageKind::Request, vars))
    }

    /// Decodes the XML form.
    pub fn from_xml(e: &Element) -> Result<Self, String> {
        if e.name != "notification" {
            return Err(format!("expected <notification>, got <{}>", e.name));
        }
        let vars = match e.find("message") {
            Some(m) => MessageDoc::from_xml(m)
                .map_err(|e| e.to_string())?
                .into_params(),
            None => BTreeMap::new(),
        };
        Ok(NotifyPayload {
            label: e.require_attr("label")?.to_string(),
            instance: InstanceId::decode(e.require_attr("instance")?)?,
            vars,
        })
    }
}

/// Builds the body of a fault report.
pub fn fault_body(instance: InstanceId, state: &str, reason: &str) -> Element {
    Element::new("fault")
        .with_attr("instance", instance.to_string())
        .with_attr("state", state)
        .with_attr("reason", reason)
}

/// Builds the body of a cleanup broadcast.
pub fn cleanup_body(instance: InstanceId) -> Element {
    Element::new("cleanup").with_attr("instance", instance.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_id_round_trip() {
        let id = InstanceId(42);
        assert_eq!(id.to_string(), "i42");
        assert_eq!(InstanceId::decode("i42").unwrap(), id);
        assert!(InstanceId::decode("42").is_err());
        assert!(InstanceId::decode("ix").is_err());
    }

    #[test]
    fn naming_conventions() {
        use selfserv_statechart::StateId;
        assert_eq!(
            naming::wrapper("Travel Planning").as_str(),
            "travel-planning.wrapper"
        );
        assert_eq!(
            naming::coordinator("Travel Planning", &StateId::new("AB")).as_str(),
            "travel-planning.coord.AB"
        );
        assert_eq!(
            naming::service_host("Car Rental").as_str(),
            "svc.car-rental"
        );
        assert_eq!(
            naming::community("AccommodationBooking").as_str(),
            "community.accommodationbooking"
        );
        assert_eq!(naming::central("X").as_str(), "x.central");
    }

    #[test]
    fn notify_payload_round_trip() {
        let mut vars = BTreeMap::new();
        vars.insert("destination".to_string(), Value::str("Sydney"));
        vars.insert("price".to_string(), Value::Float(120.5));
        let p = NotifyPayload {
            label: "done:AB".into(),
            instance: InstanceId(7),
            vars,
        };
        let back = NotifyPayload::from_xml(&p.to_xml()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn notify_payload_without_vars() {
        let p = NotifyPayload {
            label: "start".into(),
            instance: InstanceId(1),
            vars: BTreeMap::new(),
        };
        let back = NotifyPayload::from_xml(&p.to_xml()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn fault_and_cleanup_bodies() {
        let f = fault_body(InstanceId(3), "AB", "no rooms");
        assert_eq!(f.attr("instance"), Some("i3"));
        assert_eq!(f.attr("reason"), Some("no rooms"));
        let c = cleanup_body(InstanceId(3));
        assert_eq!(c.attr("instance"), Some("i3"));
    }

    #[test]
    fn exec_error_display() {
        assert!(ExecError::Fault("x".into()).to_string().contains("x"));
        assert!(ExecError::Timeout.to_string().contains("timed out"));
    }
}
