//! # selfserv-net
//!
//! The peer-to-peer message fabric of the SELF-SERV reproduction.
//!
//! In the original platform, "services communicate through XML documents …
//! exchanged through Java sockets". Coordinators, wrappers, communities and
//! the discovery engine are all just nodes exchanging XML envelopes. This
//! crate supplies that substrate behind one seam — the object-safe
//! [`Transport`] trait — with two first-class implementations:
//!
//! * [`Network`] — an **in-process fabric** with named nodes, seeded
//!   latency jitter, partitions, node kills, and a seeded
//!   [`FaultSchedule`] as its one source of random faults (loss, delay,
//!   duplication, reordering): each message's fate is a function of the
//!   schedule's seed and the message's place in its stream, so a run's
//!   faults replay from the seed whichever thread sends first. Per-node
//!   message/byte counters feed the paper's scalability claims
//!   (experiment E4: load on the hottest node under P2P vs. centralised
//!   orchestration).
//! * [`TcpTransport`] — a real **TCP transport** carrying the same
//!   length-prefixed XML envelopes over `std::net` sockets with
//!   persistent per-peer connections, demonstrating that nothing in the
//!   platform depends on the simulation.
//!
//! Platform components hold `&dyn Transport` / [`TransportHandle`] and an
//! [`Endpoint`], never a concrete network type, so the same composite
//! service executes unchanged over either substrate.
//!
//! ## Example
//!
//! ```
//! use selfserv_net::{Network, NetworkConfig};
//! use selfserv_xml::Element;
//!
//! let net = Network::new(NetworkConfig::instant());
//! let a = net.connect("coordinator.a").unwrap();
//! let b = net.connect("coordinator.b").unwrap();
//! a.send("coordinator.b", "notify", Element::new("completed")).unwrap();
//! let env = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
//! assert_eq!(env.kind, "notify");
//! assert_eq!(env.from.as_str(), "coordinator.a");
//! ```

pub mod directory;
mod envelope;
mod fabric;
mod fault;
pub mod gossip;
pub mod lww;
mod lww_laws;
mod metrics;
mod replica;
pub mod tcp;
mod transport;
mod writer;

pub use directory::{
    DirectoryChange, DirectoryEntry, HubId, LivenessEvent, LivenessProbe, PeerClaim, PeerDirectory,
    PeerStatus, LIVENESS_KIND,
};
pub use envelope::{Envelope, MessageId, NodeId};
pub use fabric::{Network, NetworkConfig};
pub use fault::{
    minimize_schedule, ChaosConfig, ChaosController, ChaosTarget, FaultAction, FaultEvent,
    FaultSchedule, KindRule, LatencyModel, NodeEvent, NodeFault,
};
pub use gossip::{GossipPayload, GossipPayloads};
pub use metrics::{
    MetricsSnapshot, NodeMetrics, TransportIoStats, DEPARTED_AGGREGATE, EPHEMERAL_AGGREGATE,
};
pub use replica::ReplicaSet;
pub use tcp::TcpTransport;
pub use transport::{
    ConnectError, Endpoint, NodeSender, RecvError, ReplyDemux, RpcError, SendError, Transport,
    TransportHandle,
};

#[cfg(test)]
mod proptests;
