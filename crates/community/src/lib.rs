//! # selfserv-community
//!
//! **Service communities**: containers of alternative services.
//!
//! Per the paper (Section 2), communities "provide descriptions of desired
//! services without referring to any actual provider", and at run time a
//! community "delegates [a request] to one of its current members. The
//! choice of the delegatee is based on the parameters of the request, the
//! characteristics of the members, the history of past executions and the
//! status of ongoing executions." This crate implements exactly those four
//! selection inputs:
//!
//! * [`Community`] — membership (join/leave), the generic operations the
//!   community advertises, and delegation;
//! * [`QosProfile`] — static member characteristics (cost, advertised
//!   duration, reliability, reputation);
//! * [`ExecutionHistory`] — EWMA latency and success statistics from past
//!   executions, plus an in-flight (ongoing execution) gauge;
//! * [`SelectionPolicy`] implementations: round-robin, uniform random,
//!   least-loaded, score-based Simple Additive Weighting over QoS
//!   ([`WeightedScoring`]), and [`HistoryAware`] (SAW re-weighted by
//!   observed latency/success);
//! * [`CommunityServer`] — a fabric node that accepts `invoke` requests and
//!   delegates to members either by **proxying** the call or by
//!   **redirecting** the caller to the chosen member's binding.
//! * [`CommunityCall`] — the caller's side of one invocation, as a sans-IO
//!   state machine: replica routing and failover, replica and member
//!   redirects, and the final reply. The coordinator and
//!   [`CommunityClient`] both drive it.

mod call;
mod history;
mod membership;
mod policy;
pub mod replication;
mod server;

pub use call::{CallStep, CommunityCall};
pub use history::{ExecutionHistory, MemberStats, Outcome};
pub use membership::{Community, CommunityError, Member, MemberId, QosProfile};
pub use policy::{
    HistoryAware, LeastLoaded, RandomChoice, RoundRobin, SelectionContext, SelectionPolicy,
    WeightedScoring, Weights,
};
pub use replication::{MemberEntry, MembershipGossip, MembershipState};
pub use server::kinds;
pub use server::{
    CommunityClient, CommunityMetrics, CommunityServer, CommunityServerConfig,
    CommunityServerHandle, DelegationMode, ReplicationConfig,
};

#[cfg(test)]
mod proptests;
