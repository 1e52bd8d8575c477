//! # selfserv-core
//!
//! The SELF-SERV platform core: everything Figure 1 of the paper shows.
//!
//! * [`ServiceBackend`] / [`SyntheticService`] / [`ServiceHost`] — the
//!   "pool of services": elementary web-accessible applications wrapped so
//!   they answer XML invocation envelopes (the `Wrapper` class of the
//!   original);
//! * [`Coordinator`] — the peer software component attached to each state
//!   of a composite service, driven entirely by its statically generated
//!   routing table ("coordinators do not need to implement any complex
//!   scheduling algorithm");
//! * [`CompositeWrapper`] — the composite service's entry point: starts
//!   instances, collects termination notifications, returns results;
//! * [`Deployer`] — the service deployer: validates the statechart,
//!   generates routing tables (via `selfserv-routing`), uploads them into
//!   coordinators co-located with the component services, and returns a
//!   runnable [`Deployment`];
//! * [`CentralizedOrchestrator`] — the baseline the paper argues against:
//!   a single engine interpreting the statechart and invoking every
//!   component service remotely, so all control traffic converges on one
//!   node;
//! * [`ServiceManager`] — the facade tying the discovery engine, editor
//!   checks, and deployer together.
//!
//! ## Execution model
//!
//! Each coordinator is one fabric node (one mailbox, scheduled on a shared
//! worker pool) running a continuation-passing state machine: firing a
//! state dispatches its work asynchronously and the coordinator resumes
//! when the completion event arrives, so any number of instances can be
//! awaiting backends with zero parked threads. Per instance the old
//! capacity-1 semantics hold — one task in flight at a time, later
//! notifications deferred until the completion. Notifications carry the
//! instance's variables; receivers merge variable sets, which is what
//! makes AND-join guards over cross-region data (the travel scenario's
//! `near(major_attraction, accommodation)`) evaluable without a central
//! blackboard.

mod backend;
mod central;
mod composite_backend;
mod coordinator;
mod deploy;
mod functions;
mod manager;
mod monitor;
mod protocol;
mod wrapper;

pub use backend::{
    EchoService, FailingService, ForwardCall, ServiceBackend, ServiceHost, ServiceHostHandle,
    SyntheticService,
};
pub use central::{CentralConfig, CentralHandle, CentralizedOrchestrator};
pub use composite_backend::CompositeBackend;
pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle, TaskRuntime};
pub use deploy::{Deployer, Deployment, DeploymentError};
pub use functions::{FunctionLibrary, InstanceEnv};
pub use manager::{AccommodationChoice, ServiceManager, TravelDemo, TravelDemoConfig};
pub use monitor::{
    mono_us, ExecutionMonitor, MonitorHandle, MonitorMetrics, MonitorOptions, TraceEvent, TraceKind,
};
pub use protocol::{kinds, naming, ExecError, InstanceId};
pub use wrapper::{CompositeWrapper, WrapperConfig, WrapperHandle};

pub mod travel_backends;
