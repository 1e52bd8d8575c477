//! # selfserv-registry
//!
//! The **service discovery engine** of SELF-SERV: a UDDI-style registry.
//!
//! The paper's discovery engine "facilitates the advertisement and location
//! of services" and is "implemented using UDDI, WSDL and SOAP"; service
//! registration, discovery and invocation are SOAP calls (Section 3). The
//! Search panel of Figure 3 lets users find services "by providers, service
//! names or operations". This crate reproduces that layer:
//!
//! * [`UddiRegistry`] — businesses (providers), published services with
//!   WSDL-style descriptions, categories (the tModel analogue), lease-based
//!   expiry, and [`FindQuery`] lookups by provider / service name /
//!   operation / category (case-insensitive prefix matching, AND-combined);
//! * [`RegistryServer`] — the registry exposed as a fabric node answering
//!   XML request/response envelopes (the SOAP-call analogue);
//! * [`RegistryClient`] — the typed client the service manager, composers
//!   and end users use to publish and search remotely.
//!
//! The remote query is split as UDDI splits it: `find_service` lists a
//! [`ServiceSummary`] per hit (key, business, service name, provider —
//! what the Search panel lists), read off a summary tree each record keeps
//! from its publication, and `get_service` returns the full
//! [`ServiceRecord`] of one key. The local [`UddiRegistry::find`] returns
//! full records.

mod model;
mod server;
mod store;

pub use model::{
    BusinessEntity, BusinessKey, FindQuery, RegistryError, ServiceKey, ServiceRecord,
    ServiceSummary,
};
pub use server::{RegistryClient, RegistryServer, RegistryServerHandle};
pub use store::UddiRegistry;

#[cfg(test)]
mod proptests;
