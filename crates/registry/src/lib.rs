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
//! what the Search panel lists), and `get_service` returns the full
//! [`ServiceRecord`] of one key. The local [`UddiRegistry::find`] returns
//! full records.
//!
//! A summary is one checked `<serviceInfo key business name provider/>`
//! tree, built when its record is published. The store keeps it, a find
//! reply carries it, and the client's hit is it: over the fabric the very
//! tree the store holds, over TCP the parsed one, checked in place. Its
//! accessors ([`ServiceSummary::key`], [`ServiceSummary::business`],
//! [`ServiceSummary::name`], [`ServiceSummary::provider_name`]) read the
//! tree; only `key` copies, into the [`ServiceKey`] that
//! [`RegistryClient::get_service`] takes.

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
