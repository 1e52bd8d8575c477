//! # selfserv-wsdl
//!
//! WSDL-like service descriptions and typed message documents.
//!
//! In the original SELF-SERV demo, a service's WSDL description had to be
//! "created and deployed … so that \[it\] can be retrieved using public URLs"
//! before publication to the UDDI registry, and invocations were XML
//! documents "sent to the service using the binding details of the WSDL
//! service descriptions". This crate reproduces that layer:
//!
//! * [`ServiceDescription`] — a service with named, typed
//!   [`OperationDef`]s (input/output parameters), bindings, and
//!   documentation; round-trips through a WSDL-flavoured XML form,
//! * [`MessageDoc`] — the XML invocation/reply document carrying parameter
//!   values, with type-checked encoding/decoding,
//! * [`validate_inputs`](OperationDef::validate_inputs) — conformance of a
//!   message against an operation signature (the check the composite
//!   wrapper performs before kicking off an execution).

mod description;
mod message;

pub use description::{
    Binding, OperationDef, Param, ParamType, Protocol, ServiceDescription, WsdlError,
};
pub use message::{MessageDoc, MessageKind};

#[cfg(test)]
mod proptests;
