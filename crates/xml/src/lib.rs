//! # selfserv-xml
//!
//! A small, dependency-free XML library used as the wire and storage format
//! of the SELF-SERV platform.
//!
//! In the original system (VLDB 2002 demo), *every* artefact exchanged
//! between platform components is an XML document: statechart definitions
//! produced by the service editor, routing tables produced by the service
//! deployer, SOAP-style discovery requests, and the messages coordinators
//! exchange at run time. The original implementation used Oracle's XML
//! Parser 2.0 / JAXP; this crate provides the equivalent functionality from
//! scratch:
//!
//! * [`Element`] / [`Node`] — an owned document tree, whose children may
//!   be [`SharedElement`]s other trees hold too,
//! * [`Element::to_xml`] / [`Element::to_pretty_xml`] — serialization with
//!   correct escaping; [`Element::xml_len`] is the same writer run against a
//!   byte counter, and [`Element::unescaped_len`] a lower bound on it from
//!   the tree's string lengths alone, for sizing a buffer before one
//!   writing pass,
//! * [`parse`] — a strict, well-formedness-checking parser for the subset of
//!   XML the platform emits (elements, attributes, text, CDATA, comments,
//!   processing instructions, the five predefined entities and numeric
//!   character references),
//! * path-style convenience queries ([`Element::find`],
//!   [`Element::find_all`], [`Element::child_text`], …).
//!
//! The writer's escaping and the parser's text and attribute runs share one
//! byte scan, which tests 16 bytes at a time and reads each byte once, so a
//! text costs per escape or entity only the work of that escape or entity.
//!
//! The parser rejects malformed input with positioned [`XmlError`]s rather
//! than guessing, because routing tables uploaded to remote hosts must be
//! trustworthy: a silently mis-parsed precondition would stall a composite
//! service instance forever.
//!
//! ## Example
//!
//! ```
//! use selfserv_xml::{Element, parse};
//!
//! let doc = Element::new("routingTable")
//!     .with_attr("state", "CR")
//!     .with_child(Element::new("precondition").with_text("AB & AS"));
//! let xml = doc.to_pretty_xml();
//! let back = parse(&xml).unwrap();
//! assert_eq!(back.attr("state"), Some("CR"));
//! ```

mod doc;
mod error;
mod parser;
mod query;
mod scan;
mod writer;

pub use doc::{Element, Node, SharedElement};
pub use error::{Position, XmlError};
pub use parser::{parse, parse_document, Document};
pub use query::path_escape;
pub use writer::{write_attr, ByteCount, XmlSink};

#[cfg(test)]
mod proptests;
