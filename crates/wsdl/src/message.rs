//! [`MessageDoc`]: the XML documents that carry parameter values between
//! wrappers, coordinators, and end users.

use crate::description::{ParamType, WsdlError};
use selfserv_expr::Value;
use selfserv_xml::Element;
use std::collections::BTreeMap;

/// A typed parameter document: the payload of service invocations and
/// replies.
///
/// Parameters are kept sorted by name (`BTreeMap`) so the XML encoding is
/// deterministic — routing-table golden tests and message-size benches rely
/// on that.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MessageDoc {
    /// The operation this message invokes or replies to.
    pub operation: String,
    /// `request` or `response` (or `fault`).
    pub kind: MessageKind,
    /// Parameter bindings.
    params: BTreeMap<String, Value>,
}

/// The direction/flavour of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MessageKind {
    /// An invocation.
    #[default]
    Request,
    /// A successful reply.
    Response,
    /// A failure reply; the `fault` parameter carries the reason.
    Fault,
}

impl MessageKind {
    fn name(self) -> &'static str {
        match self {
            MessageKind::Request => "request",
            MessageKind::Response => "response",
            MessageKind::Fault => "fault",
        }
    }

    fn from_name(s: &str) -> Result<Self, WsdlError> {
        Ok(match s {
            "request" => MessageKind::Request,
            "response" => MessageKind::Response,
            "fault" => MessageKind::Fault,
            other => {
                return Err(WsdlError::Malformed(format!(
                    "unknown message kind {other:?}"
                )))
            }
        })
    }
}

/// Maps a runtime [`Value`] to the parameter type it satisfies, or `None`
/// for `Null` (which is compatible with everything).
pub(crate) fn value_param_type(v: &Value) -> Option<ParamType> {
    match v {
        Value::Null => None,
        Value::Bool(_) => Some(ParamType::Bool),
        Value::Int(_) => Some(ParamType::Int),
        Value::Float(_) => Some(ParamType::Float),
        Value::Str(_) => Some(ParamType::Str),
        Value::List(_) => Some(ParamType::List),
    }
}

impl MessageDoc {
    /// An empty request for `operation`.
    pub fn request(operation: impl Into<String>) -> Self {
        MessageDoc {
            operation: operation.into(),
            kind: MessageKind::Request,
            params: BTreeMap::new(),
        }
    }

    /// An empty response for `operation`.
    pub fn response(operation: impl Into<String>) -> Self {
        MessageDoc {
            operation: operation.into(),
            kind: MessageKind::Response,
            params: BTreeMap::new(),
        }
    }

    /// A fault reply carrying `reason`.
    pub fn fault(operation: impl Into<String>, reason: impl Into<String>) -> Self {
        let mut m = MessageDoc {
            operation: operation.into(),
            kind: MessageKind::Fault,
            params: BTreeMap::new(),
        };
        m.set("fault", Value::Str(reason.into()));
        m
    }

    /// True when this is a fault message.
    pub fn is_fault(&self) -> bool {
        self.kind == MessageKind::Fault
    }

    /// The fault reason, when [`Self::is_fault`].
    pub fn fault_reason(&self) -> Option<&str> {
        if self.is_fault() {
            self.get("fault").and_then(Value::as_str)
        } else {
            None
        }
    }

    /// Builder: sets a parameter and returns `self`.
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Self {
        self.set(name, value);
        self
    }

    /// Sets a parameter.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        self.params.insert(name.into(), value);
    }

    /// Reads a parameter.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.params.get(name)
    }

    /// Reads a string parameter.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Parameter names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.params.keys().map(String::as_str)
    }

    /// Parameter count.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates over `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Copies every parameter of `other` into `self` (later wins), the
    /// merge coordinators perform when joining parallel branches.
    pub fn merge_from(&mut self, other: &MessageDoc) {
        for (k, v) in &other.params {
            self.params.insert(k.clone(), v.clone());
        }
    }

    /// Consumes the message into its parameter map.
    pub fn into_params(self) -> BTreeMap<String, Value> {
        self.params
    }

    /// Encodes to the platform's XML message form.
    ///
    /// ```xml
    /// <message operation="bookFlight" kind="request">
    ///   <param name="customer" type="string">Eileen</param>
    /// </message>
    /// ```
    pub fn to_xml(&self) -> Element {
        encode(&self.operation, self.kind, &self.params)
    }

    /// The XML form of a `kind` message for `operation` carrying `params`
    /// — e.g. `MessageDoc::request(operation)` with each of them set,
    /// `.to_xml()` — encoded from the borrowed map, without copying it
    /// into a message first.
    pub fn params_xml(
        operation: &str,
        kind: MessageKind,
        params: &BTreeMap<String, Value>,
    ) -> Element {
        encode(operation, kind, params)
    }

    /// Decodes the XML message form.
    pub fn from_xml(e: &Element) -> Result<Self, WsdlError> {
        if e.name != "message" {
            return Err(WsdlError::Malformed(format!(
                "expected <message>, got <{}>",
                e.name
            )));
        }
        let mut m = MessageDoc {
            operation: e.require_attr("operation")?.to_string(),
            kind: MessageKind::from_name(e.attr("kind").unwrap_or("request"))?,
            params: BTreeMap::new(),
        };
        for p in e.find_all("param") {
            let (name, value) = decode_param(p)?;
            m.params.insert(name, value);
        }
        Ok(m)
    }

    /// Parses from XML text.
    pub fn from_xml_str(s: &str) -> Result<Self, WsdlError> {
        Self::from_xml(&selfserv_xml::parse(s)?)
    }
}

fn encode(operation: &str, kind: MessageKind, params: &BTreeMap<String, Value>) -> Element {
    let mut e = Element::new("message")
        .with_attr("operation", operation)
        .with_attr("kind", kind.name());
    for (name, value) in params {
        e.push_child(encode_param(name, value));
    }
    e
}

fn encode_param(name: &str, value: &Value) -> Element {
    let ty = match value {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Str(_) => "string",
        Value::List(_) => "list",
    };
    let mut e = Element::new("param")
        .with_attr("name", name)
        .with_attr("type", ty);
    match value {
        Value::Null => {}
        Value::List(items) => {
            for item in items {
                e.push_child(encode_param("item", item));
            }
        }
        other => e.push_text(other.to_lexical()),
    }
    e
}

fn decode_param(e: &Element) -> Result<(String, Value), WsdlError> {
    let name = e.require_attr("name")?.to_string();
    let ty = e.attr("type").unwrap_or("string");
    let text = e.text();
    let value =
        match ty {
            "null" => Value::Null,
            "boolean" => match text.as_str() {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                other => {
                    return Err(WsdlError::Malformed(format!(
                        "param '{name}': bad boolean {other:?}"
                    )))
                }
            },
            "int" => {
                Value::Int(text.trim().parse().map_err(|_| {
                    WsdlError::Malformed(format!("param '{name}': bad int {text:?}"))
                })?)
            }
            "float" => Value::Float(text.trim().parse().map_err(|_| {
                WsdlError::Malformed(format!("param '{name}': bad float {text:?}"))
            })?),
            "string" | "date" => Value::Str(text),
            "list" => {
                let mut items = Vec::new();
                for item in e.find_all("param") {
                    let (_, v) = decode_param(item)?;
                    items.push(v);
                }
                Value::List(items)
            }
            other => {
                return Err(WsdlError::Malformed(format!(
                    "param '{name}': unknown type {other:?}"
                )))
            }
        };
    Ok((name, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MessageDoc {
        MessageDoc::request("bookFlight")
            .with("customer", Value::str("Eileen"))
            .with("destination", Value::str("Hong Kong"))
            .with("budget", Value::Float(1500.5))
            .with("nights", Value::Int(7))
            .with("insured", Value::Bool(false))
            .with("notes", Value::Null)
            .with(
                "attractions",
                Value::List(vec![Value::str("Peak Tram"), Value::str("Star Ferry")]),
            )
    }

    #[test]
    fn xml_round_trip() {
        let m = sample();
        let xml = m.to_xml().to_pretty_xml();
        let back = MessageDoc::from_xml_str(&xml).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn kind_round_trip() {
        for make in [
            MessageDoc::request("x"),
            MessageDoc::response("x"),
            MessageDoc::fault("x", "boom"),
        ] {
            let back = MessageDoc::from_xml(&make.to_xml()).unwrap();
            assert_eq!(back.kind, make.kind);
        }
    }

    #[test]
    fn fault_helpers() {
        let f = MessageDoc::fault("bookFlight", "no seats");
        assert!(f.is_fault());
        assert_eq!(f.fault_reason(), Some("no seats"));
        assert_eq!(sample().fault_reason(), None);
    }

    #[test]
    fn merge_from_overwrites() {
        let mut a = MessageDoc::request("op")
            .with("x", Value::Int(1))
            .with("y", Value::Int(2));
        let b = MessageDoc::response("op")
            .with("y", Value::Int(20))
            .with("z", Value::Int(30));
        a.merge_from(&b);
        assert_eq!(a.get("x"), Some(&Value::Int(1)));
        assert_eq!(a.get("y"), Some(&Value::Int(20)));
        assert_eq!(a.get("z"), Some(&Value::Int(30)));
    }

    #[test]
    fn deterministic_encoding_order() {
        let m1 = MessageDoc::request("op")
            .with("b", Value::Int(2))
            .with("a", Value::Int(1));
        let m2 = MessageDoc::request("op")
            .with("a", Value::Int(1))
            .with("b", Value::Int(2));
        assert_eq!(m1.to_xml().to_xml(), m2.to_xml().to_xml());
    }

    #[test]
    fn decode_rejects_bad_lexicals() {
        let bad_int =
            "<message operation=\"o\"><param name=\"n\" type=\"int\">xyz</param></message>";
        assert!(MessageDoc::from_xml_str(bad_int).is_err());
        let bad_bool =
            "<message operation=\"o\"><param name=\"b\" type=\"boolean\">maybe</param></message>";
        assert!(MessageDoc::from_xml_str(bad_bool).is_err());
        let bad_kind = "<message operation=\"o\" kind=\"telegram\"/>";
        assert!(MessageDoc::from_xml_str(bad_kind).is_err());
    }

    #[test]
    fn missing_kind_defaults_to_request() {
        let m = MessageDoc::from_xml_str("<message operation=\"o\"/>").unwrap();
        assert_eq!(m.kind, MessageKind::Request);
    }

    #[test]
    fn nested_lists_round_trip() {
        let m = MessageDoc::request("op").with(
            "grid",
            Value::List(vec![Value::List(vec![Value::Int(1)]), Value::List(vec![])]),
        );
        let back = MessageDoc::from_xml(&m.to_xml()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn strings_with_markup_round_trip() {
        let m = MessageDoc::request("op").with("q", Value::str("a < b && \"c\""));
        let back = MessageDoc::from_xml_str(&m.to_xml().to_xml()).unwrap();
        assert_eq!(back.get_str("q"), Some("a < b && \"c\""));
    }

    #[test]
    fn iteration_and_len() {
        let m = sample();
        assert_eq!(m.len(), 7);
        assert!(!m.is_empty());
        let names: Vec<&str> = m.names().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "names iterate in sorted order");
        assert_eq!(m.iter().count(), 7);
    }
}
