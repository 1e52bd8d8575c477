//! Service descriptions: the WSDL analogue.

use selfserv_xml::{Element, XmlError};
use std::fmt;

/// Errors produced when decoding or validating WSDL-level artefacts.
#[derive(Debug, Clone, PartialEq)]
pub enum WsdlError {
    /// The underlying XML failed to parse.
    Xml(String),
    /// A document had the wrong shape (missing element/attribute etc.).
    Malformed(String),
    /// A message did not conform to an operation signature.
    Invalid(String),
}

impl fmt::Display for WsdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsdlError::Xml(m) => write!(f, "xml error: {m}"),
            WsdlError::Malformed(m) => write!(f, "malformed description: {m}"),
            WsdlError::Invalid(m) => write!(f, "invalid message: {m}"),
        }
    }
}

impl std::error::Error for WsdlError {}

impl From<XmlError> for WsdlError {
    fn from(e: XmlError) -> Self {
        WsdlError::Xml(e.to_string())
    }
}

impl From<String> for WsdlError {
    fn from(m: String) -> Self {
        WsdlError::Malformed(m)
    }
}

/// Parameter types supported by the platform's messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamType {
    /// UTF-8 string.
    Str,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// Calendar date, carried as an ISO `YYYY-MM-DD` string.
    Date,
    /// List of strings (e.g. attraction names).
    List,
}

impl ParamType {
    /// The name used in XML `type` attributes.
    pub fn name(self) -> &'static str {
        match self {
            ParamType::Str => "string",
            ParamType::Int => "int",
            ParamType::Float => "float",
            ParamType::Bool => "boolean",
            ParamType::Date => "date",
            ParamType::List => "list",
        }
    }

    /// Parses a `type` attribute value.
    pub fn from_name(s: &str) -> Result<Self, WsdlError> {
        Ok(match s {
            "string" => ParamType::Str,
            "int" => ParamType::Int,
            "float" => ParamType::Float,
            "boolean" => ParamType::Bool,
            "date" => ParamType::Date,
            "list" => ParamType::List,
            other => {
                return Err(WsdlError::Malformed(format!(
                    "unknown parameter type {other:?}"
                )))
            }
        })
    }

    /// True when a value of type `actual` may be supplied where `self` is
    /// declared (identity, plus int→float widening, plus date↔string since
    /// dates are carried lexically).
    pub fn accepts(self, actual: ParamType) -> bool {
        self == actual
            || (self == ParamType::Float && actual == ParamType::Int)
            || (self == ParamType::Date && actual == ParamType::Str)
            || (self == ParamType::Str && actual == ParamType::Date)
    }
}

impl fmt::Display for ParamType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, typed parameter of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub ty: ParamType,
    /// Whether the parameter must be present on invocation.
    pub required: bool,
}

impl Param {
    /// A required parameter.
    pub fn required(name: impl Into<String>, ty: ParamType) -> Self {
        Param {
            name: name.into(),
            ty,
            required: true,
        }
    }

    /// An optional parameter.
    pub fn optional(name: impl Into<String>, ty: ParamType) -> Self {
        Param {
            name: name.into(),
            ty,
            required: false,
        }
    }

    fn to_xml(&self, tag: &str) -> Element {
        Element::new(tag)
            .with_attr("name", &self.name)
            .with_attr("type", self.ty.name())
            .with_attr("required", if self.required { "true" } else { "false" })
    }

    fn from_xml(e: &Element) -> Result<Self, WsdlError> {
        Ok(Param {
            name: e.require_attr("name")?.to_string(),
            ty: ParamType::from_name(e.require_attr("type")?)?,
            required: e.attr("required").unwrap_or("true") == "true",
        })
    }
}

/// An operation of a service: the unit end users execute (Figure 3's
/// "Execute" button targets one operation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationDef {
    /// Operation name, unique within its service.
    pub name: String,
    /// Human-readable purpose.
    pub documentation: String,
    /// Input parameters.
    pub inputs: Vec<Param>,
    /// Output parameters.
    pub outputs: Vec<Param>,
    /// Events this operation consumes (statechart-level ECA wiring).
    pub consumed_events: Vec<String>,
    /// Events this operation produces.
    pub produced_events: Vec<String>,
}

impl OperationDef {
    /// A new operation with no parameters.
    pub fn new(name: impl Into<String>) -> Self {
        OperationDef {
            name: name.into(),
            documentation: String::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            consumed_events: Vec::new(),
            produced_events: Vec::new(),
        }
    }

    /// Builder: sets documentation.
    pub fn with_doc(mut self, doc: impl Into<String>) -> Self {
        self.documentation = doc.into();
        self
    }

    /// Builder: adds an input parameter.
    pub fn with_input(mut self, p: Param) -> Self {
        self.inputs.push(p);
        self
    }

    /// Builder: adds an output parameter.
    pub fn with_output(mut self, p: Param) -> Self {
        self.outputs.push(p);
        self
    }

    /// Builder: adds a produced event.
    pub fn with_produced_event(mut self, ev: impl Into<String>) -> Self {
        self.produced_events.push(ev.into());
        self
    }

    /// Builder: adds a consumed event.
    pub fn with_consumed_event(mut self, ev: impl Into<String>) -> Self {
        self.consumed_events.push(ev.into());
        self
    }

    /// Looks up an input parameter by name.
    pub fn input(&self, name: &str) -> Option<&Param> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Looks up an output parameter by name.
    pub fn output(&self, name: &str) -> Option<&Param> {
        self.outputs.iter().find(|p| p.name == name)
    }

    /// Checks an invocation message against this signature: every required
    /// input present, every present input declared and type-compatible.
    pub fn validate_inputs(&self, msg: &crate::MessageDoc) -> Result<(), WsdlError> {
        for p in &self.inputs {
            match msg.get(&p.name) {
                None if p.required => {
                    return Err(WsdlError::Invalid(format!(
                        "operation '{}': missing required input '{}'",
                        self.name, p.name
                    )))
                }
                None => {}
                Some(v) => {
                    let actual = crate::message::value_param_type(v);
                    if let Some(actual) = actual {
                        if !p.ty.accepts(actual) {
                            return Err(WsdlError::Invalid(format!(
                                "operation '{}': input '{}' has type {}, expected {}",
                                self.name, p.name, actual, p.ty
                            )));
                        }
                    }
                    // Null passes: it means "explicitly absent".
                }
            }
        }
        for name in msg.names() {
            if self.input(name).is_none() {
                return Err(WsdlError::Invalid(format!(
                    "operation '{}': unexpected input '{}'",
                    self.name, name
                )));
            }
        }
        Ok(())
    }

    /// XML form (`<operation>`).
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("operation").with_attr("name", &self.name);
        if !self.documentation.is_empty() {
            e.push_child(Element::new("documentation").with_text(&self.documentation));
        }
        for p in &self.inputs {
            e.push_child(p.to_xml("input"));
        }
        for p in &self.outputs {
            e.push_child(p.to_xml("output"));
        }
        for ev in &self.consumed_events {
            e.push_child(Element::new("consumes").with_attr("event", ev));
        }
        for ev in &self.produced_events {
            e.push_child(Element::new("produces").with_attr("event", ev));
        }
        e
    }

    /// Decodes the XML form in one pass over the children; the first
    /// `<documentation>` is the one read.
    pub fn from_xml(e: &Element) -> Result<Self, WsdlError> {
        if e.name != "operation" {
            return Err(WsdlError::Malformed(format!(
                "expected <operation>, got <{}>",
                e.name
            )));
        }
        let mut op = OperationDef::new(e.require_attr("name")?);
        let mut documented = false;
        for child in e.child_elements() {
            match child.name.as_str() {
                "documentation" if !documented => {
                    op.documentation = child.text();
                    documented = true;
                }
                "input" => op.inputs.push(Param::from_xml(child)?),
                "output" => op.outputs.push(Param::from_xml(child)?),
                "consumes" => op
                    .consumed_events
                    .push(child.require_attr("event")?.to_string()),
                "produces" => op
                    .produced_events
                    .push(child.require_attr("event")?.to_string()),
                _ => {}
            }
        }
        Ok(op)
    }
}

/// Transport protocols a binding can use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// The platform's native envelope protocol over the message fabric
    /// (the analogue of SOAP-over-HTTP in the original).
    #[default]
    SelfServ,
    /// Raw TCP with length-prefixed XML (the analogue of Java sockets).
    Tcp,
}

impl Protocol {
    /// The name used in XML.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::SelfServ => "selfserv",
            Protocol::Tcp => "tcp",
        }
    }

    /// Parses the XML name.
    pub fn from_name(s: &str) -> Result<Self, WsdlError> {
        Ok(match s {
            "selfserv" => Protocol::SelfServ,
            "tcp" => Protocol::Tcp,
            other => return Err(WsdlError::Malformed(format!("unknown protocol {other:?}"))),
        })
    }
}

/// Where and how a service can be invoked — the "binding details" used when
/// an execution request is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Protocol to use.
    pub protocol: Protocol,
    /// Endpoint address: a fabric node name for [`Protocol::SelfServ`], a
    /// `host:port` pair for [`Protocol::Tcp`].
    pub endpoint: String,
}

impl Binding {
    /// A native-fabric binding.
    pub fn fabric(endpoint: impl Into<String>) -> Self {
        Binding {
            protocol: Protocol::SelfServ,
            endpoint: endpoint.into(),
        }
    }

    /// A TCP binding.
    pub fn tcp(endpoint: impl Into<String>) -> Self {
        Binding {
            protocol: Protocol::Tcp,
            endpoint: endpoint.into(),
        }
    }

    fn to_xml(&self) -> Element {
        Element::new("binding")
            .with_attr("protocol", self.protocol.name())
            .with_attr("endpoint", &self.endpoint)
    }

    fn from_xml(e: &Element) -> Result<Self, WsdlError> {
        Ok(Binding {
            protocol: Protocol::from_name(e.require_attr("protocol")?)?,
            endpoint: e.require_attr("endpoint")?.to_string(),
        })
    }
}

/// A complete service description: the artefact published to the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescription {
    /// Service name (e.g. `"Domestic Flight Booking"`).
    pub name: String,
    /// Provider (business) name.
    pub provider: String,
    /// Human-readable purpose.
    pub documentation: String,
    /// The operations offered.
    pub operations: Vec<OperationDef>,
    /// Invocation bindings (at least one for an invocable service).
    pub bindings: Vec<Binding>,
}

impl ServiceDescription {
    /// A new description with no operations.
    pub fn new(name: impl Into<String>, provider: impl Into<String>) -> Self {
        ServiceDescription {
            name: name.into(),
            provider: provider.into(),
            documentation: String::new(),
            operations: Vec::new(),
            bindings: Vec::new(),
        }
    }

    /// Builder: sets documentation.
    pub fn with_doc(mut self, doc: impl Into<String>) -> Self {
        self.documentation = doc.into();
        self
    }

    /// Builder: adds an operation.
    pub fn with_operation(mut self, op: OperationDef) -> Self {
        self.operations.push(op);
        self
    }

    /// Builder: adds a binding.
    pub fn with_binding(mut self, b: Binding) -> Self {
        self.bindings.push(b);
        self
    }

    /// Looks up an operation by name.
    pub fn operation(&self, name: &str) -> Option<&OperationDef> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// The preferred (first) binding, if any.
    pub fn primary_binding(&self) -> Option<&Binding> {
        self.bindings.first()
    }

    /// Encodes to the WSDL-flavoured XML form (`<definitions>`).
    pub fn to_xml(&self) -> Element {
        let mut e = Element::new("definitions")
            .with_attr("name", &self.name)
            .with_attr("provider", &self.provider);
        if !self.documentation.is_empty() {
            e.push_child(Element::new("documentation").with_text(&self.documentation));
        }
        for op in &self.operations {
            e.push_child(op.to_xml());
        }
        for b in &self.bindings {
            e.push_child(b.to_xml());
        }
        e
    }

    /// Decodes the XML form in one pass over the children; the first
    /// `<documentation>` is the one read.
    pub fn from_xml(e: &Element) -> Result<Self, WsdlError> {
        if e.name != "definitions" {
            return Err(WsdlError::Malformed(format!(
                "expected <definitions>, got <{}>",
                e.name
            )));
        }
        let mut d = ServiceDescription::new(e.require_attr("name")?, e.require_attr("provider")?);
        let mut documented = false;
        for child in e.child_elements() {
            match child.name.as_str() {
                "documentation" if !documented => {
                    d.documentation = child.text();
                    documented = true;
                }
                "operation" => d.operations.push(OperationDef::from_xml(child)?),
                "binding" => d.bindings.push(Binding::from_xml(child)?),
                _ => {}
            }
        }
        Ok(d)
    }

    /// Parses from XML text.
    pub fn from_xml_str(s: &str) -> Result<Self, WsdlError> {
        Self::from_xml(&selfserv_xml::parse(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessageDoc;
    use selfserv_expr::Value;

    fn flight_booking() -> ServiceDescription {
        ServiceDescription::new("Domestic Flight Booking", "Qantas Demo")
            .with_doc("Books domestic flights within Australia")
            .with_operation(
                OperationDef::new("bookFlight")
                    .with_doc("Book a one-way or return flight")
                    .with_input(Param::required("customer", ParamType::Str))
                    .with_input(Param::required("destination", ParamType::Str))
                    .with_input(Param::required("departure_date", ParamType::Date))
                    .with_input(Param::optional("return_date", ParamType::Date))
                    .with_output(Param::required("confirmation", ParamType::Str))
                    .with_output(Param::required("price", ParamType::Float))
                    .with_produced_event("flightBooked"),
            )
            .with_binding(Binding::fabric("svc.dfb"))
    }

    #[test]
    fn xml_round_trip() {
        let d = flight_booking();
        let xml = d.to_xml().to_pretty_xml();
        let back = ServiceDescription::from_xml_str(&xml).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn operation_lookup() {
        let d = flight_booking();
        assert!(d.operation("bookFlight").is_some());
        assert!(d.operation("cancel").is_none());
        let op = d.operation("bookFlight").unwrap();
        assert_eq!(op.input("customer").unwrap().ty, ParamType::Str);
        assert_eq!(op.output("price").unwrap().ty, ParamType::Float);
    }

    #[test]
    fn validate_accepts_conforming_message() {
        let d = flight_booking();
        let op = d.operation("bookFlight").unwrap();
        let mut msg = MessageDoc::request("bookFlight");
        msg.set("customer", Value::str("Eileen"));
        msg.set("destination", Value::str("Melbourne"));
        msg.set("departure_date", Value::str("2002-08-20"));
        op.validate_inputs(&msg).unwrap();
    }

    #[test]
    fn validate_rejects_missing_required() {
        let d = flight_booking();
        let op = d.operation("bookFlight").unwrap();
        let msg = MessageDoc::request("bookFlight");
        let err = op.validate_inputs(&msg).unwrap_err();
        assert!(err.to_string().contains("customer"), "{err}");
    }

    #[test]
    fn validate_rejects_unknown_param() {
        let d = flight_booking();
        let op = d.operation("bookFlight").unwrap();
        let mut msg = MessageDoc::request("bookFlight");
        msg.set("customer", Value::str("E"));
        msg.set("destination", Value::str("M"));
        msg.set("departure_date", Value::str("2002-08-20"));
        msg.set("seat_colour", Value::str("red"));
        let err = op.validate_inputs(&msg).unwrap_err();
        assert!(err.to_string().contains("seat_colour"), "{err}");
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let d = flight_booking();
        let op = d.operation("bookFlight").unwrap();
        let mut msg = MessageDoc::request("bookFlight");
        msg.set("customer", Value::Int(42));
        msg.set("destination", Value::str("M"));
        msg.set("departure_date", Value::str("2002-08-20"));
        let err = op.validate_inputs(&msg).unwrap_err();
        assert!(err.to_string().contains("customer"), "{err}");
    }

    #[test]
    fn int_widens_to_float() {
        let op = OperationDef::new("pay").with_input(Param::required("amount", ParamType::Float));
        let mut msg = MessageDoc::request("pay");
        msg.set("amount", Value::Int(100));
        op.validate_inputs(&msg).unwrap();
    }

    #[test]
    fn optional_params_may_be_absent() {
        let d = flight_booking();
        let op = d.operation("bookFlight").unwrap();
        let mut msg = MessageDoc::request("bookFlight");
        msg.set("customer", Value::str("E"));
        msg.set("destination", Value::str("M"));
        msg.set("departure_date", Value::str("2002-08-20"));
        op.validate_inputs(&msg).unwrap(); // no return_date
    }

    #[test]
    fn param_type_names_round_trip() {
        for ty in [
            ParamType::Str,
            ParamType::Int,
            ParamType::Float,
            ParamType::Bool,
            ParamType::Date,
            ParamType::List,
        ] {
            assert_eq!(ParamType::from_name(ty.name()).unwrap(), ty);
        }
        assert!(ParamType::from_name("object").is_err());
    }

    #[test]
    fn protocol_names_round_trip() {
        assert_eq!(Protocol::from_name("selfserv").unwrap(), Protocol::SelfServ);
        assert_eq!(Protocol::from_name("tcp").unwrap(), Protocol::Tcp);
        assert!(Protocol::from_name("carrier-pigeon").is_err());
    }

    #[test]
    fn from_xml_rejects_wrong_root() {
        let e = Element::new("service");
        assert!(ServiceDescription::from_xml(&e).is_err());
    }

    /// A description with every kind of child the decoders read.
    fn every_child() -> ServiceDescription {
        let mut d = flight_booking().with_binding(Binding::tcp("127.0.0.1:7000"));
        d.operations[0]
            .consumed_events
            .push("flightRequested".into());
        d
    }

    /// The first descendant of `e` down the `/`-separated `path`.
    fn at<'a>(e: &'a mut Element, path: &str) -> &'a mut Element {
        path.split('/')
            .filter(|s| !s.is_empty())
            .fold(e, |e, name| {
                e.children
                    .iter_mut()
                    .find_map(|n| match n {
                        selfserv_xml::Node::Element(c) if c.name == name => Some(c),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("no <{name}>"))
            })
    }

    /// Each document has exactly one fault, and each is refused with the
    /// same error whichever order the decoder reads children in.
    #[test]
    fn each_single_fault_is_refused_with_its_own_error() {
        enum Fault {
            Drop(&'static str),
            Set(&'static str, &'static str),
            Rename(&'static str),
        }
        use Fault::*;
        let missing = |tag: &str, attr: &str| {
            format!("malformed description: <{tag}> is missing required attribute {attr:?}")
        };
        let cases = [
            (
                "",
                Rename("service"),
                "malformed description: expected <definitions>, got <service>".to_string(),
            ),
            ("", Drop("name"), missing("definitions", "name")),
            ("", Drop("provider"), missing("definitions", "provider")),
            ("operation", Drop("name"), missing("operation", "name")),
            ("operation/input", Drop("name"), missing("input", "name")),
            ("operation/input", Drop("type"), missing("input", "type")),
            (
                "operation/input",
                Set("type", "object"),
                "malformed description: unknown parameter type \"object\"".to_string(),
            ),
            ("operation/output", Drop("name"), missing("output", "name")),
            ("operation/output", Drop("type"), missing("output", "type")),
            (
                "operation/output",
                Set("type", "tuple"),
                "malformed description: unknown parameter type \"tuple\"".to_string(),
            ),
            (
                "operation/consumes",
                Drop("event"),
                missing("consumes", "event"),
            ),
            (
                "operation/produces",
                Drop("event"),
                missing("produces", "event"),
            ),
            ("binding", Drop("protocol"), missing("binding", "protocol")),
            ("binding", Drop("endpoint"), missing("binding", "endpoint")),
            (
                "binding",
                Set("protocol", "smtp"),
                "malformed description: unknown protocol \"smtp\"".to_string(),
            ),
        ];
        let valid = every_child().to_xml();
        assert_eq!(ServiceDescription::from_xml(&valid), Ok(every_child()));
        for (path, fault, expected) in cases {
            let mut doc = valid.clone();
            let e = at(&mut doc, path);
            match fault {
                Drop(attr) => e.attrs.retain(|(n, _)| n != attr),
                Set(attr, value) => e.set_attr(attr, value),
                Rename(name) => e.name = name.into(),
            }
            let err = ServiceDescription::from_xml(&doc).unwrap_err();
            assert_eq!(err.to_string(), expected, "{path}");
        }
        let err = OperationDef::from_xml(&Element::new("op")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed description: expected <operation>, got <op>"
        );
    }

    #[test]
    fn events_round_trip() {
        let op = OperationDef::new("search")
            .with_consumed_event("searchRequested")
            .with_produced_event("searchDone");
        let back = OperationDef::from_xml(&op.to_xml()).unwrap();
        assert_eq!(back.consumed_events, vec!["searchRequested"]);
        assert_eq!(back.produced_events, vec!["searchDone"]);
    }
}
