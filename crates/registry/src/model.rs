//! Registry data model: businesses, published services, queries.

use selfserv_wsdl::ServiceDescription;
use selfserv_xml::{Element, SharedElement};
use std::fmt;
use std::time::{Duration, Instant};

/// Key of a registered business (provider). Assigned by the registry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BusinessKey(pub String);

impl fmt::Display for BusinessKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Key of a published service. Assigned by the registry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceKey(pub String);

impl fmt::Display for ServiceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A provider registered with the discovery engine (the "provider name,
/// contact data" of the Publish panel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessEntity {
    /// Registry-assigned key.
    pub key: BusinessKey,
    /// Provider name.
    pub name: String,
    /// Contact data.
    pub contact: String,
}

/// A published service: description plus registry metadata.
#[derive(Debug, Clone)]
pub struct ServiceRecord {
    /// Registry-assigned key.
    pub key: ServiceKey,
    /// Owning business.
    pub business: BusinessKey,
    /// Provider name (denormalised for display, as in Figure 3's result
    /// list which shows each provider with all its services).
    pub provider_name: String,
    /// Category (the tModel/service-type analogue, e.g. `"flight-booking"`).
    pub category: String,
    /// The WSDL-style description.
    pub description: ServiceDescription,
    /// When the record was published.
    pub published_at: Instant,
    /// Optional lease; the record expires `lease` after `published_at`
    /// unless renewed.
    pub lease: Option<Duration>,
}

impl ServiceRecord {
    /// True when the lease has expired as of `now`.
    pub fn is_expired(&self, now: Instant) -> bool {
        match self.lease {
            Some(lease) => now.duration_since(self.published_at) > lease,
            None => false,
        }
    }

    /// Encodes the record (metadata + description) for transport.
    pub fn to_xml(&self) -> Element {
        Element::new("serviceInfo")
            .with_attr("key", &self.key.0)
            .with_attr("business", &self.business.0)
            .with_attr("provider", &self.provider_name)
            .with_attr("category", &self.category)
            .with_child(self.description.to_xml())
    }

    /// Decodes a transported record. Lease/publication instants are local
    /// to each side, so the record is published at `published_at` (the
    /// caller's "now", read once for a whole reply) with no lease.
    pub fn from_xml(e: &Element, published_at: Instant) -> Result<Self, RegistryError> {
        if e.name != "serviceInfo" {
            return Err(RegistryError::Protocol(format!(
                "expected <serviceInfo>, got <{}>",
                e.name
            )));
        }
        let desc = e
            .find("definitions")
            .ok_or_else(|| RegistryError::Protocol("serviceInfo missing definitions".into()))?;
        Ok(ServiceRecord {
            key: ServiceKey(
                e.require_attr("key")
                    .map_err(RegistryError::Protocol)?
                    .to_string(),
            ),
            business: BusinessKey(
                e.require_attr("business")
                    .map_err(RegistryError::Protocol)?
                    .to_string(),
            ),
            provider_name: e
                .require_attr("provider")
                .map_err(RegistryError::Protocol)?
                .to_string(),
            category: e.attr("category").unwrap_or("").to_string(),
            description: ServiceDescription::from_xml(desc)
                .map_err(|err| RegistryError::Protocol(err.to_string()))?,
            published_at,
            lease: None,
        })
    }
}

/// A find hit as UDDI's `find_service` lists it: one empty
/// `<serviceInfo key business name provider/>` element — the key
/// [`crate::RegistryClient::get_service`] fetches the full record by, the
/// owning business, the service name and the provider, what the Search
/// panel of Figure 3 lists, without the description.
///
/// The summary *is* that element, checked once when it is made and shared
/// from then on: the store keeps one per record, a find reply carries it,
/// and a client's hit is it (over the fabric the very tree the store
/// holds, over TCP the parsed one). The accessors read it in place.
#[derive(Debug, Clone)]
pub struct ServiceSummary(pub(crate) SharedElement);

/// Structural, as the elements compare.
impl PartialEq for ServiceSummary {
    fn eq(&self, other: &ServiceSummary) -> bool {
        *self.0 == *other.0
    }
}

impl Eq for ServiceSummary {}

impl From<&ServiceRecord> for ServiceSummary {
    /// Four attributes and no children: built at its exact length.
    fn from(record: &ServiceRecord) -> Self {
        ServiceSummary(SharedElement::new(
            Element::new("serviceInfo")
                .with_attr("key", &record.key.0)
                .with_attr("business", &record.business.0)
                .with_attr("name", &record.description.name)
                .with_attr("provider", &record.provider_name),
        ))
    }
}

impl ServiceSummary {
    /// Checks a transported summary and keeps the tree as it is. Every
    /// attribute is checked: each of the four must be there, and anything
    /// else — another attribute, a child such as a full record's
    /// `<definitions>` — is refused.
    pub fn from_xml(tree: SharedElement) -> Result<Self, RegistryError> {
        if tree.name != "serviceInfo" {
            return Err(RegistryError::Protocol(format!(
                "expected <serviceInfo>, got <{}>",
                tree.name
            )));
        }
        if let Some((other, _)) = tree
            .attrs
            .iter()
            .find(|(n, _)| !matches!(n.as_str(), "key" | "business" | "name" | "provider"))
        {
            return Err(RegistryError::Protocol(format!(
                "<serviceInfo> summary has unexpected attribute {other:?}"
            )));
        }
        if !tree.children.is_empty() {
            return Err(RegistryError::Protocol(
                "<serviceInfo> summary has content".into(),
            ));
        }
        for name in ["key", "business", "name", "provider"] {
            tree.require_attr(name).map_err(RegistryError::Protocol)?;
        }
        Ok(ServiceSummary(tree))
    }

    /// Registry-assigned key, the one [`crate::RegistryClient::get_service`]
    /// takes.
    pub fn key(&self) -> ServiceKey {
        ServiceKey(self.attr("key").to_string())
    }

    /// Key of the owning business.
    pub fn business(&self) -> &str {
        self.attr("business")
    }

    /// Service name.
    pub fn name(&self) -> &str {
        self.attr("name")
    }

    /// Provider name.
    pub fn provider_name(&self) -> &str {
        self.attr("provider")
    }

    fn attr(&self, name: &str) -> &str {
        self.0
            .attr(name)
            .expect("a summary's attributes are checked when it is made")
    }
}

/// A discovery query. All present criteria must match (logical AND);
/// strings match case-insensitively by prefix, mirroring how the Search
/// panel narrows the provider/service/operation lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FindQuery {
    /// Provider (business) name prefix.
    pub provider: Option<String>,
    /// Service name prefix.
    pub service_name: Option<String>,
    /// Operation name prefix.
    pub operation: Option<String>,
    /// Exact category.
    pub category: Option<String>,
}

impl FindQuery {
    /// Query matching everything.
    pub fn any() -> Self {
        FindQuery::default()
    }

    /// Builder: filter by provider name prefix.
    pub fn provider(mut self, p: impl Into<String>) -> Self {
        self.provider = Some(p.into());
        self
    }

    /// Builder: filter by service name prefix.
    pub fn service_name(mut self, n: impl Into<String>) -> Self {
        self.service_name = Some(n.into());
        self
    }

    /// Builder: filter by operation name prefix.
    pub fn operation(mut self, o: impl Into<String>) -> Self {
        self.operation = Some(o.into());
        self
    }

    /// Builder: filter by exact category.
    pub fn category(mut self, c: impl Into<String>) -> Self {
        self.category = Some(c.into());
        self
    }

    /// Encodes as the body of a `find_service` request.
    pub fn to_xml(&self) -> Element {
        Element::new("find_service")
            .with_opt_attr("provider", self.provider.clone())
            .with_opt_attr("name", self.service_name.clone())
            .with_opt_attr("operation", self.operation.clone())
            .with_opt_attr("category", self.category.clone())
    }

    /// Decodes a `find_service` request body.
    pub fn from_xml(e: &Element) -> Result<Self, RegistryError> {
        if e.name != "find_service" {
            return Err(RegistryError::Protocol(format!(
                "expected <find_service>, got <{}>",
                e.name
            )));
        }
        Ok(FindQuery {
            provider: e.attr("provider").map(str::to_string),
            service_name: e.attr("name").map(str::to_string),
            operation: e.attr("operation").map(str::to_string),
            category: e.attr("category").map(str::to_string),
        })
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Referenced business does not exist.
    UnknownBusiness(BusinessKey),
    /// Referenced service does not exist (or its lease expired).
    UnknownService(ServiceKey),
    /// A service with this name is already published by this business.
    DuplicateService {
        /// The conflicting business.
        business: BusinessKey,
        /// The conflicting service name.
        name: String,
    },
    /// Wire-protocol problem (malformed request/response).
    Protocol(String),
    /// The remote registry could not be reached.
    Unreachable(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownBusiness(k) => write!(f, "unknown business '{k}'"),
            RegistryError::UnknownService(k) => write!(f, "unknown service '{k}'"),
            RegistryError::DuplicateService { business, name } => {
                write!(
                    f,
                    "business '{business}' already publishes a service named {name:?}"
                )
            }
            RegistryError::Protocol(m) => write!(f, "registry protocol error: {m}"),
            RegistryError::Unreachable(m) => write!(f, "registry unreachable: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_wsdl::{Binding, OperationDef, ServiceDescription};

    fn record() -> ServiceRecord {
        ServiceRecord {
            key: ServiceKey("svc-1".into()),
            business: BusinessKey("biz-1".into()),
            provider_name: "AusAir".into(),
            category: "flight-booking".into(),
            description: ServiceDescription::new("Domestic Flight Booking", "AusAir")
                .with_operation(OperationDef::new("bookFlight"))
                .with_binding(Binding::fabric("svc.dfb")),
            published_at: Instant::now(),
            lease: None,
        }
    }

    #[test]
    fn record_xml_round_trip() {
        let r = record();
        let back = ServiceRecord::from_xml(&r.to_xml(), Instant::now()).unwrap();
        assert_eq!(back.key, r.key);
        assert_eq!(back.business, r.business);
        assert_eq!(back.provider_name, r.provider_name);
        assert_eq!(back.category, r.category);
        assert_eq!(back.description, r.description);
    }

    #[test]
    fn record_expiry() {
        let mut r = record();
        assert!(!r.is_expired(Instant::now()));
        r.lease = Some(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(r.is_expired(Instant::now()));
        r.lease = Some(Duration::from_secs(3600));
        assert!(!r.is_expired(Instant::now()));
    }

    #[test]
    fn query_xml_round_trip() {
        let q = FindQuery::any()
            .provider("Aus")
            .service_name("Domestic")
            .operation("book")
            .category("flight-booking");
        let back = FindQuery::from_xml(&q.to_xml()).unwrap();
        assert_eq!(back, q);
        let empty = FindQuery::from_xml(&FindQuery::any().to_xml()).unwrap();
        assert_eq!(empty, FindQuery::any());
    }

    #[test]
    fn decode_rejects_wrong_elements() {
        assert!(FindQuery::from_xml(&Element::new("nope")).is_err());
        assert!(ServiceRecord::from_xml(&Element::new("nope"), Instant::now()).is_err());
        // serviceInfo without definitions
        let e = Element::new("serviceInfo")
            .with_attr("key", "k")
            .with_attr("business", "b")
            .with_attr("provider", "p");
        assert!(ServiceRecord::from_xml(&e, Instant::now()).is_err());
    }

    /// Each document has exactly one fault, and each is refused with the
    /// same error whichever order the decoder reads it in.
    #[test]
    fn each_single_fault_is_refused_with_its_own_error() {
        let valid = record().to_xml();
        type Fault = fn(&mut Element);
        let cases: [(Fault, &str); 6] = [
            (
                |e| e.name = "serviceList".into(),
                "expected <serviceInfo>, got <serviceList>",
            ),
            (|e| e.children.clear(), "serviceInfo missing definitions"),
            (
                |e| e.attrs.retain(|(n, _)| n != "key"),
                "<serviceInfo> is missing required attribute \"key\"",
            ),
            (
                |e| e.attrs.retain(|(n, _)| n != "business"),
                "<serviceInfo> is missing required attribute \"business\"",
            ),
            (
                |e| e.attrs.retain(|(n, _)| n != "provider"),
                "<serviceInfo> is missing required attribute \"provider\"",
            ),
            (
                |e| {
                    let Some(selfserv_xml::Node::Element(d)) = e.children.first_mut() else {
                        panic!("definitions first");
                    };
                    d.attrs.retain(|(n, _)| n != "provider");
                },
                "malformed description: <definitions> is missing required attribute \"provider\"",
            ),
        ];
        for (fault, expected) in cases {
            let mut doc = valid.clone();
            fault(&mut doc);
            let err = ServiceRecord::from_xml(&doc, Instant::now()).unwrap_err();
            assert_eq!(
                err,
                RegistryError::Protocol(expected.into()),
                "{}",
                doc.to_xml()
            );
        }
    }

    #[test]
    fn summary_xml_round_trip() {
        let r = record();
        let summary = ServiceSummary::from(&r);
        assert_eq!(summary.key(), r.key);
        assert_eq!(summary.business(), r.business.0);
        assert_eq!(summary.name(), "Domestic Flight Booking");
        assert_eq!(summary.provider_name(), r.provider_name);
        let parsed = selfserv_xml::parse(&summary.0.to_xml()).unwrap();
        let back = ServiceSummary::from_xml(SharedElement::new(parsed)).unwrap();
        assert_eq!(back, summary);
    }

    /// A summary is refused for any one attribute missing, for anything it
    /// does not carry, and when a full record arrives in its place.
    #[test]
    fn each_single_summary_fault_is_refused_with_its_own_error() {
        let valid = (*ServiceSummary::from(&record()).0).clone();
        type Fault = fn(&mut Element);
        let cases: [(Fault, &str); 8] = [
            (
                |e| e.name = "serviceList".into(),
                "expected <serviceInfo>, got <serviceList>",
            ),
            (
                |e| e.attrs.retain(|(n, _)| n != "key"),
                "<serviceInfo> is missing required attribute \"key\"",
            ),
            (
                |e| e.attrs.retain(|(n, _)| n != "business"),
                "<serviceInfo> is missing required attribute \"business\"",
            ),
            (
                |e| e.attrs.retain(|(n, _)| n != "name"),
                "<serviceInfo> is missing required attribute \"name\"",
            ),
            (
                |e| e.attrs.retain(|(n, _)| n != "provider"),
                "<serviceInfo> is missing required attribute \"provider\"",
            ),
            (
                |e| e.set_attr("category", "flight-booking"),
                "<serviceInfo> summary has unexpected attribute \"category\"",
            ),
            (
                |e| e.push_child(Element::new("definitions")),
                "<serviceInfo> summary has content",
            ),
            (|e| e.push_text(" "), "<serviceInfo> summary has content"),
        ];
        for (fault, expected) in cases {
            let mut doc = valid.clone();
            fault(&mut doc);
            let err = ServiceSummary::from_xml(SharedElement::new(doc.clone())).unwrap_err();
            assert_eq!(
                err,
                RegistryError::Protocol(expected.into()),
                "{}",
                doc.to_xml()
            );
        }
        assert!(ServiceSummary::from_xml(SharedElement::new(record().to_xml())).is_err());
    }

    #[test]
    fn error_display() {
        let e = RegistryError::DuplicateService {
            business: BusinessKey("biz-9".into()),
            name: "X".into(),
        };
        assert!(e.to_string().contains("biz-9"));
    }
}
