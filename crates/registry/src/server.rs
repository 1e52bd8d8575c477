//! The registry as a network service: XML request/response envelopes over
//! the fabric — the analogue of the original's UDDI/SOAP calls.

use crate::model::{
    BusinessEntity, BusinessKey, FindQuery, RegistryError, ServiceKey, ServiceRecord,
    ServiceSummary,
};
use crate::store::UddiRegistry;
use selfserv_net::{ConnectError, Endpoint, Envelope, NodeId, RpcError, Transport};
use selfserv_runtime::{ExecutorHandle, Flow, NodeCtx, NodeHandle, NodeLogic};
use selfserv_wsdl::ServiceDescription;
use selfserv_xml::{Element, Node, SharedElement};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message kinds of the registry protocol. None of them stops the server:
/// it stops only through its handle, and any other kind is answered with
/// a fault.
mod kinds {
    pub const SAVE_BUSINESS: &str = "uddi.save_business";
    pub const SAVE_SERVICE: &str = "uddi.save_service";
    pub const FIND_SERVICE: &str = "uddi.find_service";
    pub const FIND_BUSINESS: &str = "uddi.find_business";
    pub const GET_SERVICE: &str = "uddi.get_service";
    pub const DELETE_SERVICE: &str = "uddi.delete_service";
    pub const RESULT: &str = "uddi.result";
    pub const FAULT: &str = "uddi.fault";
}

/// A fault carries the error's fields, each in an attribute of its own,
/// so that [`decode_fault`] rebuilds the same value.
fn fault_body(err: &RegistryError) -> Element {
    let fault = Element::new("fault");
    match err {
        RegistryError::UnknownBusiness(business) => fault
            .with_attr("code", "unknown-business")
            .with_attr("business", &business.0),
        RegistryError::UnknownService(key) => fault
            .with_attr("code", "unknown-service")
            .with_attr("key", &key.0),
        RegistryError::DuplicateService { business, name } => fault
            .with_attr("code", "duplicate-service")
            .with_attr("business", &business.0)
            .with_attr("name", name),
        RegistryError::Protocol(reason) => fault
            .with_attr("code", "protocol")
            .with_attr("reason", reason),
        RegistryError::Unreachable(reason) => fault
            .with_attr("code", "unreachable")
            .with_attr("reason", reason),
    }
}

/// The error [`fault_body`] encoded; a fault missing the attributes its
/// code needs is itself a protocol error.
fn decode_fault(body: &Element) -> RegistryError {
    let attr = |name| body.attr(name).map(str::to_string);
    let decoded = match body.attr("code") {
        Some("unknown-business") => {
            attr("business").map(|b| RegistryError::UnknownBusiness(BusinessKey(b)))
        }
        Some("unknown-service") => {
            attr("key").map(|k| RegistryError::UnknownService(ServiceKey(k)))
        }
        Some("duplicate-service") => attr("business").zip(attr("name")).map(|(business, name)| {
            RegistryError::DuplicateService {
                business: BusinessKey(business),
                name,
            }
        }),
        Some("unreachable") => attr("reason").map(RegistryError::Unreachable),
        _ => attr("reason").map(RegistryError::Protocol),
    };
    decoded.unwrap_or_else(|| RegistryError::Protocol(format!("malformed fault {}", body.to_xml())))
}

/// The summaries a find reply lists; anything else in it is refused. Each
/// child is checked and kept as it came: a shared one (the fabric hands
/// over the stored trees) for no allocation, a parsed one (TCP) for the
/// one allocation that shares it. The hits vector is sized once.
fn decode_summaries(list: Element) -> Result<Vec<ServiceSummary>, RegistryError> {
    if list.name != "serviceList" {
        return Err(RegistryError::Protocol(format!(
            "expected <serviceList>, got <{}>",
            list.name
        )));
    }
    let mut hits = Vec::with_capacity(list.children.len());
    for child in list.children {
        hits.push(ServiceSummary::from_xml(match child {
            Node::Shared(info) => info,
            Node::Element(info) => SharedElement::new(info),
            Node::Text(_) | Node::Comment(_) => {
                return Err(RegistryError::Protocol(
                    "<serviceList> holds a non-element".into(),
                ))
            }
        })?);
    }
    Ok(hits)
}

/// Spawner for registry servers: serves the UDDI protocol on an executor
/// node until stopped.
pub struct RegistryServer;

pub(crate) struct RegistryLogic {
    pub(crate) registry: Arc<UddiRegistry>,
}

/// Handle to a spawned [`RegistryServer`] node.
pub struct RegistryServerHandle {
    handle: NodeHandle,
}

impl RegistryServerHandle {
    /// The node name the server listens on.
    pub fn node(&self) -> &NodeId {
        self.handle.node()
    }

    /// Stops the server and waits until its name is free.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl Drop for RegistryServerHandle {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

impl RegistryServer {
    /// Spawns a registry server on `node_name`, serving `registry`, over
    /// any [`Transport`], scheduled on `exec`.
    pub fn spawn_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        node_name: &str,
        registry: Arc<UddiRegistry>,
    ) -> Result<RegistryServerHandle, ConnectError> {
        let endpoint = net.connect(NodeId::new(node_name))?;
        Ok(RegistryServerHandle {
            handle: exec.spawn_node(endpoint, RegistryLogic { registry }),
        })
    }
}

impl NodeLogic for RegistryLogic {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, request: Envelope) -> Flow {
        let reply = self.handle(&request);
        let (kind, body) = match reply {
            Ok(body) => (kinds::RESULT, body),
            Err(err) => (kinds::FAULT, fault_body(&err)),
        };
        let _ = ctx.endpoint().reply(&request, kind, body);
        Flow::Continue
    }
}

impl RegistryLogic {
    /// The reply body for `request`, or the error its fault reports.
    pub(crate) fn handle(&self, request: &Envelope) -> Result<Element, RegistryError> {
        let body = &request.body;
        match request.kind.as_str() {
            kinds::SAVE_BUSINESS => {
                let name = body.require_attr("name").map_err(RegistryError::Protocol)?;
                let contact = body.attr("contact").unwrap_or("");
                let entity = self.registry.save_business(name, contact);
                Ok(Element::new("businessKey")
                    .with_attr("key", &entity.key.0)
                    .with_attr("name", &entity.name))
            }
            kinds::SAVE_SERVICE => {
                let business = BusinessKey(
                    body.require_attr("business")
                        .map_err(RegistryError::Protocol)?
                        .to_string(),
                );
                let category = body.attr("category").unwrap_or("").to_string();
                let lease = body
                    .attr("lease_ms")
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(Duration::from_millis);
                let def = body.find("definitions").ok_or_else(|| {
                    RegistryError::Protocol("save_service missing definitions".into())
                })?;
                let description = ServiceDescription::from_xml(def)
                    .map_err(|e| RegistryError::Protocol(e.to_string()))?;
                let key = self
                    .registry
                    .save_service(&business, category, description, lease)?;
                Ok(Element::new("serviceKey").with_attr("key", &key.0))
            }
            kinds::FIND_SERVICE => {
                let query = FindQuery::from_xml(body)?;
                let mut list = Element::new("serviceList");
                list.children.extend(
                    self.registry
                        .find_info(&query)
                        .into_iter()
                        .map(|summary| Node::Shared(summary.0)),
                );
                Ok(list)
            }
            kinds::FIND_BUSINESS => {
                let prefix = body.attr("prefix").unwrap_or("");
                let mut list = Element::new("businessList");
                for b in self.registry.find_businesses(prefix) {
                    list.push_child(
                        Element::new("business")
                            .with_attr("key", &b.key.0)
                            .with_attr("name", &b.name)
                            .with_attr("contact", &b.contact),
                    );
                }
                Ok(list)
            }
            kinds::GET_SERVICE => {
                let key = ServiceKey(
                    body.require_attr("key")
                        .map_err(RegistryError::Protocol)?
                        .to_string(),
                );
                self.registry.get_info(&key)
            }
            kinds::DELETE_SERVICE => {
                let key = ServiceKey(
                    body.require_attr("key")
                        .map_err(RegistryError::Protocol)?
                        .to_string(),
                );
                self.registry.delete_service(&key)?;
                Ok(Element::new("ok"))
            }
            other => Err(RegistryError::Protocol(format!(
                "unknown request kind {other:?}"
            ))),
        }
    }
}

/// Typed client for a remote registry node.
pub struct RegistryClient {
    endpoint: Endpoint,
    registry_node: NodeId,
    /// RPC deadline; defaults to 5 s.
    pub timeout: Duration,
}

impl RegistryClient {
    /// Connects a client node and points it at `registry_node`.
    pub fn connect(
        net: &dyn Transport,
        client_name: &str,
        registry_node: impl Into<NodeId>,
    ) -> Result<Self, ConnectError> {
        Ok(RegistryClient {
            endpoint: net.connect(NodeId::new(client_name))?,
            registry_node: registry_node.into(),
            timeout: Duration::from_secs(5),
        })
    }

    fn call(&self, kind: &str, body: Element) -> Result<Element, RegistryError> {
        let reply = self
            .endpoint
            .rpc(self.registry_node.clone(), kind, body, self.timeout)
            .map_err(|e| match e {
                RpcError::Timeout => RegistryError::Unreachable("rpc timeout".into()),
                RpcError::Send(s) => RegistryError::Unreachable(s.to_string()),
            })?;
        if reply.kind == kinds::FAULT {
            Err(decode_fault(&reply.body))
        } else {
            Ok(reply.body)
        }
    }

    /// Registers a provider.
    pub fn save_business(&self, name: &str, contact: &str) -> Result<BusinessKey, RegistryError> {
        let body = Element::new("save_business")
            .with_attr("name", name)
            .with_attr("contact", contact);
        let reply = self.call(kinds::SAVE_BUSINESS, body)?;
        Ok(BusinessKey(
            reply
                .require_attr("key")
                .map_err(RegistryError::Protocol)?
                .to_string(),
        ))
    }

    /// Publishes a service description.
    pub fn save_service(
        &self,
        business: &BusinessKey,
        category: &str,
        description: &ServiceDescription,
        lease: Option<Duration>,
    ) -> Result<ServiceKey, RegistryError> {
        let mut body = Element::new("save_service")
            .with_attr("business", &business.0)
            .with_attr("category", category);
        if let Some(l) = lease {
            body.set_attr("lease_ms", l.as_millis().to_string());
        }
        body.push_child(description.to_xml());
        let reply = self.call(kinds::SAVE_SERVICE, body)?;
        Ok(ServiceKey(
            reply
                .require_attr("key")
                .map_err(RegistryError::Protocol)?
                .to_string(),
        ))
    }

    /// Finds services matching a query: one summary per hit, in key order,
    /// as UDDI's `find_service` lists them, each the reply's
    /// `<serviceInfo>` tree checked in place. The full record of a hit is
    /// [`RegistryClient::get_service`]'s.
    pub fn find(&self, query: &FindQuery) -> Result<Vec<ServiceSummary>, RegistryError> {
        decode_summaries(self.call(kinds::FIND_SERVICE, query.to_xml())?)
    }

    /// Finds businesses by name prefix.
    pub fn find_businesses(&self, prefix: &str) -> Result<Vec<BusinessEntity>, RegistryError> {
        let reply = self.call(
            kinds::FIND_BUSINESS,
            Element::new("find_business").with_attr("prefix", prefix),
        )?;
        reply
            .find_all("business")
            .map(|b| {
                Ok(BusinessEntity {
                    key: BusinessKey(
                        b.require_attr("key")
                            .map_err(RegistryError::Protocol)?
                            .to_string(),
                    ),
                    name: b
                        .require_attr("name")
                        .map_err(RegistryError::Protocol)?
                        .to_string(),
                    contact: b.attr("contact").unwrap_or("").to_string(),
                })
            })
            .collect()
    }

    /// Retrieves a service by key.
    pub fn get_service(&self, key: &ServiceKey) -> Result<ServiceRecord, RegistryError> {
        let reply = self.call(
            kinds::GET_SERVICE,
            Element::new("get_service").with_attr("key", &key.0),
        )?;
        ServiceRecord::from_xml(&reply, Instant::now())
    }

    /// Deletes a service by key.
    pub fn delete_service(&self, key: &ServiceKey) -> Result<(), RegistryError> {
        self.call(
            kinds::DELETE_SERVICE,
            Element::new("delete_service").with_attr("key", &key.0),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;
    use selfserv_wsdl::{Binding, OperationDef};

    fn setup(exec: &ExecutorHandle) -> (Network, RegistryServerHandle, RegistryClient) {
        let net = Network::new(NetworkConfig::instant());
        let handle =
            RegistryServer::spawn_on(&net, exec, "uddi", Arc::new(UddiRegistry::new())).unwrap();
        let client = RegistryClient::connect(&net, "client", "uddi").unwrap();
        (net, handle, client)
    }

    fn desc(name: &str, op: &str) -> ServiceDescription {
        ServiceDescription::new(name, "TestCo")
            .with_operation(OperationDef::new(op))
            .with_binding(Binding::fabric("svc.x"))
    }

    #[test]
    fn remote_publish_and_find() {
        let exec = Executor::new(2);
        let (_net, _handle, client) = setup(&exec.handle());
        let biz = client.save_business("TestCo", "t@test").unwrap();
        let key = client
            .save_service(
                &biz,
                "travel",
                &desc("Attraction Search", "searchAttractions"),
                None,
            )
            .unwrap();
        let hits = client.find(&FindQuery::any().operation("search")).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key(), key);
        assert_eq!(hits[0].business(), biz.0);
        assert_eq!(hits[0].name(), "Attraction Search");
        assert_eq!(hits[0].provider_name(), "TestCo");
        exec.shutdown();
    }

    #[test]
    fn remote_get_and_delete() {
        let exec = Executor::new(2);
        let (_net, _handle, client) = setup(&exec.handle());
        let biz = client.save_business("TestCo", "t@test").unwrap();
        let key = client
            .save_service(&biz, "c", &desc("S", "op"), None)
            .unwrap();
        let rec = client.get_service(&key).unwrap();
        assert_eq!(rec.description.name, "S");
        client.delete_service(&key).unwrap();
        assert!(matches!(
            client.get_service(&key),
            Err(RegistryError::UnknownService(_))
        ));
        exec.shutdown();
    }

    /// Ten records of one business, `svc-2` and `svc-10` in "travel", and
    /// the server that answers for them.
    fn pinned_server() -> RegistryLogic {
        let registry = Arc::new(UddiRegistry::new());
        let biz = registry.save_business("Test & Co", "t@test").key;
        for i in 1..=10 {
            let category = if i == 2 || i == 10 { "travel" } else { "other" };
            registry
                .save_service(&biz, category, desc(&format!("S{i}"), "op<1>"), None)
                .unwrap();
        }
        RegistryLogic { registry }
    }

    /// The bytes of a find reply: one summary per hit, in key order
    /// (`svc-10` before `svc-2`).
    #[test]
    fn find_reply_bytes_are_pinned() {
        let request = Envelope::synthetic(
            NodeId::new("client"),
            kinds::FIND_SERVICE,
            FindQuery::any().category("travel").to_xml(),
        );
        let reply = pinned_server().handle(&request).unwrap();
        assert_eq!(
            reply.to_xml(),
            concat!(
                "<serviceList>",
                "<serviceInfo key=\"svc-10\" business=\"biz-1\" name=\"S10\" provider=\"Test &amp; Co\"/>",
                "<serviceInfo key=\"svc-2\" business=\"biz-1\" name=\"S2\" provider=\"Test &amp; Co\"/>",
                "</serviceList>"
            )
        );
        let reply = Envelope::synthetic(NodeId::new("uddi"), kinds::RESULT, reply);
        assert_eq!(reply.wire_size(), 254);
    }

    /// The bytes of a get reply: the full record, metadata and
    /// description, as `find` replies carried it before they were split.
    #[test]
    fn get_reply_bytes_are_pinned() {
        let request = Envelope::synthetic(
            NodeId::new("client"),
            kinds::GET_SERVICE,
            Element::new("get_service").with_attr("key", "svc-2"),
        );
        let reply = pinned_server().handle(&request).unwrap();
        assert_eq!(
            reply.to_xml(),
            concat!(
                "<serviceInfo key=\"svc-2\" business=\"biz-1\" provider=\"Test &amp; Co\" category=\"travel\">",
                "<definitions name=\"S2\" provider=\"TestCo\">",
                "<operation name=\"op&lt;1&gt;\"/>",
                "<binding protocol=\"selfserv\" endpoint=\"svc.x\"/>",
                "</definitions></serviceInfo>",
            )
        );
        let reply = Envelope::synthetic(NodeId::new("uddi"), kinds::RESULT, reply);
        assert_eq!(reply.wire_size(), 301);
    }

    /// What a client finds does not depend on what carried the reply: the
    /// fabric hands the stored summaries over by reference, TCP writes and
    /// parses them. Nor does what it gets.
    #[test]
    fn find_results_agree_over_fabric_and_tcp() {
        let exec = Executor::new(2);
        use selfserv_net::TcpTransport;
        let registry = Arc::new(UddiRegistry::new());
        let biz = registry.save_business("TestCo", "t@test").key;
        for i in 0..30 {
            let category = ["travel", "other"][i % 2];
            let d = desc(&format!("Service {i}"), &format!("op{}", i % 3));
            registry.save_service(&biz, category, d, None).unwrap();
        }

        let net = Network::new(NetworkConfig::instant());
        let _fabric_server =
            RegistryServer::spawn_on(&net, &exec.handle(), "uddi", Arc::clone(&registry)).unwrap();
        let over_fabric = RegistryClient::connect(&net, "client", "uddi").unwrap();

        let (hub_a, hub_b) = (TcpTransport::new(), TcpTransport::new());
        let _tcp_server =
            RegistryServer::spawn_on(&hub_b, &exec.handle(), "uddi", Arc::clone(&registry))
                .unwrap();
        let over_tcp = RegistryClient::connect(&hub_a, "client", "uddi").unwrap();
        hub_a.register_peer("uddi", hub_b.addr_of("uddi").unwrap());
        hub_b.register_peer("client", hub_a.addr_of("client").unwrap());

        for (query, hits) in [
            (FindQuery::any(), 30),
            (FindQuery::any().category("travel"), 15),
            (FindQuery::any().operation("op1"), 10),
            (FindQuery::any().service_name("service 2"), 11),
            (FindQuery::any().provider("nobody"), 0),
        ] {
            let expected: Vec<ServiceSummary> = registry
                .find(&query)
                .iter()
                .map(ServiceSummary::from)
                .collect();
            assert_eq!(expected.len(), hits, "{query:?}");
            assert_eq!(over_fabric.find(&query).unwrap(), expected, "{query:?}");
            assert_eq!(over_tcp.find(&query).unwrap(), expected, "{query:?}");
        }
        for summary in over_tcp.find(&FindQuery::any()).unwrap() {
            let expected = registry.get_service(&summary.key()).unwrap().to_xml();
            let fabric = over_fabric.get_service(&summary.key()).unwrap();
            let tcp = over_tcp.get_service(&summary.key()).unwrap();
            assert_eq!(fabric.to_xml(), expected, "{summary:?}");
            assert_eq!(tcp.to_xml(), expected, "{summary:?}");
        }
        drop((_tcp_server, _fabric_server));
        exec.shutdown();
    }

    #[test]
    fn remote_find_businesses() {
        let exec = Executor::new(2);
        let (_net, _handle, client) = setup(&exec.handle());
        client.save_business("AusAir", "a@a").unwrap();
        client.save_business("AusRail", "r@r").unwrap();
        client.save_business("WheelsNow", "w@w").unwrap();
        let hits = client.find_businesses("aus").unwrap();
        assert_eq!(hits.len(), 2);
        exec.shutdown();
    }

    #[test]
    fn faults_travel_back() {
        let exec = Executor::new(2);
        let (_net, _handle, client) = setup(&exec.handle());
        let err = client
            .save_service(&BusinessKey("ghost".into()), "c", &desc("S", "op"), None)
            .unwrap_err();
        assert_eq!(
            err,
            RegistryError::UnknownBusiness(BusinessKey("ghost".into()))
        );
        assert_eq!(err.to_string(), "unknown business 'ghost'");
        let biz = client.save_business("B", "x").unwrap();
        client
            .save_service(&biz, "c", &desc("S", "op"), None)
            .unwrap();
        let dup = client
            .save_service(&biz, "c", &desc("S", "op"), None)
            .unwrap_err();
        assert_eq!(
            dup,
            RegistryError::DuplicateService {
                business: biz,
                name: "S".into()
            }
        );
        exec.shutdown();
    }

    /// A find reply decodes only when it is a list of summaries, and a
    /// faulty child is refused with the same error whether it was parsed
    /// (TCP) or handed over shared (the fabric).
    #[test]
    fn malformed_find_replies_are_refused() {
        let record = pinned_server().registry.find(&FindQuery::any())[0].clone();
        let summary = ServiceSummary::from(&record);
        let owned = |child: Element| Element::new("serviceList").with_child(child);
        let shared = |child: Element| {
            let mut list = Element::new("serviceList");
            list.children.push(Node::Shared(SharedElement::new(child)));
            list
        };
        let valid = (*summary.0).clone();
        for reply in [owned(valid.clone()), shared(valid.clone())] {
            assert_eq!(
                decode_summaries(reply).unwrap(),
                std::slice::from_ref(&summary)
            );
        }
        for (reply, expected) in [
            (
                Element::new("businessList"),
                "expected <serviceList>, got <businessList>",
            ),
            (
                Element::new("serviceList").with_text("x"),
                "<serviceList> holds a non-element",
            ),
        ] {
            assert_eq!(
                decode_summaries(reply).unwrap_err(),
                RegistryError::Protocol(expected.into())
            );
        }
        let mut unnamed = valid.clone();
        unnamed.attrs.retain(|(n, _)| n != "name");
        for (child, expected) in [
            (
                record.to_xml(),
                "<serviceInfo> summary has unexpected attribute \"category\"",
            ),
            (
                Element::new("businessInfo"),
                "expected <serviceInfo>, got <businessInfo>",
            ),
            (
                unnamed,
                "<serviceInfo> is missing required attribute \"name\"",
            ),
            (
                valid.clone().with_text(" "),
                "<serviceInfo> summary has content",
            ),
        ] {
            for reply in [owned(child.clone()), shared(child.clone())] {
                assert_eq!(
                    decode_summaries(reply).unwrap_err(),
                    RegistryError::Protocol(expected.into()),
                    "{}",
                    child.to_xml()
                );
            }
        }
    }

    /// A fault decodes to the error it encoded, for every variant, with
    /// text that needs escaping in every field.
    #[test]
    fn remote_errors_round_trip() {
        let errors = [
            RegistryError::UnknownBusiness(BusinessKey("ghost <&\"'>".into())),
            RegistryError::UnknownService(ServiceKey("svc-404".into())),
            RegistryError::DuplicateService {
                business: BusinessKey("biz-7".into()),
                name: "Car & \"Rental\"".into(),
            },
            RegistryError::Protocol("expected <find_service>, got <x>".into()),
            RegistryError::Unreachable("rpc timeout".into()),
        ];
        for err in errors {
            let body = fault_body(&err);
            assert_eq!(decode_fault(&body), err, "{}", body.to_xml());
            let parsed = selfserv_xml::parse(&body.to_xml()).unwrap();
            assert_eq!(decode_fault(&parsed), err, "{}", body.to_xml());
        }
        assert_eq!(
            decode_fault(&Element::new("fault").with_attr("code", "unknown-service")),
            RegistryError::Protocol("malformed fault <fault code=\"unknown-service\"/>".into())
        );
    }

    #[test]
    fn unknown_request_kind_faults() {
        let exec = Executor::new(2);
        let (net, handle, _client) = setup(&exec.handle());
        let probe = net.connect("probe").unwrap();
        let reply = probe
            .rpc(
                handle.node().clone(),
                "uddi.reboot",
                Element::new("x"),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply.kind, "uddi.fault");
        exec.shutdown();
    }

    #[test]
    fn client_times_out_when_registry_dead() {
        let exec = Executor::new(2);
        let (net, handle, client) = setup(&exec.handle());
        net.kill(handle.node());
        let mut client = client;
        client.timeout = Duration::from_millis(80);
        let err = client.find(&FindQuery::any()).unwrap_err();
        assert!(matches!(err, RegistryError::Unreachable(_)), "{err:?}");
        exec.shutdown();
    }

    #[test]
    fn server_stop_disconnects_node() {
        let exec = Executor::new(2);
        let (net, handle, _client) = setup(&exec.handle());
        assert!(net.is_connected("uddi"));
        handle.stop();
        assert!(!net.is_connected("uddi"));
        exec.shutdown();
    }

    #[test]
    fn leases_respected_remotely() {
        let exec = Executor::new(2);
        let (_net, _handle, client) = setup(&exec.handle());
        let biz = client.save_business("B", "x").unwrap();
        client
            .save_service(
                &biz,
                "c",
                &desc("Flaky", "op"),
                Some(Duration::from_millis(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(10));
        assert!(client.find(&FindQuery::any()).unwrap().is_empty());
        exec.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let exec = Executor::new(2);
        let (net, _handle, client) = setup(&exec.handle());
        let biz = client.save_business("B", "x").unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let net = net.clone();
            let biz = biz.clone();
            handles.push(std::thread::spawn(move || {
                let c = RegistryClient::connect(&net, &format!("client{t}"), "uddi").unwrap();
                for i in 0..10 {
                    c.save_service(&biz, "bulk", &desc(&format!("S{t}-{i}"), "op"), None)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            client
                .find(&FindQuery::any().operation("op"))
                .unwrap()
                .len(),
            40
        );
        exec.shutdown();
    }
}
