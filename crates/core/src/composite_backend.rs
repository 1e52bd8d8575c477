//! Nested composition: using a deployed composite service as a component
//! of another composite.
//!
//! The paper's service model is recursive — "SELF-SERV distinguishes three
//! types of services: elementary services, composite services, and service
//! communities", and a composite "aggregates multiple Web services which
//! are referred to as its components", with no restriction that components
//! be elementary. [`CompositeBackend`] adapts a running deployment's
//! wrapper endpoint to the [`ServiceBackend`] interface so a task state of
//! an outer composite can invoke an inner composite exactly like any other
//! provider.

use crate::backend::{ForwardCall, ServiceBackend};
use crate::protocol::{kinds, PersistentClient};
use selfserv_net::{NodeId, RpcError, Transport};
use selfserv_wsdl::MessageDoc;
use std::time::Duration;

/// A [`ServiceBackend`] that forwards invocations to a composite service's
/// wrapper node over the fabric.
pub struct CompositeBackend {
    name: String,
    wrapper_node: NodeId,
    /// Deadline for the nested execution (nested composites can be slow —
    /// they run a whole orchestration).
    pub timeout: Duration,
    /// Carries blocking-path invocations ([`ServiceBackend::invoke`]),
    /// which only a direct caller outside any node makes: coordinators and
    /// service hosts start every call through `forward()` and relay it
    /// from their own node with `rpc_async`. Concurrent calls demultiplex
    /// on its endpoint, so nothing is allocated per call, and it connects
    /// lazily, on the first such call.
    client: PersistentClient,
}

impl CompositeBackend {
    /// Adapts the composite behind `wrapper_node` (e.g.
    /// [`crate::Deployment::wrapper_node`]) as a backend named `name`,
    /// over any [`Transport`]. Connects one client node (`nested.<name>~n`)
    /// that carries every invocation.
    pub fn new(name: impl Into<String>, net: &dyn Transport, wrapper_node: NodeId) -> Self {
        let name = name.into();
        CompositeBackend {
            client: PersistentClient::new(net, format!("nested.{name}")),
            name,
            wrapper_node,
            timeout: Duration::from_secs(60),
        }
    }
}

impl CompositeBackend {
    /// The nested composite takes its inputs as execute parameters.
    fn execute_request(&self, input: &MessageDoc) -> MessageDoc {
        let mut request = MessageDoc::request("execute");
        for (k, v) in input.iter() {
            request.set(k, v.clone());
        }
        request
    }
}

impl ServiceBackend for CompositeBackend {
    /// Blocking form, for a direct caller outside any node. Coordinators
    /// and [`crate::ServiceHost`]s never take this path: their calls start
    /// with [`ServiceBackend::forward`] below and await the nested
    /// execution continuation-passing.
    fn invoke(&self, _operation: &str, input: &MessageDoc) -> Result<MessageDoc, String> {
        let request = self.execute_request(input);
        let reply = self
            .client
            .endpoint()
            .rpc(
                self.wrapper_node.clone(),
                kinds::EXECUTE,
                request.to_xml(),
                self.timeout,
            )
            .map_err(|e| match e {
                RpcError::Timeout => format!("nested composite '{}' timed out", self.name),
                RpcError::Send(s) => format!("nested composite '{}' unreachable: {s}", self.name),
            })?;
        let response = MessageDoc::from_xml(&reply.body).map_err(|e| e.to_string())?;
        if response.is_fault() {
            return Err(format!(
                "nested composite '{}' faulted: {}",
                self.name,
                response.fault_reason().unwrap_or("unspecified")
            ));
        }
        Ok(response)
    }

    /// A nested invocation is pure forwarding — one request to the inner
    /// wrapper, one reply — so a coordinator carries it with zero parked
    /// workers for however long the whole nested orchestration takes.
    fn forward(&self, _operation: &str, input: &MessageDoc) -> Option<ForwardCall> {
        Some(ForwardCall {
            to: self.wrapper_node.clone(),
            kind: kinds::EXECUTE.to_string(),
            body: self.execute_request(input).to_xml(),
            timeout: self.timeout,
            label: format!("nested composite '{}'", self.name),
        })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::EchoService;
    use crate::deploy::Deployer;
    use selfserv_expr::Value;
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;
    use selfserv_statechart::{StatechartBuilder, TaskDef, TransitionDef};
    use selfserv_wsdl::ParamType;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn inner_chart() -> selfserv_statechart::Statechart {
        StatechartBuilder::new("Inner Pricing")
            .variable("item", ParamType::Str)
            .variable("quote", ParamType::Str)
            .initial("q")
            .task(
                TaskDef::new("q", "Quote")
                    .service("PriceDb", "lookup")
                    .input("item", "item")
                    .output("echoed_by", "quote"),
            )
            .final_state("f")
            .transition(TransitionDef::new("t", "q", "f"))
            .build()
            .unwrap()
    }

    fn outer_chart() -> selfserv_statechart::Statechart {
        StatechartBuilder::new("Outer Order")
            .variable("item", ParamType::Str)
            .variable("quote", ParamType::Str)
            .variable("order_ref", ParamType::Str)
            .initial("price")
            .task(
                TaskDef::new("price", "Price via nested composite")
                    .service("Inner Pricing", "execute")
                    .input("item", "item")
                    .output("quote", "quote"),
            )
            .task(
                TaskDef::new("order", "Order")
                    .service("OrderDesk", "place")
                    .input("item", "item")
                    .output("echoed_by", "order_ref"),
            )
            .final_state("f")
            .transition(TransitionDef::new("t1", "price", "order"))
            .transition(TransitionDef::new("t2", "order", "f"))
            .build()
            .unwrap()
    }

    #[test]
    fn composite_as_component_of_composite() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        // Deploy the inner composite.
        let mut inner_backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        inner_backends.insert("PriceDb".into(), Arc::new(EchoService::new("PriceDb")));
        let inner = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&inner_chart(), &inner_backends)
            .unwrap();

        // Wire the inner composite in as a backend of the outer one.
        let mut outer_backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        outer_backends.insert(
            "Inner Pricing".into(),
            Arc::new(CompositeBackend::new(
                "Inner Pricing",
                &net,
                inner.wrapper_node().clone(),
            )),
        );
        outer_backends.insert("OrderDesk".into(), Arc::new(EchoService::new("OrderDesk")));
        let outer = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&outer_chart(), &outer_backends)
            .unwrap();

        let out = outer
            .execute(
                MessageDoc::request("execute").with("item", Value::str("beans")),
                Duration::from_secs(10),
            )
            .unwrap();
        assert_eq!(out.get_str("quote"), Some("PriceDb"), "{out:?}");
        assert_eq!(out.get_str("order_ref"), Some("OrderDesk"));
        drop((outer, inner));
        exec.shutdown();
    }

    #[test]
    fn nested_fault_propagates_to_outer_instance() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let mut inner_backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        inner_backends.insert(
            "PriceDb".into(),
            Arc::new(crate::backend::FailingService::new("PriceDb", "db down")),
        );
        let inner = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&inner_chart(), &inner_backends)
            .unwrap();

        let mut outer_backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        outer_backends.insert(
            "Inner Pricing".into(),
            Arc::new(CompositeBackend::new(
                "Inner Pricing",
                &net,
                inner.wrapper_node().clone(),
            )),
        );
        outer_backends.insert("OrderDesk".into(), Arc::new(EchoService::new("OrderDesk")));
        let outer = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&outer_chart(), &outer_backends)
            .unwrap();

        let err = outer
            .execute(
                MessageDoc::request("execute").with("item", Value::str("beans")),
                Duration::from_secs(10),
            )
            .unwrap_err();
        match err {
            crate::ExecError::Fault(reason) => {
                assert!(reason.contains("db down"), "{reason}")
            }
            other => panic!("expected fault, got {other:?}"),
        }
        drop((outer, inner));
        exec.shutdown();
    }

    #[test]
    fn undeployed_inner_composite_times_out() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let mut outer_backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        let mut backend =
            CompositeBackend::new("Inner Pricing", &net, NodeId::new("ghost.wrapper"));
        backend.timeout = Duration::from_millis(100);
        outer_backends.insert("Inner Pricing".into(), Arc::new(backend));
        outer_backends.insert("OrderDesk".into(), Arc::new(EchoService::new("OrderDesk")));
        let outer = Deployer::new(&net)
            .with_executor(exec.handle())
            .deploy(&outer_chart(), &outer_backends)
            .unwrap();
        let err = outer
            .execute(
                MessageDoc::request("execute").with("item", Value::str("x")),
                Duration::from_secs(5),
            )
            .unwrap_err();
        assert!(matches!(err, crate::ExecError::Fault(_)), "{err:?}");
        drop(outer);
        exec.shutdown();
    }
}
