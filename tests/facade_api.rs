//! Smoke tests of the facade crate's re-exported API surface: everything a
//! downstream user touches in the README should be reachable through
//! `selfserv::*` paths.

use selfserv::community::{Community, QosProfile};
use selfserv::core::{Deployer, EchoService, ServiceBackend};
use selfserv::expr::{parse, MapEnv, Value};
use selfserv::net::{Network, NetworkConfig};
use selfserv::registry::{FindQuery, UddiRegistry};
use selfserv::routing::generate;
use selfserv::runtime::Executor;
use selfserv::statechart::{synth, StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv::xml::Element;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn readme_quickstart_compiles_and_runs() {
    let exec = Executor::new(2);
    let net = Network::new(NetworkConfig::instant());
    let statechart = StatechartBuilder::new("Hello")
        .variable("name", ParamType::Str)
        .initial("greet")
        .task(
            TaskDef::new("greet", "Greet")
                .service("Greeter", "greet")
                .input("who", "name"),
        )
        .final_state("done")
        .transition(TransitionDef::new("t", "greet", "done"))
        .build()
        .unwrap();
    let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
    backends.insert("Greeter".into(), Arc::new(EchoService::new("Greeter")));
    let deployment = Deployer::new(&net)
        .with_executor(exec.handle())
        .deploy(&statechart, &backends)
        .unwrap();
    let out = deployment
        .execute(
            MessageDoc::request("execute").with("name", "world".into()),
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(out.get_str("name"), Some("world"));
    drop(deployment);
    exec.shutdown();
}

#[test]
fn every_facade_module_is_usable() {
    // xml
    let doc = Element::new("x").with_attr("a", "1");
    assert_eq!(selfserv::xml::parse(&doc.to_xml()).unwrap(), doc);
    // expr
    let mut env = MapEnv::with_builtins();
    env.set("n", Value::Int(3));
    assert_eq!(parse("n * 2").unwrap().eval(&env).unwrap(), Value::Int(6));
    // wsdl
    let msg = MessageDoc::request("op").with("k", Value::str("v"));
    assert_eq!(MessageDoc::from_xml(&msg.to_xml()).unwrap(), msg);
    // statechart + routing
    let sc = synth::sequence(2);
    let plan = generate(&sc).unwrap();
    assert_eq!(plan.tables.len(), 2);
    // registry
    let reg = UddiRegistry::new();
    let biz = reg.save_business("B", "c").key;
    let desc = selfserv::wsdl::ServiceDescription::new("S", "B")
        .with_operation(selfserv::wsdl::OperationDef::new("op"))
        .with_binding(selfserv::wsdl::Binding::fabric("n"));
    reg.save_service(&biz, "cat", desc, None).unwrap();
    assert_eq!(reg.find(&FindQuery::any()).len(), 1);
    // community
    let c = Community::new("C", "").with_operation(selfserv::wsdl::OperationDef::new("op"));
    assert!(c.is_empty());
    let _ = QosProfile::default();
    // version constant
    assert!(!selfserv::PLATFORM_VERSION.is_empty());
}
