//! The service manager facade (Figure 1) and the one-call travel demo.

use crate::backend::{ServiceBackend, ServiceHost, ServiceHostHandle};
use crate::deploy::{Deployer, Deployment, DeploymentError};
use crate::functions::FunctionLibrary;
use crate::protocol::{naming, ExecError};
use crate::travel_backends::*;
use selfserv_community::{
    Community, CommunityClient, CommunityServer, CommunityServerHandle, Member, MemberId,
    QosProfile, RoundRobin, SelectionPolicy,
};
use selfserv_expr::Value;
use selfserv_net::{ConnectError, NodeId, Transport, TransportHandle};
use selfserv_registry::{
    BusinessKey, FindQuery, RegistryError, RegistryServer, RegistryServerHandle, ServiceKey,
    UddiRegistry,
};
use selfserv_runtime::ExecutorHandle;
use selfserv_statechart::travel::{self, services};
use selfserv_statechart::Statechart;
use selfserv_wsdl::{Binding, OperationDef, Param, ParamType, ServiceDescription};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The SELF-SERV service manager: discovery engine + editor checks +
/// deployer, as one component.
pub struct ServiceManager {
    net: TransportHandle,
    registry: Arc<UddiRegistry>,
    registry_node: NodeId,
    _registry_server: RegistryServerHandle,
}

impl ServiceManager {
    /// Starts a manager whose discovery engine listens on `uddi`,
    /// scheduled on `exec`.
    pub fn start(net: &dyn Transport, exec: &ExecutorHandle) -> Result<Self, ConnectError> {
        Self::start_on(net, exec, "uddi")
    }

    /// Starts a manager with an explicit discovery-engine node name.
    pub fn start_on(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        node_name: &str,
    ) -> Result<Self, ConnectError> {
        let registry = Arc::new(UddiRegistry::new());
        let server = RegistryServer::spawn_on(net, exec, node_name, Arc::clone(&registry))?;
        Ok(ServiceManager {
            net: net.handle(),
            registry,
            registry_node: server.node().clone(),
            _registry_server: server,
        })
    }

    /// Shared access to the discovery engine's store (local API; remote
    /// clients use [`selfserv_registry::RegistryClient`] against
    /// [`Self::registry_node`]).
    pub fn registry(&self) -> &Arc<UddiRegistry> {
        &self.registry
    }

    /// The discovery engine's fabric node.
    pub fn registry_node(&self) -> &NodeId {
        &self.registry_node
    }

    /// The transport this manager lives on.
    pub fn network(&self) -> &TransportHandle {
        &self.net
    }

    /// The service editor's pre-deployment analysis: statechart validation
    /// findings plus a check that every referenced component service is
    /// known to the discovery engine (the demo required components to be
    /// "previously registered with the Discovery Engine").
    pub fn edit_check(&self, sc: &Statechart) -> Vec<String> {
        let mut findings: Vec<String> =
            sc.validate().issues.iter().map(|i| i.to_string()).collect();
        for service in sc.referenced_services() {
            if self
                .registry
                .find(&FindQuery::any().service_name(&service))
                .is_empty()
            {
                findings.push(format!(
                    "warning[unregistered-service]: '{service}' is not registered with the \
                     discovery engine"
                ));
            }
        }
        for community in sc.referenced_communities() {
            let node = naming::community(&community);
            if !self.net.is_connected(node.as_str()) {
                findings.push(format!(
                    "warning[community-offline]: community '{community}' is not on the fabric"
                ));
            }
        }
        findings
    }

    /// Registers a provider and publishes one service description under it.
    pub fn publish_service(
        &self,
        provider: &str,
        contact: &str,
        category: &str,
        description: ServiceDescription,
    ) -> Result<(BusinessKey, ServiceKey), RegistryError> {
        let business = match self
            .registry
            .find_businesses(provider)
            .into_iter()
            .find(|b| b.name == provider)
        {
            Some(b) => b.key,
            None => self.registry.save_business(provider, contact).key,
        };
        let key = self
            .registry
            .save_service(&business, category, description, None)?;
        Ok((business, key))
    }

    /// Publishes a deployed composite service so end users can locate and
    /// execute it (the demo's Publish panel). The description's single
    /// `execute` operation takes the statechart variables as optional
    /// inputs and is bound to the wrapper node.
    pub fn publish_composite(
        &self,
        deployment: &Deployment,
        statechart: &Statechart,
        provider: &str,
        contact: &str,
    ) -> Result<(BusinessKey, ServiceKey), RegistryError> {
        let mut op = OperationDef::new("execute").with_doc(format!(
            "Executes the composite service '{}'",
            statechart.name
        ));
        for v in &statechart.variables {
            op.inputs.push(Param::optional(v.name.clone(), v.ty));
        }
        let description = ServiceDescription::new(statechart.name.clone(), provider)
            .with_doc("Composite service deployed by SELF-SERV")
            .with_operation(op)
            .with_binding(Binding::fabric(deployment.wrapper_node().as_str()));
        self.publish_service(provider, contact, "composite", description)
    }
}

/// Which accommodation providers join the demo community — this decides
/// whether the `near(major_attraction, accommodation)` guard holds, i.e.
/// whether the Car Rental state runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccommodationChoice {
    /// Only the hotel near the major attraction (CR is skipped).
    NearAttraction,
    /// Only the far-away hostel (CR runs).
    FarFromAttraction,
    /// Both providers, selected round-robin.
    Mixed,
}

/// Configuration of [`TravelDemo::launch`].
pub struct TravelDemoConfig {
    /// Simulated service time of every elementary provider.
    pub service_latency: Duration,
    /// Accommodation community membership.
    pub accommodation: AccommodationChoice,
    /// Member-selection policy for the community.
    pub policy: Arc<dyn SelectionPolicy>,
}

impl Default for TravelDemoConfig {
    fn default() -> Self {
        TravelDemoConfig {
            service_latency: Duration::ZERO,
            accommodation: AccommodationChoice::NearAttraction,
            policy: Arc::new(RoundRobin::new()),
        }
    }
}

/// The complete Section-4 demo, assembled: registry, community with
/// accommodation members, elementary services, and the deployed travel
/// composite.
pub struct TravelDemo {
    /// The transport everything runs on.
    pub net: TransportHandle,
    /// The service manager (registry).
    pub manager: ServiceManager,
    /// The deployed composite.
    pub deployment: Deployment,
    /// The accommodation community.
    pub community: CommunityServerHandle,
    /// Member hosts (kept alive for the demo's duration).
    _member_hosts: Vec<ServiceHostHandle>,
}

impl TravelDemo {
    /// Spins up the whole scenario on `net` (any [`Transport`] — the demo
    /// runs identically over the simulated fabric and real TCP sockets),
    /// every component scheduled on `exec`.
    pub fn launch(
        net: &dyn Transport,
        exec: &ExecutorHandle,
        config: TravelDemoConfig,
    ) -> Result<TravelDemo, String> {
        let manager = ServiceManager::start(net, exec).map_err(|e| e.to_string())?;

        // (i) providers register their services with the discovery engine.
        for desc in travel::travel_service_descriptions() {
            manager
                .publish_service(&desc.provider.clone(), "demo@selfserv", "travel", desc)
                .map_err(|e| e.to_string())?;
        }

        // (ii) the accommodation community and its members.
        let community = CommunityServer::spawn_on(
            net,
            exec,
            naming::community(services::ACCOMMODATION_COMMUNITY).as_str(),
            Community::new(
                services::ACCOMMODATION_COMMUNITY,
                "Alternative accommodation providers",
            )
            .with_operation(
                OperationDef::new("bookAccommodation")
                    .with_input(Param::required("customer", ParamType::Str))
                    .with_input(Param::required("city", ParamType::Str))
                    .with_input(Param::optional("check_in", ParamType::Date))
                    .with_input(Param::optional("check_out", ParamType::Date))
                    .with_output(Param::required("location", ParamType::Str))
                    .with_output(Param::required("price", ParamType::Float)),
            ),
            config.policy.clone(),
            Default::default(),
        )
        .map_err(|e| e.to_string())?;

        let mut member_hosts = Vec::new();
        let join_client =
            CommunityClient::connect(net, "travel-demo-admin", community.node().clone())
                .map_err(|e| e.to_string())?;
        let mut join = |id: &str,
                        provider: &str,
                        location: &str,
                        rate: f64,
                        qos: QosProfile|
         -> Result<(), String> {
            let node = NodeId::new(format!("svc.accommodation.{id}"));
            let host = ServiceHost::spawn_on(
                net,
                exec,
                node.clone(),
                Arc::new(AccommodationService::new(
                    provider,
                    location,
                    rate,
                    config.service_latency,
                )),
            )
            .map_err(|e| e.to_string())?;
            member_hosts.push(host);
            join_client
                .join(&Member {
                    id: MemberId(id.to_string()),
                    provider: provider.to_string(),
                    endpoint: node,
                    qos,
                })
                .map_err(|e| e.to_string())
        };
        let near_qos = QosProfile::default().with_cost(210.0).with_reputation(0.9);
        let far_qos = QosProfile::default().with_cost(85.0).with_reputation(0.6);
        match config.accommodation {
            AccommodationChoice::NearAttraction => {
                join(
                    "cbd-hotel",
                    "CBD Hotel Group",
                    "Sydney CBD Hotel",
                    210.0,
                    near_qos,
                )?;
            }
            AccommodationChoice::FarFromAttraction => {
                join(
                    "bondi-hostel",
                    "Bondi Backpackers",
                    "Bondi Hostel",
                    85.0,
                    far_qos,
                )?;
            }
            AccommodationChoice::Mixed => {
                join(
                    "bondi-hostel",
                    "Bondi Backpackers",
                    "Bondi Hostel",
                    85.0,
                    far_qos,
                )?;
                join(
                    "cbd-hotel",
                    "CBD Hotel Group",
                    "Sydney CBD Hotel",
                    210.0,
                    near_qos,
                )?;
            }
        }

        // (iii) elementary-service backends, co-located with their
        // coordinators.
        let lat = config.service_latency;
        let mut backends: HashMap<String, Arc<dyn ServiceBackend>> = HashMap::new();
        backends.insert(
            services::DOMESTIC_FLIGHT.to_string(),
            Arc::new(FlightBookingService::domestic(lat)),
        );
        backends.insert(
            services::INTERNATIONAL_FLIGHT.to_string(),
            Arc::new(FlightBookingService::international(lat)),
        );
        backends.insert(
            services::TRAVEL_INSURANCE.to_string(),
            Arc::new(InsuranceService::new(lat)),
        );
        backends.insert(
            services::ATTRACTION_SEARCH.to_string(),
            Arc::new(AttractionSearchService::new(lat)),
        );
        backends.insert(
            services::CAR_RENTAL.to_string(),
            Arc::new(CarRentalService::new(lat)),
        );

        // (iv) deploy and publish the composite.
        let statechart = travel::travel_statechart();
        let deployment = Deployer::new(net)
            .with_executor(exec.clone())
            .with_functions(FunctionLibrary::travel())
            .deploy(&statechart, &backends)
            .map_err(|e: DeploymentError| e.to_string())?;
        manager
            .publish_composite(&deployment, &statechart, "SELF-SERV Demo", "demo@selfserv")
            .map_err(|e| e.to_string())?;

        Ok(TravelDemo {
            net: net.handle(),
            manager,
            deployment,
            community,
            _member_hosts: member_hosts,
        })
    }

    /// Books a trip (the Execute panel of Figure 3).
    pub fn book_trip(
        &self,
        customer: &str,
        destination: &str,
        departure: &str,
        return_date: &str,
    ) -> Result<selfserv_wsdl::MessageDoc, ExecError> {
        let input = selfserv_wsdl::MessageDoc::request("execute")
            .with("customer", Value::str(customer))
            .with("destination", Value::str(destination))
            .with("departure_date", Value::str(departure))
            .with("return_date", Value::str(return_date));
        self.deployment.execute(input, Duration::from_secs(30))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_net::{Network, NetworkConfig};
    use selfserv_runtime::Executor;

    #[test]
    fn manager_edit_check_flags_unregistered_services() {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(2);
        let manager = ServiceManager::start(&net, &exec.handle()).unwrap();
        let sc = travel::travel_statechart();
        let findings = manager.edit_check(&sc);
        assert!(
            findings.iter().any(|f| f.contains("unregistered-service")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.contains("community-offline")),
            "{findings:?}"
        );
        // Register everything → service warnings disappear.
        for desc in travel::travel_service_descriptions() {
            manager
                .publish_service(&desc.provider.clone(), "c", "travel", desc)
                .unwrap();
        }
        let findings = manager.edit_check(&sc);
        assert!(
            !findings.iter().any(|f| f.contains("unregistered-service")),
            "{findings:?}"
        );
        drop(manager);
        exec.shutdown();
    }

    #[test]
    fn demo_books_domestic_trip_near_attraction_skips_car() {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(2);
        let demo = TravelDemo::launch(&net, &exec.handle(), TravelDemoConfig::default()).unwrap();
        let out = demo
            .book_trip("Eileen", "Sydney", "2002-08-20", "2002-08-27")
            .unwrap();
        // Domestic branch ran.
        assert!(out
            .get_str("flight_confirmation")
            .unwrap()
            .starts_with("QF-"));
        // Accommodation near the Opera House → no car rental.
        assert_eq!(out.get_str("accommodation"), Some("Sydney CBD Hotel"));
        assert_eq!(out.get_str("major_attraction"), Some("Opera House"));
        assert!(out.get("car_confirmation").is_none(), "{out:?}");
        // No insurance on the domestic branch.
        assert!(out.get("insurance_policy").is_none());
        drop(demo);
        exec.shutdown();
    }

    #[test]
    fn demo_far_accommodation_triggers_car_rental() {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(2);
        let demo = TravelDemo::launch(
            &net,
            &exec.handle(),
            TravelDemoConfig {
                accommodation: AccommodationChoice::FarFromAttraction,
                ..Default::default()
            },
        )
        .unwrap();
        let out = demo
            .book_trip("Eileen", "Sydney", "2002-08-20", "2002-08-27")
            .unwrap();
        assert_eq!(out.get_str("accommodation"), Some("Bondi Hostel"));
        assert!(out.get_str("car_confirmation").unwrap().starts_with("CAR-"));
        drop(demo);
        exec.shutdown();
    }

    #[test]
    fn demo_international_trip_takes_insurance_branch() {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(2);
        let demo = TravelDemo::launch(
            &net,
            &exec.handle(),
            TravelDemoConfig {
                accommodation: AccommodationChoice::FarFromAttraction,
                ..Default::default()
            },
        )
        .unwrap();
        let out = demo
            .book_trip("Quan", "Hong Kong", "2002-08-20", "2002-09-01")
            .unwrap();
        // International branch: GW flight + insurance policy.
        assert!(out
            .get_str("flight_confirmation")
            .unwrap()
            .starts_with("GW-"));
        assert!(out.get_str("insurance_policy").unwrap().starts_with("POL-"));
        // Bondi Hostel is far from the Peak Tram → car rented.
        assert!(out.get("car_confirmation").is_some());
        drop(demo);
        exec.shutdown();
    }

    #[test]
    fn composite_is_locatable_in_the_registry() {
        let net = Network::new(NetworkConfig::instant());
        let exec = Executor::new(2);
        let demo = TravelDemo::launch(&net, &exec.handle(), TravelDemoConfig::default()).unwrap();
        let hits = demo
            .manager
            .registry()
            .find(&FindQuery::any().service_name("Travel Planning"));
        assert_eq!(hits.len(), 1);
        let binding = hits[0].description.primary_binding().unwrap();
        assert_eq!(binding.endpoint, demo.deployment.wrapper_node().as_str());
        // Elementary services are all registered too.
        assert_eq!(demo.manager.registry().find(&FindQuery::any()).len(), 6);
        drop(demo);
        exec.shutdown();
    }
}
