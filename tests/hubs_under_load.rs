//! Three TCP hubs under load, with members churning and every hub's
//! `/metrics` scraped over HTTP while instances are open.
//!
//! Topology: three `TcpTransport` hubs joined through hub 0's discovery
//! seed, each with its own executor, discovery node, execution monitor and
//! metrics registry served over HTTP. Every hub owns one community whose
//! two replicas are **pinned to distinct hubs** (replica `j` of community
//! `i` runs on hub `(i + j) % 3`) with independent membership tables kept
//! convergent by replica anti-entropy plus the discovery gossip payload.
//! Every hub deploys one chart of each family — sequence, fan-out, deep
//! nesting, wide AND-split, guard loop, event-gated — with every task
//! rebound to the *neighbour* hub's community, so all invocation traffic
//! crosses TCP between hubs. One extra member per community cycles
//! join/leave for as long as the drivers run.
//!
//! The event-gated instances park until `release` is raised, and nobody
//! raises it before a scrape round has read open instances off the hubs
//! and every churn member has cycled: the scrapes and the churn happen
//! under load by construction, not by timing.
//!
//! Asserted, all after the load threads have joined:
//! * every instance completes with its payload — 0 faults, 0 duplicates
//!   (a completion matching no outstanding submission), 0 drops (a
//!   submission never answered);
//! * 0 scrape failures, and a scrape round that saw open instances;
//! * Σ scraped `selfserv_instances_finished_total` equals the completions
//!   the drivers counted;
//! * `selfserv_discovery_directory_size` is equal on all hubs;
//! * once churn stops, each community's replicas hold fingerprint-equal
//!   membership tables and the churn member is gone from all of them;
//! * after teardown the scraped `in_flight_rpcs`, `live_timers` and
//!   `blocked_workers` gauges of every hub's executor drain to 0.

use selfserv::community::{
    Community, CommunityClient, CommunityMetrics, CommunityServer, CommunityServerConfig,
    CommunityServerHandle, Member, MemberId, MembershipGossip, QosProfile, ReplicationConfig,
    RoundRobin,
};
use selfserv::core::{
    naming, Deployer, Deployment, EchoService, ExecutionMonitor, MonitorHandle, MonitorMetrics,
    MonitorOptions, ServiceHost, ServiceHostHandle,
};
use selfserv::discovery::{DiscoveryConfig, DiscoveryHandle, PeerDiscovery};
use selfserv::expr::Value;
use selfserv::net::{GossipPayloads, NodeId, TcpTransport};
use selfserv::obs::{http_get, parse, MetricsServer, Registry};
use selfserv::runtime::Executor;
use selfserv::statechart::{
    synth, ServiceBinding, StateKind, Statechart, StatechartBuilder, TaskDef, TransitionDef,
};
use selfserv::wsdl::{MessageDoc, ParamType};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HUBS: usize = 3;
const REPLICAS: usize = 2;
/// Stable members per community (the churn member comes on top).
const MEMBERS: usize = 3;
/// Instances each of the 18 deployments runs, at most `WINDOW` at a time.
const PER_DEPLOYMENT: usize = 20;
const WINDOW: usize = 8;
const PAYLOAD: &str = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";
const EVENT_CHART: &str = "EventGated";

struct Hub {
    index: usize,
    net: TcpTransport,
    exec: Executor,
    registry: Registry,
    metrics: MetricsServer,
    disc: DiscoveryHandle,
    /// Shared with this hub's discovery node; the replicas hosted here
    /// register their membership streams into it after spawn.
    payloads: GossipPayloads,
    monitor: MonitorHandle,
    members: Vec<ServiceHostHandle>,
    /// Community replicas hosted here, by community name: with cross-hub
    /// pinning a hub hosts one replica of several communities.
    replicas: Vec<(String, CommunityServerHandle)>,
    deployments: Vec<(String, Deployment)>,
}

fn community_name(hub: usize) -> String {
    format!("load-h{hub}")
}

fn member_node(hub: usize, member: &str) -> String {
    format!("member.h{hub}.{member}")
}

fn member(hub: usize, name: &str) -> Member {
    let node = member_node(hub, name);
    Member {
        id: MemberId(node.clone()),
        provider: format!("hub-{hub}"),
        endpoint: NodeId::new(node),
        qos: QosProfile::default(),
    }
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spawn_hub(index: usize, seed: Option<std::net::SocketAddr>) -> Hub {
    let net = TcpTransport::new();
    let exec = Executor::new(2);
    let registry = Registry::new();
    let label = format!("h{index}");
    let labels = [("hub", label.as_str())];

    // Gossip fast so the topology comes up quickly, but keep the default
    // failure-detection ladder (suspect after 2 s, evict after 6 s): a
    // debug build on a busy box stalls for longer than a test cadence's.
    let payloads = GossipPayloads::new();
    let mut cfg = DiscoveryConfig::default().with_payloads(payloads.clone());
    cfg.gossip_interval = Duration::from_millis(50);
    if let Some(seed) = seed {
        cfg = cfg.with_seed(seed);
    }
    let disc = PeerDiscovery::spawn_on(&net, &exec.handle(), cfg).expect("discovery spawns");

    net.register_metrics(&registry, &labels);
    exec.handle().register_metrics(&registry, &labels);
    disc.register_metrics(&registry, &labels);
    let monitor = ExecutionMonitor::spawn_with(
        &net,
        &exec.handle(),
        &format!("monitor.h{index}"),
        MonitorOptions {
            metrics: Some(MonitorMetrics::register(&registry, &labels)),
            max_traces: Some(64),
        },
    )
    .expect("monitor spawns");

    // Member nodes join nothing yet: membership is registered through
    // `CommunityClient` once the replicas are up, so it flows through the
    // replicated tables.
    let members = (0..MEMBERS)
        .map(|m| format!("m{m}"))
        .chain(["churn".to_string()])
        .map(|name| {
            ServiceHost::spawn_on(
                &net,
                &exec.handle(),
                member_node(index, &name),
                Arc::new(EchoService::new("member")),
            )
            .expect("member spawns")
        })
        .collect();

    let metrics = MetricsServer::serve(registry.clone(), "127.0.0.1:0").expect("/metrics binds");
    Hub {
        index,
        net,
        exec,
        registry,
        metrics,
        disc,
        payloads,
        monitor,
        members,
        replicas: Vec::new(),
        deployments: Vec::new(),
    }
}

/// Replica `j` of hub `i`'s community runs on hub `(i + j) % HUBS`.
fn spawn_communities(hubs: &mut [Hub]) {
    for i in 0..HUBS {
        let name = community_name(i);
        let base = naming::community(&name);
        for j in 0..REPLICAS {
            let host = &mut hubs[(i + j) % HUBS];
            let hub_label = format!("h{}", host.index);
            let replica_label = j.to_string();
            let labels = [
                ("hub", hub_label.as_str()),
                ("community", name.as_str()),
                ("replica", replica_label.as_str()),
            ];
            let replica = CommunityServer::spawn_replica_on(
                &host.net,
                &host.exec.handle(),
                base.as_str(),
                j,
                REPLICAS,
                Community::new(name.clone(), ""),
                Arc::new(RoundRobin::new()),
                CommunityServerConfig {
                    liveness: Some(host.disc.liveness()),
                    metrics: Some(CommunityMetrics::register(&host.registry, &labels)),
                    replication: ReplicationConfig {
                        directory: Some(host.disc.directory().clone()),
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .expect("community replica spawns");
            replica.register_metrics(&host.registry, &labels);
            host.payloads.register(MembershipGossip::new(
                base.as_str(),
                Arc::clone(replica.membership()),
            ));
            host.replicas.push((name.clone(), replica));
        }
    }
}

/// Joins each hub's stable members through its community's replica 0
/// (local to the owning hub), then waits until every replica — including
/// the ones on other hubs — has learned them.
fn join_members(hubs: &[Hub]) {
    for (i, hub) in hubs.iter().enumerate() {
        let client = CommunityClient::connect(
            &hub.net,
            &format!("ctl.join.h{i}"),
            naming::community(&community_name(i)),
        )
        .expect("join client connects");
        for m in 0..MEMBERS {
            client
                .join(&member(i, &format!("m{m}")))
                .expect("member joins");
        }
    }
    for hub in hubs {
        for (name, replica) in &hub.replicas {
            assert!(
                wait_until(Duration::from_secs(30), || replica.member_count()
                    == MEMBERS),
                "replica of {name} on hub {} learned {}/{MEMBERS} members",
                hub.index,
                replica.member_count(),
            );
        }
    }
}

/// Rebinds every service task of a chart to `community`, operation kept.
fn rebound_to(mut chart: Statechart, community: &str) -> Statechart {
    let tasks: Vec<_> = chart
        .states()
        .filter(|s| matches!(s.kind, StateKind::Task(_)))
        .cloned()
        .collect();
    for mut state in tasks {
        if let StateKind::Task(spec) = &mut state.kind {
            if let ServiceBinding::Service { operation, .. } = &spec.binding {
                spec.binding = ServiceBinding::Community {
                    community: community.to_string(),
                    operation: operation.clone(),
                };
                chart.insert_state(state);
            }
        }
    }
    chart
}

fn payload_task(id: &str, service: &str) -> TaskDef {
    TaskDef::new(id, id)
        .service(service, "run")
        .input("payload", "payload")
        .output("payload", "payload")
}

/// A cyclic work → check chart that re-enters its task three times.
fn loop_chart() -> Statechart {
    StatechartBuilder::new("GuardLoop")
        .variable("payload", ParamType::Str)
        .variable_init("attempts", ParamType::Int, Value::Int(0))
        .initial("work")
        .task(payload_task("work", "LoopWorker"))
        .choice("check", "Check")
        .final_state("done")
        .transition(TransitionDef::new("t1", "work", "check").action("attempts", "attempts + 1"))
        .transition(TransitionDef::new("retry", "check", "work").guard("attempts < 3"))
        .transition(TransitionDef::new("leave", "check", "done").guard("attempts >= 3"))
        .build()
        .expect("loop chart is well-formed")
}

/// The second task is gated on an external `release` event: every
/// instance parks mid-flight until somebody raises it.
fn event_chart() -> Statechart {
    StatechartBuilder::new(EVENT_CHART)
        .variable("payload", ParamType::Str)
        .initial("prepare")
        .task(payload_task("prepare", "Prep"))
        .task(payload_task("ship", "Ship"))
        .final_state("done")
        .transition(TransitionDef::new("t1", "prepare", "ship").event("release"))
        .transition(TransitionDef::new("t2", "ship", "done"))
        .build()
        .expect("event chart is well-formed")
}

/// Deploys one chart of every family on hub `h`, every task delegating to
/// the neighbour hub's community.
fn deploy_charts(hubs: &mut [Hub], h: usize) {
    let target = community_name((h + 1) % HUBS);
    for r in 0..REPLICAS {
        let replica = naming::community_replica(&target, r);
        assert!(
            hubs[h]
                .disc
                .wait_until_bound(replica.as_str(), Duration::from_secs(30)),
            "hub {h} never learned {replica} via gossip"
        );
    }
    let charts = [
        synth::sequence(3),
        synth::parallel(2),
        synth::nested(3),
        synth::ladder(2, 2),
        loop_chart(),
        event_chart(),
    ];
    for chart in charts {
        let family = chart.name.clone();
        let mut chart = rebound_to(chart, &target);
        // Coordinator and wrapper names must be unique across hubs.
        chart.name = format!("{family}-h{h}");
        let hub = &hubs[h];
        let deployment = Deployer::new(&hub.net)
            .with_executor(hub.exec.handle())
            .with_monitor(hub.monitor.node().clone())
            .with_liveness(hub.disc.liveness())
            .deploy(&chart, &HashMap::new())
            .expect("chart deploys");
        hubs[h].deployments.push((family, deployment));
    }
}

#[derive(Default, Debug)]
struct Tally {
    completed: usize,
    faulted: usize,
    duplicates: usize,
    drops: usize,
}

/// Runs `PER_DEPLOYMENT` instances through one deployment, `WINDOW` at a
/// time. Completions are matched to submissions by message id.
fn drive(deployment: &Deployment) -> Tally {
    let input = || {
        MessageDoc::request("execute")
            .with("payload", Value::str(PAYLOAD))
            .with("branch", Value::Int(0))
    };
    let mut tally = Tally::default();
    let mut outstanding = HashSet::new();
    let mut submitted = 0;
    let give_up = Instant::now() + Duration::from_secs(60);
    while (submitted < PER_DEPLOYMENT || !outstanding.is_empty()) && Instant::now() < give_up {
        while submitted < PER_DEPLOYMENT && outstanding.len() < WINDOW {
            match deployment.submit(input()) {
                Ok(id) => {
                    outstanding.insert(id);
                    submitted += 1;
                }
                // Outbound queue full: let completions drain the pipe.
                Err(_) => break,
            }
        }
        let Ok((id, outcome)) = deployment.collect_result(Duration::from_millis(100)) else {
            continue;
        };
        if !outstanding.remove(&id) {
            tally.duplicates += 1;
        } else if outcome.is_ok_and(|doc| doc.get_str("payload") == Some(PAYLOAD)) {
            tally.completed += 1;
        } else {
            tally.faulted += 1;
        }
    }
    tally.drops = PER_DEPLOYMENT - submitted + outstanding.len();
    tally
}

/// Series `names` of hub `index`, read off one fetch of its `/metrics`
/// over HTTP — parsed and validated, as an external Prometheus would.
fn scraped(index: usize, metrics: &MetricsServer, names: &[&str]) -> Result<Vec<f64>, String> {
    let text =
        http_get(metrics.addr(), "/metrics", Duration::from_secs(5)).map_err(|e| e.to_string())?;
    let exposition = parse::parse(&text)?;
    exposition.validate()?;
    let label = format!("h{index}");
    names
        .iter()
        .map(|name| {
            exposition
                .value(name, &[("hub", &label)])
                .ok_or_else(|| format!("hub {index} exports no {name}"))
        })
        .collect()
}

/// One series summed over all hubs, as scraped.
fn scraped_sum(hubs: &[Hub], name: &str) -> Result<f64, String> {
    hubs.iter()
        .map(|hub| Ok(scraped(hub.index, &hub.metrics, &[name])?[0]))
        .sum()
}

#[test]
fn three_hubs_run_every_chart_family_under_churn_and_live_scrapes() {
    let mut hubs: Vec<Hub> = Vec::new();
    for h in 0..HUBS {
        let seed = hubs.first().map(|h0| h0.disc.seed_addr());
        hubs.push(spawn_hub(h, seed));
    }
    spawn_communities(&mut hubs);
    join_members(&hubs);
    for h in 0..HUBS {
        deploy_charts(&mut hubs, h);
    }

    // --- Load --------------------------------------------------------------
    let done = AtomicBool::new(false);
    let scrape_rounds = AtomicUsize::new(0);
    let scrape_failures = AtomicUsize::new(0);
    let scraped_open = AtomicBool::new(false);
    let churn_cycles: Vec<AtomicUsize> = (0..HUBS).map(|_| AtomicUsize::new(0)).collect();
    let hubs_ref = &hubs;
    let tallies: Vec<(usize, String, Tally)> = std::thread::scope(|scope| {
        let drivers: Vec<_> = hubs_ref
            .iter()
            .flat_map(|hub| hub.deployments.iter().map(move |d| (hub.index, d)))
            .map(|(index, (family, deployment))| {
                scope.spawn(move || (index, family.clone(), drive(deployment)))
            })
            .collect();

        // Scraper: every hub's endpoint, round after round, the way an
        // external Prometheus would read it.
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                match scraped_sum(hubs_ref, "selfserv_instances_open") {
                    Ok(open) if open > 0.0 => scraped_open.store(true, Ordering::SeqCst),
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("scrape failed: {e}");
                        scrape_failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
                scrape_rounds.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        // Churn: one extra member per community cycles join → leave through
        // the rpc path real providers use — every cycle is a tombstone plus
        // a higher-versioned rejoin racing the replica gossip.
        for (i, hub) in hubs_ref.iter().enumerate() {
            let (done, cycles) = (&done, &churn_cycles[i]);
            scope.spawn(move || {
                let client = CommunityClient::connect(
                    &hub.net,
                    &format!("ctl.churn.h{i}"),
                    naming::community(&community_name(i)),
                )
                .expect("churn client connects");
                let churner = member(i, "churn");
                while !done.load(Ordering::SeqCst) {
                    let _ = client.join(&churner);
                    std::thread::sleep(Duration::from_millis(10));
                    let _ = client.leave(&churner.id);
                    std::thread::sleep(Duration::from_millis(10));
                    cycles.fetch_add(1, Ordering::SeqCst);
                }
                // End on a leave, so convergence is on "the churn member is
                // gone" and not on whichever half-cycle raced.
                let _ = client.leave(&churner.id);
            });
        }

        // Event pump: holds `release` back until the hubs have been scraped
        // with instances open and every community has churned, then keeps
        // raising it for as long as drivers run.
        scope.spawn(|| {
            wait_until(Duration::from_secs(30), || {
                scraped_open.load(Ordering::SeqCst)
                    && churn_cycles.iter().all(|c| c.load(Ordering::SeqCst) >= 2)
            });
            while !done.load(Ordering::SeqCst) {
                for hub in hubs_ref {
                    for (family, deployment) in &hub.deployments {
                        if family == EVENT_CHART {
                            deployment.raise_event("release", None);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let tallies = drivers
            .into_iter()
            .map(|d| d.join().expect("driver thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        tallies
    });

    // --- Every instance completed, exactly once ----------------------------
    for (hub, family, tally) in &tallies {
        assert_eq!(
            (
                tally.completed,
                tally.faulted,
                tally.duplicates,
                tally.drops
            ),
            (PER_DEPLOYMENT, 0, 0, 0),
            "{family} on hub {hub}: {tally:?}"
        );
    }
    let completed: usize = tallies.iter().map(|(_, _, t)| t.completed).sum();
    assert_eq!(completed, HUBS * 6 * PER_DEPLOYMENT);
    eprintln!(
        "  ({completed} instances, {} scrape rounds, churn cycles {churn_cycles:?})",
        scrape_rounds.load(Ordering::SeqCst)
    );

    // --- Scrapes -----------------------------------------------------------
    assert_eq!(scrape_failures.load(Ordering::SeqCst), 0, "scrape failures");
    assert!(
        scraped_open.load(Ordering::SeqCst),
        "no scrape round saw an open instance ({} rounds)",
        scrape_rounds.load(Ordering::SeqCst)
    );
    for (i, cycles) in churn_cycles.iter().enumerate() {
        assert!(cycles.load(Ordering::SeqCst) >= 2, "community {i} churned");
    }
    // Monitor traces are fire-and-forget: the last ones may still be on
    // their way when the drivers return.
    let mut finished = Ok(0.0);
    assert!(
        wait_until(Duration::from_secs(10), || {
            finished = scraped_sum(&hubs, "selfserv_instances_finished_total");
            finished == Ok(completed as f64)
        }),
        "scraped selfserv_instances_finished_total {finished:?}, drivers counted {completed}"
    );
    assert_eq!(
        scraped_sum(&hubs, "selfserv_instances_faulted_total"),
        Ok(0.0)
    );
    assert_eq!(scraped_sum(&hubs, "selfserv_instances_open"), Ok(0.0));

    // --- Directories and membership agree across hubs ------------------------
    let mut sizes = Vec::new();
    assert!(
        wait_until(Duration::from_secs(10), || {
            sizes = hubs
                .iter()
                .map(|hub| {
                    scraped(
                        hub.index,
                        &hub.metrics,
                        &["selfserv_discovery_directory_size"],
                    )
                })
                .collect();
            sizes[0].is_ok() && sizes.iter().all(|s| *s == sizes[0])
        }),
        "selfserv_discovery_directory_size differs across hubs: {sizes:?}"
    );
    let mut by_community: HashMap<&str, Vec<&CommunityServerHandle>> = HashMap::new();
    for hub in &hubs {
        for (name, replica) in &hub.replicas {
            by_community.entry(name).or_default().push(replica);
        }
    }
    for (name, replicas) in &by_community {
        assert_eq!(replicas.len(), REPLICAS);
        let prints = || -> Vec<u64> {
            replicas
                .iter()
                .map(|r| r.membership().read().fingerprint())
                .collect()
        };
        assert!(
            wait_until(Duration::from_secs(10), || {
                let prints = prints();
                prints.iter().all(|p| *p == prints[0])
            }),
            "membership of {name} did not converge: {:?}",
            prints()
        );
        for replica in replicas {
            assert_eq!(
                replica.member_count(),
                MEMBERS,
                "{name}: churn member resurrected after its final leave"
            );
        }
    }

    // --- Teardown leaks nothing ----------------------------------------------
    // The registries and their HTTP endpoints outlive the nodes, so the
    // drained gauges are read the way every other number here was.
    let mut servers = Vec::new();
    for hub in hubs {
        for (_, deployment) in hub.deployments {
            deployment.undeploy();
        }
        for (_, replica) in hub.replicas {
            replica.stop();
        }
        for host in hub.members {
            host.stop();
        }
        drop(hub.monitor);
        hub.disc.stop();
        servers.push((hub.index, hub.metrics, hub.exec));
    }
    for (index, metrics, exec) in servers {
        let gauges = || {
            let names = [
                "selfserv_executor_in_flight_rpcs",
                "selfserv_executor_live_timers",
                "selfserv_executor_blocked_workers",
            ];
            scraped(index, &metrics, &names)
        };
        assert!(
            wait_until(Duration::from_secs(5), || gauges() == Ok(vec![0.0; 3])),
            "hub {index} leaked (in-flight rpcs, live timers, blocked workers): {:?}",
            gauges()
        );
        exec.shutdown();
    }
}
