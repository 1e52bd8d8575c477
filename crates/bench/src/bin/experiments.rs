//! The experiments harness: regenerates a paper-shaped table for every
//! figure/claim of the SELF-SERV demo paper. The index — figure/claim, what
//! the table shows, the shape to expect — is in DESIGN.md under "Testing
//! strategy". The tables show shapes and message counts; a speed claim cites
//! the `benchmark/` package instead.
//!
//! ```text
//! cargo run -p selfserv-bench --release --bin experiments            # all
//! cargo run -p selfserv-bench --release --bin experiments -- e4 e5  # subset
//! ```

use selfserv_bench::*;
use selfserv_community::{
    Community, CommunityClient, CommunityServer, HistoryAware, LeastLoaded, Member, MemberId,
    QosProfile, RandomChoice, RoundRobin, SelectionPolicy, WeightedScoring,
};
use selfserv_core::{
    naming, AccommodationChoice, ServiceBackend, ServiceHost, SyntheticService, TravelDemo,
    TravelDemoConfig,
};
use selfserv_expr::Value;
use selfserv_net::{Network, NetworkConfig, NodeId};
use selfserv_registry::{FindQuery, RegistryClient, RegistryServer};
use selfserv_runtime::{Executor, ExecutorHandle};
use selfserv_statechart::{synth, Statechart};
use selfserv_wsdl::{MessageDoc, OperationDef, Param, ParamType};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One table's generator; every component it spawns runs on the pool it
/// is handed.
type Experiment = fn(&ExecutorHandle);

const EXPERIMENTS: [(&str, Experiment); 7] = [
    ("e1", e1_discovery),
    ("e2", e2_deployment),
    ("e3", e3_travel),
    ("e4", e4_p2p_vs_central),
    ("e5", e5_availability),
    ("e6", e6_selection_policies),
    ("e7", e7_routing_lookup),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &str| a == "all" || EXPERIMENTS.iter().any(|(name, _)| *name == a);
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        eprintln!("experiments: unknown experiment '{unknown}'; expected e1 … e7 | all");
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");

    println!("SELF-SERV experiment harness (index: DESIGN.md, \"Testing strategy\")");
    // Every component of every experiment runs on this one pool, a worker
    // per core; each experiment stops its components before it returns.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8));
    let exec = Executor::new(workers);
    for (name, run) in EXPERIMENTS {
        if run_all || args.iter().any(|a| a == name) {
            run(&exec.handle());
        }
    }
    exec.shutdown();
    println!("\ndone.");
}

// ---------------------------------------------------------------------
// E1 — Figure 1: the discovery engine (UDDI registry) under load.
// ---------------------------------------------------------------------
fn e1_discovery(exec: &ExecutorHandle) {
    let mut rows = Vec::new();
    for &size in &[100usize, 1_000, 10_000] {
        let t0 = Instant::now();
        let reg = seed_registry(size);
        let publish_total = t0.elapsed();

        let queries = 1_000;
        let time_queries = |f: &dyn Fn(usize)| {
            let t0 = Instant::now();
            for q in 0..queries {
                f(q);
            }
            t0.elapsed() / queries as u32
        };
        let by_provider = time_queries(&|q| {
            let _ = reg.find(&FindQuery::any().provider(format!("Provider{:04}", q % 7)));
        });
        let by_name = time_queries(&|q| {
            let _ = reg.find(&FindQuery::any().service_name(format!("Service{:05}", q % size)));
        });
        let by_operation = time_queries(&|q| {
            let _ = reg.find(&FindQuery::any().operation(format!("op{}", q % 50)));
        });
        rows.push(vec![
            size.to_string(),
            format!("{:.1}", size as f64 / publish_total.as_secs_f64()),
            us(by_provider),
            us(by_name),
            us(by_operation),
        ]);
    }
    print_table(
        "E1 (Figure 1) — discovery engine: publish throughput and find latency (local API)",
        &[
            "services",
            "publish/s",
            "find-by-provider us",
            "find-by-name us",
            "find-by-op us",
        ],
        &rows,
    );

    // The SOAP-call shape: the same finds through the fabric.
    let net = instant_net();
    let registry = Arc::new(seed_registry(1_000));
    let _server = RegistryServer::spawn_on(&net, exec, "uddi", Arc::clone(&registry)).unwrap();
    let client = RegistryClient::connect(&net, "e1-client", "uddi").unwrap();
    let t0 = Instant::now();
    let calls = 500;
    for q in 0..calls {
        client
            .find(&FindQuery::any().operation(format!("op{}", q % 50)))
            .unwrap();
    }
    let per_call = t0.elapsed() / calls as u32;
    println!(
        "\nSOAP-style find over the fabric (1k services; stored summaries shared, checked in place by the client): {} us/call",
        us(per_call)
    );
    println!(
        "expected shape: near-linear growth with registry size; remote call adds the \
         client's check of each hit's summary and a per-message constant."
    );
}

// ---------------------------------------------------------------------
// E2 — Figure 2: the editor→deployer pipeline (statechart XML → routing
// tables).
// ---------------------------------------------------------------------
fn e2_deployment(_exec: &ExecutorHandle) {
    type ShapeFn = Box<dyn Fn(usize) -> Statechart>;
    let shapes: Vec<(&str, ShapeFn)> = vec![
        ("sequence", Box::new(synth::sequence)),
        ("xor-choice", Box::new(synth::xor_choice)),
        ("parallel", Box::new(|n| synth::parallel(n.max(2)))),
        (
            "ladder(4 wide)",
            Box::new(|n| synth::ladder(4, (n / 4).max(1))),
        ),
    ];
    let mut rows = Vec::new();
    for (name, make) in &shapes {
        for &n in &[5usize, 10, 20, 40, 80, 160] {
            let sc = make(n);
            let xml = sc.to_xml().to_pretty_xml();
            let reps = 20u32;
            let t0 = Instant::now();
            for _ in 0..reps {
                let parsed = Statechart::from_xml_str(&xml).unwrap();
                assert!(parsed.validate().is_ok());
            }
            let parse_validate = t0.elapsed() / reps;
            let t0 = Instant::now();
            let mut plan = None;
            for _ in 0..reps {
                plan = Some(selfserv_routing::generate(&sc).unwrap());
            }
            let generate = t0.elapsed() / reps;
            let plan = plan.unwrap();
            rows.push(vec![
                name.to_string(),
                n.to_string(),
                (xml.len() / 1024).to_string(),
                us(parse_validate),
                us(generate),
                plan.tables.len().to_string(),
                plan.total_preconditions().to_string(),
                plan.total_notifications().to_string(),
            ]);
        }
    }
    print_table(
        "E2 (Figure 2) — editor/deployer pipeline cost vs statechart size",
        &[
            "topology",
            "tasks",
            "xml KiB",
            "parse+validate us",
            "gen tables us",
            "tables",
            "preconds",
            "notifs",
        ],
        &rows,
    );
    println!(
        "expected shape: all stages stay in the micro/millisecond range even at 160 states \
         ('rapid composition'); table counts grow linearly."
    );
}

// ---------------------------------------------------------------------
// E3 — Figure 3 + Section 4: locate and execute the travel scenario.
// ---------------------------------------------------------------------
fn e3_travel(exec: &ExecutorHandle) {
    let net = Network::new(NetworkConfig::instant());
    let demo = TravelDemo::launch(
        &net,
        exec,
        TravelDemoConfig {
            service_latency: Duration::from_millis(5),
            accommodation: AccommodationChoice::Mixed,
            ..Default::default()
        },
    )
    .unwrap();

    // Locate (Search panel): find by operation through the discovery
    // engine.
    let t0 = Instant::now();
    let hits = demo
        .manager
        .registry()
        .find(&FindQuery::any().service_name("Travel Planning"));
    let locate = t0.elapsed();
    assert_eq!(hits.len(), 1);

    // Execute both branches repeatedly.
    let mut rows = Vec::new();
    for (label, destination) in [
        ("domestic (Sydney)", "Sydney"),
        ("international (Hong Kong)", "Hong Kong"),
    ] {
        net.reset_metrics();
        let stats = run_batch(40, 4, |i| {
            demo.book_trip(
                &format!("Customer{i}"),
                destination,
                "2002-08-20",
                "2002-08-27",
            )
        });
        let metrics = net.metrics();
        let notify_messages: u64 = metrics
            .nodes
            .iter()
            .filter(|n| n.node.as_str().contains(".coord."))
            .map(|n| n.sent)
            .sum();
        rows.push(vec![
            label.to_string(),
            stats.completed.to_string(),
            ms(stats.mean()),
            ms(stats.percentile(0.95)),
            format!(
                "{:.1}",
                notify_messages as f64 / stats.completed.max(1) as f64
            ),
        ]);
    }
    print_table(
        "E3 (Figure 3) — locating and executing the travel composite (5 ms/service)",
        &[
            "branch",
            "completed",
            "mean ms",
            "p95 ms",
            "coord msgs/instance",
        ],
        &rows,
    );
    println!("locate via discovery engine: {} us", us(locate));
    println!(
        "expected shape: international branch is slower (extra insurance hop inside ITA); \
         coordination adds a handful of messages per instance."
    );
}

// ---------------------------------------------------------------------
// E4 — Section 1 claim: P2P avoids the central coordination bottleneck.
// ---------------------------------------------------------------------
fn e4_p2p_vs_central(exec: &ExecutorHandle) {
    let mut rows = Vec::new();
    let instances = 200;
    let concurrency = 8;
    for &n in &[2usize, 4, 8, 16, 32] {
        let sc = synth::sequence(n);

        // P2P.
        let net = instant_net();
        let dep = deploy_p2p(&net, exec, &sc, Duration::ZERO);
        net.reset_metrics();
        let p2p = run_batch(instances, concurrency, |i| {
            dep.execute(synth_input(i), Duration::from_secs(30))
        });
        let m = net.metrics();
        let (_, p2p_hot, _) = busiest(&m, |name| name.contains(".coord."));
        let p2p_total: u64 = m.total_sent();
        drop(dep);

        // Central.
        let net = instant_net();
        let (_hosts, central) = deploy_central(&net, exec, &sc, Duration::ZERO);
        net.reset_metrics();
        let cen = run_batch(instances, concurrency, |i| {
            central.execute(synth_input(i), Duration::from_secs(30))
        });
        let m = net.metrics();
        let (_, cen_hot, _) = busiest(&m, |name| name.ends_with(".central"));
        let cen_total: u64 = m.total_sent();

        rows.push(vec![
            n.to_string(),
            format!("{:.0}", p2p.throughput()),
            format!("{:.0}", cen.throughput()),
            format!("{:.1}", p2p_hot as f64 / instances as f64),
            format!("{:.1}", cen_hot as f64 / instances as f64),
            format!("{:.1}", p2p_total as f64 / instances as f64),
            format!("{:.1}", cen_total as f64 / instances as f64),
        ]);
    }
    print_table(
        &format!(
            "E4 — P2P vs centralized orchestration, sequence(N), {instances} instances, \
             concurrency {concurrency}"
        ),
        &[
            "N",
            "p2p inst/s",
            "central inst/s",
            "p2p hot msgs/inst",
            "central hot msgs/inst",
            "p2p total msgs/inst",
            "central total msgs/inst",
        ],
        &rows,
    );
    println!(
        "expected shape: the central engine's per-node load grows ~2N per instance while the \
         hottest P2P coordinator stays flat (2: one in, one out); P2P totals are N + 3 per \
         instance (request, Start, N - 1 hand-offs, final notification, reply: a finished \
         instance costs no cleanup message), below the central engine's 2N + 2 — the win is \
         distribution, exactly the paper's claim."
    );
}

// ---------------------------------------------------------------------
// E5 — Section 1 claim: availability under failure.
// ---------------------------------------------------------------------
fn e5_availability(exec: &ExecutorHandle) {
    let instances = 60;
    let concurrency = 6;
    let sc = synth::sequence(6);
    let mut rows = Vec::new();

    // (a) centralized, engine killed mid-run.
    {
        let net = instant_net();
        let (_hosts, central) = deploy_central(&net, exec, &sc, Duration::from_millis(3));
        let killed = std::sync::atomic::AtomicBool::new(false);
        let stats = run_batch(instances, concurrency, |i| {
            if i == instances / 3 && !killed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                net.kill(central.node());
            }
            central.execute(synth_input(i), Duration::from_millis(1500))
        });
        rows.push(vec![
            "central: kill engine at 33%".to_string(),
            format!("{:.0}%", stats.success_rate() * 100.0),
        ]);
    }

    // (b) P2P, one mid-pipeline coordinator killed mid-run.
    {
        let net = instant_net();
        let dep = deploy_p2p(&net, exec, &sc, Duration::from_millis(3));
        let victim = naming::coordinator(&sc.name, &"s3".into());
        let killed = std::sync::atomic::AtomicBool::new(false);
        let stats = run_batch(instances, concurrency, |i| {
            if i == instances / 3 && !killed.swap(true, std::sync::atomic::Ordering::SeqCst) {
                net.kill(&victim);
            }
            dep.execute(synth_input(i), Duration::from_millis(1500))
        });
        rows.push(vec![
            "p2p: kill coordinator s3 at 33%".to_string(),
            format!("{:.0}%", stats.success_rate() * 100.0),
        ]);
    }

    // (c) P2P with an XOR chart: the killed coordinator sits on a branch
    // only 1/3 of instances take — the rest are unaffected.
    {
        let xor = synth::xor_choice(3);
        let net = instant_net();
        let dep = deploy_p2p(&net, exec, &xor, Duration::from_millis(3));
        let victim = naming::coordinator(&xor.name, &"s2".into());
        net.kill(&victim);
        let stats = run_batch(instances, concurrency, |i| {
            dep.execute(synth_input(i), Duration::from_millis(1500))
        });
        rows.push(vec![
            "p2p xor(3): branch-2 coordinator dead the whole run".to_string(),
            format!("{:.0}%", stats.success_rate() * 100.0),
        ]);
    }

    // (d) community failover masks a dead member.
    {
        let net = instant_net();
        let community = CommunityServer::spawn_on(
            &net,
            exec,
            "community.acc",
            Community::new("acc", "").with_operation(OperationDef::new("book")),
            Arc::new(RoundRobin::new()),
            selfserv_community::CommunityServerConfig {
                member_timeout: Duration::from_millis(200),
                ..Default::default()
            },
        )
        .unwrap();
        let backend: Arc<dyn ServiceBackend> = Arc::new(SyntheticService::new("M"));
        let _h1 = ServiceHost::spawn_on(&net, exec, "svc.m1", Arc::clone(&backend)).unwrap();
        let _h2 = ServiceHost::spawn_on(&net, exec, "svc.m2", Arc::clone(&backend)).unwrap();
        let client = CommunityClient::connect(&net, "e5-client", "community.acc").unwrap();
        for (id, ep) in [("m1", "svc.m1"), ("m2", "svc.m2")] {
            client
                .join(&Member {
                    id: MemberId(id.into()),
                    provider: id.into(),
                    endpoint: NodeId::new(ep),
                    qos: QosProfile::default(),
                })
                .unwrap();
        }
        net.kill(&NodeId::new("svc.m1"));
        let mut ok = 0;
        for _ in 0..instances {
            if client.invoke(&MessageDoc::request("book")).is_ok() {
                ok += 1;
            }
        }
        rows.push(vec![
            "community: member m1 dead, failover to m2".to_string(),
            format!("{:.0}%", ok as f64 / instances as f64 * 100.0),
        ]);
        drop(community);
    }

    print_table(
        "E5 — availability under failure (completion rates)",
        &["scenario", "success"],
        &rows,
    );
    println!(
        "expected shape: killing the central engine aborts everything after the kill point; \
         killing one P2P coordinator only hurts instances that still need that state; \
         community failover keeps success at 100%."
    );
}

// ---------------------------------------------------------------------
// E6 — Section 2: delegatee selection policies.
// ---------------------------------------------------------------------
fn e6_selection_policies(exec: &ExecutorHandle) {
    let requests = 400;
    let policies: Vec<(&str, Arc<dyn SelectionPolicy>)> = vec![
        ("round-robin", Arc::new(RoundRobin::new())),
        ("random", Arc::new(RandomChoice::new(11))),
        ("least-loaded", Arc::new(LeastLoaded)),
        ("saw", Arc::new(WeightedScoring::default())),
        ("history-aware", Arc::new(HistoryAware::default())),
    ];
    // Heterogeneous members: advertised duration equals actual for all but
    // one liar (which advertises 5 ms but takes 80 ms) and one flaky member.
    let profile: Vec<(u64, f64, bool)> = vec![
        (10, 10.0, false),
        (20, 20.0, false),
        (40, 40.0, false),
        (80, 5.0, false), // the liar
        (15, 15.0, true), // flaky: 30% failures
        (25, 25.0, false),
        (60, 60.0, false),
        (30, 30.0, false),
    ];
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let net = instant_net();
        let node = format!("community.{name}");
        let community = CommunityServer::spawn_on(
            &net,
            exec,
            &node,
            Community::new("bench", "").with_operation(
                OperationDef::new("work").with_input(Param::optional("case", ParamType::Int)),
            ),
            policy,
            selfserv_community::CommunityServerConfig {
                member_timeout: Duration::from_millis(500),
                ..Default::default()
            },
        )
        .unwrap();
        let client = CommunityClient::connect(&net, "e6-client", node.as_str()).unwrap();
        let mut hosts = Vec::new();
        for (i, (actual_ms, advertised_ms, flaky)) in profile.iter().enumerate() {
            let ep = format!("svc.member{i}");
            let mut backend = SyntheticService::new(format!("member{i}"))
                .with_latency(Duration::from_millis(*actual_ms));
            if *flaky {
                backend = backend.with_failure_probability(0.3).with_seed(5);
            }
            hosts.push(
                ServiceHost::spawn_on(
                    &net,
                    exec,
                    ep.as_str(),
                    Arc::new(backend) as Arc<dyn ServiceBackend>,
                )
                .unwrap(),
            );
            client
                .join(&Member {
                    id: MemberId(format!("member{i}")),
                    provider: format!("member{i}"),
                    endpoint: NodeId::new(ep),
                    qos: QosProfile::default()
                        .with_duration_ms(*advertised_ms)
                        .with_cost(1.0)
                        .with_reliability(0.99),
                })
                .unwrap();
        }
        let t0 = Instant::now();
        let mut ok = 0usize;
        let mut latencies = Vec::with_capacity(requests);
        for i in 0..requests {
            let q0 = Instant::now();
            let result =
                client.invoke(&MessageDoc::request("work").with("case", Value::Int(i as i64)));
            if result.is_ok() {
                ok += 1;
                latencies.push(q0.elapsed());
            }
        }
        let wall = t0.elapsed();
        latencies.sort();
        let mean = if latencies.is_empty() {
            Duration::ZERO
        } else {
            latencies.iter().sum::<Duration>() / latencies.len() as u32
        };
        // Load skew via history in-flight totals is gone after completion;
        // approximate share from per-member completed counts.
        let hist = community.history().all();
        let counts: Vec<u64> = hist.values().map(|s| s.completed).collect();
        let max_share = counts.iter().copied().max().unwrap_or(0) as f64
            / counts.iter().copied().sum::<u64>().max(1) as f64;
        rows.push(vec![
            name.to_string(),
            ms(mean),
            format!("{:.0}%", ok as f64 / requests as f64 * 100.0),
            format!("{:.0}%", max_share * 100.0),
            format!("{:.0}", requests as f64 / wall.as_secs_f64()),
        ]);
        drop(community);
    }
    print_table(
        "E6 — community selection policies (8 heterogeneous members, one liar, one flaky, 400 sequential requests)",
        &["policy", "mean ms", "success", "busiest member share", "req/s"],
        &rows,
    );
    println!(
        "expected shape: history-aware beats advertised-QoS SAW once the liar is observed and \
         routes around the flaky member; round-robin spreads load most evenly (share ≈ 1/8) but \
         pays mean latency."
    );

    e6_delegation_modes(exec);
}

/// Ablation: proxy vs redirect delegation. Proxy keeps
/// the community on the data path (it relays request + reply); redirect
/// hands the caller the member binding and steps aside.
fn e6_delegation_modes(exec: &ExecutorHandle) {
    use selfserv_community::DelegationMode;
    let requests = 300;
    let mut rows = Vec::new();
    for (label, mode) in [
        ("proxy", DelegationMode::Proxy),
        ("redirect", DelegationMode::Redirect),
    ] {
        let net = instant_net();
        let node = format!("community.mode-{label}");
        let community = CommunityServer::spawn_on(
            &net,
            exec,
            &node,
            Community::new("mode-bench", "").with_operation(OperationDef::new("work")),
            Arc::new(RoundRobin::new()),
            selfserv_community::CommunityServerConfig {
                mode,
                ..Default::default()
            },
        )
        .unwrap();
        let client = CommunityClient::connect(&net, "mode-client", node.as_str()).unwrap();
        let mut hosts = Vec::new();
        for i in 0..4 {
            let ep = format!("svc.mode{i}");
            hosts.push(
                ServiceHost::spawn_on(
                    &net,
                    exec,
                    ep.as_str(),
                    Arc::new(SyntheticService::new(format!("m{i}"))) as Arc<dyn ServiceBackend>,
                )
                .unwrap(),
            );
            client
                .join(&Member {
                    id: MemberId(format!("m{i}")),
                    provider: format!("m{i}"),
                    endpoint: NodeId::new(ep),
                    qos: QosProfile::default(),
                })
                .unwrap();
        }
        net.reset_metrics();
        // A ~1 KiB payload so the broker's data-path cost is visible.
        let request = MessageDoc::request("work").with("blob", Value::str("x".repeat(1024)));
        let t0 = Instant::now();
        for _ in 0..requests {
            client.invoke(&request).unwrap();
        }
        let wall = t0.elapsed();
        let m = net.metrics();
        // Aggregate the community node plus its delegation workers (which
        // send under derived names).
        let (community_node, community_bytes) = m
            .nodes
            .iter()
            .filter(|n| n.node.as_str().starts_with(node.as_str()))
            .fold((0u64, 0u64), |(msgs, bytes), n| {
                (msgs + n.handled(), bytes + n.bytes_handled())
            });
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", community_node as f64 / requests as f64),
            format!("{:.0}", community_bytes as f64 / requests as f64),
            us(wall / requests as u32),
        ]);
        drop(community);
    }
    print_table(
        "E6b (ablation) — delegation mode: load on the community node per request",
        &[
            "mode",
            "community msgs/req",
            "community bytes/req",
            "mean us/req",
        ],
        &rows,
    );
    println!(
        "expected shape: redirect keeps the (potentially large) payload off the community node \
         — fewer bytes per request through the broker — at the cost of one extra client hop."
    );
}

// ---------------------------------------------------------------------
// E7 — Section 2: 'no complex scheduling algorithm' — per-notification
// routing-table decision cost.
// ---------------------------------------------------------------------
fn e7_routing_lookup(_exec: &ExecutorHandle) {
    use selfserv_routing::NotificationLabel;
    let mut rows = Vec::new();
    for &n in &[5usize, 20, 80, 160] {
        let sc = synth::sequence(n);
        let plan = selfserv_routing::generate(&sc).unwrap();
        let table = plan.table(&format!("s{}", n / 2).as_str().into()).unwrap();
        let seen = vec![NotificationLabel::Completed(
            format!("s{}", n / 2 - 1).as_str().into(),
        )];
        let reps = 200_000u32;
        let t0 = Instant::now();
        let mut hits = 0usize;
        for _ in 0..reps {
            for pre in &table.preconditions {
                if pre.satisfied_by(&seen) {
                    hits += 1;
                    break;
                }
            }
        }
        let per = t0.elapsed() / reps;
        assert!(hits > 0);

        // Worst case: the AND-join table of a wide ladder stage.
        let wide = synth::ladder(8, 1);
        let wide_plan = selfserv_routing::generate(&wide).unwrap();
        let fin = &wide_plan.wrapper.finish_alternatives[0];
        let all: Vec<NotificationLabel> = fin.labels.clone();
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(fin.satisfied_by(&all));
        }
        let join_per = t0.elapsed() / reps;
        rows.push(vec![
            n.to_string(),
            format!("{:.0}", per.as_nanos()),
            format!("{:.0}", join_per.as_nanos()),
        ]);
    }
    print_table(
        "E7 — routing-table decision cost per notification",
        &["chart tasks", "linear precondition ns", "8-way AND-join ns"],
        &rows,
    );
    println!(
        "expected shape: constant nanoseconds regardless of composition size — the coordinator \
         'does not implement any complex scheduling algorithm'."
    );
}
