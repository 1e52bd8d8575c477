//! Workload generators and table helpers of the `experiments` binary, which
//! regenerates one paper-shaped table per figure/claim of the SELF-SERV
//! paper (index: DESIGN.md, "Testing strategy"). Speed is measured by the
//! `benchmark/` package, not here.

use selfserv_core::{
    CentralConfig, CentralHandle, CentralizedOrchestrator, Deployer, Deployment, EchoService,
    FunctionLibrary, ServiceBackend, ServiceHost, ServiceHostHandle, SyntheticService,
};
use selfserv_expr::Value;
use selfserv_net::{MetricsSnapshot, Network, NetworkConfig};
use selfserv_registry::UddiRegistry;
use selfserv_runtime::ExecutorHandle;
use selfserv_statechart::Statechart;
use selfserv_wsdl::{Binding, MessageDoc, OperationDef, Param, ParamType, ServiceDescription};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An echo backend for one synthetic service, with the given simulated
/// service time.
fn synth_backend(name: &str, latency: Duration) -> Arc<dyn ServiceBackend> {
    if latency.is_zero() {
        Arc::new(EchoService::new(name))
    } else {
        Arc::new(SyntheticService::new(name).with_latency(latency))
    }
}

/// Deploys a synthetic chart peer-to-peer on `exec` and returns the
/// deployment.
pub fn deploy_p2p(
    net: &Network,
    exec: &ExecutorHandle,
    sc: &Statechart,
    service_latency: Duration,
) -> Deployment {
    let backends: HashMap<String, Arc<dyn ServiceBackend>> = sc
        .referenced_services()
        .into_iter()
        .map(|name| {
            let backend = synth_backend(&name, service_latency);
            (name, backend)
        })
        .collect();
    Deployer::new(net)
        .with_executor(exec.clone())
        .with_functions(FunctionLibrary::new())
        .deploy(sc, &backends)
        .expect("p2p deployment")
}

/// Spawns remote hosts plus the centralized engine for the same chart, all
/// on `exec`.
pub fn deploy_central(
    net: &Network,
    exec: &ExecutorHandle,
    sc: &Statechart,
    service_latency: Duration,
) -> (Vec<ServiceHostHandle>, CentralHandle) {
    let mut hosts = Vec::new();
    let mut service_nodes = HashMap::new();
    for name in sc.referenced_services() {
        let node = selfserv_core::naming::service_host(&name);
        let backend = synth_backend(&name, service_latency);
        hosts.push(ServiceHost::spawn_on(net, exec, node.clone(), backend).expect("host"));
        service_nodes.insert(name, node);
    }
    let central = CentralizedOrchestrator::spawn_on(
        net,
        exec,
        CentralConfig {
            statechart: sc.clone(),
            functions: FunctionLibrary::new(),
            service_nodes,
        },
    )
    .expect("central engine");
    (hosts, central)
}

/// The standard input for synthetic-chart executions.
pub fn synth_input(i: usize) -> MessageDoc {
    MessageDoc::request("execute")
        .with("payload", Value::str(format!("case-{i}")))
        .with("branch", Value::Int((i % 3) as i64))
}

/// Latency/throughput statistics of one batch run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Instances completed successfully.
    pub completed: usize,
    /// Instances that faulted or timed out.
    pub failed: usize,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Sorted per-instance latencies (successes only).
    pub latencies: Vec<Duration>,
}

impl RunStats {
    /// Mean latency.
    pub fn mean(&self) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        self.latencies.iter().sum::<Duration>() / self.latencies.len() as u32
    }

    /// Latency percentile (0.0–1.0).
    pub fn percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((self.latencies.len() as f64 - 1.0) * p).round() as usize;
        self.latencies[idx]
    }

    /// Completed instances per second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// Success fraction.
    pub fn success_rate(&self) -> f64 {
        let total = self.completed + self.failed;
        if total == 0 {
            0.0
        } else {
            self.completed as f64 / total as f64
        }
    }
}

/// Runs `total` executions through `execute` with `concurrency` worker
/// threads; `execute` receives the case index.
pub fn run_batch<F>(total: usize, concurrency: usize, execute: F) -> RunStats
where
    F: Fn(usize) -> Result<MessageDoc, selfserv_core::ExecError> + Send + Sync,
{
    let execute = &execute;
    let started = Instant::now();
    let results: Vec<(bool, Duration)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..concurrency {
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = w;
                while i < total {
                    let t0 = Instant::now();
                    let ok = execute(i).is_ok();
                    local.push((ok, t0.elapsed()));
                    i += concurrency;
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    });
    let wall = started.elapsed();
    let mut latencies: Vec<Duration> = results
        .iter()
        .filter(|(ok, _)| *ok)
        .map(|(_, d)| *d)
        .collect();
    latencies.sort();
    let completed = latencies.len();
    RunStats {
        completed,
        failed: results.len() - completed,
        wall,
        latencies,
    }
}

/// Seeds a registry with `n` synthetic services across `n / 10 + 1`
/// providers, with realistic name/operation variety.
pub fn seed_registry(n: usize) -> UddiRegistry {
    let reg = UddiRegistry::new();
    let categories = [
        "flight-booking",
        "accommodation",
        "car-rental",
        "insurance",
        "search",
    ];
    let mut businesses = Vec::new();
    for b in 0..(n / 10 + 1) {
        businesses.push(
            reg.save_business(format!("Provider{b:04}"), "ops@example")
                .key,
        );
    }
    for i in 0..n {
        let business = &businesses[i % businesses.len()];
        let desc = ServiceDescription::new(
            format!("Service{i:05}"),
            format!("Provider{:04}", i % businesses.len()),
        )
        .with_operation(
            OperationDef::new(format!("op{}", i % 50))
                .with_input(Param::required("arg", ParamType::Str)),
        )
        .with_operation(OperationDef::new("describe"))
        .with_binding(Binding::fabric(format!("svc.n{i}")));
        reg.save_service(business, categories[i % categories.len()], desc, None)
            .expect("seed publish");
    }
    reg
}

/// A fresh instant-latency fabric with a fixed seed.
pub fn instant_net() -> Network {
    Network::new(NetworkConfig::instant())
}

/// Pretty-prints an aligned table: `header` then rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(4)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Microseconds with one decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Summarises the busiest node among those whose name matches `pred`.
pub fn busiest(metrics: &MetricsSnapshot, pred: impl Fn(&str) -> bool) -> (String, u64, u64) {
    match metrics.busiest_matching(pred) {
        Some(n) => (n.node.as_str().to_string(), n.handled(), n.bytes_handled()),
        None => ("-".to_string(), 0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_batch_counts_and_orders() {
        let stats = run_batch(20, 4, |i| {
            if i % 5 == 0 {
                Err(selfserv_core::ExecError::Timeout)
            } else {
                Ok(MessageDoc::response("execute"))
            }
        });
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.failed, 4);
        assert!((stats.success_rate() - 0.8).abs() < 1e-9);
        assert!(stats.percentile(0.5) >= Duration::ZERO);
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn seed_registry_sizes() {
        let reg = seed_registry(100);
        assert_eq!(reg.service_count(), 100);
        assert!(reg.business_count() >= 10);
        let hits = reg.find(&selfserv_registry::FindQuery::any().operation("op1"));
        assert!(!hits.is_empty());
    }

    #[test]
    fn p2p_and_central_harness_agree() {
        let sc = selfserv_statechart::synth::sequence(3);
        let exec = selfserv_runtime::Executor::new(2);
        let net = instant_net();
        let dep = deploy_p2p(&net, &exec.handle(), &sc, Duration::ZERO);
        let out1 = dep.execute(synth_input(1), Duration::from_secs(5)).unwrap();

        let net2 = instant_net();
        let (hosts, central) = deploy_central(&net2, &exec.handle(), &sc, Duration::ZERO);
        let out2 = central
            .execute(synth_input(1), Duration::from_secs(5))
            .unwrap();
        assert_eq!(out1.get_str("payload"), out2.get_str("payload"));
        drop((dep, hosts, central));
        exec.shutdown();
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(ms(Duration::from_millis(1)), "1.00");
        assert_eq!(us(Duration::from_micros(5)), "5.0");
    }
}
