//! Scaling in-flight invocations: 10,000 composite instances all awaiting
//! a slow provider at once, on a 4-worker executor, with zero threads
//! parked for the waits.
//!
//! ```text
//! cargo run --release --example inflight_scale
//! ```
//!
//! The continuation-passing coordinator dispatches each state task with
//! `NodeCtx::rpc_async` and resumes when the completion event arrives, so
//! the number of concurrently *blocked* invocations no longer appears in
//! the process's thread budget. This example deploys one community-task
//! composite, submits 10k instances without blocking the caller
//! (`Deployment::submit`), holds every one of them inside a deliberately
//! slow community, prints the thread count while they wait, then releases
//! the backlog and collects all 10k results.

use selfserv::core::Deployer;
use selfserv::net::{Envelope, Network, NetworkConfig};
use selfserv::runtime::{Executor, Flow, NodeCtx, NodeLogic, TimerToken};
use selfserv::statechart::{StatechartBuilder, TaskDef, TransitionDef};
use selfserv::wsdl::{MessageDoc, ParamType};
use selfserv_expr::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const INSTANCES: usize = 10_000;
const WORKERS: usize = 4;

/// A provider community that answers every invocation `HOLD` after it
/// arrived — event-driven, so the *provider* parks no threads either.
struct SlowCommunity {
    holding: Vec<Envelope>,
    arrived: Arc<AtomicUsize>,
}

const HOLD: Duration = Duration::from_millis(1500);
const FLUSH: TimerToken = TimerToken(1);

impl NodeLogic for SlowCommunity {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        if env.kind == "community.invoke" {
            if self.holding.is_empty() {
                ctx.set_timer(HOLD, FLUSH);
            }
            self.holding.push(env);
            if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == INSTANCES {
                // The full backlog is parked here at once; answer it.
                self.flush(ctx);
            }
        }
        Flow::Continue
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerToken) -> Flow {
        self.flush(ctx); // safety flush for stragglers
        Flow::Continue
    }
}

impl SlowCommunity {
    fn flush(&mut self, ctx: &NodeCtx<'_>) {
        for request in self.holding.drain(..) {
            let op = MessageDoc::from_xml(&request.body)
                .map(|m| m.operation)
                .unwrap_or_else(|_| "op".to_string());
            let response = MessageDoc::response(op).with("served_by", Value::str("SlowFarm"));
            let _ = ctx
                .endpoint()
                .reply(&request, "community.result", response.to_xml());
        }
    }
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

fn main() {
    let exec = Executor::new(WORKERS);
    let net = Network::new(NetworkConfig::instant());

    let arrived = Arc::new(AtomicUsize::new(0));
    let community = exec.handle().spawn_node(
        net.connect("community.slowfarm")
            .expect("community connects"),
        SlowCommunity {
            holding: Vec::new(),
            arrived: Arc::clone(&arrived),
        },
    );

    let statechart = StatechartBuilder::new("Bulk Order")
        .variable("order", ParamType::Str)
        .variable("served_by", ParamType::Str)
        .initial("Place")
        .task(
            TaskDef::new("Place", "Place Order")
                .community("slowfarm", "place")
                .input("order", "order")
                .output("served_by", "served_by"),
        )
        .final_state("Done")
        .transition(TransitionDef::new("t", "Place", "Done"))
        .build()
        .expect("well-formed chart");

    let mut deployer = Deployer::new(&net).with_executor(exec.handle());
    deployer.invoke_timeout = Duration::from_secs(60);
    let dep = deployer
        .deploy(&statechart, &HashMap::new())
        .expect("deploys");

    println!(
        "deployed '{}' on a {WORKERS}-worker executor; threads now: {}",
        dep.composite(),
        thread_count()
    );

    // Fire 10k instances from this one thread — submit never blocks.
    let t0 = Instant::now();
    for i in 0..INSTANCES {
        dep.submit(MessageDoc::request("execute").with("order", Value::str(format!("o-{i}"))))
            .expect("submit accepted");
    }
    println!("submitted {INSTANCES} instances in {:?}", t0.elapsed());

    // Wait until every instance is parked inside the slow community.
    while arrived.load(Ordering::SeqCst) < INSTANCES {
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "{} invocations simultaneously awaiting a reply; threads: {} \
         (workers {WORKERS} + timer + transport/harness — nothing scales with instances)",
        arrived.load(Ordering::SeqCst),
        thread_count()
    );

    // The community answers once its hold ends; collect all 10k completions.
    let mut ok = 0usize;
    while ok < INSTANCES {
        let (_, outcome) = dep
            .collect_result(Duration::from_secs(30))
            .expect("completion arrives");
        outcome.expect("instance completes");
        ok += 1;
    }
    println!(
        "collected {ok} results in {:?} total; peak threads: {}",
        t0.elapsed(),
        thread_count()
    );

    dep.undeploy();
    community.stop();
    exec.shutdown();
}
