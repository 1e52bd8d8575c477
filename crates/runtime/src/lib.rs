//! # selfserv-runtime
//!
//! The shared worker-pool node runtime of the SELF-SERV reproduction.
//!
//! The paper distributes the execution of a composite service across many
//! lightweight peers ("the responsibility of executing a composite service
//! is distributed across several peers"). A peer must therefore be cheap:
//! a deployment of thousands of coordinators cannot afford one OS thread
//! per peer parked in `recv`. This crate turns every platform component
//! into an event-driven state machine:
//!
//! * [`NodeLogic`] — the component contract: `on_start` / `on_message` /
//!   `on_timer` / `on_stop` callbacks over a transport
//!   [`Endpoint`](selfserv_net::Endpoint);
//! * [`Executor`] — a fixed-size worker pool multiplexing any number of
//!   nodes onto `W` threads, with **per-node mailbox serialization** (one
//!   node never runs on two workers at once), a timer service for the
//!   runtime's `sleep`-shaped delays, and graceful drain on shutdown;
//! * [`ExecutorHandle`] — the cloneable spawn handle components take
//!   instead of `std::thread::Builder`.
//!
//! ## Scheduling model
//!
//! Each spawned node owns its transport endpoint. The runtime installs a
//! *mailbox waker* on the endpoint
//! ([`Endpoint::set_mailbox_waker`](selfserv_net::Endpoint::set_mailbox_waker)):
//! when
//! a transport delivers an envelope, the waker enqueues the node on the
//! executor's run queue (if it is not already queued or running). A worker
//! then drains the node's pending timers and mailbox in arrival order,
//! invoking the callbacks with exclusive access to the logic — the
//! serialization the old one-thread-per-node model provided implicitly.
//! Nodes with empty mailboxes cost nothing: no thread, no poll.
//!
//! ## Waiting without parking: continuation-passing rpc
//!
//! Request/response that scales with load goes through
//! [`NodeCtx::rpc_async`]: the call registers a continuation in the
//! endpoint's reply demultiplexer and returns immediately; when the
//! correlated reply arrives (or the timer-service-backed deadline fires
//! first, or the request cannot be sent) the runtime queues an
//! [`RpcDone`] completion event and the node resumes in
//! [`NodeLogic::on_rpc_done`] — with the same exclusive serialization as
//! `on_message`, and with **zero workers parked** while the request was
//! in flight. A node that stops with requests outstanding cancels them:
//! their ids are retired so late replies are discarded at delivery, and
//! no completion is ever delivered. Off-node work (a blocking section)
//! resumes its node the same way through a [`TaskCompleter`].
//!
//! ## Blocking sections
//!
//! Inside a node there is one way to ask: [`NodeCtx::rpc_async`]. The one
//! kind of work that still parks a thread is a backend call that sleeps
//! to simulate service time. It never runs on a worker: the node starts
//! it with [`ExecutorHandle::spawn_blocking`], on a thread of its own,
//! and the call resumes the node through a [`TaskCompleter`]. The pool
//! itself is fixed: `W` workers from [`Executor::new`] to
//! [`Executor::shutdown`], none added, none retired.
//! [`NodeHandle::stop`] needs no worker either: unless a worker is
//! mid-turn on the node, the stopping thread runs the stop turn itself.
//!
//! The **thread budget** of an executor is therefore
//! `W (workers) + 1 (timer) + B (blocking backend calls in flight)`, and
//! a process adds its transport threads to the executors it created
//! itself (nothing starts a pool that no caller named). It is
//! independent of how many nodes are deployed, and,
//! since in-flight `rpc_async` invocations contribute nothing to `B`,
//! independent of how many requests are awaiting replies. The whole
//! delegation path is out of `B`: coordinators awaiting providers,
//! community servers holding open delegations, and service hosts
//! dispatching non-blocking backends all run continuation-passing, so `B`
//! is bounded by the backend calls that truly park a thread — not by
//! traffic; [`ExecutorHandle::blocked_workers`] reads it. The transport
//! term does not grow with nodes either: a TCP hub runs one accept
//! thread, one reader per inbound peer-hub connection and one writer per
//! active peer hub, however many nodes it hosts. It is elastic too: idle TCP writers
//! retire after a few seconds and respawn lazily on the next send.
//!
//! ## Shutdown ordering
//!
//! Stop nodes first ([`NodeHandle::stop`] queues a stop event, runs
//! `on_stop`, and drops the endpoint so the node's name frees up), then
//! [`Executor::shutdown`] — which lets workers drain the run queue before
//! joining them. Components' public handles do this in the right order
//! already. There is no process-wide pool: every component runs on the
//! executor its caller names, and whoever creates an [`Executor`] shuts
//! it down.

mod executor;
mod node;
mod timer;

pub use executor::{Executor, ExecutorHandle};
pub use node::{
    Flow, NodeCtx, NodeHandle, NodeLogic, RpcDone, RpcToken, TaskCompleter, TimerToken,
};

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;
    use selfserv_net::{Envelope, Network, NetworkConfig, RecvError};
    use selfserv_xml::Element;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Answers `ping` with `pong`.
    struct EchoLogic;

    impl NodeLogic for EchoLogic {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
            if env.kind == "ping" {
                let _ = ctx.endpoint().reply(&env, "pong", Element::new("pong"));
            }
            Flow::Continue
        }
    }

    #[test]
    fn node_answers_rpc_on_executor() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let _node = exec
            .handle()
            .spawn_node(net.connect("echo").unwrap(), EchoLogic);
        let client = net.connect("client").unwrap();
        let reply = client
            .rpc("echo", "ping", Element::new("ping"), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply.kind, "pong");
        exec.shutdown();
    }

    #[test]
    fn resolved_rpc_deadlines_are_invalidated_in_timer_heap() {
        /// Fires a burst of long-deadline requests; replies resolve them
        /// all long before the deadlines, so without lazy invalidation
        /// every deadline would squat in the timer heap for 100 s.
        struct Burster {
            total: usize,
            done: Arc<AtomicUsize>,
        }
        impl NodeLogic for Burster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..self.total {
                    ctx.rpc_async(
                        "echo",
                        "ping",
                        Element::new("ping"),
                        Duration::from_secs(100),
                        RpcToken(i as u64),
                    );
                }
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
            fn on_rpc_done(&mut self, _ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
                assert!(done.result.is_ok());
                self.done.fetch_add(1, Ordering::SeqCst);
                Flow::Continue
            }
        }
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let _echo = exec
            .handle()
            .spawn_node(net.connect("echo").unwrap(), EchoLogic);
        let done = Arc::new(AtomicUsize::new(0));
        let total = 200;
        let _burster = exec.handle().spawn_node(
            net.connect("burster").unwrap(),
            Burster {
                total,
                done: Arc::clone(&done),
            },
        );
        let t0 = Instant::now();
        while done.load(Ordering::SeqCst) < total && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(done.load(Ordering::SeqCst), total);
        // Every request resolved; tombstone-triggered rebuilds must have
        // swept the bulk of the 200 dead deadlines out of the heap (the
        // rebuild floor is 64 — below it, tombstones just wait).
        assert!(
            exec.timer_heap_len() < 64,
            "dead deadlines piled up: {} entries for 0 in-flight rpcs",
            exec.timer_heap_len()
        );
        exec.shutdown();
    }

    #[test]
    fn leak_audit_gauges_return_to_zero_after_quiesce() {
        /// One request that replies, one whose destination never answers
        /// (resolved by deadline), one to a nonexistent node (send error):
        /// all three decrement paths of the in-flight gauge.
        struct Auditee {
            done: Arc<AtomicUsize>,
        }
        impl NodeLogic for Auditee {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.rpc_async(
                    "echo",
                    "ping",
                    Element::new("ping"),
                    Duration::from_secs(5),
                    RpcToken(0),
                );
                ctx.rpc_async(
                    "mute",
                    "ping",
                    Element::new("ping"),
                    Duration::from_millis(40),
                    RpcToken(1),
                );
                ctx.rpc_async(
                    "nobody-home",
                    "ping",
                    Element::new("ping"),
                    Duration::from_secs(5),
                    RpcToken(2),
                );
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
            fn on_rpc_done(&mut self, _ctx: &mut NodeCtx<'_>, _done: RpcDone) -> Flow {
                self.done.fetch_add(1, Ordering::SeqCst);
                Flow::Continue
            }
        }
        /// Swallows every message without replying.
        struct Mute;
        impl NodeLogic for Mute {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
        }
        let exec = Executor::new(2);
        let handle = exec.handle();
        let net = Network::new(NetworkConfig::instant());
        let echo = handle.spawn_node(net.connect("echo").unwrap(), EchoLogic);
        let mute = handle.spawn_node(net.connect("mute").unwrap(), Mute);
        let done = Arc::new(AtomicUsize::new(0));
        let auditee = handle.spawn_node(
            net.connect("auditee").unwrap(),
            Auditee {
                done: Arc::clone(&done),
            },
        );
        let t0 = Instant::now();
        while done.load(Ordering::SeqCst) < 3 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert_eq!(
            handle.in_flight_rpcs(),
            0,
            "continuations leaked after all three resolution paths ran"
        );
        auditee.stop();
        mute.stop();
        echo.stop();
        assert_eq!(
            handle.live_timers(),
            0,
            "timer heap holds entries that can still fire into a live node"
        );
        exec.shutdown();
    }

    #[test]
    fn stopping_a_node_mid_rpc_clears_the_in_flight_gauge() {
        struct Caller;
        impl NodeLogic for Caller {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.rpc_async(
                    "mute",
                    "ping",
                    Element::new("ping"),
                    Duration::from_secs(100),
                    RpcToken(0),
                );
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
        }
        struct Mute;
        impl NodeLogic for Mute {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
        }
        let exec = Executor::new(2);
        let handle = exec.handle();
        let net = Network::new(NetworkConfig::instant());
        let mute = handle.spawn_node(net.connect("mute").unwrap(), Mute);
        let caller = handle.spawn_node(net.connect("caller").unwrap(), Caller);
        let t0 = Instant::now();
        while handle.in_flight_rpcs() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(handle.in_flight_rpcs(), 1);
        // Cancel-on-stop must release the continuation and its deadline.
        caller.stop();
        assert_eq!(handle.in_flight_rpcs(), 0, "stop leaked the continuation");
        assert_eq!(handle.live_timers(), 0, "stop leaked the rpc deadline");
        mute.stop();
        exec.shutdown();
    }

    /// Dropping a handle queues a stop without waiting: `on_stop` runs, the
    /// name frees, and the in-flight rpc's continuation and deadline are
    /// released — the idle node does not vanish with its gauge still
    /// counting it.
    #[test]
    fn dropping_the_handle_stops_the_node_and_drains_its_rpcs() {
        struct Caller(Arc<AtomicUsize>);
        impl NodeLogic for Caller {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.rpc_async(
                    "mute",
                    "ping",
                    Element::new("ping"),
                    Duration::from_secs(100),
                    RpcToken(0),
                );
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
            fn on_stop(&mut self, _ctx: &mut NodeCtx<'_>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        struct Mute;
        impl NodeLogic for Mute {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
        }
        let exec = Executor::new(1);
        let handle = exec.handle();
        let net = Network::new(NetworkConfig::instant());
        let mute = handle.spawn_node(net.connect("mute").unwrap(), Mute);
        let stops = Arc::new(AtomicUsize::new(0));
        let caller = handle.spawn_node(net.connect("caller").unwrap(), Caller(Arc::clone(&stops)));
        let settled = |done: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !done() && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        settled(&|| handle.in_flight_rpcs() == 1);
        assert_eq!(handle.in_flight_rpcs(), 1);
        drop(caller);
        settled(&|| handle.in_flight_rpcs() == 0 && !net.is_connected("caller"));
        assert_eq!(stops.load(Ordering::SeqCst), 1, "on_stop ran");
        assert_eq!(handle.in_flight_rpcs(), 0, "drop leaked the continuation");
        assert_eq!(handle.live_timers(), 0, "drop leaked the rpc deadline");
        assert!(!net.is_connected("caller"));
        mute.stop();
        exec.shutdown();
    }

    #[test]
    fn many_nodes_few_workers() {
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let nodes: Vec<NodeHandle> = (0..64)
            .map(|i| {
                exec.handle()
                    .spawn_node(net.connect(format!("echo{i}")).unwrap(), EchoLogic)
            })
            .collect();
        let client = net.connect("client").unwrap();
        for i in 0..64 {
            let reply = client
                .rpc(
                    format!("echo{i}"),
                    "ping",
                    Element::new("ping"),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(reply.kind, "pong");
        }
        for n in &nodes {
            n.stop();
        }
        assert!(!net.is_connected("echo0"), "stop frees the name");
        exec.shutdown();
    }

    #[test]
    fn stop_runs_on_stop_and_frees_name() {
        struct Stoppy(Arc<AtomicUsize>);
        impl NodeLogic for Stoppy {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
            fn on_stop(&mut self, _ctx: &mut NodeCtx<'_>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let stops = Arc::new(AtomicUsize::new(0));
        let node = exec
            .handle()
            .spawn_node(net.connect("s").unwrap(), Stoppy(Arc::clone(&stops)));
        assert!(net.is_connected("s"));
        node.stop();
        node.stop(); // idempotent
        assert!(node.is_stopped());
        assert!(!net.is_connected("s"));
        assert_eq!(stops.load(Ordering::SeqCst), 1, "on_stop ran exactly once");
        exec.shutdown();
    }

    #[test]
    fn timers_fire_in_order_and_rearm() {
        struct Ticker {
            fired: Arc<AtomicUsize>,
        }
        impl NodeLogic for Ticker {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration::from_millis(10), TimerToken(1));
            }
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, timer: TimerToken) -> Flow {
                assert_eq!(timer, TimerToken(1));
                if self.fired.fetch_add(1, Ordering::SeqCst) + 1 < 3 {
                    ctx.set_timer(Duration::from_millis(10), TimerToken(1));
                }
                Flow::Continue
            }
        }
        let exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let fired = Arc::new(AtomicUsize::new(0));
        let node = exec.handle().spawn_node(
            net.connect("tick").unwrap(),
            Ticker {
                fired: Arc::clone(&fired),
            },
        );
        let t0 = Instant::now();
        while fired.load(Ordering::SeqCst) < 3 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(fired.load(Ordering::SeqCst), 3, "recurring timer fired");
        node.stop();
        exec.shutdown();
    }

    /// Blocking sections run on threads of their own: on a 1-worker pool
    /// four 50 ms sleeps overlap, the worker count never moves, and the
    /// blocked gauge counts the sections until they return.
    #[test]
    fn blocking_sections_overlap_beside_a_fixed_pool() {
        let exec = Executor::new(1);
        let handle = exec.handle();
        let done = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        for _ in 0..4 {
            let done = Arc::clone(&done);
            handle.spawn_blocking(move || {
                std::thread::sleep(Duration::from_millis(50));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(handle.blocked_workers(), 4);
        while handle.blocked_workers() > 0 && t0.elapsed() < Duration::from_secs(2) {
            assert_eq!(handle.live_workers(), 1, "the pool stays fixed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 4);
        assert_eq!(handle.blocked_workers(), 0);
        assert!(
            t0.elapsed() < Duration::from_millis(180),
            "4 × 50 ms sections must overlap: {:?}",
            t0.elapsed()
        );
        exec.shutdown();
    }

    #[test]
    fn stopping_a_node_from_a_pool_task_on_a_one_worker_pool() {
        // NodeHandle::stop called on the only worker (here from another
        // node's callback) runs the target's stop turn on that worker's
        // thread: no second worker is needed, and none is started.
        struct Stopper {
            victim: Option<NodeHandle>,
            done: Arc<AtomicBool>,
        }
        impl NodeLogic for Stopper {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                if let Some(victim) = self.victim.take() {
                    victim.stop();
                    assert!(victim.is_stopped());
                    self.done.store(true, Ordering::SeqCst);
                    let _ = ctx.endpoint().reply(&env, "stopped", Element::new("ok"));
                }
                Flow::Continue
            }
        }
        let exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let victim = exec
            .handle()
            .spawn_node(net.connect("victim").unwrap(), EchoLogic);
        let done = Arc::new(AtomicBool::new(false));
        let stopper = exec.handle().spawn_node(
            net.connect("stopper").unwrap(),
            Stopper {
                victim: Some(victim),
                done: Arc::clone(&done),
            },
        );
        let client = net.connect("client").unwrap();
        let reply = client
            .rpc("stopper", "go", Element::new("go"), Duration::from_secs(5))
            .unwrap();
        assert_eq!(reply.kind, "stopped");
        assert!(done.load(Ordering::SeqCst), "stop-from-worker completed");
        assert!(!net.is_connected("victim"));
        assert_eq!(exec.handle().live_workers(), 1, "no worker was added");
        stopper.stop();
        exec.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_turns() {
        struct Count(Arc<AtomicUsize>);
        impl NodeLogic for Count {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                self.0.fetch_add(1, Ordering::SeqCst);
                Flow::Continue
            }
        }
        let exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let done = Arc::new(AtomicUsize::new(0));
        let _node = exec
            .handle()
            .spawn_node(net.connect("count").unwrap(), Count(Arc::clone(&done)));
        let client = net.connect("client").unwrap();
        for _ in 0..32 {
            client.send("count", "n", Element::new("n")).unwrap();
        }
        exec.shutdown();
        assert_eq!(
            done.load(Ordering::SeqCst),
            32,
            "shutdown ran every queued turn"
        );
    }

    #[test]
    fn stop_after_shutdown_still_frees_the_name() {
        let exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let node = exec
            .handle()
            .spawn_node(net.connect("late").unwrap(), EchoLogic);
        // Let the start turn finish so no worker holds the node.
        let t0 = Instant::now();
        while net.metrics().node("late").is_none() && t0.elapsed() < Duration::from_millis(200) {
            std::thread::sleep(Duration::from_millis(5));
        }
        exec.shutdown();
        node.stop(); // documented ordering violation: the stop turn runs here
        assert!(node.is_stopped());
        assert!(!net.is_connected("late"));
    }

    #[test]
    fn mailbox_order_is_preserved() {
        struct Collect(Arc<parking_lot::Mutex<Vec<String>>>);
        impl NodeLogic for Collect {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                self.0.lock().push(env.body.attr("i").unwrap().to_string());
                Flow::Continue
            }
        }
        let exec = Executor::new(4);
        let net = Network::new(NetworkConfig::instant());
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let node = exec
            .handle()
            .spawn_node(net.connect("sink").unwrap(), Collect(Arc::clone(&seen)));
        let client = net.connect("client").unwrap();
        for i in 0..500 {
            client
                .send("sink", "n", Element::new("n").with_attr("i", i.to_string()))
                .unwrap();
        }
        let t0 = Instant::now();
        while seen.lock().len() < 500 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let seen = seen.lock().clone();
        let expect: Vec<String> = (0..500).map(|i| i.to_string()).collect();
        assert_eq!(seen, expect, "one sender's envelopes arrive in order");
        node.stop();
        exec.shutdown();
    }

    #[test]
    fn panicking_callback_kills_the_node_not_the_pool() {
        // A panic inside on_message must not corrupt worker accounting
        // (shutdown would hang) and must finalize the node (stop would
        // hang); healthy nodes keep running.
        struct Bomb;
        impl NodeLogic for Bomb {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                panic!("backend bug");
            }
        }
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let bomb = exec.handle().spawn_node(net.connect("bomb").unwrap(), Bomb);
        let _echo = exec
            .handle()
            .spawn_node(net.connect("echo").unwrap(), EchoLogic);
        let client = net.connect("client").unwrap();
        client.send("bomb", "boom", Element::new("x")).unwrap();
        let t0 = Instant::now();
        while !bomb.is_stopped() && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(bomb.is_stopped(), "panicked node finalized as dead");
        bomb.stop(); // must not hang
        assert!(!net.is_connected("bomb"), "dead node's name freed");
        // The pool survived: other nodes still answer.
        let reply = client
            .rpc("echo", "ping", Element::new("ping"), Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply.kind, "pong");
        assert_eq!(exec.handle().live_workers(), 2, "no worker died");
        exec.shutdown(); // must not hang on corrupted counts
    }

    /// A node relaying through rpc_async on a 1-worker pool: the reply
    /// arrives as an on_rpc_done event and nothing runs beside the one
    /// worker — the in-flight request parks nothing.
    #[test]
    fn rpc_async_is_thread_free_on_a_one_worker_pool() {
        struct Front;
        impl NodeLogic for Front {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                if env.kind == "go" {
                    ctx.rpc_async(
                        "back",
                        "ping",
                        Element::new("ping"),
                        Duration::from_secs(5),
                        RpcToken(7),
                    );
                }
                Flow::Continue
            }
            fn on_rpc_done(&mut self, ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
                assert_eq!(done.token, RpcToken(7));
                let reply = done.result.expect("echo answers");
                let _ = ctx.endpoint().send("client", reply.kind, reply.body);
                Flow::Continue
            }
        }
        let exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let _front = exec
            .handle()
            .spawn_node(net.connect("front").unwrap(), Front);
        let _back = exec
            .handle()
            .spawn_node(net.connect("back").unwrap(), EchoLogic);
        let client = net.connect("client").unwrap();
        client.send("front", "go", Element::new("go")).unwrap();
        let relayed = client.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(relayed.kind, "pong");
        assert_eq!(
            exec.handle().live_workers(),
            1,
            "the pool stays at its one worker"
        );
        assert_eq!(exec.handle().blocked_workers(), 0);
        exec.shutdown();
    }

    /// A request to a silent responder resolves to Err(Timeout) through
    /// the timer service, and the continuation handler is cleaned up.
    #[test]
    fn rpc_async_times_out_via_the_timer_service() {
        struct Caller(Arc<AtomicUsize>);
        impl NodeLogic for Caller {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                if env.kind == "go" {
                    ctx.rpc_async(
                        "mute",
                        "ping",
                        Element::new("ping"),
                        Duration::from_millis(50),
                        RpcToken(1),
                    );
                }
                Flow::Continue
            }
            fn on_rpc_done(&mut self, _ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
                assert_eq!(done.result, Err(selfserv_net::RpcError::Timeout));
                self.0.fetch_add(1, Ordering::SeqCst);
                Flow::Continue
            }
        }
        struct Mute;
        impl NodeLogic for Mute {
            fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) -> Flow {
                Flow::Continue // never replies
            }
        }
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let timeouts = Arc::new(AtomicUsize::new(0));
        let caller = exec.handle().spawn_node(
            net.connect("caller").unwrap(),
            Caller(Arc::clone(&timeouts)),
        );
        let _mute = exec.handle().spawn_node(net.connect("mute").unwrap(), Mute);
        let client = net.connect("client").unwrap();
        client.send("caller", "go", Element::new("go")).unwrap();
        let t0 = Instant::now();
        while timeouts.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(timeouts.load(Ordering::SeqCst), 1, "exactly one completion");
        caller.stop();
        exec.shutdown();
    }

    /// An unsendable request (unknown destination) resolves to
    /// Err(Send(_)) in the same turn — all failures arrive as completions.
    #[test]
    fn rpc_async_send_failure_arrives_as_completion() {
        struct Caller(Arc<AtomicBool>);
        impl NodeLogic for Caller {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                if env.kind == "go" {
                    ctx.rpc_async(
                        "nobody-home",
                        "ping",
                        Element::new("ping"),
                        Duration::from_secs(5),
                        RpcToken(3),
                    );
                }
                Flow::Continue
            }
            fn on_rpc_done(&mut self, _ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
                assert!(matches!(
                    done.result,
                    Err(selfserv_net::RpcError::Send(
                        selfserv_net::SendError::UnknownNode(_)
                    ))
                ));
                self.0.store(true, Ordering::SeqCst);
                Flow::Continue
            }
        }
        let exec = Executor::new(1);
        let net = Network::new(NetworkConfig::instant());
        let failed = Arc::new(AtomicBool::new(false));
        let caller = exec
            .handle()
            .spawn_node(net.connect("caller").unwrap(), Caller(Arc::clone(&failed)));
        let client = net.connect("client").unwrap();
        client.send("caller", "go", Element::new("go")).unwrap();
        let t0 = Instant::now();
        while !failed.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(failed.load(Ordering::SeqCst));
        caller.stop();
        exec.shutdown();
    }

    /// Cancel-on-stop: a node stopped with a request in flight delivers no
    /// completion, retires the continuation handler, and discards the late
    /// reply instead of leaking it anywhere.
    #[test]
    fn rpc_async_cancelled_on_stop_discards_late_reply() {
        struct Caller(Arc<AtomicUsize>);
        impl NodeLogic for Caller {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                if env.kind == "go" {
                    ctx.rpc_async(
                        "slow",
                        "ping",
                        Element::new("ping"),
                        Duration::from_secs(5),
                        RpcToken(9),
                    );
                }
                Flow::Continue
            }
            fn on_rpc_done(&mut self, _ctx: &mut NodeCtx<'_>, _done: RpcDone) -> Flow {
                self.0.fetch_add(1, Ordering::SeqCst);
                Flow::Continue
            }
        }
        // Replies only when released.
        struct Slow {
            parked: Arc<parking_lot::Mutex<Vec<Envelope>>>,
        }
        impl NodeLogic for Slow {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                if env.kind == "release" {
                    for req in self.parked.lock().drain(..) {
                        let _ = ctx.endpoint().reply(&req, "pong", Element::new("late"));
                    }
                } else {
                    self.parked.lock().push(env);
                }
                Flow::Continue
            }
        }
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let completions = Arc::new(AtomicUsize::new(0));
        let caller = exec.handle().spawn_node(
            net.connect("caller").unwrap(),
            Caller(Arc::clone(&completions)),
        );
        let parked = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let slow = exec.handle().spawn_node(
            net.connect("slow").unwrap(),
            Slow {
                parked: Arc::clone(&parked),
            },
        );
        let client = net.connect("client").unwrap();
        client.send("caller", "go", Element::new("go")).unwrap();
        let t0 = Instant::now();
        while parked.lock().is_empty() && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Stop the caller with the request still in flight, then release
        // the reply into the void.
        caller.stop();
        client.send("slow", "release", Element::new("r")).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            completions.load(Ordering::SeqCst),
            0,
            "no completion after stop"
        );
        slow.stop();
        exec.shutdown();
    }

    /// A TaskCompleter resumes its node from a blocking section; one for a
    /// stopped node is dropped silently.
    #[test]
    fn task_completer_resumes_the_node() {
        struct Waiter(Arc<AtomicUsize>);
        impl NodeLogic for Waiter {
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
                if env.kind == "go" {
                    let completer = ctx.completer(RpcToken(5));
                    let node = ctx.node().clone();
                    ctx.executor().spawn_blocking(move || {
                        completer.complete(Ok(Envelope::synthetic(
                            node,
                            "task.result",
                            Element::new("done"),
                        )));
                    });
                }
                Flow::Continue
            }
            fn on_rpc_done(&mut self, _ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
                assert_eq!(done.token, RpcToken(5));
                assert_eq!(done.result.unwrap().kind, "task.result");
                self.0.fetch_add(1, Ordering::SeqCst);
                Flow::Continue
            }
        }
        let exec = Executor::new(2);
        let net = Network::new(NetworkConfig::instant());
        let resumed = Arc::new(AtomicUsize::new(0));
        let node = exec
            .handle()
            .spawn_node(net.connect("waiter").unwrap(), Waiter(Arc::clone(&resumed)));
        let client = net.connect("client").unwrap();
        client.send("waiter", "go", Element::new("go")).unwrap();
        let t0 = Instant::now();
        while resumed.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(resumed.load(Ordering::SeqCst), 1);
        node.stop();
        exec.shutdown();
    }

    #[test]
    fn endpoint_recv_error_shapes_unchanged() {
        // The runtime never changes Endpoint semantics for non-runtime
        // users: a bare endpoint still times out normally.
        let net = Network::new(NetworkConfig::instant());
        let e = net.connect("bare").unwrap();
        assert_eq!(
            e.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvError::Timeout
        );
    }
}
