//! The executor's timer thread sleeps until its earliest deadline and is
//! woken only by an entry that becomes the earliest. Rpc deadlines pushed
//! behind an earlier one cost it no context switch, read from the
//! thread's own `/proc/self/task/<tid>/status`.
//!
//! A binary of its own: the count belongs to the one executor it starts.

#![cfg(target_os = "linux")]

use selfserv_net::{Envelope, Network, NetworkConfig};
use selfserv_runtime::{Executor, Flow, NodeCtx, NodeLogic, RpcToken};
use selfserv_xml::Element;
use std::time::Duration;

/// On each `go`, asks `mute` (which never answers) with a 60 s timeout,
/// then acks the sender.
struct Caller {
    sent: u64,
}

impl NodeLogic for Caller {
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
        if env.kind == "go" {
            self.sent += 1;
            ctx.rpc_async(
                "mute",
                "ping",
                Element::new("ping"),
                Duration::from_secs(60),
                RpcToken(self.sent),
            );
            let _ = ctx.endpoint().reply(&env, "sent", Element::new("ok"));
        }
        Flow::Continue
    }
}

/// The timer thread's `comm`: the kernel keeps the first 15 bytes of
/// `selfserv-exec-timer`.
const TIMER_COMM: &str = "selfserv-exec-t";

/// Voluntary context switches of the executor's timer thread.
fn timer_thread_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    let timers: Vec<u64> = tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == TIMER_COMM)
        })
        .map(|task| {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap();
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .expect("voluntary_ctxt_switches in status")
                .trim()
                .parse()
                .unwrap()
        })
        .collect();
    assert_eq!(timers.len(), 1, "one executor, one timer thread");
    timers[0]
}

#[test]
fn deadlines_behind_the_earliest_do_not_wake_the_timer_thread() {
    let exec = Executor::new(1);
    let net = Network::new(NetworkConfig::instant());
    let _mute = net.connect("mute").unwrap();
    let caller = exec
        .handle()
        .spawn_node(net.connect("caller").unwrap(), Caller { sent: 0 });
    let client = net.connect("client").unwrap();
    let go = || {
        client
            .rpc("caller", "go", Element::new("go"), Duration::from_secs(5))
            .unwrap();
    };
    // The first deadline is the earliest of an empty heap and wakes the
    // thread; every later one, 60 s out as well, sits behind it. Each
    // `go` waits for its ack, so the thread has time to sleep again
    // between two pushes that would wake it.
    go();
    std::thread::sleep(Duration::from_millis(20));
    let before = timer_thread_switches();
    for _ in 0..1000 {
        go();
    }
    let woken = timer_thread_switches() - before;
    assert!(
        woken < 50,
        "1 000 later deadlines woke the timer thread {woken} times"
    );
    caller.stop();
    exec.shutdown();
}
