//! What a coordinator's turn allocates in large blocks when its state
//! finishes, counted by this test binary's global allocator.
//!
//! The variables a state finishes with are encoded into each notification
//! where they are: the slot that is about to be forgotten gets no copy,
//! the notification no copy of the map, and a row without actions no
//! copy for its targets. An 8 KiB variable costs one 8 KiB block to read
//! the activating notification and one per notification target to encode
//! it, and no more. The wrapper encodes a finished instance's reply from
//! the variables it takes out of the slot: one 8 KiB block, no more.

use selfserv_core::{
    kinds, naming, CompositeWrapper, Coordinator, CoordinatorConfig, FunctionLibrary, TaskRuntime,
    WrapperConfig,
};
use selfserv_expr::Value;
use selfserv_net::{Network, NetworkConfig, NodeId};
use selfserv_routing::{
    Notification, NotificationLabel, Participant, Postprocessing, Precondition, RouteBranch,
    RoutingTable, WrapperTable,
};
use selfserv_runtime::Executor;
use selfserv_statechart::StateId;
use selfserv_wsdl::{MessageDoc, MessageKind};
use selfserv_xml::Element;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The size of the variable, and of the blocks counted.
const LARGE: usize = 8 * 1024;

/// Counts every allocation and reallocation of at least [`LARGE`] bytes,
/// then defers to the system allocator.
struct CountingLarge;

static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: each method passes its caller's arguments unchanged to `System`,
// which keeps `GlobalAlloc`'s contract; the count touches no memory that
// either allocator hands out.
unsafe impl GlobalAlloc for CountingLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingLarge = CountingLarge;

/// The counter is process-wide: the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// A state with no task that, started, notifies `targets` states.
fn table(targets: usize) -> RoutingTable {
    RoutingTable {
        state: StateId::new("a"),
        preconditions: vec![Precondition {
            id: "start".into(),
            labels: vec![NotificationLabel::Start],
            condition: None,
            actions: Vec::new(),
        }],
        postprocessings: vec![Postprocessing {
            transition_id: "fan-out".into(),
            guard: None,
            event: None,
            actions: Vec::new(),
            branches: vec![RouteBranch {
                notifications: (0..targets)
                    .map(|i| Notification {
                        target: Participant::State(StateId::new(format!("t{i}"))),
                        label: NotificationLabel::Completed(StateId::new("a")),
                    })
                    .collect(),
            }],
        }],
        produced_events: Vec::new(),
    }
}

#[test]
fn finishing_a_state_copies_its_variables_once_per_notification_target() {
    const COMPOSITE: &str = "alloc";
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let exec = Executor::new(1);
    for targets in [1, 3] {
        let net = Network::new(NetworkConfig::instant());
        let coordinator = Coordinator::spawn_on(
            &net,
            &exec.handle(),
            CoordinatorConfig {
                composite: COMPOSITE.into(),
                state: StateId::new("a"),
                table: table(targets),
                task: TaskRuntime::None,
                functions: FunctionLibrary::new(),
                invoke_timeout: Duration::from_secs(5),
                instance_ttl: Duration::from_secs(60),
                monitor: None,
                liveness: None,
            },
        )
        .unwrap();
        let receivers: Vec<_> = (0..targets)
            .map(|i| {
                net.connect(naming::coordinator(
                    COMPOSITE,
                    &StateId::new(format!("t{i}")),
                ))
                .unwrap()
            })
            .collect();
        let client = net.connect(NodeId::new("client")).unwrap();
        let mut vars = BTreeMap::new();
        vars.insert("payload".to_string(), Value::str("x".repeat(LARGE)));
        vars.insert("branch".to_string(), Value::Int(3));
        let body = Element::new("notification")
            .with_attr("label", NotificationLabel::Start.encode())
            .with_attr("instance", "i1")
            .with_child(MessageDoc::params_xml("vars", MessageKind::Request, &vars));

        let before = LARGE_BLOCKS.load(Ordering::Relaxed);
        client
            .send(
                naming::coordinator(COMPOSITE, &StateId::new("a")),
                kinds::NOTIFY,
                body,
            )
            .unwrap();
        let notifications: Vec<_> = receivers
            .iter()
            .map(|r| r.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        let large = LARGE_BLOCKS.load(Ordering::Relaxed) - before;

        for n in &notifications {
            let carried = MessageDoc::from_xml(n.body.find("message").unwrap()).unwrap();
            assert_eq!(carried.into_params(), vars);
        }
        assert_eq!(
            large,
            1 + targets,
            "{targets} targets: one block to read the notification, one per target"
        );
        coordinator.stop();
    }
    exec.shutdown();
}

#[test]
fn finishing_an_instance_copies_its_variables_once_into_the_reply() {
    const COMPOSITE: &str = "reply";
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = StateId::new("a");
    let exec = Executor::new(1);
    let net = Network::new(NetworkConfig::instant());
    let wrapper = CompositeWrapper::spawn_on(
        &net,
        &exec.handle(),
        WrapperConfig {
            composite: COMPOSITE.into(),
            table: WrapperTable {
                start_targets: vec![a.clone()],
                finish_alternatives: vec![Precondition {
                    id: "finish".into(),
                    labels: vec![NotificationLabel::Completed(a.clone())],
                    condition: None,
                    actions: Vec::new(),
                }],
                all_states: vec![a.clone()],
            },
            functions: FunctionLibrary::new(),
            variables: Vec::new(),
            event_subscribers: Vec::new(),
            cleanup_on_success: Vec::new(),
            instance_ttl: Duration::from_secs(60),
            monitor: None,
        },
    )
    .unwrap();
    let state = net.connect(naming::coordinator(COMPOSITE, &a)).unwrap();
    let client = net.connect(NodeId::new("client")).unwrap();
    let request = MessageDoc::request("execute").with("payload", Value::str("x".repeat(LARGE)));
    client
        .send(wrapper.node().clone(), kinds::EXECUTE, request.to_xml())
        .unwrap();
    let start = state.recv_timeout(Duration::from_secs(5)).unwrap();
    // The state completes without touching the variables: the wrapper
    // answers from the ones it seeded the instance with.
    let done = Element::new("notification")
        .with_attr("label", NotificationLabel::Completed(a).encode())
        .with_attr("instance", start.body.attr("instance").unwrap())
        .with_child(MessageDoc::params_xml(
            "vars",
            MessageKind::Request,
            &BTreeMap::new(),
        ));

    let before = LARGE_BLOCKS.load(Ordering::Relaxed);
    state
        .send(wrapper.node().clone(), kinds::NOTIFY, done)
        .unwrap();
    let reply = client.recv_timeout(Duration::from_secs(5)).unwrap();
    let large = LARGE_BLOCKS.load(Ordering::Relaxed) - before;

    let reply = MessageDoc::from_xml(&reply.body).unwrap();
    assert_eq!(reply.kind, MessageKind::Response);
    assert_eq!(reply.get("payload"), request.get("payload"));
    assert_eq!(large, 1, "one block: the reply's copy of the variable");
    wrapper.stop();
    exec.shutdown();
}
