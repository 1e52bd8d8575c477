//! What a coordinator's turn allocates in large blocks when its state
//! finishes, counted by this test binary's global allocator.
//!
//! The variables a state finishes with are encoded into each notification
//! where they are: the slot that is about to be forgotten gets no copy,
//! the notification no copy of the map, and a row without actions no
//! copy for its targets. An 8 KiB variable costs one 8 KiB block to read
//! the activating notification and one per notification target to encode
//! it, and no more.

use selfserv_core::{kinds, naming, Coordinator, CoordinatorConfig, FunctionLibrary, TaskRuntime};
use selfserv_expr::Value;
use selfserv_net::{Network, NetworkConfig, NodeId};
use selfserv_routing::{
    Notification, NotificationLabel, Participant, Postprocessing, Precondition, RouteBranch,
    RoutingTable,
};
use selfserv_runtime::Executor;
use selfserv_statechart::StateId;
use selfserv_wsdl::MessageDoc;
use selfserv_xml::Element;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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
            .with_child(MessageDoc::request_xml("vars", &vars));

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
