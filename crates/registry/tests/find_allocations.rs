//! What a remote find allocates, counted by this test binary's global
//! allocator (every thread of the process, so the server's side of the
//! call is counted too).
//!
//! A find hit is the stored `<serviceInfo>` tree: over the fabric the
//! client checks the trees the server put into the reply and keeps them,
//! so a find of 400 hits allocates no more than one of 40. Over TCP the
//! client checks the parsed trees and shares each one, one allocation per
//! hit beyond what the parse itself allocates.

use selfserv_net::{Network, NetworkConfig, TcpTransport};
use selfserv_registry::{FindQuery, RegistryClient, RegistryServer, UddiRegistry};
use selfserv_runtime::Executor;
use selfserv_wsdl::{Binding, OperationDef, ServiceDescription};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: each method passes its caller's arguments unchanged to `System`,
// which keeps `GlobalAlloc`'s contract; the count touches no memory that
// either allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide: the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const WIDE: usize = 400;
const NARROW: usize = 40;

/// `WIDE` services in category "wide" and `NARROW` in "narrow", each with
/// two operations and a binding.
fn seeded() -> Arc<UddiRegistry> {
    let registry = Arc::new(UddiRegistry::new());
    let business = registry.save_business("Provider & Co", "ops@example").key;
    for i in 0..WIDE + NARROW {
        let category = if i < WIDE { "wide" } else { "narrow" };
        let description = ServiceDescription::new(format!("Service {i:05}"), "Provider & Co")
            .with_operation(OperationDef::new(format!("op{}", i % 50)))
            .with_operation(OperationDef::new("status"))
            .with_binding(Binding::fabric(format!("svc.{i}")));
        registry
            .save_service(&business, category, description, None)
            .unwrap();
    }
    registry
}

/// The fewest allocations `client.find(category)` made in ten calls
/// (another thread of the harness may allocate during one of them), after
/// checking the number of hits.
fn find_allocations(client: &RegistryClient, category: &str, hits: usize) -> usize {
    let query = FindQuery::any().category(category);
    (0..10)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let found = client.find(&query).unwrap();
            let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(found.len(), hits);
            allocated
        })
        .min()
        .unwrap()
}

/// The fewest allocations parsing the text of an `hits`-hit find reply
/// made in ten parses.
fn parse_allocations(client: &RegistryClient, category: &str, hits: usize) -> usize {
    let found = client.find(&FindQuery::any().category(category)).unwrap();
    assert_eq!(found.len(), hits);
    let mut text = String::from("<serviceList>");
    for hit in &found {
        let info = selfserv_xml::Element::new("serviceInfo")
            .with_attr("key", hit.key().0)
            .with_attr("business", hit.business())
            .with_attr("name", hit.name())
            .with_attr("provider", hit.provider_name());
        text.push_str(&info.to_xml());
    }
    text.push_str("</serviceList>");
    (0..10)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let parsed = selfserv_xml::parse(&text).unwrap();
            let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(parsed.children.len(), hits);
            allocated
        })
        .min()
        .unwrap()
}

#[test]
fn fabric_find_allocations_do_not_grow_with_hits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let exec = Executor::new(1);
    let net = Network::new(NetworkConfig::instant());
    let _server = RegistryServer::spawn_on(&net, &exec.handle(), "uddi", seeded()).unwrap();
    let client = RegistryClient::connect(&net, "client", "uddi").unwrap();

    let narrow = find_allocations(&client, "narrow", NARROW);
    let wide = find_allocations(&client, "wide", WIDE);
    assert!(
        wide <= narrow,
        "a find of {WIDE} hits allocated {wide} times, one of {NARROW} hits {narrow} times"
    );
}

#[test]
fn tcp_find_allocates_at_most_one_per_hit_beyond_the_parse() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let exec = Executor::new(1);
    let (hub_a, hub_b) = (TcpTransport::new(), TcpTransport::new());
    let _server = RegistryServer::spawn_on(&hub_b, &exec.handle(), "uddi", seeded()).unwrap();
    let client = RegistryClient::connect(&hub_a, "client", "uddi").unwrap();
    hub_a.register_peer("uddi", hub_b.addr_of("uddi").unwrap());
    hub_b.register_peer("client", hub_a.addr_of("client").unwrap());

    let narrow = find_allocations(&client, "narrow", NARROW);
    let wide = find_allocations(&client, "wide", WIDE);
    let parse =
        parse_allocations(&client, "wide", WIDE) - parse_allocations(&client, "narrow", NARROW);
    let extra_hits = WIDE - NARROW;
    let beyond_parse = (wide - narrow).saturating_sub(parse);
    assert!(
        beyond_parse <= extra_hits,
        "{extra_hits} more hits cost {} allocations, {parse} of them the parse's: \
         {beyond_parse} beyond it, more than one per hit",
        wide - narrow
    );
}
