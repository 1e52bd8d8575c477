//! A TCP hub under hostile input and lopsided peers, and the resource
//! shape of one listener per hub:
//!
//! * `hostile_bytes_close_only_their_own_connection` — arbitrary bytes,
//!   truncated frames, oversized length prefixes and well-formed frames
//!   for names the hub does not host, each on a raw connection into the
//!   hub's listener: that connection closes, no hub thread panics, the
//!   frames for unbound names are counted in
//!   `selfserv_node_messages_dropped_total`, and a well-formed connection
//!   to the same hub keeps delivering, in order, to every node on it.
//! * `a_wedged_peer_hub_cannot_stall_sends_to_others` — a peer that
//!   accepts and never reads fills its queue until the sender blocks;
//!   sends to a healthy hub keep arriving, and the wedged peer going away
//!   releases the blocked sender with an error.
//! * `one_listener_and_one_connection_per_hub_whatever_the_node_count` —
//!   128 endpoints share one listening socket and add no thread; a second
//!   hub reaches all of them over one connection.
//!
//! The tests count this process's threads and sockets through `/proc`, so
//! they serialize on one lock.

use proptest::prelude::*;
use selfserv_net::tcp::write_frame;
use selfserv_net::{Endpoint, Envelope, MessageId, NodeId, SendError, TcpTransport, Transport};
use selfserv_xml::Element;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

/// The largest length prefix a reader accepts.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

static HUB_PANICS: AtomicUsize = AtomicUsize::new(0);

/// Counts panics on the hub's own threads (`selfserv-tcp-*`): a reader
/// that panicked on hostile bytes would otherwise die unseen.
fn count_hub_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let current = std::thread::current();
            if current
                .name()
                .is_some_and(|n| n.starts_with("selfserv-tcp"))
            {
                HUB_PANICS.fetch_add(1, Ordering::SeqCst);
            }
            previous(info);
        }));
    });
}

fn frame(to: &str, body: Element) -> Vec<u8> {
    let envelope = Envelope {
        id: MessageId(7),
        from: NodeId::new("intruder"),
        to: NodeId::new(to),
        kind: "hostile".to_string(),
        correlation: None,
        body,
    };
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &envelope).unwrap();
    bytes
}

/// What one hostile connection sends, and how many of its frames are
/// well-formed envelopes for names the hub does not host.
#[derive(Debug)]
struct Hostile {
    bytes: Vec<u8>,
    unbound_frames: u64,
}

fn arb_hostile() -> impl Strategy<Value = Hostile> {
    let arbitrary = proptest::collection::vec(any::<u8>(), 0..512).prop_map(|bytes| Hostile {
        bytes,
        unbound_frames: 0,
    });
    // A frame for a node the hub does host, cut short anywhere.
    let truncated = ("[ -~]{0,64}", any::<u16>()).prop_map(|(text, cut)| {
        let whole = frame("n0", Element::new("b").with_text(text.trim()));
        let cut = 1 + usize::from(cut) % (whole.len() - 1);
        Hostile {
            bytes: whole[..cut].to_vec(),
            unbound_frames: 0,
        }
    });
    let oversized = (
        MAX_FRAME + 1..=u32::MAX,
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(len, tail)| {
            let mut bytes = len.to_be_bytes().to_vec();
            bytes.extend(tail);
            Hostile {
                bytes,
                unbound_frames: 0,
            }
        });
    // Frames for a name never connected, for `?` on a hub that declared no
    // recipient, and for an ephemeral name — then a clean end or garbage.
    let unbound = (
        proptest::collection::vec(0usize..3, 1..5),
        proptest::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(names, tail)| {
            let mut bytes = Vec::new();
            for &i in &names {
                bytes.extend(frame(["ghost", "?", "gone~1"][i], Element::new("b")));
            }
            bytes.extend(tail);
            Hostile {
                bytes,
                unbound_frames: names.len() as u64,
            }
        });
    prop_oneof![arbitrary, truncated, oversized, unbound]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_bytes_close_only_their_own_connection(hostile in arb_hostile()) {
        let _serial = serial();
        count_hub_panics();
        let hub = TcpTransport::new();
        let registry = selfserv_obs::Registry::new();
        hub.register_metrics(&registry, &[("hub", "h")]);
        let nodes: Vec<Endpoint> = (0..3)
            .map(|i| Transport::connect(&hub, NodeId::new(format!("n{i}"))).unwrap())
            .collect();
        let addr = hub.addr_of("n0").unwrap();
        // The well-formed connection: a second hub's pooled link.
        let peer = TcpTransport::new();
        let src = Transport::connect(&peer, NodeId::new("src")).unwrap();
        for i in 0..3 {
            peer.register_peer(format!("n{i}"), addr);
        }
        let send_round = |seqs: std::ops::Range<usize>| {
            for seq in seqs {
                for i in 0..3 {
                    src.send(
                        format!("n{i}"),
                        "seq",
                        Element::new("m").with_attr("seq", seq.to_string()),
                    )
                    .unwrap();
                }
            }
        };
        send_round(0..4);

        let mut bad = TcpStream::connect(addr).unwrap();
        // The hub may close first and reset the rest: either is fine.
        let _ = bad.write_all(&hostile.bytes);
        let _ = bad.shutdown(Shutdown::Write);
        bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match bad.read(&mut [0u8; 16]) {
            Ok(0) => {}
            Ok(n) => panic!("the hub wrote {n} bytes on an inbound connection"),
            Err(e) => prop_assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "the hub left the hostile connection open"
            ),
        }

        send_round(4..8);
        for node in &nodes {
            for seq in 0..8 {
                let env = node
                    .recv_timeout(Duration::from_secs(5))
                    .expect("the well-formed connection keeps delivering");
                prop_assert_eq!(env.body.attr("seq"), Some(seq.to_string().as_str()));
            }
            prop_assert!(node.try_recv().is_none(), "nothing else was delivered");
        }
        let scrape = selfserv_obs::parse::parse(&registry.render()).unwrap();
        prop_assert_eq!(
            scrape.value("selfserv_node_messages_dropped_total", &[("hub", "h")]),
            Some(hostile.unbound_frames as f64)
        );
        prop_assert_eq!(HUB_PANICS.load(Ordering::SeqCst), 0);
    }
}

#[test]
fn a_wedged_peer_hub_cannot_stall_sends_to_others() {
    let _serial = serial();
    let hub = TcpTransport::new();
    let healthy = TcpTransport::new();
    let sink = Transport::connect(&healthy, NodeId::new("healthy.sink")).unwrap();
    hub.register_peer("healthy.sink", healthy.addr_of("healthy.sink").unwrap());
    // The wedged peer: it accepts, and never reads a byte.
    let wedged = TcpListener::bind("127.0.0.1:0").unwrap();
    hub.register_peer("wedged", wedged.local_addr().unwrap());

    let filler = Transport::connect(&hub, NodeId::new("filler")).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let sender = filler.sender();
    let filling = std::thread::spawn(move || {
        let blob = "x".repeat(8 * 1024);
        let mut accepted = 0u64;
        let err = loop {
            match sender.send(
                "wedged",
                "fill",
                Element::new("blob").with_text(blob.clone()),
            ) {
                Ok(_) => accepted += 1,
                Err(e) => break e,
            }
        };
        let _ = done_tx.send((accepted, err, Instant::now()));
    });
    let (held, _) = wedged.accept().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while hub.io_stats().backpressure_waits == 0 {
        assert!(
            Instant::now() < deadline,
            "the filler never hit backpressure"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The filler is blocked on the wedged queue; a sender on the same hub
    // still reaches the healthy hub, promptly, frame after frame.
    let probe = Transport::connect(&hub, NodeId::new("probe")).unwrap();
    for i in 0..32 {
        let sent = Instant::now();
        probe
            .send(
                "healthy.sink",
                "probe",
                Element::new("p").with_attr("i", i.to_string()),
            )
            .unwrap();
        let got = sink.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.body.attr("i"), Some(i.to_string().as_str()));
        assert!(
            sent.elapsed() < Duration::from_secs(1),
            "probe {i} took {:?}",
            sent.elapsed()
        );
    }
    assert!(
        done_rx.try_recv().is_err(),
        "the filler is still blocked on the wedged peer"
    );

    // The wedged peer goes away: its socket resets, the connection writer
    // fails, and the blocked sender is released with that error — well
    // before the queue's own backpressure timeout would have fired.
    let gone = Instant::now();
    drop(held);
    drop(wedged);
    let (accepted, err, released) = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the blocked sender was released");
    // Its handle on the hub goes with it, before the next test counts.
    filling.join().unwrap();
    assert!(accepted > 0);
    assert!(
        released.duration_since(gone) < Duration::from_secs(2),
        "released by the peer's departure, not by a timeout"
    );
    match err {
        SendError::Transport(reason) => {
            assert!(!reason.contains("queue full"), "{reason}");
        }
        other => panic!("unexpected send error: {other}"),
    }
}

/// This process's IPv4 TCP sockets: `(local port, remote port, state)`,
/// state in `/proc/net/tcp`'s hex code (`0A` listening, `01` established).
#[cfg(target_os = "linux")]
fn own_tcp_sockets() -> Vec<(u16, u16, String)> {
    let inodes: std::collections::HashSet<String> = std::fs::read_dir("/proc/self/fd")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|fd| std::fs::read_link(fd.path()).ok())
        .filter_map(|link| {
            let link = link.to_str()?;
            Some(
                link.strip_prefix("socket:[")?
                    .strip_suffix(']')?
                    .to_string(),
            )
        })
        .collect();
    let table = std::fs::read_to_string("/proc/self/net/tcp").unwrap_or_default();
    let port = |field: &str| u16::from_str_radix(field.rsplit(':').next()?, 16).ok();
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() < 10 || !inodes.contains(f[9]) {
                return None;
            }
            Some((port(f[1])?, port(f[2])?, f[3].to_string()))
        })
        .collect()
}

#[cfg(target_os = "linux")]
fn listening_sockets() -> usize {
    own_tcp_sockets()
        .iter()
        .filter(|(_, _, state)| state == "0A")
        .count()
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| tasks.count())
}

#[cfg(target_os = "linux")]
#[test]
fn one_listener_and_one_connection_per_hub_whatever_the_node_count() {
    let _serial = serial();
    let hub = TcpTransport::new();
    let sender_hub = TcpTransport::new();
    let src = Transport::connect(&sender_hub, NodeId::new("src")).unwrap();
    let listeners_before = listening_sockets();
    let mut endpoints = vec![Transport::connect(&hub, NodeId::new("node.0")).unwrap()];
    let addr = hub.addr_of("node.0").unwrap();
    // The first connect bound the listener and started the accept thread.
    let threads_at_one = thread_count();
    for i in 1..64 {
        endpoints.push(Transport::connect(&hub, NodeId::new(format!("node.{i}"))).unwrap());
    }
    for _ in 0..64 {
        endpoints.push(hub.connect_anonymous("anon"));
    }
    assert!(endpoints
        .iter()
        .all(|ep| hub.addr_of(ep.node().as_str()) == Some(addr)));
    assert_eq!(
        listening_sockets(),
        listeners_before + 1,
        "128 endpoints, one listening socket"
    );
    assert!(
        thread_count() <= threads_at_one,
        "threads grew with endpoints: {threads_at_one} at one endpoint, {} at 128",
        thread_count()
    );

    // A second hub sends one frame to each of the 128.
    for ep in &endpoints {
        sender_hub.register_peer(ep.node().clone(), addr);
        src.send(ep.node().clone(), "hello", Element::new("hi"))
            .unwrap();
    }
    for ep in &endpoints {
        assert_eq!(
            ep.recv_timeout(Duration::from_secs(5)).unwrap().kind,
            "hello"
        );
    }
    let links = own_tcp_sockets()
        .iter()
        .filter(|(_, remote, state)| *remote == addr.port() && state == "01")
        .count();
    assert_eq!(
        links, 1,
        "the sender's pool holds one connection to the hub"
    );
    assert!(
        thread_count() <= threads_at_one + 2,
        "one writer on the sender, one reader on the hub: {} threads, {threads_at_one} before",
        thread_count()
    );
}
