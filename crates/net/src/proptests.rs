//! Property tests for the fabric: envelope codec totality, delivery
//! conservation, determinism under seeded loss, rpc reply demultiplexing
//! under adversarial request/reply interleavings on either transport, one
//! node lifecycle on both transports, per-connection frame ordering on the
//! queued TCP write path, and the replicated-table laws for directory rows.

use crate::{
    ChaosConfig, DirectoryEntry, Envelope, FaultSchedule, HubId, KindRule, MessageId, Network,
    NetworkConfig, NodeId, PeerClaim, TcpTransport, Transport,
};
use proptest::prelude::*;
use selfserv_xml::{Element, Node, SharedElement};
use std::time::Duration;

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        any::<u64>(),
        "[a-z][a-z0-9.]{0,12}",
        "[a-z][a-z0-9.]{0,12}",
        "[a-z][a-z.]{0,8}",
        proptest::option::of(any::<u64>()),
        "[A-Za-z][A-Za-z0-9]{0,8}",
        "[ -~]{0,24}",
        "[a-c<>&\"' \t\n\ré✓-]{0,12}",
    )
        .prop_map(|(id, from, to, kind, corr, tag, text, attr)| {
            let mut body = Element::new(tag).with_attr("a", attr);
            let text = text.trim();
            if !text.is_empty() {
                body.push_text(text);
            }
            Envelope {
                id: MessageId(id),
                from: NodeId::new(from),
                to: NodeId::new(to),
                kind,
                correlation: corr.map(MessageId),
                body,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_codec_round_trip(env in arb_envelope()) {
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        prop_assert_eq!(back, env);
    }

    #[test]
    fn frame_codec_round_trip(env in arb_envelope()) {
        let mut buf = Vec::new();
        crate::tcp::write_frame(&mut buf, &env).unwrap();
        let back = crate::tcp::read_frame(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(back, env);
    }

    /// One frame text, however it is produced: the writer that fills the
    /// frame buffer emits `to_xml()` + stamp + `to_xml()` byte for byte,
    /// the count is that text's length, and `wire_size` is what it always
    /// was.
    #[test]
    fn frame_text_count_and_element_text_agree(
        env in arb_envelope(),
        stamped in any::<bool>(),
        port in 1u16..u16::MAX,
        owner in any::<u64>(),
        version in any::<u64>(),
    ) {
        let stamp = [
            ("peer-addr", format!("127.0.0.1:{port}")),
            ("peer-owner", HubId(owner).to_string()),
            ("peer-version", version.to_string()),
        ];
        let stamp = if stamped { &stamp[..] } else { &[] };
        let mut element = env.to_xml();
        for (name, value) in stamp {
            element.set_attr(*name, value.clone());
        }
        let text = element.to_xml();
        let mut frame = Vec::new();
        env.write_wire(stamp, &mut frame);
        prop_assert_eq!(&String::from_utf8(frame).unwrap(), &text);
        prop_assert_eq!(env.wire_len(stamp), text.len());
        prop_assert!(env.unescaped_wire_len(stamp) <= text.len());
        prop_assert_eq!(env.wire_size(), env.to_xml().to_xml().len());
        // The owning decode is the borrowing one, and neither sees the stamp.
        let parsed = selfserv_xml::parse(&text).unwrap();
        prop_assert_eq!(Envelope::from_xml(&parsed).unwrap(), env.clone());
        prop_assert_eq!(Envelope::decode(parsed).unwrap(), env);
    }

    /// A body whose children are shared subtrees is charged and framed as
    /// the body that owns them, a received frame never holds one, and the
    /// owning decode takes a shared body as it takes an owned one.
    #[test]
    fn shared_body_children_frame_as_owned(
        env in arb_envelope(),
        kids in proptest::collection::vec(
            ("[A-Za-z][A-Za-z0-9]{0,8}", "[a-c<>&\"' é✓-]{0,12}", any::<bool>()),
            0..6,
        ),
    ) {
        let mut owned = env.clone();
        let mut shared = env;
        for (tag, attr, share) in kids {
            let kid = Element::new(tag).with_attr("k", attr);
            owned.body.push_child(kid.clone());
            if share {
                shared.body.children.push(Node::Shared(SharedElement::new(kid)));
            } else {
                shared.body.push_child(kid);
            }
        }
        prop_assert_eq!(&shared, &owned);
        prop_assert_eq!(shared.wire_size(), owned.wire_size());
        let (mut shared_frame, mut owned_frame) = (Vec::new(), Vec::new());
        crate::tcp::write_frame(&mut shared_frame, &shared).unwrap();
        crate::tcp::write_frame(&mut owned_frame, &owned).unwrap();
        prop_assert_eq!(&shared_frame, &owned_frame);
        let back = crate::tcp::read_frame(&mut shared_frame.as_slice()).unwrap();
        prop_assert!(!back.body.children.iter().any(|n| matches!(n, Node::Shared(_))));
        prop_assert_eq!(&back, &owned);

        let mut frame = owned.to_xml();
        frame.children = vec![Node::Shared(SharedElement::new(shared.body.clone()))];
        prop_assert_eq!(Envelope::decode(frame).unwrap(), owned);
    }

    /// Conservation: on a lossless instant fabric, every message sent is
    /// either delivered or counted as dropped, and sent == received when
    /// nothing is blocked.
    #[test]
    fn delivery_conservation(
        n_nodes in 2usize..8,
        sends in proptest::collection::vec((0usize..8, 0usize..8), 1..64),
    ) {
        let net = Network::new(NetworkConfig::instant());
        let eps: Vec<_> = (0..n_nodes).map(|i| net.connect(format!("n{i}")).unwrap()).collect();
        let mut expected = 0u64;
        for (from, to) in sends {
            let from = from % n_nodes;
            let to = to % n_nodes;
            if from == to {
                continue;
            }
            eps[from].send(format!("n{to}"), "x", Element::new("b")).unwrap();
            expected += 1;
        }
        let m = net.metrics();
        prop_assert_eq!(m.total_sent(), expected);
        prop_assert_eq!(m.total_received() + m.total_dropped(), expected);
        prop_assert_eq!(m.total_dropped(), 0);
    }

    /// Under a seeded drop schedule, received + dropped still equals sent,
    /// and the same seed delivers the same messages.
    #[test]
    fn lossy_delivery_is_deterministic(seed in 0u64..1000, p in 0.0f64..1.0) {
        let run = |seed: u64| {
            let net = Network::new(NetworkConfig::instant());
            let rule = KindRule::all().drop(p);
            net.install_chaos(FaultSchedule::sample(seed, ChaosConfig::default().rule(rule)));
            let a = net.connect("a").unwrap();
            let b = net.connect("b").unwrap();
            for i in 0..50 {
                a.send("b", "x", Element::new("b").with_attr("i", i.to_string())).unwrap();
            }
            let m = net.metrics();
            assert_eq!(m.total_received() + m.total_dropped(), 50);
            let mut delivered = Vec::new();
            while let Some(env) = b.try_recv() {
                delivered.push(env.body.attr("i").unwrap().to_string());
            }
            assert_eq!(delivered.len() as u64, m.total_received());
            delivered
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reply demultiplexing under arbitrary request/reply schedules, on
    /// either transport: a batch of concurrent rpcs from ONE endpoint is
    /// answered in a generated order, with uncorrelated noise messages and
    /// duplicate (stale) replies interleaved. Every rpc must get exactly
    /// its own reply, every noise message must surface via `recv`, and no
    /// duplicate may leak anywhere.
    #[test]
    fn interleaved_rpc_schedules_never_cross(
        tcp in any::<bool>(),
        n_rpcs in 1usize..6,
        picks in proptest::collection::vec(any::<usize>(), 6),
        noise in proptest::collection::vec(any::<bool>(), 6),
        dups in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let net = if tcp {
            TcpTransport::new().handle()
        } else {
            Network::new(NetworkConfig::instant()).handle()
        };
        let client = net.connect(NodeId::new("client")).unwrap();
        let server = net.connect(NodeId::new("server")).unwrap();
        let expected_noise: usize = noise[..n_rpcs].iter().filter(|b| **b).count();

        let server_thread = std::thread::spawn(move || {
            let mut requests = Vec::new();
            for _ in 0..n_rpcs {
                requests.push(server.recv().unwrap());
            }
            // Answer in the generated order (picks induce a permutation).
            let mut done = Vec::new();
            for slot in 0..n_rpcs {
                let idx = picks[slot] % requests.len();
                let req = requests.remove(idx);
                if noise[slot] {
                    server
                        .send("client", "noise", Element::new("aside"))
                        .unwrap();
                }
                let tag = req.body.attr("tag").unwrap().to_string();
                server
                    .reply(&req, "pong", Element::new("pong").with_attr("tag", tag))
                    .unwrap();
                done.push(req);
                if dups[slot] {
                    // Duplicate reply to an already-answered request: must
                    // be discarded by the demux as stale, never delivered
                    // to recv.
                    let stale = &done[picks[slot] % done.len()];
                    server
                        .reply(stale, "pong", Element::new("dup"))
                        .unwrap();
                }
            }
            // Delivery is in send order per sender on both transports, so
            // once this arrives everything above it has been routed.
            server.send("client", "end", Element::new("end")).unwrap();
        });

        std::thread::scope(|s| {
            for i in 0..n_rpcs {
                let sender = client.sender();
                s.spawn(move || {
                    let reply = sender
                        .rpc(
                            "server",
                            "ping",
                            Element::new("ping").with_attr("tag", i.to_string()),
                            Duration::from_secs(10),
                        )
                        .expect("rpc completes");
                    assert_eq!(
                        reply.body.attr("tag"),
                        Some(i.to_string().as_str()),
                        "reply crossed to the wrong rpc"
                    );
                });
            }
        });
        server_thread.join().unwrap();

        // Exactly the noise messages reach recv before the end marker — no
        // duplicates, no replies. Over TCP they are still in flight after
        // the join, so wait for them rather than assume an instant mailbox.
        let mut got_noise = 0;
        loop {
            let env = client
                .recv_timeout(Duration::from_secs(10))
                .expect("the end marker arrives");
            if env.kind == "end" {
                break;
            }
            prop_assert_eq!(&env.kind, "noise", "unexpected mailbox leak");
            got_noise += 1;
        }
        prop_assert_eq!(got_noise, expected_noise);
        prop_assert!(client.try_recv().is_none());
        prop_assert_eq!(client.demux().pending_rpcs(), 0);
    }
}

/// One step of a node's life, as [`node_lifecycle_is_the_same_on_both_transports`]
/// generates them. Indices pick among the endpoints held (or dropped) so
/// far, modulo their number.
#[derive(Debug, Clone)]
enum LifeOp {
    /// Connect `n<i>`.
    Connect(usize),
    /// Connect `n<i>~x` — a reserved name.
    ConnectReserved(usize),
    /// Connect an anonymous `anon~…` node.
    ConnectAnonymous,
    /// Drop a held endpoint.
    Drop(usize),
    /// Send from a held endpoint to a held endpoint.
    SendToLive(usize, usize),
    /// Send from a held endpoint to a dropped endpoint's name.
    SendToDropped(usize, usize),
    /// Send from a held endpoint to `n<i>`, connected or not.
    SendToName(usize, usize),
}

const LIFE_NAMES: usize = 4;

fn arb_life_op() -> impl Strategy<Value = LifeOp> {
    prop_oneof![
        (0..LIFE_NAMES).prop_map(LifeOp::Connect),
        (0..LIFE_NAMES).prop_map(LifeOp::ConnectReserved),
        Just(LifeOp::ConnectAnonymous),
        any::<usize>().prop_map(LifeOp::Drop),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| LifeOp::SendToLive(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| LifeOp::SendToDropped(a, b)),
        (any::<usize>(), 0..LIFE_NAMES).prop_map(|(a, b)| LifeOp::SendToName(a, b)),
    ]
}

/// One node's `(name, sent, received, dropped)` messages.
type NodeCounts = (String, u64, u64, u64);

/// Runs `ops` on `net` and returns what every step answered, then — with
/// every endpoint dropped and every message accounted for — the per-node
/// counts, aggregates included.
fn run_life(net: &dyn Transport, ops: &[LifeOp]) -> (Vec<String>, Vec<NodeCounts>) {
    fn outcome<T, E: std::fmt::Debug>(r: &Result<T, E>) -> String {
        match r {
            Ok(_) => "ok".to_string(),
            // The variant, not the name it carries: anonymous names differ
            // between transports.
            Err(e) => format!("{e:?}").split('(').next().unwrap().to_string(),
        }
    }
    // A send is accounted once it is counted as received or dropped; wait
    // for that after every step, so the TCP reader's delivery lands where
    // the instant fabric's does — before the next step can drop the node.
    let quiesce = || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let m = net.metrics();
            if m.total_sent() == m.total_received() + m.total_dropped()
                || std::time::Instant::now() > deadline
            {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    };
    let mut held: Vec<crate::Endpoint> = Vec::new();
    let mut dropped: Vec<NodeId> = Vec::new();
    let mut trace = Vec::new();
    for op in ops {
        let step = match op {
            LifeOp::Connect(i) => {
                let r = net.connect(NodeId::new(format!("n{i}")));
                let o = outcome(&r);
                held.extend(r.ok());
                o
            }
            LifeOp::ConnectReserved(i) => outcome(&net.connect(NodeId::new(format!("n{i}~x")))),
            LifeOp::ConnectAnonymous => {
                held.push(net.connect_anonymous("anon"));
                "ok".to_string()
            }
            LifeOp::Drop(k) if !held.is_empty() => {
                let endpoint = held.remove(k % held.len());
                dropped.push(endpoint.node().clone());
                "dropped".to_string()
            }
            LifeOp::SendToLive(a, b) if !held.is_empty() => {
                let to = held[b % held.len()].node().clone();
                outcome(&held[a % held.len()].send(to, "x", Element::new("b")))
            }
            LifeOp::SendToDropped(a, b) if !held.is_empty() && !dropped.is_empty() => {
                let to = dropped[b % dropped.len()].clone();
                outcome(&held[a % held.len()].send(to, "x", Element::new("b")))
            }
            LifeOp::SendToName(a, i) if !held.is_empty() => {
                outcome(&held[a % held.len()].send(format!("n{i}"), "x", Element::new("b")))
            }
            _ => "skip".to_string(),
        };
        quiesce();
        let connected: Vec<bool> = (0..LIFE_NAMES)
            .map(|i| net.is_connected(&format!("n{i}")))
            .chain(held.iter().map(|e| net.is_connected(e.node().as_str())))
            .chain(dropped.iter().map(|n| net.is_connected(n.as_str())))
            .collect();
        trace.push(format!("{op:?} -> {step} {connected:?}"));
    }
    drop(held);
    let m = net.metrics();
    let counts = m
        .nodes
        .iter()
        .map(|n| {
            (
                n.node.as_str().to_string(),
                n.sent,
                n.received,
                n.dropped_inbound,
            )
        })
        .collect();
    (trace, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A node's life — connect, reserved-name connect, anonymous connect,
    /// drop, reconnect, sends to live, dropped and never-connected names —
    /// is the same on the fabric and on a TCP hub: every step answers the
    /// same, local `is_connected` agrees after every step, and once every
    /// endpoint is dropped and every message accounted for, both report
    /// the same per-node message counts, with sent = received + dropped,
    /// aggregates included.
    #[test]
    fn node_lifecycle_is_the_same_on_both_transports(
        ops in proptest::collection::vec(arb_life_op(), 1..24),
    ) {
        let fabric = Network::new(NetworkConfig::instant());
        let hub = TcpTransport::new();
        let (fabric_trace, fabric_counts) = run_life(&fabric, &ops);
        let (hub_trace, hub_counts) = run_life(&hub, &ops);
        prop_assert_eq!(fabric_trace, hub_trace);
        prop_assert_eq!(&fabric_counts, &hub_counts);
        let m = hub.metrics();
        prop_assert_eq!(m.total_sent(), m.total_received() + m.total_dropped());
        prop_assert_eq!(m.total_dropped(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-connection frame ordering on the queued TCP write path: several
    /// sender threads interleave sends to several destinations, every
    /// (sender, destination) stream carrying its own sequence numbers.
    /// Whatever the enqueue interleaving and however the connection
    /// writers batch frames into vectored writes, each receiver must see
    /// each sender's messages in send order — the writers drain their
    /// queues in enqueue order over exactly one connection per
    /// destination hub, so order holds per (sender, destination) pair even
    /// while frames from other senders, for other nodes of that hub, share
    /// the same socket. The receivers sit on the senders' own hub (its
    /// loopback connection) or, with `peer_hub`, on a second hub that
    /// every frame reaches over the one pooled connection to it.
    #[test]
    fn interleaved_tcp_sends_preserve_per_sender_order(
        n_senders in 2usize..4,
        n_receivers in 1usize..5,
        n_msgs in 4usize..16,
        peer_hub in any::<bool>(),
    ) {
        let t = TcpTransport::new();
        let destination = if peer_hub { TcpTransport::new() } else { t.clone() };
        let receivers: Vec<_> = (0..n_receivers)
            .map(|i| Transport::connect(&destination, NodeId::new(format!("recv{i}"))).unwrap())
            .collect();
        let hub_addr = destination.addr_of("recv0").unwrap();
        for r in &receivers {
            prop_assert_eq!(destination.addr_of(r.node().as_str()), Some(hub_addr));
            // Refused, and not needed, for a name connected on `t` itself.
            t.register_peer(r.node().clone(), hub_addr);
        }
        let senders: Vec<_> = (0..n_senders)
            .map(|i| Transport::connect(&t, NodeId::new(format!("send{i}"))).unwrap())
            .collect();
        std::thread::scope(|s| {
            for ep in &senders {
                let sender = ep.sender();
                s.spawn(move || {
                    for seq in 0..n_msgs {
                        for r in 0..n_receivers {
                            sender.send(
                                format!("recv{r}"),
                                "seq",
                                Element::new("m").with_attr("seq", seq.to_string()),
                            )
                            .unwrap();
                        }
                    }
                });
            }
        });
        for receiver in &receivers {
            let mut last_seen: Vec<Option<usize>> = vec![None; n_senders];
            for _ in 0..n_senders * n_msgs {
                let env = receiver
                    .recv_timeout(Duration::from_secs(10))
                    .expect("all accepted frames are delivered");
                let sender: usize = env.from.as_str()["send".len()..].parse().unwrap();
                let seq: usize = env.body.attr("seq").unwrap().parse().unwrap();
                prop_assert!(
                    last_seen[sender].is_none_or(|prev| seq > prev),
                    "sender {} delivered seq {} after {:?}",
                    sender,
                    seq,
                    last_seen[sender]
                );
                last_seen[sender] = Some(seq);
            }
            prop_assert!(receiver.try_recv().is_none(), "no duplicate frames");
        }
    }
}

/// Directory rows over a small name universe. The laws are the table's:
/// the directory's owner-side self-defence *generates new versions*
/// rather than combining existing ones, so it sits outside the algebra
/// (and has its own tests in `directory.rs`).
fn arb_entry() -> impl Strategy<Value = (NodeId, DirectoryEntry)> {
    (0u8..6, 1u16..2000, 1u64..6, 1u64..8, any::<bool>()).prop_map(
        |(name, port, owner, version, evicted)| {
            (
                NodeId::new(format!("node{name}")),
                DirectoryEntry {
                    value: PeerClaim {
                        addr: format!("127.0.0.1:{}", 1000 + port).parse().unwrap(),
                        owner: HubId(owner),
                    },
                    version,
                    evicted,
                },
            )
        },
    )
}

crate::lww_law_suite!(PeerClaim, arb_entry());
