//! Fault and latency models for the in-process fabric, and the seeded
//! chaos engine that drives them.
//!
//! Two layers live here:
//!
//! * **Imperative state** — kills and partitions, which a test or a
//!   [`ChaosController`] flips and traffic changes, and the
//!   [`LatencyModel`]. The fabric keeps them, with the installed schedule,
//!   in one private fault state read once per dispatch.
//! * **The chaos engine** — the fabric's only source of random faults. A
//!   [`FaultSchedule`] samples per-message-kind
//!   fault actions (drop, delay, duplicate, reorder-within-window) from a
//!   seed, plus timed whole-node crash/restart events applied by a
//!   [`ChaosController`]. Every decision is a pure function of
//!   `(seed, from, to, kind, per-stream counter)`, so a run's fault
//!   sequence is reproducible from its seed alone even though thread
//!   interleaving is not: per-link message order is deterministic (one
//!   sender node is serialized, links are FIFO), and nothing else feeds
//!   the decision. The schedule records everything it did as a
//!   [`FaultEvent`] log that can be replayed verbatim
//!   ([`FaultSchedule::replay`]) and shrunk to a minimal failing core
//!   ([`minimize_schedule`]).

use crate::envelope::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// How long a message spends "on the wire".
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Immediate in-thread delivery: measures pure software overhead.
    Instant,
    /// Constant delay.
    Fixed(Duration),
    /// Uniformly distributed delay in `[min, max]`.
    Uniform(Duration, Duration),
}

impl LatencyModel {
    /// Samples a delay. `Instant` returns zero.
    pub fn sample(&self, rng: &mut impl Rng) -> Duration {
        match self {
            LatencyModel::Instant => Duration::ZERO,
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform(min, max) => {
                if max <= min {
                    return *min;
                }
                // A span wider than u64::MAX nanoseconds (~584 years)
                // saturates rather than silently truncating the u128.
                let span = u64::try_from(max.as_nanos() - min.as_nanos()).unwrap_or(u64::MAX);
                let extra = rng.gen_range(0..=span);
                *min + Duration::from_nanos(extra)
            }
        }
    }

    /// True when no delivery thread is needed.
    pub fn is_instant(&self) -> bool {
        matches!(self, LatencyModel::Instant)
    }
}

/// The fabric's fault state: dead nodes, partitions and the installed
/// chaos schedule, read together under one lock on every dispatch.
#[derive(Default)]
pub(crate) struct FaultPolicy {
    /// Directed blocked pairs `(from, to)`.
    partitions: HashSet<(NodeId, NodeId)>,
    /// Nodes that have been killed.
    dead: HashSet<NodeId>,
    /// The seeded schedule, the fabric's only source of random faults.
    pub(crate) schedule: Option<Arc<FaultSchedule>>,
}

impl FaultPolicy {
    /// Blocks traffic from `a` to `b` AND from `b` to `a`.
    pub fn partition(&mut self, a: &NodeId, b: &NodeId) {
        self.partitions.insert((a.clone(), b.clone()));
        self.partitions.insert((b.clone(), a.clone()));
    }

    /// Removes a (bidirectional) partition.
    pub fn heal(&mut self, a: &NodeId, b: &NodeId) {
        self.partitions.remove(&(a.clone(), b.clone()));
        self.partitions.remove(&(b.clone(), a.clone()));
    }

    /// Removes every partition.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    /// Marks a node dead: all traffic to it is dropped.
    pub fn kill(&mut self, node: &NodeId) {
        self.dead.insert(node.clone());
    }

    /// Brings a node back.
    pub fn revive(&mut self, node: &NodeId) {
        self.dead.remove(node);
    }

    /// True when the node has been killed.
    pub fn is_dead(&self, node: &NodeId) -> bool {
        self.dead.contains(node)
    }

    /// True when traffic from `from` to `to` is currently blocked by a
    /// partition or a dead endpoint.
    pub fn is_blocked(&self, from: &NodeId, to: &NodeId) -> bool {
        self.dead.contains(from)
            || self.dead.contains(to)
            || self.partitions.contains(&(from.clone(), to.clone()))
    }
}

/// What the chaos engine decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass through untouched.
    Deliver,
    /// Silently drop.
    Drop,
    /// Hold back for the given duration before delivering.
    Delay(Duration),
    /// Deliver immediately *and* deliver a second copy after the given
    /// duration.
    Duplicate(Duration),
    /// Hold back by a slice of the reorder window so later messages on the
    /// same link overtake it. Mechanically a delay; kept distinct so the
    /// event log says what was intended.
    Reorder(Duration),
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Deliver => write!(f, "deliver"),
            FaultAction::Drop => write!(f, "drop"),
            FaultAction::Delay(d) => write!(f, "delay {}us", d.as_micros()),
            FaultAction::Duplicate(d) => write!(f, "duplicate +{}us", d.as_micros()),
            FaultAction::Reorder(d) => write!(f, "reorder +{}us", d.as_micros()),
        }
    }
}

/// Probabilities for one message-kind class. Kinds are matched by prefix
/// (`"invoke"` covers `invoke` and `invoke.result`); the empty prefix
/// matches everything. The first matching rule in a schedule wins.
#[derive(Debug, Clone)]
pub struct KindRule {
    kind_prefix: String,
    drop: f64,
    delay: f64,
    delay_range: (Duration, Duration),
    duplicate: f64,
    reorder: f64,
    reorder_window: Duration,
}

impl KindRule {
    /// A no-op rule matching every message kind.
    pub fn all() -> KindRule {
        KindRule::for_kind("")
    }

    /// A no-op rule matching kinds starting with `prefix`.
    pub fn for_kind(prefix: impl Into<String>) -> KindRule {
        KindRule {
            kind_prefix: prefix.into(),
            drop: 0.0,
            delay: 0.0,
            delay_range: (Duration::from_millis(1), Duration::from_millis(10)),
            duplicate: 0.0,
            reorder: 0.0,
            reorder_window: Duration::from_millis(5),
        }
    }

    /// Probability that a matching message is dropped.
    pub fn drop(mut self, p: f64) -> KindRule {
        self.drop = p;
        self
    }

    /// Probability that a matching message is delayed, and the delay range.
    pub fn delay(mut self, p: f64, min: Duration, max: Duration) -> KindRule {
        self.delay = p;
        self.delay_range = (min, max);
        self
    }

    /// Probability that a matching message is duplicated (the copy arrives
    /// within the reorder window).
    pub fn duplicate(mut self, p: f64) -> KindRule {
        self.duplicate = p;
        self
    }

    /// Probability that a matching message is reordered, and the window
    /// within which later messages may overtake it.
    pub fn reorder(mut self, p: f64, window: Duration) -> KindRule {
        self.reorder = p;
        self.reorder_window = window;
        self
    }

    fn matches(&self, kind: &str) -> bool {
        kind.starts_with(&self.kind_prefix)
    }
}

/// What a timed node event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// The node goes dark: all its traffic is dropped.
    Crash,
    /// The node comes back.
    Restart,
}

/// A whole-node crash or restart scheduled at an offset from the start of
/// the run, applied by a [`ChaosController`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEvent {
    /// Offset from [`ChaosController::start`].
    pub at: Duration,
    pub node: NodeId,
    pub fault: NodeFault,
}

/// Message-fault rules plus timed node events: everything a seed expands
/// into.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// First matching rule (by kind prefix) decides a message's fate.
    pub rules: Vec<KindRule>,
    /// Timed whole-node crash/restart events.
    pub node_events: Vec<NodeEvent>,
}

impl ChaosConfig {
    /// Adds a message-fault rule (first match wins).
    pub fn rule(mut self, rule: KindRule) -> ChaosConfig {
        self.rules.push(rule);
        self
    }

    /// Schedules a node crash at `at`.
    pub fn crash(mut self, at: Duration, node: impl Into<NodeId>) -> ChaosConfig {
        self.node_events.push(NodeEvent {
            at,
            node: node.into(),
            fault: NodeFault::Crash,
        });
        self
    }

    /// Schedules a node restart at `at`.
    pub fn restart(mut self, at: Duration, node: impl Into<NodeId>) -> ChaosConfig {
        self.node_events.push(NodeEvent {
            at,
            node: node.into(),
            fault: NodeFault::Restart,
        });
        self
    }
}

/// One entry of a schedule's fault log: either a message-level decision
/// (identified by its stream — sender, receiver, kind — and the message's
/// sequence number within that stream) or a timed node event. The log is
/// the replayable artifact: feed it back through
/// [`FaultSchedule::replay`] and the same messages meet the same fate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// The `seq`-th message from `from` to `to` of kind `kind` was hit
    /// with `action`.
    Message {
        from: NodeId,
        to: NodeId,
        kind: String,
        seq: u64,
        action: FaultAction,
    },
    /// A timed whole-node crash or restart.
    Node(NodeEvent),
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::Message {
                from,
                to,
                kind,
                seq,
                action,
            } => {
                write!(f, "{action:<20} {from} -> {to}  kind={kind} #{seq}")
            }
            FaultEvent::Node(ev) => {
                let verb = match ev.fault {
                    NodeFault::Crash => "crash",
                    NodeFault::Restart => "restart",
                };
                write!(f, "{verb:<20} {} @{}ms", ev.node, ev.at.as_millis())
            }
        }
    }
}

type StreamKey = (NodeId, NodeId, String);

enum Mode {
    /// Decisions sampled from the seed via the config's rules.
    Sample(ChaosConfig),
    /// Decisions looked up in a fixed event list; everything else passes.
    Replay {
        actions: HashMap<(StreamKey, u64), FaultAction>,
        node_events: Vec<NodeEvent>,
    },
}

/// A seeded, fully reproducible fault schedule. Install on a fabric with
/// [`crate::Network::install_chaos`]; drive its timed node events with a
/// [`ChaosController`].
///
/// Determinism: each decision is a pure function of
/// `(seed, from, to, kind, n)` where `n` counts messages on that stream —
/// see [`FaultSchedule::decision_at`]. Global thread interleaving cannot
/// change any message's fate, only the wall-clock order in which fates are
/// handed out.
pub struct FaultSchedule {
    seed: u64,
    mode: Mode,
    counters: Mutex<HashMap<StreamKey, u64>>,
    log: Mutex<Vec<FaultEvent>>,
}

/// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultSchedule {
    /// A sampling schedule: decisions drawn from `seed` under `config`.
    pub fn sample(seed: u64, config: ChaosConfig) -> Arc<FaultSchedule> {
        Arc::new(FaultSchedule {
            seed,
            mode: Mode::Sample(config),
            counters: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        })
    }

    /// A replay schedule: exactly the listed events happen (matched by
    /// stream + sequence number), everything else is delivered untouched.
    pub fn replay(seed: u64, events: &[FaultEvent]) -> Arc<FaultSchedule> {
        let mut actions = HashMap::new();
        let mut node_events = Vec::new();
        for ev in events {
            match ev {
                FaultEvent::Message {
                    from,
                    to,
                    kind,
                    seq,
                    action,
                } => {
                    actions.insert(((from.clone(), to.clone(), kind.clone()), *seq), *action);
                }
                FaultEvent::Node(ev) => node_events.push(ev.clone()),
            }
        }
        Arc::new(FaultSchedule {
            seed,
            mode: Mode::Replay {
                actions,
                node_events,
            },
            counters: Mutex::new(HashMap::new()),
            log: Mutex::new(Vec::new()),
        })
    }

    /// The seed this schedule was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides the fate of one message and records any non-`Deliver`
    /// outcome in the log. Called by the fabric on its delivery path.
    pub fn decide(&self, from: &NodeId, to: &NodeId, kind: &str) -> FaultAction {
        let seq = {
            let mut counters = self.counters.lock();
            let n = counters
                .entry((from.clone(), to.clone(), kind.to_string()))
                .or_insert(0);
            let seq = *n;
            *n += 1;
            seq
        };
        let action = match &self.mode {
            Mode::Sample(_) => self.decision_at(from, to, kind, seq),
            Mode::Replay { actions, .. } => actions
                .get(&((from.clone(), to.clone(), kind.to_string()), seq))
                .copied()
                .unwrap_or(FaultAction::Deliver),
        };
        if action != FaultAction::Deliver {
            self.log.lock().push(FaultEvent::Message {
                from: from.clone(),
                to: to.clone(),
                kind: kind.to_string(),
                seq,
                action,
            });
        }
        action
    }

    /// The pure decision function: what happens to the `seq`-th message on
    /// the `(from, to, kind)` stream under this seed. [`FaultSchedule::decide`]
    /// is exactly this plus counter upkeep and logging, which is what makes
    /// a seed's fault sequence reproducible — the replay test asserts that
    /// every logged event matches this function on a fresh schedule.
    pub fn decision_at(&self, from: &NodeId, to: &NodeId, kind: &str, seq: u64) -> FaultAction {
        let Mode::Sample(config) = &self.mode else {
            // Replay mode has no distribution to consult.
            return FaultAction::Deliver;
        };
        let Some(rule) = config.rules.iter().find(|r| r.matches(kind)) else {
            return FaultAction::Deliver;
        };
        let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ mix64(self.seed);
        for bytes in [
            from.as_str().as_bytes(),
            to.as_str().as_bytes(),
            kind.as_bytes(),
        ] {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = StdRng::seed_from_u64(mix64(h ^ mix64(seq)));
        let roll: f64 = rng.gen();
        let mut threshold = rule.drop;
        if roll < threshold {
            return FaultAction::Drop;
        }
        threshold += rule.duplicate;
        if roll < threshold {
            return FaultAction::Duplicate(sample_range(
                &mut rng,
                Duration::ZERO,
                rule.reorder_window,
            ));
        }
        threshold += rule.reorder;
        if roll < threshold {
            return FaultAction::Reorder(sample_range(
                &mut rng,
                Duration::ZERO,
                rule.reorder_window,
            ));
        }
        threshold += rule.delay;
        if roll < threshold {
            return FaultAction::Delay(sample_range(
                &mut rng,
                rule.delay_range.0,
                rule.delay_range.1,
            ));
        }
        FaultAction::Deliver
    }

    /// The timed node events of this schedule, sorted by offset.
    pub fn node_events(&self) -> Vec<NodeEvent> {
        let mut events = match &self.mode {
            Mode::Sample(config) => config.node_events.clone(),
            Mode::Replay { node_events, .. } => node_events.clone(),
        };
        events.sort_by_key(|e| e.at);
        events
    }

    /// Everything this schedule did (or will do): the recorded message
    /// faults plus the timed node events, in canonical order — node events
    /// by offset, then message events by stream and sequence number. Two
    /// runs of the same seed produce equal logs regardless of thread
    /// interleaving.
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut events: Vec<FaultEvent> = self
            .node_events()
            .into_iter()
            .map(FaultEvent::Node)
            .collect();
        let mut messages = self.log.lock().clone();
        messages.sort_by(|a, b| {
            let key = |e: &FaultEvent| match e {
                FaultEvent::Message {
                    from,
                    to,
                    kind,
                    seq,
                    ..
                } => (from.clone(), to.clone(), kind.clone(), *seq),
                FaultEvent::Node(_) => unreachable!("message log holds only message events"),
            };
            key(a).cmp(&key(b))
        });
        events.extend(messages);
        events
    }

    /// Number of recorded message faults so far.
    pub fn fault_count(&self) -> usize {
        self.log.lock().len()
    }
}

fn sample_range(rng: &mut StdRng, min: Duration, max: Duration) -> Duration {
    if max <= min {
        return min;
    }
    let span = u64::try_from((max - min).as_nanos()).unwrap_or(u64::MAX);
    min + Duration::from_nanos(rng.gen_range(0..=span))
}

/// Something whose nodes a [`ChaosController`] can crash and restart: the
/// fabric (kill/revive) and the TCP transport (connection kill → deferred
/// write error → writer respawn) both implement it.
pub trait ChaosTarget: Send + Sync {
    /// Takes `node` down.
    fn crash(&self, node: &NodeId);
    /// Brings `node` back.
    fn restart(&self, node: &NodeId);
}

/// Applies a schedule's timed node events to a [`ChaosTarget`] from a
/// background thread. The clock starts at [`ChaosController::start`];
/// dropping the controller stops the thread (remaining events never fire).
pub struct ChaosController {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosController {
    /// Starts driving `schedule`'s node events into `target`.
    pub fn start(schedule: &Arc<FaultSchedule>, target: Arc<dyn ChaosTarget>) -> ChaosController {
        let events = schedule.node_events();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("selfserv-chaos".to_string())
            .spawn(move || {
                let epoch = Instant::now();
                for ev in events {
                    loop {
                        if stop2.load(Ordering::SeqCst) {
                            return;
                        }
                        let now = epoch.elapsed();
                        if now >= ev.at {
                            break;
                        }
                        // Short naps keep stop() responsive without a
                        // condvar for what is a test-harness thread.
                        std::thread::sleep((ev.at - now).min(Duration::from_millis(2)));
                    }
                    match ev.fault {
                        NodeFault::Crash => target.crash(&ev.node),
                        NodeFault::Restart => target.restart(&ev.node),
                    }
                }
            })
            .expect("spawn chaos controller thread");
        ChaosController {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the controller; events not yet fired never fire.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosController {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Delta-debugging (ddmin) minimization of a failing fault schedule:
/// returns a subset of `events` for which `still_fails` still returns
/// `true`, shrunk until no chunk at the finest granularity can be removed.
/// `still_fails` must be deterministic for the result to be 1-minimal;
/// with a seeded replay schedule it is.
pub fn minimize_schedule(
    events: &[FaultEvent],
    mut still_fails: impl FnMut(&[FaultEvent]) -> bool,
) -> Vec<FaultEvent> {
    let mut current: Vec<FaultEvent> = events.to_vec();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        // Try each complement (the schedule minus one chunk): removing a
        // chunk that doesn't matter keeps the failure.
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let complement: Vec<FaultEvent> = current[..start]
                .iter()
                .chain(current[end..].iter())
                .cloned()
                .collect();
            if !complement.is_empty() && still_fails(&complement) {
                current = complement;
                granularity = (granularity - 1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    // A single event may still be removable (len 1 exits the loop above).
    if current.len() == 1 && still_fails(&[]) {
        current.clear();
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sampling() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(LatencyModel::Instant.sample(&mut rng), Duration::ZERO);
        assert!(LatencyModel::Instant.is_instant());
        let d = Duration::from_millis(5);
        assert_eq!(LatencyModel::Fixed(d).sample(&mut rng), d);
        let lo = Duration::from_millis(2);
        let hi = Duration::from_millis(9);
        for _ in 0..100 {
            let s = LatencyModel::Uniform(lo, hi).sample(&mut rng);
            assert!(s >= lo && s <= hi, "{s:?}");
        }
        // Degenerate range behaves like Fixed.
        assert_eq!(LatencyModel::Uniform(hi, lo).sample(&mut rng), hi);
    }

    #[test]
    fn partitions_block_both_directions() {
        let mut p = FaultPolicy::default();
        let a = NodeId::new("a");
        let b = NodeId::new("b");
        assert!(!p.is_blocked(&a, &b));
        p.partition(&a, &b);
        assert!(p.is_blocked(&a, &b));
        assert!(p.is_blocked(&b, &a));
        p.heal(&a, &b);
        assert!(!p.is_blocked(&a, &b));
    }

    #[test]
    fn heal_all_removes_every_partition() {
        let mut p = FaultPolicy::default();
        let a = NodeId::new("a");
        let b = NodeId::new("b");
        let c = NodeId::new("c");
        p.partition(&a, &b);
        p.partition(&a, &c);
        p.heal_all();
        assert!(!p.is_blocked(&a, &b));
        assert!(!p.is_blocked(&c, &a));
    }

    #[test]
    fn dead_nodes_block_traffic() {
        let mut p = FaultPolicy::default();
        let a = NodeId::new("a");
        let b = NodeId::new("b");
        p.kill(&b);
        assert!(p.is_dead(&b));
        assert!(p.is_blocked(&a, &b));
        assert!(p.is_blocked(&b, &a), "dead nodes cannot send either");
        p.revive(&b);
        assert!(!p.is_blocked(&a, &b));
    }

    #[test]
    fn uniform_latency_saturates_huge_spans() {
        let mut rng = StdRng::seed_from_u64(3);
        let lo = Duration::ZERO;
        let hi = Duration::MAX;
        // Before the fix this truncated the u128 span to u64 and could
        // sample far outside [lo, hi]; now it saturates and stays inside.
        for _ in 0..50 {
            let s = LatencyModel::Uniform(lo, hi).sample(&mut rng);
            assert!(s <= hi);
        }
    }

    fn chaos_config() -> ChaosConfig {
        ChaosConfig::default().rule(
            KindRule::all()
                .drop(0.1)
                .delay(0.1, Duration::from_millis(1), Duration::from_millis(5))
                .duplicate(0.1)
                .reorder(0.1, Duration::from_millis(5)),
        )
    }

    #[test]
    fn schedule_decisions_are_a_pure_function_of_seed_stream_and_seq() {
        let a = FaultSchedule::sample(99, chaos_config());
        let b = FaultSchedule::sample(99, chaos_config());
        let from = NodeId::new("x.coord.s0");
        let to = NodeId::new("x.coord.s1");
        // Interleave decide() calls across two streams on one schedule and
        // a straight run on the other: per-stream decisions must agree.
        let mut seen = Vec::new();
        for i in 0..64u64 {
            let d1 = a.decide(&from, &to, "notify");
            assert_eq!(d1, a.decision_at(&from, &to, "notify", i));
            let _ = a.decide(&to, &from, "notify");
            seen.push(d1);
        }
        for (i, d1) in seen.iter().enumerate() {
            assert_eq!(*d1, b.decision_at(&from, &to, "notify", i as u64));
        }
        // A different seed disagrees somewhere over 64 draws.
        let c = FaultSchedule::sample(100, chaos_config());
        assert!(
            (0..64u64).any(|i| c.decision_at(&from, &to, "notify", i)
                != a.decision_at(&from, &to, "notify", i)),
            "different seeds should produce different schedules"
        );
    }

    #[test]
    fn replay_schedule_reproduces_only_listed_events() {
        let sampled = FaultSchedule::sample(7, chaos_config());
        let from = NodeId::new("a");
        let to = NodeId::new("b");
        for _ in 0..128 {
            sampled.decide(&from, &to, "notify");
        }
        let events = sampled.events();
        assert!(
            !events.is_empty(),
            "seed 7 should fault something in 128 draws"
        );
        let replay = FaultSchedule::replay(7, &events);
        for i in 0..128u64 {
            let expected = sampled.decision_at(&from, &to, "notify", i);
            assert_eq!(replay.decide(&from, &to, "notify"), expected, "seq {i}");
        }
        assert_eq!(replay.events(), events, "replay log matches the original");
    }

    #[test]
    fn kind_rules_match_by_prefix_first_wins() {
        let cfg = ChaosConfig::default()
            .rule(KindRule::for_kind("invoke").drop(1.0))
            .rule(KindRule::all());
        let s = FaultSchedule::sample(1, cfg);
        let a = NodeId::new("a");
        let b = NodeId::new("b");
        assert_eq!(s.decide(&a, &b, "invoke.result"), FaultAction::Drop);
        assert_eq!(s.decide(&a, &b, "notify"), FaultAction::Deliver);
    }

    #[test]
    fn node_events_sorted_and_exposed() {
        let cfg = ChaosConfig::default()
            .restart(Duration::from_millis(50), "h")
            .crash(Duration::from_millis(10), "h");
        let s = FaultSchedule::sample(1, cfg);
        let evs = s.node_events();
        assert_eq!(evs[0].fault, NodeFault::Crash);
        assert_eq!(evs[1].fault, NodeFault::Restart);
        assert!(s
            .events()
            .iter()
            .take(2)
            .all(|e| matches!(e, FaultEvent::Node(_))));
    }

    #[test]
    fn ddmin_minimizes_to_the_single_fatal_event() {
        // 40 events, exactly one of which ("drop #17") causes the failure.
        let a = NodeId::new("a");
        let b = NodeId::new("b");
        let events: Vec<FaultEvent> = (0..40u64)
            .map(|i| FaultEvent::Message {
                from: a.clone(),
                to: b.clone(),
                kind: "notify".to_string(),
                seq: i,
                action: if i == 17 {
                    FaultAction::Drop
                } else {
                    FaultAction::Delay(Duration::from_millis(1))
                },
            })
            .collect();
        let mut probes = 0;
        let minimal = minimize_schedule(&events, |subset| {
            probes += 1;
            subset
                .iter()
                .any(|e| matches!(e, FaultEvent::Message { seq: 17, .. }))
        });
        assert_eq!(minimal.len(), 1);
        assert!(matches!(&minimal[0], FaultEvent::Message { seq: 17, .. }));
        assert!(probes < 200, "ddmin should not degenerate to brute force");
    }

    #[test]
    fn ddmin_keeps_conjunction_of_two_needed_events() {
        let a = NodeId::new("a");
        let b = NodeId::new("b");
        let events: Vec<FaultEvent> = (0..32u64)
            .map(|i| FaultEvent::Message {
                from: a.clone(),
                to: b.clone(),
                kind: "k".to_string(),
                seq: i,
                action: FaultAction::Drop,
            })
            .collect();
        // Fails only when BOTH #3 and #28 are present.
        let minimal = minimize_schedule(&events, |subset| {
            let has = |n: u64| {
                subset
                    .iter()
                    .any(|e| matches!(e, FaultEvent::Message { seq, .. } if *seq == n))
            };
            has(3) && has(28)
        });
        assert_eq!(minimal.len(), 2);
    }

    #[test]
    fn chaos_controller_fires_crash_and_restart() {
        use parking_lot::Mutex as PMutex;
        struct Recorder(PMutex<Vec<(String, bool)>>);
        impl ChaosTarget for Recorder {
            fn crash(&self, node: &NodeId) {
                self.0.lock().push((node.as_str().to_string(), true));
            }
            fn restart(&self, node: &NodeId) {
                self.0.lock().push((node.as_str().to_string(), false));
            }
        }
        let cfg = ChaosConfig::default()
            .crash(Duration::from_millis(5), "n")
            .restart(Duration::from_millis(15), "n");
        let schedule = FaultSchedule::sample(1, cfg);
        let recorder = Arc::new(Recorder(PMutex::new(Vec::new())));
        let controller = ChaosController::start(&schedule, recorder.clone());
        let deadline = Instant::now() + Duration::from_secs(2);
        while recorder.0.lock().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        controller.stop();
        let log = recorder.0.lock();
        assert_eq!(
            *log,
            vec![("n".to_string(), true), ("n".to_string(), false)]
        );
    }
}
