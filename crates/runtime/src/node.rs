//! Node state machines: the [`NodeLogic`] contract, the per-node cell that
//! guarantees serialized callback execution, and the public [`NodeHandle`].

use crate::executor::{ExecutorHandle, Pool};
use parking_lot::{Condvar, Mutex};
use selfserv_net::{Endpoint, Envelope, MessageId, NodeId, ReplyDemux, RpcError};
use selfserv_xml::Element;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How many mailbox envelopes one scheduling turn may consume before the
/// node yields its worker (the node re-queues itself if more are waiting),
/// so one flooded node cannot starve its pool-mates.
const BATCH: usize = 64;

/// What a callback returns. A node keeps running until its
/// [`NodeHandle`] stops it, so this has one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep the node running.
    Continue,
}

/// Identifies a timer set via [`NodeCtx::set_timer`] when it fires in
/// [`NodeLogic::on_timer`]. Tokens are chosen by the node's logic; the
/// runtime never interprets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Correlates an asynchronous request started via [`NodeCtx::rpc_async`]
/// (or a [`TaskCompleter`]) with the [`RpcDone`] completion later handed
/// to [`NodeLogic::on_rpc_done`]. Like [`TimerToken`], tokens are chosen
/// by the node's logic and never interpreted by the runtime — a node with
/// many requests in flight keys its per-request continuation state on
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RpcToken(pub u64);

/// The completion event of a continuation-passing request: delivered to
/// [`NodeLogic::on_rpc_done`] when the reply of a [`NodeCtx::rpc_async`]
/// arrives (or its deadline fires), or when a [`TaskCompleter`] is
/// completed by an off-node task.
///
/// `result` is `Ok(reply)` with the correlated reply envelope,
/// `Err(RpcError::Timeout)` when the deadline won the race, or
/// `Err(RpcError::Send(_))` when the request never left the transport.
/// Exactly one completion is delivered per request — unless the node
/// stops first, in which case the request is cancelled and nothing is
/// delivered (see the cancel-on-stop notes on [`NodeCtx::rpc_async`]).
#[derive(Debug)]
pub struct RpcDone {
    /// The token the request was started with.
    pub token: RpcToken,
    /// The reply, or why there is none.
    pub result: Result<Envelope, RpcError>,
}

/// An event-driven platform node: the state machine behind one transport
/// endpoint, scheduled by an [`crate::Executor`].
///
/// The runtime guarantees **per-node serialization**: for one spawned
/// node, callbacks never run concurrently and are totally ordered (the old
/// one-thread-per-node model's implicit guarantee). Different nodes run in
/// parallel across the pool's workers.
///
/// Callbacks should return promptly. Inside a node there is one way to
/// ask another node something: [`NodeCtx::rpc_async`] returns immediately
/// and delivers the reply as an [`RpcDone`] completion to
/// [`NodeLogic::on_rpc_done`], so any number of requests can be in flight
/// with zero parked workers. Anything that genuinely *blocks the calling
/// thread* — a sleeping backend, a hand-rolled wait — runs off the pool,
/// on [`ExecutorHandle::spawn_blocking`], and resumes the node through a
/// [`TaskCompleter`]. Don't call [`Endpoint::recv`] inside a callback:
/// the runtime drains the mailbox for you and hands every envelope to
/// `on_message`.
pub trait NodeLogic: Send + 'static {
    /// Runs once, before any message is delivered.
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// Handles one inbound envelope.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow;

    /// Handles a timer set via [`NodeCtx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: TimerToken) -> Flow {
        Flow::Continue
    }

    /// Handles the completion of a request started with
    /// [`NodeCtx::rpc_async`] or a [`TaskCompleter`] — the continuation of
    /// a state task split across a reply. Runs with the same exclusive,
    /// serialized access as `on_message`.
    fn on_rpc_done(&mut self, _ctx: &mut NodeCtx<'_>, _done: RpcDone) -> Flow {
        Flow::Continue
    }

    /// Runs exactly once when the node stops (requested via
    /// [`NodeHandle::stop`] or the handle's drop), while the endpoint is
    /// still connected.
    fn on_stop(&mut self, _ctx: &mut NodeCtx<'_>) {}
}

/// The runtime services available to a callback: the node's endpoint,
/// timers, continuation-passing rpc, and the executor itself.
pub struct NodeCtx<'a> {
    endpoint: &'a Endpoint,
    pool: &'a Arc<Pool>,
    cell: &'a Arc<NodeCell>,
}

impl NodeCtx<'_> {
    /// The node's id.
    pub fn node(&self) -> &NodeId {
        self.endpoint.node()
    }

    /// The node's transport endpoint: send, reply, correlate, clone a
    /// [`selfserv_net::NodeSender`] for spawned tasks. Receiving is the
    /// runtime's job — see the [`NodeLogic`] contract.
    pub fn endpoint(&self) -> &Endpoint {
        self.endpoint
    }

    /// The executor this node runs on (to spawn further nodes or blocking
    /// sections).
    pub fn executor(&self) -> ExecutorHandle {
        ExecutorHandle::from_pool(Arc::clone(self.pool))
    }

    /// Continuation-passing request/response: sends `kind` to `to` as this
    /// node and returns immediately. The correlated reply — or
    /// `Err(Timeout)` once `timeout` elapses first, or `Err(Send(_))` if
    /// the request never left — is delivered back into this node's event
    /// stream as an [`RpcDone`] carrying `token`, handed to
    /// [`NodeLogic::on_rpc_done`] with the usual exclusive serialized
    /// access. **No worker is parked** while the request is in flight, so
    /// any number of requests (across any number of instances this node
    /// manages) can be outstanding on a fixed-size pool.
    ///
    /// Exactly one completion is delivered per call, arbitrated between
    /// the reply, the timer-service-backed deadline, and node stop:
    /// if the node stops first, the request is cancelled — its id is
    /// retired so a late reply is discarded at delivery, and no completion
    /// is ever delivered.
    ///
    /// Returns the request's message id (for diagnostics; completions are
    /// matched by `token`).
    ///
    /// ```
    /// use selfserv_net::{Envelope, Network, NetworkConfig};
    /// use selfserv_runtime::{Executor, Flow, NodeCtx, NodeLogic, RpcDone, RpcToken};
    /// use selfserv_xml::Element;
    /// use std::time::Duration;
    ///
    /// /// Forwards each `ask` to the oracle without parking a worker,
    /// /// answering the original caller when the oracle's reply arrives.
    /// struct Relay {
    ///     next: u64,
    ///     waiting: std::collections::HashMap<RpcToken, Envelope>,
    /// }
    ///
    /// impl NodeLogic for Relay {
    ///     fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
    ///         self.next += 1;
    ///         let token = RpcToken(self.next);
    ///         ctx.rpc_async(
    ///             "oracle",
    ///             "question",
    ///             env.body.clone(),
    ///             Duration::from_secs(5),
    ///             token,
    ///         );
    ///         self.waiting.insert(token, env); // resume state, no parked thread
    ///         Flow::Continue
    ///     }
    ///
    ///     fn on_rpc_done(&mut self, ctx: &mut NodeCtx<'_>, done: RpcDone) -> Flow {
    ///         let asker = self.waiting.remove(&done.token).expect("known token");
    ///         let reply = done.result.expect("oracle answered");
    ///         let _ = ctx.endpoint().reply(&asker, "answer", reply.body);
    ///         Flow::Continue
    ///     }
    /// }
    ///
    /// /// Answers every question with `42`.
    /// struct Oracle;
    /// impl NodeLogic for Oracle {
    ///     fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) -> Flow {
    ///         let _ = ctx.endpoint().reply(&env, "wisdom", Element::new("n").with_attr("v", "42"));
    ///         Flow::Continue
    ///     }
    /// }
    ///
    /// let exec = Executor::new(1); // one worker is enough: nobody parks
    /// let net = Network::new(NetworkConfig::instant());
    /// let relay = exec.handle().spawn_node(
    ///     net.connect("relay").unwrap(),
    ///     Relay { next: 0, waiting: Default::default() },
    /// );
    /// let oracle = exec.handle().spawn_node(net.connect("oracle").unwrap(), Oracle);
    /// let client = net.connect("client").unwrap();
    /// let answer = client
    ///     .rpc("relay", "ask", Element::new("q"), Duration::from_secs(5))
    ///     .unwrap();
    /// assert_eq!(answer.body.attr("v"), Some("42"));
    /// relay.stop();
    /// oracle.stop();
    /// exec.shutdown();
    /// ```
    pub fn rpc_async(
        &self,
        to: impl Into<NodeId>,
        kind: impl Into<String>,
        body: Element,
        timeout: Duration,
        token: RpcToken,
    ) -> MessageId {
        let transport = self.endpoint.transport();
        let id = transport.next_message_id();
        self.cell.inner.lock().pending_rpcs.insert(
            id,
            PendingRpc {
                token,
                deadline_seq: None,
            },
        );
        // Leak-audit gauge: every insert is matched by exactly one
        // decrement at whichever site wins the pending_rpcs removal.
        self.pool.rpc_in_flight.fetch_add(1, Ordering::Relaxed);
        // Register the continuation before the request leaves, so even an
        // instantly delivered reply finds it. The handler only re-enters
        // the node's scheduler — cheap enough for the delivery path.
        let weak = Arc::downgrade(self.cell);
        self.endpoint.demux().register_handler(id, move |env| {
            if let Some(cell) = weak.upgrade() {
                cell.deliver_rpc_reply(id, env);
            }
        });
        match transport.send_prepared(id, self.node(), to.into(), kind.into(), body, None) {
            Ok(()) => {
                let seq =
                    self.pool
                        .timers
                        .schedule_rpc_deadline(timeout, Arc::downgrade(self.cell), id);
                // Attach the deadline to the request so whoever resolves
                // it (reply or stop) can invalidate the heap entry. If the
                // request already resolved — a same-executor reply can win
                // between send and here — the deadline is dead on arrival:
                // cancel it ourselves.
                let mut inner = self.cell.inner.lock();
                match inner.pending_rpcs.get_mut(&id) {
                    Some(pending) => pending.deadline_seq = Some(seq),
                    None => {
                        drop(inner);
                        self.pool.timers.cancel_rpc_deadline(seq);
                    }
                }
            }
            Err(e) => {
                // The request never left: resolve immediately. The event
                // is picked up at the end of the current turn (a NodeCtx
                // only exists inside one), so no wake is needed.
                self.endpoint.demux().cancel_handler(id);
                let mut inner = self.cell.inner.lock();
                if inner.pending_rpcs.remove(&id).is_some() {
                    self.pool.rpc_in_flight.fetch_sub(1, Ordering::Relaxed);
                }
                inner.events.push_back(Event::RpcDone(RpcDone {
                    token,
                    result: Err(RpcError::Send(e)),
                }));
            }
        }
        id
    }

    /// A one-shot handle that delivers an off-node task's outcome back
    /// into this node's event stream as an [`RpcDone`] completion — the
    /// continuation-passing analogue of returning from a blocking section.
    /// Hand it to a section started with [`ExecutorHandle::spawn_blocking`];
    /// when the section calls [`TaskCompleter::complete`], the node resumes in
    /// [`NodeLogic::on_rpc_done`] under its usual serialization. If the
    /// node stopped in the meantime, the completion is dropped.
    pub fn completer(&self, token: RpcToken) -> TaskCompleter {
        TaskCompleter {
            cell: Arc::downgrade(self.cell),
            token,
        }
    }

    /// Arms a one-shot timer: `on_timer(token)` fires after `after`
    /// (dropped silently if the node stops first). Re-arm from `on_timer`
    /// for a recurring cadence.
    pub fn set_timer(&self, after: Duration, token: TimerToken) {
        self.pool
            .timers
            .schedule(after, Arc::downgrade(self.cell), token);
    }
}

/// One-shot handle delivering the outcome of off-node work back into the
/// owning node's event stream as an [`RpcDone`] completion. Obtained from
/// [`NodeCtx::completer`]; moved into a blocking section (or any thread).
///
/// This is how a node delegates genuinely thread-blocking work (a backend
/// call that sleeps, a file read) without occupying itself or a worker:
/// the work runs on [`ExecutorHandle::spawn_blocking`], and its result
/// re-enters the state machine through [`NodeLogic::on_rpc_done`] exactly
/// like an [`NodeCtx::rpc_async`] reply. Completions for stopped nodes
/// are dropped silently. Dropping the completer without calling
/// [`TaskCompleter::complete`] delivers nothing — the owning logic should
/// bound such requests itself if it needs a guarantee.
pub struct TaskCompleter {
    cell: Weak<NodeCell>,
    token: RpcToken,
}

impl TaskCompleter {
    /// The token the completion will carry.
    pub fn token(&self) -> RpcToken {
        self.token
    }

    /// Delivers `result` to the owning node as an [`RpcDone`] completion
    /// (a no-op if the node has stopped).
    pub fn complete(self, result: Result<Envelope, RpcError>) {
        if let Some(cell) = self.cell.upgrade() {
            cell.deliver_completion(self.token, result);
        }
    }
}

impl fmt::Debug for TaskCompleter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskCompleter")
            .field("token", &self.token)
            .finish()
    }
}

enum Event {
    Start,
    Timer(TimerToken),
    RpcDone(RpcDone),
    StopRequested,
}

struct Body {
    logic: Box<dyn NodeLogic>,
    endpoint: Endpoint,
}

struct CellInner {
    /// Runtime events (start, timers, stop requests); transport envelopes
    /// stay queued in the endpoint's own mailbox.
    events: VecDeque<Event>,
    /// True from the moment the node is pushed on the run queue until its
    /// scheduling turn ends — the bit that makes callbacks serialized: a
    /// scheduled/running node is never pushed again.
    scheduled: bool,
    /// Terminal: the stop turn ended (or a callback panicked) and the
    /// endpoint was dropped.
    stopped: bool,
    /// The logic + endpoint, present unless a turn is running (taken for
    /// its duration, by a worker or by [`NodeHandle::stop`]) or the node
    /// has stopped.
    body: Option<Body>,
    /// In-flight [`NodeCtx::rpc_async`] requests: request id → the token
    /// the completion will carry plus its scheduled deadline. Whichever of
    /// reply / deadline / stop removes an id first owns delivering (or
    /// suppressing) its completion — and cancelling the deadline's timer
    /// entry, so resolved requests don't pile dead entries in the heap.
    pending_rpcs: HashMap<MessageId, PendingRpc>,
}

/// Book-keeping for one in-flight [`NodeCtx::rpc_async`] request.
struct PendingRpc {
    token: RpcToken,
    /// The timer-heap sequence number of the request's deadline; `None`
    /// until the deadline is scheduled (a send error resolves the request
    /// before one exists).
    deadline_seq: Option<u64>,
}

/// One spawned node: its event queue, scheduling state, and machine.
pub(crate) struct NodeCell {
    node: NodeId,
    pool: Weak<Pool>,
    /// The endpoint's reply demultiplexer, held directly so rpc deadlines
    /// and stop-time cancellation can reach it even while a worker has the
    /// body checked out mid-turn.
    demux: Arc<ReplyDemux>,
    inner: Mutex<CellInner>,
    stopped_cv: Condvar,
}

impl NodeCell {
    pub(crate) fn spawn(
        pool: &Arc<Pool>,
        endpoint: Endpoint,
        logic: Box<dyn NodeLogic>,
    ) -> NodeHandle {
        let cell = Arc::new(NodeCell {
            node: endpoint.node().clone(),
            pool: Arc::downgrade(pool),
            demux: Arc::clone(endpoint.demux()),
            inner: Mutex::new(CellInner {
                events: VecDeque::from([Event::Start]),
                scheduled: false,
                stopped: false,
                body: Some(Body { logic, endpoint }),
                pending_rpcs: HashMap::new(),
            }),
            stopped_cv: Condvar::new(),
        });
        {
            // Install the waker before the first wake: every envelope the
            // transport queues from here on schedules the node. Anything
            // delivered earlier is already in the mailbox and is drained
            // by the initial turn below.
            let inner = cell.inner.lock();
            let weak_cell = Arc::downgrade(&cell);
            inner
                .body
                .as_ref()
                .expect("fresh cell has its body")
                .endpoint
                .set_mailbox_waker(move || {
                    if let Some(cell) = weak_cell.upgrade() {
                        cell.wake();
                    }
                });
        }
        cell.wake();
        NodeHandle { cell }
    }

    /// Schedules the node if it is not already queued, running, or
    /// stopped.
    pub(crate) fn wake(self: &Arc<Self>) {
        {
            let mut inner = self.inner.lock();
            if inner.stopped || inner.scheduled {
                return;
            }
            inner.scheduled = true;
        }
        if let Some(pool) = self.pool.upgrade() {
            pool.push(Arc::clone(self));
        }
    }

    /// Queues a fired timer as a runtime event and schedules the node.
    pub(crate) fn deliver_timer(self: &Arc<Self>, token: TimerToken) {
        {
            let mut inner = self.inner.lock();
            if inner.stopped {
                return;
            }
            inner.events.push_back(Event::Timer(token));
        }
        self.wake();
    }

    /// Resolves an in-flight rpc with its reply: invoked by the demux
    /// continuation handler on the transport's delivery path. Queues an
    /// [`RpcDone`] completion and schedules the node; a no-op if the
    /// request was already resolved (deadline won) or the node stopped.
    pub(crate) fn deliver_rpc_reply(self: &Arc<Self>, id: MessageId, env: Envelope) {
        let deadline_seq = {
            let mut inner = self.inner.lock();
            if inner.stopped {
                return;
            }
            let Some(pending) = inner.pending_rpcs.remove(&id) else {
                return;
            };
            inner.events.push_back(Event::RpcDone(RpcDone {
                token: pending.token,
                result: Ok(env),
            }));
            pending.deadline_seq
        };
        // The reply won: invalidate the now-dead deadline (outside the
        // cell lock — cancellation takes the timer lock).
        if let Some(pool) = self.pool.upgrade() {
            pool.rpc_in_flight.fetch_sub(1, Ordering::Relaxed);
            if let Some(seq) = deadline_seq {
                pool.timers.cancel_rpc_deadline(seq);
            }
        }
        self.wake();
    }

    /// Resolves an in-flight rpc to a timeout: invoked by the timer
    /// service when the request's deadline fires. The demux arbitrates the
    /// race — if cancelling the continuation handler fails, the reply
    /// already won (or the node stopped and cancelled everything) and the
    /// deadline is a no-op.
    pub(crate) fn deliver_rpc_timeout(self: &Arc<Self>, id: MessageId) {
        if !self.demux.cancel_handler(id) {
            return;
        }
        {
            let mut inner = self.inner.lock();
            if inner.stopped {
                return;
            }
            let Some(pending) = inner.pending_rpcs.remove(&id) else {
                return;
            };
            inner.events.push_back(Event::RpcDone(RpcDone {
                token: pending.token,
                result: Err(RpcError::Timeout),
            }));
        }
        if let Some(pool) = self.pool.upgrade() {
            pool.rpc_in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        self.wake();
    }

    /// Queues a completion delivered by a [`TaskCompleter`] (work finished
    /// off-node). Dropped silently when the node has stopped.
    pub(crate) fn deliver_completion(
        self: &Arc<Self>,
        token: RpcToken,
        result: Result<Envelope, RpcError>,
    ) {
        {
            let mut inner = self.inner.lock();
            if inner.stopped {
                return;
            }
            inner
                .events
                .push_back(Event::RpcDone(RpcDone { token, result }));
        }
        self.wake();
    }

    /// Whether this node has stopped — timers scheduled by a stopped cell
    /// can never fire into it, so the leak audit ignores them.
    pub(crate) fn is_stopped(&self) -> bool {
        self.inner.lock().stopped
    }

    fn finalize(&self, body: Option<Body>) {
        // Drop the endpoint first: the name deregisters and the transport
        // stops delivering before the stop becomes observable.
        drop(body);
        let cancelled: Vec<(MessageId, Option<u64>)> = {
            let mut inner = self.inner.lock();
            inner.stopped = true;
            inner.scheduled = false;
            inner.events.clear();
            inner.body = None;
            inner
                .pending_rpcs
                .drain()
                .map(|(id, pending)| (id, pending.deadline_seq))
                .collect()
        };
        // Cancel-on-stop: retire every in-flight rpc_async id in the demux
        // (outside the cell lock — cancel takes demux locks) so late
        // replies are discarded at delivery instead of running
        // continuations for a dead node — and invalidate their deadlines
        // so the timer heap doesn't carry entries for a stopped node.
        let pool = self.pool.upgrade();
        if let Some(pool) = pool.as_ref() {
            pool.rpc_in_flight
                .fetch_sub(cancelled.len(), Ordering::Relaxed);
        }
        for (id, deadline_seq) in cancelled {
            self.demux.cancel_handler(id);
            if let (Some(seq), Some(pool)) = (deadline_seq, pool.as_ref()) {
                pool.timers.cancel_rpc_deadline(seq);
            }
        }
        self.stopped_cv.notify_all();
    }
}

/// One scheduling turn of a node, executed by a pool worker, re-queueing
/// the node if work remains. Exclusive access is guaranteed by the
/// `scheduled` bit — the queue holds at most one entry per node — and by
/// the body itself, which a turn holds for its duration.
pub(crate) fn run_node(pool: &Arc<Pool>, cell: Arc<NodeCell>) {
    let (body, events) = {
        let mut inner = cell.inner.lock();
        // No body: the node stopped, or a `NodeHandle::stop` is running its
        // stop turn, which ends with the node stopped. Nothing to run.
        let Some(body) = inner.body.take() else {
            return;
        };
        debug_assert!(inner.scheduled, "a queued node is always marked scheduled");
        (body, std::mem::take(&mut inner.events))
    };
    let Some(body) = run_turn(pool, &cell, body, events, false) else {
        return;
    };
    let mut inner = cell.inner.lock();
    // Read the mailbox depth *under the cell lock*: a delivery landing
    // after this read runs its waker after we release the lock, where it
    // either observes `scheduled == true` (we re-queued below) or
    // re-schedules the node itself — no lost wakeups either way.
    let more = !inner.events.is_empty() || body.endpoint.pending() > 0;
    inner.body = Some(body);
    if more {
        drop(inner);
        pool.push(cell);
    } else {
        inner.scheduled = false;
    }
}

/// Runs one turn over a claimed body: runtime events in order, then up to
/// [`BATCH`] mailbox envelopes. A [`Event::StopRequested`] among the events
/// — or `stopping`, set by a [`NodeHandle::stop`] running the turn itself —
/// ends the turn with `on_stop` instead of the mailbox, and the node is
/// finalized. Returns the body when the node keeps running.
fn run_turn(
    pool: &Arc<Pool>,
    cell: &Arc<NodeCell>,
    mut body: Body,
    mut events: VecDeque<Event>,
    mut stopping: bool,
) -> Option<Body> {
    // Panic fence: if a callback unwinds, the body (and its endpoint) is
    // dropped by the unwind with the turn still holding the node — treat
    // that as node death. The guard finalizes the cell (stopped + name
    // already freed + waiters notified) so `NodeHandle::stop` cannot hang
    // on a wedged node; the thread itself survives via its caller's
    // catch_unwind.
    struct TurnGuard<'a> {
        cell: &'a Arc<NodeCell>,
        armed: bool,
    }
    impl Drop for TurnGuard<'_> {
        fn drop(&mut self) {
            if self.armed {
                self.cell.finalize(None);
            }
        }
    }
    let mut guard = TurnGuard { cell, armed: true };
    {
        let Body { logic, endpoint } = &mut body;
        let endpoint: &Endpoint = endpoint;
        let mut ctx = NodeCtx {
            endpoint,
            pool,
            cell,
        };
        while let Some(event) = events.pop_front() {
            match event {
                Event::Start => logic.on_start(&mut ctx),
                Event::Timer(token) => {
                    logic.on_timer(&mut ctx, token);
                }
                Event::RpcDone(done) => {
                    logic.on_rpc_done(&mut ctx, done);
                }
                Event::StopRequested => {
                    stopping = true;
                    break;
                }
            }
        }
        if stopping {
            logic.on_stop(&mut ctx);
        } else {
            for _ in 0..BATCH {
                let Some(env) = endpoint.try_recv() else {
                    break;
                };
                logic.on_message(&mut ctx, env);
            }
        }
    }
    guard.armed = false;
    if stopping {
        cell.finalize(Some(body));
        return None;
    }
    Some(body)
}

/// Handle to a spawned node: observe it and stop it. Dropping the handle
/// stops the node **without waiting**: the stop is queued behind whatever
/// the node is doing, `on_stop` runs on a worker (on the dropping thread
/// once the executor has shut down), and in-flight [`NodeCtx::rpc_async`]
/// requests are cancelled. Call [`NodeHandle::stop`] to do all of that
/// before returning.
pub struct NodeHandle {
    cell: Arc<NodeCell>,
}

impl NodeHandle {
    /// The node's id.
    pub fn node(&self) -> &NodeId {
        &self.cell.node
    }

    /// True once the node has fully stopped (endpoint dropped, name free).
    pub fn is_stopped(&self) -> bool {
        self.cell.inner.lock().stopped
    }

    /// Stops the node and returns once it has fully stopped: a stop event
    /// is queued behind whatever the node is currently doing, `on_stop`
    /// runs, and the endpoint drops (freeing the name). Idempotent; safe
    /// to call from any thread, a pool worker included.
    ///
    /// The stop turn needs no free worker: unless a worker is mid-turn on
    /// the node, the calling thread runs it — the events queued ahead of
    /// the stop, then `on_stop`. A worker that is mid-turn runs the stop
    /// turn next, and the call waits for it. This holds after
    /// [`crate::Executor::shutdown`] too.
    pub fn stop(&self) {
        if self.request_stop() {
            self.run_stop_turn();
        }
    }

    /// Queues a stop event behind whatever the node is doing. False when
    /// the node has already stopped.
    fn request_stop(&self) -> bool {
        let mut inner = self.cell.inner.lock();
        if inner.stopped {
            return false;
        }
        inner.events.push_back(Event::StopRequested);
        true
    }

    /// Runs the stop turn on the calling thread if no worker holds the
    /// node's body. Returns once the node has stopped, here or on the
    /// worker.
    fn run_stop_turn(&self) {
        let mut inner = self.cell.inner.lock();
        while !inner.stopped {
            let Some(body) = inner.body.take() else {
                // A worker is mid-turn on the node. The stop event queued
                // behind that turn re-queues the node, and the worker,
                // free again, runs the stop turn.
                self.cell.stopped_cv.wait(&mut inner);
                continue;
            };
            // Keep wakes from queueing turns that would find no body.
            inner.scheduled = true;
            let events = std::mem::take(&mut inner.events);
            drop(inner);
            match self.cell.pool.upgrade() {
                // As on a worker, a panicking callback kills the node (the
                // turn's guard finalizes it), not the stopping thread.
                Some(pool) => {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_turn(&pool, &self.cell, body, events, true)
                    }));
                }
                // The executor is gone with every handle to it: no context
                // to run callbacks in. Free the name and cancel requests.
                None => self.cell.finalize(Some(body)),
            }
            return;
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        if !self.request_stop() {
            return;
        }
        // A running pool runs the stop turn; one that is shut down (or
        // gone) may have no worker left to, so the dropping thread does.
        match self.cell.pool.upgrade() {
            Some(pool) if !pool.is_shut_down() => self.cell.wake(),
            _ => self.run_stop_turn(),
        }
    }
}

impl fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle")
            .field("node", &self.cell.node)
            .field("stopped", &self.is_stopped())
            .finish()
    }
}
