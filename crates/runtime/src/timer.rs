//! The executor's timer service: the runtime's replacement for the
//! `sleep`- and `recv_timeout`-shaped delays of the thread-per-node model.
//!
//! One dedicated thread per [`crate::Executor`] owns a monotonic min-heap
//! of pending timers (the classic timer-wheel role; a heap keeps the
//! vendored-dependency footprint at zero while the timer population stays
//! modest — one TTL sweep per *busy* node plus one deadline per in-flight
//! [`crate::NodeCtx::rpc_async`]). When a timer fires, the service
//! enqueues a timer event on the owning node and wakes it through the
//! ordinary run queue, so `on_timer` gets the same exclusive, serialized
//! access to the node as `on_message`. Rpc deadlines ride the same heap:
//! firing one resolves the request to a timeout completion unless its
//! reply already won the race.

use crate::node::{NodeCell, TimerToken};
use parking_lot::{Condvar, Mutex};
use selfserv_net::MessageId;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// What firing an entry delivers to its node: an ordinary `on_timer` token,
/// or the timeout of a continuation-passing rpc (see
/// [`crate::NodeCtx::rpc_async`]), which resolves the request to
/// `Err(Timeout)` if its reply has not arrived by the deadline.
enum Fire {
    Timer(TimerToken),
    RpcDeadline(MessageId),
}

struct Entry {
    at: Instant,
    /// Tie-breaker preserving schedule order among equal deadlines.
    seq: u64,
    cell: Weak<NodeCell>,
    fire: Fire,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap on (deadline, sequence).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct TimerState {
    heap: BinaryHeap<Entry>,
    seq: u64,
    stopped: bool,
    /// Lazily invalidated entries (resolved rpc deadlines), keyed by the
    /// unique schedule sequence number — message ids are only unique per
    /// transport, and one executor may serve several. A cancelled entry is
    /// skipped at fire time; once the set grows past both a floor and half
    /// the heap, the heap is rebuilt without the dead entries so
    /// long-timeout/high-rate rpc workloads don't accumulate them.
    cancelled: HashSet<u64>,
}

/// Tombstone count below which a rebuild never triggers: rebuilds are
/// O(heap), so tiny cancel bursts just wait for fire-time skipping.
const REBUILD_FLOOR: usize = 64;

struct TimerInner {
    state: Mutex<TimerState>,
    cv: Condvar,
}

/// Handle to the executor's timer thread. Owned by the pool; scheduling is
/// reached through [`crate::NodeCtx::set_timer`].
pub(crate) struct TimerService {
    inner: Arc<TimerInner>,
}

impl TimerService {
    pub(crate) fn new() -> Self {
        TimerService {
            inner: Arc::new(TimerInner {
                state: Mutex::new(TimerState {
                    heap: BinaryHeap::new(),
                    seq: 0,
                    stopped: false,
                    cancelled: HashSet::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Spawns the timer thread (once per executor).
    pub(crate) fn start(&self) {
        let inner = Arc::clone(&self.inner);
        std::thread::Builder::new()
            .name("selfserv-exec-timer".to_string())
            .spawn(move || timer_loop(&inner))
            .expect("spawn executor timer thread");
    }

    /// Schedules a timer event for `cell` after `after`. Timers for nodes
    /// that stop (or cells that are gone) before the deadline are dropped
    /// silently at fire time.
    pub(crate) fn schedule(&self, after: Duration, cell: Weak<NodeCell>, token: TimerToken) {
        self.push(after, cell, Fire::Timer(token));
    }

    /// Schedules the timeout deadline of an asynchronous rpc: when it
    /// fires, the node resolves request `id` to `Err(Timeout)` unless the
    /// reply won the race (in which case the deadline is a no-op). Returns
    /// the entry's sequence number, the key for
    /// [`TimerService::cancel_rpc_deadline`].
    pub(crate) fn schedule_rpc_deadline(
        &self,
        after: Duration,
        cell: Weak<NodeCell>,
        id: MessageId,
    ) -> u64 {
        self.push(after, cell, Fire::RpcDeadline(id))
    }

    /// Lazily invalidates a scheduled rpc deadline whose request has
    /// resolved (reply arrived, or the node stopped): the entry is
    /// tombstoned and skipped at fire time instead of firing a dead
    /// deadline through the demux, and a tombstone pile-up triggers a heap
    /// rebuild. Safe to call with an already-fired sequence number — the
    /// rebuild discards tombstones that match nothing.
    pub(crate) fn cancel_rpc_deadline(&self, seq: u64) {
        let mut state = self.inner.state.lock();
        if state.stopped {
            return;
        }
        state.cancelled.insert(seq);
        if state.cancelled.len() >= REBUILD_FLOOR && state.cancelled.len() * 2 >= state.heap.len() {
            // Every live tombstone refers to an in-heap entry (cancel is
            // only called after schedule returns), so the set empties into
            // the rebuild; leftovers are fire-races, dead either way.
            let cancelled = std::mem::take(&mut state.cancelled);
            state.heap.retain(|entry| !cancelled.contains(&entry.seq));
        }
    }

    /// Scheduled entries still in the heap, dead tombstones included —
    /// for tests and diagnostics.
    pub(crate) fn heap_len(&self) -> usize {
        self.inner.state.lock().heap.len()
    }

    /// Entries that can still fire into a live node: tombstoned rpc
    /// deadlines and timers owned by stopped or dropped cells are excluded.
    /// Cells are upgraded *after* releasing the timer lock — `is_stopped`
    /// takes the cell lock, and the fire path already orders cell-after-
    /// timer, so probing cells under the timer lock would add no deadlock
    /// but holding both here keeps the discipline uniform and the critical
    /// section short.
    pub(crate) fn live_len(&self) -> usize {
        let candidates: Vec<Weak<NodeCell>> = {
            let state = self.inner.state.lock();
            state
                .heap
                .iter()
                .filter(|entry| !state.cancelled.contains(&entry.seq))
                .map(|entry| Weak::clone(&entry.cell))
                .collect()
        };
        candidates
            .into_iter()
            .filter_map(|cell| cell.upgrade())
            .filter(|cell| !cell.is_stopped())
            .count()
    }

    fn push(&self, after: Duration, cell: Weak<NodeCell>, fire: Fire) -> u64 {
        let mut state = self.inner.state.lock();
        if state.stopped {
            return 0;
        }
        state.seq += 1;
        let seq = state.seq;
        state.heap.push(Entry {
            at: Instant::now() + after,
            seq,
            cell,
            fire,
        });
        // The timer thread sleeps until the earliest deadline: only an
        // entry that becomes the earliest moves its wake-up.
        if state.heap.peek().map(|top| top.seq) == Some(seq) {
            self.inner.cv.notify_one();
        }
        seq
    }

    /// Stops the timer thread; pending timers never fire.
    pub(crate) fn stop(&self) {
        self.inner.state.lock().stopped = true;
        self.inner.cv.notify_all();
    }
}

impl Drop for TimerService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn timer_loop(inner: &TimerInner) {
    let mut state = inner.state.lock();
    loop {
        if state.stopped {
            return;
        }
        let now = Instant::now();
        match state.heap.peek() {
            None => {
                inner.cv.wait(&mut state);
            }
            Some(top) if top.at <= now => {
                let entry = state.heap.pop().expect("peeked entry");
                if state.cancelled.remove(&entry.seq) {
                    // Lazily invalidated (the rpc resolved first): discard
                    // without firing.
                    continue;
                }
                // Fire outside the lock: waking a node takes the cell and
                // run-queue locks, and `schedule` must never wait on them.
                drop(state);
                if let Some(cell) = entry.cell.upgrade() {
                    match entry.fire {
                        Fire::Timer(token) => cell.deliver_timer(token),
                        Fire::RpcDeadline(id) => cell.deliver_rpc_timeout(id),
                    }
                }
                state = inner.state.lock();
            }
            Some(top) => {
                let wait = top.at - now;
                inner.cv.wait_for(&mut state, wait);
            }
        }
    }
}
