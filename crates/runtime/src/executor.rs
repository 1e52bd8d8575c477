//! The fixed-size worker pool: work-stealing run queues, workers, threads
//! for blocking sections, and graceful shutdown.
//!
//! # Run-queue topology
//!
//! Work reaches the pool through two tiers. Each **base** worker owns a
//! FIFO local deque; a runnable pushed from a worker thread (a node
//! re-queueing itself mid-burst, a wake triggered by an in-turn send) goes
//! straight to that worker's own deque — no shared-queue handoff on the
//! hot path. Runnables pushed from outside the pool (transport readers,
//! the timer thread, client threads) land in a global **injector**. An
//! idle worker looks for work in order: own deque → injector (stealing a
//! batch to amortize the shared-queue touch) → stealing from a sibling's
//! deque, so queued work is never stranded — anything a busy worker left
//! behind is stolen by whoever runs dry.
//!
//! Per-node callback serialization is *not* the queue's job: the
//! `scheduled` bit on each [`NodeCell`] guarantees at most one queue entry
//! per node exists anywhere (local, injector, or mid-steal), so stealing
//! moves a node between workers but never duplicates it.

use crate::node::{run_node, NodeCell, NodeHandle, NodeLogic};
use crate::timer::TimerService;
use crossbeam::deque;
use parking_lot::{Condvar, Mutex};
use selfserv_net::Endpoint;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often an idle worker re-checks for shutdown.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// How many times an out-of-work worker yields and rescans before parking
/// on the idle condvar — keeps hot request/reply handoffs off the
/// futex-wait path.
const SPIN_RESCANS: usize = 2;

/// A worker's own run queue, installed in thread-local storage so
/// [`Pool::push`] can route work pushed *from* a worker back onto that
/// worker's deque. Tagged with the owning pool's address: a worker of one
/// executor may push to another executor's pool (cross-executor sends),
/// which must go to that pool's injector, not this thread's deque. The
/// worker holds its pool `Arc` for the thread's whole life, so the tag can
/// never be reused while this entry is live.
struct LocalQueue {
    pool_id: usize,
    worker: deque::Worker<Arc<NodeCell>>,
}

thread_local! {
    /// The local deque of a worker.
    static LOCAL: RefCell<Option<LocalQueue>> = const { RefCell::new(None) };
    /// Per-thread rotation cursor so concurrent thieves start their victim
    /// scans at different siblings.
    static NEXT_VICTIM: Cell<usize> = const { Cell::new(0) };
}

/// Shared pool state. Everything public goes through [`Executor`] /
/// [`ExecutorHandle`]. The run queues hold node turns only: a queued
/// [`NodeCell`] is one scheduling turn of that node (see [`run_node`]).
pub(crate) struct Pool {
    /// Global FIFO for work pushed from outside the pool's worker threads.
    injector: deque::Injector<Arc<NodeCell>>,
    /// One stealer per worker's local deque, fixed at construction.
    stealers: Vec<deque::Stealer<Arc<NodeCell>>>,
    /// Runnables queued anywhere (injector + all local deques) and not yet
    /// claimed by a worker. The only cross-queue signal: parking and
    /// shutdown key off it instead of scanning every queue.
    pending: AtomicUsize,
    /// Workers currently parked (or about to park) on `sleep_cv`; lets
    /// `push` skip the wake lock entirely when everyone is busy.
    idle: AtomicUsize,
    sleep: Mutex<()>,
    sleep_cv: Condvar,
    /// The configured worker count, fixed for the pool's life.
    base: usize,
    /// Workers alive: `base` until shutdown, then counting down as they
    /// exit.
    live: AtomicUsize,
    /// Threads started by [`ExecutorHandle::spawn_blocking`] that have not
    /// returned yet.
    blocked: AtomicUsize,
    shutdown: AtomicBool,
    pub(crate) timers: TimerService,
    /// In-flight [`crate::NodeCtx::rpc_async`] requests across every node
    /// on this executor: incremented when a request registers, decremented
    /// by whichever of reply / deadline / send-error / node-stop resolves
    /// it. The chaos harness's leak audit asserts this returns to zero
    /// after quiesce — a leaked continuation shows up here.
    pub(crate) rpc_in_flight: AtomicUsize,
    /// Runnables claimed from a *sibling's* deque (not own deque, not the
    /// injector): the work-stealing balance signal exported as
    /// `selfserv_executor_steals_total`. A hot steal rate with a deep run
    /// queue means the pool is load-imbalanced or under-provisioned.
    steals: AtomicU64,
}

impl Pool {
    pub(crate) fn push(&self, runnable: Arc<NodeCell>) {
        // Count before publishing: `pending` must never dip below the true
        // queue population, or a worker claiming a just-pushed runnable
        // ahead of our increment would wrap the counter below zero. The
        // over-count window (counted but not yet visible) only costs an
        // unparked worker a wasted scan.
        self.pending.fetch_add(1, Ordering::SeqCst);
        let pool_id = self as *const Pool as usize;
        let runnable = LOCAL.with(|slot| {
            let slot = slot.borrow();
            match slot.as_ref() {
                // Pushed from one of our own workers: keep it local.
                Some(local) if local.pool_id == pool_id => {
                    local.worker.push(runnable);
                    None
                }
                _ => Some(runnable),
            }
        });
        if let Some(runnable) = runnable {
            self.injector.push(runnable);
        }
        // SeqCst pairs with the park path: a parking worker publishes
        // `idle` *before* re-checking `pending`; we publish `pending`
        // before checking `idle`. Whichever races ahead, either the worker
        // sees the new runnable or we see the sleeper and wake it — a
        // wakeup is never lost.
        if self.idle.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock();
            self.sleep_cv.notify_one();
        }
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.timers.stop();
        // Parked workers re-check shutdown on wake; without this they
        // would only notice at the next idle tick.
        let _guard = self.sleep.lock();
        self.sleep_cv.notify_all();
    }

    /// One work-finding pass in steal order: own deque, then the injector
    /// (batching into the local deque to amortize the shared touch), then
    /// the siblings' deques starting at a rotating victim.
    fn find_work(&self) -> Option<Arc<NodeCell>> {
        let pool_id = self as *const Pool as usize;
        if let Some(runnable) = LOCAL.with(|slot| {
            let slot = slot.borrow();
            match slot.as_ref() {
                Some(local) if local.pool_id == pool_id => local.worker.pop(),
                _ => None,
            }
        }) {
            return Some(runnable);
        }
        loop {
            let mut contended = false;
            let stolen = LOCAL.with(|slot| {
                let slot = slot.borrow();
                match slot.as_ref() {
                    Some(local) if local.pool_id == pool_id => {
                        self.injector.steal_batch_and_pop(&local.worker)
                    }
                    _ => self.injector.steal(),
                }
            });
            match stolen {
                deque::Steal::Success(runnable) => return Some(runnable),
                deque::Steal::Retry => contended = true,
                deque::Steal::Empty => {}
            }
            let start = NEXT_VICTIM.with(|v| {
                let cur = v.get();
                v.set(cur.wrapping_add(1));
                cur
            });
            for i in 0..self.stealers.len() {
                let victim = &self.stealers[(start + i) % self.stealers.len()];
                match victim.steal() {
                    deque::Steal::Success(runnable) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(runnable);
                    }
                    deque::Steal::Retry => contended = true,
                    deque::Steal::Empty => {}
                }
            }
            if !contended {
                return None;
            }
        }
    }

    /// Parks the calling worker until new work is signalled or the idle
    /// tick elapses.
    fn park(&self) {
        let mut guard = self.sleep.lock();
        // Publish idleness, then re-check for work (see `push` for the
        // pairing); without the re-check a push landing between our last
        // scan and the wait would strand its runnable for a full tick.
        self.idle.fetch_add(1, Ordering::SeqCst);
        if self.pending.load(Ordering::SeqCst) == 0 && !self.is_shut_down() {
            self.sleep_cv.wait_for(&mut guard, IDLE_TICK);
        }
        self.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

fn spawn_worker(pool: Arc<Pool>, worker: deque::Worker<Arc<NodeCell>>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("selfserv-exec-worker".to_string())
        .spawn(move || {
            LOCAL.with(|slot| {
                *slot.borrow_mut() = Some(LocalQueue {
                    pool_id: Arc::as_ptr(&pool) as usize,
                    worker,
                });
            });
            worker_loop(&pool);
            pool.live.fetch_sub(1, Ordering::SeqCst);
        })
        .expect("spawn executor worker")
}

/// Runs turns until shutdown has drained the run queue. The worker's own
/// deque is empty on return: only this thread pushes to it, and it just
/// found no work.
fn worker_loop(pool: &Arc<Pool>) {
    let mut rescans = 0;
    loop {
        // Panic fence: a panicking callback must not kill the worker —
        // that would shrink the fixed pool and hang shutdown. The panic is
        // contained to the one turn (run_node's own guard finalizes a node
        // that dies mid-turn).
        match pool.find_work() {
            Some(cell) => {
                pool.pending.fetch_sub(1, Ordering::SeqCst);
                rescans = 0;
                let _ =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_node(pool, cell)));
                continue;
            }
            None => {
                if rescans < SPIN_RESCANS {
                    rescans += 1;
                    std::thread::yield_now();
                    continue;
                }
                rescans = 0;
            }
        }
        pool.park();
        // Drain-then-exit on shutdown: queued work always runs.
        if pool.is_shut_down() && pool.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
    }
}

/// A fixed-size executor: `workers` threads multiplexing any number of
/// [`NodeLogic`] nodes, plus one timer thread. The worker count never
/// changes while the executor runs. See the crate docs for the scheduling
/// model, blocking sections, and the thread-budget formula.
pub struct Executor {
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Starts a pool of `workers` threads (at least 1) and its timer
    /// thread.
    pub fn new(workers: usize) -> Executor {
        let workers = workers.max(1);
        let locals: Vec<deque::Worker<Arc<NodeCell>>> =
            (0..workers).map(|_| deque::Worker::new_fifo()).collect();
        let pool = Arc::new(Pool {
            injector: deque::Injector::new(),
            stealers: locals.iter().map(|w| w.stealer()).collect(),
            pending: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            sleep_cv: Condvar::new(),
            base: workers,
            live: AtomicUsize::new(workers),
            blocked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            timers: TimerService::new(),
            rpc_in_flight: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
        });
        pool.timers.start();
        let workers = locals
            .into_iter()
            .map(|local| spawn_worker(Arc::clone(&pool), local))
            .collect();
        Executor { pool, workers }
    }

    /// Entries (live + tombstoned) in the timer heap — for tests
    /// asserting that resolved rpc deadlines are invalidated.
    #[cfg(test)]
    pub(crate) fn timer_heap_len(&self) -> usize {
        self.pool.timers.heap_len()
    }

    /// A cloneable handle for spawning.
    pub fn handle(&self) -> ExecutorHandle {
        ExecutorHandle {
            pool: Arc::clone(&self.pool),
        }
    }

    /// Graceful shutdown: stop the timer thread, let workers drain the run
    /// queue, then join them. Stop all spawned nodes *before* calling
    /// this — a stop requested after shutdown runs its stop turn on the
    /// stopping thread (see [`NodeHandle::stop`]).
    pub fn shutdown(mut self) {
        self.pool.begin_shutdown();
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Signal (don't wait): a dropped executor stops accepting work and
        // its workers exit once the queue drains.
        self.pool.begin_shutdown();
    }
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.pool.base)
            .finish()
    }
}

/// Cloneable spawn handle to an [`Executor`]: what platform components
/// take instead of `std::thread::Builder`.
#[derive(Clone)]
pub struct ExecutorHandle {
    pool: Arc<Pool>,
}

impl ExecutorHandle {
    pub(crate) fn from_pool(pool: Arc<Pool>) -> ExecutorHandle {
        ExecutorHandle { pool }
    }

    /// Spawns a node: `logic` runs behind `endpoint`, scheduled by the
    /// pool, with serialized callbacks (see [`NodeLogic`]). `on_start`
    /// runs before any message; envelopes already queued on the endpoint
    /// are delivered right after it.
    pub fn spawn_node(&self, endpoint: Endpoint, logic: impl NodeLogic) -> NodeHandle {
        NodeCell::spawn(&self.pool, endpoint, Box::new(logic))
    }

    /// Runs `section` on a thread of its own — work that parks its thread
    /// (a backend that sleeps to simulate service time) and so must not
    /// hold one of the pool's workers. The section hands its outcome back
    /// to its node through a [`crate::TaskCompleter`]. Counted by
    /// [`ExecutorHandle::blocked_workers`] until it returns.
    pub fn spawn_blocking(&self, section: impl FnOnce() + Send + 'static) {
        /// Uncounts the section however it ends, a panic included.
        struct Returned(Arc<Pool>);
        impl Drop for Returned {
            fn drop(&mut self) {
                self.0.blocked.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.pool.blocked.fetch_add(1, Ordering::SeqCst);
        let returned = Returned(Arc::clone(&self.pool));
        std::thread::Builder::new()
            .name("selfserv-blocking".to_string())
            .spawn(move || {
                let _returned = returned;
                section();
            })
            .expect("spawn blocking section");
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.pool.base
    }

    /// Workers currently alive — [`ExecutorHandle::workers`] from start to
    /// shutdown; for tests and diagnostics.
    pub fn live_workers(&self) -> usize {
        self.pool.live.load(Ordering::SeqCst)
    }

    /// Sections started by [`ExecutorHandle::spawn_blocking`] that have
    /// not returned yet: threads parked outside the pool, never workers —
    /// for tests and diagnostics.
    pub fn blocked_workers(&self) -> usize {
        self.pool.blocked.load(Ordering::SeqCst)
    }

    /// In-flight `rpc_async` requests across every node on this pool.
    /// Zero once the system quiesces: every continuation was resolved by a
    /// reply, a deadline, a send error, or a node stop. The chaos harness
    /// treats a nonzero reading after quiesce as a leaked continuation.
    pub fn in_flight_rpcs(&self) -> usize {
        self.pool.rpc_in_flight.load(Ordering::Relaxed)
    }

    /// Timer-heap entries that can still fire into a live node — excludes
    /// tombstoned rpc deadlines and timers owned by stopped or dropped
    /// nodes. Zero once the system quiesces.
    pub fn live_timers(&self) -> usize {
        self.pool.timers.live_len()
    }

    /// Runnables queued anywhere on the pool (injector plus local deques)
    /// and not yet claimed by a worker.
    pub fn run_queue_depth(&self) -> usize {
        self.pool.pending.load(Ordering::SeqCst)
    }

    /// Runnables claimed from a sibling worker's deque since the pool
    /// started — the work-stealing balance signal.
    pub fn steals(&self) -> u64 {
        self.pool.steals.load(Ordering::Relaxed)
    }

    /// Registers the executor's scheduling metrics on `registry`:
    /// run-queue depth, steals, live workers, blocking sections, in-flight
    /// `rpc_async` continuations, and timer-heap gauges. `labels`
    /// (typically `[("hub", ...)]`) are attached to every series.
    pub fn register_metrics(&self, registry: &selfserv_obs::Registry, labels: &[(&str, &str)]) {
        let pool = Arc::clone(&self.pool);
        registry.gauge_fn(
            "selfserv_executor_run_queue_depth",
            "Runnables queued and not yet claimed by a worker.",
            labels,
            move || pool.pending.load(Ordering::SeqCst) as f64,
        );
        let pool = Arc::clone(&self.pool);
        registry.counter_fn(
            "selfserv_executor_steals_total",
            "Runnables claimed from a sibling worker's deque.",
            labels,
            move || pool.steals.load(Ordering::Relaxed),
        );
        let pool = Arc::clone(&self.pool);
        registry.gauge_fn(
            "selfserv_executor_live_workers",
            "Workers currently alive.",
            labels,
            move || pool.live.load(Ordering::SeqCst) as f64,
        );
        let pool = Arc::clone(&self.pool);
        registry.gauge_fn(
            "selfserv_executor_blocked_workers",
            "Blocking sections running on threads of their own.",
            labels,
            move || pool.blocked.load(Ordering::SeqCst) as f64,
        );
        let pool = Arc::clone(&self.pool);
        registry.gauge_fn(
            "selfserv_executor_in_flight_rpcs",
            "In-flight rpc_async continuations across every node on the pool.",
            labels,
            move || pool.rpc_in_flight.load(Ordering::Relaxed) as f64,
        );
        let pool = Arc::clone(&self.pool);
        registry.gauge_fn(
            "selfserv_executor_live_timers",
            "Timer-heap entries that can still fire into a live node.",
            labels,
            move || pool.timers.live_len() as f64,
        );
        let pool = Arc::clone(&self.pool);
        registry.gauge_fn(
            "selfserv_executor_timer_entries",
            "All timer-heap entries, including lazily invalidated ones.",
            labels,
            move || pool.timers.heap_len() as f64,
        );
    }
}

impl fmt::Debug for ExecutorHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorHandle")
            .field("workers", &self.pool.base)
            .finish()
    }
}
