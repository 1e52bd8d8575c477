//! The TCP data plane's outbound side: per-connection frame queues
//! drained by gather-writing connection writers.
//!
//! The old send path wrote each frame under the destination's pool mutex —
//! `write_all(len)` + `write_all(payload)` + `flush`, two-plus syscalls per
//! frame, serialized across every local sender. This module replaces it
//! with one [`ConnQueue`] per destination address: senders *enqueue*
//! serialized frames (enqueue order defines wire order) and return
//! immediately; a per-connection writer thread owns the socket and drains
//! the queue in batches, emitting each batch as a single `writev` of
//! length-prefix + payload [`IoSlice`]s. The socket is unbuffered, so
//! there is nothing to flush. A 64-frame burst is a handful of syscalls
//! instead of ~128.
//!
//! **Backpressure.** The queue is bounded in frames and bytes. A sender
//! hitting the bound blocks on the queue's `space` condvar until the
//! writer frees room, and errors out after [`ENQUEUE_TIMEOUT`] — queue
//! growth is never unbounded.
//!
//! **Deferred errors.** `Ok` from enqueue means *accepted by the
//! transport*, not delivered (the contract `Endpoint::send` has always
//! documented). When the writer fails — connect refused, both write
//! attempts dead — it records the error, drops the queued frames
//! (counted in [`TransportIoStats::frames_dropped`]), and exits; the
//! *next* send to that destination returns the error (triggering the
//! caller's unreachable-peer pruning) and the one after that starts a
//! fresh writer, matching the old path's reconnect-per-send cadence.
//!
//! **Burst gathering.** A writer that just wrote and sees more frames
//! already queued is chasing a producer mid-burst. Instead of consuming
//! 1–2 frames per wakeup (a near-1:1 syscall chase), it yields for up to
//! [`GATHER_WINDOW`] while the queue grows toward [`GATHER_MIN`] before
//! draining again. A lone frame never waits: the gather only runs when
//! the queue is non-empty right after a write.
//!
//! **Idle retirement.** A writer whose queue stays empty for
//! [`WRITER_IDLE_RETIRE`] retires: it clears its alive flag and exits,
//! dropping the socket, so a hub talking to many mostly-quiet peers
//! carries writer threads proportional to *active* destinations rather
//! than ever-contacted ones. Retirement is not a failure — no error is
//! parked, nothing is dropped — and the next send to the destination
//! lazily respawns a fresh writer through the ordinary spawn path.

use crate::metrics::TransportIoStats;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline for establishing an outbound connection. Off loopback, a dead
/// peer usually blackholes SYNs rather than refusing them, and the OS
/// default connect timeout (~2 minutes on Linux) is far too long to stall
/// a connection writer while discovery probes an unreachable hub.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Queue depth bound, in frames.
pub(crate) const MAX_QUEUED_FRAMES: usize = 1024;

/// Queue depth bound, in queued wire bytes — catches few-but-huge frames
/// long before [`MAX_QUEUED_FRAMES`] would.
pub(crate) const MAX_QUEUED_BYTES: usize = 8 * 1024 * 1024;

/// How long a sender may block waiting for queue space before the send
/// fails with backpressure.
const ENQUEUE_TIMEOUT: Duration = Duration::from_secs(5);

/// Frames per writev batch: 2 iovecs each stays well under Linux
/// `IOV_MAX` (1024).
const MAX_BATCH_FRAMES: usize = 256;

/// Queue depth at which the mid-burst gather stops waiting and drains.
const GATHER_MIN: usize = 16;

/// Upper bound on one mid-burst gather pause.
const GATHER_WINDOW: Duration = Duration::from_micros(50);

/// How long a writer waits on an empty queue before retiring (exiting
/// and freeing its thread + socket). The next send respawns one.
pub(crate) const WRITER_IDLE_RETIRE: Duration = Duration::from_secs(5);

/// Consecutive no-growth polls after which a gather concludes the
/// producer has gone quiet and drains early. Polls are lock-free reads
/// separated by `yield_now`, so an actively enqueueing producer shows
/// growth within a poll or two on an idle machine — and within one
/// rescheduling on a fully loaded core, where every extra poll is a pair
/// of context switches. Keep this small: a too-patient gather costs more
/// in switches than it saves in syscalls.
const GATHER_IDLE_POLLS: u32 = 8;

/// Hub-wide data-plane counters feeding
/// [`crate::metrics::MetricsSnapshot::io`]. Updated lock-free by the
/// connection writers.
#[derive(Debug, Default)]
pub(crate) struct IoCounters {
    writev_calls: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_dropped: AtomicU64,
    max_batch_frames: AtomicU64,
    backpressure_waits: AtomicU64,
}

impl IoCounters {
    pub(crate) fn snapshot(&self) -> TransportIoStats {
        TransportIoStats {
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            max_batch_frames: self.max_batch_frames.load(Ordering::Relaxed),
            backpressure_waits: self.backpressure_waits.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        self.writev_calls.store(0, Ordering::Relaxed);
        self.frames_sent.store(0, Ordering::Relaxed);
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.frames_dropped.store(0, Ordering::Relaxed);
        self.max_batch_frames.store(0, Ordering::Relaxed);
        self.backpressure_waits.store(0, Ordering::Relaxed);
    }
}

/// One serialized envelope awaiting the wire: its 4-byte big-endian
/// length prefix and the XML payload, kept separate so a batch turns into
/// `IoSlice`s without re-copying.
pub(crate) struct Frame {
    prefix: [u8; 4],
    payload: Vec<u8>,
}

impl Frame {
    pub(crate) fn new(payload: Vec<u8>) -> Frame {
        Frame {
            prefix: (payload.len() as u32).to_be_bytes(),
            payload,
        }
    }

    fn wire_len(&self) -> usize {
        4 + self.payload.len()
    }
}

struct QueueState {
    queue: VecDeque<Frame>,
    /// Wire bytes represented by `queue`.
    queued_bytes: usize,
    /// A writer thread exists for this queue (spawned by the enqueue that
    /// found none; cleared by the writer as it exits).
    writer_alive: bool,
    /// The writer is parked on `work` (lets enqueue skip the notify when
    /// the writer is mid-drain anyway).
    writer_parked: bool,
    /// Terminal: the destination's endpoint dropped or the hub is going
    /// away. The writer drains what is queued, then exits; new sends fail.
    shutdown: bool,
    /// A writer failure not yet reported: taken by the next send, which
    /// fails with it (deferred-error semantics — see the module docs).
    error: Option<String>,
    /// Writer generation. [`ConnQueue::kill`] bumps it to orphan the
    /// running writer: a writer whose captured epoch no longer matches
    /// exits at its next queue touch without mutating state, so the killed
    /// generation can never race the fresh writer a later send spawns.
    epoch: u64,
}

/// The outbound queue of one pooled connection (one destination address).
pub(crate) struct ConnQueue {
    state: Mutex<QueueState>,
    /// Empty-queue park time after which the writer retires (tests
    /// shorten it).
    idle_retire: Duration,
    /// Queue length mirror for the gather heuristic's polling: reading it
    /// must not touch the state mutex, or the poll loop would contend
    /// with the very producer it is waiting for.
    depth: AtomicUsize,
    /// Senders waiting for queue space.
    space: Condvar,
    /// The writer waiting for frames (or shutdown).
    work: Condvar,
}

/// What [`ConnQueue::accept`] decided about writer lifecycle.
#[derive(Debug)]
enum Accepted {
    /// Frame queued; a writer is already running.
    Queued,
    /// Frame queued and the caller must spawn the writer thread, passing
    /// it the epoch it belongs to.
    SpawnWriter(u64),
}

impl ConnQueue {
    pub(crate) fn new() -> ConnQueue {
        Self::with_idle_retire(WRITER_IDLE_RETIRE)
    }

    /// A queue whose writer retires after `idle_retire` of emptiness.
    pub(crate) fn with_idle_retire(idle_retire: Duration) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                queued_bytes: 0,
                writer_alive: false,
                writer_parked: false,
                shutdown: false,
                error: None,
                epoch: 0,
            }),
            idle_retire,
            depth: AtomicUsize::new(0),
            space: Condvar::new(),
            work: Condvar::new(),
        }
    }

    /// Queues one frame for `addr`, spawning the connection writer if none
    /// is running. Blocks (bounded) when the queue is full; fails on
    /// shutdown, on backpressure timeout, or with a deferred writer error
    /// from an earlier send.
    pub(crate) fn enqueue(
        self: &Arc<Self>,
        addr: SocketAddr,
        payload: Vec<u8>,
        io: &Arc<IoCounters>,
    ) -> std::io::Result<()> {
        match self.accept(payload, ENQUEUE_TIMEOUT, io)? {
            Accepted::Queued => {}
            Accepted::SpawnWriter(epoch) => {
                let conn = Arc::clone(self);
                let io = Arc::clone(io);
                std::thread::Builder::new()
                    .name(format!("selfserv-tcp-writer-{addr}"))
                    .spawn(move || writer_loop(&conn, addr, &io, epoch))
                    .expect("spawn tcp connection writer");
            }
        }
        Ok(())
    }

    /// The lock-and-queue half of [`ConnQueue::enqueue`], with the
    /// backpressure wait bounded by `timeout` (tests shorten it). Split
    /// from the thread spawn so queue semantics are testable without
    /// sockets.
    fn accept(
        &self,
        payload: Vec<u8>,
        timeout: Duration,
        io: &IoCounters,
    ) -> std::io::Result<Accepted> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        let mut waited = false;
        loop {
            if let Some(e) = state.error.take() {
                // Deferred writer failure: this send reports it (and the
                // caller prunes the peer); the next send starts fresh.
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, e));
            }
            if state.shutdown {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "connection closed",
                ));
            }
            if state.queue.len() < MAX_QUEUED_FRAMES && state.queued_bytes < MAX_QUEUED_BYTES {
                break;
            }
            // Backpressure: wait (bounded) for the writer to free room.
            // Counted once per blocked send, however many wakeups it takes.
            if !waited {
                waited = true;
                io.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || self.space.wait_for(&mut state, remaining).timed_out() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    format!(
                        "outbound queue full ({} frames / {} bytes) for {timeout:?}: \
                         destination not draining",
                        state.queue.len(),
                        state.queued_bytes
                    ),
                ));
            }
        }
        let frame = Frame::new(payload);
        state.queued_bytes += frame.wire_len();
        state.queue.push_back(frame);
        self.depth.store(state.queue.len(), Ordering::Relaxed);
        if state.writer_alive {
            if state.writer_parked {
                self.work.notify_one();
            }
            Ok(Accepted::Queued)
        } else {
            state.writer_alive = true;
            Ok(Accepted::SpawnWriter(state.epoch))
        }
    }

    /// Marks the connection closed: the writer drains what is already
    /// queued and exits; senders blocked on space (and all future sends)
    /// fail. Does not wait for the drain.
    pub(crate) fn shutdown(&self) {
        let mut state = self.state.lock();
        state.shutdown = true;
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Chaos hook: abruptly severs the connection. Unlike
    /// [`ConnQueue::shutdown`], nothing drains — queued frames are dropped
    /// (counted in `frames_dropped`), the running writer is orphaned by an
    /// epoch bump (it exits at its next queue touch, closing its socket
    /// and, with it, the peer's reader thread), and `reason` is parked as
    /// the deferred error: the next send reports `BrokenPipe` (triggering
    /// the caller's unreachable-peer pruning) and the one after that
    /// spawns a fresh writer — the exact path a mid-burst peer death
    /// exercises.
    pub(crate) fn kill(&self, reason: &str, io: &IoCounters) {
        let mut state = self.state.lock();
        state.epoch += 1;
        io.frames_dropped
            .fetch_add(state.queue.len() as u64, Ordering::Relaxed);
        state.queue.clear();
        state.queued_bytes = 0;
        self.depth.store(0, Ordering::Relaxed);
        state.error = Some(reason.to_string());
        state.writer_alive = false;
        self.work.notify_all();
        self.space.notify_all();
    }

    /// Queue length right now, read lock-free from the mirror (the gather
    /// heuristic's probe, the writer's drain-boundary check, and the
    /// hub-wide queued-frames gauge; updated under the state lock, so it
    /// never lags a settled queue).
    pub(crate) fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Takes the next batch to write, parking until frames arrive. `None`
    /// means the writer exits: shutdown with a drained queue, the
    /// writer's epoch was retired by [`ConnQueue::kill`], or the queue
    /// sat empty for the idle window and the writer retires (the next
    /// send respawns one).
    fn next_batch(&self, epoch: u64) -> Option<Vec<Frame>> {
        let mut state = self.state.lock();
        loop {
            if state.epoch != epoch {
                // Killed. A successor writer may already be running, so
                // leave all state (including `writer_alive`) alone.
                return None;
            }
            if !state.queue.is_empty() {
                let take = state.queue.len().min(MAX_BATCH_FRAMES);
                let batch: Vec<Frame> = state.queue.drain(..take).collect();
                state.queued_bytes -= batch.iter().map(Frame::wire_len).sum::<usize>();
                self.depth.store(state.queue.len(), Ordering::Relaxed);
                self.space.notify_all();
                return Some(batch);
            }
            if state.shutdown {
                state.writer_alive = false;
                return None;
            }
            state.writer_parked = true;
            let timed_out = self.work.wait_for(&mut state, self.idle_retire).timed_out();
            state.writer_parked = false;
            if timed_out && state.queue.is_empty() && !state.shutdown && state.epoch == epoch {
                // Idle retirement: free the slot so the next send spawns
                // a successor. Not a failure — no error is parked.
                state.writer_alive = false;
                return None;
            }
        }
    }

    /// Records a fatal writer failure: the queued frames are dropped (the
    /// `unsent` count from the failed batch plus whatever is still
    /// queued), the error is parked for the next sender, and the writer
    /// slot frees so that sender's successor can start a fresh one. A
    /// writer whose epoch was retired only counts its in-hand frames — the
    /// queue now belongs to its successor.
    fn fail(&self, epoch: u64, unsent: usize, err: &std::io::Error, io: &IoCounters) {
        let mut state = self.state.lock();
        if state.epoch != epoch {
            io.frames_dropped
                .fetch_add(unsent as u64, Ordering::Relaxed);
            return;
        }
        let dropped = unsent + state.queue.len();
        io.frames_dropped
            .fetch_add(dropped as u64, Ordering::Relaxed);
        state.queue.clear();
        state.queued_bytes = 0;
        self.depth.store(0, Ordering::Relaxed);
        state.error = Some(err.to_string());
        state.writer_alive = false;
        self.space.notify_all();
    }
}

/// The per-connection writer: owns the socket, drains the queue in
/// batches, gathers mid-burst, writes each batch as one (or few, under
/// short writes) `writev`, reconnects once per established stream on
/// write failure.
fn writer_loop(conn: &Arc<ConnQueue>, addr: SocketAddr, io: &Arc<IoCounters>, epoch: u64) {
    let mut stream: Option<TcpStream> = None;
    let mut just_wrote = false;
    loop {
        if just_wrote {
            gather(conn);
        }
        let Some(batch) = conn.next_batch(epoch) else {
            return; // shutdown with a drained queue, or killed (epoch retired)
        };
        // Connect outside the queue lock: senders keep enqueueing while we
        // dial (the whole point of the asynchronous write path).
        let established = stream.is_some();
        if stream.is_none() {
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    stream = Some(s);
                }
                Err(e) => {
                    conn.fail(epoch, batch.len(), &e, io);
                    return;
                }
            }
        }
        let mut pos = 0;
        if let Err(_first) = write_batch(stream.as_mut().expect("connected"), &batch, &mut pos, io)
        {
            // A stream that carried earlier batches may simply have been
            // closed by a restarted peer: reconnect once and resend from
            // the first frame the old socket did not fully accept. A
            // freshly connected stream failing gets no retry.
            let rest = &batch[completed_frames(&batch, pos)..];
            if !established {
                conn.fail(epoch, rest.len(), &_first, io);
                return;
            }
            match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(mut s) => {
                    s.set_nodelay(true).ok();
                    let mut pos = 0;
                    match write_batch(&mut s, rest, &mut pos, io) {
                        Ok(()) => stream = Some(s),
                        Err(e) => {
                            conn.fail(epoch, rest.len() - completed_frames(rest, pos), &e, io);
                            return;
                        }
                    }
                }
                Err(e) => {
                    conn.fail(epoch, rest.len(), &e, io);
                    return;
                }
            }
        }
        io.frames_sent
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        io.bytes_sent.fetch_add(
            batch.iter().map(Frame::wire_len).sum::<usize>() as u64,
            Ordering::Relaxed,
        );
        io.max_batch_frames
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        just_wrote = true;
    }
}

/// Mid-burst gather: when frames are already queued right after a write,
/// the producer is still bursting — yield briefly while the queue grows
/// toward [`GATHER_MIN`] so the burst coalesces into few writevs instead
/// of a near-1:1 syscall chase. Returns immediately when the queue is
/// empty (lone frames never wait) or the producer pauses.
fn gather(conn: &ConnQueue) {
    let mut seen = conn.len();
    if seen == 0 {
        return;
    }
    let deadline = Instant::now() + GATHER_WINDOW;
    let mut idle_polls = 0u32;
    while seen < GATHER_MIN && Instant::now() < deadline {
        std::thread::yield_now();
        let now = conn.len();
        if now > seen {
            seen = now;
            idle_polls = 0;
        } else {
            // The producer went quiet: a pause many polls long means the
            // burst (or this stretch of it) is over — drain what we have
            // instead of sitting out the window.
            idle_polls += 1;
            if idle_polls >= GATHER_IDLE_POLLS {
                return;
            }
        }
    }
}

/// Builds the `IoSlice` list for `batch` starting at wire offset `pos`
/// (skipping fully and partially written leading bytes).
fn gather_slices(batch: &[Frame], pos: usize) -> Vec<IoSlice<'_>> {
    let mut slices = Vec::with_capacity((batch.len() * 2).min(64));
    let mut skip = pos;
    for frame in batch {
        if skip >= frame.wire_len() {
            skip -= frame.wire_len();
            continue;
        }
        if skip < 4 {
            slices.push(IoSlice::new(&frame.prefix[skip..]));
            slices.push(IoSlice::new(&frame.payload));
        } else {
            slices.push(IoSlice::new(&frame.payload[skip - 4..]));
        }
        skip = 0;
    }
    slices
}

/// Number of leading frames of `batch` fully covered by `pos` written
/// bytes — the resume boundary after a mid-batch write failure.
fn completed_frames(batch: &[Frame], pos: usize) -> usize {
    let mut remaining = pos;
    let mut done = 0;
    for frame in batch {
        if remaining < frame.wire_len() {
            break;
        }
        remaining -= frame.wire_len();
        done += 1;
    }
    done
}

/// Writes `batch` from wire offset `*pos` to completion, advancing `*pos`
/// by whatever each `write_vectored` accepts — short writevs (partial
/// writes) resume mid-frame, mid-prefix included. Each vectored call is
/// one counted syscall.
fn write_batch(
    w: &mut impl Write,
    batch: &[Frame],
    pos: &mut usize,
    io: &IoCounters,
) -> std::io::Result<()> {
    let total: usize = batch.iter().map(Frame::wire_len).sum();
    while *pos < total {
        let slices = gather_slices(batch, *pos);
        let n = w.write_vectored(&slices)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "writev accepted zero bytes",
            ));
        }
        io.writev_calls.fetch_add(1, Ordering::Relaxed);
        *pos += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn frames(payloads: &[&str]) -> Vec<Frame> {
        payloads
            .iter()
            .map(|p| Frame::new(p.as_bytes().to_vec()))
            .collect()
    }

    fn wire_image(batch: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in batch {
            out.extend_from_slice(&f.prefix);
            out.extend_from_slice(&f.payload);
        }
        out
    }

    /// A `Write` that accepts at most `cap` bytes per vectored call — the
    /// short-writev adversary.
    struct ShortWriter {
        written: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.written.extend_from_slice(&buf[..n]);
            self.calls += 1;
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut budget = self.cap;
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(budget);
                self.written.extend_from_slice(&buf[..take]);
                n += take;
                budget -= take;
                if budget == 0 {
                    break;
                }
            }
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn batch_writes_as_single_vectored_call_when_accepted_whole() {
        let batch = frames(&["alpha", "bravo", "charlie"]);
        let io = IoCounters::default();
        let mut w = ShortWriter {
            written: Vec::new(),
            cap: usize::MAX,
            calls: 0,
        };
        let mut pos = 0;
        write_batch(&mut w, &batch, &mut pos, &io).unwrap();
        assert_eq!(w.written, wire_image(&batch));
        assert_eq!(w.calls, 1, "a cooperative sink needs exactly one writev");
        assert_eq!(io.snapshot().writev_calls, 1);
    }

    #[test]
    fn short_writes_resume_mid_frame_and_mid_prefix() {
        let batch = frames(&["alpha", "bravo", "charlie"]);
        let total = wire_image(&batch).len();
        // Every cap from 1 byte (resumes inside length prefixes) upward
        // must reproduce the exact wire image.
        for cap in [1, 2, 3, 5, 7, 11] {
            let io = IoCounters::default();
            let mut w = ShortWriter {
                written: Vec::new(),
                cap,
                calls: 0,
            };
            let mut pos = 0;
            write_batch(&mut w, &batch, &mut pos, &io).unwrap();
            assert_eq!(w.written, wire_image(&batch), "cap {cap}");
            assert_eq!(pos, total);
            assert_eq!(w.calls, total.div_ceil(cap), "cap {cap}");
        }
    }

    #[test]
    fn completed_frames_resume_boundary() {
        let batch = frames(&["aa", "bbbb", "c"]);
        // wire lens: 6, 8, 5
        assert_eq!(completed_frames(&batch, 0), 0);
        assert_eq!(completed_frames(&batch, 5), 0, "mid-frame is incomplete");
        assert_eq!(completed_frames(&batch, 6), 1);
        assert_eq!(completed_frames(&batch, 13), 1, "mid-second-frame");
        assert_eq!(completed_frames(&batch, 14), 2);
        assert_eq!(completed_frames(&batch, 19), 3);
    }

    #[test]
    fn backpressure_blocks_then_errors_at_full_queue() {
        let conn = ConnQueue::new();
        let io = IoCounters::default();
        // Fill to the frame bound without any writer running; mark the
        // writer alive so `accept` never asks us to spawn one.
        conn.state.lock().writer_alive = true;
        for _ in 0..MAX_QUEUED_FRAMES {
            conn.accept(b"x".to_vec(), Duration::from_millis(1), &io)
                .unwrap();
        }
        assert_eq!(io.snapshot().backpressure_waits, 0, "no waits while room");
        // Full: a bounded wait times out with a backpressure error.
        let err = conn
            .accept(b"overflow".to_vec(), Duration::from_millis(30), &io)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(conn.state.lock().queue.len(), MAX_QUEUED_FRAMES);
        assert_eq!(io.snapshot().backpressure_waits, 1, "blocked send counted");
    }

    #[test]
    fn backpressure_wakes_when_writer_frees_space() {
        let conn = Arc::new(ConnQueue::new());
        let io = Arc::new(IoCounters::default());
        conn.state.lock().writer_alive = true;
        for _ in 0..MAX_QUEUED_FRAMES {
            conn.accept(b"x".to_vec(), Duration::from_millis(1), &io)
                .unwrap();
        }
        let sender = {
            let conn = Arc::clone(&conn);
            let io = Arc::clone(&io);
            std::thread::spawn(move || conn.accept(b"late".to_vec(), Duration::from_secs(10), &io))
        };
        // Give the sender time to block, then drain a batch like the
        // writer would.
        std::thread::sleep(Duration::from_millis(30));
        let batch = conn.next_batch(0).expect("queue is non-empty");
        assert!(!batch.is_empty());
        let accepted = sender.join().unwrap();
        assert!(matches!(accepted, Ok(Accepted::Queued)));
        assert_eq!(
            io.snapshot().backpressure_waits,
            1,
            "one wait even across multiple wakeups"
        );
    }

    #[test]
    fn byte_bound_backpressures_before_frame_bound() {
        let conn = ConnQueue::new();
        let io = IoCounters::default();
        conn.state.lock().writer_alive = true;
        // 4 MiB frames: the byte bound (8 MiB) trips after two frames,
        // far below MAX_QUEUED_FRAMES.
        for _ in 0..2 {
            conn.accept(vec![0u8; 4 << 20], Duration::from_millis(1), &io)
                .unwrap();
        }
        let err = conn
            .accept(vec![0u8; 16], Duration::from_millis(20), &io)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    #[test]
    fn shutdown_fails_new_sends_and_wakes_blocked_senders() {
        let conn = Arc::new(ConnQueue::new());
        let io = Arc::new(IoCounters::default());
        conn.state.lock().writer_alive = true;
        for _ in 0..MAX_QUEUED_FRAMES {
            conn.accept(b"x".to_vec(), Duration::from_millis(1), &io)
                .unwrap();
        }
        let blocked = {
            let conn = Arc::clone(&conn);
            let io = Arc::clone(&io);
            std::thread::spawn(move || conn.accept(b"late".to_vec(), Duration::from_secs(10), &io))
        };
        std::thread::sleep(Duration::from_millis(30));
        conn.shutdown();
        let err = blocked.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        assert_eq!(
            conn.accept(b"new".to_vec(), Duration::from_millis(1), &io)
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::ConnectionAborted
        );
    }

    #[test]
    fn writer_drains_queue_on_shutdown() {
        // Real sockets: enqueue a pile of frames, immediately shut the
        // queue down, and assert every frame still reaches the listener —
        // shutdown drains, it does not discard.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut all = Vec::new();
            stream.read_to_end(&mut all).unwrap();
            all
        });
        let conn = Arc::new(ConnQueue::new());
        let io = Arc::new(IoCounters::default());
        let mut expected = Vec::new();
        for i in 0..100 {
            let payload = format!("frame-{i}").into_bytes();
            expected.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            expected.extend_from_slice(&payload);
            conn.enqueue(addr, payload, &io).unwrap();
        }
        conn.shutdown();
        assert_eq!(reader.join().unwrap(), expected, "drained in order");
        assert_eq!(io.snapshot().frames_sent, 100);
        assert_eq!(io.snapshot().frames_dropped, 0);
        assert!(
            io.snapshot().writev_calls <= 100,
            "coalescing never exceeds one writev per frame"
        );
    }

    #[test]
    fn idle_writer_retires_and_next_send_respawns_it() {
        // One frame, then silence past the (shortened) idle window: the
        // writer retires cleanly. A later send to the same destination
        // must still deliver — via a lazily respawned writer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut images = Vec::new();
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut all = Vec::new();
                stream.read_to_end(&mut all).unwrap();
                images.push(all);
            }
            images
        });
        let conn = Arc::new(ConnQueue::with_idle_retire(Duration::from_millis(40)));
        let io = Arc::new(IoCounters::default());
        conn.enqueue(addr, b"first".to_vec(), &io).unwrap();
        let t0 = Instant::now();
        while conn.state.lock().writer_alive && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let state = conn.state.lock();
            assert!(!state.writer_alive, "idle writer retired");
            assert!(state.error.is_none(), "retirement is not a failure");
            assert!(!state.shutdown, "queue stays open");
            assert_eq!(state.epoch, 0, "retirement is not a kill");
        }
        conn.enqueue(addr, b"second".to_vec(), &io).unwrap();
        conn.shutdown();
        let images = reader.join().unwrap();
        assert_eq!(images[0], wire_image(&frames(&["first"])));
        assert_eq!(
            images[1],
            wire_image(&frames(&["second"])),
            "respawned writer delivers"
        );
        assert_eq!(io.snapshot().frames_sent, 2);
        assert_eq!(io.snapshot().frames_dropped, 0);
    }

    #[test]
    fn writer_failure_is_deferred_to_the_next_send() {
        // Port 1 refuses connections. The first enqueue is accepted (the
        // error has nowhere to surface yet); once the writer has died, the
        // next send reports the connect failure; the one after that starts
        // a fresh writer and is accepted again.
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let conn = Arc::new(ConnQueue::new());
        let io = Arc::new(IoCounters::default());
        conn.enqueue(addr, b"doomed".to_vec(), &io).unwrap();
        let t0 = Instant::now();
        while conn.state.lock().error.is_none() && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let err = conn.enqueue(addr, b"probe".to_vec(), &io).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(io.snapshot().frames_dropped, 1, "the doomed frame");
        // Error consumed: the next send retries with a fresh writer.
        conn.enqueue(addr, b"retry".to_vec(), &io).unwrap();
        conn.shutdown();
    }

    #[test]
    fn kill_drops_queue_defers_error_and_orphans_the_writer() {
        // A listener that accepts but never reads: the writer connects and
        // stalls with frames queued behind the kernel buffers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _hold = std::thread::spawn(move || listener.accept());
        let conn = Arc::new(ConnQueue::new());
        let io = Arc::new(IoCounters::default());
        for i in 0..8 {
            conn.enqueue(addr, format!("burst-{i}").into_bytes(), &io)
                .unwrap();
        }
        conn.kill("chaos", &io);
        // Deferred error: the next send reports the kill as BrokenPipe.
        let err = conn.enqueue(addr, b"probe".to_vec(), &io).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(err.to_string(), "chaos");
        // The send after starts a fresh writer generation and is accepted.
        conn.enqueue(addr, b"fresh".to_vec(), &io).unwrap();
        {
            let state = conn.state.lock();
            assert_eq!(state.epoch, 1);
            assert!(state.writer_alive, "successor writer spawned");
        }
        conn.shutdown();
    }

    #[test]
    fn stale_writer_cannot_fail_the_successor_queue() {
        let conn = Arc::new(ConnQueue::new());
        let io = Arc::new(IoCounters::default());
        conn.state.lock().writer_alive = true;
        conn.accept(b"x".to_vec(), Duration::from_millis(5), &io)
            .unwrap();
        conn.kill("chaos", &io);
        let _ = conn.state.lock().error.take();
        conn.accept(b"next-gen".to_vec(), Duration::from_millis(5), &io)
            .unwrap();
        // A writer from epoch 0 reporting a failure after the kill must
        // not clear the successor's queue or park a stale error.
        let stale_err = std::io::Error::other("stale");
        conn.fail(0, 3, &stale_err, &io);
        let state = conn.state.lock();
        assert_eq!(state.queue.len(), 1, "successor queue untouched");
        assert!(state.error.is_none(), "no stale error parked");
        // But the stale writer's in-hand frames are still counted lost.
        assert_eq!(io.snapshot().frames_dropped, 1 + 3);
        // And a stale next_batch call exits without touching writer_alive.
        drop(state);
        assert!(conn.next_batch(0).is_none());
        assert!(conn.state.lock().writer_alive);
    }
}
