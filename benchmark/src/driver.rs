//! Load drivers: the closed loop, the open loop and the composer loop, each
//! checking every output and recording one exact sample per operation.
//!
//! A driver thread only appends to its own log; what the window was, and
//! what the samples add up to, is decided afterwards from the timestamps
//! (see `workloads.rs`).

use crate::procfs::thread_cpu_ms;
use crate::sut::{self, ComposeSteps, Composer, Doc, Query, Target};
use crate::trace::now_us;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Deterministic generator (SplitMix64) for everything `--seed` drives.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An ASCII payload of `bytes` bytes: alphanumerics with about 3 % of
    /// characters XML must escape, as free text has.
    pub fn payload(&mut self, bytes: usize) -> String {
        const PLAIN: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        const ESCAPED: &[u8] = b"<>&\"'";
        (0..bytes)
            .map(|i| {
                // The first eight bytes stay plain: a traced run overwrites
                // them with the instance tag.
                if i >= 8 && self.below(100) < 3 {
                    ESCAPED[self.below(ESCAPED.len())] as char
                } else {
                    PLAIN[self.below(PLAIN.len() - 1)] as char
                }
            })
            .collect()
    }
}

/// The inputs one driver cycles through and the output each must produce,
/// computed at set-up by executing the input once (`Deployment::execute`).
pub struct References {
    pub inputs: Vec<Doc>,
    pub expected: Vec<Doc>,
}

impl References {
    pub fn compute(target: &Target, inputs: Vec<Doc>) -> Result<References, String> {
        let expected = inputs
            .iter()
            .map(|input| target.execute(input).map(|out| sut::strip_volatile(out).0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(References { inputs, expected })
    }
}

/// The payload of instance `seq` in a traced run: the pool payload with its
/// first eight bytes replaced by the instance number in hex, so the members
/// that serve it can say which instance they worked for.
pub fn tagged_payload(seq: u64, base: &str) -> String {
    format!("{:08x}{}", seq & 0xffff_ffff, &base[8..])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Correct,
    /// The execution answered with a fault, or the transport refused the
    /// submission.
    Faulted,
    /// Completed, but not with the reference output.
    Mismatch,
    /// Still unanswered when the drain deadline passed.
    Dropped,
}

/// One operation, timestamps on the benchmark clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Driver-wide sequence number (the trace's instance id).
    pub seq: u64,
    /// When the request was due (open loop) or its submission began (closed
    /// loop): where latency is measured from.
    pub start_us: u64,
    /// When the submit call began; later than `start_us` by however late
    /// the open-loop generator ran.
    pub begin_us: u64,
    /// When the submit call returned.
    pub sent_us: u64,
    /// When the result was collected (for the composer: first result).
    pub done_us: u64,
    pub outcome: Outcome,
    /// The wrapper's instance number, from the result (for the monitor).
    pub instance: Option<u64>,
}

impl Sample {
    pub fn latency_us(&self) -> f64 {
        self.done_us.saturating_sub(self.start_us) as f64
    }
}

/// Everything one driver thread saw. Every submission attempted ends as
/// exactly one sample, whatever became of it.
#[derive(Default)]
pub struct DriverLog {
    pub samples: Vec<Sample>,
    /// When an iteration ended, composer only (`done_us` is first result);
    /// parallel to `samples`, as is `compose_steps`.
    pub iteration_end_us: Vec<u64>,
    pub compose_steps: Vec<ComposeSteps>,
    /// Results whose id matched no outstanding submission.
    pub duplicates: u64,
    /// Why the first few failed operations failed.
    pub failures: Vec<String>,
    /// Outstanding submissions, sampled at every submission: `(when, count)`.
    pub backlog: Vec<(u64, u32)>,
    /// Thread CPU time over the driver's life, ms.
    pub cpu_ms: f64,
}

impl DriverLog {
    fn note_failure(&mut self, why: impl FnOnce() -> String) {
        if self.failures.len() < 5 {
            self.failures.push(why());
        }
    }
}

/// Shared between the controlling thread and the drivers.
pub struct Control {
    /// Completions seen by all drivers (warm-up waits on this).
    pub completed: AtomicU64,
    /// Closed loop and composer: stop submitting and drain.
    pub stop: AtomicBool,
    /// Closed loop: executions each driver keeps outstanding. The session
    /// lowers it between the loaded and the quiet phase; a driver then
    /// submits nothing until its completions have brought it below.
    pub in_flight: AtomicUsize,
    /// Closed loop: the one driver (`Lane::index`) that may submit, the
    /// others waiting their turn; `EVERY_LANE` when all may.
    pub turn: AtomicU64,
    /// Open loop: published once warm-up is over.
    pub schedule: OnceLock<Schedule>,
}

/// `Control::turn` when every driver may submit.
pub const EVERY_LANE: u64 = u64::MAX;

impl Control {
    /// Every closed-loop driver keeps `in_flight` executions outstanding.
    pub fn new(in_flight: usize) -> Control {
        Control {
            completed: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            in_flight: AtomicUsize::new(in_flight),
            turn: AtomicU64::new(EVERY_LANE),
            schedule: OnceLock::new(),
        }
    }
}

/// How long a drain may take before what is still open counts as dropped.
const DRAIN: Duration = Duration::from_secs(10);

struct Outstanding {
    seq: u64,
    start_us: u64,
    begin_us: u64,
    sent_us: u64,
    input: usize,
    payload: Option<String>,
}

/// Which of the run's driver threads this is. Sequence numbers (the trace's
/// instance ids) are `of * k + index`, so they are unique across drivers.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    pub index: u64,
    pub of: u64,
}

/// Submission and collection against one target, shared by both loops.
struct Session<'a> {
    target: &'a Target,
    refs: &'a References,
    traced: bool,
    control: &'a Control,
    next_seq: u64,
    stride: u64,
    outstanding: HashMap<u64, Outstanding>,
    log: DriverLog,
}

impl<'a> Session<'a> {
    fn new(
        target: &'a Target,
        refs: &'a References,
        traced: bool,
        control: &'a Control,
        lane: Lane,
    ) -> Session<'a> {
        Session {
            target,
            refs,
            traced,
            control,
            next_seq: lane.index,
            stride: lane.of,
            outstanding: HashMap::new(),
            log: DriverLog::default(),
        }
    }

    /// Submits the next input; latency will be measured from `start_us`.
    fn submit(&mut self, start_us: u64) {
        let begin_us = now_us();
        let seq = self.next_seq;
        let input = (seq / self.stride) as usize % self.refs.inputs.len();
        let (result, payload) = if self.traced {
            let base = sut::payload_of(&self.refs.inputs[input]).unwrap_or_default();
            let payload = tagged_payload(seq, base);
            let doc = sut::with_payload(&self.refs.inputs[input], &payload);
            (self.target.submit(&doc), Some(payload))
        } else {
            (self.target.submit(&self.refs.inputs[input]), None)
        };
        self.next_seq += self.stride;
        let sent_us = now_us();
        match result {
            Ok(id) => {
                self.outstanding.insert(
                    id,
                    Outstanding {
                        seq,
                        start_us,
                        begin_us,
                        sent_us,
                        input,
                        payload,
                    },
                );
                self.log
                    .backlog
                    .push((sent_us, self.outstanding.len() as u32));
            }
            // Transport back-pressure: the operation failed; back off and
            // let completions drain the pipe.
            Err(e) => {
                self.log.note_failure(|| format!("submit refused: {e}"));
                self.log.samples.push(Sample {
                    seq,
                    start_us,
                    begin_us,
                    sent_us,
                    done_us: sent_us,
                    outcome: Outcome::Faulted,
                    instance: None,
                });
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Collects one result if one arrives within `timeout`.
    fn collect(&mut self, timeout: Duration) -> bool {
        let Some((id, result)) = self.target.collect(timeout) else {
            return false;
        };
        let done_us = now_us();
        let Some(open) = self.outstanding.remove(&id) else {
            self.log.duplicates += 1;
            return true;
        };
        let (outcome, instance) = match result {
            Err(e) => {
                self.log.note_failure(|| format!("faulted: {e}"));
                (Outcome::Faulted, None)
            }
            Ok(doc) => {
                let (got, instance) = sut::strip_volatile(doc);
                let expected = &self.refs.expected[open.input];
                let matches = match &open.payload {
                    // Untraced: the input was a pool input; the reference
                    // output is the whole truth.
                    None => got == *expected,
                    // Traced: only the payload was re-tagged, and these
                    // charts thread the payload through unchanged.
                    Some(sent) => got == sut::with_payload(expected, sent),
                };
                if !matches {
                    self.log
                        .note_failure(|| format!("wrong output: {got:?}, expected {expected:?}"));
                }
                let outcome = if matches {
                    Outcome::Correct
                } else {
                    Outcome::Mismatch
                };
                (outcome, instance)
            }
        };
        self.log.samples.push(Sample {
            seq: open.seq,
            start_us: open.start_us,
            begin_us: open.begin_us,
            sent_us: open.sent_us,
            done_us,
            outcome,
            instance,
        });
        self.control.completed.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn drain(mut self, cpu_at_start: f64) -> DriverLog {
        let deadline = std::time::Instant::now() + DRAIN;
        while !self.outstanding.is_empty() && std::time::Instant::now() < deadline {
            self.collect(Duration::from_millis(250));
        }
        let gave_up_us = now_us();
        for open in self.outstanding.into_values() {
            self.log.samples.push(Sample {
                seq: open.seq,
                start_us: open.start_us,
                begin_us: open.begin_us,
                sent_us: open.sent_us,
                done_us: gave_up_us,
                outcome: Outcome::Dropped,
                instance: None,
            });
        }
        self.log.cpu_ms = thread_cpu_ms() - cpu_at_start;
        self.log
    }
}

/// Closed loop: keeps `control.in_flight` executions outstanding while it
/// is this driver's turn, submitting the next only when one completes, until
/// `control.stop`; then drains.
pub fn closed_loop(
    target: &Target,
    refs: &References,
    traced: bool,
    control: &Control,
    lane: Lane,
) -> DriverLog {
    let cpu_at_start = thread_cpu_ms();
    let mut s = Session::new(target, refs, traced, control, lane);
    while !control.stop.load(Ordering::Relaxed) {
        let turn = control.turn.load(Ordering::Relaxed);
        while (turn == EVERY_LANE || turn == lane.index)
            && s.outstanding.len() < control.in_flight.load(Ordering::Relaxed)
            && !control.stop.load(Ordering::Relaxed)
        {
            s.submit(now_us());
        }
        if s.outstanding.is_empty() {
            // Not this driver's turn: look again soon.
            std::thread::sleep(Duration::from_millis(5));
        } else {
            s.collect(Duration::from_millis(50));
        }
    }
    s.drain(cpu_at_start)
}

/// One step of the rate ladder, on the benchmark clock.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate over all drivers, per second.
    pub rate_per_s: f64,
    pub start_us: u64,
    pub end_us: u64,
}

/// Consecutive rungs: each starts where the previous one ends.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub rungs: Vec<Rung>,
}

impl Schedule {
    /// `steps` holds each rung's rate per second and its length in µs.
    pub fn consecutive(start_us: u64, steps: &[(f64, u64)]) -> Schedule {
        let mut at = start_us;
        let rungs = steps
            .iter()
            .map(|&(rate_per_s, length_us)| {
                let rung = Rung {
                    rate_per_s,
                    start_us: at,
                    end_us: at + length_us,
                };
                at = rung.end_us;
                rung
            })
            .collect();
        Schedule { rungs }
    }

    /// The rung a request due at `due_us` belongs to.
    pub fn rung_of(&self, due_us: u64) -> Option<usize> {
        self.rungs
            .iter()
            .position(|r| (r.start_us..r.end_us).contains(&due_us))
    }
}

/// Hands out due times at a fixed period. A request is timed from the
/// instant it was *due*, not from when the generator got round to sending
/// it: if the generator stalls, the requests it sends late keep their
/// scheduled due times, so the stall shows up as latency instead of
/// disappearing from the record.
#[derive(Debug, Clone)]
pub struct Pacer {
    next_due_us: f64,
    period_us: f64,
}

impl Pacer {
    pub fn new(first_due_us: u64, rate_per_s: f64) -> Pacer {
        Pacer {
            next_due_us: first_due_us as f64,
            period_us: 1e6 / rate_per_s,
        }
    }

    pub fn next_due_us(&self) -> u64 {
        self.next_due_us as u64
    }

    /// The due time of the next request if it is due at `now_us`.
    pub fn poll(&mut self, now_us: u64) -> Option<u64> {
        let due = self.next_due_us();
        (now_us >= due).then(|| {
            self.next_due_us += self.period_us;
            due
        })
    }
}

/// Open loop: submits on the schedule whatever the completions do. Warms up
/// at `warm_rate_per_s` until the schedule is published, runs every rung,
/// then drains. Each of the `lane.of` drivers offers its share of a rate.
pub fn open_loop(
    target: &Target,
    refs: &References,
    warm_rate_per_s: f64,
    traced: bool,
    control: &Control,
    lane: Lane,
) -> DriverLog {
    let cpu_at_start = thread_cpu_ms();
    let share = 1.0 / lane.of as f64;
    let mut s = Session::new(target, refs, traced, control, lane);
    let mut pacer = Pacer::new(now_us(), warm_rate_per_s * share);
    let mut rung: Option<usize> = None;
    loop {
        if control.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(schedule) = control.schedule.get() {
            let next = match rung {
                None => Some(0),
                Some(r) if pacer.next_due_us() >= schedule.rungs[r].end_us => Some(r + 1),
                Some(_) => None,
            };
            if let Some(next) = next {
                let Some(r) = schedule.rungs.get(next) else {
                    break;
                };
                pacer = Pacer::new(r.start_us, r.rate_per_s * share);
                rung = Some(next);
            }
        }
        let now = now_us();
        match pacer.poll(now) {
            Some(due) => s.submit(due),
            None => {
                let wait = (pacer.next_due_us() - now).min(50_000);
                s.collect(Duration::from_micros(wait));
            }
        }
    }
    s.drain(cpu_at_start)
}

/// What the composer checks each iteration against.
pub struct ComposePlan {
    /// Hits of every query an iteration can make, found at set-up.
    pub expected_hits: HashMap<Query, usize>,
    pub input: Doc,
    pub expected: Doc,
}

/// Every query an iteration can make.
pub fn all_queries() -> Vec<Query> {
    (0..sut::SEEDED_OPERATIONS)
        .map(|op| Query::Operation(format!("op{op}")))
        .chain(sut::CATEGORIES.map(Query::Category))
        .collect()
}

/// The eight registry queries of one iteration: six by operation, two by
/// category, chosen by the seed.
pub fn compose_queries(rng: &mut Rng) -> Vec<Query> {
    (0..8)
        .map(|i| {
            if i % 4 == 3 {
                Query::Category(sut::CATEGORIES[rng.below(sut::CATEGORIES.len())])
            } else {
                Query::Operation(format!("op{}", rng.below(sut::SEEDED_OPERATIONS)))
            }
        })
        .collect()
}

/// Composer loop: one iteration in flight per thread, until `control.stop`.
pub fn compose_loop(
    composer: &Composer<'_>,
    plan: &ComposePlan,
    mut rng: Rng,
    control: &Control,
    lane: Lane,
) -> DriverLog {
    let cpu_at_start = thread_cpu_ms();
    let mut log = DriverLog::default();
    let mut seq = lane.index;
    while !control.stop.load(Ordering::Relaxed) {
        let queries = compose_queries(&mut rng);
        let name = format!("Composed{seq}");
        let start_us = now_us();
        let result = composer.iteration(&queries, &name, &plan.input);
        let end_us = now_us();
        let (outcome, steps) = match result {
            Err(e) => {
                log.note_failure(|| format!("{name} faulted: {e}"));
                (Outcome::Faulted, ComposeSteps::default())
            }
            Ok(out) => {
                let hits_ok = queries
                    .iter()
                    .zip(&out.hits)
                    .all(|(q, n)| plan.expected_hits.get(q) == Some(n));
                let output = sut::strip_volatile(out.output).0;
                let output_ok = output == plan.expected;
                if !(hits_ok && output_ok) {
                    log.note_failure(|| {
                        format!(
                            "{name}: hits {:?} for {queries:?}, output {output:?}",
                            out.hits
                        )
                    });
                }
                let outcome = if hits_ok && output_ok {
                    Outcome::Correct
                } else {
                    Outcome::Mismatch
                };
                (outcome, out.steps)
            }
        };
        let to_first_result =
            steps.find_us + steps.save_us + steps.decode_us + steps.deploy_us + steps.execute_us;
        log.samples.push(Sample {
            seq,
            start_us,
            begin_us: start_us,
            sent_us: start_us,
            done_us: if outcome == Outcome::Faulted {
                end_us
            } else {
                start_us + to_first_result as u64
            },
            outcome,
            instance: None,
        });
        log.iteration_end_us.push(end_us);
        log.compose_steps.push(steps);
        control.completed.fetch_add(1, Ordering::Relaxed);
        seq += lane.of;
    }
    log.cpu_ms = thread_cpu_ms() - cpu_at_start;
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determines_the_payload() {
        let a = Rng::new(7).payload(256);
        assert_eq!(a, Rng::new(7).payload(256));
        assert_ne!(a, Rng::new(8).payload(256));
        assert_eq!(a.len(), 256);
        assert!(a.is_ascii());
        assert!(a[..8].chars().all(|c| c.is_ascii_alphanumeric()));
        let big = Rng::new(7).payload(8192);
        assert!(
            big.contains('<') || big.contains('&'),
            "escapes are exercised"
        );
    }

    #[test]
    fn tag_replaces_the_first_eight_bytes_only() {
        let base = Rng::new(1).payload(64);
        let tagged = tagged_payload(0xabc, &base);
        assert_eq!(tagged.len(), 64);
        assert_eq!(&tagged[..8], "00000abc");
        assert_eq!(&tagged[8..], &base[8..]);
    }

    #[test]
    fn open_loop_latency_is_measured_from_the_due_time() {
        // 1000 requests/s: one due every 1000 µs, starting at t = 0.
        let mut pacer = Pacer::new(0, 1000.0);
        assert_eq!(pacer.poll(0), Some(0));
        assert_eq!(pacer.poll(500), None, "the second is not due before 1000");

        // The generator now stalls until t = 5000 µs. It then sends the
        // five overdue requests back to back; each takes 100 µs to serve.
        let service_us = 100;
        let mut latencies = Vec::new();
        let mut now = 5000;
        while let Some(due) = pacer.poll(now) {
            let sample = Sample {
                seq: 0,
                start_us: due,
                begin_us: now,
                sent_us: now,
                done_us: now + service_us,
                outcome: Outcome::Correct,
                instance: None,
            };
            latencies.push(sample.latency_us());
            now += 1;
        }
        // Timed from when they were sent, all five would read 100 µs and
        // the stall would be invisible. Timed from when they were due, the
        // stall is in the record: 4100, 3101, 2102, 1103, 104.
        assert_eq!(latencies, vec![4100.0, 3101.0, 2102.0, 1103.0, 104.0]);
        assert_eq!(pacer.next_due_us(), 6000, "the schedule itself never slips");
    }

    #[test]
    fn rungs_are_consecutive_and_requests_belong_to_the_rung_they_were_due_in() {
        let s = Schedule::consecutive(1_000, &[(100.0, 5_000), (200.0, 10_000)]);
        assert_eq!(s.rungs[1].start_us, s.rungs[0].end_us);
        assert_eq!(s.rung_of(999), None);
        assert_eq!(s.rung_of(1_000), Some(0));
        assert_eq!(s.rung_of(5_999), Some(0));
        assert_eq!(s.rung_of(6_000), Some(1));
        assert_eq!(s.rung_of(15_999), Some(1));
        assert_eq!(s.rung_of(16_000), None);
    }
}
