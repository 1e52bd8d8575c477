//! The five workloads: what each builds, how it is driven, and how its
//! samples, counters and spans become the declared metrics.
//!
//! One run = three to nine set-ups (all but the last torn down after
//! warm-up; their median is `setup_s`), one measured window on the last,
//! then, when traced, the span analysis and the probes.

use crate::driver::{
    all_queries, closed_loop, compose_loop, open_loop, ComposePlan, Control, DriverLog, Lane,
    Outcome, References, Rng, Sample, Schedule,
};
use crate::json::Json;
use crate::procfs::{nproc, peak_rss_mb, process_cpu_ms};
use crate::stats::{guarded_percentile, median, median_of_slices, sorted};
use crate::sut::{self, Census, ComposeRig, FabricRig, Gauges, Rig, TcpRig, TcpShape};
use crate::trace::{covered_us, now_us, spans_to_json, ServiceObs, ServiceSink, Span};
use crate::{probes, spec};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// In-flight executions over all drivers of a closed loop's loaded phase:
/// enough to saturate the system, which is what throughput and the cost of
/// an instance are measured on.
const WINDOW_TOTAL: usize = 32;
/// Share of a closed loop's window spent loaded; the rest is the quiet
/// phase, in which one execution is in flight in the whole process, the
/// drivers taking turns of one slice each, and latency is measured. At
/// saturation latency is the window divided by the throughput (Little's
/// law) plus whatever the scheduler adds: the same number as
/// `instances_per_s`, only noisier. With one caller and nothing else going
/// on it is the time the steps of one execution take.
const LOADED_SHARE: f64 = 0.6;
/// Start of the quiet phase left unmeasured, while the loaded phase's
/// executions drain.
const SETTLE: Duration = Duration::from_millis(250);
/// Start of a turn left unmeasured, while the previous driver's last
/// execution completes and this one notices that it is on.
const TURN_SETTLE_US: u64 = 25_000;
/// Completions that end warm-up (the composer's iterations are two orders
/// of magnitude longer than an execution: fewer of them).
const WARMUP: u64 = 200;
const WARMUP_COMPOSE: u64 = 50;
/// Slices each figure is taken over, every one a little over a second
/// long: of the loaded phase (throughput, CPU), and of the span latency is
/// measured in (the quiet phase, the ladder's reference rung). A figure is
/// computed per slice and the median over the slices reported, so that what
/// a neighbour on the bench box does to a few slices does not reach it.
const LOADED_SLICES: usize = 12;
const LATENCY_SLICES: usize = 8;
/// Distinct inputs a driver cycles through.
const POOL: usize = 8;
/// Community shape of the TCP workloads.
const MEMBERS: usize = 4;
const REPLICAS: usize = 2;
const SERVICE_TIME: Duration = Duration::from_millis(2);

/// Offered rates of `tcp_ladder`, per second over both drivers: about 20,
/// 35, 50 and 65 % of what the open loop sustained on the commit that added
/// the benchmark (its knee lies near 2 000/s, below `tcp_small`'s
/// closed-loop `instances_per_s`), then frozen. See README.md for the
/// calibration, and for why the top rung stops short of the knee.
pub const LADDER_RATES: [f64; 4] = [400.0, 800.0, 1100.0, 1400.0];
/// Each rung's share of the window: the reference rung gets the most, so
/// that its percentiles rest on enough requests.
const LADDER_SHARES: [f64; 4] = [0.15, 0.40, 0.20, 0.25];
/// A rung is "ok" when its p99 from due time is within this, no more than
/// 0.1 % of its requests failed and its backlog is not growing.
pub const LADDER_LIMIT_MS: f64 = 50.0;
/// The rung the workload's bounded figures are taken on: the second, about
/// a third of what the open loop sustains. A slow minute of the bench box
/// puts the higher rungs past the knee; they come after it and are reported
/// per layer, not bounded.
const REFERENCE_RUNG: usize = 1;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One set-up only, probes at a tenth of their time budget.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Set-ups per run; their median is `setup_s`. As many as fit into about
/// `SETUP_BUDGET_S` going by the first one, so that the cheapest set-up
/// (`fabric_direct`'s 30 ms, which any hiccup of the box doubles) is taken
/// nine times and the dearest (`compose_deploy`'s second) three.
const SETUP_BUDGET_S: f64 = 1.5;
const SETUPS: std::ops::RangeInclusive<usize> = 3..=9;

impl RunArgs {
    fn setups(&self, first_setup_s: f64) -> usize {
        if self.smoke {
            1
        } else {
            ((SETUP_BUDGET_S / first_setup_s.max(1e-3)) as usize)
                .clamp(*SETUPS.start(), *SETUPS.end())
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub workload: String,
    /// No output differed from its reference and no result was a duplicate.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The declared metrics of this mode: end-to-end untraced, per-layer
    /// traced.
    pub metrics: Vec<Metric>,
    /// Everything else worth reading: sample counts, the ladder, the budget.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Rebuilds a result from what a child process running one workload
    /// printed: notes, then the result line.
    pub fn from_child_output(workload: &str, stdout: &str) -> Result<RunResult, String> {
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().ok_or("the child printed nothing")?;
        let json = Json::parse(last)?;
        let number = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("the child's result has no '{key}'"))
        };
        let mut metrics = Vec::new();
        for (name, m) in json
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let (name, unit) = spec::END_TO_END
                .iter()
                .map(|e| (e.name, e.unit))
                .chain(spec::PER_LAYER.iter().map(|p| (p.name, p.unit)))
                .find(|(declared, _)| declared == name)
                .ok_or_else(|| format!("the child reported an undeclared metric '{name}'"))?;
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            metrics.push(Metric { name, value, unit });
        }
        Ok(RunResult {
            workload: workload.to_string(),
            correct: json.get("correct") == Some(&Json::Bool(true)),
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            metrics,
            notes: lines.iter().map(|l| l.to_string()).collect(),
        })
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// One session: drivers running against a built topology
// ---------------------------------------------------------------------------

enum Mode {
    /// A set-up that is timed and thrown away.
    WarmOnly,
    /// `loaded_s` at the session's `in_flight` executions per driver, then,
    /// where latency is measured unloaded, `quiet_s` of turns.
    Closed {
        loaded_s: f64,
        quiet_s: Option<f64>,
    },
    Ladder {
        seconds: f64,
    },
}

impl Mode {
    /// A closed loop's window of `seconds`, split into its two phases.
    fn closed_with_quiet(seconds: f64) -> Mode {
        Mode::Closed {
            loaded_s: seconds * LOADED_SHARE,
            quiet_s: Some(seconds * (1.0 - LOADED_SHARE)),
        }
    }
}

/// A stretch of the quiet phase in which only driver `lane` submits.
#[derive(Clone, Copy)]
struct Turn {
    lane: usize,
    start_us: u64,
    end_us: u64,
}

/// The measured window: when it was, and what the process and the layers
/// did over it.
struct Window {
    start_us: u64,
    end_us: u64,
    /// The turns of the quiet phase that followed, where the workload has
    /// one.
    quiet: Vec<Turn>,
    /// Process CPU time at the boundaries of the slices throughput and CPU
    /// are taken over, `(when, ms)`: the whole window of a closed loop, the
    /// reference rung of the ladder.
    marks: Vec<(u64, f64)>,
    census: Census,
    gauges_max: Gauges,
    peak_rss_mb: f64,
    schedule: Option<Schedule>,
}

impl Window {
    fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }

    fn contains(&self, t_us: u64) -> bool {
        (self.start_us..self.end_us).contains(&t_us)
    }

    /// Which of `lane`'s turns of the quiet phase `s` ran in, from submit
    /// to result.
    fn turn_of(&self, lane: usize, s: &Sample) -> Option<usize> {
        self.quiet
            .iter()
            .filter(|t| t.lane == lane)
            .position(|t| s.start_us >= t.start_us + TURN_SETTLE_US && s.done_us < t.end_us)
    }
}

struct Session {
    setup_s: f64,
    logs: Vec<DriverLog>,
    window: Option<Window>,
}

type Driver<'a> = Box<dyn FnOnce(&Control) -> DriverLog + Send + 'a>;

/// How a session reads the layers from outside: counters at the window's
/// two ends (a snapshot of every node's counters: not for the sampling
/// loop), gauges every 20 ms in between.
struct Observer<'a> {
    census: &'a (dyn Fn() -> Census + Sync),
    gauges: &'a (dyn Fn() -> Gauges + Sync),
}

/// Starts the drivers, waits out warm-up (which ends the set-up that began
/// at `t0`), observes the window `mode` asks for, stops the drivers and
/// collects their logs. A closed loop's drivers each keep `in_flight`
/// executions open.
fn run_session(
    t0: Instant,
    warmup: u64,
    in_flight: usize,
    drivers: Vec<Driver<'_>>,
    observe: Observer<'_>,
    mode: Mode,
) -> Result<Session, String> {
    let control = Control::new(in_flight);
    let control = &control;
    let lanes = drivers.len() as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .into_iter()
            .map(|d| scope.spawn(move || d(control)))
            .collect();

        let warm_deadline = Instant::now() + Duration::from_secs(60);
        while control.completed.load(Ordering::Relaxed) < warmup {
            if Instant::now() > warm_deadline {
                control.stop.store(true, Ordering::Relaxed);
                return Err(format!(
                    "warm-up stalled at {} completions",
                    control.completed.load(Ordering::Relaxed)
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let window = match mode {
            Mode::WarmOnly => None,
            Mode::Closed { loaded_s, quiet_s } => {
                let start_us = now_us();
                let end_us = start_us + (loaded_s * 1e6) as u64;
                let marks = boundaries(start_us, end_us, LOADED_SLICES);
                let mut window = observe_window(&observe, start_us, end_us, &marks, None);
                if let Some(quiet_s) = quiet_s {
                    // Nobody's turn while the loaded phase drains.
                    control.turn.store(lanes, Ordering::Relaxed);
                    control.in_flight.store(1, Ordering::Relaxed);
                    let settle = SETTLE.min(Duration::from_secs_f64(quiet_s / 4.0));
                    std::thread::sleep(settle);
                    let turn_s = (quiet_s - settle.as_secs_f64()) / LATENCY_SLICES as f64;
                    for k in 0..LATENCY_SLICES {
                        let lane = k % lanes as usize;
                        control.turn.store(lane as u64, Ordering::Relaxed);
                        let start_us = now_us();
                        std::thread::sleep(Duration::from_secs_f64(turn_s));
                        window.quiet.push(Turn {
                            lane,
                            start_us,
                            end_us: now_us(),
                        });
                    }
                }
                Some(window)
            }
            Mode::Ladder { seconds } => {
                let steps: Vec<(f64, u64)> = LADDER_RATES
                    .iter()
                    .zip(LADDER_SHARES)
                    .map(|(&rate, share)| (rate, (seconds * share * 1e6) as u64))
                    .collect();
                // Start a little ahead so every driver sees the schedule
                // before its first request is due.
                let schedule = Schedule::consecutive(now_us() + 20_000, &steps);
                control
                    .schedule
                    .set(schedule.clone())
                    .expect("schedule is published once");
                let end_us = schedule.rungs.last().expect("four rungs").end_us;
                let reference = schedule.rungs[REFERENCE_RUNG];
                let marks = boundaries(reference.start_us, reference.end_us, LATENCY_SLICES);
                let start_us = schedule.rungs[0].start_us;
                Some(observe_window(
                    &observe,
                    start_us,
                    end_us,
                    &marks,
                    Some(schedule),
                ))
            }
        };
        control.stop.store(true, Ordering::Relaxed);
        let logs = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a driver thread panicked".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Session {
            setup_s,
            logs,
            window,
        })
    })
}

/// The `n + 1` boundaries of `n` equal slices of `from..to`.
fn boundaries(from: u64, to: u64, n: usize) -> Vec<u64> {
    (0..=n as u64)
        .map(|k| from + (to - from) * k / n as u64)
        .collect()
}

/// Watches the window `start_us..end_us` (on the benchmark's clock, not
/// before now): counters at its ends, gauges every 20 ms, and the process's
/// CPU time as each of `mark_at` passes.
fn observe_window(
    observe: &Observer<'_>,
    start_us: u64,
    end_us: u64,
    mark_at: &[u64],
    schedule: Option<Schedule>,
) -> Window {
    let census_before = (observe.census)();
    let mut gauges_max = (observe.gauges)();
    let mut marks = Vec::with_capacity(mark_at.len());
    let mut peak_rss = 0.0;
    loop {
        let now = now_us();
        if let Some(&due) = mark_at.get(marks.len()) {
            if now >= due {
                marks.push((now, process_cpu_ms()));
                peak_rss = peak_rss_mb();
                continue;
            }
        }
        if now >= end_us {
            break;
        }
        let next = mark_at
            .get(marks.len())
            .map_or(end_us, |&due| due.min(end_us));
        std::thread::sleep(Duration::from_micros((next - now).min(20_000)));
        gauges_max = gauges_max.max((observe.gauges)());
    }
    let end_us = now_us();
    let census = (observe.census)().since(&census_before);
    Window {
        start_us,
        end_us,
        quiet: Vec::new(),
        marks,
        census,
        gauges_max,
        peak_rss_mb: peak_rss,
        schedule,
    }
}

// ---------------------------------------------------------------------------
// Building each workload
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Fabric,
    Tcp { payload_bytes: usize },
    Ladder,
    Compose,
}

fn kind_of(workload: &str) -> Option<Kind> {
    Some(match workload {
        "fabric_direct" => Kind::Fabric,
        "tcp_small" => Kind::Tcp { payload_bytes: 64 },
        "tcp_big" => Kind::Tcp {
            payload_bytes: 8192,
        },
        "tcp_ladder" => Kind::Ladder,
        "compose_deploy" => Kind::Compose,
        _ => return None,
    })
}

/// Executor workers of the fabric workloads: what the process-wide shared
/// executor (the default of `Deployer::new`) would have on this machine.
/// With fewer than two, work injected from outside the pool (every
/// submission) waits until the lone worker's own queue runs dry, and
/// `fabric_direct`'s p99 reads 70 to 100 ms instead of 6.
fn fabric_workers() -> usize {
    nproc().clamp(2, 8)
}

fn new_sink(traced: bool) -> ServiceSink {
    traced.then(|| Arc::new(Mutex::new(Vec::new())))
}

fn take_observations(sink: &ServiceSink) -> Vec<ServiceObs> {
    sink.as_ref()
        .map(|s| std::mem::take(&mut *s.lock().expect("service sink lock")))
        .unwrap_or_default()
}

/// Seeded inputs for driver `driver`: payload bytes and branch values.
fn inputs(seed: u64, driver: usize, payload_bytes: usize) -> Vec<sut::Doc> {
    let mut rng = Rng::new(seed ^ (driver as u64 + 1).wrapping_mul(0x5851_f42d_4c95_7f2d));
    (0..POOL)
        .map(|_| {
            let payload = rng.payload(payload_bytes);
            sut::input_doc(&payload, rng.below(3) as i64)
        })
        .collect()
}

struct Measured {
    setup_s: Vec<f64>,
    session: Session,
    /// Logs of the discarded set-ups: their operations count as attempted.
    earlier_logs: Vec<DriverLog>,
    /// How many service observations the members made over the run.
    member_observations: usize,
    /// Spans of the traced run, for the trace file.
    spans: Vec<Span>,
    span_metrics: BTreeMap<&'static str, f64>,
    server_latency_p50_us: f64,
    delegation_p50_us: f64,
}

fn measure_execution(kind: Kind, args: &RunArgs) -> Result<Measured, String> {
    let mut setup_s = Vec::new();
    let mut earlier_logs = Vec::new();
    let mut setups = args.setups(f64::INFINITY);
    for k in 0..*SETUPS.end() {
        let last = k + 1 >= setups;
        let t0 = Instant::now();
        let sink = new_sink(args.trace);
        let (rig, payload_bytes): (Box<dyn Rig>, usize) = match kind {
            Kind::Fabric => {
                let charts = [sut::chart_fabric_sequence(), sut::chart_fabric_parallel()];
                (
                    Box::new(FabricRig::build(fabric_workers(), &charts, &sink)),
                    64,
                )
            }
            Kind::Tcp { .. } | Kind::Ladder => {
                let shape = TcpShape {
                    workers_per_hub: (nproc() / 2).max(1),
                    members: MEMBERS,
                    replicas: REPLICAS,
                    hold: SERVICE_TIME,
                };
                let charts = [sut::chart_tcp_sequence(), sut::chart_tcp_parallel()];
                let bytes = match kind {
                    Kind::Tcp { payload_bytes } => payload_bytes,
                    _ => 64,
                };
                (Box::new(TcpRig::build(&shape, &charts, &sink)), bytes)
            }
            Kind::Compose => unreachable!("compose_deploy has its own measure function"),
        };
        let refs: Vec<References> = rig
            .targets()
            .iter()
            .enumerate()
            .map(|(d, target)| References::compute(target, inputs(args.seed, d, payload_bytes)))
            .collect::<Result<_, _>>()?;
        take_observations(&sink); // the reference executions are not part of the run

        let n = rig.targets().len() as u64;
        let traced = args.trace;
        let drivers: Vec<Driver<'_>> = rig
            .targets()
            .iter()
            .zip(&refs)
            .enumerate()
            .map(|(d, (target, refs))| -> Driver<'_> {
                let lane = Lane {
                    index: d as u64,
                    of: n,
                };
                match kind {
                    Kind::Ladder => Box::new(move |control: &Control| {
                        open_loop(target, refs, LADDER_RATES[1], traced, control, lane)
                    }),
                    _ => Box::new(move |control: &Control| {
                        closed_loop(target, refs, traced, control, lane)
                    }),
                }
            })
            .collect();
        let mode = match (last, kind) {
            (false, _) => Mode::WarmOnly,
            (true, Kind::Ladder) => Mode::Ladder {
                seconds: args.seconds,
            },
            (true, _) => Mode::closed_with_quiet(args.seconds),
        };
        let rig_ref: &dyn Rig = &*rig;
        let observe = Observer {
            census: &|| rig_ref.census(),
            gauges: &|| rig_ref.gauges(),
        };
        let in_flight = WINDOW_TOTAL / n as usize;
        let session = run_session(t0, WARMUP, in_flight, drivers, observe, mode);
        let session = match session {
            Ok(s) => s,
            Err(e) => {
                rig.teardown();
                return Err(e);
            }
        };
        setup_s.push(session.setup_s);
        if !last {
            setups = args.setups(setup_s[0]);
            earlier_logs.extend(session.logs);
            rig.teardown();
            continue;
        }
        let observations = take_observations(&sink);
        let (spans, span_metrics) = if args.trace {
            execution_spans(&*rig, &session, &observations)
        } else {
            Default::default()
        };
        let measured = Measured {
            setup_s,
            server_latency_p50_us: rig.server_latency_p50_us(),
            delegation_p50_us: rig.delegation_p50_us(),
            session,
            earlier_logs,
            member_observations: observations.len(),
            spans,
            span_metrics,
        };
        rig.teardown();
        return Ok(measured);
    }
    Err("a run needs at least one set-up".into())
}

fn measure_compose(args: &RunArgs) -> Result<Measured, String> {
    let threads = nproc().clamp(1, 4);
    let mut setup_s = Vec::new();
    let mut earlier_logs = Vec::new();
    let mut setups = args.setups(f64::INFINITY);
    for k in 0..*SETUPS.end() {
        let last = k + 1 >= setups;
        let t0 = Instant::now();
        let sink = new_sink(false);
        let rig = ComposeRig::build(fabric_workers(), probes::REGISTRY_SERVICES, &sink);
        let composers: Vec<_> = (0..threads).map(|i| rig.composer(i)).collect();
        // References, before the drivers start: what every possible query
        // finds, and what one iteration's execution returns.
        let input = inputs(args.seed, 0, 64).remove(0);
        let expected_hits = all_queries()
            .into_iter()
            .map(|q| composers[0].hits(&q).map(|n| (q, n)))
            .collect::<Result<_, _>>()?;
        let reference = composers[0].iteration(&[], "ComposedReference", &input)?;
        let plan = ComposePlan {
            expected_hits,
            input,
            expected: sut::strip_volatile(reference.output).0,
        };
        if rig.service_count() != probes::REGISTRY_SERVICES {
            return Err("the reference iteration left a service behind".into());
        }
        let plan = &plan;
        // Each driver owns its composer (a registry client's endpoint is
        // not shareable between threads).
        let drivers: Vec<Driver<'_>> = composers
            .into_iter()
            .enumerate()
            .map(|(d, composer)| -> Driver<'_> {
                let rng = Rng::new(args.seed.wrapping_add(d as u64 * 7919));
                Box::new(move |control: &Control| {
                    let lane = Lane {
                        index: d as u64,
                        of: threads as u64,
                    };
                    compose_loop(&composer, plan, rng, control, lane)
                })
            })
            .collect();
        // One iteration in flight per composer, the whole window through:
        // this loop is unloaded as it is.
        let mode = if last {
            Mode::Closed {
                loaded_s: args.seconds,
                quiet_s: None,
            }
        } else {
            Mode::WarmOnly
        };
        let observe = Observer {
            census: &|| rig.census(),
            gauges: &|| rig.gauges(),
        };
        let session = run_session(t0, WARMUP_COMPOSE, 1, drivers, observe, mode);
        let session = match session {
            Ok(s) => s,
            Err(e) => {
                rig.teardown();
                return Err(e);
            }
        };
        rig.teardown();
        setup_s.push(session.setup_s);
        if !last {
            setups = args.setups(setup_s[0]);
            earlier_logs.extend(session.logs);
            continue;
        }
        let (spans, span_metrics) = compose_spans(&session);
        return Ok(Measured {
            setup_s,
            session,
            earlier_logs,
            member_observations: 0,
            spans,
            span_metrics,
            server_latency_p50_us: 0.0,
            delegation_p50_us: 0.0,
        });
    }
    Err("a run needs at least one set-up".into())
}

// ---------------------------------------------------------------------------
// Spans of the traced run
// ---------------------------------------------------------------------------

/// Instances per driver whose spans are analysed (the latest ones: the
/// monitor keeps a bounded number of finished traces).
const SPAN_INSTANCES: usize = 4_000;
/// Instances per driver whose spans are written to the trace file.
const FILE_INSTANCES: usize = 250;

/// Builds, for the latest correct instances latency is measured on (the
/// quiet phase's, where there is one: the monitor keeps a bounded number of
/// traces, the latest), the root `instance` span (submit to collect) and
/// its children: `driver.submit`,
/// one `core.phase.<state>` per coordinator phase from the monitor's trace,
/// one `member.service` per task from the members' own observations. Self
/// times per instance (medians reported):
/// `member_service` = time covered by member spans;
/// `phase_self` = time inside phases not covered by a member (coordinator,
/// community and the hops between them);
/// `transit_wait` = time of the root no child covers (client, wrapper,
/// transport and scheduling between phases).
fn execution_spans(
    rig: &dyn Rig,
    session: &Session,
    observations: &[ServiceObs],
) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    let Some(window) = &session.window else {
        return Default::default();
    };
    let mut by_tag: HashMap<u64, Vec<&ServiceObs>> = HashMap::new();
    for obs in observations {
        by_tag.entry(obs.tag).or_default().push(obs);
    }
    let mut spans = Vec::new();
    let (mut instance_ms, mut member_ms, mut phase_self_ms, mut transit_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (lane, (log, target)) in session.logs.iter().zip(rig.targets()).enumerate() {
        // The instances latency is measured on: those of the quiet phase,
        // with nothing else in flight, where there is one.
        let mut picked: Vec<&Sample> = log
            .samples
            .iter()
            .filter(|s| s.outcome == Outcome::Correct)
            .filter(|s| match window.quiet.is_empty() {
                true => window.contains(s.done_us),
                false => window.turn_of(lane, s).is_some(),
            })
            .collect();
        picked.sort_by_key(|s| s.done_us);
        let skip = picked.len().saturating_sub(SPAN_INSTANCES);
        for (i, sample) in picked[skip..].iter().enumerate() {
            let (lo, hi) = (sample.start_us, sample.done_us);
            let phases = sample
                .instance
                .map(|instance| target.phases(instance))
                .unwrap_or_default();
            let members = by_tag
                .get(&(sample.seq & 0xffff_ffff))
                .map(Vec::as_slice)
                .unwrap_or_default();
            let mut member_iv: Vec<(u64, u64)> =
                members.iter().map(|o| (o.start_us, o.end_us)).collect();
            let mut work_iv: Vec<(u64, u64)> = phases
                .iter()
                .map(|p| (p.start_us, p.end_us))
                .chain(member_iv.iter().copied())
                .collect();
            let member = covered_us(&mut member_iv, lo, hi);
            let work = covered_us(&mut work_iv.clone(), lo, hi);
            work_iv.push((sample.begin_us, sample.sent_us));
            let covered = covered_us(&mut work_iv, lo, hi);
            instance_ms.push((hi - lo) as f64 / 1e3);
            member_ms.push(member as f64 / 1e3);
            phase_self_ms.push((work - member) as f64 / 1e3);
            transit_ms.push((hi - lo - covered) as f64 / 1e3);

            if picked.len() - skip - i <= FILE_INSTANCES {
                let root = spans.len();
                let child = |name: String, start_us: u64, end_us: u64| Span {
                    name,
                    start_us,
                    end_us,
                    parent: Some(root),
                    instance: sample.seq,
                };
                spans.push(Span {
                    name: "instance".into(),
                    start_us: lo,
                    end_us: hi,
                    parent: None,
                    instance: sample.seq,
                });
                spans.push(child(
                    "driver.submit".into(),
                    sample.begin_us,
                    sample.sent_us,
                ));
                for p in &phases {
                    spans.push(child(
                        format!("core.phase.{}", p.state),
                        p.start_us,
                        p.end_us,
                    ));
                }
                for o in members {
                    spans.push(child("member.service".into(), o.start_us, o.end_us));
                }
            }
        }
    }
    let metrics = BTreeMap::from([
        ("span.instance_ms", median(&instance_ms)),
        ("span.member_service_ms", median(&member_ms)),
        ("span.phase_self_ms", median(&phase_self_ms)),
        ("span.transit_wait_ms", median(&transit_ms)),
    ]);
    (spans, metrics)
}

/// The composer's iteration as spans: its six steps are sequential children
/// of the iteration, so their durations are their self times.
fn compose_spans(session: &Session) -> (Vec<Span>, BTreeMap<&'static str, f64>) {
    let Some(window) = &session.window else {
        return Default::default();
    };
    const STEPS: [&str; 6] = [
        "compose.find",
        "compose.save",
        "compose.decode",
        "compose.deploy",
        "compose.execute",
        "compose.undeploy",
    ];
    let mut spans = Vec::new();
    let mut per_step: [Vec<f64>; 6] = Default::default();
    let mut iteration_ms = Vec::new();
    for log in &session.logs {
        let in_window: Vec<usize> = (0..log.samples.len())
            .filter(|&i| {
                log.samples[i].outcome == Outcome::Correct
                    && window.contains(log.iteration_end_us[i])
            })
            .collect();
        for (rank, &i) in in_window.iter().enumerate() {
            let (sample, steps) = (&log.samples[i], &log.compose_steps[i]);
            let durations = [
                steps.find_us,
                steps.save_us,
                steps.decode_us,
                steps.deploy_us,
                steps.execute_us,
                steps.undeploy_us,
            ];
            for (bucket, us) in per_step.iter_mut().zip(durations) {
                bucket.push(us / 1e3);
            }
            iteration_ms.push((log.iteration_end_us[i] - sample.start_us) as f64 / 1e3);
            if in_window.len() - rank <= FILE_INSTANCES {
                let root = spans.len();
                spans.push(Span {
                    name: "instance".into(),
                    start_us: sample.start_us,
                    end_us: log.iteration_end_us[i],
                    parent: None,
                    instance: sample.seq,
                });
                let mut at = sample.start_us as f64;
                for (name, us) in STEPS.iter().zip(durations) {
                    spans.push(Span {
                        name: (*name).into(),
                        start_us: at as u64,
                        end_us: (at + us) as u64,
                        parent: Some(root),
                        instance: sample.seq,
                    });
                    at += us;
                }
            }
        }
    }
    let metrics = BTreeMap::from([
        ("span.instance_ms", median(&iteration_ms)),
        ("span.compose_find_ms", median(&per_step[0])),
        ("span.compose_save_ms", median(&per_step[1])),
        ("span.compose_decode_ms", median(&per_step[2])),
        ("span.compose_deploy_ms", median(&per_step[3])),
        ("span.compose_execute_ms", median(&per_step[4])),
        ("span.compose_undeploy_ms", median(&per_step[5])),
    ]);
    (spans, metrics)
}

// ---------------------------------------------------------------------------
// From samples to metrics
// ---------------------------------------------------------------------------

/// What the window's samples add up to.
struct EndToEnd {
    instances_per_s: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    latency_p99_ms: f64,
    latency_p999_ms: f64,
    /// p99 with the loaded phase's executions in flight; 0 where latency is
    /// not measured apart from it.
    loaded_p99_ms: f64,
    cpu_ms_per_instance: f64,
    /// Correct completions the per-instance figures divide by.
    completions: u64,
    notes: Vec<String>,
    ladder: Vec<RungResult>,
}

struct RungResult {
    rate_per_s: f64,
    samples: usize,
    p50_ms: f64,
    p99_ms: f64,
    failed_share: f64,
    backlog_growing: bool,
    gen_late_p99_us: f64,
}

impl RungResult {
    fn ok(&self) -> bool {
        self.p99_ms <= LADDER_LIMIT_MS && self.failed_share <= 0.001 && !self.backlog_growing
    }
}

/// Throughput and CPU cost of each slice between the window's marks.
struct SliceCosts {
    completed: Vec<u64>,
    rate_per_s: Vec<f64>,
    cpu_ms_per_instance: Vec<f64>,
}

/// Sorts the completions at `done_at` into the slices between `marks`.
fn slice_costs(marks: &[(u64, f64)], done_at: impl Iterator<Item = u64>) -> SliceCosts {
    let slices = marks.len().saturating_sub(1);
    let mut completed = vec![0u64; slices];
    for t_us in done_at {
        // The slice whose start is the last mark at or before `t_us`.
        let after = marks.partition_point(|&(at, _)| at <= t_us);
        if (1..=slices).contains(&after) {
            completed[after - 1] += 1;
        }
    }
    let (mut rate_per_s, mut cpu_ms_per_instance) = (Vec::new(), Vec::new());
    for (m, &n) in marks.windows(2).zip(&completed) {
        let seconds = (m[1].0 - m[0].0) as f64 / 1e6;
        rate_per_s.push(n as f64 / seconds.max(1e-9));
        cpu_ms_per_instance.push((m[1].1 - m[0].1) / (n as f64).max(1.0));
    }
    SliceCosts {
        completed,
        rate_per_s,
        cpu_ms_per_instance,
    }
}

/// Latencies in ms of the correct samples among `samples`, sorted into
/// `slices` slices by `slice_of`; a sample it names no slice for is left out.
fn latencies_by<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    slices: usize,
    slice_of: impl Fn(&Sample) -> Option<usize>,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); slices];
    for s in samples.filter(|s| s.outcome == Outcome::Correct) {
        if let Some(slice) = slice_of(s) {
            out[slice].push(s.latency_us() / 1e3);
        }
    }
    out
}

/// Which of the `LATENCY_SLICES` equal slices of `from..to` holds `t_us`.
fn equal_slice((from, to): (u64, u64), t_us: u64) -> Option<usize> {
    let slice_us = (to - from) as f64 / LATENCY_SLICES as f64;
    (from..to)
        .contains(&t_us)
        .then(|| (((t_us - from) as f64 / slice_us) as usize).min(LATENCY_SLICES - 1))
}

/// A latency percentile of a workload: per lane the median over slices of
/// the per-slice percentile, then the mean over the lanes.
fn mean_over_lanes(latencies: &[Vec<Vec<f64>>], p: f64) -> f64 {
    let per_lane: Vec<f64> = latencies
        .iter()
        .map(|slices| median_of_slices(slices, p))
        .collect();
    per_lane.iter().sum::<f64>() / per_lane.len().max(1) as f64
}

fn lane_notes(latencies: &[Vec<Vec<f64>>]) -> Vec<String> {
    latencies
        .iter()
        .enumerate()
        .map(|(lane, slices)| {
            format!(
                "  lane {lane}: {} samples in {} slices, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms \
                 (medians of slices)",
                slices.iter().map(Vec::len).sum::<usize>(),
                slices.len(),
                median_of_slices(slices, 0.50),
                median_of_slices(slices, 0.90),
                median_of_slices(slices, 0.99),
            )
        })
        .collect()
}

fn closed_end_to_end(kind: Kind, session: &Session, window: &Window) -> EndToEnd {
    // The composer's unit of throughput is the whole iteration, which ends
    // after its first result.
    let costs = slice_costs(
        &window.marks,
        session.logs.iter().flat_map(|log| {
            log.samples
                .iter()
                .enumerate()
                .filter(|(_, s)| s.outcome == Outcome::Correct)
                .map(move |(i, s)| match kind {
                    Kind::Compose => log.iteration_end_us[i],
                    _ => s.done_us,
                })
        }),
    );
    // Latencies per lane and slice. A lane is a chart: a percentile of two
    // charts' pooled samples would sit between two modes and jump with the
    // mix. Every composer runs the same chart, so they share one lane and
    // the window's slices; elsewhere a lane is a driver and its slices are
    // its turns of the quiet phase.
    let loaded = (window.start_us, window.end_us);
    let latencies: Vec<Vec<Vec<f64>>> = match kind {
        Kind::Compose => vec![latencies_by(
            session.logs.iter().flat_map(|log| &log.samples),
            LATENCY_SLICES,
            |s| equal_slice(loaded, s.done_us).filter(|_| s.start_us >= loaded.0),
        )],
        _ => session
            .logs
            .iter()
            .enumerate()
            .map(|(lane, log)| {
                let turns = window.quiet.iter().filter(|t| t.lane == lane).count();
                latencies_by(log.samples.iter(), turns, |s| window.turn_of(lane, s))
            })
            .collect(),
    };
    let pooled = sorted(&latencies.concat().concat());
    let completions: u64 = costs.completed.iter().sum();
    let (p999_used, p999) = guarded_percentile(&pooled, 0.999);
    let mut notes = vec![format!(
        "loaded {:.2} s in {LOADED_SLICES} slices: {completions} correct completions (per slice {:?}); \
         latency {}: {} samples; tail percentile used for p999: {p999_used:.4}",
        window.seconds(),
        costs.completed,
        match window.quiet.last() {
            Some(last) => format!(
                "over {:.2} s of turns, one execution in flight",
                (last.end_us - window.quiet[0].start_us) as f64 / 1e6
            ),
            None => "of the same".to_string(),
        },
        pooled.len(),
    )];
    notes.extend(lane_notes(&latencies));
    // The tail with the window full, where a quiet phase followed.
    let loaded_p99_ms = if window.quiet.is_empty() {
        0.0
    } else {
        let per_lane: Vec<Vec<Vec<f64>>> = session
            .logs
            .iter()
            .map(|log| {
                latencies_by(log.samples.iter(), LATENCY_SLICES, |s| {
                    equal_slice(loaded, s.done_us)
                })
            })
            .collect();
        mean_over_lanes(&per_lane, 0.99)
    };
    EndToEnd {
        instances_per_s: median(&costs.rate_per_s),
        latency_p50_ms: mean_over_lanes(&latencies, 0.50),
        latency_p90_ms: mean_over_lanes(&latencies, 0.90),
        latency_p99_ms: mean_over_lanes(&latencies, 0.99),
        latency_p999_ms: p999,
        loaded_p99_ms,
        cpu_ms_per_instance: median(&costs.cpu_ms_per_instance),
        completions,
        notes,
        ladder: Vec::new(),
    }
}

fn ladder_end_to_end(session: &Session, window: &Window) -> EndToEnd {
    let schedule = window
        .schedule
        .as_ref()
        .expect("a ladder window has a schedule");
    let mut per_rung: Vec<Vec<&Sample>> = vec![Vec::new(); schedule.rungs.len()];
    for s in session.logs.iter().flat_map(|log| &log.samples) {
        if let Some(r) = schedule.rung_of(s.start_us) {
            per_rung[r].push(s);
        }
    }
    // The reference rung in slices per driver, like the closed loops: a
    // stall of the bench box lands in one slice's tail, not in the rung's.
    let reference = &schedule.rungs[REFERENCE_RUNG];
    let reference_ms: Vec<Vec<Vec<f64>>> = session
        .logs
        .iter()
        .map(|log| {
            latencies_by(log.samples.iter(), LATENCY_SLICES, |s| {
                equal_slice((reference.start_us, reference.end_us), s.start_us)
            })
        })
        .collect();
    // Throughput and CPU over the slices of the reference rung too (that is
    // where the window's marks are): whatever the rungs above do to the
    // system, they do it afterwards. Throughput counts what met the limit.
    let correct = || {
        session
            .logs
            .iter()
            .flat_map(|log| &log.samples)
            .filter(|s| s.outcome == Outcome::Correct)
    };
    let costs = slice_costs(&window.marks, correct().map(|s| s.done_us));
    let within_limit = slice_costs(
        &window.marks,
        correct()
            .filter(|s| s.latency_us() / 1e3 <= LADDER_LIMIT_MS)
            .map(|s| s.done_us),
    );
    let mut ladder = Vec::new();
    let mut notes = Vec::new();
    let mut completions = 0u64;
    let mut all_ms = Vec::new();
    for (rung, samples) in schedule.rungs.iter().zip(&per_rung) {
        let ok_ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.outcome == Outcome::Correct)
            .map(|s| s.latency_us() / 1e3)
            .collect();
        completions += ok_ms.len() as u64;
        all_ms.extend_from_slice(&ok_ms);
        let ok_sorted = sorted(&ok_ms);
        let late: Vec<f64> = samples
            .iter()
            .map(|s| s.begin_us.saturating_sub(s.start_us) as f64)
            .collect();
        // Backlog at each submission, per driver: growing when the last
        // quarter of the rung holds clearly more open instances than the
        // quarter before it.
        let quarter = (rung.end_us - rung.start_us) / 4;
        let backlog_growing = session.logs.iter().any(|log| {
            let mean_in = |from: u64, to: u64| {
                let v: Vec<f64> = log
                    .backlog
                    .iter()
                    .filter(|(t, _)| (from..to).contains(t))
                    .map(|&(_, n)| f64::from(n))
                    .collect();
                v.iter().sum::<f64>() / v.len().max(1) as f64
            };
            let third = mean_in(rung.start_us + 2 * quarter, rung.start_us + 3 * quarter);
            let fourth = mean_in(rung.start_us + 3 * quarter, rung.end_us);
            fourth > third * 1.25 + 4.0
        });
        let result = RungResult {
            rate_per_s: rung.rate_per_s,
            samples: samples.len(),
            p50_ms: guarded_percentile(&ok_sorted, 0.50).1,
            p99_ms: guarded_percentile(&ok_sorted, 0.99).1,
            failed_share: 1.0 - ok_ms.len() as f64 / samples.len().max(1) as f64,
            backlog_growing,
            gen_late_p99_us: guarded_percentile(&sorted(&late), 0.99).1,
        };
        notes.push(format!(
            "rung {:>6.0}/s for {:.2} s: {} requests, p50 {:.3} ms, p99 {:.3} ms, failed {:.4}, backlog {}, \
             generator late p99 {:.0} us -> {}",
            result.rate_per_s,
            (rung.end_us - rung.start_us) as f64 / 1e6,
            result.samples,
            result.p50_ms,
            result.p99_ms,
            result.failed_share,
            if result.backlog_growing {
                "growing"
            } else {
                "steady"
            },
            result.gen_late_p99_us,
            if result.ok() { "ok" } else { "not ok" },
        ));
        ladder.push(result);
    }
    notes.push(format!(
        "reference rung {:.0}/s:",
        schedule.rungs[REFERENCE_RUNG].rate_per_s
    ));
    notes.extend(lane_notes(&reference_ms));
    EndToEnd {
        instances_per_s: median(&within_limit.rate_per_s),
        latency_p50_ms: mean_over_lanes(&reference_ms, 0.50),
        latency_p90_ms: mean_over_lanes(&reference_ms, 0.90),
        latency_p99_ms: mean_over_lanes(&reference_ms, 0.99),
        latency_p999_ms: guarded_percentile(&sorted(&all_ms), 0.999).1,
        loaded_p99_ms: 0.0,
        cpu_ms_per_instance: median(&costs.cpu_ms_per_instance),
        completions,
        notes,
        ladder,
    }
}

/// Highest rate such that it and every rate below it were ok; 0 if none.
fn max_rate_ok(ladder: &[RungResult]) -> f64 {
    ladder
        .iter()
        .take_while(|r| r.ok())
        .last()
        .map_or(0.0, |r| r.rate_per_s)
}

/// One term of the cost budget: a census count per instance times a probed
/// unit cost. Terms do not overlap; `within` names parts of a term that
/// other probes account for (shown, not added).
struct BudgetTerm {
    what: &'static str,
    count_per_instance: f64,
    unit_cost_us: f64,
    within: Vec<(&'static str, f64)>,
}

/// The budget: which part of `cpu_ms_per_instance` the probed unit costs
/// explain. Per-frame costs are interpolated on the mean frame size between
/// the 64 B and the 8 KiB probe (cost = per-frame + per-byte).
fn budget(
    probes: &BTreeMap<&'static str, f64>,
    census: &Census,
    completions: u64,
    driver_cpu_ms: f64,
    small_frame_bytes: f64,
    big_frame_bytes: f64,
) -> Vec<BudgetTerm> {
    let n = completions.max(1) as f64;
    let p = |name: &str| probes.get(name).copied().unwrap_or(0.0);
    let frames = census.frames_sent as f64 / n;
    let messages = census.messages() as f64 / n;
    let mean_frame = census.bytes_sent as f64 / census.frames_sent.max(1) as f64;
    let at_size = |small: f64, big: f64| {
        let t = ((mean_frame - small_frame_bytes) / (big_frame_bytes - small_frame_bytes))
            .clamp(0.0, 4.0);
        small + (big - small) * t
    };
    vec![
        BudgetTerm {
            what: "TCP frames x process CPU of one frame end to end, at the mean frame size",
            count_per_instance: frames,
            unit_cost_us: at_size(p("net.tcp_frame_cpu_us"), p("net.tcp_frame_cpu_us_8k")),
            within: vec![
                (
                    "frame write + frame read (XML codec)",
                    at_size(p("net.frame_write_us"), p("net.frame_write_us_8k"))
                        + at_size(p("net.frame_read_us"), p("net.frame_read_us_8k")),
                ),
                (
                    "executor dispatch on the worker",
                    p("runtime.dispatch_cpu_us"),
                ),
            ],
        },
        BudgetTerm {
            what: "in-process messages x process CPU of one fabric message",
            count_per_instance: (messages - frames).max(0.0),
            unit_cost_us: p("net.fabric_message_cpu_us"),
            within: vec![
                (
                    "envelope encode + XML write (for wire_size)",
                    p("net.envelope_encode_us") + p("xml.write_us"),
                ),
                (
                    "executor dispatch on the worker",
                    p("runtime.dispatch_cpu_us"),
                ),
            ],
        },
        BudgetTerm {
            // A delegation's document is encoded by coordinator, community
            // and member, and decoded by each of them once: three of each.
            what: "delegations x 3 x (document encode + decode)",
            count_per_instance: 3.0 * census.delegations as f64 / n,
            unit_cost_us: p("wsdl.msgdoc_encode_us") + p("wsdl.msgdoc_decode_us"),
            within: Vec::new(),
        },
        BudgetTerm {
            what: "driver threads (measured thread CPU, not a probe)",
            count_per_instance: 1.0,
            unit_cost_us: driver_cpu_ms * 1e3,
            within: Vec::new(),
        },
    ]
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let kind =
        kind_of(&args.workload).ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    let measured = match kind {
        Kind::Compose => measure_compose(args)?,
        _ => measure_execution(kind, args)?,
    };
    let window = measured
        .session
        .window
        .as_ref()
        .ok_or("the measured set-up has no window")?;
    let e2e = match kind {
        Kind::Ladder => ladder_end_to_end(&measured.session, window),
        _ => closed_end_to_end(kind, &measured.session, window),
    };

    // Every operation of the run counts, warm-up, discarded set-ups and
    // drain included.
    let all_logs = || measured.session.logs.iter().chain(&measured.earlier_logs);
    let attempted: u64 = all_logs().map(|l| l.samples.len() as u64).sum();
    let count = |o: Outcome| -> u64 {
        all_logs()
            .map(|l| l.samples.iter().filter(|s| s.outcome == o).count() as u64)
            .sum()
    };
    let duplicates: u64 = all_logs().map(|l| l.duplicates).sum();
    let (faulted, mismatched, dropped) = (
        count(Outcome::Faulted),
        count(Outcome::Mismatch),
        count(Outcome::Dropped),
    );
    let failed = faulted + mismatched + dropped + duplicates;

    let mut notes = vec![format!(
        "{} seed {} trace {} nproc {}: {attempted} attempted, {failed} failed \
         ({faulted} faulted, {mismatched} wrong output, {dropped} dropped, {duplicates} duplicate); \
         set-ups {:?} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        measured.setup_s,
    )];
    notes.extend(
        all_logs()
            .flat_map(|l| &l.failures)
            .map(|why| format!("  failure: {why}")),
    );
    notes.extend(e2e.notes.iter().cloned());

    let end_to_end = [
        ("setup_s", median(&measured.setup_s)),
        ("instances_per_s", e2e.instances_per_s),
        ("latency_p50_ms", e2e.latency_p50_ms),
        ("cpu_ms_per_instance", e2e.cpu_ms_per_instance),
        ("peak_rss_mb", window.peak_rss_mb),
    ];
    for (name, value) in end_to_end {
        let unit = spec::end_to_end(name).expect("declared").unit;
        notes.push(format!("  {name:<34} {value:>14.4} {unit}"));
    }
    notes.push(format!(
        "  not bounded: latency p90 {:.4} ms, p99 {:.4} ms, p99.9 {:.4} ms; p99 with the window full {:.4} ms",
        e2e.latency_p90_ms, e2e.latency_p99_ms, e2e.latency_p999_ms, e2e.loaded_p99_ms
    ));

    let metrics = if args.trace {
        let values = per_layer_values(args, kind, &measured, window, &e2e, &mut notes);
        write_trace_file(args, &measured, &values)?;
        spec::PER_LAYER
            .iter()
            .map(|p| Metric {
                name: p.name,
                value: values.get(p.name).copied().unwrap_or(0.0),
                unit: p.unit,
            })
            .collect()
    } else {
        end_to_end
            .iter()
            .map(|&(name, value)| {
                let e = spec::end_to_end(name).expect("declared");
                Metric {
                    name: e.name,
                    value,
                    unit: e.unit,
                }
            })
            .collect()
    };

    Ok(RunResult {
        workload: args.workload.clone(),
        correct: mismatched == 0 && duplicates == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Every per-layer value of a traced run, by declared name. A metric that
/// does not apply to the workload (a ladder rung outside `tcp_ladder`, a
/// TCP counter on the fabric) reads 0.
fn per_layer_values(
    args: &RunArgs,
    kind: Kind,
    measured: &Measured,
    window: &Window,
    e2e: &EndToEnd,
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> =
        probes::run_all(args.seed, if args.smoke { 0.1 } else { 1.0 })
            .into_iter()
            .collect();
    let probes_only = v.clone();
    let census = &window.census;
    let n = e2e.completions.max(1) as f64;

    v.insert("net.frames_per_instance", census.frames_sent as f64 / n);
    v.insert("net.bytes_per_instance", census.bytes_sent as f64 / n);
    v.insert(
        "net.frames_per_writev",
        census.frames_sent as f64 / census.writev_calls.max(1) as f64,
    );
    v.insert("net.messages_per_instance", census.messages() as f64 / n);
    v.insert("net.backpressure_waits", census.backpressure_waits as f64);
    v.insert(
        "net.stale_replies_per_instance",
        census.stale_replies as f64 / n,
    );
    v.insert("net.frames_dropped", census.frames_dropped as f64);
    v.insert(
        "runtime.run_queue_depth_max",
        window.gauges_max.run_queue_depth as f64,
    );
    v.insert(
        "runtime.blocked_workers_max",
        window.gauges_max.blocked_workers as f64,
    );
    v.insert("runtime.steals_per_instance", census.steals as f64 / n);
    v.insert(
        "core.monitor_events_per_instance",
        census.monitor_events as f64 / n,
    );
    v.insert("core.server_latency_p50_us", measured.server_latency_p50_us);
    v.insert(
        "community.delegations_per_instance",
        census.delegations as f64 / n,
    );
    v.insert("community.failovers", census.failovers as f64);
    v.insert("community.faults", census.community_faults as f64);
    v.insert(
        "community.admission_queue_depth_max",
        window.gauges_max.admission_queue_depth as f64,
    );
    v.insert("community.delegation_p50_us", measured.delegation_p50_us);
    v.insert(
        "discovery.gossip_frames_per_s",
        census.messages_of("discovery") as f64 / window.seconds(),
    );

    // The driver about the run and about itself.
    let logs = &measured.session.logs;
    let submit_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| window.contains(s.done_us) && kind != Kind::Compose)
        .map(|s| s.sent_us.saturating_sub(s.begin_us) as f64)
        .collect();
    let lifetime_samples: usize = logs.iter().map(|l| l.samples.len()).sum();
    let driver_cpu_ms = logs.iter().map(|l| l.cpu_ms).sum::<f64>() / lifetime_samples.max(1) as f64;
    v.insert("driver.instances_per_s_traced", e2e.instances_per_s);
    v.insert("driver.submit_us", median(&submit_us));
    v.insert("driver.cpu_ms_per_instance", driver_cpu_ms);
    v.insert("driver.latency_p90_ms", e2e.latency_p90_ms);
    v.insert("driver.latency_p99_ms", e2e.latency_p99_ms);
    v.insert("driver.latency_p999_ms", e2e.latency_p999_ms);
    v.insert("driver.loaded_p99_ms", e2e.loaded_p99_ms);
    const P50: [&str; 4] = [
        "driver.ladder_p50_ms_r1",
        "driver.ladder_p50_ms_r2",
        "driver.ladder_p50_ms_r3",
        "driver.ladder_p50_ms_r4",
    ];
    const P99: [&str; 4] = [
        "driver.ladder_p99_ms_r1",
        "driver.ladder_p99_ms_r2",
        "driver.ladder_p99_ms_r3",
        "driver.ladder_p99_ms_r4",
    ];
    for (i, rung) in e2e.ladder.iter().enumerate() {
        v.insert(P50[i], rung.p50_ms);
        v.insert(P99[i], rung.p99_ms);
    }
    if !e2e.ladder.is_empty() {
        v.insert("driver.max_rate_ok_per_s", max_rate_ok(&e2e.ladder));
        let late: Vec<f64> = e2e.ladder.iter().map(|r| r.gen_late_p99_us).collect();
        v.insert(
            "driver.gen_late_p99_us",
            late.iter().copied().fold(0.0, f64::max),
        );
    }
    v.extend(measured.span_metrics.iter().map(|(k, x)| (*k, *x)));

    // The budget, with its per-term table.
    let small = sut::envelope_text(&sut::sample_envelope(&"x".repeat(64))).len() as f64 + 4.0;
    let big = sut::envelope_text(&sut::sample_envelope(&"x".repeat(8192))).len() as f64 + 4.0;
    let terms = budget(
        &probes_only,
        census,
        e2e.completions,
        driver_cpu_ms,
        small,
        big,
    );
    let explained_ms: f64 = terms
        .iter()
        .map(|t| t.count_per_instance * t.unit_cost_us / 1e3)
        .sum();
    let total_ms = e2e.cpu_ms_per_instance;
    notes.push(format!(
        "cost budget of one instance ({total_ms:.4} ms CPU):"
    ));
    for t in &terms {
        let ms = t.count_per_instance * t.unit_cost_us / 1e3;
        notes.push(format!(
            "  {:>8.2} x {:>9.3} us = {:>8.4} ms ({:>5.1} %)  {}",
            t.count_per_instance,
            t.unit_cost_us,
            ms,
            100.0 * ms / total_ms.max(1e-9),
            t.what
        ));
        for (part, us) in &t.within {
            notes.push(format!("             of which {us:>9.3} us  {part}"));
        }
    }
    notes.push(format!(
        "  explained {explained_ms:.4} ms ({:.1} %), unexplained {:.4} ms: coordinator, wrapper and \
         community logic, timers, contention, and whatever no probe covers",
        100.0 * explained_ms / total_ms.max(1e-9),
        total_ms - explained_ms
    ));
    v.insert("budget.explained_share", explained_ms / total_ms.max(1e-9));
    v.insert("budget.unexplained_ms", total_ms - explained_ms);

    let by_role: Vec<String> = census
        .messages_by_role
        .iter()
        .filter(|(_, &count)| count > 0)
        .map(|(role, &count)| format!("{role} {:.2}", count as f64 / n))
        .collect();
    notes.push(format!(
        "messages sent per instance by role: {}",
        by_role.join(", ")
    ));
    for p in spec::PER_LAYER {
        let value = v.get(p.name).copied().unwrap_or(0.0);
        notes.push(format!("  {:<38} {value:>14.4} {}", p.name, p.unit));
    }
    v
}

/// Writes the spans and the per-layer values of a traced run to
/// `<out>/trace-<workload>.json`.
fn write_trace_file(
    args: &RunArgs,
    measured: &Measured,
    values: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let doc = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "member_observations",
            Json::Num(measured.member_observations as f64),
        ),
        (
            "per_layer",
            Json::obj(values.iter().map(|(k, x)| (*k, Json::Num(*x)))),
        ),
        ("spans", spans_to_json(&measured.spans)),
    ]);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, doc.encode() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_us: u64, done_us: u64) -> Sample {
        Sample {
            seq: 0,
            start_us,
            begin_us: start_us,
            sent_us: start_us,
            done_us,
            outcome: Outcome::Correct,
            instance: None,
        }
    }

    #[test]
    fn completions_and_cpu_are_sorted_into_the_slices_between_marks() {
        assert_eq!(boundaries(100, 400, 3), vec![100, 200, 300, 400]);
        // Two slices of 1 s; 30 ms of CPU in the first, 10 ms in the second.
        let marks = [(0, 5.0), (1_000_000, 35.0), (2_000_000, 45.0)];
        // Before the first mark, three in the first slice (its start
        // included), one in the second, and the last mark itself, which
        // belongs to no slice.
        let done = [0, 10, 999_999, 1_000_000, 2_000_000];
        let costs = slice_costs(&marks, done.into_iter());
        assert_eq!(costs.completed, vec![3, 1]);
        assert_eq!(costs.rate_per_s, vec![3.0, 1.0]);
        assert_eq!(costs.cpu_ms_per_instance, vec![10.0, 10.0]);
        // A slice nothing completed in costs its CPU once, not infinity.
        let idle = slice_costs(&marks, std::iter::empty());
        assert_eq!(idle.cpu_ms_per_instance, vec![30.0, 10.0]);
    }

    #[test]
    fn a_sample_counts_in_a_turn_only_if_it_ran_wholly_inside_it() {
        let turn = |lane, start_us| Turn {
            lane,
            start_us,
            end_us: start_us + 1_000_000,
        };
        let window = Window {
            start_us: 0,
            end_us: 1_000_000,
            quiet: vec![turn(0, 1_000_000), turn(1, 2_000_000), turn(0, 3_000_000)],
            marks: Vec::new(),
            census: Census::default(),
            gauges_max: Gauges::default(),
            peak_rss_mb: 0.0,
            schedule: None,
        };
        let settled = TURN_SETTLE_US;
        // Lane 0's second turn is its slice 1.
        assert_eq!(
            window.turn_of(0, &sample(3_000_000 + settled, 3_500_000)),
            Some(1)
        );
        assert_eq!(
            window.turn_of(0, &sample(1_000_000 + settled, 1_500_000)),
            Some(0)
        );
        // Submitted while the other driver's last execution may still run.
        assert_eq!(window.turn_of(0, &sample(1_000_000, 1_000_900)), None);
        // Still open when the turn ended.
        assert_eq!(window.turn_of(0, &sample(1_900_000, 2_000_001)), None);
        // Somebody else's turn.
        assert_eq!(window.turn_of(0, &sample(2_100_000, 2_200_000)), None);
        assert_eq!(window.turn_of(1, &sample(2_100_000, 2_200_000)), Some(0));
    }
}
