//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics with the end-to-end
//! metric each is expected to move. `BENCHMARK.json` is generated from
//! these tables (`benchmark spec`), and a test holds the file to them.

use crate::json::Json;

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 22;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "fabric_direct",
        why: "In-process fabric, echo backends: only coordinator, routing, guard and executor work. \
              A codec, TCP, gossip or community change must not move it; an executor change must.",
    },
    WorkloadSpec {
        name: "tcp_small",
        why: "2 TCP hubs, tasks delegated to the neighbour's community, 64 B payload: per-frame \
              cost (XML codec, writer queue, writev, delegation hops) dominates.",
    },
    WorkloadSpec {
        name: "tcp_big",
        why: "tcp_small's topology with an 8 KiB payload: per-byte cost (copies, escaping, parse \
              length) dominates, so a framing gain bought with an extra copy shows as a loss.",
    },
    WorkloadSpec {
        name: "tcp_ladder",
        why: "tcp_small's topology driven open-loop at four fixed rates, timed from the due time: \
              the throughput-latency curve and its knee, where back-pressure work is judged.",
    },
    WorkloadSpec {
        name: "compose_deploy",
        why: "The composer's path: 8 registry finds, publish, decode a 12-state chart, deploy, \
              first execute, undeploy. Rapid composition is the paper's claim; nothing else measures it.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// One bound for all: the widest the contract allows. A bound has to hold
/// on the noisiest workload on a busy bench box, where a neighbour's minute
/// costs a CPU-bound run a quarter of its speed; a bound inside that noise
/// would make every later change `unresolved` (README.md, "Bounds").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "topology build, convergence, deploy, references, 200 warm-up instances (median of 3 to 9 set-ups)",
    },
    EndToEnd {
        name: "instances_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "correct completions per second with 32 in flight, median of 12 slices (compose_deploy: iterations; tcp_ladder: completions within the latency limit on rung 2, median of 8 slices)",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "submit to collected result with one execution in flight in the process, median of 4 turns per chart, then averaged (compose_deploy: first find to first result, 8 slices; tcp_ladder: rung 2, from due time, 8 slices)",
    },
    EndToEnd {
        name: "cpu_ms_per_instance",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "process CPU time (user+system) per correct completion with 32 in flight, median of 12 slices (tcp_ladder: on rung 2, 8 slices): the anchor of the cost budget",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
        what: "VmHWM at the end of the loaded phase (tcp_ladder: of rung 2)",
    },
];

/// The tail of the latency `latency_p50_ms` is the median of. It is a
/// per-layer metric because no bound the contract allows holds it (README.md,
/// "Why the tail is not bounded"), and layer metrics that act on the tail
/// name it as what they move.
pub const TAIL: &str = "driver.latency_p99_ms";

/// How a per-layer value is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum How {
    /// Single-threaded timed loop over a public function.
    Probe,
    /// Counter delta over the window, usually per completion.
    Census,
    /// Maximum of a gauge sampled every 20 ms over the window.
    Sampled,
    /// From the spans of the traced run.
    Span,
    /// Measured by the driver about the run or about itself.
    Driver,
    /// Computed from other per-layer values.
    Derived,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub how: How,
    /// The end-to-end metric this should move …
    pub moves: &'static str,
    /// … and on which workloads. Everywhere else the prediction is no change.
    pub on: &'static str,
    pub what: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    how: How,
    moves: &'static str,
    on: &'static str,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        how,
        moves,
        on,
        what,
    }
}

const TCP: &str = "tcp_small tcp_big tcp_ladder";
const EXEC: &str = "fabric_direct tcp_small tcp_big tcp_ladder";
const ALL: &str = "fabric_direct tcp_small tcp_big tcp_ladder compose_deploy";

pub const PER_LAYER: &[PerLayer] = &[
    // xml
    m("xml.parse_us", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_small tcp_ladder",
        "`selfserv_xml::parse` of tcp_small's modal frame (a coordinator's `community.invoke`, 64 B payload)"),
    m("xml.write_us", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_small tcp_ladder fabric_direct",
        "`Element::to_xml` of the same frame"),
    m("xml.parse_us_8k", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_big",
        "parse of tcp_big's modal frame (8 KiB payload, ~3 % escaped characters)"),
    m("xml.write_us_8k", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_big",
        "write of the same frame"),
    // wsdl
    m("wsdl.msgdoc_encode_us", "us", "lower", How::Probe, "cpu_ms_per_instance", EXEC,
        "`MessageDoc::to_xml` of an execution input"),
    m("wsdl.msgdoc_decode_us", "us", "lower", How::Probe, "cpu_ms_per_instance", EXEC,
        "`MessageDoc::from_xml` of the same document"),
    // expr
    m("expr.parse_us", "us", "lower", How::Probe, "latency_p50_ms", "compose_deploy",
        "`selfserv_expr::parse` of a synthetic chart's guard (`branch == 1`)"),
    m("expr.eval_us", "us", "lower", How::Probe, "latency_p50_ms", "fabric_direct",
        "`Expr::eval_bool` of that guard"),
    // statechart, routing
    m("statechart.decode_us", "us", "lower", How::Probe, "latency_p50_ms", "compose_deploy",
        "`Statechart::from_xml_str` of compose_deploy's 12-state chart"),
    m("statechart.validate_us", "us", "lower", How::Probe, "latency_p50_ms", "compose_deploy",
        "`Statechart::validate` of that chart"),
    m("routing.generate_us", "us", "lower", How::Probe, "latency_p50_ms", "compose_deploy",
        "`selfserv_routing::generate` for that chart"),
    m("routing.plan_xml_roundtrip_us", "us", "lower", How::Probe, "latency_p50_ms", "compose_deploy",
        "its `RoutingPlan` to XML text and back"),
    // registry
    m("registry.find_us", "us", "lower", How::Probe, "instances_per_s", "compose_deploy",
        "`UddiRegistry::find` by operation on the store alone, 2 000 services"),
    m("registry.save_us", "us", "lower", How::Probe, "instances_per_s", "compose_deploy",
        "`UddiRegistry::save_service` on that store (the service is deleted again untimed)"),
    m("registry.rpc_find_us", "us", "lower", How::Probe, "latency_p50_ms", "compose_deploy",
        "the same find through `RegistryClient` and `RegistryServer` on the fabric"),
    m("registry.find_us_during_writes", "us", "lower", How::Probe, "instances_per_s", "compose_deploy",
        "`find` while one other thread saves and deletes without pause: what a read gain costs writers, and the reverse"),
    // net
    m("net.envelope_encode_us", "us", "lower", How::Probe, "latency_p50_ms", TCP,
        "`Envelope::to_xml` of the modal frame"),
    m("net.envelope_decode_us", "us", "lower", How::Probe, "latency_p50_ms", TCP,
        "`Envelope::from_xml` of the modal frame"),
    m("net.frame_write_us", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_small tcp_ladder",
        "`tcp::write_frame` of the modal 64 B frame into a `Vec`"),
    m("net.frame_read_us", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_small tcp_ladder",
        "`tcp::read_frame` of it from a `Cursor`"),
    m("net.frame_write_us_8k", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_big",
        "`write_frame` of the 8 KiB frame"),
    m("net.frame_read_us_8k", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_big",
        "`read_frame` of the 8 KiB frame"),
    m("net.fabric_rtt_us", "us", "lower", How::Probe, "latency_p50_ms", "fabric_direct compose_deploy",
        "echo round trip on the fabric: `rpc` to a node on a 1-worker executor"),
    m("net.tcp_rtt_us", "us", "lower", How::Probe, "latency_p50_ms", TCP,
        "the same round trip through `TcpTransport` (loopback sockets)"),
    m("net.fabric_message_cpu_us", "us", "lower", How::Probe, "cpu_ms_per_instance", "fabric_direct compose_deploy",
        "CPU of every thread per message of a one-way burst on the fabric, receiver busy (send + deliver + dispatch)"),
    m("net.tcp_frame_cpu_us", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_small tcp_ladder",
        "CPU of every thread per 64 B frame of a one-way burst through `TcpTransport` (encode, queue, writev, read, parse, dispatch)"),
    m("net.tcp_frame_cpu_us_8k", "us", "lower", How::Probe, "cpu_ms_per_instance", "tcp_big",
        "the same per 8 KiB frame"),
    m("net.frames_per_instance", "count", "lower", How::Census, "cpu_ms_per_instance", TCP,
        "`io.frames_sent` over the window per completion, all hubs"),
    m("net.bytes_per_instance", "count", "lower", How::Census, "cpu_ms_per_instance", "tcp_big",
        "`io.bytes_sent` per completion"),
    m("net.frames_per_writev", "count", "higher", How::Census, "cpu_ms_per_instance", TCP,
        "`frames_sent / writev_calls`: how well writers coalesce"),
    m("net.messages_per_instance", "count", "lower", How::Census, "cpu_ms_per_instance", ALL,
        "messages sent by all nodes (per-node `sent` counters) per completion; counted on the fabric too"),
    m("net.backpressure_waits", "count", "lower", How::Census, TAIL, TCP,
        "sends that found their connection queue full, over the window"),
    m("net.stale_replies_per_instance", "count", "lower", How::Census, "cpu_ms_per_instance", TCP,
        "replies discarded as late or duplicate per completion (wasted member work)"),
    m("net.frames_dropped", "count", "lower", How::Census, "instances_per_s", TCP,
        "frames a failing writer dropped, over the window"),
    // runtime
    m("runtime.post_to_run_us", "us", "lower", How::Probe, "latency_p50_ms", "fabric_direct",
        "`send` to an idle no-op node until its `on_message` runs (wake-up latency, median)"),
    m("runtime.dispatch_cpu_us", "us", "lower", How::Probe, "cpu_ms_per_instance", ALL,
        "worker-thread CPU per message of a burst to a no-op node (wake, dequeue, drain)"),
    m("runtime.timer_lag_us", "us", "lower", How::Probe, "latency_p50_ms", TCP,
        "how late a 2 ms `set_timer` fires (median)"),
    m("runtime.run_queue_depth_max", "count", "lower", How::Sampled, TAIL, "fabric_direct tcp_ladder",
        "largest executor run-queue depth seen (all hubs summed)"),
    m("runtime.blocked_workers_max", "count", "lower", How::Sampled, TAIL, EXEC,
        "most workers parked in `block_on` at once"),
    m("runtime.steals_per_instance", "count", "lower", How::Census, "latency_p50_ms", "fabric_direct",
        "runnables stolen from a sibling worker per completion"),
    // core
    m("core.execute_seq1_us", "us", "lower", How::Probe, "instances_per_s", "fabric_direct",
        "`Deployment::execute` of a one-task chart on the fabric: the wrapper + coordinator floor"),
    m("core.deploy_us", "us", "lower", How::Probe, "latency_p50_ms", "compose_deploy",
        "`Deployer::deploy` of the 12-state chart on the fabric (median)"),
    m("core.undeploy_us", "us", "lower", How::Probe, "instances_per_s", "compose_deploy",
        "`Deployment::undeploy` of it (median)"),
    m("core.monitor_events_per_instance", "count", "lower", How::Census, "cpu_ms_per_instance", EXEC,
        "trace events the monitors received per completion (the traced run's own tax)"),
    m("core.server_latency_p50_us", "us", "lower", How::Census, "latency_p50_ms", EXEC,
        "p50 of the monitor's `selfserv_instance_latency_us` (wrapper start to finish; log buckets)"),
    // community
    m("community.delegate_rtt_us", "us", "lower", How::Probe, "latency_p50_ms", TCP,
        "`CommunityClient::invoke` through a server to a zero-latency member, on the fabric"),
    m("community.delegations_per_instance", "count", "lower", How::Census, "cpu_ms_per_instance", TCP,
        "delegations accepted per completion"),
    m("community.failovers", "count", "lower", How::Census, TAIL, TCP,
        "member attempts retried on another member, over the window"),
    m("community.faults", "count", "lower", How::Census, "instances_per_s", TCP,
        "delegations that ended in a fault, over the window"),
    m("community.admission_queue_depth_max", "count", "lower", How::Sampled, TAIL, "tcp_ladder",
        "largest admission-queue depth seen (all replicas summed)"),
    m("community.delegation_p50_us", "us", "lower", How::Census, "latency_p50_ms", TCP,
        "p50 of `selfserv_community_delegation_latency_us` (admission to reply; log buckets)"),
    // discovery
    m("discovery.converge_ms", "ms", "lower", How::Probe, "setup_s", TCP,
        "two fresh hubs, one seeded with the other's address, until each routes to the other's node"),
    m("discovery.gossip_frames_per_s", "1/s", "lower", How::Census, "cpu_ms_per_instance", TCP,
        "messages sent by the `disc.*` nodes per second of the window: the background tax"),
    // obs
    m("obs.hist_record_ns", "ns", "lower", How::Probe, "cpu_ms_per_instance", TCP,
        "`Histogram::record`"),
    m("obs.render_us", "us", "lower", How::Probe, "cpu_ms_per_instance", TCP,
        "`Registry::render` of a registry shaped like one hub's"),
    m("obs.parse_us", "us", "lower", How::Probe, "cpu_ms_per_instance", TCP,
        "`obs::parse::parse` of that exposition"),
    // the benchmark itself
    m("driver.instances_per_s_traced", "1/s", "higher", How::Driver, "instances_per_s", ALL,
        "`instances_per_s` of this traced run; with the untraced value it gives `trace_overhead_share`"),
    m("driver.submit_us", "us", "lower", How::Driver, "cpu_ms_per_instance", EXEC,
        "duration of the submit call (median)"),
    m("driver.cpu_ms_per_instance", "ms", "lower", How::Driver, "cpu_ms_per_instance", ALL,
        "CPU of the driver threads per operation: the benchmark's own share of the budget"),
    m("driver.latency_p90_ms", "ms", "lower", How::Driver, "latency_p50_ms", ALL,
        "as `latency_p50_ms`, at the 90th percentile"),
    m("driver.latency_p99_ms", "ms", "lower", How::Driver, "latency_p50_ms", ALL,
        "as `latency_p50_ms`, at the 99th percentile (per slice lowered until ten samples lie beyond it): the tail, not bounded"),
    m("driver.latency_p999_ms", "ms", "lower", How::Driver, TAIL, ALL,
        "pooled p99.9 of the same samples (lowered likewise)"),
    m("driver.loaded_p99_ms", "ms", "lower", How::Driver, "instances_per_s", "fabric_direct tcp_small tcp_big",
        "p99 of submit to result with 32 in flight (median of 8 slices per chart, averaged): queueing with the window full"),
    m("driver.gen_late_p99_us", "us", "lower", How::Driver, TAIL, "tcp_ladder",
        "how late the open-loop generator submitted, worst rung's p99"),
    m("driver.ladder_p50_ms_r1", "ms", "lower", How::Driver, "latency_p50_ms", "tcp_ladder",
        "tcp_ladder rung 1 (400/s), p50 from due time"),
    m("driver.ladder_p50_ms_r2", "ms", "lower", How::Driver, "latency_p50_ms", "tcp_ladder",
        "rung 2 (800/s)"),
    m("driver.ladder_p50_ms_r3", "ms", "lower", How::Driver, "latency_p50_ms", "tcp_ladder",
        "rung 3 (1 100/s)"),
    m("driver.ladder_p50_ms_r4", "ms", "lower", How::Driver, "latency_p50_ms", "tcp_ladder",
        "rung 4 (1 400/s)"),
    m("driver.ladder_p99_ms_r1", "ms", "lower", How::Driver, TAIL, "tcp_ladder",
        "tcp_ladder rung 1, p99 from due time"),
    m("driver.ladder_p99_ms_r2", "ms", "lower", How::Driver, TAIL, "tcp_ladder",
        "rung 2"),
    m("driver.ladder_p99_ms_r3", "ms", "lower", How::Driver, TAIL, "tcp_ladder",
        "rung 3"),
    m("driver.ladder_p99_ms_r4", "ms", "lower", How::Driver, TAIL, "tcp_ladder",
        "rung 4, the highest"),
    m("driver.max_rate_ok_per_s", "1/s", "higher", How::Driver, "instances_per_s", "tcp_ladder",
        "highest rate such that it and every lower rung met the 50 ms p99 limit with at most 0.1 % failed and no growing backlog"),
    // spans of the traced run (medians per instance)
    m("span.instance_ms", "ms", "lower", How::Span, "latency_p50_ms", ALL,
        "root span: submit (or due) to collected result; compose_deploy: the whole iteration"),
    m("span.member_service_ms", "ms", "lower", How::Span, "latency_p50_ms", EXEC,
        "part of the root covered by `member.service` spans (arrival to reply at the benchmark's members)"),
    m("span.phase_self_ms", "ms", "lower", How::Span, "latency_p50_ms", EXEC,
        "part covered by `core.phase.*` spans but by no member span: coordinator, community and the hops between them"),
    m("span.transit_wait_ms", "ms", "lower", How::Span, "latency_p50_ms", EXEC,
        "part of the root no child covers: client, wrapper, transport and scheduling between phases"),
    m("span.compose_find_ms", "ms", "lower", How::Span, "latency_p50_ms", "compose_deploy",
        "the iteration's 8 finds"),
    m("span.compose_save_ms", "ms", "lower", How::Span, "latency_p50_ms", "compose_deploy",
        "its `save_service`"),
    m("span.compose_decode_ms", "ms", "lower", How::Span, "latency_p50_ms", "compose_deploy",
        "its `Statechart::from_xml_str`"),
    m("span.compose_deploy_ms", "ms", "lower", How::Span, "latency_p50_ms", "compose_deploy",
        "its `Deployer::deploy`"),
    m("span.compose_execute_ms", "ms", "lower", How::Span, "latency_p50_ms", "compose_deploy",
        "its first `execute`"),
    m("span.compose_undeploy_ms", "ms", "lower", How::Span, "instances_per_s", "compose_deploy",
        "its `undeploy` and withdrawal of the publication"),
    // the cost budget
    m("budget.explained_share", "share", "higher", How::Derived, "cpu_ms_per_instance", "tcp_small",
        "sum of (census count x probed unit cost) over `cpu_ms_per_instance`"),
    m("budget.unexplained_ms", "ms", "lower", How::Derived, "cpu_ms_per_instance", "tcp_small",
        "the remainder, reported rather than hidden"),
];

#[cfg(test)]
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

/// Where the package lives, from the root of the repository.
pub const PACKAGE_DIR: &str = "benchmark";

/// `BENCHMARK.json` as the tables above define it.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                Json::Str(w.name.into()).encode(),
                Json::Str(w.why.into()).encode()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                e.name, e.unit, e.better, e.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                p.name, p.unit, p.better
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"{PACKAGE_DIR}/Cargo.toml\", \"--bin\", \"benchmark\", \"--\"],\n  \
         \"paths\": [\"{PACKAGE_DIR}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

impl How {
    fn name(self) -> &'static str {
        match self {
            How::Probe => "probe",
            How::Census => "census",
            How::Sampled => "sampled",
            How::Span => "span",
            How::Driver => "driver",
            How::Derived => "derived",
        }
    }
}

/// The metric glossary and the layer-to-end-to-end interaction table of
/// README.md, as markdown (`benchmark glossary`). A layer metric is expected
/// to move the named end-to-end metric on the named workloads; on every
/// workload not named the prediction is **no change**.
pub fn glossary() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for e in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            e.name,
            e.unit,
            e.better,
            100.0 * e.bound,
            e.what
        ));
    }
    out.push_str(
        "\n| per-layer metric | unit | how | what | should move | on (elsewhere: no change) |\n\
         |---|---|---|---|---|---|\n",
    );
    for p in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | `{}` | {} |\n",
            p.name,
            p.unit,
            p.how.name(),
            p.what,
            p.moves,
            p.on.replace(' ', ", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|p| p.name))
            .collect();
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks the pattern"
        );
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for e in &END_TO_END {
            assert!(
                unit_ok(e.unit) && e.bound > 0.0 && e.bound <= 0.25,
                "{}",
                e.name
            );
            assert!(matches!(e.better, "lower" | "higher"));
        }
        let setup = end_to_end("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
    }

    #[test]
    fn every_layer_metric_names_a_target_metric_and_workloads() {
        for p in PER_LAYER {
            assert!(unit_ok(p.unit), "{}", p.name);
            assert!(matches!(p.better, "lower" | "higher"), "{}", p.name);
            assert!(
                end_to_end(p.moves).is_some() || p.moves == TAIL,
                "{} moves {}",
                p.name,
                p.moves
            );
            assert!(!p.on.is_empty(), "{} names no workload", p.name);
            for w in p.on.split_whitespace() {
                assert!(workload(w).is_some(), "{} names workload {w}", p.name);
            }
        }
    }

    #[test]
    fn readme_carries_the_generated_glossary() {
        let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
            .expect("README.md beside Cargo.toml");
        assert!(
            readme.contains(&glossary()),
            "regenerate the tables in README.md with: benchmark glossary"
        );
    }

    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json"
        );
        let parsed = Json::parse(&on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(on_disk.len() <= 64 * 1024);
        for arg in parsed.get("command").unwrap().as_arr() {
            let arg = arg.as_str().unwrap();
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
    }
}
