//! Per-layer probes: single-threaded timed loops over public functions of
//! one layer each, fed the frames and charts the workloads use. A probe's
//! value is a unit cost; multiplied by the census count per instance it is
//! one term of the cost budget.

use crate::driver::Rng;
use crate::stats::median;
use crate::sut;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of services the registry probes (and `compose_deploy`) seed.
pub const REGISTRY_SERVICES: usize = 2_000;

/// Median over five batches of the mean time of one call, in µs. The batch
/// size is calibrated so that five batches take about `budget`.
fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let calibrate = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || (calibrate.elapsed() < budget / 10 && calls < 1_000_000) {
        f();
        calls += 1;
    }
    let per_call = calibrate.elapsed().as_secs_f64() / f64::from(calls);
    let batch = ((budget.as_secs_f64() / 5.0 / per_call.max(1e-9)) as usize).clamp(1, 5_000_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&batches)
}

/// Every probe, as `(metric name, value)`. `scale` shrinks the time budget
/// (`--smoke` runs at a tenth).
pub fn run_all(seed: u64, scale: f64) -> Vec<(&'static str, f64)> {
    let budget = Duration::from_secs_f64(0.04 * scale);
    let mut rng = Rng::new(seed);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // xml, net codec, wsdl: the modal frame of tcp_small and of tcp_big.
    for (payload_bytes, parse, write, frame_write, frame_read) in [
        (
            64,
            "xml.parse_us",
            "xml.write_us",
            "net.frame_write_us",
            "net.frame_read_us",
        ),
        (
            8192,
            "xml.parse_us_8k",
            "xml.write_us_8k",
            "net.frame_write_us_8k",
            "net.frame_read_us_8k",
        ),
    ] {
        let envelope = sut::sample_envelope(&rng.payload(payload_bytes));
        let text = sut::envelope_text(&envelope);
        let element = sut::xml_parse(&text);
        out.push((
            parse,
            time_us(budget, || {
                black_box(sut::xml_parse(black_box(&text)));
            }),
        ));
        out.push((
            write,
            time_us(budget, || {
                black_box(sut::xml_write(black_box(&element)));
            }),
        ));
        let mut frame = Vec::new();
        out.push((
            frame_write,
            time_us(budget, || {
                sut::frame_write(&mut frame, black_box(&envelope));
            }),
        ));
        out.push((
            frame_read,
            time_us(budget, || {
                black_box(sut::frame_read(black_box(&frame)));
            }),
        ));
        if payload_bytes == 64 {
            out.push((
                "net.envelope_encode_us",
                time_us(budget, || {
                    black_box(sut::envelope_encode(black_box(&envelope)));
                }),
            ));
            out.push((
                "net.envelope_decode_us",
                time_us(budget, || {
                    black_box(sut::envelope_decode(black_box(&element)));
                }),
            ));
            let doc = sut::input_doc(&rng.payload(64), 1);
            let doc_xml = sut::msgdoc_encode(&doc);
            out.push((
                "wsdl.msgdoc_encode_us",
                time_us(budget, || {
                    black_box(sut::msgdoc_encode(black_box(&doc)));
                }),
            ));
            out.push((
                "wsdl.msgdoc_decode_us",
                time_us(budget, || {
                    black_box(sut::msgdoc_decode(black_box(&doc_xml)));
                }),
            ));
        }
    }

    // expr: a guard of the synthetic charts.
    let guard = sut::expr_parse(sut::SAMPLE_GUARD);
    let env = sut::expr_env();
    out.push((
        "expr.parse_us",
        time_us(budget, || {
            black_box(sut::expr_parse(black_box(sut::SAMPLE_GUARD)));
        }),
    ));
    out.push((
        "expr.eval_us",
        time_us(budget, || {
            black_box(sut::expr_eval(black_box(&guard), &env));
        }),
    ));

    // statechart, routing: the chart compose_deploy deploys.
    let chart = sut::chart_compose();
    let chart_xml = sut::chart_xml(&chart);
    let plan = sut::routing_generate(&chart);
    out.push((
        "statechart.decode_us",
        time_us(budget, || {
            black_box(sut::statechart_decode(black_box(&chart_xml)));
        }),
    ));
    out.push((
        "statechart.validate_us",
        time_us(budget, || {
            black_box(sut::statechart_validate(black_box(&chart)));
        }),
    ));
    out.push((
        "routing.generate_us",
        time_us(budget, || {
            black_box(sut::routing_generate(black_box(&chart)));
        }),
    ));
    out.push((
        "routing.plan_xml_roundtrip_us",
        time_us(budget, || {
            black_box(sut::routing_plan_roundtrip(black_box(&plan)));
        }),
    ));

    // registry: the store alone, then through the server.
    let registry = sut::RegistrySubject::seeded(REGISTRY_SERVICES);
    let mut i = 0usize;
    out.push((
        "registry.find_us",
        time_us(budget, || {
            i += 1;
            black_box(registry.find(i));
        }),
    ));
    out.push(("registry.save_us", registry_save_us(&registry, budget)));
    out.push((
        "registry.find_us_during_writes",
        find_during_writes_us(&registry, budget),
    ));
    let rpc = sut::RegistryRpcSubject::build(&registry);
    out.push((
        "registry.rpc_find_us",
        time_us(budget, || {
            i += 1;
            black_box(rpc.find(i));
        }),
    ));
    rpc.teardown();

    // net: echo round trips on both transports.
    let fabric = sut::RttSubject::fabric();
    out.push(("net.fabric_rtt_us", time_us(budget, || fabric.round_trip())));
    fabric.teardown();
    let tcp = sut::RttSubject::tcp();
    out.push(("net.tcp_rtt_us", time_us(budget, || tcp.round_trip())));
    tcp.teardown();

    // net: CPU of one message through each transport, every thread counted.
    let (small, big) = (rng.payload(64), rng.payload(8192));
    let fabric = sut::BurstSubject::fabric();
    let bursts = |subject: &sut::BurstSubject, len: f64, payload: &str| {
        let runs: Vec<f64> = (0..3)
            .map(|_| subject.cpu_us_per_message((len * scale) as usize + 500, payload))
            .collect();
        median(&runs)
    };
    out.push((
        "net.fabric_message_cpu_us",
        bursts(&fabric, 30_000.0, &small),
    ));
    fabric.teardown();
    let tcp = sut::BurstSubject::tcp();
    out.push(("net.tcp_frame_cpu_us", bursts(&tcp, 8_000.0, &small)));
    out.push(("net.tcp_frame_cpu_us_8k", bursts(&tcp, 2_000.0, &big)));
    tcp.teardown();

    // runtime: scheduling delay and timer lateness (medians of samples,
    // not of means: each observation is one latency).
    let runtime = sut::RuntimeSubject::build();
    let posts: Vec<f64> = (0..(2_000.0 * scale) as usize + 20)
        .map(|_| runtime.post_to_run_us())
        .collect();
    out.push(("runtime.post_to_run_us", median(&posts)));
    let bursts: Vec<f64> = (0..3)
        .map(|_| runtime.dispatch_cpu_us((50_000.0 * scale) as usize + 1_000))
        .collect();
    out.push(("runtime.dispatch_cpu_us", median(&bursts)));
    let lags: Vec<f64> = (0..(20.0 * scale) as usize + 5)
        .map(|_| runtime.timer_lag_us())
        .collect();
    out.push(("runtime.timer_lag_us", median(&lags)));
    runtime.teardown();

    // core: the wrapper + coordinator floor, and deploy/undeploy.
    let core = sut::CoreSubject::build();
    out.push((
        "core.execute_seq1_us",
        time_us(budget, || core.execute_seq1()),
    ));
    let cycles: Vec<(f64, f64)> = (0..(10.0 * scale) as usize + 3)
        .map(|_| core.deploy_undeploy_us())
        .collect();
    let deploys: Vec<f64> = cycles.iter().map(|c| c.0).collect();
    let undeploys: Vec<f64> = cycles.iter().map(|c| c.1).collect();
    out.push(("core.deploy_us", median(&deploys)));
    out.push(("core.undeploy_us", median(&undeploys)));
    core.teardown();

    // community: one delegation through a server to a zero-latency member.
    let delegate = sut::DelegateSubject::build();
    out.push((
        "community.delegate_rtt_us",
        time_us(budget, || delegate.delegate()),
    ));
    delegate.teardown();

    // discovery: two hubs finding each other.
    out.push(("discovery.converge_ms", sut::discovery_converge_ms()));

    // obs: what recording and scraping cost.
    let obs = sut::ObsSubject::build();
    let mut v = 0u64;
    out.push((
        "obs.hist_record_ns",
        1e3 * time_us(budget, || {
            v = v.wrapping_add(977);
            obs.record(black_box(v % 100_000));
        }),
    ));
    let rendered = obs.render();
    out.push((
        "obs.render_us",
        time_us(budget, || {
            black_box(obs.render());
        }),
    ));
    out.push((
        "obs.parse_us",
        time_us(budget, || {
            black_box(sut::obs_parse(black_box(&rendered)));
        }),
    ));
    obs.teardown();

    out
}

/// Times `save` alone: each saved service is deleted again outside the
/// timed section so the store keeps its seeded size.
fn registry_save_us(registry: &sut::RegistrySubject, budget: Duration) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while samples.len() < 25 || (start.elapsed() < budget && samples.len() < 100_000) {
        let t0 = Instant::now();
        let key = registry.save(i);
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        registry.delete(&key);
        i += 1;
    }
    median(&samples)
}

/// `find` while one other thread saves and deletes without pause: what a
/// read costs beside writers on the sharded store.
fn find_during_writes_us(registry: &sut::RegistrySubject, budget: Duration) -> f64 {
    let stop = std::sync::atomic::AtomicBool::new(false);
    let writer_side = registry.share();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 1_000_000;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let key = writer_side.save(i);
                writer_side.delete(&key);
                i += 1;
            }
        });
        let mut i = 0usize;
        let us = time_us(budget, || {
            i += 1;
            black_box(registry.find(i));
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        us
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_grows_with_the_work_timed() {
        // black_box is a hint: confirm the loop is really measured.
        let work = |n: u64| {
            let mut x = 1u64;
            for i in 0..n {
                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            black_box(x);
        };
        let budget = Duration::from_millis(20);
        let small = time_us(budget, || work(1_000));
        let large = time_us(budget, || work(10_000));
        assert!(
            large > small * 4.0,
            "10x the work took {large} vs {small} us"
        );
    }
}
