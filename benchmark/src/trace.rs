//! Spans recorded by the benchmark's own files around its calls into each
//! layer (tracing inside the product crates is a later change). Spans stay
//! in memory during a run and are written out once, after measuring.

use crate::json::Json;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Microseconds since the benchmark's clock origin (first use). Every
/// timestamp the benchmark records is on this clock.
pub fn now_us() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One span. `instance` is the driver's sequence number of the composite
/// execution the span belongs to; `parent` is an index into the same span
/// list (`None` for a root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub instance: u64,
}

/// A service-time observation made by a benchmark-owned member or backend:
/// request arrival to reply, tagged with the instance the payload names.
#[derive(Debug, Clone, Copy)]
pub struct ServiceObs {
    pub tag: u64,
    pub start_us: u64,
    pub end_us: u64,
}

/// Where members and backends put their observations. `None` when the run
/// is untraced, so the untraced path records nothing at all.
pub type ServiceSink = Option<std::sync::Arc<Mutex<Vec<ServiceObs>>>>;

pub fn record_service(sink: &ServiceSink, tag: Option<u64>, start_us: u64) {
    if let (Some(sink), Some(tag)) = (sink, tag) {
        let obs = ServiceObs {
            tag,
            start_us,
            end_us: now_us(),
        };
        sink.lock().expect("service sink lock").push(obs);
    }
}

/// Total length of the union of `[start, end)` intervals, clipped to
/// `[lo, hi)`: how much of a parent span its children cover. The parent's
/// self time is its duration minus this.
pub fn covered_us(intervals: &mut Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|iv| {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
        iv.0 < iv.1
    });
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("end_us", Json::Num(s.end_us as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("instance", Json::Num(s.instance as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_the_union_clipped_to_the_parent() {
        // Overlapping children, one reaching past the parent's end, one
        // entirely outside it.
        let mut iv = vec![(10, 30), (20, 40), (90, 130), (200, 300)];
        assert_eq!(covered_us(&mut iv, 0, 100), 30 + 10);
        assert_eq!(covered_us(&mut Vec::new(), 0, 100), 0);
    }
}
