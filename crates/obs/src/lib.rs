//! # selfserv-obs — unified observability layer
//!
//! Lock-light metric primitives and Prometheus text exposition for the
//! SELF-SERV platform, with zero external dependencies:
//!
//! - [`Counter`] / [`Gauge`] — relaxed-atomic scalars.
//! - [`Histogram`] — log-bucketed (8 sub-buckets per power of two, ≤12.5%
//!   relative error) latency histogram with wait-free recording and
//!   mergeable [`HistogramSnapshot`]s exposing p50/p99/p999.
//! - [`Registry`] — cloneable shared registry rendering the Prometheus
//!   text format (histograms as `summary` families).
//! - [`MetricsServer`] — a `/metrics` scrape endpoint on a std
//!   `TcpListener`, plus [`http_get`] for the scraping side.
//! - [`parse`] — a minimal text-format parser for the scraping side and
//!   the round-trip tests.
//!
//! Every layer of the platform registers into one [`Registry`] per hub:
//! transport I/O and writer backpressure, executor run-queue and steal
//! counts, instance lifecycle latencies from the execution monitor,
//! community delegation, and discovery gossip. See `DESIGN.md`
//! ("Observability") for the full inventory.

mod metrics;
pub mod parse;
mod registry;
mod server;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Registry, EXPORT_QUANTILES};
pub use server::{http_get, MetricsServer};

#[cfg(test)]
mod proptests;
