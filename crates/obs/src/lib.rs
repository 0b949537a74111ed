//! `hulkv-obs`: live telemetry for the HULK-V simulator.
//!
//! Four layers, all dependency-free:
//!
//! - [`registry`]: a [`MetricsRegistry`] of named counters, gauges, and
//!   histograms with cheap atomic handles, for the series that change
//!   while a run is going.
//! - [`prom`]: a Prometheus text-exposition writer (and a small scrape
//!   parser, the oracle of the round-trip tests).
//! - [`http`] + [`bus`]: a single-threaded HTTP listener serving
//!   `/metrics`, `/snapshot` and `/healthz` from a [`TelemetryBus`] that
//!   keeps the last published [`hulkv_sim::MetricsSnapshot`] and times
//!   driver phases.
//! - [`cli`]: [`ObsArgs`], the one parser of the sink flags
//!   (`--metrics-out`, `--trace-out`, `--timeline-out`,
//!   `--timeline-period`, `--serve-metrics`) and their wiring.
//!
//! The cardinal rule: the bus is an *observer*. Publishing happens only
//! at boundaries the driver already crosses, wall-clock data never
//! enters [`hulkv_sim::Stats`], and enabling `--serve-metrics` leaves
//! guest cycles, counters, and state digests bit-identical — asserted
//! by the `telemetry_bus` integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cli;
pub mod http;
pub mod prom;
pub mod registry;

pub use bus::TelemetryBus;
pub use cli::{tracer, write_file, ObsArgs, ObsSession, Sink};
pub use http::{get, Handler, HttpServer, Response};
pub use registry::{
    exponential_bounds, is_valid_label_name, is_valid_metric_name, CounterHandle, GaugeHandle,
    HistogramHandle, MetricKind, MetricsRegistry,
};
