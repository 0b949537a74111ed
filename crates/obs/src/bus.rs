//! The telemetry bus: the last published [`MetricsSnapshot`] plus the
//! live [`MetricsRegistry`], served over HTTP.
//!
//! A snapshot is published only at boundaries the driver already
//! crosses (the end of a rep or a run), so enabling the bus never
//! changes what the guest executes. The bus keeps that one snapshot:
//! `/snapshot` serves its JSON and `/metrics` renders its families at
//! scrape time, so the two agree because they read the same value. The
//! registry adds the series that only exist while a run is going —
//! phase timers, campaign counters, latency histograms.

use crate::http::{Handler, HttpServer, Response};
use crate::prom;
use crate::registry::{FamilySample, MetricKind, MetricsRegistry, SampleValue, SeriesSample};
use hulkv_sim::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Default)]
struct BusState {
    snapshot: Option<Arc<MetricsSnapshot>>,
    phase: Option<(String, Instant)>,
}

/// A cloneable, thread-safe telemetry bus.
///
/// Clones share one registry and one state; a clone can be moved into a
/// server thread while the driver keeps publishing.
#[derive(Clone, Default)]
pub struct TelemetryBus {
    registry: MetricsRegistry,
    state: Arc<Mutex<BusState>>,
}

impl TelemetryBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying registry, for bin-specific counters and gauges.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Replaces the stored snapshot with `snap`; `/snapshot` and
    /// `/metrics` serve it from now on, and nothing of the one before.
    pub fn publish_snapshot(&self, snap: &MetricsSnapshot) {
        self.registry
            .counter(
                "hulkv_snapshot_publishes_total",
                "Metrics snapshots published onto the bus.",
                &[],
            )
            .inc();
        self.state.lock().expect("bus state poisoned").snapshot = Some(Arc::new(snap.clone()));
    }

    /// Starts (or switches to) a named wall-clock phase. The previous
    /// phase's elapsed time is folded into
    /// `hulkv_phase_seconds_total{phase=...}`.
    pub fn begin_phase(&self, name: &str) {
        let mut st = self.state.lock().expect("bus state poisoned");
        let prev = st.phase.replace((name.to_owned(), Instant::now()));
        drop(st);
        if let Some((prev_name, t0)) = prev {
            self.add_phase_seconds(&prev_name, t0.elapsed().as_secs_f64());
        }
    }

    /// Ends the current phase, folding its elapsed time into the phase
    /// gauge. No-op when no phase is active.
    pub fn end_phase(&self) {
        let mut st = self.state.lock().expect("bus state poisoned");
        let prev = st.phase.take();
        drop(st);
        if let Some((name, t0)) = prev {
            self.add_phase_seconds(&name, t0.elapsed().as_secs_f64());
        }
    }

    fn add_phase_seconds(&self, phase: &str, secs: f64) {
        self.registry
            .gauge(
                "hulkv_phase_seconds_total",
                "Host wall-clock seconds spent per driver phase.",
                &[("phase", phase)],
            )
            .add(secs);
    }

    fn snapshot(&self) -> Option<Arc<MetricsSnapshot>> {
        self.state
            .lock()
            .expect("bus state poisoned")
            .snapshot
            .clone()
    }

    /// Renders `/metrics` (Prometheus text exposition): the stored
    /// snapshot's families and the registry's live series, families in
    /// name order.
    pub fn render_metrics(&self) -> String {
        let mut families = self.registry.sample();
        if let Some(snap) = self.snapshot() {
            families.extend(snapshot_families(&snap));
        }
        families.sort_by(|a, b| a.name.cmp(&b.name));
        prom::render(&families)
    }

    /// Renders `/snapshot` — the last published [`MetricsSnapshot`]
    /// JSON (an empty schema-v2 document before the first publish).
    pub fn snapshot_json(&self) -> String {
        self.snapshot().unwrap_or_default().to_json().to_string()
    }

    /// Starts the HTTP listener for this bus on `addr` (port `0` picks
    /// an ephemeral port — read it back via [`HttpServer::addr`]).
    ///
    /// Routes: `/metrics`, `/snapshot`, `/healthz`.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound.
    pub fn serve(&self, addr: &str) -> Result<HttpServer, String> {
        let bus = self.clone();
        let handler: Handler = Arc::new(move |path: &str| match path {
            "/metrics" => Some(Response::text(bus.render_metrics())),
            "/snapshot" => Some(Response::json(bus.snapshot_json())),
            _ => None,
        });
        HttpServer::serve(addr, handler)
    }
}

type Series = BTreeMap<Vec<(String, String)>, SampleValue>;

fn labels(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

/// The snapshot as exposition families: every block counter as
/// `hulkv_stats{block,counter}` (the exact `u64`), power, energy and
/// figures as gauges, and a derived `hulkv_hit_ratio` for every
/// `hits`/`misses` (or `*_hits`/`*_misses`) sibling pair. Series are
/// keyed by their labels, so a block name that repeats keeps its last
/// value.
fn snapshot_families(snap: &MetricsSnapshot) -> Vec<FamilySample> {
    let mut stats = Series::new();
    let mut ratios = Series::new();
    for block in &snap.blocks {
        let counters: Vec<(&str, u64)> = block.iter().collect();
        for &(k, v) in &counters {
            stats.insert(
                labels(&[("block", block.name()), ("counter", k)]),
                SampleValue::Counter(v),
            );
            // Covers caches, the decode cache, superblocks and the µTLB
            // without naming them individually.
            let (resource, misses) = match k.strip_suffix("_hits") {
                _ if k == "hits" => ("cache", "misses".to_owned()),
                Some(prefix) => (prefix, format!("{prefix}_misses")),
                None => continue,
            };
            if counters.iter().any(|&(m, _)| m == misses) {
                ratios.insert(
                    labels(&[("block", block.name()), ("resource", resource)]),
                    SampleValue::Gauge(block.ratio(k, &misses)),
                );
            }
        }
    }
    let gauges = |values: &BTreeMap<String, f64>, label: &str| -> Series {
        values
            .iter()
            .map(|(k, v)| (labels(&[(label, k)]), SampleValue::Gauge(*v)))
            .collect()
    };
    [
        (
            "hulkv_energy",
            "Energy figures from the last published snapshot.",
            MetricKind::Gauge,
            gauges(&snap.energy, "figure"),
        ),
        (
            "hulkv_figure",
            "Scalar figures of merit from the last published snapshot.",
            MetricKind::Gauge,
            gauges(&snap.figures, "name"),
        ),
        (
            "hulkv_hit_ratio",
            "hits / (hits + misses) per block resource.",
            MetricKind::Gauge,
            ratios,
        ),
        (
            "hulkv_power_mw",
            "Per-block power from the last published snapshot (mW).",
            MetricKind::Gauge,
            gauges(&snap.power_mw, "block"),
        ),
        (
            "hulkv_stats",
            "Mirrored simulator block counters (exact u64 values).",
            MetricKind::Counter,
            stats,
        ),
    ]
    .into_iter()
    .filter(|(.., series)| !series.is_empty())
    .map(|(name, help, kind, series)| FamilySample {
        name: name.to_owned(),
        help: help.to_owned(),
        kind,
        bounds: Vec::new(),
        series: series
            .into_iter()
            .map(|(labels, value)| SeriesSample { labels, value })
            .collect(),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http;
    use hulkv_sim::Stats;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let mut llc = Stats::new("llc");
        llc.add("hits", 300);
        llc.add("misses", 100);
        snap.push_block(llc);
        let mut soc = Stats::new("soc");
        soc.set("decode_hits", 90);
        soc.set("decode_misses", 10);
        // Large but within f64-exact range: the /snapshot JSON schema
        // stores counters as f64 (the /metrics text path is the one
        // that is exact beyond 2^53 — see prom.rs tests).
        soc.set("instret", (1u64 << 52) + 3);
        snap.push_block(soc);
        snap.set_power_mw("pmca", 88.5);
        snap.set_energy("total_mj", 1.75);
        snap.set_figure("wall_seconds", 0.5);
        snap
    }

    #[test]
    fn snapshot_mirrors_exactly_and_is_idempotent() {
        let bus = TelemetryBus::new();
        let snap = sample_snapshot();
        bus.publish_snapshot(&snap);
        bus.publish_snapshot(&snap); // set semantics: no double counting
        let text = bus.render_metrics();
        let doc = prom::parse(&text).unwrap();
        assert_eq!(
            doc.value("hulkv_stats", &[("block", "llc"), ("counter", "hits")]),
            Some(300.0)
        );
        // The exact u64 survives in the rendered text.
        assert!(text.contains(&format!(" {}\n", (1u64 << 52) + 3)));
        assert_eq!(
            doc.value("hulkv_power_mw", &[("block", "pmca")]),
            Some(88.5)
        );
        assert_eq!(
            doc.value("hulkv_energy", &[("figure", "total_mj")]),
            Some(1.75)
        );
        assert_eq!(
            doc.value("hulkv_figure", &[("name", "wall_seconds")]),
            Some(0.5)
        );
        assert_eq!(doc.value("hulkv_snapshot_publishes_total", &[]), Some(2.0));
        // Derived ratios for both naming shapes.
        assert_eq!(
            doc.value(
                "hulkv_hit_ratio",
                &[("block", "llc"), ("resource", "cache")]
            ),
            Some(0.75)
        );
        assert_eq!(
            doc.value(
                "hulkv_hit_ratio",
                &[("block", "soc"), ("resource", "decode")]
            ),
            Some(0.9)
        );
        // /snapshot serves the very document that was published.
        let back = MetricsSnapshot::parse(&bus.snapshot_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn every_snapshot_counter_reconciles_with_the_scrape() {
        let bus = TelemetryBus::new();
        let snap = sample_snapshot();
        bus.publish_snapshot(&snap);
        let doc = prom::parse(&bus.render_metrics()).unwrap();
        for block in &snap.blocks {
            for (k, v) in block.iter() {
                let got = doc
                    .value("hulkv_stats", &[("block", block.name()), ("counter", k)])
                    .unwrap_or(f64::NAN);
                assert_eq!(got, v as f64, "{}.{k}", block.name());
            }
        }
    }

    #[test]
    fn phases_accumulate_wall_time() {
        let bus = TelemetryBus::new();
        bus.begin_phase("build");
        bus.begin_phase("run"); // closes "build"
        bus.end_phase(); // closes "run"
        bus.end_phase(); // no-op
        let doc = prom::parse(&bus.render_metrics()).unwrap();
        let build = doc
            .value("hulkv_phase_seconds_total", &[("phase", "build")])
            .unwrap();
        let run = doc
            .value("hulkv_phase_seconds_total", &[("phase", "run")])
            .unwrap();
        assert!(build >= 0.0 && run >= 0.0);
    }

    #[test]
    fn served_endpoints_return_live_content() {
        let bus = TelemetryBus::new();
        bus.publish_snapshot(&sample_snapshot());
        let live = bus.registry().gauge("hulkv_live", "A live series.", &[]);
        let srv = bus.serve("127.0.0.1:0").unwrap();
        let addr = srv.addr();
        live.set(41.5);
        let (st, body) = http::get(addr, "/metrics").unwrap();
        assert_eq!(st, 200);
        let doc = prom::parse(&body).unwrap();
        assert_eq!(doc.value("hulkv_live", &[]), Some(41.5));
        assert_eq!(
            doc.value("hulkv_stats", &[("block", "llc"), ("counter", "hits")]),
            Some(300.0)
        );
        let (st, body) = http::get(addr, "/snapshot").unwrap();
        assert_eq!(st, 200);
        assert!(MetricsSnapshot::parse(&body).is_ok());
        srv.shutdown();
    }

    #[test]
    fn empty_bus_serves_a_parseable_empty_snapshot() {
        let bus = TelemetryBus::new();
        let snap = MetricsSnapshot::parse(&bus.snapshot_json()).unwrap();
        assert!(snap.blocks.is_empty());
        assert!(bus.render_metrics().is_empty());
    }
}
