//! The in-process metrics registry.
//!
//! A [`MetricsRegistry`] is a cloneable (shared) collection of named
//! metric families — counters, gauges and histograms — each holding one
//! series per label set. Registration hands back a cheap atomic handle
//! ([`CounterHandle`], [`GaugeHandle`], [`HistogramHandle`]) that updates
//! lock-free, so the simulator thread records while an HTTP server thread
//! scrapes concurrently.
//!
//! The registry holds the *live* series — ones that change while a run is
//! going, such as phase timers, campaign counters and latency
//! histograms. Simulator counters are not copied here: `/metrics` renders
//! them from the last published [`hulkv_sim::MetricsSnapshot`] (see
//! [`crate::bus`]). Counters are exact `u64` values; gauges and histogram
//! sums are `f64` stored as bits in an `AtomicU64`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a metric family measures (maps onto the Prometheus `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone (within one run) `u64` event count.
    Counter,
    /// Instantaneous `f64` value.
    Gauge,
    /// Cumulative-bucket `f64` distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Is `name` a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Is `name` a legal Prometheus label name (`[a-zA-Z_][a-zA-Z0-9_]*`,
/// and not reserved — `__`-prefixed names belong to Prometheus itself)?
pub fn is_valid_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Adds `v` to an `f64` stored as bits in `cell` (CAS loop).
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Atomic handle onto one counter series.
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the absolute value, for sources that are themselves
    /// cumulative (a Prometheus counter may reset; within one run such a
    /// source only grows).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Atomic handle onto one gauge series (`f64` bits in an `AtomicU64`).
#[derive(Debug, Clone)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds to the gauge (accumulating wall-clock seconds, say).
    pub fn add(&self, v: f64) {
        atomic_f64_add(&self.0, v);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistCore {
    /// Upper bounds of the finite buckets, strictly increasing. The
    /// implicit `+Inf` bucket is the total count.
    bounds: Vec<f64>,
    /// Per-finite-bucket observation counts (NOT cumulative; the
    /// exposition writer accumulates).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// Atomic handle onto one histogram series.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<HistCore>);

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        for (i, b) in self.0.bounds.iter().enumerate() {
            if v <= *b {
                self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.0.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.0.sum_bits, v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

/// `count` log-spaced histogram bounds starting at `start`, each
/// `factor`× the previous — the usual latency-bucket shape.
pub fn exponential_bounds(start: f64, factor: f64, count: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        out.push(b);
        b *= factor;
    }
    out
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistCore>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Histogram bucket bounds shared by every series of the family.
    bounds: Vec<f64>,
    series: BTreeMap<Vec<(String, String)>, Series>,
}

/// One series' point-in-time value, as captured by
/// [`MetricsRegistry::sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter value (exact).
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram: per-finite-bucket counts (same order as the family
    /// bounds), total count, sum.
    Histogram {
        /// Non-cumulative per-bucket observation counts.
        buckets: Vec<u64>,
        /// Total observations (the implicit `+Inf` cumulative bucket).
        count: u64,
        /// Sum of observations.
        sum: f64,
    },
}

/// One sampled series: its label set and value.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSample {
    /// Label `(name, value)` pairs, sorted by name.
    pub labels: Vec<(String, String)>,
    /// The value at sampling time.
    pub value: SampleValue,
}

/// One sampled family: metadata plus every series.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySample {
    /// Family (metric) name.
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Histogram bucket upper bounds (empty for counters/gauges).
    pub bounds: Vec<f64>,
    /// Every series, ordered by label set.
    pub series: Vec<SeriesSample>,
}

/// The shared registry. Cloning shares the underlying families; handles
/// stay valid for the registry's lifetime.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Family>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Result<Series, String> {
        if !is_valid_metric_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        for (k, _) in labels {
            if !is_valid_label_name(k) {
                return Err(format!("invalid label name {k:?} on metric {name}"));
            }
        }
        if kind == MetricKind::Histogram {
            if bounds.is_empty() {
                return Err(format!("histogram {name} needs at least one bucket bound"));
            }
            if bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("histogram {name} bounds must strictly increase"));
            }
        }
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        key.sort();
        if key.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(format!("duplicate label name on metric {name}"));
        }
        let mut fams = self.inner.lock().expect("metrics registry poisoned");
        let fam = fams.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            bounds: bounds.to_vec(),
            series: BTreeMap::new(),
        });
        if fam.kind != kind {
            return Err(format!(
                "metric {name} already registered as a {}",
                fam.kind.as_str()
            ));
        }
        if kind == MetricKind::Histogram && fam.bounds != bounds {
            return Err(format!(
                "metric {name} already registered with other bounds"
            ));
        }
        let series = fam.series.entry(key).or_insert_with(|| match kind {
            MetricKind::Counter => Series::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Gauge => Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
            MetricKind::Histogram => Series::Histogram(Arc::new(HistCore {
                bounds: bounds.to_vec(),
                buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })),
        });
        Ok(match series {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        })
    }

    /// Registers (or re-opens) a labelled counter series.
    ///
    /// # Errors
    ///
    /// Fails on an illegal metric/label name or a kind clash with an
    /// existing family of the same name.
    pub fn try_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<CounterHandle, String> {
        match self.register(name, help, MetricKind::Counter, labels, &[])? {
            Series::Counter(c) => Ok(CounterHandle(c)),
            _ => unreachable!("registered kind is checked above"),
        }
    }

    /// Registers (or re-opens) a labelled gauge series.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MetricsRegistry::try_counter`].
    pub fn try_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Result<GaugeHandle, String> {
        match self.register(name, help, MetricKind::Gauge, labels, &[])? {
            Series::Gauge(g) => Ok(GaugeHandle(g)),
            _ => unreachable!("registered kind is checked above"),
        }
    }

    /// Registers (or re-opens) a labelled histogram series with the given
    /// finite bucket upper bounds (strictly increasing; `+Inf` implicit).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MetricsRegistry::try_counter`], plus empty or
    /// non-increasing bounds and bounds clashing with the family's.
    pub fn try_histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Result<HistogramHandle, String> {
        match self.register(name, help, MetricKind::Histogram, labels, bounds)? {
            Series::Histogram(h) => Ok(HistogramHandle(h)),
            _ => unreachable!("registered kind is checked above"),
        }
    }

    /// [`MetricsRegistry::try_counter`] for static (compile-time legal)
    /// names.
    ///
    /// # Panics
    ///
    /// Panics where `try_counter` would error — a programming mistake,
    /// not a runtime condition.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterHandle {
        self.try_counter(name, help, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MetricsRegistry::try_gauge`] for static names.
    ///
    /// # Panics
    ///
    /// Panics where `try_gauge` would error.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        self.try_gauge(name, help, labels)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MetricsRegistry::try_histogram`] for static names.
    ///
    /// # Panics
    ///
    /// Panics where `try_histogram` would error.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramHandle {
        self.try_histogram(name, help, labels, bounds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Captures every family and series at this instant, ordered by
    /// family name then label set — the input to the exposition writer.
    pub fn sample(&self) -> Vec<FamilySample> {
        let fams = self.inner.lock().expect("metrics registry poisoned");
        fams.iter()
            .map(|(name, fam)| FamilySample {
                name: name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                bounds: fam.bounds.clone(),
                series: fam
                    .series
                    .iter()
                    .map(|(labels, s)| SeriesSample {
                        labels: labels.clone(),
                        value: match s {
                            Series::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                            Series::Gauge(g) => {
                                SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                            }
                            Series::Histogram(h) => SampleValue::Histogram {
                                buckets: h
                                    .buckets
                                    .iter()
                                    .map(|b| b.load(Ordering::Relaxed))
                                    .collect(),
                                count: h.count.load(Ordering::Relaxed),
                                sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                            },
                        },
                    })
                    .collect(),
            })
            .collect()
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("metrics registry poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_exact_and_shared_across_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hulkv_events_total", "events", &[]);
        let b = reg.counter("hulkv_events_total", "events", &[]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        // Exactness beyond f64's 53-bit mantissa.
        let big = (1u64 << 60) + 1;
        a.set(big);
        assert_eq!(b.get(), big);
    }

    #[test]
    fn labels_key_distinct_series_and_sort_canonically() {
        let reg = MetricsRegistry::new();
        let x = reg.counter("m", "h", &[("b", "1"), ("a", "2")]);
        let y = reg.counter("m", "h", &[("a", "2"), ("b", "1")]);
        let z = reg.counter("m", "h", &[("a", "3"), ("b", "1")]);
        x.add(5);
        z.add(7);
        assert_eq!(y.get(), 5, "label order must not split the series");
        let sample = &reg.sample()[0];
        assert_eq!(sample.series.len(), 2);
        assert_eq!(sample.series[0].labels[0], ("a".into(), "2".into()));
    }

    #[test]
    fn kind_and_name_validation() {
        let reg = MetricsRegistry::new();
        assert!(reg.try_counter("2bad", "h", &[]).is_err());
        assert!(reg.try_counter("ok", "h", &[("0bad", "v")]).is_err());
        assert!(reg.try_counter("ok", "h", &[("__reserved", "v")]).is_err());
        assert!(reg
            .try_counter("ok", "h", &[("a", "1"), ("a", "2")])
            .is_err());
        reg.counter("once", "h", &[]);
        assert!(reg.try_gauge("once", "h", &[]).is_err(), "kind clash");
        assert!(reg.try_histogram("hist", "h", &[], &[]).is_err());
        assert!(reg.try_histogram("hist", "h", &[], &[2.0, 1.0]).is_err());
    }

    #[test]
    fn gauges_hold_floats_and_accumulate() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("hulkv_mips", "live mips", &[]);
        g.set(41.5);
        g.add(0.25);
        assert!((g.get() - 41.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", &[], &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 5056.2).abs() < 1e-9);
        match &reg.sample()[0].series[0].value {
            SampleValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                assert_eq!(buckets, &vec![2, 1, 1], "+Inf overflow only in count");
                assert_eq!(*count, 5);
                assert!((sum - 5056.2).abs() < 1e-9);
            }
            other => panic!("not a histogram sample: {other:?}"),
        }
    }

    #[test]
    fn exponential_bounds_grow_by_factor() {
        let b = exponential_bounds(1e-6, 10.0, 4);
        assert_eq!(b.len(), 4);
        assert!((b[3] - 1e-3).abs() < 1e-12);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }
}
