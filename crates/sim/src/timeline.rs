//! Windowed time-series telemetry over block [`Stats`].
//!
//! A [`Timeline`] turns the end-of-run counter registries every block
//! already exposes into a *time series*: the SoC samples all blocks at a
//! configurable cycle period, and each sample closes a window holding the
//! per-counter deltas since the previous one. Downstream enrichment (the
//! power crate) attaches per-window power and energy figures; the exporter
//! then renders the run as CSV, JSONL, or Chrome-trace counter tracks
//! merged into the structured event trace.
//!
//! Sampling is read-only over [`Stats`] — attaching a timeline never
//! changes a single simulated cycle.
//!
//! # Example
//!
//! ```
//! use hulkv_sim::{Stats, Timeline};
//!
//! let mut tl = Timeline::new(1000);
//! let mut core = Stats::new("core");
//! core.add("instret", 800);
//! tl.sample(1000, &[core.clone()]);
//! core.add("instret", 150);
//! tl.sample(2000, &[core]);
//! assert_eq!(tl.windows().len(), 2);
//! assert_eq!(tl.windows()[1].deltas["core.instret"], 150);
//! ```

use crate::json::Json;
use crate::stats::Stats;
use std::collections::BTreeMap;

/// One closed sampling window: counter deltas over `[start_cycle,
/// end_cycle)` plus the power/energy enrichment filled in after the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineWindow {
    /// First cycle covered by the window.
    pub start_cycle: u64,
    /// One past the last cycle covered.
    pub end_cycle: u64,
    /// Counter increments during the window, keyed `block.counter`.
    /// Counters that did not move are omitted.
    pub deltas: BTreeMap<String, u64>,
    /// Per-block power during the window, in milliwatts (enrichment).
    pub power_mw: BTreeMap<String, f64>,
    /// Energy spent in the window, in millijoules (enrichment).
    pub energy_mj: f64,
    /// Derived per-window figures — IPC, utilizations, bandwidth
    /// (enrichment).
    pub figures: BTreeMap<String, f64>,
}

impl TimelineWindow {
    /// Window length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Total power over the window, in milliwatts.
    pub fn total_power_mw(&self) -> f64 {
        self.power_mw.values().sum()
    }

    /// The window as one JSON object — the per-line format of
    /// [`Timeline::to_jsonl`].
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("start_cycle", Json::from(self.start_cycle)),
            ("end_cycle", Json::from(self.end_cycle)),
            ("energy_mj", Json::from(self.energy_mj)),
            (
                "figures",
                Json::Obj(
                    self.figures
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "power_mw",
                Json::Obj(
                    self.power_mw
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "deltas",
                Json::Obj(
                    self.deltas
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The windowed sampler. The owner calls [`Timeline::sample`] with a
/// monotone cycle cursor and the current block registries; the timeline
/// differences them against the previous sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    period: u64,
    window_start: u64,
    totals: BTreeMap<String, u64>,
    windows: Vec<TimelineWindow>,
}

impl Timeline {
    /// Creates a sampler with the given window period in cycles
    /// (clamped to at least 1).
    pub fn new(period: u64) -> Self {
        Timeline {
            period: period.max(1),
            window_start: 0,
            totals: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    /// The configured sampling period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The cycle at which the next periodic sample is due.
    pub fn next_due(&self) -> u64 {
        self.window_start.saturating_add(self.period)
    }

    /// Whether a periodic sample is due at `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_due()
    }

    /// Closes the current window at `cycle`: records the counter deltas of
    /// `blocks` since the previous sample. A sample at (or before) the
    /// window's own start cycle is ignored, so callers may sample on every
    /// boundary event without producing empty windows.
    pub fn sample(&mut self, cycle: u64, blocks: &[Stats]) {
        if cycle <= self.window_start {
            // Still update totals so late-registered counters don't show
            // up as a spurious delta later.
            self.absorb(blocks);
            return;
        }
        let mut deltas = BTreeMap::new();
        for b in blocks {
            for (k, v) in b.iter() {
                let key = format!("{}.{}", b.name(), k);
                let prev = self.totals.get(&key).copied().unwrap_or(0);
                let delta = v.saturating_sub(prev);
                if delta > 0 {
                    deltas.insert(key.clone(), delta);
                }
                self.totals.insert(key, v);
            }
        }
        self.windows.push(TimelineWindow {
            start_cycle: self.window_start,
            end_cycle: cycle,
            deltas,
            power_mw: BTreeMap::new(),
            energy_mj: 0.0,
            figures: BTreeMap::new(),
        });
        self.window_start = cycle;
    }

    fn absorb(&mut self, blocks: &[Stats]) {
        for b in blocks {
            for (k, v) in b.iter() {
                self.totals.insert(format!("{}.{}", b.name(), k), v);
            }
        }
    }

    /// The closed windows, oldest first.
    pub fn windows(&self) -> &[TimelineWindow] {
        &self.windows
    }

    /// Mutable window access, for power/energy enrichment.
    pub fn windows_mut(&mut self) -> &mut [TimelineWindow] {
        &mut self.windows
    }

    /// Number of closed windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True when no window has been closed yet.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Every delta key appearing in any window, sorted (the CSV columns).
    pub fn delta_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .windows
            .iter()
            .flat_map(|w| w.deltas.keys().cloned())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Renders the timeline as CSV: one row per window, with fixed columns
    /// `start_cycle,end_cycle,energy_mj`, then each enrichment figure and
    /// power series, then each counter delta.
    pub fn to_csv(&self) -> String {
        let delta_keys = self.delta_keys();
        let mut fig_keys: Vec<String> = self
            .windows
            .iter()
            .flat_map(|w| w.figures.keys().cloned())
            .collect();
        fig_keys.sort();
        fig_keys.dedup();
        let mut power_keys: Vec<String> = self
            .windows
            .iter()
            .flat_map(|w| w.power_mw.keys().cloned())
            .collect();
        power_keys.sort();
        power_keys.dedup();

        let mut out = String::from("start_cycle,end_cycle,energy_mj");
        for k in &fig_keys {
            out.push(',');
            out.push_str(k);
        }
        for k in &power_keys {
            out.push_str(",power_mw.");
            out.push_str(k);
        }
        for k in &delta_keys {
            out.push(',');
            out.push_str(k);
        }
        out.push('\n');
        for w in &self.windows {
            out.push_str(&format!(
                "{},{},{}",
                w.start_cycle,
                w.end_cycle,
                Json::from(w.energy_mj)
            ));
            for k in &fig_keys {
                out.push(',');
                out.push_str(&Json::from(w.figures.get(k).copied().unwrap_or(0.0)).to_string());
            }
            for k in &power_keys {
                out.push(',');
                out.push_str(&Json::from(w.power_mw.get(k).copied().unwrap_or(0.0)).to_string());
            }
            for k in &delta_keys {
                out.push(',');
                out.push_str(&w.deltas.get(k).copied().unwrap_or(0).to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Renders the timeline as JSONL: one JSON object per window (each
    /// line is [`TimelineWindow::to_json`]).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&w.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the enriched windows as Chrome `trace_event` counter events
    /// (`"ph":"C"`) on the telemetry track, ready to be merged into a
    /// structured trace via [`crate::Tracer::chrome_trace_with`]. Emits one
    /// stacked `power_mw` counter (one series per block) and one counter
    /// per derived figure, each sampled at its window's start cycle.
    pub fn chrome_counter_events(&self) -> Vec<Json> {
        use crate::trace::Track;
        let mut events = Vec::new();
        if self.windows.iter().all(|w| w.figures.is_empty())
            && self.windows.iter().all(|w| w.power_mw.is_empty())
        {
            return events;
        }
        events.push(Json::obj([
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(Track::Telemetry.tid())),
            ("name", Json::from("thread_name")),
            (
                "args",
                Json::obj([("name", Json::from(Track::Telemetry.name()))]),
            ),
        ]));
        let counter = |name: &str, ts: u64, args: Json| {
            Json::obj([
                ("ph", Json::from("C")),
                ("name", Json::from(name)),
                ("cat", Json::from("telemetry")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(Track::Telemetry.tid())),
                ("ts", Json::from(ts)),
                ("args", args),
            ])
        };
        for w in &self.windows {
            if !w.power_mw.is_empty() {
                events.push(counter(
                    "power_mw",
                    w.start_cycle,
                    Json::Obj(
                        w.power_mw
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::from(*v)))
                            .collect(),
                    ),
                ));
            }
            for (k, v) in &w.figures {
                events.push(counter(
                    k,
                    w.start_cycle,
                    Json::obj([("value", Json::from(*v))]),
                ));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, pairs: &[(&str, u64)]) -> Stats {
        let mut s = Stats::new(name);
        for &(k, v) in pairs {
            s.set(k, v);
        }
        s
    }

    #[test]
    fn windows_hold_deltas_not_totals() {
        let mut tl = Timeline::new(100);
        tl.sample(100, &[stats("core", &[("instret", 90)])]);
        tl.sample(200, &[stats("core", &[("instret", 130)])]);
        tl.sample(300, &[stats("core", &[("instret", 130)])]);
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.windows()[0].deltas["core.instret"], 90);
        assert_eq!(tl.windows()[1].deltas["core.instret"], 40);
        assert!(
            tl.windows()[2].deltas.is_empty(),
            "unchanged counter omitted"
        );
        assert_eq!(tl.windows()[2].cycles(), 100);
    }

    #[test]
    fn due_tracks_the_period() {
        let mut tl = Timeline::new(1000);
        assert!(!tl.due(999));
        assert!(tl.due(1000));
        tl.sample(1500, &[]);
        assert_eq!(tl.next_due(), 2500);
    }

    #[test]
    fn repeated_boundary_samples_do_not_create_empty_windows() {
        let mut tl = Timeline::new(100);
        tl.sample(100, &[stats("b", &[("x", 1)])]);
        tl.sample(100, &[stats("b", &[("x", 2)])]);
        assert_eq!(tl.len(), 1);
        // The ignored sample still advanced the totals: no double count.
        tl.sample(200, &[stats("b", &[("x", 3)])]);
        assert_eq!(tl.windows()[1].deltas["b.x"], 1);
    }

    #[test]
    fn csv_has_a_column_per_key_and_a_row_per_window() {
        let mut tl = Timeline::new(10);
        tl.sample(10, &[stats("a", &[("x", 5)])]);
        tl.sample(20, &[stats("a", &[("x", 5), ("y", 7)])]);
        tl.windows_mut()[1].energy_mj = 0.5;
        tl.windows_mut()[1].power_mw.insert("cva6".into(), 40.0);
        tl.windows_mut()[1].figures.insert("ipc".into(), 0.9);
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "start_cycle,end_cycle,energy_mj,ipc,power_mw.cva6,a.x,a.y"
        );
        assert!(lines[1].starts_with("0,10,"));
        assert!(lines[2].starts_with("10,20,0.5,0.9,40,0,7"), "{}", lines[2]);
    }

    #[test]
    fn jsonl_parses_and_is_monotone() {
        let mut tl = Timeline::new(50);
        tl.sample(50, &[stats("a", &[("x", 1)])]);
        tl.sample(120, &[stats("a", &[("x", 4)])]);
        let mut last_end = 0;
        for line in tl.to_jsonl().lines() {
            let v = Json::parse(line).unwrap();
            let start = v.get("start_cycle").and_then(Json::as_f64).unwrap() as u64;
            let end = v.get("end_cycle").and_then(Json::as_f64).unwrap() as u64;
            assert_eq!(start, last_end);
            assert!(end > start);
            last_end = end;
        }
        assert_eq!(last_end, 120);
    }

    #[test]
    fn chrome_counters_only_appear_when_enriched() {
        let mut tl = Timeline::new(10);
        tl.sample(10, &[stats("a", &[("x", 1)])]);
        assert!(tl.chrome_counter_events().is_empty(), "no enrichment yet");
        tl.windows_mut()[0].power_mw.insert("pmca".into(), 80.0);
        let events = tl.chrome_counter_events();
        // Metadata plus one power counter.
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("pmca"))
                .and_then(Json::as_f64),
            Some(80.0)
        );
    }
}
