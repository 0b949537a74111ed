//! The sink flags every bin shares, and their wiring.
//!
//! [`ObsArgs::parse`] takes the flags of the sinks a bin accepts out of
//! its arguments, in both the `--flag v` and `--flag=v` spellings:
//!
//! | flag | sink |
//! |---|---|
//! | `--metrics-out PATH` | the run's final [`MetricsSnapshot`] as JSON |
//! | `--trace-out PATH` | a Chrome `trace_event` file (Perfetto) |
//! | `--timeline-out PATH`, `--timeline-period CYCLES` | windowed block counters, CSV or JSONL |
//! | `--serve-metrics ADDR` | the live [`TelemetryBus`] endpoint |
//!
//! [`ObsArgs::start`] starts and announces the server and builds the
//! tracer; [`ObsSession::finish`] publishes the final snapshot, stops
//! the server and writes the metrics and trace files.

use crate::bus::TelemetryBus;
use crate::http::HttpServer;
use hulkv_sim::{category, Json, MetricsSnapshot, SharedTracer, Tracer};
use std::num::NonZeroU64;

/// A sink whose flags a bin accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// `--metrics-out PATH`.
    Metrics,
    /// `--trace-out PATH`.
    Trace,
    /// `--timeline-out PATH` and `--timeline-period CYCLES`.
    Timeline,
    /// `--serve-metrics ADDR`.
    Serve,
}

/// The sink flags a bin was given.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsArgs {
    /// Where to write the final snapshot's JSON.
    pub metrics_out: Option<String>,
    /// Where to write the Chrome trace.
    pub trace_out: Option<String>,
    /// Where to write the timeline: CSV when the path ends in `.csv`,
    /// JSONL otherwise.
    pub timeline_out: Option<String>,
    /// The timeline's sampling period in cycles.
    pub timeline_period: Option<NonZeroU64>,
    /// The address to serve `/metrics` and `/snapshot` on (port `0`
    /// picks a free one).
    pub serve_metrics: Option<String>,
}

impl ObsArgs {
    /// Takes the flags of the `accept`ed sinks out of `args`. Returns
    /// them with every other argument, in order, for the bin's own
    /// parser; a sink flag outside `accept` is left there too.
    ///
    /// # Errors
    ///
    /// A flag without a value (or with an empty one, or another flag in
    /// its place), and a `--timeline-period` that is not a positive
    /// integer.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        accept: &[Sink],
    ) -> Result<(ObsArgs, Vec<String>), String> {
        let mut out = ObsArgs::default();
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v.to_owned())),
                None => (arg.as_str(), None),
            };
            // `None`: the value is `--timeline-period`'s number.
            let (sink, slot) = match flag {
                "--metrics-out" => (Sink::Metrics, Some(&mut out.metrics_out)),
                "--trace-out" => (Sink::Trace, Some(&mut out.trace_out)),
                "--timeline-out" => (Sink::Timeline, Some(&mut out.timeline_out)),
                "--timeline-period" => (Sink::Timeline, None),
                "--serve-metrics" => (Sink::Serve, Some(&mut out.serve_metrics)),
                _ => {
                    rest.push(arg);
                    continue;
                }
            };
            if !accept.contains(&sink) {
                rest.push(arg);
                continue;
            }
            let value = inline
                .or_else(|| args.next())
                .filter(|v| !v.is_empty() && !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))?;
            match slot {
                Some(slot) => *slot = Some(value),
                None => {
                    out.timeline_period = Some(value.parse().map_err(|_| {
                        format!("{flag} needs a positive number of cycles, got {value:?}")
                    })?);
                }
            }
        }
        Ok((out, rest))
    }

    /// Starts the sinks: a [`TelemetryBus`], served on `--serve-metrics`
    /// and announced as `serving metrics on ADDR`, and for `--trace-out`
    /// a [`tracer`].
    ///
    /// # Errors
    ///
    /// Fails if the server address cannot be bound.
    pub fn start(self) -> Result<ObsSession, String> {
        let bus = TelemetryBus::new();
        let server = match &self.serve_metrics {
            Some(addr) => {
                let s = bus
                    .serve(addr)
                    .map_err(|e| format!("--serve-metrics: {e}"))?;
                println!("serving metrics on {}", s.addr());
                Some(s)
            }
            None => None,
        };
        let tracer = self.trace_out.as_ref().map(|_| tracer());
        Ok(ObsSession {
            args: self,
            bus,
            tracer,
            server,
        })
    }
}

/// A tracer with room for 2^18 events and every category on.
pub fn tracer() -> SharedTracer {
    let t = Tracer::shared(1 << 18);
    t.borrow_mut().enable(category::ALL);
    t
}

/// Writes `body` to `path`, naming the path in the error.
///
/// # Errors
///
/// Fails if the file cannot be written.
pub fn write_file(path: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))
}

/// The sinks of one run, started by [`ObsArgs::start`].
pub struct ObsSession {
    args: ObsArgs,
    bus: TelemetryBus,
    tracer: Option<SharedTracer>,
    server: Option<HttpServer>,
}

impl ObsSession {
    /// The bus the server serves; bins register their live series on
    /// its registry.
    pub fn bus(&self) -> &TelemetryBus {
        &self.bus
    }

    /// The tracer `--trace-out` records into, when it was given.
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    /// Publishes `snap`, the run's final counters, and stops the server;
    /// then writes `snap` to `--metrics-out` and the tracer's Chrome
    /// trace, with the `counters` events appended, to `--trace-out`.
    ///
    /// # Errors
    ///
    /// Fails if a file cannot be written.
    pub fn finish(self, snap: &MetricsSnapshot, counters: &[Json]) -> Result<(), String> {
        self.bus.publish_snapshot(snap);
        if let Some(s) = self.server {
            s.shutdown();
        }
        if let Some(path) = &self.args.metrics_out {
            write_file(path, format!("{}\n", snap.to_json()))?;
            println!("metrics written to {path}");
        }
        if let (Some(path), Some(t)) = (&self.args.trace_out, &self.tracer) {
            let t = t.borrow();
            write_file(path, format!("{}\n", t.chrome_trace_with(counters)))?;
            println!(
                "trace written to {path} ({} events, {} dropped) — load it in Perfetto",
                t.len(),
                t.dropped()
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[Sink] = &[Sink::Metrics, Sink::Trace, Sink::Timeline, Sink::Serve];

    fn parse(args: &[&str], accept: &[Sink]) -> Result<(ObsArgs, Vec<String>), String> {
        ObsArgs::parse(args.iter().map(|a| a.to_string()), accept)
    }

    #[test]
    fn both_spellings_set_every_sink() {
        let (args, rest) = parse(
            &[
                "--metrics-out",
                "m.json",
                "--trace-out=t.json",
                "--timeline-out=tl.csv",
                "--timeline-period",
                "500",
                "--serve-metrics=127.0.0.1:0",
            ],
            ALL,
        )
        .unwrap();
        assert!(rest.is_empty());
        assert_eq!(
            args,
            ObsArgs {
                metrics_out: Some("m.json".into()),
                trace_out: Some("t.json".into()),
                timeline_out: Some("tl.csv".into()),
                timeline_period: NonZeroU64::new(500),
                serve_metrics: Some("127.0.0.1:0".into()),
            }
        );
    }

    #[test]
    fn missing_value_is_an_error() {
        for args in [
            &["--metrics-out"][..],
            &["--metrics-out="],
            &["--trace-out", "--metrics-out", "m.json"],
            &["--serve-metrics"],
        ] {
            let err = parse(args, ALL).unwrap_err();
            assert!(err.ends_with("needs a value"), "{args:?}: {err}");
        }
    }

    #[test]
    fn timeline_period_must_be_a_positive_integer() {
        for bad in ["abc", "0", "-5", "1e3"] {
            let err = parse(&["--timeline-period", bad], ALL).unwrap_err();
            assert!(err.contains("positive number of cycles"), "{bad}: {err}");
            let err = parse(&[&format!("--timeline-period={bad}")], ALL).unwrap_err();
            assert!(err.contains("positive number of cycles"), "{bad}: {err}");
        }
    }

    #[test]
    fn unknown_flags_are_left_for_the_bin() {
        let (args, rest) = parse(
            &[
                "--seed",
                "7",
                "--bogus=x",
                "--serve-metrics",
                "a",
                "--metrics-out",
                "m",
            ],
            &[Sink::Metrics],
        )
        .unwrap();
        assert_eq!(args.metrics_out.as_deref(), Some("m"));
        assert_eq!(args.serve_metrics, None);
        assert_eq!(rest, ["--seed", "7", "--bogus=x", "--serve-metrics", "a"]);
    }

    #[test]
    fn unwritable_paths_are_errors_naming_the_path() {
        let session = ObsArgs {
            metrics_out: Some("/nonexistent-dir/m.json".into()),
            ..ObsArgs::default()
        }
        .start()
        .unwrap();
        let err = session.finish(&MetricsSnapshot::new(), &[]).unwrap_err();
        assert!(
            err.starts_with("writing /nonexistent-dir/m.json: "),
            "{err}"
        );
    }
}
