//! Prometheus text exposition: writer and scrape parser.
//!
//! The writer renders sampled metric families into the
//! [text-based exposition format] (version 0.0.4): `# HELP` / `# TYPE`
//! metadata, one line per series, label values escaped, histograms as
//! cumulative `_bucket{le=...}` series plus `_sum` / `_count`. Counter
//! values are written from `u64` directly, so a scrape reconciles
//! *exactly* against the `MetricsSnapshot` the bus renders it from.
//!
//! The parser reads the same format back — the oracle of the
//! scrape-then-parse tests; it is not a general Prometheus client.
//!
//! [text-based exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::registry::{FamilySample, SampleValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders an `f64` the way Prometheus expects: shortest round-trip
/// decimal, with `+Inf` / `-Inf` / `NaN` spelled out.
pub fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text: `\` → `\\`, newline → `\n`.
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
}

/// Renders sampled families, in the order given, as one exposition
/// document.
pub fn render(families: &[FamilySample]) -> String {
    let mut out = String::new();
    for fam in families {
        let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
        let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
        for series in &fam.series {
            match &series.value {
                SampleValue::Counter(v) => {
                    out.push_str(&fam.name);
                    render_labels(&mut out, &series.labels);
                    // u64 rendered directly: no f64 rounding of counters.
                    let _ = writeln!(out, " {v}");
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&fam.name);
                    render_labels(&mut out, &series.labels);
                    let _ = writeln!(out, " {}", fmt_value(*v));
                }
                SampleValue::Histogram {
                    buckets,
                    count,
                    sum,
                } => {
                    let mut cum = 0u64;
                    for (bound, n) in fam.bounds.iter().zip(buckets) {
                        cum += n;
                        let mut labels = series.labels.clone();
                        labels.push(("le".into(), fmt_value(*bound)));
                        let _ = write!(out, "{}_bucket", fam.name);
                        render_labels(&mut out, &labels);
                        let _ = writeln!(out, " {cum}");
                    }
                    let mut labels = series.labels.clone();
                    labels.push(("le".into(), "+Inf".into()));
                    let _ = write!(out, "{}_bucket", fam.name);
                    render_labels(&mut out, &labels);
                    let _ = writeln!(out, " {count}");
                    let _ = write!(out, "{}_sum", fam.name);
                    render_labels(&mut out, &series.labels);
                    let _ = writeln!(out, " {}", fmt_value(*sum));
                    let _ = write!(out, "{}_count", fam.name);
                    render_labels(&mut out, &series.labels);
                    let _ = writeln!(out, " {count}");
                }
            }
        }
    }
    out
}

/// One parsed sample line: metric name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapedSample {
    /// Metric name as written (histogram series keep their `_bucket`
    /// etc. suffixes).
    pub name: String,
    /// Label `(name, value)` pairs, sorted by name.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// `# HELP` text per family.
    pub helps: BTreeMap<String, String>,
    /// `# TYPE` keyword per family.
    pub types: BTreeMap<String, String>,
    /// Every sample line, in document order.
    pub samples: Vec<ScrapedSample>,
}

impl Exposition {
    /// The value of the series `name` with exactly the given labels.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        want.sort();
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == want)
            .map(|s| s.value)
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|e| format!("bad sample value {other:?}: {e}")),
    }
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let chars: Vec<char> = body.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // label name
        let start = i;
        while i < chars.len() && chars[i] != '=' {
            i += 1;
        }
        if i == chars.len() {
            return Err(format!("label without '=' in {body:?}"));
        }
        let name: String = chars[start..i].iter().collect();
        let name = name.trim().to_owned();
        i += 1; // '='
        if i >= chars.len() || chars[i] != '"' {
            return Err(format!("label value must be quoted in {body:?}"));
        }
        i += 1; // opening quote
        let mut value = String::new();
        loop {
            if i >= chars.len() {
                return Err(format!("unterminated label value in {body:?}"));
            }
            match chars[i] {
                '\\' => {
                    i += 1;
                    match chars.get(i) {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => return Err(format!("bad escape {other:?} in {body:?}")),
                    }
                    i += 1;
                }
                '"' => {
                    i += 1;
                    break;
                }
                c => {
                    value.push(c);
                    i += 1;
                }
            }
        }
        labels.push((name, value));
        if i < chars.len() {
            if chars[i] != ',' {
                return Err(format!("expected ',' between labels in {body:?}"));
            }
            i += 1;
        }
    }
    labels.sort();
    Ok(labels)
}

/// Parses an exposition document back into structured form.
///
/// # Errors
///
/// Fails on malformed sample lines, unquoted or unterminated label
/// values, bad escapes, or unparseable values.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut doc = Exposition::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, help)) = rest.split_once(' ') {
                doc.helps.insert(name.to_owned(), help.to_owned());
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad TYPE line {line:?}"))?;
            doc.types.insert(name.to_owned(), kind.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // name[{labels}] value
        let (name_labels, value) = match line.find('}') {
            Some(close) => {
                let (head, tail) = line.split_at(close + 1);
                (head, tail.trim())
            }
            None => line
                .split_once(' ')
                .map(|(a, b)| (a, b.trim()))
                .ok_or_else(|| format!("sample line without value: {line:?}"))?,
        };
        let (name, labels) = match name_labels.find('{') {
            Some(open) => {
                let body = &name_labels[open + 1..name_labels.len() - 1];
                (&name_labels[..open], parse_labels(body)?)
            }
            None => (name_labels, Vec::new()),
        };
        doc.samples.push(ScrapedSample {
            name: name.trim().to_owned(),
            labels,
            value: parse_value(value)?,
        });
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{exponential_bounds, MetricsRegistry};

    fn lines_of<'t>(text: &'t str, name: &str) -> Vec<&'t str> {
        text.lines().filter(|l| l.contains(name)).collect()
    }

    #[test]
    fn writer_emits_help_type_and_legal_names() {
        let reg = MetricsRegistry::new();
        reg.counter("hulkv_events_total", "All events.", &[]).add(7);
        reg.gauge("hulkv_mips", "Live MIPS.", &[]).set(41.25);
        let text = render(&reg.sample());
        assert!(text.contains("# HELP hulkv_events_total All events.\n"));
        assert!(text.contains("# TYPE hulkv_events_total counter\n"));
        assert!(text.contains("\nhulkv_events_total 7\n") || text.starts_with("# HELP"));
        assert!(text.contains("# TYPE hulkv_mips gauge\n"));
        assert!(text.contains("hulkv_mips 41.25\n"));
        // Every non-comment line's metric name is legal.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().expect("nonempty line");
            assert!(
                crate::registry::is_valid_metric_name(name),
                "illegal name {name:?}"
            );
        }
    }

    #[test]
    fn float_formatting_covers_specials_and_round_trips() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(2.5), "2.5");
        assert_eq!(fmt_value(-0.125), "-0.125");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        // Shortest-round-trip: parsing back is exact.
        for v in [0.1, 1.0 / 3.0, 123456.789, 1e-12, 9.007199254740993e15] {
            assert_eq!(parse_value(&fmt_value(v)).unwrap(), v);
        }
        assert!(parse_value(&fmt_value(f64::NAN)).unwrap().is_nan());
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let hostile = "a\\b\"c\nd";
        assert_eq!(escape_label_value(hostile), "a\\\\b\\\"c\\nd");
        let reg = MetricsRegistry::new();
        reg.counter("m", "h", &[("path", hostile)]).add(1);
        let text = render(&reg.sample());
        let doc = parse(&text).unwrap();
        assert_eq!(doc.value("m", &[("path", hostile)]), Some(1.0));
    }

    #[test]
    fn histograms_render_cumulative_buckets_sum_and_count() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram(
            "hulkv_save_seconds",
            "Snapshot save latency.",
            &[("tool", "replay")],
            &[0.001, 0.01, 0.1],
        );
        for v in [0.0005, 0.002, 0.05, 7.0] {
            h.observe(v);
        }
        let text = render(&reg.sample());
        let buckets = lines_of(&text, "hulkv_save_seconds_bucket");
        assert_eq!(buckets.len(), 4, "3 finite bounds + +Inf: {buckets:?}");
        assert!(buckets[0].contains("le=\"0.001\"") && buckets[0].ends_with(" 1"));
        assert!(buckets[1].contains("le=\"0.01\"") && buckets[1].ends_with(" 2"));
        assert!(buckets[2].contains("le=\"0.1\"") && buckets[2].ends_with(" 3"));
        assert!(buckets[3].contains("le=\"+Inf\"") && buckets[3].ends_with(" 4"));
        assert!(text.contains("hulkv_save_seconds_count{tool=\"replay\"} 4"));
        let doc = parse(&text).unwrap();
        assert_eq!(doc.types["hulkv_save_seconds"], "histogram");
        assert_eq!(
            doc.value(
                "hulkv_save_seconds_bucket",
                &[("tool", "replay"), ("le", "+Inf")]
            ),
            Some(4.0)
        );
        let sum = doc
            .value("hulkv_save_seconds_sum", &[("tool", "replay")])
            .unwrap();
        assert!((sum - 7.0525).abs() < 1e-9);
    }

    #[test]
    fn scrape_then_parse_round_trips_registry_contents() {
        // The satellite test: everything the registry holds survives a
        // render → parse cycle with exact counter values.
        let reg = MetricsRegistry::new();
        let big = (1u64 << 60) + 7;
        reg.counter(
            "hulkv_stats",
            "Mirrored counters.",
            &[("block", "cva6"), ("counter", "instret")],
        )
        .set(big);
        reg.counter(
            "hulkv_stats",
            "Mirrored counters.",
            &[("block", "llc"), ("counter", "hits")],
        )
        .set(123);
        reg.gauge("hulkv_power_mw", "Block power.", &[("block", "pmca")])
            .set(88.125);
        reg.gauge("hulkv_ratio", "A ratio.", &[]).set(1.0 / 3.0);
        let h = reg.histogram("lat", "Latency.", &[], &exponential_bounds(1e-6, 10.0, 6));
        h.observe(3e-4);
        let text = render(&reg.sample());
        let doc = parse(&text).unwrap();
        // Exact u64 counter round-trip: the rendered text carries the
        // full value even though the parse returns f64.
        assert!(text.contains(&format!(" {big}\n")));
        assert_eq!(
            doc.value("hulkv_stats", &[("block", "llc"), ("counter", "hits")]),
            Some(123.0)
        );
        assert_eq!(
            doc.value("hulkv_power_mw", &[("block", "pmca")]),
            Some(88.125)
        );
        assert_eq!(doc.value("hulkv_ratio", &[]), Some(1.0 / 3.0));
        assert_eq!(doc.value("lat_count", &[]), Some(1.0));
        // Every family has HELP and TYPE.
        for fam in ["hulkv_stats", "hulkv_power_mw", "hulkv_ratio", "lat"] {
            assert!(doc.helps.contains_key(fam), "missing HELP for {fam}");
            assert!(doc.types.contains_key(fam), "missing TYPE for {fam}");
        }
        // Sample count matches what the registry says it holds.
        let n_series: usize = reg.sample().iter().map(|f| f.series.len()).sum();
        // histogram renders 6 finite + Inf + sum + count = 9 lines for its
        // single series; counters/gauges one line each.
        assert_eq!(doc.samples.len(), (n_series - 1) + 9);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("m{a=1} 2").is_err(), "unquoted label value");
        assert!(parse("m{a=\"1} 2").is_err(), "unterminated value");
        assert!(parse("m{a=\"1\"} x").is_err(), "bad value");
        assert!(parse("m{a=\"\\q\"} 1").is_err(), "bad escape");
        assert!(parse("just_a_name").is_err(), "no value");
    }
}
