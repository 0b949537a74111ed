//! In-memory spans recorded by the benchmark around its calls into the
//! simulator's public API. Spans are written out only when the run ends.

use hulkv_sim::Json;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: String,
    pass: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder; a disabled recorder costs one branch per call.
pub struct Spans {
    on: bool,
    t0: Instant,
    pass: u32,
    recs: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            pass: 0,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one and returns the
    /// nesting depth to close back to. Spans opened while recording is on
    /// share the current pass number as their identifier.
    pub fn open(&mut self, name: &str) -> usize {
        let depth = self.stack.len();
        if !self.on {
            return depth;
        }
        if self.stack.is_empty() {
            self.pass += 1;
        }
        let start_ns = self.now_ns();
        self.recs.push(Span {
            name: name.to_owned(),
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.recs.len() - 1);
        depth
    }

    /// Closes every span opened since [`Spans::open`] returned `depth`
    /// (more than one only when a panic skipped their own closes).
    pub fn close_to(&mut self, depth: usize) {
        let end = self.now_ns();
        while self.stack.len() > depth {
            let i = self.stack.pop().expect("stack is deeper than depth");
            self.recs[i].end_ns = end;
        }
    }

    /// Records `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let depth = self.open(name);
        let out = f();
        self.close_to(depth);
        out
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.recs.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.recs {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<String, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.recs.iter().zip(self.self_ns()) {
            *by.entry(s.name.clone()).or_insert(0) += own;
        }
        by
    }

    /// Every span plus the per-name self-time totals.
    pub fn to_json(&self) -> Json {
        let own = self.self_ns();
        let spans: Json = self
            .recs
            .iter()
            .zip(&own)
            .map(|(s, own)| {
                Json::obj([
                    ("name", Json::from(s.name.as_str())),
                    ("pass", Json::from(u64::from(s.pass))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                    ),
                    ("start_us", Json::from(s.start_ns as f64 / 1e3)),
                    ("dur_us", Json::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("self_us", Json::from(*own as f64 / 1e3)),
                ])
            })
            .collect();
        let totals = Json::Obj(
            self.self_by_name()
                .into_iter()
                .map(|(k, ns)| (k, Json::from(ns as f64 / 1e3)))
                .collect(),
        );
        Json::obj([("spans", spans), ("self_us_by_name", totals)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut s = Spans::new(true);
        let depth = s.open("pass");
        s.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close_to(depth);
        let by = s.self_by_name();
        assert!(by["child"] >= 2_000_000);
        let total: u64 = s.recs[0].end_ns - s.recs[0].start_ns;
        assert_eq!(by["pass"] + by["child"], total);
        assert_eq!(s.recs[1].parent, Some(0));

        let mut off = Spans::new(false);
        off.time("x", || ());
        assert!(off.recs.is_empty());
    }
}
