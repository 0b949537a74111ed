//! Activity counters and statistics registries.

use std::collections::BTreeMap;
use std::fmt;

/// A single monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use hulkv_sim::Counter;
///
/// let mut hits = Counter::new();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A stable index into a [`Stats`] registry, returned by [`Stats::handle`].
///
/// Blocks on per-access hot paths (cache hits, bus transfers) register
/// their counters once at construction and then update them by index with
/// [`Stats::bump`], which is a plain array increment — no key lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsHandle(usize);

/// A named collection of counters, used by every model block to report
/// activity (cache hits/misses, DRAM bytes, retired instructions, stalls…).
///
/// The power model consumes these counts to compute per-block utilization,
/// mirroring how the paper extracts switching activity from simulation
/// traces for PrimeTime.
///
/// Counters live in a small insertion-ordered vector: by-name access scans
/// linearly (registries hold a dozen keys at most), and hot paths skip the
/// scan entirely via [`Stats::handle`] / [`Stats::bump`]. Iteration and
/// display stay in key order regardless of insertion order.
///
/// # Example
///
/// ```
/// use hulkv_sim::Stats;
///
/// let mut s = Stats::new("llc");
/// s.add("hit", 10);
/// s.add("miss", 2);
/// assert_eq!(s.get("hit"), 10);
/// assert!((s.ratio("hit", "miss") - 10.0 / 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    name: String,
    counters: Vec<(String, u64)>,
}

impl Stats {
    /// Creates an empty registry with a block name.
    pub fn new(name: impl Into<String>) -> Self {
        Stats {
            name: name.into(),
            counters: Vec::new(),
        }
    }

    /// The block name.
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn idx(&self, key: &str) -> Option<usize> {
        self.counters.iter().position(|(k, _)| k == key)
    }

    /// Increments counter `key` by one.
    pub fn inc(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Increments counter `key` by `n`.
    pub fn add(&mut self, key: &str, n: u64) {
        match self.idx(key) {
            Some(i) => self.counters[i].1 += n,
            None => self.counters.push((key.to_owned(), n)),
        }
    }

    /// Registers `key` (at zero if new) and returns a stable handle for
    /// [`Stats::bump`]. Handles stay valid for the registry's lifetime;
    /// [`Stats::reset`] zeroes values but keeps keys and handles.
    pub fn handle(&mut self, key: &str) -> StatsHandle {
        StatsHandle(match self.idx(key) {
            Some(i) => i,
            None => {
                self.counters.push((key.to_owned(), 0));
                self.counters.len() - 1
            }
        })
    }

    /// Increments the counter behind `h` by `n` — a plain array increment,
    /// for per-access hot paths.
    #[inline]
    pub fn bump(&mut self, h: StatsHandle, n: u64) {
        self.counters[h.0].1 += n;
    }

    /// Adds `n` to `key` through the handle cached in `slot`, registering
    /// it on first use. A counter that is never touched stays absent, as
    /// with [`Stats::add`], so hot paths get [`Stats::bump`]'s cost without
    /// a zero-valued key appearing in snapshots. `slot` must only ever be
    /// used with this registry and this key.
    ///
    /// # Example
    ///
    /// ```
    /// use hulkv_sim::Stats;
    ///
    /// let mut s = Stats::new("bus");
    /// let mut reads = None;
    /// assert_eq!(s.iter().count(), 0); // nothing registered up front
    /// s.add_cached(&mut reads, "reads", 1);
    /// s.add_cached(&mut reads, "reads", 2);
    /// assert_eq!(s.get("reads"), 3);
    /// ```
    #[inline]
    pub fn add_cached(&mut self, slot: &mut Option<StatsHandle>, key: &str, n: u64) {
        let h = match *slot {
            Some(h) => h,
            None => *slot.insert(self.handle(key)),
        };
        debug_assert_eq!(self.counters[h.0].0, key, "handle cached for another key");
        self.bump(h, n);
    }

    /// Reads counter `key` (zero when never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.idx(key).map_or(0, |i| self.counters[i].1)
    }

    /// `a / (a + b)` as a float; zero when both counters are zero.
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let x = self.get(a) as f64;
        let y = self.get(b) as f64;
        if x + y == 0.0 {
            0.0
        } else {
            x / (x + y)
        }
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut pairs: Vec<(&str, u64)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.into_iter()
    }

    /// Sets counter `key` to an absolute value, creating it if needed.
    pub fn set(&mut self, key: &str, value: u64) {
        match self.idx(key) {
            Some(i) => self.counters[i].1 = value,
            None => self.counters.push((key.to_owned(), value)),
        }
    }

    /// Sum of every counter in the registry.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|(_, v)| v).sum()
    }

    /// Merges another registry into this one, summing shared keys.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Resets every counter to zero (keys are retained).
    pub fn reset(&mut self) {
        for (_, v) in &mut self.counters {
            *v = 0;
        }
    }
}

impl PartialEq for Stats {
    /// Key-order comparison: two registries are equal when they expose the
    /// same name and the same `(key, value)` set, regardless of the order
    /// the keys were first touched in.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.iter().eq(other.iter())
    }
}

impl Eq for Stats {}

impl From<&Stats> for BTreeMap<String, u64> {
    fn from(s: &Stats) -> Self {
        s.iter().map(|(k, v)| (k.to_owned(), v)).collect()
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.name)?;
        for (k, v) in self.iter() {
            writeln!(f, "  {k}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(5);
        assert_eq!(c.get(), 6);
        assert_eq!(c.to_string(), "6");
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Stats::new("l1d");
        s.inc("hit");
        s.add("hit", 9);
        s.add("miss", 10);
        assert_eq!(s.get("hit"), 10);
        assert_eq!(s.get("unknown"), 0);
        assert!((s.ratio("hit", "miss") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn handles_bump_without_lookup() {
        let mut s = Stats::new("c");
        let h = s.handle("hits");
        s.bump(h, 2);
        s.add("hits", 1);
        assert_eq!(s.get("hits"), 3);
        // Handles survive reset and stay bound to their key.
        s.reset();
        s.bump(h, 5);
        assert_eq!(s.get("hits"), 5);
        // Re-registering an existing key returns the same slot.
        assert_eq!(s.handle("hits"), h);
    }

    #[test]
    fn cached_handles_register_on_first_use() {
        let mut s = Stats::new("c");
        let mut slot = None;
        s.add_cached(&mut slot, "refills", 0);
        // A zero first use registers the key exactly as `add(key, 0)` does.
        let mut reference = Stats::new("c");
        reference.add("refills", 0);
        assert_eq!(s, reference);
        s.add_cached(&mut slot, "refills", 4);
        assert_eq!(slot, Some(s.handle("refills")));
        // Reset keeps the key, so the cached handle stays bound to it.
        s.reset();
        s.add("other", 1);
        s.add_cached(&mut slot, "refills", 2);
        assert_eq!(s.get("refills"), 2);
        assert_eq!(s.get("other"), 1);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Stats::new("s");
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new("s");
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a, b);
        b.add("z", 0);
        assert_ne!(a, b);
    }

    #[test]
    fn ratio_of_empty_is_zero() {
        let s = Stats::new("x");
        assert_eq!(s.ratio("a", "b"), 0.0);
    }

    #[test]
    fn merge_sums_shared_keys() {
        let mut a = Stats::new("a");
        a.add("x", 1);
        let mut b = Stats::new("b");
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn reset_keeps_keys() {
        let mut s = Stats::new("s");
        s.add("k", 4);
        s.reset();
        assert_eq!(s.get("k"), 0);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn set_overwrites_and_total_sums() {
        let mut s = Stats::new("s");
        s.add("a", 2);
        s.set("a", 10);
        s.set("b", 5);
        assert_eq!(s.get("a"), 10);
        assert_eq!(s.total(), 15);
        let map: BTreeMap<String, u64> = (&s).into();
        assert_eq!(map.len(), 2);
        assert_eq!(map["b"], 5);
    }

    #[test]
    fn display_contains_name_and_counters() {
        let mut s = Stats::new("llc");
        s.add("hit", 2);
        let out = s.to_string();
        assert!(out.contains("[llc]"));
        assert!(out.contains("hit: 2"));
    }
}
