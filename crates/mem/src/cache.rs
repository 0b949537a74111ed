//! A generic set-associative cache with LRU replacement.

use crate::device::check_range;
use crate::{MemoryDevice, SharedMem};
use hulkv_sim::{Cycles, SharedTracer, SimError, Stats, StatsHandle, TraceEvent, Track};

/// Write-handling policy of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Dirty lines are written back on eviction (used by the LLC).
    WriteBack,
    /// Every write is propagated to the backing store (used by the CVA6 L1
    /// data cache, which is write-through "to enable simple coherency with
    /// other masters").
    WriteThrough,
}

/// Static configuration of a [`Cache`].
///
/// # Example
///
/// ```
/// use hulkv_mem::{CacheConfig, WritePolicy};
///
/// // The CVA6 32 kB L1 data cache: 8 ways, 64-byte lines.
/// let cfg = CacheConfig {
///     name: "l1d".into(),
///     ways: 8,
///     sets: 64,
///     line_bytes: 64,
///     hit_latency: hulkv_sim::Cycles::new(1),
///     write_policy: WritePolicy::WriteThrough,
///     write_allocate: false,
///     write_buffer: true,
/// };
/// assert_eq!(cfg.size_bytes(), 32 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name, used in statistics.
    pub name: String,
    /// Associativity.
    pub ways: usize,
    /// Number of sets.
    pub sets: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
    /// Latency charged on a hit.
    pub hit_latency: Cycles,
    /// Write-back or write-through behaviour.
    pub write_policy: WritePolicy,
    /// Whether a write miss allocates a line (`true` for write-back caches,
    /// typically `false` for write-through ones).
    pub write_allocate: bool,
    /// Whether a store buffer hides the latency of write-through traffic.
    /// Data still propagates immediately; only the charged latency changes.
    pub write_buffer: bool,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.ways * self.sets * self.line_bytes) as u64
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.ways == 0 || self.sets == 0 || self.line_bytes == 0 {
            return Err(SimError::InvalidConfig(format!(
                "cache {}: ways/sets/line_bytes must be non-zero",
                self.name
            )));
        }
        if !self.line_bytes.is_power_of_two() || !self.sets.is_power_of_two() {
            return Err(SimError::InvalidConfig(format!(
                "cache {}: line_bytes and sets must be powers of two",
                self.name
            )));
        }
        Ok(())
    }
}

/// `flags` bit: the way holds a line.
const VALID: u8 = 1;
/// `flags` bit: the line differs from the backing store (write-back only).
const DIRTY: u8 = 2;

/// A set-associative cache with true data storage, LRU replacement and
/// configurable write policy, in front of a shared backing device.
///
/// The same engine models the CVA6 L1 instruction and data caches and the
/// 128 kB last-level cache; only the [`CacheConfig`] differs. Latencies
/// returned by accesses include backing-store time on misses and (for
/// unbuffered write-through) on writes, all in the cache's own clock domain
/// (backing devices in other domains must be wrapped by an adapter that
/// converts — in HULK-V all blocks on the host AXI share the SoC domain).
///
/// # Example
///
/// ```
/// use hulkv_mem::{shared, Cache, CacheConfig, MemoryDevice, Sram, WritePolicy};
/// use hulkv_sim::Cycles;
///
/// let dram = shared(Sram::new("dram", 4096, Cycles::new(100)));
/// let cfg = CacheConfig {
///     name: "llc".into(),
///     ways: 2,
///     sets: 4,
///     line_bytes: 16,
///     hit_latency: Cycles::new(1),
///     write_policy: WritePolicy::WriteBack,
///     write_allocate: true,
///     write_buffer: false,
/// };
/// let mut c = Cache::new(cfg, dram)?;
/// let mut buf = [0u8; 4];
/// let cold = c.read(0, &mut buf)?; // miss: goes to DRAM
/// let warm = c.read(4, &mut buf)?; // hit: same line
/// assert!(cold > warm);
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line state as struct-of-arrays, indexed by way `idx = set * ways +
    /// way`. A set's tags are contiguous, so a lookup scans one short run
    /// of `u64`s.
    tags: Vec<u64>,
    /// `VALID` / `DIRTY` bits per way.
    flags: Vec<u8>,
    /// Per-way LRU stamp: the `tick` of the way's last touch.
    lru: Vec<u64>,
    /// Every line's bytes in one buffer: way `idx` owns
    /// `data[idx * line_bytes..][..line_bytes]`.
    data: Vec<u8>,
    /// Refill staging line: the backing read lands here and is installed
    /// only once it succeeded, so a failed refill leaves the victim way's
    /// flags, tag, LRU stamp and bytes exactly as they were.
    fill: Vec<u8>,
    backing: SharedMem,
    stats: Stats,
    tick: u64,
    /// Bumped whenever resident contents may change (refill or flush).
    /// Fetch fast paths cache decoded instructions against this value.
    epoch: u64,
    /// `log2(line_bytes)` / `log2(sets)`, so the per-access address split
    /// is two shifts instead of two integer divisions.
    line_shift: u32,
    set_shift: u32,
    /// Pre-registered handles for the per-access counters, so the hot
    /// lookup paths bump an array slot instead of searching by key.
    h_hits: StatsHandle,
    h_misses: StatsHandle,
    h_bytes_read: StatsHandle,
    h_bytes_written: StatsHandle,
    /// Counters that only some caches ever bump (an L1 never writes back,
    /// an LLC never writes through), registered on first use so they stay
    /// absent until then.
    h_refills: Option<StatsHandle>,
    h_writebacks: Option<StatsHandle>,
    h_writethroughs: Option<StatsHandle>,
    h_write_misses_direct: Option<StatsHandle>,
    tracer: Option<SharedTracer>,
    track: Track,
}

impl Cache {
    /// Creates a cache over `backing`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate geometries.
    pub fn new(cfg: CacheConfig, backing: SharedMem) -> Result<Self, SimError> {
        cfg.validate()?;
        let n = cfg.ways * cfg.sets;
        let mut stats = Stats::new(cfg.name.clone());
        let h_hits = stats.handle("hits");
        let h_misses = stats.handle("misses");
        let h_bytes_read = stats.handle("bytes_read");
        let h_bytes_written = stats.handle("bytes_written");
        let line_shift = cfg.line_bytes.trailing_zeros();
        let set_shift = cfg.sets.trailing_zeros();
        Ok(Cache {
            tags: vec![0; n],
            flags: vec![0; n],
            lru: vec![0; n],
            data: vec![0; n * cfg.line_bytes],
            fill: vec![0; cfg.line_bytes],
            cfg,
            backing,
            stats,
            tick: 0,
            epoch: 0,
            line_shift,
            set_shift,
            h_hits,
            h_misses,
            h_bytes_read,
            h_bytes_written,
            h_refills: None,
            h_writebacks: None,
            h_writethroughs: None,
            h_write_misses_direct: None,
            tracer: None,
            track: Track::Llc,
        })
    }

    /// Attaches a structured SoC tracer; hits, misses and evictions are
    /// recorded on `track`.
    pub fn set_tracer(&mut self, tracer: SharedTracer, track: Track) {
        self.tracer = Some(tracer);
        self.track = track;
    }

    #[inline]
    fn trace(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(self.track, event);
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Content-stability epoch: changes whenever a refill or flush may have
    /// altered which bytes a resident address returns. A decoded-instruction
    /// cache entry recorded under one epoch may only be replayed while the
    /// epoch is unchanged (conservative: any refill invalidates).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Revalidates a fetch that previously hit: if the whole `len`-byte
    /// access lies inside one resident line, performs exactly the read-hit
    /// side effects (`hits` counter, hit trace event, LRU touch,
    /// `bytes_read`) and returns `true`. Otherwise performs **no** side
    /// effects and returns `false`, and the caller must issue the real
    /// [`MemoryDevice::read`]. This keeps statistics, traces and LRU state
    /// bit-identical to the slow path for replayed zero-latency fetches.
    #[inline(always)]
    pub fn probe_fetch(&mut self, addr: u64, len: usize) -> bool {
        if self.offset_in_line(addr) + len > self.cfg.line_bytes {
            return false; // straddles a line boundary: take the slow path
        }
        let Some(idx) = self.lookup(self.set_of(addr), self.tag_of(addr)) else {
            return false;
        };
        self.hit(idx, addr, false);
        self.stats.bump(self.h_bytes_read, len as u64);
        true
    }

    /// Fraction of accesses that missed, `misses / (hits + misses)`.
    pub fn miss_ratio(&self) -> f64 {
        self.stats.ratio("misses", "hits")
    }

    /// Invalidates every line, writing dirty lines back first.
    ///
    /// # Errors
    ///
    /// Propagates backing-store errors from write-backs.
    pub fn flush(&mut self) -> Result<Cycles, SimError> {
        self.epoch += 1;
        let mut total = Cycles::ZERO;
        for idx in 0..self.flags.len() {
            if self.flags[idx] == VALID | DIRTY {
                let addr = self.line_base(self.tags[idx], idx / self.cfg.ways);
                let line = &self.data[self.line_range(idx)];
                total += self.backing.borrow_mut().write(addr, line)?;
                self.stats
                    .add_cached(&mut self.h_writebacks, "writebacks", 1);
                self.trace(TraceEvent::CacheEvict { addr, dirty: true });
            }
            self.flags[idx] = 0;
        }
        Ok(total)
    }

    /// FNV-1a digest of the microarchitectural state: every line's
    /// valid/dirty/tag/LRU/data plus the LRU tick and content epoch. Two
    /// identically-driven caches agree on this digest; it is the cache-side
    /// complement of `Core::state_digest`.
    pub fn state_digest(&self) -> u64 {
        let mut h = hulkv_sim::Fnv64::new();
        for idx in 0..self.flags.len() {
            h.write_u64(u64::from(self.flags[idx]))
                .write_u64(self.tags[idx])
                .write_u64(self.lru[idx])
                .write(&self.data[self.line_range(idx)]);
        }
        h.write_u64(self.tick).write_u64(self.epoch);
        h.finish()
    }

    /// Serializes lines (packed binary), LRU tick, epoch and stats into
    /// `snap`. Contents are recorded rather than flushed: flushing would
    /// bump the epoch and change miss timing, making snapshotting visible
    /// to the simulated run.
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::{hex, stats_to_json};
        let mut packed = Vec::with_capacity(self.flags.len() * (17 + self.cfg.line_bytes));
        for idx in 0..self.flags.len() {
            packed.push(self.flags[idx]);
            packed.extend_from_slice(&self.tags[idx].to_le_bytes());
            packed.extend_from_slice(&self.lru[idx].to_le_bytes());
            packed.extend_from_slice(&self.data[self.line_range(idx)]);
        }
        let lines = snap.push_blob(&packed);
        hulkv_sim::Json::obj([
            ("ways", hex(self.cfg.ways as u64)),
            ("sets", hex(self.cfg.sets as u64)),
            ("line_bytes", hex(self.cfg.line_bytes as u64)),
            ("tick", hex(self.tick)),
            ("epoch", hex(self.epoch)),
            ("lines", lines),
            ("stats", stats_to_json(&self.stats)),
        ])
    }

    /// Restores state written by [`Cache::snapshot_into`] into a cache of
    /// identical geometry (pre-registered [`StatsHandle`]s stay valid).
    ///
    /// # Errors
    ///
    /// On geometry mismatch, a malformed section, or a valid line that
    /// does not lie inside the backing store — no refill could have
    /// produced one, and hits skip the range check on the strength of it.
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        use hulkv_sim::snap::{get, get_u64, restore_stats, SnapError};
        let (ways, sets, lb) = (
            get_u64(j, "ways")? as usize,
            get_u64(j, "sets")? as usize,
            get_u64(j, "line_bytes")? as usize,
        );
        if (ways, sets, lb) != (self.cfg.ways, self.cfg.sets, self.cfg.line_bytes) {
            return Err(SnapError::msg(format!(
                "cache {}: geometry mismatch (snapshot {ways}x{sets}x{lb}, \
                 target {}x{}x{})",
                self.cfg.name, self.cfg.ways, self.cfg.sets, self.cfg.line_bytes
            )));
        }
        let packed = snap.blob(get(j, "lines")?)?;
        let rec = 17 + lb;
        if packed.len() != self.flags.len() * rec {
            return Err(SnapError::msg(format!(
                "cache {}: line blob is {} bytes, expected {}",
                self.cfg.name,
                packed.len(),
                self.flags.len() * rec
            )));
        }
        let tag_at = |r: &[u8]| u64::from_le_bytes(r[1..9].try_into().expect("8 bytes"));
        let size = self.backing.borrow().size_bytes();
        let tag_span = (sets * lb) as u64;
        for (idx, r) in packed.chunks_exact(rec).enumerate() {
            let end = tag_at(r)
                .checked_mul(tag_span)
                .and_then(|base| base.checked_add(((idx / ways + 1) * lb) as u64));
            if r[0] & VALID != 0 && end.is_none_or(|end| end > size) {
                return Err(SnapError::msg(format!(
                    "cache {}: valid line {idx} lies outside the {size}-byte backing store",
                    self.cfg.name
                )));
            }
        }
        for (idx, r) in packed.chunks_exact(rec).enumerate() {
            self.flags[idx] = r[0] & (VALID | DIRTY);
            self.tags[idx] = tag_at(r);
            self.lru[idx] = u64::from_le_bytes(r[9..17].try_into().expect("8 bytes"));
            let range = self.line_range(idx);
            self.data[range].copy_from_slice(&r[17..]);
        }
        self.tick = get_u64(j, "tick")?;
        self.epoch = get_u64(j, "epoch")?;
        restore_stats(&mut self.stats, get(j, "stats")?)
    }

    /// Side-effect-free read: resident lines overlay the backing store, so
    /// the bytes match what [`MemoryDevice::read`] would return — including
    /// dirty write-back data not yet propagated — without touching LRU
    /// state, counters or the backing device's counters.
    ///
    /// # Errors
    ///
    /// Propagates backing peek errors.
    pub fn peek(&self, addr: u64, buf: &mut [u8]) -> Result<(), SimError> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let in_line = self.offset_in_line(a);
            let n = (self.cfg.line_bytes - in_line).min(buf.len() - pos);
            match self.lookup(self.set_of(a), self.tag_of(a)) {
                Some(idx) => {
                    let at = idx * self.cfg.line_bytes + in_line;
                    buf[pos..pos + n].copy_from_slice(&self.data[at..at + n]);
                }
                None => self.backing.borrow().peek(a, &mut buf[pos..pos + n])?,
            }
            pos += n;
        }
        Ok(())
    }

    #[inline]
    fn offset_in_line(&self, addr: u64) -> usize {
        (addr & (self.cfg.line_bytes as u64 - 1)) as usize
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.cfg.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> (self.line_shift + self.set_shift)
    }

    fn line_base(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.set_shift) + set as u64) << self.line_shift
    }

    /// The bytes of way `idx` within `data`.
    #[inline]
    fn line_range(&self, idx: usize) -> std::ops::Range<usize> {
        idx * self.cfg.line_bytes..(idx + 1) * self.cfg.line_bytes
    }

    /// Finds the way holding `(tag, set)`, if present.
    #[inline]
    fn lookup(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.cfg.ways;
        let ways = base..base + self.cfg.ways;
        self.tags[ways.clone()]
            .iter()
            .zip(&self.flags[ways])
            .position(|(&t, &f)| t == tag && f & VALID != 0)
            .map(|w| base + w)
    }

    /// The way holding the whole of a non-empty `len`-byte access at
    /// `addr`, when it lies inside one resident line. Side-effect free;
    /// `None` for empty, line-straddling and non-resident accesses.
    ///
    /// Such an access is always in range: its line was installed by a
    /// successful whole-line backing read (or restored from a snapshot
    /// that [`Cache::restore_from`] checked), and backing stores never
    /// shrink. The hit paths therefore skip [`check_range`], whose
    /// `size_bytes` call walks the whole backing chain.
    #[inline]
    fn resident(&self, addr: u64, len: usize) -> Option<usize> {
        if len == 0 || self.offset_in_line(addr) + len > self.cfg.line_bytes {
            return None;
        }
        self.lookup(self.set_of(addr), self.tag_of(addr))
    }

    /// Picks a victim way in `set`: an invalid way if any, else the LRU one.
    fn victim(&self, set: usize) -> usize {
        let base = set * self.cfg.ways;
        if let Some(w) = self.flags[base..base + self.cfg.ways]
            .iter()
            .position(|&f| f & VALID == 0)
        {
            return base + w;
        }
        (0..self.cfg.ways)
            .min_by_key(|&w| self.lru[base + w])
            .map(|w| base + w)
            .expect("cache has at least one way")
    }

    #[inline]
    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.lru[idx] = self.tick;
    }

    /// The read-hit side effects on way `idx`, in the order every hit path
    /// performs them: `hits`, the hit trace event, the LRU touch.
    #[inline]
    fn hit(&mut self, idx: usize, addr: u64, write: bool) {
        self.stats.bump(self.h_hits, 1);
        self.trace(TraceEvent::CacheHit { addr, write });
        self.touch(idx);
    }

    /// Ensures the line containing `addr` is resident; returns
    /// `(line_index, fill_latency)`.
    fn ensure_line(&mut self, addr: u64, is_write: bool) -> Result<(usize, Cycles), SimError> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        if let Some(idx) = self.lookup(set, tag) {
            self.hit(idx, addr, is_write);
            return Ok((idx, Cycles::ZERO));
        }
        self.stats.bump(self.h_misses, 1);
        self.trace(TraceEvent::CacheMiss {
            addr,
            write: is_write,
        });
        let mut lat = Cycles::ZERO;
        let idx = self.victim(set);
        if self.flags[idx] == VALID | DIRTY {
            let victim_addr = self.line_base(self.tags[idx], set);
            let line = &self.data[self.line_range(idx)];
            lat += self.backing.borrow_mut().write(victim_addr, line)?;
            self.stats
                .add_cached(&mut self.h_writebacks, "writebacks", 1);
            self.trace(TraceEvent::CacheEvict {
                addr: victim_addr,
                dirty: true,
            });
        }
        let line_addr = self.line_base(tag, set);
        lat += self.backing.borrow_mut().read(line_addr, &mut self.fill)?;
        let range = self.line_range(idx);
        self.data[range].copy_from_slice(&self.fill);
        self.stats.add_cached(&mut self.h_refills, "refills", 1);
        self.epoch += 1;
        self.flags[idx] = VALID;
        self.tags[idx] = tag;
        self.touch(idx);
        Ok((idx, lat))
    }

    /// Stores `chunk`, which lies inside one line, into resident way `idx`
    /// and applies the write policy; returns the backing latency the
    /// store is charged.
    fn write_into(&mut self, idx: usize, addr: u64, chunk: &[u8]) -> Result<Cycles, SimError> {
        let at = idx * self.cfg.line_bytes + self.offset_in_line(addr);
        self.data[at..at + chunk.len()].copy_from_slice(chunk);
        match self.cfg.write_policy {
            WritePolicy::WriteBack => {
                self.flags[idx] |= DIRTY;
                Ok(Cycles::ZERO)
            }
            WritePolicy::WriteThrough => {
                let lat = self.backing.borrow_mut().write(addr, chunk)?;
                self.stats
                    .add_cached(&mut self.h_writethroughs, "writethroughs", 1);
                Ok(if self.cfg.write_buffer {
                    Cycles::ZERO
                } else {
                    lat
                })
            }
        }
    }

    /// [`MemoryDevice::read`] for everything but a single-line hit: range
    /// check, then line by line with refills.
    #[inline(never)]
    fn read_lines(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        check_range(offset, buf.len(), self.size_bytes())?;
        let mut total = Cycles::ZERO;
        let mut pos = 0usize;
        while pos < buf.len() {
            let addr = offset + pos as u64;
            let in_line = self.offset_in_line(addr);
            let n = (self.cfg.line_bytes - in_line).min(buf.len() - pos);
            let (idx, fill) = self.ensure_line(addr, false)?;
            let at = idx * self.cfg.line_bytes + in_line;
            buf[pos..pos + n].copy_from_slice(&self.data[at..at + n]);
            total += self.cfg.hit_latency + fill;
            pos += n;
        }
        self.stats.bump(self.h_bytes_read, buf.len() as u64);
        Ok(total)
    }

    /// [`MemoryDevice::write`] for everything but a single-line hit: range
    /// check, then line by line with write-allocate or write-around misses.
    #[inline(never)]
    fn write_lines(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError> {
        check_range(offset, data.len(), self.size_bytes())?;
        let mut total = Cycles::ZERO;
        let mut pos = 0usize;
        while pos < data.len() {
            let addr = offset + pos as u64;
            let n = (self.cfg.line_bytes - self.offset_in_line(addr)).min(data.len() - pos);
            let chunk = &data[pos..pos + n];

            let idx = match self.lookup(self.set_of(addr), self.tag_of(addr)) {
                Some(idx) => {
                    self.hit(idx, addr, true);
                    Some(idx)
                }
                // ensure_line re-runs the (missing) lookup and counts the miss.
                None if self.cfg.write_allocate => {
                    let (idx, fill) = self.ensure_line(addr, true)?;
                    total += fill;
                    Some(idx)
                }
                None => {
                    self.stats.bump(self.h_misses, 1);
                    self.trace(TraceEvent::CacheMiss { addr, write: true });
                    None
                }
            };

            if let Some(idx) = idx {
                total += self.write_into(idx, addr, chunk)?;
            } else {
                // Non-allocating write miss: straight to backing.
                let lat = self.backing.borrow_mut().write(addr, chunk)?;
                if !self.cfg.write_buffer {
                    total += lat;
                }
                self.stats
                    .add_cached(&mut self.h_write_misses_direct, "write_misses_direct", 1);
            }
            total += self.cfg.hit_latency;
            pos += n;
        }
        self.stats.bump(self.h_bytes_written, data.len() as u64);
        Ok(total)
    }
}

impl MemoryDevice for Cache {
    fn size_bytes(&self) -> u64 {
        self.backing.borrow().size_bytes()
    }

    fn peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        check_range(offset, buf.len(), self.size_bytes())?;
        Cache::peek(self, offset, buf)
    }

    #[inline(always)]
    fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        // Single-line hit: no range check (see `Cache::resident`).
        if let Some(idx) = self.resident(offset, buf.len()) {
            self.hit(idx, offset, false);
            let at = idx * self.cfg.line_bytes + self.offset_in_line(offset);
            buf.copy_from_slice(&self.data[at..at + buf.len()]);
            self.stats.bump(self.h_bytes_read, buf.len() as u64);
            return Ok(self.cfg.hit_latency);
        }
        self.read_lines(offset, buf)
    }

    #[inline(always)]
    fn write(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError> {
        // Single-line hit: no range check (see `Cache::resident`).
        if let Some(idx) = self.resident(offset, data.len()) {
            self.hit(idx, offset, true);
            let lat = self.write_into(idx, offset, data)?;
            self.stats.bump(self.h_bytes_written, data.len() as u64);
            return Ok(lat + self.cfg.hit_latency);
        }
        self.write_lines(offset, data)
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shared, Sram};

    fn test_cache(policy: WritePolicy, allocate: bool, buffered: bool) -> (Cache, SharedMem) {
        let backing = shared(Sram::new("dram", 8192, Cycles::new(50)));
        let cfg = CacheConfig {
            name: "c".into(),
            ways: 2,
            sets: 4,
            line_bytes: 16,
            hit_latency: Cycles::new(1),
            write_policy: policy,
            write_allocate: allocate,
            write_buffer: buffered,
        };
        (Cache::new(cfg, backing.clone()).unwrap(), backing)
    }

    #[test]
    fn cold_miss_then_hit() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let mut b = [0u8; 4];
        let miss = c.read(0x20, &mut b).unwrap();
        let hit = c.read(0x24, &mut b).unwrap();
        assert!(miss.get() >= 51);
        assert_eq!(hit, Cycles::new(1));
        assert_eq!(c.stats().get("hits"), 1);
        assert_eq!(c.stats().get("misses"), 1);
    }

    #[test]
    fn data_correct_through_writeback_eviction() {
        let (mut c, backing) = test_cache(WritePolicy::WriteBack, true, false);
        // Write a value into set 0 (addr 0), then evict it by touching three
        // more lines mapping to set 0 (stride = sets * line = 64).
        c.write(0, &[0xAB; 16]).unwrap();
        for i in 1..=2 {
            let mut b = [0u8; 1];
            c.read(i * 64, &mut b).unwrap();
        }
        // addr 0 evicted (2 ways); backing must now hold the data.
        let mut b = [0u8; 16];
        backing.borrow_mut().read(0, &mut b).unwrap();
        assert_eq!(b, [0xAB; 16]);
        assert!(c.stats().get("writebacks") >= 1);
        // And reading through the cache still sees it.
        let mut b2 = [0u8; 16];
        c.read(0, &mut b2).unwrap();
        assert_eq!(b2, [0xAB; 16]);
    }

    #[test]
    fn write_through_propagates_immediately() {
        let (mut c, backing) = test_cache(WritePolicy::WriteThrough, false, true);
        c.write(0x10, &[7; 8]).unwrap();
        let mut b = [0u8; 8];
        backing.borrow_mut().read(0x10, &mut b).unwrap();
        assert_eq!(b, [7; 8]);
    }

    #[test]
    fn write_buffer_hides_latency() {
        let (mut c_buf, _) = test_cache(WritePolicy::WriteThrough, false, true);
        let (mut c_nobuf, _) = test_cache(WritePolicy::WriteThrough, false, false);
        let fast = c_buf.write(0, &[1; 4]).unwrap();
        let slow = c_nobuf.write(0, &[1; 4]).unwrap();
        assert!(slow > fast);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let mut b = [0u8; 1];
        // Fill both ways of set 0 with lines A (0) and B (64).
        c.read(0, &mut b).unwrap();
        c.read(64, &mut b).unwrap();
        // Touch A again so B is LRU.
        c.read(0, &mut b).unwrap();
        // Bring in C (128): should evict B, keep A.
        c.read(128, &mut b).unwrap();
        let misses = c.stats().get("misses");
        c.read(0, &mut b).unwrap(); // A still resident
        assert_eq!(c.stats().get("misses"), misses);
        c.read(64, &mut b).unwrap(); // B was evicted
        assert_eq!(c.stats().get("misses"), misses + 1);
    }

    #[test]
    fn cross_line_access_splits() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let data: Vec<u8> = (0..32).collect();
        c.write(8, &data).unwrap(); // spans 3 lines
        let mut b = vec![0u8; 32];
        c.read(8, &mut b).unwrap();
        assert_eq!(b, data);
    }

    #[test]
    fn flush_writes_dirty_lines() {
        let (mut c, backing) = test_cache(WritePolicy::WriteBack, true, false);
        c.write(0x40, &[0x5A; 16]).unwrap();
        c.flush().unwrap();
        let mut b = [0u8; 16];
        backing.borrow_mut().read(0x40, &mut b).unwrap();
        assert_eq!(b, [0x5A; 16]);
        // After flush, a read misses again.
        let misses = c.stats().get("misses");
        let mut b2 = [0u8; 1];
        c.read(0x40, &mut b2).unwrap();
        assert_eq!(c.stats().get("misses"), misses + 1);
    }

    #[test]
    fn miss_ratio_computed() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let mut b = [0u8; 1];
        c.read(0, &mut b).unwrap();
        c.read(0, &mut b).unwrap();
        c.read(0, &mut b).unwrap();
        c.read(0, &mut b).unwrap();
        assert!((c.miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probe_fetch_mirrors_hit_side_effects() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let mut b = [0u8; 4];
        c.read(0x20, &mut b).unwrap(); // bring the line in
        let hits = c.stats().get("hits");
        let bytes = c.stats().get("bytes_read");
        assert!(c.probe_fetch(0x20, 4), "resident line revalidates");
        assert_eq!(c.stats().get("hits"), hits + 1);
        assert_eq!(c.stats().get("bytes_read"), bytes + 4);
        // Not resident: no side effects at all.
        let misses = c.stats().get("misses");
        assert!(!c.probe_fetch(0x100, 4));
        assert_eq!(c.stats().get("hits"), hits + 1);
        assert_eq!(c.stats().get("misses"), misses);
        // Line-straddling accesses always refuse (line_bytes = 16).
        assert!(!c.probe_fetch(0x2E, 4));
    }

    #[test]
    fn probe_fetch_touch_updates_lru() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let mut b = [0u8; 1];
        // Fill both ways of set 0 with lines A (0) and B (64).
        c.read(0, &mut b).unwrap();
        c.read(64, &mut b).unwrap();
        // Revalidate A via the probe, making B the LRU victim.
        assert!(c.probe_fetch(0, 4));
        c.read(128, &mut b).unwrap(); // brings in C, must evict B
        let misses = c.stats().get("misses");
        c.read(0, &mut b).unwrap(); // A survived
        assert_eq!(c.stats().get("misses"), misses);
    }

    #[test]
    fn epoch_tracks_refills_and_flush() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let e0 = c.epoch();
        let mut b = [0u8; 4];
        c.read(0, &mut b).unwrap(); // refill
        let e1 = c.epoch();
        assert!(e1 > e0);
        c.read(0, &mut b).unwrap(); // pure hit: stable
        assert_eq!(c.epoch(), e1);
        assert!(c.probe_fetch(0, 4)); // probe: stable
        assert_eq!(c.epoch(), e1);
        c.flush().unwrap();
        assert!(c.epoch() > e1);
    }

    /// Everything a refused or empty access must leave alone: counters, and
    /// (through the digest) flags, tags, LRU stamps, bytes, tick and epoch.
    fn observable(c: &Cache) -> (Stats, u64) {
        (c.stats().clone(), c.state_digest())
    }

    #[test]
    fn zero_length_accesses_touch_nothing() {
        for policy in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
            let (mut c, _) = test_cache(policy, policy == WritePolicy::WriteBack, false);
            let mut b = [0u8; 4];
            c.read(0x20, &mut b).unwrap(); // resident
            let before = observable(&c);
            for addr in [0x20, 0x24, 0x100, 8192] {
                assert_eq!(c.read(addr, &mut []).unwrap(), Cycles::ZERO);
                assert_eq!(c.write(addr, &[]).unwrap(), Cycles::ZERO);
            }
            assert_eq!(observable(&c), before);
            // Past the end, even an empty access is out of range.
            assert!(matches!(
                c.read(8193, &mut []),
                Err(SimError::OutOfRange { .. })
            ));
            assert!(matches!(
                c.write(8193, &[]),
                Err(SimError::OutOfRange { .. })
            ));
            assert_eq!(observable(&c), before);
        }
    }

    #[test]
    fn access_past_backing_end_fails_before_side_effects() {
        let (mut c, backing) = test_cache(WritePolicy::WriteBack, true, false);
        let mut b = [0u8; 4];
        c.read(8180, &mut b).unwrap(); // the last line is resident
        let backing_before = backing.borrow().stats().clone();
        let before = observable(&c);
        let mut wide = [0u8; 8];
        assert!(matches!(
            c.read(8188, &mut wide),
            Err(SimError::OutOfRange { .. })
        ));
        assert!(matches!(
            c.write(8188, &[1; 8]),
            Err(SimError::OutOfRange { .. })
        ));
        assert!(matches!(
            c.read(8192, &mut b),
            Err(SimError::OutOfRange { .. })
        ));
        assert_eq!(observable(&c), before);
        assert_eq!(*backing.borrow().stats(), backing_before);
    }

    #[test]
    fn failed_refill_leaves_victim_intact() {
        use crate::Bus;
        for (policy, allocate) in [
            (WritePolicy::WriteBack, true),
            (WritePolicy::WriteThrough, false),
        ] {
            // Direct-mapped, 4 sets of 16 bytes: 0x00 and 0x100 share set 0,
            // and 0x100..0x200 is a hole in the bus map.
            let mut bus = Bus::new("axi", Cycles::new(1));
            for base in [0x000, 0x200] {
                bus.map(
                    format!("ram{base:x}"),
                    base,
                    shared(Sram::new("ram", 0x100, Cycles::new(5))),
                )
                .unwrap();
            }
            let cfg = CacheConfig {
                name: "c".into(),
                ways: 1,
                sets: 4,
                line_bytes: 16,
                hit_latency: Cycles::new(1),
                write_policy: policy,
                write_allocate: allocate,
                write_buffer: false,
            };
            let mut c = Cache::new(cfg, shared(bus)).unwrap();
            let mut line = [0u8; 16];
            c.read(0, &mut line).unwrap(); // victim-to-be
            c.write(0, &[0xC3; 16]).unwrap(); // dirty under write-back
            let digest = c.state_digest();
            let epoch = c.epoch();
            let mut b = [0u8; 4];
            assert!(matches!(
                c.read(0x100, &mut b),
                Err(SimError::UnmappedAddress { addr: 0x100 })
            ));
            assert_eq!(c.state_digest(), digest, "{policy:?}: victim changed");
            assert_eq!(c.epoch(), epoch);
            let hits = c.stats().get("hits");
            c.read(0, &mut line).unwrap();
            assert_eq!(line, [0xC3; 16]);
            assert_eq!(c.stats().get("hits"), hits + 1, "victim still resident");
            // The way refills normally afterwards.
            c.read(0x200, &mut b).unwrap();
            c.read(0x204, &mut b).unwrap();
            assert_eq!(c.stats().get("refills"), 2);
        }
    }

    #[test]
    fn untouched_counters_stay_absent() {
        // An L1-style write-through cache that only ever hits never
        // registers `refills`, `writebacks` or `write_misses_direct`.
        let (mut c, _) = test_cache(WritePolicy::WriteThrough, false, true);
        let keys = |c: &Cache| {
            c.stats()
                .iter()
                .map(|(k, _)| k.to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&c), ["bytes_read", "bytes_written", "hits", "misses"]);
        let mut b = [0u8; 4];
        c.read(0, &mut b).unwrap();
        c.write(0, &b).unwrap();
        assert_eq!(
            keys(&c),
            [
                "bytes_read",
                "bytes_written",
                "hits",
                "misses",
                "refills",
                "writethroughs"
            ]
        );
    }

    #[test]
    fn restore_rejects_lines_outside_the_backing_store() {
        let (mut c, _) = test_cache(WritePolicy::WriteBack, true, false);
        let mut b = [0u8; 4];
        c.read(0x20, &mut b).unwrap();
        let mut snap = hulkv_sim::Snapshot::new();
        let j = c.snapshot_into(&mut snap);
        // The same state over an 8-byte-shorter backing store: its last
        // line is gone, but 0x20 is still in range.
        let small = shared(Sram::new("dram", 8192 - 8, Cycles::new(50)));
        let mut shrunk = Cache::new(c.config().clone(), small.clone()).unwrap();
        shrunk.restore_from(&snap, &j).unwrap();
        // A resident line at the very end of the original store.
        c.read(8176, &mut b).unwrap();
        let mut snap = hulkv_sim::Snapshot::new();
        let j = c.snapshot_into(&mut snap);
        let mut shrunk = Cache::new(c.config().clone(), small).unwrap();
        let before = shrunk.state_digest();
        assert!(shrunk.restore_from(&snap, &j).is_err());
        assert_eq!(shrunk.state_digest(), before, "rejected restore is atomic");
    }

    #[test]
    fn invalid_geometry_rejected() {
        let backing = shared(Sram::new("x", 64, Cycles::new(1)));
        let cfg = CacheConfig {
            name: "bad".into(),
            ways: 1,
            sets: 3, // not a power of two
            line_bytes: 16,
            hit_latency: Cycles::new(1),
            write_policy: WritePolicy::WriteBack,
            write_allocate: true,
            write_buffer: false,
        };
        assert!(Cache::new(cfg, backing).is_err());
    }

    #[test]
    fn config_size_formula() {
        // The paper's LLC: 8 ways * 256 lines * 8 blocks * 8 B = 128 kB.
        let cfg = CacheConfig {
            name: "llc".into(),
            ways: 8,
            sets: 256,
            line_bytes: 64,
            hit_latency: Cycles::new(2),
            write_policy: WritePolicy::WriteBack,
            write_allocate: true,
            write_buffer: false,
        };
        assert_eq!(cfg.size_bytes(), 128 * 1024);
    }
}
