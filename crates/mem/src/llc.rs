//! The Last-Level Cache of §III-A: cacheable-region filter plus a
//! parameterizable set-associative cache.

use crate::{Cache, CacheConfig, MemoryDevice, SharedMem, WritePolicy};
use hulkv_sim::{Cycles, SharedTracer, SimError, Stats, StatsHandle, Track};

/// Geometry of the LLC, expressed in the paper's own parameters.
///
/// "Blocks" are as wide as the AXI data width; one chooses the number of
/// blocks per line, the number of lines per set, and the number of ways.
/// The resulting size is `ways × lines × blocks × AXI_dw`.
///
/// # Example
///
/// ```
/// use hulkv_mem::LlcConfig;
///
/// // HULK-V: 8 blocks, 256 lines, 8 ways, 64-bit AXI = 128 kB.
/// let cfg = LlcConfig::default();
/// assert_eq!(cfg.size_bytes(), 128 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlcConfig {
    /// Blocks (AXI-data-width words) per cache line.
    pub blocks: usize,
    /// Lines per set (the paper's `N_lines`; the number of sets).
    pub lines: usize,
    /// Associativity.
    pub ways: usize,
    /// AXI data width in bytes (8 for the 64-bit host crossbar).
    pub axi_bytes: usize,
    /// Hit latency (tag SRAM lookup is single-cycle; add read-out).
    pub hit_latency: Cycles,
    /// Start of the cacheable address window (device-local offset).
    pub cacheable_start: u64,
    /// End (exclusive) of the cacheable address window.
    pub cacheable_end: u64,
}

impl Default for LlcConfig {
    fn default() -> Self {
        LlcConfig {
            blocks: 8,
            lines: 256,
            ways: 8,
            axi_bytes: 8,
            hit_latency: Cycles::new(2),
            cacheable_start: 0,
            cacheable_end: u64::MAX,
        }
    }
}

impl LlcConfig {
    /// `LLC_size = N_ways · N_lines · N_blocks · AXI_dw`.
    pub fn size_bytes(&self) -> u64 {
        (self.ways * self.lines * self.blocks * self.axi_bytes) as u64
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.blocks * self.axi_bytes
    }
}

/// The Last-Level Cache tightly coupled to the memory controller.
///
/// Incoming AXI transactions are first filtered: requests inside the
/// cacheable region go to the cache, the others are propagated directly to
/// the external memory. The cache itself is write-back/write-allocate, with
/// evictions generating write transactions and refills read transactions on
/// the output port, exactly as in Figure 2 of the paper.
///
/// # Example
///
/// ```
/// use hulkv_mem::{shared, HyperRam, HyperRamConfig, Llc, LlcConfig, MemoryDevice};
///
/// let dram = shared(HyperRam::new(HyperRamConfig::default()));
/// let mut llc = Llc::new(LlcConfig::default(), dram)?;
/// let mut word = [0u8; 8];
/// let cold = llc.read(0x0, &mut word)?;
/// let hot = llc.read(0x8, &mut word)?;
/// assert!(cold.get() > 10 * hot.get());
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Llc {
    cfg: LlcConfig,
    cache: Cache,
    bypass: SharedMem,
    stats: Stats,
    h_cacheable: Option<StatsHandle>,
    h_bypassed: Option<StatsHandle>,
}

impl Llc {
    /// Builds the LLC in front of `backing` (the memory controller).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate geometries.
    pub fn new(cfg: LlcConfig, backing: SharedMem) -> Result<Self, SimError> {
        let cache_cfg = CacheConfig {
            name: "llc".into(),
            ways: cfg.ways,
            sets: cfg.lines,
            line_bytes: cfg.line_bytes(),
            hit_latency: cfg.hit_latency,
            write_policy: WritePolicy::WriteBack,
            write_allocate: true,
            write_buffer: false,
        };
        let cache = Cache::new(cache_cfg, backing.clone())?;
        Ok(Llc {
            cfg,
            cache,
            bypass: backing,
            stats: Stats::new("llc_front"),
            h_cacheable: None,
            h_bypassed: None,
        })
    }

    /// The LLC geometry.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Attaches a structured SoC tracer; the internal cache records its
    /// hits, misses and evictions on the LLC track.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.cache.set_tracer(tracer, Track::Llc);
    }

    /// Statistics of the internal cache (hits, misses, writebacks…).
    pub fn cache_stats(&self) -> &Stats {
        self.cache.stats()
    }

    /// Miss ratio of the internal cache.
    pub fn miss_ratio(&self) -> f64 {
        self.cache.miss_ratio()
    }

    /// Writes back all dirty lines and invalidates the cache.
    ///
    /// # Errors
    ///
    /// Propagates backing-store errors.
    pub fn flush(&mut self) -> Result<Cycles, SimError> {
        self.cache.flush()
    }

    /// FNV-1a digest of the internal cache's microarchitectural state.
    pub fn state_digest(&self) -> u64 {
        self.cache.state_digest()
    }

    /// Serializes the internal cache and the front-end stats into `snap`.
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::stats_to_json;
        let cache = self.cache.snapshot_into(snap);
        hulkv_sim::Json::obj([("cache", cache), ("stats", stats_to_json(&self.stats))])
    }

    /// Restores state written by [`Llc::snapshot_into`].
    ///
    /// # Errors
    ///
    /// On geometry mismatch or a malformed section.
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        use hulkv_sim::snap::{get, restore_stats};
        self.cache.restore_from(snap, get(j, "cache")?)?;
        restore_stats(&mut self.stats, get(j, "stats")?)
    }

    fn cacheable(&self, offset: u64, len: usize) -> bool {
        offset >= self.cfg.cacheable_start && offset + len as u64 <= self.cfg.cacheable_end
    }
}

impl MemoryDevice for Llc {
    fn size_bytes(&self) -> u64 {
        self.bypass.borrow().size_bytes()
    }

    fn peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        if self.cacheable(offset, buf.len()) {
            self.cache.peek(offset, buf)
        } else {
            self.bypass.borrow().peek(offset, buf)
        }
    }

    fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        if self.cacheable(offset, buf.len()) {
            self.stats.add_cached(&mut self.h_cacheable, "cacheable", 1);
            self.cache.read(offset, buf)
        } else {
            self.stats.add_cached(&mut self.h_bypassed, "bypassed", 1);
            self.bypass.borrow_mut().read(offset, buf)
        }
    }

    fn write(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError> {
        if self.cacheable(offset, data.len()) {
            self.stats.add_cached(&mut self.h_cacheable, "cacheable", 1);
            self.cache.write(offset, data)
        } else {
            self.stats.add_cached(&mut self.h_bypassed, "bypassed", 1);
            self.bypass.borrow_mut().write(offset, data)
        }
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.cache.reset_stats();
    }

    fn attach_tracer(&mut self, tracer: SharedTracer) {
        self.cache.set_tracer(tracer.clone(), Track::Llc);
        self.bypass.borrow_mut().attach_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shared, Sram};

    fn llc_over_sram(cacheable_end: u64) -> (Llc, SharedMem) {
        let backing = shared(Sram::new("mem", 1 << 20, Cycles::new(100)));
        let cfg = LlcConfig {
            cacheable_end,
            ..LlcConfig::default()
        };
        (Llc::new(cfg, backing.clone()).unwrap(), backing)
    }

    #[test]
    fn paper_geometry() {
        let cfg = LlcConfig::default();
        assert_eq!(cfg.line_bytes(), 64);
        assert_eq!(cfg.size_bytes(), 128 * 1024);
    }

    #[test]
    fn hits_avoid_backing_store() {
        let (mut llc, backing) = llc_over_sram(u64::MAX);
        let mut b = [0u8; 8];
        llc.read(0, &mut b).unwrap();
        let reads_after_cold = backing.borrow().stats().get("reads");
        llc.read(8, &mut b).unwrap(); // same line
        assert_eq!(backing.borrow().stats().get("reads"), reads_after_cold);
    }

    #[test]
    fn non_cacheable_region_bypasses() {
        let (mut llc, backing) = llc_over_sram(0x1000);
        let mut b = [0u8; 8];
        llc.read(0x2000, &mut b).unwrap();
        llc.read(0x2000, &mut b).unwrap();
        assert_eq!(backing.borrow().stats().get("reads"), 2);
        assert_eq!(llc.stats().get("bypassed"), 2);
        assert_eq!(
            llc.cache_stats().get("hits") + llc.cache_stats().get("misses"),
            0
        );
    }

    #[test]
    fn straddling_window_edge_bypasses() {
        let (mut llc, _) = llc_over_sram(0x1000);
        let mut b = [0u8; 8];
        llc.read(0x0FFC, &mut b).unwrap();
        assert_eq!(llc.stats().get("bypassed"), 1);
    }

    #[test]
    fn write_read_consistency_across_flush() {
        let (mut llc, _) = llc_over_sram(u64::MAX);
        llc.write_u64(0x100, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        llc.flush().unwrap();
        assert_eq!(llc.read_u64(0x100).unwrap().0, 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn miss_ratio_reported() {
        let (mut llc, _) = llc_over_sram(u64::MAX);
        let mut b = [0u8; 8];
        llc.read(0, &mut b).unwrap();
        llc.read(0, &mut b).unwrap();
        assert!((llc.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
