//! The DDR4/LPDDR4 comparison memory.

use crate::device::{check_range, Traffic};
use crate::{MemoryDevice, SparseStorage};
use hulkv_sim::{Cycles, SharedTracer, SimError, Stats, StatsHandle, TraceEvent, Track};

/// Configuration of the DDR4/LPDDR4 model.
///
/// In the paper's FPGA benchmarking setup the proprietary Xilinx DDR4
/// controller runs its PHY at 1.2 GHz while the SoC runs at 50 MHz — "the
/// DDR4 models an ideal off-chip memory, faster by one order of magnitude
/// than the SoC". We reproduce that: a fixed controller latency and a data
/// rate that saturates the 64-bit AXI port (8 bytes per SoC cycle).
///
/// # Example
///
/// ```
/// use hulkv_mem::DdrConfig;
///
/// let cfg = DdrConfig::default();
/// assert_eq!(cfg.bytes_per_cycle, 8); // saturates the 64-bit AXI
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Fixed per-transaction latency in SoC cycles (controller + CAS).
    pub latency_cycles: u64,
    /// Streaming data rate in bytes per SoC cycle.
    pub bytes_per_cycle: u64,
}

impl Default for DdrConfig {
    /// 512 MB (matched to the HyperRAM capacity for apples-to-apples
    /// comparisons), 10-cycle latency, full AXI-width streaming.
    fn default() -> Self {
        DdrConfig {
            size_bytes: 512 * 1024 * 1024,
            latency_cycles: 10,
            bytes_per_cycle: 8,
        }
    }
}

/// The DDR4/LPDDR4 main-memory model used as the power-hungry baseline in
/// Figures 7–9.
///
/// Latencies are in SoC cycles.
///
/// # Example
///
/// ```
/// use hulkv_mem::{Ddr, DdrConfig, MemoryDevice};
///
/// let mut ddr = Ddr::new(DdrConfig::default());
/// let mut line = [0u8; 64];
/// let lat = ddr.read(0, &mut line)?;
/// assert_eq!(lat.get(), 10 + 64 / 8);
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Ddr {
    cfg: DdrConfig,
    storage: SparseStorage,
    stats: Stats,
    traffic: Traffic,
    h_busy_cycles: Option<StatsHandle>,
    tracer: Option<SharedTracer>,
}

impl Ddr {
    /// Creates the DDR model.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` or `size_bytes` is zero.
    pub fn new(cfg: DdrConfig) -> Self {
        assert!(
            cfg.bytes_per_cycle > 0 && cfg.size_bytes > 0,
            "invalid DDR configuration"
        );
        Ddr {
            storage: SparseStorage::new(cfg.size_bytes),
            cfg,
            stats: Stats::new("ddr"),
            traffic: Traffic::default(),
            h_busy_cycles: None,
            tracer: None,
        }
    }

    /// Attaches a structured SoC tracer; each access records a burst span
    /// (covering the whole transaction latency) on the DRAM track.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    fn trace_burst(&self, addr: u64, bytes: usize, write: bool, lat: Cycles) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record_span(
                Track::Dram,
                TraceEvent::DramBurst {
                    addr,
                    bytes: bytes as u32,
                    write,
                },
                lat.get(),
            );
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DdrConfig {
        &self.cfg
    }

    /// FNV-1a digest of the stored content (see
    /// [`SparseStorage::content_digest`]).
    pub fn content_digest(&self) -> u64 {
        self.storage.content_digest()
    }

    /// Serializes resident pages and stats into `snap`.
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::stats_to_json;
        let storage = self.storage.snapshot_into(snap);
        hulkv_sim::Json::obj([("storage", storage), ("stats", stats_to_json(&self.stats))])
    }

    /// Restores state written by [`Ddr::snapshot_into`].
    ///
    /// # Errors
    ///
    /// On size mismatch or a malformed section.
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        use hulkv_sim::snap::{get, restore_stats};
        self.storage.restore_from(snap, get(j, "storage")?)?;
        restore_stats(&mut self.stats, get(j, "stats")?)
    }

    fn latency(&self, len: usize) -> Cycles {
        Cycles::new(self.cfg.latency_cycles + (len as u64).div_ceil(self.cfg.bytes_per_cycle))
    }
}

impl MemoryDevice for Ddr {
    fn size_bytes(&self) -> u64 {
        self.cfg.size_bytes
    }

    fn peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        check_range(offset, buf.len(), self.size_bytes())?;
        self.storage.read(offset, buf);
        Ok(())
    }

    fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        check_range(offset, buf.len(), self.size_bytes())?;
        self.storage.read(offset, buf);
        self.traffic.read(&mut self.stats, buf.len());
        let lat = self.latency(buf.len());
        self.stats
            .add_cached(&mut self.h_busy_cycles, "busy_cycles", lat.get());
        self.trace_burst(offset, buf.len(), false, lat);
        Ok(lat)
    }

    fn write(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError> {
        check_range(offset, data.len(), self.size_bytes())?;
        self.storage.write(offset, data);
        self.traffic.write(&mut self.stats, data.len());
        let lat = self.latency(data.len());
        self.stats
            .add_cached(&mut self.h_busy_cycles, "busy_cycles", lat.get());
        self.trace_burst(offset, data.len(), true, lat);
        Ok(lat)
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn attach_tracer(&mut self, tracer: SharedTracer) {
        self.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HyperRam, HyperRamConfig};

    #[test]
    fn data_round_trip() {
        let mut ddr = Ddr::new(DdrConfig::default());
        ddr.write(0xABC, &[1, 2, 3]).unwrap();
        let mut b = [0u8; 3];
        ddr.read(0xABC, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3]);
    }

    #[test]
    fn latency_formula() {
        let mut ddr = Ddr::new(DdrConfig::default());
        let mut b = [0u8; 1];
        assert_eq!(ddr.read(0, &mut b).unwrap().get(), 11);
        let mut line = [0u8; 64];
        assert_eq!(ddr.read(0, &mut line).unwrap().get(), 18);
    }

    #[test]
    fn ddr_is_an_order_of_magnitude_faster_than_hyperram() {
        // The core premise of Figures 7-9: DDR4 is far faster per line
        // refill, HyperRAM compensates with the LLC.
        let mut ddr = Ddr::new(DdrConfig::default());
        let mut hyper = HyperRam::new(HyperRamConfig::default());
        let mut line = [0u8; 64];
        let d = ddr.read(0, &mut line).unwrap();
        let h = hyper.read(0, &mut line).unwrap();
        assert!(h.get() >= 5 * d.get(), "hyper {h} vs ddr {d}");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ddr = Ddr::new(DdrConfig {
            size_bytes: 64,
            ..DdrConfig::default()
        });
        assert!(ddr.write(63, &[0, 0]).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut ddr = Ddr::new(DdrConfig::default());
        ddr.write(0, &[0; 32]).unwrap();
        let mut b = [0u8; 16];
        ddr.read(0, &mut b).unwrap();
        assert_eq!(ddr.stats().get("bytes_written"), 32);
        assert_eq!(ddr.stats().get("bytes_read"), 16);
    }
}
