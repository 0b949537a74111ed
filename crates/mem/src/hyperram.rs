//! The HyperBUS controller and HyperRAM device model (§III-B of the paper).

use crate::device::{check_range, Traffic};
use crate::{MemoryDevice, SparseStorage};
use hulkv_sim::{
    convert_freq, Cycles, Freq, SharedTracer, SimError, Stats, StatsHandle, TraceEvent, Track,
};

/// Configuration of the HyperRAM controller and the memories behind it.
///
/// The HyperBUS protocol is fully digital and counts `11 + n` pins: three
/// control pins, `n` chip selects, and eight double-data-rate data pins.
/// A transaction is a 3-cycle command/address phase, an access latency of a
/// few clock cycles (doubled in the worst "fixed 2× latency" case imposed by
/// refresh collisions), then data at 2 bytes per bus cycle (8 DDR pins).
///
/// Exposing a second HyperBUS interleaves two chips 16-bit-wise, doubling
/// bandwidth (up to 6.4 Gb/s) at double the pin count; the controller demuxes
/// multiple chips per bus through their chip selects, placing them
/// contiguously in the address map.
///
/// # Example
///
/// ```
/// use hulkv_mem::HyperRamConfig;
///
/// let cfg = HyperRamConfig::default();
/// assert_eq!(cfg.total_bytes(), 512 * 1024 * 1024); // 512 MB, as in Table I
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperRamConfig {
    /// Number of chip selects per bus.
    pub chips_per_bus: usize,
    /// Capacity of one HyperRAM chip (up to 64 MB per the datasheet).
    pub chip_bytes: u64,
    /// Whether a second HyperBUS is exposed (16-bit interleaving).
    pub dual_bus: bool,
    /// HyperBUS clock (up to 200 MHz; half the SoC clock in HULK-V).
    pub bus_freq: Freq,
    /// The clock domain the returned latencies are expressed in.
    pub soc_freq: Freq,
    /// Command/address phase length in bus cycles.
    pub ca_cycles: u64,
    /// Initial access latency in bus cycles (tACC).
    pub access_cycles: u64,
    /// Model the worst-case doubled initial latency.
    pub fixed_2x_latency: bool,
    /// Maximum burst before the controller must toggle CS (tCSM limit).
    pub max_burst_bytes: usize,
    /// Controller front-end overhead per AXI transaction, in SoC cycles.
    pub frontend_cycles: u64,
}

impl Default for HyperRamConfig {
    /// The HULK-V flagship configuration: 8 × 64 MB chips on one bus,
    /// 512 MB total, bus at half the 450 MHz SoC clock.
    fn default() -> Self {
        HyperRamConfig {
            chips_per_bus: 8,
            chip_bytes: 64 * 1024 * 1024,
            dual_bus: false,
            bus_freq: Freq::mhz(225),
            soc_freq: Freq::mhz(450),
            ca_cycles: 3,
            access_cycles: 6,
            fixed_2x_latency: true,
            max_burst_bytes: 128,
            frontend_cycles: 4,
        }
    }
}

impl HyperRamConfig {
    /// Total exposed capacity across all buses and chip selects.
    pub fn total_bytes(&self) -> u64 {
        let buses = if self.dual_bus { 2 } else { 1 };
        self.chips_per_bus as u64 * self.chip_bytes * buses
    }

    /// Data bytes transferred per bus cycle across all buses (8 DDR pins
    /// per bus ⇒ 2 B/cycle/bus).
    pub fn bytes_per_bus_cycle(&self) -> u64 {
        if self.dual_bus {
            4
        } else {
            2
        }
    }

    /// Peak bandwidth in bits per second.
    pub fn peak_bandwidth_bps(&self) -> u64 {
        self.bytes_per_bus_cycle() * 8 * self.bus_freq.hz()
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.chips_per_bus == 0 || self.chip_bytes == 0 || self.max_burst_bytes == 0 {
            return Err(SimError::InvalidConfig(
                "hyperram: chips, chip size and burst limit must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// The HyperRAM subsystem: fully digital controller plus the chips behind it.
///
/// Latencies are returned in **SoC cycles** (the controller front-end sits in
/// the SoC clock domain; the PHY runs at the bus clock and the model converts
/// exactly).
///
/// # Example
///
/// ```
/// use hulkv_mem::{HyperRam, HyperRamConfig, MemoryDevice};
///
/// let mut ram = HyperRam::new(HyperRamConfig::default());
/// // A 64-byte cache-line refill...
/// let mut line = [0u8; 64];
/// let lat = ram.read(0, &mut line)?;
/// // ...takes CA + 2*tACC at 225 MHz plus 32 bus cycles of data,
/// // all seen from 450 MHz, plus the controller front-end.
/// assert_eq!(lat.get(), 4 + 2 * (3 + 12 + 32));
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct HyperRam {
    cfg: HyperRamConfig,
    storage: SparseStorage,
    stats: Stats,
    traffic: Traffic,
    h_busy_cycles: Option<StatsHandle>,
    h_bursts: Option<StatsHandle>,
    tracer: Option<SharedTracer>,
}

impl HyperRam {
    /// Creates the subsystem from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero sizes); use
    /// [`HyperRam::try_new`] to handle that as an error.
    pub fn new(cfg: HyperRamConfig) -> Self {
        Self::try_new(cfg).expect("invalid HyperRAM configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn try_new(cfg: HyperRamConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let storage = SparseStorage::new(cfg.total_bytes());
        Ok(HyperRam {
            cfg,
            storage,
            stats: Stats::new("hyperram"),
            traffic: Traffic::default(),
            h_busy_cycles: None,
            h_bursts: None,
            tracer: None,
        })
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
    pub fn config(&self) -> &HyperRamConfig {
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

    /// Restores state written by [`HyperRam::snapshot_into`].
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

    /// Initial latency of one burst, in bus cycles.
    fn initial_latency(&self) -> u64 {
        let acc = if self.cfg.fixed_2x_latency {
            2 * self.cfg.access_cycles
        } else {
            self.cfg.access_cycles
        };
        self.cfg.ca_cycles + acc
    }

    /// Timing of an access of `len` bytes starting at `offset`, in SoC
    /// cycles. Bursts are split at the tCSM limit and at chip boundaries.
    fn latency(&mut self, offset: u64, len: usize) -> Cycles {
        let bpc = self.cfg.bytes_per_bus_cycle();
        // Address span owned by one chip select. On a dual-bus setup the
        // pair of chips on the same CS forms one interleaved 2×-size block.
        let cs_span = if self.cfg.dual_bus {
            self.cfg.chip_bytes * 2
        } else {
            self.cfg.chip_bytes
        };
        let mut bus_cycles = 0u64;
        let mut bursts = 0u64;
        let mut pos = 0u64;
        while (pos as usize) < len {
            let addr = offset + pos;
            let to_cs_end = cs_span - (addr % cs_span);
            let n = (len as u64 - pos)
                .min(self.cfg.max_burst_bytes as u64)
                .min(to_cs_end);
            bus_cycles += self.initial_latency() + n.div_ceil(bpc);
            bursts += 1;
            pos += n;
        }
        self.stats.add_cached(&mut self.h_bursts, "bursts", bursts);
        let phy = convert_freq(
            Cycles::new(bus_cycles),
            self.cfg.bus_freq,
            self.cfg.soc_freq,
        );
        phy + Cycles::new(self.cfg.frontend_cycles)
    }
}

impl MemoryDevice for HyperRam {
    fn size_bytes(&self) -> u64 {
        self.cfg.total_bytes()
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
        let lat = self.latency(offset, buf.len());
        self.stats
            .add_cached(&mut self.h_busy_cycles, "busy_cycles", lat.get());
        self.trace_burst(offset, buf.len(), false, lat);
        Ok(lat)
    }

    fn write(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError> {
        check_range(offset, data.len(), self.size_bytes())?;
        self.storage.write(offset, data);
        self.traffic.write(&mut self.stats, data.len());
        let lat = self.latency(offset, data.len());
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

    #[test]
    fn default_matches_paper_flagship() {
        let cfg = HyperRamConfig::default();
        assert_eq!(cfg.total_bytes(), 512 << 20);
        // Latest HyperRAMs: 200 MHz, 3.2 Gbps. Our half-SoC bus: 225 MHz DDR.
        assert_eq!(cfg.peak_bandwidth_bps(), 2 * 8 * 225_000_000);
    }

    #[test]
    fn dual_bus_doubles_capacity_and_bandwidth() {
        let cfg = HyperRamConfig {
            dual_bus: true,
            bus_freq: Freq::mhz(200),
            ..HyperRamConfig::default()
        };
        assert_eq!(cfg.total_bytes(), 1024 << 20);
        // Paper: "doubling the pin count ... up to 6.4 Gbps".
        assert_eq!(cfg.peak_bandwidth_bps(), 6_400_000_000);
    }

    #[test]
    fn data_round_trip() {
        let mut ram = HyperRam::new(HyperRamConfig::default());
        let data: Vec<u8> = (0..255).collect();
        ram.write(1_000_000, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        ram.read(1_000_000, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn small_read_dominated_by_initial_latency() {
        let mut ram = HyperRam::new(HyperRamConfig::default());
        let mut b8 = [0u8; 8];
        let lat8 = ram.read(0, &mut b8).unwrap();
        // CA(3) + 2*tACC(12) + 4 data cycles = 19 bus cycles = 38 SoC + 4 fe.
        assert_eq!(lat8.get(), 42);
    }

    #[test]
    fn long_burst_amortizes_latency() {
        let mut ram = HyperRam::new(HyperRamConfig::default());
        let mut small = [0u8; 8];
        let mut big = [0u8; 128];
        let lat_small = ram.read(0, &mut small).unwrap();
        let lat_big = ram.read(0, &mut big).unwrap();
        let per_byte_small = lat_small.get() as f64 / 8.0;
        let per_byte_big = lat_big.get() as f64 / 128.0;
        assert!(per_byte_big < per_byte_small / 3.0);
    }

    #[test]
    fn burst_split_at_tcsm_limit() {
        let mut ram = HyperRam::new(HyperRamConfig::default());
        let mut buf = vec![0u8; 256]; // two 128-byte bursts
        ram.read(0, &mut buf).unwrap();
        assert_eq!(ram.stats().get("bursts"), 2);
    }

    #[test]
    fn burst_split_at_chip_boundary() {
        let cfg = HyperRamConfig {
            chips_per_bus: 2,
            chip_bytes: 1024,
            ..HyperRamConfig::default()
        };
        let mut ram = HyperRam::new(cfg);
        let mut buf = [0u8; 64];
        ram.read(1024 - 32, &mut buf).unwrap(); // straddles CS0/CS1
        assert_eq!(ram.stats().get("bursts"), 2);
    }

    #[test]
    fn chip_boundary_crossing_pays_per_segment_latency() {
        // A burst straddling a CS-decode boundary is two HyperBUS
        // transactions: the controller must deassert CS, so the second
        // segment re-pays the full command/address + row (tACC) latency.
        let cfg = HyperRamConfig {
            chips_per_bus: 2,
            chip_bytes: 1024,
            ..HyperRamConfig::default()
        };
        let mut ram = HyperRam::new(cfg.clone());
        let mut buf = [0u8; 64];
        let crossing = ram.read(1024 - 32, &mut buf).unwrap();
        let flat = ram.read(0, &mut buf).unwrap();
        // Identical length and data cycles; the crossing burst differs by
        // exactly one extra initial latency, seen from the SoC domain.
        let init_soc = convert_freq(
            Cycles::new(ram.initial_latency()),
            cfg.bus_freq,
            cfg.soc_freq,
        );
        assert_eq!(crossing.get() - flat.get(), init_soc.get());
        // Timing identity: the crossing burst costs the same as issuing its
        // two segments as separate transactions, minus the one duplicated
        // controller front-end.
        let mut half = [0u8; 32];
        let seg0 = ram.read(1024 - 32, &mut half).unwrap();
        let seg1 = ram.read(1024, &mut half).unwrap();
        assert_eq!(
            crossing + Cycles::new(cfg.frontend_cycles),
            seg0 + seg1,
            "crossing burst must decompose into per-segment transactions"
        );
    }

    #[test]
    fn chip_boundary_and_tcsm_splits_compose() {
        // 160 bytes starting 32 before a CS boundary: segment 1 is capped
        // by the boundary (32 B), segment 2 by the tCSM limit (128 B).
        let cfg = HyperRamConfig {
            chips_per_bus: 4,
            chip_bytes: 1024,
            ..HyperRamConfig::default()
        };
        let mut ram = HyperRam::new(cfg.clone());
        let mut buf = [0u8; 160];
        let lat = ram.read(1024 - 32, &mut buf).unwrap();
        assert_eq!(ram.stats().get("bursts"), 2);
        // 2 × init + (16 + 64) data bus cycles, doubled into the SoC
        // domain, plus one front-end.
        let bus = 2 * ram.initial_latency() + 16 + 64;
        assert_eq!(lat.get(), 2 * bus + cfg.frontend_cycles);
    }

    #[test]
    fn dual_bus_halves_data_cycles() {
        let single = HyperRamConfig::default();
        let dual = HyperRamConfig {
            dual_bus: true,
            ..HyperRamConfig::default()
        };
        let mut r1 = HyperRam::new(single);
        let mut r2 = HyperRam::new(dual);
        let mut buf = vec![0u8; 128];
        let l1 = r1.read(0, &mut buf).unwrap();
        let l2 = r2.read(0, &mut buf).unwrap();
        assert!(l2 < l1);
        // Data phase halves: 64 vs 32 bus cycles; initial latency unchanged.
        assert_eq!(l1.get() - l2.get(), 2 * 32);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ram = HyperRam::new(HyperRamConfig::default());
        let total = ram.size_bytes();
        assert!(ram.write(total - 2, &[0; 4]).is_err());
    }

    #[test]
    fn relaxed_latency_configuration() {
        let cfg = HyperRamConfig {
            fixed_2x_latency: false,
            ..HyperRamConfig::default()
        };
        let mut ram = HyperRam::new(cfg);
        let mut b = [0u8; 8];
        // CA(3) + tACC(6) + 4 = 13 bus cycles = 26 SoC + 4.
        assert_eq!(ram.read(0, &mut b).unwrap().get(), 30);
    }
}
