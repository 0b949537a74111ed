//! The CVA6 host wrapper: RV64 core + L1 caches + domain crossing.

use hulkv_mem::{shared, Cache, CacheConfig, ClockBridge, MemoryDevice, SharedMem, WritePolicy};
use hulkv_rv::{Core, CoreBus, RvError};
use hulkv_sim::{Cycles, Freq, SharedTracer, SimError, Stats, Track};

/// Static configuration of the host subsystem.
///
/// # Example
///
/// ```
/// use hulkv_host::HostConfig;
///
/// let cfg = HostConfig::default();
/// assert_eq!(cfg.l1i_bytes, 16 * 1024);
/// assert_eq!(cfg.l1d_bytes, 32 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostConfig {
    /// Core clock (900 MHz worst-corner in GF22FDX).
    pub freq: Freq,
    /// SoC interconnect clock (450 MHz).
    pub soc_freq: Freq,
    /// L1 instruction cache size (16 kB).
    pub l1i_bytes: usize,
    /// L1 data cache size (32 kB).
    pub l1d_bytes: usize,
    /// Cache line size (64 B, matching the LLC block).
    pub line_bytes: usize,
    /// Whether the L1 caches are enabled (disabled for raw-latency studies).
    pub caches_enabled: bool,
    /// Start of cacheable memory: addresses below this are device regions
    /// (CLINT, PLIC, peripherals) accessed uncached, as CVA6's physical
    /// memory attributes mandate.
    pub cacheable_start: u64,
    /// Whether the decoded-instruction cache fast path is enabled.
    /// Config-carried (not just a runtime toggle) so a machine rebuilt
    /// from a snapshot's embedded configuration replays identically.
    pub decode_cache: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            freq: Freq::mhz(900),
            soc_freq: Freq::mhz(450),
            l1i_bytes: 16 * 1024,
            l1d_bytes: 32 * 1024,
            line_bytes: 64,
            caches_enabled: true,
            cacheable_start: 0x1C00_0000,
            decode_cache: true,
        }
    }
}

/// The CVA6 host subsystem: core, L1 caches and the clock bridge onto the
/// SoC interconnect. See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Host {
    cfg: HostConfig,
    core: Core,
    l1i: Cache,
    l1d: Cache,
    bus: SharedMem,
    bridge: SharedMem,
    stats: Stats,
}

impl Host {
    /// Builds the host over the SoC interconnect `bus` (whose latencies are
    /// in the SoC clock domain).
    ///
    /// # Panics
    ///
    /// Panics on degenerate cache geometry (sizes not divisible into
    /// power-of-two sets).
    pub fn new(cfg: HostConfig, bus: SharedMem) -> Self {
        let bridge: SharedMem = shared(ClockBridge::new(bus.clone(), cfg.soc_freq, cfg.freq));
        let l1i = Cache::new(
            CacheConfig {
                name: "l1i".into(),
                ways: 4,
                sets: cfg.l1i_bytes / cfg.line_bytes / 4,
                line_bytes: cfg.line_bytes,
                hit_latency: Cycles::new(1),
                write_policy: WritePolicy::WriteThrough,
                write_allocate: false,
                write_buffer: true,
            },
            bridge.clone(),
        )
        .expect("L1I geometry");
        let l1d = Cache::new(
            CacheConfig {
                name: "l1d".into(),
                ways: 8,
                sets: cfg.l1d_bytes / cfg.line_bytes / 8,
                line_bytes: cfg.line_bytes,
                // CVA6's L1D is write-through with a merging store buffer.
                hit_latency: Cycles::new(1),
                write_policy: WritePolicy::WriteThrough,
                write_allocate: false,
                write_buffer: true,
            },
            bridge.clone(),
        )
        .expect("L1D geometry");
        let mut core = Core::cva6();
        core.set_decode_cache(cfg.decode_cache);
        Host {
            cfg,
            core,
            l1i,
            l1d,
            bus,
            bridge,
            stats: Stats::new("host"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Attaches a structured SoC tracer: the core records retires on the
    /// host-hart track and the L1 caches record hits/misses/evictions on
    /// their own tracks.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.core.set_tracer(tracer.clone());
        self.l1i.set_tracer(tracer.clone(), Track::HostL1I);
        self.l1d.set_tracer(tracer, Track::HostL1D);
    }

    /// The CVA6 core.
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable core access (set pc, registers, CSRs).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Enables or disables the core's decoded-instruction cache and fetch
    /// µTLB. Used by the differential fuzzer to run fast-path and
    /// reference configurations of the same host side by side.
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.core.set_decode_cache(enabled);
    }

    /// L1 data cache statistics.
    pub fn l1d_stats(&self) -> &Stats {
        self.l1d.stats()
    }

    /// L1 instruction cache statistics.
    pub fn l1i_stats(&self) -> &Stats {
        self.l1i.stats()
    }

    /// L1 data cache miss ratio.
    pub fn l1d_miss_ratio(&self) -> f64 {
        self.l1d.miss_ratio()
    }

    /// The SoC interconnect this host is attached to.
    pub fn bus(&self) -> SharedMem {
        self.bus.clone()
    }

    /// Writes a program into SoC memory through the interconnect backdoor
    /// (no cycles charged — this models the boot loader) and invalidates
    /// the L1 instruction cache, as the `fence.i` after a code load would.
    /// The data cache is left warm on purpose: reloading code must not
    /// perturb data-locality experiments.
    ///
    /// # Errors
    ///
    /// Propagates interconnect routing errors.
    pub fn load_program(&mut self, addr: u64, words: &[u32]) -> Result<(), SimError> {
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.bus.borrow_mut().write(addr, &bytes)?;
        self.l1i.flush()?;
        // The L1I flush already bumps the fetch epoch, but dropping the
        // decoded entries explicitly keeps the invalidation counter honest.
        self.core.invalidate_decoded();
        Ok(())
    }

    /// Writes raw data into SoC memory through the backdoor.
    ///
    /// # Errors
    ///
    /// Propagates interconnect routing errors.
    pub fn write_mem(&mut self, addr: u64, data: &[u8]) -> Result<(), SimError> {
        self.bus.borrow_mut().write(addr, data)?;
        Ok(())
    }

    /// Reads raw data from SoC memory through the backdoor.
    ///
    /// # Errors
    ///
    /// Propagates interconnect routing errors.
    pub fn read_mem(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), SimError> {
        self.bus.borrow_mut().read(addr, buf)?;
        Ok(())
    }

    /// Invalidates both L1 caches (writing back nothing — they are
    /// write-through), e.g. between benchmark configurations.
    ///
    /// # Errors
    ///
    /// Propagates backing errors (none occur for write-through caches).
    pub fn flush_l1(&mut self) -> Result<(), SimError> {
        self.l1i.flush()?;
        self.l1d.flush()?;
        Ok(())
    }

    /// Runs the core until `ebreak`, returning consumed core cycles.
    ///
    /// # Errors
    ///
    /// Propagates execution errors; [`RvError::Timeout`] after
    /// `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<Cycles, RvError> {
        let mut view = HostBus {
            l1i: &mut self.l1i,
            l1d: &mut self.l1d,
            bridge: &self.bridge,
            caches_enabled: self.cfg.caches_enabled,
            cacheable_start: self.cfg.cacheable_start,
        };
        let spent = self.core.run(&mut view, max_cycles)?;
        self.stats.add("run_cycles", spent.get());
        Ok(spent)
    }

    /// Runs the core until `ebreak` or until its *total* cycle count
    /// reaches `target`, whichever comes first; returns whether it halted.
    /// The timeline sampler drives a run window by window through this —
    /// the step sequence is the one [`Host::run`] would execute, so
    /// sampled and unsampled runs are cycle-bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates execution errors (never a timeout).
    pub fn run_until_cycle(&mut self, target: u64) -> Result<bool, RvError> {
        let before = self.core.cycles();
        let mut view = HostBus {
            l1i: &mut self.l1i,
            l1d: &mut self.l1d,
            bridge: &self.bridge,
            caches_enabled: self.cfg.caches_enabled,
            cacheable_start: self.cfg.cacheable_start,
        };
        let halted = self.core.run_until_cycle(&mut view, target)?;
        self.stats
            .add("run_cycles", (self.core.cycles() - before).get());
        Ok(halted)
    }

    /// FNV-1a digest of the host's mutable state: core architecture plus
    /// both L1 caches' microarchitectural state.
    pub fn state_digest(&self) -> u64 {
        hulkv_sim::Fnv64::new()
            .write_u64(self.core.state_digest())
            .write_u64(self.l1i.state_digest())
            .write_u64(self.l1d.state_digest())
            .finish()
    }

    /// Serializes core, both L1 caches and the host stats into `snap`. The
    /// interconnect and its devices belong to the SoC and are snapshotted
    /// there.
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::stats_to_json;
        let core = self.core.snapshot_into(snap);
        let l1i = self.l1i.snapshot_into(snap);
        let l1d = self.l1d.snapshot_into(snap);
        hulkv_sim::Json::obj([
            ("core", core),
            ("l1i", l1i),
            ("l1d", l1d),
            ("stats", stats_to_json(&self.stats)),
        ])
    }

    /// Restores state written by [`Host::snapshot_into`] into a host built
    /// with the same configuration.
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
        self.core.restore_from(snap, get(j, "core")?)?;
        self.l1i.restore_from(snap, get(j, "l1i")?)?;
        self.l1d.restore_from(snap, get(j, "l1d")?)?;
        restore_stats(&mut self.stats, get(j, "stats")?)
    }

    /// Executes a single instruction (for fine-grain co-simulation with the
    /// cluster in the SoC crate).
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn step(&mut self) -> Result<hulkv_rv::StepOutcome, RvError> {
        let mut view = HostBus {
            l1i: &mut self.l1i,
            l1d: &mut self.l1d,
            bridge: &self.bridge,
            caches_enabled: self.cfg.caches_enabled,
            cacheable_start: self.cfg.cacheable_start,
        };
        self.core.step(&mut view)
    }
}

struct HostBus<'a> {
    l1i: &'a mut Cache,
    l1d: &'a mut Cache,
    bridge: &'a SharedMem,
    caches_enabled: bool,
    cacheable_start: u64,
}

impl HostBus<'_> {
    #[inline(always)]
    fn cacheable(&self, addr: u64) -> bool {
        self.caches_enabled && addr >= self.cacheable_start
    }
}

impl CoreBus for HostBus<'_> {
    #[inline]
    fn fetch(&mut self, addr: u64) -> Result<(u32, Cycles), SimError> {
        let mut b = [0u8; 4];
        let lat = if self.cacheable(addr) {
            self.l1i.read(addr, &mut b)?
        } else {
            self.bridge.borrow_mut().read(addr, &mut b)?
        };
        Ok((u32::from_le_bytes(b), lat.saturating_sub(Cycles::new(1))))
    }

    // Always inlined: it runs on every replayed instruction, and
    // `Cache::probe_fetch` is a short tag scan of one set.
    #[inline(always)]
    fn fetch_touch(&mut self, addr: u64) -> bool {
        // Only cacheable code can replay: an uncached (device-region) fetch
        // always pays the bridge latency, so it is never installed anyway.
        self.cacheable(addr) && self.l1i.probe_fetch(addr, 4)
    }

    #[inline]
    fn fetch_epoch(&self) -> u64 {
        self.l1i.epoch()
    }

    #[inline]
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        let lat = if self.cacheable(addr) {
            self.l1d.read(addr, buf)?
        } else {
            self.bridge.borrow_mut().read(addr, buf)?
        };
        Ok(lat.saturating_sub(Cycles::new(1)))
    }

    #[inline]
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<Cycles, SimError> {
        let lat = if self.cacheable(addr) {
            self.l1d.write(addr, data)?
        } else {
            self.bridge.borrow_mut().write(addr, data)?
        };
        Ok(lat.saturating_sub(Cycles::new(1)))
    }

    fn hpm_icache_misses(&self) -> u64 {
        self.l1i.stats().get("misses")
    }

    fn hpm_dcache_misses(&self) -> u64 {
        self.l1d.stats().get("misses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hulkv_mem::{Bus, Sram};
    use hulkv_rv::{Asm, Reg, Xlen};

    fn host_with(dram_latency: u64, caches: bool) -> Host {
        let mut bus = Bus::new("axi", Cycles::new(2));
        bus.map(
            "dram",
            0x8000_0000,
            shared(Sram::new("dram", 1 << 20, Cycles::new(dram_latency))),
        )
        .unwrap();
        let cfg = HostConfig {
            caches_enabled: caches,
            ..HostConfig::default()
        };
        Host::new(cfg, shared(bus))
    }

    fn run_program(host: &mut Host, build: impl FnOnce(&mut Asm)) -> Cycles {
        let mut a = Asm::new(Xlen::Rv64);
        build(&mut a);
        a.ebreak();
        host.load_program(0x8000_0000, &a.assemble().unwrap())
            .unwrap();
        host.core_mut().set_pc(0x8000_0000);
        host.core_mut().set_reg(Reg::Sp, 0x8008_0000);
        host.run(10_000_000).unwrap()
    }

    #[test]
    fn executes_through_cache_hierarchy() {
        let mut host = host_with(30, true);
        run_program(&mut host, |a| {
            a.li(Reg::T0, 0x8001_0000u32 as i64);
            a.li(Reg::T1, 0xABCD);
            a.sd(Reg::T1, Reg::T0, 0);
            a.ld(Reg::A0, Reg::T0, 0);
        });
        assert_eq!(host.core().reg(Reg::A0), 0xABCD);
        assert!(host.l1d_stats().get("misses") >= 1);
        assert!(host.l1i_stats().get("hits") > 0);
    }

    #[test]
    fn caches_accelerate_repeated_access() {
        let body = |a: &mut Asm| {
            a.li(Reg::T0, 0x8001_0000u32 as i64);
            a.li(Reg::T2, 200);
            let top = a.label();
            a.bind(top);
            a.ld(Reg::T1, Reg::T0, 0);
            a.addi(Reg::T2, Reg::T2, -1);
            a.bnez(Reg::T2, top);
        };
        let mut cached = host_with(30, true);
        let c1 = run_program(&mut cached, body);
        let mut uncached = host_with(30, false);
        let c2 = run_program(&mut uncached, body);
        assert!(c2.get() > 3 * c1.get(), "cached {c1} vs uncached {c2}");
    }

    #[test]
    fn write_through_visible_on_bus() {
        let mut host = host_with(5, true);
        run_program(&mut host, |a| {
            a.li(Reg::T0, 0x8002_0000u32 as i64);
            a.li(Reg::T1, 77);
            a.sw(Reg::T1, Reg::T0, 0);
        });
        let mut b = [0u8; 4];
        host.read_mem(0x8002_0000, &mut b).unwrap();
        assert_eq!(u32::from_le_bytes(b), 77);
    }

    #[test]
    fn decode_cache_is_cycle_neutral_through_cache_hierarchy() {
        let body = |a: &mut Asm| {
            a.li(Reg::T0, 0x8001_0000u32 as i64);
            a.li(Reg::T2, 500);
            let top = a.label();
            a.bind(top);
            a.ld(Reg::T1, Reg::T0, 0);
            a.addi(Reg::T1, Reg::T1, 3);
            a.sd(Reg::T1, Reg::T0, 0);
            a.addi(Reg::T2, Reg::T2, -1);
            a.bnez(Reg::T2, top);
        };
        let mut on = host_with(30, true);
        let c_on = run_program(&mut on, body);
        let mut off = host_with(30, true);
        off.core_mut().set_decode_cache(false);
        let c_off = run_program(&mut off, body);
        assert_eq!(c_on, c_off, "decode cache must not change timing");
        assert_eq!(on.core().reg(Reg::T1), off.core().reg(Reg::T1));
        assert!(on.core().stats().get("decode_hits") > 1000);
        assert_eq!(off.core().stats().get("decode_hits"), 0);
    }

    #[test]
    fn hpm_decode_events_unchanged_with_superblocks_armed() {
        // The guest programs the HPM decode-cache events and reads them
        // back; the inline replay loop must leave every guest-visible
        // figure — the event counts, cycles, and architectural state —
        // bit-identical to the plain step loop.
        use hulkv_rv::csr::addr;
        let body = |a: &mut Asm| {
            a.li(Reg::T0, 4); // HpmEvent::DecodeHit
            a.csrw(addr::MHPMEVENT3, Reg::T0);
            a.li(Reg::T0, 5); // HpmEvent::DecodeMiss
            a.csrw(addr::MHPMEVENT3 + 1, Reg::T0); // mhpmevent4
            a.li(Reg::T2, 300);
            let top = a.label();
            a.bind(top);
            a.addi(Reg::T1, Reg::T1, 3);
            a.xor(Reg::A2, Reg::A2, Reg::T1);
            a.addi(Reg::T2, Reg::T2, -1);
            a.bnez(Reg::T2, top);
            a.csrr(Reg::A0, addr::MHPMCOUNTER3);
            a.csrr(Reg::A1, addr::MHPMCOUNTER3 + 1);
        };
        let mut on = host_with(30, true);
        let c_on = run_program(&mut on, body);
        let mut off = host_with(30, true);
        off.core_mut().set_superblocks(false);
        let c_off = run_program(&mut off, body);
        assert_eq!(c_on, c_off, "the inline loop must not change timing");
        assert_eq!(
            on.core().reg(Reg::A0),
            off.core().reg(Reg::A0),
            "DecodeHit HPM"
        );
        assert_eq!(
            on.core().reg(Reg::A1),
            off.core().reg(Reg::A1),
            "DecodeMiss HPM"
        );
        assert!(on.core().reg(Reg::A0) > 500, "loop must run from the cache");
        assert_eq!(on.core().state_digest(), off.core().state_digest());
        assert!(on.core().stats().get("sb_instrs_retired") > 500);
        assert_eq!(off.core().stats().get("sb_instrs_retired"), 0);
    }

    #[test]
    fn miss_ratio_reflects_stride() {
        // Stride = line size -> every access a fresh line.
        let mut host = host_with(10, true);
        run_program(&mut host, |a| {
            a.li(Reg::T0, 0x8001_0000u32 as i64);
            a.li(Reg::T2, 64);
            let top = a.label();
            a.bind(top);
            a.ld(Reg::T1, Reg::T0, 0);
            a.addi(Reg::T0, Reg::T0, 64);
            a.addi(Reg::T2, Reg::T2, -1);
            a.bnez(Reg::T2, top);
        });
        assert!(host.l1d_miss_ratio() > 0.9);
        host.flush_l1().unwrap();
    }
}
