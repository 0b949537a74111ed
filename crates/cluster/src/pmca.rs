//! The cluster model: cores, TCDM, two-level I-cache, DMA, event unit.

use crate::engine;
use hulkv_mem::{
    Cache, CacheConfig, DmaEngine, SharedMem, Sram, Transfer1d, Transfer2d, WritePolicy,
};
use hulkv_rv::{Reg, RvError};
use hulkv_sim::{convert_freq, Cycles, EngineProfile, Freq, SharedTracer, SimError, Stats, Track};
use std::cell::RefCell;
use std::rc::Rc;

/// Cluster-local base address of the L1 scratchpad (TCDM).
pub const TCDM_BASE: u64 = 0x1000_0000;

/// Cluster-local base address of the per-core performance-counter unit,
/// a PULP-style peripheral window each core sees privately (the same
/// address reads *its own* counters, like `mhartid`-relative CSRs).
///
/// Word registers, read-only (stores to the window are ignored, as on the
/// real peripheral where the counters are bus-owned):
///
/// | offset | counter |
/// |--------|---------|
/// | 0x00   | TCDM data accesses issued by this core |
/// | 0x04   | TCDM bank-conflict stall cycles |
/// | 0x08   | private-I$ hits |
/// | 0x0C   | private-I$ misses |
/// | 0x10   | external (AXI) data accesses |
/// | 0x14   | external-access stall cycles (cluster domain) |
pub const PERF_BASE: u64 = 0x1020_0000;

/// Size of the perf-counter register window: six word registers.
pub const PERF_WINDOW_BYTES: u64 = 24;

/// Static configuration of the PMCA.
///
/// # Example
///
/// ```
/// use hulkv_cluster::ClusterConfig;
///
/// let cfg = ClusterConfig::default();
/// assert_eq!(cfg.cores, 8);
/// assert_eq!(cfg.tcdm_bytes(), 128 * 1024); // 16 x 8 kB banks
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of RV32 cores (8 in HULK-V).
    pub cores: usize,
    /// Number of word-interleaved TCDM banks (16).
    pub banks: usize,
    /// Bytes per bank (8 kB).
    pub bank_bytes: usize,
    /// Private per-core instruction cache size (512 B).
    pub icache_private_bytes: usize,
    /// Shared instruction cache size (4 kB).
    pub icache_shared_bytes: usize,
    /// Cluster clock (400 MHz in the ASIC).
    pub freq: Freq,
    /// SoC interconnect clock, for AXI-port domain crossing (450 MHz).
    pub soc_freq: Freq,
    /// Fixed cost of an event-unit barrier at team join.
    pub barrier_cycles: u64,
    /// Per-core stack carved from the top of the TCDM.
    pub stack_bytes: usize,
    /// Whether the cores use the simulator's decoded-instruction cache
    /// (host-side fast path; cycle-neutral, off only for ablation runs).
    pub decode_cache: bool,
    /// Cycle quantum of the deterministic team engine: cores simulate in
    /// lock-step windows of this many cluster cycles, with all
    /// shared-state interactions resolved canonically at the boundaries.
    ///
    /// For a fixed quantum, results are bit-identical run-to-run. The
    /// quantum itself is a *model* parameter (serialized with the SoC
    /// config): it sets the granularity at which one core's TCDM stores
    /// become visible to its peers, so programs that race on shared words
    /// can legitimately compute different values under different quanta.
    /// Race-free programs (and all timing, conflict, and cache counters)
    /// are quantum-invariant.
    pub quantum_cycles: u64,
    /// Ignored: the team engine steps every core on the calling thread.
    /// The field stays only because the `bench/` package assigns it, and
    /// `SocConfig` keeps its `workers` key so serialized configs
    /// round-trip unchanged.
    pub workers: usize,
    /// Enables the word-granularity TCDM race sanitizer: each core's
    /// quantum logs a per-page read/write shadow, and the canonical merge
    /// flags cross-hart conflicting accesses within the team run (the
    /// whole run is one inter-sync window — quantum boundaries are *not*
    /// synchronization). Conflicts surface as [`TeamResult::races`], a
    /// `TraceEvent::TcdmRace` per conflicting word, and a `tcdm_races`
    /// stat. Purely observational: guest cycles, results and state
    /// digests are unchanged whether it is on or off.
    pub race_sanitizer: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cores: 8,
            banks: 16,
            bank_bytes: 8 * 1024,
            icache_private_bytes: 512,
            icache_shared_bytes: 4 * 1024,
            freq: Freq::mhz(400),
            soc_freq: Freq::mhz(450),
            barrier_cycles: 8,
            stack_bytes: 1024,
            decode_cache: true,
            quantum_cycles: 4096,
            workers: 0,
            race_sanitizer: false,
        }
    }
}

impl ClusterConfig {
    /// Total TCDM capacity.
    pub fn tcdm_bytes(&self) -> usize {
        self.banks * self.bank_bytes
    }
}

/// End-of-run snapshot of one core's performance-counter unit plus its
/// timing-stable core-side events — the simulator-side truth the guest's
/// own [`PERF_BASE`] window and HPM CSR reads are cross-checked against.
///
/// Only timing-stable events live here (identical whether the simulator's
/// decoded-instruction fast path is on or off), so whole-[`TeamResult`]
/// equality stays meaningful for differential harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorePerf {
    /// TCDM data accesses the core issued.
    pub tcdm_accesses: u64,
    /// TCDM bank-conflict stall cycles charged to the core.
    pub tcdm_conflict_stalls: u64,
    /// Private instruction-cache hits.
    pub icache_hits: u64,
    /// Private instruction-cache misses.
    pub icache_misses: u64,
    /// Data accesses that left the cluster through the AXI master port.
    pub ext_accesses: u64,
    /// Stall cycles those external accesses cost, in cluster cycles.
    pub ext_stall_cycles: u64,
    /// Xpulp hardware-loop back-edges taken.
    pub hwloop_iters: u64,
    /// Taken branches.
    pub taken_branches: u64,
}

/// One TCDM word with cross-hart conflicting accesses, reported by the
/// race sanitizer ([`ClusterConfig::race_sanitizer`]): at least two harts
/// wrote it, or one hart wrote it and another read it, within the same
/// inter-sync window. The masks are the *final* cumulative access sets of
/// the run, so the reported race set is invariant across core step orders
/// and quantum lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceRecord {
    /// SoC address of the conflicting TCDM word.
    pub addr: u64,
    /// Bitmask of harts that wrote the word.
    pub writers: u32,
    /// Bitmask of harts that read the word.
    pub readers: u32,
}

/// Result of one fork/join team execution on the cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeamResult {
    /// Team wall-clock, in cluster cycles: `max` over the cores plus the
    /// event-unit barrier.
    pub cycles: Cycles,
    /// Cycles each participating core spent.
    pub per_core: Vec<Cycles>,
    /// Instructions retired by each core.
    pub per_core_instret: Vec<u64>,
    /// Final architectural state digest of each core
    /// ([`Core::state_digest`]): lets differential harnesses compare
    /// whole-team outcomes without re-running cores.
    pub per_core_state: Vec<u64>,
    /// Sum of GOps-weighted arithmetic operations across the team.
    pub arith_ops: u64,
    /// Each core's final performance-counter snapshot.
    pub per_core_perf: Vec<CorePerf>,
    /// Conflicting TCDM words the race sanitizer observed, ascending by
    /// address. Always empty when [`ClusterConfig::race_sanitizer`] is
    /// off.
    pub races: Vec<RaceRecord>,
}

/// The Programmable Multi-Core Accelerator.
///
/// Created over a [`SharedMem`] giving access to the SoC address space
/// through the cluster's AXI master port (in HULK-V, filtered by an IOPMP
/// that the host configures — modeled in the SoC crate). See the
/// [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) tcdm: SharedMem,
    // Typed alias of `tcdm` so snapshots can reach the SRAM backdoor
    // without going through `MemoryDevice::read` (which would bump stats).
    pub(crate) tcdm_typed: Rc<RefCell<Sram>>,
    pub(crate) ext: SharedMem,
    // Kept as the concrete type (not `SharedMem`) so [`Cluster::flush_icache`]
    // can reach `Cache::flush`; clones coerce to `SharedMem` where needed.
    pub(crate) shared_icache: Rc<RefCell<Cache>>,
    pub(crate) dma: DmaEngine,
    pub(crate) stats: Stats,
    pub(crate) busy_cycles: Cycles,
    pub(crate) tracer: Option<SharedTracer>,
    // Power-cycled cores kept between teams so their megabyte-class decode
    // storage survives team boundaries (see [`hulkv_rv::Core::reset_ri5cy`]).
    // Pure simulator-side recycling: never snapshotted, and a team launched
    // from recycled cores is bit-identical to one from fresh cores.
    pub(crate) spare_cores: Vec<hulkv_rv::Core>,
    /// Recycled backing buffer for the per-team start-of-team TCDM image
    /// (reclaimed from the `Arc` once the last core's view drops its
    /// clone), so a team launch costs one memcpy instead of a fresh
    /// 128 KiB allocation and its page faults.
    pub(crate) spare_image: Option<Vec<u8>>,
    /// Optional wall-clock self-profile for the quantum engine. Strictly
    /// host-side: recording never touches `stats`, cycles, or digests.
    pub(crate) profile: Option<EngineProfile>,
}

impl Cluster {
    /// Builds the cluster; `ext` is the SoC-side interconnect reachable
    /// through the AXI master port (addresses pass through unchanged).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero cores or banks).
    pub fn new(cfg: ClusterConfig, ext: SharedMem) -> Self {
        assert!(cfg.cores > 0 && cfg.banks > 0, "degenerate cluster config");
        let tcdm_typed = Rc::new(RefCell::new(Sram::new(
            "tcdm",
            cfg.tcdm_bytes(),
            Cycles::new(1),
        )));
        let tcdm: SharedMem = tcdm_typed.clone();
        let shared_icache = Rc::new(RefCell::new(
            Cache::new(
                CacheConfig {
                    name: "icache_l1_5".into(),
                    ways: 2,
                    sets: (cfg.icache_shared_bytes / 32 / 2)
                        .max(1)
                        .next_power_of_two(),
                    line_bytes: 32,
                    hit_latency: Cycles::new(1),
                    write_policy: WritePolicy::WriteThrough,
                    write_allocate: false,
                    write_buffer: true,
                },
                ext.clone(),
            )
            .expect("shared I-cache geometry"),
        ));
        Cluster {
            cfg,
            tcdm,
            tcdm_typed,
            ext,
            shared_icache,
            dma: DmaEngine::new("cluster_dma", Cycles::new(16), 64),
            stats: Stats::new("cluster"),
            busy_cycles: Cycles::ZERO,
            tracer: None,
            spare_cores: Vec::new(),
            spare_image: None,
            profile: None,
        }
    }

    /// Attaches a wall-clock self-profile: every subsequent team records
    /// its sync-round wall time, core-stepping time, and quantum count
    /// onto `profile`. Guest-visible state is untouched — a profiled run
    /// is bit-identical to an unprofiled one.
    pub fn set_profile(&mut self, profile: EngineProfile) {
        self.profile = Some(profile);
    }

    /// The attached engine self-profile, if any.
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.profile.as_ref()
    }

    /// Attaches a structured SoC tracer: the cluster DMA records its
    /// transfers, every core of each subsequent team records retires on
    /// its own per-hart track, and the external port (in the full SoC, the
    /// IOPMP) records protection events.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.dma.set_tracer(tracer.clone(), Track::ClusterDma);
        self.ext.borrow_mut().attach_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Activity counters (team launches, DMA traffic, TCDM conflicts…).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Cluster-domain cycles spent computing so far (for utilization).
    pub fn busy_cycles(&self) -> Cycles {
        self.busy_cycles
    }

    /// Resets activity counters and the busy-cycle accumulator.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.busy_cycles = Cycles::ZERO;
    }

    /// FNV-1a digest of the cluster-resident state: TCDM contents, the
    /// shared L1.5 I-cache, and the busy-cycle accumulator. Cores are
    /// transient (created per [`Cluster::run_team`]) so none exist to
    /// digest between team runs.
    pub fn state_digest(&self) -> u64 {
        hulkv_sim::Fnv64::new()
            .write_u64(self.tcdm_typed.borrow().content_digest())
            .write_u64(self.shared_icache.borrow().state_digest())
            .write_u64(self.busy_cycles.get())
            .finish()
    }

    /// Serializes the cluster into `snap`: TCDM contents + stats, the
    /// shared I-cache, DMA-engine stats, activity counters and the
    /// busy-cycle accumulator. Valid only between team runs (cores are
    /// transient per [`Cluster::run_team`]).
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::{hex, stats_to_json};
        let tcdm = self.tcdm_typed.borrow().snapshot_into(snap);
        let icache = self.shared_icache.borrow().snapshot_into(snap);
        hulkv_sim::Json::obj([
            ("tcdm", tcdm),
            ("shared_icache", icache),
            ("dma", self.dma.snapshot_json()),
            ("stats", stats_to_json(&self.stats)),
            ("busy_cycles", hex(self.busy_cycles.get())),
        ])
    }

    /// Restores state written by [`Cluster::snapshot_into`].
    ///
    /// # Errors
    ///
    /// On a malformed or geometry-mismatched section.
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        use hulkv_sim::snap::{get, get_u64, restore_stats};
        self.tcdm_typed
            .borrow_mut()
            .restore_from(snap, get(j, "tcdm")?)?;
        self.shared_icache
            .borrow_mut()
            .restore_from(snap, get(j, "shared_icache")?)?;
        self.dma.restore_json(get(j, "dma")?)?;
        restore_stats(&mut self.stats, get(j, "stats")?)?;
        self.busy_cycles = Cycles::new(get_u64(j, "busy_cycles")?);
        Ok(())
    }

    /// Backdoor TCDM write (test setup and host-side tile pushes go through
    /// [`Cluster::dma_to_tcdm`] instead).
    ///
    /// # Errors
    ///
    /// Propagates TCDM range errors.
    pub fn tcdm_write(&mut self, offset: u64, data: &[u8]) -> Result<(), SimError> {
        self.tcdm.borrow_mut().write(offset, data).map(|_| ())
    }

    /// Backdoor TCDM read.
    ///
    /// # Errors
    ///
    /// Propagates TCDM range errors.
    pub fn tcdm_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        self.tcdm.borrow_mut().read(offset, buf).map(|_| ())
    }

    /// Side-effect-free TCDM read (no latency, no access counters) — the
    /// debugger's inspection path.
    ///
    /// # Errors
    ///
    /// Propagates range errors.
    pub fn tcdm_peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        use hulkv_mem::MemoryDevice;
        self.tcdm_typed.borrow().peek(offset, buf)
    }

    /// Flushes the shared L1.5 instruction cache — the PULP runtime's
    /// icache-flush doorbell. Required after cluster code in the L2SPM is
    /// modified from outside the cluster (e.g. the host patching a loaded
    /// kernel): the per-team private I-caches start cold, but this cache
    /// persists across [`Cluster::run_team`] calls and would otherwise
    /// serve stale instruction bytes.
    ///
    /// # Errors
    ///
    /// Propagates backing errors (none occur: the cache is write-through).
    pub fn flush_icache(&mut self) -> Result<(), SimError> {
        self.shared_icache.borrow_mut().flush().map(|_| ())
    }

    /// Backdoor TCDM `u32` read.
    ///
    /// # Errors
    ///
    /// Propagates TCDM range errors.
    pub fn tcdm_read_u32(&mut self, offset: u64) -> Result<u32, SimError> {
        Ok(self.tcdm.borrow_mut().read_u32(offset)?.0)
    }

    /// DMA a contiguous block from the SoC address space into the TCDM.
    /// Returns the transfer time in cluster cycles.
    ///
    /// # Errors
    ///
    /// Propagates range errors from either side.
    pub fn dma_to_tcdm(
        &mut self,
        ext_addr: u64,
        tcdm_offset: u64,
        bytes: usize,
    ) -> Result<Cycles, SimError> {
        let lat = self.dma.run_1d(
            &self.ext,
            &self.tcdm,
            Transfer1d {
                src: ext_addr,
                dst: tcdm_offset,
                bytes,
            },
        )?;
        self.stats.add("dma_bytes_in", bytes as u64);
        Ok(convert_freq(lat, self.cfg.soc_freq, self.cfg.freq))
    }

    /// DMA a contiguous block from the TCDM out to the SoC address space.
    ///
    /// # Errors
    ///
    /// Propagates range errors from either side.
    pub fn dma_from_tcdm(
        &mut self,
        tcdm_offset: u64,
        ext_addr: u64,
        bytes: usize,
    ) -> Result<Cycles, SimError> {
        let lat = self.dma.run_1d(
            &self.tcdm,
            &self.ext,
            Transfer1d {
                src: tcdm_offset,
                dst: ext_addr,
                bytes,
            },
        )?;
        self.stats.add("dma_bytes_out", bytes as u64);
        Ok(convert_freq(lat, self.cfg.soc_freq, self.cfg.freq))
    }

    /// 2D-DMA a tile (e.g. a sub-matrix) from the SoC address space into the
    /// TCDM — the access pattern DORY-style tiling leans on.
    ///
    /// # Errors
    ///
    /// Propagates range errors from either side.
    pub fn dma_to_tcdm_2d(
        &mut self,
        ext_addr: u64,
        ext_stride: u64,
        tcdm_offset: u64,
        row_bytes: usize,
        rows: usize,
    ) -> Result<Cycles, SimError> {
        let lat = self.dma.run_2d(
            &self.ext,
            &self.tcdm,
            Transfer2d {
                src: ext_addr,
                dst: tcdm_offset,
                row_bytes,
                rows,
                src_stride: ext_stride,
                dst_stride: row_bytes as u64,
            },
        )?;
        self.stats.add("dma_bytes_in", (row_bytes * rows) as u64);
        Ok(convert_freq(lat, self.cfg.soc_freq, self.cfg.freq))
    }

    /// Runs a fork/join team: `num_cores` cores start at `entry` with `args`
    /// preloaded into registers (same values on every core; cores
    /// differentiate through the `mhartid` CSR), run to `ebreak`, and join
    /// at the event-unit barrier.
    ///
    /// Execution uses the deterministic quantum engine
    /// ([`ClusterConfig::quantum_cycles`]): every core runs against a
    /// private view, and every shared interaction resolves in hart-id
    /// order, so results, cycles and all counters are bit-identical
    /// run-to-run.
    ///
    /// Returns the team timing; TCDM contents carry the results.
    ///
    /// # Errors
    ///
    /// Propagates core execution errors and enforces `max_cycles` per core
    /// (checked at quantum granularity).
    pub fn run_team(
        &mut self,
        entry: u64,
        args: &[(Reg, u64)],
        num_cores: usize,
        max_cycles: u64,
    ) -> Result<TeamResult, RvError> {
        engine::run_team(self, entry, args, num_cores, max_cycles, None, None)
    }

    /// [`Cluster::run_team`] stepping the cores of each round in an
    /// arbitrary `order` (a permutation of `0..num_cores`), with an
    /// optional quantum observer. Results are independent of the order —
    /// the determinism tests and the fuzzer shuffle it to prove no hidden
    /// iteration-order coupling. `observe(quantum, digest)` fires at every
    /// quantum boundary with a digest over the merged TCDM image and each
    /// core's architectural state and cycle count, so two runs that produce
    /// the same digest stream agree on all guest-visible state at every
    /// boundary.
    ///
    /// Not a public API: test scaffolding for this crate and the fuzzer.
    ///
    /// # Errors
    ///
    /// Same as [`Cluster::run_team`].
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_cores`.
    #[doc(hidden)]
    pub fn run_team_permuted(
        &mut self,
        entry: u64,
        args: &[(Reg, u64)],
        num_cores: usize,
        max_cycles: u64,
        order: &[usize],
        observe: Option<&mut dyn FnMut(u64, u64)>,
    ) -> Result<TeamResult, RvError> {
        engine::run_team(
            self,
            entry,
            args,
            num_cores,
            max_cycles,
            observe,
            Some(order),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hulkv_mem::{shared, Bus, MemoryDevice};
    use hulkv_rv::{Asm, Xlen};

    fn soc_with_program(words: &[u32]) -> SharedMem {
        let mut l2 = Sram::new("l2spm", 1 << 20, Cycles::new(2));
        for (i, w) in words.iter().enumerate() {
            l2.write_u32(i as u64 * 4, *w).unwrap();
        }
        let mut bus = Bus::new("axi", Cycles::new(2));
        bus.map("l2spm", 0x8000_0000, shared(l2)).unwrap();
        shared(bus)
    }

    fn store_result_per_hart(a: &mut Asm, value_reg: Reg) {
        a.csrr(Reg::T5, hulkv_rv::csr::addr::MHARTID);
        a.slli(Reg::T5, Reg::T5, 2);
        a.li(Reg::T6, TCDM_BASE as i64);
        a.add(Reg::T6, Reg::T6, Reg::T5);
        a.sw(value_reg, Reg::T6, 0);
    }

    #[test]
    fn eight_cores_run_the_same_binary() {
        let mut a = Asm::new(Xlen::Rv32);
        a.csrr(Reg::A0, hulkv_rv::csr::addr::MHARTID);
        a.slli(Reg::A0, Reg::A0, 1); // 2 * hartid
        store_result_per_hart(&mut a, Reg::A0);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let r = cluster.run_team(0x8000_0000, &[], 8, 100_000).unwrap();
        for hart in 0..8u64 {
            assert_eq!(cluster.tcdm_read_u32(hart * 4).unwrap(), 2 * hart as u32);
        }
        assert_eq!(r.per_core.len(), 8);
        assert_eq!(cluster.stats().get("teams"), 1);
    }

    #[test]
    fn args_reach_all_cores() {
        let mut a = Asm::new(Xlen::Rv32);
        a.add(Reg::A0, Reg::A0, Reg::A1);
        store_result_per_hart(&mut a, Reg::A0);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        cluster
            .run_team(0x8000_0000, &[(Reg::A0, 30), (Reg::A1, 12)], 4, 100_000)
            .unwrap();
        for hart in 0..4u64 {
            assert_eq!(cluster.tcdm_read_u32(hart * 4).unwrap(), 42);
        }
    }

    #[test]
    fn team_cycles_are_max_plus_barrier() {
        // Core 0 does more work than the others.
        let mut a = Asm::new(Xlen::Rv32);
        a.csrr(Reg::T0, hulkv_rv::csr::addr::MHARTID);
        let skip = a.label();
        a.bnez(Reg::T0, skip);
        a.li(Reg::T1, 1000);
        let top = a.label();
        a.bind(top);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, top);
        a.bind(skip);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let r = cluster.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
        let max = r.per_core.iter().copied().fold(Cycles::ZERO, Cycles::max);
        assert_eq!(r.cycles, max + Cycles::new(8));
        assert!(r.per_core[0] > r.per_core[1] * 10);
    }

    #[test]
    fn engine_profile_is_guest_neutral_and_records_rounds() {
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T1, 5000);
        let top = a.label();
        a.bind(top);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, top);
        store_result_per_hart(&mut a, Reg::T1);
        a.ebreak();
        let words = a.assemble().unwrap();

        let mut plain = Cluster::new(ClusterConfig::default(), soc_with_program(&words));
        let rp = plain.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();

        let mut profiled = Cluster::new(ClusterConfig::default(), soc_with_program(&words));
        let prof = EngineProfile::new();
        profiled.set_profile(prof.clone());
        let rq = profiled.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();

        // Guest-visible outputs are bit-identical with the profile on.
        assert_eq!(rp.cycles, rq.cycles);
        assert_eq!(rp.per_core, rq.per_core);
        assert_eq!(rp.per_core_state, rq.per_core_state);
        assert_eq!(plain.stats(), profiled.stats());

        // And the profile saw real wall-clock activity.
        let d = prof.snapshot();
        assert_eq!(d.teams, 1);
        assert_eq!(d.rounds, profiled.stats().get("sync_rounds"));
        assert_eq!(d.quanta, profiled.stats().get("quanta"));
        assert!(d.round_wall_ns > 0);
        assert_eq!(d.worker_busy_ns.len(), 1, "one executor");
        assert!(d.worker_busy_ns[0] > 0);
        assert!(d.worker_busy_ns[0] <= d.round_wall_ns);
        assert!(profiled.profile().is_some());
    }

    #[test]
    fn tcdm_loads_are_single_cycle_when_alone() {
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, TCDM_BASE as i64);
        for _ in 0..64 {
            a.lw(Reg::T1, Reg::T0, 0);
        }
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let r = cluster.run_team(0x8000_0000, &[], 1, 100_000).unwrap();
        // After I$ warm-up, each lw retires in 1 cycle; generous bound.
        assert!(r.per_core[0].get() < 64 + 80, "cycles {}", r.per_core[0]);
        assert_eq!(cluster.stats().get("tcdm_conflicts"), 0);
    }

    #[test]
    fn bank_conflicts_grow_with_team_size() {
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, TCDM_BASE as i64);
        a.lp_counti(0, 1024);
        let (s, e) = (a.label(), a.label());
        a.lp_starti(0, s);
        a.lp_endi(0, e);
        a.bind(s);
        a.lw(Reg::T1, Reg::T0, 0);
        a.bind(e);
        a.ebreak();
        let words = a.assemble().unwrap();

        let mut solo = Cluster::new(ClusterConfig::default(), soc_with_program(&words));
        let r1 = solo.run_team(0x8000_0000, &[], 1, 1_000_000).unwrap();
        let mut full = Cluster::new(ClusterConfig::default(), soc_with_program(&words));
        let r8 = full.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
        assert!(full.stats().get("tcdm_conflicts") > 0);
        assert!(r8.cycles > r1.cycles);
        // But the conflict tax is mild: 16 banks for 8 cores.
        assert!(r8.cycles.get() < r1.cycles.get() * 2);
    }

    #[test]
    fn decode_cache_is_cycle_neutral_for_teams() {
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, TCDM_BASE as i64);
        a.li(Reg::T2, 300);
        let top = a.label();
        a.bind(top);
        a.lw(Reg::T1, Reg::T0, 0);
        a.addi(Reg::T1, Reg::T1, 1);
        a.sw(Reg::T1, Reg::T0, 4);
        a.addi(Reg::T2, Reg::T2, -1);
        a.bnez(Reg::T2, top);
        a.ebreak();
        let words = a.assemble().unwrap();

        let mut on = Cluster::new(ClusterConfig::default(), soc_with_program(&words));
        let r_on = on.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
        let cfg_off = ClusterConfig {
            decode_cache: false,
            ..ClusterConfig::default()
        };
        let mut off = Cluster::new(cfg_off, soc_with_program(&words));
        let r_off = off.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
        assert_eq!(r_on.cycles, r_off.cycles);
        assert_eq!(r_on.per_core, r_off.per_core);
        assert!(on.stats().get("decode_hits") > 1000);
        assert_eq!(off.stats().get("decode_hits"), 0);
    }

    #[test]
    fn ext_access_slower_than_tcdm() {
        let mut tcdm_prog = Asm::new(Xlen::Rv32);
        tcdm_prog.li(Reg::T0, TCDM_BASE as i64);
        for _ in 0..32 {
            tcdm_prog.lw(Reg::T1, Reg::T0, 0);
        }
        tcdm_prog.ebreak();
        let mut ext_prog = Asm::new(Xlen::Rv32);
        ext_prog.li(Reg::T0, 0x8008_0000u32 as i64);
        for _ in 0..32 {
            ext_prog.lw(Reg::T1, Reg::T0, 0);
        }
        ext_prog.ebreak();

        let mut c1 = Cluster::new(
            ClusterConfig::default(),
            soc_with_program(&tcdm_prog.assemble().unwrap()),
        );
        let t1 = c1.run_team(0x8000_0000, &[], 1, 100_000).unwrap();
        let mut c2 = Cluster::new(
            ClusterConfig::default(),
            soc_with_program(&ext_prog.assemble().unwrap()),
        );
        let t2 = c2.run_team(0x8000_0000, &[], 1, 100_000).unwrap();
        assert!(t2.cycles > t1.cycles);
    }

    #[test]
    fn dma_round_trip() {
        let ext = soc_with_program(&[]);
        let mut cluster = Cluster::new(ClusterConfig::default(), ext.clone());
        ext.borrow_mut().write(0x8000_1000, &[7u8; 256]).unwrap();
        let c_in = cluster.dma_to_tcdm(0x8000_1000, 0x200, 256).unwrap();
        assert!(c_in.get() > 0);
        let mut buf = [0u8; 256];
        cluster.tcdm_read(0x200, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 256]);

        cluster.tcdm_write(0x400, &[9u8; 64]).unwrap();
        cluster.dma_from_tcdm(0x400, 0x8000_2000, 64).unwrap();
        let mut out = [0u8; 64];
        ext.borrow_mut().read(0x8000_2000, &mut out).unwrap();
        assert_eq!(out, [9u8; 64]);
        assert_eq!(cluster.stats().get("dma_bytes_in"), 256);
        assert_eq!(cluster.stats().get("dma_bytes_out"), 64);
    }

    #[test]
    fn dma_2d_gathers_matrix_tile() {
        let ext = soc_with_program(&[]);
        let mut cluster = Cluster::new(ClusterConfig::default(), ext.clone());
        // A 4x4 tile out of a 64-byte-stride matrix.
        for row in 0..4u8 {
            ext.borrow_mut()
                .write(0x8000_1000 + row as u64 * 64, &[row + 1; 4])
                .unwrap();
        }
        cluster.dma_to_tcdm_2d(0x8000_1000, 64, 0, 4, 4).unwrap();
        let mut buf = [0u8; 16];
        cluster.tcdm_read(0, &mut buf).unwrap();
        assert_eq!(&buf[0..4], &[1; 4]);
        assert_eq!(&buf[12..16], &[4; 4]);
    }

    #[test]
    fn perf_unit_matches_simulator_stats_exactly() {
        // The guest reads its perf-counter window and stores the values to
        // the TCDM; the test compares them to the simulator-side CorePerf.
        // Registers are read before the result stores, so the guest values
        // trail the final counters by a statically known tail: six TCDM
        // stores (and zero external accesses / conflicts on a solo core).
        let mut a = Asm::new(Xlen::Rv32);
        // Workload: 8 TCDM loads + 4 TCDM stores + 2 external loads.
        a.li(Reg::T0, TCDM_BASE as i64);
        for i in 0..8 {
            a.lw(Reg::T1, Reg::T0, 0x100 + 4 * i);
        }
        for i in 0..4 {
            a.sw(Reg::T1, Reg::T0, 0x200 + 4 * i);
        }
        a.li(Reg::T2, 0x8008_0000u32 as i64);
        a.lw(Reg::T3, Reg::T2, 0);
        a.lw(Reg::T3, Reg::T2, 4);
        // Read the six perf registers, then store them to TCDM 0x00..0x18.
        a.li(Reg::T2, PERF_BASE as i64);
        for i in 0..6 {
            a.lw(Reg::T3, Reg::T2, 4 * i);
            a.sw(Reg::T3, Reg::T0, 4 * i);
        }
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let r = cluster.run_team(0x8000_0000, &[], 1, 100_000).unwrap();
        let perf = r.per_core_perf[0];
        let mut guest = |i: u64| cluster.tcdm_read_u32(i * 4).unwrap() as u64;

        // Stores interleave with the register reads: the read of register i
        // happens after i result stores.
        for (i, (name, fin)) in [
            ("tcdm_accesses", perf.tcdm_accesses),
            ("tcdm_conflict_stalls", perf.tcdm_conflict_stalls),
            ("icache_hits", perf.icache_hits),
            ("icache_misses", perf.icache_misses),
            ("ext_accesses", perf.ext_accesses),
            ("ext_stall_cycles", perf.ext_stall_cycles),
        ]
        .iter()
        .enumerate()
        {
            let tail = match i {
                // Register 0 is read before all six result stores land.
                0 => 6,
                // Solo core: no conflicts ever.
                1 => 0,
                // The I$ counters move with tail *fetches*, checked below.
                2 | 3 => continue,
                // The external phase is over before the reads: tail-dead.
                _ => 0,
            };
            assert_eq!(guest(i as u64) + tail, *fin, "{name}");
        }
        assert_eq!(perf.tcdm_accesses, 8 + 4 + 6, "workload + result stores");
        assert_eq!(perf.ext_accesses, 2);
        assert!(perf.ext_stall_cycles > 0, "AXI accesses are not free");
        // I$ counters: the guest snapshot can only trail the final value
        // (the tail keeps fetching but never invalidates).
        assert!(guest(2) <= perf.icache_hits);
        assert!(guest(3) <= perf.icache_misses);
        assert!(perf.icache_hits > 0 && perf.icache_misses > 0);
    }

    #[test]
    fn hpm_csrs_work_on_cluster_cores() {
        // Cluster cores self-measure through the same HPM CSRs as the host:
        // count hardware-loop iterations and cross-check against CorePerf.
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, 12); // HpmEvent::HwLoopIter
        a.csrw(hulkv_rv::csr::addr::MHPMEVENT3, Reg::T0);
        a.li(Reg::A0, 0);
        a.lp_counti(0, 10);
        let (s, e) = (a.label(), a.label());
        a.lp_starti(0, s);
        a.lp_endi(0, e);
        a.bind(s);
        a.addi(Reg::A0, Reg::A0, 1);
        a.bind(e);
        a.csrr(Reg::A1, hulkv_rv::csr::addr::MHPMCOUNTER3);
        store_result_per_hart(&mut a, Reg::A1);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let r = cluster.run_team(0x8000_0000, &[], 2, 100_000).unwrap();
        for hart in 0..2 {
            assert_eq!(cluster.tcdm_read_u32(hart * 4).unwrap(), 9);
            assert_eq!(r.per_core_perf[hart as usize].hwloop_iters, 9);
        }
        assert_eq!(cluster.stats().get("hwloop_iters"), 18);
    }

    #[test]
    fn perf_window_stores_are_dropped() {
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, PERF_BASE as i64);
        a.li(Reg::T1, 0xDEAD);
        a.sw(Reg::T1, Reg::T0, 0); // ignored: counters are bus-owned
        a.lw(Reg::A0, Reg::T0, 4); // conflict stalls: solo core -> 0
        store_result_per_hart(&mut a, Reg::A0);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let r = cluster.run_team(0x8000_0000, &[], 1, 100_000).unwrap();
        assert_eq!(cluster.tcdm_read_u32(0).unwrap(), 0);
        // The dropped store is not a TCDM access either.
        assert_eq!(r.per_core_perf[0].tcdm_accesses, 1);
    }

    /// A contention-heavy team kernel: every core load-modify-stores the
    /// same TCDM words (racy on purpose — boundary merges resolve it),
    /// keeps a running checksum, pulls one value over the AXI port, and
    /// stores its checksum per hart.
    fn contention_program(iters: i64) -> Vec<u32> {
        let mut a = Asm::new(Xlen::Rv32);
        a.csrr(Reg::T0, hulkv_rv::csr::addr::MHARTID);
        a.li(Reg::T1, TCDM_BASE as i64);
        a.li(Reg::T2, iters);
        a.li(Reg::A0, 0);
        let top = a.label();
        a.bind(top);
        a.lw(Reg::T3, Reg::T1, 0x40);
        a.add(Reg::A0, Reg::A0, Reg::T3);
        a.add(Reg::T3, Reg::T3, Reg::T0);
        a.sw(Reg::T3, Reg::T1, 0x40);
        a.sw(Reg::A0, Reg::T1, 0x44);
        a.addi(Reg::T2, Reg::T2, -1);
        a.bnez(Reg::T2, top);
        a.li(Reg::T4, 0x8008_0000u32 as i64);
        a.lw(Reg::T3, Reg::T4, 0);
        a.add(Reg::A0, Reg::A0, Reg::T3);
        store_result_per_hart(&mut a, Reg::A0);
        a.ebreak();
        a.assemble().unwrap()
    }

    fn run_contended(words: &[u32], quantum_cycles: u64) -> (Cluster, TeamResult) {
        let cfg = ClusterConfig {
            quantum_cycles,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(cfg, soc_with_program(words));
        let r = cluster.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
        (cluster, r)
    }

    #[test]
    fn recycled_cores_are_bit_identical_to_fresh() {
        // Every team returns its halted cores to the spare pool, so the
        // second team of a cluster runs on *recycled* cores — decoded-entry
        // caches retained under a bumped generation, the reclaimed TCDM
        // image buffer. The fresh side drops both before its second team
        // and so builds it from scratch. After identical first teams both
        // clusters carry identical warm shared state (L1.5 I-cache), so any
        // second-team difference is recycling leaking through.
        let words = contention_program(100);
        let run_two_teams = |recycle: bool| {
            let mut cl = Cluster::new(ClusterConfig::default(), soc_with_program(&words));
            let mut tcdm = vec![0u8; cl.config().tcdm_bytes()];
            cl.tcdm_read(0, &mut tcdm).unwrap();
            let r1 = cl.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
            assert_eq!(cl.spare_cores.len(), 8, "halted cores must be kept");
            assert!(cl.spare_image.is_some(), "the image buffer must be kept");
            if !recycle {
                cl.spare_cores.clear();
                cl.spare_image = None;
            }
            cl.tcdm_write(0, &tcdm).unwrap();
            let r2 = cl.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
            (r1, r2)
        };
        let (recycled1, recycled2) = run_two_teams(true);
        let (fresh1, fresh2) = run_two_teams(false);
        assert_eq!(recycled1, fresh1, "first teams must agree");
        assert_eq!(recycled2, fresh2, "recycled team diverged from fresh cores");
    }

    #[test]
    fn race_free_results_bit_identical_across_quantum_lengths() {
        // For race-free programs the quantum is pure scheduling: pause
        // points (first line touches, external accesses) are a function of
        // each core's own state, so chopping the run differently must not
        // move a single cycle, counter, or register. (Racy programs may
        // legitimately read different shared values under different quanta
        // — store visibility granularity is a model parameter.)
        let mut a = Asm::new(Xlen::Rv32);
        a.csrr(Reg::T0, hulkv_rv::csr::addr::MHARTID);
        a.slli(Reg::T4, Reg::T0, 3);
        a.li(Reg::T1, TCDM_BASE as i64);
        a.add(Reg::T1, Reg::T1, Reg::T4); // disjoint per-hart window
        a.li(Reg::T2, 100);
        a.li(Reg::A0, 0);
        let top = a.label();
        a.bind(top);
        a.lw(Reg::T3, Reg::T1, 0x100);
        a.add(Reg::A0, Reg::A0, Reg::T3);
        a.addi(Reg::T3, Reg::T3, 3);
        a.sw(Reg::T3, Reg::T1, 0x100);
        a.addi(Reg::T2, Reg::T2, -1);
        a.bnez(Reg::T2, top);
        a.li(Reg::T4, 0x8008_0000u32 as i64);
        a.lw(Reg::T3, Reg::T4, 0);
        a.add(Reg::A0, Reg::A0, Reg::T3);
        store_result_per_hart(&mut a, Reg::A0);
        a.ebreak();
        let words = a.assemble().unwrap();
        let (c1, r1) = run_contended(&words, 4096);
        // Scheduler telemetry necessarily scales with the quantum count;
        // every *model* counter must not.
        let model_keys = [
            "tcdm_conflicts",
            "instret",
            "decode_hits",
            "decode_misses",
            "tcdm_accesses",
            "icache_p_hits",
            "icache_p_misses",
            "ext_accesses",
            "ext_stall_cycles",
            "fetch_lines",
            "ext_pauses",
            "team_cycles",
        ];
        for quantum in [64, 1023, 1_000_000] {
            let (cn, rn) = run_contended(&words, quantum);
            assert_eq!(r1, rn, "TeamResult diverged at quantum {quantum}");
            assert_eq!(c1.state_digest(), cn.state_digest());
            for key in model_keys {
                assert_eq!(
                    c1.stats().get(key),
                    cn.stats().get(key),
                    "{key} diverged at quantum {quantum}"
                );
            }
        }
    }

    #[test]
    fn results_independent_of_core_step_order() {
        // Shuffle the per-round core step order and demand bit-identical
        // outcomes. Any hidden cross-core coupling through shared state
        // (the old engine's `conflict_q16` accumulator being the suspect),
        // or a master that serviced a round's outputs in step order rather
        // than hart-id order, would surface here.
        let words = contention_program(60);
        let cfg = ClusterConfig::default();
        let mut base = Cluster::new(cfg.clone(), soc_with_program(&words));
        let r_base = base
            .run_team_permuted(
                0x8000_0000,
                &[],
                8,
                1_000_000,
                &[0, 1, 2, 3, 4, 5, 6, 7],
                None,
            )
            .unwrap();
        for order in [
            [7, 6, 5, 4, 3, 2, 1, 0],
            [3, 1, 4, 0, 7, 5, 2, 6],
            [5, 0, 6, 2, 7, 1, 3, 4],
        ] {
            let mut c = Cluster::new(cfg.clone(), soc_with_program(&words));
            let r = c
                .run_team_permuted(0x8000_0000, &[], 8, 1_000_000, &order, None)
                .unwrap();
            assert_eq!(r_base, r, "TeamResult depends on step order {order:?}");
            assert_eq!(base.state_digest(), c.state_digest());
            assert_eq!(base.stats(), c.stats());
        }
    }

    #[test]
    fn observer_digest_streams_match_across_step_orders() {
        let words = contention_program(100);
        let mut streams: Vec<Vec<(u64, u64)>> = Vec::new();
        for order in [[0, 1, 2, 3, 4, 5, 6, 7], [6, 3, 0, 7, 1, 4, 2, 5]] {
            let cfg = ClusterConfig {
                quantum_cycles: 256,
                ..ClusterConfig::default()
            };
            let mut c = Cluster::new(cfg, soc_with_program(&words));
            let mut stream = Vec::new();
            let mut observe = |q, d| stream.push((q, d));
            c.run_team_permuted(0x8000_0000, &[], 8, 1_000_000, &order, Some(&mut observe))
                .unwrap();
            streams.push(stream);
        }
        assert!(streams[0].len() > 3, "expected several quanta at Q=256");
        assert_eq!(streams[0], streams[1], "per-quantum digests diverged");
    }

    fn run_sanitized(words: &[u32], quantum_cycles: u64) -> (Cluster, TeamResult) {
        let cfg = ClusterConfig {
            quantum_cycles,
            race_sanitizer: true,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(cfg, soc_with_program(words));
        let r = cluster.run_team(0x8000_0000, &[], 8, 1_000_000).unwrap();
        (cluster, r)
    }

    /// The race-free twin of [`contention_program`]: each hart works a
    /// disjoint TCDM window.
    fn striped_program() -> Vec<u32> {
        let mut a = Asm::new(Xlen::Rv32);
        a.csrr(Reg::T0, hulkv_rv::csr::addr::MHARTID);
        a.slli(Reg::T4, Reg::T0, 3);
        a.li(Reg::T1, TCDM_BASE as i64);
        a.add(Reg::T1, Reg::T1, Reg::T4);
        a.li(Reg::T2, 100);
        a.li(Reg::A0, 0);
        let top = a.label();
        a.bind(top);
        a.lw(Reg::T3, Reg::T1, 0x100);
        a.add(Reg::A0, Reg::A0, Reg::T3);
        a.addi(Reg::T3, Reg::T3, 3);
        a.sw(Reg::T3, Reg::T1, 0x100);
        a.addi(Reg::T2, Reg::T2, -1);
        a.bnez(Reg::T2, top);
        store_result_per_hart(&mut a, Reg::A0);
        a.ebreak();
        a.assemble().unwrap()
    }

    #[test]
    fn sanitizer_race_set_invariant_across_quanta() {
        // The race set is computed from the final cumulative shadow
        // masks, so it must be bit-identical however the run is chopped
        // into quanta.
        let words = contention_program(100);
        let (_, base) = run_sanitized(&words, 4096);
        assert!(!base.races.is_empty(), "contended program must race");
        let addrs: Vec<u64> = base.races.iter().map(|r| r.addr).collect();
        assert!(addrs.contains(&(TCDM_BASE + 0x40)));
        assert!(addrs.contains(&(TCDM_BASE + 0x44)));
        // Every hart writes both contended words.
        for r in &base.races {
            assert_eq!(r.writers, 0xFF, "{r:?}");
        }
        for quantum in [64, 1023, 1_000_000] {
            let (_, rn) = run_sanitized(&words, quantum);
            assert_eq!(
                base.races, rn.races,
                "race set diverged at quantum {quantum}"
            );
        }
    }

    #[test]
    fn sanitizer_race_set_invariant_across_step_orders() {
        let words = contention_program(60);
        let cfg = ClusterConfig {
            race_sanitizer: true,
            ..ClusterConfig::default()
        };
        let mut base = Cluster::new(cfg.clone(), soc_with_program(&words));
        let r_base = base
            .run_team_permuted(
                0x8000_0000,
                &[],
                8,
                1_000_000,
                &[0, 1, 2, 3, 4, 5, 6, 7],
                None,
            )
            .unwrap();
        assert!(!r_base.races.is_empty());
        for order in [[7, 6, 5, 4, 3, 2, 1, 0], [3, 1, 4, 0, 7, 5, 2, 6]] {
            let mut c = Cluster::new(cfg.clone(), soc_with_program(&words));
            let r = c
                .run_team_permuted(0x8000_0000, &[], 8, 1_000_000, &order, None)
                .unwrap();
            assert_eq!(r_base.races, r.races, "race set depends on order {order:?}");
        }
    }

    #[test]
    fn sanitizer_silent_on_striped_program() {
        let words = striped_program();
        for quantum in [4096, 64, 1_000_000] {
            let (c, r) = run_sanitized(&words, quantum);
            assert!(r.races.is_empty(), "striped program must not race");
            assert_eq!(c.stats().get("tcdm_races"), 0);
        }
    }

    #[test]
    fn sanitizer_is_cycle_and_digest_neutral() {
        // The sanitizer observes; it must never perturb the simulation.
        // Everything except the race report itself is bit-identical with
        // it on and off — including for a program that does race.
        for words in [contention_program(100), striped_program()] {
            let (c_off, r_off) = run_contended(&words, 4096);
            let (c_on, r_on) = run_sanitized(&words, 4096);
            assert!(r_off.races.is_empty(), "races reported with sanitizer off");
            assert_eq!(r_off.cycles, r_on.cycles);
            assert_eq!(r_off.per_core_perf, r_on.per_core_perf);
            assert_eq!(c_off.state_digest(), c_on.state_digest());
            let off = c_off.stats();
            let on = c_on.stats();
            for (key, v) in off.iter() {
                assert_eq!(v, on.get(key), "{key} diverged with sanitizer on");
            }
            for (key, v) in on.iter() {
                if key != "tcdm_races" {
                    assert_eq!(v, off.get(key), "{key} appeared with sanitizer on");
                }
            }
        }
    }

    #[test]
    fn team_timeout_still_enforced() {
        let mut a = Asm::new(Xlen::Rv32);
        let top = a.label();
        a.bind(top);
        a.j(top);
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        match cluster.run_team(0x8000_0000, &[], 2, 10_000) {
            Err(RvError::Timeout { cycles }) => assert!(cycles > 10_000),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn guest_faults_identical_across_step_orders() {
        // A load from an unmapped SoC address must fault with the same
        // error (and after identical partial effects) in every step order.
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, TCDM_BASE as i64);
        a.li(Reg::T1, 77);
        a.sw(Reg::T1, Reg::T0, 0); // a write that must still land
        a.li(Reg::T2, 0x4000_0000);
        a.lw(Reg::T3, Reg::T2, 0); // unmapped -> fault
        a.ebreak();
        let words = a.assemble().unwrap();
        let mut errs = Vec::new();
        for order in [[0, 1, 2, 3], [3, 1, 0, 2]] {
            let mut c = Cluster::new(ClusterConfig::default(), soc_with_program(&words));
            let e = c
                .run_team_permuted(0x8000_0000, &[], 4, 100_000, &order, None)
                .unwrap_err();
            assert_eq!(c.tcdm_read_u32(0).unwrap(), 77, "store before fault lost");
            errs.push(e);
        }
        assert!(matches!(errs[0], RvError::Memory { .. }), "{:?}", errs[0]);
        assert_eq!(errs[0], errs[1]);
    }

    #[test]
    fn team_size_clamped_to_config() {
        let mut a = Asm::new(Xlen::Rv32);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let r = cluster.run_team(0x8000_0000, &[], 99, 100_000).unwrap();
        assert_eq!(r.per_core.len(), 8);
    }

    #[test]
    #[ignore = "perf probe, run manually in release"]
    fn perf_probe() {
        // Fixed per-team overhead: empty program, many launches.
        let mut a = Asm::new(Xlen::Rv32);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let t0 = std::time::Instant::now();
        let n = 200u32;
        for _ in 0..n {
            cluster.run_team(0x8000_0000, &[], 8, 100_000).unwrap();
        }
        let per_team = t0.elapsed() / n;
        eprintln!("empty team (8 cores): {per_team:?}/launch");

        // Per-instruction cost: long tight loop per hart.
        let iters = 200_000i64;
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, iters);
        let top = a.label();
        a.bind(top);
        a.addi(Reg::T1, Reg::T1, 1);
        a.addi(Reg::T2, Reg::T1, 7);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let t0 = std::time::Instant::now();
        cluster.run_team(0x8000_0000, &[], 8, 100_000_000).unwrap();
        let dt = t0.elapsed();
        let instret = cluster.stats().get("instret");
        eprintln!(
            "loop team: {instret} instr in {dt:?} = {:.2} MIPS",
            instret as f64 / dt.as_secs_f64() / 1e6
        );

        // Same but with TCDM traffic in the loop body.
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, iters);
        a.csrr(Reg::T3, hulkv_rv::csr::addr::MHARTID);
        a.slli(Reg::T3, Reg::T3, 8);
        a.li(Reg::T4, TCDM_BASE as i64 + 0x1000);
        a.add(Reg::T3, Reg::T3, Reg::T4);
        let top = a.label();
        a.bind(top);
        a.lw(Reg::T1, Reg::T3, 0);
        a.addi(Reg::T1, Reg::T1, 1);
        a.sw(Reg::T1, Reg::T3, 0);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let ext = soc_with_program(&a.assemble().unwrap());
        let mut cluster = Cluster::new(ClusterConfig::default(), ext);
        let t0 = std::time::Instant::now();
        cluster.run_team(0x8000_0000, &[], 8, 100_000_000).unwrap();
        let dt = t0.elapsed();
        let instret = cluster.stats().get("instret");
        eprintln!(
            "tcdm team: {instret} instr in {dt:?} = {:.2} MIPS",
            instret as f64 / dt.as_secs_f64() / 1e6
        );
    }
}
