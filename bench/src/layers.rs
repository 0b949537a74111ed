//! Per-layer unit costs, and the attribution of a pass's host time to the
//! simulator's layers: share = Σ(count × unit cost) ÷ pass wall time.
//!
//! Every unit cost is a timed call into one crate's public API, sampled
//! for at least [`SAMPLE`] and reported as the fastest of [`SAMPLES`]
//! samples: as with pass times, host noise only ever adds time.

use hulkv::{HulkV, SocConfig};
use hulkv_cluster::TCDM_BASE;
use hulkv_host::{Host, HostConfig};
use hulkv_kernels::suite::{Kernel, KernelParams};
use hulkv_mem::{
    shared, Bus, Cache, CacheConfig, ClockBridge, Ddr, DdrConfig, DmaEngine, HyperRam,
    HyperRamConfig, Llc, LlcConfig, MemoryDevice, Sram, Transfer1d, WritePolicy,
};
use hulkv_obs::TelemetryBus;
use hulkv_rv::mmu::{translate_sv39, AccessKind};
use hulkv_rv::{Asm, Core, FlatBus, PrivMode, Reg, Xlen};
use hulkv_sim::{Cycles, Freq, Stats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum wall time of one unit-cost sample.
pub const SAMPLE: Duration = Duration::from_millis(200);
/// Samples per unit cost.
pub const SAMPLES: usize = 5;

/// Fewest host nanoseconds per unit of `op` over [`SAMPLES`] samples;
/// `op` does a batch of work and returns how many units it did.
fn per_unit_ns(mut op: impl FnMut() -> u64) -> f64 {
    op();
    (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut units = 0u64;
            while t.elapsed() < SAMPLE {
                units += op();
            }
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .fold(f64::MAX, f64::min)
}

/// Host cost of one unit of work in each layer, in nanoseconds.
pub struct UnitCosts {
    /// One instruction of an ALU loop, default core (superblocks on).
    pub instr_ns: f64,
    /// Same, decode cache only.
    pub decode_only_ns: f64,
    /// Same, plain interpreter.
    pub interp_ns: f64,
    /// One instruction of the ALU loop on a bare RI5CY core.
    pub ri5cy_ns: f64,
    /// One instruction of an 8-core team running a TCDM-load loop through
    /// `HulkV::offload`, one worker: dispatch plus the quantum engine.
    pub team_instr_ns: f64,
    /// What an instruction fetch through the CVA6 L1I adds to dispatch:
    /// the ALU loop on the cached host minus `decode_only_ns`.
    pub fetch_ns: f64,
    /// One Sv39 page-table walk.
    pub sv39_walk_ns: f64,
    /// One 8-byte L1D hit.
    pub l1d_hit_ns: f64,
    /// One 8-byte access routed by the AXI crossbar.
    pub bus_access_ns: f64,
    /// One 8-byte access through the host clock-domain bridge.
    pub bridge_access_ns: f64,
    /// One 64-byte LLC hit.
    pub llc_hit_ns: f64,
    /// One 64-byte LLC miss filled from HyperRAM.
    pub llc_miss_ns: f64,
    /// One 64-byte HyperRAM burst.
    pub hyperram_burst_ns: f64,
    /// One 64-byte DDR line.
    pub ddr_line_ns: f64,
    /// One 4 KiB DMA transfer.
    pub dma_4k_ns: f64,
    /// One offload of an empty (`ebreak`) 8-core team.
    pub empty_team_ns: f64,
    /// Building and dropping one default SoC.
    pub soc_new_ns: f64,
    /// One `HulkV::metrics_snapshot`.
    pub metrics_snapshot_ns: f64,
    /// One `TelemetryBus::publish_snapshot`.
    pub publish_ns: f64,
}

fn alu_loop(xlen: Xlen, iters: i64) -> Vec<u32> {
    let mut a = Asm::new(xlen);
    a.li(Reg::T0, iters);
    a.li(Reg::A0, 0);
    let top = a.label();
    a.bind(top);
    a.add(Reg::A0, Reg::A0, Reg::T0);
    a.slli(Reg::T2, Reg::A0, 1);
    a.xor(Reg::A0, Reg::A0, Reg::T2);
    a.srli(Reg::T3, Reg::A0, 3);
    a.sub(Reg::A0, Reg::A0, Reg::T3);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, top);
    a.ebreak();
    a.assemble().expect("ALU loop assembles")
}

fn core_instr_ns(mut core: Core, xlen: Xlen, decode: bool, superblocks: bool) -> f64 {
    const CODE: u64 = 0x1000;
    let mut bus = FlatBus::new(1 << 16);
    bus.load_words(CODE, &alu_loop(xlen, 20_000));
    core.set_decode_cache(decode);
    core.set_superblocks(superblocks);
    per_unit_ns(|| {
        let before = core.instret();
        core.set_pc(CODE);
        core.resume();
        core.run(&mut bus, u64::MAX).expect("ALU loop runs");
        core.instret() - before
    })
}

fn host_instr_ns() -> f64 {
    const CODE: u64 = 0x8000_0000;
    let mut bus = Bus::new("axi", Cycles::new(2));
    bus.map("dram", CODE, shared(sram(1 << 20)))
        .expect("empty bus");
    let mut host = Host::new(HostConfig::default(), shared(bus));
    host.load_program(CODE, &alu_loop(Xlen::Rv64, 20_000))
        .expect("ALU loop fits");
    per_unit_ns(|| {
        let before = host.core().instret();
        host.core_mut().set_pc(CODE);
        host.core_mut().resume();
        host.run(u64::MAX).expect("ALU loop runs");
        host.core().instret() - before
    })
}

fn sv39_walk_ns() -> f64 {
    const ROOT: u64 = 0x1000;
    let pte = |pa: u64, flags: u64| ((pa >> 12) << 10) | flags;
    let mut mem = vec![0u64; 0x4000 / 8];
    mem[(ROOT / 8) as usize] = pte(0x2000, 1);
    mem[0x2000 / 8] = pte(0x3000, 1);
    for page in 0..512u64 {
        // V | R | W | X | A | D
        mem[(0x3000 / 8 + page) as usize] = pte(0x10_0000 + page * 4096, 0xCF);
    }
    let satp = (8u64 << 60) | (ROOT >> 12);
    per_unit_ns(|| {
        for page in 0..512u64 {
            let pa = translate_sv39(
                black_box(page << 12 | 0x18),
                satp,
                AccessKind::Load,
                PrivMode::Supervisor,
                |a| Ok(mem[(a / 8) as usize]),
            );
            black_box(pa.expect("mapped page"));
        }
        512
    })
}

/// Cost of one `len`-byte read of `dev`, batching 1024 reads at the
/// addresses `addr` yields.
fn reads_ns(dev: &mut dyn MemoryDevice, len: usize, mut addr: impl FnMut() -> u64) -> f64 {
    let mut buf = vec![0u8; len];
    per_unit_ns(|| {
        for _ in 0..1024 {
            black_box(dev.read(addr(), &mut buf).expect("in range"));
        }
        1024
    })
}

/// Cycles through `span` bytes in `step`-byte strides, from `base`.
fn cyclic(base: u64, span: u64, step: u64) -> impl FnMut() -> u64 {
    let mut i = 0u64;
    move || {
        i = (i + step) % span;
        base + i
    }
}

fn sram(bytes: usize) -> Sram {
    Sram::new("sram", bytes, Cycles::new(20))
}

fn l1d_hit_ns() -> f64 {
    let cfg = CacheConfig {
        name: "l1d".into(),
        ways: 8,
        sets: 64,
        line_bytes: 64,
        hit_latency: Cycles::new(1),
        write_policy: WritePolicy::WriteThrough,
        write_allocate: false,
        write_buffer: true,
    };
    let mut l1d = Cache::new(cfg, shared(sram(1 << 20))).expect("L1D geometry");
    reads_ns(&mut l1d, 8, cyclic(0, 4096, 8))
}

fn llc() -> Llc {
    Llc::new(
        LlcConfig::default(),
        shared(HyperRam::new(HyperRamConfig::default())),
    )
    .expect("LLC geometry")
}

/// Host time per 8-core offload of a team where each core runs `iters`
/// iterations of a TCDM load loop (none: just `ebreak`), one worker; and
/// the cluster instructions retired per offload.
fn team_ns(iters: i64) -> (f64, u64) {
    let mut cfg = SocConfig::default();
    cfg.cluster.workers = 1;
    let mut soc = HulkV::new(cfg).expect("default SoC");
    let mut a = Asm::new(Xlen::Rv32);
    if iters > 0 {
        a.li(Reg::T0, iters);
        let top = a.label();
        a.bind(top);
        a.lw(Reg::T1, Reg::A0, 0);
        a.add(Reg::T2, Reg::T2, Reg::T1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
    }
    a.ebreak();
    let kernel = soc
        .register_kernel(&a.assemble().expect("team kernel assembles"))
        .expect("kernel fits");
    let args = [(Reg::A0, TCDM_BASE)];
    let instret = |soc: &HulkV| soc.cluster().stats().get("instret");
    let mut per_offload = 0;
    let ns = per_unit_ns(|| {
        let before = instret(&soc);
        black_box(soc.offload(kernel, &args, 8, 1 << 30).expect("team runs"));
        per_offload = instret(&soc) - before;
        1
    });
    (ns, per_offload)
}

/// A SoC after one Figure-6 host kernel, so its counters are realistic.
fn busy_soc() -> HulkV {
    let mut soc = HulkV::new(SocConfig::default()).expect("default SoC");
    Kernel::MatMulI8
        .run_on_host(&mut soc, &KernelParams::small())
        .expect("matmul runs");
    soc
}

impl UnitCosts {
    /// Measures every unit cost (about 19 × [`SAMPLES`] × [`SAMPLE`]).
    pub fn measure() -> UnitCosts {
        let mut bus = Bus::new("axi", Cycles::new(2));
        bus.map("sram", 0x8000_0000, shared(sram(1 << 20)))
            .expect("empty bus");
        let mut bridge = ClockBridge::new(shared(sram(1 << 20)), Freq::mhz(450), Freq::mhz(900));
        let mut warm = llc();
        let mut line = [0u8; 64];
        for a in (0..64 * 1024).step_by(64) {
            warm.read(a, &mut line).expect("in range");
        }
        let (src, dst) = (shared(sram(64 * 1024)), shared(sram(64 * 1024)));
        let mut dma = DmaEngine::new("dma", Cycles::new(12), 64);
        let soc = busy_soc();
        let snap = soc.metrics_snapshot();
        let obs = TelemetryBus::new();
        let decode_only_ns = core_instr_ns(Core::cva6(), Xlen::Rv64, true, false);
        let empty_team_ns = team_ns(0).0;
        let (loop_ns, loop_instret) = team_ns(4000);
        UnitCosts {
            instr_ns: core_instr_ns(Core::cva6(), Xlen::Rv64, true, true),
            decode_only_ns,
            interp_ns: core_instr_ns(Core::cva6(), Xlen::Rv64, false, false),
            ri5cy_ns: core_instr_ns(Core::ri5cy(0), Xlen::Rv32, true, false),
            team_instr_ns: (loop_ns - empty_team_ns) / loop_instret as f64,
            fetch_ns: (host_instr_ns() - decode_only_ns).max(0.0),
            sv39_walk_ns: sv39_walk_ns(),
            l1d_hit_ns: l1d_hit_ns(),
            bus_access_ns: reads_ns(&mut bus, 8, cyclic(0x8000_0000, 1 << 20, 64)),
            bridge_access_ns: reads_ns(&mut bridge, 8, cyclic(0, 1 << 20, 64)),
            llc_hit_ns: reads_ns(&mut warm, 64, cyclic(0, 64 * 1024, 64)),
            // A 1 MiB cycle through a 128 kB LRU cache misses every time.
            llc_miss_ns: reads_ns(&mut llc(), 64, cyclic(0, 1 << 20, 64)),
            hyperram_burst_ns: reads_ns(
                &mut HyperRam::new(HyperRamConfig::default()),
                64,
                cyclic(0, 1 << 20, 64),
            ),
            ddr_line_ns: reads_ns(
                &mut Ddr::new(DdrConfig::default()),
                64,
                cyclic(0, 1 << 20, 64),
            ),
            dma_4k_ns: per_unit_ns(|| {
                for i in 0..16 {
                    let t = Transfer1d {
                        src: i * 4096,
                        dst: (15 - i) * 4096,
                        bytes: 4096,
                    };
                    black_box(dma.run_1d(&src, &dst, t).expect("in range"));
                }
                16
            }),
            empty_team_ns,
            soc_new_ns: per_unit_ns(|| {
                drop(black_box(
                    HulkV::new(SocConfig::default()).expect("default SoC"),
                ));
                1
            }),
            metrics_snapshot_ns: per_unit_ns(|| {
                for _ in 0..64 {
                    black_box(soc.metrics_snapshot());
                }
                64
            }),
            publish_ns: per_unit_ns(|| {
                for _ in 0..64 {
                    obs.publish_snapshot(black_box(&snap));
                }
                64
            }),
        }
    }
}

/// Estimated host time per layer over a set of passes, in nanoseconds.
pub struct LayerTime {
    /// Instruction dispatch on both core models (`hulkv-rv`).
    pub rv: f64,
    /// CVA6 instruction fetch and L1D lookups (`hulkv-host`).
    pub host: f64,
    /// Bridge, crossbar, LLC, HyperRAM and DMA (`hulkv-mem`).
    pub mem: f64,
    /// Team launches and the quantum engine around each PMCA instruction
    /// (`hulkv-cluster`).
    pub cluster: f64,
    /// SoC construction (`hulkv`).
    pub core: f64,
}

impl LayerTime {
    /// Attributes the work counted in `c` (summed `block.counter` values)
    /// to layers at unit cost `u`.
    pub fn estimate(c: &Stats, u: &UnitCosts) -> LayerTime {
        let g = |k: &str| c.get(k) as f64;
        // Every host transaction that leaves the L1s: line fills plus the
        // write-through stores of CVA6's store buffer.
        let host_axi = g("l1i.refills")
            + g("l1d.refills")
            + g("l1d.write_misses_direct")
            + g("l1d.writethroughs");
        // The LLC's own hit/miss counters are not exposed: every HyperRAM
        // read behind it is a miss fill.
        let llc_misses = g("hyperram.reads").min(g("llc_front.cacheable"));
        let llc_hits = g("llc_front.cacheable") - llc_misses;
        let dma_bytes = g("udma.bytes") + g("cluster.dma_bytes_in") + g("cluster.dma_bytes_out");
        LayerTime {
            rv: g("core.decode_hits") * u.decode_only_ns
                + g("cluster.decode_hits") * u.ri5cy_ns
                + (g("core.decode_misses") + g("cluster.decode_misses")) * u.interp_ns,
            host: g("core.instret") * u.fetch_ns + (g("l1d.hits") + g("l1d.misses")) * u.l1d_hit_ns,
            mem: host_axi * (u.bridge_access_ns + u.bus_access_ns)
                + g("cluster.ext_accesses") * u.bus_access_ns
                + llc_hits * u.llc_hit_ns
                + llc_misses * u.llc_miss_ns
                + g("hyperram.writes") * u.hyperram_burst_ns
                + dma_bytes / 4096.0 * u.dma_4k_ns,
            cluster: g("soc.offloads") * u.empty_team_ns
                + g("cluster.instret") * (u.team_instr_ns - u.ri5cy_ns).max(0.0),
            core: g("bench.socs") * u.soc_new_ns,
        }
    }
}
