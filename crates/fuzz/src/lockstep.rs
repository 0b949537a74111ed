//! Lockstep differential co-simulation: the same program runs twice —
//! fast paths on (decoded-instruction cache + fetch µTLB) vs the plain
//! reference interpreter — and every observable architectural fact is
//! compared as the runs advance.
//!
//! The comparison ladder, cheapest first:
//!
//! - **every retire**: PC, cycle count, instret, halt state, and the two
//!   step results (both sides must succeed, or fail with the *same*
//!   error);
//! - **every `digest_every` retires and at program end**: the full
//!   architectural digest ([`Core::state_digest`]: registers, FP file,
//!   CSRs, reservation, hardware loops) and the memory-image digest
//!   ([`FlatBus::content_digest`]).
//!
//! Cycle counts are compared directly — the decode cache and µTLB are
//! *required* to be cycle-neutral, so a timing drift is a divergence even
//! when architectural state agrees.
//!
//! [`run_chunked_lockstep`] (the bare RV64 and RV32 Xpulp cores) and
//! [`run_host_chunked_lockstep`] (the cached CVA6 host) extend the ladder
//! to the run loop every workload takes: the fast side replays
//! decode-cache slots inline via `run_until_cycle`, synced to the
//! per-retire reference at randomly sized cycle boundaries so every
//! offset within a straight-line run or hardware-loop body becomes a
//! sync point.

use crate::gen::{Isa, Program};
use hulkv_cluster::{Cluster, ClusterConfig};
use hulkv_host::{Host, HostConfig};
use hulkv_mem::{Bus, MemoryDevice, Sram};
use hulkv_rv::csr::addr;
use hulkv_rv::inst::FReg;
use hulkv_rv::{Asm, Core, FlatBus, PrivMode, Reg, RvError, StepOutcome, Xlen};
use hulkv_sim::{Cycles, Fnv64, SharedTracer, SplitMix64};
use std::cell::RefCell;
use std::rc::Rc;

/// M-mode trap handler base (identity-mapped in every page table).
pub const HANDLER_BASE: u64 = 0x1000;
/// Flat-bus size for the bare-core sides.
const MEM_BYTES: usize = 0x10_0000;

/// Physical bases of the three prebuilt Sv39 page-table sets.
const PT_A: u64 = 0x8_0000;
const PT_B: u64 = 0x8_3000;
const PT_C: u64 = 0x8_6000;

const PTE_FULL: u64 = 0xCF; // V|R|W|X|A|D

/// A point where the fast and reference runs stopped agreeing.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Retire index at which the mismatch was observed.
    pub step: u64,
    /// Human-readable description of what differed.
    pub what: String,
}

/// Driver knobs.
#[derive(Debug, Clone)]
pub struct LockstepOptions {
    /// Hard cap on retires per program (runaway-loop guard).
    pub max_steps: u64,
    /// Full state/memory digests are compared every this many retires.
    pub digest_every: u64,
    /// Test-only knob: flip one bit of `sp` in the *fast* run after the
    /// third retire, forcing a divergence so the report/shrink/repro
    /// pipeline can be validated end to end.
    pub inject_divergence: bool,
    /// Optional structured tracer attached to the *fast* side's core, so
    /// a fuzzing campaign can export what the fast paths actually did as
    /// a Chrome trace. Never attached to the reference side — tracing
    /// must not be able to mask a divergence by perturbing both runs.
    pub tracer: Option<SharedTracer>,
}

impl Default for LockstepOptions {
    fn default() -> Self {
        LockstepOptions {
            max_steps: 20_000,
            digest_every: 16,
            inject_divergence: false,
            tracer: None,
        }
    }
}

/// Summary of one agreeing lockstep run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockstepStats {
    /// Steps driven (including interrupt-entry steps that retire nothing).
    pub steps: u64,
    /// Instructions actually retired.
    pub retired: u64,
}

fn satp_of(root: u64) -> u64 {
    (8u64 << 60) | (root >> 12)
}

/// The four `satp` values materialized into `s2..s5`, indexed by
/// [`Program::initial_satp`] as well.
fn satp_values() -> [u64; 4] {
    [0, satp_of(PT_A), satp_of(PT_B), satp_of(PT_C)]
}

/// Trap-and-skip M-mode handler. Interrupts clear the whole `mip` and
/// return; exceptions skip the faulting (always 4-byte) instruction.
///
/// The interrupt test differs per XLEN: RV64 checks `mcause`'s sign bit,
/// while RV32 compares against the injectable cause codes directly (the
/// model keeps the interrupt bit at bit 63, which a 32-bit compare cannot
/// see; codes 3 and 7 cannot collide with any exception cause the RV32
/// side can raise).
fn handler_words(xlen: Xlen) -> Vec<u32> {
    let mut a = Asm::new(xlen);
    let is_irq = a.label();
    match xlen {
        Xlen::Rv64 => {
            a.csrr(Reg::T5, addr::MCAUSE);
            a.blt(Reg::T5, Reg::Zero, is_irq);
        }
        Xlen::Rv32 => {
            a.csrr(Reg::T5, addr::MCAUSE);
            a.addi(Reg::T5, Reg::T5, -3);
            a.beqz(Reg::T5, is_irq);
            a.csrr(Reg::T5, addr::MCAUSE);
            a.addi(Reg::T5, Reg::T5, -7);
            a.beqz(Reg::T5, is_irq);
        }
    }
    a.csrr(Reg::T5, addr::MEPC);
    a.addi(Reg::T5, Reg::T5, 4);
    a.csrw(addr::MEPC, Reg::T5);
    a.mret();
    a.bind(is_irq);
    a.csrw(addr::MIP, Reg::Zero);
    a.mret();
    a.assemble().expect("handler assembles")
}

fn write_pte(bus: &mut FlatBus, at: u64, pa: u64, flags: u64) {
    let pte = ((pa >> 12) << 10) | flags;
    bus.write_bytes(at, &pte.to_le_bytes());
}

/// Builds the three Sv39 table sets over the flat 1 MiB physical space:
///
/// - **A** (`s3`): full identity map, every page `V|R|W|X|A|D`;
/// - **B** (`s4`): identity, but the 16 hostile data pages
///   (`0x5_0000..0x6_0000`) carry the program's randomized flags —
///   missing A, missing D, read-only, user-only, invalid…;
/// - **C** (`s5`): a single 2 MiB superpage leaf at level 1.
fn build_tables(bus: &mut FlatBus, hostile_flags: &[u8; 16]) {
    for (root, l0_flags) in [(PT_A, None), (PT_B, Some(hostile_flags))] {
        let (l1, l0) = (root + 0x1000, root + 0x2000);
        write_pte(bus, root, l1, 0x01); // V-only pointer
        write_pte(bus, l1, l0, 0x01);
        for page in 0..256u64 {
            let mut flags = PTE_FULL;
            if let Some(hf) = l0_flags {
                if (0x50..0x60).contains(&page) {
                    flags = hf[(page - 0x50) as usize] as u64;
                }
            }
            write_pte(bus, l0 + page * 8, page << 12, flags);
        }
    }
    // Table C: level-1 superpage leaf covering PA 0..2 MiB.
    write_pte(bus, PT_C, PT_C + 0x1000, 0x01);
    write_pte(bus, PT_C + 0x1000, 0, PTE_FULL);
}

fn seed_regs(core: &mut Core, prog: &Program) {
    let mask = match prog.isa.xlen() {
        Xlen::Rv64 => u64::MAX,
        Xlen::Rv32 => 0xFFFF_FFFF,
    };
    let mut rng = SplitMix64::new(prog.reg_seed);
    for r in crate::gen::WRITABLE {
        core.set_reg(r, rng.next_u64() & mask);
    }
    for i in 0..32u8 {
        let bits = match prog.isa.xlen() {
            Xlen::Rv64 => rng.next_u64(),
            // NaN-boxed single-precision patterns.
            Xlen::Rv32 => 0xFFFF_FFFF_0000_0000 | (rng.next_u64() & 0xFFFF_FFFF),
        };
        core.set_freg(FReg(i), bits);
    }
    core.set_reg(Reg::Sp, 0x7_0000);
    core.set_reg(Reg::S0, prog.isa.benign_base());
    core.set_reg(Reg::S1, prog.isa.hostile_base());
    core.set_reg(Reg::T5, 0);
}

/// Builds one side of a bare-core run exactly as the lockstep driver
/// does: flat memory image (handler, code, data prefill, page tables)
/// plus a seeded core. Public so snapshot/replay tests can reconstruct
/// the precise environment of a fuzz repro and checkpoint mid-program.
pub fn repro_env(prog: &Program, fast: bool) -> (Core, FlatBus) {
    build_env(prog, fast)
}

/// Builds one side of a bare-core run: flat memory image (handler, code,
/// data prefill, page tables) plus a core with everything but the decode
/// cache identical.
fn build_env(prog: &Program, fast: bool) -> (Core, FlatBus) {
    let mut bus = FlatBus::new(MEM_BYTES);
    bus.load_words(HANDLER_BASE, &handler_words(prog.isa.xlen()));
    bus.load_words(prog.entry, &prog.words());
    let mut drng = SplitMix64::new(prog.data_seed);
    let mut data = vec![0u8; 0x2_0000];
    drng.fill_bytes(&mut data);
    bus.write_bytes(0x4_0000, &data);

    let mut core = match prog.isa {
        Isa::Rv64Sv39 => Core::cva6(),
        Isa::Rv32Pulp => Core::ri5cy(0),
        _ => panic!("build_env is for the bare-core sides"),
    };
    core.set_decode_cache(fast);
    core.set_pc(prog.entry);
    core.csrs_mut().write(addr::MTVEC, HANDLER_BASE);
    core.csrs_mut()
        .write(addr::MIE, (1 << 3) | (1 << 7) | (1 << 11));
    let mstatus = core.csrs().read(addr::MSTATUS);
    core.csrs_mut().write(addr::MSTATUS, mstatus | (1 << 3));
    seed_regs(&mut core, prog);

    if prog.isa == Isa::Rv64Sv39 {
        build_tables(&mut bus, &prog.hostile_flags);
        let satps = satp_values();
        core.set_reg(Reg::S2, satps[0]);
        core.set_reg(Reg::S3, satps[1]);
        core.set_reg(Reg::S4, satps[2]);
        core.set_reg(Reg::S5, satps[3]);
        core.csrs_mut()
            .write(addr::SATP, satps[prog.initial_satp as usize % 4]);
        core.set_priv_mode(PrivMode::Supervisor);
    }
    (core, bus)
}

fn diff_state(step: u64, fast: &Core, refc: &Core) -> Divergence {
    let mut what = format!(
        "state digest mismatch: fast {:#018x} vs ref {:#018x}",
        fast.state_digest(),
        refc.state_digest()
    );
    for (i, r) in Reg::ALL.iter().enumerate() {
        if fast.reg(*r) != refc.reg(*r) {
            what.push_str(&format!(
                "; x{i}: fast {:#x} vs ref {:#x}",
                fast.reg(*r),
                refc.reg(*r)
            ));
        }
    }
    for i in 0..32u8 {
        if fast.freg(FReg(i)) != refc.freg(FReg(i)) {
            what.push_str(&format!(
                "; f{i}: fast {:#x} vs ref {:#x}",
                fast.freg(FReg(i)),
                refc.freg(FReg(i))
            ));
        }
    }
    if fast.csrs().digest() != refc.csrs().digest() {
        what.push_str("; CSR file differs");
    }
    Divergence { step, what }
}

fn compare_full(
    step: u64,
    fast: &Core,
    fbus: &FlatBus,
    refc: &Core,
    rbus: &FlatBus,
) -> Result<(), Divergence> {
    if fast.state_digest() != refc.state_digest() {
        return Err(diff_state(step, fast, refc));
    }
    if fbus.content_digest() != rbus.content_digest() {
        return Err(Divergence {
            step,
            what: format!(
                "memory digest mismatch: fast {:#018x} vs ref {:#018x}",
                fbus.content_digest(),
                rbus.content_digest()
            ),
        });
    }
    Ok(())
}

fn compare_cheap(step: u64, fast: &Core, refc: &Core) -> Result<(), Divergence> {
    if fast.pc() != refc.pc()
        || fast.cycles() != refc.cycles()
        || fast.instret() != refc.instret()
        || fast.is_halted() != refc.is_halted()
    {
        return Err(Divergence {
            step,
            what: format!(
                "retire mismatch: fast pc={:#x} cycles={} instret={} halted={} \
                 vs ref pc={:#x} cycles={} instret={} halted={}",
                fast.pc(),
                fast.cycles().get(),
                fast.instret(),
                fast.is_halted(),
                refc.pc(),
                refc.cycles().get(),
                refc.instret(),
                refc.is_halted()
            ),
        });
    }
    Ok(())
}

/// Runs `prog` in lockstep on the fast and reference interpreters.
/// Returns the run summary, or the first [`Divergence`] observed.
pub fn run_lockstep(prog: &Program, opts: &LockstepOptions) -> Result<LockstepStats, Divergence> {
    let (mut fast, mut fbus) = build_env(prog, true);
    let (mut refc, mut rbus) = build_env(prog, false);
    if let Some(t) = &opts.tracer {
        fast.set_tracer(t.clone());
    }
    let mut step = 0u64;
    let mut injected = false;
    loop {
        if step >= opts.max_steps {
            compare_full(step, &fast, &fbus, &refc, &rbus)?;
            return Ok(LockstepStats {
                steps: step,
                retired: fast.instret(),
            });
        }
        for &(_, code) in prog.interrupts.iter().filter(|&&(at, _)| at == step) {
            fast.set_interrupt_pending(code, true);
            refc.set_interrupt_pending(code, true);
        }
        let rf = fast.step(&mut fbus);
        let rr = refc.step(&mut rbus);
        step += 1;
        match (rf, rr) {
            (Ok(_), Ok(_)) => {}
            (Err(ef), Err(er)) => {
                let (sf, sr) = (format!("{ef:?}"), format!("{er:?}"));
                if sf != sr {
                    return Err(Divergence {
                        step,
                        what: format!("error mismatch: fast {sf} vs ref {sr}"),
                    });
                }
                // Both interpreters rejected the program identically —
                // that is agreement, and the end of the run.
                compare_full(step, &fast, &fbus, &refc, &rbus)?;
                return Ok(LockstepStats {
                    steps: step,
                    retired: fast.instret(),
                });
            }
            (Ok(_), Err(er)) => {
                return Err(Divergence {
                    step,
                    what: format!("fast path ran, reference errored: {er:?}"),
                });
            }
            (Err(ef), Ok(_)) => {
                return Err(Divergence {
                    step,
                    what: format!("reference ran, fast path errored: {ef:?}"),
                });
            }
        }
        compare_cheap(step, &fast, &refc)?;
        if opts.inject_divergence && !injected && step >= 3 {
            // `sp` is never read or written by generated items, so the
            // flip survives untouched until the next digest compare.
            fast.set_reg(Reg::Sp, fast.reg(Reg::Sp) ^ 1);
            injected = true;
        }
        if fast.is_halted() {
            compare_full(step, &fast, &fbus, &refc, &rbus)?;
            return Ok(LockstepStats {
                steps: step,
                retired: fast.instret(),
            });
        }
        if step.is_multiple_of(opts.digest_every) {
            compare_full(step, &fast, &fbus, &refc, &rbus)?;
        }
    }
}

/// One side of a chunked lockstep run: a bare core on a flat bus, or a
/// whole CVA6 host (L1 caches, clock bridge) over its DRAM.
trait ChunkSide {
    fn core(&self) -> &Core;
    fn core_mut(&mut self) -> &mut Core;
    fn step(&mut self) -> Result<StepOutcome, RvError>;
    fn run_until_cycle(&mut self, target: u64) -> Result<bool, RvError>;
    /// The periodic full comparison of the two sides.
    fn compare_full(step: u64, fast: &Self, refc: &Self) -> Result<(), Divergence>;
}

impl ChunkSide for (Core, FlatBus) {
    fn core(&self) -> &Core {
        &self.0
    }
    fn core_mut(&mut self) -> &mut Core {
        &mut self.0
    }
    fn step(&mut self) -> Result<StepOutcome, RvError> {
        self.0.step(&mut self.1)
    }
    fn run_until_cycle(&mut self, target: u64) -> Result<bool, RvError> {
        self.0.run_until_cycle(&mut self.1, target)
    }
    fn compare_full(step: u64, fast: &Self, refc: &Self) -> Result<(), Divergence> {
        compare_full(step, &fast.0, &fast.1, &refc.0, &refc.1)
    }
}

impl ChunkSide for (Host, Rc<RefCell<Sram>>) {
    fn core(&self) -> &Core {
        self.0.core()
    }
    fn core_mut(&mut self) -> &mut Core {
        self.0.core_mut()
    }
    fn step(&mut self) -> Result<StepOutcome, RvError> {
        self.0.step()
    }
    fn run_until_cycle(&mut self, target: u64) -> Result<bool, RvError> {
        self.0.run_until_cycle(target)
    }
    /// Core architecture plus both L1 caches' lines, LRU state and epoch:
    /// the replayed fetch touches must leave the L1I exactly as the
    /// reference's real fetches do. DRAM is compared once, at the end.
    fn compare_full(step: u64, fast: &Self, refc: &Self) -> Result<(), Divergence> {
        if fast.0.core().state_digest() != refc.0.core().state_digest() {
            return Err(diff_state(step, fast.0.core(), refc.0.core()));
        }
        if fast.0.state_digest() != refc.0.state_digest() {
            return Err(Divergence {
                step,
                what: format!(
                    "host L1 state digest mismatch: fast {:#018x} vs ref {:#018x}",
                    fast.0.state_digest(),
                    refc.0.state_digest()
                ),
            });
        }
        Ok(())
    }
}

/// Chunked lockstep of the inline replay loop on the bare-core sides
/// (flat memory): RV64 under Sv39 and RV32 Xpulp with its hardware
/// loops. See [`chunked_lockstep`] for the driver.
pub fn run_chunked_lockstep(
    prog: &Program,
    opts: &LockstepOptions,
) -> Result<LockstepStats, Divergence> {
    let mut fast = build_env(prog, true);
    let mut refc = build_env(prog, false);
    chunked_lockstep(prog, opts, &mut fast, &mut refc)
}

/// Chunked lockstep of the inline replay loop on the cached CVA6 host —
/// the path [`Host::run`] and [`Host::run_until_cycle`] take over the
/// L1I-backed bus in every CVA6 workload. See [`chunked_lockstep`] for
/// the driver; the final DRAM images are compared after both sides
/// flush their L1s.
pub fn run_host_chunked_lockstep(
    prog: &Program,
    opts: &LockstepOptions,
) -> Result<LockstepStats, Divergence> {
    assert_eq!(prog.isa, Isa::Rv64Host);
    let mut fast = build_host(prog, true);
    let mut refc = build_host(prog, false);
    let stats = chunked_lockstep(prog, opts, &mut fast, &mut refc)?;
    compare_dram(stats.steps, &mut fast, &mut refc)?;
    Ok(stats)
}

/// The chunked lockstep driver. The reference side runs with the decode
/// cache off and is stepped one retire at a time, 1–24 retires per sync;
/// the fast side (decode cache and inline replay on) is driven through
/// `run_until_cycle` up to the reference's cycle count, so sync points
/// land at every offset within a straight-line run and budget exits,
/// restarts after a failed slot check and SMC invalidations all get
/// exercised against the same program.
///
/// Every instruction retires at least one cycle, so a cycle target taken
/// from the reference always lands on the same retire boundary in the
/// fast side; any drift in cycles, PC, instret, or halt state surfaces as
/// a [`compare_cheap`] mismatch at the next sync, and the full comparison
/// runs every `opts.digest_every` syncs. Interrupts are injected only
/// when both sides are parked on the same boundary (chunks are clamped
/// to injection points), and a reference-side instruction error — which
/// retires no cycles — is reproduced by driving the fast side to the
/// pre-error boundary and provoking the same error with one `step`.
///
/// `opts.tracer` is ignored: attaching a tracer pins a core to the step
/// loop, which would silently turn this into a plain lockstep run.
fn chunked_lockstep<S: ChunkSide>(
    prog: &Program,
    opts: &LockstepOptions,
    fast: &mut S,
    refc: &mut S,
) -> Result<LockstepStats, Divergence> {
    let mut rng = SplitMix64::new(prog.reg_seed ^ 0x5b5b_5b5b_5b5b_5b5b);
    let mut step = 0u64; // retires completed on the reference side
    let mut syncs = 0u64;
    let mut injected = false;
    let done = |step: u64, fast: &S| LockstepStats {
        steps: step,
        retired: fast.core().instret(),
    };
    loop {
        for &(_, code) in prog.interrupts.iter().filter(|&&(at, _)| at == step) {
            fast.core_mut().set_interrupt_pending(code, true);
            refc.core_mut().set_interrupt_pending(code, true);
        }
        if step >= opts.max_steps {
            S::compare_full(step, fast, refc)?;
            return Ok(done(step, fast));
        }
        let next_irq = prog
            .interrupts
            .iter()
            .map(|&(at, _)| at)
            .filter(|&at| at > step)
            .min()
            .unwrap_or(u64::MAX);
        let chunk = (1 + rng.next_below(24))
            .min(next_irq - step)
            .min(opts.max_steps - step);
        let mut ref_err = None;
        for _ in 0..chunk {
            match refc.step() {
                Ok(_) => step += 1,
                Err(e) => {
                    ref_err = Some(e);
                    break;
                }
            }
            if refc.core().is_halted() {
                break;
            }
        }
        // The reference's cycle count is now a retire boundary; run the
        // fast side (inline replay, budget exits) up to it.
        if let Err(ef) = fast.run_until_cycle(refc.core().cycles().get()) {
            return Err(Divergence {
                step,
                what: format!("fast path errored mid-chunk: {ef:?}"),
            });
        }
        compare_cheap(step, fast.core(), refc.core())?;
        if let Some(er) = ref_err {
            // The failing instruction retired nothing on the reference;
            // both sides are parked right before it.
            return match fast.step() {
                Err(ef) => {
                    let (sf, sr) = (format!("{ef:?}"), format!("{er:?}"));
                    if sf != sr {
                        return Err(Divergence {
                            step,
                            what: format!("error mismatch: fast {sf} vs ref {sr}"),
                        });
                    }
                    S::compare_full(step, fast, refc)?;
                    Ok(done(step, fast))
                }
                Ok(_) => Err(Divergence {
                    step,
                    what: format!("fast path ran, reference errored: {er:?}"),
                }),
            };
        }
        if opts.inject_divergence && !injected && step >= 3 {
            let sp = fast.core().reg(Reg::Sp);
            fast.core_mut().set_reg(Reg::Sp, sp ^ 1);
            injected = true;
        }
        syncs += 1;
        if refc.core().is_halted() {
            S::compare_full(step, fast, refc)?;
            return Ok(done(step, fast));
        }
        if syncs.is_multiple_of(opts.digest_every) {
            S::compare_full(step, fast, refc)?;
        }
    }
}

/// Builds one side of a host-level run: CVA6 host over a 1 MiB DRAM with
/// the handler at the DRAM base and the program one page in.
fn build_host(prog: &Program, fast: bool) -> (Host, Rc<RefCell<Sram>>) {
    let dram = Rc::new(RefCell::new(Sram::new("dram", 1 << 20, Cycles::new(20))));
    let mut bus = Bus::new("axi", Cycles::new(2));
    bus.map("dram", 0x8000_0000, dram.clone()).unwrap();
    let mut host = Host::new(HostConfig::default(), hulkv_mem::shared(bus));
    host.set_decode_cache(fast);
    host.load_program(0x8000_0000, &handler_words(Xlen::Rv64))
        .unwrap();
    host.load_program(prog.entry, &prog.words()).unwrap();
    let mut drng = SplitMix64::new(prog.data_seed);
    let mut data = vec![0u8; 0x4_0000];
    drng.fill_bytes(&mut data);
    host.write_mem(prog.isa.benign_base(), &data).unwrap();
    host.flush_l1().unwrap();

    let core = host.core_mut();
    core.set_pc(prog.entry);
    core.csrs_mut().write(addr::MTVEC, 0x8000_0000);
    core.csrs_mut()
        .write(addr::MIE, (1 << 3) | (1 << 7) | (1 << 11));
    let mstatus = core.csrs().read(addr::MSTATUS);
    core.csrs_mut().write(addr::MSTATUS, mstatus | (1 << 3));
    seed_regs(core, prog);
    core.set_reg(Reg::Sp, 0x8000_F000);
    (host, dram)
}

/// Lockstep driver over the full CVA6 host (L1 caches, clock bridge):
/// decode cache on vs off must stay architecturally identical *and*
/// cycle-identical even though the bus is timing-stateful.
pub fn run_host_lockstep(
    prog: &Program,
    opts: &LockstepOptions,
) -> Result<LockstepStats, Divergence> {
    assert_eq!(prog.isa, Isa::Rv64Host);
    let (mut fast, fdram) = build_host(prog, true);
    let (mut refc, rdram) = build_host(prog, false);
    if let Some(t) = &opts.tracer {
        fast.core_mut().set_tracer(t.clone());
    }
    let mut step = 0u64;
    loop {
        if step >= opts.max_steps {
            break;
        }
        for &(_, code) in prog.interrupts.iter().filter(|&&(at, _)| at == step) {
            fast.core_mut().set_interrupt_pending(code, true);
            refc.core_mut().set_interrupt_pending(code, true);
        }
        let rf = fast.step();
        let rr = refc.step();
        step += 1;
        match (rf, rr) {
            (Ok(_), Ok(_)) => {}
            (Err(ef), Err(er)) => {
                let (sf, sr) = (format!("{ef:?}"), format!("{er:?}"));
                if sf != sr {
                    return Err(Divergence {
                        step,
                        what: format!("host error mismatch: fast {sf} vs ref {sr}"),
                    });
                }
                break;
            }
            (a, b) => {
                return Err(Divergence {
                    step,
                    what: format!("host step results differ: fast {a:?} vs ref {b:?}"),
                });
            }
        }
        compare_cheap(step, fast.core(), refc.core())?;
        if fast.core().state_digest() != refc.core().state_digest() {
            return Err(diff_state(step, fast.core(), refc.core()));
        }
        if fast.core().is_halted() {
            break;
        }
    }
    let retired = fast.core().instret();
    compare_dram(step, &mut (fast, fdram), &mut (refc, rdram))?;
    Ok(LockstepStats {
        steps: step,
        retired,
    })
}

/// Final memory comparison of two host sides through the DRAM backdoor
/// (write-through L1 keeps it coherent; flush covers any write-buffer
/// residue).
fn compare_dram(
    step: u64,
    fast: &mut (Host, Rc<RefCell<Sram>>),
    refc: &mut (Host, Rc<RefCell<Sram>>),
) -> Result<(), Divergence> {
    fast.0.flush_l1().unwrap();
    refc.0.flush_l1().unwrap();
    let (df, dr) = (
        fast.1.borrow().content_digest(),
        refc.1.borrow().content_digest(),
    );
    if df != dr {
        return Err(Divergence {
            step,
            what: format!("host DRAM digest mismatch: fast {df:#018x} vs ref {dr:#018x}"),
        });
    }
    Ok(())
}

/// Builds one side of a cluster run and returns the cluster plus its L2
/// handle for the end-of-run memory comparison. Also used by the
/// [`crate::race_oracle`], which needs the exact campaign environment.
pub(crate) fn build_cluster(prog: &Program, cfg: ClusterConfig) -> (Cluster, Rc<RefCell<Sram>>) {
    let l2 = Rc::new(RefCell::new(Sram::new("l2spm", 1 << 20, Cycles::new(2))));
    for (i, w) in prog.words().iter().enumerate() {
        l2.borrow_mut().write_u32(i as u64 * 4, *w).unwrap();
    }
    let mut drng = SplitMix64::new(prog.data_seed);
    let mut data = vec![0u8; 0x2_0000];
    drng.fill_bytes(&mut data);
    l2.borrow_mut().write(0x4_0000, &data).unwrap();
    let mut bus = Bus::new("axi", Cycles::new(2));
    bus.map("l2spm", 0x8000_0000, l2.clone()).unwrap();
    let mut cluster = Cluster::new(cfg, hulkv_mem::shared(bus));
    let mut trng = SplitMix64::new(prog.data_seed ^ 0x7CD);
    let mut tcdm = vec![0u8; 0x1_0000];
    trng.fill_bytes(&mut tcdm);
    cluster.tcdm_write(0, &tcdm).unwrap();
    (cluster, l2)
}

/// The register preload every core of a fuzzed team starts from: random
/// values in the scratch registers plus the two data-region bases.
pub(crate) fn team_args(prog: &Program) -> Vec<(Reg, u64)> {
    let mut rng = SplitMix64::new(prog.reg_seed);
    let mask = 0xFFFF_FFFFu64;
    let mut args: Vec<(Reg, u64)> = crate::gen::WRITABLE
        .iter()
        .map(|&r| (r, rng.next_u64() & mask))
        .collect();
    args.push((Reg::S0, prog.isa.benign_base()));
    args.push((Reg::S1, prog.isa.hostile_base()));
    args
}

/// Differential check of [`Cluster::run_team`]: the same team program with
/// the decode cache on vs off must produce identical per-core cycles,
/// instret and final architectural state digests, or the same error, and
/// either way identical memory images.
pub fn run_cluster_lockstep(prog: &Program, num_cores: usize) -> Result<LockstepStats, Divergence> {
    assert_eq!(prog.isa, Isa::Rv32Cluster);
    let args = team_args(prog);
    let fast_cfg = ClusterConfig::default();
    let ref_cfg = ClusterConfig {
        decode_cache: false,
        ..ClusterConfig::default()
    };
    let (mut fast, fl2) = build_cluster(prog, fast_cfg);
    let (mut refc, rl2) = build_cluster(prog, ref_cfg);
    let rf = fast.run_team(prog.entry, &args, num_cores, 500_000);
    let rr = refc.run_team(prog.entry, &args, num_cores, 500_000);
    let (tf, tr) = match (rf, rr) {
        (Ok(tf), Ok(tr)) => (tf, tr),
        (Err(ef), Err(er)) => {
            let (sf, sr) = (format!("{ef:?}"), format!("{er:?}"));
            if sf != sr {
                return Err(Divergence {
                    step: 0,
                    what: format!("team error mismatch: fast {sf} vs ref {sr}"),
                });
            }
            // A failed team keeps its stores up to the fault.
            compare_team_images((&fast, &fl2), (&refc, &rl2), 0, "fast", "ref")?;
            return Ok(LockstepStats::default());
        }
        (a, b) => {
            return Err(Divergence {
                step: 0,
                what: format!("team results differ in kind: fast {a:?} vs ref {b:?}"),
            });
        }
    };
    if tf.cycles != tr.cycles || tf.per_core != tr.per_core {
        return Err(Divergence {
            step: 0,
            what: format!(
                "team cycle mismatch: fast {:?}/{:?} vs ref {:?}/{:?}",
                tf.cycles, tf.per_core, tr.cycles, tr.per_core
            ),
        });
    }
    if tf.per_core_instret != tr.per_core_instret {
        return Err(Divergence {
            step: 0,
            what: format!(
                "team instret mismatch: fast {:?} vs ref {:?}",
                tf.per_core_instret, tr.per_core_instret
            ),
        });
    }
    if tf.per_core_state != tr.per_core_state {
        return Err(Divergence {
            step: 0,
            what: format!(
                "per-core state digest mismatch: fast {:x?} vs ref {:x?}",
                tf.per_core_state, tr.per_core_state
            ),
        });
    }
    compare_team_images((&fast, &fl2), (&refc, &rl2), 0, "fast", "ref")?;
    Ok(LockstepStats {
        steps: tf.per_core_instret.iter().sum(),
        retired: tf.per_core_instret.iter().sum(),
    })
}

/// Compares the final TCDM and L2 images of two runs of one team program;
/// `a` and `b` name the two sides in the divergence message.
fn compare_team_images(
    (ca, la): (&Cluster, &Rc<RefCell<Sram>>),
    (cb, lb): (&Cluster, &Rc<RefCell<Sram>>),
    step: u64,
    a: &str,
    b: &str,
) -> Result<(), Divergence> {
    let tcdm = |c: &Cluster| {
        let mut buf = vec![0u8; c.config().tcdm_bytes()];
        c.tcdm_peek(0, &mut buf).unwrap();
        Fnv64::new().write(&buf).finish()
    };
    let (ta, tb) = (tcdm(ca), tcdm(cb));
    if ta != tb {
        return Err(Divergence {
            step,
            what: format!("TCDM digest mismatch: {a} {ta:#018x} vs {b} {tb:#018x}"),
        });
    }
    let (da, db) = (la.borrow().content_digest(), lb.borrow().content_digest());
    if da != db {
        return Err(Divergence {
            step,
            what: format!("L2 digest mismatch: {a} {da:#018x} vs {b} {db:#018x}"),
        });
    }
    Ok(())
}

/// A step order for `n` cores drawn from `seed`: a Fisher–Yates shuffle,
/// rotated by one if it came out as the identity, so the permuted run
/// never repeats the canonical one.
fn step_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    if order.iter().enumerate().all(|(i, &h)| i == h) {
        order.rotate_left(1);
    }
    order
}

/// Step-order check of the quantum engine: the same team program runs
/// once stepping its cores in hart order and once in a permuted order
/// drawn from the program seed, with [`Cluster::run_team_permuted`]
/// digesting all guest-visible state (the merged TCDM image plus every
/// core's architectural state and cycle count) at *every quantum
/// boundary*. The two digest streams must match element-wise, the runs
/// must fail identically or succeed with the same
/// [`TeamResult`](hulkv_cluster::TeamResult), and either way the final
/// TCDM and L2 images must digest equal.
///
/// The quantum length is drawn from the program seed so a campaign covers
/// both the sync-round-heavy regime (short quanta, lots of boundary
/// resolution) and the long-stretch regime where cores race far ahead
/// between boundaries.
pub fn run_team_order_lockstep(
    prog: &Program,
    num_cores: usize,
) -> Result<LockstepStats, Divergence> {
    assert_eq!(prog.isa, Isa::Rv32Cluster);
    let args = team_args(prog);
    let quantum = [64, 256, 1024, 4096][(prog.data_seed >> 8) as usize % 4];
    let cfg = ClusterConfig {
        quantum_cycles: quantum,
        ..ClusterConfig::default()
    };
    let canonical: Vec<usize> = (0..num_cores).collect();
    let permuted = step_order(prog.data_seed, num_cores);
    let (mut base, bl2) = build_cluster(prog, cfg.clone());
    let (mut perm, pl2) = build_cluster(prog, cfg);

    let mut base_digests: Vec<u64> = Vec::new();
    let rb = base.run_team_permuted(
        prog.entry,
        &args,
        num_cores,
        500_000,
        &canonical,
        Some(&mut |_, d| base_digests.push(d)),
    );
    let mut diverged: Option<Divergence> = None;
    let mut observe = |q: u64, d: u64| {
        if diverged.is_some() {
            return;
        }
        match base_digests.get(q as usize) {
            Some(&want) if want == d => {}
            Some(&want) => {
                diverged = Some(Divergence {
                    step: q,
                    what: format!(
                        "quantum {q} (quantum_cycles {quantum}) digest mismatch: \
                         hart order {want:#018x} vs order {permuted:?} {d:#018x}"
                    ),
                })
            }
            None => {
                diverged = Some(Divergence {
                    step: q,
                    what: format!(
                        "order {permuted:?} reached quantum {q} (quantum_cycles {quantum}) \
                         after the hart-order run stopped at {}",
                        base_digests.len()
                    ),
                })
            }
        }
    };
    let rp = perm.run_team_permuted(
        prog.entry,
        &args,
        num_cores,
        500_000,
        &permuted,
        Some(&mut observe),
    );
    if let Some(d) = diverged {
        return Err(d);
    }
    let boundary = base_digests.len() as u64;
    let (tb, tp) = match (rb, rp) {
        (Ok(tb), Ok(tp)) => (tb, tp),
        (Err(eb), Err(ep)) => {
            let (sb, sp) = (format!("{eb:?}"), format!("{ep:?}"));
            if sb != sp {
                return Err(Divergence {
                    step: boundary,
                    what: format!(
                        "team error mismatch: hart order {sb} vs order {permuted:?} {sp}"
                    ),
                });
            }
            // A failed team keeps its stores up to the fault.
            compare_team_images(
                (&base, &bl2),
                (&perm, &pl2),
                boundary,
                "hart order",
                &format!("order {permuted:?}"),
            )?;
            return Ok(LockstepStats::default());
        }
        (a, b) => {
            return Err(Divergence {
                step: boundary,
                what: format!(
                    "team results differ in kind: hart order {a:?} vs order {permuted:?} {b:?}"
                ),
            });
        }
    };
    if tb != tp {
        return Err(Divergence {
            step: boundary,
            what: format!("team result mismatch: hart order {tb:?} vs order {permuted:?} {tp:?}"),
        });
    }
    compare_team_images(
        (&base, &bl2),
        (&perm, &pl2),
        boundary,
        "hart order",
        &format!("order {permuted:?}"),
    )?;
    Ok(LockstepStats {
        steps: boundary,
        retired: tb.per_core_instret.iter().sum(),
    })
}

/// Dispatches a program to the harness matching its ISA side.
///
/// Bare-core programs run the per-retire ladder (decode cache on vs
/// off), then run it chunked ([`run_chunked_lockstep`]), checking the
/// inline replay loop against the plain interpreter. Host programs run
/// the per-retire ladder over the cached CVA6 ([`run_host_lockstep`])
/// and then its chunked form ([`run_host_chunked_lockstep`]). Cluster
/// programs run *their* ladder twice:
/// decode cache on vs off ([`run_cluster_lockstep`]), then hart order vs
/// a seeded step-order permutation with per-quantum digest comparison
/// ([`run_team_order_lockstep`]) — the team size is drawn from the
/// program seed so campaigns cover 2-, 4- and 8-core contention
/// patterns.
pub fn run_differential(
    prog: &Program,
    opts: &LockstepOptions,
) -> Result<LockstepStats, Divergence> {
    match prog.isa {
        Isa::Rv64Sv39 | Isa::Rv32Pulp => {
            let stats = run_lockstep(prog, opts)?;
            run_chunked_lockstep(prog, opts)?;
            Ok(stats)
        }
        Isa::Rv64Host => {
            let stats = run_host_lockstep(prog, opts)?;
            run_host_chunked_lockstep(prog, opts)?;
            Ok(stats)
        }
        Isa::Rv32Cluster => {
            let stats = run_cluster_lockstep(prog, 2)?;
            let cores = [2usize, 4, 8][(prog.data_seed >> 16) as usize % 3];
            run_team_order_lockstep(prog, cores)?;
            Ok(stats)
        }
    }
}
