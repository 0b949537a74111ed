//! Deterministic random-program generation for the differential fuzzer.
//!
//! Programs are built as a list of [`GenItem`]s — small, self-contained
//! recipes that each expand to a handful of instructions through the
//! [`Asm`] builder. Keeping the IR at item granularity (rather than raw
//! words) buys two things:
//!
//! - **any subset of items still assembles**: every control-transfer an
//!   item emits binds its own labels, so the shrinker can delete arbitrary
//!   item ranges and re-assemble without dangling references;
//! - **repros stay readable**: a minimized program is a short list of
//!   `Debug`-printed items plus its disassembly, not an opaque blob.
//!
//! All randomness flows from a caller-provided [`SplitMix64`], so a
//! program is a pure function of `(root seed, ISA side, program index)`.

use hulkv_rv::compressed::compress;
use hulkv_rv::csr::addr;
use hulkv_rv::inst::{AluOp, FReg, Inst};
use hulkv_rv::{Asm, HpmEvent, Reg, Xlen};
use hulkv_sim::SplitMix64;

/// Which harness a program targets. The four sides differ in XLEN, the
/// extension set the generator may draw from, and the data-region layout
/// the emitted load/store items address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// RV64 IMAFDC + Zicsr on a bare [`hulkv_rv::Core`] over a flat bus,
    /// running in S-mode under randomly chosen Sv39 page tables (including
    /// hostile ones with missing A/D bits) with trap-and-skip handling.
    Rv64Sv39,
    /// RV32 IMF + Xpulp (hardware loops, post-increment, SIMD) on a bare
    /// RI5CY-class core over a flat bus in M-mode.
    Rv32Pulp,
    /// RV64 M-mode programs run through the full CVA6 [`hulkv_host::Host`]
    /// (L1 caches + clock bridge), exercising the decode cache over a
    /// timing-stateful bus.
    Rv64Host,
    /// RV32 Xpulp programs run through [`hulkv_cluster::Cluster::run_team`]
    /// with the decode cache on vs off.
    Rv32Cluster,
}

impl Isa {
    /// The register width of this side.
    pub fn xlen(self) -> Xlen {
        match self {
            Isa::Rv64Sv39 | Isa::Rv64Host => Xlen::Rv64,
            Isa::Rv32Pulp | Isa::Rv32Cluster => Xlen::Rv32,
        }
    }

    /// Base of the always-mapped, always-writable data sandbox.
    pub fn benign_base(self) -> u64 {
        match self {
            Isa::Rv64Sv39 | Isa::Rv32Pulp => 0x4_0000,
            Isa::Rv64Host => 0x8001_0000,
            Isa::Rv32Cluster => hulkv_cluster::TCDM_BASE,
        }
    }

    /// Base of the second data region. On [`Isa::Rv64Sv39`] its 16 pages
    /// carry randomized PTE flags in page table B (missing A, missing D,
    /// read-only, user-only, unmapped…); on the other sides it is plain
    /// memory with a different locality (external DRAM for the cluster).
    pub fn hostile_base(self) -> u64 {
        match self {
            Isa::Rv64Sv39 | Isa::Rv32Pulp => 0x5_0000,
            Isa::Rv64Host => 0x8003_0000,
            Isa::Rv32Cluster => 0x8004_0000,
        }
    }
}

/// Scratch registers the items may freely clobber. Excluded by design:
/// `sp` (cluster stacks), `s0`/`s1` (data-region bases), `s2`–`s5`
/// (pre-materialized `satp` values), and `t5` (trap-handler scratch).
pub(crate) const WRITABLE: [Reg; 23] = [
    Reg::Ra,
    Reg::Gp,
    Reg::Tp,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
    Reg::A6,
    Reg::A7,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
    Reg::S10,
    Reg::S11,
    Reg::T3,
    Reg::T4,
    Reg::T6,
];

/// Registers items may read: everything writable plus the stable bases.
const READABLE: [Reg; 26] = [
    Reg::Ra,
    Reg::Gp,
    Reg::Tp,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
    Reg::A6,
    Reg::A7,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
    Reg::S10,
    Reg::S11,
    Reg::T3,
    Reg::T4,
    Reg::T6,
    Reg::Zero,
    Reg::S0,
    Reg::S1,
];

fn wr(idx: u8) -> Reg {
    WRITABLE[idx as usize % WRITABLE.len()]
}

fn rd_any(idx: u8) -> Reg {
    READABLE[idx as usize % READABLE.len()]
}

/// `addi x31, x31, imm` — the canonical patch/straddle payload: a 4-byte
/// instruction with an architecturally visible effect on `t6`.
fn addi_t6(imm: i8) -> u32 {
    ((imm as i32 as u32 & 0xFFF) << 20) | (31 << 15) | (31 << 7) | 0x13
}

const C_NOP: u32 = 0x0001;

/// One self-contained program building block. Every variant expands to a
/// short instruction sequence with no references outside itself (other
/// than the reserved base registers), so deleting any subset of items
/// yields a program that still assembles and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenItem {
    /// Register-register ALU / mul / div op from the per-XLEN table.
    Alu { op: u8, rd: u8, rs1: u8, rs2: u8 },
    /// Immediate ALU op (shift immediates are masked to the XLEN).
    AluImm { op: u8, rd: u8, rs1: u8, imm: i16 },
    /// Load a full-width constant.
    Li { rd: u8, value: u64 },
    /// Conditional branch over one filler instruction (label is bound
    /// inside the item).
    Branch { cond: u8, rs1: u8, rs2: u8 },
    /// Integer or FP load/store into one of the two data regions, with
    /// optional misalignment and page-straddling offsets.
    LoadStore {
        op: u8,
        reg: u8,
        hostile: bool,
        page: u8,
        off: u16,
    },
    /// AMO or LR/SC pair at a width-aligned sandbox address.
    Amo {
        op: u8,
        rd: u8,
        rs2: u8,
        hostile: bool,
        off: u16,
    },
    /// FP register op (F everywhere, D on RV64).
    Fp {
        op: u8,
        rd: u8,
        rs1: u8,
        rs2: u8,
        rs3: u8,
    },
    /// CSR probe: reading `cycle`/`instret` folds the timing model into
    /// architectural state, so a cycle divergence between the fast and
    /// reference runs becomes a register divergence too. Also exercises
    /// the HPM group (`mhpmcounter`/`hpmcounter` reads, counter writes,
    /// arming of microarchitecture-independent event selectors).
    CsrProbe { op: u8, rd: u8, rs1: u8 },
    /// `csrw satp, s{2+table}` — switch between bare mode and the three
    /// prebuilt page tables (benign / hostile A-D / 2 MiB superpage).
    /// RV64 Sv39 side only.
    SatpSwitch { table: u8 },
    /// `ecall`: privilege round-trip through the M-mode handler.
    Ecall,
    /// `fence.i`: the architectural decoded-entry invalidation point.
    FenceI,
    /// Self-modifying code: a two-iteration loop whose body patches its
    /// own `nop` slot into `addi t6, t6, imm` between the iterations,
    /// with or without a `fence.i`. A stale decoded entry replays the
    /// dead `nop` and diverges in `t6`.
    SmcPatch { imm: i8, fence: bool },
    /// RVC parcel alignment: `c.nop`, then a 4-byte `addi t6` *straddling
    /// the word boundary* (PC ≡ 2 mod 4), then `c.nop`. Combined with the
    /// randomized entry offset this puts 4-byte fetches across Sv39 page
    /// boundaries. RV64 sides only.
    RvcStraddle { imm: i8 },
    /// Two compressed instructions packed into one word (c.addi / c.li /
    /// c.mv / c.add), exercising 2-byte decode-cache slots. RV64 only.
    RvcPair {
        kind_a: u8,
        kind_b: u8,
        rd: u8,
        rs: u8,
        imm: i8,
    },
    /// Xpulp hardware loop (`lp.starti`/`lp.endi`/`lp.counti`) around a
    /// tiny ALU body. RV32 sides only.
    HwLoop { body: u8, count: u8 },
    /// Xpulp ALU / bit-manipulation / SIMD / packed-f16 op. RV32 only.
    Xpulp { op: u8, rd: u8, rs1: u8, rs2: u8 },
    /// Xpulp post-increment load/store through a scratch pointer.
    XpulpPostInc {
        op: u8,
        reg: u8,
        hostile: bool,
        off: u16,
        stride: i8,
    },
    /// Replay-hostile: a loop whose back-edge lands in the *middle* of a
    /// previously executed straight-line run, so the inline replay loop
    /// re-enters that run at an interior offset.
    SbMidBranch { iters: u8, imm: i8 },
    /// Replay-hostile: self-modifying code whose store patches an
    /// instruction *later in the same straight-line run* — the inline
    /// replay executing the store must not replay the stale slot after it
    /// (with or without an intervening `fence.i`).
    SbSmcTail { imm: i8, fence: bool, pad: u8 },
    /// RV32 only: a hardware loop with a long straight-line body
    /// (56..=119 instructions); Xpulp cores stay on the step loop, so it
    /// replays from the decode cache.
    SbLongLoop { body: u8, count: u8, len: u8 },
    /// Cluster only: a hart-striped TCDM hammer. Each core derives a
    /// pointer from `mhartid` and bursts word stores/loads through it at
    /// a randomized stride, so the cores of a team race over overlapping
    /// word-interleaved bank ranges. This is the deliberate worst case
    /// for the quantum engine: heavy bank-conflict accounting inside a
    /// quantum and racing same-page writes the boundary merge must
    /// resolve in canonical hart order.
    TcdmHammer {
        reg: u8,
        off: u8,
        stride: u8,
        count: u8,
    },
}

const ALU_RV64: usize = 20;
const ALU_RV32: usize = 16;

fn emit_alu(a: &mut Asm, op: u8, rd: Reg, rs1: Reg, rs2: Reg, xlen: Xlen) {
    let n = if xlen == Xlen::Rv64 {
        ALU_RV64
    } else {
        ALU_RV32
    };
    match op as usize % n {
        0 => a.add(rd, rs1, rs2),
        1 => a.sub(rd, rs1, rs2),
        2 => a.and(rd, rs1, rs2),
        3 => a.or(rd, rs1, rs2),
        4 => a.xor(rd, rs1, rs2),
        5 => a.sll(rd, rs1, rs2),
        6 => a.srl(rd, rs1, rs2),
        7 => a.sra(rd, rs1, rs2),
        8 => a.slt(rd, rs1, rs2),
        9 => a.sltu(rd, rs1, rs2),
        10 => a.mul(rd, rs1, rs2),
        11 => a.mulh(rd, rs1, rs2),
        12 => a.mulhu(rd, rs1, rs2),
        13 => a.div(rd, rs1, rs2),
        14 => a.divu(rd, rs1, rs2),
        15 => a.rem(rd, rs1, rs2),
        16 => a.addw(rd, rs1, rs2),
        17 => a.subw(rd, rs1, rs2),
        18 => a.sllw(rd, rs1, rs2),
        19 => a.mulw(rd, rs1, rs2),
        _ => unreachable!(),
    }
}

fn emit_alu_imm(a: &mut Asm, op: u8, rd: Reg, rs1: Reg, imm: i16, xlen: Xlen) {
    let imm = imm as i64 % 2048;
    let shamt = imm.unsigned_abs() as i64 & if xlen == Xlen::Rv64 { 63 } else { 31 };
    let n = if xlen == Xlen::Rv64 { 11 } else { 9 };
    match op as usize % n {
        0 => a.addi(rd, rs1, imm),
        1 => a.andi(rd, rs1, imm),
        2 => a.ori(rd, rs1, imm),
        3 => a.xori(rd, rs1, imm),
        4 => a.slti(rd, rs1, imm),
        5 => a.sltiu(rd, rs1, imm),
        6 => a.slli(rd, rs1, shamt),
        7 => a.srli(rd, rs1, shamt),
        8 => a.srai(rd, rs1, shamt),
        9 => a.addiw(rd, rs1, imm),
        10 => a.slliw(rd, rs1, shamt & 31),
        _ => unreachable!(),
    }
}

/// (is_store, width, fp) for each load/store opcode index.
fn ls_table(xlen: Xlen) -> &'static [(bool, u64, bool)] {
    const RV64: &[(bool, u64, bool)] = &[
        (false, 1, false), // lb
        (false, 1, false), // lbu
        (false, 2, false), // lh
        (false, 2, false), // lhu
        (false, 4, false), // lw
        (false, 4, false), // lwu
        (false, 8, false), // ld
        (true, 1, false),  // sb
        (true, 2, false),  // sh
        (true, 4, false),  // sw
        (true, 8, false),  // sd
        (false, 4, true),  // flw
        (false, 8, true),  // fld
        (true, 4, true),   // fsw
        (true, 8, true),   // fsd
    ];
    const RV32: &[(bool, u64, bool)] = &[
        (false, 1, false),
        (false, 1, false),
        (false, 2, false),
        (false, 2, false),
        (false, 4, false),
        (true, 1, false),
        (true, 2, false),
        (true, 4, false),
        (false, 4, true), // flw
        (true, 4, true),  // fsw
    ];
    if xlen == Xlen::Rv64 {
        RV64
    } else {
        RV32
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_load_store(a: &mut Asm, isa: Isa, op: u8, reg: u8, hostile: bool, page: u8, off: u16) {
    let xlen = isa.xlen();
    let table = ls_table(xlen);
    let idx = op as usize % table.len();
    let (_, width, _) = table[idx];
    // Half the offsets are width-aligned; the rest may be misaligned and
    // may straddle a page boundary (the interesting Sv39 case).
    let mut off = (off % 4096) as u64;
    if off.is_multiple_of(2) {
        off &= !(width - 1);
    }
    let base = if hostile {
        isa.hostile_base()
    } else {
        isa.benign_base()
    };
    let addr = base + (page as u64 % 16) * 4096 + off;
    a.li(Reg::T0, addr as i64);
    let r = wr(reg);
    let f = FReg(reg % 32);
    match (xlen, idx) {
        (Xlen::Rv64, 0) => a.lb(r, Reg::T0, 0),
        (Xlen::Rv64, 1) => a.lbu(r, Reg::T0, 0),
        (Xlen::Rv64, 2) => a.lh(r, Reg::T0, 0),
        (Xlen::Rv64, 3) => a.lhu(r, Reg::T0, 0),
        (Xlen::Rv64, 4) => a.lw(r, Reg::T0, 0),
        (Xlen::Rv64, 5) => a.lwu(r, Reg::T0, 0),
        (Xlen::Rv64, 6) => a.ld(r, Reg::T0, 0),
        (Xlen::Rv64, 7) => a.sb(rd_any(reg), Reg::T0, 0),
        (Xlen::Rv64, 8) => a.sh(rd_any(reg), Reg::T0, 0),
        (Xlen::Rv64, 9) => a.sw(rd_any(reg), Reg::T0, 0),
        (Xlen::Rv64, 10) => a.sd(rd_any(reg), Reg::T0, 0),
        (Xlen::Rv64, 11) => a.flw(f, Reg::T0, 0),
        (Xlen::Rv64, 12) => a.fld(f, Reg::T0, 0),
        (Xlen::Rv64, 13) => a.fsw(f, Reg::T0, 0),
        (Xlen::Rv64, 14) => a.fsd(f, Reg::T0, 0),
        (Xlen::Rv32, 0) => a.lb(r, Reg::T0, 0),
        (Xlen::Rv32, 1) => a.lbu(r, Reg::T0, 0),
        (Xlen::Rv32, 2) => a.lh(r, Reg::T0, 0),
        (Xlen::Rv32, 3) => a.lhu(r, Reg::T0, 0),
        (Xlen::Rv32, 4) => a.lw(r, Reg::T0, 0),
        (Xlen::Rv32, 5) => a.sb(rd_any(reg), Reg::T0, 0),
        (Xlen::Rv32, 6) => a.sh(rd_any(reg), Reg::T0, 0),
        (Xlen::Rv32, 7) => a.sw(rd_any(reg), Reg::T0, 0),
        (Xlen::Rv32, 8) => a.flw(f, Reg::T0, 0),
        (Xlen::Rv32, 9) => a.fsw(f, Reg::T0, 0),
        _ => unreachable!(),
    }
}

fn emit_amo(a: &mut Asm, isa: Isa, op: u8, rd: u8, rs2: u8, hostile: bool, off: u16) {
    let xlen = isa.xlen();
    let n = if xlen == Xlen::Rv64 { 5 } else { 3 };
    let idx = op as usize % n;
    let width: u64 = if idx >= 3 { 8 } else { 4 };
    let base = if hostile {
        isa.hostile_base()
    } else {
        isa.benign_base()
    };
    let addr = (base + off as u64 % 0xF000) & !(width - 1);
    a.li(Reg::T0, addr as i64);
    let (rd, rs2) = (wr(rd), rd_any(rs2));
    match idx {
        0 => a.amoadd_w(rd, rs2, Reg::T0),
        1 => a.amoswap_w(rd, rs2, Reg::T0),
        2 => {
            a.lr_w(rd, Reg::T0);
            a.sc_w(rd, rs2, Reg::T0);
        }
        3 => a.amoadd_d(rd, rs2, Reg::T0),
        4 => {
            a.lr_d(rd, Reg::T0);
            a.sc_d(rd, rs2, Reg::T0);
        }
        _ => unreachable!(),
    }
}

fn emit_fp(a: &mut Asm, op: u8, rd: u8, rs1: u8, rs2: u8, rs3: u8, xlen: Xlen) {
    let n = if xlen == Xlen::Rv64 { 19 } else { 11 };
    let (fd, f1, f2, f3) = (
        FReg(rd % 32),
        FReg(rs1 % 32),
        FReg(rs2 % 32),
        FReg(rs3 % 32),
    );
    let (xd, x1) = (wr(rd), rd_any(rs1));
    match op as usize % n {
        0 => a.fmv_w_x(fd, x1),
        1 => a.fadd_s(fd, f1, f2),
        2 => a.fsub_s(fd, f1, f2),
        3 => a.fmul_s(fd, f1, f2),
        4 => a.fdiv_s(fd, f1, f2),
        5 => a.fmadd_s(fd, f1, f2, f3),
        6 => a.feq_s(xd, f1, f2),
        7 => a.flt_s(xd, f1, f2),
        8 => a.fcvt_s_w(fd, x1),
        9 => a.fcvt_w_s(xd, f1),
        10 => a.fmv_x_w(xd, f1),
        11 => a.fmv_d_x(fd, x1),
        12 => a.fadd_d(fd, f1, f2),
        13 => a.fmul_d(fd, f1, f2),
        14 => a.fdiv_d(fd, f1, f2),
        15 => a.fmadd_d(fd, f1, f2, f3),
        16 => a.fcvt_d_l(fd, x1),
        17 => a.fcvt_l_d(xd, f1),
        18 => a.fmv_x_d(xd, f1),
        _ => unreachable!(),
    }
}

fn emit_csr_probe(a: &mut Asm, op: u8, rd: u8, rs1: u8) {
    let (rd, rs) = (wr(rd), rd_any(rs1));
    // HPM probes pick their counter off the operand byte. Only
    // microarchitecture-independent selectors are armed (taken branches,
    // loads, stores): decode-cache and TLB event counts legitimately
    // differ between the lockstep fast and reference sides, so arming
    // them would turn an expected timing difference into a register
    // divergence.
    let hpm = rs1 as u16 % addr::HPM_COUNTERS;
    match op % 11 {
        0 => a.csrr(rd, addr::CYCLE),
        1 => a.csrr(rd, addr::INSTRET),
        2 => a.csrw(addr::MSCRATCH, rs),
        3 => a.csrr(rd, addr::MSCRATCH),
        4 => a.csrw(addr::FFLAGS, rs),
        5 => a.csrr(rd, addr::FFLAGS),
        6 => a.csrrw(rd, addr::MSCRATCH, rs),
        7 => a.csrr(rd, addr::MHPMCOUNTER3 + hpm),
        8 => a.csrr(rd, addr::HPMCOUNTER3 + hpm),
        9 => {
            const STABLE: [HpmEvent; 3] = [HpmEvent::TakenBranch, HpmEvent::Load, HpmEvent::Store];
            a.li(Reg::T0, STABLE[rs1 as usize % STABLE.len()] as i64);
            a.csrw(addr::MHPMEVENT3 + hpm, Reg::T0);
        }
        10 => a.csrw(addr::MHPMCOUNTER3 + hpm, rs),
        _ => unreachable!(),
    }
}

fn emit_smc(a: &mut Asm, imm: i8, fence: bool) {
    // li t1, 2
    // la t0, slot ; li t2, <addi t6,t6,imm>
    // loop:
    // slot: nop                  <- becomes addi t6 after the first pass
    //   sw t2, 0(t0) ; [fence.i]
    //   addi t1, t1, -1 ; bnez t1, loop
    a.li(Reg::T1, 2);
    let slot = a.label();
    let top = a.label();
    a.la(Reg::T0, slot);
    a.li(Reg::T2, addi_t6(imm) as i64);
    a.bind(top);
    a.bind(slot);
    a.nop();
    a.sw(Reg::T2, Reg::T0, 0);
    if fence {
        a.fence_i();
    }
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, top);
}

fn emit_rvc_straddle(a: &mut Asm, imm: i8) {
    let e = addi_t6(imm);
    a.word(C_NOP | (e & 0xFFFF) << 16);
    a.word((e >> 16) | C_NOP << 16);
}

fn rvc_parcel(kind: u8, rd: Reg, rs: Reg, imm: i8, xlen: Xlen) -> u16 {
    let imm = (imm % 32) as i64;
    let inst = match kind % 4 {
        0 => Inst::OpImm {
            op: AluOp::Add,
            rd,
            rs1: rd,
            imm,
        },
        1 => Inst::OpImm {
            op: AluOp::Add,
            rd,
            rs1: Reg::Zero,
            imm,
        },
        2 => Inst::Op {
            op: AluOp::Add,
            rd,
            rs1: Reg::Zero,
            rs2: rs,
        },
        _ => Inst::Op {
            op: AluOp::Add,
            rd,
            rs1: rd,
            rs2: rs,
        },
    };
    compress(&inst, xlen).unwrap_or(C_NOP as u16)
}

fn emit_rvc_pair(a: &mut Asm, kind_a: u8, kind_b: u8, rd: u8, rs: u8, imm: i8, xlen: Xlen) {
    let (rd, rs) = (wr(rd), wr(rs));
    let lo = rvc_parcel(kind_a, rd, rs, imm, xlen);
    let hi = rvc_parcel(kind_b, rs, rd, imm.wrapping_neg(), xlen);
    a.word(lo as u32 | (hi as u32) << 16);
}

fn emit_hwloop(a: &mut Asm, body: u8, count: u8) {
    let idx = body % 2;
    a.lp_counti(idx, 1 + (count % 8) as i64);
    let (s, e) = (a.label(), a.label());
    a.lp_starti(idx, s);
    a.lp_endi(idx, e);
    a.bind(s);
    match body % 4 {
        0 => a.addi(Reg::T1, Reg::T1, 1),
        1 => a.add(Reg::A0, Reg::A0, Reg::A1),
        2 => {
            a.xor(Reg::A2, Reg::A2, Reg::A3);
            a.addi(Reg::A3, Reg::A3, 3)
        }
        _ => a.p_mac(Reg::A4, Reg::A5, Reg::A6),
    }
    a.bind(e);
}

fn emit_xpulp(a: &mut Asm, op: u8, rd: u8, rs1: u8, rs2: u8) {
    let (rd, rs1, rs2) = (wr(rd), rd_any(rs1), rd_any(rs2));
    match op % 30 {
        0 => a.p_mac(rd, rs1, rs2),
        1 => a.p_msu(rd, rs1, rs2),
        2 => a.p_min(rd, rs1, rs2),
        3 => a.p_max(rd, rs1, rs2),
        4 => a.p_abs(rd, rs1),
        5 => a.p_clip(rd, rs1, rs2),
        6 => a.p_exths(rd, rs1),
        7 => a.p_exthz(rd, rs1),
        8 => a.p_cnt(rd, rs1),
        9 => a.p_ff1(rd, rs1),
        10 => a.p_fl1(rd, rs1),
        11 => a.p_ror(rd, rs1, rs2),
        12 => a.pv_add_b(rd, rs1, rs2),
        13 => a.pv_add_h(rd, rs1, rs2),
        14 => a.pv_sub_b(rd, rs1, rs2),
        15 => a.pv_max_b(rd, rs1, rs2),
        16 => a.pv_min_b(rd, rs1, rs2),
        17 => a.pv_avg_h(rd, rs1, rs2),
        18 => a.pv_sra_h(rd, rs1, rs2),
        19 => a.pv_dotsp_b(rd, rs1, rs2),
        20 => a.pv_sdotsp_b(rd, rs1, rs2),
        21 => a.pv_sdotup_b(rd, rs1, rs2),
        22 => a.pv_extract_b(rd, rs1, rs2),
        23 => a.pv_insert_b(rd, rs1, rs2),
        24 => a.pv_shuffle_b(rd, rs1, rs2),
        25 => a.vfadd_h(rd, rs1, rs2),
        26 => a.vfsub_h(rd, rs1, rs2),
        27 => a.vfmul_h(rd, rs1, rs2),
        28 => a.vfmac_h(rd, rs1, rs2),
        29 => a.vfmax_h(rd, rs1, rs2),
        _ => unreachable!(),
    }
}

fn emit_xpulp_postinc(a: &mut Asm, isa: Isa, op: u8, reg: u8, hostile: bool, off: u16, stride: i8) {
    let base = if hostile {
        isa.hostile_base()
    } else {
        isa.benign_base()
    };
    let addr = (base + off as u64 % 0xF000) & !3;
    a.li(Reg::T0, addr as i64);
    let r = wr(reg);
    let stride = stride as i64;
    match op % 6 {
        0 => a.p_lw_post(r, Reg::T0, stride & !3),
        1 => a.p_lh_post(r, Reg::T0, stride & !1),
        2 => a.p_lbu_post(r, Reg::T0, stride),
        3 => a.p_sw_post(rd_any(reg), Reg::T0, stride & !3),
        4 => a.p_sh_post(rd_any(reg), Reg::T0, stride & !1),
        5 => a.p_sb_post(rd_any(reg), Reg::T0, stride),
        _ => unreachable!(),
    }
}

/// See [`GenItem::SbMidBranch`].
fn emit_sb_mid_branch(a: &mut Asm, iters: u8, imm: i8) {
    a.li(Reg::T1, 1 + (iters % 3) as i64);
    // Straight-line prefix: executed once, the head of a run...
    a.addi(Reg::T6, Reg::T6, imm as i64 % 32);
    let mid = a.label();
    a.bind(mid);
    // ...whose interior is then re-entered by the loop back-edge.
    a.addi(Reg::T6, Reg::T6, 1);
    a.xor(Reg::T2, Reg::T2, Reg::T6);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, mid);
}

/// See [`GenItem::SbSmcTail`].
fn emit_sb_smc_tail(a: &mut Asm, imm: i8, fence: bool, pad: u8) {
    a.li(Reg::T1, 2);
    let slot = a.label();
    let top = a.label();
    a.bind(top);
    a.la(Reg::T0, slot);
    a.li(Reg::T2, addi_t6(imm) as i64);
    // Padding pushes the patch slot deeper into the same run.
    for _ in 0..pad % 6 {
        a.addi(Reg::T3, Reg::T3, 1);
    }
    a.sw(Reg::T2, Reg::T0, 0);
    if fence {
        a.fence_i();
    }
    a.bind(slot);
    a.nop();
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, top);
}

/// See [`GenItem::SbLongLoop`].
fn emit_sb_long_loop(a: &mut Asm, body: u8, count: u8, len: u8) {
    let idx = body % 2;
    a.lp_counti(idx, 1 + (count % 4) as i64);
    let (s, e) = (a.label(), a.label());
    a.lp_starti(idx, s);
    a.lp_endi(idx, e);
    a.bind(s);
    // 56..=119 straight-line instructions.
    for i in 0..56 + (len % 64) as u32 {
        if i % 3 == 0 {
            a.addi(Reg::T1, Reg::T1, 1);
        } else {
            a.xor(Reg::A2, Reg::A2, Reg::A3);
        }
    }
    a.bind(e);
}

/// See [`GenItem::TcdmHammer`].
fn emit_tcdm_hammer(a: &mut Asm, reg: u8, off: u8, stride: u8, count: u8) {
    // Two distinct scratch registers (consecutive WRITABLE indices never
    // alias): a pointer and a data register.
    let ptr = wr(reg);
    let val = wr(reg.wrapping_add(1));
    // ptr = s0 (TCDM base) + mhartid * 4 + word-aligned offset: every
    // hart starts one word apart, inside the word-interleaved bank 0..N
    // window, so strided bursts from different harts collide on banks
    // and overlap on pages.
    a.csrr(ptr, addr::MHARTID);
    a.slli(ptr, ptr, 2);
    a.add(ptr, ptr, Reg::S0);
    a.addi(ptr, ptr, (off & 0x7F) as i64 * 4);
    // 4..=16 store+load+bump iterations at a 4..=68-byte stride keeps the
    // whole burst under 2 KiB of TCDM — always in-bounds, maximally
    // overlapped between harts.
    let stride = 4 * (1 + (stride % 17) as i64);
    for _ in 0..4 + count % 13 {
        a.sw(val, ptr, 0);
        a.lw(val, ptr, 0);
        a.addi(ptr, ptr, stride);
    }
}

impl GenItem {
    /// Expands the item into `a`. `isa` selects XLEN-specific op tables
    /// and the data-region bases.
    pub fn emit(&self, a: &mut Asm, isa: Isa) {
        let xlen = isa.xlen();
        match *self {
            GenItem::Alu { op, rd, rs1, rs2 } => {
                emit_alu(a, op, wr(rd), rd_any(rs1), rd_any(rs2), xlen)
            }
            GenItem::AluImm { op, rd, rs1, imm } => {
                emit_alu_imm(a, op, wr(rd), rd_any(rs1), imm, xlen)
            }
            GenItem::Li { rd, value } => {
                let v = if xlen == Xlen::Rv64 {
                    value as i64
                } else {
                    value as u32 as i64
                };
                a.li(wr(rd), v)
            }
            GenItem::Branch { cond, rs1, rs2 } => {
                let skip = a.label();
                let (rs1, rs2) = (rd_any(rs1), rd_any(rs2));
                match cond % 6 {
                    0 => a.beq(rs1, rs2, skip),
                    1 => a.bne(rs1, rs2, skip),
                    2 => a.blt(rs1, rs2, skip),
                    3 => a.bge(rs1, rs2, skip),
                    4 => a.bltu(rs1, rs2, skip),
                    _ => a.bgeu(rs1, rs2, skip),
                }
                a.addi(Reg::T1, Reg::T1, 1);
                a.bind(skip);
            }
            GenItem::LoadStore {
                op,
                reg,
                hostile,
                page,
                off,
            } => emit_load_store(a, isa, op, reg, hostile, page, off),
            GenItem::Amo {
                op,
                rd,
                rs2,
                hostile,
                off,
            } => emit_amo(a, isa, op, rd, rs2, hostile, off),
            GenItem::Fp {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            } => emit_fp(a, op, rd, rs1, rs2, rs3, xlen),
            GenItem::CsrProbe { op, rd, rs1 } => emit_csr_probe(a, op, rd, rs1),
            GenItem::SatpSwitch { table } => {
                let src = [Reg::S2, Reg::S3, Reg::S4, Reg::S5][table as usize % 4];
                a.csrw(addr::SATP, src);
            }
            GenItem::Ecall => a.ecall(),
            GenItem::FenceI => a.fence_i(),
            GenItem::SmcPatch { imm, fence } => emit_smc(a, imm, fence),
            GenItem::RvcStraddle { imm } => emit_rvc_straddle(a, imm),
            GenItem::RvcPair {
                kind_a,
                kind_b,
                rd,
                rs,
                imm,
            } => emit_rvc_pair(a, kind_a, kind_b, rd, rs, imm, xlen),
            GenItem::HwLoop { body, count } => emit_hwloop(a, body, count),
            GenItem::Xpulp { op, rd, rs1, rs2 } => emit_xpulp(a, op, rd, rs1, rs2),
            GenItem::XpulpPostInc {
                op,
                reg,
                hostile,
                off,
                stride,
            } => emit_xpulp_postinc(a, isa, op, reg, hostile, off, stride),
            GenItem::SbMidBranch { iters, imm } => emit_sb_mid_branch(a, iters, imm),
            GenItem::SbSmcTail { imm, fence, pad } => emit_sb_smc_tail(a, imm, fence, pad),
            GenItem::SbLongLoop { body, count, len } => emit_sb_long_loop(a, body, count, len),
            GenItem::TcdmHammer {
                reg,
                off,
                stride,
                count,
            } => emit_tcdm_hammer(a, reg, off, stride, count),
        }
    }
}

/// A generated program plus everything the harness needs to reproduce its
/// environment bit-for-bit: entry point, initial translation mode, the
/// hostile page-table flags, data/register seeds and the interrupt
/// schedule.
#[derive(Debug, Clone)]
pub struct Program {
    /// Which harness/extension side this program targets.
    pub isa: Isa,
    /// Entry PC. On the Sv39 side this is sometimes placed just before a
    /// page boundary so the instruction stream crosses pages early.
    pub entry: u64,
    /// Initial `satp` selector, 0–3 (bare / table A / table B / table C).
    pub initial_satp: u8,
    /// Leaf PTE flags of the 16 hostile data pages in table B.
    pub hostile_flags: [u8; 16],
    /// `(retire index, cause code)` machine-interrupt injections, applied
    /// to both runs at identical step indices.
    pub interrupts: Vec<(u64, u64)>,
    /// Seed for the data-region prefill.
    pub data_seed: u64,
    /// Seed for the initial integer/FP register file.
    pub reg_seed: u64,
    /// The instruction stream.
    pub items: Vec<GenItem>,
}

impl Program {
    /// Assembles the item stream, terminated by `ebreak` plus a safety
    /// tail (a second `ebreak` and padding so trailing RVC parcels can
    /// always fetch a full word).
    pub fn words(&self) -> Vec<u32> {
        let mut a = Asm::new(self.isa.xlen());
        for item in &self.items {
            item.emit(&mut a, self.isa);
        }
        a.ebreak();
        a.nop();
        a.ebreak();
        a.nop();
        a.assemble().expect("generated program must assemble")
    }
}

/// Leaf-flag menu for hostile pages in table B: V/R/W/X/U/A/D subsets
/// chosen to hit every fault path the walker implements (invalid,
/// non-leaf at level 0, missing A, read-only, missing D, user-only) plus
/// fully mapped pages so some accesses succeed.
const HOSTILE_FLAGS: [u8; 8] = [
    0x00, // invalid
    0x01, // V only: level-0 pointer -> fault
    0x03, // V|R, A clear -> faults on any access
    0x43, // V|R|A: read-only (store faults on W)
    0x47, // V|R|W|A, D clear -> store faults
    0xC7, // V|R|W|A|D: fully mapped rw
    0xD7, // V|R|W|U|A|D: user page -> S-mode access faults (no SUM)
    0xC7, // weight full mappings a bit higher
];

fn pick_item(rng: &mut SplitMix64, isa: Isa) -> GenItem {
    // Weighted variant choice per side. The `u8` fields are drawn wide
    // and reduced modulo the per-XLEN table sizes at emit time.
    let b = |rng: &mut SplitMix64| rng.next_u64() as u8;
    let weights: &[(u32, u8)] = match isa {
        // (weight, tag)
        Isa::Rv64Sv39 => &[
            (20, 0),
            (14, 1),
            (5, 2),
            (8, 3),
            (16, 4),
            (4, 5),
            (8, 6),
            (4, 7),
            (5, 8),
            (2, 9),
            (2, 10),
            (3, 11),
            (4, 12),
            (5, 13),
            (3, 17),
            (3, 18),
        ],
        Isa::Rv64Host => &[
            (20, 0),
            (14, 1),
            (5, 2),
            (8, 3),
            (16, 4),
            (4, 5),
            (8, 6),
            (4, 7),
            (2, 9),
            (2, 10),
            (3, 11),
            (4, 12),
            (5, 13),
            (3, 17),
            (3, 18),
        ],
        Isa::Rv32Pulp => &[
            (18, 0),
            (12, 1),
            (5, 2),
            (8, 3),
            (14, 4),
            (3, 5),
            (7, 6),
            (4, 7),
            (2, 9),
            (2, 10),
            (3, 11),
            (6, 14),
            (12, 15),
            (4, 16),
            (3, 17),
            (3, 18),
            (3, 19),
        ],
        Isa::Rv32Cluster => &[
            (18, 0),
            (12, 1),
            (5, 2),
            (8, 3),
            (14, 4),
            (3, 5),
            (7, 6),
            (3, 7),
            (2, 10),
            (3, 11),
            (6, 14),
            (12, 15),
            (4, 16),
            (3, 17),
            (3, 18),
            (3, 19),
            (8, 20),
        ],
    };
    let total: u32 = weights.iter().map(|w| w.0).sum();
    let mut roll = rng.next_below(total as u64) as u32;
    let tag = weights
        .iter()
        .find(|(w, _)| {
            if roll < *w {
                true
            } else {
                roll -= *w;
                false
            }
        })
        .expect("weights cover the roll")
        .1;
    match tag {
        0 => GenItem::Alu {
            op: b(rng),
            rd: b(rng),
            rs1: b(rng),
            rs2: b(rng),
        },
        1 => GenItem::AluImm {
            op: b(rng),
            rd: b(rng),
            rs1: b(rng),
            imm: rng.next_u64() as i16,
        },
        2 => GenItem::Li {
            rd: b(rng),
            value: rng.next_u64(),
        },
        3 => GenItem::Branch {
            cond: b(rng),
            rs1: b(rng),
            rs2: b(rng),
        },
        4 => GenItem::LoadStore {
            op: b(rng),
            reg: b(rng),
            hostile: rng.next_below(2) == 1,
            page: b(rng),
            off: rng.next_u64() as u16,
        },
        5 => GenItem::Amo {
            op: b(rng),
            rd: b(rng),
            rs2: b(rng),
            hostile: rng.next_below(2) == 1,
            off: rng.next_u64() as u16,
        },
        6 => GenItem::Fp {
            op: b(rng),
            rd: b(rng),
            rs1: b(rng),
            rs2: b(rng),
            rs3: b(rng),
        },
        7 => GenItem::CsrProbe {
            op: b(rng),
            rd: b(rng),
            rs1: b(rng),
        },
        8 => GenItem::SatpSwitch { table: b(rng) },
        9 => GenItem::Ecall,
        10 => GenItem::FenceI,
        11 => GenItem::SmcPatch {
            imm: b(rng) as i8,
            fence: rng.next_below(2) == 1,
        },
        12 => GenItem::RvcStraddle { imm: b(rng) as i8 },
        13 => GenItem::RvcPair {
            kind_a: b(rng),
            kind_b: b(rng),
            rd: b(rng),
            rs: b(rng),
            imm: b(rng) as i8,
        },
        14 => GenItem::HwLoop {
            body: b(rng),
            count: b(rng),
        },
        15 => GenItem::Xpulp {
            op: b(rng),
            rd: b(rng),
            rs1: b(rng),
            rs2: b(rng),
        },
        16 => GenItem::XpulpPostInc {
            op: b(rng),
            reg: b(rng),
            hostile: rng.next_below(2) == 1,
            off: rng.next_u64() as u16,
            stride: b(rng) as i8,
        },
        17 => GenItem::SbMidBranch {
            iters: b(rng),
            imm: b(rng) as i8,
        },
        18 => GenItem::SbSmcTail {
            imm: b(rng) as i8,
            fence: rng.next_below(2) == 1,
            pad: b(rng),
        },
        19 => GenItem::SbLongLoop {
            body: b(rng),
            count: b(rng),
            len: b(rng),
        },
        20 => GenItem::TcdmHammer {
            reg: b(rng),
            off: b(rng),
            stride: b(rng),
            count: b(rng),
        },
        _ => unreachable!(),
    }
}

/// Code-region base for the bare-core sides; the host/cluster sides place
/// code in DRAM behind their memory hierarchies.
pub const CODE_BASE: u64 = 0x1_0000;

fn entry_for(rng: &mut SplitMix64, isa: Isa) -> u64 {
    match isa {
        Isa::Rv64Sv39 => {
            // Half the programs start just under a page boundary so the
            // stream (including RVC-misaligned parcels) crosses pages
            // within the first few items.
            if rng.next_below(2) == 0 {
                CODE_BASE
            } else {
                CODE_BASE + 0xF80 + 4 * rng.next_below(30)
            }
        }
        Isa::Rv32Pulp => CODE_BASE + 4 * rng.next_below(16),
        Isa::Rv64Host => 0x8000_1000,
        Isa::Rv32Cluster => 0x8000_0000,
    }
}

/// Generates one random program for `isa`. Everything — item stream,
/// entry offset, page-table hostility, interrupt schedule, data and
/// register seeds — is drawn from `rng`, so the program is a pure
/// function of the seed.
pub fn generate(rng: &mut SplitMix64, isa: Isa) -> Program {
    let n_items = 16 + rng.next_below(176) as usize;
    let entry = entry_for(rng, isa);
    let initial_satp = if isa == Isa::Rv64Sv39 {
        rng.next_below(4) as u8
    } else {
        0
    };
    let mut hostile_flags = [0u8; 16];
    for f in &mut hostile_flags {
        *f = HOSTILE_FLAGS[rng.next_below(HOSTILE_FLAGS.len() as u64) as usize];
    }
    let interrupts = match isa {
        Isa::Rv64Sv39 | Isa::Rv64Host => {
            let n = rng.next_below(4);
            let mut v: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    let code = [3u64, 7, 11][rng.next_below(3) as usize];
                    (rng.next_below(400), code)
                })
                .collect();
            v.sort_unstable();
            v
        }
        Isa::Rv32Pulp => {
            let n = rng.next_below(4);
            let mut v: Vec<(u64, u64)> = (0..n)
                .map(|_| {
                    // Codes 3 and 7 only: their low bits cannot collide
                    // with any exception cause the RV32 handler must
                    // distinguish (mcause's interrupt bit sits at bit 63
                    // and is invisible to 32-bit compares).
                    let code = [3u64, 7][rng.next_below(2) as usize];
                    (rng.next_below(400), code)
                })
                .collect();
            v.sort_unstable();
            v
        }
        Isa::Rv32Cluster => Vec::new(),
    };
    let data_seed = rng.next_u64();
    let reg_seed = rng.next_u64();
    let items = (0..n_items).map(|_| pick_item(rng, isa)).collect();
    Program {
        isa,
        entry,
        initial_satp,
        hostile_flags,
        interrupts,
        data_seed,
        reg_seed,
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for isa in [
            Isa::Rv64Sv39,
            Isa::Rv32Pulp,
            Isa::Rv64Host,
            Isa::Rv32Cluster,
        ] {
            let p1 = generate(&mut SplitMix64::new(42), isa);
            let p2 = generate(&mut SplitMix64::new(42), isa);
            assert_eq!(p1.items, p2.items);
            assert_eq!(p1.entry, p2.entry);
            assert_eq!(p1.words(), p2.words());
            let p3 = generate(&mut SplitMix64::new(43), isa);
            assert_ne!(p1.words(), p3.words());
        }
    }

    #[test]
    fn every_subset_still_assembles() {
        let p = generate(&mut SplitMix64::new(7), Isa::Rv64Sv39);
        for cut in 0..p.items.len().min(24) {
            let mut q = p.clone();
            q.items.remove(cut);
            let w = q.words();
            assert!(!w.is_empty());
        }
    }

    #[test]
    fn rvc_pairs_compress() {
        // The four RVC kinds must actually produce compressed parcels
        // (not the c.nop fallback) for in-range operands.
        for kind in 0..4u8 {
            let parcel = rvc_parcel(kind, Reg::A0, Reg::A1, 5, Xlen::Rv64);
            assert_ne!(parcel & 0b11, 0b11, "kind {kind} must be 16-bit");
        }
    }

    #[test]
    fn addi_t6_encodes_addi() {
        let w = addi_t6(1);
        // opcode OP-IMM, rd=x31, funct3=0, rs1=x31.
        assert_eq!(w & 0x7F, 0x13);
        assert_eq!((w >> 7) & 0x1F, 31);
        assert_eq!((w >> 15) & 0x1F, 31);
        assert_eq!(w >> 20, 1);
        let neg = addi_t6(-1);
        assert_eq!(neg >> 20, 0xFFF);
    }
}
