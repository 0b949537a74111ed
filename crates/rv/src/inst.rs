//! Decoded instruction representation shared by the assembler, decoder and
//! interpreter.

use std::error::Error;
use std::fmt;

/// Register width of a simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Xlen {
    /// 32-bit (the PMCA's RI5CY-class cores).
    Rv32,
    /// 64-bit (the CVA6 host).
    Rv64,
}

impl Xlen {
    /// Register width in bits.
    pub const fn bits(self) -> u32 {
        match self {
            Xlen::Rv32 => 32,
            Xlen::Rv64 => 64,
        }
    }
}

/// An integer register, by ABI name.
///
/// # Example
///
/// ```
/// use hulkv_rv::Reg;
///
/// assert_eq!(Reg::Sp.index(), 2);
/// assert_eq!(Reg::from_index(10), Reg::A0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
#[repr(u8)]
pub enum Reg {
    Zero = 0,
    Ra = 1,
    Sp = 2,
    Gp = 3,
    Tp = 4,
    T0 = 5,
    T1 = 6,
    T2 = 7,
    S0 = 8,
    S1 = 9,
    A0 = 10,
    A1 = 11,
    A2 = 12,
    A3 = 13,
    A4 = 14,
    A5 = 15,
    A6 = 16,
    A7 = 17,
    S2 = 18,
    S3 = 19,
    S4 = 20,
    S5 = 21,
    S6 = 22,
    S7 = 23,
    S8 = 24,
    S9 = 25,
    S10 = 26,
    S11 = 27,
    T3 = 28,
    T4 = 29,
    T5 = 30,
    T6 = 31,
}

impl Reg {
    /// All registers in index order.
    pub const ALL: [Reg; 32] = [
        Reg::Zero,
        Reg::Ra,
        Reg::Sp,
        Reg::Gp,
        Reg::Tp,
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::S0,
        Reg::S1,
        Reg::A0,
        Reg::A1,
        Reg::A2,
        Reg::A3,
        Reg::A4,
        Reg::A5,
        Reg::A6,
        Reg::A7,
        Reg::S2,
        Reg::S3,
        Reg::S4,
        Reg::S5,
        Reg::S6,
        Reg::S7,
        Reg::S8,
        Reg::S9,
        Reg::S10,
        Reg::S11,
        Reg::T3,
        Reg::T4,
        Reg::T5,
        Reg::T6,
    ];

    /// The encoding index (0–31).
    pub const fn index(self) -> u8 {
        self as u8
    }

    /// Register for an encoding index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    pub fn from_index(i: u8) -> Reg {
        Reg::ALL[i as usize]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        f.write_str(names[self.index() as usize])
    }
}

/// A floating-point register `f0`–`f31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FReg(pub u8);

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Comparison used by conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Width and signedness of integer loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum LoadWidth {
    B,
    H,
    W,
    D,
    Bu,
    Hu,
    Wu,
}

impl LoadWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            LoadWidth::B | LoadWidth::Bu => 1,
            LoadWidth::H | LoadWidth::Hu => 2,
            LoadWidth::W | LoadWidth::Wu => 4,
            LoadWidth::D => 8,
        }
    }
}

/// Width of integer stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum StoreWidth {
    B,
    H,
    W,
    D,
}

impl StoreWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            StoreWidth::B => 1,
            StoreWidth::H => 2,
            StoreWidth::W => 4,
            StoreWidth::D => 8,
        }
    }
}

/// Register–register and register–immediate ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
}

/// M-extension operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MulDivOp {
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

/// Atomic memory operations (A extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AmoOp {
    Swap,
    Add,
    Xor,
    And,
    Or,
    Min,
    Max,
    Minu,
    Maxu,
}

/// CSR access operations (Zicsr).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CsrOp {
    Rw,
    Rs,
    Rc,
}

/// Floating-point precision of an F/D instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpFmt {
    S,
    D,
}

/// Floating-point computational operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpOp {
    Add,
    Sub,
    Mul,
    Div,
    Sqrt,
    Min,
    Max,
    SgnJ,
    SgnJn,
    SgnJx,
}

/// Floating-point comparisons (write an integer register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpCmp {
    Eq,
    Lt,
    Le,
}

/// Scalar Xpulp ALU operations (custom-3 space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PulpAluOp {
    Min,
    Max,
    Minu,
    Maxu,
    Abs,
    Exths,
    Exthz,
    Extbs,
    Extbz,
    Clip,
    /// Population count (`p.cnt`).
    Cnt,
    /// Find first set bit, 32 when none (`p.ff1`).
    Ff1,
    /// Find last set bit, 32 when none (`p.fl1`).
    Fl1,
    /// Rotate right by `rs2 & 31` (`p.ror`).
    Ror,
}

/// Element width of packed-SIMD operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdFmt {
    /// Four 8-bit lanes.
    B,
    /// Two 16-bit lanes.
    H,
}

impl SimdFmt {
    /// Number of lanes in a 32-bit register.
    pub const fn lanes(self) -> usize {
        match self {
            SimdFmt::B => 4,
            SimdFmt::H => 2,
        }
    }
}

/// Packed integer SIMD operations (`pv.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SimdOp {
    Add,
    Sub,
    Avg,
    Avgu,
    Min,
    Minu,
    Max,
    Maxu,
    Srl,
    Sra,
    And,
    Or,
    Xor,
    Abs,
    /// Unsigned × unsigned dot product, overwriting rd.
    Dotup,
    /// Unsigned × signed dot product, overwriting rd.
    Dotusp,
    /// Signed × signed dot product, overwriting rd.
    Dotsp,
    /// Accumulating unsigned dot product (`rd += …`).
    Sdotup,
    /// Accumulating unsigned × signed dot product.
    Sdotusp,
    /// Accumulating signed dot product — the MAC workhorse of int8 kernels.
    Sdotsp,
    /// Extract lane `rs2 mod lanes` of rs1, sign-extended (`pv.extract`).
    Extract,
    /// Insert rs1's low lane into lane `rs2 mod lanes` of rd (`pv.insert`).
    Insert,
    /// Permute rs1's lanes by the indices in rs2's lanes (`pv.shuffle`).
    Shuffle,
}

/// Packed FP16 SIMD operations (`vf*.h`, two half-precision lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SimdFpOp {
    Add,
    Sub,
    Mul,
    Mac,
    Min,
    Max,
    /// Dot product of the two f16 lane pairs, accumulated into `rd`
    /// interpreted as f32 (`vfdotpex.s.h`).
    DotpexS,
}

/// Hardware-loop setup instructions (two nesting levels, `L ∈ {0, 1}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwLoopOp {
    /// `lp.starti L, off` — loop body starts at `pc + off`.
    Starti,
    /// `lp.endi L, off` — loop body ends just before `pc + off`.
    Endi,
    /// `lp.count L, rs1` — iteration count from a register.
    Count,
    /// `lp.counti L, imm` — immediate iteration count.
    Counti,
}

/// A fully decoded instruction.
///
/// One enum covers both cores; the decoder only produces variants legal for
/// the requested [`Xlen`] and extension set, and the interpreter rejects
/// stray variants with an illegal-instruction trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Inst {
    Lui {
        rd: Reg,
        imm: i64,
    },
    Auipc {
        rd: Reg,
        imm: i64,
    },
    Jal {
        rd: Reg,
        offset: i64,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
        offset: i64,
    },
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        offset: i64,
    },
    Load {
        width: LoadWidth,
        rd: Reg,
        rs1: Reg,
        offset: i64,
    },
    Store {
        width: StoreWidth,
        rs2: Reg,
        rs1: Reg,
        offset: i64,
    },
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i64,
    },
    /// RV64 W-suffixed immediate ops (`addiw`, `slliw`, …).
    OpImm32 {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i64,
    },
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// RV64 W-suffixed register ops (`addw`, `sllw`, …).
    Op32 {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    MulDiv {
        op: MulDivOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// RV64 W-suffixed M ops (`mulw`, `divw`, …).
    MulDiv32 {
        op: MulDivOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `lr.w`/`lr.d`.
    LoadReserved {
        double: bool,
        rd: Reg,
        rs1: Reg,
    },
    /// `sc.w`/`sc.d`.
    StoreConditional {
        double: bool,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Amo {
        op: AmoOp,
        double: bool,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    Fence,
    FenceI,
    Ecall,
    Ebreak,
    Mret,
    Sret,
    Wfi,
    Csr {
        op: CsrOp,
        rd: Reg,
        csr: u16,
        src: CsrSrc,
    },

    // --- F/D ---
    FpLoad {
        fmt: FpFmt,
        rd: FReg,
        rs1: Reg,
        offset: i64,
    },
    FpStore {
        fmt: FpFmt,
        rs2: FReg,
        rs1: Reg,
        offset: i64,
    },
    FpOp3 {
        fmt: FpFmt,
        op: FpOp,
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
    },
    /// Fused multiply-add family: `rd = ±(rs1 × rs2) ± rs3`.
    FpFma {
        fmt: FpFmt,
        rd: FReg,
        rs1: FReg,
        rs2: FReg,
        rs3: FReg,
        negate_product: bool,
        negate_addend: bool,
    },
    FpCmp {
        fmt: FpFmt,
        cmp: FpCmp,
        rd: Reg,
        rs1: FReg,
        rs2: FReg,
    },
    /// `fcvt.{w,wu,l,lu}.{s,d}` — FP to integer.
    FpToInt {
        fmt: FpFmt,
        rd: Reg,
        rs1: FReg,
        signed: bool,
        wide: bool,
    },
    /// `fcvt.{s,d}.{w,wu,l,lu}` — integer to FP.
    IntToFp {
        fmt: FpFmt,
        rd: FReg,
        rs1: Reg,
        signed: bool,
        wide: bool,
    },
    /// `fcvt.s.d` / `fcvt.d.s`.
    FpCvt {
        to: FpFmt,
        rd: FReg,
        rs1: FReg,
    },
    /// `fmv.x.w` / `fmv.x.d`.
    FpMvToInt {
        fmt: FpFmt,
        rd: Reg,
        rs1: FReg,
    },
    /// `fmv.w.x` / `fmv.d.x`.
    FpMvFromInt {
        fmt: FpFmt,
        rd: FReg,
        rs1: Reg,
    },

    // --- Xpulp (custom opcode spaces; RV32 cluster cores only) ---
    /// Post-increment load: `rd = mem[rs1]; rs1 += offset`.
    LoadPost {
        width: LoadWidth,
        rd: Reg,
        rs1: Reg,
        offset: i64,
    },
    /// Post-increment store: `mem[rs1] = rs2; rs1 += offset`.
    StorePost {
        width: StoreWidth,
        rs2: Reg,
        rs1: Reg,
        offset: i64,
    },
    /// `p.mac rd, rs1, rs2` (`rd += rs1 × rs2`) / `p.msu`.
    Mac {
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        subtract: bool,
    },
    PulpAlu {
        op: PulpAluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    HwLoop {
        op: HwLoopOp,
        loop_idx: u8,
        value: i64,
        rs1: Reg,
    },
    /// Packed integer SIMD; `scalar_rs2` replicates `rs2`'s low lane.
    Simd {
        op: SimdOp,
        fmt: SimdFmt,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        scalar_rs2: bool,
    },
    /// Packed FP16 SIMD on the integer register file.
    SimdFp {
        op: SimdFpOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
}

/// Source operand of a CSR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrSrc {
    /// Register form (`csrrw` etc.).
    Reg(Reg),
    /// Immediate form (`csrrwi` etc.), 5-bit zero-extended.
    Imm(u8),
}

impl Inst {
    /// Whether this instruction is an Xpulp extension (illegal on the RV64
    /// host core).
    pub fn is_xpulp(&self) -> bool {
        matches!(
            self,
            Inst::LoadPost { .. }
                | Inst::StorePost { .. }
                | Inst::Mac { .. }
                | Inst::PulpAlu { .. }
                | Inst::HwLoop { .. }
                | Inst::Simd { .. }
                | Inst::SimdFp { .. }
        )
    }

    /// Whether this instruction ends a superblock / basic block.
    ///
    /// This is the **boundary predicate** of the static analyzer's CFG
    /// recovery (`crates/analyze/src/cfg.rs`), which ends a basic block
    /// after one of these. (The block engine that named it, retired in
    /// favour of the run loop's inline decode-cache replay, ended its
    /// blocks at the same set.) The set is every instruction whose
    /// *successor is not statically the next PC* or that can alter
    /// fetch/translation/interrupt state mid-run: jumps, branches, traps
    /// and returns, `fence.i` (decode-cache flush), CSR accesses
    /// (satp/mstatus/mie… can change translation or make an interrupt
    /// takeable), and hardware-loop setup (installs a zero-cycle
    /// back-edge). Plain `fence` and `wfi` are timing no-ops on these
    /// cores and do **not** end a block.
    pub fn ends_superblock(&self) -> bool {
        matches!(
            self,
            Inst::Jal { .. }
                | Inst::Jalr { .. }
                | Inst::Branch { .. }
                | Inst::Ecall
                | Inst::Ebreak
                | Inst::Mret
                | Inst::Sret
                | Inst::FenceI
                | Inst::Csr { .. }
                | Inst::HwLoop { .. }
        )
    }

    /// Whether this instruction accesses data memory.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::FpLoad { .. }
                | Inst::FpStore { .. }
                | Inst::LoadPost { .. }
                | Inst::StorePost { .. }
                | Inst::LoadReserved { .. }
                | Inst::StoreConditional { .. }
                | Inst::Amo { .. }
        )
    }
}

/// Errors produced by the RISC-V toolchain and interpreter.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RvError {
    /// The assembler saw an unencodable operand (immediate out of range…).
    Encode(String),
    /// A label was referenced but never bound.
    UnboundLabel(usize),
    /// The interpreter fetched an undecodable word.
    IllegalInstruction {
        /// Program counter of the illegal word.
        pc: u64,
        /// The raw word.
        word: u32,
    },
    /// An instruction is not legal on this core (e.g. Xpulp on the host).
    UnsupportedOnCore {
        /// Program counter.
        pc: u64,
        /// Description of the offending instruction.
        what: String,
    },
    /// A data access or fetch failed in the memory system.
    Memory {
        /// Faulting address.
        addr: u64,
        /// Underlying description.
        cause: String,
    },
    /// A page-table walk failed.
    PageFault {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// The run exceeded its cycle budget without reaching a breakpoint.
    Timeout {
        /// Cycles consumed when the budget expired.
        cycles: u64,
    },
    /// Internal control-flow marker: a synchronous trap was taken and the
    /// current instruction must be abandoned. Never escapes the
    /// interpreter.
    #[doc(hidden)]
    TrapTaken,
}

impl fmt::Display for RvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RvError::Encode(msg) => write!(f, "encoding error: {msg}"),
            RvError::UnboundLabel(id) => write!(f, "label {id} was never bound"),
            RvError::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#x}")
            }
            RvError::UnsupportedOnCore { pc, what } => {
                write!(
                    f,
                    "instruction {what} unsupported on this core at pc {pc:#x}"
                )
            }
            RvError::Memory { addr, cause } => {
                write!(f, "memory fault at {addr:#x}: {cause}")
            }
            RvError::PageFault { vaddr } => write!(f, "page fault at vaddr {vaddr:#x}"),
            RvError::Timeout { cycles } => {
                write!(f, "execution did not terminate within {cycles} cycles")
            }
            RvError::TrapTaken => write!(f, "internal: trap taken"),
        }
    }
}

impl Error for RvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_predicate_matches_engine_terminators() {
        // `ends_superblock` is the single source of truth of the CFG
        // analyzer's block ends; spot-check the interesting members of
        // each class.
        let ends = [
            Inst::Jal {
                rd: Reg::Zero,
                offset: 8,
            },
            Inst::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 8,
            },
            Inst::Ecall,
            Inst::FenceI,
            Inst::Csr {
                op: CsrOp::Rw,
                rd: Reg::Zero,
                csr: 0x180,
                src: CsrSrc::Reg(Reg::A0),
            },
        ];
        for i in &ends {
            assert!(i.ends_superblock(), "{i:?} must terminate a block");
        }
        let flows = [
            Inst::OpImm {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 1,
            },
            Inst::Fence,
            Inst::Wfi,
        ];
        for i in &flows {
            assert!(!i.ends_superblock(), "{i:?} must not terminate a block");
        }
    }

    #[test]
    fn reg_index_round_trip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index() as usize, i);
            assert_eq!(Reg::from_index(i as u8), *r);
        }
    }

    #[test]
    fn reg_display_abi_names() {
        assert_eq!(Reg::Zero.to_string(), "zero");
        assert_eq!(Reg::A0.to_string(), "a0");
        assert_eq!(Reg::T6.to_string(), "t6");
        assert_eq!(FReg(7).to_string(), "f7");
    }

    #[test]
    fn widths() {
        assert_eq!(LoadWidth::D.bytes(), 8);
        assert_eq!(LoadWidth::Bu.bytes(), 1);
        assert_eq!(StoreWidth::H.bytes(), 2);
        assert_eq!(SimdFmt::B.lanes(), 4);
        assert_eq!(SimdFmt::H.lanes(), 2);
        assert_eq!(Xlen::Rv32.bits(), 32);
        assert_eq!(Xlen::Rv64.bits(), 64);
    }

    #[test]
    fn xpulp_classification() {
        let mac = Inst::Mac {
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
            subtract: false,
        };
        assert!(mac.is_xpulp());
        assert!(!mac.is_memory());
        let lw = Inst::Load {
            width: LoadWidth::W,
            rd: Reg::A0,
            rs1: Reg::Sp,
            offset: 0,
        };
        assert!(!lw.is_xpulp());
        assert!(lw.is_memory());
        let lwp = Inst::LoadPost {
            width: LoadWidth::W,
            rd: Reg::A0,
            rs1: Reg::Sp,
            offset: 4,
        };
        assert!(lwp.is_xpulp());
        assert!(lwp.is_memory());
    }

    #[test]
    fn error_display() {
        let e = RvError::IllegalInstruction { pc: 0x80, word: 0 };
        assert!(e.to_string().contains("0x80"));
        let e = RvError::Timeout { cycles: 10 };
        assert!(e.to_string().contains("10"));
    }
}
