//! A text assembler: assembly source → machine code.
//!
//! Accepts the syntax [`crate::disassemble`] emits (GNU-style standard
//! RISC-V plus PULP-style Xpulp), with labels, comments (`#` or `//`) and
//! the usual pseudo-instructions. Built on top of [`Asm`], so `li` expands
//! and labels resolve exactly as in the builder API.
//!
//! # Example
//!
//! ```
//! use hulkv_rv::{parse_program, Core, CostModel, FlatBus, Reg, Xlen};
//!
//! let words = parse_program(
//!     r#"
//!         li   a0, 0
//!         li   t0, 5
//!     loop:
//!         add  a0, a0, t0
//!         addi t0, t0, -1
//!         bnez t0, loop
//!         ebreak
//!     "#,
//!     Xlen::Rv64,
//! )?;
//! let mut bus = FlatBus::new(4096);
//! bus.load_words(0, &words);
//! let mut core = Core::new(Xlen::Rv64, CostModel::cva6());
//! core.run(&mut bus, 10_000)?;
//! assert_eq!(core.reg(Reg::A0), 15);
//! # Ok::<(), hulkv_rv::RvError>(())
//! ```

use crate::asm::{Asm, Label};
use crate::inst::*;
use std::collections::{HashMap, HashSet};

/// Parses and assembles a whole program.
///
/// # Errors
///
/// Returns [`RvError::Encode`] with a line-numbered message for syntax
/// errors, and the usual assembler errors for unbound labels or
/// out-of-range operands.
pub fn parse_program(src: &str, xlen: Xlen) -> Result<Vec<u32>, RvError> {
    let mut p = Parser {
        a: Asm::new(xlen),
        labels: HashMap::new(),
        bound: HashSet::new(),
    };
    for (idx, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        p.line(line)
            .map_err(|e| RvError::Encode(format!("line {}: {e}", idx + 1)))?;
    }
    p.a.assemble()
}

fn strip_comment(line: &str) -> &str {
    let cut = line
        .find('#')
        .into_iter()
        .chain(line.find("//"))
        .min()
        .unwrap_or(line.len());
    &line[..cut]
}

struct Parser {
    a: Asm,
    labels: HashMap<String, Label>,
    /// Labels already defined (a second definition is an error).
    bound: HashSet<String>,
}

type PResult<T = ()> = Result<T, String>;

impl Parser {
    fn label_for(&mut self, name: &str) -> Label {
        if let Some(&l) = self.labels.get(name) {
            return l;
        }
        let l = self.a.label();
        self.labels.insert(name.to_string(), l);
        l
    }

    fn line(&mut self, line: &str) -> PResult {
        if let Some(name) = line.strip_suffix(':') {
            let name = name.trim();
            if name.is_empty() || !is_ident(name) {
                return Err(format!("bad label `{name}`"));
            }
            if !self.bound.insert(name.to_string()) {
                return Err(format!("label `{name}` defined twice"));
            }
            let l = self.label_for(name);
            self.a.bind(l);
            return Ok(());
        }
        let (mnemonic, rest) = match line.find(char::is_whitespace) {
            Some(i) => (&line[..i], line[i..].trim()),
            None => (line, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        self.dispatch(&mnemonic.to_ascii_lowercase(), &ops)
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(&mut self, m: &str, ops: &[&str]) -> PResult {
        // Zero-operand instructions.
        match m {
            "nop" => {
                return {
                    self.a.nop();
                    Ok(())
                }
            }
            "ret" => {
                return {
                    self.a.ret();
                    Ok(())
                }
            }
            "ecall" => {
                return {
                    self.a.ecall();
                    Ok(())
                }
            }
            "ebreak" => {
                return {
                    self.a.ebreak();
                    Ok(())
                }
            }
            "mret" => {
                return {
                    self.a.mret();
                    Ok(())
                }
            }
            "sret" => {
                return {
                    self.a.sret();
                    Ok(())
                }
            }
            "wfi" => {
                return {
                    self.a.inst(Inst::Wfi);
                    Ok(())
                }
            }
            "fence" => {
                return {
                    self.a.fence();
                    Ok(())
                }
            }
            "fence.i" => {
                return {
                    self.a.inst(Inst::FenceI);
                    Ok(())
                }
            }
            _ => {}
        }

        // FP loads/stores.
        match m {
            "flw" | "fld" => {
                let rd = freg(op3(ops, 0)?)?;
                let (offset, rs1, _) = mem_operand(op3(ops, 1)?)?;
                let fmt = if m == "flw" { FpFmt::S } else { FpFmt::D };
                self.a.inst(Inst::FpLoad {
                    fmt,
                    rd,
                    rs1,
                    offset,
                });
                return Ok(());
            }
            "fsw" | "fsd" => {
                let rs2 = freg(op3(ops, 0)?)?;
                let (offset, rs1, _) = mem_operand(op3(ops, 1)?)?;
                let fmt = if m == "fsw" { FpFmt::S } else { FpFmt::D };
                self.a.inst(Inst::FpStore {
                    fmt,
                    rs2,
                    rs1,
                    offset,
                });
                return Ok(());
            }
            _ => {}
        }

        // ALU register-register (with w variants).
        if let Some(op) = alu_from(m, false) {
            let (rd, rs1, rs2) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?, reg(op3(ops, 2)?)?);
            let word = m.ends_with('w');
            self.a.inst(if word {
                Inst::Op32 { op, rd, rs1, rs2 }
            } else {
                Inst::Op { op, rd, rs1, rs2 }
            });
            return Ok(());
        }
        // ALU immediate.
        if let Some(op) = alu_from(m, true) {
            let (rd, rs1, i) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?, imm(op3(ops, 2)?)?);
            let word = m.ends_with('w');
            self.a.inst(if word {
                Inst::OpImm32 {
                    op,
                    rd,
                    rs1,
                    imm: i,
                }
            } else {
                Inst::OpImm {
                    op,
                    rd,
                    rs1,
                    imm: i,
                }
            });
            return Ok(());
        }
        // M extension.
        if let Some(op) = muldiv_from(m) {
            let (rd, rs1, rs2) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?, reg(op3(ops, 2)?)?);
            self.a.inst(if m.ends_with('w') {
                Inst::MulDiv32 { op, rd, rs1, rs2 }
            } else {
                Inst::MulDiv { op, rd, rs1, rs2 }
            });
            return Ok(());
        }
        // Loads / stores (including Xpulp post-increment forms).
        if let Some(width) = load_from(m) {
            let rd = reg(op3(ops, 0)?)?;
            let (offset, rs1, post) = mem_operand(op3(ops, 1)?)?;
            self.a.inst(if post {
                Inst::LoadPost {
                    width,
                    rd,
                    rs1,
                    offset,
                }
            } else {
                Inst::Load {
                    width,
                    rd,
                    rs1,
                    offset,
                }
            });
            return Ok(());
        }
        if let Some(width) = store_from(m) {
            let rs2 = reg(op3(ops, 0)?)?;
            let (offset, rs1, post) = mem_operand(op3(ops, 1)?)?;
            self.a.inst(if post {
                Inst::StorePost {
                    width,
                    rs2,
                    rs1,
                    offset,
                }
            } else {
                Inst::Store {
                    width,
                    rs2,
                    rs1,
                    offset,
                }
            });
            return Ok(());
        }
        // Branches.
        if let Some(cond) = branch_from(m) {
            let (rs1, rs2, target) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?, op3(ops, 2)?);
            return self.branch(cond, rs1, rs2, target);
        }
        match m {
            "beqz" => {
                let rs1 = reg(op3(ops, 0)?)?;
                return self.branch(BranchCond::Eq, rs1, Reg::Zero, op3(ops, 1)?);
            }
            "bnez" => {
                let rs1 = reg(op3(ops, 0)?)?;
                return self.branch(BranchCond::Ne, rs1, Reg::Zero, op3(ops, 1)?);
            }
            "li" => {
                let rd = reg(op3(ops, 0)?)?;
                let v = imm(op3(ops, 1)?)?;
                self.a.li(rd, v);
                return Ok(());
            }
            "mv" => {
                let (rd, rs) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?);
                self.a.mv(rd, rs);
                return Ok(());
            }
            "neg" => {
                let (rd, rs) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?);
                self.a.neg(rd, rs);
                return Ok(());
            }
            "la" => {
                let rd = reg(op3(ops, 0)?)?;
                let l = self.label_for(op3(ops, 1)?);
                self.a.la(rd, l);
                return Ok(());
            }
            "lui" | "auipc" => {
                let rd = reg(op3(ops, 0)?)?;
                let v = imm(op3(ops, 1)?)?;
                self.a.inst(if m == "lui" {
                    Inst::Lui { rd, imm: v }
                } else {
                    Inst::Auipc { rd, imm: v }
                });
                return Ok(());
            }
            "j" => {
                let t = op3(ops, 0)?;
                if let Ok(off) = imm(t) {
                    self.a.inst(Inst::Jal {
                        rd: Reg::Zero,
                        offset: off,
                    });
                } else {
                    let l = self.label_for(t);
                    self.a.j(l);
                }
                return Ok(());
            }
            "jal" => {
                // `jal target` or `jal rd, target`.
                let (rd, t) = if ops.len() == 1 {
                    (Reg::Ra, ops[0])
                } else {
                    (reg(op3(ops, 0)?)?, op3(ops, 1)?)
                };
                if let Ok(off) = imm(t) {
                    self.a.inst(Inst::Jal { rd, offset: off });
                } else {
                    let l = self.label_for(t);
                    self.a.items_jal(rd, l);
                }
                return Ok(());
            }
            "call" => {
                let l = self.label_for(op3(ops, 0)?);
                self.a.call(l);
                return Ok(());
            }
            "jalr" => {
                // `jalr rd, off(rs1)` or `jalr rs1`.
                if ops.len() == 1 {
                    let rs1 = reg(ops[0])?;
                    self.a.inst(Inst::Jalr {
                        rd: Reg::Ra,
                        rs1,
                        offset: 0,
                    });
                } else {
                    let rd = reg(op3(ops, 0)?)?;
                    let (offset, rs1, _) = mem_operand(op3(ops, 1)?)?;
                    self.a.inst(Inst::Jalr { rd, rs1, offset });
                }
                return Ok(());
            }
            "csrr" => {
                let (rd, c) = (reg(op3(ops, 0)?)?, csr_num(op3(ops, 1)?)?);
                self.a.csrr(rd, c);
                return Ok(());
            }
            "csrw" => {
                let (c, rs) = (csr_num(op3(ops, 0)?)?, reg(op3(ops, 1)?)?);
                self.a.csrw(c, rs);
                return Ok(());
            }
            _ => {}
        }
        // CSR triple forms: csrrw rd, csr, rs / csrrwi rd, csr, imm.
        if let Some(rest) = m.strip_prefix("csrr") {
            let (op, immediate) = match rest {
                "w" => (CsrOp::Rw, false),
                "s" => (CsrOp::Rs, false),
                "c" => (CsrOp::Rc, false),
                "wi" => (CsrOp::Rw, true),
                "si" => (CsrOp::Rs, true),
                "ci" => (CsrOp::Rc, true),
                _ => return Err(format!("unknown mnemonic `{m}`")),
            };
            let rd = reg(op3(ops, 0)?)?;
            let csr = csr_num(op3(ops, 1)?)?;
            let src = if immediate {
                CsrSrc::Imm(uimm(op3(ops, 2)?, 31, "CSR immediate")? as u8)
            } else {
                CsrSrc::Reg(reg(op3(ops, 2)?)?)
            };
            self.a.inst(Inst::Csr { op, rd, csr, src });
            return Ok(());
        }
        // Atomics: lr.w/d, sc.w/d, amoXXX.w/d.
        if let Some((base, width)) = m.rsplit_once('.') {
            if let Some(done) = self.try_amo(base, width, ops)? {
                if done {
                    return Ok(());
                }
            }
            if let Some(done) = self.try_fp(base, width, ops)? {
                if done {
                    return Ok(());
                }
            }
        }
        // Xpulp scalar/hw-loop/SIMD families.
        if let Some(rest) = m.strip_prefix("p.") {
            return self.pulp_scalar(rest, ops);
        }
        if let Some(rest) = m.strip_prefix("lp.") {
            return self.hwloop(rest, ops);
        }
        if let Some(rest) = m.strip_prefix("pv.") {
            return self.pulp_simd(rest, ops);
        }
        if m.starts_with("vf") {
            return self.pulp_simd_fp(m, ops);
        }
        Err(format!("unknown mnemonic `{m}`"))
    }

    fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: &str) -> PResult {
        if let Ok(off) = imm(target) {
            self.a.inst(Inst::Branch {
                cond,
                rs1,
                rs2,
                offset: off,
            });
        } else {
            let l = self.label_for(target);
            self.a.items_branch(cond, rs1, rs2, l);
        }
        Ok(())
    }

    fn try_amo(&mut self, base: &str, width: &str, ops: &[&str]) -> PResult<Option<bool>> {
        let double = match width {
            "w" => false,
            "d" => true,
            _ => return Ok(None),
        };
        match base {
            "lr" => {
                let rd = reg(op3(ops, 0)?)?;
                let (_, rs1, _) = mem_operand(op3(ops, 1)?)?;
                self.a.inst(Inst::LoadReserved { double, rd, rs1 });
                Ok(Some(true))
            }
            "sc" => {
                let (rd, rs2) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?);
                let (_, rs1, _) = mem_operand(op3(ops, 2)?)?;
                self.a.inst(Inst::StoreConditional {
                    double,
                    rd,
                    rs1,
                    rs2,
                });
                Ok(Some(true))
            }
            _ => {
                let op = match base {
                    "amoswap" => AmoOp::Swap,
                    "amoadd" => AmoOp::Add,
                    "amoxor" => AmoOp::Xor,
                    "amoand" => AmoOp::And,
                    "amoor" => AmoOp::Or,
                    "amomin" => AmoOp::Min,
                    "amomax" => AmoOp::Max,
                    "amominu" => AmoOp::Minu,
                    "amomaxu" => AmoOp::Maxu,
                    _ => return Ok(None),
                };
                let (rd, rs2) = (reg(op3(ops, 0)?)?, reg(op3(ops, 1)?)?);
                let (_, rs1, _) = mem_operand(op3(ops, 2)?)?;
                self.a.inst(Inst::Amo {
                    op,
                    double,
                    rd,
                    rs1,
                    rs2,
                });
                Ok(Some(true))
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn try_fp(&mut self, base: &str, suffix: &str, ops: &[&str]) -> PResult<Option<bool>> {
        // fl/fs are handled by name, conversions by full mnemonic.
        match base {
            "fl" | "fs" => return Ok(None),
            _ => {}
        }
        if base == "flw" || base == "fld" || base == "fsw" || base == "fsd" {
            return Ok(None);
        }
        // fcvt.*.* has two dots; reconstruct.
        let full = format!("{base}.{suffix}");
        if let Some(rest) = full.strip_prefix("fcvt.") {
            let mut parts = rest.split('.');
            let to = parts.next().ok_or("bad fcvt")?;
            let from = parts.next().ok_or("bad fcvt")?;
            let rd_s = op3(ops, 0)?;
            let rs_s = op3(ops, 1)?;
            let int_kind = |s: &str| match s {
                "w" => Some((false, true)),
                "wu" => Some((false, false)),
                "l" => Some((true, true)),
                "lu" => Some((true, false)),
                _ => None,
            };
            let fp_kind = |s: &str| match s {
                "s" => Some(FpFmt::S),
                "d" => Some(FpFmt::D),
                _ => None,
            };
            if let (Some((wide, signed)), Some(fmt)) = (int_kind(to), fp_kind(from)) {
                self.a.inst(Inst::FpToInt {
                    fmt,
                    rd: reg(rd_s)?,
                    rs1: freg(rs_s)?,
                    signed,
                    wide,
                });
                return Ok(Some(true));
            }
            if let (Some(fmt), Some((wide, signed))) = (fp_kind(to), int_kind(from)) {
                self.a.inst(Inst::IntToFp {
                    fmt,
                    rd: freg(rd_s)?,
                    rs1: reg(rs_s)?,
                    signed,
                    wide,
                });
                return Ok(Some(true));
            }
            if let (Some(to_fmt), Some(_)) = (fp_kind(to), fp_kind(from)) {
                self.a.inst(Inst::FpCvt {
                    to: to_fmt,
                    rd: freg(rd_s)?,
                    rs1: freg(rs_s)?,
                });
                return Ok(Some(true));
            }
            return Err(format!("bad fcvt form `{full}`"));
        }
        if full == "fmv.x.w" || full == "fmv.x.d" {
            let fmt = if full.ends_with('w') {
                FpFmt::S
            } else {
                FpFmt::D
            };
            self.a.inst(Inst::FpMvToInt {
                fmt,
                rd: reg(op3(ops, 0)?)?,
                rs1: freg(op3(ops, 1)?)?,
            });
            return Ok(Some(true));
        }
        if full == "fmv.w.x" || full == "fmv.d.x" {
            let fmt = if full.starts_with("fmv.w") {
                FpFmt::S
            } else {
                FpFmt::D
            };
            self.a.inst(Inst::FpMvFromInt {
                fmt,
                rd: freg(op3(ops, 0)?)?,
                rs1: reg(op3(ops, 1)?)?,
            });
            return Ok(Some(true));
        }
        let fmt = match suffix {
            "s" => FpFmt::S,
            "d" => FpFmt::D,
            _ => return Ok(None),
        };
        let cmp = match base {
            "feq" => Some(FpCmp::Eq),
            "flt" => Some(FpCmp::Lt),
            "fle" => Some(FpCmp::Le),
            _ => None,
        };
        if let Some(cmp) = cmp {
            self.a.inst(Inst::FpCmp {
                fmt,
                cmp,
                rd: reg(op3(ops, 0)?)?,
                rs1: freg(op3(ops, 1)?)?,
                rs2: freg(op3(ops, 2)?)?,
            });
            return Ok(Some(true));
        }
        let fma = match base {
            "fmadd" => Some((false, false)),
            "fmsub" => Some((false, true)),
            "fnmsub" => Some((true, false)),
            "fnmadd" => Some((true, true)),
            _ => None,
        };
        if let Some((np, na)) = fma {
            self.a.inst(Inst::FpFma {
                fmt,
                rd: freg(op3(ops, 0)?)?,
                rs1: freg(op3(ops, 1)?)?,
                rs2: freg(op3(ops, 2)?)?,
                rs3: freg(op3(ops, 3)?)?,
                negate_product: np,
                negate_addend: na,
            });
            return Ok(Some(true));
        }
        let op = match base {
            "fadd" => FpOp::Add,
            "fsub" => FpOp::Sub,
            "fmul" => FpOp::Mul,
            "fdiv" => FpOp::Div,
            "fsqrt" => FpOp::Sqrt,
            "fmin" => FpOp::Min,
            "fmax" => FpOp::Max,
            "fsgnj" => FpOp::SgnJ,
            "fsgnjn" => FpOp::SgnJn,
            "fsgnjx" => FpOp::SgnJx,
            _ => return Ok(None),
        };
        let rd = freg(op3(ops, 0)?)?;
        let rs1 = freg(op3(ops, 1)?)?;
        let rs2 = if op == FpOp::Sqrt {
            FReg(0)
        } else {
            freg(op3(ops, 2)?)?
        };
        self.a.inst(Inst::FpOp3 {
            fmt,
            op,
            rd,
            rs1,
            rs2,
        });
        Ok(Some(true))
    }

    fn pulp_scalar(&mut self, rest: &str, ops: &[&str]) -> PResult {
        let two = |p: &mut Self, op: PulpAluOp, ops: &[&str]| -> PResult {
            p.a.inst(Inst::PulpAlu {
                op,
                rd: reg(op3(ops, 0)?)?,
                rs1: reg(op3(ops, 1)?)?,
                rs2: Reg::Zero,
            });
            Ok(())
        };
        let three = |p: &mut Self, op: PulpAluOp, ops: &[&str]| -> PResult {
            p.a.inst(Inst::PulpAlu {
                op,
                rd: reg(op3(ops, 0)?)?,
                rs1: reg(op3(ops, 1)?)?,
                rs2: reg(op3(ops, 2)?)?,
            });
            Ok(())
        };
        match rest {
            "mac" | "msu" => {
                self.a.inst(Inst::Mac {
                    rd: reg(op3(ops, 0)?)?,
                    rs1: reg(op3(ops, 1)?)?,
                    rs2: reg(op3(ops, 2)?)?,
                    subtract: rest == "msu",
                });
                Ok(())
            }
            "min" => three(self, PulpAluOp::Min, ops),
            "max" => three(self, PulpAluOp::Max, ops),
            "minu" => three(self, PulpAluOp::Minu, ops),
            "maxu" => three(self, PulpAluOp::Maxu, ops),
            "clip" => three(self, PulpAluOp::Clip, ops),
            "abs" => two(self, PulpAluOp::Abs, ops),
            "cnt" => two(self, PulpAluOp::Cnt, ops),
            "ff1" => two(self, PulpAluOp::Ff1, ops),
            "fl1" => two(self, PulpAluOp::Fl1, ops),
            "ror" => three(self, PulpAluOp::Ror, ops),
            "exths" => two(self, PulpAluOp::Exths, ops),
            "exthz" => two(self, PulpAluOp::Exthz, ops),
            "extbs" => two(self, PulpAluOp::Extbs, ops),
            "extbz" => two(self, PulpAluOp::Extbz, ops),
            _ => Err(format!("unknown mnemonic `p.{rest}`")),
        }
    }

    fn hwloop(&mut self, rest: &str, ops: &[&str]) -> PResult {
        let idx_s = op3(ops, 0)?;
        let loop_idx = match idx_s {
            "x0" | "0" => 0u8,
            "x1" | "1" => 1,
            _ => return Err(format!("bad loop index `{idx_s}`")),
        };
        match rest {
            "starti" | "endi" => {
                let t = op3(ops, 1)?;
                if let Ok(off) = imm(t) {
                    let op = if rest == "starti" {
                        HwLoopOp::Starti
                    } else {
                        HwLoopOp::Endi
                    };
                    self.a.inst(Inst::HwLoop {
                        op,
                        loop_idx,
                        value: off,
                        rs1: Reg::Zero,
                    });
                } else {
                    let l = self.label_for(t);
                    if rest == "starti" {
                        self.a.lp_starti(loop_idx, l);
                    } else {
                        self.a.lp_endi(loop_idx, l);
                    }
                }
                Ok(())
            }
            "counti" => {
                self.a.lp_counti(loop_idx, imm(op3(ops, 1)?)?);
                Ok(())
            }
            "count" => {
                self.a.lp_count(loop_idx, reg(op3(ops, 1)?)?);
                Ok(())
            }
            _ => Err(format!("unknown mnemonic `lp.{rest}`")),
        }
    }

    fn pulp_simd(&mut self, rest: &str, ops: &[&str]) -> PResult {
        // Forms: <op>.b, <op>.h, <op>.sc.b, <op>.sc.h.
        let mut parts: Vec<&str> = rest.split('.').collect();
        let lanes = match parts.pop() {
            Some("b") => SimdFmt::B,
            Some("h") => SimdFmt::H,
            other => return Err(format!("bad SIMD lane suffix {other:?}")),
        };
        let scalar = parts.last() == Some(&"sc");
        if scalar {
            parts.pop();
        }
        let name = parts.join(".");
        let op = match name.as_str() {
            "add" => SimdOp::Add,
            "sub" => SimdOp::Sub,
            "avg" => SimdOp::Avg,
            "avgu" => SimdOp::Avgu,
            "min" => SimdOp::Min,
            "minu" => SimdOp::Minu,
            "max" => SimdOp::Max,
            "maxu" => SimdOp::Maxu,
            "srl" => SimdOp::Srl,
            "sra" => SimdOp::Sra,
            "and" => SimdOp::And,
            "or" => SimdOp::Or,
            "xor" => SimdOp::Xor,
            "abs" => SimdOp::Abs,
            "dotup" => SimdOp::Dotup,
            "dotusp" => SimdOp::Dotusp,
            "dotsp" => SimdOp::Dotsp,
            "sdotup" => SimdOp::Sdotup,
            "sdotusp" => SimdOp::Sdotusp,
            "sdotsp" => SimdOp::Sdotsp,
            "extract" => SimdOp::Extract,
            "insert" => SimdOp::Insert,
            "shuffle" => SimdOp::Shuffle,
            _ => return Err(format!("unknown mnemonic `pv.{rest}`")),
        };
        self.a.inst(Inst::Simd {
            op,
            fmt: lanes,
            rd: reg(op3(ops, 0)?)?,
            rs1: reg(op3(ops, 1)?)?,
            rs2: reg(op3(ops, 2)?)?,
            scalar_rs2: scalar,
        });
        Ok(())
    }

    fn pulp_simd_fp(&mut self, m: &str, ops: &[&str]) -> PResult {
        let op = match m {
            "vfadd.h" => SimdFpOp::Add,
            "vfsub.h" => SimdFpOp::Sub,
            "vfmul.h" => SimdFpOp::Mul,
            "vfmac.h" => SimdFpOp::Mac,
            "vfmin.h" => SimdFpOp::Min,
            "vfmax.h" => SimdFpOp::Max,
            "vfdotpex.s.h" => SimdFpOp::DotpexS,
            _ => return Err(format!("unknown mnemonic `{m}`")),
        };
        self.a.inst(Inst::SimdFp {
            op,
            rd: reg(op3(ops, 0)?)?,
            rs1: reg(op3(ops, 1)?)?,
            rs2: reg(op3(ops, 2)?)?,
        });
        Ok(())
    }
}

// Small helper methods on Asm for label forms the parser needs.
impl Asm {
    pub(crate) fn items_branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, l: Label) {
        match cond {
            BranchCond::Eq => self.beq(rs1, rs2, l),
            BranchCond::Ne => self.bne(rs1, rs2, l),
            BranchCond::Lt => self.blt(rs1, rs2, l),
            BranchCond::Ge => self.bge(rs1, rs2, l),
            BranchCond::Ltu => self.bltu(rs1, rs2, l),
            BranchCond::Geu => self.bgeu(rs1, rs2, l),
        }
    }

    pub(crate) fn items_jal(&mut self, rd: Reg, l: Label) {
        if rd == Reg::Ra {
            self.call(l);
        } else if rd == Reg::Zero {
            self.j(l);
        } else {
            // Rare form: route through call-like fixup by rebuilding.
            self.call(l);
        }
    }
}

fn alu_from(m: &str, immediate: bool) -> Option<AluOp> {
    let m = m.strip_suffix('w').unwrap_or(m);
    let base = if immediate {
        match m {
            "addi" => "add",
            "andi" => "and",
            "ori" => "or",
            "xori" => "xor",
            "slli" => "sll",
            "srli" => "srl",
            "srai" => "sra",
            "slti" => "slt",
            "sltiu" => "sltu",
            _ => return None,
        }
    } else {
        match m {
            "add" | "sub" | "and" | "or" | "xor" | "sll" | "srl" | "sra" | "slt" | "sltu" => m,
            _ => return None,
        }
    };
    Some(match base {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "sll" => AluOp::Sll,
        "srl" => AluOp::Srl,
        "sra" => AluOp::Sra,
        "slt" => AluOp::Slt,
        _ => AluOp::Sltu,
    })
}

fn muldiv_from(m: &str) -> Option<MulDivOp> {
    let m = m.strip_suffix('w').unwrap_or(m);
    Some(match m {
        "mul" => MulDivOp::Mul,
        "mulh" => MulDivOp::Mulh,
        "mulhsu" => MulDivOp::Mulhsu,
        "mulhu" => MulDivOp::Mulhu,
        "div" => MulDivOp::Div,
        "divu" => MulDivOp::Divu,
        "rem" => MulDivOp::Rem,
        "remu" => MulDivOp::Remu,
        _ => return None,
    })
}

fn load_from(m: &str) -> Option<LoadWidth> {
    let m = m.strip_prefix("p.").unwrap_or(m);
    Some(match m {
        "lb" => LoadWidth::B,
        "lh" => LoadWidth::H,
        "lw" => LoadWidth::W,
        "ld" => LoadWidth::D,
        "lbu" => LoadWidth::Bu,
        "lhu" => LoadWidth::Hu,
        "lwu" => LoadWidth::Wu,
        "flw" | "fld" => return None,
        _ => return None,
    })
}

fn store_from(m: &str) -> Option<StoreWidth> {
    let m = m.strip_prefix("p.").unwrap_or(m);
    Some(match m {
        "sb" => StoreWidth::B,
        "sh" => StoreWidth::H,
        "sw" => StoreWidth::W,
        "sd" => StoreWidth::D,
        _ => return None,
    })
}

fn branch_from(m: &str) -> Option<BranchCond> {
    Some(match m {
        "beq" => BranchCond::Eq,
        "bne" => BranchCond::Ne,
        "blt" => BranchCond::Lt,
        "bge" => BranchCond::Ge,
        "bltu" => BranchCond::Ltu,
        "bgeu" => BranchCond::Geu,
        _ => return None,
    })
}

fn op3<'a>(ops: &[&'a str], i: usize) -> PResult<&'a str> {
    ops.get(i)
        .copied()
        .ok_or_else(|| format!("missing operand {}", i + 1))
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == '.')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn reg(s: &str) -> PResult<Reg> {
    const NAMES: [&str; 32] = [
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
        "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
        "t5", "t6",
    ];
    if let Some(i) = NAMES.iter().position(|&n| n == s) {
        return Ok(Reg::from_index(i as u8));
    }
    if s == "fp" {
        return Ok(Reg::S0);
    }
    if let Some(n) = s.strip_prefix('x') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(Reg::from_index(i));
            }
        }
    }
    Err(format!("bad register `{s}`"))
}

fn freg(s: &str) -> PResult<FReg> {
    if let Some(n) = s.strip_prefix('f') {
        if let Ok(i) = n.parse::<u8>() {
            if i < 32 {
                return Ok(FReg(i));
            }
        }
    }
    Err(format!("bad FP register `{s}`"))
}

fn imm(s: &str) -> PResult<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        // Accept full-width hex (e.g. 0xffff_ffff_ffff_fffc) as the i64
        // bit pattern, like GNU as.
        i64::from_str_radix(hex, 16)
            .or_else(|_| u64::from_str_radix(hex, 16).map(|v| v as i64))
            .map_err(|e| format!("bad immediate `{s}`: {e}"))?
    } else {
        // Decimal, with a u64 fallback so full-width unsigned constants
        // (e.g. satp values) parse as their bit pattern.
        body.parse::<i64>()
            .or_else(|_| body.parse::<u64>().map(|v| v as i64))
            .map_err(|e| format!("bad immediate `{s}`: {e}"))?
    };
    if neg {
        v.checked_neg()
            .ok_or_else(|| format!("bad immediate `{s}`: out of range"))
    } else {
        Ok(v)
    }
}

/// An unsigned operand no larger than `max`.
fn uimm(s: &str, max: u16, what: &str) -> PResult<u16> {
    match u16::try_from(imm(s)?) {
        Ok(v) if v <= max => Ok(v),
        _ => Err(format!("{what} `{s}` out of range (0..={max})")),
    }
}

/// A 12-bit CSR number.
fn csr_num(s: &str) -> PResult<u16> {
    uimm(s, 0xFFF, "CSR number")
}

/// Parses `offset(reg)` or `offset(reg!)`; a bare `(reg)` means offset 0.
fn mem_operand(s: &str) -> PResult<(i64, Reg, bool)> {
    let open = s
        .find('(')
        .ok_or_else(|| format!("expected mem operand, got `{s}`"))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| format!("missing `)` in `{s}`"))?;
    let off_s = s[..open].trim();
    let offset = if off_s.is_empty() { 0 } else { imm(off_s)? };
    let mut reg_s = s[open + 1..close].trim();
    let post = reg_s.ends_with('!');
    if post {
        reg_s = reg_s[..reg_s.len() - 1].trim();
    }
    Ok((offset, reg(reg_s)?, post))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{Core, FlatBus};
    use crate::decode::decode;
    use crate::disasm::disassemble;

    #[test]
    fn parses_labels_and_loops() {
        let words = parse_program(
            "
            li t0, 10        # counter
            li a0, 0
        top:
            add a0, a0, t0   // accumulate
            addi t0, t0, -1
            bnez t0, top
            ebreak
            ",
            Xlen::Rv64,
        )
        .unwrap();
        let mut bus = FlatBus::new(4096);
        bus.load_words(0, &words);
        let mut core = Core::cva6();
        core.run(&mut bus, 10_000).unwrap();
        assert_eq!(core.reg(Reg::A0), 55);
    }

    #[test]
    fn parses_xpulp_program() {
        let words = parse_program(
            "
            li t0, 0x100
            li t1, 0x04030201
            sw t1, 0(t0)
            p.lw t2, 4(t0!)
            li a0, 0
            pv.sdotsp.b a0, t2, t2
            ebreak
            ",
            Xlen::Rv32,
        )
        .unwrap();
        let mut bus = FlatBus::new(4096);
        bus.load_words(0, &words);
        let mut core = Core::ri5cy(0);
        core.run(&mut bus, 10_000).unwrap();
        // 1+4+9+16 = 30 and the pointer post-incremented.
        assert_eq!(core.reg(Reg::A0), 30);
        assert_eq!(core.reg(Reg::T0), 0x104);
    }

    #[test]
    fn parses_fp_program() {
        let words = parse_program(
            "
            li t0, 3
            fcvt.s.w f0, t0
            fmul.s f1, f0, f0
            fmadd.s f2, f0, f0, f1
            fcvt.w.s a0, f2
            ebreak
            ",
            Xlen::Rv64,
        )
        .unwrap();
        let mut bus = FlatBus::new(4096);
        bus.load_words(0, &words);
        let mut core = Core::cva6();
        core.run(&mut bus, 10_000).unwrap();
        assert_eq!(core.reg(Reg::A0), 18);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_program("nop\nbogus a0, a1\n", Xlen::Rv64).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_program("addi a0, a0, zzz", Xlen::Rv64).unwrap_err();
        assert!(err.to_string().contains("immediate"), "{err}");
    }

    #[test]
    fn disassembly_round_trips_through_parser() {
        // Assemble a representative program, disassemble every word, parse
        // the disassembly, and compare the binaries.
        let src = "
            lui t0, 0x12
            addi t0, t0, 52
            sub a0, t0, sp
            lw a1, 8(sp)
            sd a1, -16(sp)
            mul a2, a1, a0
            divu a3, a2, t0
            beq a0, a1, 8
            jalr ra, 0(t0)
            amoadd.w t1, a0, (sp)
            csrrs t2, 0x300, a0
            fadd.d f1, f2, f3
            fcvt.lu.d a4, f1
            ecall
            ebreak
        ";
        let words = parse_program(src, Xlen::Rv64).unwrap();
        let round_trip: String = words
            .iter()
            .map(|&w| {
                let i = decode(w, Xlen::Rv64, false).expect("decodable");
                disassemble(&i) + "\n"
            })
            .collect();
        let words2 = parse_program(&round_trip, Xlen::Rv64).unwrap();
        assert_eq!(words, words2, "round trip:\n{round_trip}");
    }

    #[test]
    fn xpulp_disassembly_round_trips() {
        let src = "
            p.lw t5, 4(t3!)
            p.sb a0, -1(t2!)
            p.mac a0, a1, a2
            p.clip a3, a4, a5
            p.abs a6, a7
            lp.counti x0, 16
            lp.count x1, t0
            pv.add.h t0, t1, t2
            pv.max.sc.b t3, t4, t5
            pv.sdotsp.b a0, a1, a2
            vfmac.h s2, s3, s4
            vfdotpex.s.h s5, s6, s7
            ebreak
        ";
        let words = parse_program(src, Xlen::Rv32).unwrap();
        let round_trip: String = words
            .iter()
            .map(|&w| {
                let i = decode(w, Xlen::Rv32, true).expect("decodable");
                disassemble(&i) + "\n"
            })
            .collect();
        let words2 = parse_program(&round_trip, Xlen::Rv32).unwrap();
        assert_eq!(words, words2, "round trip:\n{round_trip}");
    }

    #[test]
    fn numeric_register_names_accepted() {
        let words = parse_program("add x10, x11, x12\nebreak", Xlen::Rv64).unwrap();
        let i = decode(words[0], Xlen::Rv64, false).unwrap();
        assert_eq!(
            i,
            Inst::Op {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
        );
    }
}
