//! Control-flow recovery over a raw guest image.
//!
//! The graph is instruction-granular (the programs this repository lints
//! are at most a few kB, so basic-block compression buys nothing) and
//! RVC-aware: decoding starts from the entry point and every
//! direct-branch target, so parcels are resolved at the offsets execution
//! can actually reach — including targets that land in the middle of what
//! a linear sweep would call a 32-bit instruction. Each visited PC is
//! decoded exactly once, which bounds the whole recovery by the image
//! size and makes it terminate on arbitrary (fuzzer-hostile) bytes.

use crate::GuestProgram;
use hulkv_rv::fetch_parcel;
use hulkv_rv::inst::{HwLoopOp, Inst, Reg};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One decoded (or undecodable) instruction slot.
#[derive(Debug, Clone)]
pub struct CfgInst {
    /// Raw parcel bits (16-bit parcels zero-extended).
    pub raw: u32,
    /// Parcel length in bytes (2 or 4).
    pub len: u8,
    /// The decoded instruction, `None` when undecodable on this side.
    pub inst: Option<Inst>,
}

/// A hardware-loop body `[start, end)` discovered from `lp.starti` /
/// `lp.endi` setup pairs (both are PC-relative immediates, so the bounds
/// are static by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwLoopRegion {
    /// Loop slot (0 or 1).
    pub idx: u8,
    /// PC of the setup instruction completing the pair.
    pub setup_pc: u64,
    /// First instruction of the body.
    pub start: u64,
    /// Exclusive end: the back-edge fires when the next PC equals this.
    pub end: u64,
}

/// The recovered control-flow graph.
#[derive(Debug, Default)]
pub struct Cfg {
    /// Decoded instructions reachable from the entry, by PC.
    pub insts: BTreeMap<u64, CfgInst>,
    /// Successor edges (fallthrough, branch, call, hw-loop back-edge).
    pub succs: BTreeMap<u64, Vec<u64>>,
    /// PCs of indirect jumps whose target set is unknown (`jalr` through
    /// a register other than a plain return).
    pub indirect: BTreeSet<u64>,
    /// Whether the program contains a computed goto (`jalr zero` through
    /// a non-`ra` register): when true, reachability is not closed and
    /// unreachable-code findings are suppressed.
    pub has_computed_goto: bool,
    /// PCs of direct control transfers whose target leaves the image.
    pub out_of_image: BTreeSet<u64>,
    /// Hardware-loop regions in discovery order.
    pub loops: Vec<HwLoopRegion>,
}

impl Cfg {
    /// Whether `pc` was reached by the recovery sweep.
    pub fn reachable(&self, pc: u64) -> bool {
        self.insts.contains_key(&pc)
    }
}

fn in_image(prog: &GuestProgram, pc: u64) -> bool {
    pc >= prog.base && pc < prog.end()
}

/// Recovers the CFG of a guest image, starting at its base address.
pub fn recover(prog: &GuestProgram) -> Cfg {
    let mut cfg = Cfg::default();
    sweep(prog, &mut cfg, VecDeque::from([prog.base]));
    add_hw_loop_back_edges(prog, &mut cfg);
    cfg
}

/// Adds statically resolved successor edges for the indirect jump at
/// `pc` (a computed goto whose target set a later analysis bounded) and
/// sweeps any newly reachable code into the graph. Idempotent per
/// target; already-decoded targets just gain the edge.
pub fn resolve_indirect(prog: &GuestProgram, cfg: &mut Cfg, pc: u64, targets: &[u64]) {
    let succs = cfg.succs.entry(pc).or_default();
    let mut work = VecDeque::new();
    for &t in targets {
        if !succs.contains(&t) {
            succs.push(t);
            work.push_back(t);
        }
    }
    if !work.is_empty() {
        sweep(prog, cfg, work);
        add_hw_loop_back_edges(prog, cfg);
    }
}

/// The decode worklist shared by [`recover`] (seeded with the entry) and
/// [`resolve_indirect`] (seeded with newly proven jump targets). Each PC
/// is decoded at most once across all sweeps of a graph.
fn sweep(prog: &GuestProgram, cfg: &mut Cfg, mut work: VecDeque<u64>) {
    let xlen = prog.side.xlen();
    let xpulp = prog.side.xpulp();
    // Per-slot pending lp.starti/lp.endi immediates, resolved to absolute
    // addresses at the PC of the setup instruction.
    let mut loop_setup: [(Option<u64>, Option<u64>); 2] = Default::default();

    while let Some(pc) = work.pop_front() {
        if cfg.insts.contains_key(&pc) || !in_image(prog, pc) {
            continue;
        }
        let offset = (pc - prog.base) as usize;
        let Some(parcel) = fetch_parcel(&prog.bytes, offset, xlen, xpulp) else {
            // Fewer than two bytes left: treat as an undecodable 2-byte
            // slot so the finding points at a real PC.
            cfg.insts.insert(
                pc,
                CfgInst {
                    raw: *prog.bytes.get(offset).unwrap_or(&0) as u32,
                    len: 2,
                    inst: None,
                },
            );
            continue;
        };
        let len = parcel.len as u64;
        let next = pc.wrapping_add(len);
        let mut succs: Vec<u64> = Vec::new();
        match parcel.inst {
            None => {
                // Undecodable: execution traps here; no successors.
            }
            // The dispatch below is structured around the **boundary
            // predicate** [`Inst::ends_superblock`]: any instruction that
            // does not end a block is plain fallthrough here, and every
            // special-cased edge shape lives behind the predicate — so
            // the predicate and this sweep cannot drift (a test below
            // checks the correspondence on a recovered graph).
            Some(inst) if !inst.ends_superblock() => {
                succs.push(next);
            }
            Some(inst) => match inst {
                Inst::Jal { rd, offset } => {
                    let target = pc.wrapping_add(offset as u64);
                    if in_image(prog, target) {
                        succs.push(target);
                    } else {
                        cfg.out_of_image.insert(pc);
                    }
                    if rd != Reg::Zero {
                        // A call: model the eventual return as fallthrough.
                        succs.push(next);
                    }
                }
                Inst::Jalr { rd, rs1, .. } => {
                    if rd == Reg::Zero && rs1 != Reg::Ra {
                        cfg.has_computed_goto = true;
                        cfg.indirect.insert(pc);
                    } else if rd != Reg::Zero {
                        // Indirect call: returns to the fallthrough.
                        cfg.indirect.insert(pc);
                        succs.push(next);
                    }
                    // `jalr zero, ra` (plain return) transfers to a call
                    // site's fallthrough, which the Jal edge already covers.
                }
                Inst::Branch { offset, .. } => {
                    let target = pc.wrapping_add(offset as u64);
                    if in_image(prog, target) {
                        succs.push(target);
                    } else {
                        cfg.out_of_image.insert(pc);
                    }
                    succs.push(next);
                }
                Inst::Ebreak | Inst::Mret | Inst::Sret => {
                    // Halt convention / trap returns: terminal here.
                }
                Inst::HwLoop {
                    op,
                    loop_idx,
                    value,
                    ..
                } => {
                    let slot = &mut loop_setup[(loop_idx & 1) as usize];
                    match op {
                        HwLoopOp::Starti => slot.0 = Some(pc.wrapping_add(value as u64)),
                        HwLoopOp::Endi => slot.1 = Some(pc.wrapping_add(value as u64)),
                        HwLoopOp::Count | HwLoopOp::Counti => {}
                    }
                    if let (Some(start), Some(end)) = *slot {
                        if !cfg
                            .loops
                            .iter()
                            .any(|l| l.idx == loop_idx & 1 && l.start == start && l.end == end)
                        {
                            cfg.loops.push(HwLoopRegion {
                                idx: loop_idx & 1,
                                setup_pc: pc,
                                start,
                                end,
                            });
                        }
                    }
                    succs.push(next);
                }
                _ => {
                    // The remaining boundary instructions — `ecall`
                    // (trap-and-return convention), `fence.i`, CSR
                    // accesses — end a block because they can
                    // change translation or interrupt state, but
                    // execution continues at the next PC.
                    succs.push(next);
                }
            },
        }
        cfg.insts.insert(
            pc,
            CfgInst {
                raw: parcel.raw,
                len: parcel.len,
                inst: parcel.inst,
            },
        );
        for &s in &succs {
            work.push_back(s);
        }
        cfg.succs.insert(pc, succs);
    }
}

/// The model's back-edge fires on the instruction whose *next* PC equals
/// a loop's `end` (unless that instruction itself transferred control),
/// so add `body-last → start` edges and sweep the bodies into the graph.
fn add_hw_loop_back_edges(prog: &GuestProgram, cfg: &mut Cfg) {
    let loops = cfg.loops.clone();
    for l in &loops {
        if !in_image(prog, l.start) || l.end <= l.start {
            continue;
        }
        // Make sure the body itself is decoded even if the sweep has not
        // walked into it yet (the setup precedes the body textually).
        let mut pc = l.start;
        let xlen = prog.side.xlen();
        let xpulp = prog.side.xpulp();
        while in_image(prog, pc) && pc < l.end {
            let offset = (pc - prog.base) as usize;
            let Some(parcel) = fetch_parcel(&prog.bytes, offset, xlen, xpulp) else {
                break;
            };
            let len = parcel.len as u64;
            let is_last = pc.wrapping_add(len) == l.end;
            if let std::collections::btree_map::Entry::Vacant(slot) = cfg.insts.entry(pc) {
                slot.insert(CfgInst {
                    raw: parcel.raw,
                    len: parcel.len,
                    inst: parcel.inst,
                });
                cfg.succs
                    .insert(pc, if is_last { vec![] } else { vec![pc + len] });
            }
            if is_last {
                let entry = cfg.succs.entry(pc).or_default();
                if !entry.contains(&l.start) {
                    entry.push(l.start);
                }
                break;
            }
            pc += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;
    use hulkv_rv::{Asm, Reg, Xlen};

    fn prog(words: &[u32], side: Side) -> GuestProgram {
        GuestProgram::from_words("t", words, 0x100, side)
    }

    #[test]
    fn straight_line_with_branch() {
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::T0, 3);
        let top = a.label();
        a.bind(top);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let p = prog(&a.assemble().unwrap(), Side::Host);
        let cfg = recover(&p);
        assert!(cfg.insts.len() >= 4);
        // The branch has two successors: the loop top and the fallthrough.
        let branch_pc = cfg
            .insts
            .iter()
            .find(|(_, i)| matches!(i.inst, Some(Inst::Branch { .. })))
            .map(|(&pc, _)| pc)
            .unwrap();
        assert_eq!(cfg.succs[&branch_pc].len(), 2);
        assert!(cfg.out_of_image.is_empty());
        assert!(!cfg.has_computed_goto);
    }

    #[test]
    fn hw_loop_region_and_back_edge() {
        let mut a = Asm::new(Xlen::Rv32);
        a.lp_counti(0, 4);
        let (ls, le) = (a.label(), a.label());
        a.lp_starti(0, ls);
        a.lp_endi(0, le);
        a.bind(ls);
        a.addi(Reg::T0, Reg::T0, 1);
        a.bind(le);
        a.ebreak();
        let p = prog(&a.assemble().unwrap(), Side::Cluster);
        let cfg = recover(&p);
        assert_eq!(cfg.loops.len(), 1);
        let l = cfg.loops[0];
        assert!(l.end > l.start);
        // The last body instruction gets a back-edge to the start.
        let last = cfg
            .insts
            .range(l.start..l.end)
            .next_back()
            .map(|(&pc, _)| pc)
            .unwrap();
        assert!(cfg.succs[&last].contains(&l.start));
    }

    #[test]
    fn boundary_predicate_agrees_with_edge_shapes() {
        // Drift guard for the boundary predicate: on a recovered graph,
        // every instruction whose successor set is anything other than
        // plain fallthrough must be a block boundary (hw-loop back-edges
        // are the one legal exception: the *redirected* instruction is a
        // plain body instruction; the boundary lives at the `lp.*` setup).
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::T0, 5);
        a.lp_counti(0, 4);
        let (ls, le) = (a.label(), a.label());
        a.lp_starti(0, ls);
        a.lp_endi(0, le);
        a.bind(ls);
        a.addi(Reg::T0, Reg::T0, 1);
        a.bind(le);
        let top = a.label();
        a.bind(top);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.csrr(Reg::T1, 0xB00);
        a.call(top);
        a.ebreak();
        let p = prog(&a.assemble().unwrap(), Side::Cluster);
        let cfg = recover(&p);
        let back_edges: Vec<(u64, u64)> = cfg
            .loops
            .iter()
            .filter_map(|l| {
                cfg.insts
                    .range(l.start..l.end)
                    .next_back()
                    .map(|(&pc, _)| (pc, l.start))
            })
            .collect();
        let mut boundaries = 0;
        for (&pc, ci) in &cfg.insts {
            let Some(inst) = &ci.inst else { continue };
            let next = pc + u64::from(ci.len);
            let plain: Vec<u64> = cfg.succs[&pc]
                .iter()
                .copied()
                .filter(|&s| s != next && !back_edges.contains(&(pc, s)))
                .collect();
            let terminal = cfg.succs[&pc].is_empty();
            if !plain.is_empty() || terminal {
                assert!(
                    inst.ends_superblock(),
                    "{pc:#x}: {inst:?} has edge shape {:?} but is not a block boundary",
                    cfg.succs[&pc]
                );
            }
            boundaries += usize::from(inst.ends_superblock());
        }
        // The program exercises branch, jal, csr, hw-loop and ebreak
        // boundaries — make sure the predicate actually fired.
        assert!(boundaries >= 5, "only {boundaries} boundaries recovered");
    }

    #[test]
    fn terminates_on_garbage() {
        let bytes: Vec<u32> = (0..64).map(|i| 0xDEAD_0000 ^ (i * 0x1357)).collect();
        let p = prog(&bytes, Side::Cluster);
        let cfg = recover(&p);
        assert!(!cfg.insts.is_empty());
    }

    #[test]
    fn truncated_tail_parcel() {
        // A 32-bit opcode low half with no upper half in the image.
        let mut p = prog(&[], Side::Host);
        p.bytes = vec![0x03, 0x00, 0x00];
        let cfg = recover(&p);
        assert!(cfg.insts[&0x100].inst.is_none());
    }
}
