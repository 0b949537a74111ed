//! Superblock engine: chained basic-block dispatch over the decode cache.
//!
//! A *superblock* is a straight-line run of decoded-instruction-cache
//! entries — formed on dispatch from whatever slots are currently valid,
//! ended by the shared [`Inst::ends_superblock`] boundary predicate (the
//! same rule the static analyzer's CFG recovery uses), a virtual page
//! boundary, or a length cap. The hot loop retires whole blocks per
//! dispatch and follows direct-threaded successor links from block to
//! block, so loops like the Figure-6 kernels run without re-entering the
//! dispatcher or the interpreter.
//!
//! # Exactness
//!
//! The engine is memoization, not speculation. Every entry is revalidated
//! against its decode-cache slot *before* it retires, with exactly the
//! predicate [`Core::step`]'s replay path uses (generation, CSR-file
//! version, fetch epoch, privilege mode, physical address, instruction
//! word) plus the same [`CoreBus::fetch_touch`] revalidation — so the
//! memory system sees the identical access sequence, `decode_*`/`itlb_*`
//! counters tick identically, and an unchanged CSR version proves no
//! interrupt became takeable mid-block (any `mip`/`mie`/`mstatus` write
//! bumps the version and fails the next entry's check, which exits the
//! block to the interpreter's poll). A failed check has **no side
//! effects**: the engine exits and the interpreter re-runs the same
//! predicate, taking the slow path exactly as it would have without
//! blocks. Pure ALU entries execute inline with the PC, cycle and instret
//! counts held in locals; anything that can touch memory, CSRs, traps or
//! control flow goes through [`Core::execute`] itself after the locals
//! are flushed, so there is one semantics, not two.
//!
//! `run_until_cycle` budgets are checked before every entry and
//! [`Core::run`] limits after every retire, so chunked runs (Timeline
//! windows, Recorder checkpoints) stop on exactly the retire boundary the
//! plain interpreter would. A taken back-edge to the block's own start
//! restarts the block in place — the fused hot-loop form — and any other
//! target exits to the chain.
//!
//! Xpulp (RI5CY) cores never dispatch blocks, nor allocate a block store:
//! most of a PMCA kernel's inner-loop entries are memory accesses that
//! leave the block for [`Core::execute`] anyway, so [`Core::step`]'s
//! decode-cache replay runs them faster (DESIGN.md §13.5).
//!
//! # The stamped turbo prefix
//!
//! Per-entry revalidation is cheap but not free, and on hot loops it is
//! the whole cost. The engine therefore memoizes the *outcome* of a full
//! validated walk: the run of leading pure entries it executed inline
//! (the **pure prefix**) plus an [`SbStamp`] of everything the per-entry
//! predicate depends on — decode-slot install count, CSR-file version,
//! fetch epoch, privilege mode (a decode-generation bump clears the
//! block store outright, so it needs no stamp field). While the stamp
//! matches the core, re-running those checks must give the same answers,
//! so the prefix replays with no per-entry checks and bulk counter
//! updates — on buses whose [`CoreBus::fetch_touch`] is declared pure
//! ([`CoreBus::fetch_touch_pure`]), since cache-backed buses need the
//! per-fetch probe side effects. Any mismatch simply falls back to the
//! checked loop, which re-records the prefix when it next completes.

use super::*;
use hulkv_sim::snap::SnapError;

/// Direct-mapped dispatch table size (start-VA → block index).
const SB_MAP: usize = 2048;
/// Maximum instructions per block (terminator included).
pub(crate) const SB_MAX_LEN: usize = 64;
/// Block-store capacity; overflowing clears the whole store (cheap,
/// deterministic, and self-limiting — hot code re-forms immediately).
const SB_MAX_BLOCKS: usize = 2048;
const NO_BLOCK: u32 = u32::MAX;

/// One pre-validated instruction inside a block: a copy of the decode
/// slot it was built from, plus the slot index so revalidation is one
/// indexed load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbEntry {
    pub va: u64,
    pub pa: u64,
    pub word: u32,
    pub slot: u16,
    pub ilen: u8,
    pub cost: u8,
    pub paged: bool,
    pub inst: Inst,
}

/// A resolved successor link (direct threading): after this block exits
/// at `va`, continue in block `idx` without a dispatch-table lookup. Two
/// slots cover a terminator's taken/not-taken targets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbLink {
    pub va: u64,
    pub idx: u32,
}

impl SbLink {
    const NONE: SbLink = SbLink {
        va: 0,
        idx: NO_BLOCK,
    };
}

/// Proof that a block's pure prefix still passes every per-entry slot
/// check. Decode slots are written only by the interpreter's install
/// path (counted by `Core::decode_installs`) and wholesale on snapshot
/// restore (which rebuilds all blocks with an invalid stamp), while any
/// generation bump clears the block store outright — so an unchanged
/// install count, CSR-file version, fetch epoch and privilege mode pin
/// every slot the prefix was validated against to its validated value.
/// None of the four can change *during* the prefix either (pure entries
/// touch no CSRs, no memory, no mode, and install nothing), which makes
/// the stamp check at dispatch equivalent to the per-entry checks it
/// replaces.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbStamp {
    pub installs: u64,
    pub version: u64,
    pub epoch: u64,
    pub mode: PrivMode,
}

impl SbStamp {
    /// Never matches a live core (`decode_installs` counts up from 0).
    const INVALID: SbStamp = SbStamp {
        installs: u64::MAX,
        version: 0,
        epoch: 0,
        mode: PrivMode::Machine,
    };
}

#[derive(Debug, Clone)]
pub(crate) struct SbBlock {
    pub start: u64,
    /// Any entry's fetch went through Sv39: the block only dispatches on
    /// timing-stateless buses (same rule as the slot replay path).
    pub paged: bool,
    pub succ: [SbLink; 2],
    pub entries: Vec<SbEntry>,
    /// Leading entries `Core::sb_inline_exec` handles (no memory, CSRs,
    /// traps or control flow). Recorded — together with `stamp` and the
    /// three aggregates below — by the slow loop's first full validated walk;
    /// 0 until then and after every restore. While `stamp` matches the
    /// core, the prefix replays with *no* per-entry checks and bulk
    /// counter updates (the turbo path), which is where the superblock
    /// engine's speed comes from.
    pub pure_len: u32,
    /// Total cycle cost of the pure prefix.
    pub pure_cost: u32,
    /// Paged entries in the pure prefix (bulk `itlb_hits` credit).
    pub pure_paged: u32,
    /// VA of the first instruction after the prefix.
    pub pure_end: u64,
    pub stamp: SbStamp,
}

/// Per-core superblock store: a grow-only block vector plus a
/// direct-mapped dispatch table. Cleared wholesale with the decode cache
/// (generation bump), on capacity overflow, and on the ablation switch —
/// block indices are therefore stable for the lifetime of every link.
#[derive(Debug, Clone)]
pub(crate) struct SbCache {
    /// `SB_MAP` entries once the first block is stored; empty before, so
    /// a core that never dispatches blocks never pays for the table.
    map: Box<[u32]>,
    pub(crate) blocks: Vec<SbBlock>,
}

/// Where an interrupted block stream stopped when a `run_until_cycle`
/// budget landed inside it. The next dispatch *continues* the stream —
/// resuming the same block at the same entry (or the pending chain
/// follow, `entry == u32::MAX`) instead of re-dispatching — so the
/// retired-block stream, the `sb_hits`/`sb_chain_follows` counters, and
/// the block topology are all invariant under chunking: a Timeline
/// window edge or Recorder checkpoint period changes *when* the engine
/// pauses, never what it counts or builds. Cleared with the block store;
/// revalidated (entry VA against `Core::pc`) before use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SbResume {
    pub idx: u32,
    /// Entry index to resume at, or `u32::MAX` for "block `idx` finished;
    /// its chain follow to `Core::pc` is still pending".
    pub entry: u32,
}

/// Why block execution returned to the run loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SbExit {
    /// Block completed or transferred control; dispatch at `Core::pc`.
    Next,
    /// No valid block / entry revalidation failed: take one interpreter
    /// step at `Core::pc` (interrupt poll and decode-miss path included).
    Stale,
    /// The core executed `ebreak`.
    Halted,
    /// The `run_until_cycle` target was reached (checked before an entry
    /// retires, so the stop lands on the exact same boundary).
    Budget,
    /// The `run` cycle limit was exceeded after a retire.
    Limit,
}

impl SbCache {
    pub(crate) fn new() -> Self {
        SbCache {
            map: Box::default(),
            blocks: Vec::new(),
        }
    }

    #[inline]
    fn lookup(&self, va: u64) -> Option<u32> {
        let idx = *self.map.get((va >> 1) as usize & (SB_MAP - 1))?;
        if idx != NO_BLOCK && self.blocks[idx as usize].start == va {
            Some(idx)
        } else {
            None
        }
    }

    /// Appends `block` and points its dispatch-table slot at it,
    /// allocating the table on first use.
    fn push(&mut self, block: SbBlock) -> u32 {
        if self.map.is_empty() {
            self.map = vec![NO_BLOCK; SB_MAP].into_boxed_slice();
        }
        let idx = self.blocks.len() as u32;
        self.map[(block.start >> 1) as usize & (SB_MAP - 1)] = idx;
        self.blocks.push(block);
        idx
    }
}

/// Packed block-store records: per block a 37-byte header (`start`,
/// two `(va, idx)` successor links, entry count, paged flag) followed by
/// 25 bytes per entry (`va`, `pa`, `word`, `slot`, `ilen`, `cost`,
/// `paged`). `inst` is re-derived from `word` on restore, like the decode
/// cache's own blob.
const SB_BLK_HDR: usize = 8 + (8 + 4) * 2 + 4 + 1;
const SB_ENT_REC: usize = 8 + 8 + 4 + 2 + 1 + 1 + 1;

impl Core {
    /// Serializes the block store (see [`SB_BLK_HDR`] for the layout).
    pub(crate) fn sb_snapshot_blob(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for b in &self.sb.blocks {
            out.extend_from_slice(&b.start.to_le_bytes());
            for l in b.succ {
                out.extend_from_slice(&l.va.to_le_bytes());
                out.extend_from_slice(&l.idx.to_le_bytes());
            }
            out.extend_from_slice(&(b.entries.len() as u32).to_le_bytes());
            out.push(u8::from(b.paged));
            for e in &b.entries {
                out.extend_from_slice(&e.va.to_le_bytes());
                out.extend_from_slice(&e.pa.to_le_bytes());
                out.extend_from_slice(&e.word.to_le_bytes());
                out.extend_from_slice(&e.slot.to_le_bytes());
                out.extend_from_slice(&[e.ilen, e.cost, u8::from(e.paged)]);
            }
        }
        out
    }

    /// Rebuilds the block store and dispatch table from a
    /// [`Core::sb_snapshot_blob`] blob. Replaying the dispatch-table
    /// installs in block order reproduces collision overwrites exactly.
    pub(crate) fn sb_restore_blob(&mut self, blob: &[u8], count: u64) -> Result<(), SnapError> {
        self.sb.map.fill(NO_BLOCK);
        self.sb.blocks.clear();
        if count > SB_MAX_BLOCKS as u64 {
            return Err(SnapError::msg(format!("{count} superblocks out of range")));
        }
        let u32_at = |b: &[u8], o: usize| u32::from_le_bytes(b[o..o + 4].try_into().expect("4"));
        let u64_at = |b: &[u8], o: usize| u64::from_le_bytes(b[o..o + 8].try_into().expect("8"));
        let mut off = 0usize;
        for _ in 0..count {
            let Some(h) = blob.get(off..off + SB_BLK_HDR) else {
                return Err(SnapError::msg("truncated superblock header"));
            };
            off += SB_BLK_HDR;
            let len = u32_at(h, 32) as usize;
            if len > SB_MAX_LEN {
                return Err(SnapError::msg(format!("superblock of {len} entries")));
            }
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                let Some(r) = blob.get(off..off + SB_ENT_REC) else {
                    return Err(SnapError::msg("truncated superblock entry"));
                };
                off += SB_ENT_REC;
                let word = u32_at(r, 16);
                let inst = if word & 3 != 3 {
                    crate::compressed::expand(word as u16, self.xlen)
                } else {
                    decode(word, self.xlen, self.xpulp)
                };
                let Some(inst) = inst else {
                    return Err(SnapError::msg(format!(
                        "superblock entry word {word:#010x} does not decode — \
                         snapshot from a different ISA surface?"
                    )));
                };
                let slot = u16::from_le_bytes(r[20..22].try_into().expect("2"));
                if usize::from(slot) >= self.decode_entries {
                    return Err(SnapError::msg(format!(
                        "superblock slot {slot} out of range"
                    )));
                }
                entries.push(SbEntry {
                    va: u64_at(r, 0),
                    pa: u64_at(r, 8),
                    word,
                    slot,
                    ilen: r[22],
                    cost: r[23],
                    paged: r[24] != 0,
                    inst,
                });
            }
            let succ = [
                SbLink {
                    va: u64_at(h, 8),
                    idx: u32_at(h, 16),
                },
                SbLink {
                    va: u64_at(h, 20),
                    idx: u32_at(h, 28),
                },
            ];
            for l in succ {
                if l.idx != NO_BLOCK && u64::from(l.idx) >= count {
                    return Err(SnapError::msg("superblock link out of range"));
                }
            }
            self.sb.push(SbBlock {
                start: u64_at(h, 0),
                paged: h[36] != 0,
                succ,
                entries,
                // The pure-prefix stamp is a transient acceleration, not
                // state: restored blocks re-record it on their first
                // validated slow walk.
                pure_len: 0,
                pure_cost: 0,
                pure_paged: 0,
                pure_end: 0,
                stamp: SbStamp::INVALID,
            });
        }
        if off != blob.len() {
            return Err(SnapError::msg("superblock blob has trailing bytes"));
        }
        Ok(())
    }

    /// Whether block dispatch is in play: both fast-path switches on, not
    /// an Xpulp core (see the module docs), and no per-retire
    /// observability attached (trace ring, tracer, profiler all need
    /// instruction-granular hooks, so they pin the core to the
    /// interpreter — which is bit-identical anyway).
    #[inline]
    pub(crate) fn sb_active(&self) -> bool {
        self.sb_enabled && self.decode_enabled && !self.xpulp && !self.observe
    }

    pub(crate) fn sb_clear(&mut self) {
        self.sb_resume = None;
        if !self.sb.blocks.is_empty() {
            self.sb.map.fill(NO_BLOCK);
            self.sb.blocks.clear();
        }
    }

    /// Forms a block starting at `start` from currently-valid decode
    /// slots. Build touches nothing: no fetches, no stats — a slot that
    /// fails the stamp check simply ends the walk, and an empty walk
    /// means "no block" (the interpreter step will install the slot
    /// first). The walk stops *after* a boundary instruction
    /// ([`Inst::ends_superblock`]), before a virtual page boundary, or at
    /// the length cap.
    fn sb_build<B: CoreBus + ?Sized>(&mut self, bus: &B, start: u64) -> Option<u32> {
        let cache = self.decode_cache.as_deref()?;
        let ver = self.csrs.version();
        let epoch = bus.fetch_epoch();
        let stateless = bus.timing_stateless();
        let mut entries = Vec::new();
        let mut paged = false;
        let mut va = start;
        loop {
            if entries.len() >= SB_MAX_LEN || (va >> 12) != (start >> 12) {
                break;
            }
            let slot = (va >> 1) as usize & (self.decode_entries - 1);
            let e = &cache[slot];
            if e.gen != self.decode_gen
                || e.va != va
                || e.version != ver
                || e.epoch != epoch
                || e.mode != self.priv_mode
                || (e.paged && !stateless)
            {
                break;
            }
            paged |= e.paged;
            entries.push(SbEntry {
                va,
                pa: e.pa,
                word: e.word,
                slot: slot as u16,
                ilen: e.ilen,
                cost: e.cost,
                paged: e.paged,
                inst: e.inst,
            });
            va = va.wrapping_add(u64::from(e.ilen));
            if e.inst.ends_superblock() {
                break;
            }
        }
        if entries.is_empty() {
            return None;
        }
        if self.sb.blocks.len() >= SB_MAX_BLOCKS {
            self.sb_clear();
        }
        Some(self.sb.push(SbBlock {
            start,
            paged,
            succ: [SbLink::NONE; 2],
            entries,
            pure_len: 0,
            pure_cost: 0,
            pure_paged: 0,
            pure_end: 0,
            stamp: SbStamp::INVALID,
        }))
    }

    /// Resolves the successor of block `from` at `pc`: the direct-threaded
    /// links first, then the dispatch table, then a fresh build; a
    /// resolved successor is linked into a free (or the second) slot so
    /// the next pass skips straight through.
    fn sb_follow<B: CoreBus + ?Sized>(&mut self, bus: &B, from: u32, pc: u64) -> Option<u32> {
        let blk = &self.sb.blocks[from as usize];
        let from_start = blk.start;
        for l in blk.succ {
            if l.idx != NO_BLOCK && l.va == pc {
                return Some(l.idx);
            }
        }
        let idx = match self.sb.lookup(pc) {
            Some(idx) => idx,
            None => self.sb_build(bus, pc)?,
        };
        // A capacity clear inside sb_build invalidates `from`; only link
        // when the source block is still the one we exited.
        if let Some(blk) = self.sb.blocks.get_mut(from as usize) {
            if blk.start == from_start {
                let s = usize::from(blk.succ[0].idx != NO_BLOCK);
                blk.succ[s] = SbLink { va: pc, idx };
            }
        }
        Some(idx)
    }

    /// Dispatch + chain loop. Counts one `sb_hits` per fresh dispatch and
    /// one `sb_chain_follows` per block-to-block transition; a pending
    /// [`SbResume`] continuation counts as neither (it is the tail of an
    /// already-counted stream). Never returns [`SbExit::Next`].
    pub(crate) fn sb_run<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        stop_at: u64,
        limit: u64,
    ) -> Result<SbExit, RvError> {
        let pc = self.pc;
        let mut resumed: Option<(u32, usize)> = None;
        if let Some(r) = self.sb_resume.take() {
            if (r.idx as usize) < self.sb.blocks.len() {
                if r.entry == u32::MAX {
                    // The budget landed exactly on a block boundary: the
                    // chain follow out of `r.idx` is still pending.
                    match self.sb_follow(bus, r.idx, pc) {
                        Some(next) => {
                            self.counters.sb_chain_follows += 1;
                            resumed = Some((next, 0));
                        }
                        None => return Ok(SbExit::Stale),
                    }
                } else if self.sb.blocks[r.idx as usize]
                    .entries
                    .get(r.entry as usize)
                    .is_some_and(|e| e.va == pc)
                {
                    resumed = Some((r.idx, r.entry as usize));
                }
            }
        }
        let (mut idx, mut entry) = match resumed {
            Some(r) => r,
            None => {
                let Some(idx) = self.sb.lookup(pc).or_else(|| self.sb_build(bus, pc)) else {
                    return Ok(SbExit::Stale);
                };
                self.counters.sb_hits += 1;
                (idx, 0)
            }
        };
        loop {
            let exit = self.sb_exec(bus, idx, entry, stop_at, limit)?;
            entry = 0;
            if exit != SbExit::Next {
                return Ok(exit);
            }
            if self.cycles.get() >= stop_at {
                self.sb_resume = Some(SbResume {
                    idx,
                    entry: u32::MAX,
                });
                return Ok(SbExit::Budget);
            }
            match self.sb_follow(bus, idx, self.pc) {
                Some(next) => {
                    self.counters.sb_chain_follows += 1;
                    idx = next;
                }
                None => return Ok(SbExit::Stale),
            }
        }
    }

    /// Executes a *pure* instruction inline — no memory, no CSRs, no
    /// traps, no control transfer — returning `false` without any side
    /// effect for everything that must go through [`Core::execute`].
    /// The bodies mirror `Core::execute` (shared helpers where they are
    /// non-trivial). This is the single classifier *and* executor for
    /// both superblock paths: the pure prefix a block records is exactly
    /// the run of entries this function handled, so the checked loop and
    /// the turbo replay cannot drift apart.
    #[inline(always)]
    fn sb_inline_exec(&mut self, va: u64, inst: &Inst) -> bool {
        match *inst {
            Inst::Lui { rd, imm } => self.set_reg(rd, (imm << 12) as u64),
            Inst::Auipc { rd, imm } => self.set_reg(rd, va.wrapping_add((imm << 12) as u64)),
            Inst::OpImm { op, rd, rs1, imm } => {
                let v = self.alu(op, self.reg(rs1), imm as u64);
                self.set_reg(rd, v);
                self.counters.arith_ops += 1;
            }
            Inst::OpImm32 { op, rd, rs1, imm } => {
                self.set_reg(rd, Self::alu32(op, self.reg(rs1), imm as u64));
                self.counters.arith_ops += 1;
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let v = self.alu(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                self.counters.arith_ops += 1;
            }
            Inst::Op32 { op, rd, rs1, rs2 } => {
                self.set_reg(rd, Self::alu32(op, self.reg(rs1), self.reg(rs2)));
                self.counters.arith_ops += 1;
            }
            Inst::MulDiv { op, rd, rs1, rs2 } => {
                let v = self.muldiv(op, self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                self.counters.arith_ops += 1;
            }
            Inst::MulDiv32 { op, rd, rs1, rs2 } => self.exec_muldiv32(op, rd, rs1, rs2),
            // Xpulp-only: a CVA6 never decodes these. Deleting the arms
            // still slowed the CVA6 block loop (`host_fig6` +4% to +9%)
            // through register allocation; DESIGN.md §13.5.
            Inst::Mac {
                rd,
                rs1,
                rs2,
                subtract,
            } => self.exec_mac(rd, rs1, rs2, subtract),
            Inst::PulpAlu { op, rd, rs1, rs2 } => self.exec_pulp_alu(op, rd, rs1, rs2),
            Inst::Simd {
                op,
                fmt,
                rd,
                rs1,
                rs2,
                scalar_rs2,
            } => self.exec_simd(op, fmt, rd, rs1, rs2, scalar_rs2),
            Inst::SimdFp { op, rd, rs1, rs2 } => self.exec_simd_fp(op, rd, rs1, rs2),
            Inst::Fence | Inst::Wfi => {}
            _ => return false,
        }
        true
    }

    /// Executes one block with PC/cycles/instret in locals, revalidating
    /// every entry against its decode slot before it retires (see the
    /// module docs for the exactness argument).
    fn sb_exec<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        idx: u32,
        entry: usize,
        stop_at: u64,
        limit: u64,
    ) -> Result<SbExit, RvError> {
        let bidx = idx as usize;
        let gen0 = self.decode_gen;
        let mut ver = self.csrs.version();
        let mut epoch = bus.fetch_epoch();
        let mut mode = self.priv_mode;
        let blk_start = self.sb.blocks[bidx].start;
        let blk_paged = self.sb.blocks[bidx].paged;
        let n = self.sb.blocks[bidx].entries.len();
        if blk_paged && !bus.timing_stateless() {
            return Ok(SbExit::Stale);
        }
        // `entry` is 0 on dispatch, or mid-block for a resumed budget
        // continuation (caller checked `entries[entry].va == self.pc`).
        let mut va = self.pc;
        let mut cycles = self.cycles.get();
        let mut instret = self.instret;
        let mut i = entry;
        // Pure-prefix recording state: a full walk from entry 0 that
        // validates entries through the checked loop accumulates the
        // prefix it could have replayed; when the walk reaches the first
        // non-inline entry (or the block's end) the prefix + stamp are
        // written back, arming the turbo path for the next pass.
        let mut prefix_clean = i == 0;
        let mut pcost: u64 = 0;
        let mut ppaged: u64 = 0;
        let ft_pure = bus.fetch_touch_pure();
        let exit = loop {
            // Turbo path: when the block's stamped pure prefix is
            // provably still valid (see [`SbStamp`]), the prefix replays
            // with no per-entry slot checks, no per-entry fetch touches
            // (the bus declared them pure), and bulk counter updates —
            // producing the exact retires, cycles and Stats the checked
            // loop below would. A prefix that could reach the
            // `run_until_cycle` or `run` budget falls back to the checked
            // loop, so the stop still lands on the precise boundary. Sits
            // at the loop top so the fused self-loop restart below
            // re-enters it every iteration.
            if i == 0 && prefix_clean && ft_pure {
                let blk = &self.sb.blocks[bidx];
                let plen = blk.pure_len as usize;
                if plen > 0
                    && blk.stamp.installs == self.decode_installs
                    && blk.stamp.version == ver
                    && blk.stamp.epoch == epoch
                    && blk.stamp.mode == mode
                    && cycles.saturating_add(u64::from(blk.pure_cost)) < stop_at
                    && cycles.saturating_add(u64::from(blk.pure_cost)) <= limit
                {
                    let (pure_cost, pure_paged, pure_end) =
                        (blk.pure_cost, blk.pure_paged, blk.pure_end);
                    // Move the entry vector out so the inline executor
                    // can borrow `self`; pure entries cannot touch the
                    // block store (or fail), so it always goes back.
                    let entries = std::mem::take(&mut self.sb.blocks[bidx].entries);
                    for e in &entries[..plen] {
                        let inlined = self.sb_inline_exec(e.va, &e.inst);
                        debug_assert!(inlined, "stamped pure prefix held an impure entry");
                    }
                    self.sb.blocks[bidx].entries = entries;
                    cycles += u64::from(pure_cost);
                    instret += plen as u64;
                    va = pure_end;
                    self.counters.decode_hits += plen as u64;
                    self.counters.itlb_hits += u64::from(pure_paged);
                    self.counters.sb_instrs_retired += plen as u64;
                    i = plen;
                    prefix_clean = false;
                }
            }
            if i >= n {
                if prefix_clean && i > 0 {
                    // The whole block is inline-pure (length- or
                    // page-capped with no terminator): stamp it all.
                    let installs = self.decode_installs;
                    let blk = &mut self.sb.blocks[bidx];
                    blk.pure_len = i as u32;
                    blk.pure_cost = pcost as u32;
                    blk.pure_paged = ppaged as u32;
                    blk.pure_end = va;
                    blk.stamp = SbStamp {
                        installs,
                        version: ver,
                        epoch,
                        mode,
                    };
                }
                break SbExit::Next;
            }
            if cycles >= stop_at {
                break SbExit::Budget;
            }
            let e = self.sb.blocks[bidx].entries[i];
            // Slot revalidation: the exact replay predicate of
            // `Core::step`, plus word/PA equality so a slot reinstalled
            // with different contents (same VA after a remap or a
            // bus-side code change) can never replay this copy.
            let stale = {
                let Some(cache) = self.decode_cache.as_deref() else {
                    break SbExit::Stale;
                };
                let s = &cache[usize::from(e.slot)];
                (s.gen ^ gen0)
                    | (s.va ^ e.va)
                    | (s.version ^ ver)
                    | (s.epoch ^ epoch)
                    | (s.pa ^ e.pa)
                    | u64::from(s.word ^ e.word)
                    | u64::from(s.mode != mode)
            };
            if stale != 0 || !bus.fetch_touch(e.pa) {
                break SbExit::Stale;
            }
            self.counters.decode_hits += 1;
            self.counters.itlb_hits += u64::from(e.paged);
            self.counters.sb_instrs_retired += 1;
            if !self.sb_inline_exec(va, &e.inst) {
                // First non-inline entry of a clean walk from entry 0:
                // every earlier entry just passed its per-entry check
                // through pure retires, so the prefix + stamp recorded
                // here certify exactly the state the checks saw.
                if prefix_clean {
                    if i > 0 {
                        let installs = self.decode_installs;
                        let blk = &mut self.sb.blocks[bidx];
                        blk.pure_len = i as u32;
                        blk.pure_cost = pcost as u32;
                        blk.pure_paged = ppaged as u32;
                        blk.pure_end = va;
                        blk.stamp = SbStamp {
                            installs,
                            version: ver,
                            epoch,
                            mode,
                        };
                    }
                    prefix_clean = false;
                }
                // Everything non-inline (memory, FP compute, CSRs,
                // control flow, system) runs through the one true
                // `execute` with the locals flushed, then the locals and
                // the revalidation stamps are re-read.
                self.pc = va;
                self.cycles = Cycles::new(cycles);
                self.instret = instret;
                let out = self.execute(
                    bus,
                    va,
                    e.inst,
                    u64::from(e.ilen),
                    e.word,
                    u64::from(e.cost),
                    Cycles::ZERO,
                )?;
                cycles = self.cycles.get();
                instret = self.instret;
                va = self.pc;
                if out.halted {
                    break SbExit::Halted;
                }
                if cycles > limit {
                    break SbExit::Limit;
                }
                if self.decode_gen != gen0 {
                    // The instruction invalidated the decode cache
                    // (fence.i / SMC store): the block store is gone.
                    break SbExit::Stale;
                }
                ver = self.csrs.version();
                epoch = bus.fetch_epoch();
                mode = self.priv_mode;
                if va != e.va.wrapping_add(u64::from(e.ilen)) {
                    // Control transfer (jump, taken branch, trap, xret).
                    // A transfer to the block's own start is the fused
                    // self-loop: restart in place, counting the exact
                    // chain follow the dispatcher's `sb_follow` would have
                    // counted — identical counters, none of the frame
                    // overhead. Everything else exits to the chain at the
                    // new PC.
                    if va == blk_start {
                        self.counters.sb_chain_follows += 1;
                        i = 0;
                        prefix_clean = true;
                        pcost = 0;
                        ppaged = 0;
                        continue;
                    }
                    break SbExit::Next;
                }
                i += 1;
                continue;
            }
            va = va.wrapping_add(u64::from(e.ilen));
            cycles += u64::from(e.cost);
            instret += 1;
            if prefix_clean {
                pcost += u64::from(e.cost);
                ppaged += u64::from(e.paged);
            }
            if cycles > limit {
                break SbExit::Limit;
            }
            i += 1;
        };
        self.pc = va;
        self.cycles = Cycles::new(cycles);
        self.instret = instret;
        if exit == SbExit::Budget {
            // Remember where the stream paused so the next dispatch
            // continues it instead of re-dispatching (and building a
            // duplicate block starting mid-way through this one).
            self.sb_resume = Some(SbResume {
                idx,
                entry: i as u32,
            });
        }
        Ok(exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    /// Assembles `build`, runs it three ways — superblocks on, superblocks
    /// off (decode cache still on), and decode cache off entirely — and
    /// asserts bit-identical cycles, instret, registers and architectural
    /// digest across all three, and every non-`sb_*` counter across the
    /// first two. Returns the superblock run.
    fn assert_sb_neutral(xlen: Xlen, build: impl Fn(&mut Asm)) -> Core {
        let mut a = Asm::new(xlen);
        build(&mut a);
        a.ebreak();
        let words = a.assemble().expect("assemble");
        let run = |decode: bool, sb: bool| {
            let mut bus = FlatBus::new(1 << 16);
            bus.load_words(0, &words);
            let mut core = match xlen {
                Xlen::Rv64 => Core::cva6(),
                Xlen::Rv32 => Core::ri5cy(0),
            };
            core.set_decode_cache(decode);
            core.set_superblocks(sb);
            core.set_reg(Reg::Sp, 0x8000);
            core.run(&mut bus, 1_000_000).expect("run");
            core
        };
        let fast = run(true, true);
        for other in [run(true, false), run(false, true)] {
            assert_eq!(fast.cycles(), other.cycles(), "cycle neutrality");
            assert_eq!(fast.instret(), other.instret());
            assert_eq!(fast.state_digest(), other.state_digest());
            for r in Reg::ALL {
                assert_eq!(fast.reg(r), other.reg(r), "register {r:?}");
            }
        }
        // Superblock telemetry is zero-suppressed when the engine is off.
        let plain = run(true, false).stats();
        assert_eq!(plain.get("sb_hits"), 0);
        let fs = fast.stats();
        let non_sb: Vec<_> = fs.iter().filter(|(k, _)| !k.starts_with("sb_")).collect();
        assert_eq!(non_sb, plain.iter().collect::<Vec<_>>());
        fast
    }

    #[test]
    fn hot_loop_retires_through_chained_blocks() {
        let fast = assert_sb_neutral(Xlen::Rv64, |a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, 300);
            let top = a.label();
            a.bind(top);
            a.add(Reg::A0, Reg::A0, Reg::T0);
            a.sd(Reg::A0, Reg::Sp, 0);
            a.ld(Reg::A1, Reg::Sp, 0);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        });
        let s = fast.stats();
        assert!(
            s.get("sb_instrs_retired") > 1_000,
            "block path must carry the loop"
        );
        // After the first iteration resolves the back-edge, the loop runs
        // block-to-block without re-entering the dispatcher.
        assert!(s.get("sb_chain_follows") > 250, "chained dispatch expected");
        assert!(s.get("sb_hits") < 20, "fresh dispatches should be rare");
    }

    #[test]
    fn xpulp_core_runs_hw_loop_through_decode_cache_only() {
        // A hardware-loop kernel with a post-increment load, a MAC and a
        // decode-cache flush: on a RI5CY core, switching the engine on
        // dispatches no block and counts no `sb_*` event, so the run
        // equals the decode-cache-only one in every counter too.
        let fast = assert_sb_neutral(Xlen::Rv32, |a| {
            a.li(Reg::A0, 0x4000);
            a.fence_i();
            a.lp_counti(0, 40);
            let (s, e) = (a.label(), a.label());
            a.lp_starti(0, s);
            a.lp_endi(0, e);
            a.bind(s);
            a.p_lw_post(Reg::T1, Reg::A0, 4);
            a.xor(Reg::A2, Reg::A2, Reg::T1);
            a.p_mac(Reg::A4, Reg::A5, Reg::A6);
            a.bind(e);
        });
        let s = fast.stats();
        assert_eq!(s.get("hwloop_iters"), 39);
        assert_eq!(s.get("decode_invalidations"), 1);
        assert!(s.get("decode_hits") >= 3 * 39, "the loop replays decoded");
        assert!(s.iter().all(|(k, _)| !k.starts_with("sb_")), "{s:?}");
        assert!(fast.sb.map.is_empty(), "Xpulp core allocated a block store");
    }

    #[test]
    fn branch_into_block_interior_stays_exact() {
        // The back-edge targets the *middle* of the straight-line run
        // entered from the top, so the engine must form (and chain) a
        // second block starting at an interior PC.
        let fast = assert_sb_neutral(Xlen::Rv64, |a| {
            a.li(Reg::T1, 50);
            a.addi(Reg::T6, Reg::T6, 3);
            let mid = a.label();
            a.bind(mid);
            a.addi(Reg::T6, Reg::T6, 1);
            a.xor(Reg::T2, Reg::T2, Reg::T6);
            a.addi(Reg::T1, Reg::T1, -1);
            a.bnez(Reg::T1, mid);
        });
        assert!(fast.stats().get("sb_instrs_retired") > 100);
    }

    #[test]
    fn smc_patching_own_tail_is_exact() {
        // A two-iteration loop whose store rewrites a *later* slot of the
        // same straight-line run: the dispatch executing the store must
        // not retire its own stale tail.
        let patch = crate::encode::encode(&Inst::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 77,
        })
        .unwrap();
        let fast = assert_sb_neutral(Xlen::Rv64, |a| {
            a.li(Reg::T1, 2);
            let slot = a.label();
            let top = a.label();
            a.bind(top);
            a.la(Reg::T0, slot);
            a.li(Reg::T2, patch as i64);
            a.sw(Reg::T2, Reg::T0, 0);
            a.fence_i();
            a.bind(slot);
            a.addi(Reg::A0, Reg::A0, 1); // becomes `addi a0, a0, 77`
            a.addi(Reg::T1, Reg::T1, -1);
            a.bnez(Reg::T1, top);
        });
        assert_eq!(fast.reg(Reg::A0), 77 + 77, "both passes ran patched bytes");
        assert!(fast.stats().get("sb_invalidations") >= 1);
    }

    #[test]
    fn chunked_budget_runs_match_uninterrupted() {
        // `run_until_cycle` in 1-, 3- and 7-cycle slices must retire the
        // same stream — and count the same superblock telemetry — as one
        // uninterrupted `run`; budgets land mid-block on purpose.
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 60);
        let top = a.label();
        a.bind(top);
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.slli(Reg::A1, Reg::A0, 1);
        a.xor(Reg::A2, Reg::A2, Reg::A1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let words = a.assemble().unwrap();
        let fresh = |words: &[u32]| {
            let mut bus = FlatBus::new(1 << 16);
            bus.load_words(0, words);
            (Core::cva6(), bus)
        };
        let (mut whole, mut wbus) = fresh(&words);
        whole.run(&mut wbus, 1_000_000).unwrap();
        for chunk in [1u64, 3, 7] {
            let (mut core, mut bus) = fresh(&words);
            for _ in 0..1_000_000 {
                if core
                    .run_until_cycle(&mut bus, core.cycles().get() + chunk)
                    .unwrap()
                {
                    break;
                }
            }
            assert!(core.is_halted(), "chunked run must finish");
            assert_eq!(core.cycles(), whole.cycles(), "chunk {chunk}");
            assert_eq!(core.state_digest(), whole.state_digest(), "chunk {chunk}");
            assert_eq!(
                format!("{:?}", core.stats()),
                format!("{:?}", whole.stats()),
                "telemetry must be chunk-invariant (chunk {chunk})"
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_blocks_and_resume() {
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 80);
        let top = a.label();
        a.bind(top);
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.xor(Reg::A2, Reg::A2, Reg::A0);
        a.slli(Reg::A1, Reg::A0, 2);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let words = a.assemble().unwrap();
        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &words);
        let mut core = Core::cva6();
        // A 7-cycle budget lands inside the 5-instruction loop body, so
        // the checkpoint carries live blocks *and* an armed resume.
        for _ in 0..5 {
            core.run_until_cycle(&mut bus, core.cycles().get() + 7)
                .unwrap();
        }
        assert!(core.sb_resume.is_some(), "budget must split a block");

        let mut snap = hulkv_sim::Snapshot::new();
        let section = core.snapshot_into(&mut snap);
        let mut twin = Core::cva6();
        twin.restore_from(&snap, &section).unwrap();
        assert_eq!(twin.sb.blocks.len(), core.sb.blocks.len());
        assert_eq!(twin.sb_resume, core.sb_resume);

        // Both finish under the same chunking; every counter — including
        // the superblock telemetry — must agree.
        let mut tbus = FlatBus::new(1 << 16);
        tbus.load_words(0, &words);
        for _ in 0..1_000_000 {
            if core
                .run_until_cycle(&mut bus, core.cycles().get() + 7)
                .unwrap()
            {
                break;
            }
        }
        for _ in 0..1_000_000 {
            if twin
                .run_until_cycle(&mut tbus, twin.cycles().get() + 7)
                .unwrap()
            {
                break;
            }
        }
        assert_eq!(core.state_digest(), twin.state_digest());
        assert_eq!(core.cycles(), twin.cycles());
        assert_eq!(format!("{:?}", core.stats()), format!("{:?}", twin.stats()));
    }

    #[test]
    fn boundary_predicate_matches_engine_terminators() {
        // `ends_superblock` is the single source of truth shared with the
        // CFG analyzer; spot-check the interesting members of each class.
        use crate::inst::CsrOp;
        let ends = [
            Inst::Jal {
                rd: Reg::Zero,
                offset: 8,
            },
            Inst::Branch {
                cond: crate::inst::BranchCond::Eq,
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
                src: crate::inst::CsrSrc::Reg(Reg::A0),
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
}
