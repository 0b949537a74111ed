//! The decode–execute interpreter shared by the CVA6 host model and the
//! PMCA cluster cores.

use crate::csr::{addr, CsrFile, PrivMode, TrapCause};
use crate::decode::decode;
use crate::fp16::{pack2, unpack2};
use crate::inst::*;
use crate::mmu::{self, AccessKind, WalkFault};
use crate::timing::CostModel;
use hulkv_sim::{Cycles, PcProfile, SharedTracer, SimError, Stats, TraceEvent, Track};

/// The memory interface a core executes against.
///
/// Latencies are *stall* cycles: the cycles the access adds beyond the one
/// cycle a pipelined L1/SPM hit hides. A scratchpad or cache hit therefore
/// reports `Cycles::ZERO` and the core sustains CPI ≈ 1.
pub trait CoreBus {
    /// Fetches the 32-bit instruction word at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns the underlying memory-system error for unmapped or otherwise
    /// failing fetches.
    fn fetch(&mut self, addr: u64) -> Result<(u32, Cycles), SimError>;

    /// Reads `buf.len()` bytes at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns the underlying memory-system error.
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<Cycles, SimError>;

    /// Writes `data` at physical address `addr`.
    ///
    /// # Errors
    ///
    /// Returns the underlying memory-system error.
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<Cycles, SimError>;

    /// Revalidates a decoded-instruction-cache hit: returns `true` iff a
    /// 4-byte fetch at `addr` would be a zero-stall hit right now, *and*
    /// performs exactly the side effects that hit would have (statistics,
    /// trace events, LRU recency). Returning `false` must leave the memory
    /// system untouched; the core then issues the real [`CoreBus::fetch`].
    ///
    /// The default (`false`) disables decoded-instruction replay on buses
    /// that do not opt in.
    fn fetch_touch(&mut self, _addr: u64) -> bool {
        false
    }

    /// Content-stability epoch for fetches: must change whenever the bytes
    /// a resident fetch returns may have changed (cache refill or flush).
    /// A decoded entry recorded under one epoch is only replayed while the
    /// epoch is unchanged. Buses with immutable fetch timing return a
    /// constant.
    fn fetch_epoch(&self) -> u64 {
        0
    }

    /// Whether every access on this bus is zero-latency and free of
    /// history-dependent state (no LRU, no occupancy counters). Only on
    /// such buses may the core skip a Sv39 page-table walk via its fetch
    /// micro-TLB: on cached buses the walk's PTE loads move L1D state, so
    /// the walk must really execute to keep timing bit-exact.
    fn timing_stateless(&self) -> bool {
        false
    }

    /// Running total of instruction-cache misses this bus has served —
    /// the `IcacheMiss` HPM event source. Buses without an instruction
    /// cache report zero, so the matching counter simply reads zero.
    fn hpm_icache_misses(&self) -> u64 {
        0
    }

    /// Running total of data-cache misses — the `DcacheMiss` HPM event
    /// source. Zero on buses without a data cache.
    fn hpm_dcache_misses(&self) -> u64 {
        0
    }

    /// Running total of interconnect conflict stall cycles (TCDM banking
    /// conflicts on the cluster) — the `ConflictStall` HPM event source.
    fn hpm_conflict_stalls(&self) -> u64 {
        0
    }
}

/// A flat zero-wait-state memory for tests, examples and kernel golden runs.
///
/// # Example
///
/// ```
/// use hulkv_rv::{CoreBus, FlatBus};
///
/// let mut bus = FlatBus::new(1024);
/// bus.write_bytes(0, &[0x13, 0x00, 0x00, 0x00]); // nop
/// let (word, _) = bus.fetch(0)?;
/// assert_eq!(word, 0x13);
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlatBus {
    mem: Vec<u8>,
}

impl FlatBus {
    /// Creates a flat memory of `size` bytes.
    pub fn new(size: usize) -> Self {
        FlatBus { mem: vec![0; size] }
    }

    /// Copies instruction words to `addr` (little-endian).
    pub fn load_words(&mut self, addr: u64, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            let o = addr as usize + i * 4;
            self.mem[o..o + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Backdoor byte write.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let o = addr as usize;
        self.mem[o..o + data.len()].copy_from_slice(data);
    }

    /// Backdoor byte read.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    /// Backdoor little-endian `u32` read.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr, 4).try_into().expect("4 bytes"))
    }

    /// Backdoor little-endian `u64` read.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr, 8).try_into().expect("8 bytes"))
    }

    /// FNV-1a digest of the full memory image (no timing side effects).
    /// The differential co-simulation driver compares this between a
    /// fast-path and a reference run at every checkpoint.
    pub fn content_digest(&self) -> u64 {
        hulkv_sim::Fnv64::new().write(&self.mem).finish()
    }

    /// The memory size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.mem.len()
    }

    /// Serializes the memory image (page-compact, zero pages skipped).
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        hulkv_sim::Json::obj([("mem", snap.push_pages(&self.mem))])
    }

    /// Restores an image written by [`FlatBus::snapshot_into`] into a bus
    /// of the same size.
    ///
    /// # Errors
    ///
    /// On size mismatch or a malformed section.
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        snap.restore_pages(hulkv_sim::snap::get(j, "mem")?, &mut self.mem)
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, SimError> {
        let end = addr as usize + len;
        if end > self.mem.len() {
            return Err(SimError::OutOfRange {
                what: "flat bus access",
                value: end as u64,
                limit: self.mem.len() as u64,
            });
        }
        Ok(addr as usize)
    }
}

impl CoreBus for FlatBus {
    #[inline]
    fn fetch(&mut self, addr: u64) -> Result<(u32, Cycles), SimError> {
        let o = self.check(addr, 4)?;
        let w = u32::from_le_bytes(self.mem[o..o + 4].try_into().expect("4 bytes"));
        Ok((w, Cycles::ZERO))
    }

    #[inline]
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        let o = self.check(addr, buf.len())?;
        buf.copy_from_slice(&self.mem[o..o + buf.len()]);
        Ok(Cycles::ZERO)
    }

    #[inline]
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<Cycles, SimError> {
        let o = self.check(addr, data.len())?;
        self.mem[o..o + data.len()].copy_from_slice(data);
        Ok(Cycles::ZERO)
    }

    #[inline]
    fn fetch_touch(&mut self, addr: u64) -> bool {
        // A flat memory has no per-access state; a fetch "hits" whenever
        // it is in bounds, with no side effects to mirror.
        addr as usize + 4 <= self.mem.len()
    }

    #[inline]
    fn timing_stateless(&self) -> bool {
        true
    }
}

/// The result of one [`Core::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Cycles the instruction occupied the core.
    pub cycles: Cycles,
    /// Whether the core hit `ebreak` (the model's halt convention).
    pub halted: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct HwLoopState {
    start: u64,
    end: u64,
    count: u64,
}

/// Entries in the per-core decoded-instruction cache, indexed by
/// `(vaddr >> 1) & (DECODE_CACHE_ENTRIES - 1)` — 2-byte granularity so
/// adjacent RVC parcels get distinct slots. Indexing by *virtual* PC lets
/// the replay path start the entry load before the µTLB resolves the
/// physical address; the entry is still *tagged* by physical address, so
/// a remapped page can never replay another page's decode.
const DECODE_CACHE_ENTRIES: usize = 4096;

/// Decoded-cache size for RI5CY cluster cores. A PMCA kernel's code
/// working set is a few hundred bytes, so 256 entries (512 B of parcels)
/// already cover it conflict-free — and the backing storage a team of
/// eight first-touches at launch shrinks from 8 MiB to 512 KiB, which is
/// what keeps a cold team launch cheap. Conflict evictions only cost
/// wall-clock re-decodes, never simulated cycles.
const DECODE_CACHE_ENTRIES_RI5CY: usize = 256;

/// One slot of the decoded-instruction cache. Entries are installed only
/// for fetches whose whole fetch path (translation walk + instruction
/// fetch) added **zero** stall cycles, so a replay charges zero extra
/// cycles — exactly what the slow path would charge for the same
/// steady-state hit.
#[derive(Debug, Clone, Copy)]
struct DecodedEntry {
    /// Virtual PC the entry was installed for (the tag; distinct VAs can
    /// share a slot, so the full address must match).
    va: u64,
    /// Physical address of the fetch, replayed into
    /// [`CoreBus::fetch_touch`]. Trustworthy whenever `version`/`mode`
    /// match: the translation inputs (`satp`, privilege) are covered by
    /// the stamp.
    pa: u64,
    /// Core-side invalidation generation; stale when != `Core::decode_gen`.
    gen: u64,
    /// [`CsrFile::version`] at install time. Any CSR write bumps it, so a
    /// matching stamp proves both "no interrupt became takeable" and
    /// "fetch translation unchanged" without re-deriving either.
    version: u64,
    /// [`CoreBus::fetch_epoch`] at install time; stale when the bus has
    /// refilled or flushed since.
    epoch: u64,
    /// Raw instruction word (for the trace ring and Retire events).
    word: u32,
    /// Parcel length in bytes: 2 (RVC) or 4.
    ilen: u8,
    /// [`CostModel::cost`] of `inst`: a pure function of the decoded
    /// instruction, cached so a replay skips the cost-model match.
    cost: u8,
    /// Privilege mode at install time (part of the stamp).
    mode: PrivMode,
    /// Whether the fetch translation went through Sv39. Paged entries
    /// only replay on timing-stateless buses (the walk has memory-system
    /// side effects on cached ones) and count as µTLB hits.
    paged: bool,
    /// The pre-decoded instruction.
    inst: Inst,
}

impl DecodedEntry {
    /// Filler for empty slots; `gen: 0` never matches (generations start
    /// at 1), so the other fields are never consulted.
    const DEAD: DecodedEntry = DecodedEntry {
        va: 0,
        pa: 0,
        gen: 0,
        version: 0,
        epoch: 0,
        word: 0,
        ilen: 0,
        cost: 0,
        mode: PrivMode::Machine,
        paged: false,
        inst: Inst::Ebreak,
    };
}

/// Hot-path activity counters, kept as plain fields (the `Stats` registry
/// costs a B-tree lookup plus a key allocation per bump) and materialized
/// into a [`Stats`] by [`Core::stats`].
#[derive(Debug, Clone, Copy, Default)]
struct CoreCounters {
    arith_ops: u64,
    loads: u64,
    stores: u64,
    taken_branches: u64,
    mem_stall_cycles: u64,
    simd_insts: u64,
    fp_insts: u64,
    interrupts: u64,
    traps: u64,
    hwloop_iters: u64,
    decode_hits: u64,
    decode_misses: u64,
    decode_invalidations: u64,
    itlb_hits: u64,
    itlb_misses: u64,
    /// Instructions retired by [`Core::run_loop`]'s inline replay.
    sb_instrs_retired: u64,
}

/// The HPM event matrix: what a `mhpmevent*` selector can count. The
/// numeric values are the architectural selector encoding guest code
/// writes (mirroring how CVA6 numbers its HPM events); unknown selectors
/// count nothing, like the RTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum HpmEvent {
    /// Selector 0: counter disabled (reads as written value only).
    None = 0,
    /// Instruction-cache misses (bus-observed).
    IcacheMiss = 1,
    /// Data-cache misses (bus-observed).
    DcacheMiss = 2,
    /// Fetch µTLB / iTLB misses.
    ItlbMiss = 3,
    /// Decoded-instruction-cache hits (simulator fast path).
    DecodeHit = 4,
    /// Decoded-instruction-cache misses.
    DecodeMiss = 5,
    /// Load/store stall cycles (memory time beyond the pipelined cycle).
    MemStall = 6,
    /// Taken branches.
    TakenBranch = 7,
    /// Synchronous traps taken (exceptions, not interrupts).
    Trap = 8,
    /// Loads retired.
    Load = 9,
    /// Stores retired.
    Store = 10,
    /// Interrupts taken.
    Interrupt = 11,
    /// Xpulp hardware-loop back-edges taken.
    HwLoopIter = 12,
    /// TCDM banking-conflict stall cycles (cluster cores).
    ConflictStall = 13,
}

impl HpmEvent {
    /// Decodes an event-selector value (unknown selectors count nothing).
    pub fn from_selector(sel: u64) -> HpmEvent {
        match sel {
            1 => HpmEvent::IcacheMiss,
            2 => HpmEvent::DcacheMiss,
            3 => HpmEvent::ItlbMiss,
            4 => HpmEvent::DecodeHit,
            5 => HpmEvent::DecodeMiss,
            6 => HpmEvent::MemStall,
            7 => HpmEvent::TakenBranch,
            8 => HpmEvent::Trap,
            9 => HpmEvent::Load,
            10 => HpmEvent::Store,
            11 => HpmEvent::Interrupt,
            12 => HpmEvent::HwLoopIter,
            13 => HpmEvent::ConflictStall,
            _ => HpmEvent::None,
        }
    }
}

/// Per-counter HPM bookkeeping. Counters are *virtual*: a read returns
/// `running_event_total - offset`, so counting adds zero work to the
/// interpreter hot loop — the existing activity counters and bus
/// statistics are the running totals, and programming or writing a
/// counter only re-anchors its offset. `mcountinhibit` latches the live
/// value into `frozen`; clearing the inhibit bit re-anchors the offset so
/// the counter resumes from the latched value.
#[derive(Debug, Clone, Copy, Default)]
struct HpmCounter {
    /// Subtracted from the selected event's running total on reads.
    offset: u64,
    /// Value latched while the counter is inhibited.
    frozen: u64,
}

/// 1-entry fetch micro-TLB: while fetches stay on one virtual page and the
/// CSR file and privilege mode are unchanged, the translation is linear in
/// the page offset (true for 4 KiB pages and superpages alike).
#[derive(Debug, Clone, Copy)]
struct FetchTlb {
    valid: bool,
    /// Virtual page number (`vaddr >> 12`).
    page: u64,
    /// Physical page base (`pa & !0xFFF`).
    base: u64,
    /// CSR-file version the walk ran under.
    version: u64,
    /// Privilege mode the walk ran under.
    mode: PrivMode,
}

/// Cached `satp`/privilege view so the hot loop revalidates the MMU mode
/// with one integer compare instead of a CSR-file read per instruction.
#[derive(Debug, Clone, Copy)]
struct MmuCache {
    version: u64,
    mode: PrivMode,
    satp: u64,
    active: bool,
}

/// Cached result of [`Core::takeable_interrupt`], keyed by CSR version and
/// privilege mode (its only inputs).
#[derive(Debug, Clone, Copy)]
struct IrqCache {
    version: u64,
    mode: PrivMode,
    takeable: Option<u64>,
}

/// One simulated RISC-V hart.
///
/// The same engine runs both HULK-V machines; construction selects the ISA
/// surface and the cost model:
///
/// * [`Core::cva6`] — RV64 IMAFD+Zicsr, M/S/U privileges, Sv39.
/// * [`Core::ri5cy`] — RV32 IMF + Xpulp, machine mode only.
///
/// `ebreak` halts the core (the bare-metal runtime's exit convention);
/// `ecall` and faults trap through `mtvec` when one is installed and
/// otherwise abort the run with an error.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Core {
    xlen: Xlen,
    xpulp: bool,
    cost: CostModel,
    pc: u64,
    x: [u64; 32],
    f: [u64; 32],
    csrs: CsrFile,
    priv_mode: PrivMode,
    hwloops: [HwLoopState; 2],
    reservation: Option<u64>,
    cycles: Cycles,
    instret: u64,
    halted: bool,
    stats_name: String,
    counters: CoreCounters,
    hpm: [HpmCounter; addr::HPM_COUNTERS as usize],
    decode_cache: Option<Box<[DecodedEntry]>>,
    /// Slot count of `decode_cache` (a power of two; the index mask is
    /// `decode_entries - 1`). Host cores use [`DECODE_CACHE_ENTRIES`],
    /// RI5CY cluster cores the smaller [`DECODE_CACHE_ENTRIES_RI5CY`].
    decode_entries: usize,
    decode_enabled: bool,
    decode_gen: u64,
    /// Coarse dirty filter: the PA watermarks `[code_lo, code_hi)` cover
    /// every installed entry; a store overlapping the range invalidates.
    code_lo: u64,
    code_hi: u64,
    /// Whether [`Core::run_loop`] replays decode-cache slots inline
    /// ([`Core::set_superblocks`]).
    sb_enabled: bool,
    itlb: FetchTlb,
    mmu_cache: MmuCache,
    irq_cache: IrqCache,
    trace: Option<std::collections::VecDeque<TraceEntry>>,
    trace_capacity: usize,
    tracer: Option<SharedTracer>,
    track: Track,
    trace_base: u64,
    profile: Option<PcProfile>,
    /// True when any of `trace`/`tracer`/`profile` is attached: one flag
    /// the retire path checks instead of three `Option`s.
    observe: bool,
}

/// One retired instruction in the execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Program counter of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
}

/// The error a failed bus access at physical address `addr` surfaces as.
#[cold]
#[inline(never)]
fn mem_error(addr: u64, e: SimError) -> RvError {
    RvError::Memory {
        addr,
        cause: e.to_string(),
    }
}

/// Sign- or zero-extends the low `width` bytes of `raw` to a register value.
#[inline(always)]
fn extend_load(width: LoadWidth, raw: u64) -> u64 {
    match width {
        LoadWidth::B => raw as u8 as i8 as i64 as u64,
        LoadWidth::Bu => raw & 0xFF,
        LoadWidth::H => raw as u16 as i16 as i64 as u64,
        LoadWidth::Hu => raw & 0xFFFF,
        LoadWidth::W => raw as u32 as i32 as i64 as u64,
        LoadWidth::Wu => raw & 0xFFFF_FFFF,
        LoadWidth::D => raw,
    }
}

/// One integer load at physical address `addr` as a single bus access,
/// extended to a register value. Each width gets its own fixed-size
/// buffer, so the bus call specialises and no copy goes through `memcpy`.
#[inline(always)]
fn bus_load_int<B: CoreBus + ?Sized>(
    bus: &mut B,
    addr: u64,
    width: LoadWidth,
) -> Result<(u64, Cycles), RvError> {
    let r = match width.bytes() {
        1 => {
            let mut b = [0u8; 1];
            bus.load(addr, &mut b).map(|lat| (u64::from(b[0]), lat))
        }
        2 => {
            let mut b = [0u8; 2];
            bus.load(addr, &mut b)
                .map(|lat| (u64::from(u16::from_le_bytes(b)), lat))
        }
        4 => {
            let mut b = [0u8; 4];
            bus.load(addr, &mut b)
                .map(|lat| (u64::from(u32::from_le_bytes(b)), lat))
        }
        _ => {
            let mut b = [0u8; 8];
            bus.load(addr, &mut b)
                .map(|lat| (u64::from_le_bytes(b), lat))
        }
    };
    let (raw, lat) = r.map_err(|e| mem_error(addr, e))?;
    Ok((extend_load(width, raw), lat))
}

/// One integer store of the low `width` bytes of `v` at physical address
/// `addr` as a single fixed-width bus access (see [`bus_load_int`]).
#[inline(always)]
fn bus_store_int<B: CoreBus + ?Sized>(
    bus: &mut B,
    addr: u64,
    width: StoreWidth,
    v: u64,
) -> Result<Cycles, RvError> {
    match width {
        StoreWidth::B => bus.store(addr, &[v as u8]),
        StoreWidth::H => bus.store(addr, &(v as u16).to_le_bytes()),
        StoreWidth::W => bus.store(addr, &(v as u32).to_le_bytes()),
        StoreWidth::D => bus.store(addr, &v.to_le_bytes()),
    }
    .map_err(|e| mem_error(addr, e))
}

impl Core {
    /// Creates a core with an explicit ISA width and cost model (Xpulp off).
    pub fn new(xlen: Xlen, cost: CostModel) -> Self {
        Core {
            xlen,
            xpulp: false,
            cost,
            pc: 0,
            x: [0; 32],
            f: [0; 32],
            csrs: CsrFile::new(0),
            priv_mode: PrivMode::Machine,
            hwloops: [HwLoopState::default(); 2],
            reservation: None,
            cycles: Cycles::ZERO,
            instret: 0,
            halted: false,
            stats_name: "core".into(),
            counters: CoreCounters::default(),
            hpm: [HpmCounter::default(); addr::HPM_COUNTERS as usize],
            decode_cache: None,
            decode_entries: DECODE_CACHE_ENTRIES,
            decode_enabled: true,
            decode_gen: 1,
            code_lo: u64::MAX,
            code_hi: 0,
            sb_enabled: true,
            itlb: FetchTlb {
                valid: false,
                page: 0,
                base: 0,
                version: 0,
                mode: PrivMode::Machine,
            },
            mmu_cache: MmuCache {
                version: 0,
                mode: PrivMode::Machine,
                satp: 0,
                active: false,
            },
            irq_cache: IrqCache {
                version: 0,
                mode: PrivMode::Machine,
                takeable: None,
            },
            trace: None,
            trace_capacity: 0,
            tracer: None,
            track: Track::HostHart,
            trace_base: 0,
            profile: None,
            observe: false,
        }
    }

    /// The CVA6 host configuration.
    pub fn cva6() -> Self {
        Core::new(Xlen::Rv64, CostModel::cva6())
    }

    /// A PMCA cluster core with hart id `hartid` (RV32 + Xpulp).
    pub fn ri5cy(hartid: u64) -> Self {
        let mut c = Core::new(Xlen::Rv32, CostModel::ri5cy());
        c.decode_entries = DECODE_CACHE_ENTRIES_RI5CY;
        c.xpulp = true;
        c.csrs = CsrFile::new(hartid);
        c.stats_name = format!("core{hartid}");
        c.track = Track::ClusterCore(hartid as u8);
        c
    }

    /// Power-on reset back to the [`Core::ri5cy`] state, recycling the
    /// decoded-instruction cache's backing storage. The storage is the
    /// largest allocation a core owns, and filling a fresh one with dead
    /// entries is the dominant cost of constructing a core; reusing it
    /// makes team launch after the first near-free. Stale entries are left
    /// in place but made unmatchable by continuing the generation counter
    /// past every generation they were installed under, so a recycled core
    /// takes the exact decode-miss/install path — and produces the exact
    /// counters — of a factory-fresh one.
    pub fn reset_ri5cy(&mut self, hartid: u64) {
        let cache = self.decode_cache.take();
        let gen = self.decode_gen;
        *self = Core::ri5cy(hartid);
        if let Some(cache) = cache {
            if cache.len() == self.decode_entries {
                self.decode_cache = Some(cache);
                self.decode_gen = gen + 1;
            }
        }
    }

    /// Enables or disables the Xpulp extension surface.
    pub fn set_xpulp(&mut self, enabled: bool) {
        self.xpulp = enabled;
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter (e.g. to an entry point).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Reads an integer register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.x[r.index() as usize]
    }

    /// Writes an integer register (`zero` stays zero; RV32 masks to 32 bits).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        // Branchless: store, then re-pin x0 to zero. Cheaper on the retire
        // path than branching on `r == zero` and on the XLEN.
        let mask = match self.xlen {
            Xlen::Rv32 => 0xFFFF_FFFF,
            Xlen::Rv64 => u64::MAX,
        };
        self.x[r.index() as usize] = v & mask;
        self.x[0] = 0;
    }

    /// Reads a floating-point register's raw bits.
    pub fn freg(&self, r: FReg) -> u64 {
        self.f[r.0 as usize]
    }

    /// Writes a floating-point register's raw bits.
    pub fn set_freg(&mut self, r: FReg, v: u64) {
        self.f[r.0 as usize] = v;
    }

    /// Total cycles consumed so far.
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Whether the core has executed `ebreak`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Clears the halt flag (to resume after inspection).
    pub fn resume(&mut self) {
        self.halted = false;
    }

    /// Current privilege mode.
    pub fn priv_mode(&self) -> PrivMode {
        self.priv_mode
    }

    /// Sets the privilege mode (used by loaders that enter S or U mode).
    pub fn set_priv_mode(&mut self, mode: PrivMode) {
        self.priv_mode = mode;
    }

    /// The CSR file.
    pub fn csrs(&self) -> &CsrFile {
        &self.csrs
    }

    /// Mutable CSR access (test and firmware setup).
    pub fn csrs_mut(&mut self) -> &mut CsrFile {
        &mut self.csrs
    }

    /// Activity counters: `instret`, `arith_ops` (GOps-weighted), `loads`,
    /// `stores`, `taken_branches`, `mem_stall_cycles`, plus the
    /// simulator's own fast-path counters (`decode_hits`, `decode_misses`,
    /// `decode_invalidations`, `itlb_hits`, `itlb_misses`).
    ///
    /// The hot loop keeps counters as plain fields (a `Stats` bump costs a
    /// B-tree lookup and a key allocation per instruction); this
    /// materializes them into a registry on demand. Counters that are zero
    /// are omitted, matching the lazily-populated registry the interpreter
    /// previously updated in place — except the decode-cache trio, which
    /// is always present so metrics exports carry the fast-path story even
    /// for all-miss ablation runs.
    pub fn stats(&self) -> Stats {
        let c = &self.counters;
        let mut s = Stats::new(self.stats_name.clone());
        for (k, v) in [
            ("instret", self.instret),
            ("arith_ops", c.arith_ops),
            ("loads", c.loads),
            ("stores", c.stores),
            ("taken_branches", c.taken_branches),
            ("mem_stall_cycles", c.mem_stall_cycles),
            ("simd_insts", c.simd_insts),
            ("fp_insts", c.fp_insts),
            ("interrupts", c.interrupts),
            ("traps", c.traps),
            ("hwloop_iters", c.hwloop_iters),
            ("itlb_hits", c.itlb_hits),
            ("itlb_misses", c.itlb_misses),
            ("sb_instrs_retired", c.sb_instrs_retired),
        ] {
            if v != 0 {
                s.set(k, v);
            }
        }
        s.set("decode_hits", c.decode_hits);
        s.set("decode_misses", c.decode_misses);
        s.set("decode_invalidations", c.decode_invalidations);
        s
    }

    /// FNV-1a digest of the complete architectural state: PC, privilege
    /// mode, integer and FP register files, the LR/SC reservation, Xpulp
    /// hardware-loop state, the halt flag, and the CSR file (via
    /// [`CsrFile::digest`]). Microarchitectural bookkeeping — decode cache,
    /// µTLB, counters, the CSR mutation version — is deliberately excluded:
    /// the lockstep co-simulation driver compares this digest between a
    /// fast-path and a reference run, which must agree on architecture while
    /// differing freely in simulator internals. Cycle and instret counts
    /// are also excluded; the driver compares those separately so a timing
    /// divergence is reported as such rather than as a state mismatch.
    pub fn state_digest(&self) -> u64 {
        let mut h = hulkv_sim::Fnv64::new();
        h.write_u64(self.pc)
            .write_u64(self.priv_mode as u64)
            .write_u64(u64::from(self.halted));
        for v in self.x.iter().chain(self.f.iter()) {
            h.write_u64(*v);
        }
        h.write_u64(
            self.reservation
                .map_or(u64::MAX, |r| r ^ 0x5555_5555_5555_5555),
        );
        for l in &self.hwloops {
            h.write_u64(l.start).write_u64(l.end).write_u64(l.count);
        }
        h.write_u64(self.csrs.digest());
        h.finish()
    }

    /// Serializes the complete core state: architectural (PC, register
    /// files, CSRs, privilege, hardware loops, LR/SC reservation, halt
    /// flag), timing (cycles, instret), activity counters, the HPM offset
    /// group, and the microarchitectural fast-path state — live
    /// decoded-instruction-cache entries, the fetch µTLB and the
    /// MMU/interrupt revalidation caches.
    ///
    /// The microarchitectural state is serialized *exactly* rather than
    /// invalidated on restore: the `decode_hits`/`decode_misses`/`itlb_*`
    /// counters are part of the core's [`Stats`], so a restore that cleared
    /// the decode cache would make a resumed run's statistics diverge from
    /// the straight-line run it is replaying. Observability attachments
    /// (trace ring, tracer, profiler) are deliberately excluded — they are
    /// host-side instrumentation, not machine state.
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::hex;
        use hulkv_sim::Json;
        let mut regs = Vec::with_capacity(64 * 8);
        for v in self.x.iter().chain(self.f.iter()) {
            regs.extend_from_slice(&v.to_le_bytes());
        }
        let regs = snap.push_blob(&regs);
        let c = &self.counters;
        let counters = Json::obj([
            ("arith_ops", hex(c.arith_ops)),
            ("loads", hex(c.loads)),
            ("stores", hex(c.stores)),
            ("taken_branches", hex(c.taken_branches)),
            ("mem_stall_cycles", hex(c.mem_stall_cycles)),
            ("simd_insts", hex(c.simd_insts)),
            ("fp_insts", hex(c.fp_insts)),
            ("interrupts", hex(c.interrupts)),
            ("traps", hex(c.traps)),
            ("hwloop_iters", hex(c.hwloop_iters)),
            ("decode_hits", hex(c.decode_hits)),
            ("decode_misses", hex(c.decode_misses)),
            ("decode_invalidations", hex(c.decode_invalidations)),
            ("itlb_hits", hex(c.itlb_hits)),
            ("itlb_misses", hex(c.itlb_misses)),
            ("sb_instrs_retired", hex(c.sb_instrs_retired)),
        ]);
        let hpm = Json::Arr(
            self.hpm
                .iter()
                .map(|h| Json::obj([("offset", hex(h.offset)), ("frozen", hex(h.frozen))]))
                .collect(),
        );
        let hwloops = Json::Arr(
            self.hwloops
                .iter()
                .map(|l| {
                    Json::obj([
                        ("start", hex(l.start)),
                        ("end", hex(l.end)),
                        ("count", hex(l.count)),
                    ])
                })
                .collect(),
        );
        // Live decoded entries, packed binary. `inst` is not serialized:
        // it is a pure function of `word` and the core's ISA surface, so
        // restore re-derives it — the snapshot stays ISA-agnostic bytes.
        let mut packed = Vec::new();
        let mut live = 0u64;
        if let Some(cache) = &self.decode_cache {
            for (slot, e) in cache.iter().enumerate() {
                if e.gen != self.decode_gen {
                    continue;
                }
                packed.extend_from_slice(&(slot as u32).to_le_bytes());
                packed.extend_from_slice(&e.va.to_le_bytes());
                packed.extend_from_slice(&e.pa.to_le_bytes());
                packed.extend_from_slice(&e.version.to_le_bytes());
                packed.extend_from_slice(&e.epoch.to_le_bytes());
                packed.extend_from_slice(&e.word.to_le_bytes());
                packed.extend_from_slice(&[e.ilen, e.cost, e.mode.bits() as u8, u8::from(e.paged)]);
                live += 1;
            }
        }
        let decode_entries = snap.push_blob(&packed);
        Json::obj([
            ("pc", hex(self.pc)),
            ("regs", regs),
            ("csrs", self.csrs.snapshot_json()),
            ("priv", hex(self.priv_mode.bits())),
            ("hwloops", hwloops),
            ("reservation", self.reservation.map_or(Json::Null, hex)),
            ("cycles", hex(self.cycles.get())),
            ("instret", hex(self.instret)),
            ("halted", Json::Bool(self.halted)),
            ("counters", counters),
            ("hpm", hpm),
            ("decode_enabled", Json::Bool(self.decode_enabled)),
            ("decode_gen", hex(self.decode_gen)),
            ("code_lo", hex(self.code_lo)),
            ("code_hi", hex(self.code_hi)),
            ("decode_count", hex(live)),
            ("decode_entries", decode_entries),
            ("sb_enabled", Json::Bool(self.sb_enabled)),
            (
                "itlb",
                Json::obj([
                    ("valid", Json::Bool(self.itlb.valid)),
                    ("page", hex(self.itlb.page)),
                    ("base", hex(self.itlb.base)),
                    ("version", hex(self.itlb.version)),
                    ("mode", hex(self.itlb.mode.bits())),
                ]),
            ),
            (
                "mmu",
                Json::obj([
                    ("version", hex(self.mmu_cache.version)),
                    ("mode", hex(self.mmu_cache.mode.bits())),
                    ("satp", hex(self.mmu_cache.satp)),
                    ("active", Json::Bool(self.mmu_cache.active)),
                ]),
            ),
            (
                "irq",
                Json::obj([
                    ("version", hex(self.irq_cache.version)),
                    ("mode", hex(self.irq_cache.mode.bits())),
                    ("takeable", self.irq_cache.takeable.map_or(Json::Null, hex)),
                ]),
            ),
        ])
    }

    /// Restores state written by [`Core::snapshot_into`] into a core built
    /// by the same constructor (ISA surface and cost model are not
    /// serialized). After restore, [`Core::state_digest`], timing and every
    /// counter match the snapshotted core exactly.
    ///
    /// # Errors
    ///
    /// On a malformed section, or when a decoded entry's instruction word
    /// no longer decodes under this core's ISA surface (a constructor
    /// mismatch).
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        use hulkv_sim::snap::{get, get_arr, get_bool, get_u64, unhex, SnapError};
        use hulkv_sim::Json;
        let regs = snap.blob(get(j, "regs")?)?;
        if regs.len() != 64 * 8 {
            return Err(SnapError::msg(format!(
                "core register blob is {} bytes, expected {}",
                regs.len(),
                64 * 8
            )));
        }
        for (i, r) in regs.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(r.try_into().expect("8 bytes"));
            if i < 32 {
                self.x[i] = v;
            } else {
                self.f[i - 32] = v;
            }
        }
        self.pc = get_u64(j, "pc")?;
        self.csrs.restore_json(get(j, "csrs")?)?;
        self.priv_mode = PrivMode::from_bits(get_u64(j, "priv")?);
        let hwloops = get_arr(j, "hwloops")?;
        if hwloops.len() != self.hwloops.len() {
            return Err(SnapError::msg("hwloop count mismatch"));
        }
        for (l, h) in self.hwloops.iter_mut().zip(hwloops) {
            l.start = get_u64(h, "start")?;
            l.end = get_u64(h, "end")?;
            l.count = get_u64(h, "count")?;
        }
        self.reservation = match get(j, "reservation")? {
            Json::Null => None,
            v => Some(unhex(v)?),
        };
        self.cycles = Cycles::new(get_u64(j, "cycles")?);
        self.instret = get_u64(j, "instret")?;
        self.halted = get_bool(j, "halted")?;
        let c = get(j, "counters")?;
        // `sb_instrs_retired` is optional so pre-superblock snapshots
        // still restore. Snapshots from the retired block engine also
        // carry `sb_hits`, `sb_chain_follows`, `sb_invalidations` and the
        // core keys `sb_count`, `sb_blocks` and `sb_resume`; none of them
        // is read.
        let opt_u64 = |c: &Json, key: &str| c.get(key).map_or(Ok(0), unhex);
        self.counters = CoreCounters {
            arith_ops: get_u64(c, "arith_ops")?,
            loads: get_u64(c, "loads")?,
            stores: get_u64(c, "stores")?,
            taken_branches: get_u64(c, "taken_branches")?,
            mem_stall_cycles: get_u64(c, "mem_stall_cycles")?,
            simd_insts: get_u64(c, "simd_insts")?,
            fp_insts: get_u64(c, "fp_insts")?,
            interrupts: get_u64(c, "interrupts")?,
            traps: get_u64(c, "traps")?,
            hwloop_iters: get_u64(c, "hwloop_iters")?,
            decode_hits: get_u64(c, "decode_hits")?,
            decode_misses: get_u64(c, "decode_misses")?,
            decode_invalidations: get_u64(c, "decode_invalidations")?,
            itlb_hits: get_u64(c, "itlb_hits")?,
            itlb_misses: get_u64(c, "itlb_misses")?,
            sb_instrs_retired: opt_u64(c, "sb_instrs_retired")?,
        };
        let hpm = get_arr(j, "hpm")?;
        if hpm.len() != self.hpm.len() {
            return Err(SnapError::msg("HPM counter count mismatch"));
        }
        for (slot, h) in self.hpm.iter_mut().zip(hpm) {
            slot.offset = get_u64(h, "offset")?;
            slot.frozen = get_u64(h, "frozen")?;
        }
        self.decode_enabled = get_bool(j, "decode_enabled")?;
        self.decode_gen = get_u64(j, "decode_gen")?;
        self.code_lo = get_u64(j, "code_lo")?;
        self.code_hi = get_u64(j, "code_hi")?;
        let live = get_u64(j, "decode_count")?;
        let packed = snap.blob(get(j, "decode_entries")?)?;
        const REC: usize = 4 + 8 + 8 + 8 + 8 + 4 + 4;
        let need = usize::try_from(live).ok().and_then(|n| n.checked_mul(REC));
        if need != Some(packed.len()) {
            return Err(SnapError::msg(format!(
                "decode-cache blob is {} bytes, {live} entries need {REC} each",
                packed.len()
            )));
        }
        self.decode_cache = if live == 0 {
            None
        } else {
            let mut cache = vec![DecodedEntry::DEAD; self.decode_entries].into_boxed_slice();
            for r in packed.chunks_exact(REC) {
                let u32_at = |o: usize| u32::from_le_bytes(r[o..o + 4].try_into().expect("4"));
                let u64_at = |o: usize| u64::from_le_bytes(r[o..o + 8].try_into().expect("8"));
                let slot = u32_at(0) as usize;
                if slot >= self.decode_entries {
                    return Err(SnapError::msg(format!("decode slot {slot} out of range")));
                }
                let word = u32_at(36);
                let (ilen, cost, mode, paged) = (r[40], r[41], r[42], r[43]);
                let inst = if word & 3 != 3 {
                    crate::compressed::expand(word as u16, self.xlen)
                } else {
                    decode(word, self.xlen, self.xpulp)
                };
                let Some(inst) = inst else {
                    return Err(SnapError::msg(format!(
                        "decoded entry word {word:#010x} does not decode — \
                         snapshot from a different ISA surface?"
                    )));
                };
                cache[slot] = DecodedEntry {
                    va: u64_at(4),
                    pa: u64_at(12),
                    gen: self.decode_gen,
                    version: u64_at(20),
                    epoch: u64_at(28),
                    word,
                    ilen,
                    cost,
                    mode: PrivMode::from_bits(u64::from(mode)),
                    paged: paged != 0,
                    inst,
                };
            }
            Some(cache)
        };
        if let Some(e) = j.get("sb_enabled") {
            self.sb_enabled = matches!(e, Json::Bool(true));
        }
        let itlb = get(j, "itlb")?;
        self.itlb = FetchTlb {
            valid: get_bool(itlb, "valid")?,
            page: get_u64(itlb, "page")?,
            base: get_u64(itlb, "base")?,
            version: get_u64(itlb, "version")?,
            mode: PrivMode::from_bits(get_u64(itlb, "mode")?),
        };
        let mmu = get(j, "mmu")?;
        self.mmu_cache = MmuCache {
            version: get_u64(mmu, "version")?,
            mode: PrivMode::from_bits(get_u64(mmu, "mode")?),
            satp: get_u64(mmu, "satp")?,
            active: get_bool(mmu, "active")?,
        };
        let irq = get(j, "irq")?;
        self.irq_cache = IrqCache {
            version: get_u64(irq, "version")?,
            mode: PrivMode::from_bits(get_u64(irq, "mode")?),
            takeable: match get(irq, "takeable")? {
                Json::Null => None,
                v => Some(unhex(v)?),
            },
        };
        Ok(())
    }

    /// Enables or disables the decoded-instruction cache and fetch µTLB
    /// fast path (the ablation knob). Timing, architectural state and
    /// memory-system statistics are bit-identical either way; only
    /// wall-clock simulation speed and the `decode_*`/`itlb_*` counters
    /// change. Default: enabled.
    pub fn set_decode_cache(&mut self, enabled: bool) {
        if self.decode_enabled != enabled {
            self.decode_enabled = enabled;
            self.drop_decoded();
        }
    }

    /// Whether the decoded-instruction fast path is active.
    pub fn decode_cache_enabled(&self) -> bool {
        self.decode_enabled
    }

    /// Drops every decoded entry and the fetch µTLB without counting an
    /// architectural invalidation (configuration changes).
    fn drop_decoded(&mut self) {
        self.decode_gen += 1;
        self.itlb.valid = false;
        self.code_lo = u64::MAX;
        self.code_hi = 0;
    }

    /// Invalidates the decoded-instruction cache and fetch µTLB — the
    /// `fence.i` / store-to-cached-code / program-reload path. Ticks the
    /// `decode_invalidations` counter and emits a [`TraceEvent::DecodeCache`]
    /// sample when a tracer is attached.
    pub fn invalidate_decoded(&mut self) {
        self.drop_decoded();
        self.counters.decode_invalidations += 1;
        self.trace_decode_counters();
    }

    /// Selects how [`Core::run`] and [`Core::run_until_cycle`] drive the
    /// core: `true` (the default) replays decode-cache slots inline in
    /// [`Core::run_loop`], `false` runs the plain [`Core::step`] loop. The
    /// step loop is also the inline loop's fallback path and the
    /// decode-on reference for tests. Both are exact: cycles,
    /// architectural state and every counter except `sb_instrs_retired`
    /// are bit-identical either way. The inline loop runs on the CVA6 and
    /// on RI5CY cores alike, and is inert while the decode cache is off or
    /// any observability hook is attached.
    pub fn set_superblocks(&mut self, enabled: bool) {
        self.sb_enabled = enabled;
    }

    fn trace_decode_counters(&mut self) {
        if let Some(t) = &self.tracer {
            let mut t = t.borrow_mut();
            t.set_now(self.trace_base + self.cycles.get());
            t.record(
                self.track,
                TraceEvent::DecodeCache {
                    hits: self.counters.decode_hits,
                    misses: self.counters.decode_misses,
                    invalidations: self.counters.decode_invalidations,
                },
            );
        }
    }

    /// Enables execution tracing, keeping the last `capacity` retired
    /// instructions in a ring buffer (tracing slows simulation; leave off
    /// for benchmarking).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(std::collections::VecDeque::with_capacity(capacity));
        self.trace_capacity = capacity.max(1);
        self.refresh_observe();
    }

    /// The trace ring buffer, oldest first (empty when tracing is off).
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.trace
            .as_ref()
            .map(|t| t.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Renders the trace as disassembly, one instruction per line.
    pub fn trace_disassembly(&self) -> String {
        self.trace()
            .iter()
            .map(|e| format!("{:#010x}: {}\n", e.pc, crate::disasm::disassemble(&e.inst)))
            .collect()
    }

    /// Attaches a structured SoC tracer: retired instructions (and taken
    /// interrupts) are recorded on this core's track, stamped relative to
    /// the tracer's global clock at attach time.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.trace_base = tracer.borrow().now();
        self.tracer = Some(tracer);
        self.refresh_observe();
    }

    /// Detaches the structured tracer (instrumentation back to one branch).
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
        self.refresh_observe();
    }

    /// The track this core's trace events are recorded on.
    pub fn track(&self) -> Track {
        self.track
    }

    /// Enables per-PC cycle profiling on the commit path.
    pub fn enable_profile(&mut self) {
        self.profile = Some(PcProfile::new());
        self.refresh_observe();
    }

    /// The per-PC cycle histogram (`None` until [`Core::enable_profile`]).
    pub fn profile(&self) -> Option<&PcProfile> {
        self.profile.as_ref()
    }

    /// Takes the per-PC histogram out of the core, leaving profiling off.
    pub fn take_profile(&mut self) -> Option<PcProfile> {
        let p = self.profile.take();
        self.refresh_observe();
        p
    }

    fn refresh_observe(&mut self) {
        self.observe = self.trace.is_some() || self.tracer.is_some() || self.profile.is_some();
    }

    /// Resets cycle/instruction/activity counters (not architectural state).
    pub fn reset_counters(&mut self) {
        self.cycles = Cycles::ZERO;
        self.instret = 0;
        self.counters = CoreCounters::default();
    }

    fn sval(&self, r: Reg) -> i64 {
        let v = self.reg(r);
        match self.xlen {
            Xlen::Rv32 => v as u32 as i32 as i64,
            Xlen::Rv64 => v as i64,
        }
    }

    fn shamt_mask(&self) -> u32 {
        self.xlen.bits() - 1
    }

    fn read_f32(&self, r: FReg) -> f32 {
        f32::from_bits(self.f[r.0 as usize] as u32)
    }

    fn write_f32(&mut self, r: FReg, v: f32) {
        // NaN-box single-precision values in the 64-bit register.
        self.f[r.0 as usize] = 0xFFFF_FFFF_0000_0000 | v.to_bits() as u64;
    }

    fn read_f64(&self, r: FReg) -> f64 {
        f64::from_bits(self.f[r.0 as usize])
    }

    fn write_f64(&mut self, r: FReg, v: f64) {
        self.f[r.0 as usize] = v.to_bits();
    }

    /// Raises a synchronous trap: redirects through `mtvec` when installed,
    /// otherwise aborts the simulation with a descriptive error.
    fn raise(&mut self, cause: TrapCause, tval: u64) -> Result<(), RvError> {
        if self.csrs.read(addr::MTVEC) != 0 {
            let prev = self.priv_mode;
            self.pc = self.csrs.enter_trap_m(cause, self.pc, tval, prev);
            self.priv_mode = PrivMode::Machine;
            self.counters.traps += 1;
            return Ok(());
        }
        Err(match cause {
            TrapCause::IllegalInstruction => RvError::IllegalInstruction {
                pc: self.pc,
                word: tval as u32,
            },
            TrapCause::InstPageFault | TrapCause::LoadPageFault | TrapCause::StorePageFault => {
                RvError::PageFault { vaddr: tval }
            }
            _ => RvError::Memory {
                addr: tval,
                cause: format!("unhandled trap {cause:?}"),
            },
        })
    }

    /// Refreshes the cached `satp`/paging-mode view when the CSR file or
    /// privilege mode has changed since the last look.
    #[inline]
    fn mmu_refresh(&mut self) {
        let v = self.csrs.version();
        if self.mmu_cache.version != v || self.mmu_cache.mode != self.priv_mode {
            let satp = self.csrs.satp();
            self.mmu_cache = MmuCache {
                version: v,
                mode: self.priv_mode,
                satp,
                active: mmu::sv39_active(satp, self.priv_mode),
            };
        }
    }

    /// Translates a virtual address, charging PTE-walk memory time.
    fn translate<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        vaddr: u64,
        kind: AccessKind,
        extra: &mut Cycles,
    ) -> Result<u64, WalkFault> {
        self.mmu_refresh();
        if !self.mmu_cache.active {
            return Ok(vaddr);
        }
        let satp = self.mmu_cache.satp;
        let mut walk_cycles = Cycles::ZERO;
        let pa = mmu::translate_sv39(vaddr, satp, kind, self.priv_mode, |pte_addr| {
            let mut b = [0u8; 8];
            match bus.load(pte_addr, &mut b) {
                Ok(lat) => {
                    walk_cycles += lat;
                    Ok(u64::from_le_bytes(b))
                }
                Err(_) => Err(WalkFault::AccessFault),
            }
        })?;
        *extra += walk_cycles;
        Ok(pa)
    }

    /// Translates a data access, splitting it at a 4 KiB page boundary when
    /// Sv39 is active: each page translates (and can fault) independently,
    /// and a fault reports the virtual address of the first byte *on the
    /// faulting page* — not the base address of the access. Both
    /// translations resolve before the caller touches memory, so a store
    /// whose second page faults commits nothing.
    ///
    /// Returns `(pa, split)`: `split` is `Some((first_len, second_pa))`
    /// when the access straddles a boundary and must be issued as two bus
    /// transactions.
    ///
    /// Bare mode returns the identity mapping right away; only the Sv39
    /// half is out of line, so every load and store in bare mode pays
    /// just the `mmu_refresh` stamp check.
    #[inline(always)]
    fn translate_span<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        vaddr: u64,
        len: usize,
        kind: AccessKind,
        extra: &mut Cycles,
    ) -> Result<(u64, Option<(usize, u64)>), RvError> {
        self.mmu_refresh();
        if !self.mmu_cache.active {
            return Ok((vaddr, None));
        }
        self.translate_span_sv39(bus, vaddr, len, kind, extra)
    }

    /// The Sv39 half of [`Core::translate_span`].
    #[inline(never)]
    fn translate_span_sv39<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        vaddr: u64,
        len: usize,
        kind: AccessKind,
        extra: &mut Cycles,
    ) -> Result<(u64, Option<(usize, u64)>), RvError> {
        let cause = match kind {
            AccessKind::Store => TrapCause::StorePageFault,
            _ => TrapCause::LoadPageFault,
        };
        let straddles = (vaddr & 0xFFF) + len as u64 > 0x1000;
        let pa = match self.translate(bus, vaddr, kind, extra) {
            Ok(pa) => pa,
            Err(_) => {
                self.raise(cause, vaddr)?;
                return Err(RvError::TrapTaken);
            }
        };
        if !straddles {
            return Ok((pa, None));
        }
        let first_len = (0x1000 - (vaddr & 0xFFF)) as usize;
        let second_va = (vaddr & !0xFFF).wrapping_add(0x1000);
        let second_pa = match self.translate(bus, second_va, kind, extra) {
            Ok(pa) => pa,
            Err(_) => {
                self.raise(cause, second_va)?;
                return Err(RvError::TrapTaken);
            }
        };
        Ok((pa, Some((first_len, second_pa))))
    }

    /// Records a [`TraceEvent::Misaligned`] when a tracer is attached and
    /// the access is not naturally aligned — purely observational (the
    /// model executes misaligned accesses), and free when no tracer is
    /// attached. This is the dynamic confirmation signal for the static
    /// analyzer's misalignment findings.
    #[inline]
    fn trace_misaligned(&mut self, vaddr: u64, len: usize) {
        if let Some(t) = &self.tracer {
            if len > 1 && vaddr & (len as u64 - 1) != 0 {
                let mut t = t.borrow_mut();
                t.set_now(self.trace_base + self.cycles.get());
                t.record(
                    self.track,
                    TraceEvent::Misaligned {
                        pc: self.pc,
                        addr: vaddr,
                        bytes: len as u32,
                    },
                );
            }
        }
    }

    #[inline]
    fn mem_load<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        vaddr: u64,
        buf: &mut [u8],
        extra: &mut Cycles,
    ) -> Result<(), RvError> {
        self.trace_misaligned(vaddr, buf.len());
        let (pa, split) = self.translate_span(bus, vaddr, buf.len(), AccessKind::Load, extra)?;
        match split {
            None => *extra += bus.load(pa, buf).map_err(|e| mem_error(pa, e))?,
            Some((first_len, second_pa)) => {
                let (lo, hi) = buf.split_at_mut(first_len);
                for (seg_pa, seg) in [(pa, lo), (second_pa, hi)] {
                    *extra += bus.load(seg_pa, seg).map_err(|e| mem_error(seg_pa, e))?;
                }
            }
        }
        self.counters.loads += 1;
        Ok(())
    }

    /// One physically-contiguous store segment: the bus write plus the
    /// coarse self-modifying-code filter — a store overlapping the PA
    /// range the decode cache has installed entries for drops the whole
    /// cache (single range compare per store; exact invalidation is the
    /// rare case and handled by the generation bump).
    #[inline]
    fn store_segment<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        pa: u64,
        data: &[u8],
        extra: &mut Cycles,
    ) -> Result<(), RvError> {
        *extra += bus.store(pa, data).map_err(|e| mem_error(pa, e))?;
        if self.overlaps_code(pa, data.len()) {
            self.invalidate_decoded();
        }
        Ok(())
    }

    /// Whether `len` bytes at physical address `pa` overlap the range the
    /// decode cache has installed entries for.
    #[inline(always)]
    fn overlaps_code(&self, pa: u64, len: usize) -> bool {
        pa < self.code_hi && pa.saturating_add(len as u64) > self.code_lo
    }

    #[inline]
    fn mem_store<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        vaddr: u64,
        data: &[u8],
        extra: &mut Cycles,
    ) -> Result<(), RvError> {
        self.trace_misaligned(vaddr, data.len());
        let (pa, split) = self.translate_span(bus, vaddr, data.len(), AccessKind::Store, extra)?;
        match split {
            None => self.store_segment(bus, pa, data, extra)?,
            Some((first_len, second_pa)) => {
                self.store_segment(bus, pa, &data[..first_len], extra)?;
                self.store_segment(bus, second_pa, &data[first_len..], extra)?;
            }
        }
        self.counters.stores += 1;
        Ok(())
    }

    #[inline]
    fn load_int<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        vaddr: u64,
        width: LoadWidth,
        extra: &mut Cycles,
    ) -> Result<u64, RvError> {
        let mut b = [0u8; 8];
        let n = width.bytes();
        self.mem_load(bus, vaddr, &mut b[..n], extra)?;
        Ok(extend_load(width, u64::from_le_bytes(b)))
    }

    /// A bare-mode integer load, store or post-increment access retired
    /// by [`Core::run_loop`] without [`Core::execute`]: one fixed-width
    /// bus access with exactly the register writes, counters and errors
    /// `execute` produces (no translation, no page split, no tracer).
    /// Returns the access's stall cycles, or `Ok(None)` with no side
    /// effect for an entry that must go through `execute`, including a
    /// store that overlaps cached code, so SMC invalidation keeps one
    /// path.
    #[inline(always)]
    fn inline_mem<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        inst: &Inst,
    ) -> Result<Option<u64>, RvError> {
        let stall = match *inst {
            Inst::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                let (v, stall) = bus_load_int(bus, addr, width)?;
                self.set_reg(rd, v);
                self.counters.loads += 1;
                stall
            }
            Inst::LoadPost {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                let (v, stall) = bus_load_int(bus, addr, width)?;
                self.set_reg(rs1, addr.wrapping_add(offset as u64));
                self.set_reg(rd, v);
                self.counters.loads += 1;
                stall
            }
            Inst::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if self.overlaps_code(addr, width.bytes()) {
                    return Ok(None);
                }
                let stall = bus_store_int(bus, addr, width, self.reg(rs2))?;
                self.counters.stores += 1;
                stall
            }
            Inst::StorePost {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1);
                if self.overlaps_code(addr, width.bytes()) {
                    return Ok(None);
                }
                let stall = bus_store_int(bus, addr, width, self.reg(rs2))?;
                self.set_reg(rs1, addr.wrapping_add(offset as u64));
                self.counters.stores += 1;
                stall
            }
            _ => return Ok(None),
        };
        self.counters.mem_stall_cycles += stall.get();
        Ok(Some(stall.get()))
    }

    fn alu(&self, op: AluOp, a: u64, b: u64) -> u64 {
        let sh = (b as u32) & self.shamt_mask();
        match (op, self.xlen) {
            (AluOp::Add, _) => a.wrapping_add(b),
            (AluOp::Sub, _) => a.wrapping_sub(b),
            (AluOp::And, _) => a & b,
            (AluOp::Or, _) => a | b,
            (AluOp::Xor, _) => a ^ b,
            (AluOp::Sll, _) => a << sh,
            (AluOp::Srl, Xlen::Rv32) => ((a as u32) >> sh) as u64,
            (AluOp::Srl, Xlen::Rv64) => a >> sh,
            (AluOp::Sra, Xlen::Rv32) => ((a as u32 as i32) >> sh) as u32 as u64,
            (AluOp::Sra, Xlen::Rv64) => ((a as i64) >> sh) as u64,
            (AluOp::Slt, Xlen::Rv32) => ((a as u32 as i32) < (b as u32 as i32)) as u64,
            (AluOp::Slt, Xlen::Rv64) => ((a as i64) < (b as i64)) as u64,
            (AluOp::Sltu, Xlen::Rv32) => ((a as u32) < (b as u32)) as u64,
            (AluOp::Sltu, Xlen::Rv64) => (a < b) as u64,
        }
    }

    fn alu32(op: AluOp, a: u64, b: u64) -> u64 {
        let a = a as u32;
        let b = b as u32;
        let sh = b & 31;
        let r = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a << sh,
            AluOp::Srl => a >> sh,
            AluOp::Sra => ((a as i32) >> sh) as u32,
            _ => unreachable!("no 32-bit variant for {op:?}"),
        };
        r as i32 as i64 as u64
    }

    fn muldiv(&self, op: MulDivOp, a: u64, b: u64) -> u64 {
        match self.xlen {
            Xlen::Rv64 => {
                let sa = a as i64;
                let sb = b as i64;
                match op {
                    MulDivOp::Mul => a.wrapping_mul(b),
                    MulDivOp::Mulh => ((sa as i128 * sb as i128) >> 64) as u64,
                    MulDivOp::Mulhsu => ((sa as i128 * b as u128 as i128) >> 64) as u64,
                    MulDivOp::Mulhu => ((a as u128 * b as u128) >> 64) as u64,
                    // `checked_div`/`checked_rem` return `None` exactly on
                    // the two cases the ISA defines specially: divide by
                    // zero (quotient all-ones, remainder = dividend) and
                    // signed overflow MIN/-1 (quotient MIN = the dividend,
                    // remainder 0).
                    MulDivOp::Div => sa
                        .checked_div(sb)
                        .map_or(if sb == 0 { u64::MAX } else { a }, |v| v as u64),
                    MulDivOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
                    MulDivOp::Rem => sa
                        .checked_rem(sb)
                        .map_or(if sb == 0 { a } else { 0 }, |v| v as u64),
                    MulDivOp::Remu => a.checked_rem(b).unwrap_or(a),
                }
            }
            Xlen::Rv32 => {
                let ua = a as u32;
                let ub = b as u32;
                let sa = ua as i32;
                let sb = ub as i32;
                let r: u32 = match op {
                    MulDivOp::Mul => ua.wrapping_mul(ub),
                    MulDivOp::Mulh => ((sa as i64 * sb as i64) >> 32) as u32,
                    MulDivOp::Mulhsu => ((sa as i64 * ub as i64) >> 32) as u32,
                    MulDivOp::Mulhu => ((ua as u64 * ub as u64) >> 32) as u32,
                    MulDivOp::Div => sa
                        .checked_div(sb)
                        .map_or(if sb == 0 { u32::MAX } else { ua }, |v| v as u32),
                    MulDivOp::Divu => ua.checked_div(ub).unwrap_or(u32::MAX),
                    MulDivOp::Rem => sa
                        .checked_rem(sb)
                        .map_or(if sb == 0 { ua } else { 0 }, |v| v as u32),
                    MulDivOp::Remu => ua.checked_rem(ub).unwrap_or(ua),
                };
                r as u64
            }
        }
    }

    fn csr_read(&self, csr: u16) -> u64 {
        match csr {
            addr::CYCLE | addr::MCYCLE | addr::TIME => self.cycles.get(),
            addr::INSTRET | addr::MINSTRET => self.instret,
            _ => self.csrs.read(csr),
        }
    }

    /// Running total of the event behind `sel` — the core's own activity
    /// counters, or the bus statistics for memory-system events. These are
    /// exactly the values [`Core::stats`] and the block `Stats` registries
    /// report, which is what makes guest HPM reads equal the simulator's
    /// own numbers.
    fn hpm_event_total<B: CoreBus + ?Sized>(&self, bus: &B, sel: u64) -> u64 {
        let c = &self.counters;
        match HpmEvent::from_selector(sel) {
            HpmEvent::None => 0,
            HpmEvent::IcacheMiss => bus.hpm_icache_misses(),
            HpmEvent::DcacheMiss => bus.hpm_dcache_misses(),
            HpmEvent::ItlbMiss => c.itlb_misses,
            HpmEvent::DecodeHit => c.decode_hits,
            HpmEvent::DecodeMiss => c.decode_misses,
            HpmEvent::MemStall => c.mem_stall_cycles,
            HpmEvent::TakenBranch => c.taken_branches,
            HpmEvent::Trap => c.traps,
            HpmEvent::Load => c.loads,
            HpmEvent::Store => c.stores,
            HpmEvent::Interrupt => c.interrupts,
            HpmEvent::HwLoopIter => c.hwloop_iters,
            HpmEvent::ConflictStall => bus.hpm_conflict_stalls(),
        }
    }

    fn hpm_inhibited(&self, i: u16) -> bool {
        self.csrs.read(addr::MCOUNTINHIBIT) >> (3 + i) & 1 == 1
    }

    /// Live value of HPM counter `i` (index 0 is `mhpmcounter3`).
    fn hpm_counter_read<B: CoreBus + ?Sized>(&self, bus: &B, i: u16) -> u64 {
        let slot = self.hpm[i as usize];
        if self.hpm_inhibited(i) {
            return slot.frozen;
        }
        let sel = self.csrs.read(addr::MHPMEVENT3 + i);
        self.hpm_event_total(bus, sel).wrapping_sub(slot.offset)
    }

    /// Writes HPM counter `i` by re-anchoring its offset (or updating the
    /// latched value while inhibited), so the counter continues from `v`.
    fn hpm_counter_write<B: CoreBus + ?Sized>(&mut self, bus: &B, i: u16, v: u64) {
        if self.hpm_inhibited(i) {
            self.hpm[i as usize].frozen = v;
            return;
        }
        let sel = self.csrs.read(addr::MHPMEVENT3 + i);
        self.hpm[i as usize].offset = self.hpm_event_total(bus, sel).wrapping_sub(v);
    }

    /// The bus-aware slow path for the HPM CSR group: real privilege
    /// checks (machine counters and selectors are M-mode-only, user
    /// shadows are read-only and gated by `mcounteren`), virtual-counter
    /// reads/writes, and freeze/unfreeze bookkeeping on `mcountinhibit`
    /// transitions. Called from the `Inst::Csr` arm only for addresses
    /// [`addr::is_hpm_managed`] matches, so every pre-existing CSR keeps
    /// its exact previous behavior.
    fn exec_csr_hpm<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        op: CsrOp,
        rd: Reg,
        csr: u16,
        src: CsrSrc,
        word: u32,
    ) -> Result<(), RvError> {
        let illegal = |core: &mut Self| -> Result<(), RvError> {
            core.raise(TrapCause::IllegalInstruction, word as u64)?;
            Err(RvError::TrapTaken)
        };
        // User shadows: read-only, and only visible below M-mode when the
        // matching mcounteren bit is set.
        if let Some(i) = addr::hpmcounter_index(csr) {
            let writes = match src {
                CsrSrc::Reg(r) => op == CsrOp::Rw || r != Reg::Zero,
                CsrSrc::Imm(v) => op == CsrOp::Rw || v != 0,
            };
            if writes {
                return illegal(self);
            }
            if self.priv_mode != PrivMode::Machine
                && self.csrs.read(addr::MCOUNTEREN) >> (3 + i) & 1 == 0
            {
                return illegal(self);
            }
            let old = self.hpm_counter_read(bus, i);
            self.set_reg(rd, old);
            return Ok(());
        }
        // Everything else in the group is a machine-mode register.
        if self.priv_mode != PrivMode::Machine {
            return illegal(self);
        }
        let old = if let Some(i) = addr::mhpmcounter_index(csr) {
            self.hpm_counter_read(bus, i)
        } else {
            self.csrs.read(csr)
        };
        let arg = match src {
            CsrSrc::Reg(r) => self.reg(r),
            CsrSrc::Imm(v) => v as u64,
        };
        let skip_write = match src {
            CsrSrc::Reg(r) => op != CsrOp::Rw && r == Reg::Zero,
            CsrSrc::Imm(v) => op != CsrOp::Rw && v == 0,
        };
        if !skip_write {
            let new = match op {
                CsrOp::Rw => arg,
                CsrOp::Rs => old | arg,
                CsrOp::Rc => old & !arg,
            };
            if let Some(i) = addr::mhpmcounter_index(csr) {
                self.hpm_counter_write(bus, i, new);
            } else if let Some(i) = addr::mhpmevent_index(csr) {
                // Re-anchor so the architectural value is preserved across
                // a selector change, exactly like writing the counter.
                let value = self.hpm_counter_read(bus, i);
                self.csrs.write(csr, new);
                self.hpm_counter_write(bus, i, value);
            } else if csr == addr::MCOUNTINHIBIT {
                // Freeze counters whose bit rises, thaw those whose bit
                // falls; both preserve the architectural counter value.
                let prev = self.csrs.read(addr::MCOUNTINHIBIT);
                let masked = new & 0x7F8; // only hpm bits 3..=10 exist
                for i in 0..addr::HPM_COUNTERS {
                    let was = prev >> (3 + i) & 1 == 1;
                    let now = masked >> (3 + i) & 1 == 1;
                    if !was && now {
                        self.hpm[i as usize].frozen = self.hpm_counter_read(bus, i);
                    }
                }
                self.csrs.write(csr, masked);
                for i in 0..addr::HPM_COUNTERS {
                    let was = prev >> (3 + i) & 1 == 1;
                    let now = masked >> (3 + i) & 1 == 1;
                    if was && !now {
                        let frozen = self.hpm[i as usize].frozen;
                        self.hpm_counter_write(bus, i, frozen);
                    }
                }
            } else {
                // mcounteren: plain 32-bit storage, consulted on shadow reads.
                self.csrs.write(csr, new & 0xFFFF_FFFF);
            }
        }
        self.set_reg(rd, old);
        Ok(())
    }

    /// The `Inst::MulDiv32` execution body, shared verbatim between
    /// [`Core::execute`] and [`Core::sb_inline_exec`] so the two cannot
    /// drift.
    #[inline]
    fn exec_muldiv32(&mut self, op: MulDivOp, rd: Reg, rs1: Reg, rs2: Reg) {
        let a = self.reg(rs1) as u32;
        let b = self.reg(rs2) as u32;
        let sa = a as i32;
        let sb = b as i32;
        let r: u32 = match op {
            MulDivOp::Mul => a.wrapping_mul(b),
            MulDivOp::Div => sa
                .checked_div(sb)
                .map_or(if sb == 0 { u32::MAX } else { a }, |v| v as u32),
            MulDivOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            MulDivOp::Rem => sa
                .checked_rem(sb)
                .map_or(if sb == 0 { a } else { 0 }, |v| v as u32),
            MulDivOp::Remu => a.checked_rem(b).unwrap_or(a),
            _ => 0,
        };
        self.set_reg(rd, r as i32 as i64 as u64);
        self.counters.arith_ops += 1;
    }

    /// The `Inst::Mac` execution body (shared with
    /// [`Core::sb_inline_exec`]).
    #[inline]
    fn exec_mac(&mut self, rd: Reg, rs1: Reg, rs2: Reg, subtract: bool) {
        let prod = (self.reg(rs1) as u32).wrapping_mul(self.reg(rs2) as u32);
        let acc = self.reg(rd) as u32;
        let r = if subtract {
            acc.wrapping_sub(prod)
        } else {
            acc.wrapping_add(prod)
        };
        self.set_reg(rd, r as u64);
        self.counters.arith_ops += 2;
    }

    /// The `Inst::PulpAlu` execution body (shared with
    /// [`Core::sb_inline_exec`]).
    #[inline]
    fn exec_pulp_alu(&mut self, op: PulpAluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        let a = self.reg(rs1) as u32;
        let b = self.reg(rs2) as u32;
        let sa = a as i32;
        let sb = b as i32;
        let r: u32 = match op {
            PulpAluOp::Min => sa.min(sb) as u32,
            PulpAluOp::Max => sa.max(sb) as u32,
            PulpAluOp::Minu => a.min(b),
            PulpAluOp::Maxu => a.max(b),
            PulpAluOp::Abs => sa.wrapping_abs() as u32,
            PulpAluOp::Exths => (a as u16 as i16 as i32) as u32,
            PulpAluOp::Exthz => a & 0xFFFF,
            PulpAluOp::Extbs => (a as u8 as i8 as i32) as u32,
            PulpAluOp::Extbz => a & 0xFF,
            PulpAluOp::Clip => {
                let lo = -(sb.max(0)) - 1;
                let hi = sb.max(0);
                sa.clamp(lo, hi) as u32
            }
            PulpAluOp::Cnt => a.count_ones(),
            PulpAluOp::Ff1 => a.trailing_zeros().min(32),
            PulpAluOp::Fl1 => {
                if a == 0 {
                    32
                } else {
                    31 - a.leading_zeros()
                }
            }
            PulpAluOp::Ror => a.rotate_right(b & 31),
        };
        self.set_reg(rd, r as u64);
        self.counters.arith_ops += 1;
    }

    fn simd_lanes(&self, fmt: SimdFmt, v: u32, scalar: bool) -> [i32; 4] {
        let mut out = [0i32; 4];
        match fmt {
            SimdFmt::B => {
                for (i, lane) in out.iter_mut().enumerate() {
                    let byte = if scalar {
                        v as u8
                    } else {
                        (v >> (8 * i)) as u8
                    };
                    *lane = byte as i8 as i32;
                }
            }
            SimdFmt::H => {
                for (i, lane) in out.iter_mut().take(2).enumerate() {
                    let h = if scalar {
                        v as u16
                    } else {
                        (v >> (16 * i)) as u16
                    };
                    *lane = h as i16 as i32;
                }
            }
        }
        out
    }

    fn simd_pack(fmt: SimdFmt, lanes: &[i32; 4]) -> u32 {
        match fmt {
            SimdFmt::B => lanes
                .iter()
                .enumerate()
                .fold(0u32, |acc, (i, &l)| acc | (((l as u8) as u32) << (8 * i))),
            SimdFmt::H => ((lanes[0] as u16) as u32) | (((lanes[1] as u16) as u32) << 16),
        }
    }

    fn exec_simd(&mut self, op: SimdOp, fmt: SimdFmt, rd: Reg, rs1: Reg, rs2: Reg, scalar: bool) {
        let a = self.reg(rs1) as u32;
        let b = self.reg(rs2) as u32;
        let la = self.simd_lanes(fmt, a, false);
        let lb = self.simd_lanes(fmt, b, scalar);
        let n = fmt.lanes();
        let lane_bits = 32 / n as u32;

        let dot = |sgn_a: bool, sgn_b: bool| -> i64 {
            let mut acc = 0i64;
            for i in 0..n {
                let va = if sgn_a {
                    la[i] as i64
                } else {
                    (la[i] as u32 & ((1 << lane_bits) - 1)) as i64
                };
                let vb = if sgn_b {
                    lb[i] as i64
                } else {
                    (lb[i] as u32 & ((1 << lane_bits) - 1)) as i64
                };
                acc += va * vb;
            }
            acc
        };

        let (value, ops): (u32, u64) = match op {
            SimdOp::Extract => {
                let lane = (b as usize) % n;
                (la[lane] as u32, 1)
            }
            SimdOp::Insert => {
                let lane = (b as usize) % n;
                let acc = self.reg(rd) as u32;
                let (mask, sh) = match fmt {
                    SimdFmt::B => (0xFFu32, 8 * lane),
                    SimdFmt::H => (0xFFFF, 16 * lane),
                };
                ((acc & !(mask << sh)) | ((a & mask) << sh), 1)
            }
            SimdOp::Shuffle => {
                let mut lanes = [0i32; 4];
                for (i, lane) in lanes.iter_mut().take(n).enumerate() {
                    let idx = match fmt {
                        SimdFmt::B => ((b >> (8 * i)) as usize) % n,
                        SimdFmt::H => ((b >> (16 * i)) as usize) % n,
                    };
                    *lane = la[idx];
                }
                (Self::simd_pack(fmt, &lanes), n as u64)
            }
            SimdOp::And => (a & b, n as u64),
            SimdOp::Or => (a | b, n as u64),
            SimdOp::Xor => (a ^ b, n as u64),
            SimdOp::Dotup => ((dot(false, false) as i32) as u32, 2 * n as u64),
            SimdOp::Dotusp => ((dot(false, true) as i32) as u32, 2 * n as u64),
            SimdOp::Dotsp => ((dot(true, true) as i32) as u32, 2 * n as u64),
            SimdOp::Sdotup => (
                (self.reg(rd) as u32).wrapping_add(dot(false, false) as u32),
                2 * n as u64,
            ),
            SimdOp::Sdotusp => (
                (self.reg(rd) as u32).wrapping_add(dot(false, true) as u32),
                2 * n as u64,
            ),
            SimdOp::Sdotsp => (
                (self.reg(rd) as u32).wrapping_add(dot(true, true) as u32),
                2 * n as u64,
            ),
            _ => {
                let mut lanes = [0i32; 4];
                let umask = (1u32 << lane_bits).wrapping_sub(1);
                for i in 0..n {
                    let (x, y) = (la[i], lb[i]);
                    let (ux, uy) = (x as u32 & umask, y as u32 & umask);
                    lanes[i] = match op {
                        SimdOp::Add => x.wrapping_add(y),
                        SimdOp::Sub => x.wrapping_sub(y),
                        SimdOp::Avg => (x + y) >> 1,
                        SimdOp::Avgu => ((ux + uy) >> 1) as i32,
                        SimdOp::Min => x.min(y),
                        SimdOp::Max => x.max(y),
                        SimdOp::Minu => ux.min(uy) as i32,
                        SimdOp::Maxu => ux.max(uy) as i32,
                        SimdOp::Srl => (ux >> (uy & (lane_bits - 1))) as i32,
                        SimdOp::Sra => x >> (uy & (lane_bits - 1)),
                        SimdOp::Abs => x.wrapping_abs(),
                        _ => unreachable!("handled above"),
                    };
                }
                (Self::simd_pack(fmt, &lanes), n as u64)
            }
        };
        self.set_reg(rd, value as u64);
        self.counters.arith_ops += ops;
        self.counters.simd_insts += 1;
    }

    fn exec_simd_fp(&mut self, op: SimdFpOp, rd: Reg, rs1: Reg, rs2: Reg) {
        let (a0, a1) = unpack2(self.reg(rs1) as u32);
        let (b0, b1) = unpack2(self.reg(rs2) as u32);
        match op {
            SimdFpOp::DotpexS => {
                let acc = f32::from_bits(self.reg(rd) as u32);
                let r = a0 * b0 + a1 * b1 + acc;
                self.set_reg(rd, r.to_bits() as u64);
                self.counters.arith_ops += 4;
            }
            SimdFpOp::Mac => {
                let (d0, d1) = unpack2(self.reg(rd) as u32);
                self.set_reg(rd, pack2(d0 + a0 * b0, d1 + a1 * b1) as u64);
                self.counters.arith_ops += 4;
            }
            _ => {
                let f = |x: f32, y: f32| match op {
                    SimdFpOp::Add => x + y,
                    SimdFpOp::Sub => x - y,
                    SimdFpOp::Mul => x * y,
                    SimdFpOp::Min => x.min(y),
                    SimdFpOp::Max => x.max(y),
                    _ => unreachable!(),
                };
                self.set_reg(rd, pack2(f(a0, b0), f(a1, b1)) as u64);
                self.counters.arith_ops += 2;
            }
        }
        self.counters.fp_insts += 1;
    }

    /// Marks a machine interrupt pending (or clears it): `code` is the
    /// standard cause (3 = software, 7 = timer, 11 = external). The SoC
    /// harness drives this from the CLINT/PLIC models; the interrupt is
    /// taken at the next [`Core::step`] when `mie`/`mstatus.MIE` allow.
    pub fn set_interrupt_pending(&mut self, code: u64, pending: bool) {
        let mip = self.csrs.read(addr::MIP);
        let bit = 1u64 << code;
        self.csrs
            .write(addr::MIP, if pending { mip | bit } else { mip & !bit });
    }

    /// Returns the cause code of a takeable machine interrupt, if any.
    fn takeable_interrupt(&self) -> Option<u64> {
        let pending = self.csrs.read(addr::MIP) & self.csrs.read(addr::MIE);
        if pending == 0 {
            return None;
        }
        let mstatus_mie = self.csrs.read(addr::MSTATUS) & (1 << 3) != 0;
        if self.priv_mode == PrivMode::Machine && !mstatus_mie {
            return None;
        }
        // Standard priority: external (11) > software (3) > timer (7).
        [11u64, 3, 7].into_iter().find(|&c| pending & (1 << c) != 0)
    }

    /// [`Core::takeable_interrupt`] behind a CSR-version cache: its only
    /// inputs are `mip`/`mie`/`mstatus` and the privilege mode, so the
    /// result is stable until either changes.
    #[inline]
    fn takeable_interrupt_cached(&mut self) -> Option<u64> {
        let v = self.csrs.version();
        if self.irq_cache.version != v || self.irq_cache.mode != self.priv_mode {
            self.irq_cache = IrqCache {
                version: v,
                mode: self.priv_mode,
                takeable: self.takeable_interrupt(),
            };
        }
        self.irq_cache.takeable
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an [`RvError`] when the core cannot continue: illegal
    /// instruction / fault with no trap handler installed, or a memory
    /// system failure.
    #[inline]
    pub fn step<B: CoreBus + ?Sized>(&mut self, bus: &mut B) -> Result<StepOutcome, RvError> {
        if self.halted {
            return Ok(StepOutcome {
                cycles: Cycles::ZERO,
                halted: true,
            });
        }
        let pc = self.pc;

        if self.decode_enabled {
            // Fast path: replay a decoded entry stamped with the CSR-file
            // version and privilege mode of the step that installed it.
            // An unchanged stamp proves, without re-deriving anything,
            // that (a) no CSR write happened since, so no interrupt can
            // have become takeable (`mip`/`mie`/`mstatus` writes all bump
            // the version — the install step's prologue already concluded
            // "no interrupt" at this exact stamp), and (b) the fetch
            // translation is unchanged (`satp` is a CSR, the mode is
            // compared). A paged entry additionally requires a
            // timing-stateless bus: on cached buses the Sv39 walk's PTE
            // loads move L1D LRU state, so the walk must really run.
            // Entries are installed only for zero-stall fetches, so
            // replaying `extra = 0` is exactly what the slow path would
            // charge; the bus revalidates the fetch as a hit with
            // identical side effects via `fetch_touch`.
            let epoch = bus.fetch_epoch();
            let (gen, version, mode) = (self.decode_gen, self.csrs.version(), self.priv_mode);
            if let Some(e) = self.replay_slot(bus, pc, gen, version, epoch, mode) {
                let (inst, ilen, word, cost, paged) = (e.inst, e.ilen, e.word, e.cost, e.paged);
                self.counters.decode_hits += 1;
                // A paged replay is also a served-without-a-walk fetch
                // translation; account it as a µTLB hit.
                self.counters.itlb_hits += u64::from(paged);
                return self.execute(
                    bus,
                    pc,
                    inst,
                    u64::from(ilen),
                    word,
                    u64::from(cost),
                    Cycles::ZERO,
                );
            }
        }
        if let Some(code) = self.takeable_interrupt_cached() {
            if self.csrs.read(addr::MTVEC) != 0 {
                let prev = self.priv_mode;
                self.pc = self.csrs.enter_interrupt_m(code, self.pc, prev);
                self.priv_mode = PrivMode::Machine;
                self.counters.interrupts += 1;
                let c = Cycles::new(self.cost.branch_taken_penalty + 1);
                self.cycles += c;
                if let Some(t) = &self.tracer {
                    let mut t = t.borrow_mut();
                    t.set_now(self.trace_base + self.cycles.get());
                    t.record(self.track, TraceEvent::IrqClaim { irq: code as u32 });
                }
                return Ok(StepOutcome {
                    cycles: c,
                    halted: false,
                });
            }
        }

        if self.decode_enabled {
            self.counters.decode_misses += 1;
            let known_pa = self.fetch_pa_cached(pc, bus.timing_stateless());
            return self.step_decode(bus, pc, known_pa);
        }
        self.step_decode(bus, pc, None)
    }

    /// The decode-cache replay predicate of [`Core::step`] and
    /// [`Core::run_loop`]: the slot for `pc` replays when it was installed
    /// under the current decode generation, CSR-file version, fetch epoch
    /// and privilege mode (passed in, so the loop can hold them in
    /// locals), a paged entry sits on a timing-stateless bus, and
    /// [`CoreBus::fetch_touch`] revalidates the fetch as a hit with the
    /// side effects a real fetch would have had. A `None` has no side
    /// effects.
    #[inline(always)]
    fn replay_slot<B: CoreBus + ?Sized>(
        &self,
        bus: &mut B,
        pc: u64,
        gen: u64,
        version: u64,
        epoch: u64,
        mode: PrivMode,
    ) -> Option<&DecodedEntry> {
        let e = &self.decode_cache.as_deref()?[(pc >> 1) as usize & (self.decode_entries - 1)];
        // Branchless stamp check: OR the XOR of every u64 field so the
        // common all-match case costs one predicted branch.
        let stale = (e.gen ^ gen) | (e.va ^ pc) | (e.version ^ version) | (e.epoch ^ epoch);
        (stale == 0
            && e.mode == mode
            && (!e.paged || bus.timing_stateless())
            && bus.fetch_touch(e.pa))
        .then_some(e)
    }

    /// Fetch translation that provably costs zero cycles and touches no
    /// memory-system state: paging off (identity mapping), or a fetch-µTLB
    /// hit on a timing-stateless bus. On cached buses the Sv39 walk's PTE
    /// loads move L1D LRU state, so the walk must really run there.
    #[inline]
    fn fetch_pa_cached(&mut self, pc: u64, stateless: bool) -> Option<u64> {
        self.mmu_refresh();
        if !self.mmu_cache.active {
            return Some(pc);
        }
        if stateless
            && self.itlb.valid
            && self.itlb.page == pc >> 12
            && self.itlb.version == self.mmu_cache.version
            && self.itlb.mode == self.priv_mode
        {
            self.counters.itlb_hits += 1;
            return Some(self.itlb.base | (pc & 0xFFF));
        }
        None
    }

    /// The full decode path: translate (unless `known_pa` already proves a
    /// zero-cost translation), fetch, expand/decode, execute. Installs a
    /// decoded-instruction-cache entry when the whole fetch path added
    /// zero stall cycles.
    ///
    /// Kept out of line so the replay fast path in [`Core::step`] stays
    /// small enough to inline into the run loop.
    #[inline(never)]
    fn step_decode<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        pc: u64,
        known_pa: Option<u64>,
    ) -> Result<StepOutcome, RvError> {
        let mut extra = Cycles::ZERO;

        // Fetch (with translation when paging is on).
        let fetch_pa = match known_pa {
            Some(pa) => pa,
            None => match self.translate(bus, pc, AccessKind::Fetch, &mut extra) {
                Ok(pa) => pa,
                Err(_) => {
                    self.raise(TrapCause::InstPageFault, pc)?;
                    let c = Cycles::new(self.cost.base) + extra;
                    self.cycles += c;
                    return Ok(StepOutcome {
                        cycles: c,
                        halted: false,
                    });
                }
            },
        };
        // Install the fetch µTLB entry: translation is linear within a
        // page (4 KiB pages and superpages alike), so same-page fetches
        // can reuse it while the CSR file and privilege are unchanged.
        if known_pa.is_none()
            && self.decode_enabled
            && self.mmu_cache.active
            && bus.timing_stateless()
        {
            self.counters.itlb_misses += 1;
            self.itlb = FetchTlb {
                valid: true,
                page: pc >> 12,
                base: fetch_pa & !0xFFF,
                version: self.mmu_cache.version,
                mode: self.priv_mode,
            };
        }
        let (word, fetch_lat) = bus.fetch(fetch_pa).map_err(|e| mem_error(fetch_pa, e))?;
        extra += fetch_lat;

        // C extension: a parcel whose low bits are not 0b11 is a 16-bit
        // compressed instruction; expand it before execution.
        let (decoded, ilen) = if word & 3 != 3 {
            (crate::compressed::expand(word as u16, self.xlen), 2u64)
        } else {
            (decode(word, self.xlen, self.xpulp), 4u64)
        };
        let Some(inst) = decoded else {
            self.raise(TrapCause::IllegalInstruction, word as u64)?;
            let c = Cycles::new(self.cost.base) + extra;
            self.cycles += c;
            return Ok(StepOutcome {
                cycles: c,
                halted: false,
            });
        };

        // Install only when the fetch path was zero-stall (steady-state
        // I-side hit): replaying such an entry charges zero extra cycles,
        // which is exactly what the slow path produces for the same hit.
        // First-touch misses (stall > 0) never install, so a replay can
        // never smear miss latency into later iterations.
        let cost = self.cost.cost(&inst);
        // `cost` is cached as a u8 in the entry; a cost model exceeding
        // that range simply never installs (correctness over speed).
        if self.decode_enabled && extra == Cycles::ZERO && cost <= u64::from(u8::MAX) {
            let entries = self.decode_entries;
            let cache = self
                .decode_cache
                .get_or_insert_with(|| vec![DecodedEntry::DEAD; entries].into_boxed_slice());
            cache[(pc >> 1) as usize & (entries - 1)] = DecodedEntry {
                va: pc,
                pa: fetch_pa,
                gen: self.decode_gen,
                version: self.csrs.version(),
                epoch: bus.fetch_epoch(),
                word,
                ilen: ilen as u8,
                cost: cost as u8,
                mode: self.priv_mode,
                paged: self.mmu_cache.active,
                inst,
            };
            self.code_lo = self.code_lo.min(fetch_pa);
            self.code_hi = self.code_hi.max(fetch_pa + 4);
        }

        self.execute(bus, pc, inst, ilen, word, cost, extra)
    }

    /// Executes an already-fetched, already-decoded instruction and
    /// commits its timing — shared by the decode-cache fast path and the
    /// full decode path. `base_cost` is the instruction's static
    /// [`CostModel::cost`], computed once at decode time and replayed from
    /// the decoded-entry cache.
    #[allow(clippy::too_many_arguments)]
    fn execute<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        pc: u64,
        inst: Inst,
        ilen: u64,
        word: u32,
        base_cost: u64,
        mut extra: Cycles,
    ) -> Result<StepOutcome, RvError> {
        if self.observe {
            if let Some(trace) = &mut self.trace {
                if trace.len() == self.trace_capacity {
                    trace.pop_front();
                }
                trace.push_back(TraceEntry { pc, inst });
            }
        }

        let mut next_pc = pc.wrapping_add(ilen);
        let mut penalty = 0u64;
        let mut halted = false;
        let mut control_transfer = false;
        let mut trapped = false;

        let exec_result: Result<(), RvError> = (|| {
            match inst {
                Inst::Lui { rd, imm } => self.set_reg(rd, (imm << 12) as u64),
                Inst::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add((imm << 12) as u64)),
                Inst::Jal { rd, offset } => {
                    self.set_reg(rd, pc.wrapping_add(ilen));
                    next_pc = pc.wrapping_add(offset as u64);
                    penalty += self.cost.jump_penalty;
                    control_transfer = true;
                }
                Inst::Jalr { rd, rs1, offset } => {
                    let target = self.reg(rs1).wrapping_add(offset as u64) & !1;
                    self.set_reg(rd, pc.wrapping_add(ilen));
                    next_pc = target;
                    penalty += self.cost.jump_penalty;
                    control_transfer = true;
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    offset,
                } => {
                    let taken = match cond {
                        BranchCond::Eq => self.reg(rs1) == self.reg(rs2),
                        BranchCond::Ne => self.reg(rs1) != self.reg(rs2),
                        BranchCond::Lt => self.sval(rs1) < self.sval(rs2),
                        BranchCond::Ge => self.sval(rs1) >= self.sval(rs2),
                        BranchCond::Ltu => self.reg(rs1) < self.reg(rs2),
                        BranchCond::Geu => self.reg(rs1) >= self.reg(rs2),
                    };
                    if taken {
                        next_pc = pc.wrapping_add(offset as u64);
                        penalty += self.cost.branch_taken_penalty;
                        self.counters.taken_branches += 1;
                        control_transfer = true;
                    }
                }
                Inst::Load {
                    width,
                    rd,
                    rs1,
                    offset,
                } => {
                    let vaddr = self.reg(rs1).wrapping_add(offset as u64);
                    let v = self.load_int(bus, vaddr, width, &mut extra)?;
                    self.set_reg(rd, v);
                }
                Inst::Store {
                    width,
                    rs2,
                    rs1,
                    offset,
                } => {
                    let vaddr = self.reg(rs1).wrapping_add(offset as u64);
                    let data = self.reg(rs2).to_le_bytes();
                    self.mem_store(bus, vaddr, &data[..width.bytes()], &mut extra)?;
                }
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
                Inst::LoadReserved { double, rd, rs1 } => {
                    let vaddr = self.reg(rs1);
                    let width = if double { LoadWidth::D } else { LoadWidth::W };
                    let v = self.load_int(bus, vaddr, width, &mut extra)?;
                    self.set_reg(rd, v);
                    self.reservation = Some(vaddr);
                }
                Inst::StoreConditional {
                    double,
                    rd,
                    rs1,
                    rs2,
                } => {
                    let vaddr = self.reg(rs1);
                    if self.reservation == Some(vaddr) {
                        let data = self.reg(rs2).to_le_bytes();
                        let n = if double { 8 } else { 4 };
                        self.mem_store(bus, vaddr, &data[..n], &mut extra)?;
                        self.set_reg(rd, 0);
                    } else {
                        self.set_reg(rd, 1);
                    }
                    self.reservation = None;
                }
                Inst::Amo {
                    op,
                    double,
                    rd,
                    rs1,
                    rs2,
                } => {
                    let vaddr = self.reg(rs1);
                    let width = if double { LoadWidth::D } else { LoadWidth::W };
                    let old = self.load_int(bus, vaddr, width, &mut extra)?;
                    let b = self.reg(rs2);
                    let new = match (op, double) {
                        (AmoOp::Swap, _) => b,
                        (AmoOp::Add, _) => old.wrapping_add(b),
                        (AmoOp::Xor, _) => old ^ b,
                        (AmoOp::And, _) => old & b,
                        (AmoOp::Or, _) => old | b,
                        (AmoOp::Min, true) => (old as i64).min(b as i64) as u64,
                        (AmoOp::Max, true) => (old as i64).max(b as i64) as u64,
                        (AmoOp::Min, false) => {
                            ((old as u32 as i32).min(b as u32 as i32)) as u32 as u64
                        }
                        (AmoOp::Max, false) => {
                            ((old as u32 as i32).max(b as u32 as i32)) as u32 as u64
                        }
                        (AmoOp::Minu, true) => old.min(b),
                        (AmoOp::Maxu, true) => old.max(b),
                        (AmoOp::Minu, false) => ((old as u32).min(b as u32)) as u64,
                        (AmoOp::Maxu, false) => ((old as u32).max(b as u32)) as u64,
                    };
                    let data = new.to_le_bytes();
                    let n = if double { 8 } else { 4 };
                    self.mem_store(bus, vaddr, &data[..n], &mut extra)?;
                    self.set_reg(rd, old);
                }
                Inst::Fence => {}
                // fence.i orders the instruction stream after stores: the
                // architectural invalidation point for decoded entries.
                Inst::FenceI => self.invalidate_decoded(),
                Inst::Ecall => {
                    let cause = match self.priv_mode {
                        PrivMode::User => TrapCause::EcallFromU,
                        PrivMode::Supervisor => TrapCause::EcallFromS,
                        PrivMode::Machine => TrapCause::EcallFromM,
                    };
                    self.raise(cause, 0)?;
                    next_pc = self.pc;
                    control_transfer = true;
                }
                Inst::Ebreak => {
                    halted = true;
                }
                Inst::Mret => {
                    if self.priv_mode != PrivMode::Machine {
                        self.raise(TrapCause::IllegalInstruction, word as u64)?;
                        next_pc = self.pc;
                    } else {
                        let (epc, mode) = self.csrs.leave_trap_m();
                        next_pc = epc;
                        self.priv_mode = mode;
                    }
                    control_transfer = true;
                }
                Inst::Sret => {
                    if self.priv_mode < PrivMode::Supervisor {
                        self.raise(TrapCause::IllegalInstruction, word as u64)?;
                        next_pc = self.pc;
                    } else {
                        let (epc, mode) = self.csrs.leave_trap_s();
                        next_pc = epc;
                        self.priv_mode = mode;
                    }
                    control_transfer = true;
                }
                Inst::Wfi => {}
                Inst::Csr { op, rd, csr, src } if addr::is_hpm_managed(csr) => {
                    self.exec_csr_hpm(bus, op, rd, csr, src, word)?;
                }
                Inst::Csr { op, rd, csr, src } => {
                    let old = self.csr_read(csr);
                    let arg = match src {
                        CsrSrc::Reg(r) => self.reg(r),
                        CsrSrc::Imm(v) => v as u64,
                    };
                    let skip_write = match src {
                        CsrSrc::Reg(r) => op != CsrOp::Rw && r == Reg::Zero,
                        CsrSrc::Imm(v) => op != CsrOp::Rw && v == 0,
                    };
                    if !skip_write {
                        let new = match op {
                            CsrOp::Rw => arg,
                            CsrOp::Rs => old | arg,
                            CsrOp::Rc => old & !arg,
                        };
                        self.csrs.write(csr, new);
                    }
                    self.set_reg(rd, old);
                }

                // --- F/D ---
                Inst::FpLoad {
                    fmt,
                    rd,
                    rs1,
                    offset,
                } => {
                    let vaddr = self.reg(rs1).wrapping_add(offset as u64);
                    let mut b = [0u8; 8];
                    let n = if fmt == FpFmt::S { 4 } else { 8 };
                    self.mem_load(bus, vaddr, &mut b[..n], &mut extra)?;
                    if fmt == FpFmt::S {
                        self.write_f32(
                            rd,
                            f32::from_bits(u32::from_le_bytes(b[..4].try_into().expect("4"))),
                        );
                    } else {
                        self.f[rd.0 as usize] = u64::from_le_bytes(b);
                    }
                }
                Inst::FpStore {
                    fmt,
                    rs2,
                    rs1,
                    offset,
                } => {
                    let vaddr = self.reg(rs1).wrapping_add(offset as u64);
                    let bits = self.f[rs2.0 as usize].to_le_bytes();
                    let n = if fmt == FpFmt::S { 4 } else { 8 };
                    self.mem_store(bus, vaddr, &bits[..n], &mut extra)?;
                }
                Inst::FpOp3 {
                    fmt,
                    op,
                    rd,
                    rs1,
                    rs2,
                } => {
                    match fmt {
                        FpFmt::S => {
                            let a = self.read_f32(rs1);
                            let b = self.read_f32(rs2);
                            let r = match op {
                                FpOp::Add => a + b,
                                FpOp::Sub => a - b,
                                FpOp::Mul => a * b,
                                FpOp::Div => a / b,
                                FpOp::Sqrt => a.sqrt(),
                                FpOp::Min => a.min(b),
                                FpOp::Max => a.max(b),
                                FpOp::SgnJ => a.copysign(b),
                                FpOp::SgnJn => a.copysign(-b),
                                FpOp::SgnJx => {
                                    f32::from_bits(a.to_bits() ^ (b.to_bits() & 0x8000_0000))
                                }
                            };
                            self.write_f32(rd, r);
                        }
                        FpFmt::D => {
                            let a = self.read_f64(rs1);
                            let b = self.read_f64(rs2);
                            let r = match op {
                                FpOp::Add => a + b,
                                FpOp::Sub => a - b,
                                FpOp::Mul => a * b,
                                FpOp::Div => a / b,
                                FpOp::Sqrt => a.sqrt(),
                                FpOp::Min => a.min(b),
                                FpOp::Max => a.max(b),
                                FpOp::SgnJ => a.copysign(b),
                                FpOp::SgnJn => a.copysign(-b),
                                FpOp::SgnJx => f64::from_bits(
                                    a.to_bits() ^ (b.to_bits() & 0x8000_0000_0000_0000),
                                ),
                            };
                            self.write_f64(rd, r);
                        }
                    }
                    self.counters.arith_ops += 1;
                    self.counters.fp_insts += 1;
                }
                Inst::FpFma {
                    fmt,
                    rd,
                    rs1,
                    rs2,
                    rs3,
                    negate_product,
                    negate_addend,
                } => {
                    match fmt {
                        FpFmt::S => {
                            let a = self.read_f32(rs1);
                            let b = self.read_f32(rs2);
                            let c = self.read_f32(rs3);
                            let a = if negate_product { -a } else { a };
                            let c = if negate_addend { -c } else { c };
                            self.write_f32(rd, a.mul_add(b, c));
                        }
                        FpFmt::D => {
                            let a = self.read_f64(rs1);
                            let b = self.read_f64(rs2);
                            let c = self.read_f64(rs3);
                            let a = if negate_product { -a } else { a };
                            let c = if negate_addend { -c } else { c };
                            self.write_f64(rd, a.mul_add(b, c));
                        }
                    }
                    self.counters.arith_ops += 2;
                    self.counters.fp_insts += 1;
                }
                Inst::FpCmp {
                    fmt,
                    cmp,
                    rd,
                    rs1,
                    rs2,
                } => {
                    let r = match fmt {
                        FpFmt::S => {
                            let a = self.read_f32(rs1);
                            let b = self.read_f32(rs2);
                            match cmp {
                                FpCmp::Eq => a == b,
                                FpCmp::Lt => a < b,
                                FpCmp::Le => a <= b,
                            }
                        }
                        FpFmt::D => {
                            let a = self.read_f64(rs1);
                            let b = self.read_f64(rs2);
                            match cmp {
                                FpCmp::Eq => a == b,
                                FpCmp::Lt => a < b,
                                FpCmp::Le => a <= b,
                            }
                        }
                    };
                    self.set_reg(rd, r as u64);
                    self.counters.fp_insts += 1;
                }
                Inst::FpToInt {
                    fmt,
                    rd,
                    rs1,
                    signed,
                    wide,
                } => {
                    let v = match fmt {
                        FpFmt::S => self.read_f32(rs1) as f64,
                        FpFmt::D => self.read_f64(rs1),
                    };
                    let r = match (wide, signed) {
                        (false, true) => (v as i32) as i64 as u64,
                        (false, false) => (v as u32) as i32 as i64 as u64,
                        (true, true) => (v as i64) as u64,
                        (true, false) => v as u64,
                    };
                    self.set_reg(rd, r);
                    self.counters.fp_insts += 1;
                }
                Inst::IntToFp {
                    fmt,
                    rd,
                    rs1,
                    signed,
                    wide,
                } => {
                    let raw = self.reg(rs1);
                    let v: f64 = match (wide, signed) {
                        (false, true) => raw as u32 as i32 as f64,
                        (false, false) => raw as u32 as f64,
                        (true, true) => raw as i64 as f64,
                        (true, false) => raw as f64,
                    };
                    match fmt {
                        FpFmt::S => self.write_f32(rd, v as f32),
                        FpFmt::D => self.write_f64(rd, v),
                    }
                    self.counters.fp_insts += 1;
                }
                Inst::FpCvt { to, rd, rs1 } => {
                    match to {
                        FpFmt::S => {
                            let v = self.read_f64(rs1);
                            self.write_f32(rd, v as f32);
                        }
                        FpFmt::D => {
                            let v = self.read_f32(rs1);
                            self.write_f64(rd, v as f64);
                        }
                    }
                    self.counters.fp_insts += 1;
                }
                Inst::FpMvToInt { fmt, rd, rs1 } => {
                    let v = match fmt {
                        FpFmt::S => self.f[rs1.0 as usize] as u32 as i32 as i64 as u64,
                        FpFmt::D => self.f[rs1.0 as usize],
                    };
                    self.set_reg(rd, v);
                }
                Inst::FpMvFromInt { fmt, rd, rs1 } => match fmt {
                    FpFmt::S => self.write_f32(rd, f32::from_bits(self.reg(rs1) as u32)),
                    FpFmt::D => self.f[rd.0 as usize] = self.reg(rs1),
                },

                // --- Xpulp ---
                Inst::LoadPost {
                    width,
                    rd,
                    rs1,
                    offset,
                } => {
                    let vaddr = self.reg(rs1);
                    let v = self.load_int(bus, vaddr, width, &mut extra)?;
                    self.set_reg(rs1, vaddr.wrapping_add(offset as u64));
                    self.set_reg(rd, v);
                }
                Inst::StorePost {
                    width,
                    rs2,
                    rs1,
                    offset,
                } => {
                    let vaddr = self.reg(rs1);
                    let data = self.reg(rs2).to_le_bytes();
                    self.mem_store(bus, vaddr, &data[..width.bytes()], &mut extra)?;
                    self.set_reg(rs1, vaddr.wrapping_add(offset as u64));
                }
                Inst::Mac {
                    rd,
                    rs1,
                    rs2,
                    subtract,
                } => self.exec_mac(rd, rs1, rs2, subtract),
                Inst::PulpAlu { op, rd, rs1, rs2 } => self.exec_pulp_alu(op, rd, rs1, rs2),
                Inst::HwLoop {
                    op,
                    loop_idx,
                    value,
                    rs1,
                } => {
                    let l = &mut self.hwloops[loop_idx as usize];
                    match op {
                        HwLoopOp::Starti => l.start = pc.wrapping_add(value as u64),
                        HwLoopOp::Endi => l.end = pc.wrapping_add(value as u64),
                        HwLoopOp::Count => l.count = self.x[rs1.index() as usize] as u32 as u64,
                        HwLoopOp::Counti => l.count = value as u64,
                    }
                }
                Inst::Simd {
                    op,
                    fmt,
                    rd,
                    rs1,
                    rs2,
                    scalar_rs2,
                } => {
                    self.exec_simd(op, fmt, rd, rs1, rs2, scalar_rs2);
                }
                Inst::SimdFp { op, rd, rs1, rs2 } => {
                    self.exec_simd_fp(op, rd, rs1, rs2);
                }
            }
            Ok(())
        })();
        match exec_result {
            Ok(()) => {}
            // A data-access trap was taken: the instruction is abandoned
            // and control resumes at the handler `raise` installed.
            Err(RvError::TrapTaken) => {
                next_pc = self.pc;
                control_transfer = true;
                trapped = true;
            }
            Err(e) => return Err(e),
        }
        if trapped {
            penalty += self.cost.branch_taken_penalty;
        }

        // Only Xpulp cores can ever arm a hardware loop, so gate the scan
        // on the extension flag rather than probing both slots every retire.
        if self.xpulp && !control_transfer && !halted {
            next_pc = self.hwloop_edge(next_pc);
        }

        self.pc = next_pc;
        self.halted = halted;
        self.instret += 1;
        self.counters.mem_stall_cycles += extra.get();
        let total = Cycles::new(base_cost + penalty) + extra;
        self.cycles += total;
        if self.observe {
            if let Some(t) = &self.tracer {
                let mut t = t.borrow_mut();
                t.set_now(self.trace_base + self.cycles.get());
                t.record(self.track, TraceEvent::Retire { pc, word });
            }
            if let Some(p) = &mut self.profile {
                p.record(pc, word, total.get());
            }
        }
        if halted {
            // Final decode-cache counter sample for the Chrome trace.
            self.trace_decode_counters();
        }
        Ok(StepOutcome {
            cycles: total,
            halted,
        })
    }

    /// Runs until `ebreak` or until `max_cycles` elapse.
    ///
    /// Returns the cycles consumed by this call.
    ///
    /// # Errors
    ///
    /// Propagates [`Core::step`] errors and returns [`RvError::Timeout`]
    /// when the budget expires.
    pub fn run<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        max_cycles: u64,
    ) -> Result<Cycles, RvError> {
        let start = self.cycles;
        self.run_loop(bus, u64::MAX, start.get().saturating_add(max_cycles))?;
        Ok(self.cycles - start)
    }

    /// Runs until `ebreak` or until the core's *total* cycle count reaches
    /// `target`, whichever comes first, and reports whether the core
    /// halted. Unlike [`Core::run`] reaching the target is not an error:
    /// the timeline sampler uses this to chunk a run into sampling windows
    /// — the retire sequence is identical to one uninterrupted
    /// [`Core::run`], so chunked and unchunked runs are cycle-bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates [`Core::step`] errors.
    pub fn run_until_cycle<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        target: u64,
    ) -> Result<bool, RvError> {
        self.run_loop(bus, target, u64::MAX)
    }

    /// Executes a *pure* instruction inline — no memory, no CSRs, no
    /// traps, no control transfer — returning `false` without any side
    /// effect for everything that must go through [`Core::execute`].
    /// The bodies mirror `Core::execute` (shared helpers where they are
    /// non-trivial), so [`Core::run_loop`]'s inline retires and the
    /// interpreter cannot drift apart.
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
            // Xpulp: the MAC, ALU and SIMD forms of the RI5CY kernels'
            // inner loops. A CVA6 never decodes them.
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

    /// The Xpulp hardware-loop back-edge of an instruction that retires
    /// without a control transfer and falls through to `next_pc`: the
    /// first armed loop (loop 0 first) that ends at `next_pc` branches
    /// back to its start at zero cycles, counting an `hwloop_iters`, or
    /// disarms on its last iteration. Returns the PC to continue at.
    /// [`Core::execute`] and [`Core::run_loop`]'s inline retires both
    /// take the back-edge here.
    #[inline(always)]
    fn hwloop_edge(&mut self, next_pc: u64) -> u64 {
        for l in &mut self.hwloops {
            if l.count > 0 && next_pc == l.end {
                if l.count > 1 {
                    l.count -= 1;
                    self.counters.hwloop_iters += 1;
                    return l.start;
                }
                l.count = 0;
                break;
            }
        }
        next_pc
    }

    /// The armed hardware-loop ends, for [`Core::run_loop`] to compare
    /// each inline retire's next PC against. A disarmed slot, and every
    /// slot on a core without Xpulp, holds `u64::MAX`: a PC never reaches
    /// it (every PC is fetched, and no bus maps the top of the address
    /// space), and a spurious match would only cost the exact check in
    /// [`Core::hwloop_edge`].
    #[inline(always)]
    fn hwloop_ends(&self) -> [u64; 2] {
        let end = |l: &HwLoopState| {
            if self.xpulp && l.count > 0 {
                l.end
            } else {
                u64::MAX
            }
        };
        [end(&self.hwloops[0]), end(&self.hwloops[1])]
    }

    /// Whether data accesses translate by the identity map under the
    /// current CSR file and privilege mode. Reads `mmu_cache` without
    /// refreshing it: the cache is part of a snapshot, and the step loop
    /// refreshes it only where it translates.
    #[inline(always)]
    fn data_bare(&self) -> bool {
        let m = &self.mmu_cache;
        if m.version == self.csrs.version() && m.mode == self.priv_mode {
            !m.active
        } else {
            !mmu::sv39_active(self.csrs.satp(), self.priv_mode)
        }
    }

    /// The one run loop behind [`Core::run`] (`stop_at = u64::MAX`) and
    /// [`Core::run_until_cycle`] (`limit = u64::MAX`).
    ///
    /// With the inline replay armed ([`Core::set_superblocks`], with the
    /// decode cache on and no observability hook) it replays decode-cache
    /// slots by PC with the PC, cycle and instret counts held in locals.
    /// Each slot must pass [`Core::replay_slot`], the predicate of
    /// [`Core::step`]'s replay path, so the memory system sees the same
    /// fetch touches and the `decode_*`/`itlb_*` counters tick as they
    /// would under `step`. Pure entries retire through
    /// [`Core::sb_inline_exec`] and, while translation is bare, integer
    /// loads, stores and post-increment accesses through
    /// [`Core::inline_mem`]; each inline retire then takes the
    /// hardware-loop back-edge ([`Core::hwloop_edge`]) when its next PC
    /// is an armed loop end. Every other entry goes through
    /// [`Core::execute`] with the locals flushed before and reloaded
    /// after. A slot that fails the predicate gets exactly one `step`,
    /// which polls interrupts and installs the slot. An unchanged CSR
    /// version proves no interrupt became takeable, exactly as on the
    /// replay path of `step`.
    ///
    /// The budget is checked before every entry and the limit after
    /// every retire, so a chunked run stops on the same retire boundary
    /// as an unchunked one. The loop keeps no state between calls.
    fn run_loop<B: CoreBus + ?Sized>(
        &mut self,
        bus: &mut B,
        stop_at: u64,
        limit: u64,
    ) -> Result<bool, RvError> {
        let start = self.cycles;
        let timeout = |core: &Core| RvError::Timeout {
            cycles: (core.cycles - start).get(),
        };
        let inline = self.sb_enabled && self.decode_enabled && !self.observe;
        while !self.halted && self.cycles.get() < stop_at {
            if inline {
                let mut pc = self.pc;
                let mut cycles = self.cycles.get();
                let mut instret = self.instret;
                // The stamp inputs, the translation mode and the
                // hardware-loop state change only through `execute`.
                let mut gen = self.decode_gen;
                let mut version = self.csrs.version();
                let mut epoch = bus.fetch_epoch();
                let mut mode = self.priv_mode;
                let mut bare = self.data_bare();
                let mut ends = self.hwloop_ends();
                while cycles < stop_at {
                    let Some(e) = self.replay_slot(bus, pc, gen, version, epoch, mode) else {
                        break;
                    };
                    let (inst, ilen, word, cost, paged) = (e.inst, e.ilen, e.word, e.cost, e.paged);
                    self.counters.decode_hits += 1;
                    self.counters.itlb_hits += u64::from(paged);
                    self.counters.sb_instrs_retired += 1;
                    let stall = if self.sb_inline_exec(pc, &inst) {
                        Some(0)
                    } else if bare {
                        match self.inline_mem(bus, &inst) {
                            Ok(stall) => stall,
                            Err(e) => {
                                // Nothing retired: the core stays on the
                                // access, as `execute` leaves it.
                                self.pc = pc;
                                self.cycles = Cycles::new(cycles);
                                self.instret = instret;
                                return Err(e);
                            }
                        }
                    } else {
                        None
                    };
                    if let Some(stall) = stall {
                        // A data access moves no fetch state.
                        debug_assert_eq!(bus.fetch_epoch(), epoch);
                        pc = pc.wrapping_add(u64::from(ilen));
                        if pc == ends[0] || pc == ends[1] {
                            pc = self.hwloop_edge(pc);
                            ends = self.hwloop_ends();
                        }
                        cycles += u64::from(cost) + stall;
                        instret += 1;
                        if cycles > limit {
                            break;
                        }
                        continue;
                    }
                    self.pc = pc;
                    self.cycles = Cycles::new(cycles);
                    self.instret = instret;
                    let out = self.execute(
                        bus,
                        pc,
                        inst,
                        u64::from(ilen),
                        word,
                        u64::from(cost),
                        Cycles::ZERO,
                    )?;
                    (pc, cycles, instret) = (self.pc, self.cycles.get(), self.instret);
                    if out.halted || cycles > limit {
                        break;
                    }
                    gen = self.decode_gen;
                    version = self.csrs.version();
                    epoch = bus.fetch_epoch();
                    mode = self.priv_mode;
                    bare = self.data_bare();
                    ends = self.hwloop_ends();
                }
                self.pc = pc;
                self.cycles = Cycles::new(cycles);
                self.instret = instret;
                if !self.halted && cycles > limit {
                    return Err(timeout(self));
                }
                if self.halted || cycles >= stop_at {
                    break;
                }
            }
            let out = self.step(bus)?;
            if out.halted {
                break;
            }
            if self.cycles.get() > limit {
                return Err(timeout(self));
            }
        }
        Ok(self.halted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    fn run_rv64(build: impl FnOnce(&mut Asm)) -> (Core, FlatBus) {
        let mut a = Asm::new(Xlen::Rv64);
        build(&mut a);
        a.ebreak();
        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &a.assemble().expect("assemble"));
        let mut core = Core::cva6();
        core.set_reg(Reg::Sp, 0x8000);
        core.run(&mut bus, 1_000_000).expect("run");
        (core, bus)
    }

    fn run_rv32(build: impl FnOnce(&mut Asm)) -> (Core, FlatBus) {
        let mut a = Asm::new(Xlen::Rv32);
        build(&mut a);
        a.ebreak();
        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &a.assemble().expect("assemble"));
        let mut core = Core::ri5cy(0);
        core.set_reg(Reg::Sp, 0x8000);
        core.run(&mut bus, 1_000_000).expect("run");
        (core, bus)
    }

    #[test]
    fn arithmetic_basics() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 20);
            a.li(Reg::T1, 22);
            a.add(Reg::A0, Reg::T0, Reg::T1);
            a.sub(Reg::A1, Reg::T0, Reg::T1);
            a.mul(Reg::A2, Reg::T0, Reg::T1);
        });
        assert_eq!(c.reg(Reg::A0), 42);
        assert_eq!(c.reg(Reg::A1) as i64, -2);
        assert_eq!(c.reg(Reg::A2), 440);
    }

    #[test]
    fn zero_register_immutable() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 5);
            a.add(Reg::Zero, Reg::T0, Reg::T0);
            a.add(Reg::A0, Reg::Zero, Reg::Zero);
        });
        assert_eq!(c.reg(Reg::A0), 0);
    }

    #[test]
    fn loads_and_stores() {
        let (c, bus) = run_rv64(|a| {
            a.li(Reg::T0, 0x1234_5678_9ABC_DEF0u64 as i64);
            a.sd(Reg::T0, Reg::Sp, 0);
            a.lw(Reg::A0, Reg::Sp, 0);
            a.lwu(Reg::A1, Reg::Sp, 0);
            a.lb(Reg::A2, Reg::Sp, 0);
            a.lbu(Reg::A3, Reg::Sp, 0);
            a.lh(Reg::A4, Reg::Sp, 0);
            a.ld(Reg::A5, Reg::Sp, 0);
        });
        assert_eq!(bus.read_u64(0x8000), 0x1234_5678_9ABC_DEF0);
        assert_eq!(c.reg(Reg::A0), 0xFFFF_FFFF_9ABC_DEF0); // sign-extended
        assert_eq!(c.reg(Reg::A1), 0x9ABC_DEF0);
        assert_eq!(c.reg(Reg::A2), 0xFFFF_FFFF_FFFF_FFF0);
        assert_eq!(c.reg(Reg::A3), 0xF0);
        assert_eq!(c.reg(Reg::A4), 0xFFFF_FFFF_FFFF_DEF0);
        assert_eq!(c.reg(Reg::A5), 0x1234_5678_9ABC_DEF0);
    }

    #[test]
    fn branches_and_loops() {
        // Compute 10! iteratively.
        let (c, _) = run_rv64(|a| {
            a.li(Reg::A0, 1);
            a.li(Reg::T0, 10);
            let top = a.label();
            a.bind(top);
            a.mul(Reg::A0, Reg::A0, Reg::T0);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        });
        assert_eq!(c.reg(Reg::A0), 3_628_800);
    }

    #[test]
    fn division_edge_cases() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 7);
            a.li(Reg::T1, 0);
            a.div(Reg::A0, Reg::T0, Reg::T1); // div by zero -> -1
            a.rem(Reg::A1, Reg::T0, Reg::T1); // rem by zero -> dividend
            a.li(Reg::T2, i64::MIN);
            a.li(Reg::T3, -1);
            a.div(Reg::A2, Reg::T2, Reg::T3); // overflow -> MIN
        });
        assert_eq!(c.reg(Reg::A0), u64::MAX);
        assert_eq!(c.reg(Reg::A1), 7);
        assert_eq!(c.reg(Reg::A2), i64::MIN as u64);
    }

    #[test]
    fn rv64_word_ops_sign_extend() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 0x7FFF_FFFF);
            a.addiw(Reg::A0, Reg::T0, 1); // wraps to i32::MIN, sign-extends
            a.li(Reg::T1, 1);
            a.sllw(Reg::A1, Reg::T1, Reg::T0); // shift by 31 (mod 32)
        });
        assert_eq!(c.reg(Reg::A0), 0xFFFF_FFFF_8000_0000);
        assert_eq!(c.reg(Reg::A1), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn jal_and_jalr_link() {
        let (c, _) = run_rv64(|a| {
            let func = a.label();
            let done = a.label();
            a.li(Reg::A0, 0);
            a.call(func);
            a.j(done);
            a.bind(func);
            a.li(Reg::A0, 99);
            a.ret();
            a.bind(done);
        });
        assert_eq!(c.reg(Reg::A0), 99);
    }

    #[test]
    fn fp_single_precision() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 3);
            a.fcvt_s_w(crate::inst::FReg(0), Reg::T0);
            a.li(Reg::T1, 4);
            a.fcvt_s_w(crate::inst::FReg(1), Reg::T1);
            a.fmul_s(
                crate::inst::FReg(2),
                crate::inst::FReg(0),
                crate::inst::FReg(1),
            );
            a.fcvt_w_s(Reg::A0, crate::inst::FReg(2));
            // fma: 3*4+4 = 16
            a.fmadd_s(
                crate::inst::FReg(3),
                crate::inst::FReg(0),
                crate::inst::FReg(1),
                crate::inst::FReg(1),
            );
            a.fcvt_w_s(Reg::A1, crate::inst::FReg(3));
        });
        assert_eq!(c.reg(Reg::A0), 12);
        assert_eq!(c.reg(Reg::A1), 16);
    }

    #[test]
    fn fp_double_precision_division() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 1);
            a.fcvt_d_l(crate::inst::FReg(0), Reg::T0);
            a.li(Reg::T1, 8);
            a.fcvt_d_l(crate::inst::FReg(1), Reg::T1);
            a.fdiv_d(
                crate::inst::FReg(2),
                crate::inst::FReg(0),
                crate::inst::FReg(1),
            );
            a.fmv_x_d(Reg::A0, crate::inst::FReg(2));
        });
        assert_eq!(f64::from_bits(c.reg(Reg::A0)), 0.125);
    }

    #[test]
    fn xpulp_post_increment() {
        let (c, _) = run_rv32(|a| {
            a.li(Reg::T0, 0x100);
            a.li(Reg::T1, 7);
            a.sw(Reg::T1, Reg::T0, 0);
            a.li(Reg::T1, 9);
            a.sw(Reg::T1, Reg::T0, 4);
            a.p_lw_post(Reg::A0, Reg::T0, 4);
            a.p_lw_post(Reg::A1, Reg::T0, 4);
            a.mv(Reg::A2, Reg::T0);
        });
        assert_eq!(c.reg(Reg::A0), 7);
        assert_eq!(c.reg(Reg::A1), 9);
        assert_eq!(c.reg(Reg::A2), 0x108);
    }

    #[test]
    fn xpulp_mac() {
        let (c, _) = run_rv32(|a| {
            a.li(Reg::A0, 100);
            a.li(Reg::T0, 6);
            a.li(Reg::T1, 7);
            a.p_mac(Reg::A0, Reg::T0, Reg::T1);
            a.p_msu(Reg::A0, Reg::T0, Reg::T1);
            a.p_mac(Reg::A0, Reg::T0, Reg::T1);
        });
        assert_eq!(c.reg(Reg::A0), 142);
    }

    #[test]
    fn xpulp_hardware_loop() {
        // Sum 1..=100 with a zero-overhead loop.
        let (c, _) = run_rv32(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, 1);
            a.lp_counti(0, 100);
            let (start, end) = (a.label(), a.label());
            a.lp_starti(0, start);
            a.lp_endi(0, end);
            a.bind(start);
            a.add(Reg::A0, Reg::A0, Reg::T0);
            a.addi(Reg::T0, Reg::T0, 1);
            a.bind(end);
        });
        assert_eq!(c.reg(Reg::A0), 5050);
    }

    #[test]
    fn hardware_loop_is_zero_overhead() {
        // The same reduction with a hw loop vs a bnez loop: the hw loop
        // saves the taken-branch penalty every iteration.
        let body = 1000u64;
        let (hw, _) = run_rv32(|a| {
            a.li(Reg::A0, 0);
            a.lp_counti(0, body as i64);
            let (s, e) = (a.label(), a.label());
            a.lp_starti(0, s);
            a.lp_endi(0, e);
            a.bind(s);
            a.addi(Reg::A0, Reg::A0, 1);
            a.bind(e);
        });
        let (sw, _) = run_rv32(|a| {
            a.li(Reg::A0, 0);
            a.li(Reg::T0, body as i64);
            let top = a.label();
            a.bind(top);
            a.addi(Reg::A0, Reg::A0, 1);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        });
        assert_eq!(hw.reg(Reg::A0), body);
        assert_eq!(sw.reg(Reg::A0), body);
        assert!(hw.cycles().get() + 2 * body < sw.cycles().get());
    }

    #[test]
    fn nested_hardware_loops() {
        let (c, _) = run_rv32(|a| {
            a.li(Reg::A0, 0);
            a.lp_counti(1, 10);
            let (s1, e1) = (a.label(), a.label());
            a.lp_starti(1, s1);
            a.lp_endi(1, e1);
            a.bind(s1);
            a.lp_counti(0, 10);
            let (s0, e0) = (a.label(), a.label());
            a.lp_starti(0, s0);
            a.lp_endi(0, e0);
            a.bind(s0);
            a.addi(Reg::A0, Reg::A0, 1);
            a.bind(e0);
            // The two loop end addresses must differ (as in RI5CY).
            a.nop();
            a.bind(e1);
        });
        assert_eq!(c.reg(Reg::A0), 100);
    }

    #[test]
    fn simd_int8_dot_product() {
        let (c, _) = run_rv32(|a| {
            // a = [1, 2, 3, 4], b = [10, 20, 30, 40] (packed bytes)
            a.li(Reg::T0, 0x0403_0201);
            a.li(
                Reg::T1,
                i64::from(10u32 | (20 << 8) | (30 << 16) | (40 << 24)),
            );
            a.li(Reg::A0, 5);
            a.pv_sdotsp_b(Reg::A0, Reg::T0, Reg::T1);
        });
        // 5 + 1*10 + 2*20 + 3*30 + 4*40 = 305
        assert_eq!(c.reg(Reg::A0), 305);
    }

    #[test]
    fn simd_negative_lanes() {
        let (c, _) = run_rv32(|a| {
            // a = [-1, -2, 3, 4]
            let av = (0xFFu32) | (0xFE << 8) | (3 << 16) | (4 << 24);
            a.li(Reg::T0, av as i64);
            let bv = 1u32 | (1 << 8) | (1 << 16) | (1 << 24);
            a.li(Reg::T1, bv as i64);
            a.li(Reg::A0, 0);
            a.pv_sdotsp_b(Reg::A0, Reg::T0, Reg::T1);
            a.pv_add_b(Reg::A1, Reg::T0, Reg::T1);
        });
        assert_eq!(c.reg(Reg::A0), 4); // -1-2+3+4
        let lanes = c.reg(Reg::A1) as u32;
        assert_eq!(lanes & 0xFF, 0); // -1+1
        assert_eq!((lanes >> 8) & 0xFF, 0xFF); // -2+1 = -1
    }

    #[test]
    fn simd_fp16() {
        use crate::fp16::pack2;
        let (c, _) = run_rv32(|a| {
            a.li(Reg::T0, pack2(1.5, 2.0) as i64);
            a.li(Reg::T1, pack2(4.0, 0.5) as i64);
            a.li(Reg::A0, 0);
            a.vfdotpex_s_h(Reg::A0, Reg::T0, Reg::T1);
            a.vfadd_h(Reg::A1, Reg::T0, Reg::T1);
        });
        assert_eq!(f32::from_bits(c.reg(Reg::A0) as u32), 7.0); // 1.5*4 + 2*0.5
        let (lo, hi) = crate::fp16::unpack2(c.reg(Reg::A1) as u32);
        assert_eq!((lo, hi), (5.5, 2.5));
    }

    #[test]
    fn pulp_alu_clip_and_ext() {
        let (c, _) = run_rv32(|a| {
            a.li(Reg::T0, 300);
            a.li(Reg::T1, 127);
            a.p_clip(Reg::A0, Reg::T0, Reg::T1);
            a.li(Reg::T0, -300);
            a.p_clip(Reg::A1, Reg::T0, Reg::T1);
            a.li(Reg::T0, 0xFFFF_8001u32 as i64);
            a.p_exths(Reg::A2, Reg::T0);
            a.p_exthz(Reg::A3, Reg::T0);
        });
        assert_eq!(c.reg(Reg::A0), 127);
        assert_eq!(c.reg(Reg::A1) as u32 as i32, -128);
        assert_eq!(c.reg(Reg::A2) as u32, 0xFFFF_8001);
        assert_eq!(c.reg(Reg::A3), 0x8001);
    }

    #[test]
    fn xpulp_bit_manipulation() {
        let (c, _) = run_rv32(|a| {
            a.li(Reg::T0, 0b1011_0000);
            a.p_cnt(Reg::A0, Reg::T0);
            a.p_ff1(Reg::A1, Reg::T0);
            a.p_fl1(Reg::A2, Reg::T0);
            a.li(Reg::T1, 8);
            a.p_ror(Reg::A3, Reg::T0, Reg::T1);
            a.li(Reg::T2, 0);
            a.p_cnt(Reg::A4, Reg::T2);
            a.p_ff1(Reg::A5, Reg::T2);
        });
        assert_eq!(c.reg(Reg::A0), 3);
        assert_eq!(c.reg(Reg::A1), 4);
        assert_eq!(c.reg(Reg::A2), 7);
        assert_eq!(c.reg(Reg::A3), 0xB000_0000);
        assert_eq!(c.reg(Reg::A4), 0);
        assert_eq!(c.reg(Reg::A5), 32);
    }

    #[test]
    fn simd_extract_insert_shuffle() {
        let (c, _) = run_rv32(|a| {
            // lanes = [1, -2, 3, 4]
            let v = 1u32 | (0xFE << 8) | (3 << 16) | (4 << 24);
            a.li(Reg::T0, v as i64);
            a.li(Reg::T1, 1);
            a.pv_extract_b(Reg::A0, Reg::T0, Reg::T1); // lane 1 = -2, sext
                                                       // insert 0x7F into lane 2
            a.mv(Reg::A1, Reg::T0);
            a.li(Reg::T2, 0x7F);
            a.li(Reg::T3, 2);
            a.pv_insert_b(Reg::A1, Reg::T2, Reg::T3);
            // reverse the lanes: indices [3,2,1,0]
            let idx = 3u32 | (2 << 8) | (1 << 16); // lane3 idx = 0
            a.li(Reg::T4, idx as i64);
            a.pv_shuffle_b(Reg::A2, Reg::T0, Reg::T4);
        });
        assert_eq!(c.reg(Reg::A0) as u32 as i32, -2);
        let inserted = c.reg(Reg::A1) as u32;
        assert_eq!((inserted >> 16) & 0xFF, 0x7F);
        assert_eq!(inserted & 0xFFFF, 0xFE01);
        let shuf = c.reg(Reg::A2) as u32;
        assert_eq!(shuf & 0xFF, 4); // lane0 = old lane3
        assert_eq!((shuf >> 8) & 0xFF, 3);
        assert_eq!((shuf >> 16) & 0xFF, 0xFE);
        assert_eq!((shuf >> 24) & 0xFF, 1);
    }

    #[test]
    fn amo_and_lrsc() {
        let (c, bus) = run_rv64(|a| {
            a.li(Reg::T0, 0x4000);
            a.li(Reg::T1, 10);
            a.sd(Reg::T1, Reg::T0, 0);
            a.li(Reg::T2, 32);
            a.amoadd_d(Reg::A0, Reg::T2, Reg::T0); // old = 10, mem = 42
            a.lr_d(Reg::A1, Reg::T0);
            a.li(Reg::T3, 100);
            a.sc_d(Reg::A2, Reg::T3, Reg::T0); // succeeds -> 0
            a.sc_d(Reg::A3, Reg::T3, Reg::T0); // no reservation -> 1
        });
        assert_eq!(c.reg(Reg::A0), 10);
        assert_eq!(c.reg(Reg::A1), 42);
        assert_eq!(c.reg(Reg::A2), 0);
        assert_eq!(c.reg(Reg::A3), 1);
        assert_eq!(bus.read_u64(0x4000), 100);
    }

    #[test]
    fn csr_cycle_and_instret() {
        let (c, _) = run_rv64(|a| {
            a.csrr(Reg::A0, addr::INSTRET);
            a.nop();
            a.nop();
            a.csrr(Reg::A1, addr::INSTRET);
            a.csrr(Reg::A2, addr::CYCLE);
        });
        assert_eq!(c.reg(Reg::A1) - c.reg(Reg::A0), 3);
        assert!(c.reg(Reg::A2) > 0);
    }

    #[test]
    fn ecall_traps_to_mtvec() {
        let mut a = Asm::new(Xlen::Rv64);
        // handler at 0x100: set a0=77, mret.
        a.li(Reg::T0, 0x100);
        a.csrw(addr::MTVEC, Reg::T0);
        a.ecall();
        a.ebreak();
        let words = a.assemble().unwrap();
        let mut h = Asm::new(Xlen::Rv64);
        h.li(Reg::A0, 77);
        h.csrr(Reg::T1, addr::MEPC);
        h.addi(Reg::T1, Reg::T1, 4);
        h.csrw(addr::MEPC, Reg::T1);
        h.mret();
        let handler = h.assemble().unwrap();
        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &words);
        bus.load_words(0x100, &handler);
        let mut core = Core::cva6();
        core.run(&mut bus, 100_000).unwrap();
        assert_eq!(core.reg(Reg::A0), 77);
        assert!(core.is_halted());
    }

    #[test]
    fn executes_compressed_instructions() {
        // Hand-packed mixed stream: c.li a0, 5 ; c.addi a0, 3 ; c.mv a1, a0 ;
        // 32-bit addi a2, a1, 100 ; c.ebreak.
        let mut bus = FlatBus::new(256);
        let halves: [u16; 3] = [0x4515, 0x050D, 0x85AA];
        let mut bytes = Vec::new();
        for h in halves {
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        bytes.extend_from_slice(
            &crate::encode::encode(&Inst::OpImm {
                op: AluOp::Add,
                rd: Reg::A2,
                rs1: Reg::A1,
                imm: 100,
            })
            .unwrap()
            .to_le_bytes(),
        );
        bytes.extend_from_slice(&0x9002u16.to_le_bytes()); // c.ebreak
        bus.write_bytes(0, &bytes);

        let mut core = Core::cva6();
        core.run(&mut bus, 1000).unwrap();
        assert!(core.is_halted());
        assert_eq!(core.reg(Reg::A0), 8);
        assert_eq!(core.reg(Reg::A1), 8);
        assert_eq!(core.reg(Reg::A2), 108);
        // pc stops on the c.ebreak at byte 10, which advances it by 2.
        assert_eq!(core.pc(), 12);
        assert_eq!(core.instret(), 5);
    }

    #[test]
    fn compressed_jalr_links_pc_plus_2() {
        // c.jalr through t0 must link pc+2, not pc+4.
        let mut bus = FlatBus::new(256);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(
            &crate::encode::encode(&Inst::OpImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::Zero,
                imm: 0x20,
            })
            .unwrap()
            .to_le_bytes(),
        );
        bytes.extend_from_slice(&0x9282u16.to_le_bytes()); // c.jalr t0
        bus.write_bytes(0, &bytes);
        bus.load_words(0x20, &[0x0010_0073]); // ebreak at the target
        let mut core = Core::cva6();
        core.run(&mut bus, 1000).unwrap();
        assert_eq!(core.reg(Reg::Ra), 6, "link = pc(4) + 2");
    }

    #[test]
    fn timer_interrupt_taken_when_enabled() {
        // Main loop spins; the handler sets a flag, clears the interrupt
        // and mret-continues; the loop sees the flag and exits.
        let mut main = Asm::new(Xlen::Rv64);
        main.li(Reg::T0, 0x100);
        main.csrw(addr::MTVEC, Reg::T0);
        main.li(Reg::T0, 1 << 7); // MTIE
        main.csrw(addr::MIE, Reg::T0);
        main.li(Reg::T0, 1 << 3); // MIE
        main.csrw(addr::MSTATUS, Reg::T0);
        let spin = main.label();
        main.bind(spin);
        main.beqz(Reg::A0, spin);
        main.ebreak();
        let mut handler = Asm::new(Xlen::Rv64);
        handler.li(Reg::A0, 1);
        handler.li(Reg::T1, 1 << 7);
        handler.csrr(Reg::T2, addr::MIP);
        handler.xor(Reg::T2, Reg::T2, Reg::T1);
        handler.csrw(addr::MIP, Reg::T2); // clear MTIP
        handler.mret();

        let mut bus = FlatBus::new(1 << 12);
        bus.load_words(0, &main.assemble().unwrap());
        bus.load_words(0x100, &handler.assemble().unwrap());
        let mut core = Core::cva6();
        // Run a few instructions, then the "CLINT" fires.
        for _ in 0..6 {
            core.step(&mut bus).unwrap();
        }
        assert_eq!(core.stats().get("interrupts"), 0);
        core.set_interrupt_pending(7, true);
        core.run(&mut bus, 10_000).unwrap();
        assert!(core.is_halted());
        assert_eq!(core.reg(Reg::A0), 1);
        assert_eq!(core.stats().get("interrupts"), 1);
        // mcause recorded the interrupt.
        assert_eq!(core.csrs().read(addr::MCAUSE), (1 << 63) | 7);
    }

    #[test]
    fn interrupt_masked_when_mie_clear() {
        let mut main = Asm::new(Xlen::Rv64);
        main.li(Reg::T0, 0x100);
        main.csrw(addr::MTVEC, Reg::T0);
        main.li(Reg::T0, 1 << 7);
        main.csrw(addr::MIE, Reg::T0);
        // mstatus.MIE left clear: interrupt must not fire in M-mode.
        for _ in 0..10 {
            main.nop();
        }
        main.ebreak();
        let mut bus = FlatBus::new(1 << 12);
        bus.load_words(0, &main.assemble().unwrap());
        let mut core = Core::cva6();
        core.set_interrupt_pending(7, true);
        core.run(&mut bus, 10_000).unwrap();
        assert!(core.is_halted());
        assert_eq!(core.stats().get("interrupts"), 0);
    }

    #[test]
    fn illegal_instruction_without_handler_errors() {
        let mut bus = FlatBus::new(64);
        bus.load_words(0, &[0xFFFF_FFFF]);
        let mut core = Core::cva6();
        let err = core.run(&mut bus, 100).unwrap_err();
        assert!(matches!(err, RvError::IllegalInstruction { .. }));
    }

    #[test]
    fn xpulp_rejected_on_host() {
        let mut a = Asm::new(Xlen::Rv32);
        a.p_mac(Reg::A0, Reg::A1, Reg::A2);
        let words = a.assemble().unwrap();
        let mut bus = FlatBus::new(64);
        bus.load_words(0, &words);
        let mut core = Core::cva6();
        let err = core.run(&mut bus, 100).unwrap_err();
        assert!(matches!(err, RvError::IllegalInstruction { .. }));
    }

    #[test]
    fn cpi_is_one_on_alu_stream() {
        let (c, _) = run_rv64(|a| {
            for _ in 0..100 {
                a.addi(Reg::T0, Reg::T0, 1);
            }
        });
        // 100 addi + ebreak; all single-cycle on a zero-wait bus.
        assert_eq!(c.cycles().get(), 101);
        assert_eq!(c.instret(), 101);
    }

    #[test]
    fn trace_records_retired_instructions() {
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::T0, 1);
        a.li(Reg::T1, 2);
        a.add(Reg::A0, Reg::T0, Reg::T1);
        a.ebreak();
        let mut bus = FlatBus::new(1024);
        bus.load_words(0, &a.assemble().unwrap());
        let mut core = Core::cva6();
        core.enable_trace(16);
        core.run(&mut bus, 1000).unwrap();
        let t = core.trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].pc, 0);
        assert_eq!(t[3].inst, Inst::Ebreak);
        let dis = core.trace_disassembly();
        assert!(dis.contains("add a0, t0, t1"), "{dis}");
        assert!(dis.contains("ebreak"));
    }

    #[test]
    fn trace_ring_keeps_only_the_tail() {
        let mut a = Asm::new(Xlen::Rv64);
        for _ in 0..20 {
            a.nop();
        }
        a.ebreak();
        let mut bus = FlatBus::new(1024);
        bus.load_words(0, &a.assemble().unwrap());
        let mut core = Core::cva6();
        core.enable_trace(5);
        core.run(&mut bus, 1000).unwrap();
        let t = core.trace();
        assert_eq!(t.len(), 5);
        assert_eq!(t.last().unwrap().inst, Inst::Ebreak);
        // Oldest retained entry is instruction #16 (pc 64).
        assert_eq!(t[0].pc, 64);
    }

    #[test]
    fn stats_track_activity() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 0x4000);
            a.sd(Reg::Zero, Reg::T0, 0);
            a.ld(Reg::T1, Reg::T0, 0);
            a.add(Reg::T2, Reg::T1, Reg::T1);
        });
        assert_eq!(c.stats().get("loads"), 1);
        assert_eq!(c.stats().get("stores"), 1);
        assert!(c.stats().get("arith_ops") >= 1);
    }

    /// Runs `build` twice on fresh cores, decode cache on and off, and
    /// asserts bit-identical cycles, instret and register state.
    fn assert_decode_neutral(build: impl Fn(&mut Asm)) -> Core {
        let assemble = |build: &dyn Fn(&mut Asm)| {
            let mut a = Asm::new(Xlen::Rv64);
            build(&mut a);
            a.ebreak();
            a.assemble().expect("assemble")
        };
        let words = assemble(&build);
        let run = |decode: bool| {
            let mut bus = FlatBus::new(1 << 16);
            bus.load_words(0, &words);
            let mut core = Core::cva6();
            core.set_decode_cache(decode);
            core.set_reg(Reg::Sp, 0x8000);
            core.run(&mut bus, 1_000_000).expect("run");
            core
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.cycles(), off.cycles(), "cycle-count neutrality");
        assert_eq!(on.instret(), off.instret());
        for r in Reg::ALL {
            assert_eq!(on.reg(r), off.reg(r), "register {r:?}");
        }
        assert_eq!(off.stats().get("decode_hits"), 0);
        on
    }

    #[test]
    fn decode_cache_is_cycle_neutral_on_flat_bus() {
        let on = assert_decode_neutral(|a| {
            a.li(Reg::A0, 1);
            a.li(Reg::T0, 200);
            let top = a.label();
            a.bind(top);
            a.add(Reg::A0, Reg::A0, Reg::T0);
            a.sd(Reg::A0, Reg::Sp, 0);
            a.ld(Reg::A1, Reg::Sp, 0);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
        });
        assert!(on.stats().get("decode_hits") > 500);
    }

    #[test]
    fn fence_i_ticks_invalidation_counter() {
        let (c, _) = run_rv64(|a| {
            a.nop();
            a.fence_i();
            a.nop();
        });
        assert!(c.stats().get("decode_invalidations") >= 1);
    }

    #[test]
    fn self_modifying_code_executes_new_bytes_after_fence_i() {
        // The instruction at address 0 is executed, patched by a store,
        // fence.i'd, and executed again: the second pass must run the new
        // bytes, and the stale decoded entry must be provably dropped.
        let patch = crate::encode::encode(&Inst::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 99,
        })
        .unwrap();
        let mut a = Asm::new(Xlen::Rv64);
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.addi(Reg::A0, Reg::A0, 1); // patch site, address 0
        a.bnez(Reg::T2, done);
        a.li(Reg::T1, patch as i64);
        a.sw(Reg::T1, Reg::Zero, 0);
        a.fence_i();
        a.li(Reg::T2, 1);
        a.j(top);
        a.bind(done);
        a.ebreak();

        let mut bus = FlatBus::new(1 << 12);
        bus.load_words(0, &a.assemble().unwrap());
        let mut core = Core::cva6();
        core.run(&mut bus, 100_000).unwrap();
        assert!(core.is_halted());
        assert_eq!(core.reg(Reg::A0), 100, "1 + patched 99");
        assert!(core.stats().get("decode_invalidations") >= 1);
    }

    #[test]
    fn direct_mapped_index_aliases_resolve_by_tag() {
        // Two code blocks 8 KiB apart alias onto the same decode-cache
        // entries (4096 entries x 2-byte granularity): the pa tag must keep
        // them apart while a loop ping-pongs between the two.
        let mut near = Asm::new(Xlen::Rv64);
        near.addi(Reg::A0, Reg::A0, 1);
        near.ret();
        let mut far = Asm::new(Xlen::Rv64);
        far.addi(Reg::A0, Reg::A0, 7);
        far.ret();
        let mut main = Asm::new(Xlen::Rv64);
        main.li(Reg::T0, 0x4000); // near block, aliases 0x6000 (+8 KiB)
        main.li(Reg::T1, 0x6000);
        main.li(Reg::T2, 50);
        let top = main.label();
        main.bind(top);
        main.inst(Inst::Jalr {
            rd: Reg::Ra,
            rs1: Reg::T0,
            offset: 0,
        });
        main.inst(Inst::Jalr {
            rd: Reg::Ra,
            rs1: Reg::T1,
            offset: 0,
        });
        main.addi(Reg::T2, Reg::T2, -1);
        main.bnez(Reg::T2, top);
        main.ebreak();

        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &main.assemble().unwrap());
        bus.load_words(0x4000, &near.assemble().unwrap());
        bus.load_words(0x6000, &far.assemble().unwrap());
        let mut core = Core::cva6();
        core.run(&mut bus, 1_000_000).unwrap();
        assert_eq!(core.reg(Reg::A0), 50 * 8);
        // The aliasing halves re-miss every iteration; the loop body hits.
        assert!(core.stats().get("decode_hits") > 0);
        assert!(core.stats().get("decode_misses") >= 100);
    }

    #[test]
    fn rvc_mix_is_cycle_neutral_across_entry_boundaries() {
        // Hand-packed stream mixing 16- and 32-bit instructions so that
        // 32-bit words sit at 2-byte offsets, exercising decoded entries at
        // adjacent half-word indices. Run with the cache on and off.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x4515u16.to_le_bytes()); // c.li a0, 5
        bytes.extend_from_slice(
            &crate::encode::encode(&Inst::OpImm {
                op: AluOp::Add,
                rd: Reg::A2,
                rs1: Reg::A0,
                imm: 100,
            })
            .unwrap()
            .to_le_bytes(),
        );
        bytes.extend_from_slice(&0x050Du16.to_le_bytes()); // c.addi a0, 3
        bytes.extend_from_slice(&0x85AAu16.to_le_bytes()); // c.mv a1, a0
                                                           // Loop: addi t0, t0, -1 ; bnez t0, -12 (back to the c.li).
        bytes.extend_from_slice(
            &crate::encode::encode(&Inst::OpImm {
                op: AluOp::Add,
                rd: Reg::T0,
                rs1: Reg::T0,
                imm: -1,
            })
            .unwrap()
            .to_le_bytes(),
        );
        bytes.extend_from_slice(
            &crate::encode::encode(&Inst::Branch {
                cond: crate::inst::BranchCond::Ne,
                rs1: Reg::T0,
                rs2: Reg::Zero,
                offset: -14,
            })
            .unwrap()
            .to_le_bytes(),
        );
        bytes.extend_from_slice(&0x9002u16.to_le_bytes()); // c.ebreak

        let run = |decode: bool| {
            let mut bus = FlatBus::new(1 << 12);
            bus.write_bytes(0x100, &bytes);
            let mut core = Core::cva6();
            core.set_decode_cache(decode);
            core.set_pc(0x100);
            core.set_reg(Reg::T0, 40);
            core.run(&mut bus, 100_000).unwrap();
            core
        };
        let on = run(true);
        let off = run(false);
        assert!(on.is_halted());
        assert_eq!(on.cycles(), off.cycles());
        assert_eq!(on.instret(), off.instret());
        assert_eq!(on.reg(Reg::A0), 8);
        assert_eq!(on.reg(Reg::A1), 8);
        assert_eq!(on.reg(Reg::A2), 105);
        assert!(on.stats().get("decode_hits") > 100);
    }

    /// Writes a Sv39 PTE (`pa` with `flags`) at `at` in flat memory.
    fn write_pte(bus: &mut FlatBus, at: u64, pa: u64, flags: u64) {
        bus.write_bytes(at, &(((pa >> 12) << 10) | flags).to_le_bytes());
    }

    #[test]
    fn micro_tlb_does_not_survive_satp_rewrite() {
        // Two page-table sets map the SAME virtual page to different
        // physical code; after a satp rewrite the fetch µTLB must retranslate
        // rather than serve the stale physical base.
        const PTE_V: u64 = 1 << 0;
        const LEAF: u64 = PTE_V | (1 << 1) | (1 << 3) | (1 << 6); // V|R|X|A
        let mut bus = FlatBus::new(1 << 16);
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::A0, 42);
        a.ebreak();
        bus.load_words(0x3000, &a.assemble().unwrap());
        let mut b = Asm::new(Xlen::Rv64);
        b.li(Reg::A0, 99);
        b.ebreak();
        bus.load_words(0x6000, &b.assemble().unwrap());
        // VA 0x1000: vpn2 = 0, vpn1 = 0, vpn0 = 1.
        for (root, l1, l0, code) in [
            (0x8000u64, 0x9000u64, 0xA000u64, 0x3000u64),
            (0xB000, 0xC000, 0xD000, 0x6000),
        ] {
            write_pte(&mut bus, root, l1, PTE_V);
            write_pte(&mut bus, l1, l0, PTE_V);
            write_pte(&mut bus, l0 + 8, code, LEAF);
        }
        let satp1 = (8u64 << 60) | (0x8000 >> 12);
        let satp2 = (8u64 << 60) | (0xB000 >> 12);

        let mut core = Core::cva6();
        core.set_priv_mode(PrivMode::Supervisor);
        core.csrs_mut().write(addr::SATP, satp1);
        core.set_pc(0x1000);
        core.run(&mut bus, 100_000).unwrap();
        assert_eq!(core.reg(Reg::A0), 42);
        assert!(core.stats().get("itlb_hits") >= 1, "same-page fetches hit");

        core.csrs_mut().write(addr::SATP, satp2);
        core.set_pc(0x1000);
        core.resume();
        core.run(&mut bus, 100_000).unwrap();
        assert_eq!(core.reg(Reg::A0), 99, "stale µTLB served after satp write");
    }

    /// Common Sv39 fixture for the page-straddle tests: code at VA 0x1000
    /// (PA 0x3000), a data page at VA 0x4000 (PA 0x6000), and — only when
    /// `map_second` — a second data page at VA 0x5000 mapped to the
    /// *non-contiguous* PA 0x7000, so a straddling access that translated
    /// only its base address would write the wrong physical bytes. An
    /// M-mode `ebreak` handler at PA 0x2000 catches faults.
    fn straddle_soc(map_second: bool, body: impl FnOnce(&mut Asm)) -> (Core, FlatBus) {
        const PTE_V: u64 = 1 << 0;
        const RWAD: u64 = PTE_V | (1 << 1) | (1 << 2) | (1 << 6) | (1 << 7);
        const XA: u64 = PTE_V | (1 << 1) | (1 << 3) | (1 << 6);
        let mut bus = FlatBus::new(1 << 16);
        let mut a = Asm::new(Xlen::Rv64);
        body(&mut a);
        a.ebreak();
        bus.load_words(0x3000, &a.assemble().unwrap());
        bus.load_words(0x2000, &[crate::encode::encode(&Inst::Ebreak).unwrap()]);
        write_pte(&mut bus, 0x8000, 0x9000, PTE_V);
        write_pte(&mut bus, 0x9000, 0xA000, PTE_V);
        write_pte(&mut bus, 0xA000 + 8, 0x3000, XA);
        write_pte(&mut bus, 0xA000 + 8 * 4, 0x6000, RWAD);
        if map_second {
            write_pte(&mut bus, 0xA000 + 8 * 5, 0x7000, RWAD);
        }
        let mut core = Core::cva6();
        core.csrs_mut().write(addr::MTVEC, 0x2000);
        core.csrs_mut()
            .write(addr::SATP, (8u64 << 60) | (0x8000 >> 12));
        core.set_priv_mode(PrivMode::Supervisor);
        core.set_pc(0x1000);
        core.run(&mut bus, 100_000).unwrap();
        (core, bus)
    }

    #[test]
    fn straddling_store_and_load_translate_each_page() {
        let (core, bus) = straddle_soc(true, |a| {
            a.li(Reg::A1, 0x4FFC);
            a.li(Reg::T0, 0x1122_3344_5566_7788);
            a.sd(Reg::T0, Reg::A1, 0);
            a.ld(Reg::A2, Reg::A1, 0);
        });
        assert!(core.is_halted());
        assert_eq!(core.csrs().read(addr::MCAUSE), 0, "no trap expected");
        assert_eq!(core.reg(Reg::A2), 0x1122_3344_5566_7788);
        // The low half lands at the end of PA 0x6000's page, the high half
        // at the start of the non-contiguous PA 0x7000 — not at PA 0x7000-4.
        assert_eq!(bus.read_u32(0x6FFC), 0x5566_7788);
        assert_eq!(bus.read_u32(0x7000), 0x1122_3344);
    }

    #[test]
    fn straddling_load_faults_on_the_second_page() {
        let (core, _) = straddle_soc(false, |a| {
            a.li(Reg::A1, 0x4FFC);
            a.ld(Reg::A2, Reg::A1, 0);
        });
        assert!(core.is_halted(), "fault must reach the M-mode handler");
        assert_eq!(
            core.csrs().read(addr::MCAUSE),
            TrapCause::LoadPageFault.code()
        );
        // tval reports the first byte on the *faulting* page, not the base.
        assert_eq!(core.csrs().read(addr::MTVAL), 0x5000);
    }

    #[test]
    fn straddling_store_faults_without_partial_commit() {
        let (core, bus) = straddle_soc(false, |a| {
            a.li(Reg::A1, 0x4FFC);
            a.li(Reg::T0, -1);
            a.sd(Reg::T0, Reg::A1, 0);
        });
        assert!(core.is_halted());
        assert_eq!(
            core.csrs().read(addr::MCAUSE),
            TrapCause::StorePageFault.code()
        );
        assert_eq!(core.csrs().read(addr::MTVAL), 0x5000);
        // Both pages translate before any byte is written: the mapped first
        // page must be untouched even though only the second page faulted.
        assert_eq!(bus.read_u32(0x6FFC), 0);
    }

    #[test]
    fn straddling_amo_translates_both_pages() {
        let (core, bus) = straddle_soc(true, |a| {
            a.li(Reg::A1, 0x4FFC);
            a.li(Reg::T0, 1);
            a.amoadd_d(Reg::A2, Reg::T0, Reg::A1);
            a.amoadd_d(Reg::A3, Reg::T0, Reg::A1);
        });
        assert!(core.is_halted());
        assert_eq!(core.reg(Reg::A2), 0, "first AMO reads the initial zero");
        assert_eq!(core.reg(Reg::A3), 1, "second AMO observes the first");
        assert_eq!(bus.read_u32(0x6FFC), 2);
        assert_eq!(bus.read_u32(0x7000), 0);
    }

    #[test]
    fn straddling_amo_faults_on_the_second_page() {
        let (core, bus) = straddle_soc(false, |a| {
            a.li(Reg::A1, 0x4FFC);
            a.li(Reg::T0, 1);
            a.amoadd_d(Reg::A2, Reg::T0, Reg::A1);
        });
        assert!(core.is_halted());
        assert_eq!(
            core.csrs().read(addr::MCAUSE),
            TrapCause::LoadPageFault.code(),
            "the AMO's read phase touches the unmapped page first"
        );
        assert_eq!(core.csrs().read(addr::MTVAL), 0x5000);
        assert_eq!(bus.read_u32(0x6FFC), 0, "no partial commit");
    }

    #[test]
    fn hpm_counts_taken_branches_exactly() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 7); // HpmEvent::TakenBranch
            a.csrw(addr::MHPMEVENT3, Reg::T0);
            a.li(Reg::T0, 5);
            let top = a.label();
            a.bind(top);
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, top);
            a.csrr(Reg::A0, addr::MHPMCOUNTER3);
        });
        // 5 loop iterations: bnez taken 4 times, falls through on the last.
        assert_eq!(c.reg(Reg::A0), 4);
        // No taken branches after the read, so the guest-visible value must
        // equal the simulator-side counter — the cross-check invariant.
        assert_eq!(c.stats().get("taken_branches"), 4);
    }

    #[test]
    fn hpm_counter_write_reanchors() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 9); // HpmEvent::Load
            a.csrw(addr::MHPMEVENT3 + 1, Reg::T0); // mhpmevent4
            a.ld(Reg::T1, Reg::Sp, 0);
            a.ld(Reg::T1, Reg::Sp, 0);
            a.li(Reg::T0, 100);
            a.csrw(addr::MHPMCOUNTER3 + 1, Reg::T0); // mhpmcounter4
            a.ld(Reg::T1, Reg::Sp, 0);
            a.csrr(Reg::A0, addr::MHPMCOUNTER3 + 1);
        });
        assert_eq!(c.reg(Reg::A0), 101, "write sets base; one load after");
    }

    #[test]
    fn hpm_mcountinhibit_freezes_and_resumes() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 9); // HpmEvent::Load
            a.csrw(addr::MHPMEVENT3, Reg::T0);
            a.ld(Reg::T1, Reg::Sp, 0);
            a.li(Reg::T0, 1 << 3);
            a.csrw(addr::MCOUNTINHIBIT, Reg::T0); // freeze hpmcounter3
            a.ld(Reg::T1, Reg::Sp, 0);
            a.ld(Reg::T1, Reg::Sp, 0);
            a.csrr(Reg::A0, addr::MHPMCOUNTER3); // frozen at 1
            a.csrw(addr::MCOUNTINHIBIT, Reg::Zero); // thaw
            a.ld(Reg::T1, Reg::Sp, 0);
            a.csrr(Reg::A1, addr::MHPMCOUNTER3); // resumes from 1
        });
        assert_eq!(c.reg(Reg::A0), 1, "inhibited counter must not advance");
        assert_eq!(c.reg(Reg::A1), 2, "thawed counter resumes from frozen");
    }

    #[test]
    fn hpm_selector_change_preserves_value() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 9); // HpmEvent::Load
            a.csrw(addr::MHPMEVENT3, Reg::T0);
            a.ld(Reg::T1, Reg::Sp, 0);
            a.ld(Reg::T1, Reg::Sp, 0);
            a.ld(Reg::T1, Reg::Sp, 0);
            a.li(Reg::T0, 10); // switch to HpmEvent::Store
            a.csrw(addr::MHPMEVENT3, Reg::T0);
            a.sd(Reg::T1, Reg::Sp, 8);
            a.csrr(Reg::A0, addr::MHPMCOUNTER3);
        });
        // 3 loads carried over, then 1 store under the new selector.
        assert_eq!(c.reg(Reg::A0), 4);
    }

    #[test]
    fn hpm_counts_traps_and_selector_zero_reads_zero() {
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::T0, 0x100);
        a.csrw(addr::MTVEC, Reg::T0);
        a.li(Reg::T0, 8); // HpmEvent::Trap
        a.csrw(addr::MHPMEVENT3 + 2, Reg::T0); // mhpmevent5
        a.ecall();
        a.ecall();
        a.csrr(Reg::A1, addr::MHPMCOUNTER3 + 2); // mhpmcounter5
        a.csrr(Reg::A2, addr::MHPMCOUNTER3 + 3); // mhpmevent6 = 0 -> always 0
        a.ebreak();
        let words = a.assemble().unwrap();
        let mut h = Asm::new(Xlen::Rv64);
        h.csrr(Reg::T1, addr::MEPC);
        h.addi(Reg::T1, Reg::T1, 4);
        h.csrw(addr::MEPC, Reg::T1);
        h.mret();
        let handler = h.assemble().unwrap();
        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &words);
        bus.load_words(0x100, &handler);
        let mut core = Core::cva6();
        core.run(&mut bus, 100_000).unwrap();
        assert!(core.is_halted());
        assert_eq!(core.reg(Reg::A1), 2, "two ecalls, two synchronous traps");
        assert_eq!(core.reg(Reg::A2), 0, "event 0 is the no-event selector");
        assert_eq!(core.stats().get("traps"), 2);
    }

    #[test]
    fn hpm_user_shadow_write_is_illegal() {
        // Writing the read-only hpmcounter3 shadow must raise illegal
        // instruction even from M-mode; the trap lands in mtvec's handler,
        // which records mcause and skips the instruction.
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::T0, 0x100);
        a.csrw(addr::MTVEC, Reg::T0);
        a.li(Reg::T1, 5);
        a.csrw(addr::HPMCOUNTER3, Reg::T1); // illegal: read-only shadow
        a.ebreak();
        let words = a.assemble().unwrap();
        let mut h = Asm::new(Xlen::Rv64);
        h.csrr(Reg::A0, addr::MCAUSE);
        h.csrr(Reg::T1, addr::MEPC);
        h.addi(Reg::T1, Reg::T1, 4);
        h.csrw(addr::MEPC, Reg::T1);
        h.mret();
        let handler = h.assemble().unwrap();
        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &words);
        bus.load_words(0x100, &handler);
        let mut core = Core::cva6();
        core.run(&mut bus, 100_000).unwrap();
        assert!(core.is_halted());
        assert_eq!(
            core.reg(Reg::A0),
            TrapCause::IllegalInstruction.code(),
            "CSR write to a read-only counter shadow must trap"
        );
    }

    #[test]
    fn hpm_user_shadow_reads_match_machine_counter() {
        let (c, _) = run_rv64(|a| {
            a.li(Reg::T0, 9); // HpmEvent::Load
            a.csrw(addr::MHPMEVENT3, Reg::T0);
            a.ld(Reg::T1, Reg::Sp, 0);
            a.csrr(Reg::A0, addr::MHPMCOUNTER3);
            a.csrr(Reg::A1, addr::HPMCOUNTER3);
        });
        // mcounteren resets to all-ones, so the unprivileged shadow mirrors
        // the machine counter (and M-mode may always read it).
        assert_eq!(c.reg(Reg::A0), 1);
        assert_eq!(c.reg(Reg::A1), 1);
    }

    #[test]
    fn hpm_counts_hw_loop_iterations() {
        let (c, _) = run_rv32(|a| {
            a.li(Reg::T0, 12); // HpmEvent::HwLoopIter
            a.csrw(addr::MHPMEVENT3, Reg::T0);
            a.li(Reg::A0, 0);
            a.lp_counti(0, 6);
            let (s, e) = (a.label(), a.label());
            a.lp_starti(0, s);
            a.lp_endi(0, e);
            a.bind(s);
            a.addi(Reg::A0, Reg::A0, 1);
            a.bind(e);
            a.csrr(Reg::A1, addr::MHPMCOUNTER3);
        });
        assert_eq!(c.reg(Reg::A0), 6);
        // 5 back-edges for 6 iterations.
        assert_eq!(c.reg(Reg::A1), 5);
        assert_eq!(c.stats().get("hwloop_iters"), 5);
    }

    /// Assembles `build`, runs it three ways — inline replay on, inline
    /// replay off (decode cache still on), and decode cache off entirely
    /// — and asserts bit-identical cycles, instret, registers and
    /// architectural digest across all three, and every counter but
    /// `sb_instrs_retired` across the first two. Returns the inline run.
    fn assert_replay_neutral(xlen: Xlen, build: impl Fn(&mut Asm)) -> Core {
        let mut a = Asm::new(xlen);
        build(&mut a);
        a.ebreak();
        let words = a.assemble().expect("assemble");
        let run = |decode: bool, inline: bool| {
            let mut bus = FlatBus::new(1 << 16);
            bus.load_words(0, &words);
            let mut core = match xlen {
                Xlen::Rv64 => Core::cva6(),
                Xlen::Rv32 => Core::ri5cy(0),
            };
            core.set_decode_cache(decode);
            core.set_superblocks(inline);
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
        let plain = run(true, false).stats();
        assert_eq!(plain.get("sb_instrs_retired"), 0);
        let fs = fast.stats();
        let rest: Vec<_> = fs
            .iter()
            .filter(|(k, _)| *k != "sb_instrs_retired")
            .collect();
        assert_eq!(rest, plain.iter().collect::<Vec<_>>());
        fast
    }

    #[test]
    fn hot_loop_retires_inline() {
        let fast = assert_replay_neutral(Xlen::Rv64, |a| {
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
            "the inline loop must carry the loop"
        );
        // Only the first pass over each slot decodes.
        assert!(s.get("decode_misses") < 20, "{s:?}");
    }

    /// Emits an Xpulp hardware loop `idx` of `count` iterations around
    /// `body`.
    fn hw_loop(a: &mut Asm, idx: u8, count: i64, body: impl FnOnce(&mut Asm)) {
        a.lp_counti(idx, count);
        let (s, e) = (a.label(), a.label());
        a.lp_starti(idx, s);
        a.lp_endi(idx, e);
        a.bind(s);
        body(a);
        a.bind(e);
    }

    #[test]
    fn ri5cy_hw_loops_retire_inline() {
        // The back-edge follows an inline retire of each kind: a body
        // ending in a MAC, in a post-increment load and in a
        // post-increment store, with plain loads and stores inside.
        let bodies: [fn(&mut Asm); 3] = [
            |a| {
                a.p_lw_post(Reg::T1, Reg::A0, 4);
                a.xor(Reg::A2, Reg::A2, Reg::T1);
                a.p_mac(Reg::A4, Reg::A5, Reg::A6);
            },
            |a| {
                a.xor(Reg::A2, Reg::A2, Reg::T1);
                a.sw(Reg::A2, Reg::A0, 0x40);
                a.p_lw_post(Reg::T1, Reg::A0, 4);
            },
            |a| {
                a.lw(Reg::T1, Reg::A0, 0x80);
                a.add(Reg::A2, Reg::A2, Reg::T1);
                a.p_sw_post(Reg::A2, Reg::A0, 4);
            },
        ];
        for body in bodies {
            let fast = assert_replay_neutral(Xlen::Rv32, |a| {
                a.li(Reg::A0, 0x4000);
                hw_loop(a, 0, 40, body);
            });
            let s = fast.stats();
            assert_eq!(s.get("hwloop_iters"), 39);
            assert_eq!(fast.reg(Reg::A0), 0x4000 + 4 * 40, "40 trips");
            assert!(s.get("sb_instrs_retired") >= 3 * 38, "{s:?}");
        }
    }

    #[test]
    fn ri5cy_nested_and_single_trip_hw_loops_stay_exact() {
        // Loop 1 holds loop 0 plus one more instruction, so the inner
        // setup replays through `execute` inside the inline loop and
        // re-arms loop 0 on every outer trip.
        for (outer, inner) in [(5i64, 7i64), (1, 6), (6, 1), (1, 1)] {
            let fast = assert_replay_neutral(Xlen::Rv32, |a| {
                a.li(Reg::A0, 0x4000);
                a.li(Reg::A1, 0x6000);
                hw_loop(a, 1, outer, |a| {
                    a.p_lw_post(Reg::T1, Reg::A0, 4);
                    hw_loop(a, 0, inner, |a| {
                        a.p_lbu_post(Reg::T2, Reg::A0, 1);
                        a.add(Reg::T1, Reg::T1, Reg::T2);
                        a.p_sw_post(Reg::T1, Reg::A1, 4);
                    });
                    a.addi(Reg::A3, Reg::A3, 1);
                });
            });
            let want = (outer - 1) + outer * (inner - 1);
            assert_eq!(fast.stats().get("hwloop_iters"), want as u64);
            assert_eq!(fast.reg(Reg::A3), outer as u64);
            assert_eq!(fast.reg(Reg::A1), 0x6000 + 4 * (outer * inner) as u64);
        }
    }

    #[test]
    fn ri5cy_smc_store_in_hw_loop_is_exact() {
        // Every trip stores a new `addi a0, a0, k` over the slot after
        // the store, so a replayed stale slot would add the wrong `k`.
        let one = crate::encode::encode(&Inst::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 1,
        })
        .unwrap();
        let fast = assert_replay_neutral(Xlen::Rv32, |a| {
            let slot = a.label();
            a.la(Reg::T0, slot);
            a.li(Reg::T2, one as i64);
            a.li(Reg::T3, 1 << 20);
            hw_loop(a, 0, 5, |a| {
                a.sw(Reg::T2, Reg::T0, 0);
                a.bind(slot);
                a.nop();
                a.add(Reg::T2, Reg::T2, Reg::T3);
            });
        });
        assert_eq!(fast.reg(Reg::A0), 1 + 2 + 3 + 4 + 5);
        assert!(fast.stats().get("decode_invalidations") >= 4);
    }

    #[test]
    fn every_load_and_store_width_retires_inline_exactly() {
        // Every integer width, aligned and misaligned, with the sign bit
        // of each width set, loaded back and folded into `a7`.
        let fast = assert_replay_neutral(Xlen::Rv64, |a| {
            a.li(Reg::T0, 0x8765_4321_FEDC_BA98u64 as i64);
            a.li(Reg::T1, 30);
            let top = a.label();
            a.bind(top);
            a.sd(Reg::T0, Reg::Sp, 0);
            a.sw(Reg::T0, Reg::Sp, 9);
            a.sh(Reg::T0, Reg::Sp, 14);
            a.sb(Reg::T0, Reg::Sp, 17);
            let loads: [fn(&mut Asm, Reg, i64); 7] = [
                |a, r, o| a.ld(r, Reg::Sp, o),
                |a, r, o| a.lw(r, Reg::Sp, o),
                |a, r, o| a.lwu(r, Reg::Sp, o),
                |a, r, o| a.lh(r, Reg::Sp, o),
                |a, r, o| a.lhu(r, Reg::Sp, o),
                |a, r, o| a.lb(r, Reg::Sp, o),
                |a, r, o| a.lbu(r, Reg::Sp, o),
            ];
            for (i, load) in loads.iter().enumerate() {
                load(a, Reg::A0, i as i64 * 3);
                a.xor(Reg::A7, Reg::A7, Reg::A0);
                a.slli(Reg::A7, Reg::A7, 1);
            }
            a.addi(Reg::T0, Reg::T0, 0x135);
            a.slli(Reg::T2, Reg::T0, 13);
            a.xor(Reg::T0, Reg::T0, Reg::T2);
            a.addi(Reg::T1, Reg::T1, -1);
            a.bnez(Reg::T1, top);
        });
        assert_eq!(fast.stats().get("loads"), 7 * 30);
        assert_eq!(fast.stats().get("stores"), 4 * 30);

        // RI5CY: the RV32 widths, plain and post-increment.
        let fast = assert_replay_neutral(Xlen::Rv32, |a| {
            a.li(Reg::T0, 0x8765_4321);
            a.li(Reg::A0, 0x4001);
            hw_loop(a, 0, 30, |a| {
                a.sw(Reg::T0, Reg::Sp, 1);
                a.sh(Reg::T0, Reg::Sp, 6);
                a.sb(Reg::T0, Reg::Sp, 9);
                for (width, offset) in [(StoreWidth::W, 4), (StoreWidth::H, 2), (StoreWidth::B, 1)]
                {
                    a.inst(Inst::StorePost {
                        width,
                        rs2: Reg::T0,
                        rs1: Reg::A0,
                        offset,
                    });
                }
                let widths = [
                    LoadWidth::W,
                    LoadWidth::H,
                    LoadWidth::Hu,
                    LoadWidth::B,
                    LoadWidth::Bu,
                ];
                for (i, width) in widths.into_iter().enumerate() {
                    a.inst(Inst::Load {
                        width,
                        rd: Reg::A1,
                        rs1: Reg::Sp,
                        offset: i as i64 * 2,
                    });
                    a.xor(Reg::A7, Reg::A7, Reg::A1);
                    a.inst(Inst::LoadPost {
                        width,
                        rd: Reg::A1,
                        rs1: Reg::A0,
                        offset: -(width.bytes() as i64),
                    });
                    a.add(Reg::A7, Reg::A7, Reg::A1);
                }
                a.addi(Reg::T0, Reg::T0, 0x135);
            });
        });
        assert_eq!(fast.stats().get("loads"), 10 * 30);
        assert_eq!(fast.stats().get("stores"), 6 * 30);
    }

    #[test]
    fn post_increment_with_rd_equal_to_rs1_keeps_the_loaded_value() {
        let fast = assert_replay_neutral(Xlen::Rv32, |a| {
            a.li(Reg::T0, 0x1234_5678);
            a.li(Reg::A0, 0x4000);
            a.sw(Reg::T0, Reg::A0, 0);
            hw_loop(a, 0, 3, |a| {
                a.li(Reg::A1, 0x4000);
                a.p_lw_post(Reg::A1, Reg::A1, 8);
                a.add(Reg::A2, Reg::A2, Reg::A1);
            });
        });
        assert_eq!(fast.reg(Reg::A2), 3 * 0x1234_5678);
    }

    #[test]
    fn inline_bus_error_matches_execute() {
        // A post-increment load walks off the end of the 64 KiB bus
        // inside a warm hardware loop: every run mode stops on the same
        // instruction with the same error, counters and state.
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::A0, 0xFFE0);
        hw_loop(&mut a, 0, 100, |a| {
            a.addi(Reg::A2, Reg::A2, 1);
            a.p_lw_post(Reg::T1, Reg::A0, 4);
        });
        a.ebreak();
        let words = a.assemble().unwrap();
        let run = |decode: bool, inline: bool| {
            let mut bus = FlatBus::new(1 << 16);
            bus.load_words(0, &words);
            let mut core = Core::ri5cy(0);
            core.set_decode_cache(decode);
            core.set_superblocks(inline);
            let err = core.run(&mut bus, 1_000_000).unwrap_err();
            (format!("{err:?}"), core)
        };
        let (err, fast) = run(true, true);
        assert!(err.contains("Memory"), "{err}");
        assert!(fast.stats().get("sb_instrs_retired") > 0);
        for (other_err, other) in [run(true, false), run(false, true)] {
            assert_eq!(err, other_err);
            assert_eq!(fast.pc(), other.pc());
            assert_eq!(fast.cycles(), other.cycles());
            assert_eq!(fast.instret(), other.instret());
            assert_eq!(fast.state_digest(), other.state_digest());
            assert_eq!(fast.stats().get("loads"), other.stats().get("loads"));
        }
        let plain = run(true, false).1.stats();
        let fs = fast.stats();
        let rest: Vec<_> = fs
            .iter()
            .filter(|(k, _)| *k != "sb_instrs_retired")
            .collect();
        assert_eq!(rest, plain.iter().collect::<Vec<_>>());
    }

    #[test]
    fn branch_into_run_interior_stays_exact() {
        // The back-edge targets the *middle* of the straight-line run
        // entered from the top.
        let fast = assert_replay_neutral(Xlen::Rv64, |a| {
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
        // same straight-line run: the replay executing the store must
        // not retire the stale slot after it.
        let patch = crate::encode::encode(&Inst::OpImm {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 77,
        })
        .unwrap();
        let fast = assert_replay_neutral(Xlen::Rv64, |a| {
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
        assert!(fast.stats().get("decode_invalidations") >= 1);
    }

    /// A 5-instruction ALU loop of `iters` iterations, then `ebreak`.
    fn alu_loop(iters: i64) -> Vec<u32> {
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, iters);
        let top = a.label();
        a.bind(top);
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.slli(Reg::A1, Reg::A0, 1);
        a.xor(Reg::A2, Reg::A2, Reg::A1);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        a.assemble().unwrap()
    }

    /// Drives `core` to its halt in `chunk`-cycle `run_until_cycle` slices.
    fn finish_chunked(core: &mut Core, bus: &mut FlatBus, chunk: u64) {
        for _ in 0..1_000_000 {
            if core
                .run_until_cycle(bus, core.cycles().get() + chunk)
                .unwrap()
            {
                return;
            }
        }
        panic!("chunked run must finish");
    }

    #[test]
    fn chunked_budget_runs_match_uninterrupted() {
        // `run_until_cycle` in 1-, 3- and 7-cycle slices must retire the
        // same stream — and count the same telemetry — as one
        // uninterrupted `run`; budgets land mid-run on purpose, and on
        // RI5CY on both sides of a hardware-loop end after a load.
        let mut a = Asm::new(Xlen::Rv32);
        a.li(Reg::A0, 0x4000);
        hw_loop(&mut a, 0, 30, |a| {
            a.p_mac(Reg::A4, Reg::A5, Reg::A6);
            a.p_lw_post(Reg::T1, Reg::A0, 4);
        });
        a.ebreak();
        let hw = a.assemble().unwrap();
        for (words, xlen) in [(alu_loop(60), Xlen::Rv64), (hw, Xlen::Rv32)] {
            let fresh = || {
                let mut bus = FlatBus::new(1 << 16);
                bus.load_words(0, &words);
                let core = match xlen {
                    Xlen::Rv64 => Core::cva6(),
                    Xlen::Rv32 => Core::ri5cy(0),
                };
                (core, bus)
            };
            let (mut whole, mut wbus) = fresh();
            whole.run(&mut wbus, 1_000_000).unwrap();
            assert!(whole.stats().get("sb_instrs_retired") > 50);
            for chunk in [1u64, 3, 7] {
                let (mut core, mut bus) = fresh();
                finish_chunked(&mut core, &mut bus, chunk);
                assert_eq!(core.cycles(), whole.cycles(), "chunk {chunk}");
                assert_eq!(core.state_digest(), whole.state_digest(), "chunk {chunk}");
                assert_eq!(
                    format!("{:?}", core.stats()),
                    format!("{:?}", whole.stats()),
                    "telemetry must be chunk-invariant (chunk {chunk})"
                );
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_mid_run_is_exact() {
        // A 7-cycle budget lands inside the 5-instruction loop body, so
        // the checkpoint is taken mid-run with the decode cache warm.
        let words = alu_loop(80);
        let mut bus = FlatBus::new(1 << 16);
        bus.load_words(0, &words);
        let mut core = Core::cva6();
        for _ in 0..5 {
            core.run_until_cycle(&mut bus, core.cycles().get() + 7)
                .unwrap();
        }
        assert!(core.stats().get("sb_instrs_retired") > 0);

        let mut snap = hulkv_sim::Snapshot::new();
        let section = core.snapshot_into(&mut snap);
        let mut twin = Core::cva6();
        twin.restore_from(&snap, &section).unwrap();
        let mut again = hulkv_sim::Snapshot::new();
        assert_eq!(twin.snapshot_into(&mut again), section);
        assert_eq!(again, snap);

        // Both finish under the same chunking; every counter must agree.
        let mut tbus = bus.clone();
        finish_chunked(&mut core, &mut bus, 7);
        finish_chunked(&mut twin, &mut tbus, 7);
        assert_eq!(core.state_digest(), twin.state_digest());
        assert_eq!(core.cycles(), twin.cycles());
        assert_eq!(format!("{:?}", core.stats()), format!("{:?}", twin.stats()));
    }

    #[test]
    fn restore_rejects_overflowing_decode_count() {
        // 2^62 records of 44 bytes wrap to 0 bytes in 64-bit arithmetic,
        // which would match an empty blob.
        use hulkv_sim::{snap::hex, Json};
        let (core, _) = run_rv64(|a| a.addi(Reg::A0, Reg::A0, 1));
        let mut snap = hulkv_sim::Snapshot::new();
        let mut section = core.snapshot_into(&mut snap);
        let empty = snap.push_blob(&[]);
        let Json::Obj(fields) = &mut section else {
            panic!("core section is an object")
        };
        fields.insert("decode_count".into(), hex(1 << 62));
        fields.insert("decode_entries".into(), empty);
        assert!(Core::cva6().restore_from(&snap, &section).is_err());
    }
}
