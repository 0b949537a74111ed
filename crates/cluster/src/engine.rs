//! Quantum-based deterministic team execution.
//!
//! [`Cluster::run_team`] used to step each core of a team sequentially to
//! completion over shared memory. This module replaces that loop with a
//! GVSoC-style quantum scheduler: every core simulates bounded cycle
//! quanta `[k·Q, (k+1)·Q)` against a **private view** of the cluster
//! (a private TCDM image, a private I-cache model, a per-team line store
//! for instruction bytes), and all interactions with shared state — TCDM
//! stores, instruction-line fills through the shared L1.5, external (AXI)
//! accesses — are resolved **canonically, in hart-id order**, at
//! synchronization points driven by the master loop.
//!
//! Because every shared interaction is resolved in an order that depends
//! only on hart ids and quantum indices, cycles, [`Stats`], `TeamResult`
//! and every state digest are independent of the order in which the
//! cores of a round are stepped, and bit-identical run-to-run. The
//! step-order permutation ([`Cluster::run_team_permuted`]) exists to test
//! exactly that.
//!
//! # The pause protocol
//!
//! A core cannot touch shared state mid-quantum, so the per-core bus
//! *pauses* the core instead: when a fetch needs an instruction line that
//! is not yet in the per-team line store, or a data access leaves the
//! TCDM/perf windows, the bus records the request and returns a bus error.
//! Core errors propagate without committing `pc`/`cycles`/`instret` (and
//! handlers write registers only after their bus accesses succeed), so the
//! core is left exactly at the faulting instruction. The master services
//! all pending requests of a round in hart-id order against the real
//! shared devices, hands the responses back, and the cores retry. Requests
//! and retries are a pure function of simulation state, so the pause
//! pattern itself is deterministic and identical for every step order.

use crate::pmca::{
    Cluster, CorePerf, RaceRecord, TeamResult, PERF_BASE, PERF_WINDOW_BYTES, TCDM_BASE,
};
use hulkv_mem::MemoryDevice;
use hulkv_rv::{Core, CoreBus, Reg, RvError};
use hulkv_sim::{
    convert_freq, Cycles, EngineProfile, Fnv64, Freq, SharedTracer, SimError, TraceEvent, Track,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Granularity of TCDM dirty tracking and boundary merges.
const PAGE_BYTES: usize = 256;
/// Instruction-line size, matching both I-cache levels.
const LINE_BYTES: u64 = 32;

/// Observer invoked at every quantum boundary with `(quantum_index,
/// canonical_digest)`; the digest covers the merged TCDM image and every
/// core's architectural digest and cycle count, so two runs that agree on
/// the full stream agree on all guest-visible state at every boundary.
pub type QuantumObserver<'a> = &'a mut dyn FnMut(u64, u64);

fn pause_error() -> SimError {
    SimError::Model("quantum pause (internal, must not escape the engine)".into())
}

// ---------------------------------------------------------------------------
// Round messages between the master loop and the core runners.
// ---------------------------------------------------------------------------

/// Everything needed to construct a core and its private view.
#[derive(Debug)]
struct LaunchSpec {
    hartid: u64,
    entry: u64,
    args: Vec<(Reg, u64)>,
    sp: u64,
    decode_cache: bool,
    image: Arc<Vec<u8>>,
    priv_sets: usize,
    conflict_q16: u64,
    cluster_freq: Freq,
    soc_freq: Freq,
    collect_digest: bool,
    sanitize: bool,
}

/// A captured instruction line: 32 bytes plus the fill latency to charge
/// on this core's next private-I$ miss of the line. The first fill (the
/// one that went through the real shared L1.5) carries the real latency;
/// every later fill models a shared-cache hit.
#[derive(Debug, Clone)]
struct LineMsg {
    addr: u64,
    bytes: [u8; LINE_BYTES as usize],
    fill: u64,
    err: Option<SimError>,
}

/// An external (AXI-port) access a paused core wants performed.
#[derive(Debug, Clone)]
struct ExtReq {
    write: bool,
    addr: u64,
    data: Vec<u8>,
    len: usize,
}

/// The master's answer to an [`ExtReq`].
#[derive(Debug, Clone)]
struct ExtResp {
    data: Vec<u8>,
    stall: u64,
    err: Option<SimError>,
}

/// Full contents of dirtied TCDM pages, keyed by page index.
type DirtyPages = Vec<(u32, Vec<u8>)>;

/// One core's cumulative TCDM access shadow: `(page index, read word
/// mask, write word mask)` per touched page, each mask covering the
/// page's 64 words. Marks are idempotent and never cleared within a team
/// run, so re-sending (after a pause retry) and re-folding are no-ops.
type AccessShadow = Vec<(u32, u64, u64)>;

/// Input to one `CoreRunner::round` call.
#[derive(Debug, Clone, Default)]
struct RoundInput {
    target: u64,
    resp_line: Option<LineMsg>,
    new_lines: Vec<LineMsg>,
    resp_ext: Option<ExtResp>,
    patch: Option<Arc<DirtyPages>>,
}

/// How a core left its round.
#[derive(Debug)]
enum RoundStatus {
    /// Reached the quantum boundary, still running.
    Boundary,
    /// Hit `ebreak`; carries the final per-core results.
    Halted(Box<ExitInfo>),
    /// Paused: needs the instruction line at this (aligned) address.
    NeedLine(u64),
    /// Paused: needs an external access performed.
    NeedExt(ExtReq),
    /// A real (guest-visible) execution error.
    Failed(RvError),
}

#[derive(Debug)]
struct RoundOutput {
    status: RoundStatus,
    /// Pages dirtied since the last boundary patch (full page contents).
    /// Sent on every report so an abort mid-quantum can still merge.
    dirty: DirtyPages,
    /// Core architectural digest (only when digests are collected).
    digest: u64,
    cycles: u64,
    /// Cumulative access shadow (only when the race sanitizer is on).
    shadow: AccessShadow,
}

/// Final per-core results, extracted by the runner at halt.
#[derive(Debug, Clone)]
struct ExitInfo {
    cycles: Cycles,
    instret: u64,
    state: u64,
    perf: CorePerf,
    arith_ops: u64,
    decode_hits: u64,
    decode_misses: u64,
    decode_invalidations: u64,
    tcdm_reads: u64,
    tcdm_read_bytes: u64,
    tcdm_writes: u64,
    tcdm_write_bytes: u64,
}

// ---------------------------------------------------------------------------
// The per-core private view (the core-side bus).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct LineEntry {
    bytes: [u8; LINE_BYTES as usize],
    fill: u64,
}

/// One recorded external access of the current instruction episode. An
/// instruction that pauses is re-executed from scratch, so its accesses
/// are replayed positionally; counters settle exactly once per access.
#[derive(Debug, Clone)]
struct ExtRecord {
    write: bool,
    addr: u64,
    len: usize,
    data: Vec<u8>,
    stall: u64,
    err: Option<SimError>,
    counted: bool,
}

#[derive(Debug)]
struct QuantumBus {
    /// Start-of-team TCDM snapshot, shared by all cores. Valid for any
    /// page without a private overlay: a canonical change to a page is
    /// always delivered as a boundary patch, which materializes it.
    base: Arc<Vec<u8>>,
    /// Copy-on-write page overlays (this core's private view).
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
    dirty: Vec<bool>,
    tcdm_bytes: u64,
    // Private I-cache model: direct-mapped tag array over the line store.
    priv_tags: Vec<u64>,
    priv_hits: u64,
    priv_misses: u64,
    lines: HashMap<u64, LineEntry>,
    bad_lines: HashMap<u64, SimError>,
    pending_line: Option<u64>,
    // External-access episode replay.
    ext_records: Vec<ExtRecord>,
    replay_pos: usize,
    pending_ext: Option<ExtReq>,
    inflight: Option<ExtReq>,
    // Counters (the guest-visible perf window reads these live).
    conflict_q16: u64,
    conflict_acc: u64,
    conflicts: u64,
    tcdm_accesses: u64,
    tcdm_reads: u64,
    tcdm_read_bytes: u64,
    tcdm_writes: u64,
    tcdm_write_bytes: u64,
    ext_accesses: u64,
    ext_stall_cycles: u64,
    cluster_freq: Freq,
    soc_freq: Freq,
    // Race-sanitizer shadow: page index -> [read mask, write mask] over
    // the page's 64 words. Empty (and never touched) when off.
    sanitize: bool,
    shadow: BTreeMap<u32, [u64; 2]>,
}

impl QuantumBus {
    fn new(spec: &LaunchSpec) -> Self {
        debug_assert_eq!(spec.image.len() % PAGE_BYTES, 0, "TCDM not page-multiple");
        let npages = spec.image.len() / PAGE_BYTES;
        QuantumBus {
            tcdm_bytes: spec.image.len() as u64,
            dirty: vec![false; npages],
            pages: (0..npages).map(|_| None).collect(),
            base: spec.image.clone(),
            priv_tags: vec![u64::MAX; spec.priv_sets],
            priv_hits: 0,
            priv_misses: 0,
            lines: HashMap::new(),
            bad_lines: HashMap::new(),
            pending_line: None,
            ext_records: Vec::new(),
            replay_pos: 0,
            pending_ext: None,
            inflight: None,
            conflict_q16: spec.conflict_q16,
            conflict_acc: 0,
            conflicts: 0,
            tcdm_accesses: 0,
            tcdm_reads: 0,
            tcdm_read_bytes: 0,
            tcdm_writes: 0,
            tcdm_write_bytes: 0,
            ext_accesses: 0,
            ext_stall_cycles: 0,
            cluster_freq: spec.cluster_freq,
            soc_freq: spec.soc_freq,
            sanitize: spec.sanitize,
            shadow: BTreeMap::new(),
        }
    }

    /// Marks the words covered by a TCDM access in the shadow. Word
    /// granularity matches the TCDM's bank interleave: sub-word accesses
    /// to the same word by different harts are conflicts (read-modify-
    /// write at merge), not false positives.
    fn shadow_mark(&mut self, off: usize, len: usize, write: bool) {
        let (w0, w1) = (off / 4, (off + len - 1) / 4);
        for w in w0..=w1 {
            let e = self.shadow.entry((w / 64) as u32).or_insert([0u64; 2]);
            e[usize::from(write)] |= 1 << (w % 64);
        }
    }

    fn tcdm_offset(&self, addr: u64, len: usize) -> Option<u64> {
        if addr >= TCDM_BASE && addr + len as u64 <= TCDM_BASE + self.tcdm_bytes {
            Some(addr - TCDM_BASE)
        } else {
            None
        }
    }

    fn page_ref(&self, p: usize) -> &[u8] {
        match &self.pages[p] {
            Some(b) => &b[..],
            None => &self.base[p * PAGE_BYTES..(p + 1) * PAGE_BYTES],
        }
    }

    fn page_mut(&mut self, p: usize) -> &mut [u8] {
        if self.pages[p].is_none() {
            let mut b = Box::new([0u8; PAGE_BYTES]);
            b.copy_from_slice(&self.base[p * PAGE_BYTES..(p + 1) * PAGE_BYTES]);
            self.pages[p] = Some(b);
        }
        &mut self.pages[p].as_mut().expect("just materialized")[..]
    }

    fn perf_offset(&self, addr: u64, len: usize) -> Option<u64> {
        if addr >= PERF_BASE && addr + len as u64 <= PERF_BASE + PERF_WINDOW_BYTES {
            Some(addr - PERF_BASE)
        } else {
            None
        }
    }

    /// Byte image of the perf-counter window ([`PERF_BASE`] register map).
    fn perf_image(&self) -> [u8; PERF_WINDOW_BYTES as usize] {
        let regs = [
            self.tcdm_accesses,
            self.conflicts,
            self.priv_hits,
            self.priv_misses,
            self.ext_accesses,
            self.ext_stall_cycles,
        ];
        let mut img = [0u8; PERF_WINDOW_BYTES as usize];
        for (i, r) in regs.iter().enumerate() {
            img[i * 4..][..4].copy_from_slice(&(*r as u32).to_le_bytes());
        }
        img
    }

    /// Expected bank-conflict stall for one TCDM access: a Q16 fractional
    /// accumulator keeps the model deterministic and smooth. Purely
    /// per-core state, so it is independent of any cross-core ordering.
    fn conflict_stall(&mut self) -> Cycles {
        self.conflict_acc += self.conflict_q16;
        if self.conflict_acc >= 1 << 16 {
            self.conflict_acc -= 1 << 16;
            self.conflicts += 1;
            Cycles::new(1)
        } else {
            Cycles::ZERO
        }
    }

    fn ext_stall(&self, soc_lat: Cycles) -> Cycles {
        convert_freq(soc_lat, self.soc_freq, self.cluster_freq).saturating_sub(Cycles::new(1))
    }

    fn priv_set(&self, line_addr: u64) -> usize {
        ((line_addr >> 5) as usize) & (self.priv_tags.len() - 1)
    }

    /// One line's worth of fetch latency, with exactly the side effects of
    /// the old private `Cache::read` path: hit → hit latency (1); miss →
    /// hit latency + fill, bumping the miss counter.
    fn touch_line(&mut self, la: u64) -> u64 {
        let set = self.priv_set(la);
        if self.priv_tags[set] == la {
            self.priv_hits += 1;
            1
        } else {
            self.priv_misses += 1;
            self.priv_tags[set] = la;
            let e = self.lines.get_mut(&la).expect("touched line is resident");
            let fill = e.fill;
            // Later refills of this line model a shared-L1.5 hit: the
            // capture installed it there, and team kernels fit well inside
            // the 4 kB shared cache, so it stays resident for the team.
            e.fill = 1;
            1 + fill
        }
    }

    fn ext_access(
        &mut self,
        write: bool,
        addr: u64,
        data: Option<&[u8]>,
        len: usize,
    ) -> Result<(Vec<u8>, Cycles), SimError> {
        if self.replay_pos < self.ext_records.len() {
            let rec = &mut self.ext_records[self.replay_pos];
            self.replay_pos += 1;
            debug_assert!(
                rec.write == write && rec.addr == addr && rec.len == len,
                "non-deterministic ext replay"
            );
            if let Some(e) = &rec.err {
                return Err(e.clone());
            }
            if !rec.counted {
                rec.counted = true;
                self.ext_accesses += 1;
                self.ext_stall_cycles += rec.stall;
            }
            Ok((rec.data.clone(), Cycles::new(rec.stall)))
        } else {
            self.pending_ext = Some(ExtReq {
                write,
                addr,
                data: data.map(<[u8]>::to_vec).unwrap_or_default(),
                len,
            });
            Err(pause_error())
        }
    }
}

impl CoreBus for QuantumBus {
    #[inline]
    fn fetch(&mut self, addr: u64) -> Result<(u32, Cycles), SimError> {
        let first = addr & !(LINE_BYTES - 1);
        let last = (addr + 3) & !(LINE_BYTES - 1);
        // All needed lines must be resident before any side effect lands,
        // so a paused-and-retried fetch charges exactly once.
        for la in [first, last] {
            if let Some(e) = self.bad_lines.get(&la) {
                return Err(e.clone());
            }
            if !self.lines.contains_key(&la) {
                self.pending_line = Some(la);
                return Err(pause_error());
            }
            if first == last {
                break;
            }
        }
        let mut lat = self.touch_line(first);
        if last != first {
            lat += self.touch_line(last);
        }
        let mut b = [0u8; 4];
        for (i, o) in b.iter_mut().enumerate() {
            let a = addr + i as u64;
            let e = &self.lines[&(a & !(LINE_BYTES - 1))];
            *o = e.bytes[(a & (LINE_BYTES - 1)) as usize];
        }
        // A private-I$ hit (1 cycle) is fully pipelined.
        Ok((u32::from_le_bytes(b), self.ext_stall(Cycles::new(lat))))
    }

    // Hit paths, run per replayed fetch and per TCDM access.
    #[inline(always)]
    fn fetch_touch(&mut self, addr: u64) -> bool {
        let first = addr & !(LINE_BYTES - 1);
        if (addr + 3) & !(LINE_BYTES - 1) != first {
            return false; // straddling fetches take the full path
        }
        let set = self.priv_set(first);
        if self.priv_tags[set] == first {
            self.priv_hits += 1;
            true
        } else {
            false
        }
    }

    // `fetch_epoch` keeps its default (constant) implementation: once a
    // line is resident in the per-team store its bytes never change, so a
    // resident fetch's result is stable for the whole team and decoded
    // entries stay replayable across private-tag conflict misses.

    #[inline(always)]
    fn load(&mut self, addr: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        if let Some(off) = self.tcdm_offset(addr, buf.len()) {
            self.tcdm_accesses += 1;
            self.tcdm_reads += 1;
            self.tcdm_read_bytes += buf.len() as u64;
            let off = off as usize;
            if self.sanitize {
                self.shadow_mark(off, buf.len(), false);
            }
            let (p0, p1) = (off / PAGE_BYTES, (off + buf.len() - 1) / PAGE_BYTES);
            if p0 == p1 {
                let o = off % PAGE_BYTES;
                buf.copy_from_slice(&self.page_ref(p0)[o..o + buf.len()]);
            } else {
                for (i, out) in buf.iter_mut().enumerate() {
                    let a = off + i;
                    *out = self.page_ref(a / PAGE_BYTES)[a % PAGE_BYTES];
                }
            }
            Ok(self.conflict_stall())
        } else if let Some(off) = self.perf_offset(addr, buf.len()) {
            let img = self.perf_image();
            buf.copy_from_slice(&img[off as usize..off as usize + buf.len()]);
            Ok(Cycles::ZERO)
        } else {
            let (data, stall) = self.ext_access(false, addr, None, buf.len())?;
            buf.copy_from_slice(&data);
            Ok(stall)
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<Cycles, SimError> {
        if let Some(off) = self.tcdm_offset(addr, data.len()) {
            self.tcdm_accesses += 1;
            self.tcdm_writes += 1;
            self.tcdm_write_bytes += data.len() as u64;
            let off = off as usize;
            if self.sanitize {
                self.shadow_mark(off, data.len(), true);
            }
            let (p0, p1) = (off / PAGE_BYTES, (off + data.len() - 1) / PAGE_BYTES);
            if p0 == p1 {
                let o = off % PAGE_BYTES;
                self.page_mut(p0)[o..o + data.len()].copy_from_slice(data);
            } else {
                for (i, b) in data.iter().enumerate() {
                    let a = off + i;
                    self.page_mut(a / PAGE_BYTES)[a % PAGE_BYTES] = *b;
                }
            }
            for p in p0..=p1 {
                self.dirty[p] = true;
            }
            Ok(self.conflict_stall())
        } else if self.perf_offset(addr, data.len()).is_some() {
            // The counters are bus-owned: stores are accepted and dropped.
            Ok(Cycles::ZERO)
        } else {
            let (_, stall) = self.ext_access(true, addr, Some(data), data.len())?;
            Ok(stall)
        }
    }

    fn hpm_icache_misses(&self) -> u64 {
        self.priv_misses
    }

    fn hpm_conflict_stalls(&self) -> u64 {
        self.conflicts
    }
}

// ---------------------------------------------------------------------------
// The per-core runner.
// ---------------------------------------------------------------------------

struct CoreRunner {
    core: Core,
    bus: QuantumBus,
    episode_instret: u64,
    collect_digest: bool,
}

impl CoreRunner {
    fn launch(spec: &LaunchSpec, tracer: Option<SharedTracer>, spare: Option<Core>) -> CoreRunner {
        let mut core = match spare {
            Some(mut c) => {
                c.reset_ri5cy(spec.hartid);
                c
            }
            None => Core::ri5cy(spec.hartid),
        };
        core.set_decode_cache(spec.decode_cache);
        if let Some(t) = tracer {
            core.set_tracer(t);
        }
        core.set_pc(spec.entry);
        core.set_reg(Reg::Sp, spec.sp);
        for &(r, v) in &spec.args {
            core.set_reg(r, v);
        }
        CoreRunner {
            bus: QuantumBus::new(spec),
            core,
            episode_instret: u64::MAX,
            collect_digest: spec.collect_digest,
        }
    }

    fn round(&mut self, input: RoundInput) -> RoundOutput {
        if let Some(patch) = &input.patch {
            for (page, bytes) in patch.iter() {
                let p = *page as usize;
                match &mut self.bus.pages[p] {
                    Some(b) => b.copy_from_slice(bytes),
                    slot => {
                        let mut b = Box::new([0u8; PAGE_BYTES]);
                        b.copy_from_slice(bytes);
                        *slot = Some(b);
                    }
                }
            }
            self.bus.dirty.fill(false);
        }
        for l in &input.new_lines {
            match &l.err {
                Some(e) => {
                    self.bus.bad_lines.insert(l.addr, e.clone());
                }
                None => {
                    self.bus.lines.entry(l.addr).or_insert(LineEntry {
                        bytes: l.bytes,
                        fill: l.fill,
                    });
                }
            }
        }
        if let Some(l) = &input.resp_line {
            match &l.err {
                Some(e) => {
                    self.bus.bad_lines.insert(l.addr, e.clone());
                }
                None => {
                    // Overwrites any broadcast copy: the requester charges
                    // the real first-fill latency.
                    self.bus.lines.insert(
                        l.addr,
                        LineEntry {
                            bytes: l.bytes,
                            fill: l.fill,
                        },
                    );
                }
            }
            self.bus.replay_pos = 0; // the retried instruction replays
        }
        if let Some(r) = input.resp_ext {
            let req = self
                .bus
                .inflight
                .take()
                .expect("ext response without request");
            self.bus.ext_records.push(ExtRecord {
                write: req.write,
                addr: req.addr,
                len: req.len,
                data: r.data,
                stall: r.stall,
                err: r.err,
                counted: false,
            });
            self.bus.replay_pos = 0;
        }
        let result = self.core.run_until_cycle(&mut self.bus, input.target);
        let status = match result {
            Ok(true) => RoundStatus::Halted(Box::new(self.exit_info())),
            Ok(false) => RoundStatus::Boundary,
            Err(e) => {
                if let Some(la) = self.bus.pending_line.take() {
                    self.on_pause();
                    RoundStatus::NeedLine(la)
                } else if self.bus.pending_ext.is_some() {
                    self.on_pause();
                    let req = self.bus.pending_ext.take().expect("checked");
                    self.bus.inflight = Some(req.clone());
                    RoundStatus::NeedExt(req)
                } else {
                    RoundStatus::Failed(e)
                }
            }
        };
        let at_rest = matches!(
            status,
            RoundStatus::Boundary | RoundStatus::Halted(_) | RoundStatus::Failed(_)
        );
        RoundOutput {
            // Dirty pages are only consumed at merge points, and a paused
            // core always produces one more at-rest output before the next
            // merge, so pause rounds skip the scan-and-copy entirely.
            dirty: if at_rest {
                self.collect_dirty()
            } else {
                Vec::new()
            },
            digest: if self.collect_digest && at_rest {
                self.core.state_digest()
            } else {
                0
            },
            cycles: self.core.cycles().get(),
            // Like dirty pages, the shadow is only consumed at merge
            // points, and it is cumulative, so pause rounds skip the copy.
            shadow: if at_rest && self.bus.sanitize {
                self.bus
                    .shadow
                    .iter()
                    .map(|(&p, m)| (p, m[0], m[1]))
                    .collect()
            } else {
                Vec::new()
            },
            status,
        }
    }

    /// Starts a fresh external-access episode when the paused instruction
    /// differs from the one the current records belong to. `instret` is
    /// only committed on instruction completion, so it uniquely identifies
    /// the in-flight instruction.
    fn on_pause(&mut self) {
        if self.core.instret() != self.episode_instret {
            self.bus.ext_records.clear();
            self.bus.replay_pos = 0;
            self.episode_instret = self.core.instret();
        }
    }

    fn collect_dirty(&self) -> DirtyPages {
        let mut v = Vec::new();
        for (p, d) in self.bus.dirty.iter().enumerate() {
            if *d {
                v.push((p as u32, self.bus.page_ref(p).to_vec()));
            }
        }
        v
    }

    fn exit_info(&self) -> ExitInfo {
        let cs = self.core.stats();
        ExitInfo {
            cycles: self.core.cycles(),
            instret: self.core.instret(),
            state: self.core.state_digest(),
            perf: CorePerf {
                tcdm_accesses: self.bus.tcdm_accesses,
                tcdm_conflict_stalls: self.bus.conflicts,
                icache_hits: self.bus.priv_hits,
                icache_misses: self.bus.priv_misses,
                ext_accesses: self.bus.ext_accesses,
                ext_stall_cycles: self.bus.ext_stall_cycles,
                hwloop_iters: cs.get("hwloop_iters"),
                taken_branches: cs.get("taken_branches"),
            },
            arith_ops: cs.get("arith_ops"),
            decode_hits: cs.get("decode_hits"),
            decode_misses: cs.get("decode_misses"),
            decode_invalidations: cs.get("decode_invalidations"),
            tcdm_reads: self.bus.tcdm_reads,
            tcdm_read_bytes: self.bus.tcdm_read_bytes,
            tcdm_writes: self.bus.tcdm_writes,
            tcdm_write_bytes: self.bus.tcdm_write_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// The master loop.
// ---------------------------------------------------------------------------

/// Runs one round for every `(hartid, input)` in `batch`, stepping the
/// runners in `order` (semantically irrelevant — the permutation tests
/// prove it), and returns the outputs keyed (and therefore iterated) in
/// hart-id order.
fn step_round(
    runners: &mut [CoreRunner],
    order: &[usize],
    batch: Vec<(usize, RoundInput)>,
) -> BTreeMap<usize, RoundOutput> {
    let mut inputs: Vec<Option<RoundInput>> = Vec::new();
    inputs.resize_with(runners.len(), || None);
    for (h, i) in batch {
        inputs[h] = Some(i);
    }
    let mut out = BTreeMap::new();
    for &h in order {
        if let Some(input) = inputs[h].take() {
            out.insert(h, runners[h].round(input));
        }
    }
    out
}

pub(crate) fn run_team(
    cl: &mut Cluster,
    entry: u64,
    args: &[(Reg, u64)],
    num_cores: usize,
    max_cycles: u64,
    mut observer: Option<QuantumObserver<'_>>,
    order: Option<&[usize]>,
) -> Result<TeamResult, RvError> {
    let cfg = cl.cfg.clone();
    // Self-profiling handle (wall-clock only): cloned out so the master
    // loop can record rounds while `cl` stays mutably borrowed elsewhere.
    let profile: Option<EngineProfile> = cl.profile.clone();
    let num_cores = num_cores.min(cfg.cores).max(1);
    let quantum = cfg.quantum_cycles.max(1);
    let tcdm_top = TCDM_BASE + cfg.tcdm_bytes() as u64;
    // Expected extra TCDM-bank-conflict stall, in 1/65536ths of a cycle
    // per access. With N cores issuing uniformly random accesses over B
    // word-interleaved banks, the chance another given core hits the same
    // bank in the same cycle is 1/B; summed over the N-1 peers and halved
    // (the loser of a 2-way collision stalls, the winner does not) the
    // expected stall is (N-1)/(2B) cycles per access, encoded Q16:
    let conflict_q16 = if num_cores > 1 {
        ((num_cores as u64 - 1) << 16) / (2 * cfg.banks as u64)
    } else {
        0
    };
    let image = {
        let mut buf = cl.spare_image.take().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(cl.tcdm_typed.borrow().as_slice());
        Arc::new(buf)
    };
    let collect_digest = observer.is_some();
    let order: Vec<usize> = order.map_or_else(|| (0..num_cores).collect(), <[usize]>::to_vec);
    let mut seen = order.clone();
    seen.sort_unstable();
    assert!(
        seen.into_iter().eq(0..num_cores),
        "order must be a permutation of 0..num_cores"
    );
    // Halted cores of the previous team are reset and reused.
    let mut runners: Vec<CoreRunner> = (0..num_cores)
        .map(|hartid| {
            let spec = LaunchSpec {
                hartid: hartid as u64,
                entry,
                args: args.to_vec(),
                sp: tcdm_top - (hartid * cfg.stack_bytes) as u64,
                decode_cache: cfg.decode_cache,
                image: image.clone(),
                priv_sets: (cfg.icache_private_bytes / 32).max(1).next_power_of_two(),
                conflict_q16,
                cluster_freq: cfg.freq,
                soc_freq: cfg.soc_freq,
                collect_digest,
                sanitize: cfg.race_sanitizer,
            };
            CoreRunner::launch(&spec, cl.tracer.clone(), cl.spare_cores.pop())
        })
        .collect();

    // The canonical TCDM image is the SRAM's own buffer, mutated in place
    // at merge points. Holding the borrow for the whole team is safe: the
    // TCDM is not reachable through the SoC-side `ext` port (no loopback
    // mapping), and the DMA only runs between teams.
    let mut sram = cl.tcdm_typed.borrow_mut();
    let mut active = vec![true; num_cores];
    let mut at_boundary = vec![false; num_cores];
    let mut exits: Vec<Option<ExitInfo>> = vec![None; num_cores];
    let mut last_digest = vec![0u64; num_cores];
    let mut last_cycles = vec![0u64; num_cores];
    let mut latest_dirty: Vec<DirtyPages> = vec![Vec::new(); num_cores];
    let sanitize = cfg.race_sanitizer;
    let mut latest_shadow: Vec<AccessShadow> = vec![Vec::new(); num_cores];
    // Cumulative per-word access sets: global word index -> (reader hart
    // mask, writer hart mask); plus the words already reported as racing.
    let mut shadow_cum: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    let mut races_reported: BTreeSet<u32> = BTreeSet::new();
    let mut pending: Vec<RoundInput> = vec![RoundInput::default(); num_cores];
    let mut known_lines: BTreeSet<u64> = BTreeSet::new();
    let mut boundary = quantum;
    let mut quantum_idx = 0u64;
    let (mut n_quanta, mut n_rounds, mut n_line_caps, mut n_ext_pauses, mut n_sync_pages) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut q_rounds, mut q_pauses) = (0u64, 0u64);
    let mut failure: Option<RvError> = None;

    'team: loop {
        let mut batch = Vec::new();
        for h in 0..num_cores {
            if active[h] && !at_boundary[h] {
                let mut input = std::mem::take(&mut pending[h]);
                input.target = boundary;
                batch.push((h, input));
            }
        }
        if !batch.is_empty() {
            n_rounds += 1;
            q_rounds += 1;
            let round_t0 = profile.as_ref().map(|_| Instant::now());
            let outs = step_round(&mut runners, &order, batch);
            let busy_ns = round_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            let mut caps: Vec<LineMsg> = Vec::new();
            let mut cap_requesters: Vec<usize> = Vec::new();
            let mut any_pause = false;
            // BTreeMap iteration = ascending hart id = canonical order for
            // every shared-state interaction below.
            for (h, out) in outs {
                last_digest[h] = out.digest;
                last_cycles[h] = out.cycles;
                match out.status {
                    RoundStatus::Boundary => {
                        at_boundary[h] = true;
                        latest_dirty[h] = out.dirty;
                        latest_shadow[h] = out.shadow;
                    }
                    RoundStatus::Halted(info) => {
                        active[h] = false;
                        exits[h] = Some(*info);
                        latest_dirty[h] = out.dirty;
                        latest_shadow[h] = out.shadow;
                    }
                    RoundStatus::NeedLine(la) => {
                        any_pause = true;
                        q_pauses += 1;
                        n_line_caps += 1;
                        let mut buf = [0u8; LINE_BYTES as usize];
                        let served = cl.shared_icache.borrow_mut().read(la, &mut buf);
                        let msg = match served {
                            Ok(lat) => LineMsg {
                                addr: la,
                                bytes: buf,
                                fill: lat.get(),
                                err: None,
                            },
                            Err(e) => LineMsg {
                                addr: la,
                                bytes: [0; LINE_BYTES as usize],
                                fill: 0,
                                err: Some(e),
                            },
                        };
                        if msg.err.is_none() && known_lines.insert(la) {
                            caps.push(LineMsg {
                                fill: 1,
                                ..msg.clone()
                            });
                            cap_requesters.push(h);
                        }
                        pending[h].resp_line = Some(msg);
                    }
                    RoundStatus::NeedExt(req) => {
                        any_pause = true;
                        q_pauses += 1;
                        n_ext_pauses += 1;
                        let served = if req.write {
                            cl.ext
                                .borrow_mut()
                                .write(req.addr, &req.data)
                                .map(|lat| (Vec::new(), lat))
                        } else {
                            let mut buf = vec![0u8; req.len];
                            cl.ext
                                .borrow_mut()
                                .read(req.addr, &mut buf)
                                .map(|lat| (buf, lat))
                        };
                        let resp = match served {
                            Ok((data, lat)) => ExtResp {
                                data,
                                stall: convert_freq(lat, cfg.soc_freq, cfg.freq)
                                    .saturating_sub(Cycles::new(1))
                                    .get(),
                                err: None,
                            },
                            Err(e) => ExtResp {
                                data: Vec::new(),
                                stall: 0,
                                err: Some(e),
                            },
                        };
                        pending[h].resp_ext = Some(resp);
                    }
                    RoundStatus::Failed(e) => {
                        active[h] = false;
                        latest_dirty[h] = out.dirty;
                        latest_shadow[h] = out.shadow;
                        if failure.is_none() {
                            failure = Some(e);
                        }
                    }
                }
            }
            // Broadcast freshly captured lines to every other core so
            // common code pauses once per line, not once per core.
            for (msg, requester) in caps.into_iter().zip(cap_requesters) {
                for (h, input) in pending.iter_mut().enumerate() {
                    if h != requester && active[h] {
                        input.new_lines.push(msg.clone());
                    }
                }
            }
            if let (Some(p), Some(t0)) = (profile.as_ref(), round_t0) {
                p.record_round(t0.elapsed().as_nanos() as u64, busy_ns);
            }
            if failure.is_some() {
                break 'team;
            }
            if any_pause {
                continue 'team;
            }
        }
        debug_assert!(
            (0..num_cores).all(|h| !active[h] || at_boundary[h]),
            "round settled with a core neither halted nor at the boundary"
        );

        // --- quantum boundary: canonical TCDM merge ------------------------
        n_quanta += 1;
        let patch = merge_dirty(sram.as_mut_slice(), &latest_dirty);
        n_sync_pages += patch.len() as u64;
        for d in latest_dirty.iter_mut() {
            d.clear();
        }
        if sanitize {
            fold_shadow(
                &latest_shadow,
                &mut shadow_cum,
                &mut races_reported,
                cl.tracer.as_ref(),
            );
        }
        if !patch.is_empty() {
            let patch = Arc::new(patch);
            for (h, input) in pending.iter_mut().enumerate() {
                if active[h] {
                    input.patch = Some(patch.clone());
                }
            }
        }
        if collect_digest {
            let mut f = Fnv64::new();
            f.write(sram.as_slice());
            for h in 0..num_cores {
                match &exits[h] {
                    Some(e) => {
                        f.write_u64(e.state).write_u64(e.cycles.get());
                    }
                    None => {
                        f.write_u64(last_digest[h]).write_u64(last_cycles[h]);
                    }
                }
            }
            if let Some(obs) = observer.as_deref_mut() {
                obs(quantum_idx, f.finish());
            }
        }
        if let Some(t) = &cl.tracer {
            t.borrow_mut().record(
                Track::Soc,
                TraceEvent::TeamQuantum {
                    quantum: quantum_idx,
                    rounds: q_rounds,
                    pauses: q_pauses,
                },
            );
        }
        (q_rounds, q_pauses) = (0, 0);
        if active.iter().all(|a| !*a) {
            break 'team;
        }
        // Budget enforcement at quantum granularity: the oldest still-
        // running core that has strictly exceeded the budget times the
        // team out (a core that halts within its final quantum wins).
        if let Some(h) = (0..num_cores).find(|&h| active[h] && last_cycles[h] > max_cycles) {
            failure = Some(RvError::Timeout {
                cycles: last_cycles[h],
            });
            break 'team;
        }
        boundary += quantum;
        quantum_idx += 1;
        for (h, b) in at_boundary.iter_mut().enumerate() {
            if active[h] {
                *b = false;
            }
        }
    }

    // On failure the canonical image still reflects every completed merge
    // plus the final round's dirty pages, merged canonically above — the
    // deterministic analogue of the old engine's partial writes.
    if failure.is_some() {
        let patch = merge_dirty(sram.as_mut_slice(), &latest_dirty);
        n_sync_pages += patch.len() as u64;
        if sanitize {
            // Races observed up to the abort still reach the trace.
            fold_shadow(
                &latest_shadow,
                &mut shadow_cum,
                &mut races_reported,
                cl.tracer.as_ref(),
            );
        }
    }
    cl.spare_cores.extend(runners.into_iter().map(|r| r.core));
    // Every bus clone of the image went with its runner; reclaim the
    // buffer for the next team.
    cl.spare_image = Arc::try_unwrap(image).ok();
    if let Some(e) = failure {
        return Err(e);
    }

    // --- aggregation, in hart-id order ------------------------------------
    let exits: Vec<ExitInfo> = exits
        .into_iter()
        .map(|e| e.expect("halted core has exit info"))
        .collect();
    {
        // Settle the TCDM device counters the cores would have bumped had
        // they gone through `MemoryDevice::read`/`write` directly. Zero
        // sums are skipped so untouched counters stay absent, exactly as
        // if no access had happened.
        let st = sram.stats_mut();
        for (key, sum) in [
            ("reads", exits.iter().map(|e| e.tcdm_reads).sum::<u64>()),
            ("bytes_read", exits.iter().map(|e| e.tcdm_read_bytes).sum()),
            ("writes", exits.iter().map(|e| e.tcdm_writes).sum()),
            (
                "bytes_written",
                exits.iter().map(|e| e.tcdm_write_bytes).sum(),
            ),
        ] {
            if sum != 0 {
                st.add(key, sum);
            }
        }
    }
    let mut arith_ops = 0u64;
    for e in &exits {
        cl.stats.add("tcdm_conflicts", e.perf.tcdm_conflict_stalls);
        cl.stats.add("instret", e.instret);
        arith_ops += e.arith_ops;
        cl.stats.add("decode_hits", e.decode_hits);
        cl.stats.add("decode_misses", e.decode_misses);
        cl.stats.add("decode_invalidations", e.decode_invalidations);
        cl.stats.add("tcdm_accesses", e.perf.tcdm_accesses);
        cl.stats.add("icache_p_hits", e.perf.icache_hits);
        cl.stats.add("icache_p_misses", e.perf.icache_misses);
        cl.stats.add("ext_accesses", e.perf.ext_accesses);
        cl.stats.add("ext_stall_cycles", e.perf.ext_stall_cycles);
        cl.stats.add("hwloop_iters", e.perf.hwloop_iters);
    }
    cl.stats.add("quanta", n_quanta);
    cl.stats.add("sync_rounds", n_rounds);
    cl.stats.add("fetch_lines", n_line_caps);
    cl.stats.add("ext_pauses", n_ext_pauses);
    cl.stats.add("tcdm_sync_pages", n_sync_pages);

    // The final race set is derived from the final cumulative masks (not
    // from when each conflict was first detected), so it is invariant
    // across step orders and quantum lengths.
    let races: Vec<RaceRecord> = shadow_cum
        .iter()
        .filter(|&(_, &(readers, writers))| is_conflict(readers, writers))
        .map(|(&w, &(readers, writers))| RaceRecord {
            addr: TCDM_BASE + u64::from(w) * 4,
            writers,
            readers,
        })
        .collect();
    if !races.is_empty() {
        // Zero-suppressed like the device counters: a sanitized run of a
        // race-free program leaves stats identical to an unsanitized one.
        cl.stats.add("tcdm_races", races.len() as u64);
    }

    let per_core: Vec<Cycles> = exits.iter().map(|e| e.cycles).collect();
    let max = per_core.iter().copied().fold(Cycles::ZERO, Cycles::max);
    let cycles = max + Cycles::new(cfg.barrier_cycles);
    cl.busy_cycles += cycles;
    cl.stats.inc("teams");
    cl.stats.add("team_cycles", cycles.get());
    if let Some(p) = profile.as_ref() {
        p.record_team(n_quanta);
    }
    Ok(TeamResult {
        cycles,
        per_core,
        per_core_instret: exits.iter().map(|e| e.instret).collect(),
        per_core_state: exits.iter().map(|e| e.state).collect(),
        arith_ops,
        per_core_perf: exits.iter().map(|e| e.perf).collect(),
        races,
    })
}

/// Conflict predicate over one word's final hart masks: more than one
/// writer, or a writer plus a distinct reader. A hart reading its own
/// writes is not a race.
fn is_conflict(readers: u32, writers: u32) -> bool {
    writers.count_ones() > 1 || (writers != 0 && (readers & !writers) != 0)
}

/// Folds each core's cumulative access shadow into the canonical per-word
/// reader/writer hart masks and reports newly provable conflicts on the
/// trace. Marks are idempotent, so re-folding an unchanged shadow is a
/// no-op; folding at every merge (rather than once at team end) only pins
/// each conflict's first-report time to a deterministic quantum boundary.
fn fold_shadow(
    latest: &[AccessShadow],
    cum: &mut BTreeMap<u32, (u32, u32)>,
    reported: &mut BTreeSet<u32>,
    tracer: Option<&SharedTracer>,
) {
    for (h, shadow) in latest.iter().enumerate() {
        if h >= 32 {
            break; // hart masks are u32; the config caps teams well below
        }
        let bit = 1u32 << h;
        for &(page, rmask, wmask) in shadow {
            for (i, mut m) in [rmask, wmask].into_iter().enumerate() {
                while m != 0 {
                    let w = page * 64 + m.trailing_zeros();
                    m &= m - 1;
                    let e = cum.entry(w).or_insert((0, 0));
                    if i == 0 {
                        e.0 |= bit;
                    } else {
                        e.1 |= bit;
                    }
                }
            }
        }
    }
    for (&w, &(readers, writers)) in cum.iter() {
        if is_conflict(readers, writers) && reported.insert(w) {
            if let Some(t) = tracer {
                t.borrow_mut().record(
                    Track::Soc,
                    TraceEvent::TcdmRace {
                        addr: TCDM_BASE + u64::from(w) * 4,
                        writers,
                        readers,
                    },
                );
            }
        }
    }
}

/// Applies each core's dirty pages onto the canonical image, ascending by
/// hart id, with write-elision semantics: a byte equal to its pre-quantum
/// canonical value is unobservable as a write, so only differing bytes
/// land (and later harts overwrite earlier ones — a fixed resolution
/// order, independent of the step order). Returns the pages whose
/// canonical contents changed, for broadcast back to the cores.
fn merge_dirty(canonical: &mut [u8], dirty: &[DirtyPages]) -> DirtyPages {
    let mut olds: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    for pages in dirty {
        for (p, _) in pages {
            let off = *p as usize * PAGE_BYTES;
            olds.entry(*p)
                .or_insert_with(|| canonical[off..off + PAGE_BYTES].to_vec());
        }
    }
    for pages in dirty {
        for (p, bytes) in pages {
            let off = *p as usize * PAGE_BYTES;
            let old = &olds[p];
            for (i, b) in bytes.iter().enumerate() {
                if *b != old[i] {
                    canonical[off + i] = *b;
                }
            }
        }
    }
    olds.into_iter()
        .filter_map(|(p, old)| {
            let off = p as usize * PAGE_BYTES;
            if canonical[off..off + PAGE_BYTES] != old[..] {
                Some((p, canonical[off..off + PAGE_BYTES].to_vec()))
            } else {
                None
            }
        })
        .collect()
}
