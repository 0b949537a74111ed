//! Quantum-based deterministic team execution.
//!
//! [`Cluster::run_team`] used to step each core of a team sequentially to
//! completion over shared memory. This module replaces that loop with a
//! GVSoC-style quantum scheduler: every core simulates bounded cycle
//! quanta `[k·Q, (k+1)·Q)` against a **private view** of the cluster
//! (copy-on-write overlays of the TCDM pages it wrote this quantum, a
//! private I-cache model, a per-team line store for instruction bytes),
//! and all interactions with shared state — TCDM stores, instruction-line
//! fills through the shared L1.5, external (AXI) accesses — are resolved
//! **canonically, in hart-id order**, by the master loop.
//!
//! One owner holds everything: `run_team` keeps the team's core runners
//! and the canonical TCDM image, borrowed for the whole team. A round
//! steps the runnable cores against a per-round [`QuantumBus`], which
//! reads a core's overlays and otherwise the canonical image in place.
//! The master then services the round's pauses in hart order, writing
//! each response straight into the paused core's view. At every quantum
//! boundary it merges each core's overlays into the canonical image, in
//! hart order, and drops them: after a merge every core's view equals the
//! canonical image, which is why cores can read through to it.
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
//! shared devices, and the cores retry. Requests and retries are a pure
//! function of simulation state, so the pause pattern itself is
//! deterministic and identical for every step order.

use crate::pmca::{
    Cluster, ClusterConfig, CorePerf, RaceRecord, TeamResult, PERF_BASE, PERF_WINDOW_BYTES,
    TCDM_BASE,
};
use hulkv_mem::MemoryDevice;
use hulkv_rv::{Core, CoreBus, Reg, RvError};
use hulkv_sim::{
    convert_freq, Cycles, EngineProfile, Fnv64, Freq, SharedTracer, SimError, TraceEvent, Track,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
// The per-core private view.
// ---------------------------------------------------------------------------

/// An external (AXI-port) access a paused core wants performed.
#[derive(Debug)]
struct ExtReq {
    write: bool,
    addr: u64,
    data: Vec<u8>,
    len: usize,
}

/// A resident instruction line plus the fill latency to charge on this
/// core's next private-I$ miss of it. The first fill (the one that went
/// through the real shared L1.5) carries the real latency; every later
/// fill models a shared-cache hit.
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

/// Everything one core owns across the rounds of a team.
#[derive(Debug)]
struct PrivateView {
    /// Copy-on-write overlays of the TCDM pages this core wrote since the
    /// last merge; every other page reads the canonical image.
    pages: Vec<Option<Box<[u8; PAGE_BYTES]>>>,
    /// Indices of the overlaid `pages`.
    dirty: Vec<u32>,
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
    // the page's 64 words. Empty (and never touched) when off. Marks are
    // idempotent and never cleared within a team run.
    sanitize: bool,
    shadow: BTreeMap<u32, [u64; 2]>,
}

impl PrivateView {
    fn new(cfg: &ClusterConfig, conflict_q16: u64) -> Self {
        debug_assert_eq!(cfg.tcdm_bytes() % PAGE_BYTES, 0, "TCDM not page-multiple");
        PrivateView {
            pages: vec![None; cfg.tcdm_bytes() / PAGE_BYTES],
            dirty: Vec::new(),
            priv_tags: vec![u64::MAX; (cfg.icache_private_bytes / 32).max(1).next_power_of_two()],
            priv_hits: 0,
            priv_misses: 0,
            lines: HashMap::new(),
            bad_lines: HashMap::new(),
            pending_line: None,
            ext_records: Vec::new(),
            replay_pos: 0,
            pending_ext: None,
            conflict_q16,
            conflict_acc: 0,
            conflicts: 0,
            tcdm_accesses: 0,
            tcdm_reads: 0,
            tcdm_read_bytes: 0,
            tcdm_writes: 0,
            tcdm_write_bytes: 0,
            ext_accesses: 0,
            ext_stall_cycles: 0,
            cluster_freq: cfg.freq,
            soc_freq: cfg.soc_freq,
            sanitize: cfg.race_sanitizer,
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

/// One core's bus for one round: its private view over the canonical TCDM
/// image, which it reads in place wherever it has no overlay.
struct QuantumBus<'a> {
    view: &'a mut PrivateView,
    tcdm: &'a [u8],
}

impl QuantumBus<'_> {
    fn tcdm_offset(&self, addr: u64, len: usize) -> Option<usize> {
        if addr >= TCDM_BASE && addr + len as u64 <= TCDM_BASE + self.tcdm.len() as u64 {
            Some((addr - TCDM_BASE) as usize)
        } else {
            None
        }
    }

    fn page_ref(&self, p: usize) -> &[u8] {
        match &self.view.pages[p] {
            Some(b) => &b[..],
            None => &self.tcdm[p * PAGE_BYTES..(p + 1) * PAGE_BYTES],
        }
    }

    fn page_mut(&mut self, p: usize) -> &mut [u8] {
        let (tcdm, view) = (self.tcdm, &mut *self.view);
        &mut view.pages[p].get_or_insert_with(|| {
            view.dirty.push(p as u32);
            let page = &tcdm[p * PAGE_BYTES..(p + 1) * PAGE_BYTES];
            Box::new(page.try_into().expect("page-sized slice"))
        })[..]
    }
}

impl CoreBus for QuantumBus<'_> {
    #[inline]
    fn fetch(&mut self, addr: u64) -> Result<(u32, Cycles), SimError> {
        let v = &mut *self.view;
        let first = addr & !(LINE_BYTES - 1);
        let last = (addr + 3) & !(LINE_BYTES - 1);
        // All needed lines must be resident before any side effect lands,
        // so a paused-and-retried fetch charges exactly once.
        for la in [first, last] {
            if let Some(e) = v.bad_lines.get(&la) {
                return Err(e.clone());
            }
            if !v.lines.contains_key(&la) {
                v.pending_line = Some(la);
                return Err(pause_error());
            }
            if first == last {
                break;
            }
        }
        let mut lat = v.touch_line(first);
        if last != first {
            lat += v.touch_line(last);
        }
        let mut b = [0u8; 4];
        for (i, o) in b.iter_mut().enumerate() {
            let a = addr + i as u64;
            let e = &v.lines[&(a & !(LINE_BYTES - 1))];
            *o = e.bytes[(a & (LINE_BYTES - 1)) as usize];
        }
        // A private-I$ hit (1 cycle) is fully pipelined.
        Ok((u32::from_le_bytes(b), v.ext_stall(Cycles::new(lat))))
    }

    // Hit paths, run per replayed fetch and per TCDM access.
    #[inline(always)]
    fn fetch_touch(&mut self, addr: u64) -> bool {
        let first = addr & !(LINE_BYTES - 1);
        if (addr + 3) & !(LINE_BYTES - 1) != first {
            return false; // straddling fetches take the full path
        }
        let v = &mut *self.view;
        let set = v.priv_set(first);
        if v.priv_tags[set] == first {
            v.priv_hits += 1;
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
            let v = &mut *self.view;
            v.tcdm_accesses += 1;
            v.tcdm_reads += 1;
            v.tcdm_read_bytes += buf.len() as u64;
            if v.sanitize {
                v.shadow_mark(off, buf.len(), false);
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
            Ok(self.view.conflict_stall())
        } else if let Some(off) = self.view.perf_offset(addr, buf.len()) {
            let img = self.view.perf_image();
            buf.copy_from_slice(&img[off as usize..off as usize + buf.len()]);
            Ok(Cycles::ZERO)
        } else {
            let (data, stall) = self.view.ext_access(false, addr, None, buf.len())?;
            buf.copy_from_slice(&data);
            Ok(stall)
        }
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, data: &[u8]) -> Result<Cycles, SimError> {
        if let Some(off) = self.tcdm_offset(addr, data.len()) {
            let v = &mut *self.view;
            v.tcdm_accesses += 1;
            v.tcdm_writes += 1;
            v.tcdm_write_bytes += data.len() as u64;
            if v.sanitize {
                v.shadow_mark(off, data.len(), true);
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
            Ok(self.view.conflict_stall())
        } else if self.view.perf_offset(addr, data.len()).is_some() {
            // The counters are bus-owned: stores are accepted and dropped.
            Ok(Cycles::ZERO)
        } else {
            let (_, stall) = self.view.ext_access(true, addr, Some(data), data.len())?;
            Ok(stall)
        }
    }

    fn hpm_icache_misses(&self) -> u64 {
        self.view.priv_misses
    }

    fn hpm_conflict_stalls(&self) -> u64 {
        self.view.conflicts
    }
}

// ---------------------------------------------------------------------------
// The per-core runner.
// ---------------------------------------------------------------------------

/// Where a core stands in the current quantum.
#[derive(Debug)]
enum RunState {
    /// Steps in the next round.
    Ready,
    /// Waits for the master to serve its pending line or external access.
    Paused,
    /// Reached the quantum boundary, still running.
    Boundary,
    /// Hit `ebreak`.
    Halted,
    /// A real (guest-visible) execution error.
    Failed(RvError),
}

struct CoreRunner {
    core: Core,
    view: PrivateView,
    episode_instret: u64,
    state: RunState,
}

impl CoreRunner {
    /// Whether the core still takes part in the team (neither halted nor
    /// failed).
    fn running(&self) -> bool {
        !matches!(self.state, RunState::Halted | RunState::Failed(_))
    }

    /// Runs the core up to `target` against `tcdm` and records how it left.
    fn round(&mut self, tcdm: &[u8], target: u64) {
        let mut bus = QuantumBus {
            view: &mut self.view,
            tcdm,
        };
        self.state = match self.core.run_until_cycle(&mut bus, target) {
            Ok(true) => RunState::Halted,
            Ok(false) => RunState::Boundary,
            Err(_) if self.view.pending_line.is_some() || self.view.pending_ext.is_some() => {
                self.on_pause();
                RunState::Paused
            }
            Err(e) => RunState::Failed(e),
        };
    }

    /// Starts a fresh external-access episode when the paused instruction
    /// differs from the one the current records belong to. `instret` is
    /// only committed on instruction completion, so it uniquely identifies
    /// the in-flight instruction.
    fn on_pause(&mut self) {
        if self.core.instret() != self.episode_instret {
            self.view.ext_records.clear();
            self.view.replay_pos = 0;
            self.episode_instret = self.core.instret();
        }
    }
}

// ---------------------------------------------------------------------------
// The master loop.
// ---------------------------------------------------------------------------

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
            let mut core = match cl.spare_cores.pop() {
                Some(mut c) => {
                    c.reset_ri5cy(hartid as u64);
                    c
                }
                None => Core::ri5cy(hartid as u64),
            };
            core.set_decode_cache(cfg.decode_cache);
            if let Some(t) = &cl.tracer {
                core.set_tracer(t.clone());
            }
            core.set_pc(entry);
            core.set_reg(Reg::Sp, tcdm_top - (hartid * cfg.stack_bytes) as u64);
            for &(r, v) in args {
                core.set_reg(r, v);
            }
            CoreRunner {
                core,
                view: PrivateView::new(&cfg, conflict_q16),
                episode_instret: u64::MAX,
                state: RunState::Ready,
            }
        })
        .collect();

    // The canonical TCDM image is the SRAM's own buffer: cores read it in
    // place between merges, and the master mutates it at merge points.
    // Holding the borrow for the whole team is safe: the TCDM is not
    // reachable through the SoC-side `ext` port (no loopback mapping), and
    // the DMA only runs between teams.
    let mut sram = cl.tcdm_typed.borrow_mut();
    let sanitize = cfg.race_sanitizer;
    let collect_digest = observer.is_some();
    // Cumulative per-word access sets: global word index -> (reader hart
    // mask, writer hart mask); plus the words already reported as racing.
    let mut shadow_cum: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    let mut races_reported: BTreeSet<u32> = BTreeSet::new();
    let mut known_lines: BTreeSet<u64> = BTreeSet::new();
    let mut boundary = quantum;
    let mut quantum_idx = 0u64;
    let (mut n_quanta, mut n_rounds, mut n_line_caps, mut n_ext_pauses, mut n_sync_pages) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut q_rounds, mut q_pauses) = (0u64, 0u64);
    let mut failure: Option<RvError> = None;

    'team: loop {
        if runners.iter().any(|r| matches!(r.state, RunState::Ready)) {
            n_rounds += 1;
            q_rounds += 1;
            let round_t0 = profile.as_ref().map(|_| Instant::now());
            // The step order is semantically irrelevant (the permutation
            // tests prove it): a core sees only its own view and the
            // canonical image, which no core changes within a round.
            for &h in &order {
                if matches!(runners[h].state, RunState::Ready) {
                    runners[h].round(sram.as_slice(), boundary);
                }
            }
            let busy_ns = round_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            // Ascending hart id = canonical order for every shared-state
            // interaction below.
            let mut any_pause = false;
            for h in 0..num_cores {
                match &runners[h].state {
                    RunState::Paused => {}
                    RunState::Failed(e) => {
                        failure.get_or_insert_with(|| e.clone());
                        continue;
                    }
                    _ => continue,
                }
                any_pause = true;
                q_pauses += 1;
                if let Some(la) = runners[h].view.pending_line.take() {
                    n_line_caps += 1;
                    let mut bytes = [0u8; LINE_BYTES as usize];
                    match cl.shared_icache.borrow_mut().read(la, &mut bytes) {
                        Ok(lat) => {
                            // Overwrites any broadcast copy: the requester
                            // charges the real first-fill latency.
                            let fill = lat.get();
                            runners[h].view.lines.insert(la, LineEntry { bytes, fill });
                            // Broadcast a freshly captured line to every
                            // other core so common code pauses once per
                            // line, not once per core.
                            if known_lines.insert(la) {
                                for (g, r) in runners.iter_mut().enumerate() {
                                    if g != h && r.running() {
                                        r.view
                                            .lines
                                            .entry(la)
                                            .or_insert(LineEntry { bytes, fill: 1 });
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            runners[h].view.bad_lines.insert(la, e);
                        }
                    }
                } else {
                    n_ext_pauses += 1;
                    let req = runners[h]
                        .view
                        .pending_ext
                        .take()
                        .expect("paused core has a request");
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
                    let view = &mut runners[h].view;
                    let (data, stall, err) = match served {
                        Ok((data, lat)) => (data, view.ext_stall(lat).get(), None),
                        Err(e) => (Vec::new(), 0, Some(e)),
                    };
                    view.ext_records.push(ExtRecord {
                        write: req.write,
                        addr: req.addr,
                        len: req.len,
                        data,
                        stall,
                        err,
                        counted: false,
                    });
                }
                // The retried instruction replays its accesses from the
                // start.
                runners[h].view.replay_pos = 0;
                runners[h].state = RunState::Ready;
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
            runners
                .iter()
                .all(|r| matches!(r.state, RunState::Boundary | RunState::Halted)),
            "round settled with a core neither halted nor at the boundary"
        );

        // --- quantum boundary: canonical TCDM merge ------------------------
        n_quanta += 1;
        n_sync_pages += merge(sram.as_mut_slice(), &mut runners);
        if sanitize {
            fold_shadow(
                &runners,
                &mut shadow_cum,
                &mut races_reported,
                cl.tracer.as_ref(),
            );
        }
        if collect_digest {
            let mut f = Fnv64::new();
            f.write(sram.as_slice());
            for r in &runners {
                f.write_u64(r.core.state_digest())
                    .write_u64(r.core.cycles().get());
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
        if !runners.iter().any(CoreRunner::running) {
            break 'team;
        }
        // Budget enforcement at quantum granularity: the oldest still-
        // running core that has strictly exceeded the budget times the
        // team out (a core that halts within its final quantum wins).
        if let Some(r) = runners
            .iter()
            .find(|r| r.running() && r.core.cycles().get() > max_cycles)
        {
            failure = Some(RvError::Timeout {
                cycles: r.core.cycles().get(),
            });
            break 'team;
        }
        boundary += quantum;
        quantum_idx += 1;
        for r in runners.iter_mut().filter(|r| r.running()) {
            r.state = RunState::Ready;
        }
    }

    if let Some(e) = failure {
        // Every core's stores up to the abort — a core paused in the
        // failing round included — still land, merged canonically, and
        // races observed up to the abort still reach the trace.
        merge(sram.as_mut_slice(), &mut runners);
        if sanitize {
            fold_shadow(
                &runners,
                &mut shadow_cum,
                &mut races_reported,
                cl.tracer.as_ref(),
            );
        }
        cl.spare_cores.extend(runners.into_iter().map(|r| r.core));
        return Err(e);
    }

    // --- aggregation, in hart-id order ------------------------------------
    {
        // Settle the TCDM device counters the cores would have bumped had
        // they gone through `MemoryDevice::read`/`write` directly. Zero
        // sums are skipped so untouched counters stay absent, exactly as
        // if no access had happened.
        let total = |f: fn(&PrivateView) -> u64| runners.iter().map(|r| f(&r.view)).sum::<u64>();
        let st = sram.stats_mut();
        for (key, sum) in [
            ("reads", total(|v| v.tcdm_reads)),
            ("bytes_read", total(|v| v.tcdm_read_bytes)),
            ("writes", total(|v| v.tcdm_writes)),
            ("bytes_written", total(|v| v.tcdm_write_bytes)),
        ] {
            if sum != 0 {
                st.add(key, sum);
            }
        }
    }
    let mut per_core_perf = Vec::with_capacity(num_cores);
    let mut arith_ops = 0u64;
    for r in &runners {
        let cs = r.core.stats();
        let perf = CorePerf {
            tcdm_accesses: r.view.tcdm_accesses,
            tcdm_conflict_stalls: r.view.conflicts,
            icache_hits: r.view.priv_hits,
            icache_misses: r.view.priv_misses,
            ext_accesses: r.view.ext_accesses,
            ext_stall_cycles: r.view.ext_stall_cycles,
            hwloop_iters: cs.get("hwloop_iters"),
            taken_branches: cs.get("taken_branches"),
        };
        cl.stats.add("tcdm_conflicts", perf.tcdm_conflict_stalls);
        cl.stats.add("instret", r.core.instret());
        arith_ops += cs.get("arith_ops");
        cl.stats.add("decode_hits", cs.get("decode_hits"));
        cl.stats.add("decode_misses", cs.get("decode_misses"));
        cl.stats
            .add("decode_invalidations", cs.get("decode_invalidations"));
        cl.stats.add("tcdm_accesses", perf.tcdm_accesses);
        cl.stats.add("icache_p_hits", perf.icache_hits);
        cl.stats.add("icache_p_misses", perf.icache_misses);
        cl.stats.add("ext_accesses", perf.ext_accesses);
        cl.stats.add("ext_stall_cycles", perf.ext_stall_cycles);
        cl.stats.add("hwloop_iters", perf.hwloop_iters);
        per_core_perf.push(perf);
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

    let per_core: Vec<Cycles> = runners.iter().map(|r| r.core.cycles()).collect();
    let max = per_core.iter().copied().fold(Cycles::ZERO, Cycles::max);
    let cycles = max + Cycles::new(cfg.barrier_cycles);
    cl.busy_cycles += cycles;
    cl.stats.inc("teams");
    cl.stats.add("team_cycles", cycles.get());
    if let Some(p) = profile.as_ref() {
        p.record_team(n_quanta);
    }
    let result = TeamResult {
        cycles,
        per_core,
        per_core_instret: runners.iter().map(|r| r.core.instret()).collect(),
        per_core_state: runners.iter().map(|r| r.core.state_digest()).collect(),
        arith_ops,
        per_core_perf,
        races,
    };
    cl.spare_cores.extend(runners.into_iter().map(|r| r.core));
    Ok(result)
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
    runners: &[CoreRunner],
    cum: &mut BTreeMap<u32, (u32, u32)>,
    reported: &mut BTreeSet<u32>,
    tracer: Option<&SharedTracer>,
) {
    // Hart masks are u32; the config caps teams at 32 cores.
    for (h, r) in runners.iter().enumerate().take(32) {
        let bit = 1u32 << h;
        for (&page, masks) in &r.view.shadow {
            for (i, &mask) in masks.iter().enumerate() {
                let mut m = mask;
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

/// Merges every core's overlays into the canonical image, ascending by
/// hart id, with write-elision semantics: a byte equal to its pre-merge
/// canonical value is unobservable as a write, so only differing bytes
/// land (and later harts overwrite earlier ones — a fixed resolution
/// order, independent of the step order). The overlays are dropped, so
/// every core's view equals the canonical image again. Returns the number
/// of pages whose canonical contents changed.
fn merge(canonical: &mut [u8], runners: &mut [CoreRunner]) -> u64 {
    let mut olds: BTreeMap<u32, [u8; PAGE_BYTES]> = BTreeMap::new();
    for r in runners.iter_mut() {
        for p in r.view.dirty.drain(..) {
            let page = &mut canonical[p as usize * PAGE_BYTES..][..PAGE_BYTES];
            let old = olds
                .entry(p)
                .or_insert_with(|| (&*page).try_into().expect("page-sized slice"));
            let new = r.view.pages[p as usize]
                .take()
                .expect("dirty page has an overlay");
            for ((c, n), o) in page.iter_mut().zip(new.iter()).zip(old.iter()) {
                if n != o {
                    *c = *n;
                }
            }
        }
    }
    olds.iter()
        .filter(|&(&p, old)| canonical[p as usize * PAGE_BYTES..][..PAGE_BYTES] != old[..])
        .count() as u64
}
