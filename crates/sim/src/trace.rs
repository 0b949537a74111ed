//! Cycle-stamped structured event tracing for the whole SoC.
//!
//! Every modeled block (cores, caches, DRAM, DMA, mailbox, interrupt
//! controller, offload runtime) can carry an optional [`SharedTracer`]
//! handle. When no tracer is attached the instrumentation costs a single
//! branch; when attached, events are recorded into a bounded ring buffer
//! (newest events win) gated by a per-category enable mask.
//!
//! Recorded traces export to two formats:
//!
//! * **Chrome `trace_event` JSON** ([`Tracer::chrome_trace`]) — loadable
//!   in Perfetto / `chrome://tracing`, with one named track per hart,
//!   cluster core, cache, DMA engine and DRAM controller. Cycle stamps
//!   are emitted as microseconds (1 cycle = 1 µs) so the UI's zoom is
//!   meaningful.
//! * **flat JSONL** ([`Tracer::jsonl`]) — one JSON object per event, for
//!   ad-hoc scripting and diffing.
//!
//! # Example
//!
//! ```
//! use hulkv_sim::{category, TraceEvent, Tracer, Track};
//!
//! let mut t = Tracer::new(1024);
//! t.enable(category::ALL);
//! t.set_now(10);
//! t.record(Track::HostHart, TraceEvent::Retire { pc: 0x80000000, word: 0x13 });
//! assert_eq!(t.len(), 1);
//! let chrome = t.chrome_trace().to_string();
//! assert!(chrome.contains("traceEvents"));
//! ```

use crate::json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Event-category bitmask constants for [`Tracer::enable`].
pub mod category {
    /// Instruction retirement (one event per committed instruction).
    pub const RETIRE: u32 = 1 << 0;
    /// Cache hits, misses and (dirty) evictions.
    pub const CACHE: u32 = 1 << 1;
    /// DRAM bursts (HyperRAM / DDR transactions).
    pub const DRAM: u32 = 1 << 2;
    /// DMA transfer start/end.
    pub const DMA: u32 = 1 << 3;
    /// Mailbox doorbell send/receive.
    pub const MAILBOX: u32 = 1 << 4;
    /// Interrupt raise/claim.
    pub const IRQ: u32 = 1 << 5;
    /// Offload begin/end.
    pub const OFFLOAD: u32 = 1 << 6;
    /// Decoded-instruction-cache counter samples (simulator fast path).
    pub const DECODE: u32 = 1 << 7;
    /// Protection and legality events (IOPMP denials, provably misaligned
    /// guest accesses) — the dynamic side of the `hulkv-analyze` checks.
    pub const PROTECT: u32 = 1 << 8;
    /// Everything.
    pub const ALL: u32 = u32::MAX;

    /// Number of distinct categories (contiguous bits from 0).
    pub const COUNT: u32 = 9;

    /// The name of category bit `bit` (0-based bit index, not a mask).
    pub const fn bit_name(bit: u32) -> &'static str {
        match bit {
            0 => "retire",
            1 => "cache",
            2 => "dram",
            3 => "dma",
            4 => "mailbox",
            5 => "irq",
            6 => "offload",
            7 => "decode",
            8 => "protect",
            _ => "unknown",
        }
    }
}

/// The timeline a trace event belongs to (one Perfetto track each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// The CVA6 host hart.
    HostHart,
    /// One RI5CY cluster core (by hart id).
    ClusterCore(u8),
    /// The host L1 instruction cache.
    HostL1I,
    /// The host L1 data cache.
    HostL1D,
    /// The last-level cache.
    Llc,
    /// The DRAM controller (HyperRAM or DDR).
    Dram,
    /// The µDMA engine (L2SPM ↔ DRAM).
    Dma,
    /// The cluster-internal DMA engine (TCDM ↔ L2/DRAM).
    ClusterDma,
    /// SoC-level control events (offload runtime, mailbox, interrupts).
    Soc,
    /// Timeline counter samples (power, IPC, utilization per window).
    Telemetry,
}

impl Track {
    /// A stable Chrome-trace thread id for the track.
    pub fn tid(self) -> u64 {
        match self {
            Track::HostHart => 1,
            Track::ClusterCore(h) => 10 + u64::from(h),
            Track::HostL1I => 30,
            Track::HostL1D => 31,
            Track::Llc => 32,
            Track::Dram => 33,
            Track::Dma => 40,
            Track::ClusterDma => 41,
            Track::Soc => 50,
            Track::Telemetry => 60,
        }
    }

    /// A human-readable track name.
    pub fn name(self) -> String {
        match self {
            Track::HostHart => "host/cva6".into(),
            Track::ClusterCore(h) => format!("cluster/core{h}"),
            Track::HostL1I => "host/l1i".into(),
            Track::HostL1D => "host/l1d".into(),
            Track::Llc => "mem/llc".into(),
            Track::Dram => "mem/dram".into(),
            Track::Dma => "dma/udma".into(),
            Track::ClusterDma => "dma/cluster".into(),
            Track::Soc => "soc/control".into(),
            Track::Telemetry => "soc/telemetry".into(),
        }
    }
}

/// One structured trace event. All variants are `Copy` so recording never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction committed.
    Retire {
        /// Program counter of the retired instruction.
        pc: u64,
        /// Raw instruction word.
        word: u32,
    },
    /// A cache access hit.
    CacheHit {
        /// Accessed address.
        addr: u64,
        /// Was this a write access?
        write: bool,
    },
    /// A cache access missed.
    CacheMiss {
        /// Accessed address.
        addr: u64,
        /// Was this a write access?
        write: bool,
    },
    /// A line was evicted.
    CacheEvict {
        /// Base address of the victim line.
        addr: u64,
        /// Whether the line was dirty (caused a writeback).
        dirty: bool,
    },
    /// A DRAM burst transaction.
    DramBurst {
        /// Start address.
        addr: u64,
        /// Transaction size in bytes.
        bytes: u32,
        /// Write (vs read) transaction.
        write: bool,
    },
    /// A DMA transfer was issued.
    DmaStart {
        /// Source address.
        src: u64,
        /// Destination address.
        dst: u64,
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A DMA transfer completed (exported as a span of its duration).
    DmaEnd {
        /// Transfer size in bytes.
        bytes: u64,
    },
    /// A mailbox doorbell was sent.
    MailboxSend {
        /// Host→cluster (vs cluster→host).
        to_cluster: bool,
        /// Posted value.
        value: u64,
    },
    /// A mailbox message was consumed.
    MailboxRecv {
        /// Consumed by the host (vs by the cluster).
        by_host: bool,
        /// Received value.
        value: u64,
    },
    /// An interrupt line was raised.
    IrqRaise {
        /// Interrupt source id.
        irq: u32,
    },
    /// An interrupt was claimed by a hart.
    IrqClaim {
        /// Interrupt source id.
        irq: u32,
    },
    /// An offload began (doorbell rung, descriptor posted).
    OffloadBegin {
        /// Registered kernel id.
        kernel: u32,
        /// Team size in cores.
        cores: u32,
    },
    /// An offload completed (exported as a span of its duration).
    OffloadEnd {
        /// Registered kernel id.
        kernel: u32,
    },
    /// The IOPMP denied a cluster-side master transaction.
    IopmpDeny {
        /// Faulting SoC address.
        addr: u64,
        /// Access size in bytes.
        bytes: u32,
    },
    /// A core issued a data access not naturally aligned for its size.
    /// The model executes it (splitting at page boundaries as needed);
    /// the event lets the static analyzer's misalignment findings be
    /// confirmed or refuted dynamically.
    Misaligned {
        /// Program counter of the access.
        pc: u64,
        /// Accessed (virtual) address.
        addr: u64,
        /// Access size in bytes.
        bytes: u32,
    },
    /// A decoded-instruction-cache counter sample (emitted on each
    /// invalidation and at core halt; exported as a Chrome counter track).
    DecodeCache {
        /// Fast-path replays so far.
        hits: u64,
        /// Full decode-path executions so far.
        misses: u64,
        /// Whole-cache invalidations so far.
        invalidations: u64,
    },
    /// The cluster race sanitizer observed conflicting cross-hart TCDM
    /// accesses to one word within a single inter-sync window (emitted
    /// once per conflicting word, at the quantum merge that first proves
    /// the conflict).
    TcdmRace {
        /// SoC address of the conflicting TCDM word.
        addr: u64,
        /// Bitmask of harts that wrote the word.
        writers: u32,
        /// Bitmask of harts that read the word.
        readers: u32,
    },
    /// One quantum of the cluster's deterministic-parallel team engine
    /// completed: all cores reached the cycle boundary and shared state
    /// was merged canonically.
    TeamQuantum {
        /// Quantum index within the team run (0-based).
        quantum: u64,
        /// Synchronization rounds the quantum took (1 = no core paused).
        rounds: u64,
        /// Mid-quantum pauses serviced (I-line fills + external accesses).
        pauses: u64,
    },
}

impl TraceEvent {
    /// The category bit of this event (see [`category`]).
    pub fn category(&self) -> u32 {
        match self {
            TraceEvent::Retire { .. } => category::RETIRE,
            TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::CacheEvict { .. } => category::CACHE,
            TraceEvent::DramBurst { .. } => category::DRAM,
            TraceEvent::DmaStart { .. } | TraceEvent::DmaEnd { .. } => category::DMA,
            TraceEvent::MailboxSend { .. } | TraceEvent::MailboxRecv { .. } => category::MAILBOX,
            TraceEvent::IrqRaise { .. } | TraceEvent::IrqClaim { .. } => category::IRQ,
            TraceEvent::OffloadBegin { .. }
            | TraceEvent::OffloadEnd { .. }
            | TraceEvent::TeamQuantum { .. } => category::OFFLOAD,
            TraceEvent::DecodeCache { .. } => category::DECODE,
            TraceEvent::IopmpDeny { .. }
            | TraceEvent::Misaligned { .. }
            | TraceEvent::TcdmRace { .. } => category::PROTECT,
        }
    }

    /// A short event name (used in both export formats).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Retire { .. } => "retire",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::CacheEvict { .. } => "cache_evict",
            TraceEvent::DramBurst { .. } => "dram_burst",
            TraceEvent::DmaStart { .. } => "dma_start",
            TraceEvent::DmaEnd { .. } => "dma",
            TraceEvent::MailboxSend { .. } => "mailbox_send",
            TraceEvent::MailboxRecv { .. } => "mailbox_recv",
            TraceEvent::IrqRaise { .. } => "irq_raise",
            TraceEvent::IrqClaim { .. } => "irq_claim",
            TraceEvent::OffloadBegin { .. } => "offload_begin",
            TraceEvent::OffloadEnd { .. } => "offload",
            TraceEvent::TeamQuantum { .. } => "team_quantum",
            TraceEvent::DecodeCache { .. } => "decode_cache",
            TraceEvent::IopmpDeny { .. } => "iopmp_deny",
            TraceEvent::Misaligned { .. } => "misaligned",
            TraceEvent::TcdmRace { .. } => "tcdm_race",
        }
    }

    /// The category name, for the Chrome-trace `cat` field.
    pub fn category_name(&self) -> &'static str {
        match self.category() {
            category::RETIRE => "retire",
            category::CACHE => "cache",
            category::DRAM => "dram",
            category::DMA => "dma",
            category::MAILBOX => "mailbox",
            category::IRQ => "irq",
            category::DECODE => "decode",
            category::PROTECT => "protect",
            _ => "offload",
        }
    }

    fn args(&self) -> Json {
        let hex = |v: u64| Json::Str(format!("{v:#x}"));
        match *self {
            TraceEvent::Retire { pc, word } => {
                Json::obj([("pc", hex(pc)), ("word", hex(u64::from(word)))])
            }
            TraceEvent::CacheHit { addr, write } | TraceEvent::CacheMiss { addr, write } => {
                Json::obj([("addr", hex(addr)), ("write", Json::from(write))])
            }
            TraceEvent::CacheEvict { addr, dirty } => {
                Json::obj([("addr", hex(addr)), ("dirty", Json::from(dirty))])
            }
            TraceEvent::DramBurst { addr, bytes, write } => Json::obj([
                ("addr", hex(addr)),
                ("bytes", Json::from(u64::from(bytes))),
                ("write", Json::from(write)),
            ]),
            TraceEvent::DmaStart { src, dst, bytes } => Json::obj([
                ("src", hex(src)),
                ("dst", hex(dst)),
                ("bytes", Json::from(bytes)),
            ]),
            TraceEvent::DmaEnd { bytes } => Json::obj([("bytes", Json::from(bytes))]),
            TraceEvent::MailboxSend { to_cluster, value } => Json::obj([
                ("to_cluster", Json::from(to_cluster)),
                ("value", hex(value)),
            ]),
            TraceEvent::MailboxRecv { by_host, value } => {
                Json::obj([("by_host", Json::from(by_host)), ("value", hex(value))])
            }
            TraceEvent::IrqRaise { irq } | TraceEvent::IrqClaim { irq } => {
                Json::obj([("irq", Json::from(u64::from(irq)))])
            }
            TraceEvent::OffloadBegin { kernel, cores } => Json::obj([
                ("kernel", Json::from(u64::from(kernel))),
                ("cores", Json::from(u64::from(cores))),
            ]),
            TraceEvent::OffloadEnd { kernel } => {
                Json::obj([("kernel", Json::from(u64::from(kernel)))])
            }
            TraceEvent::TeamQuantum {
                quantum,
                rounds,
                pauses,
            } => Json::obj([
                ("quantum", Json::from(quantum)),
                ("rounds", Json::from(rounds)),
                ("pauses", Json::from(pauses)),
            ]),
            TraceEvent::IopmpDeny { addr, bytes } => {
                Json::obj([("addr", hex(addr)), ("bytes", Json::from(u64::from(bytes)))])
            }
            TraceEvent::Misaligned { pc, addr, bytes } => Json::obj([
                ("pc", hex(pc)),
                ("addr", hex(addr)),
                ("bytes", Json::from(u64::from(bytes))),
            ]),
            TraceEvent::TcdmRace {
                addr,
                writers,
                readers,
            } => Json::obj([
                ("addr", hex(addr)),
                ("writers", Json::from(u64::from(writers))),
                ("readers", Json::from(u64::from(readers))),
            ]),
            TraceEvent::DecodeCache {
                hits,
                misses,
                invalidations,
            } => Json::obj([
                ("hits", Json::from(hits)),
                ("misses", Json::from(misses)),
                ("invalidations", Json::from(invalidations)),
            ]),
        }
    }
}

/// One recorded event: a cycle stamp, an optional duration (spans), the
/// track it belongs to, and the event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle stamp (SoC-global monotone timebase).
    pub ts: u64,
    /// Span duration in cycles; zero for instant events.
    pub dur: u64,
    /// Owning track.
    pub track: Track,
    /// Event payload.
    pub event: TraceEvent,
}

/// The event recorder: a bounded ring buffer plus a category enable mask
/// and a global monotone cycle cursor that components stamp events with.
#[derive(Debug)]
pub struct Tracer {
    mask: u32,
    now: u64,
    capacity: usize,
    ring: VecDeque<TraceRecord>,
    dropped: u64,
    dropped_by_cat: [u64; category::COUNT as usize],
}

/// A tracer handle shareable across single-threaded model components
/// (same idiom as `SharedMem` in the memory substrate).
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// Creates a tracer with all categories disabled and room for
    /// `capacity` events (oldest events are dropped beyond that).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            mask: 0,
            now: 0,
            capacity: capacity.max(1),
            ring: VecDeque::with_capacity(capacity.max(1)),
            dropped: 0,
            dropped_by_cat: [0; category::COUNT as usize],
        }
    }

    /// Creates a shared tracer handle (see [`SharedTracer`]).
    pub fn shared(capacity: usize) -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new(capacity)))
    }

    /// Enables the categories in `mask` (bits from [`category`]).
    pub fn enable(&mut self, mask: u32) {
        self.mask |= mask;
    }

    /// Disables the categories in `mask`.
    pub fn disable(&mut self, mask: u32) {
        self.mask &= !mask;
    }

    /// The current enable mask.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Is any category in `mask` enabled?
    pub fn enabled(&self, mask: u32) -> bool {
        self.mask & mask != 0
    }

    /// Advances the global cycle cursor (monotone: earlier times are
    /// ignored, so per-track stamps never go backwards).
    pub fn set_now(&mut self, cycle: u64) {
        if cycle > self.now {
            self.now = cycle;
        }
    }

    /// The current global cycle cursor.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Records an instant event at the current cycle cursor. Returns
    /// without touching the ring when the event's category is disabled.
    pub fn record(&mut self, track: Track, event: TraceEvent) {
        self.push(track, event, 0);
    }

    /// Records a span of `dur` cycles starting at the current cursor, and
    /// advances the cursor past it.
    pub fn record_span(&mut self, track: Track, event: TraceEvent, dur: u64) {
        self.push(track, event, dur);
        self.now += dur;
    }

    fn push(&mut self, track: Track, event: TraceEvent, dur: u64) {
        if self.mask & event.category() == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            if let Some(victim) = self.ring.pop_front() {
                let bit = victim.event.category().trailing_zeros();
                if bit < category::COUNT {
                    self.dropped_by_cat[bit as usize] += 1;
                }
            }
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord {
            ts: self.now,
            dur,
            track,
            event,
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events dropped to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-category drop counts: `(category name, events dropped)` for
    /// every category that lost at least one event, in bit order.
    pub fn dropped_by_category(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.dropped_by_cat
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(bit, &n)| (category::bit_name(bit as u32), n))
    }

    /// The tracer's own counters as a `"trace"` [`Stats`] block: buffered
    /// `events`, total `trace_dropped`, and one `trace_dropped_<category>`
    /// counter per category that overflowed — the block a
    /// [`crate::MetricsSnapshot`] surfaces so ring overflow is visible
    /// instead of being silent data loss.
    pub fn stats(&self) -> crate::Stats {
        let mut s = crate::Stats::new("trace");
        s.set("events", self.ring.len() as u64);
        s.set("trace_dropped", self.dropped);
        for (name, n) in self.dropped_by_category() {
            s.set(&format!("trace_dropped_{name}"), n);
        }
        s
    }

    /// Prints a one-line overflow warning to stderr when events were
    /// dropped (called by the exporters, so a truncated trace file never
    /// masquerades as a complete one).
    fn warn_if_dropped(&self, format: &str) {
        if self.dropped == 0 {
            return;
        }
        let per_cat: Vec<String> = self
            .dropped_by_category()
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        eprintln!(
            "warning: {format} export is incomplete: trace ring overflowed, \
             {} events dropped ({}); raise the tracer capacity ({} events) to keep them",
            self.dropped,
            per_cat.join(" "),
            self.capacity
        );
    }

    /// Iterates buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Drops all buffered events (enable mask and cursor are kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.dropped = 0;
        self.dropped_by_cat = [0; category::COUNT as usize];
    }

    /// Exports the buffer as a Chrome `trace_event` JSON document
    /// (Perfetto / `chrome://tracing` compatible). One cycle is emitted
    /// as one microsecond.
    pub fn chrome_trace(&self) -> Json {
        self.chrome_trace_with(&[])
    }

    /// [`Tracer::chrome_trace`] with extra pre-rendered events appended —
    /// the merge point for [`crate::Timeline::chrome_counter_events`]
    /// counter tracks.
    pub fn chrome_trace_with(&self, extra: &[Json]) -> Json {
        self.warn_if_dropped("chrome-trace");
        let mut events = Vec::with_capacity(self.ring.len() + extra.len() + 16);
        events.push(Json::obj([
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("name", Json::from("process_name")),
            ("args", Json::obj([("name", Json::from("hulkv-soc"))])),
        ]));
        let mut tracks: Vec<Track> = self.ring.iter().map(|r| r.track).collect();
        tracks.sort_by_key(|t| t.tid());
        tracks.dedup();
        for track in tracks {
            events.push(Json::obj([
                ("ph", Json::from("M")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(track.tid())),
                ("name", Json::from("thread_name")),
                ("args", Json::obj([("name", Json::from(track.name()))])),
            ]));
        }
        for r in &self.ring {
            let mut pairs = vec![
                ("name", Json::from(r.event.name())),
                ("cat", Json::from(r.event.category_name())),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(r.track.tid())),
                ("ts", Json::from(r.ts)),
                ("args", r.event.args()),
            ];
            if matches!(r.event, TraceEvent::DecodeCache { .. }) {
                // Counter samples render as a stacked counter track.
                pairs.push(("ph", Json::from("C")));
            } else if r.dur > 0 {
                pairs.push(("ph", Json::from("X")));
                pairs.push(("dur", Json::from(r.dur)));
            } else {
                pairs.push(("ph", Json::from("i")));
                pairs.push(("s", Json::from("t")));
            }
            events.push(Json::obj(pairs));
        }
        events.extend(extra.iter().cloned());
        let mut other = vec![("timebase", Json::from("1 cycle = 1 us"))];
        if self.dropped > 0 {
            other.push(("dropped_events", Json::from(self.dropped)));
            other.push((
                "dropped_by_category",
                Json::Obj(
                    self.dropped_by_category()
                        .map(|(name, n)| (name.to_owned(), Json::from(n)))
                        .collect(),
                ),
            ));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
            ("otherData", Json::obj(other)),
        ])
    }

    /// Exports the buffer as flat JSONL: one JSON object per event.
    pub fn jsonl(&self) -> String {
        self.warn_if_dropped("jsonl");
        let mut out = String::new();
        for r in &self.ring {
            let mut obj = Json::obj([
                ("ts", Json::from(r.ts)),
                ("track", Json::from(r.track.name())),
                ("event", Json::from(r.event.name())),
                ("args", r.event.args()),
            ]);
            if r.dur > 0 {
                if let Json::Obj(m) = &mut obj {
                    m.insert("dur".into(), Json::from(r.dur));
                }
            }
            out.push_str(&obj.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retire(pc: u64) -> TraceEvent {
        TraceEvent::Retire { pc, word: 0x13 }
    }

    #[test]
    fn ring_wraps_and_keeps_newest_events() {
        let mut t = Tracer::new(4);
        t.enable(category::ALL);
        for i in 0..10u64 {
            t.set_now(i);
            t.record(Track::HostHart, retire(i));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let pcs: Vec<u64> = t
            .events()
            .map(|r| match r.event {
                TraceEvent::Retire { pc, .. } => pc,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pcs, vec![6, 7, 8, 9], "newest events must survive");
    }

    #[test]
    fn disabled_categories_record_nothing_and_never_grow_the_ring() {
        let mut t = Tracer::new(8);
        t.enable(category::CACHE);
        let spare = t.ring.capacity();
        for i in 0..100 {
            t.record(Track::HostHart, retire(i));
        }
        assert!(t.is_empty(), "disabled category must not record");
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.ring.capacity(), spare, "no allocation on disabled path");
        // The enabled category still records.
        t.record(
            Track::Llc,
            TraceEvent::CacheHit {
                addr: 0x40,
                write: false,
            },
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn zero_mask_records_nothing() {
        let mut t = Tracer::new(8);
        t.record(Track::HostHart, retire(0));
        t.record_span(Track::Dma, TraceEvent::DmaEnd { bytes: 64 }, 10);
        assert!(t.is_empty());
    }

    #[test]
    fn set_now_is_monotone() {
        let mut t = Tracer::new(8);
        t.set_now(100);
        t.set_now(50);
        assert_eq!(t.now(), 100);
        t.record_span(Track::Dma, TraceEvent::DmaEnd { bytes: 1 }, 25);
        assert_eq!(t.now(), 125);
    }

    #[test]
    fn chrome_export_round_trips_and_timestamps_are_monotone_per_track() {
        let mut t = Tracer::new(64);
        t.enable(category::ALL);
        t.set_now(5);
        t.record(Track::HostHart, retire(0x100));
        t.record(
            Track::Soc,
            TraceEvent::OffloadBegin {
                kernel: 1,
                cores: 8,
            },
        );
        t.record(
            Track::Dma,
            TraceEvent::DmaStart {
                src: 0x1000,
                dst: 0x2000,
                bytes: 256,
            },
        );
        t.record_span(Track::Dma, TraceEvent::DmaEnd { bytes: 256 }, 40);
        t.set_now(60);
        t.record(Track::ClusterCore(0), retire(0x1c000000));
        t.record(
            Track::Llc,
            TraceEvent::CacheMiss {
                addr: 0x80000000,
                write: false,
            },
        );
        t.set_now(90);
        t.record(Track::HostHart, retire(0x104));
        t.record_span(Track::Soc, TraceEvent::OffloadEnd { kernel: 1 }, 30);

        let text = t.chrome_trace().to_string();
        let doc = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

        // Metadata names every referenced track; real events are stamped.
        let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
        let mut tids = std::collections::BTreeSet::new();
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            if ph == "M" {
                continue;
            }
            let tid = e.get("tid").and_then(Json::as_f64).unwrap() as u64;
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            tids.insert(tid);
            if let Some(prev) = last_ts.insert(tid, ts) {
                assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}");
            }
        }
        // Host hart, a cluster core, the DMA engine and the LLC all present.
        for tid in [
            Track::HostHart.tid(),
            Track::ClusterCore(0).tid(),
            Track::Dma.tid(),
            Track::Llc.tid(),
        ] {
            assert!(tids.contains(&tid), "missing track {tid}");
        }
    }

    #[test]
    fn drops_are_counted_per_category_and_surfaced_in_stats() {
        let mut t = Tracer::new(2);
        t.enable(category::ALL);
        for i in 0..3u64 {
            t.record(Track::HostHart, retire(i));
        }
        for _ in 0..2 {
            t.record(
                Track::Llc,
                TraceEvent::CacheMiss {
                    addr: 0x80,
                    write: false,
                },
            );
        }
        // 3 retires then 2 cache events through a 2-deep ring: the first
        // retire fell to the second retire, the remaining two retires fell
        // to the cache events.
        assert_eq!(t.dropped(), 3);
        let drops: Vec<(&str, u64)> = t.dropped_by_category().collect();
        assert_eq!(drops, vec![("retire", 3)]);
        let s = t.stats();
        assert_eq!(s.name(), "trace");
        assert_eq!(s.get("events"), 2);
        assert_eq!(s.get("trace_dropped"), 3);
        assert_eq!(s.get("trace_dropped_retire"), 3);
        assert_eq!(s.get("trace_dropped_cache"), 0, "no cache event dropped");
        // The machine-readable counts also land in the Chrome export.
        let doc = t.chrome_trace();
        let other = doc.get("otherData").unwrap();
        assert_eq!(
            other.get("dropped_events").and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            other
                .get("dropped_by_category")
                .and_then(|d| d.get("retire"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        t.clear();
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.dropped_by_category().count(), 0);
        assert_eq!(
            t.chrome_trace()
                .get("otherData")
                .unwrap()
                .get("dropped_events"),
            None,
            "a clean ring reports no drops"
        );
    }

    #[test]
    fn every_category_bit_has_a_name() {
        for bit in 0..category::COUNT {
            assert_ne!(category::bit_name(bit), "unknown", "bit {bit}");
        }
        assert_eq!(category::bit_name(category::COUNT), "unknown");
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let mut t = Tracer::new(8);
        t.enable(category::ALL);
        t.record(Track::HostHart, retire(4));
        t.record_span(
            Track::Dram,
            TraceEvent::DramBurst {
                addr: 0,
                bytes: 64,
                write: true,
            },
            12,
        );
        let dump = t.jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = Json::parse(line).unwrap();
            assert!(v.get("ts").is_some());
            assert!(v.get("event").is_some());
        }
    }
}
