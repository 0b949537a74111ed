//! The four workloads: what one pass runs, and how its outputs are checked.
//!
//! Every sub-run builds its own SoC, so a pass's results do not depend on
//! the (seed-shuffled) order its sub-runs execute in, and simulated cycles
//! and state digests repeat exactly from pass to pass.

use hulkv::{map, HulkV, MemorySetup, SocConfig};
use hulkv_bench::{ablations, fig6, fig7, fig9, table1, table2};
use hulkv_kernels::dnn_exec::run_tiled_conv;
use hulkv_kernels::iot::{IotBenchmark, Scale};
use hulkv_kernels::suite::{Kernel, KernelParams};
use hulkv_kernels::synthetic::sweep_program;
use hulkv_rv::{Asm, Reg, Xlen};
use hulkv_sim::{EngineProfile, Fnv64, SplitMix64, Stats};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::spans::Spans;
use crate::sys;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The nine Figure-6 kernels on CVA6, working sets in the L2SPM.
    HostFig6,
    /// CVA6 through the LLC and HyperRAM: two sweeps and a store stream.
    HostDram,
    /// The nine Figure-6 kernels on the 8-core PMCA plus one tiled layer.
    PmcaOffload,
    /// Tables I/II, Figures 6–9 and the ablations, as the report prints.
    PaperReport,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 4] = [
        Workload::HostFig6,
        Workload::HostDram,
        Workload::PmcaOffload,
        Workload::PaperReport,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HostFig6 => "host_fig6",
            Workload::HostDram => "host_dram",
            Workload::PmcaOffload => "pmca_offload",
            Workload::PaperReport => "paper_report",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sub {
    Host(Kernel),
    Cluster(Kernel),
    TiledConv,
    Sweep(usize),
    Stream,
    Table1,
    Table2,
    Fig6,
    Fig7,
    /// One cell of the Figure-8 grid.
    Fig8(IotBenchmark, MemorySetup),
    Fig9,
    Ablations,
}

impl Sub {
    fn name(self) -> String {
        match self {
            Sub::Host(k) => format!("host:{}", k.name()),
            Sub::Cluster(k) => format!("cluster:{}", k.name()),
            Sub::TiledConv => "tiled_conv".into(),
            Sub::Sweep(m) => format!("sweep{m}"),
            Sub::Stream => "stream".into(),
            Sub::Table1 => "table1".into(),
            Sub::Table2 => "table2".into(),
            Sub::Fig6 => "fig6".into(),
            Sub::Fig7 => "fig7_llc_sweep".into(),
            Sub::Fig8(b, m) => format!("fig8:{}:{}", b.name(), m.name()),
            Sub::Fig9 => "fig9_ccr".into(),
            Sub::Ablations => "ablations".into(),
        }
    }
}

/// Rounds per `host_dram` sweep: with 64 reads a round this is 128k loads.
const SWEEP_ROUNDS: usize = 2000;
/// The two sweep knobs: 24 misses a round fits the 128 kB LLC, 48 does not.
const SWEEP_MISSES: [usize; 2] = [24, 48];
/// Elements per stream array: 128 KiB of int64 each, so `x` and `y`
/// together are twice the LLC and every pass writes dirty lines back.
const STREAM_LEN: usize = 16 * 1024;
/// Passes of `y[i] += x[i]` over the arrays in one run of the stream.
const STREAM_REPS: u64 = 4;
const STREAM_X: u64 = map::DRAM_BASE + 0x0500_0000;
const STREAM_Y: u64 = map::DRAM_BASE + 0x0600_0000;
const HOST_BUDGET: u64 = 10_000_000_000;

/// The seeded store-heavy stream: program, inputs and expected result.
struct Stream {
    words: Vec<u32>,
    x: Vec<u8>,
    y: Vec<u8>,
    expect: Vec<u8>,
}

impl Stream {
    fn new(rng: &mut SplitMix64) -> Stream {
        let x: Vec<u64> = (0..STREAM_LEN).map(|_| rng.next_u64()).collect();
        let y: Vec<u64> = (0..STREAM_LEN).map(|_| rng.next_u64()).collect();
        let expect = x
            .iter()
            .zip(&y)
            .map(|(x, y)| y.wrapping_add(x.wrapping_mul(STREAM_REPS)));
        Stream {
            words: stream_program(),
            x: le_bytes(x.iter().copied()),
            y: le_bytes(y.iter().copied()),
            expect: le_bytes(expect),
        }
    }
}

fn le_bytes(words: impl Iterator<Item = u64>) -> Vec<u8> {
    words.flat_map(u64::to_le_bytes).collect()
}

/// `for r in 0..STREAM_REPS { for i in 0..STREAM_LEN { y[i] += x[i] } }`
/// with `a0 = x`, `a1 = y`.
fn stream_program() -> Vec<u32> {
    let mut a = Asm::new(Xlen::Rv64);
    a.li(Reg::S0, STREAM_REPS as i64);
    let outer = a.label();
    a.bind(outer);
    a.mv(Reg::T3, Reg::A0);
    a.mv(Reg::T4, Reg::A1);
    a.li(Reg::T0, STREAM_LEN as i64);
    let inner = a.label();
    a.bind(inner);
    a.ld(Reg::T1, Reg::T3, 0);
    a.ld(Reg::T2, Reg::T4, 0);
    a.add(Reg::T2, Reg::T2, Reg::T1);
    a.sd(Reg::T2, Reg::T4, 0);
    a.addi(Reg::T3, Reg::T3, 8);
    a.addi(Reg::T4, Reg::T4, 8);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, inner);
    a.addi(Reg::S0, Reg::S0, -1);
    a.bnez(Reg::S0, outer);
    a.ebreak();
    a.assemble().expect("stream program assembles")
}

/// What one sub-run produced.
struct SubOut {
    sim_ns: u64,
    cpu_ns: u64,
    /// Simulated cycles, instructions and SoC state digest: identical on
    /// every pass.
    key: (u64, u64, u64),
    verified: bool,
    counts: Option<Stats>,
}

/// One pass's outcome.
pub struct PassOut {
    /// Host time spent in simulator calls (checks excluded).
    pub sim_ns: u64,
    /// Process CPU time (all threads) over the same calls.
    pub cpu_ns: u64,
    /// `sim_ns` of each sub-run that succeeded, by sub-run name.
    pub sub_ns: Vec<(String, u64)>,
    /// The host clock rate read right before each sub-run, in GHz (empty
    /// unless [`Bench::clock_probe`] is set).
    pub ghz: Vec<f64>,
    /// Why the pass failed, if it did.
    pub failure: Option<String>,
    /// Every SoC counter of the pass as `block.counter`, plus `bench.socs`
    /// and `core.cycles`; empty unless asked for.
    pub counts: Stats,
    /// Simulated cycles (host core + PMCA teams).
    pub cycles: u64,
    /// Simulated instructions retired (host core + PMCA cores).
    pub instret: u64,
}

impl PassOut {
    /// Host time spent in simulator calls, in ms.
    pub fn ms(&self) -> f64 {
        self.sim_ns as f64 / 1e6
    }
}

/// A workload prepared for a run: inputs made from the seed, and the
/// expected results every pass is checked against.
pub struct Bench {
    cfg: SocConfig,
    params: KernelParams,
    subs: Vec<Sub>,
    rng: SplitMix64,
    sweeps: Vec<(usize, Vec<u32>)>,
    stream: Option<Stream>,
    expected: BTreeMap<String, (u64, u64, u64)>,
    /// Engine self-profile attached to every PMCA this bench builds.
    pub profile: Option<EngineProfile>,
    /// Read the clock rate ([`sys::clock_ghz`]) before every sub-run.
    pub clock_probe: bool,
}

impl Bench {
    /// Prepares `workload` with inputs generated from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Bench {
        let mut rng = SplitMix64::new(seed);
        let mut cfg = SocConfig::default();
        let mut sweeps = Vec::new();
        let mut stream = None;
        let subs = match workload {
            Workload::HostFig6 => Kernel::ALL.into_iter().map(Sub::Host).collect(),
            Workload::HostDram => {
                sweeps = SWEEP_MISSES
                    .iter()
                    .map(|&m| (m, sweep_program(m, SWEEP_ROUNDS)))
                    .collect();
                stream = Some(Stream::new(&mut rng.fork(1)));
                vec![Sub::Sweep(24), Sub::Sweep(48), Sub::Stream]
            }
            Workload::PmcaOffload => {
                // Workers change host time only, never simulated results;
                // one worker keeps the pass time steady on a small host.
                cfg.cluster.workers = 1;
                let mut subs: Vec<Sub> = Kernel::ALL.into_iter().map(Sub::Cluster).collect();
                subs.push(Sub::TiledConv);
                subs
            }
            // Figure 6 twice: the `fig6_speedup` and `fig6_efficiency`
            // bins each compute the same table. Figure 8 is the calls
            // `fig8::llc_effect(Scale(1))` makes, one sub-run per cell: as
            // a single 650 ms call it rarely met an undisturbed stretch of
            // the host, and its fastest time set most of the pass floor's
            // spread.
            Workload::PaperReport => {
                let mut subs = vec![
                    Sub::Table1,
                    Sub::Table2,
                    Sub::Fig6,
                    Sub::Fig6,
                    Sub::Fig7,
                    Sub::Fig9,
                    Sub::Ablations,
                ];
                for b in IotBenchmark::FIGURE8 {
                    subs.extend(MemorySetup::ALL.map(|m| Sub::Fig8(b, m)));
                }
                subs
            }
        };
        Bench {
            cfg,
            params: KernelParams::small(),
            subs,
            rng,
            sweeps,
            stream,
            expected: BTreeMap::new(),
            profile: None,
            clock_probe: false,
        }
    }

    /// Sets the PMCA engine's worker count (0 = one per host CPU).
    pub fn with_workers(mut self, workers: usize) -> Bench {
        self.cfg.cluster.workers = workers;
        self
    }

    /// The expected `(cycles, instret, digest)` of every sub-run so far.
    pub fn expected(&self) -> &BTreeMap<String, (u64, u64, u64)> {
        &self.expected
    }

    /// Runs one pass: every sub-run once, in a seed-shuffled order. The
    /// first successful result of each sub-run becomes its expected
    /// result; later passes must reproduce it exactly.
    pub fn pass(&mut self, spans: &mut Spans, want_counts: bool) -> PassOut {
        for i in (1..self.subs.len()).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            self.subs.swap(i, j);
        }
        let mut out = PassOut {
            sim_ns: 0,
            cpu_ns: 0,
            sub_ns: Vec::new(),
            ghz: Vec::new(),
            failure: None,
            counts: Stats::new("pass"),
            cycles: 0,
            instret: 0,
        };
        let pass_depth = spans.open("pass");
        for sub in self.subs.clone() {
            let name = sub.name();
            if self.clock_probe {
                out.ghz.push(sys::clock_ghz());
            }
            let depth = spans.open(&name);
            let res = catch_unwind(AssertUnwindSafe(|| self.sub(sub, spans, want_counts)))
                .unwrap_or_else(|_| Err("panicked".into()));
            spans.close_to(depth);
            let failure = match res {
                Err(e) => Some(e),
                Ok(s) => {
                    out.sim_ns += s.sim_ns;
                    out.cpu_ns += s.cpu_ns;
                    out.sub_ns.push((name.clone(), s.sim_ns));
                    out.cycles += s.key.0;
                    out.instret += s.key.1;
                    if let Some(c) = &s.counts {
                        out.counts.merge(c);
                    }
                    match self.expected.get(&name) {
                        _ if !s.verified => Some("output differs from its golden reference".into()),
                        None => {
                            self.expected.insert(name.clone(), s.key);
                            None
                        }
                        Some(r) if *r == s.key => None,
                        Some(r) => Some(format!(
                            "(cycles, instret, digest) {:?} differs from the first pass's {r:?}",
                            s.key
                        )),
                    }
                }
            };
            if let Some(e) = failure {
                out.failure.get_or_insert(format!("{name}: {e}"));
            }
        }
        spans.close_to(pass_depth);
        out
    }

    fn sub(&self, sub: Sub, spans: &mut Spans, want_counts: bool) -> Result<SubOut, String> {
        let err = |e: hulkv::SocError| e.to_string();
        let (t, cpu) = (Instant::now(), sys::cpu_ns());
        // Figure outputs are checked by digest; the figure functions keep
        // their SoCs to themselves, so there are no counts to read.
        let report = |r: &dyn Debug, verified: bool| SubOut {
            sim_ns: t.elapsed().as_nanos() as u64,
            cpu_ns: sys::cpu_ns() - cpu,
            key: (0, 0, digest_of(r)),
            verified,
            counts: None,
        };
        let small = &self.params;
        match sub {
            Sub::Table1 => {
                let r = spans.time("table1::rows", || table1::rows(&SocConfig::default()));
                return Ok(report(&r, true));
            }
            Sub::Table2 => {
                let r = spans.time("table2::rows", table2::rows);
                return Ok(report(&r, true));
            }
            Sub::Fig6 => {
                let r = spans
                    .time("fig6::speedup_table", || fig6::speedup_table(small))
                    .map_err(err)?;
                return Ok(report(&r, r.iter().all(|r| r.verified)));
            }
            Sub::Fig7 => {
                let r = spans
                    .time("fig7::llc_sweep", || fig7::llc_sweep(64))
                    .map_err(err)?;
                return Ok(report(&r, true));
            }
            Sub::Fig8(b, m) => {
                let r = spans
                    .time("IotBenchmark::run", || b.run(m, Scale(1)))
                    .map_err(err)?;
                return Ok(report(&r, r.verified));
            }
            Sub::Fig9 => {
                let r = spans
                    .time("fig9::ccr_table", || fig9::ccr_table(small))
                    .map_err(err)?;
                return Ok(report(&r, true));
            }
            Sub::Ablations => {
                let a = spans
                    .time("ablations::llc_size_sweep", ablations::llc_size_sweep)
                    .map_err(err)?;
                let b = spans
                    .time("ablations::hyperbus_sweep", ablations::hyperbus_sweep)
                    .map_err(err)?;
                let c = spans
                    .time("ablations::team_scaling", || ablations::team_scaling(small))
                    .map_err(err)?;
                let d = spans
                    .time("ablations::offload_amortization", || {
                        ablations::offload_amortization(small)
                    })
                    .map_err(err)?;
                return Ok(report(&(a, b, c, d), true));
            }
            _ => {}
        }

        let mut soc = spans
            .time("HulkV::new", || HulkV::new(self.cfg.clone()))
            .map_err(err)?;
        if let Some(p) = &self.profile {
            soc.cluster_mut().set_profile(p.clone());
        }
        let mut verified = match sub {
            Sub::Host(k) => {
                spans
                    .time("Kernel::run_on_host", || k.run_on_host(&mut soc, small))
                    .map_err(err)?
                    .verified
            }
            Sub::Cluster(k) => {
                spans
                    .time("Kernel::run_on_cluster", || {
                        k.run_on_cluster(&mut soc, small, 8)
                    })
                    .map_err(err)?
                    .verified
            }
            Sub::TiledConv => {
                spans
                    .time("run_tiled_conv", || {
                        run_tiled_conv(&mut soc, 258, 130, 16, 8)
                    })
                    .map_err(err)?
                    .verified
            }
            Sub::Sweep(m) => {
                let words = &self
                    .sweeps
                    .iter()
                    .find(|s| s.0 == m)
                    .expect("sweep built")
                    .1;
                spans
                    .time("HulkV::run_host_program", || {
                        soc.run_host_program(
                            words,
                            |core| {
                                core.set_reg(Reg::A0, map::DRAM_BASE + 0x0300_0000);
                                core.set_reg(Reg::A1, map::DRAM_BASE + 0x0400_0000);
                            },
                            HOST_BUDGET,
                        )
                    })
                    .map_err(err)?;
                true
            }
            Sub::Stream => {
                let s = self.stream.as_ref().expect("stream built");
                soc.write_mem(STREAM_X, &s.x).map_err(err)?;
                soc.write_mem(STREAM_Y, &s.y).map_err(err)?;
                spans
                    .time("HulkV::run_host_program", || {
                        soc.run_host_program(
                            &s.words,
                            |core| {
                                core.set_reg(Reg::A0, STREAM_X);
                                core.set_reg(Reg::A1, STREAM_Y);
                            },
                            HOST_BUDGET,
                        )
                    })
                    .map_err(err)?;
                true
            }
            _ => unreachable!("figure sub-runs returned above"),
        };
        let (sim_ns, cpu_ns) = (t.elapsed().as_nanos() as u64, sys::cpu_ns() - cpu);

        let cluster = soc.cluster().stats();
        let key = (
            soc.host().core().cycles().get() + cluster.get("team_cycles"),
            soc.host().core().instret() + cluster.get("instret"),
            spans.time("HulkV::state_digest", || soc.state_digest()),
        );
        let counts = want_counts.then(|| {
            spans.time("HulkV::metrics_snapshot", || {
                let mut c = Stats::new("counts");
                for b in soc.metrics_snapshot().blocks {
                    for (k, v) in b.iter() {
                        c.set(&format!("{}.{k}", b.name()), v);
                    }
                }
                c.set("core.cycles", soc.host().core().cycles().get());
                c.set("bench.socs", 1);
                c
            })
        });
        if sub == Sub::Stream {
            let s = self.stream.as_ref().expect("stream built");
            let mut y = vec![0u8; s.expect.len()];
            soc.read_mem(STREAM_Y, &mut y).map_err(err)?;
            verified &= y == s.expect;
        }
        Ok(SubOut {
            sim_ns,
            cpu_ns,
            key,
            verified,
            counts,
        })
    }
}

/// FNV digest of a result's `Debug` text, which prints every float with
/// all its digits: equal digests mean bit-identical outputs.
fn digest_of(v: &dyn Debug) -> u64 {
    let mut h = Fnv64::new();
    h.write(format!("{v:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn stream_expectation_matches_a_reference_loop() {
        let s = Stream::new(&mut SplitMix64::new(3));
        let word = |b: &[u8], i: usize| u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        for i in [0, 1, STREAM_LEN - 1] {
            let mut y = word(&s.y, i);
            for _ in 0..STREAM_REPS {
                y = y.wrapping_add(word(&s.x, i));
            }
            assert_eq!(word(&s.expect, i), y);
        }
    }
}
