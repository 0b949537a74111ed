//! `hulkv-perf`: end-to-end and per-layer benchmark of the HULK-V
//! simulator on the paper's workloads.
//!
//! ```text
//! hulkv-perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--spans <file>]
//! hulkv-perf run     [--seed <n>] [--runs <k>] [--smoke] [--out <file>]
//! hulkv-perf trace   (same options as run)
//! hulkv-perf compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! The first form measures one workload in this process and prints, as
//! its last line, `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! `run` and `trace` run every workload that way in a fresh child process
//! each and append the set, with its provenance, to `bench/history.jsonl`.
//! `compare` judges a change's runs against its parent's. See README.md.

mod heap;
mod layers;
mod spans;
mod stats;
mod suite;
mod sys;
mod workload;

use hulkv_bench::{fig6, table2};
use hulkv_kernels::suite::KernelParams;
use hulkv_sim::{EngineProfile, EngineProfileData, Json, Stats};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use layers::{LayerTime, UnitCosts};
use spans::Spans;
use stats::{median, percentile, tail};
use workload::{Bench, PassOut, Workload};

/// Counts the heap the simulator uses, for `peak_heap_mb`.
#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("pass_mcycles_floor", "Mcycles"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("mips", "instr/us"),
    ("rv.instr_ns", "ns"),
    ("rv.instr_ns.decode_only", "ns"),
    ("rv.instr_ns.interp", "ns"),
    ("rv.instr_ns.ri5cy", "ns"),
    ("rv.sv39_walk_ns", "ns"),
    ("rv.decode_hit_ratio", "ratio"),
    ("rv.sb_retired_frac", "ratio"),
    ("rv.share", "ratio"),
    ("host.l1i_miss_ratio", "ratio"),
    ("host.l1d_miss_ratio", "ratio"),
    ("host.fetch_ns", "ns"),
    ("host.l1d_hit_ns", "ns"),
    ("host.mem_stall_frac", "ratio"),
    ("host.share", "ratio"),
    ("mem.bus_access_ns", "ns"),
    ("mem.bridge_access_ns", "ns"),
    ("mem.llc_hit_ns", "ns"),
    ("mem.llc_miss_ns", "ns"),
    ("mem.llc_accesses", "count"),
    ("mem.llc_miss_ratio", "ratio"),
    ("mem.hyperram_burst_ns", "ns"),
    ("mem.hyperram_reads", "count"),
    ("mem.hyperram_writes", "count"),
    ("mem.ddr_line_ns", "ns"),
    ("mem.dma_4k_ns", "ns"),
    ("mem.share", "ratio"),
    ("cluster.quanta", "count"),
    ("cluster.sync_rounds", "count"),
    ("cluster.tcdm_sync_pages", "count"),
    ("cluster.fetch_lines", "count"),
    ("cluster.ext_pauses", "count"),
    ("cluster.tcdm_conflicts", "count"),
    ("cluster.decode_hit_ratio", "ratio"),
    ("cluster.sync_round_us", "us"),
    ("cluster.empty_team_us", "us"),
    ("cluster.team_instr_ns", "ns"),
    ("cluster.share", "ratio"),
    ("cluster.parallel_speedup", "x"),
    ("cluster.worker_util", "ratio"),
    ("cluster.sync_stall_frac", "ratio"),
    ("core.soc_new_us", "us"),
    ("core.socs_per_pass", "count"),
    ("core.offloads_per_pass", "count"),
    ("core.share", "ratio"),
    ("sim.metrics_snapshot_us", "us"),
    ("obs.publish_us", "us"),
    ("model.sim_cycles", "cycles"),
    ("model.sim_instret", "instr"),
    ("model.ipc", "instr/cycle"),
    ("accuracy.fig6_peak_speedup_err", "ratio"),
    ("accuracy.pmca_peak_gops_err", "ratio"),
    ("accuracy.pmca_gops_per_w_err", "ratio"),
    ("accuracy.cva6_gops_per_w_err", "ratio"),
    ("accuracy.efficiency_ratio_err", "ratio"),
    ("accuracy.table2_total_mw_err", "ratio"),
    ("accuracy.paper_err_max", "ratio"),
    ("bench.pass_ms_p50", "ms"),
    ("bench.pass_ms_tail", "ms"),
    ("bench.pass_ms_tail_pct", "%"),
    ("bench.passes", "count"),
    ("bench.cpu_ms_p50", "ms"),
    ("bench.steal_frac", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.residual_share", "ratio"),
    ("bench.failed_frac", "ratio"),
];

/// Fresh launches timed for `setup_s`, spread evenly through the run. They
/// count towards `--seconds`; on `paper_report` each takes a whole pass.
const SETUP_LAUNCHES: usize = 3;
/// Alternating 1-worker / N-worker `pmca_offload` pass pairs per traced run.
const WORKER_PAIRS: usize = 20;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    setup_probe: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds) = (None, None, 10.0);
        let (mut trace, mut spans, mut setup_probe) = (false, None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                setup_probe = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value).ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?.max(0.0),
                "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--spans" => spans = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            spans,
            setup_probe,
        })
    }
}

/// A measured run of one workload.
struct Outcome {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    fn check(&mut self, what: &str, p: &PassOut) {
        self.attempted += 1;
        if let Some(f) = &p.failure {
            self.failed += 1;
            eprintln!("{what}: pass failed: {f}");
        }
    }

    /// The result line: `catalog` names every metric, in its order.
    fn to_json(&self, catalog: &[(&'static str, &'static str)]) -> Json {
        let metrics = catalog.iter().map(|(name, unit)| {
            // Only a run that already failed (say, every set-up launch)
            // leaves a metric without a finite value; JSON has no NaN.
            let v = self.values[name];
            let v = if v.is_finite() { v } else { 0.0 };
            (
                *name,
                Json::obj([("value", Json::from(v)), ("unit", Json::from(*unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..], false),
        Some("trace") => suite::run(&args[1..], true),
        Some("compare") => suite::compare(&args[1..]),
        _ => Opts::parse(&args).and_then(|o| measure(&o)),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("hulkv-perf: {e}");
        2
    }));
}

fn measure(o: &Opts) -> Result<i32, String> {
    if o.setup_probe {
        return Ok(setup_probe(o));
    }
    let (out, catalog) = if o.trace {
        (traced(o)?, &PER_LAYER[..])
    } else {
        (untraced(o)?, &END_TO_END[..])
    };
    println!(
        "{} seed {}: {} passes attempted, {} failed",
        o.workload.name(),
        o.seed,
        out.attempted,
        out.failed
    );
    for (name, unit) in catalog {
        println!("  {name:<32} {:>14.4} {unit}", out.values[name]);
    }
    println!("{}", out.to_json(catalog));
    Ok(i32::from(out.failed > 0))
}

/// Child side of a `setup_s` launch: build the inputs, run and check one
/// pass, then say so on stdout.
fn setup_probe(o: &Opts) -> i32 {
    let mut bench = Bench::new(o.workload, o.seed);
    match bench.pass(&mut Spans::new(false), false).failure {
        Some(f) => {
            eprintln!("setup probe: {f}");
            1
        }
        None => {
            println!("ready");
            0
        }
    }
}

/// Seconds from spawning a fresh copy of this program to the end of its
/// first checked pass.
fn launch_probe(o: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--setup-probe", "--workload", o.workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning setup probe: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let ready = BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
        .any(|l| l == "ready");
    let seconds = t.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    if ready && status.success() {
        Ok(seconds)
    } else {
        Err(format!("setup probe failed ({status})"))
    }
}

/// The end-to-end run: a warm-up pass, then `--seconds` of closed-loop
/// passes with the set-up launches spread evenly through them (the
/// launches count towards `--seconds`).
///
/// The gated pass cost is the pass floor in host CPU cycles. On a shared
/// host other tenants slow the simulator in two ways, and both only ever
/// add time:
///
/// - Contention for caches and memory, in bursts from tens of milliseconds
///   to tens of seconds, which can differ from CPU to CPU (at the same
///   moment one CPU ran a pass at half the speed of the other). The floor
///   answers it: the sum, over the pass's sub-runs, of each sub-run's
///   fastest time in the run. A sub-run (1-500 ms) finds an undisturbed
///   moment far more often than a whole pass does. The passes rotate
///   over every CPU the process may use, so each sub-run's fastest time
///   comes from the CPU that was quietest. Pinned to one CPU,
///   `paper_report`'s PMCA engine (`workers = 0`: one per usable CPU) runs
///   one worker, so no pass waits on a second, disturbed CPU.
/// - Clock-rate changes, which hit every CPU alike for minutes at a time
///   and leave no undisturbed moment in a run. A register-only clock probe
///   before every sub-run reads the rate, and the floor is converted to
///   cycles at the rate of the run's fastest stretches (the 95th
///   percentile of the readings), when its fastest sub-runs also ran.
///
/// A set-up launch is a single wall-clock time with no floor to protect
/// it, so it is read at the floor's speed: scaled by the floor over the
/// time of the pass that ran right after it, on the same CPU.
fn untraced(o: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let name = o.workload.name();
    let mut bench = Bench::new(o.workload, o.seed);
    let mut spans = Spans::new(false);
    let cpus = sys::allowed_cpus();
    // Where the host forbids pinning, the passes run wherever they land.
    let rotate = cpus.len() > 1 && sys::set_cpus(&cpus);
    let cpu = |pass: usize| rotate.then(|| cpus[pass % cpus.len()]);
    // Pinned like the timed passes, so that `paper_report`'s warm-up
    // starts no engine worker threads either.
    let warm_up = sys::on_cpu(cpu(0), &cpus, || bench.pass(&mut spans, false));
    out.check(name, &warm_up);
    bench.clock_probe = true;
    let (mut fastest, mut ghz) = (BTreeMap::<String, u64>::new(), Vec::new());
    // Each launch's seconds, with the ms of the pass that ran right after
    // it on the same CPU.
    let (mut launches, mut passes) = (Vec::new(), 0);
    // The sub-runs of a pass, in the latest pass's order.
    let mut subs: Vec<String> = Vec::new();
    let slice = o.seconds / SETUP_LAUNCHES as f64;
    let t = Instant::now();
    for i in 1..=SETUP_LAUNCHES {
        out.attempted += 1;
        let launch = sys::on_cpu(cpu(passes), &cpus, || launch_probe(o));
        let first = passes;
        while passes == first || t.elapsed().as_secs_f64() < slice * i as f64 {
            let p = sys::on_cpu(cpu(passes), &cpus, || bench.pass(&mut spans, false));
            ghz.extend(&p.ghz);
            out.check(name, &p);
            match &launch {
                Ok(s) if passes == first => launches.push((*s, p.ms())),
                Err(e) if passes == first => {
                    out.failed += 1;
                    eprintln!("{e}");
                }
                _ => {}
            }
            passes += 1;
            subs = p.sub_ns.iter().map(|s| s.0.clone()).collect();
            for (sub, ns) in p.sub_ns {
                let best = fastest.entry(sub).or_insert(ns);
                *best = (*best).min(ns);
            }
        }
    }
    // Sub-runs that repeat in a pass (`paper_report`'s Figure 6) share one
    // fastest time, and count once per run in the pass.
    let floor_ms = subs.iter().map(|s| fastest[s]).sum::<u64>() as f64 / 1e6;
    let clock = percentile(&ghz, 95);
    out.values.insert("pass_mcycles_floor", floor_ms * clock);
    // A launch scaled by how much slower than the floor the next pass ran:
    // both ran back to back on one CPU and met the same disturbance.
    let setup: Vec<f64> = launches
        .iter()
        .map(|&(s, next_ms)| s * floor_ms / next_ms)
        .collect();
    let raw: Vec<f64> = launches.iter().map(|l| l.0).collect();
    eprintln!(
        "{name}: pass floor {floor_ms:.4} ms at {clock:.4} GHz; set-up launches {:.4} s raw",
        median(&raw)
    );
    out.values.insert("setup_s", median(&setup));
    out.values.insert("peak_heap_mb", heap::peak_mb());
    Ok(out)
}

/// The traced run: the unit costs and the worker pairs are measured,
/// then, for the rest of `--seconds`, passes alternate between untraced
/// and traced (spans, counters and the engine profile on); last comes the
/// paper comparison.
fn traced(o: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let name = o.workload.name();
    let t = Instant::now();
    let u = UnitCosts::measure();
    let pairs = worker_pairs(o.seed, &mut out);
    let mut bench = Bench::new(o.workload, o.seed);
    let mut spans = Spans::new(false);
    let profile = EngineProfile::new();
    out.check(name, &bench.pass(&mut spans, false));

    let ticks = sys::cpu_ticks();
    let (mut plain_ms, mut traced_ms, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Stats::new("traced");
    let (mut cycles, mut instret) = (0u64, 0u64);
    while traced_ms.is_empty() || t.elapsed().as_secs_f64() < o.seconds {
        let traced = plain_ms.len() > traced_ms.len();
        spans.set_on(traced);
        bench.profile = traced.then(|| profile.clone());
        let p = bench.pass(&mut spans, traced);
        out.check(name, &p);
        if traced {
            traced_ms.push(p.ms());
            counts.merge(&p.counts);
        } else {
            plain_ms.push(p.ms());
            cpu_ms.push(p.cpu_ns as f64 / 1e6);
        }
        (cycles, instret) = (p.cycles, p.instret);
    }
    spans.set_on(false);
    let steal = sys::steal_frac(ticks, sys::cpu_ticks());

    let engine = profile.snapshot();
    let layer = LayerTime::estimate(&counts, &u);
    let wall: f64 = traced_ms.iter().sum::<f64>() * 1e6;
    let n = traced_ms.len() as f64;
    let per_pass = |k: &str| counts.get(k) as f64 / n;
    let ratio = |a: &str, b: &str| counts.ratio(a, b);
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let plain_p50 = median(&plain_ms);
    let (tail_pct, tail_ms) = tail(&plain_ms);
    let shares = [
        ("rv.share", layer.rv / wall),
        ("host.share", layer.host / wall),
        ("mem.share", layer.mem / wall),
        ("cluster.share", layer.cluster / wall),
        ("core.share", layer.core / wall),
    ];
    let v = &mut out.values;
    v.extend(shares);
    v.extend([
        ("mips", div(instret as f64, plain_p50 * 1e3)),
        ("rv.instr_ns", u.instr_ns),
        ("rv.instr_ns.decode_only", u.decode_only_ns),
        ("rv.instr_ns.interp", u.interp_ns),
        ("rv.instr_ns.ri5cy", u.ri5cy_ns),
        ("rv.sv39_walk_ns", u.sv39_walk_ns),
        (
            "rv.decode_hit_ratio",
            ratio("core.decode_hits", "core.decode_misses"),
        ),
        (
            "rv.sb_retired_frac",
            div(per_pass("core.sb_instrs_retired"), per_pass("core.instret")),
        ),
        ("host.l1i_miss_ratio", ratio("l1i.misses", "l1i.hits")),
        ("host.l1d_miss_ratio", ratio("l1d.misses", "l1d.hits")),
        ("host.fetch_ns", u.fetch_ns),
        ("host.l1d_hit_ns", u.l1d_hit_ns),
        (
            "host.mem_stall_frac",
            div(per_pass("core.mem_stall_cycles"), per_pass("core.cycles")),
        ),
        ("mem.bus_access_ns", u.bus_access_ns),
        ("mem.bridge_access_ns", u.bridge_access_ns),
        ("mem.llc_hit_ns", u.llc_hit_ns),
        ("mem.llc_miss_ns", u.llc_miss_ns),
        ("mem.llc_accesses", per_pass("llc_front.cacheable")),
        (
            "mem.llc_miss_ratio",
            div(
                per_pass("hyperram.reads").min(per_pass("llc_front.cacheable")),
                per_pass("llc_front.cacheable"),
            ),
        ),
        ("mem.hyperram_burst_ns", u.hyperram_burst_ns),
        ("mem.hyperram_reads", per_pass("hyperram.reads")),
        ("mem.hyperram_writes", per_pass("hyperram.writes")),
        ("mem.ddr_line_ns", u.ddr_line_ns),
        ("mem.dma_4k_ns", u.dma_4k_ns),
        ("cluster.quanta", per_pass("cluster.quanta")),
        ("cluster.sync_rounds", per_pass("cluster.sync_rounds")),
        (
            "cluster.tcdm_sync_pages",
            per_pass("cluster.tcdm_sync_pages"),
        ),
        ("cluster.fetch_lines", per_pass("cluster.fetch_lines")),
        ("cluster.ext_pauses", per_pass("cluster.ext_pauses")),
        ("cluster.tcdm_conflicts", per_pass("cluster.tcdm_conflicts")),
        (
            "cluster.decode_hit_ratio",
            ratio("cluster.decode_hits", "cluster.decode_misses"),
        ),
        (
            "cluster.sync_round_us",
            div(engine.sync_stall_ns as f64, engine.rounds as f64) / 1e3,
        ),
        ("cluster.empty_team_us", u.empty_team_ns / 1e3),
        ("cluster.team_instr_ns", u.team_instr_ns),
        (
            "cluster.parallel_speedup",
            div(median(&pairs.one_ms), median(&pairs.many_ms)),
        ),
        ("cluster.worker_util", pairs.worker_util()),
        (
            "cluster.sync_stall_frac",
            div(
                pairs.engine.sync_stall_ns as f64,
                pairs.engine.round_wall_ns as f64,
            ),
        ),
        ("core.soc_new_us", u.soc_new_ns / 1e3),
        ("core.socs_per_pass", per_pass("bench.socs")),
        ("core.offloads_per_pass", per_pass("soc.offloads")),
        ("sim.metrics_snapshot_us", u.metrics_snapshot_ns / 1e3),
        ("obs.publish_us", u.publish_ns / 1e3),
        ("model.sim_cycles", cycles as f64),
        ("model.sim_instret", instret as f64),
        ("model.ipc", div(instret as f64, cycles as f64)),
        ("bench.pass_ms_p50", plain_p50),
        ("bench.pass_ms_tail", tail_ms),
        ("bench.pass_ms_tail_pct", f64::from(tail_pct)),
        ("bench.passes", plain_ms.len() as f64),
        ("bench.cpu_ms_p50", median(&cpu_ms)),
        ("bench.steal_frac", steal),
        ("bench.trace_overhead", median(&traced_ms) / plain_p50 - 1.0),
        (
            "bench.residual_share",
            1.0 - shares.iter().map(|s| s.1).sum::<f64>(),
        ),
    ]);
    v.extend(accuracy()?);
    let failed_frac = div(out.failed as f64, out.attempted as f64);
    out.values.insert("bench.failed_frac", failed_frac);

    if let Some(path) = &o.spans {
        let doc = Json::obj([
            ("workload", Json::from(name)),
            ("seed", Json::from(o.seed)),
            ("trace", spans.to_json()),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(out)
}

/// Timings of `pmca_offload` passes at one worker and at one per CPU.
struct Pairs {
    one_ms: Vec<f64>,
    many_ms: Vec<f64>,
    engine: EngineProfileData,
}

impl Pairs {
    fn worker_util(&self) -> f64 {
        let n = self.engine.worker_busy_ns.len();
        (0..n).map(|w| self.engine.utilization(w)).sum::<f64>() / n.max(1) as f64
    }
}

/// Runs [`WORKER_PAIRS`] alternating pairs of `pmca_offload` passes at 1
/// worker and at `nproc` workers, and checks that both produce identical
/// cycles, instructions and state digests.
fn worker_pairs(seed: u64, out: &mut Outcome) -> Pairs {
    let profile = EngineProfile::new();
    let mut one = Bench::new(Workload::PmcaOffload, seed).with_workers(1);
    let mut many = Bench::new(Workload::PmcaOffload, seed).with_workers(sys::nproc());
    many.profile = Some(profile.clone());
    let mut spans = Spans::new(false);
    let mut pairs = Pairs {
        one_ms: Vec::new(),
        many_ms: Vec::new(),
        engine: EngineProfileData::default(),
    };
    for i in 0..=WORKER_PAIRS {
        if i == 1 {
            // Pair 0 is the warm-up; it only fixes the expected results.
            profile.reset();
            pairs.one_ms.clear();
            pairs.many_ms.clear();
        }
        for first in [i % 2 == 0, i % 2 == 1] {
            let (bench, ms) = if first {
                (&mut one, &mut pairs.one_ms)
            } else {
                (&mut many, &mut pairs.many_ms)
            };
            let p = bench.pass(&mut spans, false);
            out.check("worker pairs", &p);
            ms.push(p.ms());
        }
    }
    if one.expected() != many.expected() {
        out.attempted += 1;
        out.failed += 1;
        eprintln!(
            "worker pairs: results differ between 1 and {} workers",
            sys::nproc()
        );
    }
    pairs.engine = profile.snapshot();
    pairs
}

/// Distance of the model's headline figures from the paper's, as
/// `|model / paper - 1|` (paper values as quoted in EXPERIMENTS.md).
fn accuracy() -> Result<Vec<(&'static str, f64)>, String> {
    let rows = fig6::speedup_table(&KernelParams::small()).map_err(|e| e.to_string())?;
    let (_, total) = table2::rows();
    let max = |f: fn(&fig6::Fig6Row) -> f64| rows.iter().map(f).fold(0.0, f64::max);
    let best = rows
        .iter()
        .max_by(|a, b| a.cluster_gops_per_w.total_cmp(&b.cluster_gops_per_w))
        .ok_or("empty Figure 6")?;
    let err = |model: f64, paper: f64| (model / paper - 1.0).abs();
    let errs = [
        (
            "accuracy.fig6_peak_speedup_err",
            err(max(|r| r.speedup_x1000), 112.0),
        ),
        (
            "accuracy.pmca_peak_gops_err",
            err(max(|r| r.cluster_gops), 13.8),
        ),
        (
            "accuracy.pmca_gops_per_w_err",
            err(best.cluster_gops_per_w, 157.0),
        ),
        (
            "accuracy.cva6_gops_per_w_err",
            err(best.host_gops_per_w, 4.9),
        ),
        (
            "accuracy.efficiency_ratio_err",
            err(best.cluster_gops_per_w / best.host_gops_per_w, 32.0),
        ),
        (
            "accuracy.table2_total_mw_err",
            err(total.max_power_mw, 237.41),
        ),
    ];
    let worst = errs.iter().map(|e| e.1).fold(0.0, f64::max);
    let mut all = errs.to_vec();
    all.push(("accuracy.paper_err_max", worst));
    Ok(all)
}
