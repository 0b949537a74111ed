//! Shared observability plumbing for the figure binaries.
//!
//! Every binary in `src/bin` accepts these sink flags of
//! [`hulkv_obs::ObsArgs`] (also in the `--flag=value` spelling) and no
//! other argument; a bad one prints a usage error and exits with
//! status 2:
//!
//! * `--metrics-out <path>` — writes a [`MetricsSnapshot`] JSON document
//!   with the activity counters of every SoC block plus the per-block
//!   power envelope of the GF22FDX model;
//! * `--trace-out <path>` — writes a Chrome `trace_event` JSON file
//!   (loadable in Perfetto / `chrome://tracing`) with one track per host
//!   hart, cluster core, DMA engine, L1/LLC cache and the DRAM controller;
//! * `--timeline-out <path>` — samples every block's counters at a fixed
//!   period (`--timeline-period <cycles>`, default 1000 SoC cycles),
//!   enriches each window with Table II power and integrated energy, and
//!   writes the time series as CSV (when the path ends in `.csv`) or
//!   JSONL. With `--trace-out` the same windows also appear as Chrome
//!   counter tracks in the trace; with `--metrics-out` the integrated
//!   energy totals land in the snapshot's `energy` section.
//!
//! All three run the same instrumented reference workload — an int8
//! matrix multiplication executed first on the CVA6 host and then
//! offloaded to the 8-core PMCA — on a freshly built flagship SoC, so the
//! exported documents are comparable across binaries and runs. A hot-spot
//! profile of the host-side run is printed alongside.
//!
//! [`MetricsSnapshot`]: hulkv_sim::MetricsSnapshot

use hulkv::{HulkV, SocConfig};
use hulkv_kernels::suite::{Kernel, KernelParams};
use hulkv_obs::{ObsArgs, Sink};
use hulkv_power::{EnergySummary, PowerModel};
use hulkv_rv::{hotspot_report, Xlen};
use hulkv_sim::Timeline;

const USAGE: &str =
    "usage: [--metrics-out PATH] [--trace-out PATH] [--timeline-out PATH] [--timeline-period CYCLES]";

/// Parses the figure binaries' sink flags out of `args`; any other
/// argument is an error.
///
/// # Errors
///
/// Everything [`ObsArgs::parse`] rejects, and an unknown argument.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<ObsArgs, String> {
    let (obs, rest) = ObsArgs::parse(args, &[Sink::Metrics, Sink::Trace, Sink::Timeline])?;
    match rest.first() {
        Some(arg) => Err(format!("unknown argument {arg}")),
        None => Ok(obs),
    }
}

/// The process's sink flags; on a bad one, prints the error and the
/// usage and exits with status 2.
pub fn args() -> ObsArgs {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2)
    })
}

/// Runs the instrumented reference workload and writes the requested
/// documents. `figures` lets a binary attach its headline numbers to the
/// metrics snapshot (they land under the `figures` key).
///
/// # Errors
///
/// Fails naming the path if an output file cannot be written.
///
/// # Panics
///
/// Panics if the reference workload fails.
pub fn emit(args: &ObsArgs, figures: &[(&str, f64)]) -> Result<(), String> {
    if args.metrics_out.is_none() && args.trace_out.is_none() && args.timeline_out.is_none() {
        return Ok(());
    }
    let obs = args.clone().start()?;
    let mut soc = HulkV::new(SocConfig::default()).expect("default SoC");
    // Traced with or without --trace-out, so the exported counters are
    // the same either way.
    soc.attach_tracer(obs.tracer().cloned().unwrap_or_else(hulkv_obs::tracer));
    soc.host_mut().core_mut().enable_profile();
    if args.timeline_out.is_some() {
        soc.enable_timeline(args.timeline_period.map_or(1000, |p| p.get()));
    }

    let params = KernelParams::tiny();
    Kernel::MatMulI8
        .run_on_host(&mut soc, &params)
        .expect("host matmul");
    Kernel::MatMulI8
        .run_on_cluster(&mut soc, &params, 8)
        .expect("cluster matmul offload");

    let power = PowerModel::gf22fdx_tt();
    let soc_mhz = soc.config().host.soc_freq.as_mhz_f64();
    let mut timeline = soc.take_timeline();
    let summary = timeline.as_mut().map(|tl| {
        let cores = soc.config().cluster.cores as u64;
        let s = hulkv_power::enrich_timeline(tl, &power, soc_mhz, cores);
        verify_timeline(tl, &s, soc_mhz);
        s
    });

    let mut snap = soc.metrics_snapshot();
    for block in power.blocks() {
        snap.set_power_mw(block.name, block.max_power_mw());
    }
    if let Some(s) = &summary {
        s.apply_to(&mut snap);
    }
    for &(name, value) in figures {
        snap.set_figure(name, value);
    }

    if let (Some(path), Some(tl), Some(s)) = (&args.timeline_out, &timeline, &summary) {
        let body = if path.ends_with(".csv") {
            tl.to_csv()
        } else {
            tl.to_jsonl()
        };
        hulkv_obs::write_file(path, body)?;
        println!(
            "timeline written to {path} ({} windows, {:.3} mJ over {} soc cycles, peak {:.1} mW)",
            tl.len(),
            s.total_mj,
            s.duration_cycles,
            s.peak_power_mw
        );
    }
    let counters = timeline
        .as_ref()
        .map(Timeline::chrome_counter_events)
        .unwrap_or_default();
    obs.finish(&snap, &counters)?;

    if let Some(profile) = soc.host_mut().core_mut().take_profile() {
        println!();
        println!("{}", hotspot_report(&profile, Xlen::Rv64, false, 5));
    }
    Ok(())
}

/// The end of every figure binary's `main`: writes the documents `args`
/// asked for; if one cannot be written, prints why and exits with
/// status 1.
pub fn finish(args: &ObsArgs, figures: &[(&str, f64)]) {
    if let Err(e) = emit(args, figures) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Sanity-checks an enriched timeline before it is exported: windows must
/// exist, be contiguous and monotone in cycles, and the integrated energy
/// must equal the time-weighted average power times the covered time to
/// within 1 % — the CI gate for the telemetry path.
///
/// # Panics
///
/// Panics when any invariant is violated.
pub fn verify_timeline(tl: &Timeline, summary: &EnergySummary, soc_mhz: f64) {
    assert!(!tl.is_empty(), "timeline must hold at least one window");
    let mut last_end = 0;
    for w in tl.windows() {
        assert_eq!(w.start_cycle, last_end, "windows must be contiguous");
        assert!(w.end_cycle > w.start_cycle, "windows must be monotone");
        last_end = w.end_cycle;
    }
    let duration_s = summary.duration_cycles as f64 / (soc_mhz * 1e6);
    let recomputed_mj = summary.avg_power_mw * duration_s;
    let err = (recomputed_mj - summary.total_mj).abs() / summary.total_mj.max(f64::MIN_POSITIVE);
    assert!(
        err < 0.01,
        "integrated energy {:.6} mJ deviates from avg-power × time {:.6} mJ by {:.4}%",
        summary.total_mj,
        recomputed_mj,
        err * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_args_are_a_no_op() {
        // Must not build a SoC or write anything.
        emit(&ObsArgs::default(), &[]).unwrap();
    }

    #[test]
    fn figure_bins_take_only_file_sinks() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown argument --bogus");
        assert_eq!(
            parse(&["--serve-metrics", "127.0.0.1:0"]).unwrap_err(),
            "unknown argument --serve-metrics"
        );
        let args = parse(&["--timeline-out=t.csv", "--timeline-period", "500"]).unwrap();
        assert_eq!(args.timeline_out.as_deref(), Some("t.csv"));
        assert_eq!(args.timeline_period.map(|p| p.get()), Some(500));
    }

    #[test]
    fn emit_writes_metrics_and_trace_files() {
        let dir = std::env::temp_dir();
        let metrics = dir.join("hulkv_obs_test_metrics.json");
        let trace = dir.join("hulkv_obs_test_trace.json");
        let args = ObsArgs {
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            trace_out: Some(trace.to_string_lossy().into_owned()),
            ..ObsArgs::default()
        };
        emit(&args, &[("answer", 42.0)]).unwrap();

        let m = std::fs::read_to_string(&metrics).unwrap();
        let snap = hulkv_sim::MetricsSnapshot::parse(&m).unwrap();
        assert!(snap.blocks.iter().any(|b| b.name() == "cluster"));
        assert!(snap.total_power_mw() > 0.0);
        assert_eq!(snap.figures.get("answer"), Some(&42.0));

        let t = std::fs::read_to_string(&trace).unwrap();
        let json = hulkv_sim::Json::parse(&t).unwrap();
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        // Thread-name metadata for at least the four required tracks.
        let named: std::collections::BTreeSet<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        for required in ["host/cva6", "cluster/core0", "dma/udma", "mem/llc"] {
            assert!(named.contains(required), "missing {required} in {named:?}");
        }
        let _ = std::fs::remove_file(metrics);
        let _ = std::fs::remove_file(trace);
    }

    #[test]
    fn emit_writes_timeline_with_integrated_energy() {
        let dir = std::env::temp_dir();
        let timeline = dir.join("hulkv_obs_test_timeline.csv");
        let metrics = dir.join("hulkv_obs_test_metrics_v2.json");
        let trace = dir.join("hulkv_obs_test_trace_tl.json");
        let args = ObsArgs {
            metrics_out: Some(metrics.to_string_lossy().into_owned()),
            trace_out: Some(trace.to_string_lossy().into_owned()),
            timeline_out: Some(timeline.to_string_lossy().into_owned()),
            timeline_period: std::num::NonZeroU64::new(500),
            serve_metrics: None,
        };
        // emit() runs verify_timeline internally: contiguity, monotonicity
        // and the 1 % energy identity are all asserted on this path.
        emit(&args, &[]).unwrap();

        let csv = std::fs::read_to_string(&timeline).unwrap();
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("start_cycle,end_cycle,energy_mj"));
        assert!(lines.next().is_some(), "timeline must be non-empty");

        let snap =
            hulkv_sim::MetricsSnapshot::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(snap.energy["total_mj"] > 0.0);
        assert!(snap.energy["peak_power_mw"] >= snap.energy["avg_power_mw"]);

        // The Chrome trace gained the telemetry counter track.
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.contains("soc/telemetry"));
        assert!(t.contains("\"ph\":\"C\""));
        let _ = std::fs::remove_file(timeline);
        let _ = std::fs::remove_file(metrics);
        let _ = std::fs::remove_file(trace);
    }
}
