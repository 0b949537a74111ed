//! `hulkv-lint` — static analysis over every guest program this
//! repository generates.
//!
//! The input set is the Figure-6 kernel suite (host and cluster
//! flavours), the IoT benchmarks, the example programs, and any committed
//! fuzzer repros. Findings are diffed against a committed baseline
//! (`crates/analyze/lint_baseline.json`) so CI fails only on *new*
//! findings; intentional ones are accepted there with a one-line
//! justification each.
//!
//! Usage: `hulkv-lint [--ci] [--json] [--write-baseline] [--confirm]
//!                    [--filter CHECK] [--baseline PATH] [--repro-dir DIR]
//!                    [--metrics-out PATH] [--trace-out PATH]
//!                    [--serve-metrics ADDR]`
//!
//! `--filter` restricts the text and `--json` output to one check kind
//! (stable names, e.g. `tcdm-race`); the `--ci` baseline diff always
//! sees the full finding set so a filter cannot hide a regression.
//! `--metrics-out` writes a schema-v2 `MetricsSnapshot` summarizing the
//! lint campaign (programs, findings, confirmation outcomes).
//! `--trace-out` (with `--confirm`) accumulates every confirmation run
//! onto one tracer and writes the combined Chrome trace.
//! `--serve-metrics ADDR` starts the live telemetry endpoint
//! (`/metrics`, `/snapshot`) for the duration of the campaign; the lint
//! counters (programs analyzed, findings, confirmation outcomes) update
//! live while `--confirm` replays programs on the SoC, and the final
//! `MetricsSnapshot` is published on the bus before exit. The sink flags
//! also take the `--flag=value` spelling.

use hulkv_analyze::{
    analyze, dynamic, AnalyzeConfig, Baseline, CheckKind, GuestProgram, Report, Side,
};
use hulkv_obs::{ObsArgs, Sink};
use hulkv_sim::{Json, MetricsSnapshot, Stats};
use std::process::ExitCode;

struct Cli {
    ci: bool,
    json: bool,
    write_baseline: bool,
    confirm: bool,
    filter: Option<CheckKind>,
    baseline: String,
    repro_dir: String,
    obs: ObsArgs,
}

fn parse_cli() -> Result<Cli, String> {
    let (obs, rest) = ObsArgs::parse(
        std::env::args().skip(1),
        &[Sink::Metrics, Sink::Trace, Sink::Serve],
    )?;
    let mut cli = Cli {
        ci: false,
        json: false,
        write_baseline: false,
        confirm: false,
        filter: None,
        baseline: concat!(env!("CARGO_MANIFEST_DIR"), "/lint_baseline.json").to_string(),
        repro_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/../../fuzz/repros").to_string(),
        obs,
    };
    let mut args = rest.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--ci" => cli.ci = true,
            "--json" => cli.json = true,
            "--write-baseline" => cli.write_baseline = true,
            "--confirm" => cli.confirm = true,
            "--filter" => {
                let name = args.next().ok_or("--filter needs a check kind")?;
                cli.filter = Some(CheckKind::from_name(&name).ok_or_else(|| {
                    format!(
                        "unknown check kind {name}; one of: {}",
                        CheckKind::ALL
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?);
            }
            "--baseline" => cli.baseline = args.next().ok_or("--baseline needs a value")?,
            "--repro-dir" => cli.repro_dir = args.next().ok_or("--repro-dir needs a value")?,
            other => {
                return Err(format!(
                    "unknown argument {other}\nusage: hulkv-lint [--ci] [--json] \
                     [--write-baseline] [--confirm] [--filter CHECK] [--baseline PATH] \
                     [--repro-dir DIR] [--metrics-out PATH] [--trace-out PATH] \
                     [--serve-metrics ADDR]"
                ))
            }
        }
    }
    Ok(cli)
}

/// The addresses each flavour executes at on the SoC (see
/// `HulkV::run_host_program` and `HulkV::offload`).
fn host_base() -> u64 {
    hulkv::map::HOST_CODE
}
fn cluster_base() -> u64 {
    hulkv::map::L2SPM_BASE
}

fn catalog(repro_dir: &str) -> Vec<(GuestProgram, AnalyzeConfig)> {
    let mut programs = Vec::new();
    for p in hulkv_kernels::suite::lint_catalog()
        .into_iter()
        .chain(hulkv_kernels::iot::lint_catalog())
    {
        let (side, base) = if p.cluster {
            (Side::Cluster, cluster_base())
        } else {
            (Side::Host, host_base())
        };
        programs.push((
            GuestProgram::from_words(&p.name, &p.words, base, side),
            AnalyzeConfig::for_side(side),
        ));
    }
    for e in hulkv_examples::guest_programs() {
        use hulkv_examples::ExampleTarget;
        let (side, base, cfg) = match e.target {
            ExampleTarget::Host => (Side::Host, host_base(), AnalyzeConfig::for_side(Side::Host)),
            ExampleTarget::Cluster => (
                Side::Cluster,
                cluster_base(),
                AnalyzeConfig::for_side(Side::Cluster),
            ),
            // Raw-core programs have no SoC memory view; the ISA checks
            // (alignment, hw-loops, CSRs) still apply.
            ExampleTarget::Raw { base, xlen } => (
                match xlen {
                    hulkv_rv::Xlen::Rv64 => Side::Host,
                    hulkv_rv::Xlen::Rv32 => Side::Cluster,
                },
                base,
                AnalyzeConfig::default(),
            ),
        };
        programs.push((GuestProgram::from_words(e.name, &e.words, base, side), cfg));
    }
    for (_, prog) in repro_programs(repro_dir) {
        programs.push((prog, AnalyzeConfig::default()));
    }
    programs
}

/// Parses committed fuzzer repros (see `fuzz_iss::render_repro`): the
/// `isa:` / `entry:` headers plus the `  0x........: xxxxxxxx` disassembly
/// lines carry everything needed to re-analyze the program. A missing
/// directory is simply an empty set.
fn repro_programs(dir: &str) -> Vec<(String, GuestProgram)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.extension().and_then(|e| e.to_str()) != Some("txt") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Some((prog, name)) = parse_repro(&text, &path) else {
            eprintln!("hulkv-lint: skipping unparsable repro {}", path.display());
            continue;
        };
        out.push((name, prog));
    }
    out
}

fn parse_repro(text: &str, path: &std::path::Path) -> Option<(GuestProgram, String)> {
    let mut side = None;
    let mut entry = None;
    let mut words: Vec<u32> = Vec::new();
    for line in text.lines() {
        if let Some(isa) = line.strip_prefix("isa: ") {
            // RV32 fuzz ISAs enable Xpulp; RV64 ones do not.
            side = Some(if isa.trim().starts_with("Rv32") {
                Side::Cluster
            } else {
                Side::Host
            });
        } else if let Some(e) = line.strip_prefix("entry: ") {
            entry = u64::from_str_radix(e.trim().trim_start_matches("0x"), 16).ok();
        } else if let Some(rest) = line.strip_prefix("  0x") {
            // "  0x........: xxxxxxxx  <disasm>"
            let (_, tail) = rest.split_once(':')?;
            let word = tail.split_whitespace().next()?;
            words.push(u32::from_str_radix(word, 16).ok()?);
        }
    }
    let name = format!(
        "fuzz/{}",
        path.file_stem().and_then(|s| s.to_str()).unwrap_or("repro")
    );
    Some((
        GuestProgram::from_words(&name, &words, entry?, side?),
        name.clone(),
    ))
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let obs = match cli.obs.start() {
        Ok(obs) => obs,
        Err(msg) => {
            eprintln!("hulkv-lint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let reg = obs.bus().registry().clone();
    let m_programs = reg.counter("hulkv_lint_programs_total", "Guest programs analyzed", &[]);
    let m_findings = reg.counter("hulkv_lint_findings_total", "Static findings raised", &[]);
    let m_confirm = ["confirmed", "unconfirmed", "unchecked"].map(|outcome| {
        reg.counter(
            "hulkv_lint_confirmations_total",
            "Findings by --confirm dynamic-replay outcome",
            &[("outcome", outcome)],
        )
    });

    let inputs = catalog(&cli.repro_dir);
    let mut reports: Vec<Report> = Vec::new();
    let mut confirm_lines: Vec<String> = Vec::new();
    let mut confirm_counts = (0u64, 0u64, 0u64); // confirmed, unconfirmed, unchecked
    for (prog, cfg) in &inputs {
        let report = analyze(prog, cfg);
        m_programs.inc();
        m_findings.add(report.findings.len() as u64);
        if cli.confirm
            && report
                .findings
                .iter()
                .any(|f| f.kind.trace_category().is_some())
        {
            // Confirmation matches PROTECT events; the rest of the
            // --trace-out tracer's categories make the trace useful on its
            // own.
            let outcome = match obs.tracer() {
                Some(t) => dynamic::confirm_with_tracer(prog, &report, 10_000_000, t),
                None => dynamic::confirm(prog, &report, 10_000_000),
            };
            confirm_counts.0 += outcome.confirmed.len() as u64;
            confirm_counts.1 += outcome.unconfirmed.len() as u64;
            confirm_counts.2 += outcome.unchecked.len() as u64;
            m_confirm[0].add(outcome.confirmed.len() as u64);
            m_confirm[1].add(outcome.unconfirmed.len() as u64);
            m_confirm[2].add(outcome.unchecked.len() as u64);
            confirm_lines.push(format!(
                "{}: confirmed {:?}, unconfirmed {:?}{}",
                prog.name,
                outcome.confirmed,
                outcome.unconfirmed,
                outcome
                    .run_error
                    .as_deref()
                    .map(|e| format!(" (run: {e})"))
                    .unwrap_or_default()
            ));
        }
        reports.push(report);
    }
    let total: usize = reports.iter().map(|r| r.findings.len()).sum();

    if cli.write_baseline {
        let previous = std::fs::read_to_string(&cli.baseline)
            .ok()
            .and_then(|t| Baseline::parse(&t).ok())
            .unwrap_or_default();
        let text = Baseline::from_reports(&reports, &previous);
        if let Err(e) = std::fs::write(&cli.baseline, text) {
            eprintln!("hulkv-lint: cannot write {}: {e}", cli.baseline);
            return ExitCode::FAILURE;
        }
        println!(
            "hulkv-lint: baseline written to {} ({} findings over {} programs)",
            cli.baseline,
            total,
            reports.len()
        );
        return ExitCode::SUCCESS;
    }

    // `--filter` narrows what is *shown*; baselines and the CI diff keep
    // operating on the unfiltered reports.
    let shown: Vec<Report> = match cli.filter {
        None => Vec::new(),
        Some(kind) => reports
            .iter()
            .map(|r| Report {
                program: r.program.clone(),
                findings: r
                    .findings
                    .iter()
                    .filter(|f| f.kind == kind)
                    .cloned()
                    .collect(),
            })
            .collect(),
    };
    let display = if cli.filter.is_some() {
        &shown
    } else {
        &reports
    };
    let displayed: usize = display.iter().map(|r| r.findings.len()).sum();
    if cli.json {
        let doc = Json::Arr(display.iter().map(Report::to_json).collect());
        println!("{doc}");
    } else {
        for r in display.iter() {
            print!("{}", r.render_text());
        }
        match cli.filter {
            Some(kind) => println!(
                "hulkv-lint: {} programs analyzed, {} {} findings shown ({} total)",
                reports.len(),
                displayed,
                kind.name(),
                total
            ),
            None => println!(
                "hulkv-lint: {} programs analyzed, {} findings",
                reports.len(),
                total
            ),
        }
    }
    for line in &confirm_lines {
        println!("confirm: {line}");
    }

    let mut snap = MetricsSnapshot::new();
    let mut s = Stats::new("lint");
    s.add("programs", reports.len() as u64);
    s.add("findings", total as u64);
    if cli.confirm {
        s.add("confirmed", confirm_counts.0);
        s.add("unconfirmed", confirm_counts.1);
        s.add("unchecked", confirm_counts.2);
    }
    snap.push_block(s);
    if let Err(msg) = obs.finish(&snap, &[]) {
        eprintln!("hulkv-lint: {msg}");
        return ExitCode::FAILURE;
    }

    if cli.ci {
        let baseline = match std::fs::read_to_string(&cli.baseline) {
            Ok(t) => match Baseline::parse(&t) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("hulkv-lint: bad baseline {}: {e}", cli.baseline);
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => Baseline::default(),
        };
        // Accepted findings must carry a real justification: a budget
        // still stamped with the --write-baseline placeholder (or blank)
        // is a finding nobody has actually reviewed.
        let unjustified = baseline.unjustified();
        if !unjustified.is_empty() {
            for (prog, check) in &unjustified {
                eprintln!(
                    "hulkv-lint: baseline entry {prog}/{check} has a placeholder or \
                     empty justification"
                );
            }
            eprintln!(
                "hulkv-lint: replace every \"{}\" in {} with the reason the finding \
                 is acceptable",
                hulkv_analyze::PLACEHOLDER_JUSTIFICATION,
                cli.baseline
            );
            return ExitCode::FAILURE;
        }
        let diff = baseline.diff(&reports);
        for (prog, check, found, accepted) in &diff.stale {
            println!(
                "hulkv-lint: stale baseline: {prog}/{check} accepts {accepted} but only \
                 {found} found — consider tightening"
            );
        }
        if !diff.regressions.is_empty() {
            for (prog, check, found, accepted) in &diff.regressions {
                eprintln!(
                    "hulkv-lint: NEW findings: {prog}/{check}: {found} found, \
                     {accepted} accepted by baseline"
                );
            }
            eprintln!(
                "hulkv-lint: fix the findings or re-run with --write-baseline and \
                 justify them in {}",
                cli.baseline
            );
            return ExitCode::FAILURE;
        }
        println!(
            "hulkv-lint: CI clean against baseline ({} accepted budgets)",
            baseline.len()
        );
    }
    ExitCode::SUCCESS
}
