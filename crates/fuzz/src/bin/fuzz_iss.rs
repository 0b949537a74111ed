//! Differential fuzzing campaign driver.
//!
//! Runs N random programs per ISA side in lockstep (fast paths on vs
//! off; cluster programs additionally run in hart order vs a seeded
//! step-order permutation through the quantum engine, comparing state
//! digests at every quantum boundary). Every campaign is reproducible
//! from the printed seed. A side's first divergence is delta-debugged to
//! a minimal program and written to the repro directory as that side's
//! repro, and the campaign moves on to the next side, so a fault that
//! breaks several sides leaves one repro per side.
//!
//! After the differential sweep, the race-detector oracle
//! ([`hulkv_fuzz::race_oracle`]) runs pools of known-racy and
//! known-race-free TCDM hammer teams through the static cross-hart race
//! pass and the quantum-boundary sanitizer. The process exits non-zero
//! if any side diverged or the oracle misclassified a program.
//!
//! ```text
//! fuzz_iss [--seed N] [--programs N] [--ci-budget]
//!          [--inject-divergence] [--repro-dir DIR] [--json]
//!          [--metrics-out PATH] [--trace-out PATH]
//!          [--serve-metrics ADDR] [--heartbeat N]
//! ```
//!
//! `--metrics-out` writes a schema-v2 [`MetricsSnapshot`] with the
//! campaign's per-side program/retire counters; `--trace-out` attaches a
//! structured tracer to every fast-side core and writes the campaign's
//! Chrome trace. `--serve-metrics` exposes the live campaign counters
//! over HTTP (`/metrics`, `/snapshot`) while the fuzzer runs, and
//! `--heartbeat N` prints a progress line every N programs (default 250,
//! 0 disables) driven off the same registry the endpoint serves.

use hulkv_analyze::{analyze, AnalyzeConfig, GuestProgram, Side};
use hulkv_fuzz::{
    generate, run_differential, run_race_oracle, shrink, Divergence, Isa, LockstepOptions, Program,
};
use hulkv_obs::{ObsArgs, Sink};
use hulkv_rv::disassemble_word;
use hulkv_sim::{Json, MetricsSnapshot, SplitMix64, Stats};
use std::fmt::Write as _;
use std::process::ExitCode;

const SIDES: [Isa; 4] = [
    Isa::Rv64Sv39,
    Isa::Rv32Pulp,
    Isa::Rv64Host,
    Isa::Rv32Cluster,
];

struct Cli {
    seed: u64,
    programs: u64,
    inject_divergence: bool,
    repro_dir: String,
    json: bool,
    obs: ObsArgs,
    heartbeat: u64,
}

fn parse_cli() -> Result<Cli, String> {
    let (obs, rest) = ObsArgs::parse(
        std::env::args().skip(1),
        &[Sink::Metrics, Sink::Trace, Sink::Serve],
    )?;
    let mut cli = Cli {
        seed: 1,
        programs: 100,
        inject_divergence: false,
        repro_dir: "fuzz/repros".to_string(),
        json: false,
        obs,
        heartbeat: 250,
    };
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--seed" => cli.seed = num("--seed")?,
            "--programs" => cli.programs = num("--programs")?,
            "--ci-budget" => cli.programs = 500,
            "--inject-divergence" => cli.inject_divergence = true,
            "--repro-dir" => {
                cli.repro_dir = args.next().ok_or("--repro-dir needs a value")?;
            }
            "--json" => cli.json = true,
            "--heartbeat" => cli.heartbeat = num("--heartbeat")?,
            "--help" | "-h" => {
                return Err("usage: fuzz_iss [--seed N] [--programs N] [--ci-budget] \
                     [--inject-divergence] [--repro-dir DIR] [--json] \
                     [--metrics-out PATH] [--trace-out PATH] \
                     [--serve-metrics ADDR] [--heartbeat N]"
                    .into())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

/// Renders a diverging program as a self-contained repro report.
fn render_repro(prog: &Program, side_seed: u64, index: u64, what: &str, step: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "HULK-V differential fuzzer repro");
    let _ = writeln!(out, "isa: {:?}", prog.isa);
    let _ = writeln!(out, "side-seed: {side_seed:#x}  program-index: {index}");
    let _ = writeln!(out, "entry: {:#x}", prog.entry);
    let _ = writeln!(out, "initial-satp-slot: {}", prog.initial_satp);
    let _ = writeln!(out, "hostile-page-flags: {:02x?}", prog.hostile_flags);
    let _ = writeln!(out, "interrupts (step, cause): {:?}", prog.interrupts);
    let _ = writeln!(out, "data-seed: {:#x}", prog.data_seed);
    let _ = writeln!(out, "reg-seed: {:#x}", prog.reg_seed);
    let _ = writeln!(out, "divergence at step {step}: {what}");
    let _ = writeln!(out, "\nitems ({}):", prog.items.len());
    for item in &prog.items {
        let _ = writeln!(out, "  {item:?}");
    }
    let xpulp = matches!(prog.isa, Isa::Rv32Pulp | Isa::Rv32Cluster);
    let xlen = prog.isa.xlen();
    let _ = writeln!(out, "\ndisassembly:");
    for (i, w) in prog.words().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:#010x}: {:08x}  {}",
            prog.entry + i as u64 * 4,
            w,
            disassemble_word(*w, xlen, xpulp)
        );
    }
    out
}

/// Shrinks a diverging program and writes its repro report to the repro
/// directory (or to stderr if the file cannot be written).
fn write_repro(
    repro_dir: &str,
    opts: &LockstepOptions,
    prog: &Program,
    side_seed: u64,
    k: u64,
    div: &Divergence,
) {
    let isa = prog.isa;
    eprintln!(
        "divergence: {isa:?} program {k} (side seed {side_seed:#x}) step {}: {}",
        div.step, div.what
    );
    eprintln!("shrinking...");
    let (min, min_div) = shrink(prog, |p| run_differential(p, opts).err())
        .expect("diverging program must still diverge when re-run");
    let report = render_repro(&min, side_seed, k, &min_div.what, min_div.step);
    let path = format!("{repro_dir}/repro_{isa:?}_{side_seed:x}_{k}.txt");
    if let Err(e) = std::fs::create_dir_all(repro_dir).and_then(|()| std::fs::write(&path, &report))
    {
        eprintln!("failed to write repro to {path}: {e}");
        eprintln!("{report}");
    } else {
        eprintln!(
            "minimized to {} items; repro written to {path}",
            min.items.len()
        );
    }
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
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let opts = LockstepOptions {
        inject_divergence: cli.inject_divergence,
        tracer: obs.tracer().cloned(),
        ..LockstepOptions::default()
    };
    println!(
        "fuzz_iss: seed {} ({} programs per side; rerun with --seed {} to reproduce)",
        cli.seed, cli.programs, cli.seed
    );

    // Live campaign telemetry: the heartbeat line and the optional HTTP
    // endpoint both read these registry handles, so what a scraper sees
    // is exactly what the console reports.
    let reg = obs.bus().registry().clone();
    let hb_programs = reg.counter(
        "hulkv_fuzz_programs_total",
        "Differential programs run across all sides.",
        &[],
    );
    let hb_retired = reg.counter(
        "hulkv_fuzz_retired_total",
        "Guest instructions retired across the campaign.",
        &[],
    );
    let hb_divergences = reg.counter(
        "hulkv_fuzz_divergences_total",
        "Lockstep divergences observed.",
        &[],
    );
    let hb_race = reg.gauge(
        "hulkv_fuzz_race_oracle_ok",
        "Race-oracle status: -1 pending, 1 passed, 0 failed.",
        &[],
    );
    hb_race.set(-1.0);
    let campaign_t0 = std::time::Instant::now();
    let heartbeat = |note: &str| {
        let secs = campaign_t0.elapsed().as_secs_f64().max(1e-9);
        let race = match hb_race.get() {
            r if r < 0.0 => "pending",
            r if r > 0.0 => "ok",
            _ => "FAILED",
        };
        println!(
            "heartbeat: {} programs ({:.0}/s), {} retired, {} divergences, race oracle {race}{note}",
            hb_programs.get(),
            hb_programs.get() as f64 / secs,
            hb_retired.get(),
            hb_divergences.get(),
        );
    };

    let mut side_reports = Vec::new();
    let mut side_stats: Vec<Stats> = Vec::new();
    let mut total_programs = 0u64;
    let mut total_retired = 0u64;
    let mut static_findings = 0u64;
    let mut divergences = 0u64;
    for (s, isa) in SIDES.iter().enumerate() {
        let side_seed = cli.seed ^ ((s as u64 + 1) << 32);
        let (mut programs, mut retired, mut diverged) = (0u64, 0u64, 0u64);
        for k in 0..cli.programs {
            let mut rng = SplitMix64::new(side_seed).fork(k);
            let prog = generate(&mut rng, *isa);
            programs += 1;
            // Every generated program also goes through the static
            // analyzer — a termination and robustness test on exactly the
            // hostile inputs the fuzzer is good at producing (the
            // findings themselves are expected: the generator emits
            // misaligned and wild accesses on purpose).
            let side = match isa {
                Isa::Rv32Pulp | Isa::Rv32Cluster => Side::Cluster,
                Isa::Rv64Sv39 | Isa::Rv64Host => Side::Host,
            };
            let gp = GuestProgram::from_words(
                &format!("fuzz/{isa:?}/{k}"),
                &prog.words(),
                prog.entry,
                side,
            );
            static_findings += analyze(&gp, &AnalyzeConfig::default()).findings.len() as u64;
            hb_programs.inc();
            match run_differential(&prog, &opts) {
                Ok(stats) => {
                    retired += stats.retired;
                    hb_retired.add(stats.retired);
                    if cli.heartbeat != 0 && hb_programs.get().is_multiple_of(cli.heartbeat) {
                        heartbeat(&format!(" [{isa:?}]"));
                    }
                }
                Err(div) => {
                    // The side's first divergence is its repro; the
                    // campaign moves on to the next side.
                    hb_divergences.inc();
                    diverged = 1;
                    write_repro(&cli.repro_dir, &opts, &prog, side_seed, k, &div);
                    break;
                }
            }
        }
        total_programs += programs;
        total_retired += retired;
        divergences += diverged;
        let mut s = Stats::new(format!("fuzz_{isa:?}").to_lowercase());
        s.add("programs", programs);
        s.add("retired", retired);
        side_stats.push(s);
        side_reports.push(Json::obj([
            ("isa", Json::Str(format!("{isa:?}"))),
            ("programs", Json::from(programs)),
            ("retired", Json::from(retired)),
            ("divergences", Json::from(diverged)),
        ]));
        println!("  {isa:?}: {programs} programs, {retired} instructions retired, {diverged} divergences");
    }

    // Race-detector oracle: ground-truth TCDM hammer teams (racy pool and
    // striped race-free pool) checked against both the static cross-hart
    // pass and the sanitized team run. Any misclassification — a hammer
    // not flagged or confirmed, a striped program flagged or raced — fails
    // the campaign.
    let race_pool = (cli.programs / 25).clamp(4, 16);
    let race = run_race_oracle(cli.seed ^ 0x5ACE_CAFE, race_pool);
    hb_race.set(if race.ok() { 1.0 } else { 0.0 });
    if cli.heartbeat != 0 {
        heartbeat(" [final]");
    }
    println!(
        "  race_oracle: hammer_flagged={}/{} hammer_confirmed={}/{} \
         striped_flagged={} striped_raced={}",
        race.hammer_flagged,
        race.pool,
        race.hammer_confirmed,
        race.pool,
        race.striped_flagged,
        race.striped_raced
    );
    if !race.ok() {
        eprintln!(
            "race oracle FAILED: the TCDM race detector misclassified \
             ground-truth programs (seed {}, pool {race_pool})",
            cli.seed
        );
    }

    let mut snap = MetricsSnapshot::new();
    let mut campaign = Stats::new("campaign");
    campaign.add("programs", total_programs);
    campaign.add("retired", total_retired);
    campaign.add("static_findings", static_findings);
    campaign.add("divergences", divergences);
    campaign.add("race_oracle_pool", race.pool);
    campaign.add("race_hammer_confirmed", race.hammer_confirmed);
    campaign.add("race_striped_raced", race.striped_raced);
    snap.push_block(campaign);
    for s in side_stats {
        snap.push_block(s);
    }
    snap.set_figure("seed", cli.seed as f64);
    // /snapshot and /metrics serve the same document --metrics-out writes.
    if let Err(msg) = obs.finish(&snap, &[]) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }

    if cli.json {
        let summary = Json::obj([
            ("seed", Json::from(cli.seed)),
            ("programs", Json::from(total_programs)),
            ("retired", Json::from(total_retired)),
            ("divergences", Json::from(divergences)),
            ("static_findings", Json::from(static_findings)),
            ("race_oracle_pool", Json::from(race.pool)),
            ("race_hammer_flagged", Json::from(race.hammer_flagged)),
            ("race_hammer_confirmed", Json::from(race.hammer_confirmed)),
            ("race_striped_flagged", Json::from(race.striped_flagged)),
            ("race_striped_raced", Json::from(race.striped_raced)),
            ("sides", Json::Arr(side_reports)),
        ]);
        println!("{summary}");
    } else {
        println!(
            "fuzz_iss: {total_programs} programs, {divergences} divergences \
             ({static_findings} static findings, all analyzed without hangs; \
             race oracle {}/{} hammers confirmed, {} striped false positives)",
            race.hammer_confirmed,
            race.pool,
            race.striped_flagged + race.striped_raced
        );
    }
    if divergences == 0 && race.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
