//! `hulkv-replay` — record, verify and time-travel-debug HULK-V runs.
//!
//! ```text
//! hulkv-replay record --out FILE [--kernel NAME] [--cores N]
//!                     [--period N] [--capacity N] [--no-decode-cache]
//!                     [--no-superblocks (CVA6 host only)] [--serve-metrics ADDR]
//! hulkv-replay verify FILE [--serve-metrics ADDR]
//!                                     exhaustive checkpoint/replay audit
//! hulkv-replay info FILE              recording summary
//! hulkv-replay debug FILE [--script FILE]   scripted or stdin session
//! ```
//!
//! With `--serve-metrics ADDR`, `record` and `verify` expose the live
//! telemetry endpoint (`/metrics`, `/snapshot`).  Snapshot
//! save and checkpoint-restore latencies land in the
//! `hulkv_snapshot_save_seconds` / `hulkv_snapshot_restore_seconds`
//! histograms, and the SoC's final `MetricsSnapshot` is published on
//! the bus before exit.

use hulkv::{Recorder, Recording, SocConfig};
use hulkv_kernels::suite::{record_fig6_kernel, Kernel, KernelParams};
use hulkv_obs::{exponential_bounds, HistogramHandle, ObsArgs, Sink, TelemetryBus};
use hulkv_replay::{Debugger, StepEvent, Watch};
use std::io::{BufRead, Write};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]).map_or_else(|e| fail(&e), |()| 0),
        Some("verify") => cmd_verify(&args[1..]).map_or_else(|e| fail(&e), |()| 0),
        Some("info") => cmd_info(&args[1..]),
        Some("debug") => cmd_debug(&args[1..]),
        _ => {
            eprintln!("usage: hulkv-replay <record|verify|info|debug> ...");
            2
        }
    };
    std::process::exit(code);
}

fn parse_num(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn fail(msg: &str) -> i32 {
    eprintln!("hulkv-replay: {msg}");
    1
}

/// Snapshot save / checkpoint-restore latency histograms: 1 µs to ~8 s
/// in ×2 buckets.
fn snapshot_histograms(bus: &TelemetryBus) -> (HistogramHandle, HistogramHandle) {
    let bounds = exponential_bounds(1e-6, 2.0, 24);
    let reg = bus.registry();
    (
        reg.histogram(
            "hulkv_snapshot_save_seconds",
            "Full-state snapshot save latency",
            &[],
            &bounds,
        ),
        reg.histogram(
            "hulkv_snapshot_restore_seconds",
            "Snapshot or checkpoint restore latency",
            &[],
            &bounds,
        ),
    )
}

// ---------------------------------------------------------------- record

fn cmd_record(args: &[String]) -> Result<(), String> {
    let (obs, args) = ObsArgs::parse(args.iter().cloned(), &[Sink::Serve])?;
    let mut out = None;
    let mut kernel = Kernel::MatMulI8;
    let mut cores = 8usize;
    let mut period = 10_000u64;
    let mut capacity = 64usize;
    let mut decode_cache = true;
    let mut superblocks = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = || {
            it.next()
                .and_then(|s| parse_num(s))
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{a} needs a positive number"))
        };
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            "--kernel" => {
                let name = it.next().ok_or("--kernel needs a name")?;
                kernel = *Kernel::ALL
                    .iter()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| {
                        let names: Vec<&str> = Kernel::ALL.iter().map(|k| k.name()).collect();
                        format!("unknown kernel {name:?}; one of: {}", names.join(", "))
                    })?;
            }
            "--cores" => cores = num()? as usize,
            "--period" => period = num()?,
            "--capacity" => capacity = num()? as usize,
            "--no-decode-cache" => decode_cache = false,
            "--no-superblocks" => superblocks = false,
            other => return Err(format!("unknown record flag {other:?}")),
        }
    }
    let out = out.ok_or("record needs --out FILE")?;

    let serving = obs.serve_metrics.is_some();
    let obs = obs.start()?;
    let bus = obs.bus();
    let mut cfg = SocConfig::default();
    cfg.host.decode_cache = decode_cache;
    cfg.cluster.decode_cache = decode_cache;
    cfg.host.superblocks = superblocks;
    let mut rec =
        Recorder::new(cfg, period, capacity).map_err(|e| format!("SoC bring-up failed: {e}"))?;
    bus.begin_phase("record");
    record_fig6_kernel(&mut rec, kernel, &KernelParams::small(), cores)
        .map_err(|e| format!("workload failed under recording: {e}"))?;
    bus.end_phase();
    let (soc, recording) = rec.finish();
    let bytes = recording.to_bytes();
    hulkv_obs::write_file(&out, &bytes)?;
    if serving {
        // Measure one save/restore round trip on the finished state so
        // the latency histograms carry real figures for this workload.
        let (h_save, h_restore) = snapshot_histograms(bus);
        let t0 = Instant::now();
        let snap = soc.snapshot();
        h_save.observe(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let restored = hulkv::HulkV::from_snapshot(&snap)
            .map_err(|e| format!("snapshot restore failed: {e}"))?;
        h_restore.observe(t0.elapsed().as_secs_f64());
        if restored.state_digest() != soc.state_digest() {
            return Err("snapshot round trip changed the state digest".into());
        }
    }
    let mut snap = soc.metrics_snapshot();
    let mut s = hulkv_sim::Stats::new("record");
    s.add("commands", recording.commands.len() as u64);
    s.add("checkpoints", recording.checkpoints.len() as u64);
    s.add("recording_bytes", bytes.len() as u64);
    snap.push_block(s);
    println!(
        "recorded {} ({} cycles, {} commands, {} checkpoints, {} bytes) digest={:#018x}",
        kernel.name(),
        soc.host().core().cycles().get(),
        recording.commands.len(),
        recording.checkpoints.len(),
        bytes.len(),
        soc.state_digest()
    );
    obs.finish(&snap, &[])
}

// ---------------------------------------------------------------- verify

fn load(path: &str) -> Result<Recording, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    Recording::from_bytes(&bytes).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let (obs, args) = ObsArgs::parse(args.iter().cloned(), &[Sink::Serve])?;
    let path = match &args[..] {
        [path] => path,
        [] => return Err("verify needs a recording file".into()),
        [_, other, ..] => return Err(format!("unknown verify flag {other:?}")),
    };
    let obs = obs.start()?;
    let bus = obs.bus();
    let (h_save, h_restore) = snapshot_histograms(bus);
    let recording = load(path)?;

    // Reference run: straight-line replay of the whole journal.
    bus.begin_phase("replay");
    let reference = recording
        .replay_to_end()
        .map_err(|e| format!("straight-line replay failed: {e}"))?;
    bus.end_phase();
    let ref_digest = reference.state_digest();
    let ref_cycles = reference.host().core().cycles().get();
    let ref_stats = reference.metrics_snapshot().to_json().to_string();
    println!("straight-line: {ref_cycles} cycles, digest {ref_digest:#018x}");

    // Snapshot save latency and size on the final state.
    let t0 = Instant::now();
    let snap = reference.snapshot();
    let snap_bytes = snap.to_bytes();
    let save_us = t0.elapsed().as_micros();
    h_save.observe(t0.elapsed().as_secs_f64());
    println!("snapshot: {} bytes, save {} us", snap_bytes.len(), save_us);

    // Every checkpoint must resume to the identical final state.
    bus.begin_phase("audit");
    let mut restore_us_total = 0u128;
    for (i, cp) in recording.checkpoints.iter().enumerate() {
        let t0 = Instant::now();
        let resumed = recording
            .resume_from(i)
            .map_err(|e| format!("resume from checkpoint {i}: {e}"))?;
        restore_us_total += t0.elapsed().as_micros();
        h_restore.observe(t0.elapsed().as_secs_f64());
        let digest = resumed.state_digest();
        let cycles = resumed.host().core().cycles().get();
        let stats = resumed.metrics_snapshot().to_json().to_string();
        if digest != ref_digest || cycles != ref_cycles || stats != ref_stats {
            eprintln!(
                "checkpoint {i} (cycle {}): digest {digest:#018x} vs {ref_digest:#018x}, \
                 cycles {cycles} vs {ref_cycles}, stats match: {}",
                cp.host_cycle,
                stats == ref_stats
            );
            return Err("resume-from-checkpoint diverged from straight-line replay".into());
        }
        println!(
            "checkpoint {i}: cycle {} ({} bytes) -> replay converged",
            cp.host_cycle,
            cp.bytes.len()
        );
    }
    bus.end_phase();
    let n = recording.checkpoints.len().max(1) as u128;
    println!(
        "verified {} checkpoints, restore+replay avg {} us",
        recording.checkpoints.len(),
        restore_us_total / n
    );
    let mut final_snap = reference.metrics_snapshot();
    let mut s = hulkv_sim::Stats::new("verify");
    s.add("commands", recording.commands.len() as u64);
    s.add("checkpoints", recording.checkpoints.len() as u64);
    s.add("snapshot_bytes", snap_bytes.len() as u64);
    final_snap.push_block(s);
    println!("VERIFY OK digest={ref_digest:#018x}");
    obs.finish(&final_snap, &[])
}

// ------------------------------------------------------------------ info

fn cmd_info(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        return fail("info needs a recording file");
    };
    let recording = match load(path) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    println!(
        "{} commands, {} checkpoints",
        recording.commands.len(),
        recording.checkpoints.len()
    );
    for (i, cp) in recording.checkpoints.iter().enumerate() {
        println!(
            "  checkpoint {i}: cycle {} instret {} cmd_index {}{} ({} bytes)",
            cp.host_cycle,
            cp.instret,
            cp.cmd_index,
            if cp.in_progress { " (mid-program)" } else { "" },
            cp.bytes.len()
        );
    }
    0
}

// ----------------------------------------------------------------- debug

fn cmd_debug(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        return fail("debug needs a recording file");
    };
    let mut script = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--script" => script = it.next().cloned(),
            other => return fail(&format!("unknown debug flag {other:?}")),
        }
    }
    let recording = match load(path) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let mut dbg = match Debugger::new(recording) {
        Ok(d) => d,
        Err(e) => return fail(&format!("opening debugger: {e}")),
    };

    let lines: Box<dyn Iterator<Item = String>> = match script {
        Some(f) => match std::fs::read_to_string(&f) {
            Ok(text) => Box::new(
                text.lines()
                    .map(String::from)
                    .collect::<Vec<_>>()
                    .into_iter(),
            ),
            Err(e) => return fail(&format!("reading script {f}: {e}")),
        },
        None => {
            let stdin = std::io::stdin();
            Box::new(stdin.lock().lines().map_while(Result::ok))
        }
    };

    let mut watches: Vec<Watch> = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        println!("(replay) {line}");
        std::io::stdout().flush().ok();
        let words: Vec<&str> = line.split_whitespace().collect();
        if let Err(e) = run_debug_line(&mut dbg, &mut watches, &words) {
            eprintln!("hulkv-replay: {e}");
            return 1;
        }
        if words[0] == "quit" {
            break;
        }
    }
    0
}

fn run_debug_line(
    dbg: &mut Debugger,
    watches: &mut Vec<Watch>,
    words: &[&str],
) -> Result<(), String> {
    let num = |i: usize| -> Result<u64, String> {
        words
            .get(i)
            .and_then(|s| parse_num(s))
            .ok_or_else(|| format!("{}: bad or missing numeric argument", words[0]))
    };
    match words[0] {
        "goto" => {
            dbg.goto_cycle(num(1)?).map_err(|e| e.to_string())?;
            println!(
                "at cycle {} pc {:#x} instret {}",
                dbg.cycles(),
                dbg.pc(),
                dbg.instret()
            );
        }
        "step" => {
            let n = num(1).unwrap_or(1);
            for _ in 0..n {
                if matches!(
                    dbg.step().map_err(|e| e.to_string())?,
                    StepEvent::EndOfRecording
                ) {
                    println!("end of recording");
                    break;
                }
            }
            println!(
                "at cycle {} pc {:#x} instret {}",
                dbg.cycles(),
                dbg.pc(),
                dbg.instret()
            );
        }
        "back" => {
            let n = num(1).unwrap_or(1);
            for _ in 0..n {
                if !dbg.step_back().map_err(|e| e.to_string())? {
                    println!("at start of recording");
                    break;
                }
            }
            println!(
                "at cycle {} pc {:#x} instret {}",
                dbg.cycles(),
                dbg.pc(),
                dbg.instret()
            );
        }
        "regs" => print!("{}", dbg.regs()),
        "csr" => {
            let addr = num(1)? as u16;
            println!(
                "csr {:#x} = {:#018x}",
                addr,
                dbg.soc().host().core().csrs().read(addr)
            );
        }
        "mem" => {
            let addr = num(1)?;
            let len = num(2)? as usize;
            let mut buf = vec![0u8; len];
            dbg.soc()
                .peek_mem(addr, &mut buf)
                .map_err(|e| e.to_string())?;
            for (i, chunk) in buf.chunks(16).enumerate() {
                let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
                println!("{:#010x}: {}", addr + i as u64 * 16, hex.join(" "));
            }
        }
        "disasm" => {
            let addr = num(1)?;
            let n = num(2).unwrap_or(8) as usize;
            for (a, w, text) in dbg.disasm(addr, n) {
                println!("{a:#010x}: {w:08x}  {text}");
            }
        }
        "watch" => match (words.get(1).copied(), words.get(2), words.get(3)) {
            (Some("pc"), Some(_), _) => {
                let addr = num(2)?;
                watches.push(Watch::Pc(addr));
                println!("watch {} set: pc {addr:#x}", watches.len() - 1);
            }
            (Some("mem"), Some(_), Some(_)) => {
                let (addr, len) = (num(2)?, num(3)? as usize);
                watches.push(Watch::Mem { addr, len });
                println!("watch {} set: mem {addr:#x}+{len:#x}", watches.len() - 1);
            }
            _ => return Err("usage: watch pc ADDR | watch mem ADDR LEN".into()),
        },
        "continue" => {
            let max = num(1).unwrap_or(10_000_000);
            match dbg
                .run_until_watch(watches, max)
                .map_err(|e| e.to_string())?
            {
                Some(hit) => println!(
                    "watch {} hit at cycle {} pc {:#x}: {}",
                    hit.index, hit.cycle, hit.pc, hit.desc
                ),
                None => println!("no watch hit (cycle {} pc {:#x})", dbg.cycles(), dbg.pc()),
            }
        }
        "diff" => {
            let (a, b) = (num(1)?, num(2)?);
            let lines = dbg.diff(a, b).map_err(|e| e.to_string())?;
            println!("diff cycle {a} -> {b}: {} fields differ", lines.len());
            for l in &lines {
                println!("  {l}");
            }
        }
        "trace" => {
            let (a, b) = (num(1)?, num(2)?);
            let events = dbg.trace_window(a, b, 65_536).map_err(|e| e.to_string())?;
            println!("trace cycle {a} -> {b}: {} events", events.len());
            for e in events.iter().take(200) {
                println!("  {e}");
            }
            if events.len() > 200 {
                println!("  ... +{} more", events.len() - 200);
            }
        }
        "timeline" => {
            let (a, b, p) = (num(1)?, num(2)?, num(3)?);
            print!(
                "{}",
                dbg.timeline_window(a, b, p).map_err(|e| e.to_string())?
            );
        }
        "info" => {
            println!(
                "cycle {} instret {} pc {:#x}, {} commands, {} checkpoints, at_end {}",
                dbg.cycles(),
                dbg.instret(),
                dbg.pc(),
                dbg.recording().commands.len(),
                dbg.recording().checkpoints.len(),
                dbg.at_end()
            );
        }
        "quit" => {}
        other => return Err(format!("unknown command {other:?}")),
    }
    Ok(())
}
