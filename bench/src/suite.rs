//! `run`, `trace` and `compare`: sets of runs over every workload, the
//! history they are appended to, and the verdict on a change.

use hulkv_sim::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::io::Write;
use std::process::{Command, Stdio};

use crate::stats::{mad, median, quartiles, spread, verdict, Better, Verdict, MIN_PAIRS};
use crate::workload::Workload;
use crate::{sys, END_TO_END, PER_LAYER};

/// Every `run`/`trace` set is appended here (paths relative to the root of
/// the repository, where the commands are run from).
const HISTORY: &str = "bench/history.jsonl";
/// Span files of traced runs.
const SPANS_DIR: &str = "bench/out";
/// The benchmark's declaration: workloads, metrics and bounds.
const SPEC: &str = "BENCHMARK.json";
/// Seconds each workload is measured for, as in `BENCHMARK.json`
/// (`--smoke`: one pass).
const SECONDS: f64 = 30.0;

/// Per workload, the metrics of each run in file order.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// `run` (end to end) or `trace` (per layer): each workload in a fresh
/// child process, `--runs` times with consecutive seeds.
pub fn run(args: &[String], trace: bool) -> Result<i32, String> {
    let (mut seed, mut runs, mut out, mut smoke) = (1u64, 1usize, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value}");
        match flag.as_str() {
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--runs" => runs = value.parse().map_err(|_| bad())?,
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = if smoke { 0.0 } else { SECONDS };
    if trace {
        std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("creating {SPANS_DIR}: {e}"))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let ticks = sys::cpu_ticks();
    let mut results: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    let mut all_ok = true;
    for r in 0..runs as u64 {
        for w in Workload::ALL {
            let s = (seed + r).to_string();
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &s])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if trace {
                cmd.args([
                    "--spans",
                    &format!("{SPANS_DIR}/spans-{}-{s}.json", w.name()),
                ]);
            }
            let o = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            let text = String::from_utf8_lossy(&o.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in lines {
                println!("{l}");
            }
            let mut result = match Json::parse(last) {
                Ok(Json::Obj(m)) => m,
                _ => BTreeMap::from([("correct".to_owned(), Json::from(false))]),
            };
            let ok = o.status.success() && result.get("correct") == Some(&Json::from(true));
            all_ok &= ok;
            if !ok {
                eprintln!("{} seed {s}: FAILED ({})", w.name(), o.status);
            }
            result.insert("seed".into(), Json::from(seed + r));
            results
                .entry(w.name().to_owned())
                .or_default()
                .push(Json::Obj(result));
        }
    }
    let record = Json::obj([
        ("kind", Json::from(if trace { "trace" } else { "run" })),
        ("seconds", Json::from(seconds)),
        ("provenance", sys::provenance()),
        (
            "steal_frac",
            Json::from(sys::steal_frac(ticks, sys::cpu_ticks())),
        ),
        (
            "results",
            Json::Obj(
                results
                    .into_iter()
                    .map(|(w, v)| (w, Json::Arr(v)))
                    .collect(),
            ),
        ),
    ]);
    let runs_by_workload = flatten(&record);
    summarize(
        &runs_by_workload,
        if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        },
    );
    let targets = out
        .iter()
        .map(String::as_str)
        .chain((!smoke).then_some(HISTORY));
    for path in targets {
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("opening {path}: {e}"))?;
        writeln!(f, "{record}").map_err(|e| format!("writing {path}: {e}"))?;
        println!("appended to {path}");
    }
    Ok(i32::from(!all_ok))
}

/// The metric values of every run in a record, per workload.
fn flatten(record: &Json) -> Runs {
    let mut runs = Runs::new();
    if let Some(Json::Obj(results)) = record.get("results") {
        for (w, list) in results {
            for run in list.as_arr().unwrap_or_default() {
                let mut values = BTreeMap::new();
                if let Some(Json::Obj(metrics)) = run.get("metrics") {
                    for (name, m) in metrics {
                        if let Some(v) = m.get("value").and_then(Json::as_f64) {
                            values.insert(name.clone(), v);
                        }
                    }
                }
                runs.entry(w.clone()).or_default().push(values);
            }
        }
    }
    runs
}

fn values(runs: &[BTreeMap<String, f64>], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(metric).copied()).collect()
}

/// Prints the median of every metric per workload, with the spread
/// (interquartile range over median) when there is more than one run.
fn summarize(runs: &Runs, catalog: &[(&str, &str)]) {
    print!("{:<32}", "metric (median, spread)");
    for w in runs.keys() {
        print!(" {w:>24}");
    }
    println!();
    for (name, unit) in catalog {
        print!("{:<32}", format!("{name} [{unit}]"));
        for list in runs.values() {
            let v = values(list, name);
            let cell = match v.len() {
                0 => "-".to_owned(),
                1 => format!("{:.4}", v[0]),
                _ => format!("{:.4} ({:.1}%)", median(&v), 100.0 * spread(&v)),
            };
            print!(" {cell:>24}");
        }
        println!();
    }
}

/// Reads every record of a `run`/`trace` JSON Lines file.
fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut all = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        for (w, runs) in flatten(&record) {
            all.entry(w).or_default().extend(runs);
        }
    }
    Ok(all)
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    better: Better,
    bound: f64,
}

fn declared() -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(SPEC).map_err(|e| format!("reading {SPEC}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{SPEC}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{SPEC}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("{SPEC}: metric without {k}"));
            Ok(Declared {
                name: field("name")?.as_str().unwrap_or_default().to_owned(),
                better: Better::from_name(field("better")?.as_str().unwrap_or_default())
                    .ok_or(format!("{SPEC}: bad `better`"))?,
                bound: field("bound")?
                    .as_f64()
                    .ok_or(format!("{SPEC}: bad bound"))?,
            })
        })
        .collect()
}

/// `compare <parent> <change>`: one row per workload with, for every
/// end-to-end metric of `BENCHMARK.json`, both medians and quartiles and
/// the verdict. Run `i` of each file is the `i`-th pair. Exits 1 when any
/// metric is worse.
pub fn compare(args: &[String]) -> Result<i32, String> {
    let [parent, change] = args else {
        return Err("usage: compare <parent.jsonl> <change.jsonl>".into());
    };
    let metrics = declared()?;
    let (p, c) = (load(parent)?, load(change)?);
    let mut worse = false;
    for (w, pruns) in &p {
        let Some(cruns) = c.get(w) else { continue };
        let pairs = pruns.len().min(cruns.len());
        println!(
            "{w} ({pairs} pairs{})",
            if pairs < MIN_PAIRS {
                ", too few to claim a gain"
            } else {
                ""
            }
        );
        for m in &metrics {
            let (pv, cv) = (values(pruns, &m.name), values(cruns, &m.name));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let v = verdict(&pv, &cv, m.better, m.bound);
            worse |= v == Verdict::Worse;
            let side = |x: &[f64]| {
                let [q1, m, q3] = quartiles(x);
                format!("{m:.4} [{q1:.4}, {q3:.4}] mad {:.4}", mad(x))
            };
            println!(
                "  {:<14} parent {}  change {}  bound {:.0}%  {v}",
                m.name,
                side(&pv),
                side(&cv),
                m.bound * 100.0
            );
        }
        // Simulated results must not move in a change that claims speed.
        let exact: BTreeSet<&String> = pruns
            .iter()
            .chain(cruns)
            .flat_map(|r| r.keys())
            .filter(|k| k.starts_with("model.") || k.starts_with("accuracy."))
            .collect();
        let moved: Vec<&String> = exact
            .into_iter()
            .filter(|k| {
                let mut v = values(pruns, k);
                v.extend(values(cruns, k));
                v.iter().any(|x| x.to_bits() != v[0].to_bits())
            })
            .collect();
        if !moved.is_empty() {
            println!("  simulated results differ across runs: {moved:?}");
        }
    }
    Ok(i32::from(worse))
}
