//! What the benchmark reads about the machine it runs on: clock rate,
//! process CPU time, steal time, the CPUs it may use, and the provenance
//! of a result.

use hulkv_sim::Json;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A CPU set as `sched_getaffinity`/`sched_setaffinity` take it
/// (`cpu_set_t`: 1024 bits).
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The CPUs the calling thread may run on (empty if that is unknown).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Lets the calling thread run only on `cpus`; false if the host refused.
pub fn set_cpus(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a live buffer of exactly the size passed, only read
    // by the call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Runs `f` with the calling thread allowed only on `cpu`, if one is
/// given, then on every CPU of `all` again: threads and processes started
/// later inherit the set.
pub fn on_cpu<T>(cpu: Option<usize>, all: &[usize], f: impl FnOnce() -> T) -> T {
    if let Some(c) = cpu {
        set_cpus(&[c]);
    }
    let r = f();
    if cpu.is_some() {
        set_cpus(all);
    }
    r
}

/// Iterations of [`clock_ghz`]'s loop: about 2 ms at 3 GHz.
const CLOCK_PROBE_ITERS: u32 = 1 << 20;
/// Dependent single-cycle operations per iteration of that loop: three
/// xorshift steps of a shift and an xor each (x86-64; an ISA with a fused
/// shift-and-xor needs half as many cycles, which scales every reading
/// alike).
const CLOCK_PROBE_OPS: f64 = 6.0;

/// The clock rate the calling thread's CPU runs at right now, in GHz,
/// from the time a chain of dependent register-only operations takes. The
/// loop loads and stores nothing, so nothing the simulator leaves in the
/// caches, TLBs, predictors' tables or the heap can change its time.
#[inline(never)]
pub fn clock_ghz() -> f64 {
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    let t = Instant::now();
    for _ in 0..CLOCK_PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(x);
    f64::from(CLOCK_PROBE_ITERS) * CLOCK_PROBE_OPS / ns
}

/// CPU time consumed by this process, all threads, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is one
    // Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Machine-wide `(steal, total)` CPU time from `/proc/stat`, in ticks.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where the guest times are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of machine CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings.
pub fn steal_frac(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git(args: &[&str]) -> Option<String> {
    // Never let git walk up out of the working directory into some
    // enclosing repository.
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where and how a result was measured: commit and dirty flag, CPU count
/// and model, compiler and build profile.
pub fn provenance() -> Json {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("git_rev", rev.map_or(Json::Null, Json::from)),
        ("git_dirty", dirty.map_or(Json::Null, Json::from)),
        ("nproc", Json::from(nproc() as u64)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(env!("HULKV_PERF_RUSTC"))),
        ("profile", Json::from(env!("HULKV_PERF_PROFILE"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_set_round_trips() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        assert!(set_cpus(&cpus[..1]));
        assert_eq!(allowed_cpus(), cpus[..1]);
        assert!(set_cpus(&cpus));
        assert_eq!(allowed_cpus(), cpus);
    }
}
