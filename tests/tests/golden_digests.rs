//! Golden bit-identity check of the CVA6 memory path and the PMCA team
//! path.
//!
//! Every run below starts from a fresh default SoC and pins what a guest,
//! a debugger or a metrics consumer can observe afterwards: cycles,
//! retired instructions, the combined state digest, and FNV-1a hashes of
//! the metrics snapshot JSON and of the full snapshot bytes; one traced
//! run also pins the hash of its exported trace events. A change to
//! cache layout, hit paths or counter registration that moves any of them
//! — even a counter key registered at zero — fails here. Regenerate the
//! table only for a change that is meant to alter simulated behaviour.

use hulkv::{map, HulkV, SocConfig};
use hulkv_kernels::dnn_exec::run_tiled_conv;
use hulkv_kernels::suite::{Kernel, KernelParams};
use hulkv_kernels::synthetic::sweep_program;
use hulkv_rv::Reg;
use hulkv_sim::{category, Fnv64, Tracer};

/// What one run leaves behind that must never move by accident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    instret: u64,
    state_digest: u64,
    metrics_hash: u64,
    snapshot_hash: u64,
}

fn observe(soc: &HulkV, cycles: u64, instret: u64) -> Golden {
    let metrics = soc.metrics_snapshot().to_json().to_string();
    Golden {
        cycles,
        instret,
        state_digest: soc.state_digest(),
        metrics_hash: Fnv64::new().write(metrics.as_bytes()).finish(),
        snapshot_hash: Fnv64::new().write(&soc.snapshot().to_bytes()).finish(),
    }
}

fn fresh() -> HulkV {
    HulkV::new(SocConfig::default()).expect("default SoC builds")
}

fn host_kernel(k: Kernel) -> Golden {
    let mut soc = fresh();
    let run = k.run_on_host(&mut soc, &KernelParams::small()).unwrap();
    assert!(run.verified, "{} host result", k.name());
    observe(&soc, run.cycles.get(), soc.host().core().instret())
}

/// The Figure-7 sweep past the LLC: L1D misses go through the bridge,
/// the LLC and HyperRAM.
fn host_sweep() -> Golden {
    let mut soc = fresh();
    let cycles = soc
        .run_host_program(
            &sweep_program(48, 200),
            |core| {
                core.set_reg(Reg::A0, map::DRAM_BASE + 0x0300_0000);
                core.set_reg(Reg::A1, map::DRAM_BASE + 0x0400_0000);
            },
            10_000_000_000,
        )
        .unwrap();
    observe(&soc, cycles.get(), soc.host().core().instret())
}

/// A host kernel with every trace category on; returns the run's golden
/// row and the hash of its JSONL trace export.
fn traced_host_kernel() -> (Golden, u64) {
    let mut soc = fresh();
    let tracer = Tracer::shared(1 << 18);
    tracer.borrow_mut().enable(category::ALL);
    soc.attach_tracer(tracer.clone());
    let run = Kernel::MaxPoolI8
        .run_on_host(&mut soc, &KernelParams::small())
        .unwrap();
    assert!(run.verified, "traced host result");
    let events = tracer.borrow().jsonl();
    (
        observe(&soc, run.cycles.get(), soc.host().core().instret()),
        Fnv64::new().write(events.as_bytes()).finish(),
    )
}

fn cluster_kernel(k: Kernel, cfg: SocConfig) -> Golden {
    let mut soc = HulkV::new(cfg).expect("SoC builds");
    let run = k
        .run_on_cluster(&mut soc, &KernelParams::small(), 8)
        .unwrap();
    assert!(run.verified, "{} cluster result", k.name());
    let instret = run.offload.team.per_core_instret.iter().sum();
    observe(&soc, run.offload.total_soc_cycles.get(), instret)
}

/// The 16-tile DMA-fed conv layer on 8 cores: one offload per tile.
fn cluster_tiled_conv() -> Golden {
    let mut soc = fresh();
    let run = run_tiled_conv(&mut soc, 258, 130, 16, 8).unwrap();
    assert!(run.verified, "tiled conv result");
    observe(
        &soc,
        run.serial_cycles.get(),
        soc.cluster().stats().get("instret"),
    )
}

/// `(run, cycles, instret, state_digest, metrics_hash, snapshot_hash)`,
/// one row per line as `check` prints them.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, u64, u64, u64); 21] = [
    ("matmul-int8", 2950101, 2150659, 0x8ed8e7ffdc39652b, 0x12e45fc58cfc863f, 0xc297c600354dda12),
    ("matmul-int32", 2960597, 2158851, 0x501d58d49c290a85, 0x5be6de440eaca789, 0x464cb16ab023b13f),
    ("conv2d-int8", 54530, 41102, 0xb921a8ceb0ac532a, 0xee6f039c59b382a7, 0x969f9fceeca19af0),
    ("fir-int16", 190683, 142339, 0x062b0e93dc30efdc, 0x4cb325189e8fa31c, 0x6d1c85e2abc281f7),
    ("relu-int8", 86814, 69618, 0x9e6ebbd41e122b4d, 0x3bcf29d85d803413, 0x2472fe0b7cc6ba6e),
    ("maxpool-int8", 29074, 20714, 0x38613ef6eb07b271, 0x003edd609e19db8b, 0x43af7e28e3c2db68),
    ("matmul-fp16", 3222741, 1896707, 0xfb8f670c12ee15ef, 0x00ba5671eeb30cfd, 0x09c9f23963a4afab),
    ("dotp-fp32", 26129, 16391, 0x4f144f8793351f12, 0x7f5ffe9a519f8861, 0xe1ef0e247a2093e9),
    ("axpy-fp32", 28176, 18438, 0xadb191f3bf51467c, 0xfb9c23604d89a565, 0xa65fafbb452fbdf5),
    ("sweep-48x200", 2077871, 71407, 0x2c2c635fdd75c86f, 0x03b46c5372d4365e, 0xe50928f716272512),
    ("traced-maxpool-int8", 29074, 20714, 0x38613ef6eb07b271, 0x97e596c8df713b12, 0xf1391e73c008314a),
    ("cluster-matmul-int8", 28851, 171416, 0x22b0923e29b358c2, 0xb4fd03a555e44b0e, 0x5625b181c6ca58e4),
    ("cluster-matmul-int32", 138425, 848344, 0x1fee3f24e23d3f23, 0x44618ee6a57a50c7, 0xd4bb21c75ff93e13),
    ("cluster-conv2d-int8", 6954, 31984, 0xf78a8e210c6e2709, 0x8bc6e9cdae466c74, 0xf06d3075db538757),
    ("cluster-fir-int16", 7700, 37912, 0xbfd3ef9eb1499e2e, 0x1ecd0015cf24fee5, 0x30ef78bc66622be5),
    ("cluster-relu-int8", 4355, 16432, 0x2284009ac64e6248, 0xc1803ecf07d6ab92, 0xe64db62eac1d2aa2),
    ("cluster-maxpool-int8", 2787, 6024, 0xa0c21494fde0c1e0, 0x6b16e424b7f9ea49, 0x0febdb1245e99b16),
    ("cluster-matmul-fp16", 75065, 455128, 0xc9854b8ed7edb84d, 0x4047f180b03e8d6d, 0x5701095e05612141),
    ("cluster-dotp-fp32", 3273, 10352, 0x80b246fe1fc39ea4, 0x23c77e8d7165f1da, 0x1af502942535343b),
    ("cluster-axpy-fp32", 3612, 12376, 0x8534183bf8e77412, 0x33d73220e013a6db, 0xe4d01b56c5f4fec2),
    ("cluster-tiled-conv-258x130", 390578, 1018624, 0x98ece640cf1a4d0a, 0x3af966041399e2c8, 0x9b7827d1cd5c7e61),
];

/// FNV-1a of the traced run's JSONL trace export.
const TRACED_EVENTS_HASH: u64 = 0x55ff_4be6_480a_2f93;

fn expected(run: &str) -> Golden {
    let &(_, cycles, instret, state_digest, metrics_hash, snapshot_hash) = GOLDEN
        .iter()
        .find(|g| g.0 == run)
        .unwrap_or_else(|| panic!("no golden entry for {run}"));
    Golden {
        cycles,
        instret,
        state_digest,
        metrics_hash,
        snapshot_hash,
    }
}

/// Prints every observed row in table syntax (visible with
/// `--nocapture`), then fails naming each run that moved.
fn check(runs: &[(&str, Golden)]) {
    for (run, got) in runs {
        println!(
            "(\"{run}\", {}, {}, {:#018x}, {:#018x}, {:#018x}),",
            got.cycles, got.instret, got.state_digest, got.metrics_hash, got.snapshot_hash
        );
    }
    let moved: Vec<_> = runs
        .iter()
        .filter(|(run, got)| *got != expected(run))
        .map(|(run, _)| *run)
        .collect();
    assert!(moved.is_empty(), "moved from golden: {moved:?}");
}

#[test]
fn host_kernels_match_golden() {
    let runs: Vec<_> = Kernel::ALL
        .iter()
        .map(|&k| (k.name(), host_kernel(k)))
        .collect();
    check(&runs);
}

#[test]
fn host_sweep_matches_golden() {
    check(&[("sweep-48x200", host_sweep())]);
}

#[test]
fn traced_host_kernel_matches_golden() {
    let (got, events) = traced_host_kernel();
    println!("TRACED_EVENTS_HASH = {events:#018x}");
    check(&[("traced-maxpool-int8", got)]);
    assert_eq!(events, TRACED_EVENTS_HASH, "trace events moved");
}

/// Every cluster kernel and the tiled conv layer: the whole
/// `pmca_offload` pass.
#[test]
fn cluster_offload_matches_golden() {
    let names: Vec<_> = Kernel::ALL
        .iter()
        .map(|k| format!("cluster-{}", k.name()))
        .collect();
    let mut runs: Vec<_> = Kernel::ALL
        .iter()
        .zip(&names)
        .map(|(&k, name)| (name.as_str(), cluster_kernel(k, SocConfig::default())))
        .collect();
    runs.push(("cluster-tiled-conv-258x130", cluster_tiled_conv()));
    check(&runs);
}

/// The TCDM race sanitizer's neutrality gate on `cluster-matmul-int8`,
/// the int8 matmul offload: with the sanitizer on, the run reproduces the
/// default one. Snapshots embed the config, so `snapshot_hash` is left
/// out.
#[test]
fn cluster_offload_is_sanitizer_neutral() {
    let want = expected("cluster-matmul-int8");
    let mut cfg = SocConfig::default();
    cfg.cluster.race_sanitizer = true;
    let got = cluster_kernel(Kernel::MatMulI8, cfg);
    assert_eq!(
        Golden {
            snapshot_hash: want.snapshot_hash,
            ..got
        },
        want,
        "cluster-matmul-int8 moved with race_sanitizer = true"
    );
}
