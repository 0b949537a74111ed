//! Differential co-simulation fuzzer for the HULK-V ISS fast paths.
//!
//! The simulator's hot loop carries two architectural accelerators — the
//! decoded-instruction cache and the fetch µTLB — that are required to be
//! *invisible*: same architectural state, same trap behavior, same cycle
//! counts as the plain reference interpreter. This crate checks that
//! claim the adversarial way:
//!
//! 1. [`gen`] draws random-but-deterministic programs over four ISA
//!    sides (RV64 IMAFDC+Zicsr bare core with Sv39, RV32 IMF+Xpulp bare
//!    core, the CVA6 host with its L1 caches, and the multi-core
//!    cluster), deliberately weighted toward the fast paths' weak spots:
//!    self-modifying code, `fence.i`, `satp` switches, RVC parcels
//!    straddling page boundaries, hostile page tables with missing A/D
//!    bits, and interrupts at random retire counts.
//! 2. [`lockstep`] runs each program twice — fast paths on vs off — and
//!    compares PC/cycles/instret every retire plus full state and memory
//!    digests periodically.
//! 3. [`shrink`] delta-debugs any diverging program down to a minimal
//!    repro, which the `fuzz_iss` binary writes to `fuzz/repros/`.
//! 4. [`race_oracle`] turns the TCDM-hammer item into a ground-truth
//!    oracle for the race detector: known-racy and known-race-free
//!    hammer teams must be classified correctly by both the static
//!    cross-hart pass and the quantum-boundary race sanitizer.
//!
//! Everything is seeded: a printed seed reproduces the whole campaign.

pub mod gen;
pub mod lockstep;
pub mod race_oracle;
pub mod shrink;

pub use gen::{generate, GenItem, Isa, Program};
pub use lockstep::{
    run_chunked_lockstep, run_cluster_lockstep, run_differential, run_host_chunked_lockstep,
    run_host_lockstep, run_lockstep, run_team_order_lockstep, Divergence, LockstepOptions,
    LockstepStats,
};
pub use race_oracle::{run_race_oracle, RaceOracleSummary};
pub use shrink::shrink;

#[cfg(test)]
mod tests {
    use super::*;
    use hulkv_sim::SplitMix64;

    fn sweep(isa: Isa, seed: u64, n: u64) -> (u64, u64) {
        let opts = LockstepOptions::default();
        let mut total_retired = 0;
        for k in 0..n {
            let mut rng = SplitMix64::new(seed).fork(k);
            let prog = generate(&mut rng, isa);
            match run_differential(&prog, &opts) {
                Ok(stats) => total_retired += stats.retired,
                Err(div) => panic!(
                    "seed {seed} program {k} ({isa:?}) diverged at step {}: {}\nitems: {:#?}",
                    div.step, div.what, prog.items
                ),
            }
        }
        (n, total_retired)
    }

    #[test]
    fn rv64_sv39_sweep_has_no_divergence() {
        let (_, retired) = sweep(Isa::Rv64Sv39, 0xF00D_0001, 40);
        assert!(retired > 0, "sweep retired nothing");
    }

    #[test]
    fn rv32_pulp_sweep_has_no_divergence() {
        let (_, retired) = sweep(Isa::Rv32Pulp, 0xF00D_0002, 40);
        assert!(retired > 0, "sweep retired nothing");
    }

    #[test]
    fn host_sweep_has_no_divergence() {
        let (_, retired) = sweep(Isa::Rv64Host, 0xF00D_0003, 10);
        assert!(retired > 0, "sweep retired nothing");
    }

    #[test]
    fn cluster_sweep_has_no_divergence() {
        let (_, retired) = sweep(Isa::Rv32Cluster, 0xF00D_0004, 10);
        assert!(retired > 0, "sweep retired nothing");
    }

    #[test]
    fn cluster_order_lockstep_agrees_at_every_quantum() {
        // Hart order vs a seeded step-order permutation on full 8-core
        // teams: the digest streams must agree at every quantum boundary
        // even on programs that hammer racing TCDM traffic.
        let mut checked = 0u64;
        for k in 0..8 {
            let mut rng = SplitMix64::new(0xF00D_0005).fork(k);
            let prog = generate(&mut rng, Isa::Rv32Cluster);
            match run_team_order_lockstep(&prog, 8) {
                Ok(stats) => checked += stats.steps,
                Err(div) => panic!(
                    "program {k} diverged between step orders at quantum {}: {}\nitems: {:#?}",
                    div.step, div.what, prog.items
                ),
            }
        }
        assert!(checked > 0, "no quantum boundary was ever compared");
    }

    #[test]
    fn static_analyzer_terminates_on_generated_programs() {
        // The same hostile inputs the differential fuzzer runs also feed
        // the static analyzer: whatever the generator emits (misaligned
        // accesses, wild jumps, hw-loop abuse, trap-happy CSR traffic),
        // analysis must terminate without panicking — the iteration
        // budget is the only backstop this asserts.
        use hulkv_analyze::{analyze, AnalyzeConfig, GuestProgram, Side};
        for isa in [
            Isa::Rv64Sv39,
            Isa::Rv32Pulp,
            Isa::Rv64Host,
            Isa::Rv32Cluster,
        ] {
            for k in 0..40 {
                let mut rng = SplitMix64::new(0x0057_A71C).fork(k);
                let prog = generate(&mut rng, isa);
                let side = match isa {
                    Isa::Rv32Pulp | Isa::Rv32Cluster => Side::Cluster,
                    Isa::Rv64Sv39 | Isa::Rv64Host => Side::Host,
                };
                let gp = GuestProgram::from_words("fuzzed", &prog.words(), prog.entry, side);
                let report = analyze(&gp, &AnalyzeConfig::default());
                // Findings must carry coherent PCs (inside or at least
                // derived from the image the analyzer was handed).
                for f in &report.findings {
                    assert!(f.pc >= gp.base && f.pc < gp.end().max(gp.base + 4));
                }
            }
        }
    }

    #[test]
    fn static_analyzer_terminates_on_garbage_bytes() {
        use hulkv_analyze::{analyze, AnalyzeConfig, GuestProgram, Side};
        let mut rng = SplitMix64::new(0xDEAD_BEA7);
        for trial in 0..32 {
            let words: Vec<u32> = (0..256).map(|_| rng.next_u32()).collect();
            let side = if trial % 2 == 0 {
                Side::Host
            } else {
                Side::Cluster
            };
            let gp = GuestProgram::from_words("garbage", &words, 0x1000, side);
            let _ = analyze(&gp, &AnalyzeConfig::default());
        }
    }

    #[test]
    fn injected_divergence_is_caught_and_shrinks() {
        let opts = LockstepOptions {
            inject_divergence: true,
            ..LockstepOptions::default()
        };
        let mut rng = SplitMix64::new(0xBAD_0001);
        let prog = generate(&mut rng, Isa::Rv64Sv39);
        let div = run_differential(&prog, &opts).expect_err("injection must diverge");
        assert!(div.step >= 3, "diverged before the injection point");
        let (min, min_div) =
            shrink(&prog, |p| run_differential(p, &opts).err()).expect("shrinks to a repro");
        assert!(!min.items.is_empty());
        assert!(min.items.len() <= prog.items.len());
        assert!(!min_div.what.is_empty());
    }
}
