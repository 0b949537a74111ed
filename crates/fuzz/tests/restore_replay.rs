//! Wires a fuzz repro through the snapshot layer: a generated program is
//! run partway on the exact bare-core environment the lockstep driver
//! builds, checkpointed mid-flight, and the restored twin must finish the
//! run in perfect lockstep with the original. This is the repro workflow
//! for divergences the fuzzer finds — checkpoint just before the
//! interesting retire, then replay the window at will.

use hulkv_fuzz::gen::{self, GenItem, Isa, Program};
use hulkv_fuzz::lockstep::repro_env;
use hulkv_rv::{Core, FlatBus};
use hulkv_sim::snap::{get_arr, get_u64};
use hulkv_sim::{Json, Snapshot, SplitMix64};

fn checkpoint_and_replay(isa: Isa, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let prog = gen::generate(&mut rng, isa);

    // Run the original partway into the program on the fast side.
    let (mut core, mut bus) = repro_env(&prog, true);
    let mut pre_steps = 0;
    for _ in 0..200 {
        if core.step(&mut bus).unwrap().halted {
            break;
        }
        pre_steps += 1;
    }

    // Checkpoint through the serialized form, not a clone: the bytes are
    // what a repro file would carry.
    let mut snap = Snapshot::new();
    let cj = core.snapshot_into(&mut snap);
    let bj = bus.snapshot_into(&mut snap);
    snap.set_section("core", cj);
    snap.set_section("bus", bj);
    let bytes = snap.to_bytes();

    let parsed = Snapshot::from_bytes(&bytes).unwrap();
    let (mut core2, mut bus2) = repro_env(&prog, true);
    core2
        .restore_from(&parsed, parsed.section("core").unwrap())
        .unwrap();
    bus2.restore_from(&parsed, parsed.section("bus").unwrap())
        .unwrap();
    assert_eq!(
        core2.state_digest(),
        core.state_digest(),
        "restore diverged immediately (isa {isa:?}, {pre_steps} steps in)"
    );
    assert_eq!(bus2.content_digest(), bus.content_digest());

    // Replay the rest of the program in lockstep.
    for i in 0..2_000 {
        let halted = core.is_halted();
        assert_eq!(halted, core2.is_halted(), "halt divergence at step {i}");
        if halted {
            break;
        }
        let a = core.step(&mut bus).unwrap();
        let b = core2.step(&mut bus2).unwrap();
        assert_eq!(a.halted, b.halted, "halt divergence at step {i}");
        assert_eq!(
            core2.state_digest(),
            core.state_digest(),
            "state divergence at step {i} (isa {isa:?})"
        );
    }
    assert_eq!(bus2.content_digest(), bus.content_digest());
}

#[test]
fn rv32_pulp_repro_restores_and_replays() {
    checkpoint_and_replay(Isa::Rv32Pulp, 0x2026_0807);
}

#[test]
fn rv64_sv39_repro_restores_and_replays() {
    checkpoint_and_replay(Isa::Rv64Sv39, 0x2026_0809);
}

/// Serializes `core`+`bus` and returns the wire bytes if `pick` accepts
/// the core section.
fn checkpoint(core: &Core, bus: &FlatBus, pick: impl Fn(&Json) -> bool) -> Option<Vec<u8>> {
    let mut snap = Snapshot::new();
    let cj = core.snapshot_into(&mut snap);
    if !pick(&cj) {
        return None;
    }
    let bj = bus.snapshot_into(&mut snap);
    snap.set_section("core", cj);
    snap.set_section("bus", bj);
    Some(snap.to_bytes())
}

/// The checkpoint interrupted a superblock: the resume continuation is
/// armed in the core section.
fn mid_block(core: &Json) -> bool {
    core.get("sb_resume")
        .is_some_and(|v| !matches!(v, Json::Null))
}

/// The checkpoint landed inside a hardware loop: one is still armed and
/// a back-edge has already been taken.
fn mid_hw_loop(core: &Json) -> bool {
    let armed = get_arr(core, "hwloops")
        .unwrap()
        .iter()
        .any(|l| get_u64(l, "count").unwrap() > 0);
    armed && get_u64(core.get("counters").unwrap(), "hwloop_iters").unwrap() > 0
}

/// Drives `core` to completion in `chunk`-cycle `run_until_cycle` slices
/// (the superblock dispatch path when superblocks are on, the plain
/// interpreter otherwise).
fn finish_chunked(core: &mut Core, bus: &mut FlatBus, chunk: u64) {
    for _ in 0..1_000_000 {
        if core
            .run_until_cycle(bus, core.cycles().get() + chunk)
            .unwrap()
        {
            return;
        }
    }
    panic!("program did not halt");
}

/// Cross-mode checkpoint/replay: a run recorded in one superblock mode is
/// checkpointed mid-flight and restored into twins running in *both*
/// modes; every twin must finish with cycles, architectural digest,
/// memory image, and non-`sb_*` Stats identical to an uninterrupted
/// plain-interpreter reference. `record_sb` picks the recording mode;
/// the checkpoint is the first chunk boundary past a warm-up whose core
/// section `pick` accepts.
fn cross_mode_checkpoint(
    prog: &Program,
    chunk: u64,
    record_sb: bool,
    pick: impl Fn(&Json) -> bool,
) {
    // Uninterrupted plain-interpreter reference.
    let (mut refc, mut rbus) = repro_env(prog, false);
    for _ in 0..1_000_000 {
        if refc.step(&mut rbus).unwrap().halted {
            break;
        }
    }
    assert!(refc.is_halted(), "reference did not halt");

    // Recording side: chunked `run_until_cycle`, checkpoint at the first
    // accepted chunk boundary past a warm-up (so blocks and hw-loop state
    // are live).
    let (mut core, mut bus) = repro_env(prog, true);
    core.set_superblocks(record_sb);
    let mut picked = None;
    for n in 0.. {
        if core
            .run_until_cycle(&mut bus, core.cycles().get() + chunk)
            .unwrap()
        {
            break;
        }
        if n < 3 {
            continue;
        }
        picked = checkpoint(&core, &bus, &pick);
        if picked.is_some() {
            break;
        }
    }
    let bytes = picked.unwrap_or_else(|| {
        panic!("no accepted checkpoint boundary found (record_sb {record_sb}, chunk {chunk})")
    });
    finish_chunked(&mut core, &mut bus, chunk);
    assert_eq!(core.state_digest(), refc.state_digest());
    assert_eq!(core.cycles(), refc.cycles());

    let parsed = Snapshot::from_bytes(&bytes).unwrap();
    for replay_sb in [true, false] {
        let (mut twin, mut tbus) = repro_env(prog, true);
        twin.restore_from(&parsed, parsed.section("core").unwrap())
            .unwrap();
        tbus.restore_from(&parsed, parsed.section("bus").unwrap())
            .unwrap();
        // The snapshot carries the recording's superblock mode; the
        // replay mode is an explicit override on top.
        twin.set_superblocks(replay_sb);
        finish_chunked(&mut twin, &mut tbus, chunk);
        assert_eq!(
            twin.state_digest(),
            refc.state_digest(),
            "digest diverged (record_sb {record_sb}, replay_sb {replay_sb})"
        );
        assert_eq!(
            twin.cycles(),
            refc.cycles(),
            "cycles diverged (record_sb {record_sb}, replay_sb {replay_sb})"
        );
        assert_eq!(tbus.content_digest(), rbus.content_digest());
        assert_eq!(twin.instret(), refc.instret());
        let (ts, rs) = (twin.stats(), refc.stats());
        for (key, val) in ts.iter().filter(|(k, _)| !k.starts_with("sb_")) {
            // Decode-path counters depend on the decode-cache setting, not
            // the superblock mode; the reference runs with the cache off.
            if key.starts_with("decode_") || key.starts_with("itlb_") {
                continue;
            }
            assert_eq!(
                val,
                rs.get(key),
                "stat {key} diverged (record_sb {record_sb}, replay_sb {replay_sb})"
            );
        }
    }
}

/// A deterministic Xpulp program whose execution is dominated by
/// hardware loops: two short ones around one whose body is longer than
/// the superblock length cap.
fn hwloop_heavy_prog() -> Program {
    Program {
        isa: Isa::Rv32Pulp,
        entry: 0x1_0000,
        initial_satp: 0,
        hostile_flags: [0; 16],
        interrupts: Vec::new(),
        data_seed: 0x9e37_79b9,
        reg_seed: 0x7f4a_7c15,
        items: vec![
            GenItem::HwLoop { body: 3, count: 6 },
            GenItem::SbLongLoop {
                body: 1,
                count: 2,
                len: 10,
            },
            GenItem::HwLoop { body: 2, count: 5 },
            GenItem::SbMidBranch { iters: 2, imm: 5 },
        ],
    }
}

/// Mid-block resume on the one core type that dispatches blocks.
#[test]
fn superblock_recording_replays_in_both_modes() {
    let mut rng = SplitMix64::new(0x2026_0810);
    let prog = gen::generate(&mut rng, Isa::Rv64Sv39);
    cross_mode_checkpoint(&prog, 7, true, mid_block);
}

/// Xpulp cores never dispatch blocks, so the superblock switch changes
/// nothing on either side of the checkpoint.
#[test]
fn xpulp_recording_replays() {
    let mut rng = SplitMix64::new(0x2026_0811);
    let prog = gen::generate(&mut rng, Isa::Rv32Pulp);
    cross_mode_checkpoint(&prog, 7, false, |_| true);
}

#[test]
fn checkpoint_mid_hw_loop_replays() {
    cross_mode_checkpoint(&hwloop_heavy_prog(), 3, true, mid_hw_loop);
}
