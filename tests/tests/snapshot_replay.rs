//! Integration tests of the snapshot/restore layer: per-peripheral digest
//! coverage, twin-SoC determinism, byte-identical round-trips, and
//! checkpoints taken at awkward microarchitectural moments (interrupt
//! pending, mid hardware loop).

use hulkv::{map, HulkV, IoPmp, Mailbox, Recorder, SocConfig};
use hulkv_host::{Clint, Plic};
use hulkv_mem::{shared, Sram};
use hulkv_rv::csr::addr;
use hulkv_rv::{Asm, Core, FlatBus, Reg, Xlen};
use hulkv_sim::snap::hex;
use hulkv_sim::{Cycles, Json, Snapshot};
use std::collections::BTreeMap;

/// Every interrupt-fabric block must contribute to the digest: mutating
/// any one of CLINT, PLIC, mailbox or IOPMP state flips it.
#[test]
fn peripheral_digests_cover_their_state() {
    let mut clint = Clint::new();
    let d = clint.state_digest();
    clint.advance(1);
    assert_ne!(clint.state_digest(), d, "CLINT mtime not in digest");

    let mut plic = Plic::new();
    let d = plic.state_digest();
    plic.raise(5);
    assert_ne!(plic.state_digest(), d, "PLIC pending not in digest");

    let mut mbox = Mailbox::new(4);
    let d = mbox.state_digest();
    mbox.host_send(0xdead_beef).unwrap();
    assert_ne!(mbox.state_digest(), d, "mailbox FIFO not in digest");

    let mut iopmp = IoPmp::new(shared(Sram::new("s", 64, Cycles::new(1))));
    let d = iopmp.state_digest();
    iopmp.allow(0x1000, 0x1000);
    assert_ne!(iopmp.state_digest(), d, "IOPMP windows not in digest");
}

fn counting_program() -> Vec<u32> {
    let mut p = Asm::new(Xlen::Rv64);
    p.li(Reg::A0, 0);
    p.li(Reg::T0, 1000);
    let top = p.label();
    p.bind(top);
    p.addi(Reg::A0, Reg::A0, 1);
    p.bne(Reg::A0, Reg::T0, top);
    p.ebreak();
    p.assemble().unwrap()
}

/// Two SoCs driven through an identical stimulus sequence — host program,
/// peripheral time, external interrupts, DRAM writes — land on the same
/// combined digest, and any single-sided perturbation breaks the
/// agreement (so the digest actually covers the whole SoC).
#[test]
fn twin_socs_agree_on_combined_digest() {
    let drive = |soc: &mut HulkV| {
        soc.write_mem(map::DRAM_BASE + 0x1000, b"twin stimulus")
            .unwrap();
        soc.advance_time(123);
        soc.raise_peripheral_irq(7);
        soc.run_host_program(&counting_program(), |_| {}, 1_000_000)
            .unwrap();
    };
    let mut a = HulkV::new(SocConfig::default()).unwrap();
    let mut b = HulkV::new(SocConfig::default()).unwrap();
    drive(&mut a);
    drive(&mut b);
    assert_eq!(a.state_digest(), b.state_digest());

    // CLINT time is digest-visible.
    b.advance_time(1);
    assert_ne!(a.state_digest(), b.state_digest());
    a.advance_time(1);
    assert_eq!(a.state_digest(), b.state_digest());

    // PLIC pending state is digest-visible.
    b.raise_peripheral_irq(9);
    assert_ne!(a.state_digest(), b.state_digest());
    a.raise_peripheral_irq(9);
    assert_eq!(a.state_digest(), b.state_digest());

    // DRAM contents are digest-visible.
    b.write_mem(map::DRAM_BASE + 0x2000, &[1]).unwrap();
    assert_ne!(a.state_digest(), b.state_digest());
}

/// snapshot -> bytes -> parse -> restore -> snapshot must reproduce the
/// serialized form byte for byte, through both the JSON sections and the
/// binary page/blob arena.
#[test]
fn snapshot_round_trip_is_byte_identical() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    soc.write_mem(map::DRAM_BASE + 0x4000, &[0xAB; 256])
        .unwrap();
    soc.advance_time(77);
    soc.run_host_program(&counting_program(), |_| {}, 1_000_000)
        .unwrap();

    let snap = soc.snapshot();
    let bytes = snap.to_bytes();
    let parsed = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(parsed.to_bytes(), bytes, "serializer is not deterministic");

    let restored = HulkV::from_snapshot(&parsed).unwrap();
    assert_eq!(restored.state_digest(), soc.state_digest());
    assert_eq!(
        restored.snapshot().to_bytes(),
        bytes,
        "restore -> snapshot round trip altered state"
    );
}

/// The object at `key` of the JSON object `j`.
fn obj_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut BTreeMap<String, Json> {
    let Json::Obj(top) = j else {
        panic!("not an object")
    };
    let Some(Json::Obj(inner)) = top.get_mut(key) else {
        panic!("no {key:?} object")
    };
    inner
}

/// `config`, a `SocConfig::to_json` document, as written while
/// `HostConfig` (`section = "host"`) or `ClusterConfig` (`"cluster"`)
/// still had a `superblocks` field, with that key set to `value`.
fn with_retired_superblocks(mut config: Json, section: &str, value: Json) -> Json {
    let inner = obj_mut(&mut config, section);
    assert!(inner.insert("superblocks".into(), value).is_none());
    config
}

/// The retired key still loads: type-checked as a bool, then ignored.
fn retired_superblocks_key_is_checked_then_ignored(section: &str) {
    let cfg = SocConfig::default();
    for b in [true, false] {
        let old = with_retired_superblocks(cfg.to_json(), section, Json::Bool(b));
        assert_eq!(SocConfig::from_json(&old), Ok(cfg.clone()));
    }
    let bad = with_retired_superblocks(cfg.to_json(), section, Json::Str("0x1".into()));
    let err = SocConfig::from_json(&bad).expect_err("a non-bool must not load");
    assert!(err.to_string().contains("superblocks"), "{err}");
    assert_eq!(SocConfig::from_json(&cfg.to_json()), Ok(cfg));
}

#[test]
fn retired_cluster_superblocks_key_is_checked_then_ignored() {
    retired_superblocks_key_is_checked_then_ignored("cluster");
}

#[test]
fn retired_host_superblocks_key_is_checked_then_ignored() {
    retired_superblocks_key_is_checked_then_ignored("host");
    let json = SocConfig::default().to_json();
    assert_eq!(json.get("host").unwrap().get("superblocks"), None);
}

/// A snapshot written by the retired block engine: the current format
/// plus its core keys (`sb_count`, the `sb_blocks` blob, an armed
/// `sb_resume`), its three retired counters and `host.superblocks`.
/// Restores to the same machine and re-snapshots to the current bytes.
#[test]
fn snapshot_from_the_block_engine_restores() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    soc.run_host_program(&counting_program(), |_| {}, 1_000_000)
        .unwrap();
    let current = soc.snapshot();
    let mut snap = current.clone();
    let config = snap.section("config").unwrap().clone();
    snap.set_section(
        "config",
        with_retired_superblocks(config, "host", Json::Bool(true)),
    );
    let blocks = snap.push_blob(&[0xA5; 37]);
    let mut host = snap.section("host").unwrap().clone();
    let core = obj_mut(&mut host, "core");
    core.insert("sb_count".into(), hex(1));
    core.insert("sb_blocks".into(), blocks);
    core.insert("sb_resume".into(), hex(3));
    let Some(Json::Obj(counters)) = core.get_mut("counters") else {
        panic!("core section has counters")
    };
    for key in ["sb_hits", "sb_chain_follows", "sb_invalidations"] {
        assert!(counters.insert(key.into(), hex(7)).is_none());
    }
    snap.set_section("host", host);

    let parsed = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
    let restored = HulkV::from_snapshot(&parsed).unwrap();
    assert_eq!(restored.config(), &SocConfig::default());
    assert_eq!(restored.state_digest(), soc.state_digest());
    assert_eq!(restored.snapshot().to_bytes(), current.to_bytes());
}

/// A snapshot whose config carries the retired key restores to the same
/// machine, and re-snapshots without the key.
#[test]
fn snapshot_with_retired_cluster_superblocks_key_restores() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    soc.run_host_program(&counting_program(), |_| {}, 1_000_000)
        .unwrap();
    let current = soc.snapshot();
    for old in [true, false] {
        let mut snap = current.clone();
        let config = snap.section("config").unwrap().clone();
        snap.set_section(
            "config",
            with_retired_superblocks(config, "cluster", Json::Bool(old)),
        );

        let parsed = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        let restored = HulkV::from_snapshot(&parsed).unwrap();
        assert_eq!(restored.config(), &SocConfig::default());
        assert_eq!(restored.state_digest(), soc.state_digest());
        assert_eq!(restored.snapshot().to_bytes(), current.to_bytes());
    }
}

/// Checkpoint taken while a timer interrupt is in flight (mtimecmp
/// reached, handler not yet finished): the restored machine must deliver
/// the rest of the interrupt exactly like the original.
#[test]
fn checkpoint_mid_interrupt_replays_identically() {
    let build = || {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let mut handler = Asm::new(Xlen::Rv64);
        handler.li(Reg::A0, 0x77);
        handler.csrw(addr::MIE, Reg::Zero);
        handler.mret();
        let handler_addr = map::HOST_CODE + 0x200;
        soc.host_mut()
            .load_program(handler_addr, &handler.assemble().unwrap())
            .unwrap();

        let mut main = Asm::new(Xlen::Rv64);
        main.li(Reg::T0, handler_addr as i64);
        main.csrw(addr::MTVEC, Reg::T0);
        main.li(Reg::T0, (map::CLINT_BASE + 0x4000) as i64);
        main.li(Reg::T1, 50);
        main.sd(Reg::T1, Reg::T0, 0);
        main.li(Reg::T0, 1 << 7);
        main.csrw(addr::MIE, Reg::T0);
        main.li(Reg::T0, 1 << 3);
        main.csrw(addr::MSTATUS, Reg::T0);
        main.li(Reg::A0, 0);
        let spin = main.label();
        main.bind(spin);
        main.beqz(Reg::A0, spin);
        main.ebreak();
        soc.host_mut()
            .load_program(map::HOST_CODE, &main.assemble().unwrap())
            .unwrap();
        let core = soc.host_mut().core_mut();
        core.set_pc(map::HOST_CODE);
        core.resume();
        soc
    };

    let step = |soc: &mut HulkV| {
        soc.advance_time(1);
        soc.host_mut().step().unwrap().halted
    };

    // Run the original up to just past the timer deadline, so MTIP is
    // raised but the handler has not completed.
    let mut original = build();
    for _ in 0..52 {
        if step(&mut original) {
            panic!("halted before the interrupt window");
        }
    }
    assert_ne!(
        original.host().core().csrs().read(addr::MIP) & (1 << 7),
        0,
        "timer interrupt not pending at the checkpoint"
    );

    let snap = original.snapshot();
    let mut restored = HulkV::from_snapshot(&snap).unwrap();
    assert_eq!(restored.state_digest(), original.state_digest());

    // Drive both to completion with the same stimulus; they must stay in
    // lockstep through interrupt entry, the handler, and the mret.
    for _ in 0..100_000 {
        let ha = step(&mut original);
        let hb = step(&mut restored);
        assert_eq!(ha, hb, "halt divergence after mid-interrupt restore");
        if ha {
            break;
        }
    }
    assert!(original.host().core().is_halted());
    assert_eq!(original.host().core().reg(Reg::A0), 0x77);
    assert_eq!(restored.host().core().reg(Reg::A0), 0x77);
    assert_eq!(restored.state_digest(), original.state_digest());
}

/// Checkpoint taken in the middle of an XpulpV2 hardware loop on a bare
/// ri5cy core: loop start/end/count state must survive serialization.
#[test]
fn checkpoint_mid_hw_loop_replays_identically() {
    let mut p = Asm::new(Xlen::Rv32);
    p.li(Reg::A0, 0);
    p.lp_counti(0, 100);
    let (s, e) = (p.label(), p.label());
    p.lp_starti(0, s);
    p.lp_endi(0, e);
    p.bind(s);
    p.addi(Reg::A0, Reg::A0, 1);
    p.bind(e);
    p.ebreak();
    let words = p.assemble().unwrap();

    let build = |words: &[u32]| {
        let mut bus = FlatBus::new(0x1_0000);
        bus.load_words(0x1000, words);
        let mut core = Core::ri5cy(0);
        core.set_pc(0x1000);
        (core, bus)
    };

    // Run the original halfway into the loop body.
    let (mut core, mut bus) = build(&words);
    for _ in 0..40 {
        core.step(&mut bus).unwrap();
    }

    // Serialize the bare core + flat memory through the snapshot layer.
    let mut snap = Snapshot::new();
    let cj = core.snapshot_into(&mut snap);
    let bj = bus.snapshot_into(&mut snap);
    snap.set_section("core", cj);
    snap.set_section("bus", bj);
    let bytes = snap.to_bytes();

    let parsed = Snapshot::from_bytes(&bytes).unwrap();
    let (mut core2, mut bus2) = build(&words);
    core2
        .restore_from(&parsed, parsed.section("core").unwrap())
        .unwrap();
    bus2.restore_from(&parsed, parsed.section("bus").unwrap())
        .unwrap();
    assert_eq!(core2.state_digest(), core.state_digest());

    // Both finish the loop in lockstep and agree on the final count.
    loop {
        let a = core.step(&mut bus).unwrap();
        let b = core2.step(&mut bus2).unwrap();
        assert_eq!(a.halted, b.halted, "halt divergence mid hardware loop");
        if a.halted {
            break;
        }
    }
    assert_eq!(core.reg(Reg::A0), 100);
    assert_eq!(core2.reg(Reg::A0), 100);
    assert_eq!(core2.state_digest(), core.state_digest());
    assert_eq!(bus2.content_digest(), bus.content_digest());
}

/// The flight recorder checkpoints mid-program; resuming from such a
/// checkpoint and from the start must agree with the live recorder run.
#[test]
fn recorder_mid_program_checkpoints_resume() {
    let cfg = SocConfig::default();
    let mut rec = Recorder::new(cfg, 500, 8).unwrap();
    rec.write_mem(map::DRAM_BASE + 0x100, &[7; 64]).unwrap();
    rec.advance_time(42);
    rec.run_host_program(&counting_program(), &[], 1_000_000)
        .unwrap();
    let (live, recording) = rec.finish();

    assert!(
        recording.checkpoints.iter().any(|c| c.in_progress),
        "expected at least one mid-program checkpoint at period 500"
    );

    let straight = recording.replay_to_end().unwrap();
    assert_eq!(straight.state_digest(), live.state_digest());
    for i in 0..recording.checkpoints.len() {
        let resumed = recording.resume_from(i).unwrap();
        assert_eq!(
            resumed.state_digest(),
            live.state_digest(),
            "checkpoint {i} diverged"
        );
    }

    // The serialized recording survives its own round trip.
    let bytes = recording.to_bytes();
    let back = hulkv::Recording::from_bytes(&bytes).unwrap();
    assert_eq!(back.to_bytes(), bytes);
    assert_eq!(
        back.replay_to_end().unwrap().state_digest(),
        live.state_digest()
    );
}
