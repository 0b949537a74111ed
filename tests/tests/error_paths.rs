//! Negative-path integration tests: the SoC must fail loudly and
//! descriptively, never silently corrupt state.

use hulkv::{map, HulkV, SocConfig, SocError};
use hulkv_rv::{parse_program, Asm, Reg, RvError, Xlen};
use hulkv_sim::Snapshot;

#[test]
fn runaway_host_program_times_out() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    let mut a = Asm::new(Xlen::Rv64);
    let spin = a.label();
    a.bind(spin);
    a.j(spin);
    let err = soc.run_host_program(&a.assemble().unwrap(), |_| {}, 10_000);
    match err {
        Err(SocError::Exec(RvError::Timeout { cycles })) => assert!(cycles >= 10_000),
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn runaway_cluster_kernel_times_out() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    let mut k = Asm::new(Xlen::Rv32);
    let spin = k.label();
    k.bind(spin);
    k.j(spin);
    let kernel = soc.register_kernel(&k.assemble().unwrap()).unwrap();
    let err = soc.offload(kernel, &[], 1, 5_000);
    assert!(matches!(err, Err(SocError::Exec(RvError::Timeout { .. }))));
}

#[test]
fn illegal_instruction_reports_pc_and_word() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    let mut a = Asm::new(Xlen::Rv64);
    a.nop();
    a.word(0xFFFF_FFFF);
    let err = soc
        .run_host_program(&a.assemble().unwrap(), |_| {}, 10_000)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("illegal instruction"), "{msg}");
    assert!(msg.contains("0xffffffff"), "{msg}");
}

#[test]
fn unmapped_address_faults_with_address() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    let err = soc
        .run_host_assembly("li t0, 0x70000000\nld t1, 0(t0)\nebreak\n")
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("unmapped") || msg.contains("memory fault"),
        "{msg}"
    );

    // The failed L1D refill must leave the SoC usable: a second program
    // on the same SoC refills and then hits a line in the same L1D set
    // (0x1C01_0000 and 0x7000_0000 both map to set 0).
    let value = 0x0123_4567_89AB_CDEFu64;
    soc.write_mem(0x1C01_0000, &value.to_le_bytes()).unwrap();
    let reload = "li t0, 0x1C010000\nld a0, 0(t0)\nld a1, 0(t0)\nebreak\n";
    soc.run_host_assembly(reload).unwrap();
    assert_eq!(soc.host().core().reg(Reg::A0), value);
    assert_eq!(soc.host().core().reg(Reg::A1), value);

    // And the state round-trips through a snapshot: the restored SoC has
    // the same digest and bytes, and reruns the program identically.
    let bytes = soc.snapshot().to_bytes();
    let mut back = HulkV::from_snapshot(&Snapshot::from_bytes(&bytes).unwrap()).unwrap();
    assert_eq!(back.state_digest(), soc.state_digest());
    assert_eq!(back.snapshot().to_bytes(), bytes);
    assert_eq!(
        back.run_host_assembly(reload).unwrap(),
        soc.run_host_assembly(reload).unwrap()
    );
    assert_eq!(back.state_digest(), soc.state_digest());
}

#[test]
fn xpulp_on_host_is_illegal() {
    // The host (no Xpulp) must reject cluster-only opcodes.
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    let words = parse_program("p.mac a0, a1, a2\nebreak\n", Xlen::Rv32).unwrap();
    let err = soc.run_host_program(&words, |_| {}, 10_000);
    assert!(matches!(
        err,
        Err(SocError::Exec(RvError::IllegalInstruction { .. }))
    ));
}

#[test]
fn kernel_space_exhaustion_reported() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    // Register kernels until the L2SPM code window (half the L2SPM) would
    // overflow on load: each binary is ~64 kB of nops.
    let mut a = Asm::new(Xlen::Rv32);
    for _ in 0..16_000 {
        a.nop();
    }
    a.ebreak();
    let words = a.assemble().unwrap();
    let mut hit_limit = false;
    for _ in 0..8 {
        let k = soc.register_kernel(&words).unwrap();
        match soc.offload(k, &[], 1, 10_000_000) {
            Ok(_) => {}
            Err(SocError::OutOfKernelSpace) => {
                hit_limit = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(hit_limit, "kernel space never exhausted");
}

#[test]
fn assembly_errors_surface_through_the_soc() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    let err = soc.run_host_assembly("bogus t0, t1\n").unwrap_err();
    assert!(err.to_string().contains("bogus"), "{err}");
}

#[test]
fn shared_allocation_respects_memory_size() {
    let mut soc = HulkV::new(SocConfig::default()).unwrap();
    // Allocate nearly all of the shared window, then overflow it.
    let available = soc.config().main_memory_bytes() - (map::SHARED_BASE - map::DRAM_BASE);
    assert!(soc.hulk_malloc(available as usize - 128).is_ok());
    assert!(matches!(
        soc.hulk_malloc(4096),
        Err(SocError::OutOfSharedMemory { .. })
    ));
}
