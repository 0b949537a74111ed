//! # HULK-V: a Heterogeneous Ultra-Low-power Linux-capable RISC-V SoC
//!
//! This crate is the top level of the HULK-V reproduction: it assembles the
//! substrates — the CVA6 host ([`hulkv_host`]), the 8-core PMCA
//! ([`hulkv_cluster`]), and the fully digital memory hierarchy
//! ([`hulkv_mem`]: L2SPM, LLC, HyperRAM or DDR4 main memory, µDMA) — into
//! one SoC behind a single builder, and implements the heterogeneous
//! runtime of §IV:
//!
//! * [`HulkV::hulk_malloc`] — allocation in the shared main-memory window
//!   addressable by both the 64-bit host (Sv39) and the 32-bit PMCA;
//! * [`HulkV::register_kernel`] / [`HulkV::offload`] — the OpenMP-style
//!   offload path with *lazy* code loading: the first offload pays for
//!   copying the kernel binary into the L2SPM (the overhead that dominates
//!   short kernels in Figure 6), subsequent offloads ride the cached copy;
//! * the hardware mailbox and IOPMP sitting between the two subsystems.
//!
//! # Example
//!
//! ```
//! use hulkv::{HulkV, SocConfig};
//! use hulkv_rv::{Asm, Reg, Xlen};
//!
//! let mut soc = HulkV::new(SocConfig::default())?;
//!
//! // A trivial cluster kernel: every core writes its hart id + 100 into
//! // the result buffer passed in a0.
//! let mut k = Asm::new(Xlen::Rv32);
//! k.csrr(Reg::T0, hulkv_rv::csr::addr::MHARTID);
//! k.slli(Reg::T1, Reg::T0, 2);
//! k.add(Reg::T1, Reg::A0, Reg::T1);
//! k.addi(Reg::T0, Reg::T0, 100);
//! k.sw(Reg::T0, Reg::T1, 0);
//! k.ebreak();
//!
//! let buf = soc.hulk_malloc(8 * 4)?;
//! let kernel = soc.register_kernel(&k.assemble()?)?;
//! let result = soc.offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)?;
//! assert!(result.code_loaded);
//!
//! let mut out = [0u8; 4];
//! soc.read_mem(buf + 3 * 4, &mut out)?;
//! assert_eq!(u32::from_le_bytes(out), 103);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod iopmp;
mod mailbox;
mod record;
mod soc;

pub use config::{MainMemory, MemorySetup, SocConfig};
pub use iopmp::IoPmp;
pub use mailbox::Mailbox;
pub use record::{
    apply_command, Checkpoint, Command, RecordError, Recorder, Recording, RECORDING_FORMAT,
    RECORDING_MAGIC,
};
pub use soc::{default_iopmp_windows, host_regions, map, HulkV, KernelId, OffloadResult, SocError};
