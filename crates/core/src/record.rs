//! The flight recorder: deterministic record & replay of SoC runs.
//!
//! The simulator is single-threaded and every source of nondeterminism
//! enters through the SoC's public driving API — host programs, offloads,
//! backdoor writes, peripheral interrupts, time advances. The recorder
//! therefore journals exactly that **command stream** (the nondeterminism
//! frontier) and, while executing it, drops full-machine [`Snapshot`]s
//! into a bounded ring every `period` host cycles. Any window of the run
//! can then be reproduced bit-identically: restore the nearest checkpoint
//! at or before the point of interest and re-execute the journal from
//! there — same cycles, same stats, same [`HulkV::state_digest`].
//!
//! Checkpoints inside a host program are legal (the host core snapshots
//! mid-flight); checkpoints inside an offload are not — cluster team
//! cores are transient — so the recorder only snapshots at host-program
//! window boundaries and between commands, which are the only points
//! where the machine is quiescent.

use crate::config::SocConfig;
use crate::soc::{HulkV, SocError};
use hulkv_rv::{Reg, RvError};
use hulkv_sim::snap::{get, get_arr, get_bool, get_u64, hex, unhex, SnapError};
use hulkv_sim::{Cycles, Json, SnapResult, Snapshot};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Magic prefixing a serialized [`Recording`].
pub const RECORDING_MAGIC: &[u8; 8] = b"HULKVREC";
/// Format version written by [`Recording::to_bytes`].
pub const RECORDING_FORMAT: u32 = 1;

/// One entry of the command journal: everything the outside world can do
/// to the SoC, with every input captured by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// [`HulkV::run_host_program`] — program words, initial registers
    /// (applied after the default PC/SP setup) and the cycle budget.
    RunHostProgram {
        /// The program image loaded at [`crate::map::HOST_CODE`].
        words: Vec<u32>,
        /// Initial register values applied before the run.
        regs: Vec<(Reg, u64)>,
        /// Host-cycle budget (overrun is a recorded failure, not UB).
        max_cycles: u64,
    },
    /// [`HulkV::hulk_malloc`].
    HulkMalloc {
        /// Allocation size.
        bytes: usize,
    },
    /// [`HulkV::register_kernel`].
    RegisterKernel {
        /// The PMCA binary.
        words: Vec<u32>,
    },
    /// [`HulkV::offload`], kernel referenced by registration index.
    Offload {
        /// Registration index of the kernel.
        kernel: usize,
        /// Kernel arguments.
        args: Vec<(Reg, u64)>,
        /// Requested team width.
        num_cores: usize,
        /// Cluster-cycle budget.
        max_cycles: u64,
    },
    /// [`HulkV::evict_kernel`], by registration index.
    EvictKernel {
        /// Registration index of the kernel.
        kernel: usize,
    },
    /// [`HulkV::advance_time`].
    AdvanceTime {
        /// CLINT ticks.
        ticks: u64,
    },
    /// [`HulkV::raise_peripheral_irq`].
    RaisePeripheralIrq {
        /// PLIC source id.
        id: u32,
    },
    /// [`HulkV::write_mem`] (backdoor).
    WriteMem {
        /// Destination address.
        addr: u64,
        /// Bytes written.
        data: Vec<u8>,
    },
    /// [`hulkv_cluster::Cluster::tcdm_write`] (backdoor working-set
    /// staging).
    TcdmWrite {
        /// TCDM offset.
        offset: u64,
        /// Bytes written.
        data: Vec<u8>,
    },
    /// [`HulkV::udma_transfer`].
    UdmaTransfer {
        /// Source address.
        src: u64,
        /// Destination address.
        dst: u64,
        /// Transfer length.
        bytes: usize,
    },
}

fn regs_to_json(regs: &[(Reg, u64)]) -> Json {
    Json::Arr(
        regs.iter()
            .map(|&(r, v)| Json::Arr(vec![hex(u64::from(r.index())), hex(v)]))
            .collect(),
    )
}

fn regs_from_json(v: &[Json]) -> SnapResult<Vec<(Reg, u64)>> {
    let mut regs = Vec::with_capacity(v.len());
    for pair in v {
        let Json::Arr(p) = pair else {
            return Err(SnapError::msg(
                "register binding is not a [reg, value] pair",
            ));
        };
        if p.len() != 2 {
            return Err(SnapError::msg(
                "register binding is not a [reg, value] pair",
            ));
        }
        let idx = unhex(&p[0])?;
        if idx >= 32 {
            return Err(SnapError::msg(format!("register index {idx} out of range")));
        }
        regs.push((Reg::from_index(idx as u8), unhex(&p[1])?));
    }
    Ok(regs)
}

fn words_to_json(words: &[u32]) -> Json {
    Json::Arr(words.iter().map(|&w| hex(u64::from(w))).collect())
}

fn words_from_json(v: &[Json]) -> SnapResult<Vec<u32>> {
    v.iter().map(|w| Ok(unhex(w)? as u32)).collect()
}

impl Command {
    /// Serializes the command.
    pub fn to_json(&self) -> Json {
        match self {
            Command::RunHostProgram {
                words,
                regs,
                max_cycles,
            } => Json::obj([
                ("kind", Json::Str("run_host_program".into())),
                ("words", words_to_json(words)),
                ("regs", regs_to_json(regs)),
                ("max_cycles", hex(*max_cycles)),
            ]),
            Command::HulkMalloc { bytes } => Json::obj([
                ("kind", Json::Str("hulk_malloc".into())),
                ("bytes", hex(*bytes as u64)),
            ]),
            Command::RegisterKernel { words } => Json::obj([
                ("kind", Json::Str("register_kernel".into())),
                ("words", words_to_json(words)),
            ]),
            Command::Offload {
                kernel,
                args,
                num_cores,
                max_cycles,
            } => Json::obj([
                ("kind", Json::Str("offload".into())),
                ("kernel", hex(*kernel as u64)),
                ("args", regs_to_json(args)),
                ("num_cores", hex(*num_cores as u64)),
                ("max_cycles", hex(*max_cycles)),
            ]),
            Command::EvictKernel { kernel } => Json::obj([
                ("kind", Json::Str("evict_kernel".into())),
                ("kernel", hex(*kernel as u64)),
            ]),
            Command::AdvanceTime { ticks } => Json::obj([
                ("kind", Json::Str("advance_time".into())),
                ("ticks", hex(*ticks)),
            ]),
            Command::RaisePeripheralIrq { id } => Json::obj([
                ("kind", Json::Str("raise_peripheral_irq".into())),
                ("id", hex(u64::from(*id))),
            ]),
            Command::WriteMem { addr, data } => Json::obj([
                ("kind", Json::Str("write_mem".into())),
                ("addr", hex(*addr)),
                (
                    "data",
                    Json::Arr(data.iter().map(|&b| hex(u64::from(b))).collect()),
                ),
            ]),
            Command::TcdmWrite { offset, data } => Json::obj([
                ("kind", Json::Str("tcdm_write".into())),
                ("offset", hex(*offset)),
                (
                    "data",
                    Json::Arr(data.iter().map(|&b| hex(u64::from(b))).collect()),
                ),
            ]),
            Command::UdmaTransfer { src, dst, bytes } => Json::obj([
                ("kind", Json::Str("udma_transfer".into())),
                ("src", hex(*src)),
                ("dst", hex(*dst)),
                ("bytes", hex(*bytes as u64)),
            ]),
        }
    }

    /// Deserializes a command written by [`Command::to_json`].
    ///
    /// # Errors
    ///
    /// On an unknown kind or malformed fields.
    pub fn from_json(j: &Json) -> SnapResult<Command> {
        let kind = get(j, "kind")?
            .as_str()
            .ok_or_else(|| SnapError::msg("command kind is not a string"))?;
        Ok(match kind {
            "run_host_program" => Command::RunHostProgram {
                words: words_from_json(get_arr(j, "words")?)?,
                regs: regs_from_json(get_arr(j, "regs")?)?,
                max_cycles: get_u64(j, "max_cycles")?,
            },
            "hulk_malloc" => Command::HulkMalloc {
                bytes: get_u64(j, "bytes")? as usize,
            },
            "register_kernel" => Command::RegisterKernel {
                words: words_from_json(get_arr(j, "words")?)?,
            },
            "offload" => Command::Offload {
                kernel: get_u64(j, "kernel")? as usize,
                args: regs_from_json(get_arr(j, "args")?)?,
                num_cores: get_u64(j, "num_cores")? as usize,
                max_cycles: get_u64(j, "max_cycles")?,
            },
            "evict_kernel" => Command::EvictKernel {
                kernel: get_u64(j, "kernel")? as usize,
            },
            "advance_time" => Command::AdvanceTime {
                ticks: get_u64(j, "ticks")?,
            },
            "raise_peripheral_irq" => Command::RaisePeripheralIrq {
                id: get_u64(j, "id")? as u32,
            },
            "write_mem" => Command::WriteMem {
                addr: get_u64(j, "addr")?,
                data: get_arr(j, "data")?
                    .iter()
                    .map(|b| Ok(unhex(b)? as u8))
                    .collect::<SnapResult<Vec<u8>>>()?,
            },
            "tcdm_write" => Command::TcdmWrite {
                offset: get_u64(j, "offset")?,
                data: get_arr(j, "data")?
                    .iter()
                    .map(|b| Ok(unhex(b)? as u8))
                    .collect::<SnapResult<Vec<u8>>>()?,
            },
            "udma_transfer" => Command::UdmaTransfer {
                src: get_u64(j, "src")?,
                dst: get_u64(j, "dst")?,
                bytes: get_u64(j, "bytes")? as usize,
            },
            other => return Err(SnapError::msg(format!("unknown command kind {other:?}"))),
        })
    }
}

/// A checkpoint in the flight-recorder ring: a full-machine snapshot plus
/// its position in the command journal.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Commands fully applied before this checkpoint. When `in_progress`,
    /// `commands[cmd_index]` is the host program the snapshot sits inside.
    pub cmd_index: usize,
    /// Host-core cycle count at the checkpoint.
    pub host_cycle: u64,
    /// Host-core retired-instruction count at the checkpoint.
    pub instret: u64,
    /// Whether the snapshot was taken mid-host-program.
    pub in_progress: bool,
    /// Absolute host-cycle budget of the in-flight program (meaningful
    /// only when `in_progress`).
    pub limit: u64,
    /// The serialized [`Snapshot`].
    pub bytes: Vec<u8>,
}

/// Record/replay failures: a replayed command erroring, or a malformed
/// recording/snapshot.
#[derive(Debug)]
pub enum RecordError {
    /// A (re)executed command failed.
    Soc(SocError),
    /// The recording or an embedded snapshot is malformed.
    Snap(SnapError),
    /// The journal and the machine disagree — e.g. a program that halted
    /// during recording refuses to halt on replay.
    Diverged(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Soc(e) => write!(f, "replayed command failed: {e}"),
            RecordError::Snap(e) => write!(f, "malformed recording: {e}"),
            RecordError::Diverged(what) => write!(f, "replay diverged: {what}"),
        }
    }
}

impl Error for RecordError {}

impl From<SocError> for RecordError {
    fn from(e: SocError) -> Self {
        RecordError::Soc(e)
    }
}

impl From<SnapError> for RecordError {
    fn from(e: SnapError) -> Self {
        RecordError::Snap(e)
    }
}

/// Re-executes one journal entry against `soc`. Return values (allocation
/// addresses, kernel ids, cycle counts) are deterministic functions of the
/// SoC state, so replay discards them.
///
/// # Errors
///
/// Propagates the underlying command's error; a host program that exceeds
/// its recorded budget fails with the same timeout the recording saw.
pub fn apply_command(soc: &mut HulkV, cmd: &Command) -> Result<(), RecordError> {
    match cmd {
        Command::RunHostProgram {
            words,
            regs,
            max_cycles,
        } => {
            soc.start_host_program(words, regs)?;
            let start = soc.host().core().cycles().get();
            let limit = start.saturating_add(*max_cycles);
            let halted = soc.run_host_until(limit.saturating_add(1))?;
            if !halted {
                let cycles = soc.host().core().cycles().get() - start;
                return Err(RecordError::Soc(RvError::Timeout { cycles }.into()));
            }
            Ok(())
        }
        Command::HulkMalloc { bytes } => {
            soc.hulk_malloc(*bytes)?;
            Ok(())
        }
        Command::RegisterKernel { words } => {
            soc.register_kernel(words)?;
            Ok(())
        }
        Command::Offload {
            kernel,
            args,
            num_cores,
            max_cycles,
        } => {
            let id = soc.kernel_id(*kernel).ok_or_else(|| {
                RecordError::Diverged(format!("offload references unknown kernel {kernel}"))
            })?;
            soc.offload(id, args, *num_cores, *max_cycles)?;
            Ok(())
        }
        Command::EvictKernel { kernel } => {
            let id = soc.kernel_id(*kernel).ok_or_else(|| {
                RecordError::Diverged(format!("evict references unknown kernel {kernel}"))
            })?;
            soc.evict_kernel(id);
            Ok(())
        }
        Command::AdvanceTime { ticks } => {
            soc.advance_time(*ticks);
            Ok(())
        }
        Command::RaisePeripheralIrq { id } => {
            soc.raise_peripheral_irq(*id);
            Ok(())
        }
        Command::WriteMem { addr, data } => {
            soc.write_mem(*addr, data)?;
            Ok(())
        }
        Command::TcdmWrite { offset, data } => {
            soc.cluster_mut()
                .tcdm_write(*offset, data)
                .map_err(SocError::from)?;
            Ok(())
        }
        Command::UdmaTransfer { src, dst, bytes } => {
            soc.udma_transfer(*src, *dst, *bytes)?;
            Ok(())
        }
    }
}

/// The flight recorder: owns a [`HulkV`], journals every command driven
/// through it, and keeps a bounded ring of periodic checkpoints.
///
/// # Example
///
/// ```
/// use hulkv::{Recorder, SocConfig};
///
/// let mut rec = Recorder::new(SocConfig::default(), 10_000, 8)?;
/// let words = hulkv_rv::parse_program("li a0, 7\nebreak\n", hulkv_rv::Xlen::Rv64)?;
/// rec.run_host_program(&words, &[], 1_000_000)?;
/// let recording = rec.recording();
/// let replayed = recording.replay_to_end()?;
/// assert_eq!(replayed.state_digest(), rec.soc().state_digest());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Recorder {
    soc: HulkV,
    config: Json,
    commands: Vec<Command>,
    checkpoints: VecDeque<Checkpoint>,
    period: u64,
    capacity: usize,
    last_checkpoint_cycle: u64,
}

impl Recorder {
    /// Builds the SoC from `cfg` and takes the initial checkpoint.
    /// `period` is the target host-cycle distance between checkpoints;
    /// the ring keeps the most recent `capacity` of them.
    ///
    /// # Errors
    ///
    /// Propagates SoC construction errors.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `capacity` is zero.
    pub fn new(cfg: SocConfig, period: u64, capacity: usize) -> Result<Self, SocError> {
        assert!(period > 0, "checkpoint period must be non-zero");
        assert!(capacity > 0, "checkpoint ring capacity must be non-zero");
        let soc = HulkV::new(cfg)?;
        let config = soc.config().to_json();
        let mut rec = Recorder {
            soc,
            config,
            commands: Vec::new(),
            checkpoints: VecDeque::new(),
            period,
            capacity,
            last_checkpoint_cycle: 0,
        };
        rec.push_checkpoint(false, 0);
        Ok(rec)
    }

    /// The recorded SoC (read-only: mutate it only through the journaling
    /// wrappers, or replay will diverge).
    pub fn soc(&self) -> &HulkV {
        &self.soc
    }

    /// The journal so far.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// The checkpoint ring, oldest first.
    pub fn checkpoints(&self) -> impl Iterator<Item = &Checkpoint> {
        self.checkpoints.iter()
    }

    fn push_checkpoint(&mut self, in_progress: bool, limit: u64) {
        let snap = self.soc.snapshot();
        let cp = Checkpoint {
            cmd_index: self.commands.len() - usize::from(in_progress),
            host_cycle: self.soc.host().core().cycles().get(),
            instret: self.soc.host().core().instret(),
            in_progress,
            limit,
            bytes: snap.to_bytes(),
        };
        self.last_checkpoint_cycle = cp.host_cycle;
        self.checkpoints.push_back(cp);
        while self.checkpoints.len() > self.capacity {
            self.checkpoints.pop_front();
        }
    }

    fn checkpoint_if_due(&mut self) {
        if self.soc.host().core().cycles().get() >= self.last_checkpoint_cycle + self.period {
            self.push_checkpoint(false, 0);
        }
    }

    /// Journals and runs a host program, checkpointing every `period`
    /// host cycles while it executes. Semantically identical to
    /// [`HulkV::run_host_program`] with the register bindings applied as
    /// setup.
    ///
    /// # Errors
    ///
    /// Propagates loading and execution errors; exceeding `max_cycles` is
    /// a timeout exactly as in the unrecorded path.
    pub fn run_host_program(
        &mut self,
        words: &[u32],
        regs: &[(Reg, u64)],
        max_cycles: u64,
    ) -> Result<Cycles, SocError> {
        self.commands.push(Command::RunHostProgram {
            words: words.to_vec(),
            regs: regs.to_vec(),
            max_cycles,
        });
        self.soc.start_host_program(words, regs)?;
        let start = self.soc.host().core().cycles().get();
        let limit = start.saturating_add(max_cycles);
        loop {
            let target = (self.soc.host().core().cycles().get())
                .saturating_add(self.period)
                .min(limit.saturating_add(1));
            let halted = self.soc.run_host_until(target)?;
            let now = self.soc.host().core().cycles().get();
            if halted {
                self.checkpoint_if_due();
                return Ok(Cycles::new(now - start));
            }
            if now > limit {
                return Err(RvError::Timeout {
                    cycles: now - start,
                }
                .into());
            }
            self.push_checkpoint(true, limit);
        }
    }

    /// Journals [`HulkV::hulk_malloc`].
    ///
    /// # Errors
    ///
    /// Propagates the allocation error.
    pub fn hulk_malloc(&mut self, bytes: usize) -> Result<u64, SocError> {
        self.commands.push(Command::HulkMalloc { bytes });
        let addr = self.soc.hulk_malloc(bytes)?;
        self.checkpoint_if_due();
        Ok(addr)
    }

    /// Journals [`HulkV::register_kernel`].
    ///
    /// # Errors
    ///
    /// Propagates registration errors.
    pub fn register_kernel(&mut self, words: &[u32]) -> Result<crate::KernelId, SocError> {
        self.commands.push(Command::RegisterKernel {
            words: words.to_vec(),
        });
        let id = self.soc.register_kernel(words)?;
        self.checkpoint_if_due();
        Ok(id)
    }

    /// Journals [`HulkV::offload`]. No checkpoint lands inside the
    /// offload — team cores are transient — so the ring advances only at
    /// its completion.
    ///
    /// # Errors
    ///
    /// Propagates offload errors.
    pub fn offload(
        &mut self,
        kernel: crate::KernelId,
        args: &[(Reg, u64)],
        num_cores: usize,
        max_cycles: u64,
    ) -> Result<crate::OffloadResult, SocError> {
        self.commands.push(Command::Offload {
            kernel: kernel.index(),
            args: args.to_vec(),
            num_cores,
            max_cycles,
        });
        let r = self.soc.offload(kernel, args, num_cores, max_cycles)?;
        self.checkpoint_if_due();
        Ok(r)
    }

    /// Journals [`HulkV::evict_kernel`].
    pub fn evict_kernel(&mut self, kernel: crate::KernelId) {
        self.commands.push(Command::EvictKernel {
            kernel: kernel.index(),
        });
        self.soc.evict_kernel(kernel);
    }

    /// Journals [`HulkV::advance_time`].
    pub fn advance_time(&mut self, ticks: u64) {
        self.commands.push(Command::AdvanceTime { ticks });
        self.soc.advance_time(ticks);
    }

    /// Journals [`HulkV::raise_peripheral_irq`].
    pub fn raise_peripheral_irq(&mut self, id: u32) {
        self.commands.push(Command::RaisePeripheralIrq { id });
        self.soc.raise_peripheral_irq(id);
    }

    /// Journals [`HulkV::write_mem`].
    ///
    /// # Errors
    ///
    /// Propagates routing/range errors.
    pub fn write_mem(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        self.commands.push(Command::WriteMem {
            addr,
            data: data.to_vec(),
        });
        self.soc.write_mem(addr, data)
    }

    /// Journals [`hulkv_cluster::Cluster::tcdm_write`].
    ///
    /// # Errors
    ///
    /// Propagates range errors.
    pub fn tcdm_write(&mut self, offset: u64, data: &[u8]) -> Result<(), SocError> {
        self.commands.push(Command::TcdmWrite {
            offset,
            data: data.to_vec(),
        });
        self.soc
            .cluster_mut()
            .tcdm_write(offset, data)
            .map_err(SocError::from)
    }

    /// Journals [`HulkV::udma_transfer`].
    ///
    /// # Errors
    ///
    /// Propagates transfer errors.
    pub fn udma_transfer(&mut self, src: u64, dst: u64, bytes: usize) -> Result<Cycles, SocError> {
        self.commands
            .push(Command::UdmaTransfer { src, dst, bytes });
        let lat = self.soc.udma_transfer(src, dst, bytes)?;
        self.checkpoint_if_due();
        Ok(lat)
    }

    /// The finished [`Recording`]: configuration, journal, and the
    /// surviving checkpoint ring.
    pub fn recording(&self) -> Recording {
        Recording {
            config: self.config.clone(),
            commands: self.commands.clone(),
            checkpoints: self.checkpoints.iter().cloned().collect(),
        }
    }

    /// Consumes the recorder, returning the SoC and the recording.
    pub fn finish(self) -> (HulkV, Recording) {
        let Recorder {
            soc,
            config,
            commands,
            checkpoints,
            ..
        } = self;
        (
            soc,
            Recording {
                config,
                commands,
                checkpoints: checkpoints.into_iter().collect(),
            },
        )
    }
}

/// A serializable flight-recorder capture: the SoC configuration, the
/// command journal from cycle zero, and the checkpoint ring.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The SoC configuration ([`SocConfig::to_json`]).
    pub config: Json,
    /// The command journal, in execution order.
    pub commands: Vec<Command>,
    /// Surviving checkpoints, oldest first.
    pub checkpoints: Vec<Checkpoint>,
}

impl Recording {
    /// Serializes to the `HULKVREC` container: magic, format word, a JSON
    /// header (config, journal, checkpoint metadata), then the raw
    /// checkpoint snapshot blobs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = Json::obj([
            ("config", self.config.clone()),
            (
                "commands",
                Json::Arr(self.commands.iter().map(Command::to_json).collect()),
            ),
            (
                "checkpoints",
                Json::Arr(
                    self.checkpoints
                        .iter()
                        .map(|cp| {
                            Json::obj([
                                ("cmd_index", hex(cp.cmd_index as u64)),
                                ("host_cycle", hex(cp.host_cycle)),
                                ("instret", hex(cp.instret)),
                                ("in_progress", Json::Bool(cp.in_progress)),
                                ("limit", hex(cp.limit)),
                                ("bytes_len", hex(cp.bytes.len() as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string();
        let mut out = Vec::with_capacity(
            8 + 4
                + 8
                + header.len()
                + self
                    .checkpoints
                    .iter()
                    .map(|c| c.bytes.len())
                    .sum::<usize>(),
        );
        out.extend_from_slice(RECORDING_MAGIC);
        out.extend_from_slice(&RECORDING_FORMAT.to_le_bytes());
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        for cp in &self.checkpoints {
            out.extend_from_slice(&cp.bytes);
        }
        out
    }

    /// Deserializes a container written by [`Recording::to_bytes`].
    ///
    /// # Errors
    ///
    /// On a wrong magic, an unsupported format word, truncation, or a
    /// checkpoint whose command index lies past the journal.
    pub fn from_bytes(bytes: &[u8]) -> SnapResult<Recording> {
        let need = |n: usize, at: usize| match at.checked_add(n) {
            Some(end) if end <= bytes.len() => Ok(()),
            _ => Err(SnapError::msg("recording truncated")),
        };
        need(8 + 4 + 8, 0)?;
        if &bytes[..8] != RECORDING_MAGIC {
            return Err(SnapError::msg("not a HULKVREC recording"));
        }
        let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if format != RECORDING_FORMAT {
            return Err(SnapError::msg(format!(
                "unsupported recording format {format} (expected {RECORDING_FORMAT})"
            )));
        }
        let header_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        need(header_len, 20)?;
        let header = std::str::from_utf8(&bytes[20..20 + header_len])
            .map_err(|_| SnapError::msg("recording header is not UTF-8"))?;
        let header = Json::parse(header).map_err(SnapError::msg)?;
        let config = get(&header, "config")?.clone();
        let mut commands = Vec::new();
        for c in get_arr(&header, "commands")? {
            commands.push(Command::from_json(c)?);
        }
        let mut checkpoints = Vec::new();
        let mut cursor = 20 + header_len;
        for cp in get_arr(&header, "checkpoints")? {
            let len = get_u64(cp, "bytes_len")? as usize;
            need(len, cursor)?;
            let cmd_index = get_u64(cp, "cmd_index")?;
            let in_progress = get_bool(cp, "in_progress")?;
            // Replay resumes at `commands[cmd_index]`, which an in-flight
            // checkpoint also needs to exist.
            let end = commands.len() as u64;
            if cmd_index > end || (in_progress && cmd_index == end) {
                return Err(SnapError::msg(format!(
                    "checkpoint cmd_index {cmd_index} is past the {end}-command journal"
                )));
            }
            checkpoints.push(Checkpoint {
                cmd_index: cmd_index as usize,
                host_cycle: get_u64(cp, "host_cycle")?,
                instret: get_u64(cp, "instret")?,
                in_progress,
                limit: get_u64(cp, "limit")?,
                bytes: bytes[cursor..cursor + len].to_vec(),
            });
            cursor += len;
        }
        Ok(Recording {
            config,
            commands,
            checkpoints,
        })
    }

    /// Builds a fresh SoC from the embedded configuration (the cycle-zero
    /// state — replay never needs a checkpoint to start from the top).
    ///
    /// # Errors
    ///
    /// On a malformed or unbuildable configuration.
    pub fn fresh_soc(&self) -> Result<HulkV, RecordError> {
        let cfg = SocConfig::from_json(&self.config)?;
        Ok(HulkV::new(cfg)?)
    }

    /// Replays the whole journal from cycle zero and returns the final
    /// machine — bit-identical to the recorded run's end state.
    ///
    /// # Errors
    ///
    /// Propagates command and configuration errors.
    pub fn replay_to_end(&self) -> Result<HulkV, RecordError> {
        let mut soc = self.fresh_soc()?;
        for cmd in &self.commands {
            apply_command(&mut soc, cmd)?;
        }
        Ok(soc)
    }

    /// Restores checkpoint `idx` and replays the rest of the journal; the
    /// returned machine is bit-identical to [`Recording::replay_to_end`].
    ///
    /// # Errors
    ///
    /// Propagates restore and command errors; a mid-program checkpoint
    /// whose program no longer halts within its recorded budget is a
    /// divergence.
    pub fn resume_from(&self, idx: usize) -> Result<HulkV, RecordError> {
        let cp = self
            .checkpoints
            .get(idx)
            .ok_or_else(|| RecordError::Diverged(format!("no checkpoint {idx}")))?;
        let mut soc = self.restore_checkpoint(cp)?;
        let mut next = cp.cmd_index;
        if cp.in_progress {
            let halted = soc.run_host_until(cp.limit.saturating_add(1))?;
            if !halted {
                return Err(RecordError::Diverged(
                    "in-flight host program did not halt within its recorded budget".into(),
                ));
            }
            next += 1;
        }
        for cmd in &self.commands[next..] {
            apply_command(&mut soc, cmd)?;
        }
        Ok(soc)
    }

    /// Restores a checkpoint's snapshot into a freshly built SoC without
    /// replaying anything after it.
    ///
    /// # Errors
    ///
    /// On a malformed snapshot or configuration.
    pub fn restore_checkpoint(&self, cp: &Checkpoint) -> Result<HulkV, RecordError> {
        let snap = Snapshot::from_bytes(&cp.bytes)?;
        Ok(HulkV::from_snapshot(&snap)?)
    }

    /// The index of the latest checkpoint at or before `host_cycle`, if
    /// any survives in the ring.
    pub fn checkpoint_at_or_before(&self, host_cycle: u64) -> Option<usize> {
        self.checkpoints
            .iter()
            .enumerate()
            .rev()
            .find(|(_, cp)| cp.host_cycle <= host_cycle)
            .map(|(i, _)| i)
    }

    /// Same lookup keyed by retired-instruction count.
    pub fn checkpoint_at_or_before_instret(&self, instret: u64) -> Option<usize> {
        self.checkpoints
            .iter()
            .enumerate()
            .rev()
            .find(|(_, cp)| cp.instret <= instret)
            .map(|(i, _)| i)
    }
}
