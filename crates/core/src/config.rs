//! SoC-level configuration.

use hulkv_cluster::ClusterConfig;
use hulkv_host::HostConfig;
use hulkv_mem::{DdrConfig, HyperRamConfig, LlcConfig};
use hulkv_sim::snap::{get, get_bool, get_u64, hex, SnapError};
use hulkv_sim::{Cycles, Freq, Json, SnapResult};

/// Which main-memory technology backs the SoC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MainMemory {
    /// The fully digital HyperRAM subsystem (the HULK-V way).
    HyperRam(HyperRamConfig),
    /// An LPDDR4/DDR4 subsystem (the power-hungry baseline).
    Ddr(DdrConfig),
}

/// The four memory configurations benchmarked in Figures 7 and 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySetup {
    /// DDR4 main memory behind the LLC (configuration 1).
    DdrWithLlc,
    /// HyperRAM behind the LLC — the shipping HULK-V (configuration 2).
    HyperWithLlc,
    /// DDR4 without the LLC (configuration 3).
    DdrOnly,
    /// HyperRAM without the LLC (configuration 4).
    HyperOnly,
}

impl MemorySetup {
    /// All four configurations, in the paper's order.
    pub const ALL: [MemorySetup; 4] = [
        MemorySetup::DdrWithLlc,
        MemorySetup::HyperWithLlc,
        MemorySetup::DdrOnly,
        MemorySetup::HyperOnly,
    ];

    /// Human-readable name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            MemorySetup::DdrWithLlc => "DDR4+LLC",
            MemorySetup::HyperWithLlc => "Hyper+LLC",
            MemorySetup::DdrOnly => "DDR4",
            MemorySetup::HyperOnly => "Hyper",
        }
    }
}

/// Full static configuration of a [`HulkV`](crate::HulkV) instance.
///
/// # Example
///
/// ```
/// use hulkv::{MemorySetup, SocConfig};
///
/// // The flagship chip: HyperRAM + 128 kB LLC.
/// let flagship = SocConfig::default();
/// assert!(flagship.llc.is_some());
///
/// // The Figure-7 baseline: raw DDR4, no LLC.
/// let baseline = SocConfig::with_memory_setup(MemorySetup::DdrOnly);
/// assert!(baseline.llc.is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Main-memory technology and parameters.
    pub main_memory: MainMemory,
    /// Last-level cache geometry; `None` removes the LLC.
    pub llc: Option<LlcConfig>,
    /// Host (CVA6) configuration.
    pub host: HostConfig,
    /// PMCA configuration.
    pub cluster: ClusterConfig,
    /// L2 scratchpad size (512 kB in HULK-V).
    pub l2spm_bytes: usize,
    /// Fixed driver/descriptor/mailbox cost of one offload, in SoC cycles
    /// (calibrated so that, with lazy code loading, sub-100k-cycle kernels
    /// see their speedup halved on the first call, as in Figure 6).
    pub offload_descriptor_cycles: u64,
}

impl Default for SocConfig {
    /// The flagship HULK-V: 512 MB HyperRAM behind a 128 kB LLC.
    fn default() -> Self {
        SocConfig {
            main_memory: MainMemory::HyperRam(HyperRamConfig::default()),
            llc: Some(LlcConfig::default()),
            host: HostConfig::default(),
            cluster: ClusterConfig::default(),
            l2spm_bytes: 512 * 1024,
            offload_descriptor_cycles: 1500,
        }
    }
}

impl SocConfig {
    /// Builds the configuration for one of the four Figure-7/8 memory
    /// setups, leaving everything else at the flagship defaults.
    pub fn with_memory_setup(setup: MemorySetup) -> Self {
        let mut cfg = SocConfig::default();
        match setup {
            MemorySetup::DdrWithLlc => {
                cfg.main_memory = MainMemory::Ddr(DdrConfig::default());
            }
            MemorySetup::HyperWithLlc => {}
            MemorySetup::DdrOnly => {
                cfg.main_memory = MainMemory::Ddr(DdrConfig::default());
                cfg.llc = None;
            }
            MemorySetup::HyperOnly => {
                cfg.llc = None;
            }
        }
        cfg
    }

    /// Main-memory capacity in bytes.
    pub fn main_memory_bytes(&self) -> u64 {
        match &self.main_memory {
            MainMemory::HyperRam(h) => h.total_bytes(),
            MainMemory::Ddr(d) => d.size_bytes,
        }
    }

    /// Serializes the full configuration — recording and snapshot headers
    /// embed this so a replay tool can rebuild an identical SoC from the
    /// file alone.
    pub fn to_json(&self) -> Json {
        let main = match &self.main_memory {
            MainMemory::HyperRam(h) => Json::obj([
                ("kind", Json::Str("hyperram".into())),
                ("chips_per_bus", hex(h.chips_per_bus as u64)),
                ("chip_bytes", hex(h.chip_bytes)),
                ("dual_bus", Json::Bool(h.dual_bus)),
                ("bus_freq_khz", hex(h.bus_freq.khz())),
                ("soc_freq_khz", hex(h.soc_freq.khz())),
                ("ca_cycles", hex(h.ca_cycles)),
                ("access_cycles", hex(h.access_cycles)),
                ("fixed_2x_latency", Json::Bool(h.fixed_2x_latency)),
                ("max_burst_bytes", hex(h.max_burst_bytes as u64)),
                ("frontend_cycles", hex(h.frontend_cycles)),
            ]),
            MainMemory::Ddr(d) => Json::obj([
                ("kind", Json::Str("ddr".into())),
                ("size_bytes", hex(d.size_bytes)),
                ("latency_cycles", hex(d.latency_cycles)),
                ("bytes_per_cycle", hex(d.bytes_per_cycle)),
            ]),
        };
        let llc = match &self.llc {
            None => Json::Null,
            Some(l) => Json::obj([
                ("blocks", hex(l.blocks as u64)),
                ("lines", hex(l.lines as u64)),
                ("ways", hex(l.ways as u64)),
                ("axi_bytes", hex(l.axi_bytes as u64)),
                ("hit_latency", hex(l.hit_latency.get())),
                ("cacheable_start", hex(l.cacheable_start)),
                ("cacheable_end", hex(l.cacheable_end)),
            ]),
        };
        let host = Json::obj([
            ("freq_khz", hex(self.host.freq.khz())),
            ("soc_freq_khz", hex(self.host.soc_freq.khz())),
            ("l1i_bytes", hex(self.host.l1i_bytes as u64)),
            ("l1d_bytes", hex(self.host.l1d_bytes as u64)),
            ("line_bytes", hex(self.host.line_bytes as u64)),
            ("caches_enabled", Json::Bool(self.host.caches_enabled)),
            ("cacheable_start", hex(self.host.cacheable_start)),
            ("decode_cache", Json::Bool(self.host.decode_cache)),
        ]);
        let cluster = Json::obj([
            ("cores", hex(self.cluster.cores as u64)),
            ("banks", hex(self.cluster.banks as u64)),
            ("bank_bytes", hex(self.cluster.bank_bytes as u64)),
            (
                "icache_private_bytes",
                hex(self.cluster.icache_private_bytes as u64),
            ),
            (
                "icache_shared_bytes",
                hex(self.cluster.icache_shared_bytes as u64),
            ),
            ("freq_khz", hex(self.cluster.freq.khz())),
            ("soc_freq_khz", hex(self.cluster.soc_freq.khz())),
            ("barrier_cycles", hex(self.cluster.barrier_cycles)),
            ("stack_bytes", hex(self.cluster.stack_bytes as u64)),
            ("decode_cache", Json::Bool(self.cluster.decode_cache)),
            ("quantum_cycles", hex(self.cluster.quantum_cycles)),
            ("workers", hex(self.cluster.workers as u64)),
            ("race_sanitizer", Json::Bool(self.cluster.race_sanitizer)),
        ]);
        Json::obj([
            ("main_memory", main),
            ("llc", llc),
            ("host", host),
            ("cluster", cluster),
            ("l2spm_bytes", hex(self.l2spm_bytes as u64)),
            (
                "offload_descriptor_cycles",
                hex(self.offload_descriptor_cycles),
            ),
        ])
    }

    /// Rebuilds a configuration written by [`SocConfig::to_json`].
    ///
    /// # Errors
    ///
    /// On a malformed or unknown-kind document.
    pub fn from_json(j: &Json) -> SnapResult<SocConfig> {
        // Retired boolean keys (`host.superblocks`, `cluster.superblocks`:
        // no core runs the block engine any more) that older documents
        // still carry: type-check them, then drop them.
        let retired_bool = |j: &Json, key: &str| -> SnapResult<()> {
            match j.get(key) {
                None | Some(Json::Bool(_)) => Ok(()),
                Some(other) => Err(SnapError::msg(format!(
                    "{key:?}: expected bool, got {other}"
                ))),
            }
        };
        // Optional-with-default integer: configs predating the quantum
        // team engine lack its keys, and the engine is bit-compatible with
        // the old serial loop, so defaulting keeps old snapshots
        // restoring. `workers` is read and written only so configs
        // round-trip unchanged; the engine ignores it.
        let opt_u64 = |j: &Json, key: &str, default: u64| -> SnapResult<u64> {
            match j.get(key) {
                None => Ok(default),
                Some(v) => hulkv_sim::snap::unhex(v),
            }
        };
        let m = get(j, "main_memory")?;
        let main_memory = match get(m, "kind")?.as_str() {
            Some("hyperram") => MainMemory::HyperRam(HyperRamConfig {
                chips_per_bus: get_u64(m, "chips_per_bus")? as usize,
                chip_bytes: get_u64(m, "chip_bytes")?,
                dual_bus: get_bool(m, "dual_bus")?,
                bus_freq: Freq::khz_new(get_u64(m, "bus_freq_khz")?),
                soc_freq: Freq::khz_new(get_u64(m, "soc_freq_khz")?),
                ca_cycles: get_u64(m, "ca_cycles")?,
                access_cycles: get_u64(m, "access_cycles")?,
                fixed_2x_latency: get_bool(m, "fixed_2x_latency")?,
                max_burst_bytes: get_u64(m, "max_burst_bytes")? as usize,
                frontend_cycles: get_u64(m, "frontend_cycles")?,
            }),
            Some("ddr") => MainMemory::Ddr(DdrConfig {
                size_bytes: get_u64(m, "size_bytes")?,
                latency_cycles: get_u64(m, "latency_cycles")?,
                bytes_per_cycle: get_u64(m, "bytes_per_cycle")?,
            }),
            other => {
                return Err(SnapError::msg(format!(
                    "unknown main-memory kind {other:?}"
                )))
            }
        };
        let llc = match get(j, "llc")? {
            Json::Null => None,
            l => Some(LlcConfig {
                blocks: get_u64(l, "blocks")? as usize,
                lines: get_u64(l, "lines")? as usize,
                ways: get_u64(l, "ways")? as usize,
                axi_bytes: get_u64(l, "axi_bytes")? as usize,
                hit_latency: Cycles::new(get_u64(l, "hit_latency")?),
                cacheable_start: get_u64(l, "cacheable_start")?,
                cacheable_end: get_u64(l, "cacheable_end")?,
            }),
        };
        let h = get(j, "host")?;
        retired_bool(h, "superblocks")?;
        let host = HostConfig {
            freq: Freq::khz_new(get_u64(h, "freq_khz")?),
            soc_freq: Freq::khz_new(get_u64(h, "soc_freq_khz")?),
            l1i_bytes: get_u64(h, "l1i_bytes")? as usize,
            l1d_bytes: get_u64(h, "l1d_bytes")? as usize,
            line_bytes: get_u64(h, "line_bytes")? as usize,
            caches_enabled: get_bool(h, "caches_enabled")?,
            cacheable_start: get_u64(h, "cacheable_start")?,
            decode_cache: get_bool(h, "decode_cache")?,
        };
        let c = get(j, "cluster")?;
        retired_bool(c, "superblocks")?;
        let cluster = ClusterConfig {
            cores: get_u64(c, "cores")? as usize,
            banks: get_u64(c, "banks")? as usize,
            bank_bytes: get_u64(c, "bank_bytes")? as usize,
            icache_private_bytes: get_u64(c, "icache_private_bytes")? as usize,
            icache_shared_bytes: get_u64(c, "icache_shared_bytes")? as usize,
            freq: Freq::khz_new(get_u64(c, "freq_khz")?),
            soc_freq: Freq::khz_new(get_u64(c, "soc_freq_khz")?),
            barrier_cycles: get_u64(c, "barrier_cycles")?,
            stack_bytes: get_u64(c, "stack_bytes")? as usize,
            decode_cache: get_bool(c, "decode_cache")?,
            quantum_cycles: opt_u64(c, "quantum_cycles", 4096)?,
            workers: opt_u64(c, "workers", 0)? as usize,
            // Optional-with-default-*false*: configs predating the race
            // sanitizer behaved exactly like sanitizer-off (it did not
            // exist), unlike the `opt_bool` keys above.
            race_sanitizer: match c.get("race_sanitizer") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(other) => {
                    return Err(SnapError::msg(format!(
                        "\"race_sanitizer\": expected bool, got {other}"
                    )))
                }
            },
        };
        Ok(SocConfig {
            main_memory,
            llc,
            host,
            cluster,
            l2spm_bytes: get_u64(j, "l2spm_bytes")? as usize,
            offload_descriptor_cycles: get_u64(j, "offload_descriptor_cycles")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_flagship() {
        let cfg = SocConfig::default();
        assert!(matches!(cfg.main_memory, MainMemory::HyperRam(_)));
        assert_eq!(cfg.main_memory_bytes(), 512 << 20);
        assert_eq!(cfg.l2spm_bytes, 512 * 1024);
    }

    #[test]
    fn memory_setups_cover_the_grid() {
        for setup in MemorySetup::ALL {
            let cfg = SocConfig::with_memory_setup(setup);
            let is_ddr = matches!(cfg.main_memory, MainMemory::Ddr(_));
            let has_llc = cfg.llc.is_some();
            match setup {
                MemorySetup::DdrWithLlc => assert!(is_ddr && has_llc),
                MemorySetup::HyperWithLlc => assert!(!is_ddr && has_llc),
                MemorySetup::DdrOnly => assert!(is_ddr && !has_llc),
                MemorySetup::HyperOnly => assert!(!is_ddr && !has_llc),
            }
        }
    }

    #[test]
    fn setup_names_unique() {
        let names: std::collections::HashSet<_> =
            MemorySetup::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
