//! An address-routed interconnect modeling the host AXI4 crossbar.

use crate::device::Traffic;
use crate::{MemoryDevice, SharedMem};
use hulkv_sim::{Cycles, SimError, Stats};

struct Region {
    name: String,
    base: u64,
    size: u64,
    device: SharedMem,
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("name", &self.name)
            .field("base", &format_args!("{:#x}", self.base))
            .field("size", &format_args!("{:#x}", self.size))
            .finish()
    }
}

/// The high-bandwidth, low-latency 64-bit AXI4 crossbar of the host domain.
///
/// Routes global physical addresses to slave devices by region and charges a
/// fixed crossbar traversal latency per transaction. Accesses must not span
/// a region boundary (AXI bursts never cross slaves).
///
/// The bus itself implements [`MemoryDevice`] — its offsets are global
/// addresses — so caches and cores can treat it as their backing store.
///
/// # Example
///
/// ```
/// use hulkv_mem::{shared, Bus, MemoryDevice, Sram};
/// use hulkv_sim::Cycles;
///
/// let mut bus = Bus::new("axi", Cycles::new(2));
/// bus.map("l2spm", 0x1C00_0000, shared(Sram::new("l2spm", 4096, Cycles::new(1))))?;
/// bus.write_u32(0x1C00_0010, 42)?;
/// assert_eq!(bus.read_u32(0x1C00_0010)?.0, 42);
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Bus {
    regions: Vec<Region>,
    latency: Cycles,
    stats: Stats,
    traffic: Traffic,
}

impl Bus {
    /// Creates an empty bus charging `latency` per routed transaction.
    pub fn new(name: impl Into<String>, latency: Cycles) -> Self {
        Bus {
            regions: Vec::new(),
            latency,
            stats: Stats::new(name),
            traffic: Traffic::default(),
        }
    }

    /// Maps `device` at `base`; the region size is the device size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the region overlaps an
    /// existing mapping.
    pub fn map(
        &mut self,
        name: impl Into<String>,
        base: u64,
        device: SharedMem,
    ) -> Result<(), SimError> {
        let size = device.borrow().size_bytes();
        let name = name.into();
        for r in &self.regions {
            let overlap = base < r.base + r.size && r.base < base + size;
            if overlap {
                return Err(SimError::InvalidConfig(format!(
                    "region {name} [{base:#x}..) overlaps {}",
                    r.name
                )));
            }
        }
        self.regions.push(Region {
            name,
            base,
            size,
            device,
        });
        self.regions.sort_by_key(|r| r.base);
        Ok(())
    }

    /// Returns `(device, local_offset, region_name)` for a global address
    /// range, or an unmapped/straddle error.
    fn route(&self, addr: u64, len: usize) -> Result<(&Region, u64), SimError> {
        let region = self
            .regions
            .iter()
            .find(|r| addr >= r.base && addr < r.base + r.size)
            .ok_or(SimError::UnmappedAddress { addr })?;
        if addr + len as u64 > region.base + region.size {
            return Err(SimError::OutOfRange {
                what: "bus transaction end",
                value: addr + len as u64,
                limit: region.base + region.size,
            });
        }
        Ok((region, addr - region.base))
    }

    /// Iterates over `(name, base, size)` of the mapped regions.
    pub fn regions(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.regions
            .iter()
            .map(|r| (r.name.as_str(), r.base, r.size))
    }

    /// Returns the device mapped with `name`, if any.
    pub fn device(&self, name: &str) -> Option<SharedMem> {
        self.regions
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.device.clone())
    }

    /// Serializes the crossbar's only mutable state — its traffic counters.
    /// Mapped devices are snapshotted by their owners, not through the bus.
    pub fn snapshot_json(&self) -> hulkv_sim::Json {
        hulkv_sim::snap::stats_to_json(&self.stats)
    }

    /// Restores counters written by [`Bus::snapshot_json`].
    ///
    /// # Errors
    ///
    /// On a malformed section.
    pub fn restore_json(&mut self, j: &hulkv_sim::Json) -> hulkv_sim::SnapResult<()> {
        hulkv_sim::snap::restore_stats(&mut self.stats, j)
    }
}

impl MemoryDevice for Bus {
    fn size_bytes(&self) -> u64 {
        self.regions.last().map(|r| r.base + r.size).unwrap_or(0)
    }

    fn peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        let (region, local) = self.route(offset, buf.len())?;
        region.device.borrow().peek(local, buf)
    }

    fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        let (region, local) = self.route(offset, buf.len())?;
        let device = region.device.clone();
        let lat = device.borrow_mut().read(local, buf)?;
        self.traffic.read(&mut self.stats, buf.len());
        Ok(lat + self.latency)
    }

    fn write(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError> {
        let (region, local) = self.route(offset, data.len())?;
        let device = region.device.clone();
        let lat = device.borrow_mut().write(local, data)?;
        self.traffic.write(&mut self.stats, data.len());
        Ok(lat + self.latency)
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn attach_tracer(&mut self, tracer: hulkv_sim::SharedTracer) {
        for region in &self.regions {
            region.device.borrow_mut().attach_tracer(tracer.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{shared, Sram};

    fn bus_with_two_regions() -> Bus {
        let mut bus = Bus::new("axi", Cycles::new(2));
        bus.map("a", 0x1000, shared(Sram::new("a", 256, Cycles::new(1))))
            .unwrap();
        bus.map("b", 0x8000, shared(Sram::new("b", 256, Cycles::new(3))))
            .unwrap();
        bus
    }

    #[test]
    fn routes_by_address() {
        let mut bus = bus_with_two_regions();
        bus.write(0x1000, &[1]).unwrap();
        bus.write(0x8000, &[2]).unwrap();
        let a = bus.device("a").unwrap();
        let b = bus.device("b").unwrap();
        let mut buf = [0u8; 1];
        a.borrow_mut().read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        b.borrow_mut().read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn adds_crossbar_latency() {
        let mut bus = bus_with_two_regions();
        let mut buf = [0u8; 1];
        assert_eq!(bus.read(0x1000, &mut buf).unwrap(), Cycles::new(3)); // 1+2
        assert_eq!(bus.read(0x8000, &mut buf).unwrap(), Cycles::new(5)); // 3+2
    }

    #[test]
    fn unmapped_address_faults() {
        let mut bus = bus_with_two_regions();
        let mut buf = [0u8; 1];
        assert!(matches!(
            bus.read(0x0, &mut buf),
            Err(SimError::UnmappedAddress { addr: 0 })
        ));
    }

    #[test]
    fn straddling_transaction_rejected() {
        let mut bus = bus_with_two_regions();
        let mut buf = [0u8; 8];
        assert!(bus.read(0x10FC, &mut buf).is_err());
    }

    #[test]
    fn overlapping_region_rejected() {
        let mut bus = bus_with_two_regions();
        let r = bus.map("c", 0x10FF, shared(Sram::new("c", 16, Cycles::new(1))));
        assert!(r.is_err());
    }

    #[test]
    fn region_listing() {
        let bus = bus_with_two_regions();
        let regions: Vec<_> = bus.regions().collect();
        assert_eq!(regions[0], ("a", 0x1000, 256));
        assert_eq!(regions[1], ("b", 0x8000, 256));
        assert_eq!(bus.size_bytes(), 0x8000 + 256);
    }
}
