//! Dense on-chip SRAM scratchpads.

use crate::device::{check_range, Traffic};
use crate::MemoryDevice;
use hulkv_sim::{Cycles, SimError, Stats};

/// An on-chip SRAM with a fixed access latency.
///
/// Models the 512 kB L2SPM of the host domain and any other dense on-chip
/// storage. Accesses of any size complete in the configured latency — the
/// SRAM macro is as wide as the interconnect, and wider software accesses
/// are already split by the requesting master (core or DMA).
///
/// # Example
///
/// ```
/// use hulkv_mem::{MemoryDevice, Sram};
/// use hulkv_sim::Cycles;
///
/// let mut l2 = Sram::new("l2spm", 512 * 1024, Cycles::new(1));
/// l2.write(0x40, b"hulk")?;
/// let mut buf = [0u8; 4];
/// assert_eq!(l2.read(0x40, &mut buf)?, Cycles::new(1));
/// assert_eq!(&buf, b"hulk");
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sram {
    data: Vec<u8>,
    latency: Cycles,
    stats: Stats,
    traffic: Traffic,
}

impl Sram {
    /// Creates a zero-initialized SRAM of `size` bytes with a uniform access
    /// `latency`.
    pub fn new(name: impl Into<String>, size: usize, latency: Cycles) -> Self {
        Sram {
            data: vec![0; size],
            latency,
            stats: Stats::new(name),
            traffic: Traffic::default(),
        }
    }

    /// Direct backdoor view of the contents (no timing, no stats). Used by
    /// loaders and test harnesses.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Direct mutable backdoor view of the contents (no timing, no stats).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Mutable access to the activity counters. Backdoor for engines that
    /// simulate accesses against a private image and settle the counters
    /// canonically afterwards (the cluster's deterministic quantum team
    /// engine): `MemoryDevice::read`/`write` bump the same keys
    /// (`reads`/`bytes_read`/`writes`/`bytes_written`) one access at a time.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// FNV-1a digest of the full contents (no timing, no stats). Used by
    /// the differential co-simulation driver to compare memory images
    /// between two runs in O(1) driver state.
    pub fn content_digest(&self) -> u64 {
        hulkv_sim::Fnv64::new().write(&self.data).finish()
    }

    /// Serializes contents (page-compact) and stats into `snap`. Reads
    /// nothing through [`MemoryDevice`], so taking a snapshot perturbs no
    /// counters.
    pub fn snapshot_into(&self, snap: &mut hulkv_sim::Snapshot) -> hulkv_sim::Json {
        use hulkv_sim::snap::stats_to_json;
        let contents = snap.push_pages(&self.data);
        hulkv_sim::Json::obj([
            ("contents", contents),
            ("stats", stats_to_json(&self.stats)),
        ])
    }

    /// Restores state written by [`Sram::snapshot_into`]. The SRAM must have
    /// been constructed with the same size.
    ///
    /// # Errors
    ///
    /// On size mismatch or a malformed section.
    pub fn restore_from(
        &mut self,
        snap: &hulkv_sim::Snapshot,
        j: &hulkv_sim::Json,
    ) -> hulkv_sim::SnapResult<()> {
        use hulkv_sim::snap::{get, restore_stats};
        snap.restore_pages(get(j, "contents")?, &mut self.data)?;
        restore_stats(&mut self.stats, get(j, "stats")?)
    }
}

impl MemoryDevice for Sram {
    fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    fn peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        check_range(offset, buf.len(), self.size_bytes())?;
        let o = offset as usize;
        buf.copy_from_slice(&self.data[o..o + buf.len()]);
        Ok(())
    }

    fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles, SimError> {
        check_range(offset, buf.len(), self.size_bytes())?;
        let o = offset as usize;
        buf.copy_from_slice(&self.data[o..o + buf.len()]);
        self.traffic.read(&mut self.stats, buf.len());
        Ok(self.latency)
    }

    fn write(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError> {
        check_range(offset, data.len(), self.size_bytes())?;
        let o = offset as usize;
        self.data[o..o + data.len()].copy_from_slice(data);
        self.traffic.write(&mut self.stats, data.len());
        Ok(self.latency)
    }

    fn stats(&self) -> &Stats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut s = Sram::new("s", 128, Cycles::new(2));
        let lat = s.write(10, &[1, 2, 3]).unwrap();
        assert_eq!(lat, Cycles::new(2));
        let mut buf = [0u8; 3];
        s.read(10, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut s = Sram::new("s", 8, Cycles::new(1));
        assert!(s.write(6, &[0; 4]).is_err());
        let mut b = [0u8; 2];
        assert!(s.read(7, &mut b).is_err());
        // Boundary access is fine.
        assert!(s.read(6, &mut b).is_ok());
    }

    #[test]
    fn stats_track_traffic() {
        let mut s = Sram::new("s", 64, Cycles::new(1));
        s.write(0, &[0; 16]).unwrap();
        let mut b = [0u8; 8];
        s.read(0, &mut b).unwrap();
        s.read(8, &mut b).unwrap();
        assert_eq!(s.stats().get("writes"), 1);
        assert_eq!(s.stats().get("bytes_written"), 16);
        assert_eq!(s.stats().get("reads"), 2);
        assert_eq!(s.stats().get("bytes_read"), 16);
        s.reset_stats();
        assert_eq!(s.stats().get("reads"), 0);
    }

    #[test]
    fn backdoor_views() {
        let mut s = Sram::new("s", 4, Cycles::new(1));
        s.as_mut_slice()[3] = 0xFF;
        assert_eq!(s.as_slice()[3], 0xFF);
        assert_eq!(s.stats().get("writes"), 0);
    }

    #[test]
    fn zero_initialized() {
        let mut s = Sram::new("s", 32, Cycles::new(1));
        let mut b = [1u8; 32];
        s.read(0, &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
    }
}
