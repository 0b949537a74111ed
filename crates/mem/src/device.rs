//! The common memory-device trait.

use hulkv_sim::{Cycles, SharedTracer, SimError, Stats, StatsHandle};
use std::cell::RefCell;
use std::rc::Rc;

/// A shared, interiorly mutable handle to a memory device.
///
/// The HULK-V simulator is single-threaded, so `Rc<RefCell<…>>` gives the
/// many-masters-one-slave topology of the AXI crossbar without locking.
pub type SharedMem = Rc<RefCell<dyn MemoryDevice>>;

/// Wraps a device into a [`SharedMem`] handle.
///
/// # Example
///
/// ```
/// use hulkv_mem::{shared, Sram, MemoryDevice};
///
/// let spm = shared(Sram::new("l2spm", 512 * 1024, hulkv_sim::Cycles::new(1)));
/// spm.borrow_mut().write(0, &[0xAB])?;
/// # Ok::<(), hulkv_sim::SimError>(())
/// ```
pub fn shared<T: MemoryDevice + 'static>(device: T) -> SharedMem {
    Rc::new(RefCell::new(device))
}

/// A byte-addressable memory device with access timing.
///
/// Every storage and interconnect block in the model implements this trait:
/// scratchpads, caches, DRAM controllers, and buses. An access both moves
/// data *and* reports the number of cycles it occupied the device, in the
/// device's own clock domain — callers sitting in a different domain convert
/// with [`ClockDomain::convert`](hulkv_sim::ClockDomain::convert).
///
/// The timing model is latency-additive: contention between masters is not
/// simulated cycle-by-cycle, which is accurate for the fork/join workloads
/// of the paper where host and cluster rarely contend for the same slave.
pub trait MemoryDevice: std::fmt::Debug {
    /// The device capacity in bytes. Offsets in `read`/`write` must satisfy
    /// `offset + buf.len() <= size_bytes()`.
    fn size_bytes(&self) -> u64;

    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if the access exceeds the device
    /// size, or a device-specific error.
    fn read(&mut self, offset: u64, buf: &mut [u8]) -> Result<Cycles, SimError>;

    /// Writes `data` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if the access exceeds the device
    /// size, or a device-specific error.
    fn write(&mut self, offset: u64, data: &[u8]) -> Result<Cycles, SimError>;

    /// Activity counters of this device.
    fn stats(&self) -> &Stats;

    /// Resets the activity counters (e.g. after a warm-up phase).
    fn reset_stats(&mut self);

    /// Attaches a structured SoC tracer to this device and everything it
    /// wraps. The default is a no-op: devices without trace-worthy events
    /// (plain SRAMs) ignore it, while caches, DRAM controllers and
    /// interconnects override it to record on their tracks and to propagate
    /// the handle downstream.
    fn attach_tracer(&mut self, tracer: SharedTracer) {
        let _ = tracer;
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`MemoryDevice::read`].
    fn read_u32(&mut self, offset: u64) -> Result<(u32, Cycles), SimError> {
        let mut b = [0u8; 4];
        let lat = self.read(offset, &mut b)?;
        Ok((u32::from_le_bytes(b), lat))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`MemoryDevice::read`].
    fn read_u64(&mut self, offset: u64) -> Result<(u64, Cycles), SimError> {
        let mut b = [0u8; 8];
        let lat = self.read(offset, &mut b)?;
        Ok((u64::from_le_bytes(b), lat))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`MemoryDevice::write`].
    fn write_u32(&mut self, offset: u64, value: u32) -> Result<Cycles, SimError> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`MemoryDevice::write`].
    fn write_u64(&mut self, offset: u64, value: u64) -> Result<Cycles, SimError> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Side-effect-free read for debugger and observability backdoors: no
    /// latency is charged, no counter bumps, no LRU/claim/FIFO mutation.
    /// Caches overlay their resident lines over the backing store so the
    /// bytes match what [`MemoryDevice::read`] would return.
    ///
    /// # Errors
    ///
    /// [`SimError::Model`] on devices without a peekable image (default),
    /// or range/routing errors as for reads.
    fn peek(&self, offset: u64, buf: &mut [u8]) -> Result<(), SimError> {
        let _ = (offset, buf);
        Err(SimError::Model(
            "device has no side-effect-free peek".into(),
        ))
    }
}

/// The `reads`/`bytes_read`/`writes`/`bytes_written` counters the bus and
/// every storage device keep, bumped through handles registered on first
/// use ([`Stats::add_cached`]): no per-access key search, and a device
/// that was never read or written shows no zero-valued keys.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Traffic {
    reads: Option<StatsHandle>,
    bytes_read: Option<StatsHandle>,
    writes: Option<StatsHandle>,
    bytes_written: Option<StatsHandle>,
}

impl Traffic {
    /// Counts one read of `bytes` bytes.
    #[inline]
    pub(crate) fn read(&mut self, stats: &mut Stats, bytes: usize) {
        stats.add_cached(&mut self.reads, "reads", 1);
        stats.add_cached(&mut self.bytes_read, "bytes_read", bytes as u64);
    }

    /// Counts one write of `bytes` bytes.
    #[inline]
    pub(crate) fn write(&mut self, stats: &mut Stats, bytes: usize) {
        stats.add_cached(&mut self.writes, "writes", 1);
        stats.add_cached(&mut self.bytes_written, "bytes_written", bytes as u64);
    }
}

/// Validates that `offset + len` stays within `size`, returning a
/// [`SimError::OutOfRange`] otherwise. Shared by device implementations.
pub(crate) fn check_range(offset: u64, len: usize, size: u64) -> Result<(), SimError> {
    let end = offset.checked_add(len as u64).ok_or(SimError::OutOfRange {
        what: "access end",
        value: offset,
        limit: size,
    })?;
    if end > size {
        return Err(SimError::OutOfRange {
            what: "access end",
            value: end,
            limit: size,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sram;

    #[test]
    fn word_helpers_round_trip() {
        let mut m = Sram::new("t", 64, Cycles::new(1));
        m.write_u32(0, 0xDEAD_BEEF).unwrap();
        m.write_u64(8, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.read_u32(0).unwrap().0, 0xDEAD_BEEF);
        assert_eq!(m.read_u64(8).unwrap().0, 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn check_range_rejects_overflow() {
        assert!(check_range(u64::MAX - 1, 4, u64::MAX).is_err());
        assert!(check_range(0, 4, 4).is_ok());
        assert!(check_range(1, 4, 4).is_err());
    }

    #[test]
    fn shared_handle_gives_interior_mutability() {
        let m = shared(Sram::new("s", 16, Cycles::new(1)));
        m.borrow_mut().write(0, &[7]).unwrap();
        let mut b = [0u8; 1];
        m.borrow_mut().read(0, &mut b).unwrap();
        assert_eq!(b[0], 7);
    }
}
