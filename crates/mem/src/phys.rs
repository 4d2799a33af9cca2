//! Byte-addressable simulated physical memory.

use crate::{FrameAllocator, FrameId, MemError, PhysAddr, Result, PAGE_SIZE};

/// Simulated host DRAM.
///
/// Storage is materialized one frame at a time on first write, so a host with
/// gigabytes of simulated DRAM costs almost nothing until data is actually
/// placed in it. Reads of frames that were never written observe zeros, like
/// demand-zero memory on a real OS.
///
/// Frame bytes live in a vector indexed by frame number. The allocator hands
/// frames out lowest-first, so the vector is only as long as the highest
/// frame ever written, and reaching a frame costs one index rather than a
/// hash probe.
#[derive(Debug)]
pub struct PhysicalMemory {
    allocator: FrameAllocator,
    data: Vec<Option<Box<[u8]>>>,
    resident: usize,
}

impl PhysicalMemory {
    /// Creates a physical memory with `total_frames` frames of 4 KB.
    pub fn new(total_frames: u64) -> Self {
        PhysicalMemory {
            allocator: FrameAllocator::new(total_frames),
            data: Vec::new(),
            resident: 0,
        }
    }

    /// The frame allocator for this memory.
    pub fn allocator(&self) -> &FrameAllocator {
        &self.allocator
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when DRAM is exhausted.
    pub fn alloc_frame(&mut self) -> Result<FrameId> {
        self.allocator.alloc()
    }

    /// Frees one frame, dropping its contents.
    pub fn free_frame(&mut self, frame: FrameId) {
        if let Some(slot) = self.data.get_mut(frame.number() as usize) {
            if slot.take().is_some() {
                self.resident -= 1;
            }
        }
        self.allocator.free(frame);
    }

    /// The stored bytes of frame `number`, if it was ever written.
    fn frame(&self, number: u64) -> Option<&[u8]> {
        self.data.get(number as usize)?.as_deref()
    }

    /// The stored bytes of frame `number`, materialized as zeros first if
    /// it was never written. The caller has range-checked `number`.
    fn frame_mut(&mut self, number: u64) -> &mut [u8] {
        let ix = number as usize;
        if ix >= self.data.len() {
            self.data.resize_with(ix + 1, || None);
        }
        let slot = &mut self.data[ix];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.allocator.total_frames() * PAGE_SIZE
    }

    fn check_range(&self, addr: PhysAddr, len: usize) -> Result<()> {
        let end = addr.raw().checked_add(len as u64);
        match end {
            Some(end) if end <= self.size_bytes() => Ok(()),
            _ => Err(MemError::PhysOutOfRange { addr, len }),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// The range may span frame boundaries. Unwritten memory reads as zero.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the range exceeds DRAM.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<()> {
        self.check_range(addr, buf.len())?;
        let mut cursor = addr.raw();
        let mut filled = 0usize;
        while filled < buf.len() {
            let frame = cursor / PAGE_SIZE;
            let off = (cursor % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - filled);
            match self.frame(frame) {
                Some(bytes) => {
                    buf[filled..filled + chunk].copy_from_slice(&bytes[off..off + chunk])
                }
                None => buf[filled..filled + chunk].fill(0),
            }
            filled += chunk;
            cursor += chunk as u64;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`, materializing frames as needed.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the range exceeds DRAM.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<()> {
        self.check_range(addr, buf.len())?;
        let mut cursor = addr.raw();
        let mut consumed = 0usize;
        while consumed < buf.len() {
            let frame = cursor / PAGE_SIZE;
            let off = (cursor % PAGE_SIZE) as usize;
            let chunk = ((PAGE_SIZE as usize) - off).min(buf.len() - consumed);
            let bytes = self.frame_mut(frame);
            bytes[off..off + chunk].copy_from_slice(&buf[consumed..consumed + chunk]);
            consumed += chunk;
            cursor += chunk as u64;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr` (used by page-table walkers).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the word exceeds DRAM.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the word exceeds DRAM.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<()> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Fills every word of `frame` with the little-endian `value` — one
    /// call in place of `PAGE_SIZE / 8` [`write_u64`](Self::write_u64)s,
    /// as when a translation table is initialized with the garbage address.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PhysOutOfRange`] if the frame exceeds DRAM.
    pub fn fill_u64(&mut self, frame: FrameId, value: u64) -> Result<()> {
        self.check_range(frame.base(), PAGE_SIZE as usize)?;
        let word = value.to_le_bytes();
        for chunk in self.frame_mut(frame.number()).chunks_exact_mut(8) {
            chunk.copy_from_slice(&word);
        }
        Ok(())
    }

    /// Number of frames whose storage has been materialized.
    pub fn resident_frames(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = PhysicalMemory::new(16);
        let mut buf = [0xAAu8; 8];
        mem.read(PhysAddr::new(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn write_then_read_roundtrips_across_frames() {
        let mut mem = PhysicalMemory::new(16);
        let addr = PhysAddr::new(PAGE_SIZE - 3);
        let payload = b"straddling frame boundary";
        mem.write(addr, payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        mem.read(addr, &mut back).unwrap();
        assert_eq!(&back, payload);
        assert_eq!(mem.resident_frames(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mem = PhysicalMemory::new(1);
        let past_end = PhysAddr::new(PAGE_SIZE - 1);
        assert!(matches!(
            mem.write(past_end, &[1, 2]),
            Err(MemError::PhysOutOfRange { .. })
        ));
        let mut b = [0u8; 2];
        assert!(matches!(
            mem.read(past_end, &mut b),
            Err(MemError::PhysOutOfRange { .. })
        ));
        // Exactly at the edge is fine.
        mem.write(past_end, &[7]).unwrap();
    }

    #[test]
    fn u64_roundtrip() {
        let mut mem = PhysicalMemory::new(4);
        mem.write_u64(PhysAddr::new(8), 0xDEAD_BEEF_CAFE_F00D)
            .unwrap();
        assert_eq!(
            mem.read_u64(PhysAddr::new(8)).unwrap(),
            0xDEAD_BEEF_CAFE_F00D
        );
    }

    #[test]
    fn fill_u64_sets_every_word_of_one_frame() {
        let mut mem = PhysicalMemory::new(4);
        let f = FrameId::new(2);
        mem.fill_u64(f, 0x1234_5678_9ABC_DEF0).unwrap();
        for i in 0..PAGE_SIZE / 8 {
            let addr = f.base().offset(i * 8);
            assert_eq!(mem.read_u64(addr).unwrap(), 0x1234_5678_9ABC_DEF0);
        }
        assert_eq!(mem.read_u64(FrameId::new(1).base()).unwrap(), 0);
        assert_eq!(mem.read_u64(FrameId::new(3).base()).unwrap(), 0);
        assert_eq!(mem.resident_frames(), 1);
        assert!(matches!(
            mem.fill_u64(FrameId::new(4), 1),
            Err(MemError::PhysOutOfRange { .. })
        ));
    }

    #[test]
    fn freeing_frame_drops_contents() {
        let mut mem = PhysicalMemory::new(4);
        let f = mem.alloc_frame().unwrap();
        mem.write(f.base(), b"x").unwrap();
        mem.free_frame(f);
        let f2 = mem.alloc_frame().unwrap();
        assert_eq!(f, f2, "lowest frame is reused");
        assert_eq!(mem.resident_frames(), 0);
        let mut b = [0xFFu8; 1];
        mem.read(f2.base(), &mut b).unwrap();
        assert_eq!(b[0], 0, "recycled frame reads as zero");
    }
}
