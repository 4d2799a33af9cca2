//! Physical frame identifiers and the frame allocator.

use crate::{MemError, PhysAddr, Result, PAGE_SHIFT};
use std::fmt;

/// Identifier of one physical page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(u64);

impl FrameId {
    /// Creates a frame id from a raw frame number.
    pub const fn new(raw: u64) -> Self {
        FrameId(raw)
    }

    /// Raw frame number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Base physical address of this frame.
    pub const fn base(self) -> PhysAddr {
        PhysAddr::new(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame:{:#x}", self.0)
    }
}

/// A physical frame allocator.
///
/// Frames are handed out from a bump pointer; freed frames are marked in a
/// free bitmap and reused lowest-first so allocation patterns are
/// deterministic — important for reproducible simulation runs. The bitmap
/// covers only frames below the bump pointer and grows as frames are freed,
/// so a host with gigabytes of simulated DRAM costs nothing until it churns.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total: u64,
    next_fresh: u64,
    /// Bit `f % 64` of word `f / 64` is set while frame `f` is free.
    free: Vec<u64>,
    free_count: u64,
    /// Every word of `free` below this index is zero, so the lowest free
    /// frame is found by scanning forward from here.
    cursor: usize,
}

impl FrameAllocator {
    /// Creates an allocator managing `total` frames.
    pub fn new(total: u64) -> Self {
        FrameAllocator {
            total,
            next_fresh: 0,
            free: Vec::new(),
            free_count: 0,
            cursor: 0,
        }
    }

    /// Total number of frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Number of frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        self.next_fresh - self.free_count
    }

    /// Number of frames still available.
    pub fn free_frames(&self) -> u64 {
        self.total - self.allocated_frames()
    }

    /// Allocates one frame: the lowest freed frame if there is one, else
    /// the next never-allocated frame.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when all frames are in use.
    pub fn alloc(&mut self) -> Result<FrameId> {
        if self.free_count > 0 {
            // A free bit exists at or above the cursor, so the scan stops
            // inside the bitmap.
            while self.free[self.cursor] == 0 {
                self.cursor += 1;
            }
            let word = &mut self.free[self.cursor];
            let bit = u64::from(word.trailing_zeros());
            *word &= *word - 1;
            self.free_count -= 1;
            return Ok(FrameId(self.cursor as u64 * 64 + bit));
        }
        if self.next_fresh < self.total {
            let id = self.next_fresh;
            self.next_fresh += 1;
            Ok(FrameId(id))
        } else {
            Err(MemError::OutOfFrames)
        }
    }

    /// Returns a frame to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the frame was never allocated or is freed twice; both are
    /// simulator bugs rather than recoverable conditions.
    pub fn free(&mut self, frame: FrameId) {
        assert!(
            frame.0 < self.next_fresh,
            "freeing frame {frame} that was never allocated"
        );
        let word = (frame.0 / 64) as usize;
        let mask = 1u64 << (frame.0 % 64);
        if word >= self.free.len() {
            self.free.resize(word + 1, 0);
        }
        assert!(self.free[word] & mask == 0, "double free of frame {frame}");
        self.free[word] |= mask;
        self.free_count += 1;
        self.cursor = self.cursor.min(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_sequential_then_reuses_lowest() {
        let mut a = FrameAllocator::new(4);
        let f0 = a.alloc().unwrap();
        let f1 = a.alloc().unwrap();
        let f2 = a.alloc().unwrap();
        assert_eq!((f0.number(), f1.number(), f2.number()), (0, 1, 2));
        a.free(f1);
        a.free(f0);
        assert_eq!(a.alloc().unwrap().number(), 0, "lowest freed frame first");
        assert_eq!(a.alloc().unwrap().number(), 1);
        assert_eq!(a.alloc().unwrap().number(), 3);
        assert_eq!(a.alloc(), Err(MemError::OutOfFrames));
    }

    #[test]
    fn accounting_tracks_alloc_and_free() {
        let mut a = FrameAllocator::new(10);
        assert_eq!(a.free_frames(), 10);
        let f = a.alloc().unwrap();
        assert_eq!(a.allocated_frames(), 1);
        a.free(f);
        assert_eq!(a.allocated_frames(), 0);
        assert_eq!(a.free_frames(), 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(2);
        let f = a.alloc().unwrap();
        a.free(f);
        a.free(f);
    }

    #[test]
    fn reuse_scans_across_bitmap_words() {
        let mut a = FrameAllocator::new(256);
        let frames: Vec<FrameId> = (0..200).map(|_| a.alloc().unwrap()).collect();
        for n in [190, 70, 5, 64] {
            a.free(frames[n]);
        }
        let got: Vec<u64> = (0..5).map(|_| a.alloc().unwrap().number()).collect();
        assert_eq!(got, [5, 64, 70, 190, 200]);
        assert_eq!(a.allocated_frames(), 201);
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn free_of_never_allocated_frame_panics() {
        let mut a = FrameAllocator::new(8);
        a.alloc().unwrap();
        a.free(FrameId::new(1));
    }

    #[test]
    fn frame_base_address() {
        assert_eq!(FrameId::new(3).base().raw(), 3 * crate::PAGE_SIZE);
    }
}
