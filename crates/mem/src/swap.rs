//! A minimal swap device.
//!
//! Paper §3.3: "In rare situations, the second-level translation tables in
//! the Hierarchical-UTLB occupy too much physical memory. A solution ... is
//! to manage the second-level translation tables in the same manner as
//! virtual memory paging": a presence bit in the top-level directory says
//! whether the second-level table is in DRAM or on disk, and the directory
//! entry then holds a disk block number. This device stores and returns
//! those page-sized blocks.

use crate::{MemError, Result, PAGE_SIZE};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a stored swap block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(u64);

impl BlockId {
    /// Creates a block id from a raw value.
    pub const fn new(raw: u64) -> Self {
        BlockId(raw)
    }

    /// Raw block number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block:{}", self.0)
    }
}

/// A block store holding page-sized blocks.
#[derive(Debug, Default)]
pub struct SwapDevice {
    next: u64,
    blocks: HashMap<u64, Box<[u8]>>,
    writes: u64,
    reads: u64,
}

impl SwapDevice {
    /// Creates an empty swap device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores one page of data, returning its block id.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page — callers always swap whole
    /// second-level tables.
    pub fn store(&mut self, data: &[u8]) -> BlockId {
        assert_eq!(data.len() as u64, PAGE_SIZE, "swap blocks are page-sized");
        let id = self.next;
        self.next += 1;
        self.blocks.insert(id, data.to_vec().into_boxed_slice());
        self.writes += 1;
        BlockId(id)
    }

    /// Loads and removes a stored block.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownSwapBlock`] for ids never stored or already
    /// loaded.
    pub fn load(&mut self, id: BlockId) -> Result<Box<[u8]>> {
        self.reads += 1;
        self.blocks
            .remove(&id.0)
            .ok_or(MemError::UnknownSwapBlock(id.0))
    }

    /// Drops a stored block without reading it back, as when the process
    /// that paged it out exits. Unlike [`load`](SwapDevice::load), this
    /// counts no read: no data crosses the device.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownSwapBlock`] for ids never stored or already
    /// loaded or discarded.
    pub fn discard(&mut self, id: BlockId) -> Result<()> {
        self.blocks
            .remove(&id.0)
            .map(drop)
            .ok_or(MemError::UnknownSwapBlock(id.0))
    }

    /// Number of blocks currently resident on the device.
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// (writes, reads) performed so far.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.writes, self.reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip() {
        let mut dev = SwapDevice::new();
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[123] = 45;
        let id = dev.store(&page);
        assert_eq!(dev.resident_blocks(), 1);
        let back = dev.load(id).unwrap();
        assert_eq!(back[123], 45);
        assert_eq!(dev.resident_blocks(), 0, "load removes the block");
        assert_eq!(dev.load(id), Err(MemError::UnknownSwapBlock(id.raw())));
        assert_eq!(dev.io_counts(), (1, 2));
    }

    #[test]
    fn discard_drops_a_block_without_counting_a_read() {
        let mut dev = SwapDevice::new();
        let id = dev.store(&vec![0u8; PAGE_SIZE as usize]);
        dev.discard(id).unwrap();
        assert_eq!(dev.resident_blocks(), 0);
        assert_eq!(dev.io_counts(), (1, 0), "a discard moves no data");
        assert_eq!(dev.discard(id), Err(MemError::UnknownSwapBlock(id.raw())));
        assert_eq!(dev.load(id), Err(MemError::UnknownSwapBlock(id.raw())));
    }

    #[test]
    fn distinct_ids_for_distinct_stores() {
        let mut dev = SwapDevice::new();
        let page = vec![0u8; PAGE_SIZE as usize];
        let a = dev.store(&page);
        let b = dev.store(&page);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "page-sized")]
    fn non_page_sized_store_panics() {
        SwapDevice::new().store(&[0u8; 8]);
    }
}
