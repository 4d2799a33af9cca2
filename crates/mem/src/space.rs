//! Per-process virtual address spaces with OS-style page tables.

use crate::{
    BlockId, FrameId, IntMap, MemError, PhysAddr, PhysicalMemory, Result, VirtAddr, VirtPage,
    PAGE_SIZE,
};

/// Where a mapped page's contents currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSlot {
    /// Backed by a physical frame.
    Resident(FrameId),
    /// Paged out to the swap device.
    Swapped(BlockId),
}

/// One process' virtual address space.
///
/// The address space owns an OS page table mapping virtual pages to physical
/// frames. Pages are mapped on demand (demand-zero): the first touch of a
/// page allocates a frame. This mirrors the environment the UTLB ran in — the
/// *OS* always knows the translation; the point of the paper is making the
/// translation available to the *network interface* without kernel entries on
/// the data path.
///
/// The table is hashed: a demand pin probes it once per page, and nothing
/// but the sorted [`iter`](Self::iter) and
/// [`resident_pages`](Self::resident_pages) walks it in any order.
#[derive(Debug)]
pub struct AddressSpace {
    table: IntMap<VirtPage, PageSlot>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            table: IntMap::default(),
        }
    }

    /// Returns the frame backing `page`, or `None` if never touched or
    /// currently swapped out.
    pub fn translate(&self, page: VirtPage) -> Option<FrameId> {
        match self.table.get(&page) {
            Some(PageSlot::Resident(f)) => Some(*f),
            _ => None,
        }
    }

    /// The slot state of `page`, if mapped at all.
    pub fn slot(&self, page: VirtPage) -> Option<PageSlot> {
        self.table.get(&page).copied()
    }

    /// Converts a resident page to swapped state. Internal to the host's
    /// reclaim path, which owns moving the bytes.
    pub(crate) fn mark_swapped(&mut self, page: VirtPage, block: BlockId) {
        self.table.insert(page, PageSlot::Swapped(block));
    }

    /// Converts a swapped page back to resident. Internal to the host's
    /// swap-in path.
    pub(crate) fn mark_resident(&mut self, page: VirtPage, frame: FrameId) {
        self.table.insert(page, PageSlot::Resident(frame));
    }

    /// Returns the frame backing `page`, mapping it on demand.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::OutOfFrames`] if DRAM is exhausted, and
    /// returns [`crate::MemError::SwappedOut`] for paged-out pages — callers
    /// go through `Host::ensure_resident` first.
    pub fn translate_or_map(
        &mut self,
        page: VirtPage,
        phys: &mut PhysicalMemory,
    ) -> Result<FrameId> {
        match self.table.get(&page) {
            Some(PageSlot::Resident(f)) => return Ok(*f),
            Some(PageSlot::Swapped(_)) => return Err(MemError::SwappedOut { page }),
            None => {}
        }
        let frame = phys.alloc_frame()?;
        self.table.insert(page, PageSlot::Resident(frame));
        Ok(frame)
    }

    /// Unmaps `page`, returning its frame to the allocator. Returns the
    /// swap block to discard if the page was paged out.
    ///
    /// Unmapping a never-mapped page is a no-op, matching `munmap` semantics.
    pub fn unmap(&mut self, page: VirtPage, phys: &mut PhysicalMemory) -> Option<BlockId> {
        match self.table.remove(&page) {
            Some(PageSlot::Resident(frame)) => {
                phys.free_frame(frame);
                None
            }
            Some(PageSlot::Swapped(block)) => Some(block),
            None => None,
        }
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }

    /// Iterates over all (page, slot) mappings in page order. Sorts a copy
    /// of the table: a cold path for inspection and tests.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, PageSlot)> {
        let mut slots: Vec<(VirtPage, PageSlot)> =
            self.table.iter().map(|(p, s)| (*p, *s)).collect();
        slots.sort_unstable_by_key(|(p, _)| *p);
        slots.into_iter()
    }

    /// Resident pages of this space, in page order.
    pub fn resident_pages(&self) -> impl Iterator<Item = (VirtPage, FrameId)> {
        self.iter().filter_map(|(p, s)| match s {
            PageSlot::Resident(f) => Some((p, f)),
            PageSlot::Swapped(_) => None,
        })
    }

    /// Empties the space, yielding every slot in no particular order.
    /// Process exit frees each frame and discards each swap block; the
    /// allocator reuses frames lowest-first, so neither the free pool nor
    /// the swap device after the exit depends on that order.
    pub(crate) fn drain_slots(&mut self) -> impl Iterator<Item = PageSlot> + '_ {
        self.table.drain().map(|(_, s)| s)
    }

    /// Translates a byte address, mapping its page on demand.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::OutOfFrames`].
    pub fn phys_addr_of(&mut self, va: VirtAddr, phys: &mut PhysicalMemory) -> Result<PhysAddr> {
        let frame = self.translate_or_map(va.page(), phys)?;
        Ok(frame.base().offset(va.page_offset()))
    }

    /// Writes `buf` into this address space starting at `va`.
    ///
    /// Splits the write at page boundaries, mapping pages on demand.
    ///
    /// # Errors
    ///
    /// Propagates allocation and range errors from physical memory.
    pub fn write(&mut self, va: VirtAddr, buf: &[u8], phys: &mut PhysicalMemory) -> Result<()> {
        let mut done = 0usize;
        let mut cursor = va;
        while done < buf.len() {
            let chunk = ((PAGE_SIZE - cursor.page_offset()) as usize).min(buf.len() - done);
            let pa = self.phys_addr_of(cursor, phys)?;
            phys.write(pa, &buf[done..done + chunk])?;
            done += chunk;
            cursor = cursor.offset(chunk as u64);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes from this address space starting at `va`.
    ///
    /// Unmapped pages read as zero without being materialized.
    ///
    /// # Errors
    ///
    /// Propagates range errors from physical memory; returns
    /// [`crate::MemError::SwappedOut`] if a touched page is paged out
    /// (bring it back with `Host::ensure_resident`).
    pub fn read(&self, va: VirtAddr, buf: &mut [u8], phys: &PhysicalMemory) -> Result<()> {
        let mut done = 0usize;
        let mut cursor = va;
        while done < buf.len() {
            let chunk = ((PAGE_SIZE - cursor.page_offset()) as usize).min(buf.len() - done);
            match self.slot(cursor.page()) {
                Some(PageSlot::Resident(frame)) => {
                    let pa = frame.base().offset(cursor.page_offset());
                    phys.read(pa, &mut buf[done..done + chunk])?;
                }
                Some(PageSlot::Swapped(_)) => {
                    return Err(MemError::SwappedOut {
                        page: cursor.page(),
                    })
                }
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
            cursor = cursor.offset(chunk as u64);
        }
        Ok(())
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_mapping_allocates_once() {
        let mut phys = PhysicalMemory::new(8);
        let mut space = AddressSpace::new();
        let p = VirtPage::new(42);
        assert_eq!(space.translate(p), None);
        let f1 = space.translate_or_map(p, &mut phys).unwrap();
        let f2 = space.translate_or_map(p, &mut phys).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(space.mapped_pages(), 1);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut phys = PhysicalMemory::new(8);
        let mut space = AddressSpace::new();
        let va = VirtAddr::new(2 * PAGE_SIZE - 5);
        let data: Vec<u8> = (0..32).collect();
        space.write(va, &data, &mut phys).unwrap();
        let mut back = vec![0u8; 32];
        space.read(va, &mut back, &phys).unwrap();
        assert_eq!(back, data);
        assert_eq!(space.mapped_pages(), 2);
    }

    #[test]
    fn read_of_unmapped_page_is_zero_and_does_not_map() {
        let phys = PhysicalMemory::new(8);
        let space = AddressSpace::new();
        let mut buf = [0xAA; 16];
        space.read(VirtAddr::new(0x9000), &mut buf, &phys).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(space.mapped_pages(), 0);
    }

    #[test]
    fn unmap_frees_frame() {
        let mut phys = PhysicalMemory::new(2);
        let mut space = AddressSpace::new();
        space.translate_or_map(VirtPage::new(1), &mut phys).unwrap();
        space.translate_or_map(VirtPage::new(2), &mut phys).unwrap();
        assert!(space.translate_or_map(VirtPage::new(3), &mut phys).is_err());
        space.unmap(VirtPage::new(1), &mut phys);
        assert!(space.translate_or_map(VirtPage::new(3), &mut phys).is_ok());
        // Unmapping an unmapped page is fine.
        space.unmap(VirtPage::new(100), &mut phys);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut phys = PhysicalMemory::new(8);
        let mut space = AddressSpace::new();
        let f1 = space.translate_or_map(VirtPage::new(1), &mut phys).unwrap();
        let f2 = space.translate_or_map(VirtPage::new(2), &mut phys).unwrap();
        assert_ne!(f1, f2);
    }
}
