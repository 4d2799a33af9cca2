//! The per-process UTLB translation table (paper §3.1).
//!
//! A fixed-size table in NIC SRAM, one per process, holding physical
//! addresses of pinned pages. The table is protected — invisible to the user
//! process — but *user-managed*: the process chooses the slots where the
//! driver stores translations, and passes slot indices to the NIC with each
//! request. Every slot is initialized with the garbage page's physical
//! address (§4.2), so the NIC never validates indices.
//!
//! This variant suffers *fragmentation*: after complex access patterns a
//! buffer's translations may be scattered through the table — one of the
//! reasons §3.3 introduces Hierarchical-UTLB, which this crate also
//! implements in [`crate::HierTable`].

use crate::lookup::UtlbIndex;
use crate::{Result, UtlbError};
use utlb_mem::{PhysAddr, ProcessId};
use utlb_nic::{Sram, SramRegion};

/// A per-process translation table resident in NIC SRAM.
#[derive(Debug)]
pub struct PerProcessTable {
    pid: ProcessId,
    region: SramRegion,
    capacity: usize,
    free: Vec<u32>,
    garbage: PhysAddr,
}

impl PerProcessTable {
    /// Allocates a table of `capacity` entries in `sram` for `pid`, with
    /// every slot initialized to the garbage address.
    ///
    /// # Errors
    ///
    /// Propagates SRAM exhaustion — the board limitation motivating the
    /// Shared UTLB-Cache.
    pub fn new(
        pid: ProcessId,
        capacity: usize,
        sram: &mut Sram,
        garbage: PhysAddr,
    ) -> Result<Self> {
        let region = sram.alloc(capacity as u64 * 8).map_err(UtlbError::Nic)?;
        for i in 0..capacity {
            sram.write_u64(region.at(i as u64 * 8), garbage.raw())
                .map_err(UtlbError::Nic)?;
        }
        Ok(PerProcessTable {
            pid,
            region,
            capacity,
            free: (0..capacity as u32).rev().collect(),
            garbage,
        })
    }

    /// Owning process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Table capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reserves a free slot, if any.
    pub fn alloc_slot(&mut self) -> Option<UtlbIndex> {
        self.free.pop().map(UtlbIndex)
    }

    /// Stores `phys` at `index` (the driver half of the install `ioctl`).
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors.
    ///
    /// # Panics
    ///
    /// Panics if the index is beyond the table capacity — indices come from
    /// [`PerProcessTable::alloc_slot`], so an out-of-range one is a bug.
    pub fn install(&mut self, index: UtlbIndex, phys: PhysAddr, sram: &mut Sram) -> Result<()> {
        assert!((index.0 as usize) < self.capacity, "index out of range");
        sram.write_u64(self.region.at(index.0 as u64 * 8), phys.raw())
            .map_err(UtlbError::Nic)?;
        Ok(())
    }

    /// Invalidates `index`: rewrites the garbage address and frees the slot.
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors.
    pub fn evict(&mut self, index: UtlbIndex, sram: &mut Sram) -> Result<()> {
        assert!((index.0 as usize) < self.capacity, "index out of range");
        sram.write_u64(self.region.at(index.0 as u64 * 8), self.garbage.raw())
            .map_err(UtlbError::Nic)?;
        self.free.push(index.0);
        Ok(())
    }

    /// The NIC-side read: returns the physical address stored at `index`.
    ///
    /// By the garbage-page design this *never fails* for in-range indices —
    /// a stale or wrong index yields the harmless garbage address. Indices
    /// past the table end are clamped onto the garbage page too, matching
    /// the "no validity checking" contract.
    ///
    /// # Errors
    ///
    /// Propagates SRAM range errors (simulator-internal only).
    pub fn read(&self, index: UtlbIndex, sram: &Sram) -> Result<PhysAddr> {
        if (index.0 as usize) >= self.capacity {
            return Ok(self.garbage);
        }
        let raw = sram
            .read_u64(self.region.at(index.0 as u64 * 8))
            .map_err(UtlbError::Nic)?;
        Ok(PhysAddr::new(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(capacity: usize) -> (Sram, PerProcessTable) {
        let mut sram = Sram::new(1 << 16);
        let t = PerProcessTable::new(
            ProcessId::new(1),
            capacity,
            &mut sram,
            PhysAddr::new(0x00BA_D000),
        )
        .unwrap();
        (sram, t)
    }

    #[test]
    fn fresh_table_reads_garbage_everywhere() {
        let (sram, t) = setup(8);
        for i in 0..8 {
            assert_eq!(
                t.read(UtlbIndex(i), &sram).unwrap(),
                PhysAddr::new(0x00BA_D000)
            );
        }
        // Out-of-range index also lands on garbage, never an error.
        assert_eq!(
            t.read(UtlbIndex(999), &sram).unwrap(),
            PhysAddr::new(0x00BA_D000)
        );
    }

    #[test]
    fn install_then_read_then_evict() {
        let (mut sram, mut t) = setup(4);
        let idx = t.alloc_slot().unwrap();
        t.install(idx, PhysAddr::new(0x0123_4000), &mut sram)
            .unwrap();
        assert_eq!(t.read(idx, &sram).unwrap(), PhysAddr::new(0x0123_4000));
        t.evict(idx, &mut sram).unwrap();
        assert_eq!(t.read(idx, &sram).unwrap(), PhysAddr::new(0x00BA_D000));
    }

    #[test]
    fn slots_exhaust_and_recycle() {
        let (mut sram, mut t) = setup(2);
        let a = t.alloc_slot().unwrap();
        let _b = t.alloc_slot().unwrap();
        assert!(t.alloc_slot().is_none());
        t.evict(a, &mut sram).unwrap();
        assert_eq!(t.alloc_slot(), Some(a));
    }

    #[test]
    fn sram_exhaustion_surfaces() {
        let mut sram = Sram::new(64);
        let r = PerProcessTable::new(ProcessId::new(1), 1024, &mut sram, PhysAddr::new(0));
        assert!(matches!(r, Err(UtlbError::Nic(_))));
    }
}
