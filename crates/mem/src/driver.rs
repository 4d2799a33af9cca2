//! The VMMC device-driver facade.
//!
//! In the paper's implementation the only kernel support UTLB needs is "a
//! device driver that accesses the OS page-pinning and unpinning facility"
//! (§1). The driver exposes an `ioctl()` that (a) pins a run of virtual
//! pages and (b) reports their physical addresses so the caller can install
//! them in a translation table. It also allocates and pins a single
//! **garbage page** whose physical address initializes every translation
//! table entry, so the NIC never has to validate user-supplied indices — at
//! worst data lands in the garbage page (§4.2).

use crate::{FrameId, PhysAddr, PhysicalMemory, PinRegistry, Process, ProcessId, Result, VirtPage};

/// A page pinned by the driver, with the translation it reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinnedPage {
    page: VirtPage,
    frame: FrameId,
}

impl PinnedPage {
    /// Creates a pinned-page record.
    pub fn new(page: VirtPage, frame: FrameId) -> Self {
        PinnedPage { page, frame }
    }

    /// The pinned virtual page.
    pub fn page(self) -> VirtPage {
        self.page
    }

    /// The backing physical frame.
    pub fn frame(self) -> FrameId {
        self.frame
    }

    /// Base physical address of the pinned page.
    pub fn phys_addr(self) -> PhysAddr {
        self.frame.base()
    }
}

/// The device driver: pin/unpin `ioctl`s plus the garbage page.
#[derive(Debug)]
pub struct HostDriver {
    pins: PinRegistry,
    garbage: FrameId,
}

impl HostDriver {
    /// Initializes the driver, allocating and reserving the garbage frame.
    ///
    /// # Errors
    ///
    /// Fails if physical memory cannot supply even one frame.
    pub fn new(phys: &mut PhysicalMemory) -> Result<Self> {
        let garbage = phys.alloc_frame()?;
        Ok(HostDriver {
            pins: PinRegistry::new(),
            garbage,
        })
    }

    /// Physical address of the pinned garbage page.
    ///
    /// Translation tables are initialized with this address so that stale or
    /// bogus indices harmlessly transfer to/from an unused page.
    pub fn garbage_addr(&self) -> PhysAddr {
        self.garbage.base()
    }

    /// The pin registry (pin counts, limits, statistics).
    pub fn pins(&self) -> &PinRegistry {
        &self.pins
    }

    /// Mutable pin registry, e.g. for configuring limits.
    pub fn pins_mut(&mut self) -> &mut PinRegistry {
        &mut self.pins
    }

    /// The pin/unpin `ioctl`: pins `count` consecutive pages starting at
    /// `start` and reports their translations in `out`, which it clears
    /// first and fills with one entry per page, in page order. The caller
    /// owns `out` and reuses it across calls, so a pin allocates nothing
    /// once the buffer has grown to the longest run.
    ///
    /// Pages are mapped on demand first (the OS would fault them in before
    /// locking). On a limit violation, pages pinned earlier in the same call
    /// are rolled back so the call is all-or-nothing, and `out` is left
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MemError::PinLimitExceeded`] if the batch does not fit under
    /// the process' pinned-memory limit, or [`crate::MemError::OutOfFrames`] if DRAM
    /// is exhausted while faulting pages in.
    pub fn pin_and_translate(
        &mut self,
        process: &mut Process,
        phys: &mut PhysicalMemory,
        start: VirtPage,
        count: u64,
        out: &mut Vec<PinnedPage>,
    ) -> Result<()> {
        let pid = process.id();
        out.clear();
        for page in start.range(count) {
            let pinned = process
                .space_mut()
                .translate_or_map(page, phys)
                .and_then(|frame| self.pins.pin(pid, page).map(|()| frame));
            match pinned {
                Ok(frame) => out.push(PinnedPage::new(page, frame)),
                Err(e) => {
                    self.rollback(pid, out);
                    out.clear();
                    return Err(e);
                }
            }
        }
        self.pins.record_call(count, 0);
        Ok(())
    }

    fn rollback(&mut self, pid: ProcessId, pinned: &[PinnedPage]) {
        for p in pinned {
            self.pins
                .unpin(pid, p.page())
                .expect("rollback unpins pages pinned in this call");
        }
    }

    /// Unpins one page previously pinned through this driver.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MemError::NotPinned`] if the page is not pinned.
    pub fn unpin(&mut self, pid: ProcessId, page: VirtPage) -> Result<()> {
        self.pins.unpin(pid, page)?;
        self.pins.record_call(0, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemError, VirtAddr};

    fn setup() -> (PhysicalMemory, HostDriver, Process) {
        let mut phys = PhysicalMemory::new(64);
        let driver = HostDriver::new(&mut phys).unwrap();
        let process = Process::new(ProcessId::new(1));
        (phys, driver, process)
    }

    #[test]
    fn pin_reports_real_translations() {
        let (mut phys, mut driver, mut proc) = setup();
        proc.write_bytes(VirtAddr::new(0x5000), b"payload", &mut phys)
            .unwrap();
        let mut pinned = Vec::new();
        driver
            .pin_and_translate(&mut proc, &mut phys, VirtPage::new(5), 1, &mut pinned)
            .unwrap();
        assert_eq!(pinned.len(), 1);
        let mut buf = [0u8; 7];
        phys.read(pinned[0].phys_addr(), &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn pin_maps_untouched_pages_on_demand() {
        let (mut phys, mut driver, mut proc) = setup();
        let mut pinned = vec![PinnedPage::new(VirtPage::new(0), FrameId::new(0))];
        driver
            .pin_and_translate(&mut proc, &mut phys, VirtPage::new(9), 3, &mut pinned)
            .unwrap();
        assert_eq!(pinned.len(), 3, "the buffer is cleared first");
        assert_eq!(proc.space().mapped_pages(), 3);
        for p in &pinned {
            assert!(driver.pins().is_pinned(proc.id(), p.page()));
        }
    }

    #[test]
    fn batch_pin_is_all_or_nothing_under_limit() {
        let (mut phys, mut driver, mut proc) = setup();
        driver.pins_mut().set_limit(proc.id(), Some(2));
        let mut pinned = Vec::new();
        let err = driver
            .pin_and_translate(&mut proc, &mut phys, VirtPage::new(0), 3, &mut pinned)
            .unwrap_err();
        assert!(pinned.is_empty(), "a failed call reports no pages");
        assert!(matches!(err, MemError::PinLimitExceeded { .. }));
        assert_eq!(
            driver.pins().pinned_pages(proc.id()),
            0,
            "partial pins rolled back"
        );
        // A batch that fits succeeds.
        assert!(driver
            .pin_and_translate(&mut proc, &mut phys, VirtPage::new(0), 2, &mut pinned)
            .is_ok());
    }

    #[test]
    fn garbage_page_is_reserved_and_stable() {
        let (mut phys, driver, _) = setup();
        let g = driver.garbage_addr();
        // The garbage frame is already allocated: a fresh allocation differs.
        let f = phys.alloc_frame().unwrap();
        assert_ne!(f.base(), g);
    }

    #[test]
    fn unpin_round_trip_updates_stats() {
        let (mut phys, mut driver, mut proc) = setup();
        driver
            .pin_and_translate(&mut proc, &mut phys, VirtPage::new(1), 2, &mut Vec::new())
            .unwrap();
        driver.unpin(proc.id(), VirtPage::new(1)).unwrap();
        let stats = driver.pins().stats();
        assert_eq!(stats.pin_ops, 2);
        assert_eq!(stats.unpin_ops, 1);
        assert_eq!(stats.pin_calls, 1);
        assert_eq!(stats.unpin_calls, 1);
        assert!(driver.unpin(proc.id(), VirtPage::new(100)).is_err());
    }
}
