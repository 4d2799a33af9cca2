//! The assembled host: DRAM + processes + driver + swap.

use crate::space::PageSlot;
use crate::{
    AddressSpace, HostDriver, IntMap, MemError, PhysicalMemory, PinnedPage, Process, ProcessId,
    Result, SwapDevice, VirtPage, PAGE_SIZE,
};

/// One simulated host machine.
///
/// Ties together the pieces a UTLB deployment needs on the host side:
/// physical memory, the set of user processes, the VMMC device driver, and a
/// swap device. The NIC substrate (crate `utlb-nic`) borrows the host's
/// [`PhysicalMemory`] when it DMAs.
#[derive(Debug)]
pub struct Host {
    phys: PhysicalMemory,
    driver: HostDriver,
    swap: SwapDevice,
    /// Live processes, hashed: every pin probes this table, and only
    /// [`Host::process_ids`] lists it, sorted.
    processes: IntMap<ProcessId, Process>,
    /// Emptied address spaces of exited processes, reused by
    /// [`Host::spawn_process`] so their page tables keep the capacity they
    /// grew to. Never longer than the peak count of live processes.
    spare_spaces: Vec<AddressSpace>,
    next_pid: u32,
}

impl Host {
    /// Creates a host with `total_frames` frames of DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero (the driver needs at least the
    /// garbage frame).
    pub fn new(total_frames: u64) -> Self {
        let mut phys = PhysicalMemory::new(total_frames);
        let driver = HostDriver::new(&mut phys).expect("at least one frame for the garbage page");
        Host {
            phys,
            driver,
            swap: SwapDevice::new(),
            processes: IntMap::default(),
            spare_spaces: Vec::new(),
            next_pid: 1,
        }
    }

    /// Spawns a new process and returns its id.
    pub fn spawn_process(&mut self) -> ProcessId {
        let pid = ProcessId::new(self.next_pid);
        self.next_pid += 1;
        let mut process = Process::new(pid);
        if let Some(space) = self.spare_spaces.pop() {
            *process.space_mut() = space;
        }
        self.processes.insert(pid, process);
        pid
    }

    /// Terminates `pid`, releasing its pins, unmapping its pages, and
    /// discarding any of its blocks on the swap device.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownProcess`] if `pid` is not live.
    pub fn kill_process(&mut self, pid: ProcessId) -> Result<()> {
        let mut process = self
            .processes
            .remove(&pid)
            .ok_or(MemError::UnknownProcess(pid))?;
        self.driver.pins_mut().release_process(pid);
        let mut space = std::mem::take(process.space_mut());
        for slot in space.drain_slots() {
            match slot {
                PageSlot::Resident(frame) => self.phys.free_frame(frame),
                PageSlot::Swapped(block) => self
                    .swap
                    .discard(block)
                    .expect("a swapped page names a stored block"),
            }
        }
        self.spare_spaces.push(space);
        Ok(())
    }

    /// Reclaims the frame of an *unpinned* resident page, writing its
    /// contents to the swap device — the OS paging activity that makes
    /// pinning necessary in the first place (§1: "the network interface has
    /// no control over paging and swapping in the operating system").
    ///
    /// Returns `true` if a frame was reclaimed, `false` if the page was not
    /// resident to begin with.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::CannotReclaimPinned`] for pinned pages — the
    /// contract DMA correctness rests on — and
    /// [`MemError::UnknownProcess`] for a dead pid.
    pub fn reclaim_page(&mut self, pid: ProcessId, page: VirtPage) -> Result<bool> {
        if self.driver.pins().is_pinned(pid, page) {
            return Err(MemError::CannotReclaimPinned { pid, page });
        }
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(MemError::UnknownProcess(pid))?;
        let Some(PageSlot::Resident(frame)) = process.space().slot(page) else {
            return Ok(false);
        };
        let mut bytes = vec![0u8; PAGE_SIZE as usize];
        self.phys.read(frame.base(), &mut bytes)?;
        let block = self.swap.store(&bytes);
        self.phys.free_frame(frame);
        process.space_mut().mark_swapped(page, block);
        Ok(true)
    }

    /// Brings a swapped-out page back into a fresh frame (the page-fault
    /// path). Returns `true` if a swap-in happened.
    ///
    /// # Errors
    ///
    /// Propagates allocation and swap errors; returns
    /// [`MemError::UnknownProcess`] for a dead pid.
    pub fn ensure_resident(&mut self, pid: ProcessId, page: VirtPage) -> Result<bool> {
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(MemError::UnknownProcess(pid))?;
        swap_in(&mut self.phys, &mut self.swap, process, page)
    }

    /// Immutable access to a process.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownProcess`] if `pid` is not live.
    pub fn process(&self, pid: ProcessId) -> Result<&Process> {
        self.processes
            .get(&pid)
            .ok_or(MemError::UnknownProcess(pid))
    }

    /// Mutable access to a process, paired with physical memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::UnknownProcess`] if `pid` is not live.
    pub fn process_mut(&mut self, pid: ProcessId) -> Result<ProcessHandle<'_>> {
        if !self.processes.contains_key(&pid) {
            return Err(MemError::UnknownProcess(pid));
        }
        Ok(ProcessHandle { host: self, pid })
    }

    /// Ids of all live processes, ascending.
    pub fn process_ids(&self) -> Vec<ProcessId> {
        let mut pids: Vec<ProcessId> = self.processes.keys().copied().collect();
        pids.sort_unstable();
        pids
    }

    /// Immutable physical memory.
    pub fn physical(&self) -> &PhysicalMemory {
        &self.phys
    }

    /// Mutable physical memory (used by the NIC's DMA engine).
    pub fn physical_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.phys
    }

    /// The device driver.
    pub fn driver(&self) -> &HostDriver {
        &self.driver
    }

    /// Mutable device driver (e.g. for setting pin limits).
    pub fn driver_mut(&mut self) -> &mut HostDriver {
        &mut self.driver
    }

    /// The swap device.
    pub fn swap_mut(&mut self) -> &mut SwapDevice {
        &mut self.swap
    }

    /// Physical memory and the swap device together — paging code needs to
    /// move data between the two in one operation.
    pub fn phys_and_swap(&mut self) -> (&mut PhysicalMemory, &mut SwapDevice) {
        (&mut self.phys, &mut self.swap)
    }

    /// Convenience wrapper over [`HostDriver::pin_and_translate`] that looks
    /// up the process by id and faults paged-out pages back in first. Like
    /// the driver call, it clears `out` and fills it with one translation
    /// per page.
    ///
    /// # Errors
    ///
    /// Propagates driver errors; returns [`MemError::UnknownProcess`] if
    /// `pid` is not live.
    pub fn driver_pin(
        &mut self,
        pid: ProcessId,
        start: VirtPage,
        count: u64,
        out: &mut Vec<PinnedPage>,
    ) -> Result<()> {
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(MemError::UnknownProcess(pid))?;
        // Fault any paged-out pages back in first — pinning locks frames,
        // so the contents must be resident before the lock.
        for page in start.range(count) {
            swap_in(&mut self.phys, &mut self.swap, process, page)?;
        }
        self.driver
            .pin_and_translate(process, &mut self.phys, start, count, out)
    }

    /// Convenience wrapper over [`HostDriver::unpin`].
    ///
    /// # Errors
    ///
    /// Propagates driver errors.
    pub fn driver_unpin(&mut self, pid: ProcessId, page: VirtPage) -> Result<()> {
        self.driver.unpin(pid, page)
    }
}

/// Brings `page` of `process` back from the swap device into a fresh frame
/// if it is paged out (the page-fault path). Returns `true` if a swap-in
/// happened.
fn swap_in(
    phys: &mut PhysicalMemory,
    swap: &mut SwapDevice,
    process: &mut Process,
    page: VirtPage,
) -> Result<bool> {
    let Some(PageSlot::Swapped(block)) = process.space().slot(page) else {
        return Ok(false);
    };
    let bytes = swap.load(block)?;
    let frame = phys.alloc_frame()?;
    phys.write(frame.base(), &bytes)?;
    process.space_mut().mark_resident(page, frame);
    Ok(true)
}

/// A short-lived view pairing one process with the host's physical memory,
/// so callers can read/write process memory without fighting the borrow
/// checker over two fields of [`Host`].
#[derive(Debug)]
pub struct ProcessHandle<'a> {
    host: &'a mut Host,
    pid: ProcessId,
}

impl ProcessHandle<'_> {
    /// The process id this handle refers to.
    pub fn id(&self) -> ProcessId {
        self.pid
    }

    /// Writes bytes into the process' virtual memory, faulting any
    /// paged-out pages back in first.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn write(&mut self, va: crate::VirtAddr, buf: &[u8]) -> Result<()> {
        for page in va.page().range(va.span_pages(buf.len() as u64)) {
            self.host.ensure_resident(self.pid, page)?;
        }
        let process = self
            .host
            .processes
            .get_mut(&self.pid)
            .expect("handle exists only for live processes");
        process.write_bytes(va, buf, &mut self.host.phys)
    }

    /// Reads bytes from the process' virtual memory, faulting any
    /// paged-out pages back in first.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors.
    pub fn read(&mut self, va: crate::VirtAddr, buf: &mut [u8]) -> Result<()> {
        for page in va.page().range(va.span_pages(buf.len() as u64)) {
            self.host.ensure_resident(self.pid, page)?;
        }
        let process = self
            .host
            .processes
            .get(&self.pid)
            .expect("handle exists only for live processes");
        process.read_bytes(va, buf, &self.host.phys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtAddr;

    #[test]
    fn spawn_kill_lifecycle() {
        let mut host = Host::new(32);
        let a = host.spawn_process();
        let b = host.spawn_process();
        assert_ne!(a, b);
        assert_eq!(host.process_ids(), vec![a, b]);
        host.kill_process(a).unwrap();
        assert_eq!(host.process_ids(), vec![b]);
        assert_eq!(host.kill_process(a), Err(MemError::UnknownProcess(a)));
    }

    #[test]
    fn kill_releases_frames_and_pins() {
        let mut host = Host::new(4); // 1 garbage + 3 usable
        let pid = host.spawn_process();
        let mut pinned = Vec::new();
        host.driver_pin(pid, VirtPage::new(0), 3, &mut pinned)
            .unwrap();
        assert_eq!(host.physical().allocator().free_frames(), 0);
        assert_eq!(host.driver().pins().total_pinned_pages(), 3);
        host.kill_process(pid).unwrap();
        assert_eq!(host.driver().pins().total_pinned_pages(), 0);
        assert_eq!(host.physical().allocator().free_frames(), 3);
        let pid2 = host.spawn_process();
        assert!(host
            .driver_pin(pid2, VirtPage::new(0), 3, &mut pinned)
            .is_ok());
    }

    #[test]
    fn kill_discards_swapped_pages_without_a_swap_read() {
        let mut host = Host::new(8);
        let pid = host.spawn_process();
        let va = VirtAddr::new(0x3000);
        host.process_mut(pid).unwrap().write(va, b"gone").unwrap();
        assert!(host.reclaim_page(pid, va.page()).unwrap());
        assert_eq!(host.swap_mut().resident_blocks(), 1);
        let (_, reads) = host.swap_mut().io_counts();
        host.kill_process(pid).unwrap();
        assert_eq!(host.swap_mut().resident_blocks(), 0, "no orphaned block");
        assert_eq!(host.swap_mut().io_counts().1, reads, "no read counted");
    }

    #[test]
    fn a_recycled_address_space_starts_empty() {
        let mut host = Host::new(8);
        let a = host.spawn_process();
        let va = VirtAddr::new(0x5000);
        host.process_mut(a).unwrap().write(va, b"old").unwrap();
        host.kill_process(a).unwrap();
        let b = host.spawn_process();
        assert_eq!(host.process(b).unwrap().space().mapped_pages(), 0);
        let mut out = [0xFFu8; 3];
        host.process_mut(b).unwrap().read(va, &mut out).unwrap();
        assert_eq!(out, [0; 3], "the dead process' page is not visible");
    }

    #[test]
    fn handle_io_roundtrip() {
        let mut host = Host::new(8);
        let pid = host.spawn_process();
        let va = VirtAddr::new(0x2000);
        host.process_mut(pid).unwrap().write(va, b"data").unwrap();
        let mut out = [0u8; 4];
        host.process_mut(pid).unwrap().read(va, &mut out).unwrap();
        assert_eq!(&out, b"data");
        let ghost = ProcessId::new(999);
        assert!(host.process_mut(ghost).is_err());
        assert!(host.process(ghost).is_err());
    }

    #[test]
    fn pinned_translation_sees_process_data() {
        let mut host = Host::new(8);
        let pid = host.spawn_process();
        let va = VirtAddr::new(0x7000);
        host.process_mut(pid).unwrap().write(va, b"dma me").unwrap();
        let mut pinned = Vec::new();
        host.driver_pin(pid, va.page(), 1, &mut pinned).unwrap();
        let mut buf = [0u8; 6];
        host.physical()
            .read(pinned[0].phys_addr(), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"dma me");
        host.driver_unpin(pid, va.page()).unwrap();
    }
}
