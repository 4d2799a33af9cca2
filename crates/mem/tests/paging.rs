//! Demand paging of application pages — and the pinning contract.
//!
//! §1: "the communication subsystem must guarantee that the application
//! buffer remains resident in physical memory until the data transfer is
//! complete. As an I/O device, the network interface has no control over
//! paging and swapping in the operating system. Therefore, the application
//! buffer must be explicitly pinned." These tests exercise exactly that
//! triangle: OS reclaim, pin-protected residency, and transparent fault-in.

use utlb_mem::{Host, MemError, PageSlot, VirtAddr, VirtPage, PAGE_SIZE};

#[test]
fn swap_roundtrip_preserves_contents() {
    let mut host = Host::new(16);
    let pid = host.spawn_process();
    let va = VirtAddr::new(0x7000);
    host.process_mut(pid)
        .unwrap()
        .write(va, b"page me out")
        .unwrap();

    let frames_before = host.physical().allocator().allocated_frames();
    assert!(host.reclaim_page(pid, va.page()).unwrap());
    assert_eq!(
        host.physical().allocator().allocated_frames(),
        frames_before - 1,
        "reclaim frees the frame"
    );
    assert!(matches!(
        host.process(pid).unwrap().space().slot(va.page()),
        Some(PageSlot::Swapped(_))
    ));

    // Reading faults the page back in transparently.
    let mut buf = [0u8; 11];
    host.process_mut(pid).unwrap().read(va, &mut buf).unwrap();
    assert_eq!(&buf, b"page me out");
    assert!(matches!(
        host.process(pid).unwrap().space().slot(va.page()),
        Some(PageSlot::Resident(_))
    ));
}

#[test]
fn pinned_pages_are_immune_to_reclaim() {
    let mut host = Host::new(16);
    let pid = host.spawn_process();
    let page = VirtPage::new(5);
    host.driver_pin(pid, page, 1, &mut Vec::new()).unwrap();
    assert_eq!(
        host.reclaim_page(pid, page),
        Err(MemError::CannotReclaimPinned { pid, page })
    );
    // After unpinning, the OS may take it.
    host.driver_unpin(pid, page).unwrap();
    assert!(host.reclaim_page(pid, page).unwrap());
}

#[test]
fn pinning_a_swapped_page_faults_it_in_first() {
    let mut host = Host::new(16);
    let pid = host.spawn_process();
    let va = VirtAddr::new(0x9000);
    host.process_mut(pid)
        .unwrap()
        .write(va, b"dma target")
        .unwrap();
    host.reclaim_page(pid, va.page()).unwrap();

    // The driver pin path must produce a *resident* translation whose frame
    // holds the original bytes — otherwise DMA would read stale garbage.
    let mut pinned = Vec::new();
    host.driver_pin(pid, va.page(), 1, &mut pinned).unwrap();
    let mut buf = [0u8; 10];
    host.physical()
        .read(pinned[0].phys_addr(), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"dma target");
    // And it is now immune to further reclaim.
    assert!(host.reclaim_page(pid, va.page()).is_err());
}

#[test]
fn reclaim_of_nonresident_pages_is_a_noop() {
    let mut host = Host::new(16);
    let pid = host.spawn_process();
    let page = VirtPage::new(3);
    // Never touched: nothing to reclaim.
    assert!(!host.reclaim_page(pid, page).unwrap());
    // Already swapped: idempotent.
    host.process_mut(pid)
        .unwrap()
        .write(page.base(), &[1])
        .unwrap();
    assert!(host.reclaim_page(pid, page).unwrap());
    assert!(!host.reclaim_page(pid, page).unwrap());
    // ensure_resident on a resident or unmapped page is a no-op too.
    assert!(host.ensure_resident(pid, page).unwrap());
    assert!(!host.ensure_resident(pid, page).unwrap());
    assert!(!host.ensure_resident(pid, VirtPage::new(99)).unwrap());
}

#[test]
fn reclaim_makes_room_for_other_allocations() {
    // 1 garbage frame + 3 usable frames.
    let mut host = Host::new(4);
    let pid = host.spawn_process();
    for i in 0..3u64 {
        host.process_mut(pid)
            .unwrap()
            .write(VirtAddr::new(i * PAGE_SIZE), &[i as u8])
            .unwrap();
    }
    // DRAM full: a fourth page cannot be mapped.
    assert!(matches!(
        host.process_mut(pid)
            .unwrap()
            .write(VirtAddr::new(3 * PAGE_SIZE), &[3]),
        Err(MemError::OutOfFrames)
    ));
    // The OS reclaims one cold page; the write now succeeds.
    assert!(host.reclaim_page(pid, VirtPage::new(0)).unwrap());
    host.process_mut(pid)
        .unwrap()
        .write(VirtAddr::new(3 * PAGE_SIZE), &[3])
        .unwrap();
    // The swapped page's data survives (after another reclaim for room).
    assert!(host.reclaim_page(pid, VirtPage::new(1)).unwrap());
    let mut buf = [0u8; 1];
    host.process_mut(pid)
        .unwrap()
        .read(VirtAddr::new(0), &mut buf)
        .unwrap();
    assert_eq!(buf[0], 0);
}

#[test]
fn kill_process_discards_swap_blocks() {
    let mut host = Host::new(16);
    let pid = host.spawn_process();
    host.process_mut(pid)
        .unwrap()
        .write(VirtAddr::new(0x1000), &[7])
        .unwrap();
    host.reclaim_page(pid, VirtPage::new(1)).unwrap();
    host.kill_process(pid).unwrap();
    assert_eq!(host.swap_mut().resident_blocks(), 0, "no leaked blocks");
}

#[test]
fn direct_space_access_to_swapped_page_is_an_error_not_garbage() {
    // The low-level AddressSpace refuses to silently read a swapped page:
    // only the host fault path may resolve it.
    let mut host = Host::new(16);
    let pid = host.spawn_process();
    let va = VirtAddr::new(0x2000);
    host.process_mut(pid).unwrap().write(va, b"x").unwrap();
    host.reclaim_page(pid, va.page()).unwrap();
    let process = host.process(pid).unwrap();
    let mut buf = [0u8; 1];
    let err = process
        .space()
        .read(va, &mut buf, host.physical())
        .unwrap_err();
    assert_eq!(err, MemError::SwappedOut { page: va.page() });
}
