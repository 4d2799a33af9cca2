//! Property-based tests of the host-memory substrate invariants.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use utlb_mem::{
    AddressSpace, BlockId, FrameAllocator, FrameId, Host, MemError, PageSlot, PhysAddr,
    PhysicalMemory, PinRegistry, PinStats, ProcessId, VirtAddr, VirtPage, PAGE_SIZE,
};

/// The flat-map pin registry the per-process one replaced, kept verbatim as
/// the reference its replacement must agree with on every observable.
#[derive(Debug, Default)]
struct FlatPinRegistry {
    counts: HashMap<(ProcessId, u64), u32>,
    per_process: HashMap<ProcessId, u64>,
    limits: HashMap<ProcessId, u64>,
    stats: PinStats,
}

impl FlatPinRegistry {
    fn set_limit(&mut self, pid: ProcessId, limit_pages: Option<u64>) {
        match limit_pages {
            Some(l) => {
                self.limits.insert(pid, l);
            }
            None => {
                self.limits.remove(&pid);
            }
        }
    }

    fn limit(&self, pid: ProcessId) -> Option<u64> {
        self.limits.get(&pid).copied()
    }

    fn pinned_pages(&self, pid: ProcessId) -> u64 {
        self.per_process.get(&pid).copied().unwrap_or(0)
    }

    fn is_pinned(&self, pid: ProcessId, page: VirtPage) -> bool {
        self.counts.contains_key(&(pid, page.number()))
    }

    fn pin_count(&self, pid: ProcessId, page: VirtPage) -> u32 {
        self.counts.get(&(pid, page.number())).copied().unwrap_or(0)
    }

    fn can_pin(&self, pid: ProcessId, extra: u64) -> bool {
        match self.limits.get(&pid) {
            Some(limit) => self.pinned_pages(pid) + extra <= *limit,
            None => true,
        }
    }

    fn pin(&mut self, pid: ProcessId, page: VirtPage) -> Result<(), MemError> {
        let key = (pid, page.number());
        if let Some(cnt) = self.counts.get_mut(&key) {
            *cnt += 1;
        } else {
            if !self.can_pin(pid, 1) {
                return Err(MemError::PinLimitExceeded {
                    pid,
                    limit_pages: self.limits[&pid],
                });
            }
            self.counts.insert(key, 1);
            *self.per_process.entry(pid).or_insert(0) += 1;
        }
        self.stats.pin_ops += 1;
        Ok(())
    }

    fn unpin(&mut self, pid: ProcessId, page: VirtPage) -> Result<(), MemError> {
        let key = (pid, page.number());
        match self.counts.get_mut(&key) {
            Some(cnt) if *cnt > 1 => {
                *cnt -= 1;
            }
            Some(_) => {
                self.counts.remove(&key);
                let per = self
                    .per_process
                    .get_mut(&pid)
                    .expect("per-process count exists while pages are pinned");
                *per -= 1;
            }
            None => return Err(MemError::NotPinned { pid, page }),
        }
        self.stats.unpin_ops += 1;
        Ok(())
    }

    fn record_call(&mut self, pins: u64, unpins: u64) {
        if pins > 0 {
            self.stats.pin_calls += 1;
        }
        if unpins > 0 {
            self.stats.unpin_calls += 1;
        }
    }

    fn release_process(&mut self, pid: ProcessId) {
        self.counts.retain(|(p, _), _| *p != pid);
        self.per_process.remove(&pid);
        self.limits.remove(&pid);
    }
}

/// One step of a pin-registry differential run.
#[derive(Debug, Clone)]
enum PinOp {
    Pin(u32, u64),
    Unpin(u32, u64),
    SetLimit(u32, Option<u64>),
    Release(u32),
    RecordCall(u64, u64),
}

/// Pins and unpins dominate; a limit value of 6 stands for `None`.
fn pin_op() -> impl Strategy<Value = PinOp> {
    (0u8..14, 1u32..5, 0u64..12, 0u64..7).prop_map(|(tag, pid, page, n)| match tag {
        0..=5 => PinOp::Pin(pid, page),
        6..=9 => PinOp::Unpin(pid, page),
        10 | 11 => PinOp::SetLimit(pid, (n < 6).then_some(n)),
        12 => PinOp::Release(pid),
        _ => PinOp::RecordCall(n % 3, page % 3),
    })
}

/// One step of a frame-store differential run. Offsets are in bytes from
/// the start of DRAM; lengths may cross several frame edges.
#[derive(Debug, Clone)]
enum PhysOp {
    Write(u64, Vec<u8>),
    Read(u64, usize),
    Fill(u64, u64),
    Alloc,
    /// Frees the `n % live`-th allocated frame, if any is live.
    Free(usize),
}

const REF_FRAMES: u64 = 12;

fn phys_op() -> impl Strategy<Value = PhysOp> {
    let span = REF_FRAMES * PAGE_SIZE;
    let max_len = 2 * PAGE_SIZE as usize + 64;
    (0u8..14, 0..span, any::<u64>()).prop_map(move |(tag, at, n)| match tag {
        0..=3 => {
            // A patterned run of up to two frames and a bit, seeded by `n`.
            let len = 1 + (n as usize % max_len);
            let data = (0..len).map(|i| (n >> 8).wrapping_add(i as u64 * 31) as u8);
            PhysOp::Write(at, data.collect())
        }
        4..=7 => PhysOp::Read(at, 1 + (n as usize % max_len)),
        8 | 9 => PhysOp::Fill(n % (REF_FRAMES + 1), at),
        10 | 11 => PhysOp::Alloc,
        _ => PhysOp::Free(n as usize),
    })
}

/// The reference frame store: a hash map of materialized frames.
#[derive(Default)]
struct HashFrames(HashMap<u64, Vec<u8>>);

impl HashFrames {
    fn in_range(at: u64, len: usize) -> bool {
        at + len as u64 <= REF_FRAMES * PAGE_SIZE
    }

    fn write(&mut self, at: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            let a = at + i as u64;
            self.0
                .entry(a / PAGE_SIZE)
                .or_insert_with(|| vec![0; PAGE_SIZE as usize])[(a % PAGE_SIZE) as usize] = *b;
        }
    }

    fn read(&self, at: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| {
                let a = at + i;
                self.0
                    .get(&(a / PAGE_SIZE))
                    .map_or(0, |f| f[(a % PAGE_SIZE) as usize])
            })
            .collect()
    }
}

proptest! {
    /// Writing any byte string anywhere in physical range reads back
    /// identically, regardless of frame straddling.
    #[test]
    fn phys_write_read_roundtrip(
        offset in 0u64..(63 * PAGE_SIZE),
        data in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let mut mem = PhysicalMemory::new(64);
        mem.write(PhysAddr::new(offset), &data).unwrap();
        let mut back = vec![0u8; data.len()];
        mem.read(PhysAddr::new(offset), &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Non-overlapping writes never interfere.
    #[test]
    fn phys_disjoint_writes_independent(
        a in proptest::collection::vec(any::<u8>(), 1..512),
        b in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let mut mem = PhysicalMemory::new(16);
        let a_at = PhysAddr::new(0);
        let b_at = PhysAddr::new(8 * PAGE_SIZE);
        mem.write(a_at, &a).unwrap();
        mem.write(b_at, &b).unwrap();
        let mut back_a = vec![0u8; a.len()];
        mem.read(a_at, &mut back_a).unwrap();
        prop_assert_eq!(back_a, a);
        let mut back_b = vec![0u8; b.len()];
        mem.read(b_at, &mut back_b).unwrap();
        prop_assert_eq!(back_b, b);
    }

    /// The frame allocator never double-allocates a live frame, and
    /// alloc/free sequences conserve the free count.
    #[test]
    fn allocator_conserves_frames(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let total = 64u64;
        let mut alloc = FrameAllocator::new(total);
        let mut live = Vec::new();
        for want_alloc in ops {
            if want_alloc {
                match alloc.alloc() {
                    Ok(f) => {
                        prop_assert!(!live.contains(&f), "double allocation of {f}");
                        live.push(f);
                    }
                    Err(_) => prop_assert_eq!(live.len() as u64, total),
                }
            } else if let Some(f) = live.pop() {
                alloc.free(f);
            }
            prop_assert_eq!(alloc.allocated_frames(), live.len() as u64);
            prop_assert_eq!(alloc.free_frames(), total - live.len() as u64);
        }
    }

    /// Address-space translation is a function: repeated translations of
    /// the same page agree, and distinct pages get distinct frames.
    #[test]
    fn address_space_translation_is_injective(pages in proptest::collection::vec(0u64..10_000, 1..64)) {
        let mut phys = PhysicalMemory::new(128);
        let mut space = AddressSpace::new();
        let mut seen = std::collections::HashMap::new();
        for vpn in pages {
            let page = VirtPage::new(vpn);
            if let Ok(frame) = space.translate_or_map(page, &mut phys) {
                if let Some(prev) = seen.insert(vpn, frame) {
                    prop_assert_eq!(prev, frame, "translation changed");
                }
                for (other_vpn, other_frame) in &seen {
                    if *other_vpn != vpn {
                        prop_assert_ne!(*other_frame, frame, "frames must be distinct");
                    }
                }
            }
        }
    }

    /// Pin counting: after any interleaving of pins and unpins the distinct
    /// pinned-page count equals the number of pages with a positive count.
    #[test]
    fn pin_registry_counts_are_consistent(
        ops in proptest::collection::vec((0u64..16, any::<bool>()), 1..200),
    ) {
        let mut reg = PinRegistry::new();
        let pid = ProcessId::new(1);
        let mut model = std::collections::HashMap::<u64, u32>::new();
        for (page, pin) in ops {
            let p = VirtPage::new(page);
            if pin {
                reg.pin(pid, p).unwrap();
                *model.entry(page).or_insert(0) += 1;
            } else if model.get(&page).copied().unwrap_or(0) > 0 {
                reg.unpin(pid, p).unwrap();
                let c = model.get_mut(&page).unwrap();
                *c -= 1;
                if *c == 0 {
                    model.remove(&page);
                }
            } else {
                prop_assert!(reg.unpin(pid, p).is_err());
            }
            prop_assert_eq!(reg.pinned_pages(pid), model.len() as u64);
            for (pg, cnt) in &model {
                prop_assert_eq!(reg.pin_count(pid, VirtPage::new(*pg)), *cnt);
            }
        }
    }

    /// Process memory is isolated: concurrent writes by two processes at
    /// the same virtual addresses never mix.
    #[test]
    fn process_isolation(
        writes in proptest::collection::vec((0u64..64, any::<u8>(), any::<u8>()), 1..64),
    ) {
        let mut host = Host::new(1 << 10);
        let p1 = host.spawn_process();
        let p2 = host.spawn_process();
        let mut model1 = std::collections::HashMap::new();
        let mut model2 = std::collections::HashMap::new();
        for (slot, v1, v2) in writes {
            let va = VirtAddr::new(slot * PAGE_SIZE + 11);
            host.process_mut(p1).unwrap().write(va, &[v1]).unwrap();
            host.process_mut(p2).unwrap().write(va, &[v2]).unwrap();
            model1.insert(slot, v1);
            model2.insert(slot, v2);
        }
        for (slot, v) in &model1 {
            let mut b = [0u8];
            host.process_mut(p1).unwrap()
                .read(VirtAddr::new(slot * PAGE_SIZE + 11), &mut b).unwrap();
            prop_assert_eq!(b[0], *v);
        }
        for (slot, v) in &model2 {
            let mut b = [0u8];
            host.process_mut(p2).unwrap()
                .read(VirtAddr::new(slot * PAGE_SIZE + 11), &mut b).unwrap();
            prop_assert_eq!(b[0], *v);
        }
    }
}

// The differential runs check every query after every step, so they run
// fewer (longer) cases than the default.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-process pin registry agrees with the flat-map reference on
    /// every result and every query, over random pin, unpin, limit, release
    /// and call-record sequences across four processes.
    #[test]
    fn pin_registry_matches_flat_reference(ops in proptest::collection::vec(pin_op(), 1..200)) {
        let mut reg = PinRegistry::new();
        let mut flat = FlatPinRegistry::default();
        for op in ops {
            match op {
                PinOp::Pin(p, g) => {
                    let (pid, page) = (ProcessId::new(p), VirtPage::new(g));
                    prop_assert_eq!(reg.pin(pid, page), flat.pin(pid, page));
                }
                PinOp::Unpin(p, g) => {
                    let (pid, page) = (ProcessId::new(p), VirtPage::new(g));
                    prop_assert_eq!(reg.unpin(pid, page), flat.unpin(pid, page));
                }
                PinOp::SetLimit(p, l) => {
                    reg.set_limit(ProcessId::new(p), l);
                    flat.set_limit(ProcessId::new(p), l);
                }
                PinOp::Release(p) => {
                    reg.release_process(ProcessId::new(p));
                    flat.release_process(ProcessId::new(p));
                }
                PinOp::RecordCall(a, b) => {
                    reg.record_call(a, b);
                    flat.record_call(a, b);
                }
            }
            prop_assert_eq!(reg.stats(), flat.stats);
            let mut total = 0;
            for p in 0..=5 {
                let pid = ProcessId::new(p);
                prop_assert_eq!(reg.pinned_pages(pid), flat.pinned_pages(pid));
                prop_assert_eq!(reg.limit(pid), flat.limit(pid));
                for extra in 0..4 {
                    prop_assert_eq!(reg.can_pin(pid, extra), flat.can_pin(pid, extra));
                }
                for g in 0..13 {
                    let page = VirtPage::new(g);
                    prop_assert_eq!(reg.pin_count(pid, page), flat.pin_count(pid, page));
                    prop_assert_eq!(reg.is_pinned(pid, page), flat.is_pinned(pid, page));
                }
                total += flat.pinned_pages(pid);
            }
            prop_assert_eq!(reg.total_pinned_pages(), total);
        }
    }

    /// The dense frame store agrees with a hash-map reference on every read
    /// (unwritten memory reads zero), every range error and the resident
    /// frame count, over writes and reads across frame edges, whole-frame
    /// fills, and frame allocation and release.
    #[test]
    fn phys_matches_hash_reference(ops in proptest::collection::vec(phys_op(), 1..40)) {
        let mut mem = PhysicalMemory::new(REF_FRAMES);
        let mut model = HashFrames::default();
        let mut live: Vec<FrameId> = Vec::new();
        for op in ops {
            match op {
                PhysOp::Write(at, data) => {
                    let r = mem.write(PhysAddr::new(at), &data);
                    prop_assert_eq!(r.is_ok(), HashFrames::in_range(at, data.len()));
                    if r.is_ok() {
                        model.write(at, &data);
                    }
                }
                PhysOp::Read(at, len) => {
                    let mut buf = vec![0xEEu8; len];
                    let r = mem.read(PhysAddr::new(at), &mut buf);
                    prop_assert_eq!(r.is_ok(), HashFrames::in_range(at, len));
                    if r.is_ok() {
                        prop_assert_eq!(buf, model.read(at, len));
                    }
                }
                PhysOp::Fill(f, v) => {
                    let r = mem.fill_u64(FrameId::new(f), v);
                    prop_assert_eq!(r.is_ok(), f < REF_FRAMES);
                    if r.is_ok() {
                        let words: Vec<u8> = (0..PAGE_SIZE / 8).flat_map(|_| v.to_le_bytes()).collect();
                        model.write(f * PAGE_SIZE, &words);
                    }
                }
                PhysOp::Alloc => {
                    if let Ok(f) = mem.alloc_frame() {
                        live.push(f);
                    }
                }
                PhysOp::Free(n) => {
                    if !live.is_empty() {
                        let f = live.swap_remove(n % live.len());
                        mem.free_frame(f);
                        model.0.remove(&f.number());
                    }
                }
            }
            prop_assert_eq!(mem.resident_frames(), model.0.len());
        }
        // Every byte of DRAM, written or not, matches at the end.
        let mut all = vec![0xEEu8; (REF_FRAMES * PAGE_SIZE) as usize];
        mem.read(PhysAddr::new(0), &mut all).unwrap();
        prop_assert_eq!(all, model.read(0, (REF_FRAMES * PAGE_SIZE) as usize));
    }
}

/// The ordered-set frame allocator the free bitmap replaced, kept verbatim
/// as the reference: freed frames in a `BTreeSet`, reused lowest-first.
#[derive(Debug)]
struct BTreeFrameAllocator {
    total: u64,
    next_fresh: u64,
    free: BTreeSet<u64>,
}

impl BTreeFrameAllocator {
    fn new(total: u64) -> Self {
        BTreeFrameAllocator {
            total,
            next_fresh: 0,
            free: BTreeSet::new(),
        }
    }

    fn allocated_frames(&self) -> u64 {
        self.next_fresh - self.free.len() as u64
    }

    fn free_frames(&self) -> u64 {
        self.total - self.allocated_frames()
    }

    fn alloc(&mut self) -> Result<FrameId, MemError> {
        if let Some(&lowest) = self.free.iter().next() {
            self.free.remove(&lowest);
            return Ok(FrameId::new(lowest));
        }
        if self.next_fresh < self.total {
            let id = self.next_fresh;
            self.next_fresh += 1;
            Ok(FrameId::new(id))
        } else {
            Err(MemError::OutOfFrames)
        }
    }

    fn free(&mut self, frame: FrameId) {
        assert!(
            frame.number() < self.next_fresh,
            "freeing frame {frame} that was never allocated"
        );
        let fresh = self.free.insert(frame.number());
        assert!(fresh, "double free of frame {frame}");
    }
}

/// The ordered-map page table the hashed one replaced, kept as the
/// reference, over the reference allocator.
#[derive(Debug, Default)]
struct BTreeSpace(BTreeMap<VirtPage, PageSlot>);

impl BTreeSpace {
    fn translate_or_map(
        &mut self,
        page: VirtPage,
        alloc: &mut BTreeFrameAllocator,
    ) -> Result<FrameId, MemError> {
        match self.0.get(&page) {
            Some(PageSlot::Resident(f)) => return Ok(*f),
            Some(PageSlot::Swapped(_)) => return Err(MemError::SwappedOut { page }),
            None => {}
        }
        let frame = alloc.alloc()?;
        self.0.insert(page, PageSlot::Resident(frame));
        Ok(frame)
    }

    fn unmap(&mut self, page: VirtPage, alloc: &mut BTreeFrameAllocator) -> Option<BlockId> {
        match self.0.remove(&page) {
            Some(PageSlot::Resident(frame)) => {
                alloc.free(frame);
                None
            }
            Some(PageSlot::Swapped(block)) => Some(block),
            None => None,
        }
    }

    fn mark_swapped(&mut self, page: VirtPage, block: BlockId) {
        self.0.insert(page, PageSlot::Swapped(block));
    }

    fn mark_resident(&mut self, page: VirtPage, frame: FrameId) {
        self.0.insert(page, PageSlot::Resident(frame));
    }

    fn slots(&self) -> Vec<(VirtPage, PageSlot)> {
        self.0.iter().map(|(p, s)| (*p, *s)).collect()
    }
}

/// The reference host: two processes' `BTreeSpace`s over one reference
/// allocator, with swap blocks numbered in store order like the device's.
struct RefHost {
    alloc: BTreeFrameAllocator,
    spaces: [BTreeSpace; 2],
    next_block: u64,
    blocks: BTreeSet<BlockId>,
}

impl RefHost {
    fn new(total_frames: u64) -> Self {
        let mut alloc = BTreeFrameAllocator::new(total_frames);
        alloc.alloc().expect("the garbage frame");
        RefHost {
            alloc,
            spaces: Default::default(),
            next_block: 0,
            blocks: BTreeSet::new(),
        }
    }

    /// `Host::ensure_resident`.
    fn fault_in(&mut self, p: usize, page: VirtPage) -> Result<bool, MemError> {
        let Some(&PageSlot::Swapped(block)) = self.spaces[p].0.get(&page) else {
            return Ok(false);
        };
        assert!(self.blocks.remove(&block));
        let frame = self.alloc.alloc()?;
        self.spaces[p].mark_resident(page, frame);
        Ok(true)
    }

    /// `ProcessHandle::write` of one byte into `page`.
    fn touch(&mut self, p: usize, page: VirtPage) -> Result<(), MemError> {
        self.fault_in(p, page)?;
        self.spaces[p]
            .translate_or_map(page, &mut self.alloc)
            .map(|_| ())
    }

    /// `Host::reclaim_page` of an unpinned page.
    fn reclaim(&mut self, p: usize, page: VirtPage) -> bool {
        let Some(&PageSlot::Resident(frame)) = self.spaces[p].0.get(&page) else {
            return false;
        };
        let block = BlockId::new(self.next_block);
        self.next_block += 1;
        self.blocks.insert(block);
        self.alloc.free(frame);
        self.spaces[p].mark_swapped(page, block);
        true
    }

    /// `Host::kill_process`, page by page in page order.
    fn kill(&mut self, p: usize) {
        let pages: Vec<VirtPage> = self.spaces[p].0.keys().copied().collect();
        for page in pages {
            if let Some(block) = self.spaces[p].unmap(page, &mut self.alloc) {
                assert!(self.blocks.remove(&block));
            }
        }
    }
}

/// One step of a paging differential run on process slot 0 or 1.
#[derive(Debug, Clone)]
enum PageOp {
    Touch(usize, u64),
    Reclaim(usize, u64),
    FaultIn(usize, u64),
    /// Kills the process in the slot and spawns a fresh one into it.
    Respawn(usize),
}

fn page_op() -> impl Strategy<Value = PageOp> {
    (0u8..12, 0usize..2, 0u64..24).prop_map(|(tag, p, page)| match tag {
        0..=4 => PageOp::Touch(p, page),
        5..=7 => PageOp::Reclaim(p, page),
        8..=10 => PageOp::FaultIn(p, page),
        _ => PageOp::Respawn(p),
    })
}

/// One step of an address-space differential run.
#[derive(Debug, Clone)]
enum SpaceOp {
    Map(u64),
    Unmap(u64),
}

/// Maps outnumber unmaps three to one, so the space fills and DRAM runs
/// out.
fn space_op() -> impl Strategy<Value = SpaceOp> {
    (0u8..4, 0u64..200).prop_map(|(tag, vpn)| match tag {
        0 => SpaceOp::Unmap(vpn),
        _ => SpaceOp::Map(vpn),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The free-bitmap allocator returns the same frame as the ordered-set
    /// reference on every allocation, and agrees on the allocated and free
    /// counts after every step, over allocator sizes spanning several
    /// bitmap words and frees in arbitrary order.
    #[test]
    fn bitmap_allocator_matches_btreeset_reference(
        total in 1u64..300,
        ops in proptest::collection::vec((any::<bool>(), any::<usize>()), 1..600),
    ) {
        let mut bitmap = FrameAllocator::new(total);
        let mut reference = BTreeFrameAllocator::new(total);
        let mut live: Vec<FrameId> = Vec::new();
        for (want_alloc, n) in ops {
            if want_alloc || live.is_empty() {
                let got = bitmap.alloc();
                prop_assert_eq!(got, reference.alloc());
                if let Ok(f) = got {
                    live.push(f);
                }
            } else {
                let f = live.swap_remove(n % live.len());
                bitmap.free(f);
                reference.free(f);
            }
            prop_assert_eq!(bitmap.allocated_frames(), reference.allocated_frames());
            prop_assert_eq!(bitmap.free_frames(), reference.free_frames());
        }
    }

    /// The hashed address space agrees with the ordered-map reference on
    /// every translation, unmap result and mapped-page count, and yields
    /// the same mappings in the same page order, over demand maps and
    /// unmaps that run the shared DRAM dry.
    #[test]
    fn address_space_matches_btreemap_reference(
        ops in proptest::collection::vec(space_op(), 1..300),
    ) {
        let frames = 96;
        let mut phys = PhysicalMemory::new(frames);
        let mut space = AddressSpace::new();
        let mut alloc = BTreeFrameAllocator::new(frames);
        let mut reference = BTreeSpace::default();
        for op in ops {
            match op {
                SpaceOp::Map(vpn) => {
                    let page = VirtPage::new(vpn);
                    prop_assert_eq!(
                        space.translate_or_map(page, &mut phys),
                        reference.translate_or_map(page, &mut alloc)
                    );
                }
                SpaceOp::Unmap(vpn) => {
                    let page = VirtPage::new(vpn);
                    prop_assert_eq!(
                        space.unmap(page, &mut phys),
                        reference.unmap(page, &mut alloc)
                    );
                }
            }
            prop_assert_eq!(space.iter().collect::<Vec<_>>(), reference.slots());
            prop_assert_eq!(space.mapped_pages(), reference.0.len());
            prop_assert_eq!(phys.allocator().free_frames(), alloc.free_frames());
        }
    }

    /// A host's page tables agree with the ordered-map reference through
    /// demand maps, reclaim to swap (`mark_swapped`), swap-in
    /// (`mark_resident`) and process exit: every result, every slot in
    /// page order, the free-frame count and the swap device's block count
    /// match after every step.
    #[test]
    fn host_paging_matches_btreemap_reference(
        ops in proptest::collection::vec(page_op(), 1..200),
    ) {
        let frames = 40;
        let mut host = Host::new(frames);
        let mut pids = [host.spawn_process(), host.spawn_process()];
        let mut reference = RefHost::new(frames);
        for op in ops {
            match op {
                PageOp::Touch(p, vpn) => {
                    let va = VirtAddr::new(vpn * PAGE_SIZE + 7);
                    let got = host.process_mut(pids[p]).unwrap().write(va, &[1]);
                    prop_assert_eq!(got, reference.touch(p, VirtPage::new(vpn)));
                }
                PageOp::Reclaim(p, vpn) => {
                    let page = VirtPage::new(vpn);
                    prop_assert_eq!(
                        host.reclaim_page(pids[p], page),
                        Ok(reference.reclaim(p, page))
                    );
                }
                PageOp::FaultIn(p, vpn) => {
                    let page = VirtPage::new(vpn);
                    prop_assert_eq!(
                        host.ensure_resident(pids[p], page),
                        reference.fault_in(p, page)
                    );
                }
                PageOp::Respawn(p) => {
                    host.kill_process(pids[p]).unwrap();
                    reference.kill(p);
                    pids[p] = host.spawn_process();
                }
            }
            for (pid, model) in pids.iter().zip(&reference.spaces) {
                let space = host.process(*pid).unwrap().space();
                prop_assert_eq!(space.iter().collect::<Vec<_>>(), model.slots());
            }
            prop_assert_eq!(
                host.physical().allocator().free_frames(),
                reference.alloc.free_frames()
            );
            prop_assert_eq!(host.swap_mut().resident_blocks(), reference.blocks.len());
        }
    }
}

#[test]
#[should_panic(expected = "double free")]
fn bitmap_allocator_panics_on_double_free_across_words() {
    let mut a = FrameAllocator::new(200);
    let frames: Vec<FrameId> = (0..150).map(|_| a.alloc().unwrap()).collect();
    a.free(frames[140]);
    a.free(frames[3]);
    assert_eq!(a.alloc().unwrap(), frames[3]);
    a.free(frames[140]);
}
