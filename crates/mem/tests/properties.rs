//! Property-based tests of the host-memory substrate invariants.

use proptest::prelude::*;
use std::collections::HashMap;
use utlb_mem::{
    AddressSpace, FrameAllocator, FrameId, Host, MemError, PhysAddr, PhysicalMemory, PinRegistry,
    PinStats, ProcessId, VirtAddr, VirtPage, PAGE_SIZE,
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
