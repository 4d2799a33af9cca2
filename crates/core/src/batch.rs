//! The batched lookup path and the one page-run walk every engine shares.
//!
//! The replay runners translate one trace record at a time, and a record is
//! a contiguous page run for one process. The scalar
//! [`lookup_run`](crate::TranslationMechanism::lookup_run) entry point
//! allocates a fresh `Vec<PageOutcome>` per record and re-derives per-process
//! state page by page; at millions of records that allocation and re-derivation
//! is the replay hot path. [`LookupBatch`] names the record's page run and
//! [`OutcomeBuf`] is the caller-owned buffer the batched
//! [`lookup_run_into`](crate::TranslationMechanism::lookup_run_into) path
//! emits into — the runner clears and reuses one buffer across the whole
//! trace. That makes the hit path allocate nothing per record, and the miss
//! path allocates nothing either once the engine's own buffers (pinned
//! translations, DMA words, victims, buffered probe events) have grown:
//! `crates/sim/tests/alloc_budget.rs` holds every mechanism to zero
//! allocations per extra epoch of a looped trace, on hits and on a
//! 256-entry cache under a 4 MB pin limit, serial and contended.
//!
//! All four engines run one lookup protocol and differ only in where a
//! translation lives, so both page-run walks are written once here, generic
//! over the engine's [`HitPath`].

use crate::{PageOutcome, Result, UtlbError};
use utlb_mem::{Host, ProcessId, VirtAddr, VirtPage};
use utlb_nic::{Board, Nanos};

/// One record's translation request: `npages` consecutive pages for `pid`
/// starting at `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupBatch {
    /// The requesting process.
    pub pid: ProcessId,
    /// First page of the run.
    pub start: VirtPage,
    /// Number of consecutive pages.
    pub npages: u64,
}

impl LookupBatch {
    /// A batch over an explicit page run.
    pub fn new(pid: ProcessId, start: VirtPage, npages: u64) -> Self {
        LookupBatch { pid, start, npages }
    }

    /// The batch covering the buffer `[va, va + nbytes)` — the page span a
    /// trace record describes.
    pub fn for_buffer(pid: ProcessId, va: VirtAddr, nbytes: u64) -> Self {
        LookupBatch {
            pid,
            start: va.page(),
            npages: va.span_pages(nbytes),
        }
    }
}

/// A caller-owned, reusable buffer of per-page outcomes.
///
/// The batched lookup path appends into this instead of returning a fresh
/// `Vec` per record; callers clear and reuse one buffer across a whole
/// trace, so its capacity is paid once.
#[derive(Debug, Default)]
pub struct OutcomeBuf {
    outcomes: Vec<PageOutcome>,
}

impl OutcomeBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        OutcomeBuf::default()
    }

    /// An empty buffer with room for `npages` outcomes.
    pub fn with_capacity(npages: usize) -> Self {
        OutcomeBuf {
            outcomes: Vec::with_capacity(npages),
        }
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.outcomes.clear();
    }

    /// Appends one outcome.
    pub fn push(&mut self, outcome: PageOutcome) {
        self.outcomes.push(outcome);
    }

    /// Appends a slice of outcomes.
    pub fn extend_from_slice(&mut self, outcomes: &[PageOutcome]) {
        self.outcomes.extend_from_slice(outcomes);
    }

    /// Outcomes recorded so far, in page order.
    pub fn as_slice(&self) -> &[PageOutcome] {
        &self.outcomes
    }

    /// Number of outcomes recorded.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no outcomes are recorded.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Current capacity in outcomes.
    pub fn capacity(&self) -> usize {
        self.outcomes.capacity()
    }

    /// Iterates the recorded outcomes.
    pub fn iter(&self) -> std::slice::Iter<'_, PageOutcome> {
        self.outcomes.iter()
    }
}

impl<'a> IntoIterator for &'a OutcomeBuf {
    type Item = &'a PageOutcome;
    type IntoIter = std::slice::Iter<'a, PageOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.iter()
    }
}

/// What one engine contributes to the shared page-run walks: where its
/// translations live, and so how it resolves one page and recognises a run
/// of pure hits.
pub(crate) trait HitPath {
    /// Whether `pid` is registered.
    fn registered(&self, pid: ProcessId) -> bool;

    /// The clock charge of one pure hit: the user-level check (where the
    /// design has one) plus the NIC check, each converted on its own so the
    /// sum rounds exactly as the per-page walk's two advances do.
    fn hit_charge(&self) -> Nanos;

    /// Translates one page of a registered process, charging the clock and
    /// emitting probe events as it goes.
    fn lookup_page(
        &mut self,
        host: &mut Host,
        board: &mut Board,
        pid: ProcessId,
        page: VirtPage,
    ) -> Result<PageOutcome>;

    /// Appends to `out` the maximal run of at most `max` pages from `start`
    /// that are pure hits — no pin, no NIC miss — doing each hit's counter,
    /// recency, cache and `Lookup { ns: event_ns }` work but not its clock
    /// charge, which the caller coalesces. Returns the run length; 0 means
    /// `start` needs [`lookup_page`](HitPath::lookup_page).
    fn hit_prefix(
        &mut self,
        board: &Board,
        pid: ProcessId,
        start: VirtPage,
        max: u64,
        event_ns: u64,
        out: &mut OutcomeBuf,
    ) -> Result<u64>;
}

/// The scalar page-run walk behind every engine's
/// [`lookup_run`](crate::TranslationMechanism::lookup_run): registration is
/// checked once, even for an empty run, then each page goes through
/// [`HitPath::lookup_page`] (the firmware splits transfers at page
/// boundaries).
pub(crate) fn lookup_run<E: HitPath>(
    engine: &mut E,
    host: &mut Host,
    board: &mut Board,
    pid: ProcessId,
    start: VirtPage,
    npages: u64,
) -> Result<Vec<PageOutcome>> {
    if !engine.registered(pid) {
        return Err(UtlbError::UnregisteredProcess(pid));
    }
    let mut out = Vec::with_capacity(npages as usize);
    for page in start.range(npages) {
        out.push(engine.lookup_page(host, board, pid, page)?);
    }
    Ok(out)
}

/// The coalesced page-run walk behind every engine's
/// [`lookup_run_into`](crate::TranslationMechanism::lookup_run_into).
///
/// Runs of pure hits found by [`HitPath::hit_prefix`] defer their identical
/// clock charges into one advance; a hit's `Lookup` event carries the clock
/// delta, not the absolute time, so no event changes. Any other page first
/// settles the pending charges, so the miss path sees the scalar walk's
/// clock, then goes through [`HitPath::lookup_page`]. Outcomes, statistics,
/// probe events and the clock are thus identical to [`lookup_run`]. An error
/// returns at once, leaving the pending charges unsettled.
pub(crate) fn lookup_run_into<E: HitPath>(
    engine: &mut E,
    host: &mut Host,
    board: &mut Board,
    batch: LookupBatch,
    out: &mut OutcomeBuf,
) -> Result<()> {
    let LookupBatch { pid, start, npages } = batch;
    if !engine.registered(pid) {
        return Err(UtlbError::UnregisteredProcess(pid));
    }
    let hit_ns = engine.hit_charge();
    let hit_event_ns = hit_ns.as_nanos();

    let mut pending = 0u64; // coalesced hit charges not yet on the clock
    let mut i = 0u64;
    while i < npages {
        let page = start.offset(i);
        let run = engine.hit_prefix(board, pid, page, npages - i, hit_event_ns, out)?;
        if run == 0 {
            if pending > 0 {
                board.clock.advance(hit_ns * pending);
                pending = 0;
            }
            out.push(engine.lookup_page(host, board, pid, page)?);
            i += 1;
        } else {
            pending += run;
            i += run;
        }
    }
    if pending > 0 {
        board.clock.advance(hit_ns * pending);
    }
    Ok(())
}

/// Generates the two page-run methods of a [`HitPath`] engine's
/// [`TranslationMechanism`](crate::TranslationMechanism) impl.
macro_rules! page_run_methods {
    () => {
        fn lookup_run(
            &mut self,
            host: &mut utlb_mem::Host,
            board: &mut utlb_nic::Board,
            pid: utlb_mem::ProcessId,
            start: utlb_mem::VirtPage,
            npages: u64,
        ) -> crate::Result<Vec<crate::PageOutcome>> {
            crate::batch::lookup_run(self, host, board, pid, start, npages)
        }

        fn lookup_run_into(
            &mut self,
            host: &mut utlb_mem::Host,
            board: &mut utlb_nic::Board,
            batch: crate::LookupBatch,
            out: &mut crate::OutcomeBuf,
        ) -> crate::Result<()> {
            crate::batch::lookup_run_into(self, host, board, batch, out)
        }
    };
}
pub(crate) use page_run_methods;

#[cfg(test)]
mod tests {
    use super::*;
    use utlb_mem::PhysAddr;

    #[test]
    fn buffer_reuse_keeps_capacity() {
        let mut buf = OutcomeBuf::with_capacity(8);
        for i in 0..8 {
            buf.push(PageOutcome {
                page: VirtPage::new(i),
                phys: PhysAddr::new(i << 12),
                check_miss: false,
                ni_miss: false,
            });
        }
        assert_eq!(buf.len(), 8);
        let cap = buf.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap, "clear keeps the allocation");
        assert_eq!(buf.iter().count(), 0);
    }

    #[test]
    fn batch_for_buffer_matches_the_record_span() {
        let pid = ProcessId::new(1);
        // 16 bytes before a page boundary, 32 bytes long: two pages.
        let va = VirtAddr::new(0x10_0FF0);
        let batch = LookupBatch::for_buffer(pid, va, 32);
        assert_eq!(batch, LookupBatch::new(pid, va.page(), 2));
        assert_eq!(batch.npages, 2);
    }
}
