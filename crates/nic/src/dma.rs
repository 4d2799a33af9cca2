//! The NIC DMA engine.
//!
//! Moves data between host physical memory and NIC SRAM (or between two host
//! physical locations, as when the firmware delivers an incoming packet
//! straight into a pinned receive buffer). Every transfer charges the bus
//! cost model to the simulated clock.

use crate::{IoBus, Nanos, Result, SimClock, Sram, SramAddr};
use utlb_mem::{PhysAddr, PhysicalMemory};

/// Direction of a host/SRAM transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Host DRAM → NIC SRAM (e.g. fetching translation entries on a miss).
    HostToNic,
    /// NIC SRAM → host DRAM (e.g. delivering a small message body).
    NicToHost,
}

/// Counters describing DMA activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Number of transfers issued.
    pub transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Total simulated time spent in DMA.
    pub busy: Nanos,
}

/// The DMA engine: a bus cost model plus activity counters.
#[derive(Debug, Default)]
pub struct DmaEngine {
    bus: IoBus,
    stats: DmaStats,
}

impl DmaEngine {
    /// Creates an engine over the given bus model.
    pub fn new(bus: IoBus) -> Self {
        DmaEngine {
            bus,
            stats: DmaStats::default(),
        }
    }

    /// The underlying bus model.
    pub fn bus(&self) -> &IoBus {
        &self.bus
    }

    /// Activity counters.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    fn charge(&mut self, clock: &mut SimClock, bytes: u64) -> Nanos {
        let cost = self.bus.dma_bytes(bytes);
        clock.advance(cost);
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        self.stats.busy += cost;
        cost
    }

    /// Transfers `len` bytes between host memory and SRAM.
    ///
    /// Returns the simulated cost of the transfer.
    ///
    /// # Errors
    ///
    /// Propagates range errors from either memory.
    #[allow(clippy::too_many_arguments)] // mirrors the device's descriptor fields
    pub fn transfer(
        &mut self,
        clock: &mut SimClock,
        direction: DmaDirection,
        host: &mut PhysicalMemory,
        host_addr: PhysAddr,
        sram: &mut Sram,
        sram_addr: SramAddr,
        len: usize,
    ) -> Result<Nanos> {
        let mut buf = vec![0u8; len];
        match direction {
            DmaDirection::HostToNic => {
                host.read(host_addr, &mut buf)?;
                sram.write(sram_addr, &buf)?;
            }
            DmaDirection::NicToHost => {
                sram.read(sram_addr, &mut buf)?;
                host.write(host_addr, &buf)?;
            }
        }
        Ok(self.charge(clock, len as u64))
    }

    /// Fetches `out.len()` consecutive 8-byte words from host memory at
    /// `base` into `out` — the shape of a translation-entry fill on a
    /// Shared UTLB-Cache miss, where prefetched entries ride the same DMA.
    /// The caller owns `out`, so a fill allocates nothing. Returns the
    /// simulated cost of the transfer, the per-event attribution an
    /// observability probe wants without re-deriving the bus model.
    ///
    /// # Errors
    ///
    /// Propagates range errors from host memory.
    pub fn fetch_words(
        &mut self,
        clock: &mut SimClock,
        host: &PhysicalMemory,
        base: PhysAddr,
        out: &mut [u64],
    ) -> Result<Nanos> {
        for (i, word) in out.iter_mut().enumerate() {
            *word = host.read_u64(base.offset(i as u64 * 8))?;
        }
        let words = out.len() as u64;
        let cost = self.bus.dma_words(words);
        clock.advance(cost);
        self.stats.transfers += 1;
        self.stats.bytes += words * 8;
        self.stats.busy += cost;
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_nic_roundtrip_moves_bytes_and_time() {
        let mut clock = SimClock::new();
        let mut host = PhysicalMemory::new(4);
        let mut sram = Sram::new(256);
        let region = sram.alloc(64).unwrap();
        let mut dma = DmaEngine::default();

        host.write(PhysAddr::new(16), b"over the bus").unwrap();
        dma.transfer(
            &mut clock,
            DmaDirection::HostToNic,
            &mut host,
            PhysAddr::new(16),
            &mut sram,
            region.base(),
            12,
        )
        .unwrap();
        let mut buf = [0u8; 12];
        sram.read(region.base(), &mut buf).unwrap();
        assert_eq!(&buf, b"over the bus");
        assert!(clock.now() > Nanos::ZERO);

        dma.transfer(
            &mut clock,
            DmaDirection::NicToHost,
            &mut host,
            PhysAddr::new(128),
            &mut sram,
            region.base(),
            12,
        )
        .unwrap();
        let mut back = [0u8; 12];
        host.read(PhysAddr::new(128), &mut back).unwrap();
        assert_eq!(&back, b"over the bus");
        assert_eq!(dma.stats().transfers, 2);
        assert_eq!(dma.stats().bytes, 24);
    }

    #[test]
    fn fetch_words_reads_consecutive_entries() {
        let mut clock = SimClock::new();
        let mut host = PhysicalMemory::new(4);
        let mut dma = DmaEngine::default();
        for i in 0..8u64 {
            host.write_u64(PhysAddr::new(i * 8), 100 + i).unwrap();
        }
        let mut words = [0u64; 8];
        let cost = dma
            .fetch_words(&mut clock, &host, PhysAddr::new(0), &mut words)
            .unwrap();
        assert_eq!(words, [100, 101, 102, 103, 104, 105, 106, 107]);
        // Cost equals the bus model for 8 words.
        assert_eq!(cost, dma.bus().dma_words(8));
        assert_eq!(clock.now(), cost);
    }

    #[test]
    fn prefetch_is_cheaper_than_separate_fetches() {
        let bus = IoBus::default();
        let mut one_clock = SimClock::new();
        let mut batched_clock = SimClock::new();
        let host = PhysicalMemory::new(4);
        let mut a = DmaEngine::new(bus);
        let mut b = DmaEngine::new(bus);
        for _ in 0..8 {
            a.fetch_words(&mut one_clock, &host, PhysAddr::new(0), &mut [0; 1])
                .unwrap();
        }
        b.fetch_words(&mut batched_clock, &host, PhysAddr::new(0), &mut [0; 8])
            .unwrap();
        assert!(batched_clock.now() < one_clock.now());
    }
}
