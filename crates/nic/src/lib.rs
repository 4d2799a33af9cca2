//! Simulated Myrinet-style network interface for the UTLB reproduction.
//!
//! The paper's testbed was a Myrinet PCI NIC: a 33 MHz LANai 4.2 RISC core,
//! 1 MB of SRAM, a DMA engine on the PCI bus, and firmware (the Myrinet
//! Control Program) that polls per-process command queues and moves data
//! between host memory and the wire. None of that hardware is available, so
//! this crate models the pieces the UTLB mechanism interacts with:
//!
//! * [`SimClock`] / [`Nanos`] — discrete simulated time; every device charges
//!   its cost (taken from the paper's microbenchmarks) to the clock,
//! * [`Sram`] — the NIC's on-board memory with a region allocator,
//! * [`IoBus`] — the DMA cost model (setup-dominated, a couple of µs to read
//!   a handful of translation entries across the bus — paper Table 2),
//! * [`DmaEngine`] — data movement between host physical memory and SRAM,
//! * [`CommandQueue`] — the per-process command post buffers the user library
//!   writes and the firmware polls (paper §4.2),
//! * [`InterruptController`] — host interrupts, an order of magnitude more
//!   expensive than bus references (10 µs in §6.2),
//! * [`packet`], [`Link`], [`Switch`] — point-to-point links and a crossbar,
//! * [`reliable`] — the data-link retransmission protocol and node remapping
//!   of the VMMC-2 extension (paper §4.1).
//!
//! # Example
//!
//! ```
//! use utlb_mem::{PhysAddr, PhysicalMemory};
//! use utlb_nic::Board;
//!
//! # fn main() -> utlb_nic::Result<()> {
//! let mut board = Board::new();
//! let mut host = PhysicalMemory::new(16);
//! host.write_u64(PhysAddr::new(0), 0xBEEF)?;
//! // Fetch one translation entry across the simulated I/O bus: ~1.5 µs,
//! // matching the paper's Table 2.
//! let Board { dma, clock, .. } = &mut board;
//! let mut entry = [0u64; 1];
//! dma.fetch_words(clock, &host, PhysAddr::new(0), &mut entry)?;
//! assert_eq!(entry[0], 0xBEEF);
//! assert!((clock.now().as_micros() - 1.5).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod board;
mod bus;
mod cmdq;
mod dma;
mod error;
mod interrupt;
mod link;
pub mod packet;
pub mod reliable;
mod sram;
mod time;

pub use board::{Board, BoardSnapshot};
pub use bus::IoBus;
pub use cmdq::{Command, CommandKind, CommandQueue};
pub use dma::{DmaDirection, DmaEngine, DmaStats};
pub use error::NicError;
pub use interrupt::InterruptController;
pub use link::{FaultHook, Link, NodeId, Switch};
pub use sram::{Sram, SramAddr, SramRegion};
pub use time::{Nanos, SimClock};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NicError>;
