//! Simulated host-memory substrate for the UTLB reproduction.
//!
//! The original UTLB implementation (Chen et al., ASPLOS 1998) ran on
//! Windows NT and Linux hosts: the operating system owned the
//! virtual-to-physical mappings, and a small device driver exposed an
//! `ioctl()` that pinned user pages and reported their physical addresses so
//! the network interface could DMA to and from them directly.
//!
//! This crate builds the equivalent substrate in software:
//!
//! * [`PhysicalMemory`] — a frame-granular physical memory with real byte
//!   storage (frames materialize lazily, so multi-gigabyte address spaces are
//!   cheap to simulate),
//! * [`AddressSpace`] — a per-process virtual address space with demand-zero
//!   allocation and an OS-style page table,
//! * [`PinRegistry`] — reference-counted page pinning with per-process
//!   pinned-memory limits, the contract the NIC relies on for DMA safety,
//! * [`HostDriver`] — the VMMC device-driver facade: pin-and-translate calls,
//!   the pinned "garbage page" used to make stale translation-table entries
//!   harmless, and unpin calls,
//! * [`SwapDevice`] — a tiny block store used to model paging out second-level
//!   UTLB translation tables (paper §3.3),
//! * [`IntMap`] — a `HashMap` over a multiply-rotate hasher for the
//!   simulator's integer-keyed hot maps.
//!
//! # Example
//!
//! ```
//! use utlb_mem::{Host, ProcessId, VirtAddr};
//!
//! # fn main() -> Result<(), utlb_mem::MemError> {
//! let mut host = Host::new(1 << 20); // 1 Mi frames of physical memory
//! let pid = host.spawn_process();
//! let va = VirtAddr::new(0x4000_0000);
//! host.process_mut(pid)?.write(va, b"hello utlb")?;
//! let mut pinned = Vec::new(); // reused across pin calls
//! host.driver_pin(pid, va.page(), 1, &mut pinned)?;
//! assert_eq!(pinned.len(), 1);
//! let mut buf = [0u8; 10];
//! host.physical().read(pinned[0].phys_addr(), &mut buf)?;
//! assert_eq!(&buf, b"hello utlb");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod addr;
mod driver;
mod error;
mod frame;
mod hash;
mod host;
mod phys;
mod pin;
mod process;
mod space;
mod swap;

pub use addr::{PhysAddr, VirtAddr, VirtPage, PAGE_SHIFT, PAGE_SIZE};
pub use driver::{HostDriver, PinnedPage};
pub use error::MemError;
pub use frame::{FrameAllocator, FrameId};
pub use hash::{IntBuildHasher, IntHasher, IntMap};
pub use host::Host;
pub use phys::PhysicalMemory;
pub use pin::{PinRegistry, PinStats};
pub use process::{Process, ProcessId};
pub use space::{AddressSpace, PageSlot};
pub use swap::{BlockId, SwapDevice};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MemError>;
