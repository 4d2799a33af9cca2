//! A miniature home-based shared-virtual-memory system — the workload class
//! whose traces drove the paper's entire evaluation (§6: SPLASH-2 under a
//! "Home-based Release Consistency SVM Protocol" on VMMC).
//!
//! Each node is *home* for a slice of a shared array of pages. A node reads
//! a remote page with **remote fetch** and publishes updates with **remote
//! store** — both through UTLB translation. After a warm-up round, the
//! whole protocol runs on the translation fast path: no pin `ioctl`s, no
//! interrupts.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example svm_pages [nodes] [pages_per_node] [rounds]
//! ```

use utlb_core::TranslationMechanism;
use utlb_mem::{ProcessId, VirtAddr, PAGE_SIZE};
use utlb_vmmc::{Cluster, ExportId, ImportId};

struct SvmNode {
    pid: ProcessId,
    /// Import handles to every home's exported slice (None for self).
    imports: Vec<Option<ImportId>>,
}

/// Shared-array geometry: page `g` lives at home node `g / pages_per_node`.
struct Geometry {
    nodes: usize,
    pages_per_node: u64,
}

impl Geometry {
    fn home_of(&self, global_page: u64) -> usize {
        (global_page / self.pages_per_node) as usize % self.nodes
    }
    fn offset_at_home(&self, global_page: u64) -> u64 {
        (global_page % self.pages_per_node) * PAGE_SIZE
    }
    fn total_pages(&self) -> u64 {
        self.nodes as u64 * self.pages_per_node
    }
}

const HOME_BASE: VirtAddr = VirtAddr::new(0x4000_0000);
const SCRATCH: VirtAddr = VirtAddr::new(0x2000_0000);

#[allow(clippy::needless_range_loop)] // node index addresses several tables
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(4);
    let pages_per_node: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(8);
    let rounds: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(3);
    let geo = Geometry {
        nodes,
        pages_per_node,
    };

    // --- set up: every node exports its home slice; everyone imports all.
    let mut cluster = Cluster::new(nodes)?;
    let mut svm: Vec<SvmNode> = Vec::new();
    let mut exports: Vec<ExportId> = Vec::new();
    for n in 0..nodes {
        let pid = cluster.spawn_process(n)?;
        let export = cluster.export(n, pid, HOME_BASE, pages_per_node * PAGE_SIZE)?;
        exports.push(export);
        svm.push(SvmNode {
            pid,
            imports: Vec::new(),
        });
    }
    for n in 0..nodes {
        for (h, &export) in exports.iter().enumerate() {
            let import = if h == n {
                None
            } else {
                Some(cluster.import(n, svm[n].pid, h, export)?)
            };
            svm[n].imports.push(import);
        }
    }

    // --- the protocol: each round, every node increments a counter in the
    // first 8 bytes of every shared page (fetch → bump → store back).
    println!(
        "svm_pages: {nodes} nodes × {pages_per_node} home pages, {rounds} rounds of global increments"
    );
    for round in 0..rounds {
        for n in 0..nodes {
            let pid = svm[n].pid;
            for g in 0..geo.total_pages() {
                let home = geo.home_of(g);
                let off = geo.offset_at_home(g);
                let counter = if home == n {
                    // Local page: plain memory access.
                    let mut buf = [0u8; 8];
                    cluster.read_local(n, pid, HOME_BASE.offset(off), &mut buf)?;
                    u64::from_le_bytes(buf)
                } else {
                    let import = svm[n].imports[home].expect("remote home");
                    cluster.remote_fetch(n, pid, import, SCRATCH, off, 8)?;
                    cluster.run_until_quiet()?;
                    let mut buf = [0u8; 8];
                    cluster.read_local(n, pid, SCRATCH, &mut buf)?;
                    u64::from_le_bytes(buf)
                };
                let bumped = (counter + 1).to_le_bytes();
                if home == n {
                    cluster.write_local(n, pid, HOME_BASE.offset(off), &bumped)?;
                } else {
                    let import = svm[n].imports[home].expect("remote home");
                    cluster.write_local(n, pid, SCRATCH, &bumped)?;
                    cluster.remote_store(n, pid, import, SCRATCH, off, 8)?;
                    cluster.run_until_quiet()?;
                }
            }
        }
        // Consistency check: after the round, every counter equals
        // (round+1) * nodes (the increments serialize via the home copy).
        for g in 0..geo.total_pages() {
            let home = geo.home_of(g);
            let mut buf = [0u8; 8];
            cluster.read_local(
                home,
                svm[home].pid,
                HOME_BASE.offset(geo.offset_at_home(g)),
                &mut buf,
            )?;
            assert_eq!(u64::from_le_bytes(buf), (round + 1) * nodes as u64);
        }
        println!(
            "round {round}: all {} counters consistent",
            geo.total_pages()
        );
    }

    // --- the UTLB story: everything after warm-up was fast path.
    println!("\nper-node translation activity:");
    println!(
        "{:<6}{:>10}{:>12}{:>10}{:>8}{:>12}",
        "node", "lookups", "check miss", "NI miss", "pins", "interrupts"
    );
    for n in 0..nodes {
        let s = cluster.node(n)?.utlb().aggregate_stats();
        println!(
            "{:<6}{:>10}{:>12}{:>10}{:>8}{:>12}",
            n, s.lookups, s.check_misses, s.ni_misses, s.pins, s.interrupts
        );
        assert_eq!(s.interrupts, 0);
    }
    println!("\nthe SVM protocol ran entirely without kernel or interrupt involvement");
    Ok(())
}
