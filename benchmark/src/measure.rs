//! The run protocol: build the inputs, reset peak RSS, warm up, run timed
//! passes, then time the setup and check the results.
//!
//! One pass runs every cell once. Cell times are kept per pass so the
//! reported throughput can use per-cell medians: a single pass can read far
//! slower than its neighbours, and a median per cell discards those passes
//! without discarding the cell.
//!
//! On a shared host a slower spell also lasts longer than a run: neighbours
//! slow every pass by up to a quarter for tens of seconds at a time, which
//! no median over passes removes. So the host's speed is measured around
//! every pass with a fixed kernel ([`host_speed`]), and host times are
//! reported at the speed of a fixed reference host.

use crate::workload::{Cell, CellResult, Inputs, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Setup is timed at least this often, so `setup_s` is a median ...
const MIN_SETUP_SAMPLES: usize = 5;
/// ... and until this much time has gone into it ...
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// ... but never more than this often.
const MAX_SETUP_SAMPLES: usize = 101;

/// Iterations of the host-speed kernel: about 14 ms on the reference host.
const SPEED_ITERS: u64 = 5_000_000;
/// The kernel's time on the reference host (an Intel Xeon VM with 2 vCPUs,
/// in a quiet spell), ns.
const SPEED_REF_NS: f64 = 13.5e6;

/// The host's speed now relative to the reference host: the reference time
/// of a fixed dependent integer chain over its time now. The chain slows
/// with the host when neighbours load it (on the reference host, during a
/// noisy spell, its time tracked the workloads' with a correlation of
/// 0.6–0.8; in quiet spells the factor stays near 1), so a host time
/// multiplied by this factor reads what the reference host would have
/// taken.
pub fn host_speed() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for i in 0..SPEED_ITERS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    SPEED_REF_NS / t.elapsed().as_nanos() as f64
}

/// CPU accounting of one pass, from `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sched {
    /// Time the thread ran on a CPU, ns.
    pub on_cpu_ns: u64,
    /// Time the thread was runnable but waited for a CPU, ns: a pass with a
    /// large share here was slowed by another tenant, not by the code.
    pub runq_ns: u64,
}

/// The thread's cumulative schedstat counters (zero where unavailable).
fn schedstat() -> Sched {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text.split_whitespace().map(|f| f.parse().unwrap_or(0));
    Sched {
        on_cpu_ns: fields.next().unwrap_or(0),
        runq_ns: fields.next().unwrap_or(0),
    }
}

/// The process's peak resident set (`VmHWM`), KiB; 0 where unavailable.
pub fn peak_rss_kib() -> u64 {
    utlb_sim::experiments::peak_rss_kb().unwrap_or(0)
}

/// Resets the peak-RSS high-water mark to the current resident set, so the
/// next reading covers only what follows.
fn reset_peak_rss() {
    // Best effort: off Linux the reading is 0 anyway.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Per-cell and per-pass host times of a series of passes.
#[derive(Debug, Clone, Default)]
pub struct Passes {
    /// `cell_ns[c][p]`: cell `c`'s time in pass `p`, ns, as measured.
    pub cell_ns: Vec<Vec<f64>>,
    /// Each pass's total cell time, ns, as measured.
    pub pass_ns: Vec<f64>,
    /// Each pass's host speed: the mean of [`host_speed`] before and after.
    pub speed: Vec<f64>,
    /// Each pass's CPU accounting.
    pub sched: Vec<Sched>,
}

impl Passes {
    /// An empty series over `cells` cells.
    pub fn new(cells: usize) -> Passes {
        Passes {
            cell_ns: vec![Vec::new(); cells],
            ..Passes::default()
        }
    }

    /// Number of passes.
    pub fn count(&self) -> usize {
        self.pass_ns.len()
    }

    /// Cell `c`'s times at the reference host's speed, ns.
    pub fn normalized(&self, c: usize) -> Vec<f64> {
        self.cell_ns[c]
            .iter()
            .zip(&self.speed)
            .map(|(ns, s)| ns * s)
            .collect()
    }

    /// Each pass's total time at the reference host's speed, ns.
    pub fn normalized_passes(&self) -> Vec<f64> {
        self.pass_ns
            .iter()
            .zip(&self.speed)
            .map(|(ns, s)| ns * s)
            .collect()
    }
}

/// A workload after setup and the warm-up pass, ready for timed passes.
#[derive(Debug)]
pub struct Prepared {
    /// The built inputs.
    pub inputs: Inputs,
    /// The cells of one pass.
    pub cells: Vec<Cell>,
    /// `mechanism/input` per cell.
    pub labels: Vec<String>,
    /// Seconds each setup sample took, as measured.
    pub setup_s: Vec<f64>,
    /// Host speed while setting up.
    pub setup_speed: f64,
    /// The warm-up pass's results: every later pass must reproduce them.
    pub reference: Vec<CellResult>,
    /// Check failures so far.
    pub failures: Vec<String>,
    /// Cells that failed a check.
    pub failed: Vec<bool>,
}

impl Prepared {
    /// Page lookups one pass performs.
    pub fn lookups_per_pass(&self) -> u64 {
        self.reference.iter().map(|r| r.lookups).sum()
    }

    /// Trace records one pass replays.
    pub fn records_per_pass(&self) -> u64 {
        self.cells.iter().map(|&c| self.inputs.records(c)).sum()
    }

    /// Records a failed check of cell `cell`.
    pub(crate) fn fail(&mut self, cell: usize, why: String) {
        self.failed[cell] = true;
        self.failures.push(why);
    }
}

/// Steps 2 and 3 of the protocol: build the inputs once, reset peak RSS,
/// and run the warm-up pass. Setup is timed afterwards by
/// [`Prepared::time_setup`], once peak RSS has been read, so what the
/// allocator keeps from computing the planned counts never counts toward
/// it.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let inputs = workload.inputs(seed);
    reset_peak_rss();
    warm_up(inputs)
}

/// The warm-up pass on built inputs: its results become the reference
/// every later pass must reproduce byte for byte.
pub fn warm_up(inputs: Inputs) -> Prepared {
    let cells = inputs.cells();
    let labels = cells.iter().map(|&c| inputs.label(c)).collect();
    let reference: Vec<CellResult> = cells
        .iter()
        .map(|&c| inputs.execute(c).summarize())
        .collect();
    Prepared {
        failed: vec![false; cells.len()],
        inputs,
        cells,
        labels,
        setup_s: Vec::new(),
        setup_speed: 1.0,
        reference,
        failures: Vec::new(),
    }
}

impl Prepared {
    /// Step 1 of the protocol, and the checks: times the workload's setup
    /// repeatedly, adopts the planned counts it computes, and checks every
    /// warm-up result against them.
    pub fn time_setup(&mut self, seed: u64) {
        let workload = self.inputs.workload;
        let before = host_speed();
        let started = Instant::now();
        let mut last = None;
        while self.setup_s.len() < MIN_SETUP_SAMPLES
            || (started.elapsed() < SETUP_BUDGET && self.setup_s.len() < MAX_SETUP_SAMPLES)
        {
            // Drop the previous sample first, so two sets never coexist.
            drop(last.take());
            let t = Instant::now();
            let built = black_box(workload.setup(seed));
            self.setup_s.push(t.elapsed().as_secs_f64());
            last = Some(built);
        }
        self.setup_speed = (before + host_speed()) / 2.0;
        self.inputs.planned = last.and_then(|i| i.planned);
        self.check();
    }

    /// Checks every warm-up result.
    pub fn check(&mut self) {
        for i in 0..self.cells.len() {
            for why in self.inputs.check(self.cells[i], &self.reference[i]) {
                self.fail(i, why);
            }
        }
    }
}

/// Runs timed passes until at least `min_passes` have run and `seconds`
/// have elapsed.
pub fn timed_passes(p: &mut Prepared, min_passes: usize, seconds: f64) -> Passes {
    let mut passes = Passes::new(p.cells.len());
    let started = Instant::now();
    while passes.count() < min_passes || started.elapsed().as_secs_f64() < seconds {
        timed_pass(p, &mut passes);
    }
    passes
}

/// One timed pass, appended to `passes`. Every cell's result is digested
/// and held against the warm-up reference.
pub fn timed_pass(p: &mut Prepared, passes: &mut Passes) {
    let speed = host_speed();
    let before = schedstat();
    let mut total = 0.0;
    for i in 0..p.cells.len() {
        let t = Instant::now();
        let raw = p.inputs.execute(p.cells[i]);
        let ns = t.elapsed().as_nanos() as f64;
        total += ns;
        passes.cell_ns[i].push(ns);
        let digest = raw.summarize().digest;
        if digest != p.reference[i].digest {
            let why = format!(
                "{}: pass {} digest {digest:016x} != first pass {:016x}",
                p.labels[i],
                passes.count() + 1,
                p.reference[i].digest
            );
            p.fail(i, why);
        }
    }
    let after = schedstat();
    passes.speed.push((speed + host_speed()) / 2.0);
    passes.pass_ns.push(total);
    passes.sched.push(Sched {
        on_cpu_ns: after.on_cpu_ns - before.on_cpu_ns,
        runq_ns: after.runq_ns - before.runq_ns,
    });
}
