//! The experiment registry: every table, figure and extension run the
//! `run_all` binary knows, with the flags each one honours.

use crate::cli::{Flag, Invocation, Operand};
use crate::paper;
use serde::Serialize;
use std::fmt::Display;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::time::Instant;
use utlb_core::obs::NoopProbe;
use utlb_core::{TranslationMechanism, UtlbEngine};
use utlb_sim::experiments::{
    self as exp, CLUSTER_FRONTEND_CONNS, CLUSTER_FRONTEND_NODES, CLUSTER_NODES, FRONTEND_CONNS,
    STREAM_SCALE_APP,
};
use utlb_sim::{wait_breakdown, DesConfig, Mechanism, Run, RunOutputExt, SimConfig};
use utlb_trace::{gen, read_jsonl, write_jsonl, SplashApp};
use Flag::{Cap, Csv, Json, Obs, Scale, Seed};

/// What an entry's run reports: `Err` carries a failure message.
pub type Outcome = Result<(), String>;

/// One experiment `run_all` can run.
#[derive(Debug)]
pub struct Entry {
    /// The name given on the command line.
    pub name: &'static str,
    /// One line for `--help`.
    pub about: &'static str,
    /// The flags the entry honours; every other flag is refused.
    pub flags: &'static [Flag],
    /// The smallest `--cap` that leaves the entry a non-empty axis.
    pub cap_min: usize,
    /// Positional operands after the name.
    pub operands: &'static [Operand],
    /// Runs the entry, printing to stdout.
    pub run: fn(&Invocation) -> Outcome,
}

const fn entry(
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Invocation) -> Outcome,
) -> Entry {
    Entry {
        name,
        about,
        flags,
        cap_min: 0,
        operands: &[],
        run,
    }
}

impl Entry {
    const fn cap_min(self, cap_min: usize) -> Self {
        Entry { cap_min, ..self }
    }

    const fn operands(self, operands: &'static [Operand]) -> Self {
        Entry { operands, ..self }
    }
}

/// Flags of an entry that generates the SPLASH-2 workloads and archives one result.
const GEN_JSON: &[Flag] = &[Scale, Seed, Json];

/// Flags of a figure entry: [`GEN_JSON`] plus a CSV rendering.
const FIGURE: &[Flag] = &[Scale, Seed, Json, Csv];

/// NIC cache entries of every extension run — the paper's default study
/// point (Tables 4–5).
const CACHE_ENTRIES: usize = 8192;

/// Offered load of the interference run and its station breakdown.
const INTERFERENCE_LOAD: f64 = 4.0;

/// Epochs of an uncapped `stream_scale` run: Barnes carries ~35.9 K
/// lookups per epoch at scale 1.0, so 2800 epochs ≈ 100 M lookups.
const STREAM_EPOCHS: u64 = 2800;

/// The run with no name: the whole evaluation in paper order.
pub(crate) static PAPER_RUN: Entry = entry(
    "",
    "Tables 1–8, Figures 7–8, contention, interference; --obs: probe pass → results/obs_*.json",
    &[Scale, Seed, Obs],
    paper::run,
);

/// Every named entry, in `--help` order.
#[rustfmt::skip]
pub(crate) static ENTRIES: &[Entry] = &[
    entry("table1", "Table 1: UTLB host overhead", &[Json], |i| show(i, &exp::table1())),
    entry("table2", "Table 2: UTLB NIC overhead", &[Json], |i| show(i, &exp::table2())),
    entry("table3", "Table 3: application characteristics", GEN_JSON, |i| show(i, &exp::table3(&i.gen))),
    entry("table4", "Table 4: UTLB vs Intr, infinite memory", GEN_JSON, |i| show(i, &exp::table4(&i.gen))),
    entry("table5", "Table 5: UTLB vs Intr, 4 MB limit", GEN_JSON, |i| show(i, &exp::table5(&i.gen))),
    entry("table6", "Table 6: lookup cost, Barnes and FFT", GEN_JSON, |i| show(i, &exp::table6(&i.gen))),
    entry("table7", "Table 7: 1- vs 16-page prepinning", GEN_JSON, |i| show(i, &exp::table7(&i.gen))),
    entry("table8", "Table 8: miss rate by associativity", GEN_JSON, |i| show(i, &exp::table8(&i.gen))),
    entry("fig7", "Figure 7: miss breakdown", FIGURE, |i| {
        let f = exp::fig7(&i.gen);
        show(i, &f).and_then(|()| i.archive_csv(&f.to_csv()))
    }),
    entry("fig8", "Figure 8: prefetching on Radix", FIGURE, |i| {
        let f = exp::fig8(&i.gen);
        show(i, &f).and_then(|()| i.archive_csv(&f.to_csv()))
    }),
    entry("ablations", "policy, per-process, prepin, assoc, multiprog, variants", &[Scale, Seed], ablations),
    entry("contention", "DES offered-load sweep", GEN_JSON, |i| show(i, &exp::bus_contention(&i.gen, CACHE_ENTRIES))),
    entry("interference", "DES Radix+FFT co-scheduling, station breakdown", GEN_JSON, interference),
    entry("cluster", "2–256 board weak scaling; --cap: max boards", &[Scale, Seed, Cap, Json], cluster)
        .cap_min(CLUSTER_NODES[0]),
    entry("frontend", "live plane, 1 board; --cap: max conns", &[Cap, Json], frontend)
        .cap_min(FRONTEND_CONNS[0]),
    entry("cluster_frontend", "live churn, 2–8 boards; --cap: conns", &[Cap, Json], cluster_frontend)
        .cap_min(1),
    entry("stream_scale", "fused 100M-lookup replay; --cap: epochs", &[Scale, Seed, Cap, Json], stream_scale)
        .cap_min(1),
    entry("obs_guard", "fails if a no-op probe costs >10%", &[Scale, Seed], obs_guard),
    entry("trace_gen", "write a trace as JSONL:", &[Scale, Seed], trace_gen)
        .operands(&[Operand::App, Operand::Path("out.jsonl")]),
    entry("sim_trace", "replay a JSONL trace:", &[], sim_trace)
        .operands(&[Operand::Path("trace.jsonl"), Operand::Count("cache_entries"), Operand::Count("mem_limit_pages")]),
];

/// Prints `result` and archives it if `--json` was given.
fn show<T: Display + Serialize>(inv: &Invocation, result: &T) -> Outcome {
    println!("{result}");
    inv.archive(result)
}

/// The points of `axis` at or below `cap` (all of them when uncapped).
fn capped(axis: &[usize], cap: Option<usize>) -> Vec<usize> {
    let cap = cap.unwrap_or(usize::MAX);
    axis.iter().copied().filter(|&x| x <= cap).collect()
}

/// Extension experiments the paper names but could not run: the
/// replacement-policy sweep (§3.4/§7), per-process UTLB vs the Shared
/// UTLB-Cache (§7), a prepin-width sweep extending Table 7, and more.
fn ablations(inv: &Invocation) -> Outcome {
    let g = &inv.gen;
    for app in [SplashApp::Water, SplashApp::Raytrace] {
        println!("{}", exp::policy_sweep(app, g));
    }
    for app in [SplashApp::Lu, SplashApp::Barnes] {
        println!("{}", exp::perproc_vs_shared(app, g, CACHE_ENTRIES));
    }
    for app in [SplashApp::Fft, SplashApp::Water] {
        println!("{}", exp::prepin_sweep(app, g));
    }
    for app in [SplashApp::Water, SplashApp::Barnes] {
        println!("{}", exp::assoc_cost(app, g, 2048));
    }
    for entries in [1024usize, 8192] {
        println!(
            "{}",
            exp::multiprog(SplashApp::Fft, SplashApp::Water, g, entries)
        );
    }
    for app in [SplashApp::Lu, SplashApp::Radix] {
        println!("{}", exp::variant_comparison(app, g, 2048));
    }
    Ok(())
}

/// Each program's DES latency alone vs co-scheduled on one NIC, then the
/// per-station service/wait breakdown of one contended Radix replay.
fn interference(inv: &Invocation) -> Outcome {
    let result = exp::interference_des(
        SplashApp::Radix,
        SplashApp::Fft,
        &inv.gen,
        CACHE_ENTRIES,
        INTERFERENCE_LOAD,
    );
    println!("{result}");
    let radix = gen::generate_shared(SplashApp::Radix, &inv.gen);
    let r = Run::new(Mechanism::Utlb)
        .config(&SimConfig::study(CACHE_ENTRIES))
        .des(DesConfig::contended(INTERFERENCE_LOAD))
        .execute(&radix)
        .into_des()
        .expect("contended replay succeeds");
    let title = format!("Station breakdown — radix / utlb @ load {INTERFERENCE_LOAD:.1}");
    println!("{}", wait_breakdown(title, &r));
    inv.archive(&result)
}

/// Shards a multiprogrammed workload over 2 → 256 simulated boards
/// (per-board engine, firmware and DMA; shared host memory, I/O bus and
/// interrupt service), one job per board, plain and with migrations.
fn cluster(inv: &Invocation) -> Outcome {
    let axis = capped(&CLUSTER_NODES, inv.cap);
    eprintln!(
        "cluster: weak-scaling sweep over {axis:?} boards, one job per board (scale {}, seed {})...",
        inv.gen.scale, inv.gen.seed
    );
    show(inv, &exp::cluster_scaling(&inv.gen, CACHE_ENTRIES, &axis))
}

/// The live request plane on one board: simulated peers connect, export
/// buffers, and issue remote stores/fetches that each mechanism translates
/// on demand — connection churn, credit-window admission, and
/// per-mechanism throughput / tail latency over a connections × offered-
/// load grid.
fn frontend(inv: &Invocation) -> Outcome {
    let axis = capped(&FRONTEND_CONNS, inv.cap);
    eprintln!(
        "frontend: request-plane sweep over {axis:?} connections × 2 loads × 4 mechanisms..."
    );
    show(inv, &exp::frontend_load(CACHE_ENTRIES, &axis))
}

/// A million simulated peers homed over N boards, re-homed by
/// `Frame::Redirect` when a board's registration SRAM runs out, priced on
/// the shared host-memory / I/O-bus / interrupt stations — capacity and
/// tail latency over a boards × homing-policy × mechanism grid.
fn cluster_frontend(inv: &Invocation) -> Outcome {
    let connections = inv.cap.unwrap_or(CLUSTER_FRONTEND_CONNS);
    eprintln!(
        "cluster_frontend: {connections} connections over {CLUSTER_FRONTEND_NODES:?} boards \
         × 2 homing policies × 4 mechanisms..."
    );
    show(
        inv,
        &exp::cluster_frontend(CACHE_ENTRIES, connections, &CLUSTER_FRONTEND_NODES),
    )
}

/// Replays a looped workload that is never materialized, then the largest
/// materialized paper trace as baseline. Run it as its own process: the
/// peak-RSS reading must reflect the streaming loop, not earlier entries.
fn stream_scale(inv: &Invocation) -> Outcome {
    let epochs = inv.cap.map_or(STREAM_EPOCHS, |c| c as u64);
    eprintln!(
        "stream_scale: fused replay of {STREAM_SCALE_APP} x{epochs} epochs \
         (scale {}, seed {})...",
        inv.gen.scale, inv.gen.seed
    );
    let result = exp::stream_scale(&inv.gen, epochs, CACHE_ENTRIES);
    println!("{result}");
    if result.scale_factor < 10.0 {
        return Err(format!(
            "streamed run must be >= 10x the largest materialized run (got {:.1}x)",
            result.scale_factor
        ));
    }
    inv.archive(&result)
}

/// Guards the observability layer's zero-overhead claim: a replay with a
/// `NoopProbe` attached must stay within 10% of the probe-free replay.
/// The two sides run in alternating rounds, so frequency drift hits both
/// equally, and the per-side minima are compared.
fn obs_guard(inv: &Invocation) -> Outcome {
    const ROUNDS: usize = 15;
    const LIMIT: f64 = 1.10;
    let trace = gen::generate_shared(SplashApp::Water, &inv.gen);
    let cfg = SimConfig::study(1024);
    let runner = Run::with_config(&cfg);
    let replay = |probed: bool| {
        let mut engine = UtlbEngine::new(cfg.utlb_config());
        if probed {
            engine.set_probe(Box::new(NoopProbe));
        }
        let t = Instant::now();
        let out = runner.execute_with(&mut engine, &trace).into_sim();
        black_box(out.expect("replay succeeds").stats.lookups);
        t.elapsed().as_secs_f64()
    };

    // Warm both paths (page tables, allocator, trace cache) before timing.
    replay(false);
    replay(true);
    let (mut base, mut probed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        base = base.min(replay(false));
        probed = probed.min(replay(true));
    }

    let ratio = probed / base;
    println!(
        "obs_guard: no-probe {:.1} ms, noop-probe {:.1} ms, ratio {ratio:.3} (limit {LIMIT})",
        base * 1e3,
        probed * 1e3
    );
    if ratio > LIMIT {
        return Err(format!("no-op probe overhead exceeds {LIMIT}x"));
    }
    println!("obs_guard: OK");
    Ok(())
}

/// Generates one application's trace and writes it as JSONL.
fn trace_gen(inv: &Invocation) -> Outcome {
    let app = inv.app.expect("the parser requires <app>");
    let path = &inv.paths[0];
    let trace = gen::generate(app, &inv.gen);
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    write_jsonl(&trace, &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{}: {} records, {} lookups, {} footprint pages -> {}",
        trace.workload,
        trace.records.len(),
        trace.total_lookups(),
        trace.footprint_pages(),
        path.display()
    );
    Ok(())
}

/// Runs a JSONL trace through UTLB and the interrupt-based mechanism and
/// prints the paper's per-lookup metrics.
fn sim_trace(inv: &Invocation) -> Outcome {
    let path = &inv.paths[0];
    let entries = inv.counts.first().copied().unwrap_or(CACHE_ENTRIES);
    let limit = inv.counts.get(1).map(|&n| n as u64);
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let trace =
        read_jsonl(BufReader::new(file)).map_err(|e| format!("parse {}: {e}", path.display()))?;
    println!(
        "{}: {} records, {} lookups, {} footprint pages",
        trace.workload,
        trace.records.len(),
        trace.total_lookups(),
        trace.footprint_pages()
    );

    let mut sim = SimConfig::study(entries);
    sim.mem_limit_pages = limit;
    let run = |mech| Run::new(mech).config(&sim).execute(&trace).into_sim();
    let u = run(Mechanism::Utlb).map_err(|e| e.to_string())?;
    let i = run(Mechanism::Intr).map_err(|e| e.to_string())?;
    println!("cache {entries} entries, mem limit {limit:?} pages/process\n");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>14}{:>12}",
        "mech", "check miss", "NI miss", "unpins", "interrupts", "µs/lookup"
    );
    let rows = [
        (
            "UTLB",
            &u,
            format!("{:.3}", u.stats.check_miss_rate()),
            u.utlb_lookup_cost(&sim),
        ),
        ("Intr", &i, "-".to_string(), i.intr_lookup_cost(&sim)),
    ];
    for (mech, r, check_miss, cost) in rows {
        let (ni_miss, unpins) = (r.stats.ni_miss_rate(), r.stats.unpin_rate());
        let interrupts = r.stats.interrupts;
        println!(
            "{mech:<8}{check_miss:>12}{ni_miss:>12.3}{unpins:>12.3}{interrupts:>14}{cost:>12.2}"
        );
    }
    Ok(())
}
