//! `run_all sim_trace` on a trace read from a file: pids that are not dense
//! from 1 are refused with an error message, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};
use utlb_mem::{ProcessId, VirtAddr};
use utlb_trace::{write_jsonl, Op, Trace, TraceRecord};

/// Writes a trace with one record per entry of `pids`, in order, and runs
/// `sim_trace` on it.
fn sim_trace(name: &str, pids: &[u32]) -> Output {
    let records = pids
        .iter()
        .enumerate()
        .map(|(i, &pid)| TraceRecord {
            ts_ns: i as u64 * 1_000,
            pid: ProcessId::new(pid),
            op: Op::Send,
            va: VirtAddr::new(0x4000),
            nbytes: 64,
        })
        .collect();
    let trace = Trace::new(name, 1, records);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.jsonl"));
    let file = std::fs::File::create(&path).expect("create the trace file");
    write_jsonl(&trace, std::io::BufWriter::new(file)).expect("write the trace file");
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("sim_trace")
        .arg(&path)
        .output()
        .expect("run run_all")
}

#[test]
fn non_dense_pids_are_refused_without_a_panic() {
    for (name, pids) in [("pid3", &[3][..]), ("pid0", &[0]), ("pids_1_3", &[1, 3])] {
        let out = sim_trace(name, pids);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("dense from 1"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn dense_pids_replay() {
    let out = sim_trace("pids_1_2", &[1, 2]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Intr"));
}
