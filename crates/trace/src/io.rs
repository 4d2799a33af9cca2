//! JSONL trace serialization.
//!
//! Traces are stored one JSON record per line with a one-line JSON header,
//! so multi-megabyte traces stream without loading intermediate DOMs, stay
//! diffable, and can be inspected with standard text tools.

use crate::{Trace, TraceRecord};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    workload: String,
    seed: u64,
    records: u64,
}

/// Writes `trace` to `w` as a header line followed by one record per line.
///
/// # Errors
///
/// Propagates I/O and serialization errors as `io::Error`.
pub fn write_jsonl<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    let header = Header {
        workload: trace.workload.clone(),
        seed: trace.seed,
        records: trace.records.len() as u64,
    };
    serde_json::to_writer(&mut w, &header)?;
    w.write_all(b"\n")?;
    for r in &trace.records {
        serde_json::to_writer(&mut w, r)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads a trace previously written by [`write_jsonl`].
///
/// # Errors
///
/// Returns `io::Error` on malformed input, a missing header, records out
/// of timestamp order, or a record count that does not match the header.
pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<Trace> {
    let mut lines = r.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty trace file"))??;
    let header: Header = serde_json::from_str(&header_line)?;
    // The header's count is untrusted: it is checked below, never used to
    // size an allocation.
    let mut records: Vec<TraceRecord> = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: TraceRecord = serde_json::from_str(&line)?;
        if let Some(prev) = records.last().filter(|prev| prev.ts_ns > rec.ts_ns) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record {} is out of timestamp order ({} ns after {} ns)",
                    records.len(),
                    rec.ts_ns,
                    prev.ts_ns
                ),
            ));
        }
        records.push(rec);
    }
    if records.len() as u64 != header.records {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "header declares {} records, found {}",
                header.records,
                records.len()
            ),
        ));
    }
    Ok(Trace::new(header.workload, header.seed, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Op;
    use utlb_mem::{ProcessId, VirtAddr};

    fn sample() -> Trace {
        let recs = (0..10u64)
            .map(|i| TraceRecord {
                ts_ns: i * 100,
                pid: ProcessId::new((i % 3) as u32),
                op: if i % 2 == 0 { Op::Send } else { Op::Fetch },
                va: VirtAddr::new(i * 4096),
                nbytes: 4096,
            })
            .collect();
        Trace::new("roundtrip", 99, recs)
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let back = read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(read_jsonl(&b""[..]).is_err());
    }

    #[test]
    fn record_count_mismatch_is_an_error() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        // Drop the last line.
        let s = String::from_utf8(buf).unwrap();
        let truncated: Vec<&str> = s.lines().collect();
        let shorter = truncated[..truncated.len() - 1].join("\n");
        assert!(read_jsonl(shorter.as_bytes()).is_err());
    }

    #[test]
    fn out_of_order_records_are_an_error() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let mut lines: Vec<&str> = s.lines().collect();
        lines.swap(1, 2);
        let err = read_jsonl(lines.join("\n").as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn huge_header_count_is_an_error() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let s = s.replacen("\"records\":10", &format!("\"records\":{}", u64::MAX), 1);
        let err = read_jsonl(s.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let t = sample();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let mut s = String::from_utf8(buf).unwrap();
        s.push('\n');
        let back = read_jsonl(s.as_bytes()).unwrap();
        assert_eq!(back.records.len(), 10);
    }
}
