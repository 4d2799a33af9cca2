//! The experiment runner: `run_all --help` lists every registry entry.

use std::process::ExitCode;
use utlb_bench::cli::{help, parse, UsageError};

fn main() -> ExitCode {
    let inv = match parse(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(UsageError::Help) => {
            print!("{}", help());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("run_all: {e} (see run_all --help)");
            return ExitCode::from(2);
        }
    };
    match (inv.entry.run)(&inv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("run_all {}: {e}", inv.entry.name);
            ExitCode::FAILURE
        }
    }
}
