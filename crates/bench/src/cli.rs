//! The `run_all` command line: one pure parser from an argument list to a
//! typed [`Invocation`], rejecting every flag the chosen registry entry
//! would otherwise ignore. [`help`] prints the usage line and the registry.

use crate::registry::{Entry, ENTRIES, PAPER_RUN};
use serde::Serialize;
use std::fmt;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use utlb_trace::{GenConfig, SplashApp};

/// The paper's workload parameters: seed 1998 (the paper's year), the full
/// Table 3 footprints, four processes per application.
pub(crate) const PAPER_GEN: GenConfig = GenConfig {
    seed: 1998,
    scale: 1.0,
    app_processes: 4,
};

/// A flag a registry entry may honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--scale S`: shrink the Table 3 footprint/lookup targets.
    Scale,
    /// `--seed N`: workload generator seed.
    Seed,
    /// `--cap N`: cap the entry's experiment axis (see its help line).
    Cap,
    /// `--json PATH`: archive the structured result.
    Json,
    /// `--csv PATH`: write a CSV rendering (figures).
    Csv,
    /// `--obs`: rerun the headline cells with the engine probe attached.
    Obs,
}

impl Flag {
    /// Every flag with its command-line spelling.
    const SPELLINGS: [(Flag, &'static str); 6] = [
        (Flag::Scale, "--scale"),
        (Flag::Seed, "--seed"),
        (Flag::Cap, "--cap"),
        (Flag::Json, "--json"),
        (Flag::Csv, "--csv"),
        (Flag::Obs, "--obs"),
    ];

    /// The flag as spelled on the command line.
    pub(crate) fn spelling(self) -> &'static str {
        let spelled = Self::SPELLINGS.iter().find(|(f, _)| *f == self);
        spelled.expect("every flag has a spelling").1
    }
}

/// A positional operand an entry takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A required SPLASH-2 application name.
    App,
    /// A required file path, named for the help line.
    Path(&'static str),
    /// An optional positive integer, named for the help line.
    Count(&'static str),
}

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// `--help`/`-h` was given: print [`help`] instead of running.
    Help,
    /// No registry entry has this name.
    UnknownName(String),
    /// Not a flag of any entry.
    UnknownFlag(String),
    /// `(entry, flag)`: a flag the entry does not honour ("" is the no-name run).
    NotHonoured(&'static str, &'static str),
    /// A value-taking flag ended the command line.
    MissingValue(&'static str),
    /// `(flag or operand, text)`: not a valid number.
    BadNumber(&'static str, String),
    /// `(entry, cap, smallest axis point)`: `--cap` would empty the axis.
    CapBelowAxis(&'static str, usize, usize),
    /// Not a SPLASH-2 application name.
    UnknownApp(String),
    /// A required operand is absent.
    MissingOperand(&'static str),
    /// An operand the entry does not take.
    ExtraOperand(String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Help => f.write_str("help requested"),
            UsageError::UnknownName(name) => write!(f, "no experiment named {name:?}"),
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            UsageError::NotHonoured("", flag) => write!(f, "{flag} needs an experiment name"),
            UsageError::NotHonoured(entry, flag) => write!(f, "{entry} does not take {flag}"),
            UsageError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            UsageError::BadNumber(what, value) => write!(f, "bad {what}: {value:?}"),
            UsageError::CapBelowAxis(entry, cap, min) => {
                write!(
                    f,
                    "--cap {cap} is below {entry}'s smallest axis point {min}"
                )
            }
            UsageError::UnknownApp(app) => write!(f, "unknown app {app:?}"),
            UsageError::MissingOperand(name) => write!(f, "missing operand {name}"),
            UsageError::ExtraOperand(arg) => write!(f, "unexpected operand {arg:?}"),
        }
    }
}

/// A parsed command line: the entry to run and everything it honours.
#[derive(Debug)]
pub struct Invocation {
    /// The registry entry (the paper run when no name was given).
    pub entry: &'static Entry,
    /// Workload generation parameters (`--scale`, `--seed`).
    pub gen: GenConfig,
    /// The axis cap, if `--cap` was given.
    pub cap: Option<usize>,
    /// Where to archive the JSON result, if requested.
    pub json: Option<PathBuf>,
    /// Where to write a CSV rendering, if requested.
    pub csv: Option<PathBuf>,
    /// Whether to run the probe-attached pass.
    pub obs: bool,
    /// The application operand.
    pub app: Option<SplashApp>,
    /// Path operands, in order.
    pub paths: Vec<PathBuf>,
    /// Count operands given, in order.
    pub counts: Vec<usize>,
}

impl Invocation {
    /// Archives `result` as pretty JSON if `--json` was given.
    pub(crate) fn archive<T: Serialize>(&self, result: &T) -> Result<(), String> {
        self.json.as_ref().map_or(Ok(()), |p| write_json(p, result))
    }

    /// Writes a CSV rendering if `--csv` was given.
    pub(crate) fn archive_csv(&self, body: &str) -> Result<(), String> {
        self.csv.as_ref().map_or(Ok(()), |p| write(p, body))
    }
}

/// Writes `value` as pretty JSON to `path`.
pub(crate) fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    write(
        path,
        &serde_json::to_string_pretty(value).expect("results serialize"),
    )
}

fn write(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("archived: {}", path.display());
    Ok(())
}

/// Looks an entry up by name.
pub(crate) fn find(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

fn number<T: FromStr>(what: &'static str, value: String) -> Result<T, UsageError> {
    value
        .parse()
        .map_err(|_| UsageError::BadNumber(what, value))
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, UsageError> {
    let mut args = args.into_iter().peekable();
    let entry = match args.next_if(|a| !a.starts_with('-')) {
        Some(name) => find(&name).ok_or(UsageError::UnknownName(name))?,
        None => &PAPER_RUN,
    };
    let mut inv = Invocation {
        entry,
        gen: PAPER_GEN,
        cap: None,
        json: None,
        csv: None,
        obs: false,
        app: None,
        paths: Vec::new(),
        counts: Vec::new(),
    };
    let mut operands = entry.operands.iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Err(UsageError::Help);
        }
        if !arg.starts_with('-') {
            match operands.next() {
                None => return Err(UsageError::ExtraOperand(arg)),
                Some(Operand::App) => {
                    let app = SplashApp::ALL.into_iter().find(|a| a.name() == arg);
                    inv.app = Some(app.ok_or(UsageError::UnknownApp(arg))?);
                }
                Some(Operand::Path(_)) => inv.paths.push(arg.into()),
                Some(Operand::Count(name)) => {
                    inv.counts.push(number::<NonZeroUsize>(name, arg)?.get())
                }
            }
            continue;
        }
        let Some(&(flag, what)) = Flag::SPELLINGS.iter().find(|(_, s)| *s == arg) else {
            return Err(UsageError::UnknownFlag(arg));
        };
        if !entry.flags.contains(&flag) {
            return Err(UsageError::NotHonoured(entry.name, what));
        }
        let mut value = || args.next().ok_or(UsageError::MissingValue(what));
        match flag {
            Flag::Scale => {
                let text = value()?;
                match text.parse::<f64>() {
                    Ok(scale) if scale > 0.0 && scale.is_finite() => inv.gen.scale = scale,
                    _ => return Err(UsageError::BadNumber(what, text)),
                }
            }
            Flag::Seed => inv.gen.seed = number(what, value()?)?,
            Flag::Cap => inv.cap = Some(number(what, value()?)?),
            Flag::Json => inv.json = Some(value()?.into()),
            Flag::Csv => inv.csv = Some(value()?.into()),
            Flag::Obs => inv.obs = true,
        }
    }
    // Required operands precede optional ones, so only the next one can be missing.
    match (operands.next(), inv.cap) {
        (Some(Operand::App), _) => Err(UsageError::MissingOperand("app")),
        (Some(Operand::Path(name)), _) => Err(UsageError::MissingOperand(name)),
        (_, Some(cap)) if cap < entry.cap_min => {
            Err(UsageError::CapBelowAxis(entry.name, cap, entry.cap_min))
        }
        _ => Ok(inv),
    }
}

/// The `--help` text: the usage line and one row per registry entry.
pub fn help() -> String {
    let mut out = String::from(
        "usage: run_all [NAME] [OPERANDS] [--scale S] [--seed N] [--cap N] \
         [--json PATH] [--csv PATH] [--obs]\n\n",
    );
    for e in std::iter::once(&PAPER_RUN).chain(ENTRIES) {
        let name = if e.name.is_empty() { "(none)" } else { e.name };
        let flags: Vec<_> = e.flags.iter().map(|f| f.spelling()).collect();
        out += &format!("  {name:<17} {:<28} {}", flags.join(" "), e.about);
        for op in e.operands {
            out += &match op {
                Operand::App => " <app>".to_string(),
                Operand::Path(name) => format!(" <{name}>"),
                Operand::Count(name) => format!(" [{name}]"),
            };
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use UsageError::*;

    fn parse_str(line: &str) -> Result<Invocation, UsageError> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn rejects_each_malformed_line() {
        let bad = |what, value: &str| BadNumber(what, value.to_string());
        let rows = [
            ("table4 --scale abc", bad("--scale", "abc")),
            ("table4 --scale 0", bad("--scale", "0")),
            ("table4 --scale nan", bad("--scale", "nan")),
            ("trace_gen radix o.jsonl --scale abc", bad("--scale", "abc")),
            ("frontend --cap 1k", bad("--cap", "1k")),
            (
                "cluster_frontend --cap 0",
                CapBelowAxis("cluster_frontend", 0, 1),
            ),
            ("frontend --cap 999", CapBelowAxis("frontend", 999, 1000)),
            ("cluster --cap 1", CapBelowAxis("cluster", 1, 2)),
            ("table4 --cap 8", NotHonoured("table4", "--cap")),
            ("table4 --csv t4.csv --obs", NotHonoured("table4", "--csv")),
            ("frontend --obs", NotHonoured("frontend", "--obs")),
            ("frontend --scale 0.1", NotHonoured("frontend", "--scale")),
            ("--json x.json", NotHonoured("", "--json")),
            ("table9", UnknownName("table9".into())),
            ("table4 --verbose", UnknownFlag("--verbose".into())),
            ("sim_trace t.jsonl 4O96", bad("cache_entries", "4O96")),
            ("sim_trace t.jsonl 0", bad("cache_entries", "0")),
            ("sim_trace", MissingOperand("trace.jsonl")),
            ("trace_gen radx o.jsonl", UnknownApp("radx".into())),
            ("table4 extra", ExtraOperand("extra".into())),
            ("table4 --json", MissingValue("--json")),
            ("table4 --help", Help),
        ];
        for (line, want) in rows {
            assert_eq!(parse_str(line).unwrap_err(), want, "{line}");
        }
    }

    #[test]
    fn accepts_every_spelling_ci_uses() {
        for line in [
            "--obs",
            "table1 --json results/table1.json",
            "table4 --json results/table4.json",
            "fig7 --json f.json --csv f.csv",
            "ablations",
            "contention --json results/contention.json",
            "interference --json i.json",
            "obs_guard --scale 0.3",
            "stream_scale --cap 40",
            "cluster --cap 8 --scale 0.1 --json c.json",
            "frontend --cap 1000 --json f.json",
            "cluster_frontend --cap 2000 --json c.json",
            "trace_gen radix out.jsonl --seed 7",
            "sim_trace t.jsonl 4096 512",
        ] {
            parse_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }

        let inv = parse_str("--obs").unwrap();
        assert!(inv.obs && inv.entry.name.is_empty() && inv.json.is_none());
        assert_eq!(
            (inv.gen.seed, inv.gen.scale, inv.gen.app_processes),
            (1998, 1.0, 4)
        );
        let inv = parse_str("cluster --cap 8 --scale 0.1 --json c.json").unwrap();
        assert_eq!((inv.cap, inv.gen.scale), (Some(8), 0.1));
        assert_eq!(inv.json, Some(PathBuf::from("c.json")));
        let inv = parse_str("trace_gen radix out.jsonl --seed 7").unwrap();
        assert_eq!((inv.app, inv.gen.seed), (Some(SplashApp::Radix), 7));
        assert_eq!(inv.paths, [PathBuf::from("out.jsonl")]);
        assert_eq!(
            parse_str("sim_trace t.jsonl 4096 512").unwrap().counts,
            [4096, 512]
        );
    }

    #[test]
    fn registry_names_are_unique_and_documented() {
        let help = help();
        for (i, e) in ENTRIES.iter().enumerate() {
            assert!(!e.name.is_empty() && !e.about.is_empty(), "{e:?}");
            assert!(
                ENTRIES[i + 1..].iter().all(|o| o.name != e.name),
                "{}",
                e.name
            );
            assert!(help.contains(&format!("\n  {:<17} ", e.name)), "{}", e.name);
            assert_eq!(e.flags.contains(&Flag::Cap), e.cap_min > 0, "{}", e.name);
        }
        for name in crate::paper::PAPER_ORDER {
            assert!(find(name).is_some(), "{name}");
        }
    }

    #[test]
    fn archive_writes_json_only_when_asked() {
        let path = std::env::temp_dir().join("utlb_bench_cli_archive.json");
        let mut inv = parse_str("table1").unwrap();
        inv.archive(&vec![1, 2, 3]).unwrap();
        assert!(!path.exists());
        inv.json = Some(path.clone());
        inv.archive(&vec![1, 2, 3]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, serde_json::to_string_pretty(&vec![1, 2, 3]).unwrap());
        std::fs::remove_file(path).ok();
    }
}
