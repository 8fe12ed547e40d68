//! CLI for the workspace invariant checker.
//!
//! ```text
//! sdm-analyze [--root DIR] [--json FILE]
//! ```
//!
//! Analyzes the workspace at `--root` (default: current directory),
//! writes the machine-readable report to `--json` (default:
//! `<root>/ANALYZE.json`), prints each finding plus a one-line summary,
//! and exits nonzero when findings survive suppression.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a file path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let json = json.unwrap_or_else(|| root.join("ANALYZE.json"));

    let report = match sdm_analyze::analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "sdm-analyze: cannot read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    if let Err(e) = std::fs::write(&json, report.to_json()) {
        eprintln!("sdm-analyze: cannot write {}: {e}", json.display());
        return ExitCode::from(2);
    }

    for f in &report.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        println!("    {}", f.snippet);
    }
    println!("{}", report.summary());

    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("sdm-analyze: {err}");
    eprintln!("usage: sdm-analyze [--root DIR] [--json FILE]");
    ExitCode::from(2)
}
