//! Strict command-line parsing: an unknown flag or an unparseable value
//! is an error, never a silently kept default.

use std::path::PathBuf;

use crate::WORKLOADS;

/// Which workloads to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    All,
    One(&'static str),
}

impl Selection {
    pub fn names(&self) -> Vec<&'static str> {
        match self {
            Selection::All => WORKLOADS.to_vec(),
            Selection::One(n) => vec![n],
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Selection,
    /// Feeds the input generators only.
    pub seed: u64,
    /// Length of the measuring phase of one workload, in wall seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Where result files and scratch data go; `None` picks the default
    /// under the cargo target directory.
    pub out: Option<PathBuf>,
    /// Tiny sizes, `test-tiny` machine, one repetition: a functional check.
    pub smoke: bool,
    /// Run every workload twice and compare the medians with the bounds.
    pub repeat_check: bool,
}

pub const USAGE: &str = "usage: bench_e2e --workload <name|all> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--out <dir>] [--smoke] [--repeat-check]";

pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Selection::All,
        seed: 20010220,
        seconds: 20.0, // BENCHMARK.json's run_seconds
        trace: false,
        out: None,
        smoke: false,
        repeat_check: false,
    };
    let mut workload_given = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                args.workload = if v == "all" {
                    Selection::All
                } else {
                    let name = WORKLOADS.iter().find(|w| **w == v).ok_or_else(|| {
                        format!(
                            "unknown workload {v:?}; known: all, {}",
                            WORKLOADS.join(", ")
                        )
                    })?;
                    Selection::One(name)
                };
                workload_given = true;
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(workload_given || args.smoke || args.repeat_check) {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = p("--workload rt_write --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Selection::One("rt_write"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert_eq!(p("--workload all").unwrap().workload.names().len(), 5);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        for bad in [
            "--workload rt_write --frobnicate",
            "--workload nope",
            "--workload rt_write --seed -3",
            "--workload rt_write --seed 1.5",
            "--workload rt_write --seconds zero",
            "--workload rt_write --seconds 0",
            "--workload rt_write --trace yes",
            "--workload rt_write --seed",
            "--seed 3",
            "rt_write",
        ] {
            assert!(p(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn smoke_and_repeat_check_imply_all_workloads() {
        assert_eq!(p("--smoke").unwrap().workload, Selection::All);
        assert!(p("--repeat-check").unwrap().repeat_check);
    }
}
