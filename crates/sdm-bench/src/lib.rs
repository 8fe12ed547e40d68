//! Shared harness utilities for the figure reproductions.
//!
//! Each `src/bin/figN.rs` binary regenerates one figure of the paper's
//! evaluation; this library holds the common plumbing: argument parsing,
//! world setup, report aggregation, and table printing.

use std::sync::Arc;

use sdm_apps::PhaseReport;
use sdm_core::{store, SharedStore};
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

/// The flags every figure, ablation and sweep bin accepts.
pub const USAGE: &str =
    "[--scale S] [--procs N] [--machine origin2000|high-open-cost|test-tiny] [--seed N]";

/// The machine preset named `name`, if there is one.
fn preset(name: &str) -> Option<MachineConfig> {
    match name {
        "origin2000" => Some(MachineConfig::origin2000()),
        "high-open-cost" => Some(MachineConfig::high_open_cost()),
        "test-tiny" => Some(MachineConfig::test_tiny()),
        _ => None,
    }
}

/// Common harness arguments (parsed from `--key value` pairs).
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Scale relative to the paper's workload (default 1/32).
    pub scale: f64,
    /// Process count override (paper defaults per figure otherwise).
    pub procs: Option<usize>,
    /// Machine preset: "origin2000" (default), "high-open-cost" or
    /// "test-tiny".
    pub machine: String,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 1.0 / 32.0,
            procs: None,
            machine: "origin2000".into(),
            seed: 20010220,
        }
    }
}

impl HarnessArgs {
    /// Parse from `std::env::args`-style strings (program name
    /// skipped). Rejects an unknown flag, a missing or unparsable value,
    /// a `--scale` that is not a positive finite number, `--procs 0`
    /// and an unknown machine name, so a typo never runs the default
    /// experiment instead.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        while let Some(flag) = args.next() {
            if !matches!(
                flag.as_str(),
                "--scale" | "--procs" | "--machine" | "--seed"
            ) {
                return Err(format!("unknown argument `{flag}`"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag} cannot use `{value}`");
            match flag.as_str() {
                "--scale" => {
                    out.scale = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(bad)?;
                }
                "--procs" => {
                    out.procs = Some(value.parse().ok().filter(|&p| p > 0).ok_or_else(bad)?);
                }
                "--machine" => {
                    if preset(&value).is_none() {
                        return Err(bad());
                    }
                    out.machine = value;
                }
                _ => out.seed = value.parse().map_err(|_| bad())?,
            }
        }
        Ok(out)
    }

    /// Parse the process arguments. On a bad one, print the error and
    /// the usage line to stderr and exit with status 2.
    pub fn from_env() -> Self {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Self::parse(argv).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: {bin} {USAGE}");
            std::process::exit(2)
        })
    }

    /// Resolve the machine preset ([`HarnessArgs::parse`] admits only
    /// known names; anything else resolves to `origin2000`).
    pub fn machine_config(&self) -> MachineConfig {
        preset(&self.machine).unwrap_or_else(MachineConfig::origin2000)
    }

    /// Paper-scale FUN3D node count times `scale`.
    pub fn fun3d_nodes(&self) -> usize {
        ((2_200_000.0 * self.scale) as usize).max(200)
    }

    /// Paper-scale RT node count times `scale`.
    pub fn rt_nodes(&self) -> usize {
        ((4_500_000.0 * self.scale) as usize).max(200)
    }
}

/// Fresh (pfs, metadata store) pair on a machine config. The store is
/// the default stack: a per-timestep batching cache over typed SQL.
pub fn fresh_world(cfg: &MachineConfig) -> (Arc<Pfs>, SharedStore) {
    (Pfs::new(cfg.clone()), store::in_memory())
}

/// Aggregate per-rank reports to the figure's bar values (max over ranks).
pub fn aggregate(reports: Vec<PhaseReport>) -> PhaseReport {
    PhaseReport::reduce_max(&reports)
}

/// Print a figure table header.
pub fn print_header(title: &str, cfg: &MachineConfig, extra: &str) {
    println!("# {title}");
    println!(
        "# machine={} servers={} stripe={}B {extra}",
        cfg.name, cfg.io_servers, cfg.stripe_size
    );
}

/// Print one labeled seconds row.
pub fn print_time_row(label: &str, phases: &[(&str, f64)]) {
    print!("{label:<28}");
    for (name, v) in phases {
        print!(" {name}={v:>9.3}s");
    }
    println!();
}

/// Print one labeled bandwidth row.
pub fn print_bw_row(label: &str, items: &[(&str, f64)]) {
    print!("{label:<28}");
    for (name, v) in items {
        print!(" {name}={v:>8.1} MB/s");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_defaults_and_overrides() {
        let a = HarnessArgs::parse(std::iter::empty()).unwrap();
        assert_eq!(a.procs, None);
        assert!((a.scale - 1.0 / 32.0).abs() < 1e-12);
        let b = HarnessArgs::parse(
            [
                "--scale",
                "0.5",
                "--procs",
                "16",
                "--machine",
                "high-open-cost",
                "--seed",
                "9",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(b.scale, 0.5);
        assert_eq!(b.procs, Some(16));
        assert_eq!(b.machine, "high-open-cost");
        assert_eq!(b.seed, 9);
        assert!(b.machine_config().io.open_cost > 0.1);
    }

    #[test]
    fn parse_rejects_what_it_cannot_use() {
        let parse = |argv: &[&str]| HarnessArgs::parse(argv.iter().map(|s| s.to_string()));
        for argv in [
            &["--scal", "0.5"][..],
            &["0.5"],
            &["--procs"],
            &["--scale", "0,125"],
            &["--scale", "0"],
            &["--scale", "-0.5"],
            &["--scale", "inf"],
            &["--scale", "NaN"],
            &["--procs", "0"],
            &["--procs", "many"],
            &["--machine", "origin3000"],
            &["--seed", "x"],
        ] {
            assert!(parse(argv).is_err(), "accepted {argv:?}");
        }
        assert_eq!(
            parse(&["--machine", "test-tiny"]).unwrap().machine,
            "test-tiny"
        );
    }

    #[test]
    fn scaled_sizes_have_floors() {
        let a = HarnessArgs {
            scale: 1e-9,
            ..Default::default()
        };
        assert!(a.fun3d_nodes() >= 200);
        assert!(a.rt_nodes() >= 200);
    }
}
