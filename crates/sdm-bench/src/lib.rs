//! Shared harness utilities for the figure reproductions.
//!
//! Each `src/bin/figN.rs` binary regenerates one figure of the paper's
//! evaluation; this library holds the common plumbing: argument parsing,
//! world setup and table printing.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use sdm_core::{store, SharedStore};
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

/// The flags every figure, ablation and sweep bin accepts.
pub const USAGE: &str = "[--scale S] [--procs N] [--seed N]";

/// Common harness arguments (parsed from `--key value` pairs).
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Scale relative to the paper's workload (default 1/32).
    pub scale: f64,
    /// Process count override (paper defaults per figure otherwise).
    pub procs: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            scale: 1.0 / 32.0,
            procs: None,
            seed: 20010220,
        }
    }
}

impl HarnessArgs {
    /// Parse from `std::env::args`-style strings (program name
    /// skipped). Rejects an unknown flag, a missing or unparsable value,
    /// a `--scale` that is not a positive finite number and `--procs 0`,
    /// so a typo never runs the default experiment instead.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        while let Some(flag) = args.next() {
            if !matches!(flag.as_str(), "--scale" | "--procs" | "--seed") {
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
            ["--scale", "0.5", "--procs", "16", "--seed", "9"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(b.scale, 0.5);
        assert_eq!(b.procs, Some(16));
        assert_eq!(b.seed, 9);
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
            &["--machine", "origin2000"],
            &["--seed", "x"],
        ] {
            assert!(parse(argv).is_err(), "accepted {argv:?}");
        }
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
