//! Machine presets bundling network + I/O cost models.

use crate::cost::{validate, IoModel, NetworkModel};

/// A complete simulated-machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable preset name (shows up in bench reports).
    pub name: String,
    /// Interconnect model.
    pub network: NetworkModel,
    /// File-system request model.
    pub io: IoModel,
    /// Number of I/O servers (controller+disk groups) in the PFS.
    pub io_servers: usize,
    /// Stripe unit in bytes.
    pub stripe_size: usize,
}

impl MachineConfig {
    /// Build a validated config; panics on non-finite/negative parameters
    /// or a degenerate topology. Presets use this internally.
    pub fn new(
        name: impl Into<String>,
        network: NetworkModel,
        io: IoModel,
        io_servers: usize,
        stripe_size: usize,
    ) -> Self {
        validate(&network, &io).unwrap_or_else(|e| panic!("invalid MachineConfig: {e}"));
        assert!(io_servers > 0, "need at least one I/O server");
        assert!(stripe_size > 0, "stripe size must be positive");
        Self {
            name: name.into(),
            network,
            io,
            io_servers,
            stripe_size,
        }
    }

    /// Approximation of the paper's platform: SGI Origin2000 at Argonne,
    /// 10 Fibre Channel controllers over 110 disks running XFS.
    ///
    /// Parameters are chosen to match the paper's *observed* aggregate
    /// figures, not vendor datasheets: aggregate read/write bandwidth in
    /// the 100-150 MB/s range across 10 servers (Figure 6), low file-open
    /// and file-view costs (the paper's explanation for Levels 1-3
    /// performing similarly), and a fast NUMA interconnect.
    pub fn origin2000() -> Self {
        Self::new(
            "origin2000",
            NetworkModel {
                latency: 5e-6,
                overhead: 1e-6,
                byte_time: 1.0 / 200e6,        // ~200 MB/s per link
                inject_byte_time: 1.0 / 400e6, // fast local copy
            },
            IoModel {
                open_cost: 0.8e-3, // "the file-open cost is small"
                close_cost: 0.4e-3,
                view_cost: 0.3e-3,
                // Per-request turnaround at a controller group. XFS
                // buffered I/O with readahead on 11-disk FC groups makes
                // large sequential requests cheap; a full random seek
                // would be ~4 ms, but the collective-I/O windows the
                // paper's workloads issue are mostly sequential.
                request_latency: 0.7e-3,
                server_byte_time: 1.0 / 16e6, // ~16 MB/s per controller group
                client_byte_time: 1.0 / 300e6,
                metadata_cost: 1.5e-3, // MySQL round trip on same machine
            },
            10,
            65536,
        )
    }

    /// Tiny, fast config for unit tests: negligible latencies so tests
    /// exercise data paths without accumulating meaningful virtual time.
    pub fn test_tiny() -> Self {
        Self::new(
            "test-tiny",
            NetworkModel {
                latency: 1e-9,
                overhead: 1e-9,
                byte_time: 1e-12,
                inject_byte_time: 1e-12,
            },
            IoModel {
                open_cost: 1e-9,
                close_cost: 1e-9,
                view_cost: 1e-9,
                request_latency: 1e-9,
                server_byte_time: 1e-12,
                client_byte_time: 1e-12,
                metadata_cost: 1e-9,
            },
            4,
            4096,
        )
    }

    /// Per-server bandwidth in bytes/second.
    pub fn server_bandwidth(&self) -> f64 {
        1.0 / self.io.server_byte_time
    }

    /// Peak aggregate PFS bandwidth in bytes/second (all servers busy).
    pub fn aggregate_bandwidth(&self) -> f64 {
        self.server_bandwidth() * self.io_servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin2000_matches_paper_scale() {
        let c = MachineConfig::origin2000();
        let agg = c.aggregate_bandwidth() / 1e6;
        // Figure 6 reports 100-150 MB/s aggregate.
        assert!(
            (100.0..=250.0).contains(&agg),
            "aggregate {agg} MB/s out of paper range"
        );
        assert_eq!(c.io_servers, 10, "paper: 10 Fibre Channel controllers");
        assert!(c.io.open_cost < 10e-3, "paper: low open cost on XFS");
    }

    #[test]
    #[should_panic(expected = "at least one I/O server")]
    fn zero_servers_rejected() {
        let c = MachineConfig::origin2000();
        MachineConfig::new("bad", c.network, c.io, 0, 65536);
    }

    #[test]
    #[should_panic(expected = "stripe size")]
    fn zero_stripe_rejected() {
        let c = MachineConfig::origin2000();
        MachineConfig::new("bad", c.network, c.io, 4, 0);
    }
}
