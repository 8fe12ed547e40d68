//! Linear cost models for the interconnect and the parallel file system.
//!
//! Both models are deliberately simple — latency plus byte time — because
//! the paper's conclusions rest on *relative* costs (one reader vs many,
//! file-open cost vs data volume, per-process buffer size), not on
//! absolute hardware numbers. Parameters are plain public fields so the
//! ablation harnesses can sweep them.

use crate::time::Seconds;

/// Cost model for point-to-point message transfers (LogGP-flavoured).
///
/// A message of `n` bytes from A to B:
/// * occupies the sender for `overhead + n * inject_byte_time`,
/// * arrives at the receiver `latency + n * byte_time` after it departs.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// One-way wire latency per message (the LogGP `L`), seconds.
    pub latency: Seconds,
    /// Sender/receiver CPU overhead per message (the LogGP `o`), seconds.
    pub overhead: Seconds,
    /// Seconds per byte across the wire (inverse bandwidth, LogGP `G`).
    pub byte_time: Seconds,
    /// Seconds per byte to inject into the NIC from the sender
    /// (models memory-copy cost; usually `<= byte_time`).
    pub inject_byte_time: Seconds,
}

impl NetworkModel {
    /// Time the sender is busy transmitting `bytes`.
    #[inline]
    pub fn send_busy(&self, bytes: usize) -> Seconds {
        self.overhead + bytes as Seconds * self.inject_byte_time
    }

    /// Time from departure until the last byte is available at the receiver.
    #[inline]
    pub fn wire_time(&self, bytes: usize) -> Seconds {
        self.latency + bytes as Seconds * self.byte_time
    }

    /// Receiver CPU overhead to complete a matched receive.
    #[inline]
    pub fn recv_overhead(&self) -> Seconds {
        self.overhead
    }

    fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("latency", self.latency),
            ("overhead", self.overhead),
            ("byte_time", self.byte_time),
            ("inject_byte_time", self.inject_byte_time),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "NetworkModel.{name} must be finite and >= 0, got {v}"
                ));
            }
        }
        Ok(())
    }
}

/// Cost model for the striped parallel file system.
///
/// Servers model controller+disk pairs. Requests to a server queue behind
/// each other (`busy_until` in the PFS crate); this model prices a single
/// request once it reaches the head of the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct IoModel {
    /// Cost of a file open (metadata round trip + allocation), seconds.
    pub open_cost: Seconds,
    /// Cost of a file close, seconds.
    pub close_cost: Seconds,
    /// Cost of installing a file view (MPI_File_set_view), seconds.
    pub view_cost: Seconds,
    /// Fixed per-request latency at a server (seek + controller), seconds.
    pub request_latency: Seconds,
    /// Seconds per byte at one server (inverse per-server bandwidth).
    pub server_byte_time: Seconds,
    /// Client-side seconds per byte for memory copies through I/O buffers.
    pub client_byte_time: Seconds,
    /// Cost of a metadata-database round trip (the paper stores offsets
    /// and history metadata in MySQL), seconds.
    pub metadata_cost: Seconds,
}

impl IoModel {
    /// Service time for a contiguous request of `bytes` at one server,
    /// excluding queueing.
    #[inline]
    pub fn service_time(&self, bytes: usize) -> Seconds {
        self.request_latency + bytes as Seconds * self.server_byte_time
    }

    /// Client-side copy cost for staging `bytes` through a buffer.
    #[inline]
    pub fn client_copy(&self, bytes: usize) -> Seconds {
        bytes as Seconds * self.client_byte_time
    }

    fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("open_cost", self.open_cost),
            ("close_cost", self.close_cost),
            ("view_cost", self.view_cost),
            ("request_latency", self.request_latency),
            ("server_byte_time", self.server_byte_time),
            ("client_byte_time", self.client_byte_time),
            ("metadata_cost", self.metadata_cost),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("IoModel.{name} must be finite and >= 0, got {v}"));
            }
        }
        Ok(())
    }
}

/// Validate a pair of models, returning a description of the first
/// offending field. Used by `MachineConfig` constructors.
pub fn validate(net: &NetworkModel, io: &IoModel) -> Result<(), String> {
    net.validate()?;
    io.validate()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel {
            latency: 10e-6,
            overhead: 1e-6,
            byte_time: 1.0 / 300e6,
            inject_byte_time: 1.0 / 600e6,
        }
    }

    fn io() -> IoModel {
        IoModel {
            open_cost: 1e-3,
            close_cost: 0.5e-3,
            view_cost: 0.2e-3,
            request_latency: 5e-3,
            server_byte_time: 1.0 / 30e6,
            client_byte_time: 1.0 / 400e6,
            metadata_cost: 2e-3,
        }
    }

    #[test]
    fn wire_time_scales_linearly() {
        let m = net();
        let t1 = m.wire_time(1_000_000);
        let t2 = m.wire_time(2_000_000);
        assert!(t2 > t1);
        // subtracting latency, should be exactly 2x
        assert!(((t2 - m.latency) / (t1 - m.latency) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_still_costs_latency() {
        let m = net();
        assert!(m.wire_time(0) >= m.latency);
        assert!(m.send_busy(0) >= m.overhead);
    }

    #[test]
    fn service_time_includes_seek() {
        let m = io();
        assert!(m.service_time(0) >= m.request_latency);
        let big = m.service_time(30_000_000);
        assert!(
            big > 1.0,
            "30MB at 30MB/s should take about a second, got {big}"
        );
    }

    #[test]
    fn validation_rejects_negative() {
        let mut m = io();
        m.open_cost = -1.0;
        assert!(validate(&net(), &m).is_err());
        let mut n = net();
        n.latency = f64::INFINITY;
        assert!(validate(&n, &io()).is_err());
    }

    #[test]
    fn validation_accepts_reasonable() {
        assert!(validate(&net(), &io()).is_ok());
    }
}
