//! I/O hints (the MPI `Info` knobs SDM passes through).
//!
//! The paper's Section 2 lists "the ability to pass hints to the
//! implementation about access patterns, file-striping parameters, and so
//! forth" among the MPI-IO optimizations SDM exploits. These are the
//! ROMIO hints that matter for the reproduced experiments.

/// Collective-buffering and data-sieving parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Hints {
    /// Number of aggregator ranks in two-phase collective I/O
    /// (`cb_nodes`). `None` means every rank aggregates.
    pub cb_nodes: Option<usize>,
    /// Aggregator staging memory in bytes per open file
    /// (`cb_buffer_size`). An aggregator moves its file domains through
    /// two staging halves that belong to the file handle, one being
    /// filled while the other is at the servers. A half grows to the
    /// largest window it has held and no further than the largest window
    /// there is: the whole stripe cycles that fit half this size (the
    /// half itself if it is under one cycle). Windows start at one stripe
    /// cycle and double up to that (see `twophase`), so this also bounds
    /// how far a collective's requests grow.
    pub cb_buffer_size: usize,
    /// Minimum useful-byte fraction of a sieved extent; below this the
    /// runtime reads segments individually instead.
    pub sieve_min_density: f64,
}

impl Default for Hints {
    fn default() -> Self {
        Self {
            cb_nodes: None,
            cb_buffer_size: 16 << 20, // ROMIO default: 16 MB
            sieve_min_density: 0.25,
        }
    }
}

impl Hints {
    /// Effective aggregator count for a world of `size` ranks.
    pub fn aggregators(&self, size: usize) -> usize {
        self.cb_nodes.unwrap_or(size).clamp(1, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_aggregators_is_world_size() {
        assert_eq!(Hints::default().aggregators(64), 64);
    }

    #[test]
    fn cb_nodes_clamped() {
        let h = Hints {
            cb_nodes: Some(100),
            ..Default::default()
        };
        assert_eq!(h.aggregators(8), 8);
        let h = Hints {
            cb_nodes: Some(0),
            ..Default::default()
        };
        assert_eq!(h.aggregators(8), 1);
        let h = Hints {
            cb_nodes: Some(4),
            ..Default::default()
        };
        assert_eq!(h.aggregators(8), 4);
    }
}
