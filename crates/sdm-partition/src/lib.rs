//! Graph partitioning: the MeTis substitute.
//!
//! The paper assumes "a partitioning vector generated from a partitioning
//! tool, such as MeTis" — each entry names the rank that owns a node.
//! This crate produces such vectors:
//!
//! * [`multilevel`] — multilevel k-way partitioning in the MeTis style:
//!   heavy-edge matching coarsening, greedy graph-growing initial
//!   partition, and boundary FM refinement during uncoarsening.
//! * [`rcb`] — recursive coordinate bisection (geometric baseline).
//! * [`block`] / [`random`] — degenerate baselines for tests and lower
//!   bounds.
//! * [`metrics`] — edge cut and load imbalance, the two quantities any
//!   partitioning claim is judged by.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod block;
pub mod metrics;
pub mod multilevel;
pub mod random;
pub mod rcb;
pub mod vector;

pub use block::partition_block;
pub use metrics::{edge_cut, imbalance};
pub use multilevel::partition_kway;
pub use random::partition_random;
pub use rcb::partition_rcb;
pub use vector::PartitionVector;

use sdm_mesh::CsrGraph;

/// Partitioning algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Multilevel k-way (MeTis-style) — the default.
    Multilevel,
    /// Recursive coordinate bisection (needs coordinates).
    Rcb,
    /// Contiguous blocks of node ids.
    Block,
    /// Uniform random assignment (worst-case baseline).
    Random,
}

/// Produce a partitioning vector for `graph` into `nparts` parts.
/// `coords` is required by [`Method::Rcb`] and ignored otherwise.
/// Deterministic in `seed`.
pub fn partition(
    graph: &CsrGraph,
    coords: Option<&[[f64; 3]]>,
    nparts: usize,
    method: Method,
    seed: u64,
) -> PartitionVector {
    assert!(nparts > 0, "need at least one part");
    match method {
        Method::Multilevel => multilevel::kway::partition_kway(graph, nparts, seed),
        Method::Rcb => {
            #[expect(
                clippy::expect_used,
                reason = "`partition`'s infallible signature is pinned by the benchmark; \
                          RCB without coordinates is a caller bug"
            )]
            let coords = coords.expect("RCB requires coordinates");
            rcb::partition_rcb(coords, nparts)
        }
        Method::Block => block::partition_block(graph.num_nodes(), nparts),
        Method::Random => random::partition_random(graph.num_nodes(), nparts, seed),
    }
}
