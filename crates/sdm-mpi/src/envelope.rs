//! Message envelopes and tag space.

use sdm_sim::Seconds;

/// Message tag. User tags are small non-negative values; the runtime
/// reserves the high range for collectives and MPI-IO internals.
pub type Tag = u32;

/// Base of the tag range reserved for runtime-internal traffic.
pub const INTERNAL_TAG_BASE: Tag = 0x4000_0000;

/// Tags used by the collective implementations. Each collective call site
/// uses a distinct tag so overlapping phases can't cross-match; sequence
/// safety comes from per-(source, tag) FIFO ordering.
pub mod tags {
    use super::{Tag, INTERNAL_TAG_BASE};

    /// Broadcast tree traffic.
    pub const BCAST: Tag = INTERNAL_TAG_BASE + 1;
    /// Reduce tree traffic.
    pub const REDUCE: Tag = INTERNAL_TAG_BASE + 2;
    /// Gather to root.
    pub const GATHER: Tag = INTERNAL_TAG_BASE + 3;
    /// Pairwise alltoall exchange.
    pub const ALLTOALL: Tag = INTERNAL_TAG_BASE + 6;
    /// Scan chain.
    pub const SCAN: Tag = INTERNAL_TAG_BASE + 7;
    /// SDM ring-pipelined index distribution.
    pub const SDM_RING: Tag = INTERNAL_TAG_BASE + 11;
    /// Rank-finished notification, sent to every peer when a rank's
    /// communicator is dropped. Lets a blocking receive from an exited
    /// peer surface `MpiError::Disconnected` instead of hanging.
    pub const FIN: Tag = INTERNAL_TAG_BASE + 12;
}

/// A message in flight. `depart` is the sender's virtual time when
/// transmission began; the receiver computes arrival from it.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Sender virtual time at transmission start.
    pub depart: Seconds,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_tags_are_distinct_and_reserved() {
        let all = [
            tags::FIN,
            tags::BCAST,
            tags::REDUCE,
            tags::GATHER,
            tags::ALLTOALL,
            tags::SCAN,
            tags::SDM_RING,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(*a >= INTERNAL_TAG_BASE);
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
