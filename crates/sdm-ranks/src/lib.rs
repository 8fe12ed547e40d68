//! The workspace's lock-rank registry.
//!
//! `sdm-metadb` documents a lock ladder — locks are acquired in strictly
//! increasing rank order, equal ranks never nest — and that ladder is
//! enforced twice: dynamically by the `parking_lot` shim's debug-build
//! rank checker, and statically by `sdm-analyze`'s `ladder` dataflow.
//! Both halves used to carry their own bare integers; this crate is the
//! single table they now share, so a violation prints `catalog(20)`
//! instead of an unexplained `20` no matter which checker caught it.
//!
//! Adding a rank: add a `pub const`, list it in [`RANK_NAMES`], and give
//! the new lock its position in the ladder documented on
//! `sdm_metadb::Database`. Ranks are sparse on purpose — gaps leave room
//! for ROADMAP item 3's per-table locks without renumbering.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Rank of the transaction slot mutex (top of the ladder, taken first).
pub const TX: u32 = 10;
/// Rank of the catalog `RwLock` (middle of the ladder).
pub const CATALOG: u32 = 20;
/// Rank of the WAL storage-tail mutex (group-commit leader election):
/// below the catalog, above the record buffer.
pub const WAL_SYNC: u32 = 24;
/// Rank of the WAL record-buffer mutex.
pub const WAL_BUF: u32 = 26;
/// Rank of the leaf mutexes (`stats`). Leaves are taken alone and never
/// nested, which sharing one rank enforces: an equal-rank acquisition
/// trips the checker like a re-entry would.
pub const LEAF: u32 = 30;

/// Every named rank, lowest (outermost) first.
pub const RANK_NAMES: &[(u32, &str)] = &[
    (TX, "tx"),
    (CATALOG, "catalog"),
    (WAL_SYNC, "wal_sync"),
    (WAL_BUF, "wal_buf"),
    (LEAF, "leaf"),
];

/// Look up the ladder name for a rank, if it has one.
pub fn name(rank: u32) -> Option<&'static str> {
    RANK_NAMES
        .iter()
        .find(|&&(r, _)| r == rank)
        .map(|&(_, n)| n)
}

/// Human-readable form of a rank: `catalog(20)` for registered ranks,
/// `rank(7)` for unregistered ones.
pub fn describe(rank: u32) -> String {
    match name(rank) {
        Some(n) => format!("{n}({rank})"),
        None => format!("rank({rank})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in RANK_NAMES.windows(2) {
            assert!(pair[0].0 < pair[1].0, "ranks must be strictly increasing");
        }
    }

    #[test]
    fn describe_names_registered_ranks() {
        assert_eq!(describe(CATALOG), "catalog(20)");
        assert_eq!(describe(LEAF), "leaf(30)");
        assert_eq!(describe(7), "rank(7)");
    }

    #[test]
    fn name_lookup() {
        assert_eq!(name(TX), Some("tx"));
        assert_eq!(name(WAL_SYNC), Some("wal_sync"));
        assert_eq!(name(0), None);
    }
}
