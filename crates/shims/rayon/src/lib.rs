//! In-tree stand-in for the `rayon` crate (see the note in the
//! `parking_lot` shim). `into_par_iter()` simply yields the sequential
//! iterator: the map/collect pipelines written against rayon compile and
//! run unchanged, without the thread pool.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Rayon-compatible prelude.
pub mod prelude {
    /// `IntoParallelIterator` mapped onto plain [`IntoIterator`].
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// Sequential stand-in for rayon's parallel iterator.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<T: IntoIterator> IntoParallelIterator for T {}
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_is_sequential_iter() {
        let v: Vec<usize> = (0..10).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v[9], 18);
    }
}
