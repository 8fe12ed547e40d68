//! Collective operations over [`crate::Comm`].
//!
//! All collectives are built from point-to-point messages with the
//! algorithms MPICH uses at these scales (binomial trees, pairwise
//! alltoall), so their *virtual cost* scales the way the paper's MPI did
//! (log p trees, p − 1 exchange steps). None of them use wildcard receives,
//! which keeps virtual time deterministic.

pub mod alltoall;
pub mod bcast;
pub mod gather;
pub mod reduce;
pub mod scan;

use crate::pod::Pod;

/// Numeric Pod types usable with the built-in reduction operators.
pub trait NumPod: Pod + PartialOrd {
    /// Additive identity.
    fn zero() -> Self;
    /// Addition.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_numpod {
    ($($t:ty),*) => {$(
        impl NumPod for $t {
            #[inline]
            fn zero() -> Self { 0 as $t }
            #[inline]
            fn add(self, other: Self) -> Self { self + other }
        }
    )*};
}

impl_numpod!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// Elementwise combine of `src` into `acc` with `f`.
pub(crate) fn combine<T: Copy>(acc: &mut [T], src: &[T], f: impl Fn(T, T) -> T) {
    assert_eq!(
        acc.len(),
        src.len(),
        "reduction buffers must agree in length"
    );
    for (a, &s) in acc.iter_mut().zip(src) {
        *a = f(*a, s);
    }
}
