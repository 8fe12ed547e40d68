//! Plain-old-data marker trait and byte-view helpers.
//!
//! Message payloads and file buffers move as raw bytes. The [`Pod`] trait
//! marks the fixed-layout numeric types that can be viewed as bytes and
//! reconstructed from them. Implementations are restricted to primitives
//! with no padding and no invalid bit patterns, which is what makes the
//! two `unsafe` blocks below sound.

use std::mem::size_of;

/// Marker for types that are valid under any bit pattern and contain no
/// padding, so `&[T] -> &[u8]` reinterpretation and byte-copy
/// reconstruction are both sound.
///
/// # Safety
/// Implementors must be `Copy`, have no padding bytes, no niches, and no
/// invalid bit patterns. Only numeric primitives implement this here.
pub unsafe trait Pod: Copy + Send + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// View a slice of Pod values as raw little-endian-native bytes.
pub fn as_bytes<T: Pod>(xs: &[T]) -> &[u8] {
    // SAFETY: T is Pod (no padding), lifetime and length are preserved.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs)) }
}

/// Mutable byte view of a slice of Pod values.
pub fn as_bytes_mut<T: Pod>(xs: &mut [T]) -> &mut [u8] {
    // SAFETY: T is Pod: any byte pattern written is a valid T.
    unsafe {
        std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(xs))
    }
}

/// Copy bytes into a freshly allocated, properly aligned `Vec<T>`.
/// Panics if `bytes.len()` is not a multiple of `size_of::<T>()`.
pub fn vec_from_bytes<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let sz = size_of::<T>();
    assert!(
        bytes.len().is_multiple_of(sz),
        "byte length {} not a multiple of element size {}",
        bytes.len(),
        sz
    );
    let n = bytes.len() / sz;
    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY: destination has capacity for n*sz bytes; T is Pod so any
    // byte pattern is valid; set_len after full initialization.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f64() {
        let xs = vec![1.5f64, -2.25, 0.0, f64::MAX];
        let bytes = as_bytes(&xs);
        assert_eq!(bytes.len(), 32);
        let back: Vec<f64> = vec_from_bytes(bytes);
        assert_eq!(back, xs);
    }

    #[test]
    fn round_trip_i32() {
        let xs = vec![i32::MIN, -1, 0, 1, i32::MAX];
        let back: Vec<i32> = vec_from_bytes(as_bytes(&xs));
        assert_eq!(back, xs);
    }

    #[test]
    fn round_trip_u8_identity() {
        let xs = vec![0u8, 255, 7];
        assert_eq!(as_bytes(&xs), &xs[..]);
    }

    #[test]
    fn empty_slices() {
        let xs: Vec<u64> = vec![];
        assert!(as_bytes(&xs).is_empty());
        let back: Vec<u64> = vec_from_bytes(&[]);
        assert!(back.is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_length_panics() {
        let _: Vec<u32> = vec_from_bytes(&[1, 2, 3]);
    }

    #[test]
    fn mutation_through_byte_view() {
        let mut xs = vec![0u16; 2];
        as_bytes_mut(&mut xs).copy_from_slice(&[1, 0, 2, 0]);
        assert_eq!(xs, vec![1u16, 2]);
    }
}
