//! The plain-old-data marker trait.

/// Marker for types that can be reinterpreted to and from raw bytes.
///
/// # Safety
///
/// Implementors must guarantee all of the following:
///
/// * every bit pattern of `size_of::<Self>()` bytes is a valid value (no
///   niches: no `bool`, no enums with invalid discriminants, no references,
///   no `NonZero*`),
/// * the type is `#[repr(C)]` or `#[repr(transparent)]` with **no padding
///   bytes** (padding would leak uninitialized memory into snapshots),
/// * the type has no drop glue (`Copy` enforces this).
///
/// Snapshots additionally assume the fields are stored little-endian, which
/// holds on every platform this workspace targets; the snapshot header
/// records an endianness probe so a mismatched reader fails loudly instead
/// of misreading.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
// Every bit pattern is an `f64`, a NaN's payload included.
unsafe impl Pod for f64 {}

/// Reinterprets a Pod slice as its raw bytes.
pub fn bytes_of<T: Pod>(data: &[T]) -> &[u8] {
    // Safety: T is Pod (no padding, no invalid bit patterns), and the
    // lifetime is tied to the input slice.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_of_round_trips_little_endian() {
        let xs: [u32; 2] = [0x0403_0201, 0x0807_0605];
        assert_eq!(bytes_of(&xs), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(bytes_of::<u64>(&[]).is_empty());
    }
}
