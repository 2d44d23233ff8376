//! `FlatVec` and `FlatCsr`: owned-or-view flat arrays.

use crate::bytes::ByteStore;
use crate::pod::Pod;
use crate::snapshot::SnapshotError;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

/// What keeps a [`FlatVec`]'s elements alive, and where they live.
enum Owner<T: Pod> {
    /// Heap memory the array owns.
    Heap(Vec<T>),
    /// A region of a byte store (typically a mapped snapshot) the array
    /// reads in place.
    Store(Arc<ByteStore>),
}

/// A flat array of Pod elements, either heap-owned or a zero-copy view into
/// a [`ByteStore`] (typically a mapped snapshot). Derefs to `&[T]`, so all
/// read paths are identical for both representations.
///
/// The array holds its slice resolved, `(ptr, len)`, beside the owner that
/// keeps the elements alive: a read is two field loads whichever the owner
/// is. Neither a heap buffer nor a store region moves when the `FlatVec`
/// does, so the pair stays right until [`to_mut`](FlatVec::to_mut) changes
/// the buffer, and its guard resolves the pair again when it drops.
pub struct FlatVec<T: Pod> {
    ptr: NonNull<T>,
    len: usize,
    owner: Owner<T>,
}

// SAFETY: `ptr` reads only the `len` elements that `owner` keeps alive and
// unmoved: the buffer of its `Vec<T>` or a region of its `Arc<ByteStore>`.
// Both owners are `Send` (`T: Pod` is `Send`, and `ByteStore` is `Send +
// Sync`), and that memory goes to the other thread with them; `len` is a
// plain count.
unsafe impl<T: Pod> Send for FlatVec<T> {}
// SAFETY: a shared `FlatVec` hands out only `&[T]` of the memory its owner
// keeps alive (`T: Pod` is `Sync`); writing needs `&mut self` (`to_mut`).
unsafe impl<T: Pod> Sync for FlatVec<T> {}

impl<T: Pod> FlatVec<T> {
    /// Creates an empty owned vector.
    pub fn new() -> Self {
        Self::from(Vec::new())
    }

    /// Wraps a view over `len` elements starting `offset` bytes into `store`.
    ///
    /// Used by the snapshot reader, which validates each section's bounds
    /// and alignment (see [`Snapshot::section`](crate::Snapshot)); a view
    /// outside its store panics.
    pub(crate) fn view(store: Arc<ByteStore>, offset: usize, len: usize) -> Self {
        let region = &store.bytes()[offset..];
        let ptr = NonNull::from(region).cast::<T>();
        // `as_slice` reads through `ptr` from here on: it must hold `len`
        // aligned elements.
        assert!(
            len <= region.len() / std::mem::size_of::<T>() && ptr.as_ptr().is_aligned(),
            "a view must lie in its store, aligned"
        );
        FlatVec {
            ptr,
            len,
            owner: Owner::Store(store),
        }
    }

    /// Returns `true` if this is a zero-copy view (not owned memory).
    pub fn is_view(&self) -> bool {
        matches!(self.owner, Owner::Store(_))
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: `ptr` and `len` were resolved from `owner`: the `Vec`'s
        // buffer (by `from` or the `to_mut` guard's drop), or a store region
        // that `view` checked holds `len` aligned elements. `self` keeps the
        // owner alive, and nothing writes the memory while `&self` is held;
        // `T` is Pod, so any byte pattern is valid.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Bytes this array holds on the heap: its elements when owned (or when
    /// it views a buffered, not mapped, snapshot), 0 over a mapping. Counts
    /// `len`, not capacity, so it equals the array's snapshot section.
    pub fn heap_bytes(&self) -> u64 {
        match &self.owner {
            Owner::Store(store) if store.is_mapped() => 0,
            _ => std::mem::size_of_val(self.as_slice()) as u64,
        }
    }

    /// Bytes this array reads in place from a memory-mapped file.
    pub fn mapped_bytes(&self) -> u64 {
        std::mem::size_of_val(self.as_slice()) as u64 - self.heap_bytes()
    }

    /// Mutable access as an owned `Vec`, converting a view into owned memory
    /// first (copy-on-write). The guard resolves the slice again when it
    /// drops.
    pub fn to_mut(&mut self) -> FlatVecMut<'_, T> {
        if self.is_view() {
            *self = Self::from(self.as_slice().to_vec());
        }
        let Owner::Heap(vec) = &mut self.owner else {
            unreachable!("converted to owned above")
        };
        // A guard that never drops (`mem::forget`) leaves an empty array,
        // never a pair into a freed buffer.
        self.len = 0;
        FlatVecMut {
            vec,
            ptr: &mut self.ptr,
            len: &mut self.len,
        }
    }
}

/// The `Vec` behind a [`FlatVec`], from [`FlatVec::to_mut`]. Dropping it
/// resolves the array's slice again, wherever the writes moved the buffer.
pub struct FlatVecMut<'a, T: Pod> {
    vec: &'a mut Vec<T>,
    ptr: &'a mut NonNull<T>,
    len: &'a mut usize,
}

impl<T: Pod> Deref for FlatVecMut<'_, T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        self.vec
    }
}

impl<T: Pod> DerefMut for FlatVecMut<'_, T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        self.vec
    }
}

impl<T: Pod> Drop for FlatVecMut<'_, T> {
    fn drop(&mut self) {
        *self.ptr = NonNull::from(self.vec.as_slice()).cast();
        *self.len = self.vec.len();
    }
}

impl<T: Pod> Default for FlatVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pod> From<Vec<T>> for FlatVec<T> {
    fn from(v: Vec<T>) -> Self {
        FlatVec {
            ptr: NonNull::from(v.as_slice()).cast::<T>(),
            len: v.len(),
            owner: Owner::Heap(v),
        }
    }
}

impl<T: Pod> Deref for FlatVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for FlatVec<T> {
    fn clone(&self) -> Self {
        match &self.owner {
            Owner::Heap(v) => Self::from(v.clone()),
            Owner::Store(store) => FlatVec {
                ptr: self.ptr,
                len: self.len,
                owner: Owner::Store(Arc::clone(store)),
            },
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for FlatVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Pod + PartialEq> PartialEq for FlatVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for FlatVec<T> {}

impl<'a, T: Pod> IntoIterator for &'a FlatVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Compressed sparse rows over two [`FlatVec`]s: `offsets[i]..offsets[i+1]`
/// is row `i` of `data`. Replaces `Vec<Vec<T>>` in the graph indexes so the
/// whole structure is two flat arrays, readable in place from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatCsr<T: Pod> {
    offsets: FlatVec<u64>,
    data: FlatVec<T>,
}

impl<T: Pod> Default for FlatCsr<T> {
    fn default() -> Self {
        FlatCsr {
            offsets: vec![0u64].into(),
            data: FlatVec::new(),
        }
    }
}

impl<T: Pod> FlatCsr<T> {
    /// Builds `num_rows` rows in two walks over one input: `walk` hands its
    /// sink `(row, value)` pairs, once to count each row's length and once
    /// to place the values, so both arrays are allocated at their final
    /// length. A row keeps its values in the order they arrive.
    pub fn counted(num_rows: usize, walk: impl Fn(&mut dyn FnMut(usize, T))) -> Self
    where
        T: Default,
    {
        let mut offsets = vec![0u64; num_rows + 1];
        walk(&mut |row, _| offsets[row + 1] += 1);
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut data = vec![T::default(); offsets[num_rows] as usize];
        // Each row's cursor starts at its offset and ends at the next one.
        let mut next: Vec<u64> = offsets[..num_rows].to_vec();
        walk(&mut |row, value| {
            data[next[row] as usize] = value;
            next[row] += 1;
        });
        FlatCsr {
            offsets: offsets.into(),
            data: data.into(),
        }
    }

    /// Reassembles from the two flat arrays, validating the CSR invariants
    /// (non-empty offsets, monotone, last offset covering `data`).
    pub fn from_parts(offsets: FlatVec<u64>, data: FlatVec<T>) -> Result<Self, SnapshotError> {
        if offsets.is_empty() {
            // Canonical empty form: zero rows.
            return Ok(FlatCsr {
                offsets: vec![0u64].into(),
                data,
            });
        }
        if offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
            || *offsets.last().unwrap() as usize != data.len()
        {
            return Err(SnapshotError::Malformed(
                "CSR offsets are not monotone over the data array".into(),
            ));
        }
        Ok(FlatCsr { offsets, data })
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Row `i` as a slice; empty for out-of-range rows.
    pub fn row(&self, i: usize) -> &[T] {
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Heap bytes of both arrays (see [`FlatVec::heap_bytes`]).
    pub fn heap_bytes(&self) -> u64 {
        self.offsets.heap_bytes() + self.data.heap_bytes()
    }

    /// Mapped bytes of both arrays.
    pub fn mapped_bytes(&self) -> u64 {
        self.offsets.mapped_bytes() + self.data.mapped_bytes()
    }

    /// The offsets array (for snapshot writing).
    pub fn offsets(&self) -> &FlatVec<u64> {
        &self.offsets
    }

    /// The data array (for snapshot writing).
    pub fn data(&self) -> &FlatVec<T> {
        &self.data
    }
}

/// Bytes a structure holds, split by where they live: the entry type of the
/// memory ledger (`Store::memory`, `/stats` `bytes`, `turbohom_memory_bytes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryUse {
    /// Bytes in owned heap memory.
    pub heap: u64,
    /// Bytes read in place from a memory-mapped snapshot.
    pub mapped: u64,
}

impl<T: Pod> From<&FlatVec<T>> for MemoryUse {
    fn from(v: &FlatVec<T>) -> Self {
        MemoryUse {
            heap: v.heap_bytes(),
            mapped: v.mapped_bytes(),
        }
    }
}

impl<T: Pod> From<&FlatCsr<T>> for MemoryUse {
    fn from(csr: &FlatCsr<T>) -> Self {
        MemoryUse {
            heap: csr.heap_bytes(),
            mapped: csr.mapped_bytes(),
        }
    }
}

impl std::ops::Add for MemoryUse {
    type Output = MemoryUse;

    fn add(self, other: MemoryUse) -> MemoryUse {
        MemoryUse {
            heap: self.heap + other.heap,
            mapped: self.mapped + other.mapped,
        }
    }
}

impl std::iter::Sum for MemoryUse {
    fn sum<I: Iterator<Item = MemoryUse>>(iter: I) -> MemoryUse {
        iter.fold(MemoryUse::default(), std::ops::Add::add)
    }
}

/// The process's resident set and its high-water mark in bytes (`VmRSS`
/// and `VmHWM` of `/proc/self/status`); zeros where that file is missing.
/// What the ledger's lines add up to is read against these.
pub fn process_resident_bytes() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        let line = status.lines().find_map(|l| l.strip_prefix(name));
        let kb = line.and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        });
        kb.unwrap_or(0) * 1024
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CSR whose rows are `rows`.
    fn csr_of(rows: &[Vec<u32>]) -> FlatCsr<u32> {
        FlatCsr::counted(rows.len(), |sink| {
            for (r, row) in rows.iter().enumerate() {
                row.iter().for_each(|&v| sink(r, v));
            }
        })
    }

    #[test]
    fn bytes_are_heap_when_owned_or_buffered_and_mapped_over_a_mapping() {
        let owned: FlatVec<u32> = vec![1, 2, 3].into();
        assert_eq!((owned.heap_bytes(), owned.mapped_bytes()), (12, 0));
        let buffered = Arc::new(ByteStore::from_bytes(&[0; 16]));
        let view: FlatVec<u64> = FlatVec::view(buffered, 0, 2);
        assert_eq!((view.heap_bytes(), view.mapped_bytes()), (16, 0));
        let csr = csr_of(&[vec![1, 2], vec![3]]);
        assert_eq!(
            MemoryUse::from(&csr) + MemoryUse::from(&owned),
            MemoryUse {
                heap: 3 * 8 + 3 * 4 + 12,
                mapped: 0
            }
        );
    }

    #[test]
    fn owned_flatvec_behaves_like_a_slice() {
        let mut v: FlatVec<u32> = vec![3, 1, 2].into();
        assert_eq!(&*v, &[3, 1, 2]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_view());
        v.to_mut().push(9);
        assert_eq!(v.as_slice(), &[3, 1, 2, 9]);
        assert_eq!(v.clone(), v);
    }

    #[test]
    fn view_reads_in_place_and_cow_copies() {
        let store = Arc::new(ByteStore::from_bytes(&[1, 0, 0, 0, 2, 0, 0, 0]));
        let mut v: FlatVec<u32> = FlatVec::view(Arc::clone(&store), 0, 2);
        assert!(v.is_view());
        assert_eq!(v.as_slice(), &[1, 2]);
        // The view points into the store's memory, no copy.
        assert_eq!(
            v.as_slice().as_ptr() as usize,
            store.bytes().as_ptr() as usize
        );
        v.to_mut().push(3);
        assert!(!v.is_view());
        assert_eq!(v.as_slice(), &[1, 2, 3]);
    }

    /// An owned array and a view over a buffered store, both `[1, 2, 3]`.
    fn owned_and_view() -> [FlatVec<u32>; 2] {
        let store = Arc::new(ByteStore::from_bytes(crate::pod::bytes_of(&[1u32, 2, 3])));
        [vec![1, 2, 3].into(), FlatVec::view(store, 0, 3)]
    }

    #[test]
    fn a_view_past_its_store_or_misaligned_panics() {
        let store = Arc::new(ByteStore::from_bytes(&[0; 8]));
        for (offset, len) in [(4, 2), (2, 1), (9, 0)] {
            let store = Arc::clone(&store);
            let view =
                std::panic::AssertUnwindSafe(move || FlatVec::<u32>::view(store, offset, len));
            assert!(std::panic::catch_unwind(view).is_err(), "{offset}, {len}");
        }
        assert_eq!(FlatVec::<u32>::view(store, 8, 0).len(), 0);
    }

    #[test]
    fn a_clone_reads_on_after_its_original_is_dropped() {
        for original in owned_and_view() {
            let clone = original.clone();
            assert_eq!(clone.is_view(), original.is_view());
            // A view's clone reads the same memory; an owned one's a copy.
            let shared = clone.as_ptr() == original.as_ptr();
            assert_eq!(shared, original.is_view());
            drop(original);
            assert_eq!(&*clone, &[1, 2, 3]);
        }
    }

    #[test]
    fn growing_past_the_capacity_then_reading_sees_the_new_buffer() {
        for mut v in owned_and_view() {
            let mut vec = v.to_mut();
            let grown = vec.capacity() as u32 + 1;
            vec.extend(4..=grown);
            drop(vec);
            assert!(!v.is_view());
            let expected: Vec<u32> = (1..=grown).collect();
            assert_eq!(v.as_slice(), &expected[..]);
            assert_eq!(v.clone(), v);
        }
    }

    #[test]
    fn a_guard_that_never_drops_leaves_an_empty_array() {
        for mut v in owned_and_view() {
            std::mem::forget(v.to_mut());
            assert!(v.is_empty());
            // The next guard resolves the slice again.
            v.to_mut().push(4);
            assert_eq!(&*v, &[1, 2, 3, 4]);
        }
    }

    #[test]
    fn an_array_moved_to_another_thread_reads_there() {
        for v in owned_and_view() {
            let expected = v.to_vec();
            let read = std::thread::spawn(move || v.to_vec()).join().unwrap();
            assert_eq!(read, expected);
        }
    }

    #[test]
    fn csr_round_trip() {
        let csr = csr_of(&[vec![1, 2], vec![], vec![3]]);
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.row(0), &[1, 2]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[3]);
        assert_eq!(csr.row(7), &[] as &[u32]);
        assert_eq!(csr.data().len(), 3);
        let rebuilt = FlatCsr::from_parts(csr.offsets().clone(), csr.data().clone()).unwrap();
        assert_eq!(rebuilt, csr);
    }

    #[test]
    fn a_counted_csr_keeps_each_rows_values_in_arrival_order() {
        let pairs = [(2usize, 7u32), (0, 1), (2, 8), (0, 2), (2, 9)];
        let csr = FlatCsr::counted(4, |sink| pairs.iter().rev().for_each(|&(r, v)| sink(r, v)));
        let rows: Vec<&[u32]> = (0..csr.num_rows()).map(|r| csr.row(r)).collect();
        assert_eq!(rows, [&[2, 1][..], &[], &[9, 8, 7], &[]]);
        assert_eq!(FlatCsr::<u32>::counted(0, |_| {}).num_rows(), 0);
    }

    #[test]
    fn csr_rejects_broken_offsets() {
        let bad = FlatCsr::<u32>::from_parts(vec![0u64, 5].into(), vec![1u32].into());
        assert!(matches!(bad, Err(SnapshotError::Malformed(_))));
        let nonmono = FlatCsr::<u32>::from_parts(vec![0u64, 2, 1].into(), vec![1u32, 2].into());
        assert!(nonmono.is_err());
        let empty = FlatCsr::<u32>::from_parts(FlatVec::new(), FlatVec::new()).unwrap();
        assert_eq!(empty.num_rows(), 0);
    }
}
