//! Zero-copy storage substrate for the TurboHOM++ reproduction.
//!
//! This crate is the foundation of the pluggable storage layer:
//!
//! * [`Pod`] — an unsafe marker trait for plain-old-data types whose byte
//!   representation is valid for any bit pattern, so slices of them can be
//!   reinterpreted directly from a mapped file.
//! * [`ByteStore`] — an immutable byte region, either owned on the heap
//!   (8-byte aligned) or memory-mapped through a minimal `mmap(2)` FFI shim
//!   (no external crates; the build environment is offline).
//! * [`FlatVec`] — the workhorse of the refactor: a `Vec<T>`-or-view enum
//!   that derefs to `&[T]`, letting every hot-path structure (CSR adjacency,
//!   dictionary offsets, indexes) be backed either by owned memory or by a
//!   slice of a mapped snapshot without changing its accessors.
//! * [`FlatCsr`] — an offsets-plus-data compressed sparse row layout over
//!   two `FlatVec`s, replacing `Vec<Vec<T>>` in the indexes.
//! * [`fnv1a`] — the 64-bit FNV-1a every persisted or cross-process hash
//!   (snapshot checksums, shard ownership, query fingerprints) is made of.
//! * [`SnapshotWriter`] / [`Snapshot`] / [`SectionCursor`] — the versioned,
//!   checksummed section file format documented in `docs/STORAGE.md`.

pub mod bytes;
pub mod flat;
pub mod hash;
pub mod pod;
pub mod snapshot;

pub use bytes::ByteStore;
pub use flat::{process_resident_bytes, FlatCsr, FlatVec, MemoryUse};
pub use hash::{fnv1a, FNV_OFFSET};
pub use pod::Pod;
pub use snapshot::{SectionCursor, Snapshot, SnapshotError, SnapshotWriter};
