//! The snapshot file format: a versioned, checksummed container of flat
//! Pod sections.
//!
//! Layout (all integers little-endian, documented in `docs/STORAGE.md`):
//!
//! ```text
//! offset  0  magic            8 bytes  b"TURBOSNP"
//! offset  8  version          u32      format version (currently 3)
//! offset 12  endian probe     u32      0x0A0B0C0D as written by the producer
//! offset 16  section count    u64
//! offset 24  table offset     u64      byte offset of the section table
//! offset 32  file length      u64      total expected file size in bytes
//! offset 40  payload checksum u64      FNV-1a 64 over bytes [64, table offset)
//! offset 48  header checksum  u64      FNV-1a 64 over bytes [0, 48) ++ table
//! offset 56  reserved         u64      zero
//! offset 64  payload sections, each 8-byte aligned, zero padded between
//! table offset: section table  — count × { tag u64, offset u64, len u64 }
//! ```
//!
//! The header, the section table and every section's bounds are validated on
//! every open; the payload checksum is verified too (a sequential read of
//! the mapped pages — still zero-copy). Sections are then handed out as
//! [`FlatVec`] views directly into the mapped (or buffered) file.

use crate::bytes::ByteStore;
use crate::flat::FlatVec;
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::pod::{bytes_of, Pod};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes at offset 0.
pub const MAGIC: [u8; 8] = *b"TURBOSNP";
/// Current format version: 3 since the dictionary's term records carry a
/// bit saying whether the term's strings need a JSON escape (2 shrank them to
/// 32 bytes with each term's numeric view; store sub-version 12 to 16 bytes,
/// the views beside them); an older file is refused.
pub const VERSION: u32 = 3;
/// Endianness probe value (reads back differently on a big-endian machine).
const ENDIAN_PROBE: u32 = 0x0A0B_0C0D;
/// Fixed header size in bytes; payload sections start here.
pub const HEADER_LEN: usize = 64;
/// Size of one section-table entry in bytes.
const ENTRY_LEN: usize = 24;

/// Errors opening or reading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Underlying I/O failure (open, read, write).
    Io(String),
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The file was written on a platform with different endianness.
    EndianMismatch,
    /// The file is shorter than its header or section table claims.
    Truncated(String),
    /// A checksum did not match; `"header"` or `"payload"`.
    ChecksumMismatch(&'static str),
    /// The file is structurally inconsistent (bad section tag, misaligned
    /// offset, CSR invariant violation, …).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (expected {expected})"
                )
            }
            SnapshotError::EndianMismatch => {
                write!(f, "snapshot was written with a different byte order")
            }
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated: {what}"),
            SnapshotError::ChecksumMismatch(which) => {
                write!(f, "snapshot {which} checksum mismatch")
            }
            SnapshotError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    tag: u64,
    offset: u64,
    len: u64,
}

/// Accumulates sections and writes a snapshot file.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    payload: Vec<u8>,
    sections: Vec<SectionEntry>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section of Pod elements under `tag`. Sections are read back
    /// in the order they were written.
    pub fn section<T: Pod>(&mut self, tag: u64, data: &[T]) {
        while !self.payload.len().is_multiple_of(8) {
            self.payload.push(0);
        }
        let bytes = bytes_of(data);
        self.sections.push(SectionEntry {
            tag,
            offset: (HEADER_LEN + self.payload.len()) as u64,
            len: bytes.len() as u64,
        });
        self.payload.extend_from_slice(bytes);
    }

    /// Number of sections written so far.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Serializes header + payload + table and writes the file atomically
    /// (via a sibling temp file and rename). Returns the total size in bytes.
    pub fn write_to(&self, path: &Path) -> Result<u64, SnapshotError> {
        // The table starts 8-byte aligned; the padding is checksummed and
        // written after the payload instead of copying the payload to pad it.
        let padding = &[0u8; 8][..self.payload.len().next_multiple_of(8) - self.payload.len()];
        let table_offset = HEADER_LEN + self.payload.len() + padding.len();
        let mut table = Vec::with_capacity(self.sections.len() * ENTRY_LEN);
        for s in &self.sections {
            table.extend_from_slice(&s.tag.to_le_bytes());
            table.extend_from_slice(&s.offset.to_le_bytes());
            table.extend_from_slice(&s.len.to_le_bytes());
        }
        let file_len = table_offset + table.len();
        let payload_checksum = fnv1a(fnv1a(FNV_OFFSET, &self.payload), padding);

        let mut fixed = Vec::with_capacity(48);
        fixed.extend_from_slice(&MAGIC);
        fixed.extend_from_slice(&VERSION.to_le_bytes());
        fixed.extend_from_slice(&ENDIAN_PROBE.to_le_bytes());
        fixed.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        fixed.extend_from_slice(&(table_offset as u64).to_le_bytes());
        fixed.extend_from_slice(&(file_len as u64).to_le_bytes());
        fixed.extend_from_slice(&payload_checksum.to_le_bytes());
        let header_checksum = fnv1a(fnv1a(FNV_OFFSET, &fixed), &table);

        let tmp = path.with_extension("tmp-snapshot");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&fixed)?;
            f.write_all(&header_checksum.to_le_bytes())?;
            f.write_all(&0u64.to_le_bytes())?;
            f.write_all(&self.payload)?;
            f.write_all(padding)?;
            f.write_all(&table)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(file_len as u64)
    }
}

/// An opened, validated snapshot whose sections read in place.
#[derive(Debug)]
pub struct Snapshot {
    store: Arc<ByteStore>,
    sections: Vec<SectionEntry>,
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("bounds checked"))
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("bounds checked"))
}

impl Snapshot {
    /// Opens a snapshot, preferring `mmap(2)` and falling back to a buffered
    /// read when mapping fails. All structural validation (magic, version,
    /// endianness, bounds, header and payload checksums) happens here.
    pub fn open(path: &Path) -> Result<Self, SnapshotError> {
        let store = match ByteStore::map_file(path) {
            Ok(s) => s,
            Err(_) => ByteStore::read_file(path)?,
        };
        Self::from_store(store)
    }

    /// Opens with the buffered-read fallback only (used by tests to exercise
    /// the heap path deterministically).
    pub fn open_buffered(path: &Path) -> Result<Self, SnapshotError> {
        Self::from_store(ByteStore::read_file(path)?)
    }

    fn from_store(store: ByteStore) -> Result<Self, SnapshotError> {
        let bytes = store.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated(format!(
                "{} bytes is smaller than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if bytes[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u32(bytes, 8);
        if version != VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: VERSION,
            });
        }
        if read_u32(bytes, 12) != ENDIAN_PROBE {
            return Err(SnapshotError::EndianMismatch);
        }
        let section_count = read_u64(bytes, 16) as usize;
        let table_offset = read_u64(bytes, 24) as usize;
        let file_len = read_u64(bytes, 32) as usize;
        let payload_checksum = read_u64(bytes, 40);
        let header_checksum = read_u64(bytes, 48);
        if file_len != bytes.len() {
            return Err(SnapshotError::Truncated(format!(
                "header expects {file_len} bytes, file has {}",
                bytes.len()
            )));
        }
        let table_len = section_count
            .checked_mul(ENTRY_LEN)
            .ok_or_else(|| SnapshotError::Malformed("section count overflows".into()))?;
        if table_offset < HEADER_LEN
            || !table_offset.is_multiple_of(8)
            || table_offset
                .checked_add(table_len)
                .is_none_or(|end| end > bytes.len())
        {
            return Err(SnapshotError::Truncated(
                "section table extends past end of file".into(),
            ));
        }
        let table = &bytes[table_offset..table_offset + table_len];
        if fnv1a(fnv1a(FNV_OFFSET, &bytes[0..48]), table) != header_checksum {
            return Err(SnapshotError::ChecksumMismatch("header"));
        }
        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let tag = read_u64(table, i * ENTRY_LEN);
            let offset = read_u64(table, i * ENTRY_LEN + 8);
            let len = read_u64(table, i * ENTRY_LEN + 16);
            if !offset.is_multiple_of(8) {
                return Err(SnapshotError::Malformed(format!(
                    "section {i} offset {offset} is not 8-byte aligned"
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| SnapshotError::Malformed(format!("section {i} overflows")))?;
            if (offset as usize) < HEADER_LEN || end as usize > table_offset {
                return Err(SnapshotError::Truncated(format!(
                    "section {i} [{offset}, {end}) outside payload region"
                )));
            }
            sections.push(SectionEntry { tag, offset, len });
        }
        if fnv1a(FNV_OFFSET, &bytes[HEADER_LEN..table_offset]) != payload_checksum {
            return Err(SnapshotError::ChecksumMismatch("payload"));
        }
        Ok(Snapshot {
            store: Arc::new(store),
            sections,
        })
    }

    /// Returns `true` if the snapshot is backed by a live memory mapping
    /// (`false` means the buffered-read heap fallback is active).
    pub fn is_mapped(&self) -> bool {
        self.store.is_mapped()
    }

    /// Number of sections in the file.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Every section's `(tag, byte length)`, in file order.
    pub fn sections(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sections.iter().map(|s| (s.tag, s.len))
    }

    /// Returns section `index` as a zero-copy view, checking its tag and
    /// that its byte length divides evenly into `T` elements.
    pub fn section<T: Pod>(&self, index: usize, tag: u64) -> Result<FlatVec<T>, SnapshotError> {
        let entry = self.sections.get(index).ok_or_else(|| {
            SnapshotError::Malformed(format!(
                "section {index} out of range ({} sections)",
                self.sections.len()
            ))
        })?;
        if entry.tag != tag {
            return Err(SnapshotError::Malformed(format!(
                "section {index} has tag {:#x}, expected {tag:#x}",
                entry.tag
            )));
        }
        let size = std::mem::size_of::<T>();
        debug_assert!(size > 0 && std::mem::align_of::<T>() <= 8);
        if !(entry.len as usize).is_multiple_of(size) {
            return Err(SnapshotError::Malformed(format!(
                "section {index} length {} is not a multiple of element size {size}",
                entry.len
            )));
        }
        Ok(FlatVec::view(
            Arc::clone(&self.store),
            entry.offset as usize,
            entry.len as usize / size,
        ))
    }

    /// A cursor reading sections sequentially from the start.
    pub fn cursor(&self) -> SectionCursor<'_> {
        SectionCursor {
            snapshot: self,
            next: 0,
        }
    }
}

/// Sequential section reader; components consume their sections in the same
/// order their writers emitted them.
#[derive(Debug)]
pub struct SectionCursor<'a> {
    snapshot: &'a Snapshot,
    next: usize,
}

impl SectionCursor<'_> {
    /// Reads the next section, which must carry `tag`.
    pub fn next_section<T: Pod>(&mut self, tag: u64) -> Result<FlatVec<T>, SnapshotError> {
        let v = self.snapshot.section::<T>(self.next, tag)?;
        self.next += 1;
        Ok(v)
    }

    /// Index of the next unread section.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Whether the sections are views into a memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.snapshot.is_mapped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("turbohom-snap-{}-{name}.bin", std::process::id()))
    }

    fn sample_file(name: &str) -> std::path::PathBuf {
        let mut w = SnapshotWriter::new();
        w.section::<u64>(1, &[10, 20, 30]);
        w.section::<u32>(2, &[7, 8, 9]);
        w.section::<u8>(3, b"hello");
        let path = temp_path(name);
        w.write_to(&path).unwrap();
        path
    }

    #[test]
    fn checksums_of_a_fixed_file_do_not_change() {
        let path = sample_file("checksums");
        let bytes = std::fs::read(&path).unwrap();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        assert_eq!(word(40), 0x8fe5_c427_02da_daeb, "payload checksum");
        // The header checksum covers the version field: version 1 read
        // 0x6283_9b51_1d96_5083, version 2 0xc877_9671_ebbb_ec90.
        assert_eq!(word(48), 0xdfcb_fc22_f5fc_7425, "header checksum");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_and_read_round_trip() {
        let path = sample_file("roundtrip");
        for snap in [
            Snapshot::open(&path).unwrap(),
            Snapshot::open_buffered(&path).unwrap(),
        ] {
            assert_eq!(snap.section_count(), 3);
            let mut cur = snap.cursor();
            assert_eq!(
                cur.next_section::<u64>(1).unwrap().as_slice(),
                &[10, 20, 30]
            );
            assert_eq!(cur.next_section::<u32>(2).unwrap().as_slice(), &[7, 8, 9]);
            assert_eq!(cur.next_section::<u8>(3).unwrap().as_slice(), b"hello");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn open_prefers_mmap_and_sections_are_views() {
        let path = sample_file("mmap");
        let snap = Snapshot::open(&path).unwrap();
        assert!(snap.is_mapped());
        let v = snap.section::<u64>(0, 1).unwrap();
        assert!(v.is_view());
        assert_eq!((v.heap_bytes(), v.mapped_bytes()), (0, 24));
        assert_eq!(
            snap.sections().collect::<Vec<_>>(),
            [(1, 24), (2, 12), (3, 5)]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tag_and_element_size_are_checked() {
        let path = sample_file("tags");
        let snap = Snapshot::open(&path).unwrap();
        assert!(matches!(
            snap.section::<u64>(0, 99),
            Err(SnapshotError::Malformed(_))
        ));
        // Section 2 is 5 bytes; not a multiple of 4.
        assert!(matches!(
            snap.section::<u32>(2, 3),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(snap.section::<u64>(9, 1).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    fn mangle(path: &std::path::Path, offset: usize, f: impl Fn(u8) -> u8) -> std::path::PathBuf {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[offset] = f(bytes[offset]);
        let mangled = path.with_extension("mangled");
        std::fs::write(&mangled, &bytes).unwrap();
        mangled
    }

    #[test]
    fn bad_magic_is_detected() {
        let path = sample_file("magic");
        let m = mangle(&path, 0, |b| b.wrapping_add(1));
        assert_eq!(Snapshot::open(&m).unwrap_err(), SnapshotError::BadMagic);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&m).unwrap();
    }

    #[test]
    fn version_mismatch_is_detected() {
        let path = sample_file("version");
        let m = mangle(&path, 8, |_| 0xFE);
        assert!(matches!(
            Snapshot::open(&m),
            Err(SnapshotError::VersionMismatch {
                found: 0xFE,
                expected: VERSION
            })
        ));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&m).unwrap();
    }

    #[test]
    fn a_version_1_file_is_refused() {
        // Version 1 held the dictionary's 40-byte term records, version 2
        // 32-byte records without the JSON-plain bit.
        let path = sample_file("version1");
        for old in [1, 2] {
            let m = mangle(&path, 8, |_| old);
            assert!(matches!(
                Snapshot::open(&m),
                Err(SnapshotError::VersionMismatch {
                    found,
                    expected: 3
                }) if found == u32::from(old)
            ));
            std::fs::remove_file(&m).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let path = sample_file("trunc");
        let bytes = std::fs::read(&path).unwrap();
        let short = path.with_extension("short");
        std::fs::write(&short, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(
            Snapshot::open(&short),
            Err(SnapshotError::Truncated(_))
        ));
        let tiny = path.with_extension("tiny");
        std::fs::write(&tiny, &bytes[..16]).unwrap();
        assert!(matches!(
            Snapshot::open(&tiny),
            Err(SnapshotError::Truncated(_))
        ));
        for p in [&path, &short, &tiny] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let path = sample_file("payload");
        let m = mangle(&path, HEADER_LEN + 2, |b| b ^ 0xFF);
        assert_eq!(
            Snapshot::open(&m).unwrap_err(),
            SnapshotError::ChecksumMismatch("payload")
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&m).unwrap();
    }

    #[test]
    fn header_corruption_fails_the_checksum() {
        // Flip a bit in the section count (validated by the header checksum
        // before the table is trusted).
        let path = sample_file("header");
        let m = mangle(&path, 16, |b| b ^ 0x01);
        let err = Snapshot::open(&m).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::ChecksumMismatch("header") | SnapshotError::Truncated(_)
            ),
            "{err:?}"
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&m).unwrap();
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let path = temp_path("empty");
        SnapshotWriter::new().write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.section_count(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
