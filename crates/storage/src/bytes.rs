//! Immutable byte regions: heap-owned or memory-mapped.
//!
//! Mapping goes through a minimal `mmap(2)` FFI shim declared inline — the
//! build environment has no registry access, and `std` already links libc on
//! unix, so the two symbols we need are available without any new
//! dependency. When mapping is unavailable (non-unix platform, empty file,
//! or a failing `mmap` call) callers fall back to [`ByteStore::read_file`],
//! which buffers the file into 8-byte-aligned heap memory so the same
//! view-based accessors work over it.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

enum Repr {
    /// Heap storage. Backed by `Vec<u64>` (not `Vec<u8>`) so the base
    /// address is 8-byte aligned — sections store `u64`-fielded records and
    /// views reinterpret the bytes in place.
    Owned { words: Vec<u64>, len: usize },
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
}

/// An immutable region of bytes with stable addresses, shared via `Arc`.
pub struct ByteStore {
    repr: Repr,
}

// Safety: the region is immutable after construction; the raw pointer of the
// mapped variant refers to a private, read-only mapping.
unsafe impl Send for ByteStore {}
unsafe impl Sync for ByteStore {}

impl ByteStore {
    /// Wraps owned bytes (copies them into aligned storage).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let words = vec![0u64; bytes.len().div_ceil(8)];
        let mut words = words;
        // Safety: u64 has no padding; we only write within the allocation.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
        }
        ByteStore {
            repr: Repr::Owned {
                words,
                len: bytes.len(),
            },
        }
    }

    /// Reads an entire file into aligned heap memory (the mapping fallback).
    pub fn read_file(path: &Path) -> io::Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let mut words = vec![0u64; len.div_ceil(8)];
        // Safety: the u64 buffer is at least `len` bytes and u64 tolerates
        // any byte pattern.
        let buf = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        file.read_exact(buf)?;
        ByteStore::check_trailing_eof(&mut file)?;
        Ok(ByteStore {
            repr: Repr::Owned { words, len },
        })
    }

    fn check_trailing_eof(file: &mut File) -> io::Result<()> {
        // The metadata length was trusted for the buffer size; detect a file
        // that grew between the two calls so `len` stays authoritative.
        let mut probe = [0u8; 1];
        match file.read(&mut probe)? {
            0 => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file changed size while being read",
            )),
        }
    }

    /// Memory-maps a file read-only. Returns an error when mapping is not
    /// available on this platform or fails; callers should fall back to
    /// [`ByteStore::read_file`].
    #[cfg(unix)]
    pub fn map_file(path: &Path) -> io::Result<Self> {
        use std::os::fd::AsRawFd;
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        // Safety: a null address hint lets the kernel place the mapping, so
        // no existing mapping of this process is replaced; `len` is the
        // file's non-zero length and the descriptor is open for the call
        // (the mapping outlives it). The mapping is read-only and private:
        // nothing here writes through it. The result is checked against
        // `MAP_FAILED` before use. A file truncated by another process while
        // mapped faults on access, the usual limit of mapping a file.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(ByteStore {
            repr: Repr::Mapped {
                ptr: ptr as *mut u8,
                len,
            },
        })
    }

    /// Memory-mapping stub for non-unix platforms: always fails, so callers
    /// take the buffered-read path.
    #[cfg(not(unix))]
    pub fn map_file(_path: &Path) -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap is not available on this platform",
        ))
    }

    /// Returns `true` if the region is a live memory mapping (as opposed to
    /// the buffered heap fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            Repr::Owned { .. } => false,
            #[cfg(unix)]
            Repr::Mapped { .. } => true,
        }
    }

    /// The bytes of the region.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Owned { words, len } => {
                // Safety: the allocation holds at least `len` bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
            #[cfg(unix)]
            Repr::Mapped { ptr, len } => {
                // Safety: the mapping is `len` bytes long and lives until Drop.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
        }
    }

    /// Number of bytes in the region.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned { len, .. } => *len,
            #[cfg(unix)]
            Repr::Mapped { len, .. } => *len,
        }
    }

    /// Returns `true` if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for ByteStore {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Repr::Mapped { ptr, len } = self.repr {
            // Safety: the pointer/length pair came from a successful mmap
            // and is unmapped exactly once.
            unsafe {
                ffi::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

impl std::fmt::Debug for ByteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteStore")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// Hands the heap pages the allocator holds free back to the kernel:
/// glibc's `malloc_trim(0)`, a no-op on other targets. glibc keeps a freed
/// block resident while it is below its (dynamic) mmap threshold, so a
/// build's temporaries would otherwise stay in the resident set after the
/// build.
pub fn trim_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // Safety: `malloc_trim` only releases free memory the allocator owns;
    // it touches no live allocation.
    unsafe {
        ffi::malloc_trim(0);
    }
}

/// The minimal `mmap(2)` surface, declared by hand, and glibc's
/// `malloc_trim`. `std` links libc on unix, so these resolve without adding
/// any dependency.
#[cfg(unix)]
mod ffi {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        pub fn malloc_trim(pad: usize) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_store_is_aligned_and_round_trips() {
        let data: Vec<u8> = (0..37).collect();
        let store = ByteStore::from_bytes(&data);
        assert_eq!(store.bytes(), data.as_slice());
        assert_eq!(store.len(), 37);
        assert!(!store.is_mapped());
        assert_eq!(store.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn empty_store() {
        let store = ByteStore::from_bytes(&[]);
        assert!(store.is_empty());
        assert!(store.bytes().is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn map_and_read_agree() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("turbohom-storage-test-{}.bin", std::process::id()));
        let data: Vec<u8> = (0..255).collect();
        std::fs::write(&path, &data).unwrap();
        let mapped = ByteStore::map_file(&path).unwrap();
        let read = ByteStore::read_file(&path).unwrap();
        assert!(mapped.is_mapped());
        assert!(!read.is_mapped());
        assert_eq!(mapped.bytes(), read.bytes());
        assert_eq!(mapped.bytes(), data.as_slice());
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn mapping_empty_file_fails_cleanly() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("turbohom-storage-empty-{}.bin", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        assert!(ByteStore::map_file(&path).is_err());
        assert!(ByteStore::read_file(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
