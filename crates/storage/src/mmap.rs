//! Memory-mapped (and aligned buffered-read) file regions.
//!
//! The zero-copy snapshot formats (`TRUSSGR2`, `TRUSSIDX` v2 — see
//! [`crate::snapshot`]) want a whole file visible as one immutable byte
//! region that typed [`SectionBuf`](truss_graph::section::SectionBuf)
//! views borrow into. On Linux that region is a real `mmap(2)`: opening a
//! multi-gigabyte snapshot costs O(1) work and no heap, pages fault in on
//! first touch, stay in the kernel page cache, and are shared read-only
//! across threads *and processes* — exactly the "build once, serve many
//! times" story the ROADMAP's serving goal needs, and the natural
//! substrate for the external-memory engines' `scan(N)` passes.
//!
//! The workspace builds offline with no `libc` crate, so the syscall
//! binding is a thin `unsafe extern "C"` declaration, gated to Linux
//! where the constant values are stable ABI. Everywhere else — and
//! whenever `mmap` fails or is disabled — [`Region::open`] falls back to
//! reading the file into an **8-byte-aligned heap buffer**
//! ([`AlignedBytes`]; a plain `Vec<u8>` only guarantees alignment 1,
//! which would reject every typed view), so all callers work on every
//! platform with identical semantics and only the accounting differs.

use crate::{Result, StorageError};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use truss_graph::section::Backing;

/// How [`Region::open`] should load a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Memory-map when the platform supports it, otherwise buffered read.
    #[default]
    Auto,
    /// Always read into an aligned heap buffer (tests, benchmarks of the
    /// fallback path, platforms where mapping misbehaves).
    Buffered,
}

/// A heap buffer whose base address is 8-byte aligned, as required by the
/// typed section views (`u64` is the widest section element).
///
/// Backed by a `Vec<u64>`; the logical byte length may be shorter than
/// the word storage.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `src` into a fresh aligned buffer.
    pub fn copy_from(src: &[u8]) -> Self {
        let mut a = AlignedBytes::zeroed(src.len());
        a.bytes_mut()[..src.len()].copy_from_slice(src);
        a
    }

    /// A zero-filled aligned buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Reads an entire file into an aligned buffer.
    pub fn read_file(path: &Path) -> Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        let mut a = AlignedBytes::zeroed(len);
        file.read_exact(&mut a.bytes_mut()[..len])?;
        Ok(a)
    }

    /// The bytes.
    pub fn as_bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

/// Raw Linux `mmap`/`munmap`/`madvise`. The constants are stable kernel
/// ABI; the declarations avoid a `libc` dependency (the build is offline).
/// `pub(crate)` so the [`crate::window`] advice layer can issue
/// `madvise` over sub-ranges of a live mapping.
#[cfg(target_os = "linux")]
pub(crate) mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_ANONYMOUS: c_int = 0x20;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    pub const MADV_RANDOM: c_int = 1;
    pub const MADV_WILLNEED: c_int = 3;
    pub const MADV_DONTNEED: c_int = 4;
    pub const POSIX_FADV_DONTNEED: c_int = 4;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
        // glibc maps `posix_fadvise` straight onto the `fadvise64` syscall;
        // like `madvise` above it is declared here to keep the build free
        // of a `libc` dependency.
        pub fn posix_fadvise(fd: c_int, offset: i64, len: i64, advice: c_int) -> c_int;
    }
}

/// Drops `path`'s pages from the kernel page cache
/// (`posix_fadvise(POSIX_FADV_DONTNEED)` over the whole file), so the
/// next read really goes to the device. This is how the cold-cache bench
/// arm un-warms a snapshot between runs: a bench graph small enough to
/// fit the page cache would otherwise never touch disk and the
/// "out-of-core" numbers would measure a warm cache only.
///
/// Dirty pages are flushed first (`fsync`) — `DONTNEED` silently skips
/// dirty pages, and a freshly written snapshot is all dirty pages.
/// Best-effort semantics like the rest of the advice layer: on non-Linux
/// platforms this is a no-op `Ok(())`, and the eviction itself is advice
/// the kernel may ignore (correctness never depends on it).
pub fn evict_page_cache(path: &Path) -> Result<()> {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        let file = File::open(path)?;
        file.sync_all()?;
        let len = file.metadata()?.len() as i64;
        let rc = unsafe { sys::posix_fadvise(file.as_raw_fd(), 0, len, sys::POSIX_FADV_DONTNEED) };
        if rc != 0 {
            return Err(StorageError::Io(std::io::Error::from_raw_os_error(rc)));
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = path;
    Ok(())
}

/// An immutable, read-only `mmap` of a whole file. Unmapped on drop.
#[cfg(target_os = "linux")]
pub struct Mmap {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
    /// The mapped file, kept open so random accesses can bypass the
    /// mapping entirely (`pread` — no page fault, no RSS growth).
    file: File,
}

// The mapping is PROT_READ and never mutated after construction; sharing
// the raw pointer across threads is safe.
#[cfg(target_os = "linux")]
unsafe impl Send for Mmap {}
#[cfg(target_os = "linux")]
unsafe impl Sync for Mmap {}

#[cfg(target_os = "linux")]
impl Mmap {
    /// Maps `file` read-only. Fails with the kernel's error for empty
    /// files (zero-length mappings are invalid) — callers handle that
    /// case before mapping.
    pub fn map(file: File) -> std::io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: std::ptr::NonNull::new(ptr as *mut u8).expect("mmap returned null"),
            len,
            file,
        })
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Reads `buf.len()` bytes at `off` through the file descriptor,
    /// leaving the mapping untouched.
    pub fn read_at(&self, off: u64, buf: &mut [u8]) -> std::io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, off)
    }
}

#[cfg(target_os = "linux")]
impl Drop for Mmap {
    fn drop(&mut self) {
        unsafe {
            sys::munmap(self.ptr.as_ptr() as *mut std::os::raw::c_void, self.len);
        }
    }
}

/// Zero-filled `u64` words in an anonymous mapping of their own, outside
/// the allocator: dropping them unmaps the pages at once.
///
/// This is for scratch of a few MiB that lives for one phase of a long
/// run. A heap allocation that large is an `mmap` inside glibc's malloc
/// too, but freeing it raises malloc's dynamic mmap threshold to its
/// size, and from then on every allocation below that size comes from
/// arenas that are not trimmed. Freeing a 2 MiB heap filter after the
/// out-of-core support passes added megabytes to the peel's peak RSS
/// that way. Off Linux, or when the mapping fails, the words live in an
/// ordinary heap buffer.
pub struct AnonWords(Words);

enum Words {
    /// A private anonymous mapping of `len` words, page-aligned.
    Mapped {
        ptr: std::ptr::NonNull<u64>,
        len: usize,
    },
    /// The heap fallback.
    Heap(Vec<u64>),
}

// The mapping is owned exclusively, like a `Vec`'s buffer.
unsafe impl Send for Words {}
unsafe impl Sync for Words {}

impl AnonWords {
    /// `len` zero words.
    pub fn zeroed(len: usize) -> AnonWords {
        #[cfg(target_os = "linux")]
        if len > 0 {
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len * 8,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if ptr != sys::MAP_FAILED {
                if let Some(ptr) = std::ptr::NonNull::new(ptr as *mut u64) {
                    return AnonWords(Words::Mapped { ptr, len });
                }
            }
        }
        AnonWords(Words::Heap(vec![0; len]))
    }

    /// The words.
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Words::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) },
            Words::Heap(v) => v,
        }
    }

    /// The words, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Words::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts_mut(ptr.as_ptr(), *len)
            },
            Words::Heap(v) => v,
        }
    }
}

impl Drop for Words {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Words::Mapped { ptr, len } = *self {
            unsafe {
                sys::munmap(ptr.as_ptr() as *mut std::os::raw::c_void, len * 8);
            }
        }
    }
}

/// A whole file as one shared immutable byte region: mapped where
/// possible, heap-resident otherwise. This is the [`Backing`] the v2
/// snapshot sections view into.
pub enum Region {
    /// A live `mmap` (Linux).
    #[cfg(target_os = "linux")]
    Mapped(Mmap),
    /// The aligned buffered-read fallback.
    Heap(AlignedBytes),
}

impl Region {
    /// Opens `path` under `mode`. `Auto` tries `mmap` first and silently
    /// falls back to the buffered read (callers that need to report which
    /// path was taken check [`Region::is_mapped`] — the load benchmark
    /// does, per-row).
    pub fn open(path: &Path, mode: LoadMode) -> Result<Region> {
        #[cfg(target_os = "linux")]
        if mode == LoadMode::Auto && !mmap_disabled_by_env() {
            let file = File::open(path)?;
            match Mmap::map(file) {
                Ok(map) => return Ok(Region::Mapped(map)),
                Err(_) => {
                    // Empty file, exotic filesystem, … — fall through to
                    // the read path, which handles all of them.
                }
            }
        }
        let _ = mode;
        Ok(Region::Heap(AlignedBytes::read_file(path)?))
    }

    /// The region's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            #[cfg(target_os = "linux")]
            Region::Mapped(m) => m.as_bytes(),
            Region::Heap(h) => h.as_bytes(),
        }
    }

    /// True when the bytes are served by a live mapping.
    pub fn region_is_mapped(&self) -> bool {
        match self {
            #[cfg(target_os = "linux")]
            Region::Mapped(_) => true,
            Region::Heap(_) => false,
        }
    }

    /// Opens `path` and returns it as a shared [`Backing`] for section
    /// views.
    pub fn open_backing(path: &Path, mode: LoadMode) -> Result<Arc<Region>> {
        Ok(Arc::new(Region::open(path, mode)?))
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let flavor = if self.region_is_mapped() {
            "mapped"
        } else {
            "heap"
        };
        write!(f, "Region<{flavor}>({} bytes)", self.as_bytes().len())
    }
}

impl Backing for Region {
    fn bytes(&self) -> &[u8] {
        self.as_bytes()
    }

    fn is_mapped(&self) -> bool {
        self.region_is_mapped()
    }

    fn read_at(&self, off: usize, buf: &mut [u8]) -> std::io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Region::Mapped(m) => m.read_at(off as u64, buf),
            Region::Heap(h) => truss_graph::section::copy_at(h.as_bytes(), off, buf),
        }
    }
}

/// True when `TRUSS_NO_MMAP` is set (non-empty, not `0`): an escape hatch
/// to force the buffered fallback, used by tests and the load benchmark.
pub fn mmap_disabled_by_env() -> bool {
    std::env::var("TRUSS_NO_MMAP")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// True when this build can serve snapshots via `mmap` at all.
pub fn mmap_supported() -> bool {
    cfg!(target_os = "linux")
}

impl From<truss_graph::section::SectionError> for StorageError {
    fn from(e: truss_graph::section::SectionError) -> Self {
        StorageError::Corrupt(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn anon_words_start_zeroed_and_keep_writes() {
        for len in [0usize, 1, 8, 4096 * 3 + 5] {
            let mut w = AnonWords::zeroed(len);
            assert_eq!(w.as_slice().len(), len);
            assert!(w.as_slice().iter().all(|&x| x == 0));
            for (i, x) in w.as_mut_slice().iter_mut().enumerate() {
                *x = i as u64 * 3;
            }
            assert!(w
                .as_slice()
                .iter()
                .enumerate()
                .all(|(i, &x)| x == i as u64 * 3));
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("truss-mmap-{}-{name}", std::process::id()))
    }

    #[test]
    fn aligned_bytes_are_aligned_and_exact() {
        let a = AlignedBytes::copy_from(&[1, 2, 3, 4, 5]);
        assert_eq!(a.as_bytes(), &[1, 2, 3, 4, 5]);
        assert_eq!(a.as_bytes().as_ptr() as usize % 8, 0);
        let z = AlignedBytes::zeroed(0);
        assert!(z.as_bytes().is_empty());
    }

    #[test]
    fn region_round_trips_both_modes() {
        let path = temp_path("roundtrip");
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096 + 17).collect();
        File::create(&path).unwrap().write_all(&payload).unwrap();

        let mapped = Region::open(&path, LoadMode::Auto).unwrap();
        assert_eq!(mapped.as_bytes(), &payload[..]);
        if mmap_supported() && !mmap_disabled_by_env() {
            assert!(mapped.region_is_mapped());
        }

        let buffered = Region::open(&path, LoadMode::Buffered).unwrap();
        assert_eq!(buffered.as_bytes(), &payload[..]);
        assert!(!buffered.region_is_mapped());
        assert_eq!(buffered.as_bytes().as_ptr() as usize % 8, 0);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let r = Region::open(&path, LoadMode::Auto).unwrap();
        assert!(r.as_bytes().is_empty());
        assert!(!r.region_is_mapped(), "zero-length mappings are invalid");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evict_page_cache_preserves_contents() {
        let path = temp_path("evict");
        let payload: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        File::create(&path).unwrap().write_all(&payload).unwrap();
        evict_page_cache(&path).unwrap();
        let r = Region::open(&path, LoadMode::Auto).unwrap();
        assert_eq!(r.as_bytes(), &payload[..]);
        // Evicting under a live mapping is harmless: pages refault from
        // the file on next touch.
        evict_page_cache(&path).unwrap();
        assert_eq!(r.as_bytes(), &payload[..]);
        drop(r);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Region::open(Path::new("/nonexistent/truss.gr2"), LoadMode::Auto).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mapping_survives_file_deletion() {
        // MAP_PRIVATE keeps the pages alive after the unlink — the
        // serving story relies on this (atomic replace under live maps).
        let path = temp_path("unlink");
        File::create(&path).unwrap().write_all(b"persist!").unwrap();
        let region = Region::open(&path, LoadMode::Auto).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(region.as_bytes(), b"persist!");
    }
}
