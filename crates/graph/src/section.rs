//! Section buffers: the zero-copy storage substrate under
//! [`CsrGraph`](crate::CsrGraph).
//!
//! The paper's whole premise is graphs whose representation dwarfs memory
//! (§2, the Aggarwal–Vitter I/O model), so the on-disk layout of a graph
//! should *be* its in-memory layout: a handful of flat, fixed-width,
//! little-endian arrays that can be mapped straight out of a file instead
//! of parsed record by record. [`SectionBuf<T>`] is one such array. It is
//! either
//!
//! * **owned** — a plain `Vec<T>` built in memory (the result of a
//!   normal [`CsrGraph`](crate::CsrGraph) construction), or
//! * **viewed** — a typed window into a shared byte [backing](Backing)
//!   (an `mmap`ed snapshot, or a file read into an aligned heap buffer on
//!   platforms without `mmap`), borrowed for the lifetime of an `Arc`.
//!
//! Both deref to `&[T]`, so every consumer of the graph keeps reading
//! plain slices; only construction and accounting know the difference.
//! Views are copy-on-write: the rare mutating operation
//! ([`SectionBuf::to_mut`]) detaches into an owned vector first.
//!
//! Element types implement the [`Pod`] marker: plain-old-data whose
//! little-endian byte image is its in-memory image on little-endian
//! targets (the only targets the zero-copy path is enabled on; big-endian
//! opens decode into owned buffers instead).

use std::sync::Arc;

/// A shared, immutable byte region a [`SectionBuf`] can view into —
/// typically a whole snapshot file, memory-mapped or read into an aligned
/// heap buffer.
pub trait Backing: Send + Sync {
    /// The full byte region.
    fn bytes(&self) -> &[u8];

    /// True when the bytes live outside the heap (an `mmap`): they cost
    /// address space and page cache, not resident heap, and are shared
    /// read-only across threads and processes.
    fn is_mapped(&self) -> bool;

    /// Copies `buf.len()` bytes at byte offset `off` into `buf`. Mapped
    /// backings override this with a positioned read on the backing file
    /// (a page-cache hit in the common case), which leaves the mapping
    /// untouched: no page fault, no PTEs installed, no RSS growth. The
    /// default copies out of [`Backing::bytes`]. Fails when the range
    /// runs past the region, or when the file read does (a snapshot
    /// truncated after it was mapped).
    fn read_at(&self, off: usize, buf: &mut [u8]) -> std::io::Result<()> {
        copy_at(self.bytes(), off, buf)
    }
}

/// Copies `buf.len()` bytes at `off` out of `bytes`, failing with
/// `UnexpectedEof` when the range runs past the end (the slice form of
/// [`Backing::read_at`]).
pub fn copy_at(bytes: &[u8], off: usize, buf: &mut [u8]) -> std::io::Result<()> {
    let src = off
        .checked_add(buf.len())
        .and_then(|end| bytes.get(off..end))
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "read of {} bytes at {off} runs past a {}-byte region",
                    buf.len(),
                    bytes.len()
                ),
            )
        })?;
    buf.copy_from_slice(src);
    Ok(())
}

impl Backing for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }

    fn is_mapped(&self) -> bool {
        false
    }
}

/// Marker for element types whose in-memory representation equals their
/// little-endian on-disk image (on little-endian targets): no padding, no
/// invalid bit patterns, fixed width.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]` (or a primitive), contain no padding
/// bytes, and accept every bit pattern as a valid value.
pub unsafe trait Pod: Copy + 'static {
    /// Decodes one element from its little-endian byte image
    /// (`bytes.len() == size_of::<Self>()`).
    fn read_le(bytes: &[u8]) -> Self;

    /// Appends the little-endian byte image of `self`.
    fn write_le(self, out: &mut Vec<u8>);
}

unsafe impl Pod for u32 {
    fn read_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }

    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

unsafe impl Pod for u64 {
    fn read_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }

    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

// Edge is #[repr(C)] { u: u32, v: u32 } — two LE words on disk.
unsafe impl Pod for crate::edge::Edge {
    fn read_le(bytes: &[u8]) -> Self {
        crate::edge::Edge {
            u: u32::read_le(&bytes[0..4]),
            v: u32::read_le(&bytes[4..8]),
        }
    }

    fn write_le(self, out: &mut Vec<u8>) {
        self.u.write_le(out);
        self.v.write_le(out);
    }
}

/// Errors from constructing a typed view over raw bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum SectionError {
    /// The requested byte range falls outside the backing.
    OutOfBounds {
        /// Requested end of the range.
        end: usize,
        /// Length of the backing region.
        backing_len: usize,
    },
    /// The section's base address is not aligned for the element type.
    Misaligned {
        /// Byte offset of the section within the backing.
        offset: usize,
        /// Required alignment of the element type.
        align: usize,
    },
    /// The byte length is not a whole number of elements.
    RaggedLength {
        /// Byte length of the section.
        bytes: usize,
        /// Element size.
        elem: usize,
    },
}

impl std::fmt::Display for SectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SectionError::OutOfBounds { end, backing_len } => {
                write!(f, "section ends at byte {end}, backing has {backing_len}")
            }
            SectionError::Misaligned { offset, align } => {
                write!(f, "section at byte offset {offset} is not {align}-aligned")
            }
            SectionError::RaggedLength { bytes, elem } => {
                write!(
                    f,
                    "section of {bytes} bytes is not a whole number of {elem}-byte elements"
                )
            }
        }
    }
}

impl std::error::Error for SectionError {}

/// A flat array of `T`: owned, or a zero-copy view into a shared byte
/// backing. Dereferences to `&[T]` either way.
pub enum SectionBuf<T: Pod> {
    /// A heap-allocated vector (the normal in-memory construction path).
    Owned(Vec<T>),
    /// A typed window into `backing` (`offset` bytes in, `len` elements),
    /// alive as long as this buffer holds the `Arc`.
    Viewed {
        /// The shared byte region (mapped file or aligned read buffer).
        backing: Arc<dyn Backing>,
        /// Byte offset of the first element within the backing.
        offset: usize,
        /// Number of elements.
        len: usize,
    },
}

impl<T: Pod> SectionBuf<T> {
    /// An empty owned buffer.
    pub fn new() -> Self {
        SectionBuf::Owned(Vec::new())
    }

    /// Builds a zero-copy view of `len_bytes` bytes at `offset` in
    /// `backing`, checking bounds, element alignment and that the range is
    /// a whole number of elements. O(1) — the contents are *not* decoded
    /// or validated (snapshot integrity is the checksum's job).
    pub fn view(
        backing: Arc<dyn Backing>,
        offset: usize,
        len_bytes: usize,
    ) -> Result<Self, SectionError> {
        let elem = std::mem::size_of::<T>();
        let bytes = backing.bytes();
        let end = offset
            .checked_add(len_bytes)
            .ok_or(SectionError::OutOfBounds {
                end: usize::MAX,
                backing_len: bytes.len(),
            })?;
        if end > bytes.len() {
            return Err(SectionError::OutOfBounds {
                end,
                backing_len: bytes.len(),
            });
        }
        if !len_bytes.is_multiple_of(elem) {
            return Err(SectionError::RaggedLength {
                bytes: len_bytes,
                elem,
            });
        }
        let align = std::mem::align_of::<T>();
        if !(bytes.as_ptr() as usize + offset).is_multiple_of(align) {
            return Err(SectionError::Misaligned { offset, align });
        }
        Ok(SectionBuf::Viewed {
            backing,
            offset,
            len: len_bytes / elem,
        })
    }

    /// Decodes `len_bytes` bytes at `offset` in `backing` into an owned
    /// buffer (the big-endian / misaligned fallback: one `from_le_bytes`
    /// per element instead of a pointer cast).
    pub fn decode(
        backing: &dyn Backing,
        offset: usize,
        len_bytes: usize,
    ) -> Result<Self, SectionError> {
        let elem = std::mem::size_of::<T>();
        let bytes = backing.bytes();
        let end = offset
            .checked_add(len_bytes)
            .filter(|&e| e <= bytes.len())
            .ok_or(SectionError::OutOfBounds {
                end: offset.saturating_add(len_bytes),
                backing_len: bytes.len(),
            })?;
        if !len_bytes.is_multiple_of(elem) {
            return Err(SectionError::RaggedLength {
                bytes: len_bytes,
                elem,
            });
        }
        let out = bytes[offset..end]
            .chunks_exact(elem)
            .map(T::read_le)
            .collect();
        Ok(SectionBuf::Owned(out))
    }

    /// Copies `out.len()` elements starting at element `start` into
    /// `out`: a slice copy for an owned buffer, [`Backing::read_at`] for a
    /// view (a positioned read on a mapped file, so no mapped page is
    /// faulted in). Fails when the range runs past the section or the
    /// read fails.
    pub fn read_at(&self, start: usize, out: &mut [T]) -> std::io::Result<()> {
        let elem = std::mem::size_of::<T>();
        if start
            .checked_add(out.len())
            .is_none_or(|end| end > self.len())
        {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "read of {} elements at {start} runs past a {}-element section",
                    out.len(),
                    self.len()
                ),
            ));
        }
        match self {
            SectionBuf::Owned(v) => {
                out.copy_from_slice(&v[start..start + out.len()]);
                Ok(())
            }
            SectionBuf::Viewed {
                backing, offset, ..
            } => {
                // SAFETY: the byte slice covers exactly `out`'s memory and
                // borrows it mutably for the read; `T: Pod` accepts every
                // bit pattern, so whatever bytes the read leaves there form
                // valid values.
                let bytes = unsafe {
                    std::slice::from_raw_parts_mut(
                        out.as_mut_ptr() as *mut u8,
                        std::mem::size_of_val(out),
                    )
                };
                backing.read_at(offset + start * elem, bytes)
            }
        }
    }

    /// The elements as a plain slice.
    ///
    /// For views this is a pointer cast: the backing bytes were checked
    /// to be in-bounds and aligned at construction, every bit pattern is a
    /// valid `T` ([`Pod`]), and the backing is immutable and alive for as
    /// long as `self` holds its `Arc`.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match self {
            SectionBuf::Owned(v) => v,
            SectionBuf::Viewed {
                backing,
                offset,
                len,
            } => unsafe {
                let base = backing.bytes().as_ptr().add(*offset) as *const T;
                std::slice::from_raw_parts(base, *len)
            },
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SectionBuf::Owned(v) => v.len(),
            SectionBuf::Viewed { len, .. } => *len,
        }
    }

    /// True when there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the elements live in a mapped (non-heap) backing.
    pub fn is_mapped(&self) -> bool {
        match self {
            SectionBuf::Owned(_) => false,
            SectionBuf::Viewed { backing, .. } => backing.is_mapped(),
        }
    }

    /// Heap bytes held by this buffer: the vector for owned buffers, zero
    /// for views (the backing's heap cost, if any, is accounted once by
    /// whoever owns the `Arc` — see [`SectionBuf::backing_heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        match self {
            SectionBuf::Owned(v) => v.len() * std::mem::size_of::<T>(),
            SectionBuf::Viewed { .. } => 0,
        }
    }

    /// Mapped bytes viewed by this buffer (zero for owned buffers and for
    /// views into heap-resident backings).
    pub fn mapped_bytes(&self) -> usize {
        if self.is_mapped() {
            self.len() * std::mem::size_of::<T>()
        } else {
            0
        }
    }

    /// Heap bytes of a *non-mapped* backing viewed by this buffer (the
    /// buffered-read fallback keeps the whole file on the heap). Reported
    /// per-section so the sum over a graph's sections approximates the
    /// backing's size without double-counting headers.
    pub fn backing_heap_bytes(&self) -> usize {
        match self {
            SectionBuf::Viewed { backing, .. } if !backing.is_mapped() => {
                self.len() * std::mem::size_of::<T>()
            }
            _ => 0,
        }
    }

    /// Mutable access, detaching a view into an owned vector first
    /// (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let SectionBuf::Viewed { .. } = self {
            *self = SectionBuf::Owned(self.as_slice().to_vec());
        }
        match self {
            SectionBuf::Owned(v) => v,
            SectionBuf::Viewed { .. } => unreachable!("detached above"),
        }
    }

    /// Consumes the buffer for its allocation: an owned buffer's vector,
    /// emptied, or a new empty vector for a view.
    pub fn into_emptied(self) -> Vec<T> {
        match self {
            SectionBuf::Owned(mut v) => {
                v.clear();
                v
            }
            SectionBuf::Viewed { .. } => Vec::new(),
        }
    }

    /// Consumes the buffer into an owned vector (copying if viewed).
    pub fn into_vec(self) -> Vec<T> {
        match self {
            SectionBuf::Owned(v) => v,
            viewed => viewed.as_slice().to_vec(),
        }
    }

    /// The little-endian byte image of the elements, for serialization.
    /// On little-endian targets this is the in-memory image.
    pub fn le_bytes(&self) -> Vec<u8> {
        slice_le_bytes(self.as_slice())
    }
}

/// The little-endian byte image of a slice of pod elements, borrowed
/// where possible: on little-endian targets the in-memory image *is* the
/// on-disk image, so this is a zero-copy cast; big-endian targets encode
/// into an owned buffer. Snapshot writers stream these without ever
/// materializing the whole payload.
pub fn section_le_bytes<T: Pod>(s: &[T]) -> std::borrow::Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        let bytes = unsafe {
            std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s))
        };
        std::borrow::Cow::Borrowed(bytes)
    } else {
        let mut out = Vec::with_capacity(std::mem::size_of_val(s));
        for &x in s {
            x.write_le(&mut out);
        }
        std::borrow::Cow::Owned(out)
    }
}

/// The little-endian byte image of a slice of pod elements as an owned
/// vector (see [`section_le_bytes`] for the borrowing form).
pub fn slice_le_bytes<T: Pod>(s: &[T]) -> Vec<u8> {
    section_le_bytes(s).into_owned()
}

impl<T: Pod> From<Vec<T>> for SectionBuf<T> {
    fn from(v: Vec<T>) -> Self {
        SectionBuf::Owned(v)
    }
}

impl<T: Pod> Default for SectionBuf<T> {
    fn default() -> Self {
        SectionBuf::new()
    }
}

impl<T: Pod> std::ops::Deref for SectionBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Clone for SectionBuf<T> {
    fn clone(&self) -> Self {
        match self {
            SectionBuf::Owned(v) => SectionBuf::Owned(v.clone()),
            // Cloning a view clones the Arc, not the bytes.
            SectionBuf::Viewed {
                backing,
                offset,
                len,
            } => SectionBuf::Viewed {
                backing: Arc::clone(backing),
                offset: *offset,
                len: *len,
            },
        }
    }
}

impl<T: Pod + std::fmt::Debug> std::fmt::Debug for SectionBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let flavor = match self {
            SectionBuf::Owned(_) => "owned",
            SectionBuf::Viewed { backing, .. } if backing.is_mapped() => "mapped",
            SectionBuf::Viewed { .. } => "viewed",
        };
        write!(f, "SectionBuf<{flavor}>({} elems)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;

    /// A backing that pretends to be mapped, for accounting tests.
    struct FakeMap(Vec<u8>);

    impl Backing for FakeMap {
        fn bytes(&self) -> &[u8] {
            &self.0
        }

        fn is_mapped(&self) -> bool {
            true
        }
    }

    /// An 8-aligned byte buffer of exactly `src.len()` bytes.
    fn aligned_bytes(src: &[u8]) -> Arc<Vec<u8>> {
        let mut out = Vec::with_capacity(src.len().max(8));
        out.extend_from_slice(src);
        // The global allocator word-aligns these sizes in practice; the
        // view constructor would reject a misaligned base and make the
        // positive-path tests vacuous, so check.
        assert_eq!(out.as_ptr() as usize % 8, 0, "test allocator alignment");
        Arc::new(out)
    }

    #[test]
    fn owned_basics() {
        let b: SectionBuf<u32> = vec![1, 2, 3].into();
        assert_eq!(&*b, &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_mapped());
        assert_eq!(b.heap_bytes(), 12);
        assert_eq!(b.mapped_bytes(), 0);
    }

    #[test]
    fn view_reads_le_words() {
        let raw = slice_le_bytes(&[7u32, 8, 9]);
        let backing = aligned_bytes(&raw);
        let v = SectionBuf::<u32>::view(backing, 0, 12).unwrap();
        assert_eq!(&*v, &[7, 8, 9]);
        assert_eq!(v.heap_bytes(), 0);
        assert_eq!(v.backing_heap_bytes(), 12);
    }

    #[test]
    fn view_rejects_out_of_bounds_ragged_and_misaligned() {
        let raw = slice_le_bytes(&[7u32, 8, 9]);
        let backing = aligned_bytes(&raw);
        assert!(matches!(
            SectionBuf::<u32>::view(Arc::clone(&backing) as Arc<dyn Backing>, 8, 8),
            Err(SectionError::OutOfBounds { .. })
        ));
        assert!(matches!(
            SectionBuf::<u32>::view(Arc::clone(&backing) as Arc<dyn Backing>, 0, 7),
            Err(SectionError::RaggedLength { .. })
        ));
        assert!(matches!(
            SectionBuf::<u32>::view(backing, 2, 8),
            Err(SectionError::Misaligned { .. })
        ));
    }

    #[test]
    fn decode_matches_view() {
        let edges = [Edge::new(0, 1), Edge::new(2, 5)];
        let raw = slice_le_bytes(&edges[..]);
        let backing = aligned_bytes(&raw);
        let viewed =
            SectionBuf::<Edge>::view(Arc::clone(&backing) as Arc<dyn Backing>, 0, 16).unwrap();
        let decoded = SectionBuf::<Edge>::decode(backing.as_ref(), 0, 16).unwrap();
        assert_eq!(&*viewed, &edges[..]);
        assert_eq!(&*decoded, &edges[..]);
        assert!(matches!(decoded, SectionBuf::Owned(_)));
    }

    #[test]
    fn mapped_accounting_and_cow() {
        let raw = slice_le_bytes(&[1u64, 2, 3]);
        let backing = Arc::new(FakeMap(raw.to_vec()));
        let mut v = SectionBuf::<u64>::view(backing, 0, 24).unwrap();
        assert!(v.is_mapped());
        assert_eq!(v.mapped_bytes(), 24);
        assert_eq!(v.heap_bytes(), 0);
        assert_eq!(v.backing_heap_bytes(), 0);
        let clone = v.clone();
        v.to_mut().push(4);
        assert_eq!(&*v, &[1, 2, 3, 4]);
        assert!(!v.is_mapped(), "copy-on-write detaches");
        assert_eq!(&*clone, &[1, 2, 3], "clone untouched");
        assert!(clone.is_mapped());
    }

    #[test]
    fn read_at_copies_owned_and_viewed_ranges() {
        let words = [5u32, 6, 7, 8];
        let owned: SectionBuf<u32> = words.to_vec().into();
        let viewed =
            SectionBuf::<u32>::view(aligned_bytes(&slice_le_bytes(&words)), 0, 16).unwrap();
        for buf in [&owned, &viewed] {
            let mut out = [0u32; 2];
            buf.read_at(1, &mut out).unwrap();
            assert_eq!(out, [6, 7]);
            assert!(buf.read_at(3, &mut out).is_err(), "past the end");
            assert!(buf.read_at(usize::MAX, &mut out).is_err(), "overflow");
        }
    }

    #[test]
    fn le_round_trip() {
        let edges = vec![Edge::new(3, 9), Edge::new(1, 2)];
        let buf: SectionBuf<Edge> = edges.clone().into();
        let bytes = buf.le_bytes();
        assert_eq!(bytes.len(), 16);
        let back: Vec<Edge> = bytes.chunks_exact(8).map(Edge::read_le).collect();
        assert_eq!(back, edges);
    }
}
