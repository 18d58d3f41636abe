//! Residency advice over mapped byte ranges.
//!
//! A mapped `TRUSSGR2` snapshot ([`crate::snapshot`]) pages in lazily,
//! but pages a scan faults in stay resident until the kernel is under
//! pressure, so a full pass over a section would leave the whole section
//! in RSS. The out-of-core engine reads CSR rows and walked edges with
//! positioned copies, never through the mapping; what it still reads
//! through the mapping goes through a [`Window`]:
//!
//! * [`Window::pin`] keeps a range resident for the window's lifetime
//!   (the offsets section, consulted on every row copy);
//! * [`Window::for_chunks`] streams a section a chunk at a time, each
//!   chunk advised in (`MADV_WILLNEED`) before it is read and out
//!   (`MADV_DONTNEED`) after, so a sequential scan holds one chunk;
//! * [`Window::release_section`] drops a whole section, for pages that
//!   demand faults mapped outside any chunk (fault-around, binary
//!   searches) or that an earlier full scan left behind.
//!
//! Advice is only ever issued for ranges inside a live file mapping
//! (`mapped = true` at construction): `MADV_DONTNEED` on anonymous heap
//! memory would *zero it*, so heap-resident graphs run the same calls
//! with the syscalls elided.

/// Advice granularity: ranges are rounded out to 4 KiB boundaries (the
/// kernel ignores advice on partial pages; on larger-page systems the
/// syscall fails harmlessly).
pub const PAGE_BYTES: usize = 4096;

/// One advised range: `[addr, addr + len)`, page-rounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    addr: usize,
    len: usize,
}

impl Span {
    /// Page-rounds the byte range of `bytes` outward; `None` when empty.
    fn of<T>(bytes: &[T]) -> Option<Span> {
        let len = std::mem::size_of_val(bytes);
        if len == 0 {
            return None;
        }
        let ptr = bytes.as_ptr() as usize;
        let start = ptr - ptr % PAGE_BYTES;
        let end = (ptr + len).next_multiple_of(PAGE_BYTES);
        Some(Span {
            addr: start,
            len: end - start,
        })
    }
}

/// Residency advice over one logical backing: pinned ranges plus
/// chunked scans sized from a byte budget.
#[derive(Debug)]
pub struct Window {
    budget: usize,
    mapped: bool,
    pinned: Vec<Span>,
}

impl Window {
    /// A window whose scans are sized from `budget` bytes. `mapped` gates
    /// the actual syscalls: pass the backing's `is_mapped()`, and hand a
    /// mapped window only slices of that mapping.
    pub fn new(budget: usize, mapped: bool) -> Window {
        Window {
            budget: budget.max(PAGE_BYTES),
            mapped: mapped && cfg!(target_os = "linux"),
            pinned: Vec::new(),
        }
    }

    /// The budget in bytes (at least one page).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Disables kernel readahead over `bytes` (`MADV_RANDOM`), so a
    /// scattered demand fault (a binary search) maps its own page
    /// cluster rather than a ~128 KiB readahead window.
    pub fn mark_random<T>(&self, bytes: &[T]) {
        if let Some(span) = Span::of(bytes) {
            self.advise(span, Advice::Random);
        }
    }

    /// Advises `bytes` in for the window's whole lifetime (e.g. the
    /// offsets section, consulted on every row access). Pinned ranges
    /// are never swept by [`Window::for_chunks`]; only
    /// [`Window::release_all`] drops them.
    pub fn pin<T>(&mut self, bytes: &[T]) {
        if let Some(span) = Span::of(bytes) {
            if !self.pinned.contains(&span) {
                self.advise(span, Advice::WillNeed);
                self.pinned.push(span);
            }
        }
    }

    /// Advises every pinned range out.
    pub fn release_all(&mut self) {
        for span in std::mem::take(&mut self.pinned) {
            self.advise(span, Advice::DontNeed);
        }
    }

    /// Drops an entire backing section from residency (`MADV_DONTNEED`
    /// over the whole range). Callers must not flush a section they
    /// pinned: its pages would refault on the next access.
    pub fn release_section<T>(&mut self, section: &[T]) {
        if let Some(span) = Span::of(section) {
            self.advise(span, Advice::DontNeed);
        }
    }

    /// Streams `data` through the window in `chunk_bytes`-sized pieces:
    /// each chunk is advised in, handed to `f(first_index, chunk)`, and
    /// advised back out, a `scan(N)` whose resident footprint is one
    /// chunk. This is how the external engines read GR2 sections instead
    /// of re-parsing scratch records.
    pub fn for_chunks<T, F>(&mut self, data: &[T], chunk_bytes: usize, mut f: F)
    where
        F: FnMut(usize, &[T]),
    {
        let elem = std::mem::size_of::<T>().max(1);
        let per = (chunk_bytes / elem).max(1);
        let mut at = 0usize;
        while at < data.len() {
            let end = (at + per).min(data.len());
            let chunk = &data[at..end];
            let span = Span::of(chunk);
            if let Some(span) = span {
                self.advise(span, Advice::WillNeed);
            }
            f(at, chunk);
            if let Some(span) = span {
                self.advise(span, Advice::DontNeed);
            }
            at = end;
        }
    }

    #[cfg(target_os = "linux")]
    fn advise(&self, span: Span, advice: Advice) {
        use crate::mmap::sys;
        if !self.mapped {
            return;
        }
        let advice = match advice {
            Advice::Random => sys::MADV_RANDOM,
            Advice::WillNeed => sys::MADV_WILLNEED,
            Advice::DontNeed => sys::MADV_DONTNEED,
        };
        // SAFETY: `mapped` windows are only handed slices of a live
        // private file mapping, where `MADV_DONTNEED` drops pages that
        // refault unchanged from the file and the other advice only
        // steers readahead; no memory the program owns is altered.
        // Advice is a hint: a failure (foreign page size, unmapped hole)
        // costs correctness nothing, so the result is deliberately
        // ignored.
        unsafe {
            sys::madvise(span.addr as *mut std::os::raw::c_void, span.len, advice);
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn advise(&self, _span: Span, _advice: Advice) {}
}

/// The `madvise` advice a [`Window`] issues.
#[derive(Debug, Clone, Copy)]
enum Advice {
    Random,
    WillNeed,
    DontNeed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_chunks_visits_everything_in_order() {
        let data: Vec<u32> = (0..100_000u32).collect();
        let mut w = Window::new(8 * PAGE_BYTES, false);
        let mut seen = Vec::new();
        w.for_chunks(&data, 2 * PAGE_BYTES, |base, chunk| {
            assert_eq!(chunk[0], base as u32);
            seen.push((base, chunk.len()));
        });
        let total: usize = seen.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, data.len());
        assert!(seen.windows(2).all(|p| p[0].0 + p[0].1 == p[1].0));
        assert!(seen.iter().all(|&(_, l)| l <= 2 * PAGE_BYTES / 4));
    }

    #[test]
    fn pins_are_kept_once_until_release_all() {
        let data = vec![0u8; 6 * PAGE_BYTES];
        let mut w = Window::new(PAGE_BYTES, false);
        w.pin(&data[2 * PAGE_BYTES..3 * PAGE_BYTES]);
        w.pin(&data[2 * PAGE_BYTES..3 * PAGE_BYTES]);
        w.pin(&data[..0]);
        assert_eq!(w.pinned.len(), 1);
        w.release_all();
        assert!(w.pinned.is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn advice_on_a_real_mapping_is_harmless() {
        use crate::mmap::Region;
        use crate::LoadMode;
        use std::io::Write;
        let path = std::env::temp_dir().join(format!("truss-window-advice-{}", std::process::id()));
        let payload: Vec<u8> = (0..PAGE_BYTES * 4).map(|i| (i % 251) as u8).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let region = Region::open(&path, LoadMode::Auto).unwrap();
        let bytes = region.as_bytes();
        let mut w = Window::new(2 * PAGE_BYTES, region.region_is_mapped());
        w.pin(&bytes[..PAGE_BYTES]);
        assert_eq!(&bytes[..16], &payload[..16]);
        let mut sum = 0u64;
        w.for_chunks(&bytes[PAGE_BYTES..], PAGE_BYTES, |_, chunk| {
            sum += chunk.iter().map(|&b| b as u64).sum::<u64>();
        });
        assert_eq!(sum, payload[PAGE_BYTES..].iter().map(|&b| b as u64).sum());
        w.release_section(&bytes[PAGE_BYTES..]);
        w.release_all();
        // MADV_DONTNEED on a private file mapping refaults from the file:
        // the contents must be intact afterwards.
        assert_eq!(bytes, &payload[..]);
        std::fs::remove_file(&path).unwrap();
    }
}
