//! Zero-copy capture input: memory-mapped files behind a plain `&[u8]`.
//!
//! Every random-access capture reader in this crate ([`crate::capture2`])
//! already consumes a byte slice, so the only thing standing between a
//! multi-GB capture and flat-memory analysis is how those bytes get into
//! the address space. [`Mapping`] answers with `mmap(2)` on 64-bit Linux —
//! the file's pages are borrowed from the page cache instead of copied
//! onto the heap — and falls back to one `fs::read` everywhere else, so
//! callers never branch on platform: they open a path, get a `&[u8]`, and
//! hand it to the same slice-based readers either way.
//!
//! The module is dependency-free by design (this workspace vendors no
//! `libc`): the three syscalls used — `mmap`, `munmap`, `madvise` — are
//! declared directly against the platform C library that `std` already
//! links.
//!
//! Two operational details matter for the analysis pipeline:
//!
//! * **Lifetime.** A `Mapping` must outlive every slice borrowed from it;
//!   the borrow checker enforces this because access goes through
//!   `Deref<Target = [u8]>`. Truncating a mapped file under a live reader
//!   is undefined at the OS level (`SIGBUS` on touch) — captures are
//!   sealed (footer written) before they are mapped, and the `--follow`
//!   tail path never maps a still-growing file.
//! * **Residency.** Touched pages of a file-backed mapping count toward
//!   RSS until reclaimed, so a sequential scan of a huge capture would
//!   still show a file-sized `VmHWM`. [`Mapping::release_until`] gives
//!   pages back eagerly (`madvise(MADV_DONTNEED)` on the consumed prefix —
//!   safe for a private read-only file mapping: a re-touch simply
//!   re-faults from the page cache), which is what keeps the chunk
//!   cursor's peak memory independent of capture size.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_DONTNEED: c_int = 4;

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
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub fn sysconf(name: c_int) -> i64;
    }

    /// `_SC_PAGESIZE`.
    pub const SC_PAGESIZE: c_int = 30;

    pub fn page_size() -> usize {
        // SAFETY: sysconf(_SC_PAGESIZE) has no preconditions.
        let ps = unsafe { sysconf(SC_PAGESIZE) };
        if ps > 0 {
            ps as usize
        } else {
            4096
        }
    }

    pub fn map_failed(p: *mut c_void) -> bool {
        p as isize == -1 || p.is_null()
    }
}

enum MapInner {
    /// A live `mmap` region (base pointer is page-aligned, owned here).
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    Mapped { ptr: *const u8, len: usize },
    /// Heap fallback: empty files, non-Linux hosts, or a failed `mmap`.
    Heap(Vec<u8>),
}

// SAFETY: the mapped region is PROT_READ and never handed out mutably;
// sharing immutable views of it across threads is as safe as sharing a
// `&[u8]` (which the parallel chunk decoder already does).
unsafe impl Send for MapInner {}
unsafe impl Sync for MapInner {}

/// A read-only view of a capture file: memory-mapped where possible,
/// heap-read otherwise. Dereferences to `&[u8]`.
pub struct Mapping {
    inner: MapInner,
    /// Bytes already handed back to the OS (page-floored watermark for
    /// [`Mapping::release_until`]); atomic so release can run while the
    /// slice is borrowed elsewhere.
    released: AtomicUsize,
}

impl Mapping {
    /// Opens `path` for zero-copy reading. On 64-bit Linux this maps the
    /// file (`PROT_READ`, `MAP_PRIVATE`); elsewhere — and for empty files
    /// or on any `mmap` failure — it falls back to reading the file onto
    /// the heap, which is always correct, just not zero-copy.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (open/metadata/read).
    pub fn open(path: &Path) -> io::Result<Mapping> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Self::from_file(&file, len, path)
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn from_file(file: &File, len: u64, path: &Path) -> io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        let Ok(len_usize) = usize::try_from(len) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "capture does not fit the address space",
            ));
        };
        if len_usize == 0 {
            return Ok(Mapping::heap(Vec::new()));
        }
        // SAFETY: fd is a valid open file, len is its current size, and
        // the resulting region is only ever read. A concurrent truncation
        // would SIGBUS — documented constraint: map sealed captures only.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len_usize,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if sys::map_failed(ptr) {
            // e.g. ENODEV on filesystems without mmap support — fall back.
            return Ok(Mapping::heap(std::fs::read(path)?));
        }
        Ok(Mapping {
            inner: MapInner::Mapped {
                ptr: ptr as *const u8,
                len: len_usize,
            },
            released: AtomicUsize::new(0),
        })
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    fn from_file(_file: &File, _len: u64, path: &Path) -> io::Result<Mapping> {
        Ok(Mapping::heap(std::fs::read(path)?))
    }

    /// Wraps already-materialized bytes (the portable fallback). Public so
    /// tests can exercise consumers with both backings.
    pub fn heap(bytes: Vec<u8>) -> Mapping {
        Mapping {
            inner: MapInner::Heap(bytes),
            released: AtomicUsize::new(0),
        }
    }

    /// `true` when the bytes are an actual `mmap` region (false on the
    /// heap fallback) — telemetry only, consumers behave identically.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            MapInner::Mapped { .. } => true,
            MapInner::Heap(_) => false,
        }
    }

    /// Hints the kernel that access will be a forward scan
    /// (`madvise(MADV_SEQUENTIAL)`: aggressive readahead, early reclaim).
    /// No-op on the heap fallback.
    pub fn advise_sequential(&self) {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if let MapInner::Mapped { ptr, len } = self.inner {
            // SAFETY: advising our own live mapping; madvise never
            // invalidates the region.
            unsafe { sys::madvise(ptr as *mut _, len, sys::MADV_SEQUENTIAL) };
        }
    }

    /// Returns the pages of `self[..offset]` to the OS
    /// (`madvise(MADV_DONTNEED)`, rounded down to a page boundary). Call
    /// as a sequential consumer advances so peak RSS tracks the *unread*
    /// working set instead of the whole file. Safe at any time: a later
    /// re-read of a released page re-faults from the page cache. No-op on
    /// the heap fallback (freeing heap prefixes is not possible).
    pub fn release_until(&self, offset: usize) {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if let MapInner::Mapped { ptr, len } = self.inner {
            let page = sys::page_size();
            let target = (offset.min(len) / page) * page;
            let from = self.released.load(Ordering::Relaxed);
            if target <= from {
                return;
            }
            self.released.store(target, Ordering::Relaxed);
            // SAFETY: [from, target) lies inside our live mapping and is
            // page-aligned; DONTNEED on a private read-only file mapping
            // drops clean pages without changing the region's validity.
            unsafe {
                sys::madvise(
                    (ptr as *mut u8).add(from) as *mut _,
                    target - from,
                    sys::MADV_DONTNEED,
                )
            };
        }
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        {
            let _ = offset;
            let _ = &self.released;
        }
    }
}

impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            MapInner::Mapped { ptr, len } => {
                // SAFETY: ptr/len describe a live PROT_READ mapping owned
                // by `self`; the slice cannot outlive it.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            MapInner::Heap(v) => v,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if let MapInner::Mapped { ptr, len } = self.inner {
            // SAFETY: unmapping exactly the region mmap returned.
            unsafe { sys::munmap(ptr as *mut _, len) };
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("fgbd_mmapio_{}_{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn maps_and_reads_back_exactly() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let path = tmp("roundtrip", &data);
        let map = Mapping::open(&path).unwrap();
        assert_eq!(&*map, data.as_slice());
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(map.is_mapped());
        // Hints must not perturb the contents.
        map.advise_sequential();
        map.release_until(data.len());
        assert_eq!(&*map, data.as_slice());
        drop(map);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_file_takes_the_heap_path() {
        let path = tmp("empty", &[]);
        let map = Mapping::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn heap_backing_behaves_identically() {
        let map = Mapping::heap(vec![1, 2, 3]);
        assert_eq!(&*map, &[1, 2, 3]);
        map.advise_sequential();
        map.release_until(2);
        assert_eq!(&*map, &[1, 2, 3]);
    }
}
