//! Page store + page cache.
//!
//! [`PageStore`] is the backing byte store (a file, or memory for tests);
//! [`PageCache`] keeps a bounded set of page frames in RAM with LRU
//! eviction and dirty write-back. Pinning is implicit: a frame is pinned
//! while any [`Arc`] handle to it is alive (i.e. while a page closure is
//! running), and the evictor skips pinned frames.
//!
//! Durability note: the page file is a *rebuildable spill target*, not the
//! source of truth — the WAL + snapshot engine in [`crate::durable`] remains
//! authoritative, and a paged store reconstructs its pages from
//! snapshot + WAL replay on open (see DESIGN.md §15). An I/O failure in the
//! store therefore panics, mirroring the WAL append path in
//! `provwf::Inner::commit`: the paged layer cannot limp along without its
//! spill store.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

use super::page::PAGE_SIZE;

/// Identifies one fixed-size page in the store. Page 0 is reserved as the
/// nil sentinel (B+tree leaves use it as "no next leaf").
pub type PageId = u32;

/// Backing byte store for pages.
pub trait PageStore: Send {
    /// Read page `pid` into `buf` (all zeroes if never written).
    fn read(&mut self, pid: PageId, buf: &mut [u8]) -> std::io::Result<()>;
    /// Write page `pid` from `buf`.
    fn write(&mut self, pid: PageId, buf: &[u8]) -> std::io::Result<()>;
}

/// In-memory page store (tests, benches, env-based stores with no dir).
#[derive(Default)]
pub struct MemPageStore {
    pages: HashMap<PageId, Box<[u8]>>,
}

impl MemPageStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemPageStore {
    fn read(&mut self, pid: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        match self.pages.get(&pid) {
            Some(p) => buf.copy_from_slice(p),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write(&mut self, pid: PageId, buf: &[u8]) -> std::io::Result<()> {
        self.pages.insert(pid, buf.to_vec().into_boxed_slice());
        Ok(())
    }
}

/// File-backed page store: page `i` lives at byte offset `i * PAGE_SIZE`.
///
/// The file is truncated on open — pages are rebuilt from the durable
/// engine's snapshot + WAL, so stale spill contents are never trusted.
pub struct FilePageStore {
    file: File,
    /// Bytes in the file: the end of the furthest page written. Nothing else
    /// writes the file, so tracking it saves a `seek(End)` per transfer.
    len: u64,
}

impl FilePageStore {
    /// Create (truncating) the page file at `path`.
    pub fn create(path: &Path) -> std::io::Result<FilePageStore> {
        let file = File::options().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(FilePageStore { file, len: 0 })
    }
}

impl PageStore for FilePageStore {
    fn read(&mut self, pid: PageId, buf: &mut [u8]) -> std::io::Result<()> {
        let off = pid as u64 * PAGE_SIZE as u64;
        if off >= self.len {
            buf.fill(0);
            return Ok(());
        }
        self.file.read_exact_at(buf, off)
    }

    fn write(&mut self, pid: PageId, buf: &[u8]) -> std::io::Result<()> {
        let off = pid as u64 * PAGE_SIZE as u64;
        // a write past the end leaves a hole, which reads back as zeroes
        self.file.write_all_at(buf, off)?;
        self.len = self.len.max(off + buf.len() as u64);
        Ok(())
    }
}

/// Cache hit/miss/eviction counters, for the bench and for tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page accesses served from a resident frame.
    pub hits: u64,
    /// Page accesses that had to read from the store.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back to the store (eviction or flush).
    pub writebacks: u64,
}

struct Frame {
    data: Arc<Mutex<Box<[u8]>>>,
    dirty: bool,
    /// Clock reference bit: set on access, cleared by the sweep hand.
    referenced: bool,
}

struct CacheInner {
    frames: HashMap<PageId, Frame>,
    /// Clock queue: every resident page id, in sweep order. May contain
    /// stale ids (cheap to skip) but every resident frame appears once.
    clock: VecDeque<PageId>,
    next_page: PageId,
    stats: CacheStats,
}

/// Bounded page cache over a [`PageStore`].
///
/// Access is closure-based: [`with_page`](PageCache::with_page) /
/// [`with_page_mut`](PageCache::with_page_mut) pin the frame (via its `Arc`)
/// for the duration of the closure. Closures may access *other* pages
/// re-entrantly (B+tree descents do), but must never re-enter the same page.
pub struct PageCache {
    inner: Mutex<CacheInner>,
    store: Mutex<Box<dyn PageStore>>,
    capacity: usize,
}

impl PageCache {
    /// New cache holding at most `capacity` frames over `store`.
    /// Page 0 is allocated immediately as the reserved nil sentinel.
    pub fn new(store: Box<dyn PageStore>, capacity: usize) -> PageCache {
        let cache = PageCache {
            inner: Mutex::new(CacheInner {
                frames: HashMap::new(),
                clock: VecDeque::new(),
                next_page: 0,
                stats: CacheStats::default(),
            }),
            store: Mutex::new(store),
            capacity: capacity.max(8),
        };
        let nil = cache.allocate();
        debug_assert_eq!(nil, 0);
        cache
    }

    /// Allocate a fresh zeroed page and return its id.
    pub fn allocate(&self) -> PageId {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        let pid = inner.next_page;
        inner.next_page += 1;
        self.make_room(&mut inner);
        inner.frames.insert(
            pid,
            Frame {
                data: Arc::new(Mutex::new(vec![0u8; PAGE_SIZE].into_boxed_slice())),
                dirty: true,
                referenced: true,
            },
        );
        inner.clock.push_back(pid);
        pid
    }

    /// Total pages allocated so far (including the nil page).
    pub fn pages_allocated(&self) -> u32 {
        self.inner.lock().expect("page cache poisoned").next_page
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("page cache poisoned").stats
    }

    fn frame(&self, pid: PageId, mark_dirty: bool) -> Arc<Mutex<Box<[u8]>>> {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        assert!(pid < inner.next_page, "page {pid} was never allocated");
        if let Some(f) = inner.frames.get_mut(&pid) {
            f.referenced = true;
            f.dirty |= mark_dirty;
            let data = Arc::clone(&f.data);
            inner.stats.hits += 1;
            return data;
        }
        inner.stats.misses += 1;
        self.make_room(&mut inner);
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        self.store
            .lock()
            .expect("page store poisoned")
            .read(pid, &mut buf)
            .unwrap_or_else(|e| panic!("page store read({pid}) failed: {e}"));
        let data = Arc::new(Mutex::new(buf));
        inner
            .frames
            .insert(pid, Frame { data: Arc::clone(&data), dirty: mark_dirty, referenced: true });
        inner.clock.push_back(pid);
        data
    }

    /// Evict unpinned frames until under capacity, using a second-chance
    /// (clock) sweep: amortised O(1) per access, unlike a full LRU scan.
    /// Caller holds `inner`.
    fn make_room(&self, inner: &mut CacheInner) {
        // two full revolutions clear every reference bit and revisit each
        // frame once more; if nothing is evictable by then, everything is
        // pinned and we allow temporary overflow
        let mut hand_moves = 2 * inner.clock.len() + 1;
        while inner.frames.len() >= self.capacity && hand_moves > 0 {
            hand_moves -= 1;
            let Some(pid) = inner.clock.pop_front() else {
                return;
            };
            let Some(f) = inner.frames.get_mut(&pid) else {
                continue; // stale queue entry for an already-evicted page
            };
            // strong_count == 1 → no closure holds the frame → unpinned
            if Arc::strong_count(&f.data) > 1 {
                inner.clock.push_back(pid);
                continue;
            }
            if f.referenced {
                f.referenced = false;
                inner.clock.push_back(pid);
                continue;
            }
            let frame = inner.frames.remove(&pid).expect("victim frame");
            if frame.dirty {
                let data = frame.data.lock().expect("frame poisoned");
                self.store
                    .lock()
                    .expect("page store poisoned")
                    .write(pid, &data)
                    .unwrap_or_else(|e| panic!("page store write({pid}) failed: {e}"));
                inner.stats.writebacks += 1;
            }
            inner.stats.evictions += 1;
        }
    }

    /// Run `f` over an immutable view of page `pid`.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> R) -> R {
        let frame = self.frame(pid, false);
        let data = frame.lock().expect("frame poisoned");
        f(&data)
    }

    /// Run `f` over a mutable view of page `pid`, marking it dirty.
    pub fn with_page_mut<R>(&self, pid: PageId, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let frame = self.frame(pid, true);
        let mut data = frame.lock().expect("frame poisoned");
        f(&mut data)
    }

    /// Write every dirty frame back to the store (checkpoint coordination:
    /// the durable engine calls this before writing its snapshot).
    pub fn flush(&self) {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        let mut store = self.store.lock().expect("page store poisoned");
        let mut pids: Vec<PageId> =
            inner.frames.iter().filter(|(_, f)| f.dirty).map(|(p, _)| *p).collect();
        pids.sort_unstable();
        for pid in pids {
            let f = inner.frames.get_mut(&pid).expect("listed frame");
            let data = f.data.lock().expect("frame poisoned");
            store
                .write(pid, &data)
                .unwrap_or_else(|e| panic!("page store write({pid}) failed: {e}"));
            drop(data);
            f.dirty = false;
            inner.stats.writebacks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_survive_eviction_pressure() {
        let cache = PageCache::new(Box::new(MemPageStore::new()), 8);
        let pids: Vec<PageId> = (0..64).map(|_| cache.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            cache.with_page_mut(pid, |p| {
                p[0] = i as u8;
                p[PAGE_SIZE - 1] = 0xAB;
            });
        }
        for (i, &pid) in pids.iter().enumerate() {
            cache.with_page(pid, |p| {
                assert_eq!(p[0], i as u8, "page {pid}");
                assert_eq!(p[PAGE_SIZE - 1], 0xAB);
            });
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "capacity 8 with 65 pages must evict");
        assert!(s.writebacks > 0);
        assert!(s.misses > 0);
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let cache = PageCache::new(Box::new(MemPageStore::new()), 8);
        let a = cache.allocate();
        cache.with_page_mut(a, |p| p[7] = 42);
        // nested accesses while `a` is pinned force eviction pressure
        cache.with_page(a, |pa| {
            for _ in 0..32 {
                let b = cache.allocate();
                cache.with_page_mut(b, |pb| pb[0] = 1);
            }
            assert_eq!(pa[7], 42);
        });
        cache.with_page(a, |p| assert_eq!(p[7], 42));
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = crate::durable::testing::TempDir::new("pager");
        let path = dir.path().join("pages.db");
        let cache = PageCache::new(Box::new(FilePageStore::create(&path).unwrap()), 8);
        let pids: Vec<PageId> = (0..32).map(|_| cache.allocate()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            cache.with_page_mut(pid, |p| p[100] = i as u8);
        }
        cache.flush();
        for (i, &pid) in pids.iter().enumerate() {
            cache.with_page(pid, |p| assert_eq!(p[100], i as u8));
        }
    }

    #[test]
    fn sparse_file_reads_zero() {
        let dir = crate::durable::testing::TempDir::new("pager-sparse");
        let path = dir.path().join("pages.db");
        let mut store = FilePageStore::create(&path).unwrap();
        let mut buf = vec![0xFFu8; PAGE_SIZE];
        store.read(5, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // write page 3 past the end of the empty file: every page up to it
        // reads back zero-filled, and so does the first page after it
        store.write(3, &vec![7u8; PAGE_SIZE]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 4 * PAGE_SIZE as u64);
        for hole in [0, 1, 2, 4] {
            buf.fill(0xFF);
            store.read(hole, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0), "page {hole}");
        }
        store.read(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        // filling a hole later neither moves the end nor disturbs page 3
        store.write(1, &vec![9u8; PAGE_SIZE]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 4 * PAGE_SIZE as u64);
        store.read(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 9));
        store.read(3, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }
}
