//! Buffer pool: an LRU page cache over the simulated disk.
//!
//! Composite-object clustering (paper §2.3) only pays off because the buffer
//! pool turns co-located components into buffer hits. The pool exposes hit /
//! miss / eviction counters that the clustering benchmark (DESIGN.md B6)
//! reports alongside physical I/O counts.
//!
//! The pool is safe to share across threads: frames live behind
//! `parking_lot::RwLock`-protected shards and all counters are atomics, so
//! every method takes `&self`. Read fetches of resident pages run under a
//! shard *read* lock and therefore proceed in parallel; only misses (which
//! must mutate the frame table) and write fetches take the shard write lock.
//! Small pools use a single shard, preserving the exact global LRU order the
//! replacement-policy tests rely on; large pools spread frames over several
//! shards so concurrent traversals do not serialise on one lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use corion_obs::Registry;
use parking_lot::RwLock;

use crate::device::BlockDevice;
use crate::error::{StorageError, StorageResult};
use crate::page::Page;

/// Pools at least this large trade exact global LRU for sharding.
const SHARDING_THRESHOLD: usize = 64;
/// Shard count used above the threshold.
const SHARD_COUNT: usize = 8;

/// Counters describing cache behaviour.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Fetches satisfied from the pool.
    pub hits: u64,
    /// Fetches that went to disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back, by eviction or by a flush. The registry
    /// splits the two causes: `corion_buffer_writebacks_eviction_total`
    /// here, `corion_buffer_writebacks_checkpoint_total` at the store.
    pub writebacks: u64,
    /// Fetches that grew a full shard past its budget because every
    /// resident frame was dirty and pinned by the no-steal policy. Bounded
    /// by the pages dirtied since the last checkpoint plus the largest
    /// atomic batch; the debt drains through write-back eviction once the
    /// batch closes, and a checkpoint cleans every frame.
    pub overcommits: u64,
}

struct Frame {
    page: Page,
    dirty: bool,
    /// Logical clock value of the most recent access, for LRU. Atomic so the
    /// hit path can bump it while holding only the shard read lock.
    last_used: AtomicU64,
}

/// A fixed-capacity LRU buffer pool, shareable across threads.
///
/// Callers fetch pages with [`BufferPool::with_page`] /
/// [`BufferPool::with_page_mut`]; the frame is protected by its shard lock
/// for the duration of the closure, so the replacement policy can never
/// evict a page out from under an active reader.
pub struct BufferPool {
    disk: Arc<dyn BlockDevice>,
    shards: Vec<RwLock<HashMap<u64, Frame>>>,
    /// Frame budget per shard.
    shard_capacity: usize,
    /// While set, eviction may not write dirty frames back (the WAL's
    /// *no-steal* policy: an open atomic batch's pages must never reach the
    /// disk before their log records are durable). While clear, every dirty
    /// frame holds a committed image whose log record is synced — commits
    /// leave their frames dirty — so eviction may write it back.
    no_steal: AtomicBool,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    overcommits: AtomicU64,
    /// `corion_buffer_writebacks_eviction_total`: the share of
    /// `writebacks` issued by eviction (possibly from a `&self` read path).
    eviction_writebacks: corion_obs::Counter,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames over `disk` (any
    /// [`BlockDevice`]: the simulated disk, a file-backed disk, or a
    /// fault-injecting wrapper).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(disk: impl BlockDevice + 'static, capacity: usize) -> Self {
        Self::with_shared(Arc::new(disk), capacity)
    }

    /// Creates a pool over an already-shared device, so callers (tests,
    /// the fault harness) can keep their own handle to it.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_shared(disk: Arc<dyn BlockDevice>, capacity: usize) -> Self {
        Self::with_registry(disk, capacity, &Registry::new())
    }

    /// Like [`BufferPool::with_shared`], interning the pool's registry
    /// counter in `registry` (the store passes its own).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_registry(disk: Arc<dyn BlockDevice>, capacity: usize, registry: &Registry) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let shard_count = if capacity < SHARDING_THRESHOLD {
            1
        } else {
            SHARD_COUNT
        };
        BufferPool {
            disk,
            shards: (0..shard_count)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            shard_capacity: capacity.div_ceil(shard_count),
            no_steal: AtomicBool::new(false),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            overcommits: AtomicU64::new(0),
            eviction_writebacks: registry.counter("corion_buffer_writebacks_eviction_total"),
        }
    }

    fn shard(&self, id: u64) -> &RwLock<HashMap<u64, Frame>> {
        // Pages are allocated sequentially, so modulo spreads consecutive
        // (clustered) pages across shards evenly.
        &self.shards[id as usize % self.shards.len()]
    }

    /// Allocates a fresh page on the underlying device.
    pub fn allocate(&self) -> StorageResult<u64> {
        self.disk.allocate()
    }

    /// Number of pages on the underlying disk.
    pub fn page_count(&self) -> u64 {
        self.disk.page_count()
    }

    /// Runs `f` with read access to page `id`.
    ///
    /// Resident pages are served under the shard read lock, so concurrent
    /// readers of cached pages never block each other.
    pub fn with_page<R>(&self, id: u64, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let shard = self.shard(id);
        {
            let frames = shard.read();
            if let Some(frame) = frames.get(&id) {
                let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                frame.last_used.store(now, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(f(&frame.page));
            }
        }
        // Miss: take the write lock, re-check (another thread may have loaded
        // the page while we waited), then fault it in.
        let mut frames = shard.write();
        let frame = self.fault_in(&mut frames, id)?;
        Ok(f(&frame.page))
    }

    /// Runs `f` with write access to page `id`; the frame is marked dirty.
    pub fn with_page_mut<R>(&self, id: u64, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        let mut frames = self.shard(id).write();
        let frame = self.fault_in(&mut frames, id)?;
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    /// Ensures `id` is resident in `frames` (the locked shard map), counting
    /// the access as a hit or miss and evicting if the shard is full.
    fn fault_in<'a>(
        &self,
        frames: &'a mut HashMap<u64, Frame>,
        id: u64,
    ) -> StorageResult<&'a mut Frame> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if frames.contains_key(&id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // The shard may sit above budget after a no-steal overcommit;
            // evict down to budget so the debt drains once frames are clean.
            while frames.len() >= self.shard_capacity {
                match self.evict_one(frames) {
                    Ok(()) => {}
                    // Every evictable frame is dirty and pinned by an open
                    // atomic batch. The batch must be able to finish (its
                    // pages cannot reach the disk before commit), so the
                    // shard overcommits; once the batch closes the frames
                    // may be written back and the debt drains through
                    // ordinary eviction.
                    Err(StorageError::PoolExhausted) if self.no_steal.load(Ordering::Relaxed) => {
                        self.overcommits.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            let page = self.disk.read(id)?;
            frames.insert(
                id,
                Frame {
                    page,
                    dirty: false,
                    last_used: AtomicU64::new(now),
                },
            );
        }
        let frame = frames.get_mut(&id).expect("frame resident after fault-in");
        frame.last_used.store(now, Ordering::Relaxed);
        Ok(frame)
    }

    fn evict_one(&self, frames: &mut HashMap<u64, Frame>) -> StorageResult<()> {
        let no_steal = self.no_steal.load(Ordering::Relaxed);
        let victim = frames
            .iter()
            .filter(|(_, f)| !(no_steal && f.dirty))
            .min_by_key(|(_, f)| f.last_used.load(Ordering::Relaxed))
            .map(|(&id, _)| id)
            .ok_or(StorageError::PoolExhausted)?;
        // Write first, remove after: a dirty frame may be the only copy of
        // a committed image outside the log, so a failed write-back must
        // leave it resident (and dirty) rather than expose the stale disk
        // page to the next fetch.
        let frame = &frames[&victim];
        if frame.dirty {
            self.disk.write(victim, &frame.page)?;
            self.writebacks.fetch_add(1, Ordering::Relaxed);
            self.eviction_writebacks.inc();
        }
        frames.remove(&victim);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Ids of every dirty resident frame, ascending.
    pub fn dirty_pages(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for shard in &self.shards {
            let frames = shard.read();
            ids.extend(frames.iter().filter(|(_, f)| f.dirty).map(|(&id, _)| id));
        }
        ids.sort_unstable();
        ids
    }

    /// Writes the frame for `id` back to disk if it is resident and dirty,
    /// and marks it clean. On error the frame stays dirty.
    pub fn write_back(&self, id: u64) -> StorageResult<()> {
        let mut frames = self.shard(id).write();
        if let Some(frame) = frames.get_mut(&id).filter(|f| f.dirty) {
            self.disk.write(id, &frame.page)?;
            frame.dirty = false;
            self.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes every dirty frame back to disk, in ascending page order
    /// (clustered neighbours are adjacent pages, §2.3).
    pub fn flush_all(&self) -> StorageResult<()> {
        self.dirty_pages()
            .into_iter()
            .try_for_each(|id| self.write_back(id))
    }

    /// Switches the *no-steal* eviction policy on or off. While on, dirty
    /// frames are pinned in memory: `BufferPool::evict_one` considers
    /// only clean victims and reports [`StorageError::PoolExhausted`] when
    /// every frame in a full shard is dirty.
    pub fn set_no_steal(&self, on: bool) {
        self.no_steal.store(on, Ordering::Relaxed);
    }

    /// Applies a committed page image: writes `page` to disk and, if a
    /// frame for `id` is resident, marks it clean (its contents are by
    /// construction the image being applied). This is the redo write path
    /// (recovery replay, scrub salvage) — commits do not write pages — and
    /// it must not fault the page in.
    pub fn apply_page(&self, id: u64, page: &Page) -> StorageResult<()> {
        self.disk.write(id, page)?;
        let mut frames = self.shard(id).write();
        if let Some(frame) = frames.get_mut(&id) {
            frame.dirty = false;
        }
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Overwrites (or creates) the frame for `id` with `page` *in memory
    /// only*, leaving it dirty — the disk is not touched. Aborting a batch
    /// uses this to rewind a frame to the page's last committed image: the
    /// disk may still hold an older one (commits do not write pages), so a
    /// plain discard would time-travel past commits that already returned
    /// success. The frame stays dirty until a checkpoint or an eviction
    /// writes it back.
    pub fn install_frame(&self, id: u64, page: &Page) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut frames = self.shard(id).write();
        match frames.get_mut(&id) {
            Some(frame) => {
                frame.page = page.clone();
                frame.dirty = true;
                frame.last_used.store(now, Ordering::Relaxed);
            }
            None => {
                // May push a full shard over budget; the overcommit drains
                // through ordinary eviction.
                frames.insert(
                    id,
                    Frame {
                        page: page.clone(),
                        dirty: true,
                        last_used: AtomicU64::new(now),
                    },
                );
            }
        }
    }

    /// Drops the frames for `pages` *without* writing them back. Only
    /// correct for pages whose committed contents are on disk (abort uses
    /// it for pages no commit since the last checkpoint touched): the next
    /// fetch re-reads them from there.
    pub fn discard_pages(&self, pages: impl IntoIterator<Item = u64>) {
        for id in pages {
            self.shard(id).write().remove(&id);
        }
    }

    /// Drops every frame without writeback — the volatile half of a
    /// simulated crash (dirty uncommitted state evaporates; the disk and
    /// the durable log survive).
    pub fn discard_all(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Grows the disk until page `id` exists. Recovery needs this when the
    /// log's committed tail mentions pages allocated after the crash point's
    /// last applied state.
    pub fn ensure_allocated(&self, id: u64) -> StorageResult<()> {
        self.disk.ensure_page_count(id + 1)
    }

    /// Forces written pages to stable media (see [`BlockDevice::sync`]).
    pub fn sync_device(&self) -> StorageResult<()> {
        self.disk.sync()
    }

    /// Drops the device's acknowledged-but-unsynced state — the device
    /// half of a simulated crash (see [`BlockDevice::crash`]).
    pub fn crash_device(&self) {
        self.disk.crash();
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
            overcommits: self.overcommits.load(Ordering::Relaxed),
        }
    }

    /// Physical I/O counters of the underlying disk.
    pub fn disk_stats(&self) -> crate::disk::DiskStats {
        self.disk.stats()
    }

    /// Arms device-level failure injection (see
    /// [`BlockDevice::fail_after`]).
    pub fn fail_after(&self, ops: u64) {
        self.disk.fail_after(ops);
    }

    /// Arms device-level *transient* failure injection (see
    /// [`BlockDevice::fail_transient`]).
    pub fn fail_transient(&self, ops: u64, failures: u64) {
        self.disk.fail_transient(ops, failures);
    }

    /// Disarms failure injection.
    pub fn heal(&self) {
        self.disk.heal();
    }

    /// Verifies the on-disk checksum of page `id` (see
    /// [`BlockDevice::verify_page`]). Only meaningful for pages with no
    /// dirty resident frame — the scrub path drops its cache first.
    pub fn verify_page(&self, id: u64) -> StorageResult<bool> {
        self.disk.verify_page(id)
    }

    /// Injects bit rot into page `id` on disk (see
    /// [`BlockDevice::corrupt_page_byte`]), writing back and dropping any
    /// resident frame so the corruption lands on the committed image and is
    /// observable through the cache. Not for use while `id` holds
    /// uncommitted bytes.
    pub fn corrupt_page_byte(&self, id: u64, offset: usize, mask: u8) -> StorageResult<()> {
        self.write_back(id)?;
        self.shard(id).write().remove(&id);
        self.disk.corrupt_page_byte(id, offset, mask)
    }

    /// Clears both cache and disk counters (used between benchmark phases).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
        self.overcommits.store(0, Ordering::Relaxed);
        self.disk.reset_stats();
    }

    /// Drops every clean frame and flushes dirty ones, so subsequent fetches
    /// hit the disk — used by benchmarks to measure cold-cache behaviour.
    pub fn clear_cache(&self) -> StorageResult<()> {
        self.flush_all()?;
        for shard in &self.shards {
            shard.write().clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use crate::page::PAGE_SIZE;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(SimDisk::new(), capacity)
    }

    #[test]
    fn repeated_access_hits_cache() {
        let bp = pool(4);
        let id = bp.allocate().unwrap();
        bp.with_page(id, |_| ()).unwrap();
        bp.with_page(id, |_| ()).unwrap();
        bp.with_page(id, |_| ()).unwrap();
        let s = bp.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let bp = pool(2);
        let a = bp.allocate().unwrap();
        let b = bp.allocate().unwrap();
        let c = bp.allocate().unwrap();
        bp.with_page(a, |_| ()).unwrap();
        bp.with_page(b, |_| ()).unwrap();
        bp.with_page(a, |_| ()).unwrap(); // a is now MRU
        bp.with_page(c, |_| ()).unwrap(); // evicts b
        assert_eq!(bp.stats().evictions, 1);
        bp.with_page(a, |_| ()).unwrap(); // still resident
        assert_eq!(bp.stats().hits, 2);
        bp.with_page(b, |_| ()).unwrap(); // miss: was evicted
        assert_eq!(bp.stats().misses, 4);
    }

    #[test]
    fn dirty_pages_survive_eviction() {
        let bp = pool(1);
        let a = bp.allocate().unwrap();
        let b = bp.allocate().unwrap();
        let slot = bp
            .with_page_mut(a, |p| p.insert(b"dirty").unwrap())
            .unwrap();
        bp.with_page(b, |_| ()).unwrap(); // evicts a, forcing writeback
        assert_eq!(bp.stats().writebacks, 1);
        let data = bp.with_page(a, |p| p.read(slot).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"dirty");
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let bp = pool(4);
        let a = bp.allocate().unwrap();
        let slot = bp
            .with_page_mut(a, |p| p.insert(b"flushed").unwrap())
            .unwrap();
        bp.flush_all().unwrap();
        bp.clear_cache().unwrap();
        let data = bp.with_page(a, |p| p.read(slot).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"flushed");
    }

    #[test]
    fn clear_cache_makes_next_access_cold() {
        let bp = pool(4);
        let a = bp.allocate().unwrap();
        bp.with_page(a, |_| ()).unwrap();
        bp.clear_cache().unwrap();
        bp.reset_stats();
        bp.with_page(a, |_| ()).unwrap();
        assert_eq!(bp.stats().misses, 1);
        assert_eq!(bp.stats().hits, 0);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        let _ = pool(0);
    }

    #[test]
    fn no_steal_pins_dirty_frames_and_overcommits() {
        let bp = pool(1);
        let a = bp.allocate().unwrap();
        let b = bp.allocate().unwrap();
        bp.set_no_steal(true);
        bp.with_page_mut(a, |p| p.insert(b"uncommitted").unwrap())
            .unwrap();
        // The only frame is dirty and pinned: faulting b in must not leak
        // a's uncommitted bytes to disk — the shard overcommits instead.
        bp.with_page(b, |_| ()).unwrap();
        let s = bp.stats();
        assert_eq!(s.writebacks, 0, "no dirty page reached the disk");
        assert_eq!(s.overcommits, 1);
        // Once the frame is clean again, ordinary eviction drains the debt.
        bp.set_no_steal(false);
        let c = bp.allocate().unwrap();
        bp.with_page(c, |_| ()).unwrap();
        assert_eq!(bp.stats().writebacks, 1, "dirty a written back on steal");
    }

    #[test]
    fn a_failed_eviction_writeback_keeps_the_frame() {
        let bp = pool(1);
        let a = bp.allocate().unwrap();
        let b = bp.allocate().unwrap();
        let slot = bp
            .with_page_mut(a, |p| p.insert(b"only copy").unwrap())
            .unwrap();
        // Faulting b in must evict a, whose write-back fails: the error
        // surfaces and a stays resident and dirty — the disk still holds
        // the empty page, so dropping the frame would lose the insert.
        bp.fail_after(0);
        assert!(bp.with_page(b, |_| ()).is_err());
        bp.heal();
        let s = bp.stats();
        assert_eq!((s.writebacks, s.evictions), (0, 0));
        assert_eq!(bp.dirty_pages(), vec![a]);
        let data = bp.with_page(a, |p| p.read(slot).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"only copy");
        assert_eq!(bp.stats().misses, 2, "a was served from the pool");
        // Healed, the same eviction goes through and nothing is lost.
        bp.with_page(b, |_| ()).unwrap();
        assert_eq!(bp.stats().writebacks, 1);
        let data = bp.with_page(a, |p| p.read(slot).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"only copy");
    }

    #[test]
    fn corrupt_page_byte_writes_a_dirty_frame_back_first() {
        let bp = pool(4);
        let a = bp.allocate().unwrap();
        let slot = bp
            .with_page_mut(a, |p| p.insert(b"committed, not yet on disk").unwrap())
            .unwrap();
        // A failed write-back must not drop the frame either.
        bp.fail_after(0);
        assert!(bp.corrupt_page_byte(a, PAGE_SIZE / 2, 0xff).is_err());
        bp.heal();
        assert_eq!(bp.dirty_pages(), vec![a]);
        // The rot lands on the written-back image, not on a stale page.
        bp.corrupt_page_byte(a, PAGE_SIZE / 2, 0xff).unwrap();
        assert_eq!(bp.stats().writebacks, 1);
        assert!(!bp.verify_page(a).unwrap());
        let data = bp.with_page(a, |p| p.read(slot).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"committed, not yet on disk");
    }

    #[test]
    fn dirty_pages_are_listed_and_flushed_in_ascending_order() {
        let bp = pool(256); // sharded: consecutive pages live in different shards
        let ids: Vec<u64> = (0..40).map(|_| bp.allocate().unwrap()).collect();
        for &id in ids.iter().rev().step_by(3) {
            bp.with_page_mut(id, |p| p.insert(b"d").unwrap()).unwrap();
        }
        let dirty = bp.dirty_pages();
        assert_eq!(dirty.len(), 14);
        assert!(dirty.windows(2).all(|w| w[0] < w[1]));
        // A flush that fails midway leaves exactly the unwritten suffix dirty.
        bp.fail_after(5);
        assert!(bp.flush_all().is_err());
        bp.heal();
        assert_eq!(bp.dirty_pages(), dirty[5..]);
        bp.flush_all().unwrap();
        assert!(bp.dirty_pages().is_empty());
        assert_eq!(bp.stats().writebacks, 14);
    }

    #[test]
    fn discard_pages_drops_uncommitted_contents() {
        let bp = pool(4);
        let a = bp.allocate().unwrap();
        bp.with_page_mut(a, |p| p.insert(b"doomed").unwrap())
            .unwrap();
        bp.discard_pages([a]);
        // Next fetch re-reads the (empty) committed page from disk.
        let slots = bp.with_page(a, |p| p.read(0).is_ok()).unwrap();
        assert!(!slots, "uncommitted insert must not survive discard");
        assert_eq!(bp.stats().writebacks, 0);
    }

    #[test]
    fn apply_page_writes_through_and_cleans_the_frame() {
        let bp = pool(1);
        let a = bp.allocate().unwrap();
        bp.set_no_steal(true);
        bp.with_page_mut(a, |p| p.insert(b"committed").unwrap())
            .unwrap();
        let image = bp.with_page(a, |p| p.clone()).unwrap();
        bp.apply_page(a, &image).unwrap();
        // Frame is clean now: another page can evict it under no-steal.
        let b = bp.allocate().unwrap();
        bp.with_page(b, |_| ()).unwrap();
        bp.set_no_steal(false);
        let data = bp.with_page(a, |p| p.read(0).unwrap().to_vec()).unwrap();
        assert_eq!(data, b"committed");
    }

    #[test]
    fn install_frame_rewinds_in_memory_without_touching_disk() {
        let bp = pool(4);
        let a = bp.allocate().unwrap();
        // A committed image the disk does not have yet.
        bp.with_page_mut(a, |p| p.insert(b"window").unwrap())
            .unwrap();
        let window_image = bp.with_page(a, |p| p.clone()).unwrap();
        // A later batch scribbles on top, then aborts.
        bp.with_page_mut(a, |p| p.insert(b"aborted").unwrap())
            .unwrap();
        bp.install_frame(a, &window_image);
        let (first, second) = bp
            .with_page(a, |p| (p.read(0).unwrap().to_vec(), p.read(1).is_ok()))
            .unwrap();
        assert_eq!(first, b"window");
        assert!(!second, "aborted insert must be gone");
        assert_eq!(bp.stats().writebacks, 0, "disk untouched");
        // The frame is dirty again: flushing persists the window image.
        bp.flush_all().unwrap();
        assert_eq!(bp.stats().writebacks, 1);
    }

    #[test]
    fn large_pools_shard_without_losing_pages() {
        let bp = pool(256);
        let ids: Vec<u64> = (0..200).map(|_| bp.allocate().unwrap()).collect();
        for &id in &ids {
            bp.with_page_mut(id, |p| p.insert(&id.to_le_bytes()).unwrap())
                .unwrap();
        }
        for &id in &ids {
            let ok = bp
                .with_page(id, |p| p.read(0).unwrap() == id.to_le_bytes())
                .unwrap();
            assert!(ok, "page {id} lost its contents");
        }
        assert!(
            bp.shards.len() > 1,
            "expected a sharded pool at capacity 256"
        );
    }

    #[test]
    fn concurrent_readers_on_shared_pool() {
        let bp = pool(128);
        let ids: Vec<u64> = (0..64).map(|_| bp.allocate().unwrap()).collect();
        for &id in &ids {
            bp.with_page_mut(id, |p| p.insert(&id.to_le_bytes()).unwrap())
                .unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let ids = &ids;
                let bp = &bp;
                s.spawn(move || {
                    for (i, &id) in ids.iter().enumerate() {
                        if i % 4 == t {
                            let ok = bp
                                .with_page(id, |p| p.read(0).unwrap() == id.to_le_bytes())
                                .unwrap();
                            assert!(ok);
                        }
                    }
                });
            }
        });
        let s = bp.stats();
        assert_eq!(s.hits + s.misses, 64 * 2);
    }
}
