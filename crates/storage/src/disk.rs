//! Simulated disk.
//!
//! The paper's clustering and locking arguments are about *counts* — page
//! I/Os saved by placing a component next to its parent, locks saved by
//! locking a composite object as one granule. A simulated disk that stores
//! pages in memory and counts every physical read and write lets the
//! benchmark harness report those counts deterministically, replacing the
//! authors' Symbolics-era hardware (substitution documented in DESIGN.md §2).
//!
//! Every method takes `&self`: the page array sits behind an `RwLock` and
//! the counters are atomics, so the buffer pool above can service concurrent
//! readers without exclusive access to the disk.
//!
//! In the crash model of [`crate::wal`], the page array is the *durable*
//! half of the world: a simulated crash loses buffer-pool frames and
//! unflushed log bytes, but never pages already written here. The disk
//! itself never fails: device faults are injected by wrapping it in a
//! [`FaultyDevice`](crate::device::FaultyDevice), and the named crash
//! points of [`crate::fault`] target the durability protocol itself.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PAGE_SIZE};

/// Counters of physical page traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Pages read from the disk image.
    pub reads: u64,
    /// Pages written to the disk image.
    pub writes: u64,
    /// Pages allocated.
    pub allocations: u64,
}

/// An in-memory array of pages with I/O accounting.
pub struct SimDisk {
    pages: RwLock<Vec<Box<[u8; PAGE_SIZE]>>>,
    /// Per-page FNV-1a checksums, maintained on every write through the
    /// normal API. [`SimDisk::corrupt_page_byte`] deliberately skips the
    /// update, so a scrub pass ([`SimDisk::verify_page`]) can detect the
    /// rot — the simulated analogue of sector checksums on real media.
    sums: RwLock<Vec<u64>>,
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
}

impl Default for SimDisk {
    fn default() -> Self {
        Self::new()
    }
}

impl SimDisk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        SimDisk {
            pages: RwLock::new(Vec::new()),
            sums: RwLock::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
        }
    }

    /// Allocates a fresh zeroed page and returns its id.
    pub fn allocate(&self) -> u64 {
        let mut pages = self.pages.write();
        let id = pages.len() as u64;
        let page = Page::new();
        self.sums.write().push(crate::wal::fnv1a64(page.as_bytes()));
        pages.push(Box::new(*page.as_bytes()));
        self.allocations.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.pages.read().len() as u64
    }

    /// Grows the disk with zeroed pages until it holds at least `count`
    /// pages. Used by recovery to re-attach pages the committed log refers
    /// to; deliberately uncounted (nothing is "allocated" — the pages
    /// survived the crash).
    pub fn ensure_page_count(&self, count: u64) {
        let mut pages = self.pages.write();
        let mut sums = self.sums.write();
        while (pages.len() as u64) < count {
            let page = Page::new();
            sums.push(crate::wal::fnv1a64(page.as_bytes()));
            pages.push(Box::new(*page.as_bytes()));
        }
    }

    /// Reads page `id` (counted).
    pub fn read(&self, id: u64) -> StorageResult<Page> {
        let pages = self.pages.read();
        let raw = pages
            .get(id as usize)
            .ok_or(StorageError::InvalidPage { page: id })?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(Page::from_bytes(raw))
    }

    /// Writes page `id` (counted).
    pub fn write(&self, id: u64, page: &Page) -> StorageResult<()> {
        let mut pages = self.pages.write();
        let slot = pages
            .get_mut(id as usize)
            .ok_or(StorageError::InvalidPage { page: id })?;
        **slot = *page.as_bytes();
        self.sums.write()[id as usize] = crate::wal::fnv1a64(page.as_bytes());
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Verifies page `id` against its stored checksum. `Ok(true)` = intact,
    /// `Ok(false)` = the contents no longer match the checksum written with
    /// them (bit rot). Uncounted: scrubbing is maintenance, not workload
    /// I/O.
    pub fn verify_page(&self, id: u64) -> StorageResult<bool> {
        let pages = self.pages.read();
        let raw = pages
            .get(id as usize)
            .ok_or(StorageError::InvalidPage { page: id })?;
        Ok(crate::wal::fnv1a64(&raw[..]) == self.sums.read()[id as usize])
    }

    /// XORs `mask` into one byte of page `id` *without* refreshing the
    /// page's checksum — simulated bit rot for scrub tests. A zero `mask`
    /// is rejected (it would corrupt nothing).
    ///
    /// # Panics
    /// Panics if `offset` is out of page bounds or `mask` is zero.
    pub fn corrupt_page_byte(&self, id: u64, offset: usize, mask: u8) -> StorageResult<()> {
        assert!(offset < PAGE_SIZE, "corrupt offset out of page bounds");
        assert!(mask != 0, "a zero mask corrupts nothing");
        let mut pages = self.pages.write();
        let raw = pages
            .get_mut(id as usize)
            .ok_or(StorageError::InvalidPage { page: id })?;
        raw[offset] ^= mask;
        Ok(())
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
        }
    }

    /// Resets the I/O counters (not the contents) — used between benchmark
    /// phases so setup traffic does not pollute measurements.
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_roundtrip() {
        let d = SimDisk::new();
        let id = d.allocate();
        let mut p = d.read(id).unwrap();
        let slot = p.insert(b"on disk").unwrap();
        d.write(id, &p).unwrap();
        let p2 = d.read(id).unwrap();
        assert_eq!(p2.read(slot).unwrap(), b"on disk");
    }

    #[test]
    fn stats_count_traffic() {
        let d = SimDisk::new();
        let id = d.allocate();
        let p = d.read(id).unwrap();
        d.write(id, &p).unwrap();
        d.read(id).unwrap();
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.allocations, 1);
    }

    #[test]
    fn reset_stats_clears_traffic_keeps_allocations() {
        let d = SimDisk::new();
        let id = d.allocate();
        d.read(id).unwrap();
        d.reset_stats();
        assert_eq!(d.stats().reads, 0);
        assert_eq!(d.stats().allocations, 1);
    }

    #[test]
    fn invalid_page_is_rejected() {
        let d = SimDisk::new();
        assert!(matches!(
            d.read(0),
            Err(StorageError::InvalidPage { page: 0 })
        ));
        assert!(d.write(5, &Page::new()).is_err());
    }

    #[test]
    fn concurrent_readers_share_the_disk() {
        let d = SimDisk::new();
        let id = d.allocate();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        d.read(id).unwrap();
                    }
                });
            }
        });
        assert_eq!(d.stats().reads, 200);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::device::{BlockDevice, DeviceMetrics, FaultyDevice};

    #[test]
    fn injected_fault_fires_after_countdown() {
        let d = FaultyDevice::new(SimDisk::new(), DeviceMetrics::detached());
        let id = d.allocate().unwrap();
        d.arm_eio(2);
        d.read(id).unwrap();
        d.read(id).unwrap();
        assert!(matches!(d.read(id), Err(StorageError::DeviceIo { .. })));
        assert!(matches!(
            d.write(id, &Page::new()),
            Err(StorageError::DeviceIo { .. })
        ));
        d.heal_faults();
        d.read(id).unwrap();
    }

    #[test]
    fn checksums_track_writes_and_catch_rot() {
        let d = SimDisk::new();
        let id = d.allocate();
        assert!(d.verify_page(id).unwrap());
        let mut p = d.read(id).unwrap();
        p.insert(b"payload").unwrap();
        d.write(id, &p).unwrap();
        assert!(d.verify_page(id).unwrap());
        d.corrupt_page_byte(id, 100, 0xff).unwrap();
        assert!(!d.verify_page(id).unwrap());
        // Rewriting the page refreshes the checksum.
        d.write(id, &p).unwrap();
        assert!(d.verify_page(id).unwrap());
    }

    #[test]
    fn recovery_grown_pages_have_checksums() {
        let d = SimDisk::new();
        d.ensure_page_count(4);
        for id in 0..4 {
            assert!(d.verify_page(id).unwrap());
        }
    }
}
