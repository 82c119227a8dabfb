//! Bench-owned `BlockDevice`/`LogDevice` wrappers around the real
//! `FileDisk`/`FileWal`.
//!
//! Every call is forwarded to the file-backed device except the two
//! `sync`s, which are **modelled**: counted, made to last
//! `sync_latency_us`, and (for the log) recorded as the durability
//! horizon the crash check later cuts `wal.log` back to. The sandbox's
//! own `fsync` is either free (tmpfs) or a shared virtual disk whose
//! latency wanders run to run — noise either way, not a device.
//!
//! The wrappers are the benchmark's view of the storage boundary: call
//! counts, bytes and time per call come from here, not from the program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corion::storage::{
    BlockDevice, DiskStats, FileDisk, FileWal, LogDevice, Page, StorageResult, PAGE_SIZE,
};

use crate::trace::{self, now_ns, Layer};

/// Counters shared by the two wrappers of one data directory.
#[derive(Default)]
pub struct DeviceCounters {
    page_reads: AtomicU64,
    page_read_ns: AtomicU64,
    page_writes: AtomicU64,
    page_write_ns: AtomicU64,
    page_syncs: AtomicU64,
    log_appends: AtomicU64,
    log_append_bytes: AtomicU64,
    log_append_ns: AtomicU64,
    log_syncs: AtomicU64,
    log_sync_ns: AtomicU64,
    log_replaces: AtomicU64,
    log_replace_bytes: AtomicU64,
    /// Log length at the last modelled sync (or atomic replace/truncate):
    /// everything past it was appended but never made durable.
    synced_len: AtomicU64,
    /// Added to every log sync; set per workload after set-up.
    sync_latency_us: AtomicU64,
}

/// A plain copy of the counters, for deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceCounts {
    pub page_reads: u64,
    pub page_read_ns: u64,
    pub page_writes: u64,
    pub page_write_ns: u64,
    pub page_syncs: u64,
    pub log_appends: u64,
    pub log_append_bytes: u64,
    pub log_append_ns: u64,
    pub log_syncs: u64,
    pub log_sync_ns: u64,
    pub log_replaces: u64,
    pub log_replace_bytes: u64,
}

impl DeviceCounts {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            page_reads: self.page_reads - earlier.page_reads,
            page_read_ns: self.page_read_ns - earlier.page_read_ns,
            page_writes: self.page_writes - earlier.page_writes,
            page_write_ns: self.page_write_ns - earlier.page_write_ns,
            page_syncs: self.page_syncs - earlier.page_syncs,
            log_appends: self.log_appends - earlier.log_appends,
            log_append_bytes: self.log_append_bytes - earlier.log_append_bytes,
            log_append_ns: self.log_append_ns - earlier.log_append_ns,
            log_syncs: self.log_syncs - earlier.log_syncs,
            log_sync_ns: self.log_sync_ns - earlier.log_sync_ns,
            log_replaces: self.log_replaces - earlier.log_replaces,
            log_replace_bytes: self.log_replace_bytes - earlier.log_replace_bytes,
        }
    }

    /// Bytes written to the devices: log appends, checkpoint rewrites of
    /// the log, and whole pages.
    pub fn written_bytes(&self) -> u64 {
        self.log_append_bytes + self.log_replace_bytes + self.page_writes * PAGE_SIZE as u64
    }

    /// Bytes that crossed the device boundary in either direction.
    pub fn io_bytes(&self) -> u64 {
        self.written_bytes() + self.page_reads * PAGE_SIZE as u64
    }
}

impl DeviceCounters {
    pub fn snapshot(&self) -> DeviceCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DeviceCounts {
            page_reads: get(&self.page_reads),
            page_read_ns: get(&self.page_read_ns),
            page_writes: get(&self.page_writes),
            page_write_ns: get(&self.page_write_ns),
            page_syncs: get(&self.page_syncs),
            log_appends: get(&self.log_appends),
            log_append_bytes: get(&self.log_append_bytes),
            log_append_ns: get(&self.log_append_ns),
            log_syncs: get(&self.log_syncs),
            log_sync_ns: get(&self.log_sync_ns),
            log_replaces: get(&self.log_replaces),
            log_replace_bytes: get(&self.log_replace_bytes),
        }
    }

    /// Log bytes that a crash right now would keep.
    pub fn synced_len(&self) -> u64 {
        self.synced_len.load(Ordering::SeqCst)
    }

    /// Sets the modelled latency of every later log sync.
    pub fn set_sync_latency_us(&self, us: u64) {
        self.sync_latency_us.store(us, Ordering::SeqCst);
    }
}

/// Times `f`, adds one call and its duration to the counters, and
/// records a device span when tracing is on.
fn timed<R>(name: &'static str, calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    calls.fetch_add(1, Ordering::Relaxed);
    ns.fetch_add(end - start, Ordering::Relaxed);
    trace::record(Layer::Device, name, start, end, None);
    out
}

/// `FileDisk` behind the benchmark's counters.
pub struct BenchDisk {
    inner: FileDisk,
    counters: Arc<DeviceCounters>,
}

impl BenchDisk {
    pub fn new(inner: FileDisk, counters: Arc<DeviceCounters>) -> Self {
        BenchDisk { inner, counters }
    }
}

impl BlockDevice for BenchDisk {
    fn allocate(&self) -> StorageResult<u64> {
        self.inner.allocate()
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn ensure_page_count(&self, count: u64) -> StorageResult<()> {
        self.inner.ensure_page_count(count)
    }
    fn read(&self, id: u64) -> StorageResult<Page> {
        let c = &self.counters;
        timed("page_read", &c.page_reads, &c.page_read_ns, || {
            self.inner.read(id)
        })
    }
    fn write(&self, id: u64, page: &Page) -> StorageResult<()> {
        let c = &self.counters;
        timed("page_write", &c.page_writes, &c.page_write_ns, || {
            self.inner.write(id, page)
        })
    }
    fn sync(&self) -> StorageResult<()> {
        // Modelled (see the module docs): counted, not forwarded.
        self.counters.page_syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
    fn verify_page(&self, id: u64) -> StorageResult<bool> {
        self.inner.verify_page(id)
    }
    fn corrupt_page_byte(&self, id: u64, offset: usize, mask: u8) -> StorageResult<()> {
        self.inner.corrupt_page_byte(id, offset, mask)
    }
    fn stats(&self) -> DiskStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// `FileWal` behind the benchmark's counters and sync model.
pub struct BenchLog {
    inner: FileWal,
    counters: Arc<DeviceCounters>,
}

impl BenchLog {
    pub fn new(inner: FileWal, counters: Arc<DeviceCounters>) -> Self {
        counters.synced_len.store(inner.len(), Ordering::SeqCst);
        BenchLog { inner, counters }
    }
}

impl LogDevice for BenchLog {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read_all(&self) -> StorageResult<Vec<u8>> {
        self.inner.read_all()
    }
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let c = &self.counters;
        c.log_append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        timed("log_append", &c.log_appends, &c.log_append_ns, || {
            self.inner.append(bytes)
        })
    }
    fn sync(&self) -> StorageResult<()> {
        let c = &self.counters;
        timed("log_sync", &c.log_syncs, &c.log_sync_ns, || {
            // Whatever was appended before this call is durable once it
            // returns; bytes appended while it waits are not.
            let len = self.inner.len();
            let us = c.sync_latency_us.load(Ordering::Relaxed);
            // Busy-wait, not sleep: a timer sleep hands the virtual CPU
            // back to the host, and the wake-up then measures the host's
            // scheduler (2.6 vs 3.1 ms commit modes and 5x collapses were
            // seen with `thread::sleep`; the spin repeats within 1 %).
            let deadline = now_ns() + us * 1_000;
            while now_ns() < deadline {
                std::hint::spin_loop();
            }
            c.synced_len.store(len, Ordering::SeqCst);
        });
        Ok(())
    }
    fn truncate(&self, len: u64) -> StorageResult<()> {
        self.inner.truncate(len)?;
        self.counters
            .synced_len
            .fetch_min(self.inner.len(), Ordering::SeqCst);
        Ok(())
    }
    fn replace(&self, contents: &[u8]) -> StorageResult<()> {
        let c = &self.counters;
        c.log_replaces.fetch_add(1, Ordering::Relaxed);
        c.log_replace_bytes
            .fetch_add(contents.len() as u64, Ordering::Relaxed);
        let start = now_ns();
        let out = self.inner.replace(contents);
        trace::record(Layer::Device, "log_replace", start, now_ns(), None);
        if out.is_ok() {
            // tmp + rename: the new log is durable as a whole.
            c.synced_len.store(self.inner.len(), Ordering::SeqCst);
        }
        out
    }
    fn corrupt_byte(&self, offset: u64, mask: u8) -> StorageResult<()> {
        self.inner.corrupt_byte(offset, mask)
    }
}
