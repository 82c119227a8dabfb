//! Device layer: the trait boundary between the storage stack and its media.
//!
//! Everything above this module — the buffer pool, the WAL, the store —
//! talks to *devices*, never to files or in-memory arrays directly:
//!
//! * [`BlockDevice`] is the page store ([`SimDisk`] in memory,
//!   [`FileDisk`] on real files with positioned reads/writes and a
//!   checksum sidecar);
//! * [`LogDevice`] is the append-only log ([`MemLog`] in memory,
//!   [`FileWal`] on a real file with `fsync` at every durability point and
//!   tmp+rename+dir-fsync checkpoint compaction);
//! * [`FaultyDevice`] wraps either and injects deterministic faults *at
//!   the device boundary*: torn page writes, short reads, EIO, a lying
//!   fsync whose acknowledged bytes a simulated crash drops, and a crash
//!   in the checkpoint-compaction gap. It is the one place device faults
//!   are injected: the plain devices never fail on their own schedule;
//! * [`DirLock`] is the data-directory lock file that keeps two processes
//!   from opening the same files.
//!
//! The crash model of [`crate::wal`] maps onto real files exactly: the
//! durable half of the world is what has been `fsync`ed, and everything
//! else — buffer-pool frames, pending log bytes, lying-fsync buffers — is
//! volatile. The crash-matrix tests run unchanged over
//! `FaultyDevice<FileDisk>` because the fault discipline lives here, on
//! the boundary every byte crosses.
//!
//! Every device error is permanent. A real I/O error maps to
//! [`StorageError::DeviceIo`] (a short read to
//! [`StorageError::ShortRead`]) and is never retried: after a failed
//! `fsync` the kernel may already have dropped the dirty data, so a
//! retry that succeeds proves nothing (docs/RESILIENCE.md §2).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write as _};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corion_obs::{Registry, LATENCY_BOUNDS_NS};
use parking_lot::Mutex;

use crate::disk::{DiskStats, SimDisk};
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PAGE_SIZE};

/// Handles to the `corion_storage_device_*` metrics family. Cloning is
/// cheap (the handles share the registry's values), so every device holds
/// its own copy.
#[derive(Clone)]
pub struct DeviceMetrics {
    /// `corion_storage_device_fsyncs_total`: real `fsync`/`fdatasync`
    /// calls issued by file-backed devices (page file, log file, and the
    /// directory fsyncs of atomic renames).
    pub fsyncs: corion_obs::Counter,
    /// `corion_storage_device_torn_writes_injected_total`: torn page
    /// writes injected by [`FaultyDevice`].
    pub torn_writes_injected: corion_obs::Counter,
    /// `corion_storage_device_short_reads_injected_total`: short reads
    /// injected by [`FaultyDevice`].
    pub short_reads_injected: corion_obs::Counter,
    /// `corion_storage_device_eio_injected_total`: EIO faults injected by
    /// [`FaultyDevice`].
    pub eio_injected: corion_obs::Counter,
    /// `corion_storage_device_reopen_latency_ns`: time to reopen a data
    /// directory (lock, open files, recover).
    pub reopen_latency: corion_obs::Histogram,
}

impl DeviceMetrics {
    /// Interns the device metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        DeviceMetrics {
            fsyncs: registry.counter("corion_storage_device_fsyncs_total"),
            torn_writes_injected: registry
                .counter("corion_storage_device_torn_writes_injected_total"),
            short_reads_injected: registry
                .counter("corion_storage_device_short_reads_injected_total"),
            eio_injected: registry.counter("corion_storage_device_eio_injected_total"),
            reopen_latency: registry
                .histogram("corion_storage_device_reopen_latency_ns", LATENCY_BOUNDS_NS),
        }
    }

    /// Metrics that record into a throwaway registry — for devices built
    /// outside a store (unit tests, tools).
    pub fn detached() -> Self {
        Self::new(&Registry::new())
    }
}

/// A page store: fixed-size pages addressed by id.
///
/// Implementations must be internally synchronised (`&self` methods,
/// `Send + Sync`) — the buffer pool above serves concurrent readers.
pub trait BlockDevice: Send + Sync {
    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> StorageResult<u64>;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// Grows the device with zeroed pages until it holds at least `count`
    /// pages (recovery re-attaching pages the committed log refers to;
    /// uncounted).
    fn ensure_page_count(&self, count: u64) -> StorageResult<()>;
    /// Reads page `id`.
    fn read(&self, id: u64) -> StorageResult<Page>;
    /// Writes page `id`.
    fn write(&self, id: u64, page: &Page) -> StorageResult<()>;
    /// Forces written pages to stable media (a checkpoint's "the disk is
    /// current" assertion). No-op for in-memory devices.
    fn sync(&self) -> StorageResult<()>;
    /// Verifies page `id` against its stored checksum (`Ok(false)` = rot).
    fn verify_page(&self, id: u64) -> StorageResult<bool>;
    /// XORs `mask` into one byte of page `id` *without* refreshing its
    /// checksum — bit-rot injection for scrub tests.
    fn corrupt_page_byte(&self, id: u64, offset: usize, mask: u8) -> StorageResult<()>;
    /// Snapshot of the I/O counters.
    fn stats(&self) -> DiskStats;
    /// Resets the I/O counters (not contents).
    fn reset_stats(&self);
    /// Drops acknowledged-but-unsynced state (the volatile half of a
    /// simulated crash). Default no-op: plain devices have none.
    fn crash(&self) {}
}

/// An append-only byte log with explicit durability points.
pub trait LogDevice: Send + Sync {
    /// Bytes currently in the log (including appended-but-unsynced bytes).
    fn len(&self) -> u64;
    /// True when the log holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The whole log, front to back.
    fn read_all(&self) -> StorageResult<Vec<u8>>;
    /// Appends `bytes` at the end of the log.
    fn append(&self, bytes: &[u8]) -> StorageResult<()>;
    /// Forces appended bytes to stable media — the durability point.
    fn sync(&self) -> StorageResult<()>;
    /// Truncates the log to `len` bytes (recovery discarding a torn tail).
    fn truncate(&self, len: u64) -> StorageResult<()>;
    /// Atomically replaces the whole log with `contents` (checkpoint
    /// compaction). File-backed implementations must guarantee that a
    /// crash anywhere inside leaves either the old or the new log intact.
    fn replace(&self, contents: &[u8]) -> StorageResult<()>;
    /// XORs `mask` into the byte at `offset` — bit-flip injection for
    /// checksum-rejection tests.
    fn corrupt_byte(&self, offset: u64, mask: u8) -> StorageResult<()>;
    /// Drops acknowledged-but-unsynced state (see
    /// [`BlockDevice::crash`]). Default no-op.
    fn crash(&self) {}
}

impl BlockDevice for SimDisk {
    fn allocate(&self) -> StorageResult<u64> {
        Ok(SimDisk::allocate(self))
    }
    fn page_count(&self) -> u64 {
        SimDisk::page_count(self)
    }
    fn ensure_page_count(&self, count: u64) -> StorageResult<()> {
        SimDisk::ensure_page_count(self, count);
        Ok(())
    }
    fn read(&self, id: u64) -> StorageResult<Page> {
        SimDisk::read(self, id)
    }
    fn write(&self, id: u64, page: &Page) -> StorageResult<()> {
        SimDisk::write(self, id, page)
    }
    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
    fn verify_page(&self, id: u64) -> StorageResult<bool> {
        SimDisk::verify_page(self, id)
    }
    fn corrupt_page_byte(&self, id: u64, offset: usize, mask: u8) -> StorageResult<()> {
        SimDisk::corrupt_page_byte(self, id, offset, mask)
    }
    fn stats(&self) -> DiskStats {
        SimDisk::stats(self)
    }
    fn reset_stats(&self) {
        SimDisk::reset_stats(self)
    }
}

/// In-memory [`LogDevice`] — the byte store the WAL used before the
/// device layer existed, now behind the same trait the file-backed log
/// implements (and the inner device [`FaultyDevice`] unit tests wrap).
#[derive(Default)]
pub struct MemLog {
    bytes: Mutex<Vec<u8>>,
}

impl MemLog {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LogDevice for MemLog {
    fn len(&self) -> u64 {
        self.bytes.lock().len() as u64
    }
    fn read_all(&self) -> StorageResult<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }
    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
    fn truncate(&self, len: u64) -> StorageResult<()> {
        let mut bytes = self.bytes.lock();
        if (len as usize) < bytes.len() {
            bytes.truncate(len as usize);
        }
        Ok(())
    }
    fn replace(&self, contents: &[u8]) -> StorageResult<()> {
        *self.bytes.lock() = contents.to_vec();
        Ok(())
    }
    fn corrupt_byte(&self, offset: u64, mask: u8) -> StorageResult<()> {
        let mut bytes = self.bytes.lock();
        let byte = bytes
            .get_mut(offset as usize)
            .ok_or(StorageError::ShortRead { op: "log corrupt" })?;
        *byte ^= mask;
        Ok(())
    }
}

/// Fsyncs a directory so a rename inside it is itself durable. POSIX
/// makes the rename atomic but *not* persistent until the directory
/// entry is flushed — the missing half of every naive tmp+rename.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Writes `contents` to `path` atomically: tmp file, flush, rename,
/// parent-directory fsync. A crash anywhere leaves either the old file
/// or the new one, never a torn hybrid.
pub fn atomic_replace(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    if let Err(e) = f.write_all(contents).and_then(|()| f.sync_all()) {
        drop(f);
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    drop(f);
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent() {
        fsync_dir(dir)?;
    }
    Ok(())
}

fn io_fault(op: &'static str, e: &std::io::Error) -> StorageError {
    if e.kind() == ErrorKind::UnexpectedEof {
        StorageError::ShortRead { op }
    } else {
        StorageError::DeviceIo { op }
    }
}

/// File-backed [`BlockDevice`]: pages in `pages.dat` addressed by
/// positioned reads/writes at `id * PAGE_SIZE`, with per-page FNV-1a
/// checksums in a `pages.sum` sidecar (the file analogue of sector
/// checksums, kept across reopen so scrub still detects rot).
///
/// Page writes are *not* individually fsynced — durability comes from the
/// WAL, which is synced at every commit; [`BlockDevice::sync`] flushes
/// both files when a checkpoint asserts the disk is current.
pub struct FileDisk {
    pages: File,
    sums: File,
    count: AtomicU64,
    /// Serialises growth (allocate / ensure) so count and file length
    /// cannot race.
    grow: Mutex<()>,
    reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    metrics: DeviceMetrics,
}

impl FileDisk {
    /// Name of the page file inside a data directory.
    pub const PAGES_FILE: &'static str = "pages.dat";
    /// Name of the checksum sidecar inside a data directory.
    pub const SUMS_FILE: &'static str = "pages.sum";

    /// Opens (or creates) the page file pair inside `dir`.
    pub fn open(dir: &Path, metrics: DeviceMetrics) -> StorageResult<Self> {
        let open = |name: &str| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(dir.join(name))
        };
        let pages = open(Self::PAGES_FILE).map_err(|e| io_fault("page file open", &e))?;
        let sums = open(Self::SUMS_FILE).map_err(|e| io_fault("sum file open", &e))?;
        let len = pages
            .metadata()
            .map_err(|e| io_fault("page file stat", &e))?
            .len();
        // A partial trailing page (killed mid-extend, never committed —
        // committed pages are always re-replayed from the WAL) is dropped.
        let count = len / PAGE_SIZE as u64;
        Ok(FileDisk {
            pages,
            sums,
            count: AtomicU64::new(count),
            grow: Mutex::new(()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            metrics,
        })
    }

    fn write_raw(&self, id: u64, bytes: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        self.pages
            .write_all_at(bytes, id * PAGE_SIZE as u64)
            .map_err(|e| io_fault("page write", &e))?;
        let sum = crate::wal::fnv1a64(bytes);
        self.sums
            .write_all_at(&sum.to_le_bytes(), id * 8)
            .map_err(|e| io_fault("sum write", &e))
    }

    fn read_sum(&self, id: u64) -> StorageResult<u64> {
        let mut buf = [0u8; 8];
        self.sums
            .read_exact_at(&mut buf, id * 8)
            .map_err(|e| io_fault("sum read", &e))?;
        Ok(u64::from_le_bytes(buf))
    }

    fn check_bounds(&self, id: u64) -> StorageResult<()> {
        if id >= self.count.load(Ordering::Acquire) {
            return Err(StorageError::InvalidPage { page: id });
        }
        Ok(())
    }
}

impl BlockDevice for FileDisk {
    fn allocate(&self) -> StorageResult<u64> {
        let _g = self.grow.lock();
        let id = self.count.load(Ordering::Acquire);
        self.write_raw(id, Page::new().as_bytes())?;
        self.count.store(id + 1, Ordering::Release);
        self.allocations.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    fn page_count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    fn ensure_page_count(&self, count: u64) -> StorageResult<()> {
        let _g = self.grow.lock();
        let mut cur = self.count.load(Ordering::Acquire);
        while cur < count {
            self.write_raw(cur, Page::new().as_bytes())?;
            cur += 1;
        }
        self.count.store(cur.max(count), Ordering::Release);
        Ok(())
    }

    fn read(&self, id: u64) -> StorageResult<Page> {
        self.check_bounds(id)?;
        let mut buf = [0u8; PAGE_SIZE];
        self.pages
            .read_exact_at(&mut buf, id * PAGE_SIZE as u64)
            .map_err(|e| io_fault("page read", &e))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(Page::from_bytes(&buf))
    }

    fn write(&self, id: u64, page: &Page) -> StorageResult<()> {
        self.check_bounds(id)?;
        self.write_raw(id, page.as_bytes())?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.pages
            .sync_all()
            .map_err(|e| io_fault("page file fsync", &e))?;
        self.sums
            .sync_all()
            .map_err(|e| io_fault("sum file fsync", &e))?;
        self.metrics.fsyncs.add(2);
        Ok(())
    }

    fn verify_page(&self, id: u64) -> StorageResult<bool> {
        self.check_bounds(id)?;
        let mut buf = [0u8; PAGE_SIZE];
        self.pages
            .read_exact_at(&mut buf, id * PAGE_SIZE as u64)
            .map_err(|e| io_fault("page read", &e))?;
        Ok(crate::wal::fnv1a64(&buf) == self.read_sum(id)?)
    }

    fn corrupt_page_byte(&self, id: u64, offset: usize, mask: u8) -> StorageResult<()> {
        assert!(offset < PAGE_SIZE, "corrupt offset out of page bounds");
        assert!(mask != 0, "a zero mask corrupts nothing");
        self.check_bounds(id)?;
        let pos = id * PAGE_SIZE as u64 + offset as u64;
        let mut byte = [0u8; 1];
        self.pages
            .read_exact_at(&mut byte, pos)
            .map_err(|e| io_fault("page read", &e))?;
        byte[0] ^= mask;
        self.pages
            .write_all_at(&byte, pos)
            .map_err(|e| io_fault("page write", &e))
    }

    fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
        }
    }

    fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

/// File-backed [`LogDevice`]: an append-only `wal.log` file, `fsync`ed at
/// every durability point; checkpoint compaction replaces it atomically
/// via tmp + rename + directory fsync, so a crash in the gap leaves
/// either the old or the new log.
pub struct FileWal {
    dir: PathBuf,
    file: Mutex<File>,
    len: AtomicU64,
    metrics: DeviceMetrics,
}

impl FileWal {
    /// Name of the log file inside a data directory.
    pub const LOG_FILE: &'static str = "wal.log";

    /// Opens (or creates) the log file inside `dir`.
    pub fn open(dir: &Path, metrics: DeviceMetrics) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(Self::LOG_FILE))
            .map_err(|e| io_fault("log open", &e))?;
        let len = file.metadata().map_err(|e| io_fault("log stat", &e))?.len();
        Ok(FileWal {
            dir: dir.to_path_buf(),
            file: Mutex::new(file),
            len: AtomicU64::new(len),
            metrics,
        })
    }
}

impl LogDevice for FileWal {
    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        let file = self.file.lock();
        let len = self.len.load(Ordering::Acquire) as usize;
        let mut buf = vec![0u8; len];
        file.read_exact_at(&mut buf, 0)
            .map_err(|e| io_fault("log read", &e))?;
        Ok(buf)
    }

    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        let file = self.file.lock();
        let at = self.len.load(Ordering::Acquire);
        file.write_all_at(bytes, at)
            .map_err(|e| io_fault("log append", &e))?;
        self.len.store(at + bytes.len() as u64, Ordering::Release);
        Ok(())
    }

    fn sync(&self) -> StorageResult<()> {
        self.file
            .lock()
            .sync_all()
            .map_err(|e| io_fault("log fsync", &e))?;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        let file = self.file.lock();
        if len < self.len.load(Ordering::Acquire) {
            file.set_len(len)
                .map_err(|e| io_fault("log truncate", &e))?;
            file.sync_all().map_err(|e| io_fault("log fsync", &e))?;
            self.metrics.fsyncs.inc();
            self.len.store(len, Ordering::Release);
        }
        Ok(())
    }

    fn replace(&self, contents: &[u8]) -> StorageResult<()> {
        let mut file = self.file.lock();
        let path = self.dir.join(Self::LOG_FILE);
        atomic_replace(&path, contents).map_err(|e| io_fault("log replace", &e))?;
        // Two fsyncs inside atomic_replace: the tmp file and the directory.
        self.metrics.fsyncs.add(2);
        // The old inode is still open in `file`; swap to the new one.
        *file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_fault("log reopen", &e))?;
        self.len.store(contents.len() as u64, Ordering::Release);
        Ok(())
    }

    fn corrupt_byte(&self, offset: u64, mask: u8) -> StorageResult<()> {
        let file = self.file.lock();
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, offset)
            .map_err(|e| io_fault("log read", &e))?;
        byte[0] ^= mask;
        file.write_all_at(&byte, offset)
            .map_err(|e| io_fault("log write", &e))
    }
}

/// The data-directory lock file (`LOCK`, holding the owner's pid).
///
/// Acquisition is `create_new` (atomic on POSIX); an existing lock whose
/// recorded pid is no longer alive (per `/proc`) is *stale* — the residue
/// of a kill-9 — and is broken once. A live holder yields
/// [`StorageError::LockConflict`]. Dropping the guard releases the lock.
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Name of the lock file inside a data directory.
    pub const LOCK_FILE: &'static str = "LOCK";

    /// Acquires the lock for `dir`, breaking a stale one if needed.
    pub fn acquire(dir: &Path) -> StorageResult<Self> {
        let path = dir.join(Self::LOCK_FILE);
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if Path::new(&format!("/proc/{pid}")).exists() => {
                            return Err(StorageError::LockConflict { holder: pid });
                        }
                        // Dead holder (or unreadable residue): break the
                        // stale lock and retry once.
                        _ => {
                            let _ = fs::remove_file(&path);
                        }
                    }
                }
                Err(_) => return Err(StorageError::DeviceIo { op: "lock acquire" }),
            }
        }
        Err(StorageError::DeviceIo { op: "lock acquire" })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Which side of the checkpoint-compaction gap an armed replace fault
/// lands on (see [`FaultyDevice::arm_replace_crash`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaceCrash {
    /// The crash hits before the rename: the *old* log survives intact.
    BeforeRename,
    /// The crash hits after the rename: the *new* log survives intact.
    AfterRename,
}

#[derive(Default)]
struct FaultState {
    /// `(countdown, keep_bytes)`: after `countdown` clean page writes, the
    /// next one persists only `keep_bytes` and errors.
    torn_write: Option<(u64, usize)>,
    /// After `countdown` clean reads, the next one errors short.
    short_read: Option<u64>,
    /// After `countdown` clean ops, every op fails until healed.
    eio: Option<u64>,
    /// Acknowledge syncs without performing them; acknowledged bytes live
    /// in the buffers below until a real sync — or die at `crash()`.
    lying_fsync: bool,
    /// Next `replace` crashes on the armed side of the rename.
    replace_crash: Option<ReplaceCrash>,
    /// Lying-fsync buffer: pages written but never really synced.
    buffered_pages: HashMap<u64, Page>,
    /// Lying-fsync buffer: log bytes appended but never really synced.
    buffered_log: Vec<u8>,
}

/// Snapshot of how many faults a [`FaultyDevice`] has injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Torn page writes injected.
    pub torn_writes: u64,
    /// Short reads injected.
    pub short_reads: u64,
    /// EIO faults injected.
    pub eio: u64,
    /// Replace-gap crashes injected.
    pub replace_crashes: u64,
}

/// A fault-injecting wrapper over any [`BlockDevice`] and/or
/// [`LogDevice`], arming deterministic faults at the device boundary:
///
/// * **torn page writes** — the armed write persists a prefix of the page
///   (sector-granular, checksummed per surviving sector run) and errors;
/// * **short reads** — the armed read returns [`StorageError::ShortRead`];
/// * **EIO** — every operation after a countdown fails with
///   [`StorageError::DeviceIo`] until healed;
/// * **lying fsync** — syncs are acknowledged but not performed; the
///   acknowledged bytes sit in a buffer that [`BlockDevice::crash`] /
///   [`LogDevice::crash`] drops, exactly like a volatile disk cache;
/// * **replace-gap crashes** — the checkpoint-compaction swap dies on a
///   chosen side of its rename, leaving the old or the new log.
///
/// Clones share all state, so a test can hold one handle while the store
/// holds `Arc<dyn BlockDevice>` / `Arc<dyn LogDevice>` clones.
pub struct FaultyDevice<D: ?Sized> {
    inner: Arc<D>,
    state: Arc<Mutex<FaultState>>,
    injected: Arc<Mutex<InjectedFaults>>,
    metrics: DeviceMetrics,
}

impl<D: ?Sized> Clone for FaultyDevice<D> {
    fn clone(&self) -> Self {
        FaultyDevice {
            inner: Arc::clone(&self.inner),
            state: Arc::clone(&self.state),
            injected: Arc::clone(&self.injected),
            metrics: self.metrics.clone(),
        }
    }
}

impl<D> FaultyDevice<D> {
    /// Wraps `inner` with no faults armed.
    pub fn new(inner: D, metrics: DeviceMetrics) -> Self {
        FaultyDevice {
            inner: Arc::new(inner),
            state: Arc::new(Mutex::new(FaultState::default())),
            injected: Arc::new(Mutex::new(InjectedFaults::default())),
            metrics,
        }
    }
}

impl<D: ?Sized> FaultyDevice<D> {
    /// Arms a torn write: after `countdown` clean writes, the next page
    /// write persists only the first `keep_bytes` of the new image (the
    /// rest of the page keeps its old bytes) — or, on a log device, the
    /// next append persists only the first `keep_bytes` of the batch —
    /// and errors. `keep_bytes` is clamped to the size of the torn
    /// operation when it fires.
    pub fn arm_torn_write(&self, countdown: u64, keep_bytes: usize) {
        self.state.lock().torn_write = Some((countdown, keep_bytes));
    }

    /// Arms a short read: after `countdown` clean reads, the next read
    /// fails with [`StorageError::ShortRead`].
    pub fn arm_short_read(&self, countdown: u64) {
        self.state.lock().short_read = Some(countdown);
    }

    /// Arms EIO: after `ops` clean operations, every operation
    /// fails with [`StorageError::DeviceIo`] until [`Self::heal_faults`].
    pub fn arm_eio(&self, ops: u64) {
        self.state.lock().eio = Some(ops);
    }

    /// Turns lying-fsync mode on or off. Turning it *off* flushes the
    /// acknowledged-but-unsynced buffers down to the inner device (they
    /// were only ever lies about durability, not about content).
    /// Returns the buffers so LogDevice/BlockDevice impls can flush them;
    /// use [`Self::set_lying_fsync`] from tests.
    fn set_lying(&self, on: bool) -> (HashMap<u64, Page>, Vec<u8>) {
        let mut st = self.state.lock();
        st.lying_fsync = on;
        if on {
            (HashMap::new(), Vec::new())
        } else {
            (
                std::mem::take(&mut st.buffered_pages),
                std::mem::take(&mut st.buffered_log),
            )
        }
    }

    /// Arms a crash inside the next checkpoint-compaction `replace`, on
    /// the chosen side of the rename.
    pub fn arm_replace_crash(&self, side: ReplaceCrash) {
        self.state.lock().replace_crash = Some(side);
    }

    /// Disarms every armed countdown: torn write, short read, EIO and the
    /// replace-gap crash. Lying-fsync mode is left as it is; only
    /// [`Self::set_lying_fsync`] / [`Self::set_lying_fsync_log`] switch it
    /// and flush its buffers.
    pub fn heal_faults(&self) {
        let mut st = self.state.lock();
        st.torn_write = None;
        st.short_read = None;
        st.eio = None;
        st.replace_crash = None;
    }

    /// How many faults this wrapper has injected so far.
    pub fn injected(&self) -> InjectedFaults {
        *self.injected.lock()
    }

    /// Whether lying-fsync mode currently holds acknowledged-but-unsynced
    /// bytes that a crash would drop.
    pub fn lying_bytes_buffered(&self) -> bool {
        let st = self.state.lock();
        !st.buffered_pages.is_empty() || !st.buffered_log.is_empty()
    }

    fn tick_eio(&self, op: &'static str) -> StorageResult<()> {
        let mut st = self.state.lock();
        match st.eio.as_mut() {
            None => Ok(()),
            Some(0) => {
                drop(st);
                self.injected.lock().eio += 1;
                self.metrics.eio_injected.inc();
                Err(StorageError::DeviceIo { op })
            }
            Some(left) => {
                *left -= 1;
                Ok(())
            }
        }
    }

    /// Returns `Some(keep)` when the current read/write should fire the
    /// armed fault, decrementing the countdown otherwise.
    fn fire_countdown(arm: &mut Option<(u64, usize)>) -> Option<usize> {
        match arm {
            Some((0, keep)) => {
                let keep = *keep;
                *arm = None;
                Some(keep)
            }
            Some((left, _)) => {
                *left -= 1;
                None
            }
            None => None,
        }
    }
}

impl<D: BlockDevice + ?Sized> FaultyDevice<D> {
    /// Turns lying-fsync mode on or off, flushing buffered pages to the
    /// inner device when turning it off.
    pub fn set_lying_fsync(&self, on: bool) -> StorageResult<()> {
        let (pages, _log) = self.set_lying(on);
        for (id, page) in pages {
            self.inner.write(id, &page)?;
        }
        Ok(())
    }
}

impl<D: LogDevice + ?Sized> FaultyDevice<D> {
    /// Turns lying-fsync mode on or off for a log device, flushing
    /// buffered bytes down to the inner device when turning it off.
    pub fn set_lying_fsync_log(&self, on: bool) -> StorageResult<()> {
        let (_pages, log) = self.set_lying(on);
        if !log.is_empty() {
            self.inner.append(&log)?;
        }
        Ok(())
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for FaultyDevice<D> {
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
        self.tick_eio("page read")?;
        {
            let mut st = self.state.lock();
            match &mut st.short_read {
                Some(0) => {
                    st.short_read = None;
                    drop(st);
                    self.injected.lock().short_reads += 1;
                    self.metrics.short_reads_injected.inc();
                    return Err(StorageError::ShortRead { op: "page read" });
                }
                Some(left) => *left -= 1,
                None => {}
            }
            if let Some(page) = st.buffered_pages.get(&id) {
                return Ok(page.clone());
            }
        }
        self.inner.read(id)
    }

    fn write(&self, id: u64, page: &Page) -> StorageResult<()> {
        self.tick_eio("page write")?;
        let (torn, lying) = {
            let mut st = self.state.lock();
            (Self::fire_countdown(&mut st.torn_write), st.lying_fsync)
        };
        if let Some(keep) = torn {
            // Persist a prefix of the new image over the old bytes —
            // what power loss mid-write leaves on sector-checksummed
            // media — then surface the tear.
            let keep = keep.min(PAGE_SIZE);
            let old = self.inner.read(id)?;
            let mut torn_bytes = *old.as_bytes();
            torn_bytes[..keep].copy_from_slice(&page.as_bytes()[..keep]);
            self.inner.write(id, &Page::from_bytes(&torn_bytes))?;
            self.injected.lock().torn_writes += 1;
            self.metrics.torn_writes_injected.inc();
            return Err(StorageError::TornWrite {
                op: "page write",
                kept: keep,
            });
        }
        if lying {
            self.state.lock().buffered_pages.insert(id, page.clone());
            return Ok(());
        }
        self.inner.write(id, page)
    }

    fn sync(&self) -> StorageResult<()> {
        self.tick_eio("page sync")?;
        let (lying, pages) = {
            let mut st = self.state.lock();
            if st.lying_fsync {
                (true, HashMap::new())
            } else {
                (false, std::mem::take(&mut st.buffered_pages))
            }
        };
        if lying {
            // The lie: acknowledge without flushing anything.
            return Ok(());
        }
        for (id, page) in pages {
            self.inner.write(id, &page)?;
        }
        self.inner.sync()
    }

    fn verify_page(&self, id: u64) -> StorageResult<bool> {
        if self.state.lock().buffered_pages.contains_key(&id) {
            return Ok(true);
        }
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

    fn crash(&self) {
        // The volatile cache dies: acknowledged-but-unsynced pages are
        // gone for good.
        self.state.lock().buffered_pages.clear();
        self.inner.crash()
    }
}

impl<D: LogDevice + ?Sized> LogDevice for FaultyDevice<D> {
    fn len(&self) -> u64 {
        self.inner.len() + self.state.lock().buffered_log.len() as u64
    }

    fn read_all(&self) -> StorageResult<Vec<u8>> {
        let mut all = self.inner.read_all()?;
        all.extend_from_slice(&self.state.lock().buffered_log);
        Ok(all)
    }

    fn append(&self, bytes: &[u8]) -> StorageResult<()> {
        self.tick_eio("log append")?;
        let torn = {
            let mut st = self.state.lock();
            if st.lying_fsync {
                st.buffered_log.extend_from_slice(bytes);
                return Ok(());
            }
            Self::fire_countdown(&mut st.torn_write)
        };
        if let Some(keep) = torn {
            // The append dies mid-pwrite: a prefix of the batch reaches
            // the media, the rest never does. The recovery scan is
            // responsible for truncating this tail at a record boundary.
            let keep = keep.min(bytes.len());
            self.inner.append(&bytes[..keep])?;
            self.injected.lock().torn_writes += 1;
            self.metrics.torn_writes_injected.inc();
            return Err(StorageError::TornWrite {
                op: "log append",
                kept: keep,
            });
        }
        self.inner.append(bytes)
    }

    fn sync(&self) -> StorageResult<()> {
        self.tick_eio("log sync")?;
        let (lying, buffered) = {
            let mut st = self.state.lock();
            if st.lying_fsync {
                (true, Vec::new())
            } else {
                (false, std::mem::take(&mut st.buffered_log))
            }
        };
        if lying {
            return Ok(());
        }
        if !buffered.is_empty() {
            self.inner.append(&buffered)?;
        }
        self.inner.sync()
    }

    fn truncate(&self, len: u64) -> StorageResult<()> {
        let inner_len = self.inner.len();
        let mut st = self.state.lock();
        if len >= inner_len {
            st.buffered_log.truncate((len - inner_len) as usize);
            return Ok(());
        }
        st.buffered_log.clear();
        drop(st);
        self.inner.truncate(len)
    }

    fn replace(&self, contents: &[u8]) -> StorageResult<()> {
        self.tick_eio("log replace")?;
        let crash = self.state.lock().replace_crash.take();
        match crash {
            Some(ReplaceCrash::BeforeRename) => {
                // The tmp file was written but the rename never happened:
                // the old log is what a reopen finds.
                self.injected.lock().replace_crashes += 1;
                Err(StorageError::InjectedFault {
                    op: "log replace (before rename)",
                })
            }
            Some(ReplaceCrash::AfterRename) => {
                // The rename landed, then the process died: the new log
                // is what a reopen finds.
                self.state.lock().buffered_log.clear();
                self.inner.replace(contents)?;
                self.injected.lock().replace_crashes += 1;
                Err(StorageError::InjectedFault {
                    op: "log replace (after rename)",
                })
            }
            None => {
                self.state.lock().buffered_log.clear();
                self.inner.replace(contents)
            }
        }
    }

    fn corrupt_byte(&self, offset: u64, mask: u8) -> StorageResult<()> {
        let inner_len = self.inner.len();
        if offset >= inner_len {
            let mut st = self.state.lock();
            let idx = (offset - inner_len) as usize;
            let byte = st
                .buffered_log
                .get_mut(idx)
                .ok_or(StorageError::ShortRead { op: "log corrupt" })?;
            *byte ^= mask;
            return Ok(());
        }
        self.inner.corrupt_byte(offset, mask)
    }

    fn crash(&self) {
        self.state.lock().buffered_log.clear();
        self.inner.crash()
    }
}
