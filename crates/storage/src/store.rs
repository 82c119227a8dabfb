//! Record-level object store with clustering hints and overflow chains.
//!
//! ORION's `make` message accepts a `:parent` clause that doubles as a
//! clustering directive: "the newly created object is clustered with the
//! first specified parent … if the classes of the two objects are stored in
//! the same physical segment" (paper §2.3). [`ObjectStore::insert`] exposes
//! exactly that contract through its `near` hint.
//!
//! Records are addressed by [`PhysId`] — `(segment, page, slot)`. Updates
//! that outgrow their page relocate the record and return the new address;
//! the object table in `corion-core` owns the OID → `PhysId` mapping, so
//! relocation never invalidates an OID (OIDs are logical, per §2.1).
//!
//! ## Large objects
//!
//! An object whose reverse-reference list or set-valued attributes outgrow
//! one page (composite objects with hundreds of components do) is split
//! transparently into an **overflow chain**: a head record followed by
//! continuation chunks, each placed near its predecessor so a chained read
//! stays clustered. Callers never see chunks — `read` reassembles, `delete`
//! frees the chain, `scan` skips continuations.
//!
//! ## Atomic batches and recovery
//!
//! Every mutation runs inside an **atomic batch**: either the one a caller
//! opened with [`ObjectStore::begin_atomic`] (grouping multi-record updates
//! such as the paper's cascading delete), or an implicit per-call batch.
//! Page writes are routed through the [`crate::wal`] — the pool runs
//! *no-steal* while a batch is open, so the disk never sees uncommitted
//! bytes, and [`ObjectStore::commit_atomic`] logs every dirty page's
//! after-image plus a commit marker and stops there (*no-force*): the
//! synced log alone makes the commit durable, and the pages themselves
//! reach the disk later, when [`ObjectStore::checkpoint`] flushes or the
//! pool evicts a frame. [`ObjectStore::recover`] rebuilds a consistent
//! store from the durable half of the crash model: the disk's pages and
//! the flushed log. Crashes are injected deterministically at the named
//! [`CRASH_POINTS`], and device faults by wrapping either device in a
//! [`FaultyDevice`](crate::device::FaultyDevice).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use corion_obs::Registry;

use crate::buffer::{BufferPool, BufferStats};
use crate::codec::{self, Reader};
use crate::device::{BlockDevice, DirLock, LogDevice, MemLog};
use crate::disk::{DiskStats, SimDisk};
use crate::error::{StorageError, StorageResult};
use crate::fault::CrashPoints;
use crate::metrics::StoreMetrics;
use crate::page::{Page, SlotId, MAX_RECORD, PAGE_SIZE};
use crate::segment::{Segment, SegmentId};
use crate::wal::{self, replay, Lsn, Wal, WalMark, WalRecord, WalStats};

/// Physical address of a stored record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysId {
    /// Segment the record lives in.
    pub segment: SegmentId,
    /// Page within the disk.
    pub page: u64,
    /// Slot within the page.
    pub slot: SlotId,
}

impl std::fmt::Display for PhysId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.segment, self.page, self.slot)
    }
}

/// Tuning knobs for the store.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Frames in the buffer pool.
    pub buffer_capacity: usize,
    /// Durable WAL size that triggers an automatic checkpoint after a
    /// commit. Commits do not write pages, so the log is the only durable
    /// copy of every page committed since the last checkpoint (one image
    /// at first touch, deltas after); the checkpoint writes those pages
    /// back and truncates it, bounding the log, the replay, and the pool's
    /// dirty set.
    pub wal_checkpoint_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        // Buffer: large enough that unit tests never thrash, small enough
        // that the clustering bench can observe cold-cache behaviour by
        // shrinking it. Checkpoint: 1 MiB of log between truncations.
        StoreConfig {
            buffer_capacity: 256,
            wal_checkpoint_bytes: 1 << 20,
        }
    }
}

/// Health of the store — the three-state replacement for the old
/// all-or-nothing poison flag.
///
/// ```text
/// Healthy ──(fault after the durability point /
///           checkpoint write-back or page-sync fault)──▶ Degraded
/// Healthy │ Degraded ──(simulated crash / log-device tear or EIO)──▶ Poisoned
/// Degraded │ Poisoned ──(recover)──▶ Healthy
/// ```
///
/// *Degraded* means the commit protocol or a checkpoint faulted with the
/// log ahead of the disk: reads keep answering — the buffer pool holds
/// the last committed image of every page the disk lacks, pinned — while
/// mutations fail fast with [`StorageError::ReadOnly`]. *Poisoned* means
/// the volatile state is gone or cannot be trusted (a crash, or a log
/// device that failed at the durability point): nothing is trustworthy
/// until [`ObjectStore::recover`] rebuilds from durable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Fully operational: reads and writes accepted.
    Healthy,
    /// Read-only: reads are served from a consistent in-memory view,
    /// mutations are rejected until recovery.
    Degraded,
    /// Unusable: every operation reports
    /// [`StorageError::NeedsRecovery`] until recovery.
    Poisoned,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Poisoned => "poisoned",
        })
    }
}

/// What a [`ObjectStore::scrub`] pass found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages whose checksum was verified.
    pub pages_checked: usize,
    /// Pages whose contents no longer matched their checksum.
    pub pages_corrupt: usize,
    /// Corrupt pages restored from a committed WAL after-image.
    pub pages_salvaged: usize,
    /// Corrupt pages with no salvageable image, reset to empty (their
    /// records are lost; run `Database::repair` to mend the object graph).
    pub pages_reset: usize,
}

/// Crash point: before each frame mutation inside a batch — a change to
/// the buffer pool, not a device write (nothing is written until the
/// commit's log flush).
pub const CP_PAGE_WRITE: &str = "wal:page_write";
/// Crash point: while assembling the commit's log records, before
/// anything is written.
pub const CP_COMMIT_LOG: &str = "commit:log";
/// Crash point: after the batch is durable, before it is closed. Firing
/// degrades the store; the commit still answers `Ok`.
pub const CP_COMMIT_DONE: &str = "commit:done";

/// Every named crash point a commit passes, in order — what the
/// crash-matrix test sweeps. Each is an instant with no device under it;
/// faults at the log flush or a checkpoint write-back are device faults,
/// injected through [`FaultyDevice`](crate::device::FaultyDevice).
pub const CRASH_POINTS: &[&str] = &[CP_PAGE_WRITE, CP_COMMIT_LOG, CP_COMMIT_DONE];

/// What [`ObjectStore::recover`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed batches replayed from the log.
    pub batches_replayed: usize,
    /// Distinct pages whose committed images were written back.
    pub pages_restored: usize,
    /// Records discarded from the uncommitted/torn tail.
    pub records_discarded: usize,
    /// True when the tail was torn or corrupt (not merely uncommitted).
    pub torn_tail: bool,
    /// Highest committed object-serial high-water mark found in the log
    /// (see [`ObjectStore::note_serial_floor`]); zero when none was ever
    /// logged. The engine raises its serial counter to at least this.
    pub serial_floor: u64,
}

/// Book-keeping for one open atomic batch.
struct BatchState {
    /// Pages dirtied by the batch (their after-images are logged at commit).
    dirty: BTreeSet<u64>,
    /// Segments created inside the batch (removed again on abort).
    created: Vec<SegmentId>,
    /// Pages adopted into segments inside the batch (dropped on abort).
    adopted: Vec<(SegmentId, u64)>,
    /// Log position at `begin_atomic`. Abort rewinds the pending region to
    /// here — erasing the batch's mid-batch segment records — and reuses
    /// the erased LSNs so the durable sequence never gaps.
    wal_mark: WalMark,
    /// The schema image the batch logged; adopted when it commits.
    schema: Option<Vec<u8>>,
}

/// Record tags (first byte of every stored record).
const TAG_INLINE: u8 = 0;
const TAG_HEAD: u8 = 1;
const TAG_CHUNK: u8 = 2;

/// Encoded size of a chain pointer: tag(present) handled separately;
/// segment u32 + page u64 + slot u16.
const PTR_BYTES: usize = 4 + 8 + 2;
/// Head record overhead: tag + total_len u64 + next pointer.
const HEAD_OVERHEAD: usize = 1 + 8 + PTR_BYTES;
/// Continuation chunk overhead: tag + has_next u8 + next pointer.
const CHUNK_OVERHEAD: usize = 1 + 1 + PTR_BYTES;

/// Payload bytes an inline record can carry.
pub const MAX_INLINE: usize = MAX_RECORD - 1;

fn put_ptr(buf: &mut Vec<u8>, id: PhysId) {
    codec::put_u32(buf, id.segment.0);
    codec::put_u64(buf, id.page);
    codec::put_u16(buf, id.slot);
}

fn get_ptr(r: &mut Reader<'_>) -> StorageResult<PhysId> {
    Ok(PhysId {
        segment: SegmentId(r.u32("chain segment")?),
        page: r.u64("chain page")?,
        slot: r.u16("chain slot")?,
    })
}

/// A segmented, buffered record store.
pub struct ObjectStore {
    pool: BufferPool,
    segments: HashMap<SegmentId, Segment>,
    next_segment: u32,
    wal: Wal,
    crash: CrashPoints,
    batch: Option<BatchState>,
    /// Current health (see [`HealthState`]).
    health: HealthState,
    wal_checkpoint_bytes: usize,
    /// The last image logged for each page *in the current log* — the last
    /// committed image of every page the disk may be behind on. It is the
    /// delta base for the page's next record and what an abort rewinds the
    /// frame to. Entries die with the log — cleared at checkpoint (which
    /// has just written every one of them back), recovery, and crash — so
    /// a delta record always has a committed base on scan, and a page
    /// without an entry is current on disk.
    last_logged: HashMap<u64, Page>,
    /// Commit-marker LSN of the last batch whose log records were synced —
    /// see [`ObjectStore::durable_commit_lsn`].
    durable_commit_lsn: Lsn,
    /// Highest object-serial high-water mark noted by the engine above
    /// (see [`WalRecord::SerialFloor`]); carried into checkpoint
    /// truncations and restored by recovery so serials are never reused.
    serial_floor: u64,
    /// The last committed schema image (see [`ObjectStore::log_schema`]);
    /// carried into checkpoint truncations and restored by recovery.
    schema: Option<Vec<u8>>,
    metrics: StoreMetrics,
    /// Held for a directory-backed store: releasing it (on drop) lets
    /// another process open the same data directory.
    _lock: Option<DirLock>,
}

impl Default for ObjectStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl ObjectStore {
    /// Creates a store over a fresh simulated disk, recording metrics
    /// into a private [`Registry`]. Embedders that want the storage
    /// counters in a shared registry (as `Database` does) use
    /// [`ObjectStore::with_registry`].
    pub fn new(config: StoreConfig) -> Self {
        Self::with_registry(config, &Registry::new())
    }

    /// Creates a store over a fresh [`SimDisk`] and [`MemLog`] whose
    /// metrics are interned in `registry`, so one snapshot covers this
    /// store alongside the layers above it. Both devices are empty, so the
    /// store starts healthy with a stamped log and nothing to recover.
    pub fn with_registry(config: StoreConfig, registry: &Registry) -> Self {
        let mut store = Self::with_devices(
            config,
            registry,
            Arc::new(SimDisk::new()),
            Arc::new(MemLog::new()),
            None,
        );
        store.wal.stamp().expect("a MemLog accepts its header");
        store.set_health(HealthState::Healthy);
        store
    }

    /// Creates a store over caller-supplied devices — the seam through
    /// which real files (or fault-wrapped anything) replace the simulated
    /// disk and in-memory log. Reads nothing, and comes up **poisoned**:
    /// the devices may hold a previous life's state, so the caller must
    /// run [`ObjectStore::recover`] before using it. `lock` is held for the
    /// store's lifetime when given.
    pub fn with_devices(
        config: StoreConfig,
        registry: &Registry,
        disk: Arc<dyn BlockDevice>,
        log: Arc<dyn LogDevice>,
        lock: Option<DirLock>,
    ) -> Self {
        let mut store = ObjectStore {
            pool: BufferPool::with_registry(disk, config.buffer_capacity, registry),
            segments: HashMap::new(),
            next_segment: 0,
            wal: Wal::with_device(log),
            crash: CrashPoints::new(),
            batch: None,
            health: HealthState::Poisoned,
            wal_checkpoint_bytes: config.wal_checkpoint_bytes,
            last_logged: HashMap::new(),
            durable_commit_lsn: 0,
            serial_floor: 0,
            schema: None,
            metrics: StoreMetrics::new(registry),
            _lock: lock,
        };
        store.set_health(HealthState::Poisoned);
        store
    }

    /// Current health of the store.
    pub fn health(&self) -> HealthState {
        self.health
    }

    fn set_health(&mut self, health: HealthState) {
        self.health = health;
        self.metrics.health.set(match health {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Poisoned => 2,
        });
    }

    /// Appends one record to the WAL, counting records and encoded bytes;
    /// returns the record's LSN.
    fn log_append(&mut self, record: &WalRecord) -> Lsn {
        let before = self.wal.stats().pending_bytes;
        let lsn = self.wal.append(record);
        let appended = self.wal.stats().pending_bytes.saturating_sub(before);
        self.metrics.wal_append_records.inc();
        self.metrics.wal_append_bytes.add(appended as u64);
        lsn
    }

    /// Logs the after-image of `page`, choosing the cheapest faithful
    /// record: nothing when the image is byte-identical to the delta base,
    /// a [`WalRecord::PageImage`] (its non-zero runs) when there is no base
    /// or the image encodes strictly smaller than the delta, a
    /// [`WalRecord::PageDelta`] (the records that moved, then the runs
    /// against the base with them moved) otherwise. The base map is *not*
    /// updated here — only a successful flush does that, because an
    /// unflushed record never becomes a committed base.
    fn log_page_record(&mut self, page: u64, image: &Page) {
        let record = match self.last_logged.get(&page) {
            Some(base) if base == image => {
                self.metrics.wal_dedup_skips.inc();
                return;
            }
            Some(base) => {
                let (moves, ranges) = wal::page_delta(base, image);
                let delta_len = wal::delta_len(&moves, &ranges);
                // An image carries every non-zero byte of the page: a delta
                // no larger than their count needs no image to compare with.
                let smaller_image = (delta_len > wal::non_zero_bytes(image))
                    .then(|| wal::image_ranges(image))
                    .filter(|ranges| ranges.encoded_len() < delta_len);
                match smaller_image {
                    Some(ranges) => WalRecord::PageImage { page, ranges },
                    None => {
                        self.metrics.wal_delta_records.inc();
                        self.metrics
                            .wal_delta_bytes_saved
                            .add(PAGE_SIZE.saturating_sub(delta_len) as u64);
                        WalRecord::PageDelta {
                            page,
                            moves,
                            ranges,
                        }
                    }
                }
            }
            None => WalRecord::PageImage {
                page,
                ranges: wal::image_ranges(image),
            },
        };
        self.log_append(&record);
    }

    /// Notes that the engine's object-serial counter reached `serial`,
    /// appending a [`WalRecord::SerialFloor`] so the mark becomes durable
    /// with the batch that consumed the serial. Recovery — including a
    /// reopen of the backing files in a new process — then restores the
    /// counter to at least this value, so the serial of a deleted object
    /// (invisible to any live scan) is never issued twice. Monotonic:
    /// stale or repeated values are ignored.
    pub fn note_serial_floor(&mut self, serial: u64) {
        if serial > self.serial_floor {
            self.serial_floor = serial;
            self.log_append(&WalRecord::SerialFloor { serial });
        }
    }

    /// Lowest safe value for the engine's object-serial counter, as
    /// recovered from the log (see [`ObjectStore::note_serial_floor`]).
    pub fn serial_floor(&self) -> u64 {
        self.serial_floor
    }

    /// Logs `image`, the engine's schema, in the open batch. It becomes
    /// [`ObjectStore::schema`] when the batch commits; an aborted batch
    /// leaves the previous one in place.
    pub fn log_schema(&mut self, image: Vec<u8>) -> StorageResult<()> {
        let batch = self.batch.as_mut().ok_or(StorageError::NoBatchOpen)?;
        batch.schema = Some(image.clone());
        self.log_append(&WalRecord::Schema { image });
        Ok(())
    }

    /// The last committed schema image: logged by a batch, re-asserted by
    /// every checkpoint, recovered from the log. `None` until one commits.
    pub fn schema(&self) -> Option<&[u8]> {
        self.schema.as_deref()
    }

    /// Creates a new, empty segment (a logged, atomic operation: segment
    /// directories are rebuilt from the log on recovery).
    pub fn create_segment(&mut self) -> StorageResult<SegmentId> {
        self.autocommit(|st| {
            let id = SegmentId(st.next_segment);
            st.next_segment += 1;
            st.segments.insert(id, Segment::new(id));
            st.log_append(&WalRecord::SegCreate { segment: id });
            st.batch
                .as_mut()
                .expect("autocommit keeps a batch open")
                .created
                .push(id);
            Ok(id)
        })
    }

    fn segment(&self, id: SegmentId) -> StorageResult<&Segment> {
        self.segments
            .get(&id)
            .ok_or(StorageError::InvalidSegment { segment: id.0 })
    }

    /// The write path: every page mutation goes through here so the open
    /// batch learns which after-images to log at commit. Requires an open
    /// batch — public mutators guarantee one via [`ObjectStore::autocommit`].
    fn page_mut<R>(&mut self, page: u64, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        if self.batch.is_none() {
            return Err(StorageError::NoBatchOpen);
        }
        self.crash.hit(CP_PAGE_WRITE)?;
        let out = self.pool.with_page_mut(page, f)?;
        self.batch
            .as_mut()
            .expect("batch checked above")
            .dirty
            .insert(page);
        Ok(out)
    }

    /// Runs `f` inside the open batch, or inside a fresh single-call batch
    /// that commits on success and aborts on error. This is what makes
    /// every public mutation atomic by default while letting multi-call
    /// batches (`begin_atomic` … `commit_atomic`) group freely.
    fn autocommit<R>(&mut self, f: impl FnOnce(&mut Self) -> StorageResult<R>) -> StorageResult<R> {
        if self.batch.is_some() {
            return f(self);
        }
        self.begin_atomic()?;
        match f(self) {
            Ok(v) => {
                self.commit_atomic()?;
                Ok(v)
            }
            Err(e) => {
                self.abort_open_batch();
                Err(e)
            }
        }
    }

    /// Places one raw (already tagged) record in `segment`, preferring the
    /// pages around `near`.
    fn place(
        &mut self,
        segment: SegmentId,
        record: &[u8],
        near: Option<PhysId>,
    ) -> StorageResult<PhysId> {
        let near_page = near.filter(|n| n.segment == segment).map(|n| n.page);
        // Clustering first: the hint page and its neighbours. Then the
        // free-space tree, one best-fit candidate at a time — never a scan
        // of the whole segment. `tried` records pages whose hints proved
        // stale (free space that a slotted-page insert cannot actually
        // use), so the fit query cannot return them again.
        let mut tried: Vec<u64> = Vec::new();
        let near_candidates = match near_page {
            Some(p) => self.segment(segment)?.near_candidates(p, record.len()),
            None => Vec::new(),
        };
        for page in near_candidates {
            if let Some(id) = self.try_place_on(segment, page, record)? {
                return Ok(id);
            }
            tried.push(page);
        }
        while let Some(page) = self.segment(segment)?.find_fit(record.len(), &tried) {
            if let Some(id) = self.try_place_on(segment, page, record)? {
                return Ok(id);
            }
            tried.push(page);
        }
        // No existing page fits: grow the segment. The adoption is logged
        // so recovery can rebuild the segment directory, and remembered in
        // the batch so an abort can take it back.
        let page = self.pool.allocate()?;
        self.segments
            .get_mut(&segment)
            .ok_or(StorageError::InvalidSegment { segment: segment.0 })?
            .adopt_page(page);
        self.log_append(&WalRecord::SegAdopt { segment, page });
        if let Some(batch) = self.batch.as_mut() {
            batch.adopted.push((segment, page));
        }
        let (slot, free) = self.page_mut(page, |p| (p.insert(record), p.free_space()))?;
        let slot = slot?;
        self.segments
            .get_mut(&segment)
            .expect("segment checked above")
            .set_free_hint(page, free);
        Ok(PhysId {
            segment,
            page,
            slot,
        })
    }

    /// Attempts to insert `record` on `page`. On success returns the new
    /// address; on a full page records the authoritative free space in the
    /// segment's hint map and returns `None`.
    fn try_place_on(
        &mut self,
        segment: SegmentId,
        page: u64,
        record: &[u8],
    ) -> StorageResult<Option<PhysId>> {
        let inserted = self.page_mut(page, |p| {
            if p.fits(record.len()) {
                Some((p.insert(record), p.free_space()))
            } else {
                None
            }
        })?;
        if let Some((slot, free)) = inserted {
            let slot = slot?;
            self.segments
                .get_mut(&segment)
                .expect("segment checked above")
                .set_free_hint(page, free);
            return Ok(Some(PhysId {
                segment,
                page,
                slot,
            }));
        }
        // The hint was stale; record the truth so the fit query improves.
        let free = self.pool.with_page(page, |p| p.free_space())?;
        self.segments
            .get_mut(&segment)
            .expect("segment checked above")
            .set_free_hint(page, free);
        Ok(None)
    }

    /// Inserts `record` into `segment`.
    ///
    /// If `near` names a record in the same segment, placement tries that
    /// record's page first, then its neighbours — the paper's clustering
    /// rule. A `near` hint in a *different* segment is ignored, exactly as
    /// ORION ignores cross-segment clustering requests. Records larger than
    /// a page are chained transparently.
    pub fn insert(
        &mut self,
        segment: SegmentId,
        record: &[u8],
        near: Option<PhysId>,
    ) -> StorageResult<PhysId> {
        self.autocommit(|st| st.insert_inner(segment, record, near))
    }

    fn insert_inner(
        &mut self,
        segment: SegmentId,
        record: &[u8],
        near: Option<PhysId>,
    ) -> StorageResult<PhysId> {
        self.segment(segment)?;
        if record.len() <= MAX_INLINE {
            let mut tagged = Vec::with_capacity(record.len() + 1);
            tagged.push(TAG_INLINE);
            tagged.extend_from_slice(record);
            return self.place(segment, &tagged, near);
        }
        // Overflow: head carries the first chunk, continuations the rest.
        // Continuations are written back-to-front so each knows its next.
        let head_payload = MAX_RECORD - HEAD_OVERHEAD;
        let chunk_payload = MAX_RECORD - CHUNK_OVERHEAD;
        let rest = &record[head_payload..];
        let mut chunks: Vec<&[u8]> = rest.chunks(chunk_payload).collect();
        let mut next: Option<PhysId> = None;
        while let Some(chunk) = chunks.pop() {
            let mut buf = Vec::with_capacity(chunk.len() + CHUNK_OVERHEAD);
            buf.push(TAG_CHUNK);
            match next {
                Some(ptr) => {
                    buf.push(1);
                    put_ptr(&mut buf, ptr);
                }
                None => {
                    buf.push(0);
                    put_ptr(
                        &mut buf,
                        PhysId {
                            segment,
                            page: 0,
                            slot: 0,
                        },
                    );
                }
            }
            buf.extend_from_slice(chunk);
            // Chain chunks cluster near their successor (and ultimately the
            // caller's hint).
            next = Some(self.place(segment, &buf, next.or(near))?);
        }
        let mut head = Vec::with_capacity(head_payload + HEAD_OVERHEAD);
        head.push(TAG_HEAD);
        codec::put_u64(&mut head, record.len() as u64);
        put_ptr(
            &mut head,
            next.expect("oversized record has at least one chunk"),
        );
        head.extend_from_slice(&record[..head_payload]);
        self.place(segment, &head, near)
    }

    fn read_raw(&self, id: PhysId) -> StorageResult<Vec<u8>> {
        if self.health == HealthState::Poisoned {
            return Err(StorageError::NeedsRecovery);
        }
        self.segment(id.segment)?;
        let out = self
            .pool
            .with_page(id.page, |p| p.read(id.slot).map(|b| b.to_vec()))?;
        out.map_err(|e| match e {
            // A bounds-violating slot entry is bit rot, not a dangling
            // address — let the caller (and `scrub`) see the difference.
            StorageError::Corrupt { .. } => e,
            _ => StorageError::DanglingPhysId {
                segment: id.segment.0,
                page: id.page,
                slot: id.slot,
            },
        })
    }

    /// Reads the record at `id`, reassembling overflow chains.
    ///
    /// Takes `&self`: reads only touch the (internally synchronised) buffer
    /// pool, so any number of threads may read concurrently.
    pub fn read(&self, id: PhysId) -> StorageResult<Vec<u8>> {
        let raw = self.read_raw(id)?;
        let mut r = Reader::new(&raw);
        match r.u8("record tag")? {
            TAG_INLINE => Ok(raw[1..].to_vec()),
            TAG_HEAD => {
                let total = r.u64("chain total length")? as usize;
                let mut next = Some(get_ptr(&mut r)?);
                let mut out = Vec::with_capacity(total);
                out.extend_from_slice(&raw[HEAD_OVERHEAD..]);
                while let Some(ptr) = next {
                    let chunk = self.read_raw(ptr)?;
                    let mut cr = Reader::new(&chunk);
                    if cr.u8("chunk tag")? != TAG_CHUNK {
                        return Err(StorageError::Corrupt {
                            context: "overflow chain",
                        });
                    }
                    let has_next = cr.u8("chunk has_next")? != 0;
                    let np = get_ptr(&mut cr)?;
                    next = has_next.then_some(np);
                    out.extend_from_slice(&chunk[CHUNK_OVERHEAD..]);
                }
                if out.len() != total {
                    return Err(StorageError::Corrupt {
                        context: "overflow chain length",
                    });
                }
                Ok(out)
            }
            // Continuation chunks are not addressable records.
            _ => Err(StorageError::DanglingPhysId {
                segment: id.segment.0,
                page: id.page,
                slot: id.slot,
            }),
        }
    }

    /// Deletes the continuation chunks hanging off a head record and
    /// returns the record they held, reassembled.
    fn free_chain(&mut self, head_raw: &[u8]) -> StorageResult<Vec<u8>> {
        let mut r = Reader::new(head_raw);
        let _ = r.u8("record tag")?;
        let _ = r.u64("chain total length")?;
        let mut next = Some(get_ptr(&mut r)?);
        let mut record = head_raw[HEAD_OVERHEAD..].to_vec();
        while let Some(ptr) = next {
            let chunk = self.read_raw(ptr)?;
            let mut cr = Reader::new(&chunk);
            let _ = cr.u8("chunk tag")?;
            let has_next = cr.u8("chunk has_next")? != 0;
            let np = get_ptr(&mut cr)?;
            next = has_next.then_some(np);
            record.extend_from_slice(&chunk[CHUNK_OVERHEAD..]);
            self.delete_slot(ptr)?;
        }
        Ok(record)
    }

    fn delete_slot(&mut self, id: PhysId) -> StorageResult<()> {
        self.segment(id.segment)?;
        let (res, free) = self.page_mut(id.page, |p| (p.delete(id.slot), p.free_space()))?;
        res.map_err(|_| StorageError::DanglingPhysId {
            segment: id.segment.0,
            page: id.page,
            slot: id.slot,
        })?;
        if let Some(seg) = self.segments.get_mut(&id.segment) {
            seg.set_free_hint(id.page, free);
        }
        Ok(())
    }

    /// Updates the record at `id`, returning its (possibly new) address
    /// and the record it displaced (read here anyway, to place the new one).
    ///
    /// Inline records that still fit stay in place; everything else is
    /// re-inserted with a `near` hint at the old location, so a relocated
    /// record stays clustered with its old neighbourhood.
    pub fn update(&mut self, id: PhysId, record: &[u8]) -> StorageResult<(PhysId, Vec<u8>)> {
        self.autocommit(|st| st.update_inner(id, record))
    }

    fn update_inner(&mut self, id: PhysId, record: &[u8]) -> StorageResult<(PhysId, Vec<u8>)> {
        let raw = self.read_raw(id)?;
        let tag = *raw.first().ok_or(StorageError::Corrupt {
            context: "empty record",
        })?;
        if tag == TAG_CHUNK {
            return Err(StorageError::DanglingPhysId {
                segment: id.segment.0,
                page: id.page,
                slot: id.slot,
            });
        }
        // A chained old record loses its chunks here; it is re-inserted below.
        let displaced = match tag {
            TAG_HEAD => self.free_chain(&raw)?,
            _ => raw[1..].to_vec(),
        };
        if tag == TAG_INLINE && record.len() <= MAX_INLINE {
            let mut tagged = Vec::with_capacity(record.len() + 1);
            tagged.push(TAG_INLINE);
            tagged.extend_from_slice(record);
            let in_place = self.page_mut(id.page, |p| match p.update(id.slot, &tagged) {
                Ok(()) => Ok(true),
                Err(StorageError::RecordTooLarge { .. }) => Ok(false),
                Err(e) => Err(e),
            })??;
            if in_place {
                let free = self.pool.with_page(id.page, |p| p.free_space())?;
                if let Some(seg) = self.segments.get_mut(&id.segment) {
                    seg.set_free_hint(id.page, free);
                }
                return Ok((id, displaced));
            }
        }
        // Growth past the page, a chained old record, or growth across the
        // inline/chain boundary: free and re-insert.
        self.delete_slot(id)?;
        Ok((self.insert_inner(id.segment, record, Some(id))?, displaced))
    }

    /// Deletes the record at `id` (freeing overflow chains) and returns
    /// the record it held.
    pub fn delete(&mut self, id: PhysId) -> StorageResult<Vec<u8>> {
        self.autocommit(|st| st.delete_inner(id))
    }

    fn delete_inner(&mut self, id: PhysId) -> StorageResult<Vec<u8>> {
        let raw = self.read_raw(id)?;
        let displaced = match raw.first() {
            Some(&TAG_HEAD) => self.free_chain(&raw)?,
            Some(&TAG_INLINE) => raw[1..].to_vec(),
            _ => {
                return Err(StorageError::DanglingPhysId {
                    segment: id.segment.0,
                    page: id.page,
                    slot: id.slot,
                })
            }
        };
        self.delete_slot(id)?;
        Ok(displaced)
    }

    /// Visits every live record on `pages` of `segment` (as
    /// [`ObjectStore::pages_of`] lists them), in the order given and in
    /// slot order within a page, skipping continuation chunks.
    ///
    /// Each frame is locked once. Inline records reach `visit` borrowed
    /// from the frame, under the pool's read latch, so `visit` must not
    /// call back into the store. A chained record, and every record after
    /// it on the same page, goes through [`ObjectStore::read`] once the
    /// frame is released: it is reassembled, and a bad tag fails, exactly
    /// as a point read does. The first error, the store's or `visit`'s,
    /// ends the scan.
    pub fn scan(
        &self,
        segment: SegmentId,
        pages: &[u64],
        mut visit: impl FnMut(PhysId, &[u8]) -> StorageResult<()>,
    ) -> StorageResult<()> {
        if self.health == HealthState::Poisoned {
            return Err(StorageError::NeedsRecovery);
        }
        self.segment(segment)?;
        for &page in pages {
            let at = |slot| PhysId {
                segment,
                page,
                slot,
            };
            let mut later = Vec::new();
            self.pool.with_page(page, |p| {
                for (slot, bytes) in p.iter() {
                    match bytes.first() {
                        Some(&TAG_CHUNK) => {}
                        Some(&TAG_INLINE) if later.is_empty() => visit(at(slot), &bytes[1..])?,
                        _ => later.push(slot),
                    }
                }
                Ok(())
            })??;
            for slot in later {
                visit(at(slot), &self.read(at(slot))?)?;
            }
        }
        Ok(())
    }

    /// Number of pages in `segment`.
    pub fn segment_pages(&self, segment: SegmentId) -> StorageResult<usize> {
        Ok(self.segment(segment)?.page_count())
    }

    /// Cache counters.
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Physical I/O counters.
    pub fn disk_stats(&self) -> DiskStats {
        self.pool.disk_stats()
    }

    /// Resets all counters (not contents).
    pub fn reset_stats(&self) {
        self.pool.reset_stats();
    }

    /// Flushes and drops every cached page, so the next access is cold.
    /// Refused while a batch is open — flushing would write unlogged pages
    /// to disk, violating write-ahead ordering — and when degraded, where a
    /// store writes no pages.
    pub fn clear_cache(&self) -> StorageResult<()> {
        self.ensure_idle()?;
        self.pool.clear_cache()
    }

    // ------------------------------------------------------------------
    // Atomic batches
    // ------------------------------------------------------------------

    /// What everything that writes outside an open batch requires: a
    /// healthy store (a degraded one is read-only, a poisoned one needs
    /// recovery) with no batch open.
    fn ensure_idle(&self) -> StorageResult<()> {
        match self.health {
            HealthState::Poisoned => return Err(StorageError::NeedsRecovery),
            HealthState::Degraded => return Err(StorageError::ReadOnly),
            HealthState::Healthy => {}
        }
        if self.batch.is_some() {
            return Err(StorageError::BatchAlreadyOpen);
        }
        Ok(())
    }

    /// Opens an atomic batch: every mutation until [`commit_atomic`]
    /// (or [`abort_atomic`]) becomes durable as one unit. Batches do not
    /// nest — nested callers simply run inside the open batch.
    ///
    /// [`commit_atomic`]: ObjectStore::commit_atomic
    /// [`abort_atomic`]: ObjectStore::abort_atomic
    pub fn begin_atomic(&mut self) -> StorageResult<()> {
        self.ensure_idle()?;
        self.batch = Some(BatchState {
            dirty: BTreeSet::new(),
            created: Vec::new(),
            adopted: Vec::new(),
            wal_mark: self.wal.mark(),
            schema: None,
        });
        self.pool.set_no_steal(true);
        Ok(())
    }

    /// True while an atomic batch is open.
    pub fn in_atomic_batch(&self) -> bool {
        self.batch.is_some()
    }

    /// Commits the open batch: logs every dirty page's after-image and a
    /// commit marker and flushes the log — the durability point, and the
    /// end of the commit. The pages stay dirty in the pool; a checkpoint or
    /// an eviction writes them back later, and until then the log holds
    /// what recovery needs to rebuild them.
    ///
    /// The answer is exact. `Ok` means the batch is durable. `Err` on a
    /// store still [`HealthState::Healthy`] means the batch was rolled back
    /// in memory and the store serves its pre-batch state. The one answer
    /// left in doubt is a failure *at* the durability point — the log
    /// device tore or failed the append or the sync, which poisons the
    /// store — and there [`ObjectStore::recover`] decides. Past the
    /// durability point nothing is the commit's error: a fault there, or
    /// in the auto-checkpoint, degrades (or poisons) the store and the
    /// commit still answers `Ok`; the next operation is the one that hears
    /// about it.
    pub fn commit_atomic(&mut self) -> StorageResult<()> {
        let dirty: Vec<u64> = match &self.batch {
            Some(b) => b.dirty.iter().copied().collect(),
            None => return Err(StorageError::NoBatchOpen),
        };
        let _span = corion_obs::span("storage", "commit_atomic");
        let _commit_timer = self.metrics.commit_latency.start_timer();
        // Phase 1 (volatile): snapshot the after-image of every page the
        // batch dirtied. A crash here loses only memory: abort.
        let mut images = BTreeMap::new();
        for &page in &dirty {
            match self.pool.with_page(page, |p| p.clone()) {
                Ok(image) => {
                    images.insert(page, image);
                }
                Err(e) => {
                    self.abort_open_batch();
                    return Err(e);
                }
            }
        }
        if let Err(e) = self.crash.hit(CP_COMMIT_LOG) {
            self.abort_open_batch();
            return Err(e);
        }
        // Phase 2: the durability point.
        self.log_and_flush(&images)?;
        self.last_logged.extend(images);
        if let Some(schema) = self.batch.take().and_then(|b| b.schema) {
            self.schema = Some(schema);
        }
        self.metrics.commits.inc();
        // The commit is durable and its frames hold exactly the committed
        // after-images. A fault from here on degrades to read-only rather
        // than refusing all work: reads stay correct from the pool, and
        // recovery replays these very images.
        if self.crash.hit(CP_COMMIT_DONE).is_err() {
            self.degrade();
            return Ok(());
        }
        self.pool.set_no_steal(false);
        self.checkpoint_if_due();
        Ok(())
    }

    /// Appends one page record per image plus the commit marker, then
    /// reaches the durability point. On `Ok` the records are durable and
    /// the caller installs `images` as the new delta bases. On `Err` the
    /// log device failed: how many bytes reached its media is unknowable
    /// here, so the batch is dropped with the poisoned store and recovery
    /// decides.
    fn log_and_flush(&mut self, images: &BTreeMap<u64, Page>) -> StorageResult<()> {
        for (&page, image) in images {
            self.log_page_record(page, image);
        }
        let commit_lsn = self.log_append(&WalRecord::Commit);
        let _flush_timer = self.metrics.wal_flush_latency.start_timer();
        if let Err(e) = self.wal.flush() {
            self.poison();
            return Err(e);
        }
        self.metrics.wal_flushes.inc();
        self.durable_commit_lsn = commit_lsn;
        Ok(())
    }

    /// The auto-checkpoint, the last step of a commit:
    /// [`ObjectStore::checkpoint`] once the durable log outgrows
    /// [`StoreConfig::wal_checkpoint_bytes`]. Its failure is no commit's
    /// answer: a checkpoint that fails has already degraded or poisoned
    /// the store, which is what the next operation sees.
    fn checkpoint_if_due(&mut self) {
        if self.wal.stats().durable_bytes > self.wal_checkpoint_bytes {
            let failed = self.checkpoint().is_err();
            debug_assert!(!failed || self.health != HealthState::Healthy);
        }
    }

    /// Abandons the open batch: its log records are rewound, its dirty
    /// frames are restored to their last committed images, and
    /// segment-directory changes are taken back.
    pub fn abort_atomic(&mut self) -> StorageResult<()> {
        if self.batch.is_none() {
            return Err(StorageError::NoBatchOpen);
        }
        self.abort_open_batch();
        Ok(())
    }

    fn abort_open_batch(&mut self) {
        let Some(batch) = self.batch.take() else {
            return;
        };
        self.metrics.aborts.inc();
        // Rewind the log exactly to where this batch began; the erased
        // LSNs are reused so the durable sequence stays gapless.
        self.wal.rollback_to(batch.wal_mark);
        self.undo_batch(batch);
        self.pool.set_no_steal(false);
    }

    /// The pool's rollback: rewinds every frame `batch` dirtied to the
    /// page's last committed image and takes its segment-directory changes
    /// back. The disk cannot serve as the source — it may be behind the
    /// last commit — so the image comes from the base map (committed and
    /// logged since the last checkpoint). A page without one there is
    /// current on disk, and its frame is simply dropped.
    fn undo_batch(&mut self, batch: BatchState) {
        for &page in &batch.dirty {
            match self.last_logged.get(&page) {
                Some(image) => self.pool.install_frame(page, image),
                None => self.pool.discard_pages([page]),
            }
        }
        for (segment, page) in batch.adopted.into_iter().rev() {
            if let Some(seg) = self.segments.get_mut(&segment) {
                seg.drop_page(page);
            }
        }
        for segment in batch.created.into_iter().rev() {
            self.segments.remove(&segment);
            if segment.0 + 1 == self.next_segment {
                self.next_segment = segment.0;
            }
        }
    }

    /// Degrades to read-only *keeping* every frame: the pool holds the
    /// state callers saw committed, so reads served from it remain
    /// correct. A degraded store writes no pages — `no_steal` pins every
    /// dirty frame — until recovery rebuilds from the log.
    fn degrade(&mut self) {
        self.pool.set_no_steal(true);
        self.set_health(HealthState::Degraded);
    }

    /// Poisons the store, dropping its volatile state: after a crash, or
    /// after the log device failed at a durability point (the append tore
    /// or raised an error, or the fsync did). How many bytes reached the
    /// media is unknowable from here, so no in-memory state is
    /// trustworthy — the frames go too, lest an eviction write an
    /// uncommitted one back; [`ObjectStore::recover`] re-reads the device
    /// and lands on its committed prefix.
    fn poison(&mut self) {
        self.batch = None;
        self.last_logged.clear();
        self.wal.drop_pending();
        self.pool.discard_all();
        self.pool.set_no_steal(false);
        self.set_health(HealthState::Poisoned);
    }

    // ------------------------------------------------------------------
    // Recovery & checkpointing
    // ------------------------------------------------------------------

    /// Simulates the volatile half of a crash: the buffer pool's frames,
    /// any open batch, and the unflushed log evaporate; the disk's pages
    /// and the durable log survive. The store is left poisoned — call
    /// [`ObjectStore::recover`] to bring it back.
    pub fn simulate_crash(&mut self) {
        self.poison();
        // Devices drop what a lying fsync acknowledged but never synced —
        // the half of the crash model only they can see.
        self.pool.crash_device();
        self.wal.crash_device();
    }

    /// Recovers the store from durable state: scans the log, truncates the
    /// torn/uncommitted tail, rebuilds the segment directory, and replays
    /// every committed page image onto the disk. Idempotent; disarm any
    /// injected faults first ([`ObjectStore::heal_crash_points`], and
    /// [`FaultyDevice::heal_faults`](crate::device::FaultyDevice::heal_faults)
    /// on a wrapped device).
    pub fn recover(&mut self) -> StorageResult<RecoveryReport> {
        let _span = corion_obs::span("storage", "recover");
        let _timer = self.metrics.recovery_latency.start_timer();
        self.batch = None;
        self.last_logged.clear();
        // Stay poisoned until the replay lands: a device failure midway
        // through recovery must leave the store refusing work, not
        // half-recovered and "healthy".
        self.set_health(HealthState::Poisoned);
        self.pool.set_no_steal(false);
        self.wal.drop_pending();
        self.pool.discard_all();
        // The device is the one copy of the durable log: read it once. It
        // may hold less than was acknowledged (a crash dropped lying-fsync
        // buffers) or more (a failed flush left a prefix there).
        let scan = self.wal.scan()?;
        // An empty log starts a store. Beside pages it is a directory of
        // no known format, refused before anything is written.
        if scan.valid_len == 0 && self.pool.page_count() > 0 {
            return Err(StorageError::FormatVersion {
                found: 0,
                expected: wal::FORMAT_VERSION,
            });
        }
        let state = replay(&scan);
        self.wal.truncate_durable(scan.valid_len)?;
        if scan.valid_len == 0 {
            self.wal.stamp()?;
        }
        self.wal.set_next_lsn(scan.next_lsn);
        // The retained prefix ends at a commit marker (a batch's or a
        // checkpoint's): every later commit is numbered above it.
        self.durable_commit_lsn = scan.next_lsn - 1;

        self.segments.clear();
        let mut next_segment = state.next_segment;
        for (&id, pages) in &state.segments {
            let mut seg = Segment::new(id);
            for &page in pages {
                seg.adopt_page(page);
            }
            self.segments.insert(id, seg);
            next_segment = next_segment.max(id.0 + 1);
        }
        self.next_segment = next_segment;
        self.serial_floor = state.serial_floor;
        self.schema = state.schema;

        for (&page, image) in &state.pages {
            self.pool.ensure_allocated(page)?;
            self.pool.apply_page(page, image)?;
        }
        self.set_health(HealthState::Healthy);
        let report = RecoveryReport {
            batches_replayed: scan.committed.len(),
            pages_restored: state.pages.len(),
            records_discarded: scan.discarded_records,
            torn_tail: scan.torn_tail,
            serial_floor: state.serial_floor,
        };
        self.metrics.recoveries.inc();
        self.metrics
            .recovered_pages
            .add(report.pages_restored as u64);
        self.metrics
            .discarded_records
            .add(report.records_discarded as u64);
        Ok(report)
    }

    /// Writes every dirty frame back, syncs the page device, and only then
    /// truncates the log down to a checkpoint record carrying a snapshot
    /// of the segment directory. The swap is atomic (see
    /// [`Wal::install_checkpoint`]); runs automatically when the durable
    /// log outgrows [`StoreConfig::wal_checkpoint_bytes`].
    pub fn checkpoint(&mut self) -> StorageResult<()> {
        self.ensure_idle()?;
        let _span = corion_obs::span("storage", "checkpoint");
        let _timer = self.metrics.wal_checkpoint_latency.start_timer();
        // A fault in the write-back or the sync leaves the disk behind a
        // log that still holds every image: degrade keeping the frames,
        // truncate nothing, and let recovery replay.
        if let Err(e) = self.write_back_and_sync() {
            self.degrade();
            return Err(e);
        }
        let mut segments: Vec<(SegmentId, Vec<u64>)> = self
            .segments
            .values()
            .map(|s| (s.id(), s.pages().to_vec()))
            .collect();
        segments.sort_by_key(|(id, _)| *id);
        if let Err(e) = self.wal.install_checkpoint(
            self.next_segment,
            segments,
            self.serial_floor,
            self.schema.as_deref(),
        ) {
            // The log swap failed partway: the device holds either the old
            // or the new log (the rename is atomic), but which one is
            // unknowable here. Poison; recovery re-reads the survivor.
            self.poison();
            return Err(e);
        }
        // The images the delta bases refer to were just truncated out of
        // the log; the next record for each page must be an image — the
        // log's only protection against a torn write of that page.
        self.last_logged.clear();
        self.metrics.wal_checkpoints.inc();
        Ok(())
    }

    /// The checkpoint's half that makes "the disk is current" true: commits
    /// leave their pages dirty in the pool, and this is where they reach
    /// the disk, in ascending page order (§2.3 neighbours are adjacent);
    /// then an fsync, since the log is about to be truncated and the pages
    /// must not be sitting in a volatile write cache when it is. Nothing
    /// here is retried: the write-backs already marked their frames clean,
    /// so after a failed sync a later one that succeeds proves nothing
    /// about the pages the failed one may have lost.
    fn write_back_and_sync(&self) -> StorageResult<()> {
        let dirty = self.pool.dirty_pages();
        self.metrics.dirty_frames.set(dirty.len() as i64);
        for page in dirty {
            self.pool.write_back(page)?;
            self.metrics.checkpoint_writebacks.inc();
        }
        self.pool.sync_device()
    }

    // ------------------------------------------------------------------
    // Scrub
    // ------------------------------------------------------------------

    /// Online scrub: verifies every segment page against its on-media
    /// checksum and repairs what it can. A corrupt page is restored from
    /// the newest committed WAL after-image when the log still holds one;
    /// otherwise it is reset to an empty page (its records are lost — the
    /// layer above re-checks referential integrity and mends the object
    /// graph).
    ///
    /// Requires a healthy store with no open batch: scrub writes pages,
    /// which a degraded store must not, and flushes the cache first so
    /// verification sees the true media bytes.
    pub fn scrub(&mut self) -> StorageResult<ScrubReport> {
        self.ensure_idle()?;
        let _span = corion_obs::span("storage", "scrub");
        // Drop cached frames: a resident clean frame would mask on-media
        // rot, and salvage writes below must not fight stale frames.
        self.pool.clear_cache()?;
        // Committed after-images still in the log are the salvage source.
        let salvage = replay(&self.wal.scan()?);
        let mut pages: Vec<u64> = self
            .segments
            .values()
            .flat_map(|s| s.pages().iter().copied())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        let mut report = ScrubReport::default();
        for page in pages {
            report.pages_checked += 1;
            if self.pool.verify_page(page)? {
                continue;
            }
            report.pages_corrupt += 1;
            match salvage.pages.get(&page) {
                Some(image) => {
                    self.pool.apply_page(page, image)?;
                    report.pages_salvaged += 1;
                }
                None => {
                    self.pool.apply_page(page, &Page::new())?;
                    report.pages_reset += 1;
                }
            }
        }
        self.metrics.scrub_runs.inc();
        self.metrics
            .scrub_pages_checked
            .add(report.pages_checked as u64);
        self.metrics
            .scrub_pages_salvaged
            .add(report.pages_salvaged as u64);
        self.metrics
            .scrub_pages_reset
            .add(report.pages_reset as u64);
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Fault injection & observability
    // ------------------------------------------------------------------

    /// Arms `point` (one of [`CRASH_POINTS`]) to fire on its
    /// `countdown`-th hit.
    pub fn arm_crash_point(&self, point: &'static str, countdown: u64) {
        self.crash.arm(point, countdown);
    }

    /// Verifies one page against its on-media checksum (scrub's primitive,
    /// exposed for tests).
    pub fn verify_page(&self, page: u64) -> StorageResult<bool> {
        self.pool.verify_page(page)
    }

    /// Injects bit rot into one on-disk page byte without refreshing its
    /// checksum (see
    /// [`SimDisk::corrupt_page_byte`](crate::disk::SimDisk::corrupt_page_byte)).
    /// The page's committed image is written back first, which the WAL
    /// rule forbids while a batch is open.
    pub fn corrupt_page_byte(&self, page: u64, offset: usize, mask: u8) -> StorageResult<()> {
        if self.batch.is_some() {
            return Err(StorageError::BatchAlreadyOpen);
        }
        self.pool.corrupt_page_byte(page, offset, mask)
    }

    /// The pages of `segment`, in adoption order — what `scrub` walks
    /// and [`ObjectStore::scan`] takes; tests pick corruption targets
    /// from it.
    pub fn pages_of(&self, segment: SegmentId) -> StorageResult<Vec<u64>> {
        Ok(self.segment(segment)?.pages().to_vec())
    }

    /// Disarms every crash point.
    pub fn heal_crash_points(&self) {
        self.crash.heal();
    }

    /// Remaining countdown of `point` (`None` once fired or never armed).
    pub fn crash_point_remaining(&self, point: &'static str) -> Option<u64> {
        self.crash.remaining(point)
    }

    /// Write-ahead-log counters, alongside `buffer_stats`/`disk_stats`.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Commit-marker LSN of the last batch whose log records were synced:
    /// it moves at the durability point and nowhere else (a checkpoint's
    /// own marker does not count; recovery resets it to the end of the log
    /// it kept). After a successful commit it is that commit's WAL LSN.
    pub fn durable_commit_lsn(&self) -> Lsn {
        self.durable_commit_lsn
    }

    /// XORs one durable log byte with `mask` on the log device — bit-flip
    /// injection for checksum-rejection tests.
    pub fn corrupt_wal_byte(&mut self, offset: usize, mask: u8) -> StorageResult<()> {
        self.wal.device().corrupt_byte(offset as u64, mask)
    }

    /// Every live segment id, ascending (the scan order recovery and
    /// `Database::recover` use to rebuild derived state).
    pub fn segment_ids(&self) -> Vec<SegmentId> {
        let mut ids: Vec<SegmentId> = self.segments.keys().copied().collect();
        ids.sort();
        ids
    }
}

/// A recovered store over fault-injecting in-memory devices, plus the
/// handles that arm them.
#[cfg(test)]
fn faulty_store(
    config: StoreConfig,
) -> (
    ObjectStore,
    crate::device::FaultyDevice<SimDisk>,
    crate::device::FaultyDevice<MemLog>,
) {
    use crate::device::{DeviceMetrics, FaultyDevice};
    let disk = FaultyDevice::new(SimDisk::new(), DeviceMetrics::detached());
    let log = FaultyDevice::new(MemLog::new(), DeviceMetrics::detached());
    let mut st = ObjectStore::with_devices(
        config,
        &Registry::new(),
        Arc::new(disk.clone()),
        Arc::new(log.clone()),
        None,
    );
    st.recover().unwrap();
    (st, disk, log)
}

/// Every live record of `seg`, collected from [`ObjectStore::scan`] over
/// all its pages; panics on a scan error.
#[cfg(test)]
fn scan_all(st: &ObjectStore, seg: SegmentId) -> Vec<(PhysId, Vec<u8>)> {
    let mut out = Vec::new();
    st.scan(seg, &st.pages_of(seg).unwrap(), |id, bytes| {
        out.push((id, bytes.to_vec()));
        Ok(())
    })
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ObjectStore {
        ObjectStore::default()
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, b"object 1", None).unwrap();
        assert_eq!(st.read(id).unwrap(), b"object 1");
    }

    #[test]
    fn near_hint_places_on_same_page() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let parent = st.insert(seg, &[1u8; 100], None).unwrap();
        let child = st.insert(seg, &[2u8; 100], Some(parent)).unwrap();
        assert_eq!(
            parent.page, child.page,
            "clustered child shares parent's page"
        );
    }

    #[test]
    fn near_hint_in_other_segment_is_ignored() {
        let mut st = store();
        let a = st.create_segment().unwrap();
        let b = st.create_segment().unwrap();
        let parent = st.insert(a, &[1u8; 100], None).unwrap();
        let child = st.insert(b, &[2u8; 100], Some(parent)).unwrap();
        assert_eq!(child.segment, b);
    }

    #[test]
    fn overflow_to_neighbouring_pages() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let parent = st.insert(seg, &[0u8; 2000], None).unwrap();
        let mut pages = std::collections::HashSet::new();
        for _ in 0..8 {
            let c = st.insert(seg, &[3u8; 1500], Some(parent)).unwrap();
            pages.insert(c.page);
            assert_eq!(c.segment, seg);
        }
        assert!(pages.len() >= 2, "children spilled to additional pages");
    }

    #[test]
    fn update_in_place_keeps_address() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, &[1u8; 64], None).unwrap();
        let (id2, displaced) = st.update(id, &[2u8; 60]).unwrap();
        assert_eq!(displaced, vec![1u8; 64]);
        assert_eq!(id, id2);
        assert_eq!(st.read(id2).unwrap(), vec![2u8; 60]);
    }

    #[test]
    fn update_relocates_when_page_is_full() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, &[1u8; 100], None).unwrap();
        while st.insert(seg, &[9u8; 512], Some(id)).unwrap().page == id.page {}
        let (id2, displaced) = st.update(id, &[2u8; 3000]).unwrap();
        assert_eq!(displaced, vec![1u8; 100]);
        assert_eq!(st.read(id2).unwrap(), vec![2u8; 3000]);
        if id2 != id {
            assert!(st.read(id).is_err(), "old address no longer resolves");
        }
    }

    #[test]
    fn delete_then_read_fails() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, b"gone", None).unwrap();
        st.delete(id).unwrap();
        assert!(matches!(
            st.read(id),
            Err(StorageError::DanglingPhysId { .. })
        ));
        assert!(st.delete(id).is_err());
    }

    #[test]
    fn scan_returns_all_live_records() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let a = st.insert(seg, b"a", None).unwrap();
        let b = st.insert(seg, b"b", None).unwrap();
        st.delete(a).unwrap();
        let recs = scan_all(&st, seg);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, b);
        assert_eq!(recs[0].1, b"b");
    }

    #[test]
    fn segments_are_isolated() {
        let mut st = store();
        let a = st.create_segment().unwrap();
        let b = st.create_segment().unwrap();
        st.insert(a, b"in a", None).unwrap();
        assert_eq!(scan_all(&st, b).len(), 0);
        assert_eq!(scan_all(&st, a).len(), 1);
    }

    #[test]
    fn unknown_segment_is_rejected() {
        let mut st = store();
        let bad = SegmentId(42);
        assert!(st.insert(bad, b"x", None).is_err());
        assert!(st.scan(bad, &[], |_, _| Ok(())).is_err());
    }

    #[test]
    fn many_records_fill_multiple_pages() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let ids: Vec<PhysId> = (0..500)
            .map(|i| {
                st.insert(seg, format!("record {i}").as_bytes(), None)
                    .unwrap()
            })
            .collect();
        assert!(st.segment_pages(seg).unwrap() >= 2);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(st.read(*id).unwrap(), format!("record {i}").as_bytes());
        }
    }

    // ------------------------------------------------------------------
    // Overflow chains
    // ------------------------------------------------------------------

    #[test]
    fn oversized_record_roundtrips() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        for len in [MAX_INLINE + 1, 10_000, 100_000] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let id = st.insert(seg, &data, None).unwrap();
            assert_eq!(st.read(id).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn boundary_sizes_roundtrip() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        for len in [MAX_INLINE - 1, MAX_INLINE, MAX_INLINE + 1, 2 * MAX_INLINE] {
            let data = vec![7u8; len];
            let id = st.insert(seg, &data, None).unwrap();
            assert_eq!(st.read(id).unwrap().len(), len);
        }
    }

    #[test]
    fn deleting_chained_record_frees_chunks() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let big = vec![1u8; 50_000];
        let id = st.insert(seg, &big, None).unwrap();
        st.delete(id).unwrap();
        assert_eq!(scan_all(&st, seg).len(), 0);
        // Freed space is reusable: the same insert fits again without
        // growing the segment unboundedly.
        let pages_before = st.segment_pages(seg).unwrap();
        let id2 = st.insert(seg, &big, None).unwrap();
        assert!(st.segment_pages(seg).unwrap() <= pages_before + 1);
        assert_eq!(st.read(id2).unwrap(), big);
    }

    #[test]
    fn update_grows_across_the_chain_boundary_and_back() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, &[1u8; 100], None).unwrap();
        let big = vec![2u8; 20_000];
        let (id2, _) = st.update(id, &big).unwrap();
        assert_eq!(st.read(id2).unwrap(), big);
        let (id3, displaced) = st.update(id2, &[3u8; 50]).unwrap();
        assert_eq!(displaced, big, "a chained record is displaced whole");
        assert_eq!(st.read(id3).unwrap(), vec![3u8; 50]);
        // All chunks freed: scan sees exactly one record.
        assert_eq!(scan_all(&st, seg).len(), 1);
    }

    #[test]
    fn scan_skips_continuation_chunks() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let big = vec![9u8; 30_000];
        let id_big = st.insert(seg, &big, None).unwrap();
        let id_small = st.insert(seg, b"tiny", None).unwrap();
        let recs = scan_all(&st, seg);
        assert_eq!(recs.len(), 2);
        let by_id: HashMap<PhysId, Vec<u8>> = recs.into_iter().collect();
        assert_eq!(by_id[&id_big], big);
        assert_eq!(by_id[&id_small], b"tiny");
    }

    #[test]
    fn scan_visits_in_page_then_slot_order_and_fails_on_a_bad_tag() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let mut ids = vec![st.insert(seg, b"first", None).unwrap()];
        ids.push(st.insert(seg, &vec![7u8; 30_000], Some(ids[0])).unwrap());
        for i in 0..40u8 {
            ids.push(st.insert(seg, &[i; 300], Some(ids[0])).unwrap());
        }
        let pages = st.pages_of(seg).unwrap();
        let position = |id: &PhysId| (pages.iter().position(|&p| p == id.page), id.slot);
        ids.sort_by_key(position);
        let seen: Vec<PhysId> = scan_all(&st, seg).into_iter().map(|(id, _)| id).collect();
        assert_eq!(seen, ids);
        // A record whose tag is neither inline, chained nor a chunk fails
        // the scan as it fails a point read.
        let last = *ids.last().unwrap();
        st.pool
            .with_page_mut(last.page, |p| p.update(last.slot, &[0xee; 8]))
            .unwrap()
            .unwrap();
        let got = st.scan(seg, &pages, |_, _| Ok(()));
        assert!(
            matches!(got, Err(StorageError::DanglingPhysId { .. })),
            "{got:?}"
        );
    }

    #[test]
    fn reading_a_continuation_chunk_directly_fails() {
        let mut st = store();
        let seg = st.create_segment().unwrap();
        let big = vec![5u8; 20_000];
        let head = st.insert(seg, &big, None).unwrap();
        // Find some chunk: scan pages for a slot that is not the head and
        // try to read it as a record.
        let pages: Vec<u64> = st.segment(seg).unwrap().pages().to_vec();
        let mut chunk = None;
        for page in pages {
            let slots = st
                .pool
                .with_page(page, |p| p.iter().map(|(s, _)| s).collect::<Vec<_>>())
                .unwrap();
            for slot in slots {
                let id = PhysId {
                    segment: seg,
                    page,
                    slot,
                };
                if id != head {
                    chunk = Some(id);
                }
            }
        }
        let chunk = chunk.expect("a 20k record has chunks");
        assert!(st.read(chunk).is_err());
        assert!(st.delete(chunk).is_err());
        assert!(st.update(chunk, b"x").is_err());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    fn pool_of(buffer_capacity: usize) -> StoreConfig {
        StoreConfig {
            buffer_capacity,
            ..Default::default()
        }
    }

    #[test]
    fn faults_surface_as_errors_not_panics() {
        let (mut st, disk, _) = faulty_store(pool_of(2));
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, &[1u8; 100], None).unwrap();
        st.clear_cache().unwrap();
        disk.arm_eio(0);
        assert!(matches!(st.read(id), Err(StorageError::DeviceIo { .. })));
        assert!(
            st.insert(seg, &[2u8; 5000], None).is_err(),
            "chained insert propagates too"
        );
        disk.heal_faults();
        assert_eq!(st.read(id).unwrap(), vec![1u8; 100]);
    }

    #[test]
    fn explicit_batch_is_all_or_nothing() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        let keep = st.insert(seg, b"keep", None).unwrap();
        st.begin_atomic().unwrap();
        assert!(st.in_atomic_batch());
        let a = st.insert(seg, b"batched-a", None).unwrap();
        st.update(keep, b"KEEP").unwrap();
        let flushes = st.wal_stats().flushes;
        st.commit_atomic().unwrap();
        assert!(!st.in_atomic_batch());
        assert_eq!(
            st.wal_stats().flushes,
            flushes + 1,
            "one durability point for the whole batch"
        );
        assert_eq!(st.read(a).unwrap(), b"batched-a");
        assert_eq!(st.read(keep).unwrap(), b"KEEP");
    }

    #[test]
    fn abort_rolls_back_records_pages_and_segments() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        let keep = st.insert(seg, b"keep", None).unwrap();
        let pages_pre = st.segment_pages(seg).unwrap();
        st.begin_atomic().unwrap();
        st.insert(seg, b"doomed", None).unwrap();
        st.insert(seg, &[7u8; 30_000], None).unwrap(); // adopts fresh pages
        let seg2 = st.create_segment().unwrap();
        st.insert(seg2, b"doomed too", None).unwrap();
        st.update(keep, b"DOOMED").unwrap();
        st.abort_atomic().unwrap();
        assert_eq!(scan_all(&st, seg).len(), 1);
        assert_eq!(st.read(keep).unwrap(), b"keep");
        assert_eq!(st.segment_pages(seg).unwrap(), pages_pre);
        assert!(
            st.scan(seg2, &[], |_, _| Ok(())).is_err(),
            "aborted segment does not exist"
        );
        // The rolled-back id is handed out again.
        assert_eq!(st.create_segment().unwrap(), seg2);
    }

    #[test]
    fn batch_state_errors() {
        let mut st = ObjectStore::default();
        st.begin_atomic().unwrap();
        assert!(matches!(
            st.begin_atomic(),
            Err(StorageError::BatchAlreadyOpen)
        ));
        assert!(matches!(
            st.clear_cache(),
            Err(StorageError::BatchAlreadyOpen)
        ));
        st.commit_atomic().unwrap();
        assert!(matches!(st.commit_atomic(), Err(StorageError::NoBatchOpen)));
        assert!(matches!(st.abort_atomic(), Err(StorageError::NoBatchOpen)));
    }

    #[test]
    fn fault_during_eviction_is_reported_and_the_frame_survives_it() {
        let (mut st, disk, _) = faulty_store(pool_of(1));
        let seg = st.create_segment().unwrap();
        // Two pages worth of data so accessing the second evicts the first.
        let a = st.insert(seg, &[1u8; 3000], None).unwrap();
        let b = st.insert(seg, &[2u8; 3000], None).unwrap();
        st.clear_cache().unwrap();
        // The one frame now holds a's page with a committed update the
        // disk has not received.
        st.update(a, &[3u8; 3000]).unwrap();
        let reads = st.disk_stats().reads;
        disk.arm_eio(0);
        // Reading b must evict a's page, and its write-back faults.
        assert!(matches!(st.read(b), Err(StorageError::DeviceIo { .. })));
        disk.heal_faults();
        // The frame survived: the update is served from the pool, not from
        // the stale disk page.
        assert_eq!(st.read(a).unwrap(), vec![3u8; 3000]);
        assert_eq!(st.disk_stats().reads, reads, "a never left the pool");
        // Healed, the eviction writes a back and nothing is lost.
        assert_eq!(st.read(b).unwrap(), vec![2u8; 3000]);
        assert_eq!(st.read(a).unwrap(), vec![3u8; 3000]);
        assert!(st.disk_stats().reads > reads, "a came back from the disk");
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use crate::device::FaultyDevice;

    /// Physical-address-free state digest: the multiset of live records.
    fn fingerprint(st: &ObjectStore, seg: SegmentId) -> Vec<Vec<u8>> {
        let mut recs: Vec<Vec<u8>> = scan_all(st, seg)
            .into_iter()
            .map(|(_, bytes)| bytes)
            .collect();
        recs.sort();
        recs
    }

    /// One committed record, then the operation under test: a second
    /// insert, whose fingerprints before and after are `pre` and `post`.
    struct Arena {
        st: ObjectStore,
        log: FaultyDevice<MemLog>,
        seg: SegmentId,
        pre: Vec<Vec<u8>>,
        post: Vec<Vec<u8>>,
    }

    fn arena() -> Arena {
        let (mut st, _, log) = faulty_store(StoreConfig::default());
        let seg = st.create_segment().unwrap();
        st.insert(seg, &[1u8; 400], None).unwrap();
        let pre = fingerprint(&st, seg);

        let mut oracle = ObjectStore::default();
        let oseg = oracle.create_segment().unwrap();
        oracle.insert(oseg, &[1u8; 400], None).unwrap();
        oracle.insert(oseg, &[2u8; 500], None).unwrap();
        let post = fingerprint(&oracle, oseg);
        Arena {
            st,
            log,
            seg,
            pre,
            post,
        }
    }

    #[test]
    fn crash_at_every_point_recovers_to_exactly_what_the_commit_answered() {
        for &point in CRASH_POINTS {
            for countdown in 1..16 {
                let Arena {
                    mut st,
                    seg,
                    pre,
                    post,
                    ..
                } = arena();
                st.arm_crash_point(point, countdown);
                let res = st.insert(seg, &[2u8; 500], None);
                if st.crash_point_remaining(point).is_some() {
                    // The countdown outlived the operation: this point has
                    // been swept exhaustively.
                    st.heal_crash_points();
                    res.unwrap();
                    break;
                }
                // `Ok` means durable (the fault came after the durability
                // point and degraded the store); `Err` on a healthy store
                // means rolled back.
                let want = match res {
                    Ok(_) => {
                        assert_eq!(st.health(), HealthState::Degraded, "{point}");
                        &post
                    }
                    Err(_) => {
                        assert_eq!(st.health(), HealthState::Healthy, "{point}");
                        &pre
                    }
                };
                assert_eq!(
                    &fingerprint(&st, seg),
                    want,
                    "{point} countdown={countdown}"
                );
                st.recover().unwrap();
                assert_eq!(
                    &fingerprint(&st, seg),
                    want,
                    "{point} countdown={countdown}: recovery disagrees with the answer"
                );
                // The store is fully usable again.
                st.insert(seg, b"after", None).unwrap();
            }
        }
    }

    #[test]
    fn torn_flush_every_prefix_recovers_pre_then_post() {
        // Measure the batch's log footprint on an identical probe.
        let Arena {
            st: mut probe,
            seg: pseg,
            ..
        } = arena();
        let before = probe.wal_stats().durable_bytes;
        probe.insert(pseg, &[2u8; 500], None).unwrap();
        let batch_bytes = probe.wal_stats().durable_bytes - before;

        for keep in 0..=batch_bytes {
            // The log device tears the commit's append after `keep` bytes:
            // the answer is in doubt, so the store poisons itself.
            let Arena {
                mut st,
                log,
                seg,
                pre,
                post,
            } = arena();
            log.arm_torn_write(0, keep);
            assert!(st.insert(seg, &[2u8; 500], None).is_err(), "keep={keep}");
            assert_eq!(log.injected().torn_writes, 1, "keep={keep}");
            assert_eq!(st.health(), HealthState::Poisoned, "keep={keep}");
            let report = st.recover().unwrap();
            let got = fingerprint(&st, seg);
            if keep == batch_bytes {
                // The whole batch (commit marker included) became durable:
                // the crash happened after the durability point.
                assert_eq!(got, post, "keep={keep}");
            } else {
                assert_eq!(got, pre, "keep={keep}");
                assert!(
                    report.torn_tail || report.records_discarded > 0 || keep == 0,
                    "keep={keep}: tail should be torn or uncommitted"
                );
            }
        }
    }

    #[test]
    fn bit_flip_truncates_tail_instead_of_replaying_garbage() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        st.insert(seg, &[1u8; 300], None).unwrap();
        let fp1 = fingerprint(&st, seg);
        let boundary = st.wal_stats().durable_bytes;
        st.insert(seg, &[2u8; 300], None).unwrap();
        let total = st.wal_stats().durable_bytes;
        assert!(total > boundary);
        // Corrupt a byte inside the second batch's records, then crash.
        st.corrupt_wal_byte(boundary + 20, 0x08).unwrap();
        st.simulate_crash();
        let report = st.recover().unwrap();
        assert!(report.torn_tail);
        assert_eq!(
            fingerprint(&st, seg),
            fp1,
            "the corrupt batch is rolled away, not replayed as garbage"
        );
    }

    #[test]
    fn fault_after_the_durability_point_degrades_to_read_only_until_recovered() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        st.arm_crash_point(CP_COMMIT_DONE, 1);
        // The commit was durable, so it answers `Ok`; it was never closed,
        // so the store is degraded, not poisoned — reads still answer (from
        // the pinned frames that hold the committed images), mutations are
        // rejected.
        st.insert(seg, b"x", None).unwrap();
        assert_eq!(st.health(), HealthState::Degraded);
        assert!(matches!(
            st.insert(seg, b"y", None),
            Err(StorageError::ReadOnly)
        ));
        assert!(matches!(st.checkpoint(), Err(StorageError::ReadOnly)));
        assert_eq!(scan_all(&st, seg).len(), 1, "degraded reads still work");
        st.recover().unwrap();
        assert_eq!(st.health(), HealthState::Healthy);
        // The crash hit after the durability point, so "x" committed.
        st.insert(seg, b"y", None).unwrap();
        assert_eq!(scan_all(&st, seg).len(), 2);
    }

    #[test]
    fn checkpoint_writeback_fault_degrades_keeping_the_frames_and_the_log() {
        // Ten commits over three pages, then a checkpoint whose k-th page
        // write-back faults, for every k the checkpoint reaches: a write
        // that persists nothing, and torn ones that persist a prefix.
        for keep in [0, 512, 4095] {
            for k in 0..8u64 {
                let (mut st, disk, _) = faulty_store(StoreConfig::default());
                let seg = st.create_segment().unwrap();
                for i in 0..10u8 {
                    st.insert(seg, &[i; 1000], None).unwrap();
                }
                let fp = fingerprint(&st, seg);
                let log = st.wal_stats().durable_bytes;
                disk.arm_torn_write(k, keep);
                let res = st.checkpoint();
                if disk.injected().torn_writes == 0 {
                    disk.heal_faults();
                    res.unwrap();
                    assert!(k >= 3, "three dirty pages, three write-backs");
                    break;
                }
                assert!(matches!(res, Err(StorageError::TornWrite { .. })));
                assert_eq!(st.health(), HealthState::Degraded);
                assert_eq!(
                    st.wal_stats().durable_bytes,
                    log,
                    "the log is truncated only after every write-back"
                );
                assert_eq!(st.buffer_stats().writebacks, k);
                assert_eq!(fingerprint(&st, seg), fp, "degraded reads keep answering");
                assert!(matches!(
                    st.insert(seg, b"y", None),
                    Err(StorageError::ReadOnly)
                ));
                // A crash on top loses the unwritten frames; the log has them.
                st.simulate_crash();
                st.recover().unwrap();
                assert_eq!(fingerprint(&st, seg), fp);
                st.checkpoint().unwrap();
            }
        }
    }

    #[test]
    fn a_failed_auto_checkpoint_is_no_commits_answer() {
        let (mut st, disk, _) = faulty_store(StoreConfig {
            wal_checkpoint_bytes: 0,
            ..StoreConfig::default()
        });
        let seg = st.create_segment().unwrap();
        // The first page write of the checkpoint the next commit trips
        // persists nothing.
        disk.arm_torn_write(0, 0);
        let id = st.insert(seg, b"durable", None).unwrap();
        assert_eq!(disk.injected().torn_writes, 1);
        assert_eq!(st.health(), HealthState::Degraded);
        assert_eq!(st.read(id).unwrap(), b"durable");
        disk.heal_faults();
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(st.read(id).unwrap(), b"durable");
    }

    #[test]
    fn a_failed_page_sync_degrades_keeping_the_log() {
        let (mut st, disk, _) = faulty_store(StoreConfig::default());
        let seg = st.create_segment().unwrap();
        for i in 0..10u8 {
            st.insert(seg, &[i; 1000], None).unwrap();
        }
        let fp = fingerprint(&st, seg);
        let log = st.wal_stats().durable_bytes;
        // Every write-back goes through; the sync after them fails once.
        disk.arm_eio(st.pool.dirty_pages().len() as u64);
        assert!(matches!(
            st.checkpoint(),
            Err(StorageError::DeviceIo { .. })
        ));
        disk.heal_faults();
        assert_eq!(disk.injected().eio, 1);
        assert_eq!(st.health(), HealthState::Degraded);
        assert_eq!(st.wal_stats().durable_bytes, log, "the log is kept");
        // The device healed, but a retried sync proves nothing about the
        // pages the failed one may have lost: no checkpoint until recovery.
        assert!(matches!(st.checkpoint(), Err(StorageError::ReadOnly)));
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp);
        st.checkpoint().unwrap();
    }

    #[test]
    fn poisoned_store_refuses_reads_and_writes_until_recovered() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        st.insert(seg, b"x", None).unwrap();
        st.simulate_crash();
        assert_eq!(st.health(), HealthState::Poisoned);
        assert!(matches!(
            st.insert(seg, b"y", None),
            Err(StorageError::NeedsRecovery)
        ));
        assert!(matches!(
            st.scan(seg, &[], |_, _| Ok(())),
            Err(StorageError::NeedsRecovery)
        ));
        assert!(matches!(st.checkpoint(), Err(StorageError::NeedsRecovery)));
        st.recover().unwrap();
        assert_eq!(st.health(), HealthState::Healthy);
        assert_eq!(scan_all(&st, seg).len(), 1);
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        st.insert(seg, &[1u8; 100], None).unwrap();
        st.insert(seg, &[9u8; 20_000], None).unwrap(); // chained record
        let fp = fingerprint(&st, seg);
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp);
        st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp);
    }

    #[test]
    fn checkpoint_truncates_log_and_survives_crash() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        for i in 0..50 {
            st.insert(seg, format!("record {i}").as_bytes(), None)
                .unwrap();
        }
        let fp = fingerprint(&st, seg);
        let big = st.wal_stats().durable_bytes;
        st.checkpoint().unwrap();
        let small = st.wal_stats().durable_bytes;
        assert!(small < big, "checkpoint must shrink the log");
        st.simulate_crash();
        let report = st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp);
        assert_eq!(
            report.pages_restored, 0,
            "a checkpointed log has nothing to replay"
        );
    }

    #[test]
    fn auto_checkpoint_bounds_the_log() {
        let mut st = ObjectStore::new(StoreConfig {
            buffer_capacity: 64,
            wal_checkpoint_bytes: 64 * 1024,
        });
        let seg = st.create_segment().unwrap();
        // Incompressible records: every insert logs its bytes whole.
        for i in 0..300 {
            st.insert(seg, &noise(i, 400), None).unwrap();
        }
        let stats = st.wal_stats();
        assert!(stats.checkpoints >= 1, "threshold must have tripped");
        assert!(
            stats.durable_bytes <= 80 * 1024,
            "log stays near the threshold, got {}",
            stats.durable_bytes
        );
        let fp = fingerprint(&st, seg);
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp);
    }

    /// `len` seeded pseudo-random bytes (xorshift), zeros as rare as in
    /// any random data.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    /// The page records of the last committed batch in the durable log,
    /// by kind.
    fn last_batch_kinds(st: &ObjectStore) -> Vec<&'static str> {
        let scan = st.wal.scan().unwrap();
        let batch = scan.committed.last().expect("a committed batch");
        batch
            .iter()
            .filter_map(|rec| match rec {
                WalRecord::PageImage { .. } => Some("image"),
                WalRecord::PageDelta { .. } => Some("delta"),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn delta_records_shrink_update_heavy_logs() {
        let (mut st, seg, id) = nearly_full_page();
        let base = st.wal_stats().durable_bytes;
        st.update(id, b"sixteen-byte-rec").unwrap();
        let grew = st.wal_stats().durable_bytes - base;
        assert_eq!(last_batch_kinds(&st), ["delta"]);
        assert!(
            grew < 128,
            "a small update of a full page should log a small delta, grew {grew} bytes"
        );
        let fp = fingerprint(&st, seg);
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp, "delta replay restores the page");
    }

    #[test]
    fn delta_bases_reset_at_checkpoint() {
        let (mut st, seg, id) = nearly_full_page();
        st.checkpoint().unwrap();
        // The base image was truncated out of the log: this update must log
        // an image (a delta would replay against nothing).
        let (id, _) = st.update(id, b"sixteen-byte-rec").unwrap();
        assert_eq!(last_batch_kinds(&st), ["image"]);
        // ...and the next one is a delta again.
        st.update(id, b"SIXTEEN-BYTE-REC").unwrap();
        assert_eq!(last_batch_kinds(&st), ["delta"]);
        let fp = fingerprint(&st, seg);
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp);
    }

    /// A store whose one page holds a 16-byte record (returned) and six
    /// 600-byte ones: about nine tenths of the page is non-zero.
    fn nearly_full_page() -> (ObjectStore, SegmentId, PhysId) {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, b"sixteen byte rec", None).unwrap();
        for i in 0..6u8 {
            let near = st.insert(seg, &[i + 1; 600], Some(id)).unwrap();
            assert_eq!(near.page, id.page);
        }
        (st, seg, id)
    }

    #[test]
    fn an_image_costs_what_the_page_holds() {
        // After a checkpoint a page's first record is an image: its
        // non-zero runs, so an almost empty page logs a few dozen bytes and
        // a nearly full one about a page.
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, b"sixteen byte rec", None).unwrap();
        st.checkpoint().unwrap();
        let base = st.wal_stats().durable_bytes;
        st.update(id, b"SIXTEEN BYTE REC").unwrap();
        let sparse = st.wal_stats().durable_bytes - base;
        assert_eq!(last_batch_kinds(&st), ["image"]);
        assert!(sparse < 96, "a 16-byte page image logged {sparse} bytes");

        let (mut st, seg, id) = nearly_full_page();
        st.checkpoint().unwrap();
        let base = st.wal_stats().durable_bytes;
        st.update(id, b"SIXTEEN BYTE REC").unwrap();
        let dense = st.wal_stats().durable_bytes - base;
        assert_eq!(last_batch_kinds(&st), ["image"]);
        assert!(
            (3600..PAGE_SIZE + 96).contains(&dense),
            "a nearly full page image logged {dense} bytes"
        );
        let fp = fingerprint(&st, seg);
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(fingerprint(&st, seg), fp, "image replay restores the page");
    }

    /// A ≈ 1 KB record on a page with neighbours grows by 13 bytes, so the
    /// page rewrites it at the heap end — or, when the heap end has no
    /// room, compacts and shifts a neighbour too. Either way the page's
    /// delta copies the moved records from its base and logs what grew.
    #[test]
    fn a_grown_record_logs_what_grew() {
        for (case, last_len) in [("heap end", 500), ("compaction", 2000)] {
            let mut st = ObjectStore::default();
            let seg = st.create_segment().unwrap();
            let first = st.insert(seg, &noise(1, 500), None).unwrap();
            let record = noise(2, 1000);
            let id = st.insert(seg, &record, Some(first)).unwrap();
            let last = st.insert(seg, &noise(3, last_len), Some(id)).unwrap();
            assert!(first.page == id.page && last.page == id.page, "{case}");
            let mut grown = record.clone();
            grown.extend_from_slice(&noise(4, 13));
            assert_eq!(st.update(id, &grown).unwrap().0, id, "{case}");

            let scan = st.wal.scan().unwrap();
            let (moves, logged) = scan
                .committed
                .last()
                .unwrap()
                .iter()
                .find_map(|rec| match rec {
                    WalRecord::PageDelta {
                        page,
                        moves,
                        ranges,
                    } if *page == id.page => Some((moves.len(), wal::delta_len(moves, ranges))),
                    _ => None,
                })
                .expect("the update logged a delta of the page");
            let want_moves = if case == "compaction" { 2 } else { 1 };
            assert_eq!(moves, want_moves, "{case}");
            assert!(
                logged < 64,
                "{case}: a 13-byte growth logged {logged} bytes"
            );

            let fp = fingerprint(&st, seg);
            st.simulate_crash();
            st.recover().unwrap();
            assert_eq!(
                fingerprint(&st, seg),
                fp,
                "{case}: move replay restores the page"
            );
            assert_eq!(st.read(id).unwrap(), grown, "{case}");
        }
    }

    #[test]
    fn crash_mid_chained_insert_never_leaves_partial_chains() {
        // A 20 KB record dirties several pages; crash at each successive
        // logged page write and make sure recovery never exposes a record
        // that reassembles incompletely.
        for countdown in 1..12 {
            let mut st = ObjectStore::default();
            let seg = st.create_segment().unwrap();
            st.insert(seg, b"anchor", None).unwrap();
            st.arm_crash_point(CP_PAGE_WRITE, countdown);
            let big: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
            let res = st.insert(seg, &big, None);
            if st.crash_point_remaining(CP_PAGE_WRITE).is_some() {
                st.heal_crash_points();
                res.unwrap();
                break;
            }
            assert!(res.is_err());
            st.recover().unwrap();
            let recs = scan_all(&st, seg);
            assert_eq!(recs.len(), 1, "countdown={countdown}");
            assert_eq!(recs[0].1, b"anchor");
        }
    }
}

/// No-force: a commit ends at the synced log, so the disk may be behind
/// the last commit and only the pool (and the log) know better.
#[cfg(test)]
mod no_force_tests {
    use super::*;

    #[test]
    fn commits_write_no_pages_and_a_checkpoint_writes_each_dirty_page_once() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, &[0u8; 600], None).unwrap();
        st.checkpoint().unwrap();
        let writes = st.disk_stats().writes;
        for i in 1..=20u8 {
            st.update(id, &[i; 600]).unwrap();
        }
        assert_eq!(st.disk_stats().writes, writes, "no page write per commit");
        st.checkpoint().unwrap();
        assert_eq!(st.disk_stats().writes, writes + 1, "one page, written once");
        st.checkpoint().unwrap();
        assert_eq!(st.disk_stats().writes, writes + 1, "nothing left dirty");
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(st.read(id).unwrap(), vec![20u8; 600]);
    }

    /// Durability argument (a): a frame is written only once its image's
    /// log record is synced. One frame of pool, so every fetch wants to
    /// evict — and must overcommit instead while the batch holding the
    /// dirty frames is open.
    #[test]
    fn no_page_is_written_before_its_log_record_is_synced() {
        let mut st = ObjectStore::new(StoreConfig {
            buffer_capacity: 1,
            ..StoreConfig::default()
        });
        let seg = st.create_segment().unwrap();
        st.checkpoint().unwrap();
        let writes = st.disk_stats().writes;
        st.begin_atomic().unwrap();
        let ids: Vec<PhysId> = (0..4u8)
            .map(|i| st.insert(seg, &[i; 3000], None).unwrap())
            .collect();
        for &id in &ids {
            st.read(id).unwrap();
        }
        assert_eq!(st.disk_stats().writes, writes, "uncommitted frames");
        st.commit_atomic().unwrap();
        // Durable now: the overcommit drains by writing frames back.
        st.clear_cache().unwrap();
        assert_eq!(st.disk_stats().writes, writes + 4);
    }

    /// Durability argument (c), abort: commit A dirties page P, batch B
    /// rewrites P and aborts. The disk still holds the pre-A page, so the
    /// frame must come back from the committed image, not from there.
    #[test]
    fn an_abort_restores_the_last_committed_image_not_the_disks() {
        let mut st = ObjectStore::default();
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, b"pre-A", None).unwrap();
        st.checkpoint().unwrap();
        st.update(id, b"A").unwrap();
        st.begin_atomic().unwrap();
        st.update(id, b"B").unwrap();
        st.insert(seg, b"B's sibling", None).unwrap();
        st.abort_atomic().unwrap();
        assert_eq!(st.read(id).unwrap(), b"A");
        assert_eq!(scan_all(&st, seg).len(), 1);
        // The restored frame is what later commits build on...
        st.insert(seg, b"C", None).unwrap();
        assert_eq!(st.read(id).unwrap(), b"A");
        // ...and what a crash recovers to.
        st.simulate_crash();
        st.recover().unwrap();
        assert_eq!(st.read(id).unwrap(), b"A");
        assert_eq!(scan_all(&st, seg).len(), 2);
    }

    /// Durability argument (c), torn flush: the log device tore B's
    /// append, so B's commit marker never became durable. The store
    /// poisons itself, and recovery must see A — from the log, since the
    /// disk still holds pre-A.
    #[test]
    fn a_torn_flush_restores_the_last_committed_image_not_the_disks() {
        let (mut st, _, log) = faulty_store(StoreConfig::default());
        let seg = st.create_segment().unwrap();
        let id = st.insert(seg, b"pre-A", None).unwrap();
        st.checkpoint().unwrap();
        st.update(id, b"A").unwrap();
        log.arm_torn_write(0, 40);
        st.update(id, b"B").unwrap_err();
        assert_eq!(st.health(), HealthState::Poisoned);
        assert!(matches!(st.read(id), Err(StorageError::NeedsRecovery)));
        st.recover().unwrap();
        assert_eq!(st.read(id).unwrap(), b"A");
    }

    /// Two readers thrash an 8-frame pool — evicting committed-dirty
    /// frames, i.e. issuing write-backs from `&self` — between the commits
    /// and checkpoints of a writer. Every read equals the model; no page
    /// image is lost on the way to the disk.
    #[test]
    fn readers_evicting_committed_dirty_frames_never_lose_an_image() {
        use parking_lot::RwLock;
        use std::sync::atomic::{AtomicBool, Ordering};

        const RECORDS: usize = 48; // one per page: six times the pool
        let mut st = ObjectStore::new(StoreConfig {
            buffer_capacity: 8,
            ..StoreConfig::default()
        });
        let seg = st.create_segment().unwrap();
        let ids: Vec<PhysId> = (0..RECORDS)
            .map(|i| st.insert(seg, &[i as u8; 3000], None).unwrap())
            .collect();
        // model[i] is the byte record i holds; it changes only under the
        // store's write lock, so a reader holding the read lock sees both
        // in step.
        let model: Vec<u8> = (0..RECORDS).map(|i| i as u8).collect();
        let shared = RwLock::new((st, model));
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2usize {
                let (shared, done, ids) = (&shared, &done, &ids);
                s.spawn(move || {
                    let mut i = t * 17;
                    while !done.load(Ordering::Acquire) {
                        let guard = shared.read();
                        let (st, model) = &*guard;
                        i = (i * 31 + 7) % RECORDS;
                        assert_eq!(st.read(ids[i]).unwrap(), vec![model[i]; 3000]);
                    }
                });
            }
            for round in 0..300usize {
                let mut guard = shared.write();
                let (st, model) = &mut *guard;
                let i = (round * 13) % RECORDS;
                model[i] = model[i].wrapping_add(101);
                st.update(ids[i], &[model[i]; 3000]).unwrap();
                if round % 40 == 39 {
                    st.checkpoint().unwrap();
                }
            }
            done.store(true, Ordering::Release);
        });
        let (mut st, model) = shared.into_inner();
        assert!(st.buffer_stats().writebacks > 0, "evictions wrote back");
        for pass in 0..2 {
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(st.read(id).unwrap(), vec![model[i]; 3000], "pass {pass}");
            }
            st.simulate_crash();
            st.recover().unwrap();
        }
    }
}
