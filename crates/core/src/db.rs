//! The database engine: catalog + object storage + the composite-object
//! semantics entry points.
//!
//! The public API mirrors the ORION messages of the paper:
//!
//! | paper (§2.3, §3) | here |
//! |---|---|
//! | `(make-class 'C …)` | [`Database::define_class`] |
//! | `(make C :parent (…) :A v …)` | [`Database::make`] |
//! | `(components-of o …)` | [`Database::components_of`] |
//! | `(parents-of o …)` / `(ancestors-of o …)` | [`Database::parents_of`] / [`Database::ancestors_of`] |
//! | predicates of §3.2 | [`Database::compositep`] and friends |
//!
//! Schema-evolution messages live in [`crate::evolution`]; the Make-Component
//! algorithm and Deletion Rule in [`crate::composite`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corion_obs::Registry;
use corion_storage::{FileDisk, FileWal, ObjectStore, SegmentId, StoreConfig};

use crate::error::{DbError, DbResult};
use crate::evolution::oplog::OperationLog;
use crate::object::Object;
use crate::oid::{ClassId, Oid};
use crate::overlay::Overlay;
use crate::schema::catalog::Catalog;
use crate::schema::class::{Class, ClassBuilder};
use crate::schema::lattice;
use crate::shard::Buckets;
use crate::value::Value;

/// What happens to a dependent component when its *last* dependent parent
/// reference is removed (not deleted — removal of the reference itself).
///
/// The paper specifies deletion semantics only for `del(O')` (§2.2); for
/// reference *removal* it is explicit about the motivating example — "for a
/// paragraph to exist, there must be at least one section containing it"
/// (§2.3 Example 2) — which the default policy implements. See DESIGN.md §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrphanPolicy {
    /// Removing the last dependent composite reference deletes the orphan
    /// (cascading per the Deletion Rule).
    #[default]
    DeleteDependentOrphans,
    /// Orphans survive; only explicit `delete` removes objects.
    KeepOrphans,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Orphan handling on reference removal.
    pub orphan_policy: OrphanPolicy,
    /// Storage tuning.
    pub store: StoreConfig,
    /// Number of object-table / extension stripes (rounded up to a power
    /// of two, minimum 1). The stripes partition the rebuild's bulk load;
    /// `1` collapses them into one map and selects no other behaviour.
    /// See [`crate::shard`].
    pub shards: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            orphan_policy: OrphanPolicy::default(),
            store: StoreConfig::default(),
            shards: crate::shard::DEFAULT_SHARDS,
        }
    }
}

/// The CORION database engine.
///
/// The read path — [`Database::get`], [`Database::get_attr`], and every §3
/// traversal/predicate — takes `&self`, so any number of threads may read
/// one engine concurrently (`Database: Sync`); see
/// [`Database::components_of_many`]. Mutations take `&mut self` and
/// therefore never race a reader: the borrow (or, shared across threads,
/// the engine latch of `corion-concurrent`) is the only lock on engine
/// state.
pub struct Database {
    pub(crate) catalog: Catalog,
    pub(crate) store: ObjectStore,
    /// Striped object table + class extensions (see [`crate::shard`]).
    pub(crate) shards: crate::shard::Shards,
    pub(crate) oplogs: HashMap<ClassId, OperationLog>,
    /// Next OID serial. Atomic so operations executing under a *shared*
    /// engine latch can mint serials without `&mut self`.
    pub(crate) next_serial: AtomicU64,
    pub(crate) config: DbConfig,
    /// The open [`Database::begin_transaction`], if any — the engine's
    /// one write scope: its overlay is where mutations land and what
    /// reads answer through until commit or abort.
    pub(crate) txn: Option<crate::txn::TxnState>,
    pub(crate) capture: crate::capture::Capture,
    pub(crate) registry: corion_obs::Registry,
    pub(crate) metrics: crate::metrics::CoreMetrics,
    /// `Some(dir)` when the engine was opened on a data directory
    /// ([`Database::open`] or [`Database::with_devices`]).
    pub(crate) data_dir: Option<std::path::PathBuf>,
}

/// The shared-read contract: the whole engine must stay usable from many
/// threads at once through `&Database`.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Database>();
};

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates an engine with default configuration.
    pub fn new() -> Self {
        Self::with_config(DbConfig::default())
    }

    /// Creates an engine with explicit configuration.
    ///
    /// Every layer shares one metrics [`Registry`]:
    /// the storage substrate and the engine itself intern their counters
    /// here, so
    /// [`Database::metrics_snapshot`] sees the whole stack at once.
    pub fn with_config(config: DbConfig) -> Self {
        let registry = Registry::new();
        let store = ObjectStore::with_registry(config.store, &registry);
        Self::assemble(config, registry, store)
    }

    /// Wires an engine around an already-built store. Shared by the
    /// in-memory constructor ([`Database::with_config`]) and the
    /// file-backed ones, which differ only in how the storage substrate
    /// came to be.
    fn assemble(config: DbConfig, registry: Registry, store: ObjectStore) -> Self {
        let shards = crate::shard::Shards::new(config.shards);
        let metrics = crate::metrics::CoreMetrics::new(&registry, shards.shard_count());
        metrics.shard_count.set(shards.shard_count() as i64);
        Database {
            catalog: Catalog::new(),
            store,
            shards,
            oplogs: HashMap::new(),
            next_serial: AtomicU64::new(0),
            config,
            txn: None,
            capture: Default::default(),
            metrics,
            registry,
            data_dir: None,
        }
    }

    /// Opens (or creates) a file-backed engine on `dir`.
    ///
    /// The storage substrate runs on real files — page store, append-only
    /// WAL, and a lock file that refuses a second opener — and crash
    /// recovery replays the committed WAL prefix before this returns, so an
    /// engine kill-9'd mid-commit reopens at the last durable batch
    /// boundary. The log is the one durable copy of everything, the schema
    /// included; another format version is refused with
    /// [`corion_storage::StorageError::FormatVersion`] before anything is
    /// written (DESIGN.md §16.2).
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> DbResult<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|_| corion_storage::StorageError::DeviceIo {
            op: "create data dir",
        })?;
        Self::open_over(dir, config, |r| {
            let lock = Some(corion_storage::DirLock::acquire(dir)?);
            let dm = corion_storage::DeviceMetrics::new(r);
            let disk = Arc::new(FileDisk::open(dir, dm.clone())?);
            let log = Arc::new(FileWal::open(dir, dm)?);
            Ok(ObjectStore::with_devices(config.store, r, disk, log, lock))
        })
    }

    /// The data directory this engine persists to, if file-backed.
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.data_dir.as_deref()
    }

    /// Opens a file-backed engine over *explicit* storage devices — the
    /// crash-test seam. [`Database::open`] wires real files directly; this
    /// constructor lets a harness interpose
    /// [`corion_storage::FaultyDevice`] wrappers (torn writes, lying
    /// fsyncs, EIO) over the files of `dir`, so a fault-injected engine and
    /// a later plain reopen of the same directory see the same database.
    /// No lock file is taken: the harness owns the directory's lifecycle.
    /// Otherwise it opens as [`Database::open`] does, the devices standing
    /// in for the files.
    pub fn with_devices(
        dir: impl AsRef<Path>,
        config: DbConfig,
        disk: Arc<dyn corion_storage::BlockDevice>,
        log: Arc<dyn corion_storage::LogDevice>,
    ) -> DbResult<Self> {
        Self::open_over(dir.as_ref(), config, |r| {
            Ok(ObjectStore::with_devices(config.store, r, disk, log, None))
        })
    }

    /// The one body of both opens: the store `devices` builds, then
    /// recovery (the log's version check, the stamp of a fresh log, the
    /// schema) and the derived-state rebuild — one
    /// `corion_storage_device_reopen_latency_ns` sample in all.
    fn open_over(
        dir: &Path,
        config: DbConfig,
        devices: impl FnOnce(&Registry) -> DbResult<ObjectStore>,
    ) -> DbResult<Self> {
        let started = std::time::Instant::now();
        let registry = Registry::new();
        let store = devices(&registry)?;
        let mut db = Self::assemble(config, registry, store);
        db.data_dir = Some(dir.to_path_buf());
        db.recover()?;
        corion_storage::DeviceMetrics::new(&db.registry)
            .reopen_latency
            .record(started.elapsed().as_nanos() as u64);
        Ok(db)
    }

    // ------------------------------------------------------------------
    // Atomic batches
    // ------------------------------------------------------------------

    /// Runs `f` inside one storage-level atomic batch: every page it
    /// touches is logged to the WAL and either all of them become durable
    /// or none do. Nested calls join the enclosing batch (`repair` groups
    /// its rewrites and cascades this way). `f` returning `Err` aborts the
    /// batch, and so the answer is the store's: `Ok` means durable, `Err`
    /// on a healthy store means the pages are back at the pre-batch state
    /// (the object table is the caller's to put back).
    pub(crate) fn atomic<R>(&mut self, f: impl FnOnce(&mut Self) -> DbResult<R>) -> DbResult<R> {
        if self.store.in_atomic_batch() {
            return f(self);
        }
        let _span = corion_obs::span("core", "atomic");
        let _timer = self.metrics.atomic_latency.start_timer();
        self.store.begin_atomic()?;
        match f(self) {
            Ok(out) => {
                self.commit_batch()?;
                self.metrics.atomic_commits.inc();
                Ok(out)
            }
            Err(e) => {
                let _ = self.abort_batch();
                self.metrics.atomic_aborts.inc();
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Schema
    // ------------------------------------------------------------------

    /// Defines a class — the `make-class` message (§2.3).
    ///
    /// Instances are placed in a fresh storage segment unless the builder
    /// requested co-location (`same_segment_as`), which is what enables
    /// parent clustering between the two classes.
    pub fn define_class(&mut self, builder: ClassBuilder) -> DbResult<ClassId> {
        let mut id = None;
        self.schema_message(|db| {
            let segment = match builder.share_segment_with {
                Some(other) => db.catalog.class(other)?.segment,
                None => db.store.create_segment()?,
            };
            id = Some(db.catalog.define(builder, segment)?);
            Ok(Overlay::new())
        })?;
        let id = id.expect("a message that answers Ok defined the class");
        self.shards.ensure_class(id);
        Ok(id)
    }

    /// Looks up a class by id.
    pub fn class(&self, id: ClassId) -> DbResult<&Class> {
        self.catalog.class(id)
    }

    /// Looks up a class id by name.
    pub fn class_by_name(&self, name: &str) -> DbResult<ClassId> {
        self.catalog.by_name(name)
    }

    /// The schema catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// True if `sub` IS-A `sup` (reflexive).
    pub fn is_subclass_of(&self, sub: ClassId, sup: ClassId) -> bool {
        lattice::is_subclass_of(&self.catalog, sub, sup)
    }

    // ------------------------------------------------------------------
    // Object access
    // ------------------------------------------------------------------

    /// True if `oid` resolves to a live object.
    pub fn exists(&self, oid: Oid) -> bool {
        match &self.txn {
            Some(txn) => self.view_over(&txn.overlay).exists(oid),
            None => self.shards.contains(oid),
        }
    }

    /// Loads an object, applying any pending deferred schema-evolution
    /// changes first (§4.3: "when an instance of C is accessed, the CC of
    /// the instance is checked against the CC in the operation log").
    /// Inside a transaction the answer includes the transaction's own
    /// writes.
    ///
    /// Takes `&self`: deferred changes are applied to the returned copy
    /// only, so a pure read never writes. Persistence is lazy — the next
    /// write of the object stores the caught-up image, and reapplying the
    /// pending log entries on every read until then is idempotent (the
    /// operation log is never pruned, and each flag change is a fixpoint).
    pub fn get(&self, oid: Oid) -> DbResult<Object> {
        match &self.txn {
            Some(txn) => self.view_over(&txn.overlay).get(oid),
            None => self.base_get(oid),
        }
    }

    /// [`Database::get`] of the committed base, whatever is open.
    pub(crate) fn base_get(&self, oid: Oid) -> DbResult<Object> {
        let phys = self.shards.get(oid).ok_or(DbError::NoSuchObject(oid))?;
        let bytes = self.store.read(phys)?;
        let mut obj = Object::decode(&bytes)?;
        self.apply_pending_changes(&mut obj)?;
        Ok(obj)
    }

    /// Applies pending deferred flag changes; returns `true` if the object
    /// was modified. Implemented in `evolution::deferred`.
    pub fn apply_pending_changes(&self, obj: &mut Object) -> DbResult<bool> {
        crate::evolution::deferred::apply_pending(self, obj)
    }

    /// Direct instances of `class`; with `deep`, instances of subclasses too;
    /// in OID order, inside a transaction or not.
    pub fn instances_of(&self, class: ClassId, deep: bool) -> Vec<Oid> {
        match &self.txn {
            Some(txn) => self.view_over(&txn.overlay).instances_of(class, deep),
            None => self.base_instances_of(class, deep),
        }
    }

    /// [`Database::instances_of`] of the committed base, sorted.
    pub(crate) fn base_instances_of(&self, class: ClassId, deep: bool) -> Vec<Oid> {
        let mut classes = vec![class];
        if deep {
            classes.extend(lattice::descendants(&self.catalog, class));
        }
        self.shards.members_sorted(&classes)
    }

    /// Total number of live objects (the open transaction's creations and
    /// deletions included). Outside a transaction the sum of the stripe
    /// table lengths — never a map walk.
    pub fn object_count(&self) -> usize {
        match &self.txn {
            Some(txn) => self.view_over(&txn.overlay).object_count(),
            None => self.shards.len(),
        }
    }

    // ------------------------------------------------------------------
    // Instance creation — the `make` message (§2.3)
    // ------------------------------------------------------------------

    /// Creates an instance.
    ///
    /// * `values` assigns attributes by name; unassigned attributes take
    ///   their `:init` default.
    /// * `parents` is the `:parent` clause: `(ParentObject ParentAttributeName)`
    ///   pairs. If the named parent attribute is a composite attribute the
    ///   new instance becomes part of that parent; when more than one parent
    ///   pair names composite attributes, "these attributes must be shared
    ///   composite attributes" (Topology Rule 3 enforcement, §2.3).
    /// * The new object is physically clustered with the *first* parent,
    ///   "if the classes of the two objects are stored in the same physical
    ///   segment".
    ///
    /// The whole creation — instance insert plus every parent/child wiring
    /// write — is one atomic batch, and a creation rejected half-way (a
    /// later `:parent` pair breaks a topology rule, say) leaves no trace.
    pub fn make(
        &mut self,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> DbResult<Oid> {
        self.run_op(1, |db, ov| db.overlay_make(ov, class, values, parents))
    }

    // ------------------------------------------------------------------
    // Attribute access
    // ------------------------------------------------------------------

    /// Reads one attribute by name.
    pub fn get_attr(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        let idx = self.catalog.attr_slot(oid.class, attr)?;
        Ok(self.get(oid)?.attrs[idx].clone())
    }

    /// Writes one attribute by name, maintaining composite semantics:
    /// references added to a composite attribute go through the
    /// Make-Component Rule; references removed are detached (with orphan
    /// handling per [`OrphanPolicy`]). The write plus all composite
    /// bookkeeping (attach, detach, orphan cascade) is one atomic batch; a
    /// write rejected after some of that bookkeeping ran is a no-op.
    pub fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        self.run_op(1, |db, ov| db.overlay_set_attr(ov, oid, attr, value))
    }

    /// Writes one attribute **without composite bookkeeping**: the value is
    /// domain-checked but references in it are treated as weak.
    ///
    /// This is the extension point for layers that manage their own
    /// reference semantics — specifically `corion-versions`, where dynamic
    /// bindings to *generic instances* (paper §5.1) follow the CV rules
    /// (§5.2) rather than the Make-Component Rule, and the reverse
    /// information lives in the generic instance with a ref-count (§5.3).
    /// Application code should use [`Database::set_attr`].
    pub fn set_attr_weak(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        self.run_op(1, |db, ov| db.overlay_set_attr_weak(ov, oid, attr, value))
    }

    // ------------------------------------------------------------------
    // Storage statistics (for benches and examples)
    // ------------------------------------------------------------------

    /// Buffer-pool counters.
    pub fn buffer_stats(&self) -> corion_storage::BufferStats {
        self.store.buffer_stats()
    }

    /// Physical I/O counters.
    pub fn disk_stats(&self) -> corion_storage::DiskStats {
        self.store.disk_stats()
    }

    /// Point-in-time snapshot of every metric the engine records — WAL,
    /// commit, recovery, lock, and per-operation latency
    /// counters, keyed by the names catalogued in `docs/OBSERVABILITY.md`.
    ///
    /// The snapshot is a plain data structure: it serialises with
    /// [`MetricsSnapshot::to_text`](corion_obs::MetricsSnapshot::to_text),
    /// parses back with `parse_text`, and merges across processes with
    /// `merge`. Counters are monotonic — compute deltas by snapshotting
    /// before and after a workload.
    pub fn metrics_snapshot(&self) -> corion_obs::MetricsSnapshot {
        // Occupancy gauges are refreshed lazily, at observation time, from
        // the stripe table lengths — the write path never pays for them.
        for (gauge, n) in self
            .metrics
            .shard_occupancy
            .iter()
            .zip(self.shards.occupancy())
        {
            gauge.set(n as i64);
        }
        self.registry.snapshot()
    }

    /// Renders the current metrics in the Prometheus text exposition
    /// format (what `corion stats --prometheus` prints).
    pub fn render_prometheus(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }

    /// The metrics registry every layer of this engine records into.
    /// Exposed so embedders can intern their own metrics next to the
    /// engine's or flip recording off at runtime
    /// ([`Registry::set_enabled`](corion_obs::Registry::set_enabled)).
    pub fn metrics_registry(&self) -> &corion_obs::Registry {
        &self.registry
    }

    /// The number of object-table stripes this engine was assembled with
    /// ([`DbConfig::shards`] rounded up to a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// Resets the storage counters.
    pub fn reset_io_stats(&self) {
        self.store.reset_stats();
    }

    /// Flushes and empties the page cache (cold-cache experiments).
    pub fn clear_cache(&self) -> DbResult<()> {
        Ok(self.store.clear_cache()?)
    }

    /// The storage segment a class's instances live in.
    pub fn segment_of(&self, class: ClassId) -> DbResult<SegmentId> {
        Ok(self.catalog.class(class)?.segment)
    }

    // ------------------------------------------------------------------
    // Durability & crash recovery
    // ------------------------------------------------------------------
    //
    // The crash model is the storage layer's (DESIGN.md §10): a crash loses
    // buffer-pool frames and unflushed WAL bytes but keeps disk pages and
    // flushed log bytes. Each schema change logs the schema image in its
    // own batch, so the catalog and operation logs recover with the
    // instances (see `persist`).

    /// Simulates a crash of the storage substrate: buffer-pool frames and
    /// unflushed WAL bytes are lost; disk pages and flushed WAL bytes
    /// survive. The store refuses further mutations until
    /// [`Database::recover`] runs.
    pub fn simulate_crash(&mut self) {
        self.store.simulate_crash();
    }

    /// Recovers after a crash (simulated or injected): replays the
    /// committed WAL tail into the page store, discards any torn or
    /// uncommitted suffix, installs the last committed schema image (the
    /// empty schema if none was logged), then rebuilds the engine's
    /// in-memory maps — object table, class extensions, serial counter —
    /// by scanning every recovered segment. A transaction open at the
    /// crash never committed: its write set is dropped.
    ///
    /// Idempotent: recovering an already-consistent engine is a no-op
    /// beyond the rescan.
    pub fn recover(&mut self) -> DbResult<corion_storage::RecoveryReport> {
        let report = self.store.recover()?;
        // Whatever was captured and not yet durable did not happen.
        self.capture.discard_pending();
        self.txn = None;
        (self.catalog, self.oplogs) = match self.store.schema() {
            Some(image) => Self::decode_schema(&mut corion_storage::codec::Reader::new(image))?,
            None => Default::default(),
        };
        self.rebuild_derived_state()?;
        Ok(report)
    }

    /// Rebuilds every in-memory map derived from storage — object table,
    /// class extensions, serial counter — in one pass over every page of
    /// every segment (DESIGN.md §16.3). Shared by [`Database::recover`]
    /// and [`Database::scrub`], both of which may change what storage
    /// holds.
    ///
    /// The pages, in (segment, page) scan order, are split into
    /// contiguous runs across `min(available_parallelism, stripes)`
    /// workers. Each decodes every record in full where the frame holds
    /// it, so an undecodable record fails the rebuild, and buckets its
    /// `(oid, phys)` by stripe; [`Shards::load`] then builds each stripe
    /// once. An OID found twice resolves to the record last in scan order.
    ///
    /// [`Shards::load`]: crate::shard::Shards::load
    pub(crate) fn rebuild_derived_state(&mut self) -> DbResult<()> {
        let _timer = self.metrics.rebuild_latency.start_timer();
        // Three sources raise the counter, and all must be honored: the
        // surviving in-memory value, the WAL's committed high-water notes
        // (which remember deleted objects no scan can see), and the live
        // scan below (a log fsync that lies can lose a note whose page
        // eviction already wrote back: only that page knows the serial).
        let floor = self
            .next_serial
            .load(Ordering::Relaxed)
            .max(self.store.serial_floor());
        let mut pages: Vec<(SegmentId, u64)> = Vec::new();
        for seg in self.store.segment_ids() {
            pages.extend(self.store.pages_of(seg)?.into_iter().map(|p| (seg, p)));
        }
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(self.shards.shard_count());
        let db: &Database = self;
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = pages
                .chunks(pages.len().div_ceil(workers).max(1))
                .map(|run| scope.spawn(move || db.decode_pages(run)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rebuild worker panicked"))
                .collect::<DbResult<Vec<_>>>()
        })?;
        let (buckets, serials): (Vec<_>, Vec<u64>) = parts.into_iter().unzip();
        self.shards
            .load(&self.catalog.all_classes(), &buckets, workers);
        let records = buckets.iter().flatten().map(|b| b.len() as u64).sum();
        self.metrics.rebuild_records.add(records);
        let max_serial = serials.into_iter().fold(floor, u64::max);
        self.next_serial.store(max_serial, Ordering::Relaxed);
        Ok(())
    }

    /// One rebuild worker's share of the pages: every record on `pages`,
    /// decoded in full in place, its `(oid, phys)` bucketed by stripe in
    /// scan order; and one past the highest serial it saw.
    fn decode_pages(&self, pages: &[(SegmentId, u64)]) -> DbResult<(Buckets, u64)> {
        let mut buckets = vec![Vec::new(); self.shards.shard_count()];
        let mut next_serial = 0;
        for run in pages.chunk_by(|a, b| a.0 == b.0) {
            let ids: Vec<u64> = run.iter().map(|&(_, page)| page).collect();
            self.store.scan(run[0].0, &ids, |phys, bytes| {
                let oid = Object::decode(bytes)?.oid;
                next_serial = next_serial.max(oid.serial + 1);
                buckets[self.shards.shard_of(oid)].push((oid, phys));
                Ok(())
            })?;
        }
        Ok((buckets, next_serial))
    }

    /// Current health of the storage substrate: `Healthy`, `Degraded`
    /// (read-only until [`Database::recover`]), or `Poisoned` (crashed
    /// mid-commit; reads are refused too).
    pub fn health(&self) -> corion_storage::HealthState {
        self.store.health()
    }

    /// Online scrub: verifies the checksum of every page in every segment
    /// and salvages damaged pages — from the committed WAL tail when an
    /// after-image exists, by resetting to an empty page otherwise. Records
    /// lost to a page reset disappear from the object table; run
    /// [`Database::repair`] afterwards to restore referential integrity
    /// around them. Requires a healthy store and no open batch.
    pub fn scrub(&mut self) -> DbResult<corion_storage::ScrubReport> {
        self.forbid_in_transaction("scrub")?;
        let report = self.store.scrub()?;
        self.rebuild_derived_state()?;
        Ok(report)
    }

    /// Checkpoints the WAL: the log is compacted to a snapshot of the
    /// current segment directory, the serial floor and the schema,
    /// bounding replay work. Refused while a transaction is open.
    pub fn checkpoint(&mut self) -> DbResult<()> {
        self.forbid_in_transaction("checkpoint")?;
        Ok(self.store.checkpoint()?)
    }

    /// Write-ahead-log counters (durable/pending bytes, records, flushes).
    pub fn wal_stats(&self) -> corion_storage::WalStats {
        self.store.wal_stats()
    }

    /// Arms a named crash point (see [`corion_storage::CRASH_POINTS`]): the
    /// `countdown`-th time execution reaches it, the store fails as if the
    /// process died there.
    pub fn arm_crash_point(&self, point: &'static str, countdown: u64) {
        self.store.arm_crash_point(point, countdown);
    }

    /// Disarms every crash point.
    pub fn heal_crash_points(&self) {
        self.store.heal_crash_points();
    }

    /// Remaining countdown of an armed crash point (`None` once fired or
    /// never armed).
    pub fn crash_point_remaining(&self, point: &'static str) -> Option<u64> {
        self.store.crash_point_remaining(point)
    }

    /// XORs `mask` into the durable WAL byte at `offset` (bit-rot
    /// injection for checksum tests).
    pub fn corrupt_wal_byte(&mut self, offset: usize, mask: u8) -> DbResult<()> {
        Ok(self.store.corrupt_wal_byte(offset, mask)?)
    }

    /// XORs `mask` into one byte of a page's on-disk image *without*
    /// updating the page's checksum sidecar — simulated bit rot, for
    /// [`Database::scrub`] tests.
    pub fn corrupt_page_byte(&mut self, page: u64, offset: usize, mask: u8) -> DbResult<()> {
        self.store.corrupt_page_byte(page, offset, mask)?;
        Ok(())
    }

    /// Global page numbers of a segment, in adoption order (so a test can
    /// pick pages to corrupt).
    pub fn pages_of(&self, segment: SegmentId) -> DbResult<Vec<u64>> {
        Ok(self.store.pages_of(segment)?)
    }

    // ------------------------------------------------------------------
    // Raw surgery (integrity/repair test hook)
    // ------------------------------------------------------------------

    /// Overwrites an object's stored image **without any composite
    /// bookkeeping**: no Make-Component checks, no reverse-reference
    /// maintenance, no transaction. This deliberately breaks the engine's
    /// invariants — it exists so integrity tests can construct corrupted
    /// states and so [`Database::repair`] can rewrite objects wholesale.
    /// The object must already exist.
    pub fn raw_overwrite_object(&mut self, obj: &Object) -> DbResult<()> {
        self.forbid_in_transaction("overwrite a stored image")?;
        let mut overlay = Overlay::new();
        overlay.record_save(obj.clone());
        self.overlay_apply(overlay).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr::{CompositeSpec, Domain};

    fn simple_db() -> (Database, ClassId, ClassId) {
        let mut db = Database::new();
        let part = db
            .define_class(ClassBuilder::new("Part").attr("name", Domain::String))
            .unwrap();
        let asm = db
            .define_class(
                ClassBuilder::new("Assembly")
                    .attr("label", Domain::String)
                    .attr_composite(
                        "parts",
                        Domain::SetOf(Box::new(Domain::Class(part))),
                        CompositeSpec {
                            exclusive: true,
                            dependent: true,
                        },
                    ),
            )
            .unwrap();
        (db, part, asm)
    }

    #[test]
    fn a_raw_overwrite_that_fails_to_commit_keeps_the_object_where_it_was() {
        let (mut db, part, _) = simple_db();
        let p = db
            .make(part, vec![("name", Value::Str("small".into()))], vec![])
            .unwrap();
        // Growing past a page relocates the record into an overflow chain;
        // then a clean crash while the commit's log records are assembled
        // rolls the commit back.
        let mut big = db.get(p).unwrap();
        big.attrs[0] = Value::Str("x".repeat(5000));
        db.arm_crash_point(corion_storage::CP_COMMIT_LOG, 1);
        assert!(db.raw_overwrite_object(&big).is_err());
        db.heal_crash_points();
        assert_eq!(db.get_attr(p, "name").unwrap(), Value::Str("small".into()));
        db.verify_integrity().unwrap();
    }

    #[test]
    fn make_applies_defaults_and_overrides() {
        let mut db = Database::new();
        let c = db
            .define_class(
                ClassBuilder::new("C")
                    .attr("a", Domain::Integer)
                    .attr("b", Domain::String),
            )
            .unwrap();
        let o = db
            .make(c, vec![("b", Value::Str("x".into()))], vec![])
            .unwrap();
        assert_eq!(db.get_attr(o, "a").unwrap(), Value::Null);
        assert_eq!(db.get_attr(o, "b").unwrap(), Value::Str("x".into()));
    }

    #[test]
    fn make_rejects_unknown_attribute_and_bad_domain() {
        let (mut db, part, _asm) = simple_db();
        assert!(db
            .make(part, vec![("nope", Value::Int(1))], vec![])
            .is_err());
        assert!(db
            .make(part, vec![("name", Value::Int(1))], vec![])
            .is_err());
    }

    #[test]
    fn composite_value_at_make_wires_reverse_refs() {
        let (mut db, part, asm) = simple_db();
        let p1 = db.make(part, vec![], vec![]).unwrap();
        let p2 = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p1), Value::Ref(p2)]))],
                vec![],
            )
            .unwrap();
        let p1_obj = db.get(p1).unwrap();
        assert_eq!(p1_obj.dx(), vec![a]);
        assert_eq!(db.get(p2).unwrap().dx(), vec![a]);
    }

    #[test]
    fn parent_clause_makes_new_instance_a_component() {
        let (mut db, part, asm) = simple_db();
        let a = db.make(asm, vec![], vec![]).unwrap();
        let p = db.make(part, vec![], vec![(a, "parts")]).unwrap();
        assert!(db.get_attr(a, "parts").unwrap().references(p));
        assert_eq!(db.get(p).unwrap().dx(), vec![a]);
    }

    #[test]
    fn multi_parent_creation_requires_shared_attributes() {
        let (mut db, part, asm) = simple_db();
        let a1 = db.make(asm, vec![], vec![]).unwrap();
        let a2 = db.make(asm, vec![], vec![]).unwrap();
        let err = db
            .make(part, vec![], vec![(a1, "parts"), (a2, "parts")])
            .unwrap_err();
        assert!(matches!(err, DbError::TopologyViolation { rule: 3, .. }));
        // And the failed make must not leave a half-created instance behind.
        assert_eq!(db.instances_of(part, false).len(), 0);
    }

    #[test]
    fn multi_parent_creation_through_shared_attributes_succeeds() {
        let mut db = Database::new();
        let sec = db.define_class(ClassBuilder::new("Section")).unwrap();
        let doc = db
            .define_class(ClassBuilder::new("Document").attr_composite(
                "sections",
                Domain::SetOf(Box::new(Domain::Class(sec))),
                CompositeSpec {
                    exclusive: false,
                    dependent: true,
                },
            ))
            .unwrap();
        let d1 = db.make(doc, vec![], vec![]).unwrap();
        let d2 = db.make(doc, vec![], vec![]).unwrap();
        let s = db
            .make(sec, vec![], vec![(d1, "sections"), (d2, "sections")])
            .unwrap();
        let sobj = db.get(s).unwrap();
        let mut ds = sobj.ds();
        ds.sort();
        assert_eq!(ds, vec![d1, d2]);
    }

    #[test]
    fn set_attr_detaches_removed_components() {
        let (mut db, part, asm) = simple_db();
        let p1 = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p1)]))],
                vec![],
            )
            .unwrap();
        // Replace the set with an empty one: p1 is a dependent orphan and is
        // deleted under the default policy.
        db.set_attr(a, "parts", Value::Set(vec![])).unwrap();
        assert!(!db.exists(p1));
    }

    #[test]
    fn keep_orphans_policy_preserves_detached_components() {
        let mut db = Database::with_config(DbConfig {
            orphan_policy: OrphanPolicy::KeepOrphans,
            ..DbConfig::default()
        });
        let part = db.define_class(ClassBuilder::new("Part")).unwrap();
        let asm = db
            .define_class(ClassBuilder::new("Assembly").attr_composite(
                "parts",
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        let p1 = db.make(part, vec![], vec![]).unwrap();
        let a = db
            .make(
                asm,
                vec![("parts", Value::Set(vec![Value::Ref(p1)]))],
                vec![],
            )
            .unwrap();
        db.set_attr(a, "parts", Value::Set(vec![])).unwrap();
        assert!(db.exists(p1));
        assert!(db.get(p1).unwrap().reverse_refs.is_empty());
    }

    #[test]
    fn instances_of_with_subclasses() {
        let mut db = Database::new();
        let a = db.define_class(ClassBuilder::new("A")).unwrap();
        let b = db
            .define_class(ClassBuilder::new("B").superclass(a))
            .unwrap();
        let _oa = db.make(a, vec![], vec![]).unwrap();
        let _ob = db.make(b, vec![], vec![]).unwrap();
        assert_eq!(db.instances_of(a, false).len(), 1);
        assert_eq!(db.instances_of(a, true).len(), 2);
    }

    #[test]
    fn clustering_places_child_near_first_parent() {
        let mut db = Database::new();
        let asm = db.define_class(ClassBuilder::new("Assembly")).unwrap();
        let part = db
            .define_class(ClassBuilder::new("Part").same_segment_as(asm))
            .unwrap();
        assert_eq!(db.segment_of(asm).unwrap(), db.segment_of(part).unwrap());
        let _ = part;
    }

    #[test]
    fn get_nonexistent_object_fails() {
        let mut db = Database::new();
        let c = db.define_class(ClassBuilder::new("C")).unwrap();
        let ghost = Oid::new(c, 999);
        assert!(matches!(db.get(ghost), Err(DbError::NoSuchObject(_))));
        assert!(!db.exists(ghost));
    }

    #[test]
    fn weak_reference_needs_live_target() {
        let mut db = Database::new();
        let t = db.define_class(ClassBuilder::new("T")).unwrap();
        let c = db
            .define_class(ClassBuilder::new("C").attr("friend", Domain::Class(t)))
            .unwrap();
        let ghost = Oid::new(t, 12345);
        assert!(db
            .make(c, vec![("friend", Value::Ref(ghost))], vec![])
            .is_err());
        let live = db.make(t, vec![], vec![]).unwrap();
        let o = db
            .make(c, vec![("friend", Value::Ref(live))], vec![])
            .unwrap();
        // Weak references carry no IS-PART-OF semantics: no reverse ref.
        assert!(db.get(live).unwrap().reverse_refs.is_empty());
        assert_eq!(db.get_attr(o, "friend").unwrap(), Value::Ref(live));
    }

    #[test]
    fn ref_domain_enforces_class_membership() {
        let mut db = Database::new();
        let t = db.define_class(ClassBuilder::new("T")).unwrap();
        let u = db.define_class(ClassBuilder::new("U")).unwrap();
        let c = db
            .define_class(ClassBuilder::new("C").attr("friend", Domain::Class(t)))
            .unwrap();
        let wrong = db.make(u, vec![], vec![]).unwrap();
        assert!(matches!(
            db.make(c, vec![("friend", Value::Ref(wrong))], vec![]),
            Err(DbError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn an_undecodable_record_fails_the_open_and_the_dump() {
        let dir = std::env::temp_dir().join(format!("corion_undecodable_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = Database::open(&dir, DbConfig::default()).unwrap();
        let part = db
            .define_class(ClassBuilder::new("Part").attr("name", Domain::String))
            .unwrap();
        db.make(part, vec![], vec![]).unwrap();
        let garbage = [0xffu8; 5];
        let seg = db.catalog.class(part).unwrap().segment;
        db.store.insert(seg, &garbage, None).unwrap();
        assert!(db.dump().is_err(), "a dump does not leave it out");
        assert!(matches!(db.recover(), Err(DbError::Storage(_))));
        drop(db);
        let want = format!("{:?}", DbError::from(Object::decode(&garbage).unwrap_err()));
        match Database::open(&dir, DbConfig::default()) {
            Err(e) => assert_eq!(format!("{e:?}"), want),
            Ok(_) => panic!("a directory holding an undecodable record opened"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_duplicate_oid_resolves_to_the_record_last_in_scan_order() {
        for shards in [1, 16] {
            let mut db = Database::with_config(DbConfig {
                shards,
                ..DbConfig::default()
            });
            let part = db
                .define_class(ClassBuilder::new("Part").attr("name", Domain::String))
                .unwrap();
            let oids: Vec<Oid> = (0..400)
                .map(|i| {
                    let name = Value::Str(format!("{i:0>200}"));
                    db.make(part, vec![("name", name)], vec![]).unwrap()
                })
                .collect();
            let (first, last) = (oids[0], oids[399]);
            // Room on the first page, then a second copy of the first
            // object beside the last one, and of the last beside the first.
            db.delete(oids[1]).unwrap();
            db.delete(oids[2]).unwrap();
            let seg = db.catalog.class(part).unwrap().segment;
            for (oid, near) in [(first, last), (last, first)] {
                let mut copy = db.get(oid).unwrap();
                copy.attrs[0] = Value::Str("copy".into());
                let mut bytes = Vec::new();
                copy.encode(&mut bytes);
                db.store.insert(seg, &bytes, db.shards.get(near)).unwrap();
            }
            let mut last_seen = HashMap::new();
            let pages = db.store.pages_of(seg).unwrap();
            db.store
                .scan(seg, &pages, |phys, bytes| {
                    last_seen.insert(Object::decode(bytes)?.oid, phys);
                    Ok(())
                })
                .unwrap();
            db.recover().unwrap();
            assert_eq!(db.object_count(), 398, "shards={shards}");
            for oid in [first, last] {
                assert_eq!(db.shards.get(oid), last_seen.get(&oid).copied());
            }
            // The copy of the first object lies after it, the copy of the
            // last one before it: one copy wins, one original.
            let name = |oid| db.get_attr(oid, "name").unwrap();
            assert_eq!(name(first), Value::Str("copy".into()), "shards={shards}");
            assert_eq!(
                name(last),
                Value::Str(format!("{:0>200}", 399)),
                "shards={shards}"
            );
        }
    }
}
