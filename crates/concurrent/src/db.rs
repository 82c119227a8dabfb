//! The concurrent engine handle: shared state, snapshots, write
//! transactions, recovery.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use corion_core::{ChangeSet, Database, DbConfig, DbResult};
use corion_lock::LockManager;
use corion_obs::{Counter, Histogram, Registry, LATENCY_BOUNDS_NS};
use corion_storage::{Lsn, VersionStore};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::snapshot::Snapshot;
use crate::txn::WriteTxn;

/// Engine-level metric handles (`corion_mvcc_txn_*` and the engine-latch
/// `corion_shard_latch_*` family). The lock manager's `corion_lock_*`
/// family and the version store's `corion_mvcc_*` family are interned in
/// the same registry.
pub(crate) struct EngineMetrics {
    /// `corion_mvcc_txn_begins_total`: write transactions opened.
    pub(crate) begins: Counter,
    /// `corion_mvcc_txn_commits_total`: write transactions committed.
    pub(crate) commits: Counter,
    /// `corion_mvcc_txn_aborts_total`: write transactions aborted
    /// (explicitly, on drop, or as deadlock victims).
    pub(crate) aborts: Counter,
    /// `corion_mvcc_txn_deadlocks_total`: transactions aborted as
    /// deadlock victims (also counted in `aborts`).
    pub(crate) deadlocks: Counter,
    /// `corion_mvcc_snapshot_traversals_total`: §3 traversals answered
    /// from a [`Snapshot`]. This and the two counters below are bumped
    /// once per traversal, not per object.
    pub(crate) traversals: Counter,
    /// `corion_mvcc_snapshot_objects_visited_total`: objects those
    /// traversals asked their view about.
    pub(crate) objects_visited: Counter,
    /// `corion_mvcc_snapshot_records_read_total`: of those, the ones
    /// whose record was materialised (chain image decoded or base record
    /// read) — the rest were leaves answered on visibility alone.
    pub(crate) records_read: Counter,
    /// `corion_shard_latch_wait_ns`: time spent *acquiring* the engine
    /// latch (either side) for operation execution or commit publish.
    /// The operation side is shared, so its waits cluster near zero
    /// unless a commit is publishing.
    pub(crate) latch_wait: Histogram,
    /// `corion_shard_latch_hold_ns`: time the engine latch was *held*
    /// per acquisition — operation execution (in-transaction reads
    /// included) or commit publish.
    pub(crate) latch_hold: Histogram,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
        EngineMetrics {
            begins: registry.counter("corion_mvcc_txn_begins_total"),
            commits: registry.counter("corion_mvcc_txn_commits_total"),
            aborts: registry.counter("corion_mvcc_txn_aborts_total"),
            deadlocks: registry.counter("corion_mvcc_txn_deadlocks_total"),
            traversals: registry.counter("corion_mvcc_snapshot_traversals_total"),
            objects_visited: registry.counter("corion_mvcc_snapshot_objects_visited_total"),
            records_read: registry.counter("corion_mvcc_snapshot_records_read_total"),
            latch_wait: registry.histogram("corion_shard_latch_wait_ns", LATENCY_BOUNDS_NS),
            latch_hold: registry.histogram("corion_shard_latch_hold_ns", LATENCY_BOUNDS_NS),
        }
    }
}

/// Where the engine's change stream goes: the one registered consumer of
/// the [`ChangeSet`]s the core releases at each durable commit
/// (`corion_core::capture`).
pub trait ChangeSink: Send + Sync {
    /// Called once per released set, in commit order, by the thread that
    /// committed it, while it still holds the exclusive latch: the commit
    /// is already visible to a new snapshot, no later commit can overtake
    /// the call, and nobody else can be attaching (that takes the shared
    /// latch). The implementation must not block — a committer, and every
    /// other committer behind it, waits for it to return. `db` is there to
    /// switch capture off ([`Database::set_change_capture`]) when the last
    /// listener is gone.
    fn deliver(&self, db: &Database, set: ChangeSet);
}

/// State shared by every handle, snapshot, and transaction of one engine.
pub(crate) struct Shared {
    /// The single-threaded engine behind a reader-writer latch. Readers
    /// (snapshot base fallbacks, lock planning, per-operation overlay
    /// execution, in-transaction reads) take the shared side; only the
    /// commit-publish critical section and maintenance take the exclusive
    /// side *briefly* — transactions never hold either side across lock
    /// waits or between operations.
    pub(crate) db: RwLock<Database>,
    /// The §7 lock manager. Lock waits block **outside** the latch.
    pub(crate) locks: LockManager,
    /// MVCC version chains + snapshot pins + visible-LSN watermark.
    pub(crate) versions: VersionStore,
    /// Bumped by [`ConcurrentDb::recover`]; snapshots and transactions
    /// capture it at begin and fail fast when it moves (their pinned
    /// state did not survive the crash-recovery rebuild).
    pub(crate) epoch: AtomicU64,
    /// Commits since the last automatic vacuum.
    pub(crate) commits_since_vacuum: AtomicU64,
    /// See [`ConcurrentDb::set_change_sink`].
    sink: RwLock<Option<Arc<dyn ChangeSink>>>,
    pub(crate) metrics: EngineMetrics,
}

/// A *shared* latch acquisition for operation execution. Records the
/// hold duration into `corion_shard_latch_hold_ns` on release.
pub(crate) struct OpLatch<'a> {
    guard: RwLockReadGuard<'a, Database>,
    hold: Histogram,
    since: Instant,
}

impl Deref for OpLatch<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.guard
    }
}

impl Drop for OpLatch<'_> {
    fn drop(&mut self) {
        self.hold.record(self.since.elapsed().as_nanos() as u64);
    }
}

/// An *exclusive* latch acquisition — the commit-publish critical section
/// and every maintenance path. On release it
/// hands the change sets its holder made durable to the registered
/// [`ChangeSink`], then records the hold duration.
pub(crate) struct ExclusiveLatch<'a> {
    guard: RwLockWriteGuard<'a, Database>,
    shared: &'a Shared,
    since: Instant,
}

impl Deref for ExclusiveLatch<'_> {
    type Target = Database;
    fn deref(&self) -> &Database {
        &self.guard
    }
}

impl DerefMut for ExclusiveLatch<'_> {
    fn deref_mut(&mut self) -> &mut Database {
        &mut self.guard
    }
}

impl Drop for ExclusiveLatch<'_> {
    fn drop(&mut self) {
        // Still latched: delivery order is latch order is commit order.
        // Empty (and allocation-free) whenever capture is off.
        let released = self.guard.take_released_changes();
        if !released.is_empty() {
            if let Some(sink) = self.shared.sink.read().as_ref() {
                for set in released {
                    sink.deliver(&self.guard, set);
                }
            }
        }
        self.shared
            .metrics
            .latch_hold
            .record(self.since.elapsed().as_nanos() as u64);
    }
}

impl Shared {
    /// Latch the engine for one operation's overlay execution: the shared
    /// side — concurrent writers on disjoint composites execute in
    /// parallel, serialized only by the §7 locks they already hold.
    /// Acquisition time lands in `corion_shard_latch_wait_ns`.
    pub(crate) fn op_latch(&self) -> OpLatch<'_> {
        let wait = Instant::now();
        let guard = self.db.read();
        self.metrics
            .latch_wait
            .record(wait.elapsed().as_nanos() as u64);
        OpLatch {
            guard,
            hold: self.metrics.latch_hold.clone(),
            since: Instant::now(),
        }
    }

    /// Latch the engine exclusively — the short commit-publish critical
    /// section (overlay apply, LSN allocation, version publish),
    /// `with_exclusive`, recovery and vacuum: no
    /// path takes the write side any other way, so none can commit past
    /// the change sink. Acquisition time lands in
    /// `corion_shard_latch_wait_ns`.
    pub(crate) fn exclusive_latch(&self) -> ExclusiveLatch<'_> {
        let wait = Instant::now();
        let guard = self.db.write();
        self.metrics
            .latch_wait
            .record(wait.elapsed().as_nanos() as u64);
        ExclusiveLatch {
            guard,
            shared: self,
            since: Instant::now(),
        }
    }
}

/// How many commits between automatic version-store vacuums.
const VACUUM_INTERVAL: u64 = 64;

/// A thread-safe, cheaply cloneable handle to a CORION engine supporting
/// concurrent transactions. See the [crate docs](crate) for the
/// architecture.
#[derive(Clone)]
pub struct ConcurrentDb {
    pub(crate) shared: Arc<Shared>,
}

impl ConcurrentDb {
    /// Wrap an engine with default configuration.
    pub fn new() -> Self {
        Self::from_database(Database::new())
    }

    /// Wrap an engine with explicit configuration.
    pub fn with_config(config: DbConfig) -> Self {
        Self::from_database(Database::with_config(config))
    }

    /// Wrap an existing engine (e.g. one that already has a schema and
    /// data). The engine's metrics registry is reused, so the
    /// `corion_lock_*` / `corion_mvcc_*` families land beside the
    /// existing `corion_*` metrics.
    pub fn from_database(db: Database) -> Self {
        let registry = db.metrics_registry().clone();
        ConcurrentDb {
            shared: Arc::new(Shared {
                db: RwLock::new(db),
                locks: LockManager::with_registry(&registry),
                versions: VersionStore::with_registry(&registry),
                epoch: AtomicU64::new(0),
                commits_since_vacuum: AtomicU64::new(0),
                sink: RwLock::new(None),
                metrics: EngineMetrics::new(&registry),
            }),
        }
    }

    // ----------------------------------------------------------------
    // Transactions
    // ----------------------------------------------------------------

    /// Pin a read [`Snapshot`] at the current visible commit LSN. The
    /// snapshot observes exactly the transactions that committed at or
    /// below that LSN; its reads take no locks and never block on
    /// writers. Dropping it releases the pin (unblocking version GC).
    pub fn begin_read(&self) -> Snapshot {
        Snapshot::begin(Arc::clone(&self.shared))
    }

    /// Open a write transaction. Operations acquire §7 composite locks
    /// as they go; [`WriteTxn::commit`] applies the write set atomically
    /// and [`WriteTxn::abort`] (or drop) discards it.
    pub fn begin_write(&self) -> WriteTxn {
        self.shared.metrics.begins.inc();
        WriteTxn::begin(Arc::clone(&self.shared))
    }

    /// Run `body` in a write transaction with automatic commit and
    /// retry: a [retryable](corion_core::DbError::is_retryable) failure
    /// (a deadlock victim) aborts, backs off, and reruns `body` in a fresh
    /// transaction. Every other error aborts and propagates — a storage
    /// fault included, since the commit it interrupted may be in doubt.
    pub fn run_write<R>(&self, mut body: impl FnMut(&mut WriteTxn) -> DbResult<R>) -> DbResult<R> {
        const MAX_ATTEMPTS: u32 = 64;
        let mut attempt = 0;
        loop {
            let mut txn = self.begin_write();
            let result = body(&mut txn);
            let outcome = match result {
                Ok(value) => txn.commit().map(|_| value),
                Err(e) => {
                    txn.abort();
                    Err(e)
                }
            };
            match outcome {
                Ok(value) => return Ok(value),
                Err(e) if e.is_retryable() && attempt < MAX_ATTEMPTS => {
                    attempt += 1;
                    // Brief, attempt-scaled backoff so two colliding
                    // retry loops do not re-deadlock in lockstep.
                    for _ in 0..attempt {
                        std::thread::yield_now();
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ----------------------------------------------------------------
    // Escape hatches
    // ----------------------------------------------------------------

    /// Run `f` with shared read access to the underlying engine. The
    /// view is the *latest committed base state* (not a snapshot);
    /// concurrent commits are excluded for the duration. Intended for
    /// metrics, stats, and test assertions.
    pub fn with_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.shared.db.read())
    }

    /// Run `f` with exclusive access to the underlying engine —
    /// stop-the-world. This is the DDL and maintenance path (schema
    /// definition, checkpointing, bulk ingest via the single-threaded
    /// API): it bypasses locking **and** versioning, so run it before
    /// concurrent work starts or after it quiesces. Mutations made here
    /// are invisible to version chains; snapshots pinned across an
    /// exclusive mutation may observe it (the base fallback changes
    /// under them).
    pub fn with_exclusive<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.shared.exclusive_latch())
    }

    /// Registers `sink` as the consumer of this engine's change stream,
    /// replacing any earlier one. Registering captures nothing by itself:
    /// the sink raises [`Database::set_change_capture`] while it has
    /// listeners (under [`ConcurrentDb::with_read`], so no batch is half
    /// captured) and lowers it when the last one leaves.
    pub fn set_change_sink(&self, sink: Arc<dyn ChangeSink>) {
        *self.shared.sink.write() = Some(sink);
    }

    // ----------------------------------------------------------------
    // Recovery and maintenance
    // ----------------------------------------------------------------

    /// Crash-recover the underlying engine: replay the WAL, rebuild
    /// derived state, clear all version chains, and fence every live
    /// snapshot and transaction (their epoch check fails from now on).
    pub fn recover(&self) -> DbResult<corion_storage::RecoveryReport> {
        let mut db = self.shared.exclusive_latch();
        let report = db.recover()?;
        self.shared.versions.clear();
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(report)
    }

    /// Vacuum the version store now (commits are excluded while it
    /// runs). Returns the number of version entries reclaimed.
    pub fn vacuum(&self) -> u64 {
        let _guard = self.shared.exclusive_latch();
        self.shared.versions.vacuum()
    }

    /// Called by commit under the exclusive latch: periodic vacuum.
    pub(crate) fn maybe_vacuum_locked(shared: &Shared) {
        let n = shared.commits_since_vacuum.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(VACUUM_INTERVAL) {
            shared.versions.vacuum();
        }
    }

    // ----------------------------------------------------------------
    // Introspection
    // ----------------------------------------------------------------

    /// The highest fully committed (visible) LSN.
    pub fn visible_lsn(&self) -> Lsn {
        self.shared.versions.visible_lsn()
    }

    /// Number of live pinned snapshots.
    pub fn pinned_snapshots(&self) -> usize {
        self.shared.versions.pinned_snapshots()
    }

    /// Snapshot of every metric in the engine's registry (storage, core,
    /// lock, and MVCC families).
    pub fn metrics_snapshot(&self) -> corion_obs::MetricsSnapshot {
        self.with_read(|db| db.metrics_snapshot())
    }
}

impl Default for ConcurrentDb {
    fn default() -> Self {
        Self::new()
    }
}

/// The engine handle is shared across threads by design.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ConcurrentDb>();
    assert_send_sync::<Snapshot>();
};
