//! Write transactions: §7 composite locking, overlay buffering, strict
//! two-phase commit.
//!
//! Every operation follows the same shape:
//!
//! 1. **Plan** the §7 lock set for the objects the operation touches,
//!    under the engine's shared latch (root discovery through the
//!    transaction's own overlay).
//! 2. **Acquire** the locks through the blocking manager, *outside* any
//!    latch, re-planning to a fixpoint (the topology may shift between
//!    plan and grant). A waits-for cycle aborts this transaction as the
//!    victim with the retryable [`DbError::Deadlock`].
//! 3. **Execute** the operation against the engine's *external-overlay*
//!    API ([`Database::overlay_make`] and friends) — the full
//!    single-threaded semantics (topology rules, cascades, clustering
//!    hints) run unchanged, reading the base through `&Database` and
//!    writing only this transaction's private overlay. That takes the
//!    **shared** side of the engine latch, so writers on disjoint
//!    composites execute in parallel, serialized only by the §7 locks
//!    they hold; object-table reads stripe across the per-shard locks.
//!    The latch is held for the duration of the operation, not the
//!    transaction, and an operation the engine rejects leaves the
//!    overlay as it found it.
//!
//! [`WriteTxn::commit`] is the only point where the shared page store
//! changes, and a commit that writes takes the engine latch once, on its
//! exclusive side: it replays the overlay as **one** atomic WAL batch
//! ([`Database::overlay_apply`]), takes the WAL LSN of its commit marker
//! as the commit LSN, seeds each displaced record as the object's
//! pre-image and publishes each written record at that LSN, and advances
//! the visible watermark to it. The seeds and after-images are the bytes
//! the apply reports — what the page store held and what it now holds —
//! so the commit itself reads, decodes and encodes no object. Then the
//! latch drops and every lock is released (strict 2PL: nothing is
//! released before commit/abort). Latch acquisition and hold times land
//! in the `corion_shard_latch_wait_ns` / `corion_shard_latch_hold_ns`
//! histograms.

use std::collections::HashSet;
use std::sync::Arc;

use corion_core::{ClassId, Database};
use corion_core::{DbError, DbResult, Object, Oid, Overlay, OverlayView, Value};
use corion_lock::{LockError, LockIntent, LockMode, Lockable, TxnId};
use corion_storage::Lsn;

use crate::db::{ConcurrentDb, Shared};
use crate::plan::{plan, targets_below, OpTarget};
use crate::vkey;

/// A concurrent write transaction. Obtain with
/// [`ConcurrentDb::begin_write`]; finish with [`commit`](WriteTxn::commit)
/// or [`abort`](WriteTxn::abort) (dropping aborts).
pub struct WriteTxn {
    shared: Arc<Shared>,
    txn: TxnId,
    /// The pin generation the transaction began in (the recovery fence).
    epoch: u64,
    /// The private write set; `None` once the transaction is done.
    overlay: Option<Overlay>,
    held: HashSet<(Lockable, LockMode)>,
    /// Set when the transaction aborted (deadlock victim or explicit):
    /// every further operation fails fast.
    done: bool,
    /// Operations executed (for error messages only).
    ops: u64,
}

impl WriteTxn {
    pub(crate) fn begin(shared: Arc<Shared>) -> Self {
        let txn = shared.locks.begin();
        let epoch = shared.versions.generation();
        WriteTxn {
            shared,
            txn,
            epoch,
            overlay: Some(Overlay::new()),
            held: HashSet::new(),
            done: false,
            ops: 0,
        }
    }

    /// The lock-manager transaction id (diagnostics).
    pub fn id(&self) -> TxnId {
        self.txn
    }

    fn ensure_open(&mut self) -> DbResult<()> {
        if self.done {
            return Err(DbError::TransactionState {
                reason: "the transaction is no longer open (committed or aborted)".into(),
            });
        }
        if self.shared.versions.generation() != self.epoch {
            // A fenced transaction can never commit; holding its locks
            // any longer would only block post-recovery work.
            self.abort_internal();
            return Err(DbError::TransactionState {
                reason: "the engine recovered while this transaction was open".into(),
            });
        }
        Ok(())
    }

    /// Abort internally (release locks, drop the write set) and mark the
    /// transaction done. Idempotent.
    fn abort_internal(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.overlay = None;
        self.shared.locks.release_all(self.txn);
        self.shared.metrics.aborts.inc();
    }

    /// Acquire the §7 lock set for `targets`, re-planning to a fixpoint.
    fn acquire_for(&mut self, targets: &[OpTarget], intent: LockIntent) -> DbResult<()> {
        // Convergence bound: every iteration but the last acquires at
        // least one new lock, and plans are finite. The cap turns a
        // pathological plan/commit race into a retryable error instead
        // of a livelock.
        const MAX_ROUNDS: u32 = 64;
        for _ in 0..MAX_ROUNDS {
            let wanted: Vec<(Lockable, LockMode)> = {
                let db = self.shared.db.read();
                let overlay = self.overlay.as_ref().expect("open txn has an overlay");
                plan(&db, overlay, targets, intent)
            };
            let fresh: Vec<(Lockable, LockMode)> = wanted
                .into_iter()
                .filter(|l| !self.held.contains(l))
                .collect();
            if fresh.is_empty() {
                return Ok(());
            }
            for (resource, mode) in fresh {
                match self.shared.locks.lock(self.txn, resource, mode) {
                    Ok(()) => {
                        self.held.insert((resource, mode));
                    }
                    Err(LockError::Deadlock { cycle, .. }) => {
                        self.shared.metrics.deadlocks.inc();
                        self.abort_internal();
                        let cycle = cycle
                            .iter()
                            .map(|t| format!("t{}", t.0))
                            .collect::<Vec<_>>()
                            .join(" -> ");
                        return Err(DbError::Deadlock { cycle });
                    }
                    Err(e) => {
                        self.abort_internal();
                        return Err(DbError::TransactionState {
                            reason: format!("lock acquisition failed: {e}"),
                        });
                    }
                }
            }
        }
        self.abort_internal();
        Err(DbError::Deadlock {
            cycle: "lock planning did not converge (topology churn)".into(),
        })
    }

    /// Execute one operation through this transaction's overlay, under the
    /// shared operation latch.
    fn exec_op<R>(
        &mut self,
        f: impl FnOnce(&Database, &mut Overlay) -> DbResult<R>,
    ) -> DbResult<R> {
        let db = self.shared.op_latch();
        if self.shared.versions.generation() != self.epoch {
            drop(db);
            self.abort_internal();
            return Err(DbError::TransactionState {
                reason: "the engine recovered while this transaction was open".into(),
            });
        }
        let overlay = self.overlay.as_mut().expect("open txn has an overlay");
        let result = f(&db, overlay);
        drop(db);
        self.ops += 1;
        result
    }

    /// Plan + acquire + execute one operation.
    fn run_op<R>(
        &mut self,
        targets: &[OpTarget],
        intent: LockIntent,
        f: impl FnOnce(&Database, &mut Overlay) -> DbResult<R>,
    ) -> DbResult<R> {
        self.ensure_open()?;
        self.acquire_for(targets, intent)?;
        self.exec_op(f)
    }

    // ----------------------------------------------------------------
    // Mutations
    // ----------------------------------------------------------------

    /// Create an instance — the concurrent `make` (§2.3). Locks the
    /// target class in IX plus the composite lock set of every parent's
    /// root, then runs the full single-threaded `make` semantics against
    /// the overlay.
    pub fn make(
        &mut self,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> DbResult<Oid> {
        // A parentless make is *direct* access to the class (IX). A make
        // with composite parents creates the instance through the
        // composite path: the parents' root locksets already cover its
        // class in IXO, and a direct IX here would wrongly conflict with
        // other composite writers of the same hierarchy (§7: O-modes
        // exclude direct modes, not each other).
        let mut targets = Vec::new();
        if parents.is_empty() {
            targets.push(OpTarget::NewInstance(class));
        }
        for (p, _) in &parents {
            targets.push(OpTarget::Object(*p));
        }
        for (_, v) in &values {
            for r in v.refs() {
                targets.push(OpTarget::Object(r));
            }
        }
        self.run_op(&targets, LockIntent::Write, |db, ov| {
            db.overlay_make(ov, class, values, parents)
        })
    }

    /// Assign an attribute (composite semantics included: detached
    /// components are handled exactly as in the single-threaded engine).
    pub fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        let mut targets = vec![OpTarget::Object(oid)];
        for r in value.refs() {
            targets.push(OpTarget::Object(r));
        }
        self.run_op(&targets, LockIntent::Write, |db, ov| {
            db.overlay_set_attr(ov, oid, attr, value)
        })
    }

    /// Assign a weak (non-composite) reference attribute.
    pub fn set_attr_weak(&mut self, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
        let mut targets = vec![OpTarget::Object(oid)];
        for r in value.refs() {
            targets.push(OpTarget::Object(r));
        }
        self.run_op(&targets, LockIntent::Write, |db, ov| {
            db.overlay_set_attr_weak(ov, oid, attr, value)
        })
    }

    /// Delete an object and cascade per the Deletion Rule. The lock plan
    /// covers the whole subtree — shared components of the victim may
    /// belong to other composite objects, and dropping the reverse
    /// reference mutates them, so each such root is locked too.
    pub fn delete(&mut self, root: Oid) -> DbResult<Vec<Oid>> {
        self.ensure_open()?;
        let targets: Vec<OpTarget> = {
            let db = self.shared.db.read();
            let overlay = self.overlay.as_ref().expect("open txn has an overlay");
            targets_below(&db, overlay, root)
        };
        self.run_op(&targets, LockIntent::Write, |db, ov| {
            db.overlay_delete(ov, root)
        })
    }

    /// Make `child` a component of `parent` through composite attribute
    /// `attr` (the Make-Component Rule applies unchanged).
    pub fn make_component(&mut self, child: Oid, parent: Oid, attr: &str) -> DbResult<()> {
        let targets = [OpTarget::Object(child), OpTarget::Object(parent)];
        self.run_op(&targets, LockIntent::Write, |db, ov| {
            db.overlay_make_component(ov, child, parent, attr)
        })
    }

    /// Remove `child` from `parent`'s composite attribute `attr`
    /// (orphan policy applies, possibly cascading into the child).
    pub fn remove_component(&mut self, child: Oid, parent: Oid, attr: &str) -> DbResult<()> {
        self.ensure_open()?;
        let targets: Vec<OpTarget> = {
            let db = self.shared.db.read();
            let overlay = self.overlay.as_ref().expect("open txn has an overlay");
            let mut t = targets_below(&db, overlay, child);
            t.push(OpTarget::Object(parent));
            t
        };
        self.run_op(&targets, LockIntent::Write, |db, ov| {
            db.overlay_remove_component(ov, child, parent, attr)
        })
    }

    // ----------------------------------------------------------------
    // Reads (locking reads — snapshots are the lock-free alternative)
    // ----------------------------------------------------------------

    /// Read an object, seeing this transaction's own writes. Takes the
    /// §7 Read lock set for the object's composite (IS/S/ISO…).
    pub fn get(&mut self, oid: Oid) -> DbResult<Object> {
        self.run_op(&[OpTarget::Object(oid)], LockIntent::Read, |db, ov| {
            db.view_over(ov).get(oid)
        })
    }

    /// Read one attribute.
    pub fn get_attr(&mut self, oid: Oid, attr: &str) -> DbResult<Value> {
        self.run_op(&[OpTarget::Object(oid)], LockIntent::Read, |db, ov| {
            db.view_over(ov).get_attr(oid, attr)
        })
    }

    /// Whether `oid` is live in this transaction's view.
    pub fn exists(&mut self, oid: Oid) -> DbResult<bool> {
        self.run_op(&[OpTarget::Object(oid)], LockIntent::Read, |db, ov| {
            Ok(db.view_over(ov).exists(oid))
        })
    }

    /// Acquire the §7 lock set for the composite rooted at `root` with
    /// an explicit intent — the scan-then-update entry point:
    /// `LockIntent::ReadAllWriteSome` takes SIX/SIXO/SIXOS up front so a
    /// scan that later updates some components needs no upgrades.
    pub fn lock_composite(&mut self, root: Oid, intent: LockIntent) -> DbResult<()> {
        self.ensure_open()?;
        self.acquire_for(&[OpTarget::Object(root)], intent)
    }

    /// Run an arbitrary closure against this transaction's view of the
    /// engine — its overlay, then the committed base — after taking the
    /// §7 Read lock set for `roots`. Escape hatch for multi-object read
    /// logic (traversals, predicates) inside a write transaction; like
    /// every other operation it holds the **shared** latch while it runs.
    pub fn with_view<R>(
        &mut self,
        roots: &[Oid],
        f: impl FnOnce(OverlayView<'_>) -> DbResult<R>,
    ) -> DbResult<R> {
        let targets: Vec<OpTarget> = roots.iter().copied().map(OpTarget::Object).collect();
        self.run_op(&targets, LockIntent::Read, |db, ov| f(db.view_over(ov)))
    }

    // ----------------------------------------------------------------
    // Commit / abort
    // ----------------------------------------------------------------

    /// Commit: apply the write set to the base store as one atomic WAL
    /// batch, publish its versions at the WAL LSN of the batch's commit
    /// marker, advance the visible watermark to it, then release every
    /// lock. Returns that LSN — the `commit_lsn` of the change-stream
    /// event that carries the write set. An empty write set logs nothing
    /// and returns the current watermark: the commit holds its locks on
    /// whatever it read, and every writer it read from advanced the
    /// watermark before releasing its own, so it serialises there.
    ///
    /// The answer is the store's, and exact. `Ok` means the write set is
    /// durable and its versions are published; a fault past the
    /// durability point (or in the checkpoint that follows) degrades the
    /// engine rather than failing the commit. `Err` means the batch rolled
    /// back, no version was published, and the transaction aborted; if the
    /// engine is no longer healthy (a torn flush, a failed log device, in
    /// doubt until then) it must be [`ConcurrentDb::recover`]ed before
    /// further mutations.
    pub fn commit(mut self) -> DbResult<Lsn> {
        self.ensure_open()?;
        let overlay = self.overlay.take().expect("open txn has an overlay");
        let shared = Arc::clone(&self.shared);

        if overlay.is_empty() {
            // The shared latch keeps recovery (and its watermark reset)
            // out between the epoch check and the watermark read.
            let _db = shared.op_latch();
            self.ensure_open()?;
            self.done = true;
            shared.locks.release_all(self.txn);
            shared.metrics.commits.inc();
            return Ok(shared.versions.visible_lsn());
        }

        // The commit-publish critical section: the one latch of a commit
        // that writes. The apply reports the stored bytes it displaced and
        // the bytes it wrote; they seed and publish the version chains
        // as they are, so nothing is read, decoded or encoded here.
        let mut db = shared.exclusive_latch();
        self.ensure_open()?;
        let applied = db
            .overlay_apply(overlay)
            .inspect_err(|_| self.abort_internal())?;

        // `Ok` means the batch's commit marker is durable: the store's
        // durable commit LSN is this commit's, read under the same latch.
        // No snapshot can read a chain or the base until the latch drops,
        // so seeding after the apply is as good as before it.
        let lsn = db.durable_commit_lsn();
        for a in applied {
            if let Some(pre) = a.displaced {
                shared.versions.seed(vkey(a.oid), pre);
            }
            shared.versions.publish(vkey(a.oid), lsn, a.written);
        }
        shared.versions.advance(lsn);
        ConcurrentDb::maybe_vacuum_locked(&shared);
        drop(db);

        self.done = true;
        shared.locks.release_all(self.txn);
        shared.metrics.commits.inc();
        Ok(lsn)
    }

    /// Abort: discard the write set and release every lock. The base
    /// store was never touched. Idempotent (aborting a deadlock victim
    /// again is a no-op).
    pub fn abort(&mut self) {
        self.abort_internal();
    }
}

impl Drop for WriteTxn {
    fn drop(&mut self) {
        if !self.done {
            self.abort_internal();
        }
    }
}
