//! Change capture at the source: what each committed batch did to which
//! objects, recorded from what the writer itself reports.
//!
//! Every object write of the engine is made by [`Database::overlay_apply`],
//! which reports the bytes it displaced and wrote ([`Applied`]). While
//! capture is on, that report is kept per OID and per storage batch: the
//! image before the first write and the image of the last. A batch
//! therefore yields exactly the object-level diff of the states around it
//! — relocation and overflow chains never show, because nothing here
//! looks at pages, or reads the store.
//!
//! A captured batch is **released** as a [`ChangeSet`] when its commit
//! answers `Ok` — the store's answer is exact, so that is the durability
//! point — stamped with the commit's WAL LSN. A commit that answered `Err`
//! (rolled back, or in doubt until recovery), an aborted batch, and
//! everything pending at [`Database::recover`] release nothing. Released
//! sets queue in commit order until [`Database::take_released_changes`]
//! drains them — `corion-concurrent` does so when it drops the exclusive
//! latch.
//!
//! With capture off (the default, and whenever nobody listens) the seam
//! costs one atomic load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use corion_storage::{Lsn, StorageResult};

use crate::db::Database;
use crate::error::DbResult;
use crate::object::Object;
use crate::oid::Oid;
use crate::overlay::Applied;

/// The net effect of one committed batch on one object. Edges are the §2.4
/// reverse composite references stored in the object itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Change {
    /// The object did not exist before the batch.
    Made {
        /// The new object.
        oid: Oid,
        /// Its composite parents.
        parents: Vec<Oid>,
    },
    /// The object's stored image differs from the one before the batch.
    Changed {
        /// The object.
        oid: Oid,
        /// Composite parents it gained.
        parents_added: Vec<Oid>,
        /// Composite parents it lost.
        parents_removed: Vec<Oid>,
    },
    /// The object no longer exists.
    Deleted {
        /// The object.
        oid: Oid,
        /// The composite parents it had.
        parents: Vec<Oid>,
    },
}

/// Everything one durable batch changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeSet {
    /// WAL LSN of the commit marker that made the batch durable.
    pub commit_lsn: Lsn,
    /// Made and changed objects in OID order, then deleted ones in OID
    /// order. Never empty.
    pub changes: Vec<Change>,
    /// Time the committer spent capturing (decoding the reported images),
    /// for the emit-cost histogram of whoever delivers the set.
    pub capture_ns: u64,
}

/// One object across one batch: `None` = did not / does not exist.
struct Touch {
    before: Option<Object>,
    after: Option<Object>,
}

/// Capture state of one engine.
#[derive(Default)]
pub(crate) struct Capture {
    /// Flipped through `&Database` (under the concurrent layer's shared
    /// latch), read by writers that hold `&mut Database` (its exclusive
    /// latch) — the latch orders the two, so the flag publishes nothing.
    on: AtomicBool,
    /// Objects the open storage batch touched.
    open: BTreeMap<Oid, Touch>,
    /// Capture time accumulated for the open batch.
    ns: u64,
    released: Vec<ChangeSet>,
}

impl Capture {
    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Drops everything not yet durable.
    pub(crate) fn discard_pending(&mut self) {
        self.open.clear();
        self.ns = 0;
    }
}

impl Database {
    /// Turns change capture on or off. Takes `&self` so a subscriber can
    /// attach under a shared latch: batches run under the exclusive one,
    /// so each is captured whole or not at all.
    pub fn set_change_capture(&self, on: bool) {
        self.capture.on.store(on, Ordering::Relaxed);
    }

    /// Drains the change sets released since the last call, in commit
    /// order. Allocation-free while capture is off.
    pub fn take_released_changes(&mut self) -> Vec<ChangeSet> {
        std::mem::take(&mut self.capture.released)
    }

    /// WAL LSN of the last durable commit — a released [`ChangeSet`]
    /// carries a higher one.
    pub fn durable_commit_lsn(&self) -> Lsn {
        self.store.durable_commit_lsn()
    }

    /// The capture seam, fed by [`Database::overlay_apply`] inside its
    /// batch: records each object's displaced image (first write of the
    /// batch only) and its written one.
    pub(crate) fn capture_applied(&mut self, applied: &[Applied]) -> DbResult<()> {
        if !self.capture.on() {
            return Ok(());
        }
        let started = Instant::now();
        let decode = |bytes: &Option<Vec<u8>>| bytes.as_deref().map(Object::decode).transpose();
        for a in applied {
            let after = decode(&a.written)?;
            match self.capture.open.get_mut(&a.oid) {
                Some(touch) => touch.after = after,
                None => {
                    let before = decode(&a.displaced)?;
                    self.capture.open.insert(a.oid, Touch { before, after });
                }
            }
        }
        self.capture.ns += started.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Commits the open storage batch and, once it answered `Ok`, releases
    /// what it changed.
    pub(crate) fn commit_batch(&mut self) -> StorageResult<()> {
        let open = std::mem::take(&mut self.capture.open);
        let capture_ns = std::mem::take(&mut self.capture.ns);
        self.store.commit_atomic()?;
        if open.is_empty() {
            return Ok(());
        }
        let mut changes = Vec::new();
        let mut deleted = Vec::new();
        for (oid, touch) in open {
            match (touch.before, touch.after) {
                (None, Some(obj)) => changes.push(Change::Made {
                    oid,
                    parents: obj.composite_parents(),
                }),
                (Some(prev), Some(obj)) if prev != obj => {
                    let (old, new) = (prev.composite_parents(), obj.composite_parents());
                    changes.push(Change::Changed {
                        oid,
                        parents_added: new.iter().filter(|p| !old.contains(p)).copied().collect(),
                        parents_removed: old.iter().filter(|p| !new.contains(p)).copied().collect(),
                    });
                }
                (Some(prev), None) => deleted.push(Change::Deleted {
                    oid,
                    parents: prev.composite_parents(),
                }),
                // Rewritten unchanged, or made and deleted in one batch.
                _ => {}
            }
        }
        changes.append(&mut deleted);
        if !changes.is_empty() {
            self.capture.released.push(ChangeSet {
                commit_lsn: self.store.durable_commit_lsn(),
                changes,
                capture_ns,
            });
        }
        Ok(())
    }

    /// Abandons the open storage batch and what it captured.
    pub(crate) fn abort_batch(&mut self) -> StorageResult<()> {
        self.capture.discard_pending();
        self.store.abort_atomic()
    }
}
