//! Transaction-private write overlays for the concurrent engine.
//!
//! The paper's §7 lock protocol serialises writers at composite-object
//! granularity, but the storage substrate journals *pages*, and a page
//! holds many unrelated objects. If two in-flight transactions wrote
//! into the shared page store directly, the WAL could not commit one
//! without capturing torn fragments of the other. The overlay closes
//! that physical/logical gap: while a concurrent write transaction is
//! open, every mutation it makes lands in a private [`Overlay`] —
//! base pages and the WAL are untouched until commit.
//!
//! There are two ways to execute operations against an overlay:
//!
//! * the **`&self` execution API** ([`Database::overlay_make`],
//!   [`Database::overlay_set_attr`], …): the overlay stays external and
//!   the engine is only read, so any number of §7-disjoint writers can
//!   execute in parallel under a *shared* engine latch — this is what
//!   the concurrent layer uses;
//! * **installation** ([`Database::overlay_install`] /
//!   [`Database::overlay_take`]): the overlay is mounted inside the
//!   engine so the ordinary `&mut self` entry points write into it —
//!   retained for read-only snapshot views and tests.
//!
//! With an overlay installed:
//!
//! * [`Database::get`] / [`Database::exists`] / [`Database::instances_of`]
//!   answer overlay-first, so the transaction reads its own writes and
//!   the full operation semantics (topology rules, cascades, reverse
//!   references) run unchanged;
//! * the internal `save` / `insert_object` / `erase` primitives write
//!   only the overlay;
//! * atomic batches are skipped — there is nothing to journal yet.
//!
//! At commit, [`Database::overlay_apply`] replays the net effect into
//! the base store as **one** atomic batch: a single contiguous WAL run
//! with a single commit marker, which is what gives crash recovery its
//! "prefix of the commit-LSN order" guarantee. On abort the overlay is
//! simply dropped.

use std::collections::HashMap;

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::object::Object;
use crate::oid::Oid;

/// One overlay entry: the object's current image within the transaction
/// (`None` after a delete) and whether the transaction itself created it.
#[derive(Debug, Clone)]
pub(crate) struct OverlayEntry {
    /// Latest image, or `None` if deleted within the transaction.
    pub(crate) image: Option<Object>,
    /// True if this transaction created the object (it has no base
    /// record; a subsequent delete cancels it entirely).
    pub(crate) created: bool,
}

/// A transaction-private write set: object images layered over the base
/// store. See the [module docs](self) for the protocol.
#[derive(Debug, Default, Clone)]
pub struct Overlay {
    pub(crate) entries: HashMap<Oid, OverlayEntry>,
    /// OIDs created by this transaction, in creation order — replayed in
    /// order at apply time so clustering hints resolve.
    pub(crate) created: Vec<Oid>,
    /// Clustering hints captured at creation (`:parent` placement).
    pub(crate) near: HashMap<Oid, Oid>,
    /// Highest OID serial this transaction minted, plus one — flushed to
    /// the WAL as a serial floor inside the commit batch (zero when the
    /// transaction minted nothing; an aborted transaction's hint is
    /// dropped with the overlay, which is safe because its serials never
    /// reached committed state).
    pub(crate) serial_floor: u64,
}

impl Overlay {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the transaction has written nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct objects written (including deletions).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The overlay's view of one object: `None` if the transaction never
    /// touched it (the base store is authoritative), `Some(None)` if it
    /// deleted it, `Some(Some(obj))` if it wrote it.
    pub fn lookup(&self, oid: Oid) -> Option<Option<&Object>> {
        self.entries.get(&oid).map(|e| e.image.as_ref())
    }

    /// The transaction's write set: `(oid, image, created)` for every
    /// touched object. `image` is `None` for deletions; `created` marks
    /// objects with no base record. Iteration order is unspecified.
    pub fn write_set(&self) -> impl Iterator<Item = (Oid, Option<&Object>, bool)> {
        self.entries
            .iter()
            .map(|(oid, e)| (*oid, e.image.as_ref(), e.created))
    }

    /// Record a write to an object that already exists (in the base or
    /// the overlay).
    pub(crate) fn record_save(&mut self, obj: &Object) {
        match self.entries.get_mut(&obj.oid) {
            Some(e) => e.image = Some(obj.clone()),
            None => {
                self.entries.insert(
                    obj.oid,
                    OverlayEntry {
                        image: Some(obj.clone()),
                        created: false,
                    },
                );
            }
        }
    }

    /// Record a brand-new object.
    pub(crate) fn record_insert(&mut self, obj: &Object, near: Option<Oid>) {
        self.entries.insert(
            obj.oid,
            OverlayEntry {
                image: Some(obj.clone()),
                created: true,
            },
        );
        self.created.push(obj.oid);
        if let Some(n) = near {
            self.near.insert(obj.oid, n);
        }
    }

    /// Record a deletion. `in_base` says whether the object has a base
    /// record (a created-then-deleted object cancels out entirely).
    pub(crate) fn record_erase(&mut self, oid: Oid, in_base: bool) {
        match self.entries.get_mut(&oid) {
            Some(e) => e.image = None,
            None => {
                self.entries.insert(
                    oid,
                    OverlayEntry {
                        image: None,
                        created: !in_base,
                    },
                );
            }
        }
    }
}

impl Database {
    /// Install a transaction-private write overlay. Until
    /// [`overlay_take`](Database::overlay_take), every mutation lands in
    /// the overlay and every read answers overlay-first. Exclusive with
    /// the single-threaded transaction/undo scopes and with an open
    /// storage batch.
    ///
    /// This is engine plumbing for `corion-concurrent`, which installs
    /// the overlay only while holding its exclusive latch.
    pub fn overlay_install(&mut self, overlay: Overlay) -> DbResult<()> {
        if self.overlay.is_some() {
            return Err(DbError::TransactionState {
                reason: "an overlay is already installed".into(),
            });
        }
        if self.txn.is_some() || self.undo.is_some() {
            return Err(DbError::TransactionState {
                reason: "overlays cannot be mixed with single-threaded transaction or undo scopes"
                    .into(),
            });
        }
        if self.store.in_atomic_batch() {
            return Err(DbError::TransactionState {
                reason: "overlays cannot be installed inside an open atomic batch".into(),
            });
        }
        self.overlay = Some(overlay);
        Ok(())
    }

    /// Remove and return the installed overlay; `None` if no overlay is
    /// installed.
    pub fn overlay_take(&mut self) -> Option<Overlay> {
        self.overlay.take()
    }

    /// True while a write overlay is installed.
    pub fn overlay_active(&self) -> bool {
        self.overlay.is_some()
    }

    /// Replay a transaction's net effect into the base store as **one**
    /// atomic batch: creations in creation order (so clustering hints
    /// resolve), then updates, then deletions. A single WAL commit
    /// marker covers the whole transaction, so crash recovery sees all
    /// of it or none of it.
    ///
    /// Must be called with no overlay installed (commit first takes the
    /// overlay out). On a storage error the batch aborts and, as with
    /// any substrate failure, the caller must run
    /// [`Database::recover`] before further mutations.
    pub fn overlay_apply(&mut self, overlay: Overlay) -> DbResult<()> {
        if self.overlay.is_some() {
            return Err(DbError::TransactionState {
                reason: "cannot apply an overlay while another is installed".into(),
            });
        }
        self.atomic(|db| {
            if overlay.serial_floor > 0 {
                db.store.note_serial_floor(overlay.serial_floor);
            }
            for oid in &overlay.created {
                if let Some(e) = overlay.entries.get(oid) {
                    if let (true, Some(img)) = (e.created, e.image.as_ref()) {
                        let near = overlay.near.get(oid).copied();
                        db.insert_object(img, near)?;
                    }
                }
            }
            let mut rest: Vec<(&Oid, &OverlayEntry)> =
                overlay.entries.iter().filter(|(_, e)| !e.created).collect();
            rest.sort_by_key(|(oid, _)| **oid);
            for (oid, e) in rest {
                match &e.image {
                    Some(img) => db.save(img)?,
                    None => db.erase(*oid)?,
                }
            }
            Ok(())
        })
    }

    /// Force the next `make` serial number. Test and replay plumbing:
    /// the linearizability oracle replays committed transactions against
    /// a fresh engine and must mint the same OIDs the concurrent run
    /// minted.
    pub fn force_next_serial(&mut self, serial: u64) {
        self.next_serial
            .store(serial, std::sync::atomic::Ordering::Relaxed);
    }

    /// The serial number the next `make` will use.
    pub fn next_serial_hint(&self) -> u64 {
        self.next_serial.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr::Domain;
    use crate::schema::class::ClassBuilder;
    use crate::value::Value;

    fn label(s: &str) -> Value {
        Value::Str(s.into())
    }

    fn db_with_class() -> (Database, crate::oid::ClassId) {
        let mut db = Database::new();
        let c = db
            .define_class(ClassBuilder::new("Widget").attr("label", Domain::String))
            .unwrap();
        (db, c)
    }

    #[test]
    fn overlay_reads_its_own_writes_and_base_is_untouched() {
        let (mut db, c) = db_with_class();
        let base = db.make(c, vec![("label", label("base"))], vec![]).unwrap();

        db.overlay_install(Overlay::new()).unwrap();
        db.set_attr(base, "label", label("changed")).unwrap();
        let fresh = db.make(c, vec![("label", label("fresh"))], vec![]).unwrap();
        assert_eq!(db.get_attr(base, "label").unwrap(), label("changed"));
        assert_eq!(db.get_attr(fresh, "label").unwrap(), label("fresh"));
        assert_eq!(db.instances_of(c, false).len(), 2);

        // Dropping the overlay rolls everything back.
        let ov = db.overlay_take().unwrap();
        assert_eq!(ov.len(), 2);
        assert_eq!(db.get_attr(base, "label").unwrap(), label("base"));
        assert!(!db.exists(fresh));
        assert_eq!(db.instances_of(c, false).len(), 1);
    }

    #[test]
    fn overlay_apply_replays_the_net_effect_atomically() {
        let (mut db, c) = db_with_class();
        let victim = db
            .make(c, vec![("label", label("victim"))], vec![])
            .unwrap();
        let updated = db.make(c, vec![("label", label("old"))], vec![]).unwrap();

        db.overlay_install(Overlay::new()).unwrap();
        let kept = db.make(c, vec![("label", label("kept"))], vec![]).unwrap();
        let doomed = db
            .make(c, vec![("label", label("doomed"))], vec![])
            .unwrap();
        db.delete(doomed).unwrap();
        db.delete(victim).unwrap();
        db.set_attr(updated, "label", label("new")).unwrap();
        let ov = db.overlay_take().unwrap();

        db.overlay_apply(ov).unwrap();
        assert!(db.exists(kept));
        assert!(!db.exists(doomed), "created-then-deleted must cancel out");
        assert!(!db.exists(victim));
        assert_eq!(db.get_attr(updated, "label").unwrap(), label("new"));
    }

    #[test]
    fn overlay_rejects_mixing_with_transactions() {
        let (mut db, _) = db_with_class();
        db.begin_transaction().unwrap();
        let err = db.overlay_install(Overlay::new()).unwrap_err();
        assert!(matches!(err, DbError::TransactionState { .. }));
        db.abort_transaction().unwrap();

        db.overlay_install(Overlay::new()).unwrap();
        let err = db.begin_transaction().unwrap_err();
        assert!(matches!(err, DbError::TransactionState { .. }));
        db.overlay_take().unwrap();
    }
}
