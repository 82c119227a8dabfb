//! The write path: every logical mutation lands in an [`Overlay`], and
//! [`Database::overlay_apply`] is the only code that turns one into a
//! storage batch.
//!
//! The paper's §7 lock protocol serialises writers at composite-object
//! granularity, but the storage substrate journals *pages*, and a page
//! holds many unrelated objects. If two in-flight transactions wrote
//! into the shared page store directly, the WAL could not commit one
//! without capturing torn fragments of the other. The overlay closes
//! that physical/logical gap: base pages and the WAL are untouched until
//! the overlay is applied, and dropping it is the rollback.
//!
//! * **Execution** ([`Database::overlay_make`],
//!   [`Database::overlay_set_attr`], … in `exec`) takes `&Database` plus
//!   the overlay: the engine is only read, so any number of §7-disjoint
//!   writers execute in parallel under a *shared* engine latch. The
//!   single-threaded entry points (`Database::make`, …) are the same
//!   calls against a one-operation overlay applied at once, or against
//!   the open transaction's overlay.
//! * Each operation runs in an **operation scope**: the overlay journals
//!   every entry the operation displaces (moved, not cloned — one per
//!   object touched) and puts them back if the operation returns `Err`,
//!   so a rejected message leaves the write set exactly as it found it.
//! * **Reads** go through [`OverlayView`] — overlay, then base — so a
//!   transaction reads its own writes and the full operation semantics
//!   (topology rules, cascades, reverse references) run unchanged.
//! * [`Database::overlay_apply`] replays the net effect into the base
//!   store as **one** atomic batch: a single contiguous WAL run with a
//!   single commit marker, which is what gives crash recovery its
//!   "prefix of the commit-LSN order" guarantee.

use std::collections::HashMap;

use corion_storage::PhysId;

use crate::composite::view::{self, ReadView};
use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::object::Object;
use crate::oid::{ClassId, Oid};
use crate::schema::catalog::Catalog;
use crate::schema::lattice;
use crate::value::Value;

/// One overlay entry: the object's current image within the write set
/// (`None` after a delete) and whether the write set itself created it.
#[derive(Debug)]
struct OverlayEntry {
    /// Latest image, or `None` if deleted within the write set.
    image: Option<Object>,
    /// True if this write set created the object (it has no base record;
    /// a subsequent delete cancels it entirely).
    created: bool,
    /// Clustering hint captured at creation (`:parent` placement).
    near: Option<Oid>,
    /// The operation scope that last journaled this entry: a second
    /// write by the same operation changes it in place.
    op: u64,
}

/// A write set: object images layered over the base store. See the
/// [module docs](self) for the protocol.
#[derive(Debug, Default)]
pub struct Overlay {
    entries: HashMap<Oid, OverlayEntry>,
    /// OIDs created by this write set, in creation order — replayed in
    /// order at apply time so clustering hints resolve.
    created: Vec<Oid>,
    /// Highest OID serial this write set minted, plus one — flushed to
    /// the WAL as a serial floor inside the commit batch (zero when it
    /// minted nothing; a dropped overlay's hint goes with it, which is
    /// safe because its serials never reached committed state).
    serial_floor: u64,
    /// Number of the open (or last) operation scope.
    op: u64,
    /// What the open operation scope displaced, once per object: the
    /// entry as it was (`None` = there was none).
    journal: Vec<(Oid, Option<OverlayEntry>)>,
}

/// Where an operation scope started: what [`Overlay::end_op`] rewinds to.
pub(crate) struct OpMark {
    created: usize,
    serial_floor: u64,
}

impl Overlay {
    /// An empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct objects written (including deletions).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The overlay's view of one object: `None` if it never touched it
    /// (the base store is authoritative), `Some(None)` if it deleted it,
    /// `Some(Some(obj))` if it wrote it.
    pub fn lookup(&self, oid: Oid) -> Option<Option<&Object>> {
        self.entries.get(&oid).map(|e| e.image.as_ref())
    }

    /// The write set: `(oid, image, created)` for every touched object.
    /// `image` is `None` for deletions; `created` marks objects with no
    /// base record. Iteration order is unspecified.
    pub fn write_set(&self) -> impl Iterator<Item = (Oid, Option<&Object>, bool)> {
        self.entries
            .iter()
            .map(|(oid, e)| (*oid, e.image.as_ref(), e.created))
    }

    /// Opens an operation scope. Scopes do not nest: a cascade inside an
    /// operation belongs to the operation.
    pub(crate) fn begin_op(&mut self) -> OpMark {
        debug_assert!(self.journal.is_empty(), "operation scopes do not nest");
        self.op += 1;
        OpMark {
            created: self.created.len(),
            serial_floor: self.serial_floor,
        }
    }

    /// Closes the operation scope; with `keep` false every entry it
    /// displaced goes back, and the write set is what it was at
    /// [`begin_op`](Overlay::begin_op).
    pub(crate) fn end_op(&mut self, mark: OpMark, keep: bool) {
        if keep {
            self.journal.clear();
            return;
        }
        for (oid, displaced) in self.journal.drain(..) {
            match displaced {
                Some(entry) => self.entries.insert(oid, entry),
                None => self.entries.remove(&oid),
            };
        }
        self.created.truncate(mark.created);
        self.serial_floor = mark.serial_floor;
    }

    /// The one write primitive: `oid`'s image becomes `image`. An entry
    /// the open operation has not touched yet is journaled first.
    fn write(&mut self, oid: Oid, image: Option<Object>, created: bool, near: Option<Oid>) {
        let op = self.op;
        match self.entries.get_mut(&oid) {
            Some(e) if e.op == op => e.image = image,
            Some(e) => {
                let fresh = OverlayEntry {
                    image,
                    created: e.created,
                    near: e.near,
                    op,
                };
                let displaced = std::mem::replace(e, fresh);
                self.journal.push((oid, Some(displaced)));
            }
            None => {
                let fresh = OverlayEntry {
                    image,
                    created,
                    near,
                    op,
                };
                self.entries.insert(oid, fresh);
                self.journal.push((oid, None));
            }
        }
    }

    /// Record a write to an object that already exists (in the base or
    /// the overlay).
    pub(crate) fn record_save(&mut self, obj: Object) {
        self.write(obj.oid, Some(obj), false, None);
    }

    /// Record a brand-new object.
    pub(crate) fn record_insert(&mut self, obj: Object, near: Option<Oid>) {
        self.created.push(obj.oid);
        self.write(obj.oid, Some(obj), true, near);
    }

    /// Record a deletion. `in_base` says whether the object has a base
    /// record (a created-then-deleted object cancels out entirely).
    pub(crate) fn record_erase(&mut self, oid: Oid, in_base: bool) {
        self.write(oid, None, !in_base, None);
    }

    /// Note that serials below `floor` are taken.
    pub(crate) fn raise_serial_floor(&mut self, floor: u64) {
        self.serial_floor = self.serial_floor.max(floor);
    }
}

/// A strict read view of one write set over the engine it will be applied
/// to: the overlay answers for what it touched, the committed base for
/// everything else. This is what a transaction reads through —
/// [`Database`]'s own reads while [`Database::begin_transaction`] is open,
/// an operation executing against an overlay, and `corion-concurrent`'s
/// in-transaction reads — and it is a [`ReadView`], so the §3 walks run
/// over it.
#[derive(Clone, Copy)]
pub struct OverlayView<'a> {
    db: &'a Database,
    overlay: &'a Overlay,
}

impl<'a> OverlayView<'a> {
    /// [`Database::get`] through the write set.
    pub fn get(&self, oid: Oid) -> DbResult<Object> {
        match self.overlay.lookup(oid) {
            Some(image) => {
                let mut obj = image.cloned().ok_or(DbError::NoSuchObject(oid))?;
                self.db.apply_pending_changes(&mut obj)?;
                Ok(obj)
            }
            None => self.db.base_get(oid),
        }
    }

    /// [`Database::exists`] through the write set.
    pub fn exists(&self, oid: Oid) -> bool {
        match self.overlay.lookup(oid) {
            Some(image) => image.is_some(),
            None => self.db.shards.contains(oid),
        }
    }

    /// [`Database::get_attr`] through the write set.
    pub fn get_attr(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        let idx = self.db.catalog.attr_slot(oid.class, attr)?;
        Ok(self.get(oid)?.attrs[idx].clone())
    }

    /// [`Database::instances_of`] through the write set.
    pub fn instances_of(&self, class: ClassId, deep: bool) -> Vec<Oid> {
        let catalog = &self.db.catalog;
        let mut out = self.db.base_instances_of(class, deep);
        let in_scope =
            |c: ClassId| c == class || (deep && lattice::is_subclass_of(catalog, c, class));
        for (oid, e) in &self.overlay.entries {
            if !in_scope(oid.class) {
                continue;
            }
            match (&e.image, e.created) {
                (Some(_), true) => out.push(*oid),
                (None, false) => out.retain(|o| o != oid),
                _ => {}
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// [`Database::object_count`] through the write set.
    pub fn object_count(&self) -> usize {
        let mut n = self.db.shards.len();
        for e in self.overlay.entries.values() {
            match (&e.image, e.created) {
                (Some(_), true) => n += 1,
                (None, false) => n -= 1,
                _ => {}
            }
        }
        n
    }

    /// The schema catalog of the engine underneath.
    pub fn catalog(&self) -> &'a Catalog {
        &self.db.catalog
    }
}

impl ReadView for OverlayView<'_> {
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>> {
        view::found(self.get(oid))
    }

    fn visible(&mut self, oid: Oid) -> DbResult<bool> {
        Ok(self.exists(oid))
    }

    fn catalog(&mut self) -> DbResult<&Catalog> {
        Ok(&self.db.catalog)
    }
}

impl Database {
    /// This engine as seen through `overlay`: overlay first, then the
    /// committed base (an open [`Database::begin_transaction`] of the
    /// engine's own is *not* part of the base).
    pub fn view_over<'a>(&'a self, overlay: &'a Overlay) -> OverlayView<'a> {
        OverlayView { db: self, overlay }
    }

    /// Replay a write set's net effect into the base store as **one**
    /// atomic batch: creations in creation order (so clustering hints
    /// resolve), then updates, then deletions. A single WAL commit
    /// marker covers the whole write set, so crash recovery sees all
    /// of it or none of it.
    ///
    /// The answer is the store's, and exact: `Ok` means the write set is
    /// durable; `Err` means the batch was rolled back, and the object-table
    /// entries it moved are put back, so on a store still
    /// [`Healthy`](corion_storage::HealthState::Healthy) the engine
    /// carries on at the pre-apply state. An `Err` that left the store
    /// degraded or poisoned (a torn flush, a failed log device) is in
    /// doubt until [`Database::recover`] decides it.
    pub fn overlay_apply(&mut self, overlay: Overlay) -> DbResult<()> {
        self.forbid_in_transaction("apply a write set")?;
        let nested = self.store.in_atomic_batch();
        // The write set is known up front, and so is the part of the
        // object table it can change.
        let before: Vec<(Oid, Option<PhysId>)> = overlay
            .entries
            .keys()
            .map(|&oid| (oid, self.shards.get(oid)))
            .collect();
        let result = self.atomic(|db| {
            if overlay.serial_floor > 0 {
                db.store.note_serial_floor(overlay.serial_floor);
            }
            for oid in &overlay.created {
                if let Some(e) = overlay.entries.get(oid) {
                    if let (true, Some(img)) = (e.created, e.image.as_ref()) {
                        db.insert_object(img, e.near)?;
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
        });
        if result.is_err() && !nested {
            for (oid, phys) in before {
                match phys {
                    Some(phys) => self.shards.insert(oid, phys),
                    None => {
                        self.shards.remove(oid);
                    }
                }
            }
        }
        result
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
    use corion_storage::HealthState;

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

        let mut ov = Overlay::new();
        db.overlay_set_attr(&mut ov, base, "label", label("changed"))
            .unwrap();
        let fresh = db
            .overlay_make(&mut ov, c, vec![("label", label("fresh"))], vec![])
            .unwrap();
        let view = db.view_over(&ov);
        assert_eq!(view.get_attr(base, "label").unwrap(), label("changed"));
        assert_eq!(view.get_attr(fresh, "label").unwrap(), label("fresh"));
        assert_eq!(view.instances_of(c, false).len(), 2);
        assert_eq!(view.object_count(), 2);

        // Dropping the overlay is the rollback: the base never moved.
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

        let mut ov = Overlay::new();
        let kept = db
            .overlay_make(&mut ov, c, vec![("label", label("kept"))], vec![])
            .unwrap();
        let doomed = db
            .overlay_make(&mut ov, c, vec![("label", label("doomed"))], vec![])
            .unwrap();
        db.overlay_delete(&mut ov, doomed).unwrap();
        db.overlay_delete(&mut ov, victim).unwrap();
        db.overlay_set_attr(&mut ov, updated, "label", label("new"))
            .unwrap();

        db.overlay_apply(ov).unwrap();
        assert!(db.exists(kept));
        assert!(!db.exists(doomed), "created-then-deleted must cancel out");
        assert!(!db.exists(victim));
        assert_eq!(db.get_attr(updated, "label").unwrap(), label("new"));
    }

    #[test]
    fn a_failed_operation_scope_puts_every_displaced_entry_back() {
        let (db, c) = db_with_class();
        let mut ov = Overlay::new();
        let kept = db
            .overlay_make(&mut ov, c, vec![("label", label("kept"))], vec![])
            .unwrap();
        let floor = ov.serial_floor;

        let mark = ov.begin_op();
        ov.record_save(Object::new(kept, vec![label("scribbled")], 0));
        ov.record_save(Object::new(kept, vec![label("twice")], 0));
        ov.record_insert(Object::new(Oid::new(c, 99), vec![Value::Null], 0), None);
        ov.raise_serial_floor(100);
        assert_eq!(ov.journal.len(), 2, "one journal entry per object");
        ov.end_op(mark, false);

        assert_eq!(ov.len(), 1);
        assert_eq!(ov.created, vec![kept]);
        assert_eq!(ov.serial_floor, floor);
        assert_eq!(
            db.view_over(&ov).get_attr(kept, "label").unwrap(),
            label("kept")
        );
    }

    #[test]
    fn a_failed_apply_on_a_healthy_store_restores_the_object_table() {
        let (mut db, c) = db_with_class();
        let old = db.make(c, vec![("label", label("old"))], vec![]).unwrap();
        let mut ov = Overlay::new();
        let fresh = db.overlay_make(&mut ov, c, vec![], vec![]).unwrap();
        db.overlay_delete(&mut ov, old).unwrap();
        // A clean crash at the flush: the store aborts the batch and stays
        // healthy.
        db.arm_crash_point(corion_storage::CP_COMMIT_FLUSH, 1);
        assert!(matches!(db.overlay_apply(ov), Err(DbError::Storage(_))));
        db.heal_crash_points();
        assert_eq!(db.health(), HealthState::Healthy);
        assert!(db.exists(old) && !db.exists(fresh));
        assert_eq!(db.get_attr(old, "label").unwrap(), label("old"));
        db.verify_integrity().unwrap();
    }

    #[test]
    fn a_fault_after_the_commit_took_effect_answers_ok_and_keeps_the_object_table() {
        use corion_storage::{StoreConfig, CP_CHECKPOINT_WRITE, CP_COMMIT_DONE};
        // Past the durability point nothing is the commit's error: a
        // `commit:done` fault, or a failed auto-checkpoint (every commit
        // trips one here), degrades the store and the commit answers `Ok`
        // with the object table its pages match. Autocommit create,
        // autocommit delete, and a transaction.
        for point in [CP_COMMIT_DONE, CP_CHECKPOINT_WRITE] {
            let mut db = Database::with_config(crate::DbConfig {
                store: StoreConfig {
                    wal_checkpoint_bytes: 0,
                    ..StoreConfig::default()
                },
                ..crate::DbConfig::default()
            });
            let c = db
                .define_class(ClassBuilder::new("Widget").attr("label", Domain::String))
                .unwrap();
            let old = db.make(c, vec![("label", label("old"))], vec![]).unwrap();
            // Runs `op` with `point` armed: it answers `Ok` on a store the
            // fault degraded, whose reads already serve the commit; then
            // recovery makes the store writable again.
            let faulted = |db: &mut Database, op: &mut dyn FnMut(&mut Database)| {
                db.arm_crash_point(point, 1);
                op(db);
                db.heal_crash_points();
                assert_eq!(db.health(), HealthState::Degraded, "{point}");
                db.verify_integrity().unwrap();
                db.recover().unwrap();
            };
            let mut made = None;
            faulted(&mut db, &mut |db| {
                made = Some(db.make(c, vec![("label", label("new"))], vec![]).unwrap());
                assert!(db.exists(made.unwrap()));
            });
            faulted(&mut db, &mut |db| {
                db.delete(old).unwrap();
                assert!(!db.exists(old));
            });
            let mut in_txn = None;
            faulted(&mut db, &mut |db| {
                db.begin_transaction().unwrap();
                in_txn = Some(db.make(c, vec![("label", label("txn"))], vec![]).unwrap());
                db.commit_transaction().unwrap();
                assert!(db.exists(in_txn.unwrap()));
            });
            let (made, in_txn) = (made.unwrap(), in_txn.unwrap());

            let check = |db: &mut Database| {
                assert!(!db.exists(old) && db.exists(made) && db.exists(in_txn));
                assert_eq!(db.instances_of(c, false).len(), 2);
                assert_eq!(db.get_attr(made, "label").unwrap(), label("new"));
                assert_eq!(db.get_attr(in_txn, "label").unwrap(), label("txn"));
                db.verify_integrity().unwrap();
            };
            check(&mut db);
            // The committed transaction's serials stay taken.
            let next = db.make(c, vec![], vec![]).unwrap();
            assert!(next.serial > in_txn.serial);
            db.delete(next).unwrap();
            db.simulate_crash();
            db.recover().unwrap();
            check(&mut db);
        }
    }
}
