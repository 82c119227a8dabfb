//! Snapshot reads.
//!
//! A [`Snapshot`] pins a commit LSN `S` and observes exactly the
//! transactions that committed with LSN ≤ `S`. An object resolves
//! against the version store's chain if it has one, else against the
//! base store — and "has no chain" is only meaningful **under the
//! engine's shared latch**: commits mutate the base only under the
//! exclusive latch, and they seed every pre-image before releasing it, so
//! "no chain under the latch" proves the base value is the snapshot
//! value. One probe under the latch is therefore the whole argument, per
//! object per acquisition.
//!
//! * [`Snapshot::get`] and [`Snapshot::get_attr`] resolve under the
//!   latch. A chain image holds the bytes the store held (a seed is the
//!   record the commit displaced), so it is brought up to the pending §4.3
//!   changes of the schema — which lives behind the latch — exactly as a
//!   base read is.
//! * [`Snapshot::exists`] probes the chain lock-free first, decoding
//!   nothing — a hit needs no latch at all — and takes the latch only for
//!   the base fallback, re-probing under it.
//! * Traversals ([`Snapshot::subtree_of`] and friends) run the one §3
//!   walk of [`corion_core::view`] over a latched view: the latch is taken
//!   once per batch of 256 objects, each object is probed and
//!   resolved once under it, and objects of a class with no composite
//!   attribute are never read at all. Because the argument holds per
//!   object per acquisition, dropping and re-taking the latch between
//!   batches changes nothing about what the snapshot sees; it only bounds
//!   how long one large walk can keep commit publish waiting.
//!
//! Snapshots never take lock-manager locks, so they can neither block a
//! writer nor deadlock; writers never wait for snapshots (only the
//! version-store vacuum does, by skipping pinned versions).

use std::collections::HashSet;
use std::sync::Arc;

use corion_core::schema::catalog::Catalog;
use corion_core::schema::lattice;
use corion_core::{
    view, ClassId, Database, DbError, DbResult, Filter, Object, Oid, ReadView, Value,
};
use corion_storage::{Lsn, Resolution, SnapshotPin};
use parking_lot::RwLockReadGuard;

use crate::db::Shared;
use crate::vkey;

/// Objects a traversal resolves per acquisition of the shared engine
/// latch. A constant, not a setting: correctness does not depend on it
/// (see the module docs), and 256 record visits are tens of
/// microseconds — far below a commit section.
const LATCH_BATCH: u64 = 256;

/// A pinned, consistent read view of the database. Obtain with
/// [`ConcurrentDb::begin_read`](crate::ConcurrentDb::begin_read);
/// dropping releases the pin. Snapshots are `Send` and independent of
/// the handle that created them.
pub struct Snapshot {
    shared: Arc<Shared>,
    pin: SnapshotPin,
}

impl Snapshot {
    pub(crate) fn begin(shared: Arc<Shared>) -> Self {
        let pin = shared.versions.pin();
        Snapshot { shared, pin }
    }

    /// The commit LSN this snapshot observes: every transaction with
    /// commit LSN at or below this is visible, nothing else is.
    pub fn lsn(&self) -> Lsn {
        self.pin.lsn
    }

    fn ensure_valid(&self) -> DbResult<()> {
        if self.shared.versions.generation() != self.pin.generation {
            return Err(DbError::TransactionState {
                reason: "the engine recovered while this snapshot was pinned".into(),
            });
        }
        Ok(())
    }

    /// Resolve one object with the shared latch held (`db` is the
    /// guard's engine): chain image if there is a chain, else the base.
    /// The schema is not versioned, so either way the reverse-reference
    /// flags are brought up to the deferred changes (§4.3) of the schema
    /// as it is now.
    fn resolve_latched(&self, mut db: &Database, oid: Oid) -> DbResult<Option<Object>> {
        match self.shared.versions.resolve(vkey(oid), self.lsn()) {
            Resolution::Image(bytes) => {
                let mut obj = Object::decode(&bytes)?;
                db.apply_pending_changes(&mut obj)?;
                Ok(Some(obj))
            }
            Resolution::Deleted | Resolution::Unborn => Ok(None),
            Resolution::Base => db.resolve(oid),
        }
    }

    /// Whether `oid` is visible at the snapshot LSN, with the shared
    /// latch held: the chain if there is one, else the base.
    fn visible_latched(&self, db: &Database, oid: Oid) -> bool {
        match self.shared.versions.resolve(vkey(oid), self.lsn()) {
            Resolution::Image(_) => true,
            Resolution::Deleted | Resolution::Unborn => false,
            Resolution::Base => db.exists(oid),
        }
    }

    /// This snapshot as a [`ReadView`] for one traversal — the door to
    /// the filtered §3 questions ([`corion_core::view`] with a
    /// [`Filter`]). It takes the shared engine latch on first use and
    /// re-takes it every 256 objects, so drop it when the answer is in;
    /// its counters land in the registry when it drops.
    pub fn view(&self) -> impl ReadView + '_ {
        Latched {
            snap: self,
            db: None,
            visited: 0,
            records: 0,
        }
    }

    /// Load an object, with the deferred schema changes (§4.3) applied.
    /// Errors with `NoSuchObject` if it is not visible at this snapshot.
    pub fn get(&self, oid: Oid) -> DbResult<Object> {
        let db = self.shared.db.read();
        self.ensure_valid()?;
        self.resolve_latched(&db, oid)?
            .ok_or(DbError::NoSuchObject(oid))
    }

    /// True if the object is visible at this snapshot.
    pub fn exists(&self, oid: Oid) -> DbResult<bool> {
        self.ensure_valid()?;
        match self.shared.versions.resolve(vkey(oid), self.lsn()) {
            Resolution::Image(_) => Ok(true),
            Resolution::Deleted | Resolution::Unborn => Ok(false),
            Resolution::Base => {
                // A commit may have seeded a chain (and changed the base)
                // since the lock-free probe: probe again under the latch.
                let db = self.shared.db.read();
                self.ensure_valid()?;
                Ok(self.visible_latched(&db, oid))
            }
        }
    }

    /// Read one attribute by name.
    pub fn get_attr(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        // The class layout needs the latch anyway: resolve under it.
        let db = self.shared.db.read();
        self.ensure_valid()?;
        let obj = self
            .resolve_latched(&db, oid)?
            .ok_or(DbError::NoSuchObject(oid))?;
        let no_such_attr = || DbError::NoSuchAttribute {
            class: oid.class,
            attr: attr.into(),
        };
        let idx = db
            .class(oid.class)?
            .attr_index(attr)
            .ok_or_else(no_such_attr)?;
        obj.attrs.get(idx).cloned().ok_or_else(no_such_attr)
    }

    /// Direct (or, with `deep`, subclass-inclusive) instances of `class`
    /// visible at this snapshot, sorted.
    pub fn instances_of(&self, class: ClassId, deep: bool) -> DbResult<Vec<Oid>> {
        self.ensure_valid()?;
        let (mut base, classes) = {
            let db = self.shared.db.read();
            let mut classes = vec![class];
            if deep {
                classes.extend(lattice::descendants(db.catalog(), class));
            }
            (db.instances_of(class, deep), classes)
        };
        // Overlay the version chains: objects deleted after base-read
        // but visible at the snapshot come back; objects in the base
        // that are unborn or deleted at the snapshot drop out. Verdicts
        // are collected first and merged in one pass.
        let mut gone = HashSet::new();
        for c in classes {
            for (key, res) in self.shared.versions.resolve_class(c.0, self.lsn()) {
                let oid = Oid {
                    class: ClassId(key.class),
                    serial: key.serial,
                };
                match res {
                    Resolution::Image(_) => base.push(oid),
                    Resolution::Deleted | Resolution::Unborn => {
                        gone.insert(oid);
                    }
                    Resolution::Base => {}
                }
            }
        }
        base.retain(|oid| !gone.contains(oid));
        base.sort();
        base.dedup();
        Ok(base)
    }

    /// The direct (level-1) components of `oid` visible at this
    /// snapshot, each once.
    pub fn components_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        view::components_of(&mut self.view(), oid, &Filter::all().level(1))
    }

    /// The composite parents of `oid` (from its reverse references),
    /// each once.
    pub fn parents_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        view::parents_of(&mut self.view(), oid, &Filter::all())
    }

    /// Every ancestor of `oid` visible at this snapshot (transitive
    /// closure, `oid` excluded), nearest first.
    pub fn ancestors_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        view::ancestors_of(&mut self.view(), oid, &Filter::all())
    }

    /// The full component subtree below `oid` (transitive closure,
    /// `oid` included), level by level. Objects of a class with no
    /// composite attribute are listed on visibility alone: their records
    /// are not read, so a corrupt leaf page fails [`Snapshot::get`] on
    /// that leaf but not a traversal through it.
    pub fn subtree_of(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        view::subtree_of(&mut self.view(), oid)
    }
}

/// A snapshot under the shared engine latch, for the length of one
/// traversal: the latch is taken on first use and re-taken every
/// [`LATCH_BATCH`] objects.
struct Latched<'a> {
    snap: &'a Snapshot,
    db: Option<RwLockReadGuard<'a, Database>>,
    visited: u64,
    records: u64,
}

impl Latched<'_> {
    /// The engine under the latch, for the next object; every
    /// [`LATCH_BATCH`]th object starts a new acquisition.
    fn next(&mut self) -> DbResult<&Database> {
        if self.visited.is_multiple_of(LATCH_BATCH) {
            self.db = None;
        }
        self.visited += 1;
        self.latch()
    }

    fn latch(&mut self) -> DbResult<&Database> {
        if self.db.is_none() {
            self.db = Some(self.snap.shared.db.read());
            // `recover()` starts a new pin generation under the exclusive
            // latch, so a check under the shared side holds for the whole
            // batch.
            self.snap.ensure_valid()?;
        }
        Ok(self.db.as_deref().expect("latched above"))
    }
}

impl ReadView for Latched<'_> {
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>> {
        let snap = self.snap;
        let obj = snap.resolve_latched(self.next()?, oid)?;
        self.records += u64::from(obj.is_some());
        Ok(obj)
    }

    fn visible(&mut self, oid: Oid) -> DbResult<bool> {
        let snap = self.snap;
        Ok(snap.visible_latched(self.next()?, oid))
    }

    fn catalog(&mut self) -> DbResult<&Catalog> {
        Ok(self.latch()?.catalog())
    }
}

impl Drop for Latched<'_> {
    fn drop(&mut self) {
        let metrics = &self.snap.shared.metrics;
        metrics.traversals.inc();
        metrics.objects_visited.add(self.visited);
        metrics.records_read.add(self.records);
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.shared.versions.unpin(self.pin);
    }
}
