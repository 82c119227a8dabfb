//! Execution engine — the composite-object semantics, generic over *where
//! writes land*.
//!
//! Every paper operation (`make` §2.3, the Make-Component algorithm §2.4,
//! `set_attr` with attach/detach bookkeeping, the Deletion Rule §2.2) is
//! implemented here exactly once, as a free function over the [`Eng`]
//! trait. `Eng` abstracts the five storage primitives the semantics need —
//! `exists` / `get` / `save` / `insert_object` / `erase` — plus OID-serial
//! allocation, and has two implementations:
//!
//! * [`DirectEng`] wraps `&mut Database` and delegates to the engine's own
//!   primitives, so the single-threaded entry points (`Database::make`,
//!   `Database::set_attr`, …) keep their exact semantics: undo
//!   before-images, transaction touch notes and serial-floor WAL notes all
//!   happen inside the primitives.
//! * [`OverlayEng`] runs the same semantics against `&Database` plus an
//!   **external** [`Overlay`]: reads answer overlay-first, writes land
//!   only in the overlay, and serial allocation uses the atomic counter
//!   plus a floor *hint* recorded in the overlay (flushed to the WAL by
//!   [`Database::overlay_apply`], inside the commit batch — an aborted
//!   transaction's hint is dropped with the overlay, which is harmless
//!   because its serials never reached committed state).
//!
//! `OverlayEng` is what lets the concurrent layer execute write
//! transactions under a **shared** engine latch: execution needs no
//! `&mut Database` at all — the only engine state it touches is the atomic
//! serial counter — so any number of §7-disjoint writers can run their
//! operation bodies in parallel and serialise only for the short
//! commit-publish section.

use std::collections::{BTreeSet, HashSet};

use crate::composite::view::{self, ReadView};
use crate::db::{Database, OrphanPolicy};
use crate::error::{DbError, DbResult};
use crate::object::Object;
use crate::oid::{ClassId, Oid};
use crate::overlay::Overlay;
use crate::refs::ReverseRef;
use crate::schema::attr::{AttributeDef, CompositeSpec, Domain};
use crate::schema::catalog::Catalog;
use crate::value::Value;

/// The storage primitives the composite-object semantics are generic
/// over. See the [module docs](self).
pub(crate) trait Eng {
    /// The underlying engine (catalog, config, schema — read-only).
    fn base(&self) -> &Database;
    /// True if `oid` resolves to a live object in this view.
    fn exists(&self, oid: Oid) -> bool;
    /// Loads an object (deferred schema changes applied).
    fn get(&self, oid: Oid) -> DbResult<Object>;
    /// Persists an existing object.
    fn save(&mut self, obj: &Object) -> DbResult<()>;
    /// Inserts a brand-new object, clustered near `near` when possible.
    fn insert_object(&mut self, obj: &Object, near: Option<Oid>) -> DbResult<()>;
    /// Removes an object (no semantics — the Deletion Rule calls this).
    fn erase(&mut self, oid: Oid) -> DbResult<()>;
    /// Mints the next OID serial and arranges for its durability floor.
    fn alloc_serial(&mut self) -> u64;
    /// Full Deletion-Rule cascade rooted at `oid` (used by orphan
    /// handling, which may recursively delete).
    fn delete_cascade(&mut self, oid: Oid) -> DbResult<Vec<Oid>>;
    /// Is `o1` a (direct or indirect) component of `o2`? The acyclicity
    /// check of attach: the §3.2 walk over this view.
    fn component_of(&self, o1: Oid, o2: Oid) -> DbResult<bool> {
        view::component_of(&mut EngView(self), o1, o2)
    }
}

/// Any execution mode as a [`ReadView`].
struct EngView<'a, E: ?Sized>(&'a E);

impl<E: Eng + ?Sized> ReadView for EngView<'_, E> {
    fn resolve(&mut self, oid: Oid) -> DbResult<Option<Object>> {
        view::found(self.0.get(oid))
    }
    fn visible(&mut self, oid: Oid) -> DbResult<bool> {
        Ok(self.0.exists(oid))
    }
    fn catalog(&mut self) -> DbResult<&Catalog> {
        Ok(&self.0.base().catalog)
    }
}

/// [`Eng`] over `&mut Database`: the single-threaded execution mode.
pub(crate) struct DirectEng<'a>(pub &'a mut Database);

impl Eng for DirectEng<'_> {
    fn base(&self) -> &Database {
        self.0
    }
    fn exists(&self, oid: Oid) -> bool {
        self.0.exists(oid)
    }
    fn get(&self, oid: Oid) -> DbResult<Object> {
        self.0.get(oid)
    }
    fn save(&mut self, obj: &Object) -> DbResult<()> {
        self.0.save(obj)
    }
    fn insert_object(&mut self, obj: &Object, near: Option<Oid>) -> DbResult<()> {
        self.0.insert_object(obj, near)
    }
    fn erase(&mut self, oid: Oid) -> DbResult<()> {
        self.0.erase(oid)
    }
    fn alloc_serial(&mut self) -> u64 {
        let serial = self
            .0
            .next_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Make the serial high-water mark durable with this batch, so a
        // reopened engine never re-issues it even if the object is later
        // deleted (a live-object scan could not see the gap).
        self.0.store.note_serial_floor(serial + 1);
        serial
    }
    fn delete_cascade(&mut self, oid: Oid) -> DbResult<Vec<Oid>> {
        // Route through the public entry point so the cascade joins the
        // enclosing atomic batch with the usual op accounting.
        self.0.delete(oid)
    }
}

/// [`Eng`] over `&Database` + an external [`Overlay`]: the concurrent
/// execution mode, run under a shared engine latch.
pub(crate) struct OverlayEng<'a> {
    pub db: &'a Database,
    pub ov: &'a mut Overlay,
}

impl Eng for OverlayEng<'_> {
    fn base(&self) -> &Database {
        self.db
    }
    fn exists(&self, oid: Oid) -> bool {
        match self.ov.entries.get(&oid) {
            Some(e) => e.image.is_some(),
            None => self.db.exists(oid),
        }
    }
    fn get(&self, oid: Oid) -> DbResult<Object> {
        if let Some(e) = self.ov.entries.get(&oid) {
            let mut obj = e.image.clone().ok_or(DbError::NoSuchObject(oid))?;
            self.db.apply_pending_changes(&mut obj)?;
            return Ok(obj);
        }
        self.db.get(oid)
    }
    fn save(&mut self, obj: &Object) -> DbResult<()> {
        let live = match self.ov.entries.get(&obj.oid) {
            Some(e) => e.image.is_some(),
            None => self.db.exists(obj.oid),
        };
        if !live {
            return Err(DbError::NoSuchObject(obj.oid));
        }
        self.ov.record_save(obj);
        Ok(())
    }
    fn insert_object(&mut self, obj: &Object, near: Option<Oid>) -> DbResult<()> {
        self.db.catalog.class(obj.oid.class)?;
        self.ov.record_insert(obj, near);
        Ok(())
    }
    fn erase(&mut self, oid: Oid) -> DbResult<()> {
        let in_base = self.db.exists(oid);
        let live = match self.ov.entries.get(&oid) {
            Some(e) => e.image.is_some(),
            None => in_base,
        };
        if !live {
            return Err(DbError::NoSuchObject(oid));
        }
        self.ov.record_erase(oid, in_base);
        Ok(())
    }
    fn alloc_serial(&mut self) -> u64 {
        let serial = self
            .db
            .next_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.ov.serial_floor = self.ov.serial_floor.max(serial + 1);
        serial
    }
    fn delete_cascade(&mut self, oid: Oid) -> DbResult<Vec<Oid>> {
        delete_inner(self, oid)
    }
}

// ----------------------------------------------------------------------
// Domain checking
// ----------------------------------------------------------------------

/// Checks `value` against an attribute's domain: shape, and class
/// membership of every referenced object. `exists` is the view's
/// liveness predicate (overlay-aware under [`OverlayEng`], so references
/// to objects created earlier in the same transaction resolve).
pub(crate) fn check_domain_with(
    db: &Database,
    exists: &dyn Fn(Oid) -> bool,
    def: &AttributeDef,
    value: &Value,
) -> DbResult<()> {
    if !def.domain.admits_shape(value) {
        return Err(DbError::DomainMismatch {
            attr: def.name.clone(),
            expected: def.domain.describe(),
            got: format!("{value}"),
        });
    }
    if let Some(dc) = def.domain.referenced_class() {
        for r in value.refs() {
            if !exists(r) {
                return Err(DbError::NoSuchObject(r));
            }
            if !db.is_subclass_of(r.class, dc) {
                return Err(DbError::DomainMismatch {
                    attr: def.name.clone(),
                    expected: def.domain.describe(),
                    got: format!("{r} (instance of {})", r.class),
                });
            }
        }
    } else if matches!(def.domain, Domain::Any) {
        for r in value.refs() {
            if !exists(r) {
                return Err(DbError::NoSuchObject(r));
            }
        }
    }
    Ok(())
}

fn check_domain<E: Eng>(e: &E, def: &AttributeDef, value: &Value) -> DbResult<()> {
    check_domain_with(e.base(), &|o| e.exists(o), def, value)
}

// ----------------------------------------------------------------------
// The Deletion Rule's view of one object
// ----------------------------------------------------------------------

/// Every forward composite reference held by `oid`, with the D/X flags
/// the Deletion Rule decides by.
pub(crate) fn forward_composite_refs_of<E: Eng>(
    e: &E,
    oid: Oid,
) -> DbResult<Vec<(CompositeSpec, Oid)>> {
    let obj = e.get(oid)?;
    let class = e.base().catalog.class(oid.class)?;
    let mut out = Vec::new();
    for (idx, def) in class.attrs.iter().enumerate() {
        if let Some(spec) = def.composite {
            for child in obj.attrs[idx].refs() {
                out.push((spec, child));
            }
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Attach / detach — the §2.4 algorithm and its inverse
// ----------------------------------------------------------------------

/// Adds the reverse composite reference for a forward reference
/// `parent --spec--> child`, enforcing the Make-Component Rule and
/// acyclicity. (The forward reference itself is written by the caller.)
pub(crate) fn attach_child<E: Eng>(
    e: &mut E,
    child: Oid,
    parent: Oid,
    spec: CompositeSpec,
) -> DbResult<()> {
    if !e.exists(child) {
        return Err(DbError::NoSuchObject(child));
    }
    if !e.exists(parent) {
        return Err(DbError::NoSuchObject(parent));
    }
    if child == parent || e.component_of(parent, child)? {
        return Err(DbError::CycleDetected { child, parent });
    }
    let mut cobj = e.get(child)?;
    crate::composite::topology::check_make_component(&cobj, spec)?;
    cobj.reverse_refs
        .push(ReverseRef::new(parent, spec.dependent, spec.exclusive));
    debug_assert!(crate::composite::topology::ParentSets::of(&cobj)
        .check(child)
        .is_ok());
    e.save(&cobj)
}

/// Removes the reverse composite reference for a forward reference the
/// caller already removed, then applies the configured orphan policy.
pub(crate) fn detach_child<E: Eng>(
    e: &mut E,
    child: Oid,
    parent: Oid,
    spec: CompositeSpec,
) -> DbResult<()> {
    let delete_orphans = e.base().config.orphan_policy == OrphanPolicy::DeleteDependentOrphans;
    detach_child_with(e, child, parent, spec, delete_orphans)
}

/// [`detach_child`] with the orphan decision made explicit.
pub(crate) fn detach_child_with<E: Eng>(
    e: &mut E,
    child: Oid,
    parent: Oid,
    spec: CompositeSpec,
    delete_orphans: bool,
) -> DbResult<()> {
    if !e.exists(child) {
        // The child may already be gone if a concurrent cascade removed
        // it; detaching an absent child is a no-op.
        return Ok(());
    }
    let mut cobj = e.get(child)?;
    if !cobj.remove_reverse_ref(parent, spec.dependent, spec.exclusive) {
        return Ok(());
    }
    let lost_last_dependent = spec.dependent && cobj.dx().is_empty() && cobj.ds().is_empty();
    e.save(&cobj)?;
    if lost_last_dependent && delete_orphans {
        e.delete_cascade(child)?;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// make — instance creation (§2.3)
// ----------------------------------------------------------------------

/// Creates an instance: defaults + overrides, `:parent` clause
/// validation (Topology Rule 3 for multi-parent creation), clustering
/// near the first parent, and full reverse-reference wiring. A failed
/// make rolls its half-created instance back and is a no-op.
pub(crate) fn make_inner<E: Eng>(
    e: &mut E,
    class: ClassId,
    values: Vec<(&str, Value)>,
    parents: Vec<(Oid, &str)>,
) -> DbResult<Oid> {
    let class_def = e.base().catalog.class(class)?.clone();
    // Build the attribute vector: defaults, then overrides.
    let mut attrs: Vec<Value> = class_def.attrs.iter().map(|a| a.init.clone()).collect();
    for (name, value) in values {
        let idx = class_def
            .attr_index(name)
            .ok_or_else(|| DbError::NoSuchAttribute {
                class,
                attr: name.into(),
            })?;
        check_domain(e, &class_def.attrs[idx], &value)?;
        attrs[idx] = value;
    }

    // Validate the :parent clause before creating anything.
    let mut composite_parents: Vec<(Oid, String)> = Vec::new();
    let mut weak_parents: Vec<(Oid, String)> = Vec::new();
    for (pobj, pattr) in &parents {
        let pclass = e.base().catalog.class(pobj.class)?;
        let def = pclass.attr(pattr).ok_or_else(|| DbError::NoSuchAttribute {
            class: pobj.class,
            attr: (*pattr).into(),
        })?;
        if let Some(dc) = def.domain.referenced_class() {
            if !e.base().is_subclass_of(class, dc) {
                return Err(DbError::DomainMismatch {
                    attr: (*pattr).into(),
                    expected: def.domain.describe(),
                    got: format!("instance of {class}"),
                });
            }
        }
        if !e.exists(*pobj) {
            return Err(DbError::NoSuchObject(*pobj));
        }
        if def.composite.is_some() {
            composite_parents.push((*pobj, (*pattr).into()));
        } else if def.is_reference() {
            weak_parents.push((*pobj, (*pattr).into()));
        } else {
            return Err(DbError::NotComposite {
                class: pobj.class,
                attr: (*pattr).into(),
            });
        }
    }
    if composite_parents.len() > 1 {
        // §2.3: simultaneous multi-parent creation requires shared
        // composite attributes (else Topology Rule 3 would be violated).
        for (pobj, pattr) in &composite_parents {
            let def = e
                .base()
                .catalog
                .class(pobj.class)?
                .attr(pattr)
                .expect("checked above");
            let spec = def.composite.expect("composite parent");
            if spec.exclusive {
                return Err(DbError::TopologyViolation {
                    rule: 3,
                    object: *pobj,
                    detail: format!("multi-parent creation through exclusive attribute {pattr:?}"),
                });
            }
        }
    }

    let oid = Oid::new(class, e.alloc_serial());
    let obj = Object::new(oid, attrs, class_def.change_count);
    let cluster_near = parents.first().map(|(p, _)| *p);
    e.insert_object(&obj, cluster_near)?;

    // Wire up composite references *from* the new object's own composite
    // attributes (the new object is a parent of those targets).
    let result: DbResult<()> = (|| {
        for (idx, def) in class_def.attrs.iter().enumerate() {
            if let Some(spec) = def.composite {
                let obj = e.get(oid)?;
                for child in obj.attrs[idx].refs() {
                    attach_child(e, child, oid, spec)?;
                }
            }
        }
        // Wire up the :parent clause.
        for (pobj, pattr) in &composite_parents {
            add_to_parent_attr(e, oid, *pobj, pattr)?;
        }
        for (pobj, pattr) in &weak_parents {
            add_to_parent_attr(e, oid, *pobj, pattr)?;
        }
        Ok(())
    })();
    if let Err(err) = result {
        // Roll the half-created instance back so a failed make is a no-op.
        let _ = delete_raw(e, oid);
        return Err(err);
    }
    Ok(oid)
}

/// Adds `child` to `parent`'s attribute `attr` (forward reference), with
/// composite bookkeeping when the attribute is composite. Idempotent; a
/// scalar attribute's previous component is displaced.
pub(crate) fn add_to_parent_attr<E: Eng>(
    e: &mut E,
    child: Oid,
    parent: Oid,
    attr: &str,
) -> DbResult<()> {
    let pclass = e.base().catalog.class(parent.class)?;
    let idx = pclass
        .attr_index(attr)
        .ok_or_else(|| DbError::NoSuchAttribute {
            class: parent.class,
            attr: attr.into(),
        })?;
    let def = pclass.attrs[idx].clone();
    if e.get(parent)?.attrs[idx].references(child) {
        return Ok(());
    }
    if let Some(spec) = def.composite {
        attach_child(e, child, parent, spec)?;
    }
    let mut pobj = e.get(parent)?;
    let displaced: Vec<Oid> = if def.domain.is_set() {
        Vec::new()
    } else {
        pobj.attrs[idx].refs()
    };
    pobj.attrs[idx].add_ref(child, def.domain.is_set());
    e.save(&pobj)?;
    if let Some(spec) = def.composite {
        for d in displaced {
            detach_child(e, d, parent, spec)?;
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Attribute writes
// ----------------------------------------------------------------------

/// Writes one attribute, maintaining composite semantics (attach added
/// references, detach removed ones with orphan handling).
pub(crate) fn set_attr_inner<E: Eng>(
    e: &mut E,
    oid: Oid,
    attr: &str,
    value: Value,
) -> DbResult<()> {
    let class = e.base().catalog.class(oid.class)?;
    let idx = class
        .attr_index(attr)
        .ok_or_else(|| DbError::NoSuchAttribute {
            class: oid.class,
            attr: attr.into(),
        })?;
    let def = class.attrs[idx].clone();
    check_domain(e, &def, &value)?;
    let old = e.get(oid)?.attrs[idx].clone();
    if let Some(spec) = def.composite {
        let old_refs: BTreeSet<Oid> = old.refs().into_iter().collect();
        let new_refs: BTreeSet<Oid> = value.refs().into_iter().collect();
        for added in new_refs.difference(&old_refs) {
            attach_child(e, *added, oid, spec)?;
        }
        // Write the new value before detaching, so orphan cascades see
        // the parent's forward reference already gone.
        let mut obj = e.get(oid)?;
        obj.attrs[idx] = value;
        e.save(&obj)?;
        for removed in old_refs.difference(&new_refs) {
            detach_child(e, *removed, oid, spec)?;
        }
        Ok(())
    } else {
        let mut obj = e.get(oid)?;
        obj.attrs[idx] = value;
        e.save(&obj)
    }
}

/// Writes one attribute **without composite bookkeeping** (references in
/// the value are treated as weak) — the `corion-versions` seam.
pub(crate) fn set_attr_weak<E: Eng>(e: &mut E, oid: Oid, attr: &str, value: Value) -> DbResult<()> {
    let class = e.base().catalog.class(oid.class)?;
    let idx = class
        .attr_index(attr)
        .ok_or_else(|| DbError::NoSuchAttribute {
            class: oid.class,
            attr: attr.into(),
        })?;
    let def = class.attrs[idx].clone();
    check_domain(e, &def, &value)?;
    let mut obj = e.get(oid)?;
    obj.attrs[idx] = value;
    e.save(&obj)
}

// ----------------------------------------------------------------------
// make-component / remove-component (§2.4)
// ----------------------------------------------------------------------

/// Makes `child` a component of `parent` through composite attribute
/// `attr` — bottom-up assembly.
pub(crate) fn make_component_inner<E: Eng>(
    e: &mut E,
    child: Oid,
    parent: Oid,
    attr: &str,
) -> DbResult<()> {
    let pclass = e.base().catalog.class(parent.class)?;
    let def = pclass.attr(attr).ok_or_else(|| DbError::NoSuchAttribute {
        class: parent.class,
        attr: attr.into(),
    })?;
    if def.composite.is_none() {
        return Err(DbError::NotComposite {
            class: parent.class,
            attr: attr.into(),
        });
    }
    if let Some(dc) = def.domain.referenced_class() {
        if !e.base().is_subclass_of(child.class, dc) {
            return Err(DbError::DomainMismatch {
                attr: attr.into(),
                expected: def.domain.describe(),
                got: format!("instance of {}", child.class),
            });
        }
    }
    add_to_parent_attr(e, child, parent, attr)
}

/// Removes `child` from `parent`'s composite attribute `attr`, detaching
/// the reverse reference and applying the orphan policy.
pub(crate) fn remove_component_inner<E: Eng>(
    e: &mut E,
    child: Oid,
    parent: Oid,
    attr: &str,
) -> DbResult<()> {
    let pclass = e.base().catalog.class(parent.class)?;
    let idx = pclass
        .attr_index(attr)
        .ok_or_else(|| DbError::NoSuchAttribute {
            class: parent.class,
            attr: attr.into(),
        })?;
    let def = pclass.attrs[idx].clone();
    let Some(spec) = def.composite else {
        return Err(DbError::NotComposite {
            class: parent.class,
            attr: attr.into(),
        });
    };
    let mut pobj = e.get(parent)?;
    if pobj.attrs[idx].remove_ref(child) == 0 {
        return Err(DbError::NoSuchObject(child));
    }
    e.save(&pobj)?;
    detach_child(e, child, parent, spec)
}

// ----------------------------------------------------------------------
// delete — the Deletion Rule (§2.2)
// ----------------------------------------------------------------------

/// Deletes `root` and recursively every component required by the
/// Deletion Rule; returns the deleted set in deletion order.
pub(crate) fn delete_inner<E: Eng>(e: &mut E, root: Oid) -> DbResult<Vec<Oid>> {
    if !e.exists(root) {
        return Err(DbError::NoSuchObject(root));
    }
    let mut deleted: HashSet<Oid> = HashSet::new();
    let mut order: Vec<Oid> = Vec::new();
    let mut queue: Vec<Oid> = vec![root];
    while let Some(oid) = queue.pop() {
        if deleted.contains(&oid) || !e.exists(oid) {
            continue;
        }
        // 1. Detach children: remove this parent's reverse reference and
        //    decide whether deletion propagates.
        for (spec, child) in forward_composite_refs_of(e, oid)? {
            if deleted.contains(&child) || !e.exists(child) {
                continue;
            }
            let mut cobj = e.get(child)?;
            cobj.remove_reverse_ref(oid, spec.dependent, spec.exclusive);
            e.save(&cobj)?;
            if spec.dependent {
                if spec.exclusive {
                    // Condition 1 / 3.a.
                    queue.push(child);
                } else if cobj.ds().is_empty() && cobj.dx().is_empty() {
                    // Condition 2 / 3.b: this was the last dependent
                    // reference; otherwise DS(O) := DS(O) - O'.
                    queue.push(child);
                }
            }
        }
        // 2. Remove the object from its surviving parents' forward
        //    references.
        let obj = e.get(oid)?; // re-read: reverse refs may have changed
        for rr in &obj.reverse_refs {
            if deleted.contains(&rr.parent) || !e.exists(rr.parent) {
                continue;
            }
            let mut pobj = e.get(rr.parent)?;
            for v in &mut pobj.attrs {
                v.remove_ref(oid);
            }
            e.save(&pobj)?;
        }
        // 3. Physically remove.
        e.erase(oid)?;
        deleted.insert(oid);
        order.push(oid);
    }
    Ok(order)
}

/// Rollback-grade removal: erases `oid` and repairs both directions of
/// bookkeeping **without** any dependent cascade (undoes a half-created
/// `make`).
pub(crate) fn delete_raw<E: Eng>(e: &mut E, oid: Oid) -> DbResult<()> {
    if !e.exists(oid) {
        return Ok(());
    }
    for (spec, child) in forward_composite_refs_of(e, oid)? {
        if e.exists(child) {
            let mut cobj = e.get(child)?;
            cobj.remove_reverse_ref(oid, spec.dependent, spec.exclusive);
            e.save(&cobj)?;
        }
    }
    let obj = e.get(oid)?;
    for rr in obj.reverse_refs.clone() {
        if e.exists(rr.parent) {
            let mut pobj = e.get(rr.parent)?;
            for v in &mut pobj.attrs {
                v.remove_ref(oid);
            }
            e.save(&pobj)?;
        }
    }
    e.erase(oid)
}

// ----------------------------------------------------------------------
// Public &self execution API — operations against an external overlay
// ----------------------------------------------------------------------

impl Database {
    fn overlay_eng<'a>(&'a self, ov: &'a mut Overlay) -> DbResult<OverlayEng<'a>> {
        if self.overlay.is_some() {
            return Err(DbError::TransactionState {
                reason: "external-overlay execution cannot run while an overlay is installed"
                    .into(),
            });
        }
        Ok(OverlayEng { db: self, ov })
    }

    /// [`Database::make`] executed against an external overlay: reads
    /// answer overlay-first, every write lands in `ov`, and the base
    /// engine is untouched — callable under a **shared** reference from
    /// many threads at once (each with its own overlay). Commit the net
    /// effect later with [`Database::overlay_apply`].
    pub fn overlay_make(
        &self,
        ov: &mut Overlay,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> DbResult<Oid> {
        make_inner(&mut self.overlay_eng(ov)?, class, values, parents)
    }

    /// [`Database::set_attr`] against an external overlay (see
    /// [`Database::overlay_make`]).
    pub fn overlay_set_attr(
        &self,
        ov: &mut Overlay,
        oid: Oid,
        attr: &str,
        value: Value,
    ) -> DbResult<()> {
        set_attr_inner(&mut self.overlay_eng(ov)?, oid, attr, value)
    }

    /// [`Database::set_attr_weak`] against an external overlay (see
    /// [`Database::overlay_make`]).
    pub fn overlay_set_attr_weak(
        &self,
        ov: &mut Overlay,
        oid: Oid,
        attr: &str,
        value: Value,
    ) -> DbResult<()> {
        set_attr_weak(&mut self.overlay_eng(ov)?, oid, attr, value)
    }

    /// [`Database::delete`] against an external overlay (see
    /// [`Database::overlay_make`]).
    pub fn overlay_delete(&self, ov: &mut Overlay, root: Oid) -> DbResult<Vec<Oid>> {
        delete_inner(&mut self.overlay_eng(ov)?, root)
    }

    /// [`Database::make_component`] against an external overlay (see
    /// [`Database::overlay_make`]).
    pub fn overlay_make_component(
        &self,
        ov: &mut Overlay,
        child: Oid,
        parent: Oid,
        attr: &str,
    ) -> DbResult<()> {
        make_component_inner(&mut self.overlay_eng(ov)?, child, parent, attr)
    }

    /// [`Database::remove_component`] against an external overlay (see
    /// [`Database::overlay_make`]).
    pub fn overlay_remove_component(
        &self,
        ov: &mut Overlay,
        child: Oid,
        parent: Oid,
        attr: &str,
    ) -> DbResult<()> {
        remove_component_inner(&mut self.overlay_eng(ov)?, child, parent, attr)
    }

    /// [`Database::get`] answering overlay-first against an external
    /// overlay.
    pub fn overlay_get(&self, ov: &Overlay, oid: Oid) -> DbResult<Object> {
        if let Some(image) = ov.lookup(oid) {
            let mut obj = image.cloned().ok_or(DbError::NoSuchObject(oid))?;
            self.apply_pending_changes(&mut obj)?;
            return Ok(obj);
        }
        self.get(oid)
    }

    /// [`Database::get_attr`] answering overlay-first against an external
    /// overlay.
    pub fn overlay_get_attr(&self, ov: &Overlay, oid: Oid, attr: &str) -> DbResult<Value> {
        let idx = self
            .catalog
            .class(oid.class)?
            .attr_index(attr)
            .ok_or_else(|| DbError::NoSuchAttribute {
                class: oid.class,
                attr: attr.into(),
            })?;
        Ok(self.overlay_get(ov, oid)?.attrs[idx].clone())
    }

    /// [`Database::exists`] answering overlay-first against an external
    /// overlay.
    pub fn overlay_exists(&self, ov: &Overlay, oid: Oid) -> bool {
        match ov.lookup(oid) {
            Some(image) => image.is_some(),
            None => self.exists(oid),
        }
    }
}
