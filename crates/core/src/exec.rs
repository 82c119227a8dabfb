//! Execution engine — the composite-object semantics.
//!
//! Every paper operation (`make` §2.3, the Make-Component algorithm §2.4,
//! `set_attr` with attach/detach bookkeeping, the Deletion Rule §2.2) is
//! implemented here exactly once, as a free function over [`OverlayEng`]:
//! `&Database` plus the [`Overlay`] the operation writes into. Reads answer
//! overlay-first ([`crate::overlay::OverlayView`]), writes land only in the
//! overlay, and serial allocation uses the engine's atomic counter plus a
//! floor *hint* recorded in the overlay (flushed to the WAL by
//! [`Database::overlay_apply`], inside the commit batch).
//!
//! Execution needs no `&mut Database` at all — the only engine state it
//! touches is the atomic serial counter — so the concurrent layer runs any
//! number of §7-disjoint writers' operation bodies in parallel under a
//! **shared** engine latch and serialises only the short commit-publish
//! section; the single-threaded entry points are the same calls made with
//! the latch the borrow checker already gives them.
//!
//! The public entry points at the bottom ([`Database::overlay_make`] and
//! friends) each run in an **operation scope** of the overlay: when the
//! operation returns `Err` — rejected by a topology rule half-way through,
//! say — everything it wrote is taken back out, so a rejected message is a
//! no-op whoever sent it.

use std::collections::{BTreeSet, HashSet};

use crate::composite::view;
use crate::db::{Database, OrphanPolicy};
use crate::error::{DbError, DbResult};
use crate::object::Object;
use crate::oid::{ClassId, Oid};
use crate::overlay::Overlay;
use crate::refs::ReverseRef;
use crate::schema::attr::{AttributeDef, CompositeSpec, Domain};
use crate::value::Value;

/// One operation's execution context: the engine (read only) and the
/// write set its writes land in. See the [module docs](self).
pub(crate) struct OverlayEng<'a> {
    pub(crate) db: &'a Database,
    pub(crate) ov: &'a mut Overlay,
}

impl OverlayEng<'_> {
    /// True if `oid` resolves to a live object in this view.
    pub(crate) fn exists(&self, oid: Oid) -> bool {
        self.db.view_over(self.ov).exists(oid)
    }
    /// Loads an object (deferred schema changes applied).
    pub(crate) fn get(&self, oid: Oid) -> DbResult<Object> {
        self.db.view_over(self.ov).get(oid)
    }
    /// [`Database::instances_of`] in this view.
    pub(crate) fn instances_of(&self, class: ClassId, deep: bool) -> Vec<Oid> {
        self.db.view_over(self.ov).instances_of(class, deep)
    }
    /// Persists an existing object.
    pub(crate) fn save(&mut self, obj: Object) -> DbResult<()> {
        if !self.exists(obj.oid) {
            return Err(DbError::NoSuchObject(obj.oid));
        }
        self.ov.record_save(obj);
        Ok(())
    }
    /// Inserts a brand-new object, clustered near `near` when possible
    /// (the hint is captured and honoured at apply time).
    pub(crate) fn insert_object(&mut self, obj: Object, near: Option<Oid>) -> DbResult<()> {
        self.db.catalog.class(obj.oid.class)?;
        self.ov.record_insert(obj, near);
        Ok(())
    }
    /// Removes an object (no semantics — the Deletion Rule calls this).
    fn erase(&mut self, oid: Oid) -> DbResult<()> {
        if !self.exists(oid) {
            return Err(DbError::NoSuchObject(oid));
        }
        self.ov.record_erase(oid, self.db.shards.contains(oid));
        Ok(())
    }
    /// Mints the next `n` OID serials (returning the first) and notes
    /// their durability floor in the write set: the apply flushes it to
    /// the WAL inside the commit batch, so a reopened engine never
    /// re-issues a serial even if the object is later deleted (a
    /// live-object scan could not see the gap).
    pub(crate) fn alloc_serials(&mut self, n: u64) -> u64 {
        let first = self
            .db
            .next_serial
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        self.ov.raise_serial_floor(first + n);
        first
    }
    /// Is `o1` a (direct or indirect) component of `o2`? The acyclicity
    /// check of attach: the §3.2 walk over this view.
    fn component_of(&self, o1: Oid, o2: Oid) -> DbResult<bool> {
        view::component_of(&mut self.db.view_over(self.ov), o1, o2)
    }
}

// ----------------------------------------------------------------------
// Domain checking
// ----------------------------------------------------------------------

/// Checks `value` against an attribute's domain: shape, and class
/// membership of every referenced object — live in the operation's view,
/// so references to objects created earlier in the same transaction
/// resolve.
pub(crate) fn check_domain(e: &OverlayEng<'_>, def: &AttributeDef, value: &Value) -> DbResult<()> {
    if !def.domain.admits_shape(value) {
        return Err(DbError::DomainMismatch {
            attr: def.name.clone(),
            expected: def.domain.describe(),
            got: format!("{value}"),
        });
    }
    if let Some(dc) = def.domain.referenced_class() {
        for r in value.refs() {
            if !e.exists(r) {
                return Err(DbError::NoSuchObject(r));
            }
            if !e.db.is_subclass_of(r.class, dc) {
                return Err(DbError::DomainMismatch {
                    attr: def.name.clone(),
                    expected: def.domain.describe(),
                    got: format!("{r} (instance of {})", r.class),
                });
            }
        }
    } else if matches!(def.domain, Domain::Any) {
        for r in value.refs() {
            if !e.exists(r) {
                return Err(DbError::NoSuchObject(r));
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The Deletion Rule's view of one object
// ----------------------------------------------------------------------

/// Every forward composite reference held by `oid`, with the D/X flags
/// the Deletion Rule decides by.
pub(crate) fn forward_composite_refs_of(
    e: &OverlayEng<'_>,
    oid: Oid,
) -> DbResult<Vec<(CompositeSpec, Oid)>> {
    let obj = e.get(oid)?;
    let class = e.db.catalog.class(oid.class)?;
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
pub(crate) fn attach_child(
    e: &mut OverlayEng<'_>,
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
    e.save(cobj)
}

/// Removes the reverse composite reference for a forward reference the
/// caller already removed, then applies the configured orphan policy.
pub(crate) fn detach_child(
    e: &mut OverlayEng<'_>,
    child: Oid,
    parent: Oid,
    spec: CompositeSpec,
) -> DbResult<()> {
    let delete_orphans = e.db.config.orphan_policy == OrphanPolicy::DeleteDependentOrphans;
    detach_child_with(e, child, parent, spec, delete_orphans)
}

/// [`detach_child`] with the orphan decision made explicit.
pub(crate) fn detach_child_with(
    e: &mut OverlayEng<'_>,
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
    e.save(cobj)?;
    if lost_last_dependent && delete_orphans {
        delete_inner(e, child)?;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// make — instance creation (§2.3)
// ----------------------------------------------------------------------

/// Creates an instance: defaults + overrides, `:parent` clause
/// validation (Topology Rule 3 for multi-parent creation), clustering
/// near the first parent, and full reverse-reference wiring. A make
/// rejected after the instance exists relies on the caller's operation
/// scope to take it back out.
pub(crate) fn make_inner(
    e: &mut OverlayEng<'_>,
    class: ClassId,
    values: Vec<(&str, Value)>,
    parents: Vec<(Oid, &str)>,
) -> DbResult<Oid> {
    let class_def = e.db.catalog.class(class)?.clone();
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
        let pclass = e.db.catalog.class(pobj.class)?;
        let def = pclass.attr(pattr).ok_or_else(|| DbError::NoSuchAttribute {
            class: pobj.class,
            attr: (*pattr).into(),
        })?;
        if let Some(dc) = def.domain.referenced_class() {
            if !e.db.is_subclass_of(class, dc) {
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
            let def =
                e.db.catalog
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

    // The new object's own composite references (it is a parent of those
    // targets), in class layout order.
    let own_components: Vec<(CompositeSpec, Oid)> = class_def
        .attrs
        .iter()
        .zip(&attrs)
        .filter_map(|(def, value)| Some((def.composite?, value.refs())))
        .flat_map(|(spec, refs)| refs.into_iter().map(move |child| (spec, child)))
        .collect();

    let oid = Oid::new(class, e.alloc_serials(1));
    let obj = Object::new(oid, attrs, class_def.change_count);
    let cluster_near = parents.first().map(|(p, _)| *p);
    e.insert_object(obj, cluster_near)?;

    for (spec, child) in own_components {
        attach_child(e, child, oid, spec)?;
    }
    // Wire up the :parent clause.
    for (pobj, pattr) in composite_parents.iter().chain(&weak_parents) {
        add_to_parent_attr(e, oid, *pobj, pattr)?;
    }
    Ok(oid)
}

/// Adds `child` to `parent`'s attribute `attr` (forward reference), with
/// composite bookkeeping when the attribute is composite. Idempotent; a
/// scalar attribute's previous component is displaced.
pub(crate) fn add_to_parent_attr(
    e: &mut OverlayEng<'_>,
    child: Oid,
    parent: Oid,
    attr: &str,
) -> DbResult<()> {
    let idx = e.db.catalog.attr_slot(parent.class, attr)?;
    let def = e.db.catalog.class(parent.class)?.attrs[idx].clone();
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
    e.save(pobj)?;
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
pub(crate) fn set_attr_inner(
    e: &mut OverlayEng<'_>,
    oid: Oid,
    attr: &str,
    value: Value,
) -> DbResult<()> {
    let idx = e.db.catalog.attr_slot(oid.class, attr)?;
    let def = e.db.catalog.class(oid.class)?.attrs[idx].clone();
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
        e.save(obj)?;
        for removed in old_refs.difference(&new_refs) {
            detach_child(e, *removed, oid, spec)?;
        }
        Ok(())
    } else {
        let mut obj = e.get(oid)?;
        obj.attrs[idx] = value;
        e.save(obj)
    }
}

/// Writes one attribute **without composite bookkeeping** (references in
/// the value are treated as weak) — the `corion-versions` seam.
pub(crate) fn set_attr_weak(
    e: &mut OverlayEng<'_>,
    oid: Oid,
    attr: &str,
    value: Value,
) -> DbResult<()> {
    let idx = e.db.catalog.attr_slot(oid.class, attr)?;
    let def = e.db.catalog.class(oid.class)?.attrs[idx].clone();
    check_domain(e, &def, &value)?;
    let mut obj = e.get(oid)?;
    obj.attrs[idx] = value;
    e.save(obj)
}

// ----------------------------------------------------------------------
// make-component / remove-component (§2.4)
// ----------------------------------------------------------------------

/// Makes `child` a component of `parent` through composite attribute
/// `attr` — bottom-up assembly.
pub(crate) fn make_component_inner(
    e: &mut OverlayEng<'_>,
    child: Oid,
    parent: Oid,
    attr: &str,
) -> DbResult<()> {
    let pclass = e.db.catalog.class(parent.class)?;
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
        if !e.db.is_subclass_of(child.class, dc) {
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
pub(crate) fn remove_component_inner(
    e: &mut OverlayEng<'_>,
    child: Oid,
    parent: Oid,
    attr: &str,
) -> DbResult<()> {
    let idx = e.db.catalog.attr_slot(parent.class, attr)?;
    let def = e.db.catalog.class(parent.class)?.attrs[idx].clone();
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
    e.save(pobj)?;
    detach_child(e, child, parent, spec)
}

// ----------------------------------------------------------------------
// delete — the Deletion Rule (§2.2)
// ----------------------------------------------------------------------

/// Deletes `root` and recursively every component required by the
/// Deletion Rule; returns the deleted set in deletion order.
pub(crate) fn delete_inner(e: &mut OverlayEng<'_>, root: Oid) -> DbResult<Vec<Oid>> {
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
            // Condition 1 / 3.a: a dependent exclusive reference. Condition
            // 2 / 3.b: this was the last dependent shared reference;
            // otherwise DS(O) := DS(O) - O'.
            let propagates = spec.dependent
                && (spec.exclusive || (cobj.ds().is_empty() && cobj.dx().is_empty()));
            e.save(cobj)?;
            if propagates {
                queue.push(child);
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
            e.save(pobj)?;
        }
        // 3. Physically remove.
        e.erase(oid)?;
        deleted.insert(oid);
        order.push(oid);
    }
    Ok(order)
}

// ----------------------------------------------------------------------
// Public &self execution API — operations against an external overlay
// ----------------------------------------------------------------------

impl Database {
    /// Runs one operation against `ov` in an operation scope: on `Err`
    /// the write set is put back as it was before the call.
    pub(crate) fn scoped<R>(
        &self,
        ov: &mut Overlay,
        op: impl FnOnce(&mut OverlayEng<'_>) -> DbResult<R>,
    ) -> DbResult<R> {
        let mark = ov.begin_op();
        let result = op(&mut OverlayEng { db: self, ov });
        ov.end_op(mark, result.is_ok());
        result
    }

    /// [`Database::make`] executed against an external overlay: reads
    /// answer overlay-first, every write lands in `ov`, and the base
    /// engine is untouched — callable under a **shared** reference from
    /// many threads at once (each with its own overlay). Commit the net
    /// effect later with [`Database::overlay_apply`]. Like every
    /// `overlay_*` operation, a call that returns `Err` leaves `ov` as it
    /// found it.
    pub fn overlay_make(
        &self,
        ov: &mut Overlay,
        class: ClassId,
        values: Vec<(&str, Value)>,
        parents: Vec<(Oid, &str)>,
    ) -> DbResult<Oid> {
        self.scoped(ov, |e| make_inner(e, class, values, parents))
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
        self.scoped(ov, |e| set_attr_inner(e, oid, attr, value))
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
        self.scoped(ov, |e| set_attr_weak(e, oid, attr, value))
    }

    /// [`Database::delete`] against an external overlay (see
    /// [`Database::overlay_make`]).
    pub fn overlay_delete(&self, ov: &mut Overlay, root: Oid) -> DbResult<Vec<Oid>> {
        self.scoped(ov, |e| delete_inner(e, root))
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
        self.scoped(ov, |e| make_component_inner(e, child, parent, attr))
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
        self.scoped(ov, |e| remove_component_inner(e, child, parent, attr))
    }
}
