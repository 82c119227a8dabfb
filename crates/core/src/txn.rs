//! Public transactions — N logical mutations, one durability point.
//!
//! Every public mutation of the engine autocommits: `make`, `set_attr`,
//! `make_component`, `delete` each execute against a one-operation
//! [`Overlay`] that is applied at once — one storage-level atomic batch,
//! one WAL flush (`crates/storage`: the durability point). The paper's
//! workloads, though, are dominated by *multi-object* logical operations —
//! a bottom-up hierarchy build via `make` with `:parent` clustering (§2.3)
//! touches hundreds of objects — and per-object flushing makes durability
//! the bottleneck.
//!
//! A transaction amortises that cost. Between [`Database::begin_transaction`]
//! and [`Database::commit_transaction`] the engine holds one overlay: every
//! mutation lands in it, every read of the engine answers through it, and
//! commit applies it — each touched object is encoded and written once,
//! one commit marker is appended, and one flush happens.
//! [`Database::abort_transaction`] drops the overlay: the page store, the
//! object table and the class extensions never moved, and the serial
//! counter goes back to its begin-time value.
//!
//! Scope mirrors ORION's transaction management \[GARZ88\]: object state
//! only. DDL, dumps, repair and checkpoints are refused inside a
//! transaction (they work on committed state), and transactions do not
//! nest.
//!
//! [`Database::begin_transaction`]: Database::begin_transaction
//! [`Database::commit_transaction`]: Database::commit_transaction
//! [`Database::abort_transaction`]: Database::abort_transaction

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

use corion_storage::HealthState;

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::exec::OverlayEng;
use crate::object::Object;
use crate::oid::{ClassId, Oid};
use crate::overlay::Overlay;
use crate::refs::ReverseRef;
use crate::schema::attr::CompositeSpec;
use crate::value::Value;

/// The open transaction: the engine's one write scope.
pub(crate) struct TxnState {
    /// Everything the transaction wrote.
    pub(crate) overlay: Overlay,
    /// Serial counter at begin, restored on abort so rolled-back
    /// creations don't burn OIDs.
    next_serial: u64,
    /// Logical operations absorbed so far (for `corion_txn_ops_total`).
    ops: u64,
}

/// A parent reference in a [`MakeSpec`]: either an object that already
/// exists, or an earlier spec of the same [`Database::make_many`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParentRef {
    /// An object that existed before the `make_many` call.
    Existing(Oid),
    /// The object created by spec `i` (zero-based) of the same call.
    /// Forward references are rejected — list parents before children,
    /// which is also the order that lets clustering place each child
    /// near its parent.
    Created(usize),
}

/// One instance to create in a [`Database::make_many`] bulk ingest —
/// the same shape as a [`Database::make`] call, with parents that may
/// point at other specs of the batch.
#[derive(Debug, Clone)]
pub struct MakeSpec {
    /// Class to instantiate.
    pub class: ClassId,
    /// Attribute assignments by name (unassigned attributes take their
    /// `:init` default).
    pub values: Vec<(String, Value)>,
    /// The `:parent` clause. The new object is clustered near the first
    /// parent (§2.3).
    pub parents: Vec<(ParentRef, String)>,
}

impl MakeSpec {
    /// A spec with no values and no parents.
    pub fn new(class: ClassId) -> Self {
        MakeSpec {
            class,
            values: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// Adds an attribute assignment.
    pub fn value(mut self, name: &str, value: Value) -> Self {
        self.values.push((name.into(), value));
        self
    }

    /// Adds a `:parent` pair.
    pub fn parent(mut self, parent: ParentRef, attr: &str) -> Self {
        self.parents.push((parent, attr.into()));
        self
    }
}

/// One pre-validated spec of a batched bulk ingest: resolved attribute
/// values, plus deduplicated `:parent` pairs as (target, attribute index
/// in the parent's class, composite spec — `None` for a weak reference).
struct PlannedMake {
    class: ClassId,
    change_count: u64,
    attrs: Vec<Value>,
    parents: Vec<(ParentRef, usize, Option<CompositeSpec>)>,
}

impl Database {
    /// Opens a transaction. Until [`commit_transaction`] (or
    /// [`abort_transaction`]) every mutation lands in one write set:
    /// one WAL commit marker and one flush for the whole group.
    ///
    /// Transactions do not nest and reject everything that works on
    /// committed state — DDL ([`define_class`] and the schema-evolution
    /// entry points: the catalog is engine memory the WAL cannot roll
    /// back), `dump`, `repair`, `scrub`, `checkpoint`.
    ///
    /// [`commit_transaction`]: Database::commit_transaction
    /// [`abort_transaction`]: Database::abort_transaction
    /// [`define_class`]: Database::define_class
    pub fn begin_transaction(&mut self) -> DbResult<()> {
        self.forbid_in_transaction("open a transaction (transactions do not nest)")?;
        match self.store.health() {
            HealthState::Healthy => {}
            HealthState::Degraded => return Err(DbError::ReadOnly),
            HealthState::Poisoned => {
                return Err(corion_storage::StorageError::NeedsRecovery.into());
            }
        }
        self.txn = Some(TxnState {
            overlay: Overlay::new(),
            next_serial: self.next_serial.load(Ordering::Relaxed),
            ops: 0,
        });
        self.metrics.txn_begins.inc();
        Ok(())
    }

    /// True while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The one guard of everything that needs committed state: a typed
    /// [`DbError::TransactionState`] while a transaction is open.
    pub(crate) fn forbid_in_transaction(&self, what: &str) -> DbResult<()> {
        match self.txn {
            Some(_) => Err(DbError::TransactionState {
                reason: format!("cannot {what} inside an open transaction"),
            }),
            None => Ok(()),
        }
    }

    /// Commits the open transaction: its write set is applied as one
    /// storage batch and one WAL flush makes every grouped mutation
    /// durable at once.
    ///
    /// On a commit-time storage failure the transaction is over and
    /// rolled back: the engine is at its pre-transaction state when the
    /// store is still healthy; a degraded/poisoned store needs
    /// [`Database::recover`], which rebuilds the derived maps wholesale.
    pub fn commit_transaction(&mut self) -> DbResult<()> {
        let txn = self.txn.take().ok_or_else(|| DbError::TransactionState {
            reason: "no transaction is open".into(),
        })?;
        let result = self.overlay_apply(txn.overlay).map(drop);
        if result.is_ok() {
            self.metrics.txn_commits.inc();
            self.metrics.txn_ops.add(txn.ops);
        } else {
            self.next_serial.store(txn.next_serial, Ordering::Relaxed);
            self.metrics.txn_aborts.inc();
        }
        result
    }

    /// Rolls the open transaction back: its write set is dropped (nothing
    /// of it ever reached the page store or the object table) and the
    /// serial counter returns to its begin-time value.
    pub fn abort_transaction(&mut self) -> DbResult<()> {
        let txn = self.txn.take().ok_or_else(|| DbError::TransactionState {
            reason: "no transaction is open".into(),
        })?;
        self.next_serial.store(txn.next_serial, Ordering::Relaxed);
        self.metrics.txn_aborts.inc();
        Ok(())
    }

    /// Runs `f` inside one transaction: commits on `Ok`, aborts on `Err`.
    ///
    /// ```
    /// use corion_core::{ClassBuilder, Database, Domain, Value};
    ///
    /// let mut db = Database::new();
    /// let part = db
    ///     .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
    ///     .unwrap();
    /// let oids = db
    ///     .transaction(|db| {
    ///         (0..10)
    ///             .map(|i| db.make(part, vec![("n", Value::Int(i))], vec![]))
    ///             .collect::<Result<Vec<_>, _>>()
    ///     })
    ///     .unwrap();
    /// assert_eq!(oids.len(), 10);
    /// ```
    pub fn transaction<R>(&mut self, f: impl FnOnce(&mut Self) -> DbResult<R>) -> DbResult<R> {
        self.begin_transaction()?;
        match f(self) {
            Ok(out) => {
                self.commit_transaction()?;
                Ok(out)
            }
            Err(e) => {
                let _ = self.abort_transaction();
                Err(e)
            }
        }
    }

    /// Runs one mutating operation (`ops` logical operations) the way
    /// every `&mut self` mutation of the engine runs: against the open
    /// transaction's overlay, or — autocommit — against a fresh overlay
    /// that is applied at once. `op` is one of the `overlay_*` executors,
    /// so an `Err` has already left the overlay as it was.
    pub(crate) fn run_op<R>(
        &mut self,
        ops: u64,
        op: impl FnOnce(&Database, &mut Overlay) -> DbResult<R>,
    ) -> DbResult<R> {
        match self.txn.take() {
            Some(mut txn) => {
                let result = op(self, &mut txn.overlay);
                if result.is_ok() {
                    txn.ops += ops;
                }
                self.txn = Some(txn);
                result
            }
            None => {
                let mut overlay = Overlay::new();
                let out = op(self, &mut overlay)?;
                self.overlay_apply(overlay)?;
                Ok(out)
            }
        }
    }

    /// Bulk ingest: creates every spec'd instance inside one transaction —
    /// one WAL flush for the whole hierarchy — with clustering-aware
    /// placement (each instance is placed near its first parent, the
    /// `:parent` clustering directive of §2.3). Specs may reference
    /// earlier specs of the same call via [`ParentRef::Created`], so a
    /// composite hierarchy builds top-down in one shot. Returns the
    /// created OIDs in spec order; any failure makes the whole call a
    /// no-op.
    ///
    /// Joins an already-open transaction rather than opening its own (the
    /// enclosing commit/abort then governs durability).
    ///
    /// The common bulk shape — set-valued parent attributes, composite
    /// attributes that start empty — takes a batched path: each child's
    /// reverse references are built into its initial image, and each
    /// parent's forward references are accumulated in memory and written
    /// exactly once, instead of one read-modify-write cycle per child.
    /// Shapes needing the full `make` protocol (scalar parent attributes
    /// with displacement, composite attributes pre-seeded with
    /// references) run spec by spec, still as one operation.
    pub fn make_many(&mut self, specs: &[MakeSpec]) -> DbResult<Vec<Oid>> {
        if self.in_transaction() {
            self.run_op(specs.len() as u64, |db, ov| {
                db.scoped(ov, |e| match plan_bulk_ingest(e, specs) {
                    Some(plans) => run_bulk_ingest(e, plans),
                    None => make_many_general(e, specs),
                })
            })
        } else {
            self.transaction(|db| db.make_many(specs))
        }
    }
}

/// Validates `specs` for the batched ingest path. `None` means "use
/// the general path" — either the shape needs the full `make`
/// protocol, or a spec has an error the general path will report with
/// its usual diagnostics. The batched path therefore only ever runs on
/// fully pre-validated input.
fn plan_bulk_ingest(e: &OverlayEng<'_>, specs: &[MakeSpec]) -> Option<Vec<PlannedMake>> {
    let db = e.db;
    let mut plans = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let class_def = db.catalog.class(spec.class).ok()?;
        let mut attrs: Vec<Value> = class_def.attrs.iter().map(|a| a.init.clone()).collect();
        for (name, value) in &spec.values {
            let idx = class_def.attr_index(name)?;
            crate::exec::check_domain(e, &class_def.attrs[idx], value).ok()?;
            attrs[idx] = value.clone();
        }
        // A composite attribute that starts with references needs the
        // attach protocol (cycle checks, reverse refs on the targets).
        for (idx, def) in class_def.attrs.iter().enumerate() {
            if def.composite.is_some() && !attrs[idx].refs().is_empty() {
                return None;
            }
        }
        let mut parents: Vec<(ParentRef, usize, Option<CompositeSpec>)> = Vec::new();
        for (pref, pattr) in &spec.parents {
            let pclass_id = match *pref {
                ParentRef::Existing(oid) => {
                    if !e.exists(oid) {
                        return None;
                    }
                    oid.class
                }
                ParentRef::Created(j) => {
                    if j >= i {
                        return None; // forward reference: general path reports it
                    }
                    specs[j].class
                }
            };
            let pclass = db.catalog.class(pclass_id).ok()?;
            let idx = pclass.attr_index(pattr)?;
            let def = &pclass.attrs[idx];
            if let Some(dc) = def.domain.referenced_class() {
                if !db.is_subclass_of(spec.class, dc) {
                    return None;
                }
            }
            // Scalar parent attributes displace their previous
            // component; non-reference attributes are an error. Both
            // go through the general path.
            if !def.domain.is_set() || !(def.composite.is_some() || def.is_reference()) {
                return None;
            }
            if parents.iter().any(|&(p, a, _)| p == *pref && a == idx) {
                continue; // duplicate pair: `make` treats the repeat as a no-op
            }
            parents.push((*pref, idx, def.composite));
        }
        let composite = parents.iter().filter(|(_, _, c)| c.is_some()).count();
        if composite > 1
            && parents
                .iter()
                .any(|(_, _, c)| c.is_some_and(|s| s.exclusive))
        {
            return None; // Topology Rule 3 violation: general path reports it
        }
        plans.push(PlannedMake {
            class: spec.class,
            change_count: class_def.change_count,
            attrs,
            parents,
        });
    }
    Some(plans)
}

/// Executes a pre-validated bulk plan: mint the batch's serials with one
/// atomic bump, construct each child with its reverse references already
/// in its image, and accumulate forward references in memory — straight
/// into the image of a parent the batch itself creates, in a working copy
/// of one that already existed — so each object is recorded, and later
/// written, exactly once. Creations are recorded in spec order, which is
/// the order the apply places them in whatever the stripe count: that
/// keeps dumps and checkpoints byte-identical across shard configurations.
fn run_bulk_ingest(e: &mut OverlayEng<'_>, plans: Vec<PlannedMake>) -> DbResult<Vec<Oid>> {
    let base = e.alloc_serials(plans.len() as u64);
    // Creation-time image + clustering hint, in spec order.
    let mut made: Vec<(Object, Option<Oid>)> = Vec::with_capacity(plans.len());
    // Working copies of the pre-existing parents touched.
    let mut existing: HashMap<Oid, Object> = HashMap::new();
    for (k, plan) in plans.into_iter().enumerate() {
        let oid = Oid::new(plan.class, base + k as u64);
        let mut obj = Object::new(oid, plan.attrs, plan.change_count);
        let mut near = None;
        for &(pref, idx, cspec) in &plan.parents {
            let pobj = match pref {
                ParentRef::Created(j) => &mut made[j].0,
                ParentRef::Existing(poid) => match existing.entry(poid) {
                    Entry::Occupied(slot) => slot.into_mut(),
                    Entry::Vacant(slot) => slot.insert(e.get(poid)?),
                },
            };
            pobj.attrs[idx].add_ref(oid, true);
            near = near.or(Some(pobj.oid));
            if let Some(spec) = cspec {
                obj.reverse_refs
                    .push(ReverseRef::new(pobj.oid, spec.dependent, spec.exclusive));
            }
        }
        debug_assert!(
            crate::composite::ParentSets::of(&obj).check(oid).is_ok(),
            "plan_bulk_ingest admitted a topology violation"
        );
        made.push((obj, near));
    }
    let created = made.iter().map(|(obj, _)| obj.oid).collect();
    for (obj, near) in made {
        e.insert_object(obj, near)?;
    }
    for pobj in existing.into_values() {
        e.save(pobj)?;
    }
    Ok(created)
}

/// The spec-by-spec path: every spec is a full `make`.
fn make_many_general(e: &mut OverlayEng<'_>, specs: &[MakeSpec]) -> DbResult<Vec<Oid>> {
    let mut created: Vec<Oid> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let mut parents: Vec<(Oid, &str)> = Vec::with_capacity(spec.parents.len());
        for (parent, attr) in &spec.parents {
            let oid = match parent {
                ParentRef::Existing(oid) => *oid,
                ParentRef::Created(j) => {
                    *created.get(*j).ok_or_else(|| DbError::TransactionState {
                        reason: format!(
                            "make_many spec #{i} references spec #{j}, which is not \
                             created yet (forward references are not allowed)"
                        ),
                    })?
                }
            };
            parents.push((oid, attr.as_str()));
        }
        let values: Vec<(&str, Value)> = spec
            .values
            .iter()
            .map(|(name, value)| (name.as_str(), value.clone()))
            .collect();
        created.push(crate::exec::make_inner(e, spec.class, values, parents)?);
    }
    Ok(created)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::attr::Domain;
    use crate::schema::class::ClassBuilder;

    fn setup() -> (Database, ClassId, ClassId) {
        let mut db = Database::new();
        let item = db
            .define_class(ClassBuilder::new("Item").attr("n", Domain::Integer))
            .unwrap();
        let holder = db
            .define_class(ClassBuilder::new("Holder").attr_composite(
                "slot",
                Domain::Class(item),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        (db, item, holder)
    }

    #[test]
    fn abort_restores_attribute_values() {
        let (mut db, item, _) = setup();
        let o = db.make(item, vec![("n", Value::Int(1))], vec![]).unwrap();
        db.begin_transaction().unwrap();
        db.set_attr(o, "n", Value::Int(99)).unwrap();
        assert_eq!(db.get_attr(o, "n").unwrap(), Value::Int(99));
        db.abort_transaction().unwrap();
        assert_eq!(db.get_attr(o, "n").unwrap(), Value::Int(1));
    }

    #[test]
    fn abort_removes_created_objects() {
        let (mut db, item, _) = setup();
        db.begin_transaction().unwrap();
        let o = db.make(item, vec![], vec![]).unwrap();
        assert!(db.exists(o));
        assert_eq!(db.instances_of(item, false), vec![o]);
        db.abort_transaction().unwrap();
        assert!(!db.exists(o));
        assert!(db.instances_of(item, false).is_empty());
    }

    #[test]
    fn abort_resurrects_deleted_composite_objects() {
        let (mut db, item, holder) = setup();
        let i = db.make(item, vec![("n", Value::Int(7))], vec![]).unwrap();
        let h = db
            .make(holder, vec![("slot", Value::Ref(i))], vec![])
            .unwrap();
        db.begin_transaction().unwrap();
        db.delete(h).unwrap();
        assert!(!db.exists(h) && !db.exists(i), "dependent cascade ran");
        assert_eq!(db.object_count(), 0);
        db.abort_transaction().unwrap();
        assert!(db.exists(h) && db.exists(i), "both resurrected");
        assert_eq!(db.get_attr(h, "slot").unwrap(), Value::Ref(i));
        assert_eq!(
            db.get(i).unwrap().dx(),
            vec![h],
            "reverse reference restored"
        );
        db.verify_integrity().unwrap();
    }

    #[test]
    fn abort_undoes_component_attachment() {
        let (mut db, item, holder) = setup();
        let i = db.make(item, vec![], vec![]).unwrap();
        let h = db.make(holder, vec![], vec![]).unwrap();
        db.begin_transaction().unwrap();
        db.make_component(i, h, "slot").unwrap();
        assert!(db.child_of(i, h).unwrap(), "reads see the open transaction");
        db.abort_transaction().unwrap();
        assert_eq!(db.get_attr(h, "slot").unwrap(), Value::Null);
        assert!(db.get(i).unwrap().reverse_refs.is_empty());
        db.verify_integrity().unwrap();
    }

    #[test]
    fn commit_makes_changes_permanent() {
        let (mut db, item, _) = setup();
        let o = db.make(item, vec![("n", Value::Int(1))], vec![]).unwrap();
        db.begin_transaction().unwrap();
        db.set_attr(o, "n", Value::Int(2)).unwrap();
        db.commit_transaction().unwrap();
        assert_eq!(db.get_attr(o, "n").unwrap(), Value::Int(2));
        assert!(
            db.abort_transaction().is_err(),
            "transaction already closed"
        );
    }

    #[test]
    fn transactions_do_not_nest_and_ddl_is_rejected() {
        let (mut db, item, _) = setup();
        let plain = |name| crate::schema::attr::AttributeDef::plain(name, Domain::Integer);
        db.begin_transaction().unwrap();
        assert!(db.begin_transaction().is_err());
        assert!(matches!(
            db.add_attribute(item, plain("x")),
            Err(DbError::TransactionState { .. })
        ));
        assert!(matches!(
            db.drop_attribute(item, "n"),
            Err(DbError::TransactionState { .. })
        ));
        db.commit_transaction().unwrap();
        // Outside the transaction DDL works again.
        db.add_attribute(item, plain("x")).unwrap();
    }

    #[test]
    fn interleaved_mutations_restore_exactly() {
        let (mut db, item, holder) = setup();
        let i1 = db.make(item, vec![("n", Value::Int(1))], vec![]).unwrap();
        let h = db
            .make(holder, vec![("slot", Value::Ref(i1))], vec![])
            .unwrap();
        db.begin_transaction().unwrap();
        // A messy transaction: detach, create, attach the new one, mutate.
        db.set_attr(h, "slot", Value::Null).unwrap(); // deletes i1 (dependent orphan)
        let i2 = db.make(item, vec![("n", Value::Int(2))], vec![]).unwrap();
        db.make_component(i2, h, "slot").unwrap();
        db.set_attr(i2, "n", Value::Int(3)).unwrap();
        db.abort_transaction().unwrap();
        assert!(db.exists(i1), "orphan-deleted component resurrected");
        assert!(!db.exists(i2), "created component removed");
        assert_eq!(db.get_attr(h, "slot").unwrap(), Value::Ref(i1));
        assert_eq!(db.get_attr(i1, "n").unwrap(), Value::Int(1));
        db.verify_integrity().unwrap();
    }
}
