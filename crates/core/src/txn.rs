//! Public transactions — N logical mutations, one durability point.
//!
//! Every public mutation of the engine autocommits: `make`, `set_attr`,
//! `make_component`, `delete` each run one storage-level atomic batch and
//! pay one WAL flush (`crates/storage`: the durability point). The paper's
//! workloads, though, are dominated by *multi-object* logical operations —
//! a bottom-up hierarchy build via `make` with `:parent` clustering (§2.3)
//! touches hundreds of objects — and per-object flushing makes durability
//! the bottleneck.
//!
//! A transaction amortises that cost. Between [`Database::begin_transaction`]
//! and [`Database::commit_transaction`] every mutation joins one open
//! storage batch: pages are logged once (deduplicated by the batch),
//! one commit marker is appended, and one flush happens.
//! [`Database::abort_transaction`] rolls everything back: the storage
//! layer rewinds its log and frames (no-steal policy — dirty pages never
//! reach disk before commit), and the engine restores its derived maps
//! (object table, class extensions, serial counter) from per-transaction
//! before-entries.
//!
//! Scope mirrors ORION's transaction management \[GARZ88\]: object state
//! only. DDL is rejected inside a transaction (the catalog is engine
//! memory, outside the WAL's crash scope), transactions do not nest, and
//! a transaction excludes the object-level [`undo`](crate::undo) scope —
//! the two are alternative rollback mechanisms.
//!
//! [`Database::begin_transaction`]: Database::begin_transaction
//! [`Database::commit_transaction`]: Database::commit_transaction
//! [`Database::abort_transaction`]: Database::abort_transaction

use std::collections::{HashMap, HashSet};

use corion_storage::{HealthState, PhysId};

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::object::Object;
use crate::oid::{ClassId, Oid};
use crate::refs::ReverseRef;
use crate::schema::attr::CompositeSpec;
use crate::value::Value;

/// Book-keeping for one open transaction.
pub(crate) struct TxnState {
    /// Object-table entry of every object touched, at its *first* touch
    /// (`None` = did not exist). Abort re-installs these; the storage
    /// rollback makes the recorded `PhysId`s valid again.
    table_before: HashMap<Oid, Option<PhysId>>,
    /// Serial counter at begin, restored on abort so rolled-back
    /// creations don't burn OIDs.
    next_serial: u64,
    /// Logical operations absorbed so far (for `corion_txn_ops_total`).
    pub(crate) ops: u64,
    /// Set when a joined operation hit a substrate failure: the batch can
    /// no longer commit as a unit, only abort.
    pub(crate) failed: bool,
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
    /// [`abort_transaction`]) every mutation joins one storage batch:
    /// one WAL commit marker and one flush for the whole group.
    ///
    /// Transactions do not nest, exclude the [`begin_undo`] scope, and
    /// reject DDL ([`define_class`] and the schema-evolution entry
    /// points) — the catalog is engine memory the WAL cannot roll back.
    ///
    /// [`commit_transaction`]: Database::commit_transaction
    /// [`abort_transaction`]: Database::abort_transaction
    /// [`begin_undo`]: Database::begin_undo
    /// [`define_class`]: Database::define_class
    pub fn begin_transaction(&mut self) -> DbResult<()> {
        if self.txn.is_some() {
            return Err(DbError::TransactionState {
                reason: "a transaction is already open (transactions do not nest)".into(),
            });
        }
        if self.undo.is_some() {
            return Err(DbError::TransactionState {
                reason: "a transaction cannot open inside an undo scope".into(),
            });
        }
        if self.overlay.is_some() {
            return Err(DbError::TransactionState {
                reason: "a transaction cannot open while a concurrent write overlay is installed"
                    .into(),
            });
        }
        self.store.begin_atomic()?;
        self.txn = Some(TxnState {
            table_before: HashMap::new(),
            next_serial: self.next_serial.load(std::sync::atomic::Ordering::Relaxed),
            ops: 0,
            failed: false,
        });
        self.metrics.txn_begins.inc();
        Ok(())
    }

    /// True while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Commits the open transaction: one WAL flush makes every grouped
    /// mutation durable at once.
    ///
    /// If any operation inside the transaction hit a substrate failure
    /// the commit is refused and the transaction rolls back instead
    /// (partial durability is exactly what a transaction promises not to
    /// deliver). On a commit-time storage failure the engine's maps are
    /// restored when the store rolled back cleanly; a degraded/poisoned
    /// store needs [`Database::recover`], which rebuilds them wholesale.
    pub fn commit_transaction(&mut self) -> DbResult<()> {
        let txn = self.txn.take().ok_or_else(|| DbError::TransactionState {
            reason: "no transaction is open".into(),
        })?;
        if txn.failed {
            self.txn = Some(txn);
            self.abort_transaction()?;
            return Err(DbError::TransactionState {
                reason: "the transaction hit a storage fault and was rolled back".into(),
            });
        }
        let result = self.commit_batch();
        match result {
            Ok(()) => {
                self.metrics.txn_commits.inc();
                self.metrics.txn_ops.add(txn.ops);
                Ok(())
            }
            Err(e) => {
                if self.store.health() == HealthState::Healthy {
                    // The store aborted the batch cleanly (e.g. a transient
                    // flush fault that exhausted its retry budget): restore
                    // the pre-transaction derived maps to match.
                    self.restore_txn_maps(txn);
                }
                self.metrics.txn_aborts.inc();
                Err(e.into())
            }
        }
    }

    /// Rolls the open transaction back: the storage batch aborts (its
    /// pages never reached disk under the no-steal policy), and the
    /// engine's derived maps return to their pre-transaction state.
    pub fn abort_transaction(&mut self) -> DbResult<()> {
        let txn = self.txn.take().ok_or_else(|| DbError::TransactionState {
            reason: "no transaction is open".into(),
        })?;
        let result = self.abort_batch();
        if self.store.health() == HealthState::Healthy {
            self.restore_txn_maps(txn);
        }
        self.metrics.txn_aborts.inc();
        result?;
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

    /// Restores the derived maps touched by a rolled-back transaction.
    /// Only valid after the storage batch aborted cleanly: the recorded
    /// `PhysId`s point at pre-transaction pages.
    fn restore_txn_maps(&mut self, txn: TxnState) {
        for (oid, before) in txn.table_before {
            match before {
                Some(phys) => self.shards.insert(oid, phys),
                None => {
                    self.shards.remove(oid);
                }
            }
        }
        self.next_serial
            .store(txn.next_serial, std::sync::atomic::Ordering::Relaxed);
    }

    /// Records the object-table entry of `oid` before its first mutation
    /// in the open transaction (no-op outside one). Must run *before* the
    /// mutation changes the table — [`Database::note_touch`] sees to that.
    pub(crate) fn txn_note_touch(&mut self, oid: Oid) {
        if self.txn.is_some() {
            let before = self.shards.get(oid);
            if let Some(txn) = self.txn.as_mut() {
                txn.table_before.entry(oid).or_insert(before);
            }
        }
    }

    /// Bulk ingest: creates every spec'd instance inside one transaction —
    /// one WAL flush for the whole hierarchy — with clustering-aware
    /// placement (each instance is placed near its first parent, the
    /// `:parent` clustering directive of §2.3). Specs may reference
    /// earlier specs of the same call via [`ParentRef::Created`], so a
    /// composite hierarchy builds top-down in one shot. Returns the
    /// created OIDs in spec order; any failure rolls the whole batch back.
    ///
    /// Joins an already-open transaction rather than opening its own (the
    /// enclosing commit/abort then governs durability).
    ///
    /// The common bulk shape — set-valued parent attributes, composite
    /// attributes that start empty — takes a batched path: each child's
    /// reverse references are encoded into its initial image (one write
    /// per child instead of an insert-then-rewrite), and each parent's
    /// forward references are accumulated in memory and written exactly
    /// once, instead of one read-modify-write cycle per child. Shapes
    /// needing the full `make` protocol (scalar parent attributes with
    /// displacement, composite attributes pre-seeded with references)
    /// fall back to per-spec `make` calls, still inside one transaction.
    pub fn make_many(&mut self, specs: &[MakeSpec]) -> DbResult<Vec<Oid>> {
        if self.in_transaction() {
            let result = self.make_many_inner(specs);
            if let (Err(DbError::Storage(_) | DbError::ReadOnly), Some(txn)) =
                (&result, self.txn.as_mut())
            {
                // Match `atomic`'s join bookkeeping: a substrate failure
                // poisons the enclosing transaction.
                txn.failed = true;
            }
            result
        } else {
            self.transaction(|db| db.make_many_inner(specs))
        }
    }

    fn make_many_inner(&mut self, specs: &[MakeSpec]) -> DbResult<Vec<Oid>> {
        match self.plan_bulk_ingest(specs) {
            Some(plans) => self.run_bulk_ingest(plans),
            None => self.make_many_general(specs),
        }
    }

    /// Validates `specs` for the batched ingest path. `None` means "use
    /// the general path" — either the shape needs the full `make`
    /// protocol, or a spec has an error the general path will report with
    /// its usual diagnostics. The fast path therefore only ever runs on
    /// fully pre-validated input and cannot fail mid-batch for logical
    /// reasons, which keeps a joined outer transaction consistent.
    fn plan_bulk_ingest(&self, specs: &[MakeSpec]) -> Option<Vec<PlannedMake>> {
        let mut plans = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let class_def = self.catalog.class(spec.class).ok()?;
            let mut attrs: Vec<Value> = class_def.attrs.iter().map(|a| a.init.clone()).collect();
            for (name, value) in &spec.values {
                let idx = class_def.attr_index(name)?;
                self.check_domain(&class_def.attrs[idx], value).ok()?;
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
                        if !self.exists(oid) {
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
                let pclass = self.catalog.class(pclass_id).ok()?;
                let idx = pclass.attr_index(pattr)?;
                let def = &pclass.attrs[idx];
                if let Some(dc) = def.domain.referenced_class() {
                    if !self.is_subclass_of(spec.class, dc) {
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

    /// Executes a pre-validated bulk plan in four phases:
    ///
    /// 1. **Build** (serial): mint the batch's serials with one atomic
    ///    bump (and one durable high-water note), construct each child
    ///    with its reverse references pre-encoded, and accumulate parent
    ///    forward references in a write buffer so each touched parent is
    ///    written exactly once.
    /// 2. **Encode** (parallel): serialise every creation-time image;
    ///    this is pure CPU work with no engine state, so large batches
    ///    fan it out across threads.
    /// 3. **Place** (serial, spec order): `store.insert` each image with
    ///    its `:parent` clustering hint. Placement order is spec order
    ///    regardless of the shard count, which is what keeps dumps and
    ///    checkpoints byte-identical across shard configurations.
    /// 4. **Publish** (shard-parallel): group the new `(oid, phys)`
    ///    entries by shard and insert each shard's group under its own
    ///    stripe lock, fanning out across threads when the batch and the
    ///    machine are big enough; the distinct-shard count is recorded in
    ///    `corion_shard_make_many_fanout`.
    fn run_bulk_ingest(&mut self, plans: Vec<PlannedMake>) -> DbResult<Vec<Oid>> {
        fn resolve(p: ParentRef, created: &[Oid]) -> Oid {
            match p {
                ParentRef::Existing(oid) => oid,
                ParentRef::Created(j) => created[j],
            }
        }
        let n = plans.len() as u64;
        let base = self
            .next_serial
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        // One durable high-water note covers the whole batch's allocations.
        self.store.note_serial_floor(base + n);

        // Phase 1: build children and buffer parent updates.
        let mut created: Vec<Oid> = Vec::with_capacity(plans.len());
        // Creation-time image + clustering hint, in spec order.
        let mut inserts: Vec<(Object, Option<Oid>)> = Vec::with_capacity(plans.len());
        let mut insert_index: HashMap<Oid, usize> = HashMap::with_capacity(plans.len());
        // Working copies of every parent touched (batch-created parents
        // are cloned from their creation image on first touch), so later
        // specs keep extending a parent without re-reading it.
        let mut buffer: HashMap<Oid, Object> = HashMap::new();
        let mut dirty: Vec<Oid> = Vec::new();
        let mut dirty_set: HashSet<Oid> = HashSet::new();
        for (k, plan) in plans.into_iter().enumerate() {
            let oid = Oid::new(plan.class, base + k as u64);
            let mut obj = Object::new(oid, plan.attrs, plan.change_count);
            for &(pref, _, cspec) in &plan.parents {
                if let Some(spec) = cspec {
                    let poid = resolve(pref, &created);
                    obj.reverse_refs
                        .push(ReverseRef::new(poid, spec.dependent, spec.exclusive));
                }
            }
            debug_assert!(
                crate::composite::ParentSets::of(&obj).check(oid).is_ok(),
                "plan_bulk_ingest admitted a topology violation"
            );
            self.note_touch(oid, Some(&obj))?;
            for &(pref, idx, _) in &plan.parents {
                let poid = resolve(pref, &created);
                if let std::collections::hash_map::Entry::Vacant(slot) = buffer.entry(poid) {
                    let pobj = match insert_index.get(&poid) {
                        Some(&i) => inserts[i].0.clone(),
                        None => self.get(poid)?,
                    };
                    slot.insert(pobj);
                }
                let pobj = buffer.get_mut(&poid).expect("just inserted");
                pobj.attrs[idx].add_ref(oid, true);
                if dirty_set.insert(poid) {
                    dirty.push(poid);
                }
            }
            let near = plan.parents.first().map(|&(p, _, _)| resolve(p, &created));
            insert_index.insert(oid, k);
            inserts.push((obj, near));
            created.push(oid);
        }

        // Phase 2: encode creation images, in parallel for large batches.
        let bufs: Vec<Vec<u8>> = encode_images(&inserts);

        // Phase 3: place into storage, serially in spec order.
        let mut batch_phys: HashMap<Oid, PhysId> = HashMap::with_capacity(inserts.len());
        let mut placements: Vec<(Oid, PhysId)> = Vec::with_capacity(inserts.len());
        for ((obj, near), buf) in inserts.iter().zip(&bufs) {
            let segment = self.catalog.class(obj.oid.class)?.segment;
            let near_phys =
                near.and_then(|o| batch_phys.get(&o).copied().or_else(|| self.shards.get(o)));
            let phys = self.store.insert(segment, buf, near_phys)?;
            batch_phys.insert(obj.oid, phys);
            placements.push((obj.oid, phys));
        }

        // Phase 4: publish into the striped table, shard-parallel.
        self.publish_placements(placements);

        // Parents are saved after the children exist so batch-created
        // parents resolve through the freshly published table.
        for poid in dirty {
            let pobj = buffer.remove(&poid).expect("dirtied parents are buffered");
            self.save(&pobj)?;
        }
        if let Some(txn) = self.txn.as_mut() {
            txn.ops += n;
        }
        Ok(created)
    }

    /// Phase-4 helper: group `(oid, phys)` placements by shard, record
    /// the cross-shard fan-out, and insert each shard's group under its
    /// own stripe lock — across threads when both the batch and the
    /// machine warrant it.
    fn publish_placements(&mut self, placements: Vec<(Oid, PhysId)>) {
        const PARALLEL_PUBLISH_MIN: usize = 256;
        let shard_count = self.shards.shard_count();
        let mut groups: Vec<Vec<(Oid, PhysId)>> = vec![Vec::new(); shard_count];
        for (oid, phys) in placements {
            groups[self.shards.shard_of(oid)].push((oid, phys));
        }
        groups.retain(|g| !g.is_empty());
        let fanout = groups.len();
        self.metrics.make_many_fanout.record(fanout as u64);
        let total: usize = groups.iter().map(Vec::len).sum();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(fanout.max(1));
        if workers > 1 && total >= PARALLEL_PUBLISH_MIN {
            let shards = &self.shards;
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(group) = groups.get(i) else { break };
                        for &(oid, phys) in group {
                            shards.insert(oid, phys);
                        }
                    });
                }
            });
        } else {
            for group in &groups {
                for &(oid, phys) in group {
                    self.shards.insert(oid, phys);
                }
            }
        }
    }

    fn make_many_general(&mut self, specs: &[MakeSpec]) -> DbResult<Vec<Oid>> {
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
            created.push(self.make(spec.class, values, parents)?);
        }
        Ok(created)
    }
}

/// Phase-2 helper: serialise every creation-time image. Encoding is pure
/// CPU work over immutable data, so large batches fan out across threads.
fn encode_images(inserts: &[(Object, Option<Oid>)]) -> Vec<Vec<u8>> {
    const PARALLEL_ENCODE_MIN: usize = 256;
    fn encode_one(obj: &Object) -> Vec<u8> {
        let mut buf = Vec::new();
        obj.encode(&mut buf);
        buf
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if workers > 1 && inserts.len() >= PARALLEL_ENCODE_MIN {
        let chunk = inserts.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = inserts
                .chunks(chunk)
                .map(|c| scope.spawn(move || c.iter().map(|(obj, _)| encode_one(obj)).collect()))
                .collect();
            let mut out: Vec<Vec<u8>> = Vec::with_capacity(inserts.len());
            for h in handles {
                let part: Vec<Vec<u8>> = h.join().expect("encode worker panicked");
                out.extend(part);
            }
            out
        })
    } else {
        inserts.iter().map(|(obj, _)| encode_one(obj)).collect()
    }
}
