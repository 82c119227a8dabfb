//! Property-based tests over the core invariants.
//!
//! Strategy: random operation sequences (attach, detach, delete, schema
//! flag changes) are applied to a generated part hierarchy; after every
//! step a full-database audit checks the invariants the paper's rules
//! guarantee:
//!
//! 1. **Topology Rules 1–3** hold at every object (§2.2);
//! 2. **Bidirectional consistency**: every forward composite reference has
//!    exactly one matching reverse reference with the attribute's current
//!    D/X flags, and vice versa (§2.4);
//! 3. **No dangling composite references** after deletion (the Deletion
//!    Rule cleans surviving parents);
//! 4. storage and codec roundtrips.

use std::collections::HashMap;

use corion::core::composite::ParentSets;
use corion::{AttributeDef, ClassBuilder, CompositeSpec, Database, Domain, Filter, Oid, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The audit
// ---------------------------------------------------------------------

/// Checks invariants 1–3 over the whole database.
fn audit(db: &mut Database) {
    let classes = db.catalog().all_classes();
    // forward[(child)] = multiset of (parent, dependent, exclusive)
    let mut forward: HashMap<Oid, Vec<(Oid, bool, bool)>> = HashMap::new();
    let mut all_objects: Vec<Oid> = Vec::new();
    for class in &classes {
        for oid in db.instances_of(*class, false) {
            all_objects.push(oid);
            let cdef = db.class(oid.class).unwrap().clone();
            let obj = db.get(oid).unwrap();
            for (idx, def) in cdef.attrs.iter().enumerate() {
                let refs = obj.attrs[idx].refs();
                if let Some(spec) = def.composite {
                    for r in refs {
                        assert!(
                            db.exists(r),
                            "dangling composite ref {oid}.{} -> {r}",
                            def.name
                        );
                        forward
                            .entry(r)
                            .or_default()
                            .push((oid, spec.dependent, spec.exclusive));
                    }
                }
            }
        }
    }
    for oid in all_objects {
        let obj = db.get(oid).unwrap();
        // Invariant 1: topology rules.
        ParentSets::of(&obj).check(oid).unwrap();
        // Invariant 2: reverse refs == forward refs (as multisets).
        let mut actual: Vec<(Oid, bool, bool)> = obj
            .reverse_refs
            .iter()
            .map(|r| (r.parent, r.dependent, r.exclusive))
            .collect();
        let mut expected = forward.remove(&oid).unwrap_or_default();
        actual.sort();
        expected.sort();
        assert_eq!(actual, expected, "reverse refs of {oid} out of sync");
    }
    // No reverse refs without forward refs (leftovers would remain in
    // `forward` keyed by OIDs that don't exist — covered by the dangling
    // check above).
    assert!(
        forward.is_empty(),
        "forward refs to objects missing from extensions"
    );
}

// ---------------------------------------------------------------------
// Random operation sequences over a part hierarchy
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Create,
    Attach {
        child: usize,
        parent: usize,
        attr: usize,
    },
    Detach {
        child: usize,
        parent: usize,
        attr: usize,
    },
    Delete {
        obj: usize,
    },
    SetWeak {
        obj: usize,
        target: usize,
    },
    /// `set_attr` of a whole composite set `{a, b}`: the engine attaches
    /// `a`, then `b`, so a refusal of `b` comes after `a` was written.
    SetKids {
        parent: usize,
        a: usize,
        b: usize,
        attr: usize,
    },
    /// `make` with the composite value `{a, b}`: refused, if at all, after
    /// the instance exists.
    MakeWith {
        a: usize,
        b: usize,
        attr: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Create),
        5 => (0..64usize, 0..64usize, 0..4usize)
            .prop_map(|(child, parent, attr)| Op::Attach { child, parent, attr }),
        2 => (0..64usize, 0..64usize, 0..4usize)
            .prop_map(|(child, parent, attr)| Op::Detach { child, parent, attr }),
        2 => (0..64usize).prop_map(|obj| Op::Delete { obj }),
        1 => (0..64usize, 0..64usize).prop_map(|(obj, target)| Op::SetWeak { obj, target }),
        2 => (0..64usize, 0..64usize, 0..64usize, 0..4usize)
            .prop_map(|(parent, a, b, attr)| Op::SetKids { parent, a, b, attr }),
        1 => (0..64usize, 0..64usize, 0..4usize)
            .prop_map(|(a, b, attr)| Op::MakeWith { a, b, attr }),
    ]
}

const ATTRS: [&str; 4] = ["kids_de", "kids_ie", "kids_ds", "kids_is"];

fn kids(a: Oid, b: Oid) -> Value {
    let mut members = vec![Value::Ref(a)];
    if b != a {
        members.push(Value::Ref(b));
    }
    Value::Set(members)
}

/// Every stored object, byte for byte: what a refused operation must
/// leave exactly as it was.
fn fingerprint(db: &Database) -> Vec<(Oid, Vec<u8>)> {
    let mut out = Vec::new();
    for class in db.catalog().all_classes() {
        for oid in db.instances_of(class, false) {
            let mut bytes = Vec::new();
            db.get(oid).unwrap().encode(&mut bytes);
            out.push((oid, bytes));
        }
    }
    out
}

fn part_db() -> (Database, corion::ClassId) {
    let mut db = Database::new();
    let part = db.define_class(ClassBuilder::new("Part")).unwrap();
    for (name, exclusive, dependent) in [
        ("kids_de", true, true),
        ("kids_ie", true, false),
        ("kids_ds", false, true),
        ("kids_is", false, false),
    ] {
        db.add_attribute(
            part,
            AttributeDef::composite(
                name,
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive,
                    dependent,
                },
            ),
        )
        .unwrap();
    }
    db.add_attribute(part, AttributeDef::plain("buddy", Domain::Class(part)))
        .unwrap();
    (db, part)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_operation_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let (mut db, part) = part_db();
        let mut pool: Vec<Oid> = (0..6).map(|_| db.make(part, vec![], vec![]).unwrap()).collect();
        for op in ops {
            let pick = |i: usize| pool[i % pool.len()];
            let before = fingerprint(&db);
            // Any of these but the delete of a live object may
            // legitimately be refused (topology rules, cycles, a dead
            // operand) — and then it must be a no-op, even when the
            // refusal came after the operation's first writes.
            let refused = match op {
                Op::Create => {
                    pool.push(db.make(part, vec![], vec![]).unwrap());
                    false
                }
                Op::Attach { child, parent, attr } => db
                    .make_component(pick(child), pick(parent), ATTRS[attr % 4])
                    .is_err(),
                Op::Detach { child, parent, attr } => db
                    .remove_component(pick(child), pick(parent), ATTRS[attr % 4])
                    .is_err(),
                // The Deletion Rule refuses nothing: only a dead operand.
                Op::Delete { obj } => {
                    let o = pick(obj);
                    if db.exists(o) {
                        db.delete(o).unwrap();
                        false
                    } else {
                        prop_assert!(db.delete(o).is_err(), "deleted the dead {}", o);
                        true
                    }
                }
                Op::SetWeak { obj, target } => db
                    .set_attr(pick(obj), "buddy", Value::Ref(pick(target)))
                    .is_err(),
                Op::SetKids { parent, a, b, attr } => db
                    .set_attr(pick(parent), ATTRS[attr % 4], kids(pick(a), pick(b)))
                    .is_err(),
                Op::MakeWith { a, b, attr } => {
                    match db.make(part, vec![(ATTRS[attr % 4], kids(pick(a), pick(b)))], vec![]) {
                        Ok(oid) => {
                            pool.push(oid);
                            false
                        }
                        Err(_) => true,
                    }
                }
            };
            if refused {
                prop_assert_eq!(&fingerprint(&db), &before, "a refused {:?} left a trace", op);
            }
            audit(&mut db);
        }
    }

    #[test]
    fn deletion_of_any_root_leaves_no_dangling_composite_refs(
        seed in 0u64..500,
        share in 0.0f64..1.0,
        victim in 0usize..100,
    ) {
        let mut db = Database::new();
        let dag = corion::workload::GeneratedDag::generate(
            &mut db,
            corion::workload::DagParams {
                depth: 3, fanout: 2, roots: 2,
                share_fraction: share, dependent_fraction: 0.5, seed,
            },
        ).unwrap();
        let all = dag.all();
        let target = all[victim % all.len()];
        db.delete(target).unwrap();
        audit(&mut db);
    }

    #[test]
    fn components_and_ancestors_are_inverse_relations(seed in 0u64..200) {
        let mut db = Database::new();
        let dag = corion::workload::GeneratedDag::generate(
            &mut db,
            corion::workload::DagParams {
                depth: 3, fanout: 2, roots: 2,
                share_fraction: 0.4, dependent_fraction: 0.5, seed,
            },
        ).unwrap();
        for &root in &dag.roots {
            for c in db.components_of(root, &Filter::all()).unwrap() {
                prop_assert!(db.component_of(c, root).unwrap());
                prop_assert!(db.ancestors_of(c, &Filter::all()).unwrap().contains(&root));
            }
        }
    }

    #[test]
    fn flag_changes_keep_reverse_refs_in_sync_immediate_and_deferred(
        seed in 0u64..100,
        deferred in any::<bool>(),
    ) {
        use corion::core::evolution::{AttrTypeChange, Maintenance};
        let mut db = Database::new();
        let item = db.define_class(ClassBuilder::new("Item")).unwrap();
        let holder = db.define_class(
            ClassBuilder::new("Holder").attr_composite(
                "slot",
                Domain::Class(item),
                CompositeSpec { exclusive: true, dependent: true },
            )
        ).unwrap();
        // A few holder/item pairs.
        for i in 0..(seed % 5 + 1) {
            let it = db.make(item, vec![], vec![]).unwrap();
            let _h = db.make(holder, vec![("slot", Value::Ref(it))], vec![]).unwrap();
            let _ = i;
        }
        let m = if deferred { Maintenance::Deferred } else { Maintenance::Immediate };
        db.change_attribute_type(holder, "slot", AttrTypeChange::ExclusiveToShared, m).unwrap();
        db.change_attribute_type(holder, "slot", AttrTypeChange::ToIndependent, m).unwrap();
        audit(&mut db);
        // Every item's reverse ref now reflects independent + shared.
        for oid in db.instances_of(item, false) {
            let obj = db.get(oid).unwrap();
            for rr in &obj.reverse_refs {
                prop_assert!(!rr.exclusive && !rr.dependent);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The one §3 walk == the reference walk
// ---------------------------------------------------------------------

mod reference;

use corion::ConcurrentDb;
use reference::filter_for;

/// Compares the §3 answers of the engine's messages (the one walk over
/// `&Database`) and of a snapshot pinned now (the same walk over MVCC
/// chains) against the reference walk, for every object in `pool` — dead
/// ones included, where all three must refuse.
fn assert_walks_match_reference(
    cdb: &ConcurrentDb,
    pool: &[Oid],
    filter: &Filter,
) -> Result<(), TestCaseError> {
    let snap = cdb.begin_read();
    cdb.with_read(|db| {
        for &o in pool {
            let want = reference::answers(db, o, filter);
            prop_assert_eq!(&reference::engine_answers(db, o, filter), &want);
            prop_assert_eq!(&reference::walk_answers(&mut snap.view(), o, filter), &want);
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// After every step of a random make_component / remove_component /
    /// delete / set_attr interleaving, the one walk equals the reference
    /// walk — over the engine and over a pinned snapshot. `versioned`
    /// runs the steps as write transactions (every touched object gets a
    /// version chain, so the snapshot resolves through MVCC); otherwise
    /// they go through the single-threaded engine and the snapshot falls
    /// back to the base. (The name dates from the traversal cache this
    /// property used to guard.)
    #[test]
    fn cached_traversals_equal_uncached_walks_under_random_interleavings(
        ops in prop::collection::vec(op_strategy(), 1..16),
        fkind in 0u8..6,
        versioned in any::<bool>(),
    ) {
        let (mut db, part) = part_db();
        let filter = filter_for(fkind, part);
        let mut pool: Vec<Oid> = (0..5).map(|_| db.make(part, vec![], vec![]).unwrap()).collect();
        let cdb = ConcurrentDb::from_database(db);
        assert_walks_match_reference(&cdb, &pool, &filter)?;
        // `WriteTxn` and `Database` spell the mutations alike.
        macro_rules! step {
            (|$e:ident| $body:expr) => {
                if versioned {
                    cdb.run_write(|$e| $body)
                } else {
                    cdb.with_exclusive(|$e| $body)
                }
            };
        }
        for op in ops {
            let pick = |i: usize| pool[i % pool.len()];
            // A step the topology rules refuse changes nothing, which is
            // as good a step as any.
            match op {
                Op::Create => pool.push(step!(|e| e.make(part, vec![], vec![])).unwrap()),
                Op::Attach { child, parent, attr } => {
                    let (c, p, a) = (pick(child), pick(parent), ATTRS[attr % 4]);
                    let _ = step!(|e| e.make_component(c, p, a));
                }
                Op::Detach { child, parent, attr } => {
                    let (c, p, a) = (pick(child), pick(parent), ATTRS[attr % 4]);
                    let _ = step!(|e| e.remove_component(c, p, a));
                }
                Op::Delete { obj } => {
                    let o = pick(obj);
                    let _ = step!(|e| e.delete(o));
                }
                Op::SetWeak { obj, target } => {
                    let (o, t) = (pick(obj), pick(target));
                    let _ = step!(|e| e.set_attr(o, "buddy", Value::Ref(t)));
                }
                Op::SetKids { parent, a, b, attr } => {
                    let (p, v, at) = (pick(parent), kids(pick(a), pick(b)), ATTRS[attr % 4]);
                    let _ = step!(|e| e.set_attr(p, at, v.clone()));
                }
                Op::MakeWith { a, b, attr } => {
                    let (v, at) = (kids(pick(a), pick(b)), ATTRS[attr % 4]);
                    if let Ok(oid) = step!(|e| e.make(part, vec![(at, v.clone())], vec![])) {
                        pool.push(oid);
                    }
                }
            }
            assert_walks_match_reference(&cdb, &pool, &filter)?;
        }
    }

    /// Deferred schema evolution changes reference flags *without* writing
    /// any object (§4.3): filtered walks must see the new flags at once,
    /// in base records and in version-chain images alike.
    #[test]
    fn cached_traversals_survive_deferred_flag_changes(
        seed in 0u64..200,
        fkind in 0u8..6,
    ) {
        use corion::core::evolution::{AttrTypeChange, Maintenance};
        let mut db = Database::new();
        let dag = corion::workload::GeneratedDag::generate(
            &mut db,
            corion::workload::DagParams {
                depth: 3, fanout: 2, roots: 2,
                share_fraction: 0.0, dependent_fraction: 1.0, seed,
            },
        ).unwrap();
        let mut pool = dag.all();
        let node_class = pool[0].class;
        let filter = filter_for(fkind, node_class);
        let cdb = ConcurrentDb::from_database(db);
        // One write transaction first, so some reverse references live in
        // version-chain images rather than base records.
        let leaf = *pool.last().unwrap();
        pool.push(cdb.run_write(|t| t.make(node_class, vec![], vec![(leaf, "kids_de")])).unwrap());
        assert_walks_match_reference(&cdb, &pool, &filter)?;
        // Flip every composite attribute of the DAG class shared,
        // deferred: no object is touched until its next access.
        cdb.with_exclusive(|db| {
            let class_def = db.class(node_class).unwrap().clone();
            for attr in class_def.attrs.iter().filter(|a| {
                a.composite.map(|s| s.exclusive).unwrap_or(false)
            }) {
                db.change_attribute_type(
                    node_class,
                    &attr.name,
                    AttrTypeChange::ExclusiveToShared,
                    Maintenance::Deferred,
                ).unwrap();
            }
        });
        assert_walks_match_reference(&cdb, &pool, &filter)?;
        // An exclusive-only walk now finds nothing below or above anything.
        let snap = cdb.begin_read();
        let exclusive = Filter::all().exclusive();
        for &o in &pool {
            prop_assert_eq!(cdb.with_read(|db| db.components_of(o, &exclusive)).unwrap(), vec![]);
            prop_assert_eq!(corion::view::ancestors_of(&mut snap.view(), o, &exclusive).unwrap(), vec![]);
        }
    }
}

// ---------------------------------------------------------------------
// Storage and codec roundtrips
// ---------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        // Finite floats only: NaN breaks PartialEq-based roundtrip checks.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::Str),
        (0u32..64, 0u64..4096).prop_map(|(c, s)| Value::Ref(Oid::new(corion::ClassId(c), s))),
    ];
    leaf.prop_recursive(3, 32, 8, |inner| {
        prop::collection::vec(inner, 0..6).prop_map(Value::Set)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn value_codec_roundtrips(v in value_strategy()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = corion::storage::codec::Reader::new(&buf);
        let back = Value::decode(&mut r).unwrap();
        prop_assert!(r.is_empty());
        prop_assert_eq!(back, v);
    }

    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = Vec::new();
        corion::storage::codec::put_varint(&mut buf, v);
        let mut r = corion::storage::codec::Reader::new(&buf);
        prop_assert_eq!(r.varint("v").unwrap(), v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn store_matches_model_under_random_ops(
        ops in prop::collection::vec((0u8..4, prop::collection::vec(any::<u8>(), 0..512)), 1..80)
    ) {
        use corion::storage::{ObjectStore, StoreConfig};
        let mut store = ObjectStore::new(StoreConfig {
            buffer_capacity: 4,
            ..StoreConfig::default()
        });
        let seg = store.create_segment().unwrap();
        let mut model: Vec<(corion::storage::PhysId, Vec<u8>)> = Vec::new();
        for (kind, bytes) in ops {
            match kind {
                0 => {
                    let id = store.insert(seg, &bytes, model.last().map(|(id, _)| *id)).unwrap();
                    model.push((id, bytes));
                }
                1 if !model.is_empty() => {
                    let slot = bytes.first().copied().unwrap_or(0) as usize % model.len();
                    let (new_id, displaced) = store.update(model[slot].0, &bytes).unwrap();
                    prop_assert_eq!(&displaced, &model[slot].1);
                    model[slot] = (new_id, bytes);
                }
                2 if !model.is_empty() => {
                    let slot = bytes.first().copied().unwrap_or(0) as usize % model.len();
                    let (id, held) = model.remove(slot);
                    prop_assert_eq!(store.delete(id).unwrap(), held);
                }
                _ => {
                    // Cache pressure: flush everything.
                    store.clear_cache().unwrap();
                }
            }
            // Full readback against the model.
            for (id, expected) in &model {
                prop_assert_eq!(&store.read(*id).unwrap(), expected);
            }
            let mut live = 0;
            let pages = store.pages_of(seg).unwrap();
            store
                .scan(seg, &pages, |_, _| {
                    live += 1;
                    Ok(())
                })
                .unwrap();
            prop_assert_eq!(live, model.len());
        }
    }
}
