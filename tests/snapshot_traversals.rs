//! Pinned snapshots answer the §3 traversals exactly as the core engine
//! did at pin time.
//!
//! A writer commits between pins — deleting, re-parenting, creating and
//! rewriting objects of a random composite graph — and every pinned
//! [`Snapshot`]'s `subtree_of` / `components_of` / `parents_of` /
//! `ancestors_of`, and its filtered walks under all six filter kinds,
//! must keep equalling the reference-walk answer (`tests/reference`) that
//! was captured from the engine when it was pinned, for every object the
//! run ever knew: ones deleted since, ones re-parented since, and ones
//! that did not exist yet. Answers are compared as the lists they are —
//! same members, same nearest-first order, nothing twice. The `vehicles`
//! graphs have leaf classes (no composite attribute), which the snapshot
//! walk lists on visibility alone; the `dag` graphs have none and shared
//! components. The same questions put *inside* a write transaction — to
//! its own view, overlay then base — must equal the reference over a twin
//! engine that committed the same steps, objects the transaction itself
//! created or deleted included. Also here: the `instances_of` merge under
//! a bulk commit, and the two answers the snapshot walk used to get wrong.

use std::collections::HashMap;

use corion::workload::dag::{DagParams, GeneratedDag};
use corion::workload::vehicles::Fleet;
use corion::{
    ClassBuilder, ClassId, CompositeSpec, ConcurrentDb, Database, DbResult, Domain, Filter, Oid,
    OverlayView, Snapshot, Value, WriteTxn,
};
use proptest::prelude::*;

mod reference;

/// What is known about one object: the four wire answers (`None` where
/// the object does not exist) and the filtered answers, one per filter
/// kind.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    /// The object and everything below it (empty if absent).
    subtree: Vec<Oid>,
    components: Option<Vec<Oid>>,
    parents: Option<Vec<Oid>>,
    ancestors: Option<Vec<Oid>>,
    filtered: Vec<reference::Answers>,
}

fn sorted(mut v: Vec<Oid>) -> Vec<Oid> {
    v.sort();
    v
}

/// The six filter kinds, the class list naming the object's own class.
fn filters(oid: Oid) -> impl Iterator<Item = Filter> {
    (0..6).map(move |kind| reference::filter_for(kind, oid.class))
}

fn absent(oid: Oid) -> Answers {
    let none = reference::Answers {
        components: None,
        parents: None,
        ancestors: None,
        roots: None,
    };
    Answers {
        subtree: vec![],
        components: None,
        parents: None,
        ancestors: None,
        filtered: filters(oid).map(|_| none.clone()).collect(),
    }
}

fn core_answers(db: &Database, oid: Oid) -> Answers {
    let all = Filter::all();
    Answers {
        subtree: reference::subtree_of(db, oid),
        components: reference::components_of(db, oid, &Filter::all().level(1)).ok(),
        parents: reference::parents_of(db, oid, &all).ok(),
        ancestors: reference::ancestors_of(db, oid, &all).ok(),
        filtered: filters(oid)
            .map(|f| reference::answers(db, oid, &f))
            .collect(),
    }
}

fn snapshot_answers(snap: &Snapshot, oid: Oid) -> Answers {
    Answers {
        subtree: snap.subtree_of(oid).unwrap(),
        components: snap.components_of(oid).ok(),
        parents: snap.parents_of(oid).ok(),
        ancestors: snap.ancestors_of(oid).ok(),
        filtered: filters(oid)
            .map(|f| reference::walk_answers(&mut snap.view(), oid, &f))
            .collect(),
    }
}

/// The same questions put to a write transaction's own view.
fn txn_answers(txn: &mut WriteTxn, oid: Oid) -> Answers {
    use corion::view;
    let all = Filter::all();
    txn.with_view(&[oid], |mut v: OverlayView<'_>| {
        Ok(Answers {
            subtree: view::subtree_of(&mut v, oid)?,
            components: view::components_of(&mut v, oid, &all.clone().level(1)).ok(),
            parents: view::parents_of(&mut v, oid, &all).ok(),
            ancestors: view::ancestors_of(&mut v, oid, &all).ok(),
            filtered: filters(oid)
                .map(|f| reference::walk_answers(&mut v, oid, &f))
                .collect(),
        })
    })
    .unwrap()
}

/// A generated graph plus what a writer needs to mutate it.
struct Graph {
    cdb: ConcurrentDb,
    /// Every object the run has known, dead ones included.
    known: Vec<Oid>,
    /// `(class of a new component, attribute that holds it)`.
    attach: Vec<(ClassId, &'static str)>,
    /// Composite attribute names a detach may have to try.
    composite_attrs: Vec<&'static str>,
    /// A scalar attribute of the root class, if it has one.
    scalar: Option<&'static str>,
}

fn vehicles(n: usize, tires: usize) -> Graph {
    vehicles_with_twin(n, tires).0
}

/// The graph plus an identical twin engine (the generators are
/// deterministic) for an oracle to run beside it.
fn vehicles_with_twin(n: usize, tires: usize) -> (Graph, Database) {
    let mut twin = Database::new();
    Fleet::generate(&mut twin, n, tires).unwrap();
    let mut db = Database::new();
    let fleet = Fleet::generate(&mut db, n, tires).unwrap();
    let known = fleet
        .vehicles
        .iter()
        .flat_map(|&v| {
            let mut all = db.components_of(v, &Filter::all()).unwrap();
            all.push(v);
            all
        })
        .collect();
    let graph = Graph {
        cdb: ConcurrentDb::from_database(db),
        known,
        attach: vec![
            (fleet.schema.tires, "Tires"),
            (fleet.schema.body, "Body"),
            (fleet.schema.drivetrain, "Drivetrain"),
        ],
        composite_attrs: vec!["Tires", "Body", "Drivetrain"],
        scalar: Some("Color"),
    };
    (graph, twin)
}

fn dag(seed: u64, share: f64) -> Graph {
    dag_with_twin(seed, share).0
}

fn dag_with_twin(seed: u64, share: f64) -> (Graph, Database) {
    let generate = || {
        let mut db = Database::new();
        let params = DagParams {
            depth: 2,
            fanout: 3,
            roots: 2,
            share_fraction: share,
            dependent_fraction: 0.5,
            seed,
        };
        let dag = GeneratedDag::generate(&mut db, params).unwrap();
        (db, dag)
    };
    let ((db, dag), (twin, _)) = (generate(), generate());
    let attrs = vec!["kids_de", "kids_ie", "kids_ds", "kids_is"];
    let graph = Graph {
        known: dag.all(),
        attach: attrs.iter().map(|&a| (dag.class, a)).collect(),
        composite_attrs: attrs,
        scalar: None,
        cdb: ConcurrentDb::from_database(db),
    };
    (graph, twin)
}

impl Graph {
    fn pick(&self, i: u16) -> Oid {
        self.known[i as usize % self.known.len()]
    }

    /// One committed writer step. A step the topology rules refuse aborts
    /// and changes nothing, which is as good a step as any.
    fn write(&mut self, (kind, a, b, c): (u8, u16, u16, u8)) {
        let (target, other) = (self.pick(a), self.pick(b));
        let (class, attr) = self.attach[c as usize % self.attach.len()];
        let detach_attrs = self.composite_attrs.clone();
        let parent_of = |cdb: &ConcurrentDb, o: Oid| {
            cdb.with_read(|db| db.get(o).ok()?.composite_parents().first().copied())
        };
        match kind % 5 {
            0 => {
                let _ = self.cdb.run_write(|t| t.delete(target));
            }
            1 => {
                // Create a component under `target`.
                if let Ok(oid) = self
                    .cdb
                    .run_write(|t| t.make(class, vec![], vec![(target, attr)]))
                {
                    self.known.push(oid);
                }
            }
            2 | 3 => {
                // Detach `target` from its first parent; kind 3 re-attaches
                // it under `other` in the same transaction.
                let Some(parent) = parent_of(&self.cdb, target) else {
                    return;
                };
                let _ = self.cdb.run_write(|t| {
                    let mut detached = false;
                    for a in &detach_attrs {
                        detached |= t.remove_component(target, parent, a).is_ok();
                    }
                    if detached && kind % 5 == 3 {
                        for a in &detach_attrs {
                            if t.make_component(target, other, a).is_ok() {
                                break;
                            }
                        }
                    }
                    Ok(())
                });
            }
            _ => {
                if let Some(scalar) = self.scalar {
                    let _ = self
                        .cdb
                        .run_write(|t| t.set_attr(target, scalar, Value::Str(format!("c{a}"))));
                }
            }
        }
    }
}

fn check_pins_survive_writes(mut graph: Graph, steps: Vec<(u8, u16, u16, u8)>) {
    let mut pins: Vec<(Snapshot, HashMap<Oid, Answers>)> = Vec::new();
    for step in steps {
        let snap = graph.cdb.begin_read();
        let at_pin = graph.cdb.with_read(|db| {
            graph
                .known
                .iter()
                .map(|&o| (o, core_answers(db, o)))
                .collect()
        });
        pins.push((snap, at_pin));
        graph.write(step);
        for (n, (snap, at_pin)) in pins.iter().enumerate() {
            for &oid in &graph.known {
                let want = at_pin.get(&oid).cloned().unwrap_or_else(|| absent(oid));
                assert_eq!(
                    snapshot_answers(snap, oid),
                    want,
                    "pin {n} (lsn {}) disagrees with its pin-time core answer about {oid:?}",
                    snap.lsn()
                );
            }
        }
    }
    // And a fresh snapshot agrees with the engine as it is now — with the
    // reference and with the engine's own messages.
    let now = graph.cdb.begin_read();
    graph.cdb.with_read(|db| {
        for &oid in &graph.known {
            let want = core_answers(db, oid);
            assert_eq!(snapshot_answers(&now, oid), want);
            for (f, want) in filters(oid).zip(&want.filtered) {
                assert_eq!(&reference::engine_answers(db, oid, &f), want);
            }
        }
    });
}

/// One writer step of [`Graph::write`]'s repertoire, spelled once for the
/// two engines that must stay in lockstep: `Database` and `WriteTxn` name
/// the mutations alike. Evaluates to the OID a `make` minted, if any.
macro_rules! lockstep_step {
    ($e:expr, $graph:expr, $parent:expr, $step:expr) => {{
        let (kind, a, b, c) = $step;
        let (target, other) = ($graph.pick(a), $graph.pick(b));
        let (class, attr) = $graph.attach[c as usize % $graph.attach.len()];
        let mut made = None;
        match kind % 5 {
            0 => {
                let _ = $e.delete(target);
            }
            1 => made = $e.make(class, vec![], vec![(target, attr)]).ok(),
            2 | 3 => {
                if let Some(parent) = $parent {
                    let mut detached = false;
                    for a in &$graph.composite_attrs {
                        detached |= $e.remove_component(target, parent, a).is_ok();
                    }
                    if detached && kind % 5 == 3 {
                        for a in &$graph.composite_attrs {
                            if $e.make_component(target, other, a).is_ok() {
                                break;
                            }
                        }
                    }
                }
            }
            _ => {
                if let Some(scalar) = $graph.scalar {
                    let _ = $e.set_attr(target, scalar, Value::Str(format!("c{a}")));
                }
            }
        }
        made
    }};
}

/// Runs every step inside **one** write transaction and, in lockstep, as
/// autocommits on the twin. After each step the transaction's view must
/// answer the §3 questions and `instances_of` exactly as the reference
/// does over the twin's committed state — for every object the run ever
/// knew, the ones this transaction created or deleted included.
fn check_transaction_view_equals_reference(
    (mut graph, mut twin): (Graph, Database),
    steps: Vec<(u8, u16, u16, u8)>,
) {
    let mut classes: Vec<ClassId> = graph.known.iter().map(|o| o.class).collect();
    classes.extend(graph.attach.iter().map(|(class, _)| *class));
    classes.sort();
    classes.dedup();
    let cdb = graph.cdb.clone();
    let mut txn = cdb.begin_write();
    for step in steps {
        let target = graph.pick(step.1);
        let parent = twin
            .get(target)
            .ok()
            .and_then(|obj| obj.composite_parents().first().copied());
        let made = lockstep_step!(txn, graph, parent, step);
        assert_eq!(made, lockstep_step!(twin, graph, parent, step));
        graph.known.extend(made);
        for &oid in &graph.known {
            assert_eq!(
                txn_answers(&mut txn, oid),
                core_answers(&twin, oid),
                "the transaction's view disagrees with the reference about {oid:?}"
            );
        }
        for &class in &classes {
            let seen: DbResult<Vec<Oid>> = txn.with_view(&[], |v| Ok(v.instances_of(class, true)));
            assert_eq!(seen.unwrap(), twin.instances_of(class, true));
        }
    }
    // Committed, the engine itself answers the same.
    txn.commit().unwrap();
    cdb.with_read(|db| {
        for &oid in &graph.known {
            assert_eq!(core_answers(db, oid), core_answers(&twin, oid));
        }
    });
}

fn steps() -> impl Strategy<Value = Vec<(u8, u16, u16, u8)>> {
    prop::collection::vec(
        (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>()),
        1..14,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn pinned_traversals_equal_pin_time_core_answers_on_vehicle_fleets(
        n in 1usize..4,
        tires in 0usize..5,
        steps in steps(),
    ) {
        check_pins_survive_writes(vehicles(n, tires), steps);
    }

    #[test]
    fn pinned_traversals_equal_pin_time_core_answers_on_shared_dags(
        seed in 0u64..1_000,
        share in 0.0f64..0.8,
        steps in steps(),
    ) {
        check_pins_survive_writes(dag(seed, share), steps);
    }

    #[test]
    fn in_transaction_traversals_equal_the_reference_on_vehicle_fleets(
        n in 1usize..4,
        tires in 0usize..5,
        steps in steps(),
    ) {
        check_transaction_view_equals_reference(vehicles_with_twin(n, tires), steps);
    }

    #[test]
    fn in_transaction_traversals_equal_the_reference_on_shared_dags(
        seed in 0u64..1_000,
        share in 0.0f64..0.8,
        steps in steps(),
    ) {
        check_transaction_view_equals_reference(dag_with_twin(seed, share), steps);
    }
}

/// `instances_of` merges the chain verdicts of a bulk commit once (it
/// used to re-sort per chain-only insert and `Vec::remove` per deletion):
/// same answers, at every pin, with over a thousand versioned instances.
#[test]
fn instances_of_merges_a_thousand_versioned_instances() {
    const N: usize = 1_200;
    let cdb = ConcurrentDb::new();
    let (dot, sub) = cdb.with_exclusive(|db| {
        let dot = db
            .define_class(ClassBuilder::new("Dot").attr("n", Domain::Integer))
            .unwrap();
        let sub = db
            .define_class(ClassBuilder::new("SubDot").superclass(dot))
            .unwrap();
        (dot, sub)
    });
    let empty = cdb.begin_read();

    // One bulk commit creates them all: each gets a chain.
    let born: Vec<Oid> = cdb
        .run_write(|t| {
            (0..N)
                .map(|i| {
                    let class = if i % 3 == 0 { sub } else { dot };
                    t.make(class, vec![("n", Value::Int(i as i64))], vec![])
                })
                .collect()
        })
        .unwrap();
    let full = cdb.begin_read();

    // A second bulk commit deletes every other one and rewrites the rest.
    cdb.run_write(|t| {
        for (i, &oid) in born.iter().enumerate() {
            if i % 2 == 0 {
                t.delete(oid)?;
            } else {
                t.set_attr(oid, "n", Value::Int(-1))?;
            }
        }
        Ok(())
    })
    .unwrap();
    let halved = cdb.begin_read();

    let of = |class: ClassId, keep: &dyn Fn(usize) -> bool| {
        sorted(
            born.iter()
                .enumerate()
                .filter(|&(i, o)| o.class == class && keep(i))
                .map(|(_, &o)| o)
                .collect(),
        )
    };
    assert_eq!(empty.instances_of(dot, true).unwrap(), vec![]);
    assert_eq!(full.instances_of(dot, true).unwrap(), sorted(born.clone()));
    assert_eq!(full.instances_of(dot, false).unwrap(), of(dot, &|_| true));
    assert_eq!(full.instances_of(sub, false).unwrap(), of(sub, &|_| true));
    let survivors = sorted(born.iter().copied().skip(1).step_by(2).collect());
    assert_eq!(halved.instances_of(dot, true).unwrap(), survivors);
    assert_eq!(
        halved.instances_of(sub, false).unwrap(),
        of(sub, &|i| i % 2 == 1)
    );
    // The older pins are unmoved by the later commits.
    assert_eq!(empty.instances_of(dot, true).unwrap(), vec![]);
    assert_eq!(full.instances_of(dot, true).unwrap().len(), N);
    assert_eq!(
        cdb.with_read(|db| db.instances_of(dot, true)),
        survivors,
        "and the base agrees with the newest pin"
    );
}

/// A deep `instances_of` answers in one order wherever it is asked:
/// the engine outside a transaction, inside one, a write transaction's
/// view and a pinned snapshot. The subclass defined first holds the
/// lower OID; the lattice walk visits it last.
#[test]
fn a_deep_instances_of_answers_in_one_order_everywhere() {
    let mut db = Database::new();
    let a = db.define_class(ClassBuilder::new("A")).unwrap();
    let b = db
        .define_class(ClassBuilder::new("B").superclass(a))
        .unwrap();
    let c = db
        .define_class(ClassBuilder::new("C").superclass(a))
        .unwrap();
    let want = vec![
        db.make(b, vec![], vec![]).unwrap(),
        db.make(c, vec![], vec![]).unwrap(),
    ];
    assert_eq!(db.instances_of(a, true), want, "outside a transaction");
    db.begin_transaction().unwrap();
    assert_eq!(db.instances_of(a, true), want, "inside a transaction");
    db.abort_transaction().unwrap();

    let cdb = ConcurrentDb::from_database(db);
    assert_eq!(cdb.begin_read().instances_of(a, true).unwrap(), want);
    let mut txn = cdb.begin_write();
    let seen: DbResult<Vec<Oid>> = txn.with_view(&[], |v| Ok(v.instances_of(a, true)));
    assert_eq!(seen.unwrap(), want, "a write transaction's view");
}

/// One `Item` held by one `Holder` through two shared composite
/// attributes at once, in a served engine.
fn doubly_held() -> (ConcurrentDb, Oid, Oid) {
    let shared = CompositeSpec {
        exclusive: false,
        dependent: false,
    };
    let cdb = ConcurrentDb::new();
    // Built through the single-threaded engine, so no version chain stands
    // between a snapshot and what the base record says.
    let (item, holder) = cdb.with_exclusive(|db| {
        let item_class = db.define_class(ClassBuilder::new("Item")).unwrap();
        let set_of_items = || Domain::SetOf(Box::new(Domain::Class(item_class)));
        let holder_class = db
            .define_class(
                ClassBuilder::new("Holder")
                    .attr_composite("left", set_of_items(), shared)
                    .attr_composite("right", set_of_items(), shared),
            )
            .unwrap();
        let item = db.make(item_class, vec![], vec![]).unwrap();
        let holder = db.make(holder_class, vec![], vec![]).unwrap();
        db.make_component(item, holder, "left").unwrap();
        db.make_component(item, holder, "right").unwrap();
        (item, holder)
    });
    (cdb, item, holder)
}

/// The served `ComponentsOf` / `ParentsOf` answers are sets: a component
/// held through two composite attributes of one parent is one component
/// with one parent (the snapshot walk used to list each once per
/// attribute).
#[test]
fn a_component_held_through_two_attributes_is_reported_once() {
    let (cdb, item, holder) = doubly_held();
    let snap = cdb.begin_read();
    assert_eq!(snap.components_of(holder).unwrap(), vec![item]);
    assert_eq!(snap.parents_of(item).unwrap(), vec![holder]);
    assert_eq!(snap.subtree_of(holder).unwrap(), vec![holder, item]);
    assert_eq!(snap.ancestors_of(item).unwrap(), vec![holder]);
    // Inside a write transaction the same questions get the same answers.
    let mut txn = cdb.begin_write();
    let all = Filter::all();
    let (components, parents) = txn
        .with_view(&[holder], |mut db| {
            Ok((
                corion::view::components_of(&mut db, holder, &all.clone().level(1))?,
                corion::view::parents_of(&mut db, item, &all)?,
            ))
        })
        .unwrap();
    assert_eq!((components, parents), (vec![item], vec![holder]));
    cdb.with_read(|db| {
        assert_eq!(db.components_of(holder, &all).unwrap(), vec![item]);
        assert_eq!(db.parents_of(item, &all).unwrap(), vec![holder]);
    });
}

/// `ancestors_of` over any view skips a parent that a reverse reference
/// names but the view cannot see, as `Database::ancestors_of` always has
/// (the snapshot walk used to report it and stop there).
#[test]
fn a_named_but_invisible_parent_is_not_an_ancestor() {
    let (cdb, item, holder) = doubly_held();
    // Corrupt the item on purpose: a reverse reference to a holder that
    // never existed, next to the real one.
    let ghost = Oid::new(holder.class, 9_999);
    cdb.with_exclusive(|db| {
        let mut obj = db.get(item).unwrap();
        let mut dangling = obj.reverse_refs[0];
        dangling.parent = ghost;
        obj.reverse_refs.push(dangling);
        db.raw_overwrite_object(&obj).unwrap();
    });
    let snap = cdb.begin_read();
    assert_eq!(snap.ancestors_of(item).unwrap(), vec![holder]);
    cdb.with_read(|db| {
        assert_eq!(
            db.ancestors_of(item, &Filter::all()).unwrap(),
            reference::ancestors_of(db, item, &Filter::all()).unwrap()
        );
        assert_eq!(db.ancestors_of(item, &Filter::all()).unwrap(), vec![holder]);
        assert_eq!(db.roots_of(item).unwrap(), vec![holder]);
    });
}

/// A deferred §4.3 change reaches snapshot point reads. A version chain
/// holds the bytes the store held, so `Snapshot::get` brings a chain image
/// up to the schema's pending flag changes exactly as the engine brings a
/// base record — for a part committed through a write transaction (it has
/// a chain) and for one made under the exclusive latch (it has none) — and
/// so does the served `Get`, which answers from a snapshot.
#[test]
fn snapshot_get_applies_deferred_changes_to_chain_images() {
    use corion::core::evolution::{AttrTypeChange, Maintenance};
    use corion::{AuthStore, Client, Server, ServerConfig};

    let db = ConcurrentDb::new();
    let (part, asm) = db.with_exclusive(|d| {
        let part = d
            .define_class(ClassBuilder::new("Part").attr("n", Domain::Integer))
            .unwrap();
        let asm = d
            .define_class(ClassBuilder::new("Assembly").attr_composite(
                "parts",
                Domain::SetOf(Box::new(Domain::Class(part))),
                CompositeSpec {
                    exclusive: true,
                    dependent: true,
                },
            ))
            .unwrap();
        (part, asm)
    });
    let holds = |p: Oid| vec![("parts", Value::Set(vec![Value::Ref(p)]))];
    let plain = db.with_exclusive(|d| {
        let p = d.make(part, vec![("n", Value::Int(1))], vec![]).unwrap();
        d.make(asm, holds(p), vec![]).unwrap();
        p
    });
    // An older pin keeps the chains from being vacuumed.
    let _older = db.begin_read();
    let chained = db
        .run_write(|t| {
            let p = t.make(part, vec![("n", Value::Int(2))], vec![])?;
            t.make(asm, holds(p), vec![])?;
            Ok(p)
        })
        .unwrap();

    let deferred = |change| {
        db.with_exclusive(|d| d.change_attribute_type(asm, "parts", change, Maintenance::Deferred))
            .unwrap()
    };
    // I3 flips the D flag, which only `get` shows.
    deferred(AttrTypeChange::ToIndependent);
    let snap = db.begin_read();
    for p in [chained, plain] {
        let engine = db.with_read(|d| d.get(p)).unwrap();
        assert!(!engine.reverse_refs[0].dependent, "{p}");
        assert_eq!(snap.get(p).unwrap(), engine, "{p}");
    }
    drop(snap);

    // I1 drops the reverse reference, which the served `Get` shows too.
    deferred(AttrTypeChange::ToNonComposite);
    let server = Server::start(db.clone(), AuthStore::new(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), 0).unwrap();
    let snap = db.begin_read();
    for p in [chained, plain] {
        let engine = db.with_read(|d| d.get(p)).unwrap();
        assert!(engine.reverse_refs.is_empty(), "{p}");
        assert_eq!(snap.get(p).unwrap(), engine, "{p}");
        let served = client.get(p).unwrap();
        assert_eq!(served.parents, engine.composite_parents(), "{p}");
        let attrs: Vec<Value> = served.attrs.into_iter().map(|(_, v)| v).collect();
        assert_eq!(attrs, engine.attrs, "{p}");
    }
    drop(client);
    server.shutdown();
}
