//! Pinned snapshots answer the §3 traversals exactly as the core engine
//! did at pin time.
//!
//! A writer commits between pins — deleting, re-parenting, creating and
//! rewriting objects of a random composite graph — and every pinned
//! [`Snapshot`]'s `subtree_of` / `components_of` / `parents_of` /
//! `ancestors_of` must keep equalling the `_uncached` core answer that
//! was captured when it was pinned, for every object the run ever knew:
//! ones deleted since, ones re-parented since, and ones that did not
//! exist yet. The `vehicles` graphs have leaf classes (no composite
//! attribute), which the snapshot walk lists on visibility alone; the
//! `dag` graphs have none and shared components. Also here: the
//! `instances_of` merge under a bulk commit.

use std::collections::HashMap;

use corion::workload::dag::{DagParams, GeneratedDag};
use corion::workload::vehicles::Fleet;
use corion::{ClassBuilder, ClassId, ConcurrentDb, Database, Domain, Filter, Oid, Snapshot, Value};
use proptest::prelude::*;

/// What the core engine says about one object; `None` where it errors
/// (the object does not exist).
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    /// The object and everything below it, sorted (empty if absent).
    subtree: Vec<Oid>,
    components: Option<Vec<Oid>>,
    parents: Option<Vec<Oid>>,
    ancestors: Option<Vec<Oid>>,
}

/// As a set: `Snapshot::components_of` lists a component once per
/// composite attribute that holds it, the core once.
fn sorted(mut v: Vec<Oid>) -> Vec<Oid> {
    v.sort();
    v.dedup();
    v
}

fn absent() -> Answers {
    Answers {
        subtree: vec![],
        components: None,
        parents: None,
        ancestors: None,
    }
}

fn core_answers(db: &Database, oid: Oid) -> Answers {
    let all = Filter::all();
    Answers {
        subtree: db
            .components_of_uncached(oid, &all)
            .map(|mut below| {
                below.push(oid);
                sorted(below)
            })
            .unwrap_or_default(),
        components: db
            .components_of_uncached(oid, &Filter::all().level(1))
            .ok()
            .map(sorted),
        parents: db.parents_of_uncached(oid, &all).ok().map(sorted),
        ancestors: db.ancestors_of_uncached(oid, &all).ok().map(sorted),
    }
}

fn snapshot_answers(snap: &Snapshot, oid: Oid) -> Answers {
    Answers {
        subtree: sorted(snap.subtree_of(oid).unwrap()),
        components: snap.components_of(oid).ok().map(sorted),
        parents: snap.parents_of(oid).ok().map(sorted),
        ancestors: snap.ancestors_of(oid).ok().map(sorted),
    }
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
    Graph {
        cdb: ConcurrentDb::from_database(db),
        known,
        attach: vec![
            (fleet.schema.tires, "Tires"),
            (fleet.schema.body, "Body"),
            (fleet.schema.drivetrain, "Drivetrain"),
        ],
        composite_attrs: vec!["Tires", "Body", "Drivetrain"],
        scalar: Some("Color"),
    }
}

fn dag(seed: u64, share: f64) -> Graph {
    let mut db = Database::new();
    let dag = GeneratedDag::generate(
        &mut db,
        DagParams {
            depth: 2,
            fanout: 3,
            roots: 2,
            share_fraction: share,
            dependent_fraction: 0.5,
            seed,
        },
    )
    .unwrap();
    let attrs = vec!["kids_de", "kids_ie", "kids_ds", "kids_is"];
    Graph {
        known: dag.all(),
        attach: attrs.iter().map(|&a| (dag.class, a)).collect(),
        composite_attrs: attrs,
        scalar: None,
        cdb: ConcurrentDb::from_database(db),
    }
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
                let want = at_pin.get(&oid).cloned().unwrap_or_else(absent);
                assert_eq!(
                    snapshot_answers(snap, oid),
                    want,
                    "pin {n} (lsn {}) disagrees with its pin-time core answer about {oid:?}",
                    snap.lsn()
                );
            }
        }
    }
    // And a fresh snapshot agrees with the engine as it is now.
    let now = graph.cdb.begin_read();
    graph.cdb.with_read(|db| {
        for &oid in &graph.known {
            assert_eq!(snapshot_answers(&now, oid), core_answers(db, oid));
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
