//! Sharding oracle: a striped engine is observably identical to the
//! single-map baseline.
//!
//! Property: for any operation sequence, a `DbConfig { shards: 16 }`
//! engine and a `DbConfig { shards: 1 }` engine produce
//!
//! * the same per-operation results (same minted OIDs, same
//!   success/failure),
//! * byte-identical [`Database::dump`] images (the dump format is
//!   defined by physical placement order, which sharding must not
//!   change),
//! * identical traversals (`components_of` from every live object), and
//! * identical `object_count` / `corion_shard_occupancy_*` sums in the
//!   metrics snapshot.
//!
//! 256 random cases — the striping is pure partitioning, so any
//! divergence is a bug in the shard routing, not a legal reordering.

use corion::{
    AttributeDef, ClassBuilder, CompositeSpec, Database, DbConfig, Domain, Filter, Oid, Value,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create,
    CreateUnder {
        parent: usize,
        attr: usize,
    },
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
    SetPayload {
        obj: usize,
    },
    SetWeak {
        obj: usize,
        target: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Create),
        3 => (0..64usize, 0..4usize)
            .prop_map(|(parent, attr)| Op::CreateUnder { parent, attr }),
        4 => (0..64usize, 0..64usize, 0..4usize)
            .prop_map(|(child, parent, attr)| Op::Attach { child, parent, attr }),
        2 => (0..64usize, 0..64usize, 0..4usize)
            .prop_map(|(child, parent, attr)| Op::Detach { child, parent, attr }),
        2 => (0..64usize).prop_map(|obj| Op::Delete { obj }),
        2 => (0..64usize).prop_map(|obj| Op::SetPayload { obj }),
        1 => (0..64usize, 0..64usize).prop_map(|(obj, target)| Op::SetWeak { obj, target }),
    ]
}

const ATTRS: [&str; 4] = ["kids_de", "kids_ie", "kids_ds", "kids_is"];

fn part_db(shards: usize) -> (Database, corion::ClassId) {
    let mut db = Database::with_config(DbConfig {
        shards,
        ..DbConfig::default()
    });
    let part = db
        .define_class(ClassBuilder::new("Part").attr("payload", Domain::String))
        .unwrap();
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

/// Apply `op` to one engine. Returns a comparable outcome: the minted
/// OID for creates, `Ok`/`Err` discriminant otherwise.
fn apply(db: &mut Database, part: corion::ClassId, pool: &mut Vec<Oid>, op: &Op) -> String {
    let pick = |pool: &Vec<Oid>, i: usize| pool[i % pool.len()];
    match op {
        Op::Create => {
            let oid = db.make(part, vec![], vec![]).unwrap();
            pool.push(oid);
            format!("create {oid}")
        }
        Op::CreateUnder { parent, attr } => {
            if pool.is_empty() {
                return "skip".into();
            }
            let p = pick(pool, *parent);
            if !db.exists(p) {
                return "skip".into();
            }
            match db.make(part, vec![], vec![(p, ATTRS[attr % 4])]) {
                Ok(oid) => {
                    pool.push(oid);
                    format!("create {oid} under {p}")
                }
                Err(e) => format!("err {e}"),
            }
        }
        Op::Attach {
            child,
            parent,
            attr,
        } => {
            if pool.is_empty() {
                return "skip".into();
            }
            let (c, p) = (pick(pool, *child), pick(pool, *parent));
            if !db.exists(c) || !db.exists(p) {
                return "skip".into();
            }
            match db.make_component(c, p, ATTRS[attr % 4]) {
                Ok(()) => format!("attach {c} -> {p}"),
                Err(e) => format!("err {e}"),
            }
        }
        Op::Detach {
            child,
            parent,
            attr,
        } => {
            if pool.is_empty() {
                return "skip".into();
            }
            let (c, p) = (pick(pool, *child), pick(pool, *parent));
            if !db.exists(c) || !db.exists(p) {
                return "skip".into();
            }
            match db.remove_component(c, p, ATTRS[attr % 4]) {
                Ok(()) => format!("detach {c} from {p}"),
                Err(e) => format!("err {e}"),
            }
        }
        Op::Delete { obj } => {
            if pool.is_empty() {
                return "skip".into();
            }
            let o = pick(pool, *obj);
            if !db.exists(o) {
                return "skip".into();
            }
            let mut gone = db.delete(o).unwrap();
            gone.sort();
            format!("delete {o}: {gone:?}")
        }
        Op::SetPayload { obj } => {
            if pool.is_empty() {
                return "skip".into();
            }
            let o = pick(pool, *obj);
            if !db.exists(o) {
                return "skip".into();
            }
            db.set_attr(o, "payload", Value::Str(format!("p-{}", o.serial)))
                .unwrap();
            format!("payload {o}")
        }
        Op::SetWeak { obj, target } => {
            if pool.is_empty() {
                return "skip".into();
            }
            let (o, t) = (pick(pool, *obj), pick(pool, *target));
            if !db.exists(o) || !db.exists(t) {
                return "skip".into();
            }
            match db.set_attr(o, "buddy", Value::Ref(t)) {
                Ok(()) => format!("weak {o} -> {t}"),
                Err(e) => format!("err {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn sharded_engine_is_observably_identical_to_single_map(
        ops in prop::collection::vec(op_strategy(), 1..48),
    ) {
        let (mut sharded, part_s) = part_db(16);
        let (mut single, part_1) = part_db(1);
        prop_assert_eq!(part_s, part_1);
        let part = part_s;
        prop_assert_eq!(sharded.shard_count(), 16);
        prop_assert_eq!(single.shard_count(), 1);

        let mut pool_s: Vec<Oid> = Vec::new();
        let mut pool_1: Vec<Oid> = Vec::new();
        for _ in 0..6 {
            pool_s.push(sharded.make(part, vec![], vec![]).unwrap());
            pool_1.push(single.make(part, vec![], vec![]).unwrap());
        }
        prop_assert_eq!(&pool_s, &pool_1, "seed pools diverged");

        for op in &ops {
            let r_s = apply(&mut sharded, part, &mut pool_s, op);
            let r_1 = apply(&mut single, part, &mut pool_1, op);
            prop_assert_eq!(r_s, r_1, "outcome diverged at {:?}", op);
        }

        // Same object population...
        prop_assert_eq!(sharded.object_count(), single.object_count());
        let mut live_s = sharded.instances_of(part, false);
        let mut live_1 = single.instances_of(part, false);
        live_s.sort();
        live_1.sort();
        prop_assert_eq!(&live_s, &live_1);

        // ...same traversals from every live object...
        for &o in &live_s {
            let c_s = sharded.components_of(o, &Filter::all()).unwrap();
            let c_1 = single.components_of(o, &Filter::all()).unwrap();
            prop_assert_eq!(c_s, c_1, "components_of({}) diverged", o);
        }

        // ...the occupancy gauges account for every live object...
        let snap = sharded.metrics_snapshot();
        let occupancy: i64 = (0..16)
            .map(|i| snap.gauge(&format!("corion_shard_occupancy_{i}")))
            .sum();
        prop_assert_eq!(occupancy as usize, sharded.object_count());

        // ...and byte-identical dump images.
        let dump_s = sharded.dump().unwrap();
        let dump_1 = single.dump().unwrap();
        prop_assert_eq!(dump_s, dump_1, "dump diverged across shard counts");
    }
}
