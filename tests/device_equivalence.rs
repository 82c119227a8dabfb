//! Backend equivalence: the simulated in-memory devices and the
//! file-backed devices must be *indistinguishable* at the logical level.
//!
//! Property: for any deterministic operation sequence and any split
//! point, running the whole sequence on the in-memory backend produces
//! byte-identical object images (same OIDs, same encodings) as running
//! the prefix on a file-backed engine, dropping it, reopening the
//! directory in a fresh process-equivalent engine, and running the
//! suffix there. The mid-sequence reopen is the point: it forces the
//! suffix to execute against recovered state — page images faulted back
//! from `pages.dat`, a WAL replayed from `wal.log`, a schema recovered
//! from its log record — rather than against any surviving memory.
//!
//! This is what licenses the rest of the suite to do most of its crash
//! sweeps on the fast simulated disk: the two backends provably agree.

use corion::{
    AttributeDef, ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, Domain, Oid, Value,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// New root item with an integer payload.
    Create(i64),
    /// Overwrite the integer attribute on the i-th live object.
    SetInt { obj: usize, v: i64 },
    /// Grow the string attribute (past a page forces relocation and
    /// overflow chains, exercising multi-page images on both backends).
    Grow { obj: usize, len: usize },
    /// Cascading delete.
    Delete { obj: usize },
    /// Bottom-up attach into the composite `parts` set.
    Attach { child: usize, parent: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<i64>().prop_map(Op::Create),
        3 => (0..64usize, any::<i64>()).prop_map(|(obj, v)| Op::SetInt { obj, v }),
        2 => (0..64usize, 0..6000usize).prop_map(|(obj, len)| Op::Grow { obj, len }),
        2 => (0..64usize).prop_map(|obj| Op::Delete { obj }),
        2 => (0..64usize, 0..64usize).prop_map(|(child, parent)| Op::Attach { child, parent }),
    ]
}

/// Defines the `Item` schema (integer + growable string + shared-dependent
/// composite set of items) and a small seed population.
fn schema(db: &mut Database) -> ClassId {
    let item = db
        .define_class(
            ClassBuilder::new("Item")
                .attr("n", Domain::Integer)
                .attr("text", Domain::String),
        )
        .unwrap();
    db.add_attribute(
        item,
        AttributeDef::composite(
            "parts",
            Domain::SetOf(Box::new(Domain::Class(item))),
            CompositeSpec {
                exclusive: false,
                dependent: true,
            },
        ),
    )
    .unwrap();
    for i in 0..4 {
        db.make(item, vec![("n", Value::Int(i))], vec![]).unwrap();
    }
    item
}

/// Applies one op; semantic rejections (cycles, dangling targets) are part
/// of the deterministic semantics and must be rejected identically on both
/// backends, so they are simply ignored here.
fn apply(db: &mut Database, item: ClassId, op: &Op) {
    let live: Vec<Oid> = db.instances_of(item, false);
    let pick = |i: usize| -> Option<Oid> {
        if live.is_empty() {
            None
        } else {
            Some(live[i % live.len()])
        }
    };
    let _ = match op {
        Op::Create(v) => db
            .make(item, vec![("n", Value::Int(*v))], vec![])
            .map(|_| ()),
        Op::SetInt { obj, v } => match pick(*obj) {
            Some(o) => db.set_attr(o, "n", Value::Int(*v)),
            None => Ok(()),
        },
        Op::Grow { obj, len } => match pick(*obj) {
            Some(o) => db.set_attr(o, "text", Value::Str("e".repeat(*len))),
            None => Ok(()),
        },
        Op::Delete { obj } => match pick(*obj) {
            Some(o) => db.delete(o).map(|_| ()),
            None => Ok(()),
        },
        Op::Attach { child, parent } => match (pick(*child), pick(*parent)) {
            (Some(c), Some(p)) => db.make_component(c, p, "parts"),
            _ => Ok(()),
        },
    };
}

/// Logical content fingerprint: OID + encoded image of every live object,
/// sorted. Byte-identical across backends by construction of the codec —
/// that is exactly the property under test.
fn fingerprint(db: &Database, item: ClassId) -> Vec<(Oid, Vec<u8>)> {
    let mut out = Vec::new();
    for oid in db.instances_of(item, false) {
        let obj = db.get(oid).unwrap();
        let mut buf = Vec::new();
        obj.encode(&mut buf);
        out.push((oid, buf));
    }
    out.sort();
    out
}

fn fresh_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "corion_equiv_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sim_and_file_backends_agree_across_a_mid_sequence_reopen(
        ops in prop::collection::vec(op_strategy(), 1..24),
        split_pick in 0..64usize,
        checkpoint_at_split in any::<bool>(),
    ) {
        let split = split_pick % (ops.len() + 1);

        // In-memory run: the whole sequence, no interruption.
        let mut sim = Database::new();
        let item = schema(&mut sim);
        for op in &ops {
            apply(&mut sim, item, op);
        }
        let want = fingerprint(&sim, item);

        // File-backed run: prefix, optional checkpoint (compacts the WAL
        // and re-asserts the schema — the suffix must not care), drop,
        // reopen from the media, suffix.
        let dir = fresh_dir();
        let mut db = Database::open(&dir, DbConfig::default()).unwrap();
        let file_item = schema(&mut db);
        prop_assert_eq!(file_item, item, "class ids must allocate identically");
        for op in &ops[..split] {
            apply(&mut db, file_item, op);
        }
        if checkpoint_at_split {
            db.checkpoint().unwrap();
        }
        drop(db);

        let mut db = Database::open(&dir, DbConfig::default()).unwrap();
        for op in &ops[split..] {
            apply(&mut db, file_item, op);
        }
        let got = fingerprint(&db, file_item);

        prop_assert_eq!(
            got, want,
            "file-backed run (reopen after op {}) diverged from the in-memory run",
            split
        );
        db.verify_integrity().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}
