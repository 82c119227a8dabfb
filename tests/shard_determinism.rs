//! On-disk artifacts are shard-count independent.
//!
//! The dump format, checkpoints, and `repair()` all iterate
//! engine state — after sharding the object table, those paths must
//! iterate in an order that does not depend on how OIDs hash across
//! stripes, or a dump taken at `shards = 16` would not restore cleanly
//! on an engine configured with `shards = 4`. These tests pin that
//! contract: the same logical workload produces **byte-identical**
//! dumps at shard counts 1, 4, and 16, and a dump taken at one count
//! restores at another.

use corion::{
    ClassBuilder, ClassId, CompositeSpec, Database, DbConfig, Domain, MakeSpec, Oid, ParentRef,
    Value,
};

fn db_with_shards(shards: usize) -> Database {
    Database::with_config(DbConfig {
        shards,
        ..DbConfig::default()
    })
}

fn schema(db: &mut Database) -> (ClassId, ClassId) {
    let part = db
        .define_class(ClassBuilder::new("Part").attr("payload", Domain::String))
        .unwrap();
    let asm = db
        .define_class(ClassBuilder::new("Asm").attr_composite(
            "parts",
            Domain::SetOf(Box::new(Domain::Class(part))),
            CompositeSpec {
                exclusive: false,
                dependent: true,
            },
        ))
        .unwrap();
    (part, asm)
}

/// A deterministic mixed workload: bulk ingest, single makes, attach,
/// re-assignment, deletion. Every mutation path that touches placement
/// or iteration order shows up in the dump if it is shard-dependent.
fn build_workload(db: &mut Database) {
    let (part, asm) = schema(db);

    // Bulk ingest through the 4-phase parallel placement path.
    let mut specs = vec![MakeSpec::new(asm)];
    for i in 0..40 {
        specs.push(
            MakeSpec::new(part)
                .value("payload", Value::Str(format!("bulk-{i}")))
                .parent(ParentRef::Created(0), "parts"),
        );
    }
    let created = db.make_many(&specs).unwrap();

    // Individual makes + bottom-up assembly.
    let solo_asm = db.make(asm, vec![], vec![]).unwrap();
    let mut singles: Vec<Oid> = (0..20)
        .map(|i| {
            db.make(
                part,
                vec![("payload", Value::Str(format!("solo-{i}")))],
                vec![],
            )
            .unwrap()
        })
        .collect();
    for &s in singles.iter().take(10) {
        db.make_component(s, solo_asm, "parts").unwrap();
    }

    // Mutations and deletions.
    for (i, &s) in singles.iter().enumerate().skip(10) {
        db.set_attr(s, "payload", Value::Str(format!("retag-{i}")))
            .unwrap();
    }
    db.delete(created[5]).unwrap();
    db.delete(singles.pop().unwrap()).unwrap();
}

fn dump_at(shards: usize) -> Vec<u8> {
    let mut db = db_with_shards(shards);
    build_workload(&mut db);
    db.dump().unwrap()
}

#[test]
fn dumps_are_byte_identical_across_shard_counts() {
    let d1 = dump_at(1);
    let d4 = dump_at(4);
    let d16 = dump_at(16);
    assert_eq!(d1, d4, "dump at shards=1 differs from shards=4");
    assert_eq!(d4, d16, "dump at shards=4 differs from shards=16");
}

#[test]
fn dump_restores_across_shard_counts() {
    let image = dump_at(16);
    for shards in [1usize, 4, 16] {
        let mut restored = Database::restore(
            &image,
            DbConfig {
                shards,
                ..DbConfig::default()
            },
        )
        .unwrap();
        assert_eq!(restored.shard_count(), shards.next_power_of_two().max(1));
        // The restored engine is fully functional and re-dumps to the
        // same image regardless of its own stripe count.
        assert_eq!(
            restored.dump().unwrap(),
            image,
            "re-dump at shards={shards}"
        );
        // repair() walks sorted OIDs — it must see a consistent table.
        let report = restored.repair().unwrap();
        assert!(
            report.is_clean(),
            "restore at shards={shards} needed repair"
        );
    }
}
