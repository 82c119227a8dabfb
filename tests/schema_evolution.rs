//! Integration tests for §4 schema evolution across realistic scenarios:
//! interleavings of deferred changes with instance traffic, evolution on
//! inheritance hierarchies, and the full I/D taxonomy driven end-to-end.

use corion::core::evolution::{AttrTypeChange, Maintenance};
use corion::{AttributeDef, ClassBuilder, ClassId, CompositeSpec, Database, Domain, Oid, Value};

fn doc_world() -> (Database, ClassId, ClassId, Vec<Oid>, Vec<Oid>) {
    let mut db = Database::new();
    let sec = db.define_class(ClassBuilder::new("Section")).unwrap();
    let doc = db
        .define_class(ClassBuilder::new("Document").attr_composite(
            "sections",
            Domain::SetOf(Box::new(Domain::Class(sec))),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let mut secs = Vec::new();
    let mut docs = Vec::new();
    for _ in 0..10 {
        let s = db.make(sec, vec![], vec![]).unwrap();
        let d = db
            .make(
                doc,
                vec![("sections", Value::Set(vec![Value::Ref(s)]))],
                vec![],
            )
            .unwrap();
        secs.push(s);
        docs.push(d);
    }
    (db, doc, sec, docs, secs)
}

#[test]
fn deferred_changes_survive_interleaved_traffic() {
    let (mut db, doc, _sec, docs, secs) = doc_world();
    // Change 1 deferred; touch half the sections; change 2 deferred; touch
    // the rest. Every instance must end at the same final flag state.
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ExclusiveToShared,
        Maintenance::Deferred,
    )
    .unwrap();
    for &s in &secs[..5] {
        let obj = db.get(s).unwrap();
        assert!(!obj.reverse_refs[0].exclusive, "first change applied");
        assert!(
            obj.reverse_refs[0].dependent,
            "second change not yet issued"
        );
    }
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ToIndependent,
        Maintenance::Deferred,
    )
    .unwrap();
    for &s in &secs {
        let obj = db.get(s).unwrap();
        assert!(!obj.reverse_refs[0].exclusive && !obj.reverse_refs[0].dependent);
    }
    let _ = docs;
}

#[test]
fn deferred_then_state_dependent_change_sees_fresh_flags() {
    // D3 (shared -> exclusive) must verify against the *deferred-updated*
    // state, not stale flags: the engine applies pending changes on access,
    // and D3 scans instances (accessing them), so verification is correct.
    let (mut db, doc, _sec, _docs, secs) = doc_world();
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ExclusiveToShared,
        Maintenance::Deferred,
    )
    .unwrap();
    // Without touching anything, immediately demand exclusivity back.
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::SharedToExclusive,
        Maintenance::Immediate,
    )
    .unwrap();
    for &s in &secs {
        let obj = db.get(s).unwrap();
        assert!(obj.reverse_refs[0].exclusive);
    }
}

#[test]
fn i1_to_non_composite_turns_components_into_weak_targets() {
    let (mut db, doc, _sec, docs, secs) = doc_world();
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ToNonComposite,
        Maintenance::Immediate,
    )
    .unwrap();
    // Forward values intact, part-of semantics gone.
    assert!(db
        .get_attr(docs[0], "sections")
        .unwrap()
        .references(secs[0]));
    assert!(db.get(secs[0]).unwrap().reverse_refs.is_empty());
    assert!(!db.component_of(secs[0], docs[0]).unwrap());
    // Deleting the document now leaves the section alone (weak ref dangles
    // on the deleted side; section has no reverse refs to clean).
    db.delete(docs[0]).unwrap();
    assert!(db.exists(secs[0]));
}

#[test]
fn d1_weak_to_exclusive_full_cycle() {
    // Demote to weak, then promote back to exclusive — the round trip must
    // restore part-of semantics for every instance.
    let (mut db, doc, _sec, docs, secs) = doc_world();
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ToNonComposite,
        Maintenance::Immediate,
    )
    .unwrap();
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::WeakToExclusive { dependent: true },
        Maintenance::Immediate,
    )
    .unwrap();
    for (d, s) in docs.iter().zip(&secs) {
        assert!(db.child_of(*s, *d).unwrap());
        assert_eq!(db.get(*s).unwrap().dx(), vec![*d]);
    }
}

#[test]
fn evolution_cascades_through_inheritance() {
    let mut db = Database::new();
    let item = db.define_class(ClassBuilder::new("Item")).unwrap();
    let base = db
        .define_class(ClassBuilder::new("Base").attr_composite(
            "slot",
            Domain::Class(item),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let mid = db
        .define_class(ClassBuilder::new("Mid").superclass(base))
        .unwrap();
    let leafc = db
        .define_class(ClassBuilder::new("LeafC").superclass(mid))
        .unwrap();
    let i1 = db.make(item, vec![], vec![]).unwrap();
    let i2 = db.make(item, vec![], vec![]).unwrap();
    let m = db
        .make(mid, vec![("slot", Value::Ref(i1))], vec![])
        .unwrap();
    let l = db
        .make(leafc, vec![("slot", Value::Ref(i2))], vec![])
        .unwrap();
    // Deferred change issued on the leaf class lands on Base and reaches
    // instances of Mid too.
    db.change_attribute_type(
        leafc,
        "slot",
        AttrTypeChange::ExclusiveToShared,
        Maintenance::Deferred,
    )
    .unwrap();
    assert_eq!(db.get(i1).unwrap().ds(), vec![m]);
    assert_eq!(db.get(i2).unwrap().ds(), vec![l]);
    assert!(db.shared_compositep(base, Some("slot")).unwrap());
    assert!(db.shared_compositep(mid, Some("slot")).unwrap());
}

#[test]
fn add_then_drop_attribute_round_trip_preserves_other_values() {
    let mut db = Database::new();
    let c = db
        .define_class(
            ClassBuilder::new("C")
                .attr("a", Domain::Integer)
                .attr("b", Domain::String),
        )
        .unwrap();
    let o = db
        .make(
            c,
            vec![("a", Value::Int(1)), ("b", Value::Str("keep".into()))],
            vec![],
        )
        .unwrap();
    let mut def = AttributeDef::plain("mid", Domain::Integer);
    def.init = Value::Int(7);
    db.add_attribute(c, def).unwrap();
    assert_eq!(db.get_attr(o, "mid").unwrap(), Value::Int(7));
    db.drop_attribute(c, "a").unwrap();
    assert!(db.get_attr(o, "a").is_err());
    assert_eq!(db.get_attr(o, "b").unwrap(), Value::Str("keep".into()));
    assert_eq!(db.get_attr(o, "mid").unwrap(), Value::Int(7));
}

#[test]
fn drop_class_in_the_middle_of_a_composite_chain() {
    // Chain: Top --dep--> Mid --dep--> Bottom. Dropping Mid's class deletes
    // Mid instances, cascading into Bottom instances; Top instances lose
    // their forward refs (scrubbed by the Deletion Rule).
    let mut db = Database::new();
    let bottom = db.define_class(ClassBuilder::new("Bottom")).unwrap();
    let mid = db
        .define_class(ClassBuilder::new("Mid").attr_composite(
            "b",
            Domain::Class(bottom),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let top = db
        .define_class(ClassBuilder::new("Top").attr_composite(
            "m",
            Domain::Class(mid),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let b = db.make(bottom, vec![], vec![]).unwrap();
    let m = db.make(mid, vec![("b", Value::Ref(b))], vec![]).unwrap();
    let t = db.make(top, vec![("m", Value::Ref(m))], vec![]).unwrap();
    db.drop_class(mid).unwrap();
    assert!(!db.exists(m) && !db.exists(b));
    assert!(db.exists(t));
    assert_eq!(
        db.get_attr(t, "m").unwrap(),
        Value::Null,
        "forward ref scrubbed"
    );
    assert!(db.class(mid).is_err());
}

#[test]
fn deferred_log_entries_do_not_touch_unrelated_classes() {
    // Two referencing classes share a domain class; a deferred change on
    // one must not alter reverse refs from the other.
    let mut db = Database::new();
    let item = db.define_class(ClassBuilder::new("Item")).unwrap();
    let h1 = db
        .define_class(ClassBuilder::new("H1").attr_composite(
            "slot",
            Domain::Class(item),
            CompositeSpec {
                exclusive: false,
                dependent: true,
            },
        ))
        .unwrap();
    let h2 = db
        .define_class(ClassBuilder::new("H2").attr_composite(
            "slot",
            Domain::Class(item),
            CompositeSpec {
                exclusive: false,
                dependent: true,
            },
        ))
        .unwrap();
    let i = db.make(item, vec![], vec![]).unwrap();
    let p1 = db.make(h1, vec![("slot", Value::Ref(i))], vec![]).unwrap();
    let p2 = db.make(h2, vec![("slot", Value::Ref(i))], vec![]).unwrap();
    db.change_attribute_type(
        h1,
        "slot",
        AttrTypeChange::ToIndependent,
        Maintenance::Deferred,
    )
    .unwrap();
    let obj = db.get(i).unwrap();
    let rr1 = obj.reverse_refs.iter().find(|r| r.parent == p1).unwrap();
    let rr2 = obj.reverse_refs.iter().find(|r| r.parent == p2).unwrap();
    assert!(!rr1.dependent, "H1's reference became independent");
    assert!(rr2.dependent, "H2's reference untouched");
}

#[test]
fn change_counts_are_monotone_and_instances_catch_up_exactly_once() {
    let (mut db, doc, sec, _docs, secs) = doc_world();
    let cc0 = db.class(sec).unwrap().change_count;
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ExclusiveToShared,
        Maintenance::Deferred,
    )
    .unwrap();
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ToIndependent,
        Maintenance::Deferred,
    )
    .unwrap();
    let cc2 = db.class(sec).unwrap().change_count;
    assert_eq!(cc2, cc0 + 2);
    let obj = db.get(secs[0]).unwrap();
    assert_eq!(obj.cc, cc2, "instance caught up to the class CC");
    // A second read re-applies nothing (flags already final).
    let again = db.get(secs[0]).unwrap();
    assert_eq!(again, obj);
}

/// An Immediate §4.3 change is one logged batch: with change capture on,
/// the message releases exactly one change set, stamped with the message's
/// own commit LSN and naming every rewritten instance as `Changed`; the
/// next `make` releases a set of its own that holds only that `make`.
#[test]
fn an_immediate_change_is_one_batch_released_at_its_own_lsn() {
    use corion::core::Change;
    let (mut db, doc, sec, _docs, mut secs) = doc_world();
    db.set_change_capture(true);
    let before = db.durable_commit_lsn();
    db.change_attribute_type(
        doc,
        "sections",
        AttrTypeChange::ToIndependent,
        Maintenance::Immediate,
    )
    .unwrap();
    let lsn = db.durable_commit_lsn();
    assert!(lsn > before, "the message logged a batch");
    let sets = db.take_released_changes();
    assert_eq!(sets.len(), 1, "one message, one batch: {sets:?}");
    assert_eq!(sets[0].commit_lsn, lsn);
    let rewritten: Vec<Oid> = sets[0]
        .changes
        .iter()
        .map(|c| match c {
            Change::Changed {
                oid,
                parents_added,
                parents_removed,
            } => {
                assert!(parents_added.is_empty() && parents_removed.is_empty());
                *oid
            }
            other => panic!("an I3 change rewrites flags only: {other:?}"),
        })
        .collect();
    secs.sort();
    assert_eq!(rewritten, secs);

    let fresh = db.make(sec, vec![], vec![]).unwrap();
    let sets = db.take_released_changes();
    assert_eq!(sets.len(), 1);
    assert_eq!(sets[0].commit_lsn, db.durable_commit_lsn());
    assert_eq!(
        sets[0].changes,
        vec![Change::Made {
            oid: fresh,
            parents: vec![]
        }]
    );
}

/// A crash point anywhere in an Immediate message's commits leaves a data
/// directory whose instances agree with its catalog. For each countdown of
/// `commit:log` across the message, until the message commits, the
/// directory is reopened: every section's reverse-reference D flag matches
/// the reopened class's spec, and the integrity audit holds.
#[test]
fn an_immediate_change_cut_at_any_commit_reopens_consistent() {
    use corion::storage::CP_COMMIT_LOG;
    use corion::DbConfig;
    const SECTIONS: usize = 6;
    let mut countdown = 1;
    loop {
        let dir =
            std::env::temp_dir().join(format!("corion_ddl_cut_{}_{countdown}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (doc, secs, committed) = {
            let mut db = Database::open(&dir, DbConfig::default()).unwrap();
            let sec = db.define_class(ClassBuilder::new("Section")).unwrap();
            let doc = db
                .define_class(ClassBuilder::new("Document").attr_composite(
                    "sections",
                    Domain::SetOf(Box::new(Domain::Class(sec))),
                    CompositeSpec {
                        exclusive: true,
                        dependent: true,
                    },
                ))
                .unwrap();
            let mut secs = Vec::new();
            for _ in 0..SECTIONS {
                let s = db.make(sec, vec![], vec![]).unwrap();
                let set = Value::Set(vec![Value::Ref(s)]);
                db.make(doc, vec![("sections", set)], vec![]).unwrap();
                secs.push(s);
            }
            db.arm_crash_point(CP_COMMIT_LOG, countdown);
            let outcome = db.change_attribute_type(
                doc,
                "sections",
                AttrTypeChange::ToIndependent,
                Maintenance::Immediate,
            );
            db.heal_crash_points();
            (doc, secs, outcome.is_ok())
        };
        let mut db = Database::open(&dir, DbConfig::default()).unwrap();
        let spec = db.class(doc).unwrap().attr("sections").unwrap().composite;
        let dependent = spec.unwrap().dependent;
        assert_eq!(dependent, !committed, "countdown {countdown}");
        for s in &secs {
            let flags: Vec<bool> = db
                .get(*s)
                .unwrap()
                .reverse_refs
                .iter()
                .map(|r| r.dependent)
                .collect();
            assert_eq!(flags, vec![dependent], "{s} at countdown {countdown}");
        }
        db.verify_integrity().unwrap();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
        if committed {
            break;
        }
        countdown += 1;
        assert!(
            countdown <= SECTIONS as u64 + 1,
            "the message never committed"
        );
    }
}

/// A message whose instance batch rolls back — `Err` on a healthy store —
/// takes its catalog and operation-log edits back with it: the schema
/// still matches the instances, with no reopen. Shown for a type change,
/// a dropped attribute and a dropped class.
#[test]
fn a_rolled_back_message_leaves_the_catalog_as_it_was() {
    use corion::storage::{HealthState, CP_COMMIT_LOG};
    let (mut db, doc, sec, docs, secs) = doc_world();
    let spec = |db: &Database| db.class(doc).unwrap().attr("sections").map(|a| a.composite);
    let before = spec(&db);
    let objects = db.object_count();
    type Message = fn(&mut Database, ClassId) -> corion::DbResult<()>;
    let messages: [Message; 3] = [
        |db, doc| {
            db.change_attribute_type(
                doc,
                "sections",
                AttrTypeChange::ToIndependent,
                Maintenance::Immediate,
            )
        },
        |db, doc| db.drop_attribute(doc, "sections"),
        |db, doc| db.drop_class(doc),
    ];
    for (i, message) in messages.iter().enumerate() {
        db.arm_crash_point(CP_COMMIT_LOG, 1);
        let got = message(&mut db, doc);
        db.heal_crash_points();
        assert!(got.is_err(), "message {i} rolled back");
        assert_eq!(db.health(), HealthState::Healthy);
        assert_eq!(spec(&db), before, "message {i}");
        assert_eq!(db.class_by_name("Document").unwrap(), doc);
        assert_eq!(db.object_count(), objects);
        assert_eq!(db.instances_of(doc, false).len(), docs.len());
        for s in &secs {
            let flags: Vec<bool> = db
                .get(*s)
                .unwrap()
                .reverse_refs
                .iter()
                .map(|r| r.dependent)
                .collect();
            assert_eq!(flags, vec![true], "{s} after message {i}");
        }
        db.verify_integrity().unwrap();
    }
    // Unarmed, the type change goes through.
    messages[0](&mut db, doc).unwrap();
    assert!(!db.get(secs[0]).unwrap().reverse_refs[0].dependent);
    assert_eq!(db.instances_of(sec, false).len(), secs.len());
    db.verify_integrity().unwrap();
}
