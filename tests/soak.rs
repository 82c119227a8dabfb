//! Soak test: thousands of mixed operations across every subsystem on one
//! engine, with the full invariant audit and a dump/restore round-trip at
//! checkpoints; plus a crash-recovery soak that interleaves parallel
//! readers with injected crash/recover cycles. Deterministic (seeded);
//! runtime is bounded to keep `cargo test` fast.

use corion::core::evolution::{AttrTypeChange, Maintenance};
use corion::workload::{Corpus, CorpusParams};
use corion::{Database, DbConfig, Value};
use corion::{Predicate, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use corion::core::query;

#[test]
fn mixed_operation_soak() {
    let mut rng = StdRng::seed_from_u64(1989);
    let mut db = Database::new();
    let corpus = Corpus::generate(
        &mut db,
        CorpusParams {
            documents: 30,
            sections_per_doc: 4,
            paras_per_section: 3,
            share_fraction: 0.4,
            figures_per_doc: 1,
            seed: 7,
        },
    )
    .unwrap();
    let schema = corpus.schema;
    let mut documents = corpus.documents.clone();

    for round in 0..400 {
        match rng.gen_range(0..10) {
            // Create a document bottom-up.
            0 | 1 => {
                let s = db.make(schema.section, vec![], vec![]).unwrap();
                let d = db
                    .make(
                        schema.document,
                        vec![
                            ("Title", Value::Str(format!("soak-{round}"))),
                            ("Sections", Value::Set(vec![Value::Ref(s)])),
                        ],
                        vec![],
                    )
                    .unwrap();
                documents.push(d);
            }
            // Share a random section into a random document.
            2 | 3 => {
                let sections = db.instances_of(schema.section, false);
                if !sections.is_empty() && !documents.is_empty() {
                    let s = sections[rng.gen_range(0..sections.len())];
                    let d = documents[rng.gen_range(0..documents.len())];
                    if db.exists(s) && db.exists(d) {
                        let _ = db.make_component(s, d, "Sections");
                    }
                }
            }
            // Remove a section from a document (may cascade-delete it).
            4 => {
                if let Some(&d) = documents.iter().find(|&&d| db.exists(d)) {
                    let secs = db.get_attr(d, "Sections").unwrap().refs();
                    if let Some(&s) = secs.first() {
                        let _ = db.remove_component(s, d, "Sections");
                    }
                }
            }
            // Delete a document.
            5 => {
                if !documents.is_empty() {
                    let i = rng.gen_range(0..documents.len());
                    let d = documents.swap_remove(i);
                    if db.exists(d) {
                        db.delete(d).unwrap();
                    }
                }
            }
            // A transaction that flips a title and aborts half the time.
            6 => {
                if let Some(&d) = documents.iter().find(|&&d| db.exists(d)) {
                    db.begin_transaction().unwrap();
                    db.set_attr(d, "Title", Value::Str("in-flight".into()))
                        .unwrap();
                    if rng.gen_bool(0.5) {
                        db.abort_transaction().unwrap();
                    } else {
                        db.commit_transaction().unwrap();
                    }
                }
            }
            // Queries must never disturb state.
            7 => {
                let with_sections = Query::over(schema.document)
                    .filter(Predicate::HasComponentOfClass(schema.section))
                    .count(&mut db)
                    .unwrap();
                let all = db.instances_of(schema.document, false).len();
                assert!(with_sections <= all);
            }
            // Deferred schema flag churn (I3/I4 round trip).
            8 => {
                if db
                    .dependent_compositep(schema.document, Some("Sections"))
                    .unwrap()
                {
                    db.change_attribute_type(
                        schema.document,
                        "Sections",
                        AttrTypeChange::ToIndependent,
                        Maintenance::Deferred,
                    )
                    .unwrap();
                } else {
                    db.change_attribute_type(
                        schema.document,
                        "Sections",
                        AttrTypeChange::ToDependent,
                        Maintenance::Deferred,
                    )
                    .unwrap();
                }
            }
            // Traversals on a random live document.
            _ => {
                if let Some(&d) = documents.iter().find(|&&d| db.exists(d)) {
                    let comps = db.components_of(d, &corion::Filter::all()).unwrap();
                    for c in comps.iter().take(3) {
                        assert!(db.component_of(*c, d).unwrap());
                    }
                }
            }
        }
        // Audit at checkpoints (every op would be O(n²) overall).
        if round % 50 == 49 {
            db.verify_integrity().unwrap();
        }
    }

    // Final: audit, round-trip through a dump image, audit again, and the
    // restored database answers the same queries.
    let before = db.verify_integrity().unwrap();
    let docs_with_sections = Query::over(schema.document)
        .filter(query::Predicate::HasComponentOfClass(schema.section))
        .count(&mut db)
        .unwrap();
    let image = db.dump().unwrap();
    let mut back = Database::restore(&image, DbConfig::default()).unwrap();
    let after = back.verify_integrity().unwrap();
    assert_eq!(before, after);
    assert_eq!(
        Query::over(schema.document)
            .filter(query::Predicate::HasComponentOfClass(schema.section))
            .count(&mut back)
            .unwrap(),
        docs_with_sections
    );
}

/// Transient-fault soak: run the full mixed workload with randomized
/// transient faults continuously armed at rotating crash points. Every
/// fault window heals within the retry budget, so the workload must be
/// bit-for-bit oblivious — no operation fails, the final audit passes,
/// and the retry counters record the absorbed faults.
#[test]
fn transient_fault_soak_is_invisible_to_the_workload() {
    use corion::storage::CRASH_POINTS;

    let mut rng = StdRng::seed_from_u64(0x7261_696e); // deterministic
    let mut db = Database::new();
    let corpus = Corpus::generate(
        &mut db,
        CorpusParams {
            documents: 12,
            sections_per_doc: 3,
            paras_per_section: 2,
            share_fraction: 0.3,
            figures_per_doc: 1,
            seed: 11,
        },
    )
    .unwrap();
    let schema = corpus.schema;
    let mut documents = corpus.documents.clone();

    for round in 0..200 {
        // Randomized arming: a rotating point starts failing after a few
        // clean hits, for 1..=3 consecutive hits (within the 3-retry
        // budget), then heals itself.
        let point = CRASH_POINTS[rng.gen_range(0..CRASH_POINTS.len())];
        let countdown = rng.gen_range(1..6u64);
        let failures = rng.gen_range(1..=3u64);
        db.arm_transient_crash(point, countdown, failures);

        match rng.gen_range(0..6) {
            0 | 1 => {
                let s = db.make(schema.section, vec![], vec![]).unwrap();
                let d = db
                    .make(
                        schema.document,
                        vec![
                            ("Title", Value::Str(format!("soak-{round}"))),
                            ("Sections", Value::Set(vec![Value::Ref(s)])),
                        ],
                        vec![],
                    )
                    .unwrap();
                documents.push(d);
            }
            2 => {
                let sections = db.instances_of(schema.section, false);
                if !sections.is_empty() && !documents.is_empty() {
                    let s = sections[rng.gen_range(0..sections.len())];
                    let d = documents[rng.gen_range(0..documents.len())];
                    if db.exists(s) && db.exists(d) {
                        let _ = db.make_component(s, d, "Sections");
                    }
                }
            }
            3 => {
                if !documents.is_empty() {
                    let i = rng.gen_range(0..documents.len());
                    let d = documents.swap_remove(i);
                    if db.exists(d) {
                        db.delete(d).unwrap();
                    }
                }
            }
            4 => {
                if let Some(&d) = documents.iter().find(|&&d| db.exists(d)) {
                    db.set_attr(d, "Title", Value::Str(format!("renamed-{round}")))
                        .unwrap();
                }
            }
            _ => {
                if let Some(&d) = documents.iter().find(|&&d| db.exists(d)) {
                    let comps = db.components_of(d, &corion::Filter::all()).unwrap();
                    for c in comps.iter().take(3) {
                        assert!(db.component_of(*c, d).unwrap());
                    }
                }
            }
        }
        // Whatever the op did or skipped, the engine must still be fully
        // healthy — transient faults never degrade, they heal.
        assert_eq!(db.health(), corion::HealthState::Healthy);
        db.heal_crash_points();
        if round % 50 == 49 {
            db.verify_integrity().unwrap();
        }
    }

    db.verify_integrity().unwrap();
    let snap = db.metrics_snapshot();
    let attempts = snap.counter("corion_storage_retry_attempts_total");
    let successes = snap.counter("corion_storage_retry_success_total");
    assert!(
        attempts > 0 && successes > 0,
        "the soak must actually have absorbed faults (attempts {attempts}, successes {successes})"
    );
    assert_eq!(
        snap.counter("corion_storage_retry_exhausted_total"),
        0,
        "every armed window fit the retry budget, so none may exhaust"
    );
}

/// Crash-recovery soak: alternate parallel read phases with injected
/// crash/recover cycles and verify readers never observe stale or partial
/// state.
///
/// There is no traversal cache to go stale: every traversal is computed
/// from the state it runs against, so after recovery it can only see
/// post-recovery state — which is what the audit checks.
#[test]
fn readers_interleave_with_crash_recover_cycles() {
    use corion::storage::{CP_COMMIT_DONE, CRASH_POINTS};
    use corion::{DbError, Filter, Oid};

    let mut db = Database::new();
    let corpus = Corpus::generate(
        &mut db,
        CorpusParams {
            documents: 16,
            sections_per_doc: 3,
            paras_per_section: 2,
            share_fraction: 0.3,
            figures_per_doc: 1,
            seed: 42,
        },
    )
    .unwrap();
    let schema = corpus.schema;

    for cycle in 0..3 * CRASH_POINTS.len() {
        // --- Read phase: four threads traverse the shared engine. -------
        let documents = db.instances_of(schema.document, false);
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = &db;
                let documents = &documents;
                s.spawn(move || {
                    for (i, &d) in documents.iter().enumerate() {
                        if i % 4 != t {
                            continue;
                        }
                        let comps = db.components_of(d, &Filter::all()).unwrap();
                        for &c in &comps {
                            // No partial reads: every reachable component
                            // is a live, decodable object.
                            assert!(db.exists(c), "dangling component {c} of {d}");
                            let _ = db.get(c).unwrap();
                        }
                    }
                });
            }
        });

        // --- Crash phase: fail a cascading delete at a rotating point. --
        let victim = documents[cycle % documents.len()];
        let point = CRASH_POINTS[cycle % CRASH_POINTS.len()];
        db.arm_crash_point(point, 1);
        // Before the durability point the crash fails the delete; past it
        // the delete is durable and answers `Ok` on a degraded engine.
        match (db.delete(victim), point == CP_COMMIT_DONE) {
            (Err(DbError::Storage(_)), false) => {}
            (Ok(_), true) => assert_eq!(db.health(), corion::HealthState::Degraded),
            (other, _) => panic!("armed crash at {point} did not fire: {other:?}"),
        }
        db.heal_crash_points();
        db.recover().unwrap();

        // --- Freshness audit: traversals are stable and see live state. --
        let live_docs: Vec<Oid> = db.instances_of(schema.document, false);
        for &d in &live_docs {
            let first = db.components_of(d, &Filter::all()).unwrap();
            let again = db.components_of(d, &Filter::all()).unwrap();
            assert_eq!(first, again, "unstable traversal after recovery");
            for &c in &first {
                assert!(db.exists(c), "stale component {c} survived recovery");
            }
        }
        db.verify_integrity().unwrap();

        // The engine keeps accepting writes between cycles (and re-grows
        // the population the deletes shrink).
        let s = db.make(schema.section, vec![], vec![]).unwrap();
        db.make(
            schema.document,
            vec![
                ("Title", Value::Str(format!("regrown-{cycle}"))),
                ("Sections", Value::Set(vec![Value::Ref(s)])),
            ],
            vec![],
        )
        .unwrap();
    }
}
