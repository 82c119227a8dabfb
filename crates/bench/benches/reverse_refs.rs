//! B5 (DESIGN.md §4): the reverse-composite-reference trade-off of §2.4.
//!
//! Paper claim: keeping reverse pointers in each component "allows us to
//! avoid a level of indirection in accessing the parents of a given
//! component, and simplifies deletion and migration of objects; however, it
//! causes the object size to increase."
//!
//! Reported series:
//!   * `parents_via_reverse_refs/n` — `parents-of` answered from the
//!     component's reverse references (O(parents))
//!   * `parents_via_scan/n`         — the same question answered the way a
//!     system *without* reverse references must: scan every instance of
//!     every referencing class (O(database))
//!   * object-size overhead printed at setup (bytes with vs without
//!     reverse references)
//!
//! Plus the in-process cost of the one §3 walk (DESIGN.md §9): repeat
//! `components-of` / `ancestors-of` over a ~10k-object one-class
//! hierarchy, and the same batch fanned out over scoped threads. The
//! series keep the names they had when a traversal cache answered the
//! repeats, so the numbers stay comparable across that change.

use std::time::Duration;

use corion::workload::{Corpus, CorpusParams, DagParams, GeneratedDag};
use corion::{Database, Filter, Oid, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Finds parents of `target` without reverse references: scan all documents
/// and sections for values referencing it.
fn parents_by_scan(db: &Database, corpus: &Corpus, target: Oid) -> Vec<Oid> {
    let mut out = Vec::new();
    for class in [corpus.schema.document, corpus.schema.section] {
        for oid in db.instances_of(class, false) {
            let obj = db.get(oid).unwrap();
            if obj.attrs.iter().any(|v| v.references(target)) {
                out.push(oid);
            }
        }
    }
    out
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("reverse_refs");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    for &docs in &[10usize, 50, 200] {
        let mut db = Database::new();
        let corpus = Corpus::generate(
            &mut db,
            CorpusParams {
                documents: docs,
                share_fraction: 0.5,
                ..CorpusParams::default()
            },
        )
        .unwrap();
        let target = corpus.sections[corpus.sections.len() / 2];

        // Size overhead: encoded size with reverse refs vs stripped.
        let obj = db.get(target).unwrap();
        let with = obj.encoded_size();
        let mut stripped = obj.clone();
        stripped.reverse_refs.clear();
        eprintln!(
            "reverse_refs/B5: corpus {docs} docs — section object {} bytes with {} reverse refs, \
             {} bytes without (+{} bytes)",
            with,
            obj.reverse_refs.len(),
            stripped.encoded_size(),
            with - stripped.encoded_size()
        );

        group.bench_with_input(
            BenchmarkId::new("parents_via_reverse_refs", docs),
            &docs,
            |b, _| b.iter(|| db.parents_of(target, &Filter::all()).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("parents_via_scan", docs), &docs, |b, _| {
            b.iter(|| parents_by_scan(&db, &corpus, target))
        });
        // Sanity: both answers agree (scan finds annotation parents too, so
        // compare as sets on the composite parents only).
        let via_refs = db.parents_of(target, &Filter::all()).unwrap();
        let via_scan = parents_by_scan(&db, &corpus, target);
        for p in &via_refs {
            assert!(via_scan.contains(p), "scan misses parent {p}");
        }
    }
    group.finish();

    // Maintenance overhead: attach/detach cost as reverse-ref lists grow.
    let mut group = c.benchmark_group("reverse_ref_maintenance");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for &parents in &[1usize, 16, 128] {
        let mut db = Database::new();
        let schema = corion::workload::DocumentSchema::define(&mut db).unwrap();
        let sec = db.make(schema.section, vec![], vec![]).unwrap();
        let docs: Vec<Oid> = (0..parents)
            .map(|_| {
                let d = db.make(schema.document, vec![], vec![]).unwrap();
                db.make_component(sec, d, "Sections").unwrap();
                d
            })
            .collect();
        let extra = db.make(schema.document, vec![], vec![]).unwrap();
        group.bench_with_input(
            BenchmarkId::new("attach_detach", parents),
            &parents,
            |b, _| {
                b.iter(|| {
                    db.make_component(sec, extra, "Sections").unwrap();
                    db.remove_component(sec, extra, "Sections").unwrap();
                })
            },
        );
        let _ = docs;
        // Keep one value-read in the loop honest.
        assert_eq!(db.get_attr(extra, "Sections").unwrap(), Value::Set(vec![]));
    }
    group.finish();
}

/// The §3 walk on a ~10k-object hierarchy (one root, fanout 10, depth 4
/// → 11 110 parts below it): every repeat walks the records again.
fn bench_traversals(c: &mut Criterion) {
    let mut db = Database::new();
    let dag = GeneratedDag::generate(
        &mut db,
        DagParams {
            depth: 4,
            fanout: 10,
            roots: 1,
            share_fraction: 0.3,
            dependent_fraction: 0.5,
            seed: 42,
        },
    )
    .unwrap();
    let root = dag.roots[0];
    let all = dag.all();
    let leaf = *all.last().unwrap();
    let n = all.len();
    eprintln!("traversals: hierarchy of {n} objects, {} edges", dag.edges);

    let mut group = c.benchmark_group("traversals");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    group.bench_function(BenchmarkId::new("components_repeat", n), |b| {
        b.iter(|| db.components_of(root, &Filter::all()).unwrap())
    });
    group.bench_function(BenchmarkId::new("ancestors_repeat", n), |b| {
        b.iter(|| db.ancestors_of(leaf, &Filter::all()).unwrap())
    });
    // Parallel batch over every object.
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function(BenchmarkId::new("ancestors_of_many_parallel", n), |b| {
        b.iter(|| db.ancestors_of_many(&all, &Filter::all()))
    });
    group.finish();
}

criterion_group!(benches, bench, bench_traversals);
criterion_main!(benches);
