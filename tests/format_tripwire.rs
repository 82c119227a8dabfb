//! The data-directory format tripwire.
//!
//! A data directory has one format, named by
//! `corion::storage::wal::FORMAT_VERSION`, and a directory of any other version
//! is refused rather than decoded (DESIGN.md §16.2). That holds only if
//! every change to the bytes a directory or a dump holds also changes the
//! version. This test encodes one of everything — a log header and a WAL
//! record of every kind (an image, a delta without moves and one with
//! them, and a schema image among them), a fixed page, and the
//! checkpointed log and the dump of a fixed database — and
//! compares the FNV-1a of those bytes with `FORMAT_FINGERPRINT`, kept
//! beside the version.
//!
//! When it fails, the format changed: bump `FORMAT_VERSION`, delete the
//! decoder of the old bytes in the same change, and set
//! `FORMAT_FINGERPRINT` to the value the failure prints.

use std::path::PathBuf;

use corion::storage::wal::{page_delta, FORMAT_FINGERPRINT, FORMAT_VERSION};
use corion::storage::{fnv1a64, FileWal, Page, SegmentId, SlotId, Wal, WalRecord};
use corion::{ClassBuilder, CompositeSpec, Database, DbConfig, Domain, Value};

/// A log header and one record of every WAL kind, as the log writes
/// them; `slot` holds a record of `page`.
fn every_record(page: &Page, slot: SlotId) -> Vec<u8> {
    let mut grown = page.clone();
    let mut record = grown.read(slot).unwrap().to_vec();
    record.extend_from_slice(b" and then some");
    grown.update(slot, &record).unwrap();
    let (moves, ranges) = page_delta(page, &grown);
    assert!(!moves.is_empty(), "a grown record moves");
    let mut touched = page.clone();
    touched.update(slot, &[0x5a; 24]).unwrap();
    let (no_moves, small) = page_delta(page, &touched);
    assert!(no_moves.is_empty(), "a same-size rewrite moves nothing");

    let mut wal = Wal::new();
    for record in [
        WalRecord::SegCreate {
            segment: SegmentId(2),
        },
        WalRecord::SegAdopt {
            segment: SegmentId(2),
            page: 7,
        },
        WalRecord::page_image(7, page),
        WalRecord::PageDelta {
            page: 7,
            moves: Vec::new(),
            ranges: small,
        },
        WalRecord::PageDelta {
            page: 7,
            moves,
            ranges,
        },
        WalRecord::SerialFloor { serial: 42 },
        WalRecord::Schema {
            image: b"an opaque schema image".to_vec(),
        },
        WalRecord::Checkpoint {
            next_segment: 3,
            segments: vec![(SegmentId(2), vec![7, 9])],
        },
        WalRecord::Commit,
    ] {
        wal.append(&record);
    }
    wal.flush().unwrap();
    wal.device().read_all().unwrap()
}

/// A page with a few records, one of them deleted, and the slot of the
/// first.
fn fixed_page() -> (Page, SlotId) {
    let mut page = Page::new();
    let slots: Vec<SlotId> = (0..5u8).map(|i| page.insert(&[i; 24]).unwrap()).collect();
    page.delete(slots[1]).unwrap();
    (page, slots[0])
}

/// The log, checkpointed, and the dump of a fixed database: the log holds
/// its header and the database's schema record.
fn fixed_database() -> (Vec<u8>, Vec<u8>) {
    let dir: PathBuf = std::env::temp_dir().join(format!("corion_tripwire_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    let part = db
        .define_class(ClassBuilder::new("Part").attr("name", Domain::String))
        .unwrap();
    let asm = db
        .define_class(ClassBuilder::new("Asm").attr_composite(
            "parts",
            Domain::SetOf(Box::new(Domain::Class(part))),
            CompositeSpec {
                exclusive: true,
                dependent: true,
            },
        ))
        .unwrap();
    let root = db.make(asm, vec![], vec![]).unwrap();
    for name in ["bolt", "nut"] {
        db.make(
            part,
            vec![("name", Value::Str(name.into()))],
            vec![(root, "parts")],
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
    let dump = db.dump().unwrap();
    drop(db);
    let log = std::fs::read(dir.join(FileWal::LOG_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (log, dump)
}

#[test]
fn the_format_is_the_one_its_version_names() {
    let (page, slot) = fixed_page();
    let (log, dump) = fixed_database();
    let mut bytes = every_record(&page, slot);
    bytes.extend_from_slice(page.as_bytes());
    bytes.extend_from_slice(&log);
    bytes.extend_from_slice(&dump);
    let got = fnv1a64(&bytes);
    assert_eq!(
        got, FORMAT_FINGERPRINT,
        "the data-directory format changed (fingerprint {got:#018x}): bump FORMAT_VERSION \
         (now {FORMAT_VERSION}) and delete the decoder of the old format in the same change, \
         then set FORMAT_FINGERPRINT to the fingerprint above"
    );
}
