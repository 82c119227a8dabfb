//! Page records in the write-ahead log (DESIGN.md §13.3): an image is a
//! page's non-zero byte runs, a delta the records that moved plus its runs
//! against the page's last logged image with them moved, and both go
//! through one encoder, decoder and validator.
//!
//! - a torn or scribbled page is rebuilt byte for byte from an image that
//!   elided most of it, because replay starts from a zero page and never
//!   reads the disk's copy;
//! - pages shaped by random inserts, updates, grows, shrinks, deletes and
//!   compactions — zero-heavy and zero-free records alike — round-trip
//!   exactly through images, through deltas with moves (kind 9, kind 6
//!   when nothing moved) and through deltas of bytes alone; the decoder
//!   refuses runs that are out of bounds, overlapping or unsorted, on
//!   either kind, and move lists that reach past the page or are
//!   implausibly long;
//! - a directory of another format version is refused, typed, and left
//!   untouched: no decoder of an older page record is kept
//!   (`corion::storage::wal::FORMAT_VERSION`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corion::storage::wal::{
    self, apply_delta, apply_image, delta_len, format_header, page_delta, FORMAT_VERSION,
};
use corion::storage::{
    diff_pages, image_ranges, BlockDevice, DeviceMetrics, DiskStats, FaultyDevice, FileDisk,
    FileWal, Page, Ranges, StorageError, Wal, WalRecord, PAGE_SIZE,
};
use corion::{ClassBuilder, ClassId, Database, DbConfig, DbError, Domain, Value};
use proptest::prelude::*;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Bytes of a page record that are not its payload: length, LSN, kind,
/// page number and checksum.
const PAGE_RECORD_OVERHEAD: usize = 4 + 8 + 1 + 8 + 8;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "corion_pagerec_{}_{tag}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn part_class(db: &mut Database) -> ClassId {
    db.define_class(ClassBuilder::new("Part").attr("text", Domain::String))
        .unwrap()
}

#[test]
fn a_scribbled_page_is_rebuilt_from_its_non_zero_run_image() {
    let dir = fresh_dir("scribble");
    let dm = DeviceMetrics::detached();
    let disk = FaultyDevice::new(FileDisk::open(&dir, dm.clone()).unwrap(), dm.clone());
    let log = FaultyDevice::new(FileWal::open(&dir, dm.clone()).unwrap(), dm);
    let mut db = Database::with_devices(
        &dir,
        DbConfig::default(),
        Arc::new(disk.clone()),
        Arc::new(log.clone()),
    )
    .unwrap();
    let part = part_class(&mut db);
    let p = db
        .make(part, vec![("text", Value::Str("small".into()))], vec![])
        .unwrap();
    db.checkpoint().unwrap();
    // The first touch after the checkpoint logs an image of the page: a
    // few dozen non-zero bytes of a page that is almost all zeros.
    db.set_attr(p, "text", Value::Str("SMALL".into())).unwrap();
    let page = db.pages_of(db.segment_of(part).unwrap()).unwrap()[0];
    let want = db.get(p).unwrap();
    drop(db);

    let scan = Wal::with_device(Arc::new(log.clone())).scan().unwrap();
    let image_len = scan
        .committed
        .last()
        .unwrap()
        .iter()
        .find_map(|rec| match rec {
            WalRecord::PageImage { page: at, ranges } if *at == page => Some(ranges.encoded_len()),
            _ => None,
        })
        .expect("the last commit logged an image of the page");
    assert!(
        image_len < PAGE_SIZE / 8,
        "the image elides the zeros ({image_len} bytes)"
    );
    let image = wal::replay(&scan).pages[&page].clone();

    // Garbage over every byte of the page, the elided zeros included.
    disk.write(page, &Page::from_bytes(&[0xa5; PAGE_SIZE]))
        .unwrap();
    disk.sync().unwrap();
    drop((disk, log));

    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    assert_eq!(db.get(p).unwrap(), want);
    db.verify_integrity().unwrap();
    drop(db);
    let disk = FileDisk::open(&dir, DeviceMetrics::detached()).unwrap();
    assert!(
        disk.read(page).unwrap() == image,
        "recovery must rebuild the page byte for byte from its image"
    );
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}

/// What a page is put through: insert, update, grow, shrink or delete a
/// record; an inserted or rewritten one has `len` bytes filled by `fill`
/// (0: all zeros, 1: zero-heavy, 2: no zero), a grown one gains
/// `len % 32 + 1` of them (a parent gaining a component reference), a
/// shrunk one loses up to `len % 32 + 1` bytes.
#[derive(Debug, Clone)]
struct Edit {
    op: u8,
    slot: usize,
    len: usize,
    fill: u8,
    seed: u8,
}

fn record(e: &Edit) -> Vec<u8> {
    (0..e.len)
        .map(|i| {
            let x = (i as u8).wrapping_mul(31).wrapping_add(e.seed);
            match e.fill {
                0 => 0,
                1 if i % 4 != 0 => 0,
                _ => x | 1,
            }
        })
        .collect()
}

fn apply(page: &mut Page, live: &mut Vec<u16>, e: &Edit) {
    match e.op {
        0 => {
            if let Ok(slot) = page.insert(&record(e)) {
                live.push(slot);
            }
        }
        _ if live.is_empty() => {}
        1 => {
            let _ = page.update(live[e.slot % live.len()], &record(e));
        }
        3 | 4 => {
            let slot = live[e.slot % live.len()];
            let mut rec = page.read(slot).unwrap().to_vec();
            let by = e.len % 32 + 1;
            if e.op == 3 {
                rec.extend_from_slice(&record(e)[..by.min(e.len)]);
            } else {
                rec.truncate(rec.len().saturating_sub(by).max(1));
            }
            let _ = page.update(slot, &rec);
        }
        _ => {
            let slot = live.swap_remove(e.slot % live.len());
            page.delete(slot).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every state of a page under random edits round-trips through an
    /// image, through a delta from the previous state (with its moves, or
    /// of bytes alone), and through logs made of one kind each.
    #[test]
    fn page_records_round_trip_through_both_kinds(
        edits in prop::collection::vec(
            (0..5u8, 0..64usize, 1..700usize, 0..3u8, any::<u8>())
                .prop_map(|(op, slot, len, fill, seed)| Edit { op, slot, len, fill, seed }),
            1..120,
        ),
    ) {
        let mut page = Page::new();
        let mut live = Vec::new();
        let (mut images, mut deltas, mut bytes) = (Wal::new(), Wal::new(), Wal::new());
        for log in [&mut images, &mut deltas, &mut bytes] {
            log.append(&WalRecord::page_image(3, &page));
        }
        for e in &edits {
            let before = page.clone();
            apply(&mut page, &mut live, e);
            let image = image_ranges(&page);
            let (moves, delta) = page_delta(&before, &page);
            let plain = diff_pages(&before, &page);
            prop_assert!(apply_image(&image) == page);
            prop_assert!(apply_delta(&before, &moves, &delta) == page);
            prop_assert!(apply_delta(&before, &[], &plain) == page);
            images.append(&WalRecord::PageImage { page: 3, ranges: image });
            // Kind 9 when a record moved, kind 6 otherwise: exactly the
            // size `delta_len` promised either way.
            let at = deltas.stats().pending_bytes;
            let len = delta_len(&moves, &delta);
            deltas.append(&WalRecord::PageDelta { page: 3, moves, ranges: delta });
            prop_assert_eq!(deltas.stats().pending_bytes - at, PAGE_RECORD_OVERHEAD + len);
            bytes.append(&WalRecord::PageDelta { page: 3, moves: Vec::new(), ranges: plain });
        }
        for log in [&mut images, &mut deltas, &mut bytes] {
            log.append(&WalRecord::Commit);
            log.flush().unwrap();
            let scan = log.scan().unwrap();
            prop_assert!(!scan.torn_tail);
            prop_assert!(wal::replay(&scan).pages[&3] == page);
        }
    }
}

/// Appends `record` after a committed image of an empty page, commits,
/// and asserts the scan refuses it and replays only the image.
fn assert_refused(record: WalRecord, what: &str) {
    let mut log = Wal::new();
    let base = Page::new();
    log.append(&WalRecord::page_image(0, &base));
    log.append(&WalRecord::Commit);
    log.append(&record);
    log.append(&WalRecord::Commit);
    log.flush().unwrap();
    let scan = log.scan().unwrap();
    assert!(scan.torn_tail, "{what}: a malformed record was decoded");
    assert_eq!(scan.committed.len(), 1, "{what}");
    assert!(wal::replay(&scan).pages[&0] == base, "{what}");
}

#[test]
fn move_lists_out_of_bounds_or_implausibly_long_are_refused() {
    let bad: [&[(usize, usize, usize)]; 4] = [
        &[(PAGE_SIZE - 2, 0, 3)],
        &[(4, PAGE_SIZE - 2, 3)],
        &[(4, 8, 100), (PAGE_SIZE + 9, 8, 0)],
        &[(0, 0, usize::MAX)],
    ];
    for moves in bad {
        assert_refused(
            WalRecord::PageDelta {
                page: 0,
                moves: moves.to_vec(),
                ranges: Ranges::default(),
            },
            &format!("moves {moves:?}"),
        );
    }
    // More moves than a page has slots.
    assert_refused(
        WalRecord::PageDelta {
            page: 0,
            moves: vec![(4, 8, 1); PAGE_SIZE / 4 + 1],
            ranges: Ranges::default(),
        },
        "an implausible move count",
    );
    // The longest plausible list is accepted.
    let mut log = Wal::new();
    log.append(&WalRecord::page_image(0, &Page::new()));
    log.append(&WalRecord::PageDelta {
        page: 0,
        moves: vec![(4, 8, 1); PAGE_SIZE / 4],
        ranges: Ranges::default(),
    });
    log.append(&WalRecord::Commit);
    log.flush().unwrap();
    assert!(!log.scan().unwrap().torn_tail);
}

#[test]
fn runs_out_of_bounds_overlapping_or_unsorted_are_refused_on_either_kind() {
    let bad: [&[(usize, &[u8])]; 4] = [
        &[(PAGE_SIZE - 2, &[1, 2, 3])],
        &[(PAGE_SIZE + 9, &[1])],
        &[(100, &[1, 2]), (101, &[3])],
        &[(200, &[1]), (100, &[2])],
    ];
    for runs in bad {
        let mut ranges = Ranges::default();
        for &(offset, bytes) in runs {
            ranges.push(offset, bytes);
        }
        for kind in ["image", "delta", "move delta"] {
            let ranges = ranges.clone();
            let record = match kind {
                "image" => WalRecord::PageImage { page: 0, ranges },
                "delta" => WalRecord::PageDelta {
                    page: 0,
                    moves: Vec::new(),
                    ranges,
                },
                _ => WalRecord::PageDelta {
                    page: 0,
                    moves: vec![(4, 8, 1)],
                    ranges,
                },
            };
            assert_refused(record, kind);
        }
    }
}

/// Every file in `dir`, by name, with its contents.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// Asserts that both constructors refuse `dir` with `want`, and that
/// neither changes or creates a file: `Database::open` touches nothing,
/// and `Database::with_devices` reads its log once (a second read would
/// hit the short read armed behind the first) and writes nothing through
/// the devices it was handed.
fn assert_refused_untouched(dir: &Path, want: impl Fn(&StorageError) -> bool, what: &str) {
    let before = files(dir);
    match Database::open(dir, DbConfig::default()) {
        Err(DbError::Storage(e)) => assert!(want(&e), "{what}: open refused with {e:?}"),
        Err(e) => panic!("{what}: open refused with another error: {e}"),
        Ok(_) => panic!("{what}: open accepted the directory"),
    }
    assert!(
        files(dir) == before,
        "{what}: a refused open touched a file"
    );

    let dm = DeviceMetrics::detached();
    let disk = FaultyDevice::new(FileDisk::open(dir, dm.clone()).unwrap(), dm.clone());
    let log = FaultyDevice::new(FileWal::open(dir, dm.clone()).unwrap(), dm);
    log.arm_short_read(1);
    let opened = Database::with_devices(
        dir,
        DbConfig::default(),
        Arc::new(disk.clone()),
        Arc::new(log.clone()),
    );
    match opened {
        Err(DbError::Storage(e)) => assert!(want(&e), "{what}: with_devices refused with {e:?}"),
        Err(e) => panic!("{what}: with_devices refused with another error: {e}"),
        Ok(_) => panic!("{what}: with_devices accepted the directory"),
    }
    assert_eq!(log.injected().short_reads, 0, "{what}: one log read");
    assert_eq!(
        disk.stats(),
        DiskStats::default(),
        "{what}: page device used"
    );
    assert!(
        files(dir) == before,
        "{what}: a refused with_devices touched a file"
    );
}

/// The typed version error naming `found`.
fn version(found: u8) -> impl Fn(&StorageError) -> bool {
    move |e| {
        *e == StorageError::FormatVersion {
            found,
            expected: FORMAT_VERSION,
        }
    }
}

#[test]
fn a_directory_of_another_format_version_is_refused_typed_and_untouched() {
    let dir = fresh_dir("version");
    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    let part = part_class(&mut db);
    db.checkpoint().unwrap();
    // Committed, logged, never written to the page file: a refused open
    // that recovered or truncated anything would lose these.
    let parts: Vec<_> = (0..40)
        .map(|i| {
            let text = Value::Str(format!("part {i} ").repeat(i % 7 + 1));
            let oid = db.make(part, vec![("text", text.clone())], vec![]).unwrap();
            (oid, text)
        })
        .collect();
    drop(db);

    let log = dir.join(FileWal::LOG_FILE);
    let stamped = std::fs::read(&log).unwrap();
    assert_eq!(stamped[..8], format_header(wal::LOG_MAGIC));
    assert!(!dir.join("meta.corion").exists(), "no schema sidecar");

    // The log as the version before this one would have stamped it.
    let mut older = stamped.clone();
    older[7] = b'3';
    std::fs::write(&log, &older).unwrap();
    assert_refused_untouched(&dir, version(3), "a CORIONL3 log");

    // A log that does not start with the header carries no version.
    std::fs::write(&log, &stamped[8..]).unwrap();
    assert_refused_untouched(&dir, version(0), "a log with no header");

    // Page bytes beside an empty log carry none either.
    std::fs::write(&log, b"").unwrap();
    assert_refused_untouched(&dir, version(0), "pages beside an empty log");

    // A bit flip anywhere in the header is a typed refusal.
    for at in 0..8 {
        let mut flipped = stamped.clone();
        flipped[at] ^= 0x01;
        std::fs::write(&log, &flipped).unwrap();
        let typed = |e: &StorageError| matches!(e, StorageError::FormatVersion { .. });
        assert_refused_untouched(&dir, typed, &format!("header bit flip at {at}"));
    }

    // With its own log back, the directory opens as it was left.
    std::fs::write(&log, &stamped).unwrap();
    let mut db = Database::open(&dir, DbConfig::default()).unwrap();
    for (oid, text) in &parts {
        assert_eq!(&db.get_attr(*oid, "text").unwrap(), text);
    }
    db.verify_integrity().unwrap();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
