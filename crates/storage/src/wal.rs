//! Write-ahead log: checksummed, sequence-numbered redo records.
//!
//! Atomicity in CORION is page-granular physical redo. Every atomic batch
//! appends the *after-image* of each page it dirtied, then a commit marker;
//! only once those records are durable are the pages themselves written to
//! disk (`store.rs` enforces the matching *no-steal* buffer policy, so the
//! disk never holds uncommitted data and recovery never needs undo).
//!
//! ## Record format
//!
//! ```text
//! +-----------+---------+--------+---------+-------------+
//! | len: u32  | lsn:u64 | kind:u8| payload | checksum:u64|
//! +-----------+---------+--------+---------+-------------+
//!              \_________ checksummed ____/
//! ```
//!
//! `len` counts every byte after the length field (so a reader can skip a
//! record it cannot parse), `lsn` is a strictly increasing log sequence
//! number, and `checksum` is FNV-1a 64 over `lsn‖kind‖payload`. Record
//! kinds:
//!
//! | kind | record |
//! |------|--------|
//! | 2 | commit marker |
//! | 3, 4 | segment create / page adopt (metadata redo) |
//! | 5 | checkpoint: a segment-directory snapshot that lets the log be truncated |
//! | 6 | page delta without moves |
//! | 7 | serial floor |
//! | 8 | page image |
//! | 9 | page delta with moves |
//! | 10 | schema image (opaque to storage) |
//!
//! The log starts with an 8-byte header, [`format_header`]`(`[`LOG_MAGIC`]`)`,
//! and the records follow it. An empty log is a fresh one: recovery
//! stamps the header with an append and a sync before anything is logged.
//!
//! ## Page records: one range codec
//!
//! Every page record carries the byte runs that turn a base page into the
//! after-image ([`Ranges`]):
//!
//! ```text
//! image, kind 6:  page:u64 | runs
//! kind 9:         page:u64 | moves:varint | moves × ( src | dst | len ) | runs
//! runs:           count:varint | count × ( offset:varint | len:varint | bytes )
//! ```
//!
//! They differ in the base. An *image* is its runs over the all-zero
//! page, so it costs what the page holds — a page a tenth full logs about
//! a tenth of 4 KiB — and replays without reference to anything else,
//! which is what protects the page against a torn write-back. A *delta* is
//! its runs over the page's last logged image (cuts log volume on
//! update-heavy mixes). The store logs whichever encodes smaller.
//!
//! A delta also carries the page's *record moves*
//! ([`Page::moved_records`]): a grown record is rewritten at the heap end
//! and a compaction shifts its neighbours, so their bytes are new at their
//! offsets but not new to the page. Each move `(src, dst, len)` (varints)
//! copies `len` bytes of the **unmodified** base from `src` to `dst`, and
//! the runs are the difference from that moved base, so a grown record
//! logs what grew. A delta with no move is kind 6 and carries no move
//! count, a byte saved on every such delta; one with moves is kind 9.
//! The two are tags of one codec, picked from the input. Redo stays
//! physical: replay copies bytes and never runs page logic. The decoder
//! refuses a move list with no move, more moves than a page has slots, or
//! a move reaching past the page.
//!
//! ## Format version
//!
//! These records, the page layout, and the log and dump that carry the
//! version in their headers ([`format_header`]) are one format,
//! [`FORMAT_VERSION`]; another version is refused, never decoded.
//!
//! ## Crash model
//!
//! The log has two regions: `pending` bytes (appended but not yet flushed
//! — lost in a crash, held in memory) and `durable` bytes (synced on the
//! [`LogDevice`]; they survive any crash, and only the device holds
//! them). A device that fails mid-flush may leave a *prefix* of the
//! pending bytes on its media — a torn append, which `FaultyDevice`
//! injects. [`Wal::scan`] reads the device once and walks what it holds,
//! stopping at the first record that is truncated, checksum-corrupt, or
//! out of LSN sequence; records after the last commit marker belong to an
//! uncommitted batch. Both tails are reported so recovery can truncate
//! them instead of replaying garbage.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::codec::{put_u32, put_u64, put_u8, put_varint, Reader};
use crate::device::{LogDevice, MemLog};
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PAGE_SIZE};
use crate::segment::SegmentId;

/// Log sequence number of a record.
pub type Lsn = u64;

/// The data-directory format version (module docs). A change to any byte
/// it covers bumps it and deletes the old decoder in the same change.
pub const FORMAT_VERSION: u8 = 4;

/// FNV-1a of one record of every kind, a page, and a fixed database's
/// log and dump in [`FORMAT_VERSION`] (`tests/format_tripwire.rs`).
pub const FORMAT_FINGERPRINT: u64 = 0x903a_cb6d_c9bd_056e;

/// An 8-byte file header: the 7-byte `magic`, then [`FORMAT_VERSION`] as
/// one byte offset by ASCII `'0'` (so the log's header reads `CORIONL4`).
pub fn format_header(magic: &[u8; 7]) -> [u8; 8] {
    let mut header = [b'0' + FORMAT_VERSION; 8];
    header[..7].copy_from_slice(magic);
    header
}

/// Checks the [`format_header`] at the front of `bytes`:
/// [`StorageError::FormatVersion`] when the version differs, or with
/// `found: 0` when `bytes` do not start with the header at all.
pub fn check_format_header(bytes: &[u8], magic: &[u8; 7]) -> StorageResult<()> {
    let found = match bytes.get(..8) {
        Some(header) if header[..7] == magic[..] => header[7].wrapping_sub(b'0'),
        _ => 0,
    };
    match found {
        FORMAT_VERSION => Ok(()),
        found => Err(StorageError::FormatVersion {
            found,
            expected: FORMAT_VERSION,
        }),
    }
}

const KIND_COMMIT: u8 = 2;
const KIND_SEG_CREATE: u8 = 3;
const KIND_SEG_ADOPT: u8 = 4;
const KIND_CHECKPOINT: u8 = 5;
const KIND_PAGE_DELTA: u8 = 6;
const KIND_SERIAL_FLOOR: u8 = 7;
const KIND_PAGE_IMAGE: u8 = 8;
const KIND_PAGE_MOVES: u8 = 9;
const KIND_SCHEMA: u8 = 10;

/// Magic of the log's [`format_header`].
pub const LOG_MAGIC: &[u8; 7] = b"CORIONL";

/// Bytes of the log header; the first record starts here.
pub const LOG_HEADER_LEN: usize = 8;

/// Most moves a delta may carry: one per slot, and a page has fewer than
/// `PAGE_SIZE / 4` slots (each directory entry is four bytes).
const MAX_MOVES: usize = PAGE_SIZE / 4;

/// A record move in a page delta: `(src, dst, len)` — copy `len` bytes of
/// the base from offset `src` to offset `dst` ([`Page::moved_records`]).
pub type Move = (usize, usize, usize);

/// Bytes of a record that are not payload: length field, lsn, kind,
/// trailing checksum.
const RECORD_OVERHEAD: usize = 4 + 8 + 1 + 8;

/// Upper bound on a sane record length — anything larger is corruption
/// masquerading as a length field. The largest legitimate payload is a
/// checkpoint snapshot, which grows with the database; a page record is at
/// most a few bytes over [`PAGE_SIZE`]. It is deliberately generous.
const MAX_SANE_RECORD: usize = 64 * 1024 * 1024;

/// Byte runs that turn a base page into another page — the payload of
/// every page record (see the module docs). Held as it is logged:
/// building one writes the log's bytes once, and appending it to the log
/// is one copy however many runs a page has.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ranges {
    /// Number of runs.
    runs: usize,
    /// Per run: offset varint, length varint, the bytes. Ascending and
    /// non-overlapping within [`PAGE_SIZE`] in every list the diff builds
    /// or the decoder accepts.
    body: Vec<u8>,
}

impl Ranges {
    /// Appends a run. The diff and the decoder only append runs in order
    /// and within the page; replay clips anything else.
    pub fn push(&mut self, offset: usize, bytes: &[u8]) {
        for v in [offset, bytes.len()] {
            if v < 0x80 {
                self.body.push(v as u8);
            } else {
                put_varint(&mut self.body, v as u64);
            }
        }
        self.body.extend_from_slice(bytes);
        self.runs += 1;
    }

    /// True when the runs change nothing.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }

    /// The runs as `(offset, bytes)`, in order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let mut r = Reader::new(&self.body);
        (0..self.runs).map(move |_| {
            let offset = r.varint("run offset").expect("runs are well-formed");
            (
                offset as usize,
                r.bytes("run").expect("runs are well-formed"),
            )
        })
    }

    /// Exact encoded size in a page record's payload (the page number
    /// excluded) — what `store.rs` compares to choose the record kind
    /// (with [`delta_len`] for a delta).
    pub fn encoded_len(&self) -> usize {
        varint_len(self.runs as u64) + self.body.len()
    }
}

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A page's after-image as its non-zero byte runs ([`image_ranges`]).
    /// Replay writes them onto a zero page, so it needs no base and never
    /// reads the disk's copy of the page.
    PageImage {
        /// Global page number.
        page: u64,
        /// The page's non-zero byte runs at commit time.
        ranges: Ranges,
    },
    /// Record moves and byte runs of a page against its *last logged*
    /// image (the most recent `PageImage`/`PageDelta` for the same page in
    /// this log, which a well-formed log always contains — `store.rs` logs
    /// an image whenever it has no base). Replay copies the moves out of
    /// the reconstructed base, then applies the ranges; a delta whose base
    /// is missing is skipped, which can only happen in a hand-built log.
    PageDelta {
        /// Global page number.
        page: u64,
        /// Records that moved within the page, copied from the base.
        moves: Vec<Move>,
        /// The runs that differ from the base with the moves applied.
        ranges: Ranges,
    },
    /// Marks every record since the previous commit as one durable batch.
    Commit,
    /// A segment came into existence.
    SegCreate {
        /// The new segment's id.
        segment: SegmentId,
    },
    /// A freshly allocated page joined a segment.
    SegAdopt {
        /// Owning segment.
        segment: SegmentId,
        /// Global page number adopted.
        page: u64,
    },
    /// Monotonic high-water mark for the engine's object-serial counter,
    /// logged by the allocation path inside the batch that consumes the
    /// serial. Recovery surfaces the maximum committed value so a reopened
    /// engine never re-issues a serial — even one whose object was later
    /// deleted and is therefore invisible to a live-object scan. (Reuse
    /// would let a dangling weak reference silently resolve to an
    /// unrelated new object.)
    SerialFloor {
        /// The counter value after the allocation: the next safe serial.
        serial: u64,
    },
    /// The engine's schema after the batch that carries it: opaque bytes
    /// here, the catalog and operation logs above. Replay keeps the last
    /// committed one, and a checkpoint re-asserts it.
    Schema {
        /// The encoded schema.
        image: Vec<u8>,
    },
    /// Snapshot of the segment directory, written when the log is
    /// truncated. Replay starts from the most recent one.
    Checkpoint {
        /// `ObjectStore::next_segment` at checkpoint time.
        next_segment: u32,
        /// Every segment with its pages in adoption order.
        segments: Vec<(SegmentId, Vec<u64>)>,
    },
}

impl WalRecord {
    /// The image record of page number `page` holding `image`.
    pub fn page_image(page: u64, image: &Page) -> Self {
        WalRecord::PageImage {
            page,
            ranges: image_ranges(image),
        }
    }
}

/// FNV-1a 64-bit — the record checksum. Hand-rolled (like every on-disk
/// codec here, DESIGN.md §6); not cryptographic, but it reliably catches
/// the torn writes and bit flips the crash model produces.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The base of every image: an all-zero page.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// The runs that turn `base` into `new`, byte for byte.
pub fn diff_pages(base: &Page, new: &Page) -> Ranges {
    runs(base.as_bytes(), new.as_bytes())
}

/// The moves and runs that turn `base` into `new`
/// ([`WalRecord::PageDelta`]'s payload): the records `new` moved, then the
/// runs against `base` with those moves applied — one 4 KiB copy, and only
/// when a record moved.
pub fn page_delta(base: &Page, new: &Page) -> (Vec<Move>, Ranges) {
    let moves = new.moved_records(base);
    if moves.is_empty() {
        return (moves, diff_pages(base, new));
    }
    let mut moved = base.clone();
    copy_moves(moved.bytes_mut(), base.as_bytes(), &moves);
    let ranges = diff_pages(&moved, new);
    (moves, ranges)
}

/// Exact encoded size of a delta's payload (the page number excluded),
/// comparable with an image's [`Ranges::encoded_len`].
pub fn delta_len(moves: &[Move], ranges: &Ranges) -> usize {
    let count = if moves.is_empty() {
        0
    } else {
        varint_len(moves.len() as u64)
    };
    let moved: usize = moves
        .iter()
        .flat_map(|&(src, dst, len)| [src, dst, len])
        .map(|v| varint_len(v as u64))
        .sum();
    count + moved + ranges.encoded_len()
}

/// The non-zero runs of `page` ([`WalRecord::PageImage`]'s payload).
pub fn image_ranges(page: &Page) -> Ranges {
    runs(&ZERO_PAGE, page.as_bytes())
}

/// Differing byte runs between `a` and `b`, carrying `b`'s bytes. Runs
/// separated by fewer than three equal bytes are merged: a separate run
/// costs at least two bytes of framing (offset and length varints), so an
/// equal gap shorter than that is cheaper inline.
fn runs(a: &[u8; PAGE_SIZE], b: &[u8; PAGE_SIZE]) -> Ranges {
    const WORDS: usize = PAGE_SIZE / 64;
    let d = differing_bytes(a, b);
    // Bit i of `up(n)` is bit i - n of the map, of `down(n)` bit i + n.
    let up = |k: usize, n: u32| d[k] << n | if k > 0 { d[k - 1] >> (64 - n) } else { 0 };
    let down = |k: usize, n: u32| {
        d[k] >> n
            | if k + 1 < WORDS {
                d[k + 1] << (64 - n)
            } else {
                0
            }
    };
    // Fill the equal gaps of one or two bytes between differing ones.
    let mut filled = [0u64; WORDS];
    for (k, word) in filled.iter_mut().enumerate() {
        *word = d[k] | up(k, 1) & (down(k, 1) | down(k, 2)) | up(k, 2) & down(k, 1);
    }
    // Sized up front: a byte per set bit, at most four of framing per run.
    let (mut bytes, mut starts, mut carry) = (0, 0, 0);
    for word in filled {
        bytes += word.count_ones() as usize;
        starts += (word & !(word << 1 | carry)).count_ones() as usize;
        carry = word >> 63;
    }
    let mut ranges = Ranges {
        runs: 0,
        body: Vec::with_capacity(bytes + 4 * starts),
    };
    let mut open: Option<usize> = None;
    for (k, word) in filled.into_iter().enumerate() {
        let mut at = 0u32;
        while at < 64 {
            let rest = word >> at;
            match open {
                None if rest == 0 => break,
                None => {
                    at += rest.trailing_zeros();
                    open = Some(64 * k + at as usize);
                }
                Some(start) => {
                    at += rest.trailing_ones();
                    if at < 64 {
                        let end = 64 * k + at as usize;
                        ranges.push(start, &b[start..end]);
                        open = None;
                    }
                }
            }
        }
    }
    if let Some(start) = open {
        ranges.push(start, &b[start..]);
    }
    ranges
}

/// Non-zero bytes of `page`: a lower bound on its image's encoded size,
/// since the image carries every one of them.
pub fn non_zero_bytes(page: &Page) -> usize {
    differing_bytes(&ZERO_PAGE, page.as_bytes())
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum()
}

/// A bit per byte of the page, set where `a` and `b` differ; computed
/// eight bytes at a time.
fn differing_bytes(a: &[u8; PAGE_SIZE], b: &[u8; PAGE_SIZE]) -> [u64; PAGE_SIZE / 64] {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let mut bits = [0u64; PAGE_SIZE / 64];
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
    for (bit, (ca, cb)) in bits
        .iter_mut()
        .zip(a.chunks_exact(64).zip(b.chunks_exact(64)))
    {
        if ca == cb {
            continue;
        }
        for (j, (x, y)) in ca.chunks_exact(8).zip(cb.chunks_exact(8)).enumerate() {
            let x = word(x) ^ word(y);
            // The top bit of each byte is set iff that byte of `x` is
            // non-zero; the multiply gathers those eight bits into the top
            // byte, byte i of the word at bit i.
            let top = (((x & LOW7) + LOW7) | x) & !LOW7;
            *bit |= ((top >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j);
        }
    }
    bits
}

/// Applies a delta's `moves` and `ranges` to `base`, producing the
/// after-image. Both are validated at decode time, so this never reads
/// out of bounds on a scanned record.
pub fn apply_delta(base: &Page, moves: &[Move], ranges: &Ranges) -> Page {
    let mut page = base.clone();
    patch_delta(&mut page, moves, ranges);
    page
}

/// The page an image record's ranges describe.
pub fn apply_image(ranges: &Ranges) -> Page {
    let mut page = Page::from_bytes(&ZERO_PAGE);
    write_runs(page.bytes_mut(), ranges);
    page
}

/// Turns `page`, a delta's base, into the after-image in place: every
/// move copied from the unmodified base, then the runs.
fn patch_delta(page: &mut Page, moves: &[Move], ranges: &Ranges) {
    let raw = page.bytes_mut();
    if !moves.is_empty() {
        let base = *raw;
        copy_moves(raw, &base, moves);
    }
    write_runs(raw, ranges);
}

/// Copies each move from `base` into `raw`, clipped to the page (only a
/// hand-built record needs the clipping).
fn copy_moves(raw: &mut [u8; PAGE_SIZE], base: &[u8; PAGE_SIZE], moves: &[Move]) {
    for &(src, dst, len) in moves {
        let len = len.min(PAGE_SIZE.saturating_sub(src.max(dst)));
        if len > 0 {
            raw[dst..dst + len].copy_from_slice(&base[src..src + len]);
        }
    }
}

fn write_runs(raw: &mut [u8; PAGE_SIZE], ranges: &Ranges) {
    for (offset, bytes) in ranges.iter() {
        let start = offset.min(PAGE_SIZE);
        let end = (start + bytes.len()).min(PAGE_SIZE);
        raw[start..end].copy_from_slice(&bytes[..end - start]);
    }
}

fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Writes a page record; only kind 9 has `moves`, and never an empty list.
fn put_page(buf: &mut Vec<u8>, kind: u8, page: u64, moves: &[Move], ranges: &Ranges) {
    put_u8(buf, kind);
    put_u64(buf, page);
    if !moves.is_empty() {
        put_varint(buf, moves.len() as u64);
        for &(src, dst, len) in moves {
            for v in [src, dst, len] {
                put_varint(buf, v as u64);
            }
        }
    }
    put_varint(buf, ranges.runs as u64);
    buf.extend_from_slice(&ranges.body);
}

fn get_moves(r: &mut Reader<'_>) -> Result<Vec<Move>, &'static str> {
    let n = r.varint("wal moves").map_err(|_| "short body")? as usize;
    if !(1..=MAX_MOVES).contains(&n) {
        return Err("implausible move count");
    }
    let mut moves = Vec::with_capacity(n);
    for _ in 0..n {
        let mut field = || match r.varint("wal moves") {
            Ok(v) => Ok(v as usize),
            Err(_) => Err("short body"),
        };
        let (src, dst, len) = (field()?, field()?, field()?);
        if src.max(dst).saturating_add(len) > PAGE_SIZE {
            return Err("move out of bounds");
        }
        moves.push((src, dst, len));
    }
    Ok(moves)
}

fn get_ranges(r: &mut Reader<'_>) -> Result<Ranges, &'static str> {
    let n = r.varint("wal ranges").map_err(|_| "short body")? as usize;
    if n > PAGE_SIZE {
        return Err("implausible range count");
    }
    // Validate every run, then keep the run list as it was logged.
    let body = r.rest();
    let mut floor = 0usize;
    for _ in 0..n {
        let offset = r.varint("wal ranges").map_err(|_| "short body")? as usize;
        let bytes = r.bytes("wal ranges").map_err(|_| "short body")?;
        if offset < floor || offset.saturating_add(bytes.len()) > PAGE_SIZE {
            return Err("range out of order or out of bounds");
        }
        floor = offset + bytes.len();
    }
    Ok(Ranges {
        runs: n,
        body: body[..body.len() - r.remaining()].to_vec(),
    })
}

/// A position in the pending region plus the LSN counter at that point.
/// [`Wal::rollback_to`] restores both, so an aborted batch leaves no LSN
/// gap behind — a gap would make a later scan reject every record after it
/// as out-of-sequence, silently losing committed batches.
#[derive(Debug, Clone, Copy)]
pub struct WalMark {
    pending_len: usize,
    next_lsn: Lsn,
}

/// Counters describing the log, surfaced through
/// `ObjectStore::wal_stats` next to the buffer/disk counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes that would survive a crash right now.
    pub durable_bytes: usize,
    /// Bytes appended but not yet flushed.
    pub pending_bytes: usize,
    /// Records appended over the log's lifetime.
    pub records_appended: u64,
    /// Successful flushes (durability points reached).
    pub flushes: u64,
    /// Checkpoints installed (log truncations).
    pub checkpoints: u64,
    /// The next LSN to be assigned.
    pub next_lsn: Lsn,
}

/// Result of scanning the durable log at recovery time.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// Fully committed batches, oldest first; each ends at a commit marker
    /// (the marker itself is not included).
    pub committed: Vec<Vec<WalRecord>>,
    /// Length of the durable prefix covered by the header and committed
    /// batches, 0 for an empty log; recovery truncates the log here.
    pub valid_len: usize,
    /// Whole records discarded past `valid_len` (an uncommitted tail).
    pub discarded_records: usize,
    /// True when the scan stopped at a torn or corrupt record rather than
    /// the clean end of the log.
    pub torn_tail: bool,
    /// The LSN after the last record *retained* by recovery, i.e. the end
    /// of the committed prefix at `valid_len`. Recovery truncates the log
    /// to `valid_len` and must continue numbering contiguously from the
    /// last retained record — counting discarded-tail records here would
    /// leave an LSN gap that a later scan rejects as out-of-sequence,
    /// losing every batch committed after the gap.
    pub next_lsn: Lsn,
}

/// The write-ahead log.
///
/// Every byte goes through a [`LogDevice`]: [`MemLog`] for the in-memory
/// engine ([`Wal::new`]), `FileWal` for a data directory, either one
/// possibly behind a `FaultyDevice`. `pending` holds the records appended
/// since the last flush (a crash loses them). The durable log is on the
/// device alone — every flush appends-and-syncs there, every checkpoint
/// replaces it atomically (write-new + rename + dir-fsync in the file
/// implementation) — and the WAL keeps only its length.
pub struct Wal {
    durable_len: usize,
    pending: Vec<u8>,
    device: Arc<dyn LogDevice>,
    next_lsn: Lsn,
    records_appended: u64,
    flushes: u64,
    checkpoints: u64,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// Creates a stamped log over a fresh [`MemLog`]; LSNs start at 1.
    pub fn new() -> Self {
        let mut wal = Self::with_device(Arc::new(MemLog::new()));
        wal.stamp().expect("a MemLog accepts its header");
        wal
    }

    /// A log backed by `device`; reads nothing. The LSN counter starts at
    /// 1; the caller is expected to [`Wal::scan`] and [`Wal::set_next_lsn`]
    /// (recovery does both) before appending.
    pub fn with_device(device: Arc<dyn LogDevice>) -> Self {
        Wal {
            durable_len: device.len() as usize,
            pending: Vec::new(),
            device,
            next_lsn: 1,
            records_appended: 0,
            flushes: 0,
            checkpoints: 0,
        }
    }

    /// The device the durable log lives on.
    pub fn device(&self) -> &dyn LogDevice {
        &*self.device
    }

    /// Forwards a simulated crash to the device (dropping bytes an
    /// acknowledged-but-lying fsync buffered).
    pub fn crash_device(&mut self) {
        self.device.crash();
    }

    /// Appends `record` to the pending region, assigning the next LSN.
    pub fn append(&mut self, record: &WalRecord) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records_appended += 1;
        encode_record(&mut self.pending, lsn, record);
        lsn
    }

    /// The durability point: all pending bytes survive any later crash.
    ///
    /// The pending bytes are appended and synced on the device *before*
    /// the durable length advances; a device failure propagates — the
    /// caller cannot know how much reached the media, so it must poison
    /// the store and let recovery scan the device.
    pub fn flush(&mut self) -> StorageResult<()> {
        self.device.append(&self.pending)?;
        self.device.sync()?;
        self.durable_len += self.pending.len();
        self.pending.clear();
        self.flushes += 1;
        Ok(())
    }

    /// Drops the pending region (a crash, or an aborted batch).
    pub fn drop_pending(&mut self) {
        self.pending.clear();
    }

    /// Captures the current end of the pending region and the LSN counter.
    /// Invalidated by any flush; only [`Wal::rollback_to`] consumes it.
    pub fn mark(&self) -> WalMark {
        WalMark {
            pending_len: self.pending.len(),
            next_lsn: self.next_lsn,
        }
    }

    /// Rewinds the pending region and the LSN counter to `mark`, erasing
    /// every record appended since. Used by batch abort: unlike
    /// [`Wal::drop_pending`] it keeps any unflushed records appended
    /// before the mark and reuses the erased LSNs, so the durable sequence
    /// stays contiguous without a recovery in between.
    pub fn rollback_to(&mut self, mark: WalMark) {
        debug_assert!(
            mark.pending_len <= self.pending.len() && mark.next_lsn <= self.next_lsn,
            "mark does not precede the current log position"
        );
        self.pending.truncate(mark.pending_len);
        self.next_lsn = mark.next_lsn;
    }

    /// Atomically replaces the whole log with a checkpoint batch. Real
    /// systems achieve this by writing a fresh log file and renaming it
    /// over the old one — exactly what the file-backed [`LogDevice`] does
    /// ([`LogDevice::replace`] is tmp + write + fsync + rename + dir-fsync)
    /// — which is why no crash point exists *inside* the swap: a crash in
    /// the gap leaves either the old log or the new one, never a mix. A
    /// device failure propagates; recovery scans whichever log the rename
    /// left behind.
    pub fn install_checkpoint(
        &mut self,
        next_segment: u32,
        segments: Vec<(SegmentId, Vec<u64>)>,
        serial_floor: u64,
        schema: Option<&[u8]>,
    ) -> StorageResult<()> {
        let mut lsn = self.next_lsn;
        let mut records = 0u64;
        let mut fresh = format_header(LOG_MAGIC).to_vec();
        let mut put = |fresh: &mut Vec<u8>, rec: &WalRecord| {
            encode_record(fresh, lsn, rec);
            lsn += 1;
            records += 1;
        };
        put(
            &mut fresh,
            &WalRecord::Checkpoint {
                next_segment,
                segments,
            },
        );
        if serial_floor > 0 {
            // The truncation would otherwise erase every committed
            // `SerialFloor`; re-assert the high-water mark in the fresh log.
            put(
                &mut fresh,
                &WalRecord::SerialFloor {
                    serial: serial_floor,
                },
            );
        }
        if let Some(image) = schema.map(<[u8]>::to_vec) {
            put(&mut fresh, &WalRecord::Schema { image }); // likewise
        }
        put(&mut fresh, &WalRecord::Commit);
        self.device.replace(&fresh)?;
        self.pending.clear();
        self.durable_len = fresh.len();
        self.next_lsn = lsn;
        self.records_appended += records;
        self.checkpoints += 1;
        Ok(())
    }

    /// Writes the header of an empty log and syncs it, so a log that
    /// holds any record also holds its format version.
    pub fn stamp(&mut self) -> StorageResult<()> {
        self.device.append(&format_header(LOG_MAGIC))?;
        self.device.sync()?;
        self.durable_len = LOG_HEADER_LEN;
        Ok(())
    }

    /// Truncates the durable log to `len` bytes, the
    /// [`WalScan::valid_len`] of a scan (discarding the torn or
    /// uncommitted tail it found).
    pub fn truncate_durable(&mut self, len: usize) -> StorageResult<()> {
        self.device.truncate(len as u64)?;
        self.durable_len = len;
        Ok(())
    }

    /// Forces the LSN counter (recovery sets it from [`WalScan::next_lsn`]).
    pub fn set_next_lsn(&mut self, lsn: Lsn) {
        self.next_lsn = lsn;
    }

    /// Current counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            durable_bytes: self.durable_len,
            pending_bytes: self.pending.len(),
            records_appended: self.records_appended,
            flushes: self.flushes,
            checkpoints: self.checkpoints,
            next_lsn: self.next_lsn,
        }
    }

    /// Reads the durable log from the device, once, and walks it,
    /// collecting committed batches and locating the torn/uncommitted
    /// tail. An empty log scans clean with `valid_len` 0. Otherwise the
    /// header comes first: another version is
    /// [`StorageError::FormatVersion`], and a log that does not start with
    /// the header carries no version (`found: 0`). Past the header,
    /// corruption terminates the scan instead of propagating.
    pub fn scan(&self) -> StorageResult<WalScan> {
        let buf = self.device.read_all()?;
        let start = match buf.is_empty() {
            true => 0,
            false => check_format_header(&buf, LOG_MAGIC).map(|()| LOG_HEADER_LEN)?,
        };
        let mut committed = Vec::new();
        let mut batch = Vec::new();
        let mut valid_len = start;
        let mut torn_tail = false;
        let mut offset = start;
        let mut expect_lsn: Option<Lsn> = None;
        let mut next_lsn = self.next_lsn.max(1);

        while offset < buf.len() {
            match decode_record(&buf[offset..], expect_lsn) {
                Ok((lsn, record, consumed)) => {
                    expect_lsn = Some(lsn + 1);
                    offset += consumed;
                    match record {
                        WalRecord::Commit => {
                            committed.push(std::mem::take(&mut batch));
                            valid_len = offset;
                            // Only commits advance the reported next LSN:
                            // recovery truncates everything past the last
                            // commit, so LSNs of discarded records must be
                            // reused to keep the sequence contiguous.
                            next_lsn = lsn + 1;
                        }
                        rec => batch.push(rec),
                    }
                }
                Err(_) => {
                    torn_tail = true;
                    break;
                }
            }
        }
        // Records past the last commit marker — a batch whose durability
        // point was never reached — are discarded along with any torn tail.
        Ok(WalScan {
            committed,
            valid_len,
            discarded_records: batch.len(),
            torn_tail,
            next_lsn,
        })
    }
}

fn encode_record(buf: &mut Vec<u8>, lsn: Lsn, record: &WalRecord) {
    let len_at = buf.len();
    put_u32(buf, 0); // patched below
    let body_at = buf.len();
    put_u64(buf, lsn);
    match record {
        WalRecord::PageImage { page, ranges } => put_page(buf, KIND_PAGE_IMAGE, *page, &[], ranges),
        WalRecord::PageDelta {
            page,
            moves,
            ranges,
        } => {
            let kind = if moves.is_empty() {
                KIND_PAGE_DELTA
            } else {
                KIND_PAGE_MOVES
            };
            put_page(buf, kind, *page, moves, ranges)
        }
        WalRecord::Commit => put_u8(buf, KIND_COMMIT),
        WalRecord::SerialFloor { serial } => {
            put_u8(buf, KIND_SERIAL_FLOOR);
            put_u64(buf, *serial);
        }
        WalRecord::Schema { image } => {
            put_u8(buf, KIND_SCHEMA);
            buf.extend_from_slice(image);
        }
        WalRecord::SegCreate { segment } => {
            put_u8(buf, KIND_SEG_CREATE);
            put_u32(buf, segment.0);
        }
        WalRecord::SegAdopt { segment, page } => {
            put_u8(buf, KIND_SEG_ADOPT);
            put_u32(buf, segment.0);
            put_u64(buf, *page);
        }
        WalRecord::Checkpoint {
            next_segment,
            segments,
        } => {
            put_u8(buf, KIND_CHECKPOINT);
            put_u32(buf, *next_segment);
            put_varint(buf, segments.len() as u64);
            for (seg, pages) in segments {
                put_u32(buf, seg.0);
                put_varint(buf, pages.len() as u64);
                for &p in pages {
                    put_u64(buf, p);
                }
            }
        }
    }
    let checksum = fnv1a64(&buf[body_at..]);
    put_u64(buf, checksum);
    let total = (buf.len() - body_at) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&total.to_le_bytes());
}

/// Decodes one record from the front of `buf`. `expect_lsn` enforces the
/// strictly-increasing sequence (`None` accepts any starting LSN, for the
/// first record after a checkpoint truncation). Returns the LSN, the
/// record, and the total bytes consumed.
fn decode_record(
    buf: &[u8],
    expect_lsn: Option<Lsn>,
) -> Result<(Lsn, WalRecord, usize), &'static str> {
    if buf.len() < 4 {
        return Err("truncated length");
    }
    let total = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if !(RECORD_OVERHEAD - 4..=MAX_SANE_RECORD).contains(&total) {
        return Err("implausible length");
    }
    if buf.len() < 4 + total {
        return Err("truncated record");
    }
    let body = &buf[4..4 + total - 8];
    let stored = u64::from_le_bytes(buf[4 + total - 8..4 + total].try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err("checksum mismatch");
    }
    let mut r = Reader::new(body);
    let lsn = r.u64("wal lsn").map_err(|_| "short body")?;
    if let Some(want) = expect_lsn {
        if lsn != want {
            return Err("lsn out of sequence");
        }
    }
    let kind = r.u8("wal kind").map_err(|_| "short body")?;
    let record = match kind {
        KIND_PAGE_IMAGE => WalRecord::PageImage {
            page: r.u64("wal page").map_err(|_| "short body")?,
            ranges: get_ranges(&mut r)?,
        },
        KIND_PAGE_DELTA => WalRecord::PageDelta {
            page: r.u64("wal page").map_err(|_| "short body")?,
            moves: Vec::new(),
            ranges: get_ranges(&mut r)?,
        },
        KIND_PAGE_MOVES => WalRecord::PageDelta {
            page: r.u64("wal page").map_err(|_| "short body")?,
            moves: get_moves(&mut r)?,
            ranges: get_ranges(&mut r)?,
        },
        KIND_COMMIT => WalRecord::Commit,
        KIND_SERIAL_FLOOR => WalRecord::SerialFloor {
            serial: r.u64("wal serial").map_err(|_| "short body")?,
        },
        KIND_SCHEMA => WalRecord::Schema {
            image: r.rest().to_vec(),
        },
        KIND_SEG_CREATE => WalRecord::SegCreate {
            segment: SegmentId(r.u32("wal seg").map_err(|_| "short body")?),
        },
        KIND_SEG_ADOPT => WalRecord::SegAdopt {
            segment: SegmentId(r.u32("wal seg").map_err(|_| "short body")?),
            page: r.u64("wal page").map_err(|_| "short body")?,
        },
        KIND_CHECKPOINT => {
            let next_segment = r.u32("wal ckpt").map_err(|_| "short body")?;
            let nsegs = r.varint("wal ckpt").map_err(|_| "short body")? as usize;
            let mut segments = Vec::with_capacity(nsegs.min(1024));
            for _ in 0..nsegs {
                let seg = SegmentId(r.u32("wal ckpt").map_err(|_| "short body")?);
                let npages = r.varint("wal ckpt").map_err(|_| "short body")? as usize;
                let mut pages = Vec::with_capacity(npages.min(1024));
                for _ in 0..npages {
                    pages.push(r.u64("wal ckpt").map_err(|_| "short body")?);
                }
                segments.push((seg, pages));
            }
            WalRecord::Checkpoint {
                next_segment,
                segments,
            }
        }
        _ => return Err("unknown kind"),
    };
    Ok((lsn, record, 4 + total))
}

/// Replays a scan's committed batches into a fresh view of the world:
/// the final image of every page plus the rebuilt segment directory.
/// `store.rs` uses this for recovery proper; it is exposed so tests can
/// check replay semantics without a store.
pub fn replay(scan: &WalScan) -> ReplayState {
    let mut state = ReplayState::default();
    for batch in &scan.committed {
        for rec in batch {
            match rec {
                WalRecord::PageImage { page, ranges } => {
                    state.pages.insert(*page, apply_image(ranges));
                }
                WalRecord::PageDelta {
                    page,
                    moves,
                    ranges,
                } => {
                    // A well-formed log always logs an image before the
                    // first delta of a page (and checkpoints truncate both
                    // together), so the base is present; a delta without
                    // one is a hand-built log and is skipped.
                    if let Some(base) = state.pages.get_mut(page) {
                        patch_delta(base, moves, ranges);
                    }
                }
                WalRecord::Commit => {}
                WalRecord::SerialFloor { serial } => {
                    state.serial_floor = state.serial_floor.max(*serial);
                }
                WalRecord::Schema { image } => state.schema = Some(image.clone()),
                WalRecord::SegCreate { segment } => {
                    state.segments.insert(*segment, Vec::new());
                    state.next_segment = state.next_segment.max(segment.0 + 1);
                }
                WalRecord::SegAdopt { segment, page } => {
                    state.segments.entry(*segment).or_default().push(*page);
                }
                WalRecord::Checkpoint {
                    next_segment,
                    segments,
                } => {
                    state.segments.clear();
                    for (seg, pages) in segments {
                        state.segments.insert(*seg, pages.clone());
                    }
                    state.next_segment = *next_segment;
                }
            }
        }
    }
    state
}

/// The world according to the committed log: what [`replay`] produces.
#[derive(Debug, Default)]
pub struct ReplayState {
    /// Final committed image of every page the log mentions.
    pub pages: BTreeMap<u64, Page>,
    /// Segment directory (pages in adoption order).
    pub segments: BTreeMap<SegmentId, Vec<u64>>,
    /// Lowest safe value for `ObjectStore::next_segment`.
    pub next_segment: u32,
    /// Highest committed [`WalRecord::SerialFloor`] — the lowest safe
    /// value for the engine's object-serial counter. Zero when the log
    /// never recorded one.
    pub serial_floor: u64,
    /// The last committed [`WalRecord::Schema`] image, if any.
    pub schema: Option<Vec<u8>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceMetrics, FaultyDevice};
    use crate::error::StorageError;

    /// A log over a fault-injecting in-memory device, plus the handle that
    /// arms it.
    fn faulty_wal() -> (Wal, FaultyDevice<MemLog>) {
        let log = FaultyDevice::new(MemLog::new(), DeviceMetrics::detached());
        let mut wal = Wal::with_device(Arc::new(log.clone()));
        wal.stamp().unwrap();
        (wal, log)
    }

    /// Flushes the pending records through a device that tears the append
    /// after `keep` bytes, and drops them as the poisoned store does.
    fn tear_flush(wal: &mut Wal, log: &FaultyDevice<MemLog>, keep: usize) {
        log.arm_torn_write(0, keep);
        assert!(matches!(wal.flush(), Err(StorageError::TornWrite { .. })));
        wal.drop_pending();
    }

    fn runs_of(list: &[(usize, &[u8])]) -> Ranges {
        let mut ranges = Ranges::default();
        for &(offset, bytes) in list {
            ranges.push(offset, bytes);
        }
        ranges
    }

    fn page_with_byte(b: u8) -> Page {
        let mut raw = [0u8; PAGE_SIZE];
        raw[100] = b;
        Page::from_bytes(&raw)
    }

    fn committed_batch(wal: &mut Wal, pages: &[(u64, u8)]) {
        for &(p, b) in pages {
            wal.append(&WalRecord::page_image(p, &page_with_byte(b)));
        }
        wal.append(&WalRecord::Commit);
        wal.flush().unwrap();
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let mut wal = Wal::new();
        wal.append(&WalRecord::SegCreate {
            segment: SegmentId(3),
        });
        wal.append(&WalRecord::SegAdopt {
            segment: SegmentId(3),
            page: 9,
        });
        wal.append(&WalRecord::page_image(9, &page_with_byte(0xaa)));
        wal.append(&WalRecord::Checkpoint {
            next_segment: 4,
            segments: vec![(SegmentId(3), vec![9, 10])],
        });
        wal.append(&WalRecord::Commit);
        wal.flush().unwrap();

        let scan = wal.scan().unwrap();
        assert_eq!(scan.committed.len(), 1);
        assert_eq!(scan.discarded_records, 0);
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, wal.stats().durable_bytes);
        assert_eq!(scan.next_lsn, 6);
        let batch = &scan.committed[0];
        assert_eq!(batch.len(), 4);
        assert!(matches!(
            batch[0],
            WalRecord::SegCreate {
                segment: SegmentId(3)
            }
        ));
        assert!(
            matches!(&batch[2], WalRecord::PageImage { page: 9, ranges } if apply_image(ranges).as_bytes()[100] == 0xaa)
        );
    }

    #[test]
    fn pending_bytes_are_lost_without_flush() {
        let mut wal = Wal::new();
        committed_batch(&mut wal, &[(0, 1)]);
        wal.append(&WalRecord::page_image(0, &page_with_byte(2)));
        wal.append(&WalRecord::Commit);
        // No flush: the crash loses the second batch entirely.
        wal.drop_pending();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.committed.len(), 1);
        assert_eq!(replay(&scan).pages[&0].as_bytes()[100], 1);
    }

    #[test]
    fn uncommitted_tail_is_discarded_not_replayed() {
        let mut wal = Wal::new();
        committed_batch(&mut wal, &[(0, 1)]);
        // A batch whose images were flushed but whose commit never was.
        wal.append(&WalRecord::page_image(0, &page_with_byte(2)));
        wal.flush().unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.committed.len(), 1);
        assert_eq!(scan.discarded_records, 1);
        assert!(!scan.torn_tail, "well-formed records, just uncommitted");
        assert!(scan.valid_len < wal.stats().durable_bytes);
        assert_eq!(replay(&scan).pages[&0].as_bytes()[100], 1);
    }

    #[test]
    fn torn_flush_keeps_only_a_prefix() {
        let (mut wal, log) = faulty_wal();
        committed_batch(&mut wal, &[(0, 1)]);
        let before = wal.stats().durable_bytes;
        wal.append(&WalRecord::page_image(0, &page_with_byte(2)));
        wal.append(&WalRecord::Commit);
        tear_flush(&mut wal, &log, 10); // a few bytes of the image record
        assert_eq!(log.len() as usize, before + 10);
        let scan = wal.scan().unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, before);
        assert_eq!(scan.committed.len(), 1);
        assert_eq!(replay(&scan).pages[&0].as_bytes()[100], 1);
    }

    #[test]
    fn every_torn_prefix_of_a_batch_preserves_the_previous_commit() {
        let mut reference = Wal::new();
        reference.append(&WalRecord::page_image(0, &page_with_byte(2)));
        reference.append(&WalRecord::Commit);
        let full = reference.stats().pending_bytes;

        for keep in 0..full {
            let (mut wal, log) = faulty_wal();
            committed_batch(&mut wal, &[(0, 1)]);
            wal.append(&WalRecord::page_image(0, &page_with_byte(2)));
            wal.append(&WalRecord::Commit);
            tear_flush(&mut wal, &log, keep);
            let scan = wal.scan().unwrap();
            assert_eq!(scan.committed.len(), 1, "keep={keep}");
            assert_eq!(
                replay(&scan).pages[&0].as_bytes()[100],
                1,
                "keep={keep}: must see the previous commit only"
            );
        }
    }

    #[test]
    fn bit_flip_anywhere_in_a_record_is_rejected() {
        // Flip one bit in each interesting region of the last record:
        // length field, lsn, kind, payload, checksum.
        let mut base = Wal::new();
        committed_batch(&mut base, &[(0, 1)]);
        let first_len = base.stats().durable_bytes;
        committed_batch(&mut base, &[(0, 2)]);
        let total = base.stats().durable_bytes;

        for offset in first_len..total {
            let mut wal = Wal::new();
            committed_batch(&mut wal, &[(0, 1)]);
            committed_batch(&mut wal, &[(0, 2)]);
            wal.device().corrupt_byte(offset as u64, 0x40).unwrap();
            let scan = wal.scan().unwrap();
            assert!(scan.torn_tail, "offset {offset} not detected");
            assert_eq!(scan.committed.len(), 1, "offset {offset}");
            assert_eq!(scan.valid_len, first_len, "offset {offset}");
            assert_eq!(replay(&scan).pages[&0].as_bytes()[100], 1);
        }
    }

    #[test]
    fn lsn_regression_terminates_the_scan() {
        // Splice a stale-but-valid record after a newer one by rebuilding
        // durable bytes out of order.
        let mut b = Wal::new();
        committed_batch(&mut b, &[(0, 9)]); // lsn 1,2
        let mut spliced = Wal::new();
        committed_batch(&mut spliced, &[(0, 1)]); // lsn 1,2 again
                                                  // Append a replayed copy of b's bytes: checksums pass, LSNs repeat.
        let stale = b.device().read_all().unwrap();
        spliced.device().append(&stale).unwrap();
        let scan = spliced.scan().unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.committed.len(), 1);
        assert_eq!(replay(&scan).pages[&0].as_bytes()[100], 1);
    }

    #[test]
    fn checkpoint_resets_replay_state() {
        let mut wal = Wal::new();
        committed_batch(&mut wal, &[(0, 1), (1, 2)]);
        wal.install_checkpoint(2, vec![(SegmentId(0), vec![0, 1])], 0, None)
            .unwrap();
        committed_batch(&mut wal, &[(1, 3)]);
        let scan = wal.scan().unwrap();
        assert_eq!(scan.committed.len(), 2, "checkpoint batch + one more");
        let state = replay(&scan);
        assert_eq!(state.next_segment, 2);
        assert_eq!(state.segments[&SegmentId(0)], vec![0, 1]);
        // Page 0's image predates the checkpoint: the checkpoint guarantees
        // the *disk* already holds it, so replay has nothing for it.
        assert!(!state.pages.contains_key(&0));
        assert_eq!(state.pages[&1].as_bytes()[100], 3);
    }

    #[test]
    fn stats_track_appends_flushes_checkpoints() {
        let mut wal = Wal::new();
        committed_batch(&mut wal, &[(0, 1)]);
        wal.install_checkpoint(1, vec![], 0, None).unwrap();
        let s = wal.stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.records_appended, 4);
        assert_eq!(s.pending_bytes, 0);
        assert_eq!(s.next_lsn, 5);
    }

    #[test]
    fn next_lsn_skips_discarded_tail_so_recovery_stays_contiguous() {
        let mut wal = Wal::new();
        committed_batch(&mut wal, &[(0, 1)]); // lsn 1 (image), 2 (commit)
                                              // lsn 3: flushed but never committed
        wal.append(&WalRecord::page_image(0, &page_with_byte(2)));
        wal.flush().unwrap();

        let scan = wal.scan().unwrap();
        assert_eq!(scan.discarded_records, 1);
        assert_eq!(
            scan.next_lsn, 3,
            "next_lsn must follow the retained prefix, not the discarded tail"
        );

        // Recovery truncates the tail and renumbers from the scan; the
        // next committed batch must survive a second scan with no gap.
        wal.truncate_durable(scan.valid_len).unwrap();
        wal.set_next_lsn(scan.next_lsn);
        committed_batch(&mut wal, &[(1, 9)]);
        let rescan = wal.scan().unwrap();
        assert!(!rescan.torn_tail, "LSN gap after recovery");
        assert_eq!(rescan.committed.len(), 2);
        assert_eq!(replay(&rescan).pages[&1].as_bytes()[100], 9);
    }

    /// Deterministic byte-mutator for the delta tests (no external RNG in
    /// unit tests): a xorshift walk over offsets and values.
    fn mutate(page: &mut Page, seed: u64, edits: usize) {
        let mut raw = *page.as_bytes();
        let mut s = seed | 1;
        for _ in 0..edits {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let at = (s as usize) % PAGE_SIZE;
            raw[at] = raw[at].wrapping_add((s >> 32) as u8).wrapping_add(1);
        }
        *page = Page::from_bytes(&raw);
    }

    #[test]
    fn diff_apply_roundtrips_arbitrary_mutations() {
        let mut base = page_with_byte(1);
        for round in 0..64u64 {
            let mut next = base.clone();
            mutate(&mut next, round * 7 + 3, (round as usize % 40) + 1);
            let ranges = diff_pages(&base, &next);
            assert_eq!(apply_delta(&base, &[], &ranges), next, "round {round}");
            assert!(
                ranges.encoded_len() < PAGE_SIZE,
                "a {}-edit delta must beat a full image",
                round % 40 + 1
            );
            base = next;
        }
        // Identical pages diff to nothing.
        assert!(diff_pages(&base, &base.clone()).is_empty());
    }

    #[test]
    fn delta_record_roundtrips_through_the_log() {
        let mut wal = Wal::new();
        let base = page_with_byte(1);
        let mut next = base.clone();
        mutate(&mut next, 42, 5);
        wal.append(&WalRecord::page_image(3, &base));
        wal.append(&WalRecord::PageDelta {
            page: 3,
            moves: Vec::new(),
            ranges: diff_pages(&base, &next),
        });
        wal.append(&WalRecord::Commit);
        wal.flush().unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.committed.len(), 1);
        assert!(!scan.torn_tail);
        assert_eq!(replay(&scan).pages[&3], next);
    }

    #[test]
    fn delta_replay_is_equivalent_to_full_image_replay() {
        // The same mutation history logged twice — full images vs
        // image-then-deltas — must replay to identical final pages.
        let mut full = Wal::new();
        let mut delta = Wal::new();
        let mut pages: Vec<Page> = (0..4).map(|i| page_with_byte(i as u8)).collect();
        for (i, p) in pages.iter().enumerate() {
            for w in [&mut full, &mut delta] {
                w.append(&WalRecord::page_image(i as u64, p));
            }
        }
        for w in [&mut full, &mut delta] {
            w.append(&WalRecord::Commit);
            w.flush().unwrap();
        }
        for round in 0..32u64 {
            let target = (round as usize) % pages.len();
            let before = pages[target].clone();
            mutate(&mut pages[target], round + 99, (round as usize % 20) + 1);
            full.append(&WalRecord::page_image(target as u64, &pages[target]));
            delta.append(&WalRecord::PageDelta {
                page: target as u64,
                moves: Vec::new(),
                ranges: diff_pages(&before, &pages[target]),
            });
            for w in [&mut full, &mut delta] {
                w.append(&WalRecord::Commit);
                w.flush().unwrap();
            }
        }
        let full_state = replay(&full.scan().unwrap());
        let delta_state = replay(&delta.scan().unwrap());
        assert_eq!(full_state.pages, delta_state.pages);
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(&full_state.pages[&(i as u64)], p);
        }
        assert!(
            delta.stats().durable_bytes < full.stats().durable_bytes / 2,
            "deltas must at least halve the log volume on this mix \
             ({} vs {} bytes)",
            delta.stats().durable_bytes,
            full.stats().durable_bytes
        );
    }

    #[test]
    fn torn_flush_of_a_delta_batch_preserves_the_base_commit() {
        let bytes = page_with_byte(1);
        let mut mutated = bytes.clone();
        mutate(&mut mutated, 7, 3);
        // A slotted page whose middle record grew: its delta is a move.
        let mut slotted = Page::new();
        let slots: Vec<_> = (1..4u8)
            .map(|i| slotted.insert(&[i; 300]).unwrap())
            .collect();
        let mut grown = slotted.clone();
        grown.update(slots[1], &[2; 313]).unwrap();

        for (base, next, want_moves) in [(bytes, mutated, 0), (slotted, grown, 1)] {
            let (moves, ranges) = page_delta(&base, &next);
            assert_eq!(moves.len(), want_moves);
            assert_eq!(apply_delta(&base, &moves, &ranges), next);
            let delta = WalRecord::PageDelta {
                page: 0,
                moves,
                ranges,
            };

            let mut probe = Wal::new();
            probe.append(&delta);
            probe.append(&WalRecord::Commit);
            let full = probe.stats().pending_bytes;

            for keep in 0..full {
                let (mut wal, log) = faulty_wal();
                wal.append(&WalRecord::page_image(0, &base));
                wal.append(&WalRecord::Commit);
                wal.flush().unwrap();
                wal.append(&delta);
                wal.append(&WalRecord::Commit);
                tear_flush(&mut wal, &log, keep);
                let scan = wal.scan().unwrap();
                assert_eq!(scan.committed.len(), 1, "keep={keep}");
                assert_eq!(replay(&scan).pages[&0], base, "keep={keep}");
            }
            let mut wal = Wal::new();
            wal.append(&WalRecord::page_image(0, &base));
            wal.append(&delta);
            wal.append(&WalRecord::Commit);
            wal.flush().unwrap();
            assert_eq!(replay(&wal.scan().unwrap()).pages[&0], next);
        }
    }

    #[test]
    fn delta_without_a_base_is_skipped_not_misapplied() {
        let mut wal = Wal::new();
        wal.append(&WalRecord::PageDelta {
            page: 5,
            moves: Vec::new(),
            ranges: runs_of(&[(100, &[9])]),
        });
        wal.append(&WalRecord::Commit);
        wal.flush().unwrap();
        let state = replay(&wal.scan().unwrap());
        assert!(!state.pages.contains_key(&5));
    }

    #[test]
    fn rollback_to_mark_reuses_lsns_and_keeps_earlier_pending() {
        let mut wal = Wal::new();
        committed_batch(&mut wal, &[(0, 1)]); // durable: lsn 1,2
        wal.append(&WalRecord::SegCreate {
            segment: SegmentId(1),
        }); // pending before the mark: lsn 3
        let mark = wal.mark();
        wal.append(&WalRecord::SegAdopt {
            segment: SegmentId(1),
            page: 7,
        }); // lsn 4, about to be aborted
        wal.rollback_to(mark);
        assert_eq!(wal.stats().next_lsn, 4, "aborted LSN is reused");
        // The earlier pending record survived the abort; commit it.
        wal.append(&WalRecord::Commit); // lsn 4
        wal.flush().unwrap();
        let scan = wal.scan().unwrap();
        assert!(!scan.torn_tail, "no LSN gap after an abort");
        assert_eq!(scan.committed.len(), 2);
        assert!(matches!(
            scan.committed[1][0],
            WalRecord::SegCreate {
                segment: SegmentId(1)
            }
        ));
        assert_eq!(scan.committed[1].len(), 1, "aborted record not replayed");
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = Wal::with_device(Arc::new(MemLog::new())).scan().unwrap();
        assert!(scan.committed.is_empty());
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.next_lsn, 1);
        // A stamped log with no record is valid up to its header.
        let scan = Wal::new().scan().unwrap();
        assert!(scan.committed.is_empty() && !scan.torn_tail);
        assert_eq!(scan.valid_len, LOG_HEADER_LEN);
    }

    #[test]
    fn a_log_without_its_header_or_of_another_version_is_refused() {
        let mut wal = Wal::new();
        committed_batch(&mut wal, &[(0, 1)]);
        let stamped = wal.device().read_all().unwrap();
        assert_eq!(stamped[..LOG_HEADER_LEN], format_header(LOG_MAGIC));
        let refused = |bytes: &[u8]| {
            let log = MemLog::new();
            log.append(bytes).unwrap();
            match Wal::with_device(Arc::new(log)).scan() {
                Err(StorageError::FormatVersion { found, expected }) => {
                    assert_eq!(expected, FORMAT_VERSION);
                    found
                }
                other => panic!("scanned {other:?}"),
            }
        };
        let mut older = stamped.clone();
        older[7] = b'3';
        assert_eq!(refused(&older), 3);
        assert_eq!(refused(&stamped[LOG_HEADER_LEN..]), 0);
        assert_eq!(refused(&stamped[..3]), 0);
    }

    #[test]
    fn replay_keeps_the_last_committed_schema_and_a_checkpoint_reasserts_it() {
        let mut wal = Wal::new();
        for image in [b"first".to_vec(), b"second".to_vec()] {
            wal.append(&WalRecord::Schema { image });
            wal.append(&WalRecord::Commit);
        }
        wal.flush().unwrap();
        // An uncommitted third one is not the schema.
        wal.append(&WalRecord::Schema {
            image: b"third".to_vec(),
        });
        wal.flush().unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(replay(&scan).schema.as_deref(), Some(&b"second"[..]));

        wal.install_checkpoint(0, vec![], 0, Some(b"second"))
            .unwrap();
        let scan = wal.scan().unwrap();
        assert_eq!(scan.committed.len(), 1, "the checkpoint batch alone");
        assert_eq!(replay(&scan).schema.as_deref(), Some(&b"second"[..]));
        let fresh = wal.device().read_all().unwrap();
        assert_eq!(fresh[..LOG_HEADER_LEN], format_header(LOG_MAGIC));
    }

    /// Pages from empty to full: a slotted page with `records` 100-byte
    /// records of varied bytes (zeros included), and a page of noise.
    fn sample_pages() -> Vec<Page> {
        let mut pages: Vec<Page> = [0usize, 1, 4, 16, 38]
            .into_iter()
            .map(|records| {
                let mut p = Page::new();
                for r in 0..records {
                    let rec: Vec<u8> = (0..100).map(|i| ((i * 7 + r) % 5) as u8).collect();
                    p.insert(&rec).unwrap();
                }
                p
            })
            .collect();
        let mut noise = page_with_byte(1);
        mutate(&mut noise, 5, 20 * PAGE_SIZE);
        pages.push(noise);
        pages.push(Page::from_bytes(&[0xff; PAGE_SIZE]));
        pages
    }

    #[test]
    fn image_ranges_roundtrip_any_page() {
        for page in sample_pages() {
            assert_eq!(apply_image(&image_ranges(&page)), page);
        }
        assert!(image_ranges(&Page::from_bytes(&ZERO_PAGE)).is_empty());
    }

    #[test]
    fn an_image_costs_what_the_page_holds() {
        for page in sample_pages() {
            let bytes = page.as_bytes();
            let non_zero = bytes.iter().filter(|&&b| b != 0).count();
            // What a slotted page occupies: everything but its free middle,
            // the longest zero run.
            let free = bytes.split(|&b| b != 0).map(<[u8]>::len).max().unwrap_or(0);
            let mut wal = Wal::new();
            wal.append(&WalRecord::page_image(0, &page));
            let logged = wal.stats().pending_bytes - RECORD_OVERHEAD - 8;
            // The runs carry every non-zero byte, the short zero gaps
            // between them and a few bytes of framing.
            assert!(logged >= non_zero, "{logged} < {non_zero}");
            assert!(
                logged <= PAGE_SIZE - free + 16,
                "{} occupied bytes logged as {logged}",
                PAGE_SIZE - free
            );
        }
    }

    #[test]
    fn encoded_len_is_the_logged_payload() {
        let mut pages = sample_pages();
        // Grow the first record of the fullest slotted page: a compaction
        // moves every record, so the delta is a long move list.
        let mut grown = pages[4].clone();
        grown.delete(1).unwrap();
        grown.update(0, &[7; 150]).unwrap();
        pages.insert(5, grown);
        for (a, b) in pages.iter().zip(pages.iter().skip(1)) {
            let (moves, delta) = page_delta(a, b);
            assert_eq!(apply_delta(a, &moves, &delta), *b);
            for (moves, ranges) in [(moves, delta), (Vec::new(), image_ranges(b))] {
                let len = delta_len(&moves, &ranges);
                let mut wal = Wal::new();
                wal.append(&WalRecord::PageDelta {
                    page: 1,
                    moves,
                    ranges,
                });
                assert_eq!(wal.stats().pending_bytes, RECORD_OVERHEAD + 8 + len);
            }
        }
        let (moves, _) = page_delta(&pages[4], &pages[5]);
        assert!(moves.len() > 30, "{} moves", moves.len());
    }
}
