//! Slotted pages.
//!
//! A page is a fixed 4 KiB buffer laid out as:
//!
//! ```text
//! +--------+---------------------------+------------------+
//! | header | record heap (grows up) -> | <- slot directory|
//! +--------+---------------------------+------------------+
//! ```
//!
//! The header stores the number of slots and the heap watermark. Each slot
//! directory entry is `(offset: u16, len: u16)`; a deleted slot keeps its
//! directory entry as a tombstone (`offset == TOMBSTONE`) so that slot ids —
//! which are embedded in physical record addresses — remain stable for the
//! lifetime of the page. Freed heap space is reclaimed by compaction when an
//! insert would otherwise fail.

use crate::error::{StorageError, StorageResult};
use crate::wal::Move;

/// Size of every page, in bytes. ORION used small disk pages; 4 KiB matches
/// both the paper's era and modern defaults.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of header: slot count (u16) + heap watermark (u16).
const HEADER: usize = 4;
/// Bytes per slot directory entry: offset (u16) + length (u16).
const SLOT_ENTRY: usize = 4;
/// Directory `offset` value marking a deleted slot.
const TOMBSTONE: u16 = u16::MAX;

/// Largest record payload a single page can hold (one slot, empty heap).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT_ENTRY;

/// Index of a record within a page.
pub type SlotId = u16;

/// A fixed-size slotted page.
///
/// Pages are pure in-memory byte containers; durability and caching live in
/// [`crate::disk`] and [`crate::buffer`].
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

/// Byte-for-byte equality — what the WAL's redo semantics promise: replaying
/// a committed page image reproduces the page exactly.
impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.bytes[..] == other.bytes[..]
    }
}

impl Eq for Page {}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish_non_exhaustive()
    }
}

impl Page {
    /// Creates an empty page with zero slots.
    pub fn new() -> Self {
        let mut bytes = Box::new([0u8; PAGE_SIZE]);
        write_u16(&mut bytes[..], 0, 0); // slot count
        write_u16(&mut bytes[..], 2, HEADER as u16); // heap watermark
        Page { bytes }
    }

    /// Reconstructs a page from raw bytes (used by the simulated disk).
    pub fn from_bytes(raw: &[u8; PAGE_SIZE]) -> Self {
        Page {
            bytes: Box::new(*raw),
        }
    }

    /// Raw bytes of the page (used by the simulated disk).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Raw bytes of the page, writable: the WAL's redo patches pages
    /// physically, in place.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    fn slot_count(&self) -> u16 {
        // A corrupted header could claim more slots than the directory can
        // physically hold; clamp so directory address arithmetic stays in
        // bounds (the per-slot entries are validated separately on read).
        read_u16(&self.bytes[..], 0).min(((PAGE_SIZE - HEADER) / SLOT_ENTRY) as u16)
    }

    fn set_slot_count(&mut self, n: u16) {
        write_u16(&mut self.bytes[..], 0, n);
    }

    fn heap_end(&self) -> u16 {
        read_u16(&self.bytes[..], 2)
    }

    fn set_heap_end(&mut self, n: u16) {
        write_u16(&mut self.bytes[..], 2, n);
    }

    fn dir_pos(&self, slot: SlotId) -> usize {
        PAGE_SIZE - SLOT_ENTRY * (slot as usize + 1)
    }

    fn slot_entry(&self, slot: SlotId) -> (u16, u16) {
        let p = self.dir_pos(slot);
        (
            read_u16(&self.bytes[..], p),
            read_u16(&self.bytes[..], p + 2),
        )
    }

    fn set_slot_entry(&mut self, slot: SlotId, offset: u16, len: u16) {
        let p = self.dir_pos(slot);
        write_u16(&mut self.bytes[..], p, offset);
        write_u16(&mut self.bytes[..], p + 2, len);
    }

    /// Number of live (non-tombstoned) records on the page.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot_entry(s).0 != TOMBSTONE)
            .count()
    }

    /// Bytes available for a new record after compaction. A tombstoned slot
    /// can be reused, so the new record only needs a fresh directory entry
    /// when every slot is live.
    pub fn free_space(&self) -> usize {
        let mut used: usize = 0;
        let mut has_tombstone = false;
        for s in 0..self.slot_count() {
            let (off, len) = self.slot_entry(s);
            if off == TOMBSTONE {
                has_tombstone = true;
            } else {
                used += len as usize;
            }
        }
        let dir = self.slot_count() as usize * SLOT_ENTRY;
        let base = PAGE_SIZE - HEADER - used.min(PAGE_SIZE - HEADER);
        let base = base - dir.min(base);
        if has_tombstone {
            base
        } else {
            base - SLOT_ENTRY.min(base)
        }
    }

    /// True if `len` bytes fit (possibly after compaction).
    pub fn fits(&self, len: usize) -> bool {
        len <= self.free_space()
    }

    /// Inserts a record, returning its slot id.
    ///
    /// Prefers reusing a tombstoned slot so long-lived pages don't grow their
    /// directory without bound. Compacts the heap if fragmented.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<SlotId> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: MAX_RECORD,
            });
        }
        // Reusing a tombstone does not need a new directory entry, so the
        // space check differs from the fresh-slot path.
        let reuse = (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == TOMBSTONE);
        let needs_dir = reuse.is_none();
        let extra_dir = if needs_dir { SLOT_ENTRY } else { 0 };
        let live: usize = (0..self.slot_count())
            .map(|s| {
                let (off, len) = self.slot_entry(s);
                if off == TOMBSTONE {
                    0
                } else {
                    len as usize
                }
            })
            .sum();
        let dir = self.slot_count() as usize * SLOT_ENTRY;
        if HEADER + live + dir + extra_dir + record.len() > PAGE_SIZE {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: MAX_RECORD,
            });
        }
        let dir_limit = self.slot_count() as usize + usize::from(needs_dir);
        if (self.heap_end() as usize + record.len()) > PAGE_SIZE - SLOT_ENTRY * dir_limit {
            self.compact();
        }
        let offset = self.heap_end();
        self.bytes[offset as usize..offset as usize + record.len()].copy_from_slice(record);
        self.set_heap_end(offset + record.len() as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.set_slot_entry(slot, offset, record.len() as u16);
        Ok(slot)
    }

    /// True when the directory entry `(off, len)` points at bytes inside
    /// the page. Entries written by this module always are; a corrupted
    /// (bit-rotted) page may not be, and must surface as an error rather
    /// than an out-of-bounds panic.
    fn entry_in_bounds(off: u16, len: u16) -> bool {
        (off as usize) >= HEADER && (off as usize).saturating_add(len as usize) <= PAGE_SIZE
    }

    /// Reads the record in `slot`.
    pub fn read(&self, slot: SlotId) -> StorageResult<&[u8]> {
        if slot >= self.slot_count() {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, len) = self.slot_entry(slot);
        if off == TOMBSTONE {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        if !Self::entry_in_bounds(off, len) {
            return Err(StorageError::Corrupt {
                context: "page slot entry out of bounds",
            });
        }
        Ok(&self.bytes[off as usize..off as usize + len as usize])
    }

    /// Replaces the record in `slot`. Fails with [`StorageError::RecordTooLarge`]
    /// if the new record cannot fit even after compaction (the caller then
    /// relocates the record to another page).
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> StorageResult<()> {
        if slot >= self.slot_count() || self.slot_entry(slot).0 == TOMBSTONE {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, old_len) = self.slot_entry(slot);
        if record.len() <= old_len as usize {
            // Shrinking or same-size: overwrite in place.
            self.bytes[off as usize..off as usize + record.len()].copy_from_slice(record);
            self.set_slot_entry(slot, off, record.len() as u16);
            return Ok(());
        }
        // Growing: tombstone, then insert into fresh heap space, keeping the
        // same slot id.
        let live_other: usize = (0..self.slot_count())
            .filter(|&s| s != slot)
            .map(|s| {
                let (o, l) = self.slot_entry(s);
                if o == TOMBSTONE {
                    0
                } else {
                    l as usize
                }
            })
            .sum();
        let dir = self.slot_count() as usize * SLOT_ENTRY;
        if HEADER + live_other + dir + record.len() > PAGE_SIZE {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: MAX_RECORD,
            });
        }
        self.set_slot_entry(slot, TOMBSTONE, 0);
        if (self.heap_end() as usize + record.len())
            > PAGE_SIZE - SLOT_ENTRY * self.slot_count() as usize
        {
            self.compact();
        }
        let offset = self.heap_end();
        self.bytes[offset as usize..offset as usize + record.len()].copy_from_slice(record);
        self.set_heap_end(offset + record.len() as u16);
        self.set_slot_entry(slot, offset, record.len() as u16);
        Ok(())
    }

    /// Deletes the record in `slot`, leaving a tombstone so other slot ids
    /// stay valid.
    pub fn delete(&mut self, slot: SlotId) -> StorageResult<()> {
        if slot >= self.slot_count() || self.slot_entry(slot).0 == TOMBSTONE {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        self.set_slot_entry(slot, TOMBSTONE, 0);
        Ok(())
    }

    /// True if `slot` holds a live record.
    pub fn is_live(&self, slot: SlotId) -> bool {
        slot < self.slot_count() && self.slot_entry(slot).0 != TOMBSTONE
    }

    /// Iterates over `(slot, record)` pairs of live records. Slots whose
    /// directory entry points outside the page (possible only under
    /// corruption) are skipped rather than panicking; [`Page::read`] on
    /// such a slot reports [`StorageError::Corrupt`].
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            if off == TOMBSTONE || !Self::entry_in_bounds(off, len) {
                None
            } else {
                Some((s, &self.bytes[off as usize..off as usize + len as usize]))
            }
        })
    }

    /// Rewrites the heap so all live records are contiguous from the header.
    fn compact(&mut self) {
        let mut scratch: Vec<(SlotId, Vec<u8>)> = Vec::with_capacity(self.slot_count() as usize);
        for s in 0..self.slot_count() {
            let (off, len) = self.slot_entry(s);
            if off != TOMBSTONE {
                scratch.push((s, self.bytes[off as usize..(off + len) as usize].to_vec()));
            }
        }
        let mut cursor = HEADER as u16;
        for (slot, rec) in scratch {
            self.bytes[cursor as usize..cursor as usize + rec.len()].copy_from_slice(&rec);
            self.set_slot_entry(slot, cursor, rec.len() as u16);
            cursor += rec.len() as u16;
        }
        self.set_heap_end(cursor);
    }

    /// The records that moved between `base` and this page: for each slot
    /// live on both at a different offset, `(src, dst, len)` — its offset
    /// on `base`, its offset here, and the smaller of its two lengths. A
    /// grown record (rewritten at the heap end) and every neighbour a
    /// compaction shifted show up here; the WAL copies them from the base
    /// instead of logging their bytes again. One pass over both slot
    /// directories; entries out of bounds (corruption) are left out.
    pub fn moved_records(&self, base: &Page) -> Vec<Move> {
        (0..self.slot_count().min(base.slot_count()))
            .filter_map(|s| {
                let (src, src_len) = base.slot_entry(s);
                let (dst, dst_len) = self.slot_entry(s);
                let len = src_len.min(dst_len);
                let moved = src != dst && src != TOMBSTONE && dst != TOMBSTONE && len > 0;
                (moved && Self::entry_in_bounds(src, len) && Self::entry_in_bounds(dst, len))
                    .then_some((src as usize, dst as usize, len as usize))
            })
            .collect()
    }
}

fn read_u16(b: &[u8], pos: usize) -> u16 {
    u16::from_le_bytes([b[pos], b[pos + 1]])
}

fn write_u16(b: &mut [u8], pos: usize, v: u16) {
    b[pos..pos + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_roundtrip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.read(a).unwrap(), b"hello");
        assert_eq!(p.read(b).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_leaves_stable_slot_ids() {
        let mut p = Page::new();
        let a = p.insert(b"aaaa").unwrap();
        let b = p.insert(b"bbbb").unwrap();
        p.delete(a).unwrap();
        assert!(p.read(a).is_err());
        assert_eq!(p.read(b).unwrap(), b"bbbb");
        assert!(!p.is_live(a));
        assert!(p.is_live(b));
    }

    #[test]
    fn deleted_slot_is_reused() {
        let mut p = Page::new();
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        p.delete(a).unwrap();
        let c = p.insert(b"three").unwrap();
        assert_eq!(a, c, "tombstoned slot should be reused");
        assert_eq!(p.read(c).unwrap(), b"three");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let a = p.insert(b"short").unwrap();
        p.update(a, b"tiny").unwrap();
        assert_eq!(p.read(a).unwrap(), b"tiny");
        p.update(a, b"a considerably longer record body").unwrap();
        assert_eq!(
            p.read(a).unwrap(),
            &b"a considerably longer record body"[..]
        );
    }

    #[test]
    fn rejects_oversized_record() {
        let mut p = Page::new();
        let big = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            p.insert(&big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = Page::new();
        let rec = vec![7u8; MAX_RECORD];
        let s = p.insert(&rec).unwrap();
        assert_eq!(p.read(s).unwrap().len(), MAX_RECORD);
        assert!(p.insert(b"x").is_err(), "page is now full");
    }

    #[test]
    fn compaction_reclaims_fragmented_space() {
        let mut p = Page::new();
        // Fill with many records, delete every other one, then insert a
        // record that only fits if the freed space is coalesced.
        let recs: Vec<SlotId> = (0..10).map(|_| p.insert(&[9u8; 300]).unwrap()).collect();
        for s in recs.iter().step_by(2) {
            p.delete(*s).unwrap();
        }
        let big = vec![1u8; 1200];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.read(s).unwrap(), &big[..]);
        // Survivors are intact after compaction.
        for s in recs.iter().skip(1).step_by(2) {
            assert_eq!(p.read(*s).unwrap(), &[9u8; 300][..]);
        }
    }

    #[test]
    fn moved_records_lists_grown_and_shifted_slots() {
        let mut p = Page::new();
        let a = p.insert(&[1; 100]).unwrap();
        let b = p.insert(&[2; 100]).unwrap();
        let c = p.insert(&[3; 100]).unwrap();
        let base = p.clone();
        assert!(p.moved_records(&base).is_empty());
        p.update(c, &[3; 50]).unwrap();
        assert!(p.moved_records(&base).is_empty(), "a shrink stays put");
        // A grown record is rewritten at the heap end; the copy is as long
        // as the shorter of its two lengths.
        let mut p = base.clone();
        p.update(b, &[4; 150]).unwrap();
        assert_eq!(p.moved_records(&base), vec![(104, 304, 100)]);
        // A growth that needs a compaction also shifts the neighbours; a
        // deleted slot is no move.
        let grown = p.clone();
        p.delete(a).unwrap();
        p.update(c, &[5; 3700]).unwrap();
        assert_eq!(
            p.moved_records(&grown),
            vec![(304, 4, 150), (204, 154, 100)]
        );
    }

    #[test]
    fn iter_yields_only_live_records() {
        let mut p = Page::new();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b).unwrap();
        let got: Vec<SlotId> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(got, vec![a, c]);
    }

    #[test]
    fn bytes_roundtrip_preserves_contents() {
        let mut p = Page::new();
        let s = p.insert(b"persist me").unwrap();
        let q = Page::from_bytes(p.as_bytes());
        assert_eq!(q.read(s).unwrap(), b"persist me");
    }

    #[test]
    fn update_of_dead_slot_fails() {
        let mut p = Page::new();
        let a = p.insert(b"x").unwrap();
        p.delete(a).unwrap();
        assert!(p.update(a, b"y").is_err());
        assert!(p.delete(a).is_err());
        assert!(p.read(99).is_err());
    }

    #[test]
    fn corrupt_slot_entry_errors_instead_of_panicking() {
        let mut p = Page::new();
        let s = p.insert(b"victim").unwrap();
        // Point the slot's offset past the end of the page.
        let mut raw = *p.as_bytes();
        let dir = PAGE_SIZE - SLOT_ENTRY * (s as usize + 1);
        raw[dir..dir + 2].copy_from_slice(&0xfff0u16.to_le_bytes());
        raw[dir + 2..dir + 4].copy_from_slice(&64u16.to_le_bytes());
        let q = Page::from_bytes(&raw);
        assert!(matches!(q.read(s), Err(StorageError::Corrupt { .. })));
        assert_eq!(q.iter().count(), 0, "corrupt slot is skipped by iter");
    }

    #[test]
    fn corrupt_slot_count_is_clamped() {
        let p = Page::new();
        let mut raw = *p.as_bytes();
        raw[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        let q = Page::from_bytes(&raw);
        // Every claimed slot resolves without a directory-underflow panic.
        assert!(q.read(5000).is_err());
        let _ = q.live_records();
        let _ = q.iter().count();
    }

    #[test]
    fn free_space_decreases_monotonically_with_inserts() {
        let mut p = Page::new();
        let mut prev = p.free_space();
        for _ in 0..5 {
            p.insert(&[0u8; 100]).unwrap();
            let now = p.free_space();
            assert!(now < prev);
            prev = now;
        }
    }
}
