//! The crash-and-reopen check that follows every main phase.
//!
//! Killing a process leaves the operating system's cache intact, so the
//! check itself discards what was never made durable: `wal.log` is cut
//! back to the length recorded at the last `LogDevice::sync`, then the
//! directory is opened with `Database::open` — recovery and all — and
//! every acknowledged commit must be there with its exact payloads.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use corion::storage::FileWal;
use corion::{Database, DbConfig, Oid, Value};

use crate::exec::Ack;
use crate::stack::{copy_dir, dir_bytes, Res, Seeded};
use crate::workload::{Op, Plan, PAYLOAD_LEN};

pub struct Durability {
    /// `Database::open` on the directory as the run left it, once per
    /// copy plus once on the original.
    pub reopen_s: Vec<f64>,
    /// Objects compared against acknowledged commits.
    pub checked: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Data-directory bytes after reopen + checkpoint ÷ live payload bytes.
    pub space_amp: f64,
    /// Log bytes that were appended but never synced, and so discarded.
    pub unsynced_bytes: u64,
}

fn payload_at(db: &Database, oid: Oid) -> Result<(String, Vec<Oid>), String> {
    let obj = db.get(oid).map_err(|e| format!("{oid}: {e}"))?;
    match obj.attrs.first() {
        Some(Value::Str(s)) => Ok((s.clone(), obj.composite_parents())),
        other => Err(format!("{oid}: payload is {other:?}")),
    }
}

/// Cuts the log to `synced_len`, reopens, and checks `acks`.
/// `extra_reopens` copies of the directory are opened first, for a
/// median reopen time that does not rest on one sample.
pub fn crash_and_check(
    dir: &Path,
    synced_len: u64,
    plan: &Plan,
    seeded: &Seeded,
    acks: &[Ack],
    extra_reopens: usize,
) -> Res<Durability> {
    let log_path = dir.join(FileWal::LOG_FILE);
    let log_len = std::fs::metadata(&log_path)?.len();
    if log_len > synced_len {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&log_path)?
            .set_len(synced_len)?;
    }

    let mut reopen_s = Vec::new();
    for i in 0..extra_reopens {
        let copy = dir.with_extension(format!("reopen{i}"));
        copy_dir(dir, &copy)?;
        let start = Instant::now();
        let db = Database::open(&copy, DbConfig::default())?;
        reopen_s.push(start.elapsed().as_secs_f64());
        drop(db);
        std::fs::remove_dir_all(&copy)?;
    }
    let start = Instant::now();
    let mut db = Database::open(dir, DbConfig::default())?;
    reopen_s.push(start.elapsed().as_secs_f64());

    let mut errors = Vec::new();
    let mut checked = 0u64;
    let mut failed = 0u64;
    let mut fail = |msg: String| {
        failed += 1;
        if errors.len() < 5 {
            errors.push(msg);
        }
    };

    // Last acknowledged write per part wins, in commit-LSN order.
    let mut last_write: HashMap<Oid, (u64, &str)> = HashMap::new();
    let mut ingested = 0u64;
    for ack in acks {
        match ack {
            Ack::Ingest {
                op,
                root,
                asm,
                parts,
            } => {
                ingested += 1;
                let Op::Ingest { payloads, .. } = &plan.ops[*op] else {
                    return Err("ack does not match its operation".into());
                };
                checked += 1;
                match db.get(*asm) {
                    Ok(obj) if obj.composite_parents() == [*root] => {}
                    Ok(_) => fail(format!("{asm}: not under its root after reopen")),
                    Err(e) => fail(format!("{asm}: {e}")),
                }
                for (part, want) in parts.iter().zip(payloads) {
                    checked += 1;
                    match payload_at(&db, *part) {
                        Ok((got, parents)) if got == *want && parents == [*asm] => {}
                        Ok(_) => fail(format!("{part}: wrong payload or parent after reopen")),
                        Err(e) => fail(e),
                    }
                }
            }
            Ack::Update { op, lsn, parts } => {
                let Op::Update { writes } = &plan.ops[*op] else {
                    return Err("ack does not match its operation".into());
                };
                for (part, (_, payload)) in parts.iter().zip(writes) {
                    let slot = last_write.entry(*part).or_insert((*lsn, payload));
                    if *lsn >= slot.0 {
                        *slot = (*lsn, payload);
                    }
                }
            }
        }
    }
    for (part, (_, want)) in &last_write {
        checked += 1;
        match payload_at(&db, *part) {
            Ok((got, _)) if got == *want => {}
            Ok(_) => fail(format!("{part}: last acknowledged payload lost")),
            Err(e) => fail(e),
        }
    }

    let want_objects = seeded.objects() as u64 + 4 * ingested;
    checked += 1;
    if db.object_count() as u64 != want_objects {
        fail(format!(
            "{} objects after reopen, {want_objects} acknowledged",
            db.object_count()
        ));
    }
    checked += 1;
    if let Err(e) = db.verify_integrity() {
        fail(format!("verify_integrity: {e}"));
    }

    db.checkpoint()?;
    drop(db);
    let live_payload = seeded.payload_bytes() + ingested * 3 * PAYLOAD_LEN as u64;
    let space_amp = dir_bytes(dir)? as f64 / live_payload as f64;

    Ok(Durability {
        reopen_s,
        checked,
        failed,
        errors,
        space_amp,
        unsynced_bytes: log_len.saturating_sub(synced_len),
    })
}
