//! The benchmark's own span recorder.
//!
//! Spans are taken **from outside** the program: around every operation
//! and every `Client` call on the load-generator thread, and around every
//! call that reaches the device wrappers on whichever server thread makes
//! it. They are kept in memory and written out when the run ends. Device
//! spans carry no parent when recorded; with one connection every device
//! call that belongs to a request lies inside that request's interval, so
//! [`write_jsonl`] attributes it by time containment.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide epoch (first call). One clock for
/// the load generator and the server threads, so spans nest.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole operation (a transaction with its retries, or one read).
    Op,
    /// One `Client` round trip.
    Call,
    /// One call into a device wrapper.
    Device,
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the operation in the seeded sequence (the request id).
    /// Device spans get theirs at write-out.
    pub request: Option<u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Time spent inside [`record`] while tracing was on: the overhead the
/// traced pass paid, measured in that pass itself (the difference between
/// a traced and an untraced pass is smaller than their run-to-run noise).
static RECORDING_NS: AtomicU64 = AtomicU64::new(0);

/// Turns recording on or off. Off is the default and costs one relaxed
/// load per would-be span.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a finished span if tracing is on.
pub fn record(layer: Layer, name: &'static str, start_ns: u64, end_ns: u64, request: Option<u64>) {
    if enabled() {
        let began = now_ns();
        SPANS.lock().expect("span buffer poisoned").push(Span {
            layer,
            name,
            start_ns,
            end_ns,
            request,
        });
        RECORDING_NS.fetch_add(now_ns() - began, Ordering::Relaxed);
    }
}

/// Nanoseconds spent recording spans so far.
pub fn recording_ns() -> u64 {
    RECORDING_NS.load(Ordering::Relaxed)
}

/// Takes every span recorded so far, leaving the buffer empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Writes spans as one JSON object per line:
/// `{"id","parent","request","layer","name","start_ns","end_ns","self_ns"}`.
///
/// Call spans are children of the operation span with the same request
/// id; a device span is the child of the call span whose interval
/// contains it (none if it ran between requests, e.g. on the WAL
/// tailer). A span's `self_ns` is its duration minus its children's.
pub fn write_jsonl(path: &Path, mut spans: Vec<Span>) -> std::io::Result<usize> {
    spans.sort_by_key(|s| (s.start_ns, s.layer as u8));
    let n = spans.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut child_ns: Vec<u64> = vec![0; n];

    // Operation spans by request id, call spans in start order.
    let mut op_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut calls: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.layer {
            Layer::Op => {
                if let Some(r) = s.request {
                    op_of.insert(r, i);
                }
            }
            Layer::Call => calls.push(i),
            Layer::Device => {}
        }
    }
    for &c in &calls {
        if let Some(&op) = spans[c].request.and_then(|r| op_of.get(&r)) {
            parent[c] = Some(op);
        }
    }
    for i in 0..n {
        if spans[i].layer != Layer::Device {
            continue;
        }
        // Last call starting at or before the device span; it is the
        // parent only if it also ends after it.
        let at = calls.partition_point(|&c| spans[c].start_ns <= spans[i].start_ns);
        if at > 0 {
            let c = calls[at - 1];
            if spans[c].end_ns >= spans[i].end_ns {
                parent[i] = Some(c);
                spans[i].request = spans[c].request;
            }
        }
    }
    for i in 0..n {
        if let Some(p) = parent[i] {
            child_ns[p] += spans[i].end_ns - spans[i].start_ns;
        }
    }

    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let layer = match s.layer {
            Layer::Op => "op",
            Layer::Call => "client",
            Layer::Device => "device",
        };
        writeln!(
            out,
            "{{\"id\":{i},\"parent\":{},\"request\":{},\"layer\":\"{layer}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            parent[i].map_or("null".into(), |p| p.to_string()),
            s.request.map_or("null".into(), |r| r.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            dur.saturating_sub(child_ns[i]),
        )?;
    }
    out.flush()?;
    Ok(n)
}
