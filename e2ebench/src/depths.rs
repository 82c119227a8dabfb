//! The same operations below the wire: through `ConcurrentDb`, through
//! `Database`, and the captured frames through the codec alone. Wire
//! depth minus concurrent depth is what the server and the socket cost;
//! concurrent minus core is what locks, overlays and versions cost.

use std::io::Cursor;

use corion::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, Response,
};
use corion::{ConcurrentDb, Database, Filter, Object, Oid, Value};

use crate::exec::{Ack, Addressing, Backend, CallKind, Recorder};
use crate::stack::Res;
use crate::trace::now_ns;
use crate::workload::Op;

fn payload_of(obj: &Object) -> Option<&str> {
    match obj.attrs.first() {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn part_values(payload: &str) -> Vec<(&'static str, Value)> {
    vec![("payload", Value::Str(payload.to_string()))]
}

/// `ConcurrentDb::begin_write` / `WriteTxn::*` / `begin_read` / `Snapshot::*`.
pub struct ConcurrentBackend<'a> {
    pub cdb: ConcurrentDb,
    pub addr: Addressing<'a>,
}

impl Backend for ConcurrentBackend<'_> {
    fn run_op(&mut self, idx: usize, op: &Op, rec: &mut Recorder) -> Res<Option<Ack>> {
        let classes = self.addr.seeded.classes;
        match op {
            Op::Ingest { root, payloads } => {
                let root = self.addr.root(*root).root;
                let mut txn = rec.call(CallKind::Begin, || self.cdb.begin_write());
                let asm = rec.call(CallKind::Make, || {
                    txn.make(classes.asm, vec![], vec![(root, "subs")])
                })?;
                let mut parts = [asm; 3];
                for (slot, payload) in parts.iter_mut().zip(payloads) {
                    *slot = rec.call(CallKind::Make, || {
                        txn.make(classes.part, part_values(payload), vec![(asm, "parts")])
                    })?;
                }
                rec.call(CallKind::Commit, || txn.commit())?;
                Ok(Some(Ack::Ingest {
                    op: idx,
                    root,
                    asm,
                    parts,
                }))
            }
            Op::Update { writes } => {
                let parts: Vec<Oid> = writes.iter().map(|(a, _)| self.addr.part(*a)).collect();
                let mut txn = rec.call(CallKind::Begin, || self.cdb.begin_write());
                for (&oid, (_, payload)) in parts.iter().zip(writes) {
                    rec.call(CallKind::SetAttr, || {
                        txn.set_attr(oid, "payload", Value::Str(payload.clone()))
                    })?;
                }
                let lsn = rec.call(CallKind::Commit, || txn.commit())?;
                Ok(Some(Ack::Update {
                    op: idx,
                    lsn,
                    parts,
                }))
            }
            Op::Subtree { root } => {
                let oid = self.addr.root(*root).root;
                let snap = rec.call(CallKind::BeginRead, || self.cdb.begin_read());
                let got = rec.call(CallKind::Subtree, || snap.subtree_of(oid))?;
                self.addr.check_subtree(*root, &got, true)?;
                Ok(None)
            }
            Op::Components { root, asm } => {
                let oid = self.addr.root(*root).asms[*asm as usize];
                let snap = rec.call(CallKind::BeginRead, || self.cdb.begin_read());
                let got = rec.call(CallKind::Components, || snap.components_of(oid))?;
                self.addr.check_components(*root, *asm, &got)?;
                Ok(None)
            }
            Op::Ancestors(addr) => {
                let snap = rec.call(CallKind::BeginRead, || self.cdb.begin_read());
                let got = rec.call(CallKind::Ancestors, || {
                    snap.ancestors_of(self.addr.part(*addr))
                })?;
                self.addr.check_ancestors(*addr, &got)?;
                Ok(None)
            }
            Op::Get(addr) => {
                let snap = rec.call(CallKind::BeginRead, || self.cdb.begin_read());
                let obj = rec.call(CallKind::Get, || snap.get(self.addr.part(*addr)))?;
                self.addr
                    .check_part(*addr, payload_of(&obj), &obj.composite_parents())?;
                Ok(None)
            }
        }
    }
}

/// `Database::transaction` / `make` / `set_attr` / `components_of(&Filter)`
/// / `ancestors_of` / `get` — the single-threaded engine, no locks, no
/// versions, the traversal cache in play.
pub struct CoreBackend<'a> {
    pub db: Database,
    pub addr: Addressing<'a>,
}

impl Backend for CoreBackend<'_> {
    fn run_op(&mut self, idx: usize, op: &Op, rec: &mut Recorder) -> Res<Option<Ack>> {
        let classes = self.addr.seeded.classes;
        let all = Filter::all();
        match op {
            Op::Ingest { root, payloads } => {
                let root = self.addr.root(*root).root;
                let (asm, parts) = self.db.transaction(|db| {
                    let asm = db.make(classes.asm, vec![], vec![(root, "subs")])?;
                    let mut parts = [asm; 3];
                    for (slot, payload) in parts.iter_mut().zip(payloads) {
                        *slot =
                            db.make(classes.part, part_values(payload), vec![(asm, "parts")])?;
                    }
                    Ok((asm, parts))
                })?;
                Ok(Some(Ack::Ingest {
                    op: idx,
                    root,
                    asm,
                    parts,
                }))
            }
            Op::Update { writes } => {
                let parts: Vec<Oid> = writes.iter().map(|(a, _)| self.addr.part(*a)).collect();
                self.db.transaction(|db| {
                    for (&oid, (_, payload)) in parts.iter().zip(writes) {
                        db.set_attr(oid, "payload", Value::Str(payload.clone()))?;
                    }
                    Ok(())
                })?;
                Ok(Some(Ack::Update {
                    op: idx,
                    lsn: idx as u64,
                    parts,
                }))
            }
            Op::Subtree { root } => {
                let oid = self.addr.root(*root).root;
                let got = rec.call(CallKind::Subtree, || self.db.components_of(oid, &all))?;
                self.addr.check_subtree(*root, &got, false)?;
                Ok(None)
            }
            Op::Components { root, asm } => {
                let oid = self.addr.root(*root).asms[*asm as usize];
                let got = rec.call(CallKind::Components, || self.db.components_of(oid, &all))?;
                self.addr.check_components(*root, *asm, &got)?;
                Ok(None)
            }
            Op::Ancestors(addr) => {
                let oid = self.addr.part(*addr);
                let got = rec.call(CallKind::Ancestors, || self.db.ancestors_of(oid, &all))?;
                self.addr.check_ancestors(*addr, &got)?;
                Ok(None)
            }
            Op::Get(addr) => {
                let obj = rec.call(CallKind::Get, || self.db.get(self.addr.part(*addr)))?;
                self.addr
                    .check_part(*addr, payload_of(&obj), &obj.composite_parents())?;
                Ok(None)
            }
        }
    }
}

/// What the codec alone costs for the captured frames.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecCost {
    pub frames: usize,
    /// Mean nanoseconds per frame: encode + `write_frame`, and
    /// `read_frame` + decode, for requests and for responses.
    pub encode_req_ns: f64,
    pub decode_req_ns: f64,
    pub encode_resp_ns: f64,
    pub decode_resp_ns: f64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    /// False if any frame failed to round-trip to an equal value.
    pub round_trips: bool,
}

impl CodecCost {
    /// Codec nanoseconds per captured frame pair.
    pub fn ns_per_pair(&self) -> f64 {
        self.encode_req_ns + self.decode_req_ns + self.encode_resp_ns + self.decode_resp_ns
    }
}

/// Replays captured frames through the codec on in-memory buffers.
pub fn replay_codec(frames: &[(Request, Response)]) -> CodecCost {
    if frames.is_empty() {
        return CodecCost {
            round_trips: true,
            ..CodecCost::default()
        };
    }
    // Enough repetitions that each of the four loops runs for ~20 ms.
    let reps = (200_000 / frames.len()).clamp(1, 50);
    let per_frame = |total_ns: u64| total_ns as f64 / (frames.len() * reps) as f64;

    let mut wire_req = Vec::new();
    let mut wire_resp = Vec::new();
    let (mut enc_req, mut enc_resp) = (0u64, 0u64);
    for _ in 0..reps {
        wire_req.clear();
        wire_resp.clear();
        let start = now_ns();
        for (req, _) in frames {
            write_frame(&mut wire_req, &encode_request(req)).expect("write to a Vec");
        }
        let mid = now_ns();
        for (_, resp) in frames {
            write_frame(&mut wire_resp, &encode_response(resp)).expect("write to a Vec");
        }
        enc_req += mid - start;
        enc_resp += now_ns() - mid;
    }

    let (mut dec_req, mut dec_resp) = (0u64, 0u64);
    for _ in 0..reps {
        let mut r = Cursor::new(&wire_req);
        let start = now_ns();
        for _ in frames {
            let payload = read_frame(&mut r).expect("a frame this loop wrote");
            std::hint::black_box(decode_request(&payload).is_ok());
        }
        let mid = now_ns();
        let mut r = Cursor::new(&wire_resp);
        for _ in frames {
            let payload = read_frame(&mut r).expect("a frame this loop wrote");
            std::hint::black_box(decode_response(&payload).is_ok());
        }
        dec_req += mid - start;
        dec_resp += now_ns() - mid;
    }

    // Correctness, untimed: every frame decodes back to the value sent.
    let (mut r, mut p) = (Cursor::new(&wire_req), Cursor::new(&wire_resp));
    let round_trips = frames.iter().all(|(req, resp)| {
        let req_back = read_frame(&mut r)
            .ok()
            .and_then(|b| decode_request(&b).ok());
        let resp_back = read_frame(&mut p)
            .ok()
            .and_then(|b| decode_response(&b).ok());
        req_back.as_ref() == Some(req) && resp_back.as_ref() == Some(resp)
    });

    CodecCost {
        frames: frames.len(),
        encode_req_ns: per_frame(enc_req),
        decode_req_ns: per_frame(dec_req),
        encode_resp_ns: per_frame(enc_resp),
        decode_resp_ns: per_frame(dec_resp),
        req_bytes: wire_req.len() as u64,
        resp_bytes: wire_resp.len() as u64,
        round_trips,
    }
}
