//! Wire depth: operations through `corion-client` to `corion-server`.

use corion::protocol::{Request, Response};
use corion::{Client, ClientError, Oid, Value};

use crate::exec::{Ack, Addressing, Backend, CallKind, Recorder};
use crate::stack::{Classes, Res};
use crate::workload::{Op, PartAddr, Rng};

/// Attempts per transaction. `Client::with_txn(8, ..)` is not enough at
/// seed code: two transactions that lock the same two composites in
/// opposite order can be victimised alternately — each retry re-takes its
/// first lock before the parked survivor is woken — and 2 of 24 `mixed`
/// runs lost an operation after 8 attempts. From the third attempt on the
/// loop therefore pauses for a jittered moment, which breaks the lockstep.
const ATTEMPTS: u32 = 16;

pub struct WireBackend<'a> {
    client: Client,
    addr: Addressing<'a>,
    classes: Classes,
    /// Jitter for retry pauses; seeded per connection.
    jitter: Rng,
}

impl<'a> WireBackend<'a> {
    pub fn new(client: Client, addr: Addressing<'a>, conn: usize) -> Self {
        let classes = addr.seeded.classes;
        let jitter = Rng::new(addr.seeded.seed ^ (conn as u64 + 1));
        WireBackend {
            client,
            addr,
            classes,
            jitter,
        }
    }

    /// One round trip, timed under `kind`; captured when the pass asks.
    fn call(
        &mut self,
        rec: &mut Recorder,
        kind: CallKind,
        req: Request,
    ) -> Result<Response, ClientError> {
        let resp = rec.call(kind, || self.client.call(&req))?;
        if let Some(frames) = rec.frames.as_mut() {
            frames.push((req, resp.clone()));
        }
        Ok(resp)
    }

    /// The retry loop of `Client::with_txn`, with every round trip timed:
    /// a retryable failure (deadlock victim) aborts and starts over.
    fn txn<R>(
        &mut self,
        rec: &mut Recorder,
        mut body: impl FnMut(&mut Self, &mut Recorder) -> Result<R, ClientError>,
    ) -> Res<(R, u64)> {
        let mut last = None;
        for attempt in 0..ATTEMPTS {
            if attempt > 0 {
                rec.retries += 1;
            }
            if attempt >= 2 {
                let pause_us = self.jitter.below(100 * attempt as usize) as u64;
                std::thread::sleep(std::time::Duration::from_micros(pause_us));
            }
            let calls_before = rec.calls;
            let outcome = self.attempt(rec, &mut body);
            rec.txn_calls += rec.calls - calls_before;
            match outcome {
                Ok(done) => return Ok(done),
                Err(e) if e.is_retryable() => last = Some(e),
                Err(e) => return Err(e.into()),
            }
        }
        Err(format!(
            "{ATTEMPTS} attempts exhausted: {}",
            last.expect("at least one attempt ran")
        )
        .into())
    }

    fn attempt<R>(
        &mut self,
        rec: &mut Recorder,
        body: &mut impl FnMut(&mut Self, &mut Recorder) -> Result<R, ClientError>,
    ) -> Result<(R, u64), ClientError> {
        expect_ok(self.call(rec, CallKind::Begin, Request::Begin)?)?;
        match body(self, rec) {
            Ok(r) => match self.call(rec, CallKind::Commit, Request::Commit)? {
                Response::OkLsn(lsn) => Ok((r, lsn)),
                other => Err(unexpected("OkLsn", &other)),
            },
            Err(e) => {
                // The server already dropped a deadlock victim's
                // transaction; Abort then answers TransactionState.
                let _ = self.call(rec, CallKind::Abort, Request::Abort);
                Err(e)
            }
        }
    }

    fn make(
        &mut self,
        rec: &mut Recorder,
        class: corion::ClassId,
        payload: Option<&str>,
        parent: (Oid, &str),
    ) -> Result<Oid, ClientError> {
        let req = Request::Make {
            class,
            values: payload
                .map(|p| ("payload".to_string(), Value::Str(p.to_string())))
                .into_iter()
                .collect(),
            parents: vec![(parent.0, parent.1.to_string())],
        };
        match self.call(rec, CallKind::Make, req)? {
            Response::OkOid(oid) => Ok(oid),
            other => Err(unexpected("OkOid", &other)),
        }
    }

    fn oids(&mut self, rec: &mut Recorder, kind: CallKind, req: Request) -> Res<Vec<Oid>> {
        match self.call(rec, kind, req)? {
            Response::OkOids(oids) => Ok(oids),
            other => Err(unexpected("OkOids", &other).into()),
        }
    }

    fn get(&mut self, rec: &mut Recorder, addr: PartAddr) -> Res<()> {
        let oid = self.addr.part(addr);
        match self.call(rec, CallKind::Get, Request::Get { oid })? {
            Response::OkObject { attrs, parents, .. } => {
                let payload = attrs.iter().find_map(|(name, v)| match v {
                    Value::Str(s) if name == "payload" => Some(s.as_str()),
                    _ => None,
                });
                Ok(self.addr.check_part(addr, payload, &parents)?)
            }
            other => Err(unexpected("OkObject", &other).into()),
        }
    }
}

fn expect_ok(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::Ok => Ok(()),
        other => Err(unexpected("Ok", &other)),
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Unexpected(format!("wanted {wanted}, got {got:?}"))
}

impl Backend for WireBackend<'_> {
    fn run_op(&mut self, idx: usize, op: &Op, rec: &mut Recorder) -> Res<Option<Ack>> {
        match op {
            Op::Ingest { root, payloads } => {
                let root = self.addr.root(*root).root;
                let classes = self.classes;
                let ((asm, parts), _lsn) = self.txn(rec, |me, rec| {
                    let asm = me.make(rec, classes.asm, None, (root, "subs"))?;
                    let mut parts = [asm; 3];
                    for (slot, payload) in parts.iter_mut().zip(payloads) {
                        *slot = me.make(rec, classes.part, Some(payload), (asm, "parts"))?;
                    }
                    Ok((asm, parts))
                })?;
                rec.payload_bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();
                Ok(Some(Ack::Ingest {
                    op: idx,
                    root,
                    asm,
                    parts,
                }))
            }
            Op::Update { writes } => {
                let parts: Vec<Oid> = writes.iter().map(|(a, _)| self.addr.part(*a)).collect();
                let ((), lsn) = self.txn(rec, |me, rec| {
                    for (&oid, (_, payload)) in parts.iter().zip(writes) {
                        let req = Request::SetAttr {
                            oid,
                            attr: "payload".into(),
                            value: Value::Str(payload.clone()),
                        };
                        expect_ok(me.call(rec, CallKind::SetAttr, req)?)?;
                    }
                    Ok(())
                })?;
                rec.payload_bytes += writes.iter().map(|(_, p)| p.len() as u64).sum::<u64>();
                Ok(Some(Ack::Update {
                    op: idx,
                    lsn,
                    parts,
                }))
            }
            Op::Subtree { root } => {
                let oid = self.addr.root(*root).root;
                let got = self.oids(rec, CallKind::Subtree, Request::SubtreeOf { oid })?;
                self.addr.check_subtree(*root, &got, true)?;
                Ok(None)
            }
            Op::Components { root, asm } => {
                let oid = self.addr.root(*root).asms[*asm as usize];
                let got = self.oids(rec, CallKind::Components, Request::ComponentsOf { oid })?;
                self.addr.check_components(*root, *asm, &got)?;
                Ok(None)
            }
            Op::Ancestors(addr) => {
                let oid = self.addr.part(*addr);
                let got = self.oids(rec, CallKind::Ancestors, Request::AncestorsOf { oid })?;
                self.addr.check_ancestors(*addr, &got)?;
                Ok(None)
            }
            Op::Get(addr) => self.get(rec, *addr).map(|()| None),
        }
    }
}

/// Median round trip of `n` `Ping`s — a request with no engine work.
pub fn ping_rtts(client: &mut Client, n: usize) -> Result<Vec<u64>, ClientError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let start = crate::trace::now_ns();
        client.ping()?;
        out.push(crate::trace::now_ns() - start);
    }
    Ok(out)
}
