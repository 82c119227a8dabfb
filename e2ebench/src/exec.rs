//! The closed-loop driver shared by every depth, and the bookkeeping of
//! one pass over the operation sequence.
//!
//! Connections (one thread each) pull operations from **one shared
//! sequence** through an atomic cursor and send the next only when the
//! previous one has been answered. A [`Backend`] executes an operation at
//! one depth of the stack — over the wire, through `ConcurrentDb`, or
//! against `Database` directly — and checks what came back against the
//! generator's model.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use corion::protocol::{Request, Response};
use corion::Oid;

use crate::stack::{Res, RootOids, Seeded};
use crate::trace::{self, now_ns, Layer};
use crate::workload::{seed_payload, Op, OpKind, PartAddr, Plan, PAYLOAD_LEN, PRIVATE_ROOTS};

/// A pass that has not finished after this long fails instead of hanging.
pub const WALL_LIMIT: Duration = Duration::from_secs(120);

/// One timed call into the layer a backend drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    Begin,
    Make,
    SetAttr,
    Commit,
    Abort,
    BeginRead,
    Subtree,
    Components,
    Ancestors,
    Get,
}

impl CallKind {
    pub const COUNT: usize = 10;

    pub fn name(self) -> &'static str {
        match self {
            CallKind::Begin => "begin",
            CallKind::Make => "make",
            CallKind::SetAttr => "set_attr",
            CallKind::Commit => "commit",
            CallKind::Abort => "abort",
            CallKind::BeginRead => "begin_read",
            CallKind::Subtree => "subtree",
            CallKind::Components => "components",
            CallKind::Ancestors => "ancestors",
            CallKind::Get => "get",
        }
    }
}

/// What an acknowledged commit promised, for the durability check.
#[derive(Debug, Clone)]
pub enum Ack {
    /// A new assembly with three parts under `root`; `op` indexes the
    /// sequence for the payloads.
    Ingest {
        op: usize,
        root: Oid,
        asm: Oid,
        parts: [Oid; 3],
    },
    /// Payload rewrites committed at `lsn`, in the op's write order.
    Update {
        op: usize,
        lsn: u64,
        parts: Vec<Oid>,
    },
}

/// Per-connection recorder handed to a backend for one operation.
pub struct Recorder {
    sampling: bool,
    request: u64,
    call_ns: [Vec<u64>; CallKind::COUNT],
    /// Calls timed so far.
    pub calls: u64,
    /// Calls made inside transactions (retries and aborts included).
    pub txn_calls: u64,
    pub retries: u64,
    /// Payload bytes in acknowledged writes.
    pub payload_bytes: u64,
    /// Request/response pairs, when the pass captures frames.
    pub frames: Option<Vec<(Request, Response)>>,
}

impl Recorder {
    fn new(capture: bool) -> Self {
        Recorder {
            sampling: false,
            request: 0,
            call_ns: Default::default(),
            calls: 0,
            txn_calls: 0,
            retries: 0,
            payload_bytes: 0,
            frames: capture.then(Vec::new),
        }
    }

    /// Times one call, keeps the sample past warm-up, and records a
    /// client-layer span when tracing is on.
    pub fn call<R>(&mut self, kind: CallKind, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.calls += 1;
        if self.sampling {
            self.call_ns[kind as usize].push(end - start);
        }
        trace::record(Layer::Call, kind.name(), start, end, Some(self.request));
        out
    }
}

/// Executes operations at one depth of the stack.
pub trait Backend {
    /// Runs one operation to completion (retries included) and checks
    /// its result; `Err` is a failed operation.
    fn run_op(&mut self, idx: usize, op: &Op, rec: &mut Recorder) -> Res<Option<Ack>>;
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    pub commits: u64,
    pub reads: u64,
    pub retries: u64,
    pub txn_calls: u64,
    pub payload_bytes: u64,
    /// Post-warm-up operation latencies by [`OpKind`].
    pub op_ns: [Vec<u64>; 5],
    /// Post-warm-up call latencies by [`CallKind`].
    pub call_ns: [Vec<u64>; CallKind::COUNT],
    /// Post-warm-up completion times of transactions and of reads.
    pub commit_done: Vec<u64>,
    pub read_done: Vec<u64>,
    /// The measured phase: from the first post-warm-up operation being
    /// pulled to the last completion.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The whole pass, warm-up included.
    pub wall_ns: u64,
    pub acks: Vec<Ack>,
    /// When each of `acks` was acknowledged.
    pub ack_ns: Vec<u64>,
    pub frames: Vec<(Request, Response)>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Pass {
    /// Post-warm-up completion times of every operation, either kind.
    pub fn done(&self) -> Vec<u64> {
        let mut all = self.commit_done.clone();
        all.extend(&self.read_done);
        all
    }

    pub fn ops_done(&self) -> u64 {
        self.commits + self.reads
    }

    pub fn op_samples(&mut self, kind: OpKind) -> &mut Vec<u64> {
        &mut self.op_ns[kind as usize]
    }

    pub fn call_samples(&mut self, kind: CallKind) -> &mut Vec<u64> {
        &mut self.call_ns[kind as usize]
    }

    /// Sum of all post-warm-up operation latencies.
    pub fn op_ns_total(&self) -> u64 {
        self.op_ns.iter().flatten().sum()
    }

    pub fn sampled_ops(&self) -> usize {
        self.op_ns.iter().map(Vec::len).sum()
    }
}

/// Runs the first `n_ops` operations of `plan` through `backends`, one
/// thread per backend, closed loop.
pub fn drive(
    plan: &Plan,
    n_ops: usize,
    capture: bool,
    backends: Vec<Box<dyn Backend + Send + '_>>,
) -> Pass {
    let n_ops = n_ops.min(plan.ops.len());
    let warmup = plan.warmup(n_ops);
    let cursor = AtomicUsize::new(0);
    let phase_start = AtomicU64::new(0);
    let timed_out = AtomicBool::new(false);
    let deadline = Instant::now() + WALL_LIMIT;
    let wall_start = now_ns();

    let parts: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = backends
            .into_iter()
            .map(|mut backend| {
                let (cursor, phase_start, timed_out) = (&cursor, &phase_start, &timed_out);
                s.spawn(move || {
                    let mut pass = Pass::default();
                    let mut rec = Recorder::new(capture);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        if i >= n_ops {
                            break;
                        }
                        if Instant::now() > deadline {
                            timed_out.store(true, Ordering::SeqCst);
                            break;
                        }
                        let op = &plan.ops[i];
                        let kind = op.kind();
                        let start = now_ns();
                        if i == warmup {
                            phase_start.store(start, Ordering::SeqCst);
                        }
                        rec.sampling = i >= warmup;
                        rec.request = i as u64;
                        let result = backend.run_op(i, op, &mut rec);
                        let end = now_ns();
                        trace::record(Layer::Op, kind.name(), start, end, Some(i as u64));
                        pass.attempted += 1;
                        match result {
                            Ok(ack) => {
                                if kind.is_read() {
                                    pass.reads += 1;
                                } else {
                                    pass.commits += 1;
                                }
                                if let Some(ack) = ack {
                                    pass.acks.push(ack);
                                    pass.ack_ns.push(end);
                                }
                                if rec.sampling {
                                    pass.op_ns[kind as usize].push(end - start);
                                    if kind.is_read() {
                                        pass.read_done.push(end);
                                    } else {
                                        pass.commit_done.push(end);
                                    }
                                }
                            }
                            Err(e) => {
                                pass.failed += 1;
                                if pass.errors.len() < 5 {
                                    pass.errors.push(format!("op {i} ({}): {e}", kind.name()));
                                }
                            }
                        }
                        pass.end_ns = end;
                    }
                    pass.call_ns = std::mem::take(&mut rec.call_ns);
                    pass.txn_calls = rec.txn_calls;
                    pass.retries = rec.retries;
                    pass.payload_bytes = rec.payload_bytes;
                    pass.frames = rec.frames.take().unwrap_or_default();
                    pass
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });

    let mut total = Pass {
        start_ns: phase_start.load(Ordering::SeqCst),
        wall_ns: now_ns() - wall_start,
        ..Pass::default()
    };
    for p in parts {
        total.attempted += p.attempted;
        total.failed += p.failed;
        total.commits += p.commits;
        total.reads += p.reads;
        total.retries += p.retries;
        total.txn_calls += p.txn_calls;
        total.payload_bytes += p.payload_bytes;
        for (all, mine) in total.op_ns.iter_mut().zip(p.op_ns) {
            all.extend(mine);
        }
        for (all, mine) in total.call_ns.iter_mut().zip(p.call_ns) {
            all.extend(mine);
        }
        total.commit_done.extend(p.commit_done);
        total.read_done.extend(p.read_done);
        total.end_ns = total.end_ns.max(p.end_ns);
        total.acks.extend(p.acks);
        total.ack_ns.extend(p.ack_ns);
        total.frames.extend(p.frames);
        total.errors.extend(p.errors);
    }
    if timed_out.load(Ordering::SeqCst) {
        total.failed += 1;
        total.errors.insert(
            0,
            format!("pass exceeded the {} s wall limit", WALL_LIMIT.as_secs()),
        );
    }
    total.errors.truncate(5);
    total
}

// ----------------------------------------------------------------------
// The generator's model: which objects an operation addresses and what a
// correct answer looks like. Shared by every backend.
// ----------------------------------------------------------------------

/// Resolves sequence addresses to OIDs for one connection.
pub struct Addressing<'a> {
    pub seeded: &'a Seeded,
    /// First root of this connection's private partition (0 when the
    /// workload shares its roots).
    base: usize,
    /// Reads must return the seed payload exactly (no writer exists).
    exact_payloads: bool,
}

impl<'a> Addressing<'a> {
    pub fn new(plan: &Plan, seeded: &'a Seeded, conn: usize) -> Self {
        Addressing {
            seeded,
            base: if plan.shape.private {
                conn * PRIVATE_ROOTS
            } else {
                0
            },
            exact_payloads: !plan.workload.writes(),
        }
    }

    pub fn root(&self, root: u32) -> &'a RootOids {
        &self.seeded.roots[self.base + root as usize]
    }

    pub fn part(&self, addr: PartAddr) -> Oid {
        self.root(addr.root).part(addr)
    }

    /// `got` must be exactly the composite under `root`; `with_self`
    /// says whether the root itself is part of the answer.
    pub fn check_subtree(&self, root: u32, got: &[Oid], with_self: bool) -> Result<(), String> {
        let want: Vec<Oid> = self
            .root(root)
            .subtree()
            .skip(usize::from(!with_self))
            .collect();
        same_set("subtree", got, want)
    }

    pub fn check_components(&self, root: u32, asm: u8, got: &[Oid]) -> Result<(), String> {
        same_set(
            "components",
            got,
            self.root(root).parts[asm as usize].to_vec(),
        )
    }

    pub fn check_ancestors(&self, addr: PartAddr, got: &[Oid]) -> Result<(), String> {
        let r = self.root(addr.root);
        same_set("ancestors", got, vec![r.asms[addr.asm as usize], r.root])
    }

    pub fn check_part(
        &self,
        addr: PartAddr,
        payload: Option<&str>,
        parents: &[Oid],
    ) -> Result<(), String> {
        let r = self.root(addr.root);
        if parents != [r.asms[addr.asm as usize]] {
            return Err(format!(
                "get: parents {parents:?} are not the part's assembly"
            ));
        }
        let payload = payload.ok_or("get: payload is not a string")?;
        if payload.len() != PAYLOAD_LEN {
            return Err(format!("get: payload of {} bytes", payload.len()));
        }
        if self.exact_payloads {
            // `addr.root` is absolute here: only shared-root workloads read.
            if payload != seed_payload(self.seeded.seed, addr) {
                return Err("get: payload differs from the seed data".into());
            }
        }
        Ok(())
    }
}

fn same_set(what: &str, got: &[Oid], mut want: Vec<Oid>) -> Result<(), String> {
    let mut got = got.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} objects returned, {} expected (or a different set)",
            got.len(),
            want.len()
        ))
    }
}
