//! Per-connection sessions: handshake, request dispatch, authorization,
//! and the subscription loop.
//!
//! One thread per session (no async runtime — the engine's latches and
//! locks are thread-blocking anyway). A session is a tiny state machine:
//!
//! ```text
//! handshake → request loop ─ Subscribe → event loop → close
//!                         └─ close / idle timeout / shutdown
//! ```
//!
//! Reads outside a transaction pin a fresh MVCC [`Snapshot`] per request
//! (read-your-own-commits, never blocks writers). `Begin` binds at most
//! one [`WriteTxn`] to the session; inside it, reads go through the
//! transaction so the session sees its own uncommitted writes. A
//! deadlock inside a session transaction aborts it (the engine already
//! released its locks) and surfaces as the *retryable* `Deadlock` wire
//! error — the client owns the retry, matching the §7 victim contract.
//! Mutations outside a transaction autocommit through
//! [`ConcurrentDb::run_write`], which retries deadlock victims
//! internally.
//!
//! Authorization (§6) is enforced per request before the engine runs:
//! superuser (user 0) bypasses; everyone else needs an explicit
//! [`Decision::Granted`] — absence of authorization denies, with a
//! message distinguishing prohibition from absence. Lock order is always
//! auth store **outside** engine latch.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use corion_authz::{AuthObject, AuthType, Authorization, Decision, Sign, Strength, UserId};
use corion_concurrent::{Snapshot, WriteTxn};
use corion_core::schema::lattice;
use corion_core::{
    query, view, ClassBuilder, ClassId, CompositeSpec, DbError, DbResult, Domain, Filter, MakeSpec,
    Object, Oid, OverlayView, ParentRef, Value,
};
use corion_protocol::{
    decode_request, encode_response_into, ErrorCode, FrameError, FrameReader, FrameWriter, Request,
    Response, WireAuth, WireAuthObject, WireDomain, WireParent, WirePredicate, MAGIC, MAX_FRAME,
    VERSION,
};

use crate::Inner;

/// Granularity of the idle/shutdown poll while waiting for a request:
/// the connection's read timeout, set once when the session starts.
pub(crate) const POLL: Duration = Duration::from_millis(50);
/// Once a frame has started arriving, how long the rest may stall.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// Read timeout of a subscribed connection: the event loop only probes
/// the socket for a departed peer and must not hold events up.
const SUBSCRIBER_PROBE: Duration = Duration::from_millis(1);

/// What a session needs of its connection. `TcpStream` in production; a
/// scripted stream in the unit tests below.
pub(crate) trait Conn: Read + Write {
    /// Bounds every later `read`; `WouldBlock`/`TimedOut` when it fires.
    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        TcpStream::set_read_timeout(self, Some(timeout))
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

struct Session<'a, S> {
    inner: &'a Arc<Inner>,
    stream: S,
    /// Per-connection frame buffers: a round trip costs the server one
    /// `read` and one `write`, and allocates nothing for framing.
    reader: FrameReader,
    writer: FrameWriter,
    id: u64,
    user: UserId,
    txn: Option<WriteTxn>,
    /// OIDs created inside the currently open transaction: authorization
    /// for them cannot come from the committed state (they are not in it
    /// yet), so the creating session holds them implicitly until commit.
    created: HashSet<Oid>,
}

/// Runs one session to completion. Never panics outward; all failure
/// modes close the connection.
pub(crate) fn run(inner: Arc<Inner>, stream: TcpStream, id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = Session::new(&inner, stream, id).serve();
    // An abandoned open transaction aborts on drop (WriteTxn::drop).
}

impl<'a, S: Conn> Session<'a, S> {
    fn new(inner: &'a Arc<Inner>, stream: S, id: u64) -> Self {
        Session {
            inner,
            stream,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            id,
            user: UserId(0),
            txn: None,
            created: HashSet::new(),
        }
    }

    fn send(&mut self, resp: &Response) -> Result<(), FrameError> {
        let is_error = matches!(resp, Response::Error { .. });
        if is_error {
            self.inner.metrics.errors.inc();
        }
        let sent = self
            .writer
            .write(&mut self.stream, |buf| encode_response_into(resp, buf));
        match sent {
            // The writer refuses a payload the client's reader would drop
            // the connection on; answer with an error the client can type.
            Err(e) if e.kind() == io::ErrorKind::InvalidInput && !is_error => self.send_error(
                ErrorCode::Internal,
                format!("response exceeds MAX_FRAME ({MAX_FRAME} bytes); narrow the request"),
            ),
            sent => Ok(sent?),
        }
    }

    fn send_error(
        &mut self,
        code: ErrorCode,
        message: impl Into<String>,
    ) -> Result<(), FrameError> {
        self.send(&Response::Error {
            code,
            message: message.into(),
        })
    }

    /// Blocks until a request arrives. `Ok(None)` ends the session: the
    /// peer closed at a frame boundary, sat idle past the configured
    /// timeout, or the server is shutting down (the latter two get an
    /// error frame first). One loop over the frame reader: a lap is one
    /// `read` bounded by [`POLL`], so shutdown is noticed within one
    /// `POLL`; a timed-out lap counts toward `idle_timeout` when nothing
    /// is buffered and toward [`FRAME_TIMEOUT`] when a frame is cut short.
    fn read_request(&mut self) -> Result<Option<Request>, FrameError> {
        // Timed-out laps with nothing buffered, and inside a frame.
        let (mut idle, mut stalled) = (Duration::ZERO, Duration::ZERO);
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                let _ = self.send_error(ErrorCode::ShuttingDown, "server is shutting down");
                return Ok(None);
            }
            let decoded = match self.reader.read_frame(&mut self.stream) {
                Ok(payload) => decode_request(payload),
                Err(FrameError::Closed) => return Ok(None),
                Err(FrameError::Io(e)) if timed_out(&e) => {
                    if self.reader.buffered() > 0 {
                        stalled += POLL;
                        if stalled >= FRAME_TIMEOUT {
                            return Err(FrameError::Io(e));
                        }
                    } else {
                        idle += POLL;
                        if idle >= self.inner.idle_timeout {
                            self.inner.metrics.idle_timeouts.inc();
                            let _ = self.send_error(ErrorCode::IdleTimeout, "session idle timeout");
                            return Ok(None);
                        }
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            match decoded {
                Ok(req) => return Ok(Some(req)),
                Err(e) => {
                    // Framing is still in sync (the length prefix was
                    // valid); the error *is* the response — wait for the
                    // next request.
                    self.send_error(ErrorCode::Protocol, e.to_string())?;
                    (idle, stalled) = (Duration::ZERO, Duration::ZERO);
                }
            }
        }
    }

    fn serve(&mut self) -> Result<(), FrameError> {
        self.stream.set_read_timeout(POLL)?;
        // Handshake: the first frame must be Hello.
        let Some(req) = self.read_request()? else {
            return Ok(());
        };
        self.inner.metrics.requests.inc();
        match req {
            Request::Hello {
                magic,
                version,
                user,
            } => {
                if magic != MAGIC {
                    // Not our protocol; drop without replying (replying
                    // to a random scanner leaks what we are).
                    return Ok(());
                }
                if version != VERSION {
                    self.send_error(
                        ErrorCode::VersionMismatch,
                        format!("server speaks protocol v{VERSION}, client sent v{version}"),
                    )?;
                    return Ok(());
                }
                self.user = UserId(user);
                self.send(&Response::HelloOk {
                    version: VERSION,
                    session: self.id,
                })?;
            }
            _ => {
                self.send_error(ErrorCode::Protocol, "expected Hello as the first message")?;
                return Ok(());
            }
        }

        loop {
            let Some(req) = self.read_request()? else {
                return Ok(());
            };
            self.inner.metrics.requests.inc();
            match req {
                Request::Hello { .. } => {
                    self.send_error(ErrorCode::Protocol, "session already established")?;
                }
                Request::Subscribe => {
                    return self.subscribe_loop();
                }
                Request::Shutdown => {
                    if self.user.0 != 0 {
                        self.send_error(ErrorCode::AuthDenied, "Shutdown requires the superuser")?;
                        continue;
                    }
                    self.inner.shutdown.store(true, Ordering::SeqCst);
                    self.send(&Response::Ok)?;
                    return Ok(());
                }
                other => {
                    let resp = self.dispatch(other);
                    self.send(&resp)?;
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // Subscription mode
    // ----------------------------------------------------------------

    /// Turns the connection into a one-way event stream. The §6 store
    /// has no per-event filter, so streams are superuser-only — a
    /// change stream would otherwise leak every object's existence.
    fn subscribe_loop(&mut self) -> Result<(), FrameError> {
        if self.user.0 != 0 {
            self.send_error(ErrorCode::AuthDenied, "Subscribe requires the superuser")?;
            return Ok(());
        }
        if self.txn.is_some() {
            self.send_error(
                ErrorCode::TransactionState,
                "cannot subscribe with an open transaction",
            )?;
            return Ok(());
        }
        let sub = self.inner.streams.subscribe(&self.inner.db);
        self.send(&Response::SubscribeOk {
            start_lsn: sub.start_lsn,
        })?;
        self.stream.set_read_timeout(SUBSCRIBER_PROBE)?;
        let mut byte = [0u8; 1];
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                let _ = self.send_error(ErrorCode::ShuttingDown, "server is shutting down");
                return Ok(());
            }
            match sub.events.recv_timeout(POLL) {
                Ok(ev) => {
                    self.send(&Response::Event {
                        commit_lsn: ev.commit_lsn,
                        deltas: ev.deltas,
                    })?;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Detect a departed peer, so its subscription detaches
                    // now and not at the next event. The stream is one-way
                    // from here: anything the peer still sends is read and
                    // dropped.
                    match self.stream.read(&mut byte) {
                        Ok(0) => return Ok(()),
                        Err(e) if !timed_out(&e) && e.kind() != io::ErrorKind::Interrupted => {
                            return Ok(());
                        }
                        _ => {}
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let code = if sub.lagged.load(Ordering::SeqCst) {
                        (
                            ErrorCode::SlowConsumer,
                            "event queue overflowed; re-subscribe and reconcile",
                        )
                    } else {
                        (ErrorCode::ShuttingDown, "change stream closed")
                    };
                    let _ = self.send_error(code.0, code.1);
                    return Ok(());
                }
            }
        }
    }

    // ----------------------------------------------------------------
    // Authorization
    // ----------------------------------------------------------------

    fn deny(&self, d: Decision, what: String) -> Response {
        let message = match d {
            Decision::Prohibited => format!("{what}: prohibited by a negative authorization"),
            _ => format!("{what}: no authorization (absence, not prohibition)"),
        };
        Response::Error {
            code: ErrorCode::AuthDenied,
            message,
        }
    }

    /// Per-instance check. The composite single-check benefit (§6) is in
    /// the store: a grant on any ancestor answers for the whole object.
    fn authz_instance(&self, ty: AuthType, oid: Oid) -> Result<(), Response> {
        if self.user.0 == 0 || self.created.contains(&oid) {
            return Ok(());
        }
        let auth = self.inner.auth.read();
        let decision = self
            .inner
            .db
            .with_read(|d| auth.check(d, self.user, ty, oid));
        match decision {
            Ok(Decision::Granted) => Ok(()),
            Ok(d) => Err(self.deny(d, format!("{ty:?} on {oid:?}"))),
            Err(e) => Err(Response::Error {
                code: ErrorCode::AuthDenied,
                message: format!("{ty:?} on {oid:?}: {e}"),
            }),
        }
    }

    /// Class-granule check, for operations with no object to anchor on
    /// (parentless make, extension scans). Instance grants do not
    /// contribute at this granule.
    fn authz_class(&self, ty: AuthType, class: ClassId) -> Result<(), Response> {
        if self.user.0 == 0 {
            return Ok(());
        }
        let auth = self.inner.auth.read();
        let decision = self
            .inner
            .db
            .with_read(|d| auth.check_class(d, self.user, ty, class));
        match decision {
            Decision::Granted => Ok(()),
            d => Err(self.deny(d, format!("{ty:?} on class {class:?}"))),
        }
    }

    fn superuser_only(&self, what: &str) -> Result<(), Response> {
        if self.user.0 == 0 {
            Ok(())
        } else {
            Err(Response::Error {
                code: ErrorCode::AuthDenied,
                message: format!("{what} requires the superuser"),
            })
        }
    }

    // ----------------------------------------------------------------
    // Dispatch
    // ----------------------------------------------------------------

    fn dispatch(&mut self, req: Request) -> Response {
        match self.dispatch_inner(req) {
            Ok(resp) => resp,
            Err(resp) => resp,
        }
    }

    /// `Err` carries an early-out response (authorization denials);
    /// `Ok` the real answer.
    fn dispatch_inner(&mut self, req: Request) -> Result<Response, Response> {
        Ok(match req {
            // Handled by `serve` before dispatch.
            Request::Hello { .. } | Request::Subscribe | Request::Shutdown => Response::Error {
                code: ErrorCode::Protocol,
                message: "control message outside the session loop".into(),
            },
            Request::Ping => Response::Pong,

            // -- transaction control --------------------------------
            Request::Begin => {
                if self.txn.is_some() {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "a transaction is already open on this session".into(),
                    });
                }
                self.txn = Some(self.inner.db.begin_write());
                self.created.clear();
                Response::Ok
            }
            Request::Commit => match self.txn.take() {
                None => {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "no open transaction".into(),
                    })
                }
                Some(txn) => {
                    self.created.clear();
                    match txn.commit() {
                        Ok(lsn) => Response::OkLsn(lsn),
                        Err(e) => Response::from_db_error(&e),
                    }
                }
            },
            Request::Abort => match self.txn.take() {
                None => {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "no open transaction".into(),
                    })
                }
                Some(mut txn) => {
                    txn.abort();
                    self.created.clear();
                    Response::Ok
                }
            },

            // -- mutations ------------------------------------------
            Request::Make {
                class,
                values,
                parents,
            } => {
                if parents.is_empty() {
                    self.authz_class(AuthType::Write, class)?;
                } else {
                    for (p, _) in &parents {
                        self.authz_instance(AuthType::Write, *p)?;
                    }
                }
                let result = self.mutate(|txn| {
                    let v: Vec<(&str, Value)> = values
                        .iter()
                        .map(|(n, v)| (n.as_str(), v.clone()))
                        .collect();
                    let p: Vec<(Oid, &str)> =
                        parents.iter().map(|(o, a)| (*o, a.as_str())).collect();
                    txn.make(class, v, p)
                });
                match result {
                    Ok(oid) => {
                        if self.txn.is_some() {
                            self.created.insert(oid);
                        }
                        Response::OkOid(oid)
                    }
                    Err(e) => self.txn_error(e),
                }
            }
            Request::SetAttr { oid, attr, value } => {
                self.authz_instance(AuthType::Write, oid)?;
                match self.mutate(|txn| txn.set_attr(oid, &attr, value.clone())) {
                    Ok(()) => Response::Ok,
                    Err(e) => self.txn_error(e),
                }
            }
            Request::Delete { oid } => {
                self.authz_instance(AuthType::Write, oid)?;
                match self.mutate(|txn| txn.delete(oid)) {
                    Ok(gone) => Response::OkOids(gone),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::MakeComponent {
                child,
                parent,
                attr,
            } => {
                self.authz_instance(AuthType::Write, parent)?;
                self.authz_instance(AuthType::Write, child)?;
                match self.mutate(|txn| txn.make_component(child, parent, &attr)) {
                    Ok(()) => Response::Ok,
                    Err(e) => self.txn_error(e),
                }
            }
            Request::RemoveComponent {
                child,
                parent,
                attr,
            } => {
                self.authz_instance(AuthType::Write, parent)?;
                self.authz_instance(AuthType::Write, child)?;
                match self.mutate(|txn| txn.remove_component(child, parent, &attr)) {
                    Ok(()) => Response::Ok,
                    Err(e) => self.txn_error(e),
                }
            }
            Request::MakeMany { specs } => {
                // Stop-the-world bulk ingest: exclusive, not transactional.
                self.superuser_only("MakeMany")?;
                if self.txn.is_some() {
                    return Err(Response::Error {
                        code: ErrorCode::TransactionState,
                        message: "MakeMany cannot run inside an open transaction".into(),
                    });
                }
                let native: Vec<MakeSpec> = specs
                    .iter()
                    .map(|s| MakeSpec {
                        class: s.class,
                        values: s.values.clone(),
                        parents: s
                            .parents
                            .iter()
                            .map(|(p, a)| {
                                let pr = match p {
                                    WireParent::Existing(o) => ParentRef::Existing(*o),
                                    WireParent::Created(i) => ParentRef::Created(*i as usize),
                                };
                                (pr, a.clone())
                            })
                            .collect(),
                    })
                    .collect();
                match self.inner.db.with_exclusive(|d| d.make_many(&native)) {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => Response::from_db_error(&e),
                }
            }

            // -- reads ----------------------------------------------
            Request::Get { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                self.read_object(oid)
            }
            Request::GetAttr { oid, attr } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.get_attr(oid, &attr),
                    None => self.inner.db.begin_read().get_attr(oid, &attr),
                };
                match r {
                    Ok(v) => Response::OkValue(v),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::Exists { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.exists(oid),
                    None => self.inner.db.begin_read().exists(oid),
                };
                match r {
                    Ok(b) => Response::OkBool(b),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::InstancesOf { class, deep } => {
                self.authz_class(AuthType::Read, class)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[], |v| Ok(v.instances_of(class, deep))),
                    None => self.inner.db.begin_read().instances_of(class, deep),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::ComponentsOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |mut v| {
                        view::components_of(&mut v, oid, &Filter::all().level(1))
                    }),
                    None => self.inner.db.begin_read().components_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::ParentsOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |mut v| {
                        view::parents_of(&mut v, oid, &Filter::all())
                    }),
                    None => self.inner.db.begin_read().parents_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::AncestorsOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |mut v| {
                        view::ancestors_of(&mut v, oid, &Filter::all())
                    }),
                    None => self.inner.db.begin_read().ancestors_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::SubtreeOf { oid } => {
                self.authz_instance(AuthType::Read, oid)?;
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[oid], |mut v| view::subtree_of(&mut v, oid)),
                    None => self.inner.db.begin_read().subtree_of(oid),
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }
            Request::Select {
                class,
                deep,
                predicate,
                limit,
            } => {
                self.authz_class(AuthType::Read, class)?;
                let limit = (limit != 0).then_some(limit as usize);
                let r = match &mut self.txn {
                    Some(txn) => txn.with_view(&[], |v| {
                        run_select(&View::Txn(v), class, deep, &predicate, limit, |c| {
                            let mut set: HashSet<ClassId> =
                                lattice::descendants(v.catalog(), c).into_iter().collect();
                            set.insert(c);
                            set
                        })
                    }),
                    None => {
                        let snap = self.inner.db.begin_read();
                        // Precompute subclass sets outside the snapshot's
                        // internal latching (descendants needs the catalog).
                        let classes = collect_classes(&predicate);
                        let mut desc: HashMap<ClassId, HashSet<ClassId>> = HashMap::new();
                        self.inner.db.with_read(|d| {
                            for c in classes {
                                let mut set: HashSet<ClassId> =
                                    lattice::descendants(d.catalog(), c).into_iter().collect();
                                set.insert(c);
                                desc.insert(c, set);
                            }
                        });
                        run_select(&View::Snap(&snap), class, deep, &predicate, limit, |c| {
                            desc.get(&c).cloned().unwrap_or_default()
                        })
                    }
                };
                match r {
                    Ok(oids) => Response::OkOids(oids),
                    Err(e) => self.txn_error(e),
                }
            }

            // -- catalog --------------------------------------------
            Request::ClassByName { name } => {
                match self
                    .inner
                    .db
                    .with_read(|d| d.class_by_name(&name).map(|c| (c, name.clone())))
                {
                    Ok((class, name)) => Response::OkClass { class, name },
                    Err(e) => Response::from_db_error(&e),
                }
            }
            Request::ListClasses => {
                let classes = self.inner.db.with_read(|d| {
                    let mut out: Vec<(ClassId, String)> = d
                        .catalog()
                        .all_classes()
                        .into_iter()
                        .filter_map(|c| d.class(c).ok().map(|cl| (c, cl.name.clone())))
                        .collect();
                    out.sort();
                    out
                });
                Response::OkClasses(classes)
            }
            Request::DefineClass {
                name,
                supers,
                attrs,
            } => {
                self.superuser_only("DefineClass")?;
                let result = self.inner.db.with_exclusive(|d| {
                    let mut builder = ClassBuilder::new(name.clone());
                    for s in &supers {
                        builder = builder.superclass(d.catalog().by_name(s)?);
                    }
                    for a in &attrs {
                        builder = match a.composite {
                            Some((exclusive, dependent)) => builder.attr_composite(
                                a.name.clone(),
                                to_domain(&a.domain),
                                CompositeSpec {
                                    exclusive,
                                    dependent,
                                },
                            ),
                            None => builder.attr(a.name.clone(), to_domain(&a.domain)),
                        };
                    }
                    d.define_class(builder)
                });
                match result {
                    Ok(class) => Response::OkClass { class, name },
                    Err(e) => Response::from_db_error(&e),
                }
            }

            // -- administration -------------------------------------
            Request::Metrics => {
                Response::OkText(self.inner.db.with_read(|d| d.render_prometheus()))
            }
            Request::Grant { user, object, auth } => {
                self.superuser_only("Grant")?;
                let a = to_authorization(auth);
                let object = to_auth_object(object);
                let mut store = self.inner.auth.write();
                let r = self
                    .inner
                    .db
                    .with_read(|d| store.grant(d, UserId(user), object, a));
                match r {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error {
                        code: ErrorCode::Constraint,
                        message: e.to_string(),
                    },
                }
            }
            Request::Revoke { user, object, auth } => {
                self.superuser_only("Revoke")?;
                let removed = self.inner.auth.write().revoke(
                    UserId(user),
                    to_auth_object(object),
                    to_authorization(auth),
                );
                Response::OkBool(removed)
            }
        })
    }

    /// Runs a mutation: through the open session transaction if there is
    /// one, else as an autocommit via [`ConcurrentDb::run_write`] (which
    /// retries deadlock victims itself).
    fn mutate<R>(&mut self, mut op: impl FnMut(&mut WriteTxn) -> DbResult<R>) -> DbResult<R> {
        match &mut self.txn {
            Some(txn) => op(txn),
            None => self.inner.db.run_write(|txn| op(txn)),
        }
    }

    /// Maps an engine error to the wire, clearing the session
    /// transaction if the engine already aborted it (deadlock victims
    /// release their locks immediately — §7).
    fn txn_error(&mut self, e: DbError) -> Response {
        if matches!(e, DbError::Deadlock { .. }) {
            // run_op aborted the transaction before returning the error.
            self.txn = None;
            self.created.clear();
        }
        Response::from_db_error(&e)
    }

    fn read_object(&mut self, oid: Oid) -> Response {
        let result: DbResult<(Object, Vec<String>)> = match &mut self.txn {
            Some(txn) => txn.with_view(&[oid], |v| {
                let obj = v.get(oid)?;
                let names = v
                    .catalog()
                    .class(oid.class)?
                    .attrs
                    .iter()
                    .map(|a| a.name.clone())
                    .collect();
                Ok((obj, names))
            }),
            None => {
                let snap = self.inner.db.begin_read();
                snap.get(oid).and_then(|obj| {
                    let names = self.inner.db.with_read(|d| -> DbResult<Vec<String>> {
                        Ok(d.class(oid.class)?
                            .attrs
                            .iter()
                            .map(|a| a.name.clone())
                            .collect())
                    })?;
                    Ok((obj, names))
                })
            }
        };
        match result {
            Ok((obj, names)) => Response::OkObject {
                oid,
                parents: obj.composite_parents(),
                attrs: names.into_iter().zip(obj.attrs).collect(),
            },
            Err(e) => self.txn_error(e),
        }
    }
}

// -------------------------------------------------------------------
// Read helpers shared by the transaction and snapshot paths
// -------------------------------------------------------------------

/// A read view the predicate evaluator is generic over: an MVCC
/// snapshot (no transaction) or a transaction's own view (inside
/// `with_view`).
enum View<'a> {
    Snap(&'a Snapshot),
    Txn(OverlayView<'a>),
}

impl View<'_> {
    fn get(&self, oid: Oid) -> DbResult<Object> {
        match self {
            View::Snap(s) => s.get(oid),
            View::Txn(v) => v.get(oid),
        }
    }

    fn exists(&self, oid: Oid) -> DbResult<bool> {
        match self {
            View::Snap(s) => s.exists(oid),
            View::Txn(v) => Ok(v.exists(oid)),
        }
    }

    fn attr(&self, oid: Oid, attr: &str) -> DbResult<Value> {
        match self {
            View::Snap(s) => s.get_attr(oid, attr),
            View::Txn(v) => v.get_attr(oid, attr),
        }
    }

    fn instances_of(&self, class: ClassId, deep: bool) -> DbResult<Vec<Oid>> {
        match self {
            View::Snap(s) => s.instances_of(class, deep),
            View::Txn(v) => Ok(v.instances_of(class, deep)),
        }
    }

    fn subtree(&self, oid: Oid) -> DbResult<Vec<Oid>> {
        match self {
            View::Snap(s) => s.subtree_of(oid),
            View::Txn(v) => {
                let mut v = *v;
                view::subtree_of(&mut v, oid)
            }
        }
    }
}

/// Classes named by `HasComponentOfClass` anywhere in the predicate
/// (their subclass sets are precomputed before evaluation).
fn collect_classes(p: &WirePredicate) -> Vec<ClassId> {
    let mut out = Vec::new();
    let mut stack = vec![p];
    while let Some(p) = stack.pop() {
        match p {
            WirePredicate::HasComponentOfClass(c) => out.push(*c),
            WirePredicate::And(ps) | WirePredicate::Or(ps) => stack.extend(ps.iter()),
            WirePredicate::Not(inner) => stack.push(inner),
            _ => {}
        }
    }
    out
}

/// Server-side `Select`: scan the extension, evaluate the wire
/// predicate per object. Mirrors `corion_core::query::Query::run`
/// semantics exactly — including [`query::compare`] for orderings —
/// but over an MVCC view instead of the single-threaded engine.
fn run_select(
    view: &View<'_>,
    class: ClassId,
    deep: bool,
    predicate: &WirePredicate,
    limit: Option<usize>,
    descendants: impl Fn(ClassId) -> HashSet<ClassId>,
) -> DbResult<Vec<Oid>> {
    let mut ctx = EvalCtx {
        subtrees: BTreeMap::new(),
        descendants: HashMap::new(),
    };
    let mut classes_needed = collect_classes(predicate);
    classes_needed.sort();
    classes_needed.dedup();
    for c in classes_needed {
        ctx.descendants.insert(c, descendants(c));
    }
    let mut out = Vec::new();
    for oid in view.instances_of(class, deep)? {
        if !view.exists(oid)? {
            continue;
        }
        if eval(view, predicate, oid, &mut ctx)? {
            out.push(oid);
            if Some(out.len()) == limit {
                break;
            }
        }
    }
    Ok(out)
}

struct EvalCtx {
    /// Cached component subtrees for `ComponentOf` targets.
    subtrees: BTreeMap<Oid, HashSet<Oid>>,
    /// Cached subclass sets (self included) for `HasComponentOfClass`.
    descendants: HashMap<ClassId, HashSet<ClassId>>,
}

fn eval(view: &View<'_>, p: &WirePredicate, oid: Oid, ctx: &mut EvalCtx) -> DbResult<bool> {
    use std::cmp::Ordering as Ord_;
    Ok(match p {
        WirePredicate::True => true,
        WirePredicate::Eq(attr, v) => &view.attr(oid, attr)? == v,
        WirePredicate::Ne(attr, v) => &view.attr(oid, attr)? != v,
        WirePredicate::Lt(attr, v) => query::compare(&view.attr(oid, attr)?, v) == Some(Ord_::Less),
        WirePredicate::Gt(attr, v) => {
            query::compare(&view.attr(oid, attr)?, v) == Some(Ord_::Greater)
        }
        WirePredicate::References(attr, target) => view.attr(oid, attr)?.references(*target),
        WirePredicate::ComponentOf(target) => {
            if !ctx.subtrees.contains_key(target) {
                let set: HashSet<Oid> = view.subtree(*target)?.into_iter().collect();
                ctx.subtrees.insert(*target, set);
            }
            oid != *target && ctx.subtrees[target].contains(&oid)
        }
        WirePredicate::HasCompositeParent => !view.get(oid)?.composite_parents().is_empty(),
        WirePredicate::HasComponentOfClass(class) => {
            let classes = ctx.descendants.get(class).cloned().unwrap_or_default();
            view.subtree(oid)?
                .into_iter()
                .any(|o| o != oid && classes.contains(&o.class))
        }
        WirePredicate::And(ps) => {
            for p in ps {
                if !eval(view, p, oid, ctx)? {
                    return Ok(false);
                }
            }
            true
        }
        WirePredicate::Or(ps) => {
            for p in ps {
                if eval(view, p, oid, ctx)? {
                    return Ok(true);
                }
            }
            false
        }
        WirePredicate::Not(inner) => !eval(view, inner, oid, ctx)?,
    })
}

// -------------------------------------------------------------------
// Wire → engine conversions
// -------------------------------------------------------------------

fn to_domain(w: &WireDomain) -> Domain {
    match w {
        WireDomain::Integer => Domain::Integer,
        WireDomain::Float => Domain::Float,
        WireDomain::Boolean => Domain::Boolean,
        WireDomain::String => Domain::String,
        WireDomain::Class(c) => Domain::Class(*c),
        WireDomain::SetOf(inner) => Domain::SetOf(Box::new(to_domain(inner))),
        WireDomain::Any => Domain::Any,
    }
}

fn to_authorization(w: WireAuth) -> Authorization {
    Authorization::new(
        if w.is_weak() {
            Strength::Weak
        } else {
            Strength::Strong
        },
        if w.is_negative() {
            Sign::Negative
        } else {
            Sign::Positive
        },
        if w.is_write() {
            AuthType::Write
        } else {
            AuthType::Read
        },
    )
}

fn to_auth_object(w: WireAuthObject) -> AuthObject {
    match w {
        WireAuthObject::Database => AuthObject::Database,
        WireAuthObject::Class(c) => AuthObject::Class(c),
        WireAuthObject::Instance(o) => AuthObject::Instance(o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corion_authz::AuthStore;
    use corion_concurrent::ConcurrentDb;
    use corion_protocol::{decode_response, encode_request, read_frame, write_frame};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    use crate::metrics::ServerMetrics;
    use crate::stream::ChangeStreams;

    fn inner(idle_timeout: Duration) -> Arc<Inner> {
        let db = ConcurrentDb::new();
        let registry = db.with_read(|d| d.metrics_registry().clone());
        let metrics = Arc::new(ServerMetrics::new(&registry));
        Arc::new(Inner {
            db,
            auth: parking_lot::RwLock::new(AuthStore::new()),
            streams: ChangeStreams::new(4, Arc::clone(&metrics)),
            metrics,
            shutdown: AtomicBool::new(false),
            idle_timeout,
            sessions: AtomicUsize::new(0),
            max_sessions: 1,
            next_session: AtomicU64::new(1),
        })
    }

    /// What the scripted peer does at one `read`.
    enum Step {
        /// These bytes arrive (one segment).
        Arrive(Vec<u8>),
        /// The read times out this many times in a row.
        Stall(usize),
        /// The server's shutdown flag is raised while the read waits.
        Shutdown(Arc<Inner>),
    }

    /// A connection that follows a script and counts calls. After the
    /// script it stalls forever if `then_stall`, else reports EOF.
    struct Scripted {
        script: VecDeque<Step>,
        then_stall: bool,
        /// Reads that delivered bytes / reads in all (timeouts, EOF too).
        data_reads: usize,
        reads: usize,
        writes: Vec<Vec<u8>>,
        timeouts_set: std::cell::RefCell<Vec<Duration>>,
    }

    impl Scripted {
        fn new(script: Vec<Step>, then_stall: bool) -> Self {
            Scripted {
                script: script.into(),
                then_stall,
                data_reads: 0,
                reads: 0,
                writes: Vec::new(),
                timeouts_set: Default::default(),
            }
        }

        fn responses(&self) -> Vec<Response> {
            self.writes
                .iter()
                .map(|w| {
                    let mut r = &w[..];
                    let payload = read_frame(&mut r).expect("each write is one frame");
                    assert!(r.is_empty(), "and nothing but that frame");
                    decode_response(&payload).unwrap()
                })
                .collect()
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let stall = || Err(io::Error::from(io::ErrorKind::WouldBlock));
            match self.script.pop_front() {
                Some(Step::Arrive(bytes)) => {
                    self.data_reads += 1;
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Step::Stall(n)) => {
                    if n > 1 {
                        self.script.push_front(Step::Stall(n - 1));
                    }
                    stall()
                }
                Some(Step::Shutdown(inner)) => {
                    inner.shutdown.store(true, Ordering::SeqCst);
                    stall()
                }
                None if self.then_stall => stall(),
                None => Ok(0),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Conn for &mut Scripted {
        fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
            self.timeouts_set.borrow_mut().push(timeout);
            Ok(())
        }
    }

    fn frames(reqs: &[Request]) -> Vec<u8> {
        let mut wire = Vec::new();
        for req in reqs {
            write_frame(&mut wire, &encode_request(req)).unwrap();
        }
        wire
    }

    fn hello() -> Step {
        Step::Arrive(frames(&[Request::Hello {
            magic: MAGIC,
            version: VERSION,
            user: 0,
        }]))
    }

    fn error_code(resp: &Response) -> Option<ErrorCode> {
        match resp {
            Response::Error { code, .. } => Some(*code),
            _ => None,
        }
    }

    #[test]
    fn a_request_costs_one_read_and_one_write() {
        let inner = inner(Duration::from_secs(300));
        let mut conn = Scripted::new(
            vec![
                hello(),
                Step::Arrive(frames(&[Request::Ping])),
                Step::Arrive(frames(&[Request::ListClasses])),
                Step::Arrive(frames(&[Request::Ping])),
            ],
            false,
        );
        Session::new(&inner, &mut conn, 7).serve().unwrap();
        assert_eq!(conn.data_reads, 4, "one read per whole-frame arrival");
        assert_eq!(conn.reads, 5, "plus the one that saw the close");
        assert_eq!(conn.writes.len(), 4, "one write per response frame");
        assert_eq!(
            conn.timeouts_set.take(),
            [POLL],
            "set once, at session start"
        );
        assert!(matches!(
            conn.responses()[..],
            [
                Response::HelloOk { session: 7, .. },
                Response::Pong,
                Response::OkClasses(_),
                Response::Pong
            ]
        ));
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_and_a_bad_payload_keeps_framing() {
        let inner = inner(Duration::from_secs(300));
        // One segment: Ping, an undecodable payload in a well-formed
        // frame, ListClasses, Ping.
        let mut segment = frames(&[Request::Ping]);
        write_frame(&mut segment, &[0xff, 1, 2]).unwrap();
        segment.extend(frames(&[Request::ListClasses, Request::Ping]));
        let mut conn = Scripted::new(vec![hello(), Step::Arrive(segment)], false);
        Session::new(&inner, &mut conn, 1).serve().unwrap();
        assert_eq!(conn.data_reads, 2, "the whole pipeline came in one read");
        let responses = conn.responses();
        assert!(matches!(
            responses[..],
            [
                Response::HelloOk { .. },
                Response::Pong,
                Response::Error { .. },
                Response::OkClasses(_),
                Response::Pong
            ]
        ));
        assert_eq!(error_code(&responses[2]), Some(ErrorCode::Protocol));
    }

    #[test]
    fn a_bad_length_closes_the_connection_without_a_reply() {
        let inner = inner(Duration::from_secs(300));
        let mut conn = Scripted::new(
            vec![hello(), Step::Arrive(0u32.to_le_bytes().to_vec())],
            true,
        );
        let end = Session::new(&inner, &mut conn, 1).serve();
        assert!(matches!(end, Err(FrameError::BadLength(0))));
        assert_eq!(conn.writes.len(), 1, "only HelloOk was ever sent");
    }

    #[test]
    fn an_idle_session_gets_the_typed_timeout_frame() {
        let inner = inner(3 * POLL);
        let mut conn = Scripted::new(vec![hello()], true);
        Session::new(&inner, &mut conn, 1).serve().unwrap();
        assert_eq!(conn.reads, 1 + 3, "three timed-out laps reach 3 × POLL");
        let responses = conn.responses();
        assert_eq!(responses.len(), 2);
        assert_eq!(error_code(&responses[1]), Some(ErrorCode::IdleTimeout));
    }

    #[test]
    fn a_mid_frame_stall_is_closed_after_frame_timeout_not_idle_timeout() {
        // Idle timeout far below FRAME_TIMEOUT: a frame cut short must
        // not be mistaken for idleness (and gets no IdleTimeout frame).
        let inner = inner(2 * POLL);
        let ping = frames(&[Request::Ping]);
        let mut conn = Scripted::new(vec![hello(), Step::Arrive(ping[..3].to_vec())], true);
        let end = Session::new(&inner, &mut conn, 1).serve();
        assert!(matches!(end, Err(FrameError::Io(e)) if timed_out(&e)));
        let laps = (FRAME_TIMEOUT.as_millis() / POLL.as_millis()) as usize;
        assert_eq!(conn.reads, 2 + laps);
        assert_eq!(conn.writes.len(), 1, "only HelloOk was ever sent");

        // The rest of the frame arriving in time is served normally, and
        // laps spent idle before the frame began do not count against it.
        let inner = self::inner(Duration::from_secs(300));
        let mut conn = Scripted::new(
            vec![
                hello(),
                Step::Stall(laps / 2),
                Step::Arrive(ping[..3].to_vec()),
                Step::Stall(laps - 1),
                Step::Arrive(ping[3..].to_vec()),
            ],
            false,
        );
        Session::new(&inner, &mut conn, 1).serve().unwrap();
        assert!(matches!(
            conn.responses()[..],
            [Response::HelloOk { .. }, Response::Pong]
        ));
    }

    #[test]
    fn shutdown_is_noticed_within_one_poll() {
        let inner = inner(Duration::from_secs(300));
        let mut conn = Scripted::new(
            vec![hello(), Step::Stall(2), Step::Shutdown(Arc::clone(&inner))],
            true,
        );
        Session::new(&inner, &mut conn, 1).serve().unwrap();
        assert_eq!(
            conn.reads, 4,
            "no read after the one during which the flag was raised"
        );
        let responses = conn.responses();
        assert_eq!(error_code(&responses[1]), Some(ErrorCode::ShuttingDown));
    }

    #[test]
    fn a_response_over_max_frame_becomes_a_typed_error() {
        let inner = inner(Duration::from_secs(300));
        let mut conn = Scripted::new(vec![], false);
        let mut session = Session::new(&inner, &mut conn, 1);
        session
            .send(&Response::OkText("x".repeat(MAX_FRAME + 1)))
            .unwrap();
        session.send(&Response::Pong).unwrap();
        drop(session);
        let responses = conn.responses();
        assert_eq!(error_code(&responses[0]), Some(ErrorCode::Internal));
        assert!(matches!(&responses[0], Response::Error { message, .. }
            if message.contains("exceeds MAX_FRAME")));
        assert_eq!(responses[1], Response::Pong, "the connection lives on");
    }
}
