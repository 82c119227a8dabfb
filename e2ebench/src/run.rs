//! One workload, one process: set-up, the closed-loop main phase, the
//! crash check, and — for a traced run — the one-connection depth passes.
//!
//! End-to-end metrics always come from the untraced main phase. A traced
//! run (`--trace 1`) executes half the sequence at full connection count
//! for the registry and wrapper deltas, then the first K operations five
//! ways on fresh directories with one connection: wire depth with tracing
//! off, wire depth with tracing on, `ConcurrentDb` depth, `Database`
//! depth, and a codec replay of the frames captured on the way.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use corion::obs::MetricsSnapshot;
use corion::protocol::Delta;
use corion::storage::BufferStats;
use corion::{Client, ConcurrentDb, Oid};

use crate::check::{crash_and_check, Durability};
use crate::depths::{replay_codec, CodecCost, ConcurrentBackend, CoreBackend};
use crate::devices::DeviceCounts;
use crate::exec::{drive, Ack, Addressing, Backend, CallKind, Pass};
use crate::report::{ratio, RunResult, Values};
use crate::stack::{build_engine, Engine, Res, Stack};
use crate::stats::{median, quantile, window_rate, window_rates};
use crate::trace;
use crate::wire::{ping_rtts, WireBackend};
use crate::workload::{OpKind, Plan, Workload};

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Data directories are created (and removed) under this directory.
    pub data_root: PathBuf,
    /// Where `<workload>.trace.jsonl` is written.
    pub results_dir: PathBuf,
}

/// Removes the run's data directories however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `tmpfs` or `disk`, by the longest mount point that prefixes `dir`.
pub fn device_kind(dir: &Path) -> &'static str {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = (0, "disk");
    for line in mounts.lines() {
        let mut it = line.split_whitespace();
        let (Some(_), Some(point), Some(fs)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if dir.starts_with(point) && point.len() >= best.0 {
            best = (point.len(), if fs == "tmpfs" { "tmpfs" } else { "disk" });
        }
    }
    best.1
}

/// `VmHWM` of this process in MB (0 where /proc is missing).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn p50(samples: &mut [u64]) -> f64 {
    quantile(samples, 0.5)
}

/// Each kind's median latency weighted by the kind's share of the
/// executed operations, over the kinds `keep` admits. One median over a
/// bimodal mix (cheap reads beside transactions) would sit on the
/// boundary between the modes and jump with the mix; this does not.
fn mix_p50_ns(pass: &mut Pass, keep: impl Fn(OpKind) -> bool) -> f64 {
    let (mut weighted, mut n) = (0.0, 0usize);
    for kind in OpKind::ALL.into_iter().filter(|k| keep(*k)) {
        let samples = pass.op_samples(kind);
        if !samples.is_empty() {
            n += samples.len();
            weighted += samples.len() as f64 * p50(samples);
        }
    }
    ratio(weighted, n as f64)
}

/// (sum, count) of a registry histogram; zeros if it was never touched.
fn hist(snap: &MetricsSnapshot, name: &str) -> (f64, f64) {
    snap.histogram(name)
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
}

/// Inserts the median of each listed call kind, in nanoseconds ÷ `per`.
fn insert_call_p50s(
    v: &mut Values,
    pass: &mut Pass,
    per: f64,
    metrics: &[(&'static str, CallKind)],
) {
    for &(name, kind) in metrics {
        v.insert(name, p50(pass.call_samples(kind)) / per);
    }
}

/// Registry and buffer-pool readings around a pass.
struct EngineReadings {
    registry: MetricsSnapshot,
    buffer: BufferStats,
}

impl EngineReadings {
    fn take(cdb: &ConcurrentDb) -> Self {
        EngineReadings {
            registry: cdb.metrics_snapshot(),
            buffer: cdb.with_read(|db| db.buffer_stats()),
        }
    }
}

/// The main phase: full connection count, tracing off.
struct MainPhase {
    pass: Pass,
    setup_s: Vec<f64>,
    device: DeviceCounts,
    before: EngineReadings,
    after: EngineReadings,
    durability: Durability,
}

fn wire_backends<'a>(
    plan: &Plan,
    stack: &'a Stack,
    clients: Vec<Client>,
) -> Vec<Box<dyn Backend + Send + 'a>> {
    clients
        .into_iter()
        .enumerate()
        .map(|(conn, client)| {
            let addr = Addressing::new(plan, &stack.seeded, conn);
            Box::new(WireBackend::new(client, addr, conn)) as Box<dyn Backend + Send>
        })
        .collect()
}

fn main_phase(
    plan: &Plan,
    dir: &Path,
    n_ops: usize,
    conns: usize,
    setups: usize,
    extra_reopens: usize,
) -> Res<MainPhase> {
    // Set-up, several times over for a median; the last one is used.
    let mut setup_s = Vec::new();
    let mut ready: Option<(Stack, Vec<Client>)> = None;
    for _ in 0..setups.max(1) {
        if let Some((stack, clients)) = ready.take() {
            drop(clients);
            stack.stop()?;
        }
        let start = Instant::now();
        let stack = Stack::serve(build_engine(dir, plan.shape.roots, plan.seed)?)?;
        let clients = stack.connect(conns)?;
        setup_s.push(start.elapsed().as_secs_f64());
        ready = Some((stack, clients));
    }
    let (stack, clients) = ready.expect("at least one set-up");
    let backends = wire_backends(plan, &stack, clients);

    stack
        .counters
        .set_sync_latency_us(plan.shape.sync_latency_us);
    let device_before = stack.counters.snapshot();
    let before = EngineReadings::take(&stack.cdb);
    let pass = drive(plan, n_ops, false, backends);
    let after = EngineReadings::take(&stack.cdb);
    let device = stack.counters.snapshot().since(&device_before);

    let (dir, counters, seeded) = stack.stop()?;
    let durability = crash_and_check(
        &dir,
        counters.synced_len(),
        plan,
        &seeded,
        &pass.acks,
        extra_reopens,
    )?;
    Ok(MainPhase {
        pass,
        setup_s,
        device,
        before,
        after,
        durability,
    })
}

/// What the change-stream subscriber saw during the traced wire pass.
#[derive(Default)]
struct StreamStats {
    events: u64,
    /// Events that announce an assembly some acknowledged commit made.
    matched: u64,
    lag_p50_ms: f64,
    /// Commit LSNs strictly increasing.
    ordered: bool,
    /// Ordered, and one event per acknowledged commit.
    gap_free: bool,
}

/// One wire-depth pass on a fresh stack with one connection.
struct WirePass {
    pass: Pass,
    device: DeviceCounts,
    wal_records: u64,
    ping_ns: Vec<u64>,
    stream: StreamStats,
}

fn wire_pass(plan: &Plan, dir: &Path, k: usize, traced: bool, subscribe: bool) -> Res<WirePass> {
    let stack = Stack::serve(build_engine(dir, plan.shape.roots, plan.seed)?)?;
    let ping_ns = if traced {
        Vec::new()
    } else {
        ping_rtts(&mut stack.connect(1)?[0], 2_000)?
    };
    let backends = wire_backends(plan, &stack, stack.connect(1)?);

    // The subscriber attaches before the first commit and reads until
    // told to stop and the stream has gone quiet.
    let stop = AtomicBool::new(false);
    let subscriber = if subscribe {
        Some(stack.connect(1)?.remove(0).subscribe()?)
    } else {
        None
    };

    stack
        .counters
        .set_sync_latency_us(plan.shape.sync_latency_us);
    let device_before = stack.counters.snapshot();
    let records_before = stack
        .cdb
        .metrics_snapshot()
        .counter("corion_wal_append_records_total");

    let (pass, seen) = std::thread::scope(|s| -> Res<_> {
        let reader = subscriber.map(|mut sub| {
            let stop = &stop;
            s.spawn(move || {
                let mut seen: Vec<(u64, u64, Vec<Oid>)> = Vec::new();
                loop {
                    match sub.next_event_timeout(Duration::from_millis(100)) {
                        Ok(Some(ev)) => {
                            let made = ev.deltas.iter().filter_map(|d| match d {
                                Delta::Made(oid) => Some(*oid),
                                _ => None,
                            });
                            seen.push((ev.commit_lsn, trace::now_ns(), made.collect()));
                        }
                        Ok(None) if stop.load(Ordering::SeqCst) => return Ok(seen),
                        Ok(None) => {}
                        Err(e) => return Err(e.to_string()),
                    }
                }
            })
        });
        trace::set_enabled(traced);
        let pass = drive(plan, k, !traced, backends);
        trace::set_enabled(false);
        stop.store(true, Ordering::SeqCst);
        let seen = match reader {
            Some(h) => h.join().expect("subscriber thread panicked")?,
            None => Vec::new(),
        };
        Ok((pass, seen))
    })?;

    let device = stack.counters.snapshot().since(&device_before);
    let wal_records = stack
        .cdb
        .metrics_snapshot()
        .counter("corion_wal_append_records_total")
        - records_before;

    let mut stream = StreamStats::default();
    if subscribe {
        // An event belongs to the commit that made the assembly it announces.
        let acked: HashMap<Oid, u64> = pass
            .acks
            .iter()
            .zip(&pass.ack_ns)
            .filter_map(|(ack, at)| match ack {
                Ack::Ingest { asm, .. } => Some((*asm, *at)),
                Ack::Update { .. } => None,
            })
            .collect();
        let mut lags: Vec<u64> = seen
            .iter()
            .filter_map(|(_, recv, made)| {
                let ack = made.iter().find_map(|oid| acked.get(oid))?;
                Some(recv.saturating_sub(*ack))
            })
            .collect();
        let ordered = seen.windows(2).all(|w| w[0].0 < w[1].0);
        stream = StreamStats {
            events: seen.len() as u64,
            matched: lags.len() as u64,
            lag_p50_ms: p50(&mut lags) / 1e6,
            ordered,
            gap_free: ordered && seen.len() as u64 == pass.commits,
        };
    }
    stack.stop()?;
    Ok(WirePass {
        pass,
        device,
        wal_records,
        ping_ns,
        stream,
    })
}

/// One pass below the wire on a fresh engine: through `ConcurrentDb`, or
/// against `Database` directly.
fn engine_pass(plan: &Plan, dir: &Path, k: usize, through_concurrent: bool) -> Res<Pass> {
    let Engine {
        counters,
        db,
        seeded,
        ..
    } = build_engine(dir, plan.shape.roots, plan.seed)?;
    counters.set_sync_latency_us(plan.shape.sync_latency_us);
    let addr = Addressing::new(plan, &seeded, 0);
    let backend: Box<dyn Backend + Send> = if through_concurrent {
        Box::new(ConcurrentBackend {
            cdb: ConcurrentDb::from_database(db),
            addr,
        })
    } else {
        Box::new(CoreBackend { db, addr })
    };
    Ok(drive(plan, k, false, vec![backend]))
}

/// The five one-connection passes of a traced run.
struct Depths {
    wire: WirePass,
    wire_traced: WirePass,
    concurrent: Pass,
    core: Pass,
    codec: CodecCost,
    spans_written: usize,
    /// Time the traced pass spent recording spans.
    recording_ns: u64,
}

fn depth_passes(plan: &Plan, scratch: &Path, results_dir: &Path) -> Res<Depths> {
    let k = plan.depth_ops();
    let wire = wire_pass(plan, &scratch.join("wire"), k, false, false)?;
    // The change-stream subscriber rides on the traced ingest pass.
    let subscribe = plan.workload == Workload::Ingest;
    let wire_traced = wire_pass(plan, &scratch.join("wire-traced"), k, true, subscribe)?;
    let recording_ns = trace::recording_ns();
    std::fs::create_dir_all(results_dir)?;
    let spans_written = trace::write_jsonl(
        &results_dir.join(format!("{}.trace.jsonl", plan.workload.name())),
        trace::drain(),
    )?;
    let concurrent = engine_pass(plan, &scratch.join("concurrent"), k, true)?;
    let core = engine_pass(plan, &scratch.join("core"), k, false)?;
    let codec = replay_codec(&wire.pass.frames);
    Ok(Depths {
        wire,
        wire_traced,
        concurrent,
        core,
        codec,
        spans_written,
        recording_ns,
    })
}

fn end_to_end_values(main: &mut MainPhase) -> Values {
    let pass = &mut main.pass;
    let mut v = Values::new();
    v.insert("setup_s", median(&main.setup_s));
    v.insert(
        "ops_per_s",
        window_rate(&pass.done(), pass.start_ns, pass.end_ns),
    );
    v.insert("op_p50_us", mix_p50_ns(pass, |_| true) / 1e3);
    v.insert(
        "io_bytes_per_op",
        ratio(main.device.io_bytes() as f64, pass.ops_done() as f64),
    );
    v.insert("space_amp", main.durability.space_amp);
    v.insert("reopen_s", median(&main.durability.reopen_s));
    v.insert("peak_rss_mb", peak_rss_mb());
    v
}

fn per_layer_values(plan: &Plan, main: &mut MainPhase, depths: &mut Depths) -> Values {
    let mut v = Values::new();
    let pass = &mut main.pass;
    let commits = pass.commits as f64;
    let reads = pass.reads as f64;
    let (start, end) = (pass.start_ns, pass.end_ns);
    let wall_ns = pass.wall_ns as f64;

    // corion-client — the load generator's view of the main phase.
    v.insert(
        "client.commits_per_s",
        window_rate(&pass.commit_done, start, end),
    );
    v.insert(
        "client.commit_p50_ms",
        p50(pass.op_samples(OpKind::Txn)) / 1e6,
    );
    v.insert(
        "client.commit_p99_ms",
        quantile(pass.op_samples(OpKind::Txn), 0.99) / 1e6,
    );
    v.insert(
        "client.reads_per_s",
        window_rate(&pass.read_done, start, end),
    );
    let mut all_reads: Vec<u64> = OpKind::ALL
        .into_iter()
        .filter(|k| k.is_read())
        .flat_map(|k| pass.op_ns[k as usize].iter().copied())
        .collect();
    v.insert("client.read_p99_us", quantile(&mut all_reads, 0.99) / 1e3);
    v.insert(
        "client.round_trips_per_commit",
        ratio(pass.txn_calls as f64, commits),
    );
    insert_call_p50s(
        &mut v,
        pass,
        1e3,
        &[
            ("client.rtt_begin_p50_us", CallKind::Begin),
            ("client.rtt_make_p50_us", CallKind::Make),
            ("client.rtt_set_attr_p50_us", CallKind::SetAttr),
            ("client.rtt_commit_p50_us", CallKind::Commit),
            ("client.rtt_subtree_p50_us", CallKind::Subtree),
            ("client.rtt_components_p50_us", CallKind::Components),
            ("client.rtt_ancestors_p50_us", CallKind::Ancestors),
            ("client.rtt_get_p50_us", CallKind::Get),
        ],
    );
    v.insert("client.retry_share", ratio(pass.retries as f64, commits));
    v.insert(
        "client.fail_share",
        ratio(pass.failed as f64, pass.attempted as f64),
    );

    // corion-protocol — the captured frames through the codec alone.
    let codec = depths.codec;
    let wire = &mut depths.wire.pass;
    let wire_ops = wire.ops_done() as f64;
    let pairs_per_op = ratio(codec.frames as f64, wire_ops);
    v.insert("protocol.encode_req_ns", codec.encode_req_ns);
    v.insert("protocol.decode_req_ns", codec.decode_req_ns);
    v.insert("protocol.encode_resp_ns", codec.encode_resp_ns);
    v.insert("protocol.decode_resp_ns", codec.decode_resp_ns);
    v.insert(
        "protocol.req_bytes_per_op",
        ratio(codec.req_bytes as f64, wire_ops),
    );
    v.insert(
        "protocol.resp_bytes_per_op",
        ratio(codec.resp_bytes as f64, wire_ops),
    );
    let wire_ns_per_op = ratio(wire.op_ns_total() as f64, wire.sampled_ops() as f64);
    v.insert(
        "protocol.codec_share",
        ratio(codec.ns_per_pair() * pairs_per_op, wire_ns_per_op),
    );

    // corion-server — wire depth minus concurrent depth, one connection.
    let is_txn = |k: OpKind| k == OpKind::Txn;
    let wire_txn = mix_p50_ns(wire, is_txn);
    let wire_read = mix_p50_ns(wire, OpKind::is_read);
    let conc = &mut depths.concurrent;
    let conc_txn = mix_p50_ns(conc, is_txn);
    let conc_read = mix_p50_ns(conc, OpKind::is_read);
    let core_txn = mix_p50_ns(&mut depths.core, is_txn);
    let registry = |name: &str| {
        (main.after.registry.counter(name) - main.before.registry.counter(name)) as f64
    };
    // (sum, count) a registry histogram gained over the main phase.
    let hist_delta = |name: &str| {
        let (after, before) = (
            hist(&main.after.registry, name),
            hist(&main.before.registry, name),
        );
        (after.0 - before.0, after.1 - before.1)
    };
    v.insert(
        "server.ping_rtt_p50_us",
        p50(&mut depths.wire.ping_ns) / 1e3,
    );
    v.insert("server.overhead_us_per_commit", (wire_txn - conc_txn) / 1e3);
    v.insert("server.overhead_us_per_read", (wire_read - conc_read) / 1e3);
    v.insert(
        "server.error_responses",
        registry("corion_server_errors_total"),
    );
    let stream = &depths.wire_traced.stream;
    v.insert("server.stream_lag_p50_ms", stream.lag_p50_ms);
    v.insert(
        "server.stream_events_per_commit",
        ratio(stream.events as f64, depths.wire_traced.pass.commits as f64),
    );
    v.insert(
        "server.stream_gap_free",
        f64::from(u8::from(stream.gap_free)),
    );

    // corion-concurrent — the same operations through ConcurrentDb.
    let mut write_ops = conc.call_ns[CallKind::Make as usize].clone();
    write_ops.extend(&conc.call_ns[CallKind::SetAttr as usize]);
    v.insert("concurrent.op_ns", p50(&mut write_ops));
    insert_call_p50s(
        &mut v,
        conc,
        1.0,
        &[
            ("concurrent.begin_write_ns", CallKind::Begin),
            ("concurrent.commit_ns", CallKind::Commit),
            ("concurrent.begin_read_ns", CallKind::BeginRead),
            ("concurrent.subtree_ns", CallKind::Subtree),
            ("concurrent.components_ns", CallKind::Components),
            ("concurrent.ancestors_ns", CallKind::Ancestors),
            ("concurrent.get_ns", CallKind::Get),
        ],
    );
    v.insert(
        "concurrent.overhead_us_per_commit",
        (conc_txn - core_txn) / 1e3,
    );
    let rate = |p: &Pass| {
        ratio(
            p.sampled_ops() as f64,
            p.end_ns.saturating_sub(p.start_ns) as f64,
        )
    };
    v.insert("concurrent.scaling_2c", ratio(rate(pass), rate(wire)));
    v.insert(
        "concurrent.latch_wait_share",
        ratio(hist_delta("corion_shard_latch_wait_ns").0, wall_ns),
    );
    v.insert(
        "concurrent.versions_published_per_commit",
        ratio(registry("corion_mvcc_versions_published_total"), commits),
    );
    v.insert(
        "concurrent.version_chains_end",
        main.after.registry.gauge("corion_mvcc_version_chains") as f64,
    );

    // corion-lock — registry deltas over the main phase.
    v.insert(
        "lock.acquires_per_commit",
        ratio(registry("corion_lock_acquires_total"), commits),
    );
    v.insert(
        "lock.conflict_share",
        ratio(
            registry("corion_lock_conflicts_total"),
            registry("corion_lock_acquires_total"),
        ),
    );
    v.insert(
        "lock.wait_us_per_commit",
        ratio(hist_delta("corion_lock_wait_latency_ns").0 / 1e3, commits),
    );
    v.insert(
        "lock.deadlocks_per_kcommit",
        ratio(registry("corion_lock_deadlocks_total") * 1e3, commits),
    );

    // corion-core — the same operations through Database.
    let core = &mut depths.core;
    v.insert("core.txn_ns", p50(core.op_samples(OpKind::Txn)));
    insert_call_p50s(
        &mut v,
        core,
        1.0,
        &[
            ("core.subtree_ns", CallKind::Subtree),
            ("core.components_ns", CallKind::Components),
            ("core.ancestors_ns", CallKind::Ancestors),
            ("core.get_ns", CallKind::Get),
        ],
    );
    let hits = registry("corion_traversal_cache_hits_total");
    let misses = registry("corion_traversal_cache_misses_total");
    v.insert("core.traversal_cache_hit_share", ratio(hits, hits + misses));

    // corion-storage — WAL, checkpoints, buffer pool, over the main phase.
    let dev = main.device;
    let records = registry("corion_wal_append_records_total");
    v.insert(
        "storage.wal_bytes_per_commit",
        ratio(dev.log_append_bytes as f64, commits),
    );
    v.insert("storage.wal_records_per_commit", ratio(records, commits));
    v.insert(
        "storage.wal_delta_share",
        ratio(registry("corion_wal_delta_records_total"), records),
    );
    v.insert(
        "storage.checkpoints",
        registry("corion_wal_checkpoints_total"),
    );
    let (ckpt_ns, ckpt_n) = hist_delta("corion_wal_checkpoint_latency_ns");
    v.insert("storage.checkpoint_mean_ms", ratio(ckpt_ns / 1e6, ckpt_n));
    v.insert(
        "storage.checkpoint_rewrite_bytes_per_commit",
        ratio(dev.log_replace_bytes as f64, commits),
    );
    let (b0, b1) = (main.before.buffer, main.after.buffer);
    let (hits, misses) = ((b1.hits - b0.hits) as f64, (b1.misses - b0.misses) as f64);
    v.insert("storage.buffer_hit_share", ratio(hits, hits + misses));
    v.insert(
        "storage.buffer_evictions_per_read",
        ratio((b1.evictions - b0.evictions) as f64, reads),
    );
    v.insert(
        "storage.page_writes_per_commit",
        ratio(dev.page_writes as f64, commits),
    );
    v.insert(
        "storage.write_amp",
        ratio(dev.written_bytes() as f64, pass.payload_bytes as f64),
    );

    // The device wrappers: main phase, except the sync share, which is
    // sync time ÷ commit latency with one connection.
    v.insert(
        "device.log_append_ns",
        ratio(dev.log_append_ns as f64, dev.log_appends as f64),
    );
    v.insert(
        "device.log_sync_ns",
        ratio(dev.log_sync_ns as f64, dev.log_syncs as f64),
    );
    let c1 = depths.wire.device;
    let c1_commits = wire.commits as f64;
    v.insert(
        "device.log_sync_share",
        ratio(ratio(c1.log_sync_ns as f64, c1_commits), wire_txn),
    );
    v.insert(
        "device.log_syncs_per_commit",
        ratio(dev.log_syncs as f64, commits),
    );
    v.insert(
        "device.page_read_ns",
        ratio(dev.page_read_ns as f64, dev.page_reads as f64),
    );
    v.insert(
        "device.page_write_ns",
        ratio(dev.page_write_ns as f64, dev.page_writes as f64),
    );
    v.insert(
        "device.page_reads_per_read",
        ratio(dev.page_reads as f64, reads),
    );
    v.insert(
        "device.page_syncs_per_commit",
        ratio(dev.page_syncs as f64, commits),
    );

    // The harness.
    let traced_ns = depths.wire_traced.pass.wall_ns as f64;
    let recording_ns = depths.recording_ns as f64;
    v.insert(
        "bench.trace_overhead_share",
        ratio(recording_ns, traced_ns - recording_ns),
    );
    v.insert("bench.op_sequence_hash", (plan.hash & 0xFFFF_FFFF) as f64);
    v.insert("bench.c1_wal_bytes", c1.log_append_bytes as f64);
    v.insert("bench.c1_wal_records", depths.wire.wal_records as f64);
    v.insert("bench.c1_log_syncs", c1.log_syncs as f64);
    v.insert("bench.c1_page_reads", c1.page_reads as f64);
    v.insert("bench.c1_page_writes", c1.page_writes as f64);
    v
}

/// Runs one workload in this process.
pub fn run(args: &RunArgs) -> Res<RunResult> {
    let plan = Plan::generate(args.workload, args.seed, args.seconds);
    let conns = nproc().min(2);
    let scratch = Scratch(args.data_root.join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0)?;
    let device = device_kind(&scratch.0);

    // A traced run spends half its time on the depth passes.
    let quick = args.seconds < 2.0;
    let (n_ops, setups, extra_reopens) = match (args.trace, quick) {
        (true, _) => (plan.ops.len() / 2, 1, 0),
        (false, true) => (plan.ops.len(), 1, 0),
        (false, false) => (plan.ops.len(), 5, 8),
    };
    let mut main = main_phase(
        &plan,
        &scratch.0.join("main"),
        n_ops,
        conns,
        setups,
        extra_reopens,
    )?;

    let mut attempted = main.pass.attempted + main.durability.checked;
    let mut failed = main.pass.failed + main.durability.failed;
    let mut errors = main.pass.errors.clone();
    errors.extend(main.durability.errors.iter().cloned());
    let mut context = vec![
        ("nproc", nproc().to_string()),
        ("connections", conns.to_string()),
        ("device", device.to_string()),
        ("commit_policy", "Immediate".to_string()),
        ("sync_latency_us", plan.shape.sync_latency_us.to_string()),
        ("roots", plan.shape.roots.to_string()),
        ("sequence_ops", plan.ops.len().to_string()),
        ("executed_ops", n_ops.to_string()),
        ("op_sequence_hash", format!("{:016x}", plan.hash)),
        (
            "phase_s",
            format!(
                "{:.3}",
                main.pass.end_ns.saturating_sub(main.pass.start_ns) as f64 / 1e9
            ),
        ),
        ("commits", main.pass.commits.to_string()),
        ("reads", main.pass.reads.to_string()),
        ("retries", main.pass.retries.to_string()),
        ("durability_checked", main.durability.checked.to_string()),
        (
            "unsynced_log_bytes_discarded",
            main.durability.unsynced_bytes.to_string(),
        ),
    ];

    let values = if args.trace {
        let mut depths = depth_passes(&plan, &scratch.0, &args.results_dir)?;
        for p in [
            &depths.wire.pass,
            &depths.wire_traced.pass,
            &depths.concurrent,
            &depths.core,
        ] {
            attempted += p.attempted;
            failed += p.failed;
            errors.extend(p.errors.iter().cloned());
        }
        attempted += 1;
        if !depths.codec.round_trips {
            failed += 1;
            errors.push("a captured frame did not round-trip through the codec".into());
        }
        if args.workload == Workload::Ingest {
            // Order and provenance are checked; completeness is reported
            // (server.stream_events_per_commit, server.stream_gap_free):
            // at seed code the tailer loses the commits between its last
            // poll and an auto-checkpoint, and a benchmark may not fail on
            // what the program under test does at its baseline.
            let stream = &depths.wire_traced.stream;
            attempted += 1;
            if !stream.ordered || stream.matched != stream.events {
                failed += 1;
                errors.push(format!(
                    "change stream: LSNs out of order, or {} of {} events announce no acknowledged commit",
                    stream.events - stream.matched,
                    stream.events
                ));
            }
            context.push(("stream_events", stream.events.to_string()));
        }
        context.push(("depth_ops", plan.depth_ops().to_string()));
        context.push((
            "depth_wall_ms",
            format!(
                "wire={:.0} wire_traced={:.0} concurrent={:.0} core={:.0}",
                depths.wire.pass.wall_ns as f64 / 1e6,
                depths.wire_traced.pass.wall_ns as f64 / 1e6,
                depths.concurrent.wall_ns as f64 / 1e6,
                depths.core.wall_ns as f64 / 1e6
            ),
        ));
        context.push(("spans_written", depths.spans_written.to_string()));
        per_layer_values(&plan, &mut main, &mut depths)
    } else {
        let pass = &main.pass;
        let windows: Vec<String> = window_rates(&pass.done(), pass.start_ns, pass.end_ns)
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect();
        context.push(("ops_per_s_windows", windows.join(" ")));
        let ms = |v: &[f64]| {
            let each: Vec<String> = v.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
            each.join(" ")
        };
        context.push(("setup_samples_ms", ms(&main.setup_s)));
        context.push(("reopen_samples_ms", ms(&main.durability.reopen_s)));
        end_to_end_values(&mut main)
    };

    for e in errors.iter().take(8) {
        eprintln!("FAILED: {e}");
    }
    Ok(RunResult {
        workload: args.workload.name(),
        trace: args.trace,
        seed: args.seed,
        seconds: args.seconds,
        correct: failed == 0,
        attempted,
        failed,
        values,
        context,
    })
}
