//! Instrumentation overhead: proof that observability is (nearly) free.
//!
//! The `corion-obs` facade promises that a disabled registry costs one
//! relaxed atomic load per instrumentation point. The claim this bench
//! locks in is the acceptance criterion: **with
//! recording off, instrumentation adds < 2% to the existing wal/clustering
//! workloads**.
//!
//! Wall-clock A/B runs of a ~2 ms workload are noisy at the ±4% level in a
//! shared container — far too noisy to assert a 2% bound — so the bound is
//! established arithmetically instead:
//!
//! 1. run the real workload (autocommit inserts + §3 traversals, the shape
//!    of the `wal` and `clustering` benches) with recording *enabled* and
//!    read the metric snapshot to learn exactly how many instrumentation
//!    events (counter bumps, gauge sets, timed sections) the workload
//!    executes;
//! 2. measure the *disabled-path* cost of each primitive directly, over
//!    millions of iterations (deterministic to well under a nanosecond);
//! 3. assert `events × disabled_cost < 2% × workload_time`.
//!
//! Interleaved enabled/disabled medians are also printed for reference
//! (not asserted — see above).

use std::hint::black_box;
use std::time::{Duration, Instant};

use corion::workload::{Corpus, CorpusParams};
use corion::{Database, Filter};
use corion_obs::{Registry, LATENCY_BOUNDS_NS};

const WARMUP_ROUNDS: usize = 2;
const ROUNDS: usize = 9;
const PRIMITIVE_ITERS: u32 = 2_000_000;
const MAX_DISABLED_OVERHEAD: f64 = 0.02;

/// One round: build a small document corpus (every `make` is an
/// autocommit batch → WAL append + flush per object) and traverse it
/// twice. Returns the elapsed time and the number of
/// instrumentation events the round executed, split into
/// (counter-or-gauge updates, timed sections).
fn round(enabled: bool) -> (Duration, u64, u64) {
    let mut db = Database::new();
    db.metrics_registry().set_enabled(enabled);
    let start = Instant::now();
    let corpus = Corpus::generate(
        &mut db,
        CorpusParams {
            documents: 6,
            ..CorpusParams::default()
        },
    )
    .expect("corpus generation");
    for _ in 0..2 {
        for &d in &corpus.documents {
            db.components_of(d, &Filter::all()).unwrap();
            db.roots_of(d).unwrap();
        }
        for &s in &corpus.sections {
            db.parents_of(s, &Filter::all()).unwrap();
            db.ancestors_of(s, &Filter::all()).unwrap();
        }
    }
    let elapsed = start.elapsed();
    let snap = db.metrics_snapshot();
    // Counter values ≈ update events, except the byte/page totals, where
    // one `add` call covers many units: count those as one event per
    // carrying record instead of one per byte/page.
    let counter_events: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| !name.ends_with("_bytes_total") && !name.ends_with("_pages_total"))
        .map(|(_, v)| v)
        .sum::<u64>()
        + snap.counter("corion_wal_append_records_total")
        + snap.counter("corion_storage_recoveries_total");
    // Every histogram observation is one RAII timer (two `Instant` reads
    // plus the bucket update when enabled; one relaxed load when not).
    let timer_events: u64 = snap.histograms.values().map(|h| h.count).sum();
    // Gauges are set, not counted: `corion_buffer_dirty_frames` once per
    // checkpoint, the shard-count and health gauges once per engine.
    let gauge_events = snap.counter("corion_wal_checkpoints_total") + 2;
    (elapsed, counter_events + gauge_events, timer_events)
}

/// Disabled-path cost of one counter increment (the `live()` check), in
/// nanoseconds — fractional, since the real cost is sub-nanosecond.
fn disabled_counter_cost_ns() -> f64 {
    let registry = Registry::new();
    registry.set_enabled(false);
    let counter = registry.counter("bench_disabled_probe_total");
    let start = Instant::now();
    for _ in 0..PRIMITIVE_ITERS {
        black_box(&counter).inc();
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(PRIMITIVE_ITERS)
}

/// Disabled-path cost of one timed section (start + drop, no `Instant`),
/// in nanoseconds.
fn disabled_timer_cost_ns() -> f64 {
    let registry = Registry::new();
    registry.set_enabled(false);
    let histogram = registry.histogram("bench_disabled_probe_ns", LATENCY_BOUNDS_NS);
    let start = Instant::now();
    for _ in 0..PRIMITIVE_ITERS {
        black_box(black_box(&histogram).start_timer());
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(PRIMITIVE_ITERS)
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    for _ in 0..WARMUP_ROUNDS {
        round(false);
        round(true);
    }
    let mut disabled = Vec::with_capacity(ROUNDS);
    let mut enabled = Vec::with_capacity(ROUNDS);
    let (mut updates, mut timers) = (0, 0);
    for _ in 0..ROUNDS {
        disabled.push(round(false).0);
        let (t, u, s) = round(true);
        enabled.push(t);
        (updates, timers) = (u, s);
    }
    let disabled_med = median(&mut disabled);
    let enabled_med = median(&mut enabled);
    println!(
        "obs_overhead: workload medians over {ROUNDS} interleaved rounds — \
         recording off {disabled_med:?}, on {enabled_med:?} ({:+.2}%, informational)",
        (enabled_med.as_secs_f64() / disabled_med.as_secs_f64() - 1.0) * 100.0
    );

    let inc_ns = disabled_counter_cost_ns();
    let timer_ns = disabled_timer_cost_ns();
    let instr_ns = inc_ns * updates as f64 + timer_ns * timers as f64;
    let share = instr_ns / (disabled_med.as_secs_f64() * 1e9);
    println!(
        "obs_overhead: {updates} counter/gauge updates ({inc_ns:.2} ns each disabled) + \
         {timers} timed sections ({timer_ns:.2} ns each disabled) \
         = {:.1} µs per round, {:.4}% of the {disabled_med:?} workload",
        instr_ns / 1e3,
        share * 100.0
    );
    assert!(
        share < MAX_DISABLED_OVERHEAD,
        "disabled instrumentation must cost < {:.0}% of the workload \
         (measured {:.4}%); the compiled-out path costs strictly less",
        MAX_DISABLED_OVERHEAD * 100.0,
        share * 100.0
    );
}
