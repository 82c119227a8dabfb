//! Property tests for the obs crate, per ISSUE 3: histogram bucket
//! boundaries, snapshot text round-trip, and the merge law — merging two
//! snapshots equals recording the same observations interleaved into one
//! registry.

use corion_obs::{MetricsSnapshot, Registry};
use proptest::prelude::*;

/// Small static bound sets the strategies below pick from; bounds must
/// be `'static` for `Registry::histogram`.
const BOUND_SETS: &[&[u64]] = &[&[10, 100, 1000], &[1, 2, 4, 8, 16], &[500]];

proptest! {
    #[test]
    fn histogram_bucket_boundaries_partition_all_values(
        which in 0usize..3,
        values in proptest::collection::vec(0u64..5_000, 0..64),
    ) {
        let bounds = BOUND_SETS[which];
        let r = Registry::new();
        let h = r.histogram("h", bounds);
        for &v in &values {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();

        // Every observation lands in exactly one bucket.
        prop_assert_eq!(hs.buckets.iter().sum::<u64>(), values.len() as u64);
        prop_assert_eq!(hs.count, values.len() as u64);
        prop_assert_eq!(hs.sum, values.iter().sum::<u64>());

        // Each bucket holds exactly the values in (prev_bound, bound],
        // i.e. bounds are inclusive upper limits.
        for (i, bucket) in hs.buckets.iter().enumerate() {
            let lo = if i == 0 { None } else { Some(bounds[i - 1]) };
            let hi = bounds.get(i).copied();
            let expected = values
                .iter()
                .filter(|&&v| lo.is_none_or(|lo| v > lo) && hi.is_none_or(|hi| v <= hi))
                .count() as u64;
            prop_assert_eq!(*bucket, expected, "bucket {} of bounds {:?}", i, bounds);
        }
    }

    #[test]
    fn snapshot_text_round_trips(
        counters in proptest::collection::vec((0u8..5, 0u64..1_000_000), 0..8),
        gauge in -1_000_000i64..1_000_000,
        values in proptest::collection::vec(0u64..5_000, 0..32),
    ) {
        let r = Registry::new();
        for (slot, v) in &counters {
            r.counter(&format!("c{slot}_total")).add(*v);
        }
        r.gauge("g").set(gauge);
        let h = r.histogram("h_ns", BOUND_SETS[0]);
        for &v in &values {
            h.record(v);
        }
        let snap = r.snapshot();
        let parsed = MetricsSnapshot::parse_text(&snap.to_text()).unwrap();
        prop_assert_eq!(snap, parsed);
    }

    #[test]
    fn merge_of_two_snapshots_equals_interleaved_recording(
        left in proptest::collection::vec((0u8..2, 0u64..5_000), 0..32),
        right in proptest::collection::vec((0u8..2, 0u64..5_000), 0..32),
    ) {
        // Two separate registries, each recording its half...
        let ra = Registry::new();
        let rb = Registry::new();
        // ...and one registry recording the interleaving of both halves.
        let rboth = Registry::new();
        for r in [&ra, &rb, &rboth] {
            r.counter("events_total");
            r.histogram("v_ns", BOUND_SETS[1]);
        }
        let mut iters = [left.iter(), right.iter()];
        let splits = [&ra, &rb];
        // Alternate sides so the combined registry genuinely interleaves.
        let mut side = 0;
        let mut remaining = left.len() + right.len();
        while remaining > 0 {
            if let Some(&(kind, v)) = iters[side].next() {
                for r in [splits[side], &rboth] {
                    if kind == 0 {
                        r.counter("events_total").inc();
                    } else {
                        r.histogram("v_ns", BOUND_SETS[1]).record(v);
                    }
                }
                remaining -= 1;
            }
            side = 1 - side;
        }
        let mut merged = ra.snapshot();
        merged.merge(&rb.snapshot()).unwrap();
        prop_assert_eq!(merged, rboth.snapshot());
    }
}
