//! Named crash points — deterministic crash injection for the durability
//! path.
//!
//! Device faults (an `EIO`, a torn write, a short read, a lying `fsync`)
//! are injected in one place, [`FaultyDevice`](crate::device::FaultyDevice),
//! which wraps any page or log device. Crash points are the other half:
//! they name the interesting instants of an atomic batch directly — "the
//! k-th logged page write", "the WAL flush", "after the commit is durable"
//! — so a crash matrix can enumerate every instant and stay stable when
//! the buffer pool's residency changes, which a raw I/O count does not.
//!
//! A point is *armed* with a countdown: the n-th time execution reaches it,
//! it fires once ([`StorageError::InjectedFault`] with the point's name) and
//! disarms itself. The flush point can additionally be armed *torn*: the
//! fault then lets only a prefix of the write-ahead log's pending bytes
//! reach durable storage, modelling a partial sector write at the moment of
//! power loss. A fired point is a clean crash; there is no retryable
//! outcome (docs/RESILIENCE.md §2).

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};

/// One armed crash point: fires once when the countdown elapses, then
/// disarms.
#[derive(Debug, Clone, Copy)]
struct Arm {
    /// Fires when the countdown reaches zero; `1` means "on the next hit".
    countdown: u64,
    /// For flush points: how many pending WAL bytes survive the crash.
    torn_keep: Option<usize>,
}

/// What a call to [`CrashPoints::fire`] observed at a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireOutcome {
    /// The point is unarmed (or its countdown has not elapsed): keep going.
    Pass,
    /// The crash fired. `torn` is the torn-write specification for flush
    /// points: `Some(k)` keeps `k` pending WAL bytes durable.
    Crash {
        /// How many pending WAL bytes survive, for torn flush arms.
        torn: Option<usize>,
    },
}

/// Registry of armed crash points (interior-mutable, so `&self` paths can
/// consult it).
#[derive(Default)]
pub struct CrashPoints {
    armed: Mutex<HashMap<&'static str, Arm>>,
}

impl CrashPoints {
    /// Creates an empty (fully healed) registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `point` to fire on its `countdown`-th hit (`1` = next hit).
    ///
    /// # Panics
    /// Panics if `countdown` is zero — "fire in the past" is always a bug
    /// in the test harness.
    pub fn arm(&self, point: &'static str, countdown: u64) {
        assert!(countdown > 0, "crash-point countdown must be >= 1");
        self.armed.lock().insert(
            point,
            Arm {
                countdown,
                torn_keep: None,
            },
        );
    }

    /// Arms `point` as a *torn write*: when it fires, `keep_bytes` of the
    /// pending WAL bytes become durable before the fault surfaces.
    pub fn arm_torn(&self, point: &'static str, countdown: u64, keep_bytes: usize) {
        assert!(countdown > 0, "crash-point countdown must be >= 1");
        self.armed.lock().insert(
            point,
            Arm {
                countdown,
                torn_keep: Some(keep_bytes),
            },
        );
    }

    /// Disarms every point.
    pub fn heal(&self) {
        self.armed.lock().clear();
    }

    /// Remaining countdown of `point`, or `None` if it is not armed. A
    /// crash-matrix sweep uses this to detect that a countdown exceeded the
    /// number of hits an operation performs (the point never fired).
    pub fn remaining(&self, point: &'static str) -> Option<u64> {
        self.armed.lock().get(point).map(|a| a.countdown)
    }

    /// Decrements `point`'s countdown if armed and reports what fired. An
    /// arm disarms itself when it fires.
    pub fn fire(&self, point: &'static str) -> FireOutcome {
        let mut armed = self.armed.lock();
        let Some(arm) = armed.get_mut(point) else {
            return FireOutcome::Pass;
        };
        arm.countdown -= 1;
        if arm.countdown > 0 {
            return FireOutcome::Pass;
        }
        let torn = arm.torn_keep;
        armed.remove(point);
        FireOutcome::Crash { torn }
    }

    /// [`CrashPoints::fire`] for points with no torn-write semantics:
    /// surfaces the outcome as an error.
    pub fn hit(&self, point: &'static str) -> StorageResult<()> {
        match self.fire(point) {
            FireOutcome::Pass => Ok(()),
            FireOutcome::Crash { .. } => Err(StorageError::InjectedFault { op: point }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        let cp = CrashPoints::new();
        for _ in 0..100 {
            cp.hit("anything").unwrap();
        }
    }

    #[test]
    fn countdown_fires_on_the_nth_hit_then_disarms() {
        let cp = CrashPoints::new();
        cp.arm("p", 3);
        cp.hit("p").unwrap();
        cp.hit("p").unwrap();
        assert!(matches!(
            cp.hit("p"),
            Err(StorageError::InjectedFault { op: "p" })
        ));
        // Self-disarmed: the next hit passes.
        cp.hit("p").unwrap();
        assert_eq!(cp.remaining("p"), None);
    }

    #[test]
    fn torn_spec_is_reported_by_fire() {
        let cp = CrashPoints::new();
        cp.arm_torn("flush", 1, 17);
        assert_eq!(cp.fire("flush"), FireOutcome::Crash { torn: Some(17) });
        assert_eq!(cp.fire("flush"), FireOutcome::Pass);
    }

    #[test]
    fn heal_disarms_everything() {
        let cp = CrashPoints::new();
        cp.arm("a", 1);
        cp.arm_torn("b", 1, 0);
        cp.heal();
        cp.hit("a").unwrap();
        cp.hit("b").unwrap();
    }

    #[test]
    fn remaining_tracks_partial_countdowns() {
        let cp = CrashPoints::new();
        cp.arm("p", 5);
        cp.hit("p").unwrap();
        cp.hit("p").unwrap();
        assert_eq!(cp.remaining("p"), Some(3));
    }

    #[test]
    #[should_panic(expected = "countdown must be >= 1")]
    fn zero_countdown_is_rejected() {
        CrashPoints::new().arm("p", 0);
    }
}
