//! Named crash points — deterministic crash injection at the instants of
//! an atomic batch that have no device under them.
//!
//! Device faults (an `EIO`, a torn page write or log append, a short read,
//! a lying `fsync`) are injected in one place,
//! [`FaultyDevice`](crate::device::FaultyDevice), which wraps any page or
//! log device. Crash points name the rest: a frame mutation inside a
//! batch, log assembly before anything is written, and the close after
//! the commit is durable. Their counts depend only on the operation, not
//! on which pages the buffer pool holds, so a crash matrix can enumerate
//! every instant (docs/RESILIENCE.md §2).
//!
//! A point is *armed* with a countdown: the n-th time execution reaches it,
//! it fires once ([`StorageError::InjectedFault`] with the point's name) and
//! disarms itself. A fired point is a clean crash; there is no retryable
//! outcome.

use std::collections::HashMap;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};

/// Registry of armed crash points and their countdowns (interior-mutable,
/// so `&self` paths can consult it). A countdown of `1` fires on the next
/// hit.
#[derive(Default)]
pub struct CrashPoints {
    armed: Mutex<HashMap<&'static str, u64>>,
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
        self.armed.lock().insert(point, countdown);
    }

    /// Disarms every point.
    pub fn heal(&self) {
        self.armed.lock().clear();
    }

    /// Remaining countdown of `point`, or `None` if it is not armed. A
    /// crash-matrix sweep uses this to detect that a countdown exceeded the
    /// number of hits an operation performs (the point never fired).
    pub fn remaining(&self, point: &'static str) -> Option<u64> {
        self.armed.lock().get(point).copied()
    }

    /// Decrements `point`'s countdown if armed; when it elapses the point
    /// disarms itself and the crash surfaces as an error.
    pub fn hit(&self, point: &'static str) -> StorageResult<()> {
        let mut armed = self.armed.lock();
        let Some(countdown) = armed.get_mut(point) else {
            return Ok(());
        };
        *countdown -= 1;
        if *countdown > 0 {
            return Ok(());
        }
        armed.remove(point);
        Err(StorageError::InjectedFault { op: point })
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
    fn heal_disarms_everything() {
        let cp = CrashPoints::new();
        cp.arm("a", 1);
        cp.arm("b", 1);
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
