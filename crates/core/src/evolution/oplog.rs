//! Operation logs and change counts (paper §4.3).
//!
//! > "The 'deferred' implementation of state-independent changes involves
//! > keeping an *operation log* of changes to the attribute types in a
//! > class. … An operation log for a class C maintains, for each change,
//! > the change type and change count (CC), as well as the identifier of
//! > the class of whose attribute C is the domain. Initially, CC is zero
//! > and is incremented by one each time the type of attribute in a class C
//! > is changed."
//!
//! The log lives keyed by the *domain* class C (the class whose instances
//! carry the reverse references that need flag updates); each entry records
//! the *referencing* class C'.

use crate::oid::ClassId;
use crate::refs::ReverseRef;

/// The reverse-reference effect of one state-independent change (I1–I4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagChange {
    /// I1 — composite → non-composite: drop the reverse references.
    DropReverse,
    /// I2 — exclusive → shared: turn off the X flag.
    ClearX,
    /// I3 — dependent → independent: turn off the D flag.
    ClearD,
    /// I4 — independent → dependent: turn on the D flag.
    SetD,
}

impl FlagChange {
    /// Applies the change to the reverse references whose parent's class
    /// passes `from_source` — the one implementation of I1–I4, immediate
    /// or deferred. Returns whether anything changed.
    pub(crate) fn apply(
        self,
        refs: &mut Vec<ReverseRef>,
        from_source: impl Fn(ClassId) -> bool,
    ) -> bool {
        let (flag, value): (fn(&mut ReverseRef) -> &mut bool, bool) = match self {
            FlagChange::DropReverse => {
                let before = refs.len();
                refs.retain(|rr| !from_source(rr.parent.class));
                return refs.len() != before;
            }
            FlagChange::ClearX => (|rr| &mut rr.exclusive, false),
            FlagChange::ClearD => (|rr| &mut rr.dependent, false),
            FlagChange::SetD => (|rr| &mut rr.dependent, true),
        };
        let mut changed = false;
        for rr in refs.iter_mut().filter(|rr| from_source(rr.parent.class)) {
            changed |= *flag(rr) != value;
            *flag(rr) = value;
        }
        changed
    }
}

/// One deferred change in a class's operation log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Change count this entry was issued at (strictly increasing).
    pub cc: u64,
    /// The flag effect to apply.
    pub change: FlagChange,
    /// The referencing class C' whose instances' reverse references are
    /// affected (instances of subclasses of C' included, since they inherit
    /// the attribute).
    pub source_class: ClassId,
}

/// The operation log of one domain class.
#[derive(Debug, Clone, Default)]
pub struct OperationLog {
    entries: Vec<LogEntry>,
}

impl OperationLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        OperationLog::default()
    }

    /// Appends an entry; `cc` must exceed every existing entry's.
    pub fn push(&mut self, entry: LogEntry) {
        debug_assert!(self.entries.last().map(|e| e.cc < entry.cc).unwrap_or(true));
        self.entries.push(entry);
    }

    /// Entries issued after an instance's change count, in issue order —
    /// "the changes that must be made are the ones with a CC which is
    /// greater than the CC of the instance".
    pub fn pending_since(&self, instance_cc: u64) -> &[LogEntry] {
        let start = self.entries.partition_point(|e| e.cc <= instance_cc);
        &self.entries[start..]
    }

    /// Number of entries in the log.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_since_partitions_by_cc() {
        let mut log = OperationLog::new();
        for cc in 1..=4 {
            log.push(LogEntry {
                cc,
                change: FlagChange::ClearX,
                source_class: ClassId(1),
            });
        }
        assert_eq!(log.pending_since(0).len(), 4);
        assert_eq!(log.pending_since(2).len(), 2);
        assert_eq!(log.pending_since(2)[0].cc, 3);
        assert!(log.pending_since(4).is_empty());
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
    }

    #[test]
    fn empty_log_has_no_pending() {
        let log = OperationLog::new();
        assert!(log.pending_since(0).is_empty());
        assert!(log.is_empty());
    }
}
