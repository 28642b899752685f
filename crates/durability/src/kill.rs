//! Process-internal crash injection for durability drills.
//!
//! A real crash test would `kill -9` the process; that is slow, hard to
//! seed, and impossible to run thousands of times inside one test
//! binary. Instead every durability-critical syscall site consults a
//! [`KillSwitch`] first: when the switch is armed at that site it
//! "crashes" — the in-flight write is cut short at a seeded byte budget
//! and the operation returns [`DurableError::Killed`](crate::DurableError::Killed). The caller then
//! abandons the writer state (as a crashed process would) and recovery
//! is exercised against exactly the bytes that made it to disk,
//! including torn frames at any byte offset.
//!
//! The switch is per-instance (an `Arc`), never global state: parallel
//! tests each hold their own switch and cannot interfere.

use std::sync::{Arc, Mutex};

/// A durability-critical site where an injected crash can land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillSite {
    /// While appending a WAL frame (torn at a byte budget).
    WalAppend,
    /// Just before fsyncing the WAL (the frame is written, not synced).
    WalFsync,
    /// While writing the snapshot temp file (torn at a byte budget).
    SnapshotWrite,
    /// Between writing the snapshot temp file and renaming it live.
    SnapshotRename,
    /// While purging sealed WAL segments after a snapshot.
    WalTruncate,
}

impl KillSite {
    /// Every kill site, in drill order.
    pub const ALL: [KillSite; 5] = [
        KillSite::WalAppend,
        KillSite::WalFsync,
        KillSite::SnapshotWrite,
        KillSite::SnapshotRename,
        KillSite::WalTruncate,
    ];
}

impl std::fmt::Display for KillSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KillSite::WalAppend => "wal-append",
            KillSite::WalFsync => "wal-fsync",
            KillSite::SnapshotWrite => "snapshot-write",
            KillSite::SnapshotRename => "snapshot-rename",
            KillSite::WalTruncate => "wal-truncate",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Default)]
struct KillState {
    /// Armed site plus the byte budget for write sites (how many bytes
    /// of the in-flight write land on disk before the "crash").
    armed: Option<(KillSite, u64)>,
    fired: Option<KillSite>,
}

/// Shared, cloneable crash trigger consulted by the WAL and snapshot
/// writers. Unarmed switches cost one mutex lock per durability
/// syscall — negligible next to the syscall itself.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch {
    inner: Arc<Mutex<KillState>>,
}

impl KillSwitch {
    /// A new, unarmed switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the switch: the next operation hitting `site` crashes.
    /// For the byte-budget sites ([`KillSite::WalAppend`],
    /// [`KillSite::SnapshotWrite`]) the first `byte_budget` bytes of the
    /// in-flight write still reach the file, producing a torn tail.
    pub fn arm(&self, site: KillSite, byte_budget: u64) {
        let mut s = self.inner.lock().expect("kill switch poisoned");
        s.armed = Some((site, byte_budget));
        s.fired = None;
    }

    /// Disarms without firing.
    pub fn disarm(&self) {
        self.inner.lock().expect("kill switch poisoned").armed = None;
    }

    /// The site that fired, if the switch has gone off.
    pub fn fired(&self) -> Option<KillSite> {
        self.inner.lock().expect("kill switch poisoned").fired
    }

    /// Fires if armed at `site` (non-write sites). Returns the site to
    /// signal the caller must abort as if the process died here.
    pub(crate) fn check(&self, site: KillSite) -> Option<KillSite> {
        let mut s = self.inner.lock().expect("kill switch poisoned");
        match s.armed {
            Some((armed, _)) if armed == site => {
                s.armed = None;
                s.fired = Some(site);
                Some(site)
            }
            _ => None,
        }
    }

    /// Fires if armed at a byte-budget `site`, returning the number of
    /// bytes the in-flight write is allowed to land before "crashing".
    pub(crate) fn write_budget(&self, site: KillSite) -> Option<u64> {
        let mut s = self.inner.lock().expect("kill switch poisoned");
        match s.armed {
            Some((armed, budget)) if armed == site => {
                s.armed = None;
                s.fired = Some(site);
                Some(budget)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_at_the_armed_site_only() {
        let k = KillSwitch::new();
        assert_eq!(k.check(KillSite::WalFsync), None);
        k.arm(KillSite::WalFsync, 0);
        assert_eq!(k.check(KillSite::WalAppend), None, "wrong site");
        assert_eq!(k.check(KillSite::WalFsync), Some(KillSite::WalFsync));
        assert_eq!(k.check(KillSite::WalFsync), None, "single-shot");
        assert_eq!(k.fired(), Some(KillSite::WalFsync));
    }

    #[test]
    fn write_budget_is_delivered() {
        let k = KillSwitch::new();
        k.arm(KillSite::WalAppend, 13);
        assert_eq!(k.write_budget(KillSite::SnapshotWrite), None);
        assert_eq!(k.write_budget(KillSite::WalAppend), Some(13));
        assert_eq!(k.write_budget(KillSite::WalAppend), None);
    }

    #[test]
    fn clones_share_state() {
        let k = KillSwitch::new();
        let k2 = k.clone();
        k.arm(KillSite::SnapshotRename, 0);
        assert_eq!(
            k2.check(KillSite::SnapshotRename),
            Some(KillSite::SnapshotRename)
        );
        assert_eq!(k.fired(), Some(KillSite::SnapshotRename));
    }
}
