//! Atomic snapshot files.
//!
//! A snapshot is a full filter image (the codec's framed, CRC-sealed
//! format) written under `{prefix}-{seq}.snap`. Publication is atomic:
//! the image is written to a `.tmp` sibling, synced, then `rename`d over
//! the final name, then the directory is synced. At no point does a
//! half-written file carry a `.snap` name — a crash leaves either the
//! old snapshot set, or the old set plus a stray `.tmp` that recovery
//! ignores and the next snapshot cycle deletes. Snapshot images also
//! self-validate (codec CRC), so even a corrupted published file is
//! detected and skipped, falling back to the next-newest snapshot.

use crate::error::DurableError;
use crate::kill::{KillSite, KillSwitch};
use crate::wal::sync_dir;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Snapshot reader/writer bound to one directory and prefix.
pub struct SnapshotStore {
    dir: PathBuf,
    prefix: String,
    kill: KillSwitch,
}

impl SnapshotStore {
    /// Opens a store over `dir` (created if missing).
    pub fn new(dir: &Path, prefix: &str, kill: KillSwitch) -> Result<Self, DurableError> {
        fs::create_dir_all(dir).map_err(|e| DurableError::io("create snapshot dir", e))?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            kill,
        })
    }

    fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("{}-{seq:020}.snap", self.prefix))
    }

    /// Publishes `image` as the snapshot at `seq`, atomically.
    pub fn write(&self, seq: u64, image: &[u8]) -> Result<(), DurableError> {
        let tmp = self.dir.join(format!("{}-{seq:020}.snap.tmp", self.prefix));
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| DurableError::io("create snapshot tmp", e))?;
        if let Some(budget) = self.kill.write_budget(KillSite::SnapshotWrite) {
            let cut = (budget as usize).min(image.len());
            file.write_all(&image[..cut])
                .map_err(|e| DurableError::io("write snapshot", e))?;
            let _ = file.sync_data();
            return Err(DurableError::Killed(KillSite::SnapshotWrite));
        }
        file.write_all(image)
            .map_err(|e| DurableError::io("write snapshot", e))?;
        file.sync_data()
            .map_err(|e| DurableError::io("sync snapshot", e))?;
        drop(file);
        if let Some(site) = self.kill.check(KillSite::SnapshotRename) {
            return Err(DurableError::Killed(site));
        }
        fs::rename(&tmp, self.path(seq)).map_err(|e| DurableError::io("publish snapshot", e))?;
        sync_dir(&self.dir)
    }

    /// Published snapshots, newest first. Stray `.tmp` files are ignored.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, DurableError> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(DurableError::io("list snapshot dir", e)),
        };
        let lead = format!("{}-", self.prefix);
        for entry in entries {
            let entry = entry.map_err(|e| DurableError::io("list snapshot dir", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix(&lead)
                .and_then(|s| s.strip_suffix(".snap"))
            else {
                continue;
            };
            if let Ok(seq) = stem.parse::<u64>() {
                out.push((seq, entry.path()));
            }
        }
        out.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        Ok(out)
    }

    /// Loads the newest snapshot that decodes cleanly, skipping (and
    /// counting) unreadable or corrupt ones. Returns the winning
    /// `(seq, value)` and the number of snapshots skipped as corrupt.
    pub fn load_latest_with<T>(
        &self,
        decode: impl Fn(&[u8]) -> Option<T>,
    ) -> Result<(Option<(u64, T)>, u64), DurableError> {
        let mut corrupt = 0;
        for (seq, path) in self.list()? {
            let Ok(bytes) = fs::read(&path) else {
                corrupt += 1;
                continue;
            };
            match decode(&bytes) {
                Some(value) => return Ok((Some((seq, value)), corrupt)),
                None => corrupt += 1,
            }
        }
        Ok((None, corrupt))
    }

    /// Deletes every published snapshot older than `keep_seq` and any
    /// stray `.tmp` debris. Never touches the snapshot at `keep_seq`.
    /// Syncs the directory only when a published snapshot was deleted.
    pub fn purge_below(&self, keep_seq: u64) -> Result<(), DurableError> {
        let mut purged = false;
        for (seq, path) in self.list()? {
            if seq < keep_seq {
                fs::remove_file(&path).map_err(|e| DurableError::io("purge snapshot", e))?;
                purged = true;
            }
        }
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".snap.tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        if purged {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("mpcbf-snap-{tag}-{}-{id}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn decode_ok(bytes: &[u8]) -> Option<Vec<u8>> {
        // Toy "codec": valid iff it ends with the marker byte.
        (bytes.last() == Some(&0xAA)).then(|| bytes.to_vec())
    }

    #[test]
    fn newest_valid_snapshot_wins() {
        let dir = scratch_dir("latest");
        let store = SnapshotStore::new(&dir, "snap", KillSwitch::new()).unwrap();
        store.write(5, &[1, 0xAA]).unwrap();
        store.write(9, &[2, 0xAA]).unwrap();
        let (found, corrupt) = store.load_latest_with(decode_ok).unwrap();
        assert_eq!(found, Some((9, vec![2, 0xAA])));
        assert_eq!(corrupt, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_and_is_counted() {
        let dir = scratch_dir("fallback");
        let store = SnapshotStore::new(&dir, "snap", KillSwitch::new()).unwrap();
        store.write(5, &[1, 0xAA]).unwrap();
        store.write(9, &[2, 3]).unwrap(); // does not decode
        let (found, corrupt) = store.load_latest_with(decode_ok).unwrap();
        assert_eq!(found, Some((5, vec![1, 0xAA])));
        assert_eq!(corrupt, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_write_leaves_no_published_snapshot() {
        let dir = scratch_dir("killwrite");
        let kill = KillSwitch::new();
        let store = SnapshotStore::new(&dir, "snap", kill.clone()).unwrap();
        store.write(1, &[9, 0xAA]).unwrap();
        kill.arm(KillSite::SnapshotWrite, 1);
        assert!(store.write(2, &[7, 7, 7, 0xAA]).unwrap_err().is_kill());
        // The torn write is invisible: only seq 1 is published.
        let (found, corrupt) = store.load_latest_with(decode_ok).unwrap();
        assert_eq!(found.map(|(s, _)| s), Some(1));
        assert_eq!(corrupt, 0);

        kill.arm(KillSite::SnapshotRename, 0);
        assert!(store.write(3, &[8, 0xAA]).unwrap_err().is_kill());
        let (found, _) = store.load_latest_with(decode_ok).unwrap();
        assert_eq!(found.map(|(s, _)| s), Some(1), "rename never happened");

        // purge clears the .tmp debris.
        store.purge_below(1).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn purge_keeps_the_current_snapshot() {
        let dir = scratch_dir("purge");
        let store = SnapshotStore::new(&dir, "snap", KillSwitch::new()).unwrap();
        for seq in [1, 4, 9] {
            store.write(seq, &[seq as u8, 0xAA]).unwrap();
        }
        store.purge_below(9).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, 9);
        fs::remove_dir_all(&dir).unwrap();
    }
}
