//! Atomic snapshot files.
//!
//! A snapshot is a full filter image (the codec's framed, CRC-sealed
//! format) written under `{prefix}-{seq}.snap`. Publication is atomic:
//! the image is streamed to a `.tmp` sibling, synced, then `rename`d over
//! the final name, then the directory is synced. At no point does a
//! half-written file carry a `.snap` name — a crash leaves either the
//! old snapshot set, or the old set plus a stray `.tmp` that recovery
//! ignores and the next snapshot cycle deletes. Snapshot images also
//! self-validate (codec CRC), so even a corrupted published file is
//! detected and skipped, falling back to the next-newest snapshot.
//!
//! The image is never materialised: the caller streams it through a
//! buffered file [`Sink`] ([`SnapshotStore::write_with`]), so writing a
//! snapshot costs a write buffer, not a second copy of the filter.

use crate::error::DurableError;
use crate::kill::{KillSite, KillSwitch};
use crate::wal::sync_dir;
use mpcbf_core::codec::Sink;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Write buffer of a streamed file: four `write` calls per megabyte of
/// image, and small next to the filter it is written beside.
const FILE_BUFFER: usize = 256 << 10;

/// The buffered file [`Sink`] behind [`write_file_atomic`]: counts every
/// byte it is given, lets only an armed [`KillSite::SnapshotWrite`]
/// budget's worth reach the file, and keeps the first I/O error for the
/// end of the write (encoders cannot fail mid-stream).
struct FileSink {
    out: BufWriter<File>,
    written: u64,
    /// Bytes still allowed through before an injected crash.
    budget: Option<u64>,
    error: Option<std::io::Error>,
}

impl Sink for FileSink {
    fn put(&mut self, bytes: &[u8]) {
        self.written += bytes.len() as u64;
        if self.error.is_some() {
            return;
        }
        let bytes = match &mut self.budget {
            Some(left) => {
                let take = (*left).min(bytes.len() as u64);
                *left -= take;
                &bytes[..take as usize]
            }
            None => bytes,
        };
        if let Err(e) = self.out.write_all(bytes) {
            self.error = Some(e);
        }
    }
}

/// Writes `path` atomically from a streamed body: `body` writes exactly
/// `len` bytes into a buffered sink over `path.tmp`, which is flushed,
/// fsynced, renamed over `path`, and the directory synced. A body that
/// writes any other byte count aborts before the rename, and an I/O
/// error removes the temp file; the previous `path` is untouched either
/// way. An injected crash (`kill`) leaves the temp file, as a real one
/// would.
pub fn write_file_atomic(
    path: &Path,
    len: u64,
    kill: &KillSwitch,
    body: impl FnOnce(&mut dyn Sink),
) -> Result<(), DurableError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = stream_file(&tmp, len, kill, body).and_then(|()| {
        if let Some(site) = kill.check(KillSite::SnapshotRename) {
            return Err(DurableError::Killed(site));
        }
        fs::rename(&tmp, path).map_err(|e| DurableError::io("rename temp file", e))
    });
    if let Err(e) = result {
        if !e.is_kill() {
            let _ = fs::remove_file(&tmp);
        }
        return Err(e);
    }
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => sync_dir(dir),
        _ => sync_dir(Path::new(".")),
    }
}

/// Streams `body` into a fresh `tmp` and syncs it: the write half of
/// [`write_file_atomic`].
fn stream_file(
    tmp: &Path,
    len: u64,
    kill: &KillSwitch,
    body: impl FnOnce(&mut dyn Sink),
) -> Result<(), DurableError> {
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(tmp)
        .map_err(|e| DurableError::io("create temp file", e))?;
    let mut sink = FileSink {
        out: BufWriter::with_capacity(FILE_BUFFER, file),
        written: 0,
        budget: kill.write_budget(KillSite::SnapshotWrite),
        error: None,
    };
    body(&mut sink);
    let FileSink {
        out,
        written,
        budget,
        error,
    } = sink;
    if let Some(e) = error {
        return Err(DurableError::io("write temp file", e));
    }
    let file = out
        .into_inner()
        .map_err(|e| DurableError::io("write temp file", e.into_error()))?;
    if budget.is_some() {
        let _ = file.sync_data();
        return Err(DurableError::Killed(KillSite::SnapshotWrite));
    }
    if written != len {
        return Err(DurableError::io(
            "write temp file",
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("streamed {written} bytes where {len} were measured"),
            ),
        ));
    }
    file.sync_data()
        .map_err(|e| DurableError::io("sync temp file", e))
}

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
        self.write_with(seq, image.len() as u64, |sink| sink.put(image))
    }

    /// Publishes the snapshot at `seq`, atomically, streamed: `body`
    /// writes exactly `len` bytes of image into the sink it is given
    /// (see [`write_file_atomic`]).
    pub fn write_with(
        &self,
        seq: u64,
        len: u64,
        body: impl FnOnce(&mut dyn Sink),
    ) -> Result<(), DurableError> {
        write_file_atomic(&self.path(seq), len, &self.kill, body)
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
    fn a_length_mismatch_aborts_before_publication() {
        // The body streams one byte more, then one byte fewer, than was
        // measured: neither write may publish, and no temp file stays.
        let dir = scratch_dir("mismatch");
        let store = SnapshotStore::new(&dir, "snap", KillSwitch::new()).unwrap();
        store.write(1, &[9, 0xAA]).unwrap();
        for streamed in [&[1u8, 2, 3, 0xAA][..], &[1, 0xAA][..]] {
            let err = store
                .write_with(2, 3, |sink| sink.put(streamed))
                .unwrap_err();
            assert!(!err.is_kill(), "{err}");
            let names: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            assert_eq!(names, vec![format!("snap-{:020}.snap", 1)], "{names:?}");
        }
        let (found, _) = store.load_latest_with(decode_ok).unwrap();
        assert_eq!(found, Some((1, vec![9, 0xAA])));
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
