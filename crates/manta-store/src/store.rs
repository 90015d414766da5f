//! The persistent, content-addressed entry store.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/MANIFEST              store-level header (magic + format version)
//! <dir>/LOCK                  advisory single-writer lock (holder pid)
//! <dir>/<stage>-<content>-<config>.entry    one file per cached entry
//! ```
//!
//! Every entry file is self-verifying:
//!
//! ```text
//! offset  size  field
//! 0       8     entry magic  "MANTAENT"
//! 8       4     format version (little-endian u32)
//! 12      8     payload length (little-endian u64)
//! 20      8     payload checksum (`Fingerprint` of the payload bytes)
//! 28      n     payload
//! ```
//!
//! ## Corruption and version skew
//!
//! Reads validate magic, version, length and checksum; any mismatch
//! deletes the offending file, bumps [`StoreStats::corrupt`] and reads
//! as a miss — the caller recomputes. A missing, foreign or
//! version-mismatched `MANIFEST` wipes all entries and starts fresh
//! ([`Store::open`] reports this so callers can log a degradation).
//! The store therefore never panics on, and never returns, bytes that
//! were not written by this exact format version with an intact
//! checksum. Stale data is prevented by content-addressing: keys include
//! the content and configuration hashes, so changed inputs simply look
//! up a different key.
//!
//! ## Advisory locking and unclean shutdown
//!
//! Opening a store takes an OS advisory lock (`File::try_lock`; `flock`
//! on Linux) on the `LOCK` file, so two *processes* — or two openers in
//! one process — cannot race the same directory. The kernel releases
//! the lock when the holder exits, however it exits, so a stale lock
//! cannot outlive its holder and takeover needs no delete-and-recreate
//! dance (which would be racy). The file also records the holder's pid:
//! written at acquisition, blanked on clean [`Store`] drop. Acquiring
//! the lock over a non-blank pid therefore means the previous holder
//! died mid-flight — an *unclean shutdown*: the opener sweeps
//! half-written `.tmp-*` files, keeps every committed (self-verifying)
//! entry, and reports [`OpenOutcome::Recovered`]. A second opener
//! against a live holder waits briefly, then fails with a diagnostic
//! naming the holder pid. The `LOCK` file itself is never unlinked:
//! removing it would let a new opener lock a fresh inode while an older
//! waiter still held the unlinked one, silently admitting two writers.
//!
//! ## Garbage collection
//!
//! [`Store::gc`] evicts least-recently-used entries until the store fits
//! a byte budget. Recency is the entry file's modification time — hits
//! refresh it — with ties broken by file name so eviction order is
//! deterministic. Eviction is always safe: keys are content-addressed,
//! so an evicted entry can only cost a recomputation, never a wrong
//! answer.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use crate::hash::Fingerprint;

/// Store-level magic, first bytes of `MANIFEST`.
pub const MANIFEST_MAGIC: &[u8; 8] = b"MSTORE1\n";
/// Per-entry magic.
pub const ENTRY_MAGIC: &[u8; 8] = b"MANTAENT";
/// On-disk format version. Bump on any layout, payload-codec or checksum
/// change: old stores are then discarded wholesale on open. Version 2
/// checksums with the word-at-a-time [`Fingerprint`] instead of FNV-1a.
pub const FORMAT_VERSION: u32 = 2;
/// Name of the advisory lock file inside the store directory.
pub const LOCK_FILE: &str = "LOCK";
/// How long [`Store::open`] waits for a live lock holder before failing.
pub const DEFAULT_LOCK_WAIT: Duration = Duration::from_secs(2);

const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// The key of one cached entry: `(stage, content-hash, config-hash)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Key {
    /// Pipeline stage tag (e.g. `infer`, `module`, `fsum`). Must be
    /// non-empty ASCII alphanumerics (plus `_`); enforced on use.
    pub stage: &'static str,
    /// Content hash of the analyzed input.
    pub content: u64,
    /// Hash of every configuration bit that affects the result.
    pub config: u64,
}

impl Key {
    /// Shorthand constructor.
    #[must_use]
    pub fn new(stage: &'static str, content: u64, config: u64) -> Key {
        Key {
            stage,
            content,
            config,
        }
    }

    fn file_name(&self) -> String {
        format!(
            "{}-{:016x}-{:016x}.entry",
            self.stage, self.content, self.config
        )
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{:016x}:{:016x}",
            self.stage, self.content, self.config
        )
    }
}

/// A failure opening or writing the store. Reads never fail — they miss.
#[derive(Debug)]
pub struct StoreError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

fn store_err<T>(msg: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError {
        message: msg.into(),
    })
}

/// Monotonic counters describing one store's traffic. All methods take
/// `&self`; the store is usable behind a shared reference.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Successful `get`s.
    pub hits: AtomicU64,
    /// `get`s that found nothing (or found corruption).
    pub misses: AtomicU64,
    /// Entries removed by dependency-aware invalidation.
    pub invalidations: AtomicU64,
    /// Corrupt or version-mismatched files discarded.
    pub corrupt: AtomicU64,
    /// Entries evicted by [`Store::gc`].
    pub evictions: AtomicU64,
    /// Payload bytes served from the store.
    pub bytes_read: AtomicU64,
    /// Payload bytes written into the store.
    pub bytes_written: AtomicU64,
}

/// A plain-value snapshot of [`StoreStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsSnapshot {
    /// Successful `get`s.
    pub hits: u64,
    /// Failed `get`s (includes discarded corrupt entries).
    pub misses: u64,
    /// Entries removed by invalidation.
    pub invalidations: u64,
    /// Corrupt files discarded.
    pub corrupt: u64,
    /// Entries evicted by GC.
    pub evictions: u64,
    /// Payload bytes served.
    pub bytes_read: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
}

impl StoreStats {
    /// Reads every counter at once.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// What [`Store::open`] had to do to produce a usable store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpenOutcome {
    /// The directory held a healthy store of the current format.
    Existing,
    /// The directory was empty or new; a fresh manifest was written.
    Fresh,
    /// The store needed recovery. Either the manifest was
    /// missing/corrupt/another version (all entries discarded and the
    /// store reinitialized), or the previous holder died without
    /// releasing the `LOCK` (half-written `.tmp-*` files swept;
    /// committed entries kept — they are self-verifying). Callers should
    /// log a degradation; correctness is intact either way.
    Recovered,
}

/// A directory-backed content-addressed store. Cheap to open, safe to
/// share behind a reference (all mutation is file-system level and
/// atomic-rename based).
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    stats: StoreStats,
    /// Per-stage-tag `(hits, misses)`, keyed by [`Key::stage`]. Gets are
    /// file reads, so one short mutex hold per get is noise.
    per_kind: Mutex<BTreeMap<&'static str, (u64, u64)>>,
    /// How open found the directory.
    outcome: OpenOutcome,
    /// The held advisory lock on the store's `LOCK` file. Closing the
    /// handle (on drop) releases the kernel lock.
    lock: std::fs::File,
}

impl Store {
    /// Opens (or initializes) the store in `dir`, creating the directory
    /// if needed. Waits up to [`DEFAULT_LOCK_WAIT`] for a live advisory
    /// lock holder. See [`OpenOutcome`] for the recovery semantics.
    ///
    /// # Errors
    ///
    /// When another live process holds the store's `LOCK`, or on
    /// unrecoverable filesystem failures (cannot create the directory or
    /// write the manifest) — never on corrupt content.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        Store::open_with_lock_wait(dir, DEFAULT_LOCK_WAIT)
    }

    /// [`Store::open`] with an explicit bound on how long to wait for a
    /// live lock holder before failing.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open_with_lock_wait(
        dir: impl Into<PathBuf>,
        lock_wait: Duration,
    ) -> Result<Store, StoreError> {
        let dir = dir.into();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return store_err(format!("cannot create {}: {e}", dir.display()));
        }
        let lock = acquire_lock(&dir, lock_wait)?;
        let manifest = dir.join("MANIFEST");
        let outcome = match std::fs::read(&manifest) {
            Ok(bytes) if manifest_is_current(&bytes) => {
                if lock.unclean_shutdown {
                    // The previous holder died mid-flight: drop its
                    // half-written temp files, keep committed entries.
                    remove_tmp_files(&dir);
                    OpenOutcome::Recovered
                } else {
                    OpenOutcome::Existing
                }
            }
            Ok(_) => {
                // Foreign or old-format store: discard every entry.
                remove_entries(&dir);
                write_manifest(&dir)?;
                OpenOutcome::Recovered
            }
            Err(_) => {
                let had_entries = dir_has_entries(&dir);
                remove_entries(&dir);
                write_manifest(&dir)?;
                if had_entries {
                    OpenOutcome::Recovered
                } else {
                    OpenOutcome::Fresh
                }
            }
        };
        Ok(Store {
            dir,
            stats: StoreStats::default(),
            per_kind: Mutex::new(BTreeMap::new()),
            outcome,
            lock: lock.file,
        })
    }

    /// How [`Store::open`] found the directory.
    #[must_use]
    pub fn open_outcome(&self) -> OpenOutcome {
        self.outcome
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Traffic counters.
    #[must_use]
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Per-stage-tag traffic: `(stage, hits, misses)` sorted by stage.
    /// Stages that saw no gets are absent.
    #[must_use]
    pub fn kind_traffic(&self) -> Vec<(&'static str, u64, u64)> {
        match self.per_kind.lock() {
            Ok(m) => m.iter().map(|(k, &(h, s))| (*k, h, s)).collect(),
            Err(_) => Vec::new(),
        }
    }

    fn bump_kind(&self, kind: &'static str, hit: bool) {
        if let Ok(mut m) = self.per_kind.lock() {
            let slot = m.entry(kind).or_insert((0, 0));
            if hit {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
    }

    fn path_of(&self, key: &Key) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Fetches a payload. Corrupt, truncated or version-mismatched
    /// entries are deleted and read as a miss; this method never panics
    /// and never returns bytes whose checksum does not match.
    pub fn get(&self, key: &Key) -> Option<Vec<u8>> {
        let path = self.path_of(key);
        let raw = match std::fs::read(&path) {
            Ok(r) => r,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.bump_kind(key.stage, false);
                return None;
            }
        };
        match decode_entry(&raw) {
            Some(payload) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.bump_kind(key.stage, true);
                // Refresh the entry's LRU recency (best-effort; a failed
                // touch only makes the entry eligible for eviction
                // earlier than ideal).
                let _ = std::fs::File::options()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(SystemTime::now()));
                Some(payload)
            }
            None => {
                // Corruption: discard so the next run does not re-read it.
                let _ = std::fs::remove_file(&path);
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.bump_kind(key.stage, false);
                None
            }
        }
    }

    /// Stores a payload under `key` (write-to-temp + rename, so readers
    /// never observe a half-written entry).
    ///
    /// # Errors
    ///
    /// On filesystem failures. Callers may ignore the error — a failed
    /// put only costs a future recomputation.
    pub fn put(&self, key: &Key, payload: &[u8]) -> Result<(), StoreError> {
        debug_assert!(
            !key.stage.is_empty()
                && key
                    .stage
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "stage tags must be [A-Za-z0-9_]+: {:?}",
            key.stage
        );
        let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
        file.extend_from_slice(ENTRY_MAGIC);
        file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&checksum(payload).to_le_bytes());
        file.extend_from_slice(payload);
        // One temp file per put, even for two puts of one key at once:
        // a shared name would let one put rename the other's half-written
        // file into place. The `.tmp-` prefix is what recovery sweeps.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.path_of(key);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(e) = std::fs::write(&tmp, &file) {
            return store_err(format!("cannot write {}: {e}", tmp.display()));
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return store_err(format!("cannot commit {}: {e}", path.display()));
        }
        self.stats
            .bytes_written
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Removes one entry (idempotent). Returns whether a file existed.
    pub fn invalidate(&self, key: &Key) -> bool {
        let existed = std::fs::remove_file(self.path_of(key)).is_ok();
        if existed {
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        existed
    }

    /// Number of entry files currently on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entry_names().len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry, keeping the manifest.
    pub fn clear(&self) {
        remove_entries(&self.dir);
    }

    fn entry_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for e in rd.flatten() {
                if let Some(name) = e.file_name().to_str() {
                    if name.ends_with(".entry") {
                        names.push(name.to_string());
                    }
                }
            }
        }
        names.sort();
        names
    }

    /// Total bytes currently held in entry files (headers included).
    #[must_use]
    pub fn disk_usage(&self) -> u64 {
        self.entries_with_meta().iter().map(|e| e.size).sum()
    }

    /// Evicts least-recently-used entries until the bytes held in entry
    /// files fit `max_bytes`. Recency is the file modification time
    /// (refreshed on every hit), ties broken by file name so the
    /// eviction order is deterministic; `MANIFEST` and `LOCK` are never
    /// touched. Returns what the pass did.
    ///
    /// Always safe: keys are content-addressed, so evicting an entry can
    /// only cost a recomputation, never change an answer.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let mut entries = self.entries_with_meta();
        entries.sort_by(|a, b| (a.mtime, &a.name).cmp(&(b.mtime, &b.name)));
        let mut live_bytes: u64 = entries.iter().map(|e| e.size).sum();
        let mut report = GcReport {
            scanned: entries.len(),
            live_bytes,
            ..GcReport::default()
        };
        for e in &entries {
            if live_bytes <= max_bytes {
                break;
            }
            if std::fs::remove_file(self.dir.join(&e.name)).is_ok() {
                live_bytes -= e.size;
                report.evicted += 1;
                report.evicted_bytes += e.size;
            }
        }
        report.live_bytes = live_bytes;
        self.stats
            .evictions
            .fetch_add(report.evicted as u64, Ordering::Relaxed);
        report
    }

    fn entries_with_meta(&self) -> Vec<EntryMeta> {
        let mut out = Vec::new();
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for e in rd.flatten() {
                let Some(name) = e.file_name().to_str().map(str::to_string) else {
                    continue;
                };
                if !name.ends_with(".entry") {
                    continue;
                }
                let Ok(meta) = e.metadata() else { continue };
                out.push(EntryMeta {
                    mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                    size: meta.len(),
                    name,
                });
            }
        }
        out
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Clean release: blank the recorded pid (content still present
        // at the next acquisition is the unclean-shutdown signal), then
        // let the kernel lock go when the handle closes. The file is
        // never unlinked — see the module docs on why that would race.
        let _ = self.lock.set_len(0);
    }
}

/// One entry file's name, size and recency, as seen by [`Store::gc`].
struct EntryMeta {
    mtime: SystemTime,
    size: u64,
    name: String,
}

/// The outcome of one [`Store::gc`] pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GcReport {
    /// Entry files examined.
    pub scanned: usize,
    /// Entry files removed.
    pub evicted: usize,
    /// Bytes freed by eviction (headers included).
    pub evicted_bytes: u64,
    /// Bytes remaining in entry files after the pass.
    pub live_bytes: u64,
}

/// What [`acquire_lock`] learned while taking the lock.
struct LockAcquired {
    /// The open handle holding the kernel advisory lock.
    file: std::fs::File,
    /// The previous holder died without releasing the store (its pid
    /// was still recorded in the lock file when we acquired the lock).
    unclean_shutdown: bool,
}

/// Takes the kernel advisory lock on the `LOCK` file in `dir`, waiting
/// up to `wait` for a live holder. The kernel serializes takeover, so
/// two openers can never both hold the lock — there is no read/delete/
/// recreate window. A pid left recorded in the file by a holder that
/// died (the kernel released its lock; a clean drop blanks the file)
/// is reported as an unclean shutdown so open can run its recovery
/// sweep.
fn acquire_lock(dir: &Path, wait: Duration) -> Result<LockAcquired, StoreError> {
    use std::io::{Read, Seek, Write};
    let path = dir.join(LOCK_FILE);
    let mut file = match std::fs::File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
    {
        Ok(f) => f,
        Err(e) => return store_err(format!("cannot create lock {}: {e}", path.display())),
    };
    let deadline = Instant::now() + wait;
    loop {
        match file.try_lock() {
            Ok(()) => break,
            Err(std::fs::TryLockError::WouldBlock) => {
                if Instant::now() >= deadline {
                    let who = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok())
                        .map(|p| format!("live process {p}"))
                        .unwrap_or_else(|| "an unidentified process".to_string());
                    return store_err(format!(
                        "store at {} is locked by {who}; close the other \
                         session before opening {}",
                        dir.display(),
                        path.display()
                    ));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(std::fs::TryLockError::Error(e)) => {
                return store_err(format!("cannot lock {}: {e}", path.display()));
            }
        }
    }
    // We hold the lock; nobody else can be mutating the file now.
    let mut prev = String::new();
    let _ = file.seek(std::io::SeekFrom::Start(0));
    let _ = file.read_to_string(&mut prev);
    let unclean_shutdown = !prev.trim().is_empty();
    let _ = file.set_len(0);
    let _ = file.seek(std::io::SeekFrom::Start(0));
    let _ = write!(file, "{}", std::process::id());
    Ok(LockAcquired {
        file,
        unclean_shutdown,
    })
}

fn manifest_is_current(bytes: &[u8]) -> bool {
    bytes.len() >= 12
        && &bytes[..8] == MANIFEST_MAGIC
        && bytes[8..12] == FORMAT_VERSION.to_le_bytes()
}

fn write_manifest(dir: &Path) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(MANIFEST_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    match std::fs::write(dir.join("MANIFEST"), bytes) {
        Ok(()) => Ok(()),
        Err(e) => store_err(format!("cannot write manifest in {}: {e}", dir.display())),
    }
}

fn dir_has_entries(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|rd| {
        rd.flatten().any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".entry"))
        })
    })
}

fn remove_entries(dir: &Path) {
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let keep = e
                .file_name()
                .to_str()
                .is_some_and(|n| !n.ends_with(".entry") && !n.starts_with(".tmp-"));
            if !keep {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

/// Sweeps half-written `.tmp-*` files (unclean-shutdown recovery),
/// keeping committed entries and the manifest.
fn remove_tmp_files(dir: &Path) {
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            if e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(".tmp-"))
            {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

/// Validates and strips an entry header, returning the payload.
fn decode_entry(raw: &[u8]) -> Option<Vec<u8>> {
    if raw.len() < HEADER_LEN || &raw[..8] != ENTRY_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().ok()?);
    if version != FORMAT_VERSION {
        return None;
    }
    let len = u64::from_le_bytes(raw[12..20].try_into().ok()?);
    let stored = u64::from_le_bytes(raw[20..28].try_into().ok()?);
    let payload = &raw[HEADER_LEN..];
    if payload.len() as u64 != len || checksum(payload) != stored {
        return None;
    }
    Some(payload.to_vec())
}

/// An entry payload's checksum: its [`Fingerprint`].
fn checksum(payload: &[u8]) -> u64 {
    Fingerprint::new().write(payload).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique temp dir (removed when the guard drops) and its path.
    fn temp_dir(tag: &str) -> (crate::TempDir, PathBuf) {
        let tmp = crate::TempDir::new(&format!("store-test-{tag}"));
        let dir = tmp.path().to_path_buf();
        (tmp, dir)
    }

    #[test]
    fn put_get_roundtrip_and_stats() {
        let (_tmp, dir) = temp_dir("roundtrip");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.open_outcome(), OpenOutcome::Fresh);
        let key = Key::new("infer", 0xabc, 0xdef);
        assert!(store.get(&key).is_none());
        store.put(&key, b"payload").unwrap();
        assert_eq!(store.get(&key).unwrap(), b"payload");
        let s = store.stats().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_written, 7);
        assert_eq!(s.bytes_read, 7);
    }

    #[test]
    fn reopen_preserves_entries() {
        let (_tmp, dir) = temp_dir("reopen");
        let key = Key::new("module", 1, 2);
        {
            let store = Store::open(&dir).unwrap();
            store.put(&key, b"persisted").unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.open_outcome(), OpenOutcome::Existing);
        assert_eq!(store.get(&key).unwrap(), b"persisted");
    }

    #[test]
    fn corrupt_entry_is_discarded_not_served() {
        let (_tmp, dir) = temp_dir("corrupt");
        let store = Store::open(&dir).unwrap();
        let key = Key::new("infer", 3, 4);
        store.put(&key, b"good data here").unwrap();
        // Flip a payload byte on disk.
        let path = dir.join(key.file_name());
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&path, raw).unwrap();
        assert!(store.get(&key).is_none(), "corrupt entry must miss");
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert_eq!(store.stats().snapshot().corrupt, 1);
    }

    #[test]
    fn version_mismatch_wipes_on_open() {
        let (_tmp, dir) = temp_dir("version");
        {
            let store = Store::open(&dir).unwrap();
            store.put(&Key::new("infer", 1, 1), b"old").unwrap();
        }
        // Rewrite the manifest with a future version.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MANIFEST_MAGIC);
        bytes.extend_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(dir.join("MANIFEST"), bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.open_outcome(), OpenOutcome::Recovered);
        assert!(store.is_empty(), "old-format entries must be discarded");
    }

    #[test]
    fn second_opener_fails_with_a_clear_diagnostic_while_lock_is_held() {
        let (_tmp, dir) = temp_dir("lock-held");
        let store = Store::open(&dir).unwrap();
        let err = Store::open_with_lock_wait(&dir, Duration::from_millis(50))
            .expect_err("second open must fail while the lock is held");
        assert!(
            err.message.contains(&format!("{}", std::process::id())),
            "diagnostic must name the holder pid: {}",
            err.message
        );
        assert!(
            err.message.contains("LOCK"),
            "diagnostic must name the lock file: {}",
            err.message
        );
        drop(store);
        // Dropping the holder releases the lock; the next open succeeds
        // cleanly (no recovery needed).
        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.open_outcome(), OpenOutcome::Existing);
    }

    #[test]
    fn stale_lock_recovers_keeping_committed_entries() {
        let (_tmp, dir) = temp_dir("lock-stale");
        let key = Key::new("infer", 7, 7);
        {
            let store = Store::open(&dir).unwrap();
            store.put(&key, b"committed").unwrap();
        }
        // Simulate a SIGKILLed holder: a LOCK naming a dead pid plus a
        // half-written temp file.
        std::fs::write(dir.join(LOCK_FILE), b"999999999").unwrap();
        std::fs::write(dir.join(".tmp-999999999-abc"), b"partial").unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.open_outcome(),
            OpenOutcome::Recovered,
            "a stale lock is an unclean shutdown"
        );
        assert_eq!(
            store.get(&key).unwrap(),
            b"committed",
            "committed entries must survive unclean shutdown"
        );
        assert!(
            !dir.join(".tmp-999999999-abc").exists(),
            "half-written temp files must be swept"
        );
    }

    #[test]
    fn racing_openers_over_a_stale_lock_admit_exactly_one() {
        let (_tmp, dir) = temp_dir("lock-race");
        drop(Store::open(&dir).unwrap());
        // A stale lock from a SIGKILLed holder. Takeover is the racy
        // path under delete-and-recreate schemes: both racers see the
        // dead pid, both clear, both "win". The kernel lock serializes
        // it instead.
        std::fs::write(dir.join(LOCK_FILE), b"999999999").unwrap();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let stores: Vec<_> = (0..2)
            .map(|_| {
                let dir = dir.clone();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    Store::open_with_lock_wait(&dir, Duration::ZERO)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        // Both results are still alive here, so the winner's lock is
        // held while we count: the single-writer invariant demands
        // exactly one success.
        assert_eq!(
            stores.iter().filter(|r| r.is_ok()).count(),
            1,
            "exactly one racer may take over a stale lock"
        );
        assert!(
            stores
                .iter()
                .flatten()
                .all(|s| s.open_outcome() == OpenOutcome::Recovered),
            "the winner must still observe the unclean shutdown"
        );
        drop(stores);
    }

    #[test]
    fn gc_evicts_least_recently_used_until_under_budget() {
        let (_tmp, dir) = temp_dir("gc");
        let store = Store::open(&dir).unwrap();
        let cold = Key::new("infer", 1, 1);
        let warm = Key::new("infer", 2, 1);
        let hot = Key::new("infer", 3, 1);
        for key in [&cold, &warm, &hot] {
            store.put(key, &[0u8; 100]).unwrap();
        }
        // Establish recency: hits refresh mtimes in this order. The
        // sleeps keep mtimes distinct on coarse-grained filesystems.
        for key in [&cold, &warm, &hot] {
            std::thread::sleep(Duration::from_millis(20));
            assert!(store.get(key).is_some());
        }
        let each = std::fs::metadata(dir.join(cold.file_name())).unwrap().len();
        // Budget for two entries: the least recently used one goes.
        let report = store.gc(2 * each);
        assert_eq!((report.scanned, report.evicted), (3, 1));
        assert_eq!(report.evicted_bytes, each);
        assert_eq!(report.live_bytes, 2 * each);
        assert!(store.get(&cold).is_none(), "LRU entry must be evicted");
        assert!(store.get(&warm).is_some());
        assert!(store.get(&hot).is_some());
        assert_eq!(store.stats().snapshot().evictions, 1);
        // A pass under budget is a no-op.
        let idle = store.gc(u64::MAX);
        assert_eq!(idle.evicted, 0);
        // MANIFEST and LOCK survive even a zero-byte budget.
        let wipe = store.gc(0);
        assert_eq!(wipe.evicted, 2);
        assert!(dir.join("MANIFEST").exists());
        assert!(dir.join(LOCK_FILE).exists());
    }

    #[test]
    fn concurrent_puts_of_one_key_never_fail_or_tear_a_read() {
        let (_tmp, dir) = temp_dir("same-key");
        let store = Store::open(&dir).unwrap();
        let key = Key::new("src", 9, 9);
        let payloads: [Vec<u8>; 2] = [vec![0xa5; 4096], vec![0x5a; 4096]];
        store.put(&key, &payloads[0]).unwrap();
        let rounds = 500;
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for payload in &payloads {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..rounds {
                        store.put(&key, payload).expect("same-key put");
                    }
                });
            }
            start.wait();
            for _ in 0..rounds {
                let got = store.get(&key).expect("a committed entry is always there");
                assert!(payloads.contains(&got), "a read saw a torn payload");
            }
        });
        assert_eq!(store.stats().snapshot().corrupt, 0);
    }

    #[test]
    fn disk_usage_tracks_entry_bytes() {
        let (_tmp, dir) = temp_dir("usage");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.disk_usage(), 0);
        store.put(&Key::new("infer", 1, 1), &[0u8; 64]).unwrap();
        assert_eq!(store.disk_usage(), 64 + HEADER_LEN as u64);
    }
}
