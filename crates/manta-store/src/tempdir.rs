//! Uniquely named temporary directories for tests and benchmarks.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A temporary directory under [`std::env::temp_dir`], removed with its
/// contents on drop.
///
/// The name joins a caller tag, the process id and a process-wide
/// counter, so tests running in parallel threads of one process never
/// share (and delete) each other's directories. The directory is not
/// created: stores and caches opened on [`TempDir::path`] create their
/// own.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Reserves a fresh path tagged `tag`, clearing any leftover from a
    /// crashed run whose pid was recycled.
    #[must_use]
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("manta-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_gets_distinct_paths_removed_on_drop() {
        let a = TempDir::new("tempdir");
        let b = TempDir::new("tempdir");
        assert_ne!(a.path(), b.path());
        std::fs::create_dir_all(a.path().join("nested")).unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }
}
