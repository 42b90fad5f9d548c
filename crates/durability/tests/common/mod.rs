//! What the durability integration tests share.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static INVOCATION: AtomicU64 = AtomicU64::new(0);
        let n = INVOCATION.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "squatphi-durability-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
