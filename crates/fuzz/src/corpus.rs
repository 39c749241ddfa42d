//! Corpus persistence and replay.
//!
//! Shrunk divergences land in a flat directory of `.v` files whose names
//! encode the seed and failing layer (`div_<layer>_seed<seed>.v`), plus a
//! header comment with the oracle detail — enough for triage without
//! rerunning the campaign. The repository's `fuzz/corpus/` directory holds
//! hand-written regression modules replayed by the root test suite; this
//! module provides both the writer used by the campaign and the reader
//! used by the replay tests.

use crate::oracle::Layer;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Writes a shrunk reproducer into `dir`, creating it if needed. Returns
/// the file path. The write is atomic (temp + fsync + rename): a crashed
/// campaign never leaves a half-written reproducer for the replay suite
/// to choke on.
///
/// # Errors
///
/// Propagates filesystem errors (unwritable directory, disk full).
pub fn persist(dir: &Path, seed: u64, layer: Layer, source: &str) -> io::Result<PathBuf> {
    let path = dir.join(format!("div_{layer}_seed{seed}.v"));
    let body = format!("// rtlock-fuzz reproducer: layer={layer} seed={seed}\n{source}");
    rtlock_store::atomic_write(&path, body)?;
    Ok(path)
}

/// Loads every `.v` file in `dir`, sorted by file name for deterministic
/// replay order. Returns `(file name, source)` pairs.
///
/// # Errors
///
/// Propagates filesystem errors; a missing directory is an error (an empty
/// corpus directory should exist explicitly, not be silently skipped).
pub fn load(dir: &Path) -> io::Result<Vec<(String, String)>> {
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "v") {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            entries.push((name, fs::read_to_string(&path)?));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_then_load_roundtrips() {
        let _guard = crate::serial();
        let dir = std::env::temp_dir().join(format!("rtlock_fuzz_corpus_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let src = "module t(input a, output y); assign y = a; endmodule\n";
        let path = persist(&dir, 42, Layer::OptSim, src).expect("persist");
        assert!(path.ends_with("div_opt-sim_seed42.v"));
        let loaded = load(&dir).expect("load");
        assert_eq!(loaded.len(), 1);
        assert!(loaded[0].1.contains("assign y = a;"));
        assert!(loaded[0].1.starts_with("// rtlock-fuzz reproducer"));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_missing_directory_errors() {
        let _guard = crate::serial();
        assert!(load(Path::new("/nonexistent/rtlock-fuzz-corpus")).is_err());
    }
}
