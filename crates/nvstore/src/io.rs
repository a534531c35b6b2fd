//! Store I/O backends.
//!
//! All store logic runs against the [`StoreIo`] trait so the same code
//! path serves three backends: the real filesystem ([`DiskIo`], used by
//! the CLI), a deterministic in-memory filesystem ([`MemIo`], used by
//! unit tests), and a *journaling* `MemIo` whose op log feeds
//! [`crate::fault::replay`] — the file-I/O analogue of the NVM write
//! journal `nvsim::fault` keeps for in-simulation crash exploration.
//!
//! The crash model the store's commit protocol is proved against:
//! operations complete in program order (each write/rename/remove is
//! durable before the next begins — `DiskIo` fsyncs to approximate
//! this), a crash preserves an arbitrary *prefix* of completed
//! operations, and the operation at the crash boundary may additionally
//! be torn (a write persists only a byte prefix; renames and removes
//! are atomic and either happened or did not).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// An I/O backend failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoError {
    /// The path does not exist.
    NotFound {
        /// The missing path.
        path: String,
    },
    /// Any other backend failure.
    Other {
        /// The failing path.
        path: String,
        /// Backend detail.
        detail: String,
    },
}

impl IoError {
    /// The path the operation failed on.
    pub fn path(&self) -> &str {
        match self {
            IoError::NotFound { path } | IoError::Other { path, .. } => path,
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::NotFound { path } => write!(f, "{path}: not found"),
            IoError::Other { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

/// The store's view of a filesystem. Paths are store-relative, use
/// `/` separators, and never contain `.` / `..` components.
pub trait StoreIo {
    /// Reads a whole file.
    fn read(&self, path: &str) -> Result<Vec<u8>, IoError>;
    /// Writes a whole file, creating parent directories as needed and
    /// truncating any previous content.
    fn write(&mut self, path: &str, data: &[u8]) -> Result<(), IoError>;
    /// Atomically renames `from` to `to` (same filesystem).
    fn rename(&mut self, from: &str, to: &str) -> Result<(), IoError>;
    /// Removes a file (succeeds if present, `NotFound` otherwise).
    fn remove(&mut self, path: &str) -> Result<(), IoError>;
    /// File names (not paths) directly inside `dir`, sorted. A missing
    /// directory lists as empty.
    fn list(&self, dir: &str) -> Result<Vec<String>, IoError>;
    /// Whether `path` exists as a file.
    fn exists(&self, path: &str) -> bool;
}

/// Real-filesystem backend rooted at a directory.
pub struct DiskIo {
    root: PathBuf,
}

impl DiskIo {
    /// Creates a backend rooted at `root` (created if absent).
    ///
    /// # Errors
    /// [`IoError::Other`] when the root cannot be created.
    pub fn create(root: impl Into<PathBuf>) -> Result<DiskIo, IoError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| IoError::Other {
            path: root.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(DiskIo { root })
    }

    fn abs(&self, path: &str) -> PathBuf {
        let mut p = self.root.clone();
        for comp in path.split('/') {
            p.push(comp);
        }
        p
    }

    fn map_err(path: &str, e: std::io::Error) -> IoError {
        if e.kind() == std::io::ErrorKind::NotFound {
            IoError::NotFound {
                path: path.to_string(),
            }
        } else {
            IoError::Other {
                path: path.to_string(),
                detail: e.to_string(),
            }
        }
    }
}

impl StoreIo for DiskIo {
    fn read(&self, path: &str) -> Result<Vec<u8>, IoError> {
        fs::read(self.abs(path)).map_err(|e| Self::map_err(path, e))
    }

    fn write(&mut self, path: &str, data: &[u8]) -> Result<(), IoError> {
        let abs = self.abs(path);
        if let Some(parent) = abs.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::map_err(path, e))?;
        }
        // Write + fsync so the program-order crash model the commit
        // protocol assumes holds on the real filesystem too.
        let mut f = fs::File::create(&abs).map_err(|e| Self::map_err(path, e))?;
        f.write_all(data).map_err(|e| Self::map_err(path, e))?;
        f.sync_all().map_err(|e| Self::map_err(path, e))?;
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), IoError> {
        let to_abs = self.abs(to);
        if let Some(parent) = to_abs.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::map_err(to, e))?;
        }
        fs::rename(self.abs(from), &to_abs).map_err(|e| Self::map_err(from, e))?;
        // Persist the directory entry as well (best effort; some
        // filesystems do not support fsync on directories).
        if let Some(parent) = to_abs.parent() {
            if let Ok(d) = fs::File::open(parent) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn remove(&mut self, path: &str) -> Result<(), IoError> {
        fs::remove_file(self.abs(path)).map_err(|e| Self::map_err(path, e))
    }

    fn list(&self, dir: &str) -> Result<Vec<String>, IoError> {
        let abs = self.abs(dir);
        let mut names = Vec::new();
        match fs::read_dir(&abs) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(names),
            Err(e) => return Err(Self::map_err(dir, e)),
            Ok(entries) => {
                for entry in entries {
                    let entry = entry.map_err(|e| Self::map_err(dir, e))?;
                    if entry.path().is_file() {
                        names.push(entry.file_name().to_string_lossy().into_owned());
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &str) -> bool {
        self.abs(path).is_file()
    }
}

/// One journaled mutation, in completion order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// A whole-file write.
    Write {
        /// Target path.
        path: String,
        /// The bytes written.
        data: Vec<u8>,
    },
    /// An atomic rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// A file removal.
    Remove {
        /// Removed path.
        path: String,
    },
}

/// Deterministic in-memory filesystem. With [`MemIo::recording`], every
/// completed mutation is appended to an op journal that the fault plane
/// replays with injected crash cuts.
#[derive(Clone, Debug, Default)]
pub struct MemIo {
    files: BTreeMap<String, Vec<u8>>,
    journal: Option<Vec<StoreOp>>,
}

impl MemIo {
    /// An empty in-memory filesystem (no journaling).
    pub fn new() -> MemIo {
        MemIo::default()
    }

    /// An empty in-memory filesystem that journals every mutation.
    pub fn recording() -> MemIo {
        MemIo {
            files: BTreeMap::new(),
            journal: Some(Vec::new()),
        }
    }

    /// Takes the recorded journal (empty for a non-recording instance).
    pub fn take_journal(&mut self) -> Vec<StoreOp> {
        self.journal.take().unwrap_or_default()
    }

    /// Applies `op` without journaling — the fault plane's replay
    /// primitive.
    pub fn apply(&mut self, op: &StoreOp) {
        match op {
            StoreOp::Write { path, data } => {
                self.files.insert(path.clone(), data.clone());
            }
            StoreOp::Rename { from, to } => {
                if let Some(data) = self.files.remove(from) {
                    self.files.insert(to.clone(), data);
                }
            }
            StoreOp::Remove { path } => {
                self.files.remove(path);
            }
        }
    }

    /// Overwrites `path` with a byte prefix of `data` — a torn write at
    /// the crash boundary.
    pub fn apply_torn_write(&mut self, path: &str, data: &[u8], keep: usize) {
        let keep = keep.min(data.len());
        self.files.insert(path.to_string(), data[..keep].to_vec());
    }

    /// Paths of all files, sorted (deterministic flip-target choice).
    pub fn paths(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Flips one bit of the file at `path`; returns false when the path
    /// is absent or empty.
    pub fn flip_bit(&mut self, path: &str, bit: u64) -> bool {
        match self.files.get_mut(path) {
            Some(data) if !data.is_empty() => {
                let bit = (bit % (data.len() as u64 * 8)) as usize;
                data[bit / 8] ^= 1 << (bit % 8);
                true
            }
            _ => false,
        }
    }

    fn record(&mut self, op: StoreOp) {
        if let Some(j) = self.journal.as_mut() {
            j.push(op);
        }
    }
}

impl StoreIo for MemIo {
    fn read(&self, path: &str) -> Result<Vec<u8>, IoError> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| IoError::NotFound {
                path: path.to_string(),
            })
    }

    fn write(&mut self, path: &str, data: &[u8]) -> Result<(), IoError> {
        self.files.insert(path.to_string(), data.to_vec());
        self.record(StoreOp::Write {
            path: path.to_string(),
            data: data.to_vec(),
        });
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), IoError> {
        let data = self.files.remove(from).ok_or_else(|| IoError::NotFound {
            path: from.to_string(),
        })?;
        self.files.insert(to.to_string(), data);
        self.record(StoreOp::Rename {
            from: from.to_string(),
            to: to.to_string(),
        });
        Ok(())
    }

    fn remove(&mut self, path: &str) -> Result<(), IoError> {
        if self.files.remove(path).is_none() {
            return Err(IoError::NotFound {
                path: path.to_string(),
            });
        }
        self.record(StoreOp::Remove {
            path: path.to_string(),
        });
        Ok(())
    }

    fn list(&self, dir: &str) -> Result<Vec<String>, IoError> {
        let prefix = format!("{dir}/");
        let mut names: Vec<String> = self
            .files
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(|rest| rest.to_string())
            .collect();
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memio_journals_mutations_in_order() {
        let mut io = MemIo::recording();
        io.write("tmp/a", b"one").unwrap();
        io.rename("tmp/a", "layers/a").unwrap();
        io.remove("layers/a").unwrap();
        let journal = io.take_journal();
        assert_eq!(journal.len(), 3);
        assert!(matches!(&journal[0], StoreOp::Write { path, .. } if path == "tmp/a"));
        assert!(matches!(&journal[1], StoreOp::Rename { to, .. } if to == "layers/a"));
        assert!(matches!(&journal[2], StoreOp::Remove { path } if path == "layers/a"));
    }

    #[test]
    fn memio_list_is_sorted_and_shallow() {
        let mut io = MemIo::new();
        io.write("layers/b", b"x").unwrap();
        io.write("layers/a", b"x").unwrap();
        io.write("layers/sub/c", b"x").unwrap();
        assert_eq!(io.list("layers").unwrap(), vec!["a", "b"]);
        assert_eq!(io.list("missing").unwrap(), Vec::<String>::new());
    }

    #[test]
    fn diskio_round_trips() {
        let dir = std::env::temp_dir().join(format!("nvstore-io-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut io = DiskIo::create(&dir).unwrap();
        io.write("tmp/m.json", b"hello").unwrap();
        io.rename("tmp/m.json", "manifests/00000001.json").unwrap();
        assert_eq!(io.read("manifests/00000001.json").unwrap(), b"hello");
        assert!(io.exists("manifests/00000001.json"));
        assert_eq!(io.list("manifests").unwrap(), vec!["00000001.json"]);
        assert!(matches!(io.read("nope"), Err(IoError::NotFound { .. })));
        io.remove("manifests/00000001.json").unwrap();
        assert!(!io.exists("manifests/00000001.json"));
        let _ = fs::remove_dir_all(&dir);
    }
}
