//! Deterministic discovery of the `.rs` files a lint run covers.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names that are never part of the workspace source: build
/// output, VCS metadata, and the linter's own deliberately-violating
/// fixture corpus.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

/// Whether `dir` holds a `Cargo.toml` with a `[workspace]` table — the
/// root of a Cargo workspace.
pub fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| text.lines().any(|line| line.trim() == "[workspace]"))
}

/// The `.rs` files under a root, each list sorted by path so reports are
/// byte-stable across filesystems (directory iteration order is not).
#[derive(Debug, Default)]
pub struct RustFiles {
    /// The workspace's own files, which every rule lints.
    pub own: Vec<PathBuf>,
    /// The files of nested workspaces, read only for R12's roots.
    pub nested: Vec<PathBuf>,
}

/// Collects every `.rs` file under `root`. A subdirectory that is itself
/// a workspace root is a separate workspace with its own call graph, so
/// its files go to [`RustFiles::nested`]: linking its items into this
/// one would invent cross-workspace call edges.
///
/// # Errors
///
/// Returns the first I/O error hit while walking (an unreadable `root`,
/// typically; unreadable children are reported, not skipped, because a
/// lint pass that silently misses files is worse than one that fails).
pub fn rust_files(root: &Path) -> io::Result<RustFiles> {
    let mut out = RustFiles::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|entry| entry.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                    continue;
                }
                if is_workspace_root(&path) {
                    let nested = rust_files(&path)?;
                    out.nested
                        .extend(nested.own.into_iter().chain(nested.nested));
                } else {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.own.push(path);
            }
        }
    }
    out.own.sort();
    out.nested.sort();
    Ok(out)
}

/// `path` relative to `root`, `/`-separated, for stable report keys.
pub fn relative_key(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_keys_are_slash_separated() {
        let root = Path::new("/ws");
        let file = Path::new("/ws/crates/core/src/engine.rs");
        assert_eq!(relative_key(root, file), "crates/core/src/engine.rs");
    }
}
