//! Workspace file discovery and source classification.
//!
//! The linter does not parse Cargo manifests: the workspace layout is
//! conventional (`src/` facade at the root, member crates under
//! `crates/<name>/`), so the scan set is derived from the directory
//! structure. `vendor/` (offline stand-in crates), `target/`, and the
//! linter's own `fixtures/` trees are never scanned.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which compilation target a source file belongs to. Tests and benches
/// are exempt from most of the rule catalog; examples count as shipping
/// code for the wall-clock rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Lib,
    Tests,
    Benches,
    Examples,
}

/// A source file scheduled for linting.
#[derive(Debug)]
pub struct SourceSpec {
    pub path: PathBuf,
    /// Path relative to the linted root, `/`-separated.
    pub rel: String,
    /// `"root"` for the facade crate, else the `crates/<name>` dir name.
    pub crate_key: String,
    pub kind: FileKind,
}

const KIND_DIRS: &[(&str, FileKind)] = &[
    ("src", FileKind::Lib),
    ("tests", FileKind::Tests),
    ("benches", FileKind::Benches),
    ("examples", FileKind::Examples),
];

/// Enumerate every workspace source file under `root`, deterministically
/// ordered (diagnostics must not depend on directory-entry order).
pub fn discover(root: &Path) -> io::Result<Vec<SourceSpec>> {
    let mut out = Vec::new();
    for &(dir, kind) in KIND_DIRS {
        collect(root, &root.join(dir), "root", kind, &mut out)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            if !member.is_dir() {
                continue;
            }
            let key = member.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
            for &(dir, kind) in KIND_DIRS {
                collect(root, &member.join(dir), &key, kind, &mut out)?;
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

/// Classify a single explicitly-passed file against `root`.
pub fn classify(root: &Path, path: &Path) -> Option<SourceSpec> {
    let rel = rel_path(root, path)?;
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_key, kind_dir) = match parts.as_slice() {
        ["crates", name, sub, ..] => (name.to_string(), *sub),
        [sub, ..] => ("root".to_string(), *sub),
        [] => return None,
    };
    let kind = KIND_DIRS.iter().find(|&&(d, _)| d == kind_dir).map(|&(_, k)| k)?;
    Some(SourceSpec { path: path.to_path_buf(), rel, crate_key, kind })
}

fn collect(
    root: &Path,
    dir: &Path,
    crate_key: &str,
    kind: FileKind,
    out: &mut Vec<SourceSpec>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "fixtures" && name != "target" {
                collect(root, &path, crate_key, kind, out)?;
            }
        } else if name.ends_with(".rs") {
            if let Some(rel) = rel_path(root, &path) {
                out.push(SourceSpec { path, rel, crate_key: crate_key.to_string(), kind });
            }
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let s: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    Some(s.join("/"))
}

/// Find the nearest ancestor of `start` whose `Cargo.toml` declares a
/// `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_and_root_files() {
        let root = Path::new("/ws");
        let spec = classify(root, Path::new("/ws/crates/sim/src/rng.rs")).expect("crate file");
        assert_eq!(spec.crate_key, "sim");
        assert_eq!(spec.kind, FileKind::Lib);
        assert_eq!(spec.rel, "crates/sim/src/rng.rs");

        let spec = classify(root, Path::new("/ws/tests/determinism.rs")).expect("root test");
        assert_eq!(spec.crate_key, "root");
        assert_eq!(spec.kind, FileKind::Tests);

        let spec = classify(root, Path::new("/ws/examples/quickstart.rs")).expect("example");
        assert_eq!(spec.kind, FileKind::Examples);

        assert!(classify(root, Path::new("/ws/vendor/proptest/src/lib.rs")).is_none());
        assert!(classify(root, Path::new("/elsewhere/src/lib.rs")).is_none());
    }
}
