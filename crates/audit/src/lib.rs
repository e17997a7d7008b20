//! `geoplace_audit` — static determinism-and-robustness lint for the
//! geoplace workspace.
//!
//! The whole regression story of this reproduction rests on
//! bit-identical [`SimulationReport::digest`] values across thread
//! counts, checkpoint resumes and the serve protocol. This crate is the
//! machine-enforced half of that contract: a dependency-free Rust
//! [`lexer`], a set of [`rules`] encoding the project invariants
//! (no unordered hash iteration in digest-feeding crates, no
//! wall-clock/entropy reads in engine code, no panicking paths in the
//! long-running service layer, no undocumented `unsafe`), and a walker
//! that applies them to every `.rs` file in the tree.
//!
//! Two gates run it:
//!
//! * the `geoplace-audit` binary (CI, after clippy): prints
//!   `file:line: [rule] message` per finding and exits 2 on any;
//! * `crates/audit/tests/self_check.rs` (tier-1): the same walk,
//!   in-process, so plain `cargo test` refuses violations too.
//!
//! Violations are silenced only by an inline
//! `// audit:allow(<rule>): <reason>` on or directly above the
//! offending line — see [`rules`] for the rule table and the
//! suppression grammar.
//!
//! [`SimulationReport::digest`]: https://example.invalid/geoplace

pub mod lexer;
pub mod rules;

pub use rules::{audit_file, Finding, RuleId};

use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, vendored stubs,
/// VCS internals and test fixtures (which contain violations on
/// purpose).
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fixtures", "golden"];

/// The outcome of auditing a tree.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Every unsuppressed finding, ordered by path then line.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Audits every `.rs` file under `root` (recursively, skipping
/// `SKIP_DIRS`). Paths in findings are `root`-relative with `/`
/// separators, which is also what scopes the rules.
///
/// # Errors
///
/// Returns a message naming the first unreadable directory or file —
/// an auditor that cannot see a file must not report the tree clean.
pub fn audit_tree(root: &Path) -> Result<AuditReport, String> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)
        .map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let text =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        // Sources are expected to be UTF-8; lossy conversion keeps the
        // auditor running (with accurate-enough spans) even when not.
        let text = String::from_utf8_lossy(&text);
        let rel = relative_slash_path(root, path);
        findings.extend(audit_file(&rel, &text));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(AuditReport {
        findings,
        files_scanned: files.len(),
    })
}

/// The workspace root as seen from this crate at compile time
/// (`crates/audit` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                collect_rust_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with forward slashes (rule scopes are written
/// that way); falls back to the full path if `path` escapes `root`.
fn relative_slash_path(root: &Path, path: &Path) -> String {
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
    fn walker_skips_vendor_target_and_fixtures() {
        let root = workspace_root();
        let report = audit_tree(&root).expect("workspace is walkable");
        assert!(
            report.files_scanned > 50,
            "scanned {}",
            report.files_scanned
        );
        assert!(
            report
                .findings
                .iter()
                .all(|f| !f.path.starts_with("vendor/") && !f.path.contains("/fixtures/")),
            "skip dirs leaked into the scan"
        );
    }
}
