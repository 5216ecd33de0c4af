//! `neon-lint` — a dependency-free determinism & accounting linter.
//!
//! The workspace's load-bearing guarantee is bit-exact determinism:
//! golden trace hashes pin every refactor. This crate enforces the
//! source-level discipline that guarantee rests on, *before* the
//! tests run: no unordered hash iteration in sim-affecting crates, no
//! wall-clock reads in sim code, no silently-truncating casts, no
//! eager `format!` at trace sites, no unjustified panics in library
//! code — and, in test code too, no assertion on host time.
//!
//! Structure:
//!
//! - [`lexer`]: a small hand-rolled Rust lexer (comments, strings,
//!   raw strings, char-vs-lifetime) so rules match tokens, never text;
//! - [`rules`]: the rule engine and the seven shipped rules, with
//!   `// lint: allow(rule) — why` suppression;
//! - [`config`]: `lint.toml` per-crate scoping.
//!
//! Run it with `cargo run -p neon-lint --release -- --check`; explain
//! a rule with `-- --explain narrowing-cast`.

pub mod config;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

use config::Config;
use rules::{FileRules, Finding};

/// Result of linting a tree: findings plus file accounting.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files checked (after exclusions).
    pub files_checked: usize,
    /// Number of `.rs` files under tests/benches/examples: exempt from
    /// every rule except those that check test code.
    pub files_skipped: usize,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders every finding plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        let files_with: std::collections::BTreeSet<&str> =
            self.findings.iter().map(|f| f.file.as_str()).collect();
        out.push_str(&format!(
            "neon-lint: {} finding{} across {} file{} ({} files checked, {} test files \
             checked by test-code rules only)\n",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            files_with.len(),
            if files_with.len() == 1 { "" } else { "s" },
            self.files_checked,
            self.files_skipped,
        ));
        out
    }
}

/// Lints every `.rs` file under `root` with the given config.
pub fn lint_tree(root: &Path, config: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, config, &mut files)?;
    files.sort();
    let mut report = Report::default();
    for rel in files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        // Test files see only the rules that check test code.
        let test_file = config::is_test_path(&rel_str);
        if test_file {
            report.files_skipped += 1;
        } else {
            report.files_checked += 1;
        }
        let active: Vec<&'static str> = rules::RULES
            .iter()
            .filter(|r| r.test_code || !test_file)
            .map(|r| r.name)
            .filter(|name| config.rule_applies(name, &rel_str))
            .collect();
        if active.is_empty() {
            continue;
        }
        let file_rules = FileRules {
            active,
            narrowing_targets: config
                .rules
                .get("narrowing-cast")
                .map(|rc| rc.targets.clone())
                .unwrap_or_default(),
        };
        let src = std::fs::read_to_string(root.join(&rel))?;
        report
            .findings
            .extend(rules::lint_source(&rel_str, &src, &file_rules));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}

/// Recursively collects workspace-relative `.rs` paths, honouring the
/// global excludes and skipping dotted and `target` directories.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    config: &Config,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        // lint: allow(unchecked-unwrap) — every walked path came from
        // read_dir under root
        let rel = path.strip_prefix(root).expect("walked under root");
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if config.file_is_excluded(&rel_str) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, config, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_summary() {
        let report = Report {
            findings: vec![],
            files_checked: 10,
            files_skipped: 3,
        };
        assert!(report.is_clean());
        let text = report.render();
        assert!(text.contains("0 findings"), "{text}");
        assert!(text.contains("10 files checked"), "{text}");
    }
}
