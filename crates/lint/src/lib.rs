//! `gals-lint` — workspace-aware static analysis for the invariants the
//! runtime suites can only spot-check.
//!
//! The workspace rests on properties that must hold *everywhere*, not
//! just on the paths the tests happen to exercise: bit-determinism under
//! both simulator loops, zero steady-state heap allocations per
//! instruction, seeded FxHash maps on every hot path, and env access
//! that fails loudly. Runtime tests catch violations after they ship;
//! this pass catches the whole class at review time by scanning every
//! `.rs` file in the workspace with a hand-rolled lexer (no registry
//! access, so no syn/clippy plugins) and a token-sequence rule engine.
//!
//! * [`lexer`] — the tokenizer (comments, strings, raw strings,
//!   lifetimes vs chars — everything that could hide or fake a keyword).
//! * [`rules`] — the six rules, the `lint:allow` suppression grammar,
//!   and the `lint:hot` fence parser.
//! * [`lint_workspace`] — the directory walker and report assembly; the
//!   `gals-lint` binary is a thin CLI over it.
//!
//! Run it as `cargo run -p gals-lint -- --check .` (add `--json` for
//! machine-readable output that future tooling can diff across PRs).

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use rules::Violation;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A workspace lint run: every violation with its file, plus scan stats.
#[derive(Debug)]
pub struct Report {
    /// (workspace-relative path, violation), sorted by path then line.
    pub violations: Vec<(String, Violation)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable report (one line per violation plus a
    /// hint line, then a summary).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (file, v) in &self.violations {
            out.push_str(&format!(
                "{file}:{}:{}: {}: {}\n    hint: {}\n",
                v.line, v.col, v.rule, v.message, v.hint
            ));
        }
        if self.is_clean() {
            out.push_str(&format!(
                "gals-lint: {} files scanned, 0 violations\n",
                self.files_scanned
            ));
        } else {
            out.push_str(&format!(
                "gals-lint: {} files scanned, {} violation{} in {} file{}\n",
                self.files_scanned,
                self.violations.len(),
                if self.violations.len() == 1 { "" } else { "s" },
                self.distinct_files(),
                if self.distinct_files() == 1 { "" } else { "s" },
            ));
        }
        out
    }

    /// Renders the machine-readable report (`--json`): stable schema so
    /// tooling can diff violation counts across PRs.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"gals-lint-v1\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!(
            "  \"violation_count\": {},\n",
            self.violations.len()
        ));
        out.push_str("  \"counts_by_rule\": {");
        let mut rule_ids: Vec<&str> = self.violations.iter().map(|(_, v)| v.rule).collect();
        rule_ids.sort_unstable();
        rule_ids.dedup();
        for (i, id) in rule_ids.iter().enumerate() {
            let n = self
                .violations
                .iter()
                .filter(|(_, v)| v.rule == *id)
                .count();
            out.push_str(&format!(
                "{}\"{}\": {}",
                if i == 0 { "" } else { ", " },
                id,
                n
            ));
        }
        out.push_str("},\n  \"violations\": [\n");
        for (i, (file, v)) in self.violations.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
                 \"message\": \"{}\", \"hint\": \"{}\"}}{}\n",
                json_escape(file),
                v.line,
                v.col,
                v.rule,
                json_escape(&v.message),
                json_escape(v.hint),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn distinct_files(&self) -> usize {
        let mut files: Vec<&str> = self.violations.iter().map(|(f, _)| f.as_str()).collect();
        files.sort_unstable();
        files.dedup();
        files.len()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directory names never descended into: build output, VCS state, and
/// the lint crate's own deliberately-violating fixture corpus.
fn skip_dir(path: &Path, name: &str) -> bool {
    if name == "target" || name.starts_with('.') {
        return true;
    }
    name == "fixtures" && path.ends_with("crates/lint/tests/fixtures")
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    // Deterministic scan order regardless of filesystem enumeration.
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if !skip_dir(&path, &name) {
                walk(&path, files)?;
            }
        } else if ty.is_file() && name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` (the workspace checkout).
///
/// # Errors
///
/// Fails only on filesystem errors (unreadable directory or file);
/// violations are a *successful* run with a non-clean [`Report`].
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, &mut files)?;

    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        for v in rules::lint_source(&rel, &src) {
            violations.push((rel.clone(), v));
        }
    }
    violations
        .sort_by(|a, b| (a.0.as_str(), a.1.line, a.1.col).cmp(&(b.0.as_str(), b.1.line, b.1.col)));

    Ok(Report {
        violations,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn fixture_dir_is_skipped() {
        assert!(skip_dir(
            Path::new("/x/crates/lint/tests/fixtures"),
            "fixtures"
        ));
        assert!(!skip_dir(Path::new("/x/crates/serve/fixtures"), "fixtures"));
        assert!(skip_dir(Path::new("/x/target"), "target"));
        assert!(skip_dir(Path::new("/x/.git"), ".git"));
    }
}
