//! Fixture corpus tests: every rule has one `*_bad.rs` fixture whose
//! diagnostics are pinned against a golden `.expected` file, and one
//! `*_allowed.rs` fixture that must lint clean (justified allows,
//! `#[cfg(test)]` code, string/comment mentions).
//!
//! Regenerate the golden files after an intentional diagnostic change:
//!
//! ```text
//! LINT_FIXTURE_BLESS=1 cargo test -p neon-lint --test fixtures
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use neon_lint::rules::{lint_source, FileRules, RULES};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read_fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Lints one fixture under the default all-rules config and renders
/// the findings the way the CLI would.
fn rendered_findings(name: &str) -> String {
    let src = read_fixture(name);
    let findings = lint_source(&format!("fixtures/{name}"), &src, &FileRules::default());
    let mut out = String::new();
    for f in &findings {
        out.push_str(&f.render());
        out.push('\n');
    }
    out
}

const BAD_FIXTURES: &[(&str, &str)] = &[
    ("hash-iter", "hash_iter_bad.rs"),
    ("wall-clock", "wall_clock_bad.rs"),
    ("narrowing-cast", "narrowing_cast_bad.rs"),
    ("eager-trace", "eager_trace_bad.rs"),
    ("unchecked-unwrap", "unchecked_unwrap_bad.rs"),
    ("panic-path", "panic_path_bad.rs"),
    ("wall-clock-assert", "wall_clock_assert_bad.rs"),
];

const ALLOWED_FIXTURES: &[&str] = &[
    "hash_iter_allowed.rs",
    "wall_clock_allowed.rs",
    "narrowing_cast_allowed.rs",
    "eager_trace_allowed.rs",
    "unchecked_unwrap_allowed.rs",
    "panic_path_allowed.rs",
    "wall_clock_assert_allowed.rs",
];

#[test]
fn bad_fixtures_match_golden_diagnostics() {
    let bless = std::env::var_os("LINT_FIXTURE_BLESS").is_some();
    let mut failures = Vec::new();
    for &(rule, name) in BAD_FIXTURES {
        let got = rendered_findings(name);
        assert!(
            got.contains(&format!("[{rule}]")),
            "{name}: expected at least one [{rule}] finding, got:\n{got}"
        );
        let expected_path =
            fixture_dir().join(format!("{}.expected", name.trim_end_matches(".rs")));
        if bless {
            std::fs::write(&expected_path, &got).expect("write .expected");
            continue;
        }
        let want = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e}\n(run with LINT_FIXTURE_BLESS=1 to generate)",
                expected_path.display()
            )
        });
        if got != want {
            failures.push(format!(
                "{name}: diagnostics drifted from golden file\n\
                 --- expected ---\n{want}--- got ---\n{got}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn bad_fixtures_flag_only_their_own_rule() {
    // Each bad fixture is crafted to trip exactly one rule, so a
    // cross-rule false positive here means a matcher got too greedy.
    for &(rule, name) in BAD_FIXTURES {
        let src = read_fixture(name);
        let findings = lint_source(&format!("fixtures/{name}"), &src, &FileRules::default());
        assert!(!findings.is_empty(), "{name}: no findings at all");
        for f in &findings {
            assert_eq!(
                f.rule, rule,
                "{name}: unexpected [{}] finding at {}:{}",
                f.rule, f.line, f.col
            );
        }
    }
}

#[test]
fn allowed_fixtures_lint_clean() {
    for &name in ALLOWED_FIXTURES {
        let got = rendered_findings(name);
        assert!(got.is_empty(), "{name} should lint clean, got:\n{got}");
    }
}

#[test]
fn every_rule_has_both_fixtures() {
    for rule in RULES {
        let stem = rule.name.replace('-', "_");
        for suffix in ["bad", "allowed"] {
            let path = fixture_dir().join(format!("{stem}_{suffix}.rs"));
            assert!(path.exists(), "missing fixture {}", path.display());
        }
    }
}

// --- CLI end-to-end: exit codes and output over real trees ---------

/// Builds a throwaway tree containing `files` and runs the built
/// `neon-lint` binary over it, returning (exit_ok, stdout).
fn run_cli_on(tag: &str, files: &[(&str, &str)]) -> (bool, String) {
    let root = std::env::temp_dir().join(format!("neon-lint-fixture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, contents) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, contents).expect("write fixture copy");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_neon-lint"))
        .arg("--check")
        .arg(&root)
        .output()
        .expect("run neon-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let _ = std::fs::remove_dir_all(&root);
    (out.status.success(), stdout)
}

#[test]
fn cli_exits_nonzero_on_each_bad_fixture() {
    for &(rule, name) in BAD_FIXTURES {
        let src = read_fixture(name);
        let rel = format!("src/{name}");
        let (ok, stdout) = run_cli_on(name, &[(rel.as_str(), src.as_str())]);
        assert!(!ok, "{name}: CLI should exit nonzero, stdout:\n{stdout}");
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "{name}: stdout missing [{rule}]:\n{stdout}"
        );
    }
}

#[test]
fn cli_exits_zero_on_allowed_fixtures() {
    let sources: Vec<(String, String)> = ALLOWED_FIXTURES
        .iter()
        .map(|name| (format!("src/{name}"), read_fixture(name)))
        .collect();
    let files: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    let (ok, stdout) = run_cli_on("allowed", &files);
    assert!(ok, "allowed fixtures should lint clean:\n{stdout}");
    assert!(stdout.contains("0 findings"), "stdout:\n{stdout}");
}

#[test]
fn cli_ignores_findings_under_test_dirs() {
    let src = read_fixture("unchecked_unwrap_bad.rs");
    let (ok, _) = run_cli_on("testdir", &[("tests/unwrap.rs", src.as_str())]);
    assert!(ok, "tests/ dirs are exempt from every rule");
}

#[test]
fn cli_checks_test_dirs_for_wall_clock_assertions() {
    let src = read_fixture("wall_clock_assert_bad.rs");
    let (ok, stdout) = run_cli_on("testdir-assert", &[("tests/speed.rs", src.as_str())]);
    assert!(!ok, "wall-clock-assert must check tests/ dirs:\n{stdout}");
    assert!(stdout.contains("[wall-clock-assert]"), "stdout:\n{stdout}");
}

#[test]
fn cli_list_and_explain() {
    let bin = env!("CARGO_BIN_EXE_neon-lint");
    let list = Command::new(bin)
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(list.status.success());
    let list_out = String::from_utf8_lossy(&list.stdout).into_owned();
    for rule in RULES {
        assert!(list_out.contains(rule.name), "--list missing {}", rule.name);
    }

    let explain = Command::new(bin)
        .args(["--explain", "hash-iter"])
        .output()
        .expect("run --explain");
    assert!(explain.status.success());
    let explain_out = String::from_utf8_lossy(&explain.stdout).into_owned();
    assert!(
        explain_out.contains("History:"),
        "--explain should cite the historical bug:\n{explain_out}"
    );

    let bogus = Command::new(bin)
        .args(["--explain", "warp-drive"])
        .output()
        .expect("run --explain bogus");
    assert!(
        !bogus.status.success(),
        "--explain on unknown rule must fail"
    );
}
