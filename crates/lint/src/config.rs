//! `lint.toml` — per-crate rule scoping.
//!
//! The linter is zero-dependency, so the config file is parsed by a
//! tiny built-in reader covering exactly the subset it needs:
//!
//! ```toml
//! [lint]
//! # Path prefixes (relative to the workspace root) no rule ever sees.
//! exclude = ["crates/vendor", "target"]
//!
//! [rule.hash-iter]
//! # Path prefixes this rule applies to; absent = everywhere.
//! paths = ["crates/sim", "crates/core"]
//!
//! [rule.narrowing-cast]
//! # Cast targets treated as narrowing.
//! targets = ["u8", "u16", "u32"]
//!
//! [rule.unchecked-unwrap]
//! # Skip `src/bin/`, `src/main.rs` and `build.rs` (CLI code may panic).
//! skip_bins = true
//! ```
//!
//! `key = value` pairs accept strings, booleans and flat string
//! arrays; `#` comments and blank lines are ignored. Unknown sections
//! and keys are rejected so a typo cannot silently widen or narrow a
//! rule's scope — the linter applies its own strictness discipline to
//! its own config.

use std::collections::BTreeMap;

use crate::rules::RULES;

/// Scoping for one rule.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// Rule is skipped entirely when false.
    pub enabled: bool,
    /// Path prefixes the rule applies to; empty = everywhere.
    pub paths: Vec<String>,
    /// Path prefixes the rule skips (on top of the global excludes).
    pub exclude: Vec<String>,
    /// Skip binary targets (`src/bin/`, `src/main.rs`, `build.rs`).
    pub skip_bins: bool,
    /// For `narrowing-cast`: the cast targets treated as narrowing.
    pub targets: Vec<String>,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from every rule.
    pub exclude: Vec<String>,
    /// Per-rule scoping, keyed by rule name.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Default for Config {
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        for rule in RULES {
            rules.insert(
                rule.name.to_string(),
                RuleConfig {
                    enabled: true,
                    paths: Vec::new(),
                    exclude: Vec::new(),
                    skip_bins: false,
                    targets: default_targets(rule.name),
                },
            );
        }
        Config {
            exclude: vec!["target".into()],
            rules,
        }
    }
}

fn default_targets(rule: &str) -> Vec<String> {
    if rule == "narrowing-cast" {
        vec!["u8".into(), "u16".into(), "u32".into()]
    } else {
        Vec::new()
    }
}

/// A config-file error with a line number.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses `lint.toml` text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section: Option<String> = None; // None until a header
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let header = header.trim();
                if header == "lint" {
                    section = Some("lint".to_string());
                } else if let Some(rule) = header.strip_prefix("rule.") {
                    if !RULES.iter().any(|r| r.name == rule) {
                        return Err(ConfigError(format!(
                            "lint.toml line {line_no}: unknown rule {rule:?} (rules: {})",
                            rule_names().join(", ")
                        )));
                    }
                    section = Some(format!("rule.{rule}"));
                } else {
                    return Err(ConfigError(format!(
                        "lint.toml line {line_no}: unknown section [{header}]; \
                         use [lint] or [rule.<name>]"
                    )));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "lint.toml line {line_no}: expected key = value, got {line:?}"
                )));
            };
            let (key, value) = (key.trim(), value.trim());
            let Some(section) = section.as_deref() else {
                return Err(ConfigError(format!(
                    "lint.toml line {line_no}: {key:?} appears before any \
                     [lint] or [rule.<name>] section"
                )));
            };
            match section {
                "lint" => match key {
                    "exclude" => config.exclude = parse_string_array(value, line_no)?,
                    other => {
                        return Err(ConfigError(format!(
                            "lint.toml line {line_no}: unknown [lint] key {other:?} \
                             (supported: exclude)"
                        )))
                    }
                },
                rule_section => {
                    // lint: allow(unchecked-unwrap) — sections reaching here
                    // matched the rule. prefix filter above
                    let rule = rule_section.strip_prefix("rule.").expect("rule section");
                    // lint: allow(unchecked-unwrap) — the rule name was
                    // validated against the known-rule list just above
                    let rc = config.rules.get_mut(rule).expect("known rule");
                    match key {
                        "enabled" => rc.enabled = parse_bool(value, line_no)?,
                        "paths" => rc.paths = parse_string_array(value, line_no)?,
                        "exclude" => rc.exclude = parse_string_array(value, line_no)?,
                        "skip_bins" => rc.skip_bins = parse_bool(value, line_no)?,
                        "targets" if rule == "narrowing-cast" => {
                            rc.targets = parse_string_array(value, line_no)?;
                        }
                        other => {
                            return Err(ConfigError(format!(
                                "lint.toml line {line_no}: unknown [rule.{rule}] key \
                                 {other:?} (supported: enabled, paths, exclude, \
                                 skip_bins{})",
                                if rule == "narrowing-cast" {
                                    ", targets"
                                } else {
                                    ""
                                }
                            )))
                        }
                    }
                }
            }
        }
        Ok(config)
    }

    /// Loads `lint.toml` from a path; a missing file yields defaults.
    pub fn load(path: &std::path::Path) -> Result<Config, ConfigError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Config::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(ConfigError(format!("cannot read {}: {e}", path.display()))),
        }
    }

    /// Whether any rule at all applies to `rel_path` (cheap pre-filter).
    pub fn file_is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(rel_path, p))
    }

    /// Whether `rule` applies to `rel_path`.
    pub fn rule_applies(&self, rule: &str, rel_path: &str) -> bool {
        let Some(rc) = self.rules.get(rule) else {
            return false;
        };
        if !rc.enabled || self.file_is_excluded(rel_path) {
            return false;
        }
        if rc.exclude.iter().any(|p| path_has_prefix(rel_path, p)) {
            return false;
        }
        if rc.skip_bins && is_bin_path(rel_path) {
            return false;
        }
        rc.paths.is_empty() || rc.paths.iter().any(|p| path_has_prefix(rel_path, p))
    }
}

fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// Prefix match on whole path components: `crates/sim` matches
/// `crates/sim/src/lib.rs` but not `crates/simulator/...`.
fn path_has_prefix(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix
        || path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Binary-target paths: `src/bin/*`, `src/main.rs`, `build.rs`.
pub fn is_bin_path(rel_path: &str) -> bool {
    rel_path.contains("/src/bin/")
        || rel_path.starts_with("src/bin/")
        || rel_path.ends_with("src/main.rs")
        || rel_path == "build.rs"
        || rel_path.ends_with("/build.rs")
}

/// Test-target paths, skipped by every rule except those that check
/// test code (`wall-clock-assert`): `tests/`, `benches/`, `examples/`
/// directory components anywhere in the path.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_bool(s: &str, line_no: usize) -> Result<bool, ConfigError> {
    match s {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(ConfigError(format!(
            "lint.toml line {line_no}: expected true or false, got {other:?}"
        ))),
    }
}

fn parse_string_array(s: &str, line_no: usize) -> Result<Vec<String>, ConfigError> {
    let body = s
        .strip_prefix('[')
        .and_then(|b| b.strip_suffix(']'))
        .ok_or_else(|| {
            ConfigError(format!(
                "lint.toml line {line_no}: expected [\"...\", ...], got {s:?}"
            ))
        })?;
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let item = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| {
                ConfigError(format!(
                    "lint.toml line {line_no}: array items must be quoted strings, \
                     got {part:?}"
                ))
            })?;
        out.push(item.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_every_rule_everywhere() {
        let c = Config::default();
        for rule in RULES {
            assert!(
                c.rule_applies(rule.name, "crates/x/src/lib.rs"),
                "{}",
                rule.name
            );
        }
        assert!(!c.rule_applies("hash-iter", "target/debug/x.rs"));
    }

    #[test]
    fn paths_scope_rules_by_component_prefix() {
        let c =
            Config::parse("[rule.hash-iter]\npaths = [\"crates/sim\", \"crates/core\"]\n").unwrap();
        assert!(c.rule_applies("hash-iter", "crates/sim/src/event.rs"));
        assert!(!c.rule_applies("hash-iter", "crates/simulator/src/lib.rs"));
        assert!(!c.rule_applies("hash-iter", "crates/scenario/src/toml.rs"));
        // Other rules stay global.
        assert!(c.rule_applies("wall-clock", "crates/scenario/src/toml.rs"));
    }

    #[test]
    fn excludes_and_bins() {
        let c = Config::parse(
            "[lint]\nexclude = [\"crates/vendor\"]\n\
             [rule.unchecked-unwrap]\nskip_bins = true\n",
        )
        .unwrap();
        assert!(!c.rule_applies("hash-iter", "crates/vendor/rand/src/lib.rs"));
        assert!(!c.rule_applies("unchecked-unwrap", "crates/scenario/src/bin/neon.rs"));
        assert!(c.rule_applies("unchecked-unwrap", "crates/scenario/src/emit.rs"));
        assert!(c.rule_applies("hash-iter", "crates/scenario/src/bin/neon.rs"));
    }

    #[test]
    fn unknown_sections_keys_and_rules_are_rejected() {
        assert!(Config::parse("[rule.warp-drive]\n").is_err());
        assert!(Config::parse("[lint]\nbogus = true\n").is_err());
        assert!(Config::parse("[rule.hash-iter]\nbogus = 1\n").is_err());
        assert!(Config::parse("[rule.hash-iter]\ntargets = [\"u8\"]\n").is_err());
        assert!(Config::parse("stray = true\n").is_err());
        assert!(Config::parse("[weird]\n").is_err());
    }

    #[test]
    fn narrowing_targets_are_configurable() {
        let c = Config::parse("[rule.narrowing-cast]\ntargets = [\"u8\", \"usize\"]\n").unwrap();
        assert_eq!(c.rules["narrowing-cast"].targets, vec!["u8", "usize"]);
        let d = Config::default();
        assert_eq!(d.rules["narrowing-cast"].targets, vec!["u8", "u16", "u32"]);
    }

    #[test]
    fn disabling_a_rule() {
        let c = Config::parse("[rule.eager-trace]\nenabled = false\n").unwrap();
        assert!(!c.rule_applies("eager-trace", "crates/sim/src/trace.rs"));
    }

    #[test]
    fn test_paths_are_recognized() {
        assert!(is_test_path("crates/sim/tests/properties.rs"));
        assert!(is_test_path("tests/fleet.rs"));
        assert!(is_test_path("crates/bench/benches/core_hot_path.rs"));
        assert!(!is_test_path("crates/sim/src/event.rs"));
    }
}
