//! The rule engine: seven determinism & accounting rules over a token
//! stream, with `// lint: allow(rule) — why` suppression.
//!
//! Rules run on [`crate::lexer`] output, so comments and every literal
//! form are invisible to them by construction. Code under
//! `#[cfg(test)]` and files under `tests/`, `benches/` or `examples/`
//! are exempt: the rules guard the *simulation's* determinism and the
//! library's accounting, not test scaffolding. The exception is
//! `wall-clock-assert`, which guards the tests themselves.

use crate::lexer::{self, Comment, Tok, Token};

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed column.
    pub col: u32,
    /// Rule name (`hash-iter`, ...).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// How to fix it.
    pub hint: String,
}

impl Finding {
    /// Renders as `file:line:col: [rule] snippet` + an indented hint.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n  hint: {}",
            self.file, self.line, self.col, self.rule, self.snippet, self.hint
        )
    }
}

/// Static description of one rule.
pub struct RuleInfo {
    /// Rule name as used in `lint.toml` and allow-comments.
    pub name: &'static str,
    /// One-line summary (shown by `--list`).
    pub summary: &'static str,
    /// Long-form documentation (shown by `--explain`), including the
    /// historical bug in this repo the rule guards against.
    pub explain: &'static str,
    /// Whether the rule also checks test code — files under `tests/`,
    /// `benches/` or `examples/` and `#[cfg(test)]` items — which the
    /// other rules exempt.
    pub test_code: bool,
}

/// Every rule the engine knows, in diagnostic order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iter",
        summary: "HashMap/HashSet in sim-affecting code needs a justification",
        explain: "\
hash-iter: ban unordered hash containers in sim-affecting crates.

`std::collections::HashMap`/`HashSet` iterate in an order that depends
on the hasher's per-process random seed. Any value that flows from an
iteration of one of these containers into the event stream (trace
entries, event scheduling order, accumulated floats, report rows)
makes the simulation nondeterministic — the exact property the golden
trace hashes pin. Keyed lookups alone are safe today, but nothing
stops the next patch from adding a `.iter()`, so sim-affecting crates
must not hold the type at all.

Fix: use `BTreeMap`/`BTreeSet` (deterministic order, and the sim's
maps are small), or an indexed `Vec` when keys are dense ids.
Justify a deliberate exception with
`// lint: allow(hash-iter) — <why>` on the same or previous line.

History: the PR 5 queue rewrite removed a per-event `HashMap` from the
hot path, and the PR 5–8 reviews repeatedly flagged unordered-iteration
hazards in `sim`, `core` and `gpu` (the DFQ free-run charge map was a
live example); this rule makes those reviews mechanical.",
        test_code: false,
    },
    RuleInfo {
        name: "wall-clock",
        summary: "Instant/SystemTime/thread-id have no place in sim code",
        explain: "\
wall-clock: ban host-time and thread-identity reads in sim-affecting
crates.

`Instant::now()`, `SystemTime::now()` and `thread::current()` observe
the host, not the simulation. Any branch taken on them differs from
run to run and machine to machine, silently breaking bit-exact
determinism (same seed => byte-identical trace). Simulated time is the
only clock: take `SimTime` from the world/context instead.

Harness crates that *measure* wall time (the sweep runner's
elapsed-ms reporting) are scoped out in `lint.toml`, not allowed
inline: sim-affecting crates have no legitimate use at all.

Fix: thread `ctx.now()` / the world clock through; justify a
deliberate exception with `// lint: allow(wall-clock) — <why>`.

History: the PR 7 work-stealing sweep runner is byte-identical to
serial *only* because no sim-side code can observe which worker or
wall moment ran a cell; this rule keeps it that way.",
        test_code: false,
    },
    RuleInfo {
        name: "narrowing-cast",
        summary: "bare `as u8/u16/u32` casts silently truncate",
        explain: "\
narrowing-cast: ban bare narrowing `as` casts in non-test code.

`x as u32` wraps silently: 4294967296 becomes 0, and the simulation
carries on with a wrong device index or request count instead of
failing. The checked alternatives say what they mean:
`u32::try_from(x).expect(\"...\")` for invariants, a range-checked
accessor like the TOML loader's `as_u32` (which names the offending
key in its error) for external inputs, or `u32::from(x)` when the
conversion is provably widening.

The cast-target list lives in `lint.toml` (`targets`); `as usize` is
excluded by default because every source type cast to it in this
workspace is 32 bits or smaller. Justify a provably-in-range cast
with `// lint: allow(narrowing-cast) — <why>`.

History: PR 8 fixed seven silent `as u32` truncation sites in the
scenario TOML loader — `device = 4294967296` pinned a group to device
0 instead of erroring. This rule is that bug class, caught at the
source level.",
        test_code: false,
    },
    RuleInfo {
        name: "eager-trace",
        summary: "format! passed to a trace record site defeats zero-cost tracing",
        explain: "\
eager-trace: flag `format!` built eagerly at a trace record call.

`trace.record(at, label, format!(...))` pays the formatting and its
allocation even when tracing is disabled — which is the default for
every benchmark and sweep run. The zero-cost forms defer the work
behind the enabled check: `trace.record_with(at, label, || ...)` or
the `trace_event!` macro.

Fix: use `record_with`/`trace_event!`; a record site that is itself
inside an enabled-gate (the `trace_event!` macro's own expansion)
carries `// lint: allow(eager-trace) — <why>`.

History: PR 5's hot-path overhaul migrated every eager `format!`
trace site in `world.rs` and the schedulers to `record_with`, part of
the -57% wall-time win on the reference churn sweep; this rule stops
new eager sites from creeping back in.",
        test_code: false,
    },
    RuleInfo {
        name: "unchecked-unwrap",
        summary: "unwrap()/expect() in library code needs a justification",
        explain: "\
unchecked-unwrap: `unwrap()`/`expect()` in library (non-test,
non-bin) code must carry a justification.

A panic in library code doesn't just kill one run: the PR 7
work-stealing sweep executes many cells on shared worker threads, so
one unwrap tearing through a worker poisons a whole sweep's results.
Library code should return errors; where a panic encodes a real
invariant (\"rotation nonempty: checked three lines up\"), say so.

Fix: propagate with `?`/`ok_or_else`, or state the invariant with
`// lint: allow(unchecked-unwrap) — <why>`. Binary targets
(`src/bin/`, `src/main.rs`) are exempt via `skip_bins` in
`lint.toml`: a CLI aborting on bad input is fine.

History: repeated review rounds (PR 2, PR 4) hardened `expect` sites
in the placement and migration paths after near-miss panics on empty
rotations; the allow-comments this rule demands are those reviews'
conclusions, written down next to the code.",
        test_code: false,
    },
    RuleInfo {
        name: "panic-path",
        summary: "panic!/todo!/unimplemented! in sim-affecting code needs a justification",
        explain: "\
panic-path: flag `panic!`, `todo!` and `unimplemented!` invocations in
sim-affecting code.

A panic in the simulation core tears through the work-stealing sweep:
one cell's abort poisons a shared worker thread and takes the rest of
the sweep's cells with it. Worse, `todo!` and `unimplemented!` are
placeholders that *compile* — a half-wired code path ships silently
and only explodes when some scenario happens to reach it, possibly
hours into a chaos sweep. Sim-affecting crates should return typed
errors (the loader's keyed `SpecError`s are the model) or encode the
invariant in the type system.

`unreachable!` is deliberately not flagged: it documents a branch the
surrounding logic already proves dead, which is the one legitimate
abort form.

Fix: return an error, or state the invariant with
`// lint: allow(panic-path) — <why>`.

History: wiring PR 10's fault injection left a bare `panic!` guard in
the world's run prologue that a malformed fault plan could reach,
killing an entire chaos sweep; validation moved into the scenario
loader's keyed errors and the remaining run-start guard now carries
its justification inline. This rule keeps new abort sites from
creeping into the sim crates unexamined.",
        test_code: false,
    },
    RuleInfo {
        name: "wall-clock-assert",
        summary: "an assertion must not compare host time",
        explain: "\
wall-clock-assert: flag host time compared inside an assertion, in
test code too.

A test that asserts on how fast something ran on the host —
`assert!(parallel.wall < serial.wall)`, `assert!(start.elapsed() <
budget)` — passes or fails with the machine's load and core count,
not with the code. On a shared or single-core runner it flakes, and a
flaky tier-1 test trains everyone to re-run failures instead of
reading them. Simulated results are deterministic, so tests should
assert on them; host speed belongs to the benchmark (`perfbench/`),
which reports medians and spread instead of a pass/fail bit.

The rule fires inside `assert!`, `assert_*!`, `debug_assert*!` and
`prop_assert*!` invocations that compare (`_eq`/`_ne` forms, or a
`<`, `>`, `==`, `!=` in the arguments) and mention a host-time
measurement: `Instant` or `SystemTime`, anything named `elapsed`, or
a `.wall` field. Unlike every other rule it also checks `tests/`,
`benches/`, `examples/` and `#[cfg(test)]` code, which is where such
assertions live.

Fix: assert on simulated quantities (events, rounds, `SimTime`) and
measure speed in the benchmark. A `.wall` field that holds simulated
time (`RunReport::wall`) is justified with
`// lint: allow(wall-clock-assert) — <why>`.

History: `tests/dynamic_churn.rs` once asserted
`parallel.wall < serial.wall` in tier-1; it failed intermittently on
a 2-vCPU host until the assertion was removed. This rule keeps the
next one out.",
        test_code: true,
    },
];

/// Looks up a rule description by name.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Scoping the engine needs for one file (derived from `Config` by the
/// caller, kept free of config types so `rules` stays testable alone).
#[derive(Debug, Clone)]
pub struct FileRules {
    /// Names of rules that apply to this file.
    pub active: Vec<&'static str>,
    /// Cast targets for `narrowing-cast`.
    pub narrowing_targets: Vec<String>,
}

impl Default for FileRules {
    fn default() -> Self {
        FileRules {
            active: RULES.iter().map(|r| r.name).collect(),
            narrowing_targets: vec!["u8".into(), "u16".into(), "u32".into()],
        }
    }
}

/// Lints one file's source text.
pub fn lint_source(rel_path: &str, src: &str, rules: &FileRules) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mask = test_mask(&lexed.tokens);
    let tokens: Vec<&Token> = lexed
        .tokens
        .iter()
        .zip(&mask)
        .filter_map(|(t, &masked)| (!masked).then_some(t))
        .collect();
    let lines: Vec<&str> = src.lines().collect();
    let allows = parse_allows(&lexed.comments);

    let mut findings = Vec::new();
    let active = |name: &str| rules.active.contains(&name);
    if active("wall-clock-assert") {
        // A test-code rule: sees every token, `#[cfg(test)]` included.
        let all: Vec<&Token> = lexed.tokens.iter().collect();
        wall_clock_assert(&all, &mut findings);
    }
    if active("hash-iter") {
        hash_iter(&tokens, &mut findings);
    }
    if active("wall-clock") {
        wall_clock(&tokens, &mut findings);
    }
    if active("narrowing-cast") {
        narrowing_cast(&tokens, &rules.narrowing_targets, &mut findings);
    }
    if active("eager-trace") {
        eager_trace(&tokens, &mut findings);
    }
    if active("unchecked-unwrap") {
        unchecked_unwrap(&tokens, &mut findings);
    }
    if active("panic-path") {
        panic_path(&tokens, &mut findings);
    }

    // Attach file/snippet, then apply allow-comments.
    let mut out = Vec::new();
    for mut f in findings {
        f.file = rel_path.to_string();
        f.snippet = snippet(&lines, f.line);
        match allow_for(&allows, f.rule, f.line) {
            Some(Allow {
                has_reason: true, ..
            }) => {} // suppressed
            Some(Allow {
                has_reason: false, ..
            }) => {
                f.hint = format!(
                    "allow-comment for {} is missing its justification: write \
                     `// lint: allow({}) — <why>`",
                    f.rule, f.rule
                );
                out.push(f);
            }
            None => out.push(f),
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn snippet(lines: &[&str], line: u32) -> String {
    let text = lines
        .get(line as usize - 1)
        .map(|l| l.trim())
        .unwrap_or_default();
    let mut s: String = text.chars().take(90).collect();
    if s.len() < text.len() {
        s.push('…');
    }
    s
}

// ----------------------------------------------------------------------
// Allow-comments
// ----------------------------------------------------------------------

/// One parsed `lint: allow(rule)` marker.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    /// Lines this allow covers (the comment's own lines).
    line: u32,
    end_line: u32,
    /// Whether a non-empty justification follows the closing paren.
    has_reason: bool,
}

/// Extracts allow-markers from comments. Accepted syntax, anywhere in
/// a `//` or `/* */` comment:
///
/// `lint: allow(rule-a, rule-b) — justification text`
///
/// The separator before the justification may be `—`, `-`, `:` or just
/// whitespace; what matters is that *some* non-empty text follows.
fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let Some(at) = c.text.find("lint: allow(") else {
            continue;
        };
        let rest = &c.text[at + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let reason = rest[close + 1..]
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || ch == '—' || ch == '-' || ch == '–' || ch == ':'
            })
            .trim();
        for rule in rest[..close].split(',') {
            out.push(Allow {
                rule: rule.trim().to_string(),
                line: c.line,
                end_line: c.end_line,
                has_reason: !reason.is_empty(),
            });
        }
    }
    out
}

/// An allow suppresses a finding on any line it spans, or on the line
/// directly below it (the "comment above the offending line" idiom).
fn allow_for<'a>(allows: &'a [Allow], rule: &str, line: u32) -> Option<&'a Allow> {
    allows
        .iter()
        .filter(|a| a.rule == rule && a.line <= line && line <= a.end_line + 1)
        .max_by_key(|a| a.has_reason)
}

// ----------------------------------------------------------------------
// #[cfg(test)] masking
// ----------------------------------------------------------------------

/// Marks tokens inside `#[cfg(test)]`-attributed items. Returns one
/// bool per token: `true` = exempt from linting.
///
/// The recognizer is purely structural: after the exact token sequence
/// `# [ cfg ( test ) ]` it skips the next item — through the first
/// balanced `{...}` block, or to a `;` if one comes first (e.g.
/// `#[cfg(test)] use ...;`). `cfg(not(test))` and compound predicates
/// do not match and are therefore linted, which errs on the safe side.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_at(tokens, i) {
            let attr_end = i + 7; // one past `]`
            let mut j = attr_end;
            let mut depth = 0usize;
            let mut entered = false;
            while j < tokens.len() {
                match tokens[j].kind {
                    Tok::Punct('{') => {
                        depth += 1;
                        entered = true;
                    }
                    Tok::Punct('}') => {
                        depth -= 1;
                        if entered && depth == 0 {
                            break;
                        }
                    }
                    Tok::Punct(';') if !entered => break,
                    _ => {}
                }
                j += 1;
            }
            for m in mask.iter_mut().take((j + 1).min(tokens.len())).skip(i) {
                *m = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    let pat: [&dyn Fn(&Tok) -> bool; 7] = [
        &|t| *t == Tok::Punct('#'),
        &|t| *t == Tok::Punct('['),
        &|t| matches!(t, Tok::Ident(s) if s == "cfg"),
        &|t| *t == Tok::Punct('('),
        &|t| matches!(t, Tok::Ident(s) if s == "test"),
        &|t| *t == Tok::Punct(')'),
        &|t| *t == Tok::Punct(']'),
    ];
    tokens.len() >= i + pat.len() && pat.iter().enumerate().all(|(k, p)| p(&tokens[i + k].kind))
}

// ----------------------------------------------------------------------
// Matchers
// ----------------------------------------------------------------------

fn ident_is(t: &Token, s: &str) -> bool {
    matches!(&t.kind, Tok::Ident(n) if n == s)
}

fn punct_is(t: &Token, c: char) -> bool {
    t.kind == Tok::Punct(c)
}

fn raw_finding(t: &Token, rule: &'static str, hint: String) -> Finding {
    Finding {
        file: String::new(),
        line: t.line,
        col: t.col,
        rule,
        snippet: String::new(),
        hint,
    }
}

fn hash_iter(tokens: &[&Token], findings: &mut Vec<Finding>) {
    for t in tokens {
        if ident_is(t, "HashMap") || ident_is(t, "HashSet") {
            findings.push(raw_finding(
                t,
                "hash-iter",
                "hash iteration order feeds the event stream: use BTreeMap/BTreeSet \
                 or an indexed Vec, or justify with `// lint: allow(hash-iter) — <why>`"
                    .into(),
            ));
        }
    }
}

fn wall_clock(tokens: &[&Token], findings: &mut Vec<Finding>) {
    for w in tokens.windows(4) {
        let path_to = |head: &str, tail: &str| {
            ident_is(w[0], head)
                && punct_is(w[1], ':')
                && punct_is(w[2], ':')
                && ident_is(w[3], tail)
        };
        if path_to("Instant", "now") || path_to("SystemTime", "now") {
            findings.push(raw_finding(
                w[0],
                "wall-clock",
                "sim time is the only clock: take SimTime from the world/context \
                 (`ctx.now()`), never the host"
                    .into(),
            ));
        } else if path_to("thread", "current") {
            findings.push(raw_finding(
                w[0],
                "wall-clock",
                "thread identity varies run-to-run: sim code must behave identically \
                 on any worker thread"
                    .into(),
            ));
        }
    }
}

fn narrowing_cast(tokens: &[&Token], targets: &[String], findings: &mut Vec<Finding>) {
    for w in tokens.windows(2) {
        if ident_is(w[0], "as") {
            if let Tok::Ident(target) = &w[1].kind {
                if targets.iter().any(|t| t == target) {
                    findings.push(raw_finding(
                        w[0],
                        "narrowing-cast",
                        format!(
                            "`as {target}` wraps silently: use `{target}::try_from(..)` \
                             (or a range-checked accessor like the loader's `as_u32`), \
                             or justify with `// lint: allow(narrowing-cast) — <why>`"
                        ),
                    ));
                }
            }
        }
    }
}

fn eager_trace(tokens: &[&Token], findings: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < tokens.len() {
        if ident_is(tokens[i], "record") && i + 1 < tokens.len() && punct_is(tokens[i + 1], '(') {
            // Scan the argument list for a `format !` pair.
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < tokens.len() {
                if punct_is(tokens[j], '(') {
                    depth += 1;
                } else if punct_is(tokens[j], ')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if depth >= 1
                    && ident_is(tokens[j], "format")
                    && j + 1 < tokens.len()
                    && punct_is(tokens[j + 1], '!')
                {
                    findings.push(raw_finding(
                        tokens[j],
                        "eager-trace",
                        "this formats (and allocates) even with tracing disabled: use \
                         `record_with(at, label, || ...)` or `trace_event!`"
                            .into(),
                    ));
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

fn unchecked_unwrap(tokens: &[&Token], findings: &mut Vec<Finding>) {
    for w in tokens.windows(3) {
        if punct_is(w[0], '.')
            && (ident_is(w[1], "unwrap") || ident_is(w[1], "expect"))
            && punct_is(w[2], '(')
        {
            let which = match &w[1].kind {
                Tok::Ident(s) => s.clone(),
                _ => unreachable!("matched ident"),
            };
            findings.push(raw_finding(
                w[1],
                "unchecked-unwrap",
                format!(
                    "a library panic poisons a whole sweep worker: propagate the error, \
                     or state the invariant with `// lint: allow(unchecked-unwrap) — <why>` \
                     (found `.{which}(`)"
                ),
            ));
        }
    }
}

fn panic_path(tokens: &[&Token], findings: &mut Vec<Finding>) {
    for w in tokens.windows(2) {
        let which = ["panic", "todo", "unimplemented"]
            .iter()
            .find(|m| ident_is(w[0], m));
        if let Some(which) = which {
            if punct_is(w[1], '!') {
                findings.push(raw_finding(
                    w[0],
                    "panic-path",
                    format!(
                        "`{which}!` aborts the whole sweep worker: return a typed \
                         error (or prove the branch dead with `unreachable!`), or \
                         justify with `// lint: allow(panic-path) — <why>`"
                    ),
                ));
            }
        }
    }
}

/// An assertion macro: `assert`, `assert_*`, `debug_assert*` or
/// `prop_assert*`.
fn is_assert_macro(t: &Token) -> bool {
    matches!(&t.kind, Tok::Ident(n) if n == "assert"
        || n.starts_with("assert_")
        || n.starts_with("debug_assert")
        || n.starts_with("prop_assert"))
}

fn wall_clock_assert(tokens: &[&Token], findings: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        let opens = ['(', '[', '{'].iter().any(|&c| punct_is(tokens[i + 2], c));
        if !(is_assert_macro(tokens[i]) && punct_is(tokens[i + 1], '!') && opens) {
            i += 1;
            continue;
        }
        // The balanced argument list, delimiters excluded.
        let start = i + 3;
        let mut depth = 1usize;
        let mut end = start;
        while end < tokens.len() {
            match tokens[end].kind {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let args = &tokens[start..end];
        let name = match &tokens[i].kind {
            Tok::Ident(n) => n.as_str(),
            _ => unreachable!("matched an assertion macro name"),
        };
        let compares = name.ends_with("_eq")
            || name.ends_with("_ne")
            || args.windows(2).any(|w| {
                // `==`/`!=`, or `<`/`>` that is not `->`, `=>` or `::<`.
                (punct_is(w[1], '=') && (punct_is(w[0], '=') || punct_is(w[0], '!')))
                    || ((punct_is(w[1], '<') || punct_is(w[1], '>'))
                        && !(punct_is(w[0], '-') || punct_is(w[0], '=') || punct_is(w[0], ':')))
            });
        let host_time = (0..args.len()).find(|&k| {
            let after_dot = k > 0 && punct_is(args[k - 1], '.');
            ident_is(args[k], "Instant")
                || ident_is(args[k], "SystemTime")
                || ident_is(args[k], "elapsed")
                || (after_dot && ident_is(args[k], "wall"))
        });
        if let (true, Some(k)) = (compares, host_time) {
            findings.push(raw_finding(
                args[k],
                "wall-clock-assert",
                "host time varies with load and core count: assert on simulated \
                 quantities and measure speed in the benchmark, or justify with \
                 `// lint: allow(wall-clock-assert) — <why>`"
                    .into(),
            ));
        }
        i = end + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("crates/x/src/lib.rs", src, &FileRules::default())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_iter_fires_on_type_mention() {
        let f = lint("use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n");
        assert_eq!(rules_of(&f), vec!["hash-iter", "hash-iter"]);
        assert_eq!((f[0].line, f[0].col), (1, 23));
        assert!(f[1].snippet.contains("struct S"));
    }

    #[test]
    fn wall_clock_fires_on_all_three_forms() {
        let f = lint(
            "fn f() { let a = Instant::now(); let b = SystemTime::now(); \
             let c = std::thread::current().id(); }",
        );
        assert_eq!(rules_of(&f), vec!["wall-clock"; 3]);
    }

    #[test]
    fn narrowing_cast_respects_target_list() {
        let src = "fn f(x: u64) { let a = x as u32; let b = x as usize; let c = x as u16; }";
        let f = lint(src);
        assert_eq!(
            rules_of(&f),
            vec!["narrowing-cast"; 2],
            "usize not in defaults"
        );
        let rules = FileRules {
            narrowing_targets: vec!["usize".into()],
            ..FileRules::default()
        };
        let f = lint_source("x.rs", src, &rules);
        assert_eq!(rules_of(&f), vec!["narrowing-cast"]);
    }

    #[test]
    fn eager_trace_fires_only_inside_record_calls() {
        let f = lint("fn f() { trace.record(at, \"x\", format!(\"{t}\")); }");
        assert_eq!(rules_of(&f), vec!["eager-trace"]);
        // record_with with a closure is the blessed form.
        let f = lint("fn f() { trace.record_with(at, \"x\", || format!(\"{t}\")); }");
        assert!(f.is_empty());
        // format! elsewhere is not this rule's business.
        let f = lint("fn f() { let s = format!(\"{t}\"); trace.record(at, \"x\", s); }");
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_and_expect_fire() {
        let f = lint("fn f() { x.unwrap(); y.expect(\"msg\"); }");
        assert_eq!(rules_of(&f), vec!["unchecked-unwrap"; 2]);
    }

    #[test]
    fn panic_path_fires_on_all_three_macros() {
        let f = lint(
            "fn f(x: u32) { if x > 9 { panic!(\"nine\"); } }\n\
             fn g() { todo!() }\n\
             fn h() -> u64 { unimplemented!(\"later\") }\n",
        );
        assert_eq!(rules_of(&f), vec!["panic-path"; 3]);
        assert!(f[0].hint.contains("`panic!`"), "{}", f[0].hint);
    }

    #[test]
    fn panic_path_skips_unreachable_and_non_macro_uses() {
        // unreachable! documents a proven-dead branch; `panic::` paths
        // and `should_panic` attributes are not invocations.
        let f = lint(
            "fn f(x: u32) -> u32 { match x % 2 { 0 => 1, 1 => 2, _ => unreachable!() } }\n\
             fn g() { std::panic::set_hook(Box::new(|_| {})); }\n\
             #[should_panic]\nfn attr_mention() {}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panic_path_respects_allow_comment() {
        let src = "fn f(cap: usize) { if cap == 0 { \
                   panic!(\"zero cap\"); } } \
                   // lint: allow(panic-path) — misuse guard\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let same = "fn f() { x.unwrap(); } // lint: allow(unchecked-unwrap) — test shim\n";
        assert!(lint(same).is_empty());
        let above = "// lint: allow(unchecked-unwrap) — infallible by construction\nfn g() { x.unwrap(); }\n";
        assert!(lint(above).is_empty());
        let too_far = "// lint: allow(unchecked-unwrap) — stale\n\nfn g() { x.unwrap(); }\n";
        assert_eq!(
            lint(too_far).len(),
            1,
            "an allow does not leak past one line"
        );
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let f = lint("fn f() { x.unwrap(); } // lint: allow(unchecked-unwrap)\n");
        assert_eq!(f.len(), 1);
        assert!(
            f[0].hint.contains("missing its justification"),
            "{}",
            f[0].hint
        );
    }

    #[test]
    fn allow_is_rule_specific() {
        let f = lint("fn f() { x.unwrap(); } // lint: allow(hash-iter) — wrong rule\n");
        assert_eq!(rules_of(&f), vec!["unchecked-unwrap"]);
    }

    #[test]
    fn multi_rule_allows() {
        let src = "fn f(x: u64) { m.get(&k).unwrap() as u32 } \
                   // lint: allow(unchecked-unwrap, narrowing-cast) — both justified\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() { x.unwrap(); let _ = 1u64 as u32; }
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn cfg_test_on_a_single_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() { x.unwrap(); }\n";
        let f = lint(src);
        assert_eq!(
            rules_of(&f),
            vec!["unchecked-unwrap"],
            "only the use is exempt"
        );
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nuse std::collections::HashMap;\n";
        assert_eq!(rules_of(&lint(src)), vec!["hash-iter"]);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = r###"
// HashMap Instant::now() .unwrap() as u32 format!
/* SystemTime::now() */
fn f() {
    let a = "HashMap .unwrap() as u32";
    let b = r#"Instant::now()"#;
    let c = 'a';
}
"###;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn wall_clock_assert_fires_on_compared_host_time() {
        let src = "fn f() {\n\
                   assert!(par.wall < serial.wall);\n\
                   assert_eq!(t.elapsed().as_secs(), 0);\n\
                   prop_assert!(Instant::now() >= start);\n\
                   debug_assert!(elapsed != budget, \"slow\");\n\
                   }\n";
        let f: Vec<Finding> = lint(src)
            .into_iter()
            .filter(|f| f.rule == "wall-clock-assert")
            .collect();
        assert_eq!(f.len(), 4);
        assert_eq!(
            f.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn wall_clock_assert_ignores_uncompared_and_simulated_values() {
        let src = "fn f() {\n\
                   assert!(took.elapsed().is_some());\n\
                   assert!(report.compute_busy <= wall);\n\
                   assert_eq!(a.rounds, b.rounds);\n\
                   let ms = start.elapsed().as_millis();\n\
                   assert!(v.iter().map(|x| -> u64 { x.len() }).count() > 0);\n\
                   }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn wall_clock_assert_checks_cfg_test_code() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { assert!(s.wall < p.wall); x.unwrap(); }\n}\n";
        assert_eq!(rules_of(&lint(src)), vec!["wall-clock-assert"]);
    }

    #[test]
    fn findings_are_sorted_by_position() {
        let f = lint("fn f(x: u64) { y.unwrap(); let a = x as u32; }\nfn g() { z.unwrap(); }\n");
        let positions: Vec<_> = f.iter().map(|f| (f.line, f.col)).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted);
    }

    #[test]
    fn every_rule_has_explain_text_citing_history() {
        for rule in RULES {
            assert!(rule.explain.contains("History:"), "{}", rule.name);
            assert!(rule.explain.len() > 200, "{}", rule.name);
        }
        assert!(rule_info("hash-iter").is_some());
        assert!(rule_info("warp-drive").is_none());
    }
}
