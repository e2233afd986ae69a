//! `snip lint`: the determinism contract as machine-checked rules.
//!
//! Every speed and robustness PR in this workspace rests on one claim —
//! the merged output of any run is bit-identical across threads,
//! processes, transports, crashes, and resumes. That claim depends on a
//! handful of source-level disciplines that nothing enforced until now:
//! wall-clock reads stay out of deterministic code, hash-ordered
//! collections stay out of anything that feeds the wire or the merge,
//! RNGs are always explicitly seeded, the integer-µs ledgers never
//! accumulate through floats, and `unsafe` stays banished. This module
//! is a hand-rolled, token-level scanner (no syn, no regex — the same
//! no-new-deps spirit as the thread pool and the HTTP endpoint) that
//! walks `crates/*/src/**.rs` and enforces those disciplines.
//!
//! ## Rules
//!
//! | rule | scope | what it flags |
//! |---|---|---|
//! | `wall-clock` | all crates except `obs`, `bench`, `verify` | `Instant::now` / `SystemTime::now` |
//! | `hash-collections` | deterministic crates (incl. all of `fleetd`) | the `HashMap` / `HashSet` types |
//! | `ambient-rng` | every crate | `thread_rng`, `from_entropy`, `OsRng`, `rand::random` |
//! | `float-ledger` | the integer-µs ledger modules | `f32`, `sum::<f64>` |
//! | `unsafe-code` | every crate | the `unsafe` keyword; crate roots missing `#![forbid/deny(unsafe_code)]` |
//! | `value-tree` | all crates except `verify` | `Value`, `to_value`, `from_value` |
//! | `lint-directive` | every crate | malformed or unused `snip-lint` allows |
//!
//! `crates/obs` and `crates/bench` are exempt from `wall-clock` because
//! measuring wall time is their job; `crates/verify` is exempt because
//! the fuzzer's hang watchdog is *defined* by wall time. `value-tree`
//! keeps records decoding straight from their bytes, with no
//! `serde::Value` tree in between; `crates/verify` is exempt because its
//! fuzzer checks the slice reader against the tree walker. Test code —
//! `tests/` trees and `#[cfg(test)]` modules — is skipped everywhere:
//! tests may time things and build scratch maps freely.
//!
//! ## The escape hatch
//!
//! A line comment of the exact shape
//!
//! ```text
//! // snip-lint: allow(<rule>): "<justification>"
//! ```
//!
//! suppresses `<rule>` on that line and the next. The justification is
//! mandatory and must be non-empty — an allow without a reason is itself
//! a violation, and so is an allow that suppresses nothing (stale allows
//! rot into lies).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Every rule the lint knows, with a one-line description (the README's
/// lint table lists the same rules).
pub const RULES: &[(&str, &str)] = &[
    (
        "wall-clock",
        "Instant::now/SystemTime::now outside crates/obs, crates/bench, crates/verify",
    ),
    (
        "hash-collections",
        "HashMap/HashSet in deterministic crates (iteration order feeds the wire); use BTreeMap/BTreeSet",
    ),
    (
        "ambient-rng",
        "ambient RNG construction (thread_rng/from_entropy/OsRng/rand::random); seed explicitly",
    ),
    (
        "float-ledger",
        "float accumulation inside an integer-µs ledger module (f32, sum::<f64>)",
    ),
    (
        "unsafe-code",
        "the unsafe keyword, or a crate root missing #![forbid(unsafe_code)]/#![deny(unsafe_code)]",
    ),
    (
        "value-tree",
        "Value/to_value/from_value outside crates/verify; decode straight from bytes",
    ),
    (
        "lint-directive",
        "a malformed, unknown-rule, or unused `// snip-lint: allow(...)` directive",
    ),
];

/// One finding: a rule fired at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired (a name from [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The outcome of a whole-workspace pass.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Everything that fired, in (path, line) order.
    pub violations: Vec<Violation>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Number of allow directives that suppressed a real finding.
    pub allows_honored: usize,
}

impl LintReport {
    /// True when the tree is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lints every `crates/*/src/**.rs` file under `root` (the workspace
/// checkout). `tests/`, `benches/`, `examples/`, and `target/` trees
/// never enter the walk.
///
/// # Errors
///
/// Returns [`io::ErrorKind::NotFound`] naming the missing path when `root`
/// has no `crates/` directory (not a checkout's root), and propagates I/O
/// errors from the directory walk and file reads.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no `{}` directory: `snip lint` must run from the repository root \
                 (or name it with --root)",
                crates_dir.display()
            ),
        ));
    }
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    files.sort();

    let mut report = LintReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let source = fs::read_to_string(&path)?;
        let (mut violations, honored) = lint_file(&rel, &source);
        report.files_scanned += 1;
        report.allows_honored += honored;
        report.violations.append(&mut violations);
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if matches!(&*name, "tests" | "benches" | "examples" | "target") {
                continue;
            }
            collect_rs_files(&entry.path(), out)?;
        } else if name.ends_with(".rs") {
            out.push(entry.path());
        }
    }
    Ok(())
}

/// Lints one file's source under its workspace-relative path. Returns the
/// violations plus the number of allow directives that earned their keep.
#[must_use]
pub fn lint_file(rel: &str, source: &str) -> (Vec<Violation>, usize) {
    let masked = mask_source(source);
    let mut violations = Vec::new();

    // Malformed directives are violations regardless of scope.
    for bad in &masked.malformed {
        violations.push(Violation {
            path: rel.into(),
            line: bad.0,
            rule: "lint-directive",
            message: bad.1.clone(),
        });
    }

    let skip = test_ranges(&masked.text);
    let in_tests = |line: usize| skip.iter().any(|&(a, b)| line >= a && line <= b);
    let tokens = tokenize(&masked.text);

    let mut allow_used = vec![false; masked.allows.len()];
    let mut push = |line: usize, rule: &'static str, message: String| {
        if in_tests(line) {
            return false;
        }
        if let Some(i) = masked
            .allows
            .iter()
            .position(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
        {
            allow_used[i] = true;
            return true;
        }
        violations.push(Violation {
            path: rel.into(),
            line,
            rule,
            message,
        });
        false
    };

    let mut honored = 0;
    for hit in scan_rules(rel, &tokens) {
        if push(hit.0, hit.1, hit.2) {
            honored += 1;
        }
    }

    // Crate roots must pin the unsafe ban at the attribute level too, so
    // `cargo build` itself rejects what the lint rejects.
    if rel.starts_with("crates/") && rel.ends_with("/src/lib.rs") {
        let has_attr = masked.text.contains("#![forbid(unsafe_code)]")
            || masked.text.contains("#![deny(unsafe_code)]");
        if !has_attr {
            violations.push(Violation {
                path: rel.into(),
                line: 1,
                rule: "unsafe-code",
                message: "crate root lacks #![forbid(unsafe_code)] (or #![deny(unsafe_code)])"
                    .into(),
            });
        }
    }

    // An allow that suppressed nothing is stale — flag it so the escape
    // hatch can never silently outlive the hazard it excused.
    for (i, allow) in masked.allows.iter().enumerate() {
        if !allow_used[i] && !in_tests(allow.line) {
            violations.push(Violation {
                path: rel.into(),
                line: allow.line,
                rule: "lint-directive",
                message: format!(
                    "unused allow({}) — nothing on this or the next line trips that rule",
                    allow.rule
                ),
            });
        }
    }

    (violations, honored)
}

// ----------------------------------------------------------------- scopes

fn wall_clock_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && !rel.starts_with("crates/obs/")
        && !rel.starts_with("crates/bench/")
        && !rel.starts_with("crates/verify/")
}

fn deterministic_scope(rel: &str) -> bool {
    const DETERMINISTIC: &[&str] = &[
        "crates/units/",
        "crates/model/",
        "crates/mobility/",
        "crates/opt/",
        "crates/core/",
        "crates/sim/",
        "crates/replay/",
        "crates/fleetd/",
        "crates/verify/",
    ];
    DETERMINISTIC.iter().any(|p| rel.starts_with(p))
}

fn value_tree_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && !rel.starts_with("crates/verify/")
}

fn ledger_scope(rel: &str) -> bool {
    matches!(
        rel,
        "crates/sim/src/metrics.rs" | "crates/units/src/time.rs" | "crates/units/src/data.rs"
    )
}

// ---------------------------------------------------------------- scanner

/// Scans the token stream for every rule applicable to `rel`. Returns
/// `(line, rule, message)` triples.
fn scan_rules(rel: &str, tokens: &[Tok]) -> Vec<(usize, &'static str, String)> {
    let mut hits = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let Tok::Ident(line, name) = tok else {
            continue;
        };
        let line = *line;
        match name.as_str() {
            // Only the clock *read* is banned; mentioning the type
            // (deadline arithmetic, struct fields) is fine.
            "Instant" | "SystemTime"
                if wall_clock_scope(rel) && followed_by(tokens, i, &["::", "now"]) =>
            {
                hits.push((
                    line,
                    "wall-clock",
                    format!("{name}::now() read outside crates/obs|bench|verify"),
                ));
            }
            "HashMap" | "HashSet" if deterministic_scope(rel) => {
                hits.push((
                    line,
                    "hash-collections",
                    format!("{name} in a deterministic crate — iteration order is seed-dependent; use BTree{}", &name[4..]),
                ));
            }
            "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng" => {
                hits.push((
                    line,
                    "ambient-rng",
                    format!("ambient RNG `{name}` — every RNG must be explicitly seeded"),
                ));
            }
            "rand" if followed_by(tokens, i, &["::", "random"]) => {
                hits.push((
                    line,
                    "ambient-rng",
                    "`rand::random` draws from an ambient RNG — seed explicitly".into(),
                ));
            }
            "f32" if ledger_scope(rel) => {
                hits.push((
                    line,
                    "float-ledger",
                    "f32 inside an integer-µs ledger module".into(),
                ));
            }
            "sum" if ledger_scope(rel) && followed_by(tokens, i, &["::", "<", "f64", ">"]) => {
                hits.push((
                    line,
                    "float-ledger",
                    "float accumulation (`sum::<f64>`) inside an integer-µs ledger module".into(),
                ));
            }
            "Value" | "to_value" | "from_value" if value_tree_scope(rel) => {
                hits.push((
                    line,
                    "value-tree",
                    format!(
                        "`{name}` goes through a serde::Value tree; decode straight from bytes"
                    ),
                ));
            }
            "unsafe" => {
                hits.push((
                    line,
                    "unsafe-code",
                    "the `unsafe` keyword is banned workspace-wide".into(),
                ));
            }
            _ => {}
        }
    }
    hits
}

/// True when the tokens after index `i` spell out `pat`, where each
/// pattern element is either an identifier or a punctuation run (`"::"`
/// is two `:` tokens).
fn followed_by(tokens: &[Tok], i: usize, pat: &[&str]) -> bool {
    let mut j = i + 1;
    for want in pat {
        if want.chars().all(|c| c.is_ascii_punctuation()) {
            for ch in want.chars() {
                match tokens.get(j) {
                    Some(Tok::Punct(c)) if *c == ch => j += 1,
                    _ => return false,
                }
            }
        } else {
            match tokens.get(j) {
                Some(Tok::Ident(_, name)) if name == want => j += 1,
                _ => return false,
            }
        }
    }
    true
}

// -------------------------------------------------------------- tokenizer

#[derive(Debug)]
enum Tok {
    /// `(line, name)` — identifier or keyword.
    Ident(usize, String),
    /// Any other non-whitespace character (line tracking is only needed
    /// for idents — punctuation never anchors a violation on its own).
    Punct(char),
}

/// Tokenizes masked source (comments and strings already blanked), so a
/// naive character scan is exact. Numeric literals are consumed whole so
/// a `1.0f64` suffix never masquerades as an `f64` identifier.
fn tokenize(masked: &str) -> Vec<Tok> {
    let chars: Vec<char> = masked.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Tok::Ident(line, chars[start..i].iter().collect()));
        } else if c.is_ascii_digit() {
            // A numeric literal, suffix and all (1_000u64, 0.5f32, 0xFF).
            while i < chars.len()
                && (chars[i].is_ascii_alphanumeric() || chars[i] == '_' || chars[i] == '.')
            {
                i += 1;
            }
        } else {
            toks.push(Tok::Punct(c));
            i += 1;
        }
    }
    toks
}

// ----------------------------------------------------------------- masker

struct Masked {
    /// The source with comments and string/char literals blanked to
    /// spaces (newlines preserved), so token scans can't be fooled.
    text: String,
    /// Well-formed allow directives found in line comments.
    allows: Vec<AllowDirective>,
    /// `(line, complaint)` for directives that fail to parse.
    malformed: Vec<(usize, String)>,
}

struct AllowDirective {
    /// The line the comment sits on; it covers this line and the next.
    line: usize,
    rule: &'static str,
}

/// Blanks comments and literals, harvesting `snip-lint:` directives from
/// line comments on the way. Handles nested block comments, raw strings
/// (`r#".."#`), byte strings, and the char-literal/lifetime ambiguity.
fn mask_source(source: &str) -> Masked {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    let mut line = 1;
    let mut i = 0;

    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';

    while i < chars.len() {
        let c = chars[i];
        let prev_ident = i > 0 && is_ident(chars[i - 1]);
        if c == '\n' {
            out.push('\n');
            line += 1;
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            // Line comment: blank it, but read it first for directives.
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            let body: String = chars[start..i].iter().collect();
            parse_directive(&body, line, &mut allows, &mut malformed);
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            // Block comment, nesting honored.
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
        } else if c == '"' {
            i = blank_string(&chars, i, &mut out, &mut line);
        } else if (c == 'r' || c == 'b') && !prev_ident {
            // r"..", r#"..."#, br"..", b"..".
            let mut j = i;
            if c == 'b' && matches!(chars.get(j + 1), Some('r' | '"')) {
                out.push(' ');
                j += 1;
            }
            if chars.get(j).copied() == Some('r')
                && matches!(chars.get(j + 1), Some('"' | '#'))
                && (j != i || !prev_ident)
            {
                let mut hashes = 0;
                let mut k = j + 1;
                while chars.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if chars.get(k) == Some(&'"') {
                    // Blank `r##"` opener then scan to `"##`.
                    for _ in j..=k {
                        out.push(' ');
                    }
                    i = k + 1;
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut m = 0;
                            while m < hashes && chars.get(i + 1 + m) == Some(&'#') {
                                m += 1;
                            }
                            if m == hashes {
                                for _ in 0..=hashes {
                                    out.push(' ');
                                }
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        if chars[i] == '\n' {
                            out.push('\n');
                            line += 1;
                        } else {
                            out.push(' ');
                        }
                        i += 1;
                    }
                    continue;
                }
                // `r` not opening a raw string: fall through as code.
                if j != i {
                    // We already blanked the `b`; restore it as code.
                    out.pop();
                    out.push('b');
                }
                out.push(chars[j]);
                i = j + 1;
            } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                // b"..." — the `b` is already blanked above.
                i = blank_string(&chars, i + 1, &mut out, &mut line);
            } else {
                if j != i {
                    out.pop();
                    out.push('b');
                }
                out.push(chars[j]);
                i = j + 1;
            }
        } else if c == '\'' {
            // Char literal vs lifetime: a literal closes within a couple
            // of chars (`'x'`, `'\n'`, `'\u{1F600}'`); a lifetime never
            // has a closing quote right after its identifier.
            if chars.get(i + 1) == Some(&'\\') {
                // '\X…': blank quote, backslash, and the escaped char
                // first (so '\'' can't fake an early close), then scan
                // for the real closing quote.
                for _ in 0..3 {
                    if i < chars.len() {
                        out.push(' ');
                        i += 1;
                    }
                }
                while i < chars.len() && chars[i] != '\'' {
                    if chars[i] == '\n' {
                        // Defensive: a malformed literal must not eat
                        // line numbers while we hunt for its close.
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
                if i < chars.len() {
                    out.push(' ');
                    i += 1;
                }
            } else if chars.get(i + 2) == Some(&'\'') {
                out.push_str("   ");
                i += 3;
            } else {
                // Lifetime: keep as code (harmless to the token scan).
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }

    Masked {
        text: out,
        allows,
        malformed,
    }
}

/// Blanks a normal (escaped) string literal starting at `chars[i] == '"'`.
/// Returns the index just past the closing quote.
fn blank_string(chars: &[char], mut i: usize, out: &mut String, line: &mut usize) -> usize {
    out.push(' ');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // An escape consumes the next char too — but `\` at end
                // of line is a string continuation whose newline must
                // survive, or every line number after it drifts.
                out.push(' ');
                if chars.get(i + 1) == Some(&'\n') {
                    out.push('\n');
                    *line += 1;
                } else {
                    out.push(' ');
                }
                i += 2;
            }
            '"' => {
                out.push(' ');
                return i + 1;
            }
            '\n' => {
                out.push('\n');
                *line += 1;
                i += 1;
            }
            _ => {
                out.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Parses a `snip-lint:` directive out of one line comment, if present.
fn parse_directive(
    comment: &str,
    line: usize,
    allows: &mut Vec<AllowDirective>,
    malformed: &mut Vec<(usize, String)>,
) {
    // A directive must be the comment's whole purpose: `// snip-lint:`
    // (or the trailing-comment form) with nothing but slashes, the
    // doc-comment markers, and whitespace before it. Prose that merely
    // *mentions* `snip-lint:` mid-sentence — like this crate's own
    // documentation — is not a directive.
    let lead = comment.trim_start_matches(['/', '!']).trim_start();
    let Some(rest) = lead.strip_prefix("snip-lint:") else {
        return;
    };
    let rest = rest.trim();
    let mut fail = |msg: String| malformed.push((line, msg));
    let Some(inner) = rest.strip_prefix("allow(") else {
        fail(format!(
            "expected `allow(<rule>): \"<justification>\"` after snip-lint:, got `{rest}`"
        ));
        return;
    };
    let Some(close) = inner.find(')') else {
        fail("unclosed allow( — missing `)`".into());
        return;
    };
    let rule_name = inner[..close].trim();
    let Some(rule) = RULES.iter().map(|(n, _)| *n).find(|n| *n == rule_name) else {
        fail(format!("unknown lint rule `{rule_name}`"));
        return;
    };
    let tail = inner[close + 1..].trim();
    let justification = tail
        .strip_prefix(':')
        .map(str::trim)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| t.rfind('"').map(|e| t[..e].trim().to_string()));
    match justification {
        Some(j) if !j.is_empty() => allows.push(AllowDirective { line, rule }),
        _ => fail("allow directive needs a non-empty quoted justification".into()),
    }
}

// ------------------------------------------------------------ test ranges

/// Line spans covered by `#[cfg(test)]` items (usually `mod tests`),
/// located by literal attribute match plus brace counting on the masked
/// text (strings and comments are already blank, so braces are real).
fn test_ranges(masked: &str) -> Vec<(usize, usize)> {
    let chars: Vec<char> = masked.chars().collect();
    let needle: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut ranges = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '#' && chars[i..].starts_with(&needle) {
            let start_line = line;
            i += needle.len();
            // Find the item's body (`{`) or its end (`;` for `mod x;`).
            let mut depth = 0usize;
            let mut opened = false;
            while i < chars.len() {
                match chars[i] {
                    '\n' => line += 1,
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break;
                        }
                    }
                    ';' if !opened => break,
                    _ => {}
                }
                i += 1;
            }
            ranges.push((start_line, line));
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, src: &str) -> Vec<Violation> {
        lint_file(rel, src).0
    }

    #[test]
    fn wall_clock_reads_flagged_outside_obs_and_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let v = lint_str("crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wall-clock");
        assert_eq!(v[0].line, 1);
        assert!(lint_str("crates/obs/src/x.rs", src).is_empty());
        assert!(lint_str("crates/bench/src/x.rs", src).is_empty());
        assert!(lint_str("crates/verify/src/x.rs", src).is_empty());
        // Mentioning the type without reading the clock is fine.
        let decl = "struct S { at: std::time::Instant }\n";
        assert!(lint_str("crates/sim/src/x.rs", decl).is_empty());
        let sys = "fn f() { let t = SystemTime::now(); }\n";
        assert_eq!(
            lint_str("crates/fleetd/src/x.rs", sys)[0].rule,
            "wall-clock"
        );
    }

    #[test]
    fn value_tree_flagged_outside_verify_and_tests() {
        let src = "use serde::Value;\nfn f(m: &M) { let v = m.to_value(); M::from_value(&v); }\n";
        let v = lint_str("crates/replay/src/x.rs", src);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "value-tree"));
        assert_eq!((v[0].line, v[2].line), (1, 2));
        assert!(lint_str("crates/verify/src/x.rs", src).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_str("crates/replay/src/x.rs", &in_test).is_empty());
        // Other identifiers that merely contain the word are fine.
        let other = "fn f() { let value = Values::new(); serde::value::x(); }\n";
        assert!(lint_str("crates/replay/src/x.rs", other).is_empty());
    }

    #[test]
    fn hash_collections_flagged_in_deterministic_crates_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let v = lint_str("crates/opt/src/x.rs", src);
        assert_eq!(v.len(), 3, "one per mention: {v:?}");
        assert!(v.iter().all(|x| x.rule == "hash-collections"));
        assert!(lint_str("crates/obs/src/x.rs", src).is_empty());
        let set = "fn f() { let s = std::collections::HashSet::<u8>::new(); }\n";
        assert_eq!(lint_str("crates/fleetd/src/bin/snip.rs", set).len(), 1);
    }

    #[test]
    fn ambient_rng_flagged_everywhere() {
        for (src, everywhere) in [
            ("fn f() { let r = rand::thread_rng(); }\n", true),
            ("fn f() { let r = StdRng::from_entropy(); }\n", true),
            ("fn f() { let x: u64 = rand::random(); }\n", true),
        ] {
            for rel in ["crates/sim/src/x.rs", "crates/obs/src/x.rs"] {
                let v = lint_str(rel, src);
                assert_eq!(v.len(), usize::from(everywhere), "{rel}: {src}");
                assert_eq!(v[0].rule, "ambient-rng");
            }
        }
        // Seeded construction is the sanctioned path.
        assert!(lint_str(
            "crates/sim/src/x.rs",
            "fn f() { let r = StdRng::seed_from_u64(7); }\n"
        )
        .is_empty());
    }

    #[test]
    fn a_root_without_crates_names_the_missing_path() {
        let dir = std::env::temp_dir().join(format!("snip-lint-no-crates-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let err = lint_workspace(&dir).unwrap_err();
        fs::remove_dir_all(&dir).unwrap();
        let msg = err.to_string();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(
            msg.contains("must run from the repository root")
                && msg.contains(&dir.join("crates").display().to_string()),
            "{msg}"
        );
    }

    #[test]
    fn float_ledger_rules_scope_to_ledger_modules() {
        let src = "fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\nstruct S { x: f32 }\n";
        let v = lint_str("crates/sim/src/metrics.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "float-ledger"));
        assert!(lint_str("crates/sim/src/runner.rs", src).is_empty());
        // Float literals with suffixes don't fake an f64 identifier.
        assert!(lint_str("crates/units/src/time.rs", "const X: f64 = 1.0;\n").is_empty());
    }

    #[test]
    fn unsafe_keyword_and_missing_root_attr_flagged() {
        let v = lint_str(
            "crates/core/src/x.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        );
        assert!(v.iter().any(|x| x.rule == "unsafe-code"));
        // A crate root without the attribute is flagged even if clean.
        let v = lint_str("crates/core/src/lib.rs", "pub fn ok() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-code");
        let v = lint_str(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn ok() {}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn comments_strings_and_test_modules_are_invisible() {
        let src = r##"
// Instant::now() in a comment is fine; so is HashMap.
/* Block comments too: SystemTime::now() */
fn f() {
    let s = "Instant::now() in a string";
    let r = r#"raw: HashMap"#;
    let c = '"'; // a quote char must not open a string
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let t = std::time::Instant::now();
        let m = std::collections::HashMap::<u8, u8>::new();
        let _ = (t, m);
    }
}
"##;
        assert!(lint_str("crates/sim/src/x.rs", src).is_empty());
    }

    /// Regression: a `\`-at-end-of-line string continuation must not eat
    /// its newline, or every violation after it reports a drifted line
    /// (the masker once swallowed one line per continuation, putting
    /// `coordinator.rs` reports four lines off by mid-file).
    #[test]
    fn string_line_continuations_do_not_drift_line_numbers() {
        let src = "fn f() {\n    let s = \"a long message \\\n        continued \\\n        twice\";\n    let t = Instant::now();\n}\n";
        let v = lint_str("crates/sim/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wall-clock");
        assert_eq!(v[0].line, 5, "continuation newlines must be counted: {v:?}");
    }

    /// Prose that merely *mentions* `snip-lint:` mid-comment (like this
    /// crate's own docs) is not a directive — only a comment that leads
    /// with it is.
    #[test]
    fn directive_mentions_in_prose_are_not_directives() {
        let prose = "// the `// snip-lint: allow(<rule>)` escape hatch is documented here\n";
        assert!(lint_str("crates/sim/src/x.rs", prose).is_empty());
        let doc = "//! use snip-lint: allow(...) to suppress\n";
        assert!(lint_str("crates/sim/src/x.rs", doc).is_empty());
    }

    #[test]
    fn allow_directive_suppresses_exactly_one_site_and_must_justify() {
        let good = "// snip-lint: allow(wall-clock): \"codec timing metric, registry only\"\nlet t = Instant::now();\n";
        let (v, honored) = lint_file("crates/sim/src/x.rs", good);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(honored, 1);

        // Same-line trailing form works too.
        let trailing =
            "let t = Instant::now(); // snip-lint: allow(wall-clock): \"deadline bookkeeping\"\n";
        assert!(lint_str("crates/sim/src/x.rs", trailing).is_empty());

        // No justification: the directive itself is the violation.
        let bare = "// snip-lint: allow(wall-clock)\nlet t = Instant::now();\n";
        let v = lint_str("crates/sim/src/x.rs", bare);
        assert!(v.iter().any(|x| x.rule == "lint-directive"), "{v:?}");
        assert!(v.iter().any(|x| x.rule == "wall-clock"), "{v:?}");

        // Unknown rule: flagged.
        let unknown = "// snip-lint: allow(no-such-rule): \"hmm\"\n";
        assert_eq!(
            lint_str("crates/sim/src/x.rs", unknown)[0].rule,
            "lint-directive"
        );

        // An allow too far from the hazard suppresses nothing and is
        // itself flagged as stale.
        let stale = "// snip-lint: allow(wall-clock): \"reason\"\n\n\nlet t = Instant::now();\n";
        let v = lint_str("crates/sim/src/x.rs", stale);
        assert!(v.iter().any(|x| x.rule == "wall-clock"));
        assert!(v
            .iter()
            .any(|x| x.rule == "lint-directive" && x.message.contains("unused")));
    }

    #[test]
    fn the_real_workspace_is_clean() {
        // The acceptance gate: after this PR's fixes and justified
        // allows, `snip lint` on the actual tree exits clean.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_workspace(&root).expect("workspace walk");
        assert!(report.files_scanned > 40, "walked {}", report.files_scanned);
        assert!(
            report.is_clean(),
            "the workspace must lint clean; found:\n{}",
            report
                .violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            report.allows_honored >= 20,
            "the justified-allow sites exist: {}",
            report.allows_honored
        );
    }
}
