//! The never-panic repo lint (`repro --lint`).
//!
//! PR 6 ran a one-off manual audit replacing library-path panics; this
//! module makes that audit permanent. A lightweight std-only Rust token
//! scanner walks every library source path — `src/` of the facade crate
//! and `crates/*/src` (the wire decoders `frame.rs` / `snapshot.rs`
//! additionally get an indexing rule, since a panicking slice index in a
//! decoder is a remote crash vector) — and rejects, outside `#[cfg(test)]`
//! items:
//!
//! * `.unwrap(` and `.expect(` calls,
//! * `panic!` and `todo!` invocations,
//! * index expressions (`expr[...]`) in the two wire decoders.
//!
//! Comments and string/char literals are stripped first (line numbers
//! preserved), so doc examples never flag. The committed allowlist
//! (`LINT_ALLOWLIST.txt` at the repo root) names the few justified sites;
//! **every entry must carry a justification comment on the line above**,
//! and entries that no longer match any finding fail the lint as stale,
//! so the list can only shrink or be consciously re-justified.
//!
//! `crates/compat/` is deliberately out of scope: the offline shims
//! reproduce external crates' documented panicking APIs (`proptest`'s
//! macro asserts), and their panics never reach the library's op path.
//! See `docs/ANALYSIS.md` for the policy.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What the scanner flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Rule name: `unwrap`, `expect`, `panic`, `todo` or `index`.
    pub kind: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed (also the allowlist matching key).
    pub content: String,
}

impl LintFinding {
    /// The allowlist key for this finding.
    fn key(&self) -> (String, String, String) {
        (
            self.kind.to_string(),
            self.path.clone(),
            self.content.clone(),
        )
    }
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Repo root (the directory holding `crates/` and the allowlist).
    pub root: PathBuf,
}

impl LintConfig {
    /// Lint the repo rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        LintConfig { root: root.into() }
    }

    fn allowlist_path(&self) -> PathBuf {
        self.root.join("LINT_ALLOWLIST.txt")
    }
}

/// Outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings not covered by the allowlist (each fails the run).
    pub violations: Vec<LintFinding>,
    /// Allowlist entries that matched nothing (stale; each fails the run).
    pub stale: Vec<String>,
    /// Allowlist entries missing a justification comment (each fails).
    pub unjustified: Vec<String>,
    /// Findings covered by a justified allowlist entry.
    pub allowed: usize,
    /// Files scanned.
    pub files: usize,
}

impl LintReport {
    /// True when the tree is clean under the committed allowlist.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty() && self.unjustified.is_empty()
    }

    /// Human-readable summary lines (one per problem, plus a tail line).
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for v in &self.violations {
            out.push(format!(
                "FAIL {}:{}: [{}] {}",
                v.path, v.line, v.kind, v.content
            ));
        }
        for s in &self.stale {
            out.push(format!("FAIL stale allowlist entry: {s}"));
        }
        for u in &self.unjustified {
            out.push(format!("FAIL allowlist entry without justification: {u}"));
        }
        let mut tail = String::new();
        let _ = write!(
            tail,
            "lint: {} file(s), {} allowed site(s), {} violation(s)",
            self.files,
            self.allowed,
            self.violations.len()
        );
        out.push(tail);
        out
    }
}

/// One parsed allowlist entry.
struct AllowEntry {
    kind: String,
    path: String,
    content: String,
    justified: bool,
    raw: String,
    hits: usize,
}

fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    let mut last_was_comment = false;
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() {
            last_was_comment = false;
            continue;
        }
        if let Some(rest) = t.strip_prefix('#') {
            // A justification comment must not be blank.
            last_was_comment = !rest.trim().is_empty();
            continue;
        }
        let mut parts = t.splitn(3, " @@ ");
        let kind = parts.next().unwrap_or_default().trim().to_string();
        let path = parts.next().unwrap_or_default().trim().to_string();
        let content = parts.next().unwrap_or_default().trim().to_string();
        entries.push(AllowEntry {
            kind,
            path,
            content,
            justified: last_was_comment,
            raw: t.to_string(),
            hits: 0,
        });
        last_was_comment = false;
    }
    entries
}

/// Strip comments and string/char literals, preserving line structure.
fn strip_source(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                }
            }
            'r' | 'b' if is_raw_string_start(&b, i) => {
                i = skip_raw_string(&b, i, &mut out);
            }
            '"' => {
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '"' {
                        i += 1;
                        break;
                    } else {
                        if b[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                }
                out.push_str("\"\"");
            }
            '\'' => {
                // Distinguish a char literal from a lifetime: a literal is
                // `'x'` or `'\..'`; a lifetime quote is followed by an
                // identifier with no closing quote right after.
                if next == Some('\\') {
                    i += 3; // quote, backslash, escape head (covers '\'')
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    out.push_str("' '");
                } else if b.get(i + 2) == Some(&'\'') {
                    i += 3;
                    out.push_str("' '");
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

fn is_raw_string_start(b: &[char], i: usize) -> bool {
    // r"..", r#".."#, br".., b"..", rb is not a thing; handle r/b prefixes.
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
    }
    if b.get(j) == Some(&'r') {
        j += 1;
    } else if b.get(i) == Some(&'b') {
        // plain byte string b"…": let the '"' arm strip it next iteration.
        return false;
    }
    while b.get(j) == Some(&'#') {
        j += 1;
    }
    b.get(j) == Some(&'"') && (b.get(i) == Some(&'r') || b.get(i) == Some(&'b'))
}

fn skip_raw_string(b: &[char], start: usize, out: &mut String) -> usize {
    let mut j = start;
    if b.get(j) == Some(&'b') {
        j += 1;
    }
    if b.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) != Some(&'"') {
        // Not actually a raw string (e.g. the identifier `r#keyword`).
        out.push(b[start]);
        return start + 1;
    }
    j += 1;
    while j < b.len() {
        if b[j] == '\n' {
            out.push('\n');
            j += 1;
            continue;
        }
        if b[j] == '"' {
            let mut k = 0;
            while k < hashes && b.get(j + 1 + k) == Some(&'#') {
                k += 1;
            }
            if k == hashes {
                out.push_str("\"\"");
                return j + 1 + hashes;
            }
        }
        j += 1;
    }
    j
}

/// Blank out every `#[cfg(test)]` item (attribute through the matching
/// closing brace of the item's block), keeping line structure.
fn blank_test_items(stripped: &str) -> String {
    let chars: Vec<char> = stripped.chars().collect();
    let marker: Vec<char> = "#[cfg(test)]".chars().collect();
    let mut keep = vec![true; chars.len()];
    let mut i = 0;
    while i + marker.len() <= chars.len() {
        if chars[i..i + marker.len()] != marker[..] {
            i += 1;
            continue;
        }
        // Blank from the attribute to the end of the item's brace block.
        let mut j = i + marker.len();
        while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
            j += 1;
        }
        if j < chars.len() && chars[j] == '{' {
            let mut depth = 0;
            while j < chars.len() {
                if chars[j] == '{' {
                    depth += 1;
                } else if chars[j] == '}' {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        for (k, flag) in keep.iter_mut().enumerate().take(j).skip(i) {
            if chars[k] != '\n' {
                *flag = false;
            }
        }
        i = j.max(i + 1);
    }
    chars
        .iter()
        .zip(keep.iter())
        .map(|(c, k)| if *k || *c == '\n' { *c } else { ' ' })
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find rule hits on one stripped, test-blanked line.
fn scan_line(line: &str, decoder: bool, hits: &mut Vec<&'static str>) {
    let chars: Vec<char> = line.chars().collect();
    let find_calls = |name: &str, out: &mut Vec<&'static str>, kind: &'static str| {
        let pat: Vec<char> = name.chars().collect();
        let mut i = 0;
        while i + pat.len() <= chars.len() {
            if chars[i..i + pat.len()] == pat[..]
                && i > 0
                && chars[i - 1] == '.'
                && chars.get(i + pat.len()).map(|c| *c == '(').unwrap_or(false)
            {
                out.push(kind);
            }
            i += 1;
        }
    };
    find_calls("unwrap", hits, "unwrap");
    find_calls("expect", hits, "expect");
    for (name, kind) in [("panic!", "panic"), ("todo!", "todo")] {
        let pat: Vec<char> = name.chars().collect();
        let mut i = 0;
        while i + pat.len() <= chars.len() {
            if chars[i..i + pat.len()] == pat[..] && (i == 0 || !is_ident_char(chars[i - 1])) {
                hits.push(kind);
            }
            i += 1;
        }
    }
    if decoder {
        for i in 1..chars.len() {
            if chars[i] == '[' {
                // Index expression: `expr[`. Attributes (`#[`), types
                // (`: [`), slices (`&[`) have a non-expression char before.
                let prev = chars[i - 1];
                if is_ident_char(prev) || prev == ')' || prev == ']' {
                    hits.push("index");
                }
            }
        }
    }
}

fn scan_file(path: &Path, rel: &str, findings: &mut Vec<LintFinding>) -> io::Result<()> {
    let src = fs::read_to_string(path)?;
    let stripped = blank_test_items(&strip_source(&src));
    let decoder = rel.ends_with("frame.rs") || rel.ends_with("snapshot.rs");
    let raw_lines: Vec<&str> = src.lines().collect();
    for (idx, line) in stripped.lines().enumerate() {
        let mut hits = Vec::new();
        scan_line(line, decoder, &mut hits);
        hits.dedup();
        for kind in hits {
            findings.push(LintFinding {
                kind,
                path: rel.to_string(),
                line: idx + 1,
                content: raw_lines
                    .get(idx)
                    .map(|l| l.trim())
                    .unwrap_or("")
                    .to_string(),
            });
        }
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
    Ok(())
}

/// The library source files in scope: `src/` of the facade and every
/// `crates/*/src` except the offline compat shims.
fn scope_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        walk_rs(&facade, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let entry = entry?;
            let p = entry.path();
            if !p.is_dir() || entry.file_name() == "compat" {
                continue;
            }
            let src = p.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Run the lint over the configured repo root.
pub fn run_lint(cfg: &LintConfig) -> io::Result<LintReport> {
    let mut findings = Vec::new();
    let files = scope_files(&cfg.root)?;
    let mut report = LintReport {
        files: files.len(),
        ..LintReport::default()
    };
    for f in &files {
        let rel = f
            .strip_prefix(&cfg.root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        scan_file(f, &rel, &mut findings)?;
    }
    let allow_text = match fs::read_to_string(cfg.allowlist_path()) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let mut entries = parse_allowlist(&allow_text);
    for e in &entries {
        if !e.justified {
            report.unjustified.push(e.raw.clone());
        }
    }
    for finding in findings {
        let (kind, path, content) = finding.key();
        let matched = entries
            .iter_mut()
            .find(|e| e.justified && e.kind == kind && e.path == path && e.content == content);
        match matched {
            Some(e) => {
                e.hits += 1;
                report.allowed += 1;
            }
            None => report.violations.push(finding),
        }
    }
    for e in &entries {
        if e.justified && e.hits == 0 {
            report.stale.push(e.raw.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_do_not_flag() {
        let src = r#"
// .unwrap() in a comment
/// doc: x.unwrap()
fn f() {
    let s = ".unwrap() panic! todo!";
    let c = '"';
    let _ = s.len();
    let _ = c;
}
"#;
        let stripped = blank_test_items(&strip_source(src));
        let mut hits = Vec::new();
        for line in stripped.lines() {
            scan_line(line, false, &mut hits);
        }
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn real_calls_flag_with_exact_identifiers() {
        let mut hits = Vec::new();
        scan_line("let x = y.unwrap();", false, &mut hits);
        scan_line("let x = y.expect(\"\");", false, &mut hits);
        scan_line("panic!(\"boom\");", false, &mut hits);
        scan_line("todo!();", false, &mut hits);
        assert_eq!(hits, vec!["unwrap", "expect", "panic", "todo"]);
        // Near-misses must not flag.
        let mut none = Vec::new();
        scan_line("let x = y.unwrap_or(0);", false, &mut none);
        scan_line("let x = y.expect_err(\"\");", false, &mut none);
        scan_line("let x = y.unwrap_or_else(f);", false, &mut none);
        scan_line("#[panic_handler]", false, &mut none);
        assert!(none.is_empty(), "{none:?}");
    }

    #[test]
    fn decoder_indexing_flags_only_index_expressions() {
        let mut hits = Vec::new();
        scan_line("let b = buf[4];", true, &mut hits);
        scan_line("let b = (f())[0];", true, &mut hits);
        assert_eq!(hits, vec!["index", "index"]);
        let mut none = Vec::new();
        scan_line("#[derive(Debug)]", true, &mut none);
        scan_line("let b: [u8; 4] = x;", true, &mut none);
        scan_line("fn f(b: &[u8]) {}", true, &mut none);
        assert!(none.is_empty(), "{none:?}");
    }

    #[test]
    fn cfg_test_items_are_blanked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let stripped = blank_test_items(&strip_source(src));
        let mut hits = Vec::new();
        for line in stripped.lines() {
            scan_line(line, false, &mut hits);
        }
        assert!(hits.is_empty(), "{hits:?}");
        // Line count is preserved for stable line numbers.
        assert_eq!(stripped.lines().count(), src.lines().count());
    }

    #[test]
    fn allowlist_requires_justification_and_rejects_stale() {
        let text = "\
# mutex poisoning is unreachable: workers catch_unwind
expect @@ crates/x/src/a.rs @@ lock().expect(\"poisoned\")

unwrap @@ crates/x/src/b.rs @@ v.unwrap()
";
        let entries = parse_allowlist(text);
        assert_eq!(entries.len(), 2);
        assert!(entries[0].justified);
        assert!(!entries[1].justified, "no comment above → unjustified");
    }

    #[test]
    fn lint_runs_clean_on_this_repo() {
        // The tier-1 enforcement point: the committed allowlist must cover
        // the tree exactly (no violations, no stale entries).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = match run_lint(&LintConfig::new(root)) {
            Ok(r) => r,
            Err(e) => panic!("lint io error: {e}"),
        };
        assert!(report.ok(), "{:#?}", report.lines());
        assert!(report.files > 10, "scope unexpectedly small");
    }
}
