//! File classification, `#[cfg(test)]` region detection, inline
//! suppression handling, and the workspace walker.

use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};
use crate::report::{Finding, LintReport};
use crate::rules::{rule_named, RawFinding, MALFORMED_ALLOW, RULES};

/// What kind of target a file belongs to; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Crate sources (`src/`), including binaries — determinism rules
    /// apply in full.
    Library,
    /// Integration tests (`tests/` directories): may read wall clocks
    /// and pin wire bytes as literals.
    Test,
    /// Example programs (`examples/`).
    Example,
}

/// One file, lexed and classified — the input every rule sees.
pub struct FileContext {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub kind: FileKind,
    pub src: String,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Copies of the non-comment tokens, for window matching.
    code: Vec<Token>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    test_regions: Vec<(usize, usize)>,
}

impl FileContext {
    /// Lexes and classifies `src`.
    pub fn new(path: String, kind: FileKind, src: String) -> Self {
        let tokens = lex(&src);
        let code: Vec<Token> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .copied()
            .collect();
        let test_regions = find_test_regions(&code, &src);
        FileContext {
            path,
            kind,
            src,
            tokens,
            code,
            test_regions,
        }
    }

    /// The non-comment tokens.
    pub fn code(&self) -> &[Token] {
        &self.code
    }

    /// Iterates `(index_into_code, token)` over non-comment tokens.
    pub fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.code.iter().enumerate()
    }

    /// Whether library-scope determinism rules apply to this file.
    pub fn is_library(&self) -> bool {
        self.kind == FileKind::Library
    }

    /// Whether the token sits inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test_region(&self, t: &Token) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| t.start >= start && t.start < end)
    }
}

/// Finds the byte ranges of items annotated `#[test]` or with a `cfg`
/// attribute mentioning `test` (`#[cfg(test)]`, `#[cfg(any(test, …))]`).
/// An item extends over stacked attributes to its closing `}` (or `;`
/// for block-less items).
fn find_test_regions(code: &[Token], src: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let Some(attr_end) = attribute_at(code, src, i) else {
            i += 1;
            continue;
        };
        let attr = &code[i + 2..attr_end];
        let mentions_test = attr
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "test");
        let is_cfg_or_bare_test = attr
            .first()
            .is_some_and(|t| matches!(t.text(src), "cfg" | "test"));
        if !(mentions_test && is_cfg_or_bare_test) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further stacked attributes.
        let mut k = attr_end + 1;
        while let Some(end) = attribute_at(code, src, k) {
            k = end + 1;
        }
        // The item runs to the matching `}` of its first brace, or to a
        // top-level `;` for block-less items.
        let start_byte = code[i].start;
        let mut depth = 0usize;
        let mut end_byte = src.len();
        let mut m = k;
        while m < code.len() {
            match code[m].text(src) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 && code[m].text(src) == "}" {
                        end_byte = code[m].end;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end_byte = code[m].end;
                    break;
                }
                _ => {}
            }
            m += 1;
        }
        regions.push((start_byte, end_byte));
        i = m + 1;
    }
    regions
}

/// If `code[i]` opens an attribute (`#[…]`), returns the index of its
/// closing `]`.
fn attribute_at(code: &[Token], src: &str, i: usize) -> Option<usize> {
    if code.get(i)?.text(src) != "#" || code.get(i + 1)?.text(src) != "[" {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in code.iter().enumerate().skip(i + 1) {
        match t.text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// A parsed, well-formed `// lint:allow(<rule>): <reason>` comment.
struct Allow {
    rule: String,
    /// The line whose findings it silences.
    covers_line: u32,
}

/// Scans comments for suppressions. Returns the well-formed allows and
/// any `malformed-allow` findings (missing reason / unknown rule).
fn collect_allows(ctx: &FileContext) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for t in &ctx.tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = t.text(&ctx.src);
        // Doc comments are documentation, not suppression sites — they
        // may legitimately *describe* the allow syntax.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|d| text.starts_with(d))
        {
            continue;
        }
        let Some(at) = text.find("lint:allow") else {
            continue;
        };
        let mut bad = |why: &str| {
            malformed.push(Finding {
                rule: MALFORMED_ALLOW,
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: format!("{why}; write `// lint:allow(<rule>): <reason>`"),
            });
        };
        let rest = &text[at + "lint:allow".len()..];
        let Some(inner) = rest.strip_prefix('(') else {
            bad("lint:allow needs a parenthesised rule name");
            continue;
        };
        let Some(close) = inner.find(')') else {
            bad("lint:allow rule name is never closed");
            continue;
        };
        let rule = inner[..close].trim().to_string();
        if rule_named(&rule).is_none() {
            bad(&format!(
                "unknown rule '{rule}' (valid: {})",
                RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
            ));
            continue;
        }
        let after = &inner[close + 1..];
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad(&format!(
                "lint:allow({rule}) carries no reason — the reason is mandatory"
            ));
            continue;
        }
        // A trailing comment silences its own line; a standalone
        // comment line silences the next code line.
        let trailing = ctx
            .code()
            .iter()
            .any(|c| c.line == t.line && c.start < t.start);
        let covers_line = if trailing {
            t.line
        } else {
            match ctx.code().iter().find(|c| c.start > t.end) {
                Some(next) => next.line,
                None => t.line,
            }
        };
        allows.push(Allow { rule, covers_line });
    }
    (allows, malformed)
}

/// Lints one in-memory file: every rule, then suppression filtering.
/// Returns the surviving findings and how many were suppressed.
pub fn lint_file(ctx: &FileContext) -> (Vec<Finding>, usize) {
    let (allows, mut findings) = collect_allows(ctx);
    let mut suppressed = 0usize;
    for rule in RULES {
        for RawFinding { token, message } in (rule.check)(ctx) {
            let silenced = allows
                .iter()
                .any(|a| a.rule == rule.name && a.covers_line == token.line);
            if silenced {
                suppressed += 1;
            } else {
                findings.push(Finding {
                    rule: rule.name,
                    path: ctx.path.clone(),
                    line: token.line,
                    col: token.col,
                    message,
                });
            }
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (findings, suppressed)
}

/// Classifies a workspace-relative path into a [`FileKind`].
pub fn classify(path: &str) -> FileKind {
    let seg = |s: &str| path.starts_with(&format!("{s}/")) || path.contains(&format!("/{s}/"));
    if seg("tests") {
        FileKind::Test
    } else if seg("examples") {
        FileKind::Example
    } else {
        FileKind::Library
    }
}

/// Directory names never descended into: build output, vendored
/// third-party stand-ins, VCS metadata, and the lint crate's own
/// deliberately-violating rule fixtures.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Top-level workspace directories containing first-party Rust.
const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Collects every first-party `.rs` file under `root`, sorted, as
/// workspace-relative `/`-separated paths.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints a set of files. `root` (when given) relativises displayed
/// paths and is how workspace mode runs; explicit file arguments lint
/// with their given path, classified by the same path rules.
pub fn lint_paths(root: Option<&Path>, paths: &[PathBuf]) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    for path in paths {
        let display = match root {
            Some(root) => path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/"),
            None => path.to_string_lossy().replace('\\', "/"),
        };
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let ctx = FileContext::new(display, classify_path(path, root), src);
        let (findings, suppressed) = lint_file(&ctx);
        report.files += 1;
        report.suppressed += suppressed;
        report.findings.extend(findings);
    }
    Ok(report)
}

fn classify_path(path: &Path, root: Option<&Path>) -> FileKind {
    let rel = match root {
        Some(root) => path.strip_prefix(root).unwrap_or(path),
        None => path,
    };
    classify(&rel.to_string_lossy().replace('\\', "/"))
}

/// Runs the linter over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let files = workspace_files(root)?;
    lint_paths(Some(root), &files)
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the working directory".to_string());
        }
    }
}
