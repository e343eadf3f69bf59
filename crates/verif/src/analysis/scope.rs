//! Structural scope tracking over the token stream.
//!
//! Replaces the old line-heuristic tracker: `#[cfg(test)]` / `#[test]`
//! attributes are parsed as real attribute token sequences (so a `test`
//! identifier inside a string or comment no longer matters), exempt
//! functions are recognized from the actual `fn` keyword + name tokens,
//! and braces are counted on code tokens only.
//!
//! The result is a per-line snapshot ([`ScopeMap`]): for every source
//! line, whether the line *starts* inside a test scope, inside an exempt
//! function, and inside which lint regions. "Starts" matches the old
//! scanner's semantics — a finding on the `fn new() {` signature line is
//! not yet exempt; the body lines are.
//!
//! # Regions
//!
//! A *region* names a code area with extra rules (today:
//! `barrier-worker`, see the `barrier-panic` rule). One marker form, in a
//! plain (non-doc) comment: `// lint: region(NAME)` immediately above an
//! item puts the item's whole brace block in the region. New functions
//! added to a marked `impl`/`mod` block are covered by default.
//!
//! Marker misuse (unknown region name, a marker that never attaches to a
//! block) is reported as a [`MarkerIssue`] and surfaces as a hard
//! `region-marker` lint error — annotation rot is a finding, not a silent
//! no-op.

use super::lexer::{is_comment, Token, TokenKind};

/// Region names the analysis knows about; a marker naming anything else
/// is a `region-marker` error.
pub const KNOWN_REGIONS: &[&str] = &["barrier-worker"];

/// Bit for a known region name in [`LineInfo::regions`].
pub fn region_bit(name: &str) -> Option<u32> {
    KNOWN_REGIONS
        .iter()
        .position(|r| *r == name)
        .map(|i| 1 << i)
}

/// Scope facts for one source line, snapshotted at the line's start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineInfo {
    /// Line starts inside `#[cfg(test)]` / `#[test]` scope.
    pub test: bool,
    /// Line starts inside an allocation-exempt function (`new*`,
    /// `with_*`, `check_*`, `validate`, `default`, `fmt`).
    pub exempt_fn: bool,
    /// Bitmask of active regions (see [`region_bit`]).
    pub regions: u32,
}

/// Per-line scope snapshots for one file (1-based line indexing).
#[derive(Debug)]
pub struct ScopeMap {
    lines: Vec<LineInfo>,
}

impl ScopeMap {
    /// The snapshot for 1-based `line`; out-of-range lines report the
    /// default (non-test, non-exempt, no regions).
    pub fn line(&self, line: u32) -> LineInfo {
        self.lines.get(line as usize).copied().unwrap_or_default()
    }

    /// True if `line` starts inside the named region.
    pub fn in_region(&self, line: u32, name: &str) -> bool {
        region_bit(name).is_some_and(|bit| self.line(line).regions & bit != 0)
    }
}

/// A region-marker problem found while building the scope map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MarkerIssue {
    /// 1-based line of the offending marker (or end of file).
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

/// Builds the per-line scope map and collects marker issues.
pub fn build(src: &str, tokens: &[Token]) -> (ScopeMap, Vec<MarkerIssue>) {
    let total_lines = src.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut builder = Builder {
        src,
        tokens,
        stack: vec![LineInfo::default()],
        pending_test: false,
        pending_exempt: false,
        pending_region: None,
        issues: Vec::new(),
        lines: vec![LineInfo::default(); total_lines + 1],
        next_snap: 1,
    };
    builder.run();
    (
        ScopeMap {
            lines: builder.lines,
        },
        builder.issues,
    )
}

struct Builder<'a> {
    src: &'a str,
    tokens: &'a [Token],
    /// Scope stack; `stack[0]` is the file root. Each frame carries the
    /// *inherited* facts, so the top of stack is the current state.
    stack: Vec<LineInfo>,
    pending_test: bool,
    pending_exempt: bool,
    /// `(bit, marker line)` of a `lint: region(NAME)` waiting for `{`.
    pending_region: Option<(u32, u32)>,
    issues: Vec<MarkerIssue>,
    lines: Vec<LineInfo>,
    next_snap: u32,
}

impl Builder<'_> {
    fn current(&self) -> LineInfo {
        *self.stack.last().unwrap_or(&LineInfo::default())
    }

    /// Records the current state for every line up to and including
    /// `line` that has not been snapshotted yet.
    fn snap_to(&mut self, line: u32) {
        let cur = self.current();
        while self.next_snap <= line && (self.next_snap as usize) < self.lines.len() {
            self.lines[self.next_snap as usize] = cur;
            self.next_snap += 1;
        }
    }

    fn run(&mut self) {
        let mut i = 0;
        while i < self.tokens.len() {
            let t = self.tokens[i];
            self.snap_to(t.line);
            if is_comment(t.kind) {
                if t.kind != TokenKind::DocComment {
                    self.marker_comment(t);
                }
                i += 1;
                continue;
            }
            match (t.kind, t.text(self.src)) {
                (TokenKind::Punct, "#") => {
                    i = self.attribute(i);
                    continue;
                }
                (TokenKind::Ident, "fn") => {
                    if let Some(name) = self.next_code_ident(i + 1) {
                        self.pending_exempt = is_exempt_fn(name);
                    }
                }
                (TokenKind::Punct, "{") => {
                    let mut frame = self.current();
                    frame.test |= self.pending_test;
                    frame.exempt_fn |= self.pending_exempt;
                    if let Some((bit, _)) = self.pending_region.take() {
                        frame.regions |= bit;
                    }
                    self.pending_test = false;
                    self.pending_exempt = false;
                    self.stack.push(frame);
                }
                (TokenKind::Punct, "}") if self.stack.len() > 1 => {
                    self.stack.pop();
                }
                (TokenKind::Punct, ";") => {
                    // A bodiless item: nothing for the pendings to attach
                    // to. Dropping a test/exempt pending is harmless; a
                    // dropped region marker is annotation rot.
                    if let Some((_, line)) = self.pending_region.take() {
                        self.issues.push(MarkerIssue {
                            line,
                            message: "region marker did not attach to a brace block".to_string(),
                        });
                    }
                    self.pending_test = false;
                    self.pending_exempt = false;
                }
                _ => {}
            }
            i += 1;
        }
        self.snap_to(self.lines.len() as u32);
        if let Some((_, line)) = self.pending_region.take() {
            self.issues.push(MarkerIssue {
                line,
                message: "region marker did not attach to a brace block".to_string(),
            });
        }
    }

    /// Consumes an attribute starting at the `#` token index; returns the
    /// index just past the closing `]`. Sets `pending_test` when the
    /// attribute mentions `test` (and not `not(test)`).
    fn attribute(&mut self, hash: usize) -> usize {
        let mut i = hash + 1;
        // Optional `!` of an inner attribute.
        if self.code_text(i) == Some("!") {
            i += 1;
        }
        if self.code_text(i) != Some("[") {
            return hash + 1; // stray `#`, not an attribute
        }
        let mut depth = 0usize;
        let mut saw_test = false;
        let mut saw_not = false;
        while i < self.tokens.len() {
            let t = self.tokens[i];
            self.snap_to(t.line);
            match (t.kind, t.text(self.src)) {
                (TokenKind::Punct, "[") => depth += 1,
                (TokenKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                (TokenKind::Ident, "test") => saw_test = true,
                (TokenKind::Ident, "not") => saw_not = true,
                _ => {}
            }
            i += 1;
        }
        if saw_test && !saw_not {
            self.pending_test = true;
        }
        i
    }

    /// The text of token `i` if it is a code (non-comment) token.
    fn code_text(&self, i: usize) -> Option<&str> {
        let t = self.tokens.get(i)?;
        (!is_comment(t.kind)).then(|| t.text(self.src))
    }

    /// The next non-comment identifier at or after `i`, if the very next
    /// code token is one.
    fn next_code_ident(&self, mut i: usize) -> Option<&str> {
        while let Some(t) = self.tokens.get(i) {
            if is_comment(t.kind) {
                i += 1;
                continue;
            }
            return (t.kind == TokenKind::Ident).then(|| t.text(self.src));
        }
        None
    }

    /// Parses a region marker out of one plain comment token.
    fn marker_comment(&mut self, t: Token) {
        let Some(name) = marker_arg(t.text(self.src), "lint: region(") else {
            return;
        };
        match region_bit(&name) {
            Some(bit) => {
                if let Some((_, line)) = self.pending_region.replace((bit, t.line)) {
                    self.issues.push(MarkerIssue {
                        line,
                        message: "region marker did not attach to a brace block".to_string(),
                    });
                }
            }
            None => self.issues.push(MarkerIssue {
                line: t.line,
                message: format!(
                    "unknown region `{name}`; known regions: {}",
                    KNOWN_REGIONS.join(", ")
                ),
            }),
        }
    }
}

/// Extracts `NAME` from `…PREFIX NAME)…` in a comment, if present.
fn marker_arg(text: &str, prefix: &str) -> Option<String> {
    let rest = text.split(prefix).nth(1)?;
    let name = rest.split(')').next().unwrap_or(rest);
    Some(name.trim().to_string())
}

/// Function names whose bodies may allocate under the hot-alloc rule.
pub fn is_exempt_fn(name: &str) -> bool {
    name == "new"
        || name.starts_with("new_")
        || name.starts_with("with_")
        || name.starts_with("check_")
        || name == "validate"
        || name == "default"
        || name == "fmt"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::lexer::lex;

    fn map(src: &str) -> (ScopeMap, Vec<MarkerIssue>) {
        build(src, &lex(src))
    }

    #[test]
    fn cfg_test_module_is_test_scope() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let (m, issues) = map(src);
        assert!(issues.is_empty());
        assert!(!m.line(1).test);
        assert!(!m.line(3).test, "mod line itself starts outside");
        assert!(m.line(4).test);
        assert!(m.line(5).test, "closing brace line starts inside");
        assert!(!m.line(6).test);
    }

    #[test]
    fn test_ident_in_strings_and_comments_is_ignored() {
        let src = "// #[cfg(test)]\nfn a() {\n    let s = \"#[test]\";\n    body();\n}\n";
        let (m, issues) = map(src);
        assert!(issues.is_empty());
        assert!((1..=5).all(|l| !m.line(l).test));
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nmod prod {\n    fn a() {}\n}\n";
        let (m, _) = map(src);
        assert!(!m.line(3).test);
    }

    #[test]
    fn exempt_fn_bodies_are_marked() {
        let src = "fn new() -> S {\n    alloc();\n}\nfn step() {\n    work();\n}\n";
        let (m, _) = map(src);
        assert!(!m.line(1).exempt_fn, "signature line starts outside");
        assert!(m.line(2).exempt_fn);
        assert!(!m.line(5).exempt_fn);
    }

    #[test]
    fn item_region_marker_covers_the_block() {
        let src = "// lint: region(barrier-worker)\nimpl B {\n    fn wait(&self) {\n        spin();\n    }\n}\nfn other() {\n    x();\n}\n";
        let (m, issues) = map(src);
        assert!(issues.is_empty(), "{issues:?}");
        assert!(m.in_region(3, "barrier-worker"));
        assert!(m.in_region(4, "barrier-worker"));
        assert!(!m.in_region(8, "barrier-worker"));
    }

    #[test]
    fn marker_misuse_is_reported() {
        let (_, unknown) = map("// lint: region(bogus)\nfn a() {}\n");
        assert_eq!(unknown.len(), 1);
        assert!(unknown[0].message.contains("unknown region"));

        let (_, unattached) = map("// lint: region(barrier-worker)\nuse std::fmt;\n");
        assert_eq!(unattached.len(), 1, "{unattached:?}");
        assert!(unattached[0].message.contains("did not attach"));
    }

    #[test]
    fn doc_comments_do_not_carry_markers() {
        let src = "//! Examples use `lint: region(bogus)` markers.\nfn a() {}\n";
        let (_, issues) = map(src);
        assert!(issues.is_empty(), "{issues:?}");
    }
}
