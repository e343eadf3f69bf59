//! The pluggable rule framework.
//!
//! A rule is a pure function over an analysis [`Ctx`] (token stream +
//! scope map + file classification) that emits findings through an
//! [`Emitter`]. All rules are registered in [`registry`] with stable IDs
//! and severities; the driver in [`crate::analysis`] runs every rule on
//! every file (each rule decides its own applicability from the
//! [`FileClass`]) and then applies waivers.
//!
//! Rule modules:
//!
//! * [`ported`] — the five core rules: `no-unwrap`, `hot-alloc`,
//!   `wall-clock`, `journal-flush` (JSONL record writes and binary frame
//!   writes) and `crate-hygiene`. Their findings on `tests/corpus/` are
//!   pinned line by line.
//! * [`determinism`] — `hash-iter`: no iteration over hash-ordered
//!   collections in production code.
//! * [`panic_safety`] — `barrier-panic`: no panic paths inside
//!   `barrier-worker` regions.
//! * [`atomics`] — `atomic-ordering`: `Ordering::Relaxed` only in
//!   whitelisted monotonic-counter/flag patterns.

pub mod atomics;
pub mod determinism;
pub mod panic_safety;
pub mod ported;

use super::lexer::{is_comment, Token};
use super::scope::ScopeMap;
use super::Severity;
use std::collections::BTreeSet;

/// Which rule families apply to a file, derived from its path.
#[derive(Clone, Copy, Debug, Default)]
pub struct FileClass {
    /// On the per-access simulation hot path (`hot-alloc` applies).
    pub hot: bool,
    /// A `perf.rs` benchmark driver (`wall-clock` exempt).
    pub perf: bool,
    /// A crate root (`crate-hygiene` applies).
    pub crate_root: bool,
}

/// Everything a rule may look at for one file.
pub struct Ctx<'a> {
    /// The raw source text.
    pub src: &'a str,
    /// Code tokens only — comments filtered out of the lexed stream.
    pub code: Vec<Token>,
    /// Per-line scope snapshots.
    pub scopes: &'a ScopeMap,
    /// Path-derived rule applicability.
    pub class: FileClass,
}

impl<'a> Ctx<'a> {
    /// Builds a context from source + full token stream.
    pub fn new(src: &'a str, tokens: &[Token], scopes: &'a ScopeMap, class: FileClass) -> Ctx<'a> {
        Ctx {
            src,
            code: tokens
                .iter()
                .copied()
                .filter(|t| !is_comment(t.kind))
                .collect(),
            scopes,
            class,
        }
    }

    /// Text of code token `i`, or `""` out of range.
    pub fn text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text(self.src))
    }

    /// True if the code tokens starting at `start` spell out `pat`.
    pub fn match_seq(&self, start: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, p)| self.text(start + k) == *p)
    }

    /// True if `line` starts inside test scope.
    pub fn in_test(&self, line: u32) -> bool {
        self.scopes.line(line).test
    }
}

/// One rule finding, before waivers are applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule ID.
    pub rule: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

/// Collects findings, deduplicating to one per `(rule, line)` — the same
/// granularity the waiver mechanism works at.
#[derive(Default)]
pub struct Emitter {
    findings: Vec<Finding>,
    seen: BTreeSet<(&'static str, u32)>,
}

impl Emitter {
    /// Records a finding unless this `(rule, line)` already has one.
    pub fn emit(&mut self, rule: &'static str, severity: Severity, at: Token, message: String) {
        if self.seen.insert((rule, at.line)) {
            self.findings.push(Finding {
                rule,
                severity,
                line: at.line,
                col: at.col,
                message,
            });
        }
    }

    /// The collected findings, in emission order.
    pub fn into_findings(self) -> Vec<Finding> {
        self.findings
    }
}

/// Static description of one rule.
pub struct RuleMeta {
    /// Stable identifier used in diagnostics and waivers.
    pub id: &'static str,
    /// Default severity of this rule's findings.
    pub severity: Severity,
    /// Waivers for this rule must carry a `: justification` clause.
    pub needs_justification: bool,
    /// One-line summary for docs and `--help`-style output.
    pub summary: &'static str,
}

/// A registered rule: metadata plus the checking function.
pub struct Rule {
    /// The rule's metadata.
    pub meta: RuleMeta,
    /// Runs the rule over one file's context.
    pub run: fn(&Ctx<'_>, &mut Emitter),
}

/// Rules whose waivers must name the argument that makes the code safe
/// (the happens-before edge, the bound, the ordering justification).
pub const JUSTIFIED_RULES: &[&str] = &["hash-iter", "barrier-panic", "atomic-ordering"];

/// The full rule registry, in catalog order.
pub fn registry() -> &'static [Rule] {
    static REGISTRY: [Rule; 8] = [
        Rule {
            meta: RuleMeta {
                id: "no-unwrap",
                severity: Severity::Error,
                needs_justification: false,
                summary: "no `.unwrap()` / `.expect(` in production code",
            },
            run: ported::no_unwrap,
        },
        Rule {
            meta: RuleMeta {
                id: "hot-alloc",
                severity: Severity::Error,
                needs_justification: false,
                summary: "no allocating tokens in hot-path files",
            },
            run: ported::hot_alloc,
        },
        Rule {
            meta: RuleMeta {
                id: "wall-clock",
                severity: Severity::Error,
                needs_justification: false,
                summary: "no host-time reads outside perf.rs",
            },
            run: ported::wall_clock,
        },
        Rule {
            meta: RuleMeta {
                id: "journal-flush",
                severity: Severity::Error,
                needs_justification: false,
                summary: "journal record and frame writes must flush within three lines",
            },
            run: ported::journal_flush,
        },
        Rule {
            meta: RuleMeta {
                id: "crate-hygiene",
                severity: Severity::Error,
                needs_justification: false,
                summary: "crate roots forbid unsafe_code and warn missing_docs",
            },
            run: ported::crate_hygiene,
        },
        Rule {
            meta: RuleMeta {
                id: "hash-iter",
                severity: Severity::Error,
                needs_justification: true,
                summary: "no iteration over hash-ordered collections in production code",
            },
            run: determinism::hash_iter,
        },
        Rule {
            meta: RuleMeta {
                id: "barrier-panic",
                severity: Severity::Error,
                needs_justification: true,
                summary: "no panic paths inside barrier-worker regions",
            },
            run: panic_safety::barrier_panic,
        },
        Rule {
            meta: RuleMeta {
                id: "atomic-ordering",
                severity: Severity::Error,
                needs_justification: true,
                summary: "Ordering::Relaxed only in whitelisted counter/flag patterns",
            },
            run: atomics::atomic_ordering,
        },
    ];
    &REGISTRY
}

/// Looks up a rule's metadata by ID.
pub fn rule_meta(id: &str) -> Option<&'static RuleMeta> {
    registry().iter().map(|r| &r.meta).find(|m| m.id == id)
}

/// Runs every registered rule over `ctx`, returning deduplicated findings.
pub fn run_all(ctx: &Ctx<'_>) -> Vec<Finding> {
    let mut em = Emitter::default();
    for rule in registry() {
        (rule.run)(ctx, &mut em);
    }
    em.into_findings()
}

/// Walks backwards from the type-name token at code index `i` to the
/// binding it is attached to, if the heuristic recognizes one:
///
/// * `name: path::to::Type` (field, parameter, or annotated `let`,
///   including through `&`/`&mut`/lifetimes) → `name`;
/// * `let [mut] name = path::to::Type::…` → `name`.
///
/// Nested positions (`Vec<Type>`, `&[Type]`, return types) return `None`
/// on purpose: the heuristic only tracks directly-named bindings.
pub fn binding_before(ctx: &Ctx<'_>, i: usize) -> Option<String> {
    // Hop over leading `seg ::` path pairs.
    let mut j = i;
    while j >= 3 && ctx.text(j - 1) == ":" && ctx.text(j - 2) == ":" && is_ident_token(ctx, j - 3) {
        j -= 3;
    }
    // Skip reference/mut/lifetime decorations before the path.
    let mut k = j;
    while k > 0 {
        let t = ctx.text(k - 1);
        if t == "&" || t == "mut" || t.starts_with('\'') {
            k -= 1;
        } else {
            break;
        }
    }
    if k < 2 {
        return None;
    }
    let prev = ctx.text(k - 1);
    if prev == ":" && ctx.text(k - 2) != ":" && is_ident_token(ctx, k - 2) {
        return Some(ctx.text(k - 2).to_string());
    }
    if prev == "=" && is_ident_token(ctx, k - 2) {
        return Some(ctx.text(k - 2).to_string());
    }
    None
}

fn is_ident_token(ctx: &Ctx<'_>, i: usize) -> bool {
    ctx.code
        .get(i)
        .is_some_and(|t| t.kind == super::lexer::TokenKind::Ident)
}

/// Convenience for rule unit tests: analyze a snippet with a given class.
#[cfg(test)]
pub(crate) fn test_findings(src: &str, class: FileClass) -> Vec<Finding> {
    let tokens = super::lexer::lex(src);
    let (scopes, _) = super::scope::build(src, &tokens);
    let ctx = Ctx::new(src, &tokens, &scopes, class);
    run_all(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let ids: Vec<&str> = registry().iter().map(|r| r.meta.id).collect();
        let set: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(ids.len(), set.len());
        for justified in JUSTIFIED_RULES {
            let meta = rule_meta(justified).expect("justified rule registered");
            assert!(meta.needs_justification);
        }
    }

    #[test]
    fn binding_heuristic_recognizes_annotations_and_lets() {
        let src = "struct S { map: HashMap<u32, u32> }\nfn f(seen: &mut HashSet<u64>) {\n    let mut local = std::collections::HashMap::new();\n    let nested: Vec<HashSet<u8>> = Vec::new();\n}\n";
        let tokens = super::super::lexer::lex(src);
        let (scopes, _) = super::super::scope::build(src, &tokens);
        let ctx = Ctx::new(src, &tokens, &scopes, FileClass::default());
        let mut names = Vec::new();
        for i in 0..ctx.code.len() {
            let t = ctx.text(i);
            if t == "HashMap" || t == "HashSet" {
                if let Some(name) = binding_before(&ctx, i) {
                    names.push(name);
                }
            }
        }
        assert_eq!(names, ["map", "seen", "local"]);
    }
}
