//! `barrier-panic`: no panic paths inside `barrier-worker` regions.
//!
//! The sliced engine's epoch barrier is a sense-reversing user-space
//! barrier: every participant must reach `wait()` or everyone else
//! spins/parks forever. Worker-side panics are contained by the
//! `catch_unwind` drain protocol, but code that runs *between* barrier
//! crossings on the main thread — routing, hand-out/take-back, response
//! collection — and the barrier internals themselves have no such net: a
//! panic there deadlocks the scoped join. Those functions, or the
//! `impl` blocks that hold them, are marked with `lint:
//! region(barrier-worker)` annotations (see [`crate::analysis::scope`]),
//! and inside them this rule flags every potential panic site:
//!
//! * **error**: `.unwrap()`, `.expect(…)`, `assert!`/`assert_eq!`/
//!   `assert_ne!`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`,
//!   and slice/array indexing (`x[i]`, which can panic on
//!   out-of-bounds);
//! * **warning**: `debug_assert!`-family macros (they panic in debug
//!   builds, which is how the determinism test suite runs).
//!
//! Tokens inside a `debug_assert*!(…)` invocation are not separately
//! flagged — the warning on the macro itself covers the invocation.
//! Waivers must state the bound or invariant that makes the site
//! panic-free (e.g. "slice ids come from `Machine::slice_of`, bounded by
//! construction").

use super::super::lexer::TokenKind;
use super::super::Severity;
use super::{Ctx, Emitter};

/// Macros that unconditionally panic when reached (or on a failed
/// condition) in all build profiles.
const PANIC_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
];

/// Runs the `barrier-panic` rule.
pub fn barrier_panic(ctx: &Ctx<'_>, em: &mut Emitter) {
    // Token index ranges covered by a debug_assert*! invocation: the
    // macro gets one warning; its arguments are not re-flagged.
    let mut debug_spans: Vec<(usize, usize)> = Vec::new();
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if !ctx.scopes.in_region(t.line, "barrier-worker") {
            continue;
        }
        if t.kind == TokenKind::Ident
            && ctx.text(i).starts_with("debug_assert")
            && ctx.text(i + 1) == "!"
        {
            em.emit(
                "barrier-panic",
                Severity::Warning,
                t,
                format!(
                    "`{}!` inside a barrier-worker region panics in debug builds and \
                     deadlocks the epoch barrier; keep or waive with the invariant argument",
                    ctx.text(i)
                ),
            );
            debug_spans.push(macro_span(ctx, i));
        }
    }
    let in_debug_span = |i: usize| debug_spans.iter().any(|&(lo, hi)| i >= lo && i <= hi);
    for i in 0..ctx.code.len() {
        let t = ctx.code[i];
        if !ctx.scopes.in_region(t.line, "barrier-worker") || in_debug_span(i) {
            continue;
        }
        if ctx.match_seq(i, &[".", "unwrap", "(", ")"]) || ctx.match_seq(i, &[".", "expect", "("]) {
            let token = if ctx.text(i + 1) == "unwrap" {
                ".unwrap()"
            } else {
                ".expect("
            };
            em.emit(
                "barrier-panic",
                Severity::Error,
                t,
                format!(
                    "`{token}` inside a barrier-worker region; a panic here deadlocks the \
                     epoch barrier — propagate the error through the drain protocol"
                ),
            );
            continue;
        }
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&ctx.text(i))
            && ctx.text(i + 1) == "!"
        {
            em.emit(
                "barrier-panic",
                Severity::Error,
                t,
                format!(
                    "`{}!` inside a barrier-worker region; a panic here deadlocks the \
                     epoch barrier",
                    ctx.text(i)
                ),
            );
            continue;
        }
        // Indexing: `[` whose previous token ends an expression (an
        // identifier or a closing bracket). Attribute `#[…]`, macro
        // `vec![…]`, and type `[T; N]` positions never match.
        if t.kind == TokenKind::Punct && ctx.text(i) == "[" && i > 0 {
            let prev = ctx.code[i - 1];
            let indexes = prev.kind == TokenKind::Ident
                && !is_keyword_before_bracket(ctx.text(i - 1))
                || (prev.kind == TokenKind::Punct && matches!(ctx.text(i - 1), ")" | "]"));
            if indexes {
                em.emit(
                    "barrier-panic",
                    Severity::Error,
                    t,
                    "indexing inside a barrier-worker region can panic out-of-bounds and \
                     deadlock the epoch barrier; use `.get()` or waive with the bounds \
                     argument"
                        .to_string(),
                );
            }
        }
    }
}

/// Finds the inclusive code-token span of a macro invocation starting at
/// the macro name index: through the `!`, the opening delimiter, and its
/// matching close.
fn macro_span(ctx: &Ctx<'_>, name: usize) -> (usize, usize) {
    let open = name + 2;
    let (close_of, open_of) = match ctx.text(open) {
        "(" => (")", "("),
        "[" => ("]", "["),
        "{" => ("}", "{"),
        _ => return (name, name + 1),
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < ctx.code.len() {
        let t = ctx.text(i);
        if t == open_of {
            depth += 1;
        } else if t == close_of {
            depth -= 1;
            if depth == 0 {
                return (name, i);
            }
        }
        i += 1;
    }
    (name, ctx.code.len().saturating_sub(1))
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, `in [..]`, …).
fn is_keyword_before_bracket(text: &str) -> bool {
    matches!(
        text,
        "return" | "break" | "continue" | "in" | "if" | "else" | "match" | "mut" | "dyn"
    )
}

#[cfg(test)]
mod tests {
    use super::super::{test_findings, FileClass};
    use crate::analysis::Severity;

    const PROD: FileClass = FileClass {
        hot: false,
        perf: false,
        crate_root: false,
    };

    fn region(body: &str) -> String {
        format!("// lint: region(barrier-worker)\nfn worker(&mut self) {{\n{body}\n}}\n")
    }

    fn barrier_only(src: &str) -> Vec<crate::analysis::rules::Finding> {
        test_findings(src, PROD)
            .into_iter()
            .filter(|d| d.rule == "barrier-panic")
            .collect()
    }

    #[test]
    fn unwrap_and_asserts_fire_inside_the_region() {
        let f = barrier_only(&region("    self.rx.recv().unwrap();"));
        assert_eq!(f.len(), 1);
        assert_eq!(
            (f[0].rule, f[0].severity),
            ("barrier-panic", Severity::Error)
        );

        let f = barrier_only(&region("    assert!(done, \"not done\");"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::Error);
    }

    #[test]
    fn indexing_fires_but_attrs_macros_and_types_do_not() {
        let f = barrier_only(&region("    let x = cells[slice];"));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("indexing"));

        let clean = region(
            "    let x: [u8; 4] = make();\n    let v = vec![0u8; 4];\n    let y = x.get(0);",
        );
        // `vec![` is not indexing; no hot-alloc since class is not hot.
        assert!(test_findings(&clean, PROD).is_empty());
    }

    #[test]
    fn debug_assert_warns_once_without_double_flagging_args() {
        let f = test_findings(
            &region("    debug_assert!(responses[core].is_none());"),
            PROD,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn outside_the_region_nothing_fires() {
        let src =
            "fn free(&mut self) {\n    self.rx.recv().unwrap();\n    let x = cells[slice];\n}\n";
        let f = test_findings(src, PROD);
        // no-unwrap still fires (different rule), but barrier-panic must not.
        assert!(f.iter().all(|d| d.rule != "barrier-panic"), "{f:?}");
    }

    #[test]
    fn impl_region_covers_its_methods_only() {
        let src = "// lint: region(barrier-worker)\nimpl B {\n    fn a(&self) {\n        x.unwrap();\n    }\n}\nfn b() {\n    y[0];\n}\n";
        let f = test_findings(src, PROD);
        let barrier: Vec<_> = f.iter().filter(|d| d.rule == "barrier-panic").collect();
        assert_eq!(barrier.len(), 1);
        assert_eq!(barrier[0].line, 4);
    }

    #[test]
    fn waivers_with_justification_clear_findings() {
        use crate::analysis::{analyze_source, FileClass as C};
        let src = "// lint: region(barrier-worker)\nfn route(&mut self) {\n    // lint: allow(barrier-panic): slice ids bounded by construction\n    cells[slice].push(1);\n}\n";
        let d = analyze_source(std::path::Path::new("t.rs"), src, C::default());
        assert!(d.is_empty(), "{d:?}");
    }
}
