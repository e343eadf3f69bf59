//! Lint corpus: a crate root missing both hygiene attributes. The
//! engine reports one combined crate-hygiene finding at line 1; the
//! pinned table in `tests/lint_workspace.rs` expects exactly that and
//! nothing else.
//! This file is test data — it is never compiled.

pub fn visible() {}
