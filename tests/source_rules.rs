//! The source rules that rustc and clippy cannot express (DESIGN.md §11),
//! checked by a plain line scan of the production sources: each member's
//! `src/`, every file cut at its first top-level `#[cfg(test)]` as the CI
//! "Code size" step cuts it. Also checks that every workspace member
//! inherits the `[workspace.lints]` table the other rules live in.
#![allow(clippy::unwrap_used, reason = "a test fails by panicking")]

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root package and every directory the `members` globs name.
fn members() -> Vec<PathBuf> {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).unwrap();
    let globs = manifest.lines().find(|l| l.starts_with("members")).unwrap();
    let mut dirs = vec![root().to_path_buf()];
    for glob in globs.split('"').skip(1).step_by(2) {
        let parent = root().join(glob.strip_suffix("/*").unwrap());
        for entry in fs::read_dir(parent).unwrap() {
            let dir = entry.unwrap().path();
            if dir.join("Cargo.toml").is_file() {
                dirs.push(dir);
            }
        }
    }
    dirs.sort();
    dirs
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs `rule` over every production source and returns `file:line` of
/// each line it flags.
fn scan(rule: fn(&[&str]) -> Vec<usize>) -> Vec<String> {
    let mut files = Vec::new();
    for dir in members() {
        collect_rs(&dir.join("src"), &mut files);
    }
    files.sort();
    let mut found = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .collect();
        let name = path.strip_prefix(root()).unwrap().display().to_string();
        found.extend(rule(&lines).into_iter().map(|n| format!("{name}:{n}")));
    }
    found
}

fn is_code(line: &str) -> bool {
    !line.trim_start().starts_with("//")
}

/// `journal-flush`: 1-based lines that pass a `to_json_line` to `write!`
/// or `writeln!`, or `.write_all(` a frame, with no `.flush(` on that
/// line or the two after it. A run killed between records must leave
/// every finished record on disk for `--resume`.
fn unflushed_writes(lines: &[&str]) -> Vec<usize> {
    let writes = |l: &str| {
        let record =
            l.contains("to_json_line") && (l.contains("write!(") || l.contains("writeln!("));
        record || (l.contains(".write_all(") && l.to_ascii_lowercase().contains("frame"))
    };
    (0..lines.len())
        .filter(|&i| is_code(lines[i]) && writes(lines[i]))
        .filter(|&i| {
            !lines[i..lines.len().min(i + 3)]
                .iter()
                .any(|l| l.contains(".flush("))
        })
        .map(|i| i + 1)
        .collect()
}

/// `atomic-ordering`: 1-based lines using `Ordering::Relaxed` whose
/// comment directly above has no line starting `// Relaxed:`, the reason
/// no other data depends on the access.
fn unjustified_relaxed(lines: &[&str]) -> Vec<usize> {
    let justified = |i: usize| {
        lines[..i]
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("//"))
            .any(|l| l.starts_with("// Relaxed:"))
    };
    (0..lines.len())
        .filter(|&i| is_code(lines[i]) && lines[i].contains("Ordering::Relaxed") && !justified(i))
        .map(|i| i + 1)
        .collect()
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let members = members();
    assert!(members.len() > 10, "{members:?}");
    let missing: Vec<_> = members
        .iter()
        .filter(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            !manifest.contains("\n[lints]\nworkspace = true\n")
        })
        .collect();
    assert!(
        missing.is_empty(),
        "no `[lints] workspace = true`: {missing:?}"
    );
}

#[test]
fn journal_writes_are_flushed_within_three_lines() {
    let record = "writeln!(out, \"{}\", r.to_json_line())?;";
    assert_eq!(
        unflushed_writes(&[record, "a();", "b();", "out.flush()?;"]),
        [1]
    );
    assert!(unflushed_writes(&[record, "a();", "out.flush()?;"]).is_empty());
    assert_eq!(unflushed_writes(&["sink.write_all(&frame)?;"]), [1]);
    assert!(unflushed_writes(&["sink.write_all(&bytes)?;"]).is_empty());
    let found = scan(unflushed_writes);
    assert!(found.is_empty(), "no flush within 3 lines: {found:?}");
}

#[test]
fn every_relaxed_ordering_states_its_reason() {
    let bare = ["// a counter", "n.fetch_add(1, Ordering::Relaxed);"];
    assert_eq!(unjustified_relaxed(&bare), [2]);
    assert!(unjustified_relaxed(&["// Relaxed: a statistic", "// ...", bare[1]]).is_empty());
    let found = scan(unjustified_relaxed);
    assert!(found.is_empty(), "no `// Relaxed:` reason: {found:?}");
}
