//! Golden-snapshot checking for the paper's rendered artifacts.
//!
//! A golden test renders a table or figure from a deterministic
//! campaign, then compares the text byte-for-byte against a checked-in
//! snapshot. Any change to the simulator that moves a published number
//! shows up as a readable diff; intentional changes are re-recorded by
//! re-running the test with `UPDATE_GOLDEN=1`, which rewrites the
//! snapshot file instead of failing.

use std::fmt::Write as _;
use std::path::Path;

use cedar_core::CedarError;

/// Outcome of one snapshot comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenStatus {
    /// The rendering matches the checked-in snapshot.
    Match,
    /// `UPDATE_GOLDEN=1` was set and the snapshot file was (re)written.
    Updated,
    /// The snapshot file does not exist (and update mode is off).
    Missing,
    /// The rendering differs from the snapshot.
    Mismatch {
        /// A unified-style line diff of snapshot vs. rendering.
        diff: String,
    },
}

/// True when the caller asked for snapshots to be re-recorded.
pub(crate) fn update_mode() -> bool {
    std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Compares `actual` against the snapshot at `path`, honouring
/// `UPDATE_GOLDEN=1`. Filesystem failures surface as
/// [`CedarError::Internal`] with the path in the message.
pub fn check(path: &Path, actual: &str) -> Result<GoldenStatus, CedarError> {
    let io_err =
        |e: std::io::Error| CedarError::Internal(format!("golden {}: {e}", path.display()));
    if update_mode() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io_err)?;
        }
        std::fs::write(path, actual).map_err(io_err)?;
        return Ok(GoldenStatus::Updated);
    }
    let expected = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(GoldenStatus::Missing),
        Err(e) => return Err(io_err(e)),
    };
    if expected == actual {
        Ok(GoldenStatus::Match)
    } else {
        Ok(GoldenStatus::Mismatch {
            diff: line_diff(&expected, actual),
        })
    }
}

/// Asserts that `actual` matches the snapshot at `path`, with a
/// diff-bearing panic message on mismatch and a pointer to
/// `UPDATE_GOLDEN=1` on a missing snapshot. Intended for use inside
/// `#[test]` functions.
pub fn assert_matches(path: &Path, actual: &str) {
    match check(path, actual).expect("golden snapshot I/O") {
        GoldenStatus::Match => {}
        GoldenStatus::Updated => {
            eprintln!("golden: updated {}", path.display());
        }
        GoldenStatus::Missing => panic!(
            "golden snapshot {} is missing — record it with UPDATE_GOLDEN=1",
            path.display()
        ),
        GoldenStatus::Mismatch { diff } => panic!(
            "golden snapshot {} differs from the rendering \
             (UPDATE_GOLDEN=1 re-records it if the change is intended):\n{diff}",
            path.display()
        ),
    }
}

/// A minimal line-level diff: common prefix/suffix trimmed, the
/// differing middle shown as `-expected` / `+actual` lines with one line
/// of context. Not a general diff algorithm, but campaign renderings
/// change in localized blocks, which this presents readably.
pub(crate) fn line_diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut head = 0;
    while head < e.len() && head < a.len() && e[head] == a[head] {
        head += 1;
    }
    let mut tail = 0;
    while tail < e.len() - head
        && tail < a.len() - head
        && e[e.len() - 1 - tail] == a[a.len() - 1 - tail]
    {
        tail += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "@@ first divergence at line {} ({} snapshot / {} actual lines) @@",
        head + 1,
        e.len(),
        a.len()
    );
    if head > 0 {
        let _ = writeln!(out, "  {}", e[head - 1]);
    }
    for line in &e[head..e.len() - tail] {
        let _ = writeln!(out, "- {line}");
    }
    for line in &a[head..a.len() - tail] {
        let _ = writeln!(out, "+ {line}");
    }
    if tail > 0 {
        let _ = writeln!(out, "  {}", e[e.len() - tail]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cedar-golden-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn missing_snapshot_is_reported() {
        let path = tmp("definitely-absent.txt");
        let _ = std::fs::remove_file(&path);
        assert_eq!(check(&path, "x").unwrap(), GoldenStatus::Missing);
    }

    #[test]
    fn matching_snapshot_passes() {
        let path = tmp("match.txt");
        std::fs::write(&path, "a\nb\n").unwrap();
        assert_eq!(check(&path, "a\nb\n").unwrap(), GoldenStatus::Match);
    }

    #[test]
    fn mismatch_carries_a_line_diff() {
        let path = tmp("mismatch.txt");
        std::fs::write(&path, "a\nb\nc\n").unwrap();
        match check(&path, "a\nX\nc\n").unwrap() {
            GoldenStatus::Mismatch { diff } => {
                assert!(diff.contains("- b"), "{diff}");
                assert!(diff.contains("+ X"), "{diff}");
                assert!(diff.contains("line 2"), "{diff}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn diff_trims_common_prefix_and_suffix() {
        let d = line_diff("1\n2\n3\n4\n5\n", "1\n2\nX\n4\n5\n");
        assert!(!d.contains("- 1"));
        assert!(!d.contains("- 5"));
        assert!(d.contains("- 3"));
        assert!(d.contains("+ X"));
    }

    #[test]
    fn diff_handles_pure_insertion() {
        let d = line_diff("a\nc\n", "a\nb\nc\n");
        assert!(d.contains("+ b"), "{d}");
        assert!(!d.contains("- a"), "{d}");
    }
}
