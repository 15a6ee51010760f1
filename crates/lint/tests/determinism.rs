//! Order-insensitivity property: the report is byte-identical no
//! matter how the directory walk orders the files.
//!
//! `lint_sources` is fed the phase-2 violation corpus in seeded random
//! permutations; every permutation must produce the same rustc-style,
//! JSON, and SARIF bytes as the sorted baseline: every scan meets the
//! others in one `finish()` that must not care who arrived first.

use nc_substrate::check::check_cases;
use nc_substrate::rng::SplitMix64;
use std::path::{Path, PathBuf};

fn corpus_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph_violations")
}

/// Collects `(relative path, source)` pairs exactly as the walker
/// would, minus the ordering guarantee this test exists to prove.
fn collect(root: &Path, dir: &Path, files: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("readdir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            collect(root, &path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&path).expect("read source");
            files.push((rel, source));
        }
    }
}

fn shuffle(files: &mut [(String, String)], rng: &mut SplitMix64) {
    for i in (1..files.len()).rev() {
        let j = usize::try_from(rng.next_u64() % (i as u64 + 1)).expect("index fits");
        files.swap(i, j);
    }
}

#[test]
fn reports_are_byte_identical_across_walk_orders() {
    let root = corpus_root();
    let mut files = Vec::new();
    collect(&root, &root, &mut files);
    assert_eq!(files.len(), 15, "corpus drifted: {files:?}");

    let baseline = nc_lint::lint_sources(&files);
    let base_text = baseline.render_text();
    let base_json = baseline.render_json();
    let base_sarif = nc_lint::sarif::render_sarif(&baseline);
    assert!(!baseline.is_clean(), "{baseline:#?}");

    check_cases(0x0D0E_0F10, 32, |case, rng| {
        let mut shuffled = files.clone();
        shuffle(&mut shuffled, rng);
        let report = nc_lint::lint_sources(&shuffled);
        assert_eq!(report.render_text(), base_text, "case {case}");
        assert_eq!(report.render_json(), base_json, "case {case}");
        assert_eq!(
            nc_lint::sarif::render_sarif(&report),
            base_sarif,
            "case {case}"
        );
    });
}
