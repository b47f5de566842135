//! The benchmark must outlive the clean-up it judges: it may link only
//! against surface that ROADMAP items 2–3 keep (`Project`/`Run`, the
//! store-backed algorithms, the serving and obs tiers, the live store,
//! the statistics kernel). This test greps the benchmark's own sources
//! for the names those items delete.

use std::path::Path;

/// Banned names. `word` entries match only as a whole identifier followed
/// by `(` — `evaluate(` is the eager twin, `evaluate_promotion(` is not.
const BANNED: &[(&str, bool)] = &[
    ("overton::build", false),
    ("OvertonBuild", false),
    ("retrain_", false),
    ("FeatureSpace::build(", false),
    ("prepare(", true),
    ("evaluate(", true),
];

fn occurrences(text: &str, needle: &str, word: bool) -> usize {
    text.match_indices(needle)
        .filter(|(at, _)| {
            let before = text[..*at].chars().next_back();
            !word || !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
        .count()
}

fn scan(dir: &Path, found: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("bench/src is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, found);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
            for (needle, word) in BANNED {
                let n = occurrences(&text, needle, *word);
                if n > 0 {
                    found.push(format!("{}: {n} x `{needle}`", path.display()));
                }
            }
        }
    }
}

#[test]
fn benchmark_sources_use_only_surviving_api() {
    let mut found = Vec::new();
    scan(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut found);
    assert!(found.is_empty(), "banned names in bench/src:\n{}", found.join("\n"));
}

#[test]
fn the_matcher_tells_twins_from_survivors() {
    assert_eq!(occurrences("x = evaluate(model)", "evaluate(", true), 1);
    assert_eq!(occurrences("run.evaluate(rows)", "evaluate(", true), 1);
    assert_eq!(occurrences("evaluate_promotion(a, b)", "evaluate(", true), 0);
    assert_eq!(occurrences("re_evaluate(x)", "evaluate(", true), 0);
    assert_eq!(occurrences("project.retrain_incremental(..)", "retrain_", false), 1);
    assert_eq!(occurrences("mod live_retrain;", "retrain_", false), 0);
}
