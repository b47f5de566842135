//! The size ledger: `SIZE.json` at the repo root records how big the
//! product is, and this test fails on **any** difference, so every change
//! in size shows up as a diff line in the commit that caused it.
//!
//! Recorded per crate under `crates/*/` (vendored code excluded):
//! - `lines`: lines across every `.rs` file in the crate;
//! - `pub_items`: lines that, after leading whitespace, start with
//!   `pub fn|struct|enum|trait|type|const|static|mod|use` (`pub(crate)`
//!   and other restricted visibilities do not count).
//!
//! Plus `facade_reexports`: the `pub use` / `pub mod` lines in
//! `crates/core/src/lib.rs`, the `overton::` facade's surface.
//!
//! On a mismatch the test prints the regenerated file to commit.

use std::fs;
use std::path::{Path, PathBuf};

const PUB_ITEMS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("harness/ sits in the repo root").into()
}

/// Every `.rs` file under `dir`, in sorted path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir).expect("readable dir").map(|e| e.expect("dir entry").path()).collect();
    entries.sort();
    let mut files = Vec::new();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else { return false };
    PUB_ITEMS.iter().any(|kw| rest.strip_prefix(kw).is_some_and(|after| after.starts_with(' ')))
}

/// Renders the ledger exactly as `SIZE.json` should hold it.
fn ledger(root: &Path) -> String {
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    let (mut total_lines, mut total_pub) = (0usize, 0usize);
    let mut rows = Vec::new();
    for dir in &crates {
        let (mut lines, mut pub_items) = (0usize, 0usize);
        for file in rust_files(dir) {
            let text = fs::read_to_string(&file).expect("utf-8 source");
            lines += text.lines().count();
            pub_items += text.lines().filter(|l| is_pub_item(l)).count();
        }
        total_lines += lines;
        total_pub += pub_items;
        let name = dir.file_name().expect("crate dir name").to_string_lossy();
        rows.push(format!("    \"{name}\": {{ \"lines\": {lines}, \"pub_items\": {pub_items} }}"));
    }
    let facade = fs::read_to_string(root.join("crates/core/src/lib.rs")).expect("facade lib.rs");
    let reexports =
        facade.lines().filter(|l| l.starts_with("pub use ") || l.starts_with("pub mod ")).count();

    format!(
        "{{\n  \"crates\": {{\n{}\n  }},\n  \"total\": {{ \"lines\": {total_lines}, \
         \"pub_items\": {total_pub} }},\n  \"facade_reexports\": {reexports}\n}}\n",
        rows.join(",\n")
    )
}

#[test]
fn size_ledger_is_current() {
    let root = repo_root();
    let expected = ledger(&root);
    let committed = fs::read_to_string(root.join("SIZE.json")).unwrap_or_default();
    assert!(committed == expected, "SIZE.json is stale; commit this as SIZE.json:\n{expected}");
}

#[test]
fn pub_item_rule_matches_only_unrestricted_items() {
    assert!(is_pub_item("pub fn f() {}"));
    assert!(is_pub_item("    pub struct S;"));
    assert!(is_pub_item("pub use a::b;"));
    assert!(!is_pub_item("pub(crate) fn f() {}"));
    assert!(!is_pub_item("    pub name: String,"));
    assert!(!is_pub_item("pub fnord: u8,"));
    assert!(!is_pub_item("// pub fn commented_out()"));
}
