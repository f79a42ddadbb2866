//! The prose names files, and a renamed or deleted file leaves the name
//! behind. Every `*.rs` path that DESIGN.md, EXPERIMENTS.md, README.md or
//! `crates/bench/README.md` names must be the tail of some file in the
//! repository, and DESIGN.md §2's two module maps must have one row per
//! file of `crates/node/src/world/` and `crates/node/src/node/`, no more.

use std::path::Path;

const DOCS: [(&str, &str); 4] = [
    ("DESIGN.md", include_str!("../../../DESIGN.md")),
    ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
    ("README.md", include_str!("../../../README.md")),
    (
        "crates/bench/README.md",
        include_str!("../../bench/README.md"),
    ),
];

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Every `*.rs` file under `dir`, as a `/`-separated path relative to
/// `root`. Build output (`target`) and hidden directories are skipped.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            out.push(parts.join("/"));
        }
    }
}

/// The `*.rs` paths a text names: runs of path characters ending in
/// `.rs`, with a sentence's full stop cut off.
fn rust_paths(text: &str) -> Vec<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| token.len() > ".rs".len() && token.ends_with(".rs"))
        .collect()
}

#[test]
fn every_named_rust_path_is_a_file() {
    let mut files = Vec::new();
    rust_files(repo_root(), repo_root(), &mut files);
    let mut missing = Vec::new();
    for (doc, text) in DOCS {
        for path in rust_paths(text) {
            let suffix = format!("/{path}");
            if !files.iter().any(|f| *f == path || f.ends_with(&suffix)) {
                missing.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(missing.is_empty(), "paths that match no file: {missing:#?}");
}

/// The first cells of the table under DESIGN.md heading `heading`.
fn module_map(heading: &str) -> Vec<&'static str> {
    let section = DOCS[0]
        .1
        .split_once(heading)
        .unwrap_or_else(|| panic!("DESIGN.md lost {heading:?}"))
        .1;
    let section = section.split_once("\n#").map_or(section, |(s, _)| s);
    let mut rows: Vec<_> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once("` |"))
        .map(|(cell, _)| cell)
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn module_maps_have_one_row_per_file() {
    for (heading, dir) in [
        ("### `node::world` module map", "crates/node/src/world"),
        ("### `node::node` module map", "crates/node/src/node"),
    ] {
        let mut files: Vec<String> = std::fs::read_dir(repo_root().join(dir))
            .expect("module directory")
            .map(|entry| entry.expect("directory entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".rs"))
            .collect();
        files.sort_unstable();
        assert_eq!(module_map(heading), files, "DESIGN.md {heading} vs {dir}");
    }
}
