//! ARCHITECTURE.md points at code as `` `Symbol` (`crates/…/file.rs`) `` or
//! `` (`Symbol`, `crates/…/file.rs`) ``. This test fails when such a file is
//! gone or no longer mentions the symbol named beside it, so a rename or a
//! move has to update the document. docs/CONFIG.md's table of environment
//! variables is held to the `CAESURA_*` names the crates actually read.

use std::collections::BTreeSet;
use std::path::Path;

/// The code spans of `markdown` outside fenced blocks, each with the prose
/// between it and the span before.
fn code_spans(markdown: &str) -> Vec<(&str, &str)> {
    let mut spans = Vec::new();
    for (i, prose) in markdown.split("```").enumerate() {
        if i % 2 == 1 {
            continue; // a fenced block
        }
        let parts: Vec<&str> = prose.split('`').collect();
        // Odd parts are code spans, the even part before each is its gap.
        spans.extend(parts.chunks_exact(2).map(|pair| (pair[0], pair[1])));
    }
    spans
}

/// The identifiers of a symbol such as `PerceptionBatch::dispatch`,
/// `TieredCache<K, V>` or `Caesura::submit(&self, q)`: what must occur in the
/// file it is said to live in.
fn identifiers(symbol: &str) -> Vec<&str> {
    let path = symbol
        .split(['<', '(', ' ', '{'])
        .next()
        .unwrap_or_default();
    let is_identifier =
        |part: &&str| !part.is_empty() && part.chars().all(|c| c.is_alphanumeric() || c == '_');
    path.split("::").filter(is_identifier).collect()
}

#[test]
fn architecture_pointers_name_symbols_their_files_still_hold() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let document = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    let spans = code_spans(&document);
    let mut checked = 0;
    let mut stale = Vec::new();
    for (i, &(gap, span)) in spans.iter().enumerate() {
        if !(span.starts_with("crates/") && span.ends_with(".rs")) {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(root.join(span)) else {
            stale.push(format!("{span} does not exist"));
            continue;
        };
        // `Symbol` (`path`) or (`Symbol`, `path`): the span before is the symbol.
        if i == 0 || !matches!(gap.trim(), "(" | ",") {
            continue;
        }
        let symbol = spans[i - 1].1;
        for identifier in identifiers(symbol) {
            checked += 1;
            if !source.contains(identifier) {
                stale.push(format!("`{symbol}`: no `{identifier}` in {span}"));
            }
        }
    }
    assert!(stale.is_empty(), "stale pointers:\n{}", stale.join("\n"));
    assert!(
        checked >= 40,
        "only {checked} pointers found: has the format changed?"
    );
}

/// Every `"CAESURA_…"` string literal in the non-test part (what precedes
/// the first `#[cfg(test)]`) of the `.rs` files under `dir`.
fn env_names_read_under(dir: &Path, names: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            env_names_read_under(&path, names);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).unwrap();
            let production = source.split("#[cfg(test)]").next().unwrap_or_default();
            for literal in production.split("\"CAESURA_").skip(1) {
                let name = literal.split('"').next().unwrap_or_default();
                if !name.is_empty() && name.chars().all(|c| c.is_ascii_uppercase() || c == '_') {
                    names.insert(format!("CAESURA_{name}"));
                }
            }
        }
    }
}

#[test]
fn the_config_reference_lists_exactly_the_variables_the_crates_read() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read = BTreeSet::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let source = entry.unwrap().path().join("src");
        // `crates/shims/` holds crates of its own, none of them ours.
        if source.is_dir() {
            env_names_read_under(&source, &mut read);
        }
    }
    let reference = std::fs::read_to_string(root.join("docs/CONFIG.md")).unwrap();
    let documented: BTreeSet<String> = reference
        .lines()
        .filter_map(|line| line.strip_prefix("| `CAESURA_"))
        .filter_map(|row| row.split('`').next())
        .map(|name| format!("CAESURA_{name}"))
        .collect();
    assert_eq!(read, documented, "docs/CONFIG.md's env table has drifted");
    assert!(
        read.contains("CAESURA_THREADS"),
        "no variable found: has the way they are read changed?"
    );
}

#[test]
fn pointer_parsing_reads_both_forms_and_skips_fences() {
    let spans = code_spans("`A::b` (`crates/x.rs`), (`C<T>`,\n `crates/y.rs`)\n```\n`no`\n```\n");
    let texts: Vec<&str> = spans.iter().map(|&(_, span)| span).collect();
    assert_eq!(texts, ["A::b", "crates/x.rs", "C<T>", "crates/y.rs"]);
    assert_eq!((spans[1].0.trim(), spans[3].0.trim()), ("(", ","));
    assert_eq!(identifiers("A::b"), ["A", "b"]);
    assert_eq!(identifiers("C<T>"), ["C"]);
    assert_eq!(
        identifiers("Caesura::submit(&self, q)"),
        ["Caesura", "submit"]
    );
    assert!(identifiers("a + b").len() == 1 && identifiers("--flag").is_empty());
}
