//! Rewrites the committed suite ledger (`SUITE_LEDGER.jsonl` at the
//! workspace root): one JSON line per paper query under each simulated
//! planner profile, and one per fieldwork query, which runs once under
//! gpt-4-sim. `tests/suite_ledger.rs` holds the committed
//! file equal to a fresh run.
//!
//! ```text
//! cargo run --release -p caesura-bench --bin suite_ledger [-- <path>]
//! ```

use std::path::PathBuf;

fn main() {
    let path = std::env::args_os().nth(1).map_or_else(
        || {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(caesura_eval::LEDGER_FILE)
        },
        PathBuf::from,
    );
    let ledger = caesura_eval::suite_ledger();
    if let Err(error) = std::fs::write(&path, &ledger) {
        eprintln!("could not write {}: {error}", path.display());
        std::process::exit(1);
    }
    println!("{} lines -> {}", ledger.lines().count(), path.display());
}
