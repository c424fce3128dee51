//! The committed suite ledger equals a fresh run, line for line: any change
//! to what a suite query plans, executes, answers or costs must arrive with
//! the ledger lines it moves. Every cache, batch and thread setting is pinned
//! in the ledger's configuration, so this holds under any `CAESURA_*`
//! environment.

use caesura::eval::{suite_ledger, LEDGER_FILE};

#[test]
fn the_committed_ledger_matches_a_fresh_run() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(LEDGER_FILE);
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| panic!("{}: {error}", path.display()));
    let fresh = suite_ledger();
    assert_eq!(fresh.lines().count(), 2 * (48 + 42));
    if committed == fresh {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let mut report = String::new();
    for at in 0..old.len().max(new.len()) {
        let (was, is) = (old.get(at), new.get(at));
        if was != is {
            report.push_str(&format!(
                "line {}:\n- {}\n+ {}\n",
                at + 1,
                was.unwrap_or(&"<none>"),
                is.unwrap_or(&"<none>")
            ));
            if report.lines().count() >= 30 {
                break;
            }
        }
    }
    panic!(
        "{LEDGER_FILE} differs from a fresh run; if the change is intended, rewrite it with \
         `cargo run --release -p caesura-bench --bin suite_ledger` and review the diff\n{report}"
    );
}
