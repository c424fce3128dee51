//! The committed suite ledger equals a fresh run, line for line: any change
//! to what a suite query plans, executes, answers or costs must arrive with
//! the ledger lines it moves. Every cache, batch and thread setting is pinned
//! in the ledger's configuration, and no store is attached, so the machine
//! and `CAESURA_CACHE_DIR` cannot move a line.
//!
//! A second run regenerates the ledger with every optimisation off at once —
//! one request per perception batch on one thread, no perception cache, no
//! plan cache, one session worker — and holds every line equal to the
//! committed one except its count of perception calls: each scaling layer is
//! a pure optimisation over the path below it.

use caesura::core::CaesuraConfig;
use caesura::eval::{suite_ledger, suite_ledger_under, LEDGER_FILE};
use caesura::llm::PlanCacheConfig;
use caesura::modal::{BatchConfig, CacheConfig};

fn committed_ledger() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(LEDGER_FILE);
    std::fs::read_to_string(&path).unwrap_or_else(|error| panic!("{}: {error}", path.display()))
}

/// The first 30 lines of a report of the lines where `fresh` and `committed`
/// differ once both went through `strip`; empty when none does.
fn differing_lines(committed: &str, fresh: &str, strip: fn(&str) -> &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let mut report = String::new();
    for at in 0..old.len().max(new.len()) {
        let (was, is) = (old.get(at).copied(), new.get(at).copied());
        if was.map(strip) != is.map(strip) {
            report.push_str(&format!(
                "line {}:\n- {}\n+ {}\n",
                at + 1,
                was.unwrap_or("<none>"),
                is.unwrap_or("<none>")
            ));
            if report.lines().count() >= 30 {
                break;
            }
        }
    }
    report
}

#[test]
fn the_committed_ledger_matches_a_fresh_run() {
    let committed = committed_ledger();
    let fresh = suite_ledger();
    // The paper suite under both profiles; the fieldwork suite runs once.
    assert_eq!(fresh.lines().count(), 2 * 48 + 42);
    if committed == fresh {
        return;
    }
    panic!(
        "{LEDGER_FILE} differs from a fresh run; if the change is intended, rewrite it with \
         `cargo run --release -p caesura-bench --bin suite_ledger` and review the diff\n{}",
        differing_lines(&committed, &fresh, |line| line)
    );
}

/// `line` up to its last field, `perception_calls`.
fn without_perception_calls(line: &str) -> &str {
    line.rsplit_once(",\"perception_calls\":")
        .map_or(line, |(kept, _)| kept)
}

/// The value of a ledger line's `perception_calls` field.
fn perception_calls(line: &str) -> usize {
    let (_, calls) = line
        .rsplit_once(",\"perception_calls\":")
        .expect("every ledger line ends in perception_calls");
    calls.trim_end_matches('}').parse().expect("a count")
}

#[test]
fn every_optimisation_off_changes_only_the_perception_call_counts() {
    let all_off = CaesuraConfig {
        llm_batch: Some(BatchConfig {
            batch_size: 1,
            threads: 1,
        }),
        perception_cache: Some(CacheConfig::off()),
        plan_cache: Some(PlanCacheConfig::off()),
        session_workers: Some(1),
        persist: None,
        ..CaesuraConfig::default()
    };
    let committed = committed_ledger();
    let fresh = suite_ledger_under(all_off);
    let report = differing_lines(&committed, &fresh, without_perception_calls);
    assert!(
        report.is_empty(),
        "with every optimisation off, a line of {LEDGER_FILE} moved beyond its perception \
         call count\n{report}"
    );
    // Without a cache, a question repeated across steps is asked again.
    for (was, is) in committed.lines().zip(fresh.lines()) {
        assert!(perception_calls(is) >= perception_calls(was), "{is}");
    }
}
