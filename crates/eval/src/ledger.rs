//! The suite ledger: one JSON line per suite query and planner profile —
//! the 48 paper queries under gpt-4-sim and chatgpt-3.5-sim, and the 42
//! fieldwork queries once, under gpt-4-sim (the simulated planner scripts
//! its fieldwork mistakes, so the profile does not change them) — holding
//! what the run planned, what it executed, how it ended, and what it cost.
//!
//! The ledger is committed (`SUITE_LEDGER.jsonl` at the workspace root,
//! rewritten by `cargo run --release -p caesura-bench --bin suite_ledger`)
//! and a test regenerates it and compares it exactly, so a change to any
//! suite result or cost shows up as a diff of the lines it moved.

use crate::report::{evaluate_fieldwork, evaluate_model, EvaluationConfig, EvaluationReport};
use caesura_core::CaesuraConfig;
use caesura_llm::ModelProfile;
use caesura_modal::BatchConfig;
use std::fmt::Write;

/// The ledger's file name, relative to the workspace root.
pub const LEDGER_FILE: &str = "SUITE_LEDGER.jsonl";

/// The session configuration the ledger is recorded under: every cache and
/// batch setting at its default, perception dispatch on one thread, one
/// session worker and no store, so neither the machine nor
/// `CAESURA_CACHE_DIR` can move a line.
fn ledger_config() -> CaesuraConfig {
    CaesuraConfig {
        llm_batch: Some(BatchConfig {
            threads: 1,
            ..BatchConfig::default()
        }),
        session_workers: Some(1),
        persist: None,
        ..CaesuraConfig::default()
    }
}

/// Run the paper suite under both profiles and the fieldwork suite once, and
/// render the ledger.
pub fn suite_ledger() -> String {
    suite_ledger_under(ledger_config())
}

/// [`suite_ledger`] with `caesura` as the session configuration, over the
/// default seed and lakes.
pub fn suite_ledger_under(caesura: CaesuraConfig) -> String {
    let config = EvaluationConfig {
        caesura,
        ..EvaluationConfig::default()
    };
    let mut out = String::new();
    for profile in [ModelProfile::Gpt4, ModelProfile::ChatGpt35] {
        render_ledger(&mut out, "paper", &evaluate_model(profile, &config));
    }
    render_ledger(&mut out, "fieldwork", &evaluate_fieldwork(&config));
    out
}

/// Append one line per query of `report` to `out`.
fn render_ledger(out: &mut String, suite: &str, report: &EvaluationReport) {
    for result in &report.results {
        let decisions: Vec<String> = result.decisions.iter().map(|d| json(d)).collect();
        let (outcome, digest) = match result.digest {
            Some(digest) => ("ok", format!("\"{digest:016x}\"")),
            None => ("error", "null".to_string()),
        };
        let _ = writeln!(
            out,
            "{{\"suite\":{},\"model\":{},\"id\":{},\"plan\":{},\"decisions\":[{}],\
             \"outcome\":\"{outcome}\",\"digest\":{digest},\"category\":{},\"error\":{},\
             \"llm_calls\":{},\"prompt_tokens\":{},\"perception_rows\":{},\"perception_calls\":{}}}",
            json(suite),
            json(&report.model),
            json(&result.id),
            result.plan.as_deref().map_or("null".into(), json),
            decisions.join(","),
            result.category.map_or("null".into(), |c| json(c.name())),
            result.error.as_deref().map_or("null".into(), json),
            result.llm_calls,
            result.prompt_tokens,
            result.perception.rows,
            result.perception.calls,
        );
    }
}

/// `text` as a JSON string literal.
fn json(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_as_json() {
        assert_eq!(json("a \"b\"\n\\c\u{1}"), "\"a \\\"b\\\"\\n\\\\c\\u0001\"");
    }
}
