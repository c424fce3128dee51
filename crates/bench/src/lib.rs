//! # caesura-bench
//!
//! The benchmark harness of the CAESURA reproduction. Every table and figure
//! of the paper's evaluation has a regeneration target here:
//!
//! | Artifact | Target |
//! |---|---|
//! | Table 1 (plan quality) | `cargo run -p caesura-bench --bin table1` |
//! | Table 2 (error analysis) | `cargo run -p caesura-bench --bin table2` |
//! | Figure 1 (example query → plan → plot) | `cargo run -p caesura-bench --bin figure1` |
//! | Figure 2 (multi-phase pipeline trace) | `cargo run -p caesura-bench --bin figure2_pipeline` |
//! | Figure 3 (planning / mapping prompts) | `cargo run -p caesura-bench --bin figure3_prompts` |
//! | Figure 4 (anecdote plans) | `cargo run -p caesura-bench --bin figure4_anecdotes` |
//! | Ablation: interleaved execution | `cargo run -p caesura-bench --bin ablation_interleaving` |
//! | Ablation: few-shot planning examples | `cargo run -p caesura-bench --bin ablation_fewshot` |
//!
//! Criterion micro-benchmarks live in `benches/` (operator throughput,
//! planning latency, end-to-end latency, plan-quality sweep).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use caesura_core::{Caesura, CaesuraConfig};
use caesura_data::{generate_artwork, generate_rotowire, ArtworkConfig, RotowireConfig};
use caesura_engine::{DataType, Schema, Table, TableBuilder, Value};
use caesura_eval::{evaluate_model, EvaluationConfig, EvaluationReport};
use caesura_llm::{ModelProfile, SimulatedLlm};
use std::sync::Arc;

/// The standard benchmark seed used by every binary (kept fixed so that the
/// numbers in EXPERIMENTS.md are reproducible).
pub const BENCH_SEED: u64 = 42;

/// Build the default artwork session used by the figure binaries.
pub fn artwork_session(profile: ModelProfile) -> Caesura {
    let data = generate_artwork(&ArtworkConfig::default());
    Caesura::new(data.lake, Arc::new(SimulatedLlm::new(profile, BENCH_SEED)))
}

/// Build the default rotowire session used by the figure binaries.
pub fn rotowire_session(profile: ModelProfile) -> Caesura {
    let data = generate_rotowire(&RotowireConfig::default());
    Caesura::new(data.lake, Arc::new(SimulatedLlm::new(profile, BENCH_SEED)))
}

/// Build an artwork session with a custom CAESURA configuration.
pub fn artwork_session_with(profile: ModelProfile, config: CaesuraConfig) -> Caesura {
    let data = generate_artwork(&ArtworkConfig::default());
    Caesura::with_config(
        data.lake,
        Arc::new(SimulatedLlm::new(profile, BENCH_SEED)),
        config,
    )
}

/// Run the 48-query evaluation for both model profiles with the default
/// configuration (used by the `table1` and `table2` binaries).
pub fn default_reports() -> Vec<EvaluationReport> {
    let config = EvaluationConfig {
        seed: BENCH_SEED,
        ..EvaluationConfig::default()
    };
    vec![
        evaluate_model(ModelProfile::ChatGpt35, &config),
        evaluate_model(ModelProfile::Gpt4, &config),
    ]
}

/// Run the 48-query evaluation for one profile under a custom CAESURA
/// configuration (used by the ablation binaries).
pub fn report_with_config(profile: ModelProfile, caesura: CaesuraConfig) -> EvaluationReport {
    let config = EvaluationConfig {
        seed: BENCH_SEED,
        caesura,
        ..EvaluationConfig::default()
    };
    evaluate_model(profile, &config)
}

/// A synthetic scores table with int/float/str columns, used to measure the
/// relational operators at cardinalities (8k–1M) where the artwork generator
/// (which also builds image annotations) would dominate setup time.
pub fn scores_table(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("game_id", DataType::Int),
        ("team", DataType::Str),
        ("points", DataType::Int),
        ("rating", DataType::Float),
    ]);
    let mut builder = TableBuilder::new("scores", schema);
    for i in 0..rows {
        builder
            .push_row(vec![
                Value::Int(i as i64),
                Value::str(TEAMS[i % TEAMS.len()].0),
                Value::Int(60 + ((i * 37) % 90) as i64),
                Value::Float((i % 1000) as f64 / 10.0),
            ])
            .unwrap();
    }
    builder.build()
}

const TEAMS: [(&str, &str); 8] = [
    ("Heat", "Eastern"),
    ("Spurs", "Western"),
    ("Bulls", "Eastern"),
    ("Lakers", "Western"),
    ("Celtics", "Eastern"),
    ("Nets", "Eastern"),
    ("Suns", "Western"),
    ("Jazz", "Western"),
];

/// A keyed side table joining against `scores.team`.
pub fn teams_table() -> Table {
    let schema = Schema::from_pairs(&[("team", DataType::Str), ("conference", DataType::Str)]);
    let mut builder = TableBuilder::new("teams", schema);
    for (team, conference) in TEAMS {
        builder.push_values([team, conference]).unwrap();
    }
    builder.build()
}

/// The paper-scale join shape at a chosen size: a metadata table and an
/// image table of `rows` rows each, keyed by one unique `img_path` string in
/// the same order on both sides (`paintings_metadata ⋈ painting_images`).
pub fn fk_tables(rows: usize) -> (Table, Table) {
    let schema = Schema::from_pairs(&[
        ("title", DataType::Str),
        ("movement", DataType::Str),
        ("inception", DataType::Int),
        ("img_path", DataType::Str),
    ]);
    let mut metadata = TableBuilder::new("paintings_metadata", schema);
    let schema = Schema::from_pairs(&[("img_path", DataType::Str), ("image", DataType::Image)]);
    let mut images = TableBuilder::new("painting_images", schema);
    for i in 0..rows {
        let path = format!("img/{i:07}.png");
        metadata
            .push_row(vec![
                Value::str(format!("Painting {i}")),
                Value::str(TEAMS[i % TEAMS.len()].0),
                Value::Int(1400 + (i % 500) as i64),
                Value::str(path.as_str()),
            ])
            .unwrap();
        images
            .push_row(vec![Value::str(path.as_str()), Value::image(path.as_str())])
            .unwrap();
    }
    (metadata.build(), images.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_build_for_both_profiles() {
        let artwork = artwork_session(ModelProfile::Gpt4);
        assert_eq!(artwork.lake().name, "artwork");
        let rotowire = rotowire_session(ModelProfile::ChatGpt35);
        assert_eq!(rotowire.lake().name, "rotowire");
    }

    #[test]
    fn figure_queries_succeed_with_the_bench_seed() {
        // The showcase queries of Figures 1 and 4 must execute correctly under
        // the default benchmark seed (the paper reports them as successes).
        let artwork = artwork_session(ModelProfile::Gpt4);
        assert!(artwork
            .run("Plot the number of paintings depicting Madonna and Child for each century!")
            .succeeded());
        assert!(artwork
            .run("Plot the maximum number of swords depicted on the paintings of each century.")
            .succeeded());
        let rotowire = rotowire_session(ModelProfile::Gpt4);
        assert!(rotowire
            .run("For every team, what is the highest number of points they scored in a game?")
            .succeeded());
    }
}
