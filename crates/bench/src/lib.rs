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
//! The repo's end-to-end benchmark (latency, throughput, model calls per
//! query) is the standalone `benchmark/` package.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use caesura_core::{Caesura, CaesuraConfig};
use caesura_data::{generate_artwork, generate_rotowire, ArtworkConfig, RotowireConfig};
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
