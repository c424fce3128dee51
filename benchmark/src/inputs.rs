//! Generated inputs and the correctness gate: lakes and query suites made
//! from `--seed`, the serial reference pass, and the per-query verdict.

use caesura_core::{
    Caesura, CaesuraConfig, CoreError, ExecutionTrace, QueryOutput, QueryRun, TraceEvent,
};
use caesura_data::{
    generate_artwork, generate_fieldwork, generate_rotowire, ArtworkConfig, DataLake,
    FieldworkConfig, RotowireConfig,
};
use caesura_eval::{
    benchmark_queries, fieldwork_queries, fieldwork_reference_for, grade, known_identifiers,
    reference_for, BenchmarkQuery, Dataset, Expectation, Reference, Tier,
};
use caesura_llm::{LlmClient, ModelProfile, PlanCacheConfig, SimulatedLlm};
use caesura_modal::CacheConfig;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Error-injection seed of the simulated GPT-4 profile. It is pinned, not
/// taken from `--seed`: it decides *which* queries carry the profile's
/// designed mistakes, so varying it changes how much recovery and re-planning
/// traffic a workload holds (18 to 68 planner calls per warm round across ten
/// seeds) — a different workload, not a different input to the same one.
pub const MODEL_SEED: u64 = 42;

/// The paper-suite queries the pinned model profile gets wrong by design
/// (unrecoverable injected planning or mapping mistakes; Table 1's ~83 %
/// physical accuracy). They run like every other query and must reproduce the
/// reference pass's outcome, but they are not held to the oracle.
pub const DESIGNED_MISSES: [&str; 8] = ["A19", "R03", "R06", "R08", "R10", "R21", "R22", "R23"];

/// Which lakes and suite a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// The 48-query paper suite over an artwork and a rotowire lake.
    Paper {
        /// Paintings in the artwork lake.
        paintings: usize,
        /// Games in the rotowire lake.
        games: usize,
    },
    /// The 28 clean-tier fieldwork queries over the default fieldwork lake.
    Fieldwork,
}

/// One query of a suite with everything grading needs.
pub struct SuiteQuery {
    /// The benchmark query (id, text, expectation).
    pub query: BenchmarkQuery,
    /// Index into [`Inputs::lakes`] of the lake it runs against.
    pub lake: usize,
    /// The oracle answer, computed from the generator's ground truth.
    pub reference: Reference,
}

/// The generated inputs of one workload.
pub struct Inputs {
    /// The lakes (artwork then rotowire, or fieldwork alone).
    pub lakes: Vec<DataLake>,
    /// Known table and column identifiers per lake, for logical grading.
    pub known: Vec<BTreeSet<String>>,
    /// The suite, in suite order.
    pub queries: Vec<SuiteQuery>,
    /// Milliseconds the lake generators took.
    pub generate_ms: f64,
}

/// Generate the lakes and suite of `kind` from `seed`.
pub fn generate(kind: SuiteKind, seed: u64) -> Inputs {
    let started = Instant::now();
    match kind {
        SuiteKind::Paper { paintings, games } => {
            let artwork = generate_artwork(&ArtworkConfig {
                num_paintings: paintings,
                seed,
                ..ArtworkConfig::paper_scale()
            });
            let rotowire = generate_rotowire(&RotowireConfig {
                num_games: games,
                seed,
                ..RotowireConfig::default()
            });
            let generate_ms = started.elapsed().as_secs_f64() * 1e3;
            let queries = benchmark_queries()
                .into_iter()
                .map(|query| SuiteQuery {
                    lake: usize::from(query.dataset == Dataset::Rotowire),
                    reference: reference_for(&query, &artwork, &rotowire),
                    query,
                })
                .collect();
            Inputs::new(vec![artwork.lake, rotowire.lake], queries, generate_ms)
        }
        SuiteKind::Fieldwork => {
            let fieldwork = generate_fieldwork(&FieldworkConfig {
                seed,
                ..FieldworkConfig::default()
            });
            let generate_ms = started.elapsed().as_secs_f64() * 1e3;
            let queries = fieldwork_queries()
                .into_iter()
                .filter(|query| query.tier == Tier::Clean)
                .map(|query| SuiteQuery {
                    lake: 0,
                    reference: fieldwork_reference_for(&query, &fieldwork),
                    query,
                })
                .collect();
            Inputs::new(vec![fieldwork.lake], queries, generate_ms)
        }
    }
}

impl Inputs {
    fn new(lakes: Vec<DataLake>, queries: Vec<SuiteQuery>, generate_ms: f64) -> Self {
        assert!(
            queries
                .iter()
                .all(|q| q.query.expectation == Expectation::Correct),
            "the workloads run clean-tier queries only"
        );
        Inputs {
            known: lakes
                .iter()
                .map(|lake| known_identifiers(lake.catalog()))
                .collect(),
            lakes,
            queries,
            generate_ms,
        }
    }

    /// One session per lake over `llm`, each with the configuration
    /// `config_for` gives its lake index.
    pub fn sessions(
        &self,
        llm: &Arc<dyn LlmClient>,
        config_for: impl Fn(usize) -> CaesuraConfig,
    ) -> Vec<Caesura> {
        self.lakes
            .iter()
            .enumerate()
            .map(|(index, lake)| {
                Caesura::with_config(lake.clone(), Arc::clone(llm), config_for(index))
            })
            .collect()
    }

    /// Whether `run` of suite query `index` produced the oracle answer from
    /// a correct logical plan.
    pub fn meets_oracle(&self, index: usize, run: &QueryRun) -> bool {
        let suite_query = &self.queries[index];
        grade(
            &suite_query.query,
            run,
            &suite_query.reference,
            &self.known[suite_query.lake],
        )
        .physical
    }
}

/// The simulated planner model every workload plans with.
pub fn simulated_model() -> SimulatedLlm {
    SimulatedLlm::new(ModelProfile::Gpt4, MODEL_SEED)
}

/// The model responses a run's trace recorded, in order.
pub fn model_responses(trace: &ExecutionTrace) -> impl Iterator<Item = &TraceEvent> {
    trace
        .events()
        .iter()
        .filter(|event| event.label == "response")
}

/// What the serial reference pass produced for one suite query.
pub struct Expected {
    /// Its output (or the error that stopped it).
    pub output: Result<QueryOutput, CoreError>,
    /// Whether that output met the oracle.
    pub met_oracle: bool,
}

/// The reference pass: the suite once, serially, through fresh sessions with
/// the perception cache, the plan cache and the store all off. The repo's
/// invariant is that none of those (nor scheduling) ever changes an answer,
/// so every measured query must reproduce this pass's output.
pub fn reference_pass(inputs: &Inputs) -> Vec<Expected> {
    let config = CaesuraConfig {
        perception_cache: Some(CacheConfig::off()),
        plan_cache: Some(PlanCacheConfig::off()),
        persist: None,
        ..CaesuraConfig::default()
    };
    let llm: Arc<dyn LlmClient> = Arc::new(simulated_model());
    let sessions = inputs.sessions(&llm, |_| config.clone());
    inputs
        .queries
        .iter()
        .enumerate()
        .map(|(index, suite_query)| {
            let run = sessions[suite_query.lake].run(suite_query.query.text);
            Expected {
                met_oracle: inputs.meets_oracle(index, &run),
                output: run.output,
            }
        })
        .collect()
}

/// Why a measured query counts as failed (or that it does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Reproduced the reference output and met its expectation.
    Pass,
    /// Refused at admission.
    Rejected,
    /// Ended in an error where the reference pass produced an output.
    Error,
    /// Missed the oracle on a query the model profile is not designed to miss.
    Expectation,
    /// Produced an outcome other than the reference pass's.
    OutputDiffers,
}

impl Verdict {
    /// The failure causes, in the order the printout lists them.
    pub const CAUSES: [Verdict; 4] = [
        Verdict::Rejected,
        Verdict::Error,
        Verdict::Expectation,
        Verdict::OutputDiffers,
    ];

    /// Name used in the printout.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Rejected => "rejected",
            Verdict::Error => "error",
            Verdict::Expectation => "expectation",
            Verdict::OutputDiffers => "output-differs",
        }
    }
}

/// Grade one finished run of suite query `index` against the reference pass
/// and the oracle.
pub fn verdict(inputs: &Inputs, expected: &[Expected], index: usize, run: &QueryRun) -> Verdict {
    let reference = &expected[index];
    if run.output.is_err() && reference.output.is_ok() {
        Verdict::Error
    } else if run.output != reference.output {
        Verdict::OutputDiffers
    } else if !inputs.meets_oracle(index, run)
        && !DESIGNED_MISSES.contains(&inputs.queries[index].query.id)
    {
        Verdict::Expectation
    } else {
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Inputs {
        generate(
            SuiteKind::Paper {
                paintings: 60,
                games: 30,
            },
            7,
        )
    }

    #[test]
    fn same_seed_same_inputs_and_suites_have_the_documented_sizes() {
        let (a, b) = (small(), small());
        assert_eq!(a.queries.len(), 48);
        assert_eq!(a.lakes.len(), 2);
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.reference, y.reference);
        }
        let other = generate(
            SuiteKind::Paper {
                paintings: 60,
                games: 30,
            },
            8,
        );
        assert!(a
            .queries
            .iter()
            .zip(&other.queries)
            .any(|(x, y)| x.reference != y.reference));
        assert_eq!(generate(SuiteKind::Fieldwork, 7).queries.len(), 28);
    }

    #[test]
    fn reference_pass_misses_the_oracle_only_on_the_designed_queries() {
        let inputs = small();
        let expected = reference_pass(&inputs);
        let missed: Vec<&str> = inputs
            .queries
            .iter()
            .zip(&expected)
            .filter(|(_, e)| !e.met_oracle)
            .map(|(q, _)| q.query.id)
            .collect();
        assert_eq!(missed, DESIGNED_MISSES);
    }

    #[test]
    fn verdict_names_the_cause() {
        let inputs = small();
        let expected = reference_pass(&inputs);
        let llm: Arc<dyn LlmClient> = Arc::new(simulated_model());
        let sessions = inputs.sessions(&llm, |_| CaesuraConfig::default());
        // A cached, default-config session reproduces the reference pass.
        let run = sessions[0].run(inputs.queries[0].query.text);
        assert_eq!(verdict(&inputs, &expected, 0, &run), Verdict::Pass);
        // The same run graded as another query's answer differs from it.
        assert_eq!(verdict(&inputs, &expected, 1, &run), Verdict::OutputDiffers);
        let mut failed = run.clone();
        failed.output = Err(CoreError::Cancelled);
        assert_eq!(verdict(&inputs, &expected, 0, &failed), Verdict::Error);
        // A designed miss that reproduces its reference outcome passes.
        let a19 = inputs
            .queries
            .iter()
            .position(|q| q.query.id == "A19")
            .unwrap();
        let run = sessions[0].run(inputs.queries[a19].query.text);
        assert!(!inputs.meets_oracle(a19, &run));
        assert_eq!(verdict(&inputs, &expected, a19, &run), Verdict::Pass);
    }
}
