//! The evaluation harness: run the 48-query benchmark for one or more model
//! profiles and aggregate the grades into the layouts of Table 1 and Table 2.

use crate::errors::{classify, ErrorCategory};
use crate::grade::{grade, known_identifiers, Grade};
use crate::oracle::{fieldwork_reference_for, reference_for, Reference};
use crate::queries::{
    benchmark_queries, fieldwork_queries, BenchmarkQuery, Dataset, Expectation, ExpectedOutput,
    Tier,
};
use caesura_core::{Caesura, CaesuraConfig, QueryOutput, QueryRun};
use caesura_data::{
    generate_artwork, generate_fieldwork, generate_rotowire, ArtworkConfig, FieldworkConfig,
    RotowireConfig,
};
use caesura_llm::{LogicalPlan, ModelProfile, OperatorDecision, SimulatedLlm};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one evaluation run.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// Seed for data generation and the simulated model's error injection.
    pub seed: u64,
    /// Artwork-lake generator configuration.
    pub artwork: ArtworkConfig,
    /// Rotowire-lake generator configuration.
    pub rotowire: RotowireConfig,
    /// Fieldwork-lake generator configuration (the clean variant; the
    /// fieldwork drivers derive the corrupted adversarial variant from it).
    pub fieldwork: FieldworkConfig,
    /// CAESURA session configuration.
    pub caesura: CaesuraConfig,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            seed: 42,
            artwork: ArtworkConfig::default(),
            rotowire: RotowireConfig::default(),
            fieldwork: FieldworkConfig::default(),
            caesura: CaesuraConfig::default(),
        }
    }
}

impl EvaluationConfig {
    /// A small configuration for fast tests.
    pub fn small() -> Self {
        EvaluationConfig {
            seed: 7,
            artwork: ArtworkConfig::small(),
            rotowire: RotowireConfig::small(),
            fieldwork: FieldworkConfig::small(),
            caesura: CaesuraConfig::default(),
        }
    }

    /// The corrupted fieldwork variant the adversarial tier runs against:
    /// identical ground-truth records (same seed and scale), plus missing
    /// images and dirty report cells.
    pub fn corrupted_fieldwork(&self) -> FieldworkConfig {
        FieldworkConfig {
            missing_images: FieldworkConfig::adversarial().missing_images,
            dirty_reports: FieldworkConfig::adversarial().dirty_reports,
            ..self.fieldwork.clone()
        }
    }
}

/// The evaluation record of one benchmark query.
#[derive(Debug, Clone)]
pub struct QueryEvaluation {
    /// Query id.
    pub id: String,
    /// Query text.
    pub text: String,
    /// Dataset.
    pub dataset: Dataset,
    /// Requested output format.
    pub output: ExpectedOutput,
    /// Whether the query needs multi-modal data.
    pub multimodal: bool,
    /// The tier the query belongs to.
    pub tier: Tier,
    /// What the run was expected to produce.
    pub expectation: Expectation,
    /// Whether the run met its expectation: the oracle answer for clean
    /// queries, the specific failure for adversarial ones.
    pub expectation_met: bool,
    /// The grade.
    pub grade: Grade,
    /// The error category, if the run was not fully correct.
    pub category: Option<ErrorCategory>,
    /// Number of LLM completions the run needed (planning/mapping/recovery
    /// conversations served; a `complete_batch` dispatch can carry several
    /// completions in one round trip).
    pub llm_calls: usize,
    /// Approximate tokens of every prompt the run sent.
    pub prompt_tokens: usize,
    /// The rendered logical plan of the last planning pass, if any.
    pub plan: Option<String>,
    /// Per step of that plan that ran, the last decision executed for it,
    /// rendered as the trace's `decision` events are.
    pub decisions: Vec<String>,
    /// [`QueryOutput::digest`](caesura_core::QueryOutput::digest) of the
    /// output, if the run succeeded.
    pub digest: Option<u64>,
    /// Batched perception-operator call accounting of the run (rows walked,
    /// unique model calls, batches, calls saved by dedup).
    pub perception: caesura_core::PerceptionCalls,
    /// Plan-cache probe accounting of the run (all zero when the cache is
    /// disabled).
    pub plan_cache: caesura_core::PlanCacheCalls,
    /// Where the executed plan came from (`None` when the plan cache is
    /// disabled).
    pub plan_source: Option<caesura_core::PlanSource>,
    /// Wall clock of the run (scheduler pickup to completion), from the
    /// trace's phase timings — the same timing source the serving bench
    /// reports percentiles over.
    pub latency: Duration,
    /// Time the submission sat in the scheduler queue before a worker picked
    /// it up — negligible under the serial driver (an idle worker picks each
    /// blocking `run` up immediately); under [`evaluate_fieldwork_concurrent`]
    /// this is the scheduling-delay component of the end-to-end latency
    /// (`queue_wait + latency`).
    pub queue_wait: Duration,
    /// The execution error message, if execution failed.
    pub error: Option<String>,
}

/// The full evaluation of one model profile.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// Display name of the evaluated model.
    pub model: String,
    /// Per-query records, in benchmark order.
    pub results: Vec<QueryEvaluation>,
}

impl EvaluationReport {
    /// Accuracy (logical, physical) over the queries selected by `filter`.
    pub fn accuracy<F>(&self, filter: F) -> (f64, f64)
    where
        F: Fn(&QueryEvaluation) -> bool,
    {
        let selected: Vec<&QueryEvaluation> = self.results.iter().filter(|r| filter(r)).collect();
        if selected.is_empty() {
            return (0.0, 0.0);
        }
        let n = selected.len() as f64;
        let logical = selected.iter().filter(|r| r.grade.logical).count() as f64 / n;
        let physical = selected.iter().filter(|r| r.grade.physical).count() as f64 / n;
        (logical, physical)
    }

    /// Fraction of the queries selected by `filter` that met their
    /// [`Expectation`] — physical correctness for clean queries, the
    /// expected failure for adversarial ones. Zero for an empty selection.
    pub fn expectation_accuracy<F>(&self, filter: F) -> f64
    where
        F: Fn(&QueryEvaluation) -> bool,
    {
        let selected: Vec<&QueryEvaluation> = self.results.iter().filter(|r| filter(r)).collect();
        if selected.is_empty() {
            return 0.0;
        }
        selected.iter().filter(|r| r.expectation_met).count() as f64 / selected.len() as f64
    }

    /// Accuracy (logical, physical) over one tier.
    pub fn tier_accuracy(&self, tier: Tier) -> (f64, f64) {
        self.accuracy(|r| r.tier == tier)
    }

    /// Per-category adversarial outcomes: for each error category, how many
    /// queries *expect* it and how many of those observed exactly it.
    pub fn expected_category_outcomes(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut out: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for category in ErrorCategory::all() {
            let expecting: Vec<&QueryEvaluation> = self
                .results
                .iter()
                .filter(|r| r.expectation == Expectation::Category(*category))
                .collect();
            let met = expecting.iter().filter(|r| r.expectation_met).count();
            out.insert(category.name(), (expecting.len(), met));
        }
        out
    }

    /// Error counts per category (Table 2).
    pub fn error_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for category in ErrorCategory::all() {
            counts.insert(category.name(), 0);
        }
        for result in &self.results {
            if let Some(category) = result.category {
                *counts.entry(category.name()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Total LLM round trips across the benchmark.
    pub fn total_llm_calls(&self) -> usize {
        self.results.iter().map(|r| r.llm_calls).sum()
    }
}

/// Grade one finished run into its evaluation record (shared by the serial
/// and concurrent drivers so both report through identical grading).
fn grade_run(
    query: &BenchmarkQuery,
    run: &QueryRun,
    reference: &Reference,
    known: &std::collections::BTreeSet<String>,
) -> QueryEvaluation {
    let query_grade = grade(query, run, reference, known);
    let category = classify(query, run, query_grade, known);
    let expectation_met = match query.expectation {
        Expectation::Correct => query_grade.physical,
        Expectation::ExecutionError(needle) => run
            .output
            .as_ref()
            .err()
            .is_some_and(|e| e.to_string().contains(needle)),
        Expectation::Category(expected) => category == Some(expected),
    };
    // A failed attempt and its retries are pushed in order, so the last
    // decision of a step number is the one that ran last.
    let mut decisions: Vec<&OperatorDecision> = Vec::new();
    for decision in &run.decisions {
        match decisions.last_mut() {
            Some(last) if last.step_number == decision.step_number => *last = decision,
            _ => decisions.push(decision),
        }
    }
    QueryEvaluation {
        id: query.id.to_string(),
        text: query.text.to_string(),
        dataset: query.dataset,
        output: query.output,
        multimodal: query.multimodal,
        tier: query.tier,
        expectation: query.expectation,
        expectation_met,
        grade: query_grade,
        category,
        llm_calls: run.trace.llm_calls(),
        prompt_tokens: run.trace.prompt_tokens(),
        plan: run.logical_plan.as_ref().map(LogicalPlan::render),
        decisions: decisions
            .iter()
            .map(|d| {
                let arguments = d.arguments.join("; ");
                format!(
                    "Step {}: {} ({arguments})",
                    d.step_number,
                    d.operator.name()
                )
            })
            .collect(),
        digest: run.output.as_ref().ok().map(QueryOutput::digest),
        perception: run.trace.perception_calls(),
        plan_cache: run.trace.plan_cache_calls(),
        plan_source: run.trace.plan_source(),
        latency: run.trace.timings().total(),
        queue_wait: run.trace.timings().queue_wait(),
        error: run.output.as_ref().err().map(|e| e.to_string()),
    }
}

/// Run the 48-query benchmark for one model profile.
pub fn evaluate_model(profile: ModelProfile, config: &EvaluationConfig) -> EvaluationReport {
    let artwork = generate_artwork(&config.artwork);
    let rotowire = generate_rotowire(&config.rotowire);
    let llm = Arc::new(SimulatedLlm::new(profile, config.seed));

    let artwork_session =
        Caesura::with_config(artwork.lake.clone(), llm.clone(), config.caesura.clone());
    let rotowire_session =
        Caesura::with_config(rotowire.lake.clone(), llm.clone(), config.caesura.clone());
    let artwork_known = known_identifiers(artwork.lake.catalog());
    let rotowire_known = known_identifiers(rotowire.lake.catalog());

    let mut results = Vec::new();
    for query in benchmark_queries() {
        let (session, known) = match query.dataset {
            Dataset::Artwork => (&artwork_session, &artwork_known),
            Dataset::Rotowire => (&rotowire_session, &rotowire_known),
            Dataset::Fieldwork => unreachable!("fieldwork queries run via evaluate_fieldwork"),
        };
        let reference = reference_for(&query, &artwork, &rotowire);
        let run = session.run(query.text);
        results.push(grade_run(&query, &run, &reference, known));
    }

    EvaluationReport {
        model: profile.name().to_string(),
        results,
    }
}

/// The planner profile the fieldwork suite runs under (see
/// [`evaluate_fieldwork`]).
const FIELDWORK_PROFILE: ModelProfile = ModelProfile::Gpt4;

/// Run the 42-query fieldwork suite once, under gpt-4-sim. The simulated
/// planner scripts its fieldwork mistakes by query markers and never draws
/// them from a profile's error rates, so every profile answers this suite
/// identically. Clean-tier queries run against the clean lake;
/// queries flagged `corrupted` run against the adversarial lake variant
/// (same ground-truth records, plus missing images and dirty report cells)
/// through a second session.
pub fn evaluate_fieldwork(config: &EvaluationConfig) -> EvaluationReport {
    let clean = generate_fieldwork(&config.fieldwork);
    let corrupted = generate_fieldwork(&config.corrupted_fieldwork());
    let llm = Arc::new(SimulatedLlm::new(FIELDWORK_PROFILE, config.seed));

    let clean_session =
        Caesura::with_config(clean.lake.clone(), llm.clone(), config.caesura.clone());
    let corrupted_session =
        Caesura::with_config(corrupted.lake.clone(), llm.clone(), config.caesura.clone());
    // Both lakes share one schema, so one identifier set grades both.
    let known = known_identifiers(clean.lake.catalog());

    let mut results = Vec::new();
    for query in fieldwork_queries() {
        let session = if query.corrupted {
            &corrupted_session
        } else {
            &clean_session
        };
        let reference = fieldwork_reference_for(&query, &clean);
        let run = session.run(query.text);
        results.push(grade_run(&query, &run, &reference, &known));
    }

    EvaluationReport {
        model: FIELDWORK_PROFILE.name().to_string(),
        results,
    }
}

/// Run the 42-query fieldwork suite through **concurrent submission**: every
/// query is submitted up front via [`Caesura::submit`] to its (clean or
/// corrupted) session, whose serving scheduler runs `concurrency` workers,
/// then graded in suite order as the handles complete.
///
/// Grades, outputs, and plan-level accounting are identical to the serial
/// [`evaluate_fieldwork`] — the simulated models answer as deterministic
/// functions of each prompt, so interleaving cannot change results. The one
/// exception is the *distribution* of perception-cache hit counters across
/// queries: which of two racing queries warms the shared cache first is
/// scheduling-dependent (the answers themselves are not).
pub fn evaluate_fieldwork_concurrent(
    config: &EvaluationConfig,
    concurrency: usize,
) -> EvaluationReport {
    let concurrency = concurrency.max(1);
    let clean = generate_fieldwork(&config.fieldwork);
    let corrupted = generate_fieldwork(&config.corrupted_fieldwork());
    let llm = Arc::new(SimulatedLlm::new(FIELDWORK_PROFILE, config.seed));

    let queries = fieldwork_queries();
    let mut caesura_config = config.caesura.clone();
    caesura_config.session_workers = Some(concurrency);
    // Deep enough to hold the whole suite: this evaluation measures worker
    // concurrency, not submission backpressure.
    caesura_config.session_queue = Some(queries.len().max(concurrency));

    let clean_session =
        Caesura::with_config(clean.lake.clone(), llm.clone(), caesura_config.clone());
    let corrupted_session =
        Caesura::with_config(corrupted.lake.clone(), llm.clone(), caesura_config);
    let known = known_identifiers(clean.lake.catalog());

    let handles: Vec<_> = queries
        .iter()
        .map(|query| {
            let session = if query.corrupted {
                &corrupted_session
            } else {
                &clean_session
            };
            session.submit(query.text)
        })
        .collect();
    let runs: Vec<QueryRun> = handles.into_iter().map(|handle| handle.wait()).collect();

    let results = queries
        .iter()
        .zip(&runs)
        .map(|(query, run)| {
            let reference = fieldwork_reference_for(query, &clean);
            grade_run(query, run, &reference, &known)
        })
        .collect();

    EvaluationReport {
        model: FIELDWORK_PROFILE.name().to_string(),
        results,
    }
}

/// Render Table 1 (plan quality) for a set of reports, in the layout of the
/// paper: one row per query group, logical/physical accuracy per model.
pub fn render_table1(reports: &[EvaluationReport]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1: Correctly translated plans per dataset, modality, and output format\n\n",
    );
    // Header.
    out.push_str(&format!("{:<24}", "Models"));
    for report in reports {
        out.push_str(&format!("| {:^23} ", report.model));
    }
    out.push('\n');
    out.push_str(&format!("{:<24}", "Plan type"));
    for _ in reports {
        out.push_str(&format!("| {:>10} {:>12} ", "logical", "physical"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(24 + reports.len() * 26));
    out.push('\n');

    type RowFilter = Box<dyn Fn(&QueryEvaluation) -> bool>;
    let rows: Vec<(&str, RowFilter)> = vec![
        (
            "Artwork overall",
            Box::new(|r: &QueryEvaluation| r.dataset == Dataset::Artwork),
        ),
        (
            "Rotowire overall",
            Box::new(|r: &QueryEvaluation| r.dataset == Dataset::Rotowire),
        ),
        (
            "Single modality",
            Box::new(|r: &QueryEvaluation| !r.multimodal),
        ),
        (
            "Multiple modalities",
            Box::new(|r: &QueryEvaluation| r.multimodal),
        ),
        (
            "Single value",
            Box::new(|r: &QueryEvaluation| r.output == ExpectedOutput::SingleValue),
        ),
        (
            "Table",
            Box::new(|r: &QueryEvaluation| r.output == ExpectedOutput::Table),
        ),
        (
            "Plot",
            Box::new(|r: &QueryEvaluation| r.output == ExpectedOutput::Plot),
        ),
        ("All", Box::new(|_: &QueryEvaluation| true)),
    ];
    for (label, filter) in rows {
        out.push_str(&format!("{label:<24}"));
        for report in reports {
            let (logical, physical) = report.accuracy(&filter);
            out.push_str(&format!(
                "| {:>9.1}% {:>11.1}% ",
                logical * 100.0,
                physical * 100.0
            ));
        }
        out.push('\n');
    }
    out
}

/// Render Table 2 (error analysis) for a set of reports.
pub fn render_table2(reports: &[EvaluationReport]) -> String {
    let mut out = String::new();
    out.push_str("Table 2: Number of mistakes per category\n\n");
    out.push_str(&format!("{:<28}{:<10}", "Category", "Phase"));
    for report in reports {
        out.push_str(&format!("{:>18}", report.model));
    }
    out.push('\n');
    out.push_str(&"-".repeat(38 + reports.len() * 18));
    out.push('\n');
    for category in ErrorCategory::all() {
        out.push_str(&format!(
            "{:<28}{:<10}",
            category.name(),
            if category.is_logical() {
                "logical"
            } else {
                "physical"
            }
        ));
        for report in reports {
            let count = report
                .error_counts()
                .get(category.name())
                .copied()
                .unwrap_or(0);
            out.push_str(&format!("{count:>18}"));
        }
        out.push('\n');
    }
    out
}

/// Render Table 3 (the fieldwork multi-step suite): per-tier accuracy plus
/// per-category adversarial outcomes, extending the Table 2 machinery with
/// expectation-aware grading.
pub fn render_table3(reports: &[EvaluationReport]) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Fieldwork multi-step suite — per-tier and per-category results\n\n");
    out.push_str(&format!("{:<34}", "Tier / expected category"));
    for report in reports {
        out.push_str(&format!("{:>24}", report.model));
    }
    out.push('\n');
    out.push_str(&"-".repeat(34 + reports.len() * 24));
    out.push('\n');
    for tier in [Tier::Clean, Tier::Adversarial] {
        out.push_str(&format!(
            "{:<34}",
            format!("{} tier (expectation met)", tier.name())
        ));
        for report in reports {
            let met = report.expectation_accuracy(|r| r.tier == tier);
            out.push_str(&format!("{:>23.1}%", met * 100.0));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<34}",
            format!("{} tier (logical/physical)", tier.name())
        ));
        for report in reports {
            let (logical, physical) = report.tier_accuracy(tier);
            out.push_str(&format!(
                "{:>22}",
                format!("{:.1}%/{:.1}%", logical * 100.0, physical * 100.0)
            ));
            out.push_str("  ");
        }
        out.push('\n');
    }
    for category in ErrorCategory::all() {
        out.push_str(&format!(
            "{:<34}",
            format!("  expected {}", category.name())
        ));
        for report in reports {
            let (expected, met) = report
                .expected_category_outcomes()
                .get(category.name())
                .copied()
                .unwrap_or((0, 0));
            out.push_str(&format!("{:>24}", format!("{met}/{expected} met")));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<34}", "All (expectation met)"));
    for report in reports {
        let met = report.expectation_accuracy(|_| true);
        out.push_str(&format!("{:>23.1}%", met * 100.0));
    }
    out.push('\n');
    out
}

/// Render a per-query breakdown (what the `table2` binary prints per model).
pub fn render_per_query(report: &EvaluationReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("Per-query results for {}\n", report.model));
    for result in &report.results {
        out.push_str(&format!(
            "  {:<4} {:<9} {:<12} logical={} physical={} {}\n",
            result.id,
            result.dataset.name(),
            result.output.name(),
            if result.grade.logical { "ok " } else { "ERR" },
            if result.grade.physical { "ok " } else { "ERR" },
            result
                .category
                .map(|c| format!("[{}]", c.name()))
                .unwrap_or_default(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt4_profile_translates_most_queries_correctly() {
        let config = EvaluationConfig::small();
        let report = evaluate_model(ModelProfile::Gpt4, &config);
        assert_eq!(report.results.len(), 48);
        let (logical, physical) = report.accuracy(|_| true);
        assert!(logical >= 0.80, "GPT-4 logical accuracy too low: {logical}");
        assert!(
            physical >= 0.70,
            "GPT-4 physical accuracy too low: {physical}"
        );
        // Physical correctness requires logical correctness in our grading.
        assert!(logical >= physical);
    }

    #[test]
    fn chatgpt35_profile_is_clearly_worse_than_gpt4() {
        let config = EvaluationConfig::small();
        let gpt4 = evaluate_model(ModelProfile::Gpt4, &config);
        let gpt35 = evaluate_model(ModelProfile::ChatGpt35, &config);
        let (gpt4_logical, gpt4_physical) = gpt4.accuracy(|_| true);
        let (gpt35_logical, gpt35_physical) = gpt35.accuracy(|_| true);
        assert!(gpt4_logical > gpt35_logical);
        assert!(gpt4_physical > gpt35_physical);
        // The dominant 3.5 error category is data misunderstanding (§4.3).
        let counts = gpt35.error_counts();
        let dm = counts.get("Data Misunderstanding").copied().unwrap_or(0);
        assert!(
            dm >= 2,
            "expected several data-misunderstanding errors, got {dm}"
        );
    }

    #[test]
    fn every_run_records_a_latency() {
        let config = EvaluationConfig::small();
        let report = evaluate_model(ModelProfile::Gpt4, &config);
        assert!(report.results.iter().all(|r| r.latency > Duration::ZERO));
    }

    #[test]
    fn benchmark_queries_are_distinct_templates_so_cache_never_hits() {
        // The 48 benchmark queries are distinct texts, so each is its own
        // plan-cache key: a cold evaluation run records only
        // misses/insertions, never hits — which is why enabling the cache
        // cannot change benchmark grades.
        let config = EvaluationConfig::small();
        let report = evaluate_model(ModelProfile::Gpt4, &config);
        assert!(report.results.iter().all(|r| r.plan_cache.hits == 0));
        // The cache defaults on, so every run probes it and misses.
        assert!(report
            .results
            .iter()
            .all(|r| r.plan_source.is_some() && r.plan_cache.misses == 1));
    }

    #[test]
    fn fieldwork_suite_meets_every_expectation() {
        let config = EvaluationConfig::small();
        let report = evaluate_fieldwork(&config);
        assert_eq!(report.model, "gpt-4-sim");
        assert_eq!(report.results.len(), 42);
        for result in &report.results {
            assert!(
                result.expectation_met,
                "{} ({:?}) missed its expectation: grade={:?} category={:?} error={:?}",
                result.id, result.expectation, result.grade, result.category, result.error
            );
        }
        // The clean tier is fully correct; the adversarial tier fails in
        // exactly the scripted ways.
        let (clean_logical, clean_physical) = report.tier_accuracy(Tier::Clean);
        assert_eq!(clean_logical, 1.0);
        assert_eq!(clean_physical, 1.0);
        assert_eq!(report.expectation_accuracy(|_| true), 1.0);
    }

    #[test]
    fn fieldwork_error_counts_sum_to_the_non_correct_runs() {
        let config = EvaluationConfig::small();
        let report = evaluate_fieldwork(&config);
        let non_correct = report
            .results
            .iter()
            .filter(|r| !(r.grade.logical && r.grade.physical))
            .count();
        let counted: usize = report.error_counts().values().sum();
        assert_eq!(counted, non_correct);
        // Every entry of the five-way taxonomy is reachable from at least one
        // adversarial query — observed, not just expected.
        let counts = report.error_counts();
        for category in ErrorCategory::all() {
            let observed = counts.get(category.name()).copied().unwrap_or(0);
            assert!(observed >= 1, "{} never observed", category.name());
            let (expected, met) = report
                .expected_category_outcomes()
                .get(category.name())
                .copied()
                .unwrap();
            assert!(
                expected >= 2,
                "{} expected by too few queries",
                category.name()
            );
            assert_eq!(met, expected, "{} not always met", category.name());
        }
    }

    #[test]
    fn fieldwork_concurrent_evaluation_grades_identically_to_serial() {
        let config = EvaluationConfig::small();
        let serial = evaluate_fieldwork(&config);
        let serving = evaluate_fieldwork_concurrent(&config, 4);
        assert_eq!(serving.results.len(), serial.results.len());
        // 42 queries submitted up front onto 4 workers: most sit in the
        // queue before pickup, so some queue wait must have been recorded.
        assert!(serving
            .results
            .iter()
            .any(|r| r.queue_wait > Duration::ZERO));
        for (concurrent, reference) in serving.results.iter().zip(&serial.results) {
            assert_eq!(concurrent.id, reference.id);
            assert_eq!(concurrent.grade, reference.grade, "{}", reference.id);
            assert_eq!(concurrent.category, reference.category, "{}", reference.id);
            assert_eq!(
                concurrent.expectation_met, reference.expectation_met,
                "{}",
                reference.id
            );
            assert_eq!(concurrent.error, reference.error, "{}", reference.id);
            assert_eq!(
                concurrent.llm_calls, reference.llm_calls,
                "{}",
                reference.id
            );
            // Perception-cache hit *distribution* across queries is
            // scheduling-dependent (which racing query warms the shared
            // cache first); everything above is not.
        }
    }

    #[test]
    fn table3_renders_tiers_and_expected_categories() {
        let config = EvaluationConfig::small();
        let reports = vec![evaluate_fieldwork(&config)];
        let table3 = render_table3(&reports);
        assert!(table3.contains("clean tier"));
        assert!(table3.contains("adversarial tier"));
        assert!(table3.contains("expected Wrong Tool"));
        assert!(table3.contains("expected Impossible Actions"));
        assert!(table3.contains("All (expectation met)"));
        assert!(table3.contains("100.0%"));
    }

    #[test]
    fn tables_render_with_all_rows_and_models() {
        let config = EvaluationConfig::small();
        let reports = vec![evaluate_model(ModelProfile::Gpt4, &config)];
        let table1 = render_table1(&reports);
        assert!(table1.contains("Artwork overall"));
        assert!(table1.contains("Multiple modalities"));
        assert!(table1.contains("All"));
        let table2 = render_table2(&reports);
        assert!(table2.contains("Data Misunderstanding"));
        assert!(table2.contains("Wrong Tool"));
        let per_query = render_per_query(&reports[0]);
        assert!(per_query.contains("A01"));
        assert!(per_query.contains("R24"));
    }
}
