//! Integration tests of the evaluation harness: the benchmark reproduces the
//! qualitative findings of the paper's Table 1 and Table 2.

use caesura::eval::{
    evaluate_fieldwork, evaluate_model, render_table1, render_table2, render_table3, Dataset,
    EvaluationConfig, Tier,
};
use caesura::llm::ModelProfile;

fn config() -> EvaluationConfig {
    // Small data scale keeps the full 96-run sweep fast in CI.
    EvaluationConfig::small()
}

#[test]
fn table1_shape_gpt4_beats_chatgpt35_and_artwork_beats_rotowire() {
    let config = config();
    let gpt4 = evaluate_model(ModelProfile::Gpt4, &config);
    let gpt35 = evaluate_model(ModelProfile::ChatGpt35, &config);

    let (gpt4_logical, gpt4_physical) = gpt4.accuracy(|_| true);
    let (gpt35_logical, gpt35_physical) = gpt35.accuracy(|_| true);

    // Finding 1: GPT-4 is clearly better than ChatGPT-3.5 (Table 1, "All" row).
    assert!(gpt4_logical > gpt35_logical + 0.1);
    assert!(gpt4_physical > gpt35_physical + 0.1);

    // Finding 2: GPT-4 handles most queries (paper: 93.8% logical / 87.5% physical).
    assert!(gpt4_logical >= 0.85, "gpt4 logical = {gpt4_logical}");
    assert!(gpt4_physical >= 0.75, "gpt4 physical = {gpt4_physical}");

    // Finding 3: for the weaker model, multi-modal queries are much harder than
    // single-modality queries (Table 1, modality rows).
    let (single_logical, _) = gpt35.accuracy(|r| !r.multimodal);
    let (multi_logical, _) = gpt35.accuracy(|r| r.multimodal);
    assert!(single_logical > multi_logical);

    // Finding 4: artwork is not harder than rotowire for GPT-4 (paper: 100% vs 87.5%).
    let (artwork_logical, _) = gpt4.accuracy(|r| r.dataset == Dataset::Artwork);
    let (rotowire_logical, _) = gpt4.accuracy(|r| r.dataset == Dataset::Rotowire);
    assert!(artwork_logical + 0.15 >= rotowire_logical);
}

#[test]
fn table2_shape_data_misunderstanding_dominates_for_the_weaker_model() {
    let config = config();
    let gpt4 = evaluate_model(ModelProfile::Gpt4, &config);
    let gpt35 = evaluate_model(ModelProfile::ChatGpt35, &config);
    let gpt4_counts = gpt4.error_counts();
    let gpt35_counts = gpt35.error_counts();

    // The weaker model misunderstands the data far more often (paper: 9 vs 1).
    let dm35 = gpt35_counts
        .get("Data Misunderstanding")
        .copied()
        .unwrap_or(0);
    let dm4 = gpt4_counts
        .get("Data Misunderstanding")
        .copied()
        .unwrap_or(0);
    assert!(dm35 > dm4, "expected 3.5 ({dm35}) > 4 ({dm4})");

    // GPT-4's mistakes are few and mostly in the mapping phase (wrong arguments).
    let gpt4_total: usize = gpt4_counts.values().sum();
    assert!(gpt4_total <= 10, "gpt4 made {gpt4_total} mistakes");
}

#[test]
fn reports_render_and_cover_all_queries() {
    let config = config();
    let report = evaluate_model(ModelProfile::Gpt4, &config);
    assert_eq!(report.results.len(), 48);
    assert!(report.total_llm_calls() > 48);
    let reports = vec![report];
    let table1 = render_table1(&reports);
    for row in [
        "Artwork overall",
        "Rotowire overall",
        "Single modality",
        "Multiple modalities",
        "Single value",
        "Table",
        "Plot",
        "All",
    ] {
        assert!(table1.contains(row), "Table 1 misses row {row}");
    }
    let table2 = render_table2(&reports);
    for category in [
        "Impossible Actions",
        "Data Misunderstanding",
        "Illogical / Missing Steps",
        "Wrong Arguments",
        "Wrong Tool",
    ] {
        assert!(
            table2.contains(category),
            "Table 2 misses category {category}"
        );
    }
}

#[test]
fn table3_shape_fieldwork_suite_meets_every_expectation_at_both_scales() {
    // The default scale (the shipped configuration) — not just `small()` —
    // must satisfy every clean oracle and every adversarial expectation.
    for config in [EvaluationConfig::default(), EvaluationConfig::small()] {
        let report = evaluate_fieldwork(&config);
        assert_eq!(report.results.len(), 42);
        assert!(report.results.iter().all(|r| r.expectation_met));

        // The clean tier is fully correct; the adversarial tier trades
        // physical correctness for the *expected* failure in every run.
        let (clean_logical, clean_physical) = report.tier_accuracy(Tier::Clean);
        assert_eq!((clean_logical, clean_physical), (1.0, 1.0));
        let adversarial = report
            .results
            .iter()
            .filter(|r| r.tier == Tier::Adversarial)
            .count();
        assert!(adversarial >= 12);

        let table3 = render_table3(&[report]);
        for row in [
            "clean",
            "adversarial",
            "expected Impossible Actions",
            "expected Data Misunderstanding",
            "expected Illogical / Missing Steps",
            "expected Wrong Arguments",
            "expected Wrong Tool",
            "All (expectation met)",
        ] {
            assert!(table3.contains(row), "Table 3 misses row {row}");
        }
    }
}
