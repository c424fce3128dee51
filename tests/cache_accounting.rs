//! Call accounting of the session-scoped perception answer cache:
//! `CountingLlm`-backed proof that a repeated `(input, question)` pair costs
//! **exactly one** model call across plan steps and across queries, that
//! eviction re-incurs the call, and that the session/trace/eval counters
//! report the hits faithfully.

use caesura::core::{CaesuraConfig, Executor};
use caesura::llm::{Conversation, CountingLlm, LlmClient, LlmResult, PerceptionLlm, SimulatedLlm};
use caesura::modal::operators::{apply_text_qa, Perception};
use caesura::modal::{BatchConfig, CacheConfig, PerceptionCache};
use caesura::prelude::*;
use std::sync::Arc;

/// A deterministic LLM answering every perception prompt with a constant.
struct ConstLlm;

impl LlmClient for ConstLlm {
    fn complete(&self, _conversation: &Conversation) -> LlmResult<String> {
        Ok("42".to_string())
    }
    fn name(&self) -> &str {
        "const"
    }
}

fn reports_table(rows: usize) -> Table {
    let teams = ["Heat", "Spurs", "Bulls", "Lakers"];
    let reports = [
        "The Heat defeated the Spurs 110-102.",
        "The Bulls defeated the Lakers 99-95.",
        "The Spurs defeated the Bulls 120-101.",
    ];
    let schema = Schema::from_pairs(&[("name", DataType::Str), ("report", DataType::Text)]);
    let mut builder = TableBuilder::new("joined_reports", schema);
    for i in 0..rows {
        builder
            .push_row(vec![
                Value::str(teams[i % teams.len()]),
                Value::text(reports[i % reports.len()]),
            ])
            .unwrap();
    }
    builder.build()
}

#[test]
fn a_question_repeated_across_plan_steps_costs_exactly_one_call() {
    let table = reports_table(48);
    let cache = PerceptionCache::with_capacity(1024);
    let backend = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    let template = "How many points did <name> score?";

    // Step 1: 48 rows over 4 teams × 3 reports = 12 unique pairs.
    let (stats1, out1) = apply_text_qa(
        &table,
        Perception {
            backend: &backend,
            batch: BatchConfig::new(8),
            cache: Some(&cache),
        },
        "report",
        "points_a",
        template,
        DataType::Int,
    );
    let out1 = out1.unwrap();
    let unique = stats1.unique_requests;
    assert_eq!(backend.inner().usage().calls, unique);
    assert_eq!(stats1.cache_hits, 0);
    assert_eq!(stats1.cache_misses, unique);

    // Step 2 of the same plan re-asks the identical template over the
    // (unchanged) report column of step 1's output: zero new model calls.
    let (stats2, out2) = apply_text_qa(
        &out1,
        Perception {
            backend: &backend,
            batch: BatchConfig::new(8),
            cache: Some(&cache),
        },
        "report",
        "points_b",
        template,
        DataType::Int,
    );
    let out2 = out2.unwrap();
    assert_eq!(
        backend.inner().usage().calls,
        unique,
        "each unique pair must cost exactly one call across both steps"
    );
    assert_eq!(stats2.cache_hits, unique);
    assert_eq!(stats2.dispatched_requests(), 0);
    assert_eq!(stats2.batches, 0);
    // The cached answers are the answers the model gave.
    for row in 0..out2.num_rows() {
        assert_eq!(
            out2.value(row, "points_a").unwrap(),
            out2.value(row, "points_b").unwrap()
        );
    }

    // Without a cache the repeated step pays for every unique pair again.
    let uncached = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    for (input, new_column) in [(&table, "points_a"), (&out1, "points_b")] {
        let perception = Perception {
            backend: &uncached,
            batch: BatchConfig::new(8),
            cache: None,
        };
        let (_, out) = apply_text_qa(
            input,
            perception,
            "report",
            new_column,
            template,
            DataType::Int,
        );
        out.unwrap();
    }
    assert_eq!(uncached.inner().usage().calls, 2 * unique);
}

#[test]
fn a_question_repeated_across_queries_costs_exactly_one_call() {
    let table = reports_table(24);
    let cache = PerceptionCache::with_capacity(1024);
    let template = "Who won the game?";

    // "Query 1" and "query 2" each get a fresh backend (a new executor with
    // fresh per-query state) but share the session-scoped cache.
    let first = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    let (stats, out) = apply_text_qa(
        &table,
        Perception {
            backend: &first,
            batch: BatchConfig::new(8),
            cache: Some(&cache),
        },
        "report",
        "winner",
        template,
        DataType::Str,
    );
    out.unwrap();
    assert_eq!(first.inner().usage().calls, stats.unique_requests);

    let second = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    let (stats2, out) = apply_text_qa(
        &table,
        Perception {
            backend: &second,
            batch: BatchConfig::new(8),
            cache: Some(&cache),
        },
        "report",
        "winner",
        template,
        DataType::Str,
    );
    out.unwrap();
    assert_eq!(
        second.inner().usage().calls,
        0,
        "the second query must be served entirely from the cache"
    );
    assert_eq!(stats2.cache_hits, stats.unique_requests);
}

#[test]
fn eviction_re_incurs_the_model_call() {
    // Capacity 1: asking A, then B (evicts A), then A again must pay for A
    // twice. With a capacity that fits both, the third ask is free.
    let doc_table = {
        let schema = Schema::from_pairs(&[("report", DataType::Text)]);
        let mut builder = TableBuilder::new("t", schema);
        builder
            .push_row(vec![Value::text("The Heat defeated the Spurs 110-102.")])
            .unwrap();
        builder.build()
    };
    let ask = |backend: &PerceptionLlm<CountingLlm<ConstLlm>>,
               cache: &PerceptionCache,
               question: &str| {
        let (_, out) = apply_text_qa(
            &doc_table,
            Perception {
                backend,
                batch: BatchConfig::new(8),
                cache: Some(cache),
            },
            "report",
            "answer",
            question,
            DataType::Str,
        );
        out.unwrap();
    };

    let tiny = PerceptionCache::with_capacity(1);
    let backend = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    ask(&backend, &tiny, "Who won the game?");
    ask(&backend, &tiny, "Who lost the game?");
    ask(&backend, &tiny, "Who won the game?");
    assert_eq!(
        backend.inner().usage().calls,
        3,
        "eviction must re-incur the evicted question's call"
    );
    assert_eq!(tiny.stats().evictions, 2);

    let roomy = PerceptionCache::with_capacity(16);
    let backend = PerceptionLlm::new(CountingLlm::new(ConstLlm));
    ask(&backend, &roomy, "Who won the game?");
    ask(&backend, &roomy, "Who lost the game?");
    ask(&backend, &roomy, "Who won the game?");
    assert_eq!(backend.inner().usage().calls, 2);
    assert_eq!(roomy.stats().evictions, 0);
}

#[test]
fn executor_shares_the_cache_across_queries() {
    // Two executors (two "queries") over one Arc-shared cache: the second
    // executor's perception stats show only hits, no dispatches.
    let data = caesura::data::generate_rotowire(&caesura::data::RotowireConfig::small());
    let cache = Arc::new(PerceptionCache::with_capacity(4096));
    let step = caesura::llm::LogicalStep::new(
        1,
        "Extract points",
        vec!["game_reports".to_string()],
        "with_points",
        vec!["points".to_string()],
    );
    let decision = caesura::llm::OperatorDecision {
        step_number: 1,
        reasoning: String::new(),
        operator: OperatorKind::TextQa,
        arguments: vec![
            "report".to_string(),
            "points".to_string(),
            "How many points did the Heat score?".to_string(),
            "int".to_string(),
        ],
    };

    let mut first = Executor::new(data.lake.catalog().clone(), data.lake.images().clone())
        .with_perception_cache(Arc::clone(&cache));
    first.execute(&step, &decision).unwrap();
    let stats1 = first.perception_stats();
    assert!(stats1.unique_requests > 0);
    assert_eq!(stats1.cache_hits, 0);

    let mut second = Executor::new(data.lake.catalog().clone(), data.lake.images().clone())
        .with_perception_cache(Arc::clone(&cache));
    second.execute(&step, &decision).unwrap();
    let stats2 = second.perception_stats();
    assert_eq!(stats2.cache_hits, stats2.unique_requests);
    assert_eq!(stats2.dispatched_requests(), 0);
}

#[test]
fn session_serves_a_repeated_query_from_the_cache() {
    let data = caesura::data::generate_rotowire(&caesura::data::RotowireConfig::small());
    let query = "For every team, what is the highest number of points they scored in a game?";

    // Cache on: the second identical query dispatches zero perception calls.
    let config = CaesuraConfig {
        perception_cache: Some(CacheConfig::new(CacheConfig::DEFAULT_CAPACITY)),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);
    let first = session.run(query);
    assert!(first.succeeded(), "run 1 failed: {:?}", first.output.err());
    let second = session.run(query);
    assert!(second.succeeded());
    let (p1, p2) = (
        first.trace.perception_calls(),
        second.trace.perception_calls(),
    );
    assert!(p1.calls > 0, "the query must exercise perception operators");
    assert_eq!(p2.calls, 0, "run 2 must be served from the session cache");
    assert_eq!(p2.cache_hits, p1.calls + p1.cache_hits);
    assert_eq!(
        first.output.unwrap().table().unwrap().num_rows(),
        second.output.unwrap().table().unwrap().num_rows(),
        "cached and uncached runs must agree"
    );
    let cache_stats = session.perception_cache().unwrap().stats();
    assert!(cache_stats.hits >= p2.cache_hits);

    // Cache off: both runs pay the full perception cost, and the session
    // owns no cache at all (byte-for-byte the pre-cache behaviour).
    let config = CaesuraConfig {
        perception_cache: Some(CacheConfig::off()),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);
    assert!(session.perception_cache().is_none());
    let first = session.run(query);
    let second = session.run(query);
    let (p1, p2) = (
        first.trace.perception_calls(),
        second.trace.perception_calls(),
    );
    assert_eq!(p1.calls, p2.calls, "without a cache both runs pay in full");
    assert!(p1.calls > 0);
    assert_eq!(p2.cache_hits, 0);
}
