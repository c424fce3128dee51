//! Property-based tests of the plan grammar and the simulated-planner
//! plumbing: whatever the planner synthesizes must survive the render → parse
//! round trip through text, exactly as it would with a remote LLM.
//!
//! Runs over deterministic pseudo-random inputs from the in-repo `rand` shim
//! (the build environment has no network access for proptest).

use caesura::core::{
    Caesura, CaesuraConfig, Phase, PlanCacheCalls, PlanSource, QueryRun, Retriever,
};
use caesura::data::{
    generate_artwork, generate_fieldwork, generate_rotowire, ArtworkConfig, DataLake,
    FieldworkConfig, RotowireConfig,
};
use caesura::engine::Catalog;
use caesura::eval::{benchmark_queries, fieldwork_queries, Dataset};
use caesura::llm::{normalize_query, schema_fingerprint, PlanInsertOutcome};
use caesura::llm::{plan::split_arguments, LogicalPlan, LogicalStep, OperatorDecision};
use caesura::llm::{CountingLlm, ErrorAnalysis, LlmClient, ModelProfile, ScriptedLlm};
use caesura::llm::{PlanCacheConfig, SimulatedLlm};
use caesura::modal::OperatorKind;
use caesura::store::PersistConfig;
use rand::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

const CASES: usize = 300;

fn identifier(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut out = String::new();
    out.push(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..rng.gen_range(0..14usize) {
        out.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    out
}

fn description(rng: &mut StdRng) -> String {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ,'";
    let len = rng.gen_range(1..60usize);
    let text: String = (0..len)
        .map(|_| CHARSET[rng.gen_range(0..CHARSET.len())] as char)
        .collect();
    let text = text.trim().to_string();
    if text.is_empty() {
        "do something".to_string()
    } else {
        text
    }
}

fn identifiers(rng: &mut StdRng, max: usize) -> Vec<String> {
    (0..rng.gen_range(0..max))
        .map(|_| identifier(rng))
        .collect()
}

fn logical_step(rng: &mut StdRng, number: usize) -> LogicalStep {
    LogicalStep::new(
        number,
        description(rng),
        identifiers(rng, 3),
        identifier(rng),
        identifiers(rng, 3),
    )
}

fn operator_kind(rng: &mut StdRng) -> OperatorKind {
    let all = OperatorKind::all();
    all[rng.gen_range(0..all.len())]
}

/// Logical plans survive the text round trip: the parsed plan has the same
/// number of steps, the same inputs/outputs/new columns.
#[test]
fn logical_plans_round_trip_through_text() {
    let mut rng = StdRng::seed_from_u64(100);
    for _ in 0..CASES {
        let steps: Vec<LogicalStep> = (0..rng.gen_range(1..6usize))
            .map(|i| logical_step(&mut rng, i + 1))
            .collect();
        let plan = LogicalPlan {
            thought: description(&mut rng),
            steps,
        };
        let text = plan.render();
        let parsed = LogicalPlan::parse(&text).unwrap();
        assert_eq!(parsed.steps.len(), plan.steps.len());
        for (parsed_step, original) in parsed.steps.iter().zip(plan.steps.iter()) {
            assert_eq!(&parsed_step.inputs, &original.inputs);
            assert_eq!(&parsed_step.output, &original.output);
            assert_eq!(&parsed_step.new_columns, &original.new_columns);
            assert!(parsed_step
                .description
                .starts_with(original.description.trim()));
        }
    }
}

/// Operator decisions survive the text round trip for every operator kind.
#[test]
fn operator_decisions_round_trip_through_text() {
    let mut rng = StdRng::seed_from_u64(101);
    const ARG_CHARSET: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ =<>";
    for _ in 0..CASES {
        let operator = operator_kind(&mut rng);
        let step_number = rng.gen_range(1..9usize);
        // Arguments must not contain the separator or parentheses that the
        // grammar uses.
        let arguments: Vec<String> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let len = rng.gen_range(1..30usize);
                (0..len)
                    .map(|_| ARG_CHARSET[rng.gen_range(0..ARG_CHARSET.len())] as char)
                    .collect::<String>()
                    .trim()
                    .to_string()
            })
            .filter(|a| !a.is_empty())
            .collect();
        if arguments.is_empty() {
            continue;
        }
        let decision = OperatorDecision {
            step_number,
            reasoning: description(&mut rng),
            operator,
            arguments: arguments.clone(),
        };
        let text = decision.render("some step");
        let parsed = OperatorDecision::parse(&text).unwrap();
        assert_eq!(parsed.operator, operator);
        assert_eq!(parsed.step_number, step_number);
        assert_eq!(parsed.arguments, arguments);
    }
}

/// Argument splitting is the inverse of joining with "; " for separator-free
/// arguments.
#[test]
fn argument_splitting_inverts_joining() {
    let mut rng = StdRng::seed_from_u64(102);
    const ARG_CHARSET: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ =<>";
    for _ in 0..CASES {
        let arguments: Vec<String> = (0..rng.gen_range(1..6usize))
            .map(|_| {
                let len = rng.gen_range(1..20usize);
                (0..len)
                    .map(|_| ARG_CHARSET[rng.gen_range(0..ARG_CHARSET.len())] as char)
                    .collect::<String>()
                    .trim()
                    .to_string()
            })
            .filter(|a| !a.is_empty())
            .collect();
        if arguments.is_empty() {
            continue;
        }
        let joined = format!("({})", arguments.join("; "));
        assert_eq!(split_arguments(&joined), arguments);
    }
}

/// Operator names round trip through the prompt vocabulary.
#[test]
fn operator_names_round_trip() {
    for operator in OperatorKind::all() {
        assert_eq!(OperatorKind::from_name(operator.name()), Some(*operator));
    }
}

// ---------------------------------------------------------------------------
// Plan-parsing regressions
// ---------------------------------------------------------------------------

/// A `;` inside a quoted string is argument *content*, not a separator.
#[test]
fn split_arguments_keeps_semicolons_inside_quoted_strings() {
    assert_eq!(
        split_arguments("('Filter rows'; SELECT * FROM t WHERE note = 'a; b')"),
        vec![
            "Filter rows".to_string(),
            "SELECT * FROM t WHERE note = 'a; b'".to_string(),
        ]
    );
}

/// Surrounding quotes are stripped only when the leading quote's closing
/// partner is the final character — a coincidental first/last quote pair
/// (`'yes' OR status = 'no'`) must survive intact.
#[test]
fn strip_only_removes_quotes_that_wrap_the_whole_argument() {
    assert_eq!(
        split_arguments("(SELECT * FROM t WHERE status = 'yes' OR status = 'no')"),
        vec!["SELECT * FROM t WHERE status = 'yes' OR status = 'no'".to_string()]
    );
    assert_eq!(
        split_arguments("('yes' OR status = 'no')"),
        vec!["'yes' OR status = 'no'".to_string()]
    );
    // A genuinely wrapped argument still sheds its quotes.
    assert_eq!(
        split_arguments("('num_swords')"),
        vec!["num_swords".to_string()]
    );
}

// ---------------------------------------------------------------------------
// Plan-cache equivalence: cached replay must be indistinguishable from live
// planning at the output level, across cache configurations and scheduler
// widths.
// ---------------------------------------------------------------------------

/// Three artwork-lake queries with known-good simulated plans; each round
/// repeats all of them, so every round after the first is repeat traffic.
const REPEAT_WORKLOAD: [&str; 3] = [
    "How many paintings are in the museum?",
    "List the titles of all paintings that depict a horse.",
    "Plot the number of paintings depicting Madonna and Child for each century!",
];
const ROUNDS: usize = 3;

fn cache_session(plan_cache: Option<PlanCacheConfig>, workers: usize) -> Caesura {
    // `generate_artwork` is deterministic per config, so every session built
    // here serves the identical lake.
    let data = generate_artwork(&ArtworkConfig::small());
    let config = CaesuraConfig {
        plan_cache,
        session_workers: Some(workers),
        ..CaesuraConfig::default()
    };
    Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config)
}

fn run_workload_serially(session: &Caesura) -> Vec<QueryRun> {
    (0..ROUNDS)
        .flat_map(|_| REPEAT_WORKLOAD)
        .map(|query| session.run(query))
        .collect()
}

/// Trace events minus the plan-cache bookkeeping events ("plan-source" from
/// the probe, "plan-cache" from invalidation) — what must match between a
/// cache-off run and a cold cache-on run.
fn comparable_events(run: &QueryRun) -> Vec<(String, String)> {
    run.trace
        .events()
        .iter()
        .filter(|e| e.label != "plan-source" && e.label != "plan-cache")
        .map(|e| (e.label.clone(), e.detail.clone()))
        .collect()
}

fn output_repr(run: &QueryRun) -> String {
    format!("{:?}", run.output)
}

/// The central equivalence property: for every cache configuration —
/// disabled, capacity 2 (smaller than the 3-query working set, so entries
/// evict continuously), and the default capacity — the workload produces
/// identical outputs; and a cold cache-on run differs from the cache-off
/// baseline only by the plan-cache bookkeeping events.
#[test]
fn plan_cache_configurations_never_change_outputs() {
    let baseline = run_workload_serially(&cache_session(Some(PlanCacheConfig::off()), 1));

    // Cache off: the trace carries no plan-cache marks at all — the
    // `CAESURA_PLAN_CACHE=0` tree is indistinguishable from a build without
    // the cache. Full-trace equality (it includes the counters and the plan
    // source) across two identically configured sessions proves the off
    // path stays deterministic.
    let baseline_again = run_workload_serially(&cache_session(Some(PlanCacheConfig::off()), 1));
    for (run, again) in baseline.iter().zip(&baseline_again) {
        assert!(run.trace.plan_source().is_none());
        assert_eq!(run.trace.plan_cache_calls(), Default::default());
        assert_eq!(run.trace, again.trace);
        assert_eq!(output_repr(run), output_repr(again));
    }

    // Capacities are pinned explicitly (not `None` = read the environment),
    // so this property holds under every `CAESURA_PLAN_CACHE` CI matrix row.
    for capacity in [
        Some(PlanCacheConfig::new(2)),
        Some(PlanCacheConfig::new(PlanCacheConfig::DEFAULT_CAPACITY)),
    ] {
        let session = cache_session(capacity, 1);
        let runs = run_workload_serially(&session);
        for (index, (run, reference)) in runs.iter().zip(&baseline).enumerate() {
            assert_eq!(
                output_repr(run),
                output_repr(reference),
                "output diverged for run {index} under {capacity:?}"
            );
            assert!(run.trace.plan_source().is_some());
            match run.trace.plan_source() {
                // A live-planned run must look exactly like the baseline
                // modulo the bookkeeping events.
                Some(PlanSource::Planned) => {
                    assert_eq!(comparable_events(run), comparable_events(reference));
                    assert_eq!(run.trace.llm_calls(), reference.trace.llm_calls());
                }
                // A replayed run re-executes the same decisions without the
                // planning/mapping prompts: no LLM calls at all (discovery
                // is lexical), and the identical observations.
                Some(PlanSource::Cached) => {
                    assert_eq!(run.trace.llm_calls(), 0);
                }
                None => unreachable!(),
            }
            assert_eq!(
                run.trace.perception_calls(),
                reference.trace.perception_calls(),
                "perception accounting diverged for run {index} under {capacity:?}"
            );
        }
        // Capacity 2 cannot hold the 3-query round-robin working set: with
        // nearest-in-round LRU eviction every probe misses, so the cache
        // degrades to the live path instead of serving stale plans.
        if capacity == Some(PlanCacheConfig::new(2)) {
            assert!(runs
                .iter()
                .all(|r| r.trace.plan_source() == Some(PlanSource::Planned)));
            let stats = session.plan_cache().expect("cache is on").stats();
            assert!(stats.evictions > 0, "capacity 2 must evict");
            assert_eq!(stats.hits, 0);
        } else {
            // Default capacity: every run after round one replays.
            assert!(runs[REPEAT_WORKLOAD.len()..]
                .iter()
                .all(|r| r.trace.plan_source() == Some(PlanSource::Cached)));
        }
    }
}

/// Warm repeats make **zero** LLM calls with the cache on: the planner and
/// mapper are skipped entirely, observed at the client level by
/// [`CountingLlm`].
#[test]
fn warm_repeats_skip_planner_and_mapping_llm_calls() {
    let data = generate_artwork(&ArtworkConfig::small());
    let counting = Arc::new(CountingLlm::new(SimulatedLlm::gpt4()));
    let session = Caesura::with_config(
        data.lake,
        counting.clone(),
        CaesuraConfig {
            plan_cache: Some(PlanCacheConfig::new(1024)),
            session_workers: Some(1),
            ..CaesuraConfig::default()
        },
    );

    let cold: Vec<QueryRun> = REPEAT_WORKLOAD.iter().map(|q| session.run(q)).collect();
    assert!(cold.iter().all(|r| r.succeeded()));
    let cold_usage = counting.usage();
    assert!(cold_usage.calls > 0);

    let warm: Vec<QueryRun> = REPEAT_WORKLOAD.iter().map(|q| session.run(q)).collect();
    let warm_usage = counting.usage();
    assert_eq!(
        warm_usage.calls, cold_usage.calls,
        "warm repeats must not reach the LLM client"
    );
    for (run, cold_run) in warm.iter().zip(&cold) {
        assert!(run.succeeded());
        assert_eq!(run.trace.plan_source(), Some(PlanSource::Cached));
        assert_eq!(run.trace.plan_cache_calls().hits, 1);
        assert_eq!(run.trace.llm_calls(), 0);
        assert_eq!(output_repr(run), output_repr(cold_run));
        assert_eq!(run.logical_plan, cold_run.logical_plan);
        assert_eq!(run.decisions, cold_run.decisions);
    }

    // Without the cache the warm round pays the cold round's calls again.
    let counting = Arc::new(CountingLlm::new(SimulatedLlm::gpt4()));
    let session = Caesura::with_config(
        generate_artwork(&ArtworkConfig::small()).lake,
        counting.clone(),
        CaesuraConfig {
            plan_cache: Some(PlanCacheConfig::off()),
            ..CaesuraConfig::default()
        },
    );
    assert!(REPEAT_WORKLOAD.iter().all(|q| session.run(q).succeeded()));
    let cold_calls = counting.usage().calls;
    assert!(REPEAT_WORKLOAD.iter().all(|q| session.run(q).succeeded()));
    assert_eq!(counting.usage().calls, 2 * cold_calls);
}

/// A cached plan that fails at execution is not an answer: the entry is
/// evicted, the query is planned live, and the run shows only the live
/// plan's decisions — the same answer a cache-off session gives.
#[test]
fn a_cached_plan_that_cannot_execute_is_evicted_and_replanned_live() {
    let query = REPEAT_WORKLOAD[1];
    let reference = cache_session(Some(PlanCacheConfig::off()), 1).run(query);
    assert!(reference.succeeded());

    let session = cache_session(Some(PlanCacheConfig::new(64)), 1);
    // The probe's own key: the fingerprint of the catalog discovery hands
    // the planner (the top-k tables and the foreign keys among them) and the
    // literal-normalized query.
    let lake = session.lake();
    let top = Retriever::index(lake).top_k(query, session.config().retrieval_top_k);
    let mut discovered = Catalog::new();
    for name in &top {
        discovered.register_shared(Arc::clone(lake.catalog().table(name).unwrap()));
    }
    for fk in lake.catalog().foreign_keys() {
        if discovered.contains(&fk.from_table) && discovered.contains(&fk.to_table) {
            discovered.add_foreign_key(fk.clone());
        }
    }
    let (fingerprint, template) = (schema_fingerprint(&discovered), normalize_query(query));

    // One step selecting over a table nothing produces.
    let poisoned = LogicalPlan {
        thought: "select over a table that does not exist".into(),
        steps: vec![LogicalStep::new(
            1,
            "Keep the rows of 'no_such_table' that depict a horse.",
            vec!["no_such_table".into()],
            "result_table",
            vec![],
        )],
    };
    let decisions = vec![OperatorDecision {
        step_number: 1,
        reasoning: "a selection".into(),
        operator: OperatorKind::SqlSelection,
        arguments: vec!["horse_depicted = 'yes'".into()],
    }];
    let cache = session.plan_cache().expect("cache is on");
    assert!(matches!(
        cache.insert(&fingerprint, &template, &poisoned, &decisions),
        PlanInsertOutcome::Inserted { .. }
    ));

    let run = session.run(query);
    assert_eq!(
        run.trace.plan_cache_calls(),
        PlanCacheCalls {
            hits: 1,
            invalidations: 1,
            // The live plan ran clean, so it takes the evicted entry's place.
            insertions: 1,
            ..PlanCacheCalls::default()
        }
    );
    assert_eq!(run.trace.plan_source(), Some(PlanSource::Planned));
    let recovery: Vec<_> = run
        .trace
        .events_of(Phase::Recovery)
        .into_iter()
        .map(|e| (e.label.as_str(), e.detail.as_str()))
        .collect();
    assert_eq!(
        recovery,
        [(
            "plan-cache",
            "cached plan failed at execution (the plan references table 'no_such_table' which \
             has not been produced); entry evicted, replanning live"
        )]
    );
    // Only the live plan's decisions and plan survive the failed replay.
    assert_eq!(run.decisions, reference.decisions);
    assert_eq!(run.logical_plan, reference.logical_plan);
    assert_eq!(output_repr(&run), output_repr(&reference));
    assert_eq!(run.trace.llm_calls(), reference.trace.llm_calls());
    assert_eq!(cache.stats().invalidations, 1);
    // The entry now in the cache is the live plan: the repeat replays it.
    let repeat = session.run(query);
    assert_eq!(repeat.trace.plan_source(), Some(PlanSource::Cached));
    assert_eq!(output_repr(&repeat), output_repr(&reference));
}

/// Three fieldwork-lake queries whose plans chain 3+ steps across two or
/// three modalities — the multi-step shape the plan cache must replay
/// faithfully (image chain, text chain, image + plot chain).
const FIELDWORK_REPEAT_WORKLOAD: [&str; 3] = [
    "What is the maximum number of specimens collected by each station?",
    "What is the maximum number of tents depicted in the station photos of each terrain?",
    "Plot the number of station photos depicting a penguin for each region!",
];

fn fieldwork_session(plan_cache: Option<PlanCacheConfig>, workers: usize) -> Caesura {
    let data = generate_fieldwork(&FieldworkConfig::small());
    let config = CaesuraConfig {
        plan_cache,
        session_workers: Some(workers),
        ..CaesuraConfig::default()
    };
    Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config)
}

/// Cached-vs-live equivalence on the fieldwork lake, across the full
/// configuration matrix: plan cache {off, tiny (evicting), default} ×
/// scheduler workers {1, 4}. Every combination must produce the cache-off
/// serial baseline's outputs, and cached replays must skip the LLM.
#[test]
fn fieldwork_plan_cache_matrix_never_changes_outputs() {
    let baseline: Vec<QueryRun> = (0..ROUNDS)
        .flat_map(|_| FIELDWORK_REPEAT_WORKLOAD)
        .map(|query| fieldwork_session(Some(PlanCacheConfig::off()), 1).run(query))
        .collect();
    assert!(baseline.iter().all(|r| r.succeeded()));
    let expected: std::collections::BTreeMap<&str, String> = FIELDWORK_REPEAT_WORKLOAD
        .iter()
        .zip(&baseline)
        .map(|(q, run)| (*q, output_repr(run)))
        .collect();
    let llm_calls: std::collections::BTreeMap<&str, usize> = FIELDWORK_REPEAT_WORKLOAD
        .iter()
        .zip(&baseline)
        .map(|(q, run)| (*q, run.trace.llm_calls()))
        .collect();

    for plan_cache in [
        Some(PlanCacheConfig::off()),
        Some(PlanCacheConfig::new(2)),
        Some(PlanCacheConfig::new(PlanCacheConfig::DEFAULT_CAPACITY)),
    ] {
        for workers in [1usize, 4] {
            let session = fieldwork_session(plan_cache, workers);
            let runs: Vec<(&str, QueryRun)> = if workers == 1 {
                (0..ROUNDS)
                    .flat_map(|_| FIELDWORK_REPEAT_WORKLOAD)
                    .map(|query| (query, session.run(query)))
                    .collect()
            } else {
                let handles: Vec<_> = (0..ROUNDS)
                    .flat_map(|_| FIELDWORK_REPEAT_WORKLOAD)
                    .map(|query| (query, session.submit(query)))
                    .collect();
                handles
                    .into_iter()
                    .map(|(query, handle)| (query, handle.wait()))
                    .collect()
            };
            for (query, run) in &runs {
                assert!(run.succeeded(), "{query:?} failed under {plan_cache:?}");
                assert_eq!(
                    output_repr(run),
                    expected[query],
                    "output diverged for {query:?} under workers={workers}, {plan_cache:?}"
                );
                match run.trace.plan_source() {
                    // Replays must skip planning and mapping entirely.
                    Some(PlanSource::Cached) => assert_eq!(run.trace.llm_calls(), 0),
                    Some(PlanSource::Planned) => assert!(run.trace.llm_calls() > 0),
                    // Off: every round pays what the baseline paid.
                    None => {
                        assert_eq!(plan_cache, Some(PlanCacheConfig::off()));
                        assert_eq!(run.trace.llm_calls(), llm_calls[query]);
                    }
                }
            }
            // Under the serial driver the cache behaviour is deterministic:
            // default capacity replays every round after the first; the
            // 2-entry cache cannot hold the 3-query working set and stays
            // live; off never probes.
            if workers == 1 {
                let sources: Vec<_> = runs
                    .iter()
                    .map(|(_, run)| run.trace.plan_source())
                    .collect();
                if plan_cache == Some(PlanCacheConfig::off()) {
                    assert!(sources.iter().all(|s| s.is_none()));
                } else if plan_cache == Some(PlanCacheConfig::new(2)) {
                    assert!(sources.iter().all(|s| *s == Some(PlanSource::Planned)));
                } else {
                    assert!(sources[FIELDWORK_REPEAT_WORKLOAD.len()..]
                        .iter()
                        .all(|s| *s == Some(PlanSource::Cached)));
                }
            }
        }
    }
}

/// The equivalence holds under concurrent serving too: with 4 scheduler
/// workers racing on one shared cache, every query still returns the
/// serial-baseline output (hit/miss *patterns* race; answers cannot).
#[test]
fn plan_cache_outputs_are_stable_under_concurrent_serving() {
    let baseline = run_workload_serially(&cache_session(Some(PlanCacheConfig::off()), 1));
    let expected: std::collections::BTreeMap<&str, String> = REPEAT_WORKLOAD
        .iter()
        .zip(&baseline)
        .map(|(q, run)| (*q, output_repr(run)))
        .collect();

    for plan_cache in [
        Some(PlanCacheConfig::off()),
        Some(PlanCacheConfig::new(2)),
        Some(PlanCacheConfig::new(PlanCacheConfig::DEFAULT_CAPACITY)),
    ] {
        let session = cache_session(plan_cache, 4);
        let handles: Vec<_> = (0..ROUNDS)
            .flat_map(|_| REPEAT_WORKLOAD)
            .map(|query| (query, session.submit(query)))
            .collect();
        for (query, handle) in handles {
            let run = handle.wait();
            assert_eq!(
                output_repr(&run),
                expected[query],
                "output diverged for {query:?} under workers=4, {plan_cache:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Admission after recovery: the plan that worked enters the cache, whatever
// it took to find it, and replays exactly like a plan that ran clean.
// ---------------------------------------------------------------------------

fn session_over(
    lake: DataLake,
    llm: Arc<dyn LlmClient>,
    plan_cache: PlanCacheConfig,
    persist: Option<PersistConfig>,
) -> Caesura {
    let config = CaesuraConfig {
        plan_cache: Some(plan_cache),
        persist,
        session_workers: Some(1),
        ..CaesuraConfig::default()
    };
    Caesura::with_config(lake, llm, config)
}

const PLAN_CACHE_ON: PlanCacheConfig = PlanCacheConfig {
    capacity: PlanCacheConfig::DEFAULT_CAPACITY,
};

/// Per step of the run's last pass over its plan, the decision whose
/// execution succeeded — read off the trace, where every "decision" is
/// followed by its "observation" or "error" and a "replan" starts the pass
/// (and `QueryRun::decisions`) over.
fn worked_decisions(run: &QueryRun) -> Vec<OperatorDecision> {
    let mut succeeded: Vec<bool> = Vec::new();
    for event in run.trace.events() {
        match event.label.as_str() {
            "decision" => succeeded.push(false),
            "observation" => *succeeded.last_mut().expect("a decision came first") = true,
            "replan" => succeeded.clear(),
            _ => {}
        }
    }
    assert_eq!(succeeded.len(), run.decisions.len());
    let kept = run.decisions.iter().zip(succeeded);
    kept.filter(|(_, ok)| *ok).map(|(d, _)| d.clone()).collect()
}

fn plan_cache_notes(run: &QueryRun) -> Vec<&str> {
    let events = run.trace.events().iter();
    events
        .filter(|event| event.label == "plan-cache")
        .map(|event| event.detail.as_str())
        .collect()
}

/// Over the 48-query paper suite and both fieldwork tiers, under three planner
/// seeds (each makes its own queries stumble): every query answered the second
/// time as a cache-off session answers it; every success replays from the
/// cache with zero LLM calls; and a success that needed error recovery replays
/// exactly the decisions that executed, failed attempts dropped.
#[test]
fn plans_repaired_by_recovery_replay_from_the_cache_like_clean_ones() {
    let corrupted = FieldworkConfig {
        missing_images: FieldworkConfig::adversarial().missing_images,
        dirty_reports: FieldworkConfig::adversarial().dirty_reports,
        ..FieldworkConfig::small()
    };
    let lakes = [
        generate_artwork(&ArtworkConfig::small()).lake,
        generate_rotowire(&RotowireConfig::small()).lake,
        generate_fieldwork(&FieldworkConfig::small()).lake,
        generate_fieldwork(&corrupted).lake,
    ];
    let queries: Vec<_> = benchmark_queries()
        .into_iter()
        .chain(fieldwork_queries())
        .collect();
    let mut repaired = Vec::new();
    for seed in [42, 1, 2] {
        let llm: Arc<dyn LlmClient> = Arc::new(SimulatedLlm::new(ModelProfile::Gpt4, seed));
        let sessions = |plan_cache| -> Vec<Caesura> {
            let session =
                |lake: &DataLake| session_over(lake.clone(), Arc::clone(&llm), plan_cache, None);
            lakes.iter().map(session).collect()
        };
        let (cached, live) = (sessions(PLAN_CACHE_ON), sessions(PlanCacheConfig::off()));
        for query in &queries {
            let lake = match query.dataset {
                Dataset::Artwork => 0,
                Dataset::Rotowire => 1,
                Dataset::Fieldwork => 2 + usize::from(query.corrupted),
            };
            let first = cached[lake].run(query.text);
            let second = cached[lake].run(query.text);
            let reference = live[lake].run(query.text);
            let id = query.id;
            assert_eq!(first.output, reference.output, "{id} cold, seed {seed}");
            assert_eq!(second.output, reference.output, "{id} warm, seed {seed}");
            assert_eq!(first.decisions, reference.decisions, "{id}, seed {seed}");
            if !first.succeeded() {
                // A run that ended in an error validated nothing.
                assert_eq!(first.trace.plan_cache_calls().insertions, 0, "{id}");
                assert_eq!(second.trace.plan_source(), Some(PlanSource::Planned));
                assert_eq!(second.trace.llm_calls(), reference.trace.llm_calls());
                continue;
            }
            assert_eq!(first.trace.plan_cache_calls().insertions, 1, "{id}");
            assert_eq!(second.trace.plan_source(), Some(PlanSource::Cached), "{id}");
            assert_eq!(second.trace.llm_calls(), 0, "{id}, seed {seed}");
            assert_eq!(second.logical_plan, first.logical_plan, "{id}");
            assert_eq!(
                second.decisions,
                worked_decisions(&first),
                "{id}, seed {seed}"
            );
            let dropped = first.decisions.len() - second.decisions.len();
            if first.trace.recovered() {
                let note = format!(
                    "cached after recovery: the {} decision(s) that executed are stored; \
                     {dropped} failed attempt(s) and 0 replan(s) dropped",
                    second.decisions.len()
                );
                assert_eq!(plan_cache_notes(&first), [note], "{id}, seed {seed}");
                repaired.push((seed, id));
            } else {
                assert_eq!(dropped, 0, "{id}");
                assert!(plan_cache_notes(&first).is_empty(), "{id}");
            }
        }
    }
    // The default planner's two (the `warm_repeat` templates this rule is
    // for) and the other seeds' stumbles were all exercised.
    assert!(repaired.contains(&(42, "A03")) && repaired.contains(&(42, "R24")));
    assert!(repaired.len() >= 10, "only {repaired:?} needed recovery");
}

// A scripted planner, for the paths the simulated one never takes: a replan
// that rescues a query, a repaired plan that drops a literal, and a repaired
// entry that stops executing.

fn plan_text(steps: &[&LogicalStep]) -> String {
    LogicalPlan {
        thought: "scripted".into(),
        steps: steps.iter().map(|&step| step.clone()).collect(),
    }
    .render()
}

fn decision_text(step: &LogicalStep, operator: OperatorKind, arguments: &[&str]) -> String {
    OperatorDecision {
        step_number: step.number,
        reasoning: "scripted".into(),
        operator,
        arguments: arguments.iter().map(|a| a.to_string()).collect(),
    }
    .render(&step.description)
}

fn analysis_text(replan: bool) -> String {
    ErrorAnalysis {
        causes: "scripted".into(),
        fix: "scripted".into(),
        plan_flawed: replan,
        update_arguments: !replan,
        ..ErrorAnalysis::default()
    }
    .render()
}

fn count_step(table: &str) -> LogicalStep {
    LogicalStep::new(
        1,
        format!("Count the rows of the '{table}' table."),
        vec![table.to_string()],
        "result_table",
        vec!["n".into()],
    )
}

/// A replan that rescues the query, with a step retry inside the second plan:
/// the second plan and the decision that executed are cached, and the repeat
/// reaches no model at all (the script has nothing left to say).
#[test]
fn a_plan_found_by_replanning_is_cached_with_the_decisions_that_executed() {
    let query = "How many paintings are in the museum?";
    let (wrong, right) = (count_step("paintings"), count_step("paintings_metadata"));
    let count = |from: &str| format!("SELECT COUNT(*) AS n FROM {from}");
    let script = || {
        let aggregate = OperatorKind::SqlAggregation;
        Arc::new(ScriptedLlm::new(vec![
            plan_text(&[&wrong]),
            decision_text(&wrong, aggregate, &[&count("paintings")]),
            analysis_text(true),
            plan_text(&[&right]),
            decision_text(&right, aggregate, &["SELECT COUNT(*) AS n FROM"]),
            analysis_text(false),
            decision_text(&right, aggregate, &[&count("paintings_metadata")]),
        ]))
    };
    let lake = || generate_artwork(&ArtworkConfig::small()).lake;
    let reference = session_over(lake(), script(), PlanCacheConfig::off(), None).run(query);
    assert!(reference.succeeded(), "{:?}", reference.output);

    let session = session_over(lake(), script(), PLAN_CACHE_ON, None);
    let first = session.run(query);
    assert_eq!(first.output, reference.output);
    assert_eq!(first.trace.llm_calls(), 7);
    // The run's own record keeps every attempt of its last pass.
    assert_eq!(first.decisions, reference.decisions);
    assert_eq!(first.decisions.len(), 2);
    assert_eq!(
        plan_cache_notes(&first),
        [
            "cached after recovery: the 1 decision(s) that executed are stored; \
          1 failed attempt(s) and 1 replan(s) dropped"
        ]
    );

    let second = session.run(query);
    assert_eq!(second.trace.plan_source(), Some(PlanSource::Cached));
    assert_eq!(second.trace.llm_calls(), 0);
    assert_eq!(second.output, reference.output);
    assert_eq!(second.logical_plan, first.logical_plan);
    assert_eq!(second.decisions, worked_decisions(&first));
    assert_eq!(second.decisions, first.decisions[1..]);
}

/// Recovery does not soften the literal check: a repaired plan that answers
/// for `'Baroque'` without carrying the literal is refused, and the repeat
/// plans live.
#[test]
fn a_repaired_plan_that_drops_a_query_literal_is_rejected() {
    let query = "How many paintings belong to the 'Baroque' movement?";
    let step = LogicalStep::new(
        1,
        "Count the paintings of the requested movement.",
        vec!["paintings_metadata".into()],
        "result_table",
        vec!["n".into()],
    );
    let count = |condition: &str| {
        let sql = format!("SELECT COUNT(*) AS n FROM paintings_metadata WHERE {condition}");
        decision_text(&step, OperatorKind::SqlAggregation, &[&sql])
    };
    let round = [
        plan_text(&[&step]),
        count("no_such_column = 1"),
        analysis_text(false),
        count("movement LIKE 'Baro%'"),
    ];
    let script = Arc::new(ScriptedLlm::new([round.clone(), round].concat()));
    let lake = generate_artwork(&ArtworkConfig::small()).lake;
    let session = session_over(lake, script, PLAN_CACHE_ON, None);

    let first = session.run(query);
    assert!(first.succeeded(), "{:?}", first.output);
    assert_eq!(first.trace.plan_cache_calls().insertions, 0);
    let notes = plan_cache_notes(&first);
    assert!(
        matches!(notes[..], [note] if note.starts_with("not cached")),
        "{notes:?}"
    );
    assert_eq!(session.plan_cache().unwrap().stats().rejections, 1);

    let second = session.run(query);
    assert_eq!(second.trace.plan_source(), Some(PlanSource::Planned));
    assert_eq!(second.trace.llm_calls(), 4);
    assert_eq!(second.output, first.output);
}

/// A repaired entry gets no special standing: when its replay fails — here a
/// restarted session finds it on disk, over a lake that has since lost an
/// image — it is invalidated in both tiers and the query is planned live.
#[test]
fn a_repaired_entry_whose_replay_fails_is_invalidated_and_replanned_live() {
    let query = "How many swords are depicted across all paintings?";
    let full = generate_artwork(&ArtworkConfig::small()).lake;
    let mut damaged = DataLake::new("artwork");
    for table in full.catalog().tables() {
        let description = full.description_of(table.name()).unwrap_or_default();
        damaged.add_table(table.as_ref().clone(), description);
    }
    for fk in full.catalog().foreign_keys() {
        damaged.add_foreign_key(fk.clone());
    }
    for image in full.images().iter().skip(1) {
        damaged.images_mut().insert(image.clone());
    }

    let look = LogicalStep::new(
        1,
        "Count the swords in each image of the 'painting_images' table.",
        vec!["painting_images".into()],
        "painting_images",
        vec!["num_swords".into()],
    );
    let total = LogicalStep::new(
        2,
        "Sum the 'num_swords' column.",
        vec!["painting_images".into()],
        "result_table",
        vec!["total".into()],
    );
    let visual_qa = |column: &str| {
        let arguments = [column, "num_swords", "How many swords are depicted?", "int"];
        decision_text(&look, OperatorKind::VisualQa, &arguments)
    };
    let sum = "SELECT SUM(num_swords) AS total FROM painting_images";
    let tmp = std::env::temp_dir().join(format!("caesura-repaired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let persist = || Some(PersistConfig::new(&tmp));

    // Before the restart: found with one retry, stored, written through.
    {
        let script = Arc::new(ScriptedLlm::new(vec![
            plan_text(&[&look, &total]),
            visual_qa("img_path"),
            analysis_text(false),
            visual_qa("image"),
            decision_text(&total, OperatorKind::SqlAggregation, &[sum]),
        ]));
        let run = session_over(full, script, PLAN_CACHE_ON, persist()).run(query);
        assert!(run.succeeded(), "{:?}", run.output);
        let calls = run.trace.plan_cache_calls();
        assert_eq!((calls.insertions, calls.disk_writes), (1, 1));
        assert!(plan_cache_notes(&run)[0].starts_with("cached after recovery"));
    }

    // After it: the replay asks about the lost image and fails; the live plan
    // (this script counts rows instead) answers and takes the entry's place.
    let rows = count_step("painting_images");
    let count = "SELECT COUNT(*) AS n FROM painting_images";
    let script = Arc::new(ScriptedLlm::new(vec![
        plan_text(&[&rows]),
        decision_text(&rows, OperatorKind::SqlAggregation, &[count]),
    ]));
    let session = session_over(damaged, script, PLAN_CACHE_ON, persist());
    let run = session.run(query);
    assert!(run.succeeded(), "{:?}", run.output);
    assert_eq!(
        run.trace.plan_cache_calls(),
        PlanCacheCalls {
            hits: 1,
            disk_hits: 1,
            invalidations: 1,
            insertions: 1,
            disk_writes: 1,
            ..PlanCacheCalls::default()
        }
    );
    assert_eq!(run.trace.plan_source(), Some(PlanSource::Planned));
    assert_eq!(run.trace.llm_calls(), 2);
    assert_eq!(run.decisions.len(), 1);
    let stats = session.plan_cache().unwrap().stats();
    assert_eq!((stats.invalidations, stats.disk_invalidations), (1, 1));
    let repeat = session.run(query);
    assert_eq!(repeat.trace.plan_source(), Some(PlanSource::Cached));
    assert_eq!(repeat.output, run.output);
    drop(session);
    let _ = std::fs::remove_dir_all(&tmp);
}
