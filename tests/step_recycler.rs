//! The session's SQL step recycler is invisible in results: every suite
//! query, run twice through one session in a seeded shuffled order, answers
//! and traces exactly as through a session without a recycler (the
//! perception cache off, which turns the recycler off with it), while the
//! second pass recycles SQL steps. Concurrent queries racing on one shared
//! prefix agree with their serial runs.

use caesura::core::{Caesura, CaesuraConfig, PlanCacheCalls, PlanSource, QueryRun, TraceEvent};
use caesura::data::{generate_artwork, generate_fieldwork, generate_rotowire, DataLake};
use caesura::eval::{benchmark_queries, fieldwork_queries, Dataset, EvaluationConfig};
use caesura::llm::{ModelProfile, SimulatedLlm};
use caesura::modal::{BatchConfig, CacheConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::thread;

/// The ledger's configuration: every cache at its default, so the recycler
/// is on, perception dispatch on one thread, one session worker, no store.
fn recycling() -> CaesuraConfig {
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

/// [`recycling`] without a perception cache, hence without a recycler.
fn reference() -> CaesuraConfig {
    CaesuraConfig {
        perception_cache: Some(CacheConfig::off()),
        ..recycling()
    }
}

/// What a run must hold equal across the two sessions: its plan, decisions
/// and output, and its trace outside timings — less the perception
/// accounting, which the perception cache moves on purpose (rows walked stay).
type Logical = (
    String,
    Vec<String>,
    String,
    Vec<TraceEvent>,
    (usize, usize, usize),
    PlanCacheCalls,
    Option<PlanSource>,
);

fn logical(run: &QueryRun) -> Logical {
    let trace = &run.trace;
    let events = trace.events().iter().filter(|e| e.label != "perception");
    (
        format!("{:?}", run.logical_plan),
        run.decisions.iter().map(|d| format!("{d:?}")).collect(),
        format!("{:?}", run.output),
        events.cloned().collect(),
        (
            trace.llm_calls(),
            trace.prompt_tokens(),
            trace.perception_calls().rows,
        ),
        trace.plan_cache_calls(),
        trace.plan_source(),
    )
}

/// `0..n` in a seeded random order (Fisher–Yates).
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for at in (1..n).rev() {
        order.swap(at, rng.gen_range(0..=at));
    }
    order
}

/// Run every query twice through one session pair under `config`, each pass
/// in its own seeded shuffled order; `route` picks the lake of query `i`.
/// Returns the runs in execution order and the SQL steps the second pass
/// recycled.
fn two_passes(
    lakes: &[DataLake],
    profile: ModelProfile,
    config: &CaesuraConfig,
    queries: &[&str],
    route: &dyn Fn(usize) -> usize,
) -> (Vec<QueryRun>, usize) {
    let seed = EvaluationConfig::default().seed;
    let llm = Arc::new(SimulatedLlm::new(profile, seed));
    let sessions: Vec<Caesura> = lakes
        .iter()
        .map(|lake| Caesura::with_config(lake.clone(), llm.clone(), config.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs = Vec::new();
    let mut recycled = 0;
    for pass in 0..2 {
        for query in shuffled(queries.len(), &mut rng) {
            let run = sessions[route(query)].run(queries[query]);
            if pass == 1 {
                recycled += run.trace.recycled_steps();
            }
            runs.push(run);
        }
    }
    (runs, recycled)
}

fn assert_recycler_invisible(
    suite: &str,
    lakes: &[DataLake],
    profile: ModelProfile,
    queries: &[&str],
    route: &dyn Fn(usize) -> usize,
) {
    let (expected, none) = two_passes(lakes, profile, &reference(), queries, route);
    assert_eq!(none, 0, "{suite}: a session without a cache recycled");
    let (actual, recycled) = two_passes(lakes, profile, &recycling(), queries, route);
    for (at, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(
            logical(got),
            logical(want),
            "{suite}: run {at} ('{}') differs with the recycler",
            got.query
        );
    }
    assert!(recycled > 0, "{suite}: the second pass recycled no step");
}

#[test]
fn the_paper_suite_answers_the_same_with_its_sql_steps_recycled() {
    let config = EvaluationConfig::default();
    let lakes = [
        generate_artwork(&config.artwork).lake,
        generate_rotowire(&config.rotowire).lake,
    ];
    let suite = benchmark_queries();
    let queries: Vec<&str> = suite.iter().map(|q| q.text).collect();
    let route = |i: usize| usize::from(suite[i].dataset != Dataset::Artwork);
    for profile in [ModelProfile::Gpt4, ModelProfile::ChatGpt35] {
        assert_recycler_invisible(profile.name(), &lakes, profile, &queries, &route);
    }
}

#[test]
fn the_fieldwork_suite_answers_the_same_with_its_sql_steps_recycled() {
    let config = EvaluationConfig::default();
    let lakes = [
        generate_fieldwork(&config.fieldwork).lake,
        generate_fieldwork(&config.corrupted_fieldwork()).lake,
    ];
    let suite = fieldwork_queries();
    let queries: Vec<&str> = suite.iter().map(|q| q.text).collect();
    let route = |i: usize| usize::from(suite[i].corrupted);
    let profile = ModelProfile::Gpt4;
    assert_recycler_invisible("fieldwork", &lakes, profile, &queries, &route);
}

/// Two rotowire queries whose plans open with the same two joins.
const SHARED_PREFIX: [&str; 2] = [
    "What is the highest number of points the Heat scored in a game?",
    "For every team, what is the highest number of points they scored in a game?",
];

#[test]
fn concurrent_queries_on_one_shared_prefix_match_their_serial_runs() {
    let lake = generate_rotowire(&EvaluationConfig::small().rotowire).lake;
    let llm = || Arc::new(SimulatedLlm::gpt4());
    let serial = Caesura::with_config(lake.clone(), llm(), reference());
    let expected: Vec<_> = SHARED_PREFIX.map(|q| serial.query(q).unwrap()).into();

    // Four workers; every thread submits both queries before waiting, so
    // the two race on the shared joins from the first round on.
    let config = CaesuraConfig {
        session_workers: Some(4),
        ..recycling()
    };
    let session = Caesura::with_config(lake, llm(), config);
    thread::scope(|scope| {
        for _ in 0..4 {
            let (session, expected) = (&session, &expected);
            scope.spawn(move || {
                for round in 0..3 {
                    let handles = SHARED_PREFIX.map(|q| session.submit(q));
                    for ((handle, want), query) in
                        handles.into_iter().zip(expected).zip(SHARED_PREFIX)
                    {
                        let got = handle.wait().output.unwrap();
                        assert_eq!(&got, want, "round {round}: '{query}' diverged");
                    }
                }
            });
        }
    });
    let stats = session.step_recycler().unwrap().stats();
    assert!(stats.hits > 0, "{stats:?}");
}
