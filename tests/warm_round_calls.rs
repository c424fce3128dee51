//! A deterministic count gate on what a warm session still pays the models
//! for: the second pass over the 48-query paper suite through one session
//! pair. Every template whose first run ended in success — straight away,
//! after §3.2 step recovery, or after a replan — replays from the plan cache
//! with zero planner calls; what is left is the three templates whose runs
//! end in an error, which are re-planned live every round — six calls each,
//! because each stops at the retry that repeats its failed decision. Every
//! perception answer comes from the cache; the only backend calls left are
//! the transform compiles, which have no memory tier.
//!
//! Every cache is pinned on in the config, so the counts do not depend on
//! the defaults.

use caesura::core::{Caesura, CaesuraConfig, PlanSource, QueryRun};
use caesura::data::{generate_artwork, generate_rotowire, ArtworkConfig, RotowireConfig};
use caesura::eval::{benchmark_queries, Dataset};
use caesura::llm::{PlanCacheConfig, SimulatedLlm};
use caesura::modal::CacheConfig;
use std::sync::Arc;

/// Planner, mapping and error-analysis calls of the warm pass.
const WARM_PLANNER_CALLS: usize = 18;
/// What each still-live template pays: the plan, one mapping per step up to
/// the failing one, one analysis of its failure, and the retry's mapping,
/// which repeats the failed decision and ends the step.
const CALLS_PER_LIVE_TEMPLATE: usize = 6;
/// Perception backend calls of the warm pass: one compile per Python-UDF
/// step executed.
const WARM_BACKEND_CALLS: usize = 6;
/// The templates that still plan live when warm: the ones that fail.
const STILL_LIVE: [&str; 3] = ["A19", "R06", "R21"];

#[test]
fn the_warm_pass_pays_only_for_the_templates_that_fail() {
    let config = CaesuraConfig {
        perception_cache: Some(CacheConfig::new(CacheConfig::DEFAULT_CAPACITY)),
        plan_cache: Some(PlanCacheConfig::new(PlanCacheConfig::DEFAULT_CAPACITY)),
        persist: None,
        session_workers: Some(1),
        ..CaesuraConfig::default()
    };
    let session = |lake| Caesura::with_config(lake, Arc::new(SimulatedLlm::gpt4()), config.clone());
    let artwork = session(generate_artwork(&ArtworkConfig::small()).lake);
    let rotowire = session(generate_rotowire(&RotowireConfig::small()).lake);
    let queries = benchmark_queries();
    let pass = || -> Vec<QueryRun> {
        let run = |query: &caesura::eval::BenchmarkQuery| match query.dataset {
            Dataset::Artwork => artwork.run(query.text),
            _ => rotowire.run(query.text),
        };
        queries.iter().map(run).collect()
    };
    let (cold, warm) = (pass(), pass());

    let backend_calls = |run: &QueryRun| run.trace.perception_calls().calls;
    let mut table = String::from("id   cold planner/backend -> warm planner/backend  warm run\n");
    for ((query, cold), warm) in queries.iter().zip(&cold).zip(&warm) {
        let outcome = match (&warm.output, warm.trace.plan_source()) {
            (Err(_), _) => "failed",
            (Ok(_), Some(PlanSource::Cached)) => "cached",
            (Ok(_), _) => "planned live",
        };
        table.push_str(&format!(
            "{:<4} {:>10}/{} -> {:>10}/{}  {outcome}\n",
            query.id,
            cold.trace.llm_calls(),
            backend_calls(cold),
            warm.trace.llm_calls(),
            backend_calls(warm),
        ));
    }

    let live: Vec<&str> = queries
        .iter()
        .zip(&warm)
        .filter(|(_, run)| run.trace.plan_source() != Some(PlanSource::Cached))
        .map(|(query, _)| query.id)
        .collect();
    assert_eq!(
        live, STILL_LIVE,
        "templates planned live when warm\n{table}"
    );
    for (query, run) in queries.iter().zip(&warm) {
        assert_eq!(
            run.succeeded(),
            !STILL_LIVE.contains(&query.id),
            "{} ended differently\n{table}",
            query.id
        );
    }
    for (query, run) in queries.iter().zip(&warm) {
        if STILL_LIVE.contains(&query.id) {
            assert_eq!(
                run.trace.llm_calls(),
                CALLS_PER_LIVE_TEMPLATE,
                "{} planner calls\n{table}",
                query.id
            );
        }
    }
    let planner_calls: usize = warm.iter().map(|run| run.trace.llm_calls()).sum();
    assert_eq!(
        planner_calls, WARM_PLANNER_CALLS,
        "warm planner calls\n{table}"
    );
    let warm_backend_calls: usize = warm.iter().map(backend_calls).sum();
    assert_eq!(
        warm_backend_calls, WARM_BACKEND_CALLS,
        "warm perception backend calls\n{table}"
    );
    // Replayed or planned again, the answers are the cold pass's.
    for ((query, cold), warm) in queries.iter().zip(&cold).zip(&warm) {
        assert_eq!(warm.output, cold.output, "{} changed its answer", query.id);
    }
}
