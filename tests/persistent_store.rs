//! Integration tests of the persistent cache tier (`caesura_store`): a
//! simulated restart replays the benchmark from disk with zero planner and
//! perception-backend calls, corrupt stores recover to their valid prefix,
//! identities are isolated inside a shared store directory, concurrent opens
//! fail with a typed error, and results stay byte-identical across cache
//! configurations.
//!
//! Every test uses an explicit [`CaesuraConfig::persist`] value — its own
//! temp directory, or `None` — so the tests neither collide with each other
//! nor depend on `CAESURA_CACHE_DIR`. The one exception is
//! [`env_cache_dir_runs_cold_then_warm`], the hook of CI's store-attached
//! pass, which reads the environment and skips itself when the variable is
//! unset.

use caesura_core::{Caesura, CaesuraConfig, CoreError, PlanSource, QueryRun};
use caesura_data::{generate_artwork, generate_rotowire, ArtworkConfig, RotowireConfig};
use caesura_eval::{benchmark_queries, Dataset};
use caesura_llm::{
    schema_fingerprint, CountingLlm, LlmClient, PlanCacheConfig, PlanInsertOutcome, SimulatedLlm,
};
use caesura_store::{CacheStore, PersistConfig, Tier};
use std::path::PathBuf;
use std::sync::Arc;

/// A self-cleaning temp directory for one test's store.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "caesura-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn persist(&self) -> Option<PersistConfig> {
        Some(PersistConfig::new(&self.0))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A session config with an explicit persistence setting (never the
/// environment's, so these tests are immune to `CAESURA_CACHE_DIR`) and both
/// caches at their defaults: a disk tier only exists under a memory tier.
fn config_with(persist: Option<PersistConfig>) -> CaesuraConfig {
    CaesuraConfig {
        persist,
        ..CaesuraConfig::default()
    }
}

/// Run the full 48-query benchmark through one "process": an artwork session
/// and a rotowire session opened **sequentially** against the same store
/// directory (each session holds the store's lock while it lives, so they
/// must not overlap). Returns the runs in benchmark order.
fn run_benchmark(llm: Arc<dyn LlmClient>, persist: Option<PersistConfig>) -> Vec<QueryRun> {
    let queries = benchmark_queries();
    let mut runs: Vec<Option<QueryRun>> = (0..queries.len()).map(|_| None).collect();
    for dataset in [Dataset::Artwork, Dataset::Rotowire] {
        let lake = match dataset {
            Dataset::Artwork => generate_artwork(&ArtworkConfig::small()).lake,
            Dataset::Rotowire => generate_rotowire(&RotowireConfig::small()).lake,
            Dataset::Fieldwork => unreachable!(),
        };
        let session = Caesura::with_config(lake, Arc::clone(&llm), config_with(persist.clone()));
        for (index, query) in queries.iter().enumerate() {
            if query.dataset == dataset {
                runs[index] = Some(session.run(query.text));
            }
        }
        // The session (and its store locks) must drop before the next one —
        // and before the caller reopens the directory.
    }
    runs.into_iter().map(|run| run.unwrap()).collect()
}

#[test]
fn restart_replays_the_benchmark_with_zero_planner_and_backend_calls() {
    let tmp = TempDir::new("restart");

    // Cold process: plan and execute everything live, populating the store.
    let cold_llm = Arc::new(CountingLlm::new(SimulatedLlm::gpt4()));
    let cold_runs = run_benchmark(cold_llm.clone(), tmp.persist());
    let cold_calls = cold_llm.usage().calls;
    assert!(cold_calls > 0, "the cold run must plan live");
    // Every cold run that ended in success — recovery included — validated a
    // plan and wrote it through; a run that ended in an error stored nothing.
    for run in &cold_runs {
        let stored = usize::from(run.succeeded());
        let calls = run.trace.plan_cache_calls();
        assert_eq!(
            (calls.insertions, calls.disk_writes),
            (stored, stored),
            "{}",
            run.query
        );
    }
    let inserted_count = cold_runs.iter().filter(|run| run.succeeded()).count();
    assert!(
        inserted_count >= 40,
        "expected most of the 48 cold plans to be cacheable, got {inserted_count}"
    );
    // The cold sessions dispatched perception over the default worker count,
    // so groups of answers were appended concurrently. None tore or
    // interleaved inside a record: both stores reopen without dropping a
    // byte, and every record the runs wrote is one live record.
    let persist = tmp.persist().unwrap();
    let written = |calls: fn(&QueryRun) -> usize| cold_runs.iter().map(calls).sum::<usize>();
    let stores = [
        (
            persist.perception_dir(),
            written(|run| run.trace.perception_calls().disk_writes),
        ),
        (
            persist.plans_dir(),
            written(|run| run.trace.plan_cache_calls().disk_writes),
        ),
    ];
    for (dir, written) in stores {
        let stats = CacheStore::open(&dir).expect("the store reopens").stats();
        assert_eq!(stats.corrupt_bytes_dropped, 0, "{}", dir.display());
        assert_eq!(stats.live_records, written, "{}", dir.display());
    }

    // Simulated restart: a fresh "process" — new sessions, new caches, new
    // CountingLlm — over the same store directory.
    let warm_llm = Arc::new(CountingLlm::new(SimulatedLlm::gpt4()));
    let warm_runs = run_benchmark(warm_llm.clone(), tmp.persist());

    let mut failed_cold_calls = 0usize;
    for (run, cold) in warm_runs.iter().zip(&cold_runs) {
        // Byte-identical answers, warm or cold.
        assert_eq!(run.output, cold.output, "output diverged: {}", run.query);
        // Zero perception-backend calls: every perception answer the warm
        // run needed — including for queries that replan live — was written
        // through cold and replays from disk.
        assert_eq!(
            run.trace.perception_calls().calls,
            0,
            "warm run dispatched to a perception backend: {}",
            run.query
        );
        if cold.succeeded() {
            // Zero planner/mapping calls: the validated plan replays from
            // the disk tier.
            assert_eq!(
                run.trace.llm_calls(),
                0,
                "warm run planned live despite a stored plan: {}",
                run.query
            );
            assert_eq!(run.trace.plan_source(), Some(PlanSource::Cached));
            assert_eq!(run.trace.plan_cache_calls().disk_hits, 1);
        } else {
            // Planned live again, at the cold run's price.
            assert_eq!(
                run.trace.llm_calls(),
                cold.trace.llm_calls(),
                "{}",
                run.query
            );
            failed_cold_calls += cold.trace.llm_calls();
        }
    }
    // The only warm LLM traffic is for the queries whose cold run ended in an
    // error: exactly their calls, paid again.
    assert!(failed_cold_calls > 0, "the suite has queries that fail");
    assert_eq!(warm_llm.usage().calls, failed_cold_calls);
    assert!(
        warm_llm.usage().calls < cold_calls,
        "warm ({}) must be cheaper than cold ({})",
        warm_llm.usage().calls,
        cold_calls
    );
    eprintln!(
        "restart replay: cold {} LLM call(s), warm {} ({} of 48 plans cached)",
        cold_calls,
        warm_llm.usage().calls,
        inserted_count
    );
}

#[test]
fn concurrent_open_of_a_live_store_fails_with_a_typed_error() {
    let tmp = TempDir::new("locked");
    let lake = generate_artwork(&ArtworkConfig::small()).lake;
    let llm: Arc<dyn LlmClient> = Arc::new(SimulatedLlm::gpt4());

    let holder = Caesura::with_config(lake.clone(), Arc::clone(&llm), config_with(tmp.persist()));
    // A second live session over the same directory is refused, not raced.
    let contender =
        Caesura::try_with_config(lake.clone(), Arc::clone(&llm), config_with(tmp.persist()));
    match contender {
        Err(CoreError::StoreUnavailable { message }) => {
            assert!(message.contains("locked"), "unexpected message: {message}")
        }
        other => panic!(
            "expected StoreUnavailable, got {:?}",
            other.map(|_| "a session")
        ),
    }
    // Dropping the holder releases the lock; the directory opens again.
    drop(holder);
    let reopened = Caesura::try_with_config(lake, llm, config_with(tmp.persist()));
    assert!(reopened.is_ok(), "reopen failed: {:?}", reopened.err());
}

#[test]
fn corrupt_store_tail_recovers_and_the_session_proceeds() {
    let tmp = TempDir::new("corrupt");
    let queries = [
        "How many paintings are in the museum?",
        "How many paintings depict a horse?",
    ];
    let lake = generate_artwork(&ArtworkConfig::small()).lake;
    let llm: Arc<dyn LlmClient> = Arc::new(SimulatedLlm::gpt4());

    // Reference answers with no disk tier at all.
    let baseline: Vec<_> = {
        let session = Caesura::with_config(lake.clone(), Arc::clone(&llm), config_with(None));
        queries.iter().map(|q| session.run(q).output).collect()
    };

    // Populate the store, then corrupt both tiers' newest segments: truncate
    // the plans log mid-record and flip bits in the perception log's tail.
    {
        let session =
            Caesura::with_config(lake.clone(), Arc::clone(&llm), config_with(tmp.persist()));
        for query in &queries {
            assert!(session.run(query).output.is_ok());
        }
    }
    let persist = tmp.persist().unwrap();
    for (dir, flip_bits) in [
        (persist.plans_dir(), false),
        (persist.perception_dir(), true),
    ] {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("store dir exists")
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|e| e == "log"))
            .collect();
        segments.sort();
        let newest = segments.last().expect("at least one segment");
        let mut bytes = std::fs::read(newest).unwrap();
        assert!(bytes.len() > 24, "segment too small to corrupt");
        if flip_bits {
            let tail = bytes.len() - 9;
            bytes[tail] ^= 0xff;
            bytes[tail + 3] ^= 0x55;
        } else {
            bytes.truncate(bytes.len() - 7);
        }
        std::fs::write(newest, bytes).unwrap();
    }

    // Reopen: the damaged tail is dropped (cold misses), nothing panics, and
    // the session still answers every query correctly.
    let session = Caesura::with_config(lake, llm, config_with(tmp.persist()));
    for (query, expected) in queries.iter().zip(&baseline) {
        let run = session.run(query);
        assert_eq!(&run.output, expected, "answer diverged after corruption");
    }
}

#[test]
fn identities_are_isolated_in_a_shared_store() {
    let tmp = TempDir::new("identity");
    let lake = generate_artwork(&ArtworkConfig::small()).lake;
    let query = "How many paintings are in the museum?";

    // Session A (gpt-4 identity) populates the store.
    {
        let session = Caesura::with_config(
            lake.clone(),
            Arc::new(SimulatedLlm::gpt4()),
            config_with(tmp.persist()),
        );
        let run = session.run(query);
        assert!(run.output.is_ok());
        assert_eq!(run.trace.plan_cache_calls().insertions, 1);
    }

    // A different model identity sharing the directory never sees A's plans.
    {
        let session = Caesura::with_config(
            lake.clone(),
            Arc::new(SimulatedLlm::chatgpt35()),
            config_with(tmp.persist()),
        );
        let run = session.run(query);
        assert_eq!(
            run.trace.plan_source(),
            Some(PlanSource::Planned),
            "a chatgpt-3.5 session replayed a gpt-4 plan"
        );
        assert_eq!(run.trace.plan_cache_calls().disk_hits, 0);
    }

    // A different prompt configuration under the same model is isolated too.
    {
        let config = CaesuraConfig {
            example_values: 5,
            ..config_with(tmp.persist())
        };
        let session = Caesura::with_config(lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);
        let run = session.run(query);
        assert_eq!(run.trace.plan_source(), Some(PlanSource::Planned));
    }

    // So is LLM discovery: it decides which relevant columns the planning
    // prompt carries.
    {
        let config = CaesuraConfig {
            llm_discovery: true,
            ..config_with(tmp.persist())
        };
        let session = Caesura::with_config(lake.clone(), Arc::new(SimulatedLlm::gpt4()), config);
        let run = session.run(query);
        assert_eq!(
            run.trace.plan_source(),
            Some(PlanSource::Planned),
            "an llm-discovery session replayed a lexical-discovery plan"
        );
        assert_eq!(run.trace.plan_cache_calls().disk_hits, 0);
    }

    // The original identity still warm-hits from disk after all of that.
    {
        let session = Caesura::with_config(
            lake,
            Arc::new(SimulatedLlm::gpt4()),
            config_with(tmp.persist()),
        );
        let run = session.run(query);
        assert_eq!(run.trace.plan_source(), Some(PlanSource::Cached));
        assert_eq!(run.trace.plan_cache_calls().disk_hits, 1);
    }
}

/// The prompt format is part of what produced a stored decision, and the key
/// format is part of what a probe finds, so the plan identity carries a
/// format version. A store left behind by a build that mapped with
/// full-catalog prompts (`v1`) or keyed on literal-slotted templates (`v2`)
/// must read as empty.
#[test]
fn a_store_written_under_the_previous_prompt_version_is_a_cold_miss() {
    let tmp = TempDir::new("prompt-version");
    let persist = tmp.persist().unwrap();
    let lake = generate_artwork(&ArtworkConfig::small()).lake;
    let query = "How many paintings are in the museum?";
    let llm = SimulatedLlm::gpt4();
    let identity = |version: &str| {
        format!(
            "{}:{version}:few_shot=true:interleaved=true:examples=3:llm_discovery=false",
            llm.name()
        )
    };
    let fingerprint = schema_fingerprint(lake.catalog());
    let bare_cache = |version: &str| {
        let mut cache = PlanCacheConfig::new(8).build().unwrap();
        let store = Arc::new(CacheStore::open(persist.plans_dir()).unwrap());
        cache.attach_disk(store, identity(version));
        cache
    };

    // What the old builds left on disk: this query's validated plan, filed
    // under the same model and knobs at `v1` and at `v2`.
    let live =
        Caesura::with_config(lake.clone(), Arc::new(llm.clone()), config_with(None)).run(query);
    assert!(live.output.is_ok());
    for version in ["v1", "v2"] {
        let outcome = bare_cache(version).insert(
            &fingerprint,
            query,
            live.logical_plan.as_ref().unwrap(),
            &live.decisions,
        );
        assert!(matches!(
            outcome,
            PlanInsertOutcome::Inserted { written: true, .. }
        ));
    }

    // Today's session over that directory plans live and files its own entry.
    {
        let session = Caesura::with_config(
            lake.clone(),
            Arc::new(llm.clone()),
            config_with(tmp.persist()),
        );
        let run = session.run(query);
        assert_eq!(run.trace.plan_source(), Some(PlanSource::Planned));
        let calls = run.trace.plan_cache_calls();
        assert_eq!((calls.disk_hits, calls.insertions), (0, 1));
        assert_eq!(run.output, live.output);
    }

    // Control: the key this test derives is the key the session files under —
    // at `v3` the session's entry is found — so the `v1` and `v2` records
    // above were one version string away from being replayed. They are
    // still there, unread.
    for version in ["v3", "v2", "v1"] {
        let hit = bare_cache(version).lookup_tiered(&fingerprint, query);
        assert!(matches!(hit, Some((_, Tier::Disk))), "no {version} record");
    }
}

#[test]
fn results_are_byte_identical_across_cache_configurations_and_workers() {
    let queries = [
        "How many paintings are in the museum?",
        "How many paintings depict a horse?",
        "Plot the number of paintings depicting Madonna and Child for each century!",
    ];
    let lake = generate_artwork(&ArtworkConfig::small()).lake;
    let llm: Arc<dyn LlmClient> = Arc::new(SimulatedLlm::gpt4());

    let mut reference: Option<Vec<_>> = None;
    for workers in [1usize, 4] {
        for tier in ["off", "mem", "mem+disk"] {
            let tmp = TempDir::new(&format!("matrix-{workers}-{tier}"));
            let config = CaesuraConfig {
                session_workers: Some(workers),
                perception_cache: match tier {
                    "off" => Some(caesura_modal::CacheConfig::off()),
                    _ => None,
                },
                plan_cache: match tier {
                    "off" => Some(caesura_llm::PlanCacheConfig::off()),
                    _ => None,
                },
                ..config_with(match tier {
                    "mem+disk" => tmp.persist(),
                    _ => None,
                })
            };
            let session = Caesura::with_config(lake.clone(), Arc::clone(&llm), config);
            let handles: Vec<_> = queries.iter().map(|q| session.submit(q)).collect();
            let outputs: Vec<_> = handles.into_iter().map(|h| h.wait().output).collect();
            match &reference {
                None => reference = Some(outputs),
                Some(reference) => {
                    for ((query, output), expected) in queries.iter().zip(&outputs).zip(reference) {
                        assert_eq!(
                            output, expected,
                            "output diverged (workers={workers}, tier={tier}): {query}"
                        );
                    }
                }
            }
        }
    }
}

/// The hook of CI's store-attached pass: a no-op unless `CAESURA_CACHE_DIR`
/// is exported. The CI step runs this test binary twice against one temp
/// directory; this test detects which leg it is on by probing the store —
/// empty means cold (live planning populates it), non-empty means warm (the
/// whole workload must replay with zero planner and zero backend calls).
#[test]
fn env_cache_dir_runs_cold_then_warm() {
    let Some(persist) = PersistConfig::from_env() else {
        eprintln!("CAESURA_CACHE_DIR unset; skipping the store-attached leg");
        return;
    };
    // Probe-then-drop: the store lock must be released before the sessions
    // inside `run_benchmark` reopen the directory.
    let warm = {
        let store = CacheStore::open(persist.plans_dir()).expect("open the plans store");
        !store.is_empty()
    };
    let llm = Arc::new(CountingLlm::new(SimulatedLlm::gpt4()));
    let runs = run_benchmark(llm.clone(), Some(persist));
    assert!(runs.iter().all(|run| run.trace.plan_source().is_some()));
    if warm {
        for run in &runs {
            assert_eq!(
                run.trace.perception_calls().calls,
                0,
                "warm leg dispatched to a perception backend: {}",
                run.query
            );
            if run.trace.plan_source() == Some(PlanSource::Cached) {
                assert_eq!(
                    run.trace.llm_calls(),
                    0,
                    "warm leg planned live: {}",
                    run.query
                );
            }
        }
        let cached = runs
            .iter()
            .filter(|r| r.trace.plan_source() == Some(PlanSource::Cached))
            .count();
        assert!(cached >= 40, "warm leg only replayed {cached} of 48 plans");
        eprintln!(
            "warm leg: {cached}/48 plans from disk, {} LLM call(s)",
            llm.usage().calls
        );
    } else {
        assert!(llm.usage().calls > 0, "cold leg must plan live");
        eprintln!(
            "cold leg: {} LLM call(s), store populated",
            llm.usage().calls
        );
    }
}
