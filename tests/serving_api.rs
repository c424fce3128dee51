//! The concurrent serving surface (PR 5): `Caesura::submit` returning
//! `QueryHandle`s, the blocking-wrapper equivalence guarantee, bounded
//! submission queues, handle-drop detach semantics, and live trace streams.
//!
//! The central invariant pinned here: **`run(q)` is byte-identical to
//! `submit(q).wait()`** — outputs, trace event sequences, and perception
//! stats — across the full artwork and Rotowire benchmark suites. `run` *is*
//! implemented as `submit(q).wait()`, but this test drives both call forms
//! through fresh sessions so the equivalence is proven against independent
//! scheduler/cache state, not by construction alone.

use caesura::eval::{benchmark_queries, fieldwork_queries, Dataset};
use caesura::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn wait_for(mut condition: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn run_is_byte_identical_to_submit_wait_on_all_suites() {
    for dataset in [Dataset::Artwork, Dataset::Rotowire, Dataset::Fieldwork] {
        // Two fresh sessions with identical configuration and seeds: one
        // driven through the blocking wrapper, one through the serving API.
        // Fresh sessions keep the perception caches aligned query by query,
        // so even the cache-hit counters must match exactly.
        let (blocking, serving) = match dataset {
            Dataset::Artwork => {
                let data = generate_artwork(&ArtworkConfig::small());
                (
                    Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4())),
                    Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4())),
                )
            }
            Dataset::Rotowire => {
                let data = generate_rotowire(&RotowireConfig::small());
                (
                    Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4())),
                    Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4())),
                )
            }
            Dataset::Fieldwork => {
                let data = generate_fieldwork(&FieldworkConfig::small());
                (
                    Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4())),
                    Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4())),
                )
            }
        };
        // The fieldwork suite runs on the *clean* small lake here — the
        // equivalence is about byte-identity of the two call forms, and it
        // must hold for the adversarial phrasings' error paths too.
        let suite = match dataset {
            Dataset::Fieldwork => fieldwork_queries(),
            _ => benchmark_queries(),
        };
        for query in suite.iter().filter(|q| q.dataset == dataset) {
            let via_run = blocking.run(query.text);
            let via_submit = serving.submit(query.text).wait();
            assert_eq!(
                via_run.output, via_submit.output,
                "output diverged for {}",
                query.id
            );
            // Trace equality covers the full event sequence, LLM-call and
            // prompt-token counters, and the perception accounting
            // (timings are measurement metadata, excluded by design).
            assert_eq!(
                via_run.trace, via_submit.trace,
                "trace diverged for {}",
                query.id
            );
            assert_eq!(
                via_run.trace.perception_calls(),
                via_submit.trace.perception_calls(),
                "perception stats diverged for {}",
                query.id
            );
            assert_eq!(
                via_run.logical_plan, via_submit.logical_plan,
                "plan diverged for {}",
                query.id
            );
            assert_eq!(
                via_run.decisions, via_submit.decisions,
                "decisions diverged for {}",
                query.id
            );
        }
    }
}

#[test]
fn handles_report_lifecycle_and_stats_track_completion() {
    let data = generate_artwork(&ArtworkConfig::small());
    let config = CaesuraConfig {
        session_workers: Some(2),
        session_queue: Some(4),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config);
    let stats = session.serving_stats();
    assert_eq!((stats.workers, stats.queue_depth), (2, 4));

    let queries = [
        "How many paintings are in the museum?",
        "How many paintings depict a horse?",
        "For each movement, how many paintings are there?",
    ];
    let handles: Vec<QueryHandle> = queries.iter().map(|q| session.submit(q)).collect();
    for (handle, query) in handles.iter().zip(queries) {
        assert_eq!(handle.query(), query);
    }
    let runs: Vec<QueryRun> = handles.into_iter().map(|h| h.wait()).collect();
    assert!(runs.iter().all(|r| r.succeeded()));
    assert!(runs.iter().all(|r| r.latency() > Duration::ZERO));

    let stats = session.serving_stats();
    assert_eq!(stats.completed, queries.len());
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn dropped_handles_detach_and_the_query_still_completes() {
    use caesura::llm::CountingLlm;
    let data = generate_artwork(&ArtworkConfig::small());
    let llm = Arc::new(CountingLlm::new(SimulatedLlm::gpt4()));
    let config = CaesuraConfig {
        session_workers: Some(1),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake, llm.clone(), config);

    // Submit and immediately drop the handle: the query must still run to
    // completion and free its scheduler slot.
    drop(session.submit("How many paintings are in the museum?"));
    wait_for(
        || session.serving_stats().completed == 1,
        "the detached query to complete",
    );
    let stats = session.serving_stats();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(
        llm.usage().calls > 0,
        "the detached query must actually have run"
    );
}

#[test]
fn a_panicking_query_reports_internal_error_and_the_worker_survives() {
    use caesura::llm::{Conversation, LlmResult};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Panics on the first completion, then behaves normally — simulating a
    /// bug in a model client or operator.
    struct PanicOnceLlm {
        inner: SimulatedLlm,
        armed: AtomicBool,
    }
    impl LlmClient for PanicOnceLlm {
        fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
            if self.armed.swap(false, Ordering::AcqRel) {
                panic!("injected model panic");
            }
            self.inner.complete(conversation)
        }
        fn name(&self) -> &str {
            "panic-once"
        }
    }

    let data = generate_artwork(&ArtworkConfig::small());
    let config = CaesuraConfig {
        // One worker: if the panic killed it, the second query could never
        // run and this test would hang instead of passing.
        session_workers: Some(1),
        ..CaesuraConfig::default()
    };
    let llm = Arc::new(PanicOnceLlm {
        inner: SimulatedLlm::gpt4(),
        armed: AtomicBool::new(true),
    });
    let session = Caesura::with_config(data.lake, llm, config);

    let poisoned = session
        .submit("How many paintings are in the museum?")
        .wait();
    match &poisoned.output {
        Err(CoreError::Internal { message }) => {
            assert!(message.contains("injected model panic"), "got: {message}")
        }
        other => panic!("expected CoreError::Internal, got {other:?}"),
    }
    // The pool survived the unwind: the next query runs on the same worker.
    let recovered = session
        .submit("How many paintings are in the museum?")
        .wait();
    assert!(
        recovered.succeeded(),
        "failed: {:?}",
        recovered.output.err()
    );
    let stats = session.serving_stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn concurrent_submissions_share_one_perception_cache() {
    // Eight copies of one multi-modal query submitted concurrently: the
    // session's shared cache must collapse repeated backend work, and every
    // result must match the serial reference.
    let data = generate_rotowire(&RotowireConfig::small());
    let reference_session = Caesura::new(data.lake.clone(), Arc::new(SimulatedLlm::gpt4()));
    let query = "For every team, what is the highest number of points they scored in a game?";
    let expected = reference_session.query(query).expect("reference failed");

    let config = CaesuraConfig {
        session_workers: Some(4),
        session_queue: Some(8),
        ..CaesuraConfig::default()
    };
    let session = Caesura::with_config(data.lake, Arc::new(SimulatedLlm::gpt4()), config);
    let handles: Vec<_> = (0..8).map(|_| session.submit(query)).collect();
    for handle in handles {
        let run = handle.wait();
        assert_eq!(run.output.expect("concurrent run failed"), expected);
    }
    let cache = session.perception_cache().expect("the cache defaults on");
    assert!(
        cache.stats().hits > 0,
        "eight identical queries must share cached perception answers"
    );
}
