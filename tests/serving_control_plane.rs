//! The multi-tenant serving control plane (PR 8): typed admission, priority
//! preemption, and the guarantee that neither changes default-path
//! behaviour.
//!
//! These tests pin:
//!
//! * **byte-identity**: default-tenant / default-priority submissions
//!   produce exactly the outputs *and traces* of a serial `run` baseline,
//!   across worker counts {1, 4};
//! * **typed admission**: `submit_with` distinguishes `QueueFull` and
//!   `DeadlineUnmeetable`, and every decline is on the books as a rejection;
//! * **priority preemption**: an interactive submission is dequeued before
//!   batch work that was queued earlier;
//! * **`wait_timeout`**: returns `None` while the query runs, `Some(run)`
//!   once it finishes, and leaves the handle usable;
//! * **observability**: non-default submissions stamp their scheduling
//!   decision into the trace (and render it); default submissions do not.

use caesura::core::{AdmissionError, SubmitOptions};
use caesura::eval::{evaluate_fieldwork, evaluate_fieldwork_concurrent, EvaluationConfig};
use caesura::llm::{CancelToken, Conversation, GatedLlm, LlmClient, LlmResult};
use caesura::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const GATE_WAIT: Duration = Duration::from_secs(30);

/// Relational artwork queries (no perception calls): distinct texts, so the
/// plan cache never collapses their dispatches and each query's first LLM
/// round trip marks the moment a worker picked it up.
const SUITE: &[&str] = &[
    "How many paintings are in the museum?",
    "How many paintings belong to the Impressionism movement?",
    "What is the earliest inception year of any painting?",
    "How many paintings did Clara Moreau paint?",
    "For each movement, how many paintings are there?",
    "For each genre, how many paintings are there?",
];

/// Wraps the gated simulated model and records, in dispatch order, which
/// suite query each *first* LLM round trip belongs to — the scheduler's
/// dequeue order made observable.
struct RecordingLlm {
    inner: Arc<GatedLlm<SimulatedLlm>>,
    order: Mutex<Vec<usize>>,
}

impl RecordingLlm {
    fn new(inner: Arc<GatedLlm<SimulatedLlm>>) -> Self {
        RecordingLlm {
            inner,
            order: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, conversation: &Conversation) {
        let text = conversation.human_text();
        if let Some(index) = SUITE.iter().position(|query| text.contains(query)) {
            let mut order = self.order.lock().unwrap();
            if !order.contains(&index) {
                order.push(index);
            }
        }
    }

    fn first_seen(&self) -> Vec<usize> {
        self.order.lock().unwrap().clone()
    }
}

impl LlmClient for RecordingLlm {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        self.record(conversation);
        self.inner.complete(conversation)
    }

    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        self.record(conversation);
        self.inner.complete_cancellable(conversation, cancel)
    }

    fn name(&self) -> &str {
        "recording-gated-gpt4"
    }
}

fn artwork_session_with(config: CaesuraConfig, llm: Arc<dyn LlmClient>) -> Caesura {
    let data = generate_artwork(&ArtworkConfig::small());
    Caesura::with_config(data.lake, llm, config)
}

#[test]
fn default_submissions_match_a_serial_run_baseline() {
    // With the default tenant and default priority, the ready queue is a
    // plain FIFO: whatever the worker count, submissions produce the outputs and
    // traces of a one-worker session driven through the blocking `run`
    // (trace equality covers every event, phase sequence, and counter;
    // timings and scheduling metadata are excluded from `PartialEq` by
    // design). Queries are submitted serially (submit → wait) so worker
    // count cannot reorder cache warm-up between the two runs.
    let session_with = |workers: usize| {
        let config = CaesuraConfig {
            session_workers: Some(workers),
            ..CaesuraConfig::default()
        };
        artwork_session_with(config, Arc::new(SimulatedLlm::gpt4()))
    };
    let serial = session_with(1);
    let baseline: Vec<QueryRun> = SUITE.iter().map(|query| serial.run(query)).collect();
    for workers in [1usize, 4] {
        let session = session_with(workers);
        let submitted = SUITE.iter().map(|query| session.submit(query).wait());
        for ((query, run), reference) in SUITE.iter().zip(submitted).zip(&baseline) {
            assert!(reference.succeeded(), "'{query}' failed in the baseline");
            assert!(run.succeeded(), "workers={workers}: '{query}' failed");
            assert_eq!(
                run.output.as_ref().unwrap(),
                reference.output.as_ref().unwrap(),
                "workers={workers}: output diverged for '{query}'"
            );
            assert_eq!(
                run.trace, reference.trace,
                "workers={workers}: trace diverged for '{query}'"
            );
            // Default-path submissions carry no scheduling metadata at all.
            assert!(run.trace.scheduling().is_none());
            assert!(reference.trace.scheduling().is_none());
        }
    }
}

#[test]
fn typed_admission_distinguishes_queue_full_and_deadline() {
    let gated = Arc::new(GatedLlm::new(SimulatedLlm::gpt4()));
    let config = CaesuraConfig {
        session_workers: Some(1),
        session_queue: Some(2),
        ..CaesuraConfig::default()
    };
    let session = artwork_session_with(config, Arc::clone(&gated) as Arc<dyn LlmClient>);

    // A zero deadline can never be met: rejected up front, before any queue
    // accounting.
    let zero = session.submit_with(SUITE[0], SubmitOptions::new().with_deadline(Duration::ZERO));
    assert!(
        matches!(zero, Err(AdmissionError::DeadlineUnmeetable { .. })),
        "expected DeadlineUnmeetable, got {zero:?}"
    );

    // Tenant "flood" occupies the worker (held at the LLM gate) and one of
    // the two queue slots; tenant "other" takes the second slot.
    let running = session
        .submit_with(SUITE[0], SubmitOptions::for_tenant("flood"))
        .expect("empty session admits");
    gated.wait_entered(GATE_WAIT);
    let queued = session
        .submit_with(SUITE[1], SubmitOptions::for_tenant("flood"))
        .expect("two queue slots free");
    let other = session
        .submit_with(SUITE[2], SubmitOptions::for_tenant("other"))
        .expect("one queue slot free");

    // Now the queue is full, whichever tenant asks.
    for tenant in ["third", "flood"] {
        let full = session.submit_with(SUITE[3], SubmitOptions::for_tenant(tenant));
        assert!(
            matches!(full, Err(AdmissionError::QueueFull { depth: 2 })),
            "{tenant}: expected QueueFull, got {full:?}"
        );
    }

    gated.release();
    for handle in [running, queued, other] {
        assert!(handle.wait().succeeded());
    }

    // Every decline above is on the books, globally and per tenant.
    let stats = session.serving_stats();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.completed, 3);
    let tenants = session.tenant_stats();
    let rejected_of = |name: &str| {
        tenants
            .iter()
            .find(|t| t.tenant == name)
            .map(|t| t.rejected)
            .unwrap_or(0)
    };
    assert_eq!(rejected_of("default"), 1, "the zero-deadline submission");
    assert_eq!(rejected_of("flood"), 1);
    assert_eq!(rejected_of("third"), 1);
    assert_eq!(rejected_of("other"), 0);
}

#[test]
fn interactive_submissions_preempt_queued_batch_work_at_dequeue() {
    let gated = Arc::new(GatedLlm::new(SimulatedLlm::gpt4()));
    let recorder = Arc::new(RecordingLlm::new(Arc::clone(&gated)));
    let config = CaesuraConfig {
        session_workers: Some(1),
        session_queue: Some(16),
        ..CaesuraConfig::default()
    };
    let session = artwork_session_with(config, Arc::clone(&recorder) as Arc<dyn LlmClient>);

    // b1 occupies the single worker, held at the gate; b2 and b3 queue
    // behind it at batch priority, then i1 arrives at interactive priority.
    let batch = SubmitOptions::for_tenant("bulk").batch();
    let b1 = session.submit_with(SUITE[0], batch.clone()).unwrap();
    gated.wait_entered(GATE_WAIT);
    let b2 = session.submit_with(SUITE[1], batch.clone()).unwrap();
    let b3 = session.submit_with(SUITE[2], batch).unwrap();
    let i1 = session
        .submit_with(SUITE[3], SubmitOptions::for_tenant("dash"))
        .unwrap();
    gated.release();

    for handle in [b1, b2, b3, i1] {
        assert!(handle.wait().succeeded());
    }

    // Interactive work drains first at every dequeue: i1 jumps the two
    // batch queries that were queued before it.
    assert_eq!(
        recorder.first_seen(),
        vec![0, 3, 1, 2],
        "expected b1, i1, b2, b3"
    );

    // The non-default submissions carried their scheduling decision into
    // the per-tenant stats.
    let tenants = session.tenant_stats();
    assert_eq!(tenants.len(), 2);
    assert!(tenants
        .iter()
        .any(|t| t.tenant == "bulk" && t.completed == 3));
    assert!(tenants
        .iter()
        .any(|t| t.tenant == "dash" && t.completed == 1));
}

/// Fieldwork-lake queries whose plans chain 3+ steps across modalities:
/// join + perception (image or text extraction) + aggregation, one with a
/// plot stage on top. The heavyweight shape multi-tenant serving must keep
/// deterministic.
const FIELDWORK_SUITE: &[&str] = &[
    "What is the maximum number of specimens collected by each station?",
    "What is the maximum number of tents depicted in the station photos of each terrain?",
    "Plot the number of station photos depicting a penguin for each region!",
    "What is the average number of flags depicted in the station photos of each region?",
];

#[test]
fn tenants_racing_fieldwork_queries_match_serial_baselines_and_balance_counters() {
    // Serial ground truth: one query at a time on a single worker, plan
    // cache off so every run plans live and its trace is deterministic.
    let serial_config = || CaesuraConfig {
        session_workers: Some(1),
        plan_cache: Some(caesura::llm::PlanCacheConfig::off()),
        ..CaesuraConfig::default()
    };
    let fieldwork_session = |config: CaesuraConfig| {
        let data = generate_fieldwork(&FieldworkConfig::small());
        Caesura::with_config(
            data.lake,
            Arc::new(SimulatedLlm::gpt4()) as Arc<dyn LlmClient>,
            config,
        )
    };
    let baseline: Vec<QueryRun> = {
        let session = fieldwork_session(serial_config());
        FIELDWORK_SUITE
            .iter()
            .map(|query| session.run(query))
            .collect()
    };
    for (query, run) in FIELDWORK_SUITE.iter().zip(&baseline) {
        assert!(
            run.succeeded(),
            "baseline '{query}' failed: {:?}",
            run.output
        );
    }

    // Two tenants race disjoint halves of the multi-step suite through one
    // shared session: interleaved submissions, 4 workers, shared scheduler.
    // The halves are disjoint because the perception cache is shared — two
    // tenants running the *same* query would let one warm the other's
    // perception rows, and its trace could no longer match a cold serial
    // baseline.
    let session = fieldwork_session(CaesuraConfig {
        session_workers: Some(4),
        plan_cache: Some(caesura::llm::PlanCacheConfig::off()),
        ..CaesuraConfig::default()
    });
    let tenant_of = |index: usize| {
        if index.is_multiple_of(2) {
            "alpha"
        } else {
            "beta"
        }
    };
    let handles: Vec<(&str, usize, QueryHandle)> = FIELDWORK_SUITE
        .iter()
        .enumerate()
        .map(|(index, query)| {
            let tenant = tenant_of(index);
            let handle = session
                .submit_with(query, SubmitOptions::for_tenant(tenant))
                .expect("the queue has space");
            (tenant, index, handle)
        })
        .collect();

    for (tenant, index, handle) in handles {
        let run = handle.wait();
        let query = FIELDWORK_SUITE[index];
        assert!(
            run.succeeded(),
            "tenant {tenant} failed '{query}': {:?}",
            run.output
        );
        assert_eq!(
            run.output.as_ref().unwrap(),
            baseline[index].output.as_ref().unwrap(),
            "tenant {tenant}: output diverged from serial baseline for '{query}'"
        );
        // Trace equality covers events, LLM-call counters, perception
        // counters, and plan source; scheduling metadata and timings are
        // excluded by design, so a racing tenant run must reproduce the
        // serial trace exactly.
        assert_eq!(
            run.trace, baseline[index].trace,
            "tenant {tenant}: trace diverged from serial baseline for '{query}'"
        );
        assert_eq!(
            run.trace.scheduling().map(|s| s.tenant.as_str()),
            Some(tenant)
        );
    }

    // The books balance, globally and per tenant.
    let stats = session.serving_stats();
    assert_eq!(stats.completed, FIELDWORK_SUITE.len());
    assert_eq!(stats.rejected, 0);
    let tenants = session.tenant_stats();
    assert_eq!(tenants.len(), 2);
    for tenant in tenants {
        assert_eq!(tenant.completed, FIELDWORK_SUITE.len() / 2);
        assert_eq!(tenant.rejected, 0);
        assert!(tenant.tenant == "alpha" || tenant.tenant == "beta");
    }
}

#[test]
fn the_fieldwork_suite_meets_every_expectation_when_scheduled_concurrently() {
    // All 42 queries go through one scheduler at once: every one completes,
    // every clean oracle holds, and every adversarial query still fails the
    // way it is expected to — scheduling never turns a typed execution error
    // into a NULL or the other way round.
    let config = EvaluationConfig::small();
    let serial = evaluate_fieldwork(&config);
    let serving = evaluate_fieldwork_concurrent(&config, 4);
    assert_eq!(serving.results.len(), serial.results.len());
    assert_eq!(serial.expectation_accuracy(|_| true), 1.0);
    assert_eq!(serving.expectation_accuracy(|_| true), 1.0);
}

#[test]
fn wait_timeout_expires_while_running_and_returns_the_run_after() {
    let gated = Arc::new(GatedLlm::new(SimulatedLlm::gpt4()));
    let config = CaesuraConfig {
        session_workers: Some(1),
        ..CaesuraConfig::default()
    };
    let session = artwork_session_with(config, Arc::clone(&gated) as Arc<dyn LlmClient>);

    let handle = session.submit(SUITE[0]);
    gated.wait_entered(GATE_WAIT);
    // Held at the gate: the bounded wait must give up, not block.
    assert!(handle.wait_timeout(Duration::from_millis(50)).is_none());
    assert_eq!(handle.status(), QueryStatus::Running);

    gated.release();
    let run = handle
        .wait_timeout(Duration::from_secs(30))
        .expect("released query finishes well within the bound");
    assert!(run.succeeded());
    // The handle stays usable after a successful bounded wait.
    assert_eq!(handle.status(), QueryStatus::Finished);
    assert!(handle.poll().is_some());
}

#[test]
fn non_default_submissions_stamp_their_scheduling_decision_into_the_trace() {
    let session = artwork_session_with(
        CaesuraConfig::default(),
        Arc::new(SimulatedLlm::gpt4()) as Arc<dyn LlmClient>,
    );

    let options = SubmitOptions::for_tenant("reporting")
        .batch()
        .with_deadline(Duration::from_secs(600));
    let run = session.submit_with(SUITE[0], options).unwrap().wait();
    assert!(run.succeeded(), "failed: {:?}", run.output);
    let info = run
        .trace
        .scheduling()
        .expect("non-default submission carries scheduling metadata");
    assert_eq!(info.tenant, "reporting");
    let rendered = run.trace.render(false);
    assert!(
        rendered.contains("tenant 'reporting'") && rendered.contains("priority batch"),
        "scheduling line missing from the rendered trace:\n{rendered}"
    );

    // The default path stays clean.
    let default_run = session.submit(SUITE[0]).wait();
    assert!(default_run.trace.scheduling().is_none());
    assert!(!default_run.trace.render(false).contains("== Scheduling"));
}
