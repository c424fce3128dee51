//! Bench-local wrappers around the injected [`LlmClient`]: a modelled round
//! trip ([`LatencyLlm`]) and a round-trip timer ([`TimedLlm`]).

use crate::spans::Recorder;
use caesura_llm::{CancelToken, Conversation, LlmClient, LlmError, LlmResult};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often a blocked [`LatencyLlm`] round trip re-checks its
/// [`CancelToken`]; the bound on mid-dispatch cancellation latency.
pub const CANCEL_POLL: Duration = Duration::from_millis(2);

/// A client whose every dispatch blocks for a modelled round trip before the
/// inner client answers: a fixed cost per dispatch plus a cost per 1,000
/// prompt tokens. A batch is one dispatch (one sleep for all its tokens).
pub struct LatencyLlm<C> {
    inner: C,
    per_dispatch: Duration,
    per_1k_tokens: Duration,
    recorder: Arc<Recorder>,
    /// Nanoseconds spent blocked while the recorder was enabled, so that a
    /// round trip the [`TimedLlm`] above timed splits into modelled delay and
    /// the inner client's own time.
    blocked_ns: AtomicU64,
}

impl<C: LlmClient> LatencyLlm<C> {
    /// Wrap `inner` with the given round-trip model.
    pub fn new(
        inner: C,
        per_dispatch: Duration,
        per_1k_tokens: Duration,
        recorder: Arc<Recorder>,
    ) -> Self {
        LatencyLlm {
            inner,
            per_dispatch,
            per_1k_tokens,
            recorder,
            blocked_ns: AtomicU64::new(0),
        }
    }

    /// The modelled round trip of a dispatch carrying `tokens` prompt tokens.
    pub fn delay_for(&self, tokens: usize) -> Duration {
        self.per_dispatch + self.per_1k_tokens.mul_f64(tokens as f64 / 1000.0)
    }

    /// Seconds the dispatches that started while the recorder was enabled
    /// spent blocked on the modelled delay.
    pub fn blocked_seconds(&self) -> f64 {
        self.blocked_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Block for `delay`, waking every [`CANCEL_POLL`] to check `cancel`.
    fn block(&self, delay: Duration, cancel: Option<&CancelToken>) -> LlmResult<()> {
        let recorded = self.recorder.is_enabled();
        let start = Instant::now();
        let outcome = loop {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                break Err(LlmError::Cancelled);
            }
            let remaining = delay.saturating_sub(start.elapsed());
            if remaining.is_zero() {
                break Ok(());
            }
            std::thread::sleep(remaining.min(CANCEL_POLL));
        };
        if recorded {
            // Relaxed: a statistic, read after the workers are done.
            self.blocked_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        outcome
    }
}

fn batch_tokens(conversations: &[Conversation]) -> usize {
    conversations.iter().map(Conversation::approx_tokens).sum()
}

impl<C: LlmClient> LlmClient for LatencyLlm<C> {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        self.block(self.delay_for(conversation.approx_tokens()), None)?;
        self.inner.complete(conversation)
    }

    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        let _ = self.block(self.delay_for(batch_tokens(conversations)), None);
        self.inner.complete_batch(conversations)
    }

    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        self.block(self.delay_for(conversation.approx_tokens()), Some(cancel))?;
        self.inner.complete_cancellable(conversation, cancel)
    }

    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        if let Err(error) = self.block(self.delay_for(batch_tokens(conversations)), Some(cancel)) {
            return conversations.iter().map(|_| Err(error.clone())).collect();
        }
        self.inner.complete_batch_cancellable(conversations, cancel)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One timed dispatch through [`TimedLlm`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrip {
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: f64,
    /// Prompt tokens the dispatch carried.
    pub prompt_tokens: usize,
    /// Hash of the first response, matched against the `response` events of
    /// the query traces to find the query that caused the round trip (the
    /// client interface carries no query identity).
    pub response_hash: u64,
}

impl RoundTrip {
    /// How long the dispatch took, milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The hash [`RoundTrip::response_hash`] uses.
pub fn response_hash(response: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    response.hash(&mut hasher);
    hasher.finish()
}

/// Times every dispatch into the wrapped client while its recorder is
/// enabled; a pass-through otherwise.
pub struct TimedLlm<C> {
    inner: C,
    recorder: Arc<Recorder>,
    round_trips: Mutex<Vec<RoundTrip>>,
}

impl<C: LlmClient> TimedLlm<C> {
    /// Wrap `inner`, timing against `recorder`'s epoch.
    pub fn new(inner: C, recorder: Arc<Recorder>) -> Self {
        TimedLlm {
            inner,
            recorder,
            round_trips: Mutex::new(Vec::new()),
        }
    }

    /// Every round trip timed so far, in completion order.
    pub fn round_trips(&self) -> Vec<RoundTrip> {
        self.round_trips
            .lock()
            .expect("no thread panics while holding the round-trip list")
            .clone()
    }

    fn timed<R>(
        &self,
        prompt_tokens: impl FnOnce() -> usize,
        first_response_hash: impl FnOnce(&R) -> u64,
        dispatch: impl FnOnce() -> R,
    ) -> R {
        if !self.recorder.is_enabled() {
            return dispatch();
        }
        let start_us = self.recorder.now_us();
        let result = dispatch();
        let end_us = self.recorder.now_us();
        let round_trip = RoundTrip {
            start_us,
            end_us,
            prompt_tokens: prompt_tokens(),
            response_hash: first_response_hash(&result),
        };
        self.round_trips
            .lock()
            .expect("no thread panics while holding the round-trip list")
            .push(round_trip);
        result
    }
}

/// Hash of a dispatch's first response; 0 when it failed or was empty.
fn hash_of(first: Option<&LlmResult<String>>) -> u64 {
    first
        .and_then(|response| response.as_deref().ok())
        .map_or(0, response_hash)
}

impl<C: LlmClient> LlmClient for TimedLlm<C> {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        self.timed(
            || conversation.approx_tokens(),
            |result: &LlmResult<String>| hash_of(Some(result)),
            || self.inner.complete(conversation),
        )
    }

    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        self.timed(
            || batch_tokens(conversations),
            |results: &Vec<LlmResult<String>>| hash_of(results.first()),
            || self.inner.complete_batch(conversations),
        )
    }

    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        self.timed(
            || conversation.approx_tokens(),
            |result: &LlmResult<String>| hash_of(Some(result)),
            || self.inner.complete_cancellable(conversation, cancel),
        )
    }

    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        self.timed(
            || batch_tokens(conversations),
            |results: &Vec<LlmResult<String>>| hash_of(results.first()),
            || self.inner.complete_batch_cancellable(conversations, cancel),
        )
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_llm::{ChatMessage, CountingLlm, ScriptedLlm};

    fn prompt() -> Conversation {
        Conversation::new().with(ChatMessage::human("How many stations are there?"))
    }

    #[test]
    fn latency_llm_blocks_for_the_modelled_round_trip() {
        let recorder = Arc::new(Recorder::new());
        let llm = LatencyLlm::new(
            ScriptedLlm::new(vec!["answer".into(), "again".into()]),
            Duration::from_millis(15),
            Duration::from_millis(5),
            Arc::clone(&recorder),
        );
        assert_eq!(llm.delay_for(2000), Duration::from_millis(25));
        let start = Instant::now();
        assert_eq!(llm.complete(&prompt()).unwrap(), "answer");
        assert!(start.elapsed() >= Duration::from_millis(15));
        // Blocked time is kept only for round trips the timer also sees.
        assert_eq!(llm.blocked_seconds(), 0.0);
        recorder.set_enabled(true);
        assert_eq!(llm.complete(&prompt()).unwrap(), "again");
        assert!(llm.blocked_seconds() >= 0.015);
    }

    #[test]
    fn latency_llm_returns_cancelled_within_one_poll_interval() {
        let inner = Arc::new(CountingLlm::new(ScriptedLlm::new(vec![
            "never served".into()
        ])));
        let llm = Arc::new(LatencyLlm::new(
            Arc::clone(&inner),
            Duration::from_secs(30),
            Duration::ZERO,
            Arc::new(Recorder::new()),
        ));
        let cancel = CancelToken::new();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let worker = {
            let (llm, cancel) = (Arc::clone(&llm), cancel.clone());
            std::thread::spawn(move || {
                entered_tx.send(()).expect("the test thread is receiving");
                let result = llm.complete_cancellable(&prompt(), &cancel);
                (result, Instant::now())
            })
        };
        entered_rx
            .recv()
            .expect("the worker signals before blocking");
        let cancelled_at = Instant::now();
        cancel.cancel();
        let (result, returned_at) = worker.join().expect("the worker does not panic");
        assert_eq!(result, Err(LlmError::Cancelled));
        // One poll interval, plus slack for the scheduler to run the worker.
        let reaction = returned_at.saturating_duration_since(cancelled_at);
        assert!(
            reaction < CANCEL_POLL + Duration::from_millis(50),
            "cancellation took {reaction:?}"
        );
        assert_eq!(inner.usage().calls, 0, "the inner client never ran");
    }

    #[test]
    fn timed_llm_records_only_while_enabled() {
        let recorder = Arc::new(Recorder::new());
        let llm = TimedLlm::new(
            ScriptedLlm::new(vec!["one".into(), "two".into()]),
            Arc::clone(&recorder),
        );
        llm.complete(&prompt()).unwrap();
        assert!(llm.round_trips().is_empty());
        recorder.set_enabled(true);
        llm.complete(&prompt()).unwrap();
        let trips = llm.round_trips();
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].response_hash, response_hash("two"));
        assert_eq!(trips[0].prompt_tokens, prompt().approx_tokens());
        assert!(trips[0].end_us >= trips[0].start_us);
    }
}
