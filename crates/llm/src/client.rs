//! The language-model client abstraction.
//!
//! CAESURA is LLM-agnostic: the core planner only depends on the [`LlmClient`]
//! trait. The original prototype plugs GPT-4 / ChatGPT-3.5 in here; this
//! reproduction ships the deterministic [`SimulatedLlm`](crate::sim::SimulatedLlm)
//! plus a [`ScriptedLlm`] used in unit tests.

use crate::cancel::CancelToken;
use crate::chat::Conversation;
use crate::error::{LlmError, LlmResult};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A chat-completion language model.
pub trait LlmClient: Send + Sync {
    /// Complete a conversation, returning the model's text response.
    fn complete(&self, conversation: &Conversation) -> LlmResult<String>;

    /// Complete a batch of independent conversations with one dispatch,
    /// returning one result per conversation, in order.
    ///
    /// The default implementation loops over [`LlmClient::complete`]; remote
    /// backends override it to serve the whole batch in a single round trip
    /// (this is what the perception-operator batching layer in
    /// `caesura-modal` dispatches through — see `modal::batch`).
    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        conversations.iter().map(|c| self.complete(c)).collect()
    }

    /// Complete a conversation under a [`CancelToken`]: return
    /// [`LlmError::Cancelled`] instead of (or as soon as possible during) a
    /// dispatch once the token fires.
    ///
    /// The default implementation checks the token once and then delegates to
    /// [`LlmClient::complete`] — correct for instantaneous in-process models,
    /// where a dispatch never outlives a cancellation check. Transports whose
    /// dispatch blocks (remote APIs, the [`GatedLlm`] test double) override
    /// this to poll the token *while* the dispatch is in flight, which is
    /// what bounds cancellation latency below one full round trip.
    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        if cancel.is_cancelled() {
            return Err(LlmError::Cancelled);
        }
        self.complete(conversation)
    }

    /// Batch counterpart of [`LlmClient::complete_cancellable`]: one result
    /// per conversation, with [`LlmError::Cancelled`] for every conversation
    /// not served before the token fired.
    ///
    /// The default implementation checks the token once up front (failing the
    /// whole batch) and then delegates to [`LlmClient::complete_batch`].
    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        if cancel.is_cancelled() {
            return conversations
                .iter()
                .map(|_| Err(LlmError::Cancelled))
                .collect();
        }
        self.complete_batch(conversations)
    }

    /// Human-readable model name (appears in traces and reports).
    fn name(&self) -> &str;
}

/// Usage statistics collected by [`CountingLlm`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LlmUsage {
    /// Number of completed conversations (batched or not).
    pub calls: usize,
    /// Number of physical dispatches: one per [`LlmClient::complete`] call
    /// plus one per [`LlmClient::complete_batch`] call, however many
    /// conversations the batch carried. `calls - batches` conversations rode
    /// along in batches without their own round trip.
    pub batches: usize,
    /// Approximate prompt tokens across all calls.
    pub prompt_tokens: usize,
}

/// A wrapper that counts calls and approximate prompt tokens. The benchmark
/// harness uses this to report how many LLM round trips each query needs.
pub struct CountingLlm<C> {
    inner: C,
    calls: AtomicUsize,
    batches: AtomicUsize,
    prompt_tokens: AtomicUsize,
}

impl<C: LlmClient> CountingLlm<C> {
    /// Wrap a client.
    pub fn new(inner: C) -> Self {
        CountingLlm {
            inner,
            calls: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
            prompt_tokens: AtomicUsize::new(0),
        }
    }

    /// Usage so far.
    pub fn usage(&self) -> LlmUsage {
        LlmUsage {
            calls: self.calls.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            prompt_tokens: self.prompt_tokens.load(Ordering::Relaxed),
        }
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: LlmClient> LlmClient for CountingLlm<C> {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.prompt_tokens
            .fetch_add(conversation.approx_tokens(), Ordering::Relaxed);
        self.inner.complete(conversation)
    }

    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        self.calls.fetch_add(conversations.len(), Ordering::Relaxed);
        if !conversations.is_empty() {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.prompt_tokens.fetch_add(
            conversations.iter().map(|c| c.approx_tokens()).sum(),
            Ordering::Relaxed,
        );
        self.inner.complete_batch(conversations)
    }

    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.prompt_tokens
            .fetch_add(conversation.approx_tokens(), Ordering::Relaxed);
        self.inner.complete_cancellable(conversation, cancel)
    }

    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        self.calls.fetch_add(conversations.len(), Ordering::Relaxed);
        if !conversations.is_empty() {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.prompt_tokens.fetch_add(
            conversations.iter().map(|c| c.approx_tokens()).sum(),
            Ordering::Relaxed,
        );
        self.inner.complete_batch_cancellable(conversations, cancel)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<C: LlmClient + ?Sized> LlmClient for Arc<C> {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        (**self).complete(conversation)
    }

    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        (**self).complete_batch(conversations)
    }

    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        (**self).complete_cancellable(conversation, cancel)
    }

    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        (**self).complete_batch_cancellable(conversations, cancel)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A test double that replays a fixed sequence of responses.
pub struct ScriptedLlm {
    responses: Mutex<Vec<String>>,
    name: String,
}

impl ScriptedLlm {
    /// Build a scripted model from responses, returned in order.
    pub fn new(responses: Vec<String>) -> Self {
        ScriptedLlm {
            responses: Mutex::new(responses),
            name: "scripted".to_string(),
        }
    }
}

impl LlmClient for ScriptedLlm {
    fn complete(&self, _conversation: &Conversation) -> LlmResult<String> {
        let mut responses = self.responses.lock().expect("scripted responses lock");
        if responses.is_empty() {
            return Err(LlmError::ModelFailure {
                model: self.name.clone(),
                message: "the scripted model ran out of responses".into(),
            });
        }
        Ok(responses.remove(0))
    }

    /// Serve a whole batch under one lock acquisition, so concurrent batch
    /// dispatches each drain a contiguous run of scripted responses.
    ///
    /// Caveat: *which* contiguous run a batch drains depends on dispatch
    /// order, so under parallel multi-batch dispatch (e.g. behind
    /// `PerceptionLlm` with several batches and worker threads) responses
    /// are not deterministically assigned to requests. Scripted responses
    /// are positional, not keyed — use a content-keyed test double when a
    /// deterministic (input → answer) mapping matters.
    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        let mut responses = self.responses.lock().expect("scripted responses lock");
        conversations
            .iter()
            .map(|_| {
                if responses.is_empty() {
                    Err(LlmError::ModelFailure {
                        model: self.name.clone(),
                        message: "the scripted model ran out of responses".into(),
                    })
                } else {
                    Ok(responses.remove(0))
                }
            })
            .collect()
    }

    /// Cancellation-aware batch: the token is re-checked before each
    /// conversation, so a cancel that fires mid-batch fails the *remaining*
    /// conversations with [`LlmError::Cancelled`] without consuming their
    /// scripted responses (the script stays aligned for a later retry).
    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        let mut responses = self.responses.lock().expect("scripted responses lock");
        conversations
            .iter()
            .map(|_| {
                if cancel.is_cancelled() {
                    Err(LlmError::Cancelled)
                } else if responses.is_empty() {
                    Err(LlmError::ModelFailure {
                        model: self.name.clone(),
                        message: "the scripted model ran out of responses".into(),
                    })
                } else {
                    Ok(responses.remove(0))
                }
            })
            .collect()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// How often [`GatedLlm`]'s cancellable dispatch re-checks its
/// [`CancelToken`] while blocked at the gate. This is the bound on
/// mid-dispatch cancellation latency the tests assert.
const GATE_POLL_INTERVAL: Duration = Duration::from_millis(2);

struct Gate {
    entered: Mutex<bool>,
    entered_signal: Condvar,
    released: Mutex<bool>,
    release_signal: Condvar,
}

/// A test double that **holds its first dispatch open** until released,
/// simulating a slow remote round trip.
///
/// Wraps any inner [`LlmClient`]. The first completion (plain or
/// cancellable, single or batch) blocks at a gate; every later completion
/// passes straight through to the inner client. Tests coordinate with the
/// blocked dispatch through [`wait_entered`](GatedLlm::wait_entered) (block
/// until a worker is inside the gate) and [`release`](GatedLlm::release)
/// (open the gate permanently).
///
/// The cancellable entry points poll their [`CancelToken`] every
/// 2 ms while blocked and return [`LlmError::Cancelled`] as soon as it
/// fires — **without** the gate ever being released. This is the double
/// that proves mid-dispatch cancellation returns in bounded time while the
/// transport is still held open; the non-cancellable [`complete`] blocks
/// unconditionally, reproducing the pre-PR-8 "bounded by one full round
/// trip" behaviour.
///
/// [`complete`]: LlmClient::complete
pub struct GatedLlm<C> {
    inner: C,
    armed: AtomicBool,
    gate: Gate,
}

impl<C: LlmClient> GatedLlm<C> {
    /// Wrap a client; the gate arms for the first completion.
    pub fn new(inner: C) -> Self {
        GatedLlm {
            inner,
            armed: AtomicBool::new(true),
            gate: Gate {
                entered: Mutex::new(false),
                entered_signal: Condvar::new(),
                released: Mutex::new(false),
                release_signal: Condvar::new(),
            },
        }
    }

    /// Access the wrapped client.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Block until a dispatch is inside the gate (i.e. a worker thread is
    /// mid-"round trip"). Panics after `timeout` to keep hung tests visible.
    pub fn wait_entered(&self, timeout: Duration) {
        let mut entered = self.gate.entered.lock().expect("gate entered lock");
        while !*entered {
            let (guard, result) = self
                .gate
                .entered_signal
                .wait_timeout(entered, timeout)
                .expect("gate entered lock");
            entered = guard;
            assert!(
                !result.timed_out() || *entered,
                "no dispatch entered the gate within {timeout:?}"
            );
        }
    }

    /// Open the gate permanently: the blocked dispatch (if any) proceeds and
    /// all future dispatches pass through.
    pub fn release(&self) {
        let mut released = self.gate.released.lock().expect("gate released lock");
        *released = true;
        self.gate.release_signal.notify_all();
    }

    /// Pass the gate if this dispatch is the armed first one. `cancel` is
    /// polled while blocked; `None` (the non-cancellable entry points) blocks
    /// until release.
    fn pass_gate(&self, cancel: Option<&CancelToken>) -> LlmResult<()> {
        if !self.armed.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        {
            let mut entered = self.gate.entered.lock().expect("gate entered lock");
            *entered = true;
            self.gate.entered_signal.notify_all();
        }
        let mut released = self.gate.released.lock().expect("gate released lock");
        while !*released {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(LlmError::Cancelled);
                }
                released = self
                    .gate
                    .release_signal
                    .wait_timeout(released, GATE_POLL_INTERVAL)
                    .expect("gate released lock")
                    .0;
            } else {
                released = self
                    .gate
                    .release_signal
                    .wait(released)
                    .expect("gate released lock");
            }
        }
        Ok(())
    }
}

impl<C: LlmClient> LlmClient for GatedLlm<C> {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        self.pass_gate(None).expect("ungated wait cannot cancel");
        self.inner.complete(conversation)
    }

    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        self.pass_gate(None).expect("ungated wait cannot cancel");
        self.inner.complete_batch(conversations)
    }

    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        self.pass_gate(Some(cancel))?;
        self.inner.complete_cancellable(conversation, cancel)
    }

    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        if let Err(err) = self.pass_gate(Some(cancel)) {
            return conversations.iter().map(|_| Err(err.clone())).collect();
        }
        self.inner.complete_batch_cancellable(conversations, cancel)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chat::ChatMessage;

    #[test]
    fn scripted_llm_replays_in_order_then_fails() {
        let llm = ScriptedLlm::new(vec!["first".into(), "second".into()]);
        let convo = Conversation::new().with(ChatMessage::human("hi"));
        assert_eq!(llm.complete(&convo).unwrap(), "first");
        assert_eq!(llm.complete(&convo).unwrap(), "second");
        assert!(llm.complete(&convo).is_err());
    }

    #[test]
    fn counting_llm_tracks_calls_and_tokens() {
        let llm = CountingLlm::new(ScriptedLlm::new(vec!["a".into(), "b".into()]));
        let convo = Conversation::new().with(ChatMessage::human("one two three"));
        llm.complete(&convo).unwrap();
        llm.complete(&convo).unwrap();
        let usage = llm.usage();
        assert_eq!(usage.calls, 2);
        assert_eq!(usage.batches, 2);
        assert_eq!(usage.prompt_tokens, 6);
    }

    #[test]
    fn batch_completion_counts_one_dispatch_for_many_calls() {
        let llm = CountingLlm::new(ScriptedLlm::new(vec!["a".into(), "b".into(), "c".into()]));
        let convo = Conversation::new().with(ChatMessage::human("one two"));
        let batch = vec![convo.clone(), convo.clone(), convo.clone()];
        let results = llm.complete_batch(&batch);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_deref().unwrap(), "a");
        assert_eq!(results[2].as_deref().unwrap(), "c");
        let usage = llm.usage();
        assert_eq!(usage.calls, 3);
        assert_eq!(usage.batches, 1);
        assert_eq!(usage.prompt_tokens, 6);
    }

    #[test]
    fn scripted_batch_reports_exhaustion_per_conversation() {
        let llm = ScriptedLlm::new(vec!["only".into()]);
        let convo = Conversation::new();
        let results = llm.complete_batch(&[convo.clone(), convo.clone()]);
        assert_eq!(results[0].as_deref().unwrap(), "only");
        assert!(results[1].is_err());
    }

    #[test]
    fn default_complete_batch_loops_over_complete() {
        struct Echo;
        impl LlmClient for Echo {
            fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
                Ok(conversation.human_text())
            }
            fn name(&self) -> &str {
                "echo"
            }
        }
        let convos = vec![
            Conversation::new().with(ChatMessage::human("x")),
            Conversation::new().with(ChatMessage::human("y")),
        ];
        let results = Echo.complete_batch(&convos);
        assert_eq!(results[0].as_deref().unwrap(), "x");
        assert_eq!(results[1].as_deref().unwrap(), "y");
    }

    #[test]
    fn arc_wrapping_preserves_client_behaviour() {
        let llm: Arc<dyn LlmClient> = Arc::new(ScriptedLlm::new(vec!["x".into()]));
        let convo = Conversation::new();
        assert_eq!(llm.complete(&convo).unwrap(), "x");
        assert_eq!(llm.name(), "scripted");
    }

    #[test]
    fn default_cancellable_methods_check_the_token_up_front() {
        let llm = ScriptedLlm::new(vec!["kept".into()]);
        let convo = Conversation::new();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(
            llm.complete_cancellable(&convo, &cancel),
            Err(LlmError::Cancelled)
        );
        let active = CancelToken::new();
        assert_eq!(llm.complete_cancellable(&convo, &active).unwrap(), "kept");
    }

    #[test]
    fn scripted_cancellable_batch_fails_remaining_without_consuming_responses() {
        let llm = ScriptedLlm::new(vec!["a".into(), "b".into()]);
        let convo = Conversation::new();
        let cancel = CancelToken::new();
        cancel.cancel();
        let results = llm.complete_batch_cancellable(&[convo.clone(), convo.clone()], &cancel);
        assert_eq!(results[0], Err(LlmError::Cancelled));
        assert_eq!(results[1], Err(LlmError::Cancelled));
        // The script was not consumed by the cancelled batch.
        let fresh = CancelToken::new();
        let results = llm.complete_batch_cancellable(&[convo.clone(), convo.clone()], &fresh);
        assert_eq!(results[0].as_deref().unwrap(), "a");
        assert_eq!(results[1].as_deref().unwrap(), "b");
    }

    #[test]
    fn counting_llm_counts_cancellable_dispatches_identically() {
        let llm = CountingLlm::new(ScriptedLlm::new(vec!["a".into(), "b".into()]));
        let convo = Conversation::new().with(ChatMessage::human("one two three"));
        let cancel = CancelToken::new();
        llm.complete_cancellable(&convo, &cancel).unwrap();
        llm.complete_batch_cancellable(std::slice::from_ref(&convo), &cancel);
        let usage = llm.usage();
        assert_eq!(usage.calls, 2);
        assert_eq!(usage.batches, 2);
        assert_eq!(usage.prompt_tokens, 6);
    }

    #[test]
    fn gated_llm_cancel_interrupts_a_held_dispatch_in_bounded_time() {
        let llm = Arc::new(GatedLlm::new(ScriptedLlm::new(vec!["late".into()])));
        let cancel = CancelToken::new();
        let worker = {
            let llm = Arc::clone(&llm);
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                let convo = Conversation::new();
                llm.complete_cancellable(&convo, &cancel)
            })
        };
        llm.wait_entered(Duration::from_secs(30));
        let start = std::time::Instant::now();
        cancel.cancel();
        let result = worker.join().expect("dispatch thread");
        // Bounded by the gate's poll interval, not by a release that never
        // came. Generous bound to stay robust on a loaded 1-CPU host.
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(result, Err(LlmError::Cancelled));
        // The gate was consumed: later dispatches pass straight through.
        assert_eq!(llm.complete(&Conversation::new()).unwrap(), "late");
    }

    #[test]
    fn gated_llm_release_lets_the_held_dispatch_proceed() {
        let llm = Arc::new(GatedLlm::new(ScriptedLlm::new(vec!["served".into()])));
        let worker = {
            let llm = Arc::clone(&llm);
            std::thread::spawn(move || llm.complete(&Conversation::new()))
        };
        llm.wait_entered(Duration::from_secs(30));
        llm.release();
        assert_eq!(worker.join().expect("dispatch thread").unwrap(), "served");
    }

    #[test]
    fn gated_llm_deadline_expiry_interrupts_like_an_explicit_cancel() {
        let llm = Arc::new(GatedLlm::new(ScriptedLlm::new(vec!["late".into()])));
        let cancel =
            CancelToken::with_deadline(std::time::Instant::now() + Duration::from_millis(20));
        let start = std::time::Instant::now();
        let result = {
            let llm = Arc::clone(&llm);
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                llm.complete_batch_cancellable(&[Conversation::new()], &cancel)
            })
            .join()
            .expect("dispatch thread")
        };
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(result, vec![Err(LlmError::Cancelled)]);
    }
}
