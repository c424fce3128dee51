//! Concurrent session serving: the scheduler behind [`Caesura::submit`].
//!
//! The CAESURA loop spends most of its wall clock waiting on LLM round trips
//! (plan → map → execute, §3.1 of the paper), and PR 1–4 made everything
//! underneath `Caesura` concurrency-ready: `Arc`-shared tables, a sharded
//! perception cache, a morsel worker pool, `&self` queries. This module adds
//! the serving surface on top — a session-owned scheduler that lets N
//! in-flight queries share one lake, one retriever index, and one perception
//! cache:
//!
//! * the scheduler — a persistent worker pool (`CaesuraConfig.session_workers`
//!   / `CAESURA_SESSION_WORKERS`, default hardware parallelism) pulling jobs
//!   from a **bounded** submission queue (`CaesuraConfig.session_queue`,
//!   default 64). Since PR 8 the ready queue is
//!   tenant-aware (see [`sched`](crate::sched)): priority tiers preempt at
//!   dequeue, deficit round robin shares each tier across tenants, and
//!   per-tenant admission quotas bound queued + in-flight queries. A full
//!   queue applies backpressure: `submit` blocks until a slot frees, while
//!   the fail-fast `try_submit` / `submit_with` return a typed
//!   [`AdmissionError`]. Workers spawn lazily on the first submission and
//!   are joined when the session drops; at that point the queue is drained —
//!   every accepted query still completes.
//! * [`QueryHandle`] — the submitter's side of one scheduled query:
//!   blocking [`wait`](QueryHandle::wait) /
//!   [`wait_timeout`](QueryHandle::wait_timeout), non-blocking
//!   [`poll`](QueryHandle::poll) / [`status`](QueryHandle::status),
//!   cooperative [`cancel`](QueryHandle::cancel), and a live
//!   [`subscribe`](QueryHandle::subscribe) stream of trace events.
//! * [`ServingStats`] — aggregate queue-depth / in-flight / completed
//!   counters ([`Caesura::serving_stats`]), broken out per tenant by
//!   [`Caesura::tenant_stats`].
//!
//! [`Caesura::submit`]: crate::Caesura::submit
//! [`Caesura::serving_stats`]: crate::Caesura::serving_stats
//! [`Caesura::tenant_stats`]: crate::Caesura::tenant_stats

use crate::error::CoreError;
use crate::sched::{
    AdmissionError, Priority, SchedPolicy, SubmitOptions, TenantCounters, TenantQueues,
    TenantServingStats,
};
use crate::session::{QueryRun, SessionCore};
use crate::trace::{SchedulingInfo, TraceEvent};
use caesura_engine::ExecConfig;
use caesura_llm::CancelToken;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound of the submission queue when `CaesuraConfig.session_queue` is unset.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Lock a job-state mutex, recovering from poisoning: a panicking query is
/// caught and reported as `CoreError::Internal`, and the per-job state it
/// may have poisoned (result slot, subscriber list) must stay usable so the
/// submitter's `wait()` and the worker's cleanup still work.
fn lock_job<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Scheduler worker count described by the environment:
/// `CAESURA_SESSION_WORKERS`, or hardware parallelism when unset.
pub(crate) fn workers_from_env() -> usize {
    std::env::var("CAESURA_SESSION_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Where a submitted query currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Accepted into the submission queue, not yet picked up by a worker.
    Queued,
    /// A scheduler worker is running it.
    Running,
    /// The run finished (successfully, with an error, or cancelled) and its
    /// [`QueryRun`] is available.
    Finished,
}

/// Aggregate counters of a session's serving scheduler, read via
/// [`Caesura::serving_stats`](crate::Caesura::serving_stats). Per-tenant
/// breakdowns come from
/// [`Caesura::tenant_stats`](crate::Caesura::tenant_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Queries accepted but not yet picked up by a worker.
    pub queued: usize,
    /// Queries a worker is currently running.
    pub in_flight: usize,
    /// Queries that finished (including cancelled ones).
    pub completed: usize,
    /// Finished queries whose outcome was `CoreError::Cancelled`.
    pub cancelled: usize,
    /// Fail-fast submissions turned away with an
    /// [`AdmissionError`] (never enqueued, never
    /// counted anywhere else).
    pub rejected: usize,
    /// Worker threads of the scheduler pool.
    pub workers: usize,
    /// Bound of the submission queue.
    pub queue_depth: usize,
}

struct Slot {
    status: QueryStatus,
    result: Option<QueryRun>,
}

/// Shared state of one scheduled query: the cancel token, the result slot
/// the worker fills, the live trace subscribers, and its scheduling
/// identity (tenant / priority / deadline).
pub(crate) struct JobState {
    query: String,
    tenant: Arc<str>,
    priority: Priority,
    deadline: Option<Duration>,
    default_options: bool,
    cancel: CancelToken,
    slot: Mutex<Slot>,
    done: Condvar,
    subscribers: Arc<Mutex<Vec<Sender<TraceEvent>>>>,
    submitted: Instant,
    exec: ExecConfig,
}

impl JobState {
    fn new(query: &str, exec: ExecConfig, options: &SubmitOptions) -> Self {
        let cancel = match options.deadline {
            Some(budget) => CancelToken::with_deadline(Instant::now() + budget),
            None => CancelToken::new(),
        };
        JobState {
            query: query.to_string(),
            tenant: Arc::from(options.tenant_name()),
            priority: options.priority,
            deadline: options.deadline,
            default_options: options.is_default(),
            cancel,
            slot: Mutex::new(Slot {
                status: QueryStatus::Queued,
                result: None,
            }),
            done: Condvar::new(),
            subscribers: Arc::new(Mutex::new(Vec::new())),
            submitted: Instant::now(),
            exec,
        }
    }

    pub(crate) fn query(&self) -> &str {
        &self.query
    }

    pub(crate) fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    fn tenant(&self) -> &Arc<str> {
        &self.tenant
    }

    pub(crate) fn exec(&self) -> ExecConfig {
        self.exec
    }

    pub(crate) fn queue_wait(&self) -> Duration {
        self.submitted.elapsed()
    }

    /// The scheduling identity recorded in the run's trace — `None` for
    /// default-path submissions (default tenant, default priority, no
    /// deadline), whose traces stay byte-identical to the PR 5 scheduler.
    pub(crate) fn scheduling_info(&self) -> Option<SchedulingInfo> {
        if self.default_options {
            return None;
        }
        Some(SchedulingInfo {
            tenant: self.tenant.to_string(),
            priority: self.priority,
            deadline: self.deadline,
        })
    }

    /// A [`TraceSink`](crate::trace::TraceSink) forwarding events to every
    /// live subscriber. Holds only the subscriber list (not the job), so a
    /// stored `QueryRun` can never keep its own job state alive.
    pub(crate) fn subscriber_sink(&self) -> crate::trace::TraceSink {
        let subscribers = Arc::clone(&self.subscribers);
        Arc::new(move |event: &TraceEvent| {
            let mut subscribers = lock_job(&subscribers);
            subscribers.retain(|sender| sender.send(event.clone()).is_ok());
        })
    }

    fn mark_running(&self) {
        lock_job(&self.slot).status = QueryStatus::Running;
    }

    /// Store the finished run, wake waiters, and drop every subscriber
    /// sender so live streams see a disconnect and terminate.
    fn finish(&self, run: QueryRun) {
        {
            let mut slot = lock_job(&self.slot);
            slot.status = QueryStatus::Finished;
            slot.result = Some(run);
        }
        self.done.notify_all();
        lock_job(&self.subscribers).clear();
    }
}

/// The submitter's side of one query scheduled via
/// [`Caesura::submit`](crate::Caesura::submit) /
/// [`Caesura::submit_with`](crate::Caesura::submit_with).
///
/// # Drop semantics
///
/// Dropping a handle **detaches** it: the query is not cancelled — it still
/// runs (or finishes running), frees its scheduler slot, updates
/// [`ServingStats`], and warms the session's perception cache; only the
/// ability to observe its result is lost. Call [`QueryHandle::cancel`] first
/// if the work itself should stop.
///
/// # Cancellation semantics
///
/// [`cancel`](QueryHandle::cancel) is cooperative and returns immediately:
/// it fires a [`CancelToken`] the running query
/// checks between plan steps, before every LLM / perception dispatch, and —
/// for cancellation-aware transports — **while a dispatch is in flight**, so
/// cancellation latency is bounded by the transport's polling interval, not
/// by a full model round trip. At the next check the run stops with
/// [`CoreError::Cancelled`] and a `Phase::Recovery` "cancelled" trace event;
/// a query cancelled while still queued never executes at all (its run
/// record carries the cancellation trace event and zero LLM calls). A
/// submission deadline fires the same token when its budget expires.
pub struct QueryHandle {
    state: Arc<JobState>,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("query", &self.query())
            .field("tenant", &self.tenant())
            .field("priority", &self.priority())
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

impl QueryHandle {
    /// The query text this handle tracks.
    pub fn query(&self) -> &str {
        &self.state.query
    }

    /// The tenant this query was submitted under.
    pub fn tenant(&self) -> &str {
        &self.state.tenant
    }

    /// The priority tier this query was submitted at.
    pub fn priority(&self) -> Priority {
        self.state.priority
    }

    /// Non-blocking lifecycle probe.
    pub fn status(&self) -> QueryStatus {
        lock_job(&self.state.slot).status
    }

    /// Whether [`QueryHandle::cancel`] has been requested. (A pending
    /// deadline that has not expired — or expired without anyone asking —
    /// does not count as a cancel *request*.)
    pub fn is_cancelled(&self) -> bool {
        self.state.cancel.cancel_requested()
    }

    /// Non-blocking result probe: `Some(run)` once the query finished,
    /// `None` while it is queued or running. The handle stays usable — the
    /// returned run is a clone (cheap: tables are `Arc`-shared).
    pub fn poll(&self) -> Option<QueryRun> {
        lock_job(&self.state.slot).result.clone()
    }

    /// Block until the query finishes and return its run record. Equivalent
    /// to the pre-serving blocking API: `session.run(q)` is exactly
    /// `session.submit(q).wait()`.
    pub fn wait(self) -> QueryRun {
        let mut slot = lock_job(&self.state.slot);
        while slot.result.is_none() {
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        slot.result.take().expect("checked above")
    }

    /// Block until the query finishes or `timeout` elapses: `Some(run)` on
    /// completion, `None` on timeout. Unlike [`wait`](QueryHandle::wait)
    /// the handle stays usable (the run is a clone, like
    /// [`poll`](QueryHandle::poll)), so callers can keep waiting, cancel,
    /// or detach after a timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<QueryRun> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock_job(&self.state.slot);
        loop {
            if slot.result.is_some() {
                return slot.result.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            slot = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// Request cooperative cancellation (see the type-level docs for the
    /// exact semantics). Returns immediately; `wait` observes the outcome.
    pub fn cancel(&self) {
        self.state.cancel.cancel();
    }

    /// Subscribe to the query's trace events as they are recorded, instead
    /// of reading `QueryRun::trace` only after completion. Events recorded
    /// *after* this call are delivered; subscribing to a query that already
    /// started misses its earlier events (they are still in the final
    /// trace). The channel disconnects when the query finishes, so
    /// `for event in handle.subscribe()` terminates on its own.
    pub fn subscribe(&self) -> Receiver<TraceEvent> {
        let (sender, receiver) = channel();
        // Register under the subscriber lock; `finish` clears this list
        // after storing the result, so a sender registered to an
        // already-finished query would at worst linger until the job state
        // drops — guard with a status check to disconnect immediately.
        let slot = lock_job(&self.state.slot);
        if slot.status != QueryStatus::Finished {
            lock_job(&self.state.subscribers).push(sender);
        }
        drop(slot);
        receiver
    }
}

/// Everything the scheduler mutates under one mutex: the tenant-aware ready
/// queue and the per-tenant counters. One lock keeps admission (quota
/// checks against queued + in-flight) atomic with the queue itself.
struct SchedState {
    queues: TenantQueues<Arc<JobState>>,
    tenants: BTreeMap<Arc<str>, TenantCounters>,
}

struct Shared {
    state: Mutex<SchedState>,
    job_ready: Condvar,
    space_ready: Condvar,
    shutdown: AtomicBool,
    queued: AtomicUsize,
    in_flight: AtomicUsize,
    completed: AtomicUsize,
    cancelled: AtomicUsize,
    rejected: AtomicUsize,
    workers: usize,
    queue_depth: usize,
}

/// The session-owned scheduler: a bounded, tenant-aware submission queue
/// drained by a persistent pool of worker threads, each running queries
/// against the `Arc`-shared [`SessionCore`].
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    spawn: Once,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    pub(crate) fn new(workers: usize, queue_depth: usize, policy: SchedPolicy) -> Self {
        Scheduler {
            shared: Arc::new(Shared {
                state: Mutex::new(SchedState {
                    queues: TenantQueues::new(policy),
                    tenants: BTreeMap::new(),
                }),
                job_ready: Condvar::new(),
                space_ready: Condvar::new(),
                shutdown: AtomicBool::new(false),
                queued: AtomicUsize::new(0),
                in_flight: AtomicUsize::new(0),
                completed: AtomicUsize::new(0),
                cancelled: AtomicUsize::new(0),
                rejected: AtomicUsize::new(0),
                workers: workers.max(1),
                queue_depth: queue_depth.max(1),
            }),
            spawn: Once::new(),
            workers: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn stats(&self) -> ServingStats {
        ServingStats {
            queued: self.shared.queued.load(Ordering::Acquire),
            in_flight: self.shared.in_flight.load(Ordering::Acquire),
            completed: self.shared.completed.load(Ordering::Acquire),
            cancelled: self.shared.cancelled.load(Ordering::Acquire),
            rejected: self.shared.rejected.load(Ordering::Acquire),
            workers: self.shared.workers,
            queue_depth: self.shared.queue_depth,
        }
    }

    pub(crate) fn tenant_stats(&self) -> Vec<TenantServingStats> {
        let state = self.shared.state.lock().expect("submission queue lock");
        state
            .tenants
            .iter()
            .map(|(tenant, counters)| counters.snapshot(tenant))
            .collect()
    }

    /// Spawn the worker pool on first use (sessions that only construct —
    /// tests, config probes — never pay for idle threads).
    fn ensure_workers(&self, session: &Arc<SessionCore>) {
        self.spawn.call_once(|| {
            let mut workers = self.workers.lock().expect("scheduler worker lock");
            for index in 0..self.shared.workers {
                let shared = Arc::clone(&self.shared);
                let session = Arc::clone(session);
                let handle = std::thread::Builder::new()
                    .name(format!("caesura-serve-{index}"))
                    .spawn(move || worker_loop(shared, session))
                    .expect("failed to spawn a scheduler worker thread");
                workers.push(handle);
            }
        });
    }

    /// Enqueue a query, blocking while the submission queue is full or the
    /// tenant is at its quota (backpressure).
    pub(crate) fn submit(
        &self,
        session: &Arc<SessionCore>,
        query: &str,
        exec: ExecConfig,
        options: SubmitOptions,
    ) -> QueryHandle {
        self.submit_inner(session, query, exec, options, true)
            .expect(
                "a blocking submission is only rejected when the session is shutting down or the \
                 deadline budget is zero",
            )
    }

    /// Enqueue a query if it passes admission; a typed [`AdmissionError`]
    /// otherwise (the query was never enqueued).
    pub(crate) fn submit_with(
        &self,
        session: &Arc<SessionCore>,
        query: &str,
        exec: ExecConfig,
        options: SubmitOptions,
    ) -> Result<QueryHandle, AdmissionError> {
        self.submit_inner(session, query, exec, options, false)
    }

    fn submit_inner(
        &self,
        session: &Arc<SessionCore>,
        query: &str,
        exec: ExecConfig,
        options: SubmitOptions,
        blocking: bool,
    ) -> Result<QueryHandle, AdmissionError> {
        self.ensure_workers(session);
        let state = Arc::new(JobState::new(query, exec, &options));
        if let Some(deadline) = options.deadline {
            if deadline == Duration::ZERO {
                self.reject(state.tenant());
                return Err(AdmissionError::DeadlineUnmeetable { deadline });
            }
        }
        let mut sched = self.shared.state.lock().expect("submission queue lock");
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                drop(sched);
                self.reject(state.tenant());
                return Err(AdmissionError::ShuttingDown);
            }
            let queue_full = sched.queues.len() >= self.shared.queue_depth;
            let quota = sched.queues.policy().tenant_quota;
            let over_quota = quota.is_some_and(|quota| {
                sched
                    .tenants
                    .get(state.tenant())
                    .map(|c| c.queued + c.in_flight >= quota)
                    .unwrap_or(false)
            });
            if !queue_full && !over_quota {
                sched
                    .queues
                    .push(state.tenant(), state.priority, Arc::clone(&state));
                sched
                    .tenants
                    .entry(Arc::clone(state.tenant()))
                    .or_default()
                    .queued += 1;
                self.shared.queued.fetch_add(1, Ordering::AcqRel);
                drop(sched);
                self.shared.job_ready.notify_one();
                return Ok(QueryHandle { state });
            }
            if !blocking {
                // The more specific reason wins: a tenant at quota is told
                // so even when the queue is also full.
                let error = if over_quota {
                    AdmissionError::TenantOverQuota {
                        tenant: state.tenant().to_string(),
                        quota: quota.expect("over_quota implies a quota"),
                    }
                } else {
                    AdmissionError::QueueFull {
                        depth: self.shared.queue_depth,
                    }
                };
                drop(sched);
                self.reject(state.tenant());
                return Err(error);
            }
            sched = self
                .shared
                .space_ready
                .wait(sched)
                .expect("submission queue lock");
        }
    }

    /// Count a turned-away submission, globally and for its tenant.
    fn reject(&self, tenant: &Arc<str>) {
        self.shared.rejected.fetch_add(1, Ordering::AcqRel);
        let mut sched = self.shared.state.lock().expect("submission queue lock");
        sched
            .tenants
            .entry(Arc::clone(tenant))
            .or_default()
            .rejected += 1;
    }
}

impl Drop for Scheduler {
    /// Shut the pool down: workers drain the remaining queue (every accepted
    /// query still completes — detached handles included), then exit and are
    /// joined, so a dropped session never leaks scheduler threads.
    fn drop(&mut self) {
        {
            // Store the shutdown flag *under the queue mutex*: an idle worker
            // checks the flag while holding the lock and then releases it
            // atomically inside `job_ready.wait`, so a store + notify landing
            // in that check-to-wait window without the lock would be a lost
            // wakeup (the worker would sleep forever and `join` would hang).
            let _state = self.shared.state.lock().expect("submission queue lock");
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.job_ready.notify_all();
        self.shared.space_ready.notify_all();
        let mut workers = self.workers.lock().expect("scheduler worker lock");
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, session: Arc<SessionCore>) {
    loop {
        let job = {
            let mut sched = shared.state.lock().expect("submission queue lock");
            loop {
                if let Some(job) = sched.queues.pop() {
                    // Per-tenant pickup bookkeeping under the same lock that
                    // guards admission, so quota checks never see a torn
                    // queued/in-flight pair.
                    let wait = job.queue_wait();
                    let counters = sched.tenants.entry(Arc::clone(job.tenant())).or_default();
                    counters.queued = counters.queued.saturating_sub(1);
                    counters.in_flight += 1;
                    counters.queue_wait += wait;
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                sched = shared.job_ready.wait(sched).expect("submission queue lock");
            }
        };
        shared.queued.fetch_sub(1, Ordering::AcqRel);
        shared.space_ready.notify_all();
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        job.mark_running();
        // Catch panics from the query (a buggy operator, a panicking model
        // client): the submitter's `wait()` must still return — with
        // `CoreError::Internal` — and this worker must survive to serve
        // subsequent queries. Pre-serving, a panic in `run()` reached the
        // caller on its own thread; an unguarded panic here would instead
        // strand the waiter forever and silently shrink the pool.
        let run =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run_scheduled(&job)))
                .unwrap_or_else(|payload| {
                    let message = if let Some(text) = payload.downcast_ref::<&str>() {
                        (*text).to_string()
                    } else if let Some(text) = payload.downcast_ref::<String>() {
                        text.clone()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    QueryRun {
                        query: job.query().to_string(),
                        logical_plan: None,
                        decisions: Vec::new(),
                        output: Err(CoreError::Internal { message }),
                        trace: crate::trace::ExecutionTrace::new(),
                    }
                });
        let was_cancelled = matches!(run.output, Err(CoreError::Cancelled));
        // Update the counters *before* waking waiters: a submitter observing
        // `wait()` return must see its query in `completed`.
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared.completed.fetch_add(1, Ordering::AcqRel);
        if was_cancelled {
            shared.cancelled.fetch_add(1, Ordering::AcqRel);
        }
        {
            let mut sched = shared.state.lock().expect("submission queue lock");
            let counters = sched.tenants.entry(Arc::clone(job.tenant())).or_default();
            counters.in_flight = counters.in_flight.saturating_sub(1);
            counters.completed += 1;
            if was_cancelled {
                counters.cancelled += 1;
            }
        }
        // Completion frees a quota slot: wake submitters blocked on the
        // tenant quota, not just on queue space.
        shared.space_ready.notify_all();
        job.finish(run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_knobs_clamp_to_at_least_one() {
        // The constructor clamps that protect against zero knobs.
        let scheduler = Scheduler::new(0, 0, SchedPolicy::default());
        let stats = scheduler.stats();
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.rejected, 0);
        assert!(scheduler.tenant_stats().is_empty());
        assert_eq!(DEFAULT_QUEUE_DEPTH, 64);
    }

    #[test]
    fn handle_status_and_cancel_token_are_observable_before_scheduling() {
        let state = Arc::new(JobState::new(
            "q",
            ExecConfig::sequential(),
            &SubmitOptions::default(),
        ));
        let handle = QueryHandle {
            state: Arc::clone(&state),
        };
        assert_eq!(handle.status(), QueryStatus::Queued);
        assert_eq!(handle.query(), "q");
        assert_eq!(handle.tenant(), crate::sched::DEFAULT_TENANT);
        assert_eq!(handle.priority(), Priority::INTERACTIVE);
        assert!(handle.poll().is_none());
        assert!(!handle.is_cancelled());
        assert!(state.scheduling_info().is_none());
        handle.cancel();
        assert!(handle.is_cancelled());
        assert!(state.cancel_token().is_cancelled());
    }

    #[test]
    fn non_default_options_carry_scheduling_info() {
        let options = SubmitOptions::for_tenant("acme")
            .batch()
            .with_deadline(Duration::from_secs(9));
        let state = JobState::new("q", ExecConfig::sequential(), &options);
        let info = state.scheduling_info().expect("non-default submission");
        assert_eq!(info.tenant, "acme");
        assert_eq!(info.priority, Priority::BATCH);
        assert_eq!(info.deadline, Some(Duration::from_secs(9)));
        // The deadline budget armed the token.
        assert!(state.cancel_token().deadline().is_some());
        assert!(!state.cancel_token().is_cancelled());
    }

    #[test]
    fn wait_timeout_times_out_then_observes_completion() {
        let state = Arc::new(JobState::new(
            "q",
            ExecConfig::sequential(),
            &SubmitOptions::default(),
        ));
        let handle = QueryHandle {
            state: Arc::clone(&state),
        };
        assert!(handle.wait_timeout(Duration::from_millis(10)).is_none());
        state.finish(QueryRun {
            query: "q".into(),
            logical_plan: None,
            decisions: Vec::new(),
            output: Err(CoreError::Cancelled),
            trace: crate::trace::ExecutionTrace::new(),
        });
        let run = handle
            .wait_timeout(Duration::from_secs(5))
            .expect("finished");
        assert!(run.cancelled());
        // The handle stays usable after a successful wait_timeout.
        assert!(handle.poll().is_some());
    }

    #[test]
    fn subscribe_after_finish_disconnects_immediately() {
        let state = Arc::new(JobState::new(
            "q",
            ExecConfig::sequential(),
            &SubmitOptions::default(),
        ));
        state.finish(QueryRun {
            query: "q".into(),
            logical_plan: None,
            decisions: Vec::new(),
            output: Err(CoreError::Cancelled),
            trace: crate::trace::ExecutionTrace::new(),
        });
        let handle = QueryHandle { state };
        assert_eq!(handle.status(), QueryStatus::Finished);
        let receiver = handle.subscribe();
        // No sender was registered: the stream terminates without events.
        assert!(receiver.iter().next().is_none());
    }
}
