//! Scheduling vocabulary of the serving layer: priorities, submission
//! options, typed admission control, and the ready queue.
//!
//! PR 5's scheduler was a single FIFO: fine for one caller, but under mixed
//! traffic a batch flood starves every interactive query behind it, and a
//! full queue can only *block* the submitter. This module supplies the
//! policy [`serving`](crate::serving) plugs in:
//!
//! * [`SubmitOptions`] — who a query belongs to ([tenant](SubmitOptions::tenant)),
//!   how urgent it is ([priority](SubmitOptions::priority)), and how long it
//!   may take ([deadline](SubmitOptions::deadline)).
//! * [`AdmissionError`] — the typed reasons a fail-fast submission is turned
//!   away: queue full, deadline unmeetable, shutdown.
//! * `ReadyQueue` (private) — one FIFO per [`Priority`]. Interactive work
//!   always preempts batch work **at dequeue** (running queries are never
//!   interrupted). The tenant labels a query's handle, trace and stats row
//!   but does not order dequeue.
//! * [`TenantServingStats`] — per-tenant counters surfaced through
//!   [`Caesura::tenant_stats`](crate::Caesura::tenant_stats).
//!
//! At one priority (every default-path submission) pop order equals push
//! order, which keeps the blocking wrappers byte-identical to the PR 5
//! scheduler (`tests/serving_control_plane.rs` pins this).

use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// Scheduling priority of a submission.
///
/// The scheduler dequeues strictly by priority: an
/// [interactive](Priority::Interactive) query always runs before a queued
/// [batch](Priority::Batch) one. Priorities express *preemption at
/// dequeue*; running queries are never interrupted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Short, latency-sensitive queries. The default: the plain
    /// `submit`/`run`/`query` wrappers submit here, so their behaviour is
    /// unchanged by batch traffic — and byte-identical to PR 5 when no
    /// batch traffic exists.
    #[default]
    Interactive,
    /// Throughput-oriented bulk work, served when no interactive query
    /// waits.
    Batch,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        })
    }
}

/// The tenant name used when a submission does not specify one.
pub const DEFAULT_TENANT: &str = "default";

/// Options of one submission via
/// [`Caesura::submit_with`](crate::Caesura::submit_with).
///
/// The default value — default tenant, [`Priority::Interactive`], no
/// deadline — is exactly what the plain `submit`/`try_submit`/`run`/`query`
/// wrappers use.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// The tenant this query belongs to; `None` means [`DEFAULT_TENANT`].
    /// Each tenant gets its own row in
    /// [`Caesura::tenant_stats`](crate::Caesura::tenant_stats).
    pub tenant: Option<String>,
    /// The priority (see [`Priority`]).
    pub priority: Priority,
    /// Optional deadline **budget**, measured from submission. When it
    /// expires the query's cancel token fires: a queued query never starts,
    /// a running one stops at its next checkpoint or mid-dispatch (for
    /// cancellation-aware transports), reporting `CoreError::Cancelled`. A
    /// zero budget is rejected at admission as
    /// [`AdmissionError::DeadlineUnmeetable`]; a budget too large to add to
    /// the current instant arms no deadline.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Default options: default tenant, interactive priority, no deadline.
    pub fn new() -> Self {
        SubmitOptions::default()
    }

    /// Options for a named tenant (interactive, no deadline).
    pub fn for_tenant(tenant: impl Into<String>) -> Self {
        SubmitOptions {
            tenant: Some(tenant.into()),
            ..SubmitOptions::default()
        }
    }

    /// Set the priority to [`Priority::Batch`].
    pub fn batch(mut self) -> Self {
        self.priority = Priority::Batch;
        self
    }

    /// Set a deadline budget, measured from submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The effective tenant name.
    pub fn tenant_name(&self) -> &str {
        self.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// Whether these options are indistinguishable from a plain `submit`:
    /// such submissions carry no [`SchedulingInfo`](crate::SchedulingInfo)
    /// in their trace, keeping default-path runs byte-identical to PR 5.
    pub(crate) fn is_default(&self) -> bool {
        self.tenant_name() == DEFAULT_TENANT
            && self.priority == Priority::default()
            && self.deadline.is_none()
    }
}

/// Why a fail-fast submission ([`Caesura::submit_with`] /
/// [`Caesura::try_submit`]) was turned away. The query was **not** enqueued;
/// nothing ran and no handle exists.
///
/// [`Caesura::submit_with`]: crate::Caesura::submit_with
/// [`Caesura::try_submit`]: crate::Caesura::try_submit
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The submission queue is at capacity (`CaesuraConfig.session_queue`).
    /// Retry after backoff, or use the blocking `submit` for backpressure.
    QueueFull {
        /// The queue bound that was hit.
        depth: usize,
    },
    /// The requested deadline budget cannot possibly be met (it was zero —
    /// already expired at submission time).
    DeadlineUnmeetable {
        /// The rejected budget.
        deadline: Duration,
    },
    /// The session is shutting down and accepts no new queries.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { depth } => {
                write!(f, "the submission queue is full ({depth} slots)")
            }
            AdmissionError::DeadlineUnmeetable { deadline } => write!(
                f,
                "the deadline budget of {deadline:?} is unmeetable (already expired at submission)"
            ),
            AdmissionError::ShuttingDown => {
                write!(f, "the session is shutting down and accepts no new queries")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Per-tenant serving counters, read via
/// [`Caesura::tenant_stats`](crate::Caesura::tenant_stats). The counters
/// summed across all tenants are [`ServingStats`](crate::ServingStats)'
/// corresponding fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantServingStats {
    /// The tenant name ([`DEFAULT_TENANT`] for plain submissions).
    pub tenant: String,
    /// Queries accepted but not yet picked up by a worker.
    pub queued: usize,
    /// Queries a worker is currently running.
    pub in_flight: usize,
    /// Queries that finished (including cancelled ones).
    pub completed: usize,
    /// Finished queries whose outcome was `CoreError::Cancelled`.
    pub cancelled: usize,
    /// Fail-fast submissions turned away with an [`AdmissionError`].
    pub rejected: usize,
    /// Total time this tenant's picked-up queries spent waiting in the
    /// queue. Divide by `completed + in_flight` for the mean queue wait —
    /// the number priority preemption improves for interactive tenants
    /// under batch floods (`core.sched.interactive.latency_p95_ms` of the
    /// `blocked_serving` workload, `BENCHMARK.json`).
    pub total_queue_wait: Duration,
}

/// Running per-tenant counters, kept under the scheduler's queue mutex.
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub(crate) queued: usize,
    pub(crate) in_flight: usize,
    pub(crate) completed: usize,
    pub(crate) cancelled: usize,
    pub(crate) rejected: usize,
    pub(crate) queue_wait: Duration,
}

impl TenantCounters {
    pub(crate) fn snapshot(&self, tenant: &str) -> TenantServingStats {
        TenantServingStats {
            tenant: tenant.to_string(),
            queued: self.queued,
            in_flight: self.in_flight,
            completed: self.completed,
            cancelled: self.cancelled,
            rejected: self.rejected,
            total_queue_wait: self.queue_wait,
        }
    }
}

/// The scheduler's ready queue: one FIFO per priority, interactive first.
///
/// Generic over the queued item so the policy is unit-testable without
/// constructing job state; the serving layer instantiates it with
/// `Arc<JobState>`.
pub(crate) struct ReadyQueue<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
}

impl<T> ReadyQueue<T> {
    pub(crate) fn new() -> Self {
        ReadyQueue {
            interactive: VecDeque::new(),
            batch: VecDeque::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// Enqueue an item at the back of its priority's FIFO.
    pub(crate) fn push(&mut self, priority: Priority, item: T) {
        match priority {
            Priority::Interactive => self.interactive.push_back(item),
            Priority::Batch => self.batch.push_back(item),
        }
    }

    /// Dequeue the next item: interactive preempts batch **at dequeue**.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(queue: &mut ReadyQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| queue.pop()).collect()
    }

    #[test]
    fn one_priority_is_fifo() {
        let mut queue = ReadyQueue::new();
        for i in 0..5 {
            queue.push(Priority::default(), i);
        }
        assert_eq!(queue.len(), 5);
        assert_eq!(drain(&mut queue), vec![0, 1, 2, 3, 4]);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn interactive_preempts_batch_at_dequeue() {
        let mut queue = ReadyQueue::new();
        queue.push(Priority::Batch, "b1");
        queue.push(Priority::Batch, "b2");
        queue.push(Priority::Interactive, "i1");
        assert_eq!(queue.pop(), Some("i1"));
        queue.push(Priority::Interactive, "i2");
        assert_eq!(queue.len(), 3);
        assert_eq!(drain(&mut queue), vec!["i2", "b1", "b2"]);
    }

    #[test]
    fn submit_options_defaults_and_builders() {
        let default = SubmitOptions::new();
        assert!(default.is_default());
        assert_eq!(default.tenant_name(), DEFAULT_TENANT);
        assert_eq!(default.priority, Priority::Interactive);
        assert!(default.deadline.is_none());

        let options = SubmitOptions::for_tenant("acme")
            .batch()
            .with_deadline(Duration::from_secs(5));
        assert!(!options.is_default());
        assert_eq!(options.tenant_name(), "acme");
        assert_eq!(options.priority, Priority::Batch);
        assert_eq!(options.deadline, Some(Duration::from_secs(5)));
        assert!(!SubmitOptions::new().batch().is_default());
    }

    #[test]
    fn admission_errors_display_their_cause() {
        assert!(AdmissionError::QueueFull { depth: 4 }
            .to_string()
            .contains("full"));
        assert!(AdmissionError::DeadlineUnmeetable {
            deadline: Duration::ZERO,
        }
        .to_string()
        .contains("unmeetable"));
        assert!(AdmissionError::ShuttingDown
            .to_string()
            .contains("shutting down"));
    }

    #[test]
    fn priority_display_names_both_priorities() {
        assert_eq!(Priority::Interactive.to_string(), "interactive");
        assert_eq!(Priority::Batch.to_string(), "batch");
        assert!(Priority::Interactive < Priority::Batch);
    }
}
