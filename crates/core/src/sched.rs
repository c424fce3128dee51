//! Tenant-aware scheduling policy: priority tiers, deficit-round-robin
//! tenant lanes, and typed admission control.
//!
//! PR 5's scheduler was a single FIFO: fine for one caller, but under mixed
//! traffic a batch tenant that floods the queue starves every interactive
//! query behind it, and a full queue can only *block* the submitter. This
//! module supplies the policy layer [`serving`](crate::serving) plugs in:
//!
//! * [`SubmitOptions`] — who a query belongs to ([tenant](SubmitOptions::tenant)),
//!   how urgent it is ([priority](SubmitOptions::priority)), and how long it
//!   may take ([deadline](SubmitOptions::deadline)).
//! * [`AdmissionError`] — the typed reasons a fail-fast submission is turned
//!   away: queue full, tenant over quota, deadline unmeetable, shutdown.
//! * `TenantQueues` (private) — the ready queue itself: priority tiers, each holding
//!   one FIFO lane per tenant, drained by deficit round robin. A higher tier
//!   always preempts a lower one **at dequeue** (running queries are never
//!   interrupted); within a tier, tenants share capacity in proportion to
//!   their configured weights.
//! * [`TenantServingStats`] — per-tenant counters surfaced through
//!   [`Caesura::tenant_stats`](crate::Caesura::tenant_stats).
//!
//! With one tenant at one priority (every default-path submission), a tiered
//! DRR queue degenerates to a FIFO — pop order equals push order — which is
//! what keeps the blocking wrappers byte-identical to the PR 5 scheduler
//! (`tests/serving_control_plane.rs` pins this).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Number of priority tiers the scheduler keeps: interactive above batch.
pub const PRIORITY_TIERS: usize = 2;

/// Scheduling priority of a submission: a tier index, lower = more urgent.
///
/// The scheduler dequeues strictly by tier — an [interactive](Priority::INTERACTIVE)
/// query always runs before a queued [batch](Priority::BATCH) one — so tiers
/// express *preemption at dequeue*, while weights within a tier express
/// *sharing*. Priorities beyond the [`PRIORITY_TIERS`] tiers are clamped to
/// the lowest tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(u8);

impl Priority {
    /// The most urgent tier (0): short, latency-sensitive queries.
    pub const INTERACTIVE: Priority = Priority(0);
    /// The default background tier (1): throughput-oriented bulk work.
    pub const BATCH: Priority = Priority(1);

    /// An explicit tier index (0 = most urgent).
    pub const fn tier(index: u8) -> Priority {
        Priority(index)
    }

    /// This priority's tier index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl Default for Priority {
    /// Interactive: the default-path wrappers (`submit`/`run`/`query`)
    /// submit at the most urgent tier, so their behaviour is unchanged by
    /// batch traffic — and byte-identical to PR 5 when no batch traffic
    /// exists.
    fn default() -> Self {
        Priority::INTERACTIVE
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "interactive"),
            1 => write!(f, "batch"),
            tier => write!(f, "tier {tier}"),
        }
    }
}

/// The tenant name used when a submission does not specify one.
pub const DEFAULT_TENANT: &str = "default";

/// Options of one submission via
/// [`Caesura::submit_with`](crate::Caesura::submit_with).
///
/// The default value — default tenant, [`Priority::INTERACTIVE`], no
/// deadline — is exactly what the plain `submit`/`try_submit`/`run`/`query`
/// wrappers use.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// The tenant this query belongs to; `None` means [`DEFAULT_TENANT`].
    /// Each tenant gets its own FIFO lane in the scheduler and its own
    /// row in [`Caesura::tenant_stats`](crate::Caesura::tenant_stats).
    pub tenant: Option<String>,
    /// The priority tier (see [`Priority`]).
    pub priority: Priority,
    /// Optional deadline **budget**, measured from submission. When it
    /// expires the query's cancel token fires: a queued query never starts,
    /// a running one stops at its next checkpoint or mid-dispatch (for
    /// cancellation-aware transports), reporting `CoreError::Cancelled`. A
    /// zero budget is rejected at admission as
    /// [`AdmissionError::DeadlineUnmeetable`].
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

    /// Set the priority to [`Priority::BATCH`].
    pub fn batch(mut self) -> Self {
        self.priority = Priority::BATCH;
        self
    }

    /// Set an explicit priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
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
    /// The tenant already has `quota` queries queued or in flight
    /// (`CaesuraConfig.tenant_quota`).
    TenantOverQuota {
        /// The tenant that hit its quota.
        tenant: String,
        /// The configured per-tenant quota.
        quota: usize,
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
            AdmissionError::TenantOverQuota { tenant, quota } => write!(
                f,
                "tenant '{tenant}' is at its admission quota of {quota} queued + in-flight queries"
            ),
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

/// The scheduling policy a session's scheduler runs under, resolved once at
/// session construction from `CaesuraConfig`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SchedPolicy {
    /// Per-tenant bound on queued + in-flight queries; `None` = unlimited.
    pub tenant_quota: Option<usize>,
    /// DRR weight per tenant name; unlisted tenants weigh 1.
    pub weights: Vec<(String, u32)>,
}

impl SchedPolicy {
    /// The DRR weight of a tenant (≥ 1).
    fn weight_of(&self, tenant: &str) -> u32 {
        self.weights
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|&(_, weight)| weight.max(1))
            .unwrap_or(1)
    }
}

/// The tier a priority lands in: its index, clamped to the lowest tier.
fn effective_tier(priority: Priority) -> usize {
    priority.index().min(PRIORITY_TIERS - 1)
}

/// Per-tenant serving counters, read via
/// [`Caesura::tenant_stats`](crate::Caesura::tenant_stats). The aggregate
/// counters across all tenants equal
/// [`ServingStats`](crate::ServingStats)' corresponding fields.
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
    /// the number tier preemption improves for interactive tenants under
    /// batch floods (`core.sched.interactive.latency_p95_ms` of the
    /// `blocked_serving` workload, `BENCHMARK.json`).
    pub total_queue_wait: Duration,
}

/// Running per-tenant counters, kept under the scheduler's queue mutex.
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub queued: usize,
    pub in_flight: usize,
    pub completed: usize,
    pub cancelled: usize,
    pub rejected: usize,
    pub queue_wait: Duration,
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

/// One tenant's FIFO lane within a tier.
struct Lane<T> {
    tenant: Arc<str>,
    weight: u32,
    /// Deficit counter: how many more pops this lane may take before the
    /// round-robin cursor moves on. Refilled to `weight` when the cursor
    /// arrives with the counter at zero.
    deficit: u32,
    queue: VecDeque<T>,
}

/// One priority tier: tenant lanes drained by deficit round robin.
struct Tier<T> {
    lanes: Vec<Lane<T>>,
    cursor: usize,
}

impl<T> Tier<T> {
    fn new() -> Self {
        Tier {
            lanes: Vec::new(),
            cursor: 0,
        }
    }

    fn lane_mut(&mut self, tenant: &Arc<str>, weight: u32) -> &mut Lane<T> {
        if let Some(index) = self.lanes.iter().position(|l| l.tenant == *tenant) {
            return &mut self.lanes[index];
        }
        self.lanes.push(Lane {
            tenant: Arc::clone(tenant),
            weight: weight.max(1),
            deficit: 0,
            queue: VecDeque::new(),
        });
        self.lanes.last_mut().expect("just pushed")
    }

    /// Deficit round robin: starting at the cursor, skip empty lanes
    /// (zeroing their deficit so they restart fresh), refill the first
    /// non-empty lane's deficit if exhausted, and pop one item at a cost of
    /// one deficit unit. The cursor stays on a lane until its deficit (=
    /// weight) is spent, so a weight-w tenant takes w consecutive pops per
    /// round before yielding.
    fn pop(&mut self) -> Option<T> {
        let lanes = self.lanes.len();
        // Two sweeps bound the scan: one may spend skipping empty lanes,
        // the second is guaranteed to land on a non-empty lane if any.
        for _ in 0..lanes.saturating_mul(2) {
            let cursor = self.cursor;
            let lane = &mut self.lanes[cursor];
            if lane.queue.is_empty() {
                lane.deficit = 0;
                self.cursor = (cursor + 1) % lanes;
                continue;
            }
            if lane.deficit == 0 {
                lane.deficit = lane.weight;
            }
            lane.deficit -= 1;
            let item = lane.queue.pop_front();
            if lane.queue.is_empty() {
                lane.deficit = 0;
            }
            if lane.deficit == 0 {
                self.cursor = (cursor + 1) % lanes;
            }
            return item;
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.queue.is_empty())
    }
}

/// The scheduler's ready queue: priority tiers over per-tenant DRR lanes.
///
/// Generic over the queued item so the policy is unit-testable without
/// constructing job state; the serving layer instantiates it with
/// `Arc<JobState>`.
pub(crate) struct TenantQueues<T> {
    policy: SchedPolicy,
    tiers: Vec<Tier<T>>,
    len: usize,
}

impl<T> TenantQueues<T> {
    pub(crate) fn new(policy: SchedPolicy) -> Self {
        TenantQueues {
            tiers: (0..PRIORITY_TIERS).map(|_| Tier::new()).collect(),
            policy,
            len: 0,
        }
    }

    pub(crate) fn policy(&self) -> &SchedPolicy {
        &self.policy
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Enqueue an item on its tenant's lane in the priority's (clamped)
    /// tier.
    pub(crate) fn push(&mut self, tenant: &Arc<str>, priority: Priority, item: T) {
        self.len += 1;
        let tier = effective_tier(priority);
        let weight = self.policy.weight_of(tenant);
        self.tiers[tier]
            .lane_mut(tenant, weight)
            .queue
            .push_back(item);
    }

    /// Dequeue the next item: the highest non-empty tier wins (interactive
    /// preempts batch **at dequeue**), DRR across that tier's tenants.
    pub(crate) fn pop(&mut self) -> Option<T> {
        for tier in &mut self.tiers {
            if tier.is_empty() {
                continue;
            }
            if let Some(item) = tier.pop() {
                self.len -= 1;
                return Some(item);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    fn drain<T>(queues: &mut TenantQueues<T>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(item) = queues.pop() {
            out.push(item);
        }
        out
    }

    #[test]
    fn single_tenant_single_priority_is_fifo() {
        let mut queues = TenantQueues::new(SchedPolicy::default());
        let a = tenant(DEFAULT_TENANT);
        for i in 0..5 {
            queues.push(&a, Priority::default(), i);
        }
        assert_eq!(queues.len(), 5);
        assert_eq!(drain(&mut queues), vec![0, 1, 2, 3, 4]);
        assert_eq!(queues.len(), 0);
    }

    #[test]
    fn higher_tier_preempts_lower_at_dequeue() {
        let mut queues = TenantQueues::new(SchedPolicy::default());
        let a = tenant("a");
        queues.push(&a, Priority::BATCH, "b1");
        queues.push(&a, Priority::BATCH, "b2");
        queues.push(&a, Priority::INTERACTIVE, "i1");
        assert_eq!(queues.pop(), Some("i1"));
        queues.push(&a, Priority::INTERACTIVE, "i2");
        assert_eq!(drain(&mut queues), vec!["i2", "b1", "b2"]);
    }

    #[test]
    fn equal_weight_tenants_alternate_within_a_tier() {
        let mut queues = TenantQueues::new(SchedPolicy::default());
        let (a, b) = (tenant("a"), tenant("b"));
        for i in 0..3 {
            queues.push(&a, Priority::default(), format!("a{i}"));
        }
        for i in 0..3 {
            queues.push(&b, Priority::default(), format!("b{i}"));
        }
        assert_eq!(drain(&mut queues), vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn weights_give_proportionally_more_consecutive_pops() {
        let mut queues = TenantQueues::new(SchedPolicy {
            weights: vec![("heavy".to_string(), 2)],
            ..SchedPolicy::default()
        });
        let (heavy, light) = (tenant("heavy"), tenant("light"));
        for i in 0..4 {
            queues.push(&heavy, Priority::default(), format!("h{i}"));
        }
        for i in 0..2 {
            queues.push(&light, Priority::default(), format!("l{i}"));
        }
        // weight 2 vs 1: heavy takes two pops per round.
        assert_eq!(drain(&mut queues), vec!["h0", "h1", "l0", "h2", "h3", "l1"]);
    }

    #[test]
    fn priorities_clamp_to_the_lowest_tier() {
        assert_eq!(effective_tier(Priority::INTERACTIVE), 0);
        assert_eq!(effective_tier(Priority::BATCH), 1);
        assert_eq!(effective_tier(Priority::tier(7)), 1);
    }

    #[test]
    fn an_emptied_lane_restarts_with_a_fresh_deficit() {
        let mut queues = TenantQueues::new(SchedPolicy::default());
        let (a, b) = (tenant("a"), tenant("b"));
        queues.push(&a, Priority::default(), "a0");
        assert_eq!(queues.pop(), Some("a0"));
        // Lane `a` went empty; later traffic interleaves fairly from scratch.
        queues.push(&a, Priority::default(), "a1");
        queues.push(&a, Priority::default(), "a2");
        queues.push(&b, Priority::default(), "b0");
        let order = drain(&mut queues);
        assert_eq!(order.len(), 3);
        // b0 is not starved behind both a's.
        assert!(order[..2].contains(&"b0"), "order was {order:?}");
    }

    #[test]
    fn submit_options_defaults_and_builders() {
        let default = SubmitOptions::new();
        assert!(default.is_default());
        assert_eq!(default.tenant_name(), DEFAULT_TENANT);
        assert_eq!(default.priority, Priority::INTERACTIVE);
        assert!(default.deadline.is_none());

        let options = SubmitOptions::for_tenant("acme")
            .batch()
            .with_deadline(Duration::from_secs(5));
        assert!(!options.is_default());
        assert_eq!(options.tenant_name(), "acme");
        assert_eq!(options.priority, Priority::BATCH);
        assert_eq!(options.deadline, Some(Duration::from_secs(5)));
        assert!(!SubmitOptions::new().batch().is_default());
        assert_eq!(
            SubmitOptions::new()
                .with_priority(Priority::tier(3))
                .priority,
            Priority::tier(3)
        );
    }

    #[test]
    fn admission_errors_display_their_cause() {
        assert!(AdmissionError::QueueFull { depth: 4 }
            .to_string()
            .contains("full"));
        let text = AdmissionError::TenantOverQuota {
            tenant: "acme".into(),
            quota: 2,
        }
        .to_string();
        assert!(text.contains("acme") && text.contains('2'));
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
    fn priority_display_names_the_well_known_tiers() {
        assert_eq!(Priority::INTERACTIVE.to_string(), "interactive");
        assert_eq!(Priority::BATCH.to_string(), "batch");
        assert_eq!(Priority::tier(3).to_string(), "tier 3");
        assert!(Priority::INTERACTIVE < Priority::BATCH);
    }
}
