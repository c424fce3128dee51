//! Execution traces: a readable record of every phase, prompt, response,
//! decision, observation, and recovery attempt of one query.
//!
//! The trace is what the `figure2_pipeline` binary prints to reproduce the
//! multi-phase prompting picture of the paper, and what the evaluation crate
//! inspects to categorize errors (Table 2).

use crate::sched::Priority;
use caesura_modal::PerceptionCalls;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The phase a trace event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Data discovery (retrieval + column relevance).
    Discovery,
    /// Logical-plan generation.
    Planning,
    /// Operator mapping (one event per step).
    Mapping,
    /// Operator execution.
    Execution,
    /// Error analysis / recovery.
    Recovery,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] = [
        Phase::Discovery,
        Phase::Planning,
        Phase::Mapping,
        Phase::Execution,
        Phase::Recovery,
    ];

    fn index(self) -> usize {
        match self {
            Phase::Discovery => 0,
            Phase::Planning => 1,
            Phase::Mapping => 2,
            Phase::Execution => 3,
            Phase::Recovery => 4,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Phase::Discovery => "Discovery",
            Phase::Planning => "Planning",
            Phase::Mapping => "Mapping",
            Phase::Execution => "Execution",
            Phase::Recovery => "Recovery",
        };
        f.write_str(name)
    }
}

/// One event of the execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Which phase produced the event.
    pub phase: Phase,
    /// Short label ("prompt", "response", "decision", "observation", "error", ...).
    pub label: String,
    /// The event payload (prompt text, observation text, error message, ...).
    pub detail: String,
}

/// Where a query's logical plan (and its operator decisions) came from.
///
/// Recorded on the trace by the session's plan-cache probe: `Planned` means
/// the planning + mapping phases ran live (including every cache-off run),
/// `Cached` means a validated plan was replayed from the session's plan
/// cache with zero planner LLM calls. Also surfaced as a `"plan-source"`
/// trace event in [`Phase::Planning`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// The plan was produced by live planning/mapping LLM calls.
    Planned,
    /// The plan was replayed from the session's validated-plan cache.
    Cached,
}

impl fmt::Display for PlanSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanSource::Planned => "planned",
            PlanSource::Cached => "cached",
        })
    }
}

/// Per-query accounting of the session's validated-plan cache. A type of its
/// own, not the cache's lifetime `caesura_store::TieredStats`: here `hits`
/// counts a hit of either tier (a disk hit skips planning just the same, and
/// is also counted in `disk_hits`), which is how the benchmark's plan-cache
/// hit-rate metric reads it, while `TieredStats::hits` counts memory hits
/// only. All-zero (the `Default`) when the cache is off, so cache-off traces
/// stay byte-identical to pre-cache ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheCalls {
    /// Probes answered from the cache (planning + mapping skipped).
    pub hits: usize,
    /// Probes that fell through to live planning.
    pub misses: usize,
    /// Validated plans this query stored after its execution succeeded (a
    /// `"plan-cache"` event says so when failed attempts were dropped).
    pub insertions: usize,
    /// Cached plans evicted because they failed at execution for this query.
    pub invalidations: usize,
    /// Memory-tier misses answered by the persistent disk tier (all zero
    /// when no store is attached, keeping pre-disk traces byte-identical).
    pub disk_hits: usize,
    /// Validated plans written through to the disk tier.
    pub disk_writes: usize,
}

/// Wall-clock timings of one query run, accumulated per phase by the session
/// as it drives the pipeline, plus the end-to-end totals the serving layer
/// stamps on: how long the query sat in the submission queue and how long it
/// ran once a scheduler worker picked it up.
///
/// Timings are *measurement* metadata, not part of the logical record of a
/// run: two byte-identical runs never share wall clocks. They are therefore
/// deliberately excluded from [`ExecutionTrace`]'s `PartialEq`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    phases: [Duration; Phase::ALL.len()],
    queue_wait: Duration,
    total: Duration,
}

impl PhaseTimings {
    /// Accumulated wall clock spent in one phase (a phase can be entered many
    /// times: mapping/execution alternate per step, recovery per failure).
    pub fn of(&self, phase: Phase) -> Duration {
        self.phases[phase.index()]
    }

    /// Wall clock from a scheduler worker picking the query up to its
    /// completion (zero until the run finishes).
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Wall clock the query spent queued before a scheduler worker picked it
    /// up (zero for queries that found an idle worker immediately).
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// Submission-to-completion wall clock: queue wait plus run time. This is
    /// the latency a submitter observes, and what the serving bench reports
    /// percentiles over.
    pub fn end_to_end(&self) -> Duration {
        self.queue_wait + self.total
    }

    /// Sum of the per-phase durations (at most [`PhaseTimings::total`]; the
    /// difference is loop bookkeeping between phases).
    pub fn measured(&self) -> Duration {
        self.phases.iter().sum()
    }
}

/// How the serving scheduler saw one query: its tenant, priority, and
/// deadline budget. Stamped on the trace by the serving layer **only for
/// non-default submissions** (a named tenant, a non-default priority, or a
/// deadline), so default-path traces — and their rendering — stay
/// byte-identical to the pre-tenancy scheduler. Like [`PhaseTimings`], this
/// is serving metadata, excluded from trace equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulingInfo {
    /// The tenant the query was submitted under.
    pub tenant: String,
    /// The priority it was submitted at.
    pub priority: Priority,
    /// The deadline budget it was submitted with, if any.
    pub deadline: Option<Duration>,
}

/// A sink that observes every [`TraceEvent`] the instant it is recorded —
/// the mechanism behind `QueryHandle::subscribe`'s live trace stream.
pub type TraceSink = Arc<dyn Fn(&TraceEvent) + Send + Sync>;

/// A full execution trace.
///
/// Equality compares the *logical* record — events, LLM-call counters, and
/// perception accounting — and ignores [`PhaseTimings`], the count of
/// recycled steps and any attached [`TraceSink`], so two byte-identical runs
/// compare equal even though their wall clocks differ, and a run whose SQL
/// steps were recycled equals one that ran them.
#[derive(Clone, Default)]
pub struct ExecutionTrace {
    events: Vec<TraceEvent>,
    llm_calls: usize,
    prompt_tokens: usize,
    perception: PerceptionCalls,
    plan_cache: PlanCacheCalls,
    plan_source: Option<PlanSource>,
    timings: PhaseTimings,
    recycled_steps: usize,
    scheduling: Option<SchedulingInfo>,
    sink: Option<TraceSink>,
}

impl fmt::Debug for ExecutionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutionTrace")
            .field("events", &self.events)
            .field("llm_calls", &self.llm_calls)
            .field("prompt_tokens", &self.prompt_tokens)
            .field("perception", &self.perception)
            .field("plan_cache", &self.plan_cache)
            .field("plan_source", &self.plan_source)
            .field("timings", &self.timings)
            .field("recycled_steps", &self.recycled_steps)
            .field("scheduling", &self.scheduling)
            .field("sink", &self.sink.as_ref().map(|_| "..."))
            .finish()
    }
}

impl PartialEq for ExecutionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
            && self.llm_calls == other.llm_calls
            && self.prompt_tokens == other.prompt_tokens
            && self.perception == other.perception
            && self.plan_cache == other.plan_cache
            && self.plan_source == other.plan_source
    }
}

impl ExecutionTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ExecutionTrace::default()
    }

    /// Record an event. If a [`TraceSink`] is attached, the event is also
    /// forwarded to it immediately (live trace streaming).
    pub fn record(&mut self, phase: Phase, label: impl Into<String>, detail: impl Into<String>) {
        let event = TraceEvent {
            phase,
            label: label.into(),
            detail: detail.into(),
        };
        if let Some(sink) = &self.sink {
            sink(&event);
        }
        self.events.push(event);
    }

    /// Attach a sink observing every subsequently recorded event. The serving
    /// layer installs one per scheduled query so `QueryHandle::subscribe`
    /// streams events as they happen, and detaches it (see
    /// [`ExecutionTrace::clear_sink`]) before the finished trace is stored.
    pub fn set_sink(&mut self, sink: TraceSink) {
        self.sink = Some(sink);
    }

    /// Detach the sink, if any. Events recorded afterwards are only stored.
    pub fn clear_sink(&mut self) {
        self.sink = None;
    }

    /// Accumulate wall clock spent in one phase (phases are entered many
    /// times; durations add up).
    pub fn record_phase_duration(&mut self, phase: Phase, elapsed: Duration) {
        self.timings.phases[phase.index()] += elapsed;
    }

    /// Stamp the queue wait (submission until a scheduler worker picked the
    /// query up).
    pub fn set_queue_wait(&mut self, elapsed: Duration) {
        self.timings.queue_wait = elapsed;
    }

    /// Stamp the total run duration (worker pickup until completion).
    pub fn set_total_duration(&mut self, elapsed: Duration) {
        self.timings.total = elapsed;
    }

    /// The wall-clock timings of this run (excluded from trace equality).
    pub fn timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Count one SQL step whose result the session's step recycler supplied.
    pub(crate) fn record_recycled_step(&mut self) {
        self.recycled_steps += 1;
    }

    /// SQL steps of this run whose results the session's step recycler
    /// supplied instead of running them (excluded from trace equality, like
    /// timings: a recycled result equals the fresh one).
    pub fn recycled_steps(&self) -> usize {
        self.recycled_steps
    }

    /// Stamp the scheduling decision the serving layer made for this run.
    /// Only called for non-default submissions (see [`SchedulingInfo`]).
    pub fn set_scheduling(&mut self, info: SchedulingInfo) {
        self.scheduling = Some(info);
    }

    /// How the scheduler saw this run — `None` for default-path submissions
    /// and for traces produced outside the serving layer (excluded from
    /// trace equality, like timings).
    pub fn scheduling(&self) -> Option<&SchedulingInfo> {
        self.scheduling.as_ref()
    }

    /// Record one LLM completion of approximately `tokens` prompt tokens.
    /// (One completion per conversation; a batched dispatch records one call
    /// per conversation it carries, even though they share a round trip.)
    pub fn record_llm_call(&mut self, tokens: usize) {
        self.llm_calls += 1;
        self.prompt_tokens += tokens;
    }

    /// Accumulate one step's perception-operator call accounting (batched
    /// dispatches, dedup savings, cache hits) into the query totals.
    pub fn add_perception(&mut self, step: &PerceptionCalls) {
        self.perception.absorb(step);
    }

    /// Perception-operator call accounting for the whole query.
    pub fn perception_calls(&self) -> PerceptionCalls {
        self.perception
    }

    /// Accumulate validated-plan-cache accounting into the query totals.
    pub fn record_plan_cache(&mut self, delta: PlanCacheCalls) {
        self.plan_cache.hits += delta.hits;
        self.plan_cache.misses += delta.misses;
        self.plan_cache.insertions += delta.insertions;
        self.plan_cache.invalidations += delta.invalidations;
        self.plan_cache.disk_hits += delta.disk_hits;
        self.plan_cache.disk_writes += delta.disk_writes;
    }

    /// Validated-plan-cache accounting for the whole query (all zeros when
    /// the cache is off).
    pub fn plan_cache_calls(&self) -> PlanCacheCalls {
        self.plan_cache
    }

    /// Stamp where this query's plan came from. A query that fell back to
    /// live planning after a cached plan failed ends as
    /// [`PlanSource::Planned`] (the plan actually used was planned live).
    pub fn set_plan_source(&mut self, source: PlanSource) {
        self.plan_source = Some(source);
    }

    /// Where this query's plan came from (`None` when the plan cache is
    /// off, so cache-off traces stay byte-identical to pre-cache ones).
    pub fn plan_source(&self) -> Option<PlanSource> {
        self.plan_source
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one phase.
    pub fn events_of(&self, phase: Phase) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.phase == phase).collect()
    }

    /// Number of LLM completions (see [`ExecutionTrace::record_llm_call`]).
    pub fn llm_calls(&self) -> usize {
        self.llm_calls
    }

    /// Approximate prompt tokens sent across all round trips.
    pub fn prompt_tokens(&self) -> usize {
        self.prompt_tokens
    }

    /// Number of execution errors recorded.
    pub fn error_count(&self) -> usize {
        self.events.iter().filter(|e| e.label == "error").count()
    }

    /// Whether any recovery (error-analysis) round trip happened.
    pub fn recovered(&self) -> bool {
        self.events.iter().any(|e| e.phase == Phase::Recovery)
    }

    /// Render the trace as indented text, optionally including full prompts.
    pub fn render(&self, include_prompts: bool) -> String {
        let mut out = String::new();
        let mut current_phase: Option<Phase> = None;
        for event in &self.events {
            if current_phase != Some(event.phase) {
                out.push_str(&format!("== {} Phase ==\n", event.phase));
                current_phase = Some(event.phase);
            }
            if !include_prompts && (event.label == "prompt" || event.label == "response") {
                let preview: String = event.detail.chars().take(120).collect();
                out.push_str(&format!(
                    "  [{}] {}...\n",
                    event.label,
                    preview.replace('\n', " ")
                ));
            } else {
                out.push_str(&format!("  [{}] {}\n", event.label, event.detail));
            }
        }
        out.push_str(&format!(
            "== Totals: {} LLM call(s), ~{} prompt tokens, {} execution error(s) ==\n",
            self.llm_calls,
            self.prompt_tokens,
            self.error_count()
        ));
        // Rendered whenever any count is non-zero: a step answered from the
        // disk tier alone (a transform compile) counts no row, call or
        // memory hit, but still a miss and a disk hit.
        if self.perception != PerceptionCalls::default() {
            out.push_str(&format!(
                "== Perception: {} row(s) -> {} model call(s) in {} batch(es), {} saved by dedup ==\n",
                self.perception.rows,
                self.perception.calls,
                self.perception.batches,
                self.perception.saved_calls
            ));
            if self.perception.cache_hits > 0 || self.perception.cache_misses > 0 {
                out.push_str(&format!(
                    "== Perception cache: {} hit(s), {} miss(es), {} eviction(s) ==\n",
                    self.perception.cache_hits,
                    self.perception.cache_misses,
                    self.perception.cache_evictions
                ));
            }
            // Per-tier breakdown, rendered only when the disk tier actually
            // participated so disk-off traces stay byte-identical.
            if self.perception.disk_hits > 0
                || self.perception.disk_misses > 0
                || self.perception.disk_writes > 0
            {
                out.push_str(&format!(
                    "== Perception tiers: memory {} hit(s), disk {} hit(s), {} miss(es), {} write(s) ==\n",
                    self.perception.cache_hits,
                    self.perception.disk_hits,
                    self.perception.disk_misses,
                    self.perception.disk_writes
                ));
            }
        }
        if let Some(source) = self.plan_source {
            out.push_str(&format!(
                "== Plan cache: source {}, {} hit(s), {} miss(es), {} insertion(s), {} invalidation(s) ==\n",
                source,
                self.plan_cache.hits,
                self.plan_cache.misses,
                self.plan_cache.insertions,
                self.plan_cache.invalidations
            ));
            // Per-tier breakdown, rendered only when the disk tier actually
            // participated so disk-off traces stay byte-identical.
            if self.plan_cache.disk_hits > 0 || self.plan_cache.disk_writes > 0 {
                out.push_str(&format!(
                    "== Plan-cache tiers: memory {} hit(s), disk {} hit(s), {} write(s) ==\n",
                    self.plan_cache
                        .hits
                        .saturating_sub(self.plan_cache.disk_hits),
                    self.plan_cache.disk_hits,
                    self.plan_cache.disk_writes
                ));
            }
        }
        if let Some(scheduling) = &self.scheduling {
            out.push_str(&format!(
                "== Scheduling: tenant '{}', priority {}{} ==\n",
                scheduling.tenant,
                scheduling.priority,
                match scheduling.deadline {
                    Some(deadline) => format!(", deadline {deadline:.1?}"),
                    None => String::new(),
                }
            ));
        }
        if self.timings.total > Duration::ZERO {
            out.push_str(&format!(
                "== Timings: {:.1?} total ({:.1?} queued), per phase: discovery {:.1?}, planning {:.1?}, mapping {:.1?}, execution {:.1?}, recovery {:.1?} ==\n",
                self.timings.total,
                self.timings.queue_wait,
                self.timings.of(Phase::Discovery),
                self.timings.of(Phase::Planning),
                self.timings.of(Phase::Mapping),
                self.timings.of(Phase::Execution),
                self.timings.of(Phase::Recovery),
            ));
        }
        out
    }
}

impl fmt::Display for ExecutionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_recorded_and_grouped_by_phase() {
        let mut trace = ExecutionTrace::new();
        trace.record(Phase::Planning, "prompt", "You are CAESURA ...");
        trace.record(Phase::Planning, "response", "Step 1: ...");
        trace.record(Phase::Mapping, "decision", "Operator: SQL Join");
        trace.record(Phase::Execution, "observation", "New column added");
        trace.record_llm_call(250);
        trace.record_llm_call(100);
        assert_eq!(trace.events().len(), 4);
        assert_eq!(trace.events_of(Phase::Planning).len(), 2);
        assert_eq!(trace.llm_calls(), 2);
        assert_eq!(trace.prompt_tokens(), 350);
        assert!(!trace.recovered());
    }

    #[test]
    fn error_counting_and_rendering() {
        let mut trace = ExecutionTrace::new();
        trace.record(Phase::Execution, "error", "unknown column 'x'");
        trace.record(Phase::Recovery, "analysis", "Update arguments: Yes");
        assert_eq!(trace.error_count(), 1);
        assert!(trace.recovered());
        let rendered = trace.render(false);
        assert!(rendered.contains("Execution Phase"));
        assert!(rendered.contains("Recovery Phase"));
        assert!(rendered.contains("unknown column"));
    }

    #[test]
    fn perception_calls_accumulate_and_render() {
        let mut trace = ExecutionTrace::new();
        assert_eq!(trace.perception_calls(), PerceptionCalls::default());
        trace.add_perception(&PerceptionCalls {
            rows: 10,
            calls: 4,
            batches: 1,
            saved_calls: 6,
            ..PerceptionCalls::default()
        });
        trace.add_perception(&PerceptionCalls {
            rows: 5,
            null_rows: 3,
            calls: 5,
            batches: 2,
            saved_calls: 0,
            cache_hits: 2,
            cache_misses: 5,
            cache_evictions: 1,
            ..PerceptionCalls::default()
        });
        let perception = trace.perception_calls();
        assert_eq!(perception.rows, 15);
        assert_eq!(perception.null_rows, 3);
        assert_eq!(perception.calls, 9);
        assert_eq!(perception.batches, 3);
        assert_eq!(perception.cache_hits, 2);
        assert_eq!(perception.cache_misses, 5);
        assert_eq!(perception.cache_evictions, 1);
        assert_eq!(perception.saved_calls, 6);
        assert_eq!(perception.unique_requests(), 11);
        let rendered = trace.render(false);
        assert!(rendered.contains("9 model call(s)"));
        assert!(rendered.contains("6 saved by dedup"));
        assert!(rendered.contains("2 hit(s)"));
    }

    #[test]
    fn a_disk_hit_only_step_renders_its_perception_totals() {
        let mut trace = ExecutionTrace::new();
        trace.add_perception(&PerceptionCalls {
            cache_misses: 1,
            disk_hits: 1,
            ..PerceptionCalls::default()
        });
        let rendered = trace.render(false);
        assert!(
            rendered.contains("== Perception: 0 row(s) -> 0 model call(s) in 0 batch(es)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("== Perception cache: 0 hit(s), 1 miss(es), 0 eviction(s) =="),
            "{rendered}"
        );
        assert!(
            rendered.contains(
                "== Perception tiers: memory 0 hit(s), disk 1 hit(s), 0 miss(es), 0 write(s) =="
            ),
            "{rendered}"
        );
        // A trace without perception renders no perception line.
        assert!(!ExecutionTrace::new().render(false).contains("Perception"));
    }

    #[test]
    fn plan_cache_calls_accumulate_render_and_affect_equality() {
        let mut a = ExecutionTrace::new();
        let b = ExecutionTrace::new();
        assert_eq!(a.plan_cache_calls(), PlanCacheCalls::default());
        assert_eq!(a.plan_source(), None);
        assert_eq!(a, b, "all-zero plan-cache state compares equal");
        a.set_plan_source(PlanSource::Cached);
        a.record_plan_cache(PlanCacheCalls {
            hits: 1,
            ..PlanCacheCalls::default()
        });
        a.record_plan_cache(PlanCacheCalls {
            invalidations: 1,
            ..PlanCacheCalls::default()
        });
        let calls = a.plan_cache_calls();
        assert_eq!((calls.hits, calls.invalidations), (1, 1));
        assert_eq!(a.plan_source(), Some(PlanSource::Cached));
        // Plan provenance is part of the logical record, unlike timings.
        assert_ne!(a, b);
        let rendered = a.render(false);
        assert!(rendered.contains("source cached"));
        assert!(rendered.contains("1 hit(s)"));
        assert!(!b.render(false).contains("Plan cache"));
    }

    #[test]
    fn timings_accumulate_but_do_not_affect_equality() {
        let mut a = ExecutionTrace::new();
        let mut b = ExecutionTrace::new();
        for trace in [&mut a, &mut b] {
            trace.record(Phase::Planning, "prompt", "p");
            trace.record_llm_call(10);
        }
        a.record_phase_duration(Phase::Planning, Duration::from_millis(5));
        a.record_phase_duration(Phase::Planning, Duration::from_millis(3));
        a.record_phase_duration(Phase::Execution, Duration::from_millis(2));
        a.set_queue_wait(Duration::from_millis(1));
        a.set_total_duration(Duration::from_millis(12));
        assert_eq!(a.timings().of(Phase::Planning), Duration::from_millis(8));
        assert_eq!(a.timings().measured(), Duration::from_millis(10));
        assert_eq!(a.timings().total(), Duration::from_millis(12));
        assert_eq!(a.timings().end_to_end(), Duration::from_millis(13));
        // Identical logical record, different wall clocks: still equal.
        assert_eq!(a, b);
        assert!(a.render(false).contains("Timings"));
        assert!(!b.render(false).contains("Timings"));
        // But a different logical record is unequal.
        b.record(Phase::Mapping, "decision", "d");
        assert_ne!(a, b);
    }

    #[test]
    fn sinks_observe_events_live_and_detach() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let mut trace = ExecutionTrace::new();
        let sink_seen = Arc::clone(&seen);
        trace.set_sink(Arc::new(move |event: &TraceEvent| {
            sink_seen.lock().unwrap().push(event.label.clone());
        }));
        trace.record(Phase::Planning, "prompt", "p");
        trace.record(Phase::Planning, "response", "r");
        trace.clear_sink();
        trace.record(Phase::Mapping, "decision", "d");
        assert_eq!(*seen.lock().unwrap(), vec!["prompt", "response"]);
        assert_eq!(trace.events().len(), 3);
        // Sinks never participate in equality.
        let plain = {
            let mut t = ExecutionTrace::new();
            t.record(Phase::Planning, "prompt", "p");
            t.record(Phase::Planning, "response", "r");
            t.record(Phase::Mapping, "decision", "d");
            t
        };
        assert_eq!(trace, plain);
    }

    #[test]
    fn scheduling_info_renders_but_does_not_affect_equality() {
        let mut a = ExecutionTrace::new();
        let b = ExecutionTrace::new();
        assert!(a.scheduling().is_none());
        a.set_scheduling(SchedulingInfo {
            tenant: "acme".into(),
            priority: Priority::Batch,
            deadline: Some(Duration::from_millis(500)),
        });
        // Scheduling is serving metadata, like timings: equal logical record.
        assert_eq!(a, b);
        let info = a.scheduling().expect("stamped");
        assert_eq!(info.tenant, "acme");
        let rendered = a.render(false);
        assert!(rendered.contains("tenant 'acme'"));
        assert!(rendered.contains("priority batch"));
        assert!(rendered.contains("deadline"));
        // Default-path traces render no scheduling line at all.
        assert!(!b.render(false).contains("Scheduling"));
    }

    #[test]
    fn long_prompts_are_truncated_unless_requested() {
        let mut trace = ExecutionTrace::new();
        let long = "word ".repeat(200);
        trace.record(Phase::Planning, "prompt", long.clone());
        assert!(trace.render(false).len() < long.len());
        assert!(trace.render(true).contains(&long));
    }
}
