//! The four workloads: what each runs, its set-up cycle, and its measured
//! loop. Every loop is a single process whose load generator uses at most
//! two threads (closed loops: one client; the open loop: a submitter and a
//! collector), because the reference box has two cores.

use crate::inputs::{
    generate, model_responses, reference_pass, simulated_model, verdict, Expected, Inputs,
    SuiteKind, Verdict,
};
use crate::llm::{response_hash, LatencyLlm, RoundTrip, TimedLlm};
use crate::spans::Recorder;
use crate::stats::{cpu_seconds, thread_cpu_seconds, SplitMix64};
use caesura_core::{
    Caesura, CaesuraConfig, ExecutionTrace, PerceptionCalls, PhaseTimings, PlanCacheCalls,
    QueryHandle, QueryRun, QueryStatus, SubmitOptions,
};
use caesura_llm::{LlmClient, PlanCacheConfig, SimulatedLlm};
use caesura_store::PersistConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// First contact with a paper-scale lake: fresh sessions every round.
    ColdMultimodal,
    /// The same suite verbatim against one long-lived, warmed session pair.
    WarmRepeat,
    /// Populate a fresh store directory, restart, replay from disk.
    RestartDisk,
    /// Open-loop Poisson arrivals against a model with modelled round trips.
    BlockedServing,
}

/// Offered rate of the open loop, queries per second: about 70 % of the
/// ~84 q/s eight workers sustain at ~95 ms of blocked service time, so queue
/// wait and tier preemption are visible without a growing backlog. (The
/// issue's 30 q/s on 4 workers is the same utilisation, but over the 24 s a
/// run may take it gave ~700 arrivals and a p95 that moved 20 % between
/// seeds; twice the servers and twice the rate give ~1,400 arrivals and a
/// steadier queue.)
pub const OFFERED_RATE: f64 = 60.0;
/// Share of open-loop arrivals submitted by the interactive tenant.
pub const INTERACTIVE_SHARE: f64 = 0.30;
/// Scheduler workers of the open loop, pinned so that capacity does not
/// depend on the host's core count.
pub const SERVING_WORKERS: usize = 8;
/// Modelled cost of one model round trip: per dispatch, and per 1,000 prompt
/// tokens.
pub const ROUND_TRIP: (Duration, Duration) = (Duration::from_millis(15), Duration::from_millis(5));
/// How often the open loop's collector sweeps the outstanding handles.
const COLLECTOR_SWEEP: Duration = Duration::from_micros(500);

impl WorkloadKind {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::ColdMultimodal,
        WorkloadKind::WarmRepeat,
        WorkloadKind::RestartDisk,
        WorkloadKind::BlockedServing,
    ];

    /// The name `--workload` and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::ColdMultimodal => "cold_multimodal",
            WorkloadKind::WarmRepeat => "warm_repeat",
            WorkloadKind::RestartDisk => "restart_disk",
            WorkloadKind::BlockedServing => "blocked_serving",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
    }

    /// The lakes and suite the workload runs on. `cold_multimodal` runs at
    /// the paper's scale, where one round asks ~87k unique perception
    /// questions — more than the 65,536-entry perception cache holds; the
    /// two cache workloads ask ~23k, which fits.
    pub fn suite(self) -> SuiteKind {
        match self {
            WorkloadKind::ColdMultimodal => SuiteKind::Paper {
                paintings: 7912,
                games: 2000,
            },
            WorkloadKind::WarmRepeat | WorkloadKind::RestartDisk => SuiteKind::Paper {
                paintings: 2000,
                games: 600,
            },
            WorkloadKind::BlockedServing => SuiteKind::Fieldwork,
        }
    }

    /// The latency limit behind `slo_met_share`, about three times the
    /// workload's first-run p95.
    pub fn slo_ms(self) -> f64 {
        match self {
            WorkloadKind::ColdMultimodal => 200.0,
            WorkloadKind::WarmRepeat => 50.0,
            WorkloadKind::RestartDisk => 100.0,
            WorkloadKind::BlockedServing => 500.0,
        }
    }

    /// Threads the load generator itself uses.
    pub fn generator_threads(self) -> usize {
        match self {
            WorkloadKind::BlockedServing => 2,
            _ => 1,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// How many times set-up is repeated (the median is reported).
    pub setup_cycles: usize,
}

/// Which part of a workload a query ran in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// The only part of most workloads.
    Main,
    /// `restart_disk`: fresh store, every answer computed and written through.
    Populate,
    /// `restart_disk`: new sessions over the populated store.
    Replay,
}

/// One measured query.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the query in the suite.
    pub query: usize,
    /// Which part of the workload it ran in.
    pub part: Part,
    /// Index into [`RunData::rounds`] of the stretch it ran in.
    pub round: usize,
    /// Whether spans were being recorded while it ran.
    pub traced: bool,
    /// Whether it was submitted at batch priority.
    pub batch_tier: bool,
    /// Harness-observed latency: submit (open loop: due time) to completion.
    pub latency_ms: f64,
    /// Time inside the submit call, microseconds.
    pub submit_us: f64,
    /// Open loop: how late the generator submitted, milliseconds.
    pub lateness_ms: f64,
    /// Queries queued in the scheduler when this one arrived.
    pub queued_at_arrival: usize,
    /// Queries running in the scheduler when this one arrived.
    pub in_flight_at_arrival: usize,
    /// Submit and completion on the recorder's clock, microseconds.
    pub span_us: (f64, f64),
    /// Planner, mapping and recovery completions.
    pub llm_calls: usize,
    /// Approximate prompt tokens of those completions.
    pub prompt_tokens: usize,
    /// Perception accounting of the run.
    pub perception: PerceptionCalls,
    /// Plan-cache accounting of the run.
    pub plan_cache: PlanCacheCalls,
    /// The program's own phase timings of the run.
    pub timings: PhaseTimings,
    /// Hashes of the model responses in the run's trace (traced runs only).
    pub response_hashes: Vec<u64>,
    /// Whether the run counts as failed, and why.
    pub verdict: Verdict,
}

impl Sample {
    fn rejected(query: usize, round: usize, batch_tier: bool, at_us: f64) -> Sample {
        Sample {
            query,
            part: Part::Main,
            round,
            traced: false,
            batch_tier,
            latency_ms: 0.0,
            submit_us: 0.0,
            lateness_ms: 0.0,
            queued_at_arrival: 0,
            in_flight_at_arrival: 0,
            span_us: (at_us, at_us),
            llm_calls: 0,
            prompt_tokens: 0,
            perception: PerceptionCalls::default(),
            plan_cache: PlanCacheCalls::default(),
            timings: PhaseTimings::default(),
            response_hashes: Vec::new(),
            verdict: Verdict::Rejected,
        }
    }
}

/// One stretch of the measured phase on the clock: a round of a closed loop
/// (for `restart_disk`: populate and replay together), or a half of the open
/// loop's schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of the process (the open loop: less its generator's).
    pub cpu_s: f64,
    /// Queries attempted.
    pub queries: usize,
    /// Whether spans were being recorded (the traced run alternates, so that
    /// one process measures both sides of the tracing overhead).
    pub traced: bool,
}

/// Everything one run of a workload produced.
pub struct RunData {
    /// The workload.
    pub kind: WorkloadKind,
    /// The generated inputs (kept for the replay pass).
    pub inputs: Inputs,
    /// Seconds each set-up cycle took.
    pub setup_cycles_s: Vec<f64>,
    /// Seconds the reference pass took (outside `setup_s`).
    pub reference_pass_s: f64,
    /// Suite queries whose reference-pass output missed the oracle.
    pub oracle_misses: Vec<&'static str>,
    /// Milliseconds inside `Caesura::with_config`, per set of sessions built.
    pub session_build_ms: Vec<f64>,
    /// Every measured query.
    pub samples: Vec<Sample>,
    /// The measured phase, stretch by stretch (grading pauses excluded).
    pub rounds: Vec<Round>,
    /// Round trips timed by the traced run's `TimedLlm`.
    pub round_trips: Vec<RoundTrip>,
    /// Seconds round trips spent blocked on the modelled delay.
    pub modelled_delay_s: f64,
    /// `restart_disk`: the last populated store directory, kept for the
    /// store drive; removed with the rest when `temp` drops.
    pub store_dir: Option<PathBuf>,
    /// Owns every temporary store directory of the run.
    pub temp: TempRoot,
}

/// Directory the benchmark may write under (`benchmark/out`).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process temporary directory under [`out_dir`], removed on drop so
/// that no store directory outlives the run.
pub struct TempRoot {
    root: PathBuf,
    next: usize,
}

impl TempRoot {
    fn new() -> TempRoot {
        static INSTANCES: AtomicUsize = AtomicUsize::new(0);
        // Relaxed: the counter only makes names distinct.
        let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
        TempRoot {
            root: out_dir().join(format!("tmp-{}-{instance}", std::process::id())),
            next: 0,
        }
    }

    /// A fresh, not yet created, subdirectory.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("d{}", self.next))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        // Best effort: the directory is absent when no workload wrote to it.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The model stack of a run: the simulated planner, behind the modelled
/// round trip on the open loop, behind the round-trip timer on traced runs.
struct Model {
    client: Arc<dyn LlmClient>,
    latency: Option<Arc<LatencyLlm<SimulatedLlm>>>,
    timer: Option<Arc<TimedLlm<Arc<dyn LlmClient>>>>,
}

impl Model {
    fn new(kind: WorkloadKind, trace: bool, recorder: &Arc<Recorder>) -> Model {
        let latency = (kind == WorkloadKind::BlockedServing).then(|| {
            Arc::new(LatencyLlm::new(
                simulated_model(),
                ROUND_TRIP.0,
                ROUND_TRIP.1,
                Arc::clone(recorder),
            ))
        });
        let base: Arc<dyn LlmClient> = match &latency {
            Some(latency) => Arc::clone(latency) as Arc<dyn LlmClient>,
            None => Arc::new(simulated_model()),
        };
        let timer = trace.then(|| Arc::new(TimedLlm::new(base.clone(), Arc::clone(recorder))));
        let client = match &timer {
            Some(timer) => Arc::clone(timer) as Arc<dyn LlmClient>,
            None => base,
        };
        Model {
            client,
            latency,
            timer,
        }
    }
}

/// The numbers a finished run contributes to its [`Sample`]; extracting them
/// lets the trace (prompts and responses, ~100 KB) be dropped at once instead
/// of inflating `peak_rss_mb`.
struct Extract {
    llm_calls: usize,
    prompt_tokens: usize,
    perception: PerceptionCalls,
    plan_cache: PlanCacheCalls,
    timings: PhaseTimings,
    response_hashes: Vec<u64>,
}

fn extract(run: &mut QueryRun, traced: bool) -> Extract {
    let trace = std::mem::replace(&mut run.trace, ExecutionTrace::new());
    Extract {
        llm_calls: trace.llm_calls(),
        prompt_tokens: trace.prompt_tokens(),
        perception: trace.perception_calls(),
        plan_cache: trace.plan_cache_calls(),
        timings: trace.timings(),
        response_hashes: if traced {
            model_responses(&trace)
                .map(|event| response_hash(&event.detail))
                .collect()
        } else {
            Vec::new()
        },
    }
}

/// A closed-loop query waiting to be graded once the clock has stopped.
struct Ungraded {
    query: usize,
    part: Part,
    traced: bool,
    submitted: Instant,
    submit_us: f64,
    latency_ms: f64,
    run: QueryRun,
}

/// State shared by the closed loops: one client thread submits a query and
/// waits for it before submitting the next.
struct ClosedLoop<'a> {
    inputs: &'a Inputs,
    expected: &'a [Expected],
    recorder: &'a Recorder,
    samples: Vec<Sample>,
    session_build_ms: Vec<f64>,
    /// Finished rounds, and the one the clock is adding to.
    rounds: Vec<Round>,
    current: Round,
}

impl ClosedLoop<'_> {
    /// Run `work`, which attempts `queries` queries, on the measured clock.
    fn timed<T>(&mut self, queries: usize, work: impl FnOnce(&mut Self) -> T) -> T {
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        let result = work(self);
        self.current.cpu_s += cpu_seconds() - cpu;
        self.current.wall_s += wall.elapsed().as_secs_f64();
        self.current.queries += queries;
        self.current.traced = self.recorder.is_enabled();
        result
    }

    /// Close the current round.
    fn end_round(&mut self) {
        self.rounds.push(std::mem::take(&mut self.current));
    }

    /// Seconds on the measured clock so far.
    fn wall_s(&self) -> f64 {
        self.rounds.iter().map(|round| round.wall_s).sum()
    }

    /// The suite once, in suite order, one query at a time.
    fn suite_pass(&self, sessions: &[Caesura], part: Part) -> Vec<Ungraded> {
        let traced = self.recorder.is_enabled();
        self.inputs
            .queries
            .iter()
            .enumerate()
            .map(|(query, suite_query)| {
                let submitted = Instant::now();
                let handle = sessions[suite_query.lake].submit(suite_query.query.text);
                let submit_us = submitted.elapsed().as_nanos() as f64 / 1e3;
                let run = handle.wait();
                Ungraded {
                    query,
                    part,
                    traced,
                    submitted,
                    submit_us,
                    latency_ms: submitted.elapsed().as_secs_f64() * 1e3,
                    run,
                }
            })
            .collect()
    }

    /// Grade a pass of the current round; called with the clock stopped.
    fn grade(&mut self, pass: Vec<Ungraded>) {
        for mut ungraded in pass {
            let numbers = extract(&mut ungraded.run, ungraded.traced);
            let start_us = self.recorder.at_us(ungraded.submitted);
            self.samples.push(Sample {
                query: ungraded.query,
                part: ungraded.part,
                round: self.rounds.len(),
                traced: ungraded.traced,
                batch_tier: false,
                latency_ms: ungraded.latency_ms,
                submit_us: ungraded.submit_us,
                lateness_ms: 0.0,
                // One client that waits for each reply never finds the
                // scheduler busy.
                queued_at_arrival: 0,
                in_flight_at_arrival: 0,
                span_us: (start_us, start_us + ungraded.latency_ms * 1e3),
                llm_calls: numbers.llm_calls,
                prompt_tokens: numbers.prompt_tokens,
                perception: numbers.perception,
                plan_cache: numbers.plan_cache,
                timings: numbers.timings,
                response_hashes: numbers.response_hashes,
                verdict: verdict(self.inputs, self.expected, ungraded.query, &ungraded.run),
            });
        }
    }
}

/// Store directory of one lake's session under a round's `root`: a store
/// directory admits one owner, so the session pair cannot share one.
pub fn lake_store_dir(root: &Path, lake: usize) -> PathBuf {
    root.join(format!("lake{lake}"))
}

/// The session configuration of one lake of a workload.
fn session_config(kind: WorkloadKind, store_root: Option<&Path>, lake: usize) -> CaesuraConfig {
    match kind {
        WorkloadKind::ColdMultimodal | WorkloadKind::WarmRepeat => CaesuraConfig::default(),
        WorkloadKind::RestartDisk => CaesuraConfig {
            persist: Some(PersistConfig::new(lake_store_dir(
                store_root.expect("restart_disk runs over a store directory"),
                lake,
            ))),
            ..CaesuraConfig::default()
        },
        WorkloadKind::BlockedServing => CaesuraConfig {
            session_workers: Some(SERVING_WORKERS),
            // Bypassed on purpose: this workload measures the overlap of
            // blocked round trips; `warm_repeat` measures the plan cache.
            plan_cache: Some(PlanCacheConfig::off()),
            ..CaesuraConfig::default()
        },
    }
}

/// What a set-up cycle leaves for the measured phase.
struct Ready {
    inputs: Inputs,
    expected: Vec<Expected>,
    reference_pass_s: f64,
    sessions: Vec<Caesura>,
    session_build_ms: Vec<f64>,
}

/// One set-up cycle — everything between process start and the first
/// measured query: generate and ingest the lakes, make the serial reference
/// pass, build the workload's sessions, and warm them if the workload's
/// sessions are long-lived.
fn setup_cycle(kind: WorkloadKind, seed: u64, model: &Model, temp: &mut TempRoot) -> Ready {
    let inputs = generate(kind.suite(), seed);
    let started = Instant::now();
    let expected = reference_pass(&inputs);
    let reference_pass_s = started.elapsed().as_secs_f64();
    let store_root = (kind == WorkloadKind::RestartDisk).then(|| temp.fresh());
    let mut session_build_ms = Vec::new();
    let sessions = build_sessions(
        &inputs,
        model,
        kind,
        store_root.as_deref(),
        &mut session_build_ms,
    );
    match kind {
        // The warm-up round: fills the perception and plan caches.
        WorkloadKind::WarmRepeat => {
            for suite_query in &inputs.queries {
                sessions[suite_query.lake].run(suite_query.query.text);
            }
        }
        // A serving session is long-lived, so its perception cache is warm.
        // Filling it here, and not in the measured phase, also keeps
        // `perception_calls_per_query` exact: racing first askers of one
        // question would each pay for it. The suite goes in at once, because
        // one query at a time would wait out ~95 ms of modelled round trips
        // 28 times.
        WorkloadKind::BlockedServing => {
            let handles: Vec<QueryHandle> = inputs
                .queries
                .iter()
                .map(|suite_query| sessions[suite_query.lake].submit(suite_query.query.text))
                .collect();
            handles.into_iter().for_each(|handle| drop(handle.wait()));
        }
        WorkloadKind::ColdMultimodal | WorkloadKind::RestartDisk => {}
    }
    Ready {
        inputs,
        expected,
        reference_pass_s,
        sessions,
        session_build_ms,
    }
}

/// One session per lake; `build_ms` gains the time the set spent inside
/// `Caesura::with_config`.
fn build_sessions(
    inputs: &Inputs,
    model: &Model,
    kind: WorkloadKind,
    store_root: Option<&Path>,
    build_ms: &mut Vec<f64>,
) -> Vec<Caesura> {
    let mut set_ms = 0.0;
    let sessions = inputs
        .lakes
        .iter()
        .enumerate()
        .map(|(index, lake)| {
            let (lake, config) = (lake.clone(), session_config(kind, store_root, index));
            let started = Instant::now();
            let session = Caesura::with_config(lake, Arc::clone(&model.client), config);
            set_ms += started.elapsed().as_secs_f64() * 1e3;
            session
        })
        .collect();
    build_ms.push(set_ms);
    sessions
}

/// Run one workload end to end: set-up cycles, measured phase, grading.
pub fn run(kind: WorkloadKind, settings: Settings, recorder: &Arc<Recorder>) -> RunData {
    let model = Model::new(kind, settings.trace, recorder);
    let mut temp = TempRoot::new();
    let mut setup_cycles_s = Vec::new();
    let mut ready = None;
    for _ in 0..settings.setup_cycles.max(1) {
        // The previous cycle's sessions go first: a store directory admits
        // one owner at a time.
        drop(ready.take());
        let started = Instant::now();
        ready = Some(setup_cycle(kind, settings.seed, &model, &mut temp));
        setup_cycles_s.push(started.elapsed().as_secs_f64());
    }
    let Ready {
        inputs,
        expected,
        reference_pass_s,
        sessions,
        session_build_ms,
    } = ready.expect("at least one set-up cycle ran");
    let oracle_misses = inputs
        .queries
        .iter()
        .zip(&expected)
        .filter(|(_, expected)| !expected.met_oracle)
        .map(|(suite_query, _)| suite_query.query.id)
        .collect();

    // The traced run spends half its time in the measured loop and leaves
    // the rest to the replay pass.
    let budget_s = if settings.trace {
        settings.seconds / 2.0
    } else {
        settings.seconds
    };
    let mut data = RunData {
        kind,
        setup_cycles_s,
        reference_pass_s,
        oracle_misses,
        session_build_ms,
        samples: Vec::new(),
        rounds: Vec::new(),
        round_trips: Vec::new(),
        modelled_delay_s: 0.0,
        store_dir: None,
        temp,
        inputs,
    };
    if kind == WorkloadKind::BlockedServing {
        open_loop(
            &mut data,
            &expected,
            &sessions[0],
            settings,
            budget_s,
            recorder,
        );
    } else {
        closed_loop(
            &mut data, &expected, sessions, &model, settings, budget_s, recorder,
        );
    }
    recorder.set_enabled(false);
    data.round_trips = model
        .timer
        .as_ref()
        .map_or_else(Vec::new, |t| t.round_trips());
    data.modelled_delay_s = model.latency.as_ref().map_or(0.0, |l| l.blocked_seconds());
    data
}

fn closed_loop(
    data: &mut RunData,
    expected: &[Expected],
    sessions: Vec<Caesura>,
    model: &Model,
    settings: Settings,
    budget_s: f64,
    recorder: &Arc<Recorder>,
) {
    let suite_len = data.inputs.queries.len();
    let mut state = ClosedLoop {
        inputs: &data.inputs,
        expected,
        recorder,
        samples: Vec::new(),
        session_build_ms: std::mem::take(&mut data.session_build_ms),
        rounds: Vec::new(),
        current: Round::default(),
    };
    // Only `warm_repeat` keeps its set-up sessions; the other two build
    // theirs inside the loop, because their users pay that on every round.
    let warm_sessions = (data.kind == WorkloadKind::WarmRepeat).then_some(sessions);
    while state.wall_s() < budget_s {
        // The traced run records spans on alternate rounds.
        recorder.set_enabled(settings.trace && state.rounds.len().is_multiple_of(2));
        match data.kind {
            WorkloadKind::ColdMultimodal => {
                let pass = state.timed(suite_len, |state| {
                    let sessions = build_sessions(
                        state.inputs,
                        model,
                        data.kind,
                        None,
                        &mut state.session_build_ms,
                    );
                    state.suite_pass(&sessions, Part::Main)
                });
                state.grade(pass);
            }
            WorkloadKind::WarmRepeat => {
                let sessions = warm_sessions.as_deref().expect("kept for this workload");
                let pass = state.timed(suite_len, |state| state.suite_pass(sessions, Part::Main));
                state.grade(pass);
            }
            WorkloadKind::RestartDisk => {
                if let Some(previous) = data.store_dir.take() {
                    let _ = std::fs::remove_dir_all(previous);
                }
                let dir = data.temp.fresh();
                // Opening the sessions (index rebuild on the replay side) and
                // dropping them (scheduler join, store close) are inside the
                // clock: users pay both on every restart.
                for part in [Part::Populate, Part::Replay] {
                    let pass = state.timed(suite_len, |state| {
                        let sessions = build_sessions(
                            state.inputs,
                            model,
                            data.kind,
                            Some(&dir),
                            &mut state.session_build_ms,
                        );
                        state.suite_pass(&sessions, part)
                    });
                    state.grade(pass);
                }
                data.store_dir = Some(dir);
            }
            WorkloadKind::BlockedServing => unreachable!("the open loop has its own driver"),
        }
        state.end_round();
    }
    data.samples = state.samples;
    data.session_build_ms = state.session_build_ms;
    data.rounds = state.rounds;
}

/// One arrival of the open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the start at which the query is due.
    pub due_s: f64,
    /// Index of the query in the suite.
    pub query: usize,
    /// Whether the batch tenant submits it (else the interactive tenant).
    pub batch_tier: bool,
}

/// Tenant pattern the schedule repeats (shuffled each time), so that every
/// seed submits the same [`INTERACTIVE_SHARE`].
const TENANT_PATTERN: usize = 10;

/// A seeded Poisson process at `rate` per second, conditioned on its count:
/// as many whole passes over the suite as fit into `seconds`, each pass a
/// fresh permutation, with exponential gaps rescaled so that the arrivals
/// span exactly `count / rate` seconds. Every seed therefore offers the same
/// rate, query mix and tenant mix; what the seed varies is the order and the
/// burstiness, which is what the scheduler has to cope with.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64, suite_len: usize) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let passes = ((rate * seconds) as usize / suite_len).max(1);
    let count = passes * suite_len;
    let mut shuffled = |len: usize| {
        let mut order: Vec<usize> = (0..len).collect();
        for upper in (1..len).rev() {
            order.swap(upper, (rng.next_u64() % (upper as u64 + 1)) as usize);
        }
        order
    };
    let queries: Vec<usize> = (0..passes).flat_map(|_| shuffled(suite_len)).collect();
    let interactive = (INTERACTIVE_SHARE * TENANT_PATTERN as f64).round() as usize;
    let tenants: Vec<usize> = (0..count.div_ceil(TENANT_PATTERN))
        .flat_map(|_| shuffled(TENANT_PATTERN))
        .collect();
    let mut elapsed = 0.0;
    let unscaled: Vec<f64> = (0..count)
        .map(|_| {
            elapsed += -(1.0 - rng.next_f64()).ln();
            elapsed
        })
        .collect();
    let scale = count as f64 / rate / elapsed;
    (0..count)
        .map(|index| Arrival {
            due_s: unscaled[index] * scale,
            query: queries[index],
            batch_tier: tenants[index] >= interactive,
        })
        .collect()
}

/// What the submitter knows about an accepted open-loop query.
struct Submitted {
    arrival: Arrival,
    due: Instant,
    submitted: Instant,
    submit_us: f64,
    queued_at_arrival: usize,
    in_flight_at_arrival: usize,
    traced: bool,
}

/// An open-loop query the collector saw finish.
struct Collected {
    submitted: Submitted,
    done: Instant,
    run: QueryRun,
    numbers: Extract,
}

/// The collector thread: sweeps the outstanding handles until the submitter
/// has hung up and every query has finished. Also returns the CPU seconds
/// the sweeping cost, which are the load generator's, not the program's.
fn collect(incoming: mpsc::Receiver<(Submitted, QueryHandle)>) -> (Vec<Collected>, f64) {
    let cpu_started = thread_cpu_seconds();
    let mut outstanding: Vec<(Submitted, QueryHandle)> = Vec::new();
    let mut collected = Vec::new();
    let mut open = true;
    while open || !outstanding.is_empty() {
        loop {
            match incoming.try_recv() {
                Ok(query) => outstanding.push(query),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let mut index = 0;
        while index < outstanding.len() {
            if outstanding[index].1.status() != QueryStatus::Finished {
                index += 1;
                continue;
            }
            let done = Instant::now();
            let (submitted, handle) = outstanding.swap_remove(index);
            // Finished, so this returns at once — and without the copy of
            // the run that `poll` makes.
            let mut run = handle.wait();
            let numbers = extract(&mut run, submitted.traced);
            collected.push(Collected {
                submitted,
                done,
                run,
                numbers,
            });
        }
        std::thread::sleep(COLLECTOR_SWEEP);
    }
    (collected, thread_cpu_seconds() - cpu_started)
}

fn open_loop(
    data: &mut RunData,
    expected: &[Expected],
    session: &Caesura,
    settings: Settings,
    budget_s: f64,
    recorder: &Arc<Recorder>,
) {
    let schedule = poisson_schedule(
        settings.seed,
        OFFERED_RATE,
        budget_s,
        data.inputs.queries.len(),
    );
    let (outgoing, incoming) = mpsc::channel();
    let mut rejected = Vec::new();
    let started = Instant::now();
    let cpu_started = cpu_seconds();
    let submitter_cpu_started = thread_cpu_seconds();
    // The traced run records spans for the first half of the arrivals only,
    // to measure the tracing overhead.
    let traced_until = if settings.trace {
        schedule.len() / 2
    } else {
        0
    };
    let mut halfway = (started, cpu_started);
    let (collected, collector_cpu_s) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(incoming));
        for (index, arrival) in schedule.iter().enumerate() {
            let traced = index < traced_until;
            if index == traced_until {
                halfway = (Instant::now(), cpu_seconds());
            }
            recorder.set_enabled(traced);
            let due = started + Duration::from_secs_f64(arrival.due_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let stats = session.serving_stats();
            let options = if arrival.batch_tier {
                SubmitOptions::for_tenant("batch").batch()
            } else {
                SubmitOptions::for_tenant("interactive")
            };
            let text = data.inputs.queries[arrival.query].query.text;
            let submitted = Instant::now();
            match session.submit_with(text, options) {
                Ok(handle) => {
                    let meta = Submitted {
                        arrival: *arrival,
                        due,
                        submitted,
                        submit_us: submitted.elapsed().as_nanos() as f64 / 1e3,
                        queued_at_arrival: stats.queued,
                        in_flight_at_arrival: stats.in_flight,
                        traced,
                    };
                    outgoing
                        .send((meta, handle))
                        .expect("the collector outlives the submitter");
                }
                Err(_) => rejected.push(Sample::rejected(
                    arrival.query,
                    usize::from(settings.trace && !traced),
                    arrival.batch_tier,
                    recorder.at_us(submitted),
                )),
            }
        }
        drop(outgoing);
        collector.join().expect("the collector does not panic")
    });
    let finished = collected
        .iter()
        .map(|c| c.done)
        .max()
        .unwrap_or_else(Instant::now);
    let cpu_finished = cpu_seconds();
    // The open loop's generator polls, which costs several times the CPU the
    // queries themselves use here; the program's CPU is the process's minus
    // the generator's two threads.
    let generator_cpu_s = collector_cpu_s + (thread_cpu_seconds() - submitter_cpu_started);
    let program_share = 1.0 - generator_cpu_s / (cpu_finished - cpu_started);
    let stretch = |from: (Instant, f64), to: (Instant, f64), queries: usize, traced: bool| Round {
        wall_s: to.0.duration_since(from.0).as_secs_f64(),
        cpu_s: (to.1 - from.1) * program_share,
        queries,
        traced,
    };
    let (start, end) = ((started, cpu_started), (finished, cpu_finished));
    data.rounds = if settings.trace {
        vec![
            stretch(start, halfway, traced_until, true),
            stretch(halfway, end, schedule.len() - traced_until, false),
        ]
    } else {
        vec![stretch(start, end, schedule.len(), false)]
    };

    // Grading, after the clocks have stopped.
    data.samples = rejected;
    for Collected {
        submitted: outstanding,
        done,
        run,
        numbers,
    } in collected
    {
        data.samples.push(Sample {
            query: outstanding.arrival.query,
            part: Part::Main,
            round: usize::from(settings.trace && !outstanding.traced),
            traced: outstanding.traced,
            batch_tier: outstanding.arrival.batch_tier,
            latency_ms: done.duration_since(outstanding.due).as_secs_f64() * 1e3,
            submit_us: outstanding.submit_us,
            lateness_ms: outstanding
                .submitted
                .duration_since(outstanding.due)
                .as_secs_f64()
                * 1e3,
            queued_at_arrival: outstanding.queued_at_arrival,
            in_flight_at_arrival: outstanding.in_flight_at_arrival,
            span_us: (recorder.at_us(outstanding.submitted), recorder.at_us(done)),
            llm_calls: numbers.llm_calls,
            prompt_tokens: numbers.prompt_tokens,
            perception: numbers.perception,
            plan_cache: numbers.plan_cache,
            timings: numbers.timings,
            response_hashes: numbers.response_hashes,
            verdict: verdict(&data.inputs, expected, outstanding.arrival.query, &run),
        });
    }
    data.samples
        .sort_by(|a, b| a.span_us.0.total_cmp(&b.span_us.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seed_deterministic() {
        let a = poisson_schedule(42, OFFERED_RATE, 20.0, 28);
        assert_eq!(a, poisson_schedule(42, OFFERED_RATE, 20.0, 28));
        assert_ne!(a, poisson_schedule(43, OFFERED_RATE, 20.0, 28));
        assert!(a.windows(2).all(|pair| pair[0].due_s < pair[1].due_s));
        assert!(a
            .iter()
            .all(|arrival| arrival.due_s <= 20.0 && arrival.query < 28));
    }

    #[test]
    fn every_seed_offers_the_same_rate_query_mix_and_tenant_mix() {
        let rate = 30.0;
        for seed in [1, 7, 1337] {
            let schedule = poisson_schedule(seed, rate, 20.0, 28);
            // 600 arrivals fit; 21 whole passes over the suite are 588.
            assert_eq!(schedule.len(), 588);
            let span = schedule.last().unwrap().due_s;
            assert!((schedule.len() as f64 / span - rate).abs() < 1e-9);
            for query in 0..28 {
                assert_eq!(schedule.iter().filter(|a| a.query == query).count(), 21);
            }
            let interactive = schedule.iter().filter(|a| !a.batch_tier).count();
            assert!((interactive as f64 / 588.0 - INTERACTIVE_SHARE).abs() < 0.005);
            // Gaps are exponential, not regular: some are several times the mean.
            let longest = schedule
                .windows(2)
                .map(|pair| pair[1].due_s - pair[0].due_s)
                .fold(0.0, f64::max);
            assert!(longest > 3.0 / rate, "longest gap {longest}");
        }
        // A run too short for one pass still makes one.
        assert_eq!(poisson_schedule(1, rate, 0.5, 28).len(), 28);
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("all"), None);
    }

    #[test]
    fn temp_root_removes_its_directories() {
        let mut temp = TempRoot::new();
        let dir = temp.fresh();
        assert_ne!(dir, temp.fresh());
        std::fs::create_dir_all(&dir).unwrap();
        let root = dir.parent().unwrap().to_path_buf();
        drop(temp);
        assert!(!root.exists());
    }
}
