//! The replay pass of the traced run: after the measured loop, the inputs
//! the workload produces (plans, operator decisions, model responses) are
//! pushed once more through each layer's public entry point with a span
//! around every call. That attributes time to layers the program does not
//! time itself, without touching a file outside `benchmark/`.
//!
//! Only queries that succeed without recovery are replayed: a recovered run
//! executed steps whose decisions were later replaced.

use crate::inputs::{model_responses, simulated_model, Inputs};
use crate::spans::{Recorder, NO_QUERY};
use crate::stats::{status_mb, SplitMix64};
use crate::workloads::{lake_store_dir, RunData, TempRoot, WorkloadKind};
use caesura_core::{
    lexical_relevant_columns, CaesuraConfig, Executor, Phase, Retriever, StepOutcome,
};
use caesura_engine::Catalog;
use caesura_llm::{
    normalize_query, schema_fingerprint, ErrorAnalysis, LlmClient, LogicalPlan, OperatorDecision,
    PlanCache,
};
use caesura_modal::{CacheConfig, OperatorKind, PerceptionCache};
use caesura_store::{CacheStore, PersistConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Span `query_id`s of the replay pass start here (plus the suite index), so
/// they never collide with the ordinals of the measured queries.
pub const REPLAY_QUERY_BASE: i64 = 1_000_000;
/// Replay rounds are time-boxed, but never fewer than the first nor more
/// than the second (on the tiny fieldwork lake a round takes milliseconds,
/// and every call leaves a span).
const ROUNDS: (usize, usize) = (2, 12);

/// Span name of an executed step, by the layer its operator belongs to.
pub fn step_span(operator: OperatorKind) -> &'static str {
    match operator {
        OperatorKind::SqlJoin
        | OperatorKind::SqlSelection
        | OperatorKind::SqlAggregation
        | OperatorKind::Sql => "engine.sql.step",
        OperatorKind::VisualQa => "modal.operators.visual_qa.step",
        OperatorKind::TextQa => "modal.operators.text_qa.step",
        OperatorKind::ImageSelect => "modal.operators.image_select.step",
        OperatorKind::PythonUdf => "modal.transform.step",
        OperatorKind::Plot => "modal.plot.step",
    }
}

/// Whether a step span belongs to the perception operators.
fn is_perception(name: &str) -> bool {
    name.starts_with("modal.operators.")
}

/// What the recording pass kept of one suite query.
struct Recording {
    /// The plan and its decisions, when the run was clean.
    clean: Option<(LogicalPlan, Vec<OperatorDecision>)>,
    /// Every model response of the run, with the phase that asked.
    responses: Vec<(Phase, String)>,
}

/// Count and total microseconds of the calls under one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Calls.
    pub count: usize,
    /// Their summed duration, microseconds.
    pub total_us: f64,
}

/// Calls and time by span name.
pub type BusyBy = BTreeMap<&'static str, Busy>;

/// Run `work` inside a span named `name` under `parent = (query_id, span_id)`
/// and add it to `busy`; returns the result and the duration in microseconds.
fn timed<T>(
    recorder: &Recorder,
    parent: (i64, u64),
    name: &'static str,
    busy: &mut BusyBy,
    work: impl FnOnce() -> T,
) -> (T, f64) {
    let (result, elapsed_us) = recorder.time(parent.0, Some(parent.1), name, work);
    let entry = busy.entry(name).or_default();
    entry.count += 1;
    entry.total_us += elapsed_us;
    (result, elapsed_us)
}

/// The two executor passes of a replay round. `First` runs over a fresh
/// perception cache (for `restart_disk`: over a fresh store as well);
/// `Second` runs over what `First` left behind (for `restart_disk`: a new
/// cache over the reopened store).
pub const PASSES: usize = 2;

/// Everything the replay pass measured.
#[derive(Default)]
pub struct ReplayOut {
    /// Replay rounds completed.
    pub rounds: usize,
    /// Suite queries replayed per round (the clean ones).
    pub replayed: Vec<usize>,
    /// Per pass and span name: calls and time, summed over all rounds.
    pub busy: [BusyBy; PASSES],
    /// Per pass: every `engine.sql.step` duration, microseconds.
    pub sql_step_us: [Vec<f64>; PASSES],
    /// Rows the replayed SQL steps produced, and how many steps that was.
    pub sql_rows_out: (usize, usize),
    /// Per pass: rows the perception operators walked.
    pub perception_rows: [usize; PASSES],
    /// Layers replayed once per suite query outside the executor: calls and
    /// time by span name.
    pub probes: BusyBy,
    /// The store drive (`restart_disk` only).
    pub store: Option<StoreDrive>,
}

/// Which executor passes mirror the cache state the measured loop ran in.
pub fn live_passes(kind: WorkloadKind) -> &'static [usize] {
    match kind {
        // Fresh sessions every round: everything misses.
        WorkloadKind::ColdMultimodal => &[0],
        // Long-lived sessions: everything that can hit, hits.
        WorkloadKind::WarmRepeat | WorkloadKind::BlockedServing => &[1],
        // Populate then replay from disk.
        WorkloadKind::RestartDisk => &[0, 1],
    }
}

/// The perception caches of one executor pass, one per lake.
fn fresh_caches(
    inputs: &Inputs,
    stores: Option<&[std::path::PathBuf]>,
) -> Vec<Arc<PerceptionCache>> {
    (0..inputs.lakes.len())
        .map(|lake| {
            let mut cache = CacheConfig::default()
                .build()
                .expect("the default perception cache is enabled");
            if let Some(dirs) = stores {
                let store = CacheStore::open(&dirs[lake]).expect("a scratch store directory opens");
                cache.attach_disk(Arc::new(store));
            }
            Arc::new(cache)
        })
        .collect()
}

/// Run the replay pass for `data`, spending about `budget_s` seconds on the
/// executor rounds.
pub fn replay(data: &mut RunData, recorder: &Recorder, budget_s: f64) -> ReplayOut {
    let kind = data.kind;
    let inputs = &data.inputs;
    let mut out = ReplayOut::default();

    // Recording pass: the suite once through fresh default sessions. The
    // program is deterministic, so these are the plans, decisions and
    // responses the measured loop produced.
    let llm: Arc<dyn LlmClient> = Arc::new(simulated_model());
    let sessions = inputs.sessions(&llm, |_| CaesuraConfig::default());
    let recordings: Vec<Recording> = inputs
        .queries
        .iter()
        .map(|suite_query| {
            let run = sessions[suite_query.lake].run(suite_query.query.text);
            let responses = model_responses(&run.trace)
                .map(|event| (event.phase, event.detail.clone()))
                .collect();
            let clean = run.succeeded() && !run.trace.recovered();
            Recording {
                clean: match run.logical_plan {
                    Some(plan) if clean && plan.steps.len() == run.decisions.len() => {
                        Some((plan, run.decisions))
                    }
                    _ => None,
                },
                responses,
            }
        })
        .collect();
    let replayed: Vec<usize> = (0..recordings.len())
        .filter(|&query| recordings[query].clean.is_some())
        .collect();

    // Executor rounds.
    let started = Instant::now();
    while out.rounds < ROUNDS.0
        || (out.rounds < ROUNDS.1 && started.elapsed().as_secs_f64() < budget_s)
    {
        let store_dirs: Option<Vec<_>> = (kind == WorkloadKind::RestartDisk)
            .then(|| inputs.lakes.iter().map(|_| data.temp.fresh()).collect());
        let mut caches = fresh_caches(inputs, store_dirs.as_deref());
        for pass in 0..PASSES {
            if pass > 0 && store_dirs.is_some() {
                // Restart: the first pass's caches (and their store handles)
                // go, new caches come up over the same directories.
                caches.clear();
                caches = fresh_caches(inputs, store_dirs.as_deref());
            }
            for &query in &replayed {
                executor_pass(
                    inputs,
                    &recordings,
                    query,
                    pass,
                    &caches,
                    recorder,
                    &mut out,
                );
            }
        }
        drop(caches);
        for dir in store_dirs.iter().flatten() {
            let _ = std::fs::remove_dir_all(dir);
        }
        out.rounds += 1;
    }
    out.replayed = replayed;

    // Discovery, plan-cache and parse probes, the same number of rounds.
    let retrievers: Vec<Retriever> = inputs.lakes.iter().map(Retriever::index).collect();
    let plan_caches: Vec<Option<Arc<PlanCache>>> = sessions
        .iter()
        .map(|session| {
            (kind != WorkloadKind::BlockedServing)
                .then(|| session.plan_cache().cloned())
                .flatten()
        })
        .collect();
    for _ in 0..out.rounds {
        for (query, recording) in recordings.iter().enumerate() {
            probe_pass(
                inputs,
                &retrievers,
                &plan_caches,
                query,
                recording,
                recorder,
                &mut out,
            );
        }
    }
    drop(sessions);

    if let Some(dir) = data.store_dir.clone() {
        out.store = Some(store_drive(
            &dir,
            &mut data.temp,
            data.inputs.lakes.len(),
            recorder,
        ));
    }
    out
}

/// Replay one clean query through a fresh executor, as the session does:
/// build the executor, then execute each decided step.
fn executor_pass(
    inputs: &Inputs,
    recordings: &[Recording],
    query: usize,
    pass: usize,
    caches: &[Arc<PerceptionCache>],
    recorder: &Recorder,
    out: &mut ReplayOut,
) {
    let (plan, decisions) = recordings[query]
        .clean
        .as_ref()
        .expect("only clean queries are replayed");
    let lake = &inputs.lakes[inputs.queries[query].lake];
    let parent = (REPLAY_QUERY_BASE + query as i64, recorder.reserve_id());
    let root_start = recorder.now_us();

    // The call the session makes per query (`SessionCore::make_executor`).
    let (executor, _) = timed(
        recorder,
        parent,
        "core.executor.build",
        &mut out.busy[pass],
        || Executor::new(lake.catalog().clone(), lake.images().clone()),
    );
    let mut executor =
        executor.with_perception_cache(Arc::clone(&caches[inputs.queries[query].lake]));

    for (step, decision) in plan.steps.iter().zip(decisions) {
        let name = step_span(decision.operator);
        let rows_before = executor.perception_stats().rows;
        let (outcome, elapsed_us) = timed(recorder, parent, name, &mut out.busy[pass], || {
            executor.execute(step, decision)
        });
        if name == "engine.sql.step" {
            out.sql_step_us[pass].push(elapsed_us);
            if let Ok(StepOutcome::Table { num_rows, .. }) = &outcome {
                out.sql_rows_out.0 += num_rows;
                out.sql_rows_out.1 += 1;
            }
        }
        if is_perception(name) {
            out.perception_rows[pass] += executor.perception_stats().rows - rows_before;
        }
        assert!(
            outcome.is_ok(),
            "a clean recorded step replays cleanly: {:?}",
            outcome.err()
        );
    }
    // The session drops its executor (the lake clone with it) per query too.
    timed(
        recorder,
        parent,
        "core.executor.drop",
        &mut out.busy[pass],
        || drop(executor),
    );
    recorder.push_with_id(
        parent.1,
        parent.0,
        None,
        "replay.query",
        root_start,
        recorder.now_us(),
    );
}

/// The catalog discovery hands the planner: the top-k tables and the foreign
/// keys among them (mirrors `SessionCore::discover`).
fn discovered_catalog(lake: &caesura_data::DataLake, top: &[String]) -> Catalog {
    let mut catalog = Catalog::new();
    for name in top {
        if let Ok(table) = lake.catalog().table(name) {
            catalog.register_shared(Arc::clone(table));
        }
    }
    for fk in lake.catalog().foreign_keys() {
        if catalog.contains(&fk.from_table) && catalog.contains(&fk.to_table) {
            catalog.add_foreign_key(fk.clone());
        }
    }
    catalog
}

/// Replay the per-query work outside the executor: discovery ranking, the
/// plan-cache key and probe, and parsing of the recorded responses.
fn probe_pass(
    inputs: &Inputs,
    retrievers: &[Retriever],
    plan_caches: &[Option<Arc<PlanCache>>],
    query: usize,
    recording: &Recording,
    recorder: &Recorder,
    out: &mut ReplayOut,
) {
    let suite_query = &inputs.queries[query];
    let lake = &inputs.lakes[suite_query.lake];
    let text = suite_query.query.text;
    let defaults = CaesuraConfig::default();
    let parent = (REPLAY_QUERY_BASE + query as i64, recorder.reserve_id());
    let root_start = recorder.now_us();
    let probes = &mut out.probes;

    let (top, _) = timed(recorder, parent, "core.discovery.rank", probes, || {
        let relevant = lexical_relevant_columns(lake, text, defaults.example_values);
        std::hint::black_box(relevant);
        retrievers[suite_query.lake].top_k(text, defaults.retrieval_top_k)
    });
    let catalog = discovered_catalog(lake, &top);
    let ((fingerprint, template), _) =
        timed(recorder, parent, "llm.plan_cache.normalize", probes, || {
            (schema_fingerprint(&catalog), normalize_query(text))
        });
    if let Some(cache) = &plan_caches[suite_query.lake] {
        timed(recorder, parent, "llm.plan_cache.lookup", probes, || {
            std::hint::black_box(cache.lookup(&fingerprint, &template));
        });
    }
    for (phase, response) in &recording.responses {
        timed(recorder, parent, "llm.plan.parse", probes, || match phase {
            Phase::Planning => drop(std::hint::black_box(LogicalPlan::parse(response))),
            Phase::Recovery => drop(std::hint::black_box(ErrorAnalysis::parse(response))),
            _ => drop(std::hint::black_box(OperatorDecision::parse(response))),
        });
    }
    recorder.push_with_id(
        parent.1,
        parent.0,
        None,
        "replay.probes",
        root_start,
        recorder.now_us(),
    );
}

/// What the store drive measured on `restart_disk`.
#[derive(Debug, Clone, Default)]
pub struct StoreDrive {
    /// Milliseconds inside `CacheStore::open` on the populated perception
    /// store (index rebuild), sessions dropped.
    pub open_ms: f64,
    /// Live records the open found.
    pub live_records: usize,
    /// Bytes those records occupy.
    pub live_bytes: u64,
    /// Bytes of every file in the store directory.
    pub directory_bytes: u64,
    /// Compactions the store ran since open, over every store of the round.
    pub compactions: u64,
    /// `VmRSS` growth across the open, MB.
    pub open_rss_mb: f64,
    /// Every `put` of the scratch drive, microseconds.
    pub put_us: Vec<f64>,
    /// Every `get` of the scratch drive, microseconds.
    pub get_us: Vec<f64>,
}

fn directory_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|entry| entry.ok()?.metadata().ok())
                .filter(|metadata| metadata.is_file())
                .map(|metadata| metadata.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Open the last populated store directories the way restarted sessions do,
/// then drive a scratch store of the same record count and mean record size.
fn store_drive(
    persist_root: &Path,
    temp: &mut TempRoot,
    lakes: usize,
    recorder: &Recorder,
) -> StoreDrive {
    let mut drive = StoreDrive::default();
    for lake in 0..lakes {
        let dir = PersistConfig::new(lake_store_dir(persist_root, lake)).perception_dir();
        let rss_before = status_mb("VmRSS");
        let (store, elapsed_us) = recorder.time(NO_QUERY, None, "store.open", || {
            CacheStore::open(&dir).expect("the populated store reopens")
        });
        drive.open_rss_mb += (status_mb("VmRSS") - rss_before).max(0.0);
        drive.open_ms += elapsed_us / 1e3;
        let stats = store.stats();
        drive.live_records += stats.live_records;
        drive.live_bytes += stats.live_bytes;
        drive.compactions += stats.compactions;
        drive.directory_bytes += directory_bytes(&dir);
    }

    let records = drive.live_records.max(1);
    let key_of = |index: usize| format!("benchmark-scratch-key-{index:012}");
    let record_bytes = (drive.live_bytes as usize / records).max(64);
    // The record frame (lengths, checksum) is the store's own; the value
    // takes what the mean record leaves after the key.
    let value = vec![0x5a_u8; record_bytes.saturating_sub(key_of(0).len() + 16).max(1)];
    let scratch = CacheStore::open(temp.fresh()).expect("a scratch store directory opens");
    for index in 0..records {
        let key = key_of(index);
        let (result, elapsed_us) = recorder.time(NO_QUERY, None, "store.put", || {
            scratch.put(key.as_bytes(), &value)
        });
        result.expect("a scratch put succeeds");
        drive.put_us.push(elapsed_us);
    }
    let mut rng = SplitMix64::new(records as u64);
    for _ in 0..records {
        let key = key_of((rng.next_u64() % records as u64) as usize);
        let (found, elapsed_us) =
            recorder.time(NO_QUERY, None, "store.get", || scratch.get(key.as_bytes()));
        assert!(found.is_some(), "every scratch key was put");
        drive.get_us.push(elapsed_us);
    }
    drive.compactions += scratch.stats().compactions;
    drive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operator_maps_to_a_layer_span() {
        for operator in OperatorKind::all() {
            let name = step_span(*operator);
            assert!(name.ends_with(".step"));
            assert_eq!(
                is_perception(name),
                matches!(
                    operator,
                    OperatorKind::VisualQa | OperatorKind::TextQa | OperatorKind::ImageSelect
                )
            );
        }
    }
}
