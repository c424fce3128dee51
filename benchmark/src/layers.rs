//! Per-layer metrics of the traced run, and the span file.
//!
//! Three sources feed them. **T**: what the program already reports per
//! query (`trace.timings()`, `perception_calls()`, `plan_cache_calls()`,
//! `Caesura::serving_stats()`). **W**: the [`TimedLlm`](crate::llm::TimedLlm)
//! wrapper around the injected client. **R**: the [replay pass](crate::replay).

use crate::inputs::Verdict;
use crate::llm::RoundTrip;
use crate::replay::{live_passes, Busy, ReplayOut};
use crate::spans::{Recorder, NO_QUERY};
use crate::stats::{mean, median, percentile, percentile_of, ratio, sorted};
use crate::workloads::{Part, RunData, Sample, WorkloadKind};
use caesura_core::Phase;
use std::collections::HashMap;

/// A reported number: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Every per-layer metric: name and unit, in reporting order. The values
/// come from [`per_layer`]; `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("core.serving.queue_wait_p50_ms", "ms"),
    ("core.serving.queue_wait_p95_ms", "ms"),
    ("core.serving.queued_mean", "count"),
    ("core.serving.in_flight_mean", "count"),
    ("core.serving.rejected_share", "share"),
    ("core.serving.submit_us_p50", "us"),
    ("core.sched.interactive.latency_p95_ms", "ms"),
    ("core.sched.batch.latency_p95_ms", "ms"),
    ("core.session.discovery_ms_per_query", "ms"),
    ("core.session.planning_ms_per_query", "ms"),
    ("core.session.mapping_ms_per_query", "ms"),
    ("core.session.execution_ms_per_query", "ms"),
    ("core.session.recovery_ms_per_query", "ms"),
    ("core.session.residual_ms_per_query", "ms"),
    ("core.session.residual_share", "share"),
    ("core.session.build_ms", "ms"),
    ("core.session.llm_phase_self_ms_per_query", "ms"),
    ("core.discovery.rank_us_per_query", "us"),
    ("core.executor.build_ms_per_query", "ms"),
    ("core.executor.drop_ms_per_query", "ms"),
    ("core.executor.replay_ms_per_query", "ms"),
    ("core.executor.replay_vs_phase_ratio", "ratio"),
    ("llm.client.round_trips_per_query", "count"),
    ("llm.client.busy_ms_per_query", "ms"),
    ("llm.client.round_trip_p50_ms", "ms"),
    ("llm.client.round_trip_p95_ms", "ms"),
    ("llm.client.prompt_tokens_per_call", "count"),
    ("llm.client.blocked_share", "share"),
    ("llm.sim.self_us_per_call", "us"),
    ("llm.plan.parse_us_per_response", "us"),
    ("llm.plan_cache.hit_rate", "share"),
    ("llm.plan_cache.disk_hit_rate", "share"),
    ("llm.plan_cache.insertions_per_query", "count"),
    ("llm.plan_cache.normalize_us_per_query", "us"),
    ("llm.plan_cache.lookup_us_per_query", "us"),
    ("engine.sql.steps_per_query", "count"),
    ("engine.sql.busy_ms_per_query", "ms"),
    ("engine.sql.step_p50_us", "us"),
    ("engine.sql.step_p95_us", "us"),
    ("engine.sql.rows_out_per_step", "count"),
    ("modal.operators.visual_qa.busy_ms_per_query", "ms"),
    ("modal.operators.text_qa.busy_ms_per_query", "ms"),
    ("modal.operators.image_select.busy_ms_per_query", "ms"),
    ("modal.transform.busy_ms_per_query", "ms"),
    ("modal.plot.busy_ms_per_query", "ms"),
    ("modal.operators.cold_us_per_row", "us"),
    ("modal.operators.warm_us_per_row", "us"),
    ("modal.batch.rows_per_query", "count"),
    ("modal.batch.dispatches_per_query", "count"),
    ("modal.batch.dedup_saved_share", "share"),
    ("modal.cache.hit_rate", "share"),
    ("modal.cache.evictions_per_query", "count"),
    ("modal.cache.disk_hit_rate", "share"),
    ("modal.cache.disk_writes_per_query", "count"),
    ("store.open_ms", "ms"),
    ("store.open_us_per_record", "us"),
    ("store.put_us_p50", "us"),
    ("store.put_us_p95", "us"),
    ("store.get_us_p50", "us"),
    ("store.get_us_p95", "us"),
    ("store.bytes_per_record", "B"),
    ("store.space_amplification", "ratio"),
    ("store.compactions", "count"),
    ("store.open_rss_mb", "MB"),
    ("store.populate.ms_per_query", "ms"),
    ("store.replay.ms_per_query", "ms"),
    ("store.replay.perception_calls", "count"),
    ("data.generate_ms", "ms"),
    ("harness.generator_lateness_p95_ms", "ms"),
    ("harness.trace_overhead_share", "share"),
    ("harness.unattributed_share", "share"),
];

/// Round trips matched to the measured queries that caused them.
pub struct Attribution {
    /// Per sample (same order as `RunData::samples`): indices into the
    /// round-trip list.
    pub per_sample: Vec<Vec<usize>>,
    /// Round trips no query claimed (in flight when recording toggled).
    pub unclaimed: Vec<usize>,
}

/// Match each round trip to a query: the client interface carries no query
/// identity, so a round trip belongs to the query whose trace holds a
/// response with the same hash and whose submit-to-completion window
/// contains it. Identical queries in flight together share their round
/// trips out in start order.
pub fn attribute(samples: &[Sample], round_trips: &[RoundTrip]) -> Attribution {
    let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut order: Vec<usize> = (0..round_trips.len()).collect();
    order.sort_by(|&a, &b| round_trips[a].start_us.total_cmp(&round_trips[b].start_us));
    for index in order {
        by_hash
            .entry(round_trips[index].response_hash)
            .or_default()
            .push(index);
    }
    let mut claimed = vec![false; round_trips.len()];
    // The collector notices a completion up to one sweep late.
    const SLACK_US: f64 = 2_000.0;
    let per_sample = samples
        .iter()
        .map(|sample| {
            let mut mine = Vec::new();
            for hash in &sample.response_hashes {
                let candidate = by_hash.get(hash).and_then(|candidates| {
                    candidates.iter().copied().find(|&index| {
                        !claimed[index]
                            && round_trips[index].start_us >= sample.span_us.0
                            && round_trips[index].end_us <= sample.span_us.1 + SLACK_US
                    })
                });
                if let Some(index) = candidate {
                    claimed[index] = true;
                    mine.push(index);
                }
            }
            mine
        })
        .collect();
    Attribution {
        per_sample,
        unclaimed: (0..round_trips.len())
            .filter(|&index| !claimed[index])
            .collect(),
    }
}

/// Add the measured queries and their round trips to the recorder, so the
/// span file holds the live spans next to the replay spans.
pub fn record_live_spans(data: &RunData, attribution: &Attribution, recorder: &Recorder) {
    for (ordinal, sample) in data.samples.iter().enumerate() {
        if !sample.traced {
            continue;
        }
        let query_id = ordinal as i64;
        let root = recorder.push(query_id, None, "query", sample.span_us.0, sample.span_us.1);
        for &index in &attribution.per_sample[ordinal] {
            let trip = &data.round_trips[index];
            recorder.push(
                query_id,
                Some(root),
                "llm.client.round_trip",
                trip.start_us,
                trip.end_us,
            );
        }
    }
    for &index in &attribution.unclaimed {
        let trip = &data.round_trips[index];
        recorder.push(
            NO_QUERY,
            None,
            "llm.client.round_trip",
            trip.start_us,
            trip.end_us,
        );
    }
}

fn ms(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(data: &RunData, replay: &ReplayOut, attribution: &Attribution) -> Vec<Metric> {
    let kind = data.kind;
    let samples = &data.samples;
    let n = samples.len().max(1) as f64;
    let per_query = |total: f64| total / n;
    let sum = |value: &dyn Fn(&Sample) -> f64| samples.iter().map(value).sum::<f64>();

    // ---- T: the program's own per-query accounting -------------------------
    let queue_waits = sorted(samples.iter().map(|s| ms(s.timings.queue_wait())).collect());
    let phase = |phase: Phase| per_query(sum(&|s| ms(s.timings.of(phase))));
    let total_ms = sum(&|s| ms(s.timings.total()));
    let residual_ms = sum(&|s| ms(s.timings.total().saturating_sub(s.timings.measured())));
    let tier_p95 = |batch: bool| {
        percentile_of(
            samples
                .iter()
                .filter(|s| s.batch_tier == batch && s.verdict != Verdict::Rejected)
                .map(|s| s.latency_ms)
                .collect(),
            0.95,
        )
    };
    let rejected = samples
        .iter()
        .filter(|s| s.verdict == Verdict::Rejected)
        .count() as f64;
    let part_mean = |part: Part| {
        mean(
            &samples
                .iter()
                .filter(|s| s.part == part)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    // Disk hit rate among queries that ran over a populated store.
    let over_store: Vec<&Sample> = samples
        .iter()
        .filter(|s| kind != WorkloadKind::RestartDisk || s.part == Part::Replay)
        .collect();
    let probes = sum(&|s| (s.perception.cache_hits + s.perception.cache_misses) as f64);
    let plan_probes = sum(&|s| (s.plan_cache.hits + s.plan_cache.misses) as f64);
    let rows = sum(&|s| s.perception.rows as f64);

    // ---- W: the timed client ------------------------------------------------
    let traced: Vec<usize> = (0..samples.len()).filter(|&i| samples[i].traced).collect();
    let traced_n = traced.len().max(1) as f64;
    let trips = &data.round_trips;
    let trip_ms = sorted(trips.iter().map(RoundTrip::duration_ms).collect());
    let trips_ms_total: f64 = trip_ms.iter().sum();
    let traced_total_ms: f64 = traced.iter().map(|&i| ms(samples[i].timings.total())).sum();
    let traced_llm_phase_ms: f64 = traced
        .iter()
        .map(|&i| {
            let timings = &samples[i].timings;
            ms(timings.of(Phase::Planning)
                + timings.of(Phase::Mapping)
                + timings.of(Phase::Recovery))
        })
        .sum();
    let claimed_ms = |sample: usize| -> f64 {
        attribution.per_sample[sample]
            .iter()
            .map(|&t| trips[t].duration_ms())
            .sum()
    };
    let traced_claimed_ms: f64 = traced.iter().map(|&i| claimed_ms(i)).sum();

    // ---- R: the replay pass -------------------------------------------------
    let passes = live_passes(kind);
    let executions = (replay.rounds * replay.replayed.len() * passes.len()).max(1) as f64;
    let live_busy = |name: &str| -> Busy {
        passes.iter().fold(Busy::default(), |mut acc, &pass| {
            if let Some(busy) = replay.busy[pass].get(name) {
                acc.count += busy.count;
                acc.total_us += busy.total_us;
            }
            acc
        })
    };
    let step_ms_per_query = |name: &str| live_busy(name).total_us / 1e3 / executions;
    let replay_step_us: f64 = passes
        .iter()
        .flat_map(|&pass| replay.busy[pass].iter())
        .filter(|(name, _)| name.ends_with(".step"))
        .map(|(_, busy)| busy.total_us)
        .sum();
    // The program's own execution-phase time of the replayed queries, in the
    // cache states the matching passes mirror.
    let live_execution_ms: f64 = replay
        .replayed
        .iter()
        .map(|&query| {
            mean(
                &samples
                    .iter()
                    .filter(|s| s.query == query)
                    .map(|s| ms(s.timings.of(Phase::Execution)))
                    .collect::<Vec<_>>(),
            )
        })
        .sum::<f64>()
        * passes.len() as f64;
    let sql = live_busy("engine.sql.step");
    let sql_steps = sorted(
        passes
            .iter()
            .flat_map(|&pass| replay.sql_step_us[pass].iter().copied())
            .collect(),
    );
    let perception_us = |pass: usize| -> f64 {
        replay.busy[pass]
            .iter()
            .filter(|(name, _)| name.starts_with("modal.operators."))
            .map(|(_, busy)| busy.total_us)
            .sum()
    };
    let probe = |name: &str| replay.probes.get(name).copied().unwrap_or_default();
    let probe_us_per_query = |name: &str| {
        let suite_passes = (replay.rounds * data.inputs.queries.len()).max(1) as f64;
        probe(name).total_us / suite_passes
    };
    let store = replay.store.clone().unwrap_or_default();

    // What the traced run can account for on the replayed (clean) queries:
    // their own round trips, plus the replayed cost of everything else.
    let replayed_traced: Vec<usize> = traced
        .iter()
        .copied()
        .filter(|&i| replay.replayed.contains(&samples[i].query))
        .collect();
    let replayed_total_ms: f64 = replayed_traced
        .iter()
        .map(|&i| ms(samples[i].timings.total()))
        .sum();
    let replayed_llm_ms: f64 = replayed_traced.iter().map(|&i| claimed_ms(i)).sum();
    let build = live_busy("core.executor.build");
    let teardown = live_busy("core.executor.drop");
    let replay_ms_per_execution =
        (replay_step_us + build.total_us + teardown.total_us) / 1e3 / executions
            + [
                "core.discovery.rank",
                "llm.plan_cache.normalize",
                "llm.plan_cache.lookup",
                "llm.plan.parse",
            ]
            .iter()
            .map(|name| probe_us_per_query(name))
            .sum::<f64>()
                / 1e3;
    let attributed_ms = replayed_llm_ms + replayed_traced.len() as f64 * replay_ms_per_execution;

    let values = [
        (
            "core.serving.queue_wait_p50_ms",
            percentile(&queue_waits, 0.5),
        ),
        (
            "core.serving.queue_wait_p95_ms",
            percentile(&queue_waits, 0.95),
        ),
        (
            "core.serving.queued_mean",
            per_query(sum(&|s| s.queued_at_arrival as f64)),
        ),
        (
            "core.serving.in_flight_mean",
            per_query(sum(&|s| s.in_flight_at_arrival as f64)),
        ),
        ("core.serving.rejected_share", rejected / n),
        (
            "core.serving.submit_us_p50",
            percentile_of(samples.iter().map(|s| s.submit_us).collect(), 0.5),
        ),
        ("core.sched.interactive.latency_p95_ms", tier_p95(false)),
        ("core.sched.batch.latency_p95_ms", tier_p95(true)),
        (
            "core.session.discovery_ms_per_query",
            phase(Phase::Discovery),
        ),
        ("core.session.planning_ms_per_query", phase(Phase::Planning)),
        ("core.session.mapping_ms_per_query", phase(Phase::Mapping)),
        (
            "core.session.execution_ms_per_query",
            phase(Phase::Execution),
        ),
        ("core.session.recovery_ms_per_query", phase(Phase::Recovery)),
        ("core.session.residual_ms_per_query", per_query(residual_ms)),
        ("core.session.residual_share", ratio(residual_ms, total_ms)),
        ("core.session.build_ms", median(&data.session_build_ms)),
        (
            "core.session.llm_phase_self_ms_per_query",
            (traced_llm_phase_ms - traced_claimed_ms) / traced_n,
        ),
        (
            "core.discovery.rank_us_per_query",
            probe_us_per_query("core.discovery.rank"),
        ),
        (
            "core.executor.build_ms_per_query",
            build.total_us / 1e3 / executions,
        ),
        (
            "core.executor.drop_ms_per_query",
            teardown.total_us / 1e3 / executions,
        ),
        (
            "core.executor.replay_ms_per_query",
            replay_step_us / 1e3 / executions,
        ),
        (
            "core.executor.replay_vs_phase_ratio",
            ratio(
                replay_step_us / 1e3 / replay.rounds.max(1) as f64,
                live_execution_ms,
            ),
        ),
        (
            "llm.client.round_trips_per_query",
            trips.len() as f64 / traced_n,
        ),
        ("llm.client.busy_ms_per_query", trips_ms_total / traced_n),
        ("llm.client.round_trip_p50_ms", percentile(&trip_ms, 0.5)),
        ("llm.client.round_trip_p95_ms", percentile(&trip_ms, 0.95)),
        (
            "llm.client.prompt_tokens_per_call",
            ratio(
                trips.iter().map(|t| t.prompt_tokens as f64).sum(),
                trips.len() as f64,
            ),
        ),
        (
            "llm.client.blocked_share",
            ratio(trips_ms_total, traced_total_ms),
        ),
        (
            "llm.sim.self_us_per_call",
            ratio(
                (trips_ms_total - data.modelled_delay_s * 1e3) * 1e3,
                trips.len() as f64,
            ),
        ),
        (
            "llm.plan.parse_us_per_response",
            ratio(
                probe("llm.plan.parse").total_us,
                probe("llm.plan.parse").count as f64,
            ),
        ),
        (
            "llm.plan_cache.hit_rate",
            ratio(sum(&|s| s.plan_cache.hits as f64), plan_probes),
        ),
        (
            "llm.plan_cache.disk_hit_rate",
            ratio(sum(&|s| s.plan_cache.disk_hits as f64), plan_probes),
        ),
        (
            "llm.plan_cache.insertions_per_query",
            per_query(sum(&|s| s.plan_cache.insertions as f64)),
        ),
        (
            "llm.plan_cache.normalize_us_per_query",
            probe_us_per_query("llm.plan_cache.normalize"),
        ),
        (
            "llm.plan_cache.lookup_us_per_query",
            probe_us_per_query("llm.plan_cache.lookup"),
        ),
        ("engine.sql.steps_per_query", sql.count as f64 / executions),
        (
            "engine.sql.busy_ms_per_query",
            sql.total_us / 1e3 / executions,
        ),
        ("engine.sql.step_p50_us", percentile(&sql_steps, 0.5)),
        ("engine.sql.step_p95_us", percentile(&sql_steps, 0.95)),
        (
            "engine.sql.rows_out_per_step",
            ratio(replay.sql_rows_out.0 as f64, replay.sql_rows_out.1 as f64),
        ),
        (
            "modal.operators.visual_qa.busy_ms_per_query",
            step_ms_per_query("modal.operators.visual_qa.step"),
        ),
        (
            "modal.operators.text_qa.busy_ms_per_query",
            step_ms_per_query("modal.operators.text_qa.step"),
        ),
        (
            "modal.operators.image_select.busy_ms_per_query",
            step_ms_per_query("modal.operators.image_select.step"),
        ),
        (
            "modal.transform.busy_ms_per_query",
            step_ms_per_query("modal.transform.step"),
        ),
        (
            "modal.plot.busy_ms_per_query",
            step_ms_per_query("modal.plot.step"),
        ),
        (
            "modal.operators.cold_us_per_row",
            ratio(perception_us(0), replay.perception_rows[0] as f64),
        ),
        (
            "modal.operators.warm_us_per_row",
            ratio(perception_us(1), replay.perception_rows[1] as f64),
        ),
        ("modal.batch.rows_per_query", per_query(rows)),
        (
            "modal.batch.dispatches_per_query",
            per_query(sum(&|s| s.perception.batches as f64)),
        ),
        (
            "modal.batch.dedup_saved_share",
            ratio(sum(&|s| s.perception.saved_calls as f64), rows),
        ),
        (
            "modal.cache.hit_rate",
            ratio(sum(&|s| s.perception.cache_hits as f64), probes),
        ),
        (
            "modal.cache.evictions_per_query",
            per_query(sum(&|s| s.perception.cache_evictions as f64)),
        ),
        (
            "modal.cache.disk_hit_rate",
            ratio(
                over_store
                    .iter()
                    .map(|s| s.perception.disk_hits as f64)
                    .sum(),
                over_store
                    .iter()
                    .map(|s| s.perception.cache_misses as f64)
                    .sum(),
            ),
        ),
        (
            "modal.cache.disk_writes_per_query",
            per_query(sum(&|s| s.perception.disk_writes as f64)),
        ),
        ("store.open_ms", store.open_ms),
        (
            "store.open_us_per_record",
            ratio(store.open_ms * 1e3, store.live_records as f64),
        ),
        ("store.put_us_p50", percentile_of(store.put_us.clone(), 0.5)),
        (
            "store.put_us_p95",
            percentile_of(store.put_us.clone(), 0.95),
        ),
        ("store.get_us_p50", percentile_of(store.get_us.clone(), 0.5)),
        (
            "store.get_us_p95",
            percentile_of(store.get_us.clone(), 0.95),
        ),
        (
            "store.bytes_per_record",
            ratio(store.live_bytes as f64, store.live_records as f64),
        ),
        (
            "store.space_amplification",
            ratio(store.directory_bytes as f64, store.live_bytes as f64),
        ),
        ("store.compactions", store.compactions as f64),
        ("store.open_rss_mb", store.open_rss_mb),
        ("store.populate.ms_per_query", part_mean(Part::Populate)),
        ("store.replay.ms_per_query", part_mean(Part::Replay)),
        (
            "store.replay.perception_calls",
            samples
                .iter()
                .filter(|s| s.part == Part::Replay)
                .map(|s| s.perception.calls as f64)
                .sum(),
        ),
        ("data.generate_ms", data.inputs.generate_ms),
        (
            "harness.generator_lateness_p95_ms",
            percentile_of(samples.iter().map(|s| s.lateness_ms).collect(), 0.95),
        ),
        ("harness.trace_overhead_share", {
            let cpu_per_query = |traced: bool| {
                let rounds = data.rounds.iter().filter(|round| round.traced == traced);
                ratio(
                    rounds.clone().map(|round| round.cpu_s).sum(),
                    rounds.map(|round| round.queries as f64).sum(),
                )
            };
            ratio(
                cpu_per_query(true) - cpu_per_query(false),
                cpu_per_query(false),
            )
        }),
        (
            "harness.unattributed_share",
            1.0 - ratio(attributed_ms, replayed_total_ms),
        ),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (computed, value))| {
            assert_eq!(
                name, computed,
                "per-layer values follow the registry's order"
            );
            // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
            (name, unit, value + 0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesura_core::{PerceptionCalls, PhaseTimings, PlanCacheCalls};

    fn sample(span_us: (f64, f64), response_hashes: Vec<u64>) -> Sample {
        Sample {
            query: 0,
            part: Part::Main,
            round: 0,
            traced: true,
            batch_tier: false,
            latency_ms: (span_us.1 - span_us.0) / 1e3,
            submit_us: 1.0,
            lateness_ms: 0.0,
            queued_at_arrival: 0,
            in_flight_at_arrival: 0,
            span_us,
            llm_calls: response_hashes.len(),
            prompt_tokens: 0,
            perception: PerceptionCalls::default(),
            plan_cache: PlanCacheCalls::default(),
            timings: PhaseTimings::default(),
            response_hashes,
            verdict: Verdict::Pass,
        }
    }

    fn trip(start_us: f64, end_us: f64, response_hash: u64) -> RoundTrip {
        RoundTrip {
            start_us,
            end_us,
            prompt_tokens: 10,
            response_hash,
        }
    }

    #[test]
    fn round_trips_go_to_the_query_whose_window_and_responses_match() {
        // Two overlapping queries ask the same first question (hash 1); the
        // second also asks hash 2. A stray round trip (hash 9) matches no one.
        let samples = vec![
            sample((0.0, 100.0), vec![1]),
            sample((50.0, 200.0), vec![1, 2]),
        ];
        let trips = vec![
            trip(60.0, 90.0, 1),
            trip(10.0, 40.0, 1),
            trip(120.0, 150.0, 2),
            trip(300.0, 310.0, 9),
        ];
        let attribution = attribute(&samples, &trips);
        assert_eq!(attribution.per_sample, vec![vec![1], vec![0, 2]]);
        assert_eq!(attribution.unclaimed, vec![3]);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
