//! End-to-end metrics, the printout, and the result line.

use crate::inputs::Verdict;
use crate::layers::Metric;
use crate::spans::LayerTime;
use crate::stats::{guarded_percentile, median, percentile, ratio, sorted, status_mb, TAIL_GUARD};
use crate::workloads::{RunData, WorkloadKind, OFFERED_RATE};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    /// Citation key of the metric.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// Its bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, in reporting order. `BENCHMARK.json` lists the
/// same names, units, directions and bounds.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_query", "ms", Better::Lower, 0.25),
    e2e("llm_calls_per_query", "count", Better::Lower, 0.01),
    e2e("prompt_tokens_per_query", "count", Better::Lower, 0.01),
    e2e("perception_calls_per_query", "count", Better::Lower, 0.01),
    e2e("ok_share", "share", Better::Higher, 0.001),
    e2e("slo_met_share", "share", Better::Higher, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// How many queries were attempted, how many failed, and why.
pub struct Outcome {
    /// Queries attempted.
    pub attempted: usize,
    /// Failures by cause, in [`Verdict::CAUSES`] order.
    pub by_cause: [usize; 4],
}

impl Outcome {
    /// Count the verdicts of `data`.
    pub fn of(data: &RunData) -> Outcome {
        let mut by_cause = [0; 4];
        for sample in &data.samples {
            if let Some(cause) = Verdict::CAUSES.iter().position(|c| *c == sample.verdict) {
                by_cause[cause] += 1;
            }
        }
        Outcome {
            attempted: data.samples.len(),
            by_cause,
        }
    }

    /// Queries that failed for any cause.
    pub fn failed(&self) -> usize {
        self.by_cause.iter().sum()
    }
}

/// The end-to-end metrics of a run, in [`END_TO_END`] order.
pub fn end_to_end(data: &RunData, outcome: &Outcome) -> Vec<Metric> {
    let attempted = outcome.attempted.max(1) as f64;
    let latencies = sorted(
        data.samples
            .iter()
            .filter(|s| s.verdict != Verdict::Rejected)
            .map(|s| s.latency_ms)
            .collect(),
    );
    let slo_ms = data.kind.slo_ms();
    let met = data
        .samples
        .iter()
        .filter(|s| s.verdict == Verdict::Pass && s.latency_ms <= slo_ms)
        .count() as f64;
    let total = |value: &dyn Fn(&crate::workloads::Sample) -> usize| {
        data.samples.iter().map(value).sum::<usize>() as f64
    };
    // Throughput and CPU are taken per round and reported as the median
    // round: the reference box slows down for seconds at a time, and a
    // median over rounds sheds those stretches where a total would not.
    // (The open loop is one stretch, so its median is its total.)
    let mut passed = vec![0usize; data.rounds.len()];
    for sample in data.samples.iter().filter(|s| s.verdict == Verdict::Pass) {
        passed[sample.round] += 1;
    }
    let rates: Vec<f64> = data
        .rounds
        .iter()
        .zip(passed)
        .map(|(round, passed)| ratio(passed as f64, round.wall_s))
        .collect();
    let cpu_ms: Vec<f64> = data
        .rounds
        .iter()
        .map(|round| ratio(round.cpu_s * 1e3, round.queries as f64))
        .collect();
    let values = [
        median(&data.setup_cycles_s),
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.95),
        median(&rates),
        median(&cpu_ms),
        total(&|s| s.llm_calls) / attempted,
        total(&|s| s.prompt_tokens) / attempted,
        total(&|s| s.perception.calls) / attempted,
        1.0 - outcome.failed() as f64 / attempted,
        met / attempted,
        status_mb("VmHWM"),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(metric, value)| (metric.name, metric.unit, value))
        .collect()
}

/// One row per metric: name, value, unit.
pub fn metric_table(metrics: &[Metric]) -> String {
    let width = metrics
        .iter()
        .map(|(name, _, _)| name.len())
        .max()
        .unwrap_or(0);
    metrics
        .iter()
        .fold(String::new(), |mut out, (name, unit, value)| {
            let _ = writeln!(out, "  {name:<width$}  {value:>14.4} {unit}");
            out
        })
}

/// The human-readable summary above the result line.
pub fn summary(data: &RunData, outcome: &Outcome) -> String {
    let mut out = String::new();
    let kind = data.kind;
    let latencies: Vec<f64> = data.samples.iter().map(|s| s.latency_ms).collect();
    let loop_shape = match kind {
        WorkloadKind::BlockedServing => format!(
            "open loop, Poisson arrivals offered at {OFFERED_RATE} queries/s, timed from each query's due time"
        ),
        _ => "closed loop, 1 client".to_string(),
    };
    let _ = writeln!(out, "workload {}: {loop_shape}", kind.name());
    let round_walls = sorted(data.rounds.iter().map(|round| round.wall_s).collect());
    let _ = writeln!(
        out,
        "  measured phase {:.3} s wall, {:.3} s CPU in {} rounds (round wall clock: median {:.4} s, quartiles {:.4} to {:.4} s); {} latency samples; set-up cycles {:?} s; reference pass {:.3} s",
        round_walls.iter().sum::<f64>(),
        data.rounds.iter().map(|round| round.cpu_s).sum::<f64>(),
        data.rounds.len(),
        percentile(&round_walls, 0.5),
        percentile(&round_walls, 0.25),
        percentile(&round_walls, 0.75),
        latencies.len(),
        data.setup_cycles_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        data.reference_pass_s,
    );
    if guarded_percentile(&sorted(latencies), 0.95).is_none() {
        let _ = writeln!(
            out,
            "  warning: fewer than {TAIL_GUARD} samples lie beyond p95; the tail will not repeat (run longer)"
        );
    }
    let _ = writeln!(
        out,
        "  attempted {} failed {} ({})",
        outcome.attempted,
        outcome.failed(),
        Verdict::CAUSES
            .iter()
            .zip(outcome.by_cause)
            .map(|(cause, count)| format!("{} {count}", cause.name()))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = writeln!(
        out,
        "  reference pass missed the oracle on {} of {} suite queries {:?} (the model profile's designed misses)",
        data.oracle_misses.len(),
        data.inputs.queries.len(),
        data.oracle_misses,
    );
    out
}

/// The self-time table of the traced run.
pub fn self_time_table(layers: &BTreeMap<&'static str, LayerTime>) -> String {
    let mut out =
        String::from("  span name                            count     total ms      self ms\n");
    for (name, layer) in layers {
        let _ = writeln!(
            out,
            "  {name:<34} {:>7} {:>12.3} {:>12.3}",
            layer.count,
            layer.total_us / 1e3,
            layer.self_us / 1e3
        );
    }
    out
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, outcome: &Outcome, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity; a metric that is either is a
            // harness bug, caught by `correct` in `main`.
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted,
        outcome.failed()
    )
}

/// A finite number with all its digits; 0 for anything JSON cannot hold.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The metrics of a result line, by name (the reader of our own format,
/// used by `--aa` on the lines its child runs print).
pub fn parse_result_line(line: &str) -> Option<(bool, usize, usize, BTreeMap<String, f64>)> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let name = &after[..after.find('"')?];
        let value_at = after.find("{\"value\": ")? + 10;
        let value = &after[value_at..];
        let value_end = value.find(',')?;
        metrics.insert(name.to_string(), value[..value_end].parse().ok()?);
        rest = &value[value.find('}')? + 1..];
    }
    Some((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_well_formed_and_round_trips() {
        let outcome = Outcome {
            attempted: 1000,
            by_cause: [0, 1, 0, 2],
        };
        let metrics: Vec<Metric> = vec![
            ("latency_p50_ms", "ms", 1.2034),
            ("queries_per_s", "1/s", 250.5),
            ("setup_s", "s", f64::NAN),
        ];
        let line = result_line(false, &outcome, &metrics);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 1000, \"failed\": 3, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"queries_per_s\": {\"value\": 250.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        // Balanced braces and quotes: the cheap well-formedness check that
        // needs no JSON parser.
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.matches('"').count() % 2, 0);
        let (correct, attempted, failed, parsed) = parse_result_line(&line).unwrap();
        assert!(!correct);
        assert_eq!((attempted, failed), (1000, 3));
        assert_eq!(parsed["latency_p50_ms"], 1.2034);
        assert_eq!(parsed["queries_per_s"], 250.5);
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_harness_prints() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the root of the repo");
        for metric in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                metric.name,
                metric.unit,
                metric.better.name(),
                metric.bound
            );
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in crate::layers::PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for kind in WorkloadKind::ALL {
            assert!(manifest.contains(&format!("{{\"name\": \"{}\", \"why\": ", kind.name())));
        }
        let listed = manifest.matches("\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + crate::layers::PER_LAYER.len() + 4
        );
        assert!(manifest.contains(&format!("\"run_seconds\": {}", crate::DEFAULT_SECONDS)));
    }
}
