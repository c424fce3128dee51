//! The sequential-vs-parallel crossover table of the relational operators.
//!
//! For join, filter, aggregate and sort at 8k / 32k / 100k / 400k / 1M rows
//! this measures the sequential kernel (`threads = 1`) against the morsel
//! pool pinned at `threads = nproc` (an explicit [`ExecConfig`] pin, so the
//! parallel kernel runs whatever the default gate says) and records, per
//! cell, whether the default configuration admits the region
//! ([`Region::min_rows`]). `BENCH_crossover.json` at the repository root is
//! this binary's committed output: the minimum row counts in
//! `crates/engine/src/parallel.rs` are read off it, and
//! `tests/crossover_table.rs` fails when the file and the constants disagree
//! or an admitted cell is slower than its sequential kernel.
//!
//! ```bash
//! cargo run --release -p caesura-bench --bin crossover            # full table → BENCH_crossover.json
//! cargo run --release -p caesura-bench --bin crossover -- --smoke # 8k rows, 3 samples, stdout only (CI)
//! ```
//!
//! Exits non-zero when an admitted cell measures slower than sequential.

use caesura_bench::{fk_tables, scores_table, teams_table};
use caesura_engine::parallel::{self, ExecConfig, Region};
use caesura_engine::{ops, sql, Expr, Table};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const ROWS: [usize; 5] = [8_000, 32_000, 100_000, 400_000, 1_000_000];

/// One measured operator: its name in the table, the region whose gate
/// admits it, and the call under measurement.
struct Workload<'a> {
    op: &'static str,
    region: Region,
    run: Box<dyn Fn() + 'a>,
}

fn workloads<'a>(scores: &'a Table, teams: &'a Table, fk: &'a (Table, Table)) -> Vec<Workload<'a>> {
    let predicate = sql::parse_expression("points > 100").expect("predicate parses");
    vec![
        Workload {
            op: "join",
            region: Region::Join,
            run: Box::new(|| {
                black_box(
                    ops::hash_join(scores, teams, "team", "team", ops::JoinType::Inner).unwrap(),
                );
            }),
        },
        // The paper-scale shape: n ⋈ n on a unique string key, both sides in
        // key order (`paintings_metadata ⋈ painting_images ON img_path`).
        Workload {
            op: "join_fk",
            region: Region::Join,
            run: Box::new(|| {
                black_box(
                    ops::hash_join(&fk.0, &fk.1, "img_path", "img_path", ops::JoinType::Inner)
                        .unwrap(),
                );
            }),
        },
        Workload {
            op: "filter",
            region: Region::Expr,
            run: Box::new(move || {
                black_box(ops::filter(scores, &predicate).unwrap());
            }),
        },
        Workload {
            op: "aggregate",
            region: Region::Aggregate,
            run: Box::new(|| {
                black_box(
                    ops::aggregate(
                        scores,
                        &[(Expr::col("team"), "team".to_string())],
                        &[
                            ops::AggCall::new(
                                ops::AggFunc::Max,
                                Some(Expr::col("points")),
                                "max_points",
                            ),
                            ops::AggCall::count_star("games"),
                        ],
                    )
                    .unwrap(),
                );
            }),
        },
        Workload {
            op: "sort",
            region: Region::Sort,
            run: Box::new(|| {
                black_box(ops::sort(scores, &[ops::SortKey::desc(Expr::col("points"))]).unwrap());
            }),
        },
    ]
}

/// Median wall clocks of `run` under `a` and under `b`, in milliseconds,
/// from `samples` alternating single runs, so drift lands on both sides.
fn medians_ms(a: ExecConfig, b: ExecConfig, samples: usize, run: &dyn Fn()) -> (f64, f64) {
    let time = |config: ExecConfig| {
        let start = Instant::now();
        parallel::with_config(config, run);
        start.elapsed().as_secs_f64() * 1e3
    };
    let median = |mut times: Vec<f64>| {
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    // One unmeasured run each: first-touch page faults and worker spawn.
    time(a);
    time(b);
    let (mut times_a, mut times_b) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        times_a.push(time(a));
        times_b.push(time(b));
    }
    (median(times_a), median(times_b))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sequential = ExecConfig::sequential();
    let pinned = ExecConfig::with_threads(nproc);
    let gated = ExecConfig {
        gated: true,
        ..pinned
    };
    let rows: &[usize] = if smoke { &ROWS[..1] } else { &ROWS };

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo run --release -p caesura-bench --bin crossover\","
    );
    let _ = writeln!(
        out,
        "  \"provenance\": \"nproc={nproc}, threads 1 vs {nproc} (pinned ExecConfig), morsel_rows={}, medians of alternating samples; admitted = the default configuration runs the parallel kernel at this size\",",
        ExecConfig::DEFAULT_MORSEL_ROWS
    );
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"cells\": [");

    let mut slower_admitted = Vec::new();
    let mut lines = Vec::new();
    for &n in rows {
        let samples = if smoke {
            3
        } else if n >= 400_000 {
            15
        } else {
            51
        };
        let scores = scores_table(n);
        let teams = teams_table();
        let fk = fk_tables(n);
        for w in workloads(&scores, &teams, &fk) {
            let (t1, tn) = medians_ms(sequential, pinned, samples, &*w.run);
            let admitted = gated.should_parallelize(w.region, n);
            println!(
                "{:<10} {:>9} rows  t1 {:>9.3} ms  t{nproc} {:>9.3} ms  t{nproc}/t1 {:>5.2}  {}",
                w.op,
                n,
                t1,
                tn,
                tn / t1,
                if admitted { "admitted" } else { "sequential" }
            );
            if admitted && tn > t1 {
                slower_admitted.push(format!("{} at {n} rows", w.op));
            }
            lines.push(format!(
                "    {{\"op\": \"{}\", \"region\": \"{:?}\", \"rows\": {n}, \"t1_ms\": {t1:.3}, \"tn_ms\": {tn:.3}, \"ratio\": {:.2}, \"admitted\": {admitted}}}",
                w.op,
                w.region,
                tn / t1
            ));
        }
    }
    let _ = writeln!(out, "{}", lines.join(",\n"));
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");

    if !smoke {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crossover.json");
        std::fs::write(path, &out).expect("write BENCH_crossover.json");
        println!("wrote BENCH_crossover.json");
    }
    if !slower_admitted.is_empty() {
        eprintln!(
            "admitted cells slower than sequential: {}",
            slower_admitted.join(", ")
        );
        std::process::exit(1);
    }
}
