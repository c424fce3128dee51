//! Holds the committed crossover table (`BENCH_crossover.json`, written by
//! `cargo run --release -p caesura-bench --bin crossover`) and the minimum
//! row counts compiled into `caesura_engine::parallel::Region::min_rows` to
//! each other: the default configuration admits a relational region exactly
//! where the table says it does, and no admitted cell measured slower than
//! its sequential kernel.

use caesura::engine::parallel::{ExecConfig, Region};

/// The raw text of `"name": value` in a one-line JSON object.
fn field<'a>(line: &'a str, name: &str) -> &'a str {
    let start = line
        .find(&format!("\"{name}\": "))
        .unwrap_or_else(|| panic!("no field {name} in {line}"))
        + name.len()
        + 4;
    let rest = &line[start..];
    rest[..rest.find([',', '}']).expect("field ends")]
        .trim()
        .trim_matches('"')
}

#[test]
fn the_committed_table_and_the_compiled_minimums_agree() {
    let table = include_str!("../BENCH_crossover.json");
    let nproc: usize = table
        .lines()
        .find(|l| l.trim_start().starts_with("\"nproc\""))
        .map(|l| field(l, "nproc").parse().unwrap())
        .expect("provenance names nproc");
    let gated = ExecConfig {
        gated: true,
        ..ExecConfig::with_threads(nproc.max(2))
    };
    let cells: Vec<&str> = table
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"op\""))
        .collect();
    for region in Region::ALL {
        // `Gather` has no workload of its own: joins and filters carry it.
        let measured = cells
            .iter()
            .filter(|c| field(c, "region") == format!("{region:?}"))
            .count();
        assert!(
            measured >= 5 || region == Region::Gather,
            "{region:?} is not measured at every size"
        );
    }
    for cell in cells {
        let region = Region::ALL
            .into_iter()
            .find(|r| format!("{r:?}") == field(cell, "region"))
            .unwrap_or_else(|| panic!("unknown region in {cell}"));
        let rows: usize = field(cell, "rows").parse().unwrap();
        let t1: f64 = field(cell, "t1_ms").parse().unwrap();
        let tn: f64 = field(cell, "tn_ms").parse().unwrap();
        let admitted: bool = field(cell, "admitted").parse().unwrap();
        assert_eq!(
            admitted,
            gated.should_parallelize(region, rows),
            "the table and Region::min_rows disagree: {cell}"
        );
        assert!(
            !admitted || tn <= t1,
            "admitted, yet slower in parallel: {cell}"
        );
    }
}
