//! The repo's benchmark (see `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repo).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints, as the last line of standard output,
//! one JSON object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--workload all` (the default) runs each workload in a child process of
//! its own, so that `peak_rss_mb` is per workload; `--aa` runs that set twice
//! and compares the two; `--quick` is a smoke run of about a second per
//! workload.
//!
//! The harness drives the system through its public API only.

mod inputs;
mod layers;
mod llm;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use report::END_TO_END;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use workloads::{out_dir, Settings, WorkloadKind, OFFERED_RATE};

/// Seconds one measured phase lasts unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 24;
/// Set-up cycles per run; `setup_s` is their median.
const SETUP_CYCLES: usize = 5;
/// The store never syncs on `put` (only compaction does); recorded with the
/// results because `restart_disk` depends on it.
const FLUSH_POLICY: &str = "program default: no fsync on put, sync on compaction only";

struct Cli {
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
        aa: false,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload = match name.as_str() {
                    "all" => None,
                    name => Some(WorkloadKind::parse(name).ok_or_else(|| {
                        format!(
                            "unknown workload {name:?}; expected all or one of {:?}",
                            WorkloadKind::ALL.map(WorkloadKind::name)
                        )
                    })?),
                };
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--aa" => cli.aa = true,
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.quick {
        cli.seconds = 1.0;
    }
    Ok(cli)
}

/// The `CAESURA_*` variables set in the environment. Any of them would
/// reconfigure the program under test behind the benchmark's back.
fn caesura_variables() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("CAESURA_"))
        .collect()
}

fn first_line_of(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// File-system type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path
        .ancestors()
        .find_map(|ancestor| ancestor.canonicalize().ok())
        .unwrap_or_default();
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

fn provenance(kind: WorkloadKind, cli: &Cli, nproc: usize) -> String {
    format!(
        "provenance: nproc {nproc}; load-generator threads {}; seed {}; seconds {}; trace {}; rustc {:?}; git commit {}; store flush policy: {FLUSH_POLICY}; temp-dir filesystem {}",
        kind.generator_threads(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        first_line_of(Command::new("rustc").arg("--version")),
        // The ceiling keeps git from adopting a repository above this one
        // when the checkout is not a repository itself.
        first_line_of(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .env(
                    "GIT_CEILING_DIRECTORIES",
                    Path::new(env!("CARGO_MANIFEST_DIR"))
                        .ancestors()
                        .nth(2)
                        .unwrap_or(Path::new("/")),
                ),
        ),
        filesystem_of(&out_dir()),
    )
}

/// Run one workload in this process and print its result line.
fn run_workload(kind: WorkloadKind, cli: &Cli) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if kind.generator_threads() > nproc {
        return Err(format!(
            "the load generator of {} needs {} threads but the host has {nproc}",
            kind.name(),
            kind.generator_threads()
        ));
    }
    println!("{}", provenance(kind, cli, nproc));
    let recorder = Arc::new(Recorder::new());
    let settings = Settings {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        setup_cycles: if cli.quick { 1 } else { SETUP_CYCLES },
    };
    let mut data = workloads::run(kind, settings, &recorder);
    let outcome = report::Outcome::of(&data);
    print!("{}", report::summary(&data, &outcome));

    let end_to_end = report::end_to_end(&data, &outcome);
    let metrics = if cli.trace {
        let replayed = replay::replay(&mut data, &recorder, cli.seconds / 4.0);
        let attribution = layers::attribute(&data.samples, &data.round_trips);
        layers::record_live_spans(&data, &attribution, &recorder);
        let spans = recorder.snapshot();
        let path = out_dir().join(format!("{}.spans.jsonl", kind.name()));
        spans::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}; replay pass: {} rounds over {} clean suite queries",
            spans.len(),
            path.display(),
            replayed.rounds,
            replayed.replayed.len()
        );
        print!("{}", report::self_time_table(&spans::self_times(&spans)));
        println!(
            "  end-to-end metrics of the traced run (for orientation; cite the untraced run):"
        );
        print!("{}", report::metric_table(&end_to_end));
        let per_layer = layers::per_layer(&data, &replayed, &attribution);
        println!("  per-layer metrics:");
        per_layer
    } else {
        println!("  end-to-end metrics:");
        end_to_end
    };
    print!("{}", report::metric_table(&metrics));

    if kind == WorkloadKind::BlockedServing {
        let lateness =
            stats::percentile_of(data.samples.iter().map(|s| s.lateness_ms).collect(), 0.95);
        let gap_ms = 1e3 / OFFERED_RATE;
        if lateness > 0.05 * gap_ms {
            println!(
                "  warning: the generator ran {lateness:.3} ms late at p95, more than 5 % of the {gap_ms:.1} ms mean gap between arrivals"
            );
        }
    }
    let finite = metrics.iter().all(|(_, _, value)| value.is_finite());
    let correct = outcome.failed() == 0 && outcome.attempted > 0 && finite;
    // The store directories go before the result is printed.
    drop(data);
    println!("{}", report::result_line(correct, &outcome, &metrics));
    Ok(())
}

/// Run one workload in a child process, echo what it prints, and return its
/// result line.
fn run_child(kind: WorkloadKind, cli: &Cli) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }]);
    if cli.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!(
            "workload {} exited with {}",
            kind.name(),
            output.status
        ));
    }
    stdout
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("workload {} printed nothing", kind.name()))
}

type ResultSet = BTreeMap<&'static str, (bool, usize, usize, BTreeMap<String, f64>)>;

/// Every workload once, each in its own process.
fn run_all(cli: &Cli) -> Result<ResultSet, String> {
    let mut results = ResultSet::new();
    for kind in WorkloadKind::ALL {
        let line = run_child(kind, cli)?;
        let parsed = report::parse_result_line(&line)
            .ok_or_else(|| format!("workload {} printed no result line", kind.name()))?;
        results.insert(kind.name(), parsed);
        println!();
    }
    Ok(results)
}

/// Whether `second` is within `bound` of `first` in either direction (an A/A
/// pair has no better side).
fn agrees(first: f64, second: f64, bound: f64) -> bool {
    (second - first).abs() <= bound * first.abs()
}

/// The full untraced set twice; prints both values, their relative
/// difference and the bound per workload and metric.
fn run_aa(cli: &Cli) -> Result<bool, String> {
    let first = run_all(cli)?;
    let second = run_all(cli)?;
    let mut all_agree = true;
    println!("A/A comparison (same code, same seed, two full sets):");
    for kind in WorkloadKind::ALL {
        println!("  {}", kind.name());
        let (a, b) = (&first[kind.name()].3, &second[kind.name()].3);
        for metric in &END_TO_END {
            let (x, y) = (a[metric.name], b[metric.name]);
            // One client and a fixed suite: the closed loops' counts repeat
            // exactly or something is wrong.
            let exact = metric.unit == "count" && kind != WorkloadKind::BlockedServing;
            let bound = if exact { 0.0 } else { metric.bound };
            let ok = agrees(x, y, bound);
            all_agree &= ok;
            println!(
                "    {:<28} {x:>14.4} {y:>14.4} {:>+8.2} %  bound {:>5.1} % ({} is better)  {}",
                metric.name,
                stats::ratio(y - x, x) * 100.0,
                bound * 100.0,
                metric.better.name(),
                if ok { "ok" } else { "DISAGREES" }
            );
        }
    }
    Ok(all_agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: caesura-benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--aa] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    let set = caesura_variables();
    if !set.is_empty() {
        eprintln!(
            "error: refusing to run with {set:?} set; the benchmark runs the program's defaults"
        );
        return ExitCode::from(2);
    }
    let outcome = match (cli.aa, cli.workload) {
        (true, _) => run_aa(&cli).and_then(|agree| {
            agree
                .then_some(())
                .ok_or_else(|| "the two sets disagree beyond a bound".to_string())
        }),
        (false, Some(kind)) => run_workload(kind, &cli),
        (false, None) => run_all(&cli).map(|_| ()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&args(
            "--workload warm_repeat --seed 7 --seconds 24 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Some(WorkloadKind::WarmRepeat));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 24.0, true));
        let default = parse_cli(&[]).unwrap();
        assert_eq!(default.workload, None);
        assert_eq!(
            (default.seed, default.seconds),
            (42, DEFAULT_SECONDS as f64)
        );
        assert_eq!(parse_cli(&args("--quick")).unwrap().seconds, 1.0);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
    }

    #[test]
    fn aa_agreement_is_symmetric_and_relative() {
        assert!(agrees(100.0, 109.0, 0.10));
        assert!(agrees(100.0, 91.0, 0.10));
        assert!(!agrees(100.0, 111.0, 0.10));
        assert!(agrees(4.4167, 4.4167, 0.0));
    }

    #[test]
    fn quick_run_of_a_closed_loop_is_correct_end_to_end() {
        // The smallest real run: one short traced `warm_repeat`, checked the
        // way `main` checks it.
        let recorder = Arc::new(Recorder::new());
        let settings = Settings {
            seed: 5,
            seconds: 0.5,
            trace: true,
            setup_cycles: 1,
        };
        let mut data = workloads::run(WorkloadKind::WarmRepeat, settings, &recorder);
        let outcome = report::Outcome::of(&data);
        assert_eq!(outcome.failed(), 0);
        assert!(outcome.attempted >= 48);
        assert_eq!(data.oracle_misses, inputs::DESIGNED_MISSES);
        let replayed = replay::replay(&mut data, &recorder, 0.1);
        let attribution = layers::attribute(&data.samples, &data.round_trips);
        assert!(attribution.unclaimed.is_empty());
        let per_layer = layers::per_layer(&data, &replayed, &attribution);
        assert_eq!(per_layer.len(), layers::PER_LAYER.len());
        assert!(per_layer.iter().all(|(_, _, value)| value.is_finite()));
        let end_to_end = report::end_to_end(&data, &outcome);
        assert!(end_to_end.iter().all(|(_, _, value)| *value > 0.0));
    }
}
