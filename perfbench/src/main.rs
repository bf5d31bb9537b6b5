//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--paper-report <binary>]`
//!
//! Runs one benchmark workload for `--seconds` seconds and prints, as the
//! last line of stdout, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Human-readable figures go to stderr.
//!
//! `perfbench record` prints a fresh `recorded.json` (report digests and
//! campaign canaries per input variant).

use perfbench::configs::{self, Canary, VARIANTS};
use perfbench::{daemon, fleet, layers, report, result_line, stats, Env, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Where sockets and span files go, relative to the checkout root.
const RUN_DIR: &str = ".bench_run";

struct Args {
    workload: String,
    trace: bool,
    env: Env,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut paper_report) =
        (None, None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--paper-report" => paper_report = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        trace: trace.unwrap_or(false),
        env: Env {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            paper_report,
            run_dir: PathBuf::from(RUN_DIR),
        },
    })
}

fn record() -> ExitCode {
    let seeds = 0..VARIANTS;
    let digests = seeds
        .clone()
        .map(|seed| {
            (
                configs::variant_seed(seed),
                stats::fnv1a64(report::report_text(seed).as_bytes()),
            )
        })
        .collect::<Vec<_>>();
    let mut campaign = Vec::new();
    let mut served = Vec::new();
    for seed in seeds {
        let variant = configs::variant_seed(seed);
        match fleet::campaign(&configs::campaign_config(seed)) {
            Ok((_, result)) => campaign.push((variant, Canary::of(&result))),
            Err(error) => {
                eprintln!("error: campaign variant {variant}: {error}");
                return ExitCode::FAILURE;
            }
        }
        match daemon::expected(&configs::daemon_config(seed)) {
            Ok(expected) => served.push((variant, Canary::of(&expected.shards))),
            Err(error) => {
                eprintln!("error: daemon variant {variant}: {error}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", configs::render_recorded(&digests, &campaign, &served));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record") {
        return record();
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.env.run_dir) {
        eprintln!("error: cannot create {RUN_DIR}: {error}");
        return ExitCode::FAILURE;
    }
    let env = &args.env;
    let outcome = match (args.trace, args.workload.as_str()) {
        (true, workload) => layers::run(env, workload),
        (false, "campaign") => fleet::measure(env, SETUPS),
        (false, _) => daemon::measure(env, SETUPS),
    };
    eprintln!(
        "{} (seed {}, {} thread(s)): attempted {}, failed {}, failed_frac = {}",
        args.workload,
        configs::variant_seed(env.seed),
        if args.workload == "daemon" {
            2
        } else {
            1
        },
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for metric in &outcome.metrics {
        eprintln!("  {} = {} {}", metric.name, metric.value, metric.unit);
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
