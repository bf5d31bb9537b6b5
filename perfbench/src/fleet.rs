//! The `campaign` workload: one 3-day churn campaign run in-process on one
//! thread, and the traced shard component, which runs the same config as
//! in-process shards and through `paper-report distribute` with two
//! single-threaded worker processes. Every JSON report must be
//! byte-identical to the in-process one.

use crate::configs::{campaign_config, recorded_canary, Canary, DISTRIBUTE_WORKERS};
use crate::stats::{best, median};
use crate::trace::Tracer;
use crate::{closed_loop, Env, Outcome};
use mp_bench::report_json;
use parasite::experiments::{
    run_campaign_shard, Artifact, ArtifactData, CampaignFleetResult, ExperimentId, Registry,
    RunConfig, RunCtx, ShardOutcome, ShardPlan,
};
use parasite::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The in-process campaign: the `paper-report --json` document and the
/// campaign result.
pub fn campaign(config: &RunConfig) -> Result<(String, CampaignFleetResult), String> {
    let artifact = Registry::get(ExperimentId::CampaignFleet)
        .try_run(config)
        .map_err(|error| error.to_string())?;
    let result = artifact
        .data
        .as_campaign_fleet()
        .cloned()
        .ok_or("the campaign produced a non-campaign artifact")?;
    Ok((report_json(config, &[artifact]).to_string(), result))
}

/// The `paper-report distribute` command line for `config`.
fn distribute_args(config: &RunConfig) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "distribute".into(),
        "--workers".into(),
        DISTRIBUTE_WORKERS.to_string(),
        "--only".into(),
        "campaign_fleet".into(),
        "--json".into(),
    ];
    for (flag, value) in [
        ("--seed", config.seed.to_string()),
        ("--fleet-clients", config.fleet_clients.to_string()),
        ("--fleet-aps", config.fleet_aps.to_string()),
        ("--fleet-days", config.fleet_days.to_string()),
        ("--fleet-churn", config.fleet_churn.to_string()),
        ("--fleet-jobs", config.fleet_jobs.to_string()),
    ] {
        args.push(flag.into());
        args.push(value);
    }
    args
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Vec<u32> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .filter_map(|part| match part.split_once('-') {
            Some((lo, hi)) => Some(lo.parse::<u32>().ok()?..=hi.parse::<u32>().ok()?),
            None => part.parse::<u32>().ok().map(|cpu| cpu..=cpu),
        })
        .flatten()
        .collect()
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and threads it starts later) to `cpus`;
/// returns whether the kernel accepted the set.
fn pin_thread(cpus: &[u32]) -> bool {
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        match mask.get_mut(cpu as usize / 64) {
            Some(word) => *word |= 1 << (cpu % 64),
            None => return false,
        }
    }
    // SAFETY: `mask` is a valid, initialised 128-byte CPU set that outlives
    // the call, which only reads it; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// How many `distribute` runs this process has pinned so far.
static PINNED_RUNS: AtomicUsize = AtomicUsize::new(0);

/// Runs `paper-report distribute` to completion and returns its stdout
/// document (the process and its workers have exited and been waited for).
///
/// The coordinator and both workers are pinned to one CPU with `taskset`:
/// on a small shared host, two workers in parallel finish fast only when
/// both cores happen to be free of outside load at once, which made the
/// fastest run wander by ±20% from run to run. Pinned, the run measures the
/// shards one after the other plus everything distribution adds — spawn,
/// the stdin protocol, the checkpoint codec and the merge. Successive runs
/// take the allowed CPUs in turn, so one core kept busy from outside for a
/// whole run does not set its fastest time.
pub fn distribute(paper_report: &Path, config: &RunConfig) -> Result<String, String> {
    let cpus = allowed_cpus();
    let mut command = if cpus.is_empty() {
        Command::new(paper_report)
    } else {
        let cpu = cpus[PINNED_RUNS.fetch_add(1, Ordering::Relaxed) % cpus.len()];
        let mut command = Command::new("taskset");
        command.args(["-c", &cpu.to_string()]).arg(paper_report);
        command
    };
    let output = command
        .args(distribute_args(config))
        .stdin(Stdio::null())
        .output()
        .map_err(|error| format!("cannot run {}: {error}", paper_report.display()))?;
    if !output.status.success() {
        return Err(format!(
            "distribute exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8(output.stdout)
        .map(|text| text.trim_end().to_string())
        .map_err(|_| "distribute printed non-UTF-8 output".to_string())
}

/// Structural checks every campaign result must pass, plus the recorded
/// canary; returns the failures.
pub fn check_result(config: &RunConfig, result: &CampaignFleetResult, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let canary = Canary::of(result);
    match recorded_canary("campaign", seed) {
        Some(recorded) if recorded == canary => {}
        recorded => problems.push(format!(
            "behaviour changed: canary {canary:?} != recorded {recorded:?}"
        )),
    }
    if result.day_stats.len() != config.fleet_days as usize {
        problems.push(format!(
            "{} day records, expected {}",
            result.day_stats.len(),
            config.fleet_days
        ));
    }
    if result.day_stats.first().map(|day| day.exposed) != Some(config.fleet_clients) {
        problems.push("day 1 did not expose every seat".to_string());
    }
    if result.infected_clients + result.clean_clients != config.fleet_clients
        || result.failed_aps != 0
    {
        problems.push("seats are not conserved or an AP failed".to_string());
    }
    problems
}

fn exposures(result: &CampaignFleetResult) -> usize {
    result.day_stats.iter().map(|day| day.exposed).sum()
}

/// The untraced measured run of `campaign`.
pub fn measure(env: &Env, setups: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let config = campaign_config(env.seed);

    // Set-up: the in-process reference document every measured run must
    // reproduce byte for byte; repeated over the run.
    let started = Instant::now();
    let reference = campaign(&config);
    let first_setup = started.elapsed().as_secs_f64();
    let (reference, result) = match reference {
        Ok(run) => run,
        Err(error) => {
            outcome.check(false, || format!("reference campaign failed: {error}"));
            return outcome;
        }
    };
    let problems = check_result(&config, &result, env.seed);
    outcome.check(problems.is_empty(), || problems.join("; "));
    let exposures_per_op = exposures(&result);

    // Each document is checked as soon as it is made, so that what the run
    // keeps in memory does not grow with the number of operations.
    // Successive campaigns take the allowed CPUs in turn: the host slows one
    // vCPU for stretches of seconds to a minute about as often as both, and
    // the fastest campaign should not depend on which vCPU the scheduler
    // happened to keep the thread on.
    let cpus = allowed_cpus();
    let (mut matched, mut setups_matched) = (Vec::new(), Vec::new());
    let measured = closed_loop(
        env.seconds,
        setups - 1,
        || setups_matched.push(campaign(&config).is_ok_and(|(document, _)| document == reference)),
        || {
            if let Some(cpu) = cpus.get(matched.len() % cpus.len().max(1)) {
                pin_thread(&[*cpu]);
            }
            matched.push(campaign(&config).map(|(document, _)| document == reference))
        },
    );
    pin_thread(&cpus);
    for ok in matched {
        match ok {
            Ok(ok) => outcome.check(ok, || {
                "campaign JSON differs from the reference".into()
            }),
            Err(error) => outcome.check(false, || error),
        }
    }
    for ok in setups_matched {
        outcome.check(ok, || "set-up campaign differs from the first".into());
    }
    let (walls, elapsed) = (measured.walls, measured.elapsed);
    let setup_times: Vec<f64> = std::iter::once(first_setup)
        .chain(measured.setups)
        .collect();

    let peak = crate::rss::self_peak_mib();
    let setup_s = median(&setup_times);
    let wall_s = median(&walls);
    let exposures_per_s = (walls.len() * exposures_per_op) as f64 / elapsed;
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("wall_ms", best(&walls) * 1e3, "ms");
    outcome.metric("peak_rss_mib", peak.unwrap_or(f64::NAN), "MiB");
    outcome.note(format!("setup_s = {setup_s:.6} s (median of {setups})"));
    outcome.note(format!(
        "campaigns_per_s = {:.4} 1/s (mean over the run)",
        walls.len() as f64 / elapsed
    ));
    outcome.note(format!(
        "exposures_per_s = {exposures_per_s:.1} 1/s ({} runs of {exposures_per_op} exposures, median {wall_s:.4} s)",
        walls.len()
    ));
    outcome.note(format!(
        "peak_rss_mib = {:.2} MiB",
        peak.unwrap_or(f64::NAN)
    ));
    outcome.note(format!(
        "canary: total_events {} day1_events {} infected {}",
        result.total_events,
        result.day_stats.first().map_or(0, |day| day.events),
        result.infected_clients
    ));
    outcome
}

/// The traced component of the shard layer: `run_campaign_shard` over
/// `ShardPlan::split(config, 2)`, the checkpoint codec both ways, the merge,
/// and (given the binary) one real, pinned `paper-report distribute` run. Returns
/// whether the merged shards reproduce the recorded canary and the
/// `distribute` document equals the merged artifact's.
pub fn traced(seed: u64, paper_report: Option<&Path>, tracer: &mut Tracer) -> bool {
    let config = campaign_config(seed);
    tracer.span("distrib.total_s", |tracer| {
        let plans = ShardPlan::split(&config, DISTRIBUTE_WORKERS);
        let mut outcomes = Vec::new();
        for plan in plans {
            match tracer.span("distrib.shard_s", |_| {
                run_campaign_shard(&config, plan, &RunCtx::default())
            }) {
                Ok(outcome) => outcomes.push(outcome),
                Err(_) => return false,
            }
        }
        let documents: Vec<String> = tracer.span("distrib.encode", |_| {
            outcomes
                .iter()
                .map(|outcome| outcome.to_checkpoint_json(&config).to_string())
                .collect()
        });
        tracer.record_count(
            "distrib.result_bytes",
            documents.iter().map(String::len).sum::<usize>() as f64,
        );
        let decoded: Result<Vec<ShardOutcome>, String> = tracer.span("distrib.decode", |_| {
            documents
                .iter()
                .map(|document| {
                    let json = Json::parse(document).map_err(|error| error.to_string())?;
                    ShardOutcome::from_checkpoint_json(&json, &config)
                })
                .collect()
        });
        let Ok(decoded) = decoded else { return false };
        let merged = tracer.span("distrib.merge", |_| {
            decoded
                .into_iter()
                .try_fold(None::<ShardOutcome>, |merged, next| match merged {
                    None => Ok(Some(next)),
                    Some(merged) => merged.merge(next).map(Some),
                })
        });
        let Ok(Some(merged)) = merged else {
            return false;
        };
        let Ok(result) = merged.into_fleet_result(&config) else {
            return false;
        };
        let mut ok = recorded_canary("campaign", seed) == Some(Canary::of(&result));
        if let Some(binary) = paper_report {
            let expected = report_json(
                &config,
                &[Artifact {
                    id: ExperimentId::CampaignFleet,
                    config,
                    data: ArtifactData::CampaignFleet(result),
                }],
            )
            .to_string();
            let document = tracer.span("distribute.run_s", |_| distribute(binary, &config));
            ok &= document.as_deref() == Ok(expected.as_str());
        }
        ok
    })
}
