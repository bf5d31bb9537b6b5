//! Regenerates the paper's tables and figures from the experiment registry.
//!
//! ```text
//! paper-report                         # full text report, defaults
//! paper-report --json --jobs 8         # machine-readable, parallel
//! paper-report --only table1,fig3      # a subset of the artefacts
//! paper-report --seed 7 --scale 500    # tweak the run configuration
//! paper-report serve --socket /tmp/mp.sock          # service daemon
//! paper-report submit --socket /tmp/mp.sock \
//!     --only campaign_fleet --fleet-days 5 --watch  # stream a campaign
//! paper-report distribute --workers 3 \
//!     --only campaign_fleet --fleet-days 5          # multi-process campaign
//! ```

use mp_bench::{render_report, report_json, try_run_selected};
use mp_service::{Client, Daemon, Endpoint, Request, Response, RunOutcome, ServeOptions};
use parasite::experiments::{
    run_campaign_with_checkpoint, Artifact, ArtifactData, ConfigError, DayStats, ExperimentId,
    RunConfig, SurfaceVector,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
paper-report: regenerate the tables and figures of The Master and Parasite Attack

USAGE:
    paper-report [OPTIONS]
    paper-report distribute --workers <n> [OPTIONS]
    paper-report <SUBCOMMAND> --socket <path> [OPTIONS]

SUBCOMMANDS (distributed mode, newline-JSON protocol; see PROTOCOL.md):
    distribute            split one multi-day campaign_fleet run into
                          contiguous AP-range shards, execute them on
                          --workers shard-worker processes (fresh local
                          re-executions of this binary, or any --worker-cmd
                          such as an ssh one-liner), merge the partial
                          outcomes and print the report — byte-identical to
                          the single-process batch run, including after a
                          worker dies and its range is retried. Requires
                          exactly --only campaign_fleet and --fleet-days >= 2
    shard-worker          serve shard_submit requests from stdin, one
                          shard_result or error line per request, until EOF
                          (spawned by distribute; rarely run by hand)

SUBCOMMANDS (service mode, newline-JSON protocol; see PROTOCOL.md):
    serve                 start the campaign service daemon on --socket (and
                          optionally --tcp), serving concurrent submissions
                          until a client sends shutdown
    submit                submit one experiment (exactly one --only id, with
                          any of the batch configuration flags below) to a
                          running daemon; --watch streams its days
    status                list the daemon's runs (or one with --run <n>)
    watch                 replay and follow one run's day stream (--run <n>)
    cancel                cooperatively cancel a run (--run <n>); a multi-day
                          campaign stops at the next day boundary, leaving a
                          resumable checkpoint
    shutdown              cancel everything and stop the daemon

SUBCOMMANDS (static analysis):
    lint                  run the mp-lint determinism & protocol pass over
                          the workspace sources (--json, --fix-hints,
                          --root <dir>); exits 1 on any diagnostic; see the
                          README's \"Static analysis\" section

SERVICE OPTIONS:
    --socket <path>       unix socket the daemon binds / clients dial
    --tcp <addr>          TCP address (serve: extra listener; clients: dial
                          this instead of the unix socket)
    --serve-workers <n>   serve: concurrent runs executed at once [default: 2]
    --serve-queue-limit <n>
                          serve: bound the submission queue; a submit past
                          the bound is rejected with a typed queue_full
                          error until a worker drains the queue
                          (0 = unbounded) [default: 0]
    --run <n>             status/watch/cancel: the run id
    --watch               submit: stay connected and stream day/done lines

DISTRIBUTE OPTIONS:
    --workers <n>         shard-worker processes to execute on [default: 2]
    --worker-cmd <cmd>    launch each worker via `sh -c <cmd>` instead of
                          re-executing this binary, e.g.
                          \"ssh host paper-report shard-worker\"
    --journal <dir>       write each completed shard outcome into <dir>
                          (atomically, in the checkpoint codec); rerunning
                          with the same --journal resumes after a
                          coordinator death, re-executing only the ranges
                          without a valid entry — the merged report stays
                          byte-identical to the uninterrupted run
    --shard-timeout <secs>
                          kill and requeue a worker silent for this long on
                          one assignment; 0 derives the deadline from the
                          first completed shard (5x its duration, floored
                          at 10s) [default: 0]
    --retry-limit <n>     per-shard retry budget; a range that keeps failing
                          is abandoned with a typed error after n retries
                          (0 = fail on the first error) [default: 3]

OPTIONS:
    --only <ids>          run only these experiments (comma-separated ids,
                          repeatable); default: the paper's eleven. Extension
                          experiments (campaign_fleet, attack_surface) run
                          only when named here
    --seed <n>            RNG seed for populations and races [default: 2021]
    --scale <n>           Table I cache-size divisor, at least 1 [default: 1000]
    --sites <n>           Figure 5 population size [default: 15000]
    --crawl-sites <n>     Figure 3 population size [default: 3000]
    --days <n>            Figure 3 crawl length in days [default: 100]
    --event-budget <n>    per-simulation event budget [default: 5000000]
    --trace-mode <mode>   packet-trace recorder: full, summary or ring:<n>
                          [default: full]
    --jitter-us <n>       max per-packet WiFi jitter for the campaign fleet,
                          in microseconds [default: 0]
    --fleet-clients <n>   campaign_fleet: total simulated clients [default: 100000]
    --fleet-aps <n>       campaign_fleet: number of cafe APs [default: 128]
    --fleet-shards <n>    campaign_fleet: shard-count scheduling hint, echoed
                          as \"shards\"; no other number in the artifact
                          depends on it (distribute --workers is what splits
                          a campaign across processes) [default: 1]
    --fleet-jobs <n>      campaign_fleet: worker threads for the per-AP sims
                          (0 = auto-size to the machine) [default: 0]
    --fleet-days <n>      campaign_fleet: simulated days; above 1 the fleet
                          runs the multi-day churn loop (arrivals/departures,
                          cache clears, Figure 3 target-object rotation, with
                          infections carried forward) [default: 1]
    --fleet-churn <f>     campaign_fleet: daily client-turnover fraction in
                          [0, 1] for the multi-day loop [default: 0]
    --fleet-hetero        campaign_fleet: draw per-AP latency/jitter/attacker
                          reaction and client weights from seeded
                          distributions instead of the uniform paper timing
    --fleet-visit-prob <f>
                          campaign_fleet: mean daily probability that a seat
                          visits its cafe during a multi-day campaign, in
                          (0, 1]; per-seat probabilities are drawn from a
                          seeded triangular distribution around it. 1 keeps
                          the classic everyone-visits model [default: 1]
    --fleet-checkpoint <path>
                          write a resumable JSON checkpoint after every
                          completed campaign day; if <path> exists the
                          campaign resumes from it (byte-identical to an
                          uninterrupted run). Requires exactly
                          --only campaign_fleet and --fleet-days >= 2
    --global-event-budget <n>
                          one event pool shared by every simulator of the run
                          (all APs, shards and days); 0 disables [default: 0]
    --surface-vectors <names>
                          attack_surface: comma-separated attack vectors to
                          sweep (race_vs_hsts, race_vs_csp, persist_vs_sri,
                          propagate_vs_partitioning) [default: all]
    --surface-delays <start:end:steps>
                          attack_surface: master reaction-delay axis in
                          microseconds [default: 300:160000:8]
    --surface-adoption <steps>
                          attack_surface: number of defense-adoption points
                          over [0, 1] [default: 5]
    --surface-wan <start:end:steps>
                          attack_surface: WAN one-way server latency axis in
                          microseconds (the paper's fixed point is 40000);
                          every (vector, delay, wan, adoption) cell gets its
                          own collision-free seed [default: 40000:40000:1]
    --surface-trials <n>  attack_surface: seeded race trials per grid cell
                          [default: 200]

    Flags that configure an extension experiment are rejected when that
    experiment is not selected via --only, instead of being silently inert.
    --jobs <n>            worker threads for independent experiments [default: 1]
    --json                emit one structured JSON document instead of text
    --list                list the experiment ids and titles, then exit
    -h, --help            print this help
";

struct Options {
    ids: Vec<ExperimentId>,
    config: RunConfig,
    jobs: usize,
    json: bool,
    checkpoint: Option<PathBuf>,
}

/// Flags that configure only the campaign_fleet experiment.
const FLEET_FLAGS: [&str; 6] = [
    "--fleet-clients",
    "--fleet-aps",
    "--fleet-shards",
    "--fleet-days",
    "--fleet-hetero",
    "--fleet-visit-prob",
];
/// Flags that configure campaign_fleet or attack_surface.
const SHARED_EXTENSION_FLAGS: [&str; 3] = ["--jitter-us", "--fleet-jobs", "--fleet-churn"];
/// Flags that configure only the attack_surface experiment.
const SURFACE_FLAGS: [&str; 5] = [
    "--surface-vectors",
    "--surface-delays",
    "--surface-adoption",
    "--surface-wan",
    "--surface-trials",
];

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut ids: Vec<ExperimentId> = Vec::new();
    let mut config = RunConfig::default();
    let mut jobs = 1usize;
    let mut json = false;
    let mut checkpoint: Option<PathBuf> = None;
    // Every flag given, in order, so inert combinations can be rejected
    // after the id set is known.
    let mut given: Vec<&str> = Vec::new();

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        given.push(flag);
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--only" => {
                for part in value()?.split(',') {
                    let id = part
                        .parse::<ExperimentId>()
                        .map_err(|error| error.to_string())?;
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
            "--seed" => config.seed = parse_number(&value()?, flag)?,
            "--scale" => config.scale = parse_number(&value()?, flag)?,
            "--sites" => config.sites = parse_number(&value()?, flag)?,
            "--crawl-sites" => config.crawl_sites = parse_number(&value()?, flag)?,
            "--days" => config.days = parse_number(&value()?, flag)?,
            "--event-budget" => config.event_budget = parse_number(&value()?, flag)?,
            "--trace-mode" => {
                config.trace_mode = value()?
                    .parse()
                    .map_err(|error: mp_netsim::capture::ParseTraceModeError| error.to_string())?;
            }
            "--jitter-us" => config.jitter_us = parse_number(&value()?, flag)?,
            "--fleet-clients" => config.fleet_clients = parse_number(&value()?, flag)?,
            "--fleet-aps" => config.fleet_aps = parse_number(&value()?, flag)?,
            "--fleet-shards" => config.fleet_shards = parse_number(&value()?, flag)?,
            "--fleet-jobs" => config.fleet_jobs = parse_number(&value()?, flag)?,
            "--fleet-days" => config.fleet_days = parse_number(&value()?, flag)?,
            "--fleet-churn" => config.fleet_churn = parse_fraction(&value()?, flag)?,
            "--fleet-hetero" => config.fleet_hetero = true,
            "--fleet-visit-prob" => config.fleet_visit_prob = parse_fraction(&value()?, flag)?,
            "--fleet-checkpoint" => checkpoint = Some(PathBuf::from(value()?)),
            "--global-event-budget" => config.global_event_budget = parse_number(&value()?, flag)?,
            "--surface-vectors" => {
                config.surface_vectors = SurfaceVector::parse_mask(&value()?)
                    .map_err(|error| format!("{flag}: {error}"))?;
            }
            "--surface-delays" => {
                (config.surface_delay_start_us, config.surface_delay_end_us, config.surface_delay_steps) =
                    parse_axis(&value()?, flag)?;
            }
            "--surface-adoption" => config.surface_adoption_steps = parse_number(&value()?, flag)?,
            "--surface-wan" => {
                (config.surface_wan_start_us, config.surface_wan_end_us, config.surface_wan_steps) =
                    parse_axis(&value()?, flag)?;
            }
            "--surface-trials" => config.surface_trials = parse_number(&value()?, flag)?,
            "--jobs" => {
                jobs = parse_number(&value()?, flag)?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--json" => json = true,
            "--list" => {
                for id in ExperimentId::EXTENDED {
                    println!("{:<14} {}", id.to_string(), id.title());
                }
                return Ok(None);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "--socket" | "--tcp" | "--serve-workers" | "--serve-queue-limit" => {
                return Err(format!(
                    "{flag} configures the service daemon; use a subcommand: \
                     paper-report serve|submit|status|watch|cancel|shutdown \
                     --socket <path>"
                ));
            }
            "--workers" | "--worker-cmd" | "--journal" | "--shard-timeout" | "--retry-limit" => {
                return Err(format!(
                    "{flag} splits a campaign across worker processes; use the \
                     distribute subcommand: paper-report distribute \
                     --workers <n> --only campaign_fleet --fleet-days <n>"
                ));
            }
            "--watch" | "--run" => {
                return Err(format!(
                    "{flag} is a service client flag; use it with a subcommand, \
                     e.g. paper-report watch --socket <path> --run <n>"
                ));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    // The registry's order, regardless of the order the ids were given in.
    // Without --only, exactly the paper's eleven run (extensions are opt-in),
    // so the default report stays stable.
    let ids = if ids.is_empty() {
        ExperimentId::ALL.to_vec()
    } else {
        ExperimentId::EXTENDED.into_iter().filter(|id| ids.contains(id)).collect::<Vec<_>>()
    };
    // Reject inert flag combinations: a flag that configures an extension
    // experiment does nothing unless that experiment is selected, and
    // silently ignoring it would mask typos and misread sweeps.
    let campaign = ids.contains(&ExperimentId::CampaignFleet);
    let surface = ids.contains(&ExperimentId::AttackSurface);
    let first_of = |group: &[&str]| given.iter().copied().find(|flag| group.contains(flag));
    if let Some(flag) = first_of(&FLEET_FLAGS).filter(|_| !campaign) {
        return Err(format!(
            "{flag} configures the campaign_fleet experiment, which is not \
             selected; add --only campaign_fleet"
        ));
    }
    if let Some(flag) = first_of(&SHARED_EXTENSION_FLAGS).filter(|_| !campaign && !surface) {
        return Err(format!(
            "{flag} configures the campaign_fleet / attack_surface \
             experiments, none of which is selected; add them to --only"
        ));
    }
    if let Some(flag) = first_of(&SURFACE_FLAGS).filter(|_| !surface) {
        return Err(format!(
            "{flag} configures the attack_surface experiment, which is not \
             selected; add --only attack_surface"
        ));
    }
    if given.contains(&"--fleet-churn") && !surface && !config.multi_day() {
        return Err(
            "--fleet-churn only affects a multi-day campaign; set \
             --fleet-days to 2 or more (or select attack_surface, whose \
             steady-state curve uses the churn rate)"
                .to_string(),
        );
    }
    if given.contains(&"--fleet-visit-prob") && !config.multi_day() {
        return Err(
            "--fleet-visit-prob only affects a multi-day campaign; set \
             --fleet-days to 2 or more"
                .to_string(),
        );
    }
    // A checkpointed campaign is a dedicated operation: it runs instead of
    // the selected ids, so it must be the only one.
    let valid = match (&checkpoint, ids.as_slice()) {
        (None, _) => config.validate(),
        (Some(_), [id]) => config.validate_checkpointed(*id),
        (Some(_), _) => {
            return Err(
                "--fleet-checkpoint runs the campaign alone; use exactly \
                 --only campaign_fleet"
                    .to_string(),
            )
        }
    };
    valid.map_err(config_usage)?;
    Ok(Some(Options { ids, config, jobs, json, checkpoint }))
}

/// A [`RunConfig`] validation failure as a usage error naming the flag that
/// set the rejected field (`--only` selects the experiment).
fn config_usage(error: ConfigError) -> String {
    let flag = match error.field {
        "experiment" => "--only".to_string(),
        "surface_delay_start_us" | "surface_delay_end_us" | "surface_delay_steps" => {
            "--surface-delays".to_string()
        }
        "surface_wan_start_us" | "surface_wan_end_us" | "surface_wan_steps" => {
            "--surface-wan".to_string()
        }
        "surface_adoption_steps" => "--surface-adoption".to_string(),
        field => format!("--{}", field.replace('_', "-")),
    };
    format!("{flag}: {error}")
}

fn parse_number<T: TryFrom<u64>>(text: &str, flag: &str) -> Result<T, String> {
    let value = text
        .parse::<u64>()
        .map_err(|_| format!("{flag}: expected a non-negative integer, got {text:?}"))?;
    T::try_from(value).map_err(|_| format!("{flag}: {value} is out of range"))
}

fn parse_fraction(text: &str, flag: &str) -> Result<f64, String> {
    text.parse().map_err(|_| format!("{flag}: expected a number, got {text:?}"))
}

/// Parses a `<start:end:steps>` sweep axis.
fn parse_axis(text: &str, flag: &str) -> Result<(u64, u64, usize), String> {
    let parts: Vec<&str> = text.split(':').collect();
    let [start, end, steps] = parts.as_slice() else {
        return Err(format!("{flag}: expected <start:end:steps>, got {text:?}"));
    };
    Ok((parse_number(start, flag)?, parse_number(end, flag)?, parse_number(steps, flag)?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Service mode: a leading subcommand word routes to the daemon / client
    // paths; everything else is the classic batch report.
    match args.first().map(String::as_str) {
        Some("distribute") => return distribute::run(&args[1..]),
        Some("shard-worker") => return distribute::worker(&args[1..]),
        Some("serve") => return service::serve(&args[1..]),
        Some("submit") => return service::submit(&args[1..]),
        Some("status") => return service::status(&args[1..]),
        Some("watch") => return service::watch(&args[1..]),
        Some("cancel") => return service::cancel(&args[1..]),
        Some("shutdown") => return service::shutdown(&args[1..]),
        Some("lint") => return lint_cmd::run(&args[1..]),
        _ => {}
    }
    batch(&args)
}

fn batch(args: &[String]) -> ExitCode {
    let options = match parse_args(args) {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    // With a checkpoint path, the (sole, validated by parse_args) campaign
    // fleet id runs through the checkpointing entry point (write-per-day +
    // resume) instead of the batch runner.
    let (result_ids, results) = if let Some(path) = options.checkpoint.as_deref() {
        let result = run_campaign_with_checkpoint(&options.config, path).map(|result| Artifact {
            id: ExperimentId::CampaignFleet,
            config: options.config,
            data: ArtifactData::CampaignFleet(result),
        });
        (vec![ExperimentId::CampaignFleet], vec![result])
    } else {
        (
            options.ids.clone(),
            try_run_selected(&options.ids, &options.config, options.jobs),
        )
    };
    let mut artifacts = Vec::new();
    let mut failed = false;
    for (id, result) in result_ids.iter().zip(results) {
        match result {
            Ok(artifact) => artifacts.push(artifact),
            Err(error) => {
                // One runaway experiment reports its error and the rest of
                // the report still prints.
                eprintln!("error: experiment {id} failed: {error}");
                failed = true;
            }
        }
    }
    if options.json {
        println!("{}", report_json(&options.config, &artifacts));
    } else {
        println!("{}", render_report(&artifacts));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The service-mode subcommands: `serve` runs the daemon in the foreground;
/// `submit`/`status`/`watch`/`cancel`/`shutdown` are protocol clients. With
/// `--json` the clients print the daemon's response lines verbatim, so shell
/// pipelines (and the CI smoke job) consume the raw protocol.
mod service {
    use super::*;

    /// Flags shared by every subcommand, plus the leftover (batch
    /// configuration) arguments that `submit` forwards to `parse_args`.
    struct ServiceArgs {
        socket: Option<PathBuf>,
        tcp: Option<String>,
        run: Option<u64>,
        watch: bool,
        json: bool,
        workers: usize,
        queue_limit: usize,
        rest: Vec<String>,
    }

    fn parse_service(args: &[String]) -> Result<ServiceArgs, String> {
        let mut parsed = ServiceArgs {
            socket: None,
            tcp: None,
            run: None,
            watch: false,
            json: false,
            workers: 2,
            queue_limit: 0,
            rest: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value_for = |flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--socket" => parsed.socket = Some(PathBuf::from(value_for("--socket")?)),
                "--tcp" => parsed.tcp = Some(value_for("--tcp")?),
                "--run" => parsed.run = Some(parse_number(&value_for("--run")?, "--run")?),
                "--watch" => parsed.watch = true,
                "--json" => parsed.json = true,
                "--serve-workers" => {
                    parsed.workers = parse_number(&value_for("--serve-workers")?, "--serve-workers")?;
                    if parsed.workers == 0 {
                        return Err("--serve-workers must be at least 1".to_string());
                    }
                }
                "--serve-queue-limit" => {
                    parsed.queue_limit =
                        parse_number(&value_for("--serve-queue-limit")?, "--serve-queue-limit")?;
                }
                other => parsed.rest.push(other.to_string()),
            }
        }
        Ok(parsed)
    }

    /// The endpoint a client subcommand dials: `--tcp` wins, else `--socket`.
    fn endpoint(parsed: &ServiceArgs, command: &str) -> Result<Endpoint, String> {
        match (&parsed.tcp, &parsed.socket) {
            (Some(addr), _) => Ok(Endpoint::Tcp(addr.clone())),
            (None, Some(path)) => Ok(Endpoint::Unix(path.clone())),
            (None, None) => Err(format!(
                "{command} needs the daemon's address; pass --socket <path> \
                 (or --tcp <addr>)"
            )),
        }
    }

    pub(super) fn usage_error(message: &str) -> ExitCode {
        eprintln!("error: {message}\n");
        eprint!("{USAGE}");
        ExitCode::from(2)
    }

    fn connect(endpoint: &Endpoint) -> Result<Client, ExitCode> {
        Client::connect(endpoint).map_err(|error| {
            let (shown, hint) = match endpoint {
                Endpoint::Unix(path) => (
                    path.display().to_string(),
                    format!("paper-report serve --socket {}", path.display()),
                ),
                Endpoint::Tcp(addr) => (
                    addr.clone(),
                    format!("paper-report serve --socket <path> --tcp {addr}"),
                ),
            };
            eprintln!(
                "error: cannot connect to the daemon at {shown}: {error}\n\
                 is the daemon running? start one with: {hint}"
            );
            ExitCode::from(2)
        })
    }

    pub fn serve(args: &[String]) -> ExitCode {
        let parsed = match parse_service(args) {
            Ok(parsed) => parsed,
            Err(message) => return usage_error(&message),
        };
        let Some(socket) = parsed.socket.clone() else {
            return usage_error("serve requires --socket <path>");
        };
        let mut global_event_budget = 0u64;
        // serve accepts one batch flag: the daemon-wide --global-event-budget
        // pool for submissions that do not bring their own.
        let mut iter = parsed.rest.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--global-event-budget" => {
                    let Some(value) = iter.next() else {
                        return usage_error("--global-event-budget requires a value");
                    };
                    global_event_budget = match parse_number(value, "--global-event-budget") {
                        Ok(value) => value,
                        Err(message) => return usage_error(&message),
                    };
                }
                other => {
                    return usage_error(&format!(
                        "unknown serve argument {other:?}; run configuration \
                         belongs to submit, not serve"
                    ));
                }
            }
        }
        let options = ServeOptions {
            socket: socket.clone(),
            tcp: parsed.tcp.clone(),
            workers: parsed.workers,
            global_event_budget,
            queue_limit: parsed.queue_limit,
        };
        let daemon = match Daemon::start(options) {
            Ok(daemon) => daemon,
            Err(error) => {
                eprintln!(
                    "error: cannot start the daemon on {}: {error}\n\
                     (a stale socket from an unclean shutdown is removed \
                     automatically; this path is either a live daemon or \
                     not a socket at all)",
                    socket.display()
                );
                return ExitCode::from(2);
            }
        };
        match daemon.tcp_addr() {
            Some(addr) => eprintln!(
                "campaign service daemon listening on {} and {addr}",
                socket.display()
            ),
            None => eprintln!("campaign service daemon listening on {}", socket.display()),
        }
        match daemon.wait() {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("error: daemon shutdown failed: {error}");
                ExitCode::FAILURE
            }
        }
    }

    pub fn submit(args: &[String]) -> ExitCode {
        let parsed = match parse_service(args) {
            Ok(parsed) => parsed,
            Err(message) => return usage_error(&message),
        };
        let endpoint = match endpoint(&parsed, "submit") {
            Ok(endpoint) => endpoint,
            Err(message) => return usage_error(&message),
        };
        if parsed.rest.iter().any(|arg| arg == "--jobs") {
            return usage_error(
                "--jobs schedules a batch sweep; the daemon runs one \
                 experiment per submission (tune --serve-workers on serve)",
            );
        }
        let options = match parse_args(&parsed.rest) {
            Ok(Some(options)) => options,
            Ok(None) => return ExitCode::SUCCESS,
            Err(message) => return usage_error(&message),
        };
        let [experiment] = options.ids.as_slice() else {
            return usage_error(
                "submit runs exactly one experiment; pass a single id, e.g. \
                 --only campaign_fleet",
            );
        };
        let mut client = match connect(&endpoint) {
            Ok(client) => client,
            Err(code) => return code,
        };
        let request = Request::Submit {
            experiment: *experiment,
            config: Box::new(options.config),
            checkpoint: options.checkpoint.clone(),
            watch: parsed.watch,
        };
        let json = parsed.json || options.json;
        match client.request(&request) {
            Ok(Response::Accepted { run, experiment }) => {
                if json {
                    println!(
                        "{}",
                        Response::Accepted { run, experiment }.to_json()
                    );
                } else {
                    println!("run {run} accepted ({experiment})");
                }
                if parsed.watch {
                    stream(&mut client, json)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Ok(Response::Error { message, .. }) => {
                eprintln!("error: daemon rejected the submission: {message}");
                ExitCode::FAILURE
            }
            Ok(other) => {
                eprintln!("error: unexpected response: {}", other.to_json());
                ExitCode::FAILURE
            }
            Err(error) => {
                eprintln!("error: {error}");
                ExitCode::FAILURE
            }
        }
    }

    pub fn status(args: &[String]) -> ExitCode {
        with_client(args, "status", |parsed, client| {
            match client.request(&Request::Status { run: parsed.run }) {
                Ok(Response::Status { runs }) => {
                    if parsed.json {
                        println!("{}", Response::Status { runs }.to_json());
                    } else if runs.is_empty() {
                        println!("no runs");
                    } else {
                        println!("{:<6} {:<16} {:<8} {:>5}  outcome", "run", "experiment", "state", "days");
                        for row in runs {
                            println!(
                                "{:<6} {:<16} {:<8} {:>5}  {}",
                                row.run,
                                row.experiment.as_str(),
                                row.state.as_str(),
                                row.days,
                                row.outcome.as_deref().unwrap_or("-")
                            );
                        }
                    }
                    ExitCode::SUCCESS
                }
                Ok(Response::Error { message, .. }) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
                other => unexpected(other),
            }
        })
    }

    pub fn watch(args: &[String]) -> ExitCode {
        with_client(args, "watch", |parsed, client| {
            let Some(run) = parsed.run else {
                return usage_error("watch requires --run <n>");
            };
            match client.send(&Request::Watch { run }) {
                Ok(()) => stream(client, parsed.json),
                Err(error) => {
                    eprintln!("error: {error}");
                    ExitCode::FAILURE
                }
            }
        })
    }

    pub fn cancel(args: &[String]) -> ExitCode {
        with_client(args, "cancel", |parsed, client| {
            let Some(run) = parsed.run else {
                return usage_error("cancel requires --run <n>");
            };
            match client.request(&Request::Cancel { run }) {
                Ok(Response::Cancelling { run }) => {
                    if parsed.json {
                        println!("{}", Response::Cancelling { run }.to_json());
                    } else {
                        println!(
                            "run {run} cancelling (stops at its next day \
                             boundary; any checkpoint stays resumable)"
                        );
                    }
                    ExitCode::SUCCESS
                }
                Ok(Response::Error { message, .. }) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
                other => unexpected(other),
            }
        })
    }

    pub fn shutdown(args: &[String]) -> ExitCode {
        with_client(args, "shutdown", |parsed, client| {
            match client.request(&Request::Shutdown) {
                Ok(Response::ShuttingDown { active_runs }) => {
                    if parsed.json {
                        println!("{}", Response::ShuttingDown { active_runs }.to_json());
                    } else {
                        println!("daemon shutting down ({active_runs} active run(s) cancelled)");
                    }
                    ExitCode::SUCCESS
                }
                Ok(Response::Error { message, .. }) => {
                    eprintln!("error: {message}");
                    ExitCode::FAILURE
                }
                other => unexpected(other),
            }
        })
    }

    /// Parses service flags, rejects stray arguments, connects, and hands
    /// the client to `body` — the shared scaffolding of the pure-client
    /// subcommands.
    fn with_client(
        args: &[String],
        command: &str,
        body: impl FnOnce(&ServiceArgs, &mut Client) -> ExitCode,
    ) -> ExitCode {
        let parsed = match parse_service(args) {
            Ok(parsed) => parsed,
            Err(message) => return usage_error(&message),
        };
        if let Some(stray) = parsed.rest.first() {
            return usage_error(&format!("unknown {command} argument {stray:?}"));
        }
        let endpoint = match endpoint(&parsed, command) {
            Ok(endpoint) => endpoint,
            Err(message) => return usage_error(&message),
        };
        match connect(&endpoint) {
            Ok(mut client) => body(&parsed, &mut client),
            Err(code) => code,
        }
    }

    fn unexpected(response: Result<Response, mp_service::ClientError>) -> ExitCode {
        match response {
            Ok(response) => eprintln!("error: unexpected response: {}", response.to_json()),
            Err(error) => eprintln!("error: {error}"),
        }
        ExitCode::FAILURE
    }

    /// Follows a day/done stream to its end; the process exit code reflects
    /// the run's outcome (`failed` exits 1).
    fn stream(client: &mut Client, json: bool) -> ExitCode {
        loop {
            match client.read_response() {
                Ok(Response::Day { run, stats }) => {
                    if json {
                        println!("{}", Response::Day { run, stats }.to_json());
                    } else {
                        print_day(&stats);
                    }
                }
                Ok(Response::Done { run, outcome }) => {
                    if json {
                        println!("{}", Response::Done { run, outcome: outcome.clone() }.to_json());
                    } else {
                        match &outcome {
                            RunOutcome::Ok { .. } => println!("run {run} done: ok"),
                            RunOutcome::Cancelled { days_completed } => println!(
                                "run {run} cancelled after {days_completed} completed day(s)"
                            ),
                            RunOutcome::Failed { message } => {
                                println!("run {run} failed: {message}")
                            }
                        }
                    }
                    return match outcome {
                        RunOutcome::Failed { .. } => ExitCode::FAILURE,
                        _ => ExitCode::SUCCESS,
                    };
                }
                Ok(Response::Error { message, .. }) => {
                    eprintln!("error: {message}");
                    return ExitCode::FAILURE;
                }
                Ok(other) => return unexpected(Ok(other)),
                Err(error) => {
                    eprintln!("error: {error}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    fn print_day(stats: &DayStats) {
        println!(
            "day {:>3}: exposed {:>6}  newly infected {:>6}  infected {:>7}  \
             clean {:>7}  events {}",
            stats.day,
            stats.exposed,
            stats.newly_infected,
            stats.infected,
            stats.clean,
            stats.events
        );
    }
}

/// The distributed-campaign subcommands: `distribute` is the coordinator
/// (split, farm out, merge, report); `shard-worker` is the per-process
/// worker half it spawns. Both speak the daemon's shard messages: a
/// shard-worker reads one `shard_submit` request per stdin line and replies
/// on stdout with one `shard_result` (carrying the shard's mergeable
/// partial-checkpoint document) or `error` line, until EOF. The same
/// protocol works unchanged across an ssh transport, which is what
/// `--worker-cmd` exists for.
mod distribute {
    use super::service::usage_error;
    use super::*;
    use mp_service::protocol::{codes, Line, LineReader};
    use mp_service::serve_shard;
    use parasite::experiments::{
        scan_journal, write_journal_entry, ExperimentError, FaultKind, FaultPlan, RunCtx,
        ShardOutcome, ShardPlan, FAULT_PLAN_ENV,
    };
    use std::collections::VecDeque;
    use std::io::{BufRead, BufReader, Write as _};
    use std::path::Path;
    use std::process::{Child, Command, Stdio};
    use std::sync::{mpsc, Mutex};
    use std::time::{Duration, Instant};

    /// The `shard-worker` loop: serve stdin assignments until EOF, each
    /// through the daemon's shard path with the assignment's ordinal as its
    /// run id. A seeded `MP_FAULT_PLAN` (see PROTOCOL.md) makes chosen
    /// assignments misbehave on demand — crash before replying, hang, or
    /// garble the reply line — so the coordinator's supervision is testable.
    pub fn worker(args: &[String]) -> ExitCode {
        if let Some(stray) = args.first() {
            return usage_error(&format!("unknown shard-worker argument {stray:?}"));
        }
        let faults = match FaultPlan::from_env() {
            Ok(faults) => faults,
            Err(message) => return usage_error(&format!("{FAULT_PLAN_ENV}: {message}")),
        };
        let mut stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout();
        let mut lines = LineReader::default();
        let mut run = 0u64;
        loop {
            let request = match lines.read(&mut stdin) {
                Ok(Line::Eof) => break,
                Ok(Line::Text(text)) => Request::parse_line(&text),
                Ok(Line::Rejected(message)) => Err(message),
                Err(_) => return ExitCode::FAILURE,
            };
            run += 1;
            let rejected = |message: String| {
                Response::Error { message, code: Some(codes::BAD_REQUEST.to_string()) }
                    .to_json()
                    .to_string()
            };
            let reply = match request {
                Ok(Request::ShardSubmit { config, first_ap, aps }) => {
                    let plan = ShardPlan { first_ap, aps };
                    serve_shard(run, &config, plan, &RunCtx::default(), faults.as_ref()).line
                }
                Ok(_) => rejected("a shard-worker serves only shard_submit requests".to_string()),
                Err(message) => rejected(message),
            };
            if writeln!(stdout, "{reply}").and_then(|()| stdout.flush()).is_err() {
                return ExitCode::FAILURE;
            }
        }
        ExitCode::SUCCESS
    }

    /// The `distribute` coordinator.
    pub fn run(args: &[String]) -> ExitCode {
        // Strip the coordinator-only flags before the batch parser sees the
        // rest: --workers / --worker-cmd / --journal / --shard-timeout /
        // --retry-limit are pure scheduling knobs and must never reach the
        // RunConfig, or the merged artifact's config echo would diverge from
        // the batch run's.
        let mut workers = 2usize;
        let mut worker_cmd: Option<String> = None;
        let mut journal: Option<PathBuf> = None;
        let mut shard_timeout: Option<Duration> = None;
        let mut retry_limit = 3usize;
        let mut rest: Vec<String> = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--workers" => {
                    let Some(value) = iter.next() else {
                        return usage_error("--workers requires a value");
                    };
                    workers = match parse_number(value, "--workers") {
                        Ok(0) => return usage_error("--workers must be at least 1"),
                        Ok(value) => value,
                        Err(message) => return usage_error(&message),
                    };
                }
                "--worker-cmd" => {
                    let Some(value) = iter.next() else {
                        return usage_error("--worker-cmd requires a value");
                    };
                    worker_cmd = Some(value.clone());
                }
                "--journal" => {
                    let Some(value) = iter.next() else {
                        return usage_error("--journal requires a value");
                    };
                    journal = Some(PathBuf::from(value));
                }
                "--shard-timeout" => {
                    let Some(value) = iter.next() else {
                        return usage_error("--shard-timeout requires a value");
                    };
                    shard_timeout = match parse_number(value, "--shard-timeout") {
                        // 0 keeps the automatic warm-estimate deadline.
                        Ok(0) => None,
                        Ok(secs) => Some(Duration::from_secs(secs)),
                        Err(message) => return usage_error(&message),
                    };
                }
                "--retry-limit" => {
                    let Some(value) = iter.next() else {
                        return usage_error("--retry-limit requires a value");
                    };
                    retry_limit = match parse_number(value, "--retry-limit") {
                        Ok(value) => value,
                        Err(message) => return usage_error(&message),
                    };
                }
                other => rest.push(other.to_string()),
            }
        }
        let options = match parse_args(&rest) {
            Ok(Some(options)) => options,
            Ok(None) => return ExitCode::SUCCESS,
            Err(message) => return usage_error(&message),
        };
        if options.ids != [ExperimentId::CampaignFleet] {
            return usage_error(
                "distribute runs the campaign alone; use exactly --only campaign_fleet",
            );
        }
        if options.checkpoint.is_some() {
            return usage_error(
                "--fleet-checkpoint belongs to the single-process batch mode; \
                 distribute keeps its partial outcomes in memory",
            );
        }
        if let Err(error) = options.config.validate_sharded() {
            return usage_error(&config_usage(error));
        }
        let config = options.config;

        // The coordinator's own fault plan handles torn-journal injection;
        // `claim` sequencing across the worker processes needs a shared
        // claim directory, auto-provisioned when the plan is armed but no
        // MP_FAULT_DIR was exported.
        let faults = match FaultPlan::from_env() {
            Ok(faults) => faults,
            Err(message) => return usage_error(&format!("{FAULT_PLAN_ENV}: {message}")),
        };
        let faults = match faults {
            Some(plan) if plan.dir().is_none() => {
                let dir = std::env::temp_dir()
                    .join(format!("mp-fault-claims-{}", std::process::id()));
                match plan.with_dir(dir) {
                    Ok(plan) => Some(plan),
                    Err(message) => {
                        eprintln!("error: {message}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => other,
        };

        // With a journal, completed shard ranges survive a coordinator
        // death: scan it, keep what validates, and re-plan only the gaps.
        let mut resumed: Vec<ShardOutcome> = Vec::new();
        let plans = match journal.as_deref() {
            None => ShardPlan::split(&config, workers),
            Some(dir) => match scan_journal(dir, &config) {
                Err(error) => {
                    eprintln!("error: {error}");
                    return ExitCode::FAILURE;
                }
                Ok(scan) => {
                    for (path, why) in &scan.discarded {
                        eprintln!(
                            "warning: discarded damaged journal entry {} ({why}); \
                             its range will re-run",
                            path.display()
                        );
                    }
                    if !scan.outcomes.is_empty() {
                        eprintln!(
                            "resuming from journal {}: {} completed shard(s)",
                            dir.display(),
                            scan.outcomes.len()
                        );
                    }
                    resumed = scan.outcomes;
                    uncovered_plans(&config, &resumed, workers)
                }
            },
        };

        let supervision = Supervision { timeout: shard_timeout, warm: Mutex::new(None) };
        let coordinator = Coordinator {
            config: &config,
            worker_cmd: worker_cmd.as_deref(),
            journal: journal.as_deref(),
            retry_limit,
            supervision,
            faults,
        };
        let merged = match coordinator.execute(&plans, workers, resumed) {
            Ok(Some(merged)) => merged,
            Ok(None) => {
                eprintln!("error: no shards were planned");
                return ExitCode::FAILURE;
            }
            Err(error) => {
                eprintln!("error: {error}");
                return ExitCode::FAILURE;
            }
        };
        match merged.into_fleet_result(&config) {
            Ok(result) => {
                let artifact = Artifact {
                    id: ExperimentId::CampaignFleet,
                    config,
                    data: ArtifactData::CampaignFleet(result),
                };
                if options.json {
                    println!("{}", report_json(&config, &[artifact]));
                } else {
                    println!("{}", render_report(&[artifact]));
                }
                ExitCode::SUCCESS
            }
            Err(error) => {
                eprintln!("error: experiment campaign_fleet failed: {error}");
                ExitCode::FAILURE
            }
        }
    }

    /// Re-plans the AP ranges not yet covered by journaled outcomes: each
    /// contiguous uncovered run is split across the workers exactly as a
    /// fresh campaign's whole range would be, so an empty journal reproduces
    /// `ShardPlan::split` and the merged report never depends on where the
    /// previous coordinator died.
    fn uncovered_plans(
        config: &RunConfig,
        done: &[ShardOutcome],
        workers: usize,
    ) -> Vec<ShardPlan> {
        let total = config.fleet_aps.max(1);
        let mut covered = vec![false; total];
        for outcome in done {
            for (first_ap, aps) in outcome.covered_aps() {
                for flag in covered.iter_mut().skip(first_ap).take(aps) {
                    *flag = true;
                }
            }
        }
        let mut plans = Vec::new();
        let mut ap = 0;
        while ap < total {
            if covered[ap] {
                ap += 1;
                continue;
            }
            let start = ap;
            while ap < total && !covered[ap] {
                ap += 1;
            }
            plans.extend(ShardPlan::split_range(start, ap - start, workers));
        }
        plans
    }

    /// The per-assignment deadline policy. An explicit `--shard-timeout`
    /// wins; otherwise the deadline derives from a warm estimate — five
    /// times the first completed shard's duration, floored at ten seconds —
    /// and until any shard completes, automatic mode imposes none (a cold
    /// first shard is not evidence of a hang).
    struct Supervision {
        timeout: Option<Duration>,
        warm: Mutex<Option<Duration>>,
    }

    impl Supervision {
        fn deadline(&self) -> Option<Duration> {
            if let Some(timeout) = self.timeout {
                return Some(timeout);
            }
            self.warm
                .lock()
                .unwrap()
                .map(|warm| (warm * 5).max(Duration::from_secs(10)))
        }

        fn record_success(&self, elapsed: Duration) {
            let mut warm = self.warm.lock().unwrap();
            if warm.is_none() {
                *warm = Some(elapsed);
            }
        }
    }

    struct Coordinator<'a> {
        config: &'a RunConfig,
        worker_cmd: Option<&'a str>,
        journal: Option<&'a Path>,
        retry_limit: usize,
        supervision: Supervision,
        faults: Option<FaultPlan>,
    }

    /// Why one assignment attempt failed.
    enum AttemptError {
        /// Worth another attempt on a fresh worker: a death, a hang, a
        /// garbled reply or a failure inside the worker.
        Retry(String),
        /// The worker rejected the assignment itself (`bad_request`): the
        /// rejection is deterministic, so every retry would repeat it.
        Rejected(String),
    }

    /// Folds one shard outcome into the merged accumulator.
    fn fold(
        merged: &mut Option<ShardOutcome>,
        outcome: ShardOutcome,
    ) -> Result<(), ExperimentError> {
        *merged = Some(match merged.take() {
            None => outcome,
            Some(accumulated) => accumulated.merge(outcome).map_err(|error| {
                ExperimentError::Shard(format!("cannot merge shard outcomes: {error}"))
            })?,
        });
        Ok(())
    }

    impl Coordinator<'_> {
        /// Farms the shard plans out to worker processes and folds each
        /// outcome into one merged accumulator as it arrives, starting from
        /// the journal-resumed outcomes (`merge` is associative and
        /// order-insensitive, so arrival order cannot change the result).
        /// Each assignment gets a fresh worker process (no half-poisoned
        /// state to reason about on retry); an assignment whose worker dies,
        /// hangs past the supervision deadline, or replies garbage goes back
        /// on the queue after a bounded exponential backoff, with retries
        /// accounted per shard — one poisoned range exhausts its own
        /// `--retry-limit` and fails fast with an error naming the range,
        /// instead of burning a budget shared with healthy shards. A
        /// `bad_request` rejection fails the run at once.
        fn execute(
            &self,
            plans: &[ShardPlan],
            workers: usize,
            resumed: Vec<ShardOutcome>,
        ) -> Result<Option<ShardOutcome>, ExperimentError> {
            let mut merged = None;
            for outcome in resumed {
                fold(&mut merged, outcome)?;
            }
            if plans.is_empty() {
                return Ok(merged);
            }
            let merged = Mutex::new(merged);
            let queue: Mutex<VecDeque<(usize, usize)>> =
                Mutex::new((0..plans.len()).map(|index| (index, 0usize)).collect());
            let failure: Mutex<Option<ExperimentError>> = Mutex::new(None);
            let fail = |error: ExperimentError| {
                failure.lock().unwrap().get_or_insert(error);
                queue.lock().unwrap().clear();
            };
            std::thread::scope(|scope| {
                for _ in 0..workers.clamp(1, plans.len()) {
                    scope.spawn(|| loop {
                        let Some((index, attempt)) = queue.lock().unwrap().pop_front() else {
                            break;
                        };
                        let plan = plans[index];
                        let range =
                            format!("[{}, {})", plan.first_ap, plan.first_ap + plan.aps);
                        // Supervision-layer wall-clock read: worker
                        // deadlines are real time, not simulated time.
                        // mp-lint: allow(wallclock)
                        let started = Instant::now();
                        match self.run_worker(plan) {
                            Ok(outcome) => {
                                self.supervision.record_success(started.elapsed());
                                let folded = self
                                    .journal_outcome(&outcome)
                                    .and_then(|()| fold(&mut merged.lock().unwrap(), outcome));
                                if let Err(error) = folded {
                                    fail(error);
                                    break;
                                }
                            }
                            Err(AttemptError::Rejected(message)) => {
                                fail(ExperimentError::Shard(format!(
                                    "range {range} was rejected by its worker: {message}"
                                )));
                                break;
                            }
                            Err(AttemptError::Retry(message)) => {
                                if attempt >= self.retry_limit {
                                    fail(ExperimentError::Shard(format!(
                                        "range {range} failed {} time(s), exhausting \
                                         --retry-limit {}: {message}",
                                        attempt + 1,
                                        self.retry_limit
                                    )));
                                    break;
                                }
                                let backoff = Duration::from_millis(
                                    (50u64 << attempt.min(5)).min(2_000),
                                );
                                eprintln!(
                                    "warning: shard {range} attempt {}/{} failed \
                                     ({message}); retrying in {}ms",
                                    attempt + 1,
                                    self.retry_limit + 1,
                                    backoff.as_millis()
                                );
                                std::thread::sleep(backoff);
                                queue.lock().unwrap().push_back((index, attempt + 1));
                            }
                        }
                    });
                }
            });
            match failure.into_inner().unwrap() {
                Some(error) => Err(error),
                None => Ok(merged.into_inner().unwrap()),
            }
        }

        /// Writes one completed shard into the journal (when one is
        /// configured). A planned torn-write fault leaves a strict prefix of
        /// the entry at its final path and kills the coordinator — exactly
        /// the damage a power cut mid-write would leave for the resume path
        /// to discard.
        fn journal_outcome(&self, outcome: &ShardOutcome) -> Result<(), ExperimentError> {
            let Some(dir) = self.journal else { return Ok(()) };
            let torn = matches!(
                self.faults.as_ref().and_then(FaultPlan::claim_journal),
                Some(FaultKind::Torn)
            );
            let path = write_journal_entry(dir, self.config, outcome)?;
            if torn {
                let document = std::fs::read_to_string(&path).unwrap_or_default();
                let mut cut = document.len() / 2;
                while !document.is_char_boundary(cut) {
                    cut -= 1;
                }
                let _ = std::fs::write(&path, &document[..cut]);
                eprintln!("fault: torn journal write at {}; dying", path.display());
                std::process::exit(17);
            }
            Ok(())
        }

        /// Runs one assignment on a fresh worker process: write the
        /// `shard_submit` line, close stdin (the worker replies, sees EOF
        /// and exits), and read the single reply line under the supervision
        /// deadline — a worker silent past it is killed and its range
        /// reported hung.
        fn run_worker(&self, plan: ShardPlan) -> Result<ShardOutcome, AttemptError> {
            let retry = AttemptError::Retry;
            let mut child = self.spawn_worker().map_err(retry)?;
            let request = Request::ShardSubmit {
                config: Box::new(*self.config),
                first_ap: plan.first_ap,
                aps: plan.aps,
            };
            {
                let mut stdin = child
                    .stdin
                    .take()
                    .ok_or_else(|| retry("worker stdin unavailable".to_string()))?;
                writeln!(stdin, "{}", request.to_json())
                    .map_err(|error| retry(format!("cannot write to the worker: {error}")))?;
            }
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| retry("worker stdout unavailable".to_string()))?;
            let (sender, receiver) = mpsc::channel();
            // Supervision-layer reader thread: it only shuttles one reply
            // line into the timeout loop. mp-lint: allow(thread-spawn)
            std::thread::spawn(move || {
                let mut reply = String::new();
                let read = BufReader::new(stdout).read_line(&mut reply);
                let _ = sender.send(read.map(|bytes| (bytes, reply)));
            });
            // Supervision-layer wall-clock read (shard timeout clock).
            // mp-lint: allow(wallclock)
            let started = Instant::now();
            let read = loop {
                match receiver.recv_timeout(Duration::from_millis(100)) {
                    Ok(read) => break read,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Re-read the deadline every poll: the automatic
                        // warm estimate may arrive while this worker runs.
                        if let Some(deadline) = self.supervision.deadline() {
                            if started.elapsed() >= deadline {
                                let _ = child.kill();
                                let _ = child.wait();
                                return Err(retry(format!(
                                    "worker hung past the {deadline:?} shard \
                                     timeout; killed"
                                )));
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        break Err(std::io::Error::other("the reply reader died"));
                    }
                }
            };
            let status = child
                .wait()
                .map_err(|error| retry(format!("cannot await the worker: {error}")))?;
            match read {
                Ok((0, _)) => Err(retry(format!("worker exited without replying ({status})"))),
                Ok((_, reply)) => decode_reply(reply.trim(), self.config, plan),
                Err(error) => Err(retry(format!("cannot read the worker's reply: {error}"))),
            }
        }

        fn spawn_worker(&self) -> Result<Child, String> {
            let mut command = match self.worker_cmd {
                Some(cmd) => {
                    let mut command = Command::new("sh");
                    command.arg("-c").arg(cmd);
                    command
                }
                None => {
                    let exe = std::env::current_exe()
                        .map_err(|error| format!("cannot locate this binary: {error}"))?;
                    let mut command = Command::new(exe);
                    command.arg("shard-worker");
                    command
                }
            };
            if let Some(dir) = self.faults.as_ref().and_then(FaultPlan::dir) {
                // Workers must share the coordinator's claim directory, or a
                // plan like crash@2 would fire once per worker process
                // instead of once across the fleet.
                command.env(parasite::experiments::FAULT_DIR_ENV, dir);
            }
            command
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|error| format!("cannot spawn a shard worker: {error}"))
        }
    }

    /// Decodes a worker's reply line into the outcome of `plan`.
    fn decode_reply(
        line: &str,
        config: &RunConfig,
        plan: ShardPlan,
    ) -> Result<ShardOutcome, AttemptError> {
        let retry = AttemptError::Retry;
        let outcome = match Response::parse_line(line).map_err(retry)? {
            Response::ShardResult { outcome, .. } => outcome,
            Response::Error { message, code } if code.as_deref() == Some(codes::BAD_REQUEST) => {
                return Err(AttemptError::Rejected(message));
            }
            Response::Error { message, .. } => {
                return Err(retry(format!("worker reported: {message}")));
            }
            other => return Err(retry(format!("unexpected worker reply: {}", other.to_json()))),
        };
        let outcome = ShardOutcome::from_checkpoint_json(&outcome, config)
            .map_err(|message| retry(format!("worker outcome rejected: it {message}")))?;
        match outcome.covered_range() {
            Ok(range) if range == (plan.first_ap, plan.aps) => Ok(outcome),
            covered => Err(retry(format!(
                "worker replied for {covered:?} instead of APs [{}, {})",
                plan.first_ap,
                plan.first_ap + plan.aps
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Static analysis: the mp-lint subcommand
// ---------------------------------------------------------------------------

mod lint_cmd {
    use parasite::json::ToJson;
    use std::path::PathBuf;
    use std::process::ExitCode;

    const LINT_USAGE: &str = "\
usage: paper-report lint [--json] [--fix-hints] [--root <dir>]

    --json                emit the report as one structured JSON document
                          (diagnostics plus the extracted seed-tag registry)
    --fix-hints           append a remediation hint under each finding
    --root <dir>          workspace root to scan [default: current directory]

exit status: 0 clean, 1 diagnostics found, 2 usage/setup error
";

    pub fn run(args: &[String]) -> ExitCode {
        let mut json = false;
        let mut fix_hints = false;
        let mut root: Option<PathBuf> = None;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--json" => json = true,
                "--fix-hints" => fix_hints = true,
                "--root" => match iter.next() {
                    Some(dir) => root = Some(PathBuf::from(dir)),
                    None => return usage_error("--root requires a directory argument"),
                },
                "-h" | "--help" => {
                    print!("{LINT_USAGE}");
                    return ExitCode::SUCCESS;
                }
                other => return usage_error(&format!("unknown lint flag {other:?}")),
            }
        }
        let root = match root {
            Some(dir) => dir,
            None => match std::env::current_dir() {
                Ok(dir) => dir,
                Err(error) => {
                    return usage_error(&format!("cannot resolve current directory: {error}"))
                }
            },
        };
        match mp_lint::run_workspace(&root) {
            Ok(report) => {
                if json {
                    println!("{}", report.to_json());
                } else {
                    print!("{}", report.render_text(fix_hints));
                }
                if report.clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(message) => usage_error(&message),
        }
    }

    fn usage_error(message: &str) -> ExitCode {
        eprintln!("error: {message}\n");
        eprint!("{LINT_USAGE}");
        ExitCode::from(2)
    }
}
