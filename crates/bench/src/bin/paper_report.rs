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
use mp_service::{
    serve_shard_lines, Client, Coordinator, Daemon, Endpoint, Request, Response, RunOutcome,
    ServeOptions, WorkerProcess,
};
use parasite::experiments::{
    run_campaign_with_checkpoint, Artifact, ArtifactData, CampaignFleetResult, ConfigError,
    ExperimentError, ExperimentId, FaultPlan, RunConfig, SurfaceVector, FAULT_PLAN_ENV,
};
use parasite::json::ToJson;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

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

/// The flag cursor every subcommand parses with: each argument in turn,
/// then on demand the value that follows the current flag.
struct Cursor<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(args: &'a [String]) -> Self {
        Cursor { args: args.iter(), flag: "" }
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.args.next()?;
        Some(self.flag)
    }

    fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        self.args.next().map(String::as_str).ok_or_else(|| format!("{flag} requires a value"))
    }

    fn number<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        parse_number(self.value()?, self.flag)
    }

    fn fraction(&mut self) -> Result<f64, String> {
        let text = self.value()?;
        text.parse().map_err(|_| format!("{}: expected a number, got {text:?}", self.flag))
    }

    /// A `<start:end:steps>` sweep axis.
    fn axis(&mut self) -> Result<(u64, u64, usize), String> {
        let (text, flag) = (self.value()?, self.flag);
        let parts: Vec<&str> = text.split(':').collect();
        let [start, end, steps] = parts.as_slice() else {
            return Err(format!("{flag}: expected <start:end:steps>, got {text:?}"));
        };
        Ok((parse_number(start, flag)?, parse_number(end, flag)?, parse_number(steps, flag)?))
    }
}

fn parse_number<T: TryFrom<u64>>(text: &str, flag: &str) -> Result<T, String> {
    let value = text
        .parse::<u64>()
        .map_err(|_| format!("{flag}: expected a non-negative integer, got {text:?}"))?;
    T::try_from(value).map_err(|_| format!("{flag}: {value} is out of range"))
}

/// Prints `message` and the `usage` text on stderr; exit code 2.
fn usage_error(usage: &str, message: &str) -> ExitCode {
    eprintln!("error: {message}\n");
    eprint!("{usage}");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut ids: Vec<ExperimentId> = Vec::new();
    let mut config = RunConfig::default();
    let mut jobs = 1usize;
    let mut json = false;
    let mut checkpoint: Option<PathBuf> = None;
    // Every flag given, in order, so inert combinations can be rejected
    // after the id set is known.
    let mut given: Vec<&str> = Vec::new();

    let mut args = Cursor::new(args);
    while let Some(flag) = args.next_flag() {
        given.push(flag);
        match flag {
            "--only" => {
                for part in args.value()?.split(',') {
                    let id = part
                        .parse::<ExperimentId>()
                        .map_err(|error| error.to_string())?;
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
            "--seed" => config.seed = args.number()?,
            "--scale" => config.scale = args.number()?,
            "--sites" => config.sites = args.number()?,
            "--crawl-sites" => config.crawl_sites = args.number()?,
            "--days" => config.days = args.number()?,
            "--event-budget" => config.event_budget = args.number()?,
            "--jitter-us" => config.jitter_us = args.number()?,
            "--fleet-clients" => config.fleet_clients = args.number()?,
            "--fleet-aps" => config.fleet_aps = args.number()?,
            "--fleet-shards" => config.fleet_shards = args.number()?,
            "--fleet-jobs" => config.fleet_jobs = args.number()?,
            "--fleet-days" => config.fleet_days = args.number()?,
            "--fleet-churn" => config.fleet_churn = args.fraction()?,
            "--fleet-hetero" => config.fleet_hetero = true,
            "--fleet-visit-prob" => config.fleet_visit_prob = args.fraction()?,
            "--fleet-checkpoint" => checkpoint = Some(PathBuf::from(args.value()?)),
            "--global-event-budget" => config.global_event_budget = args.number()?,
            "--surface-vectors" => {
                config.surface_vectors = SurfaceVector::parse_mask(args.value()?)
                    .map_err(|error| format!("{flag}: {error}"))?;
            }
            "--surface-delays" => {
                (config.surface_delay_start_us, config.surface_delay_end_us, config.surface_delay_steps) =
                    args.axis()?;
            }
            "--surface-adoption" => config.surface_adoption_steps = args.number()?,
            "--surface-wan" => {
                (config.surface_wan_start_us, config.surface_wan_end_us, config.surface_wan_steps) =
                    args.axis()?;
            }
            "--surface-trials" => config.surface_trials = args.number()?,
            "--jobs" => {
                jobs = args.number()?;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A leading subcommand word routes to the distributed, service or lint
    // paths; everything else is the classic batch report.
    match args.first().map(String::as_str) {
        Some("distribute") => distribute(&args[1..]),
        Some("shard-worker") => shard_worker(&args[1..]),
        Some(command @ ("serve" | "submit" | "status" | "watch" | "cancel" | "shutdown")) => {
            service::run(command, &args[1..])
        }
        Some("lint") => lint(&args[1..]),
        _ => batch(&args),
    }
}

fn batch(args: &[String]) -> ExitCode {
    let options = match parse_args(args) {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => return usage_error(USAGE, &message),
    };
    // With a checkpoint path, the (sole, validated by parse_args) campaign
    // fleet id runs through the checkpointing entry point (write-per-day +
    // resume) instead of the batch runner.
    if let Some(path) = options.checkpoint.as_deref() {
        let result = run_campaign_with_checkpoint(&options.config, path);
        return print_campaign(result, &options);
    }
    let results = try_run_selected(&options.ids, &options.config, options.jobs);
    print_report(&options.ids, results, &options)
}

/// Prints the report of one campaign_fleet result.
fn print_campaign(
    result: Result<CampaignFleetResult, ExperimentError>,
    options: &Options,
) -> ExitCode {
    let result = result.map(|result| Artifact {
        id: ExperimentId::CampaignFleet,
        config: options.config,
        data: ArtifactData::CampaignFleet(result),
    });
    print_report(&[ExperimentId::CampaignFleet], vec![result], options)
}

/// Prints the report of every artifact in `results` (one per id, in order);
/// an experiment that failed reports its error and the rest still print.
/// Exits 1 when any experiment failed or the report cannot be written; a
/// reader that closed the pipe early (`| head`) is no error.
fn print_report(
    ids: &[ExperimentId],
    results: Vec<Result<Artifact, ExperimentError>>,
    options: &Options,
) -> ExitCode {
    let mut artifacts = Vec::new();
    let mut failed = false;
    for (id, result) in ids.iter().zip(results) {
        match result {
            Ok(artifact) => artifacts.push(artifact),
            Err(error) => {
                eprintln!("error: experiment {id} failed: {error}");
                failed = true;
            }
        }
    }
    let mut stdout = std::io::stdout().lock();
    let written = if options.json {
        writeln!(stdout, "{}", report_json(&options.config, &artifacts))
    } else {
        writeln!(stdout, "{}", render_report(&artifacts))
    };
    match written.and_then(|()| stdout.flush()) {
        Err(error) if error.kind() != ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write the report: {error}");
            return ExitCode::FAILURE;
        }
        _ => {}
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

    /// The service flags `command` accepts: those that do something there.
    fn accepted(command: &str) -> &'static [&'static str] {
        match command {
            "serve" => &["--socket", "--tcp", "--serve-workers", "--serve-queue-limit"],
            "submit" => &["--socket", "--tcp", "--watch", "--json"],
            "shutdown" => &["--socket", "--tcp", "--json"],
            _ => &["--socket", "--tcp", "--run", "--json"],
        }
    }

    /// One subcommand's parsed flags, plus the batch configuration
    /// arguments that `submit` forwards to `parse_args`.
    #[derive(Default)]
    struct ServiceArgs {
        socket: Option<PathBuf>,
        tcp: Option<String>,
        run: Option<u64>,
        watch: bool,
        json: bool,
        workers: Option<usize>,
        queue_limit: usize,
        global_event_budget: u64,
        rest: Vec<String>,
    }

    fn parse_service(command: &str, args: &[String]) -> Result<ServiceArgs, String> {
        let mut parsed = ServiceArgs::default();
        let mut args = Cursor::new(args);
        while let Some(flag) = args.next_flag() {
            match flag {
                "--socket" | "--tcp" | "--serve-workers" | "--serve-queue-limit" | "--run"
                | "--watch" | "--json"
                    if !accepted(command).contains(&flag) =>
                {
                    return Err(format!("{flag} has no effect on {command}"));
                }
                "--socket" => parsed.socket = Some(PathBuf::from(args.value()?)),
                "--tcp" => parsed.tcp = Some(args.value()?.to_string()),
                "--run" => parsed.run = Some(args.number()?),
                "--watch" => parsed.watch = true,
                "--json" => parsed.json = true,
                "--serve-workers" => match args.number()? {
                    0 => return Err("--serve-workers must be at least 1".to_string()),
                    workers => parsed.workers = Some(workers),
                },
                "--serve-queue-limit" => parsed.queue_limit = args.number()?,
                // serve accepts one batch flag: the daemon-wide pool for
                // submissions that do not bring their own.
                "--global-event-budget" if command == "serve" => {
                    parsed.global_event_budget = args.number()?;
                }
                other if command == "submit" => parsed.rest.push(other.to_string()),
                other if command == "serve" => {
                    return Err(format!(
                        "unknown serve argument {other:?}; run configuration \
                         belongs to submit, not serve"
                    ));
                }
                other => return Err(format!("unknown {command} argument {other:?}")),
            }
        }
        Ok(parsed)
    }

    pub fn run(command: &str, args: &[String]) -> ExitCode {
        let parsed = match parse_service(command, args) {
            Ok(parsed) => parsed,
            Err(message) => return usage_error(USAGE, &message),
        };
        if command == "serve" {
            return serve(parsed);
        }
        // The endpoint a client dials: --tcp wins, else --socket.
        let endpoint = match (&parsed.tcp, &parsed.socket) {
            (Some(addr), _) => Endpoint::Tcp(addr.clone()),
            (None, Some(path)) => Endpoint::Unix(path.clone()),
            (None, None) => {
                return usage_error(
                    USAGE,
                    &format!(
                        "{command} needs the daemon's address; pass --socket <path> \
                         (or --tcp <addr>)"
                    ),
                )
            }
        };
        let json = parsed.json;
        let request = match request(command, &parsed) {
            Ok(Some(request)) => request,
            Ok(None) => return ExitCode::SUCCESS,
            Err(message) => return usage_error(USAGE, &message),
        };
        let mut client = match connect(&endpoint) {
            Ok(client) => client,
            Err(code) => return code,
        };
        if let Request::Watch { .. } = request {
            return match client.send(&request) {
                Ok(()) => stream(&mut client, json),
                Err(error) => unexpected(Err(error.into())),
            };
        }
        match client.request(&request) {
            Ok(Response::Error { message, .. }) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
            Ok(
                response @ (Response::Accepted { .. }
                | Response::Status { .. }
                | Response::Cancelling { .. }
                | Response::ShuttingDown { .. }),
            ) => {
                print_response(&response, json);
                if parsed.watch {
                    stream(&mut client, json)
                } else {
                    ExitCode::SUCCESS
                }
            }
            other => unexpected(other),
        }
    }

    /// The request a client subcommand sends.
    fn request(command: &str, parsed: &ServiceArgs) -> Result<Option<Request>, String> {
        let run = || parsed.run.ok_or_else(|| format!("{command} requires --run <n>"));
        let request = match command {
            "status" => Request::Status { run: parsed.run },
            "watch" => Request::Watch { run: run()? },
            "cancel" => Request::Cancel { run: run()? },
            "shutdown" => Request::Shutdown,
            _ => {
                if parsed.rest.iter().any(|arg| arg == "--jobs") {
                    return Err("--jobs schedules a batch sweep; the daemon runs one \
                                experiment per submission (tune --serve-workers on serve)"
                        .to_string());
                }
                let Some(options) = parse_args(&parsed.rest)? else { return Ok(None) };
                let [experiment] = options.ids.as_slice() else {
                    return Err("submit runs exactly one experiment; pass a single id, \
                                e.g. --only campaign_fleet"
                        .to_string());
                };
                Request::Submit {
                    experiment: *experiment,
                    config: Box::new(options.config),
                    checkpoint: options.checkpoint,
                    watch: parsed.watch,
                }
            }
        };
        Ok(Some(request))
    }

    fn serve(parsed: ServiceArgs) -> ExitCode {
        let Some(socket) = parsed.socket else {
            return usage_error(USAGE, "serve requires --socket <path>");
        };
        let options = ServeOptions {
            socket: socket.clone(),
            tcp: parsed.tcp,
            workers: parsed.workers.unwrap_or(2),
            global_event_budget: parsed.global_event_budget,
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
                Ok(response @ Response::Day { .. }) => print_response(&response, json),
                Ok(response @ Response::Done { .. }) => {
                    print_response(&response, json);
                    return match response {
                        Response::Done { outcome: RunOutcome::Failed { .. }, .. } => {
                            ExitCode::FAILURE
                        }
                        _ => ExitCode::SUCCESS,
                    };
                }
                Ok(Response::Error { message, .. }) => {
                    eprintln!("error: {message}");
                    return ExitCode::FAILURE;
                }
                other => return unexpected(other),
            }
        }
    }

    /// Prints one daemon response: its JSON line, or a line of text.
    fn print_response(response: &Response, json: bool) {
        if json {
            println!("{}", response.to_json());
            return;
        }
        match response {
            Response::Accepted { run, experiment } => println!("run {run} accepted ({experiment})"),
            Response::Status { runs } if runs.is_empty() => println!("no runs"),
            Response::Status { runs } => {
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
            Response::Cancelling { run } => println!(
                "run {run} cancelling (stops at its next day boundary; any \
                 checkpoint stays resumable)"
            ),
            Response::ShuttingDown { active_runs } => {
                println!("daemon shutting down ({active_runs} active run(s) cancelled)")
            }
            Response::Day { stats, .. } => println!(
                "day {:>3}: exposed {:>6}  newly infected {:>6}  infected {:>7}  \
                 clean {:>7}  events {}",
                stats.day,
                stats.exposed,
                stats.newly_infected,
                stats.infected,
                stats.clean,
                stats.events
            ),
            Response::Done { run, outcome: RunOutcome::Ok { .. } } => {
                println!("run {run} done: ok")
            }
            Response::Done { run, outcome: RunOutcome::Cancelled { days_completed } } => {
                println!("run {run} cancelled after {days_completed} completed day(s)")
            }
            Response::Done { run, outcome: RunOutcome::Failed { message } } => {
                println!("run {run} failed: {message}")
            }
            other => println!("{}", other.to_json()),
        }
    }
}

/// The `distribute` coordinator: splits one multi-day campaign into AP-range
/// shards, runs each on a fresh `shard-worker` process (or `--worker-cmd`)
/// through [`Coordinator`], merges the outcomes and prints the report. The
/// coordinator-only flags are scheduling knobs and never reach the
/// `RunConfig`, so the merged artifact's config echo equals the batch run's.
fn distribute(args: &[String]) -> ExitCode {
    let mut workers = 2usize;
    let mut worker_cmd: Option<&str> = None;
    let mut journal: Option<PathBuf> = None;
    // None keeps the automatic warm-estimate deadline.
    let mut shard_timeout: Option<Duration> = None;
    let mut retry_limit = 3usize;
    let mut rest: Vec<String> = Vec::new();
    let mut cursor = Cursor::new(args);
    let parsed = (|| {
        while let Some(flag) = cursor.next_flag() {
            match flag {
                "--workers" => match cursor.number()? {
                    0 => return Err("--workers must be at least 1".to_string()),
                    value => workers = value,
                },
                "--worker-cmd" => worker_cmd = Some(cursor.value()?),
                "--journal" => journal = Some(PathBuf::from(cursor.value()?)),
                "--shard-timeout" => {
                    shard_timeout = Some(Duration::from_secs(cursor.number()?))
                        .filter(|timeout| !timeout.is_zero());
                }
                "--retry-limit" => retry_limit = cursor.number()?,
                other => rest.push(other.to_string()),
            }
        }
        parse_args(&rest)
    })();
    let options = match parsed {
        Ok(Some(options)) => options,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => return usage_error(USAGE, &message),
    };
    if options.ids != [ExperimentId::CampaignFleet] {
        return usage_error(
            USAGE,
            "distribute runs the campaign alone; use exactly --only campaign_fleet",
        );
    }
    if options.checkpoint.is_some() {
        return usage_error(
            USAGE,
            "--fleet-checkpoint belongs to the single-process batch mode; \
             distribute keeps its partial outcomes in memory",
        );
    }
    if let Err(error) = options.config.validate_sharded() {
        return usage_error(USAGE, &config_usage(error));
    }
    // The coordinator's fault plan claims torn journal writes; claim
    // sequencing across the worker processes needs a shared claim
    // directory, provisioned here when the plan is armed without one.
    let faults = match FaultPlan::from_env() {
        Err(message) => return usage_error(USAGE, &format!("{FAULT_PLAN_ENV}: {message}")),
        Ok(Some(plan)) if plan.dir().is_none() => {
            let dir = std::env::temp_dir().join(format!("mp-fault-claims-{}", std::process::id()));
            match plan.with_dir(dir) {
                Ok(plan) => Some(plan),
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Ok(plan) => plan,
    };
    let config = &options.config;
    let fault_dir = faults.as_ref().and_then(FaultPlan::dir);
    let process = WorkerProcess::new(config, worker_cmd, shard_timeout, fault_dir);
    let coordinator = Coordinator {
        config,
        workers,
        journal: journal.as_deref(),
        retry_limit,
        faults: faults.as_ref(),
    };
    match coordinator.run(|plan| process.attempt(plan)) {
        Ok(merged) => print_campaign(merged.into_fleet_result(config), &options),
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}

/// The `shard-worker` subcommand that `distribute` spawns: serves stdin
/// assignments until EOF (see [`serve_shard_lines`]). A seeded
/// `MP_FAULT_PLAN` (see PROTOCOL.md) makes chosen assignments misbehave on
/// demand — crash before replying, hang, or garble the reply line — so the
/// coordinator's supervision is testable.
fn shard_worker(args: &[String]) -> ExitCode {
    if let Some(stray) = args.first() {
        return usage_error(USAGE, &format!("unknown shard-worker argument {stray:?}"));
    }
    let faults = match FaultPlan::from_env() {
        Ok(faults) => faults,
        Err(message) => return usage_error(USAGE, &format!("{FAULT_PLAN_ENV}: {message}")),
    };
    let (mut stdin, mut stdout) = (std::io::stdin().lock(), std::io::stdout());
    match serve_shard_lines(&mut stdin, &mut stdout, faults.as_ref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

const LINT_USAGE: &str = "\
usage: paper-report lint [--json] [--fix-hints] [--root <dir>]

    --json                emit the report as one structured JSON document
                          (diagnostics plus the extracted seed-tag registry)
    --fix-hints           append a remediation hint under each finding
    --root <dir>          workspace root to scan [default: current directory]

exit status: 0 clean, 1 diagnostics found, 2 usage/setup error
";

/// The `lint` subcommand: the mp-lint static analysis pass.
fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut fix_hints = false;
    let mut root: Option<PathBuf> = None;
    let mut args = Cursor::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--json" => json = true,
            "--fix-hints" => fix_hints = true,
            "--root" => match args.value() {
                Ok(dir) => root = Some(PathBuf::from(dir)),
                Err(_) => return usage_error(LINT_USAGE, "--root requires a directory argument"),
            },
            "-h" | "--help" => {
                print!("{LINT_USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(LINT_USAGE, &format!("unknown lint flag {other:?}")),
        }
    }
    let root = match root.map_or_else(std::env::current_dir, Ok) {
        Ok(dir) => dir,
        Err(error) => {
            return usage_error(LINT_USAGE, &format!("cannot resolve current directory: {error}"))
        }
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
        Err(message) => usage_error(LINT_USAGE, &message),
    }
}
