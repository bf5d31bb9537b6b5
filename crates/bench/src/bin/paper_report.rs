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

use mp_bench::{render_report, report_json};
use mp_service::{
    serve_shard_lines, Client, Coordinator, Daemon, Endpoint, Request, Response, RunOutcome,
    ServeOptions, WorkerProcess,
};
use parasite::experiments::{
    parse_number, run_campaign_with_checkpoint, try_run_many, Artifact, ArtifactData,
    CampaignFleetResult, ConfigFlags, ExperimentError, ExperimentId, FaultPlan, RunConfig,
    FAULT_PLAN_ENV, MAX_FLEET_JOBS,
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
    distribute            split one campaign_fleet run into
                          contiguous AP-range shards, execute them on
                          --workers shard-worker processes (fresh local
                          re-executions of this binary, or any --worker-cmd
                          such as an ssh one-liner), merge the partial
                          outcomes and print the report — byte-identical to
                          the single-process batch run, including after a
                          worker dies and its range is retried. Requires
                          exactly --only campaign_fleet
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
    cancel                cooperatively cancel a run (--run <n>); a campaign
                          stops at the next day boundary, leaving a
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
    --serve-workers <n>   serve: concurrent runs executed at once, at most
                          1024 [default: 2]
    --serve-queue-limit <n>
                          serve: bound the submission queue; a submit past
                          the bound is rejected with a typed queue_full
                          error until a worker drains the queue
                          (0 = unbounded) [default: 0]
    --run <n>             status/watch/cancel: the run id
    --watch               submit: stay connected and stream day/done lines

DISTRIBUTE OPTIONS:
    --workers <n>         shard-worker processes to execute on, at most 1024
                          [default: 2]
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
    --fleet-jobs <n>      campaign_fleet: worker threads for the per-AP sims
                          (0 = auto-size to the machine) [default: 0]
    --fleet-days <n>      campaign_fleet: simulated days of the churn loop
                          (arrivals/departures, cache clears, Figure 3
                          target-object rotation, with infections carried
                          forward); a one-day campaign is its day 1
                          [default: 1]
    --fleet-churn <f>     campaign_fleet: daily client-turnover fraction in
                          [0, 1] [default: 0]
    --fleet-hetero        campaign_fleet: draw per-AP latency/jitter/attacker
                          reaction and client weights from seeded
                          distributions instead of the uniform paper timing
    --fleet-visit-prob <f>
                          campaign_fleet: mean daily probability that a seat
                          visits its cafe, in (0, 1]; per-seat probabilities
                          are drawn from a seeded triangular distribution
                          around it. 1 is the everyone-visits model
                          [default: 1]
    --fleet-checkpoint <path>
                          write a resumable JSON checkpoint after every
                          completed campaign day; if <path> exists the
                          campaign resumes from it (byte-identical to an
                          uninterrupted run). Requires exactly
                          --only campaign_fleet
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

    /// The argument after the flag. Another flag is no value: a missing
    /// value must not swallow the next flag (`--fleet-checkpoint --json`
    /// would write a file named `--json`).
    fn value(&mut self) -> Result<&'a str, String> {
        let flag = self.flag;
        match self.args.next() {
            Some(value) if !value.starts_with("--") => Ok(value),
            _ => Err(format!("{flag} requires a value")),
        }
    }

    fn number<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        parse_number(self.flag, self.value()?)
    }

    /// A count of threads or worker processes: at least 1 and at most
    /// [`MAX_FLEET_JOBS`].
    fn thread_count(&mut self) -> Result<usize, String> {
        match self.number()? {
            0 => Err(format!("{} must be at least 1", self.flag)),
            count if count > MAX_FLEET_JOBS => {
                Err(format!("{} must be at most {MAX_FLEET_JOBS}, got {count}", self.flag))
            }
            count => Ok(count),
        }
    }
}

/// Prints `message` and the `usage` text on stderr; exit code 2.
fn usage_error(usage: &str, message: &str) -> ExitCode {
    eprintln!("error: {message}\n");
    eprint!("{usage}");
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut ids: Vec<ExperimentId> = Vec::new();
    let mut config = ConfigFlags::default();
    let mut jobs = 1usize;
    let mut json = false;
    let mut checkpoint: Option<PathBuf> = None;

    let mut args = Cursor::new(args);
    while let Some(flag) = args.next_flag() {
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
            "--fleet-checkpoint" => checkpoint = Some(PathBuf::from(args.value()?)),
            "--jobs" => {
                jobs = args.number()?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--json" => json = true,
            "--list" => {
                let list: String = ExperimentId::EXTENDED
                    .iter()
                    .map(|id| format!("{:<14} {}\n", id.to_string(), id.title()))
                    .collect();
                write_stdout(&list, "the experiment list");
                return Ok(None);
            }
            "-h" | "--help" => {
                write_stdout(USAGE, "the usage");
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
            // Every other flag sets run-config fields, or is unknown.
            other => config.parse(other, || args.value())?,
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
    let config = config.finish(&ids)?;
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
    valid.map_err(|error| format!("{}: {error}", error.flag()))?;
    Ok(Some(Options { ids, config, jobs, json, checkpoint }))
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
    let results =
        try_run_many(&options.ids, std::slice::from_ref(&options.config), options.jobs);
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
    let report = if options.json {
        report_json(&options.config, &artifacts).to_string()
    } else {
        render_report(&artifacts)
    };
    write_stdout(&(report + "\n"), "the report");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes `text` to stdout and flushes it: the one output path of every
/// subcommand. A reader that closed the pipe early (`| head`) is no error;
/// any other write error ends the process with an `error:` line naming
/// `what` could not be written, and exit status 1.
fn write_stdout(text: &str, what: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(error) = stdout.write_all(text.as_bytes()).and_then(|()| stdout.flush()) {
        if error.kind() != ErrorKind::BrokenPipe {
            eprintln!("error: cannot write {what}: {error}");
            std::process::exit(1);
        }
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
                "--serve-workers" => parsed.workers = Some(args.thread_count()?),
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
        let text = if json {
            response.to_json().to_string()
        } else {
            match response {
                Response::Accepted { run, experiment } => {
                    format!("run {run} accepted ({experiment})")
                }
                Response::Status { runs } if runs.is_empty() => "no runs".to_string(),
                Response::Status { runs } => {
                    let mut table = format!(
                        "{:<6} {:<16} {:<8} {:>5}  outcome",
                        "run", "experiment", "state", "days"
                    );
                    for row in runs {
                        table.push_str(&format!(
                            "\n{:<6} {:<16} {:<8} {:>5}  {}",
                            row.run,
                            row.experiment.as_str(),
                            row.state.as_str(),
                            row.days,
                            row.outcome.as_deref().unwrap_or("-")
                        ));
                    }
                    table
                }
                Response::Cancelling { run } => format!(
                    "run {run} cancelling (stops at its next day boundary; any \
                     checkpoint stays resumable)"
                ),
                Response::ShuttingDown { active_runs } => {
                    format!("daemon shutting down ({active_runs} active run(s) cancelled)")
                }
                Response::Day { stats, .. } => format!(
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
                    format!("run {run} done: ok")
                }
                Response::Done { run, outcome: RunOutcome::Cancelled { days_completed } } => {
                    format!("run {run} cancelled after {days_completed} completed day(s)")
                }
                Response::Done { run, outcome: RunOutcome::Failed { message } } => {
                    format!("run {run} failed: {message}")
                }
                other => other.to_json().to_string(),
            }
        };
        write_stdout(&(text + "\n"), "the response");
    }
}

/// The `distribute` coordinator: splits one campaign into AP-range
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
                "--workers" => workers = cursor.thread_count()?,
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
        return usage_error(USAGE, &format!("{}: {error}", error.flag()));
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
                write_stdout(LINT_USAGE, "the usage");
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
            let text = if json {
                format!("{}\n", report.to_json())
            } else {
                report.render_text(fix_hints)
            };
            write_stdout(&text, "the lint report");
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => usage_error(LINT_USAGE, &message),
    }
}
