//! The distributed-campaign coordinator behind `paper-report distribute`:
//! it plans contiguous AP-range shards (re-planning only the ranges a
//! journal does not already hold), hands each to an attempt closure,
//! retries failed attempts with backoff under a per-range budget, journals
//! every completed shard and folds the outcomes into one merged
//! [`ShardOutcome`].
//!
//! An attempt is any `Fn(ShardPlan) -> Result<String, AttemptError>` that
//! returns a worker's reply line; [`Coordinator::run`] decodes it. The
//! production attempt is [`WorkerProcess::attempt`] (one fresh
//! `shard-worker` process per assignment, under a supervision deadline);
//! tests pass scripted closures.

use crate::protocol::{codes, Request, Response};
use parasite::experiments::{
    scan_journal, write_journal_entry, ExperimentError, FaultKind, FaultPlan, RunConfig,
    ShardOutcome, ShardPlan, FAULT_DIR_ENV,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why one assignment attempt failed.
#[derive(Debug)]
pub enum AttemptError {
    /// Worth another attempt on a fresh worker: a death, a hang, a
    /// garbled reply or a failure inside the worker.
    Retry(String),
    /// The worker rejected the assignment itself (`bad_request`): the
    /// rejection is deterministic, so every retry would repeat it.
    Rejected(String),
}

/// One coordinator run: the campaign, how to split it and where to keep
/// completed shards.
pub struct Coordinator<'a> {
    /// The campaign every shard runs (validated for sharding by the caller).
    pub config: &'a RunConfig,
    /// Concurrent attempts, and the number of ranges each uncovered run of
    /// APs is split into.
    pub workers: usize,
    /// Where each completed shard outcome is written; a rerun with the same
    /// journal resumes, re-running only the ranges without a valid entry.
    pub journal: Option<&'a Path>,
    /// Failed attempts each range may retry before the run fails.
    pub retry_limit: usize,
    /// The coordinator's fault plan: claims torn-journal-write faults.
    pub faults: Option<&'a FaultPlan>,
}

/// The shared retry queue: pending `(plan index, failed attempts)` pairs,
/// and the error that failed the run, after which nothing runs again.
struct Queue {
    pending: VecDeque<(usize, usize)>,
    failure: Option<ExperimentError>,
}

/// Folds one shard outcome into the merged accumulator.
fn fold(merged: &mut Option<ShardOutcome>, outcome: ShardOutcome) -> Result<(), ExperimentError> {
    *merged = Some(match merged.take() {
        None => outcome,
        Some(accumulated) => accumulated.merge(outcome).map_err(|error| {
            ExperimentError::Shard(format!("cannot merge shard outcomes: {error}"))
        })?,
    });
    Ok(())
}

impl Coordinator<'_> {
    /// Runs the campaign through `attempt` and returns the merged outcome
    /// of every range, journal-resumed ones included (`merge` is
    /// associative and order-insensitive, so neither arrival order nor the
    /// journal can change the result).
    ///
    /// A range whose attempt fails with [`AttemptError::Retry`], or whose
    /// reply is garbled or covers the wrong range, goes back on the queue
    /// after a bounded exponential backoff; retries are accounted per range,
    /// so one poisoned range exhausts its own `retry_limit` and fails the
    /// run with an error naming it. A `bad_request` rejection fails the run
    /// at once. Once the run has failed, no range is queued or attempted
    /// again: threads in backoff wake and stop.
    pub fn run(
        &self,
        attempt: impl Fn(ShardPlan) -> Result<String, AttemptError> + Sync,
    ) -> Result<ShardOutcome, ExperimentError> {
        let mut merged = None;
        let resumed = self.resume()?;
        let plans = ShardPlan::uncovered(self.config, &resumed, self.workers);
        for outcome in resumed {
            fold(&mut merged, outcome)?;
        }
        if !plans.is_empty() {
            merged = self.execute(&plans, merged, &attempt)?;
        }
        merged.ok_or_else(|| ExperimentError::Shard("no shards were planned".to_string()))
    }

    /// The valid outcomes already in the journal (none without one); a
    /// damaged entry is discarded with a warning and its range re-runs.
    fn resume(&self) -> Result<Vec<ShardOutcome>, ExperimentError> {
        let Some(dir) = self.journal else { return Ok(Vec::new()) };
        let scan = scan_journal(dir, self.config)?;
        for (path, why) in &scan.discarded {
            eprintln!(
                "warning: discarded damaged journal entry {} ({why}); its range will re-run",
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
        Ok(scan.outcomes)
    }

    fn execute(
        &self,
        plans: &[ShardPlan],
        merged: Option<ShardOutcome>,
        attempt: &(impl Fn(ShardPlan) -> Result<String, AttemptError> + Sync),
    ) -> Result<Option<ShardOutcome>, ExperimentError> {
        let merged = Mutex::new(merged);
        let queue = Mutex::new(Queue {
            pending: (0..plans.len()).map(|index| (index, 0)).collect(),
            failure: None,
        });
        let failed = Condvar::new();
        let fail = |error: ExperimentError| {
            let mut queue = queue.lock().unwrap();
            queue.failure.get_or_insert(error);
            queue.pending.clear();
            failed.notify_all();
        };
        std::thread::scope(|scope| {
            for _ in 0..self.workers.clamp(1, plans.len()) {
                scope.spawn(|| loop {
                    let Some((index, failures)) = queue.lock().unwrap().pending.pop_front() else {
                        break;
                    };
                    let plan = plans[index];
                    let range = format!("[{}, {})", plan.first_ap, plan.first_ap + plan.aps);
                    let error = match attempt(plan)
                        .and_then(|line| decode_reply(line.trim(), self.config, plan))
                    {
                        Ok(outcome) => match self
                            .journal_outcome(&outcome)
                            .and_then(|()| fold(&mut merged.lock().unwrap(), outcome))
                        {
                            Ok(()) => continue,
                            Err(error) => error,
                        },
                        Err(AttemptError::Rejected(message)) => ExperimentError::Shard(format!(
                            "range {range} was rejected by its worker: {message}"
                        )),
                        Err(AttemptError::Retry(message)) if failures >= self.retry_limit => {
                            ExperimentError::Shard(format!(
                                "range {range} failed {} time(s), exhausting --retry-limit {}: \
                                 {message}",
                                failures + 1,
                                self.retry_limit
                            ))
                        }
                        Err(AttemptError::Retry(message)) => {
                            let backoff =
                                Duration::from_millis((50u64 << failures.min(5)).min(2_000));
                            eprintln!(
                                "warning: shard {range} attempt {}/{} failed ({message}); \
                                 retrying in {}ms",
                                failures + 1,
                                self.retry_limit + 1,
                                backoff.as_millis()
                            );
                            let (mut queue, _) = failed
                                .wait_timeout_while(queue.lock().unwrap(), backoff, |queue| {
                                    queue.failure.is_none()
                                })
                                .expect("a poisoned queue lock propagates the panic");
                            if queue.failure.is_some() {
                                break;
                            }
                            queue.pending.push_back((index, failures + 1));
                            continue;
                        }
                    };
                    fail(error);
                    break;
                });
            }
        });
        // A panicking attempt re-panics out of the scope, so no lock is
        // poisoned here.
        match queue.into_inner().expect("no thread panicked").failure {
            Some(error) => Err(error),
            None => Ok(merged.into_inner().expect("no thread panicked")),
        }
    }

    /// Writes one completed shard into the journal (when one is
    /// configured). A planned torn-write fault leaves a strict prefix of
    /// the entry at its final path and kills the coordinator — exactly
    /// the damage a power cut mid-write would leave for the resume path
    /// to discard.
    fn journal_outcome(&self, outcome: &ShardOutcome) -> Result<(), ExperimentError> {
        let Some(dir) = self.journal else { return Ok(()) };
        let torn = matches!(self.faults.and_then(FaultPlan::claim_journal), Some(FaultKind::Torn));
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

/// The production attempt: each assignment runs on a fresh worker process
/// (no half-poisoned state to reason about on retry) — this binary's
/// `shard-worker` subcommand, or any `sh -c` command line that speaks its
/// protocol, such as an ssh one-liner.
///
/// The per-assignment deadline is an explicit shard timeout when one is
/// given; otherwise it derives from a warm estimate — five times the first
/// replying shard's duration, floored at ten seconds — and until any shard
/// replies there is none (a cold first shard is not evidence of a hang).
pub struct WorkerProcess<'a> {
    config: &'a RunConfig,
    worker_cmd: Option<&'a str>,
    fault_dir: Option<&'a Path>,
    timeout: Option<Duration>,
    warm: Mutex<Option<Duration>>,
}

impl<'a> WorkerProcess<'a> {
    /// Workers for `config`, launched via `sh -c worker_cmd` or (without
    /// one) as `<this executable> shard-worker`, sharing the fault claim
    /// directory `fault_dir` so a plan like `crash@2` fires once across the
    /// fleet rather than once per process.
    pub fn new(
        config: &'a RunConfig,
        worker_cmd: Option<&'a str>,
        timeout: Option<Duration>,
        fault_dir: Option<&'a Path>,
    ) -> Self {
        WorkerProcess { config, worker_cmd, fault_dir, timeout, warm: Mutex::new(None) }
    }

    fn deadline(&self) -> Option<Duration> {
        if let Some(timeout) = self.timeout {
            return Some(timeout);
        }
        self.warm.lock().unwrap().map(|warm| (warm * 5).max(Duration::from_secs(10)))
    }

    /// Runs `plan` on a fresh worker: writes the `shard_submit` line,
    /// closes stdin (the worker replies, sees EOF and exits), and reads the
    /// single reply line under the deadline — a worker silent past it is
    /// killed and the attempt reported hung.
    pub fn attempt(&self, plan: ShardPlan) -> Result<String, AttemptError> {
        let retry = AttemptError::Retry;
        let mut child = self.spawn().map_err(retry)?;
        let request = Request::ShardSubmit {
            config: Box::new(*self.config),
            first_ap: plan.first_ap,
            aps: plan.aps,
        };
        {
            let mut stdin =
                child.stdin.take().ok_or_else(|| retry("worker stdin unavailable".to_string()))?;
            writeln!(stdin, "{}", request.to_json())
                .map_err(|error| retry(format!("cannot write to the worker: {error}")))?;
        }
        let stdout =
            child.stdout.take().ok_or_else(|| retry("worker stdout unavailable".to_string()))?;
        let (sender, receiver) = mpsc::channel();
        // Supervision-layer reader thread: it only shuttles one reply
        // line into the timeout loop. mp-lint: allow(thread-spawn)
        std::thread::spawn(move || {
            let mut reply = String::new();
            let read = BufReader::new(stdout).read_line(&mut reply);
            let _ = sender.send(read.map(|bytes| (bytes, reply)));
        });
        // Supervision-layer wall-clock read: worker deadlines are real
        // time, not simulated time. mp-lint: allow(wallclock)
        let started = Instant::now();
        let read = loop {
            match receiver.recv_timeout(Duration::from_millis(100)) {
                Ok(read) => break read,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Re-read the deadline every poll: the automatic warm
                    // estimate may arrive while this worker runs.
                    if let Some(deadline) = self.deadline() {
                        if started.elapsed() >= deadline {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err(retry(format!(
                                "worker hung past the {deadline:?} shard timeout; killed"
                            )));
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break Err(std::io::Error::other("the reply reader died"));
                }
            }
        };
        let status =
            child.wait().map_err(|error| retry(format!("cannot await the worker: {error}")))?;
        match read {
            Ok((0, _)) => Err(retry(format!("worker exited without replying ({status})"))),
            Ok((_, reply)) => {
                self.warm.lock().unwrap().get_or_insert(started.elapsed());
                Ok(reply)
            }
            Err(error) => Err(retry(format!("cannot read the worker's reply: {error}"))),
        }
    }

    fn spawn(&self) -> Result<Child, String> {
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
        if let Some(dir) = self.fault_dir {
            command.env(FAULT_DIR_ENV, dir);
        }
        command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|error| format!("cannot spawn a shard worker: {error}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_shard;
    use parasite::experiments::{run_campaign_shard, ExperimentId, Registry, RunCtx};
    use parasite::json::ToJson;
    use std::path::PathBuf;

    fn small_config() -> RunConfig {
        RunConfig {
            seed: 7,
            fleet_clients: 400,
            fleet_aps: 4,
            fleet_days: 3,
            fleet_churn: 0.2,
            fleet_jobs: 1,
            ..RunConfig::default()
        }
    }

    fn coordinator(config: &RunConfig, workers: usize, retry_limit: usize) -> Coordinator<'_> {
        Coordinator { config, workers, journal: None, retry_limit, faults: None }
    }

    /// The worker's reply to `plan`, served in process.
    fn reply(config: &RunConfig, plan: ShardPlan) -> String {
        serve_shard(1, config, plan, &RunCtx::default(), None).line
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mp-distribute-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The single-process artifact the merged outcome must reproduce.
    fn batch_json(config: &RunConfig) -> String {
        let artifact = Registry::get(ExperimentId::CampaignFleet).run(config);
        artifact.data.as_campaign_fleet().expect("campaign artifact").to_json().to_string()
    }

    fn merged_json(merged: ShardOutcome, config: &RunConfig) -> String {
        merged.into_fleet_result(config).expect("full coverage").to_json().to_string()
    }

    /// Every attempt, in order of arrival, and a way to block until a plan
    /// has been attempted a number of times.
    #[derive(Default)]
    struct Attempts {
        log: Mutex<Vec<ShardPlan>>,
        changed: Condvar,
    }

    impl Attempts {
        /// Logs an attempt at `plan`; returns how many `plan` has had.
        fn record(&self, plan: ShardPlan) -> usize {
            let mut log = self.log.lock().unwrap();
            log.push(plan);
            self.changed.notify_all();
            log.iter().filter(|logged| **logged == plan).count()
        }

        fn of(&self, plan: ShardPlan) -> usize {
            self.log.lock().unwrap().iter().filter(|logged| **logged == plan).count()
        }

        fn wait_for(&self, plan: ShardPlan, count: usize) {
            let log = self.log.lock().unwrap();
            let counted = |log: &mut Vec<ShardPlan>| {
                log.iter().filter(|logged| **logged == plan).count() < count
            };
            drop(self.changed.wait_while(log, counted).unwrap());
        }

        /// The distinct plans attempted, by first AP.
        fn plans(&self) -> Vec<ShardPlan> {
            let mut plans = self.log.lock().unwrap().clone();
            plans.sort_by_key(|plan| plan.first_ap);
            plans.dedup();
            plans
        }
    }

    #[test]
    fn a_failed_run_queues_and_attempts_nothing_more() {
        // Range A is rejected while range B keeps failing. Once the
        // rejection fails the run, B's thread must stop in its backoff
        // instead of re-queuing B and running out its retry budget.
        let config = RunConfig { fleet_aps: 2, ..small_config() };
        let [a, b] = [ShardPlan { first_ap: 0, aps: 1 }, ShardPlan { first_ap: 1, aps: 1 }];
        let attempts = Attempts::default();
        let retry_limit = 10;
        let result = coordinator(&config, 2, retry_limit).run(|plan| {
            if plan == a {
                // Reject only once B is failing, so B's thread is on its way
                // into (or already in) its first backoff.
                attempts.wait_for(b, 1);
                attempts.record(a);
                return Err(AttemptError::Rejected("no".to_string()));
            }
            if attempts.record(b) > 1 {
                // A re-attempt is possible only if the rejection landed after
                // B's 50 ms backoff; it must still be the last one.
                attempts.wait_for(a, 1);
            }
            Err(AttemptError::Retry("worker died".to_string()))
        });
        let error = result.expect_err("a rejection fails the run").to_string();
        assert!(error.contains("range [0, 1) was rejected by its worker: no"), "{error}");
        assert_eq!(attempts.of(a), 1);
        // The parent's queue re-queued B after every backoff until its
        // budget ran out: 11 attempts.
        assert!(attempts.of(b) <= 2, "B ran {} times after the run failed", attempts.of(b));
    }

    #[test]
    fn each_range_spends_only_its_own_retry_budget() {
        let config = small_config();
        let plans = ShardPlan::split(&config, 2);
        // Both ranges fail twice: four failures, but two per range, within
        // a per-range limit of 2.
        let attempts = Attempts::default();
        let merged = coordinator(&config, 2, 2)
            .run(|plan| match attempts.record(plan) {
                1 | 2 => Err(AttemptError::Retry("worker died".to_string())),
                _ => Ok(reply(&config, plan)),
            })
            .expect("every range succeeds within its budget");
        assert_eq!(merged_json(merged, &config), batch_json(&config));
        assert!(plans.iter().all(|plan| attempts.of(*plan) == 3));

        // One poisoned range exhausts its own budget; the healthy one runs
        // once.
        let [healthy, poisoned] = [plans[0], plans[1]];
        let attempts = Attempts::default();
        let error = coordinator(&config, 2, 2)
            .run(|plan| {
                attempts.record(plan);
                if plan == poisoned {
                    return Err(AttemptError::Retry("worker died".to_string()));
                }
                Ok(reply(&config, plan))
            })
            .expect_err("the poisoned range fails the run")
            .to_string();
        assert!(
            error.contains("range [2, 4) failed 3 time(s), exhausting --retry-limit 2"),
            "{error}"
        );
        assert_eq!((attempts.of(healthy), attempts.of(poisoned)), (1, 3));
    }

    #[test]
    fn a_bad_request_reply_is_never_retried() {
        let config = small_config();
        let attempts = Attempts::default();
        let rejection = Response::Error {
            message: "fleet_aps must be at least 1, got 0".to_string(),
            code: Some(codes::BAD_REQUEST.to_string()),
        };
        let error = coordinator(&config, 1, 5)
            .run(|plan| {
                attempts.record(plan);
                Ok(rejection.to_json().to_string())
            })
            .expect_err("a rejection fails the run")
            .to_string();
        assert!(error.contains("was rejected by its worker: fleet_aps"), "{error}");
        assert_eq!(attempts.plans().len(), 1, "the run stops at the first rejection");
    }

    #[test]
    fn garbled_and_wrong_range_replies_are_retried() {
        let config = small_config();
        let plans = ShardPlan::split(&config, 2);
        let attempts = Attempts::default();
        let merged = coordinator(&config, 2, 3)
            .run(|plan| {
                let line = reply(&config, plan);
                Ok(match attempts.record(plan) {
                    // A strict prefix: a garbled line or a torn pipe write.
                    1 => line[..line.len() / 2].to_string(),
                    // Another range's valid outcome.
                    2 => reply(&config, plans[usize::from(plan == plans[0])]),
                    // A reply line from another protocol.
                    3 => Response::Cancelling { run: 1 }.to_json().to_string(),
                    _ => line,
                })
            })
            .expect("each range succeeds on its fourth attempt");
        assert_eq!(merged_json(merged, &config), batch_json(&config));
        assert!(plans.iter().all(|plan| attempts.of(*plan) == 4));
    }

    #[test]
    fn an_empty_journal_plans_the_fresh_split() {
        let config = small_config();
        let dir = temp_dir("empty");
        for journal in [None, Some(dir.as_path())] {
            let attempts = Attempts::default();
            let coordinator = Coordinator { journal, ..coordinator(&config, 3, 0) };
            let merged = coordinator
                .run(|plan| {
                    attempts.record(plan);
                    Ok(reply(&config, plan))
                })
                .expect("the campaign runs");
            assert_eq!(attempts.plans(), ShardPlan::split(&config, 3));
            assert_eq!(merged_json(merged, &config), batch_json(&config));
        }
        // The journaled run left one entry per range.
        assert_eq!(std::fs::read_dir(&dir).expect("journal dir").count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_gaps_are_replanned_and_resumed_outcomes_fold_into_the_same_artifact() {
        let config = small_config();
        let dir = temp_dir("gaps");
        // A previous coordinator finished AP 1 only.
        let done = ShardPlan { first_ap: 1, aps: 1 };
        let outcome = run_campaign_shard(&config, done, &RunCtx::default()).expect("shard runs");
        write_journal_entry(&dir, &config, &outcome).expect("journal entry");

        let attempts = Attempts::default();
        let coordinator = Coordinator { journal: Some(&dir), ..coordinator(&config, 2, 0) };
        let merged = coordinator
            .run(|plan| {
                attempts.record(plan);
                Ok(reply(&config, plan))
            })
            .expect("the resumed campaign runs");
        // Each gap is split across the workers on its own.
        let gaps = [(0, 1), (2, 1), (3, 1)].map(|(first_ap, aps)| ShardPlan { first_ap, aps });
        assert_eq!(attempts.plans(), gaps);
        assert_eq!(merged_json(merged, &config), batch_json(&config));

        // A second resume finds every range journaled and attempts nothing.
        let merged = coordinator
            .run(|plan| panic!("range {plan:?} was journaled and must not re-run"))
            .expect("the all-journal resume merges");
        assert_eq!(merged_json(merged, &config), batch_json(&config));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
