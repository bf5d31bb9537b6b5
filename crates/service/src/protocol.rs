//! The newline-delimited JSON protocol spoken by the campaign service
//! daemon.
//!
//! One JSON object per line, in both directions, over a unix or TCP socket.
//! Requests carry an `"op"` discriminator, responses a `"type"`
//! discriminator; unknown fields of a message are ignored so either side
//! can grow. A run `config` and a `day` message's `stats` are closed
//! records: an unknown or wrongly-typed key in them is a decode error
//! naming the key. The per-day payload of `day` messages is [`DayStats`]'s
//! [`ToJson`] form — the exact wire format of the checkpoint codec — so a
//! streamed campaign and a checkpoint file spell a day identically.
//!
//! The full message catalogue, with examples, lives in `PROTOCOL.md` at the
//! repository root.

use parasite::experiments::{DayStats, ExperimentId, RunConfig};
use parasite::json::{Json, ToJson};
use std::io::{self, BufRead, Read};
use std::path::PathBuf;

/// The machine-readable `code` values the daemon attaches to
/// [`Response::Error`]. Every error the daemon itself originates carries
/// one, so scripted clients can branch without parsing prose; the full
/// catalogue (with when each fires) lives in `PROTOCOL.md`.
pub mod codes {
    /// The request was malformed, referenced an unknown run, or failed
    /// validation.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The bounded submission queue is at its limit; retry after a worker
    /// drains it.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The run was cooperatively cancelled before it could finish.
    pub const CANCELLED: &str = "cancelled";
    /// The run failed or panicked inside the daemon.
    pub const INTERNAL: &str = "internal";
    /// The daemon is shutting down and no longer accepts work.
    pub const UNAVAILABLE: &str = "unavailable";
}

/// The longest request line the daemon or a `shard-worker` reads, newline
/// included: far above any legitimate request (a `submit` or `shard_submit`
/// line is well under 4 KiB), low enough that one client cannot grow the
/// reader's memory without bound. A longer line is answered with a
/// `bad_request` error and dropped; the connection stays usable.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One line delivered by [`LineReader::read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// A request line without its line terminator; never blank.
    Text(String),
    /// A line that cannot be a request — over [`MAX_LINE_BYTES`] or not
    /// UTF-8 — with the message of its `bad_request` reply. The reader has
    /// dropped (or will drop) the rest of the line.
    Rejected(String),
    /// The peer closed its end.
    Eof,
}

/// The capped request-line reader shared by the daemon's connections and
/// the `shard-worker` stdin loop: it never buffers more than
/// [`MAX_LINE_BYTES`], rejects an over-long line once and skips its tail,
/// rejects a non-UTF-8 line and skips blank ones, so hostile input always
/// gets a reply and never ends the session.
#[derive(Debug, Default)]
pub struct LineReader {
    line: Vec<u8>,
    /// Set while the rest of an over-long line is read and dropped.
    overlong: bool,
}

impl LineReader {
    /// Reads the next line from `reader`. A final line without a newline is
    /// delivered before [`Line::Eof`]. On an error — a read timeout, say —
    /// the bytes of a partial line stay buffered, so calling again resumes
    /// the same line.
    pub fn read(&mut self, reader: &mut impl BufRead) -> io::Result<Line> {
        loop {
            // Never buffer more than one capped line: a longer one stops at
            // the cap, still without its newline.
            let room = MAX_LINE_BYTES.saturating_sub(self.line.len()) as u64;
            let read = reader.by_ref().take(room).read_until(b'\n', &mut self.line)?;
            let complete = self.line.ends_with(b"\n");
            if !complete && self.line.len() >= MAX_LINE_BYTES {
                self.line.clear();
                if !self.overlong {
                    self.overlong = true;
                    return Ok(Line::Rejected(format!(
                        "request line exceeds the {MAX_LINE_BYTES}-byte limit"
                    )));
                }
                continue;
            }
            if read == 0 && self.line.is_empty() {
                return Ok(Line::Eof);
            }
            let bytes = std::mem::take(&mut self.line);
            if std::mem::take(&mut self.overlong) {
                // The tail of a line already rejected.
                continue;
            }
            let Ok(mut text) = String::from_utf8(bytes) else {
                return Ok(Line::Rejected("request line is not valid UTF-8".to_string()));
            };
            if text.trim().is_empty() {
                continue;
            }
            if text.ends_with('\n') {
                text.pop();
                if text.ends_with('\r') {
                    text.pop();
                }
            }
            return Ok(Line::Text(text));
        }
    }
}

/// A client-to-daemon request: one JSON object on one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit an experiment run. The daemon replies `accepted` with the run
    /// id, then (when `watch` is set) streams `day` messages and the final
    /// `done` on the same connection.
    Submit {
        /// Which registry experiment to run.
        experiment: ExperimentId,
        /// The full run configuration (serialised with the same
        /// omit-if-default codec the report JSON uses).
        config: Box<RunConfig>,
        /// Optional campaign checkpoint path *on the daemon's
        /// filesystem*: written after every completed day, resumed from when
        /// it already exists — the cancel/resubmit contract.
        checkpoint: Option<PathBuf>,
        /// Stream `day`/`done` messages on this connection after `accepted`.
        watch: bool,
    },
    /// Report all runs, or one run when `run` is given.
    Status {
        /// Restrict the report to this run id.
        run: Option<u64>,
    },
    /// Replay the day stream of a run from day one, then follow it live
    /// until the run finishes; ends with the `done` message.
    Watch {
        /// The run id to watch.
        run: u64,
    },
    /// Request cooperative cancellation: a campaign stops at the
    /// next day boundary, leaving its checkpoint resumable.
    Cancel {
        /// The run id to cancel.
        run: u64,
    },
    /// Cancel every run, drain the queue, and exit the daemon.
    Shutdown,
    /// Execute one campaign shard synchronously on this connection: the
    /// daemon runs APs `[first_ap, first_ap + aps)` of the `campaign_fleet`
    /// described by `config` (any `fleet_days` from 1) and replies with a single
    /// `shard_result` message carrying the partial-checkpoint document.
    /// Mergeable with sibling shards via the core checkpoint `merge()`.
    ShardSubmit {
        /// The full run configuration (its `fleet_jobs` is scheduling-only
        /// and never affects the outcome).
        config: Box<RunConfig>,
        /// First access point of the shard's contiguous AP range.
        first_ap: usize,
        /// Number of access points in the shard.
        aps: usize,
    },
}

impl Request {
    /// Serialises the request to its wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { experiment, config, checkpoint, watch } => {
                let mut pairs = vec![
                    ("op", "submit".to_json()),
                    ("experiment", experiment.as_str().to_json()),
                    ("config", config.to_json()),
                ];
                if let Some(path) = checkpoint {
                    pairs.push(("checkpoint", path.display().to_string().to_json()));
                }
                if *watch {
                    pairs.push(("watch", true.to_json()));
                }
                Json::obj(pairs)
            }
            Request::Status { run } => match run {
                Some(run) => Json::obj([("op", "status".to_json()), ("run", run.to_json())]),
                None => Json::obj([("op", "status".to_json())]),
            },
            Request::Watch { run } => {
                Json::obj([("op", "watch".to_json()), ("run", run.to_json())])
            }
            Request::Cancel { run } => {
                Json::obj([("op", "cancel".to_json()), ("run", run.to_json())])
            }
            Request::Shutdown => Json::obj([("op", "shutdown".to_json())]),
            Request::ShardSubmit { config, first_ap, aps } => Json::obj([
                ("op", "shard_submit".to_json()),
                ("config", config.to_json()),
                ("first_ap", (*first_ap as u64).to_json()),
                ("aps", (*aps as u64).to_json()),
            ]),
        }
    }

    /// Decodes a request from its wire object.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "request is missing the \"op\" field".to_string())?;
        let run_of = |json: &Json| {
            json.get("run")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{op:?} requires a numeric \"run\" field"))
        };
        let config_of = |json: &Json| match json.get("config") {
            Some(value) => RunConfig::from_json(value)
                .map(Box::new)
                .map_err(|error| format!("\"config\" is not a run configuration object: {error}")),
            None => Ok(Box::default()),
        };
        match op {
            "submit" => {
                let experiment = json
                    .get("experiment")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "submit requires an \"experiment\" id".to_string())?
                    .parse::<ExperimentId>()
                    .map_err(|error| error.to_string())?;
                let config = config_of(json)?;
                let checkpoint =
                    optional(json, "checkpoint", Json::as_str, "a path string")?.map(PathBuf::from);
                let watch = optional(json, "watch", Json::as_bool, "a boolean")?.unwrap_or(false);
                Ok(Request::Submit { experiment, config, checkpoint, watch })
            }
            "status" => {
                Ok(Request::Status { run: optional(json, "run", Json::as_u64, "a numeric run id")? })
            }
            "watch" => Ok(Request::Watch { run: run_of(json)? }),
            "cancel" => Ok(Request::Cancel { run: run_of(json)? }),
            "shutdown" => Ok(Request::Shutdown),
            "shard_submit" => {
                let config = config_of(json)?;
                let range_field = |key: &str| {
                    json.get(key)
                        .and_then(Json::as_int)
                        .ok_or_else(|| format!("shard_submit requires a numeric {key:?} field"))
                };
                Ok(Request::ShardSubmit {
                    config,
                    first_ap: range_field("first_ap")?,
                    aps: range_field("aps")?,
                })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Parses one wire line into a request.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let json = Json::parse(line)
            .map_err(|error| format!("request line is not valid JSON: {error}"))?;
        Request::from_json(&json)
    }
}

/// An optional message field: absent is `None`; present but not what `get`
/// reads is an error naming the field and the `expected` type, never a
/// silent default.
fn optional<'a, T>(
    json: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, String> {
    json.get(key)
        .map(|value| get(value).ok_or_else(|| format!("{key:?} must be {expected}")))
        .transpose()
}

/// Where a run currently sits in the daemon's scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunState {
    /// Accepted, waiting for a worker.
    #[default]
    Queued,
    /// Executing on a worker thread.
    Running,
    /// Finished — see the run's [`RunOutcome`].
    Done,
}

impl RunState {
    /// The wire name of the state.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Done => "done",
        }
    }

    fn from_str(text: &str) -> Result<RunState, String> {
        match text {
            "queued" => Ok(RunState::Queued),
            "running" => Ok(RunState::Running),
            "done" => Ok(RunState::Done),
            other => Err(format!("unknown run state {other:?}")),
        }
    }
}

/// How a finished run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The run completed; `artifact` is the full artifact JSON — identical
    /// bytes to the corresponding entry of a batch `paper-report --json`.
    Ok {
        /// The artifact document.
        artifact: Json,
    },
    /// The run was cancelled at a day boundary; `days_completed` days are
    /// durable in the checkpoint (when one was configured).
    Cancelled {
        /// Completed (and checkpointed) days at the stop.
        days_completed: u32,
    },
    /// The run failed with the rendered [`ExperimentError`] message.
    ///
    /// [`ExperimentError`]: parasite::experiments::ExperimentError
    Failed {
        /// The error message.
        message: String,
    },
}

impl RunOutcome {
    /// The wire discriminator: `"ok"`, `"cancelled"` or `"failed"`.
    pub fn kind(&self) -> &'static str {
        match self {
            RunOutcome::Ok { .. } => "ok",
            RunOutcome::Cancelled { .. } => "cancelled",
            RunOutcome::Failed { .. } => "failed",
        }
    }

    /// Serialises the outcome object carried by `done` messages.
    pub fn to_json(&self) -> Json {
        match self {
            RunOutcome::Ok { artifact } => {
                Json::obj([("result", "ok".to_json()), ("artifact", artifact.clone())])
            }
            RunOutcome::Cancelled { days_completed } => Json::obj([
                ("result", "cancelled".to_json()),
                ("days_completed", days_completed.to_json()),
            ]),
            RunOutcome::Failed { message } => {
                Json::obj([("result", "failed".to_json()), ("message", message.to_json())])
            }
        }
    }

    /// Decodes an outcome object.
    pub fn from_json(json: &Json) -> Result<RunOutcome, String> {
        match json.get("result").and_then(Json::as_str) {
            Some("ok") => Ok(RunOutcome::Ok {
                artifact: json
                    .get("artifact")
                    .cloned()
                    .ok_or_else(|| "ok outcome is missing \"artifact\"".to_string())?,
            }),
            Some("cancelled") => Ok(RunOutcome::Cancelled {
                days_completed: json
                    .get("days_completed")
                    .and_then(Json::as_int)
                    .ok_or_else(|| "cancelled outcome is missing \"days_completed\"".to_string())?,
            }),
            Some("failed") => Ok(RunOutcome::Failed {
                message: json
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "failed outcome is missing \"message\"".to_string())?
                    .to_string(),
            }),
            _ => Err("outcome is missing a valid \"result\" field".to_string()),
        }
    }
}

/// One run's row in a `status` response.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStatus {
    /// The run id.
    pub run: u64,
    /// The experiment the run executes.
    pub experiment: ExperimentId,
    /// Scheduler state.
    pub state: RunState,
    /// Campaign days completed (and streamed) so far.
    pub days: u32,
    /// How the run ended, when `state` is `done`.
    pub outcome: Option<String>,
}

impl RunStatus {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("run", self.run.to_json()),
            ("experiment", self.experiment.as_str().to_json()),
            ("state", self.state.as_str().to_json()),
            ("days", self.days.to_json()),
        ];
        if let Some(outcome) = &self.outcome {
            pairs.push(("outcome", outcome.to_json()));
        }
        Json::obj(pairs)
    }

    fn from_json(json: &Json) -> Result<RunStatus, String> {
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("status row is missing {key:?}"))
        };
        Ok(RunStatus {
            run: field("run")?,
            experiment: json
                .get("experiment")
                .and_then(Json::as_str)
                .ok_or_else(|| "status row is missing \"experiment\"".to_string())?
                .parse::<ExperimentId>()
                .map_err(|error| error.to_string())?,
            state: RunState::from_str(
                json.get("state")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "status row is missing \"state\"".to_string())?,
            )?,
            days: json
                .get("days")
                .and_then(Json::as_int)
                .ok_or_else(|| "status row is missing \"days\"".to_string())?,
            outcome: optional(json, "outcome", Json::as_str, "a string")?.map(str::to_string),
        })
    }
}

/// A daemon-to-client response: one JSON object on one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A submission was accepted and queued under `run`.
    Accepted {
        /// The assigned run id.
        run: u64,
        /// The experiment the run will execute.
        experiment: ExperimentId,
    },
    /// One completed campaign day of a watched run.
    Day {
        /// The run the day belongs to.
        run: u64,
        /// The day's statistics (the checkpoint codec's wire form).
        stats: DayStats,
    },
    /// The scheduler table.
    Status {
        /// One row per known run.
        runs: Vec<RunStatus>,
    },
    /// Cancellation was requested; the run stops at its next day boundary
    /// and its watchers receive a `cancelled` outcome.
    Cancelling {
        /// The run being cancelled.
        run: u64,
    },
    /// A watched run finished.
    Done {
        /// The finished run.
        run: u64,
        /// How it ended.
        outcome: RunOutcome,
    },
    /// The daemon is cancelling `active_runs` unfinished runs and exiting.
    ShuttingDown {
        /// Runs that were still queued or running.
        active_runs: u64,
    },
    /// The finished shard of a `shard_submit` request.
    ShardResult {
        /// The run id the shard executed under.
        run: u64,
        /// The partial-checkpoint document for the shard — the same wire
        /// form `--fleet-checkpoint` files and the `distribute` coordinator
        /// use, mergeable with sibling shards.
        outcome: Json,
    },
    /// The request could not be served.
    Error {
        /// What went wrong.
        message: String,
        /// Optional machine-readable error code (e.g. `"queue_full"`);
        /// omitted from the wire form when absent.
        code: Option<String>,
    },
}

impl Response {
    /// Serialises the response to its wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Accepted { run, experiment } => Json::obj([
                ("type", "accepted".to_json()),
                ("run", run.to_json()),
                ("experiment", experiment.as_str().to_json()),
            ]),
            Response::Day { run, stats } => Json::obj([
                ("type", "day".to_json()),
                ("run", run.to_json()),
                ("stats", stats.to_json()),
            ]),
            Response::Status { runs } => Json::obj([
                ("type", "status".to_json()),
                ("runs", Json::Arr(runs.iter().map(RunStatus::to_json).collect())),
            ]),
            Response::Cancelling { run } => {
                Json::obj([("type", "cancelling".to_json()), ("run", run.to_json())])
            }
            Response::Done { run, outcome } => Json::obj([
                ("type", "done".to_json()),
                ("run", run.to_json()),
                ("outcome", outcome.to_json()),
            ]),
            Response::ShuttingDown { active_runs } => Json::obj([
                ("type", "shutting_down".to_json()),
                ("active_runs", active_runs.to_json()),
            ]),
            Response::ShardResult { run, outcome } => Json::obj([
                ("type", "shard_result".to_json()),
                ("run", run.to_json()),
                ("outcome", outcome.clone()),
            ]),
            Response::Error { message, code } => {
                let mut pairs =
                    vec![("type", "error".to_json()), ("message", message.to_json())];
                if let Some(code) = code {
                    pairs.push(("code", code.to_json()));
                }
                Json::obj(pairs)
            }
        }
    }

    /// Decodes a response from its wire object.
    pub fn from_json(json: &Json) -> Result<Response, String> {
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "response is missing the \"type\" field".to_string())?;
        let run_of = |json: &Json| {
            json.get("run")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind:?} response is missing \"run\""))
        };
        match kind {
            "accepted" => Ok(Response::Accepted {
                run: run_of(json)?,
                experiment: json
                    .get("experiment")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "accepted response is missing \"experiment\"".to_string())?
                    .parse::<ExperimentId>()
                    .map_err(|error| error.to_string())?,
            }),
            "day" => Ok(Response::Day {
                run: run_of(json)?,
                stats: DayStats::from_json(
                    json.get("stats")
                        .ok_or_else(|| "day response is missing \"stats\"".to_string())?,
                )
                .map_err(|error| format!("day response \"stats\": {error}"))?,
            }),
            "status" => Ok(Response::Status {
                runs: json
                    .get("runs")
                    .and_then(Json::as_array)
                    .ok_or_else(|| "status response is missing \"runs\"".to_string())?
                    .iter()
                    .map(RunStatus::from_json)
                    .collect::<Result<Vec<RunStatus>, String>>()?,
            }),
            "cancelling" => Ok(Response::Cancelling { run: run_of(json)? }),
            "done" => Ok(Response::Done {
                run: run_of(json)?,
                outcome: RunOutcome::from_json(
                    json.get("outcome")
                        .ok_or_else(|| "done response is missing \"outcome\"".to_string())?,
                )?,
            }),
            "shutting_down" => Ok(Response::ShuttingDown {
                active_runs: optional(json, "active_runs", Json::as_u64, "a run count")?
                    .unwrap_or(0),
            }),
            "shard_result" => Ok(Response::ShardResult {
                run: run_of(json)?,
                outcome: json
                    .get("outcome")
                    .cloned()
                    .ok_or_else(|| "shard_result response is missing \"outcome\"".to_string())?,
            }),
            "error" => Ok(Response::Error {
                message: optional(json, "message", Json::as_str, "a string")?
                    .unwrap_or("unspecified error")
                    .to_string(),
                code: optional(json, "code", Json::as_str, "a string")?.map(str::to_string),
            }),
            other => Err(format!("unknown response type {other:?}")),
        }
    }

    /// Parses one wire line into a response.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let json = Json::parse(line)
            .map_err(|error| format!("response line is not valid JSON: {error}"))?;
        Response::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let submissions = [
            Request::Submit {
                experiment: ExperimentId::CampaignFleet,
                config: Box::new(RunConfig {
                    seed: 9,
                    fleet_clients: 500,
                    fleet_days: 3,
                    fleet_churn: 0.25,
                    ..RunConfig::default()
                }),
                checkpoint: Some(PathBuf::from("/tmp/run.ckpt.json")),
                watch: true,
            },
            Request::Submit {
                experiment: ExperimentId::Fig4,
                config: Box::new(RunConfig::default()),
                checkpoint: None,
                watch: false,
            },
            Request::Status { run: None },
            Request::Status { run: Some(7) },
            Request::Watch { run: 1 },
            Request::Cancel { run: 2 },
            Request::Shutdown,
            Request::ShardSubmit {
                config: Box::new(RunConfig {
                    seed: 11,
                    fleet_clients: 4_000,
                    fleet_aps: 16,
                    fleet_days: 4,
                    fleet_churn: 0.2,
                    ..RunConfig::default()
                }),
                first_ap: 4,
                aps: 8,
            },
        ];
        for request in submissions {
            let line = request.to_json().to_string();
            assert!(!line.contains('\n'), "wire form must be one line: {line}");
            assert_eq!(Request::parse_line(&line), Ok(request));
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        let day = DayStats {
            day: 2,
            departures: 3,
            arrivals: 3,
            cache_clears: 1,
            object_rotated: true,
            rotation_cured: 4,
            exposed: 120,
            newly_infected: 88,
            failed_aps: 0,
            infected: 90,
            clean: 310,
            events: 123_456,
        };
        let responses = [
            Response::Accepted { run: 1, experiment: ExperimentId::CampaignFleet },
            Response::Day { run: 1, stats: day },
            Response::Status {
                runs: vec![
                    RunStatus {
                        run: 1,
                        experiment: ExperimentId::CampaignFleet,
                        state: RunState::Running,
                        days: 2,
                        outcome: None,
                    },
                    RunStatus {
                        run: 2,
                        experiment: ExperimentId::AttackSurface,
                        state: RunState::Done,
                        days: 0,
                        outcome: Some("ok".to_string()),
                    },
                ],
            },
            Response::Cancelling { run: 3 },
            Response::Done {
                run: 1,
                outcome: RunOutcome::Cancelled { days_completed: 2 },
            },
            Response::Done {
                run: 2,
                outcome: RunOutcome::Ok {
                    artifact: Json::obj([("id", "campaign_fleet".to_json())]),
                },
            },
            Response::Done {
                run: 4,
                outcome: RunOutcome::Failed { message: "event budget exhausted".to_string() },
            },
            Response::ShuttingDown { active_runs: 2 },
            Response::ShardResult {
                run: 5,
                outcome: Json::obj([
                    ("kind", "mp-campaign-checkpoint".to_json()),
                    ("completed_days", 3u64.to_json()),
                ]),
            },
            Response::Error { message: "unknown run 99".to_string(), code: None },
            Response::Error {
                message: "submission queue is full (limit 4)".to_string(),
                code: Some("queue_full".to_string()),
            },
        ];
        for response in responses {
            let line = response.to_json().to_string();
            assert!(!line.contains('\n'), "wire form must be one line: {line}");
            assert_eq!(Response::parse_line(&line), Ok(response));
        }
    }

    #[test]
    fn malformed_wire_lines_are_rejected_with_pointed_messages() {
        assert!(Request::parse_line("not json").unwrap_err().contains("not valid JSON"));
        // A number JSON does not allow, or one too large for an f64, is no
        // silent infinity.
        assert!(Request::parse_line("{\"op\": \"status\", \"run\": 1e400}")
            .unwrap_err()
            .contains("out of range"));
        assert!(Request::parse_line("{}").unwrap_err().contains("\"op\""));
        assert!(Request::parse_line("{\"op\": \"fly\"}").unwrap_err().contains("unknown op"));
        assert!(Request::parse_line("{\"op\": \"cancel\"}").unwrap_err().contains("\"run\""));
        assert!(Request::parse_line("{\"op\": \"submit\"}")
            .unwrap_err()
            .contains("experiment"));
        assert!(Request::parse_line(
            "{\"op\": \"submit\", \"experiment\": \"table99\"}"
        )
        .is_err());
        assert!(Request::parse_line("{\"op\": \"shard_submit\"}")
            .unwrap_err()
            .contains("first_ap"));
        assert!(Request::parse_line("{\"op\": \"shard_submit\", \"first_ap\": 0}")
            .unwrap_err()
            .contains("aps"));
        // A present optional field of the wrong type is no silent default.
        assert_eq!(
            Request::parse_line("{\"op\": \"status\", \"run\": \"7\"}"),
            Err("\"run\" must be a numeric run id".to_string())
        );
        assert_eq!(
            Request::parse_line(
                "{\"op\": \"submit\", \"experiment\": \"table3\", \"watch\": \"yes\"}"
            ),
            Err("\"watch\" must be a boolean".to_string())
        );
        assert_eq!(
            Response::parse_line("{\"type\":\"shutting_down\",\"active_runs\":\"3\"}"),
            Err("\"active_runs\" must be a run count".to_string())
        );
        assert_eq!(
            Response::parse_line("{\"type\":\"error\",\"message\":7,\"code\":5}"),
            Err("\"message\" must be a string".to_string())
        );
        assert_eq!(
            Response::parse_line("{\"type\":\"error\",\"message\":\"boom\",\"code\":5}"),
            Err("\"code\" must be a string".to_string())
        );
        assert_eq!(
            Response::parse_line(
                "{\"type\":\"status\",\"runs\":[{\"run\":1,\"experiment\":\"fig1\",\
                 \"state\":\"done\",\"days\":0,\"outcome\":7}]}"
            ),
            Err("\"outcome\" must be a string".to_string())
        );
        // A day's stats are a closed record: a bad key is named.
        let stats = DayStats::default().to_json().to_string();
        assert_eq!(
            Response::parse_line(&format!(
                "{{\"type\":\"day\",\"run\":1,\"stats\":{}}}",
                stats.replacen("\"clean\"", "\"clear\"", 1)
            )),
            Err("day response \"stats\": unknown key \"clear\"".to_string())
        );
        // Absent fields keep their defaults.
        assert_eq!(
            Response::parse_line("{\"type\":\"shutting_down\"}"),
            Ok(Response::ShuttingDown { active_runs: 0 })
        );
        assert_eq!(
            Response::parse_line("{\"type\":\"error\"}"),
            Ok(Response::Error { message: "unspecified error".to_string(), code: None })
        );
        assert!(Response::parse_line("{\"type\": \"shard_result\", \"run\": 1}")
            .unwrap_err()
            .contains("outcome"));
        assert!(Response::parse_line("{\"type\": \"warp\"}")
            .unwrap_err()
            .contains("unknown response type"));
        assert!(Response::parse_line("{}").unwrap_err().contains("\"type\""));
    }

    #[test]
    fn error_codes_are_optional_on_the_wire() {
        let bare = Response::Error { message: "boom".to_string(), code: None };
        let line = bare.to_json().to_string();
        assert!(!line.contains("\"code\""), "codeless errors omit the field: {line}");
        let coded = Response::Error {
            message: "submission queue is full (limit 1)".to_string(),
            code: Some("queue_full".to_string()),
        };
        assert!(coded.to_json().to_string().contains("\"code\":\"queue_full\""));
        // Legacy daemons that never send a code still decode cleanly.
        assert_eq!(
            Response::parse_line("{\"type\": \"error\", \"message\": \"old\"}"),
            Ok(Response::Error { message: "old".to_string(), code: None })
        );
        // Every catalogued code survives the wire round trip verbatim.
        for code in [
            codes::BAD_REQUEST,
            codes::QUEUE_FULL,
            codes::CANCELLED,
            codes::INTERNAL,
            codes::UNAVAILABLE,
        ] {
            let error = Response::Error {
                message: format!("an error coded {code}"),
                code: Some(code.to_string()),
            };
            let line = error.to_json().to_string();
            assert!(line.contains(&format!("\"code\":\"{code}\"")), "got: {line}");
            assert_eq!(Response::parse_line(&line), Ok(error));
        }
    }

    #[test]
    fn submit_defaults_apply_when_fields_are_absent() {
        let request = Request::parse_line(
            "{\"op\": \"submit\", \"experiment\": \"campaign_fleet\"}",
        )
        .expect("valid submit");
        match request {
            Request::Submit { experiment, config, checkpoint, watch } => {
                assert_eq!(experiment, ExperimentId::CampaignFleet);
                assert_eq!(*config, RunConfig::default());
                assert_eq!(checkpoint, None);
                assert!(!watch);
            }
            other => panic!("expected a submit, got {other:?}"),
        }
    }

    /// A reader replaying scripted chunks and errors, then EOF.
    struct Script(std::collections::VecDeque<io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(error)) => Err(error),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn the_line_reader_rejects_hostile_lines_and_resumes_after_a_timeout() {
        let mut long = vec![b'x'; MAX_LINE_BYTES + 10];
        long.push(b'\n');
        let mut input = std::io::BufReader::new(Script(
            [
                Ok(long),
                Ok(b"\xff\xfe\n".to_vec()),
                Ok(b"{\"op\"".to_vec()),
                Err(io::Error::from(io::ErrorKind::TimedOut)),
                Ok(b":\"status\"}\r\n \ntail".to_vec()),
            ]
            .into(),
        ));
        let mut lines = LineReader::default();
        let mut next = || lines.read(&mut input).map_err(|error| error.kind());
        let limit = format!("request line exceeds the {MAX_LINE_BYTES}-byte limit");
        assert_eq!(next(), Ok(Line::Rejected(limit)));
        assert_eq!(next(), Ok(Line::Rejected("request line is not valid UTF-8".into())));
        assert_eq!(next(), Err(io::ErrorKind::TimedOut));
        assert_eq!(next(), Ok(Line::Text("{\"op\":\"status\"}".into())));
        assert_eq!(next(), Ok(Line::Text("tail".into())));
        assert_eq!(next(), Ok(Line::Eof));
    }
}
