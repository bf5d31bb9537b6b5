//! The newline-delimited JSON protocol spoken by the campaign service
//! daemon.
//!
//! One JSON object per line, in both directions, over a unix or TCP socket.
//! Requests carry an `"op"` discriminator, responses a `"type"`
//! discriminator. Every message is declared once, in the `messages!` table
//! below, which writes its type and its codec. Every message, and every
//! record nested in one (a run `config`, a `day` message's `stats`, a
//! `status` row, a `done` outcome), is closed: a missing, wrongly-typed or
//! unknown key is a decode error naming the key. The per-day payload of
//! `day` messages is [`DayStats`]'s [`ToJson`] form — the exact wire format
//! of the checkpoint codec — so a streamed campaign and a checkpoint file
//! spell a day identically.
//!
//! The full message catalogue, with examples, lives in `PROTOCOL.md` at the
//! repository root.

use parasite::experiments::{DayStats, ExperimentId, RunConfig};
use parasite::json::{closed, decode, FromJson, Json, ToJson, Unfit};
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

/// Writes each wire message declared in the table below: the type, a
/// `to_json` that writes its fields in row order, and a `from_json` that
/// reads the discriminator, rejects a key no field of the variant names,
/// and decodes every field through [`decode`], so a missing or
/// wrongly-typed key is an error naming it.
///
/// An enum names its discriminator key, the noun an unknown discriminator
/// value is reported as, and each variant's wire name. A type declared
/// `as "<what>"` can be another message's field: a bad value of it there
/// reads `"<key>" is not <what>: <reason>`. Each field has one rule:
/// - `required`: always written; absent is an error;
/// - `default(<value>)`: always written; absent reads as `<value>`;
/// - `omit`: written unless it holds its type's default (`None`, `false`);
///   absent reads as that default.
macro_rules! messages {
    (@pair $key:ident, omit) => {
        (!is_default($key)).then(|| (stringify!($key), $key.to_json()))
    };
    (@pair $key:ident, $rule:ident $(($default:expr))?) => {
        Some((stringify!($key), $key.to_json()))
    };
    (@get $json:ident, $key:ident, required) => {
        decode($json, stringify!($key), None)?
    };
    (@get $json:ident, $key:ident, default($default:expr)) => {
        decode($json, stringify!($key), Some($default))?
    };
    (@get $json:ident, $key:ident, omit) => {
        decode($json, stringify!($key), Some(Default::default()))?
    };
    (@rule $type:ty, required) => {
        Rule::Required
    };
    (@rule $type:ty, default($default:expr)) => {
        Rule::Default({
            let value: $type = $default;
            value.to_json()
        })
    };
    (@rule $type:ty, omit) => {
        Rule::Omit
    };
    (@nested $name:ident $(as $what:literal)?) => {$(
        impl ToJson for $name {
            fn to_json(&self) -> Json {
                $name::to_json(self)
            }
        }

        impl FromJson for $name {
            fn from_json(json: &Json) -> Result<$name, Unfit> {
                $name::from_json(json).map_err(|why| Unfit::not($what, why))
            }
        }
    )?};
    () => {};
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident by $tag:literal, unknown $noun:literal $(, as $what:literal)? {$(
            $(#[$variant_meta:meta])*
            $variant:ident = $wire:literal $({$(
                $(#[$field_meta:meta])*
                $field:ident: $type:ty, $rule:ident $(($default:expr))?;
            )*})?,
        )*}
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis enum $name {$(
            $(#[$variant_meta])*
            $variant $({$($(#[$field_meta])* $field: $type,)*})?,
        )*}

        impl $name {
            /// The variant's wire name: the value of its discriminator key.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $wire,)*
                }
            }

            /// Serialises the message to its wire object.
            pub fn to_json(&self) -> Json {
                let tag = Some(($tag, self.kind().to_json()));
                match self {
                    $($name::$variant { $($($field,)*)? } => object([tag, $($(
                        messages!(@pair $field, $rule $(($default))?),
                    )*)?]),)*
                }
            }

            /// Decodes a message from its wire object.
            pub fn from_json(json: &Json) -> Result<$name, String> {
                let kind: String = decode(json, $tag, None)?;
                match kind.as_str() {
                    $($wire => {
                        closed(json, |key| key == $tag $($(|| key == stringify!($field))*)?)?;
                        Ok($name::$variant $({$(
                            $field: messages!(@get json, $field, $rule $(($default))?),
                        )*})?)
                    })*
                    other => Err(format!(concat!("unknown ", $noun, " {:?}"), other)),
                }
            }

            /// The discriminator key, and each variant's wire name with its
            /// fields' keys and rules in row order.
            #[cfg(test)]
            fn rows() -> (&'static str, Vec<(&'static str, Vec<(&'static str, Rule)>)>) {
                ($tag, vec![$(($wire, vec![$($(
                    (stringify!($field), messages!(@rule $type, $rule $(($default))?)),
                )*)?]),)*])
            }
        }

        messages!(@nested $name $(as $what)?);
        messages! { $($rest)* }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident as $what:literal {$(
            $(#[$field_meta:meta])*
            $field_vis:vis $field:ident: $type:ty, $rule:ident $(($default:expr))?;
        )*}
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis struct $name {$(
            $(#[$field_meta])*
            $field_vis $field: $type,
        )*}

        impl $name {
            /// Serialises the record to its wire object.
            pub fn to_json(&self) -> Json {
                let $name { $($field),* } = self;
                object([$(messages!(@pair $field, $rule $(($default))?)),*])
            }

            /// Decodes a record from its wire object.
            pub fn from_json(json: &Json) -> Result<$name, String> {
                closed(json, |key| [$(stringify!($field)),*].contains(&key))?;
                Ok($name {$(
                    $field: messages!(@get json, $field, $rule $(($default))?),
                )*})
            }

            /// The record's fields' keys and rules in row order.
            #[cfg(test)]
            fn rows() -> Vec<(&'static str, Rule)> {
                vec![$((stringify!($field), messages!(@rule $type, $rule $(($default))?)),)*]
            }
        }

        messages!(@nested $name as $what);
        messages! { $($rest)* }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident as $what:literal, names {$(
            $(#[$variant_meta:meta])*
            $variant:ident = $wire:literal,
        )*}
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis enum $name {$(
            $(#[$variant_meta])*
            $variant,
        )*}

        impl $name {
            /// The value's wire name.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $($name::$variant => $wire,)*
                }
            }
        }

        impl ToJson for $name {
            fn to_json(&self) -> Json {
                self.as_str().to_json()
            }
        }

        impl FromJson for $name {
            fn from_json(json: &Json) -> Result<$name, Unfit> {
                match json.as_str().ok_or(Unfit::Type)? {
                    $($wire => Ok($name::$variant),)*
                    other => Err(Unfit::not($what, format!("unknown name {other:?}"))),
                }
            }
        }

        messages! { $($rest)* }
    };
}

/// A field's rule in the table, as the round-trip test reads it.
#[cfg(test)]
#[derive(Debug)]
enum Rule {
    Required,
    /// The wire form of the value an absent key reads as.
    Default(Json),
    Omit,
}

/// The wire object of the pairs that are present, allocated at its exact
/// size: a `status` reply holds one object per run the daemon knows.
fn object<const N: usize>(pairs: [Option<(&'static str, Json)>; N]) -> Json {
    let mut object = Vec::with_capacity(pairs.iter().flatten().count());
    object.extend(pairs.into_iter().flatten().map(|(key, value)| (key.to_string(), value)));
    Json::Obj(object)
}

/// Whether an `omit` field holds its type's default, which the wire form
/// leaves out.
fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

messages! {
    /// A client-to-daemon request: one JSON object on one line.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request by "op", unknown "op" {
        /// Submit an experiment run. The daemon replies `accepted` with the run
        /// id, then (when `watch` is set) streams `day` messages and the final
        /// `done` on the same connection.
        Submit = "submit" {
            /// Which registry experiment to run.
            experiment: ExperimentId, required;
            /// The full run configuration (serialised with the same
            /// omit-if-default codec the report JSON uses).
            config: Box<RunConfig>, default(Box::default());
            /// Optional campaign checkpoint path *on the daemon's
            /// filesystem*: written after every completed day, resumed from when
            /// it already exists — the cancel/resubmit contract.
            checkpoint: Option<PathBuf>, omit;
            /// Stream `day`/`done` messages on this connection after `accepted`.
            watch: bool, omit;
        },
        /// Report all runs, or one run when `run` is given.
        Status = "status" {
            /// Restrict the report to this run id.
            run: Option<u64>, omit;
        },
        /// Replay the day stream of a run from day one, then follow it live
        /// until the run finishes; ends with the `done` message.
        Watch = "watch" {
            /// The run id to watch.
            run: u64, required;
        },
        /// Request cooperative cancellation: a campaign stops at the
        /// next day boundary, leaving its checkpoint resumable.
        Cancel = "cancel" {
            /// The run id to cancel.
            run: u64, required;
        },
        /// Cancel every run, drain the queue, and exit the daemon.
        Shutdown = "shutdown",
        /// Execute one campaign shard synchronously on this connection: the
        /// daemon runs APs `[first_ap, first_ap + aps)` of the `campaign_fleet`
        /// described by `config` (any `fleet_days` from 1) and replies with a single
        /// `shard_result` message carrying the partial-checkpoint document.
        /// Mergeable with sibling shards via the core checkpoint `merge()`.
        ShardSubmit = "shard_submit" {
            /// The full run configuration (its `fleet_jobs` is scheduling-only
            /// and never affects the outcome).
            config: Box<RunConfig>, default(Box::default());
            /// First access point of the shard's contiguous AP range.
            first_ap: usize, required;
            /// Number of access points in the shard.
            aps: usize, required;
        },
    }

    /// Where a run currently sits in the daemon's scheduler.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum RunState as "a run state", names {
        /// Accepted, waiting for a worker.
        #[default]
        Queued = "queued",
        /// Executing on a worker thread.
        Running = "running",
        /// Finished — see the run's [`RunOutcome`].
        Done = "done",
    }

    /// How a finished run ended.
    #[derive(Debug, Clone, PartialEq)]
    pub enum RunOutcome by "result", unknown "run outcome", as "a run outcome" {
        /// The run completed; `artifact` is the full artifact JSON — identical
        /// bytes to the corresponding entry of a batch `paper-report --json`.
        Ok = "ok" {
            /// The artifact document.
            artifact: Json, required;
        },
        /// The run was cancelled at a day boundary; `days_completed` days are
        /// durable in the checkpoint (when one was configured).
        Cancelled = "cancelled" {
            /// Completed (and checkpointed) days at the stop.
            days_completed: u32, required;
        },
        /// The run failed with the rendered [`ExperimentError`] message.
        ///
        /// [`ExperimentError`]: parasite::experiments::ExperimentError
        Failed = "failed" {
            /// The error message.
            message: String, required;
        },
    }

    /// One run's row in a `status` response.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RunStatus as "a status row" {
        /// The run id.
        pub run: u64, required;
        /// The experiment the run executes.
        pub experiment: ExperimentId, required;
        /// Scheduler state.
        pub state: RunState, required;
        /// Campaign days completed (and streamed) so far.
        pub days: u32, required;
        /// How the run ended, when `state` is `done`.
        pub outcome: Option<String>, omit;
    }

    /// A daemon-to-client response: one JSON object on one line.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response by "type", unknown "response type" {
        /// A submission was accepted and queued under `run`.
        Accepted = "accepted" {
            /// The assigned run id.
            run: u64, required;
            /// The experiment the run will execute.
            experiment: ExperimentId, required;
        },
        /// One completed campaign day of a watched run.
        Day = "day" {
            /// The run the day belongs to.
            run: u64, required;
            /// The day's statistics (the checkpoint codec's wire form).
            stats: DayStats, required;
        },
        /// The scheduler table.
        Status = "status" {
            /// One row per known run.
            runs: Vec<RunStatus>, required;
        },
        /// Cancellation was requested; the run stops at its next day boundary
        /// and its watchers receive a `cancelled` outcome.
        Cancelling = "cancelling" {
            /// The run being cancelled.
            run: u64, required;
        },
        /// A watched run finished.
        Done = "done" {
            /// The finished run.
            run: u64, required;
            /// How it ended.
            outcome: RunOutcome, required;
        },
        /// The daemon is cancelling `active_runs` unfinished runs and exiting.
        ShuttingDown = "shutting_down" {
            /// Runs that were still queued or running.
            active_runs: u64, default(0);
        },
        /// The finished shard of a `shard_submit` request.
        ShardResult = "shard_result" {
            /// The run id the shard executed under.
            run: u64, required;
            /// The partial-checkpoint document for the shard — the same wire
            /// form `--fleet-checkpoint` files and the `distribute` coordinator
            /// use, mergeable with sibling shards.
            outcome: Json, required;
        },
        /// The request could not be served.
        Error = "error" {
            /// What went wrong.
            message: String, default("unspecified error".to_string());
            /// Optional machine-readable error code (e.g. `"queue_full"`);
            /// omitted from the wire form when absent.
            code: Option<String>, omit;
        },
    }
}

impl Request {
    /// Parses one wire line into a request.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let json = Json::parse(line)
            .map_err(|error| format!("request line is not valid JSON: {error}"))?;
        Request::from_json(&json)
    }
}

impl Response {
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

    /// One request of every op, each optional field set in one of them.
    fn requests() -> Vec<Request> {
        vec![
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
        ]
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        for request in requests() {
            let line = request.to_json().to_string();
            assert!(!line.contains('\n'), "wire form must be one line: {line}");
            assert_eq!(Request::parse_line(&line), Ok(request));
        }
    }

    /// One response of every type, each optional field set in one of them.
    fn responses() -> Vec<Response> {
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
        vec![
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
            Response::ShuttingDown { active_runs: 0 },
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
        ]
    }

    #[test]
    fn responses_round_trip_through_the_wire_form() {
        for response in responses() {
            let line = response.to_json().to_string();
            assert!(!line.contains('\n'), "wire form must be one line: {line}");
            assert_eq!(Response::parse_line(&line), Ok(response));
        }
    }

    /// The exact line of every sample: key order, and which fields an
    /// encoder writes when they hold their defaults (`watch` only when set,
    /// `checkpoint`, `run` and `code` only when present, `active_runs`
    /// always).
    #[test]
    fn every_message_keeps_its_wire_bytes() {
        let request_lines = [
            r#"{"op":"submit","experiment":"campaign_fleet","config":{"seed":9,"scale":1000,"sites":15000,"crawl_sites":3000,"days":100,"event_budget":5000000,"jitter_us":0,"fleet_clients":500,"fleet_aps":128,"fleet_jobs":0,"fleet_days":3,"fleet_churn":0.25},"checkpoint":"/tmp/run.ckpt.json","watch":true}"#,
            r#"{"op":"submit","experiment":"fig4","config":{"seed":2021,"scale":1000,"sites":15000,"crawl_sites":3000,"days":100,"event_budget":5000000,"jitter_us":0,"fleet_clients":100000,"fleet_aps":128,"fleet_jobs":0}}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"status","run":7}"#,
            r#"{"op":"watch","run":1}"#,
            r#"{"op":"cancel","run":2}"#,
            r#"{"op":"shutdown"}"#,
            r#"{"op":"shard_submit","config":{"seed":11,"scale":1000,"sites":15000,"crawl_sites":3000,"days":100,"event_budget":5000000,"jitter_us":0,"fleet_clients":4000,"fleet_aps":16,"fleet_jobs":0,"fleet_days":4,"fleet_churn":0.2},"first_ap":4,"aps":8}"#,
        ];
        let response_lines = [
            r#"{"type":"accepted","run":1,"experiment":"campaign_fleet"}"#,
            r#"{"type":"day","run":1,"stats":{"day":2,"departures":3,"arrivals":3,"cache_clears":1,"object_rotated":true,"rotation_cured":4,"exposed":120,"newly_infected":88,"failed_aps":0,"infected":90,"clean":310,"events":123456}}"#,
            r#"{"type":"status","runs":[{"run":1,"experiment":"campaign_fleet","state":"running","days":2},{"run":2,"experiment":"attack_surface","state":"done","days":0,"outcome":"ok"}]}"#,
            r#"{"type":"cancelling","run":3}"#,
            r#"{"type":"done","run":1,"outcome":{"result":"cancelled","days_completed":2}}"#,
            r#"{"type":"done","run":2,"outcome":{"result":"ok","artifact":{"id":"campaign_fleet"}}}"#,
            r#"{"type":"done","run":4,"outcome":{"result":"failed","message":"event budget exhausted"}}"#,
            r#"{"type":"shutting_down","active_runs":2}"#,
            r#"{"type":"shutting_down","active_runs":0}"#,
            r#"{"type":"shard_result","run":5,"outcome":{"kind":"mp-campaign-checkpoint","completed_days":3}}"#,
            r#"{"type":"error","message":"unknown run 99"}"#,
            r#"{"type":"error","message":"submission queue is full (limit 4)","code":"queue_full"}"#,
        ];
        assert_eq!(requests().len(), request_lines.len());
        for (request, line) in requests().iter().zip(request_lines) {
            assert_eq!(request.to_json().to_string(), line);
        }
        assert_eq!(responses().len(), response_lines.len());
        for (response, line) in responses().iter().zip(response_lines) {
            assert_eq!(response.to_json().to_string(), line);
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
            Err("key \"run\" has the wrong type or does not fit".to_string())
        );
        assert_eq!(
            Request::parse_line(
                "{\"op\": \"submit\", \"experiment\": \"table3\", \"watch\": \"yes\"}"
            ),
            Err("key \"watch\" has the wrong type or does not fit".to_string())
        );
        assert_eq!(
            Response::parse_line("{\"type\":\"shutting_down\",\"active_runs\":\"3\"}"),
            Err("key \"active_runs\" has the wrong type or does not fit".to_string())
        );
        assert_eq!(
            Response::parse_line("{\"type\":\"error\",\"message\":7,\"code\":5}"),
            Err("key \"message\" has the wrong type or does not fit".to_string())
        );
        assert_eq!(
            Response::parse_line("{\"type\":\"error\",\"message\":\"boom\",\"code\":5}"),
            Err("key \"code\" has the wrong type or does not fit".to_string())
        );
        assert_eq!(
            Response::parse_line(
                "{\"type\":\"status\",\"runs\":[{\"run\":1,\"experiment\":\"fig1\",\
                 \"state\":\"done\",\"days\":0,\"outcome\":7}]}"
            ),
            Err("\"runs\" item 0 is not a status row: \
                 key \"outcome\" has the wrong type or does not fit"
                .to_string())
        );
        // A day's stats are a closed record: a bad key is named.
        let stats = DayStats::default().to_json().to_string();
        assert_eq!(
            Response::parse_line(&format!(
                "{{\"type\":\"day\",\"run\":1,\"stats\":{}}}",
                stats.replacen("\"clean\"", "\"clear\"", 1)
            )),
            Err("\"stats\" is not a campaign day record: unknown key \"clear\"".to_string())
        );
        // Every message is a closed record: a key no field names, at the
        // top or in a nested outcome or status row, is no silent drop.
        assert_eq!(
            Request::parse_line("{\"op\":\"status\",\"rnu\":3}"),
            Err("unknown key \"rnu\"".to_string())
        );
        assert_eq!(
            Request::parse_line("{\"op\":\"submit\",\"experiment\":\"table3\",\"wach\":true}"),
            Err("unknown key \"wach\"".to_string())
        );
        assert_eq!(
            Response::parse_line(
                "{\"type\":\"done\",\"run\":1,\"outcome\":{\"result\":\"cancelled\",\
                 \"days_completed\":2,\"artifact\":{}}}"
            ),
            Err("\"outcome\" is not a run outcome: unknown key \"artifact\"".to_string())
        );
        assert_eq!(
            Response::parse_line(
                "{\"type\":\"status\",\"runs\":[{\"run\":1,\"experiment\":\"fig1\",\
                 \"state\":\"done\",\"days\":0,\"outcome\":\"ok\",\"owner\":\"x\"}]}"
            ),
            Err("\"runs\" item 0 is not a status row: unknown key \"owner\"".to_string())
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

    /// The table rows `variant_round_trips_and_names_bad_keys` walks: a
    /// variant's wire name (`""` for a record without variants) and its
    /// fields' keys and rules.
    type Rows = Vec<(&'static str, Vec<(&'static str, Rule)>)>;

    /// Checks every variant of a message type against its table rows, using
    /// the sample of each variant that sets every field: encode then decode
    /// is the identity; each required key, removed, is named missing; each
    /// other key, removed, reads as its default; each key holding a value of
    /// another JSON type is an error naming it; an unknown key is named.
    /// Returns the fields that carry any JSON value verbatim, which no value
    /// mistypes.
    fn variant_round_trips_and_names_bad_keys<T: PartialEq + std::fmt::Debug>(
        tag: Option<&str>,
        rows: Rows,
        samples: &[T],
        to_json: fn(&T) -> Json,
        from_json: fn(&Json) -> Result<T, String>,
    ) -> Vec<(&'static str, &'static str)> {
        let obj = |pairs: &[(String, Json)]| Json::Obj(pairs.to_vec());
        let mut verbatim = Vec::new();
        for (wire, fields) in rows {
            let keys: Vec<&str> =
                tag.into_iter().chain(fields.iter().map(|(key, _)| *key)).collect();
            let sample = samples
                .iter()
                .find(|sample| {
                    let Json::Obj(pairs) = to_json(sample) else { return false };
                    pairs.iter().map(|(key, _)| key.as_str()).eq(keys.iter().copied())
                        && tag.is_none_or(|tag| to_json(sample).get(tag) == Some(&wire.to_json()))
                })
                .unwrap_or_else(|| panic!("no sample of {wire:?} sets every field"));
            let Json::Obj(pairs) = to_json(sample) else { unreachable!() };
            assert_eq!(from_json(&obj(&pairs)).as_ref(), Ok(sample));
            let text = obj(&pairs).to_string();
            let parsed = Json::parse(&text).expect("well-formed JSON");
            assert_eq!(from_json(&parsed).as_ref(), Ok(sample));
            let first = usize::from(tag.is_some());
            for (index, (key, rule)) in fields.iter().enumerate() {
                let index = index + first;
                let mut missing = pairs.clone();
                missing.remove(index);
                let decoded = from_json(&obj(&missing));
                match rule {
                    Rule::Required => assert_eq!(decoded, Err(format!("missing key {key:?}"))),
                    Rule::Default(default) => {
                        let mut defaulted = pairs.clone();
                        defaulted[index].1 = default.clone();
                        assert_eq!(decoded.map(|message| to_json(&message)), Ok(obj(&defaulted)));
                    }
                    Rule::Omit => {
                        assert_eq!(decoded.map(|message| to_json(&message)), Ok(obj(&missing)))
                    }
                }
                let mut mistyped = pairs.clone();
                mistyped[index].1 = match mistyped[index].1 {
                    Json::Str(_) => Json::Bool(true),
                    _ => Json::Str("x".to_string()),
                };
                match from_json(&obj(&mistyped)) {
                    Err(error) => {
                        assert!(error.contains(&format!("{key:?}")), "{wire} {key}: {error}")
                    }
                    Ok(message) => {
                        assert_eq!(to_json(&message), obj(&mistyped), "{wire} {key}");
                        verbatim.push((wire, *key));
                    }
                }
            }
            if let Some(tag) = tag {
                let mut missing = pairs.clone();
                missing.remove(0);
                assert_eq!(from_json(&obj(&missing)), Err(format!("missing key {tag:?}")));
                let mut mistyped = pairs.clone();
                mistyped[0].1 = Json::Num(1.0);
                let error = from_json(&obj(&mistyped)).expect_err("a number is no wire name");
                assert!(error.contains(&format!("{tag:?}")), "{wire}: {error}");
            }
            let mut unknown = pairs.clone();
            unknown.push(("bogus".to_string(), Json::Num(0.0)));
            assert_eq!(from_json(&obj(&unknown)), Err("unknown key \"bogus\"".to_string()));
        }
        verbatim
    }

    #[test]
    fn every_variant_round_trips_and_names_bad_keys() {
        let (tag, rows) = Request::rows();
        let verbatim = variant_round_trips_and_names_bad_keys(
            Some(tag),
            rows,
            &requests(),
            Request::to_json,
            Request::from_json,
        );
        assert_eq!(verbatim, []);

        let (tag, rows) = Response::rows();
        let verbatim = variant_round_trips_and_names_bad_keys(
            Some(tag),
            rows,
            &responses(),
            Response::to_json,
            Response::from_json,
        );
        assert_eq!(verbatim, [("shard_result", "outcome")]);

        let outcomes: Vec<RunOutcome> = responses()
            .into_iter()
            .filter_map(|response| match response {
                Response::Done { outcome, .. } => Some(outcome),
                _ => None,
            })
            .collect();
        let (tag, rows) = RunOutcome::rows();
        let verbatim = variant_round_trips_and_names_bad_keys(
            Some(tag),
            rows,
            &outcomes,
            RunOutcome::to_json,
            RunOutcome::from_json,
        );
        assert_eq!(verbatim, [("ok", "artifact")]);

        let rows: Vec<RunStatus> = responses()
            .into_iter()
            .flat_map(|response| match response {
                Response::Status { runs } => runs,
                _ => Vec::new(),
            })
            .collect();
        let verbatim = variant_round_trips_and_names_bad_keys(
            None,
            vec![("", RunStatus::rows())],
            &rows,
            RunStatus::to_json,
            RunStatus::from_json,
        );
        assert_eq!(verbatim, []);
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
