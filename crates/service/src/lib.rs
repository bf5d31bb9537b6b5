//! # mp-service
//!
//! The campaign service daemon for the *Master and Parasite* reproduction: a
//! long-running process that serves concurrent experiment runs over a
//! newline-delimited JSON socket (unix, optionally also TCP).
//!
//! Five modules:
//!
//! * [`protocol`] — the wire messages ([`Request`], [`Response`],
//!   [`RunOutcome`], [`RunStatus`]); one JSON object per line, documented
//!   message-by-message in `PROTOCOL.md`,
//! * [`server`] — [`Daemon`]: listeners, the worker-pool scheduler,
//!   per-run budget isolation, day streaming and cooperative cancellation,
//! * [`client`] — [`Client`]: a small blocking client used by the
//!   `paper-report` subcommands and the end-to-end tests,
//! * [`shard`] — [`serve_shard`]: the one shard-serving path, shared by the
//!   daemon's `shard_submit` and the `shard-worker` loop
//!   ([`serve_shard_lines`]),
//! * [`distribute`] — [`Coordinator`]: the `paper-report distribute`
//!   coordinator (planning, retry queue, journal, merge) behind one attempt
//!   closure, and [`WorkerProcess`], its child-process attempt.
//!
//! ```no_run
//! use mp_service::{Client, Daemon, Endpoint, Request, ServeOptions};
//! use parasite::experiments::{ExperimentId, RunConfig};
//!
//! let daemon = Daemon::start(ServeOptions::new("/tmp/mp.sock"))?;
//! let mut client = Client::connect(&Endpoint::Unix("/tmp/mp.sock".into()))?;
//! client.send(&Request::Submit {
//!     experiment: ExperimentId::CampaignFleet,
//!     config: Box::new(RunConfig { fleet_days: 5, ..RunConfig::default() }),
//!     checkpoint: None,
//!     watch: true,
//! })?;
//! // ... stream `accepted`, `day`... and `done` responses ...
//! client.send(&Request::Shutdown)?;
//! daemon.wait()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod distribute;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::{Client, ClientError, Endpoint};
pub use protocol::{Request, Response, RunOutcome, RunState, RunStatus};
pub use server::{Daemon, ServeOptions};
pub use distribute::{AttemptError, Coordinator, WorkerProcess};
pub use shard::{serve_shard, serve_shard_lines, ShardReply};
