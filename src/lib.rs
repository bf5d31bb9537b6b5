//! # master-parasite
//!
//! Facade crate for the *Master and Parasite Attack* (DSN 2021) reproduction.
//!
//! The implementation lives in the workspace crates under `crates/`; this
//! root package exists primarily to host the repository-level integration
//! tests (`tests/`) and runnable scenarios (`examples/`), and re-exports every
//! crate so downstream code — and the examples themselves — can reach the
//! whole system through one dependency:
//!
//! * [`netsim`] (`mp-netsim`) — deterministic packet-level network simulator,
//! * [`httpsim`] (`mp-httpsim`) — HTTP messages, caching semantics, security
//!   policies,
//! * [`browser`] (`mp-browser`) — browser cache, Cache API, storage, DOM,
//! * [`webcache`] (`mp-webcache`) — the Table IV cache taxonomy and shared
//!   caches,
//! * [`webgen`] (`mp-webgen`) — synthetic web population and measurement
//!   pipelines,
//! * [`apps`] (`mp-apps`) — simulated victim applications,
//! * [`parasite`] — the attack itself: infection, eviction, injection,
//!   persistence, propagation, C&C, defenses and the paper's experiments,
//! * [`mod@bench`] (`mp-bench`) — the paper-report harness,
//! * [`service`] (`mp-service`) — the campaign service daemon: long-running
//!   campaign runs served over a newline-JSON unix/TCP socket.
//!
//! On top of the re-exports, [`scenario`] provides the [`ScenarioBuilder`]:
//! the one-stop way to compose origins, victim applications, a browser
//! profile and a master into a runnable world, used by every example.
//!
//! ## Running experiments
//!
//! The paper's tables and figures are regenerated through the
//! [`parasite::experiments`] registry — see `cargo run -p mp-bench --bin
//! paper-report -- --help` for the CLI:
//!
//! ```rust
//! use master_parasite::parasite::experiments::{run_many, ExperimentId, RunConfig};
//!
//! let artifacts = run_many(&[ExperimentId::Fig4], &[RunConfig::default()], 2);
//! assert!(artifacts[0].render_text().contains("goodput"));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;

pub use scenario::{Scenario, ScenarioBuilder};

pub use mp_apps as apps;
pub use mp_bench as bench;
pub use mp_browser as browser;
pub use mp_httpsim as httpsim;
pub use mp_netsim as netsim;
pub use mp_service as service;
pub use mp_webcache as webcache;
pub use mp_webgen as webgen;
pub use parasite;
