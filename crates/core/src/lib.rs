//! # parasite
//!
//! Reproduction of *The Master and Parasite Attack* (DSN 2021): the master
//! attacker, cache eviction, TCP injection of parasite scripts, persistence,
//! propagation, the covert command-and-control channel, the application
//! attacks of Table V and the countermeasure analysis of §VIII — implemented
//! against the simulated substrates in the companion crates (`mp-netsim`,
//! `mp-httpsim`, `mp-browser`, `mp-webcache`, `mp-webgen`, `mp-apps`).
//!
//! The crate is organised along the paper's structure:
//!
//! * [`script`] — the parasite payload model (§III, §VI),
//! * [`infect`] — infecting objects, pinning cache headers, stripping
//!   security headers (§VI-A),
//! * [`eviction`] — forcing target objects out of the victim's cache (§IV),
//! * [`injection`] — the eavesdropping master racing spoofed responses, at
//!   packet level and at HTTP level (§V),
//! * [`propagation`] — shared-file, iframe and shared-cache propagation
//!   (§VI-B),
//! * [`cnc`] — the SVG-image-dimension / URL covert channel (§VI-C),
//! * [`master`] — the attacker tying those pieces together,
//! * [`attacks`] — the Table V application attacks (§VII),
//! * [`defense`] — the §VIII countermeasures and their ablation,
//! * [`experiments`] — one [`Experiment`] per table and figure of the
//!   evaluation, with a [`Registry`] and a parallel batch runner
//!   ([`experiments::run_many`]),
//! * [`json`] — the minimal JSON model backing the machine-readable
//!   [`Artifact`] output.
//!
//! ## Quickstart
//!
//! ```rust
//! use parasite::experiments::{ExperimentId, Registry, RunConfig};
//!
//! // Regenerate Table III (refresh methods vs Cache-API parasites).
//! let table3 = Registry::get(ExperimentId::Table3).run(&RunConfig::default());
//! assert!(table3.render_text().contains("clear cookies"));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod cnc;
pub mod defense;
pub mod eviction;
pub mod experiments;
pub mod infect;
pub mod injection;
pub mod json;
pub mod master;
pub mod propagation;
pub mod script;

pub use attacks::{AttackReport, SecurityProperty};
pub use experiments::{run_many, Artifact, ArtifactData, Experiment, ExperimentId, Registry, RunConfig};
pub use json::{Json, ToJson};
pub use cnc::{CncServer, Command};
pub use defense::{AttackStage, Defense};
pub use eviction::{EvictionAttack, EvictionReport};
pub use infect::{InfectionConfig, Infector};
pub use injection::{InjectingExchange, MasterTap};
pub use master::Master;
pub use propagation::PropagationReport;
pub use script::{Parasite, ParasiteModule};
