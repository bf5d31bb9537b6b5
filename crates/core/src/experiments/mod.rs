//! The experiment layer: one [`Experiment`] per table and figure of the paper.
//!
//! Every artefact of the evaluation — Tables I–V, Figures 1–5 and the §VIII
//! defence ablation — is reproduced by an experiment implementing the
//! [`Experiment`] trait: `id()` names it with an [`ExperimentId`] and
//! `try_run(&RunConfig)` produces an [`Artifact`] carrying the structured
//! result plus uniform text ([`Artifact::render_text`]) and JSON
//! ([`Artifact::to_json`]) output, or a typed [`ExperimentError`] (e.g. an
//! exhausted event budget). [`ExperimentId::ALL`] lists the paper's eleven
//! experiments, [`ExperimentId::EXTENDED`] adds the population-scale
//! [`ExperimentId::CampaignFleet`] and attack-surface sweeps, and [`run_many`] /
//! [`try_run_many`] execute id × config sweeps on a thread pool —
//! `try_run_many` isolates each task, so one failing scenario reports its
//! error without aborting its siblings.
//!
//! ```rust
//! use parasite::experiments::{ExperimentId, Registry, RunConfig};
//! use parasite::json::ToJson;
//!
//! // Regenerate Table III (refresh methods vs Cache-API parasites).
//! let artifact = Registry::get(ExperimentId::Table3).run(&RunConfig::default());
//! assert!(artifact.render_text().contains("clear cookies"));
//! assert!(artifact.to_json().to_string().contains("clear_cookies"));
//! ```

mod campaign;
mod distrib;
mod faults;
mod fields;
mod figures;
mod multiday;
mod records;
mod surface;
mod tables;
mod validate;

pub use campaign::{ApProfile, CampaignFleetResult};
pub use distrib::{
    run_campaign_shard, scan_journal, write_journal_entry, JournalScan, ShardOutcome, ShardPlan,
};
pub use faults::{FaultKind, FaultPlan, FAULT_DIR_ENV, FAULT_PLAN_ENV};
pub use fields::{number as parse_number, ConfigFlags};
pub use multiday::{run_campaign_with_checkpoint, run_campaign_with_checkpoint_ctx};
pub use records::DayStats;
pub use surface::{CurvePoint, SurfaceResult, SurfaceVector, VectorSurface};
pub use validate::{ConfigError, MAX_FLEET_JOBS};
pub use figures::{AblationResult, Fig3Result, Fig4Result, Fig5Result, FlowTrace};
pub use tables::{
    InjectionCell, RefreshMethod, RemovalCell, Table1Result, Table2Result, Table3Result,
    Table4Result, Table4Row, Table5Result,
};

use crate::infect::Infector;
use crate::json::{Json, ToJson};
use crate::script::Parasite;
use mp_netsim::error::NetError;
use mp_netsim::sim::SharedBudget;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The C&C host used by all experiments.
pub const MASTER_HOST: &str = "master.attacker.example";

/// The seed-tag registry: every splitmix stream-family tag in the workspace,
/// by name and value.
///
/// Deterministic replay derives each independent RNG stream as
/// `mix_seed(seed, TAG ^ index)`; for the streams to be provably disjoint,
/// every tag must be a u64 whose top 16 bits (its *lane*) are unique. This
/// constant is the runtime's single source of truth: the collision test in
/// `campaign.rs` sweeps it, `mp-lint`'s `seed-tag` rule extracts the same
/// constants statically and its workspace test asserts the two views agree,
/// and `paper-report lint --json` emits the registry for external tooling.
pub const SEED_TAG_REGISTRY: &[(&str, u64)] = &[
    ("SURFACE_TAG", surface::SURFACE_TAG),
    ("ADOPT_TAG", surface::ADOPT_TAG),
    ("PROFILE_TAG", campaign::PROFILE_TAG),
    ("SEAT_TAG", distrib::SEAT_TAG),
    ("DAY_TAG", multiday::DAY_TAG),
    ("TARGET_TAG", multiday::TARGET_TAG),
    ("VISIT_TAG", multiday::VISIT_TAG),
    ("GARBLE_TAG", faults::GARBLE_TAG),
];

pub(crate) fn standard_infector() -> Infector {
    Infector::new(Parasite::standard(MASTER_HOST))
}

// ---------------------------------------------------------------------------
// Experiment identifiers
// ---------------------------------------------------------------------------

/// Identifier of one of the paper's eleven experiments, or of an extension
/// experiment that goes beyond the paper (currently
/// [`ExperimentId::CampaignFleet`] and [`ExperimentId::AttackSurface`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExperimentId {
    /// Table I — cache eviction on popular browsers.
    Table1,
    /// Table II — TCP injection evaluation.
    Table2,
    /// Table III — refresh methods vs Cache-API parasites.
    Table3,
    /// Table IV — caches in the wild.
    Table4,
    /// Table V — attacks against applications.
    Table5,
    /// Figure 1 — cache eviction message flow.
    Fig1,
    /// Figure 2 — cache infection message flow.
    Fig2,
    /// Figure 3 — object persistency measurement.
    Fig3,
    /// Figure 4 — C&C channel characterisation.
    Fig4,
    /// Figure 5 — CSP / HSTS / TLS measurement.
    Fig5,
    /// §VIII — defence ablation.
    Ablation,
    /// Extension — population-scale café-AP fleet sweep (not a paper
    /// artefact; it scales the Figure 2 race world to ~100k clients).
    CampaignFleet,
    /// Extension — attack-surface probability sweep over (attack vector ×
    /// master reaction latency × jitter × defense adoption), mapping the
    /// paper's race and §VIII defense matrix into figure-style curves.
    AttackSurface,
}

impl ExperimentId {
    /// The paper's eleven experiments, in the paper's order. The default
    /// `paper-report` runs exactly these, so the classic report stays
    /// byte-identical; extension experiments are opt-in via `--only`.
    pub const ALL: [ExperimentId; 11] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Table4,
        ExperimentId::Table5,
        ExperimentId::Fig1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Ablation,
    ];

    /// Every registered experiment: the paper's eleven plus the extensions.
    pub const EXTENDED: [ExperimentId; 13] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Table4,
        ExperimentId::Table5,
        ExperimentId::Fig1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Ablation,
        ExperimentId::CampaignFleet,
        ExperimentId::AttackSurface,
    ];

    /// The canonical id string (what [`fmt::Display`] prints and
    /// [`FromStr`] parses).
    pub fn as_str(&self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Table4 => "table4",
            ExperimentId::Table5 => "table5",
            ExperimentId::Fig1 => "fig1",
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Ablation => "ablation",
            ExperimentId::CampaignFleet => "campaign_fleet",
            ExperimentId::AttackSurface => "attack_surface",
        }
    }

    /// The artefact title, matching the paper's section.
    pub fn title(&self) -> &'static str {
        match self {
            ExperimentId::Table1 => "Table I - cache eviction on popular browsers",
            ExperimentId::Table2 => "Table II - TCP injection evaluation",
            ExperimentId::Table3 => "Table III - refresh methods vs Cache-API parasites",
            ExperimentId::Table4 => "Table IV - caches in the wild",
            ExperimentId::Table5 => "Table V - attacks against applications",
            ExperimentId::Fig1 => "Figure 1 - cache eviction message flow",
            ExperimentId::Fig2 => "Figure 2 - cache infection message flow",
            ExperimentId::Fig3 => "Figure 3 - object persistency",
            ExperimentId::Fig4 => "Figure 4 - C&C channel characterisation",
            ExperimentId::Fig5 => "Figure 5 - CSP / HSTS / TLS measurement",
            ExperimentId::Ablation => "Countermeasure ablation (SVIII)",
            ExperimentId::CampaignFleet => "Campaign - population-scale cafe-AP fleet sweep",
            ExperimentId::AttackSurface => "Attack surface - race x defense probability sweep",
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown experiment id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExperimentIdError {
    /// The string that did not match any experiment.
    pub input: String,
}

impl fmt::Display for ParseExperimentIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment id {:?} (expected one of: {})",
            self.input,
            ExperimentId::EXTENDED.map(|id| id.as_str()).join(", ")
        )
    }
}

impl std::error::Error for ParseExperimentIdError {}

impl FromStr for ExperimentId {
    type Err = ParseExperimentIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let needle = s.trim().to_ascii_lowercase();
        ExperimentId::EXTENDED
            .into_iter()
            .find(|id| id.as_str() == needle)
            .ok_or_else(|| ParseExperimentIdError {
                input: s.to_string(),
            })
    }
}

// ---------------------------------------------------------------------------
// Run configuration
// ---------------------------------------------------------------------------

/// Uniform configuration for every experiment, replacing the bespoke
/// positional arguments of the former free-function runners. Unused fields
/// are ignored by experiments that do not need them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// RNG seed for population generation and packet-level races.
    pub seed: u64,
    /// Cache-size divisor for the Table I eviction runs (bigger is faster).
    pub scale: u64,
    /// Population size for the Figure 5 policy scan.
    pub sites: usize,
    /// Population size for the Figure 3 persistency crawl.
    pub crawl_sites: usize,
    /// Length of the Figure 3 measurement period in days.
    pub days: u32,
    /// Event budget per packet-level simulation (see
    /// [`mp_netsim::sim::Simulator::with_event_budget`]).
    pub event_budget: u64,
    /// Maximum per-packet WiFi jitter in microseconds for the campaign fleet
    /// sweep (drawn from the seeded RNG; zero disables jitter).
    pub jitter_us: u64,
    /// Total simulated clients across the campaign fleet sweep.
    pub fleet_clients: usize,
    /// Number of café access points the fleet's clients are spread over (one
    /// packet-level simulation per AP).
    pub fleet_aps: usize,
    /// Worker threads for the fleet's per-AP simulations; `0` (the default)
    /// auto-sizes to the machine; at most 1,024. Set to `1` to keep a
    /// campaign run single-threaded, e.g. when it is itself one task of a
    /// parallel sweep.
    pub fleet_jobs: usize,
    /// Simulated days the campaign fleet runs for, at least 1: each day
    /// clients arrive, depart and clear caches, the target object may rotate
    /// per the Figure 3 churn model, clean clients are raced, and infections
    /// are carried forward to the next day.
    pub fleet_days: u32,
    /// Daily client-turnover fraction for the campaign: each day, this
    /// share of every AP's clients departs and is replaced by fresh (clean)
    /// arrivals. `0` disables population churn.
    pub fleet_churn: f64,
    /// Draw per-AP heterogeneity (WiFi/WAN latency, jitter, attacker reaction
    /// and client weights) from seeded distributions instead of the paper's
    /// uniform Figure 2 timing.
    pub fleet_hetero: bool,
    /// Mean daily-visit probability for the campaign's seats. At `1.0` (the
    /// default) every clean seat browses through the hostile AP every day.
    /// Below `1.0`, each seat draws a personal visit probability once per
    /// campaign from a seeded [`mp_netsim::dist::Dist`] stream (disjoint from
    /// the churn/heterogeneity streams, so it composes with `fleet_hetero`),
    /// and each day a clean seat is exposed only if its daily visit draw
    /// lands.
    pub fleet_visit_prob: f64,
    /// Global event budget shared across *every* simulator of a run (all APs,
    /// shards and days of a campaign; all packet-level experiments of a
    /// budgeted sweep). `0` (the default) disables the global budget; when
    /// set, exhaustion fails the run with the typed
    /// [`NetError::EventBudgetExhausted`] instead of one shard starving
    /// silently.
    pub global_event_budget: u64,
    /// Seeded race trials per grid cell of the [`ExperimentId::AttackSurface`]
    /// sweep (victims attached to each cell's race world).
    pub surface_trials: usize,
    /// First master reaction delay of the attack-surface sweep, microseconds.
    pub surface_delay_start_us: u64,
    /// Last master reaction delay of the attack-surface sweep, microseconds.
    /// The default range spans the paper-timing crossover (~80.5 ms) where
    /// the genuine response starts beating the spoofed one.
    pub surface_delay_end_us: u64,
    /// Number of evenly spaced reaction delays swept over
    /// `[surface_delay_start_us, surface_delay_end_us]`.
    pub surface_delay_steps: usize,
    /// Number of evenly spaced defense-adoption fractions swept over `[0, 1]`.
    pub surface_adoption_steps: usize,
    /// First WAN one-way latency of the attack-surface sweep, microseconds.
    /// The default WAN axis is the single paper operating point (40 ms), so
    /// the classic surface artifact keeps its exact grid.
    pub surface_wan_start_us: u64,
    /// Last WAN one-way latency of the attack-surface sweep, microseconds.
    pub surface_wan_end_us: u64,
    /// Number of evenly spaced WAN latencies swept over
    /// `[surface_wan_start_us, surface_wan_end_us]`.
    pub surface_wan_steps: usize,
    /// Bitmask selecting the attack vectors of the surface sweep, bit *i*
    /// enabling `SurfaceVector::ALL[i]`; `0` (the default) sweeps all of
    /// them. Built from names by [`SurfaceVector::parse_mask`].
    pub surface_vectors: u8,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 2021,
            scale: 1000,
            sites: 15_000,
            crawl_sites: 3_000,
            days: 100,
            event_budget: mp_netsim::sim::DEFAULT_EVENT_BUDGET,
            jitter_us: 0,
            fleet_clients: 100_000,
            fleet_aps: 128,
            fleet_jobs: 0,
            fleet_days: 1,
            fleet_churn: 0.0,
            fleet_hetero: false,
            fleet_visit_prob: 1.0,
            global_event_budget: 0,
            surface_trials: 200,
            surface_delay_start_us: 300,
            surface_delay_end_us: 160_000,
            surface_delay_steps: 8,
            surface_adoption_steps: 5,
            surface_wan_start_us: 40_000,
            surface_wan_end_us: 40_000,
            surface_wan_steps: 1,
            surface_vectors: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------------

/// Cooperative cancellation handle threaded through [`RunCtx`]: any holder
/// may [`CancelToken::cancel`], and long-running experiments poll
/// [`CancelToken::is_cancelled`] at safe stopping points. The multi-day
/// campaign checks it at every day boundary — a cancelled run stops after the
/// current day's checkpoint is written, so the checkpoint stays valid and a
/// resubmission resumes byte-identically (see
/// [`ExperimentError::Cancelled`]). Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the experiment's
    /// next poll (for multi-day campaigns, the next day boundary).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Incremental per-day observer for multi-day campaigns: the day loop calls
/// it after every completed day (and replays checkpoint-restored days on
/// resume), letting a caller — the campaign service daemon, a progress bar —
/// stream [`DayStats`] while the run is still going. The callback runs on the
/// campaign's thread and must be cheap and non-blocking.
#[derive(Clone)]
pub struct DaySink(std::sync::Arc<dyn Fn(&DayStats) + Send + Sync>);

impl DaySink {
    /// Wraps a callback into a sink.
    pub fn new(sink: impl Fn(&DayStats) + Send + Sync + 'static) -> DaySink {
        DaySink(std::sync::Arc::new(sink))
    }

    /// Delivers one completed day to the observer.
    pub fn emit(&self, stats: &DayStats) {
        (self.0)(stats);
    }
}

impl fmt::Debug for DaySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DaySink")
    }
}

/// Cross-cutting execution state shared by every task of one run or sweep —
/// the optional global [`SharedBudget`], the cooperative [`CancelToken`] and
/// the optional per-day [`DaySink`]. Unlike [`RunConfig`] (plain serialisable
/// data, copied per task), the context carries live handles and is shared by
/// reference across a whole sweep.
#[derive(Debug, Clone, Default)]
pub struct RunCtx {
    /// Global event budget shared by every simulator the run builds, if the
    /// sweep requested one (see [`RunConfig::global_event_budget`]).
    pub shared_budget: Option<SharedBudget>,
    /// Cooperative cancellation flag; default tokens are never cancelled, so
    /// batch sweeps run to completion exactly as before.
    pub cancel: CancelToken,
    /// Observer for completed campaign days (the service daemon's streaming
    /// hook); `None` for batch runs.
    pub day_sink: Option<DaySink>,
}

impl RunCtx {
    /// Builds the context for a sweep over `configs`: if any config asks for
    /// a global event budget, one shared pool (sized by the largest request)
    /// is created for the entire sweep.
    pub fn for_sweep(configs: &[RunConfig]) -> RunCtx {
        let budget = configs.iter().map(|c| c.global_event_budget).max().unwrap_or(0);
        RunCtx {
            shared_budget: (budget > 0).then(|| SharedBudget::new(budget)),
            ..RunCtx::default()
        }
    }

    /// The shared budget to use for simulators built under `config`: the
    /// sweep-wide pool when present, otherwise a fresh pool if the config
    /// asks for one (the single-`try_run` path), otherwise none.
    pub(crate) fn budget_for(&self, config: &RunConfig) -> Option<SharedBudget> {
        match &self.shared_budget {
            Some(budget) => Some(budget.clone()),
            None if config.global_event_budget > 0 => {
                Some(SharedBudget::new(config.global_event_budget))
            }
            None => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Experiment errors
// ---------------------------------------------------------------------------

/// Why an experiment run failed. Carried per artifact slot by
/// [`try_run_many`], so one failing scenario cannot abort a batch sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// A packet-level simulation failed — most commonly
    /// [`NetError::EventBudgetExhausted`] from a runaway scenario.
    Net(NetError),
    /// The configuration is outside what the experiment can simulate (e.g. a
    /// campaign fleet packing more clients onto one AP than its address
    /// space holds).
    Config(String),
    /// The experiment panicked; the panic was caught at the task boundary and
    /// its message preserved.
    Panicked(String),
    /// A multi-day campaign checkpoint could not be read, written or matched
    /// against the current configuration.
    Checkpoint(String),
    /// A distributed shard range could not be completed: its worker
    /// processes kept failing until the coordinator's retry limit for that
    /// range was exhausted. The message names the AP range.
    Shard(String),
    /// The run was cooperatively cancelled via [`CancelToken::cancel`]. A
    /// multi-day campaign stops at the next day boundary *after* writing its
    /// per-day checkpoint, so `completed_days` days are durable and a
    /// resubmission with the same checkpoint resumes byte-identically.
    Cancelled {
        /// Days that completed (and were checkpointed) before the stop.
        completed_days: u32,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Net(error) => write!(f, "network simulation failed: {error}"),
            ExperimentError::Config(message) => write!(f, "invalid configuration: {message}"),
            ExperimentError::Panicked(message) => write!(f, "experiment panicked: {message}"),
            ExperimentError::Checkpoint(message) => write!(f, "campaign checkpoint: {message}"),
            ExperimentError::Shard(message) => write!(f, "distributed shard failed: {message}"),
            ExperimentError::Cancelled { completed_days } => {
                write!(f, "run cancelled after {completed_days} completed day(s)")
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Net(error) => Some(error),
            ExperimentError::Config(_)
            | ExperimentError::Panicked(_)
            | ExperimentError::Checkpoint(_)
            | ExperimentError::Shard(_)
            | ExperimentError::Cancelled { .. } => None,
        }
    }
}

impl From<NetError> for ExperimentError {
    fn from(error: NetError) -> Self {
        ExperimentError::Net(error)
    }
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

/// The structured result of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactData {
    /// Table I result.
    Table1(Table1Result),
    /// Table II result.
    Table2(Table2Result),
    /// Table III result.
    Table3(Table3Result),
    /// Table IV result.
    Table4(Table4Result),
    /// Table V result.
    Table5(Table5Result),
    /// Figure 1 flow trace.
    Fig1(FlowTrace),
    /// Figure 2 flow trace.
    Fig2(FlowTrace),
    /// Figure 3 result.
    Fig3(Fig3Result),
    /// Figure 4 result.
    Fig4(Fig4Result),
    /// Figure 5 result.
    Fig5(Fig5Result),
    /// Defence ablation result.
    Ablation(AblationResult),
    /// Campaign fleet sweep result.
    CampaignFleet(CampaignFleetResult),
    /// Attack-surface probability sweep result.
    AttackSurface(SurfaceResult),
}

macro_rules! artifact_accessor {
    ($(#[$doc:meta] $fn_name:ident, $variant:ident, $ty:ty;)*) => {
        $(
            #[$doc]
            pub fn $fn_name(&self) -> Option<&$ty> {
                match self {
                    ArtifactData::$variant(result) => Some(result),
                    _ => None,
                }
            }
        )*
    };
}

impl ArtifactData {
    artifact_accessor! {
        /// The Table I result, if this is one.
        as_table1, Table1, Table1Result;
        /// The Table II result, if this is one.
        as_table2, Table2, Table2Result;
        /// The Table III result, if this is one.
        as_table3, Table3, Table3Result;
        /// The Table IV result, if this is one.
        as_table4, Table4, Table4Result;
        /// The Table V result, if this is one.
        as_table5, Table5, Table5Result;
        /// The Figure 1 flow trace, if this is one.
        as_fig1, Fig1, FlowTrace;
        /// The Figure 2 flow trace, if this is one.
        as_fig2, Fig2, FlowTrace;
        /// The Figure 3 result, if this is one.
        as_fig3, Fig3, Fig3Result;
        /// The Figure 4 result, if this is one.
        as_fig4, Fig4, Fig4Result;
        /// The Figure 5 result, if this is one.
        as_fig5, Fig5, Fig5Result;
        /// The ablation result, if this is one.
        as_ablation, Ablation, AblationResult;
        /// The campaign fleet result, if this is one.
        as_campaign_fleet, CampaignFleet, CampaignFleetResult;
        /// The attack-surface result, if this is one.
        as_attack_surface, AttackSurface, SurfaceResult;
    }
}

impl ToJson for ArtifactData {
    fn to_json(&self) -> Json {
        match self {
            ArtifactData::Table1(r) => r.to_json(),
            ArtifactData::Table2(r) => r.to_json(),
            ArtifactData::Table3(r) => r.to_json(),
            ArtifactData::Table4(r) => r.to_json(),
            ArtifactData::Table5(r) => r.to_json(),
            ArtifactData::Fig1(r) => r.to_json(),
            ArtifactData::Fig2(r) => r.to_json(),
            ArtifactData::Fig3(r) => r.to_json(),
            ArtifactData::Fig4(r) => r.to_json(),
            ArtifactData::Fig5(r) => r.to_json(),
            ArtifactData::Ablation(r) => r.to_json(),
            ArtifactData::CampaignFleet(r) => r.to_json(),
            ArtifactData::AttackSurface(r) => r.to_json(),
        }
    }
}

/// One regenerated table or figure: the structured result, the configuration
/// that produced it, and uniform text / JSON renderings.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Which experiment produced this artifact.
    pub id: ExperimentId,
    /// The configuration the experiment ran with.
    pub config: RunConfig,
    /// The structured result.
    pub data: ArtifactData,
}

impl Artifact {
    /// Renders the artifact as the paper-shaped text table/figure.
    pub fn render_text(&self) -> String {
        match &self.data {
            ArtifactData::Table1(r) => r.render(),
            ArtifactData::Table2(r) => r.render(),
            ArtifactData::Table3(r) => r.render(),
            ArtifactData::Table4(r) => r.render(),
            ArtifactData::Table5(r) => r.render(),
            ArtifactData::Fig1(r) => r.render(),
            ArtifactData::Fig2(r) => r.render(),
            ArtifactData::Fig3(r) => r.render(),
            ArtifactData::Fig4(r) => r.render(),
            ArtifactData::Fig5(r) => r.render(),
            ArtifactData::Ablation(r) => r.render(),
            ArtifactData::CampaignFleet(r) => r.render(),
            ArtifactData::AttackSurface(r) => r.render(),
        }
    }
}

impl ToJson for Artifact {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.as_str().to_json()),
            ("title", self.id.title().to_json()),
            ("config", self.config.to_json()),
            ("data", self.data.to_json()),
        ])
    }
}

// ---------------------------------------------------------------------------
// The Experiment trait and registry
// ---------------------------------------------------------------------------

/// A runnable experiment reproducing one artefact of the paper.
pub trait Experiment: Send + Sync {
    /// The experiment's identifier.
    fn id(&self) -> ExperimentId;

    /// Runs the experiment under the given configuration and execution
    /// context (shared global budget, when the sweep carries one), reporting
    /// failures as a typed [`ExperimentError`].
    fn try_run_ctx(&self, config: &RunConfig, ctx: &RunCtx) -> Result<Artifact, ExperimentError>;

    /// Runs the experiment under a default context, reporting failures (such
    /// as an exhausted event budget) as a typed [`ExperimentError`].
    fn try_run(&self, config: &RunConfig) -> Result<Artifact, ExperimentError> {
        self.try_run_ctx(config, &RunCtx::default())
    }

    /// Runs the experiment, panicking on failure. Convenient for the common
    /// case where the configuration is known to be sound; batch sweeps should
    /// prefer [`Experiment::try_run`] / [`try_run_many`].
    fn run(&self, config: &RunConfig) -> Artifact {
        match self.try_run(config) {
            Ok(artifact) => artifact,
            // Documented panicking convenience wrapper; try_run is the
            // typed-error path. mp-lint: allow(panic-discipline)
            Err(error) => panic!("experiment {} failed: {error}", self.id()),
        }
    }
}

macro_rules! experiments {
    ($(#[$doc:meta] $name:ident, $id:ident, $variant:ident, $runner:path;)*) => {
        $(
            #[$doc]
            #[derive(Debug, Clone, Copy, Default)]
            pub struct $name;

            impl Experiment for $name {
                fn id(&self) -> ExperimentId {
                    ExperimentId::$id
                }

                fn try_run_ctx(&self, config: &RunConfig, ctx: &RunCtx) -> Result<Artifact, ExperimentError> {
                    config.validate()?;
                    Ok(Artifact {
                        id: self.id(),
                        config: *config,
                        data: ArtifactData::$variant($runner(config, ctx)?),
                    })
                }
            }
        )*

        impl Registry {
            /// Returns the experiment registered under `id`.
            pub fn get(id: ExperimentId) -> Box<dyn Experiment> {
                match id {
                    $(ExperimentId::$id => Box::new($name),)*
                }
            }
        }
    };
}

/// The set of registered experiments: `Registry::get(id)` returns one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Registry;

experiments! {
    /// Table I — cache eviction on popular browsers.
    Table1Eviction, Table1, Table1, tables::table1_cache_eviction;
    /// Table II — the OS × browser TCP injection matrix.
    Table2Injection, Table2, Table2, tables::table2_injection_matrix;
    /// Table III — refresh methods vs Cache-API parasites.
    Table3Refresh, Table3, Table3, tables::table3_refresh_methods;
    /// Table IV — caches in the wild.
    Table4Caches, Table4, Table4, tables::table4_caches;
    /// Table V — attacks against applications.
    Table5Attacks, Table5, Table5, tables::table5_attacks;
    /// Figure 1 — cache eviction message flow.
    Fig1EvictionFlow, Fig1, Fig1, figures::fig1_eviction_flow;
    /// Figure 2 — cache infection message flow.
    Fig2InfectionFlow, Fig2, Fig2, figures::fig2_infection_flow;
    /// Figure 3 — the object-persistency crawl.
    Fig3Persistency, Fig3, Fig3, figures::fig3_persistency;
    /// Figure 4 — the C&C channel characterisation.
    Fig4CncChannel, Fig4, Fig4, figures::fig4_cnc_channel;
    /// Figure 5 — the CSP / HSTS / TLS policy scan.
    Fig5CspStats, Fig5, Fig5, figures::fig5_csp_stats;
    /// §VIII — the defence ablation.
    AblationDefenses, Ablation, Ablation, figures::ablation_defenses;
    /// Extension — the population-scale café-AP campaign sweep.
    CampaignFleetSweep, CampaignFleet, CampaignFleet, multiday::campaign_fleet;
    /// Extension — the attack-surface probability sweep.
    AttackSurfaceSweep, AttackSurface, AttackSurface, surface::attack_surface;
}

// ---------------------------------------------------------------------------
// Parallel batch runner
// ---------------------------------------------------------------------------

/// Runs `run` over every task on a pool of `jobs` scoped worker threads,
/// returning results in task order. `jobs <= 1` runs inline. Used by the
/// experiment batch runner and by the campaign fleet's per-AP sweep.
pub(crate) fn parallel_tasks<T, R, F>(tasks: &[T], jobs: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, tasks.len().max(1));
    if jobs <= 1 {
        return tasks.iter().map(&run).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(index) else {
                    break;
                };
                let result = run(task);
                *slots[index].lock().expect("no panics while holding the slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker threads joined")
                .expect("every task was executed")
        })
        .collect()
}

/// Extracts a readable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the cross product of `ids` × `configs` on a pool of `jobs` worker
/// threads, returning one `Result` per task in deterministic id-major order
/// (`ids[0]` under every config, then `ids[1]`, …).
///
/// Every task is isolated: a scenario that exhausts its event budget (or even
/// panics) reports an [`ExperimentError`] in its own slot while its siblings
/// run to completion — one runaway configuration can no longer abort a whole
/// sweep.
///
/// If any config sets [`RunConfig::global_event_budget`], one shared event
/// pool spans the *entire* sweep: every simulator any task builds debits it,
/// and exhaustion fails the remaining packet-level tasks with the typed
/// [`NetError::EventBudgetExhausted`] in their own slots.
pub fn try_run_many(
    ids: &[ExperimentId],
    configs: &[RunConfig],
    jobs: usize,
) -> Vec<Result<Artifact, ExperimentError>> {
    let ctx = RunCtx::for_sweep(configs);
    let tasks: Vec<(ExperimentId, &RunConfig)> = ids
        .iter()
        .flat_map(|id| configs.iter().map(move |config| (*id, config)))
        .collect();
    parallel_tasks(&tasks, jobs, |(id, config)| {
        catch_unwind(AssertUnwindSafe(|| Registry::get(*id).try_run_ctx(config, &ctx)))
            .unwrap_or_else(|payload| Err(ExperimentError::Panicked(panic_message(payload))))
    })
}

/// Runs the cross product of `ids` × `configs` on a pool of `jobs` worker
/// threads and returns the artifacts in deterministic id-major order.
///
/// Independent experiments and multi-seed sweeps parallelise freely: every
/// experiment builds its own simulated world. `jobs <= 1` runs inline.
///
/// # Panics
///
/// Panics if any task fails; use [`try_run_many`] to isolate failures per
/// task instead.
pub fn run_many(ids: &[ExperimentId], configs: &[RunConfig], jobs: usize) -> Vec<Artifact> {
    try_run_many(ids, configs, jobs)
        .into_iter()
        .zip(ids.iter().flat_map(|id| configs.iter().map(move |_| *id)))
        .map(|(result, id)| match result {
            Ok(artifact) => artifact,
            // Documented panicking convenience wrapper; try_run_many is the
            // typed-error path. mp-lint: allow(panic-discipline)
            Err(error) => panic!("experiment {id} failed: {error}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> RunConfig {
        RunConfig {
            sites: 1_500,
            crawl_sites: 400,
            days: 20,
            seed: 7,
            ..RunConfig::default()
        }
    }

    fn run(id: ExperimentId, config: &RunConfig) -> Artifact {
        Registry::get(id).run(config)
    }

    #[test]
    fn experiment_ids_round_trip_and_are_unique() {
        for id in ExperimentId::ALL {
            assert_eq!(id.to_string().parse::<ExperimentId>(), Ok(id));
        }
        assert!("table9".parse::<ExperimentId>().is_err());
        assert_eq!(" Table1 ".parse::<ExperimentId>(), Ok(ExperimentId::Table1));
        let ids: std::collections::HashSet<&str> =
            ExperimentId::ALL.iter().map(|id| id.as_str()).collect();
        assert_eq!(ids.len(), 11, "id strings must be pairwise distinct");
    }

    #[test]
    fn registry_covers_all_eleven_experiments() {
        let all = ExperimentId::ALL.map(Registry::get);
        assert_eq!(all.len(), 11);
        for (experiment, id) in all.iter().zip(ExperimentId::ALL) {
            assert_eq!(experiment.id(), id);
        }
    }

    #[test]
    fn run_config_json_round_trips() {
        let config = RunConfig {
            seed: 42,
            scale: 7,
            sites: 123,
            crawl_sites: 45,
            days: 6,
            event_budget: 10_000_000,
            jitter_us: 250,
            fleet_clients: 9_000,
            fleet_aps: 16,
            fleet_jobs: 3,
            fleet_days: 7,
            fleet_churn: 0.25,
            fleet_hetero: true,
            fleet_visit_prob: 0.75,
            global_event_budget: 123_456,
            surface_trials: 64,
            surface_delay_start_us: 500,
            surface_delay_end_us: 90_000,
            surface_delay_steps: 4,
            surface_adoption_steps: 3,
            surface_wan_start_us: 5_000,
            surface_wan_end_us: 120_000,
            surface_wan_steps: 3,
            surface_vectors: 0b0101,
        };
        let json = config.to_json();
        let parsed = Json::parse(&json.to_string()).expect("well-formed JSON");
        assert_eq!(RunConfig::from_json(&parsed), Ok(config));
        // A key whose row is not `always` appears only when it differs from
        // the default, so classic configs keep their exact JSON form.
        let classic = RunConfig::default().to_json();
        for field in fields::FIELDS {
            assert_eq!(classic.get(field.key).is_some(), field.always, "{}", field.key);
        }
        // Missing keys fall back to defaults.
        assert_eq!(RunConfig::from_json(&Json::obj([])), Ok(RunConfig::default()));
        // Wrongly-typed keys are an error naming the key.
        assert_eq!(
            RunConfig::from_json(&Json::obj([("seed", Json::Str("not a number".into()))])),
            Err("key \"seed\" has the wrong type or does not fit".to_string())
        );
        // So are keys that are not fields: a misspelt field must not run
        // with its default, and the retired recorder-mode key is no field.
        assert_eq!(
            RunConfig::from_json(&Json::obj([("trace_mode", Json::Str("sometimes".into()))])).ok(),
            None
        );
        assert_eq!(
            RunConfig::from_json(&Json::obj([("fleet_days", 2u64.to_json()), ("fleet_clientz", 10u64.to_json())])),
            Err("unknown key \"fleet_clientz\"".to_string())
        );
        assert!(RunConfig::from_json(&Json::Arr(Vec::new())).is_err());
        // So are integers their field cannot hold: 2^32 + 2 days must not
        // decode as a 2-day campaign.
        for (key, value) in [("fleet_days", (1u64 << 32) + 2), ("days", 1 << 32), ("surface_vectors", 256)] {
            assert!(RunConfig::from_json(&Json::obj([(key, value.to_json())])).is_err(), "{key}");
        }
    }

    #[test]
    fn table1_reproduces_the_papers_shape() {
        let artifact = run(ExperimentId::Table1, &RunConfig::default());
        let result = artifact.data.as_table1().expect("table1 artifact");
        assert_eq!(result.rows.len(), 6);
        let ie = result.rows.iter().find(|r| r.browser.starts_with("IE")).unwrap();
        assert!(!ie.evicted_targets);
        assert_eq!(ie.remark, "DOS on memory");
        let chrome = result.rows.iter().find(|r| r.browser.starts_with("Chrome 81")).unwrap();
        assert!(chrome.evicted_targets);
        assert!(artifact.render_text().contains("DOS on memory"));
    }

    #[test]
    fn table2_all_supported_combinations_succeed() {
        let artifact = run(ExperimentId::Table2, &RunConfig::default());
        let result = artifact.data.as_table2().expect("table2 artifact");
        assert_eq!(result.rows.len(), 5);
        assert!(result.all_supported_succeed());
        // IE and Edge are n/a outside Windows, Safari outside Apple platforms.
        assert!(artifact.render_text().contains("n/a"));
    }

    #[test]
    fn table3_matches_the_paper() {
        let artifact = run(ExperimentId::Table3, &RunConfig::default());
        let result = artifact.data.as_table3().expect("table3 artifact");
        let chrome = result.rows.iter().find(|(name, _)| name == "Chrome").unwrap();
        assert_eq!(chrome.1[0], RemovalCell::Survived, "Ctrl+F5 does not remove the parasite");
        assert_eq!(chrome.1[1], RemovalCell::Survived, "clear cache does not remove the parasite");
        assert_eq!(chrome.1[2], RemovalCell::Removed, "clearing cookies removes it");
        let ie = result.rows.iter().find(|(name, _)| name == "IE").unwrap();
        assert!(ie.1.iter().all(|c| *c == RemovalCell::NotApplicable));
    }

    #[test]
    fn table4_http_is_always_infectable_and_https_is_harder() {
        let artifact = run(ExperimentId::Table4, &RunConfig::default());
        let result = artifact.data.as_table4().expect("table4 artifact");
        assert_eq!(result.rows.len(), 23);
        let http_count = result.rows.iter().filter(|r| r.infected_over_http).count();
        let https_count = result.rows.iter().filter(|r| r.infected_over_https).count();
        assert!(http_count > https_count);
        let squid = result.rows.iter().find(|r| r.name == "Squid").unwrap();
        assert!(squid.infected_over_http);
        let bluecoat = result.rows.iter().find(|r| r.name == "Blue Coat ProxySG").unwrap();
        assert!(!bluecoat.infected_over_https);
    }

    #[test]
    fn table5_attacks_mostly_succeed_with_requirements_met() {
        let artifact = run(ExperimentId::Table5, &RunConfig::default());
        let result = artifact.data.as_table5().expect("table5 artifact");
        assert!(result.reports.len() >= 15, "got {}", result.reports.len());
        assert!(result.successes() >= 14, "successes: {}", result.successes());
        assert!(artifact.render_text().contains("Transaction Manipulation"));
    }

    #[test]
    fn figure_flows_render_their_phases() {
        let fig1 = run(ExperimentId::Fig1, &RunConfig::default());
        let fig1_trace = fig1.data.as_fig1().expect("fig1 artifact");
        assert!(fig1_trace.steps.iter().any(|s| s.contains("junk")));
        assert!(fig1.render_text().contains("Figure 1"));
        let fig2 = run(ExperimentId::Fig2, &RunConfig::default());
        let fig2_trace = fig2.data.as_fig2().expect("fig2 artifact");
        assert!(fig2_trace.steps.iter().any(|s| s.contains("[ATTACK]")));
        assert!(fig2_trace.steps.iter().any(|s| s.contains("t=500198")));
    }

    #[test]
    fn fig3_fig4_fig5_and_ablation_produce_consistent_output() {
        let config = quick_config();
        let fig3 = run(ExperimentId::Fig3, &config);
        let fig3_result = fig3.data.as_fig3().expect("fig3 artifact");
        assert_eq!(fig3_result.series.days.len(), 20);
        assert!(fig3.render_text().contains("day"));

        let fig4 = run(ExperimentId::Fig4, &config);
        let fig4_result = fig4.data.as_fig4().expect("fig4 artifact");
        assert!(fig4_result.command_bytes_delivered > 0);
        assert!(fig4_result.upstream_bytes_delivered > 0);
        assert!(fig4_result.goodput_curve.iter().any(|(p, g)| *p == 25 && (*g - 100_000.0).abs() < 1.0));

        let fig5 = run(ExperimentId::Fig5, &config);
        let fig5_result = fig5.data.as_fig5().expect("fig5 artifact");
        assert_eq!(fig5_result.scan.total, 1500);
        assert!(fig5.render_text().contains("connect-src"));

        let ablation = run(ExperimentId::Ablation, &config);
        let ablation_result = ablation.data.as_ablation().expect("ablation artifact");
        assert_eq!(ablation_result.rows.len(), 7);
        assert!(ablation.render_text().contains("blocked"));
    }

    #[test]
    fn injection_race_is_deterministic_per_seed() {
        // Table II's one-victim race at the paper's timing: the master wins
        // under every seed, and a seed replays to the same event count.
        use mp_netsim::capture::TraceMode;
        use tables::{race_clients, RaceTask};
        let budget = RunConfig::default().event_budget;
        for seed in [1, 2] {
            let race = || {
                let task = RaceTask::paper(seed, TraceMode::SummaryOnly);
                let outcome = race_clients(&task, budget, None, &|_| false).expect("race completes");
                (outcome.wins, outcome.events, *outcome.trace.summary())
            };
            let first = race();
            assert_eq!(first.0, vec![true], "seed {seed}");
            assert_eq!(race(), first, "seed {seed}");
        }
    }

    #[test]
    fn artifacts_serialize_to_parseable_json() {
        let artifact = run(ExperimentId::Ablation, &RunConfig::default());
        let json = artifact.to_json();
        let text = json.to_string();
        let parsed = Json::parse(&text).expect("artifact JSON parses");
        assert_eq!(parsed.get("id").and_then(Json::as_str), Some("ablation"));
        assert_eq!(
            parsed.get("config").and_then(|c| c.get("seed")).and_then(Json::as_u64),
            Some(2021)
        );
        assert_eq!(
            parsed
                .get("data")
                .and_then(|d| d.get("rows"))
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(7)
        );
    }

    #[test]
    fn run_many_parallel_matches_sequential() {
        let ids = [ExperimentId::Fig4, ExperimentId::Ablation, ExperimentId::Table3];
        let configs = [quick_config(), RunConfig { seed: 9, ..quick_config() }];
        let sequential = run_many(&ids, &configs, 1);
        let parallel = run_many(&ids, &configs, 4);
        assert_eq!(sequential.len(), 6);
        assert_eq!(sequential, parallel);
        // id-major order: first two artifacts are Fig4 under both configs.
        assert_eq!(sequential[0].id, ExperimentId::Fig4);
        assert_eq!(sequential[1].id, ExperimentId::Fig4);
        assert_eq!(sequential[1].config.seed, 9);
    }

    #[test]
    fn run_many_handles_empty_input() {
        assert!(run_many(&[], &[RunConfig::default()], 4).is_empty());
        assert!(run_many(&[ExperimentId::Fig4], &[], 4).is_empty());
    }

    #[test]
    fn extended_registry_adds_the_campaign_fleet() {
        let extended = ExperimentId::EXTENDED.map(Registry::get);
        assert_eq!(extended.len(), 13);
        assert_eq!(extended.last().unwrap().id(), ExperimentId::AttackSurface);
        assert_eq!("campaign_fleet".parse::<ExperimentId>(), Ok(ExperimentId::CampaignFleet));
        assert_eq!("attack_surface".parse::<ExperimentId>(), Ok(ExperimentId::AttackSurface));
        // The paper set stays exactly eleven so the classic report is stable.
        assert_eq!(ExperimentId::ALL.len(), 11);
        assert!(!ExperimentId::ALL.contains(&ExperimentId::CampaignFleet));
        assert!(!ExperimentId::ALL.contains(&ExperimentId::AttackSurface));
    }

    #[test]
    fn campaign_fleet_sweeps_a_small_fleet() {
        let config = RunConfig {
            fleet_clients: 400,
            fleet_aps: 8,
            jitter_us: 150,
            ..quick_config()
        };
        let artifact = run(ExperimentId::CampaignFleet, &config);
        let result = artifact.data.as_campaign_fleet().expect("campaign artifact");
        assert_eq!(result.clients, 400);
        assert_eq!(result.aps, 8);
        assert_eq!(result.failed_aps, 0);
        // Every eighth seat of the fleet requests an unprepared object and
        // stays clean: 50 of its 400 seats.
        assert_eq!(result.clean_clients, 50);
        assert_eq!(result.infected_clients, 350);
        assert_eq!(result.day_stats.len(), 1);
        assert_eq!(result.infected_clients + result.clean_clients, result.clients);
        assert!(result.total_events > 0);
        assert!(result.injected_events >= result.infected_clients as u64);
        assert!(artifact.render_text().contains("infected clients"));
        // Deterministic under the same seed, including with jitter enabled.
        let again = run(ExperimentId::CampaignFleet, &config);
        assert_eq!(artifact, again);
    }

    #[test]
    fn shard_count_is_clamped_to_the_ap_count() {
        let config = RunConfig { fleet_clients: 200, fleet_aps: 2, ..quick_config() };
        assert_eq!(
            ShardPlan::split(&config, 16),
            [ShardPlan { first_ap: 0, aps: 1 }, ShardPlan { first_ap: 1, aps: 1 }],
            "one AP per shard at minimum"
        );
    }

    #[test]
    fn overpacked_fleet_is_a_typed_config_error() {
        // More clients than one AP's /16 address space: a typed error, not a
        // panic in a worker thread.
        let config = RunConfig {
            fleet_clients: 100_000,
            fleet_aps: 1,
            ..quick_config()
        };
        match Registry::get(ExperimentId::CampaignFleet).try_run(&config) {
            Err(ExperimentError::Config(message)) => assert!(message.contains("fleet_aps")),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn overpacked_sharded_fleet_surfaces_the_shard_config_error() {
        // Every shard plans the whole fleet's seat layout, so a shard fails
        // the per-AP capacity check with the same Config error as the
        // unsharded run, never a synthesized budget failure.
        let config = RunConfig {
            fleet_clients: 1_000_000,
            fleet_aps: 4,
            ..quick_config()
        };
        for plan in ShardPlan::split(&config, 2) {
            match run_campaign_shard(&config, plan, &RunCtx::default()) {
                Err(ExperimentError::Config(message)) => assert!(message.contains("fleet_aps")),
                other => panic!("expected the shard's config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error_that_spares_siblings() {
        // Three events are not enough for even one handshake, so the
        // packet-level experiments fail — as an error, not a panic — while
        // the sibling task in the same sweep completes.
        let starved = RunConfig {
            event_budget: 3,
            ..quick_config()
        };
        let results = try_run_many(
            &[ExperimentId::Fig2, ExperimentId::Ablation],
            &[starved],
            2,
        );
        assert_eq!(results.len(), 2);
        match &results[0] {
            Err(ExperimentError::Net(NetError::EventBudgetExhausted { budget: 3 })) => {}
            other => panic!("expected a typed budget error, got {other:?}"),
        }
        let sibling = results[1].as_ref().expect("sibling experiment unaffected");
        assert_eq!(sibling.id, ExperimentId::Ablation);
    }

    #[test]
    fn try_run_many_isolates_panicking_tasks() {
        struct Bomb;
        impl Experiment for Bomb {
            fn id(&self) -> ExperimentId {
                ExperimentId::Ablation
            }
            fn try_run_ctx(&self, _config: &RunConfig, _ctx: &RunCtx) -> Result<Artifact, ExperimentError> {
                panic!("boom");
            }
        }
        // `run` surfaces `try_run` errors as panics with the experiment id.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| Bomb.run(&RunConfig::default())));
        assert!(caught.is_err());
    }
}
