//! A campaign at population scale: the packet-level `campaign_fleet`
//! experiment. Thousands of clients spread over independent shared-WiFi
//! access points, each AP simulated packet by packet with a memory-bounded
//! `SummaryOnly` trace. Every eighth client asks for an object the master
//! has not prepared and stays clean; the master wins the race for the rest.
//!
//! Run with: `cargo run --release --example campaign_fleet`

use master_parasite::parasite::experiments::{ExperimentId, Registry, RunConfig};

fn main() {
    println!("== packet-level fleet: many cafes, simulated per packet ==");
    let config = RunConfig {
        fleet_clients: 10_000,
        fleet_aps: 32,
        jitter_us: 200,
        ..RunConfig::default()
    };
    let artifact = Registry::get(ExperimentId::CampaignFleet)
        .try_run(&config)
        .expect("the fleet stays within its event budget");
    println!("{}", artifact.render_text());
}
