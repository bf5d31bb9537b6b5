//! Ablation of the injection race (DESIGN.md: "first-segment-wins"): the
//! attack works exactly while the attacker's spoofed response reaches the
//! victim before the genuine server's response, and degrades gracefully to a
//! clean page load when it does not.
//!
//! Each race is a one-cell attack-surface grid: one victim, one master
//! reaction time, one server WAN latency, no jitter.

use parasite::experiments::{run_many, ExperimentId, RunConfig};

/// Whether the master wins a one-victim race at `reaction_us` against a
/// genuine server `server_one_way_us` away.
fn injection_race_wins(reaction_us: u64, server_one_way_us: u64) -> bool {
    let config = RunConfig {
        surface_trials: 1,
        surface_delay_start_us: reaction_us,
        surface_delay_end_us: reaction_us,
        surface_delay_steps: 1,
        surface_wan_start_us: server_one_way_us,
        surface_wan_end_us: server_one_way_us,
        surface_wan_steps: 1,
        surface_adoption_steps: 1,
        surface_vectors: 0b1,
        jitter_us: 0,
        ..RunConfig::default()
    };
    let artifacts = run_many(&[ExperimentId::AttackSurface], &[config], 1);
    let surface = artifacts[0].data.as_attack_surface().expect("surface artifact");
    match surface.vectors[0].race_wins[..] {
        [wins] => wins == 1,
        ref cells => panic!("a one-cell grid has one cell, got {cells:?}"),
    }
}

#[test]
fn fast_local_attacker_beats_a_distant_server() {
    // 0.3 ms reaction vs a 40 ms one-way WAN: the paper's WiFi scenario.
    assert!(injection_race_wins(300, 40_000));
    // Even a sluggish attacker wins against a typical Internet path.
    assert!(injection_race_wins(10_000, 40_000));
}

#[test]
fn attacker_loses_once_the_genuine_response_arrives_first() {
    // The genuine response needs ~2 * wan + processing; an attacker that
    // reacts far slower than that delivers its spoof too late and the victim
    // keeps the genuine script.
    assert!(!injection_race_wins(2_000_000, 5_000));
}

#[test]
fn crossover_is_monotone_in_attacker_reaction_time() {
    // Sweep the reaction time for a fixed 10 ms one-way server path; once the
    // attacker starts losing it never wins again at slower reactions.
    let wins: Vec<bool> = [300, 1_000, 5_000, 20_000, 60_000, 200_000, 1_000_000]
        .into_iter()
        .map(|reaction_us| injection_race_wins(reaction_us, 10_000))
        .collect();
    let crossover = wins.iter().position(|&won| !won).expect("the sweep must cross from winning to losing");
    assert!(crossover > 0, "the fastest attacker must win: {wins:?}");
    assert!(!wins[crossover..].contains(&true), "no win after the first loss: {wins:?}");
}

#[test]
fn nearby_servers_shrink_the_injection_window() {
    // A CDN-like 2 ms one-way path: a 0.3 ms attacker still wins, a 30 ms one
    // does not. This is the quantitative core of the paper's advice to reduce
    // reliance on far-away origins for security-critical scripts.
    assert!(injection_race_wins(300, 2_000));
    assert!(!injection_race_wins(30_000, 2_000));
}
