//! Release-only scale pin: one 1M-node deployment through adjacency
//! construction, the greedy legalizer and model verification.
//!
//! Pins the edge count and the greedy latency, and bounds the peak
//! resident set so that any per-node `n`-bit structure (1M × 1M bits is
//! about 125 GB) fails here instead of swapping a host to death. Run it
//! with `cargo test --release -p wsn-anytime --test scale_pin`.

use wsn_anytime::{solve_anytime, AnytimeConfig, Budget};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy::SyntheticDeployment;

/// Peak resident set of this process in MiB (`VmHWM`), where the kernel
/// reports it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1M nodes: run with `cargo test --release -p wsn-anytime --test scale_pin`"
)]
fn million_nodes_construct_greedy_verify() {
    let started = std::time::Instant::now();
    let (topo, src) = SyntheticDeployment::scaled(1_000_000).sample(1);
    assert_eq!(topo.len(), 1_000_000);
    assert_eq!(topo.csr().edge_count(), 7_839_938);

    let cfg = AnytimeConfig {
        budget: Budget::Iterations(0),
        ..AnytimeConfig::default()
    };
    let out = solve_anytime(&topo, src, &AlwaysAwake, &ProtocolModel, &cfg);
    out.schedule
        .verify_with_model(&topo, &AlwaysAwake, &ProtocolModel)
        .expect("greedy schedule verifies");
    assert_eq!(out.latency, 574);

    let peak = peak_rss_mib();
    eprintln!(
        "1M nodes: {:.2} s wall, peak RSS {peak:?} MiB",
        started.elapsed().as_secs_f64()
    );
    if let Some(mib) = peak {
        assert!(mib < 1024.0, "peak RSS {mib:.0} MiB at 1M nodes");
    }
}
