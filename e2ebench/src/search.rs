//! `search_10k`: resident 10k-node `scaled` deployments built in set-up,
//! each solved again and again by the serial anytime search under a fixed
//! iteration budget from solver seeds drawn from the workload seed. The
//! deployments are a fixed instance family (deployment seeds 1 and 2), so
//! runs differ only in the search trajectories. The tabu search, the
//! `PartialSchedule` rebuilds and the legalizer's re-simulation take
//! almost all the time; under an iteration budget the trajectory is
//! deterministic, so a faster layer shows as a lower response time with
//! the same schedule lengths.

use std::time::Instant;

use wsn_anytime::{solve_anytime, AnytimeConfig, Budget, PartialSchedule};
use wsn_dutycycle::AlwaysAwake;
use wsn_interference::ConflictGraphBuilder;
use wsn_phy::ProtocolModel;
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::{metrics, NodeId, Topology};

use crate::check;
use crate::harness::{self, mean, median, ms_since, tail, Args, Outcome, Rng, SpanTimes};
use crate::Layers;

/// Set-up repetitions; set-up time is their median.
const SETUP_REPS: usize = 3;

/// Deployment seeds of the resident instances, for
/// `SyntheticDeployment::scaled(nodes).sample(seed)`.
const DEPLOYMENT_SEEDS: [u64; 2] = [1, 2];

struct Scale {
    nodes: usize,
    iterations: u64,
}

const FULL: Scale = Scale {
    nodes: 10_000,
    iterations: 50_000,
};
const TOY: Scale = Scale {
    nodes: 300,
    iterations: 2_000,
};

struct Resident {
    topo: Topology,
    source: NodeId,
    depth: u32,
}

fn build(scale: &Scale) -> Vec<Resident> {
    DEPLOYMENT_SEEDS
        .iter()
        .map(|&dep_seed| {
            let (topo, source) = SyntheticDeployment::scaled(scale.nodes).sample(dep_seed);
            let depth = metrics::bfs_hops(&topo, source)
                .into_iter()
                .max()
                .unwrap_or(0);
            Resident {
                topo,
                source,
                depth,
            }
        })
        .collect()
}

pub fn run(args: &Args, layers: &mut Layers) -> Outcome {
    let scale = if args.toy { TOY } else { FULL };
    let mut out = Outcome::default();

    // Set-up: the resident deployments, built SETUP_REPS times (each copy
    // dropped before the next is built) plus one greedy warm-up solve each.
    let mut setup = Vec::new();
    let mut residents = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut residents));
        let started = Instant::now();
        residents = build(&scale);
        for r in &residents {
            std::hint::black_box(harness::greedy(&r.topo, r.source));
        }
        setup.push(started.elapsed().as_secs_f64());
    }
    let adjacency: Vec<Vec<Vec<u32>>> = residents
        .iter()
        .map(|r| check::neighbour_lists(r.topo.positions(), r.topo.radius()))
        .collect();

    let rec = args.trace.then(harness::recorder);
    if let Some(rec) = &rec {
        wsn_obs::install(rec.clone());
        probe_layers(&residents, layers);
        wsn_obs::uninstall();
    }

    let (mut plain, mut traced_resp) = (Vec::new(), Vec::new());
    let (mut slots, mut gaps) = (Vec::new(), Vec::new());
    let (mut passes, mut restarts, mut best_at) = (Vec::new(), Vec::new(), Vec::new());
    let (mut moves, mut traced_secs) = (0u64, 0.0);
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed().as_secs_f64() < args.seconds {
        let d = i as usize % residents.len();
        let r = &residents[d];
        let cfg = AnytimeConfig {
            budget: Budget::Iterations(scale.iterations),
            seed: Rng::keyed(args.seed, i, 3).next_u64(),
            ..AnytimeConfig::default()
        };
        // Traced runs alternate untraced and traced rounds over the
        // deployments, so both halves see every deployment.
        let traced = rec.is_some() && (i as usize / residents.len()) % 2 == 1;
        if let (Some(rec), true) = (&rec, traced) {
            wsn_obs::install(rec.clone());
        }
        let span = |name| {
            if traced {
                wsn_obs::span(name)
            } else {
                wsn_obs::Span::none()
            }
        };
        let started = Instant::now();
        let s = span("anytime.solve");
        let sol = solve_anytime(&r.topo, r.source, &AlwaysAwake, &ProtocolModel, &cfg);
        drop(s);
        let response_ms = ms_since(started);
        let s = span("core.verify");
        let verified = sol
            .schedule
            .verify_with_model(&r.topo, &AlwaysAwake, &ProtocolModel);
        drop(s);
        if traced {
            wsn_obs::uninstall();
        }

        out.attempted += 1;
        let adj = &adjacency[d];
        let checked = verified
            .map_err(|e| format!("verify_with_model: {e:?}"))
            .and_then(|()| check::protocol_replay(adj, &sol.schedule))
            .and_then(|()| {
                if sol.latency == sol.schedule.latency() {
                    Ok(())
                } else {
                    Err(format!(
                        "outcome latency {} but schedule latency {}",
                        sol.latency,
                        sol.schedule.latency()
                    ))
                }
            });
        if let Err(e) = checked {
            out.fail(i, e);
        } else {
            if traced {
                traced_resp.push(response_ms);
                moves += sol.moves;
                traced_secs += response_ms / 1e3;
                passes.push(sol.passes as f64);
                restarts.push(sol.restarts as f64);
                best_at.push(sol.trace.last().map_or(0, |p| p.moves) as f64);
            } else {
                plain.push(response_ms);
            }
            let s = sol.schedule.latency() as f64;
            slots.push(s);
            gaps.push(s - r.depth as f64);
        }
        i += 1;
    }
    let ok = (out.attempted - out.failures.len() as u64) as f64;
    out.info("solves", out.attempted as f64);

    if let Some(rec) = rec {
        let spans = SpanTimes::collect(&rec);
        for (key, name) in [
            ("topology.bfs_ms", "topology.bfs"),
            ("anytime.greedy_ms", "anytime.greedy"),
            ("anytime.partial_build_ms", "anytime.partial_build"),
            ("anytime.solve_ms", "anytime.solve"),
            ("core.verify_ms", "core.verify"),
        ] {
            layers.set(key, spans.median_ms(name));
        }
        layers.set("anytime.moves_per_s", moves as f64 / traced_secs.max(1e-9));
        layers.set("anytime.passes", mean(&passes));
        layers.set("anytime.restarts", mean(&restarts));
        layers.set("anytime.best_at_moves", mean(&best_at));
        layers.set(
            "obs.trace_overhead_frac",
            median(&traced_resp) / median(&plain) - 1.0,
        );
        layers.set(
            "fail_frac",
            out.failures.len() as f64 / out.attempted.max(1) as f64,
        );
        return out;
    }

    let (tail_ms, tail_pct) = tail(&plain);
    out.info("response_tail_percentile", tail_pct);
    out.metric("setup_s", median(&setup));
    out.metric("response_p50_ms", median(&plain));
    out.metric("response_tail_ms", tail_ms);
    out.metric("broadcast_slots", mean(&slots));
    out.metric("gap_slots", mean(&gaps));
    out.metric("peak_rss_mb", harness::peak_rss_mb());
    // Two metrics of `serve_mix`, in the form their definitions take with
    // no deadline and one closed-loop caller: every run prints them all.
    out.metric("deadline_met_frac", ok / out.attempted.max(1) as f64);
    out.metric("rate_at_slo_per_s", 1e3 / mean(&plain));
    out
}

/// Traced runs only: time the layers a search pass is built from, once
/// per resident deployment — the BFS lower bound, the greedy seed, and the
/// `PartialSchedule` every pass rebuilds from it.
fn probe_layers(residents: &[Resident], layers: &mut Layers) {
    let mut rows = Vec::new();
    let mut edges = Vec::new();
    for r in residents {
        let s = wsn_obs::span("topology.bfs");
        std::hint::black_box(metrics::bfs_hops(&r.topo, r.source));
        drop(s);
        let s = wsn_obs::span("anytime.greedy");
        let greedy = harness::greedy(&r.topo, r.source);
        drop(s);
        let mut builder = ConflictGraphBuilder::new();
        let s = wsn_obs::span("anytime.partial_build");
        std::hint::black_box(PartialSchedule::from_schedule(
            &greedy.schedule,
            &r.topo,
            &ProtocolModel,
            &mut builder,
        ));
        drop(s);
        rows.push(builder.stats().rows_built as f64);
        edges.push(r.topo.csr().edge_count() as f64);
    }
    layers.set("interference.conflict_rows_built", mean(&rows));
    layers.set("topology.edges", mean(&edges));
}
