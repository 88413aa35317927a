//! `cold_30k`: fresh 30k-node deployments, positions in, verified schedule
//! out. Construction dominates: grid binning and the pair scan, adjacency,
//! the connectivity check, the greedy legalizer and verification, with no
//! search and no serving.

use std::time::Instant;

use wsn_dutycycle::AlwaysAwake;
use wsn_geom::{CellGrid, Point};
use wsn_phy::ProtocolModel;
use wsn_topology::{connectivity, metrics, NodeId, Topology};

use crate::check;
use crate::harness::{self, mean, median, ms_since, tail, Args, Outcome, Rng, SpanTimes};
use crate::Layers;

/// The `scaled` deployment's density (nodes per sq-ft) and radius (ft).
pub const DENSITY: f64 = 0.05;
pub const RADIUS: f64 = 10.0;

/// Warm-up operations before the timed phase; set-up time is their median.
const SETUP_REPS: usize = 3;

/// Uniform positions at the `scaled` density, and as source the node
/// nearest a uniform point of one of 16 equal squares of the field: op `i`
/// uses square `i mod 16`, so a run's sources cover the field evenly and
/// its mean schedule length, which follows the source's eccentricity,
/// stays steady from run to run.
pub fn positions(nodes: usize, i: u64, rng: &mut Rng) -> (Vec<Point>, NodeId) {
    let side = (nodes as f64 / DENSITY).sqrt();
    let pts: Vec<Point> = (0..nodes)
        .map(|_| Point::new(rng.unit() * side, rng.unit() * side))
        .collect();
    let square = i % 16;
    let target = Point::new(
        ((square % 4) as f64 + rng.unit()) * side / 4.0,
        ((square / 4) as f64 + rng.unit()) * side / 4.0,
    );
    let src = (0..nodes)
        .min_by(|&a, &b| pts[a].dist2(&target).total_cmp(&pts[b].dist2(&target)))
        .expect("a deployment has nodes");
    (pts, NodeId(src as u32))
}

/// One op's result, checked.
struct Op {
    response_ms: f64,
    slots: f64,
    gap: f64,
    edges: f64,
}

/// Positions in, verified schedule out. `None` when the deployment is
/// disconnected (no broadcast schedule exists).
fn op(nodes: usize, seed: u64, i: u64, traced: bool) -> Option<Result<Op, String>> {
    let (pts, src) = positions(nodes, i, &mut Rng::keyed(seed, i, 0));
    let span = |name| {
        if traced {
            wsn_obs::span(name)
        } else {
            wsn_obs::Span::none()
        }
    };
    let started = Instant::now();
    let s = span("topology.unit_disk");
    let topo = Topology::unit_disk(pts, RADIUS);
    drop(s);
    let s = span("topology.connectivity");
    let connected = connectivity::is_connected(&topo);
    drop(s);
    if !connected {
        return None;
    }
    let s = span("anytime.greedy");
    let out = harness::greedy(&topo, src);
    drop(s);
    let s = span("core.verify");
    let verified = out
        .schedule
        .verify_with_model(&topo, &AlwaysAwake, &ProtocolModel);
    drop(s);
    let response_ms = ms_since(started);

    // Outside the timed region: the independent replay, the lower bound,
    // and (traced) the geometry probes on the same positions.
    if let Err(e) = verified {
        return Some(Err(format!("verify_with_model: {e:?}")));
    }
    let adj = check::neighbour_lists(topo.positions(), RADIUS);
    if let Err(e) = check::protocol_replay(&adj, &out.schedule) {
        return Some(Err(format!("naive replay: {e}")));
    }
    let s = span("topology.bfs");
    let depth = metrics::bfs_hops(&topo, src).into_iter().max().unwrap_or(0);
    drop(s);
    let edges = topo.csr().edge_count();
    if traced {
        let s = span("geom.grid_build");
        let grid = CellGrid::build(topo.positions(), RADIUS);
        drop(s);
        let s = span("geom.pair_scan");
        let mut pairs = 0usize;
        grid.for_each_pair_within(topo.positions(), RADIUS, |_, _| pairs += 1);
        drop(s);
        if pairs != edges {
            return Some(Err(format!(
                "pair scan found {pairs} pairs but the topology has {edges} edges"
            )));
        }
    }
    let slots = out.schedule.latency() as f64;
    Some(Ok(Op {
        response_ms,
        slots,
        gap: slots - depth as f64,
        edges: edges as f64,
    }))
}

pub fn run(args: &Args, layers: &mut Layers) -> Outcome {
    let nodes = if args.toy { 300 } else { 30_000 };
    let mut out = Outcome::default();

    // Resident-set growth of the process's first adjacency build.
    let (pts, _) = positions(nodes, 0, &mut Rng::keyed(args.seed, u64::MAX, 1));
    let before = harness::rss_mb();
    let topo = Topology::unit_disk(pts, RADIUS);
    layers.set("topology.unit_disk_rss_mb", harness::rss_mb() - before);
    drop(topo);

    // Set-up: warm-up ops on their own inputs (op ids past any timed op).
    let setup: Vec<f64> = (0..SETUP_REPS as u64)
        .map(|k| {
            let started = Instant::now();
            let _ = op(nodes, args.seed, u64::MAX - 1 - k, false);
            started.elapsed().as_secs_f64()
        })
        .collect();

    let rec = args.trace.then(harness::recorder);
    let (mut plain, mut traced_resp) = (Vec::new(), Vec::new());
    let (mut slots, mut gaps) = (Vec::new(), Vec::new());
    let mut edges = Vec::new();
    let mut disconnected = 0u64;
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed().as_secs_f64() < args.seconds {
        // Traced runs alternate untraced and traced ops on the same input
        // stream, so the two halves measure the tracing overhead.
        let traced = rec.is_some() && i % 2 == 1;
        if let (Some(rec), true) = (&rec, traced) {
            wsn_obs::install(rec.clone());
        }
        let result = op(nodes, args.seed, i, traced);
        if traced {
            wsn_obs::uninstall();
        }
        match result {
            None => disconnected += 1,
            Some(Err(e)) => {
                out.attempted += 1;
                out.fail(i, e);
            }
            Some(Ok(o)) => {
                out.attempted += 1;
                if traced {
                    traced_resp.push(o.response_ms);
                } else {
                    plain.push(o.response_ms);
                }
                slots.push(o.slots);
                edges.push(o.edges);
                gaps.push(o.gap);
            }
        }
        i += 1;
    }
    let ok = (out.attempted - out.failures.len() as u64) as f64;
    out.info("ops", out.attempted as f64);
    out.info("disconnected_inputs", disconnected as f64);

    if let Some(rec) = rec {
        let spans = SpanTimes::collect(&rec);
        for (key, name) in [
            ("geom.grid_build_ms", "geom.grid_build"),
            ("geom.pair_scan_ms", "geom.pair_scan"),
            ("topology.unit_disk_ms", "topology.unit_disk"),
            ("topology.connectivity_ms", "topology.connectivity"),
            ("topology.bfs_ms", "topology.bfs"),
            ("anytime.greedy_ms", "anytime.greedy"),
            ("core.verify_ms", "core.verify"),
        ] {
            layers.set(key, spans.median_ms(name));
        }
        layers.set("topology.edges", median(&edges));
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
