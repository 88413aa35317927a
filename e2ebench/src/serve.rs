//! `serve_mix`: an in-process `wsn_serve::Daemon` with two resident
//! 2k-node `scaled` shards, one under the protocol model and one under
//! SINR, driven in an open loop at fixed rates by one generator thread.
//! Each request is a jsonl line that goes through `Request::parse` and
//! `Daemon::submit`; each reply is encoded back to a line. The mix gives
//! equal weight to the five request kinds: greedy-rung solves, warm-rung
//! solves, churn deaths, estimator observations (with drift-triggered
//! replans) and queries.
//!
//! Stationarity: the protocol shard's deaths come from a fixed pool that
//! set-up kills entirely, so every later churn names nodes that are
//! already dead and every solve there is a repair against the same dead
//! set; the SINR shard is never churned, so its solves go through the
//! warm-start cache. The request sequence is a fixed function of the
//! workload seed and the request index.

use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use wsn_phy::{PhyModelSpec, SinrParams};
use wsn_serve::ladder::WARM_MS;
use wsn_serve::{Daemon, DaemonConfig, Json, Request};
use wsn_topology::deploy::SyntheticDeployment;
use wsn_topology::{metrics, NodeId, Topology};

use crate::harness::{self, mean, median, percentile, tail, Args, Outcome, Rng, SpanTimes};
use crate::Layers;

/// Deadline of a greedy-rung request: half the warm rung's threshold.
const GREEDY_DEADLINE_MS: u64 = WARM_MS / 2;
/// Deadline of a warm-rung request: the warm rung's threshold, the
/// shortest deadline that buys it.
const WARM_DEADLINE_MS: u64 = WARM_MS;
/// Latency limit on `response_tail_ms` for `rate_at_slo_per_s`.
const SLO_TAIL_MS: f64 = 250.0;
/// Deaths in the protocol shard's pool.
const DEAD_POOL: usize = 4;
/// Set-up repetitions (daemon start, shards built and answering,
/// warm-up); set-up time is their median.
const SETUP_REPS: usize = 3;
/// Ratio between neighbouring rungs of the rate ladder.
const LADDER_STEP: f64 = 1.06;
/// Share of `--seconds` spent at the reporting rate; the ladder's rungs
/// above it split the rest.
const REPORT_SHARE: f64 = 0.4;

struct Scale {
    nodes: usize,
    /// The reporting rate, req/s: the run's response, schedule and
    /// deadline metrics come from it, and it is the ladder's bottom rung.
    report_rate: f64,
    /// The ladder's rungs above the reporting rate: `rungs` rates,
    /// `LADDER_STEP` apart, from `ladder_base` req/s.
    ladder_base: f64,
    rungs: i32,
}

impl Scale {
    fn ladder(&self) -> Vec<f64> {
        std::iter::once(self.report_rate)
            .chain((0..self.rungs).map(|k| self.ladder_base * LADDER_STEP.powi(k)))
            .collect()
    }
}

// The reporting rate is an assumption, not taken from a request trace. The
// rungs above it run from 0.7x to 1.4x the mix's capacity, which is about
// 110 req/s on a 2-vCPU host: the capacity moves by about a tenth between
// runs there, so steps finer than that keep one run's rung from jumping far
// from the next run's. A capacity below the lowest of these rungs reads as
// the reporting rate.
const FULL: Scale = Scale {
    nodes: 2_000,
    report_rate: 20.0,
    ladder_base: 80.0,
    rungs: 12,
};
const TOY: Scale = Scale {
    nodes: 200,
    report_rate: 20.0,
    ladder_base: 40.0,
    rungs: 1,
};

/// A shard as the benchmark knows it: its name and model, and its own
/// copy of the deployment (same recipe and seed as the daemon's) for the
/// lower bound.
struct Shard {
    name: &'static str,
    model: &'static str,
    seed: u64,
    topo: Topology,
    source: NodeId,
    dead: Vec<NodeId>,
    /// BFS depth over the surviving nodes: the lower bound.
    depth: u32,
}

impl Shard {
    fn new(name: &'static str, model: &'static str, seed: u64, nodes: usize) -> Shard {
        let (topo, source) = SyntheticDeployment::scaled(nodes).sample(seed);
        let depth = metrics::bfs_hops(&topo, source)
            .into_iter()
            .max()
            .unwrap_or(0);
        Shard {
            name,
            model,
            seed,
            topo,
            source,
            dead: Vec::new(),
            depth,
        }
    }

    /// Picks the dead pool: `k` distinct non-source nodes whose removal
    /// leaves every other node reachable from the source.
    fn kill_pool(&mut self, k: usize, rng: &mut Rng) {
        let n = self.topo.len();
        while self.dead.len() < k {
            let v = NodeId(rng.below(n as u64) as u32);
            if v == self.source || self.dead.contains(&v) {
                continue;
            }
            let mut mask = wsn_bitset::NodeSet::new(n);
            for d in self.dead.iter().chain([&v]) {
                mask.insert(d.idx());
            }
            let hops = metrics::bfs_hops_masked(&self.topo, self.source, &mask);
            let reachable = hops.iter().filter(|&&h| h != metrics::UNREACHABLE).count();
            if reachable == n - self.dead.len() - 1 {
                self.dead.push(v);
                self.depth = hops
                    .into_iter()
                    .filter(|&h| h != metrics::UNREACHABLE)
                    .max()
                    .unwrap_or(0);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Solve,
    Churn,
    Observe,
    Query,
}

/// One block of the request mix, as `(kind, shard, warm rung)`: shard 0
/// is the protocol shard, 1 the SINR shard. The five request kinds
/// (greedy solve, warm solve, churn, observe, query) weigh the same and
/// each goes to both shards alike, except churn, which goes to the
/// protocol shard only (see the module docs). The weights are an
/// assumption, not a recorded trace. Every block of `MIX.len()`
/// consecutive requests holds exactly this mix, in an order shuffled from
/// the workload seed, so runs differ in order and request parameters but
/// not in composition.
const MIX: &[(Kind, usize, bool)] = &[
    (Kind::Solve, 0, false),
    (Kind::Solve, 1, false),
    (Kind::Solve, 0, true),
    (Kind::Solve, 1, true),
    (Kind::Churn, 0, true),
    (Kind::Churn, 0, true),
    (Kind::Observe, 0, true),
    (Kind::Observe, 1, true),
    (Kind::Query, 0, false),
    (Kind::Query, 1, false),
];

/// Request `i` of the sequence: a fixed function of the workload seed.
fn request(seed: u64, i: u64, shards: &[Shard]) -> (Kind, usize, String) {
    let block = i / MIX.len() as u64;
    let mut order: Vec<usize> = (0..MIX.len()).collect();
    let mut r = Rng::keyed(seed, block, 5);
    for k in (1..order.len()).rev() {
        order.swap(k, r.below(k as u64 + 1) as usize);
    }
    let (kind, s, warm) = MIX[order[(i % MIX.len() as u64) as usize]];
    let mut r = Rng::keyed(seed, i, 6);
    let name = shards[s].name;
    let deadline = if warm {
        WARM_DEADLINE_MS
    } else {
        GREEDY_DEADLINE_MS
    };
    let line = match kind {
        Kind::Solve => format!(r#"{{"op":"solve","shard":"{name}","deadline_ms":{deadline}}}"#),
        Kind::Churn => {
            // Names a node of the pool, which set-up already killed.
            let pool = &shards[s].dead;
            let victim = pool[r.below(pool.len() as u64) as usize];
            format!(
                r#"{{"op":"churn","shard":"{name}","dead":[{}],"deadline_ms":{deadline}}}"#,
                victim.0
            )
        }
        Kind::Observe => {
            // One of two link qualities, equally likely: a change of truth
            // drifts the estimate and triggers a replan.
            let truth = if r.below(2) == 0 { 0.7 } else { 0.9 };
            format!(
                r#"{{"op":"observe","shard":"{name}","truth":{truth},"rounds":20,"seed":{},"deadline_ms":{deadline}}}"#,
                r.below(1 << 31)
            )
        }
        Kind::Query => format!(r#"{{"op":"query","shard":"{name}"}}"#),
    };
    (kind, s, line)
}

/// Sends `line` and blocks for the reply (set-up and bookkeeping only).
fn ask(daemon: &Daemon, line: &str) -> Json {
    let req = Request::parse(line).expect("benchmark request parses");
    daemon
        .submit(req)
        .recv()
        .expect("daemon replies to every request")
}

fn field_bool(j: &Json, k: &str) -> Option<bool> {
    j.get(k).and_then(Json::as_bool)
}

/// Starts a daemon, creates both shards, waits until each answers, and
/// warms it up: the protocol shard's whole dead pool dies, then each shard
/// serves one request of every kind. Returns the daemon and the first
/// greedy solve's wall time on each cold shard. The daemon's recorder is
/// not installed: untraced runs, and the untraced blocks of a traced run,
/// serve with observability off.
fn start(shards: &[Shard], nodes: usize) -> (Daemon, Vec<f64>) {
    let daemon = Daemon::new(DaemonConfig::default());
    for s in shards {
        let r = ask(
            &daemon,
            &format!(
                r#"{{"op":"create","shard":"{}","nodes":{nodes},"seed":{},"deployment":"scaled","model":"{}"}}"#,
                s.name, s.seed, s.model
            ),
        );
        assert_eq!(field_bool(&r, "ok"), Some(true), "create failed: {r}");
    }
    let mut first_solve = Vec::new();
    for s in shards {
        // `create` returns before the shard is built; a query is served
        // only once it is.
        ask(
            &daemon,
            &format!(r#"{{"op":"query","shard":"{}"}}"#, s.name),
        );
        let t = Instant::now();
        let r = ask(
            &daemon,
            &format!(
                r#"{{"op":"solve","shard":"{}","deadline_ms":{GREEDY_DEADLINE_MS}}}"#,
                s.name
            ),
        );
        first_solve.push(harness::ms_since(t));
        assert_eq!(
            field_bool(&r, "ok"),
            Some(true),
            "warm-up solve failed: {r}"
        );
        if !s.dead.is_empty() {
            let ids: Vec<String> = s.dead.iter().map(|d| d.0.to_string()).collect();
            let r = ask(
                &daemon,
                &format!(
                    r#"{{"op":"churn","shard":"{}","dead":[{}],"deadline_ms":{WARM_DEADLINE_MS}}}"#,
                    s.name,
                    ids.join(",")
                ),
            );
            assert_eq!(
                field_bool(&r, "ok"),
                Some(true),
                "warm-up churn failed: {r}"
            );
        }
        for line in [
            format!(
                r#"{{"op":"solve","shard":"{}","deadline_ms":{WARM_DEADLINE_MS}}}"#,
                s.name
            ),
            format!(
                r#"{{"op":"observe","shard":"{}","truth":0.9,"rounds":20,"seed":1,"deadline_ms":{WARM_DEADLINE_MS}}}"#,
                s.name
            ),
        ] {
            let r = ask(&daemon, &line);
            assert_eq!(field_bool(&r, "ok"), Some(true), "warm-up failed: {r}");
        }
    }
    (daemon, first_solve)
}

/// One answered (or refused) request.
struct Done {
    i: u64,
    traced: bool,
    kind: Kind,
    shard: usize,
    response_ms: f64,
    met_deadline: bool,
    /// Served schedule length and tier, when the reply carries one.
    latency: Option<f64>,
    warm_tier: bool,
    replanned: Option<bool>,
    shed: bool,
}

/// Everything one open-loop step measured.
#[derive(Default)]
struct Step {
    sent: u64,
    done: Vec<Done>,
    late_ms: Vec<f64>,
    failures: Vec<(u64, String)>,
}

impl Step {
    fn responses(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.response_ms).collect()
    }

    fn sheds(&self) -> u64 {
        self.done.iter().filter(|d| d.shed).count() as u64
    }

    /// `response_tail_ms` of the step: `(value, percentile)`.
    fn tail(&self) -> (f64, f64) {
        tail(&self.responses())
    }
}

struct Pending {
    i: u64,
    traced: bool,
    kind: Kind,
    shard: usize,
    due: Instant,
    deadline_ms: u64,
    rx: Receiver<Json>,
}

/// Offers requests `first..first + count` at `rate` req/s, due times evenly
/// spaced, and collects every reply. Each response is timed from its due
/// time to its encoded reply line. With a recorder, requests alternate in
/// blocks of `MIX.len()`: in odd blocks the recorder is installed, so the
/// daemon records its metrics, and parse and encode run inside spans; in
/// even blocks it is not installed. Every block holds the same mix, so the
/// two halves differ only in tracing. Returns after the last reply.
fn open_loop(
    daemon: &Daemon,
    shards: &[Shard],
    seed: u64,
    first: u64,
    count: u64,
    rate: f64,
    rec: Option<&wsn_obs::Recorder>,
) -> Step {
    let span = |traced, name| {
        if traced {
            wsn_obs::span(name)
        } else {
            wsn_obs::Span::none()
        }
    };
    let mut step = Step::default();
    let mut pending: Vec<Pending> = Vec::new();
    let start = Instant::now();
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / rate);
    let mut k = 0;
    while k < count || !pending.is_empty() {
        let now = Instant::now();
        if k < count && now >= due(k) {
            let i = first + k;
            let (kind, shard, line) = request(seed, i, shards);
            step.sent += 1;
            step.late_ms.push((now - due(k)).as_secs_f64() * 1e3);
            let traced = rec.is_some() && (i / MIX.len() as u64) % 2 == 1;
            if let Some(rec) = rec {
                if traced && !wsn_obs::enabled() {
                    wsn_obs::install(rec.clone());
                } else if !traced && wsn_obs::enabled() {
                    wsn_obs::uninstall();
                }
            }
            let s = span(traced, "serve.parse");
            let req = Request::parse(&line);
            drop(s);
            match req {
                Ok(req) => {
                    let deadline_ms = req.deadline_ms();
                    pending.push(Pending {
                        i,
                        traced,
                        kind,
                        shard,
                        due: due(k),
                        deadline_ms,
                        rx: daemon.submit(req),
                    });
                }
                Err(e) => step
                    .failures
                    .push((i, format!("request did not parse: {e}"))),
            }
            k += 1;
            continue;
        }
        let mut idx = 0;
        while idx < pending.len() {
            let reply = match pending[idx].rx.try_recv() {
                Ok(reply) => reply,
                Err(TryRecvError::Empty) => {
                    idx += 1;
                    continue;
                }
                Err(TryRecvError::Disconnected) => {
                    let p = pending.swap_remove(idx);
                    step.failures.push((p.i, "reply channel dropped".into()));
                    continue;
                }
            };
            let p = pending.swap_remove(idx);
            let s = span(p.traced, "serve.encode");
            let encoded = reply.to_string();
            drop(s);
            let response_ms = p.due.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(encoded);
            step.done
                .push(judge(&p, &reply, response_ms, &mut step.failures));
        }
        let next = if k < count {
            due(k)
        } else {
            now + Duration::from_millis(1)
        };
        let wait = next
            .saturating_duration_since(Instant::now())
            .min(Duration::from_micros(200));
        std::thread::sleep(wait);
    }
    step
}

/// Checks one reply and records what it says.
fn judge(p: &Pending, reply: &Json, response_ms: f64, failures: &mut Vec<(u64, String)>) -> Done {
    let ok = field_bool(reply, "ok") == Some(true);
    let shed = reply.get("kind").and_then(Json::as_str) == Some("overloaded");
    let replanned = field_bool(reply, "replanned");
    let carries_schedule = matches!(p.kind, Kind::Solve | Kind::Churn) || replanned == Some(true);
    let latency = reply.get("latency").and_then(Json::as_f64);
    let mut good = ok;
    if !ok && !shed {
        failures.push((p.i, format!("error reply: {reply}")));
    } else if ok
        && carries_schedule
        && (field_bool(reply, "verified") != Some(true) || latency.is_none())
    {
        failures.push((p.i, format!("schedule reply not verified: {reply}")));
        good = false;
    }
    Done {
        i: p.i,
        traced: p.traced,
        kind: p.kind,
        shard: p.shard,
        response_ms,
        met_deadline: good && response_ms <= p.deadline_ms as f64,
        latency: if carries_schedule && good {
            latency
        } else {
            None
        },
        warm_tier: reply.get("tier").and_then(Json::as_str) == Some("warm"),
        replanned,
        shed,
    }
}

/// Cache hits and misses summed over the shards' query replies.
fn cache_counts(daemon: &Daemon, shards: &[Shard]) -> (f64, f64) {
    shards.iter().fold((0.0, 0.0), |(h, m), s| {
        let r = ask(daemon, &format!(r#"{{"op":"query","shard":"{}"}}"#, s.name));
        let get = |k| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        (h + get("cache_hits"), m + get("cache_misses"))
    })
}

/// The benchmark's copies of the shards: the protocol shard (deployment
/// seed 1) with its dead pool, and the SINR shard (deployment seed 2). The
/// pool is fixed like the deployments: which nodes die sets the repaired
/// schedule's length, which should change only when the program does.
fn shards(nodes: usize) -> Vec<Shard> {
    let mut shards = vec![
        Shard::new("protocol", "protocol", 1, nodes),
        Shard::new("sinr", "sinr", 2, nodes),
    ];
    shards[0].kill_pool(DEAD_POOL, &mut Rng::keyed(1, 0, 6));
    shards
}

pub fn run(args: &Args, layers: &mut Layers) -> Outcome {
    let scale = if args.toy { TOY } else { FULL };
    let mut out = Outcome::default();

    // The process's first adjacency builds: the benchmark's shard copies.
    let before = harness::rss_mb();
    let shards = shards(scale.nodes);
    layers.set("topology.unit_disk_rss_mb", harness::rss_mb() - before);
    layers.set(
        "topology.edges",
        mean(
            &shards
                .iter()
                .map(|s| s.topo.csr().edge_count() as f64)
                .collect::<Vec<_>>(),
        ),
    );

    let t = Instant::now();
    let (daemon, first_solves) = start(&shards, scale.nodes);
    let mut setup = vec![t.elapsed().as_secs_f64()];
    out.info("cold_first_greedy_solve_ms.protocol", first_solves[0]);
    out.info("cold_first_greedy_solve_ms.sinr", first_solves[1]);
    out.info("greedy_deadline_ms", GREEDY_DEADLINE_MS as f64);
    out.info("warm_deadline_ms", WARM_DEADLINE_MS as f64);

    let count = |out: &mut Outcome, step: &Step, sheds_fail: bool| {
        out.attempted += step.sent;
        for (i, e) in &step.failures {
            out.fail(*i, e.clone());
        }
        for d in step.done.iter().filter(|d| d.shed) {
            if sheds_fail {
                out.fail(d.i, "shed at the reporting rate");
            } else {
                // Sheds above the reporting rate are the ladder's signal
                // that a rate is too high, not failed operations.
                out.attempted -= 1;
            }
        }
    };

    if args.trace {
        let sinr = &shards[1].topo;
        let builds: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(
                    PhyModelSpec::sinr(SinrParams::calibrated(sinr.radius(), 3.0, 1.5)).build(sinr),
                );
                harness::ms_since(t)
            })
            .collect();
        layers.set("phy.sinr_build_ms", median(&builds));

        // The whole run at the reporting rate, without the ladder.
        let rec = harness::recorder();
        let n = (args.seconds * scale.report_rate).ceil() as u64;
        let (h0, m0) = cache_counts(&daemon, &shards);
        let step = open_loop(
            &daemon,
            &shards,
            args.seed,
            0,
            n,
            scale.report_rate,
            Some(&rec),
        );
        wsn_obs::uninstall();
        count(&mut out, &step, true);
        let (h1, m1) = cache_counts(&daemon, &shards);
        fill_layers(layers, &rec, &step);
        let lookups = (h1 - h0) + (m1 - m0);
        layers.set(
            "anytime.cache_hit_frac",
            if lookups > 0.0 {
                (h1 - h0) / lookups
            } else {
                0.0
            },
        );
        layers.set(
            "fail_frac",
            out.failures.len() as f64 / out.attempted.max(1) as f64,
        );
        return out;
    }

    // The reporting step, which is the ladder's bottom rung, then the
    // rungs above it in rising order until one misses the limit or sheds.
    let ladder = scale.ladder();
    let report_n = (args.seconds * REPORT_SHARE * scale.report_rate).ceil() as u64;
    let report = open_loop(
        &daemon,
        &shards,
        args.seed,
        0,
        report_n,
        scale.report_rate,
        None,
    );
    count(&mut out, &report, true);
    let rung_secs = args.seconds * (1.0 - REPORT_SHARE) / (ladder.len() - 1) as f64;
    let mut next = report_n;
    let mut rate_at_slo = 0.0;
    for (k, &rate) in ladder.iter().enumerate() {
        let probe;
        let step = if k == 0 {
            &report
        } else {
            let n = (rung_secs * rate).ceil() as u64;
            probe = open_loop(&daemon, &shards, args.seed, next, n, rate, None);
            next += n;
            count(&mut out, &probe, false);
            &probe
        };
        let (tail_ms, _) = step.tail();
        out.info(format!("rung_{rate:.1}_per_s.tail_ms"), tail_ms);
        out.info(format!("rung_{rate:.1}_per_s.sheds"), step.sheds() as f64);
        if step.sheds() > 0 || tail_ms > SLO_TAIL_MS {
            break;
        }
        rate_at_slo = rate;
    }

    let responses = report.responses();
    let (tail_ms, tail_pct) = report.tail();
    // Schedule length and gap per shard, then averaged over the shards, so
    // the share of observes that replanned does not weigh the shards.
    let (mut slots, mut gaps) = (Vec::new(), Vec::new());
    for (k, shard) in shards.iter().enumerate() {
        let served: Vec<f64> = report
            .done
            .iter()
            .filter(|d| d.shard == k)
            .filter_map(|d| d.latency)
            .collect();
        slots.push(mean(&served));
        gaps.push(mean(&served) - shard.depth as f64);
    }
    let met = report.done.iter().filter(|d| d.met_deadline).count();
    out.info("response_tail_percentile", tail_pct);
    out.info("report_rate_per_s", scale.report_rate);
    out.info("slo_tail_ms", SLO_TAIL_MS);
    out.metric("response_p50_ms", median(&responses));
    out.metric("response_tail_ms", tail_ms);
    out.metric("broadcast_slots", mean(&slots));
    out.metric("gap_slots", mean(&gaps));
    out.metric("peak_rss_mb", harness::peak_rss_mb());
    out.metric("deadline_met_frac", met as f64 / report.sent.max(1) as f64);
    out.metric("rate_at_slo_per_s", rate_at_slo);

    // The other set-ups run after the peak resident set is read, each
    // after the previous daemon has shut down: memory a freed daemon leaves
    // with the allocator does not count in `peak_rss_mb`.
    drop(daemon);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let (daemon, _) = start(&shards, scale.nodes);
        setup.push(t.elapsed().as_secs_f64());
        drop(daemon);
    }
    out.metric("setup_s", median(&setup));
    out
}

/// Per-layer numbers of a traced run: the benchmark's spans around parse
/// and encode, per-op response times, reply fields, and the daemon's own
/// `serve.request_us` / `serve.reschedule_us` histograms.
fn fill_layers(layers: &mut Layers, rec: &wsn_obs::Recorder, step: &Step) {
    let spans = SpanTimes::collect(rec);
    // Responses sent in traced or in untraced blocks (see `open_loop`).
    let half = |traced: bool| -> Vec<f64> {
        step.done
            .iter()
            .filter(|d| d.traced == traced)
            .map(|d| d.response_ms)
            .collect()
    };
    layers.set("serve.parse_us", spans.mean_ms("serve.parse") * 1e3);
    layers.set("serve.encode_us", spans.mean_ms("serve.encode") * 1e3);
    // The daemon's histograms cover the traced blocks only.
    if let Some(h) = rec.histogram_snapshot("serve.request_us") {
        layers.set("serve.service_ms", h.mean() / 1e3);
        layers.set("serve.queue_wait_ms", mean(&half(true)) - h.mean() / 1e3);
    }
    if let Some(h) = rec.histogram_snapshot("serve.reschedule_us") {
        layers.set("anytime.reschedule_ms", h.mean() / 1e3);
    }
    // Mean response per op and shard (solves mix two rungs, so a median
    // would sit between them); the SINR shard is never churned.
    for (kind, shard, key) in [
        (Kind::Solve, 0, "serve.solve_ms.protocol"),
        (Kind::Solve, 1, "serve.solve_ms.sinr"),
        (Kind::Churn, 0, "serve.churn_ms.protocol"),
        (Kind::Observe, 0, "serve.observe_ms.protocol"),
        (Kind::Observe, 1, "serve.observe_ms.sinr"),
        (Kind::Query, 0, "serve.query_ms.protocol"),
        (Kind::Query, 1, "serve.query_ms.sinr"),
    ] {
        let v: Vec<f64> = step
            .done
            .iter()
            .filter(|d| d.kind == kind && d.shard == shard && !d.shed)
            .map(|d| d.response_ms)
            .collect();
        layers.set(key, mean(&v));
    }
    let schedules = step.done.iter().filter(|d| d.latency.is_some());
    let (n, warm) = schedules.fold((0, 0), |(n, w), d| (n + 1, w + d.warm_tier as usize));
    layers.set("serve.tier_warm_frac", warm as f64 / n.max(1) as f64);
    layers.set(
        "serve.shed_frac",
        step.sheds() as f64 / step.done.len().max(1) as f64,
    );
    let observes: Vec<bool> = step.done.iter().filter_map(|d| d.replanned).collect();
    layers.set(
        "serve.replan_frac",
        observes.iter().filter(|&&r| r).count() as f64 / observes.len().max(1) as f64,
    );
    layers.set(
        "obs.trace_overhead_frac",
        median(&half(true)) / median(&half(false)) - 1.0,
    );
    layers.set("harness.gen_late_p99_ms", percentile(&step.late_ms, 99.0));
}
