//! Shared plumbing: command line, seeded input streams, order statistics,
//! process memory, the result line, and span aggregation for traced runs.

use std::collections::BTreeMap;
use std::time::Instant;

use wsn_anytime::{solve_anytime, AnytimeConfig, AnytimeOutcome, Budget};
use wsn_dutycycle::AlwaysAwake;
use wsn_phy::ProtocolModel;
use wsn_topology::{NodeId, Topology};

/// Command line of one benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy scale: every workload shrunk to a few hundred nodes and a
    /// fraction of a second (used by the harness self-test).
    pub toy: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut toy = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    }
                }
                "--scale" => {
                    toy = match value()?.as_str() {
                        "full" => false,
                        "toy" => true,
                        other => return Err(format!("--scale must be full or toy, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            toy,
        })
    }
}

/// SplitMix64: the benchmark's own input stream, independent of the
/// workspace's RNG so that inputs stay fixed when the program's RNG changes.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, a, b)`, e.g. (workload seed, op index, role).
    pub fn keyed(seed: u64, a: u64, b: u64) -> Rng {
        let mut r = Rng(seed ^ 0x6a09_e667_f3bc_c909);
        let x = r.next_u64() ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut r = Rng(x);
        Rng(r.next_u64() ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The greedy legalizer's schedule: `solve_anytime` with no search budget,
/// protocol model, every node awake.
pub fn greedy(topo: &Topology, source: NodeId) -> AnytimeOutcome {
    let cfg = AnytimeConfig {
        budget: Budget::Iterations(0),
        ..AnytimeConfig::default()
    };
    solve_anytime(topo, source, &AlwaysAwake, &ProtocolModel, &cfg)
}

/// Median of `xs` (mean of the middle pair for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail statistic: the highest percentile with at least ten samples
/// beyond it, i.e. the 11th-largest sample. Returns `(value, percentile)`;
/// with ten samples or fewer it falls back to the maximum.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Nearest-rank percentile `p` in `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_whitespace()
        .next()?
        .parse::<f64>()
        .ok()
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Current resident set of this process (VmRSS), MiB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:").unwrap_or(0.0) / 1024.0
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One failed operation, with what a replay needs.
pub struct Failure {
    pub op: u64,
    pub reason: String,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<Failure>,
    /// End-to-end metrics, `(name, value)`; units come from
    /// `BENCHMARK.json`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Context printed on its own line before the result (e.g. which
    /// percentile the tail is).
    pub info: Vec<(String, f64)>,
}

impl Outcome {
    pub fn fail(&mut self, op: u64, reason: impl Into<String>) {
        self.failures.push(Failure {
            op,
            reason: reason.into(),
        });
    }

    pub fn info(&mut self, key: impl Into<String>, value: f64) {
        self.info.push((key.into(), value));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Prints the replay lines, the info line and, last, the result line
    /// with `metrics` as `(name, value, unit)`. Returns whether every check
    /// passed.
    pub fn print(&self, args: &Args, metrics: &[(&str, f64, &str)]) -> bool {
        for f in &self.failures {
            eprintln!(
                "FAILED workload={} seed={} op={} scale={}: {}",
                args.workload,
                args.seed,
                f.op,
                if args.toy { "toy" } else { "full" },
                f.reason
            );
        }
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        println!(
            "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, {}}}}}",
            args.workload,
            args.seed,
            info.join(", ")
        );
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        let correct = self.failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
        correct
    }
}

/// A JSON number with every digit the measurement has; non-finite values
/// (which a correct run never produces) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Span durations (ms) recorded by the benchmark's own spans, by name.
pub struct SpanTimes(BTreeMap<&'static str, Vec<f64>>);

impl SpanTimes {
    /// Collects every span currently in `rec`'s ring.
    pub fn collect(rec: &wsn_obs::Recorder) -> SpanTimes {
        assert_eq!(
            rec.dropped_events(),
            0,
            "span ring overflowed; raise the recorder capacity"
        );
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ev in rec.events_snapshot() {
            if let wsn_obs::EventKind::Span { dur_us } = ev.kind {
                by_name
                    .entry(ev.name)
                    .or_default()
                    .push(dur_us as f64 / 1e3);
            }
        }
        SpanTimes(by_name)
    }

    /// Median duration of the spans named `name`, ms (0 if none ran).
    pub fn median_ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    /// Mean duration of the spans named `name`, ms (0 if none ran). For
    /// spans of a few microseconds, where a median of whole microseconds
    /// would read the same on every run.
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }
}

/// Capacity of the span ring in traced runs; [`SpanTimes::collect`]
/// refuses a run whose ring overflowed.
pub const TRACE_RING: usize = 1 << 20;

/// A fresh recorder for a traced run (not yet installed).
pub fn recorder() -> wsn_obs::Recorder {
    wsn_obs::Recorder::with_capacity(TRACE_RING)
}
