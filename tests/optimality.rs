//! Independent optimality checks: the searches against a brute-force
//! enumerator that knows nothing about colorings.
//!
//! The brute force explores, per state, *every* non-empty conflict-free
//! subset of the eligible senders (all `2^k` candidates filtered by the
//! pairwise predicate) — a definition straight from Eq. (1) constraint 3
//! with none of the maximal-set/greedy machinery the real solvers use.

use mlbs::prelude::*;
use std::collections::HashMap;

/// Minimum completion latency by exhaustive subset enumeration (sync).
fn brute_force_optimum(topo: &Topology, source: NodeId) -> u64 {
    fn rec(topo: &Topology, informed: &NodeSet, memo: &mut HashMap<Vec<u64>, u64>) -> u64 {
        if informed.is_full() {
            return 0;
        }
        let key = informed.words().to_vec();
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let uninformed = informed.complement();
        let eligible: Vec<NodeId> = eligible_senders(topo, informed);
        assert!(!eligible.is_empty(), "disconnected test instance");
        let k = eligible.len();
        assert!(k <= 16, "instance too large for brute force");
        let mut best = u64::MAX;
        for mask in 1u32..(1 << k) {
            let senders: Vec<NodeId> = (0..k)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| eligible[i])
                .collect();
            // Conflict-free per Eq. (1) constraint 3.
            let clean = senders.iter().enumerate().all(|(a, &u)| {
                senders[a + 1..].iter().all(|&v| {
                    !topo
                        .neighbors(u)
                        .iter()
                        .any(|&w| uninformed.contains(w.idx()) && topo.adjacent(v, w))
                })
            });
            if !clean {
                continue;
            }
            let mut next = informed.clone();
            for &u in &senders {
                topo.insert_neighbors(u, &mut next);
            }
            if next.len() == informed.len() {
                continue; // no progress — never useful
            }
            best = best.min(1 + rec(topo, &next, memo));
        }
        memo.insert(key, best);
        best
    }
    let mut w = NodeSet::new(topo.len());
    w.insert(source.idx());
    rec(topo, &w, &mut HashMap::new())
}

/// Small connected random UDG instances for exhaustive checking.
fn tiny_instances() -> Vec<(Topology, NodeId)> {
    let mut out = Vec::new();
    let mut seed = 0xBEEFu64;
    while out.len() < 12 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut f = seed;
        let mut next = || {
            f = (f ^ (f >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            (f >> 33) as f64 / (1u64 << 31) as f64
        };
        let n = 5 + (out.len() % 4);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(next() * 3.0, next() * 3.0))
            .collect();
        let topo = Topology::unit_disk(pts, 1.3);
        if !mlbs::topology::connectivity::is_connected(&topo) {
            continue;
        }
        out.push((topo, NodeId(0)));
    }
    out
}

#[test]
fn opt_matches_brute_force_on_tiny_instances() {
    for (i, (topo, src)) in tiny_instances().into_iter().enumerate() {
        let truth = brute_force_optimum(&topo, src);
        let opt = solve_opt(
            &topo,
            src,
            &AlwaysAwake,
            &SearchConfig {
                branch_cap: 10_000, // exact enumeration at this size
                ..SearchConfig::default()
            },
        );
        assert!(opt.exact, "instance {i} should be solved exactly");
        assert_eq!(
            opt.latency, truth,
            "instance {i}: OPT {} ≠ brute force {truth}",
            opt.latency
        );
    }
}

#[test]
fn gopt_bounded_by_brute_force_and_opt() {
    for (i, (topo, src)) in tiny_instances().into_iter().enumerate() {
        let truth = brute_force_optimum(&topo, src);
        let gopt = solve_gopt(&topo, src, &AlwaysAwake, &SearchConfig::default());
        assert!(
            gopt.latency >= truth,
            "instance {i}: G-OPT {} beat the true optimum {truth}",
            gopt.latency
        );
        // On these tiny instances the greedy restriction is almost always
        // harmless; allow at most the paper's observed 2-round gap.
        assert!(
            gopt.latency <= truth + 2,
            "instance {i}: G-OPT {} too far above optimum {truth}",
            gopt.latency
        );
    }
}

#[test]
fn fixture_optima_match_brute_force() {
    let f2 = fixtures::fig2a();
    assert_eq!(brute_force_optimum(&f2.topo, f2.source), 2);
    let f1 = fixtures::fig1();
    assert_eq!(brute_force_optimum(&f1.topo, f1.source), 3);
    let opt = solve_opt(&f1.topo, f1.source, &AlwaysAwake, &SearchConfig::default());
    assert_eq!(opt.latency, 3, "Figure 1's true optimum is 3 — Table III");
}
