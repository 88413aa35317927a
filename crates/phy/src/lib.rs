//! Pluggable conflict models: which concurrent transmissions collide.
//!
//! The paper's contribution is *conflict awareness*, and everything above
//! this layer — coloring, enumeration, the OPT/G-OPT searches, the sweeps —
//! is agnostic to *which* notion of conflict is in force. This crate makes
//! that notion a first-class, swappable value:
//!
//! * [`ProtocolModel`] — the paper's UDG protocol model: `u` and `v`
//!   conflict iff some uninformed node hears both (`N(u) ∩ N(v) ∩ W̄ ≠ ∅`).
//! * [`SinrModel`] — the physical-interference (SINR) model in its pairwise
//!   form, with configurable path-loss exponent `α`, decoding threshold
//!   `β`, ambient `noise`, transmit `power` and an interference `cutoff`
//!   radius, over a cached pairwise gain table.
//! * [`MultiChannel`] — a `K`-channel wrapper relaxing *any* inner model:
//!   transmissions on different channels never conflict, so one slot can
//!   launch up to `K` inner-conflict-free sender sets at once.
//!
//! [`PhyModel`] packages the concrete combinations behind one enum, and
//! [`PhyModelSpec`] is the cheap, topology-independent description the
//! sweep/bench layers put on their model axes and build per instance.
//!
//! # DESIGN: the witness-set invariant and incremental maintenance
//!
//! `wsn-interference::ConflictGraphBuilder` maintains conflict graphs by
//! delta as the uninformed set `W̄` churns. What makes that possible for
//! *every* model here is one structural invariant:
//!
//! > For each candidate pair `(u, v)` there is a fixed, `W̄`-independent
//! > *witness set* `wit(u, v)` such that
//! > `conflicts(u, v, W̄) ⇔ wit(u, v) ∩ W̄ ≠ ∅`
//! > ([`ConflictModel::collect_witnesses`]).
//!
//! For the protocol model the witnesses are the common neighbors. For the
//! pairwise SINR model they are the *vulnerable receivers*: nodes `w` in
//! range of `u` (or `v`) whose SINR from that sender drops below `β` once
//! the other transmits. Vulnerability is decided by the interference sum
//! `noise + power·g(interferer, w)` against `β`, and the gains `g` depend
//! only on geometry — so the sum is evaluated **once per pair**, into the
//! cached witness set, instead of being re-summed at every search state.
//! After that, adding or removing a single witness node `d` from `W̄`
//! touches only the candidate pairs whose witness sets can contain `d` —
//! `O(candidates adjacent to d)` pairs bounded by
//! [`ConflictModel::locality`] — and each retest is a membership scan of a
//! cached list, never a gain re-computation. The builder falls back to a
//! full re-sum (a from-scratch build) only when its cost model says the
//! delta is the expensive side: large `|ΔW̄|` relative to the candidate
//! count, heavy candidate churn (less than half the list kept), or a
//! topology/model fingerprint change (caches are keyed on
//! [`ConflictModel::fingerprint`], so graphs from different regimes never
//! mix).
//!
//! The pairwise SINR reading (each interferer tested alone against the
//! signal) is the standard graph-schedulable restriction of the physical
//! model — cf. Halldórsson & Mitra on local broadcasting under SINR — and
//! it is *internally consistent*: a sender set that is pairwise
//! conflict-free delivers to every intended receiver under
//! [`ConflictModel::resolve_receptions`] of the same model, which is what
//! lets `Schedule::verify_with_model` re-validate schedules independently
//! of the scheduler that produced them. With threshold-degenerate
//! parameters ([`SinrParams::degenerate`]: interference cutoff at the UDG
//! radius, `β` above the worst in-range signal-to-interference ratio,
//! `noise` calibrated so the reception range equals the radius) the SINR
//! witness sets collapse to exactly the common neighbors and the model
//! reproduces the protocol conflict graph edge for edge — the workspace
//! proptests pin that equivalence.
//!
//! Multi-channel scheduling (cf. Nguyen et al. on multi-channel WSN
//! aggregation) assumes a receiver can tune to whichever channel carries a
//! clean transmission; each channel's sender group must be conflict-free
//! under the inner model, which `verify_with_model` checks group by group
//! through `resolve_receptions`.

mod multichannel;
mod sinr;

pub use multichannel::{BaseModel, MultiChannel, PhyModel, PhyModelSpec};
pub use sinr::{GainTable, SinrModel, SinrParams};

use wsn_bitset::NodeSet;
use wsn_topology::{NodeId, Topology};

/// Where a pair's witnesses can live, bounding which candidate pairs a
/// churned node can affect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessLocality {
    /// `wit(u, v) = N(u) ∩ N(v)` exactly — every common neighbor is a
    /// witness, so a node entering `W̄` *forces* a conflict on every
    /// candidate pair it neighbors twice, no test needed (the protocol
    /// model's shape).
    CommonNeighbors,
    /// `wit(u, v) ⊆ N(u) ∪ N(v)` and membership must be checked per node
    /// (the SINR shape: capture can save a receiver that hears both).
    EitherNeighborhood,
}

/// Outcome of one slot of concurrent transmissions under receiver-side
/// collision resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceptionOutcome {
    /// Uninformed nodes that successfully received the message.
    pub received: NodeSet,
    /// Uninformed nodes in range of a sender that could not decode any
    /// transmission (collision / interference loss).
    pub collided: NodeSet,
}

/// A conflict model: the pairwise conflict predicate, its witness-set
/// factorization, and the matching receiver-side reception rule.
///
/// # Contract
///
/// * `conflicts(u, v, W̄)` is symmetric and irreflexive, and equals
///   `collect_witnesses(u, v) ∩ W̄ ≠ ∅` (the invariant the incremental
///   builder leans on; witness lists are ascending and `W̄`-independent).
/// * Witness sets respect [`ConflictModel::locality`].
/// * A sender set that is pairwise conflict-free w.r.t. `W̄` delivers to
///   every in-range member of `W̄` under `resolve_receptions`.
/// * `fingerprint` is stable for a given model value and differs between
///   models that can disagree on any of the above (caches key on it).
pub trait ConflictModel: Clone + Send + Sync {
    /// Stable identity of this model's semantics + parameters, mixed into
    /// cache keys so conflict graphs and memo entries never cross regimes.
    fn fingerprint(&self) -> u64;

    /// Number of orthogonal channels a slot may use (1 = single-channel).
    fn channels(&self) -> u32 {
        1
    }

    /// Where this model's witnesses live.
    fn locality(&self) -> WitnessLocality;

    /// `true` when concurrent transmissions by `u` and `v` would deny some
    /// member of `uninformed` the message.
    fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool;

    /// Writes the ascending witness set `wit(u, v)` into `out` (cleared
    /// first).
    fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>);

    /// Resolves which members of `uninformed` receive when all of
    /// `senders` transmit concurrently **on one channel**.
    fn resolve_receptions(
        &self,
        topo: &Topology,
        senders: &NodeSet,
        uninformed: &NodeSet,
    ) -> ReceptionOutcome;

    /// `true` when pair retests should always go through cached witness
    /// sets regardless of universe size (models whose predicate is costlier
    /// than a membership scan, e.g. SINR with its gain arithmetic).
    fn prefers_witness_cache(&self) -> bool {
        false
    }

    /// An upper bound on the distance between two senders that can share a
    /// witness, or `None` when no sound geometric bound exists.
    ///
    /// When `Some(range)`, any candidate pair farther apart than `range`
    /// provably has an empty witness set and can never conflict — the
    /// license the conflict-graph builder uses to enumerate candidate
    /// pairs through a [`wsn_geom::CellGrid`] instead of all-pairs, which
    /// is what makes 10k–100k-candidate graph construction near-linear.
    ///
    /// Implementations must be conservative: returning `None` costs speed,
    /// returning a too-small range silently drops conflict edges.
    fn witness_range(&self, _topo: &Topology) -> Option<f64> {
        None
    }
}

/// Sorted-merge walk over the common neighbors `N(u) ∩ N(v)` in ascending
/// order, calling `visit` on each until it returns `true` (the result).
/// O(deg u + deg v), independent of the universe size.
#[inline]
fn common_neighbors(
    topo: &Topology,
    u: NodeId,
    v: NodeId,
    mut visit: impl FnMut(NodeId) -> bool,
) -> bool {
    let (a, b) = (topo.neighbors(u), topo.neighbors(v));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y && visit(x) {
            return true;
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    false
}

/// The paper's protocol (UDG) interference model.
///
/// Conflict: `N(u) ∩ N(v) ∩ W̄ ≠ ∅` (Eq. 1, constraint 3). Reception: an
/// uninformed node receives iff *exactly one* of its neighbors transmits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolModel;

/// Nonzero fingerprint of the (parameterless) protocol model.
const PROTOCOL_FINGERPRINT: u64 = 0x70726f_746f636f; // "proto co"

impl ConflictModel for ProtocolModel {
    #[inline]
    fn fingerprint(&self) -> u64 {
        PROTOCOL_FINGERPRINT
    }

    #[inline]
    fn locality(&self) -> WitnessLocality {
        WitnessLocality::CommonNeighbors
    }

    #[inline]
    fn conflicts(&self, topo: &Topology, u: NodeId, v: NodeId, uninformed: &NodeSet) -> bool {
        common_neighbors(topo, u, v, |w| uninformed.contains(w.idx()))
    }

    fn collect_witnesses(&self, topo: &Topology, u: NodeId, v: NodeId, out: &mut Vec<u32>) {
        out.clear();
        common_neighbors(topo, u, v, |w| {
            out.push(w.0);
            false
        });
    }

    fn resolve_receptions(
        &self,
        topo: &Topology,
        senders: &NodeSet,
        uninformed: &NodeSet,
    ) -> ReceptionOutcome {
        let n = topo.len();
        let mut received = NodeSet::new(n);
        let mut collided = NodeSet::new(n);
        // Counter sweep over the senders' neighbor lists: O(Σ deg(sender))
        // plus the touched set, instead of O(|W̄| · n/64) — the difference
        // between milliseconds and minutes when verifying 100k-node
        // schedules slot by slot.
        let mut heard = vec![0u32; n];
        let mut touched = Vec::new();
        for s in senders.iter() {
            for &w in topo.neighbors(NodeId(s as u32)) {
                if uninformed.contains(w.idx()) {
                    if heard[w.idx()] == 0 {
                        touched.push(w.idx());
                    }
                    heard[w.idx()] += 1;
                }
            }
        }
        for w in touched {
            if heard[w] == 1 {
                received.insert(w);
            } else {
                collided.insert(w);
            }
        }
        ReceptionOutcome { received, collided }
    }

    #[inline]
    fn witness_range(&self, topo: &Topology) -> Option<f64> {
        // A protocol witness is a common neighbor, so conflicting senders
        // sit within two hops: 2 × the UDG radius.
        Some(2.0 * topo.radius())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_geom::Point;

    fn diamond() -> Topology {
        Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.9, 0.7),
                Point::new(0.9, -0.7),
                Point::new(1.8, 0.0),
                Point::new(1.4, 1.5),
            ],
            1.2,
        )
    }

    #[test]
    fn protocol_witnesses_are_common_neighbors() {
        let t = diamond();
        let m = ProtocolModel;
        let mut wit = Vec::new();
        m.collect_witnesses(&t, NodeId(1), NodeId(2), &mut wit);
        // 1 and 2 share neighbors 0 and 3.
        assert_eq!(wit, vec![0, 3]);
        // The invariant: conflict ⇔ a witness is uninformed.
        let mut unf = NodeSet::full(5);
        for i in [0usize, 1, 2] {
            unf.remove(i);
        }
        assert!(m.conflicts(&t, NodeId(1), NodeId(2), &unf));
        unf.remove(3);
        assert!(!m.conflicts(&t, NodeId(1), NodeId(2), &unf));
    }

    #[test]
    fn protocol_reception_is_exactly_one() {
        let t = diamond();
        let m = ProtocolModel;
        let senders = NodeSet::from_indices(5, [1, 2]);
        let unf = NodeSet::from_indices(5, [3, 4]);
        let out = m.resolve_receptions(&t, &senders, &unf);
        assert_eq!(out.collided.to_vec(), vec![3]);
        assert_eq!(out.received.to_vec(), vec![4]);
    }

    /// `n` points scattered uniformly over a `side`² square (LCG stream).
    fn scatter(seed: u64, n: usize, side: f64) -> Vec<Point> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n)
            .map(|_| Point::new(next() * side, next() * side))
            .collect()
    }

    #[test]
    fn sparse_paths_match_dense_oracle() {
        // The reference is built here from O(n²) distances: dense `N(u)`
        // masks, and for SINR raw `d^−α` gains with every sender checked
        // against every receiver. Nothing is shared with the CSR, the
        // grid scan or the gain table the models read.
        let (n, r) = (120, 6.0);
        let mut wit = Vec::new();
        for seed in 1..=3u64 {
            let pts = scatter(seed, n, 40.0);
            let t = Topology::unit_disk(pts.clone(), r);
            let d2 = |a: usize, b: usize| pts[a].dist2(&pts[b]);
            let dense: Vec<NodeSet> = (0..n)
                .map(|u| NodeSet::from_indices(n, (0..n).filter(|&v| v != u && d2(u, v) <= r * r)))
                .collect();
            let coin = scatter(seed + 100, n, 1.0);
            let unf = NodeSet::from_indices(n, (0..n).filter(|&i| coin[i].x < 0.5));
            let senders =
                NodeSet::from_indices(n, (0..n).filter(|&i| !unf.contains(i) && coin[i].y < 0.3));
            let id = |i: usize| NodeId(i as u32);

            let m = ProtocolModel;
            for u in 0..n {
                for v in (u + 1)..n {
                    let common = dense[u].intersection(&dense[v]);
                    let want: Vec<u32> = common.iter().map(|w| w as u32).collect();
                    assert_eq!(
                        m.conflicts(&t, id(u), id(v), &unf),
                        common.intersects(&unf),
                        "seed {seed} pair ({u},{v})"
                    );
                    m.collect_witnesses(&t, id(u), id(v), &mut wit);
                    assert_eq!(wit, want, "seed {seed} pair ({u},{v})");
                }
            }
            let out = m.resolve_receptions(&t, &senders, &unf);
            for (w, nw) in dense.iter().enumerate() {
                let heard = nw.intersection_len(&senders);
                assert_eq!(out.received.contains(w), unf.contains(w) && heard == 1);
                assert_eq!(out.collided.contains(w), unf.contains(w) && heard >= 2);
            }

            let mut noisy = SinrParams::calibrated(r, 3.0, 1.5);
            noisy.noise *= 1.5;
            for params in [
                SinrParams::calibrated(r, 3.0, 1.5),
                SinrParams::calibrated(r, 4.0, 1.0),
                SinrParams::degenerate(&t, 4.0),
                noisy,
            ] {
                let sinr = SinrModel::new(params, &t);
                let gain = |a: usize, w: usize| {
                    let d = d2(a, w);
                    if d <= params.cutoff * params.cutoff {
                        d.powf(-params.alpha / 2.0)
                    } else {
                        0.0
                    }
                };
                // Does `w` decode sender `s` with `i` transmitting too?
                let decodes = |s: usize, i: usize, w: usize| {
                    params.power * gain(s, w)
                        >= params.beta * (params.noise + params.power * gain(i, w))
                };
                for u in 0..n {
                    for v in (u + 1)..n {
                        let want: Vec<u32> = (0..n)
                            .filter(|&w| w != u && w != v)
                            .filter(|&w| dense[u].contains(w) || dense[v].contains(w))
                            .filter(|&w| {
                                !((dense[u].contains(w) && decodes(u, v, w))
                                    || (dense[v].contains(w) && decodes(v, u, w)))
                            })
                            .map(|w| w as u32)
                            .collect();
                        sinr.collect_witnesses(&t, id(u), id(v), &mut wit);
                        assert_eq!(wit, want, "seed {seed} {params:?} pair ({u},{v})");
                        assert_eq!(
                            sinr.conflicts(&t, id(u), id(v), &unf),
                            want.iter().any(|&w| unf.contains(w as usize)),
                            "seed {seed} {params:?} pair ({u},{v})"
                        );
                    }
                }
                let out = sinr.resolve_receptions(&t, &senders, &unf);
                for (w, nw) in dense.iter().enumerate() {
                    let in_range: Vec<usize> = senders.iter().filter(|&s| nw.contains(s)).collect();
                    let decoded = in_range
                        .iter()
                        .any(|&s| senders.iter().all(|i| i == s || decodes(s, i, w)));
                    let recv = unf.contains(w) && decoded;
                    let coll = unf.contains(w) && !decoded && !in_range.is_empty();
                    assert_eq!(out.received.contains(w), recv, "seed {seed} node {w}");
                    assert_eq!(out.collided.contains(w), coll, "seed {seed} node {w}");
                }
            }
        }
    }

    #[test]
    fn witness_ranges_are_sound() {
        let t = diamond();
        // Protocol: two hops.
        assert_eq!(ProtocolModel.witness_range(&t), Some(2.0 * t.radius()));
        // Calibrated SINR decodes every in-range link against noise alone,
        // so witnesses need interference: radius + cutoff.
        let sinr = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        assert_eq!(sinr.witness_range(&t), Some(3.0 * t.radius()));
        // A noise floor that can break in-range links alone admits
        // witnesses at any distance — no sound bound.
        let mut params = SinrParams::calibrated(t.radius(), 3.0, 1.5);
        params.noise *= 10.0;
        let noisy = SinrModel::new(params, &t);
        assert_eq!(noisy.witness_range(&t), None);
        // Multi-channel delegates to the inner model.
        assert_eq!(
            MultiChannel::new(ProtocolModel, 4).witness_range(&t),
            Some(2.0 * t.radius())
        );
    }

    #[test]
    fn fingerprints_distinguish_models() {
        let t = diamond();
        let proto = ProtocolModel;
        let sinr = SinrModel::new(SinrParams::calibrated(t.radius(), 3.0, 1.5), &t);
        let multi = MultiChannel::new(ProtocolModel, 4);
        assert_ne!(proto.fingerprint(), 0);
        assert_ne!(proto.fingerprint(), sinr.fingerprint());
        assert_ne!(proto.fingerprint(), multi.fingerprint());
        assert_ne!(
            MultiChannel::new(ProtocolModel, 2).fingerprint(),
            multi.fingerprint()
        );
    }
}
