//! K-channel slot assembly: packing extra conflict-free sender groups
//! onto orthogonal channels.
//!
//! Under a [`wsn_phy::MultiChannel`] model a slot may carry up to `K`
//! sender groups, each conflict-free under the inner model on its own
//! channel. The schedulers keep branching over single-channel colors (the
//! conflict graph describes same-channel coexistence) and call
//! [`pack_channels`] to fill the remaining `K − 1` channels with
//! candidates that still cover someone new — a deterministic greedy that
//! can only add coverage, so it never hurts latency, and that collapses
//! to a no-op at `K = 1` (the single-channel paths stay bit-identical).

use crate::receiver_count;
use wsn_bitset::NodeSet;
use wsn_interference::ConflictGraph;
use wsn_topology::{NodeId, Topology};

/// Packs a slot's sender set for a `channels`-channel radio: `seed` (one
/// inner-model color, e.g. the branch the search chose) transmits on
/// channel 0; the remaining conflict-graph candidates are swept in the
/// greedy order (most uninformed receivers first, node id ascending on
/// ties) and each one that still covers an uncovered uninformed node is
/// assigned the first free channel `1..channels` where it conflicts with
/// nobody.
///
/// Returns `(senders, channel_of)` sorted by node id, `channel_of`
/// parallel to `senders`. With `channels == 1` the seed is returned
/// unchanged with an empty channel vector (the "all channel 0"
/// convention of `ScheduleEntry`).
///
/// # Panics
///
/// Panics when a seed member is not a candidate of `cg`, or when
/// `channels > 256` (channel ids are stored as `u8`).
pub fn pack_channels(
    topo: &Topology,
    cg: &ConflictGraph,
    uninformed: &NodeSet,
    seed: &[NodeId],
    channels: u32,
) -> (Vec<NodeId>, Vec<u8>) {
    if channels <= 1 {
        let mut senders = seed.to_vec();
        senders.sort_unstable();
        return (senders, Vec::new());
    }
    let order = greedy_pack_order(topo, cg, uninformed);
    pack_channels_ordered(topo, cg, uninformed, seed, channels, &order)
}

/// The greedy sweep order [`pack_channels`] assigns extra channels in —
/// every candidate index of `cg`, most uninformed receivers first, node
/// id ascending on ties (Eq. 2's order). Branch loops that pack many
/// seeds against one state compute this once and call
/// [`pack_channels_ordered`] per seed.
pub fn greedy_pack_order(topo: &Topology, cg: &ConflictGraph, uninformed: &NodeSet) -> Vec<usize> {
    let k = cg.len();
    let recv: Vec<usize> = (0..k)
        .map(|i| receiver_count(topo, cg.node(i), uninformed))
        .collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| recv[b].cmp(&recv[a]).then(cg.node(a).cmp(&cg.node(b))));
    order
}

/// As [`pack_channels`], with the candidate sweep order precomputed by
/// [`greedy_pack_order`] (the order is a property of the state, not of
/// the seed — seed members are skipped during the sweep, which commutes
/// with the sort).
pub fn pack_channels_ordered(
    topo: &Topology,
    cg: &ConflictGraph,
    uninformed: &NodeSet,
    seed: &[NodeId],
    channels: u32,
    order: &[usize],
) -> (Vec<NodeId>, Vec<u8>) {
    if channels <= 1 {
        let mut senders = seed.to_vec();
        senders.sort_unstable();
        return (senders, Vec::new());
    }
    assert!(channels <= 256, "channel ids are stored as u8");
    let k = cg.len();
    let extra = (channels - 1) as usize;

    // Channel 0 is the seed; its coverage seeds the "still new" frontier.
    let mut taken = NodeSet::new(k);
    let mut covered = NodeSet::new(uninformed.universe());
    for &u in seed {
        let i = cg.index_of(u).expect("seed member is a candidate");
        taken.insert(i);
        topo.insert_neighbors(u, &mut covered);
    }
    covered.intersect_with(uninformed);

    // Per-channel member sets (candidate indices) for the conflict test.
    let mut groups: Vec<NodeSet> = (0..extra).map(|_| NodeSet::new(k)).collect();
    let mut assigned: Vec<(NodeId, u8)> = seed.iter().map(|&u| (u, 0)).collect();

    for &i in order {
        if taken.contains(i) {
            continue;
        }
        let u = cg.node(i);
        // Only senders that still cover someone new earn a channel.
        if topo
            .neighbors_in(u, uninformed)
            .all(|w| covered.contains(w.idx()))
        {
            continue;
        }
        for (c, group) in groups.iter_mut().enumerate() {
            if !cg.conflicts_with_set(i, group) {
                group.insert(i);
                for w in topo.neighbors_in(u, uninformed) {
                    covered.insert(w.idx());
                }
                assigned.push((u, (c + 1) as u8));
                break;
            }
        }
    }

    assigned.sort_unstable_by_key(|&(u, _)| u);
    let senders = assigned.iter().map(|&(u, _)| u).collect();
    let channel_of = assigned.iter().map(|&(_, c)| c).collect();
    (senders, channel_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eligible_senders;
    use wsn_geom::Point;
    use wsn_topology::Topology;

    fn line(n: usize) -> Topology {
        Topology::unit_disk((0..n).map(|i| Point::new(i as f64, 0.0)).collect(), 1.0)
    }

    #[test]
    fn single_channel_is_identity() {
        let t = line(8);
        let informed = NodeSet::from_indices(8, [0, 1, 2, 3]);
        let unf = informed.complement();
        let cands = eligible_senders(&t, &informed);
        let cg = ConflictGraph::build(&t, &cands, &unf);
        let (senders, chans) = pack_channels(&t, &cg, &unf, &[NodeId(3)], 1);
        assert_eq!(senders, vec![NodeId(3)]);
        assert!(chans.is_empty());
    }

    #[test]
    fn extra_channels_pack_conflicting_candidates() {
        // Path: W = {0..4}; candidates with uninformed neighbors: 3 (→4)…
        // wait, on a 0.8-spaced line only adjacent nodes connect. Use a
        // star-ish shape: two informed hubs that conflict at a shared
        // uninformed node plus private receivers each.
        let t = Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0),  // 0 hub A
                Point::new(1.6, 0.0),  // 1 hub B
                Point::new(0.8, 0.0),  // 2 shared uninformed
                Point::new(-0.9, 0.0), // 3 private to A
                Point::new(2.5, 0.0),  // 4 private to B
            ],
            1.0,
        );
        let informed = NodeSet::from_indices(5, [0, 1]);
        let unf = informed.complement();
        let cands = eligible_senders(&t, &informed);
        let cg = ConflictGraph::build(&t, &cands, &unf);
        assert!(cg.conflict(0, 1), "hubs conflict at the shared receiver");
        // Single channel: only the seed transmits.
        let (s1, c1) = pack_channels(&t, &cg, &unf, &[NodeId(0)], 1);
        assert_eq!(s1, vec![NodeId(0)]);
        assert!(c1.is_empty());
        // Two channels: hub B rides channel 1 and covers its private node.
        let (s2, c2) = pack_channels(&t, &cg, &unf, &[NodeId(0)], 2);
        assert_eq!(s2, vec![NodeId(0), NodeId(1)]);
        assert_eq!(c2, vec![0, 1]);
    }

    #[test]
    fn useless_senders_are_not_packed() {
        // Hub B's entire coverage is already covered by the seed → no
        // channel spent on it.
        let t = Topology::unit_disk(
            vec![
                Point::new(0.0, 0.0), // 0 hub A
                Point::new(0.5, 0.0), // 1 hub B (subset coverage)
                Point::new(0.9, 0.0), // 2 uninformed, hears both
            ],
            1.0,
        );
        let informed = NodeSet::from_indices(3, [0, 1]);
        let unf = informed.complement();
        let cands = eligible_senders(&t, &informed);
        let cg = ConflictGraph::build(&t, &cands, &unf);
        let (s, c) = pack_channels(&t, &cg, &unf, &[NodeId(0)], 4);
        assert_eq!(s, vec![NodeId(0)]);
        assert_eq!(c, vec![0]);
    }
}
