//! What a node learns from beaconing.
//!
//! §III: "When a node receives the beacon message from its neighbor, it
//! will respond with its own status information, including the location,
//! last wake-up time, metric values, etc." — so after one beacon exchange
//! a node knows its 1-hop neighborhood; after neighbors relay their own
//! neighbor lists once, it knows its 2-hop neighborhood. Two hops is
//! exactly what the Eq. (1) conflict predicate needs: conflicts happen at
//! common neighbors.

use wsn_bitset::NodeSet;
use wsn_topology::{NodeId, Topology};

/// The 2-hop view of one node, as assembled from beacons.
#[derive(Clone, Debug)]
pub struct NeighborhoodKnowledge {
    /// The owner.
    pub node: NodeId,
    /// 1-hop neighbors, ascending.
    pub neighbors: Vec<NodeId>,
    /// Nodes within 2 hops (excluding the owner), ascending.
    pub two_hop: Vec<NodeId>,
}

impl NeighborhoodKnowledge {
    /// Assembles the 2-hop view of every node.
    ///
    /// Returns one knowledge record per node; the beacon cost is one
    /// message per node per round for two rounds (counted by the callers
    /// that model overhead).
    pub fn collect(topo: &Topology) -> Vec<NeighborhoodKnowledge> {
        topo.nodes()
            .map(|u| {
                let neighbors = topo.neighbors(u).to_vec();
                let mut two_hop = neighbors.clone();
                for &v in &neighbors {
                    two_hop.extend_from_slice(topo.neighbors(v));
                }
                two_hop.sort_unstable();
                two_hop.dedup();
                two_hop.retain(|&w| w != u);
                NeighborhoodKnowledge {
                    node: u,
                    neighbors,
                    two_hop,
                }
            })
            .collect()
    }

    /// Local conflict test: would concurrent transmissions by the owner
    /// and `other` collide at one of the owner's *uninformed* neighbors?
    ///
    /// Note the asymmetry of locality: the owner can only see collisions
    /// at its own neighbors. The full predicate is the disjunction of both
    /// endpoints' local tests, which is why candidacy announcements carry
    /// the announcer's neighbor set — taken from `topo` here because the
    /// simulation's beacons delivered it in a previous round.
    pub fn conflicts_locally(&self, topo: &Topology, other: NodeId, uninformed: &NodeSet) -> bool {
        topo.neighbors_in(other, uninformed)
            .any(|w| self.neighbors.binary_search(&w).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_topology::fixtures;

    #[test]
    fn two_hop_sets_match_bfs() {
        let f = fixtures::fig1();
        let knowledge = NeighborhoodKnowledge::collect(&f.topo);
        for k in &knowledge {
            let hops = wsn_topology::metrics::bfs_hops(&f.topo, k.node);
            for v in f.topo.nodes() {
                let within2 = v != k.node && hops[v.idx()] <= 2;
                assert_eq!(
                    k.two_hop.binary_search(&v).is_ok(),
                    within2,
                    "2-hop membership of {v} as seen from {}",
                    k.node
                );
            }
        }
    }

    #[test]
    fn local_conflict_matches_global_predicate() {
        let f = fixtures::fig1();
        let knowledge = NeighborhoodKnowledge::collect(&f.topo);
        let w = NodeSet::from_indices(12, [f.source.idx(), 0, 1, 2]);
        let uninformed = w.complement();
        for a in f.topo.nodes() {
            for b in f.topo.nodes() {
                if a == b {
                    continue;
                }
                let global = wsn_interference::conflicts(&f.topo, a, b, &uninformed);
                // The symmetric predicate — both ends see the same common
                // neighbors, so either local view suffices.
                let local = knowledge[a.idx()].conflicts_locally(&f.topo, b, &uninformed);
                assert_eq!(global, local, "conflict({a},{b})");
            }
        }
    }
}
