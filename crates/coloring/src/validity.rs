//! Eq. (1) validity checking for color partitions.

use wsn_bitset::NodeSet;
use wsn_interference::conflicts;
use wsn_topology::{NodeId, Topology};

/// A violated Eq. (1) constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColoringViolation {
    /// Constraint 1: a colored node is not informed.
    NotInformed(NodeId),
    /// Constraint 2: a colored node has no uninformed neighbor to serve.
    NoUninformedNeighbor(NodeId),
    /// Constraint 3: two same-color nodes share an uninformed neighbor.
    IntraColorConflict(NodeId, NodeId),
    /// Constraint 4: a color could be merged into an earlier one — some
    /// node conflicts with *no* member of a previously labeled color, so
    /// the partition uses more colors than Eq. (1) permits.
    MergeableColor { node: NodeId, into_color: usize },
    /// A node appears in more than one color.
    DuplicateNode(NodeId),
}

impl std::fmt::Display for ColoringViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColoringViolation::NotInformed(u) => write!(f, "node {u} is colored but uninformed"),
            ColoringViolation::NoUninformedNeighbor(u) => {
                write!(f, "node {u} has no uninformed neighbor")
            }
            ColoringViolation::IntraColorConflict(u, v) => {
                write!(f, "same-color nodes {u} and {v} conflict")
            }
            ColoringViolation::MergeableColor { node, into_color } => {
                write!(f, "node {node} could join earlier color {into_color}")
            }
            ColoringViolation::DuplicateNode(u) => write!(f, "node {u} appears twice"),
        }
    }
}

impl std::error::Error for ColoringViolation {}

/// Checks the four Eq. (1) constraints for a color partition of candidates
/// against the informed set `W`.
///
/// Constraint 4 is checked in its constructive greedy form: every node of
/// color `i > 1` must conflict with at least one member of *each* earlier
/// color (otherwise it could have been labeled earlier and the partition
/// wastes a color).
pub fn validate_coloring(
    topo: &Topology,
    informed: &NodeSet,
    classes: &[Vec<NodeId>],
) -> Result<(), ColoringViolation> {
    let uninformed = informed.complement();

    // Duplicates across classes.
    let mut seen = NodeSet::new(topo.len());
    for class in classes {
        for &u in class {
            if !seen.insert(u.idx()) {
                return Err(ColoringViolation::DuplicateNode(u));
            }
        }
    }

    for class in classes {
        for &u in class {
            // Constraint 1: u ∈ W.
            if !informed.contains(u.idx()) {
                return Err(ColoringViolation::NotInformed(u));
            }
            // Constraint 2: ∃v ∈ N(u) with v ∈ W̄.
            if topo.neighbors_in(u, &uninformed).next().is_none() {
                return Err(ColoringViolation::NoUninformedNeighbor(u));
            }
        }
        // Constraint 3: pairwise conflict-freedom within the class.
        for (a, &u) in class.iter().enumerate() {
            for &v in &class[a + 1..] {
                if conflicts(topo, u, v, &uninformed) {
                    return Err(ColoringViolation::IntraColorConflict(u, v));
                }
            }
        }
    }

    // Constraint 4: each node must conflict with every earlier color.
    for (ci, class) in classes.iter().enumerate() {
        for &u in class {
            for (cj, earlier) in classes[..ci].iter().enumerate() {
                let blocked = earlier.iter().any(|&v| conflicts(topo, u, v, &uninformed));
                if !blocked {
                    return Err(ColoringViolation::MergeableColor {
                        node: u,
                        into_color: cj,
                    });
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_topology::fixtures;

    #[test]
    fn table_ii_coloring_is_valid() {
        let f = fixtures::fig2a();
        let w = NodeSet::from_indices(5, [0, 1, 2]);
        let classes = vec![vec![f.id("2")], vec![f.id("3")]];
        validate_coloring(&f.topo, &w, &classes).unwrap();
    }

    #[test]
    fn uninformed_node_rejected() {
        let f = fixtures::fig2a();
        let w = NodeSet::from_indices(5, [0]);
        let err = validate_coloring(&f.topo, &w, &[vec![f.id("2")]]).unwrap_err();
        assert_eq!(err, ColoringViolation::NotInformed(f.id("2")));
    }

    #[test]
    fn fully_served_node_rejected() {
        let f = fixtures::fig2a();
        // W = everything except 5; node 3's neighbors {1, 4} are informed.
        let w = NodeSet::from_indices(5, [0, 1, 2, 3]);
        let err = validate_coloring(&f.topo, &w, &[vec![f.id("3")]]).unwrap_err();
        assert_eq!(err, ColoringViolation::NoUninformedNeighbor(f.id("3")));
    }

    #[test]
    fn intra_color_conflict_rejected() {
        let f = fixtures::fig2a();
        let w = NodeSet::from_indices(5, [0, 1, 2]);
        let err = validate_coloring(&f.topo, &w, &[vec![f.id("2"), f.id("3")]]).unwrap_err();
        assert!(matches!(err, ColoringViolation::IntraColorConflict(_, _)));
    }

    #[test]
    fn wasted_color_rejected() {
        let f = fixtures::fig1();
        // 0 and 4 do not conflict at W = {s,0,1,2,3,4,10}; separating them
        // into two colors violates constraint 4.
        let ids = [
            f.source,
            f.id("0"),
            f.id("1"),
            f.id("2"),
            f.id("3"),
            f.id("4"),
            f.id("10"),
        ];
        let w = NodeSet::from_indices(12, ids.iter().map(|u| u.idx()));
        let classes = vec![vec![f.id("0")], vec![f.id("4")]];
        let err = validate_coloring(&f.topo, &w, &classes).unwrap_err();
        assert!(matches!(err, ColoringViolation::MergeableColor { .. }));
    }

    #[test]
    fn duplicate_rejected() {
        let f = fixtures::fig2a();
        let w = NodeSet::from_indices(5, [0, 1, 2]);
        let err = validate_coloring(&f.topo, &w, &[vec![f.id("2")], vec![f.id("2")]]).unwrap_err();
        assert_eq!(err, ColoringViolation::DuplicateNode(f.id("2")));
    }

    #[test]
    fn empty_coloring_is_valid() {
        let f = fixtures::fig2a();
        validate_coloring(&f.topo, &NodeSet::full(5), &[]).unwrap();
    }
}
