//! A deliberately naive protocol-model checker that shares no code with
//! `Schedule::verify`: it rebuilds adjacency from the raw positions with its
//! own cell hashing, then replays the schedule slot by slot, counting for
//! each uninformed receiver how many of its neighbours transmit.

use std::collections::HashMap;

use mlbs_core::Schedule;
use wsn_geom::Point;

/// Unit-disk neighbour lists of `positions` (distance ≤ `radius`).
pub fn neighbour_lists(positions: &[Point], radius: f64) -> Vec<Vec<u32>> {
    let cell = |p: &Point| ((p.x / radius).floor() as i64, (p.y / radius).floor() as i64);
    let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
    for (i, p) in positions.iter().enumerate() {
        cells.entry(cell(p)).or_default().push(i as u32);
    }
    let r2 = radius * radius;
    let mut lists = vec![Vec::new(); positions.len()];
    for (i, p) in positions.iter().enumerate() {
        let (cx, cy) = cell(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for &j in cells
                    .get(&(cx + dx, cy + dy))
                    .map_or(&[][..], Vec::as_slice)
                {
                    let q = positions[j as usize];
                    let (ex, ey) = (p.x - q.x, p.y - q.y);
                    if j as usize != i && ex * ex + ey * ey <= r2 {
                        lists[i].push(j);
                    }
                }
            }
        }
    }
    lists
}

/// Replays `schedule` under the protocol model on `adj`: slots strictly
/// increase; every sender was informed in an earlier slot and sends once;
/// an uninformed node with exactly one transmitting neighbour becomes
/// informed, and one with two or more is a collision; in the end every
/// node is informed. Also checks the reported latency.
pub fn protocol_replay(adj: &[Vec<u32>], schedule: &Schedule) -> Result<(), String> {
    let n = adj.len();
    let src = schedule.source.0 as usize;
    if src >= n {
        return Err(format!("source {src} out of range"));
    }
    if !schedule.repeats.is_empty() {
        return Err("repeat slots are outside the lossless protocol model".into());
    }
    let mut informed = vec![false; n];
    let mut sent = vec![false; n];
    let mut heard = vec![0u32; n];
    informed[src] = true;
    let mut last_slot = None;
    for entry in &schedule.entries {
        if entry.slot < schedule.start || last_slot.is_some_and(|p| entry.slot <= p) {
            return Err(format!("slot {} out of order", entry.slot));
        }
        last_slot = Some(entry.slot);
        let mut touched = Vec::new();
        for &u in &entry.senders {
            let u = u.0 as usize;
            if u >= n || !informed[u] || sent[u] {
                return Err(format!(
                    "sender {u} in slot {} is uninformed or repeats",
                    entry.slot
                ));
            }
            sent[u] = true;
            for &w in &adj[u] {
                let w = w as usize;
                if !informed[w] {
                    if heard[w] == 0 {
                        touched.push(w);
                    }
                    heard[w] += 1;
                }
            }
        }
        for &w in &touched {
            if heard[w] > 1 {
                return Err(format!("collision at node {w} in slot {}", entry.slot));
            }
        }
        for w in touched {
            heard[w] = 0;
            informed[w] = true;
        }
    }
    if let Some(missing) = informed.iter().position(|&b| !b) {
        return Err(format!("node {missing} never informed"));
    }
    let span = last_slot.map_or(0, |t| t - schedule.start + 1);
    if span != schedule.latency() {
        return Err(format!(
            "reported latency {} but the replay spans {span} slots",
            schedule.latency()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlbs_core::ScheduleEntry;
    use wsn_dutycycle::AlwaysAwake;
    use wsn_topology::deploy::SyntheticDeployment;
    use wsn_topology::NodeId;

    /// The replay accepts what `verify` accepts and rejects each mutant:
    /// a dropped sender, an added conflicting sender, swapped slots, and a
    /// sender that transmits twice.
    #[test]
    fn replay_agrees_with_verify_and_rejects_mutants() {
        let (topo, src) = SyntheticDeployment::scaled(400).sample(3);
        let good = crate::harness::greedy(&topo, src).schedule;
        let adj = neighbour_lists(topo.positions(), topo.radius());
        for (u, list) in adj.iter().enumerate() {
            let want: Vec<u32> = topo
                .neighbors(NodeId(u as u32))
                .iter()
                .map(|v| v.0)
                .collect();
            let mut got = list.clone();
            got.sort_unstable();
            assert_eq!(got, want, "neighbours of {u}");
        }
        assert!(good.verify(&topo, &AlwaysAwake).is_ok());
        protocol_replay(&adj, &good).unwrap();

        let last = good.entries.len() - 1;
        let mut dropped = good.clone();
        dropped.entries[last].senders.pop();
        if dropped.entries[last].senders.is_empty() {
            dropped.entries.pop();
        }
        assert!(protocol_replay(&adj, &dropped).is_err());

        // A second informed neighbour of some receiver in a slot collides.
        let mut conflicting = good.clone();
        let added = (1..good.entries.len()).find_map(|k| {
            let e = &good.entries[k];
            let informed_before: Vec<bool> = (0..topo.len())
                .map(|v| v == src.idx() || good.receive_slot[v] < e.slot)
                .collect();
            e.senders.iter().find_map(|&s| {
                adj[s.idx()].iter().find_map(|&w| {
                    if informed_before[w as usize] {
                        return None;
                    }
                    adj[w as usize]
                        .iter()
                        .find(|&&x| {
                            x != s.0
                                && informed_before[x as usize]
                                && !good.entries.iter().any(|e| e.senders.contains(&NodeId(x)))
                        })
                        .map(|&x| (k, NodeId(x)))
                })
            })
        });
        let (k, x) = added.expect("some slot admits a conflicting sender");
        conflicting.entries[k].senders.push(x);
        assert!(protocol_replay(&adj, &conflicting).is_err());

        let mut swapped = good.clone();
        let (a, b) = (swapped.entries[0].slot, swapped.entries[1].slot);
        swapped.entries[0].slot = b;
        swapped.entries[1].slot = a;
        assert!(protocol_replay(&adj, &swapped).is_err());

        let mut twice = good.clone();
        let again = twice.entries[0].senders[0];
        twice
            .entries
            .push(ScheduleEntry::new(good.entries[last].slot + 1, vec![again]));
        assert!(protocol_replay(&adj, &twice).is_err());
    }
}
