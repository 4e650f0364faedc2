//! Graph partitions for sharded admission.
//!
//! A [`Partition`] assigns every node of a graph to exactly one shard.
//! The sharded network engine (`drqos-core`) uses it to decide which shard
//! a request "belongs" to (the owner of its source node).
//!
//! [`Partition::seeded_bfs`] builds one for any graph: a deterministic
//! round-robin multi-source BFS (the fuzzer's Waxman scenarios use it).

use crate::graph::{Graph, NodeId};
use drqos_sim::rng::Rng;
use std::collections::VecDeque;

/// A total assignment of a graph's nodes to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shards: usize,
    node_shard: Vec<usize>,
}

impl Partition {
    /// A deterministic balanced partition of any graph: `shards` seed nodes
    /// are drawn from a seeded RNG, then grown breadth-first in round-robin
    /// order (shard 0 claims one frontier node, then shard 1, ...) until
    /// every reachable node is claimed. Nodes unreachable from every seed
    /// (disconnected graphs) fall back to `index % shards`. The result is a
    /// pure function of `(graph, shards, seed)`.
    ///
    /// `shards` is clamped to the node count (an empty graph yields the
    /// trivial one-shard partition).
    pub fn seeded_bfs(graph: &Graph, shards: usize, seed: u64) -> Self {
        let n = graph.node_count();
        let shards = shards.clamp(1, n.max(1));
        let mut node_shard = vec![usize::MAX; n];
        let mut queues: Vec<VecDeque<NodeId>> = vec![VecDeque::new(); shards];
        let mut rng = Rng::seed_from_u64(seed);
        // Distinct seed nodes, chosen deterministically.
        let mut unclaimed: Vec<NodeId> = graph.nodes().collect();
        for (s, queue) in queues.iter_mut().enumerate() {
            if unclaimed.is_empty() {
                break;
            }
            let pick = rng.range_usize(unclaimed.len());
            let node = unclaimed.swap_remove(pick);
            node_shard[node.index()] = s;
            queue.push_back(node);
        }
        // Round-robin BFS growth: each shard claims at most one node per
        // turn, so shard sizes stay balanced on connected graphs.
        let mut active = true;
        while active {
            active = false;
            for (s, queue) in queues.iter_mut().enumerate() {
                let Some(node) = queue.pop_front() else {
                    continue;
                };
                active = true;
                for &(next, _) in graph.neighbors(node) {
                    if node_shard[next.index()] == usize::MAX {
                        node_shard[next.index()] = s;
                        queue.push_back(next);
                    }
                }
                // Keep expanding from this node next turn until all of its
                // neighbours are claimed (one claim per turn would also
                // work; re-queueing keeps the loop simple and still fair).
                if graph
                    .neighbors(node)
                    .iter()
                    .any(|&(m, _)| node_shard[m.index()] == usize::MAX)
                {
                    queue.push_front(node);
                }
            }
        }
        for (i, s) in node_shard.iter_mut().enumerate() {
            if *s == usize::MAX {
                *s = i % shards;
            }
        }
        Partition { shards, node_shard }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node` (`0` for out-of-range ids, which the engine
    /// rejects before consulting the partition).
    pub fn shard_of_node(&self, node: NodeId) -> usize {
        self.node_shard.get(node.index()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waxman;

    fn waxman_graph(seed: u64) -> Graph {
        waxman::paper_waxman(40)
            .generate(&mut Rng::seed_from_u64(seed))
            .unwrap()
    }

    /// Satellite property: the partition is a pure function of
    /// `(graph, shards, seed)`.
    #[test]
    fn partitions_are_stable_under_a_fixed_seed() {
        for seed in 0..10u64 {
            let g1 = waxman_graph(seed);
            let g2 = waxman_graph(seed);
            let a = Partition::seeded_bfs(&g1, 4, 99);
            let b = Partition::seeded_bfs(&g2, 4, 99);
            assert_eq!(a, b, "seed {seed}: partition must be deterministic");
            let c = Partition::seeded_bfs(&g1, 4, 100);
            // Different seeds are allowed to agree on tiny graphs, but on a
            // 40-node Waxman at least one node should move.
            assert_ne!(a, c, "seed {seed}: partition ignored its seed");
        }
    }

    #[test]
    fn seeded_bfs_balances_connected_graphs() {
        let g = waxman_graph(3);
        let p = Partition::seeded_bfs(&g, 4, 1);
        let mut sizes = vec![0usize; p.shards()];
        for n in g.nodes() {
            sizes[p.shard_of_node(n)] += 1;
        }
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every shard should claim nodes on a connected graph: {sizes:?}"
        );
    }

    #[test]
    fn shard_count_is_clamped_to_node_count() {
        let g = waxman_graph(5);
        let p = Partition::seeded_bfs(&g, 1_000, 1);
        assert!(p.shards() <= g.node_count());
        let p1 = Partition::seeded_bfs(&g, 1, 1);
        assert_eq!(p1.shards(), 1);
        assert!(g.nodes().all(|n| p1.shard_of_node(n) == 0));
    }
}
