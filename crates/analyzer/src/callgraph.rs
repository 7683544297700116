//! The workspace call graph: adjacency built by [`resolve`](crate::resolve),
//! multi-source BFS reachability, and shortest witness call paths.
//!
//! Witnesses are the analyzer's answer to "why is this a finding": every
//! transitive diagnostic carries the *shortest* call chain from a root
//! (hot fn, request handler) to the offending function, so a reader can
//! audit the over-approximation instead of trusting it. Shortest paths
//! come from breadth-first search with parent pointers; determinism comes
//! from visiting nodes in index order (function indices follow sorted
//! file order from the scanner, so the same workspace always yields the
//! same witnesses).

use crate::items::FnItem;
use crate::resolve::Edge;
use std::collections::VecDeque;

/// A directed call graph over `fns[0..n]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallGraph {
    /// `adj[i]` — distinct callees of function `i`, in callee order.
    pub adj: Vec<Vec<Edge>>,
}

/// One BFS step back toward the root: the caller and the call-site line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parent {
    /// Caller function index (`== self` for a root).
    pub caller: usize,
    /// 1-based call-site line in the caller's file (0 for a root).
    pub line: u32,
}

impl CallGraph {
    /// Builds the graph from resolved adjacency.
    pub fn new(adj: Vec<Vec<Edge>>) -> Self {
        Self { adj }
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Multi-source BFS: `parents[i]` is `Some` iff `i` is reachable from
    /// any root, pointing one step back along a shortest path (roots point
    /// at themselves). Roots are seeded in the order given, so when two
    /// roots reach a node at equal depth the earlier root wins —
    /// deterministic for a deterministic root order.
    pub fn reach(&self, roots: &[usize]) -> Vec<Option<Parent>> {
        let mut parents: Vec<Option<Parent>> = vec![None; self.adj.len()];
        let mut queue = VecDeque::new();
        for &r in roots {
            if r < parents.len() && parents[r].is_none() {
                parents[r] = Some(Parent { caller: r, line: 0 });
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.adj[u] {
                if parents[e.callee].is_none() {
                    parents[e.callee] = Some(Parent {
                        caller: u,
                        line: e.line,
                    });
                    queue.push_back(e.callee);
                }
            }
        }
        parents
    }

    /// The edge-reversed graph (for "which functions reach X" queries).
    pub fn reversed(&self) -> CallGraph {
        let mut adj: Vec<Vec<Edge>> = vec![Vec::new(); self.adj.len()];
        for (u, edges) in self.adj.iter().enumerate() {
            for e in edges {
                adj[e.callee].push(Edge {
                    callee: u,
                    line: e.line,
                });
            }
        }
        CallGraph { adj }
    }
}

/// Reconstructs the root-to-`target` shortest path from a [`CallGraph::reach`]
/// result: function indices from root to target inclusive. Empty when
/// `target` is unreachable.
pub fn path_to(parents: &[Option<Parent>], target: usize) -> Vec<usize> {
    let mut path = Vec::new();
    let mut cur = target;
    loop {
        let Some(p) = parents.get(cur).copied().flatten() else {
            return Vec::new();
        };
        path.push(cur);
        if p.caller == cur {
            break;
        }
        cur = p.caller;
    }
    path.reverse();
    path
}

/// Renders a witness path human-readably: `a → B::b → c`.
pub fn render_witness(fns: &[FnItem], path: &[usize]) -> String {
    let mut out = String::new();
    for (i, &idx) in path.iter().enumerate() {
        if i > 0 {
            out.push_str(" → ");
        }
        if let Some(f) = fns.get(idx) {
            out.push_str(&f.display());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> CallGraph {
        // 0 → 1 → 2 → … → n-1
        let adj = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![Edge {
                        callee: i + 1,
                        line: (i + 1) as u32,
                    }]
                } else {
                    Vec::new()
                }
            })
            .collect();
        CallGraph::new(adj)
    }

    #[test]
    fn bfs_reaches_along_chain() {
        let g = chain(4);
        let parents = g.reach(&[0]);
        assert!(parents.iter().all(Option::is_some));
        assert_eq!(path_to(&parents, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn unreachable_nodes_have_no_parent() {
        let g = chain(3);
        let parents = g.reach(&[1]);
        assert!(parents[0].is_none());
        assert_eq!(path_to(&parents, 0), Vec::<usize>::new());
        assert_eq!(path_to(&parents, 2), vec![1, 2]);
    }

    #[test]
    fn shortest_path_wins_over_longer() {
        // 0→1→3 and 0→3 — the direct edge wins.
        let g = CallGraph::new(vec![
            vec![Edge { callee: 1, line: 1 }, Edge { callee: 3, line: 2 }],
            vec![Edge { callee: 3, line: 5 }],
            Vec::new(),
            Vec::new(),
        ]);
        let parents = g.reach(&[0]);
        assert_eq!(path_to(&parents, 3), vec![0, 3]);
    }

    #[test]
    fn earlier_root_wins_ties() {
        // Both 0 and 1 call 2; root order decides the witness.
        let g = CallGraph::new(vec![
            vec![Edge { callee: 2, line: 1 }],
            vec![Edge { callee: 2, line: 9 }],
            Vec::new(),
        ]);
        let parents = g.reach(&[0, 1]);
        assert_eq!(path_to(&parents, 2), vec![0, 2]);
        let parents = g.reach(&[1, 0]);
        assert_eq!(path_to(&parents, 2), vec![1, 2]);
    }

    #[test]
    fn cycles_terminate() {
        let g = CallGraph::new(vec![
            vec![Edge { callee: 1, line: 1 }],
            vec![Edge { callee: 0, line: 2 }],
        ]);
        let parents = g.reach(&[0]);
        assert!(parents.iter().all(Option::is_some));
    }

    #[test]
    fn reversed_flips_edges() {
        let g = chain(3);
        let r = g.reversed();
        assert_eq!(g.edge_count(), r.edge_count());
        let parents = r.reach(&[2]);
        assert!(
            parents[0].is_some(),
            "0 reaches 2 forward, so 2 reaches 0 reversed"
        );
    }
}
