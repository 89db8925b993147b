//! Dinic's max-flow algorithm on small integer-capacity networks.

use std::collections::VecDeque;

/// A flow network with integer capacities, solved with Dinic's
/// algorithm.
///
/// Capacities are `i64`; the densest-subgraph reduction scales rational
/// densities to integers, and the magnitudes involved (degree × density
/// denominator) stay far below `i64::MAX` for any graph this workspace
/// handles.
///
/// # Example
///
/// ```
/// use dsa_flow::MaxFlow;
///
/// let mut net = MaxFlow::new(4);
/// net.add_edge(0, 1, 3);
/// net.add_edge(0, 2, 2);
/// net.add_edge(1, 3, 2);
/// net.add_edge(2, 3, 3);
/// net.add_edge(1, 2, 1);
/// assert_eq!(net.max_flow(0, 3), 5);
/// ```
#[derive(Clone, Debug)]
pub struct MaxFlow {
    // Edges stored in pairs: edge 2k is forward, 2k+1 its reverse.
    to: Vec<usize>,
    cap: Vec<i64>,
    adj: Vec<Vec<usize>>,
    // Scratch for Dinic.
    level: Vec<i32>,
    iter: Vec<usize>,
}

impl MaxFlow {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        MaxFlow {
            to: Vec::new(),
            cap: Vec::new(),
            adj: vec![Vec::new(); n],
            level: vec![0; n],
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `u -> v` with capacity `cap` (and its zero
    /// capacity reverse). Returns the edge index, usable with
    /// [`MaxFlow::flow_on`].
    ///
    /// # Panics
    ///
    /// Panics if `cap < 0` or an endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> usize {
        assert!(cap >= 0, "negative capacity");
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        let id = self.to.len();
        self.to.push(v);
        self.cap.push(cap);
        self.adj[u].push(id);
        self.to.push(u);
        self.cap.push(0);
        self.adj[v].push(id + 1);
        id
    }

    /// Empties the network of flow and gives every edge a new capacity:
    /// the `k`-th edge added gets `cap(k)`. One network then serves a
    /// series of max-flow calls that differ only in capacities.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is negative.
    pub(crate) fn refill(&mut self, mut cap: impl FnMut(usize) -> i64) {
        for (k, pair) in self.cap.chunks_exact_mut(2).enumerate() {
            let c = cap(k);
            assert!(c >= 0, "negative capacity");
            pair[0] = c;
            pair[1] = 0;
        }
    }

    /// Flow currently on edge `id` (residual bookkeeping: flow equals the
    /// capacity of the reverse edge).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = VecDeque::new();
        self.level[s] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &e in &self.adj[v] {
                let u = self.to[e];
                if self.cap[e] > 0 && self.level[u] < 0 {
                    self.level[u] = self.level[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, f: i64) -> i64 {
        if v == t {
            return f;
        }
        while self.iter[v] < self.adj[v].len() {
            let e = self.adj[v][self.iter[v]];
            let u = self.to[e];
            if self.cap[e] > 0 && self.level[u] == self.level[v] + 1 {
                let d = self.dfs(u, t, f.min(self.cap[e]));
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[v] += 1;
        }
        0
    }

    /// Computes the maximum `s`-`t` flow. It mutates residual
    /// capacities, so a second call only finds flow the first left
    /// unused.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        assert_ne!(s, t, "source equals sink");
        let mut flow = 0;
        while self.bfs(s, t) {
            self.iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(s, t, i64::MAX);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
        flow
    }

    /// After [`MaxFlow::max_flow`], the set of nodes reachable from `s`
    /// in the residual network — the source side of a minimum cut.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut queue = VecDeque::new();
        seen[s] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &e in &self.adj[v] {
                let u = self.to[e];
                if self.cap[e] > 0 && !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_network() {
        // CLRS-style example.
        let mut net = MaxFlow::new(6);
        net.add_edge(0, 1, 16);
        net.add_edge(0, 2, 13);
        net.add_edge(1, 2, 10);
        net.add_edge(2, 1, 4);
        net.add_edge(1, 3, 12);
        net.add_edge(3, 2, 9);
        net.add_edge(2, 4, 14);
        net.add_edge(4, 3, 7);
        net.add_edge(3, 5, 20);
        net.add_edge(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut net = MaxFlow::new(3);
        net.add_edge(0, 1, 10);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn min_cut_matches_flow() {
        let mut net = MaxFlow::new(4);
        let e01 = net.add_edge(0, 1, 2);
        let e02 = net.add_edge(0, 2, 2);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 5);
        let f = net.max_flow(0, 3);
        assert_eq!(f, 3);
        let side = net.min_cut_source_side(0);
        assert!(side[0]);
        assert!(!side[3]);
        // Vertex 1 is saturated downstream, so it stays on the source side.
        assert!(side[1]);
        assert_eq!(net.flow_on(e01), 1);
        assert_eq!(net.flow_on(e02), 2);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut net = MaxFlow::new(2);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 1, 2);
        assert_eq!(net.max_flow(0, 1), 3);
    }
}
