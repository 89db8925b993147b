//! Dinic's max-flow algorithm on small integer-capacity networks.

/// Ends a node's arc list.
const NIL: usize = usize::MAX;

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
#[derive(Clone, Debug, Default)]
pub struct MaxFlow {
    // Arcs stored in pairs: arc 2k is forward, 2k+1 its reverse.
    to: Vec<usize>,
    cap: Vec<i64>,
    // Each node's arcs as a list threaded through `next`, newest
    // first, so the network lives in flat arrays a reset keeps.
    head: Vec<usize>,
    next: Vec<usize>,
    // Scratch for Dinic. After `max_flow`, `level[v] >= 0` exactly for
    // the nodes its last, failed BFS reached.
    level: Vec<i32>,
    iter: Vec<usize>,
    queue: Vec<usize>,
}

impl MaxFlow {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut net = MaxFlow::default();
        net.reset(n);
        net
    }

    /// Empties the network down to `n` nodes and no arcs, keeping every
    /// buffer's allocation for the next network built into it.
    pub(crate) fn reset(&mut self, n: usize) {
        self.to.clear();
        self.cap.clear();
        self.next.clear();
        self.head.clear();
        self.head.resize(n, NIL);
        self.level.resize(n, -1);
        self.iter.resize(n, NIL);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.head.len()
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
            u < self.head.len() && v < self.head.len(),
            "node out of range"
        );
        let id = self.to.len();
        self.push_arc(u, v, cap);
        self.push_arc(v, u, 0);
        id
    }

    fn push_arc(&mut self, from: usize, to: usize, cap: i64) {
        self.next.push(self.head[from]);
        self.head[from] = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
    }

    /// Empties the network of flow and gives every edge new capacities:
    /// the `k`-th edge added gets `cap(k)`, forward and backward. An
    /// edge with equal capacities both ways is an undirected edge. One
    /// network then serves a series of max-flow calls that differ only
    /// in capacities.
    ///
    /// # Panics
    ///
    /// Panics if a capacity is negative.
    pub(crate) fn refill(&mut self, mut cap: impl FnMut(usize) -> (i64, i64)) {
        for (k, pair) in self.cap.chunks_exact_mut(2).enumerate() {
            let (forward, backward) = cap(k);
            assert!(forward >= 0 && backward >= 0, "negative capacity");
            pair[0] = forward;
            pair[1] = backward;
        }
    }

    /// Flow currently on edge `id` (residual bookkeeping: flow equals the
    /// capacity of the reverse edge).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s);
        let mut read = 0;
        while let Some(&v) = self.queue.get(read) {
            read += 1;
            let mut e = self.head[v];
            while e != NIL {
                let u = self.to[e];
                if self.cap[e] > 0 && self.level[u] < 0 {
                    self.level[u] = self.level[v] + 1;
                    self.queue.push(u);
                }
                e = self.next[e];
            }
        }
        self.level[t] >= 0
    }

    fn dfs(&mut self, v: usize, t: usize, f: i64) -> i64 {
        if v == t {
            return f;
        }
        while self.iter[v] != NIL {
            let e = self.iter[v];
            let u = self.to[e];
            if self.cap[e] > 0 && self.level[u] == self.level[v] + 1 {
                let d = self.dfs(u, t, f.min(self.cap[e]));
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            self.iter[v] = self.next[e];
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
            self.iter.copy_from_slice(&self.head);
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

    /// After [`MaxFlow::max_flow`], whether node `v` is reachable from
    /// the source in the residual network: the last BFS, which failed
    /// to reach the sink, already marked the source side of the
    /// minimum cut.
    pub(crate) fn on_source_side(&self, v: usize) -> bool {
        self.level[v] >= 0
    }

    /// After [`MaxFlow::max_flow`], the set of nodes reachable from `s`
    /// in the residual network — the source side of a minimum cut.
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let mut seen = vec![false; self.head.len()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(v) = stack.pop() {
            let mut e = self.head[v];
            while e != NIL {
                let u = self.to[e];
                if self.cap[e] > 0 && !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
                e = self.next[e];
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
