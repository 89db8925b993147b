//! Simple undirected graphs with stable edge identifiers.

use std::fmt;

use crate::{EdgeId, VertexId};

/// A simple undirected graph in flat CSR (compressed sparse row) form.
///
/// Vertices are dense integers `0..n`; edges get dense identifiers
/// `0..m` in insertion order, so algorithms can attach per-edge data
/// (weights, coverage bits, spanner membership) in parallel vectors or
/// [`crate::EdgeSet`]s.
///
/// Adjacency lives in three contiguous arrays — `offsets` slicing
/// `nbrs`/`eids` per vertex — so degree is O(1) and a neighbor scan is
/// one cache-linear walk. A second, per-vertex-sorted copy of the
/// neighbor arrays backs O(log deg) [`Graph::edge_id`] lookup (binary
/// search replaces the old `BTreeMap` edge index) and merge-style set
/// intersections via [`Graph::sorted_neighbor_slices`]. The
/// insertion-order arrays are the ones [`Graph::neighbors`] iterates,
/// so the representation change is invisible to every order-sensitive
/// consumer.
///
/// Self-loops and parallel edges are rejected — the paper works with
/// simple graphs throughout.
///
/// A graph is built once, in bulk, by [`Graph::from_edges`] in
/// O(n + m log Δ); edge ids are the iterator's order. There is no
/// public incremental insert: collect the edges first.
///
/// # Example
///
/// ```
/// use dsa_graphs::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.edge_id(1, 0), Some(0));
/// assert_eq!(g.endpoints(1), (1, 2));
/// ```
#[derive(Clone, Eq)]
pub struct Graph {
    /// Number of vertices.
    n: usize,
    /// `edges[e]` is the pair of endpoints, with the smaller id first.
    edges: Vec<(VertexId, VertexId)>,
    /// `offsets[v]..offsets[v + 1]` slices `nbrs`/`eids` (and their
    /// sorted copies) for vertex `v`; `offsets.len() == n + 1`.
    offsets: Vec<usize>,
    /// Neighbor vertices, per vertex in edge-insertion order.
    nbrs: Vec<VertexId>,
    /// Edge id of each `nbrs` entry.
    eids: Vec<EdgeId>,
    /// `nbrs` with each per-vertex slice sorted by neighbor id.
    sorted_nbrs: Vec<VertexId>,
    /// Edge id of each `sorted_nbrs` entry.
    sorted_eids: Vec<EdgeId>,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            offsets: vec![0; n + 1],
            nbrs: Vec::new(),
            eids: Vec::new(),
            sorted_nbrs: Vec::new(),
            sorted_eids: Vec::new(),
        }
    }

    /// Creates a graph with `n` vertices from an edge iterator, in one
    /// bulk CSR build; the iterator's `i`-th edge gets id `i`.
    ///
    /// # Panics
    ///
    /// Panics if any edge is a self-loop, a duplicate, or references a
    /// vertex `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            assert!(u != v, "self-loop {u}-{v} not allowed in a simple graph");
            assert!(u < n && v < n, "edge {u}-{v} out of range for {n} vertices");
            g.edges.push((u.min(v), u.max(v)));
        }
        g.rebuild();
        // A duplicate shows as two equal neighbours side by side in a
        // sorted slice: one O(m) scan, no hash set.
        for u in 0..n {
            let (sorted, _) = g.sorted_neighbor_slices(u);
            if let Some(pair) = sorted.windows(2).find(|p| p[0] == p[1]) {
                let v = pair[0];
                panic!("duplicate edge {u}-{v} not allowed in a simple graph");
            }
        }
        g
    }

    /// Rebuilds the CSR arrays from `self.edges`. Adjacency order is
    /// the old push order by construction: scanning edges in id order
    /// appends each endpoint to the other's list exactly as the
    /// incremental builder did.
    fn rebuild(&mut self) {
        let n = self.n;
        let m = self.edges.len();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(u, v) in &self.edges {
            self.offsets[u + 1] += 1;
            self.offsets[v + 1] += 1;
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        let mut cursor: Vec<usize> = self.offsets[..n].to_vec();
        self.nbrs.clear();
        self.nbrs.resize(2 * m, 0);
        self.eids.clear();
        self.eids.resize(2 * m, 0);
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            self.nbrs[cursor[u]] = v;
            self.eids[cursor[u]] = e;
            cursor[u] += 1;
            self.nbrs[cursor[v]] = u;
            self.eids[cursor[v]] = e;
            cursor[v] += 1;
        }
        // Sorted copies: neighbor ids are unique per vertex (simple
        // graph), so sorting (nbr, eid) pairs sorts by neighbor.
        let mut pairs: Vec<(VertexId, EdgeId)> = self
            .nbrs
            .iter()
            .copied()
            .zip(self.eids.iter().copied())
            .collect();
        for v in 0..n {
            pairs[self.offsets[v]..self.offsets[v + 1]].sort_unstable();
        }
        self.sorted_nbrs.clear();
        self.sorted_eids.clear();
        self.sorted_nbrs.extend(pairs.iter().map(|&(x, _)| x));
        self.sorted_eids.extend(pairs.iter().map(|&(_, e)| e));
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices()
    }

    /// Adds an edge `{u, v}` and returns its id: the incremental
    /// builder the unit tests hold [`Graph::from_edges`] equal to.
    ///
    /// Rebuilds the CSR arrays, O(n + m) per call, so it is compiled
    /// for this crate's tests only.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicate edges, or out-of-range endpoints.
    #[cfg(test)]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> EdgeId {
        assert!(u != v, "self-loop {u}-{v} not allowed in a simple graph");
        assert!(
            u < self.n && v < self.n,
            "edge {u}-{v} out of range for {} vertices",
            self.n
        );
        assert!(
            self.edge_id(u, v).is_none(),
            "duplicate edge {u}-{v} not allowed in a simple graph"
        );
        let id = self.edges.len();
        self.edges.push((u.min(v), u.max(v)));
        self.rebuild();
        id
    }

    /// Adds an edge if not already present; returns `(id, inserted)`.
    #[cfg(test)]
    pub fn ensure_edge(&mut self, u: VertexId, v: VertexId) -> (EdgeId, bool) {
        match self.edge_id(u, v) {
            Some(id) => (id, false),
            None => (self.add_edge(u, v), true),
        }
    }

    /// The id of the edge `{u, v}`, if present: a binary search over
    /// the sorted neighbor slice of the lower-degree endpoint.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let lo = self.offsets[a];
        let hi = self.offsets[a + 1];
        self.sorted_nbrs[lo..hi]
            .binary_search(&b)
            .ok()
            .map(|i| self.sorted_eids[lo + i])
    }

    /// Whether the edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// The endpoints of edge `e`, smaller vertex first.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e]
    }

    /// Given edge `e` and one endpoint, returns the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    pub fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (a, b) = self.edges[e];
        if v == a {
            b
        } else if v == b {
            a
        } else {
            panic!("vertex {v} is not an endpoint of edge {e} = {{{a}, {b}}}")
        }
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterator over `(neighbor, edge id)` pairs of `v`, in edge
    /// insertion order.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let (nbrs, eids) = self.neighbor_slices(v);
        nbrs.iter().copied().zip(eids.iter().copied())
    }

    /// Iterator over the neighbor vertices of `v`, in edge insertion
    /// order.
    pub fn neighbor_vertices(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbor_slices(v).0.iter().copied()
    }

    /// The contiguous `(neighbors, edge ids)` slices of `v`, in edge
    /// insertion order — the zero-cost form of [`Graph::neighbors`]
    /// for cache-linear hot loops.
    pub fn neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.offsets[v];
        let hi = self.offsets[v + 1];
        (&self.nbrs[lo..hi], &self.eids[lo..hi])
    }

    /// The contiguous `(neighbors, edge ids)` slices of `v`, sorted by
    /// neighbor id — the form merge-style intersections and binary
    /// searches want.
    pub fn sorted_neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.offsets[v];
        let hi = self.offsets[v + 1];
        (&self.sorted_nbrs[lo..hi], &self.sorted_eids[lo..hi])
    }

    /// Iterator over `(edge id, u, v)` triples for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edges.iter().enumerate().map(|(e, &(u, v))| (e, u, v))
    }

    /// True if `x` is adjacent to both endpoints of edge `e` — i.e. `x`
    /// can 2-span `e` with a star centered at `x`.
    pub fn is_common_neighbor(&self, x: VertexId, e: EdgeId) -> bool {
        let (u, v) = self.endpoints(e);
        self.has_edge(x, u) && self.has_edge(x, v)
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(0)
    }
}

/// Equality is structural: same vertex count and same edges in the
/// same id order. The CSR arrays are a pure function of those, so
/// comparing them would be redundant work.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.num_vertices())
            .field("m", &self.num_edges())
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_id(3, 2), g.edge_id(2, 3));
        let e = g.edge_id(1, 2).unwrap();
        assert_eq!(g.endpoints(e), (1, 2));
        assert_eq!(g.other_endpoint(e, 1), 2);
        assert_eq!(g.other_endpoint(e, 2), 1);
    }

    #[test]
    fn neighbors_list_both_directions() {
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]);
        let n0: Vec<_> = g.neighbor_vertices(0).collect();
        assert_eq!(n0, vec![1, 2]);
        let n1: Vec<_> = g.neighbor_vertices(1).collect();
        assert_eq!(n1, vec![0]);
    }

    #[test]
    fn neighbors_are_in_insertion_order() {
        // Edges incident to 2 arrive as 2-5, 2-1, 2-4, 2-3: the
        // insertion-order view must preserve that, the sorted view
        // must not.
        let g = Graph::from_edges(6, [(2, 5), (2, 1), (0, 1), (2, 4), (3, 2)]);
        let ins: Vec<_> = g.neighbor_vertices(2).collect();
        assert_eq!(ins, vec![5, 1, 4, 3]);
        let (sorted, eids) = g.sorted_neighbor_slices(2);
        assert_eq!(sorted, &[1, 3, 4, 5]);
        for (&x, &e) in sorted.iter().zip(eids) {
            assert_eq!(g.edge_id(2, x), Some(e));
        }
    }

    #[test]
    fn slices_match_iterators() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (1, 3), (4, 1), (0, 4)]);
        for v in g.vertices() {
            let (nbrs, eids) = g.neighbor_slices(v);
            let pairs: Vec<_> = g.neighbors(v).collect();
            assert_eq!(nbrs.len(), g.degree(v));
            for (i, &(x, e)) in pairs.iter().enumerate() {
                assert_eq!((nbrs[i], eids[i]), (x, e));
            }
        }
    }

    #[test]
    fn ensure_edge_is_idempotent() {
        let mut g = Graph::new(3);
        let (e, fresh) = g.ensure_edge(0, 1);
        assert!(fresh);
        let (e2, fresh2) = g.ensure_edge(1, 0);
        assert!(!fresh2);
        assert_eq!(e, e2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn incremental_matches_bulk() {
        let edges = [(0, 1), (1, 2), (0, 2), (3, 1), (4, 0), (2, 4)];
        let bulk = Graph::from_edges(5, edges);
        let mut inc = Graph::new(5);
        for (u, v) in edges {
            inc.add_edge(u, v);
        }
        assert_eq!(bulk, inc);
        for v in bulk.vertices() {
            assert_eq!(
                bulk.neighbors(v).collect::<Vec<_>>(),
                inc.neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn common_neighbor_detection() {
        // Triangle 0-1-2 plus pendant 3 on 0.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)]);
        let e12 = g.edge_id(1, 2).unwrap();
        assert!(g.is_common_neighbor(0, e12));
        assert!(!g.is_common_neighbor(3, e12));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_in_bulk() {
        Graph::from_edges(3, [(0, 1), (1, 2), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }
}
