//! Simple directed graphs with stable edge identifiers.

use std::collections::HashMap;
use std::fmt;

use crate::{EdgeId, Graph, VertexId};

/// A simple directed graph in flat CSR form.
///
/// Edges `(u, v)` are ordered pairs; `(u, v)` and `(v, u)` may both be
/// present, but parallel copies of the same ordered pair and self-loops
/// are rejected.
///
/// As in the paper, the *communication* graph of a directed problem
/// instance is its undirected underlying graph ([`DiGraph::underlying`]);
/// directions only constrain which paths may 2-span an edge.
///
/// Out- and in-adjacency each live in contiguous offset/neighbor/edge-id
/// arrays (see [`Graph`] for the layout rationale); a sorted copy of the
/// out-neighbors backs binary-search [`DiGraph::edge_id`] lookup. As in
/// the undirected case, a graph is built once, in bulk, by
/// [`DiGraph::from_edges`].
///
/// # Example
///
/// ```
/// use dsa_graphs::DiGraph;
///
/// let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// assert_eq!(g.out_degree(0), 1);
/// assert_eq!(g.in_degree(0), 1);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(1, 0));
/// ```
#[derive(Clone, Eq)]
pub struct DiGraph {
    /// Number of vertices.
    n: usize,
    /// `edges[e]` is the ordered `(tail, head)` pair.
    edges: Vec<(VertexId, VertexId)>,
    /// `out_offsets[v]..out_offsets[v + 1]` slices the out-arrays.
    out_offsets: Vec<usize>,
    /// Heads of edges leaving each vertex, in insertion order.
    out_nbrs: Vec<VertexId>,
    /// Edge id of each `out_nbrs` entry.
    out_eids: Vec<EdgeId>,
    /// `out_nbrs` with each per-vertex slice sorted by head id.
    sorted_out_nbrs: Vec<VertexId>,
    /// Edge id of each `sorted_out_nbrs` entry.
    sorted_out_eids: Vec<EdgeId>,
    /// `in_offsets[v]..in_offsets[v + 1]` slices the in-arrays.
    in_offsets: Vec<usize>,
    /// Tails of edges entering each vertex, in insertion order.
    in_nbrs: Vec<VertexId>,
    /// Edge id of each `in_nbrs` entry.
    in_eids: Vec<EdgeId>,
    /// `in_nbrs` with each per-vertex slice sorted by tail id.
    sorted_in_nbrs: Vec<VertexId>,
    /// Edge id of each `sorted_in_nbrs` entry.
    sorted_in_eids: Vec<EdgeId>,
}

impl DiGraph {
    /// Creates a directed graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            edges: Vec::new(),
            out_offsets: vec![0; n + 1],
            out_nbrs: Vec::new(),
            out_eids: Vec::new(),
            sorted_out_nbrs: Vec::new(),
            sorted_out_eids: Vec::new(),
            in_offsets: vec![0; n + 1],
            in_nbrs: Vec::new(),
            in_eids: Vec::new(),
            sorted_in_nbrs: Vec::new(),
            sorted_in_eids: Vec::new(),
        }
    }

    /// Creates a directed graph from an edge iterator, in one bulk CSR
    /// build.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicate ordered pairs, or out-of-range
    /// endpoints.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            assert!(u != v, "self-loop ({u}, {v}) not allowed");
            assert!(
                u < n && v < n,
                "edge ({u}, {v}) out of range for {n} vertices"
            );
            g.edges.push((u, v));
        }
        g.rebuild();
        // A duplicate shows as two equal heads side by side in a
        // sorted out-slice: one O(m) scan, no hash set.
        for u in 0..n {
            let (sorted, _) = g.sorted_out_neighbor_slices(u);
            if let Some(pair) = sorted.windows(2).find(|p| p[0] == p[1]) {
                let v = pair[0];
                panic!("duplicate directed edge ({u}, {v})");
            }
        }
        g
    }

    /// Rebuilds the CSR arrays from `self.edges`.
    fn rebuild(&mut self) {
        let n = self.n;
        let m = self.edges.len();
        self.out_offsets.clear();
        self.out_offsets.resize(n + 1, 0);
        self.in_offsets.clear();
        self.in_offsets.resize(n + 1, 0);
        for &(u, v) in &self.edges {
            self.out_offsets[u + 1] += 1;
            self.in_offsets[v + 1] += 1;
        }
        for v in 0..n {
            self.out_offsets[v + 1] += self.out_offsets[v];
            self.in_offsets[v + 1] += self.in_offsets[v];
        }
        let mut out_cursor: Vec<usize> = self.out_offsets[..n].to_vec();
        let mut in_cursor: Vec<usize> = self.in_offsets[..n].to_vec();
        self.out_nbrs.clear();
        self.out_nbrs.resize(m, 0);
        self.out_eids.clear();
        self.out_eids.resize(m, 0);
        self.in_nbrs.clear();
        self.in_nbrs.resize(m, 0);
        self.in_eids.clear();
        self.in_eids.resize(m, 0);
        for (e, &(u, v)) in self.edges.iter().enumerate() {
            self.out_nbrs[out_cursor[u]] = v;
            self.out_eids[out_cursor[u]] = e;
            out_cursor[u] += 1;
            self.in_nbrs[in_cursor[v]] = u;
            self.in_eids[in_cursor[v]] = e;
            in_cursor[v] += 1;
        }
        // Heads are unique per tail (no parallel ordered pairs), so
        // sorting (head, eid) pairs sorts by head; likewise tails per
        // head for the in-arrays.
        let mut pairs: Vec<(VertexId, EdgeId)> = self
            .out_nbrs
            .iter()
            .copied()
            .zip(self.out_eids.iter().copied())
            .collect();
        for v in 0..n {
            pairs[self.out_offsets[v]..self.out_offsets[v + 1]].sort_unstable();
        }
        self.sorted_out_nbrs.clear();
        self.sorted_out_eids.clear();
        self.sorted_out_nbrs.extend(pairs.iter().map(|&(x, _)| x));
        self.sorted_out_eids.extend(pairs.iter().map(|&(_, e)| e));
        let mut pairs: Vec<(VertexId, EdgeId)> = self
            .in_nbrs
            .iter()
            .copied()
            .zip(self.in_eids.iter().copied())
            .collect();
        for v in 0..n {
            pairs[self.in_offsets[v]..self.in_offsets[v + 1]].sort_unstable();
        }
        self.sorted_in_nbrs.clear();
        self.sorted_in_eids.clear();
        self.sorted_in_nbrs.extend(pairs.iter().map(|&(x, _)| x));
        self.sorted_in_eids.extend(pairs.iter().map(|&(_, e)| e));
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices()
    }

    /// Adds the directed edge `(u, v)` and returns its id: the
    /// incremental builder the unit tests hold [`DiGraph::from_edges`]
    /// equal to.
    ///
    /// Rebuilds the CSR arrays, O(n + m) per call, so it is compiled
    /// for this crate's tests only.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, duplicates, or out-of-range endpoints.
    #[cfg(test)]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> EdgeId {
        assert!(u != v, "self-loop ({u}, {v}) not allowed");
        assert!(
            u < self.n && v < self.n,
            "edge ({u}, {v}) out of range for {} vertices",
            self.n
        );
        assert!(
            self.edge_id(u, v).is_none(),
            "duplicate directed edge ({u}, {v})"
        );
        let id = self.edges.len();
        self.edges.push((u, v));
        self.rebuild();
        id
    }

    /// The id of the directed edge `(u, v)`, if present: a binary
    /// search over the sorted out-neighbor slice of `u`.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let lo = self.out_offsets[u];
        let hi = self.out_offsets[u + 1];
        self.sorted_out_nbrs[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|i| self.sorted_out_eids[lo + i])
    }

    /// Whether the directed edge `(u, v)` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// The `(tail, head)` pair of edge `e`.
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Maximum total degree (in + out) over all vertices.
    pub fn max_total_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.in_degree(v) + self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Iterator over `(head, edge id)` pairs of edges leaving `v`, in
    /// insertion order.
    pub fn out_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let (nbrs, eids) = self.out_neighbor_slices(v);
        nbrs.iter().copied().zip(eids.iter().copied())
    }

    /// Iterator over `(tail, edge id)` pairs of edges entering `v`, in
    /// insertion order.
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let (nbrs, eids) = self.in_neighbor_slices(v);
        nbrs.iter().copied().zip(eids.iter().copied())
    }

    /// The contiguous `(heads, edge ids)` slices of edges leaving `v`,
    /// in insertion order.
    pub fn out_neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.out_offsets[v];
        let hi = self.out_offsets[v + 1];
        (&self.out_nbrs[lo..hi], &self.out_eids[lo..hi])
    }

    /// The contiguous `(tails, edge ids)` slices of edges entering `v`,
    /// in insertion order.
    pub fn in_neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.in_offsets[v];
        let hi = self.in_offsets[v + 1];
        (&self.in_nbrs[lo..hi], &self.in_eids[lo..hi])
    }

    /// [`DiGraph::out_neighbor_slices`] with heads in ascending id
    /// order — the layout merge-based intersection loops want.
    pub fn sorted_out_neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.out_offsets[v];
        let hi = self.out_offsets[v + 1];
        (&self.sorted_out_nbrs[lo..hi], &self.sorted_out_eids[lo..hi])
    }

    /// [`DiGraph::in_neighbor_slices`] with tails in ascending id
    /// order.
    pub fn sorted_in_neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.in_offsets[v];
        let hi = self.in_offsets[v + 1];
        (&self.sorted_in_nbrs[lo..hi], &self.sorted_in_eids[lo..hi])
    }

    /// Iterator over `(edge id, tail, head)` triples for all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.edges.iter().enumerate().map(|(e, &(u, v))| (e, u, v))
    }

    /// The underlying undirected communication graph, together with the
    /// mapping from each directed edge id to its undirected edge id.
    ///
    /// Antiparallel pairs `(u, v)` / `(v, u)` map to the same undirected
    /// edge. Built in bulk: undirected edge ids are assigned in order of
    /// first occurrence, exactly as the old one-`ensure_edge`-per-edge
    /// loop did.
    pub fn underlying(&self) -> (Graph, Vec<EdgeId>) {
        let mut ids: HashMap<(VertexId, VertexId), EdgeId> =
            HashMap::with_capacity(self.num_edges());
        let mut undirected = Vec::with_capacity(self.num_edges());
        let mut map = Vec::with_capacity(self.num_edges());
        for &(u, v) in &self.edges {
            let key = (u.min(v), u.max(v));
            let id = *ids.entry(key).or_insert_with(|| {
                undirected.push(key);
                undirected.len() - 1
            });
            map.push(id);
        }
        (Graph::from_edges(self.num_vertices(), undirected), map)
    }
}

impl Default for DiGraph {
    fn default() -> Self {
        DiGraph::new(0)
    }
}

/// Equality is structural: same vertex count and same ordered edges in
/// the same id order (the CSR arrays are derived from those).
impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiGraph")
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
    fn directed_edges_are_ordered() {
        let mut g = DiGraph::new(2);
        let e = g.add_edge(0, 1);
        let f = g.add_edge(1, 0);
        assert_ne!(e, f);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.endpoints(e), (0, 1));
        assert_eq!(g.endpoints(f), (1, 0));
    }

    #[test]
    fn degrees() {
        let g = DiGraph::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.max_total_degree(), 2);
    }

    #[test]
    fn neighbors_keep_insertion_order() {
        let g = DiGraph::from_edges(4, [(1, 3), (1, 0), (2, 1), (1, 2), (0, 1)]);
        let outs: Vec<_> = g.out_neighbors(1).map(|(v, _)| v).collect();
        assert_eq!(outs, vec![3, 0, 2]);
        let ins: Vec<_> = g.in_neighbors(1).map(|(v, _)| v).collect();
        assert_eq!(ins, vec![2, 0]);
        for (e, u, v) in g.edges() {
            assert_eq!(g.edge_id(u, v), Some(e));
        }
        assert_eq!(g.edge_id(3, 1), None);
    }

    #[test]
    fn incremental_matches_bulk() {
        let edges = [(0, 1), (1, 0), (2, 1), (0, 2)];
        let bulk = DiGraph::from_edges(3, edges);
        let mut inc = DiGraph::new(3);
        for (u, v) in edges {
            inc.add_edge(u, v);
        }
        assert_eq!(bulk, inc);
        for v in bulk.vertices() {
            assert_eq!(
                bulk.out_neighbors(v).collect::<Vec<_>>(),
                inc.out_neighbors(v).collect::<Vec<_>>()
            );
            assert_eq!(
                bulk.in_neighbors(v).collect::<Vec<_>>(),
                inc.in_neighbors(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn underlying_merges_antiparallel() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
        let (u, map) = g.underlying();
        assert_eq!(u.num_edges(), 2);
        assert_eq!(map[0], map[1]);
        assert_ne!(map[0], map[2]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_ordered_pair() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
    }
}
