//! The Figure-2 weighted lower-bound constructions (Section 2.3).
//!
//! In the weighted regime the dichotomy sharpens: all non-dense edges
//! get weight 0 and the dense edges weight 1, so a **cost-0** k-spanner
//! exists iff the planted inputs are disjoint — any approximation
//! ratio must preserve cost 0, which is what makes the Ω̃(n) bounds of
//! Theorems 2.9 (directed, k ≥ 4) and 2.10 (undirected, with a path
//! gadget stretching the construction to any k ≥ 4) work.

use std::ops::Range;

use dsa_graphs::traversal::{bfs_distances_directed, bfs_distances_in};
use dsa_graphs::{DiGraph, EdgeId, EdgeSet, EdgeWeights, Graph, VertexId};

use crate::disjointness::Instance;
use crate::weights_of;

/// The vertex layout both constructions share: `x¹_i = i`,
/// `x²_i = ℓ+i`, `y¹_i = 2ℓ+i`, `y²_i = 3ℓ+i`, `x_i = 4ℓ+i`,
/// `y_i = 5ℓ+i`. The undirected construction appends its path-gadget
/// vertices after these `6ℓ`.
#[derive(Clone, Copy)]
struct Layout {
    ell: usize,
}

impl Layout {
    fn x1(self, i: usize) -> VertexId {
        i
    }
    fn x2(self, i: usize) -> VertexId {
        self.ell + i
    }
    fn y1(self, i: usize) -> VertexId {
        2 * self.ell + i
    }
    fn y2(self, i: usize) -> VertexId {
        3 * self.ell + i
    }
    fn x_leaf(self, i: usize) -> VertexId {
        4 * self.ell + i
    }
    fn y_leaf(self, i: usize) -> VertexId {
        5 * self.ell + i
    }

    /// Appends the dense component `x_i → y_j` (weight 1) and then the
    /// input edges `x¹_i → x²_j` iff `a_ij = 0` and `y¹_i → y²_j` iff
    /// `b_ij = 0` (weight 0). Returns the dense component's id range.
    fn push_dense_and_input_edges(
        self,
        edges: &mut Vec<(VertexId, VertexId, u64)>,
        instance: &Instance,
    ) -> Range<EdgeId> {
        let ell = self.ell;
        let start = edges.len();
        for i in 0..ell {
            for j in 0..ell {
                edges.push((self.x_leaf(i), self.y_leaf(j), 1));
            }
        }
        let dense = start..edges.len();
        for i in 0..ell {
            for j in 0..ell {
                if !instance.a[i * ell + j] {
                    edges.push((self.x1(i), self.x2(j), 0));
                }
                if !instance.b[i * ell + j] {
                    edges.push((self.y1(i), self.y2(j), 0));
                }
            }
        }
        dense
    }
}

/// The directed weighted construction `G_w(ℓ)` of Theorem 2.9.
#[derive(Clone, Debug)]
pub struct GwDirected {
    /// Block count; the instance has `ℓ²` bits and the graph `6ℓ`
    /// vertices.
    pub ell: usize,
    /// The graph.
    pub graph: DiGraph,
    /// Edge weights: 0 off the dense component, 1 on it.
    pub weights: EdgeWeights,
    /// The dense component `D = X2 × Y2`.
    pub d_edges: EdgeSet,
    /// The planted instance.
    pub instance: Instance,
}

impl GwDirected {
    fn layout(&self) -> Layout {
        Layout { ell: self.ell }
    }

    /// Vertex ids: `x¹_i = i`, `x²_i = ℓ+i`, `y¹_i = 2ℓ+i`,
    /// `y²_i = 3ℓ+i`, `x_i = 4ℓ+i`, `y_i = 5ℓ+i`.
    pub fn x1(&self, i: usize) -> VertexId {
        self.layout().x1(i)
    }
    /// See [`GwDirected::x1`].
    pub fn x2(&self, i: usize) -> VertexId {
        self.layout().x2(i)
    }
    /// See [`GwDirected::x1`].
    pub fn y1(&self, i: usize) -> VertexId {
        self.layout().y1(i)
    }
    /// See [`GwDirected::x1`].
    pub fn y2(&self, i: usize) -> VertexId {
        self.layout().y2(i)
    }
    /// See [`GwDirected::x1`].
    pub fn x_leaf(&self, i: usize) -> VertexId {
        self.layout().x_leaf(i)
    }
    /// See [`GwDirected::x1`].
    pub fn y_leaf(&self, i: usize) -> VertexId {
        self.layout().y_leaf(i)
    }

    /// Builds `G_w(ℓ)` for an instance with `ℓ²` bits.
    ///
    /// # Panics
    ///
    /// Panics if the instance length is not `ℓ²`.
    pub fn build(ell: usize, instance: Instance) -> GwDirected {
        assert_eq!(instance.len(), ell * ell, "instance must have ℓ² bits");
        let at = Layout { ell };
        let mut edges = Vec::with_capacity(4 * ell + 3 * ell * ell);
        for i in 0..ell {
            edges.push((at.x1(i), at.y1(i), 0));
            edges.push((at.x2(i), at.y2(i), 0));
            edges.push((at.x_leaf(i), at.x1(i), 0));
            edges.push((at.y2(i), at.y_leaf(i), 0));
        }
        let dense = at.push_dense_and_input_edges(&mut edges, &instance);
        let graph = DiGraph::from_edges(6 * ell, edges.iter().map(|&(u, v, _)| (u, v)));
        let mut d_edges = EdgeSet::new(graph.num_edges());
        d_edges.insert_range(dense.start, dense.end);
        GwDirected {
            ell,
            graph,
            weights: weights_of(&edges),
            d_edges,
            instance,
        }
    }

    /// Whether a cost-0 k-spanner exists for `k ≥ 4`: every dense edge
    /// `(x_i, y_j)` must be covered by a weight-0 directed path of
    /// length ≤ 4. Checked by BFS on the weight-0 subgraph.
    pub fn zero_cost_spanner_exists(&self, k: usize) -> bool {
        if k < 4 {
            return false;
        }
        let zero: EdgeSet = {
            let mut s = EdgeSet::new(self.graph.num_edges());
            for (e, w) in self.weights.iter() {
                if w == 0 {
                    s.insert(e);
                }
            }
            s
        };
        (0..self.ell).all(|i| {
            let dist = bfs_distances_directed(&self.graph, self.x_leaf(i), Some(&zero), k);
            (0..self.ell).all(|j| matches!(dist[self.y_leaf(j)], Some(d) if d <= k))
        })
    }

    /// Bob's side `V_B = Y1` for the cut meter.
    pub fn bob_side(&self) -> Vec<bool> {
        let mut side = vec![false; self.graph.num_vertices()];
        for i in 0..self.ell {
            side[self.y1(i)] = true;
            side[self.y2(i)] = true;
        }
        side
    }

    /// Cut size toward Bob (Θ(ℓ)).
    pub fn cut_size(&self) -> usize {
        let side = self.bob_side();
        self.graph
            .edges()
            .filter(|&(_, u, v)| side[u] != side[v])
            .count()
    }
}

/// The undirected weighted construction of Theorem 2.10: like
/// [`GwDirected`] but undirected, with the `y²_i — y_i` edge replaced
/// by a path of length `k−3` so longer detours cannot sneak in.
#[derive(Clone, Debug)]
pub struct GwUndirected {
    /// Block count.
    pub ell: usize,
    /// The stretch the construction is built for (k ≥ 4).
    pub k: usize,
    /// The graph.
    pub graph: Graph,
    /// Edge weights (0 except the dense component).
    pub weights: EdgeWeights,
    /// The dense component.
    pub d_edges: EdgeSet,
    /// The planted instance.
    pub instance: Instance,
}

impl GwUndirected {
    /// Builds the undirected construction for stretch `k ≥ 4`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 4` or the instance length is not `ℓ²`.
    pub fn build(ell: usize, k: usize, instance: Instance) -> GwUndirected {
        assert!(k >= 4, "the undirected bound needs k >= 4");
        assert_eq!(instance.len(), ell * ell, "instance must have ℓ² bits");
        // Layout: the 6ℓ base vertices, then (k-4)·ℓ path gadget
        // vertices appended.
        let at = Layout { ell };
        let base = 6 * ell;
        let gadget_len = k - 4; // intermediate vertices on each path
        let n = base + gadget_len * ell;
        let mid = |i: usize, t: usize| base + i * gadget_len + t;
        let mut edges = Vec::with_capacity((4 + gadget_len) * ell + 3 * ell * ell);
        for i in 0..ell {
            edges.push((at.x1(i), at.y1(i), 0));
            edges.push((at.x2(i), at.y2(i), 0));
            edges.push((at.x_leaf(i), at.x1(i), 0));
            // Path of length k-3 from y2_i to y_i.
            let mut prev = at.y2(i);
            for t in 0..gadget_len {
                edges.push((prev, mid(i, t), 0));
                prev = mid(i, t);
            }
            edges.push((prev, at.y_leaf(i), 0));
        }
        let dense = at.push_dense_and_input_edges(&mut edges, &instance);
        let graph = Graph::from_edges(n, edges.iter().map(|&(u, v, _)| (u, v)));
        let mut d_edges = EdgeSet::new(graph.num_edges());
        d_edges.insert_range(dense.start, dense.end);
        GwUndirected {
            ell,
            k,
            graph,
            weights: weights_of(&edges),
            d_edges,
            instance,
        }
    }

    /// Whether a cost-0 k-spanner exists: every dense edge `{x_i, y_j}`
    /// needs a weight-0 path of length ≤ k.
    pub fn zero_cost_spanner_exists(&self) -> bool {
        let zero: EdgeSet = {
            let mut s = EdgeSet::new(self.graph.num_edges());
            for (e, w) in self.weights.iter() {
                if w == 0 {
                    s.insert(e);
                }
            }
            s
        };
        let at = Layout { ell: self.ell };
        (0..self.ell).all(|i| {
            let dist = bfs_distances_in(&self.graph, at.x_leaf(i), Some(&zero), self.k);
            (0..self.ell).all(|j| matches!(dist[at.y_leaf(j)], Some(d) if d <= self.k))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjointness::{random_disjoint, random_intersecting};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn directed_dichotomy() {
        let mut rng = StdRng::seed_from_u64(11);
        for ell in [2usize, 4, 6] {
            let d = GwDirected::build(ell, random_disjoint(ell * ell, &mut rng));
            assert_eq!(d.graph.num_vertices(), 6 * ell);
            assert!(d.zero_cost_spanner_exists(4), "ell={ell}");
            assert!(d.zero_cost_spanner_exists(6), "larger k only easier");

            let i = GwDirected::build(ell, random_intersecting(ell * ell, 1, &mut rng));
            assert!(!i.zero_cost_spanner_exists(4), "ell={ell}");
            assert!(
                !i.zero_cost_spanner_exists(10),
                "no long detours exist in the directed construction"
            );
        }
    }

    #[test]
    fn directed_cut_is_linear() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = GwDirected::build(5, random_disjoint(25, &mut rng));
        // Matching (2ℓ) + y2->y gadget (ℓ) cross the Y1 cut.
        assert_eq!(d.cut_size(), 3 * 5);
    }

    #[test]
    fn undirected_dichotomy_for_various_k() {
        let mut rng = StdRng::seed_from_u64(13);
        for k in 4..=7usize {
            let ell = 3;
            let d = GwUndirected::build(ell, k, random_disjoint(ell * ell, &mut rng));
            assert!(d.zero_cost_spanner_exists(), "k={k} disjoint");
            let i = GwUndirected::build(ell, k, random_intersecting(ell * ell, 1, &mut rng));
            assert!(
                !i.zero_cost_spanner_exists(),
                "k={k}: path gadget must block long undirected detours"
            );
        }
    }

    #[test]
    fn undirected_vertex_count_grows_with_k() {
        let mut rng = StdRng::seed_from_u64(4);
        let ell = 3;
        let g4 = GwUndirected::build(ell, 4, random_disjoint(9, &mut rng));
        let g7 = GwUndirected::build(ell, 7, random_disjoint(9, &mut rng));
        assert_eq!(g4.graph.num_vertices(), 6 * ell);
        assert_eq!(g7.graph.num_vertices(), 6 * ell + 3 * ell);
    }

    #[test]
    fn weights_are_zero_off_dense() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = GwDirected::build(3, random_disjoint(9, &mut rng));
        for (e, w) in d.weights.iter() {
            assert_eq!(w == 1, d.d_edges.contains(e));
        }
    }
}
