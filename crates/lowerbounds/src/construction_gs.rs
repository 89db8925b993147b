//! The Figure-3 reduction graph `G_S` (Section 3): approximating the
//! weighted 2-spanner is at least as hard as approximating minimum
//! vertex cover.
//!
//! Each vertex `v` of the MVC instance becomes a triangle
//! `v¹, v², v³` with `w({v¹,v²}) = 1` and weight-0 sides; each edge
//! `{v, u}` becomes `{v¹,u¹}` and `{v²,u²}` (weight 0) plus one
//! weight-2 diagonal chosen by id order. Claim 3.1: the minimum-cost
//! 2-spanner of `G_S` weighs exactly the minimum vertex cover of `G`,
//! and both directions of the translation are constructive — this
//! module implements them and the round-trip is property-tested.

use dsa_graphs::{DiGraph, EdgeSet, EdgeWeights, Graph, VertexId};

use crate::weights_of;

/// The built reduction instance.
#[derive(Clone, Debug)]
pub struct GsConstruction {
    /// The original MVC instance.
    pub original: Graph,
    /// The reduction graph on `3n` vertices.
    pub graph: Graph,
    /// Weights in `{0, 1, 2}`.
    pub weights: EdgeWeights,
}

impl GsConstruction {
    /// Vertex id of `v¹`.
    pub fn v1(v: VertexId) -> VertexId {
        3 * v
    }
    /// Vertex id of `v²`.
    pub fn v2(v: VertexId) -> VertexId {
        3 * v + 1
    }
    /// Vertex id of `v³`.
    pub fn v3(v: VertexId) -> VertexId {
        3 * v + 2
    }

    /// Builds `G_S` from an MVC instance.
    pub fn build(original: &Graph) -> GsConstruction {
        let n = original.num_vertices();
        let mut edges = Vec::with_capacity(3 * n + 3 * original.num_edges());
        // Triangles.
        for v in 0..n {
            edges.push((Self::v1(v), Self::v2(v), 1));
            edges.push((Self::v1(v), Self::v3(v), 0));
            edges.push((Self::v2(v), Self::v3(v), 0));
        }
        // Edge gadgets.
        for (_, a, b) in original.edges() {
            let (v, u) = (a.min(b), a.max(b)); // id order picks the diagonal
            edges.push((Self::v1(v), Self::v1(u), 0));
            edges.push((Self::v2(v), Self::v2(u), 0));
            edges.push((Self::v1(v), Self::v2(u), 2));
        }
        GsConstruction {
            original: original.clone(),
            graph: Graph::from_edges(3 * n, edges.iter().map(|&(x, y, _)| (x, y))),
            weights: weights_of(&edges),
        }
    }

    /// The Section-3 remark variant: diagonals get weight **1** instead
    /// of 2, so all weights are 0/1. An α-approximation for the
    /// weighted 2-spanner on this graph yields a 2α-approximation for
    /// MVC (the normalization doubles at most the diagonal costs),
    /// which transfers the same lower bounds to 0/1 weights — the
    /// paper reads this as hardness of *2-spanner augmentation*.
    pub fn build_01(original: &Graph) -> GsConstruction {
        let mut gs = Self::build(original);
        let reweighted: Vec<u64> = gs.weights.iter().map(|(_, w)| w.min(1)).collect();
        gs.weights = EdgeWeights::from_vec(reweighted);
        gs
    }

    /// All weight-0 edges of `G_S`.
    pub fn zero_weight_edges(&self) -> EdgeSet {
        let mut s = EdgeSet::new(self.graph.num_edges());
        for (e, w) in self.weights.iter() {
            if w == 0 {
                s.insert(e);
            }
        }
        s
    }

    /// Claim 3.1, cover → spanner: all weight-0 edges plus `{v¹, v²}`
    /// for every cover vertex. Costs exactly `|cover|`.
    pub fn cover_to_spanner(&self, cover: &[VertexId]) -> EdgeSet {
        let mut h = self.zero_weight_edges();
        for &v in cover {
            let e = self
                .graph
                .edge_id(Self::v1(v), Self::v2(v))
                .expect("triangle edge");
            h.insert(e);
        }
        h
    }

    /// Claim 3.1, spanner → cover. First normalizes `h` to `h'` of no
    /// larger cost: keep all weight-0 edges and the weight-1 edges of
    /// `h`; replace every weight-2 diagonal `{v¹, u²} ∈ h` by the two
    /// weight-1 edges `{v¹, v²}` and `{u¹, u²}`. Then reads the cover
    /// off the weight-1 edges. Returns `(cover, normalized spanner)`.
    pub fn spanner_to_cover(&self, h: &EdgeSet) -> (Vec<VertexId>, EdgeSet) {
        let n = self.original.num_vertices();
        let mut hp = self.zero_weight_edges();
        let mut in_cover = vec![false; n];
        for e in h.iter() {
            if self.weights.get(e) == 0 {
                continue;
            }
            // Positive-weight edges are either triangle tops {v¹, v²}
            // or diagonals {v¹, u²}; distinguished structurally so the
            // 0/1-weight variant (see `build_01`) works too.
            let (a, b) = self.graph.endpoints(e);
            if a / 3 == b / 3 {
                // Triangle top.
                hp.insert(e);
                in_cover[a / 3] = true;
            } else {
                // Diagonal: replace by both triangle tops.
                for x in [a / 3, b / 3] {
                    let t = self
                        .graph
                        .edge_id(Self::v1(x), Self::v2(x))
                        .expect("triangle edge");
                    hp.insert(t);
                    in_cover[x] = true;
                }
            }
        }
        let cover = (0..n).filter(|&v| in_cover[v]).collect();
        (cover, hp)
    }
}

/// Simulation cost of Lemma 3.2: a distributed weighted-2-spanner
/// algorithm running in `T(n)` rounds yields an MVC algorithm in
/// `3·T(3n)` rounds (three messages may need to share one original
/// edge per simulated round).
pub fn mvc_rounds_from_spanner_rounds(spanner_rounds: u64) -> u64 {
    3 * spanner_rounds
}

/// The directed variant of the Section-3 remark: triangles become
/// `(v¹→v²), (v¹→v³), (v³→v²)` and each original edge contributes the
/// five directed edges `(v¹→u¹), (u¹→v¹), (v²→u²), (u²→v²)` and one
/// diagonal `(v¹→u²)` by id order, with the same weights as the
/// undirected case. The same lower bounds then apply to the directed
/// weighted 2-spanner problem.
#[derive(Clone, Debug)]
pub struct GsDirected {
    /// The original MVC instance.
    pub original: Graph,
    /// The directed reduction graph on `3n` vertices.
    pub graph: DiGraph,
    /// Weights in `{0, 1, 2}`.
    pub weights: EdgeWeights,
}

impl GsDirected {
    /// Builds the directed reduction graph.
    pub fn build(original: &Graph) -> GsDirected {
        let n = original.num_vertices();
        let mut edges = Vec::with_capacity(3 * n + 5 * original.num_edges());
        for v in 0..n {
            edges.push((GsConstruction::v1(v), GsConstruction::v2(v), 1));
            edges.push((GsConstruction::v1(v), GsConstruction::v3(v), 0));
            edges.push((GsConstruction::v3(v), GsConstruction::v2(v), 0));
        }
        for (_, a, b) in original.edges() {
            let (v, u) = (a.min(b), a.max(b));
            for (x, y) in [
                (GsConstruction::v1(v), GsConstruction::v1(u)),
                (GsConstruction::v1(u), GsConstruction::v1(v)),
                (GsConstruction::v2(v), GsConstruction::v2(u)),
                (GsConstruction::v2(u), GsConstruction::v2(v)),
            ] {
                edges.push((x, y, 0));
            }
            edges.push((GsConstruction::v1(v), GsConstruction::v2(u), 2));
        }
        GsDirected {
            original: original.clone(),
            graph: DiGraph::from_edges(3 * n, edges.iter().map(|&(x, y, _)| (x, y))),
            weights: weights_of(&edges),
        }
    }

    /// Cover → spanner, as in Claim 3.1: all weight-0 edges plus the
    /// triangle tops of cover vertices. Cost = |cover|.
    pub fn cover_to_spanner(&self, cover: &[VertexId]) -> EdgeSet {
        let mut h = EdgeSet::new(self.graph.num_edges());
        for (e, weight) in self.weights.iter() {
            if weight == 0 {
                h.insert(e);
            }
        }
        for &v in cover {
            let e = self
                .graph
                .edge_id(GsConstruction::v1(v), GsConstruction::v2(v))
                .expect("triangle top");
            h.insert(e);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc::{exact_vertex_cover, greedy_vertex_cover, is_vertex_cover};
    use dsa_core::seq::exact_min_2_spanner_weighted;
    use dsa_core::verify::{is_k_spanner, spanner_cost};
    use dsa_graphs::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn structure_counts() {
        let g = gen::cycle(5);
        let gs = GsConstruction::build(&g);
        assert_eq!(gs.graph.num_vertices(), 15);
        assert_eq!(gs.graph.num_edges(), 3 * 5 + 3 * 5);
        // Weight histogram: n ones, 2n + 2m zeros, m twos.
        let ones = gs.weights.iter().filter(|&(_, w)| w == 1).count();
        let twos = gs.weights.iter().filter(|&(_, w)| w == 2).count();
        assert_eq!(ones, 5);
        assert_eq!(twos, 5);
    }

    #[test]
    fn cover_to_spanner_is_valid_and_costs_cover_size() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..4 {
            let g = gen::gnp_connected(8, 0.35, &mut rng);
            let gs = GsConstruction::build(&g);
            let cover = exact_vertex_cover(&g);
            let h = gs.cover_to_spanner(&cover);
            assert!(is_k_spanner(&gs.graph, &h, 2), "HC must 2-span G_S");
            assert_eq!(spanner_cost(&h, &gs.weights), cover.len() as u64);
        }
    }

    #[test]
    fn spanner_to_cover_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..4 {
            let g = gen::gnp_connected(8, 0.3, &mut rng);
            let gs = GsConstruction::build(&g);
            // Start from any valid spanner (greedy cover-based).
            let h = gs.cover_to_spanner(&greedy_vertex_cover(&g));
            let (cover, hp) = gs.spanner_to_cover(&h);
            assert!(is_vertex_cover(&g, &cover));
            assert!(is_k_spanner(&gs.graph, &hp, 2));
            assert_eq!(spanner_cost(&hp, &gs.weights), cover.len() as u64);
            assert!(spanner_cost(&hp, &gs.weights) <= spanner_cost(&h, &gs.weights));
        }
    }

    #[test]
    fn normalization_handles_weight_two_diagonals() {
        // A single edge: spanner using the weight-2 diagonal must
        // convert into both triangle tops.
        let g = Graph::from_edges(2, [(0, 1)]);
        let gs = GsConstruction::build(&g);
        let diag = gs
            .graph
            .edge_id(GsConstruction::v1(0), GsConstruction::v2(1))
            .unwrap();
        let mut h = gs.zero_weight_edges();
        h.insert(diag);
        assert!(is_k_spanner(&gs.graph, &h, 2));
        let (cover, hp) = gs.spanner_to_cover(&h);
        assert_eq!(cover, vec![0, 1]);
        assert!(is_k_spanner(&gs.graph, &hp, 2));
        assert_eq!(spanner_cost(&hp, &gs.weights), 2);
        assert!(!hp.contains(diag));
    }

    #[test]
    fn claim_3_1_equality_on_small_graphs() {
        // min-cost 2-spanner of G_S == min vertex cover of G, exactly.
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..3 {
            let g = gen::gnp_connected(5, 0.5, &mut rng);
            let gs = GsConstruction::build(&g);
            let vc = exact_vertex_cover(&g).len() as u64;
            let (_, spanner_cost_opt) = exact_min_2_spanner_weighted(&gs.graph, &gs.weights);
            assert_eq!(spanner_cost_opt, vc, "Claim 3.1 equality violated");
        }
    }

    #[test]
    fn simulation_round_formula() {
        assert_eq!(mvc_rounds_from_spanner_rounds(10), 30);
    }

    #[test]
    fn zero_one_variant_gives_factor_two_transfer() {
        // Section 3 remark: on the 0/1-weight G_S, the optimum is
        // sandwiched |VC|/2 ≤ w(H*) ≤ |VC|, and any spanner converts
        // to a cover of size ≤ 2·w(H).
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..3 {
            let g = gen::gnp_connected(6, 0.45, &mut rng);
            let gs01 = GsConstruction::build_01(&g);
            let vc = exact_vertex_cover(&g).len() as u64;
            let (h, cost) = exact_min_2_spanner_weighted(&gs01.graph, &gs01.weights);
            assert!(cost <= vc, "cover_to_spanner gives cost |C|");
            assert!(2 * cost >= vc, "normalization at most doubles");
            let (cover, _) = gs01.spanner_to_cover(&h);
            assert!(is_vertex_cover(&g, &cover));
            assert!(cover.len() as u64 <= 2 * cost);
        }
    }

    #[test]
    fn directed_reduction_cover_to_spanner_is_valid() {
        use dsa_core::verify::is_k_spanner_directed;
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..3 {
            let g = gen::gnp_connected(7, 0.4, &mut rng);
            let gsd = GsDirected::build(&g);
            // Structure: 3 triangle edges per vertex, 5 per edge.
            assert_eq!(
                gsd.graph.num_edges(),
                3 * g.num_vertices() + 5 * g.num_edges()
            );
            let cover = exact_vertex_cover(&g);
            let h = gsd.cover_to_spanner(&cover);
            assert!(is_k_spanner_directed(&gsd.graph, &h, 2));
            assert_eq!(spanner_cost(&h, &gsd.weights), cover.len() as u64);
        }
    }

    #[test]
    fn structural_normalization_ignores_weights() {
        // The normalization distinguishes tops from diagonals by
        // structure, so it behaves identically on both weightings.
        let g = gen::cycle(5);
        let gs2 = GsConstruction::build(&g);
        let gs01 = GsConstruction::build_01(&g);
        let full = EdgeSet::full(gs2.graph.num_edges());
        let (c2, _) = gs2.spanner_to_cover(&full);
        let (c01, _) = gs01.spanner_to_cover(&full);
        assert_eq!(c2, c01);
    }
}
