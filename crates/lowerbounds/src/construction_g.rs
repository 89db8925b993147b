//! The Figure-1 lower-bound construction `G(ℓ, β)` (Section 2).
//!
//! `G(ℓ, β)` is a directed graph whose minimum 5-spanner size depends
//! drastically on a planted set-disjointness instance: if Alice's and
//! Bob's strings are disjoint there is a spanner of `≤ 7ℓβ` edges
//! avoiding the dense component `D` entirely (Lemma 2.3); if some bit
//! is shared, `β²` edges of `D` are *forced* into every k-spanner,
//! k ≥ 5. The dense component lives wholly on Alice's side, so the cut
//! toward Bob's vertices `Y1` stays `Θ(ℓ)` — the asymmetry the proof
//! of Theorem 1.1 hinges on.

use dsa_graphs::traversal::bfs_distances_directed;
use dsa_graphs::{DiGraph, EdgeSet, VertexId};

use crate::disjointness::Instance;

/// Size parameters of `G(ℓ, β)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GParams {
    /// Number of index blocks (the disjointness instance has `ℓ²` bits).
    pub ell: usize,
    /// Block size of the dense component.
    pub beta: usize,
}

impl GParams {
    /// The parameter choice of Theorem 1.1 (randomized bound): given a
    /// target vertex count and an approximation ratio `α`, picks
    /// `q = ⌈αc⌉ + 1`, `ℓ = ⌊√(n/(cq))⌋`, `β = qℓ` with `c = 7`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters degenerate (`ℓ = 0`), which the
    /// theorem's requirement `α ≤ n/100` prevents.
    pub fn for_alpha(n_target: usize, alpha: f64) -> GParams {
        let c = 7.0;
        let q = (alpha * c).ceil() as usize + 1;
        let ell = ((n_target as f64) / (c * q as f64)).sqrt().floor() as usize;
        assert!(ell >= 1, "alpha too large for target size (need α ≤ n/100)");
        GParams { ell, beta: q * ell }
    }

    /// The parameter choice of Theorem 2.8 (deterministic bound, via
    /// gap-disjointness): `β = ⌈√(12αc)⌉ + 1`, `ℓ = ⌊n/(cβ)⌋`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters degenerate.
    pub fn for_alpha_deterministic(n_target: usize, alpha: f64) -> GParams {
        let c = 7.0;
        let beta = (12.0 * alpha * c).sqrt().ceil() as usize + 1;
        let ell = n_target / (7 * beta);
        assert!(ell >= 1, "alpha too large for target size");
        GParams { ell, beta }
    }

    /// The disjointness input length `N = ℓ²`.
    pub fn input_len(&self) -> usize {
        self.ell * self.ell
    }

    /// The vertex count `2ℓβ + 5ℓ` of `G(ℓ, β)`.
    pub fn num_vertices(&self) -> usize {
        2 * self.ell * self.beta + 5 * self.ell
    }
}

/// The built construction: graph, dense-component edge set, instance.
#[derive(Clone, Debug)]
pub struct GConstruction {
    /// The parameters used.
    pub params: GParams,
    /// The directed graph `G(ℓ, β)` with the input-dependent edges.
    pub graph: DiGraph,
    /// The edges of the dense component `D` (complete bipartite
    /// `X2 × Y2`, `(ℓβ)²` edges).
    pub d_edges: EdgeSet,
    /// The planted disjointness instance.
    pub instance: Instance,
}

impl GConstruction {
    /// Builds `G(ℓ, β)` for a disjointness instance of length `ℓ²`.
    ///
    /// # Panics
    ///
    /// Panics if the instance length is not `ℓ²`.
    pub fn build(params: GParams, instance: Instance) -> GConstruction {
        let (ell, beta) = (params.ell, params.beta);
        assert_eq!(
            instance.len(),
            params.input_len(),
            "instance must have ℓ² bits"
        );
        // Edge ids are push order; the graph is built once at the end.
        let dense = ell * beta * ell * beta;
        let mut edges = Vec::with_capacity(3 * ell + dense + 2 * ell * beta + 2 * ell * ell);

        // The matching X1 -> Y1.
        for i in 0..ell {
            edges.push((params.x1(i), params.y1(i)));
            edges.push((params.x2(i), params.y2(i)));
        }
        // The dense component D: complete bipartite X2 -> Y2, one
        // contiguous id range.
        let d_start = edges.len();
        for i in 0..ell {
            for j in 0..beta {
                for r in 0..ell {
                    for s in 0..beta {
                        edges.push((params.xg(i, j), params.yg(r, s)));
                    }
                }
            }
        }
        // Grid attachments.
        for i in 0..ell {
            for j in 0..beta {
                edges.push((params.xg(i, j), params.x1(i)));
                edges.push((params.y3(i), params.yg(i, j)));
            }
            edges.push((params.y2(i), params.y3(i)));
        }
        // Input edges: (x1_i -> x2_j) iff a_ij = 0; (y1_i -> y2_j) iff
        // b_ij = 0.
        for i in 0..ell {
            for j in 0..ell {
                if !instance.a[i * ell + j] {
                    edges.push((params.x1(i), params.x2(j)));
                }
                if !instance.b[i * ell + j] {
                    edges.push((params.y1(i), params.y2(j)));
                }
            }
        }
        let graph = DiGraph::from_edges(params.num_vertices(), edges);
        let mut d_edges = EdgeSet::new(graph.num_edges());
        d_edges.insert_range(d_start, d_start + dense);
        GConstruction {
            params,
            graph,
            d_edges,
            instance,
        }
    }

    /// Bob's vertex side `V_B = Y1` (both `y¹` and `y²` rows), as a
    /// boolean mask for the cut meter.
    pub fn bob_side(&self) -> Vec<bool> {
        let mut side = vec![false; self.graph.num_vertices()];
        for i in 0..self.params.ell {
            side[self.params.y1(i)] = true;
            side[self.params.y2(i)] = true;
        }
        side
    }

    /// Number of edges crossing the Alice/Bob cut (the proof needs
    /// `Θ(ℓ)`; the exact count is `3ℓ` plus the `b`-dependent edges
    /// inside Bob's side don't cross).
    pub fn cut_size(&self) -> usize {
        let side = self.bob_side();
        self.graph
            .edges()
            .filter(|&(_, u, v)| side[u] != side[v])
            .count()
    }

    /// The bit-index pairs `(i, r)` with `a_ir = b_ir = 1` — exactly
    /// the pairs whose `β²` dense edges are forced into any spanner.
    pub fn bad_pairs(&self) -> Vec<(usize, usize)> {
        let ell = self.params.ell;
        (0..ell)
            .flat_map(|i| (0..ell).map(move |r| (i, r)))
            .filter(|&(i, r)| self.instance.a[i * ell + r] && self.instance.b[i * ell + r])
            .collect()
    }

    /// Whether a directed path `x¹_i → y²_r` of length ≤ 2 avoiding `D`
    /// exists (the reachability at the heart of Claim 2.2). Checked by
    /// BFS, not by consulting the input bits.
    pub fn bypass_within_2(&self, i: usize, r: usize) -> bool {
        let non_d = self.non_d_spanner();
        let dist = bfs_distances_directed(&self.graph, self.params.x1(i), Some(&non_d), 2);
        matches!(dist[self.params.y2(r)], Some(d) if d <= 2)
    }

    /// Whether `y²_r` is reachable from `x¹_i` at *any* length avoiding
    /// `D` (Claim 2.2's second half: when neither input edge exists,
    /// there is no such path at all).
    pub fn bypass_any_length(&self, i: usize, r: usize) -> bool {
        let non_d = self.non_d_spanner();
        let dist = bfs_distances_directed(&self.graph, self.params.x1(i), Some(&non_d), usize::MAX);
        dist[self.params.y2(r)].is_some()
    }

    /// The set of all non-`D` edges.
    pub fn non_d_spanner(&self) -> EdgeSet {
        let mut h = EdgeSet::full(self.graph.num_edges());
        h.subtract(&self.d_edges);
        h
    }

    /// Whether the non-`D` edge set is a k-spanner of the whole graph.
    /// Exact: a `D` edge `(x_{ij}, y_{rs})` is covered by non-`D` edges
    /// iff `x¹_i → y²_r` is reachable within 2 (the unique escape from
    /// the grid is via `x¹_i` and the unique entry is via `y³_r`), and
    /// the resulting path has length exactly 5.
    pub fn non_d_is_k_spanner(&self, k: usize) -> bool {
        if k < 5 {
            return false;
        }
        let ell = self.params.ell;
        (0..ell).all(|i| (0..ell).all(|r| self.bypass_within_2(i, r)))
    }

    /// The number of `D` edges that *every* k-spanner (k ≥ 5) must
    /// contain: `β²` per bad pair, verified by reachability rather than
    /// by trusting the input.
    pub fn forced_d_edges(&self) -> usize {
        let ell = self.params.ell;
        let beta = self.params.beta;
        let mut forced = 0;
        for i in 0..ell {
            for r in 0..ell {
                if !self.bypass_any_length(i, r) {
                    forced += beta * beta;
                }
            }
        }
        forced
    }

    /// A small valid k-spanner (k ≥ 5): all non-`D` edges plus exactly
    /// the forced `D` edges.
    pub fn minimal_spanner(&self) -> EdgeSet {
        let mut h = self.non_d_spanner();
        let (ell, beta) = (self.params.ell, self.params.beta);
        for i in 0..ell {
            for r in 0..ell {
                if self.bypass_any_length(i, r) {
                    continue;
                }
                for j in 0..beta {
                    for s in 0..beta {
                        let e = self
                            .graph
                            .edge_id(self.params.xg(i, j), self.params.yg(r, s))
                            .expect("dense edges exist");
                        h.insert(e);
                    }
                }
            }
        }
        h
    }

    /// The Lemma 2.3 bound on the disjoint-case spanner: `c·ℓ·β` with
    /// `c = 7` (valid when `ℓ ≤ β`).
    pub fn disjoint_spanner_bound(&self) -> usize {
        7 * self.params.ell * self.params.beta
    }

    /// The Lemma 2.6 bound on the disjoint-case spanner for the
    /// gap-disjointness regime (`β ≤ ℓ`): `c·ℓ²`.
    pub fn disjoint_spanner_bound_gap(&self) -> usize {
        7 * self.params.ell * self.params.ell
    }
}

impl GParams {
    /// Vertex id of `x¹_i`.
    pub fn x1(&self, i: usize) -> VertexId {
        i
    }
    /// Vertex id of `x²_i`.
    pub fn x2(&self, i: usize) -> VertexId {
        self.ell + i
    }
    /// Vertex id of `y¹_i`.
    pub fn y1(&self, i: usize) -> VertexId {
        2 * self.ell + i
    }
    /// Vertex id of `y²_i`.
    pub fn y2(&self, i: usize) -> VertexId {
        3 * self.ell + i
    }
    /// Vertex id of grid vertex `x_{ij}` (the `X2` block).
    pub fn xg(&self, i: usize, j: usize) -> VertexId {
        4 * self.ell + i * self.beta + j
    }
    /// Vertex id of grid vertex `y_{ij}` (the `Y2` block).
    pub fn yg(&self, i: usize, j: usize) -> VertexId {
        4 * self.ell + self.ell * self.beta + i * self.beta + j
    }
    /// Vertex id of `y³_i`.
    pub fn y3(&self, i: usize) -> VertexId {
        4 * self.ell + 2 * self.ell * self.beta + i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjointness::{random_disjoint, random_far_from_disjoint, random_intersecting};
    use dsa_core::verify::is_k_spanner_directed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn structural_counts_match_the_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        for (ell, beta) in [(2, 2), (3, 5), (4, 4)] {
            let params = GParams { ell, beta };
            let inst = random_disjoint(params.input_len(), &mut rng);
            let c = GConstruction::build(params, inst);
            assert_eq!(c.graph.num_vertices(), 2 * ell * beta + 5 * ell);
            assert_eq!(c.d_edges.len(), (ell * beta) * (ell * beta));
            assert_eq!(c.cut_size(), 3 * ell, "cut must be Θ(ℓ)");
        }
    }

    #[test]
    fn claim_2_2_bypass_iff_input_edge() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = GParams { ell: 4, beta: 4 };
        for _ in 0..3 {
            let inst = random_intersecting(params.input_len(), 3, &mut rng);
            let c = GConstruction::build(params, inst.clone());
            for i in 0..4 {
                for r in 0..4 {
                    let has_edge = !inst.a[i * 4 + r] || !inst.b[i * 4 + r];
                    assert_eq!(c.bypass_within_2(i, r), has_edge, "pair ({i},{r})");
                    // Second half of Claim 2.2: no bypass of any length.
                    assert_eq!(c.bypass_any_length(i, r), has_edge, "pair ({i},{r})");
                }
            }
        }
    }

    #[test]
    fn lemma_2_3_disjoint_case() {
        let mut rng = StdRng::seed_from_u64(5);
        let params = GParams { ell: 3, beta: 6 }; // β ≥ ℓ as the lemma wants
        let inst = random_disjoint(params.input_len(), &mut rng);
        let c = GConstruction::build(params, inst);
        assert!(c.non_d_is_k_spanner(5));
        assert_eq!(c.forced_d_edges(), 0);
        let h = c.non_d_spanner();
        assert!(h.len() <= c.disjoint_spanner_bound(), "|H| = {}", h.len());
        // Full independent verification with the BFS spanner checker.
        assert!(is_k_spanner_directed(&c.graph, &h, 5));
        assert!(is_k_spanner_directed(&c.graph, &h, 7));
    }

    #[test]
    fn lemma_2_3_intersecting_case() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = GParams { ell: 3, beta: 6 };
        let inst = random_intersecting(params.input_len(), 1, &mut rng);
        let c = GConstruction::build(params, inst);
        assert!(!c.non_d_is_k_spanner(5));
        assert_eq!(c.forced_d_edges(), params.beta * params.beta);
        // The minimal spanner (non-D + forced) is valid.
        let h = c.minimal_spanner();
        assert!(is_k_spanner_directed(&c.graph, &h, 5));
    }

    #[test]
    fn lemma_2_6_gap_case() {
        let mut rng = StdRng::seed_from_u64(9);
        let params = GParams { ell: 6, beta: 3 }; // β ≤ ℓ for the gap regime
        let inst = random_far_from_disjoint(params.input_len(), &mut rng);
        let c = GConstruction::build(params, inst);
        let forced = c.forced_d_edges();
        let bound = params.beta * params.beta * params.ell * params.ell / 12;
        assert!(forced >= bound, "forced {forced} below β²ℓ²/12 = {bound}");
    }

    #[test]
    fn parameter_choices_match_the_theorems() {
        let p = GParams::for_alpha(10_000, 2.0);
        // q = ⌈2·7⌉+1 = 15, ℓ = ⌊√(10000/105)⌋ = 9, β = 135.
        assert_eq!(p, GParams { ell: 9, beta: 135 });
        assert!(p.beta >= p.ell, "Theorem 1.1 needs β ≥ ℓ");

        let pd = GParams::for_alpha_deterministic(10_000, 2.0);
        // β = ⌈√168⌉+1 = 14, ℓ = ⌊10000/98⌋ = 102.
        assert_eq!(pd, GParams { ell: 102, beta: 14 });
        assert!(pd.beta <= pd.ell, "Theorem 2.8 needs β ≤ ℓ");
    }

    #[test]
    #[should_panic(expected = "ℓ² bits")]
    fn wrong_instance_length_panics() {
        let params = GParams { ell: 3, beta: 3 };
        let inst = crate::disjointness::Instance {
            a: vec![false; 4],
            b: vec![false; 4],
        };
        GConstruction::build(params, inst);
    }
}
