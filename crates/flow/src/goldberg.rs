//! Goldberg's max-flow reduction for the densest-subgraph problem,
//! solved by Dinkelbach iteration on one reused network.

use dsa_graphs::Ratio;

use crate::MaxFlow;

/// A maximum-density subgraph: the vertex set (sorted) and its exact
/// density `|E(A)| / |A|`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Densest {
    /// The vertices of the densest subgraph, sorted increasingly.
    pub vertices: Vec<usize>,
    /// Its density.
    pub density: Ratio,
}

/// Computes a maximum-density subgraph of the graph on vertices `0..n`
/// with the given undirected `edges`, where the density of a vertex set
/// `A` is `|{e : both endpoints in A}| / |A|`.
///
/// Returns `None` when there are no edges (every subgraph has density 0,
/// and the spanner algorithm treats that vertex as having no candidate
/// star).
///
/// This is [`densest_weighted_subgraph`] with unit weights and
/// multiplicities; see there for the algorithm and for which densest
/// set is returned.
///
/// # Panics
///
/// Panics if an edge references a vertex `>= n` or is a self-loop.
///
/// # Example
///
/// ```
/// use dsa_flow::densest_subgraph;
/// use dsa_graphs::Ratio;
///
/// // K4 minus an edge: the densest subgraph is the whole thing only if
/// // no triangle beats it. Triangle density 1 vs K4-minus-edge 5/4.
/// let edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)];
/// let best = densest_subgraph(4, &edges).unwrap();
/// assert_eq!(best.density, Ratio::new(5, 4));
/// assert_eq!(best.vertices, vec![0, 1, 2, 3]);
/// ```
pub fn densest_subgraph(n: usize, edges: &[(usize, usize)]) -> Option<Densest> {
    let weighted: Vec<(usize, usize, u64)> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
    densest_weighted_subgraph(&vec![1; n], &weighted)
}

/// Generalized densest subgraph: vertices carry positive weights,
/// edges carry positive multiplicities, and the density of a set `A` is
/// `Σ mult(e inside A) / Σ weight(v in A)`.
///
/// This is exactly the **densest v-star** objective for every variant of
/// Section 4 of the paper:
///
/// * unweighted 2-spanner — all weights and multiplicities 1;
/// * weighted 2-spanner — the weight of leaf `u` is `w({v, u})`
///   (leaves of weight 0 are modeled with weight 0, see below);
/// * directed 2-spanner — the weight of leaf `u` is the number of
///   directed star edges it contributes (1 or 2) and a pair's
///   multiplicity is the number of uncovered directed edges it 2-spans.
///
/// Vertex weights of **zero** are allowed (zero-weight edges of the
/// weighted problem): such vertices are free to include. The returned
/// subgraph is guaranteed to have positive total weight; if the only
/// positive-density sets had zero weight the function returns `None`
/// (the caller's invariants — weight-0 stars are pre-added to the
/// spanner — make that case mean "nothing left to span").
///
/// Returns `None` when `edges` is empty.
///
/// # Algorithm
///
/// Goldberg's network for a density `λ = p/q` has source capacities
/// `deg(v)·q`, capacity `mult·q` in both directions per edge and sink
/// capacities `2·p·w(v)`. A cut with source side `A` costs
/// `2·m·q − 2·(q·|E(A)| − p·W(A))` (`m` the total multiplicity, `W(A)`
/// the weight of `A`), so the minimum cut is below `2·m·q` exactly when
/// some set is denser than `λ`, and the residual source side is then
/// the inclusion-minimal maximizer of `|E(A)| − λ·W(A)`.
///
/// Dinkelbach's iteration (Dinkelbach 1967) climbs to the optimum `ρ*`.
/// The cut at `λ = 0` carries no flow and yields the non-isolated
/// vertices. Each later cut at `λ = p/q`, the density of the last set
/// found, either yields a strictly denser set or proves `λ = ρ*`, and
/// the last set found is the answer. The network is built once; the
/// cuts only refill its capacities. A call takes a handful of cuts,
/// against about 17 for a binary search over the density grid.
///
/// # Which densest set
///
/// `g(λ) = max_A (|E(A)| − λ·W(A))` is convex and piecewise linear. On
/// its last piece, `[λ_b, ρ*)`, the top line belongs to the densest
/// sets of maximum total weight; the only other sets on top are
/// heavier ones meeting it at `λ_b`. Maximizers are closed under
/// intersection, so at every `λ` of the piece the minimal maximizer is
/// the intersection of the densest sets of maximum total weight. Below
/// `λ_b` every maximizer outweighs every densest set, so none is
/// densest. The last set found is densest and is the minimal maximizer
/// at the previous `λ`, which therefore lies on the last piece: the
/// answer is that intersection. It depends only on the weights and
/// edges, not on the path of the iteration or on which max flow is
/// found. A binary search over the density grid (multiples of `1/W²`)
/// returns the same set, as its last successful probe falls on the
/// same piece.
///
/// Every capacity and every flow is at most `2·m·W`, with `W` the total
/// weight: the source capacities sum to `2·m·q ≤ 2·m·W`, which bounds
/// every flow, and the sink capacities are `2·p·w(v) ≤ 2·m·W`. That is
/// well within the `2·m·W²` the overflow guard admits.
///
/// # Panics
///
/// Panics on out-of-range endpoints, self-loops, zero multiplicities,
/// or magnitudes large enough to overflow the scaled capacities
/// (`2 · total_weight² · total_multiplicity` must fit in `i64`).
pub fn densest_weighted_subgraph(
    vertex_weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<Densest> {
    let n = vertex_weights.len();
    if edges.is_empty() {
        return None;
    }
    for &(u, v, mult) in edges {
        assert!(u < n && v < n, "edge ({u}, {v}) out of range");
        assert!(u != v, "self-loop ({u}, {v})");
        assert!(mult > 0, "zero multiplicity on ({u}, {v})");
    }
    let m: i64 = edges.iter().map(|&(_, _, mult)| mult as i64).sum();
    // Weighted degrees in the local graph.
    let mut deg = vec![0i64; n];
    for &(u, v, mult) in edges {
        deg[u] += mult as i64;
        deg[v] += mult as i64;
    }

    let total_weight: i64 = vertex_weights.iter().map(|&w| w as i64).sum();
    let d = (total_weight * total_weight).max(2);
    assert!(
        m.checked_mul(d).and_then(|x| x.checked_mul(2)).is_some(),
        "instance too large for exact densest-subgraph arithmetic"
    );

    // One network for every cut. Each edge's capacity at λ = p/q is
    // `coef.0·q + coef.1·p`.
    let (s, sink) = (n, n + 1);
    let mut net = MaxFlow::new(n + 2);
    let mut coef: Vec<(i64, i64)> = Vec::with_capacity(2 * n + 2 * edges.len());
    for v in 0..n {
        if deg[v] > 0 {
            net.add_edge(s, v, 0);
            coef.push((deg[v], 0));
        }
        if vertex_weights[v] > 0 {
            net.add_edge(v, sink, 0);
            coef.push((0, 2 * vertex_weights[v] as i64));
        }
    }
    for &(u, v, mult) in edges {
        net.add_edge(u, v, 0);
        net.add_edge(v, u, 0);
        coef.push((mult as i64, 0));
        coef.push((mult as i64, 0));
    }
    // The minimal source side of the cut at λ = p/q, if some set is
    // strictly denser than λ.
    let mut cut = |p: i64, q: i64| -> Option<Vec<usize>> {
        net.refill(|k| coef[k].0 * q + coef[k].1 * p);
        if net.max_flow(s, sink) == 2 * m * q {
            return None;
        }
        let side = net.min_cut_source_side(s);
        Some((0..n).filter(|&v| side[v]).collect())
    };

    // Dinkelbach from λ = 0: some edge exists, so that cut succeeds.
    let mut best = cut(0, 1)?;
    loop {
        let (p, q) = edge_count_and_weight(&best, vertex_weights, edges);
        if q == 0 {
            // Only zero-weight sets beat the last density (an edge
            // between two zero-weight vertices): no valid witness.
            return None;
        }
        match cut(p as i64, q as i64) {
            Some(denser) => best = denser,
            None => {
                return Some(Densest {
                    vertices: best,
                    density: Ratio::new(p, q),
                })
            }
        }
    }
}

/// `(Σ mult inside a, Σ weight of a)` for a vertex set `a`.
fn edge_count_and_weight(
    a: &[usize],
    vertex_weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> (u64, u64) {
    let mut inside = vec![false; vertex_weights.len()];
    for &x in a {
        inside[x] = true;
    }
    let count: u64 = edges
        .iter()
        .filter(|&&(u, v, _)| inside[u] && inside[v])
        .map(|&(_, _, mult)| mult)
        .sum();
    let weight: u64 = a.iter().map(|&v| vertex_weights[v]).sum();
    (count, weight)
}

/// Exact density of a vertex set, or `None` when its total weight is
/// zero (which the caller invariants rule out for witnesses).
fn weighted_subgraph_density(
    a: &[usize],
    vertex_weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<Ratio> {
    let (count, weight) = edge_count_and_weight(a, vertex_weights, edges);
    if weight == 0 {
        return None;
    }
    Some(Ratio::new(count, weight))
}

/// Exhaustive reference for the weighted problem: tries every non-empty
/// vertex subset of positive total weight. Only usable for `n <= 20`.
///
/// # Panics
///
/// Panics if there are more than 20 vertices.
pub fn densest_weighted_subgraph_brute_force(
    vertex_weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<Densest> {
    let n = vertex_weights.len();
    assert!(n <= 20, "brute force limited to 20 vertices");
    if edges.is_empty() {
        return None;
    }
    let mut best: Option<Densest> = None;
    for mask in 1u32..(1 << n) {
        let vertices: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        let Some(density) = weighted_subgraph_density(&vertices, vertex_weights, edges) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| density > b.density) {
            best = Some(Densest { vertices, density });
        }
    }
    best
}

/// Exhaustive reference implementation for testing: tries every
/// non-empty vertex subset. Only usable for `n <= 20`.
///
/// Ties are broken toward the subset found first in increasing bitmask
/// order, so callers should compare densities, not vertex sets.
///
/// # Panics
///
/// Panics if `n > 20`.
pub fn densest_subgraph_brute_force(n: usize, edges: &[(usize, usize)]) -> Option<Densest> {
    assert!(n <= 20, "brute force limited to 20 vertices");
    if edges.is_empty() {
        return None;
    }
    let mut best: Option<Densest> = None;
    for mask in 1u32..(1 << n) {
        let count = edges
            .iter()
            .filter(|&&(u, v)| mask >> u & 1 == 1 && mask >> v & 1 == 1)
            .count() as u64;
        let size = mask.count_ones() as u64;
        let density = Ratio::new(count, size);
        if best.as_ref().is_none_or(|b| density > b.density) {
            best = Some(Densest {
                vertices: (0..n).filter(|&v| mask >> v & 1 == 1).collect(),
                density,
            });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_edge_set_is_none() {
        assert_eq!(densest_subgraph(5, &[]), None);
        assert_eq!(densest_subgraph_brute_force(5, &[]), None);
    }

    #[test]
    fn single_edge() {
        let best = densest_subgraph(3, &[(0, 2)]).unwrap();
        assert_eq!(best.density, Ratio::new(1, 2));
        assert_eq!(best.vertices, vec![0, 2]);
    }

    #[test]
    fn clique_is_densest() {
        // K5: density (10)/5 = 2; any sub-clique is sparser.
        let mut edges = Vec::new();
        for u in 0..5 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let best = densest_subgraph(5, &edges).unwrap();
        assert_eq!(best.density, Ratio::new(2, 1));
        assert_eq!(best.vertices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn prefers_dense_core_over_sparse_whole() {
        // Triangle plus two isolated vertices: the whole vertex set has
        // density 3/5 < 1, the triangle exactly 1.
        let edges = [(0, 1), (1, 2), (0, 2)];
        let best = densest_subgraph(5, &edges).unwrap();
        assert_eq!(best.vertices, vec![0, 1, 2]);
        assert_eq!(best.density, Ratio::new(1, 1));
    }

    #[test]
    fn tree_attachments_tie_at_density_one() {
        // Triangle plus pendant path: whole graph also has density 1;
        // either answer is a valid maximizer, but the density must be 1.
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)];
        let best = densest_subgraph(6, &edges).unwrap();
        assert_eq!(best.density, Ratio::new(1, 1));
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let cases: Vec<(usize, Vec<(usize, usize)>)> = vec![
            (4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            (5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]),
            (
                6,
                vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            ),
            (7, vec![(0, 1), (2, 3), (4, 5), (5, 6), (4, 6), (1, 2)]),
        ];
        for (n, edges) in cases {
            let fast = densest_subgraph(n, &edges).unwrap();
            let slow = densest_subgraph_brute_force(n, &edges).unwrap();
            assert_eq!(fast.density, slow.density, "n={n} edges={edges:?}");
        }
    }
}

#[cfg(test)]
mod weighted_tests {
    use super::*;

    #[test]
    fn weighted_matches_brute_force() {
        // Star densities of the weighted 2-spanner problem: leaf weights
        // are edge weights; cheap leaves make sparse sets denser.
        let weights = vec![1, 10, 1, 3];
        let edges = vec![(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 2)];
        let fast = densest_weighted_subgraph(&weights, &edges).unwrap();
        let slow = densest_weighted_subgraph_brute_force(&weights, &edges).unwrap();
        assert_eq!(fast.density, slow.density);
        // {0, 2}: one edge over weight 2 = 1/2; {0, 2, 3}: 3 units over
        // weight 5 = 3/5, the best.
        assert_eq!(fast.density, Ratio::new(3, 5));
    }

    #[test]
    fn zero_weight_vertices_are_free() {
        // Leaf 1 is free (weight 0): including it adds spanned pairs at
        // no cost. Pairs between zero-weight leaves never appear by the
        // caller invariant, so the pair (0,1) has the positive-weight
        // endpoint 0.
        let weights = vec![2, 0, 2];
        let edges = vec![(0, 1, 1), (1, 2, 1)];
        let best = densest_weighted_subgraph(&weights, &edges).unwrap();
        assert_eq!(best.vertices, vec![0, 1, 2]);
        assert_eq!(best.density, Ratio::new(2, 4));
    }

    #[test]
    fn multiplicities_count_directed_pairs() {
        // A pair spanning two directed edges counts twice in the
        // numerator: {0, 1} has density 2/2 = 1, and the whole set ties
        // at 3/3, so only the density is pinned down.
        let weights = vec![1, 1, 1];
        let edges = vec![(0, 1, 2), (1, 2, 1)];
        let best = densest_weighted_subgraph(&weights, &edges).unwrap();
        assert_eq!(best.density, Ratio::new(1, 1));
        // Dropping the second pair makes {0, 1} strictly densest.
        let best2 = densest_weighted_subgraph(&weights, &edges[..1]).unwrap();
        assert_eq!(best2.vertices, vec![0, 1]);
        assert_eq!(best2.density, Ratio::new(2, 2));
    }

    #[test]
    fn heavy_vertex_keeps_capacities_within_the_guard() {
        // A weight-2^30 vertex with no pair next to a unit-weight edge:
        // 2·m·W² fits in i64, and every capacity the cuts use must
        // stay within that bound.
        let weights = vec![1, 1, 1 << 30];
        let edges = vec![(0, 1, 1)];
        let best = densest_weighted_subgraph(&weights, &edges).unwrap();
        assert_eq!(best.vertices, vec![0, 1]);
        assert_eq!(best.density, Ratio::new(1, 2));
        let slow = densest_weighted_subgraph_brute_force(&weights, &edges).unwrap();
        assert_eq!(best, slow);
    }

    #[test]
    fn unweighted_delegates_consistently() {
        let edges = [(0usize, 1usize), (1, 2), (0, 2)];
        let a = densest_subgraph(3, &edges).unwrap();
        let weighted: Vec<_> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
        let b = densest_weighted_subgraph(&[1, 1, 1], &weighted).unwrap();
        assert_eq!(a, b);
    }
}
