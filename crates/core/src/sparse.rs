//! Baswana–Sen style (2k−1)-spanners with O(k·n^{1+1/k}) expected size.
//!
//! The paper contrasts its directed-k-spanner hardness results with the
//! *undirected* setting, where k-round CONGEST constructions of
//! (2k−1)-spanners with `O(n^{1+1/k})` edges \[7, 28\] immediately give
//! an `O(n^{1/k})` approximation of the minimum (2k−1)-spanner (any
//! spanner of a connected graph has at least `n−1` edges). This module
//! implements the classic randomized clustering algorithm so the
//! separation experiments (E11 in DESIGN.md) can measure that baseline.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsa_graphs::{EdgeId, EdgeSet, Graph, VertexId};

/// Result of a Baswana–Sen run.
#[derive(Clone, Debug)]
pub struct SparseSpannerRun {
    /// The (2k−1)-spanner.
    pub spanner: EdgeSet,
    /// Number of clusters sampled at each of the k−1 sampling phases.
    pub sampled_clusters: Vec<usize>,
}

/// Computes a (2k−1)-spanner of expected size `O(k · n^{1+1/k})` by the
/// Baswana–Sen clustering algorithm (each phase is implementable in
/// O(1) CONGEST rounds; the classic implementation takes k rounds
/// total).
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Example
///
/// ```
/// use dsa_core::sparse::baswana_sen;
/// use dsa_core::verify::is_k_spanner;
/// use dsa_graphs::gen::complete;
///
/// let g = complete(20);
/// let run = baswana_sen(&g, 2, 7);
/// assert!(is_k_spanner(&g, &run.spanner, 3)); // stretch 2k-1 = 3
/// assert!(run.spanner.len() < g.num_edges());
/// ```
pub fn baswana_sen(g: &Graph, k: usize, seed: u64) -> SparseSpannerRun {
    assert!(k >= 1, "stretch parameter k must be positive");
    let n = g.num_vertices();
    let mut h = EdgeSet::new(g.num_edges());
    let mut rng = StdRng::seed_from_u64(seed);
    if k == 1 {
        // A 1-spanner is the graph itself.
        return SparseSpannerRun {
            spanner: EdgeSet::full(g.num_edges()),
            sampled_clusters: Vec::new(),
        };
    }
    let p = (n.max(2) as f64).powf(-1.0 / k as f64);

    // cluster[v] = Some(cluster id) while v is clustered.
    let mut cluster: Vec<Option<VertexId>> = (0..n).map(Some).collect();
    let mut sampled_counts = Vec::new();

    for _phase in 1..k {
        let live_clusters: BTreeSet<VertexId> = cluster.iter().flatten().copied().collect();
        let sampled: BTreeSet<VertexId> = live_clusters
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(p))
            .collect();
        sampled_counts.push(sampled.len());
        let old = cluster.clone();
        for v in 0..n {
            let Some(cv) = old[v] else { continue };
            if sampled.contains(&cv) {
                continue; // stays clustered
            }
            // One (arbitrary, here first) edge per adjacent cluster.
            let mut adj: BTreeMap<VertexId, EdgeId> = BTreeMap::new();
            for (u, e) in g.neighbors(v) {
                if let Some(cu) = old[u] {
                    if cu != cv {
                        adj.entry(cu).or_insert(e);
                    }
                }
            }
            // Join a sampled adjacent cluster if one exists ...
            if let Some((&cu, &e)) = adj.iter().find(|(cu, _)| sampled.contains(cu)) {
                h.insert(e);
                cluster[v] = Some(cu);
            } else {
                // ... otherwise connect to every adjacent cluster and
                // leave the clustering.
                for &e in adj.values() {
                    h.insert(e);
                }
                cluster[v] = None;
            }
        }
    }

    // Final phase: every still-clustered vertex connects to each
    // adjacent cluster. Intra-cluster connectivity comes from the
    // joining (tree) edges inserted during the phases.
    let old = cluster.clone();
    for v in 0..n {
        let Some(cv) = old[v] else { continue };
        let mut adj: BTreeMap<VertexId, EdgeId> = BTreeMap::new();
        for (u, e) in g.neighbors(v) {
            if let Some(cu) = old[u] {
                if cu != cv {
                    adj.entry(cu).or_insert(e);
                }
            }
        }
        for &e in adj.values() {
            h.insert(e);
        }
    }

    SparseSpannerRun {
        spanner: h,
        sampled_clusters: sampled_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_k_spanner;
    use dsa_graphs::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn k1_returns_whole_graph() {
        let g = gen::complete(6);
        let run = baswana_sen(&g, 1, 0);
        assert_eq!(run.spanner.len(), g.num_edges());
    }

    #[test]
    fn stretch_holds_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(13);
        for k in 2..=4usize {
            for trial in 0..3u64 {
                let g = gen::gnp_connected(60, 0.15, &mut rng);
                let run = baswana_sen(&g, k, trial * 17 + k as u64);
                assert!(
                    is_k_spanner(&g, &run.spanner, 2 * k - 1),
                    "stretch violated for k={k} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn k2_sparsifies_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::gnp_connected(100, 0.5, &mut rng);
        let run = baswana_sen(&g, 2, 3);
        assert!(is_k_spanner(&g, &run.spanner, 3));
        // m ≈ 2500; a 3-spanner of expected size O(n^{1.5}) ≈ 1000
        // should be far below m. Allow generous slack.
        assert!(
            run.spanner.len() < g.num_edges() / 2,
            "spanner {} of {}",
            run.spanner.len(),
            g.num_edges()
        );
    }

    #[test]
    fn spanner_of_connected_graph_is_connected() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::gnp_connected(40, 0.2, &mut rng);
        let run = baswana_sen(&g, 3, 11);
        let sg = Graph::from_edges(g.num_vertices(), run.spanner.iter().map(|e| g.endpoints(e)));
        assert!(dsa_graphs::traversal::is_connected(&sg));
    }
}
