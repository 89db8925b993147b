//! Property tests for the flow crate: the Goldberg reduction must agree
//! with exhaustive search on every small graph, down to the exact
//! vertex set it returns.

use dsa_flow::{
    densest_subgraph, densest_subgraph_brute_force, densest_weighted_subgraph,
    densest_weighted_subgraph_with, DensestScratch,
};
use dsa_graphs::Ratio;
use proptest::bits::BitSetLike;
use proptest::prelude::*;

/// Strategy: a small random undirected simple graph as (n, edges).
fn small_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..=9).prop_flat_map(|n| {
        let all_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let k = all_pairs.len();
        (Just(n), proptest::bits::bitset::between(0, k)).prop_map(move |(n, mask)| {
            let edges = all_pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| mask.test(*i))
                .map(|(_, &e)| e)
                .collect();
            (n, edges)
        })
    })
}

/// Largest weight a heavy instance may draw.
const HEAVY: u64 = 1 << 27;

/// Strategy: a local star instance shaped like the ones `LocalStars`
/// builds, as (vertex weights, edges with multiplicity). Up to 12
/// vertices with weights 0–7, multiplicities 1–2, and no pair between
/// two zero-weight vertices. With `heavy`, about a quarter of the
/// weights are drawn up to 2^27 instead, halved as needed until
/// `2·m·W²` fits the oracle's `i64` guard.
fn star_instance(heavy: bool) -> impl Strategy<Value = (Vec<u64>, Vec<(usize, usize, u64)>)> {
    (1usize..=12).prop_flat_map(move |n| {
        let pairs = n * (n - 1) / 2;
        (
            proptest::collection::vec(0u64..=7, n),
            proptest::collection::vec(0u64..=HEAVY, n),
            proptest::collection::vec(0u32..4, n),
            proptest::collection::vec(0u64..=2, pairs),
        )
            .prop_map(move |(light, big, pick, mults)| {
                let mut weights: Vec<u64> = (0..n)
                    .map(|v| {
                        if heavy && pick[v] == 0 {
                            big[v]
                        } else {
                            light[v]
                        }
                    })
                    .collect();
                let all_pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
                let edges: Vec<(usize, usize, u64)> = all_pairs
                    .zip(mults)
                    .filter(|&((u, v), mult)| mult > 0 && (weights[u] > 0 || weights[v] > 0))
                    .map(|((u, v), mult)| (u, v, mult))
                    .collect();
                let m: u128 = edges.iter().map(|&(_, _, mult)| mult as u128).sum();
                let fits = |w: &[u64]| {
                    let total: u128 = w.iter().map(|&x| x as u128).sum();
                    2 * m.max(1) * total * total <= i64::MAX as u128
                };
                while !fits(&weights) {
                    // Halving keeps zero weights at zero, so no pair
                    // between two zero-weight vertices appears.
                    for w in weights.iter_mut().filter(|w| **w > 7) {
                        *w /= 2;
                    }
                }
                (weights, edges)
            })
    })
}

/// The densest set the oracle must return, by exhaustive search: the
/// intersection of all densest sets of maximum total weight, with its
/// density. `None` when there are no edges.
fn canonical_witness(
    weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<(Vec<usize>, Ratio)> {
    if edges.is_empty() {
        return None;
    }
    let n = weights.len();
    // (density, weight, intersection of the sets attaining both).
    let mut best: Option<(Ratio, u64, u32)> = None;
    for mask in 1u32..(1 << n) {
        let weight: u64 = (0..n)
            .filter(|&v| mask >> v & 1 == 1)
            .map(|v| weights[v])
            .sum();
        if weight == 0 {
            continue;
        }
        let count: u64 = edges
            .iter()
            .filter(|&&(u, v, _)| mask >> u & 1 == 1 && mask >> v & 1 == 1)
            .map(|&(_, _, mult)| mult)
            .sum();
        let density = Ratio::new(count, weight);
        best = match best {
            Some((d, w, meet)) if (d, w) == (density, weight) => Some((d, w, meet & mask)),
            Some((d, w, meet)) if (d, w) > (density, weight) => Some((d, w, meet)),
            _ => Some((density, weight, mask)),
        };
    }
    let (density, _, meet) = best?;
    Some(((0..n).filter(|&v| meet >> v & 1 == 1).collect(), density))
}

/// Largest weight a reuse-sequence instance may draw, before halving.
const HEAVIER: u64 = 1 << 58;

/// Strategy: an instance on 1–40 vertices whose edges all lie among at
/// most 10 of them, so exhaustive search stays cheap while the vertex
/// count swings from instance to instance. Weights are 0–7, or for
/// about a quarter of the vertices up to 2^58, halved as needed until
/// `2·m·W` fits the oracle's `i64` guard; multiplicities are 1–2 and no
/// pair joins two zero-weight vertices.
fn sparse_instance() -> impl Strategy<Value = (Vec<u64>, Vec<(usize, usize, u64)>)> {
    (1usize..=40).prop_flat_map(|n| {
        let k = n.min(10);
        (
            proptest::collection::vec(0u64..=7, n),
            proptest::collection::vec(0u64..=HEAVIER, n),
            proptest::collection::vec(0u32..4, n),
            proptest::collection::vec(0u32..=u32::MAX, n),
            proptest::collection::vec(0u64..=2, k * (k - 1) / 2),
        )
            .prop_map(move |(light, big, pick, rank, mults)| {
                let mut weights: Vec<u64> = (0..n)
                    .map(|v| if pick[v] == 0 { big[v] } else { light[v] })
                    .collect();
                // The k vertices of lowest rank carry the edges.
                let mut active: Vec<usize> = (0..n).collect();
                active.sort_by_key(|&v| rank[v]);
                let pairs = (0..k).flat_map(|a| ((a + 1)..k).map(move |b| (a, b)));
                let edges: Vec<(usize, usize, u64)> = pairs
                    .zip(mults)
                    .map(|((a, b), mult)| (active[a], active[b], mult))
                    .filter(|&(u, v, mult)| mult > 0 && (weights[u] > 0 || weights[v] > 0))
                    .collect();
                let m: u128 = edges.iter().map(|&(_, _, mult)| mult as u128).sum();
                let fits = |w: &[u64]| {
                    let total: u128 = w.iter().map(|&x| x as u128).sum();
                    2 * m * total <= i64::MAX as u128
                };
                while !fits(&weights) {
                    for w in weights.iter_mut().filter(|w| **w > 7) {
                        *w /= 2;
                    }
                }
                (weights, edges)
            })
    })
}

/// [`canonical_witness`] by exhaustive search over the vertices that
/// have an edge only. No other vertex is ever in the canonical set: one
/// of positive weight lowers every set's density, and one of zero
/// weight leaves a set's density and weight as they were, so the
/// intersection drops it.
fn canonical_witness_on_endpoints(
    weights: &[u64],
    edges: &[(usize, usize, u64)],
) -> Option<(Vec<usize>, Ratio)> {
    let mut ends: Vec<usize> = edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    ends.sort_unstable();
    ends.dedup();
    let local = |x: usize| ends.binary_search(&x).expect("an endpoint");
    let local_weights: Vec<u64> = ends.iter().map(|&v| weights[v]).collect();
    let local_edges: Vec<(usize, usize, u64)> = edges
        .iter()
        .map(|&(u, v, mult)| (local(u), local(v), mult))
        .collect();
    canonical_witness(&local_weights, &local_edges)
        .map(|(set, density)| (set.into_iter().map(|x| ends[x]).collect(), density))
}

fn assert_canonical(weights: &[u64], edges: &[(usize, usize, u64)]) -> Result<(), TestCaseError> {
    let got = densest_weighted_subgraph(weights, edges).map(|d| (d.vertices, d.density));
    let want = canonical_witness(weights, edges);
    prop_assert_eq!(
        got,
        want,
        "weights={:?} edges={:?}: got {:?}, want {:?}",
        weights,
        edges,
        got,
        want
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The witness decides spanner bytes, so the oracle must return
    /// exactly the canonical densest set, not just some densest set.
    #[test]
    fn weighted_oracle_returns_the_canonical_witness((weights, edges) in star_instance(false)) {
        assert_canonical(&weights, &edges)?;
    }

    /// The same with heavy weights: the scaled capacities must stay
    /// within the `2·m·W²` guard that admits the instance.
    #[test]
    fn heavy_weights_keep_the_canonical_witness((weights, edges) in star_instance(true)) {
        assert_canonical(&weights, &edges)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One scratch carried through instances that grow and shrink must
    /// answer each exactly as a fresh call and exhaustive search do:
    /// nothing a larger instance left in its buffers may leak into a
    /// smaller one.
    #[test]
    fn reused_scratch_matches_fresh_calls(
        sequence in proptest::collection::vec(sparse_instance(), 1..9)
    ) {
        let mut scratch = DensestScratch::default();
        for (weights, edges) in &sequence {
            let reused = densest_weighted_subgraph_with(&mut scratch, weights, edges)
                .map(|(set, density)| (set.to_vec(), density));
            let fresh = densest_weighted_subgraph(weights, edges).map(|d| (d.vertices, d.density));
            prop_assert_eq!(&reused, &fresh, "weights={:?} edges={:?}", weights, edges);
            let want = canonical_witness_on_endpoints(weights, edges);
            prop_assert_eq!(&reused, &want, "weights={:?} edges={:?}", weights, edges);
        }
    }
}

proptest! {
    #[test]
    fn goldberg_matches_brute_force((n, edges) in small_graph()) {
        let fast = densest_subgraph(n, &edges);
        let slow = densest_subgraph_brute_force(n, &edges);
        match (fast, slow) {
            (None, None) => {}
            (Some(f), Some(s)) => {
                prop_assert_eq!(f.density, s.density);
                // The returned vertex set must actually achieve the density.
                let inside: Vec<bool> = {
                    let mut v = vec![false; n];
                    for &x in &f.vertices { v[x] = true; }
                    v
                };
                let count = edges.iter()
                    .filter(|&&(u, v)| inside[u] && inside[v])
                    .count() as u64;
                prop_assert_eq!(Ratio::new(count, f.vertices.len() as u64), f.density);
            }
            (f, s) => prop_assert!(false, "mismatch: fast={f:?} slow={s:?}"),
        }
    }

    #[test]
    fn densest_is_at_least_any_single_edge((n, edges) in small_graph()) {
        if let Some(best) = densest_subgraph(n, &edges) {
            // Any single edge's endpoints give density 1/2.
            prop_assert!(best.density >= Ratio::new(1, 2));
            prop_assert!(!best.vertices.is_empty());
        } else {
            prop_assert!(edges.is_empty());
        }
    }
}
