//! Property tests for the core algorithms: star selection invariants
//! (Section 4.1), engine/baseline sandwich bounds, verifier
//! consistency, and the two variant contracts the engine's carried
//! state rests on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dsa_core::dist::{
    min_2_spanner, ClientServerTwoSpanner, DirectedTwoSpanner, EngineConfig, SpannerVariant,
    UndirectedTwoSpanner, WeightedTwoSpanner,
};
use dsa_core::seq::{exact_min_2_spanner, exact_min_k_spanner, greedy_2_spanner};
use dsa_core::star::{pow2_ratio, IdList, Leaf, LocalStars, Pair};
use dsa_core::verify::{is_k_spanner, uncovered_edges};
use dsa_graphs::{gen, EdgeId, EdgeSet, Graph, Ratio};

fn arb_connected(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n, 0u64..400, 1u32..5).prop_map(|(n, seed, d)| {
        let mut rng = StdRng::seed_from_u64(seed);
        gen::gnp_connected(n, 0.08 * d as f64, &mut rng)
    })
}

/// Random LocalStars instance: a handful of leaves and random pairs.
fn arb_local_stars() -> impl Strategy<Value = LocalStars> {
    (2usize..8, 0u64..300).prop_map(|(l, seed)| {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let leaves = (0..l)
            .map(|i| Leaf {
                vertex: 100 + i,
                weight: rng.gen_range(1..4),
                edges: IdList::one(i),
            })
            .collect();
        let mut pairs = Vec::new();
        let mut item = 0;
        for a in 0..l {
            for b in (a + 1)..l {
                if rng.gen_bool(0.5) {
                    pairs.push(Pair {
                        a,
                        b,
                        items: IdList::one(item),
                    });
                    item += 1;
                }
            }
        }
        LocalStars { leaves, pairs }
    })
}

/// Checks on `variant`, with sets drawn from `rng` (each member kept
/// with probability `keep`), the two contracts the engine relies on
/// to carry state across iterations:
///
/// 1. for nested `U′ ⊆ U`, every vertex's star space over `U′` is its
///    space over `U` filtered to `U′`, and the filter reports a change
///    exactly when there is one;
/// 2. with every edge of `h` new, `covered_delta` matches `covered(h)`
///    on the targets, for `h` the preselected edges plus a random
///    subset of `addable`, the edges the engine may add.
fn check_engine_contracts<V: SpannerVariant>(
    variant: &V,
    addable: &EdgeSet,
    keep: f64,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    use rand::Rng;
    let items = variant.num_items();
    let mut wide = EdgeSet::new(items);
    let mut narrow = EdgeSet::new(items);
    for item in 0..items {
        if rng.gen_bool(keep) {
            wide.insert(item);
            if rng.gen_bool(keep) {
                narrow.insert(item);
            }
        }
    }
    for v in 0..variant.num_vertices() {
        let stored = variant.local_stars(v, &wide);
        let rebuilt = variant.local_stars(v, &narrow);
        let filtered = stored.restricted_to(&narrow);
        prop_assert_eq!(filtered.is_some(), stored != rebuilt, "vertex {}", v);
        prop_assert_eq!(filtered.unwrap_or(stored), rebuilt, "vertex {}", v);
    }

    let mut h = variant.preselected();
    for e in addable.iter() {
        if rng.gen_bool(keep) {
            h.insert(e);
        }
    }
    let ids: Vec<EdgeId> = h.iter().collect();
    let targets = variant.targets();
    let mut delta = EdgeSet::new(items);
    variant.covered_delta(&h, &ids, &mut delta);
    delta.intersect_with(&targets);
    let mut covered = variant.covered(&h);
    covered.intersect_with(&targets);
    prop_assert_eq!(delta, covered);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Star spaces filter like rebuilds, and a delta over all of `h`
    /// is `covered(h)`, on random instances of all four variants.
    #[test]
    fn variants_meet_the_engine_contracts(
        n in 4usize..22,
        seed in 0u64..500,
        density in 1u32..5,
        keep in 2u32..=4,
    ) {
        let keep = f64::from(keep) / 4.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnp_connected(n, 0.08 * f64::from(density), &mut rng);
        let all = EdgeSet::full(g.num_edges());
        let w = gen::random_weights(g.num_edges(), 0, 5, &mut rng);
        let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
        let d = gen::random_digraph_connected(n, 0.05 * f64::from(density), &mut rng);
        check_engine_contracts(&UndirectedTwoSpanner::new(&g), &all, keep, &mut rng)?;
        check_engine_contracts(&WeightedTwoSpanner::new(&g, &w), &all, keep, &mut rng)?;
        check_engine_contracts(
            &ClientServerTwoSpanner::new(&g, &clients, &servers),
            &servers,
            keep,
            &mut rng,
        )?;
        check_engine_contracts(
            &DirectedTwoSpanner::new(&d),
            &EdgeSet::full(d.num_edges()),
            keep,
            &mut rng,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The flow-based densest star really is densest: no subset of
    /// leaves (exhaustively enumerated) beats it.
    #[test]
    fn densest_star_beats_all_subsets(ls in arb_local_stars()) {
        let Some((_, best)) = ls.densest(None) else {
            prop_assert!(ls.is_empty());
            return Ok(());
        };
        let l = ls.leaves.len();
        for mask in 1u32..(1 << l) {
            let member: Vec<bool> = (0..l).map(|i| mask >> i & 1 == 1).collect();
            if let Some(d) = ls.density_of(&member) {
                prop_assert!(d <= best, "subset {member:?} denser: {d} > {best}");
            }
        }
    }

    /// Section 4.1 invariants: the chosen star meets the ρ̃/4 density
    /// threshold, and with a previous star of the same key the choice
    /// shrinks it (Claim 4.4), never falling back.
    #[test]
    fn star_choice_meets_threshold_and_shrinks(ls in arb_local_stars()) {
        let Some(rho) = ls.max_density() else { return Ok(()); };
        let exp = rho.ceil_pow2_exponent().unwrap();
        let threshold = pow2_ratio(exp - 2);
        let Some(choice) = ls.choose_star(threshold, None) else { return Ok(()); };
        prop_assert!(!choice.fallback);
        let d = ls.density_of(&choice.member).unwrap_or_else(Ratio::zero);
        prop_assert!(d >= threshold, "chosen density {d} below {threshold}");

        // Re-choosing with the previous star must return a subset.
        let prev = choice.member.clone();
        let again = ls.choose_star(threshold, Some(&prev)).unwrap();
        prop_assert!(!again.fallback);
        prop_assert!(
            again.member.iter().zip(&prev).all(|(&m, &p)| !m || p),
            "re-choice must shrink the previous star"
        );
    }

    /// Exact ≤ greedy ≤ full graph, and all outputs verify.
    #[test]
    fn solution_sandwich(g in arb_connected(11)) {
        let opt = exact_min_2_spanner(&g);
        let greedy = greedy_2_spanner(&g);
        prop_assert!(is_k_spanner(&g, &opt, 2));
        prop_assert!(is_k_spanner(&g, &greedy, 2));
        prop_assert!(opt.len() <= greedy.len());
        prop_assert!(greedy.len() <= g.num_edges());
        prop_assert!(opt.len() + 1 >= g.num_vertices());
    }

    /// Exact k-spanners are monotone non-increasing in k.
    #[test]
    fn exact_monotone_in_k(g in arb_connected(9)) {
        let h2 = exact_min_k_spanner(&g, 2).len();
        let h3 = exact_min_k_spanner(&g, 3).len();
        prop_assert!(h3 <= h2);
    }

    /// The distributed engine's spanner, minus any single non-critical
    /// edge, is detected by the verifier when coverage breaks —
    /// i.e. the verifier and uncovered_edges agree.
    #[test]
    fn verifier_consistency(g in arb_connected(14), seed in 0u64..40) {
        let run = min_2_spanner(&g, &EngineConfig::seeded(seed));
        prop_assert!(run.converged);
        let unc = uncovered_edges(&g, &run.spanner, 2);
        prop_assert!(unc.is_empty());
        // Remove one spanner edge: uncovered_edges must agree with
        // is_k_spanner either way.
        let first = run.spanner.iter().next();
        if let Some(e) = first {
            let mut h = run.spanner.clone();
            h.remove(e);
            let unc = uncovered_edges(&g, &h, 2);
            prop_assert_eq!(unc.is_empty(), is_k_spanner(&g, &h, 2));
        }
    }

    /// An engine spanner never contains an edge the graph doesn't have
    /// (ids are within universe) and is minimal enough to be below m.
    #[test]
    fn engine_output_well_formed(g in arb_connected(20), seed in 0u64..40) {
        let run = min_2_spanner(&g, &EngineConfig::seeded(seed));
        prop_assert!(run.converged);
        prop_assert_eq!(run.spanner.universe(), g.num_edges());
        prop_assert!(run.spanner.len() <= g.num_edges());
        // Iteration stats are consistent.
        prop_assert_eq!(run.stats.len() as u64, run.iterations);
        if let Some(last) = run.stats.last() {
            prop_assert_eq!(last.uncovered, 0);
        }
    }

    /// Empty-pair local stars never produce a star.
    #[test]
    fn empty_local_stars(l in 1usize..6) {
        let ls = LocalStars {
            leaves: (0..l).map(|i| Leaf { vertex: i, weight: 1, edges: IdList::one(i) }).collect(),
            pairs: Vec::new(),
        };
        prop_assert!(ls.max_density().is_none());
        prop_assert!(ls.choose_star(Ratio::one(), None).is_none());
    }
}
