//! The sharded engine's two contracts, checked end to end:
//!
//! 1. **Shard-count determinism** — the spanner, iteration count,
//!    fallback count, and per-iteration stats of a run are
//!    byte-identical at 1, 4, and 8 shards, for every variant and
//!    under the ablation toggles (property-tested on random
//!    instances).
//! 2. **Incremental coverage** — the engine's `covered_delta`-driven
//!    uncovered-set maintenance lands on exactly the from-scratch
//!    `targets − covered(H)` recompute after *every* iteration,
//!    asserted inside real engine runs by a checking wrapper variant.
//!
//! Plus the in-engine cooperative cancellation: a raised flag stops a
//! run between iterations, both when pre-set and when raised while an
//! iteration is running.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use spanner_repro::core::dist::{
    run_engine, run_variant, ClientServerTwoSpanner, DirectedTwoSpanner, EngineConfig, SpannerRun,
    SpannerVariant, UndirectedTwoSpanner, VariantInstance, WeightedTwoSpanner,
};
use spanner_repro::core::star::LocalStars;
use spanner_repro::graphs::{gen, EdgeId, EdgeSet, Ratio, VertexId};

/// One random instance of every variant, from one (n, seed, density)
/// draw — so each property case exercises all four kinds.
fn all_variant_instances(n: usize, seed: u64, density: u32) -> Vec<VariantInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 0.08 * density as f64;
    let g = gen::gnp_connected(n, p, &mut rng);
    let weights = gen::random_weights(g.num_edges(), 0, 6, &mut rng);
    let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
    let d = gen::random_digraph_connected(n.min(20), 0.1, &mut rng);
    vec![
        VariantInstance::Undirected { graph: g.clone() },
        VariantInstance::Directed { graph: d },
        VariantInstance::Weighted {
            graph: g.clone(),
            weights,
        },
        VariantInstance::ClientServer {
            graph: g,
            clients,
            servers,
        },
    ]
}

fn run_with_shards(instance: &VariantInstance, cfg: &EngineConfig, shards: usize) -> SpannerRun {
    let cfg = EngineConfig {
        num_shards: shards,
        ..cfg.clone()
    };
    run_variant(instance, &cfg)
}

fn assert_shard_invariant(instance: &VariantInstance, cfg: &EngineConfig) {
    let base = run_with_shards(instance, cfg, 1);
    assert!(base.converged, "{:?} did not converge", instance.kind());
    for shards in [4, 8] {
        let run = run_with_shards(instance, cfg, shards);
        let kind = instance.kind();
        assert_eq!(
            run.spanner, base.spanner,
            "{kind:?}: spanner differs at {shards} shards"
        );
        assert_eq!(
            run.iterations, base.iterations,
            "{kind:?}: iterations differ at {shards} shards"
        );
        assert_eq!(
            run.star_fallbacks, base.star_fallbacks,
            "{kind:?}: fallbacks differ at {shards} shards"
        );
        assert_eq!(
            run.stats, base.stats,
            "{kind:?}: stats differ at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 1 vs 4 vs 8 shards: byte-identical spanners and identical
    /// IterationStats for all four variants on random graphs.
    #[test]
    fn sharded_runs_are_byte_identical(
        n in 8usize..26,
        graph_seed in 0u64..500,
        density in 1u32..4,
        engine_seed in 0u64..30,
    ) {
        for instance in all_variant_instances(n, graph_seed, density) {
            assert_shard_invariant(&instance, &EngineConfig::seeded(engine_seed));
        }
    }

    /// The invariance also holds under the ablation toggles (they
    /// reroute the candidacy/star-choice paths the shards execute).
    #[test]
    fn sharded_runs_are_byte_identical_under_ablations(
        n in 8usize..20,
        graph_seed in 0u64..200,
        engine_seed in 0u64..20,
    ) {
        for instance in all_variant_instances(n, graph_seed, 2) {
            assert_shard_invariant(
                &instance,
                &EngineConfig {
                    monotone_stars: false,
                    ..EngineConfig::seeded(engine_seed)
                },
            );
            assert_shard_invariant(
                &instance,
                &EngineConfig {
                    round_densities: false,
                    ..EngineConfig::seeded(engine_seed)
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// Incremental-coverage regression: a wrapper variant that re-derives
// coverage from scratch after every delta the engine applies.
// ---------------------------------------------------------------------

/// Delegates everything to `inner`, but cross-checks every
/// `covered_delta` call: the union of the latest `covered()` result
/// (or the empty set, `covered(∅)`, before any) and all deltas since,
/// restricted to the targets, must equal the from-scratch recompute —
/// exactly the invariant the engine's uncovered-set maintenance rests
/// on, including the start-up delta of the preselected edges.
struct CoverageChecked<V: SpannerVariant> {
    inner: V,
    cumulative: Mutex<EdgeSet>,
    delta_checks: AtomicUsize,
}

impl<V: SpannerVariant> CoverageChecked<V> {
    fn new(inner: V) -> Self {
        let empty = EdgeSet::new(inner.num_items());
        CoverageChecked {
            inner,
            cumulative: Mutex::new(empty),
            delta_checks: AtomicUsize::new(0),
        }
    }
}

impl<V: SpannerVariant> SpannerVariant for CoverageChecked<V> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn targets(&self) -> EdgeSet {
        self.inner.targets()
    }

    fn preselected(&self) -> EdgeSet {
        self.inner.preselected()
    }

    fn covered(&self, h: &EdgeSet) -> EdgeSet {
        let covered = self.inner.covered(h);
        *self.cumulative.lock().unwrap() = covered.clone();
        covered
    }

    fn covered_delta(&self, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
        self.inner.covered_delta(h, new_edges, out);
        let mut cumulative = self.cumulative.lock().unwrap();
        cumulative.union_with(out);
        // Deltas may over-report non-target items; the engine only
        // ever subtracts them from target sets, so compare modulo the
        // target mask.
        let mut masked = cumulative.clone();
        masked.intersect_with(&self.inner.targets());
        let mut expect = self.inner.covered(h);
        expect.intersect_with(&self.inner.targets());
        assert_eq!(
            masked, expect,
            "incremental coverage diverged from the recompute"
        );
        self.delta_checks.fetch_add(1, Ordering::Relaxed);
    }

    fn local_stars(&self, v: VertexId, uncovered: &EdgeSet) -> LocalStars {
        self.inner.local_stars(v, uncovered)
    }

    fn force_cover(&self, item: usize) -> Vec<EdgeId> {
        self.inner.force_cover(item)
    }

    fn comm_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inner.comm_neighbors(v)
    }

    fn threshold(&self) -> Ratio {
        self.inner.threshold()
    }

    fn strict_termination(&self) -> bool {
        self.inner.strict_termination()
    }

    fn choice_exponent_offset(&self) -> i32 {
        self.inner.choice_exponent_offset()
    }
}

#[test]
fn incremental_coverage_matches_recompute_inside_real_runs() {
    let mut rng = StdRng::seed_from_u64(2018);
    let mut total_checks = 0usize;
    for trial in 0..4u64 {
        let g = gen::gnp_connected(24 + 2 * trial as usize, 0.22, &mut rng);
        let w = gen::random_weights(g.num_edges(), 0, 5, &mut rng);
        let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
        let d = gen::random_digraph_connected(18, 0.12, &mut rng);
        let cfg = EngineConfig::seeded(trial);

        let checked = CoverageChecked::new(UndirectedTwoSpanner::new(&g));
        assert!(run_engine(&checked, &cfg).converged);
        total_checks += checked.delta_checks.load(Ordering::Relaxed);

        let checked = CoverageChecked::new(WeightedTwoSpanner::new(&g, &w));
        assert!(run_engine(&checked, &cfg).converged);
        total_checks += checked.delta_checks.load(Ordering::Relaxed);

        let checked = CoverageChecked::new(ClientServerTwoSpanner::new(&g, &clients, &servers));
        assert!(run_engine(&checked, &cfg).converged);
        total_checks += checked.delta_checks.load(Ordering::Relaxed);

        let checked = CoverageChecked::new(DirectedTwoSpanner::new(&d));
        assert!(run_engine(&checked, &cfg).converged);
        total_checks += checked.delta_checks.load(Ordering::Relaxed);
    }
    assert!(
        total_checks > 0,
        "no iteration ever exercised the incremental path"
    );
}

// ---------------------------------------------------------------------
// In-engine cooperative cancellation.
// ---------------------------------------------------------------------

#[test]
fn preraised_cancel_flag_stops_before_the_first_iteration() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = gen::gnp_connected(30, 0.3, &mut rng);
    let mut cfg = EngineConfig::seeded(1);
    cfg.cancel = Some(Arc::new(AtomicBool::new(true)));
    let run = run_variant(&VariantInstance::Undirected { graph: g }, &cfg);
    assert!(run.cancelled);
    assert!(!run.converged);
    assert_eq!(run.iterations, 0);
    assert!(run.spanner.is_empty());
}

/// Delegates everything to `inner`, and raises `flag` inside the
/// `k`-th `covered_delta` call. The engine makes exactly one such call
/// per iteration, after the iteration's edges are added, so the flag
/// goes up while iteration `k` runs — however fast the engine is.
struct CancelInIteration<V: SpannerVariant> {
    inner: V,
    k: usize,
    deltas: AtomicUsize,
    flag: Arc<AtomicBool>,
}

impl<V: SpannerVariant> SpannerVariant for CancelInIteration<V> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn targets(&self) -> EdgeSet {
        self.inner.targets()
    }

    fn preselected(&self) -> EdgeSet {
        self.inner.preselected()
    }

    fn covered(&self, h: &EdgeSet) -> EdgeSet {
        self.inner.covered(h)
    }

    fn covered_delta(&self, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
        self.inner.covered_delta(h, new_edges, out);
        if self.deltas.fetch_add(1, Ordering::Relaxed) + 1 == self.k {
            self.flag.store(true, Ordering::Relaxed);
        }
    }

    fn local_stars(&self, v: VertexId, uncovered: &EdgeSet) -> LocalStars {
        self.inner.local_stars(v, uncovered)
    }

    fn force_cover(&self, item: usize) -> Vec<EdgeId> {
        self.inner.force_cover(item)
    }

    fn comm_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.inner.comm_neighbors(v)
    }

    fn threshold(&self) -> Ratio {
        self.inner.threshold()
    }

    fn strict_termination(&self) -> bool {
        self.inner.strict_termination()
    }

    fn choice_exponent_offset(&self) -> i32 {
        self.inner.choice_exponent_offset()
    }
}

#[test]
fn cancel_flag_raised_mid_run_stops_between_iterations() {
    let mut rng = StdRng::seed_from_u64(6);
    let g = gen::gnp_connected(260, 0.08, &mut rng);
    let full = run_engine(&UndirectedTwoSpanner::new(&g), &EngineConfig::seeded(3));
    assert!(full.converged && !full.cancelled);
    // Cancel inside the last iteration that does not converge.
    assert!(full.iterations >= 2, "the run must outlast one iteration");
    let k = full.iterations as usize - 1;

    let flag = Arc::new(AtomicBool::new(false));
    let mut cfg = EngineConfig::seeded(3);
    cfg.cancel = Some(Arc::clone(&flag));
    let variant = CancelInIteration {
        inner: UndirectedTwoSpanner::new(&g),
        k,
        deltas: AtomicUsize::new(0),
        flag,
    };
    let run = run_engine(&variant, &cfg);
    assert!(run.cancelled, "flag raised mid-run must cancel");
    assert!(!run.converged);
    assert_eq!(
        run.iterations, k as u64,
        "the run stops right after iteration k"
    );
    // The partial spanner is a prefix of the full run's work: every
    // completed iteration is identical to the uncancelled run's.
    assert_eq!(
        run.stats[..],
        full.stats[..run.iterations as usize],
        "completed iterations must match the uncancelled run"
    );
}
