//! The variant-generic iteration engine for the Section-4 distributed
//! minimum 2-spanner scheme.
//!
//! All four problem variants of the paper (undirected, directed,
//! weighted, client-server) run the *same* iteration skeleton and only
//! differ in what an "item to cover" is, which edges a star leaf
//! contributes, and the density thresholds. [`SpannerVariant`]
//! abstracts exactly those differences; [`run_engine`] is the shared
//! skeleton:
//!
//! 1. every vertex builds its star search space over the still
//!    uncovered items ([`SpannerVariant::local_stars`] in the first
//!    iteration, [`LocalStars::restricted_to`] after it) and computes
//!    its densest-star density `ρ(v, H_v)` via the `dsa-flow` oracle;
//! 2. if the maximum density is at (or, for client-server, below) the
//!    variant's threshold, the remaining items are self-added
//!    ([`SpannerVariant::force_cover`]) and the run terminates;
//! 3. otherwise the vertices whose *rounded* density `ρ̃(v)` is maximal
//!    in their 2-neighborhood become candidates and choose a star of
//!    density at least `ρ̃(v)/4` (`ρ̃(v)/8` for the directed variant)
//!    by the Section 4.1 mechanism — re-choosing **shrink-only** while
//!    the rounded density is unchanged, which Claim 4.4 proves never
//!    fails (the engine counts [`SpannerRun::star_fallbacks`] so tests
//!    can confirm the claim empirically);
//! 4. every uncovered item votes for the first candidate 2-spanning it
//!    in random-permutation order, and a candidate whose star is backed
//!    by at least a `1/8` fraction of the items it spans (the
//!    [`EngineConfig::accept_denominator`]) adds the star to the
//!    spanner.
//!
//! The engine is the *centrally scheduled* rendition of the algorithm —
//! the same iterations as [`crate::protocol`], without the
//! message-level bookkeeping — which makes it the fast path for
//! experiments and the reference the protocol is tested against.
//!
//! # Sharded execution
//!
//! The per-vertex work inside an iteration is embarrassingly parallel —
//! exactly the per-vertex locality the paper's LOCAL model exposes.
//! With [`EngineConfig::num_shards`] > 1 the engine splits Step 1 (star
//! spaces + densest-star densities, one flow-oracle call per vertex,
//! the dominant cost) and Step 3's candidate construction into
//! contiguous vertex-range shards, and Step 4's vote collection into
//! item-range shards, each executed on scoped `std::thread`s.
//!
//! **Determinism contract:** the result is bit-identical for every
//! shard count. Three properties make that hold:
//!
//! * shard outputs are merged back in vertex (resp. item) order, and
//!   every cross-shard reduction (vote minima) is order-independent;
//! * all randomness is pre-drawn on the coordinating thread: the
//!   permutation values `r_v` for *all* `n` vertices are drawn from the
//!   seeded RNG in vertex order at the start of each iteration, so no
//!   RNG call ever happens inside a shard;
//! * shared state (`uncovered`, previous stars, densities) is read-only
//!   while shards run; mutations happen on the coordinating thread in
//!   vertex order between the parallel sections.
//!
//! # Incremental coverage
//!
//! Recomputing `uncovered = targets − covered(H)` from scratch costs
//! `O(Σ_v deg(v)²)` per iteration. Coverage is monotone (the spanner
//! only grows), so the engine instead maintains `uncovered`
//! incrementally via [`SpannerVariant::covered_delta`], which reports
//! only the items newly covered by the edges added this iteration —
//! `O(Σ_{new e} deg)` work. The run starts the same way: the
//! preselected edges are the first delta, and nothing is computed when
//! there are none. The final termination pass still recomputes from
//! scratch, so [`SpannerRun::converged`] is always grounded in a full
//! check.
//!
//! Star spaces follow `uncovered` the same way. Only the first
//! iteration builds them from the graph; after it, a vertex whose
//! items were all still uncovered keeps its space and density, and
//! the others filter their stored space to the smaller set, which the
//! [`SpannerVariant::local_stars`] contract makes equal to a rebuild.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsa_graphs::{EdgeId, EdgeSet, Ratio, VertexId};

use crate::star::{pow2_ratio, LocalStars, OracleScratch, StarScratch};

/// One problem variant of the Section-4 scheme: what needs covering,
/// which stars exist, and at which density the iteration stops.
///
/// *Items* are the units of coverage (undirected edges, directed edges,
/// or client edges), identified by dense ids `0..num_items()`. *Edges*
/// are the spanner building blocks identified by the ids of the
/// underlying graph; [`crate::star::Leaf::edges`] and
/// [`SpannerVariant::force_cover`] speak edge ids, while
/// [`crate::star::Pair::items`] speaks item ids.
pub trait SpannerVariant {
    /// Number of vertices of the communication graph.
    fn num_vertices(&self) -> usize;

    /// Size of the item universe (coverage is tracked in `EdgeSet`s of
    /// this universe).
    fn num_items(&self) -> usize;

    /// The items that must be covered for the run to converge.
    fn targets(&self) -> EdgeSet;

    /// Edges placed in the spanner before the first iteration (the
    /// weighted variant pre-adopts weight-0 edges). The returned set's
    /// universe is the spanner-edge universe.
    fn preselected(&self) -> EdgeSet;

    /// The target items covered by the edge set `h` within stretch 2.
    fn covered(&self, h: &EdgeSet) -> EdgeSet;

    /// Inserts into `out` (at least) every item that is covered by `h`
    /// *because of* the edges `new_edges` — the increment the engine
    /// subtracts from its `uncovered` set after adding `new_edges` to
    /// the spanner this iteration.
    ///
    /// `new_edges` are already members of `h` when this is called.
    /// Implementations may over-report items that were covered before
    /// (subtracting an already-covered item is a no-op) but must never
    /// miss a newly covered one, and must never report an uncovered
    /// item. So with every edge of `h` as `new_edges`, the delta
    /// restricted to the targets is exactly `covered(h)` restricted to
    /// them: the engine seeds its uncovered set that way from
    /// [`SpannerVariant::preselected`]. The default falls back to the
    /// full recompute, so custom variants stay correct without
    /// implementing the fast path.
    fn covered_delta(&self, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
        let _ = new_edges;
        out.union_with(&self.covered(h));
    }

    /// The star search space of `v` with respect to the still
    /// `uncovered` items: the potential leaves and the uncovered items
    /// each leaf pair 2-spans.
    ///
    /// Contract: the leaves do not depend on `uncovered`, and each
    /// leaf pair's items are the members of `uncovered` in a list fixed
    /// by `v` and the pair, in that list's order; the pairs with an
    /// item appear in an order fixed by `v`. So for `U′ ⊆ U`,
    /// `local_stars(v, U′)` equals `local_stars(v, U)` filtered to
    /// `U′` ([`LocalStars::restricted_to`]): the same leaves, and the
    /// same pairs in the same order, without the items outside `U′` and
    /// without the pairs left empty. The engine calls this only in its
    /// first iteration and derives every later space by that filter.
    fn local_stars(&self, v: VertexId, uncovered: &EdgeSet) -> LocalStars;

    /// The edges self-added to cover `item` at termination (step 7 of
    /// the paper's algorithm): the item's own edge, or — for a
    /// client-server item that is not itself a server — a covering
    /// server 2-path.
    fn force_cover(&self, item: usize) -> Vec<EdgeId>;

    /// Sorted neighbor list of `v` in the communication graph, used for
    /// the 2-neighborhood density aggregation of the candidacy rule.
    fn comm_neighbors(&self, v: VertexId) -> &[VertexId];

    /// The candidacy/termination density threshold: 1 for the
    /// unweighted variants, the largest power of two at most `1/w_max`
    /// for the weighted variant, and 1/2 for client-server.
    fn threshold(&self) -> Ratio;

    /// Whether termination requires the maximum density to drop
    /// *strictly below* [`SpannerVariant::threshold`] (client-server)
    /// rather than to it.
    fn strict_termination(&self) -> bool {
        false
    }

    /// The star-choice threshold is `ρ̃(v) / 2^offset`: 2 in the
    /// undirected analysis (Section 4.1), 3 for the directed variant
    /// (Section 4.3.1).
    fn choice_exponent_offset(&self) -> i32 {
        2
    }
}

/// Tunable parameters of [`run_engine`]. The defaults are the paper's
/// constants; the ablation experiments override individual fields via
/// struct update syntax on [`EngineConfig::seeded`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Seed of the engine's random permutation values `r_v`.
    pub seed: u64,
    /// A candidate is accepted when it collects at least
    /// `|C_v| / accept_denominator` votes (paper: 8).
    pub accept_denominator: u64,
    /// Use the Section 4.1 monotone (shrink-only) star memory; `false`
    /// re-chooses an arbitrary densest star every iteration (ablation
    /// A2).
    pub monotone_stars: bool,
    /// Round densities to powers of two for candidacy and thresholds;
    /// `false` compares exact densities (ablation A3).
    pub round_densities: bool,
    /// Safety cap on iterations; every iteration covers at least one
    /// item, so runs converge long before this on any real input.
    pub max_iterations: u64,
    /// Vertex/item shards executed in parallel inside each iteration
    /// (see the module docs). `1` runs fully inline on the calling
    /// thread; `0` uses one shard per available core; requests are
    /// clamped to `max(64, cores)` so an untrusted value can never
    /// demand an absurd thread count. The result is bit-identical for
    /// every value, so this is execution policy, not part of a job's
    /// identity.
    pub num_shards: usize,
    /// Cooperative cancellation: when set, the engine checks the flag
    /// between iterations and returns early (with
    /// [`SpannerRun::cancelled`] set) once it is `true`. Like
    /// `num_shards`, this is execution policy and never part of a
    /// job's identity.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Record per-iteration, per-section, per-shard wall times into
    /// [`SpannerRun::trace`]. Timing reads clocks only — it never
    /// touches the RNG stream or the merge order — so the spanner,
    /// stats, and every other result field stay byte-identical with
    /// the toggle on or off. Like `num_shards`, this is execution
    /// policy and never part of a job's identity.
    pub collect_timings: bool,
}

impl EngineConfig {
    /// The paper's configuration with the given seed.
    pub fn seeded(seed: u64) -> Self {
        EngineConfig {
            seed,
            accept_denominator: 8,
            monotone_stars: true,
            round_densities: true,
            max_iterations: 1_000_000,
            num_shards: 1,
            cancel: None,
            collect_timings: false,
        }
    }

    /// Whether the cooperative-cancellation flag is set and raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::seeded(0)
    }
}

/// Per-iteration accounting of a [`run_engine`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterationStats {
    /// Vertices that announced a candidate star this iteration.
    pub candidates: usize,
    /// Candidates whose star collected enough votes.
    pub accepted: usize,
    /// Spanner edges newly added this iteration.
    pub added_edges: usize,
    /// Target items still uncovered after this iteration.
    pub uncovered: usize,
}

/// Result of a [`run_engine`] run.
#[derive(Clone, Debug)]
pub struct SpannerRun {
    /// The computed spanner, as a set of edge ids.
    pub spanner: EdgeSet,
    /// Iterations executed (equals `stats.len()`).
    pub iterations: u64,
    /// Whether every target item was covered before the iteration cap.
    pub converged: bool,
    /// Whether the run stopped early because
    /// [`EngineConfig::cancel`] was raised (the spanner is then the
    /// partial state at the last completed iteration).
    pub cancelled: bool,
    /// How often the Claim-4.4 shrink-only re-choice failed and a fresh
    /// star was chosen; the claim says this stays 0.
    pub star_fallbacks: u64,
    /// Per-iteration accounting.
    pub stats: Vec<IterationStats>,
    /// Per-iteration wall-clock trace; `Some` only when
    /// [`EngineConfig::collect_timings`] was set. Timing data is
    /// observational: it is excluded from the store and wire
    /// encodings, from job identity, and from every result
    /// comparison — the deterministic payload of a run is unchanged
    /// by its presence.
    pub trace: Option<EngineTrace>,
}

impl SpannerRun {
    /// The LOCAL rounds this run would cost as a message-passing
    /// protocol: [`crate::protocol::PHASES`] rounds per iteration.
    pub fn local_rounds(&self) -> u64 {
        self.iterations * crate::protocol::PHASES
    }
}

/// Wall-clock accounting of where a [`run_engine`] call spent its time,
/// accumulated across all iterations. Deliberately *not* part of
/// [`SpannerRun`]: timings are non-deterministic, and `SpannerRun` is
/// the byte-stable identity the service caches and ships.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Step 1: per-vertex star spaces + densest-star flow calls.
    pub step1: Duration,
    /// Step 3: candidacy aggregation and star choice.
    pub step3: Duration,
    /// Step 4: vote collection and acceptance.
    pub step4: Duration,
    /// Coverage maintenance: `covered_delta` subtraction plus the
    /// from-scratch termination recompute.
    pub coverage: Duration,
}

impl PhaseTimings {
    /// Total time across the four instrumented phases.
    pub fn total(&self) -> Duration {
        self.step1 + self.step3 + self.step4 + self.coverage
    }
}

/// Wall-clock timing of one sharded engine section in one iteration.
#[derive(Clone, Debug, Default)]
pub struct SectionTiming {
    /// Wall time of the whole section as seen by the coordinating
    /// thread (includes merge work and any serial pre/post loops).
    pub wall: Duration,
    /// Per-shard wall times of the parallel portion, in shard (range)
    /// order. The spread across entries is the shard imbalance.
    pub shards: Vec<Duration>,
}

/// Wall-clock timing of one engine iteration, by section.
///
/// The termination pass (Step 2 self-adds plus the final from-scratch
/// coverage recompute) appears as a final entry whose `step3`/`step4`
/// sections are empty.
#[derive(Clone, Debug, Default)]
pub struct IterationTiming {
    /// Step 1: star spaces + densest-star flow calls (sharded over
    /// vertex ranges).
    pub step1: SectionTiming,
    /// Step 3: candidacy aggregation and star choice (sharded over
    /// vertex ranges).
    pub step3: SectionTiming,
    /// Step 4: vote collection and acceptance (sharded over item
    /// ranges).
    pub step4: SectionTiming,
    /// Coverage maintenance on the coordinating thread.
    pub coverage: Duration,
}

/// The full per-iteration timing trace of a run, collected when
/// [`EngineConfig::collect_timings`] is set. Purely observational —
/// see [`SpannerRun::trace`].
#[derive(Clone, Debug, Default)]
pub struct EngineTrace {
    /// One entry per executed iteration (`iterations.len()` equals
    /// `SpannerRun::stats.len()`).
    pub iterations: Vec<IterationTiming>,
}

/// The `(r_v, vertex, candidate index)` key an item backs in Step 4:
/// the minimum key over the candidates 2-spanning the item wins its
/// vote, matching the permutation order of the paper.
type VoteKey = (u64, VertexId, usize);

/// A candidate vertex of one iteration: its chosen star and the random
/// permutation value that orders the vote.
struct Candidate {
    v: VertexId,
    member: Vec<bool>,
    spanned: Vec<usize>,
    rv: u64,
}

/// The per-vertex candidacy output of the parallel Step-3 phase,
/// before the coordinating thread merges it (in vertex order) into the
/// candidate list and the star memory.
struct ChosenStar {
    member: Vec<bool>,
    spanned: Vec<usize>,
    fallback: bool,
}

/// Balanced contiguous index ranges covering `0..len`, at most one per
/// index. Empty when `len == 0`.
fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    let base = len / shards;
    let rem = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let end = start + base + usize::from(i < rem);
        if start < end {
            ranges.push(start..end);
        }
        start = end;
    }
    ranges
}

/// Runs `f` on each shard's index range (scoped threads when more than
/// one shard) and concatenates the outputs in range order — the merge
/// step that keeps sharded results identical to the inline run.
///
/// Also returns each shard's wall time, in range order, so the engine
/// trace can expose shard imbalance. The two clock reads per shard are
/// noise next to the work a shard does, and the timing never feeds
/// back into the outputs or their order.
fn sharded_chunks<T, F>(len: usize, shards: usize, f: F) -> (Vec<T>, Vec<Duration>)
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    let ranges = shard_ranges(len, shards);
    if ranges.len() <= 1 {
        let t = Instant::now(); // dsa-lint: allow(DSA-D002, reason="shard timings feed SpannerRun::trace only, never encoded output")
        let out = f(0..len);
        return (out, vec![t.elapsed()]);
    }
    let mut out = Vec::with_capacity(len);
    let mut times = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let f = &f;
                scope.spawn(move || {
                    let t = Instant::now(); // dsa-lint: allow(DSA-D002, reason="shard timings feed SpannerRun::trace only, never encoded output")
                    let chunk = f(range);
                    (chunk, t.elapsed())
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((chunk, elapsed)) => {
                    out.extend(chunk);
                    times.push(elapsed);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    (out, times)
}

/// Hard ceiling on engine shards (threads per sharded section).
/// Shard counts can come from untrusted requests over the service's
/// wire protocol; past `max(64, cores)` more shards only add spawn
/// overhead, and an absurd value must not translate into an absurd
/// thread count. Results are shard-count-independent, so clamping is
/// always safe.
const MAX_SHARDS: usize = 64;

/// Resolves [`EngineConfig::num_shards`]: `0` means one shard per
/// available core, and any request is clamped to
/// `max(64, available cores)`.
fn resolve_shards(requested: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    match requested {
        0 => cores,
        k => k.min(MAX_SHARDS.max(cores)),
    }
}

/// Runs the Section-4 iteration skeleton for `variant`.
///
/// The result is a pure function of `variant` and the result-relevant
/// configuration fields (seed, denominator, toggles, iteration cap) —
/// independent of [`EngineConfig::num_shards`], which only controls
/// how many threads execute each iteration.
///
/// # Panics
///
/// Panics if `cfg.accept_denominator == 0`.
pub fn run_engine<V: SpannerVariant + Sync>(variant: &V, cfg: &EngineConfig) -> SpannerRun {
    run_engine_timed(variant, cfg).0
}

/// [`run_engine`] plus per-phase wall-clock accounting — the
/// instrumentation the `exp_engine_scaling` bench reports. The
/// [`SpannerRun`] is byte-identical to the untimed entry point.
///
/// # Panics
///
/// Panics if `cfg.accept_denominator == 0`.
pub fn run_engine_timed<V: SpannerVariant + Sync>(
    variant: &V,
    cfg: &EngineConfig,
) -> (SpannerRun, PhaseTimings) {
    assert!(
        cfg.accept_denominator >= 1,
        "accept denominator must be positive"
    );
    let n = variant.num_vertices();
    let num_items = variant.num_items();
    let shards = resolve_shards(cfg.num_shards);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut h = variant.preselected();
    let targets = variant.targets();
    let mut uncovered = targets.clone();
    let mut delta = EdgeSet::new(num_items);
    // The preselected edges are the first coverage delta (see the
    // `covered_delta` contract); most runs have none.
    if !h.is_empty() {
        let preselected: Vec<EdgeId> = h.iter().collect();
        variant.covered_delta(&h, &preselected, &mut delta);
        uncovered.subtract(&delta);
    }

    let threshold = variant.threshold();
    let offset = variant.choice_exponent_offset();
    // Star memory for the Claim-4.4 monotone choice: the key (rounded
    // or exact density) under which the star was chosen, plus the star.
    let mut prev_star: Vec<Option<(Ratio, Vec<bool>)>> = vec![None; n];
    let mut stats: Vec<IterationStats> = Vec::new();
    let mut star_fallbacks = 0u64;
    let mut converged = uncovered.is_empty();
    let mut cancelled = false;
    let mut timings = PhaseTimings::default();
    let mut trace_iters: Vec<IterationTiming> = Vec::new();

    // Hot-loop buffers, allocated once and refilled per iteration.
    let mut keys: Vec<Ratio> = vec![Ratio::zero(); n];
    let mut max1: Vec<Ratio> = vec![Ratio::zero(); n];
    let mut max2: Vec<Ratio> = vec![Ratio::zero(); n];
    let mut rvs: Vec<u64> = vec![0; n];
    let mut new_edges: Vec<EdgeId> = Vec::new();
    // Star spaces and densities carried across iterations. `uncovered`
    // only ever shrinks, so by the `local_stars` contract a vertex's
    // current space is its stored one filtered to `uncovered`: one
    // bitset probe per stored item, and the flow oracle runs again only
    // when the filter removed something.
    let mut locals: Vec<LocalStars> = vec![LocalStars::default(); n];
    let mut rho: Vec<Ratio> = vec![Ratio::zero(); n];
    // The unrestricted densest star each Step 1 found — ρ(v)'s
    // witness. Step 3 seeds fresh star choices with it instead of
    // re-running the flow oracle.
    let mut best: Vec<Option<(Vec<bool>, Ratio)>> = vec![None; n];

    while !converged && (stats.len() as u64) < cfg.max_iterations {
        if cfg.is_cancelled() {
            cancelled = true;
            break;
        }

        // Step 1 (sharded): per-vertex star spaces and densest-star
        // densities — one flow-oracle call per stale vertex, the
        // dominant cost of an iteration. Every vertex is stale in the
        // first iteration. Each shard runs its vertices through one
        // oracle arena, whose buffers stop growing once they fit the
        // largest star space the shard meets.
        //
        // A vertex's star space plus the densest star found in it.
        type StarState = (LocalStars, Option<(Vec<bool>, Ratio)>);
        let t_step1 = Instant::now(); // dsa-lint: allow(DSA-D002, reason="step timing is trace-only diagnostics, never encoded output")
        let first = stats.is_empty();
        let (refreshed, step1_shards): (Vec<Option<StarState>>, _) =
            sharded_chunks(n, shards, |range| {
                let mut oracle = OracleScratch::default();
                range
                    .map(|v| {
                        let ls = if first {
                            variant.local_stars(v, &uncovered)
                        } else {
                            locals[v].restricted_to(&uncovered)?
                        };
                        let best = ls.densest_with(None, &mut oracle);
                        Some((ls, best))
                    })
                    .collect()
            });
        for (v, refreshed) in refreshed.into_iter().enumerate() {
            if let Some((ls, b)) = refreshed {
                locals[v] = ls;
                rho[v] = b.as_ref().map_or_else(Ratio::zero, |&(_, d)| d);
                best[v] = b;
            }
        }
        let global_max = rho.iter().copied().max().unwrap_or_else(Ratio::zero);
        let step1_wall = t_step1.elapsed();
        timings.step1 += step1_wall;

        // Step 2: termination — self-add what no dense-enough star
        // covers (the centrally scheduled analogue of every vertex
        // seeing only below-threshold densities nearby).
        let finished = if variant.strict_termination() {
            global_max < threshold
        } else {
            global_max <= threshold
        };
        if finished {
            let leftovers: Vec<usize> = uncovered.iter().collect();
            let mut added = 0usize;
            for item in leftovers {
                for e in variant.force_cover(item) {
                    added += usize::from(h.insert(e));
                }
            }
            // Final pass: recompute from scratch so `converged` rests
            // on a full check, not the incremental bookkeeping.
            let t_cov = Instant::now(); // dsa-lint: allow(DSA-D002, reason="coverage timing is trace-only diagnostics, never encoded output")
            uncovered = targets.clone();
            uncovered.subtract(&variant.covered(&h));
            let cov_wall = t_cov.elapsed();
            timings.coverage += cov_wall;
            if cfg.collect_timings {
                trace_iters.push(IterationTiming {
                    step1: SectionTiming {
                        wall: step1_wall,
                        shards: step1_shards,
                    },
                    coverage: cov_wall,
                    ..IterationTiming::default()
                });
            }
            stats.push(IterationStats {
                candidates: 0,
                accepted: 0,
                added_edges: added,
                uncovered: uncovered.len(),
            });
            converged = uncovered.is_empty();
            break;
        }

        // Step 3: candidacy. Densities are rounded up to powers of two
        // (unless ablated) and aggregated twice over the closed
        // neighborhood, giving each vertex the maximum over its
        // 2-neighborhood.
        let t_step3 = Instant::now(); // dsa-lint: allow(DSA-D002, reason="step timing is trace-only diagnostics, never encoded output")
        for v in 0..n {
            keys[v] = if cfg.round_densities {
                // Clamped to pow2_ratio's exact range like the choice
                // threshold below: a density under 2^-62 only arises
                // beside astronomical weights, where the weighted
                // threshold saturates at 2^-62, so such a vertex is
                // never a candidate under either key.
                rho[v]
                    .ceil_pow2_exponent()
                    .map(|exp| pow2_ratio(exp.max(-62)))
                    .unwrap_or_else(Ratio::zero)
            } else {
                rho[v]
            };
        }
        for v in 0..n {
            max1[v] = variant
                .comm_neighbors(v)
                .iter()
                .fold(keys[v], |m, &u| m.max(keys[u]));
        }
        for v in 0..n {
            max2[v] = variant
                .comm_neighbors(v)
                .iter()
                .fold(max1[v], |m, &u| m.max(max1[u]));
        }

        // Pre-draw the permutation values for *all* vertices in vertex
        // order, on this thread: the RNG stream is then independent of
        // which vertices end up candidates and of the shard schedule.
        let rv_max = (n.max(2) as u64).saturating_pow(4);
        for rv in rvs.iter_mut() {
            *rv = rng.gen_range(1..=rv_max);
        }

        // Sharded candidate construction: pure per-vertex reads of the
        // iteration state; star memory is updated afterwards, in
        // vertex order, on this thread. Each shard owns one reusable
        // StarScratch, so the choice loop stops allocating per vertex
        // once its arena has warmed up.
        let (chosen, step3_shards): (Vec<Option<ChosenStar>>, _) =
            sharded_chunks(n, shards, |range| {
                let mut scratch = StarScratch::default();
                range
                    .map(|v| {
                        if rho[v].is_zero() || rho[v] < threshold || keys[v] != max2[v] {
                            return None;
                        }
                        let choice_threshold = if cfg.round_densities {
                            let exp = rho[v].ceil_pow2_exponent().expect("positive density");
                            // Clamp to pow2_ratio's exact range; only
                            // reachable with astronomical weights, where
                            // the saturated threshold is equally
                            // serviceable.
                            pow2_ratio((exp - offset).max(-62))
                        } else {
                            // Exact-density ablation: ρ(v) / 2^offset.
                            // Shift the numerator down instead when the
                            // denominator would overflow (astronomical
                            // star weights).
                            let (num, den) = (rho[v].numerator(), rho[v].denominator());
                            if den.leading_zeros() as i32 >= offset {
                                Ratio::new(num, den << offset)
                            } else {
                                Ratio::new(num >> offset, den)
                            }
                        };
                        let prev = if cfg.monotone_stars {
                            prev_star[v]
                                .as_ref()
                                .filter(|(key, _)| *key == keys[v])
                                .map(|(_, member)| member.as_slice())
                        } else {
                            None
                        };
                        let choice = locals[v].choose_star_seeded(
                            choice_threshold,
                            prev,
                            Some(&best[v]),
                            &mut scratch,
                        )?;
                        let spanned = locals[v].spanned_items(&choice.member);
                        if spanned.is_empty() {
                            return None;
                        }
                        Some(ChosenStar {
                            member: choice.member,
                            spanned,
                            fallback: choice.fallback,
                        })
                    })
                    .collect()
            });

        let mut candidates: Vec<Candidate> = Vec::new();
        for (v, chosen) in chosen.into_iter().enumerate() {
            let Some(star) = chosen else { continue };
            if star.fallback {
                star_fallbacks += 1;
            }
            if cfg.monotone_stars {
                // Reuse the existing buffer when shapes match instead
                // of reallocating every iteration.
                match &mut prev_star[v] {
                    Some((key, buf)) if buf.len() == star.member.len() => {
                        *key = keys[v];
                        buf.copy_from_slice(&star.member);
                    }
                    slot => *slot = Some((keys[v], star.member.clone())),
                }
            }
            candidates.push(Candidate {
                v,
                member: star.member,
                spanned: star.spanned,
                rv: rvs[v],
            });
        }
        let step3_wall = t_step3.elapsed();
        timings.step3 += step3_wall;
        let t_step4 = Instant::now(); // dsa-lint: allow(DSA-D002, reason="step timing is trace-only diagnostics, never encoded output")

        // Step 4 (sharded over item ranges): voting. Each uncovered
        // item backs the first candidate 2-spanning it in `(r_v, v)`
        // order; ties on r_v (rare) break by vertex id, as a real
        // permutation would. Every shard owns a contiguous item range
        // and scans each candidate's (sorted) spanned list from the
        // first in-range entry.
        let (backer, step4_shards): (Vec<Option<VoteKey>>, _) =
            sharded_chunks(num_items, shards, |range| {
                let mut out: Vec<Option<VoteKey>> = vec![None; range.len()];
                for (ci, c) in candidates.iter().enumerate() {
                    let key = (c.rv, c.v, ci);
                    let from = c.spanned.partition_point(|&item| item < range.start);
                    for &item in &c.spanned[from..] {
                        if item >= range.end {
                            break;
                        }
                        let slot = &mut out[item - range.start];
                        if slot.is_none_or(|b| key < b) {
                            *slot = Some(key);
                        }
                    }
                }
                out
            });
        let mut votes = vec![0u64; candidates.len()];
        for b in backer.iter().flatten() {
            votes[b.2] += 1;
        }

        // Acceptance: enough of the spanned items voted for the star.
        new_edges.clear();
        let mut accepted = 0usize;
        for (ci, c) in candidates.iter().enumerate() {
            if votes[ci] * cfg.accept_denominator >= c.spanned.len() as u64 {
                accepted += 1;
                for (leaf, &m) in locals[c.v].leaves.iter().zip(&c.member) {
                    if m {
                        for &e in &leaf.edges {
                            if h.insert(e) {
                                new_edges.push(e);
                            }
                        }
                    }
                }
            }
        }

        let step4_wall = t_step4.elapsed();
        timings.step4 += step4_wall;

        // Incremental coverage: only the items the new edges can have
        // covered leave `uncovered` (coverage is monotone, so the
        // delta is exact — see the module docs).
        let t_cov = Instant::now(); // dsa-lint: allow(DSA-D002, reason="coverage timing is trace-only diagnostics, never encoded output")
        delta.clear();
        variant.covered_delta(&h, &new_edges, &mut delta);
        uncovered.subtract(&delta);
        let cov_wall = t_cov.elapsed();
        timings.coverage += cov_wall;
        if cfg.collect_timings {
            trace_iters.push(IterationTiming {
                step1: SectionTiming {
                    wall: step1_wall,
                    shards: step1_shards,
                },
                step3: SectionTiming {
                    wall: step3_wall,
                    shards: step3_shards,
                },
                step4: SectionTiming {
                    wall: step4_wall,
                    shards: step4_shards,
                },
                coverage: cov_wall,
            });
        }
        stats.push(IterationStats {
            candidates: candidates.len(),
            accepted,
            added_edges: new_edges.len(),
            uncovered: uncovered.len(),
        });
        converged = uncovered.is_empty();
    }

    (
        SpannerRun {
            spanner: h,
            iterations: stats.len() as u64,
            converged,
            cancelled,
            star_fallbacks,
            stats,
            trace: cfg.collect_timings.then_some(EngineTrace {
                iterations: trace_iters,
            }),
        },
        timings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for (len, shards) in [(0, 3), (1, 4), (7, 3), (8, 4), (10, 1), (5, 9), (64, 8)] {
            let ranges = shard_ranges(len, shards);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "gap at len={len} shards={shards}");
                assert!(r.start < r.end, "empty range at len={len} shards={shards}");
                next = r.end;
            }
            assert_eq!(next, len, "ranges must cover 0..{len}");
            assert!(ranges.len() <= shards.max(1));
            // Balanced: sizes differ by at most one.
            if let (Some(min), Some(max)) = (
                ranges.iter().map(|r| r.len()).min(),
                ranges.iter().map(|r| r.len()).max(),
            ) {
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn sharded_chunks_match_inline_for_any_shard_count() {
        let f = |i: usize| i * i + 1;
        let per_index = |r: Range<usize>| r.map(f).collect::<Vec<_>>();
        let expect: Vec<usize> = (0..37).map(f).collect();
        for shards in [1, 2, 3, 8, 37, 100] {
            let (out, times) = sharded_chunks(37, shards, per_index);
            assert_eq!(out, expect, "shards={shards}");
            assert_eq!(times.len(), shard_ranges(37, shards).len().max(1));
        }
        assert_eq!(sharded_chunks(0, 4, per_index).0, Vec::<usize>::new());
    }

    #[test]
    fn sharded_chunks_preserve_range_order() {
        let (out, times) = sharded_chunks(10, 3, |r| r.map(|i| i as u64).collect::<Vec<_>>());
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
        // One wall time per shard, in range order.
        assert_eq!(times.len(), 3);
    }

    #[test]
    fn resolve_shards_auto_is_positive_and_requests_are_clamped() {
        assert!(resolve_shards(0) >= 1);
        assert_eq!(resolve_shards(5), 5);
        // A hostile request (e.g. a remote `shards 100000` header) is
        // capped instead of becoming a thread-spawn storm.
        assert!(resolve_shards(100_000) <= MAX_SHARDS.max(resolve_shards(0)));
    }

    #[test]
    fn cancelled_flag_reads_through() {
        let mut cfg = EngineConfig::seeded(0);
        assert!(!cfg.is_cancelled());
        let flag = Arc::new(AtomicBool::new(false));
        cfg.cancel = Some(Arc::clone(&flag));
        assert!(!cfg.is_cancelled());
        flag.store(true, Ordering::Relaxed);
        assert!(cfg.is_cancelled());
    }
}
