//! Sequential baselines: the Kortsarz–Peleg greedy algorithm \[46\]
//! (whose `O(log m/n)` ratio Theorem 1.3 matches distributively) and
//! exact branch-and-bound solvers used as ground truth on small
//! instances.

use dsa_graphs::{EdgeId, EdgeSet, EdgeWeights, Graph, Ratio, VertexId};

use crate::star::LocalStars;

use crate::dist::engine::SpannerVariant;
use crate::dist::{
    ClientServerTwoSpanner, DirectedTwoSpanner, UndirectedTwoSpanner, WeightedTwoSpanner,
};
use dsa_graphs::DiGraph;

/// The sequential greedy minimum 2-spanner algorithm of Kortsarz and
/// Peleg: repeatedly add the globally densest star while its density is
/// at least 1, then self-add the remaining uncovered edges.
/// Guarantees an `O(log m/n)` approximation ratio.
///
/// # Example
///
/// ```
/// use dsa_core::seq::greedy_2_spanner;
/// use dsa_core::verify::is_k_spanner;
/// use dsa_graphs::gen::complete;
///
/// let g = complete(7);
/// let h = greedy_2_spanner(&g);
/// assert!(is_k_spanner(&g, &h, 2));
/// assert!(h.len() < g.num_edges());
/// ```
pub fn greedy_2_spanner(g: &Graph) -> EdgeSet {
    let variant = UndirectedTwoSpanner::new(g);
    greedy_over_variant(&variant, Ratio::one())
}

/// Weighted sequential greedy 2-spanner: densities are
/// `|C_S| / w(S)`, weight-0 edges are free, and single uncovered edges
/// compete with stars at density `1/w(e)`. `O(log Δ)`-style guarantee,
/// mirroring Section 4.3.2 sequentially.
pub fn greedy_2_spanner_weighted(g: &Graph, w: &EdgeWeights) -> EdgeSet {
    let variant = WeightedTwoSpanner::new(g, w);
    let mut h = variant.preselected();
    let mut uncovered = variant.targets();
    uncovered.subtract(&variant.covered(&h));
    let mut cache = StarCache::new(variant.num_vertices());
    while !uncovered.is_empty() {
        cache.refresh(&variant, &uncovered);
        let best = cache.global_best().filter(|&(_, _, d)| d > Ratio::zero());
        // Cheapest direct edge addition has "density" 1/w(e).
        let direct: Option<(EdgeId, Ratio)> = uncovered
            .iter()
            .map(|e| {
                let we = w.get(e);
                (
                    e,
                    if we == 0 {
                        Ratio::new(u64::MAX, 1)
                    } else {
                        Ratio::new(1, we)
                    },
                )
            })
            .max_by_key(|&(_, d)| d);
        let mut added = Vec::new();
        match (best, direct) {
            (Some((v, member, d)), Some((_, dd))) if d >= dd => {
                cache.add_star(&mut h, v, member, &mut added)
            }
            (_, Some((e, _))) => {
                if h.insert(e) {
                    added.push(e);
                }
            }
            (Some((v, member, _)), None) => cache.add_star(&mut h, v, member, &mut added),
            (None, None) => break,
        }
        subtract_delta(&variant, &h, &added, &mut uncovered);
    }
    h
}

/// Takes the items the edges `added` (already in `h`) newly cover out
/// of `uncovered`, through the variant's exact coverage delta (the
/// same contract the engine relies on).
fn subtract_delta<V: SpannerVariant>(
    variant: &V,
    h: &EdgeSet,
    added: &[EdgeId],
    uncovered: &mut EdgeSet,
) {
    let mut delta = EdgeSet::new(variant.num_items());
    variant.covered_delta(h, added, &mut delta);
    uncovered.subtract(&delta);
}

/// Sequential greedy directed 2-spanner, via the Section-4.3.1 proxy
/// densities (a 2-approximation of the true directed star density, so
/// the ratio guarantee carries the same constant-factor slack).
pub fn greedy_2_spanner_directed(g: &DiGraph) -> EdgeSet {
    let variant = DirectedTwoSpanner::new(g);
    greedy_over_variant(&variant, Ratio::one())
}

/// Sequential greedy client-server 2-spanner (the Elkin–Peleg \[29\]
/// style baseline): densest server-stars over uncovered client edges,
/// stopping at density 1/2 (a 2-path covering one client edge), then
/// self-adding client∩server leftovers.
pub fn greedy_2_spanner_client_server(g: &Graph, clients: &EdgeSet, servers: &EdgeSet) -> EdgeSet {
    let variant = ClientServerTwoSpanner::new(g, clients, servers);
    greedy_over_variant(&variant, Ratio::new(1, 2))
}

/// One cache entry: the star space plus its densest star, if any.
type CacheEntry = (LocalStars, Option<(Vec<bool>, Ratio)>);

/// Incremental densest-star cache shared by the greedy baselines: a
/// vertex's star space only changes when an item one of its pairs
/// spans gets covered, so only such "dirty" vertices are recomputed,
/// and their spaces are filtered as the engine's are
/// ([`LocalStars::restricted_to`]).
struct StarCache {
    entries: Vec<Option<CacheEntry>>,
}

impl StarCache {
    fn new(n: usize) -> Self {
        StarCache {
            entries: vec![None; n],
        }
    }

    /// Brings every entry up to `uncovered`, which only shrinks
    /// between calls: entries are built on the first call, and later
    /// ones change only where an item of theirs got covered.
    fn refresh<V: SpannerVariant>(&mut self, variant: &V, uncovered: &EdgeSet) {
        for (v, entry) in self.entries.iter_mut().enumerate() {
            let ls = match entry {
                None => variant.local_stars(v, uncovered),
                Some((ls, _)) => match ls.restricted_to(uncovered) {
                    Some(ls) => ls,
                    None => continue,
                },
            };
            let densest = ls.densest(None);
            *entry = Some((ls, densest));
        }
    }

    /// The globally densest star: (vertex, member, density).
    fn global_best(&self) -> Option<(VertexId, &Vec<bool>, Ratio)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(v, e)| {
                let (_, densest) = e.as_ref()?;
                let (member, d) = densest.as_ref()?;
                Some((v, member, *d))
            })
            .max_by(|a, b| a.2.cmp(&b.2).then(b.0.cmp(&a.0)))
    }

    /// Adds the leaves `member` selects from `v`'s star space to `h`,
    /// recording in `added` the edges that were not in `h` yet.
    fn add_star(&self, h: &mut EdgeSet, v: VertexId, member: &[bool], added: &mut Vec<EdgeId>) {
        let ls = &self.entries[v].as_ref().expect("refreshed").0;
        for (leaf, &m) in ls.leaves.iter().zip(member) {
            if m {
                for &edge in &leaf.edges {
                    if h.insert(edge) {
                        added.push(edge);
                    }
                }
            }
        }
    }
}

/// Shared greedy loop: add the globally densest star while its density
/// reaches `stop_threshold`, then self-add whatever is uncovered.
fn greedy_over_variant<V: SpannerVariant>(variant: &V, stop_threshold: Ratio) -> EdgeSet {
    let mut h = variant.preselected();
    let mut uncovered = variant.targets();
    uncovered.subtract(&variant.covered(&h));
    let mut cache = StarCache::new(variant.num_vertices());
    loop {
        if uncovered.is_empty() {
            return h;
        }
        cache.refresh(variant, &uncovered);
        match cache.global_best() {
            Some((v, member, d)) if d >= stop_threshold => {
                let mut added = Vec::new();
                cache.add_star(&mut h, v, member, &mut added);
                if added.is_empty() {
                    // Defensive: a stale densest star cannot make
                    // progress, so finish with self-additions.
                    break;
                }
                subtract_delta(variant, &h, &added, &mut uncovered);
            }
            _ => break,
        }
    }
    // Self-add remaining uncovered items.
    let pending: Vec<usize> = uncovered.iter().collect();
    for item in pending {
        for e in variant.force_cover(item) {
            h.insert(e);
        }
    }
    h
}

/// Exact minimum 2-spanner by branch and bound. Ground truth for small
/// graphs (think `m ≤ 40`); runtime is exponential in the worst case.
///
/// Branches on the uncovered edge with the fewest covering options:
/// either the edge itself joins the spanner, or one of its 2-paths
/// (through a common neighbor) does.
pub fn exact_min_2_spanner(g: &Graph) -> EdgeSet {
    exact_min_2_spanner_weighted(g, &EdgeWeights::unit(g)).0
}

/// Exact minimum-cost weighted 2-spanner by branch and bound; returns
/// the spanner and its cost.
pub fn exact_min_2_spanner_weighted(g: &Graph, w: &EdgeWeights) -> (EdgeSet, u64) {
    let m = g.num_edges();
    // Start from the whole graph as the incumbent.
    let mut best = EdgeSet::full(m);
    let mut best_cost: u64 = w.total();
    let mut current = EdgeSet::new(m);
    // Weight-0 edges are always free to take.
    for (e, weight) in w.iter() {
        if weight == 0 {
            current.insert(e);
        }
    }
    let zero_cost_base = 0u64;
    branch_2(
        g,
        w,
        &mut current,
        zero_cost_base,
        &mut best,
        &mut best_cost,
    );
    (best, best_cost)
}

fn branch_2(
    g: &Graph,
    w: &EdgeWeights,
    current: &mut EdgeSet,
    cost: u64,
    best: &mut EdgeSet,
    best_cost: &mut u64,
) {
    if cost >= *best_cost {
        return;
    }
    // Pick the uncovered edge with the fewest covering options.
    let mut pick: Option<(EdgeId, Vec<Vec<EdgeId>>)> = None;
    for (e, u, v) in g.edges() {
        if current.contains(e) {
            continue;
        }
        if dsa_graphs::traversal::covers_edge(g, current, e, 2) {
            continue;
        }
        let mut options: Vec<Vec<EdgeId>> = vec![vec![e]];
        for (x, eux) in g.neighbors(u) {
            if x == v {
                continue;
            }
            if let Some(exv) = g.edge_id(x, v) {
                options.push(vec![eux, exv]);
            }
        }
        if pick.as_ref().is_none_or(|(_, o)| options.len() < o.len()) {
            pick = Some((e, options));
        }
        if pick.as_ref().is_some_and(|(_, o)| o.len() == 1) {
            break;
        }
    }
    let Some((_, options)) = pick else {
        // Everything covered: new incumbent.
        if cost < *best_cost {
            *best = current.clone();
            *best_cost = cost;
        }
        return;
    };
    for option in options {
        let added: Vec<EdgeId> = option
            .iter()
            .copied()
            .filter(|&e| !current.contains(e))
            .collect();
        if added.is_empty() {
            continue;
        }
        let extra: u64 = added.iter().map(|&e| w.get(e)).sum();
        for &e in &added {
            current.insert(e);
        }
        branch_2(g, w, current, cost + extra, best, best_cost);
        for &e in &added {
            current.remove(e);
        }
    }
}

/// Exact minimum k-spanner by branch and bound over covering paths.
/// Ground truth for the (1+ε) experiments; small graphs only.
pub fn exact_min_k_spanner(g: &Graph, k: usize) -> EdgeSet {
    let targets: Vec<EdgeId> = (0..g.num_edges()).collect();
    exact_min_spanner_covering(g, &targets, k)
}

/// Exact minimum set of edges of `g` covering every edge in `targets`
/// within stretch `k` (the `g(v, d)` oracle of the Section 6
/// algorithm: a spanner for a *subset* of the edges may use any edge of
/// the whole graph). Branch and bound; small instances only.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn exact_min_spanner_covering(g: &Graph, targets: &[EdgeId], k: usize) -> EdgeSet {
    exact_min_spanner_covering_weighted(g, &EdgeWeights::unit(g), targets, k).0
}

/// Weighted version of [`exact_min_spanner_covering`]: minimizes the
/// total weight of the chosen edges. Used by the weighted (1+ε)
/// algorithm (the paper notes the Section 6 framework adapts to the
/// weighted case directly).
///
/// # Panics
///
/// Panics if `k == 0` or the weights don't match the graph.
pub fn exact_min_spanner_covering_weighted(
    g: &Graph,
    w: &EdgeWeights,
    targets: &[EdgeId],
    k: usize,
) -> (EdgeSet, u64) {
    assert!(k >= 1, "stretch must be at least 1");
    assert_eq!(w.len(), g.num_edges(), "weights must match edges");
    let m = g.num_edges();
    let mut best = EdgeSet::full(m);
    let mut best_cost = w.total() + 1;
    let mut current = EdgeSet::new(m);
    // Weight-0 edges are free to take.
    for (e, weight) in w.iter() {
        if weight == 0 {
            current.insert(e);
        }
    }
    branch_k(g, w, k, targets, &mut current, 0, &mut best, &mut best_cost);
    (best, best_cost)
}

#[allow(clippy::too_many_arguments)]
fn branch_k(
    g: &Graph,
    w: &EdgeWeights,
    k: usize,
    targets: &[EdgeId],
    current: &mut EdgeSet,
    cost: u64,
    best: &mut EdgeSet,
    best_cost: &mut u64,
) {
    if cost >= *best_cost {
        return;
    }
    // First uncovered target edge, fewest covering paths.
    let mut pick: Option<Vec<Vec<EdgeId>>> = None;
    for &e in targets {
        let (u, v) = g.endpoints(e);
        if dsa_graphs::traversal::covers_edge(g, current, e, k) {
            continue;
        }
        let paths = paths_up_to(g, u, v, k);
        if pick.as_ref().is_none_or(|p| paths.len() < p.len()) {
            pick = Some(paths);
        }
    }
    let Some(paths) = pick else {
        if cost < *best_cost {
            *best = current.clone();
            *best_cost = cost;
        }
        return;
    };
    for path in paths {
        let added: Vec<EdgeId> = path
            .iter()
            .copied()
            .filter(|&e| !current.contains(e))
            .collect();
        if added.is_empty() {
            continue;
        }
        let extra: u64 = added.iter().map(|&e| w.get(e)).sum();
        for &e in &added {
            current.insert(e);
        }
        branch_k(g, w, k, targets, current, cost + extra, best, best_cost);
        for &e in &added {
            current.remove(e);
        }
    }
}

/// All simple paths of length at most `k` between `u` and `v`, as edge
/// id lists.
pub(crate) fn paths_up_to(g: &Graph, u: VertexId, v: VertexId, k: usize) -> Vec<Vec<EdgeId>> {
    let mut out = Vec::new();
    let mut stack_edges: Vec<EdgeId> = Vec::new();
    let mut visited = vec![false; g.num_vertices()];
    visited[u] = true;
    dfs_paths(g, u, v, k, &mut visited, &mut stack_edges, &mut out);
    out
}

fn dfs_paths(
    g: &Graph,
    at: VertexId,
    target: VertexId,
    budget: usize,
    visited: &mut [bool],
    stack_edges: &mut Vec<EdgeId>,
    out: &mut Vec<Vec<EdgeId>>,
) {
    if at == target && !stack_edges.is_empty() {
        out.push(stack_edges.clone());
        return;
    }
    if budget == 0 {
        return;
    }
    for (x, e) in g.neighbors(at) {
        if visited[x] && x != target {
            continue;
        }
        if x == target {
            stack_edges.push(e);
            out.push(stack_edges.clone());
            stack_edges.pop();
            continue;
        }
        visited[x] = true;
        stack_edges.push(e);
        dfs_paths(g, x, target, budget - 1, visited, stack_edges, out);
        stack_edges.pop();
        visited[x] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{is_k_spanner, spanner_cost};
    use dsa_graphs::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn greedy_matches_structure_on_complete_graph() {
        let g = gen::complete(8);
        let h = greedy_2_spanner(&g);
        assert!(is_k_spanner(&g, &h, 2));
        // The densest star is a full star (density (n-1)(n-2)/2 / (n-1));
        // greedy should land near star size.
        assert!(h.len() <= 2 * (g.num_vertices() - 1), "got {}", h.len());
    }

    #[test]
    fn exact_on_complete_graph_is_a_star() {
        let g = gen::complete(5);
        let h = exact_min_2_spanner(&g);
        assert!(is_k_spanner(&g, &h, 2));
        assert_eq!(h.len(), 4, "K5's minimum 2-spanner is a spanning star");
    }

    #[test]
    fn exact_on_path_is_whole_graph() {
        let g = gen::path(6);
        let h = exact_min_2_spanner(&g);
        assert_eq!(h.len(), g.num_edges());
    }

    #[test]
    fn exact_is_lower_bound_for_greedy_and_distributed() {
        let mut rng = StdRng::seed_from_u64(21);
        for seed in 0..4u64 {
            let g = gen::gnp_connected(9, 0.4, &mut rng);
            let opt = exact_min_2_spanner(&g);
            let greedy = greedy_2_spanner(&g);
            let dist = crate::dist::min_2_spanner(&g, &crate::dist::EngineConfig::seeded(seed));
            assert!(is_k_spanner(&g, &opt, 2));
            assert!(is_k_spanner(&g, &greedy, 2));
            assert!(opt.len() <= greedy.len());
            assert!(opt.len() <= dist.spanner.len());
        }
    }

    #[test]
    fn weighted_exact_prefers_cheap_cover() {
        // Triangle: edge 0-2 has huge weight but can be covered by the
        // two cheap edges.
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let w = EdgeWeights::from_vec(vec![1, 1, 100]);
        let (h, cost) = exact_min_2_spanner_weighted(&g, &w);
        assert_eq!(cost, 2);
        assert!(!h.contains(2));
        assert!(is_k_spanner(&g, &h, 2));
    }

    #[test]
    fn weighted_greedy_valid_and_bounded() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::gnp_connected(12, 0.35, &mut rng);
        let w = gen::random_weights(g.num_edges(), 1, 9, &mut rng);
        let h = greedy_2_spanner_weighted(&g, &w);
        assert!(is_k_spanner(&g, &h, 2));
        let (_, opt_cost) = exact_min_2_spanner_weighted(&g, &w);
        let cost = spanner_cost(&h, &w);
        assert!(cost >= opt_cost);
        // log Δ style ratio on a 12-vertex graph stays small.
        assert!(cost <= 8 * opt_cost, "cost {cost} vs opt {opt_cost}");
    }

    #[test]
    fn exact_k_spanner_monotone_in_k() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = gen::gnp_connected(8, 0.35, &mut rng);
        let h2 = exact_min_k_spanner(&g, 2);
        let h3 = exact_min_k_spanner(&g, 3);
        let h4 = exact_min_k_spanner(&g, 4);
        assert!(is_k_spanner(&g, &h2, 2));
        assert!(is_k_spanner(&g, &h3, 3));
        assert!(is_k_spanner(&g, &h4, 4));
        assert!(h3.len() <= h2.len());
        assert!(h4.len() <= h3.len());
    }

    #[test]
    fn greedy_directed_valid_and_sparse_on_bidirected_complete() {
        let g = DiGraph::from_edges(
            8,
            (0..8).flat_map(|u| (0..8).filter(move |&v| v != u).map(move |v| (u, v))),
        );
        let h = greedy_2_spanner_directed(&g);
        assert!(crate::verify::is_k_spanner_directed(&g, &h, 2));
        assert!(h.len() < g.num_edges() / 2, "got {}", h.len());
    }

    #[test]
    fn greedy_client_server_valid() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = gen::gnp_connected(20, 0.3, &mut rng);
        let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
        let h = greedy_2_spanner_client_server(&g, &clients, &servers);
        assert!(h.is_subset_of(&servers));
        assert!(crate::verify::is_client_server_2_spanner(
            &g, &clients, &servers, &h
        ));
    }

    #[test]
    fn paths_enumeration_counts() {
        let g = gen::complete(4);
        // Paths of length <= 2 from 0 to 1: direct, via 2, via 3.
        let paths = paths_up_to(&g, 0, 1, 2);
        assert_eq!(paths.len(), 3);
        // Length <= 3 adds 0-2-3-1 and 0-3-2-1.
        let paths3 = paths_up_to(&g, 0, 1, 3);
        assert_eq!(paths3.len(), 5);
    }
}
