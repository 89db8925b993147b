//! The distributed minimum 2-spanner approximations of Section 4
//! (Theorems 1.3, 4.9, 4.12, 4.15), run through the centrally
//! scheduled, variant-generic [`engine`].
//!
//! Layering:
//!
//! * [`engine`] holds the iteration skeleton ([`run_engine`]) and the
//!   [`engine::SpannerVariant`] abstraction — per-vertex star spaces,
//!   densest-star choice via `dsa-flow`, density-threshold rounds, and
//!   the Claim-4.4 shrink-only re-choice;
//! * this module implements the four paper variants on top of it —
//!   [`UndirectedTwoSpanner`], [`DirectedTwoSpanner`],
//!   [`WeightedTwoSpanner`], [`ClientServerTwoSpanner`] — and exposes
//!   the one-call entry points [`min_2_spanner`],
//!   [`min_2_spanner_directed`], [`min_2_spanner_weighted`], and
//!   [`min_2_spanner_client_server`];
//! * [`variant`] packages one owned problem instance of any shape as a
//!   [`VariantInstance`] and dispatches through the single entry point
//!   [`run_variant`] — the API generic callers (`dsa-service`, load
//!   generators) use instead of matching on the four free functions;
//! * [`crate::seq`] reuses the same variants for the sequential greedy
//!   baselines, and [`crate::protocol`] executes the same iterations as
//!   a genuine message-passing LOCAL protocol.

pub mod engine;
pub mod variant;

pub use engine::{
    run_engine, run_engine_timed, EngineConfig, EngineTrace, IterationStats, IterationTiming,
    PhaseTimings, SectionTiming, SpannerRun, SpannerVariant,
};
pub use variant::{run_variant, run_variant_timed, VariantInstance, VariantKind};

use dsa_graphs::{DiGraph, EdgeId, EdgeSet, EdgeWeights, Graph, Ratio, VertexId};

use crate::star::{IdList, Leaf, LocalStars, Pair};
use crate::verify::coverable_clients;

/// Whether `h` contains a 2-path between the endpoints of edge `e`
/// of `g` (coverage without using `e` itself is not required: callers
/// check direct membership separately when it matters). A two-pointer
/// merge over the sorted CSR neighbor slices of both endpoints — each
/// common neighbor yields both hop edge ids with no per-pair lookup.
fn two_path_in(g: &Graph, h: &EdgeSet, u: VertexId, v: VertexId) -> bool {
    let (un, ue) = g.sorted_neighbor_slices(u);
    let (vn, ve) = g.sorted_neighbor_slices(v);
    let (mut p, mut q) = (0, 0);
    while p < un.len() && q < vn.len() {
        match un[p].cmp(&vn[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                if h.contains(ue[p]) && h.contains(ve[q]) {
                    return true;
                }
                p += 1;
                q += 1;
            }
        }
    }
    false
}

/// Calls `on_match(p, q)` for every position pair with
/// `xs[p] == ys[q]`, by a two-pointer merge. Both slices must be
/// sorted ascending with distinct elements (CSR sorted slices are).
fn merge_common(xs: &[VertexId], ys: &[VertexId], mut on_match: impl FnMut(usize, usize)) {
    let (mut p, mut q) = (0, 0);
    while p < xs.len() && q < ys.len() {
        match xs[p].cmp(&ys[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                on_match(p, q);
                p += 1;
                q += 1;
            }
        }
    }
}

/// Whether `h` contains a directed 2-path `u -> x -> v`: a merge of
/// `u`'s sorted out-slice with `v`'s sorted in-slice — common vertices
/// are exactly the candidate midpoints, with both hop edge ids at hand.
fn directed_two_path_in(g: &DiGraph, h: &EdgeSet, u: VertexId, v: VertexId) -> bool {
    let (un, ue) = g.sorted_out_neighbor_slices(u);
    let (vn, ve) = g.sorted_in_neighbor_slices(v);
    let mut found = false;
    merge_common(un, vn, |p, q| {
        found |= h.contains(ue[p]) && h.contains(ve[q]);
    });
    found
}

/// The edges of `g` covered by `h` within stretch 2 — the shared
/// `covered` implementation of the undirected variants (weights don't
/// change what covers what, only the densities).
fn undirected_covered(g: &Graph, h: &EdgeSet) -> EdgeSet {
    let mut out = EdgeSet::new(g.num_edges());
    for (e, u, v) in g.edges() {
        if h.contains(e) || two_path_in(g, h, u, v) {
            out.insert(e);
        }
    }
    out
}

/// The incremental counterpart of [`undirected_covered`]: the items
/// `h` covers *because of* `new_edges` (which are already in `h`) —
/// each new edge directly, plus every 2-path it completes. `O(deg)`
/// per new edge instead of a full `O(Σ deg²)` recompute.
///
/// Shared by the undirected, weighted, and client-server variants: the
/// reported set may include non-target items (client-server), which
/// the engine's target-only subtraction ignores, and for client-server
/// every edge the engine puts in `h` is a server edge, so any 2-path
/// found in `h` is automatically a server 2-path.
fn undirected_covered_delta(g: &Graph, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
    for &e in new_edges {
        out.insert(e);
        let (a, b) = g.endpoints(e);
        // `e` as one hop of a 2-path endpoint–other–x, covering the
        // item {endpoint, x}. Both orientations of `e` are tried; the
        // second hop {other, x} must already be in `h` (which includes
        // the other edges of this batch). Each covered item {endpoint,
        // x} requires x adjacent to both endpoints, so a merge over
        // the two sorted neighbor slices finds every item and both its
        // edge ids in one linear pass.
        for (endpoint, other) in [(a, b), (b, a)] {
            let (on, oe) = g.sorted_neighbor_slices(other);
            let (en, ee) = g.sorted_neighbor_slices(endpoint);
            let (mut p, mut q) = (0, 0);
            while p < on.len() && q < en.len() {
                match on[p].cmp(&en[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        if h.contains(oe[p]) {
                            out.insert(ee[q]);
                        }
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Theorem 1.3: undirected, unweighted.
// ---------------------------------------------------------------------

/// The undirected minimum 2-spanner variant (Theorem 1.3): items are
/// the graph's edges, a star leaf contributes one edge of weight 1, and
/// the round threshold is density 1.
pub struct UndirectedTwoSpanner<'a> {
    g: &'a Graph,
}

impl<'a> UndirectedTwoSpanner<'a> {
    /// Wraps `g` as an engine variant. Neighbor lists come straight
    /// from the graph's sorted CSR slices — nothing to precompute.
    pub fn new(g: &'a Graph) -> Self {
        UndirectedTwoSpanner { g }
    }
}

impl SpannerVariant for UndirectedTwoSpanner<'_> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn num_items(&self) -> usize {
        self.g.num_edges()
    }

    fn targets(&self) -> EdgeSet {
        EdgeSet::full(self.g.num_edges())
    }

    fn preselected(&self) -> EdgeSet {
        EdgeSet::new(self.g.num_edges())
    }

    fn covered(&self, h: &EdgeSet) -> EdgeSet {
        undirected_covered(self.g, h)
    }

    fn covered_delta(&self, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
        undirected_covered_delta(self.g, h, new_edges, out);
    }

    fn local_stars(&self, v: VertexId, uncovered: &EdgeSet) -> LocalStars {
        let (nbrs, eids) = self.g.sorted_neighbor_slices(v);
        unit_leaf_local_stars(self.g, nbrs, eids, |_| 1, |e| uncovered.contains(e))
    }

    fn force_cover(&self, item: usize) -> Vec<EdgeId> {
        vec![item]
    }

    fn comm_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.g.sorted_neighbor_slices(v).0
    }

    fn threshold(&self) -> Ratio {
        Ratio::one()
    }
}

/// Shared [`LocalStars`] construction for the variants whose leaves are
/// the (possibly filtered) neighbors of `v` with a single undirected
/// edge each: leaf weights come from `weight_of`, and a leaf pair
/// `{a, b}` spans the edge `{a, b}` when `is_item` accepts it.
///
/// `leaf_nbrs` must be sorted ascending with `leaf_eids[i]` the id of
/// the center–`leaf_nbrs[i]` edge (the graph's sorted CSR slices, or a
/// filtered copy of them). Pairs are found by merging each leaf's
/// sorted neighbor slice against the remaining leaves — a two-pointer
/// pass per leaf instead of a binary-search `edge_id` per leaf *pair*,
/// and the merge yields the spanned edge id directly.
fn unit_leaf_local_stars(
    g: &Graph,
    leaf_nbrs: &[VertexId],
    leaf_eids: &[EdgeId],
    weight_of: impl Fn(EdgeId) -> u64,
    is_item: impl Fn(EdgeId) -> bool,
) -> LocalStars {
    let leaves: Vec<Leaf> = leaf_nbrs
        .iter()
        .zip(leaf_eids)
        .map(|(&u, &e)| Leaf {
            vertex: u,
            weight: weight_of(e),
            edges: IdList::one(e),
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..leaf_nbrs.len() {
        let (an, ae) = g.sorted_neighbor_slices(leaf_nbrs[i]);
        let (mut p, mut q) = (0, i + 1);
        while p < an.len() && q < leaf_nbrs.len() {
            match an[p].cmp(&leaf_nbrs[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    let e = ae[p];
                    if is_item(e) {
                        pairs.push(Pair {
                            a: i,
                            b: q,
                            items: IdList::one(e),
                        });
                    }
                    p += 1;
                    q += 1;
                }
            }
        }
    }
    LocalStars { leaves, pairs }
}

// ---------------------------------------------------------------------
// Theorem 4.12: weighted.
// ---------------------------------------------------------------------

/// The weighted minimum 2-spanner variant (Theorem 4.12): densities are
/// `|C_S| / w(S)`, weight-0 edges are pre-adopted, and the round
/// threshold is the largest power of two at most `1 / w_max`.
pub struct WeightedTwoSpanner<'a> {
    g: &'a Graph,
    w: &'a EdgeWeights,
    threshold: Ratio,
}

impl<'a> WeightedTwoSpanner<'a> {
    /// Wraps `g` with weights `w` as an engine variant.
    ///
    /// # Panics
    ///
    /// Panics if the weights don't match the graph.
    pub fn new(g: &'a Graph, w: &'a EdgeWeights) -> Self {
        assert_eq!(w.len(), g.num_edges(), "weights must match edges");
        WeightedTwoSpanner {
            g,
            w,
            // The protocol computes the same threshold from its
            // 2-neighborhood w_max aggregate; here it is global.
            threshold: crate::star::weight_threshold(w.max()),
        }
    }
}

impl SpannerVariant for WeightedTwoSpanner<'_> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn num_items(&self) -> usize {
        self.g.num_edges()
    }

    fn targets(&self) -> EdgeSet {
        EdgeSet::full(self.g.num_edges())
    }

    fn preselected(&self) -> EdgeSet {
        let mut h = EdgeSet::new(self.g.num_edges());
        for (e, weight) in self.w.iter() {
            if weight == 0 {
                h.insert(e);
            }
        }
        h
    }

    fn covered(&self, h: &EdgeSet) -> EdgeSet {
        undirected_covered(self.g, h)
    }

    fn covered_delta(&self, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
        undirected_covered_delta(self.g, h, new_edges, out);
    }

    fn local_stars(&self, v: VertexId, uncovered: &EdgeSet) -> LocalStars {
        let (nbrs, eids) = self.g.sorted_neighbor_slices(v);
        unit_leaf_local_stars(
            self.g,
            nbrs,
            eids,
            |e| self.w.get(e),
            |e| uncovered.contains(e),
        )
    }

    fn force_cover(&self, item: usize) -> Vec<EdgeId> {
        vec![item]
    }

    fn comm_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.g.sorted_neighbor_slices(v).0
    }

    fn threshold(&self) -> Ratio {
        self.threshold
    }
}

// ---------------------------------------------------------------------
// Theorem 4.9: directed.
// ---------------------------------------------------------------------

/// The directed minimum 2-spanner variant (Theorem 4.9): items are the
/// directed edges, a star leaf contributes the (up to two) directed
/// edges between the center and the leaf, densities are the Section
/// 4.3.1 proxies, and the star choice uses the `ρ̃/8` threshold.
pub struct DirectedTwoSpanner<'a> {
    g: &'a DiGraph,
    /// The underlying undirected communication graph; its sorted CSR
    /// slices are the per-vertex neighbor lists.
    underlying: Graph,
}

impl<'a> DirectedTwoSpanner<'a> {
    /// Wraps `g` as an engine variant. The communication graph is the
    /// underlying undirected graph, as Section 1.5 prescribes.
    pub fn new(g: &'a DiGraph) -> Self {
        let (underlying, _) = g.underlying();
        DirectedTwoSpanner { g, underlying }
    }
}

impl SpannerVariant for DirectedTwoSpanner<'_> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn num_items(&self) -> usize {
        self.g.num_edges()
    }

    fn targets(&self) -> EdgeSet {
        EdgeSet::full(self.g.num_edges())
    }

    fn preselected(&self) -> EdgeSet {
        EdgeSet::new(self.g.num_edges())
    }

    fn covered(&self, h: &EdgeSet) -> EdgeSet {
        let mut out = EdgeSet::new(self.g.num_edges());
        for (e, u, v) in self.g.edges() {
            if h.contains(e) || directed_two_path_in(self.g, h, u, v) {
                out.insert(e);
            }
        }
        out
    }

    fn covered_delta(&self, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
        for &e in new_edges {
            out.insert(e);
            // `e` is the directed edge a -> b.
            let (a, b) = self.g.endpoints(e);
            // `e` as first hop: a -> b -> x covers the item a -> x;
            // such x are common heads of a and b, so one merge over the
            // two sorted out-slices finds every item and both hop ids.
            let (bn, be) = self.g.sorted_out_neighbor_slices(b);
            let (an, ae) = self.g.sorted_out_neighbor_slices(a);
            merge_common(bn, an, |p, q| {
                if h.contains(be[p]) {
                    out.insert(ae[q]);
                }
            });
            // `e` as second hop: x -> a -> b covers the item x -> b;
            // such x are common tails of a and b.
            let (an, ae) = self.g.sorted_in_neighbor_slices(a);
            let (bn, be) = self.g.sorted_in_neighbor_slices(b);
            merge_common(an, bn, |p, q| {
                if h.contains(ae[p]) {
                    out.insert(be[q]);
                }
            });
        }
    }

    fn local_stars(&self, v: VertexId, uncovered: &EdgeSet) -> LocalStars {
        let nbrs = self.underlying.sorted_neighbor_slices(v).0;
        let k = nbrs.len();
        // The directed edges between `v` and each neighbor, found by
        // merging the center's sorted out-/in-slices against `nbrs`
        // (which contains every out- and in-neighbor of `v`).
        let mut vto: Vec<Option<EdgeId>> = vec![None; k]; // v -> nbrs[i]
        let mut inv: Vec<Option<EdgeId>> = vec![None; k]; // nbrs[i] -> v
        let (on, oe) = self.g.sorted_out_neighbor_slices(v);
        merge_common(on, nbrs, |p, q| vto[q] = Some(oe[p]));
        let (inn, ie) = self.g.sorted_in_neighbor_slices(v);
        merge_common(inn, nbrs, |p, q| inv[q] = Some(ie[p]));
        let leaves: Vec<Leaf> = (0..k)
            .map(|i| {
                // Center-out edge first, then leaf-out, as edge_id
                // lookups in that order used to produce.
                let edges: IdList = vto[i].into_iter().chain(inv[i]).collect();
                Leaf {
                    vertex: nbrs[i],
                    weight: edges.len() as u64,
                    edges,
                }
            })
            .collect();
        let mut pairs = Vec::new();
        for i in 0..k {
            let a = nbrs[i];
            // For each later leaf b: the pair spans a -> b (needs
            // a -> v -> b plus the edge) and/or b -> a (needs
            // b -> v -> a plus the edge). Walk a's sorted out- and
            // in-slices in step with the ascending tail `nbrs[i+1..]`.
            let (aon, aoe) = self.g.sorted_out_neighbor_slices(a);
            let (ain, aie) = self.g.sorted_in_neighbor_slices(a);
            let (mut p, mut r) = (0, 0);
            for j in (i + 1)..k {
                let b = nbrs[j];
                while p < aon.len() && aon[p] < b {
                    p += 1;
                }
                while r < ain.len() && ain[r] < b {
                    r += 1;
                }
                let mut items = IdList::new();
                // a -> v -> b spans the directed edge (a, b).
                if inv[i].is_some() && vto[j].is_some() && p < aon.len() && aon[p] == b {
                    let e = aoe[p];
                    if uncovered.contains(e) {
                        items.push(e);
                    }
                }
                // b -> v -> a spans the directed edge (b, a).
                if inv[j].is_some() && vto[i].is_some() && r < ain.len() && ain[r] == b {
                    let e = aie[r];
                    if uncovered.contains(e) {
                        items.push(e);
                    }
                }
                if !items.is_empty() {
                    pairs.push(Pair { a: i, b: j, items });
                }
            }
        }
        LocalStars { leaves, pairs }
    }

    fn force_cover(&self, item: usize) -> Vec<EdgeId> {
        vec![item]
    }

    fn comm_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.underlying.sorted_neighbor_slices(v).0
    }

    fn threshold(&self) -> Ratio {
        Ratio::one()
    }

    fn choice_exponent_offset(&self) -> i32 {
        3
    }
}

// ---------------------------------------------------------------------
// Theorem 4.15: client-server.
// ---------------------------------------------------------------------

/// The client-server minimum 2-spanner variant (Theorem 4.15): only
/// *coverable* client edges need covering, stars use server edges only,
/// the round threshold is 1/2, and termination is strict.
pub struct ClientServerTwoSpanner<'a> {
    g: &'a Graph,
    servers: &'a EdgeSet,
    /// The server-edge sub-adjacency in flat CSR form, filtered from
    /// the graph's sorted slices (so each per-vertex slice is sorted):
    /// `server_offsets[v]..server_offsets[v + 1]` slices the arrays.
    server_offsets: Vec<usize>,
    server_nbrs: Vec<VertexId>,
    server_eids: Vec<EdgeId>,
    targets: EdgeSet,
}

impl<'a> ClientServerTwoSpanner<'a> {
    /// Wraps `g` with the given client/server edge labeling as an
    /// engine variant. Client edges no server star can ever cover are
    /// excluded from the targets, as Section 4.3.3 prescribes.
    ///
    /// # Panics
    ///
    /// Panics if the label universes don't match the graph.
    pub fn new(g: &'a Graph, clients: &'a EdgeSet, servers: &'a EdgeSet) -> Self {
        assert_eq!(clients.universe(), g.num_edges(), "client set mismatch");
        assert_eq!(servers.universe(), g.num_edges(), "server set mismatch");
        let mut server_offsets = Vec::with_capacity(g.num_vertices() + 1);
        let mut server_nbrs = Vec::new();
        let mut server_eids = Vec::new();
        server_offsets.push(0);
        for v in 0..g.num_vertices() {
            let (nbrs, eids) = g.sorted_neighbor_slices(v);
            for (&u, &e) in nbrs.iter().zip(eids) {
                if servers.contains(e) {
                    server_nbrs.push(u);
                    server_eids.push(e);
                }
            }
            server_offsets.push(server_nbrs.len());
        }
        ClientServerTwoSpanner {
            g,
            servers,
            server_offsets,
            server_nbrs,
            server_eids,
            targets: coverable_clients(g, clients, servers),
        }
    }

    /// The sorted `(server neighbors, edge ids)` slices of `v`.
    fn server_slices(&self, v: VertexId) -> (&[VertexId], &[EdgeId]) {
        let lo = self.server_offsets[v];
        let hi = self.server_offsets[v + 1];
        (&self.server_nbrs[lo..hi], &self.server_eids[lo..hi])
    }
}

impl SpannerVariant for ClientServerTwoSpanner<'_> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn num_items(&self) -> usize {
        self.g.num_edges()
    }

    fn targets(&self) -> EdgeSet {
        self.targets.clone()
    }

    fn preselected(&self) -> EdgeSet {
        EdgeSet::new(self.g.num_edges())
    }

    fn covered(&self, h: &EdgeSet) -> EdgeSet {
        let mut out = EdgeSet::new(self.g.num_edges());
        for e in self.targets.iter() {
            let (u, v) = self.g.endpoints(e);
            if h.contains(e) || two_path_in(self.g, h, u, v) {
                out.insert(e);
            }
        }
        out
    }

    fn covered_delta(&self, h: &EdgeSet, new_edges: &[EdgeId], out: &mut EdgeSet) {
        // May report non-target items; the engine subtracts the delta
        // from a target-only set, so they are ignored.
        undirected_covered_delta(self.g, h, new_edges, out);
    }

    fn local_stars(&self, v: VertexId, uncovered: &EdgeSet) -> LocalStars {
        // Leaves are the server neighbors; items are uncovered
        // (coverable) client edges between them.
        let (nbrs, eids) = self.server_slices(v);
        unit_leaf_local_stars(self.g, nbrs, eids, |_| 1, |e| uncovered.contains(e))
    }

    fn force_cover(&self, item: usize) -> Vec<EdgeId> {
        if self.servers.contains(item) {
            return vec![item];
        }
        // A coverable non-server client edge has a server 2-path.
        let (u, v) = self.g.endpoints(item);
        for (x, eux) in self.g.neighbors(u) {
            if x == v || !self.servers.contains(eux) {
                continue;
            }
            if let Some(exv) = self.g.edge_id(x, v) {
                if self.servers.contains(exv) {
                    return vec![eux, exv];
                }
            }
        }
        Vec::new()
    }

    fn comm_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.g.sorted_neighbor_slices(v).0
    }

    fn threshold(&self) -> Ratio {
        Ratio::new(1, 2)
    }

    fn strict_termination(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// The distributed minimum 2-spanner approximation of Theorem 1.3:
/// `O(log m/n)` expected ratio in `O(log n · log Δ)` rounds.
///
/// # Example
///
/// ```
/// use dsa_core::dist::{min_2_spanner, EngineConfig};
/// use dsa_core::verify::is_k_spanner;
/// use dsa_graphs::gen::complete;
///
/// let g = complete(9);
/// let run = min_2_spanner(&g, &EngineConfig::seeded(3));
/// assert!(run.converged);
/// assert!(is_k_spanner(&g, &run.spanner, 2));
/// assert!(run.spanner.len() < g.num_edges());
/// ```
pub fn min_2_spanner(g: &Graph, cfg: &EngineConfig) -> SpannerRun {
    run_engine(&UndirectedTwoSpanner::new(g), cfg)
}

/// The directed variant (Theorem 4.9), with the Section 4.3.1 proxy
/// densities and the `ρ̃/8` star-choice threshold.
///
/// # Example
///
/// ```
/// use dsa_core::dist::{min_2_spanner_directed, EngineConfig};
/// use dsa_core::verify::is_k_spanner_directed;
/// use dsa_graphs::DiGraph;
///
/// let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
/// let run = min_2_spanner_directed(&g, &EngineConfig::seeded(1));
/// assert!(run.converged);
/// assert!(is_k_spanner_directed(&g, &run.spanner, 2));
/// ```
pub fn min_2_spanner_directed(g: &DiGraph, cfg: &EngineConfig) -> SpannerRun {
    run_engine(&DirectedTwoSpanner::new(g), cfg)
}

/// The weighted variant (Theorem 4.12): `O(log Δ)` expected cost ratio;
/// weight-0 edges are pre-adopted.
///
/// # Panics
///
/// Panics if the weights don't match the graph.
///
/// # Example
///
/// ```
/// use dsa_core::dist::{min_2_spanner_weighted, EngineConfig};
/// use dsa_core::verify::is_k_spanner;
/// use dsa_graphs::{gen, EdgeWeights};
///
/// let g = gen::complete(7);
/// let w = EdgeWeights::from_fn(g.num_edges(), |e| (e % 4) as u64);
/// let run = min_2_spanner_weighted(&g, &w, &EngineConfig::seeded(5));
/// assert!(run.converged);
/// assert!(is_k_spanner(&g, &run.spanner, 2));
/// ```
pub fn min_2_spanner_weighted(g: &Graph, w: &EdgeWeights, cfg: &EngineConfig) -> SpannerRun {
    run_engine(&WeightedTwoSpanner::new(g, w), cfg)
}

/// The client-server variant (Theorem 4.15): covers every coverable
/// client edge using server edges only.
///
/// # Panics
///
/// Panics if the label universes don't match the graph.
///
/// # Example
///
/// ```
/// use dsa_core::dist::{min_2_spanner_client_server, EngineConfig};
/// use dsa_core::verify::is_client_server_2_spanner;
/// use dsa_graphs::{gen, EdgeSet};
///
/// let g = gen::complete(8);
/// let clients = EdgeSet::full(g.num_edges());
/// let servers = EdgeSet::full(g.num_edges());
/// let run = min_2_spanner_client_server(&g, &clients, &servers, &EngineConfig::seeded(2));
/// assert!(run.converged);
/// assert!(is_client_server_2_spanner(&g, &clients, &servers, &run.spanner));
/// ```
pub fn min_2_spanner_client_server(
    g: &Graph,
    clients: &EdgeSet,
    servers: &EdgeSet,
    cfg: &EngineConfig,
) -> SpannerRun {
    run_engine(&ClientServerTwoSpanner::new(g, clients, servers), cfg)
}

// ---------------------------------------------------------------------
// Incremental maintenance (named long-lived graphs).
// ---------------------------------------------------------------------

/// Classification of a batch of newly inserted items against a
/// maintained cover, produced by [`plan_insertions`]: an item either
/// *commutes* with the cover (it is already covered within stretch 2,
/// or is not a target at all, so no spanner work is needed) or it is
/// genuinely uncovered and needs a local repair or a recompute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintenancePlan {
    /// Inserted items already covered by the cover (or non-targets):
    /// the insertion commutes — the cover is still a valid 2-spanner.
    pub commuted: Vec<usize>,
    /// Inserted target items the cover does not reach within stretch 2.
    pub uncovered: Vec<usize>,
}

/// Classifies newly inserted items of `variant` against `cover`:
/// coverage is monotone under insertion, so every item of the old
/// graph stays covered and only the `new_items` need checking. Items
/// that are covered (or are not targets, e.g. an uncoverable
/// client-server client edge) land in
/// [`MaintenancePlan::commuted`]; the rest in
/// [`MaintenancePlan::uncovered`].
///
/// `variant` must be built over the *post-insertion* graph, with
/// `cover` re-indexed into its edge universe.
pub fn plan_insertions<V: SpannerVariant>(
    variant: &V,
    cover: &EdgeSet,
    new_items: &[usize],
) -> MaintenancePlan {
    let targets = variant.targets();
    let covered = variant.covered(cover);
    let mut plan = MaintenancePlan::default();
    for &item in new_items {
        if !targets.contains(item) || covered.contains(item) {
            plan.commuted.push(item);
        } else {
            plan.uncovered.push(item);
        }
    }
    plan
}

/// Repairs `cover` locally so that every item in `uncovered` becomes
/// covered, by self-adding each item's [`SpannerVariant::force_cover`]
/// edges — the same step-7 move the engine's termination pass uses, an
/// `O(deg)` repair instead of a full re-solve. Returns the edge ids
/// actually added (the caller's repair debt).
///
/// The incremental-coverage contract is honored for bookkeeping:
/// after the additions, [`SpannerVariant::covered_delta`] is consulted
/// in debug builds to assert every repaired item really is covered.
pub fn repair_cover<V: SpannerVariant>(
    variant: &V,
    cover: &mut EdgeSet,
    uncovered: &[usize],
) -> Vec<EdgeId> {
    let mut covered = variant.covered(cover);
    let mut added = Vec::new();
    let mut batch = Vec::new();
    for &item in uncovered {
        if covered.contains(item) {
            // An earlier repair in this batch already covered it.
            continue;
        }
        batch.clear();
        for e in variant.force_cover(item) {
            if cover.insert(e) {
                batch.push(e);
            }
        }
        // Incremental bookkeeping: only the items the new edges cover
        // change, exactly as in the engine's iteration loop.
        variant.covered_delta(cover, &batch, &mut covered);
        debug_assert!(covered.contains(item), "repair left {item} uncovered");
        added.extend_from_slice(&batch);
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{
        is_client_server_2_spanner, is_k_spanner, is_k_spanner_directed, spanner_cost,
    };
    use dsa_graphs::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_collapses_to_near_star() {
        let g = gen::complete(10);
        let run = min_2_spanner(&g, &EngineConfig::seeded(1));
        assert!(run.converged);
        assert!(is_k_spanner(&g, &run.spanner, 2));
        // The densest star is the full star; a handful of accepted
        // stars must suffice.
        assert!(run.spanner.len() <= 3 * (g.num_vertices() - 1));
        assert_eq!(run.iterations, run.stats.len() as u64);
    }

    #[test]
    fn path_terminates_by_self_addition() {
        let g = gen::path(8);
        let run = min_2_spanner(&g, &EngineConfig::seeded(0));
        assert!(run.converged);
        // No 2-paths exist: one termination iteration self-adds all.
        assert_eq!(run.iterations, 1);
        assert_eq!(run.spanner.len(), g.num_edges());
        assert_eq!(run.stats[0].candidates, 0);
    }

    #[test]
    fn bipartite_worst_case_needs_every_edge() {
        let g = gen::complete_bipartite(5, 5);
        let run = min_2_spanner(&g, &EngineConfig::seeded(4));
        assert!(run.converged);
        // No edge of K_{a,b} is 2-spannable by others.
        assert_eq!(run.spanner.len(), g.num_edges());
    }

    #[test]
    fn weighted_pre_adopts_free_edges_and_verifies() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::gnp_connected(24, 0.3, &mut rng);
        let w = gen::random_weights(g.num_edges(), 0, 6, &mut rng);
        let run = min_2_spanner_weighted(&g, &w, &EngineConfig::seeded(7));
        assert!(run.converged);
        assert!(is_k_spanner(&g, &run.spanner, 2));
        for (e, weight) in w.iter() {
            if weight == 0 {
                assert!(run.spanner.contains(e), "free edge {e} missing");
            }
        }
        assert!(spanner_cost(&run.spanner, &w) <= w.total());
    }

    #[test]
    fn directed_engine_handles_antiparallel_pairs() {
        let mut g = DiGraph::new(8);
        for u in 0..8 {
            for v in 0..8 {
                if u != v {
                    g.add_edge(u, v);
                }
            }
        }
        let run = min_2_spanner_directed(&g, &EngineConfig::seeded(2));
        assert!(run.converged);
        assert!(is_k_spanner_directed(&g, &run.spanner, 2));
        assert!(run.spanner.len() < g.num_edges());
    }

    #[test]
    fn directed_random_instances_verify() {
        let mut rng = StdRng::seed_from_u64(13);
        for seed in 0..3u64 {
            let g = gen::random_digraph_connected(20, 0.12, &mut rng);
            let run = min_2_spanner_directed(&g, &EngineConfig::seeded(seed));
            assert!(run.converged, "seed {seed}");
            assert!(is_k_spanner_directed(&g, &run.spanner, 2), "seed {seed}");
        }
    }

    #[test]
    fn client_server_stays_within_servers() {
        let mut rng = StdRng::seed_from_u64(17);
        for seed in 0..3u64 {
            let g = gen::gnp_connected(25, 0.25, &mut rng);
            let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
            let run =
                min_2_spanner_client_server(&g, &clients, &servers, &EngineConfig::seeded(seed));
            assert!(run.converged, "seed {seed}");
            assert!(run.spanner.is_subset_of(&servers), "seed {seed}");
            assert!(
                is_client_server_2_spanner(&g, &clients, &servers, &run.spanner),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn client_server_skips_uncoverable_clients() {
        // Triangle plus a pendant client edge no server can cover.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]);
        let e03 = g.edge_id(0, 3).unwrap();
        let clients = EdgeSet::full(g.num_edges());
        let mut servers = EdgeSet::full(g.num_edges());
        servers.remove(e03);
        let run = min_2_spanner_client_server(&g, &clients, &servers, &EngineConfig::seeded(0));
        assert!(run.converged);
        assert!(!run.spanner.contains(e03));
        assert!(is_client_server_2_spanner(
            &g,
            &clients,
            &servers,
            &run.spanner
        ));
    }

    #[test]
    fn ablated_configs_stay_correct() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::gnp_connected(22, 0.3, &mut rng);
        for cfg in [
            EngineConfig {
                monotone_stars: false,
                ..EngineConfig::seeded(1)
            },
            EngineConfig {
                round_densities: false,
                ..EngineConfig::seeded(2)
            },
            EngineConfig {
                accept_denominator: 1,
                ..EngineConfig::seeded(3)
            },
            EngineConfig {
                accept_denominator: 64,
                ..EngineConfig::seeded(4)
            },
        ] {
            let run = run_engine(&UndirectedTwoSpanner::new(&g), &cfg);
            assert!(run.converged, "{cfg:?}");
            assert!(is_k_spanner(&g, &run.spanner, 2), "{cfg:?}");
        }
    }

    #[test]
    fn stats_track_progress_monotonically() {
        // Strict decrease is guaranteed (not luck): the candidate with
        // the globally smallest permutation value wins the vote of
        // every item its star spans, so it always clears the |C_v|/8
        // acceptance bar and covers at least one item per iteration.
        let mut rng = StdRng::seed_from_u64(29);
        let g = gen::gnp_connected(30, 0.25, &mut rng);
        let run = min_2_spanner(&g, &EngineConfig::seeded(5));
        assert!(run.converged);
        for pair in run.stats.windows(2) {
            assert!(
                pair[1].uncovered < pair[0].uncovered,
                "no progress: {run:?}"
            );
        }
        assert_eq!(run.stats.last().unwrap().uncovered, 0);
    }

    #[test]
    fn timing_trace_never_changes_results() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::gnp_connected(28, 0.25, &mut rng);
        let base = min_2_spanner(&g, &EngineConfig::seeded(6));
        assert!(base.trace.is_none(), "trace must be opt-in");
        for shards in [1usize, 3] {
            let cfg = EngineConfig {
                collect_timings: true,
                num_shards: shards,
                ..EngineConfig::seeded(6)
            };
            let run = run_engine(&UndirectedTwoSpanner::new(&g), &cfg);
            assert_eq!(run.spanner, base.spanner, "shards={shards}");
            assert_eq!(run.stats, base.stats, "shards={shards}");
            assert_eq!(run.star_fallbacks, base.star_fallbacks);
            let trace = run.trace.expect("trace requested");
            assert_eq!(trace.iterations.len(), run.stats.len());
            for (timing, stats) in trace.iterations.iter().zip(&run.stats) {
                assert!(timing.step1.shards.len() <= shards.max(1) || shards == 0);
                assert!(!timing.step1.shards.is_empty());
                if stats.candidates == 0 && timing.step3.shards.is_empty() {
                    // Termination pass: only Step 1 + coverage ran.
                    assert!(timing.step4.shards.is_empty());
                }
            }
        }
    }

    #[test]
    fn weighted_survives_astronomical_weights() {
        // Regression: weights beyond 2^62 used to drive the threshold
        // exponent past pow2_ratio's range and panic, and each of
        // these weight profiles crashed a different layer (threshold
        // loop, rounded star-choice exponent, fallback weight sums).
        let triangle = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        // A unit-weight K4 joined by one unit edge to a triangle of
        // 2^63 edges: the heavy stars have densities below 2^-62,
        // whose rounded key used to overflow pow2_ratio.
        let mixed = Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (4, 6),
                (5, 6),
            ],
        );
        let heavy = 1u64 << 63;
        for (g, weights) in [
            (&triangle, vec![1, 1, (1u64 << 62) + 1]),
            (&triangle, vec![(1u64 << 61) + 2, 2, (1u64 << 61) + 2]),
            (&triangle, vec![1u64 << 63, 1u64 << 63, 1]),
            (&triangle, vec![u64::MAX, u64::MAX, u64::MAX]),
            (&mixed, vec![1, 1, 1, 1, 1, 1, 1, heavy, heavy, heavy]),
        ] {
            let g = g.clone();
            let w = EdgeWeights::from_vec(weights.clone());
            let run = min_2_spanner_weighted(&g, &w, &EngineConfig::seeded(0));
            assert!(run.converged, "{weights:?}");
            assert!(is_k_spanner(&g, &run.spanner, 2), "{weights:?}");
            // The exact-density ablation takes its own guarded path.
            let cfg = EngineConfig {
                round_densities: false,
                ..EngineConfig::seeded(1)
            };
            let run = run_engine(&WeightedTwoSpanner::new(&g, &w), &cfg);
            assert!(run.converged, "{weights:?}");
            assert!(is_k_spanner(&g, &run.spanner, 2), "{weights:?}");
            // The message-passing protocol shares the star machinery.
            let run = crate::protocol::run_weighted_two_spanner_protocol(&g, &w, 3, 10_000);
            assert!(run.completed, "{weights:?}");
            assert!(is_k_spanner(&g, &run.spanner, 2), "{weights:?}");
        }
    }

    /// Replays random edge-addition batches against `variant`,
    /// checking after every batch that the incremental
    /// `covered_delta` bookkeeping lands on exactly the from-scratch
    /// `targets − covered(h)` recompute — the invariant the engine's
    /// uncovered-set maintenance rests on.
    fn assert_delta_matches_recompute<V: SpannerVariant>(
        variant: &V,
        universe: usize,
        rng: &mut StdRng,
    ) {
        use rand::Rng;
        let targets = variant.targets();
        let mut h = variant.preselected();
        let mut uncovered = targets.clone();
        uncovered.subtract(&variant.covered(&h));
        let mut delta = EdgeSet::new(variant.num_items());
        while h.len() < universe {
            let mut new_edges = Vec::new();
            for _ in 0..rng.gen_range(1..=4) {
                let e = rng.gen_range(0..universe);
                if h.insert(e) {
                    new_edges.push(e);
                }
            }
            delta.clear();
            variant.covered_delta(&h, &new_edges, &mut delta);
            uncovered.subtract(&delta);
            let mut expect = targets.clone();
            expect.subtract(&variant.covered(&h));
            assert_eq!(uncovered, expect, "delta diverged after {new_edges:?}");
        }
        // The loop exits with every edge in `h`, so nothing can be
        // left uncovered.
        assert!(uncovered.is_empty());
    }

    #[test]
    fn covered_delta_matches_recompute_for_all_variants() {
        let mut rng = StdRng::seed_from_u64(37);
        for trial in 0..3u64 {
            let g = gen::gnp_connected(18 + 2 * trial as usize, 0.25, &mut rng);
            let m = g.num_edges();
            assert_delta_matches_recompute(&UndirectedTwoSpanner::new(&g), m, &mut rng);
            let w = gen::random_weights(m, 0, 5, &mut rng);
            assert_delta_matches_recompute(&WeightedTwoSpanner::new(&g, &w), m, &mut rng);
            let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
            assert_delta_matches_recompute(
                &ClientServerTwoSpanner::new(&g, &clients, &servers),
                m,
                &mut rng,
            );
            let d = gen::random_digraph_connected(16, 0.12, &mut rng);
            assert_delta_matches_recompute(&DirectedTwoSpanner::new(&d), d.num_edges(), &mut rng);
        }
    }

    /// A full engine spanner commutes with every item; an empty cover
    /// leaves exactly the targets uncovered, and a repair pass covers
    /// them all — for any variant.
    fn assert_maintenance_roundtrip<V: SpannerVariant + Sync>(variant: &V) {
        let run = run_engine(variant, &EngineConfig::seeded(3));
        assert!(run.converged);
        let all_items: Vec<usize> = (0..variant.num_items()).collect();
        let plan = plan_insertions(variant, &run.spanner, &all_items);
        assert!(
            plan.uncovered.is_empty(),
            "a converged spanner covers everything: {plan:?}"
        );
        assert_eq!(plan.commuted.len(), variant.num_items());

        let mut cover = variant.preselected();
        let plan = plan_insertions(variant, &cover, &all_items);
        let mut expect = variant.targets();
        expect.subtract(&variant.covered(&cover));
        assert_eq!(plan.uncovered.len(), expect.len());
        let added = repair_cover(variant, &mut cover, &plan.uncovered);
        assert!(!added.is_empty() || expect.is_empty());
        let covered = variant.covered(&cover);
        for item in variant.targets().iter() {
            assert!(covered.contains(item), "item {item} uncovered after repair");
        }
        // Idempotence: nothing is uncovered now, so a second plan
        // commutes fully and a second repair adds nothing.
        let plan = plan_insertions(variant, &cover, &all_items);
        assert!(plan.uncovered.is_empty());
        assert!(repair_cover(variant, &mut cover, &plan.uncovered).is_empty());
    }

    #[test]
    fn maintenance_plan_and_repair_all_variants() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = gen::gnp_connected(20, 0.25, &mut rng);
        assert_maintenance_roundtrip(&UndirectedTwoSpanner::new(&g));
        let w = gen::random_weights(g.num_edges(), 1, 5, &mut rng);
        assert_maintenance_roundtrip(&WeightedTwoSpanner::new(&g, &w));
        let (clients, servers) = gen::client_server_split(&g, 0.6, 0.6, &mut rng);
        assert_maintenance_roundtrip(&ClientServerTwoSpanner::new(&g, &clients, &servers));
        let d = gen::random_digraph_connected(16, 0.12, &mut rng);
        assert_maintenance_roundtrip(&DirectedTwoSpanner::new(&d));
    }

    #[test]
    fn engine_is_deterministic_per_seed() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::gnp_connected(26, 0.3, &mut rng);
        let a = min_2_spanner(&g, &EngineConfig::seeded(9));
        let b = min_2_spanner(&g, &EngineConfig::seeded(9));
        assert_eq!(a.spanner, b.spanner);
        assert_eq!(a.iterations, b.iterations);
    }
}
