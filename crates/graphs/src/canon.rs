//! Canonical edge-list normalization and stable 64-bit graph hashing.
//!
//! Two submissions of the *same* graph often arrive with edges in
//! different orders (or with junk such as repeated lines and
//! self-loops, when they come off the wire). This module defines the
//! one normal form everything agrees on:
//!
//! * an undirected edge is the ordered pair `(min(u, v), max(u, v))`;
//!   a directed edge is `(tail, head)`; self-loops are not edges at all
//!   ([`undirected_key`] / [`directed_key`]);
//! * the canonical edge order is the lexicographic order of those key
//!   pairs, with duplicates collapsed ([`EdgeKeys`]);
//! * the canonical hash ([`EdgeKeys::hash`], equal to [`graph_hash`],
//!   [`digraph_hash`] and [`weighted_graph_hash`]) is FNV-1a over the
//!   vertex count and the canonically ordered edges, so it is
//!   independent of insertion order.
//!
//! [`KeyBuilder`] normalizes an edge list row by row straight into
//! that form, plus the permutation back to the submitted edge ids
//! ([`CanonicalEdges`]) that lets a serving layer deduplicate
//! isomorphic-as-submitted requests and still answer each caller in
//! its own edge-id space. Every decoder goes through it — the
//! [`crate::io`] text parsers, the wire protocol and the JSON facade of
//! `dsa-service` — so they can never drift on self-loop, duplicate or
//! weight handling, and a cache hit needs no graph at all.
//! [`canonicalize`] / [`canonicalize_digraph`] are the same ordering
//! applied to an already-built graph.

use crate::io::ParseGraphError;
use crate::{DiGraph, EdgeId, EdgeWeights, Graph, VertexId};

/// The 64-bit FNV-1a hasher used for canonical graph hashes.
///
/// Chosen over `std::hash` because the output must be *stable* — cache
/// keys and wire-visible hashes may not change across Rust releases or
/// hasher randomization.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// `PRIME^k` (wrapping) for `k` in `0..=8`.
    const PRIME_POWERS: [u64; 9] = {
        let mut powers = [1u64; 9];
        let mut k = 1;
        while k < 9 {
            powers[k] = powers[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        powers
    };

    /// A hasher at the standard FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorbs the bytes of `x` in little-endian order.
    ///
    /// Once the bytes left are all zero, each of them only multiplies
    /// the state by `PRIME` (xor with 0 changes nothing), so the `k`
    /// high zero bytes fold into one multiplication by `PRIME^k`:
    /// wrapping multiplication is associative, so the result is the
    /// byte-at-a-time FNV-1a exactly.
    pub fn write_u64(&mut self, x: u64) {
        let mut rest = x;
        let mut zero_bytes = 8;
        while rest != 0 {
            self.0 ^= rest & 0xff;
            self.0 = self.0.wrapping_mul(Self::PRIME);
            rest >>= 8;
            zero_bytes -= 1;
        }
        self.0 = self.0.wrapping_mul(Self::PRIME_POWERS[zero_bytes]);
    }

    /// Absorbs a `usize` (as `u64`, so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The normal form of an undirected edge `{u, v}`: endpoints in
/// increasing order, or `None` for a self-loop (which a simple graph
/// does not contain).
pub fn undirected_key(u: VertexId, v: VertexId) -> Option<(VertexId, VertexId)> {
    (u != v).then(|| (u.min(v), u.max(v)))
}

/// The normal form of a directed edge `(u, v)`: the pair itself, or
/// `None` for a self-loop.
pub fn directed_key(u: VertexId, v: VertexId) -> Option<(VertexId, VertexId)> {
    (u != v).then_some((u, v))
}

/// A graph in canonical form: its vertex count, direction, sorted and
/// deduplicated edge keys, and the weight of each key when the graph
/// is weighted. Canonical edge id `c` is the key at index `c`.
///
/// Two spellings of the same edge set (any row order, self-loops,
/// repeated rows) have equal `EdgeKeys`, so equality here is graph
/// identity and [`EdgeKeys::hash`] is the canonical hash. Nothing is
/// built beyond the key array: the CSR form comes from
/// [`EdgeKeys::graph`] / [`EdgeKeys::digraph`] only when it is needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeKeys {
    n: usize,
    directed: bool,
    keys: Vec<(VertexId, VertexId)>,
    weights: Option<Vec<u64>>,
}

impl EdgeKeys {
    /// Keys that claim to be canonical already, checked rather than
    /// normalized: `None` unless every key has both endpoints below
    /// `n` and is no self-loop, undirected keys are min-first, the keys
    /// strictly ascend, and `weights`, when given, are undirected and
    /// one per key. This is what [`KeyBuilder`] produces, so decoding
    /// stored keys through it accepts exactly the canonical forms.
    pub fn from_canonical(
        n: usize,
        directed: bool,
        keys: Vec<(VertexId, VertexId)>,
        weights: Option<Vec<u64>>,
    ) -> Option<EdgeKeys> {
        let normal = |&(u, v): &(VertexId, VertexId)| {
            u < n && v < n && if directed { u != v } else { u < v }
        };
        let canonical = keys.iter().all(normal) && keys.windows(2).all(|pair| pair[0] < pair[1]);
        let weights_fit = weights
            .as_ref()
            .is_none_or(|w| !directed && w.len() == keys.len());
        (canonical && weights_fit).then_some(EdgeKeys {
            n,
            directed,
            keys,
            weights,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.keys.len()
    }

    /// The edge keys in canonical order.
    pub fn keys(&self) -> &[(VertexId, VertexId)] {
        &self.keys
    }

    /// The weight of each key, in canonical order, for a weighted
    /// graph.
    pub fn weights(&self) -> Option<&[u64]> {
        self.weights.as_deref()
    }

    /// The canonical hash: [`graph_hash`], [`weighted_graph_hash`] or
    /// [`digraph_hash`] of the graph these keys describe, computed from
    /// the keys alone.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(match (self.directed, &self.weights) {
            (true, _) => TAG_DIRECTED,
            (false, None) => TAG_UNDIRECTED,
            (false, Some(_)) => TAG_WEIGHTED,
        });
        h.write_usize(self.n);
        h.write_usize(self.keys.len());
        match &self.weights {
            None => {
                for &(u, v) in &self.keys {
                    h.write_usize(u);
                    h.write_usize(v);
                }
            }
            Some(weights) => {
                for (&(u, v), &w) in self.keys.iter().zip(weights) {
                    h.write_usize(u);
                    h.write_usize(v);
                    h.write_u64(w);
                }
            }
        }
        h.finish()
    }

    /// The undirected graph with edge ids in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if the keys are directed.
    pub fn graph(&self) -> Graph {
        assert!(!self.directed, "directed keys build a DiGraph");
        Graph::from_edges(self.n, self.keys.iter().copied())
    }

    /// The directed graph with edge ids in canonical order.
    ///
    /// # Panics
    ///
    /// Panics if the keys are undirected.
    pub fn digraph(&self) -> DiGraph {
        assert!(self.directed, "undirected keys build a Graph");
        DiGraph::from_edges(self.n, self.keys.iter().copied())
    }
}

/// [`EdgeKeys`] plus the permutation back to the edge ids a caller
/// submitted: the result of normalizing one edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalEdges {
    /// The canonical edge set.
    pub keys: EdgeKeys,
    /// `from_canonical[canonical_id] = submitted_id`.
    pub from_canonical: Vec<EdgeId>,
}

impl CanonicalEdges {
    /// The keys of an undirected graph, with `weights` attached when
    /// given, and the permutation back to `g`'s edge ids.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match `g`.
    pub fn of_graph(g: &Graph, weights: Option<&EdgeWeights>) -> Self {
        if let Some(w) = weights {
            assert_eq!(w.len(), g.num_edges(), "weights must match edges");
        }
        // `Graph` stores endpoints min-first already, so the stored
        // pairs are the undirected keys, and they are unique.
        Self::of_unique(
            g.num_vertices(),
            false,
            g.edges().map(|(_, u, v)| (u, v)).collect(),
            weights,
        )
    }

    /// The keys of a directed graph and the permutation back to `g`'s
    /// edge ids.
    pub fn of_digraph(g: &DiGraph) -> Self {
        Self::of_unique(
            g.num_vertices(),
            true,
            g.edges().map(|(_, u, v)| (u, v)).collect(),
            None,
        )
    }

    /// `keys[e]` is the key of edge `e`; the keys are distinct.
    fn of_unique(
        n: usize,
        directed: bool,
        keys: Vec<(VertexId, VertexId)>,
        weights: Option<&EdgeWeights>,
    ) -> Self {
        let order = sorted_by_key(n, keys);
        CanonicalEdges {
            keys: EdgeKeys {
                n,
                directed,
                keys: order.iter().map(|&(key, _)| key).collect(),
                weights: weights.map(|w| order.iter().map(|&(_, e)| w.get(e)).collect()),
            },
            from_canonical: order.into_iter().map(|(_, e)| e).collect(),
        }
    }

    /// `to_canonical[submitted_id] = canonical_id`, the inverse of
    /// [`CanonicalEdges::from_canonical`].
    pub fn to_canonical(&self) -> Vec<EdgeId> {
        let mut to = vec![0; self.from_canonical.len()];
        for (canonical, &submitted) in self.from_canonical.iter().enumerate() {
            to[submitted] = canonical;
        }
        to
    }

    fn submitted_keys(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges = vec![(0, 0); self.from_canonical.len()];
        for (&key, &submitted) in self.keys.keys.iter().zip(&self.from_canonical) {
            edges[submitted] = key;
        }
        edges
    }

    /// The undirected graph with edge ids in submitted order.
    ///
    /// # Panics
    ///
    /// Panics if the keys are directed.
    pub fn submitted_graph(&self) -> Graph {
        assert!(!self.keys.directed, "directed keys build a DiGraph");
        Graph::from_edges(self.keys.n, self.submitted_keys())
    }

    /// The directed graph with edge ids in submitted order.
    ///
    /// # Panics
    ///
    /// Panics if the keys are undirected.
    pub fn submitted_digraph(&self) -> DiGraph {
        assert!(self.keys.directed, "undirected keys build a Graph");
        DiGraph::from_edges(self.keys.n, self.submitted_keys())
    }

    /// The weights indexed by submitted edge id, for a weighted graph.
    pub fn submitted_weights(&self) -> Option<EdgeWeights> {
        let weights = self.keys.weights.as_ref()?;
        let mut out = vec![0; weights.len()];
        for (&w, &submitted) in weights.iter().zip(&self.from_canonical) {
            out[submitted] = w;
        }
        Some(EdgeWeights::from_vec(out))
    }
}

/// Normalizes an edge list row by row into [`CanonicalEdges`].
///
/// This is the one normalization every decoder shares (text edge
/// lists, wire frames, JSON bodies):
///
/// * a row is `[u, v]` or `[u, v, w]`; any other arity is
///   [`ParseGraphError::BadLine`], an endpoint `>= n` is
///   [`ParseGraphError::VertexOutOfRange`], both reported at the first
///   offending row;
/// * self-loop rows are dropped;
/// * a repeated edge (either orientation, when undirected) keeps only
///   its first occurrence, and with it the first occurrence's weight;
/// * submitted edge ids number the surviving rows in arrival order;
/// * undirected rows must be all weighted or all unweighted, judged
///   over the surviving rows only
///   ([`ParseGraphError::InconsistentWeights`]); directed rows may
///   carry a third field, which is ignored.
///
/// [`KeyBuilder::finish`] sorts once, so normalizing `m` rows costs
/// one O(m log m) sort and no hashing.
#[derive(Clone, Debug)]
pub struct KeyBuilder {
    n: usize,
    directed: bool,
    /// The key of each row that is not a self-loop, by arrival.
    keys: Vec<(VertexId, VertexId)>,
    /// The third field of each such row, by arrival.
    weights: Vec<Option<u64>>,
}

impl KeyBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize, directed: bool) -> Self {
        KeyBuilder {
            n,
            directed,
            keys: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Adds one row; `line` is the position reported in errors.
    pub fn push_row(&mut self, line: usize, fields: &[u64]) -> Result<(), ParseGraphError> {
        let (u, v, weight) = match *fields {
            [u, v] => (u, v, None),
            [u, v, w] => (u, v, Some(w)),
            _ => return Err(ParseGraphError::BadLine(line)),
        };
        // Range-check in u64 before narrowing: casting first would
        // wrap huge ids on 32-bit hosts and silently accept a wrong
        // edge.
        let in_range = |x: u64| usize::try_from(x).ok().filter(|&x| x < self.n);
        let (Some(u), Some(v)) = (in_range(u), in_range(v)) else {
            return Err(ParseGraphError::VertexOutOfRange(line));
        };
        let key = if self.directed {
            directed_key(u, v)
        } else {
            undirected_key(u, v)
        };
        if let Some(key) = key {
            self.keys.push(key);
            self.weights.push(weight);
        }
        Ok(())
    }

    /// Sorts and deduplicates the rows into canonical form.
    pub fn finish(self) -> Result<CanonicalEdges, ParseGraphError> {
        // Arrival breaks ties, so each key's first occurrence sorts
        // first within its run.
        let rows = sorted_by_key(self.n, self.keys);
        let mut keys: Vec<(VertexId, VertexId)> = Vec::with_capacity(rows.len());
        let mut first: Vec<usize> = Vec::with_capacity(rows.len());
        for &(key, arrival) in &rows {
            if keys.last() != Some(&key) {
                keys.push(key);
                first.push(arrival);
            }
        }
        drop(rows);
        // Submitted ids number the first occurrences in arrival order.
        const DROPPED: usize = usize::MAX;
        let mut canonical_of = vec![DROPPED; self.weights.len()];
        for (canonical, &arrival) in first.iter().enumerate() {
            canonical_of[arrival] = canonical;
        }
        let mut from_canonical = vec![0; keys.len()];
        let (mut any_weight, mut any_plain) = (false, false);
        let mut submitted = 0;
        for (arrival, &canonical) in canonical_of.iter().enumerate() {
            if canonical == DROPPED {
                continue;
            }
            from_canonical[canonical] = submitted;
            submitted += 1;
            if self.weights[arrival].is_some() {
                any_weight = true;
            } else {
                any_plain = true;
            }
        }
        let weights = if self.directed || !any_weight {
            None
        } else if any_plain {
            return Err(ParseGraphError::InconsistentWeights);
        } else {
            Some(
                first
                    .iter()
                    .map(|&arrival| self.weights[arrival].unwrap_or(0))
                    .collect(),
            )
        };
        Ok(CanonicalEdges {
            keys: EdgeKeys {
                n: self.n,
                directed: self.directed,
                keys,
                weights,
            },
            from_canonical,
        })
    }
}

/// `(keys[i], i)` for every `i`, sorted: by key, then by index. Each
/// triple `(u, v, i)` is packed into one `u64`, `u` and `v` in as many
/// bits as `n - 1` needs and `i` in as many as `keys.len() - 1` needs,
/// so one integer sort orders them exactly as the tuples would order.
/// Only when those widths exceed 64 bits are the tuples sorted
/// themselves.
///
/// Every `u` and `v` must be below `n`.
fn sorted_by_key(n: usize, keys: Vec<(VertexId, VertexId)>) -> Vec<((VertexId, VertexId), usize)> {
    let width = |x: usize| usize::BITS - x.leading_zeros();
    let vertex_bits = width(n.saturating_sub(1));
    // At most 59: a Vec of 16-byte keys has fewer than 2^59 entries.
    let index_bits = width(keys.len().saturating_sub(1));
    if 2 * vertex_bits + index_bits > u64::BITS {
        let mut rows: Vec<_> = keys.into_iter().zip(0..).collect();
        rows.sort_unstable();
        return rows;
    }
    let mut packed: Vec<u64> = keys
        .iter()
        .zip(0u64..)
        .map(|(&(u, v), i)| ((u as u64) << vertex_bits | v as u64) << index_bits | i)
        .collect();
    drop(keys);
    packed.sort_unstable();
    let vertex_mask = (1u64 << vertex_bits) - 1;
    let index_mask = (1u64 << index_bits) - 1;
    packed
        .into_iter()
        .map(|p| {
            let key = p >> index_bits;
            (
                ((key >> vertex_bits) as usize, (key & vertex_mask) as usize),
                (p & index_mask) as usize,
            )
        })
        .collect()
}

/// A graph rebuilt with edge ids in canonical (sorted endpoint-pair)
/// order, plus the id translation to and from the original graph.
#[derive(Clone, Debug)]
pub struct CanonicalGraph {
    /// The same graph with edges inserted in canonical order.
    pub graph: Graph,
    /// `to_canonical[original_id] = canonical_id`.
    pub to_canonical: Vec<EdgeId>,
    /// `from_canonical[canonical_id] = original_id`.
    pub from_canonical: Vec<EdgeId>,
}

/// Rebuilds `g` with edge ids in canonical order.
///
/// Simple graphs have no duplicate edges or self-loops, so this is a
/// pure reordering: `graph` is [`PartialEq`]-equal to `g` exactly when
/// the edges of `g` were already sorted.
pub fn canonicalize(g: &Graph) -> CanonicalGraph {
    let c = CanonicalEdges::of_graph(g, None);
    CanonicalGraph {
        graph: c.keys.graph(),
        to_canonical: c.to_canonical(),
        from_canonical: c.from_canonical,
    }
}

/// A directed graph rebuilt with edge ids in canonical order, plus the
/// id translation to and from the original graph.
#[derive(Clone, Debug)]
pub struct CanonicalDiGraph {
    /// The same digraph with edges inserted in canonical order.
    pub graph: DiGraph,
    /// `to_canonical[original_id] = canonical_id`.
    pub to_canonical: Vec<EdgeId>,
    /// `from_canonical[canonical_id] = original_id`.
    pub from_canonical: Vec<EdgeId>,
}

/// Rebuilds `g` with edge ids in canonical order. See [`canonicalize`].
pub fn canonicalize_digraph(g: &DiGraph) -> CanonicalDiGraph {
    let c = CanonicalEdges::of_digraph(g);
    CanonicalDiGraph {
        graph: c.keys.digraph(),
        to_canonical: c.to_canonical(),
        from_canonical: c.from_canonical,
    }
}

/// Domain tags keep hashes of different kinds of object disjoint even
/// when the underlying edge data coincides.
const TAG_UNDIRECTED: u64 = 0x7573;
const TAG_DIRECTED: u64 = 0x6469;
const TAG_WEIGHTED: u64 = 0x7765;

/// The canonical (insertion-order-independent) hash of an undirected
/// graph: FNV-1a over the domain tag, the vertex count, the edge count
/// and the canonically ordered keys.
pub fn graph_hash(g: &Graph) -> u64 {
    CanonicalEdges::of_graph(g, None).keys.hash()
}

/// The canonical hash of a directed graph. Disjoint from undirected
/// hashes by domain tag.
pub fn digraph_hash(g: &DiGraph) -> u64 {
    CanonicalEdges::of_digraph(g).keys.hash()
}

/// The canonical hash of a weighted undirected graph: each edge is
/// hashed together with its weight, in canonical edge order.
///
/// # Panics
///
/// Panics if the weights don't match the graph.
pub fn weighted_graph_hash(g: &Graph, w: &EdgeWeights) -> u64 {
    CanonicalEdges::of_graph(g, Some(w)).keys.hash()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_normalize_and_reject_self_loops() {
        assert_eq!(undirected_key(3, 1), Some((1, 3)));
        assert_eq!(undirected_key(1, 3), Some((1, 3)));
        assert_eq!(undirected_key(2, 2), None);
        assert_eq!(directed_key(3, 1), Some((3, 1)));
        assert_eq!(directed_key(2, 2), None);
    }

    #[test]
    fn hash_is_insertion_order_independent() {
        let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]);
        let b = Graph::from_edges(4, [(2, 0), (3, 2), (1, 0), (2, 1)]);
        assert_ne!(a, b); // different edge ids...
        assert_eq!(graph_hash(&a), graph_hash(&b)); // ...same graph
        let c = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_ne!(graph_hash(&a), graph_hash(&c));
        // Vertex count matters even with identical edges.
        let d = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 2)]);
        assert_ne!(graph_hash(&a), graph_hash(&d));
    }

    #[test]
    fn directed_and_weighted_hashes_are_domain_separated() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let d = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let w = EdgeWeights::constant(2, 1);
        let hashes = [
            graph_hash(&g),
            digraph_hash(&d),
            weighted_graph_hash(&g, &w),
        ];
        assert_ne!(hashes[0], hashes[1]);
        assert_ne!(hashes[0], hashes[2]);
        assert_ne!(hashes[1], hashes[2]);
    }

    #[test]
    fn digraph_hash_distinguishes_direction() {
        let a = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        let b = DiGraph::from_edges(3, [(1, 0), (1, 2)]);
        assert_ne!(digraph_hash(&a), digraph_hash(&b));
        let c = DiGraph::from_edges(3, [(1, 2), (0, 1)]);
        assert_eq!(digraph_hash(&a), digraph_hash(&c));
    }

    #[test]
    fn weighted_hash_sees_weights_through_reordering() {
        let a = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let b = Graph::from_edges(3, [(1, 2), (0, 1)]);
        // Weights follow edge ids, so the same id-indexed vector means
        // *different* edge weights across the two insert orders...
        let w = EdgeWeights::from_vec(vec![5, 9]);
        assert_ne!(weighted_graph_hash(&a, &w), weighted_graph_hash(&b, &w));
        // ...while the properly permuted weights hash identically.
        let w_b = EdgeWeights::from_vec(vec![9, 5]);
        assert_eq!(weighted_graph_hash(&a, &w), weighted_graph_hash(&b, &w_b));
    }

    #[test]
    fn canonicalize_sorts_edges_and_inverts() {
        let g = Graph::from_edges(5, [(3, 4), (0, 2), (1, 0), (2, 3)]);
        let canon = canonicalize(&g);
        let pairs: Vec<_> = canon.graph.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (2, 3), (3, 4)]);
        assert_eq!(canon.graph.num_vertices(), g.num_vertices());
        for e in 0..g.num_edges() {
            assert_eq!(canon.from_canonical[canon.to_canonical[e]], e);
            assert_eq!(g.endpoints(e), canon.graph.endpoints(canon.to_canonical[e]));
        }
        // Canonicalizing a canonical graph is the identity.
        let again = canonicalize(&canon.graph);
        assert_eq!(again.graph, canon.graph);
        assert_eq!(again.to_canonical, (0..g.num_edges()).collect::<Vec<_>>());
    }

    #[test]
    fn canonicalize_digraph_sorts_and_inverts() {
        let g = DiGraph::from_edges(4, [(2, 1), (0, 3), (1, 0)]);
        let canon = canonicalize_digraph(&g);
        let pairs: Vec<_> = canon.graph.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(pairs, vec![(0, 3), (1, 0), (2, 1)]);
        for e in 0..g.num_edges() {
            assert_eq!(canon.from_canonical[canon.to_canonical[e]], e);
        }
        assert_eq!(digraph_hash(&g), digraph_hash(&canon.graph));
    }

    /// The byte-at-a-time loop that `write_u64` folds: the reference.
    fn write_u64_bytewise(h: &mut Fnv1a, x: u64) {
        for b in x.to_le_bytes() {
            h.0 ^= u64::from(b);
            h.0 = h.0.wrapping_mul(Fnv1a::PRIME);
        }
    }

    #[test]
    fn folded_write_u64_equals_the_byte_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut values = vec![0, 1, u64::MAX];
        for k in 1..8 {
            values.push((1u64 << (8 * k)) - 1);
            values.push(1u64 << (8 * k));
        }
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..2000 {
            // Every byte length, from 1 to 8 significant bytes.
            values.push(rng.gen::<u64>() >> (8 * rng.gen_range(0..8)));
        }
        let (mut folded, mut bytewise) = (Fnv1a::new(), Fnv1a::new());
        for &x in &values {
            folded.write_u64(x);
            write_u64_bytewise(&mut bytewise, x);
            assert_eq!(folded.finish(), bytewise.finish(), "after {x:#x}");
        }
    }

    /// Checks `sorted_by_key` against the tuple sort, and returns
    /// whether the keys fit the packed form.
    fn check_sorted_by_key(n: usize, keys: &[(VertexId, VertexId)]) -> bool {
        let mut expected: Vec<_> = keys.iter().copied().zip(0..).collect();
        expected.sort_unstable();
        assert_eq!(sorted_by_key(n, keys.to_vec()), expected, "n = {n}");
        let width = |x: usize| usize::BITS - x.leading_zeros();
        2 * width(n - 1) + width(keys.len().saturating_sub(1)) <= 64
    }

    #[test]
    fn packed_sort_equals_the_tuple_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let random_keys = |rng: &mut StdRng, n: usize, len: usize| -> Vec<_> {
            (0..len)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect()
        };
        // Small instances, with repeated keys.
        for _ in 0..500 {
            let n = rng.gen_range(1..12);
            let len = rng.gen_range(0..40);
            let keys = random_keys(&mut rng, n, len);
            assert!(check_sorted_by_key(n, &keys));
        }
        // On both sides of the 64-bit limit: n = 2^30 takes 30 bits per
        // endpoint, so 16 rows (4 index bits) pack and 17 do not; so
        // for n = 2^32 with 1 and 2 rows, and n = 2^32 + 1 with 1 row.
        for (n, len, packs) in [
            (1 << 30, 16, true),
            (1 << 30, 17, false),
            (1 << 32, 1, true),
            (1 << 32, 2, false),
            ((1 << 32) + 1, 1, false),
        ] {
            for _ in 0..20 {
                let mut keys = random_keys(&mut rng, n, len);
                keys[0] = (n - 1, n - 1);
                assert_eq!(check_sorted_by_key(n, &keys), packs, "n = {n}");
            }
        }
    }

    #[test]
    fn from_canonical_accepts_the_builders_keys_and_nothing_else() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(10);
        for directed in [false, true] {
            for _ in 0..200 {
                let n = rng.gen_range(1..12);
                let mut b = KeyBuilder::new(n, directed);
                for row in 0..rng.gen_range(0..30) {
                    let (u, v) = (rng.gen_range(0..n as u64), rng.gen_range(0..n as u64));
                    b.push_row(row, &[u, v, rng.gen()]).unwrap();
                }
                let k = b.finish().unwrap().keys;
                let again =
                    EdgeKeys::from_canonical(n, directed, k.keys.clone(), k.weights.clone());
                assert_eq!(again.as_ref(), Some(&k));
            }
        }
        let check = |n, directed, keys: &[(usize, usize)], weights: Option<Vec<u64>>| {
            EdgeKeys::from_canonical(n, directed, keys.to_vec(), weights).is_some()
        };
        assert!(check(
            4,
            false,
            &[(0, 1), (0, 3), (2, 3)],
            Some(vec![7, 0, u64::MAX])
        ));
        assert!(check(4, true, &[(0, 1), (1, 0), (3, 2)], None));
        assert!(!check(4, false, &[(0, 3), (0, 1)], None), "descending");
        assert!(!check(4, false, &[(0, 1), (0, 1)], None), "repeated");
        assert!(!check(4, true, &[(2, 2)], None), "self-loop");
        assert!(!check(4, false, &[(3, 1)], None), "reversed undirected");
        assert!(!check(4, false, &[(1, 4)], None), "endpoint out of range");
        assert!(!check(4, false, &[(0, 1)], Some(vec![])), "weight count");
        assert!(
            !check(4, true, &[(0, 1)], Some(vec![1])),
            "directed weights"
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned reference values of FNV-1a 64 (cache keys and
        // wire-visible hashes must never change across releases).
        let mut h = Fnv1a::new();
        h.write_bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
        // write_u64 is the little-endian byte expansion.
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write_bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
