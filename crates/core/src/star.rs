//! Stars, star densities, and the star-choice mechanism of Section 4.1.
//!
//! A *v-star* is a non-empty subset of edges between a vertex `v` and
//! some of its neighbors; its *density* with respect to the uncovered
//! edge set `H_v` is the number of uncovered edges it 2-spans divided by
//! its size (or weight). Choosing a star is choosing a set of **leaves**,
//! so this module represents the per-vertex search space as a
//! [`LocalStars`] structure — a small vertex-weighted multigraph on the
//! neighbors of `v` — and implements:
//!
//! * the densest star, via the flow reduction (`dsa-flow`),
//! * the paper's Section 4.1 star-choice mechanism: start from the
//!   densest star and greedily absorb single leaves or disjoint stars
//!   while the density stays above `ρ̃/4` (or `ρ̃/8` for the directed
//!   variant), and, while the vertex's rounded density is unchanged,
//!   only ever *shrink* the previously chosen star (Claim 4.4).

use dsa_flow::{densest_weighted_subgraph_with, DensestScratch};
use dsa_graphs::{Ratio, VertexId};

/// An inline list of at most two ids (edge ids or item indices).
///
/// Every leaf carries at most two spanner edges (the antiparallel
/// directed pair) and every leaf pair spans at most two items, so the
/// hot per-vertex-per-iteration structures never touch the heap. The
/// engine builds one [`Leaf`] per neighbor and one [`Pair`] per
/// spanning neighbor pair on every vertex of every iteration; keeping
/// these inline removes two mallocs per element from the Step-1 loop.
///
/// Dereferences to `&[usize]`, so `.len()`, `.iter()`, indexing, and
/// `for &e in &list` all work as they did when these were `Vec`s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdList {
    len: u8,
    buf: [usize; 2],
}

impl IdList {
    /// The empty list.
    pub const fn new() -> Self {
        IdList {
            len: 0,
            buf: [0; 2],
        }
    }

    /// A one-element list.
    pub const fn one(id: usize) -> Self {
        IdList {
            len: 1,
            buf: [id, 0],
        }
    }

    /// A two-element list.
    pub const fn two(a: usize, b: usize) -> Self {
        IdList {
            len: 2,
            buf: [a, b],
        }
    }

    /// Appends `id`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds two ids.
    pub fn push(&mut self, id: usize) {
        assert!(self.len < 2, "IdList holds at most two ids");
        self.buf[self.len as usize] = id;
        self.len += 1;
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len as usize]
    }
}

impl std::ops::Deref for IdList {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a IdList {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<usize> for IdList {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut out = IdList::new();
        for id in iter {
            out.push(id);
        }
        out
    }
}

/// One potential leaf of a star centered at some vertex `v`.
#[derive(Clone, Debug)]
pub struct Leaf {
    /// The neighbor vertex this leaf stands for.
    pub vertex: VertexId,
    /// Contribution of this leaf to the density denominator: 1 for the
    /// unweighted problem, the edge weight for the weighted problem,
    /// the number of directed star edges for the directed problem.
    pub weight: u64,
    /// The selectable edges added to the spanner if this leaf is chosen
    /// (one undirected edge, or up to two directed edges).
    pub edges: IdList,
}

/// An unordered pair of leaves that 2-spans one or more uncovered items.
#[derive(Clone, Debug)]
pub struct Pair {
    /// Index of the first leaf in [`LocalStars::leaves`].
    pub a: usize,
    /// Index of the second leaf.
    pub b: usize,
    /// The uncovered items 2-spanned when both leaves are chosen
    /// (multiplicity = length; up to 2 for antiparallel directed edges).
    pub items: IdList,
}

/// Reusable buffers for [`LocalStars::choose_star_with`], so the
/// engine's Step-3 loop allocates nothing per vertex in steady state.
///
/// The inner per-leaf vectors keep their capacity across calls; each
/// call leaves them cleared for the next (debug-asserted on entry).
#[derive(Debug, Default)]
pub struct StarScratch {
    /// Pair adjacency per leaf, indexed by leaf id: `(other, mult)`.
    by_leaf: Vec<Vec<(usize, u64)>>,
    /// The leaves a disjoint star may use while a star grows.
    complement: Vec<bool>,
    /// The densest-star oracle's buffers.
    oracle: OracleScratch,
}

/// Reusable buffers for [`LocalStars::densest_with`]: the local
/// instance handed to the flow oracle and the oracle's own network, so
/// a loop over many vertices builds every instance into the same
/// memory.
#[derive(Debug, Default)]
pub struct OracleScratch {
    /// The leaf each local vertex stands for.
    idx: Vec<usize>,
    /// The local vertex of each leaf (`usize::MAX` when not allowed).
    back: Vec<usize>,
    weights: Vec<u64>,
    edges: Vec<(usize, usize, u64)>,
    flow: DensestScratch,
}

/// The star search space at one vertex for one iteration: its potential
/// leaves and the uncovered items each leaf pair would 2-span.
#[derive(Clone, Debug, Default)]
pub struct LocalStars {
    /// Potential leaves (the neighbors of `v`), in ascending vertex order.
    pub leaves: Vec<Leaf>,
    /// Leaf pairs spanning at least one uncovered item.
    pub pairs: Vec<Pair>,
}

/// A chosen star: leaf membership plus bookkeeping about how the choice
/// was made.
#[derive(Clone, Debug)]
pub struct StarChoice {
    /// `member[i]` — whether leaf `i` is in the star.
    pub member: Vec<bool>,
    /// Whether the Section 4.1 shrink-only path failed and a fresh star
    /// had to be chosen. Claim 4.4 proves this never happens; the engine
    /// counts occurrences so the tests can assert the claim empirically.
    pub fallback: bool,
}

/// `2^exp` as an exact [`Ratio`] (negative exponents allowed).
///
/// # Panics
///
/// Panics for `|exp| > 62`.
pub fn pow2_ratio(exp: i32) -> Ratio {
    assert!(exp.unsigned_abs() <= 62, "exponent {exp} out of range");
    if exp >= 0 {
        Ratio::new(1u64 << exp, 1)
    } else {
        Ratio::new(1, 1u64 << (-exp))
    }
}

/// The candidacy/termination threshold of the weighted variant
/// (Section 4.3.2): the largest power of two at most `1 / w_max`,
/// saturating at `2^-62` ([`pow2_ratio`]'s exact range) for
/// astronomical weights — the threshold only decides when termination
/// self-adds leftovers, never correctness.
pub fn weight_threshold(w_max: u64) -> Ratio {
    let w = w_max.max(1);
    let mut j = 0i32;
    while j < 62 && pow2_ratio(j) < Ratio::new(w, 1) {
        j += 1;
    }
    pow2_ratio(-j)
}

impl LocalStars {
    /// Whether no pair spans anything (density 0 for every star).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of uncovered items 2-spanned by the leaf set `member`.
    pub fn spanned_count(&self, member: &[bool]) -> u64 {
        self.pairs
            .iter()
            .filter(|p| member[p.a] && member[p.b])
            .map(|p| p.items.len() as u64)
            .sum()
    }

    /// The uncovered items 2-spanned by the leaf set `member`.
    pub fn spanned_items(&self, member: &[bool]) -> Vec<usize> {
        let mut items: Vec<usize> = self
            .pairs
            .iter()
            .filter(|p| member[p.a] && member[p.b])
            .flat_map(|p| p.items.iter().copied())
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// Total leaf weight of the set `member`, saturating at
    /// `u64::MAX` (astronomically weighted stars then read as density
    /// ~0 instead of overflowing).
    pub fn weight_of(&self, member: &[bool]) -> u64 {
        self.leaves
            .iter()
            .zip(member)
            .filter(|&(_, &m)| m)
            .fold(0u64, |acc, (l, _)| acc.saturating_add(l.weight))
    }

    /// Density of the leaf set `member`; `None` if the set has zero
    /// total weight (then it spans nothing by the caller's invariants)
    /// or is empty.
    pub fn density_of(&self, member: &[bool]) -> Option<Ratio> {
        let w = self.weight_of(member);
        if w == 0 {
            return None;
        }
        Some(Ratio::new(self.spanned_count(member), w))
    }

    /// The density of the densest star (`ρ(v, H_v)` in the paper), or
    /// `None` when every star has density 0.
    pub fn max_density(&self) -> Option<Ratio> {
        self.densest(None).map(|(_, d)| d)
    }

    /// The densest star restricted to leaves allowed by `within`
    /// (`None` = all leaves). Returns the leaf membership and density.
    ///
    /// Zero-weight leaves in range are always included — they can only
    /// increase the density (the weighted variant's weight-0 edges).
    pub fn densest(&self, within: Option<&[bool]>) -> Option<(Vec<bool>, Ratio)> {
        self.densest_with(within, &mut OracleScratch::default())
    }

    /// [`LocalStars::densest`] with caller-owned buffers, for loops
    /// that ask many vertices for their densest star. The result is the
    /// same as a fresh call's.
    pub fn densest_with(
        &self,
        within: Option<&[bool]>,
        scratch: &mut OracleScratch,
    ) -> Option<(Vec<bool>, Ratio)> {
        let allowed = |i: usize| within.is_none_or(|w| w[i]);
        let OracleScratch {
            idx,
            back,
            weights,
            edges,
            flow,
        } = scratch;
        // Build the local instance over allowed leaves.
        idx.clear();
        weights.clear();
        back.clear();
        back.resize(self.leaves.len(), usize::MAX);
        for (i, leaf) in self.leaves.iter().enumerate() {
            if allowed(i) {
                back[i] = idx.len();
                idx.push(i);
                weights.push(leaf.weight);
            }
        }
        if idx.is_empty() {
            return None;
        }
        edges.clear();
        edges.extend(
            self.pairs
                .iter()
                .filter(|p| allowed(p.a) && allowed(p.b) && !p.items.is_empty())
                .map(|p| (back[p.a], back[p.b], p.items.len() as u64)),
        );
        // The flow oracle's exact arithmetic needs
        // total_weight² · 2 · total_multiplicity to fit in i64; on
        // astronomically weighted instances fall back to the densest
        // single pair instead of panicking.
        let total_w: u128 = weights.iter().map(|&w| w as u128).sum();
        let total_m: u128 = edges.iter().map(|&(_, _, m)| m as u128).sum();
        let oracle_safe = total_w
            .checked_mul(total_w)
            .and_then(|w2| w2.checked_mul(2 * total_m.max(1)))
            .is_some_and(|bound| bound <= i64::MAX as u128);
        if !oracle_safe {
            return self.densest_pair(within);
        }
        let (vertices, oracle_density) = densest_weighted_subgraph_with(flow, weights, edges)?;
        let mut member = vec![false; self.leaves.len()];
        for &k in vertices {
            member[idx[k]] = true;
        }
        // Include free leaves.
        for &i in idx.iter() {
            if self.leaves[i].weight == 0 {
                member[i] = true;
            }
        }
        let density = self.density_of(&member).unwrap_or(oracle_density);
        Some((member, density))
    }

    /// Overflow fallback for [`LocalStars::densest`]: the densest
    /// two-leaf star (plus free leaves), found by direct scan. Only
    /// used when the flow oracle's scaled capacities would overflow.
    fn densest_pair(&self, within: Option<&[bool]>) -> Option<(Vec<bool>, Ratio)> {
        let allowed = |i: usize| within.is_none_or(|w| w[i]);
        let mut best: Option<(Vec<bool>, Ratio)> = None;
        for p in &self.pairs {
            if !allowed(p.a) || !allowed(p.b) || p.items.is_empty() {
                continue;
            }
            let mut member = vec![false; self.leaves.len()];
            member[p.a] = true;
            member[p.b] = true;
            for (i, leaf) in self.leaves.iter().enumerate() {
                if leaf.weight == 0 && allowed(i) {
                    member[i] = true;
                }
            }
            if let Some(d) = self.density_of(&member) {
                if best.as_ref().is_none_or(|(_, bd)| d > *bd) {
                    best = Some((member, d));
                }
            }
        }
        best
    }

    /// The Section 4.1 star choice.
    ///
    /// `threshold` is `ρ̃(v)/4` (undirected) or `ρ̃(v)/8` (directed),
    /// where `ρ̃(v)` is the vertex's rounded density. `prev` is the star
    /// chosen the last time the vertex was a candidate *with the same
    /// rounded density*, if any; when present the choice is restricted
    /// to shrink it (Claim 4.4 proves the restriction never fails; the
    /// returned [`StarChoice::fallback`] flag records if it did).
    ///
    /// Returns `None` if no star with positive density exists at all.
    pub fn choose_star(&self, threshold: Ratio, prev: Option<&[bool]>) -> Option<StarChoice> {
        self.choose_star_with(threshold, prev, &mut StarScratch::default())
    }

    /// [`LocalStars::choose_star`] with caller-owned scratch buffers,
    /// for hot loops that choose stars for many vertices in a row.
    pub fn choose_star_with(
        &self,
        threshold: Ratio,
        prev: Option<&[bool]>,
        scratch: &mut StarScratch,
    ) -> Option<StarChoice> {
        self.choose_star_seeded(threshold, prev, None, scratch)
    }

    /// [`LocalStars::choose_star_with`] with an optional precomputed
    /// unrestricted-densest result (what [`LocalStars::densest`] with
    /// `within = None` returns). The engine computes exactly that in
    /// Step 1 for the density aggregate; passing it here spares the
    /// star choice a duplicate flow-oracle call per fresh candidate.
    pub fn choose_star_seeded(
        &self,
        threshold: Ratio,
        prev: Option<&[bool]>,
        cached_densest: Option<&Option<(Vec<bool>, Ratio)>>,
        scratch: &mut StarScratch,
    ) -> Option<StarChoice> {
        let densest_unrestricted =
            |ls: &LocalStars, oracle: &mut OracleScratch| match cached_densest {
                Some(c) => c.clone(),
                None => ls.densest_with(None, oracle),
            };
        if let Some(prev) = prev {
            // Same rounded density as before: keep the previous star if
            // it is still dense enough.
            if let Some(d) = self.density_of(prev) {
                if d >= threshold {
                    return Some(StarChoice {
                        member: prev.to_vec(),
                        fallback: false,
                    });
                }
            }
            // Otherwise look for a dense star inside the previous one.
            if let Some((seed, d)) = self.densest_with(Some(prev), &mut scratch.oracle) {
                if d >= threshold {
                    let member = self.grow(seed, threshold, Some(prev), scratch);
                    return Some(StarChoice {
                        member,
                        fallback: false,
                    });
                }
            }
            // Claim 4.4 says this is unreachable; fall back to a fresh
            // choice and record it.
            let (seed, _) = densest_unrestricted(self, &mut scratch.oracle)?;
            let member = self.grow(seed, threshold, None, scratch);
            return Some(StarChoice {
                member,
                fallback: true,
            });
        }
        let (seed, _) = densest_unrestricted(self, &mut scratch.oracle)?;
        let member = self.grow(seed, threshold, None, scratch);
        Some(StarChoice {
            member,
            fallback: false,
        })
    }

    /// Greedy absorption loop of Section 4.1: while possible, add a
    /// single leaf keeping the density at least `threshold`; otherwise
    /// add a disjoint star of density at least `threshold`; stop when
    /// neither applies. Restricted to `within` when given.
    fn grow(
        &self,
        mut member: Vec<bool>,
        threshold: Ratio,
        within: Option<&[bool]>,
        scratch: &mut StarScratch,
    ) -> Vec<bool> {
        let allowed = |i: usize| within.is_none_or(|w| w[i]);
        // Pair adjacency per leaf for incremental density updates,
        // built in the reused arena (each call leaves it cleared).
        debug_assert!(
            scratch.by_leaf.iter().all(Vec::is_empty),
            "StarScratch not cleared between uses"
        );
        if scratch.by_leaf.len() < self.leaves.len() {
            scratch.by_leaf.resize(self.leaves.len(), Vec::new());
        }
        let by_leaf = &mut scratch.by_leaf;
        for p in &self.pairs {
            by_leaf[p.a].push((p.b, p.items.len() as u64));
            by_leaf[p.b].push((p.a, p.items.len() as u64));
        }
        let mut num = self.spanned_count(&member);
        let mut den = self.weight_of(&member);
        loop {
            // Try single leaves first.
            let mut added_leaf = false;
            loop {
                let mut best: Option<(usize, u64)> = None;
                for i in 0..self.leaves.len() {
                    if member[i] || !allowed(i) {
                        continue;
                    }
                    let gain: u64 = by_leaf[i]
                        .iter()
                        .filter(|&&(j, _)| member[j])
                        .map(|&(_, mult)| mult)
                        .sum();
                    let new_num = num + gain;
                    let new_den = den.saturating_add(self.leaves[i].weight);
                    if new_den == 0 {
                        continue;
                    }
                    if Ratio::new(new_num, new_den) >= threshold
                        && best.is_none_or(|(_, g)| gain > g)
                    {
                        best = Some((i, gain));
                    }
                }
                match best {
                    Some((i, gain)) => {
                        member[i] = true;
                        num += gain;
                        den = den.saturating_add(self.leaves[i].weight);
                        added_leaf = true;
                    }
                    None => break,
                }
            }
            // Then a disjoint star.
            scratch.complement.clear();
            scratch
                .complement
                .extend((0..self.leaves.len()).map(|i| !member[i] && allowed(i)));
            let Some((disjoint, d)) =
                self.densest_with(Some(&scratch.complement), &mut scratch.oracle)
            else {
                if added_leaf {
                    continue;
                }
                break;
            };
            if d >= threshold {
                for (m, dj) in member.iter_mut().zip(&disjoint) {
                    *m |= dj;
                }
                num = self.spanned_count(&member);
                den = self.weight_of(&member);
            } else if !added_leaf {
                break;
            }
        }
        for adj in &mut by_leaf[..self.leaves.len()] {
            adj.clear();
        }
        member
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Local stars of the center of a wheel-like neighborhood:
    /// leaves 0..4, pairs forming a 4-cycle plus one chord.
    fn wheel() -> LocalStars {
        let leaves = (0..4)
            .map(|i| Leaf {
                vertex: 10 + i,
                weight: 1,
                edges: IdList::one(i),
            })
            .collect();
        let pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| Pair {
                a,
                b,
                items: IdList::one(100 + k),
            })
            .collect();
        LocalStars { leaves, pairs }
    }

    #[test]
    fn densities() {
        let ls = wheel();
        assert_eq!(ls.density_of(&[true; 4]), Some(Ratio::new(5, 4)));
        assert_eq!(
            ls.density_of(&[true, true, true, false]),
            Some(Ratio::new(3, 3))
        );
        assert_eq!(ls.max_density(), Some(Ratio::new(5, 4)));
        assert_eq!(ls.spanned_count(&[true, true, false, false]), 1);
        assert_eq!(
            ls.spanned_items(&[true, true, true, false]),
            vec![100, 101, 104]
        );
    }

    #[test]
    fn pow2_ratios() {
        assert_eq!(pow2_ratio(0), Ratio::one());
        assert_eq!(pow2_ratio(3), Ratio::new(8, 1));
        assert_eq!(pow2_ratio(-2), Ratio::new(1, 4));
    }

    #[test]
    fn densest_respects_restriction() {
        let ls = wheel();
        // Restricted to {0, 1, 3}: pairs (0,1) and (3,0) live inside,
        // density 2/3.
        let within = vec![true, true, false, true];
        let (member, d) = ls.densest(Some(&within)).unwrap();
        assert_eq!(d, Ratio::new(2, 3));
        assert!(member.iter().zip(&within).all(|(&m, &w)| !m || w));
    }

    #[test]
    fn choose_star_fresh_takes_densest_and_grows() {
        let ls = wheel();
        // Rounded density of 5/4 is 2; threshold 2/4 = 1/2.
        let choice = ls.choose_star(Ratio::new(1, 2), None).unwrap();
        assert!(!choice.fallback);
        // The grown star must meet the threshold.
        assert!(ls.density_of(&choice.member).unwrap() >= Ratio::new(1, 2));
        // All leaves qualify here: the whole neighborhood has density 5/4.
        assert_eq!(choice.member, vec![true; 4]);
    }

    #[test]
    fn choose_star_keeps_previous_when_dense_enough() {
        let ls = wheel();
        let prev = vec![true, true, true, false]; // density 1
        let choice = ls.choose_star(Ratio::new(1, 2), Some(&prev)).unwrap();
        assert!(!choice.fallback);
        assert_eq!(choice.member, prev);
    }

    #[test]
    fn choose_star_shrinks_previous_when_it_degraded() {
        // Previous star {0,1,2,3} but the pairs touching leaf 3 are now
        // covered: only (0,1), (1,2), (0,2) remain.
        let leaves = (0..4)
            .map(|i| Leaf {
                vertex: 10 + i,
                weight: 1,
                edges: IdList::one(i),
            })
            .collect();
        let pairs = [(0, 1), (1, 2), (0, 2)]
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| Pair {
                a,
                b,
                items: IdList::one(k),
            })
            .collect();
        let ls = LocalStars { leaves, pairs };
        let prev = vec![true; 4];
        // threshold 1: prev has density 3/4 < 1, densest within prev is
        // {0,1,2} with density 1.
        let choice = ls.choose_star(Ratio::one(), Some(&prev)).unwrap();
        assert!(!choice.fallback);
        assert_eq!(choice.member, vec![true, true, true, false]);
        // The choice is a subset of prev (Claim 4.4 invariant).
        assert!(choice.member.iter().zip(&prev).all(|(&m, &p)| !m || p));
    }

    #[test]
    fn zero_weight_leaves_always_join() {
        let leaves = vec![
            Leaf {
                vertex: 1,
                weight: 0,
                edges: IdList::one(0),
            },
            Leaf {
                vertex: 2,
                weight: 3,
                edges: IdList::one(1),
            },
            Leaf {
                vertex: 3,
                weight: 3,
                edges: IdList::one(2),
            },
        ];
        let pairs = vec![
            Pair {
                a: 0,
                b: 1,
                items: IdList::one(7),
            },
            Pair {
                a: 1,
                b: 2,
                items: IdList::one(8),
            },
        ];
        let ls = LocalStars { leaves, pairs };
        let (member, d) = ls.densest(None).unwrap();
        assert!(member[0], "free leaf must be included");
        assert_eq!(d, ls.density_of(&member).unwrap());
    }

    #[test]
    fn empty_pairs_mean_no_star() {
        let ls = LocalStars {
            leaves: vec![Leaf {
                vertex: 1,
                weight: 1,
                edges: IdList::one(0),
            }],
            pairs: Vec::new(),
        };
        assert!(ls.is_empty());
        assert_eq!(ls.max_density(), None);
        assert!(ls.choose_star(Ratio::one(), None).is_none());
    }

    /// Strategy: a star space of 1–20 leaves with random pairs spanning
    /// one or two items, plus a random `within` mask (or none). Leaf
    /// weights are 0–7, and up to 2^40 for about one leaf in eight, so
    /// some spaces take the `densest_pair` fallback past the guard.
    fn space_and_mask() -> impl Strategy<Value = (LocalStars, Option<Vec<bool>>)> {
        (1usize..=20).prop_flat_map(|l| {
            (
                proptest::collection::vec((0u64..=7, 0u64..=1 << 40, 0u32..8), l),
                proptest::collection::vec(0u32..5, l * (l - 1) / 2),
                proptest::collection::vec(0u32..4, l),
                0u32..4,
            )
                .prop_map(move |(weights, pair_draws, mask_draws, masked)| {
                    let leaves = weights
                        .iter()
                        .enumerate()
                        .map(|(i, &(light, heavy, pick))| Leaf {
                            vertex: 100 + i,
                            weight: if pick == 0 { heavy } else { light },
                            edges: IdList::one(i),
                        })
                        .collect();
                    let all_pairs = (0..l).flat_map(|a| ((a + 1)..l).map(move |b| (a, b)));
                    let pairs = all_pairs
                        .zip(pair_draws)
                        .enumerate()
                        .filter_map(|(k, ((a, b), draw))| {
                            let items = match draw {
                                0 | 1 => IdList::one(2 * k),
                                2 => IdList::two(2 * k, 2 * k + 1),
                                _ => return None,
                            };
                            Some(Pair { a, b, items })
                        })
                        .collect();
                    let within = (masked > 0).then(|| mask_draws.iter().map(|&d| d > 0).collect());
                    (LocalStars { leaves, pairs }, within)
                })
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One oracle arena, and one star-choice arena, reused across
        /// star spaces that grow and shrink must answer each exactly as
        /// fresh calls do.
        #[test]
        fn reused_arenas_match_fresh_calls(
            sequence in proptest::collection::vec(space_and_mask(), 1..9)
        ) {
            let mut oracle = OracleScratch::default();
            let mut star = StarScratch::default();
            for (ls, within) in &sequence {
                let within = within.as_deref();
                prop_assert_eq!(ls.densest_with(within, &mut oracle), ls.densest(within));
                let threshold = Ratio::new(1, 4);
                let reused = ls.choose_star_with(threshold, within, &mut star);
                let fresh = ls.choose_star(threshold, within);
                prop_assert_eq!(
                    reused.map(|c| (c.member, c.fallback)),
                    fresh.map(|c| (c.member, c.fallback))
                );
            }
        }
    }
}
