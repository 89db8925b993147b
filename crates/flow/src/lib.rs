//! Max-flow and densest-subgraph machinery.
//!
//! Section 4 of *Distributed Spanner Approximation* computes, at every
//! vertex `v`, the **densest v-star** with respect to the uncovered edges
//! between `v`'s neighbors. Choosing the leaf set `A ⊆ N(v)` of a star is
//! exactly choosing a vertex subset of the *local graph* on `N(v)` whose
//! edges are the uncovered edges, and the star's density `|C_S|/|S|` is
//! the classic subgraph density `|E(A)|/|A|`. The paper points to the
//! flow techniques of Gallo–Grigoriadis–Tarjan; we implement the
//! equivalent and better-known Goldberg reduction on top of
//! [Dinic's max-flow algorithm](MaxFlow).
//!
//! [`densest_weighted_subgraph`] finds the optimum by Dinkelbach's
//! fractional-programming iteration: each min cut, taken at the density
//! of the last set found, either returns a strictly denser set or
//! proves it optimal, so a call takes a handful of cuts on one network
//! whose capacities are refilled between cuts. Every capacity stays
//! within `2·m·W` (`m` the total multiplicity, `W` the total vertex
//! weight). The returned set is canonical — the intersection of all
//! densest sets of maximum total weight — so it is a pure function of
//! the local graph, and the stars, and spanner bytes, chosen from it
//! are too.
//!
//! # Example
//!
//! ```
//! use dsa_flow::densest_subgraph;
//!
//! // A triangle {0,1,2} plus an isolated vertex 3: the densest subgraph
//! // is the triangle, with density 3/3 = 1 (the full vertex set only
//! // reaches 3/4).
//! let edges = [(0, 1), (1, 2), (0, 2)];
//! let best = densest_subgraph(4, &edges).unwrap();
//! assert_eq!(best.vertices, vec![0, 1, 2]);
//! assert_eq!(best.density, dsa_graphs::Ratio::new(1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dinic;
mod goldberg;

pub use dinic::MaxFlow;
pub use goldberg::{
    densest_subgraph, densest_subgraph_brute_force, densest_weighted_subgraph,
    densest_weighted_subgraph_brute_force, Densest,
};
