//! Executable hardness machinery for Sections 2–3 of *Distributed
//! Spanner Approximation* (Censor-Hillel & Dory, PODC 2018).
//!
//! Lower bounds cannot be "run", but every combinatorial ingredient of
//! the proofs can be built and checked on concrete instances:
//!
//! * [`disjointness`] — set-disjointness / gap-disjointness inputs
//!   (the 2-party problems the reductions start from),
//! * [`construction_g`] — the Figure-1 graph `G(ℓ, β)` behind
//!   Theorems 1.1 and 2.8, with executable versions of Claim 2.2 and
//!   the Lemma 2.3 / 2.6 spanner-size dichotomies,
//! * [`construction_gw`] — the Figure-2 weighted graphs behind
//!   Theorems 2.9 and 2.10 (cost-0-spanner dichotomy),
//! * [`construction_gs`] — the Figure-3 MVC reduction behind the
//!   Section-3 bounds, with both directions of Claim 3.1,
//! * [`vc`] — vertex-cover verifier, greedy, and exact solver,
//! * [`two_party`] — the Alice/Bob cut simulation: run any protocol
//!   on a construction while metering the bits that cross the planted
//!   cut, plus the paper's predicted round lower-bound formulas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod construction_g;
pub mod construction_gs;
pub mod construction_gw;
pub mod disjointness;
pub mod two_party;
pub mod vc;

use dsa_graphs::{EdgeWeights, VertexId};

/// The weights of a construction's edges listed as `(u, v, weight)`,
/// in list order, which is edge-id order.
fn weights_of(edges: &[(VertexId, VertexId, u64)]) -> EdgeWeights {
    EdgeWeights::from_vec(edges.iter().map(|&(_, _, w)| w).collect())
}
