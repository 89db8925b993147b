//! Golden pins of the lower-bound constructions' bytes.
//!
//! Each digest is FNV-1a over `n`, `m`, every `(id, u, v)` in id
//! order, every vertex's adjacency lists in stored order, the
//! dense-component edge ids and the weights. The digests were recorded
//! while the constructions still added their edges one `add_edge` call
//! at a time, before they moved to one bulk `from_edges` build; any
//! change to a construction's edge order, ids, dense set or weights
//! fails here.
//!
//! Print the current digests (only when a construction is meant to
//! change) with:
//!
//! ```text
//! LB_GOLDEN_PRINT=1 cargo test --release -p dsa-lowerbounds --test golden -- --nocapture
//! ```

use dsa_graphs::canon::Fnv1a;
use dsa_graphs::{gen, DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_lowerbounds::construction_g::{GConstruction, GParams};
use dsa_lowerbounds::construction_gs::{GsConstruction, GsDirected};
use dsa_lowerbounds::construction_gw::{GwDirected, GwUndirected};
use dsa_lowerbounds::disjointness::{
    random_disjoint, random_far_from_disjoint, random_intersecting, Instance,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eat_pairs(h: &mut Fnv1a, (nbrs, eids): (&[usize], &[usize])) {
    h.write_usize(nbrs.len());
    for (&x, &e) in nbrs.iter().zip(eids) {
        h.write_usize(x);
        h.write_usize(e);
    }
}

fn eat_extras(h: &mut Fnv1a, d_edges: Option<&EdgeSet>, weights: Option<&EdgeWeights>) {
    if let Some(d) = d_edges {
        h.write_usize(d.universe());
        h.write_usize(d.len());
        for e in d.iter() {
            h.write_usize(e);
        }
    }
    if let Some(w) = weights {
        h.write_usize(w.len());
        for (_, x) in w.iter() {
            h.write_u64(x);
        }
    }
}

fn digraph_digest(g: &DiGraph, d_edges: Option<&EdgeSet>, weights: Option<&EdgeWeights>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(g.num_vertices());
    h.write_usize(g.num_edges());
    for (e, u, v) in g.edges() {
        h.write_usize(e);
        h.write_usize(u);
        h.write_usize(v);
    }
    for v in g.vertices() {
        eat_pairs(&mut h, g.out_neighbor_slices(v));
        eat_pairs(&mut h, g.in_neighbor_slices(v));
    }
    eat_extras(&mut h, d_edges, weights);
    h.finish()
}

fn graph_digest(g: &Graph, d_edges: Option<&EdgeSet>, weights: Option<&EdgeWeights>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(g.num_vertices());
    h.write_usize(g.num_edges());
    for (e, u, v) in g.edges() {
        h.write_usize(e);
        h.write_usize(u);
        h.write_usize(v);
    }
    for v in g.vertices() {
        eat_pairs(&mut h, g.neighbor_slices(v));
    }
    eat_extras(&mut h, d_edges, weights);
    h.finish()
}

fn g_digest(params: GParams, instance: Instance) -> u64 {
    let c = GConstruction::build(params, instance);
    digraph_digest(&c.graph, Some(&c.d_edges), None)
}

/// Compares computed `(name, digest)` pairs with a pinned table, or
/// prints them in table form under `LB_GOLDEN_PRINT`.
fn check(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    if std::env::var_os("LB_GOLDEN_PRINT").is_some() {
        for (name, d) in actual {
            println!("    (\"{name}\", {d:#018x}),");
        }
        return;
    }
    assert_eq!(actual.len(), golden.len(), "golden table length");
    for ((name, d), &(gname, gd)) in actual.iter().zip(golden) {
        assert_eq!(name, gname, "golden table order");
        assert_eq!(*d, gd, "{name}: construction bytes changed");
    }
}

#[test]
fn g_at_the_lb_dichotomy_levels() {
    // ℓ = 2 and β = 2q for q = 8…12, the sizes perfbench's
    // lb_dichotomy decides on.
    let mut actual = Vec::new();
    for q in 8..=12usize {
        let params = GParams {
            ell: 2,
            beta: 2 * q,
        };
        let mut rng = StdRng::seed_from_u64(q as u64);
        let bits = params.input_len();
        let disjoint = random_disjoint(bits, &mut rng);
        let intersecting = random_intersecting(bits, 1 + q % bits, &mut rng);
        actual.push((format!("q{q}-disjoint"), g_digest(params, disjoint)));
        actual.push((format!("q{q}-intersecting"), g_digest(params, intersecting)));
    }
    check(&actual, &G_LEVELS);
}

const G_LEVELS: [(&str, u64); 10] = [
    ("q8-disjoint", 0x5280c3d07bff7ecc),
    ("q8-intersecting", 0x41473eeb5de7fa92),
    ("q9-disjoint", 0xda284cf692ad0040),
    ("q9-intersecting", 0x49b097c397ecc0f5),
    ("q10-disjoint", 0x3bdb8f5786ee203a),
    ("q10-intersecting", 0xb9da953736c128f9),
    ("q11-disjoint", 0x1aa2279af83fc7fa),
    ("q11-intersecting", 0xfa1013ab61b14a3f),
    ("q12-disjoint", 0x958dcaf412076120),
    ("q12-intersecting", 0x4499cb81606f8207),
];

#[test]
fn g_at_the_hardness_proof_parameters() {
    // The parameters and instances of tests/hardness.rs: Theorem 1.1's
    // randomized choice and Theorem 2.8's deterministic one.
    let randomized = GParams::for_alpha(1_200, 1.0);
    assert_eq!(randomized, GParams { ell: 4, beta: 32 });
    let deterministic = GParams::for_alpha_deterministic(1_300, 1.0);
    assert_eq!(deterministic, GParams { ell: 16, beta: 11 });

    let mut rng = StdRng::seed_from_u64(1);
    let bits = randomized.input_len();
    let disjoint = random_disjoint(bits, &mut rng);
    let intersecting = random_intersecting(bits, 1, &mut rng);
    let mut actual = vec![
        ("l4b32-disjoint".to_string(), g_digest(randomized, disjoint)),
        (
            "l4b32-intersecting".to_string(),
            g_digest(randomized, intersecting),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(2);
    let bits = deterministic.input_len();
    let disjoint = random_disjoint(bits, &mut rng);
    let far = random_far_from_disjoint(bits, &mut rng);
    actual.push((
        "l16b11-disjoint".to_string(),
        g_digest(deterministic, disjoint),
    ));
    actual.push(("l16b11-far".to_string(), g_digest(deterministic, far)));
    check(&actual, &G_PROOF);
}

const G_PROOF: [(&str, u64); 4] = [
    ("l4b32-disjoint", 0xbc59fbed74010202),
    ("l4b32-intersecting", 0x143a2541aeaa9ce1),
    ("l16b11-disjoint", 0xb21f49e65fac1670),
    ("l16b11-far", 0x67aac955384257ea),
];

#[test]
fn gs_reductions() {
    let mut rng = StdRng::seed_from_u64(10);
    let g = gen::gnp_connected(10, 0.4, &mut rng);
    let gs = GsConstruction::build(&g);
    let gs01 = GsConstruction::build_01(&g);
    let gsd = GsDirected::build(&g);
    let actual = vec![
        (
            "gs".to_string(),
            graph_digest(&gs.graph, None, Some(&gs.weights)),
        ),
        (
            "gs01".to_string(),
            graph_digest(&gs01.graph, None, Some(&gs01.weights)),
        ),
        (
            "gs-directed".to_string(),
            digraph_digest(&gsd.graph, None, Some(&gsd.weights)),
        ),
    ];
    check(&actual, &GS);
}

const GS: [(&str, u64); 3] = [
    ("gs", 0xbda6cc54e53b4f75),
    ("gs01", 0xadc02ff1fd86f6d5),
    ("gs-directed", 0x3c1f20cc64c0b315),
];

#[test]
fn gw_constructions() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut actual = Vec::new();
    for ell in [4usize, 8] {
        for (kind, instance) in [
            ("disjoint", random_disjoint(ell * ell, &mut rng)),
            ("intersecting", random_intersecting(ell * ell, 1, &mut rng)),
        ] {
            let c = GwDirected::build(ell, instance);
            actual.push((
                format!("gw-directed-l{ell}-{kind}"),
                digraph_digest(&c.graph, Some(&c.d_edges), Some(&c.weights)),
            ));
        }
    }
    let ell = 6;
    for k in 4..=7usize {
        for (kind, instance) in [
            ("disjoint", random_disjoint(ell * ell, &mut rng)),
            ("intersecting", random_intersecting(ell * ell, 1, &mut rng)),
        ] {
            let c = GwUndirected::build(ell, k, instance);
            actual.push((
                format!("gw-undirected-l{ell}-k{k}-{kind}"),
                graph_digest(&c.graph, Some(&c.d_edges), Some(&c.weights)),
            ));
        }
    }
    check(&actual, &GW);
}

const GW: [(&str, u64); 12] = [
    ("gw-directed-l4-disjoint", 0x9530a8c46ffca37a),
    ("gw-directed-l4-intersecting", 0x01ebd6c9dabf2b79),
    ("gw-directed-l8-disjoint", 0x4ad65a7cf8598336),
    ("gw-directed-l8-intersecting", 0x9d3f111dc4ed8dc6),
    ("gw-undirected-l6-k4-disjoint", 0xea3128f4687a5fe1),
    ("gw-undirected-l6-k4-intersecting", 0x978acdc6e871a102),
    ("gw-undirected-l6-k5-disjoint", 0x53e5f258fcc75cb6),
    ("gw-undirected-l6-k5-intersecting", 0x2d19770cac780506),
    ("gw-undirected-l6-k6-disjoint", 0xc9f7878410d2f46e),
    ("gw-undirected-l6-k6-intersecting", 0x48698d9b3d8e70ab),
    ("gw-undirected-l6-k7-disjoint", 0xade970569c5529ca),
    ("gw-undirected-l6-k7-intersecting", 0x3b602781136a8a0d),
];
