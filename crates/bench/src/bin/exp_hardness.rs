//! E6–E9 — the Section 2–3 hardness results, executed.
//!
//! Every row's dichotomy is checked, not only printed: the process
//! exits 1 after the tables if any row breaks its dichotomy.

#![forbid(unsafe_code)]

use dsa_bench::{banner, f2, Table};
use dsa_core::dist::{min_2_spanner_weighted, EngineConfig};
use dsa_core::verify::spanner_cost;
use dsa_graphs::gen;
use dsa_lowerbounds::construction_g::{GConstruction, GParams};
use dsa_lowerbounds::construction_gs::GsConstruction;
use dsa_lowerbounds::construction_gw::{GwDirected, GwUndirected};
use dsa_lowerbounds::disjointness::{
    random_disjoint, random_far_from_disjoint, random_intersecting,
};
use dsa_lowerbounds::two_party::{
    decide_disjointness_by_spanner, flood_with_metered_cut, predicted_rounds_deterministic,
    predicted_rounds_randomized,
};
use dsa_lowerbounds::vc::{exact_vertex_cover, greedy_vertex_cover, is_vertex_cover};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(6);
    // Rows whose dichotomy failed, reported after every table printed.
    let mut broken: Vec<String> = Vec::new();

    banner(
        "E6",
        "Theorem 1.1 / Lemma 2.3 — spanner-size dichotomy on G(ℓ,β) with proof parameters, and the Lemma 2.4 decision rule",
    );
    let mut t = Table::new([
        "α",
        "ℓ",
        "β",
        "n",
        "disjoint |H|",
        "bound 7ℓβ",
        "forced (1 bit)",
        "α·t",
        "rule correct",
    ]);
    for alpha in [1.0f64, 2.0, 4.0] {
        let params = GParams::for_alpha(2_500, alpha);
        let d = GConstruction::build(params, random_disjoint(params.input_len(), &mut rng));
        let i = GConstruction::build(params, random_intersecting(params.input_len(), 1, &mut rng));
        let (dec_d, _, t_thresh) = decide_disjointness_by_spanner(&d, alpha);
        let (dec_i, forced, _) = decide_disjointness_by_spanner(&i, alpha);
        let rule_correct = dec_d && !dec_i;
        if !rule_correct {
            broken.push(format!("E6 α = {alpha}: the decision rule erred"));
        }
        t.row([
            f2(alpha),
            params.ell.to_string(),
            params.beta.to_string(),
            params.num_vertices().to_string(),
            d.non_d_spanner().len().to_string(),
            d.disjoint_spanner_bound().to_string(),
            forced.to_string(),
            f2(alpha * t_thresh),
            rule_correct.to_string(),
        ]);
    }
    t.print();

    banner(
        "E6b",
        "communication accounting: the ℓ²-bit input vs the Θ(ℓ)-edge cut (naive flooding measured), plus the theorem's round bounds",
    );
    let mut t = Table::new([
        "ℓ",
        "β",
        "n",
        "cut",
        "input bits",
        "flood cut-bits",
        "Ω rand (α=1)",
        "Ω det (α=1)",
    ]);
    for (ell, beta) in [(2usize, 4usize), (3, 6), (4, 8)] {
        let params = GParams { ell, beta };
        let c = GConstruction::build(params, random_disjoint(params.input_len(), &mut rng));
        let (metrics, complete) = flood_with_metered_cut(&c, 100_000);
        assert!(complete);
        let n = params.num_vertices();
        t.row([
            ell.to_string(),
            beta.to_string(),
            n.to_string(),
            c.cut_size().to_string(),
            params.input_len().to_string(),
            metrics.cut_bits(n).unwrap().to_string(),
            f2(predicted_rounds_randomized(n, 1.0)),
            f2(predicted_rounds_deterministic(n, 1.0)),
        ]);
    }
    t.print();

    banner(
        "E7",
        "Theorem 2.8 / Lemma 2.6 — gap-disjointness dichotomy (β ≤ ℓ): far inputs force ≥ β²ℓ²/12 dense edges",
    );
    let mut t = Table::new([
        "α",
        "ℓ",
        "β",
        "disjoint |H|",
        "bound 7ℓ²",
        "forced (far)",
        "β²ℓ²/12",
        "separated",
    ]);
    for alpha in [1.0f64, 2.0] {
        let params = GParams::for_alpha_deterministic(1_500, alpha);
        let d = GConstruction::build(params, random_disjoint(params.input_len(), &mut rng));
        let f = GConstruction::build(
            params,
            random_far_from_disjoint(params.input_len(), &mut rng),
        );
        let forced = f.forced_d_edges();
        let bound = params.beta * params.beta * params.ell * params.ell / 12;
        let separated = forced as f64 > alpha * d.disjoint_spanner_bound_gap() as f64;
        if !separated {
            broken.push(format!("E7 α = {alpha}: the cases are not separated"));
        }
        t.row([
            f2(alpha),
            params.ell.to_string(),
            params.beta.to_string(),
            d.non_d_spanner().len().to_string(),
            d.disjoint_spanner_bound_gap().to_string(),
            forced.to_string(),
            bound.to_string(),
            separated.to_string(),
        ]);
    }
    t.print();

    banner(
        "E8",
        "Theorems 2.9/2.10 — weighted constructions: cost-0 k-spanner exists iff inputs disjoint",
    );
    let mut t = Table::new([
        "variant",
        "ℓ",
        "k",
        "disjoint → 0-cost",
        "1 shared bit → 0-cost",
    ]);
    for ell in [4usize, 8, 16] {
        let d = GwDirected::build(ell, random_disjoint(ell * ell, &mut rng));
        let i = GwDirected::build(ell, random_intersecting(ell * ell, 1, &mut rng));
        let (zero_d, zero_i) = (d.zero_cost_spanner_exists(4), i.zero_cost_spanner_exists(4));
        if !zero_d || zero_i {
            broken.push(format!(
                "E8 directed ℓ = {ell}: cost 0 does not track disjointness"
            ));
        }
        t.row([
            "directed".to_string(),
            ell.to_string(),
            "4".to_string(),
            zero_d.to_string(),
            zero_i.to_string(),
        ]);
    }
    for k in 4..=7usize {
        let d = GwUndirected::build(6, k, random_disjoint(36, &mut rng));
        let i = GwUndirected::build(6, k, random_intersecting(36, 1, &mut rng));
        let (zero_d, zero_i) = (d.zero_cost_spanner_exists(), i.zero_cost_spanner_exists());
        if !zero_d || zero_i {
            broken.push(format!(
                "E8 undirected k = {k}: cost 0 does not track disjointness"
            ));
        }
        t.row([
            "undirected".to_string(),
            "6".to_string(),
            k.to_string(),
            zero_d.to_string(),
            zero_i.to_string(),
        ]);
    }
    t.print();

    banner(
        "E9",
        "Claim 3.1 / Lemma 3.2 — MVC via weighted 2-spanner on G_S: exact equality and the distributed round trip",
    );
    let mut t = Table::new([
        "n(G)",
        "m(G)",
        "VC opt",
        "spanner opt",
        "equal",
        "dist cover",
        "greedy VC",
    ]);
    for (n, p) in [(6usize, 0.5), (8, 0.4), (10, 0.3)] {
        let g = gen::gnp_connected(n, p, &mut rng);
        let gs = GsConstruction::build(&g);
        let vc_opt = exact_vertex_cover(&g).len() as u64;
        let (_, span_opt) = dsa_core::seq::exact_min_2_spanner_weighted(&gs.graph, &gs.weights);
        // Distributed weighted 2-spanner -> cover (Lemma 3.2).
        let run = min_2_spanner_weighted(&gs.graph, &gs.weights, &EngineConfig::seeded(3));
        let (cover, normalized) = gs.spanner_to_cover(&run.spanner);
        assert!(is_vertex_cover(&g, &cover));
        assert!(spanner_cost(&normalized, &gs.weights) <= spanner_cost(&run.spanner, &gs.weights));
        if vc_opt != span_opt {
            broken.push(format!(
                "E9 n = {n}: spanner optimum {span_opt} ≠ VC optimum {vc_opt}"
            ));
        }
        t.row([
            n.to_string(),
            g.num_edges().to_string(),
            vc_opt.to_string(),
            span_opt.to_string(),
            (vc_opt == span_opt).to_string(),
            cover.len().to_string(),
            greedy_vertex_cover(&g).len().to_string(),
        ]);
    }
    t.print();

    if !broken.is_empty() {
        for b in &broken {
            eprintln!("exp_hardness: BROKEN: {b}");
        }
        std::process::exit(1);
    }
}
