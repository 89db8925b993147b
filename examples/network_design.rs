//! Network design with heterogeneous links: the weighted and
//! client-server 2-spanner variants on a realistic scenario.
//!
//! Scenario: a data-center-ish topology where a few core routers are
//! densely interconnected by cheap fiber and many edge switches hang
//! off them over expensive long-haul links. We want a sparse backbone
//! that 2-spans every adjacency — paying as little link cost as
//! possible — and, in a second pass, a client-server instance where
//! only *backbone-eligible* links (servers) may be kept while all
//! switch-to-switch adjacencies (clients) must stay 2-spanned.
//!
//! Run with: `cargo run --example network_design`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spanner_repro::core::dist::{
    min_2_spanner_client_server, min_2_spanner_weighted, EngineConfig,
};
use spanner_repro::core::verify::{is_client_server_2_spanner, is_k_spanner, spanner_cost};
use spanner_repro::graphs::{EdgeSet, EdgeWeights, Graph};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let cores = 8;
    let switches = 60;
    let n = cores + switches;
    let mut edges = Vec::new();
    // Dense core.
    for a in 0..cores {
        for b in (a + 1)..cores {
            edges.push((a, b));
        }
    }
    // Each switch attaches to 2-3 distinct random cores; nearby
    // switches peer.
    for s in cores..n {
        let k = rng.gen_range(2..=3);
        let mut attached = Vec::with_capacity(k);
        while attached.len() < k {
            let c = rng.gen_range(0..cores);
            if !attached.contains(&c) {
                attached.push(c);
                edges.push((s, c));
            }
        }
        if s > cores && rng.gen_bool(0.5) {
            edges.push((s, s - 1));
        }
    }
    let g = Graph::from_edges(n, edges);
    println!(
        "topology: n = {n}, m = {}, Δ = {}",
        g.num_edges(),
        g.max_degree()
    );

    // Weighted variant: core-core links cost 1, core-switch 10,
    // switch-switch 25.
    let w = EdgeWeights::from_fn(g.num_edges(), |e| {
        let (u, v) = g.endpoints(e);
        match (u < cores, v < cores) {
            (true, true) => 1,
            (true, false) | (false, true) => 10,
            (false, false) => 25,
        }
    });
    let run = min_2_spanner_weighted(&g, &w, &EngineConfig::seeded(1));
    assert!(run.converged);
    assert!(is_k_spanner(&g, &run.spanner, 2));
    println!(
        "weighted backbone: {} of {} edges, cost {} of {} ({} iterations)",
        run.spanner.len(),
        g.num_edges(),
        spanner_cost(&run.spanner, &w),
        w.total(),
        run.iterations
    );

    // Client-server variant: all adjacencies are clients; only links
    // touching a core are servers (eligible for the backbone).
    let clients = EdgeSet::full(g.num_edges());
    let mut servers = EdgeSet::new(g.num_edges());
    for (e, u, v) in g.edges() {
        if u < cores || v < cores {
            servers.insert(e);
        }
    }
    let cs = min_2_spanner_client_server(&g, &clients, &servers, &EngineConfig::seeded(2));
    assert!(cs.converged);
    assert!(is_client_server_2_spanner(
        &g,
        &clients,
        &servers,
        &cs.spanner
    ));
    println!(
        "client-server backbone: {} server edges keep every coverable adjacency 2-spanned",
        cs.spanner.len()
    );
    let uncoverable = clients.len()
        - spanner_repro::core::verify::coverable_clients(&g, &clients, &servers).len();
    println!("({uncoverable} switch-switch adjacencies have no server coverage and are excluded, as in §4.3.3)");
}
