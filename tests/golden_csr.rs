//! Golden pins of `SpannerRun` results across the graph-representation
//! change (flat CSR, PR 6).
//!
//! The digests below were recorded from the pre-CSR adjacency-list
//! representation (`Vec<Vec<(VertexId, EdgeId)>>` + `BTreeMap` edge
//! index). The CSR refactor is required to be a *layout* change only:
//! identical `SpannerRun` output for every variant, seed, and shard
//! count. These tests fail if any future representation change alters
//! a single spanner bit, an iteration count, or a per-iteration stat.
//!
//! The second test pins the same digest on instances at the
//! benchmark's cold-job shape (including a weighted one whose weight-0
//! edges are preselected), on a dense directed instance, and under each
//! ablation of `EngineConfig`,
//! so the engine's incremental state (carried star spaces, coverage
//! deltas) cannot drift on any path the service runs.
//!
//! The third pins the spanners of the four sequential greedy baselines
//! (`dsa_core::seq`) on both instance tables, so the way they track
//! coverage between greedy steps cannot change what they return.
//!
//! Regenerate (only when an *intentional* result change lands, e.g. a
//! new RNG stream) with:
//!
//! ```text
//! GOLDEN_CSR_PRINT=1 cargo test --test golden_csr -- --nocapture
//! ```

use dsa_core::dist::{run_variant, EngineConfig, SpannerRun, VariantInstance};
use dsa_graphs::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a canonical byte rendering of every result-relevant
/// field of a run — the same identity the service's byte-identical
/// response contract rests on.
fn digest(run: &SpannerRun) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(run.spanner.universe() as u64);
    eat(run.spanner.len() as u64);
    for e in run.spanner.iter() {
        eat(e as u64);
    }
    eat(run.iterations);
    eat(u64::from(run.converged));
    eat(u64::from(run.cancelled));
    eat(run.star_fallbacks);
    for s in &run.stats {
        eat(s.candidates as u64);
        eat(s.accepted as u64);
        eat(s.added_edges as u64);
        eat(s.uncovered as u64);
    }
    h
}

/// The pinned instances: one per variant, sized to exercise several
/// iterations but stay fast in debug builds.
fn instances() -> Vec<(&'static str, VariantInstance)> {
    let mut rng = StdRng::seed_from_u64(2018);
    let g = gen::gnp_connected(48, 0.18, &mut rng);
    let weights = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let d = gen::random_digraph_connected(28, 0.14, &mut rng);
    let cs = gen::gnp_connected(40, 0.2, &mut rng);
    let (clients, servers) = gen::client_server_split(&cs, 0.6, 0.6, &mut rng);
    vec![
        (
            "undirected",
            VariantInstance::Undirected { graph: g.clone() },
        ),
        ("directed", VariantInstance::Directed { graph: d }),
        ("weighted", VariantInstance::Weighted { graph: g, weights }),
        (
            "client-server",
            VariantInstance::ClientServer {
                graph: cs,
                clients,
                servers,
            },
        ),
    ]
}

const SEEDS: [u64; 2] = [7, 41];
const SHARDS: [usize; 3] = [1, 4, 8];

/// variant name, engine seed, expected digest (shard-independent).
const GOLDEN: [(&str, u64, u64); 8] = [
    ("undirected", 7, 0xa5da0da2db115535),
    ("undirected", 41, 0xa6913ea8511e4109),
    ("directed", 7, 0x2da015c4cc7b8cda),
    ("directed", 41, 0x2da015c4cc7b8cda),
    ("weighted", 7, 0x81f053957ebfed81),
    ("weighted", 41, 0x86ade9dfb79800bf),
    ("client-server", 7, 0x494698cab8424971),
    ("client-server", 41, 0xf589bed195102f16),
];

#[test]
fn spanner_run_bytes_are_pinned_across_representations() {
    let print = std::env::var_os("GOLDEN_CSR_PRINT").is_some();
    let mut golden = GOLDEN.iter();
    for (name, instance) in instances() {
        for seed in SEEDS {
            let mut first: Option<(usize, u64)> = None;
            for shards in SHARDS {
                let cfg = EngineConfig {
                    num_shards: shards,
                    ..EngineConfig::seeded(seed)
                };
                let run = run_variant(&instance, &cfg);
                assert!(run.converged, "{name} seed {seed} did not converge");
                let d = digest(&run);
                match first {
                    None => first = Some((shards, d)),
                    Some((s0, d0)) => assert_eq!(
                        d, d0,
                        "{name} seed {seed}: digest differs between {s0} and {shards} shards"
                    ),
                }
            }
            let (_, d) = first.expect("at least one shard count");
            if print {
                println!("    (\"{name}\", {seed}, {d:#018x}),");
            } else {
                let &(gname, gseed, gd) = golden.next().expect("golden table too short");
                assert_eq!((gname, gseed), (name, seed), "golden table order");
                assert_eq!(
                    d, gd,
                    "{name} seed {seed}: SpannerRun digest changed — the graph \
                     representation altered engine output"
                );
            }
        }
    }
}

/// Instances at the benchmark's cold-job shape: about 150 vertices of
/// average degree about 11, weights 1–9, one per variant, plus a
/// weighted one with weights 0–5 so the weight-0 edges are preselected
/// and the engine's coverage starts from them. A directed job of that
/// shape finishes in its first iteration, so a dense directed instance
/// (three iterations) joins them.
fn engine_path_instances() -> Vec<(&'static str, VariantInstance)> {
    let mut rng = StdRng::seed_from_u64(2022);
    let n = 150;
    let p = 11.0 / n as f64;
    let g = gen::gnp_connected(n, p, &mut rng);
    let d = gen::random_digraph_connected(n, p / 2.0, &mut rng);
    let wg = gen::gnp_connected(n, p, &mut rng);
    let weights = gen::random_weights(wg.num_edges(), 1, 9, &mut rng);
    let zg = gen::gnp_connected(n, p, &mut rng);
    let zero_weights = gen::random_weights(zg.num_edges(), 0, 5, &mut rng);
    let cs = gen::gnp_connected(n, p, &mut rng);
    let (clients, servers) = gen::client_server_split(&cs, 0.6, 0.6, &mut rng);
    let dense = gen::random_digraph_connected(60, 0.35, &mut rng);
    vec![
        ("cold-undirected", VariantInstance::Undirected { graph: g }),
        ("cold-directed", VariantInstance::Directed { graph: d }),
        (
            "cold-weighted",
            VariantInstance::Weighted { graph: wg, weights },
        ),
        (
            "cold-weighted-zero",
            VariantInstance::Weighted {
                graph: zg,
                weights: zero_weights,
            },
        ),
        (
            "cold-client-server",
            VariantInstance::ClientServer {
                graph: cs,
                clients,
                servers,
            },
        ),
        ("dense-directed", VariantInstance::Directed { graph: dense }),
    ]
}

/// The ablation configurations of the engine, by name.
fn ablations(seed: u64) -> [(&'static str, EngineConfig); 3] {
    [
        (
            "monotone_stars=false",
            EngineConfig {
                monotone_stars: false,
                ..EngineConfig::seeded(seed)
            },
        ),
        (
            "round_densities=false",
            EngineConfig {
                round_densities: false,
                ..EngineConfig::seeded(seed)
            },
        ),
        (
            "accept_denominator=3",
            EngineConfig {
                accept_denominator: 3,
                ..EngineConfig::seeded(seed)
            },
        ),
    ]
}

/// row label, expected digest: the engine-path instances at seed 7 (at
/// 1 and 3 shards), then every ablation on all ten instances at seed
/// 41.
const GOLDEN_ENGINE_PATHS: [(&str, u64); 36] = [
    ("cold-undirected", 0x2e68bc80a1c72fc2),
    ("cold-directed", 0x3283165b16a4094f),
    ("cold-weighted", 0x9844ff4364cf59fc),
    ("cold-weighted-zero", 0x204dd50818c69268),
    ("cold-client-server", 0x1e852acea7d15ffc),
    ("dense-directed", 0x9695d8464395648e),
    ("monotone_stars=false/undirected", 0xa6913ea8511e4109),
    ("monotone_stars=false/directed", 0x2da015c4cc7b8cda),
    ("monotone_stars=false/weighted", 0x86ade9dfb79800bf),
    ("monotone_stars=false/client-server", 0xf589bed195102f16),
    ("monotone_stars=false/cold-undirected", 0x2e68bc80a1c72fc2),
    ("monotone_stars=false/cold-directed", 0x3283165b16a4094f),
    ("monotone_stars=false/cold-weighted", 0xe6b8fc428ce1d4db),
    (
        "monotone_stars=false/cold-weighted-zero",
        0x3917bf59008ca899,
    ),
    (
        "monotone_stars=false/cold-client-server",
        0x743d0fb62bff02c2,
    ),
    ("monotone_stars=false/dense-directed", 0x4a8ad678d69be867),
    ("round_densities=false/undirected", 0x932e359fde1291a4),
    ("round_densities=false/directed", 0x2da015c4cc7b8cda),
    ("round_densities=false/weighted", 0x2f1da8fd500e3926),
    ("round_densities=false/client-server", 0x43c8023300679be5),
    ("round_densities=false/cold-undirected", 0xe46414e93828d70c),
    ("round_densities=false/cold-directed", 0x3283165b16a4094f),
    ("round_densities=false/cold-weighted", 0xe171f95a9e39f0b4),
    (
        "round_densities=false/cold-weighted-zero",
        0x6416e71ed654b972,
    ),
    (
        "round_densities=false/cold-client-server",
        0xdf2f8f6d574f45f6,
    ),
    ("round_densities=false/dense-directed", 0x5495ebe015bb54fb),
    ("accept_denominator=3/undirected", 0xd89197a6293657a2),
    ("accept_denominator=3/directed", 0x2da015c4cc7b8cda),
    ("accept_denominator=3/weighted", 0x86ade9dfb79800bf),
    ("accept_denominator=3/client-server", 0xf589bed195102f16),
    ("accept_denominator=3/cold-undirected", 0x2e68bc80a1c72fc2),
    ("accept_denominator=3/cold-directed", 0x3283165b16a4094f),
    ("accept_denominator=3/cold-weighted", 0xe6b8fc428ce1d4db),
    (
        "accept_denominator=3/cold-weighted-zero",
        0x3917bf59008ca899,
    ),
    (
        "accept_denominator=3/cold-client-server",
        0xd735005a8675f1f0,
    ),
    ("accept_denominator=3/dense-directed", 0x04b284d67aea8685),
];

#[test]
fn spanner_run_bytes_are_pinned_at_cold_shape_and_under_ablations() {
    let mut rows: Vec<(String, u64)> = Vec::new();
    for (name, instance) in engine_path_instances() {
        let runs: Vec<u64> = [1, 3]
            .into_iter()
            .map(|shards| {
                let cfg = EngineConfig {
                    num_shards: shards,
                    ..EngineConfig::seeded(7)
                };
                let run = run_variant(&instance, &cfg);
                assert!(run.converged, "{name} did not converge");
                digest(&run)
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{name}: digest differs by shards");
        rows.push((name.to_string(), runs[0]));
    }
    let pinned: Vec<_> = instances()
        .into_iter()
        .chain(engine_path_instances())
        .collect();
    for (ablation, cfg) in ablations(41) {
        for (name, instance) in &pinned {
            let run = run_variant(instance, &cfg);
            assert!(run.converged, "{ablation} {name} did not converge");
            rows.push((format!("{ablation}/{name}"), digest(&run)));
        }
    }
    if std::env::var_os("GOLDEN_CSR_PRINT").is_some() {
        for (label, d) in &rows {
            println!("    (\"{label}\", {d:#018x}),");
        }
        return;
    }
    assert_eq!(rows.len(), GOLDEN_ENGINE_PATHS.len(), "golden table size");
    for ((label, d), &(glabel, gd)) in rows.iter().zip(&GOLDEN_ENGINE_PATHS) {
        assert_eq!(label, glabel, "golden table order");
        assert_eq!(*d, gd, "{label}: SpannerRun digest changed");
    }
}

/// FNV-1a over an edge set's universe, size and ids.
fn set_digest(h: &dsa_graphs::EdgeSet) -> u64 {
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            d ^= u64::from(b);
            d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(h.universe() as u64);
    eat(h.len() as u64);
    for e in h.iter() {
        eat(e as u64);
    }
    d
}

/// instance label, expected digest of the sequential greedy baseline's
/// spanner, over both instance tables (the weighted ones include
/// weight-0 edges, which the weighted greedy preselects).
const GOLDEN_GREEDY: [(&str, u64); 10] = [
    ("undirected", 0x3a43c9b2406200f0),
    ("directed", 0xd989ac41a0910504),
    ("weighted", 0x7f1770f75cf0babb),
    ("client-server", 0x307a29b2c1bc9cba),
    ("cold-undirected", 0xc8deb5e57261b3cf),
    ("cold-directed", 0x9b2ea3c032d34990),
    ("cold-weighted", 0x038be5049e7fcd07),
    ("cold-weighted-zero", 0x538262313ddcbc01),
    ("cold-client-server", 0x122df7187d55a396),
    ("dense-directed", 0xe3519711be005d28),
];

#[test]
fn greedy_baseline_bytes_are_pinned() {
    use dsa_core::seq;
    let mut rows: Vec<(&str, u64)> = Vec::new();
    for (name, instance) in instances().into_iter().chain(engine_path_instances()) {
        let h = match &instance {
            VariantInstance::Undirected { graph } => seq::greedy_2_spanner(graph),
            VariantInstance::Directed { graph } => seq::greedy_2_spanner_directed(graph),
            VariantInstance::Weighted { graph, weights } => {
                seq::greedy_2_spanner_weighted(graph, weights)
            }
            VariantInstance::ClientServer {
                graph,
                clients,
                servers,
            } => seq::greedy_2_spanner_client_server(graph, clients, servers),
        };
        rows.push((name, set_digest(&h)));
    }
    if std::env::var_os("GOLDEN_CSR_PRINT").is_some() {
        for (label, d) in &rows {
            println!("    (\"{label}\", {d:#018x}),");
        }
        return;
    }
    assert_eq!(rows.len(), GOLDEN_GREEDY.len(), "golden table size");
    for ((label, d), &(glabel, gd)) in rows.iter().zip(&GOLDEN_GREEDY) {
        assert_eq!(*label, glabel, "golden table order");
        assert_eq!(*d, gd, "{label}: greedy spanner digest changed");
    }
}
