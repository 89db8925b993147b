//! S2 — engine scaling: shard scaling of one `run_engine` call plus
//! the single-core before/after gate for the flat-CSR graph core.
//!
//! Two experiments share this binary because they share the identity
//! contract:
//!
//! 1. **Shard scaling** — wall-clock speedup of one job at 1/2/4/8
//!    in-iteration shards, for all four variants, with a byte-identity
//!    check across every shard count (PR 3's guard that sharding
//!    overhead does not rot).
//! 2. **Single-core gate** — fixed, denser "gate instances" timed at
//!    1 shard and compared against the committed pre-refactor baseline
//!    (`BENCH_baseline.json`, recorded with `--record-baseline` before
//!    the CSR refactor landed). The artifact reports
//!    `single_core_speedup` per variant plus a per-phase (Step 1/3/4 +
//!    coverage) breakdown from [`run_variant_timed`]; `--ci` *enforces*
//!    speedup ≥ [`GATE_MIN_SPEEDUP`] on at least
//!    [`GATE_MIN_VARIANTS`] of the four variants.
//!
//! A third check rides along: **instrumentation overhead**. Every row
//! now carries a per-phase breakdown plus per-shard Step 1 seconds
//! (from `EngineConfig::collect_timings`), so the binary also proves
//! that collecting those timings costs < 3% single-core on the gate
//! instances — the `overhead` rows in the artifact; `--ci` enforces
//! the bound.
//!
//! In all experiments the determinism contract is asserted before any
//! timing is reported: identical spanner bytes and identical
//! per-iteration accounting at every shard count (and across the
//! timing toggle). A speedup that changed the answer would be a bug,
//! not a result.
//!
//! Output is one JSON object on stdout (machine-readable; CI uploads
//! it as an artifact) and a human-readable summary on stderr.
//!
//! ```text
//! cargo run --release -p dsa-bench --bin exp_engine_scaling -- \
//!     [n] [--ci] [--tolerance F] [--reps K] \
//!     [--baseline PATH] [--record-baseline]
//! ```
//!
//! `--ci` shrinks the shard-scaling instances (CI machines are small
//! and shared) and *enforces* both gates: the 4-shard no-regression
//! bound (the run fails if the 4-shard time exceeds `tolerance ×` the
//! 1-shard time *plus an absolute slack*, [`ABS_SLACK_SECS`]) and the
//! single-core speedup floor. The absolute slack exists because the
//! smallest CI instances finish in single-digit milliseconds, where
//! scheduler noise alone can exceed any ratio; a genuine overhead
//! regression dwarfs 30 ms, noise does not. The gate instances are
//! deliberately denser (0.3–1.5 s each on the reference 1-core
//! container at baseline) so the speedup ratio is signal, not noise.

#![forbid(unsafe_code)]

use std::time::Instant;

use dsa_core::dist::{
    run_variant, run_variant_timed, EngineConfig, PhaseTimings, SpannerRun, VariantInstance,
};
use dsa_graphs::gen;
use dsa_runtime::json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Absolute slack for the `--ci` shard-regression gate: sub-10ms
/// baselines cannot be held to a pure ratio on shared CI machines.
const ABS_SLACK_SECS: f64 = 0.030;

/// Shard counts whose output must match before the single-core gate
/// times anything.
const GATE_IDENTITY_SHARDS: [usize; 3] = [1, 4, 8];

/// Minimum `single_core_speedup` the `--ci` gate accepts per variant.
const GATE_MIN_SPEEDUP: f64 = 1.5;

/// How many of the four variants must clear [`GATE_MIN_SPEEDUP`].
const GATE_MIN_VARIANTS: usize = 3;

/// Best-of-`GATE_REPS` timing for the gate instances.
const GATE_REPS: usize = 2;

/// Maximum single-core slowdown the instrumentation toggle
/// (`EngineConfig::collect_timings`) may cost on a gate instance.
const OVERHEAD_MAX_RATIO: f64 = 1.03;

/// Absolute slack for the overhead check, for the same reason as
/// [`ABS_SLACK_SECS`]: a ratio alone is meaningless inside clock noise.
const OVERHEAD_SLACK_SECS: f64 = 0.015;

/// Repetitions of the overhead check. Each times one run with
/// collection off and one with it on, back to back in alternating
/// order, so both sides see the same host drift; the best of each side
/// is compared.
const OVERHEAD_REPS: usize = 7;

struct Args {
    n: usize,
    ci: bool,
    tolerance: f64,
    reps: usize,
    baseline: String,
    record_baseline: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        n: 0,
        ci: false,
        tolerance: 1.5,
        reps: 0,
        baseline: "BENCH_baseline.json".to_owned(),
        record_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ci" => args.ci = true,
            "--tolerance" => {
                let v = it.next().expect("--tolerance needs a value");
                args.tolerance = v.parse().expect("--tolerance takes a float");
            }
            "--reps" => {
                let v = it.next().expect("--reps needs a value");
                args.reps = v.parse().expect("--reps takes a count");
            }
            "--baseline" => {
                args.baseline = it.next().expect("--baseline needs a path");
            }
            "--record-baseline" => args.record_baseline = true,
            other => {
                args.n = other.parse().unwrap_or_else(|_| {
                    eprintln!(
                        "usage: exp_engine_scaling [n] [--ci] [--tolerance F] [--reps K] \
                         [--baseline PATH] [--record-baseline]"
                    );
                    std::process::exit(2);
                })
            }
        }
    }
    if args.n == 0 {
        args.n = if args.ci { 96 } else { 512 };
    }
    if args.reps == 0 {
        // Small CI instances are noisy; best-of-3 steadies the check.
        args.reps = if args.ci { 3 } else { 1 };
    }
    args
}

/// The shard-scaling instances: every variant sized so one run is
/// heavy enough to time but the whole sweep stays minutes, not hours.
fn instances(n: usize) -> Vec<(&'static str, VariantInstance)> {
    let mut rng = StdRng::seed_from_u64(2018);
    let avg_deg = |nv: usize, d: f64| (d / nv as f64).min(0.9);
    let g = gen::gnp_connected(n, avg_deg(n, 12.0), &mut rng);
    let weights = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let nd = (n / 4).max(8);
    let d = gen::random_digraph_connected(nd, avg_deg(nd, 8.0), &mut rng);
    let ncs = (n / 2).max(8);
    let cs = gen::gnp_connected(ncs, avg_deg(ncs, 10.0), &mut rng);
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

/// The single-core gate instances: fixed sizes, independent of the
/// `n` CLI knob so every run (and the committed baseline) times the
/// *same* work. Densities are chosen so each baseline run lands in
/// 0.3–1.5 s on the reference 1-core container — large enough that a
/// 1.5x ratio is meaningful, small enough that CI stays fast.
fn gate_instances() -> Vec<(&'static str, VariantInstance)> {
    let mut rng = StdRng::seed_from_u64(2018);
    let g = gen::gnp_connected(600, 36.0 / 600.0, &mut rng);
    let weights = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
    let d = gen::random_digraph_connected(400, 22.0 / 400.0, &mut rng);
    let cs = gen::gnp_connected(800, 44.0 / 800.0, &mut rng);
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

/// Best-of-`reps` wall-clock seconds for one configuration, plus the
/// phase breakdown of the best repetition and the (identical) run from
/// the last repetition. Timing collection is ON so the artifact can
/// report per-shard section times; the overhead check below bounds
/// what that collection is allowed to cost.
fn time_run(
    instance: &VariantInstance,
    shards: usize,
    reps: usize,
) -> (f64, PhaseTimings, SpannerRun) {
    let cfg = EngineConfig {
        num_shards: shards,
        collect_timings: true,
        ..EngineConfig::seeded(7)
    };
    let mut best = f64::INFINITY;
    let mut best_phases = PhaseTimings::default();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (run, phases) = run_variant_timed(instance, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            best_phases = phases;
        }
        last = Some(run);
    }
    (best, best_phases, last.expect("reps >= 1"))
}

/// Per-shard Step 1 seconds summed over all iterations of a traced
/// run, in shard order. Iterations may use fewer shards than the
/// configured count (tiny vertex ranges); missing slots contribute 0.
fn step1_shard_secs(run: &SpannerRun) -> Vec<f64> {
    let Some(trace) = &run.trace else {
        return Vec::new();
    };
    let width = trace
        .iterations
        .iter()
        .map(|it| it.step1.shards.len())
        .max()
        .unwrap_or(0);
    let mut sums = vec![0f64; width];
    for it in &trace.iterations {
        for (i, d) in it.step1.shards.iter().enumerate() {
            sums[i] += d.as_secs_f64();
        }
    }
    sums
}

fn secs_array(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", body.join(","))
}

/// One gate measurement: best-of-[`GATE_REPS`] 1-shard seconds with
/// the phase breakdown of the best repetition.
fn time_gate(instance: &VariantInstance) -> (f64, PhaseTimings, SpannerRun) {
    let cfg = EngineConfig::seeded(7);
    let mut best = f64::INFINITY;
    let mut best_phases = PhaseTimings::default();
    let mut last = None;
    for _ in 0..GATE_REPS {
        let t0 = Instant::now();
        let (run, phases) = run_variant_timed(instance, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            best_phases = phases;
        }
        last = Some(run);
    }
    (best, best_phases, last.expect("GATE_REPS >= 1"))
}

/// A baseline row parsed from `BENCH_baseline.json`.
struct BaselineRow {
    variant: String,
    vertices: u64,
    edges: u64,
    seconds: f64,
}

fn load_baseline(path: &str) -> Option<Vec<BaselineRow>> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(&text)
        .unwrap_or_else(|e| panic!("exp_engine_scaling: {path} is not valid JSON: {e}"));
    let rows = json
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("exp_engine_scaling: {path} has no `rows` array"));
    Some(
        rows.iter()
            .map(|r| BaselineRow {
                variant: r
                    .get("variant")
                    .and_then(Json::as_str)
                    .expect("baseline row missing `variant`")
                    .to_owned(),
                vertices: r
                    .get("vertices")
                    .and_then(Json::as_u64)
                    .expect("baseline row missing `vertices`"),
                edges: r
                    .get("edges")
                    .and_then(Json::as_u64)
                    .expect("baseline row missing `edges`"),
                seconds: r
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .expect("baseline row missing `seconds`"),
            })
            .collect(),
    )
}

fn phases_json(p: &PhaseTimings) -> String {
    format!(
        concat!(
            "{{\"step1\":{:.4},\"step3\":{:.4},",
            "\"step4\":{:.4},\"coverage\":{:.4}}}"
        ),
        p.step1.as_secs_f64(),
        p.step3.as_secs_f64(),
        p.step4.as_secs_f64(),
        p.coverage.as_secs_f64(),
    )
}

/// Runs the single-core gate. Returns the JSON rows plus any `--ci`
/// failures.
fn run_gate(args: &Args) -> (String, Vec<String>) {
    let baseline = load_baseline(&args.baseline);
    if baseline.is_none() && !args.record_baseline {
        eprintln!(
            "exp_engine_scaling: no baseline at {} — reporting absolute times only",
            args.baseline
        );
    }
    let mut rows = String::new();
    let mut baseline_rows = String::new();
    let mut passing = 0usize;
    let mut failures = Vec::new();

    for (name, instance) in gate_instances() {
        // Identity across shard counts first: the gate times nothing
        // it has not proven byte-identical.
        let (secs, phases, run) = time_gate(&instance);
        assert!(run.converged, "{name}: gate run did not converge");
        for shards in GATE_IDENTITY_SHARDS {
            if shards == 1 {
                continue;
            }
            let cfg = EngineConfig {
                num_shards: shards,
                ..EngineConfig::seeded(7)
            };
            let other = run_variant(&instance, &cfg);
            assert_eq!(
                other.spanner, run.spanner,
                "{name}: gate spanner differs at {shards} shards"
            );
            assert_eq!(
                other.stats, run.stats,
                "{name}: gate iteration stats differ at {shards} shards"
            );
            assert_eq!(other.star_fallbacks, run.star_fallbacks);
        }

        let base = baseline.as_ref().and_then(|b| {
            b.iter().find(|r| r.variant == name).map(|r| {
                assert_eq!(
                    (r.vertices, r.edges),
                    (instance.num_vertices() as u64, instance.num_edges() as u64),
                    "{name}: baseline instance shape differs — re-record {}",
                    args.baseline
                );
                r.seconds
            })
        });
        let speedup = base.map(|b| b / secs);
        if let Some(s) = speedup {
            if s >= GATE_MIN_SPEEDUP {
                passing += 1;
            }
        }

        if !rows.is_empty() {
            rows.push(',');
            baseline_rows.push(',');
        }
        rows.push_str(&format!(
            concat!(
                "{{\"variant\":\"{}\",\"vertices\":{},\"edges\":{},",
                "\"seconds\":{:.4},\"baseline_seconds\":{},",
                "\"single_core_speedup\":{},\"iterations\":{},\"phases\":{}}}"
            ),
            name,
            instance.num_vertices(),
            instance.num_edges(),
            secs,
            base.map_or("null".to_owned(), |b| format!("{b:.4}")),
            speedup.map_or("null".to_owned(), |s| format!("{s:.2}")),
            run.iterations,
            phases_json(&phases),
        ));
        baseline_rows.push_str(&format!(
            concat!(
                "{{\"variant\":\"{}\",\"vertices\":{},\"edges\":{},",
                "\"seconds\":{:.4},\"iterations\":{},\"phases\":{}}}"
            ),
            name,
            instance.num_vertices(),
            instance.num_edges(),
            secs,
            run.iterations,
            phases_json(&phases),
        ));
        eprintln!(
            "exp_engine_scaling: gate {name:>13} n={:<4} m={:<6} {secs:.3}s{}",
            instance.num_vertices(),
            instance.num_edges(),
            speedup.map_or(String::new(), |s| format!(" ({s:.2}x vs baseline)")),
        );
    }

    if args.record_baseline {
        let text = format!(
            "{{\"experiment\":\"exp_engine_scaling_baseline\",\"rows\":[{baseline_rows}]}}\n"
        );
        std::fs::write(&args.baseline, text)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.baseline));
        eprintln!("exp_engine_scaling: baseline recorded to {}", args.baseline);
    } else if baseline.is_some() && passing < GATE_MIN_VARIANTS {
        failures.push(format!(
            "single-core gate: only {passing} of 4 variants reached \
             {GATE_MIN_SPEEDUP}x over {} (need {GATE_MIN_VARIANTS})",
            args.baseline
        ));
    } else if baseline.is_none() && args.ci {
        failures.push(format!(
            "single-core gate: baseline {} missing in --ci mode",
            args.baseline
        ));
    }
    (rows, failures)
}

/// The instrumentation-overhead check: per-section/per-shard timing
/// collection (`collect_timings`) must cost < [`OVERHEAD_MAX_RATIO`]
/// single-core on the gate instances. Best-of-[`OVERHEAD_REPS`] per
/// configuration, off and on alternating; results are asserted
/// byte-identical across the toggle before any timing is reported.
fn run_overhead_check() -> (String, Vec<String>) {
    let mut rows = String::new();
    let mut failures = Vec::new();
    for (name, instance) in gate_instances() {
        let configs = [false, true].map(|collect| EngineConfig {
            collect_timings: collect,
            ..EngineConfig::seeded(7)
        });
        let mut best = [f64::INFINITY; 2];
        let mut runs: [Option<SpannerRun>; 2] = [None, None];
        for rep in 0..OVERHEAD_REPS {
            // Off first on even repetitions, on first on odd ones.
            for slot in [rep % 2, 1 - rep % 2] {
                let t0 = Instant::now();
                let run = run_variant(&instance, &configs[slot]);
                best[slot] = best[slot].min(t0.elapsed().as_secs_f64());
                runs[slot] = Some(run);
            }
        }
        let (off_run, on_run) = (
            runs[0].take().expect("OVERHEAD_REPS >= 1"),
            runs[1].take().expect("OVERHEAD_REPS >= 1"),
        );
        assert_eq!(
            off_run.spanner, on_run.spanner,
            "{name}: collect_timings changed the spanner"
        );
        assert_eq!(
            off_run.stats, on_run.stats,
            "{name}: collect_timings changed iteration stats"
        );
        let (off, on) = (best[0], best[1]);
        let ratio = on / off;
        if !rows.is_empty() {
            rows.push(',');
        }
        rows.push_str(&format!(
            concat!(
                "{{\"variant\":\"{}\",\"off_seconds\":{:.4},",
                "\"on_seconds\":{:.4},\"overhead_ratio\":{:.4}}}"
            ),
            name, off, on, ratio,
        ));
        eprintln!(
            "exp_engine_scaling: overhead {name:>13} off={off:.3}s on={on:.3}s ({ratio:.3}x)"
        );
        if on > OVERHEAD_MAX_RATIO * off + OVERHEAD_SLACK_SECS {
            failures.push(format!(
                "{name}: collect_timings costs {on:.3}s vs {off:.3}s off \
                 (allowed {OVERHEAD_MAX_RATIO:.2}x + {OVERHEAD_SLACK_SECS:.0e}s)"
            ));
        }
    }
    (rows, failures)
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut rows = String::new();
    let mut failures: Vec<String> = Vec::new();

    for (name, instance) in instances(args.n) {
        let (base_secs, base_phases, base_run) = time_run(&instance, 1, args.reps);
        assert!(base_run.converged, "{name}: run did not converge");
        let mut t4 = base_secs;
        for shards in SHARD_COUNTS {
            let (secs, phases, run) = if shards == 1 {
                (base_secs, base_phases, base_run.clone())
            } else {
                time_run(&instance, shards, args.reps)
            };
            // The determinism contract, asserted before any timing is
            // reported: identical spanner bytes and identical
            // per-iteration accounting at every shard count.
            assert_eq!(
                run.spanner, base_run.spanner,
                "{name}: spanner differs at {shards} shards"
            );
            assert_eq!(
                run.stats, base_run.stats,
                "{name}: iteration stats differ at {shards} shards"
            );
            assert_eq!(run.star_fallbacks, base_run.star_fallbacks);
            if shards == 4 {
                t4 = secs;
            }
            let speedup = base_secs / secs;
            if !rows.is_empty() {
                rows.push(',');
            }
            rows.push_str(&format!(
                concat!(
                    "{{\"variant\":\"{}\",\"vertices\":{},\"edges\":{},",
                    "\"shards\":{},\"seconds\":{:.4},\"speedup\":{:.2},",
                    "\"iterations\":{},\"phases\":{},",
                    "\"step1_shard_seconds\":{}}}"
                ),
                name,
                instance.num_vertices(),
                instance.num_edges(),
                shards,
                secs,
                speedup,
                run.iterations,
                phases_json(&phases),
                secs_array(&step1_shard_secs(&run)),
            ));
            eprintln!(
                "exp_engine_scaling: {name:>13} n={:<4} shards={shards}: {:.3}s ({:.2}x)",
                instance.num_vertices(),
                secs,
                speedup,
            );
        }
        if t4 > args.tolerance * base_secs + ABS_SLACK_SECS {
            failures.push(format!(
                "{name}: 4-shard run {t4:.3}s exceeds {:.2}x the 1-shard {base_secs:.3}s (+{ABS_SLACK_SECS:.0e}s slack)",
                args.tolerance
            ));
        }
    }

    let (gate_rows, gate_failures) = run_gate(&args);
    failures.extend(gate_failures);

    let (overhead_rows, overhead_failures) = run_overhead_check();
    failures.extend(overhead_failures);

    println!(
        concat!(
            "{{\"experiment\":\"exp_engine_scaling\",\"n\":{},\"cores\":{},",
            "\"ci\":{},\"tolerance\":{:.2},\"reps\":{},\"rows\":[{}],",
            "\"gate\":[{}],\"overhead\":[{}]}}"
        ),
        args.n, cores, args.ci, args.tolerance, args.reps, rows, gate_rows, overhead_rows,
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("exp_engine_scaling: REGRESSION: {f}");
        }
        if args.ci {
            std::process::exit(1);
        }
    }
}
