//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit. `BENCHMARK.json` lists the same
//! names (checked by a test).

/// Metrics as `(name, value)` pairs.
pub type Metrics = Vec<(String, f64)>;

/// Builds [`Metrics`] from borrowed names.
pub fn metrics(pairs: &[(&str, f64)]) -> Metrics {
    pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Calls the benchmark times with spans: `(span name, metric for the
/// median self time per call, unit of that metric)`. Each also yields
/// `<span>.calls` and `<span>.self_ms` (summed self time).
pub const SPAN_LAYERS: &[(&str, &str, &str)] = &[
    ("http.roundtrip", "http.roundtrip_ms", "ms"),
    ("http.decode", "http.decode_us", "us"),
    ("http.encode", "http.encode_us", "us"),
    ("wire.roundtrip", "wire.roundtrip_ms", "ms"),
    ("wire.decode", "wire.decode_us", "us"),
    ("wire.encode", "wire.encode_us", "us"),
    ("direct.op", "direct.op_self_us", "us"),
    ("canon.canonicalize", "canon.canonicalize_us", "us"),
    ("service.submit", "service.submit_us", "us"),
    ("service.wait", "service.wait_ms", "ms"),
    ("star.local_stars", "star.local_stars_us", "us"),
    ("flow.densest", "flow.densest_us", "us"),
    ("graphs.create", "graphs.create_ms", "ms"),
    ("graphs.patch", "graphs.patch_ms", "ms"),
    ("graphs.spanner", "graphs.spanner_ms", "ms"),
    ("lb.build", "lb.build_ms", "ms"),
    ("lb.check", "lb.check_ms", "ms"),
    ("lb.decide", "lb.decide_ms", "ms"),
];

/// Per-layer metrics read from the service and the flight recorder, or
/// derived from the passes.
const READ_LAYERS: &[(&str, &str)] = &[
    ("engine.solve_ms", "ms"),
    ("engine.step1_ms", "ms"),
    ("engine.step3_ms", "ms"),
    ("engine.step4_ms", "ms"),
    ("engine.coverage_ms", "ms"),
    ("engine.step1_share", "ratio"),
    ("engine.runs", "count"),
    ("engine.iterations", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_hit_share", "ratio"),
    ("pool.queue_wait_ms", "ms"),
    ("pool.shed", "count"),
    ("store.recovery_ms", "ms"),
    ("store.read_us_per_hit", "us"),
    ("store.write_us_per_append", "us"),
    ("graphs.solves_in_patch", "count"),
    ("graphs.commuted", "count"),
    ("graphs.repaired", "count"),
    ("graphs.recomputed", "count"),
    ("net.residual_ms", "ms"),
    ("process.cpu_ms_per_op", "ms"),
    ("trace.overhead", "ratio"),
];

/// Op types across the workloads; each yields `op.<type>.share` and
/// `op.<type>.p50_ms`.
pub const OP_TYPES: &[&str] = &[
    "undirected",
    "directed",
    "weighted",
    "client_server",
    "lru_hit",
    "disk_hit",
    "patch",
    "patch_delete",
    "patch_solve",
    "get",
    "disjoint",
    "intersecting",
];

/// Every per-layer metric with its unit, in printing order. A traced
/// run prints all of them; a layer its workload does not touch reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for &(span, metric, unit) in SPAN_LAYERS {
        out.push((metric.to_string(), unit));
        out.push((format!("{span}.calls"), "count"));
        out.push((format!("{span}.self_ms"), "ms"));
    }
    out.extend(READ_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    for t in OP_TYPES {
        out.push((format!("op.{t}.share"), "ratio"));
        out.push((format!("op.{t}.p50_ms"), "ms"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_runtime::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = Json::parse(&text).expect("parse BENCHMARK.json");
        json.get(section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        assert!(count <= 5 + 128);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
