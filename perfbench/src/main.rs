//! End-to-end and per-layer benchmark of the spanner service (TCP and
//! HTTP over loopback, in process) and of the lower-bound
//! constructions. See `README.md` beside this crate for why each
//! workload exists and what each metric should move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_solve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, every per-layer metric with `--trace 1`.
//! Any wrong output byte makes the run exit with code 1.

#![forbid(unsafe_code)]

mod cold;
mod common;
mod hot;
mod lb;
mod metrics;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use metrics::{Metrics, END_TO_END};
use stats::percentile;
use trace::SpanBuf;

const USAGE: &str = "usage: perfbench --workload <cold_solve|hot_mixed|graph_stream|lb_dichotomy> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// What an untraced run measured.
pub struct Measured {
    /// Median set-up time over the repeated set-ups, in seconds.
    pub setup_s: f64,
    /// Timed window length, in seconds.
    pub window_s: f64,
    /// Peak resident set over the set-ups and the window, in MiB.
    pub peak_rss_mb: f64,
    /// Latency of every completed op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops sent in the window.
    pub attempted: usize,
    /// Ops that failed: an error, a busy reply, a timeout or a
    /// rejected patch.
    pub failed: usize,
    /// Correctness failures (empty when every output was right).
    pub errors: Vec<String>,
}

/// What a traced run measured.
pub struct Traced {
    /// Per-layer metrics; layers the workload never touched are absent.
    pub metrics: Metrics,
    /// Ops sent in the first pass.
    pub attempted: usize,
    /// Ops of the first pass that failed.
    pub failed: usize,
    /// Correctness failures (empty when every output was right).
    pub errors: Vec<String>,
    /// The recorded spans of each pass, written out at exit.
    pub passes: Vec<(&'static str, Vec<SpanBuf>)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let args = Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Set in the environment of the benchmark re-run on one CPU, to the
/// number of that CPU.
const PINNED_ENV: &str = "PERFBENCH_CPU";

/// The CPUs of a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_cpu_list(
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or(""),
    )
}

/// Runs the whole benchmark on one CPU: re-runs this program under
/// `taskset` on the last CPU it may use, waits for it and returns its
/// exit code. `None` when this already is that run, when only one CPU
/// is allowed, or when `taskset` cannot be started (the benchmark then
/// runs unpinned).
///
/// Callers and server threads hand every op back and forth over
/// loopback. Spread over two vCPUs of a shared host, each hand-off can
/// wait for the host to wake the other vCPU; on one CPU it is a plain
/// context switch. On a 2-vCPU virtual machine pinning halved
/// hot_mixed's latency and most of its run-to-run spread.
///
/// The pinned run also gets `MALLOC_ARENA_MAX=1` unless the caller set
/// it. glibc otherwise gives threads that allocate at once arenas of
/// their own, and how blocks fall across those arenas moved hot_mixed's
/// peak resident set by up to 15% between runs; with one arena (the
/// natural setting on one CPU) it repeats within about 1%.
fn rerun_pinned() -> Option<i32> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpus = allowed_cpus();
    let cpu = match cpus.as_slice() {
        [_, .., last] => *last,
        _ => return None,
    };
    let exe = std::env::current_exe().ok()?;
    let mut pinned = Command::new("taskset");
    pinned
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, cpu.to_string());
    if std::env::var_os("MALLOC_ARENA_MAX").is_none() {
        pinned.env("MALLOC_ARENA_MAX", "1");
    }
    let status = pinned.status();
    match status {
        Ok(s) => Some(s.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("perfbench: cannot start taskset ({e}); running on every CPU");
            None
        }
    }
}

fn report_errors(errors: &[String]) {
    for e in errors.iter().take(20) {
        eprintln!("perfbench: wrong output: {e}");
    }
    if errors.len() > 20 {
        eprintln!("perfbench: ... and {} more", errors.len() - 20);
    }
}

fn untraced(args: &Args) -> i32 {
    let ticks0 = common::cpu_ticks();
    let m = match args.workload.as_str() {
        "cold_solve" => cold::run(args.seed, args.seconds),
        "hot_mixed" => hot::run(args.seed, args.seconds),
        "graph_stream" => stream::run(args.seed, args.seconds),
        _ => lb::run(args.seed, args.seconds),
    };
    let ticks1 = common::cpu_ticks();
    let steal = stats::share((ticks1.0 - ticks0.0) as f64, (ticks1.1 - ticks0.1) as f64);
    let completed = m.attempted - m.failed;
    let p50 = percentile(&m.latencies_ms, 0.5);
    let p95 = percentile(&m.latencies_ms, 0.95);
    let values = [
        m.setup_s,
        completed as f64 / m.window_s,
        p50.map_or(0.0, |p| p.value),
        p95.map_or(0.0, |p| p.value),
        m.peak_rss_mb,
    ];
    let rows: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    let summary: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| format!("{n}={v:.4}{u}"))
        .collect();
    let rank = |p: f64| percentile(&m.latencies_ms, p).map_or(0.0, |r| r.value);
    println!(
        "perfbench ranks_ms p40={:.3} p45={:.3} p50={:.3} p55={:.3} p60={:.3} p90={:.3} p93={:.3} p95={:.3} p97={:.3}",
        rank(0.40),
        rank(0.45),
        rank(0.50),
        rank(0.55),
        rank(0.60),
        rank(0.90),
        rank(0.93),
        rank(0.95),
        rank(0.97)
    );
    println!(
        "perfbench {} seed={} cpu={} attempted={} failed={} samples={} p95_beyond={} window_s={:.3} host_steal={:.1}% {}",
        args.workload,
        args.seed,
        std::env::var(PINNED_ENV).unwrap_or_else(|_| "any".into()),
        m.attempted,
        m.failed,
        m.latencies_ms.len(),
        p95.map_or(0, |p| p.beyond),
        m.window_s,
        steal * 100.0,
        summary.join(" ")
    );
    report_errors(&m.errors);
    println!(
        "{}",
        result_line(m.errors.is_empty(), m.attempted, m.failed, &rows)
    );
    i32::from(!m.errors.is_empty())
}

fn traced(args: &Args) -> i32 {
    let t = match args.workload.as_str() {
        "cold_solve" => cold::trace(args.seed, args.seconds),
        "hot_mixed" => hot::trace(args.seed, args.seconds),
        "graph_stream" => stream::trace(args.seed, args.seconds),
        _ => lb::trace(args.seed, args.seconds),
    };
    let mut produced: BTreeMap<String, f64> = t.metrics.into_iter().collect();
    let rows: Vec<(String, f64, &str)> = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = produced.remove(&name).unwrap_or(0.0);
            (name, v, unit)
        })
        .collect();
    let mut errors = t.errors;
    errors.extend(
        produced
            .keys()
            .map(|k| format!("metric `{k}` is missing from the catalogue")),
    );
    for (name, value, unit) in &rows {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    let path = PathBuf::from(".perfbench")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let passes: Vec<(&str, &[SpanBuf])> =
        t.passes.iter().map(|(p, b)| (*p, b.as_slice())).collect();
    match trace::write_jsonl(&path, &passes) {
        Ok(()) => println!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    report_errors(&errors);
    println!(
        "{}",
        result_line(errors.is_empty(), t.attempted, t.failed, &rows)
    );
    i32::from(!errors.is_empty())
}

fn main() {
    let args = match parse_args() {
        Ok(a)
            if ["cold_solve", "hot_mixed", "graph_stream", "lb_dichotomy"]
                .contains(&a.workload.as_str()) =>
        {
            a
        }
        Ok(a) => {
            eprintln!("perfbench: unknown workload `{}`\n{USAGE}", a.workload);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(code) = rerun_pinned() {
        std::process::exit(code);
    }
    if let Err(e) = std::fs::create_dir_all(".perfbench") {
        eprintln!("perfbench: cannot create .perfbench: {e}");
        std::process::exit(2);
    }
    let code = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::parse_cpu_list;

    #[test]
    fn cpu_lists_expand_ranges_and_singles() {
        assert_eq!(parse_cpu_list("\t0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0-3,6,8-9"), vec![0, 1, 2, 3, 6, 8, 9]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }
}
