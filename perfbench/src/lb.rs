//! `lb_dichotomy`: one op is one Theorem 1.1 decision. It builds
//! `G(ℓ, β)` over a planted disjoint or intersecting instance, runs the
//! two reachability checks and the Lemma 2.4 decision rule, and the
//! answer is checked against the planted instance after the window.
//!
//! The construction sizes come from five levels of `q` (so `β = qℓ`)
//! with equal shares. Build time is quadratic in the edge count, so
//! each level is its own cost cluster; with five equal shares the
//! cluster boundaries sit at the 20/40/60/80% ranks, and p50 and p95
//! fall inside the middle and the top cluster instead of on a gap.

use dsa_lowerbounds::construction_g::{GConstruction, GParams};
use dsa_lowerbounds::disjointness::{self, Instance};
use dsa_lowerbounds::two_party::decide_disjointness_by_spanner;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::common::{
    callers, closed_loop, cpu_seconds, op_type_metrics, peak_rss_mb, reset_peak_rss, rng,
    span_metrics, Feed, Pass,
};
use crate::metrics::metrics;
use crate::stats::overhead_ratio;
use crate::trace::SpanBuf;
use crate::{Measured, Traced};

/// Index blocks of every construction (`ℓ² = 4` input bits).
const ELL: usize = 2;
/// The `q` levels; `α = (q − 1) / 7 ≥ 1` makes `GParams::for_alpha`
/// pick exactly this `q`, where the decision rule is exact.
const LEVELS: [usize; 5] = [8, 9, 10, 11, 12];
/// Decisions per second of `--seconds`. Like every workload's op
/// count, sized so the window takes about two thirds of `--seconds` on
/// one CPU of a quiet 2-vCPU machine, leaving room for a slower host.
const OPS_PER_SECOND: usize = 25;

/// One planted decision.
struct LbOp {
    q: usize,
    instance: Instance,
}

impl LbOp {
    fn alpha(&self) -> f64 {
        (self.q - 1) as f64 / 7.0
    }

    fn params(&self) -> GParams {
        // Any target in [28q, 63q) vertices gives ℓ = 2 at this α.
        let params = GParams::for_alpha(40 * self.q, self.alpha());
        debug_assert_eq!((params.ell, params.beta), (ELL, ELL * self.q));
        params
    }

    fn kind(&self) -> &'static str {
        if self.instance.is_disjoint() {
            "disjoint"
        } else {
            "intersecting"
        }
    }
}

/// `count` ops: levels and planted kinds in equal shares, shuffled.
fn ops(count: usize, rng: &mut StdRng) -> Vec<LbOp> {
    let bits = ELL * ELL;
    let mut ops: Vec<LbOp> = (0..count)
        .map(|i| {
            let q = LEVELS[i % LEVELS.len()];
            let instance = if (i / LEVELS.len()).is_multiple_of(2) {
                disjointness::random_disjoint(bits, rng)
            } else {
                let k = rng.gen_range(1..=bits);
                disjointness::random_intersecting(bits, k, rng)
            };
            LbOp { q, instance }
        })
        .collect();
    ops.shuffle(rng);
    ops
}

/// What one decision returned.
struct Decision {
    declared_disjoint: bool,
    non_d_is_5_spanner: bool,
    forced: usize,
}

fn decide(op: &LbOp, spans: &mut SpanBuf, i: usize) -> Decision {
    let root = spans.open("direct.op", i, None);
    let params = op.params();
    let c = spans.time("lb.build", i, root, || {
        GConstruction::build(params, op.instance.clone())
    });
    let (non_d_is_5_spanner, forced) = spans.time("lb.check", i, root, || {
        (c.non_d_is_k_spanner(5), c.forced_d_edges())
    });
    let (declared_disjoint, _, _) = spans.time("lb.decide", i, root, || {
        decide_disjointness_by_spanner(&c, op.alpha())
    });
    spans.close(root);
    Decision {
        declared_disjoint,
        non_d_is_5_spanner,
        forced,
    }
}

fn pass(ops: &[LbOp], traced: bool) -> Pass<(), Decision> {
    let feed = Feed::Shared(ops.len());
    closed_loop(vec![(); callers()], &feed, traced, |_, spans, i| {
        decide(&ops[i], spans, i)
    })
}

/// Checks every decision against its planted instance.
fn check(ops: &[LbOp], pass: &Pass<(), Decision>, errors: &mut Vec<String>) {
    for r in pass.records() {
        let op = &ops[r.op];
        let disjoint = op.instance.is_disjoint();
        let beta = op.params().beta;
        let expected_forced = beta * beta * op.instance.intersection_size();
        let d = &r.out;
        if d.declared_disjoint != disjoint
            || d.non_d_is_5_spanner != disjoint
            || d.forced != expected_forced
        {
            errors.push(format!(
                "lb op {}: planted disjoint={disjoint}, decided {} / 5-spanner {}, forced {} (want {expected_forced})",
                r.op, d.declared_disjoint, d.non_d_is_5_spanner, d.forced
            ));
        }
    }
}

/// Set-up: one warm-up pass over a fixed op per level and kind.
fn setup_s() -> f64 {
    let warm = ops(2 * LEVELS.len(), &mut rng(0, "lb-warm"));
    let (_, median) = crate::common::timed_setups(|_| (), |()| pass(&warm, false), drop);
    median
}

/// The untraced run.
pub fn run(seed: u64, seconds: u64) -> Measured {
    let ops = ops(OPS_PER_SECOND * seconds as usize, &mut rng(seed, "lb"));
    reset_peak_rss();
    let setup_s = setup_s();
    let timed = pass(&ops, false);
    let peak_rss_mb = peak_rss_mb();
    let mut errors = Vec::new();
    check(&ops, &timed, &mut errors);
    Measured {
        setup_s,
        window_s: timed.seconds,
        peak_rss_mb,
        latencies_ms: timed.records().map(|r| r.ms()).collect(),
        attempted: timed.count(),
        failed: 0,
        errors,
    }
}

/// The traced run: the ops once with span recording off, then again
/// with it on.
pub fn trace(seed: u64, seconds: u64) -> Traced {
    let ops = ops(OPS_PER_SECOND * seconds as usize, &mut rng(seed, "lb"));
    let cpu0 = cpu_seconds();
    let plain = pass(&ops, false);
    let cpu_ms_per_op = (cpu_seconds() - cpu0) * 1e3 / plain.count() as f64;
    let traced = pass(&ops, true);
    let mut errors = Vec::new();
    check(&ops, &plain, &mut errors);
    check(&ops, &traced, &mut errors);
    let mut m = span_metrics(&traced.spans);
    let types: Vec<(&'static str, f64)> = traced
        .records()
        .map(|r| (ops[r.op].kind(), r.ms()))
        .collect();
    m.extend(op_type_metrics(&types));
    m.extend(metrics(&[
        ("process.cpu_ms_per_op", cpu_ms_per_op),
        (
            "trace.overhead",
            overhead_ratio(traced.seconds, plain.seconds),
        ),
    ]));
    Traced {
        metrics: m,
        attempted: plain.count(),
        failed: 0,
        errors,
        passes: vec![("direct", traced.spans)],
    }
}
