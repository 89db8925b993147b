//! Deterministic, seeded fault injection for chaos testing.
//!
//! A [`FaultPlan`] names *fault points* — call sites in the serving
//! stack that have opted into injection — and assigns each a firing
//! rate (and optionally a parameter, e.g. an injected latency). A
//! [`FaultInjector`] evaluates the plan: the decision for the *n*-th
//! arrival at a point is a pure function of `(seed, point, n)`, so a
//! chaos run is reproducible given the same request sequence — no
//! wall clock, no global RNG.
//!
//! # Plan syntax
//!
//! A plan is a `;`-separated list of `key=value` clauses:
//!
//! ```text
//! seed=42;store.append.err=0.5;engine.latency_ms=5@0.25;conn.drop=0.1
//! ```
//!
//! * `seed=<u64>` — the deterministic seed (defaults to 0);
//! * `<point>=<rate>` — fire at `<point>` with probability `<rate>`
//!   (a float in `[0, 1]`);
//! * `<point>=<value>@<rate>` — fire with probability `<rate>`,
//!   carrying the integer parameter `<value>` (e.g. milliseconds of
//!   injected latency).
//!
//! Unknown point names are accepted (the plan does not know which
//! points the binary compiles in); a point absent from the plan never
//! fires. The serving stack's points are documented in the README's
//! Operations section: `store.append.err`, `store.append.short`,
//! `store.append.corrupt`, `store.read.err`, `engine.abort`,
//! `engine.panic`, `engine.latency_ms`, `conn.drop`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One parsed fault rule: fire with probability `rate`, optionally
/// carrying an integer parameter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    /// Firing probability in `[0, 1]`.
    pub rate: f64,
    /// Optional integer parameter (`<value>@<rate>` syntax), e.g.
    /// milliseconds of injected latency.
    pub value: Option<u64>,
}

/// A parsed fault plan: a seed plus per-point rules. See the module
/// docs for the spec syntax.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic firing decisions.
    pub seed: u64,
    /// Rules keyed by fault-point name (ordered, so rendering and
    /// iteration are deterministic).
    pub rules: BTreeMap<String, FaultRule>,
}

impl FaultPlan {
    /// Parses a plan spec. Returns a human-readable error naming the
    /// offending clause on malformed input.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause `{clause}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value
                    .parse()
                    .map_err(|_| format!("fault seed `{value}` is not a u64"))?;
                continue;
            }
            let rule = match value.split_once('@') {
                Some((v, rate)) => FaultRule {
                    rate: parse_rate(rate.trim(), clause)?,
                    value: Some(
                        v.trim()
                            .parse()
                            .map_err(|_| format!("fault value in `{clause}` is not a u64"))?,
                    ),
                },
                None => FaultRule {
                    rate: parse_rate(value, clause)?,
                    value: None,
                },
            };
            plan.rules.insert(key.to_string(), rule);
        }
        Ok(plan)
    }

    /// True when no rule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.rules.values().all(|r| r.rate <= 0.0)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (point, rule) in &self.rules {
            match rule.value {
                Some(v) => write!(f, ";{point}={v}@{}", rule.rate)?,
                None => write!(f, ";{point}={}", rule.rate)?,
            }
        }
        Ok(())
    }
}

fn parse_rate(raw: &str, clause: &str) -> Result<f64, String> {
    let rate: f64 = raw
        .parse()
        .map_err(|_| format!("fault rate in `{clause}` is not a float"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("fault rate in `{clause}` is outside [0, 1]"));
    }
    Ok(rate)
}

/// Evaluates a [`FaultPlan`] deterministically. Thread-safe and cheap
/// when the consulted point has no rule (one map lookup, no atomics).
///
/// Decision function: the *n*-th arrival at point `p` fires iff
/// `splitmix64(seed ^ fnv64(p) ^ n)`, scaled to `[0, 1)`, is below the
/// rule's rate — independent of thread interleaving across *different*
/// points, and reproducible for a fixed per-point arrival order.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-point arrival counters, keyed by rule name. The key set is
    /// fixed at construction so lookups after that are lock-free in
    /// spirit (one mutex guards the map, held only to find the slot).
    arrivals: Mutex<BTreeMap<String, u64>>,
    /// Total faults fired, across all points (for tests and chaos
    /// reports: a plan that never fired proves nothing).
    fired: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            arrivals: Mutex::new(BTreeMap::new()),
            fired: AtomicU64::new(0),
        }
    }

    /// An injector that never fires (the production default); consults
    /// an empty plan.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::default())
    }

    /// The plan this injector evaluates.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults fired so far, across all points.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Should the current arrival at `point` fault? Advances the
    /// point's arrival counter; a point with no rule never fires and
    /// does not count arrivals.
    pub fn fire(&self, point: &str) -> bool {
        let Some(rule) = self.plan.rules.get(point) else {
            return false;
        };
        if rule.rate <= 0.0 {
            return false;
        }
        let n = {
            let mut arrivals = self.arrivals.lock().expect("fault arrivals lock");
            let slot = arrivals.entry(point.to_string()).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        let h = splitmix64(self.plan.seed ^ fnv64(point.as_bytes()) ^ n.wrapping_mul(GOLDEN));
        // Top 53 bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let fire = u < rule.rate;
        if fire {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Like [`FaultInjector::fire`], but returns the rule's integer
    /// parameter interpreted as milliseconds when it fires. A firing
    /// rule without a parameter yields a zero duration.
    pub fn latency(&self, point: &str) -> Option<Duration> {
        let value = self.plan.rules.get(point)?.value;
        if self.fire(point) {
            Some(Duration::from_millis(value.unwrap_or(0)))
        } else {
            None
        }
    }

    /// Like [`FaultInjector::fire`], but packages the fault as an IO
    /// error naming the point (for store/connection fault sites).
    pub fn io_error(&self, point: &str) -> Option<std::io::Error> {
        if self.fire(point) {
            Some(std::io::Error::other(format!("injected fault: {point}")))
        } else {
            None
        }
    }
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rates_values_and_seed() {
        let plan = FaultPlan::parse("seed=42; store.append.err=0.5 ;engine.latency_ms=5@0.25")
            .expect("valid plan");
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.rules["store.append.err"],
            FaultRule {
                rate: 0.5,
                value: None
            }
        );
        assert_eq!(
            plan.rules["engine.latency_ms"],
            FaultRule {
                rate: 0.25,
                value: Some(5)
            }
        );
        // Display round-trips through parse.
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn rejects_malformed_clauses() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("p=1.5").is_err());
        assert!(FaultPlan::parse("p=-0.1").is_err());
        assert!(FaultPlan::parse("p=x@0.5").is_err());
        assert!(FaultPlan::parse("").is_ok(), "empty plan is the no-op plan");
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::parse("seed=7;a=0.3;b=1.0;c=0.0").unwrap();
        let x = FaultInjector::new(plan.clone());
        let y = FaultInjector::new(plan);
        let xs: Vec<bool> = (0..1000).map(|_| x.fire("a")).collect();
        let ys: Vec<bool> = (0..1000).map(|_| y.fire("a")).collect();
        assert_eq!(xs, ys, "same seed, same point, same arrival order");
        let hits = xs.iter().filter(|&&f| f).count();
        assert!((200..400).contains(&hits), "rate 0.3 fired {hits}/1000");
        assert!((0..1000).all(|_| x.fire("b")), "rate 1.0 always fires");
        assert!((0..1000).all(|_| !x.fire("c")), "rate 0.0 never fires");
        assert!(!x.fire("unknown.point"), "unplanned points never fire");
        assert!(x.fired() > 0);
        assert!(!FaultInjector::disabled().fire("a"));
    }

    #[test]
    fn latency_and_io_error_carry_the_rule() {
        let inj = FaultInjector::new(FaultPlan::parse("seed=1;lat=20@1.0;io=1.0").unwrap());
        assert_eq!(inj.latency("lat"), Some(Duration::from_millis(20)));
        assert_eq!(inj.latency("missing"), None);
        let err = inj.io_error("io").expect("rate 1.0 fires");
        assert!(err.to_string().contains("injected fault: io"));
        assert!(inj.io_error("missing").is_none());
    }
}
