//! Job specifications, canonical jobs, and responses.
//!
//! A [`JobSpec`] is one spanner-computation request: a
//! [`VariantInstance`] in whatever edge order the caller submitted,
//! plus the [`EngineConfig`] (seed and ablation toggles) and an
//! optional per-job timeout. Before execution every request becomes a
//! [`CanonicalJob`]: its edges as sorted, deduplicated
//! [`dsa_graphs::canon`] keys (with weights or client/server roles),
//! the permutation back to the caller's edge ids, and the
//! [`CanonicalJob::key`] hash the cache, the in-flight coalescing
//! table, *and the persistent result store* ([`crate::store`]) are
//! keyed by. The HTTP and TCP decoders produce that form straight from
//! request bytes; [`canonicalize_job`] derives it from an already
//! built spec. Two submissions of the same edge set in different
//! orders therefore collapse to one engine run — in this process
//! lifetime or a previous one — and each caller still receives
//! spanner edge ids in *its own* id space via [`JobResponse`]. The key
//! is a hash, never an identity: every consumer (LRU, coalescing map,
//! disk store) re-verifies the full [`CanonicalInstance`] before
//! serving across it, and the engine's CSR graph is built from the
//! keys only when a job actually runs.

use std::sync::Arc;
use std::time::Duration;

use dsa_core::dist::{EngineConfig, SpannerRun, VariantInstance, VariantKind};
use dsa_graphs::canon::{CanonicalEdges, EdgeKeys, Fnv1a};
use dsa_graphs::{EdgeId, EdgeSet, EdgeWeights, VertexId};

/// One spanner-computation request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The problem instance, in the caller's edge order.
    pub instance: VariantInstance,
    /// Engine seed and ablation toggles. The seed, denominator,
    /// toggles, and iteration cap are result-relevant and thus part of
    /// the cache key; `num_shards` and `cancel` are execution policy
    /// (the engine's result is bit-identical for every shard count)
    /// and deliberately excluded, so jobs differing only in them
    /// dedup.
    pub config: EngineConfig,
    /// Optional deadline for [`crate::JobHandle::wait`]; `None` falls
    /// back to the service default. The timeout does not affect the
    /// computed result and is not part of the cache key.
    pub timeout: Option<Duration>,
}

impl JobSpec {
    /// A spec with the paper's engine defaults and the given seed.
    pub fn new(instance: VariantInstance, seed: u64) -> Self {
        JobSpec {
            instance,
            config: EngineConfig::seeded(seed),
            timeout: None,
        }
    }
}

/// Role bit of a client edge in [`CanonicalInstance::roles`].
const CLIENT: u8 = 1;
/// Role bit of a server edge in [`CanonicalInstance::roles`].
const SERVER: u8 = 2;

/// A job's instance in canonical form: what the cache, the coalescing
/// map and the store compare. Equal exactly when the canonical
/// [`VariantInstance`]s are equal, and built without one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CanonicalInstance {
    kind: VariantKind,
    /// Sorted, deduplicated edge keys; weighted for the weighted
    /// variant only.
    edges: EdgeKeys,
    /// Client-server only: `CLIENT | SERVER` bits per canonical edge
    /// (empty for the other variants).
    roles: Vec<u8>,
}

impl CanonicalInstance {
    /// Which variant the instance belongs to.
    pub fn kind(&self) -> VariantKind {
        self.kind
    }

    /// The canonical edge keys.
    pub fn edges(&self) -> &EdgeKeys {
        &self.edges
    }

    /// The `CLIENT | SERVER` role bits of each canonical edge, for the
    /// client-server variant (empty for the others).
    pub fn roles(&self) -> &[u8] {
        &self.roles
    }

    /// The instance with these canonical parts, or `None` when they are
    /// not what canonicalization produces for `kind`: the keys must pass
    /// [`EdgeKeys::from_canonical`], directed exactly for the directed
    /// variant; weights come with the weighted variant only, and role
    /// bits with the client-server variant only, one mask of at most
    /// `CLIENT | SERVER` per key. Stored identities decode through it.
    pub fn from_parts(
        kind: VariantKind,
        n: usize,
        keys: Vec<(VertexId, VertexId)>,
        weights: Option<Vec<u64>>,
        roles: Vec<u8>,
    ) -> Option<Self> {
        let roles_fit = if kind == VariantKind::ClientServer {
            roles.len() == keys.len() && roles.iter().all(|&r| r <= CLIENT | SERVER)
        } else {
            roles.is_empty()
        };
        if !roles_fit || weights.is_some() != (kind == VariantKind::Weighted) {
            return None;
        }
        let edges = EdgeKeys::from_canonical(n, kind == VariantKind::Directed, keys, weights)?;
        Some(CanonicalInstance { kind, edges, roles })
    }

    /// Canonical ids of the client edges (`server == false`) or the
    /// server edges, ascending.
    pub fn role_ids(&self, server: bool) -> impl Iterator<Item = EdgeId> + '_ {
        let bit = if server { SERVER } else { CLIENT };
        self.roles
            .iter()
            .enumerate()
            .filter(move |(_, &r)| r & bit != 0)
            .map(|(e, _)| e)
    }

    /// The engine's instance with canonical edge `c` at id `ids[c]`.
    fn assemble(&self, ids: Vec<EdgeId>) -> VariantInstance {
        let placed = CanonicalEdges {
            keys: self.edges.clone(),
            from_canonical: ids,
        };
        let roles = |server| {
            EdgeSet::from_iter(
                self.edges.num_edges(),
                self.role_ids(server).map(|c| placed.from_canonical[c]),
            )
        };
        match self.kind {
            VariantKind::Undirected => VariantInstance::Undirected {
                graph: placed.submitted_graph(),
            },
            VariantKind::Directed => VariantInstance::Directed {
                graph: placed.submitted_digraph(),
            },
            VariantKind::Weighted => VariantInstance::Weighted {
                graph: placed.submitted_graph(),
                weights: placed
                    .submitted_weights()
                    .unwrap_or_else(|| EdgeWeights::from_vec(Vec::new())),
            },
            VariantKind::ClientServer => VariantInstance::ClientServer {
                graph: placed.submitted_graph(),
                clients: roles(false),
                servers: roles(true),
            },
        }
    }

    /// The engine's instance, edges in canonical order. This builds
    /// the CSR graph, so only a job that runs calls it.
    pub fn instance(&self) -> VariantInstance {
        self.assemble((0..self.edges.num_edges()).collect())
    }
}

/// A job in canonical form, plus what it takes to answer the caller
/// who submitted it.
pub(crate) struct CanonicalJob {
    /// Cache/coalescing key: hash of the canonical instance + config.
    pub key: u64,
    /// The instance in canonical form, shared with the cache and the
    /// in-flight table.
    pub instance: Arc<CanonicalInstance>,
    /// The submitted engine configuration.
    pub config: EngineConfig,
    /// `from_canonical[canonical_edge_id] = submitted_edge_id`.
    pub from_canonical: Vec<EdgeId>,
    /// The submitted deadline.
    pub timeout: Option<Duration>,
}

impl CanonicalJob {
    /// Assembles a canonical job from normalized edges, the client and
    /// server edge sets in *submitted* id space (client-server only),
    /// the config and the timeout, and derives its key.
    pub fn new(
        kind: VariantKind,
        edges: CanonicalEdges,
        roles: Option<(&EdgeSet, &EdgeSet)>,
        config: EngineConfig,
        timeout: Option<Duration>,
    ) -> Self {
        let CanonicalEdges {
            keys,
            from_canonical,
        } = edges;
        let roles = match roles {
            None => Vec::new(),
            Some((clients, servers)) => {
                let mut roles = vec![0; from_canonical.len()];
                for (role, &submitted) in roles.iter_mut().zip(&from_canonical) {
                    if clients.contains(submitted) {
                        *role |= CLIENT;
                    }
                    if servers.contains(submitted) {
                        *role |= SERVER;
                    }
                }
                roles
            }
        };
        let instance = CanonicalInstance {
            kind,
            edges: keys,
            roles,
        };
        CanonicalJob {
            key: job_key(&instance, &config),
            instance: Arc::new(instance),
            config,
            from_canonical,
            timeout,
        }
    }

    /// The spec this job was decoded from: the instance in submitted
    /// edge order (the public decoders' return shape).
    pub fn to_spec(&self) -> JobSpec {
        JobSpec {
            instance: self.instance.assemble(self.from_canonical.clone()),
            config: self.config.clone(),
            timeout: self.timeout,
        }
    }
}

/// The variant's code in the job key and in the store's identity
/// bytes.
pub(crate) fn kind_code(kind: VariantKind) -> u8 {
    match kind {
        VariantKind::Undirected => 1,
        VariantKind::Directed => 2,
        VariantKind::Weighted => 3,
        VariantKind::ClientServer => 4,
    }
}

/// The cache key: FNV-1a over the canonical instance (its canonical
/// graph hash, then for client-server the client and server id lists)
/// and the result-relevant config. `num_shards` and `cancel` stay out:
/// execution policy, not result.
pub(crate) fn job_key(instance: &CanonicalInstance, config: &EngineConfig) -> u64 {
    let mut hasher = Fnv1a::new();
    hasher.write_bytes(b"dsa-service-job-v1");
    hasher.write_u64(instance.edges.hash());
    if instance.kind == VariantKind::ClientServer {
        for server in [false, true] {
            hasher.write_usize(instance.role_ids(server).count());
            for e in instance.role_ids(server) {
                hasher.write_usize(e);
            }
        }
    }
    hasher.write_u64(u64::from(kind_code(instance.kind)));
    hasher.write_u64(config.seed);
    hasher.write_u64(config.accept_denominator);
    hasher.write_u64(u64::from(config.monotone_stars));
    hasher.write_u64(u64::from(config.round_densities));
    hasher.write_u64(config.max_iterations);
    hasher.finish()
}

/// Checks the config the engine cannot run with. Decoders leave this
/// to submission, so it is a 422 on HTTP, not a 400.
pub(crate) fn validate_config(config: &EngineConfig) -> Result<(), JobError> {
    if config.accept_denominator == 0 {
        return Err(JobError::Invalid(
            "accept denominator must be positive".into(),
        ));
    }
    Ok(())
}

/// Why a job failed: a rejection, a cancellation, a deadline, an
/// engine run that panicked, or — for remote submissions — a transport
/// problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The spec failed validation before being queued.
    Invalid(String),
    /// The handle was cancelled before a result was available.
    Cancelled,
    /// The deadline passed before a result was available. The engine
    /// run, if already started, still completes and populates the
    /// cache; only this wait gives up.
    TimedOut,
    /// The engine run panicked; the message is the panic's. The worker
    /// survives and nothing was cached, but an engine fault repeats on
    /// the same job, so clients do not retry it.
    Panicked(String),
    /// The service shed the job at admission (queue depth or byte
    /// budget exhausted). Safe to retry after the hinted delay:
    /// responses are byte-deterministic, so a retried job returns
    /// exactly what the shed attempt would have.
    Busy {
        /// Suggested client wait before retrying, in milliseconds
        /// (derived from the observed p95 service time and backlog).
        retry_after_ms: u64,
    },
    /// A wire-protocol violation (client side).
    Protocol(String),
    /// A transport error (client side).
    Io(String),
    /// The server rejected or failed the request.
    Remote(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(m) => write!(f, "invalid job: {m}"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::TimedOut => write!(f, "job timed out"),
            JobError::Panicked(m) => write!(f, "engine run panicked: {m}"),
            JobError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms}ms")
            }
            JobError::Protocol(m) => write!(f, "protocol error: {m}"),
            JobError::Io(m) => write!(f, "transport error: {m}"),
            JobError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The answer to one [`JobSpec`], in the caller's edge-id space.
///
/// Deliberately free of serving-side incidentals (no cached/coalesced
/// flag, no timing): the same spec always yields the same response
/// bytes whether it was computed cold, coalesced, or served from
/// cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobResponse {
    /// The canonical job key (also the cache key).
    pub key: u64,
    /// Which variant ran.
    pub kind: VariantKind,
    /// Spanner edge ids in the *submitted* graph's id space, ascending.
    pub spanner: Vec<EdgeId>,
    /// Engine iterations executed.
    pub iterations: u64,
    /// LOCAL protocol rounds this run corresponds to
    /// ([`SpannerRun::local_rounds`]).
    pub local_rounds: u64,
    /// Whether every target item was covered.
    pub converged: bool,
    /// Claim-4.4 fallback count (0 in every observed run).
    pub star_fallbacks: u64,
}

impl JobResponse {
    /// Assembles the caller-facing response from a canonical-space run.
    pub(crate) fn from_run(
        key: u64,
        kind: VariantKind,
        run: &Arc<SpannerRun>,
        from_canonical: &[EdgeId],
    ) -> Self {
        // The translated ids, read back in order from a set over the
        // submitted ids instead of sorted.
        let spanner = EdgeSet::from_iter(
            from_canonical.len(),
            run.spanner.iter().map(|e| from_canonical[e]),
        );
        JobResponse {
            key,
            kind,
            spanner: spanner.iter().collect(),
            iterations: run.iterations,
            local_rounds: run.local_rounds(),
            converged: run.converged,
            star_fallbacks: run.star_fallbacks,
        }
    }
}

/// Validates `spec` and rewrites it into canonical form (the adapter
/// behind [`crate::Service::submit`]).
pub(crate) fn canonicalize_job(spec: &JobSpec) -> Result<CanonicalJob, JobError> {
    spec.instance.validate().map_err(JobError::Invalid)?;
    let (edges, roles) = match &spec.instance {
        VariantInstance::Undirected { graph } => (CanonicalEdges::of_graph(graph, None), None),
        VariantInstance::Directed { graph } => (CanonicalEdges::of_digraph(graph), None),
        VariantInstance::Weighted { graph, weights } => {
            (CanonicalEdges::of_graph(graph, Some(weights)), None)
        }
        VariantInstance::ClientServer {
            graph,
            clients,
            servers,
        } => (
            CanonicalEdges::of_graph(graph, None),
            Some((clients, servers)),
        ),
    };
    Ok(CanonicalJob::new(
        spec.instance.kind(),
        edges,
        roles,
        spec.config.clone(),
        spec.timeout,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsa_graphs::Graph;

    fn spec_of(edges: &[(usize, usize)], seed: u64) -> JobSpec {
        JobSpec::new(
            VariantInstance::Undirected {
                graph: Graph::from_edges(5, edges.iter().copied()),
            },
            seed,
        )
    }

    #[test]
    fn key_ignores_submission_order() {
        let a = canonicalize_job(&spec_of(&[(0, 1), (1, 2), (2, 3), (0, 4)], 3)).unwrap();
        let b = canonicalize_job(&spec_of(&[(0, 4), (2, 1), (3, 2), (1, 0)], 3)).unwrap();
        assert_eq!(a.key, b.key);
        let other_seed = canonicalize_job(&spec_of(&[(0, 1), (1, 2), (2, 3), (0, 4)], 4)).unwrap();
        assert_ne!(a.key, other_seed.key);
        let other_graph = canonicalize_job(&spec_of(&[(0, 1), (1, 2), (2, 3), (1, 4)], 3)).unwrap();
        assert_ne!(a.key, other_graph.key);
    }

    #[test]
    fn key_sees_ablation_toggles() {
        let base = spec_of(&[(0, 1), (1, 2)], 0);
        let a = canonicalize_job(&base).unwrap();
        let mut ablated = base.clone();
        ablated.config.monotone_stars = false;
        assert_ne!(a.key, canonicalize_job(&ablated).unwrap().key);
        let mut denom = base.clone();
        denom.config.accept_denominator = 4;
        assert_ne!(a.key, canonicalize_job(&denom).unwrap().key);
    }

    #[test]
    fn shards_and_cancel_are_not_result_relevant() {
        use std::sync::atomic::AtomicBool;
        let base = spec_of(&[(0, 1), (1, 2)], 0);
        let mut tuned = base.clone();
        tuned.config.num_shards = 8;
        tuned.config.cancel = Some(Arc::new(AtomicBool::new(false)));
        assert_eq!(
            canonicalize_job(&base).unwrap().key,
            canonicalize_job(&tuned).unwrap().key,
            "execution policy must not split the cache key space"
        );
    }

    #[test]
    fn timeout_is_not_result_relevant() {
        let mut a = spec_of(&[(0, 1), (1, 2)], 0);
        a.timeout = Some(Duration::from_secs(1));
        let b = spec_of(&[(0, 1), (1, 2)], 0);
        assert_eq!(
            canonicalize_job(&a).unwrap().key,
            canonicalize_job(&b).unwrap().key
        );
    }

    #[test]
    fn from_canonical_translates_ids() {
        let spec = spec_of(&[(2, 3), (0, 1), (1, 2)], 0);
        let job = canonicalize_job(&spec).unwrap();
        let VariantInstance::Undirected { graph: c } = &job.instance.instance() else {
            panic!("kind changed");
        };
        let VariantInstance::Undirected { graph: g } = &spec.instance else {
            unreachable!();
        };
        for canonical in 0..c.num_edges() {
            assert_eq!(
                c.endpoints(canonical),
                g.endpoints(job.from_canonical[canonical])
            );
        }
    }

    #[test]
    fn from_run_answers_in_submitted_ids_ascending() {
        // K6 submitted in reverse canonical order, so no edge keeps its
        // id, and its spanner is a proper subset.
        let mut pairs: Vec<(usize, usize)> = (0..6)
            .flat_map(|u| (u + 1..6).map(move |v| (u, v)))
            .collect();
        pairs.reverse();
        let spec = JobSpec::new(
            VariantInstance::Undirected {
                graph: Graph::from_edges(6, pairs),
            },
            5,
        );
        let job = canonicalize_job(&spec).unwrap();
        let run = dsa_core::dist::run_variant(&job.instance.instance(), &job.config);
        assert!(run.spanner.len() < job.from_canonical.len());
        let mut expected: Vec<EdgeId> = run.spanner.iter().map(|c| job.from_canonical[c]).collect();
        expected.sort_unstable();
        let resp = JobResponse::from_run(
            job.key,
            VariantKind::Undirected,
            &Arc::new(run),
            &job.from_canonical,
        );
        assert_eq!(resp.spanner, expected);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let bad = JobSpec::new(
            VariantInstance::Weighted {
                graph: g,
                weights: EdgeWeights::constant(1, 1),
            },
            0,
        );
        assert!(matches!(canonicalize_job(&bad), Err(JobError::Invalid(_))));
    }
}
