//! A blocking client for the `spanner-serve` wire protocol, used by
//! `spanner-cli`, the load bench, and the integration tests.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use crate::graphs::{
    DeltaOp, GraphCreated, GraphMeta, GraphPatched, GraphSpannerResult, GraphSpec,
};
use crate::job::{JobError, JobResponse, JobSpec};
use crate::retry::RetryPolicy;
use crate::wire::{
    decode_response, encode_graph_create, encode_graph_delete, encode_graph_get,
    encode_graph_patch, encode_graph_spanner_request, encode_hello_request, encode_ping_request,
    encode_request, encode_stats_request, read_frame, write_frame, Response, PROTO_VERSION,
};

/// One connection to a `spanner-serve` instance. Requests are
/// submitted synchronously, one frame in, one frame out.
pub struct Client {
    stream: TcpStream,
    /// The resolved peer address, kept so retries can reconnect after
    /// the server (or a chaos hook) drops the connection mid-frame.
    addr: SocketAddr,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let addr = stream.peer_addr()?;
        Ok(Client { stream, addr })
    }

    /// Drops the current connection and dials the same peer again.
    fn reconnect(&mut self) -> Result<(), JobError> {
        let stream = TcpStream::connect(self.addr).map_err(|e| JobError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        self.stream = stream;
        Ok(())
    }

    fn roundtrip(&mut self, payload: &str) -> Result<Response, JobError> {
        write_frame(&mut self.stream, payload.as_bytes())
            .map_err(|e| JobError::Io(e.to_string()))?;
        let bytes = self.roundtrip_raw_read()?;
        decode_response(&bytes)
    }

    fn roundtrip_raw_read(&mut self) -> Result<Vec<u8>, JobError> {
        read_frame(&mut self.stream)
            .map_err(|e| JobError::Io(e.to_string()))?
            .ok_or_else(|| JobError::Io("server closed the connection".into()))
    }

    /// Runs one job and decodes the response. A shed job (`busy`
    /// frame) surfaces as [`JobError::Busy`]; see
    /// [`Client::run_with_retry`] for the retrying flavor.
    pub fn run(&mut self, spec: &JobSpec) -> Result<JobResponse, JobError> {
        match self.roundtrip(&encode_request(spec))? {
            Response::Run(resp) => Ok(resp),
            Response::Busy { retry_after_ms } => Err(JobError::Busy { retry_after_ms }),
            Response::Error(m) => Err(JobError::Remote(m)),
            other => Err(JobError::Protocol(format!(
                "expected run response, got {other:?}"
            ))),
        }
    }

    /// Like [`Client::run`], but retries shed jobs (honoring the
    /// server's retry hint), cancelled runs, and transport failures
    /// (reconnecting first) under `policy`'s capped jittered
    /// exponential backoff. Safe because a job response is a pure
    /// function of the spec: a resubmission can only return the same
    /// bytes.
    pub fn run_with_retry(
        &mut self,
        spec: &JobSpec,
        policy: &RetryPolicy,
    ) -> Result<JobResponse, JobError> {
        let mut attempt = 0u32;
        loop {
            let (hint, err) = match self.run(spec) {
                Ok(resp) => return Ok(resp),
                Err(e @ JobError::Busy { retry_after_ms }) => (Some(retry_after_ms), e),
                // A cancelled run crosses the wire as a generic error
                // frame carrying [`JobError::Cancelled`]'s message —
                // transient (an aborted engine run), so retryable.
                Err(e @ JobError::Remote(_)) if matches!(&e, JobError::Remote(m) if m == &JobError::Cancelled.to_string()) => {
                    (None, e)
                }
                Err(e @ JobError::Io(_)) => {
                    // The connection is gone or desynchronized (e.g. a
                    // mid-frame drop); replace it before retrying. A
                    // failed reconnect (server restarting) is itself
                    // retried: the dead stream just errors again.
                    match self.reconnect() {
                        Ok(()) => (None, e),
                        Err(re) => (None, re),
                    }
                }
                // Remote/protocol/validation errors repeat identically
                // on resubmission; fail fast.
                Err(e) => return Err(e),
            };
            if attempt >= policy.max_retries {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(attempt, hint));
            attempt += 1;
        }
    }

    /// Runs one job and returns the *raw response payload bytes* —
    /// what the byte-identity guarantee of the protocol is stated
    /// over.
    pub fn run_raw(&mut self, spec: &JobSpec) -> Result<Vec<u8>, JobError> {
        write_frame(&mut self.stream, encode_request(spec).as_bytes())
            .map_err(|e| JobError::Io(e.to_string()))?;
        self.roundtrip_raw_read()
    }

    /// Fetches the service metrics snapshot as one JSON line.
    pub fn stats_json(&mut self) -> Result<String, JobError> {
        match self.roundtrip(&encode_stats_request())? {
            Response::Stats(json) => Ok(json),
            Response::Error(m) => Err(JobError::Remote(m)),
            other => Err(JobError::Protocol(format!(
                "expected stats response, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), JobError> {
        match self.roundtrip(&encode_ping_request())? {
            Response::Pong => Ok(()),
            Response::Error(m) => Err(JobError::Remote(m)),
            other => Err(JobError::Protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Negotiates the protocol version: offers this crate's
    /// [`PROTO_VERSION`], returns the version the server settled on
    /// plus its advertised feature tokens (`graphs` at v2). A v1
    /// server answers the offer with an error frame — mapped here to
    /// `(1, [])`, because every server speaks v1.
    pub fn hello(&mut self) -> Result<(u64, Vec<String>), JobError> {
        match self.roundtrip(&encode_hello_request(PROTO_VERSION))? {
            Response::Hello { proto, features } => Ok((proto, features)),
            Response::Error(_) => Ok((1, Vec::new())),
            other => Err(JobError::Protocol(format!(
                "expected hello response, got {other:?}"
            ))),
        }
    }

    /// Shared decode tail for the graph calls: map `busy` frames to
    /// [`JobError::Busy`] and error frames to [`JobError::Remote`].
    fn expect_graph<T>(
        response: Response,
        what: &str,
        extract: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, JobError> {
        match response {
            Response::Busy { retry_after_ms } => Err(JobError::Busy { retry_after_ms }),
            Response::Error(m) => Err(JobError::Remote(m)),
            other => extract(other)
                .ok_or_else(|| JobError::Protocol(format!("expected {what} response"))),
        }
    }

    /// Creates (or idempotently re-creates) a named graph.
    pub fn graph_create(&mut self, spec: &GraphSpec) -> Result<GraphCreated, JobError> {
        let resp = self.roundtrip(&encode_graph_create(spec))?;
        Self::expect_graph(resp, "graph-create", |r| match r {
            Response::GraphCreated(c) => Some(c),
            _ => None,
        })
    }

    /// Applies a batch of edge deltas to a named graph.
    pub fn graph_patch(&mut self, id: &str, ops: &[DeltaOp]) -> Result<GraphPatched, JobError> {
        let resp = self.roundtrip(&encode_graph_patch(id, ops))?;
        Self::expect_graph(resp, "graph-patch", |r| match r {
            Response::GraphPatched(p) => Some(p),
            _ => None,
        })
    }

    /// Fetches a named graph's metadata.
    pub fn graph_get(&mut self, id: &str) -> Result<GraphMeta, JobError> {
        let resp = self.roundtrip(&encode_graph_get(id))?;
        Self::expect_graph(resp, "graph-get", |r| match r {
            Response::GraphMeta(m) => Some(m),
            _ => None,
        })
    }

    /// Fetches the maintained spanner of a named graph.
    pub fn graph_spanner(&mut self, id: &str) -> Result<GraphSpannerResult, JobError> {
        let resp = self.roundtrip(&encode_graph_spanner_request(id))?;
        Self::expect_graph(resp, "graph-spanner", |r| match r {
            Response::GraphSpanner(s) => Some(s),
            _ => None,
        })
    }

    /// Fetches the maintained spanner as *raw response payload bytes*
    /// — what the per-graph byte-identity guarantee is stated over.
    pub fn graph_spanner_raw(&mut self, id: &str) -> Result<Vec<u8>, JobError> {
        write_frame(
            &mut self.stream,
            encode_graph_spanner_request(id).as_bytes(),
        )
        .map_err(|e| JobError::Io(e.to_string()))?;
        self.roundtrip_raw_read()
    }

    /// Deletes a named graph.
    pub fn graph_delete(&mut self, id: &str) -> Result<(), JobError> {
        let resp = self.roundtrip(&encode_graph_delete(id))?;
        Self::expect_graph(resp, "graph-delete", |r| match r {
            Response::GraphDeleted { .. } => Some(()),
            _ => None,
        })
    }
}
