//! The TCP frontend: one accept loop, one thread per connection, each
//! connection multiplexing any number of request frames against the
//! shared [`Service`]. The listener scaffolding (accept loop, thread
//! reaping, shutdown flag) lives in [`crate::net`] and is shared with
//! the HTTP facade ([`crate::http`]).

use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::graphs::GraphError;
use crate::job::{JobError, JobResponse};
use crate::net::{ListenerHandle, ShutdownReader, IDLE_POLL};
use crate::service::{Service, ServiceConfig};
use crate::wire::{
    decode_frame, encode_busy_response, encode_error_response, encode_graph_created,
    encode_graph_deleted, encode_graph_meta, encode_graph_patched, encode_graph_spanner_response,
    encode_hello_response, encode_pong_response, encode_run_response, encode_stats_response,
    read_frame, write_frame, Frame, Request, PROTO_VERSION,
};

/// A running `spanner-serve` wire frontend. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop, joins the connection
/// threads, and tears down the service workers.
pub struct Server {
    listener: ListenerHandle,
    service: Arc<Service>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `cfg` in background threads.
    pub fn start<A: ToSocketAddrs>(addr: A, cfg: &ServiceConfig) -> std::io::Result<Server> {
        Server::with_service(addr, Arc::new(Service::new(cfg)))
    }

    /// Like [`Server::start`], over an existing service (so in-process
    /// callers, HTTP clients, and wire clients can share one cache).
    pub fn with_service<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
    ) -> std::io::Result<Server> {
        let listener = {
            let service = Arc::clone(&service);
            ListenerHandle::start(
                addr,
                "spanner-serve-accept",
                "spanner-serve-conn",
                move |stream, stop| serve_connection(stream, &service, stop),
            )?
        };
        Ok(Server { listener, service })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// The shared service behind this frontend.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, waits for live connections to finish their
    /// current frame, and joins the accept loop.
    pub fn shutdown(mut self) {
        self.listener.shutdown();
    }
}

fn serve_connection(stream: TcpStream, service: &Arc<Service>, stop: &AtomicBool) {
    // A read timeout turns a blocked idle read into a periodic
    // shutdown-flag check. `ShutdownReader` retries cleanly, so
    // in-flight frames are never corrupted by the poll — and arms a
    // per-frame deadline once bytes start flowing (slow-loris
    // defense).
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut reader = ShutdownReader::new(&stream, stop, service.read_budget());
    let mut writer = &stream;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break, // client closed, or shutdown while idle
            Err(_) => {
                if reader.timed_out() {
                    service.on_connection_timed_out();
                }
                break;
            }
        };
        reader.finish_message();
        let response = handle_request(&payload, service);
        // Chaos hook: a dropped connection mid-response frame. The
        // client sees an unexpected EOF and (with retries enabled)
        // reconnects and resubmits — idempotent by the byte-identity
        // contract.
        if service.fault().fire("conn.drop") {
            use std::io::Write;
            let bytes = response.as_bytes();
            let _ = writer.write_all(&(bytes.len() as u32).to_be_bytes());
            let _ = writer.write_all(&bytes[..bytes.len() / 2]);
            let _ = writer.flush();
            break;
        }
        if write_frame(&mut writer, response.as_bytes()).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn handle_request(payload: &[u8], service: &Arc<Service>) -> String {
    // Shared shed path: an overloaded solve answers `busy` with a
    // retry hint whether it arrived as a one-shot job or a graph op.
    let graph_result = |result: Result<String, GraphError>| match result {
        Ok(response) => response,
        Err(GraphError::Job(JobError::Busy { retry_after_ms })) => {
            encode_busy_response(retry_after_ms)
        }
        Err(e) => encode_error_response(&e.to_string()),
    };
    let run_reply = |result: Result<JobResponse, JobError>| match result {
        Ok(resp) => encode_run_response(&resp),
        Err(JobError::Busy { retry_after_ms }) => encode_busy_response(retry_after_ms),
        Err(e) => encode_error_response(&e.to_string()),
    };
    let request = match decode_frame(payload) {
        Ok(Frame::Run(job)) => return run_reply(service.run_canonical(*job)),
        Ok(Frame::Other(request)) => Ok(request),
        Err(e) => Err(e),
    };
    match request {
        Ok(Request::Ping) => encode_pong_response(),
        Ok(Request::Stats) => encode_stats_response(&service.metrics().to_json()),
        Ok(Request::Hello { proto }) => {
            // Serve the newest version both sides speak. A v1 peer
            // gets `proto 1` and no feature tokens — exactly the
            // pre-handshake protocol it already knows.
            let proto = proto.min(PROTO_VERSION);
            if proto >= 2 {
                encode_hello_response(proto, &["graphs"])
            } else {
                encode_hello_response(proto, &[])
            }
        }
        Ok(Request::Run(spec)) => run_reply(service.run(&spec)),
        Ok(Request::GraphCreate(spec)) => graph_result(
            service
                .graph_create(*spec)
                .map(|r| encode_graph_created(&r)),
        ),
        Ok(Request::GraphPatch { id, ops }) => graph_result(
            service
                .graph_patch(&id, &ops)
                .map(|r| encode_graph_patched(&r)),
        ),
        Ok(Request::GraphGet { id }) => {
            graph_result(service.graph_meta(&id).map(|r| encode_graph_meta(&r)))
        }
        Ok(Request::GraphSpanner { id }) => graph_result(
            service
                .graph_spanner(&id)
                .map(|r| encode_graph_spanner_response(&r)),
        ),
        Ok(Request::GraphDelete { id }) => graph_result(
            service
                .graph_delete(&id)
                .map(|()| encode_graph_deleted(&id)),
        ),
        Err(e) => encode_error_response(&e.to_string()),
    }
}
