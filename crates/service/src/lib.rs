//! A batched, cached, multi-worker serving subsystem for the Section-4
//! spanner engine.
//!
//! After PR 1 every caller invoked `dsa_core::dist::min_2_spanner*`
//! directly: single-threaded, one job at a time, no reuse across
//! identical requests. This crate is the scheduling/serving substrate
//! on top of the engine:
//!
//! * [`JobSpec`] describes one request over any of the four problem
//!   variants (via [`dsa_core::dist::VariantInstance`]), with engine
//!   seed, ablation toggles, and an optional deadline;
//! * [`Service`] canonicalizes each request
//!   ([`dsa_graphs::canon`]), answers repeats from an LRU result
//!   cache — optionally backed by a persistent on-disk store
//!   ([`ServiceConfig::cache_dir`]) that survives restarts, warm-fills
//!   the LRU at startup, and verifies every disk hit against the
//!   canonical instance — coalesces concurrent identical submissions
//!   into one engine run, and schedules the rest on a bounded
//!   `std::thread` worker pool — deterministically: the response to a
//!   spec is a pure function of the spec, whatever the worker count
//!   and whether the answer was computed in this process lifetime;
//! * [`MetricsSnapshot`] accounts for the serving work (throughput,
//!   p50/p95 latency via [`dsa_runtime::LatencyRecorder`], cache hit
//!   rate, engine iterations/rounds re-exported from
//!   [`dsa_core::dist::SpannerRun`]);
//! * [`server`] / [`client`] speak a length-prefixed request/response
//!   protocol over TCP ([`wire`]), packaged as the `spanner-serve`
//!   and `spanner-cli` binaries.
//!
//! # Example
//!
//! ```
//! use dsa_core::dist::VariantInstance;
//! use dsa_graphs::gen;
//! use dsa_service::{JobSpec, Service, ServiceConfig};
//!
//! let service = Service::new(&ServiceConfig::default());
//! let spec = JobSpec::new(
//!     VariantInstance::Undirected { graph: gen::complete(8) },
//!     42,
//! );
//! let cold = service.run(&spec).unwrap();
//! let cached = service.run(&spec).unwrap();
//! assert_eq!(cold, cached);
//! assert!(cold.converged);
//! let m = service.metrics();
//! assert_eq!((m.cache_misses, m.cache_hits), (1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod client;
pub mod graphs;
pub mod http;
mod job;
mod metrics;
mod net;
#[cfg(test)]
mod oracle;
mod pool;
pub mod retry;
pub mod server;
mod service;
mod store;
pub mod wire;

pub use client::Client;
pub use graphs::{
    DeltaClasses, DeltaOp, EdgeRole, GraphCreated, GraphError, GraphMeta, GraphPatched,
    GraphSpannerResult, GraphSpec,
};
pub use http::{HttpClient, HttpServer};
pub use job::{JobError, JobResponse, JobSpec};
pub use metrics::MetricsSnapshot;
pub use retry::RetryPolicy;
pub use server::Server;
pub use service::{JobHandle, Service, ServiceConfig};
