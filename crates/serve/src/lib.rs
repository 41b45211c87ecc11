//! # wrm-serve — a resident HTTP analysis server
//!
//! `wrm serve` keeps the expensive front half of every `wrm` invocation
//! — parse, lint, compile, and [`wrm_sim::BaseIndex`] construction —
//! resident between requests, so interactive clients (editors,
//! dashboards, autotuners polling a design space) pay only the
//! simulation itself. The moving parts:
//!
//! * a hand-rolled **HTTP/1.1** front end ([`http`]) on
//!   `std::net::TcpListener` — keep-alive, `Content-Length` bodies,
//!   chunked responses for streamed sweeps; no async runtime, no
//!   external dependencies;
//! * an **LRU index cache** ([`cache`]) keyed by a stable content hash
//!   ([`wrm_core::fingerprint_value()`]) of `(workflow, machine override)`: a
//!   hit skips parse/lint/compile/index entirely and goes straight to
//!   the simulator against a shared [`wrm_sim::BaseIndex`];
//! * a fixed **worker pool** ([`pool`]) — a crossbeam job channel
//!   feeding one warmed [`wrm_sim::SimArena`] per worker — multiplexing
//!   the simulation work of all in-flight requests;
//! * per-request **metrics** ([`metrics`]): latency reservoirs per
//!   endpoint, cache hit/miss/eviction counters, and the sweep engine's
//!   replay/cold/reuse path mix, exposed at `/metrics` (Prometheus
//!   text) and `/metrics/json`.
//!
//! * one **query layer** ([`query`]) behind both front ends: `wrm
//!   simulate | certify | sweep | lint` and the `/v1` endpoints parse
//!   into the same [`query::Query`] through one set of validators, and
//!   [`query::execute`] (for sweeps, [`query::SweepRows`]) answers it
//!   through the [`render`] functions.
//!
//! So a server response body is byte-identical to the corresponding
//! `wrm` invocation's stdout — cold cache, warm cache, or under
//! concurrent clients (`crates/cli/tests/serve_e2e.rs` enforces this
//! end to end).
//!
//! See `docs/SERVE.md` for the request/response schemas.

pub mod api;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod query;
pub mod render;
pub mod resolve;
mod server;
mod signals;

pub use server::{run, spawn, ActiveGuard, ServerConfig, ServerHandle};
