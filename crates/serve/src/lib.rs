//! distda-serve: the simulator as a long-running service.
//!
//! A daemon that accepts sweep requests over a line-delimited JSON
//! protocol on a TCP socket, dedupes identical cells through a
//! content-addressed result cache keyed by the obs manifest config hash,
//! shards cache misses across a fixed worker pool behind a bounded queue
//! (whole-job admission; reject-with-`retry_after` backpressure), streams
//! progress in the `DISTDA_PROGRESS` JSONL shape, and exposes the obs
//! [`distda_obs::Registry`] as an OpenMetrics `/metrics` endpoint on the
//! same port.
//!
//! The simulator is deterministic — a run is a pure function of its
//! configuration — so caching by content address is sound: a second
//! identical sweep returns byte-identical results with zero new simulated
//! ticks. See `DESIGN.md` §13 for the protocol grammar, the cache-key
//! derivation, and the backpressure policy.
//!
//! Module map:
//!
//! * [`protocol`] — wire grammar, request parsing, response rendering.
//! * [`cache`] — canonical result encoding and the two-layer
//!   (memory LRU + persistent) content-addressed cache.
//! * [`pool`] — the fixed worker pool and its reservation-based bounded
//!   queue.
//! * [`server`] — the daemon: accept loop, sweep pipeline, `/metrics`.
//! * [`client`] — a blocking client for tests, CI, and scripting.
//! * [`env`](mod@env) — the `DISTDA_SERVE_*` knobs.

pub mod cache;
pub mod client;
pub mod env;
pub mod pool;
pub mod protocol;
pub mod server;

pub use cache::{decode_result, encode_result, CacheStats, ResultCache};
pub use client::{fetch_metrics, CellResult, Client, SweepReply, Transcript};
pub use server::{ServeConfig, Server, MAX_LINE_BYTES};
