//! # streamshed-net
//!
//! The network ingestion plane: everything between a TCP socket and the
//! engine's batched front door, plus the client fleet that loads it.
//!
//! * [`wire`] — the compact length-prefixed binary protocol: tuple
//!   batches with optional keys, one backpressure reply per frame
//!   carrying the four-bucket admission ledger across the wire.
//! * [`server`] — thread-per-core listeners ([`NetServer`]) over a
//!   registered readiness set (`epoll(7)` on Linux; a wake costs what is
//!   ready, not what is open): binary ingest and HTTP/1.1 (POST
//!   `/ingest` + passthrough to the obs-plane endpoints) on one port,
//!   per-connection bounded buffers, explicit backpressure, idle
//!   timeouts, graceful drain.
//! * [`loadgen`] — a seeded open-loop client fleet
//!   ([`loadgen::run`]) reporting connections held, tuples/sec, and
//!   shedding fairness, with the cross-boundary conservation law
//!   checked from per-frame replies.
//! * [`sys`] — the crate's single audited unsafe module: the readiness
//!   set, `poll(2)`, SIGTERM flags, `getrlimit`.
//!
//! The design invariant inherited from the paper's control argument
//! (and the trustworthy-overload line of work): admission decisions are
//! made *before* per-tuple work. A shed frame costs one 16-byte header
//! parse — tuples are never materialized, keys never decoded.
//!
//! ```
//! use std::sync::Arc;
//! use streamshed_net::{LoadgenConfig, NetConfig, NetServer};
//! use streamshed_engine::shard::{ShardConfig, ShardedEngine};
//! use streamshed_engine::hook::NoShedding;
//! use streamshed_engine::worker::CostModel;
//! use std::time::Duration;
//!
//! // A tiny engine with a free cost model, fronted by the server.
//! let mut cfg = ShardConfig::demo(1);
//! cfg.cost = Duration::ZERO;
//! cfg.cost_model = CostModel::Spin;
//! let engine = Arc::new(ShardedEngine::spawn(cfg, NoShedding));
//! let server = NetServer::start(NetConfig::default(), engine.clone(), None).unwrap();
//!
//! // A one-connection fleet for a fraction of a second.
//! let report = streamshed_net::loadgen::run(&LoadgenConfig {
//!     addr: server.addr(),
//!     connections: 1,
//!     rate: 2000.0,
//!     secs: 0.2,
//!     ..LoadgenConfig::default()
//! })
//! .unwrap();
//! assert!(report.conserved());
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod loadgen;
pub mod server;
pub mod sys;
pub mod wire;

pub use loadgen::{Arrivals, LoadgenConfig, LoadgenReport};
pub use server::{FrontDoor, NetConfig, NetObs, NetServer, NetStats};
pub use wire::{FrameRef, Reply, WireError};
