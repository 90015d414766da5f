//! manta-serve: a fault-isolated, multi-tenant analysis daemon.
//!
//! One daemon process owns a single [`manta::Engine`] (and its attached
//! [`manta::cache::AnalysisCache`], shared across every session) and
//! serves analysis jobs over a length-prefixed TCP protocol
//! ([`proto`]). The design goals, in order:
//!
//! 1. **Fault isolation** — a panic or injected fault while handling one
//!    request becomes a structured [`manta_resilience::MantaError`] on
//!    that client's wire; the connection and the daemon keep serving.
//! 2. **Admission control** — each analysis runs on the connection
//!    thread that read it, once one of `workers` run slots is free. When
//!    `queue_cap` analyses already wait, the daemon answers
//!    [`proto::Response::Overloaded`] immediately instead of queueing
//!    unboundedly, and clients retry with seeded,
//!    capped-exponential backoff ([`manta_resilience::Backoff`]).
//! 3. **Tenant budgets** — each request carries an optional fuel /
//!    deadline budget; the server clamps it under its own caps, so an
//!    abusive request degrades to a tiered partial result instead of
//!    starving its neighbours.
//! 4. **Store hygiene** — periodic size-capped LRU GC of the shared
//!    analysis store, itself fault-isolated and advisory.
//!
//! See `DESIGN.md` §12 for the architecture and failure-mode matrix.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use server::{ServeConfig, ServeStats, Server};
