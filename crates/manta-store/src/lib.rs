//! # manta-store
//!
//! The persistence layer of the Manta pipeline: a zero-dependency
//! (`std`-only, per the repo's in-tree-substitutes convention)
//! content-addressed analysis cache.
//!
//! Four building blocks, layered bottom-up:
//!
//! * [`hash`] — deterministic 64-bit hashing ([`hash::Fingerprint`],
//!   FNV-1a + splitmix64). Also the one shared home of `splitmix64`,
//!   previously duplicated across the workload generator and the ISA
//!   property tests.
//! * [`bytes`] — length-prefixed binary codecs ([`bytes::ByteWriter`] /
//!   [`bytes::ByteReader`]) with panic-free, allocation-bounded
//!   decoding. Every cached payload uses these.
//! * [`json`] — the hand-rolled JSON writer/parser shared with
//!   `manta-telemetry` (which re-exports it) and the bench JSON
//!   baselines.
//! * [`store`] — the versioned on-disk [`Store`]: entries keyed by
//!   `(stage, content-hash, config-hash)`, self-checksummed files,
//!   atomic-rename writes, corruption that degrades to recomputation.
//!
//! [`TempDir`] gives tests and benchmarks a per-process-unique temporary
//! directory for their stores.
//!
//! This crate knows nothing about IR, analyses or inference: higher
//! layers (`manta::cache`, `manta-eval`) map their domain objects onto
//! hashes and byte payloads. That keeps `manta-store` at the very
//! bottom of the crate graph, so even `manta-telemetry` can reuse its
//! serialization helpers.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bytes;
pub mod hash;
pub mod json;
pub mod store;
mod tempdir;

pub use bytes::{ByteReader, ByteWriter, DecodeError};
pub use hash::{combine, hash_bytes, hash_str, splitmix64, Fingerprint};
pub use store::{
    GcReport, Key, OpenOutcome, StatsSnapshot, Store, StoreError, StoreStats, DEFAULT_LOCK_WAIT,
    FORMAT_VERSION, LOCK_FILE,
};
pub use tempdir::TempDir;
