//! Filter-as-a-service: a durable, multi-core TCP front-end for the
//! multi-partitioned counting Bloom filter.
//!
//! The server runs [`mpcbf_durability`]'s sharded WAL from its
//! connection threads: queries read the shared filter in place, with no
//! lock, while a mutation takes its shard's log lock (by the same
//! top-digest-bit rule the filter shards on), logs, applies, and only
//! then replies. An acknowledgement therefore always means "logged
//! under the configured
//! [`FsyncPolicy`](mpcbf_durability::FsyncPolicy)" — after a crash,
//! [`Server::start`] replays the logs and every acked key answers
//! present again.
//!
//! * [`Server`] / [`ServerConfig`] — the service itself.
//! * [`Client`] — a blocking connection speaking the frame protocol.
//! * [`protocol`] — the wire format: length-prefixed frames, total
//!   parsing, hard size ceilings.
//! * `/metrics` — an optional HTTP listener serving the Prometheus page.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod metrics;
pub mod protocol;
mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use metrics::http_get_text;
pub use protocol::KeyOutcome;
pub use server::{Server, ServerConfig, ServerError};
