//! # vr-engine — cycle-level pipelined lookup-engine simulator
//!
//! The paper measures its architectures post place-and-route; this crate
//! is the behavioural half of that substitute (see DESIGN.md): a
//! cycle-accurate model of the linear lookup pipeline (§V-D) and of the
//! three router organizations built from it (§IV):
//!
//! * **NV** — K devices, each with one dedicated engine;
//! * **VS** — K engines space-sharing one device behind a VNID
//!   distributor (Assumption 3 makes the distributor itself free);
//! * **VM** — one engine time-shared by the merged packet stream, leaves
//!   holding K-wide NHI vectors indexed by VNID.
//!
//! Each pipeline stage performs one memory read per in-flight packet per
//! cycle. Energy is accounted per stage-cycle using the *same* coefficients
//! the analytical models use (`vr-fpga`): a Table III µW/MHz coefficient
//! is numerically a pJ/cycle energy, so the simulator's measured dynamic
//! power converges to the model's µ-scaled prediction as utilization
//! settles — the cross-validation exercised by the integration tests.
//!
//! Correctness is checked against the `vr-net` linear-scan oracle: every
//! completed lookup is compared with `RoutingTable::lookup`.
//!
//! Beyond the cycle-level model, [`service`] hosts the production-shaped
//! datapath: a concurrent [`LookupService`] worker pool resolving packet
//! batches against an immutable `JumpTrie` behind an RCU-style
//! generation-counted snapshot swap, so route updates never stall
//! in-flight lookups. [`cache`] adds the per-worker LPM result cache in
//! front of that walk — direct-mapped, generation-tagged so every publish
//! invalidates it in O(1) — which skewed (Zipf) traffic turns into a
//! multiple of the uncached throughput. With
//! [`ServiceConfig::trace_sample`](service::ServiceConfig::trace_sample)
//! set, the service threads a sampled `vr-obs` [`Tracer`] through the
//! hot path: 1-in-N batches carry an owned stage recorder through the
//! queue (enqueue → dequeue → cache probe → walk → scatter → complete),
//! and publishes / update batches land as control-plane spans on the
//! same timeline — exportable as Chrome trace JSON and servable over the
//! vr-obs HTTP plane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod datapath;
pub mod engine;
pub mod multiway;
pub mod police;
pub mod report;
pub mod router;
pub mod service;

pub use cache::{CacheStats, LpmCache, DEFAULT_CACHE_SLOTS};
pub use datapath::StageMetrics;
pub use engine::{CompletedLookup, EngineConfig, EngineStats, PipelineEngine};
pub use multiway::MultiwayEngine;
pub use report::SimReport;
pub use router::{ArrivalModel, SimConfig, VirtualRouterSim};
pub use service::{
    CompletedBatch, LookupReader, LookupService, ServiceConfig, ServiceReport, TableSnapshot,
};
// Re-exported so service users can consume traces without naming the
// observability crate themselves.
pub use vr_obs::{BatchTrace, Stage, TraceSnapshot, Tracer};

/// Errors from simulator construction and runs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// A parameter was out of its valid domain.
    InvalidParameter(&'static str),
    /// Underlying trie construction failed.
    Trie(vr_trie::TrieError),
    /// Underlying traffic generation failed.
    Net(vr_net::NetError),
    /// The structural audit rejected a table before it could be published
    /// to the datapath (the message is the violation summary).
    AuditRejected(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            EngineError::Trie(e) => write!(f, "trie error: {e}"),
            EngineError::Net(e) => write!(f, "net error: {e}"),
            EngineError::AuditRejected(summary) => {
                write!(f, "table rejected by structural audit: {summary}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<vr_trie::TrieError> for EngineError {
    fn from(e: vr_trie::TrieError) -> Self {
        EngineError::Trie(e)
    }
}

impl From<vr_net::NetError> for EngineError {
    fn from(e: vr_net::NetError) -> Self {
        EngineError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        let e: EngineError = vr_trie::TrieError::ZeroStages.into();
        assert!(e.to_string().contains("trie error"));
        let e: EngineError = vr_net::NetError::InvalidPrefixLen(40).into();
        assert!(e.to_string().contains("net error"));
        assert!(EngineError::InvalidParameter("x").to_string().contains('x'));
    }
}
