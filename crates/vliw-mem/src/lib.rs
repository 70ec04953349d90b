//! Memory hierarchies for the clustered-VLIW L0-buffer study.
//!
//! Four memory systems, all behind the [`MemoryModel`] trait:
//!
//! * [`UnifiedL1`] — the baseline: a centralized L1 data cache, 6-cycle
//!   latency, no L0 buffers (the normalization baseline of Figures 5/7).
//! * [`UnifiedWithL0`] — the paper's proposal: the same unified L1 plus a
//!   small, flexible, compiler-managed L0 buffer per cluster (§3).
//! * [`MultiVliwMem`] — the MultiVLIW baseline \[23\]: L1 distributed among
//!   clusters, kept coherent with a snoop-based MSI protocol.
//! * [`WordInterleavedMem`] — the word-interleaved distributed cache \[10\]
//!   with per-cluster attraction buffers.
//!
//! The models are *timing* models: each access returns the cycle the value
//! is available, and the models track the statistics the paper reports
//! (L0 hit rates, linear vs. interleaved subblock mix, local/remote access
//! counts, ...).
//!
//! All four models route refill/snoop/remote traffic through a shared
//! [`Interconnect`] (per-bank request queues, port-limited grants,
//! distance-dependent hop latency — see DESIGN.md §6). The default
//! [`InterconnectConfig`](vliw_machine::InterconnectConfig) is the
//! paper's flat, contention-free network, under which every route is a
//! zero-cost no-op and the models are bit-exact with their
//! pre-interconnect behaviour; banked topologies add queueing that the
//! simulator surfaces as contention stalls.
//!
//! # Example
//!
//! ```
//! use vliw_machine::{AccessHint, MachineConfig, MappingHint, MemHints, ClusterId};
//! use vliw_mem::{MemRequest, MemoryModel, ReqKind, UnifiedWithL0};
//!
//! let cfg = MachineConfig::micro2003();
//! let mut mem = UnifiedWithL0::new(&cfg);
//! let hints = MemHints::new(AccessHint::ParAccess).with_mapping(MappingHint::Linear);
//!
//! // First touch allocates the subblock: pays the L1 latency.
//! let miss = mem.access(&MemRequest::load(ClusterId::new(0), 0x1000, 4, hints, 0));
//! // Second touch hits in the L0 buffer: 1 cycle.
//! let hit = mem.access(&MemRequest::load(ClusterId::new(0), 0x1004, 4, hints, 100));
//! assert!(miss.ready_at - 0 > hit.ready_at - 100);
//! assert_eq!(hit.ready_at - 100, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod digest;
pub mod interconnect;
pub mod interleaved;
pub mod l0;
pub mod mshr;
pub mod multivliw;
pub mod request;
pub mod stats;
pub mod unified;
pub mod wheel;

pub use cache::SetAssocCache;
pub use interconnect::{Interconnect, Route, Traverse};
pub use interleaved::WordInterleavedMem;
pub use l0::{L0Buffer, L0LookupResult};
pub use mshr::MshrFile;
pub use multivliw::MultiVliwMem;
pub use request::{MemReply, MemRequest, ReqKind, ServicedBy};
pub use stats::MemStats;
pub use unified::{UnifiedL1, UnifiedWithL0};
pub use wheel::SlotWheel;

use vliw_machine::ClusterId;

/// How far behind the current drain cycle arbitration/MSHR state is kept
/// alive. The simulator replays overlapped loop iterations slightly out
/// of global cycle order, so [`Interconnect::retire`],
/// [`MshrFile::retire`](mshr::MshrFile::retire) and the event engine's
/// [`SlotWheel`] judge staleness against the same generous window — one
/// constant so the structures can never disagree about what "too old to
/// matter" means.
pub const REPLAY_HORIZON: u64 = 4096;

/// Which timing engine a memory model's arbitration state runs on.
///
/// The two engines are timing-identical (DESIGN.md §10; pinned by the
/// randomized engine-equivalence suite) — the reference exists so that
/// equivalence stays a *checked* property rather than an assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The default event engine: occupancy wheels that retire stale
    /// state as the clock passes it, no per-cycle sweeps.
    #[default]
    Event,
    /// The retained cycle-stepped reference: `BTreeMap` calendars pruned
    /// by [`MemoryModel::retire`] once per drained cycle.
    Stepped,
}

/// A cycle-level memory system.
///
/// The simulator issues one request per dynamic memory operation and uses
/// the returned [`MemReply::ready_at`] to account stalls. Models are
/// deterministic: the same request sequence produces the same timings.
pub trait MemoryModel {
    /// Performs one access and returns when its value is available.
    fn access(&mut self, req: &MemRequest) -> MemReply;

    /// Executes an `invalidate_buffer` instruction in `cluster` (discards
    /// every entry of its L0-like structure). No-op for models without
    /// per-cluster buffers.
    fn invalidate_buffers(&mut self, _cluster: ClusterId, _cycle: u64) {}

    /// Retires arbitration/MSHR state that can no longer influence any
    /// replayed request (everything more than [`REPLAY_HORIZON`] cycles
    /// before `cycle`). Replaces the old per-slot `tick` plumbing: the
    /// event runner drives it sparsely from its retire deadline
    /// (retirement is timing-invisible, so any cadence is correct), and
    /// the cycle-stepped reference runner drives it once per drained
    /// cycle. Models without prunable state ignore it.
    fn retire(&mut self, _cycle: u64) {}

    /// Statistics accumulated so far.
    fn stats(&self) -> &MemStats;

    /// Snapshot of the per-link / per-bank load the model's interconnect
    /// has observed so far — the network half of a profiling artifact.
    /// `None` for models without a routed network (including every flat
    /// configuration, where nothing is ever routed).
    fn network_load(&self) -> Option<vliw_machine::NetLoad> {
        None
    }

    /// `true` when the model implements [`state_digest`] and
    /// [`advance_clock`] faithfully, opting in to the runner's
    /// steady-state fast-forward. The default is `false` so a model that
    /// keeps the defaulted digest (a constant) can never be mistaken for
    /// one that is periodic — a constant digest *always* recurs.
    ///
    /// [`state_digest`]: MemoryModel::state_digest
    /// [`advance_clock`]: MemoryModel::advance_clock
    fn supports_fast_forward(&self) -> bool {
        false
    }

    /// A translation-invariant digest of every piece of state that can
    /// influence the timing of a *future* request: buffer/cache contents
    /// (addresses absolute, LRU timestamps relative to `base_cycle`),
    /// interconnect occupancies and MSHR flight windows expressed
    /// relative to `base_cycle`. Two instants with equal digests (for
    /// their respective bases) behave identically for identical
    /// subsequent request streams shifted by the base difference.
    ///
    /// Monotonic observables that arbitration never consults (statistics
    /// counters, link/bank load profiles) are excluded — the runner
    /// batches those separately in closed form.
    fn state_digest(&self, _base_cycle: u64) -> u64 {
        0
    }

    /// Shifts every clock-bearing piece of model state forward by
    /// `delta` cycles, realizing the translation that
    /// [`state_digest`](MemoryModel::state_digest) promises is invisible:
    /// after `advance_clock(d)`, requests at `cycle + d` behave exactly
    /// as requests at `cycle` would have before.
    fn advance_clock(&mut self, _delta: u64) {}
}
