//! The target-architecture axis shared by the compiler, the simulator and
//! the experiment engine.
//!
//! `Arch` used to live in the `vliw-bench` harness, with the arch→compiler
//! dispatch duplicated there and the arch→memory-model dispatch duplicated
//! in `vliw-sim`. It now lives next to the compilation drivers so every
//! layer shares one definition: [`Arch::compile`] is the single
//! arch→compiler dispatch point, and `vliw_sim::MemoryModelKind` is the
//! single arch→memory-model dispatch point.

use crate::compile::{CompileRequest, L0Options};
use crate::engine::ScheduleError;
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::fmt;
use vliw_ir::LoopNest;
use vliw_machine::MachineConfig;

/// Which memory architecture a compilation / simulation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// Unified L1, no L0 buffers (the normalization baseline).
    Baseline,
    /// Unified L1 + flexible compiler-managed L0 buffers.
    L0,
    /// MultiVLIW: distributed L1, MSI snoop coherence.
    MultiVliw,
    /// Word-interleaved cache, placement-blind scheduling.
    Interleaved1,
    /// Word-interleaved cache, owner-aware scheduling.
    Interleaved2,
}

impl Arch {
    /// Every architecture, in the order the paper's figures present them.
    pub const ALL: [Arch; 5] = [
        Arch::Baseline,
        Arch::L0,
        Arch::MultiVliw,
        Arch::Interleaved1,
        Arch::Interleaved2,
    ];

    /// Display name used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Arch::Baseline => "baseline",
            Arch::L0 => "L0 buffers",
            Arch::MultiVliw => "MultiVLIW",
            Arch::Interleaved1 => "Interleaved 1",
            Arch::Interleaved2 => "Interleaved 2",
        }
    }

    /// `true` when this architecture schedules against the L0 buffers (and
    /// therefore needs an L0-configured machine).
    pub fn uses_l0(self) -> bool {
        matches!(self, Arch::L0)
    }

    /// Compiles one loop for this architecture with the default (SMS)
    /// backend — a thin wrapper over [`CompileRequest`], which owns the
    /// full knob set (backend, marking, coherence, unrolling).
    ///
    /// Architectures without L0 buffers are compiled against
    /// `cfg.without_l0()`, so callers always pass the full machine
    /// configuration. `opts` only affects the L0 target.
    ///
    /// # Errors
    ///
    /// Returns the scheduler's error when the loop cannot be scheduled.
    pub fn compile(
        self,
        loop_: &LoopNest,
        cfg: &MachineConfig,
        opts: L0Options,
    ) -> Result<Schedule, ScheduleError> {
        CompileRequest::new(self).opts(opts).compile(loop_, cfg)
    }
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::LoopBuilder;

    #[test]
    fn every_arch_compiles_a_simple_loop() {
        let l = LoopBuilder::new("ew")
            .trip_count(128)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        for arch in Arch::ALL {
            let s = arch
                .compile(&l, &cfg, L0Options::default())
                .expect("schedulable");
            assert!(s.ii() > 0, "{arch}");
        }
    }

    #[test]
    fn l0_compilation_respects_options() {
        use crate::compile::MarkPolicy;
        let l = LoopBuilder::new("ew")
            .trip_count(128)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        let opts = L0Options {
            mark: MarkPolicy::AllCandidates,
            ..Default::default()
        };
        let s = Arch::L0.compile(&l, &cfg, opts).expect("schedulable");
        assert!(s.ii() > 0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Arch::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), Arch::ALL.len());
    }
}
