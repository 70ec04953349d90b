//! Human-readable rendering of modulo schedules — the equivalent of a
//! compiler's `-S` output, used by the examples and invaluable when
//! debugging cluster assignment.
//!
//! ```text
//! loop "ew*4": II=2, SC=3, unroll x4, maxlive [5, 5, 5, 4]
//! slot | cluster0           | cluster1           | ...
//! -----+--------------------+--------------------+----
//!    0 | n0 LD s0 L0 SEQ    | n3 LD s0 L0 SEQ    | ...
//!    1 | n2 ST s1 PAR       | n5 ST s1 PAR       | ...
//! ```

use crate::schedule::Schedule;
use std::fmt::Write as _;
use vliw_ir::OpKind;

fn op_mnemonic(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::IntAlu => "ALU",
        OpKind::IntMul => "MUL",
        OpKind::FpAlu => "FAD",
        OpKind::FpMul => "FML",
        OpKind::FpDiv => "FDV",
        OpKind::Load(_) => "LD",
        OpKind::Store(_) => "ST",
        OpKind::Branch => "BR",
        OpKind::Prefetch(_) => "PF",
        OpKind::InvalidateL0 => "INV",
        OpKind::Copy => "CP",
    }
}

/// Renders the kernel of `schedule` as a fixed-width table: one row per
/// modulo slot, one column per cluster, each cell listing the ops issued
/// in that slot (with their pipeline stage and, for memory ops, the
/// access hint).
pub fn render_kernel(schedule: &Schedule) -> String {
    let ii = schedule.ii() as i64;
    let clusters = schedule
        .placements
        .iter()
        .map(|p| p.cluster.index())
        .chain(schedule.prefetches.iter().map(|p| p.cluster.index()))
        .max()
        .map(|m| m + 1)
        .unwrap_or(1);

    let mut cells: Vec<Vec<Vec<String>>> = vec![vec![Vec::new(); clusters]; ii as usize];
    for p in &schedule.placements {
        let op = schedule.loop_.op(p.op);
        let slot = p.t.rem_euclid(ii) as usize;
        let stage = p.t.div_euclid(ii);
        let mut s = format!("{} {} s{}", p.op, op_mnemonic(&op.kind), stage);
        if op.kind.is_mem() {
            let _ = write!(s, " {}", p.hints.access);
        }
        cells[slot][p.cluster.index()].push(s);
    }
    for pf in &schedule.prefetches {
        let slot = pf.t.rem_euclid(ii) as usize;
        cells[slot][pf.cluster.index()].push(format!("PF->{} +{}", pf.for_op, pf.lookahead));
    }
    for r in &schedule.replicas {
        let slot = r.t.rem_euclid(ii) as usize;
        cells[slot][r.cluster.index()].push(format!("ST* {}", r.for_op));
    }
    for c in &schedule.copies {
        let slot = c.t.rem_euclid(ii) as usize;
        // copies ride the shared buses; show them in the target cluster
        cells[slot][c.to_cluster.index()].push(format!("CP<-{}", c.from_op));
    }

    let width = cells
        .iter()
        .flatten()
        .map(|cell| cell.join("; ").len())
        .max()
        .unwrap_or(8)
        .max(8);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "loop {:?}: II={}, SC={}, unroll x{}, maxlive {:?}",
        schedule.loop_.name,
        schedule.ii(),
        schedule.stage_count(),
        schedule.loop_.unroll_factor,
        schedule.max_live
    );
    let _ = write!(out, "slot |");
    for c in 0..clusters {
        let _ = write!(out, " {:<width$} |", format!("cluster{c}"), width = width);
    }
    let _ = writeln!(out);
    let _ = write!(out, "-----+");
    for _ in 0..clusters {
        let _ = write!(out, "{}+", "-".repeat(width + 2));
    }
    let _ = writeln!(out);
    for (slot, row) in cells.iter().enumerate() {
        let _ = write!(out, "{slot:>4} |");
        for cell in row {
            let _ = write!(out, " {:<width$} |", cell.join("; "), width = width);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arch, CompileRequest};
    use vliw_ir::LoopBuilder;
    use vliw_machine::MachineConfig;

    #[test]
    fn renders_every_op_once() {
        let l = LoopBuilder::new("render-me")
            .trip_count(64)
            .fir(3, 2)
            .build();
        let cfg = MachineConfig::micro2003();
        let s = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
        let text = render_kernel(&s);
        assert!(text.contains("II="));
        for p in &s.placements {
            assert!(
                text.contains(&format!("{}", p.op)),
                "missing {} in:\n{text}",
                p.op
            );
        }
    }

    #[test]
    fn row_count_matches_ii() {
        let l = LoopBuilder::new("rows")
            .trip_count(64)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        let s = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
        let text = render_kernel(&s);
        let data_rows = text
            .lines()
            .filter(|l| {
                l.trim_start()
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit())
            })
            .count();
        assert_eq!(data_rows, s.ii() as usize);
    }

    #[test]
    fn hints_appear_for_memory_ops() {
        let l = LoopBuilder::new("hints")
            .trip_count(64)
            .elementwise(2)
            .build();
        let cfg = MachineConfig::micro2003();
        let s = CompileRequest::new(Arch::L0).compile(&l, &cfg).unwrap();
        let text = render_kernel(&s);
        assert!(
            text.contains("SEQ_ACCESS")
                || text.contains("PAR_ACCESS")
                || text.contains("NO_ACCESS"),
            "{text}"
        );
    }
}
