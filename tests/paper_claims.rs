//! Integration tests for the paper's headline qualitative claims, run on
//! a subset of the synthetic Mediabench suite (the full sweep lives in
//! the `vliw-bench` binaries). Each claim runs a one-benchmark
//! [`SweepGrid`], so every total carries the same baseline-sized scalar
//! region the figures use.

use clustered_vliw_l0::machine::{AccessHint, L0Capacity, MachineConfig};
use clustered_vliw_l0::sched::L0Options;
use clustered_vliw_l0::workloads::mediabench_suite;
use vliw_bench::experiment::{Cell, SweepGrid, Variant};
use vliw_bench::Arch;

/// Runs `variants` on the named suite benchmark over `cfg` and returns
/// one cell per variant, in order.
fn cells(name: &str, cfg: MachineConfig, variants: Vec<Variant>) -> Vec<Cell> {
    let spec = mediabench_suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark exists");
    SweepGrid::new(name, cfg, vec![spec])
        .with_variants(variants)
        .run()
        .row(0)
        .to_vec()
}

#[test]
fn g721_wins_big_with_eight_entry_buffers() {
    let l0 = &cells(
        "g721dec",
        MachineConfig::micro2003(),
        vec![Variant::new(Arch::L0)],
    )[0];
    let norm = l0.normalized;
    assert!(
        norm < 0.85,
        "g721dec normalized {norm:.3} must show a clear win"
    );
}

#[test]
fn jpegdec_does_not_benefit() {
    // §5.2: jpegdec is the benchmark where L0 buffers do not pay off.
    let l0 = &cells(
        "jpegdec",
        MachineConfig::micro2003(),
        vec![Variant::new(Arch::L0)],
    )[0];
    let norm = l0.normalized;
    assert!(
        norm > 0.95,
        "jpegdec normalized {norm:.3} should be ~1.0 or worse"
    );
}

#[test]
fn eight_entries_beat_two_entries() {
    // Figure 5 + in-text: 2-entry buffers give a smaller improvement.
    // Both columns share one baseline (it never depends on L0 capacity),
    // so their totals carry the same scalar region.
    let row = cells(
        "gsmdec",
        MachineConfig::micro2003(),
        vec![
            Variant::new(Arch::L0).l0(L0Capacity::Bounded(8)),
            Variant::new(Arch::L0).l0(L0Capacity::Bounded(2)),
        ],
    );
    let (r8, r2) = (&row[0], &row[1]);
    assert_eq!(r8.baseline_total_cycles, r2.baseline_total_cycles);
    assert!(
        r8.total_cycles <= r2.total_cycles,
        "8 entries ({}) must not lose to 2 ({})",
        r8.total_cycles,
        r2.total_cycles
    );
}

#[test]
fn multivliw_is_close_to_l0_and_interleaved_is_behind() {
    // Figure 7's ordering on a representative benchmark.
    let row = cells(
        "g721enc",
        MachineConfig::micro2003(),
        vec![
            Variant::new(Arch::L0),
            Variant::new(Arch::MultiVliw),
            Variant::new(Arch::Interleaved1),
        ],
    );
    let (n_l0, n_mv, n_i1) = (row[0].normalized, row[1].normalized, row[2].normalized);
    assert!(
        (n_l0 - n_mv).abs() < 0.15,
        "L0 {n_l0:.3} close to MultiVLIW {n_mv:.3}"
    );
    assert!(
        n_l0 < n_i1,
        "L0 {n_l0:.3} beats word-interleaved h1 {n_i1:.3}"
    );
}

#[test]
fn table1_stride_shape_holds() {
    for spec in mediabench_suite() {
        let t = spec.table1_stats();
        match spec.name.as_str() {
            "g721dec" | "g721enc" => assert!(t.good_pct > 95.0, "{}: {t:?}", spec.name),
            "mpeg2dec" => assert!(t.other_pct > 30.0, "{}: {t:?}", spec.name),
            "jpegdec" | "jpegenc" | "pegwitdec" | "pegwitenc" => {
                assert!(t.strided_pct < 75.0, "{}: {t:?}", spec.name)
            }
            _ => assert!(t.strided_pct > 80.0, "{}: {t:?}", spec.name),
        }
    }
}

#[test]
fn hints_are_legal_across_the_suite() {
    // SEQ_ACCESS legality (§3.2): no other memory op in the next slot of
    // the same cluster; NO_ACCESS loads carry no prefetch hints.
    let cfg = MachineConfig::micro2003();
    for spec in mediabench_suite().iter().take(4) {
        for loop_ in &spec.loops {
            let s = Arch::L0
                .compile(loop_, &cfg, L0Options::default())
                .expect("schedulable");
            let ii = s.ii() as i64;
            let mem_slots: std::collections::HashSet<(usize, i64)> = s
                .placements
                .iter()
                .filter(|p| s.loop_.op(p.op).kind.is_mem())
                .map(|p| (p.cluster.index(), p.t.rem_euclid(ii)))
                .collect();
            for p in &s.placements {
                let op = s.loop_.op(p.op);
                if op.is_load() && p.hints.access == AccessHint::SeqAccess {
                    let next = (p.t + 1).rem_euclid(ii);
                    assert!(
                        !mem_slots.contains(&(p.cluster.index(), next)),
                        "{}/{}: SEQ load with busy next slot",
                        spec.name,
                        loop_.name
                    );
                }
            }
        }
    }
}
