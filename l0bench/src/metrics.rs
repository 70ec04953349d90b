//! The benchmark's metric tables (mirrored in `BENCHMARK.json`) and the
//! result line.

use serde::Content;
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit. Printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("norm_cycles_gmean", "ratio"),
];

/// Per-layer metrics: name and unit. Printed by every traced run; a
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("sched.compile_s", "s"),
    ("sched.compile_max_s", "s"),
    ("sched.pass.lower_s", "s"),
    ("sched.pass.schedule-flat_s", "s"),
    ("sched.pass.schedule-unrolled_s", "s"),
    ("sched.pass.select-unroll_s", "s"),
    ("sched.pass.finish-l0_s", "s"),
    ("sched.pass.verify_s", "s"),
    ("sched.compiles", "count"),
    ("sched.errors", "count"),
    ("sched.ii_over_mii", "ratio"),
    ("sched.copies", "count"),
    ("sched.seeded_norm_gmean", "ratio"),
    ("sim.simulate_s", "s"),
    ("sim.self_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.ns_per_replayed_iter", "ns"),
    ("sim.iters_replayed", "count"),
    ("sim.iters_batched", "count"),
    ("sim.batched_frac", "ratio"),
    ("sim.stall_cycles", "cycles"),
    ("sim.contention_stall_cycles", "cycles"),
    ("sim.link_stall_cycles", "cycles"),
    ("mem.access_calls", "count"),
    ("mem.access_s", "s"),
    ("mem.ns_per_access", "ns"),
    ("mem.retire_calls", "count"),
    ("mem.retire_s", "s"),
    ("mem.digest_calls", "count"),
    ("mem.digest_s", "s"),
    ("mem.advance_calls", "count"),
    ("mem.l0_hit_rate", "ratio"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.ic_queue_cycles", "cycles"),
    ("mem.mshr_merges", "count"),
    ("svc.replay_s", "s"),
    ("svc.hit_rate", "ratio"),
    ("svc.misses", "count"),
    ("svc.evictions", "count"),
    ("svc.queue_max_depth", "count"),
    ("svc.backpressure_waits", "count"),
    ("svc.template_compile_ms_mean", "ms"),
    ("svc.instantiate_us_mean", "us"),
    ("svc.busy_frac", "ratio"),
    ("svc.errors", "count"),
    ("gen.workload_s", "s"),
    ("gen.keys_s", "s"),
    ("verify.check_s", "s"),
    ("verify.violations", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("req_samples", "count"),
    ("reps", "count"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, with every metric of `table` in table order.
///
/// # Panics
///
/// When `values` lacks a metric of `table` — a bug in the benchmark.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            let entry = Content::Map(vec![
                ("value".into(), Content::F64(value)),
                ("unit".into(), Content::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Content::Map(vec![
        ("correct".into(), Content::Bool(correct)),
        ("attempted".into(), Content::U64(attempted)),
        ("failed".into(), Content::U64(failed)),
        ("metrics".into(), Content::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("the JSON writer cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Values = [("setup_s", 0.25), ("wall_s", 1.5)].into_iter().collect();
        let line = result_line(true, 3, 0, &END_TO_END[..2], &values);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"},"wall_s":{"value":1.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "{name} twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches(r#""unit":"#).count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
