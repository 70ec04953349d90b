//! Tracing must not change what is measured, and the fixed-kernel items
//! must reproduce the golden cluster sweep.

use l0bench::check::{check_sweep, differing, load_golden};
use l0bench::exec::run_sweep;
use l0bench::trace::{TracedModel, Tracer};
use l0bench::workload::{cluster_scaling, long_stream, Sweep};
use vliw_ir::LoopBuilder;
use vliw_machine::MachineConfig;
use vliw_sched::{Arch, CompileRequest};
use vliw_sim::{simulate, MemoryModelKind};
use vliw_workloads::kernels;

/// The golden file is addressed from the repository root.
fn at_repo_root() {
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .expect("the repository root exists");
}

/// Only the items on 16-cluster machines: cheap to compile, and they
/// cover the golden check, seeded bodies and every request kind.
fn sixteen_clusters(mut sweep: Sweep) -> Sweep {
    let keep: Vec<bool> = sweep
        .items
        .iter()
        .map(|i| sweep.machines[i.machine_idx].clusters == 16)
        .collect();
    let mut renumber = Vec::new();
    let mut next = 0;
    for &k in &keep {
        renumber.push(next);
        next += usize::from(k);
    }
    let items = std::mem::take(&mut sweep.items);
    sweep.items = items
        .into_iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(mut item, _)| {
            item.baseline = item.baseline.map(|b| renumber[b]);
            item
        })
        .collect();
    sweep
}

#[test]
fn traced_model_forwards_every_method_and_changes_no_result() {
    let cfg = MachineConfig::micro2003();
    // Many short visits, so the fast-forward digests, batches and
    // advances the clock; the flush word exercises invalidate_buffers.
    let loops = [
        kernels::row_filter("fir", 4, 64, 200),
        LoopBuilder::new("slp")
            .trip_count(512)
            .store_load_pair(4)
            .build(),
        kernels::table_lookup("tab", 2, 1 << 12, 256, 3),
    ];
    let mut saw = (false, false);
    for l in &loops {
        for arch in Arch::ALL {
            let schedule = CompileRequest::new(arch).compile(l, &cfg).unwrap();
            let kind = MemoryModelKind::for_arch(arch);
            let plain = simulate(&schedule, &cfg, kind.build(&cfg).as_mut());
            let mut traced_model = TracedModel::new(kind.build(&cfg));
            let traced = simulate(&schedule, &cfg, &mut traced_model);
            assert_eq!(traced, plain, "{} on {arch:?}", l.name);
            assert_eq!(traced.ffwd, plain.ffwd, "{} on {arch:?}", l.name);
            let calls = traced_model.calls();
            assert!(calls.access_calls > 0);
            saw.0 |= calls.advance_calls > 0 && plain.ffwd.iters_batched > 0;
            saw.1 |= calls.digest_calls > 0;
        }
    }
    assert!(saw.0, "some simulation batched through advance_clock");
    assert!(saw.1, "some simulation digested model state");
}

#[test]
fn traced_repetitions_reproduce_untraced_ones_exactly() {
    at_repo_root();
    let golden = load_golden().unwrap();
    let sweep = sixteen_clusters(cluster_scaling(1));
    let plain = run_sweep(&sweep, None, true);
    let mut tracer = Tracer::default();
    let traced = run_sweep(&sweep, Some(&mut tracer), false);
    let diff = differing(&plain, &traced);
    assert_eq!(diff, Vec::<usize>::new());
    let verdict = check_sweep(&sweep, &plain, &[&diff], Some(&golden), None);
    assert_eq!(verdict.violations, Vec::<String>::new());
    assert_eq!(verdict.failed, 0);
    assert_eq!(verdict.attempted, 2 * sweep.items.len() as u64);
    // One item span with compile and simulate children per item.
    let count = |name| tracer.spans().iter().filter(|s| s.name == name).count();
    assert_eq!(count("item"), sweep.items.len());
    assert_eq!(count("sched.compile"), sweep.items.len());
    assert_eq!(count("sim.simulate"), sweep.items.len());
    for s in tracer.spans().iter().filter(|s| s.name == "sim.simulate") {
        let parent = &tracer.spans()[s.parent.unwrap()];
        assert_eq!((parent.name, parent.item), ("item", s.item));
        assert!(s.mem.is_some_and(|m| m.access_calls > 0));
    }
}

#[test]
fn a_wrong_golden_cell_fails_the_check() {
    at_repo_root();
    let mut golden = load_golden().unwrap();
    let cell = golden
        .cells
        .iter_mut()
        .find(|c| c.variant == "16 mesh mshr")
        .unwrap();
    cell.total_cycles += 1;
    let sweep = sixteen_clusters(cluster_scaling(1));
    let rep = run_sweep(&sweep, None, true);
    let verdict = check_sweep(&sweep, &rep, &[], Some(&golden), None);
    assert_eq!(verdict.violations.len(), 1, "{:?}", verdict.violations);
    assert!(verdict.violations[0].contains("16 mesh mshr"));
    // The three L0 items of that cell count as failed.
    assert_eq!(verdict.failed, 3);
}

#[test]
fn sweeps_compile_and_check_clean_on_the_default_and_held_out_seeds() {
    for seed in [1, 7919] {
        let mut sweep = long_stream(seed);
        // Short trips keep the test fast; the checks do not depend on it.
        for l in &mut sweep.loops {
            l.trip_count = 2000;
        }
        let rep = run_sweep(&sweep, None, true);
        let verdict = check_sweep(&sweep, &rep, &[], None, None);
        assert_eq!(verdict.violations, Vec::<String>::new(), "seed {seed}");
        assert!(verdict.norm_cycles_gmean > 0.0);
    }
}

#[test]
fn a_repetition_that_differs_fails_its_items() {
    let sweep = sixteen_clusters(cluster_scaling(1));
    let rep = run_sweep(&sweep, None, true);
    let verdict = check_sweep(&sweep, &rep, &[&[], &[0, 2]], None, None);
    assert_eq!(verdict.attempted, 3 * sweep.items.len() as u64);
    assert_eq!(verdict.failed, 2);
    assert_eq!(verdict.violations.len(), 2);
    assert!(verdict.violations[0].contains("repetition 2 differs"));
}
