//! Output checks, run after the timed phase: static verification of
//! every schedule and simulation, determinism across repetitions (traced
//! ones included), the golden `sweep_clusters` cells, and the service's
//! cached-vs-uncached checksum.

use crate::exec::{run_replay, ItemOutput, ReplayRep, SweepRep};
use crate::stats::{gmean, Fnv};
use crate::trace::Tracer;
use crate::workload::{Golden, ServiceMix, Sweep};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use vliw_bench::experiment::{GridResult, TRIP_MENU};
use vliw_ir::TripShape;
use vliw_sched::{merge_pass_stats, Arch, CompileRequest, PassStat, Schedule};
use vliw_service::ServiceConfig;

/// Where the `sweep_clusters` golden lives, relative to the repository
/// root the benchmark runs from.
pub const GOLDEN_PATH: &str = "tests/golden/sweep_clusters.json";

/// The outcome of checking one run.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Items (or requests) attempted over every repetition.
    pub attempted: u64,
    /// Of those, the ones that returned an error or failed a check.
    pub failed: u64,
    /// What failed, one line each.
    pub violations: Vec<String>,
    /// FNV digest over every item's II and simulated cycles.
    pub digest: u64,
    /// Geometric mean over the non-Baseline items on fixed
    /// (seed-independent) loops of cycles ÷ Baseline cycles on the same
    /// loop and machine.
    pub norm_cycles_gmean: f64,
    /// The same over the items on seeded loops.
    pub seeded_norm_gmean: f64,
    /// Host time the checks took.
    pub check_s: f64,
}

/// Reads the golden cluster sweep.
///
/// # Errors
///
/// When the file is missing or does not parse.
pub fn load_golden() -> Result<GridResult, String> {
    let text = std::fs::read_to_string(GOLDEN_PATH).map_err(|e| format!("{GOLDEN_PATH}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{GOLDEN_PATH}: {e:?}"))
}

fn same(a: &ItemOutput, b: &ItemOutput) -> bool {
    a.ii == b.ii
        && a.mii == b.mii
        && a.copies == b.copies
        && a.sim == b.sim
        && a.sim.ffwd == b.sim.ffwd
}

/// Items of `rep` whose outcome differs from `first`'s; an error on
/// either side counts as differing.
pub fn differing(first: &SweepRep, rep: &SweepRep) -> Vec<usize> {
    (0..first.items.len())
        .filter(|&i| match (&rep.items[i].result, &first.items[i].result) {
            (Ok(a), Ok(b)) => !same(a, b),
            _ => true,
        })
        .collect()
}

/// Checks a sweep: `first` is the first repetition, which kept its
/// schedules; `later` holds, for every other repetition (traced ones
/// included), the items that did not reproduce `first` exactly.
pub fn check_sweep(
    sweep: &Sweep,
    first: &SweepRep,
    later: &[&[usize]],
    golden: Option<&GridResult>,
    mut tracer: Option<&mut Tracer>,
) -> Verdict {
    let start = Instant::now();
    let mut v = Verdict::default();
    let mut bad = vec![false; sweep.items.len()];
    let root = tracer.as_deref_mut().map(|t| t.open("checks", 0, None));
    for (i, item) in sweep.items.iter().enumerate() {
        let span = tracer
            .as_deref_mut()
            .map(|t| t.open("verify.check", i as u64 + 1, root));
        let kept = first.schedules.get(i).and_then(Option::as_ref);
        let problems = match (&first.items[i].result, kept) {
            (Err(e), _) => vec![format!("compile error: {e}")],
            (Ok(out), Some(schedule)) => {
                let cfg = &sweep.machines[item.machine_idx];
                let name = &schedule.loop_.name;
                vliw_verify::check_schedule(&item.request, schedule, cfg)
                    .into_iter()
                    .chain(vliw_verify::check_sim(name, &out.sim))
                    .map(|x| x.to_string())
                    .collect()
            }
            (Ok(_), None) => vec!["schedule was not kept for checking".into()],
        };
        if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
            t.close(s);
        }
        if !problems.is_empty() {
            bad[i] = true;
            v.violations
                .extend(problems.into_iter().map(|p| format!("{}: {p}", item.label)));
        }
    }
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    if let Some(golden) = golden {
        check_golden(sweep, first, golden, &mut bad, &mut v.violations);
    }
    let items = sweep.items.len() as u64;
    v.attempted = items * (1 + later.len() as u64);
    v.failed = bad.iter().filter(|&&b| b).count() as u64;
    for (r, diff) in later.iter().enumerate() {
        v.failed += (0..sweep.items.len())
            .filter(|i| bad[*i] || diff.contains(i))
            .count() as u64;
        for &i in *diff {
            v.violations.push(format!(
                "{}: repetition {} differs from repetition 0",
                sweep.items[i].label,
                r + 1
            ));
        }
    }
    let mut digest = Fnv::default();
    let (mut ratios, mut seeded) = (Vec::new(), Vec::new());
    for (i, item) in sweep.items.iter().enumerate() {
        match &first.items[i].result {
            Ok(out) => {
                digest.push(u64::from(out.ii));
                digest.push(out.sim.total_cycles());
                if let Some(Ok(base)) = item.baseline.map(|b| &first.items[b].result) {
                    let r = out.sim.total_cycles() as f64 / base.sim.total_cycles().max(1) as f64;
                    if sweep.is_seeded(item) {
                        &mut seeded
                    } else {
                        &mut ratios
                    }
                    .push(r);
                }
            }
            Err(_) => digest.push(u64::MAX),
        }
    }
    v.digest = digest.finish();
    v.norm_cycles_gmean = gmean(&ratios);
    v.seeded_norm_gmean = gmean(&seeded);
    v.check_s = start.elapsed().as_secs_f64();
    v
}

/// The fixed-kernel items must sum exactly to the golden cells.
fn check_golden(
    sweep: &Sweep,
    rep: &SweepRep,
    golden: &GridResult,
    bad: &mut [bool],
    violations: &mut Vec<String>,
) {
    let mut groups: BTreeMap<String, (u64, Vec<usize>)> = BTreeMap::new();
    for (i, item) in sweep.items.iter().enumerate() {
        let key = match &item.golden {
            Some(Golden::Total(cell)) => cell.clone(),
            Some(Golden::Baseline(n)) => format!("{n} baseline"),
            None => continue,
        };
        let cycles = rep.items[i]
            .result
            .as_ref()
            .map_or(0, |o| o.sim.total_cycles());
        let g = groups.entry(key).or_default();
        g.0 += cycles;
        g.1.push(i);
    }
    for (key, (sum, items)) in &groups {
        let expected: Vec<u64> = match key.strip_suffix(" baseline") {
            Some(n) => golden
                .cells
                .iter()
                .filter(|c| c.variant.starts_with(&format!("{n} mesh mshr")))
                .map(|c| c.baseline_total_cycles)
                .collect(),
            None => golden
                .cells
                .iter()
                .filter(|c| &c.variant == key)
                .map(|c| c.total_cycles)
                .collect(),
        };
        if expected.is_empty() || expected.iter().any(|&e| e != *sum) {
            violations.push(format!(
                "golden {key}: items sum to {sum}, {GOLDEN_PATH} has {expected:?}"
            ));
            for &i in items {
                bad[i] = true;
            }
        }
    }
}

/// Template-level measurements over the service pool, taken outside
/// the service.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Host time of each L0 template compile (`compile_symbolic`).
    pub template_s: Vec<f64>,
    /// Host time of each L0 instantiation (`instantiate`).
    pub instantiate_s: Vec<f64>,
    /// Per-pass timing of the L0 template compiles.
    pub pass_stats: Vec<PassStat>,
    /// Template compiles and instantiations that returned an error.
    pub errors: u64,
    /// Σ II and Σ MII over the instantiated L0 schedules.
    pub ii_sum: u64,
    pub mii_sum: u64,
    /// Σ inter-cluster copies over the instantiated L0 schedules.
    pub copies: u64,
}

/// Simulated cycles of a schedule without memory stalls: what the
/// simulator charges as compute time (one extra cycle per visit for the
/// L0 flush word).
fn static_cycles(s: &Schedule) -> u64 {
    (s.compute_cycles_per_visit() + u64::from(s.flush_on_exit)) * s.loop_.visits.max(1)
}

/// Checks the service replays: no request fails, every repetition
/// serves every request, and a cached and an uncached verification
/// replay with the checksum on serve identical artifacts. Also measures
/// the pool's templates (L0 and Baseline) outside the service, which
/// gives `norm_cycles_gmean` over every Mediabench loop at every trip
/// count of the menu, and the seeded gmean over the (seeded body, trip)
/// pairs the mix asks for.
pub fn check_service(
    mix: &ServiceMix,
    reps: &[&ReplayRep],
    mut tracer: Option<&mut Tracer>,
) -> (Verdict, PoolStats) {
    let start = Instant::now();
    let mut v = Verdict::default();
    for (r, rep) in reps.iter().enumerate() {
        let rp = &rep.report;
        v.attempted += rp.requests;
        let unserved = rp.requests.saturating_sub(rp.served);
        v.failed += unserved.max(rp.errors);
        if unserved > 0 || rp.errors > 0 {
            v.violations.push(format!(
                "repetition {r}: {} of {} requests served, {} errors",
                rp.served, rp.requests, rp.errors
            ));
        }
    }
    let root = tracer.as_deref_mut().map(|t| t.open("checks", 0, None));
    let span = tracer
        .as_deref_mut()
        .map(|t| t.open("verify.check", 1, root));
    let verify = |caching: bool| {
        let config = ServiceConfig {
            caching,
            checksum: true,
            ..mix.config
        };
        run_replay(mix, config, None).report.checksum
    };
    let (cached, uncached) = (verify(true), verify(false));
    if cached.is_none() || cached != uncached {
        v.failed = (v.failed + mix.stream.len() as u64).min(v.attempted);
        v.violations.push(format!(
            "checksum cached {cached:?} != uncached {uncached:?}"
        ));
    }
    if let (Some(t), Some(s)) = (tracer.as_deref_mut(), span) {
        t.close(s);
    }
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }

    let (pool, ratios, seeded, digest) = measure_pool(mix, &mut v);
    let mut d = Fnv::default();
    d.push(digest);
    d.push(cached.unwrap_or(0));
    v.digest = d.finish();
    v.norm_cycles_gmean = gmean(&ratios);
    v.seeded_norm_gmean = gmean(&seeded);
    v.check_s = start.elapsed().as_secs_f64();
    (v, pool)
}

/// Compiles every pool template for L0 and Baseline and instantiates
/// both at every Mediabench (loop, trip) pair and every seeded pair the
/// mix asks for. Returns the fixed and the seeded cycle ratios.
fn measure_pool(mix: &ServiceMix, v: &mut Verdict) -> (PoolStats, Vec<f64>, Vec<f64>, u64) {
    let cfg = &*mix.machine;
    let baseline_req = CompileRequest::new(Arch::Baseline);
    let mut stats = PoolStats::default();
    let mut templates = Vec::with_capacity(mix.pool.len());
    for l in &mix.pool {
        let t = Instant::now();
        let l0 = mix.request.compile_symbolic_with_stats(l, cfg);
        stats.template_s.push(t.elapsed().as_secs_f64());
        let l0 = match l0 {
            Ok((artifact, passes)) => {
                merge_pass_stats(&mut stats.pass_stats, &passes);
                Some(artifact)
            }
            Err(e) => {
                stats.errors += 1;
                v.violations.push(format!("{}: L0 template: {e}", l.name));
                None
            }
        };
        let base = match baseline_req.compile_symbolic(l, cfg) {
            Ok(artifact) => Some(artifact),
            Err(e) => {
                stats.errors += 1;
                v.violations
                    .push(format!("{}: Baseline template: {e}", l.name));
                None
            }
        };
        templates.push((l0, base));
    }
    let fixed = (0..mix.suite_loops).flat_map(|li| TRIP_MENU.map(|t| (li, t)));
    let drawn = mix
        .mix
        .iter()
        .copied()
        .filter(|&(li, _)| li >= mix.suite_loops);
    let pairs: BTreeSet<(usize, u64)> = fixed.chain(drawn).collect();
    let (mut ratios, mut seeded) = (Vec::new(), Vec::new());
    let mut digest = Fnv::default();
    for (li, trip) in pairs {
        let shape = TripShape {
            trip_count: trip,
            visits: mix.pool[li].visits,
        };
        let (Some(l0), Some(base)) = &templates[li] else {
            continue;
        };
        let t = Instant::now();
        let l0 = mix.request.instantiate(l0, shape, cfg);
        stats.instantiate_s.push(t.elapsed().as_secs_f64());
        let base = baseline_req.instantiate(base, shape, cfg);
        match (l0, base) {
            (Ok(l0), Ok(base)) => {
                stats.ii_sum += u64::from(l0.ii());
                stats.mii_sum += u64::from(l0.mii);
                stats.copies += l0.copies.len() as u64;
                digest.push(u64::from(l0.ii()));
                digest.push(static_cycles(&l0));
                let r = static_cycles(&l0) as f64 / static_cycles(&base).max(1) as f64;
                if li < mix.suite_loops {
                    &mut ratios
                } else {
                    &mut seeded
                }
                .push(r);
            }
            (l0, base) => {
                stats.errors += 1;
                v.violations.push(format!(
                    "{} @trip {trip}: instantiate L0 {:?} / Baseline {:?}",
                    mix.pool[li].name,
                    l0.err(),
                    base.err()
                ));
            }
        }
    }
    if stats.errors > 0 {
        v.failed = (v.failed + stats.errors).min(v.attempted);
    }
    (stats, ratios, seeded, digest.finish())
}
