//! One benchmark run: set up, measure, check, report.

use crate::check::{check_service, check_sweep, differing, load_golden, PoolStats, Verdict};
use crate::exec::{mem_calls, run_replay, run_sweep, ReplayRep, SweepRep};
use crate::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::workload::{self, ServiceMix, Sweep};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vliw_mem::MemStats;
use vliw_sched::{merge_pass_stats, PassStat};
use vliw_sim::SimResult;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`workload::WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: u64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: l0bench --workload <cluster_scaling|long_stream|service_mix> \
--seed <n> --seconds <n> --trace <0|1>";

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// On a missing, unknown or malformed flag.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !workload::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: match trace.ok_or("--trace is required")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace takes 0 or 1, not {t}")),
            },
        })
    }
}

/// What a run prints: report lines, then the result line last.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable lines (provenance, metrics, violations).
    pub lines: Vec<String>,
    /// The JSON result line.
    pub result: String,
    /// `false` when any output failed a check.
    pub correct: bool,
    /// The traced run's spans as JSON lines, for the trace file.
    pub trace: Option<String>,
}

/// Set-up is repeated at least this often and for at least this long,
/// and its median reported, so that `setup_s` is steady even when one
/// set-up takes microseconds.
const SETUP_MIN_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
const SETUP_MAX_REPS: usize = 10_000;

/// Runs `f` repeatedly; returns its last result and every run's time.
fn timed_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (start.elapsed() < SETUP_BUDGET && times.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        let value = black_box(f());
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), times)
}

/// High-water resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The commit the program was built from: `git rev-parse HEAD`, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    match std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
    {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

/// Runs the timed phase: repetitions until `seconds` have passed. In a
/// traced run, untraced and traced repetitions alternate, so both see
/// the same machine state; the first repetition is always untraced.
fn repeat<R>(
    seconds: u64,
    trace: bool,
    mut rep: impl FnMut(Option<&mut Tracer>) -> R,
) -> (Vec<R>, Vec<(R, Tracer)>) {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        plain.push(rep(None));
        if trace {
            let mut tracer = Tracer::default();
            let r = rep(Some(&mut tracer));
            traced.push((r, tracer));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    (plain, traced)
}

fn pass_metrics(v: &mut Values, stats: &[PassStat]) {
    for (key, pass) in [
        ("sched.pass.lower_s", "lower"),
        ("sched.pass.schedule-flat_s", "schedule-flat"),
        ("sched.pass.schedule-unrolled_s", "schedule-unrolled"),
        ("sched.pass.select-unroll_s", "select-unroll"),
        ("sched.pass.finish-l0_s", "finish-l0"),
        ("sched.pass.verify_s", "verify"),
    ] {
        let micros = stats
            .iter()
            .find(|s| s.name == pass)
            .map_or(0, |s| s.micros);
        v.insert(key, micros as f64 * 1e-6);
    }
}

/// Per-layer metrics of one traced sweep repetition.
fn sweep_layers(rep: &SweepRep, tracer: &Tracer) -> Values {
    let mut v = Values::new();
    let mut passes = Vec::new();
    let (mut ii, mut mii, mut copies, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut sim = SimResult::default();
    for item in &rep.items {
        merge_pass_stats(&mut passes, &item.pass_stats);
        match &item.result {
            Ok(out) => {
                ii += u64::from(out.ii);
                mii += u64::from(out.mii);
                copies += out.copies as u64;
                sim.merge(&out.sim);
            }
            Err(_) => errors += 1,
        }
    }
    let compile_max = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "sched.compile")
        .map(|s| s.end_ns - s.start_ns)
        .max()
        .unwrap_or(0);
    v.insert("sched.compile_s", tracer.total_s("sched.compile"));
    v.insert("sched.compile_max_s", compile_max as f64 * 1e-9);
    pass_metrics(&mut v, &passes);
    v.insert("sched.compiles", rep.items.len() as f64);
    v.insert("sched.errors", errors as f64);
    v.insert("sched.ii_over_mii", ratio(ii as f64, mii as f64));
    v.insert("sched.copies", copies as f64);

    let simulate_s = tracer.total_s("sim.simulate");
    let cycles = sim.total_cycles() as f64;
    let ffwd = sim.ffwd;
    v.insert("sim.simulate_s", simulate_s);
    v.insert("sim.self_s", tracer.self_s("sim.simulate"));
    v.insert("sim.cycles", cycles);
    v.insert("sim.mcycles_per_s", ratio(cycles, simulate_s) * 1e-6);
    v.insert(
        "sim.ns_per_replayed_iter",
        ratio(simulate_s * 1e9, ffwd.iters_replayed as f64),
    );
    v.insert("sim.iters_replayed", ffwd.iters_replayed as f64);
    v.insert("sim.iters_batched", ffwd.iters_batched as f64);
    v.insert(
        "sim.batched_frac",
        ratio(
            ffwd.iters_batched as f64,
            (ffwd.iters_replayed + ffwd.iters_batched) as f64,
        ),
    );
    v.insert("sim.stall_cycles", sim.stall_cycles as f64);
    v.insert(
        "sim.contention_stall_cycles",
        sim.contention_stall_cycles as f64,
    );
    v.insert("sim.link_stall_cycles", sim.link_stall_cycles as f64);

    let calls = mem_calls(tracer);
    let m: &MemStats = &sim.mem_stats;
    v.insert("mem.access_calls", calls.access_calls as f64);
    v.insert("mem.access_s", calls.access_ns as f64 * 1e-9);
    v.insert(
        "mem.ns_per_access",
        ratio(calls.access_ns as f64, calls.access_calls as f64),
    );
    v.insert("mem.retire_calls", calls.retire_calls as f64);
    v.insert("mem.retire_s", calls.retire_ns as f64 * 1e-9);
    v.insert("mem.digest_calls", calls.digest_calls as f64);
    v.insert("mem.digest_s", calls.digest_ns as f64 * 1e-9);
    v.insert("mem.advance_calls", calls.advance_calls as f64);
    v.insert(
        "mem.l0_hit_rate",
        ratio(m.l0_hits as f64, (m.l0_hits + m.l0_misses) as f64),
    );
    v.insert(
        "mem.l1_hit_rate",
        ratio(m.l1_hits as f64, (m.l1_hits + m.l1_misses) as f64),
    );
    v.insert("mem.ic_queue_cycles", m.ic_queue_cycles as f64);
    v.insert("mem.mshr_merges", m.merges() as f64);
    v
}

/// Per-layer metrics of one traced replay.
fn service_layers(rep: &ReplayRep, pool: &PoolStats, workers: usize) -> Values {
    let mut v = Values::new();
    let r = &rep.report;
    let template_s = pool.template_s.iter().sum::<f64>();
    let template_mean = ratio(template_s, pool.template_s.len() as f64);
    let instantiate_mean = ratio(
        pool.instantiate_s.iter().sum::<f64>(),
        pool.instantiate_s.len() as f64,
    );
    v.insert("sched.compile_s", template_s);
    v.insert(
        "sched.compile_max_s",
        pool.template_s.iter().copied().fold(0.0, f64::max),
    );
    pass_metrics(&mut v, &pool.pass_stats);
    v.insert("sched.compiles", pool.template_s.len() as f64);
    v.insert("sched.errors", pool.errors as f64);
    v.insert(
        "sched.ii_over_mii",
        ratio(pool.ii_sum as f64, pool.mii_sum as f64),
    );
    v.insert("sched.copies", pool.copies as f64);
    v.insert("svc.replay_s", rep.wall_s);
    v.insert("svc.hit_rate", r.hit_rate);
    v.insert("svc.misses", r.store.misses as f64);
    v.insert("svc.evictions", r.store.evictions as f64);
    v.insert("svc.queue_max_depth", r.queue.max_depth as f64);
    v.insert("svc.backpressure_waits", r.queue.backpressure_waits as f64);
    v.insert("svc.template_compile_ms_mean", template_mean * 1e3);
    v.insert("svc.instantiate_us_mean", instantiate_mean * 1e6);
    v.insert(
        "svc.busy_frac",
        ratio(
            r.store.misses as f64 * template_mean + r.requests as f64 * instantiate_mean,
            rep.wall_s * workers as f64,
        ),
    );
    v.insert("svc.errors", r.errors as f64);
    v
}

/// Per-metric median over traced repetitions.
fn median_values(reps: &[Values]) -> Values {
    let mut out = Values::new();
    for &(name, _) in &PER_LAYER {
        let xs: Vec<f64> = reps.iter().filter_map(|v| v.get(name).copied()).collect();
        if !xs.is_empty() {
            out.insert(name, median(&xs));
        }
    }
    out
}

/// What a workload hands back for reporting.
struct Measured {
    /// Every set-up's time.
    setups: Vec<f64>,
    /// Per untraced repetition: wall, requests per second, p50/p99 ms.
    walls: Vec<f64>,
    rates: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    /// Samples behind each repetition's percentiles.
    samples: usize,
    /// High-water RSS at the end of the timed phase, before the checks.
    peak_rss_mb: f64,
    traced_walls: Vec<f64>,
    layers: Vec<Values>,
    verdict: Verdict,
    gen_workload_s: f64,
    gen_keys_s: f64,
    spans: Vec<Tracer>,
    threads: usize,
    workers: usize,
}

/// One sweep repetition, reduced as soon as it finishes (only the first
/// is kept whole), so memory does not grow with the repetition count.
struct SweepSummary {
    wall_s: f64,
    /// Latencies of the items on fixed loops.
    latencies_ms: Vec<f64>,
    /// Items that did not reproduce the first repetition.
    differing: Vec<usize>,
    /// Per-layer metrics, for a traced repetition.
    layers: Option<Values>,
}

fn measure_sweep(args: &Args, build: fn(u64) -> Sweep) -> Result<Measured, String> {
    let golden = match args.workload.as_str() {
        "cluster_scaling" => Some(load_golden()?),
        _ => None,
    };
    let (sweep, setups) = timed_setup(|| build(args.seed));
    // Latency percentiles cover the items on fixed loops: they are the
    // same for every seed, while the seeded items sit in the middle of
    // the latency distribution and would move its median by seed alone.
    let fixed: Vec<usize> = (0..sweep.items.len())
        .filter(|&i| !sweep.is_seeded(&sweep.items[i]))
        .collect();
    let mut first: Option<SweepRep> = None;
    let (plain, traced) = repeat(args.seconds, args.trace, |mut t| {
        let rep = run_sweep(&sweep, t.as_deref_mut(), first.is_none());
        let summary = SweepSummary {
            wall_s: rep.wall_s,
            latencies_ms: fixed
                .iter()
                .map(|&i| rep.items[i].latency_s * 1e3)
                .collect(),
            differing: first.as_ref().map_or(Vec::new(), |f| differing(f, &rep)),
            layers: t.map(|t| sweep_layers(&rep, t)),
        };
        first.get_or_insert(rep);
        summary
    });
    let peak_rss_mb = peak_rss_mb()?;
    let first = first.expect("at least one repetition");
    let later: Vec<&[usize]> = plain[1..]
        .iter()
        .chain(traced.iter().map(|(s, _)| s))
        .map(|s| s.differing.as_slice())
        .collect();
    let mut check_tracer = args.trace.then(Tracer::default);
    let verdict = check_sweep(
        &sweep,
        &first,
        &later,
        golden.as_ref(),
        check_tracer.as_mut(),
    );
    let per_rep = |s: &SweepSummary, q: f64| percentile(&s.latencies_ms, q).value;
    let layers = traced
        .iter()
        .filter_map(|(s, _)| s.layers.clone())
        .collect();
    let traced_walls = traced.iter().map(|(s, _)| s.wall_s).collect();
    let mut spans: Vec<Tracer> = traced.into_iter().map(|(_, t)| t).collect();
    spans.extend(check_tracer);
    Ok(Measured {
        gen_workload_s: median(&setups),
        setups,
        walls: plain.iter().map(|s| s.wall_s).collect(),
        rates: plain
            .iter()
            .map(|s| sweep.items.len() as f64 / s.wall_s)
            .collect(),
        p50_ms: plain.iter().map(|s| per_rep(s, 50.0)).collect(),
        p99_ms: plain.iter().map(|s| per_rep(s, 99.0)).collect(),
        samples: fixed.len(),
        peak_rss_mb,
        traced_walls,
        layers,
        verdict,
        gen_keys_s: 0.0,
        spans,
        threads: 1,
        workers: 1,
    })
}

fn measure_service(args: &Args, nproc: usize) -> Result<Measured, String> {
    let workers = workload::service_workers(nproc);
    let mut gen = (Vec::new(), Vec::new());
    let (mix, setups): (ServiceMix, Vec<f64>) = timed_setup(|| {
        let m = workload::service_mix(args.seed, workers);
        gen.0.push(m.workload_s);
        gen.1.push(m.keys_s);
        m
    });
    let (plain, traced) = repeat(args.seconds, args.trace, |t| {
        run_replay(&mix, mix.config, t)
    });
    let peak_rss_mb = peak_rss_mb()?;
    let all: Vec<&ReplayRep> = plain.iter().chain(traced.iter().map(|(r, _)| r)).collect();
    let mut check_tracer = args.trace.then(Tracer::default);
    let (verdict, pool) = check_service(&mix, &all, check_tracer.as_mut());
    let layers = traced
        .iter()
        .map(|(r, _)| service_layers(r, &pool, workers))
        .collect();
    let traced_walls = traced.iter().map(|(r, _)| r.wall_s).collect();
    let mut spans: Vec<Tracer> = traced.into_iter().map(|(_, t)| t).collect();
    spans.extend(check_tracer);
    Ok(Measured {
        setups,
        walls: plain.iter().map(|r| r.wall_s).collect(),
        rates: plain
            .iter()
            .map(|r| r.report.served as f64 / r.wall_s)
            .collect(),
        p50_ms: plain
            .iter()
            .map(|r| r.report.latency_p50_micros as f64 * 1e-3)
            .collect(),
        p99_ms: plain
            .iter()
            .map(|r| r.report.latency_p99_micros as f64 * 1e-3)
            .collect(),
        samples: mix.stream.len(),
        peak_rss_mb,
        traced_walls,
        layers,
        verdict,
        gen_workload_s: median(&gen.0),
        gen_keys_s: median(&gen.1),
        spans,
        threads: workers + 1,
        workers,
    })
}

/// Spans as JSON lines, one traced repetition (or the checks) at a time.
fn spans_jsonl(provenance: &str, tracers: &[Tracer]) -> String {
    let mut out = format!("{provenance}\n");
    for (rep, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                r#"{{"rep":{rep},"id":{id},"name":"{}","item":{},"parent":{parent},"start_ns":{},"end_ns":{},"self_ns":{}"#,
                s.name,
                s.item,
                s.start_ns,
                s.end_ns,
                crate::trace::self_ns(t.spans(), id)
            );
            if let Some(m) = &s.mem {
                let _ = write!(
                    out,
                    r#","mem":{{"access_calls":{},"access_ns":{},"retire_calls":{},"retire_ns":{},"digest_calls":{},"digest_ns":{},"advance_calls":{},"invalidate_calls":{}}}"#,
                    m.access_calls,
                    m.access_ns,
                    m.retire_calls,
                    m.retire_ns,
                    m.digest_calls,
                    m.digest_ns,
                    m.advance_calls,
                    m.invalidate_calls
                );
            }
            out.push_str("}\n");
        }
    }
    out
}

/// Runs one workload and builds everything it prints.
///
/// # Errors
///
/// When an input the benchmark reads is missing, or the platform gives
/// no memory high-water mark.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let m = match args.workload.as_str() {
        "cluster_scaling" => measure_sweep(args, workload::cluster_scaling)?,
        "long_stream" => measure_sweep(args, workload::long_stream)?,
        _ => measure_service(args, nproc)?,
    };
    let v = &m.verdict;
    let correct = v.failed == 0 && v.violations.is_empty();
    let failed = if correct { 0 } else { v.failed.max(1) };
    let failed_frac = ratio(failed as f64, v.attempted as f64);
    let provenance = format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"commit":"{}","nproc":{},"threads":{},"workers":{},"reps":{},"traced_reps":{},"samples_per_rep":{},"digest":"{:#018x}"}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        nproc,
        m.threads,
        m.workers,
        m.walls.len(),
        m.traced_walls.len(),
        m.samples,
        v.digest
    );
    let mut lines = vec![format!("provenance {provenance}")];

    let (table, values, trace) = if args.trace {
        let mut layers = Values::new();
        for &(name, _) in &PER_LAYER {
            layers.insert(name, 0.0);
        }
        layers.extend(median_values(&m.layers));
        let overhead = median(&m.traced_walls) - median(&m.walls);
        layers.insert("gen.workload_s", m.gen_workload_s);
        layers.insert("gen.keys_s", m.gen_keys_s);
        layers.insert("sched.seeded_norm_gmean", v.seeded_norm_gmean);
        layers.insert("verify.check_s", v.check_s);
        layers.insert("verify.violations", v.violations.len() as f64);
        layers.insert("trace.overhead_s", overhead);
        layers.insert("trace.overhead_frac", ratio(overhead, median(&m.walls)));
        layers.insert("failed_frac", failed_frac);
        layers.insert("req_samples", m.samples as f64);
        layers.insert("reps", m.walls.len() as f64);
        (
            &PER_LAYER[..],
            layers,
            Some(spans_jsonl(&provenance, &m.spans)),
        )
    } else {
        let values = Values::from([
            ("setup_s", median(&m.setups)),
            ("wall_s", median(&m.walls)),
            ("req_per_s", median(&m.rates)),
            ("req_p50_ms", median(&m.p50_ms)),
            ("req_p99_ms", median(&m.p99_ms)),
            ("peak_rss_mb", m.peak_rss_mb),
            ("norm_cycles_gmean", v.norm_cycles_gmean),
        ]);
        (&END_TO_END[..], values, None)
    };
    for &(name, unit) in table {
        let note = match name {
            "req_p50_ms" | "req_p99_ms" => {
                format!(
                    "  (n={} per rep, median of {} reps)",
                    m.samples,
                    m.walls.len()
                )
            }
            "wall_s" | "req_per_s" => format!("  (median of {} reps)", m.walls.len()),
            "setup_s" => format!("  (median of {} set-ups)", m.setups.len()),
            _ => String::new(),
        };
        lines.push(format!("{name:<32} {:>16.6} {unit}{note}", values[name]));
    }
    let walls: Vec<String> = m.walls.iter().map(|w| format!("{w:.4}")).collect();
    lines.push(format!("untraced wall_s per rep: {}", walls.join(" ")));
    lines.push(format!(
        "failed_frac {failed_frac} ({failed} of {} attempted); digest {:#018x}",
        v.attempted, v.digest
    ));
    lines.extend(v.violations.iter().map(|x| format!("violation: {x}")));
    Ok(Outcome {
        lines,
        result: result_line(correct, v.attempted.max(1), failed, table, &values),
        correct,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv(
            "--workload long_stream --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "long_stream".into(),
                seed: 3,
                seconds: 10,
                trace: true
            }
        );
        assert!(Args::parse(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(Args::parse(&argv(
            "--workload long_stream --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(Args::parse(&argv("--workload long_stream --seed 3")).is_err());
    }
}
