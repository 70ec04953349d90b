//! The timed phase: one repetition of a workload's fixed job, with or
//! without tracing. Nothing here checks outputs; `check` does that
//! afterwards.

use crate::trace::{MemCalls, TracedModel, Tracer};
use crate::workload::{ServiceMix, Sweep};
use std::time::Instant;
use vliw_sched::{PassStat, Schedule};
use vliw_service::{CompileService, ServiceConfig, ServiceReport};
use vliw_sim::{simulate, MemoryModelKind, SimResult};

/// What one compile+simulate item produced.
#[derive(Debug, Clone)]
pub struct ItemOutput {
    /// Initiation interval and its lower bound.
    pub ii: u32,
    pub mii: u32,
    /// Inter-cluster copy operations the schedule needs.
    pub copies: usize,
    /// The simulation result.
    pub sim: SimResult,
}

/// One item of one repetition.
#[derive(Debug, Clone)]
pub struct ItemRun {
    /// Compile + simulate host time.
    pub latency_s: f64,
    /// The pass pipeline's own per-pass timing.
    pub pass_stats: Vec<PassStat>,
    /// The output, or the compile error.
    pub result: Result<ItemOutput, String>,
}

/// One repetition of a sweep's fixed job.
#[derive(Debug, Clone)]
pub struct SweepRep {
    /// Host time to finish every item.
    pub wall_s: f64,
    /// Per-item outcomes, in job order.
    pub items: Vec<ItemRun>,
    /// The schedules, when the caller asked to keep them for checking.
    pub schedules: Vec<Option<Schedule>>,
}

fn open(
    t: &mut Option<&mut Tracer>,
    name: &'static str,
    item: u64,
    parent: Option<usize>,
) -> Option<usize> {
    t.as_deref_mut().map(|t| t.open(name, item, parent))
}

fn close(t: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (t.as_deref_mut(), id) {
        t.close(id);
    }
}

/// Runs every item of `sweep` serially. With a tracer, each item gets
/// an `item` span with `sched.compile` and `sim.simulate` children, and
/// the simulation runs through a [`TracedModel`].
pub fn run_sweep(sweep: &Sweep, mut tracer: Option<&mut Tracer>, keep_schedules: bool) -> SweepRep {
    let start = Instant::now();
    let root = open(&mut tracer, "workload", 0, None);
    let mut items = Vec::with_capacity(sweep.items.len());
    let mut schedules = Vec::new();
    for (i, item) in sweep.items.iter().enumerate() {
        let id = i as u64 + 1;
        let loop_ = &sweep.loops[item.loop_idx];
        let cfg = &sweep.machines[item.machine_idx];
        let t0 = Instant::now();
        let span = open(&mut tracer, "item", id, root);
        let compile_span = open(&mut tracer, "sched.compile", id, span);
        let compiled = item.request.compile_with_stats(loop_, cfg);
        close(&mut tracer, compile_span);
        let (result, pass_stats, schedule) = match compiled {
            Err(e) => (Err(e.to_string()), Vec::new(), None),
            Ok((schedule, pass_stats)) => {
                let model = MemoryModelKind::for_arch(item.request.arch).build(cfg);
                let sim = match tracer.as_deref_mut() {
                    Some(t) => {
                        let mut traced = TracedModel::new(model);
                        let s = t.open("sim.simulate", id, span);
                        let sim = simulate(&schedule, cfg, &mut traced);
                        t.close(s);
                        t.attach_mem(s, traced.calls());
                        sim
                    }
                    None => {
                        let mut model = model;
                        simulate(&schedule, cfg, model.as_mut())
                    }
                };
                let out = ItemOutput {
                    ii: schedule.ii(),
                    mii: schedule.mii,
                    copies: schedule.copies.len(),
                    sim,
                };
                (Ok(out), pass_stats, Some(schedule))
            }
        };
        close(&mut tracer, span);
        items.push(ItemRun {
            latency_s: t0.elapsed().as_secs_f64(),
            pass_stats,
            result,
        });
        if keep_schedules {
            schedules.push(schedule);
        }
    }
    close(&mut tracer, root);
    SweepRep {
        wall_s: start.elapsed().as_secs_f64(),
        items,
        schedules,
    }
}

/// Memory-model calls of every traced simulation, summed.
pub fn mem_calls(tracer: &Tracer) -> MemCalls {
    let mut total = MemCalls::default();
    for s in tracer.spans() {
        if let Some(m) = &s.mem {
            total.merge(m);
        }
    }
    total
}

/// One replay of the service mix.
#[derive(Debug, Clone)]
pub struct ReplayRep {
    /// Host time of the `replay` call.
    pub wall_s: f64,
    /// What the service reported.
    pub report: ServiceReport,
}

/// Replays the mix's request stream through a fresh service built with
/// `config`. The stream is cloned before the clock starts.
pub fn run_replay(
    mix: &ServiceMix,
    config: ServiceConfig,
    mut tracer: Option<&mut Tracer>,
) -> ReplayRep {
    let stream = mix.stream.clone();
    let root = open(&mut tracer, "workload", 0, None);
    let item = open(&mut tracer, "item", 1, root);
    let span = open(&mut tracer, "svc.replay", 1, item);
    let start = Instant::now();
    let report = CompileService::new(config).replay(stream);
    let wall_s = start.elapsed().as_secs_f64();
    close(&mut tracer, span);
    close(&mut tracer, item);
    close(&mut tracer, root);
    ReplayRep { wall_s, report }
}
