//! The three workloads and their set-up: everything here runs before
//! the first timed call, and all randomness comes from the seed.
//!
//! Why each workload exists is recorded in `l0bench/README.md`.

use std::sync::Arc;
use std::time::Instant;
use vliw_bench::experiment::{materialize_mix, zipf_mix};
use vliw_ir::LoopNest;
use vliw_machine::{InterconnectConfig, L0Capacity, MachineConfig};
use vliw_sched::{Arch, AssignmentPolicy, CompileRequest};
use vliw_service::{KeyMode, ServiceConfig, ServiceRequest};
use vliw_testutil::Rng;
use vliw_workloads::{fuzz, kernels, mediabench_suite};

/// The workload names the command accepts.
pub const WORKLOADS: [&str; 3] = ["cluster_scaling", "long_stream", "service_mix"];

/// Cluster counts of the `cluster_scaling` sweep (the mesh+MSHR columns
/// of `sweep_clusters` from 16 clusters up).
pub const SCALING_CLUSTERS: [usize; 4] = [16, 32, 64, 128];

/// Cluster count the seeded bodies of `cluster_scaling` compile at. A
/// seeded body takes 1 ms to 0.3 s to compile at 32 clusters and up to
/// 3 s at 64 (6–13 s at 128), so at those counts the seed would decide
/// `wall_s`; at 16 clusters every body compiles in well under 0.1 s.
pub const FUZZ_CLUSTERS: usize = 16;

/// Seeded bodies in `cluster_scaling`, with the bounds they are raised
/// to (trip ≥ the cluster count, so unroll-by-N is eligible).
pub const FUZZ_BODIES: usize = 6;
const FUZZ_TRIP: u64 = 1024;
const FUZZ_VISITS: u64 = 4;

/// Trip count of every `long_stream` loop (one visit each).
pub const STREAM_TRIP: u64 = 100_000;
/// Seeded bodies in `long_stream`.
pub const STREAM_BODIES: usize = 3;
/// Cluster count of `long_stream`'s mesh+MSHR machine.
const STREAM_MESH_CLUSTERS: usize = 16;

/// Seeded bodies added to the Mediabench loops of `service_mix`'s pool.
pub const SERVICE_BODIES: usize = 300;
/// Requests per `service_mix` replay.
pub const SERVICE_REQUESTS: usize = 10_000;
/// Artifact-store entries over all shards: well below the pool's
/// template count, so the LRU evicts and a steady share of requests
/// miss and compile.
pub const STORE_ENTRIES: usize = 96;
/// Zipf skew of the request mix.
pub const ZIPF_S: f64 = 1.1;

/// Total L0 entries split over the clusters (the paper's 4 × 8), as in
/// `sweep_clusters`.
const L0_ENTRY_BUDGET: usize = 32;
/// MSHRs per bank on the mesh machines.
const MSHRS_PER_BANK: usize = 4;

/// A `sweep_clusters` mesh+MSHR machine at `n` clusters: per-cluster
/// resources co-scale with `n` exactly as in that bin.
pub fn mesh_mshr_machine(n: usize) -> MachineConfig {
    let mut cfg = MachineConfig::micro2003()
        .with_l0_entries(L0Capacity::Bounded((L0_ENTRY_BUDGET / n).max(1)))
        .with_interconnect(
            InterconnectConfig::mesh((n / 4).max(1), 1)
                .with_bank_interleave(8 * n)
                .with_mshr(MSHRS_PER_BANK),
        );
    cfg.clusters = n;
    cfg.l1.block_bytes = 8 * n;
    cfg.l1.size_bytes = 2 * 1024 * n;
    cfg
}

/// What a group of items must reproduce from
/// `tests/golden/sweep_clusters.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Golden {
    /// The item's simulated cycles sum into this cell's `total_cycles`.
    Total(String),
    /// The item's simulated cycles sum into the `baseline_total_cycles`
    /// of every cell at this cluster count.
    Baseline(usize),
}

/// One compile+simulate pair.
#[derive(Debug, Clone)]
pub struct Item {
    /// Human-readable name (`kernel @ machine / request`).
    pub label: String,
    /// Index into [`Sweep::loops`].
    pub loop_idx: usize,
    /// Index into [`Sweep::machines`].
    pub machine_idx: usize,
    /// How the loop is compiled.
    pub request: CompileRequest,
    /// The Baseline item on the same loop and machine (`None` for
    /// Baseline items themselves).
    pub baseline: Option<usize>,
    /// The golden cell this item reproduces, if any.
    pub golden: Option<Golden>,
}

/// A fixed job of compile+simulate items, run serially on one thread.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    pub loops: Vec<LoopNest>,
    pub machines: Vec<MachineConfig>,
    pub items: Vec<Item>,
    /// How many of `loops` are fixed; the rest are drawn from the seed.
    pub fixed_loops: usize,
}

impl Sweep {
    fn machine(&mut self, cfg: MachineConfig) -> usize {
        self.machines.push(cfg);
        self.machines.len() - 1
    }

    fn add_loop(&mut self, l: LoopNest) -> usize {
        self.loops.push(l);
        self.loops.len() - 1
    }

    /// `true` for an item on a seeded loop.
    pub fn is_seeded(&self, item: &Item) -> bool {
        item.loop_idx >= self.fixed_loops
    }

    /// Adds a Baseline item plus one item per request in `others`, all
    /// on `loop_idx` × `machine_idx`.
    fn add_group(
        &mut self,
        loop_idx: usize,
        machine_idx: usize,
        baseline_golden: Option<Golden>,
        others: Vec<(String, CompileRequest, Option<Golden>)>,
    ) {
        let name = &self.loops[loop_idx].name;
        let clusters = self.machines[machine_idx].clusters;
        let base = self.items.len();
        self.items.push(Item {
            label: format!("{name} @{clusters} Baseline"),
            loop_idx,
            machine_idx,
            request: CompileRequest::new(Arch::Baseline),
            baseline: None,
            golden: baseline_golden,
        });
        for (what, request, golden) in others {
            self.items.push(Item {
                label: format!("{name} @{clusters} {what}"),
                loop_idx,
                machine_idx,
                request,
                baseline: Some(base),
                golden,
            });
        }
    }
}

/// Seeded loop bodies with their bounds raised, named apart so every
/// diagnostic points at one body.
fn seeded_bodies(rng: &mut Rng, count: usize, trip: u64, visits: u64) -> Vec<LoopNest> {
    (0..count)
        .map(|i| {
            let mut l = fuzz::random_loop(rng);
            l.name = format!("fuzz{i}");
            l.trip_count = trip;
            l.visits = visits;
            l
        })
        .collect()
}

/// `cluster_scaling`: the three `sweep_clusters` kernels on the
/// mesh+MSHR machine at 16–128 clusters (Baseline, plain L0 and
/// contention-aware L0), plus seeded bodies at 16 clusters.
pub fn cluster_scaling(seed: u64) -> Sweep {
    let mut sweep = Sweep::default();
    let fixed = [
        kernels::adpcm_predictor("pred", 64, 30),
        kernels::media_stream("stream", 3, 6, 2, 256, 120, false),
        kernels::row_filter("fir6", 6, 160, 120),
    ]
    .map(|l| sweep.add_loop(l));
    sweep.fixed_loops = sweep.loops.len();
    let l0 = || CompileRequest::new(Arch::L0);
    let aware = || CompileRequest::new(Arch::L0).assignment(AssignmentPolicy::ContentionAware);
    for n in SCALING_CLUSTERS {
        let m = sweep.machine(mesh_mshr_machine(n));
        for &k in &fixed {
            sweep.add_group(
                k,
                m,
                Some(Golden::Baseline(n)),
                vec![
                    (
                        "L0".into(),
                        l0(),
                        Some(Golden::Total(format!("{n} mesh mshr"))),
                    ),
                    (
                        "L0 aware".into(),
                        aware(),
                        Some(Golden::Total(format!("{n} mesh mshr aware"))),
                    ),
                ],
            );
        }
    }
    let bodies = seeded_bodies(&mut Rng::new(seed), FUZZ_BODIES, FUZZ_TRIP, FUZZ_VISITS);
    let bodies: Vec<usize> = bodies.into_iter().map(|l| sweep.add_loop(l)).collect();
    let m = sweep.machine(mesh_mshr_machine(FUZZ_CLUSTERS));
    for &b in &bodies {
        sweep.add_group(
            b,
            m,
            None,
            vec![
                ("L0".into(), l0(), None),
                ("L0 aware".into(), aware(), None),
            ],
        );
    }
    sweep
}

/// `long_stream`: single-visit loops of [`STREAM_TRIP`] iterations under
/// every architecture on the paper's 4-cluster machine, the L0
/// architecture on a 16-cluster mesh+MSHR machine, and seeded bodies.
pub fn long_stream(seed: u64) -> Sweep {
    let mut sweep = Sweep::default();
    let t = STREAM_TRIP;
    let fixed = [
        kernels::row_filter("row_filter", 6, t, 1),
        kernels::media_stream("media_stream", 3, 6, 2, t, 1, false),
        kernels::adpcm_predictor("adpcm_predictor", t, 1),
        kernels::table_lookup("table_lookup", 2, 1 << 14, t, 1),
        kernels::big_stream("big_stream", 1 << 20, t, 1),
    ]
    .map(|l| sweep.add_loop(l));
    sweep.fixed_loops = sweep.loops.len();
    let paper = sweep.machine(MachineConfig::micro2003());
    let mesh = sweep.machine(mesh_mshr_machine(STREAM_MESH_CLUSTERS));
    let all_archs = || {
        Arch::ALL
            .into_iter()
            .filter(|&a| a != Arch::Baseline)
            .map(|a| (a.label().to_string(), CompileRequest::new(a), None))
            .collect::<Vec<_>>()
    };
    let l0_only = || vec![("L0".to_string(), CompileRequest::new(Arch::L0), None)];
    for &k in &fixed {
        sweep.add_group(k, paper, None, all_archs());
    }
    for &k in &fixed {
        sweep.add_group(k, mesh, None, l0_only());
    }
    for body in seeded_bodies(&mut Rng::new(seed), STREAM_BODIES, t, 1) {
        let b = sweep.add_loop(body);
        sweep.add_group(b, paper, None, l0_only());
    }
    sweep
}

/// `service_mix`: a Zipf-skewed request stream over a pool of loop
/// bodies, keyed symbolically, replayed through a bounded-store service.
pub struct ServiceMix {
    /// The loop population the mix draws from: the Mediabench loops
    /// first, then the seeded bodies.
    pub pool: Vec<Arc<LoopNest>>,
    /// How many of `pool`'s loops are Mediabench loops.
    pub suite_loops: usize,
    /// The 4-cluster machine every request targets.
    pub machine: Arc<MachineConfig>,
    /// The compile request every request carries.
    pub request: Arc<CompileRequest>,
    /// Which pool loop and trip count each request asks for.
    pub mix: Vec<(usize, u64)>,
    /// The materialized, keyed request stream.
    pub stream: Vec<ServiceRequest>,
    /// Service tuning.
    pub config: ServiceConfig,
    /// Seconds spent generating the pool and the mix.
    pub workload_s: f64,
    /// Seconds spent materializing requests and hashing their keys.
    pub keys_s: f64,
}

/// Worker threads for `service_mix`: the producer thread plus the
/// workers never exceed `nproc`.
pub fn service_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// Builds `service_mix`'s inputs for `workers` worker threads.
pub fn service_mix(seed: u64, workers: usize) -> ServiceMix {
    let t0 = Instant::now();
    let mut pool: Vec<Arc<LoopNest>> = mediabench_suite()
        .into_iter()
        .flat_map(|spec| spec.loops)
        .map(Arc::new)
        .collect();
    let suite_loops = pool.len();
    let mut rng = Rng::new(seed);
    for i in 0..SERVICE_BODIES {
        // Bounds come from the mix's trip menu, so the drawn bound is
        // only the template's canonical one.
        let mut l = fuzz::random_loop(&mut rng);
        l.name = format!("fuzz{i}");
        pool.push(Arc::new(l));
    }
    let mix = zipf_mix(pool.len(), SERVICE_REQUESTS, ZIPF_S, seed);
    let machine = Arc::new(MachineConfig::micro2003());
    let request = Arc::new(CompileRequest::new(Arch::L0));
    let workload_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let stream = materialize_mix(&mix, &pool, &machine, &request, KeyMode::Symbolic);
    let keys_s = t1.elapsed().as_secs_f64();
    ServiceMix {
        pool,
        suite_loops,
        machine,
        request,
        mix,
        stream,
        config: ServiceConfig {
            workers,
            store_capacity: Some((STORE_ENTRIES / workers).max(1)),
            key_mode: KeyMode::Symbolic,
            ..Default::default()
        },
        workload_s,
        keys_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_a_function_of_the_seed() {
        let a = cluster_scaling(7);
        let b = cluster_scaling(7);
        assert_eq!(a.loops, b.loops);
        assert_ne!(a.loops, cluster_scaling(8).loops);
        let (x, y) = (service_mix(7, 1), service_mix(7, 1));
        assert_eq!(x.mix, y.mix);
        let keys = |m: &ServiceMix| m.stream.iter().map(|r| r.key).collect::<Vec<_>>();
        assert_eq!(keys(&x), keys(&y));
    }

    #[test]
    fn every_non_baseline_item_points_at_a_baseline_on_its_loop_and_machine() {
        for sweep in [cluster_scaling(1), long_stream(1)] {
            for item in &sweep.items {
                match item.baseline {
                    None => assert_eq!(item.request.arch, Arch::Baseline),
                    Some(b) => {
                        let base = &sweep.items[b];
                        assert_eq!(base.request.arch, Arch::Baseline);
                        assert_eq!(base.loop_idx, item.loop_idx);
                        assert_eq!(base.machine_idx, item.machine_idx);
                    }
                }
            }
        }
    }

    #[test]
    fn machines_are_valid() {
        for n in SCALING_CLUSTERS {
            assert_eq!(mesh_mshr_machine(n).validate(), Ok(()));
        }
    }
}
