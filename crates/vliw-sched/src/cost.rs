//! The unified placement-cost layer (DESIGN.md §9).
//!
//! Before this module existed the scheduler consulted three *separate*
//! ad-hoc cost paths: the engine's cluster ordering computed static hop
//! distances inline, the hint layer had its own topology match for the
//! "are these siblings near enough to interleave" question, and the L0
//! marking passes ordered candidates by static slack alone. All three are
//! views of one question — *how expensive is it to put this memory
//! traffic there?* — so they now go through a single [`PlacementCost`]
//! trait with two implementations:
//!
//! * [`StaticDistance`] — the compile-time model: pure hop geometry, no
//!   observation. Bit-exact with the pre-trait scheduler (same ordering
//!   keys up to a constant scale), and the default whenever no profile is
//!   on the [`CompileRequest`](crate::CompileRequest).
//! * [`Observed`] — the profile-guided model: wraps a
//!   [`Profile`] harvested from a simulation run
//!   and weighs every route by the per-link stalls and per-bank queueing
//!   that run actually measured, falling back to the static geometry for
//!   anything the profile never saw. On an uncontended network every
//!   observed penalty is zero and the model degenerates to
//!   [`StaticDistance`] exactly.
//!
//! Costs are integers in [`Profile::SCALE`]-ths of a hop, so orderings
//! are deterministic and profiles hash/serialize exactly.

use std::collections::HashSet;
use vliw_machine::{ClusterId, InterconnectConfig, MachineConfig, Profile, Topology};

/// The canonical (pre-unroll) loop name a profile is keyed by: the
/// unroll pass tags candidate bodies with `*N`, which must not make a
/// profiled loop look cold on the recompile. (The specialization tag
/// `+spec` is deterministic across passes and therefore kept.)
pub fn base_loop_name(name: &str) -> &str {
    name.split('*').next().unwrap_or(name)
}

/// A cost model for placement decisions: how expensive is it to service
/// memory traffic from a given cluster, and which schedule artifacts
/// (sibling deals, L0 slots) are worth their network cost.
///
/// One trait serves the three former ad-hoc cost paths: the engine's
/// contention-aware cluster ordering ([`PlacementCost::bank_affinity`]),
/// the hint layer's interleaved-sibling demotion
/// ([`PlacementCost::siblings_near`]) and the L0 marking priority
/// ([`PlacementCost::stall_weight`]).
pub trait PlacementCost {
    /// Short label for artifacts and diagnostics (`"static"`,
    /// `"observed"`).
    fn label(&self) -> &'static str;

    /// Estimated cost — in [`Profile::SCALE`]-ths of a hop — of servicing
    /// the address `addr` from `cluster` on this machine. 0 on the flat
    /// network (nothing is routed).
    fn bank_affinity(&self, cfg: &MachineConfig, cluster: ClusterId, addr: u64) -> u64;

    /// `true` when dealing interleaved L0 lanes to `clusters` is cheap on
    /// the machine's network; a `false` demotes the group to linear
    /// mappings (each cluster fills from its near bank instead).
    fn siblings_near(&self, cfg: &MachineConfig, clusters: &HashSet<ClusterId>) -> bool;

    /// Observed pipeline-stall weight of the provenance-origin op
    /// `origin_op` in the loop named `loop_name` (0 without a profile —
    /// every op is equally cold under the static model).
    fn stall_weight(&self, loop_name: &str, origin_op: u32) -> u64;
}

/// Scaled (×[`Profile::SCALE`]) static hop distance from `cluster` to the
/// bank owning `addr` — the geometry shared by both implementations.
fn static_bank_cost(cfg: &MachineConfig, cluster: ClusterId, addr: u64) -> u64 {
    let ic = &cfg.interconnect;
    if ic.is_flat() {
        return 0;
    }
    ic.hops(cluster.index(), ic.bank_of(addr), cfg.clusters) as u64 * Profile::SCALE
}

/// Pairwise "near" geometry — deliberately shared *verbatim* by both
/// implementations (the observed model must not congestion-adjust this
/// answer; see [`Observed`]'s `siblings_near` for why).
fn siblings_near_geometric(cfg: &MachineConfig, clusters: &HashSet<ClusterId>) -> bool {
    match cfg.interconnect.topology {
        Topology::Flat | Topology::Crossbar => true,
        Topology::Hierarchical => {
            let tiles: HashSet<usize> = clusters
                .iter()
                .map(|c| cfg.interconnect.group_of_cluster(c.index()))
                .collect();
            tiles.len() <= 1
        }
        Topology::Mesh => {
            // Dealing lanes across the grid costs every block fill one
            // XY route per sibling pair; the group stays interleaved
            // only within a radius derived from the mesh diameter
            // (`near_hop_threshold`).
            let limit = cfg.interconnect.near_hop_threshold(cfg.clusters);
            clusters.iter().all(|a| {
                clusters.iter().all(|b| {
                    a == b
                        || cfg
                            .interconnect
                            .cluster_hops(a.index(), b.index(), cfg.clusters)
                            <= limit
                })
            })
        }
    }
}

/// The compile-time cost model: pure hop geometry (the paper's machine
/// knows nothing about dynamic congestion). The bit-exact default.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticDistance;

impl PlacementCost for StaticDistance {
    fn label(&self) -> &'static str {
        "static"
    }

    fn bank_affinity(&self, cfg: &MachineConfig, cluster: ClusterId, addr: u64) -> u64 {
        static_bank_cost(cfg, cluster, addr)
    }

    fn siblings_near(&self, cfg: &MachineConfig, clusters: &HashSet<ClusterId>) -> bool {
        siblings_near_geometric(cfg, clusters)
    }

    fn stall_weight(&self, _loop_name: &str, _origin_op: u32) -> u64 {
        0
    }
}

/// The profile-guided cost model: static geometry plus what a profiling
/// run measured — per-link stall rates along the actual XY route and
/// per-bank port queueing. Where the profile saw nothing the penalties
/// are zero, so `Observed` over an empty profile *is* [`StaticDistance`].
#[derive(Debug, Clone, Copy)]
pub struct Observed<'p> {
    profile: &'p Profile,
}

impl<'p> Observed<'p> {
    /// A cost model reading `profile`.
    pub fn new(profile: &'p Profile) -> Self {
        Observed { profile }
    }

    /// The observed congestion surcharge (scaled) of the XY route between
    /// two mesh nodes: the sum of each crossed link's mean stall cycles
    /// per traversal.
    fn mesh_route_penalty(&self, from: usize, to: usize, clusters: usize) -> u64 {
        InterconnectConfig::mesh_route(from, to, clusters)
            .into_iter()
            .map(|(a, b)| self.profile.link_penalty(a as u32, b as u32))
            .sum()
    }
}

impl PlacementCost for Observed<'_> {
    fn label(&self) -> &'static str {
        "observed"
    }

    fn bank_affinity(&self, cfg: &MachineConfig, cluster: ClusterId, addr: u64) -> u64 {
        let ic = &cfg.interconnect;
        if ic.is_flat() {
            return 0;
        }
        let bank = ic.bank_of(addr);
        // Port pressure at the bank: cycles a request can expect to queue.
        let mut penalty = self.profile.bank_penalty(bank as u32);
        // Link congestion along the route the refill will actually take.
        if ic.topology == Topology::Mesh {
            let host = ic.mesh_bank_host(bank, cfg.clusters);
            penalty += self.mesh_route_penalty(cluster.index(), host, cfg.clusters);
        }
        // Quantize the observed surcharge to whole hops: the static
        // geometry deliberately leaves same-distance clusters *tied* so
        // the engine's balance keys can spread work, and sub-hop stall
        // averages must not shatter those ties — only congestion worth a
        // full hop is allowed to reorder placement.
        static_bank_cost(cfg, cluster, addr) + penalty / Profile::SCALE * Profile::SCALE
    }

    fn siblings_near(&self, cfg: &MachineConfig, clusters: &HashSet<ClusterId>) -> bool {
        // Deliberately the same *geometric* answer as `StaticDistance`.
        // Observed link stalls cannot be attributed to the sibling deals
        // themselves: deal traffic rides the same links as ordinary bank
        // refills, so on a congested machine every pairwise route looks
        // hot and a congestion-adjusted rule demotes *every* group —
        // which measures strictly worse (the bank bottleneck is still
        // there, and the linear fills lose the deal's locality win).
        siblings_near_geometric(cfg, clusters)
    }

    fn stall_weight(&self, loop_name: &str, origin_op: u32) -> u64 {
        self.profile
            .stall_weight(base_loop_name(loop_name), origin_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_machine::{BankLoad, LinkLoad, LoopProfile};

    fn mesh_cfg(n: usize) -> MachineConfig {
        let mut cfg = MachineConfig::micro2003()
            .with_interconnect(InterconnectConfig::mesh((n / 4).max(1), 1));
        cfg.clusters = n;
        cfg.l1.block_bytes = 8 * n;
        cfg.l1.size_bytes = 2 * 1024 * n;
        cfg
    }

    #[test]
    fn base_loop_name_strips_only_the_unroll_tag() {
        assert_eq!(base_loop_name("pred"), "pred");
        assert_eq!(base_loop_name("pred+spec"), "pred+spec");
        assert_eq!(base_loop_name("pred+spec*4"), "pred+spec");
        assert_eq!(base_loop_name("stream*16"), "stream");
    }

    #[test]
    fn static_cost_is_scaled_hops() {
        let cfg = mesh_cfg(16);
        let s = StaticDistance;
        let ic = &cfg.interconnect;
        for (cluster, addr) in [(0usize, 0u64), (5, 256), (15, 1024)] {
            let hops = ic.hops(cluster, ic.bank_of(addr), 16) as u64;
            assert_eq!(
                s.bank_affinity(&cfg, ClusterId::new(cluster), addr),
                hops * Profile::SCALE
            );
        }
        // flat networks cost nothing and every op is cold
        let flat = MachineConfig::micro2003();
        assert_eq!(s.bank_affinity(&flat, ClusterId::new(0), 0x100), 0);
        assert_eq!(s.stall_weight("pred", 0), 0);
    }

    #[test]
    fn observed_equals_static_on_an_empty_profile() {
        let cfg = mesh_cfg(16);
        let profile = Profile::new(16, Topology::Mesh);
        let o = Observed::new(&profile);
        let s = StaticDistance;
        for cluster in 0..16 {
            for addr in [0u64, 128, 256, 4096] {
                assert_eq!(
                    o.bank_affinity(&cfg, ClusterId::new(cluster), addr),
                    s.bank_affinity(&cfg, ClusterId::new(cluster), addr),
                    "cluster {cluster} addr {addr}"
                );
            }
        }
        let corners: HashSet<ClusterId> = [0usize, 3, 12, 15]
            .iter()
            .map(|&i| ClusterId::new(i))
            .collect();
        assert_eq!(
            o.siblings_near(&cfg, &corners),
            s.siblings_near(&cfg, &corners)
        );
    }

    #[test]
    fn observed_penalizes_hot_links_and_banks() {
        let cfg = mesh_cfg(16);
        let ic = &cfg.interconnect;
        let addr = 0u64;
        let bank = ic.bank_of(addr);
        let host = ic.mesh_bank_host(bank, 16);

        let mut profile = Profile::new(16, Topology::Mesh);
        profile.net.banks.push(BankLoad {
            bank: bank as u32,
            requests: 10,
            queue_cycles: 20, // 2 cycles/request -> 16 scale units
        });
        // saturate the first link of the route from the far corner
        let far = 15usize;
        let route = InterconnectConfig::mesh_route(far, host, 16);
        profile.net.links.push(LinkLoad {
            from: route[0].0 as u32,
            to: route[0].1 as u32,
            traversals: 4,
            stall_cycles: 8, // 2 cycles/traversal -> 16 scale units
        });
        profile.net.links.sort_by_key(|l| (l.from, l.to));

        let o = Observed::new(&profile);
        let s = StaticDistance;
        let static_far = s.bank_affinity(&cfg, ClusterId::new(far), addr);
        let observed_far = o.bank_affinity(&cfg, ClusterId::new(far), addr);
        assert_eq!(
            observed_far,
            static_far + 16 + 16,
            "bank queue + hot first link both surcharge"
        );
        // a cluster whose route avoids the hot link pays only the bank
        let near = host;
        let observed_near = o.bank_affinity(&cfg, ClusterId::new(near), addr);
        let static_near = s.bank_affinity(&cfg, ClusterId::new(near), addr);
        assert_eq!(observed_near, static_near + 16);
    }

    #[test]
    fn observed_stall_weight_reads_through_the_unroll_tag() {
        let mut profile = Profile::new(4, Topology::Flat);
        let mut l = LoopProfile::new("pred+spec");
        l.add(3, 42);
        profile.loops.push(l);
        let o = Observed::new(&profile);
        assert_eq!(o.stall_weight("pred+spec", 3), 42);
        assert_eq!(o.stall_weight("pred+spec*4", 3), 42, "unrolled candidate");
        assert_eq!(o.stall_weight("pred+spec", 0), 0);
        assert_eq!(o.stall_weight("other", 3), 0);
    }

    #[test]
    fn sibling_near_is_geometric_under_both_models() {
        let cfg = mesh_cfg(16); // threshold 3 hops
        let row: HashSet<ClusterId> = [0usize, 1, 2, 3]
            .iter()
            .map(|&i| ClusterId::new(i))
            .collect();
        let corners: HashSet<ClusterId> = [0usize, 3, 12, 15]
            .iter()
            .map(|&i| ClusterId::new(i))
            .collect();
        // Even a red-hot link must not demote a geometrically-near group:
        // deal traffic rides the same links as ordinary refills, so the
        // stall means cannot be attributed to the deals (see the impl).
        let mut profile = Profile::new(16, Topology::Mesh);
        profile.net.links.push(LinkLoad {
            from: 1,
            to: 2,
            traversals: 10,
            stall_cycles: 500,
        });
        let o = Observed::new(&profile);
        assert!(StaticDistance.siblings_near(&cfg, &row));
        assert!(o.siblings_near(&cfg, &row), "hot links do not demote");
        assert!(!StaticDistance.siblings_near(&cfg, &corners));
        assert!(!o.siblings_near(&cfg, &corners), "geometry still does");
    }
}
