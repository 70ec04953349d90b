//! The intra-loop coherence solutions of §4.1 in action: NL0, 1C and PSR
//! on a loop whose loads and stores alias, with and without code
//! specialization.
//!
//! Run with: `cargo run --release --example coherence_hints`

use clustered_vliw_l0::machine::MachineConfig;
use clustered_vliw_l0::sched::{Arch, CoherencePolicy, L0Options};
use clustered_vliw_l0::sim::simulate_arch;
use clustered_vliw_l0::workloads::kernels;

fn main() {
    let cfg = MachineConfig::micro2003();

    // A loop with a *true* memory recurrence (in-place predictor update):
    // its load/store set genuinely aliases and cannot be specialized away.
    let true_dep = kernels::adpcm_predictor("true-dep", 96, 20);
    // A loop whose dependences are conservative artifacts: specialization
    // removes them and the coherence question disappears.
    let spurious = kernels::conservative_stream("spurious-dep", 96, 20);

    for (label, loop_) in [
        ("true dependences", &true_dep),
        ("conservative dependences", &spurious),
    ] {
        println!("{label} ({}):", loop_.name);
        for (policy_label, policy) in [
            ("NL0 (bypass buffers)", CoherencePolicy::ForceNl0),
            ("1C  (one cluster)", CoherencePolicy::Force1c),
            ("PSR (replicate stores)", CoherencePolicy::ForcePsr),
            ("Auto (the paper's driver)", CoherencePolicy::Auto),
        ] {
            for specialize in [false, true] {
                let opts = L0Options {
                    policy,
                    specialize,
                    ..Default::default()
                };
                let s = Arch::L0.compile(loop_, &cfg, opts).expect("schedulable");
                let r = simulate_arch(&s, &cfg, Arch::L0);
                println!(
                    "  {:<26} specialization {:<3}  II={:<3} replicas={:<2} cycles={}",
                    policy_label,
                    if specialize { "on" } else { "off" },
                    s.ii(),
                    s.replicas.len(),
                    r.total_cycles()
                );
            }
        }
        println!();
    }
    println!("note how PSR matches 1C once specialization removes the conservative");
    println!("sets — which is why the paper's driver only picks between NL0 and 1C.");
}
