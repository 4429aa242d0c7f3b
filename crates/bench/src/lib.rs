//! Shared harness for the experiment binaries (E1–E8) and the snapshot
//! benches. Every binary regenerates one evaluation artifact of
//! EXPERIMENTS.md; run them with `cargo run --release -p pdip-bench --bin
//! <name>`.
//!
//! The timing snapshots behind `pdip bench-hotpath`, `pdip bench-graph`
//! and `pdip bench-round` ([`hotpath`], [`graphbench`], [`roundbench`])
//! share one timer, entry type, renderer and parser in [`snapshot`].
//!
//! The family/instance machinery and the table printer moved into
//! [`pdip_engine`] (so the batch-verification engine can expand sweep
//! grids without depending on this harness); this crate re-exports them
//! under their historical paths, and E1–E3 now execute their grids on the
//! engine, whose jobs run on `pdip_core::par`.

pub mod graphbench;
pub mod hotpath;
pub mod roundbench;
pub mod snapshot;

pub use pdip_engine::{no_instance, print_table, Family, Reporter, YesInstance, FAMILIES};

/// Parses a `--threads N` flag from the binary's argv, defaulting to the
/// machine's available parallelism. Shared by the E1–E3 binaries.
pub fn threads_flag() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// A [`Reporter`] honouring a `--quiet` flag in the binary's argv.
/// Shared by the E1–E3 binaries so their tables and `[engine]` summary
/// lines route through one silenceable sink.
pub fn reporter_from_args() -> Reporter {
    Reporter::from_quiet_flag(std::env::args().any(|a| a == "--quiet"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_protocols::{PopParams, Transport};

    #[test]
    fn yes_instances_exist_for_every_family() {
        for fam in FAMILIES {
            for n in [16usize, 64, 200] {
                let inst = YesInstance::generate(fam, n, 3);
                inst.with_protocol(PopParams::default(), Transport::Native, |p| {
                    assert!(p.is_yes_instance(), "{} n={n}", fam.name());
                    assert!(p.instance_size() > 0);
                    assert_eq!(p.rounds(), 5);
                });
            }
        }
    }

    #[test]
    fn no_instances_are_no_for_every_family() {
        for fam in FAMILIES {
            let inst = no_instance(fam, 80, 7);
            inst.with_protocol(PopParams::default(), Transport::Native, |p| {
                assert!(!p.is_yes_instance(), "{}", fam.name());
                assert!(!p.cheat_names().is_empty());
            });
        }
    }
}
