//! The experiment registry and the timing harness behind it.
//!
//! [`exp`] holds one entry per committed artifact under `results/` —
//! the paper's E1–E8, the system audits E9–E14 and the three bench
//! snapshots — each with the one generator that produces it; `pdip exp
//! <id>` runs them. The bench snapshots ([`hotpath`], [`graphbench`],
//! [`roundbench`]) share one timer, entry type, renderer and parser in
//! [`snapshot`].

pub mod exp;
pub mod graphbench;
pub mod hotpath;
pub mod roundbench;
pub mod snapshot;

#[cfg(test)]
mod tests {
    use pdip_engine::{no_instance, YesInstance, FAMILIES};
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
