//! The six graph families of the paper (Theorems 1.2–1.7): one
//! [`Instance`] type, its generators, and the one place an instance is
//! bound to its protocol.
//!
//! The engine's sweeps, the wire format (whose family tag is
//! [`Family::tag`]), the serve path and the CLI all use this table.

use crate::*;
use pdip_core::DipProtocol;
use pdip_graph::gen;
use pdip_graph::{with_thread_scratch, Graph, TraversalScratch};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The six graph families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// Path-outerplanar graphs (Theorem 1.2).
    PathOuterplanar,
    /// Outerplanar graphs (Theorem 1.3).
    Outerplanar,
    /// Embedded planarity (Theorem 1.4).
    EmbeddedPlanarity,
    /// Planarity (Theorem 1.5).
    Planarity,
    /// Series-parallel graphs (Theorem 1.6).
    SeriesParallel,
    /// Treewidth ≤ 2 (Theorem 1.7).
    Treewidth2,
}

/// All families in theorem order; a family's wire tag is its position
/// here plus 1.
pub const FAMILIES: [Family; 6] = [
    Family::PathOuterplanar,
    Family::Outerplanar,
    Family::EmbeddedPlanarity,
    Family::Planarity,
    Family::SeriesParallel,
    Family::Treewidth2,
];

impl Family {
    /// Display name (matches `pdip run <family>`).
    pub fn name(&self) -> &'static str {
        match self {
            Family::PathOuterplanar => "path-outerplanarity",
            Family::Outerplanar => "outerplanarity",
            Family::EmbeddedPlanarity => "embedded-planarity",
            Family::Planarity => "planarity",
            Family::SeriesParallel => "series-parallel",
            Family::Treewidth2 => "treewidth-2",
        }
    }

    /// Inverse of [`Family::name`].
    pub fn from_name(s: &str) -> Option<Family> {
        FAMILIES.iter().copied().find(|f| f.name() == s)
    }

    /// The wire family tag: 1 = path-outerplanarity … 6 = treewidth-2.
    pub fn tag(&self) -> u8 {
        FAMILIES.iter().position(|f| f == self).expect("every family is in FAMILIES") as u8 + 1
    }

    /// Inverse of [`Family::tag`]; `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<Family> {
        FAMILIES.get(usize::from(tag).checked_sub(1)?).copied()
    }

    /// Number of implemented cheating-prover strategies.
    pub fn cheat_count(&self) -> usize {
        match self {
            Family::PathOuterplanar => POP_CHEATS.len(),
            Family::Outerplanar => OP_CHEATS.len(),
            Family::EmbeddedPlanarity => EMB_CHEATS.len(),
            Family::Planarity => PL_CHEATS.len(),
            Family::SeriesParallel => SPA_CHEATS.len(),
            Family::Treewidth2 => TW2_CHEATS.len(),
        }
    }

    /// Names of the cheating-prover strategies (probed from a small
    /// no-instance).
    pub fn cheat_names(&self) -> Vec<String> {
        no_instance(*self, 24, 0)
            .with_protocol(PopParams::default(), Transport::Native, |p| p.cheat_names())
    }
}

/// A self-contained instance of one family (owns its data so the
/// protocol can be constructed on demand).
#[derive(Debug, Clone)]
pub enum Instance {
    /// Theorem 1.2: path-outerplanarity.
    Pop(PopInstance),
    /// Theorem 1.3: outerplanarity.
    Op(OpInstance),
    /// Theorem 1.4: embedded planarity.
    Emb(EmbInstance),
    /// Theorem 1.5: planarity.
    Pl(PlInstance),
    /// Theorem 1.6: series-parallel graphs.
    Spa(SpaInstance),
    /// Theorem 1.7: treewidth ≤ 2.
    Tw2(Tw2Instance),
}

impl Instance {
    /// Generates a yes-instance with roughly `n` nodes.
    pub fn generate(family: Family, n: usize, seed: u64) -> Instance {
        with_thread_scratch(|s| Instance::generate_with(family, n, seed, s))
    }

    /// [`Instance::generate`] with an explicit [`TraversalScratch`], so
    /// batch generation (worker pools, benches) reuses traversal buffers
    /// across instances. Pure in `(family, n, seed)`: the scratch never
    /// influences the generated instance.
    pub fn generate_with(
        family: Family,
        n: usize,
        seed: u64,
        scratch: &mut TraversalScratch,
    ) -> Instance {
        let mut rng = SmallRng::seed_from_u64(seed);
        match family {
            Family::PathOuterplanar => {
                let g = gen::outerplanar::random_path_outerplanar(n, 0.6, &mut rng);
                Instance::Pop(PopInstance { graph: g.graph, witness: Some(g.path), is_yes: true })
            }
            Family::Outerplanar => {
                let g =
                    gen::outerplanar::random_outerplanar(n.max(6), (n / 24).max(1), 0.5, &mut rng);
                Instance::Op(OpInstance { graph: g.graph, is_yes: true })
            }
            Family::EmbeddedPlanarity => {
                let g = gen::planar::random_planar_with(n.max(4), 0.5, &mut rng, scratch);
                Instance::Emb(EmbInstance { graph: g.graph, rho: g.rho, is_yes: true })
            }
            Family::Planarity => {
                let g = gen::planar::random_planar_with(n.max(4), 0.5, &mut rng, scratch);
                Instance::Pl(PlInstance { graph: g.graph, witness_rho: Some(g.rho), is_yes: true })
            }
            Family::SeriesParallel => {
                let g = gen::sp::random_series_parallel((n / 2).max(1), &mut rng);
                Instance::Spa(SpaInstance { graph: g.graph, is_yes: true })
            }
            Family::Treewidth2 => {
                let g = gen::sp::random_treewidth2((n / 16).max(1), 8, &mut rng);
                Instance::Tw2(Tw2Instance { graph: g.graph, is_yes: true })
            }
        }
    }

    /// Runs `f` with the protocol bound to this instance.
    pub fn with_protocol<R>(
        &self,
        params: PopParams,
        transport: Transport,
        f: impl FnOnce(&dyn DipProtocol) -> R,
    ) -> R {
        match self {
            Instance::Pop(i) => f(&PathOuterplanarity::new(i, params, transport)),
            Instance::Op(i) => f(&Outerplanarity::new(i, params, transport)),
            Instance::Emb(i) => f(&EmbeddedPlanarity::new(i, params, transport)),
            Instance::Pl(i) => f(&Planarity::new(i, params, transport)),
            Instance::Spa(i) => f(&SeriesParallel::new(i, params, transport)),
            Instance::Tw2(i) => f(&Treewidth2::new(i, params, transport)),
        }
    }

    /// The family this instance belongs to.
    pub fn family(&self) -> Family {
        match self {
            Instance::Pop(_) => Family::PathOuterplanar,
            Instance::Op(_) => Family::Outerplanar,
            Instance::Emb(_) => Family::EmbeddedPlanarity,
            Instance::Pl(_) => Family::Planarity,
            Instance::Spa(_) => Family::SeriesParallel,
            Instance::Tw2(_) => Family::Treewidth2,
        }
    }

    /// The family's protocol name (matches `pdip run <family>`).
    pub fn family_name(&self) -> &'static str {
        self.family().name()
    }

    /// The instance graph.
    pub fn graph(&self) -> &Graph {
        match self {
            Instance::Pop(i) => &i.graph,
            Instance::Op(i) => &i.graph,
            Instance::Emb(i) => &i.graph,
            Instance::Pl(i) => &i.graph,
            Instance::Spa(i) => &i.graph,
            Instance::Tw2(i) => &i.graph,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph().n()
    }

    /// Ground-truth yes/no of the instance.
    pub fn is_yes(&self) -> bool {
        match self {
            Instance::Pop(i) => i.is_yes,
            Instance::Op(i) => i.is_yes,
            Instance::Emb(i) => i.is_yes,
            Instance::Pl(i) => i.is_yes,
            Instance::Spa(i) => i.is_yes,
            Instance::Tw2(i) => i.is_yes,
        }
    }

    /// Number of cheat strategies of this instance's family.
    pub fn cheat_count(&self) -> usize {
        self.family().cheat_count()
    }
}

/// A self-contained no-instance of a family.
pub fn no_instance(family: Family, n: usize, seed: u64) -> Instance {
    with_thread_scratch(|s| no_instance_with(family, n, seed, s))
}

/// [`no_instance`] with an explicit [`TraversalScratch`]. Pure in
/// `(family, n, seed)`: the scratch never influences the instance.
pub fn no_instance_with(
    family: Family,
    n: usize,
    seed: u64,
    scratch: &mut TraversalScratch,
) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    match family {
        Family::PathOuterplanar => {
            let g = gen::no_instances::outerplanar_no_hamiltonian_path((n / 3).max(3), &mut rng);
            Instance::Pop(PopInstance { graph: g, witness: None, is_yes: false })
        }
        Family::Outerplanar => {
            let g = gen::no_instances::planar_not_outerplanar(n.max(6), &mut rng);
            Instance::Op(OpInstance { graph: g, is_yes: false })
        }
        Family::EmbeddedPlanarity => {
            let g = gen::planar::scrambled_embedding(n.max(6), &mut rng);
            Instance::Emb(EmbInstance { graph: g.graph, rho: g.rho, is_yes: false })
        }
        Family::Planarity => {
            let g = gen::no_instances::nonplanar_with_gadget_with(
                n.max(8),
                1,
                seed.is_multiple_of(2),
                &mut rng,
                scratch,
            );
            Instance::Pl(PlInstance { graph: g, witness_rho: None, is_yes: false })
        }
        Family::SeriesParallel => {
            let g = gen::no_instances::tw2_violator((n / 8).max(1), 1, &mut rng);
            Instance::Spa(SpaInstance { graph: g, is_yes: false })
        }
        Family::Treewidth2 => {
            let g = gen::no_instances::tw2_violator((n / 8).max(2), 1, &mut rng);
            Instance::Tw2(Tw2Instance { graph: g, is_yes: false })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_roundtrip() {
        for fam in FAMILIES {
            assert_eq!(Family::from_name(fam.name()), Some(fam));
        }
        assert_eq!(Family::from_name("nonsense"), None);
    }

    #[test]
    fn every_family_has_cheats() {
        for fam in FAMILIES {
            assert!(fam.cheat_count() > 0, "{}", fam.name());
            assert_eq!(fam.cheat_count(), fam.cheat_names().len());
        }
    }

    #[test]
    fn yes_instances_exist_for_every_family() {
        for fam in FAMILIES {
            for n in [16usize, 64, 200] {
                let inst = Instance::generate(fam, n, 3);
                assert_eq!(inst.family(), fam);
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
            assert_eq!(inst.family(), fam);
            inst.with_protocol(PopParams::default(), Transport::Native, |p| {
                assert!(!p.is_yes_instance(), "{}", fam.name());
                assert!(!p.cheat_names().is_empty());
            });
        }
    }
}
