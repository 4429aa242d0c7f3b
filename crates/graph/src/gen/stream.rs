//! Streaming block-structured instance generation with bounded memory.
//!
//! The monolithic generators ([`super::planar::random_planar`],
//! [`super::no_instances::nonplanar_with_gadget`]) materialize the whole
//! instance, which caps experiments near n = 10⁵. This module grows the
//! instance as a tree of biconnected blocks glued at cut vertices — the
//! block–cut tree is *chosen by the generator* instead of recovered by
//! Hopcroft–Tarjan — and emits it one block ("shard") at a time:
//!
//! * **O(#blocks) skeleton.** [`StreamSkeleton`] holds one small
//!   [`BlockMeta`] per block (size, parent, attachment node, global base
//!   id), derived from a dedicated skeleton RNG stream. Nothing of size
//!   O(n) is ever allocated by the skeleton.
//! * **Pure shards.** [`StreamSkeleton::shard`] is a pure function of
//!   `(spec, i)`: shard `i` draws from its own seed
//!   `job_seed(sub_seed(seed, LABEL_SHARDS), i)`, so shards can be
//!   generated out of order, in parallel, or twice — byte-identically.
//!   Each planar shard *is* the monolithic [`random_planar_with`] output
//!   at its block seed; the gadget shard is the monolithic
//!   [`nonplanar_with_gadget_with`] output.
//! * **Concatenation = monolith.** [`StreamSkeleton::materialize`]
//!   assembles the full graph by appending each shard's edges in shard
//!   order, so the global edge-id space is the concatenation of the
//!   shards' local ones, and [`StreamSkeleton::extract_shard`] recovers
//!   every shard from the materialized instance byte-for-byte (the
//!   contract `extract_shard(materialize(spec), i) == shard(i)` is
//!   pinned by tests and audited by the E11 driver at overlapping
//!   sizes).
//!
//! Rotation systems glue soundly: at a cut vertex the global rotation is
//! the concatenation of the incident blocks' rotations, each kept
//! contiguous, which realizes the one-point union of the blocks'
//! embeddings — Euler genus adds over blocks, so the glued embedding is
//! planar iff every block's is.
//!
//! [`random_planar_with`]: super::planar::random_planar_with
//! [`nonplanar_with_gadget_with`]: super::no_instances::nonplanar_with_gadget_with

use super::no_instances::nonplanar_with_gadget_with;
use super::planar::random_planar_with;
use crate::embedding::RotationSystem;
use crate::graph::{EdgeId, Graph, NodeId};
use crate::scratch::{with_thread_scratch, TraversalScratch};
use crate::seed::{job_seed, sub_seed};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sub-seed label of the skeleton RNG stream.
const LABEL_SKELETON: u64 = 0x51;
/// Sub-seed label of the per-shard seed stream.
const LABEL_SHARDS: u64 = 0x52;

/// Smallest block the generator will emit (the planar block generator
/// needs ≥ 4 nodes; trailing remainders below this are folded into the
/// previous block).
const MIN_BLOCK: usize = 5;

/// Node overhead of the planted gadget at `sub = 1`: K5 adds 5 branch
/// nodes + 10 subdivision nodes, K3,3 adds 6 + 9 — fifteen either way,
/// so a gadget block's size is exact regardless of the obstruction.
const GADGET_OVERHEAD: usize = 15;

/// Smallest block that can host the gadget (host ≥ MIN_BLOCK).
const GADGET_MIN_BLOCK: usize = MIN_BLOCK + GADGET_OVERHEAD;

/// What the stream generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// Every block is a random connected planar graph with witness
    /// embedding; the glued instance is planar.
    Planar,
    /// One skeleton-chosen block carries a planted `K5` (if `use_k5`)
    /// or `K3,3` subdivision; the glued instance is non-planar.
    NonplanarGadget {
        /// `K5` vs `K3,3` obstruction.
        use_k5: bool,
    },
}

/// Parameters of one streamed instance.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Total node count (clamped up to one block minimum).
    pub n: usize,
    /// Target nodes per block (clamped to one more than the smallest
    /// block every mode fits in).
    pub shard_n: usize,
    /// Keep probability for non-tree edges inside each planar block.
    pub keep: f64,
    /// Base seed; skeleton and every shard derive labelled sub-streams.
    pub seed: u64,
    /// Planar vs planted-obstruction stream.
    pub mode: StreamMode,
}

/// Skeleton entry for one block: everything needed to place the block in
/// the global id space without looking at any other block's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Local node count of the block.
    pub size: usize,
    /// Parent block index (self for block 0).
    pub parent: usize,
    /// Global id of the cut node shared with the parent (block 0: 0).
    pub attach: NodeId,
    /// Global id of local node 1 (local node 0 maps to `attach` for
    /// blocks > 0; block 0 maps local v to global v directly).
    pub base: NodeId,
}

/// One emitted shard: a block-local instance plus its gluing data.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Block index in the stream.
    pub index: usize,
    /// The block graph on local labels `0..size`.
    pub graph: Graph,
    /// The block's witness embedding (planar blocks only).
    pub rho: Option<RotationSystem>,
    /// Ground truth: whether this block is planar.
    pub planar: bool,
}

/// The materialized (monolithic) instance a stream concatenates to.
#[derive(Debug, Clone)]
pub struct StreamInstance {
    /// The glued graph.
    pub graph: Graph,
    /// The glued witness embedding (planar mode only).
    pub rho: Option<RotationSystem>,
    /// Ground truth of the glued instance.
    pub planar: bool,
}

/// The O(#blocks) block–cut tree skeleton of a streamed instance.
#[derive(Debug, Clone)]
pub struct StreamSkeleton {
    /// The generating parameters (with clamps applied).
    pub spec: StreamSpec,
    /// Per-block metadata, in stream order.
    pub blocks: Vec<BlockMeta>,
    /// Total node count of the glued instance (= `spec.n` after clamps).
    pub total_n: usize,
    /// Index of the gadget block (non-planar mode only).
    pub gadget_block: Option<usize>,
}

impl StreamSkeleton {
    /// Builds the skeleton: block sizes, tree shape and attachment nodes.
    /// Costs O(#blocks) time and memory; consults only the skeleton RNG
    /// stream (`sub_seed(seed, LABEL_SKELETON)`), never a shard's.
    pub fn new(spec: StreamSpec) -> Self {
        let mut spec = spec;
        spec.shard_n = spec.shard_n.max(GADGET_MIN_BLOCK + 1);
        spec.n = spec.n.max(spec.shard_n.min(GADGET_MIN_BLOCK + 1));
        let mut skel_rng = SmallRng::seed_from_u64(sub_seed(spec.seed, LABEL_SKELETON));

        // Block sizes: first block absorbs up to shard_n nodes, every
        // further block shares one node (its attachment) with the tree
        // built so far, so it contributes size - 1 fresh nodes.
        let mut sizes = vec![spec.n.min(spec.shard_n)];
        let mut remaining = spec.n - sizes[0];
        while remaining > 0 {
            let s = (remaining + 1).min(spec.shard_n);
            if s < MIN_BLOCK {
                // Fold a tiny trailing remainder into the previous block.
                *sizes.last_mut().expect("at least one block") += remaining;
                remaining = 0;
            } else {
                sizes.push(s);
                remaining -= s - 1;
            }
        }

        // Tree shape + global id layout. Global ids are dense: block 0
        // owns [0, size_0); block i > 0 owns [base_i, base_i + size_i - 1)
        // plus its attachment node, which lives in an earlier block.
        let mut blocks: Vec<BlockMeta> = Vec::with_capacity(sizes.len());
        let mut next_global = 0usize;
        for (i, &size) in sizes.iter().enumerate() {
            if i == 0 {
                blocks.push(BlockMeta { size, parent: 0, attach: 0, base: 1 });
                next_global = size;
                continue;
            }
            let parent = skel_rng.gen_range(0..i);
            let a = skel_rng.gen_range(0..blocks[parent].size);
            let attach = global_of(&blocks, parent, a);
            blocks.push(BlockMeta { size, parent, attach, base: next_global });
            next_global += size - 1;
        }
        debug_assert_eq!(next_global, spec.n);

        let gadget_block = match spec.mode {
            StreamMode::Planar => None,
            StreamMode::NonplanarGadget { .. } => {
                let eligible: Vec<usize> =
                    (0..blocks.len()).filter(|&i| blocks[i].size >= GADGET_MIN_BLOCK).collect();
                assert!(!eligible.is_empty(), "no block large enough for the gadget (n too small)");
                Some(eligible[skel_rng.gen_range(0..eligible.len())])
            }
        };
        StreamSkeleton { spec, blocks, total_n: spec.n, gadget_block }
    }

    /// Number of shards the stream emits.
    pub fn shard_count(&self) -> usize {
        self.blocks.len()
    }

    /// Maps local node `v` of block `i` to its global id.
    pub fn to_global(&self, i: usize, v: NodeId) -> NodeId {
        global_of(&self.blocks, i, v)
    }

    /// The global node ids of block `i`: attachment first (blocks > 0),
    /// then the block-owned range — i.e. `to_global(i, v)` for local
    /// `v = 0..size`.
    pub fn shard_globals(&self, i: usize) -> Vec<NodeId> {
        (0..self.blocks[i].size).map(|v| self.to_global(i, v)).collect()
    }

    /// Generates shard `i` — a pure function of `(spec, i)`.
    pub fn shard(&self, i: usize) -> Shard {
        with_thread_scratch(|s| self.shard_with(i, s))
    }

    /// [`StreamSkeleton::shard`] with an explicit scratch, for callers
    /// that stream many shards (the E11 driver, the materializer).
    pub fn shard_with(&self, i: usize, scratch: &mut TraversalScratch) -> Shard {
        let meta = self.blocks[i];
        let mut rng =
            SmallRng::seed_from_u64(job_seed(sub_seed(self.spec.seed, LABEL_SHARDS), i as u64));
        match (self.spec.mode, self.gadget_block) {
            (StreamMode::NonplanarGadget { use_k5 }, Some(g)) if g == i => {
                let graph = nonplanar_with_gadget_with(
                    meta.size - GADGET_OVERHEAD,
                    1,
                    use_k5,
                    &mut rng,
                    scratch,
                );
                debug_assert_eq!(graph.n(), meta.size);
                Shard { index: i, graph, rho: None, planar: false }
            }
            _ => {
                let inst = random_planar_with(meta.size, self.spec.keep, &mut rng, scratch);
                Shard { index: i, graph: inst.graph, rho: Some(inst.rho), planar: true }
            }
        }
    }

    /// Assembles the full instance by concatenating the shards in stream
    /// order: block `i`'s edges occupy a contiguous global edge-id range,
    /// and at every cut node the incident blocks' rotations are spliced
    /// as contiguous runs (block order). Memory is O(n) — this is the
    /// monolithic path, used at overlap sizes to certify the stream.
    pub fn materialize(&self) -> StreamInstance {
        with_thread_scratch(|s| self.materialize_with(s))
    }

    /// [`StreamSkeleton::materialize`] with an explicit scratch.
    pub fn materialize_with(&self, scratch: &mut TraversalScratch) -> StreamInstance {
        let mut g = Graph::new(self.total_n);
        let planar_mode = matches!(self.spec.mode, StreamMode::Planar);
        let mut order: Vec<Vec<EdgeId>> =
            if planar_mode { vec![Vec::new(); self.total_n] } else { Vec::new() };
        for i in 0..self.shard_count() {
            let shard = self.shard_with(i, scratch);
            let edge_base = g.m();
            for e in shard.graph.edges() {
                g.add_edge(self.to_global(i, e.u), self.to_global(i, e.v));
            }
            if planar_mode {
                let rho = shard.rho.as_ref().expect("planar mode shards carry a witness");
                for v in 0..shard.graph.n() {
                    let gv = self.to_global(i, v);
                    order[gv].extend(rho.order_at(v).iter().map(|&e| e + edge_base));
                }
            }
        }
        let rho =
            if planar_mode { Some(RotationSystem::from_orders_trusted(&g, order)) } else { None };
        StreamInstance { graph: g, rho, planar: planar_mode }
    }

    /// Recovers shard `i` from a materialized instance: its edges are
    /// exactly the global edges with both endpoints inside the block's
    /// node set (two blocks share at most one node, so no foreign edge
    /// qualifies), taken in ascending global edge id — which is the
    /// stream's local edge order. The shard's rotation is the global
    /// rotation filtered to block edges. Byte-identity with
    /// [`StreamSkeleton::shard`] is the streaming contract.
    pub fn extract_shard(&self, inst: &StreamInstance, i: usize) -> Shard {
        let meta = self.blocks[i];
        let size = meta.size;
        // local id of each block-global node, keyed by global id.
        let globals = self.shard_globals(i);
        let local_of = |gv: NodeId| -> Option<NodeId> {
            if i > 0 && gv == meta.attach {
                Some(0)
            } else {
                let lo = if i == 0 { meta.attach } else { meta.base };
                let shift = usize::from(i > 0);
                (gv >= lo && gv < lo + size - shift).then(|| gv - lo + shift)
            }
        };
        let mut graph = Graph::new(size);
        let mut block_edges: Vec<EdgeId> = Vec::new();
        for (ge, e) in inst.graph.edges().iter().enumerate() {
            if let (Some(u), Some(v)) = (local_of(e.u), local_of(e.v)) {
                graph.add_edge(u, v);
                block_edges.push(ge);
            }
        }
        let rho = inst.rho.as_ref().map(|rho| {
            let order: Vec<Vec<EdgeId>> = globals
                .iter()
                .map(|&gv| {
                    rho.order_at(gv)
                        .iter()
                        .filter_map(|ge| block_edges.binary_search(ge).ok())
                        .collect()
                })
                .collect();
            RotationSystem::from_orders_trusted(&graph, order)
        });
        let planar = self.gadget_block != Some(i);
        Shard { index: i, graph, rho, planar }
    }
}

/// Maps local node `v` of block `i` to its global id (see [`BlockMeta`]).
fn global_of(blocks: &[BlockMeta], i: usize, v: NodeId) -> NodeId {
    let meta = blocks[i];
    debug_assert!(v < meta.size);
    if i == 0 {
        v
    } else if v == 0 {
        meta.attach
    } else {
        meta.base + v - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planarity::is_planar;

    fn planar_spec(n: usize, shard_n: usize, seed: u64) -> StreamSpec {
        StreamSpec { n, shard_n, keep: 0.5, seed, mode: StreamMode::Planar }
    }

    /// Byte-identity check. `a` is the extracted shard, `b` the streamed
    /// one; in gadget mode the materialized instance carries no global
    /// rotation, so extraction yields `rho: None` for every shard and
    /// the rotation half of the contract applies to planar mode only.
    fn assert_shards_equal(a: &Shard, b: &Shard) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.graph.n(), b.graph.n(), "shard {}", a.index);
        assert_eq!(a.graph.edges(), b.graph.edges(), "shard {}", a.index);
        assert_eq!(a.planar, b.planar);
        if let (Some(x), Some(y)) = (&a.rho, &b.rho) {
            for v in 0..a.graph.n() {
                assert_eq!(x.order_at(v), y.order_at(v), "shard {} node {v}", a.index);
            }
        }
    }

    #[test]
    fn skeleton_is_small_and_covers_n() {
        let skel = StreamSkeleton::new(planar_spec(10_000, 64, 7));
        let fresh: usize =
            skel.blocks[0].size + skel.blocks[1..].iter().map(|b| b.size - 1).sum::<usize>();
        assert_eq!(fresh, 10_000);
        assert_eq!(skel.total_n, 10_000);
        assert!(skel.shard_count() > 100, "expected many blocks at shard_n=64");
        for (i, b) in skel.blocks.iter().enumerate().skip(1) {
            assert!(b.parent < i, "parent must precede child");
            assert!(b.attach < b.base, "attachment lives in an earlier block");
        }
    }

    #[test]
    fn shards_are_pure_and_order_independent() {
        let skel = StreamSkeleton::new(planar_spec(600, 64, 11));
        let forward: Vec<Shard> = (0..skel.shard_count()).map(|i| skel.shard(i)).collect();
        for i in (0..skel.shard_count()).rev() {
            assert_shards_equal(&skel.shard(i), &forward[i]);
        }
    }

    #[test]
    fn materialize_matches_extracted_shards_byte_for_byte() {
        for seed in [1u64, 2, 3] {
            let skel = StreamSkeleton::new(planar_spec(700, 96, seed));
            let inst = skel.materialize();
            assert_eq!(inst.graph.n(), skel.total_n);
            for i in 0..skel.shard_count() {
                let extracted = skel.extract_shard(&inst, i);
                assert!(extracted.rho.is_some(), "planar-mode extraction keeps the witness");
                assert_shards_equal(&extracted, &skel.shard(i));
            }
        }
    }

    #[test]
    fn glued_planar_instance_is_planar_connected_embedded() {
        let skel = StreamSkeleton::new(planar_spec(900, 80, 5));
        let inst = skel.materialize();
        assert!(inst.planar);
        assert!(inst.graph.is_connected());
        assert!(is_planar(&inst.graph));
        let rho = inst.rho.as_ref().expect("planar mode carries a witness");
        assert!(rho.is_planar_embedding(&inst.graph), "glued rotation must stay planar");
    }

    #[test]
    fn every_planar_shard_carries_a_valid_witness() {
        let skel = StreamSkeleton::new(planar_spec(500, 64, 9));
        for i in 0..skel.shard_count() {
            let s = skel.shard(i);
            assert!(s.planar);
            assert!(s.graph.is_connected());
            let rho = s.rho.as_ref().expect("planar shard witness");
            assert!(rho.is_planar_embedding(&s.graph), "shard {i}");
        }
    }

    #[test]
    fn gadget_mode_is_nonplanar_with_one_bad_block() {
        for use_k5 in [true, false] {
            let spec = StreamSpec {
                n: 800,
                shard_n: 64,
                keep: 0.5,
                seed: 13,
                mode: StreamMode::NonplanarGadget { use_k5 },
            };
            let skel = StreamSkeleton::new(spec);
            let g = skel.gadget_block.expect("gadget block chosen");
            assert!(skel.blocks[g].size >= GADGET_MIN_BLOCK);
            let inst = skel.materialize();
            assert!(!inst.planar);
            assert!(inst.graph.is_connected());
            assert!(!is_planar(&inst.graph), "use_k5={use_k5}");
            for i in 0..skel.shard_count() {
                let s = skel.shard(i);
                assert_eq!(s.planar, i != g);
                assert_eq!(is_planar(&s.graph), i != g, "shard {i}");
                // Extraction round-trips in gadget mode too.
                assert_shards_equal(&skel.extract_shard(&inst, i), &s);
            }
        }
    }

    #[test]
    fn shard_sizes_respect_target_and_minimum() {
        for n in [30usize, 97, 256, 1001] {
            let skel = StreamSkeleton::new(planar_spec(n, 40, 3));
            for b in &skel.blocks {
                assert!(b.size >= MIN_BLOCK.min(n), "n={n}: block too small ({})", b.size);
                // The fold-in of a tiny trailing remainder may exceed the
                // target by at most MIN_BLOCK - 1.
                assert!(b.size <= 40.max(GADGET_MIN_BLOCK + 1) + MIN_BLOCK, "n={n}");
            }
        }
    }

    #[test]
    fn global_ids_are_a_partition_plus_shared_cut_nodes() {
        let skel = StreamSkeleton::new(planar_spec(400, 48, 21));
        let mut owner = vec![usize::MAX; skel.total_n];
        for i in 0..skel.shard_count() {
            for v in 0..skel.blocks[i].size {
                let gv = skel.to_global(i, v);
                assert!(gv < skel.total_n);
                if i > 0 && v == 0 {
                    assert!(owner[gv] != usize::MAX, "attachment must already exist");
                } else {
                    assert_eq!(owner[gv], usize::MAX, "fresh node owned twice");
                    owner[gv] = i;
                }
            }
        }
        assert!(owner.iter().all(|&o| o != usize::MAX), "every global id owned");
    }
}
