//! The LR-sorting protocol (§4 of the paper, Lemmas 4.1 and 4.2).
//!
//! Instance: a directed graph `G` with a directed Hamiltonian path `P`
//! known to the nodes; yes-instances direct every edge left→right along
//! `P`. The protocol runs in 5 interaction rounds with O(log log n)-bit
//! labels:
//!
//! * **P1** — block construction: the prover splits `P` into blocks of
//!   `L = ⌈log₂ n⌉` consecutive nodes, distributes each block's position
//!   `pos(b)` and `pos(b)+1` bitwise (node `i` of the block holds the i-th
//!   most significant bits of both), marks the increment pivot `v_b` (the
//!   least significant 0 of `pos(b)`), classifies every non-path edge as
//!   inner- or outer-block, writes the claimed distinguishing index
//!   `I(pos(b_u), pos(b_v))` on every outer edge, and pre-assigns the
//!   verification-scheme multiplicities.
//! * **V1** — the path head samples `r, r'` ∈ 𝔽_p; each block head samples
//!   an inner-block challenge `r_b` ∈ 𝔽_p.
//! * **P2** — the prover distributes `r, r', r_b`, the cumulative
//!   evaluations `A2 = φ_{x₂(b)}(r)` (left→right), `B1 = φ_{x₁(b)}(r)`
//!   (right→left) for the adjacent-block equality `x₂(b) = x₁(b')`, the
//!   prefix evaluations `PH_i = φ^b_i(r')` of the commitment scheme, and
//!   the committed prefix value `j_e = φ_{I_e−1}(r')` on every outer edge.
//! * **V2** — each block head samples `z₀, z₁` ∈ 𝔽_{p'}.
//! * **P3** — per block, two multiset-equality runs compare `C₁(b)` vs the
//!   multiplicity-expanded `D₁(b)` and `C₀(b)` vs `D₀(b)` (§4.2).
//!
//! Edge labels are carried natively (Lemma 4.1) or simulated through
//! [`crate::edge_labels::EdgeLabelCarrier`] on planar instances
//! (Lemma 4.2).

use crate::edge_labels::EdgeLabelCarrier;
use crate::multiset_eq::{MsMsg, MultisetEq};
use pdip_core::{bits_for_max, capture, Rejections, RunResult, SizeStats};
use pdip_field::{prefix_poly_evals, smallest_prime_above, Fp};
use pdip_graph::gen::lr::LrInstance;
use pdip_graph::{EdgeId, Graph, NodeId};
use pdip_obs::{span, NoopRecorder, Recorder, SpanId, Stopwatch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct LrParams {
    /// Soundness exponent: fields have size ≥ log^c n.
    pub c: u32,
    /// Override for the block length (`None` = the paper's ⌈log₂ n⌉;
    /// used by the E8 block-size ablation).
    pub block_len: Option<usize>,
}

impl Default for LrParams {
    fn default() -> Self {
        LrParams { c: 3, block_len: None }
    }
}

/// How edge labels reach the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Labels are written on edges directly (Lemma 4.1).
    Native,
    /// Labels are folded into node labels via forest decompositions
    /// (Lemma 4.2; requires bounded degeneracy, e.g. planar instances).
    Simulated,
}

/// Cheating-prover strategies for no-instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrCheat {
    /// Label every reversed edge as inner-block (hopes for an `r_b`
    /// collision across blocks; deterministically caught inside a block).
    ClaimInner,
    /// Label reversed edges as outer with the *true* distinguishing index
    /// (whose bits point the wrong way).
    OuterTrueIndex,
    /// Label reversed edges as outer with a forged index whose bits point
    /// the right way but whose prefixes differ (falls back to the true
    /// index if none exists); commits the tail block's prefix value.
    OuterForgedIndex,
    /// Renumber the two affected blocks' positions so the reversed edge
    /// looks fine, breaking block-adjacency consecutiveness instead.
    SwapBlockPositions,
}

/// All cheat strategies (order matches [`LrSorting::cheat_names`]).
pub const LR_CHEATS: [LrCheat; 4] = [
    LrCheat::ClaimInner,
    LrCheat::OuterTrueIndex,
    LrCheat::OuterForgedIndex,
    LrCheat::SwapBlockPositions,
];

/// Consecutiveness mark relative to the pivot `v_b` (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsecMark {
    /// Strictly left of the pivot: bits of `pos(b)` and `pos(b)+1` agree.
    Left,
    /// The pivot: bit flips 0 → 1.
    Pivot,
    /// Strictly right: bit flips 1 → 0 (trailing ones).
    Right,
}

/// Per-node round-1 label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct R1Node {
    /// 1-based index within the block (1 starts a new block).
    pub idx: usize,
    /// The `idx`-th most significant bit of `pos(b)` (meaningful for `idx <= L`).
    pub x1_bit: bool,
    /// The `idx`-th most significant bit of `pos(b) + 1`.
    pub x2_bit: bool,
    /// Position relative to the increment pivot.
    pub mark: ConsecMark,
    /// Verification-scheme multiplicity for `C0` (if `x1_bit == 0`).
    pub m0: u64,
    /// Verification-scheme multiplicity for `C1` (if `x1_bit == 1`).
    pub m1: u64,
}

/// Per-edge round-1 label (non-path edges only; `None` on path edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum R1Edge {
    /// Endpoints in the same block.
    Inner,
    /// Endpoints in different blocks; carries the claimed distinguishing
    /// index (1-based, MSB first).
    Outer {
        /// The claimed distinguishing index `I(pos(b_u), pos(b_v))`.
        index: usize,
    },
}

/// Per-node round-2 (P2) label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct R2Node {
    /// Echo of the global challenge `r`.
    pub r: u64,
    /// Echo of the global challenge `r'`.
    pub rp: u64,
    /// Echo of this block's inner-edge challenge `r_b`.
    pub rb: u64,
    /// Left→right cumulative `φ` over the `x₂` bits at `r`.
    pub a2: u64,
    /// Right→left cumulative `φ` over the `x₁` bits at `r`.
    pub b1: u64,
    /// Prefix evaluation `φ^b_idx(r')` over the `x₁` bits.
    pub ph: u64,
}

/// Per-edge round-2 label: the committed common-prefix value on outer edges.
pub type R2Edge = u64;

/// Per-node round-3 (P3) label: the two in-block multiset-equality runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct R3Node {
    /// `C1(b)` vs multiplicity-expanded `D1(b)`.
    pub eq1: MsMsg,
    /// `C0(b)` vs multiplicity-expanded `D0(b)`.
    pub eq0: MsMsg,
}

/// Verifier coins of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LrCoins {
    /// V1: global challenge (used only by the path head).
    pub r: u64,
    /// V1: global prefix challenge (path head).
    pub rp: u64,
    /// V1: inner-block challenge (block heads).
    pub rb: u64,
    /// V2: verification challenge for the `C1` equality (block heads).
    pub z1: u64,
    /// V2: verification challenge for the `C0` equality (block heads).
    pub z0: u64,
}

/// The full prover transcript of one run.
#[derive(Debug, Clone)]
pub struct LrTranscript {
    /// Round-1 node labels.
    pub r1_node: Vec<R1Node>,
    /// Round-1 edge labels (`None` on path edges).
    pub r1_edge: Vec<Option<R1Edge>>,
    /// Round-2 node labels.
    pub r2_node: Vec<R2Node>,
    /// Round-2 edge labels (`None` on path/inner edges).
    pub r2_edge: Vec<Option<R2Edge>>,
    /// Round-3 node labels.
    pub r3_node: Vec<R3Node>,
}

/// Reusable working buffers for the per-node decision sweep: the sorted
/// index→commitment maps and the four reconstructed multisets. One scratch
/// serves the whole sweep, so warm nodes allocate nothing.
#[derive(Debug, Default)]
struct DecideScratch {
    head_pairs: Vec<(usize, u64)>,
    tail_pairs: Vec<(usize, u64)>,
    s1_head: Vec<u64>,
    s1_tail: Vec<u64>,
    d_head: Vec<u64>,
    d_tail: Vec<u64>,
}

/// The LR-sorting protocol bound to an instance.
#[derive(Debug)]
pub struct LrSorting<'a> {
    inst: &'a LrInstance,
    transport: Transport,
    /// Block length L.
    pub block_len: usize,
    /// The base field 𝔽_p, `p > log^c n`.
    pub field_p: Fp,
    /// The verification field 𝔽_{p'}, `p' > p * L`.
    pub field_pp: Fp,
    // Node-local path inputs (part of the LR-sorting task input).
    left_path: Vec<Option<NodeId>>,
    right_path: Vec<Option<NodeId>>,
    is_path_edge: Vec<bool>,
}

impl<'a> LrSorting<'a> {
    /// Binds the protocol to an instance.
    pub fn new(inst: &'a LrInstance, params: LrParams, transport: Transport) -> Self {
        let n = inst.graph.n();
        let ln = (n.max(2) as f64).log2();
        let mut block_len = params.block_len.unwrap_or_else(|| (ln.ceil() as usize).max(1));
        // A block of length L must be able to hold pos(b) + 1 in L bits:
        // bump L until ⌊n/L⌋ + 1 ≤ 2^L (only matters for tiny n or
        // deliberately small ablation block lengths).
        while n / block_len.max(1) + 1 > 1usize << block_len.min(60) {
            block_len += 1;
        }
        let p = smallest_prime_above((ln.powi(params.c as i32) as u64).max(17));
        let pp = smallest_prime_above(p * block_len as u64 + 1);
        let mut left_path = vec![None; n];
        let mut right_path = vec![None; n];
        for w in inst.path.windows(2) {
            right_path[w[0]] = Some(w[1]);
            left_path[w[1]] = Some(w[0]);
        }
        let mut is_path_edge = vec![false; inst.graph.m()];
        for &e in &inst.path_edges {
            is_path_edge[e] = true;
        }
        LrSorting {
            inst,
            transport,
            block_len,
            field_p: Fp::new(p),
            field_pp: Fp::new(pp),
            left_path,
            right_path,
            is_path_edge,
        }
    }

    /// Number of interaction rounds.
    pub fn rounds(&self) -> usize {
        5
    }

    fn g(&self) -> &Graph {
        &self.inst.graph
    }

    /// Block id of each node under the honest block construction:
    /// consecutive runs of `L` path nodes, the remainder merged into the
    /// last block.
    fn honest_blocks(&self) -> (Vec<usize>, usize) {
        let n = self.g().n();
        let l = self.block_len;
        let nblocks = (n / l).max(1);
        let mut block = vec![0usize; n];
        for (posn, &v) in self.inst.path.iter().enumerate() {
            block[v] = (posn / l).min(nblocks - 1);
        }
        (block, nblocks)
    }

    /// Honest round-1 labels, optionally applying a cheat.
    fn round1(&self, cheat: Option<LrCheat>) -> (Vec<R1Node>, Vec<Option<R1Edge>>) {
        let g = self.g();
        let n = g.n();
        let l = self.block_len;
        let (block_of, nblocks) = self.honest_blocks();
        // Block positions, possibly tampered by SwapBlockPositions.
        let mut pos_of_block: Vec<usize> = (0..nblocks).collect();
        if cheat == Some(LrCheat::SwapBlockPositions) {
            if let Some(e) = self.first_reversed_edge() {
                let (t, h) = (self.tail(e), self.head(e));
                let (bt, bh) = (block_of[t], block_of[h]);
                if bt != bh {
                    pos_of_block.swap(bt, bh);
                }
            }
        }
        let pos = self.inst.positions();
        // Per-block bit material, computed once per block instead of once
        // per node: every node of block b reads the same x1/x2 bitstrings
        // (the L-bit MSB-first forms of pos(b) and pos(b)+1, i.e. bit idx
        // is bit `cap - idx` of the word) and the same pivot jb (the least
        // significant 0 of x1 = cap minus the trailing-ones count).
        let mut cap_of = vec![0usize; nblocks];
        let mut jb_of = vec![0usize; nblocks];
        for b in 0..nblocks {
            let cap = self.block_cap(b);
            cap_of[b] = cap;
            let to = pos_of_block[b].trailing_ones() as usize;
            jb_of[b] = if to >= cap { 1 } else { cap - to };
        }
        let bit_at = |x: usize, shift: usize| shift < usize::BITS as usize && (x >> shift) & 1 == 1;
        let mut nodes = Vec::with_capacity(n);
        for v in 0..n {
            let b = block_of[v];
            let idx = pos[v] - self.block_start(b) + 1;
            let cap = cap_of[b];
            let jb = jb_of[b];
            let (x1b, x2b) = if idx <= cap {
                let s = cap - idx;
                (bit_at(pos_of_block[b], s), bit_at(pos_of_block[b] + 1, s))
            } else {
                (false, false)
            };
            let mark = if idx < jb || idx > cap {
                ConsecMark::Left
            } else if idx == jb {
                ConsecMark::Pivot
            } else {
                ConsecMark::Right
            };
            nodes.push(R1Node { idx, x1_bit: x1b, x2_bit: x2b, mark, m0: 0, m1: 0 });
        }
        // Edge classification. The distinguishing index (first differing
        // bit, MSB first) comes straight from the XOR of the two block
        // positions: bit shift `s` is index `cap - s`, so the smallest
        // index is the highest set bit of the masked XOR.
        let top_index = |word: u64, cap: usize| cap - (63 - word.leading_zeros() as usize);
        let mut edges: Vec<Option<R1Edge>> = vec![None; g.m()];
        for e in 0..g.m() {
            if self.is_path_edge[e] {
                continue;
            }
            let (t, h) = (self.tail(e), self.head(e));
            let (bt, bh) = (block_of[t], block_of[h]);
            let reversed = pos[t] > pos[h];
            #[allow(clippy::if_same_then_else)] // distinct honest/cheat cases
            let label = if bt == bh && !(reversed && cheat.is_some()) {
                R1Edge::Inner
            } else if reversed && cheat == Some(LrCheat::ClaimInner) {
                R1Edge::Inner
            } else {
                // Outer: distinguishing index of the two block positions.
                let (pt, ph_) = (pos_of_block[bt] as u64, pos_of_block[bh] as u64);
                let cap = cap_of[bt].min(cap_of[bh]);
                let mask = if cap >= 64 { u64::MAX } else { (1u64 << cap) - 1 };
                let diff = (pt ^ ph_) & mask;
                let index = match cheat {
                    Some(LrCheat::OuterForgedIndex) if reversed => {
                        // An index where tail-bit = 0, head-bit = 1.
                        let t0h1 = !pt & ph_ & mask;
                        if t0h1 != 0 {
                            top_index(t0h1, cap)
                        } else if diff != 0 {
                            top_index(diff, cap)
                        } else {
                            1
                        }
                    }
                    _ if diff != 0 => top_index(diff, cap),
                    _ => 1,
                };
                R1Edge::Outer { index }
            };
            edges[e] = Some(label);
        }
        // Multiplicities: count C-side pairs per (block, index, side). The
        // pair value j is determined later (depends on r'), but the honest
        // multiset multiplicity only depends on (index, side) because all
        // honest pairs with the same index share the same j. We count the
        // *distinct-per-node* pairs, i.e. per node per index per side at
        // most one — indices fit in L ≤ 64 bits, so a pair of per-node
        // bitmasks replaces the hash sets.
        let mut m1 = vec![vec![0u64; l * 2 + 2]; nblocks];
        let mut m0 = vec![vec![0u64; l * 2 + 2]; nblocks];
        for v in 0..n {
            let mut seen_head = 0u64;
            let mut seen_tail = 0u64;
            for e in g.incident_edges(v) {
                if let Some(R1Edge::Outer { index }) = edges[e] {
                    let bit = 1u64 << (index - 1);
                    if self.head(e) == v {
                        if seen_head & bit == 0 {
                            seen_head |= bit;
                            m1[block_of[v]][index] += 1;
                        }
                    } else if seen_tail & bit == 0 {
                        seen_tail |= bit;
                        m0[block_of[v]][index] += 1;
                    }
                }
            }
        }
        for v in 0..n {
            let b = block_of[v];
            let idx = nodes[v].idx;
            if idx <= self.block_cap(b) {
                if nodes[v].x1_bit {
                    nodes[v].m1 = m1[b][idx];
                } else {
                    nodes[v].m0 = m0[b][idx];
                }
            }
        }
        (nodes, edges)
    }

    /// Capacity (number of position bits) of block `b`: `min(L, |b|)`.
    fn block_cap(&self, b: usize) -> usize {
        self.block_len.min(self.block_size(b))
    }

    fn block_size(&self, b: usize) -> usize {
        let n = self.g().n();
        let l = self.block_len;
        let nblocks = (n / l).max(1);
        if b + 1 < nblocks {
            l
        } else {
            n - (nblocks - 1) * l
        }
    }

    fn block_start(&self, b: usize) -> usize {
        b * self.block_len
    }

    fn tail(&self, e: EdgeId) -> NodeId {
        self.inst.orientation.tail(self.g(), e)
    }

    fn head(&self, e: EdgeId) -> NodeId {
        self.inst.orientation.head(self.g(), e)
    }

    fn first_reversed_edge(&self) -> Option<EdgeId> {
        let pos = self.inst.positions();
        (0..self.g().m()).find(|&e| pos[self.tail(e)] > pos[self.head(e)])
    }

    /// Honest round-2 labels given round-1 labels and coins.
    fn round2(
        &self,
        r1n: &[R1Node],
        r1e: &[Option<R1Edge>],
        coins: &[LrCoins],
        cheat: Option<LrCheat>,
    ) -> (Vec<R2Node>, Vec<Option<R2Edge>>) {
        let g = self.g();
        let n = g.n();
        let fp = self.field_p;
        let head_node = self.inst.path[0];
        let (r, rp) = (coins[head_node].r, coins[head_node].rp);
        let (block_of, nblocks) = self.honest_blocks();
        // r_b per block from each block head's coins.
        let mut rb_of_block = vec![0u64; nblocks];
        for v in 0..n {
            if r1n[v].idx == 1 {
                rb_of_block[block_of[v]] = coins[v].rb;
            }
        }
        // Per-block bit vectors (by idx) reconstructed from R1 labels so
        // that tampered R1 stays consistent with R2.
        let mut x1_bits: Vec<Vec<bool>> =
            (0..nblocks).map(|b| vec![false; self.block_cap(b)]).collect();
        let mut x2_bits = x1_bits.clone();
        for v in 0..n {
            let b = block_of[v];
            let idx = r1n[v].idx;
            if idx <= self.block_cap(b) {
                x1_bits[b][idx - 1] = r1n[v].x1_bit;
                x2_bits[b][idx - 1] = r1n[v].x2_bit;
            }
        }
        // Cumulatives per block. The x1 prefix evaluations at r' are kept
        // per block (`prefp_of`) so the outer-edge commitment loop below
        // reads cached values instead of re-evaluating the prefix
        // polynomial twice per edge.
        let mut a2 = vec![0u64; n];
        let mut b1 = vec![0u64; n];
        let mut ph = vec![0u64; n];
        let mut prefp_of: Vec<Vec<u64>> = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let cap = self.block_cap(b);
            let size = self.block_size(b);
            // Nodes of the block in idx order.
            let start = self.block_start(b);
            let pref2 = prefix_poly_evals(&fp, &x2_bits[b], r);
            let prefp = prefix_poly_evals(&fp, &x1_bits[b], rp);
            // Right-to-left suffix products over the x1 bits at r:
            // suff[i] = prod over { j >= i+1 : x1[j-1] } of (j - r).
            let mut suff1 = vec![1u64; cap + 1];
            for i in (0..cap).rev() {
                let fac = if x1_bits[b][i] { fp.sub((i + 1) as u64, r) } else { 1 };
                suff1[i] = fp.mul(suff1[i + 1], fac);
            }
            for i in 0..size {
                let v = self.inst.path[start + i];
                let idx = i + 1;
                let j = idx.min(cap);
                a2[v] = pref2[j];
                ph[v] = prefp[j];
                // Right-to-left cumulative of x1: product over bits >= idx.
                b1[v] = if idx > cap { 1 } else { suff1[idx - 1] };
            }
            prefp_of.push(prefp);
        }
        let r2n: Vec<R2Node> = (0..n)
            .map(|v| R2Node {
                r,
                rp,
                rb: rb_of_block[block_of[v]],
                a2: a2[v],
                b1: b1[v],
                ph: ph[v],
            })
            .collect();
        // Outer-edge commitments.
        let mut r2e: Vec<Option<R2Edge>> = vec![None; g.m()];
        for e in 0..g.m() {
            if let Some(R1Edge::Outer { index }) = r1e[e] {
                let (t, h) = (self.tail(e), self.head(e));
                let (bt, bh) = (block_of[t], block_of[h]);
                let it = (index - 1).min(self.block_cap(bt));
                let ih = (index - 1).min(self.block_cap(bh));
                let jt = prefp_of[bt][it];
                let jh = prefp_of[bh][ih];
                // Honest: jt == jh (common prefix). Cheats commit the value
                // that passes the tail block's check.
                let j = match cheat {
                    Some(LrCheat::OuterForgedIndex) | Some(LrCheat::OuterTrueIndex) => jt,
                    _ => jh,
                };
                r2e[e] = Some(j);
            }
        }
        (r2n, r2e)
    }

    /// Honest round-3 labels: two multiset equalities per block.
    fn round3(
        &self,
        r1n: &[R1Node],
        r1e: &[Option<R1Edge>],
        r2n: &[R2Node],
        r2e: &[Option<R2Edge>],
        coins: &[LrCoins],
        rec: &dyn Recorder,
    ) -> Vec<R3Node> {
        let g = self.g();
        let n = g.n();
        let ms = MultisetEq::new(self.field_pp);
        let (_block_of, nblocks) = self.honest_blocks();
        let mut out =
            vec![
                R3Node { eq1: MsMsg { z: 0, a1: 0, a2: 0 }, eq0: MsMsg { z: 0, a1: 0, a2: 0 } };
                n
            ];
        // Arena buffers reused across blocks: the four per-node multisets
        // live in flat value arrays with per-node offset tables (node i of
        // the block owns flat[off[i]..off[i+1]]), so the inner loop does no
        // per-node allocation.
        let mut parent: Vec<Option<usize>> = Vec::new();
        let mut flats: [Vec<u64>; 4] = Default::default();
        let mut offs: [Vec<usize>; 4] = Default::default();
        for b in 0..nblocks {
            let size = self.block_size(b);
            let start = self.block_start(b);
            let headv = self.inst.path[start];
            let (z1, z0) = (coins[headv].z1, coins[headv].z0);
            parent.clear();
            parent.extend((0..size).map(|i| if i == 0 { None } else { Some(i - 1) }));
            for k in 0..4 {
                flats[k].clear();
                offs[k].clear();
                offs[k].push(0);
            }
            {
                let [c1, c0, d1, d0] = &mut flats;
                let [c1o, c0o, d1o, d0o] = &mut offs;
                for i in 0..size {
                    let v = self.inst.path[start + i];
                    self.c_sides_into(v, r1e, r2e, c1, c0);
                    self.d_side_into(v, true, r1n, r2n, d1);
                    self.d_side_into(v, false, r1n, r2n, d0);
                    c1o.push(c1.len());
                    c0o.push(c0.len());
                    d1o.push(d1.len());
                    d0o.push(d0.len());
                }
            }
            let [c1, c0, d1, d0] = &flats;
            let [c1o, c0o, d1o, d0o] = &offs;
            let msgs1 = ms.honest_response_traced(
                &parent,
                |i| &c1[c1o[i]..c1o[i + 1]],
                |i| &d1[d1o[i]..d1o[i + 1]],
                z1,
                rec,
            );
            let msgs0 = ms.honest_response_traced(
                &parent,
                |i| &c0[c0o[i]..c0o[i + 1]],
                |i| &d0[d0o[i]..d0o[i + 1]],
                z0,
                rec,
            );
            for i in 0..size {
                let v = self.inst.path[start + i];
                out[v] = R3Node { eq1: msgs1[i], eq0: msgs0[i] };
            }
        }
        out
    }

    /// Encodes a pair `(index, j)` as a field element of 𝔽_{p'}.
    fn encode_pair(&self, index: usize, j: u64) -> u64 {
        (index as u64 - 1) * self.field_p.modulus() + j
    }

    /// The C-side multiset of node `v`: the *set* of pairs on its incident
    /// outer edges where `v` is the head (`head_side = true`) or the tail.
    /// Node-local: reads only `v`'s incident edge labels.
    /// The C-side multiset appended to a caller-owned buffer: the new
    /// tail of `out` holds the sorted distinct pairs (the same ascending
    /// order the set-based construction produced), with no allocation when
    /// `out` has capacity.
    #[cfg_attr(not(test), allow(dead_code))] // scalar reference for the differential test
    fn c_side_into(
        &self,
        v: NodeId,
        head_side: bool,
        r1e: &[Option<R1Edge>],
        r2e: &[Option<R2Edge>],
        out: &mut Vec<u64>,
    ) {
        let g = self.g();
        let start = out.len();
        for e in g.incident_edges(v) {
            if let Some(R1Edge::Outer { index }) = r1e[e] {
                let mine = (self.head(e) == v) == head_side;
                if mine {
                    if let Some(j) = r2e[e] {
                        out.push(self.encode_pair(index.max(1), j));
                    }
                }
            }
        }
        sort_dedup_tail(out, start);
    }

    /// Both C-side multisets of `v` in a single incidence scan: head-side
    /// pairs append to `out_head`, tail-side pairs to `out_tail`, then each
    /// fresh tail is sorted + deduped — the same result as one
    /// [`LrSorting::c_side_into`] call per side at half the scan cost.
    fn c_sides_into(
        &self,
        v: NodeId,
        r1e: &[Option<R1Edge>],
        r2e: &[Option<R2Edge>],
        out_head: &mut Vec<u64>,
        out_tail: &mut Vec<u64>,
    ) {
        let g = self.g();
        let start_h = out_head.len();
        let start_t = out_tail.len();
        for e in g.incident_edges(v) {
            if let Some(R1Edge::Outer { index }) = r1e[e] {
                if let Some(j) = r2e[e] {
                    let out = if self.head(e) == v { &mut *out_head } else { &mut *out_tail };
                    out.push(self.encode_pair(index.max(1), j));
                }
            }
        }
        sort_dedup_tail(out_head, start_h);
        sort_dedup_tail(out_tail, start_t);
    }

    /// The D-side multiset of node `v`: `m1` (or `m0`) copies of
    /// `(idx, φ_{idx−1}(r'))`, where the prefix value is read from the left
    /// block-neighbor's round-2 label. Node-local.
    fn d_side_into(
        &self,
        v: NodeId,
        one_side: bool,
        r1n: &[R1Node],
        r2n: &[R2Node],
        out: &mut Vec<u64>,
    ) {
        let me = r1n[v];
        // Bit capacity is min(L, block size); it is below the index only
        // when idx > L (blocks smaller than L exist only in the single-
        // block case, where every index fits).
        if me.idx > self.block_len {
            return;
        }
        if one_side != me.x1_bit {
            return;
        }
        let mult = if one_side { me.m1 } else { me.m0 };
        if mult == 0 {
            return;
        }
        let prev_ph = if me.idx == 1 {
            1
        } else {
            match self.left_path[v] {
                Some(u) => r2n[u].ph,
                None => 1,
            }
        };
        let enc = self.encode_pair(me.idx, prev_ph);
        let new_len = out.len() + mult as usize;
        out.resize(new_len, enc);
    }

    /// Runs the whole protocol and decides, with prover-round and decide
    /// spans plus per-round bit counters (span name `"lr-sorting"`)
    /// emitted to `rec`. Identical RNG call order and result — `rec` is
    /// observe-only.
    pub fn run(&self, cheat: Option<LrCheat>, seed: u64, rec: &dyn Recorder) -> RunResult {
        let mut rng = SmallRng::seed_from_u64(seed);
        // V-rounds: all nodes draw all coins (public coin model).
        let coins = {
            let _c = span(rec, 0, SpanId::new("lr-sorting/coins"));
            let _w = Stopwatch::start(rec, "round/lr-coins");
            self.draw_coins(&mut rng)
        };
        let t = self.prove(cheat, &coins, rec);
        let stats = {
            let _w = Stopwatch::start(rec, "round/transcript");
            self.emit_captured(&coins, &t);
            self.stats(&t)
        };
        let res = {
            let _d = span(rec, 0, SpanId::new("lr-sorting/decide"));
            let _w = Stopwatch::start(rec, "round/lr-decide");
            self.verify_given_stats(&t, &coins, stats)
        };
        res.traced(rec, "lr-sorting")
    }

    /// Verifier rounds V1/V2: every node draws its public coins. The RNG
    /// call order is exactly the one [`LrSorting::run`] uses, so
    /// replaying a stored seed reproduces the run's coins.
    pub fn draw_coins(&self, rng: &mut SmallRng) -> Vec<LrCoins> {
        (0..self.g().n())
            .map(|_| LrCoins {
                r: rng.gen_range(0..self.field_p.modulus()),
                rp: rng.gen_range(0..self.field_p.modulus()),
                rb: rng.gen_range(0..self.field_p.modulus()),
                z1: rng.gen_range(0..self.field_pp.modulus()),
                z0: rng.gen_range(0..self.field_pp.modulus()),
            })
            .collect()
    }

    /// Prover rounds P1–P3 under the given coins (honest, or applying a
    /// cheat). Pure in `(self, cheat, coins)` — the prover side draws no
    /// randomness of its own; `rec` is observe-only.
    pub fn prove(
        &self,
        cheat: Option<LrCheat>,
        coins: &[LrCoins],
        rec: &dyn Recorder,
    ) -> LrTranscript {
        let s1 = span(rec, 0, SpanId::at("lr-sorting/prover-round", 1));
        let w1 = Stopwatch::start(rec, "round/lr-labels");
        let (r1n, r1e) = self.round1(cheat);
        drop(w1);
        drop(s1);
        let s2 = span(rec, 0, SpanId::at("lr-sorting/prover-round", 2));
        let w2 = Stopwatch::start(rec, "round/lr-commit");
        let (r2n, r2e) = self.round2(&r1n, &r1e, coins, cheat);
        drop(w2);
        drop(s2);
        let s3 = span(rec, 0, SpanId::at("lr-sorting/prover-round", 3));
        let w3 = Stopwatch::start(rec, "round/lr-msets");
        let r3n = self.round3(&r1n, &r1e, &r2n, &r2e, coins, rec);
        drop(w3);
        drop(s3);
        LrTranscript { r1_node: r1n, r1_edge: r1e, r2_node: r2n, r2_edge: r2e, r3_node: r3n }
    }

    /// Stored-label verification: decides from a transcript and coins
    /// alone, with **no prover in the loop**. This is the replay-verify
    /// core used by `pdip verify` on LR-level transcripts: the decision
    /// functions read only per-node labels, neighbor labels, and the
    /// node's own coins. Transcripts whose vector arity does not match
    /// the graph are rejected as malformed up front.
    pub fn verify_transcript(&self, t: &LrTranscript, coins: &[LrCoins]) -> RunResult {
        if !self.arity_ok(t, coins) {
            let mut rej = Rejections::new();
            rej.reject_malformed(0, "lr: truncated transcript");
            return rej.into_result(SizeStats { rounds: 5, ..Default::default() });
        }
        let stats = self.stats(t);
        self.verify_given_stats(t, coins, stats)
    }

    fn arity_ok(&self, t: &LrTranscript, coins: &[LrCoins]) -> bool {
        let (n, m) = (self.g().n(), self.g().m());
        t.r1_node.len() == n
            && t.r2_node.len() == n
            && t.r3_node.len() == n
            && t.r1_edge.len() == m
            && t.r2_edge.len() == m
            && coins.len() == n
    }

    /// The per-node decision sweep with externally supplied size stats
    /// (the chaos harness reports the honest pre-tamper stats).
    fn verify_given_stats(
        &self,
        t: &LrTranscript,
        coins: &[LrCoins],
        stats: SizeStats,
    ) -> RunResult {
        let mut rej = Rejections::new();
        if !self.arity_ok(t, coins) {
            rej.reject_malformed(0, "lr: truncated transcript");
            return rej.into_result(stats);
        }
        let mut scratch = DecideScratch::default();
        for v in 0..self.g().n() {
            self.decide(v, t, coins, &mut rej, &mut scratch);
        }
        rej.into_result(stats)
    }

    /// Emits the coins and the three prover rounds into the active
    /// transcript-capture scope, if any (see [`pdip_core::capture`]).
    /// Observe-only: no RNG, no effect on the run.
    fn emit_captured(&self, coins: &[LrCoins], t: &LrTranscript) {
        if !capture::is_capturing() {
            return;
        }
        capture::emit("lr/coins", |s| {
            for c in coins {
                s.put_u64(c.r);
                s.put_u64(c.rp);
                s.put_u64(c.rb);
                s.put_u64(c.z1);
                s.put_u64(c.z0);
            }
        });
        capture::emit("lr/round1", |s| {
            for l in &t.r1_node {
                s.put_usize(l.idx);
                s.put_bool(l.x1_bit);
                s.put_bool(l.x2_bit);
                s.put_u8(match l.mark {
                    ConsecMark::Left => 0,
                    ConsecMark::Pivot => 1,
                    ConsecMark::Right => 2,
                });
                s.put_u64(l.m0);
                s.put_u64(l.m1);
            }
            for l in &t.r1_edge {
                match l {
                    None => s.put_u8(0),
                    Some(R1Edge::Inner) => s.put_u8(1),
                    Some(R1Edge::Outer { index }) => {
                        s.put_u8(2);
                        s.put_usize(*index);
                    }
                }
            }
        });
        capture::emit("lr/round2", |s| {
            for l in &t.r2_node {
                s.put_u64(l.r);
                s.put_u64(l.rp);
                s.put_u64(l.rb);
                s.put_u64(l.a2);
                s.put_u64(l.b1);
                s.put_u64(l.ph);
            }
            for l in &t.r2_edge {
                s.put_bool(l.is_some());
                s.put_u64(l.unwrap_or(0));
            }
        });
        capture::emit("lr/round3", |s| {
            for l in &t.r3_node {
                for m in [l.eq1, l.eq0] {
                    s.put_u64(m.z);
                    s.put_u64(m.a1);
                    s.put_u64(m.a2);
                }
            }
        });
    }

    /// Runs the honest prover rounds, lets `tamper` corrupt the finished
    /// transcript and/or the verifier coins (a stale-coin replay overwrites
    /// the coins the nodes check against), then runs the per-node decision
    /// on the corrupted state. An identity `tamper` reproduces the honest
    /// verdict bit-for-bit; this is the chaos harness's entry point (E9).
    ///
    /// Transcript vectors whose arity no longer matches the graph are
    /// rejected as malformed up front — the decision functions assume
    /// well-arity transcripts.
    pub fn run_tampered(
        &self,
        seed: u64,
        tamper: impl FnOnce(&mut LrTranscript, &mut [LrCoins]),
    ) -> RunResult {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut coins = self.draw_coins(&mut rng);
        let mut t = self.prove(None, &coins, &NoopRecorder);
        let stats = self.stats(&t);
        tamper(&mut t, &mut coins);
        self.verify_given_stats(&t, &coins, stats)
    }

    /// Size accounting for the honest transcript.
    fn stats(&self, t: &LrTranscript) -> SizeStats {
        let g = self.g();
        let l = self.block_len;
        let pb = self.field_p.element_bits();
        let ppb = self.field_pp.element_bits();
        let r1_node_bits = bits_for_max(2 * l) + 2 + 2 + 2 * bits_for_max(2 * l);
        let r1_edge_bits = 1 + bits_for_max(l);
        let r2_node_bits = 6 * pb;
        let r2_edge_bits = pb;
        let r3_node_bits = 6 * ppb;
        let (max1, max2) = match self.transport {
            Transport::Native => (r1_node_bits.max(r1_edge_bits), r2_node_bits.max(r2_edge_bits)),
            Transport::Simulated => {
                // Edge labels fold into the accountable endpoints' labels:
                // count the real per-node burden through the carrier.
                let values1: Vec<Option<R1Edge>> = t.r1_edge.clone();
                let carrier = EdgeLabelCarrier::assign(g, &values1);
                let per_edge1 = 1 + r1_edge_bits;
                let per_edge2 = 1 + r2_edge_bits;
                let code_and_slots =
                    carrier.max_bits(g, |v| if v.is_some() { per_edge1 + per_edge2 } else { 2 });
                (r1_node_bits + code_and_slots, r2_node_bits)
            }
        };
        SizeStats {
            per_round_max_bits: vec![max1, max2, r3_node_bits],
            per_round_total_bits: vec![max1 * g.n(), max2 * g.n(), r3_node_bits * g.n()],
            coin_bits: g.n() * (3 * pb + 2 * ppb),
            rounds: 5,
        }
    }

    /// The verifier decision at node `v` (node-local information only).
    /// `scratch` holds the per-node working buffers; the sweep in
    /// [`LrSorting::verify_given_stats`] reuses one scratch across all
    /// nodes so warm iterations allocate nothing.
    fn decide(
        &self,
        v: NodeId,
        t: &LrTranscript,
        coins: &[LrCoins],
        rej: &mut Rejections,
        scratch: &mut DecideScratch,
    ) {
        let g = self.g();
        let l = self.block_len;
        let fp = self.field_p;
        let me1 = t.r1_node[v];
        let me2 = t.r2_node[v];
        let left = self.left_path[v];
        let right = self.right_path[v];
        // --- S: structural checks on the block construction ---
        if me1.idx == 0 || me1.idx > 2 * l.max(1) {
            rej.reject(v, "lr: index out of range");
            return;
        }
        if left.is_none() && me1.idx != 1 {
            rej.reject(v, "lr: path head must start block 1");
            return;
        }
        if let Some(u) = right {
            let next = t.r1_node[u].idx;
            let ok = next == me1.idx + 1 || (me1.idx >= l && next == 1);
            rej.check(v, ok, || "lr: successor index breaks block structure".into());
        }
        // Consecutiveness marks (only bit-holding nodes).
        let in_cap = me1.idx <= l && me1.idx <= self.block_len; // idx <= L
        if in_cap {
            let same_block_right = right.filter(|&u| t.r1_node[u].idx != 1);
            let same_block_left = left.filter(|_| me1.idx != 1);
            match me1.mark {
                ConsecMark::Right => {
                    rej.check(v, me1.x1_bit && !me1.x2_bit, || {
                        "lr: right-of-pivot bits must be 1/0".into()
                    });
                    if let Some(u) = same_block_right {
                        if t.r1_node[u].idx <= l {
                            rej.check(v, t.r1_node[u].mark == ConsecMark::Right, || {
                                "lr: right-of-pivot must extend right".into()
                            });
                        }
                    }
                }
                ConsecMark::Pivot => {
                    rej.check(v, !me1.x1_bit && me1.x2_bit, || "lr: pivot bits must be 0/1".into());
                    if let Some(u) = same_block_right {
                        if t.r1_node[u].idx <= l {
                            rej.check(v, t.r1_node[u].mark == ConsecMark::Right, || {
                                "lr: right of pivot must be marked right".into()
                            });
                        }
                    }
                    if let Some(u) = same_block_left {
                        rej.check(v, t.r1_node[u].mark == ConsecMark::Left, || {
                            "lr: left of pivot must be marked left".into()
                        });
                    }
                }
                ConsecMark::Left => {
                    rej.check(v, me1.x1_bit == me1.x2_bit, || {
                        "lr: left-of-pivot bits must agree".into()
                    });
                    if let Some(u) = same_block_left {
                        rej.check(v, t.r1_node[u].mark == ConsecMark::Left, || {
                            "lr: left-of-pivot must extend left".into()
                        });
                    }
                }
            }
        }
        // --- R2 echoes and cumulatives ---
        if me2.r >= fp.modulus() || me2.rp >= fp.modulus() || me2.rb >= fp.modulus() {
            rej.reject(v, "lr: r2 values not reduced");
            return;
        }
        if left.is_none() {
            rej.check(v, me2.r == coins[v].r && me2.rp == coins[v].rp, || {
                "lr: path head challenge ignored".into()
            });
        }
        if let Some(u) = left {
            rej.check(v, t.r2_node[u].r == me2.r && t.r2_node[u].rp == me2.rp, || {
                "lr: global challenge echo differs along path".into()
            });
        }
        if me1.idx == 1 {
            rej.check(v, me2.rb == coins[v].rb, || "lr: block head r_b ignored".into());
        } else if let Some(u) = left {
            rej.check(v, t.r2_node[u].rb == me2.rb, || "lr: r_b differs within block".into());
        }
        // Cumulative A2 (left-to-right over x2 bits).
        let fac2 = if in_cap && me1.x2_bit { fp.sub(me1.idx as u64, me2.r) } else { 1 };
        let a2_prev = if me1.idx == 1 { 1 } else { left.map(|u| t.r2_node[u].a2).unwrap_or(1) };
        rej.check(v, me2.a2 == fp.mul(a2_prev, fac2), || "lr: A2 cumulative broken".into());
        // Cumulative PH (left-to-right over x1 bits at r').
        let facp = if in_cap && me1.x1_bit { fp.sub(me1.idx as u64, me2.rp) } else { 1 };
        let ph_prev = if me1.idx == 1 { 1 } else { left.map(|u| t.r2_node[u].ph).unwrap_or(1) };
        rej.check(v, me2.ph == fp.mul(ph_prev, facp), || "lr: PH cumulative broken".into());
        // Cumulative B1 (right-to-left over x1 bits at r).
        let fac1 = if in_cap && me1.x1_bit { fp.sub(me1.idx as u64, me2.r) } else { 1 };
        let block_rightmost = match right {
            None => true,
            Some(u) => t.r1_node[u].idx == 1,
        };
        let b1_next = if block_rightmost { 1 } else { right.map(|u| t.r2_node[u].b1).unwrap_or(1) };
        rej.check(v, me2.b1 == fp.mul(b1_next, fac1), || "lr: B1 cumulative broken".into());
        // Block-adjacency equality: x2(b) == x1(b') at the boundary.
        if let Some(u) = right {
            if t.r1_node[u].idx == 1 {
                rej.check(v, me2.a2 == t.r2_node[u].b1, || {
                    "lr: adjacent blocks are not consecutive".into()
                });
            }
        }
        // --- E: per-edge checks ---
        // Index→commitment maps as sorted scratch vectors: iteration and
        // first-insert-wins semantics match the former BTreeMaps, without
        // the per-node tree allocations. The C-side multisets (needed by
        // the V checks below) read the same Outer labels, so they build
        // during this same scan — every Outer edge with a commitment
        // contributes its pair, path edges included, exactly as the
        // standalone C-side scan did — and get set semantics from the
        // sort + dedup after the loop.
        let DecideScratch { head_pairs, tail_pairs, s1_head, s1_tail, d_head, d_tail } = scratch;
        head_pairs.clear();
        tail_pairs.clear();
        s1_head.clear();
        s1_tail.clear();
        d_head.clear();
        d_tail.clear();
        for e in g.incident_edges(v) {
            let i_am_head = self.head(e) == v;
            if self.is_path_edge[e] {
                // Path edges skip the E checks, but a (malformed) Outer
                // label on one still lands in the C-side multiset.
                if let Some(R1Edge::Outer { index }) = t.r1_edge[e] {
                    if let Some(j) = t.r2_edge[e] {
                        let c = if i_am_head { &mut *s1_head } else { &mut *s1_tail };
                        c.push(self.encode_pair(index.max(1), j));
                    }
                }
                continue;
            }
            let Some(lbl) = t.r1_edge[e] else {
                rej.reject(v, "lr: unlabeled non-path edge");
                return;
            };
            let u = g.edge(e).other(v);
            match lbl {
                R1Edge::Inner => {
                    // Same r_b and index order.
                    rej.check(v, t.r2_node[u].rb == me2.rb, || {
                        "lr: inner edge spans blocks (r_b mismatch)".into()
                    });
                    let (ti, hi) = if i_am_head {
                        (t.r1_node[u].idx, me1.idx)
                    } else {
                        (me1.idx, t.r1_node[u].idx)
                    };
                    rej.check(v, ti < hi, || "lr: inner edge directed right-to-left".into());
                }
                R1Edge::Outer { index } => {
                    rej.check(v, index >= 1 && index <= l, || "lr: index out of range".into());
                    let Some(j) = t.r2_edge[e] else {
                        rej.reject(v, "lr: outer edge without commitment");
                        return;
                    };
                    rej.check(v, j < fp.modulus(), || "lr: commitment not reduced".into());
                    let side = if i_am_head { &mut *head_pairs } else { &mut *tail_pairs };
                    match side.binary_search_by_key(&index, |&(i, _)| i) {
                        Err(slot) => side.insert(slot, (index, j)),
                        Ok(slot) => {
                            rej.check(v, side[slot].1 == j, || {
                                "lr: same index committed to two prefixes".into()
                            });
                        }
                    }
                    let c = if i_am_head { &mut *s1_head } else { &mut *s1_tail };
                    c.push(self.encode_pair(index.max(1), j));
                }
            }
        }
        sort_dedup_tail(s1_head, 0);
        sort_dedup_tail(s1_tail, 0);
        for (i, _) in head_pairs.iter() {
            rej.check(v, tail_pairs.binary_search_by_key(i, |&(i, _)| i).is_err(), || {
                "lr: index claims bit 1 and bit 0 simultaneously".into()
            });
        }
        // --- V: verification-scheme multiset equalities within the block ---
        let ms = MultisetEq::new(self.field_pp);
        let parent_local = if me1.idx == 1 { None } else { left };
        let child_local = right.filter(|&u| t.r1_node[u].idx != 1);
        // Build segment-local message views: we reuse MultisetEq::check by
        // passing messages indexed 0 = me, 1 = parent, 2 = child — at most
        // three, so they live on the stack.
        let zero = MsMsg { z: 0, a1: 0, a2: 0 };
        let mut msgs1 = [t.r3_node[v].eq1, zero, zero];
        let mut msgs0 = [t.r3_node[v].eq0, zero, zero];
        let mut len = 1;
        let parent_idx = parent_local.map(|u| {
            msgs1[len] = t.r3_node[u].eq1;
            msgs0[len] = t.r3_node[u].eq0;
            len += 1;
            len - 1
        });
        let child_idx = child_local.map(|u| {
            msgs1[len] = t.r3_node[u].eq1;
            msgs0[len] = t.r3_node[u].eq0;
            len += 1;
            len - 1
        });
        let children: &[usize] = match child_idx {
            Some(ref i) => std::slice::from_ref(i),
            None => &[],
        };
        self.d_side_checked_into(v, true, t, d_head);
        self.d_side_checked_into(v, false, t, d_tail);
        let root_z1 = if me1.idx == 1 { Some(coins[v].z1) } else { None };
        let root_z0 = if me1.idx == 1 { Some(coins[v].z0) } else { None };
        let m1 = &msgs1[..len];
        let m0 = &msgs0[..len];
        ms.check(v, 0, parent_idx, children, s1_head, d_head, m1, root_z1, rej);
        ms.check(v, 0, parent_idx, children, s1_tail, d_tail, m0, root_z0, rej);
    }

    /// D-side multiset as the verifier reconstructs it locally: uses the
    /// node's own idx / bit / multiplicity and the left neighbor's `ph`.
    /// Appends to a caller-owned buffer (no allocation when warm).
    fn d_side_checked_into(&self, v: NodeId, one_side: bool, t: &LrTranscript, out: &mut Vec<u64>) {
        let me = t.r1_node[v];
        if me.idx > self.block_len {
            return;
        }
        if one_side != me.x1_bit {
            return;
        }
        let mult = if one_side { me.m1 } else { me.m0 };
        if mult == 0 || mult as usize > 2 * self.block_len + 1 {
            return;
        }
        let prev_ph = if me.idx == 1 {
            1
        } else {
            match self.left_path[v] {
                Some(u) => t.r2_node[u].ph,
                None => 1,
            }
        };
        if prev_ph >= self.field_p.modulus() {
            return;
        }
        let new_len = out.len() + mult as usize;
        out.resize(new_len, self.encode_pair(me.idx, prev_ph));
    }

    /// Names of the cheat strategies in [`LR_CHEATS`] order.
    pub fn cheat_names() -> Vec<String> {
        vec![
            "claim-inner".into(),
            "outer-true-index".into(),
            "outer-forged-index".into(),
            "swap-block-positions".into(),
        ]
    }
}

/// Sorts and dedups `out[start..]` in place (set semantics for a multiset
/// tail freshly appended to a shared arena buffer).
fn sort_dedup_tail(out: &mut Vec<u64>, start: usize) {
    out[start..].sort_unstable();
    let mut w = start;
    for r in start..out.len() {
        if r == start || out[r] != out[w - 1] {
            out[w] = out[r];
            w += 1;
        }
    }
    out.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdip_graph::gen::lr::{random_lr_no, random_lr_yes};

    fn yes_accepts(
        n: usize,
        extra: usize,
        planar: bool,
        transport: Transport,
        seed: u64,
    ) -> RunResult {
        let mut rng = SmallRng::seed_from_u64(seed);
        let inst = random_lr_yes(n, extra, planar, &mut rng);
        let lr = LrSorting::new(&inst, LrParams::default(), transport);
        lr.run(None, seed.wrapping_mul(31).wrapping_add(7), &NoopRecorder)
    }

    #[test]
    fn perfect_completeness_native() {
        for n in [2usize, 3, 7, 16, 33, 100, 257] {
            for seed in 0..5 {
                let res = yes_accepts(n, n / 2, false, Transport::Native, seed);
                assert!(res.accepted(), "n={n} seed={seed}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn perfect_completeness_planar() {
        for n in [2usize, 5, 20, 64, 150] {
            for seed in 0..5 {
                let res = yes_accepts(n, n / 2, true, Transport::Simulated, seed);
                assert!(res.accepted(), "n={n} seed={seed}: {:?}", res.rejections.first());
            }
        }
    }

    #[test]
    fn proof_size_is_loglog() {
        for n in [1usize << 8, 1 << 12, 1 << 14] {
            let res = yes_accepts(n, n / 4, true, Transport::Native, 42);
            let loglog = ((n as f64).log2()).log2();
            let size = res.stats.proof_size() as f64;
            assert!(size <= 40.0 * loglog, "n={n}: proof size {size} vs loglog {loglog}");
        }
    }

    #[test]
    fn all_cheats_mostly_rejected() {
        let trials = 60;
        for (ci, cheat) in LR_CHEATS.iter().enumerate() {
            let mut accepted = 0;
            let mut ran = 0;
            for seed in 0..trials {
                let mut rng = SmallRng::seed_from_u64(1000 + seed);
                let Some(inst) = random_lr_no(60, 30, true, 1, &mut rng) else { continue };
                let lr = LrSorting::new(&inst, LrParams::default(), Transport::Native);
                ran += 1;
                if lr.run(Some(*cheat), seed, &NoopRecorder).accepted() {
                    accepted += 1;
                }
            }
            assert!(ran > trials / 2);
            assert!((accepted as f64) < 0.2 * ran as f64, "cheat {ci}: accepted {accepted}/{ran}");
        }
    }

    #[test]
    fn rounds_are_five() {
        let mut rng = SmallRng::seed_from_u64(7);
        let inst = random_lr_yes(20, 5, true, &mut rng);
        let lr = LrSorting::new(&inst, LrParams::default(), Transport::Native);
        assert_eq!(lr.rounds(), 5);
        let res = lr.run(None, 3, &NoopRecorder);
        assert_eq!(res.stats.rounds, 5);
        assert_eq!(res.stats.per_round_max_bits.len(), 3); // three prover rounds
    }

    /// Bit-scan reference for the XOR-based distinguishing index: the
    /// first position (1-based, MSB first over `cap` bits) where the two
    /// words differ.
    fn scan_index(pt: usize, ph: usize, cap: usize) -> usize {
        let bit = |x: usize, i: usize| {
            let shift = cap - i;
            shift < usize::BITS as usize && (x >> shift) & 1 == 1
        };
        (1..=cap).find(|&i| bit(pt, i) != bit(ph, i)).unwrap_or(1)
    }

    #[test]
    fn xor_distinguishing_index_matches_bit_scan() {
        let mut rng = SmallRng::seed_from_u64(77);
        for cap in [1usize, 2, 7, 17, 31, 60] {
            for _ in 0..200 {
                let bound = 1usize << cap.min(60);
                let (pt, ph) = (rng.gen_range(0..bound), rng.gen_range(0..bound));
                let mask = if cap >= 64 { u64::MAX } else { (1u64 << cap) - 1 };
                let diff = (pt as u64 ^ ph as u64) & mask;
                let fast = if diff != 0 { cap - (63 - diff.leading_zeros() as usize) } else { 1 };
                assert_eq!(fast, scan_index(pt, ph, cap), "pt={pt} ph={ph} cap={cap}");
            }
        }
    }

    /// Differential: the lane-batched commitment path (Montgomery
    /// `prefix_poly_evals` + `multiset_poly_eval` behind the round-2 `ph`
    /// values and the round-3 aggregates) against a scalar baseline built
    /// on `Fp::mul_naive`. A pipelining bug in the batch path would
    /// desynchronize the two transcripts.
    #[test]
    fn batched_commitments_match_scalar_baseline() {
        use pdip_field::multiset_poly_eval_naive;
        let mut rng = SmallRng::seed_from_u64(88);
        let inst = random_lr_yes(97, 40, true, &mut rng);
        let lr = LrSorting::new(&inst, LrParams::default(), Transport::Native);
        let mut run_rng = SmallRng::seed_from_u64(13);
        let coins = lr.draw_coins(&mut run_rng);
        let t = lr.prove(None, &coins, &pdip_obs::NoopRecorder);
        let fp = lr.field_p;
        let head = inst.path[0];
        let rp = coins[head].rp;
        // Scalar PH recomputation: left-to-right product of (idx - r')
        // over the x1 bits, restarting at each block head.
        let mut acc = 1u64;
        for &v in &inst.path {
            let l1 = t.r1_node[v];
            if l1.idx == 1 {
                acc = 1;
            }
            if l1.idx <= lr.block_len && l1.x1_bit {
                acc = fp.mul_naive(acc, fp.sub(l1.idx as u64, rp));
            }
            assert_eq!(t.r2_node[v].ph, acc, "ph at node {v}");
        }
        // Scalar round-3 recomputation: each node's aggregate must equal
        // the naive product of its own multiset evaluation and its
        // children's aggregates.
        let fpp = lr.field_pp;
        for (i, &v) in inst.path.iter().enumerate() {
            let child = inst.path.get(i + 1).copied().filter(|&u| t.r1_node[u].idx != 1);
            let mut s = Vec::new();
            lr.c_side_into(v, true, &t.r1_edge, &t.r2_edge, &mut s);
            let mut e1 = multiset_poly_eval_naive(&fpp, s.iter().copied(), t.r3_node[v].eq1.z);
            let mut d = Vec::new();
            lr.d_side_into(v, true, &t.r1_node, &t.r2_node, &mut d);
            let mut e2 = multiset_poly_eval_naive(&fpp, d.iter().copied(), t.r3_node[v].eq1.z);
            if let Some(u) = child {
                e1 = fpp.mul_naive(e1, t.r3_node[u].eq1.a1);
                e2 = fpp.mul_naive(e2, t.r3_node[u].eq1.a2);
            }
            assert_eq!(t.r3_node[v].eq1.a1, e1, "eq1.a1 at node {v}");
            assert_eq!(t.r3_node[v].eq1.a2, e2, "eq1.a2 at node {v}");
        }
    }

    #[test]
    fn single_block_instances_work() {
        // n smaller than the block length: a single short block.
        for seed in 0..10 {
            let res = yes_accepts(3, 1, true, Transport::Native, seed);
            assert!(res.accepted(), "seed {seed}: {:?}", res.rejections.first());
        }
    }
}
