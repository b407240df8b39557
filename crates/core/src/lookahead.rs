//! The lookahead interaction-weight function.
//!
//! Mapping and routing decisions are driven by the weighted interaction
//! graph of paper §III-A: nodes are program qubits and the edge weight
//! between `u` and `v` is
//!
//! ```text
//! w(u, v) = Σ_{ℓ ≥ ℓc} e^{-|ℓc - ℓ|}
//! ```
//!
//! summed over the remaining DAG layers in which `u` and `v` share a
//! gate (multiqubit gates contribute to every operand pair). Gates far
//! in the future matter exponentially less.
//!
//! Two structures evaluate it:
//!
//! * [`InteractionWeights`] — the whole graph, built in one pass from
//!   per-gate layers; initial placement builds it at `ℓc = 0`, every
//!   gate at its [`CircuitDag::layer`];
//! * `LookaheadWindow` — the router's view while the frontier moves.
//!   It never rebuilds the graph. Per gate it keeps the *capped*
//!   relative layer `min(ℓ - ℓc, depth + 1)`; completions are batched
//!   and pushed through the DAG only when a SWAP is about to be scored
//!   (a compile that never routes pays nothing). A qubit whose gates
//!   completed or changed layer is marked dirty, and its partner list
//!   is recomputed only when the router asks for it, from a per-qubit
//!   gate index, stopping at the first gate past the window.
//!
//! Both accumulate each pair's contributions in gate order starting
//! from `0.0`, so a partner list from the window is bitwise-identical
//! to the same list in a freshly built [`InteractionWeights`] over the
//! remaining gates.

use crate::scheduler::GateOperands;
use na_circuit::{CircuitDag, GateId, Qubit};
use std::time::Instant;

/// A source of lookahead partner lists for SWAP scoring
/// ([`crate::routing::best_swap_for_gate`]).
pub trait PartnerWeights {
    /// Brings [`PartnerWeights::partners`] of `q` up to date. A no-op
    /// for a precomputed graph.
    fn refresh(&mut self, q: Qubit);

    /// Weighted partners of `q`, in ascending qubit order. Only valid
    /// after [`PartnerWeights::refresh`] of `q`.
    fn partners(&self, q: Qubit) -> &[(Qubit, f64)];
}

/// The weighted interaction graph over program qubits, built in one
/// pass (initial mapping builds it at `ℓc = 0`).
#[derive(Debug, Clone)]
pub struct InteractionWeights {
    /// Symmetric adjacency: `adj[q]` lists `(partner, weight)` pairs.
    adj: Vec<Vec<(Qubit, f64)>>,
}

impl InteractionWeights {
    /// Builds weights from per-gate relative layers.
    ///
    /// `gates` yields `(operands, relative_layer)` for every pending
    /// gate, in gate order; gates beyond `lookahead_depth` layers are
    /// ignored. Each pair's contributions are summed in gate order.
    pub fn from_layered_gates<'a, I>(num_qubits: u32, gates: I, lookahead_depth: usize) -> Self
    where
        I: IntoIterator<Item = (&'a [Qubit], usize)>,
    {
        // `(packed (u, v) pair, e^{-layer})` contributions in gate order.
        let mut contribs: Vec<(u64, f64)> = Vec::new();
        for (operands, layer) in gates {
            if layer > lookahead_depth {
                continue;
            }
            let w = (-(layer as f64)).exp();
            for i in 0..operands.len() {
                for j in (i + 1)..operands.len() {
                    let (u, v) = if operands[i] < operands[j] {
                        (operands[i], operands[j])
                    } else {
                        (operands[j], operands[i])
                    };
                    contribs.push(((u64::from(u.0) << 32) | u64::from(v.0), w));
                }
            }
        }
        // The stable sort keeps each pair's contributions in gate order.
        contribs.sort_by_key(|&(key, _)| key);
        let mut adj = vec![Vec::new(); num_qubits as usize];
        let mut i = 0;
        while i < contribs.len() {
            let key = contribs[i].0;
            let mut sum = 0.0f64;
            while i < contribs.len() && contribs[i].0 == key {
                sum += contribs[i].1;
                i += 1;
            }
            let u = Qubit((key >> 32) as u32);
            let v = Qubit(key as u32);
            adj[u.index()].push((v, sum));
            adj[v.index()].push((u, sum));
        }
        InteractionWeights { adj }
    }

    /// The weight between two qubits (0 if they never interact in the
    /// window).
    pub fn weight(&self, u: Qubit, v: Qubit) -> f64 {
        self.adj
            .get(u.index())
            .map(|l| {
                l.iter()
                    .find(|(q, _)| *q == v)
                    .map(|(_, w)| *w)
                    .unwrap_or(0.0)
            })
            .unwrap_or(0.0)
    }

    /// All weighted partners of `u`, in ascending qubit order.
    pub fn partners(&self, u: Qubit) -> &[(Qubit, f64)] {
        self.adj.get(u.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total interaction weight of `u` against a set of already-placed
    /// qubits (the placement-order key of the initial mapper).
    pub fn weight_to_mapped(&self, u: Qubit, is_mapped: impl Fn(Qubit) -> bool) -> f64 {
        self.partners(u)
            .iter()
            .filter(|(v, _)| is_mapped(*v))
            .map(|(_, w)| w)
            .sum()
    }

    /// The heaviest interacting pair, breaking ties toward smaller
    /// qubit indices; `None` if nothing interacts.
    pub fn heaviest_pair(&self) -> Option<(Qubit, Qubit)> {
        let mut best: Option<((Qubit, Qubit), f64)> = None;
        for (i, list) in self.adj.iter().enumerate() {
            let u = Qubit(i as u32);
            for &(v, w) in list {
                if u < v {
                    let better = match best {
                        None => true,
                        Some((_, bw)) => w > bw + 1e-15,
                    };
                    if better {
                        best = Some(((u, v), w));
                    }
                }
            }
        }
        best.map(|(p, _)| p)
    }

    /// Qubits with at least one weighted interaction, ascending order.
    pub fn active_qubits(&self) -> Vec<Qubit> {
        self.adj
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, _)| Qubit(i as u32))
            .collect()
    }
}

impl PartnerWeights for InteractionWeights {
    fn refresh(&mut self, _q: Qubit) {}

    fn partners(&self, q: Qubit) -> &[(Qubit, f64)] {
        InteractionWeights::partners(self, q)
    }
}

/// Reusable working memory of a [`LookaheadWindow`], carried across
/// compiles inside [`crate::PlacementScratch`] so small compiles do not
/// pay for reallocating it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LookaheadScratch {
    /// Per-qubit gate index (CSR): the gates of qubit `q`, ascending,
    /// are `qubit_gates[qubit_offsets[q]..qubit_offsets[q + 1]]`.
    qubit_offsets: Vec<u32>,
    qubit_gates: Vec<u32>,
    /// Per gate: `min(relative layer, cap)`; stale once executed.
    layer: Vec<u32>,
    /// Per gate: executed bit set.
    executed: Vec<u64>,
    /// Per gate: gates whose layer must be recomputed (bit set).
    worklist: Vec<u64>,
    /// Completed gates not yet pushed through the layers.
    pending: Vec<u32>,
    /// Per qubit: index into `qubit_gates` of its first gate that was
    /// not executed at the last refresh.
    cursor: Vec<u32>,
    /// Per qubit: partner list out of date.
    dirty: Vec<bool>,
    /// Per qubit: partner list as of its last refresh.
    partners: Vec<Vec<(Qubit, f64)>>,
    /// Dense per-partner accumulator of one refresh, all `0.0` between
    /// refreshes, plus the partners it touched.
    acc: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
}

#[inline]
fn bit(set: &[u64], i: usize) -> bool {
    set[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// The router's lookahead weights over a circuit being scheduled,
/// maintained incrementally as gates complete (see the module docs).
///
/// Invariants, for every unexecuted gate `g` once armed and with no
/// completions pending: `layer[g] = min(ℓ(g), cap)`, where `ℓ` is the
/// relative layer over unexecuted gates (`0` at the frontier, else
/// `1 + max` over unexecuted predecessors) and `cap = depth + 1`
/// (saturating at `u32::MAX`, beyond any layer a circuit reaches). The
/// cap is exact because `min(·, cap)` commutes with `max(preds) + 1`.
/// Every qubit that is not dirty holds the partner list a fresh build
/// over the remaining gates would give it.
pub(crate) struct LookaheadWindow<'a> {
    dag: &'a CircuitDag,
    operands: &'a GateOperands,
    num_qubits: usize,
    depth: usize,
    cap: u32,
    armed: bool,
    s: &'a mut LookaheadScratch,
    /// Time spent bringing partner lists up to date; `Some` only when
    /// the caller asked for timing.
    weights_ns: Option<u64>,
}

impl<'a> LookaheadWindow<'a> {
    /// A window over `dag` (with per-gate `operands`) at the frontier's
    /// start, looking `depth` layers ahead. With `timed`, refreshes are
    /// clocked into [`LookaheadWindow::weights_ns`].
    pub(crate) fn new(
        dag: &'a CircuitDag,
        operands: &'a GateOperands,
        num_qubits: u32,
        depth: usize,
        scratch: &'a mut LookaheadScratch,
        timed: bool,
    ) -> Self {
        scratch.pending.clear();
        LookaheadWindow {
            dag,
            operands,
            num_qubits: num_qubits as usize,
            depth,
            cap: depth.saturating_add(1).min(u32::MAX as usize) as u32,
            armed: false,
            s: scratch,
            weights_ns: timed.then_some(0),
        }
    }

    /// Records that `id` completed. Applied lazily, at the next
    /// [`PartnerWeights::refresh`].
    #[inline]
    pub(crate) fn complete(&mut self, id: GateId) {
        self.s.pending.push(id.index() as u32);
    }

    /// Nanoseconds spent in refreshes (0 unless built with `timed`).
    pub(crate) fn weights_ns(&self) -> u64 {
        self.weights_ns.unwrap_or(0)
    }

    /// First use: builds the per-qubit gate index and seeds every
    /// layer from [`CircuitDag::layer`], as if nothing had executed;
    /// the completions recorded so far are still pending.
    fn arm(&mut self) {
        let s = &mut *self.s;
        let (n, nq) = (self.dag.len(), self.num_qubits);
        s.qubit_offsets.clear();
        s.qubit_offsets.resize(nq + 1, 0);
        for g in 0..n {
            for q in self.operands.get(g) {
                s.qubit_offsets[q.index() + 1] += 1;
            }
        }
        for q in 0..nq {
            s.qubit_offsets[q + 1] += s.qubit_offsets[q];
        }
        s.qubit_gates.clear();
        s.qubit_gates.resize(s.qubit_offsets[nq] as usize, 0);
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.qubit_offsets[..nq]);
        for g in 0..n {
            for q in self.operands.get(g) {
                let slot = &mut s.cursor[q.index()];
                s.qubit_gates[*slot as usize] = g as u32;
                *slot += 1;
            }
        }
        s.cursor.copy_from_slice(&s.qubit_offsets[..nq]);

        let cap = self.cap as usize;
        s.layer.clear();
        s.layer
            .extend((0..n).map(|g| self.dag.layer(GateId(g)).min(cap) as u32));
        let words = n.div_ceil(64);
        s.executed.clear();
        s.executed.resize(words, 0);
        s.worklist.clear();
        s.worklist.resize(words, 0);

        s.dirty.clear();
        s.dirty.resize(nq, true);
        s.partners.resize_with(nq, Vec::new);
        s.acc.clear();
        s.acc.resize(nq, 0.0);
        s.seen.clear();
        s.seen.resize(nq, false);
        self.armed = true;
    }

    /// Pushes the pending completions through the capped layers in
    /// ascending gate order — successors always have larger ids, so a
    /// forward scan of the worklist sees every predecessor settled —
    /// and marks the operands of every completed or re-layered gate
    /// dirty.
    fn propagate(&mut self) {
        let s = &mut *self.s;
        let (dag, operands, cap) = (self.dag, self.operands, self.cap);
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &g in &s.pending {
            let g = g as usize;
            set_bit(&mut s.executed, g);
            for q in operands.get(g) {
                s.dirty[q.index()] = true;
            }
            for t in dag.succs(GateId(g)) {
                set_bit(&mut s.worklist, t.index());
                lo = lo.min(t.index() / 64);
                hi = hi.max(t.index() / 64 + 1);
            }
        }
        s.pending.clear();

        let mut w = lo;
        while w < hi {
            let bits = s.worklist[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            s.worklist[w] = bits & (bits - 1);
            let g = w * 64 + bits.trailing_zeros() as usize;
            if bit(&s.executed, g) {
                continue;
            }
            let layer = dag
                .preds(GateId(g))
                .iter()
                .filter(|p| !bit(&s.executed, p.index()))
                .map(|p| s.layer[p.index()].saturating_add(1))
                .max()
                .unwrap_or(0)
                .min(cap);
            if layer == s.layer[g] {
                continue;
            }
            // Layers only fall as gates execute, so a changed gate
            // lands inside the window.
            s.layer[g] = layer;
            for q in operands.get(g) {
                s.dirty[q.index()] = true;
            }
            for t in dag.succs(GateId(g)) {
                set_bit(&mut s.worklist, t.index());
                hi = hi.max(t.index() / 64 + 1);
            }
        }
    }

    /// Recomputes the partner list of `q` from its remaining gates in
    /// the window. Layers strictly increase along one qubit's gates,
    /// so the walk stops at the first gate past the window; each
    /// partner's contributions add up in gate order from `0.0`.
    fn rebuild_partners(&mut self, q: Qubit) {
        let s = &mut *self.s;
        let qi = q.index();
        let end = s.qubit_offsets[qi + 1] as usize;
        let mut k = s.cursor[qi] as usize;
        while k < end && bit(&s.executed, s.qubit_gates[k] as usize) {
            k += 1;
        }
        s.cursor[qi] = k as u32;
        s.touched.clear();
        for &g in &s.qubit_gates[k..end] {
            let layer = s.layer[g as usize];
            if layer as usize > self.depth {
                break;
            }
            let w = (-f64::from(layer)).exp();
            for &v in self.operands.get(g as usize) {
                if v == q {
                    continue;
                }
                let vi = v.index();
                if !s.seen[vi] {
                    s.seen[vi] = true;
                    s.touched.push(v.0);
                }
                s.acc[vi] += w;
            }
        }
        s.touched.sort_unstable();
        let list = &mut s.partners[qi];
        list.clear();
        for &v in &s.touched {
            let vi = v as usize;
            list.push((Qubit(v), s.acc[vi]));
            s.acc[vi] = 0.0;
            s.seen[vi] = false;
        }
        s.dirty[qi] = false;
    }
}

impl PartnerWeights for LookaheadWindow<'_> {
    #[inline]
    fn refresh(&mut self, q: Qubit) {
        if self.armed && self.s.pending.is_empty() && !self.s.dirty[q.index()] {
            return;
        }
        let start = self.weights_ns.map(|_| Instant::now());
        if !self.armed {
            self.arm();
        }
        if !self.s.pending.is_empty() {
            self.propagate();
        }
        if self.s.dirty[q.index()] {
            self.rebuild_partners(q);
        }
        if let (Some(ns), Some(t)) = (self.weights_ns.as_mut(), start) {
            *ns += t.elapsed().as_nanos() as u64;
        }
    }

    #[inline]
    fn partners(&self, q: Qubit) -> &[(Qubit, f64)] {
        debug_assert!(self.armed && !self.s.dirty[q.index()], "refresh first");
        &self.s.partners[q.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn weights_of(gates: &[(Vec<Qubit>, usize)]) -> InteractionWeights {
        let n = gates
            .iter()
            .flat_map(|(ops, _)| ops.iter())
            .map(|q| q.0 + 1)
            .max()
            .unwrap_or(0);
        InteractionWeights::from_layered_gates(
            n,
            gates.iter().map(|(ops, l)| (ops.as_slice(), *l)),
            20,
        )
    }

    #[test]
    fn single_gate_at_frontier_weighs_one() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0)]);
        assert!((w.weight(Qubit(0), Qubit(1)) - 1.0).abs() < 1e-12);
        assert!((w.weight(Qubit(1), Qubit(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_gates_decay_exponentially() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0), (vec![Qubit(0), Qubit(2)], 3)]);
        let near = w.weight(Qubit(0), Qubit(1));
        let far = w.weight(Qubit(0), Qubit(2));
        assert!((far - (-3.0f64).exp()).abs() < 1e-12);
        assert!(near > far);
    }

    #[test]
    fn repeated_interactions_accumulate() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0), (vec![Qubit(0), Qubit(1)], 1)]);
        let expected = 1.0 + (-1.0f64).exp();
        assert!((w.weight(Qubit(0), Qubit(1)) - expected).abs() < 1e-12);
    }

    #[test]
    fn multiqubit_gates_weight_all_pairs() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1), Qubit(2)], 0)]);
        for (u, v) in [(0, 1), (0, 2), (1, 2)] {
            assert!((w.weight(Qubit(u), Qubit(v)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lookahead_window_truncates() {
        let w =
            InteractionWeights::from_layered_gates(2, [(&[Qubit(0), Qubit(1)][..], 10usize)], 5);
        assert_eq!(w.weight(Qubit(0), Qubit(1)), 0.0);
        assert!(w.heaviest_pair().is_none());
    }

    #[test]
    fn heaviest_pair_picks_max() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 2), (vec![Qubit(2), Qubit(3)], 0)]);
        assert_eq!(w.heaviest_pair(), Some((Qubit(2), Qubit(3))));
    }

    #[test]
    fn weight_to_mapped_filters() {
        let w = weights_of(&[(vec![Qubit(0), Qubit(1)], 0), (vec![Qubit(0), Qubit(2)], 0)]);
        let only_q1 = w.weight_to_mapped(Qubit(0), |q| q == Qubit(1));
        assert!((only_q1 - 1.0).abs() < 1e-12);
        let both = w.weight_to_mapped(Qubit(0), |_| true);
        assert!((both - 2.0).abs() < 1e-12);
    }

    /// Random circuit of 1- to 4-operand gates (the scheduler's gate
    /// mix, native CNX included).
    fn arb_circuit(rng: &mut StdRng, max_qubits: u32, max_gates: usize) -> Circuit {
        let n = rng.gen_range(4..=max_qubits);
        let mut c = Circuit::new(n);
        for _ in 0..rng.gen_range(0..max_gates) {
            let mut ops: Vec<Qubit> = Vec::new();
            let arity = [1, 2, 2, 2, 3, 4][rng.gen_range(0..6usize)];
            while ops.len() < arity {
                let q = Qubit(rng.gen_range(0..n));
                if !ops.contains(&q) {
                    ops.push(q);
                }
            }
            match arity {
                1 => c.h(ops[0]),
                2 => c.cnot(ops[0], ops[1]),
                _ => c.cnx(ops[..arity - 1].to_vec(), ops[arity - 1]),
            };
        }
        c
    }

    /// From-scratch relative layers over the unexecuted gates.
    fn remaining_layers(dag: &CircuitDag, executed: &[bool]) -> Vec<Option<usize>> {
        let mut rel: Vec<Option<usize>> = vec![None; dag.len()];
        for i in 0..dag.len() {
            if !executed[i] {
                let l = dag.preds(GateId(i)).iter().filter_map(|p| rel[p.0]).max();
                rel[i] = Some(l.map_or(0, |l| l + 1));
            }
        }
        rel
    }

    /// Asserts the window's invariants against a from-scratch rebuild:
    /// capped layers of unexecuted gates, and every partner list bit
    /// for bit.
    fn assert_matches_scratch(
        window: &mut LookaheadWindow<'_>,
        circuit: &Circuit,
        operands: &GateOperands,
        executed: &[bool],
        depth: usize,
    ) {
        let dag = window.dag;
        let rel = remaining_layers(dag, executed);
        let fresh = InteractionWeights::from_layered_gates(
            circuit.num_qubits(),
            (0..operands.len()).filter_map(|i| rel[i].map(|l| (operands.get(i), l))),
            depth,
        );
        for u in 0..circuit.num_qubits() {
            window.refresh(Qubit(u));
            let got: Vec<(Qubit, u64)> = PartnerWeights::partners(window, Qubit(u))
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect();
            let want: Vec<(Qubit, u64)> = fresh
                .partners(Qubit(u))
                .iter()
                .map(|&(v, w)| (v, w.to_bits()))
                .collect();
            assert_eq!(got, want, "partners of q{u} at depth {depth}");
        }
        let cap = depth.saturating_add(1);
        for (i, l) in rel.iter().enumerate() {
            if let Some(l) = l {
                assert_eq!(window.s.layer[i] as usize, (*l).min(cap), "gate {i}");
            }
        }
    }

    #[test]
    fn incremental_layers_match_from_scratch_recompute() {
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        let mut scratch = LookaheadScratch::default();
        for case in 0..96 {
            let circuit = arb_circuit(&mut rng, 9, 80);
            let depth = [0, 1, 2, 3, 5, 20, usize::MAX][case % 7];
            let dag = circuit.dag();
            let operands = GateOperands::of(&circuit);
            let mut frontier = dag.frontier();
            let mut executed = vec![false; dag.len()];
            let mut window = LookaheadWindow::new(
                &dag,
                &operands,
                circuit.num_qubits(),
                depth,
                &mut scratch,
                false,
            );
            // Refresh before any completion on half the cases, so both
            // the arm-with-pending and the incremental paths run.
            if case % 2 == 0 {
                assert_matches_scratch(&mut window, &circuit, &operands, &executed, depth);
            }
            while !frontier.is_done() {
                // A random batch of ready gates per step, and several
                // steps per refresh: completions accumulate lazily.
                for _ in 0..rng.gen_range(1..=3) {
                    let ready = frontier.ready().to_vec();
                    for (k, id) in ready.into_iter().enumerate() {
                        if k == 0 || rng.gen_bool(0.5) {
                            frontier.complete(id);
                            window.complete(id);
                            executed[id.0] = true;
                        }
                    }
                    if frontier.is_done() {
                        break;
                    }
                }
                assert_matches_scratch(&mut window, &circuit, &operands, &executed, depth);
            }
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        // One scratch across compiles of different sizes: every window
        // starts from a clean state, whatever the last one left.
        let mut scratch = LookaheadScratch::default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let circuit = arb_circuit(&mut rng, 12, 40);
            let dag = circuit.dag();
            let operands = GateOperands::of(&circuit);
            let mut window = LookaheadWindow::new(
                &dag,
                &operands,
                circuit.num_qubits(),
                20,
                &mut scratch,
                true,
            );
            let executed = vec![false; dag.len()];
            assert_matches_scratch(&mut window, &circuit, &operands, &executed, 20);
        }
    }

    #[test]
    fn active_qubits_excludes_loners() {
        let w =
            InteractionWeights::from_layered_gates(4, [(&[Qubit(1), Qubit(3)][..], 0usize)], 20);
        assert_eq!(w.active_qubits(), vec![Qubit(1), Qubit(3)]);
    }
}
