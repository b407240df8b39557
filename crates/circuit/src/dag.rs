//! Data-dependency DAG and frontier traversal.
//!
//! The compiler consumes circuits through this view: gates are nodes,
//! and a gate depends on the previous gate touching each of its
//! operands. [`CircuitDag::layers`] gives the ASAP layering used by the
//! paper's lookahead weight `w(u,v) = Σ_{ℓ≥ℓc} e^{-|ℓc-ℓ|}`, and
//! [`Frontier`] is the mutable cursor the scheduler advances gate by
//! gate.

use crate::{Circuit, Qubit};
use std::collections::HashMap;

/// Index of a gate within its circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub usize);

impl GateId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The data-dependency DAG of a [`Circuit`].
///
/// # Example
///
/// ```
/// use na_circuit::{Circuit, Qubit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.h(Qubit(1));
/// c.cnot(Qubit(0), Qubit(1));
/// let dag = c.dag();
/// assert_eq!(dag.depth(), 2);            // both H's fit in layer 0
/// assert_eq!(dag.layers()[0].len(), 2);
/// assert_eq!(dag.layers()[1].len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    preds: Vec<Vec<GateId>>,
    succs: Vec<Vec<GateId>>,
    layer: Vec<usize>,
    layers: Vec<Vec<GateId>>,
}

impl CircuitDag {
    /// Builds the DAG for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<GateId>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<GateId>> = vec![Vec::new(); n];
        let mut layer: Vec<usize> = vec![0; n];
        let mut last_use: HashMap<Qubit, GateId> = HashMap::new();

        for (i, gate) in circuit.iter().enumerate() {
            let id = GateId(i);
            for q in gate.qubits() {
                if let Some(&prev) = last_use.get(&q) {
                    // A qubit can join two operands of the same gate to a
                    // single predecessor; dedupe below.
                    if !preds[i].contains(&prev) {
                        preds[i].push(prev);
                        succs[prev.0].push(id);
                    }
                }
                last_use.insert(q, id);
            }
            layer[i] = preds[i].iter().map(|p| layer[p.0] + 1).max().unwrap_or(0);
        }

        let depth = layer.iter().copied().max().map_or(0, |m| m + 1);
        let mut layers: Vec<Vec<GateId>> = vec![Vec::new(); depth];
        for (i, &l) in layer.iter().enumerate() {
            layers[l].push(GateId(i));
        }

        CircuitDag {
            preds,
            succs,
            layer,
            layers,
        }
    }

    /// Number of gates in the DAG.
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// `true` if the circuit had no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Direct predecessors of a gate.
    #[inline]
    pub fn preds(&self, id: GateId) -> &[GateId] {
        &self.preds[id.0]
    }

    /// Direct successors of a gate.
    #[inline]
    pub fn succs(&self, id: GateId) -> &[GateId] {
        &self.succs[id.0]
    }

    /// The ASAP layer of a gate (0-based from the circuit start).
    #[inline]
    pub fn layer(&self, id: GateId) -> usize {
        self.layer[id.0]
    }

    /// Gates grouped by ASAP layer.
    #[inline]
    pub fn layers(&self) -> &[Vec<GateId>] {
        &self.layers
    }

    /// Circuit depth (number of ASAP layers).
    #[inline]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Creates a fresh scheduling cursor over this DAG.
    pub fn frontier(&self) -> Frontier<'_> {
        let indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let ready: Vec<GateId> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| GateId(i))
            .collect();
        Frontier {
            dag: self,
            indegree,
            ready,
            executed: vec![false; self.len()],
            executed_count: 0,
        }
    }
}

/// A mutable cursor over a [`CircuitDag`] tracking which gates are ready.
///
/// The scheduler repeatedly inspects [`Frontier::ready`], picks a set of
/// gates to execute this timestep, and calls [`Frontier::complete`] for
/// each, which unlocks successors.
#[derive(Debug, Clone)]
pub struct Frontier<'a> {
    dag: &'a CircuitDag,
    indegree: Vec<usize>,
    ready: Vec<GateId>,
    executed: Vec<bool>,
    executed_count: usize,
}

impl<'a> Frontier<'a> {
    /// Gates whose dependencies are all satisfied, in ascending id order.
    pub fn ready(&self) -> &[GateId] {
        &self.ready
    }

    /// `true` once every gate has been completed.
    pub fn is_done(&self) -> bool {
        self.executed_count == self.dag.len()
    }

    /// Number of gates completed so far.
    pub fn executed_count(&self) -> usize {
        self.executed_count
    }

    /// `true` if the gate has already been completed.
    pub fn is_executed(&self, id: GateId) -> bool {
        self.executed[id.0]
    }

    /// Marks `id` as executed and moves the successors it unlocks into
    /// the ready list.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not currently ready (dependencies unsatisfied or
    /// already executed).
    pub fn complete(&mut self, id: GateId) {
        let pos = self
            .ready
            .iter()
            .position(|&g| g == id)
            .unwrap_or_else(|| panic!("gate {id:?} is not ready"));
        self.ready.remove(pos);
        self.executed[id.0] = true;
        self.executed_count += 1;

        for &s in self.dag.succs(id) {
            self.indegree[s.0] -= 1;
            if self.indegree[s.0] == 0 {
                // Keep the ready list sorted for deterministic scheduling.
                let ins = self.ready.partition_point(|&r| r < s);
                self.ready.insert(ins, s);
            }
        }
    }

    /// ASAP layer of every *unexecuted* gate relative to the current
    /// frontier (ready gates are layer 0). Executed gates map to `None`.
    ///
    /// This is the `ℓ - ℓc` term of the paper's lookahead weight,
    /// recomputed from scratch (the compiler's router maintains a capped
    /// copy incrementally instead).
    pub fn remaining_layers(&self) -> Vec<Option<usize>> {
        let n = self.dag.len();
        let mut rel = vec![None; n];
        // Process in id order: predecessors always have smaller ids
        // because gates are appended in program order.
        for i in 0..n {
            if self.executed[i] {
                continue;
            }
            let l = self
                .dag
                .preds(GateId(i))
                .iter()
                .filter_map(|p| rel[p.0].map(|x: usize| x + 1))
                .max()
                .unwrap_or(0);
            rel[i] = Some(l);
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn chain_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(Qubit(0));
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(1), Qubit(2));
        c
    }

    #[test]
    fn layers_of_serial_chain() {
        let c = chain_circuit();
        let dag = c.dag();
        assert_eq!(dag.depth(), 3);
        assert_eq!(dag.layer(GateId(0)), 0);
        assert_eq!(dag.layer(GateId(1)), 1);
        assert_eq!(dag.layer(GateId(2)), 2);
    }

    #[test]
    fn independent_gates_share_a_layer() {
        let mut c = Circuit::new(4);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(2), Qubit(3));
        let dag = c.dag();
        assert_eq!(dag.depth(), 1);
        assert_eq!(dag.layers()[0].len(), 2);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let c = Circuit::new(3);
        let dag = c.dag();
        assert!(dag.is_empty());
        assert_eq!(dag.depth(), 0);
        assert!(dag.frontier().is_done());
    }

    #[test]
    fn duplicate_pred_edges_are_merged() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit(0), Qubit(1));
        c.cnot(Qubit(0), Qubit(1));
        let dag = c.dag();
        // Both operands link gate 1 to gate 0, but only one edge exists.
        assert_eq!(dag.preds(GateId(1)), &[GateId(0)]);
        assert_eq!(dag.succs(GateId(0)), &[GateId(1)]);
    }

    #[test]
    fn frontier_unlocks_in_dependency_order() {
        let c = chain_circuit();
        let dag = c.dag();
        let mut f = dag.frontier();
        assert_eq!(f.ready(), &[GateId(0)]);
        f.complete(GateId(0));
        assert_eq!(f.ready(), &[GateId(1)]);
        f.complete(GateId(1));
        assert_eq!(f.ready(), &[GateId(2)]);
        f.complete(GateId(2));
        assert!(f.is_done());
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn completing_unready_gate_panics() {
        let c = chain_circuit();
        let dag = c.dag();
        let mut f = dag.frontier();
        f.complete(GateId(2));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn remaining_layers_initially_match_dag_layers() {
        let c = chain_circuit();
        let dag = c.dag();
        let f = dag.frontier();
        let rel = f.remaining_layers();
        for i in 0..dag.len() {
            assert_eq!(rel[i], Some(dag.layer(GateId(i))));
        }
    }

    #[test]
    fn remaining_layers_shift_after_execution() {
        let c = chain_circuit();
        let dag = c.dag();
        let mut f = dag.frontier();
        f.complete(GateId(0));
        let rel = f.remaining_layers();
        assert_eq!(rel[0], None);
        assert_eq!(rel[1], Some(0));
        assert_eq!(rel[2], Some(1));
    }

    /// Generates a random circuit over at most `max_qubits` qubits for
    /// the seeded property tests.
    fn arb_circuit(rng: &mut StdRng, max_qubits: u32, max_gates: usize) -> Circuit {
        let n = rng.gen_range(2..=max_qubits);
        let g = rng.gen_range(0..max_gates);
        let mut c = Circuit::new(n);
        for _ in 0..g {
            let qa = Qubit(rng.gen_range(0..n));
            let qb = Qubit(rng.gen_range(0..n));
            match rng.gen_range(0..3u8) {
                0 => {
                    c.h(qa);
                }
                1 => {
                    if qa != qb {
                        c.cnot(qa, qb);
                    } else {
                        c.x(qa);
                    }
                }
                _ => {
                    c.rz(qa, 0.25);
                }
            }
        }
        c
    }

    #[test]
    fn prop_layers_respect_dependencies() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..32 {
            let c = arb_circuit(&mut rng, 6, 40);
            let dag = c.dag();
            for i in 0..dag.len() {
                for &p in dag.preds(GateId(i)) {
                    assert!(dag.layer(p) < dag.layer(GateId(i)));
                }
            }
        }
    }

    #[test]
    fn prop_frontier_executes_every_gate_once() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..32 {
            let c = arb_circuit(&mut rng, 6, 40);
            let dag = c.dag();
            let mut f = dag.frontier();
            let mut executed = 0usize;
            while !f.is_done() {
                let next = f.ready()[0];
                f.complete(next);
                executed += 1;
            }
            assert_eq!(executed, dag.len());
        }
    }

    #[test]
    fn prop_layer_sizes_sum_to_gate_count() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..32 {
            let c = arb_circuit(&mut rng, 6, 40);
            let dag = c.dag();
            let total: usize = dag.layers().iter().map(Vec::len).sum();
            assert_eq!(total, dag.len());
        }
    }
}
