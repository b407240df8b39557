//! Reusable working memory for the placement fast path.

use super::candidates::FreeSites;
use crate::lookahead::LookaheadScratch;
use na_arch::{Grid, Site};

/// Working memory carried through [`crate::compile`] (and reusable
/// across compilations): the maintained free-site list, the lazily
/// cached weight-to-mapped totals that drive placement order, the
/// mapped-partner buffer of the site scan, and the router's lookahead
/// window buffers.
///
/// All buffers grow to the device/program size on first use and are
/// reused afterwards; a fresh scratch per call reproduces the seed
/// placer's behavior exactly, it just allocates more.
///
/// # Example
///
/// ```
/// use na_arch::Grid;
/// use na_circuit::{Circuit, Qubit};
/// use na_core::{compile_with, CompilerConfig, PlacementScratch};
///
/// let mut scratch = PlacementScratch::new();
/// let grid = Grid::new(6, 6);
/// let mut c = Circuit::new(2);
/// c.cnot(Qubit(0), Qubit(1));
/// // Repeated compiles share the scratch's buffers.
/// for _ in 0..2 {
///     compile_with(&c, &grid, &CompilerConfig::new(2.0), &mut scratch)?;
/// }
/// # Ok::<(), na_core::CompileError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlacementScratch {
    /// Free usable sites, shrinking as placement claims them.
    pub(super) free: FreeSites,
    /// Unplaced qubit indices, ascending, shrinking as qubits are
    /// placed — so the per-round ordering scan walks exactly the
    /// remaining qubits instead of re-filtering all of them.
    pub(super) unmapped: Vec<u32>,
    /// Cached `weight_to_mapped` per qubit; valid where `!dirty`.
    pub(super) w2m: Vec<f64>,
    /// Qubits whose cached weight is stale (a partner was mapped since
    /// it was computed).
    pub(super) dirty: Vec<bool>,
    /// Mapped-partner `(site, weight)` buffer of the site scan.
    pub(super) partners: Vec<(Site, f64)>,
    /// The scheduler's per-gate and per-qubit lookahead buffers.
    pub(crate) lookahead: LookaheadScratch,
}

impl PlacementScratch {
    /// Fresh scratch; buffers grow on first placement.
    pub fn new() -> Self {
        PlacementScratch::default()
    }

    /// Rearms the scratch for one placement of `num_qubits` qubits on
    /// `grid`: free list refilled, every cached weight marked stale.
    pub(super) fn reset(&mut self, num_qubits: u32, grid: &Grid) {
        self.free.rebuild(grid);
        let n = num_qubits as usize;
        self.unmapped.clear();
        self.unmapped.extend(0..num_qubits);
        self.w2m.clear();
        self.w2m.resize(n, 0.0);
        self.dirty.clear();
        self.dirty.resize(n, true);
        self.partners.clear();
    }

    /// Drops `q` from the unmapped list (it was just placed).
    pub(super) fn mark_placed(&mut self, q: u32) {
        let i = self
            .unmapped
            .binary_search(&q)
            .expect("placed qubit must be unmapped");
        self.unmapped.remove(i);
    }
}
