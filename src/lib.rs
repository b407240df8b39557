//! # natoms — a neutral-atom quantum architecture toolkit
//!
//! A Rust reproduction of Baker et al., *"Exploiting Long-Distance
//! Interactions and Tolerating Atom Loss in Neutral Atom Quantum
//! Architectures"* (ISCA 2021, arXiv:2111.06469).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`circuit`] — quantum circuit IR, DAGs, decompositions;
//! * [`arch`] — the NA hardware model: grids, interaction distances,
//!   restriction zones, virtual remapping;
//! * [`benchmarks`] — the paper's five parametrized benchmark families;
//! * [`compiler`] — the NA-aware compiler (mapping/routing/scheduling);
//! * [`noise`] — the success-probability model and NA-vs-SC parameters;
//! * [`loss`] — atom-loss models, coping strategies, and campaign
//!   simulation;
//! * [`engine`] — the parallel experiment-execution engine: sweep
//!   specs, a multi-threaded worker pool with deterministic results,
//!   a memoized compilation cache, and JSON-lines result sinks;
//! * [`telemetry`] — zero-dependency structured instrumentation:
//!   stage timers, counters, and latency histograms, disabled by
//!   default and strictly observational (golden digests are
//!   byte-identical with metrics on or off);
//! * [`faults`] — failure-domain primitives: deterministic failpoint
//!   injection (`NATOMS_FAULTS`) and cooperative deadlines, likewise
//!   one relaxed atomic load when disabled.
//!
//! # Quickstart
//!
//! ```
//! use natoms::arch::Grid;
//! use natoms::benchmarks::Benchmark;
//! use natoms::compiler::{compile, CompilerConfig};
//! use natoms::noise::{success_probability, NoiseParams};
//!
//! // A 30-qubit QAOA instance on a 10x10 atom array at MID 3.
//! let program = Benchmark::Qaoa.generate(30, 42);
//! let grid = Grid::new(10, 10);
//! let compiled = compile(&program, &grid, &CompilerConfig::new(3.0))?;
//!
//! let metrics = compiled.metrics();
//! println!("{metrics}");
//!
//! let p = success_probability(&compiled, &NoiseParams::neutral_atom(1e-3));
//! assert!(p.probability() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable scenarios, and `natoms reproduce`
//! (the figure library in `crates/bench`) to regenerate every figure
//! of the paper.

/// The neutral-atom hardware model ([`na_arch`]).
pub mod arch {
    pub use na_arch::*;
}

/// Quantum circuit IR ([`na_circuit`]).
pub mod circuit {
    pub use na_circuit::*;
}

/// Parametrized benchmark circuits ([`na_benchmarks`]).
pub mod benchmarks {
    pub use na_benchmarks::*;
}

/// The NA-aware compiler ([`na_core`]).
pub mod compiler {
    pub use na_core::*;
}

/// Success-rate modelling ([`na_noise`]).
pub mod noise {
    pub use na_noise::*;
}

/// Atom-loss machinery ([`na_loss`]).
pub mod loss {
    pub use na_loss::*;
}

/// The parallel experiment-execution engine ([`na_engine`]).
pub mod engine {
    pub use na_engine::*;
}

/// Structured instrumentation ([`na_telemetry`]).
pub mod telemetry {
    pub use na_telemetry::*;
}

/// Fault injection and cooperative deadlines ([`na_faults`]).
pub mod faults {
    pub use na_faults::*;
}
