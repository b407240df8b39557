//! Ablations of the compiler's modelling choices, and the
//! native-arity extension the paper leaves unexplored.

use crate::{metrics, mid_table, next_row, unexpected, Figure, FigureError, Table};
use na_arch::RestrictionPolicy;
use na_benchmarks::Benchmark;
use na_circuit::{Circuit, Qubit};
use na_core::CompilerConfig;
use na_engine::paper::paper_grid;
use na_engine::{CircuitSource, ExperimentSpec, Outcome, RunRecord, Task};
use na_noise::{CrosstalkParams, NoiseParams};
use std::fmt::Write;

/// The parallel benchmarks the zone ablations run on.
const PARALLEL: [Benchmark; 3] = [Benchmark::Qaoa, Benchmark::QftAdder, Benchmark::Cnu];

/// Ablation — crosstalk vs. restriction-zone size (the paper's
/// proposed-but-unmodelled mechanism, §IV-A).
///
/// Larger restriction zones serialize nearby gates: fewer spectator
/// exposures (less crosstalk) but more depth (more decoherence). This
/// figure sweeps the zone policy on the parallel benchmarks and
/// reports both factors plus the combined shot success, locating the
/// optimum the paper predicts exists. One engine `Crosstalk` job per
/// (benchmark, policy).
pub(crate) const CROSSTALK: Figure = Figure {
    name: "ablation_crosstalk",
    specs: || {
        let mut spec = ExperimentSpec::new("ablation_crosstalk", paper_grid());
        for b in PARALLEL {
            for (_, policy) in CROSSTALK_POLICIES {
                let cfg = CompilerConfig::new(3.0)
                    .with_native_multiqubit(false)
                    .with_restriction(policy);
                let task = Task::Crosstalk {
                    params: NoiseParams::neutral_atom(1e-3),
                    crosstalk: CrosstalkParams::default(),
                };
                spec.push(b, 40, 0, cfg, task);
            }
        }
        vec![spec]
    },
    render: render_crosstalk,
};

const CROSSTALK_POLICIES: [(&str, RestrictionPolicy); 5] = [
    ("none", RestrictionPolicy::None),
    ("d/2 (paper)", RestrictionPolicy::HalfDistance),
    ("d", RestrictionPolicy::FullDistance),
    ("const 2.0", RestrictionPolicy::Constant(2.0)),
    ("const 3.0", RestrictionPolicy::Constant(3.0)),
];

fn render_crosstalk(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    let ct = CrosstalkParams::default();
    writeln!(out, "== Ablation: crosstalk vs restriction-zone size ==")?;
    writeln!(
        out,
        "   size 40, MID 3, 2q error 1e-3, crosstalk range {} / eps {}\n",
        ct.range, ct.error_per_exposure
    )?;
    let mut table = Table::new([
        "benchmark",
        "policy",
        "depth",
        "exposures",
        "p(no crosstalk)",
        "p(gates+coh)",
        "combined",
    ]);
    let mut rows = records.iter();
    for b in PARALLEL {
        for (name, _) in CROSSTALK_POLICIES {
            let r = next_row(&mut rows)?;
            let Outcome::Crosstalk {
                depth,
                exposures,
                p_crosstalk,
                p_standard,
                p_combined,
            } = &r.outcome
            else {
                return Err(unexpected(r));
            };
            table.row(vec![
                b.name().into(),
                name.to_string(),
                depth.to_string(),
                exposures.to_string(),
                format!("{p_crosstalk:.4}"),
                format!("{p_standard:.4}"),
                format!("{p_combined:.4}"),
            ]);
        }
    }
    out.write_str(&table.render())?;
    writeln!(
        out,
        "\nThe paper's implicit claim: zones buy crosstalk suppression with"
    )?;
    writeln!(
        out,
        "serialization; the combined column shows where the trade balances."
    )?;
    Ok(())
}

/// Ablation — lookahead window size.
///
/// The lookahead weight `w(u,v) = Σ e^{-|ℓc-ℓ|}` decays exponentially,
/// so the window can be truncated. This figure sweeps the window from
/// 0 layers (frontier-only, no lookahead) upward and reports compiled
/// gate count and depth, showing where the quality saturates.
pub(crate) const LOOKAHEAD: Figure = Figure {
    name: "ablation_lookahead",
    specs: || {
        let mut spec = ExperimentSpec::new("ablation_lookahead", paper_grid());
        for b in Benchmark::ALL {
            for w in LOOKAHEAD_WINDOWS {
                let cfg = CompilerConfig::new(3.0).with_lookahead_depth(w);
                spec.push(b, 40, 0, cfg, Task::Compile);
            }
        }
        vec![spec]
    },
    render: render_lookahead,
};

const LOOKAHEAD_WINDOWS: [usize; 7] = [0, 1, 2, 5, 10, 20, 50];

fn render_lookahead(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    writeln!(
        out,
        "== Ablation: lookahead window (MID 3, native, size 40) ==\n"
    )?;
    let mut table = Table::new(["benchmark", "window", "gates", "swaps", "depth"]);
    let mut rows = records.iter();
    for b in Benchmark::ALL {
        for w in LOOKAHEAD_WINDOWS {
            let m = metrics(next_row(&mut rows)?)?;
            table.row(vec![
                b.name().into(),
                w.to_string(),
                m.total_gates().to_string(),
                m.swaps.to_string(),
                m.depth.to_string(),
            ]);
        }
    }
    out.write_str(&table.render())?;
    Ok(())
}

/// Ablation — restriction-radius function.
///
/// The paper models the blocked radius as `f(d) = d/2` but notes real
/// devices may differ. This figure compares `f(d) = 0` (ideal), `d/2`,
/// `d`, and constant radii on the parallel benchmarks, showing how the
/// zone model trades depth for crosstalk safety.
pub(crate) const RESTRICTION: Figure = Figure {
    name: "ablation_restriction",
    specs: || {
        let mut spec = ExperimentSpec::new("ablation_restriction", paper_grid());
        for b in PARALLEL {
            for mid in RESTRICTION_MIDS {
                for (_, policy) in RESTRICTION_POLICIES {
                    let cfg = CompilerConfig::new(mid)
                        .with_native_multiqubit(false)
                        .with_restriction(policy);
                    spec.push(b, 50, 0, cfg, Task::Compile);
                }
            }
        }
        vec![spec]
    },
    render: render_restriction,
};

const RESTRICTION_MIDS: [f64; 2] = [3.0, 5.0];
const RESTRICTION_POLICIES: [(&str, RestrictionPolicy); 5] = [
    ("none", RestrictionPolicy::None),
    ("d/2 (paper)", RestrictionPolicy::HalfDistance),
    ("d", RestrictionPolicy::FullDistance),
    ("const 1.0", RestrictionPolicy::Constant(1.0)),
    ("const 2.0", RestrictionPolicy::Constant(2.0)),
];

fn render_restriction(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    writeln!(
        out,
        "== Ablation: restriction radius f(d) (size 50, 2q gate set) ==\n"
    )?;
    let mut table = Table::new(["benchmark", "MID", "policy", "gates", "depth"]);
    let mut rows = records.iter();
    for b in PARALLEL {
        for mid in RESTRICTION_MIDS {
            for (name, _) in RESTRICTION_POLICIES {
                let m = metrics(next_row(&mut rows)?)?;
                table.row(vec![
                    b.name().into(),
                    format!("{mid}"),
                    name.to_string(),
                    m.total_gates().to_string(),
                    m.depth.to_string(),
                ]);
            }
        }
    }
    out.write_str(&table.render())?;
    Ok(())
}

/// Extension — gates larger than Toffoli (paper §IV-B, unexplored
/// there).
///
/// "While not explored explicitly in this work, larger control gates
/// will require increasingly larger interaction distances. In general,
/// the more qubits interacting, the larger the restriction zone,
/// increasing serialization if the qubits are too spread out."
///
/// This figure compiles the CNU benchmark with native gate arity
/// capped at 3 (the paper's setting), 5, 9, and unlimited, across
/// MIDs. A `CNU` over c controls collapses to a single (c+1)-operand
/// gate when the cap allows it — but an arity-k gate needs k atoms
/// pairwise within the MID (infeasible below √2·(⌈√k⌉−1)) and claims a
/// proportionally large restriction zone.
///
/// Raw (non-benchmark) circuits flow through the engine as
/// `CircuitSource::Raw`; unroutable points are expected `Failed` rows,
/// rendered "-".
pub(crate) const NATIVE_ARITY: Figure = Figure {
    name: "ext_native_arity",
    specs: || {
        let mut spec = ExperimentSpec::new("ext_native_arity", paper_grid());
        for controls in ARITY_CONTROLS {
            let source = CircuitSource::raw(format!("CNU-{controls}c"), raw_cnu(controls));
            for (_, arity) in ARITIES {
                for mid in ARITY_MIDS {
                    let cfg = CompilerConfig::new(mid).with_max_native_arity(arity);
                    let task = Task::Success {
                        params: NoiseParams::neutral_atom(1e-3),
                    };
                    spec.push(source.clone(), controls + 1, 0, cfg, task);
                }
            }
        }
        vec![spec]
    },
    render: render_native_arity,
};

const ARITIES: [(&str, usize); 4] = [("3 (paper)", 3), ("5", 5), ("9", 9), ("unlimited", 64)];
const ARITY_MIDS: [f64; 5] = [2.0, 3.0, 5.0, 8.0, 13.0];
const ARITY_CONTROLS: [u32; 3] = [4, 8, 16];

/// A raw n-controlled-X without pre-lowering: the compiler decides.
fn raw_cnu(controls: u32) -> Circuit {
    let mut c = Circuit::new(controls + 1);
    c.cnx((0..controls).map(Qubit).collect(), Qubit(controls));
    c
}

fn render_native_arity(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    let mut rows = records.iter();
    for controls in ARITY_CONTROLS {
        writeln!(
            out,
            "\n== Extension: native arity sweep, CNU with {controls} controls ==\n"
        )?;
        let mut table = mid_table("native arity", &ARITY_MIDS);
        writeln!(
            out,
            "   cells: gates/depth/success ('-' = gate unroutable at this MID)\n"
        )?;
        for (label, _) in ARITIES {
            let mut row = vec![label.to_string()];
            for _ in ARITY_MIDS {
                let r = next_row(&mut rows)?;
                match &r.outcome {
                    Outcome::Success { metrics, breakdown } => row.push(format!(
                        "{}/{}/{:.3}",
                        metrics.total_gates(),
                        metrics.depth,
                        breakdown.probability()
                    )),
                    Outcome::Failed {
                        unroutable: true, ..
                    } => row.push("-".into()),
                    _ => return Err(unexpected(r)),
                }
            }
            table.row(row);
        }
        out.write_str(&table.render())?;
    }
    writeln!(
        out,
        "\nLarger native gates collapse the Toffoli tree to one operation but"
    )?;
    writeln!(
        out,
        "demand larger MIDs and claim bigger zones; the success column shows"
    )?;
    writeln!(
        out,
        "where single-pulse fan-in stops paying (fidelity p3^(k-2))."
    )?;
    Ok(())
}
