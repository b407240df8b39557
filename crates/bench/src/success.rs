//! Figs. 7–8: predicted success of neutral-atom (NA) vs.
//! superconducting (SC) compilations as the two-qubit error falls.
//!
//! NA compiles at MID 3 with native multiqubit gates and f(d)=d/2
//! zones; SC at MID 1, no zones, everything lowered to 2-qubit gates.
//! Each (benchmark, size, architecture) point compiles once and the
//! compile cache re-prices the shared schedule at every error point.

use crate::{expect_compile_points, probability, Figure, FigureError, Table};
use na_arch::RestrictionPolicy;
use na_benchmarks::Benchmark;
use na_core::CompilerConfig;
use na_engine::paper::paper_grid;
use na_engine::{ExperimentSpec, RunRecord, Task};
use na_noise::{largest_passing_size, log_spaced_errors, NoiseParams};
use std::collections::HashMap;
use std::fmt::Write;

fn na_cfg() -> CompilerConfig {
    CompilerConfig::new(3.0)
}

fn sc_cfg() -> CompilerConfig {
    CompilerConfig::new(1.0)
        .with_native_multiqubit(false)
        .with_restriction(RestrictionPolicy::None)
}

/// The swept two-qubit error rates, 1e-5 … 1e-1.
fn errors() -> Vec<f64> {
    log_spaced_errors(-5, -1, 2)
}

/// Pushes one NA and one SC success job per error point.
fn push_error_sweep(spec: &mut ExperimentSpec, b: Benchmark, size: u32) {
    for e in errors() {
        let na = NoiseParams::neutral_atom(e);
        spec.push(b, size, 0, na_cfg(), Task::Success { params: na });
        let sc = NoiseParams::superconducting(e);
        spec.push(b, size, 0, sc_cfg(), Task::Success { params: sc });
    }
}

/// The `2q error | <benchmark> NA | <benchmark> SC | …` header.
fn arch_table() -> Table {
    Table::new(
        std::iter::once("2q error".to_string()).chain(
            Benchmark::ALL
                .iter()
                .flat_map(|b| [format!("{} NA", b.name()), format!("{} SC", b.name())]),
        ),
    )
}

/// Fig. 7 — program error rate vs. two-qubit gate error, NA vs SC.
///
/// 50-qubit programs (49 for CNU) compiled once per architecture; the
/// predicted *sample error rate* (1 − success probability) is
/// reported — lower is better, and the divergence point from 1.0 is
/// where a device becomes usable. Ten compilations (5 benchmarks × 2
/// architectures) serve every error point and the two "current
/// hardware" markers.
pub(crate) const FIG07: Figure = Figure {
    name: "fig07",
    specs: || {
        let mut spec = ExperimentSpec::new("fig07", paper_grid());
        for b in Benchmark::ALL {
            push_error_sweep(&mut spec, b, FIG07_SIZE);
            // The "current hardware" markers.
            let na = NoiseParams::neutral_atom_current();
            spec.push(b, FIG07_SIZE, 0, na_cfg(), Task::Success { params: na });
            let sc = NoiseParams::superconducting_rome();
            spec.push(b, FIG07_SIZE, 0, sc_cfg(), Task::Success { params: sc });
        }
        vec![spec]
    },
    render: render_fig07,
};

const FIG07_SIZE: u32 = 50;

fn render_fig07(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    expect_compile_points(records, Benchmark::ALL.len() * 2)?;
    // Key rows by what the record itself says — benchmark, the noise
    // point's two-qubit success, NA-vs-SC — not by push order.
    let mut by_point: HashMap<(String, u64, bool), f64> = HashMap::new();
    for r in records {
        let p2 = r.noise_p2.unwrap_or(f64::NAN);
        by_point.insert(
            (r.benchmark.clone(), p2.to_bits(), r.native),
            probability(r)?,
        );
    }
    let lookup = |b: Benchmark, params: &NoiseParams, native: bool| {
        by_point[&(b.name().to_string(), params.p2.to_bits(), native)]
    };

    writeln!(
        out,
        "== Fig. 7: sample error rate (1 - success) on 50-qubit programs =="
    )?;
    writeln!(
        out,
        "   NA: MID 3, native multiqubit, f(d)=d/2; SC: MID 1, 2q gates\n"
    )?;
    let mut table = arch_table();
    for e in errors() {
        let mut row = vec![format!("{e:.1e}")];
        for b in Benchmark::ALL {
            let p_na = lookup(b, &NoiseParams::neutral_atom(e), true);
            let p_sc = lookup(b, &NoiseParams::superconducting(e), false);
            row.push(format!("{:.3e}", 1.0 - p_na));
            row.push(format!("{:.3e}", 1.0 - p_sc));
        }
        table.row(row);
    }
    out.write_str(&table.render())?;

    writeln!(out, "\n-- markers --")?;
    for b in Benchmark::ALL {
        let p_na = lookup(b, &NoiseParams::neutral_atom_current(), true);
        let p_sc = lookup(b, &NoiseParams::superconducting_rome(), false);
        writeln!(
            out,
            "{:<10} current SC (e=1.2e-2): error {:.3}; current NA (e=3.5e-2): error {:.3}",
            b.name(),
            1.0 - p_sc,
            1.0 - p_na
        )?;
    }
    Ok(())
}

/// Fig. 8 — largest runnable program size vs. two-qubit gate error.
///
/// For each benchmark and architecture, the largest program size whose
/// predicted success probability exceeds 2/3 at each swept error
/// rate. (sizes × architectures) compilations serve (sizes ×
/// architectures × error points) success evaluations.
pub(crate) const FIG08: Figure = Figure {
    name: "fig08",
    specs: || {
        let mut spec = ExperimentSpec::new("fig08", paper_grid());
        for b in Benchmark::ALL {
            for size in fig08_sizes() {
                push_error_sweep(&mut spec, b, size);
            }
        }
        vec![spec]
    },
    render: render_fig08,
};

fn fig08_sizes() -> Vec<u32> {
    (5..=100).step_by(5).collect()
}

fn render_fig08(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    let sizes = fig08_sizes();
    let threshold = 2.0 / 3.0;
    expect_compile_points(records, Benchmark::ALL.len() * sizes.len() * 2)?;
    // (benchmark, actual size, p2-bits, native?) -> probability. The
    // noise point comes from the record itself, not from push order.
    let mut points: HashMap<(String, u32, u64, bool), f64> = HashMap::new();
    for r in records {
        let p2 = r.noise_p2.unwrap_or(f64::NAN);
        points.insert(
            (r.benchmark.clone(), r.actual_size, p2.to_bits(), r.native),
            probability(r)?,
        );
    }

    writeln!(out, "== Fig. 8: largest runnable size at success >= 2/3 ==")?;
    writeln!(
        out,
        "   NA: MID 3, native multiqubit; SC: MID 1, 2q gates\n"
    )?;
    let mut table = arch_table();
    for e in errors() {
        let mut row = vec![format!("{e:.1e}")];
        for b in Benchmark::ALL {
            let points = &points;
            let series = |params: NoiseParams, native: bool| {
                sizes.iter().map(move |&s| {
                    let actual = b.actual_size(s);
                    (
                        actual,
                        points[&(b.name().to_string(), actual, params.p2.to_bits(), native)],
                    )
                })
            };
            let na_best =
                largest_passing_size(series(NoiseParams::neutral_atom(e), true), threshold);
            let sc_best =
                largest_passing_size(series(NoiseParams::superconducting(e), false), threshold);
            row.push(na_best.map_or("-".into(), |s| s.to_string()));
            row.push(sc_best.map_or("-".into(), |s| s.to_string()));
        }
        table.row(row);
    }
    out.write_str(&table.render())?;
    Ok(())
}
