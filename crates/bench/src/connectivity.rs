//! Figs. 3–6 and the §III-A validation: what long-distance
//! interactions save in gate count and depth, what restriction zones
//! cost, and what native Toffolis buy.

use crate::{mean_std, metrics, mid_table, pct, unexpected, Figure, FigureError, Table};
use na_benchmarks::Benchmark;
use na_core::{CompiledMetrics, CompilerConfig};
use na_engine::paper::{
    paper_grid, paper_mids, paper_sizes, two_qubit_cfg, two_qubit_cfg_no_zones,
};
use na_engine::{ExperimentSpec, Outcome, RunRecord, Task};
use std::collections::HashMap;
use std::fmt::Write;

/// Fig. 3 — post-compilation gate count vs. maximum interaction
/// distance.
///
/// Left panel: percent gate-count savings over the MID-1 baseline,
/// averaged over program sizes up to 100, for each benchmark and each
/// MID. Right panel: the full BV gate-count series by size. All
/// programs are lowered to 1- and 2-qubit gates so the reduction
/// isolates SWAP savings.
pub(crate) const FIG03: Figure = Figure {
    name: "fig03",
    specs: || vec![mid_sweep("fig03")],
    render: |records, out| {
        render_savings(
            records,
            out,
            |m| m.total_gates() as f64,
            "== Fig. 3 (left): gate-count savings over MID=1, mean over sizes ==",
            Benchmark::Bv,
            "== Fig. 3 (right): BV gate count by size and MID ==",
        )
    },
};

/// Fig. 4 — post-compilation depth vs. maximum interaction distance.
///
/// Left panel: percent depth savings over the MID-1 baseline, averaged
/// over sizes. Right panel: the QFT-Adder depth series (the paper
/// highlights it to show restriction zones eroding the benefit at
/// large MIDs). Runs the same sweep as Fig. 3, so after Fig. 3 in one
/// reproduction every row is a compile-cache hit.
pub(crate) const FIG04: Figure = Figure {
    name: "fig04",
    specs: || vec![mid_sweep("fig04")],
    render: |records, out| {
        render_savings(
            records,
            out,
            |m| f64::from(m.depth),
            "== Fig. 4 (left): depth savings over MID=1, mean over sizes ==",
            Benchmark::QftAdder,
            "== Fig. 4 (right): QFT-Adder depth by size and MID ==",
        )
    },
};

/// The Figs. 3–4 sweep: every benchmark × size × MID, lowered to 1-
/// and 2-qubit gates.
fn mid_sweep(name: &str) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(name, paper_grid());
    spec.sweep(
        &Benchmark::ALL,
        &paper_sizes(),
        &paper_mids(),
        |_, _, mid| Some((two_qubit_cfg(mid), Task::Compile)),
    );
    spec
}

/// Formats a per-size sample of relative changes as `+x.y% (σ z.w)`.
fn mean_cell(changes: &[f64]) -> String {
    let (mean, std) = mean_std(changes);
    format!("{} (σ {:.1})", pct(mean), std * 100.0)
}

/// Renders Figs. 3 and 4: savings of `metric` over MID 1 per
/// benchmark, then the `series` benchmark's raw values by size.
fn render_savings(
    records: &[RunRecord],
    out: &mut dyn Write,
    metric: fn(&CompiledMetrics) -> f64,
    left_title: &str,
    series: Benchmark,
    right_title: &str,
) -> Result<(), FigureError> {
    let mids = paper_mids();
    let sizes = paper_sizes();
    let mut values: HashMap<(String, u32, u32), f64> = HashMap::new();
    for r in records {
        values.insert(
            (r.benchmark.clone(), r.size, r.mid as u32),
            metric(metrics(r)?),
        );
    }
    let value =
        |b: Benchmark, size: u32, mid: f64| values[&(b.name().to_string(), size, mid as u32)];

    writeln!(out, "{left_title}\n")?;
    let mut table = mid_table("benchmark", &mids[1..]);
    for b in Benchmark::ALL {
        let mut row = vec![b.name().to_string()];
        for &mid in mids.iter().skip(1) {
            let savings: Vec<f64> = sizes
                .iter()
                .map(|&s| {
                    let base = value(b, s, 1.0);
                    (base - value(b, s, mid)) / base
                })
                .collect();
            row.push(mean_cell(&savings));
        }
        table.row(row);
    }
    out.write_str(&table.render())?;

    writeln!(out, "\n{right_title}\n")?;
    let mut table = mid_table("size", &mids);
    for &size in &sizes {
        let mut row = vec![size.to_string()];
        row.extend(mids.iter().map(|&mid| value(series, size, mid).to_string()));
        table.row(row);
    }
    out.write_str(&table.render())?;
    Ok(())
}

/// Fig. 5 — depth increase due to restriction-zone serialization.
///
/// Each program is compiled twice at the same MID: once with the
/// realistic `f(d) = d/2` zones and once with no zones (mimicking an
/// ideal architecture that only forbids overlapping operands). Both
/// compilations have similar gate counts; the depth gap is the price
/// of the zones. Left: percent depth increase per benchmark/MID.
/// Right: the QAOA series the paper highlights (solid = zones,
/// dashed = ideal). MID 1 is skipped: zones there are trivial.
pub(crate) const FIG05: Figure = Figure {
    name: "fig05",
    specs: || {
        let mids = fig05_mids();
        let mut spec = ExperimentSpec::new("fig05", paper_grid());
        spec.sweep(&Benchmark::ALL, &paper_sizes(), &mids, |_, _, mid| {
            Some((two_qubit_cfg(mid), Task::Compile))
        });
        spec.sweep(&Benchmark::ALL, &paper_sizes(), &mids, |_, _, mid| {
            Some((two_qubit_cfg_no_zones(mid), Task::Compile))
        });
        vec![spec]
    },
    render: render_fig05,
};

fn fig05_mids() -> Vec<f64> {
    paper_mids().into_iter().skip(1).collect()
}

fn render_fig05(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    let mids = fig05_mids();
    let sizes = paper_sizes();
    // Key: (benchmark, size, mid, zones?) -> depth.
    let mut depths: HashMap<(String, u32, u32, bool), u32> = HashMap::new();
    for r in records {
        let zones = r.restriction != "none";
        depths.insert(
            (r.benchmark.clone(), r.size, r.mid as u32, zones),
            metrics(r)?.depth,
        );
    }

    writeln!(
        out,
        "== Fig. 5 (left): depth increase from restriction zones, mean over sizes ==\n"
    )?;
    let mut table = mid_table("benchmark", &mids);
    let mut qaoa_series: Vec<(u32, f64, u32, u32)> = Vec::new(); // (size, mid, with, without)
    for b in Benchmark::ALL {
        let mut row = vec![b.name().to_string()];
        for &mid in &mids {
            let mut increases = Vec::new();
            for &size in &sizes {
                let with = depths[&(b.name().to_string(), size, mid as u32, true)];
                let without = depths[&(b.name().to_string(), size, mid as u32, false)];
                increases.push((f64::from(with) - f64::from(without)) / f64::from(without));
                if b == Benchmark::Qaoa && (size % 20 == 0 || size == 50) {
                    qaoa_series.push((size, mid, with, without));
                }
            }
            row.push(mean_cell(&increases));
        }
        table.row(row);
    }
    out.write_str(&table.render())?;

    writeln!(
        out,
        "\n== Fig. 5 (right): QAOA depth, zones (solid) vs ideal (dashed) ==\n"
    )?;
    let mut series = Table::new(["size", "MID", "depth zones", "depth ideal", "gap"]);
    for (size, mid, with, without) in qaoa_series {
        series.row(vec![
            size.to_string(),
            format!("{mid}"),
            with.to_string(),
            without.to_string(),
            pct((f64::from(with) - f64::from(without)) / f64::from(without)),
        ]);
    }
    out.write_str(&series.render())?;
    Ok(())
}

/// Fig. 6 — native three-qubit gates vs. decomposition.
///
/// CNU and Cuccaro (the Toffoli-built benchmarks) compiled two ways at
/// each MID: solid = native Toffolis, dashed = every Toffoli lowered
/// to the 6-CNOT network before mapping. Reports both gate count and
/// depth across sizes. Native compilation requires MID ≥ √2, so the
/// native column starts at MID 2.
pub(crate) const FIG06: Figure = Figure {
    name: "fig06",
    specs: || {
        let mids = paper_mids();
        let mut spec = ExperimentSpec::new("fig06", paper_grid());
        spec.sweep(&FIG06_BENCHMARKS, &FIG06_SIZES, &mids, |_, _, mid| {
            (mid >= 2.0).then(|| (CompilerConfig::new(mid), Task::Compile))
        });
        spec.sweep(&FIG06_BENCHMARKS, &FIG06_SIZES, &mids, |_, _, mid| {
            Some((two_qubit_cfg(mid), Task::Compile))
        });
        vec![spec]
    },
    render: render_fig06,
};

const FIG06_BENCHMARKS: [Benchmark; 2] = [Benchmark::Cnu, Benchmark::Cuccaro];
const FIG06_SIZES: [u32; 7] = [5, 10, 20, 40, 60, 80, 100];

fn render_fig06(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    let mids = paper_mids();
    // Key: (benchmark, size, mid, native?) -> (gates, depth).
    let mut points: HashMap<(String, u32, u32, bool), (usize, u32)> = HashMap::new();
    for r in records {
        let m = metrics(r)?;
        points.insert(
            (r.benchmark.clone(), r.size, r.mid as u32, r.native),
            (m.total_gates(), m.depth),
        );
    }

    for b in FIG06_BENCHMARKS {
        for metric in ["gate count", "depth"] {
            writeln!(
                out,
                "\n== Fig. 6: {} {metric}, native (n) vs decomposed (d) ==\n",
                b.name()
            )?;
            let mut headers: Vec<String> = vec!["size".into()];
            for &mid in &mids {
                if mid >= 2.0 {
                    headers.push(format!("n MID {mid}"));
                }
                headers.push(format!("d MID {mid}"));
            }
            let mut table = Table::new(headers);
            for size in FIG06_SIZES {
                let mut row = vec![b.actual_size(size).to_string()];
                for &mid in &mids {
                    for native in [true, false] {
                        if native && mid < 2.0 {
                            continue;
                        }
                        let (gates, depth) =
                            points[&(b.name().to_string(), size, mid as u32, native)];
                        row.push(match metric {
                            "gate count" => gates.to_string(),
                            _ => depth.to_string(),
                        });
                    }
                }
                table.row(row);
            }
            out.write_str(&table.render())?;
        }
    }
    Ok(())
}

/// §III-A validation — MID-1 sanity check against a standard compiler.
///
/// The paper validated its compiler by setting MID = 1 with no
/// restriction zones and comparing against Qiskit's lookahead SWAP
/// pass. Qiskit is not available offline, so this figure reports the
/// quantities such a comparison checks: compiled gate count, SWAP
/// overhead, and depth for one serial (BV) and one parallel (CNU)
/// benchmark, alongside the pre-routing circuit metrics. SWAP overhead
/// on a 2D grid should sit well below one SWAP per gate for local-ish
/// circuits. The reproduction engine verifies every schedule, so a
/// constraint violation fails the figure.
pub(crate) const VALIDATION_MID1: Figure = Figure {
    name: "validation_mid1",
    specs: || {
        let mut spec = ExperimentSpec::new("validation_mid1", paper_grid());
        spec.sweep(
            &[Benchmark::Bv, Benchmark::Cnu],
            &[10, 30, 50],
            &[1.0],
            |_, _, mid| Some((two_qubit_cfg_no_zones(mid), Task::Compile)),
        );
        vec![spec]
    },
    render: render_validation,
};

fn render_validation(records: &[RunRecord], out: &mut dyn Write) -> Result<(), FigureError> {
    writeln!(
        out,
        "== Validation: MID 1, no restriction zones (Qiskit-equivalent setup) ==\n"
    )?;
    let mut table = Table::new([
        "benchmark",
        "size",
        "source gates",
        "source depth",
        "compiled gates",
        "swaps",
        "depth",
        "swap/gate",
    ]);
    for r in records {
        let Outcome::Compiled { source, metrics: m } = &r.outcome else {
            return Err(unexpected(r));
        };
        table.row(vec![
            r.benchmark.clone(),
            r.actual_size.to_string(),
            source.total_gates().to_string(),
            source.depth.to_string(),
            m.total_gates().to_string(),
            m.swaps.to_string(),
            m.depth.to_string(),
            format!("{:.2}", m.swaps as f64 / source.total_gates() as f64),
        ]);
    }
    out.write_str(&table.render())?;
    Ok(())
}
