//! The paper's evaluation as a library of figures.
//!
//! Every figure of the evaluation (Figs. 3–14, the ablations, the
//! native-arity extension and the §III-A validation) is one
//! [`Figure`]: the [`ExperimentSpec`]s it runs and a renderer for the
//! rows they produce. [`reproduce`] drives any subset of [`FIGURES`]
//! through one [`Engine`], so figures that sweep the same compile
//! points share one compile cache: every Fig. 4 row, and every zoned
//! Fig. 5 row, reads a schedule Fig. 3 compiled. `natoms reproduce`
//! is the command-line front end.
//!
//! Renderers write fixed-width text tables and report a
//! row they cannot use as a typed [`FigureError`] instead of
//! aborting, so one broken figure never takes the others down.
//! The sweep constants live in [`na_engine::paper`].

mod ablation;
mod connectivity;
mod loss;
mod success;

use na_core::CompiledMetrics;
use na_engine::{Engine, ExperimentSpec, Outcome, RunRecord};
use std::collections::HashSet;
use std::fmt::{self, Write};

/// One figure: the engine specs it runs and the renderer of its rows.
#[derive(Debug)]
pub struct Figure {
    /// The figure's name, as `natoms reproduce` takes it (also the
    /// name of its [`ExperimentSpec`]s).
    pub name: &'static str,
    specs: fn() -> Vec<ExperimentSpec>,
    render: fn(&[RunRecord], &mut dyn Write) -> Result<(), FigureError>,
}

/// Every figure, in paper order.
pub const FIGURES: &[Figure] = &[
    connectivity::FIG03,
    connectivity::FIG04,
    connectivity::FIG05,
    connectivity::FIG06,
    success::FIG07,
    success::FIG08,
    loss::FIG10,
    loss::FIG11,
    loss::FIG12,
    loss::FIG13,
    loss::FIG14,
    ablation::CROSSTALK,
    ablation::LOOKAHEAD,
    ablation::RESTRICTION,
    ablation::NATIVE_ARITY,
    connectivity::VALIDATION_MID1,
];

/// One figure's reproduction.
#[derive(Debug)]
pub struct FigureRun {
    /// The figure's name.
    pub name: &'static str,
    /// Every row of the figure's specs, in spec order.
    pub records: Vec<RunRecord>,
    /// The rendered tables, or why the rows could not be rendered.
    pub rendered: Result<String, FigureError>,
}

impl Figure {
    /// Runs the figure's specs through `engine` and renders the rows.
    fn run(&self, engine: &Engine) -> FigureRun {
        let records: Vec<RunRecord> = (self.specs)()
            .iter()
            .flat_map(|spec| engine.run(spec))
            .collect();
        let mut text = String::new();
        let rendered = (self.render)(&records, &mut text).map(|()| text);
        FigureRun {
            name: self.name,
            records,
            rendered,
        }
    }
}

/// The figures named in `names`, in the given order; every figure in
/// paper order when `names` is empty.
///
/// # Errors
///
/// [`FigureError::Unknown`] for the first name that is not a figure.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static Figure>, FigureError> {
    if names.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            FIGURES
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| FigureError::Unknown(name.to_string()))
        })
        .collect()
}

/// Runs `figures` in order through one `engine` (and so one compile
/// cache), yielding each figure's run as soon as it is rendered.
pub fn reproduce<'a>(
    engine: &'a Engine,
    figures: &'a [&'static Figure],
) -> impl Iterator<Item = FigureRun> + 'a {
    figures.iter().map(move |figure| figure.run(engine))
}

/// Why a figure could not be rendered.
#[derive(Debug, Clone, PartialEq)]
pub enum FigureError {
    /// No figure has this name.
    Unknown(String),
    /// A row the figure needs failed or carries another task's
    /// outcome.
    Row {
        /// The row's job id within its spec.
        id: u64,
        /// The experiment point (benchmark, size, MID).
        point: String,
        /// The row's failure message, or the unexpected task.
        outcome: String,
    },
    /// The specs produced fewer rows than the renderer consumes.
    MissingRow,
    /// A figure-level consistency check failed.
    Check(String),
    /// Writing the rendered text failed.
    Write,
}

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FigureError::Unknown(name) => {
                let names: Vec<&str> = FIGURES.iter().map(|fig| fig.name).collect();
                write!(
                    f,
                    "unknown figure {name:?}; valid names: {}",
                    names.join(", ")
                )
            }
            FigureError::Row { id, point, outcome } => write!(f, "row {id} ({point}): {outcome}"),
            FigureError::MissingRow => f.write_str("fewer rows than the figure renders"),
            FigureError::Check(what) => write!(f, "check failed: {what}"),
            FigureError::Write => f.write_str("cannot write the rendered figure"),
        }
    }
}

impl std::error::Error for FigureError {}

impl From<fmt::Error> for FigureError {
    fn from(_: fmt::Error) -> Self {
        FigureError::Write
    }
}

/// The typed error for a row whose outcome the renderer cannot use.
fn unexpected(r: &RunRecord) -> FigureError {
    FigureError::Row {
        id: r.id,
        point: format!("{} size {} MID {}", r.benchmark, r.size, r.mid),
        outcome: match &r.outcome {
            Outcome::Failed { error, .. } => error.clone(),
            _ => format!("unexpected outcome for a {} task", r.task),
        },
    }
}

/// The compiled metrics of a row.
fn metrics(r: &RunRecord) -> Result<&CompiledMetrics, FigureError> {
    r.compiled_metrics().ok_or_else(|| unexpected(r))
}

/// The success probability of a row.
fn probability(r: &RunRecord) -> Result<f64, FigureError> {
    r.probability().ok_or_else(|| unexpected(r))
}

/// The next row of a renderer that consumes rows in push order.
fn next_row<'a>(rows: &mut std::slice::Iter<'a, RunRecord>) -> Result<&'a RunRecord, FigureError> {
    rows.next().ok_or(FigureError::MissingRow)
}

/// Checks that a row carries the strategy the renderer expects at
/// its position (guards against push/consume order drift).
fn expect_strategy(r: &RunRecord, strategy: na_loss::Strategy) -> Result<(), FigureError> {
    if r.strategy.as_deref() == Some(strategy.name()) {
        Ok(())
    } else {
        Err(FigureError::Check(format!(
            "row {} has strategy {:?}, expected {strategy} (row order drift)",
            r.id, r.strategy
        )))
    }
}

/// Checks that `records` compile exactly `expected` distinct points:
/// the compile cache then compiles each point once, however many
/// noise points price it. Keyed on the row fields that identify a
/// compilation in the figures that use this check.
fn expect_compile_points(records: &[RunRecord], expected: usize) -> Result<(), FigureError> {
    let points: HashSet<_> = records
        .iter()
        .map(|r| {
            (
                &r.benchmark,
                r.size,
                r.circuit_seed,
                &r.grid,
                r.holes,
                r.mid.to_bits(),
                r.native,
                &r.restriction,
            )
        })
        .collect();
    if points.len() == expected {
        Ok(())
    } else {
        Err(FigureError::Check(format!(
            "{} distinct compile points, expected {expected}",
            points.len()
        )))
    }
}

/// Mean and ±1σ of a sample (population σ, like the paper's plots).
pub(crate) fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// A fixed-width text table writer for figure output.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<I>(header: I) -> Self
    where
        I: IntoIterator,
        I::Item: ToString,
    {
        Table {
            header: header.into_iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A table whose first column is `first` and whose others are one
/// `MID m` column per entry of `mids`.
pub(crate) fn mid_table(first: &str, mids: &[f64]) -> Table {
    Table::new(std::iter::once(first.to_string()).chain(mids.iter().map(|m| format!("MID {m}"))))
}

/// Formats a fraction as a signed percent string.
pub(crate) fn pct(frac: f64) -> String {
    format!("{:+.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use na_engine::paper::{paper_grid, paper_mids, paper_sizes, two_qubit_cfg};

    #[test]
    fn sweeps_match_paper_setup() {
        // The Figs. 3–5 sweep the figures build on.
        let specs = (FIGURES[0].specs)();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].grid().num_sites(), paper_grid().num_sites());
        assert_eq!(
            specs[0].len(),
            na_benchmarks::Benchmark::ALL.len() * paper_sizes().len() * paper_mids().len()
        );
        assert!(specs[0]
            .jobs()
            .iter()
            .all(|job| job.config == two_qubit_cfg(job.config.mid)));
    }

    #[test]
    fn figure_names_are_unique_and_selectable() {
        let names: HashSet<&str> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), FIGURES.len());
        assert_eq!(select::<&str>(&[]).unwrap().len(), FIGURES.len());
        let picked = select(&["fig04", "fig03"]).unwrap();
        assert_eq!(picked[0].name, "fig04");
        assert_eq!(picked[1].name, "fig03");
        let err = select(&["fig03", "nosuchfig"]).unwrap_err();
        assert_eq!(err, FigureError::Unknown("nosuchfig".into()));
        let message = err.to_string();
        assert!(message.contains("\"nosuchfig\""), "{message}");
        assert!(message.contains("fig03, fig04"), "{message}");
        assert!(message.contains("validation_mid1"), "{message}");
    }

    #[test]
    fn every_figure_spec_is_named_after_its_figure() {
        for figure in FIGURES {
            for spec in (figure.specs)() {
                assert_eq!(spec.name, figure.name);
                assert!(!spec.is_empty(), "{}", figure.name);
            }
        }
    }

    #[test]
    fn failed_rows_are_typed_errors() {
        let mut spec = ExperimentSpec::new("t", paper_grid());
        spec.push(
            na_benchmarks::Benchmark::Bv,
            10,
            0,
            two_qubit_cfg(3.0),
            na_engine::Task::Compile,
        );
        let mut record = Engine::with_workers(1).run(&spec).remove(0);
        assert!(metrics(&record).is_ok());
        record.outcome = Outcome::Failed {
            unroutable: true,
            panicked: false,
            deadline: false,
            error: "gate unroutable".into(),
        };
        let err = metrics(&record).unwrap_err();
        assert_eq!(err.to_string(), "row 0 (BV size 10 MID 3): gate unroutable");
        assert!(matches!(probability(&record), Err(FigureError::Row { .. })));
        let rows = [record];
        let mut iter = rows.iter();
        assert!(next_row(&mut iter).is_ok());
        assert_eq!(next_row(&mut iter).unwrap_err(), FigureError::MissingRow);
        assert!(expect_compile_points(&rows, 1).is_ok());
        assert!(matches!(
            expect_compile_points(&rows, 2),
            Err(FigureError::Check(_))
        ));
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["mid", "gates"]);
        t.row(vec!["1".into(), "592".into()]);
        t.row(vec!["13".into(), "299".into()]);
        let s = t.render();
        assert!(s.contains("mid"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(0.251), "+25.1%");
        assert_eq!(pct(-0.5), "-50.0%");
    }
}
