//! Subcommand implementations.
//!
//! The sweep-shaped subcommands (`sweep`, `campaign`, `reproduce`) run
//! through `na-engine`'s parallel worker pool: `--workers N` bounds the
//! pool (default: all cores — results are identical at any worker
//! count), and `--jsonl` switches the output to the engine's
//! structured JSON-lines rows for downstream tooling.

use crate::args::{ArgError, Args};
use na_arch::{AssemblySimulator, Grid, RestrictionPolicy};
use na_benchmarks::{Benchmark, Workload};
use na_circuit::parse_qasm;
use na_core::{compile, CompiledCircuit, CompilerConfig};
use na_engine::{
    derive_seed, CompileCache, Engine, ExperimentSpec, FailureSummary, JsonlSink, LossSpec,
    Outcome, RunRecord, Task,
};
use na_loss::{
    mean_loss_tolerance, render_timeline, run_campaign, CampaignConfig, ShotTarget, Strategy,
};
use na_noise::{success_probability, NoiseParams};
use std::error::Error;
use std::io::Write;
use std::time::Duration;

/// What a successfully-dispatched subcommand reports back to `main`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdStatus {
    /// Every row/point succeeded (exit code 0).
    Ok,
    /// The command ran to completion but some result rows carry typed
    /// failures (exit code 2; the rows and the stderr summary tell the
    /// story).
    PartialFailure,
}

type CmdResult = Result<CmdStatus, Box<dyn Error>>;

/// Parses a benchmark through the shared name table
/// (`Benchmark::from_str` in `na-benchmarks`).
fn parse_benchmark(name: &str) -> Result<Benchmark, ArgError> {
    name.parse()
        .map_err(|e: na_benchmarks::ParseBenchmarkError| ArgError(e.to_string()))
}

/// Parses a strategy through the shared name table
/// (`Strategy::from_str` in `na-loss`).
fn parse_strategy(name: &str) -> Result<Strategy, ArgError> {
    name.parse()
        .map_err(|e: na_loss::ParseStrategyError| ArgError(e.to_string()))
}

/// The most trap sites a `--grid` may have. Compiling allocates
/// per-site tables (placement, neighbour lists of up to π·MID² entries
/// per site), so a larger device would exhaust memory before the first
/// gate is placed.
const MAX_GRID_SITES: u64 = 1 << 20;

fn parse_grid(spec: &str) -> Result<Grid, ArgError> {
    let (w, h) = spec
        .split_once('x')
        .ok_or_else(|| ArgError(format!("grid spec {spec:?} must look like 10x10")))?;
    let w: u32 = w
        .parse()
        .map_err(|_| ArgError(format!("bad grid width {w:?}")))?;
    let h: u32 = h
        .parse()
        .map_err(|_| ArgError(format!("bad grid height {h:?}")))?;
    if w == 0 || h == 0 {
        return Err(ArgError("grid dimensions must be positive".into()));
    }
    // Checked in u64, where a product of two u32s cannot wrap.
    if u64::from(w) * u64::from(h) > MAX_GRID_SITES {
        return Err(ArgError(format!(
            "grid {w}x{h} exceeds the cap of {MAX_GRID_SITES} sites (1024x1024): \
             compiling builds tables for every site"
        )));
    }
    Ok(Grid::new(w, h))
}

/// Parses one maximum interaction distance for `--mid` or `--mids`:
/// a finite number of at least 1 (MID 1 is nearest-neighbour). `nan`,
/// `inf` and sub-unit distances are rejected up front.
fn parse_mid(raw: &str, flag: &str) -> Result<f64, ArgError> {
    let mid: f64 = raw
        .trim()
        .parse()
        .map_err(|_| ArgError(format!("invalid value {raw:?} for --{flag}")))?;
    if !mid.is_finite() || mid < 1.0 {
        return Err(ArgError(format!(
            "--{flag} must be a finite number >= 1, got {raw:?}"
        )));
    }
    Ok(mid)
}

/// Loads and parses the `--qasm` file into a custom [`Workload`]
/// labeled by the file stem.
fn load_qasm_workload(path: &str) -> Result<Workload, ArgError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read QASM file {path:?}: {e}")))?;
    let circuit = parse_qasm(&src).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let label = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string();
    Ok(Workload::custom(label, circuit))
}

struct Common {
    workload: Workload,
    size: u32,
    grid: Grid,
    config: CompilerConfig,
    seed: u64,
}

impl Common {
    /// The circuit at this command's `(size, seed)` point.
    fn circuit(&self) -> std::sync::Arc<na_circuit::Circuit> {
        self.workload.circuit(self.size, self.seed)
    }

    /// Qubits the workload actually uses.
    fn actual_size(&self) -> u32 {
        self.workload.actual_size(self.size)
    }
}

fn common(args: &Args) -> Result<Common, ArgError> {
    let workload = match args.get("qasm") {
        Some(path) => {
            if args.get("benchmark").is_some() {
                return Err(ArgError(
                    "--qasm and --benchmark are mutually exclusive".into(),
                ));
            }
            load_qasm_workload(path)?
        }
        None => {
            // A valueless --qasm parses as a boolean flag; refuse it
            // rather than silently compiling the default benchmark
            // (it is also the old spelling of compile's export flag).
            if args.flag("qasm") {
                return Err(ArgError(
                    "--qasm expects a file path (to print a compiled schedule \
                     as QASM, use --emit-qasm)"
                        .into(),
                ));
            }
            Workload::from(parse_benchmark(args.get_or("benchmark", "bv"))?)
        }
    };
    let size = args.parse_or("size", 30u32)?;
    if matches!(workload, Workload::Bench(_)) && size < Benchmark::MIN_SIZE {
        return Err(ArgError(format!(
            "--size must be at least {} qubits (the smallest size every benchmark \
             supports), got {size}",
            Benchmark::MIN_SIZE
        )));
    }
    let grid = parse_grid(args.get_or("grid", "10x10"))?;
    let mid = match args.get("mid") {
        Some(raw) => parse_mid(raw, "mid")?,
        None => 3.0,
    };
    let mut config = CompilerConfig::new(mid);
    if args.flag("no-native") {
        config = config.with_native_multiqubit(false);
    }
    if args.flag("no-zones") {
        config = config.with_restriction(RestrictionPolicy::None);
    }
    let seed = args.parse_or("seed", 0u64)?;
    Ok(Common {
        workload,
        size,
        grid,
        config,
        seed,
    })
}

/// The engine for a sweep-shaped command: `--workers N` (default all
/// cores) plus the cooperative `--job-timeout` budget.
fn engine(args: &Args) -> Result<Engine, ArgError> {
    let mut engine = match args.get("workers") {
        None => Engine::new(),
        Some(_) => Engine::with_workers(args.parse_or("workers", 0usize)?),
    };
    if let Some(timeout) = job_timeout(args)? {
        engine = engine.with_job_timeout(timeout);
    }
    Ok(engine)
}

/// Parses `--job-timeout <secs>` (fractional seconds allowed; `0`
/// expires immediately, which the chaos smoke uses).
fn job_timeout(args: &Args) -> Result<Option<Duration>, ArgError> {
    match args.get("job-timeout") {
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| ArgError(format!("invalid value {raw:?} for --job-timeout")))?;
            // Rejects negative, non-finite and overflowing values alike.
            Duration::try_from_secs_f64(secs).map(Some).map_err(|_| {
                ArgError(format!(
                    "--job-timeout must be a non-negative number of seconds below {:.1e}, \
                     got {raw:?}",
                    Duration::MAX.as_secs_f64()
                ))
            })
        }
        None if args.flag("job-timeout") => {
            Err(ArgError("--job-timeout expects a number of seconds".into()))
        }
        None => Ok(None),
    }
}

/// The `--jsonl` mode: `None` = human-readable output, `Some(None)` =
/// JSONL to stdout, `Some(Some(path))` = JSONL to a file.
fn jsonl_target(args: &Args) -> Option<Option<String>> {
    match args.get("jsonl") {
        Some(path) => Some(Some(path.to_string())),
        None if args.flag("jsonl") => Some(None),
        None => None,
    }
}

/// Checks up front that `path` can be opened for writing — without
/// truncating anything already there — so a long sweep never runs for
/// minutes only to fail at the final write.
pub fn validate_writable(path: &str, what: &str) -> Result<(), ArgError> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map(|_| ())
        .map_err(|e| ArgError(format!("cannot open {what} file {path:?} for writing: {e}")))
}

/// Streams records as JSONL to stdout or a file. A broken pipe is a
/// clean early stop (`natoms sweep --jsonl | head`); any other sink
/// error propagates as a real failure.
fn emit_jsonl(records: &[RunRecord], target: Option<&str>) -> Result<(), Box<dyn Error>> {
    let result = match target {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| ArgError(format!("cannot write JSONL file {path:?}: {e}")))?;
            let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
            na_engine::write_records(records, &mut sink)
        }
        None => na_engine::write_records(records, &mut JsonlSink::stdout()),
    };
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.is_broken_pipe() => Ok(()),
        Err(e) => Err(Box::new(e) as Box<dyn Error>),
    }
}

/// The uniform end-of-command failure accounting: silent when every
/// row succeeded, otherwise a stderr summary (`3/120 rows failed: 2
/// unroutable, 1 panicked`) and [`CmdStatus::PartialFailure`] for the
/// exit code.
fn finish_rows(records: &[RunRecord]) -> CmdStatus {
    let summary = FailureSummary::of(records);
    if summary.any_failed() {
        eprintln!("{summary}");
        CmdStatus::PartialFailure
    } else {
        CmdStatus::Ok
    }
}

/// Compiles and verifies the command's circuit through a self-checking
/// [`CompileCache`] — the same code path the engine commands use, so
/// one-shot commands report real cache/stage telemetry.
fn compile_common(c: &Common) -> Result<std::sync::Arc<CompiledCircuit>, Box<dyn Error>> {
    let program = c.circuit();
    Ok(CompileCache::self_checking().get_or_compile(&program, &c.grid, &c.config)?)
}

/// Uniform cache-efficacy report for every compiling subcommand: when
/// telemetry is enabled (`--metrics`), one stderr line from the merged
/// registry — hits/misses/occupancy aggregated across all workers and
/// caches the command touched. Stderr so it never disturbs table or
/// JSONL stdout.
fn report_cache_stats() {
    if !na_telemetry::is_enabled() {
        return;
    }
    let snap = na_telemetry::snapshot();
    eprintln!(
        "compile cache: {} hits, {} misses ({} entries)",
        snap.counter("compile_cache_hits"),
        snap.counter("compile_cache_misses"),
        snap.gauge("compile_cache_entries")
    );
    eprintln!(
        "artifact store: {} placement hits, {} lowered hits",
        snap.counter("artifact_hits"),
        snap.counter("artifact_lowered_hits")
    );
}

/// `natoms compile`
pub fn compile_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    // `--passes` compiles outside the cache with `compile_with_report`
    // to get the per-pass table, printed after the metrics. Both paths
    // run the self-checking pipeline, so the schedule is verified and
    // bit-identical either way.
    let (compiled, pass_report) = if args.flag("passes") {
        let program = c.circuit();
        let (compiled, report) = na_core::compile_with_report(&program, &c.grid, &c.config)?;
        (std::sync::Arc::new(compiled), Some(report))
    } else {
        (compile_common(&c)?, None)
    };
    let m = compiled.metrics();
    println!(
        "{} size {} on {}x{} at MID {}",
        c.workload,
        c.actual_size(),
        c.grid.width(),
        c.grid.height(),
        c.config.mid
    );
    println!("  {m}");
    println!("  timesteps: {}", compiled.num_timesteps());
    if let Some(report) = &pass_report {
        print!("{}", report.render());
    }
    if args.flag("emit-qasm") {
        let qasm = na_circuit::qasm::to_qasm(compiled.circuit())?;
        println!("\n{qasm}");
    }
    report_cache_stats();
    Ok(CmdStatus::Ok)
}

/// `natoms sweep` — the MID sweep, fanned across cores by the engine.
pub fn sweep_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let default_mids = na_engine::paper::paper_mids()
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mids: Vec<f64> = args
        .get_or("mids", &default_mids)
        .split(',')
        .map(|s| parse_mid(s, "mids"))
        .collect::<Result<_, _>>()?;

    let mut spec = ExperimentSpec::new("cli-sweep", c.grid.clone());
    for &mid in &mids {
        let mut cfg = c.config;
        cfg.mid = mid;
        if mid * mid < 2.0 {
            cfg = cfg.with_native_multiqubit(false);
        }
        spec.push(c.workload.clone(), c.size, c.seed, cfg, Task::Compile);
    }
    let jsonl = jsonl_target(args);
    if let Some(Some(path)) = &jsonl {
        validate_writable(path, "JSONL")?;
    }
    let records = engine(args)?.run(&spec);
    report_cache_stats();

    if let Some(target) = &jsonl {
        emit_jsonl(&records, target.as_deref())?;
        return Ok(finish_rows(&records));
    }

    println!("{:>6} {:>8} {:>7} {:>7}", "MID", "gates", "swaps", "depth");
    for r in &records {
        match &r.outcome {
            Outcome::Compiled { metrics: m, .. } => {
                println!(
                    "{:>6} {:>8} {:>7} {:>7}",
                    r.mid,
                    m.total_gates(),
                    m.swaps,
                    m.depth
                );
            }
            Outcome::Failed { error, .. } => {
                // A failed point is a row, not an abort: render
                // placeholders and keep sweeping.
                println!("{:>6} {:>8} {:>7} {:>7}  {error}", r.mid, "-", "-", "-");
            }
            other => unreachable!("compile task returned {other:?}"),
        }
    }
    Ok(finish_rows(&records))
}

/// `natoms reproduce [NAME …]` — the paper's figures: the named ones
/// in the given order, or all of them in paper order, through one
/// verified engine and so one compile cache (a figure re-reading
/// points an earlier one compiled gets cache hits). Each figure's
/// tables go to stdout as soon as it is rendered; `--jsonl` writes
/// every figure's rows instead. A figure that cannot be rendered is
/// reported on stderr with its row-failure summary, the remaining
/// figures still run, and the exit code is 2.
pub fn reproduce_cmd(args: &Args) -> CmdResult {
    let figures = na_bench::select(args.positionals()).map_err(|e| ArgError(e.to_string()))?;
    let jsonl = jsonl_target(args);
    if let Some(Some(path)) = &jsonl {
        validate_writable(path, "JSONL")?;
    }
    // Verified: every schedule behind a figure passes the constraint
    // checker, or its row fails and so does the figure.
    let engine = engine(args)?.verified();
    let mut status = CmdStatus::Ok;
    let mut rows = Vec::new();
    for run in na_bench::reproduce(&engine, &figures) {
        match &run.rendered {
            Ok(text) if jsonl.is_none() => {
                let mut stdout = std::io::stdout().lock();
                match stdout
                    .write_all(text.as_bytes())
                    .and_then(|()| stdout.flush())
                {
                    Ok(()) => {}
                    // A closed consumer (`natoms reproduce | head`) is
                    // a clean early stop.
                    Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(status),
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("{}: {e}", run.name);
                finish_rows(&run.records);
                status = CmdStatus::PartialFailure;
            }
        }
        if jsonl.is_some() {
            rows.extend(run.records);
        }
    }
    report_cache_stats();
    if let Some(target) = &jsonl {
        emit_jsonl(&rows, target.as_deref())?;
    }
    Ok(status)
}

/// `natoms success`
pub fn success_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let error: f64 = args.parse_or("error", 1e-3)?;
    // One self-checking cache verifies both architecture points.
    let cache = CompileCache::self_checking();
    let program = c.circuit();
    let compiled = cache.get_or_compile(&program, &c.grid, &c.config)?;
    let na = success_probability(&compiled, &NoiseParams::neutral_atom(error));
    println!(
        "NA  MID {}: success {:.4} (gates {:.4}, coherence {:.6}, {:.1} us/shot)",
        c.config.mid,
        na.probability(),
        na.gate_success,
        na.coherence,
        na.duration * 1e6
    );

    let sc_cfg = CompilerConfig::new(1.0)
        .with_native_multiqubit(false)
        .with_restriction(RestrictionPolicy::None);
    let sc_compiled = cache.get_or_compile(&program, &c.grid, &sc_cfg)?;
    let sc = success_probability(&sc_compiled, &NoiseParams::superconducting(error));
    println!(
        "SC  MID 1: success {:.4} (gates {:.4}, coherence {:.6}, {:.1} us/shot)",
        sc.probability(),
        sc.gate_success,
        sc.coherence,
        sc.duration * 1e6
    );
    report_cache_stats();
    Ok(CmdStatus::Ok)
}

/// `natoms tolerance`
pub fn tolerance_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let strategy = parse_strategy(args.get_or("strategy", "c-small-reroute"))?;
    let trials: u32 = args.parse_or("trials", 10)?;
    if !strategy.supports_mid(c.config.mid) {
        return Err(Box::new(ArgError(format!(
            "{strategy} needs a hardware MID of at least 3"
        ))));
    }
    let program = c.circuit();
    let (mean, std) =
        mean_loss_tolerance(&program, &c.grid, c.config.mid, strategy, trials, c.seed)?;
    println!(
        "{strategy} on {} ({} qubits, MID {}): sustains {:.1}% +/- {:.1}% of the device",
        c.workload,
        c.actual_size(),
        c.config.mid,
        mean * 100.0,
        std * 100.0
    );
    report_cache_stats();
    Ok(CmdStatus::Ok)
}

/// `natoms campaign` — one or more Monte-Carlo campaigns through the
/// engine. `--campaigns N` runs N independent replicas (seeds derived
/// from `--seed`) in parallel and reports each plus the aggregate.
/// `--shards K` fans each replica's shot budget out as K deterministic
/// shards across the worker pool; `--streaming` drops the per-interval
/// vector (and the timeline) for constant-memory campaigns at any shot
/// count, reporting streak statistics from the running summaries
/// instead.
pub fn campaign_cmd(args: &Args) -> CmdResult {
    let c = common(args)?;
    let strategy = parse_strategy(args.get_or("strategy", "c-small-reroute"))?;
    let shots: u64 = args.parse_or("shots", 500u64)?;
    let error: f64 = args.parse_or("error", 0.035)?;
    let factor: f64 = args.parse_or("loss-factor", 1.0)?;
    let campaigns: u32 = args.parse_or("campaigns", 1u32)?;
    if campaigns == 0 {
        return Err(Box::new(ArgError("--campaigns must be at least 1".into())));
    }
    let shards: u32 = args.parse_or("shards", 1u32)?;
    if shards == 0 {
        return Err(Box::new(ArgError("--shards must be at least 1".into())));
    }
    let streaming = args.flag("streaming");
    if streaming && args.flag("timeline") {
        // The timeline grows with the shot count — exactly the
        // unbounded memory --streaming exists to rule out.
        return Err(Box::new(ArgError(
            "--timeline records every shot and cannot be combined with --streaming; \
             drop one of the two flags"
                .into(),
        )));
    }

    let mut spec = ExperimentSpec::new("cli-campaign", c.grid.clone());
    for i in 0..campaigns {
        let replica_seed = if i == 0 {
            c.seed
        } else {
            derive_seed(c.seed, u64::from(i))
        };
        let mut cfg = CampaignConfig::new(c.config.mid, strategy)
            .with_target(ShotTarget::Attempts(shots))
            .with_two_qubit_error(error)
            .with_seed(replica_seed);
        if args.flag("timeline") {
            cfg = cfg.with_timeline();
        }
        if streaming {
            cfg = cfg.with_streaming();
        }
        // An explicit --shots request overrides the library's runaway
        // safety cap (100k), which would otherwise silently truncate
        // the million-shot campaigns --streaming exists to make cheap.
        cfg.max_attempts = cfg.max_attempts.max(shots);
        let loss = LossSpec::new(replica_seed).with_improvement_factor(factor);
        // One shard is the serial campaign itself — same task, same
        // row, no fan-out bookkeeping.
        let task = if shards == 1 {
            Task::Campaign { config: cfg, loss }
        } else {
            Task::ShardedCampaign {
                config: cfg,
                loss,
                shards,
            }
        };
        spec.push(c.workload.clone(), c.size, c.seed, c.config, task);
    }
    let jsonl = jsonl_target(args);
    if let Some(Some(path)) = &jsonl {
        validate_writable(path, "JSONL")?;
    }
    let records = engine(args)?.run(&spec);
    report_cache_stats();

    if let Some(target) = &jsonl {
        emit_jsonl(&records, target.as_deref())?;
        return Ok(finish_rows(&records));
    }

    let mut mean_shots = Vec::new();
    for r in &records {
        let result = match &r.outcome {
            Outcome::Campaign(result) => result,
            Outcome::Failed { error, .. } => {
                // One replica's failure is its own row; the rest of
                // the replicas still report.
                if campaigns > 1 {
                    print!("[replica {}] ", r.id);
                }
                println!("failed: {error}");
                continue;
            }
            other => unreachable!("campaign task returned {other:?}"),
        };
        if campaigns > 1 {
            print!("[replica {}] ", r.id);
        }
        println!(
            "{} shots: {} successful, {} lost to atom loss, {} to noise",
            result.shots_attempted,
            result.shots_successful,
            result.discarded_by_loss,
            result.failed_by_noise
        );
        let l = &result.ledger;
        println!(
            "overhead {:.2} s (reload {:.2} s x{}, fluorescence {:.2} s, remap/fixup/recompile {:.4} s)",
            l.overhead_time(),
            l.reload_time,
            l.reloads,
            l.fluorescence_time,
            l.remap_time + l.fixup_time + l.recompile_time
        );
        println!(
            "mean successful shots per reload interval: {:.1}",
            result.mean_shots_before_reload()
        );
        mean_shots.push(result.mean_shots_before_reload());
        if args.flag("timeline") {
            println!("\n{}", render_timeline(&result.timeline));
        }
    }
    if campaigns > 1 && !mean_shots.is_empty() {
        let mean = mean_shots.iter().sum::<f64>() / mean_shots.len() as f64;
        println!(
            "aggregate over {} campaigns: {mean:.1} successful shots per reload interval",
            mean_shots.len()
        );
    }
    Ok(finish_rows(&records))
}

/// One timed workload of `natoms bench`.
#[derive(Debug, serde::Serialize)]
struct BenchWorkload {
    /// Workload name (`fig07_compile`, `fig08_compile`, `placement`,
    /// `placement_reference`, `loss_executor`).
    name: String,
    /// Timed repetitions of the whole workload.
    passes: u32,
    /// Work units (compiles or shots) in one pass.
    units_per_pass: u32,
    /// Total wall-clock seconds over all passes.
    total_secs: f64,
    /// Mean seconds per pass.
    secs_per_pass: f64,
    /// Work units per second.
    units_per_sec: f64,
    /// This workload's own stage breakdown over all its timed
    /// repetitions: the `stages` of a metrics snapshot taken over just
    /// this workload.
    stages: std::collections::BTreeMap<String, na_telemetry::StageSummary>,
}

/// Provenance of one `natoms bench` run.
#[derive(Debug, serde::Serialize)]
struct BenchMeta {
    /// `git rev-parse --short=12 HEAD` of the working tree, or
    /// `"unknown"` outside a repository.
    git_rev: String,
    /// ISO-8601 UTC wall-clock time of the run.
    timestamp: String,
    /// Available hardware parallelism on the host.
    workers: usize,
}

impl BenchMeta {
    fn collect() -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_string())
            .filter(|rev| !rev.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        BenchMeta {
            git_rev,
            timestamp: na_telemetry::iso8601_now(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// The machine-readable report of `natoms bench --json`.
///
/// Schema history: v2 added `meta` (run provenance) and `metrics` (the
/// per-stage telemetry snapshot of the benched workloads); every v1
/// per-workload field is retained unchanged so units/s trajectories
/// stay comparable across the schema bump. `pass_report` (the
/// per-pass breakdown of one representative compile through the
/// self-checking pipeline) and each workload's own `stages` are
/// additive under v2.
#[derive(Debug, serde::Serialize)]
struct BenchReport {
    /// Report format tag.
    schema: String,
    /// `"quick"` (CI smoke) or `"full"`.
    mode: String,
    /// Device the workloads compile onto.
    grid: String,
    /// Run provenance.
    meta: BenchMeta,
    /// The timed workloads.
    workloads: Vec<BenchWorkload>,
    /// Merged telemetry of the benched workloads: per-stage latency
    /// percentiles plus compile/loss counters.
    metrics: na_telemetry::MetricsSnapshot,
    /// Per-pass wall time and artifact stats of one representative
    /// compile (BV at the fig07 size on the bench grid) through the
    /// self-checking pass pipeline.
    pass_report: na_core::PassReport,
}

/// `natoms bench` — wall-clock timings of the paper-grid compile and
/// loss-executor workloads (the numbers tracked in
/// `BENCH_compile.json`). `--json` emits the machine-readable report;
/// `--quick` runs a reduced smoke-size variant for CI.
pub fn bench_cmd(args: &Args) -> CmdResult {
    let quick = args.flag("quick");
    let timeout = job_timeout(args)?;
    // bench always collects its own telemetry (that's the per-stage
    // breakdown the report embeds), regardless of --metrics.
    let telemetry_was_enabled = na_telemetry::is_enabled();
    na_telemetry::set_enabled(true);
    na_telemetry::reset();
    let outcome = bench_workloads(quick, timeout);
    let metrics = na_telemetry::snapshot();
    na_telemetry::set_enabled(telemetry_was_enabled);
    let (grid, workloads, pass_report) = outcome?;

    let report = BenchReport {
        schema: "natoms-bench-v2".into(),
        mode: if quick { "quick" } else { "full" }.into(),
        grid: format!("{}x{}", grid.width(), grid.height()),
        meta: BenchMeta::collect(),
        workloads,
        metrics,
        pass_report,
    };
    if args.flag("json") {
        println!("{}", serde_json::to_string(&report)?);
    } else {
        println!(
            "== natoms bench ({}) on {} == [{} @ {}, {} cores]",
            report.mode,
            report.grid,
            report.meta.git_rev,
            report.meta.timestamp,
            report.meta.workers
        );
        for w in &report.workloads {
            println!(
                "{:<16} {:>3} pass(es) x {:>4} units: {:.4} s/pass ({:.0} units/s)",
                w.name, w.passes, w.units_per_pass, w.secs_per_pass, w.units_per_sec
            );
        }
        print!("{}", report.metrics.render());
        print!("{}", report.pass_report.render());
    }
    // The perf gate: compare this run's throughput against a committed
    // baseline; a regression beyond tolerance exits nonzero (code 2).
    if let Some(baseline) = args.get("check") {
        let tolerance: f64 = args.parse_or("tolerance", 25.0)?;
        return check_bench_regression(&report.workloads, baseline, tolerance);
    }
    Ok(CmdStatus::Ok)
}

/// Extracts `(name, units_per_sec)` baseline rows from a comparison
/// file: a `natoms bench --json` report (`workloads`), or the
/// committed `BENCH_compile.json` shape (preferring the most recent
/// `current.results` measurement, falling back to
/// `baseline.results`).
fn baseline_rows(value: &serde_json::Value) -> Option<Vec<(String, f64)>> {
    let results = |key: &str| {
        value
            .get(key)
            .and_then(|section| section.get("results"))
            .and_then(|rows| rows.as_array())
    };
    let rows = value
        .get("workloads")
        .and_then(|rows| rows.as_array())
        .or_else(|| results("current"))
        .or_else(|| results("baseline"))?;
    let rows: Vec<(String, f64)> = rows
        .iter()
        .filter_map(|row| {
            Some((
                row.get("name")?.as_str()?.to_string(),
                row.get("units_per_sec")?.as_f64()?,
            ))
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// `natoms bench --check <baseline.json> [--tolerance PCT]`: every
/// workload present in both runs must stay above
/// `baseline * (1 - PCT/100)` units/s (default tolerance 25%).
///
/// # Errors
///
/// An unreadable or shape-less baseline file, or no common workloads.
/// A throughput regression is *not* an `Err` — it reports per-workload
/// verdicts on stderr and returns [`CmdStatus::PartialFailure`]
/// (exit 2), matching the engine's typed-failure exit semantics.
fn check_bench_regression(fresh: &[BenchWorkload], path: &str, tolerance_pct: f64) -> CmdResult {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read bench baseline {path:?}: {e}")))?;
    let value: serde_json::Value = serde_json::from_str(&text)
        .map_err(|e| ArgError(format!("{path}: not a bench baseline: {e}")))?;
    let baseline = baseline_rows(&value).ok_or_else(|| {
        ArgError(format!(
            "{path}: no workload rows (expected a bench report or BENCH_compile.json)"
        ))
    })?;
    let mut compared = 0u32;
    let mut regressions = 0u32;
    eprintln!("bench check vs {path} (tolerance -{tolerance_pct}%):");
    for w in fresh {
        let Some((_, base_ups)) = baseline.iter().find(|(name, _)| name == &w.name) else {
            continue;
        };
        compared += 1;
        let floor = base_ups * (1.0 - tolerance_pct / 100.0);
        let delta_pct = (w.units_per_sec / base_ups - 1.0) * 100.0;
        let verdict = if w.units_per_sec < floor {
            regressions += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        eprintln!(
            "  {:<24} {:>10.1} units/s vs {:>10.1} baseline ({:>+7.1}%) {}",
            w.name, w.units_per_sec, base_ups, delta_pct, verdict
        );
    }
    if compared == 0 {
        return Err(Box::new(ArgError(format!(
            "{path}: no workloads in common with this bench run"
        ))));
    }
    if regressions > 0 {
        eprintln!(
            "bench check: {regressions}/{compared} workload(s) more than {tolerance_pct}% below baseline"
        );
        Ok(CmdStatus::PartialFailure)
    } else {
        eprintln!("bench check: {compared} workload(s) within tolerance");
        Ok(CmdStatus::Ok)
    }
}

/// The timed workloads of `natoms bench`. Each pass of each workload
/// runs under the `--job-timeout` budget (unbounded without it); a
/// workload that runs out stops at a compiler/campaign stage boundary
/// and surfaces as a typed error naming the workload.
#[allow(clippy::type_complexity)]
fn bench_workloads(
    quick: bool,
    timeout: Option<Duration>,
) -> Result<(Grid, Vec<BenchWorkload>, na_core::PassReport), Box<dyn Error>> {
    use std::time::Instant;
    let grid = Grid::new(10, 10);
    let na_cfg = CompilerConfig::new(3.0);
    let sc_cfg = CompilerConfig::new(1.0)
        .with_native_multiqubit(false)
        .with_restriction(RestrictionPolicy::None);
    let mut workloads = Vec::new();
    // The whole run's metrics, assembled from per-workload takes of the
    // registry and handed back to it at the end.
    let mut run = Box::<na_telemetry::Recorder>::default();

    let mut timed = |name: &str,
                     passes: u32,
                     units_per_pass: u32,
                     work: &mut dyn FnMut() -> Result<(), Box<dyn Error>>|
     -> Result<(), Box<dyn Error>> {
        run.merge_from(&na_telemetry::take_merged());
        let t0 = Instant::now();
        for _ in 0..passes {
            let _budget = na_faults::push_deadline(match timeout {
                Some(d) => na_faults::Deadline::after(d),
                None => na_faults::Deadline::UNBOUNDED,
            });
            work().map_err(|e| ArgError(format!("bench workload {name}: {e}")))?;
        }
        let total_secs = t0.elapsed().as_secs_f64();
        let secs_per_pass = total_secs / f64::from(passes);
        let own = na_telemetry::take_merged();
        run.merge_from(&own);
        workloads.push(BenchWorkload {
            name: name.to_string(),
            passes,
            units_per_pass,
            total_secs,
            secs_per_pass,
            units_per_sec: f64::from(passes * units_per_pass) / total_secs,
            stages: na_telemetry::MetricsSnapshot::of(&own, true).stages,
        });
        Ok(())
    };

    // Fig. 7 workload: one compile per (benchmark, architecture) at
    // the paper's 50-qubit program size.
    let fig07_size = if quick { 16 } else { 50 };
    let fig07_passes = if quick { 1 } else { 3 };
    timed(
        "fig07_compile",
        fig07_passes,
        (Benchmark::ALL.len() * 2) as u32,
        &mut || {
            for b in Benchmark::ALL {
                let c = b.generate(fig07_size, 0);
                compile(&c, &grid, &na_cfg)?;
                compile(&c, &grid, &sc_cfg)?;
            }
            Ok(())
        },
    )?;

    // Fig. 8 workload: the size ladder, both architectures.
    let fig08_sizes: Vec<u32> = if quick {
        vec![10, 20]
    } else {
        (5..=100).step_by(5).collect()
    };
    timed(
        "fig08_compile",
        1,
        (Benchmark::ALL.len() * fig08_sizes.len() * 2) as u32,
        &mut || {
            for b in Benchmark::ALL {
                for &size in &fig08_sizes {
                    let c = b.generate(size, 0);
                    compile(&c, &grid, &na_cfg)?;
                    compile(&c, &grid, &sc_cfg)?;
                }
            }
            Ok(())
        },
    )?;

    // Placement workload: the initial-mapping slice of the compile
    // pipeline, isolated. Circuits are pre-lowered and their lookahead
    // weights pre-built outside the timed loop, so the numbers measure
    // placement alone — the fast path (`placement`) against the seed
    // O(n² · sites) placer kept as the in-tree oracle
    // (`placement_reference`). Full mode uses the largest ladder
    // programs (size 100) on the paper grid.
    let placement_size = if quick { 16 } else { 100 };
    let placement_passes = if quick { 1 } else { 10 };
    let layouts: Vec<(na_circuit::Circuit, na_core::InteractionWeights)> = Benchmark::ALL
        .iter()
        .flat_map(|b| {
            let c = b.generate(placement_size, 0);
            [&na_cfg, &sc_cfg].map(|cfg| {
                let lowered = na_core::lower_for(&c, cfg);
                let weights = na_core::circuit_weights(&lowered, cfg.lookahead_depth);
                (lowered, weights)
            })
        })
        .collect();
    let mut scratch = na_core::PlacementScratch::new();
    // Untimed warmup so neither placement path pays the one-off
    // cold-cache/allocation cost inside its timed loop.
    for (c, w) in &layouts {
        na_core::initial_placement_with(c, &grid, w, &mut scratch)?;
        na_core::initial_placement_reference(c, &grid, w)?;
    }
    timed(
        "placement",
        placement_passes,
        layouts.len() as u32,
        &mut || {
            for (c, w) in &layouts {
                na_core::initial_placement_with(c, &grid, w, &mut scratch)?;
            }
            Ok(())
        },
    )?;
    timed(
        "placement_reference",
        placement_passes,
        layouts.len() as u32,
        &mut || {
            for (c, w) in &layouts {
                na_core::initial_placement_reference(c, &grid, w)?;
            }
            Ok(())
        },
    )?;

    // Loss-executor workload: a Monte-Carlo campaign under atom loss
    // (compile + per-shot loss draws, remaps, and reroute fixups).
    let shots = if quick { 25 } else { 200 };
    timed("loss_executor", 1, shots, &mut || {
        let program = Benchmark::Bv.generate(30, 0);
        let cfg = CampaignConfig::new(3.0, Strategy::CompileSmallReroute)
            .with_target(ShotTarget::Attempts(u64::from(shots)))
            .with_seed(1);
        run_campaign(&program, &grid, na_loss::LossModel::new(1), &cfg)?;
        Ok(())
    })?;

    // Heavy loss-executor workload: destructive (50% measurement loss)
    // readout on a larger program, so nearly every shot draws
    // interfering losses and the per-shot remap + reroute-fixup
    // costing dominates instead of the RNG draws.
    let heavy_shots = if quick { 25 } else { 400 };
    let heavy_size = if quick { 16 } else { 40 };
    timed("loss_executor_heavy", 1, heavy_shots, &mut || {
        let program = Benchmark::Cuccaro.generate(heavy_size, 0);
        let cfg = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
            .with_target(ShotTarget::Attempts(u64::from(heavy_shots)))
            .with_seed(1);
        run_campaign(
            &program,
            &grid,
            na_loss::LossModel::destructive_readout(1),
            &cfg,
        )?;
        Ok(())
    })?;

    // Sharded-campaign workload: the heavy campaign config through the
    // engine pool at 1, 2, and 8 shards, in streaming mode (the
    // constant-memory path sharding exists to scale). A warmup run
    // fills the shared compile cache first, so every row times the
    // shot loops and the merge, not the one compile all shard counts
    // share. On a multi-core host the 8-shard row's units/s against
    // the 1-shard row shows the fan-out speedup; on a single-core
    // host the rows document the (small) sharding overhead instead.
    let fan_shots: u32 = if quick { 25 } else { 400 };
    let fan_size = if quick { 16 } else { 40 };
    let fan_engine = Engine::new();
    let sharded_spec = |shards: u32| {
        let mut spec = ExperimentSpec::new("bench-sharded", grid.clone());
        let cfg = CampaignConfig::new(4.0, Strategy::CompileSmallReroute)
            .with_target(ShotTarget::Attempts(u64::from(fan_shots)))
            .with_streaming()
            .with_seed(1);
        let task = if shards == 1 {
            Task::Campaign {
                config: cfg,
                loss: LossSpec::new(1),
            }
        } else {
            Task::ShardedCampaign {
                config: cfg,
                loss: LossSpec::new(1),
                shards,
            }
        };
        spec.push(
            Benchmark::Cuccaro,
            fan_size,
            0,
            CompilerConfig::new(4.0),
            task,
        );
        spec
    };
    let run_sharded = |engine: &Engine, shards: u32| -> Result<(), Box<dyn Error>> {
        for r in engine.run(&sharded_spec(shards)) {
            if let Outcome::Failed { error, .. } = &r.outcome {
                return Err(ArgError(format!("campaign_sharded_{shards}: {error}")).into());
            }
        }
        Ok(())
    };
    run_sharded(&fan_engine, 1)?; // warmup: fill the compile cache
    for shards in [1u32, 2, 8] {
        timed(
            &format!("campaign_sharded_{shards}"),
            1,
            fan_shots,
            &mut || run_sharded(&fan_engine, shards),
        )?;
    }

    // One representative compile through the self-checking pipeline:
    // the per-pass breakdown the report embeds (untimed — it is a
    // breakdown of where compile time goes, not a benchmark row).
    let (_, pass_report) =
        na_core::compile_with_report(&Benchmark::Bv.generate(fig07_size, 0), &grid, &na_cfg)?;

    na_telemetry::Registry::global().merge(&run);
    Ok((grid, workloads, pass_report))
}

/// `natoms reload-time`
pub fn reload_time_cmd(args: &Args) -> CmdResult {
    let width: u32 = args.parse_or("width", 10)?;
    let height: u32 = args.parse_or("height", 10)?;
    let margin: u32 = args.parse_or("margin", 3)?;
    let trials: u32 = args.parse_or("trials", 10)?;
    let seed: u64 = args.parse_or("seed", 0u64)?;
    let mut sim = AssemblySimulator::with_defaults(seed);
    let mean = sim.mean_reload_time(width, height, margin, trials);
    println!(
        "defect-free {width}x{height} assembly (reservoir margin {margin}): {mean:.3} s mean over {trials} trials"
    );
    println!("(the paper's 0.3 s reload constant, derived from loading physics)");
    Ok(CmdStatus::Ok)
}

/// Serializes the merged telemetry snapshot of this run to `path`
/// (the tail end of the global `--metrics <file>` flag).
pub fn write_metrics_snapshot(path: &str) -> Result<(), Box<dyn Error>> {
    let snapshot = na_telemetry::snapshot();
    let json = serde_json::to_string(&snapshot)?;
    std::fs::write(path, json)
        .map_err(|e| ArgError(format!("cannot write metrics file {path:?}: {e}")))?;
    Ok(())
}

/// Drains the trace registry and writes Chrome trace-event JSON to
/// `path` (the tail end of the global `--trace <file>` flag).
pub fn write_trace(path: &str) -> Result<(), Box<dyn Error>> {
    let mut buf = Vec::new();
    let events = na_telemetry::trace::write_chrome_trace(&mut buf)?;
    std::fs::write(path, &buf)
        .map_err(|e| ArgError(format!("cannot write trace file {path:?}: {e}")))?;
    eprintln!("trace: wrote {events} events to {path}");
    Ok(())
}

/// The tail end of every `natoms` invocation: writes the `--metrics`
/// snapshot and `--trace` export once the subcommand has run.
///
/// Both files are written for [`CmdStatus::PartialFailure`] (exit 2)
/// too, not just full success — the failure counters
/// (`jobs_failed`, `deadlines_exceeded`) and the panic/deadline trace
/// instants are exactly what you inspect after a partial failure.
/// `tests` pins this regression.
pub fn finalize_outputs(
    result: Result<CmdStatus, Box<dyn Error>>,
    metrics_path: Option<&str>,
    trace_path: Option<&str>,
) -> Result<CmdStatus, Box<dyn Error>> {
    result.and_then(|status| {
        if let Some(path) = metrics_path {
            write_metrics_snapshot(path)?;
        }
        if let Some(path) = trace_path {
            write_trace(path)?;
        }
        Ok(status)
    })
}

/// `natoms stats` — pretty-prints a `--metrics` snapshot file, with
/// optional assertions for CI smoke checks:
///
/// * `--require-stages a,b,c` fails unless every named stage recorded
///   at least one sample with non-zero total time;
/// * `--require-cache` fails unless the compile cache saw at least one
///   lookup.
pub fn stats_cmd(args: &Args) -> CmdResult {
    let path = args
        .get("file")
        .ok_or_else(|| ArgError("stats needs --file <metrics.json>".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read metrics file {path:?}: {e}")))?;
    let snapshot: na_telemetry::MetricsSnapshot = serde_json::from_str(&text)
        .map_err(|e| ArgError(format!("{path}: not a metrics snapshot: {e}")))?;
    if snapshot.schema != na_telemetry::SNAPSHOT_SCHEMA {
        return Err(Box::new(ArgError(format!(
            "{path}: unknown snapshot schema {:?} (expected {:?})",
            snapshot.schema,
            na_telemetry::SNAPSHOT_SCHEMA
        ))));
    }
    print!("{}", snapshot.render());

    if let Some(required) = args.get("require-stages") {
        for name in required.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let stage = snapshot.stage(name).ok_or_else(|| {
                ArgError(format!("required stage {name:?} missing from snapshot"))
            })?;
            if stage.count == 0 || stage.total_ns == 0 {
                return Err(Box::new(ArgError(format!(
                    "required stage {name:?} recorded no time"
                ))));
            }
        }
    }
    if args.flag("require-cache") {
        let lookups =
            snapshot.counter("compile_cache_hits") + snapshot.counter("compile_cache_misses");
        if lookups == 0 {
            return Err(Box::new(ArgError(
                "snapshot has no compile-cache lookups".into(),
            )));
        }
    }
    Ok(CmdStatus::Ok)
}

/// One completed span reconstructed from a Chrome trace file.
#[derive(Debug, Clone)]
struct TraceSpan {
    name: String,
    /// Span id from `args.id` (0 when absent).
    id: u64,
    /// Parent span id from `args.parent` (0 = root).
    parent: u64,
    tid: u64,
    /// Duration in microseconds.
    dur_us: f64,
    /// `args.job`, when the span carries one.
    job: Option<u64>,
    /// `args.task`, when the span carries one.
    task: Option<String>,
}

/// Reconstructs spans (matched B/E pairs, LIFO per track) and instant
/// counts from parsed trace events. Returns
/// `(spans, instant counts by name, unmatched event count)`.
fn fold_trace_events(
    events: &[serde_json::Value],
) -> (
    Vec<TraceSpan>,
    std::collections::BTreeMap<String, u64>,
    usize,
) {
    let mut stacks: std::collections::HashMap<u64, Vec<(serde_json::Value, f64)>> =
        std::collections::HashMap::new();
    let mut spans = Vec::new();
    let mut instants: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut unmatched = 0usize;
    let name_of = |ev: &serde_json::Value| {
        ev.get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let arg =
        |ev: &serde_json::Value, key: &str| ev.get("args").and_then(|args| args.get(key)).cloned();
    for ev in events {
        let tid = ev.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);
        let ts = ev.get("ts").and_then(|t| t.as_f64()).unwrap_or(0.0);
        match ev.get("ph").and_then(|p| p.as_str()) {
            Some("B") => stacks.entry(tid).or_default().push((ev.clone(), ts)),
            Some("E") => match stacks.entry(tid).or_default().pop() {
                Some((begin, begin_ts)) => spans.push(TraceSpan {
                    name: name_of(&begin),
                    id: arg(&begin, "id").and_then(|v| v.as_u64()).unwrap_or(0),
                    parent: arg(&begin, "parent").and_then(|v| v.as_u64()).unwrap_or(0),
                    tid,
                    dur_us: (ts - begin_ts).max(0.0),
                    job: arg(&begin, "job").and_then(|v| v.as_u64()),
                    task: arg(&begin, "task").and_then(|v| v.as_str().map(str::to_string)),
                }),
                None => unmatched += 1,
            },
            Some("i") => {
                *instants.entry(name_of(ev)).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    unmatched += stacks.values().map(Vec::len).sum::<usize>();
    (spans, instants, unmatched)
}

/// Walks the longest-child chain under `root`, rendering one critical
/// path line per level.
fn render_critical_path(
    root: usize,
    spans: &[TraceSpan],
    children: &std::collections::HashMap<u64, Vec<usize>>,
) -> String {
    let mut path = String::new();
    let mut at = root;
    loop {
        let slowest_child = children
            .get(&spans[at].id)
            .into_iter()
            .flatten()
            .copied()
            .max_by(|&a, &b| spans[a].dur_us.total_cmp(&spans[b].dur_us));
        match slowest_child {
            Some(child) => {
                path.push_str(&format!(
                    " -> {} {:.3} ms",
                    spans[child].name,
                    spans[child].dur_us / 1e3
                ));
                at = child;
            }
            None => break,
        }
    }
    path
}

/// `natoms trace <file>` — summarizes a Chrome trace-event file
/// written by the global `--trace` flag: structural validation
/// (matched begin/end pairs per track), per-job critical paths, the
/// top-k slowest spans (`--top N`, default 10), and cache-wait
/// totals.
pub fn trace_cmd(args: &Args) -> CmdResult {
    let path = args
        .positional()
        .or_else(|| args.get("file"))
        .ok_or_else(|| ArgError("trace needs a file: natoms trace <trace.json>".into()))?;
    let top: usize = args.parse_or("top", 10)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read trace file {path:?}: {e}")))?;
    let events: Vec<serde_json::Value> = serde_json::from_str(&text)
        .map_err(|e| ArgError(format!("{path}: not a trace-event array: {e}")))?;
    let (spans, instants, unmatched) = fold_trace_events(&events);
    let tracks: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|ev| ev.get("tid").and_then(|t| t.as_u64()))
        .collect();
    println!(
        "{path}: {} events, {} spans, {} tracks, {} unmatched begin/end",
        events.len(),
        spans.len(),
        tracks.len(),
        unmatched
    );
    if !instants.is_empty() {
        let rendered: Vec<String> = instants
            .iter()
            .map(|(name, count)| format!("{name} x{count}"))
            .collect();
        println!("instants: {}", rendered.join(", "));
    }

    let waits: Vec<&TraceSpan> = spans.iter().filter(|s| s.name == "cache_wait").collect();
    if !waits.is_empty() {
        println!(
            "cache wait: {} wait(s), {:.3} ms total",
            waits.len(),
            waits.iter().map(|s| s.dur_us).sum::<f64>() / 1e3
        );
    }

    let mut slowest: Vec<usize> = (0..spans.len()).collect();
    slowest.sort_by(|&a, &b| spans[b].dur_us.total_cmp(&spans[a].dur_us));
    if !slowest.is_empty() {
        println!("top {} slowest spans:", top.min(slowest.len()));
        for (rank, &i) in slowest.iter().take(top).enumerate() {
            let s = &spans[i];
            let mut label = s.name.clone();
            if let Some(job) = s.job {
                label.push_str(&format!(" job={job}"));
            }
            if let Some(task) = &s.task {
                label.push_str(&format!(" task={task}"));
            }
            println!(
                "  {:>2}. {:<32} {:>10.3} ms  [tid {}]",
                rank + 1,
                label,
                s.dur_us / 1e3,
                s.tid
            );
        }
    }

    // Critical path per job: jobs are the root spans (`job` /
    // `campaign_job`); children link by the explicit span ids the
    // exporter put in `args`.
    let mut children: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let mut jobs: Vec<usize> = (0..spans.len())
        .filter(|&i| {
            (spans[i].name == "job" || spans[i].name == "campaign_job") && spans[i].id != 0
        })
        .collect();
    jobs.sort_by_key(|&i| spans[i].job.unwrap_or(u64::MAX));
    if !jobs.is_empty() {
        println!("per-job critical path:");
        for &i in &jobs {
            let s = &spans[i];
            println!(
                "  job {} ({}) {:.3} ms{}",
                s.job.map_or_else(|| "?".into(), |j| j.to_string()),
                s.task.as_deref().unwrap_or(if s.name == "campaign_job" {
                    "campaign_sharded"
                } else {
                    "?"
                }),
                s.dur_us / 1e3,
                render_critical_path(i, &spans, &children)
            );
        }
    }
    Ok(CmdStatus::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn benchmark_names_parse() {
        assert_eq!(parse_benchmark("qaoa").unwrap(), Benchmark::Qaoa);
        assert_eq!(parse_benchmark("QFT-Adder").unwrap(), Benchmark::QftAdder);
        assert!(parse_benchmark("ghz").is_err());
    }

    #[test]
    fn strategy_names_parse() {
        assert_eq!(parse_strategy("reroute").unwrap(), Strategy::MinorReroute);
        assert_eq!(
            parse_strategy("c-small-reroute").unwrap(),
            Strategy::CompileSmallReroute
        );
        assert!(parse_strategy("magic").is_err());
    }

    #[test]
    fn grid_spec_parses() {
        let g = parse_grid("8x12").unwrap();
        assert_eq!((g.width(), g.height()), (8, 12));
        assert!(parse_grid("8by12").is_err());
        assert!(parse_grid("0x5").is_err());
        assert!(parse_grid("1024x1024").is_ok());
        // 65536² wraps to 0 in u32; both are over the site cap.
        assert!(parse_grid("65536x65536").is_err());
        assert!(parse_grid("1025x1024").is_err());
    }

    #[test]
    fn compile_command_runs() {
        let args = parse(&[
            "compile",
            "--benchmark",
            "qaoa",
            "--size",
            "12",
            "--mid",
            "2",
        ]);
        compile_cmd(&args).unwrap();
    }

    #[test]
    fn compile_command_reports_passes() {
        let args = parse(&[
            "compile",
            "--benchmark",
            "qaoa",
            "--size",
            "12",
            "--mid",
            "2",
            "--passes",
        ]);
        compile_cmd(&args).unwrap();
    }

    #[test]
    fn sweep_command_runs() {
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
        ]);
        sweep_cmd(&args).unwrap();
    }

    #[test]
    fn sweep_command_runs_through_engine_workers() {
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,2,3",
            "--workers",
            "4",
        ]);
        sweep_cmd(&args).unwrap();
    }

    #[test]
    fn campaign_command_runs() {
        let args = parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "20",
            "--strategy",
            "remap",
        ]);
        campaign_cmd(&args).unwrap();
    }

    #[test]
    fn campaign_replicas_run_in_parallel() {
        let args = parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "20",
            "--strategy",
            "remap",
            "--campaigns",
            "3",
            "--workers",
            "3",
        ]);
        campaign_cmd(&args).unwrap();
    }

    #[test]
    fn campaign_shards_and_streaming_run() {
        campaign_cmd(&parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "24",
            "--strategy",
            "remap",
            "--shards",
            "3",
            "--workers",
            "2",
            "--streaming",
        ]))
        .unwrap();
    }

    #[test]
    fn campaign_rejects_timeline_with_streaming() {
        let err = campaign_cmd(&parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "8",
            "--strategy",
            "remap",
            "--streaming",
            "--timeline",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--timeline"), "{err}");
        assert!(err.to_string().contains("--streaming"), "{err}");
    }

    #[test]
    fn campaign_rejects_zero_shards() {
        let err = campaign_cmd(&parse(&[
            "campaign", "--size", "12", "--shots", "8", "--shards", "0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--shards"), "{err}");
    }

    #[test]
    fn bench_quick_runs_and_report_serializes() {
        let args = parse(&["bench", "--quick", "--json"]);
        bench_cmd(&args).unwrap();
        // The report type itself round-trips through serde_json, with
        // the v1 per-workload units/s fields intact under v2.
        let report = BenchReport {
            schema: "natoms-bench-v2".into(),
            mode: "quick".into(),
            grid: "10x10".into(),
            meta: BenchMeta::collect(),
            workloads: vec![BenchWorkload {
                name: "fig07_compile".into(),
                passes: 1,
                units_per_pass: 10,
                total_secs: 0.5,
                secs_per_pass: 0.5,
                units_per_sec: 20.0,
                stages: Default::default(),
            }],
            metrics: na_telemetry::Registry::new(true).snapshot(),
            pass_report: na_core::PassReport::default(),
        };
        let line = serde_json::to_string(&report).unwrap();
        assert!(line.contains("\"schema\":\"natoms-bench-v2\""));
        assert!(line.contains("\"units_per_pass\":10"));
        assert!(line.contains("\"git_rev\""));
        assert!(line.contains("\"timestamp\""));
        assert!(line.contains("\"metrics\""));
        assert!(line.contains("\"pass_report\""));
    }

    #[test]
    fn stats_command_round_trips_a_metrics_file() {
        // Build a snapshot through the real pipeline (compile through
        // a cache with telemetry on), write it, and re-read it through
        // the stats command's checks.
        let registry = na_telemetry::Registry::new(true);
        let mut recorder = na_telemetry::Recorder::new();
        recorder.record_ns(na_telemetry::Stage::Lower, 1_000);
        recorder.record_ns(na_telemetry::Stage::Place, 2_000);
        recorder.record_ns(na_telemetry::Stage::Schedule, 3_000);
        recorder.add(na_telemetry::Counter::CompileCacheMisses, 1);
        registry.merge(&recorder);
        let snapshot = registry.snapshot();
        let path = std::env::temp_dir().join("natoms_cli_stats_test.json");
        std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
        let path = path.to_str().unwrap().to_string();

        stats_cmd(&parse(&[
            "stats",
            "--file",
            &path,
            "--require-stages",
            "lower,place,schedule",
            "--require-cache",
        ]))
        .unwrap();
        // Missing stage and absent cache counters must fail loudly.
        let err = stats_cmd(&parse(&[
            "stats",
            "--file",
            &path,
            "--require-stages",
            "recompile",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("recompile"));
        let err = stats_cmd(&parse(&["stats", "--file", "/nonexistent.json"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn sweep_partial_failure_is_reported_not_fatal() {
        // A zero budget fails every job at its first deadline
        // checkpoint; the sweep still renders its table and reports
        // partial failure instead of aborting.
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
            "--job-timeout",
            "0",
        ]);
        assert_eq!(sweep_cmd(&args).unwrap(), CmdStatus::PartialFailure);
    }

    #[test]
    fn generous_job_timeout_changes_nothing() {
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
            "--job-timeout",
            "3600",
        ]);
        assert_eq!(sweep_cmd(&args).unwrap(), CmdStatus::Ok);
    }

    #[test]
    fn bad_job_timeouts_are_rejected() {
        // 1e300 s is finite but overflows `Duration`.
        for raw in ["-1", "1e300", "inf", "nan"] {
            let args = parse(&["sweep", "--size", "12", "--job-timeout", raw]);
            let err = sweep_cmd(&args).unwrap_err();
            assert!(err.to_string().contains("non-negative"), "{raw}: {err}");
        }
        let err = sweep_cmd(&parse(&["sweep", "--size", "12", "--job-timeout"])).unwrap_err();
        assert!(err.to_string().contains("expects a number of seconds"));
    }

    #[test]
    fn campaign_replica_failures_are_rows_not_aborts() {
        let args = parse(&[
            "campaign",
            "--size",
            "12",
            "--shots",
            "10",
            "--strategy",
            "remap",
            "--campaigns",
            "2",
            "--job-timeout",
            "0",
        ]);
        assert_eq!(campaign_cmd(&args).unwrap(), CmdStatus::PartialFailure);
    }

    #[test]
    fn sweep_writes_jsonl_to_a_file() {
        let path = std::env::temp_dir().join("natoms_cli_sweep.jsonl");
        let path = path.to_str().unwrap().to_string();
        let args = parse(&[
            "sweep",
            "--benchmark",
            "bv",
            "--size",
            "12",
            "--mids",
            "1,3",
            "--jsonl",
            &path,
        ]);
        assert_eq!(sweep_cmd(&args).unwrap(), CmdStatus::Ok);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let row: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(row.get("outcome").is_some(), "not a result row: {line}");
        }
    }

    #[test]
    fn reproduce_writes_every_named_figure_to_one_jsonl_file() {
        let path = std::env::temp_dir().join("natoms_cli_reproduce.jsonl");
        let path = path.to_str().unwrap().to_string();
        let args = parse(&[
            "reproduce",
            "validation_mid1",
            "fig14",
            "--workers",
            "2",
            "--jsonl",
            &path,
        ]);
        assert_eq!(reproduce_cmd(&args).unwrap(), CmdStatus::Ok);
        let text = std::fs::read_to_string(&path).unwrap();
        // Six validation rows, then Fig. 14's one campaign row.
        assert_eq!(text.lines().count(), 7);
        for line in text.lines() {
            let row: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(row.get("outcome").is_some(), "not a result row: {line}");
        }
        let err = reproduce_cmd(&parse(&["reproduce", "fig09"])).unwrap_err();
        assert!(err.to_string().contains("unknown figure \"fig09\""));
    }

    #[test]
    fn finalize_outputs_writes_snapshots_on_partial_failure_too() {
        // Regression guard: an exit-2 run (typed failed rows) must
        // still write the --metrics snapshot and --trace export — the
        // failure counters and fault instants are what you inspect
        // after a partial failure.
        let metrics = std::env::temp_dir().join("natoms_cli_partial_metrics.json");
        let trace = std::env::temp_dir().join("natoms_cli_partial_trace.json");
        for p in [&metrics, &trace] {
            let _ = std::fs::remove_file(p);
        }
        let out = finalize_outputs(
            Ok(CmdStatus::PartialFailure),
            Some(metrics.to_str().unwrap()),
            Some(trace.to_str().unwrap()),
        )
        .unwrap();
        assert_eq!(out, CmdStatus::PartialFailure, "status must pass through");
        let snap: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert_eq!(
            snap.get("schema").and_then(|s| s.as_str()),
            Some(na_telemetry::SNAPSHOT_SCHEMA)
        );
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let events: serde_json::Value = serde_json::from_str(&trace_text).unwrap();
        assert!(
            events.as_array().is_some(),
            "trace export must be an event array"
        );
        // An Err result must stay an Err and write nothing.
        let _ = std::fs::remove_file(&metrics);
        let err = finalize_outputs(
            Err(Box::new(ArgError("boom".into()))),
            Some(metrics.to_str().unwrap()),
            None,
        );
        assert!(err.is_err());
        assert!(!metrics.exists(), "failed runs must not write snapshots");
    }

    fn bench_row(name: &str, units_per_sec: f64) -> BenchWorkload {
        BenchWorkload {
            name: name.to_string(),
            passes: 1,
            units_per_pass: 10,
            total_secs: 1.0,
            secs_per_pass: 1.0,
            units_per_sec,
            stages: Default::default(),
        }
    }

    #[test]
    fn bench_check_flags_regressions_and_passes_within_tolerance() {
        let path = std::env::temp_dir().join("natoms_cli_bench_baseline.json");
        std::fs::write(
            &path,
            r#"{"current":{"results":[{"name":"fig07_compile","units_per_sec":100.0},
                                      {"name":"placement","units_per_sec":50.0}]}}"#,
        )
        .unwrap();
        let path = path.to_str().unwrap();
        // Within tolerance: -20% on one workload at the default -25%.
        let fresh = vec![
            bench_row("fig07_compile", 80.0),
            bench_row("placement", 55.0),
        ];
        assert_eq!(
            check_bench_regression(&fresh, path, 25.0).unwrap(),
            CmdStatus::Ok
        );
        // Synthetically regressed: -60% must fail with exit-2 status.
        let slow = vec![
            bench_row("fig07_compile", 40.0),
            bench_row("placement", 55.0),
        ];
        assert_eq!(
            check_bench_regression(&slow, path, 25.0).unwrap(),
            CmdStatus::PartialFailure
        );
        // No common workloads is a hard error, not a silent pass.
        let alien = vec![bench_row("unknown_workload", 1.0)];
        assert!(check_bench_regression(&alien, path, 25.0).is_err());
    }

    #[test]
    fn bench_check_reads_all_three_baseline_shapes() {
        let report = r#"{"workloads":[{"name":"w","units_per_sec":10.0}]}"#;
        let compare = r#"{"baseline":{"results":[{"name":"w","units_per_sec":10.0}]}}"#;
        for text in [report, compare] {
            let value: serde_json::Value = serde_json::from_str(text).unwrap();
            assert_eq!(
                baseline_rows(&value).unwrap(),
                vec![("w".to_string(), 10.0)]
            );
        }
        let other: serde_json::Value = serde_json::from_str(r#"{"schema": "x"}"#).unwrap();
        assert!(baseline_rows(&other).is_none());
    }

    #[test]
    fn trace_cmd_summarizes_a_trace_file() {
        let path = std::env::temp_dir().join("natoms_cli_trace_summary.json");
        std::fs::write(
            &path,
            r#"[
              {"name":"job","cat":"job","ph":"B","ts":10.0,"pid":1,"tid":1,"args":{"id":1,"job":0,"task":"compile"}},
              {"name":"lower","cat":"pass","ph":"B","ts":11.0,"pid":1,"tid":1,"args":{"id":2,"parent":1}},
              {"name":"lower","cat":"pass","ph":"E","ts":15.0,"pid":1,"tid":1},
              {"name":"cache_wait","cat":"cache","ph":"B","ts":16.0,"pid":1,"tid":1,"args":{"id":3,"parent":1}},
              {"name":"cache_wait","cat":"cache","ph":"E","ts":18.0,"pid":1,"tid":1},
              {"name":"cache_hit","cat":"cache","ph":"i","s":"t","ts":19.0,"pid":1,"tid":1},
              {"name":"job","cat":"job","ph":"E","ts":20.0,"pid":1,"tid":1}
            ]"#,
        )
        .unwrap();
        let args = parse(&["trace", path.to_str().unwrap()]);
        assert_eq!(trace_cmd(&args).unwrap(), CmdStatus::Ok);
        // The folding itself: 3 matched spans, 1 instant, 0 unmatched.
        let events: Vec<serde_json::Value> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let (spans, instants, unmatched) = fold_trace_events(&events);
        assert_eq!((spans.len(), unmatched), (3, 0));
        assert_eq!(instants.get("cache_hit"), Some(&1));
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        assert_eq!((job.id, job.job, job.dur_us), (1, Some(0), 10.0));
        assert!(spans.iter().all(|s| s.name == "job" || s.parent == 1));
    }

    #[test]
    fn trace_cmd_rejects_missing_and_malformed_files() {
        let args = parse(&["trace"]);
        assert!(trace_cmd(&args).is_err(), "no file argument");
        let path = std::env::temp_dir().join("natoms_cli_trace_bad.json");
        std::fs::write(&path, "{not json").unwrap();
        let args = parse(&["trace", path.to_str().unwrap()]);
        assert!(trace_cmd(&args).is_err(), "malformed trace must error");
    }

    #[test]
    fn unwritable_output_paths_fail_up_front() {
        let err = validate_writable("/nonexistent-dir/x.json", "metrics").unwrap_err();
        assert!(err.to_string().contains("for writing"));
        // Validation must not truncate a file that already exists.
        let path = std::env::temp_dir().join("natoms_cli_writable.txt");
        std::fs::write(&path, "keep").unwrap();
        validate_writable(path.to_str().unwrap(), "JSONL").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep");
    }

    #[test]
    fn tolerance_rejects_unsupported_mid() {
        let args = parse(&["tolerance", "--mid", "2", "--strategy", "c-small"]);
        assert!(tolerance_cmd(&args).is_err());
    }

    /// Writes a QASM fixture under the target temp dir and returns its
    /// path as a String.
    fn qasm_fixture(name: &str, body: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, body).expect("fixture written");
        path.to_str().expect("utf-8 temp path").to_string()
    }

    const GHZ4: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n\
                        h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\nmeasure q -> c;\n";

    #[test]
    fn qasm_workloads_flow_through_every_command() {
        let path = qasm_fixture("natoms_cli_ghz4.qasm", GHZ4);
        compile_cmd(&parse(&["compile", "--qasm", &path, "--mid", "2"])).unwrap();
        sweep_cmd(&parse(&["sweep", "--qasm", &path, "--mids", "2,3"])).unwrap();
        success_cmd(&parse(&["success", "--qasm", &path, "--mid", "2"])).unwrap();
        tolerance_cmd(&parse(&[
            "tolerance",
            "--qasm",
            &path,
            "--mid",
            "3",
            "--trials",
            "2",
        ]))
        .unwrap();
        campaign_cmd(&parse(&[
            "campaign",
            "--qasm",
            &path,
            "--mid",
            "3",
            "--shots",
            "10",
            "--strategy",
            "remap",
        ]))
        .unwrap();
    }

    #[test]
    fn valueless_qasm_flag_is_rejected_not_ignored() {
        // `--qasm` with no path parses as a boolean flag; it must not
        // silently fall back to the default benchmark.
        let err = compile_cmd(&parse(&["compile", "--qasm"])).unwrap_err();
        assert!(err.to_string().contains("expects a file path"));
        let err = compile_cmd(&parse(&["compile", "--benchmark", "bv", "--qasm"])).unwrap_err();
        assert!(err.to_string().contains("--emit-qasm"));
    }

    #[test]
    fn qasm_and_benchmark_are_mutually_exclusive() {
        let path = qasm_fixture("natoms_cli_excl.qasm", GHZ4);
        let args = parse(&["compile", "--qasm", &path, "--benchmark", "bv"]);
        let err = compile_cmd(&args).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn qasm_parse_errors_surface_with_position() {
        let path = qasm_fixture(
            "natoms_cli_bad.qasm",
            "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n",
        );
        let err = compile_cmd(&parse(&["compile", "--qasm", &path])).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "missing position in {msg:?}");
        assert!(msg.contains("frobnicate"), "missing gate name in {msg:?}");
    }

    #[test]
    fn missing_qasm_file_is_a_clean_error() {
        let err = compile_cmd(&parse(&["compile", "--qasm", "/nonexistent/x.qasm"])).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn emit_qasm_round_trips_through_the_importer() {
        // `compile --emit-qasm` output must be importable again — the
        // CLI surface of the round-trip contract.
        let c = common(&parse(&["compile", "--benchmark", "qaoa", "--size", "8"])).unwrap();
        let compiled = compile_common(&c).unwrap();
        let text = na_circuit::qasm::to_qasm(compiled.circuit()).unwrap();
        let back = parse_qasm(&text).unwrap();
        assert_eq!(back.fingerprint(), compiled.circuit().fingerprint());
    }
}
